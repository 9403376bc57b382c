//! The warm-start exactness contract, machine-checked: a warm-started
//! search must return **identical** `(objective, placement)` results to
//! a cold search at every step of a random arrival/completion history.
//!
//! This is the property the golden-trace suite relies on transitively —
//! if warm == cold for arbitrary deltas, enabling the memo inside the
//! `DynMCB8*` schedulers cannot move a byte of any `SimOutcome`.

use dfrs_core::ids::JobId;
use dfrs_packing::{max_min_yield, max_min_yield_warm, JobLoad, Mcb8, RepackMemo, SearchScratch};
use proptest::prelude::*;

/// One event in a synthetic scheduler history.
#[derive(Debug, Clone)]
enum Delta {
    /// A job arrives (tasks, cpu_need, mem_req drawn from the
    /// annotator-like ranges).
    Arrive(u32, f64, f64),
    /// The job at (index modulo live set size) completes.
    Complete(usize),
}

/// One event in a history that also churns the platform: job deltas
/// plus node failures/repairs shrinking and regrowing the available
/// bin count (the schedulers pack over the available-node slice, so a
/// node-set change reaches the searches as a different `nodes` value).
#[derive(Debug, Clone)]
enum ChurnDelta {
    Job(Delta),
    /// Take one node out of service (no-op at 1 available node — the
    /// schedulers guard the empty slice before searching).
    NodeDown,
    /// Return one node to service (no-op at full capacity).
    NodeUp,
}

fn arb_deltas(max_len: usize) -> impl Strategy<Value = Vec<Delta>> {
    // (selector, tasks, cpu, mem, completion index): selector < 3 is an
    // arrival, else a completion — a 3:2 arrive/complete mix keeps the
    // live set growing slowly while still revisiting earlier sets.
    prop::collection::vec(
        (0u32..5, 1u32..5, 0.05f64..=1.0, 0.05f64..=0.6, 0usize..64).prop_map(
            |(sel, t, c, m, k)| {
                if sel < 3 {
                    Delta::Arrive(t, c, m)
                } else {
                    Delta::Complete(k)
                }
            },
        ),
        1..max_len,
    )
}

fn arb_churn_deltas(max_len: usize) -> impl Strategy<Value = Vec<ChurnDelta>> {
    // Mix: ~3/7 arrive, ~2/7 complete, 1/7 node-down, 1/7 node-up.
    prop::collection::vec(
        (0u32..7, 1u32..5, 0.05f64..=1.0, 0.05f64..=0.6, 0usize..64).prop_map(
            |(sel, t, c, m, k)| match sel {
                0..=2 => ChurnDelta::Job(Delta::Arrive(t, c, m)),
                3..=4 => ChurnDelta::Job(Delta::Complete(k)),
                5 => ChurnDelta::NodeDown,
                _ => ChurnDelta::NodeUp,
            },
        ),
        1..max_len,
    )
}

/// Replay `deltas` into a job-set history: each step yields the live
/// job list after the event, with dense ids assigned at arrival (the
/// schedulers' in-system iteration order).
fn histories(deltas: &[Delta]) -> Vec<Vec<(u32, u32, f64, f64)>> {
    let mut live: Vec<(u32, u32, f64, f64)> = Vec::new();
    let mut next_id = 0u32;
    let mut out = Vec::new();
    for d in deltas {
        match d {
            Delta::Arrive(tasks, cpu, mem) => {
                live.push((next_id, *tasks, *cpu, *mem));
                live.sort_by_key(|&(id, ..)| id);
                next_id += 1;
            }
            Delta::Complete(k) => {
                if !live.is_empty() {
                    let k = k % live.len();
                    live.remove(k);
                }
            }
        }
        out.push(live.clone());
    }
    out
}

proptest! {
    /// Yield search: warm results equal cold results at every step of a
    /// random arrival/completion history (this exercises both memo hits
    /// — sets recur whenever a complete undoes an arrival — and misses).
    #[test]
    fn warm_yield_search_equals_cold_across_deltas(
        deltas in arb_deltas(24),
        nodes in 1usize..12,
    ) {
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        for step in histories(&deltas) {
            let jobs: Vec<JobLoad> = step
                .iter()
                .map(|&(id, tasks, cpu, mem)| JobLoad {
                    job: JobId(id),
                    tasks,
                    cpu_need: cpu,
                    mem_req: mem,
                })
                .collect();
            let cold = max_min_yield(&jobs, nodes, &Mcb8, 0.01, 0.01);
            let warm = max_min_yield_warm(
                &jobs, nodes, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo,
            );
            prop_assert_eq!(warm, cold, "jobs {:?} nodes {}", jobs, nodes);
        }
    }

    /// Platform churn: NodeDown/NodeUp events interleaved into a random
    /// job history vary the available bin count mid-run — exactly what
    /// the schedulers' available-node slicing feeds the searches. Warm
    /// must equal cold at every step even though the memo is *not*
    /// flushed here (entries are keyed by their complete `(jobs, nodes)`
    /// inputs, so a membership change can never make a replay wrong;
    /// the schedulers' flush on node events is hygiene, not load-
    /// bearing — this test is what proves that).
    #[test]
    fn warm_yield_search_equals_cold_under_node_churn(
        deltas in arb_churn_deltas(32),
        total_nodes in 2usize..12,
    ) {
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        let mut live: Vec<(u32, u32, f64, f64)> = Vec::new();
        let mut next_id = 0u32;
        let mut avail = total_nodes;
        for d in &deltas {
            match d {
                ChurnDelta::Job(Delta::Arrive(tasks, cpu, mem)) => {
                    live.push((next_id, *tasks, *cpu, *mem));
                    next_id += 1;
                }
                ChurnDelta::Job(Delta::Complete(k)) => {
                    if !live.is_empty() {
                        let k = k % live.len();
                        live.remove(k);
                    }
                }
                ChurnDelta::NodeDown => avail = avail.saturating_sub(1).max(1),
                ChurnDelta::NodeUp => avail = (avail + 1).min(total_nodes),
            }
            let jobs: Vec<JobLoad> = live
                .iter()
                .map(|&(id, tasks, cpu, mem)| JobLoad {
                    job: JobId(id),
                    tasks,
                    cpu_need: cpu,
                    mem_req: mem,
                })
                .collect();
            let cold = max_min_yield(&jobs, avail, &Mcb8, 0.01, 0.01);
            let warm = max_min_yield_warm(
                &jobs, avail, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo,
            );
            prop_assert_eq!(warm, cold, "jobs {:?} avail {}", jobs, avail);
        }
    }

    /// A single shared memo survives interleaved node counts without
    /// cross-contamination (every entry is keyed by its full input).
    #[test]
    fn warm_yield_search_keys_on_node_count(
        deltas in arb_deltas(12),
        nodes_a in 1usize..8,
        nodes_b in 8usize..16,
    ) {
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        for step in histories(&deltas) {
            let jobs: Vec<JobLoad> = step
                .iter()
                .map(|&(id, tasks, cpu, mem)| JobLoad {
                    job: JobId(id),
                    tasks,
                    cpu_need: cpu,
                    mem_req: mem,
                })
                .collect();
            for nodes in [nodes_a, nodes_b] {
                let cold = max_min_yield(&jobs, nodes, &Mcb8, 0.01, 0.01);
                let warm = max_min_yield_warm(
                    &jobs, nodes, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo,
                );
                prop_assert_eq!(warm, cold);
            }
        }
    }
}
