//! Differential reference for the average-yield improvement pass: the
//! linear-scan [`AllocSet::optimized_yields`] of the commit before the
//! pass became incremental, kept verbatim (only renamed). Every round
//! rescans every job's whole placement for slack and picks with the
//! same `better` predicate, so it shares no bookkeeping with the
//! incremental pass — no node → jobs index, no retirement, no per-node
//! tally — and every yield must agree with it bit for bit.
//!
//! Two comparisons: random sets (proptest) that cover duplicate nodes
//! in a placement, non-ascending insertion order, total needs within
//! `EPS` of each other, GPU demand and every base in `(0, 1]`; and every
//! `MaxMinYield` decision of Lublin simulations, plus the running-first
//! insertion order the ASAP admission and the greedy family use.

use dfrs_core::approx;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::yield_math;
use proptest::prelude::*;

use super::{AllocSet, NodeScratch};

impl AllocSet {
    /// The average-yield improvement heuristic (Section III-A), starting
    /// every job at `base` yield: repeatedly select the job with the
    /// lowest total CPU need among jobs whose yield can still grow (yield
    /// < 1 and CPU slack on every hosting node) and raise its yield as
    /// far as the tightest node allows. Returns `(job, yield)` pairs in
    /// insertion order.
    pub(crate) fn reference_optimized_yields(&self, base: f64) -> Vec<(JobId, f64)> {
        debug_assert!(base > 0.0 && base <= 1.0 + approx::EPS);
        let base = base.min(1.0);
        let n = self.jobs.len();
        // At full yield the selection loop below skips every job on its
        // first test (`yields[i] >= 1 - EPS`), so with no GPU demand the
        // answer is `base` for everyone — return it without building the
        // per-node allocation table. Bit-identical to the general path.
        if base >= 1.0 - approx::EPS && !self.jobs.iter().any(|j| j.gpu_need > 0.0) {
            return self.jobs.iter().map(|j| (j.id, base)).collect();
        }
        let mut yields = vec![base; n];
        // Allocated CPU per node under the base yield.
        let mut alloc = vec![0.0; self.n_nodes];
        for j in &self.jobs {
            for &node in self.nodes_of(j) {
                alloc[node.index()] += j.cpu_need * base;
            }
        }
        // Tasks-per-node count for each job (to bound its yield increase).
        let mut frozen = vec![false; n];
        loop {
            // Lowest total CPU need among improvable jobs, ties by id.
            let mut pick: Option<usize> = None;
            for (i, j) in self.jobs.iter().enumerate() {
                if frozen[i] || yields[i] >= 1.0 - approx::EPS {
                    continue;
                }
                let has_slack = self
                    .nodes_of(j)
                    .iter()
                    .all(|&node| approx::pos(1.0 - alloc[node.index()]));
                if !has_slack {
                    continue;
                }
                let better = match pick {
                    None => true,
                    Some(p) => {
                        let (tp, ti) = (
                            self.jobs[p].cpu_need * self.placement(p).len() as f64,
                            j.cpu_need * self.nodes_of(j).len() as f64,
                        );
                        ti < tp - approx::EPS || (approx::eq(ti, tp) && j.id < self.jobs[p].id)
                    }
                };
                if better {
                    pick = Some(i);
                }
            }
            let Some(i) = pick else { break };
            let (job, placement) = (&self.jobs[i], self.placement(i));
            // Tightest increase over hosting nodes: slack / (need × count
            // of this job's tasks on that node). Placements are short, so
            // unique nodes are found by scanning (no per-step map); the
            // running minimum is order-independent.
            let mut delta = 1.0 - yields[i];
            for (k, &node) in placement.iter().enumerate() {
                if placement[..k].contains(&node) {
                    continue; // already counted
                }
                let count = placement[k..].iter().filter(|&&n| n == node).count() as u32;
                let slack = 1.0 - alloc[node.index()];
                delta = delta.min(yield_math::max_yield_increase(
                    slack,
                    job.cpu_need * count as f64,
                ));
            }
            if delta <= approx::EPS {
                frozen[i] = true;
                continue;
            }
            for &node in placement {
                alloc[node.index()] += job.cpu_need * delta;
            }
            yields[i] += delta;
            if yields[i] > 1.0 {
                yields[i] = 1.0;
            }
        }
        // GPU feasibility clamp: the optimization above is deliberately
        // GPU-oblivious (the paper's objective is CPU-only), so on a
        // GPU-annotated workload it can promise more fluid GPU than a
        // node has. Scale each GPU consumer down by the worst
        // oversubscription among its hosting nodes — sufficient in one
        // pass, since every consumer on an oversubscribed node shrinks
        // by at least that node's factor. With no GPU demand this is a
        // guarded no-op, keeping GPU-free runs bit-identical.
        if self.jobs.iter().any(|j| j.gpu_need > 0.0) {
            let mut gpu = vec![0.0; self.n_nodes];
            for (j, y) in self.jobs.iter().zip(&yields) {
                for &node in self.nodes_of(j) {
                    gpu[node.index()] += j.gpu_need * y;
                }
            }
            for (j, y) in self.jobs.iter().zip(yields.iter_mut()) {
                if j.gpu_need <= 0.0 {
                    continue;
                }
                let mut factor = 1.0f64;
                for &node in self.nodes_of(j) {
                    let load = gpu[node.index()];
                    if load > 1.0 {
                        factor = factor.min(load.recip());
                    }
                }
                *y *= factor;
            }
        }
        self.jobs
            .iter()
            .zip(yields)
            .map(|(j, y)| (j.id, y))
            .collect()
    }
}

/// Assert that the pass under test and the reference agree on `set`
/// at `base`, bit for bit; true when some job was raised above `base`
/// (the decision exercised the selection loop, not only its exits).
fn assert_agrees(set: &mut AllocSet, base: f64, context: &str) -> bool {
    let want = set.reference_optimized_yields(base);
    let ids: Vec<JobId> = set.jobs.iter().map(|j| j.id).collect();
    let got = set.optimized_yields(base).to_vec();
    assert_eq!(got.len(), want.len(), "{context}");
    let mut raised = false;
    for ((id, g), (wid, w)) in ids.iter().zip(&got).zip(&want) {
        assert_eq!(id, wid, "{context}");
        assert_eq!(g.to_bits(), w.to_bits(), "{context}: {id} {g} vs {w}");
        raised |= *w > base.min(1.0);
    }
    raised
}

/// One job of a random set: id, CPU need, GPU need, placement.
type RandomJob = (u32, f64, f64, Vec<u32>);

/// Random sets on up to 5 nodes. Ids are distinct but drawn in no
/// order; needs come from a few values nudged by multiples of
/// `0.4 × EPS`, so total needs tie, nearly tie (within `EPS`, not
/// transitively) and differ; placements repeat nodes freely.
fn arb_set() -> impl Strategy<Value = Vec<RandomJob>> {
    let job = (
        prop::sample::select(vec![0.1, 0.25, 0.25, 0.3, 0.5, 0.5, 1.0]),
        0u32..4,
        (0u8..4, 0.05f64..=1.0),
        prop::collection::vec(0u32..5, 1..5),
        0u32..1_000_000,
    );
    prop::collection::vec(job, 0..12).prop_map(|jobs| {
        // Ids are the ranks of random keys: a random permutation.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&k| jobs[k].4);
        let mut ids = vec![0u32; jobs.len()];
        for (rank, &k) in order.iter().enumerate() {
            ids[k] = rank as u32;
        }
        jobs.into_iter()
            .zip(ids)
            .map(|((cpu, nudge, (gpu_draw, gpu), nodes, _), id)| {
                let gpu = if gpu_draw == 0 { gpu } else { 0.0 };
                (id, cpu + f64::from(nudge) * 0.4 * approx::EPS, gpu, nodes)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The incremental pass equals the linear scan on random sets, at
    /// the equal-share base, at full yield and at any base in (0, 1].
    #[test]
    fn incremental_pass_equals_the_linear_scan(
        jobs in arb_set(),
        kind in 0u8..3,
        free_base in 0.001f64..=1.0,
    ) {
        let mut set = AllocSet::new();
        for (id, cpu, gpu, nodes) in &jobs {
            let placement: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
            set.push(JobId(*id), *cpu, *gpu, &placement);
        }
        let base = match kind {
            0 => set.equal_share_yield(),
            1 => 1.0,
            _ => free_base,
        };
        assert_agrees(&mut set, base, &format!("{jobs:?} at {base}"));
        // A reused set answers the next one exactly as a fresh one.
        set.clear();
        for (id, cpu, gpu, nodes) in jobs.iter().rev() {
            let placement: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
            set.push(JobId(*id), *cpu, *gpu, &placement);
        }
        assert_agrees(&mut set, base, &format!("reversed {jobs:?} at {base}"));
    }
}

/// A node left with slack inside `(0, EPS]` by a raise has no slack:
/// its other jobs stay where they are, although their need is small
/// enough that the leftover would lift them by more than `EPS`. Job 0
/// (need 0.2) reaches yield 1 first and leaves node 0 at `1 − 0.95·EPS`;
/// job 1 (need 0.9) shares the node.
#[test]
fn a_raise_that_leaves_no_slack_retires_the_node() {
    let s = 0.95 * approx::EPS;
    let base = (0.8 - s) / 0.9;
    let mut set = AllocSet::new();
    set.push(JobId(0), 0.2, 0.0, &[NodeId(0)]);
    set.push(JobId(1), 0.9, 0.0, &[NodeId(0)]);
    assert_agrees(&mut set, base, "crafted");
    assert_eq!(set.optimized_yields(base), [1.0, base]);
}

/// Simulation-driven comparison at every repack of `dynmcb8`.
mod decisions {
    use dfrs_core::ids::JobId;
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{simulate, Plan, SchedEvent, Scheduler, SimConfig, SimState};
    use dfrs_workload::{Annotator, LublinModel, Trace};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::{assert_agrees, AllocSet, NodeScratch};
    use crate::dynmcb8::{build, MaxMinYield, PackerChoice};
    use crate::evict::EvictionFront;

    /// A Lublin trace on the paper's 128 nodes at `load`; with
    /// `gpu_frac > 0` that share of the jobs wants a GPU fraction
    /// drawn from U(0.05, 1].
    fn lublin(seed: u64, n: usize, load: f64, gpu_frac: f64) -> (ClusterSpec, Vec<JobSpec>) {
        let cluster = ClusterSpec::synthetic();
        let model = LublinModel::for_cluster(&cluster);
        let mut rng = SmallRng::seed_from_u64(seed);
        let raws = model.generate(n, &mut rng);
        let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
        let trace = Trace::new(cluster, jobs)
            .unwrap()
            .scale_to_load(load)
            .unwrap();
        // After the rescale, which rebuilds the specs without GPU.
        let jobs = trace
            .jobs()
            .iter()
            .map(|&j| {
                if rng.gen_range(0.0..1.0) < gpu_frac {
                    j.with_gpu(rng.gen_range(0.05..=1.0)).unwrap()
                } else {
                    j
                }
            })
            .collect();
        (cluster, jobs)
    }

    /// Drives a run with the real `dynmcb8` and, at each of its
    /// repacks, compares the pass with the reference on the decision's
    /// own set (the search's survivors, ascending id, at the searched
    /// yield) and on the running-first set the ASAP admission builds
    /// (running jobs at their placements, then the waiting ones placed
    /// greedily).
    struct Probe {
        inner: Box<dyn Scheduler>,
        decisions: usize,
        raised: usize,
    }

    impl Scheduler for Probe {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
            if ev != SchedEvent::Tick {
                self.compare(state);
            }
            self.inner.on_event(ev, state)
        }
    }

    impl Probe {
        fn compare(&mut self, state: &SimState) {
            let context = format!("decision at t={}", state.now);
            let (yield_, mut plan) =
                MaxMinYield::new(PackerChoice::Mcb8).pack(&mut EvictionFront::default(), state);
            let mut set = AllocSet::new();
            for (id, placement, _) in plan.runs_mut() {
                let spec = &state.job(id).spec;
                set.push(id, spec.cpu_need, spec.gpu_need, placement);
            }
            self.decisions += 1;
            self.raised += usize::from(assert_agrees(&mut set, yield_, &context));

            let mut set = AllocSet::new();
            let mut scratch = NodeScratch::from_state(state);
            for j in state.running_jobs() {
                let spec = &j.spec;
                set.push(
                    spec.id,
                    spec.cpu_need,
                    spec.gpu_need,
                    state.placement(spec.id),
                );
            }
            let waiting: Vec<JobId> = crate::common::waiting_jobs(state);
            for id in waiting.into_iter().rev() {
                let spec = &state.job(id).spec;
                if let Some(p) = scratch.greedy_place(spec.tasks, spec.cpu_need, spec.mem_req) {
                    set.push(id, spec.cpu_need, spec.gpu_need, &p);
                }
            }
            let base = set.equal_share_yield();
            assert_agrees(&mut set, base, &format!("running-first {context}"));
        }
    }

    /// `(decisions compared, decisions where the pass raised a job)`.
    fn compare_run(seed: u64, n: usize, penalty: f64, gpu_frac: f64) -> (usize, usize) {
        let (cluster, jobs) = lublin(seed, n, 0.8, gpu_frac);
        let mut probe = Probe {
            inner: build("dynmcb8"),
            decisions: 0,
            raised: 0,
        };
        let cfg = SimConfig {
            penalty,
            ..SimConfig::default()
        };
        let out = simulate(cluster, &jobs, &mut probe, &cfg);
        assert_eq!(out.records.len(), n);
        (probe.decisions, probe.raised)
    }

    #[test]
    fn incremental_pass_equals_the_linear_scan_at_every_decision() {
        for (penalty, gpu_frac) in [(0.0, 0.0), (300.0, 0.4)] {
            let (decisions, raised) = compare_run(3, 120, penalty, gpu_frac);
            assert!(decisions >= 200, "{decisions} decisions compared");
            assert!(raised >= 20, "only {raised} decisions raised a job");
        }
    }

    /// The wide matrix: 3 seeds × penalty 0 / 300 × with and without
    /// GPU demand, 400 jobs each.
    #[test]
    #[ignore = "wide matrix; run with --ignored"]
    fn incremental_pass_equals_the_linear_scan_matrix() {
        for seed in [1, 2, 3] {
            for penalty in [0.0, 300.0] {
                for gpu_frac in [0.0, 0.4] {
                    let (decisions, raised) = compare_run(seed, 400, penalty, gpu_frac);
                    println!(
                        "seed {seed} penalty {penalty} gpu {gpu_frac}: \
                         {decisions} decisions, {raised} raised"
                    );
                    assert!(raised > 0);
                }
            }
        }
    }
}
