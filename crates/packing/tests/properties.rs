//! Property-based tests for the vector packers and the binary searches.

use dfrs_core::ids::JobId;
use dfrs_packing::{
    max_min_yield, min_max_estimated_stretch, BestFitDecreasing, FirstFitDecreasing, JobLoad, Mcb8,
    PackItem, StretchJob, VectorPacker,
};
use proptest::prelude::*;

fn arb_items(max_items: usize) -> impl Strategy<Value = Vec<PackItem>> {
    prop::collection::vec((0.0f64..=1.0, 0.001f64..=1.0), 0..max_items).prop_map(|reqs| {
        reqs.into_iter()
            .enumerate()
            .map(|(i, (cpu, mem))| PackItem {
                id: i as u32,
                cpu,
                mem,
            })
            .collect()
    })
}

fn arb_job_loads(max_jobs: usize) -> impl Strategy<Value = Vec<JobLoad>> {
    prop::collection::vec((1u32..6, 0.05f64..=1.0, 0.05f64..=1.0), 1..max_jobs).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tasks, cpu, mem))| JobLoad {
                job: JobId(i as u32),
                tasks,
                cpu_need: cpu,
                mem_req: mem,
            })
            .collect()
    })
}

fn arb_stretch_jobs(max_jobs: usize) -> impl Strategy<Value = Vec<StretchJob>> {
    prop::collection::vec(
        (
            1u32..6,
            0.05f64..=1.0,
            0.05f64..=0.8,
            0.0f64..1e5,
            0.0f64..1e4,
        ),
        1..max_jobs,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tasks, cpu, mem, flow, vt))| StretchJob {
                job: JobId(i as u32),
                tasks,
                cpu_need: cpu,
                mem_req: mem,
                flow_time: flow,
                virtual_time: vt,
            })
            .collect()
    })
}

proptest! {
    /// Whatever a packer returns must be a valid packing.
    #[test]
    fn packers_return_only_valid_packings(items in arb_items(60), bins in 1usize..20) {
        for packer in [&Mcb8 as &dyn VectorPacker, &FirstFitDecreasing, &BestFitDecreasing] {
            if let Some(p) = packer.pack(&items, bins) {
                prop_assert!(p.is_valid(&items, bins), "{} invalid", packer.name());
            }
        }
    }

    /// Adding bins never turns a feasible MCB8 instance infeasible.
    #[test]
    fn mcb8_monotone_in_bins(items in arb_items(40), bins in 1usize..16, extra in 1usize..8) {
        if Mcb8.pack(&items, bins).is_some() {
            prop_assert!(Mcb8.pack(&items, bins + extra).is_some());
        }
    }

    /// Scaling every CPU requirement down keeps MCB8 feasible whenever the
    /// packing it found before is reused — i.e. feasibility of the *yield
    /// search* region is genuinely monotone even if the heuristic is not.
    #[test]
    fn shrunk_cpu_requirements_still_pack_with_same_assignment(
        items in arb_items(40),
        bins in 1usize..16,
        factor in 0.0f64..1.0,
    ) {
        if let Some(p) = Mcb8.pack(&items, bins) {
            let shrunk: Vec<PackItem> = items
                .iter()
                .map(|i| PackItem { id: i.id, cpu: i.cpu * factor, mem: i.mem })
                .collect();
            prop_assert!(p.is_valid(&shrunk, bins));
        }
    }

    /// The yield search returns a yield in [floor, 1] and placements that
    /// respect CPU and memory capacities at that yield.
    #[test]
    fn yield_search_result_is_consistent(
        jobs in prop::collection::vec(
            (1u32..6, 0.05f64..=1.0, 0.05f64..=1.0),
            0..12,
        ),
        nodes in 1usize..24,
    ) {
        let loads: Vec<JobLoad> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(tasks, cpu, mem))| JobLoad {
                job: JobId(i as u32),
                tasks,
                cpu_need: cpu,
                mem_req: mem,
            })
            .collect();
        if let Some(a) = max_min_yield(&loads, nodes, &Mcb8, 0.01, 0.01) {
            prop_assert!(a.yield_ >= 0.01 - 1e-12 && a.yield_ <= 1.0);
            // Recompute node usage from placements.
            let mut cpu = vec![0.0; nodes];
            let mut mem = vec![0.0; nodes];
            for (load, (job, placement)) in loads.iter().zip(a.placements(&loads)) {
                prop_assert_eq!(job, load.job);
                prop_assert_eq!(placement.len(), load.tasks as usize);
                for &n in placement {
                    cpu[n as usize] += load.cpu_need * a.yield_;
                    mem[n as usize] += load.mem_req;
                }
            }
            for n in 0..nodes {
                prop_assert!(cpu[n] <= 1.0 + 1e-6, "cpu overcommit {}", cpu[n]);
                prop_assert!(mem[n] <= 1.0 + 1e-6, "mem overcommit {}", mem[n]);
            }
        } else {
            // Infeasibility must come from memory, not CPU: at the floor
            // yield the CPU requirements are tiny.
            let total_mem: f64 = loads.iter().map(|l| l.mem_req * l.tasks as f64).sum();
            // A sound necessary condition for feasibility that the
            // heuristic may still miss: if even total memory fits loosely
            // (< half capacity), MCB8 should never fail at the floor.
            prop_assert!(
                total_mem > nodes as f64 * 0.5,
                "search failed on a loosely packed instance (total mem {total_mem}, nodes {nodes})"
            );
        }
    }

    /// The stretch search returns yields within [0.01, 1] and capacities
    /// are respected under the returned per-job yields.
    #[test]
    fn stretch_search_result_is_consistent(
        jobs in prop::collection::vec(
            (1u32..5, 0.05f64..=1.0, 0.05f64..=0.8, 0.0f64..1e5, 0.0f64..1e4),
            0..10,
        ),
        nodes in 2usize..16,
    ) {
        let sjobs: Vec<StretchJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(tasks, cpu, mem, flow, vt))| StretchJob {
                job: JobId(i as u32),
                tasks,
                cpu_need: cpu,
                mem_req: mem,
                flow_time: flow,
                virtual_time: vt,
            })
            .collect();
        if let Some(a) = min_max_estimated_stretch(&sjobs, nodes, 600.0, &Mcb8, 0.01) {
            let mut cpu = vec![0.0; nodes];
            let mut mem = vec![0.0; nodes];
            for (i, (j, (_, y, _))) in sjobs.iter().zip(a.assignments.iter()).enumerate() {
                prop_assert!(*y >= 0.01 - 1e-12 && *y <= 1.0, "yield {y}");
                prop_assert_eq!(a.placement(i).len(), j.tasks as usize);
                for &n in a.placement(i) {
                    cpu[n as usize] += j.cpu_need * y;
                    mem[n as usize] += j.mem_req;
                }
            }
            for n in 0..nodes {
                prop_assert!(cpu[n] <= 1.0 + 1e-6);
                prop_assert!(mem[n] <= 1.0 + 1e-6);
            }
        }
    }

    /// MCB8 succeeds at least as often as plain first-fit-decreasing on
    /// *feasibility-critical* two-sided instances (the design claim the
    /// paper borrows from Leinberger et al.). We don't require strict
    /// dominance on every instance — only that MCB8 never fails where FFD
    /// succeeds by more than the reverse margin over a batch.
    #[test]
    fn mcb8_is_competitive_with_ffd(seed_items in arb_items(50), bins in 2usize..12) {
        let ffd = FirstFitDecreasing.pack(&seed_items, bins).is_some();
        let mcb = Mcb8.pack(&seed_items, bins).is_some();
        // Statistical claim tested in benches; here only the sanity
        // direction that a *trivially* feasible instance (FFD succeeds)
        // is rarely missed: allow MCB8 failure only when the instance is
        // tight (utilization above 70 % in some dimension).
        if ffd && !mcb {
            let cpu: f64 = seed_items.iter().map(|i| i.cpu).sum();
            let mem: f64 = seed_items.iter().map(|i| i.mem).sum();
            let util = (cpu / bins as f64).max(mem / bins as f64);
            prop_assert!(util > 0.7, "MCB8 failed a loose instance (util {util})");
        }
    }
}

proptest! {
    /// MCB8 placements never exceed per-node CPU or memory capacity,
    /// checked by independent per-node accounting (not via
    /// `Packing::is_valid`, so a bookkeeping bug there cannot hide an
    /// overcommitting placement).
    #[test]
    fn mcb8_never_overcommits_any_node(items in arb_items(60), bins in 1usize..20) {
        if let Some(p) = Mcb8.pack(&items, bins) {
            let mut cpu = vec![0.0f64; bins];
            let mut mem = vec![0.0f64; bins];
            prop_assert_eq!(p.bin_of.len(), items.len());
            for (item, &bin) in items.iter().zip(p.bin_of.iter()) {
                prop_assert!((bin as usize) < bins, "bin {} out of range", bin);
                cpu[bin as usize] += item.cpu;
                mem[bin as usize] += item.mem;
            }
            for b in 0..bins {
                prop_assert!(cpu[b] <= 1.0 + 1e-9, "node {b} CPU overcommitted: {}", cpu[b]);
                prop_assert!(mem[b] <= 1.0 + 1e-9, "node {b} memory overcommitted: {}", mem[b]);
            }
        }
    }

    /// The yield search is monotone in the resources it searches over:
    /// adding nodes never lowers the achieved max-min yield, and never
    /// turns a feasible instance infeasible.
    #[test]
    fn yield_search_monotone_in_nodes(
        jobs in arb_job_loads(10),
        nodes in 1usize..20,
        extra in 1usize..8,
    ) {
        if let Some(a) = max_min_yield(&jobs, nodes, &Mcb8, 0.01, 0.01) {
            let b = max_min_yield(&jobs, nodes + extra, &Mcb8, 0.01, 0.01);
            match b {
                None => prop_assert!(false, "feasible with {nodes} nodes, infeasible with {}", nodes + extra),
                Some(b) => prop_assert!(
                    b.yield_ >= a.yield_ - 1e-9,
                    "yield dropped from {} to {} when adding {extra} nodes",
                    a.yield_, b.yield_
                ),
            }
        }
    }

    /// The yield search is monotone in demand: uniformly scaling every
    /// CPU need down never lowers the achieved yield (the bound searched
    /// over responds monotonically to the load).
    #[test]
    fn yield_search_monotone_in_cpu_demand(
        jobs in arb_job_loads(10),
        nodes in 1usize..20,
        factor in 0.1f64..1.0,
    ) {
        if let Some(a) = max_min_yield(&jobs, nodes, &Mcb8, 0.01, 0.01) {
            let scaled: Vec<JobLoad> =
                jobs.iter().map(|j| JobLoad { cpu_need: j.cpu_need * factor, ..*j }).collect();
            match max_min_yield(&scaled, nodes, &Mcb8, 0.01, 0.01) {
                None => prop_assert!(false, "scaling CPU needs by {factor} broke feasibility"),
                Some(s) => prop_assert!(
                    s.yield_ >= a.yield_ - 1e-9,
                    "yield dropped from {} to {} under lighter demand",
                    a.yield_, s.yield_
                ),
            }
        }
    }

    /// The stretch search is monotone in nodes: adding nodes never makes
    /// the minimized max estimated stretch (the bound it bisects over)
    /// meaningfully worse, and never breaks feasibility. The 2 % band is
    /// the search's own relative accuracy.
    #[test]
    fn stretch_search_monotone_in_nodes(
        sjobs in arb_stretch_jobs(10),
        nodes in 1usize..20,
        extra in 1usize..8,
    ) {
        if let Some(a) = min_max_estimated_stretch(&sjobs, nodes, 600.0, &Mcb8, 0.01) {
            let b = min_max_estimated_stretch(&sjobs, nodes + extra, 600.0, &Mcb8, 0.01);
            match b {
                None => prop_assert!(false, "feasible with {nodes} nodes, infeasible with {}", nodes + extra),
                Some(b) => prop_assert!(
                    b.target <= a.target * 1.02 + 1e-9,
                    "target rose from {} to {} when adding {extra} nodes",
                    a.target, b.target
                ),
            }
        }
    }
}

/// A valid lower bound on the number of unit bins any packing needs —
/// the oracle the packers are measured against. The maximum of
///
/// * `⌈Σ cpu⌉` — total CPU volume,
/// * `⌈Σ mem⌉` — total memory volume,
/// * the *pairwise-conflict* bound: items with `max component > 1/2`
///   cannot share a bin along that dimension, so each needs its own bin
///   among themselves (the classical L2-style argument specialized to
///   the > ½ class).
fn lower_bound_bins(items: &[PackItem]) -> usize {
    if items.is_empty() {
        return 0;
    }
    let cpu: f64 = items.iter().map(|i| i.cpu).sum();
    let mem: f64 = items.iter().map(|i| i.mem).sum();
    let volume = cpu.max(mem).ceil() as usize;
    let big_cpu = items.iter().filter(|i| i.cpu > 0.5 + 1e-12).count();
    let big_mem = items.iter().filter(|i| i.mem > 0.5 + 1e-12).count();
    volume.max(big_cpu).max(big_mem).max(1)
}

/// Smallest bin count at which `packer` succeeds, scanning up from the
/// lower bound; `None` if no success up to `max_bins`.
fn min_bins_with(packer: &dyn VectorPacker, items: &[PackItem], max_bins: usize) -> Option<usize> {
    let lo = lower_bound_bins(items);
    (lo..=max_bins).find(|&b| packer.pack(items, b).is_some())
}

fn items(reqs: &[(f64, f64)]) -> Vec<PackItem> {
    reqs.iter()
        .enumerate()
        .map(|(i, &(cpu, mem))| PackItem {
            id: i as u32,
            cpu,
            mem,
        })
        .collect()
}

#[test]
fn volume_bound() {
    // 10 × (0.5, 0.3): CPU volume 5, memory volume 3 → LB 5.
    assert_eq!(lower_bound_bins(&items(&[(0.5, 0.3); 10])), 5);
}

#[test]
fn big_item_bound_dominates_volume() {
    // 4 items with cpu 0.6 but tiny memory: volume bound is ⌈2.4⌉ = 3
    // but the pairwise-conflict bound is 4.
    assert_eq!(lower_bound_bins(&items(&[(0.6, 0.05); 4])), 4);
}

#[test]
fn memory_conflicts_counted_too() {
    assert_eq!(lower_bound_bins(&items(&[(0.05, 0.7); 3])), 3);
}

#[test]
fn empty_and_singleton() {
    assert_eq!(lower_bound_bins(&[]), 0);
    assert_eq!(lower_bound_bins(&items(&[(0.1, 0.1)])), 1);
}

#[test]
fn mcb8_hits_the_bound_on_complementary_instances() {
    // Perfectly complementary pairs: LB = 4, MCB8 must achieve 4.
    let its = items(&[(0.9, 0.1), (0.1, 0.9)].repeat(4));
    assert_eq!(min_bins_with(&Mcb8, &its, 16), Some(4));
}

#[test]
fn heuristic_quality_within_factor_two_of_bound() {
    // Mixed synthetic instance: both heuristics must land within 2×
    // of the lower bound (a loose but absolute sanity band).
    let reqs: Vec<(f64, f64)> = (0..30)
        .map(|i| (0.1 + 0.025 * (i % 8) as f64, 0.3 - 0.03 * (i % 5) as f64))
        .collect();
    let its = items(&reqs);
    let lb = lower_bound_bins(&its);
    for packer in [&Mcb8 as &dyn VectorPacker, &FirstFitDecreasing] {
        let used = min_bins_with(packer, &its, 64).unwrap();
        assert!(used <= 2 * lb, "{}: {used} bins vs LB {lb}", packer.name());
    }
}

proptest! {
    /// Soundness of the lower bound: whenever a packer succeeds with b
    /// bins, the lower bound is ≤ b.
    #[test]
    fn lower_bound_is_sound(items in arb_items(40), bins in 1usize..20) {
        if Mcb8.pack(&items, bins).is_some() {
            prop_assert!(lower_bound_bins(&items) <= bins);
        }
        if FirstFitDecreasing.pack(&items, bins).is_some() {
            prop_assert!(lower_bound_bins(&items) <= bins);
        }
    }

    /// MCB8 lands within 2× of the lower bound on random instances.
    #[test]
    fn mcb8_quality_band(items in arb_items(30)) {
        prop_assume!(!items.is_empty());
        let lb = lower_bound_bins(&items);
        let used = min_bins_with(&Mcb8, &items, 4 * lb + 4).expect("ample bins");
        prop_assert!(used <= 2 * lb + 1, "used {} vs lb {}", used, lb);
    }
}
