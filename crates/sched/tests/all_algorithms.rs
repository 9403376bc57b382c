//! Cross-algorithm tests: every scheduler, random workloads, full
//! invariant validation, and the qualitative orderings the paper reports.

use dfrs_core::ids::JobId;
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_sched::{SchedulerRegistry, PAPER_SPECS};
use dfrs_sim::{simulate, SimConfig, SimOutcome};
use dfrs_workload::{Annotator, LublinModel, Trace};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn small_cluster() -> ClusterSpec {
    ClusterSpec::new(8, 4, 8.0).unwrap()
}

/// A small annotated Lublin-like workload on an 8-node cluster.
fn workload(seed: u64, n: usize, load: f64) -> Vec<JobSpec> {
    let cluster = small_cluster();
    let model = LublinModel::for_cluster(&cluster);
    let mut rng = SmallRng::seed_from_u64(seed);
    let raws = model.generate(n, &mut rng);
    let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
    let trace = Trace::new(cluster, jobs).unwrap();
    let trace = trace.scale_to_load(load).unwrap();
    trace.jobs().to_vec()
}

fn run(spec: &str, jobs: &[JobSpec], penalty: f64) -> SimOutcome {
    let cfg = SimConfig {
        penalty,
        validate: true,
        ..SimConfig::default()
    };
    let mut sched = SchedulerRegistry::builtin().build_str(spec).unwrap();
    simulate(small_cluster(), jobs, sched.as_mut(), &cfg)
}

#[test]
fn every_algorithm_completes_every_job_with_invariants_held() {
    let jobs = workload(42, 60, 0.5);
    for algo in PAPER_SPECS {
        let out = run(algo, &jobs, 0.0);
        assert_eq!(out.records.len(), jobs.len(), "{algo}");
        for r in &out.records {
            assert!(r.stretch >= 1.0, "{algo}: stretch {} < 1", r.stretch);
            assert!(r.completion >= r.submit, "{algo}");
        }
    }
}

#[test]
fn every_algorithm_survives_the_penalty_config() {
    let jobs = workload(43, 40, 0.7);
    for algo in PAPER_SPECS {
        let out = run(algo, &jobs, 300.0);
        assert_eq!(out.records.len(), jobs.len(), "{algo}");
    }
}

#[test]
fn batch_algorithms_never_move_anything() {
    let jobs = workload(44, 50, 0.8);
    for algo in ["fcfs", "easy", "greedy"] {
        let out = run(algo, &jobs, 300.0);
        assert_eq!(out.preemption_count, 0, "{algo}");
        assert_eq!(out.migration_count, 0, "{algo}");
    }
}

#[test]
fn easy_is_no_worse_than_fcfs_on_mean_stretch() {
    // Backfilling can only help relative to strict FIFO on these
    // workloads (both are work-conserving whole-node policies).
    let mut easy_wins = 0;
    let mut total = 0;
    for seed in 0..5 {
        let jobs = workload(100 + seed, 50, 0.7);
        let f = run("fcfs", &jobs, 0.0);
        let e = run("easy", &jobs, 0.0);
        total += 1;
        if e.mean_stretch <= f.mean_stretch + 1e-9 {
            easy_wins += 1;
        }
    }
    assert!(
        easy_wins >= total - 1,
        "EASY beat FCFS on only {easy_wins}/{total} seeds"
    );
}

#[test]
fn dfrs_beats_batch_on_max_stretch() {
    // The paper's headline claim, on a small instance: the best DFRS
    // algorithm achieves a (much) lower max stretch than both batch
    // baselines at non-trivial load.
    let jobs = workload(7, 80, 0.8);
    let batch_best = ["fcfs", "easy"]
        .into_iter()
        .map(|a| run(a, &jobs, 0.0).max_stretch)
        .fold(f64::INFINITY, f64::min);
    let dfrs_best = ["greedy-pmtn", "dynmcb8", "dynmcb8-per", "dynmcb8-asap-per"]
        .into_iter()
        .map(|a| run(a, &jobs, 0.0).max_stretch)
        .fold(f64::INFINITY, f64::min);
    assert!(
        dfrs_best < batch_best,
        "DFRS best {dfrs_best} not better than batch best {batch_best}"
    );
}

#[test]
fn dynmcb8_dominates_on_min_yield_proxy() {
    // Without penalty, event-driven DYNMCB8 should be at least as good as
    // the periodic variant on max stretch for most seeds (it reallocates
    // instantly). Allow one seed of slack — both are heuristics.
    let mut wins = 0;
    for seed in 0..4 {
        let jobs = workload(200 + seed, 40, 0.6);
        let event = run("dynmcb8", &jobs, 0.0).max_stretch;
        let periodic = run("dynmcb8-per", &jobs, 0.0).max_stretch;
        if event <= periodic + 1e-9 {
            wins += 1;
        }
    }
    assert!(
        wins >= 3,
        "DynMCB8 (no penalty) beat -PER on only {wins}/4 seeds"
    );
}

#[test]
fn deterministic_across_runs() {
    let jobs = workload(9, 30, 0.5);
    for algo in PAPER_SPECS {
        let a = run(algo, &jobs, 300.0);
        let b = run(algo, &jobs, 300.0);
        assert_eq!(a.max_stretch, b.max_stretch, "{algo}");
        assert_eq!(a.preemption_count, b.preemption_count, "{algo}");
        assert_eq!(a.records, b.records, "{algo}");
    }
}

#[test]
fn repack_probe_counts_are_pinned() {
    // The three packing searches (yield, estimated stretch, dominant
    // share) must probe the same targets in the same order whatever
    // drives their bisection: search and pack counts of one fixed run
    // are part of the behaviour, not of the implementation.
    let jobs = workload(7, 80, 0.8);
    let cfg = SimConfig {
        validate: true,
        ..SimConfig::default()
    };
    // Every key of the DYNMCB8 family, so each trigger × objective
    // pairing of the one repacker is pinned.
    let reg = SchedulerRegistry::builtin();
    for (spec, want) in [
        ("dynmcb8", (67, 443, 16, 144)),
        ("dynmcb8-per", (33, 212, 5, 45)),
        ("dynmcb8-asap-per", (23, 136, 7, 63)),
        ("dynmcb8-stretch-per", (92, 350, 0, 0)),
        ("dynmcb8-drf", (160, 475, 0, 0)),
        ("dynmcb8-drf-per", (61, 338, 0, 0)),
        ("dynmcb8-fair-per", (202, 234, 159, 460)),
    ] {
        let mut sched = reg.build_str(spec).unwrap();
        let out = simulate(small_cluster(), &jobs, sched.as_mut(), &cfg);
        let r = out.repack.expect(spec);
        assert_eq!(
            (r.searches, r.packs, r.search_hits, r.packs_saved),
            want,
            "{spec}: (searches, packs, search_hits, packs_saved)"
        );
    }
}

#[test]
fn dynmcb8_family_names_and_periods_are_pinned() {
    // Goldens, tables and serve transcripts carry these strings; the
    // repacker composes them from the trigger and the objective.
    let reg = SchedulerRegistry::builtin();
    for (spec, name, period) in [
        ("dynmcb8", "DynMCB8", None),
        ("dynmcb8:packer=first-fit", "DynMCB8[ffd]", None),
        ("dynmcb8:packer=best-fit", "DynMCB8[bfd]", None),
        ("dynmcb8-per:t=60", "DynMCB8-per 60", Some(60.0)),
        (
            "dynmcb8-per:packer=bfd",
            "DynMCB8-per 600[bfd]",
            Some(600.0),
        ),
        ("dynmcb8-asap-per:t=0.5", "DynMCB8-asap-per 0.5", Some(0.5)),
        (
            "dynmcb8-asap-per:packer=ffd",
            "DynMCB8-asap-per 600[ffd]",
            Some(600.0),
        ),
        (
            "dynmcb8-stretch-per:t=3600",
            "DynMCB8-stretch-per 3600",
            Some(3600.0),
        ),
        ("dynmcb8-drf", "DynMCB8-drf", None),
        ("dynmcb8-drf-per", "DynMCB8-drf-per 600", Some(600.0)),
        (
            "dynmcb8-fair-per",
            "DynMCB8-fair-per 600 (τ=1800, α=1)",
            Some(600.0),
        ),
        (
            "dynmcb8-fair-per:t=300",
            "DynMCB8-fair-per 300 (τ=1800, α=1)",
            Some(300.0),
        ),
        (
            "dynmcb8-fair-per:alpha=0.25",
            "DynMCB8-fair-per 600 (τ=1800, α=0.25)",
            Some(600.0),
        ),
    ] {
        let sched = reg.build_str(spec).unwrap();
        assert_eq!(sched.name(), name, "{spec}");
        assert_eq!(sched.period(), period, "{spec}");
    }
}

#[test]
fn greedy_pmtn_starts_jobs_no_later_than_greedy() {
    // Forced admission: every job's first start under GREEDY-PMTN is at
    // its submission (modulo identical-instant processing), never later
    // than under GREEDY.
    let jobs = workload(11, 50, 0.8);
    let g = run("greedy", &jobs, 0.0);
    let p = run("greedy-pmtn", &jobs, 0.0);
    for (rg, rp) in g.records.iter().zip(p.records.iter()) {
        let sp = rp.first_start.unwrap();
        assert!(
            (sp - rp.submit).abs() < 1e-6,
            "GREEDY-PMTN must start {} at submission, started {}",
            rp.id,
            sp - rp.submit
        );
        assert!(sp <= rg.first_start.unwrap() + 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any algorithm on any seed: all jobs complete, stretches ≥ 1,
    /// engine invariants hold throughout (validate=true).
    #[test]
    fn random_workloads_simulate_cleanly(
        seed in 0u64..10_000,
        n in 10usize..40,
        load in 0.2f64..1.2,
        penalty in prop::sample::select(vec![0.0, 300.0]),
    ) {
        let jobs = workload(seed, n, load);
        for algo in [
            "fcfs",
            "greedy",
            "greedy-pmtn",
            "greedy-pmtn-migr",
            "dynmcb8",
            "dynmcb8-asap-per",
            "dynmcb8-stretch-per",
        ] {
            let out = run(algo, &jobs, penalty);
            prop_assert_eq!(out.records.len(), jobs.len());
            for r in &out.records {
                prop_assert!(r.stretch >= 1.0);
            }
        }
    }

    /// Job conservation under EASY specifically (backfilling bookkeeping
    /// is the most intricate queue logic).
    #[test]
    fn easy_conserves_jobs(seed in 0u64..10_000, n in 10usize..50) {
        let jobs = workload(seed, n, 0.9);
        let out = run("easy", &jobs, 0.0);
        prop_assert_eq!(out.records.len(), jobs.len());
        let ids: std::collections::HashSet<JobId> =
            out.records.iter().map(|r| r.id).collect();
        prop_assert_eq!(ids.len(), jobs.len());
    }
}
