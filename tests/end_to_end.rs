//! End-to-end pipeline tests: workload generation → annotation → load
//! scaling → simulation → metrics, across all nine algorithms.

use dfrs::core::ClusterSpec;
use dfrs::sim::{simulate, SimConfig, SimOutcome};
use dfrs::workload::{Annotator, LublinModel, Trace};
use dfrs::{SchedulerRegistry, PAPER_SPECS, PREEMPTING_SPECS};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn trace(seed: u64, n: usize, load: f64) -> Trace {
    let cluster = ClusterSpec::synthetic();
    let model = LublinModel::for_cluster(&cluster);
    let mut rng = SmallRng::seed_from_u64(seed);
    let raws = model.generate(n, &mut rng);
    let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
    Trace::new(cluster, jobs)
        .unwrap()
        .scale_to_load(load)
        .unwrap()
}

fn run(spec: &str, t: &Trace, penalty: f64) -> SimOutcome {
    let cfg = SimConfig {
        penalty,
        validate: true,
        ..SimConfig::default()
    };
    let mut sched = SchedulerRegistry::builtin().build_str(spec).unwrap();
    simulate(t.cluster, t.jobs(), sched.as_mut(), &cfg)
}

#[test]
fn full_pipeline_all_algorithms_complete() {
    let t = trace(1, 80, 0.6);
    for algo in PAPER_SPECS {
        let out = run(algo, &t, 300.0);
        assert_eq!(out.records.len(), 80, "{algo}");
        assert!(out.max_stretch >= 1.0, "{algo}");
        assert!(out.makespan > 0.0, "{algo}");
        // Every record is consistent.
        for r in &out.records {
            assert!(
                r.completion >= r.submit,
                "{algo}: job finished before submission"
            );
            if let Some(s) = r.first_start {
                assert!(s >= r.submit && s <= r.completion, "{algo}");
            }
        }
    }
}

#[test]
fn determinism_across_identical_runs() {
    let t = trace(2, 50, 0.7);
    for algo in ["dynmcb8-asap-per", "greedy-pmtn-migr", "easy"] {
        let a = run(algo, &t, 300.0);
        let b = run(algo, &t, 300.0);
        assert_eq!(a.records, b.records, "{algo}");
        assert_eq!(a.preemption_gb, b.preemption_gb, "{algo}");
        assert_eq!(a.migration_gb, b.migration_gb, "{algo}");
    }
}

#[test]
fn dfrs_dramatically_outperforms_batch_at_high_load() {
    // The headline claim of the paper on a small instance (avg over 3
    // seeds): the best periodic DFRS algorithm achieves a max stretch
    // several times lower than EASY with perfect estimates.
    let mut ratio_sum = 0.0;
    for seed in 0..3 {
        let t = trace(10 + seed, 80, 0.8);
        let easy = run("easy", &t, 300.0).max_stretch;
        let dfrs = run("dynmcb8-asap-per", &t, 300.0).max_stretch;
        ratio_sum += easy / dfrs;
    }
    let avg_ratio = ratio_sum / 3.0;
    assert!(
        avg_ratio > 3.0,
        "expected EASY/DFRS max-stretch ratio ≫ 1, got {avg_ratio:.2}"
    );
}

#[test]
fn penalty_only_hurts_algorithms_that_move_jobs() {
    let t = trace(5, 60, 0.7);
    for algo in ["fcfs", "easy", "greedy"] {
        let no_pen = run(algo, &t, 0.0);
        let pen = run(algo, &t, 300.0);
        assert_eq!(
            no_pen.max_stretch, pen.max_stretch,
            "{algo} never moves jobs, so the penalty must be invisible"
        );
    }
    // DYNMCB8 moves aggressively: the penalty must show up somewhere
    // (max or mean stretch strictly worse).
    let no_pen = run("dynmcb8", &t, 0.0);
    let pen = run("dynmcb8", &t, 300.0);
    assert!(
        pen.max_stretch > no_pen.max_stretch || pen.mean_stretch > no_pen.mean_stretch,
        "a 5-minute penalty should degrade DYNMCB8 (max {} vs {}, mean {} vs {})",
        pen.max_stretch,
        no_pen.max_stretch,
        pen.mean_stretch,
        no_pen.mean_stretch
    );
}

#[test]
fn bandwidth_accounting_is_consistent_with_counts() {
    let t = trace(6, 60, 0.8);
    for algo in PREEMPTING_SPECS {
        let out = run(algo, &t, 300.0);
        if out.preemption_count == 0 {
            assert_eq!(out.preemption_gb, 0.0, "{algo}");
        }
        if out.migration_count == 0 {
            assert_eq!(out.migration_gb, 0.0, "{algo}");
        } else {
            assert!(out.migration_gb > 0.0, "{algo}: migrations moved no bytes?");
        }
    }
}

#[test]
fn mean_stretch_never_exceeds_max() {
    let t = trace(7, 70, 0.9);
    for algo in PAPER_SPECS {
        let out = run(algo, &t, 300.0);
        assert!(out.mean_stretch <= out.max_stretch + 1e-9, "{algo}");
        assert!(out.mean_stretch >= 1.0, "{algo}");
    }
}

#[test]
fn idle_plus_busy_bounded_by_cluster_capacity() {
    let t = trace(8, 50, 0.5);
    for algo in ["easy", "dynmcb8-per", "greedy-pmtn"] {
        let out = run(algo, &t, 300.0);
        let capacity = t.cluster.nodes as f64 * out.makespan;
        assert!(
            out.busy_node_seconds <= capacity + 1e-6,
            "{algo}: allocated more CPU than exists"
        );
        assert!(out.idle_node_seconds <= capacity + 1e-6, "{algo}");
    }
}
