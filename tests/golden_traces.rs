//! Golden-trace snapshot suite.
//!
//! Pins the full deterministic `SimOutcome` of every registered paper
//! algorithm on three fixed scenarios — a crafted memory-pressure
//! trace, a Lublin seed-1 trace, and a bursty HPC2N-like week — as
//! checked-in JSON (`tests/golden/golden_traces.json`). Floats are
//! stored as exact bit strings: any engine or scheduler change that
//! shifts a **byte** of any metric fails with a per-field diff.
//!
//! Regenerate (after an *intentional* behavior change) with:
//!
//! ```sh
//! DFRS_GOLDEN_REGEN=1 cargo test --test golden_traces
//! ```

mod golden_util;

use dfrs::core::ids::JobId;
use dfrs::core::{ClusterSpec, JobSpec};
use dfrs::scenario::{Scenario, ScenarioBuilder};
use dfrs::PAPER_SPECS;
use dfrs_core::json::{self, Value};
use golden_util::snapshot;

const GOLDEN_PATH: &str = "tests/golden/golden_traces.json";

/// A crafted trace on a small cluster that exercises memory-pressure
/// evictions, resumes, migrations, multi-task placement, and the
/// rescheduling penalty for every algorithm family.
fn crafted_scenario() -> Scenario {
    let job = |id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, rt: f64| {
        JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt).expect("valid crafted job")
    };
    let jobs = vec![
        // A memory hog across the whole cluster — later arrivals must
        // evict it (or queue on it).
        job(0, 0.0, 4, 0.25, 0.9, 3_000.0),
        // CPU-bound multi-task jobs that overload CPU when coresident.
        job(1, 50.0, 2, 1.0, 0.30, 800.0),
        job(2, 120.0, 3, 1.0, 0.25, 600.0),
        // A short sequential job arriving under pressure.
        job(3, 200.0, 1, 0.5, 0.40, 120.0),
        // A wide job that needs one task per node.
        job(4, 400.0, 4, 0.75, 0.45, 900.0),
        // Burst at the same instant (FIFO tie-breaking).
        job(5, 700.0, 1, 1.0, 0.20, 300.0),
        job(6, 700.0, 1, 1.0, 0.20, 300.0),
        job(7, 700.0, 2, 0.25, 0.55, 450.0),
        // Late small jobs that fit in leftovers.
        job(8, 1_500.0, 1, 0.25, 0.10, 60.0),
        job(9, 1_600.0, 2, 0.5, 0.15, 240.0),
        // A second memory hog to force another eviction round.
        job(10, 1_800.0, 2, 0.25, 0.80, 700.0),
        job(11, 2_000.0, 1, 1.0, 0.35, 500.0),
    ];
    ScenarioBuilder::new()
        .label("crafted")
        .cluster(ClusterSpec::new(4, 4, 8.0).expect("valid cluster"))
        .jobs(jobs)
        .penalty(dfrs::core::constants::RESCHEDULING_PENALTY_SECS)
        .build()
        .expect("crafted scenario builds")
}

/// Lublin model, seed 1, load 0.7, with the paper's 5-minute penalty.
fn lublin_scenario() -> Scenario {
    ScenarioBuilder::new()
        .label("lublin-s1")
        .lublin(120)
        .load(0.7)
        .seed(1)
        .penalty(dfrs::core::constants::RESCHEDULING_PENALTY_SECS)
        .build()
        .expect("lublin scenario builds")
}

/// One HPC2N-like synthetic week (seed 3) with the paper's penalty: a
/// *bursty* arrival pattern — day/night and weekday cycles with batch
/// bursts — unlike the steady crafted trace and the Lublin stream.
/// Pins incremental-repack correctness on the arrive/complete
/// oscillations and pressure plateaus where the repack memo actually
/// hits.
fn hpc2n_scenario() -> Scenario {
    let mut weeks = ScenarioBuilder::new()
        .label("hpc2n-s3")
        .hpc2n_like(1, 220.0)
        .seed(3)
        .penalty(dfrs::core::constants::RESCHEDULING_PENALTY_SECS)
        .build_all()
        .expect("hpc2n-like scenario builds");
    assert_eq!(weeks.len(), 1, "one week requested");
    weeks.remove(0)
}

fn build_snapshots() -> Value {
    let scenarios = [crafted_scenario(), lublin_scenario(), hpc2n_scenario()];
    let mut top = std::collections::BTreeMap::new();
    for scenario in &scenarios {
        let mut per_spec = std::collections::BTreeMap::new();
        for key in PAPER_SPECS {
            let out = scenario
                .run(&golden_util::suite_spec(key))
                .expect("all registered specs build");
            per_spec.insert(key.to_string(), snapshot(&out));
        }
        top.insert(scenario.label.clone(), Value::Obj(per_spec));
    }
    Value::Obj(top)
}

#[test]
fn golden_traces_match() {
    golden_util::check_or_regen(
        GOLDEN_PATH,
        "cargo test --test golden_traces",
        build_snapshots,
    );
}

#[test]
fn golden_covers_all_nine_specs_on_every_scenario() {
    let text = std::fs::read_to_string(golden_util::golden_file(GOLDEN_PATH)).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e} (regenerate first)");
    });
    let golden = json::parse(&text).expect("golden file parses");
    let top = golden.as_obj().expect("top-level object");
    assert_eq!(
        top.keys().cloned().collect::<Vec<_>>(),
        vec![
            "crafted".to_string(),
            "hpc2n-s3".to_string(),
            "lublin-s1".to_string(),
        ]
    );
    for (scenario, specs) in top {
        let specs = specs.as_obj().expect("per-scenario object");
        assert_eq!(specs.len(), 9, "{scenario}: expected all nine specs");
        let names = [
            "FCFS",
            "EASY",
            "Greedy",
            "Greedy-pmtn",
            "Greedy-pmtn-migr",
            "DynMCB8",
            "DynMCB8-per 600",
            "DynMCB8-asap-per 600",
            "DynMCB8-stretch-per 600",
        ];
        for (key, name) in PAPER_SPECS.into_iter().zip(names) {
            let snap = specs
                .get(key)
                .unwrap_or_else(|| panic!("{scenario}: missing {key}"));
            assert_eq!(
                snap.get("algorithm").and_then(Value::as_str),
                Some(name),
                "{scenario}/{key}"
            );
            assert!(
                !snap.get("jobs").and_then(Value::as_arr).unwrap().is_empty(),
                "{scenario}/{key}: no job records"
            );
        }
    }
}
