//! Golden-trace snapshot suite for the multi-resource (GPU) extension.
//!
//! Pins the full deterministic `SimOutcome` of the DRF family
//! (`dynmcb8-drf`, `dynmcb8-drf-per:t=600`) **and** of the GPU-clamped
//! yield scheduler (`dynmcb8`, whose feasibility clamp is the only way
//! the paper family touches GPUs) on two GPU-annotated scenarios — a
//! crafted mixed-dominance trace and a Lublin seed-1 trace with 40% of
//! the jobs annotated — as checked-in JSON
//! (`tests/golden/golden_drf.json`), byte-exact like the main suite.
//! The paper scenarios in `golden_traces.json` stay GPU-free and are
//! deliberately not touched by this file.
//!
//! Regenerate (after an *intentional* behavior change) with:
//!
//! ```sh
//! DFRS_GOLDEN_REGEN=1 cargo test --test golden_drf
//! ```

mod golden_util;

use dfrs::core::ids::JobId;
use dfrs::core::{ClusterSpec, JobSpec};
use dfrs::scenario::{Scenario, ScenarioBuilder};
use dfrs_core::json::Value;
use golden_util::snapshot;

const GOLDEN_PATH: &str = "tests/golden/golden_drf.json";

/// The specs this suite pins. Kept out of `PAPER_SPECS` (the paper's
/// nine) on purpose — these are extensions.
const SPECS: [&str; 3] = ["dynmcb8", "dynmcb8-drf", "dynmcb8-drf-per:t=600"];

/// A crafted mixed-dominance trace: CPU-dominant, GPU-dominant, and
/// balanced jobs contending on a small cluster, exercising the DRF
/// bisection, its eviction ordering (memory hogs), and the yield
/// family's GPU clamp.
fn crafted_gpu_scenario() -> Scenario {
    let job = |id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, rt: f64| {
        JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt).expect("valid crafted job")
    };
    let gpu_job = |id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, gpu: f64, rt: f64| {
        job(id, submit, tasks, cpu, mem, rt)
            .with_gpu(gpu)
            .expect("valid crafted GPU demand")
    };
    let jobs = vec![
        // CPU-dominant baseline load.
        job(0, 0.0, 2, 1.0, 0.30, 800.0),
        job(1, 30.0, 3, 0.8, 0.25, 600.0),
        // GPU-dominant jobs that collide on the same accelerators.
        gpu_job(2, 60.0, 2, 0.2, 0.20, 1.0, 700.0),
        gpu_job(3, 90.0, 2, 0.3, 0.25, 0.9, 500.0),
        // Balanced job: CPU and GPU demands equal (degenerate dominance).
        gpu_job(4, 150.0, 1, 0.6, 0.30, 0.6, 400.0),
        // A memory hog forcing the eviction path under both objectives.
        job(5, 300.0, 4, 0.25, 0.85, 900.0),
        // Late burst mixing the two families at the same instant.
        gpu_job(6, 1_000.0, 1, 0.4, 0.20, 0.8, 300.0),
        job(7, 1_000.0, 1, 1.0, 0.20, 300.0),
        gpu_job(8, 1_200.0, 2, 0.5, 0.15, 0.5, 240.0),
    ];
    ScenarioBuilder::new()
        .label("crafted-gpu")
        .cluster(ClusterSpec::new(4, 4, 8.0).expect("valid cluster"))
        .jobs(jobs)
        .penalty(dfrs::core::constants::RESCHEDULING_PENALTY_SECS)
        .build()
        .expect("crafted GPU scenario builds")
}

/// Lublin model, seed 1, load 0.7, 40% of jobs GPU-annotated
/// (deterministic per-trace salt; see `ScenarioBuilder::gpu_frac`),
/// with the paper's 5-minute penalty.
fn lublin_gpu_scenario() -> Scenario {
    ScenarioBuilder::new()
        .label("lublin-gpu-s1")
        .lublin(120)
        .load(0.7)
        .seed(1)
        .gpu_frac(0.4)
        .penalty(dfrs::core::constants::RESCHEDULING_PENALTY_SECS)
        .build()
        .expect("lublin GPU scenario builds")
}

fn build_snapshots() -> Value {
    let scenarios = [crafted_gpu_scenario(), lublin_gpu_scenario()];
    let mut top = std::collections::BTreeMap::new();
    for scenario in &scenarios {
        let mut per_spec = std::collections::BTreeMap::new();
        for spec in SPECS {
            let out = scenario
                .run(&golden_util::suite_spec(spec))
                .expect("all pinned specs build");
            per_spec.insert(spec.to_string(), snapshot(&out));
        }
        top.insert(scenario.label.clone(), Value::Obj(per_spec));
    }
    Value::Obj(top)
}

#[test]
fn golden_drf_traces_match() {
    golden_util::check_or_regen(GOLDEN_PATH, "cargo test --test golden_drf", build_snapshots);
}

#[test]
fn golden_drf_covers_both_scenarios_and_all_pinned_specs() {
    let text = std::fs::read_to_string(golden_util::golden_file(GOLDEN_PATH)).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e} (regenerate first)");
    });
    let golden = dfrs_core::json::parse(&text).expect("golden file parses");
    let top = golden.as_obj().expect("top-level object");
    assert_eq!(
        top.keys().cloned().collect::<Vec<_>>(),
        vec!["crafted-gpu".to_string(), "lublin-gpu-s1".to_string()]
    );
    for (scenario, specs) in top {
        let specs = specs.as_obj().expect("per-scenario object");
        assert_eq!(specs.len(), SPECS.len(), "{scenario}: pinned spec set");
        for spec in SPECS {
            let snap = specs
                .get(spec)
                .unwrap_or_else(|| panic!("{scenario}: missing {spec}"));
            assert!(
                !snap.get("jobs").and_then(Value::as_arr).unwrap().is_empty(),
                "{scenario}/{spec}: no job records"
            );
        }
    }
}
