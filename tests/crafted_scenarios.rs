//! Hand-crafted scenarios with exactly predictable outcomes, spanning
//! the whole stack (specs → scheduler → engine → stretch metrics).

use dfrs::core::ids::JobId;
use dfrs::core::{ClusterSpec, JobSpec};
use dfrs::sim::{simulate, SimConfig, SimOutcome};
use dfrs::SchedulerRegistry;

fn run(spec: &str, cluster: ClusterSpec, jobs: &[JobSpec], penalty: f64) -> SimOutcome {
    let cfg = SimConfig {
        penalty,
        validate: true,
        ..SimConfig::default()
    };
    let mut sched = SchedulerRegistry::builtin().build_str(spec).unwrap();
    simulate(cluster, jobs, sched.as_mut(), &cfg)
}

fn job(id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, rt: f64) -> JobSpec {
    JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt).unwrap()
}

/// The paper's motivating pathology: memory-light, CPU-light jobs that
/// batch scheduling serializes but DFRS runs concurrently at full speed.
#[test]
fn fractional_sharing_eliminates_batch_queueing() {
    let cluster = ClusterSpec::new(4, 4, 8.0).unwrap();
    // Four 4-task sequential-ish jobs: cpu 0.25, mem 0.2 → all four fit
    // on the cluster simultaneously (cpu 1.0, mem 0.8 per node).
    let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 0.0, 4, 0.25, 0.2, 1000.0)).collect();

    let batch = run("fcfs", cluster, &jobs, 0.0);
    // FCFS serializes: completions at 1000, 2000, 3000, 4000.
    assert!((batch.records[3].completion - 4000.0).abs() < 1e-6);
    assert!((batch.max_stretch - 4.0).abs() < 1e-6);

    for algo in ["greedy", "greedy-pmtn", "dynmcb8"] {
        let dfrs = run(algo, cluster, &jobs, 0.0);
        assert_eq!(
            dfrs.max_stretch, 1.0,
            "{algo}: all four should run at yield 1"
        );
    }
}

/// CPU over-subscription slows jobs proportionally and fairly.
#[test]
fn oversubscription_is_proportional() {
    let cluster = ClusterSpec::new(1, 4, 8.0).unwrap();
    // Three CPU-bound single-task jobs on one node, memory 0.3 each.
    let jobs: Vec<JobSpec> = (0..3).map(|i| job(i, 0.0, 1, 1.0, 0.3, 300.0)).collect();
    let out = run("greedy", cluster, &jobs, 0.0);
    // Equal share: yield 1/3 → everyone completes at 900.
    for r in &out.records {
        assert!((r.completion - 900.0).abs() < 1e-6);
        assert!((r.stretch - 3.0).abs() < 1e-6);
    }
}

/// A short job arriving under memory pressure: GREEDY's backoff makes it
/// wait; GREEDY-PMTN's forced admission gives it near-dedicated service;
/// the stretch gap is exactly the paper's starvation argument.
#[test]
fn forced_admission_rescues_short_jobs() {
    let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
    let jobs = vec![
        job(0, 0.0, 2, 0.25, 1.0, 10_000.0), // memory hog, runs 10000 s
        job(1, 100.0, 1, 0.25, 0.5, 30.0),   // 30 s job
    ];
    let greedy = run("greedy", cluster, &jobs, 0.0);
    let pmtn = run("greedy-pmtn", cluster, &jobs, 0.0);
    // GREEDY: job 1 backs off until job 0 finishes (~10000 s) →
    // stretch ≈ 10000/30 ≈ 333.
    let g1 = &greedy.records[1];
    assert!(g1.first_start.unwrap() > 10_000.0);
    assert!(g1.stretch > 300.0, "stretch {}", g1.stretch);
    // GREEDY-PMTN: starts at 100 s, stretch 1.
    let p1 = &pmtn.records[1];
    assert!((p1.first_start.unwrap() - 100.0).abs() < 1e-9);
    assert_eq!(p1.stretch, 1.0);
    // And the hog still completes (resumed after job 1).
    assert!((pmtn.records[0].completion - 10_030.0).abs() < 1.0);
}

/// Memory constraints are never violated even under heavy churn.
#[test]
fn memory_is_a_hard_constraint_under_churn() {
    let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
    // Alternating memory-heavy and light jobs forcing constant eviction
    // decisions; validate=true checks every node at every event.
    let mut jobs = Vec::new();
    for i in 0..12u32 {
        let heavy = i % 2 == 0;
        jobs.push(job(
            i,
            (i as f64) * 40.0,
            1 + i % 2,
            if heavy { 0.25 } else { 1.0 },
            if heavy { 0.9 } else { 0.2 },
            120.0,
        ));
    }
    for algo in ["greedy-pmtn-migr", "dynmcb8", "dynmcb8-asap-per"] {
        let out = run(algo, cluster, &jobs, 300.0);
        assert_eq!(out.records.len(), 12, "{algo}");
    }
}

/// EASY's perfect estimates vs DFRS's zero knowledge: the paper's
/// central fairness-of-comparison point — DFRS wins anyway on a
/// backfill-hostile workload.
#[test]
fn clairvoyant_easy_still_loses_on_sharing_friendly_load() {
    let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
    // Stream of 2-node jobs: no backfill holes exist for EASY to exploit
    // (every job needs the whole cluster width). Memory 0.15 × 6 = 0.9
    // per node, so DFRS can host all six jobs simultaneously.
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| job(i, i as f64, 2, 0.25, 0.15, 600.0))
        .collect();
    let easy = run("easy", cluster, &jobs, 0.0);
    let dfrs = run("dynmcb8", cluster, &jobs, 0.0);
    // EASY: strictly sequential → last job waits ~5×600.
    assert!(easy.max_stretch > 5.0);
    // DFRS: 6 jobs × cpu 0.25 → total load 1.5 per node → min yield ≈
    // 2/3 with improvement → max stretch ≤ 2.
    assert!(dfrs.max_stretch < 2.0, "got {}", dfrs.max_stretch);
}

/// The 30-second bound keeps trivial jobs from dominating the metric.
#[test]
fn bounded_stretch_filters_noise_jobs() {
    let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
    let jobs = vec![
        job(0, 0.0, 2, 1.0, 0.5, 1.0), // 1-second job
        job(1, 0.5, 2, 1.0, 0.5, 600.0),
    ];
    let out = run("fcfs", cluster, &jobs, 0.0);
    // Job 0 runs immediately (stretch 1); job 1 waits 0.5 s → stretch ~1.
    assert_eq!(out.records[0].stretch, 1.0);
    assert!(out.records[1].stretch < 1.01);

    // Reverse arrival: the 1 s job waits 600 s behind the long one.
    let jobs = vec![
        job(0, 0.0, 2, 1.0, 0.5, 600.0),
        job(1, 0.5, 2, 1.0, 0.5, 1.0),
    ];
    let out = run("fcfs", cluster, &jobs, 0.0);
    // Unbounded stretch would be ~600/1; bounded: ~600.5/30 ≈ 20.
    assert!((out.records[1].stretch - 600.5 / 30.0).abs() < 0.1);
}
