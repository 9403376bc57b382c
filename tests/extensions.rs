//! Integration tests for the features that extend the paper
//! (live migration, fairness damping, conservative backfilling,
//! packer/priority ablations) — the pieces DESIGN.md §6 commits to.

use dfrs::core::ids::JobId;
use dfrs::core::{ClusterSpec, JobSpec};
use dfrs::sched::SchedulerRegistry;
use dfrs::sim::{simulate, MigrationMode, SimConfig};
use dfrs::workload::{Annotator, LublinModel, Trace};
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

#[test]
fn live_migration_moves_fewer_bytes_than_stop_and_copy() {
    let t = trace(1, 60, 0.8);
    let base = SimConfig {
        penalty: 300.0,
        validate: true,
        ..SimConfig::default()
    };
    let live = SimConfig {
        migration_mode: MigrationMode::Live { freeze_secs: 10.0 },
        ..base.clone()
    };
    let a = simulate(
        t.cluster,
        t.jobs(),
        SchedulerRegistry::builtin()
            .build_str("dynmcb8")
            .unwrap()
            .as_mut(),
        &base,
    );
    let b = simulate(
        t.cluster,
        t.jobs(),
        SchedulerRegistry::builtin()
            .build_str("dynmcb8")
            .unwrap()
            .as_mut(),
        &live,
    );
    if a.migration_count > 0 {
        // Identical decision sequence up to the penalty feedback; on a
        // per-migration basis live moves half the bytes, and overall it
        // must not move more.
        assert!(
            b.migration_gb <= a.migration_gb + 1e-9,
            "live {} GB vs stop-and-copy {} GB",
            b.migration_gb,
            a.migration_gb
        );
        // Cheaper migrations can only help the stretch on average.
        assert!(b.mean_stretch <= a.mean_stretch * 1.5);
    }
}

#[test]
fn fairness_damping_reduces_long_job_dominance() {
    // Construct contention between one marathon job and a stream of
    // short jobs on a small cluster.
    let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
    let j =
        |id: u32, submit: f64, rt: f64| JobSpec::new(JobId(id), submit, 1, 1.0, 0.3, rt).unwrap();
    let mut jobs = vec![j(0, 0.0, 50_000.0), j(1, 0.0, 50_000.0)];
    for i in 0..8u32 {
        jobs.push(j(2 + i, 5_000.0 + 2_000.0 * i as f64, 600.0));
    }
    let cfg = SimConfig {
        validate: true,
        ..SimConfig::default()
    };
    let plain = simulate(
        cluster,
        &jobs,
        SchedulerRegistry::builtin()
            .build_str("dynmcb8-per")
            .unwrap()
            .as_mut(),
        &cfg,
    );
    let fair = simulate(
        cluster,
        &jobs,
        SchedulerRegistry::builtin()
            .build_str("dynmcb8-fair-per:t=600,vt-threshold=1800,alpha=1")
            .unwrap()
            .as_mut(),
        &cfg,
    );
    let short_mean =
        |o: &dfrs::sim::SimOutcome| o.records.iter().skip(2).map(|r| r.stretch).sum::<f64>() / 8.0;
    assert!(
        short_mean(&fair) <= short_mean(&plain) + 1e-9,
        "fairness damping should help the short jobs: fair {} vs plain {}",
        short_mean(&fair),
        short_mean(&plain)
    );
}

#[test]
fn conservative_bf_slots_between_fcfs_and_easy_qualitatively() {
    let t = trace(3, 60, 0.8);
    let cfg = SimConfig::default();
    let fcfs = simulate(
        t.cluster,
        t.jobs(),
        SchedulerRegistry::builtin()
            .build_str("fcfs")
            .unwrap()
            .as_mut(),
        &cfg,
    );
    let cons = simulate(
        t.cluster,
        t.jobs(),
        SchedulerRegistry::builtin()
            .build_str("conservative-bf")
            .unwrap()
            .as_mut(),
        &cfg,
    );
    // Backfilling (even conservative) must not be worse than plain FIFO
    // on mean stretch for this workload family.
    assert!(
        cons.mean_stretch <= fcfs.mean_stretch + 1e-9,
        "conservative {} vs fcfs {}",
        cons.mean_stretch,
        fcfs.mean_stretch
    );
}

#[test]
fn packer_ablation_runs_through_public_api() {
    let t = trace(4, 50, 0.7);
    let cfg = SimConfig {
        validate: true,
        ..SimConfig::default()
    };
    for packer in ["mcb8", "first-fit", "best-fit"] {
        let spec = format!("dynmcb8-asap-per:t=600,packer={packer}");
        let mut s = SchedulerRegistry::builtin().build_str(&spec).unwrap();
        let out = simulate(t.cluster, t.jobs(), s.as_mut(), &cfg);
        assert_eq!(out.records.len(), 50, "{packer}");
    }
}

#[test]
fn priority_exponent_changes_pause_victims() {
    // With exponent 2 the long-running job is preferentially paused; a
    // linear priority shifts the balance. At minimum, both run cleanly
    // and produce valid outcomes on a contended workload. The seed picks
    // a trace with enough forced admissions for victim choice to matter.
    let t = trace(31, 50, 0.9);
    let cfg = SimConfig {
        validate: true,
        ..SimConfig::default()
    };
    let reg = SchedulerRegistry::builtin();
    let sq = simulate(
        t.cluster,
        t.jobs(),
        reg.build_str("greedy-pmtn").unwrap().as_mut(),
        &cfg,
    );
    let lin = simulate(
        t.cluster,
        t.jobs(),
        reg.build_str("greedy-pmtn:exponent=1").unwrap().as_mut(),
        &cfg,
    );
    assert_eq!(sq.records.len(), lin.records.len());
    // The paper's claim (square markedly better) is statistical; at this
    // scale assert only that the configurations are actually distinct in
    // behaviour on a contended trace.
    let same_everything = sq.max_stretch == lin.max_stretch
        && sq.preemption_count == lin.preemption_count
        && sq.mean_stretch == lin.mean_stretch;
    assert!(
        !same_everything || sq.preemption_count == 0,
        "exponent had no observable effect despite {} preemptions",
        sq.preemption_count
    );
}

#[test]
fn daily_cycle_workloads_simulate_cleanly() {
    use dfrs::workload::lublin::LublinParams;
    let cluster = ClusterSpec::synthetic();
    let model = LublinModel::new(LublinParams::for_cluster_with_daily_cycle(cluster.nodes));
    let mut rng = SmallRng::seed_from_u64(6);
    let raws = model.generate(80, &mut rng);
    let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
    let t = Trace::new(cluster, jobs)
        .unwrap()
        .scale_to_load(0.7)
        .unwrap();
    let cfg = SimConfig {
        validate: true,
        ..SimConfig::default()
    };
    let out = simulate(
        t.cluster,
        t.jobs(),
        SchedulerRegistry::builtin()
            .build_str("dynmcb8-asap-per")
            .unwrap()
            .as_mut(),
        &cfg,
    );
    assert_eq!(out.records.len(), 80);
}
