//! Deterministic-replay guarantees: the same `ClusterSpec`, workload and
//! seed must reproduce the same `SimOutcome` run over run, for every
//! algorithm family. Without this property no experiment in the paper
//! harness is reproducible, so it is pinned here byte-for-byte.
//!
//! The wall-clock bookkeeping fields (`sched_wall_total`,
//! `sched_wall_max` and the `wall_secs` half of each `DecisionSample`)
//! measure real scheduler compute time and legitimately vary between
//! runs; everything else must be identical.

use dfrs::core::ClusterSpec;
use dfrs::sim::{simulate, SimConfig, SimOutcome};
use dfrs::workload::{Annotator, LublinModel, Trace};
use dfrs::{SchedulerRegistry, SchedulerSpec, PAPER_SPECS};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn seeded_trace(seed: u64, n: usize, load: f64) -> Trace {
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

/// Everything deterministic about an outcome, rendered to bytes.
/// Floats go through `to_bits` so `-0.0 == 0.0` and rounding noise can
/// not mask a drift.
fn fingerprint(o: &SimOutcome) -> String {
    let mut s = String::new();
    s.push_str(&o.algorithm);
    s.push('\n');
    s.push_str(&dfrs::sim::export::records_to_csv(o));
    s.push_str(&format!(
        "max={:016x} mean={:016x} makespan={:016x} pre={} migr={} pre_gb={:016x} migr_gb={:016x} \
         idle={:016x} busy={:016x} calls={}\n",
        o.max_stretch.to_bits(),
        o.mean_stretch.to_bits(),
        o.makespan.to_bits(),
        o.preemption_count,
        o.migration_count,
        o.preemption_gb.to_bits(),
        o.migration_gb.to_bits(),
        o.idle_node_seconds.to_bits(),
        o.busy_node_seconds.to_bits(),
        o.sched_calls,
    ));
    // The decision sizes (not their wall-clock timings) are part of the
    // deterministic decision sequence.
    for d in &o.decisions {
        s.push_str(&format!("decision jobs={}\n", d.jobs_in_system));
    }
    s.push_str(&format!("{:?}\n", o.timeline));
    s
}

#[test]
fn same_seed_same_outcome_for_every_algorithm() {
    let trace = seeded_trace(17, 60, 0.8);
    let cfg = SimConfig {
        validate: true,
        ..SimConfig::default()
    };
    let reg = SchedulerRegistry::builtin();
    for spec in PAPER_SPECS {
        let a = simulate(
            trace.cluster,
            trace.jobs(),
            reg.build_str(spec).unwrap().as_mut(),
            &cfg,
        );
        let b = simulate(
            trace.cluster,
            trace.jobs(),
            reg.build_str(spec).unwrap().as_mut(),
            &cfg,
        );
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{} replay diverged on identical input",
            a.algorithm
        );
    }
}

#[test]
fn same_seed_same_outcome_with_penalty_and_fresh_workload() {
    // Regenerate the workload from scratch both times: generation and
    // simulation must BOTH replay exactly from the seed alone.
    let cfg = SimConfig {
        penalty: 300.0,
        ..SimConfig::default()
    };
    let run = || {
        let t = seeded_trace(23, 50, 0.9);
        let out = simulate(
            t.cluster,
            t.jobs(),
            SchedulerRegistry::builtin()
                .build_str("dynmcb8-asap-per")
                .unwrap()
                .as_mut(),
            &cfg,
        );
        fingerprint(&out)
    };
    assert_eq!(
        run(),
        run(),
        "workload generation + simulation replay diverged"
    );
}

#[test]
fn registry_spec_reproduces_enum_built_scheduler_byte_identically() {
    // The acceptance bar for the registry redesign: a spec string and
    // the typed `SchedulerSpec` it names build the same scheduler, not
    // a near-copy. T = 300 is deliberately NOT the default period, so a
    // dropped parameter would show up immediately.
    let trace = seeded_trace(29, 60, 0.8);
    let cfg = SimConfig {
        penalty: 300.0,
        validate: true,
        ..SimConfig::default()
    };
    let registry = SchedulerRegistry::builtin();
    for (spec, key, period) in [
        ("dynmcb8-per:T=300", "dynmcb8-per", Some(300.0)),
        ("dynmcb8-asap-per:T=300", "dynmcb8-asap-per", Some(300.0)),
        (
            "dynmcb8-stretch-per:t=600",
            "dynmcb8-stretch-per",
            Some(600.0),
        ),
        ("greedy-pmtn", "greedy-pmtn", None),
        ("FCFS", "fcfs", None),
    ] {
        let typed = match period {
            Some(t) => SchedulerSpec::new(key).with("t", t),
            None => SchedulerSpec::new(key),
        };
        let via_registry = simulate(
            trace.cluster,
            trace.jobs(),
            registry.build_str(spec).unwrap().as_mut(),
            &cfg,
        );
        let via_typed = simulate(
            trace.cluster,
            trace.jobs(),
            registry.build(&typed).unwrap().as_mut(),
            &cfg,
        );
        assert_eq!(
            fingerprint(&via_registry),
            fingerprint(&via_typed),
            "registry spec {spec} diverged from the typed spec {typed}"
        );
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against fingerprint() degenerating into a constant.
    let cfg = SimConfig::default();
    let a = seeded_trace(1, 40, 0.7);
    let b = seeded_trace(2, 40, 0.7);
    let fa = fingerprint(&simulate(
        a.cluster,
        a.jobs(),
        SchedulerRegistry::builtin()
            .build_str("greedy-pmtn")
            .unwrap()
            .as_mut(),
        &cfg,
    ));
    let fb = fingerprint(&simulate(
        b.cluster,
        b.jobs(),
        SchedulerRegistry::builtin()
            .build_str("greedy-pmtn")
            .unwrap()
            .as_mut(),
        &cfg,
    ));
    assert_ne!(fa, fb, "distinct seeds produced identical outcomes");
}
