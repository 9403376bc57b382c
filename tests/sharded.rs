//! Contract tests for the `sharded:<inner>:shards=N` coordinator
//! family:
//!
//! 1. `shards=1` is **byte-identical** to the bare inner spec, for any
//!    workload, with node churn and GPU jobs included — the registry
//!    builds the bare scheduler in that case, and the golden suite
//!    relies on it.
//! 2. For a fixed shard count ≥ 2, replaying the same scenario gives
//!    the same fingerprint (deterministic merge order, no dependence on
//!    thread scheduling).
//! 3. Sharded runs complete every job under full invariant validation,
//!    across churn — the coordinator's view bookkeeping, net-diff plan
//!    emission, and queue rebalancing never wedge the engine.
//! 4. At shards 2 and 4 the output is pinned byte for byte: a checksum
//!    of every fingerprint in a fixed matrix (inners, failure policies,
//!    penalties, live migration) is committed in
//!    `tests/golden/sharded_pins.txt`.
//!
//! Floats are compared through `to_bits`: bit-for-bit claims.

use dfrs::core::{ClusterSpec, JobId, JobSpec, NodeId};
use dfrs::sched::SchedulerRegistry;
use dfrs::sim::{simulate, FailurePolicy, MigrationMode, NodeEvent, SimConfig, SimOutcome};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Inner specs spanning the scheduler families the coordinator hosts:
/// greedy event-driven, repack-everything, periodic repack, and the
/// multi-resource DRF variant (exercised with GPU jobs below).
const INNERS: &[&str] = &["greedy-pmtn", "dynmcb8", "dynmcb8-per:t=300"];

fn cluster() -> ClusterSpec {
    ClusterSpec::new(8, 4, 8.0).expect("valid cluster")
}

/// Seeded random workload. With `gpu` set, roughly half the jobs carry
/// a GPU demand (paired with the DRF inner below).
fn workload(seed: u64, n: usize, gpu: bool) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += rng.gen_range(0.0..40.0);
            let tasks = rng.gen_range(1..=3u32);
            let cpu = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
            let mem = 0.05 * rng.gen_range(1..8) as f64;
            let runtime = rng.gen_range(10.0..500.0);
            let mut job =
                JobSpec::new(JobId(i as u32), t, tasks, cpu, mem, runtime).expect("valid job");
            if gpu && rng.gen_bool(0.5) {
                job = job.with_gpu(0.5).expect("valid gpu demand");
            }
            job
        })
        .collect()
}

/// A down/up pair per affected node, inside the likely sim horizon.
fn churn(seed: u64, pairs: usize) -> Vec<NodeEvent> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0D0);
    let mut events = Vec::new();
    for _ in 0..pairs {
        let node = NodeId(rng.gen_range(0..8u32));
        let t_down = rng.gen_range(50.0..800.0);
        let t_up = t_down + rng.gen_range(20.0..300.0);
        events.push(NodeEvent {
            time: t_down,
            node,
            up: false,
        });
        events.push(NodeEvent {
            time: t_up,
            node,
            up: true,
        });
    }
    events
}

fn run(spec: &str, jobs: &[JobSpec], events: &[NodeEvent]) -> SimOutcome {
    run_cfg(
        spec,
        jobs,
        SimConfig {
            node_events: events.to_vec(),
            ..SimConfig::default()
        },
    )
}

/// [`run`] under `cfg`, with validation and the timeline switched on.
fn run_cfg(spec: &str, jobs: &[JobSpec], cfg: SimConfig) -> SimOutcome {
    let mut scheduler = SchedulerRegistry::builtin()
        .build_str(spec)
        .unwrap_or_else(|e| panic!("spec {spec:?}: {e}"));
    let cfg = SimConfig {
        validate: true,
        record_timeline: true,
        ..cfg
    };
    simulate(cluster(), jobs, scheduler.as_mut(), &cfg)
}

/// Everything deterministic about an outcome, rendered to bytes
/// (wall-clock scheduler timings excluded; floats via `to_bits`).
fn fingerprint(o: &SimOutcome) -> String {
    let mut s = String::new();
    s.push_str(&dfrs::sim::export::records_to_csv(o));
    s.push_str(&format!(
        "max={:016x} mean={:016x} makespan={:016x} pre={} migr={} restarts={} \
         pre_gb={:016x} migr_gb={:016x} idle={:016x} busy={:016x} down={:016x} lost={:016x}\n",
        o.max_stretch.to_bits(),
        o.mean_stretch.to_bits(),
        o.makespan.to_bits(),
        o.preemption_count,
        o.migration_count,
        o.restart_count,
        o.preemption_gb.to_bits(),
        o.migration_gb.to_bits(),
        o.idle_node_seconds.to_bits(),
        o.busy_node_seconds.to_bits(),
        o.down_node_seconds.to_bits(),
        o.lost_virtual_seconds.to_bits(),
    ));
    s.push_str(&format!("{:?}\n", o.timeline));
    s
}

/// FNV-1a over a fingerprint: a short, stable checksum to commit.
fn checksum(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pinned sharded matrix, one line per run: every inner at shards
/// 2 and 4, under churn with both failure policies, at penalty 0 and
/// 300, plus one live-migration run. `dynmcb8-drf` runs GPU jobs.
fn pin_lines() -> String {
    const PINNED: &[&str] = &[
        "dynmcb8",
        "dynmcb8-per:t=300",
        "dynmcb8-asap-per:t=600",
        "greedy-pmtn-migr",
        "dynmcb8-drf",
    ];
    let mut out = String::new();
    let mut pin = |spec: &str, gpu: bool, cfg: SimConfig, label: &str| {
        let jobs = workload(5, 30, gpu);
        let cfg = SimConfig {
            node_events: churn(5, 3),
            ..cfg
        };
        let o = run_cfg(spec, &jobs, cfg);
        assert_eq!(
            o.records.len(),
            jobs.len(),
            "{spec} {label}: all jobs complete"
        );
        out.push_str(&format!(
            "{spec} {label} {:016x}\n",
            checksum(&fingerprint(&o))
        ));
    };
    for inner in PINNED {
        for shards in [2, 4] {
            let spec = format!("sharded:{inner}:shards={shards}");
            for (policy, name) in [
                (FailurePolicy::Restart, "restart"),
                (FailurePolicy::PausePreserve, "preserve"),
            ] {
                for penalty in [0.0, 300.0] {
                    let cfg = SimConfig {
                        penalty,
                        failure_policy: policy,
                        ..SimConfig::default()
                    };
                    let label = format!("{name} penalty={penalty}");
                    pin(&spec, *inner == "dynmcb8-drf", cfg, &label);
                }
            }
        }
    }
    let cfg = SimConfig {
        penalty: 300.0,
        migration_mode: MigrationMode::Live { freeze_secs: 5.0 },
        ..SimConfig::default()
    };
    pin("sharded:dynmcb8:shards=4", false, cfg, "restart live=5");
    out
}

/// Sharded output at shards ≥ 2 is pinned byte for byte, not only by
/// replay stability: the checksums of [`pin_lines`] must equal the
/// committed file. `DFRS_GOLDEN_REGEN=1` rewrites it.
#[test]
fn sharded_fingerprints_match_the_pin_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sharded_pins.txt");
    let got = pin_lines();
    if std::env::var_os("DFRS_GOLDEN_REGEN").is_some() {
        std::fs::write(path, &got).expect("write the pin file");
        return;
    }
    let want = std::fs::read_to_string(path).expect("read the pin file");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "sharded pin moved");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "pin line count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `sharded:<spec>:shards=1` is byte-identical to the bare spec on
    /// random workloads with random node churn.
    #[test]
    fn one_shard_is_byte_identical_to_bare(
        seed in 0u64..10_000,
        n in 8usize..24,
        inner_ix in 0usize..INNERS.len(),
        churn_pairs in 0usize..3,
    ) {
        let inner = INNERS[inner_ix];
        let jobs = workload(seed, n, false);
        let events = churn(seed, churn_pairs);
        let bare = run(inner, &jobs, &events);
        let sharded = run(&format!("sharded:{inner}:shards=1"), &jobs, &events);
        prop_assert_eq!(&bare.algorithm, &sharded.algorithm, "shards=1 builds the bare scheduler");
        prop_assert_eq!(fingerprint(&bare), fingerprint(&sharded));
    }

    /// The identity also holds for GPU workloads under the DRF inner.
    #[test]
    fn one_shard_identity_holds_for_gpu_traces(
        seed in 0u64..10_000,
        n in 8usize..20,
    ) {
        let jobs = workload(seed, n, true);
        let bare = run("dynmcb8-drf", &jobs, &[]);
        let sharded = run("sharded:dynmcb8-drf:shards=1", &jobs, &[]);
        prop_assert_eq!(fingerprint(&bare), fingerprint(&sharded));
    }

    /// Fixed shard counts ≥ 2 replay deterministically: same scenario,
    /// same fingerprint, run over run.
    #[test]
    fn fixed_shard_count_is_deterministic(
        seed in 0u64..10_000,
        n in 8usize..24,
        inner_ix in 0usize..INNERS.len(),
        shards in prop::sample::select(vec![2u32, 4]),
        churn_pairs in 0usize..3,
    ) {
        let spec = format!("sharded:{}:shards={shards}", INNERS[inner_ix]);
        let jobs = workload(seed, n, false);
        let events = churn(seed, churn_pairs);
        let a = run(&spec, &jobs, &events);
        let b = run(&spec, &jobs, &events);
        prop_assert_eq!(a.records.len(), jobs.len(), "all jobs complete");
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}

#[test]
fn rebalancing_moves_load_and_the_run_still_drains() {
    // A burst of queue pressure all submitted at once: the coordinator
    // must spread waiting jobs across shards instead of letting the
    // first shard's queue starve the rest of the cluster, and the run
    // must drain under full validation.
    let jobs: Vec<JobSpec> = (0..24)
        .map(|i| JobSpec::new(JobId(i), 0.0, 1, 1.0, 0.4, 200.0).unwrap())
        .collect();
    let sharded = run("sharded:dynmcb8:shards=4", &jobs, &[]);
    assert_eq!(sharded.records.len(), jobs.len());
    // 8 nodes of capacity exist; a single 2-node shard alone would need
    // 12 sequential batches of 2. Anything close to the bare makespan
    // proves the waiting queue was spread over the shards.
    let bare = run("dynmcb8", &jobs, &[]);
    assert!(
        sharded.makespan <= bare.makespan * 2.0,
        "sharded {} vs bare {}",
        sharded.makespan,
        bare.makespan
    );
}

#[test]
fn sharded_survives_churn_with_validation() {
    let jobs = workload(99, 20, false);
    let events = churn(99, 2);
    let out = run("sharded:dynmcb8-per:t=300:shards=4", &jobs, &events);
    assert_eq!(out.records.len(), jobs.len());
    for r in &out.records {
        assert!(r.stretch >= 1.0);
    }
}

/// The host-independent count guard of keep-what-fits on a
/// `huge-sharded`-shaped input: 10 240 nodes under eight shards and
/// 3 000 single-task jobs, about 500 of them live at once (~1 s gaps,
/// 300–700 s runtimes), so every job always fits at yield 1. Every
/// repack then keeps what still fits: no search, no migration.
#[test]
fn keep_what_fits_runs_no_search_on_a_huge_cluster() {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut t = 0.0;
    let jobs: Vec<JobSpec> = (0..3_000u32)
        .map(|i| {
            t += rng.gen_range(0.6..1.4);
            let cpu = rng.gen_range(0.1..1.0);
            let mem = rng.gen_range(0.05..0.9);
            let runtime = rng.gen_range(300.0..700.0);
            JobSpec::new(JobId(i), t, 1, cpu, mem, runtime).expect("valid job")
        })
        .collect();
    let mut scheduler = SchedulerRegistry::builtin()
        .build_str("sharded:dynmcb8:shards=8")
        .unwrap();
    let cluster = ClusterSpec::new(10_240, 4, 8.0).expect("valid cluster");
    let out = simulate(cluster, &jobs, scheduler.as_mut(), &SimConfig::default());
    assert_eq!(out.records.len(), jobs.len());
    let repack = out.repack.expect("a packing inner");
    assert_eq!(repack.searches, 0, "{repack:?}");
    assert_eq!(out.migration_count, 0);
    assert!(out.max_stretch < 1.0 + 1e-9, "{}", out.max_stretch);
}
