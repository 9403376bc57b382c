//! Streaming-mode equivalence properties (the service-mode contract):
//!
//! 1. For any workload and any registry spec, the streamed path
//!    (`simulate_stream` over an [`IterSource`] that never materializes
//!    the trace, and a [`SimSession`] fed one submit at a time) is
//!    byte-identical to the materialized batch path (`try_simulate`).
//! 2. Snapshotting a session at quiescence, serializing the snapshot to
//!    text, and restoring it into a fresh session reproduces the
//!    uninterrupted run's fingerprint exactly — including queued node
//!    events and periodic-rescheduler tick chains that were pending at
//!    the checkpoint.
//! 3. Node failures and repairs sent to a session as `node_event`
//!    commands give the bytes of a batch run whose availability trace
//!    holds the same events.
//!
//! Floats are compared through `to_bits`, so these are bit-for-bit
//! claims, not tolerance checks.

use dfrs::core::json;
use dfrs::core::{ClusterSpec, JobId, JobSpec, NodeId};
use dfrs::sched::SchedulerRegistry;
use dfrs::sim::{
    simulate_stream, try_simulate, DiscardRecords, FailurePolicy, IterSource, NodeEvent, SimConfig,
    SimOutcome, SimSession,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Registry specs covering every scheduler family the daemon can host:
/// queue-based, greedy with preemption/migration, and the DynMCB8
/// variants (including the periodic one, whose tick chain lives in the
/// event queue and therefore inside snapshots), plus the sharded
/// coordinator, whose views a restored session builds afresh at its
/// first event.
const SPECS: &[&str] = &[
    "fcfs",
    "greedy-pmtn",
    "greedy-pmtn-migr",
    "dynmcb8",
    "dynmcb8-per:t=300",
    "dynmcb8-drf",
    "sharded:dynmcb8:shards=2",
    "sharded:dynmcb8-per:t=300:shards=2",
    "sharded:greedy-pmtn:shards=3",
];

fn cluster() -> ClusterSpec {
    ClusterSpec::new(8, 4, 8.0).expect("valid cluster")
}

/// Seeded random workload with dense ids starting at `first_id` and
/// submit times starting at `t0`. Runtimes are bounded (≤ 600 s) so a
/// drained burst always finishes long before the next burst's base
/// time in the snapshot property below.
fn burst(seed: u64, n: usize, first_id: usize, t0: f64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = t0;
    (0..n)
        .map(|i| {
            t += rng.gen_range(0.0..50.0);
            let tasks = rng.gen_range(1..=3u32);
            let cpu = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
            let mem = 0.05 * rng.gen_range(1..8) as f64;
            let runtime = rng.gen_range(10.0..600.0);
            JobSpec::new(JobId((first_id + i) as u32), t, tasks, cpu, mem, runtime)
                .expect("valid job")
        })
        .collect()
}

/// Everything deterministic about an outcome, rendered to bytes
/// (wall-clock scheduler timings excluded, floats via `to_bits`).
fn fingerprint(o: &SimOutcome) -> String {
    let mut s = String::new();
    s.push_str(&o.algorithm);
    s.push('\n');
    s.push_str(&dfrs::sim::export::records_to_csv(o));
    s.push_str(&format!(
        "max={:016x} mean={:016x} makespan={:016x} pre={} migr={} restart={} pre_gb={:016x} \
         migr_gb={:016x} lost={:016x} idle={:016x} busy={:016x} down={:016x} calls={} events={} \
         done={} peak_live={} peak_res={}\n",
        o.max_stretch.to_bits(),
        o.mean_stretch.to_bits(),
        o.makespan.to_bits(),
        o.preemption_count,
        o.migration_count,
        o.restart_count,
        o.preemption_gb.to_bits(),
        o.migration_gb.to_bits(),
        o.lost_virtual_seconds.to_bits(),
        o.idle_node_seconds.to_bits(),
        o.busy_node_seconds.to_bits(),
        o.down_node_seconds.to_bits(),
        o.sched_calls,
        o.events_processed,
        o.jobs_completed,
        o.peak_live_jobs,
        o.peak_resident_jobs,
    ));
    s
}

fn build(spec: &str) -> Box<dyn dfrs::sim::Scheduler> {
    SchedulerRegistry::builtin()
        .build_str(spec)
        .unwrap_or_else(|e| panic!("bad spec {spec}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streamed == materialized, per registry spec: the batch path, an
    /// iterator source that never holds the full trace, and a live
    /// session fed submit-by-submit must all produce the same bytes.
    #[test]
    fn streamed_matches_materialized_per_spec(
        seed in 0u64..10_000,
        n in 5usize..30,
        penalty in prop::sample::select(vec![0.0, 300.0]),
    ) {
        let jobs = burst(seed, n, 0, 0.0);
        let config = SimConfig {
            penalty,
            ..SimConfig::default()
        };

        for spec in SPECS {
            let batch = try_simulate(cluster(), &jobs, build(spec).as_mut(), &config)
                .unwrap_or_else(|e| panic!("{spec} batch: {e}"));

            // Streamed: pull-based source, records collected by a sink.
            let mut source = IterSource::new(jobs.iter().cloned());
            let mut sink: Vec<dfrs::sim::JobRecord> = Vec::new();
            let mut streamed =
                simulate_stream(cluster(), &mut source, &mut sink, build(spec).as_mut(), &config)
                    .unwrap_or_else(|e| panic!("{spec} streamed: {e}"));
            prop_assert!(streamed.records.is_empty(), "stream path materialized records");
            streamed.records = sink;
            prop_assert_eq!(
                fingerprint(&batch), fingerprint(&streamed),
                "{} streamed != batch", spec
            );

            // Session: one submit() per job, then drain.
            let mut session =
                SimSession::new(cluster(), *spec, build(spec), config.clone());
            for job in &jobs {
                session.submit(*job).unwrap_or_else(|e| panic!("{spec} submit: {e}"));
            }
            session.drain().unwrap_or_else(|e| panic!("{spec} drain: {e}"));
            prop_assert_eq!(
                fingerprint(&batch), fingerprint(&session.outcome()),
                "{} session != batch", spec
            );
        }
    }

    /// Snapshot/restore is transparent: run burst 1, drain to
    /// quiescence, checkpoint through the textual snapshot form,
    /// restore into a brand-new session, run burst 2 — and get exactly
    /// the bytes of the session that never checkpointed. Node events
    /// queued during burst 1 and (for `dynmcb8-per`) the pending tick
    /// chain must survive the round trip.
    #[test]
    fn snapshot_restore_reproduces_uninterrupted_fingerprint(
        seed in 0u64..10_000,
        n1 in 3usize..15,
        n2 in 3usize..15,
        node in 0u32..8,
        down_at in 5.0f64..50.0,
        outage in 10.0f64..100.0,
        penalty in prop::sample::select(vec![0.0, 300.0]),
    ) {
        let burst1 = burst(seed, n1, 0, 0.0);
        // Base time far beyond any burst-1 completion (runtimes ≤ 600,
        // penalty ≤ 300, so even a fully serialized burst ends well
        // under 15 * 950 + 750 < 1e6).
        let burst2 = burst(seed.wrapping_add(1), n2, n1, 1_000_000.0);
        // Queued failure/repair events: installed at session creation,
        // carried across the checkpoint inside the snapshot's event
        // queue (restore must not re-install them).
        let config = SimConfig {
            penalty,
            node_events: vec![
                NodeEvent { time: down_at, node: NodeId(node), up: false },
                NodeEvent { time: down_at + outage, node: NodeId(node), up: true },
            ],
            ..SimConfig::default()
        };

        for spec in SPECS {
            let run_burst =
                |s: &mut SimSession, jobs: &[JobSpec]| -> Result<(), dfrs::sim::SimError> {
                    for job in jobs {
                        s.submit(*job)?;
                    }
                    s.drain()
                };

            // Uninterrupted reference session.
            let mut plain = SimSession::new(cluster(), *spec, build(spec), config.clone());
            run_burst(&mut plain, &burst1).unwrap_or_else(|e| panic!("{spec} burst1: {e}"));
            run_burst(&mut plain, &burst2).unwrap_or_else(|e| panic!("{spec} burst2: {e}"));

            // Checkpointed session: identical commands, but the state
            // crosses a text-serialized snapshot between the bursts.
            let mut front = SimSession::new(cluster(), *spec, build(spec), config.clone());
            run_burst(&mut front, &burst1).unwrap_or_else(|e| panic!("{spec} burst1: {e}"));
            prop_assert!(front.is_quiescent());
            // Records stream out before a checkpoint (they are not part
            // of the snapshot, by design) — carry them across by hand.
            let mut carried = front.take_records();
            let doc = front.snapshot().unwrap_or_else(|e| panic!("{spec} snapshot: {e}"));
            let text = doc.pretty();
            drop(front);

            let reparsed = json::parse(&text).expect("snapshot text parses");
            let mut resumed = SimSession::restore(&reparsed, build(spec))
                .unwrap_or_else(|e| panic!("{spec} restore: {e}"));
            run_burst(&mut resumed, &burst2).unwrap_or_else(|e| panic!("{spec} burst2: {e}"));

            let mut resumed_out = resumed.outcome();
            carried.extend(resumed_out.records);
            resumed_out.records = carried;
            prop_assert_eq!(
                fingerprint(&plain.outcome()), fingerprint(&resumed_out),
                "{} checkpointed run diverged from uninterrupted run", spec
            );
        }
    }

    /// Snapshot/restore under the sharded coordinator: the same
    /// checkpoint-between-bursts property, but with the cluster
    /// partitioned into 4 shards (2 nodes each) and bursts salted with
    /// wide jobs — jobs no shard can hold, which the coordinator places
    /// by borrowing nodes across shard boundaries. Both bursts carry
    /// wide jobs, so borrows happen on either side of the checkpoint
    /// and the restored coordinator must rebuild its routing state from
    /// the snapshot alone.
    #[test]
    fn sharded_snapshot_restore_reproduces_uninterrupted_fingerprint(
        seed in 0u64..10_000,
        n1 in 3usize..10,
        n2 in 3usize..10,
        wide_tasks in 4u32..=6,
        penalty in prop::sample::select(vec![0.0, 300.0]),
    ) {
        // A wide job: too many memory-heavy tasks for a 2-node shard
        // (2 tasks of 0.4 fit one node, so 4..=6 tasks need 2.. nodes
        // and at full shard occupancy force coordinator borrows).
        let wide = |id: usize, t: f64| {
            JobSpec::new(JobId(id as u32), t, wide_tasks, 0.5, 0.4, 200.0)
                .expect("valid wide job")
        };
        let mut burst1 = burst(seed, n1, 0, 0.0);
        burst1.push(wide(n1, burst1.last().map_or(5.0, |j| j.submit_time + 5.0)));
        let mut burst2 = burst(seed.wrapping_add(1), n2, n1 + 1, 1_000_000.0);
        burst2.push(wide(
            n1 + 1 + n2,
            burst2.last().map_or(1_000_005.0, |j| j.submit_time + 5.0),
        ));
        let config = SimConfig { penalty, ..SimConfig::default() };

        for inner in ["fcfs", "greedy-pmtn", "dynmcb8-per:t=300"] {
            let spec = format!("sharded:{inner}:shards=4");
            let run_burst =
                |s: &mut SimSession, jobs: &[JobSpec]| -> Result<(), dfrs::sim::SimError> {
                    for job in jobs {
                        s.submit(*job)?;
                    }
                    s.drain()
                };

            let mut plain = SimSession::new(cluster(), &spec, build(&spec), config.clone());
            run_burst(&mut plain, &burst1).unwrap_or_else(|e| panic!("{spec} burst1: {e}"));
            run_burst(&mut plain, &burst2).unwrap_or_else(|e| panic!("{spec} burst2: {e}"));

            let mut front = SimSession::new(cluster(), &spec, build(&spec), config.clone());
            run_burst(&mut front, &burst1).unwrap_or_else(|e| panic!("{spec} burst1: {e}"));
            prop_assert!(front.is_quiescent());
            let mut carried = front.take_records();
            let doc = front.snapshot().unwrap_or_else(|e| panic!("{spec} snapshot: {e}"));
            let text = doc.pretty();
            drop(front);

            let reparsed = json::parse(&text).expect("snapshot text parses");
            let mut resumed = SimSession::restore(&reparsed, build(&spec))
                .unwrap_or_else(|e| panic!("{spec} restore: {e}"));
            run_burst(&mut resumed, &burst2).unwrap_or_else(|e| panic!("{spec} burst2: {e}"));

            let mut resumed_out = resumed.outcome();
            carried.extend(resumed_out.records);
            resumed_out.records = carried;
            prop_assert_eq!(
                fingerprint(&plain.outcome()), fingerprint(&resumed_out),
                "{} checkpointed run diverged from uninterrupted run", spec
            );
        }
    }
}

/// One session command of the node-event property below.
#[derive(Debug, Clone, Copy)]
enum Command {
    Submit(JobSpec),
    Node(NodeEvent),
}

impl Command {
    /// Time order; a submit first at equal times, as the batch loop's
    /// arrival wins ties against queue events.
    fn key(&self) -> (f64, bool) {
        match self {
            Command::Submit(j) => (j.submit_time, false),
            Command::Node(e) => (e.time, true),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Node events given as session commands == the same events in a
    /// batch run's availability trace. The batch run delivers them as
    /// queue events; the session gets `node_event` commands merged with
    /// the submits in time order. A sentinel job submitted after the
    /// last node event keeps the batch run alive until its queue has
    /// delivered every one. `advance_to` is left out on purpose: it
    /// splits the node-second integrals at its stopping instant.
    #[test]
    fn session_node_events_match_batch_node_events(
        seed in 0u64..10_000,
        n in 5usize..30,
        outages in prop::collection::vec((0u32..8, 0.0f64..1.0, 1.0f64..200.0), 1..=4),
        penalty in prop::sample::select(vec![0.0, 300.0]),
        policy in prop::sample::select(vec![FailurePolicy::Restart, FailurePolicy::PausePreserve]),
    ) {
        let mut jobs = burst(seed, n, 0, 0.0);
        let horizon = jobs.last().map_or(0.0, |j| j.submit_time) + 100.0;
        let mut node_events = Vec::new();
        for &(node, at, outage) in &outages {
            let down = at * horizon;
            node_events.push(NodeEvent { time: down, node: NodeId(node), up: false });
            node_events.push(NodeEvent { time: down + outage, node: NodeId(node), up: true });
        }
        let last = node_events.iter().map(|e| e.time).fold(horizon, f64::max);
        let sentinel = JobSpec::new(JobId(n as u32), last + 1.0, 1, 0.25, 0.05, 10.0);
        jobs.push(sentinel.expect("valid job"));

        // The stable sort keeps node events at one instant in trace
        // order, as the batch queue's FIFO does.
        let mut commands: Vec<Command> = jobs
            .iter()
            .map(|j| Command::Submit(*j))
            .chain(node_events.iter().map(|e| Command::Node(*e)))
            .collect();
        commands.sort_by(|a, b| {
            let ((ta, na), (tb, nb)) = (a.key(), b.key());
            ta.total_cmp(&tb).then(na.cmp(&nb))
        });

        let config = SimConfig { penalty, failure_policy: policy, ..SimConfig::default() };
        for spec in SPECS {
            let batch_config = SimConfig { node_events: node_events.clone(), ..config.clone() };
            let batch = try_simulate(cluster(), &jobs, build(spec).as_mut(), &batch_config)
                .unwrap_or_else(|e| panic!("{spec} batch: {e}"));

            let mut session = SimSession::new(cluster(), *spec, build(spec), config.clone());
            for cmd in &commands {
                match *cmd {
                    Command::Submit(j) => session.submit(j).map(|_| ()),
                    Command::Node(e) => session.node_event(e.time, e.node, e.up),
                }
                .unwrap_or_else(|e| panic!("{spec} {cmd:?}: {e}"));
            }
            session.drain().unwrap_or_else(|e| panic!("{spec} drain: {e}"));
            prop_assert_eq!(
                fingerprint(&batch), fingerprint(&session.outcome()),
                "{} session node events != batch node events", spec
            );
        }
    }
}

/// The streaming engine's memory claim: a feed far longer than the live
/// set is pulled through with completed records discarded, and the
/// resident window stays near the live set instead of growing with the
/// trace. At ~0.6 CPU utilization on the synthetic 128 nodes the steady
/// state holds ~160 jobs; an engine that admitted ahead of the live set
/// (or kept finished jobs resident) would peak at all 4 000.
#[test]
fn streamed_resident_window_stays_bounded() {
    const JOBS: usize = 4_000;
    let mut rng = SmallRng::seed_from_u64(41);
    let mut t = 0.0;
    let feed = (0..JOBS).map(move |i| {
        t += rng.gen_range(2.0..6.0);
        let cpu = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
        let mem = 0.05 * rng.gen_range(1..7) as f64;
        let runtime = rng.gen_range(60.0..600.0);
        JobSpec::new(JobId(i as u32), t, 1, cpu, mem, runtime).expect("valid job")
    });
    let out = simulate_stream(
        ClusterSpec::synthetic(),
        &mut IterSource::new(feed),
        &mut DiscardRecords,
        build("greedy-pmtn").as_mut(),
        &SimConfig::default(),
    )
    .expect("streaming run completes");
    assert_eq!(out.jobs_completed as usize, JOBS);
    assert!(
        out.peak_resident_jobs <= 400,
        "resident window not bounded: peak {} of {JOBS} jobs",
        out.peak_resident_jobs
    );
}
