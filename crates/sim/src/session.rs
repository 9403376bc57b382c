//! Long-lived scheduling sessions with snapshot/restore.
//!
//! A [`SimSession`] is the engine turned inside out: instead of a
//! source that is drained to completion, *commands* arrive one at a
//! time — submit a job, fail or repair a node, advance the clock — and
//! the session pumps the event loop up to each command's instant before
//! applying it. This is the backend of the `dfrs-serve` daemon.
//!
//! ## Determinism contract
//!
//! A session runs the **same engine step** as [`crate::simulate_stream`]:
//! each iteration counts once against `events_processed`, advances the
//! clock to the earliest of the next derived completion / queue event /
//! command instant, and settles all due completions. Each command keeps
//! only its rule for what else fires at the instant:
//!
//! * [`SimSession::submit`]: the arrival wins ties against queue events,
//!   as in the batch loop;
//! * [`SimSession::node_event`]: queue events due at the instant fire
//!   first, then the transition;
//! * [`SimSession::advance_to`]: the command brings no event of its
//!   own. Steps run while the next instant is at most `t`, each
//!   dispatching one due queue event; then the clock is positioned at
//!   `t` without settling anything.
//!
//! A session fed the jobs of a trace via [`SimSession::submit`] and
//! finished with [`SimSession::drain`] therefore produces an outcome
//! **bit-identical** to [`crate::try_simulate`] over the same trace:
//! same aggregates, same float bits, same `events_processed`. The same
//! holds with node failures and repairs sent as `node_event` commands
//! instead of a batch availability trace.
//!
//! ## Snapshots
//!
//! [`SimSession::snapshot`] serializes the full engine state as a
//! `dfrs-snapshot-v1` JSON document, and [`SimSession::restore`] rebuilds
//! a session that continues **byte-identically**: the same command
//! sequence applied with or without a snapshot/restore cycle in between
//! yields the same bits. Snapshots are only defined at **quiescence**
//! (no jobs in the system) because then:
//!
//! * the job window is empty (every record has streamed out), so no
//!   per-job state needs serializing;
//! * every outstanding timer is necessarily stale (timers target live
//!   pending jobs), so the timer-version window is empty and entries
//!   can round-trip as opaque `(time, seq, kind, ver)` tuples;
//! * registry schedulers decide identically warm or cold, so the
//!   scheduler is *not* serialized — the restorer rebuilds it fresh
//!   from the registry spec recorded in the snapshot
//!   ([`snapshot_spec`] reads it back).
//!
//! Floats are stored as bit-exact `"0x…"` strings
//! ([`dfrs_core::json::bits`]);
//! wall-clock scheduler timings are zeroed on restore (they are
//! measurements of the host, not simulation state). Emitted records,
//! decision samples, and timeline entries are *outputs*, not state —
//! drain them before snapshotting or they stay behind.

use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::json::{bits, obj, Value};
use dfrs_core::{ClusterSpec, JobSpec};

use crate::engine::{EngineCore, FailurePolicy, MigrationMode, SimConfig};
use crate::error::SimError;
use crate::event::{EventKind, EventQueue};
use crate::outcome::{JobRecord, SimOutcome};
use crate::plan::{SchedEvent, Scheduler};
use crate::source::SliceSource;
use crate::state::{JobStatus, JobStore, SimState};
use crate::timeline::TimelineEntry;

/// Snapshot schema identifier (bump on any incompatible change).
pub const SNAPSHOT_SCHEMA: &str = "dfrs-snapshot-v1";

/// A long-lived simulation driven by commands instead of a materialized
/// trace. See the module docs for the determinism contract.
pub struct SimSession {
    core: EngineCore,
    config: SimConfig,
    scheduler: Box<dyn Scheduler>,
    /// The registry spec (or any opaque label) this session's scheduler
    /// was built from; recorded in snapshots so the restorer can rebuild
    /// the scheduler.
    spec: String,
    /// Records emitted since the last [`SimSession::take_records`].
    records: Vec<JobRecord>,
}

impl SimSession {
    /// Fresh session at `t = 0`. `spec` is the scheduler-registry spec
    /// (an opaque label to this crate) preserved in snapshots;
    /// `config.node_events` are installed into the queue up front, like
    /// a batch run's.
    pub fn new(
        cluster: ClusterSpec,
        spec: impl Into<String>,
        scheduler: Box<dyn Scheduler>,
        config: SimConfig,
    ) -> Self {
        let mut core = EngineCore::new(cluster);
        core.install_clock_events(&*scheduler, &config);
        SimSession {
            core,
            config,
            scheduler,
            spec: spec.into(),
            records: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.core.state.now
    }

    /// The scheduler spec this session was built from.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Jobs currently in the system (submitted, not completed).
    pub fn live_jobs(&self) -> usize {
        self.core.state.live.len()
    }

    /// Jobs admitted so far.
    pub fn admitted(&self) -> usize {
        self.core.state.jobs.len()
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> usize {
        self.core.completed
    }

    /// Engine iterations processed so far (deterministic).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// True when no job is in the system — the only instants at which
    /// [`SimSession::snapshot`] is defined.
    pub fn is_quiescent(&self) -> bool {
        self.core.state.live.is_empty()
    }

    /// Read-only view of the engine state (for inspection; schedulers
    /// get the same view during rounds).
    pub fn state(&self) -> &SimState {
        &self.core.state
    }

    /// Submit one job. Ids must be dense and in admission order; the
    /// submit time must be finite and `>= now()`. Pumps the loop up to
    /// the submission instant (completions and queue events due earlier
    /// fire first; at the exact instant the arrival wins ties, as in the
    /// batch loop), then admits the job and runs its scheduler round.
    ///
    /// # Errors
    /// [`SimError::NonDenseSubmission`] / [`SimError::SubmissionOutOfOrder`]
    /// / [`SimError::UnrepresentableCompletion`] on contract violations
    /// (the session state is untouched);
    /// [`SimError::EventCapExceeded`] from the runaway guard.
    pub fn submit(&mut self, job: JobSpec) -> Result<JobId, SimError> {
        self.core.check_submission(&job)?;
        loop {
            self.core.step(
                &mut *self.scheduler,
                &self.config,
                &mut self.records,
                job.submit_time,
                f64::INFINITY,
            )?;
            if job.submit_time <= self.core.state.now {
                return Ok(self.core.admit(job, &mut *self.scheduler, &self.config));
            }
            self.core
                .handle_due_queue_event(&mut *self.scheduler, &self.config);
        }
    }

    /// Take a node out of service (`up == false`) or return it
    /// (`up == true`) at `time`. Pumps the loop up to `time` — queue
    /// events already scheduled at exactly `time` fire first (they carry
    /// earlier sequence numbers) — then applies the transition with its
    /// scheduler round. A duplicate transition (down on a down node, up
    /// on an up node) is dropped silently, exactly like a duplicate in
    /// an availability trace.
    ///
    /// # Errors
    /// [`SimError::UnknownNode`] / [`SimError::CommandInPast`] on bad
    /// arguments (session untouched); [`SimError::EventCapExceeded`]
    /// from the runaway guard.
    pub fn node_event(&mut self, time: f64, node: NodeId, up: bool) -> Result<(), SimError> {
        let nodes = self.core.state.cluster.spec.nodes;
        if node.index() >= nodes as usize {
            return Err(SimError::UnknownNode { node, nodes });
        }
        if !time.is_finite() || time < self.core.state.now {
            return Err(SimError::CommandInPast {
                time,
                now: self.core.state.now,
            });
        }
        loop {
            self.core.step(
                &mut *self.scheduler,
                &self.config,
                &mut self.records,
                time,
                f64::INFINITY,
            )?;
            if self
                .core
                .handle_due_queue_event(&mut *self.scheduler, &self.config)
            {
                continue;
            }
            if self.core.state.now >= time {
                self.core
                    .node_transition(node, up, &mut *self.scheduler, &self.config);
                return Ok(());
            }
        }
    }

    /// Advance the clock to `t`, processing every completion and queue
    /// event due on the way (each costs one iteration, as always). The
    /// final positioning to `t` itself is free — it dispatches nothing.
    ///
    /// # Errors
    /// [`SimError::CommandInPast`] when `t` is non-finite or behind the
    /// clock; [`SimError::EventCapExceeded`] from the runaway guard.
    pub fn advance_to(&mut self, t: f64) -> Result<(), SimError> {
        if !t.is_finite() || t < self.core.state.now {
            return Err(SimError::CommandInPast {
                time: t,
                now: self.core.state.now,
            });
        }
        while self.core.step(
            &mut *self.scheduler,
            &self.config,
            &mut self.records,
            f64::INFINITY,
            t,
        )? {
            self.core
                .handle_due_queue_event(&mut *self.scheduler, &self.config);
        }
        // Positions the clock only: a job that comes due exactly at `t`
        // settles in the next command's first step.
        self.core.advance_to(t);
        Ok(())
    }

    /// Run the loop until every admitted job has completed — the tail of
    /// a batch run. Identical to the end of [`crate::simulate_stream`]
    /// with a dry source.
    ///
    /// # Errors
    /// [`SimError::Deadlock`] when jobs are stuck with no event that
    /// could ever free them; [`SimError::EventCapExceeded`] from the
    /// runaway guard.
    pub fn drain(&mut self) -> Result<(), SimError> {
        let mut dry = SliceSource::new(&[]);
        self.core.run_stream(
            &mut *self.scheduler,
            &mut dry,
            &mut self.records,
            &self.config,
        )
    }

    /// Cancel a job: remove it from the system at the current instant
    /// without finishing its work. A pending or paused job is first
    /// *withdrawn* from the scheduler ([`SchedEvent::Withdraw`]), so
    /// composite schedulers can drop their bookkeeping; a running job
    /// frees its tasks and the scheduler sees an ordinary
    /// [`SchedEvent::Complete`] round — from its point of view a cancel
    /// is indistinguishable from an early completion, so waiting jobs
    /// get the freed capacity immediately. The canceled job's record is
    /// emitted through the normal drain path (its completion time is
    /// the cancel instant; accrued progress counts as lost work).
    ///
    /// This is what the serve layer's quarantine uses to excise a job
    /// whose plan round failed, so the daemon can keep serving.
    ///
    /// # Errors
    /// [`SimError::UnknownJob`] when the id was never admitted (or its
    /// record was already drained); [`SimError::NotCancelable`] when the
    /// job has already completed. The session is untouched on error.
    pub fn cancel(&mut self, id: JobId) -> Result<(), SimError> {
        let status = match self.core.state.jobs.get(id.index()) {
            None => return Err(SimError::UnknownJob { job: id }),
            Some(j) => j.status,
        };
        if matches!(status, JobStatus::Pending | JobStatus::Paused) {
            self.core
                .round(&mut *self.scheduler, SchedEvent::Withdraw(id), &self.config);
        }
        // Re-read the status: the withdraw round may have moved the job
        // (legal, if pointless); `cancel_job` validates whatever holds
        // now and errors on already-completed jobs.
        let was_running = self.core.cancel_job(id, &self.config)?;
        if was_running {
            self.core
                .round(&mut *self.scheduler, SchedEvent::Complete(id), &self.config);
        }
        self.core.drain_completed(&mut self.records);
        Ok(())
    }

    /// Records emitted since the last call (in completion-prefix order,
    /// i.e. ascending job id).
    pub fn take_records(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.records)
    }

    /// Timeline entries recorded since the last call (empty unless
    /// [`SimConfig::record_timeline`] is set). Draining between commands
    /// keeps a long-lived session's memory flat.
    pub fn take_timeline(&mut self) -> Vec<TimelineEntry> {
        self.core.timeline.take_entries()
    }

    /// Finish the session and report the aggregate outcome (records
    /// taken earlier are not re-attached; the ones still buffered are).
    pub fn outcome(mut self) -> SimOutcome {
        let mut outcome = self.core.into_outcome(self.scheduler.name());
        outcome.repack = self.scheduler.repack_stats();
        outcome.records = std::mem::take(&mut self.records);
        outcome
    }

    /// Serialize the full engine state as a `dfrs-snapshot-v1` document.
    /// Only defined at quiescence (see the module docs for why).
    ///
    /// # Errors
    /// [`SimError::NotQuiescent`] when jobs are still in the system.
    pub fn snapshot(&self) -> Result<Value, SimError> {
        let live = self.core.state.live.len();
        if live != 0 {
            return Err(SimError::NotQuiescent { live });
        }
        debug_assert_eq!(
            self.core.state.jobs.resident(),
            0,
            "quiescent session with resident jobs (undrained records?)"
        );
        let c = &self.core;
        let spec = c.state.cluster.spec;
        let down: Vec<Value> = (0..spec.nodes)
            .filter(|&n| !c.state.cluster.is_up(NodeId(n)))
            .map(|n| Value::Num(n as f64))
            .collect();
        let (entries, seq, timer_base) = c.queue.snapshot_parts();
        let entries: Vec<Value> = entries
            .iter()
            .map(|&(time, eseq, kind, ver)| {
                let (tag, arg) = match kind {
                    EventKind::Timer(j) => ("timer", Value::Num(j.0 as f64)),
                    EventKind::Tick => ("tick", Value::Null),
                    EventKind::NodeDown(n) => ("down", Value::Num(n.0 as f64)),
                    EventKind::NodeUp(n) => ("up", Value::Num(n.0 as f64)),
                };
                Value::Arr(vec![
                    bits(time),
                    Value::Num(eseq as f64),
                    Value::Str(tag.into()),
                    arg,
                    Value::Num(ver as f64),
                ])
            })
            .collect();
        let migration = match self.config.migration_mode {
            MigrationMode::StopAndCopy => Value::Str("stop-and-copy".into()),
            MigrationMode::Live { freeze_secs } => {
                obj([("live_freeze_secs".into(), bits(freeze_secs))])
            }
        };
        let failure_policy = match self.config.failure_policy {
            FailurePolicy::Restart => "restart",
            FailurePolicy::PausePreserve => "pause-preserve",
        };
        Ok(obj([
            ("schema".into(), Value::Str(SNAPSHOT_SCHEMA.into())),
            ("spec".into(), Value::Str(self.spec.clone())),
            ("now".into(), bits(c.state.now)),
            (
                "cluster".into(),
                obj([
                    ("nodes".into(), Value::Num(spec.nodes as f64)),
                    (
                        "cores_per_node".into(),
                        Value::Num(spec.cores_per_node as f64),
                    ),
                    ("node_memory_gb".into(), bits(spec.node_memory_gb)),
                    ("down".into(), Value::Arr(down)),
                    ("epoch".into(), Value::Num(c.state.cluster.epoch() as f64)),
                ]),
            ),
            (
                // `node_events` are deliberately absent: they were
                // materialized into the queue at session start and
                // travel with it.
                "config".into(),
                obj([
                    ("penalty".into(), bits(self.config.penalty)),
                    ("migration".into(), migration),
                    ("failure_policy".into(), Value::Str(failure_policy.into())),
                    ("validate".into(), Value::Bool(self.config.validate)),
                    (
                        "record_decisions".into(),
                        Value::Bool(self.config.record_decisions),
                    ),
                    (
                        "record_timeline".into(),
                        Value::Bool(self.config.record_timeline),
                    ),
                    (
                        "max_events".into(),
                        Value::Num(self.config.max_events as f64),
                    ),
                ]),
            ),
            (
                "counts".into(),
                obj([
                    ("admitted".into(), Value::Num(c.state.jobs.len() as f64)),
                    ("completed".into(), Value::Num(c.completed as f64)),
                    (
                        "events_processed".into(),
                        Value::Num(c.events_processed as f64),
                    ),
                    ("sched_calls".into(), Value::Num(c.sched_calls as f64)),
                    ("pmtn_count".into(), Value::Num(c.pmtn_count as f64)),
                    ("migr_count".into(), Value::Num(c.migr_count as f64)),
                    ("restart_count".into(), Value::Num(c.restart_count as f64)),
                    ("peak_live".into(), Value::Num(c.peak_live as f64)),
                    ("peak_resident".into(), Value::Num(c.peak_resident as f64)),
                ]),
            ),
            (
                "floats".into(),
                obj([
                    ("pmtn_gb".into(), bits(c.pmtn_gb)),
                    ("migr_gb".into(), bits(c.migr_gb)),
                    ("lost_vt".into(), bits(c.lost_vt)),
                    ("idle_ns".into(), bits(c.idle_ns)),
                    ("busy_ns".into(), bits(c.busy_ns)),
                    ("down_ns".into(), bits(c.down_ns)),
                    ("makespan".into(), bits(c.makespan)),
                    ("stretch_max".into(), bits(c.stretch_max)),
                    ("stretch_sum".into(), bits(c.stretch_sum)),
                ]),
            ),
            ("state_epoch".into(), Value::Num(c.state.epoch as f64)),
            (
                "queue".into(),
                obj([
                    ("seq".into(), Value::Num(seq as f64)),
                    ("timer_base".into(), Value::Num(timer_base as f64)),
                    ("entries".into(), Value::Arr(entries)),
                ]),
            ),
        ]))
    }

    /// Rebuild a session from a [`SimSession::snapshot`] document and a
    /// freshly built scheduler (use [`snapshot_spec`] to read the spec
    /// and build it from the registry **before** calling this). The
    /// restored session continues byte-identically; wall-clock scheduler
    /// timings restart at zero.
    ///
    /// # Errors
    /// [`SimError::SnapshotMalformed`] when the document is not a
    /// well-formed `dfrs-snapshot-v1` snapshot, including a non-finite
    /// `now` or a queue entry that is non-finite or earlier than `now`.
    pub fn restore(v: &Value, scheduler: Box<dyn Scheduler>) -> Result<Self, SimError> {
        Self::restore_impl(v, scheduler).map_err(|detail| SimError::SnapshotMalformed { detail })
    }

    fn restore_impl(v: &Value, scheduler: Box<dyn Scheduler>) -> Result<Self, String> {
        let schema = str_field(v, "schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "snapshot: schema {schema:?} is not {SNAPSHOT_SCHEMA:?}"
            ));
        }
        let spec = str_field(v, "spec")?.to_string();
        let now = bits_field(v, "now")?;
        if !now.is_finite() {
            return Err(format!("snapshot: now {now} is not finite"));
        }

        let cl = field(v, "cluster")?;
        let cluster_spec = ClusterSpec::new(
            num_field(cl, "nodes")? as u32,
            num_field(cl, "cores_per_node")? as u32,
            bits_field(cl, "node_memory_gb")?,
        )
        .map_err(|e| format!("snapshot: bad cluster: {e}"))?;
        let down: Vec<NodeId> = arr_field(cl, "down")?
            .iter()
            .map(|x| as_num(x, "cluster.down[]").map(|n| NodeId(n as u32)))
            .collect::<Result<_, _>>()?;
        if let Some(bad) = down
            .iter()
            .find(|n| n.index() >= cluster_spec.nodes as usize)
        {
            return Err(format!("snapshot: down node {bad} outside the cluster"));
        }
        let cluster_epoch = num_field(cl, "epoch")? as u64;

        let cf = field(v, "config")?;
        let migration_mode = match cf.get("migration") {
            Some(Value::Str(s)) if s == "stop-and-copy" => MigrationMode::StopAndCopy,
            Some(m @ Value::Obj(_)) => MigrationMode::Live {
                freeze_secs: secs_field(m, "live_freeze_secs")?,
            },
            _ => return Err("snapshot: bad config.migration".into()),
        };
        let failure_policy = match str_field(cf, "failure_policy")? {
            "restart" => FailurePolicy::Restart,
            "pause-preserve" => FailurePolicy::PausePreserve,
            other => return Err(format!("snapshot: bad failure_policy {other:?}")),
        };
        let config = SimConfig {
            penalty: secs_field(cf, "penalty")?,
            migration_mode,
            failure_policy,
            // Already materialized in the queue; re-installing would
            // double-fire them.
            node_events: Vec::new(),
            validate: bool_field(cf, "validate")?,
            record_decisions: bool_field(cf, "record_decisions")?,
            record_timeline: bool_field(cf, "record_timeline")?,
            max_events: num_field(cf, "max_events")? as u64,
        };

        let cn = field(v, "counts")?;
        let admitted = num_field(cn, "admitted")? as usize;
        let completed = num_field(cn, "completed")? as usize;
        if completed != admitted {
            return Err(format!(
                "snapshot: not quiescent ({admitted} admitted, {completed} completed)"
            ));
        }

        let q = field(v, "queue")?;
        let mut entries: Vec<(f64, u64, EventKind, u32)> = Vec::new();
        for e in arr_field(q, "entries")? {
            let row = e
                .as_arr()
                .filter(|r| r.len() == 5)
                .ok_or("snapshot: queue entry is not a 5-tuple")?;
            let time = row[0]
                .as_bits_f64()
                .ok_or("snapshot: bad queue entry time")?;
            // An entry before the clock would fire in the past; a
            // non-finite one has no instant to fire at.
            if !time.is_finite() || time < now {
                return Err(format!(
                    "snapshot: queue entry at {time} is not finite or before now {now}"
                ));
            }
            let eseq = as_num(&row[1], "queue entry seq")? as u64;
            let tag = row[2].as_str().ok_or("snapshot: bad queue entry kind")?;
            let arg = |what: &str| as_num(&row[3], what).map(|n| n as u32);
            let node = |what: &str| match arg(what)? {
                n if n < cluster_spec.nodes => Ok(NodeId(n)),
                n => Err(format!("snapshot: {what} {n} outside the cluster")),
            };
            let kind = match tag {
                "timer" => EventKind::Timer(JobId(arg("timer job")?)),
                "tick" => EventKind::Tick,
                "down" => EventKind::NodeDown(node("down node")?),
                "up" => EventKind::NodeUp(node("up node")?),
                other => return Err(format!("snapshot: unknown event kind {other:?}")),
            };
            let ver = as_num(&row[4], "queue entry ver")? as u32;
            entries.push((time, eseq, kind, ver));
        }
        let queue = EventQueue::restore_parts(
            &entries,
            num_field(q, "seq")? as u64,
            num_field(q, "timer_base")? as usize,
        );

        let fl = field(v, "floats")?;
        let mut core = EngineCore::new(cluster_spec);
        core.state = SimState {
            now,
            cluster: crate::state::ClusterState::restore(cluster_spec, &down, cluster_epoch),
            jobs: JobStore::with_base(admitted),
            live: Vec::new(),
            running: Vec::new(),
            epoch: num_field(v, "state_epoch")? as u64,
        };
        core.queue = queue;
        core.completed = completed;
        core.pmtn_count = num_field(cn, "pmtn_count")? as u64;
        core.migr_count = num_field(cn, "migr_count")? as u64;
        core.restart_count = num_field(cn, "restart_count")? as u64;
        core.peak_live = num_field(cn, "peak_live")? as usize;
        core.peak_resident = num_field(cn, "peak_resident")? as usize;
        core.events_processed = num_field(cn, "events_processed")? as u64;
        core.sched_calls = num_field(cn, "sched_calls")? as u64;
        core.pmtn_gb = bits_field(fl, "pmtn_gb")?;
        core.migr_gb = bits_field(fl, "migr_gb")?;
        core.lost_vt = bits_field(fl, "lost_vt")?;
        core.idle_ns = bits_field(fl, "idle_ns")?;
        core.busy_ns = bits_field(fl, "busy_ns")?;
        core.down_ns = bits_field(fl, "down_ns")?;
        core.makespan = bits_field(fl, "makespan")?;
        core.stretch_max = bits_field(fl, "stretch_max")?;
        core.stretch_sum = bits_field(fl, "stretch_sum")?;
        // Wall-clock timings (sched_wall, sched_max) stay zero: they
        // measure the host, not the simulation.

        Ok(SimSession {
            core,
            config,
            scheduler,
            spec,
            records: Vec::new(),
        })
    }
}

/// The scheduler-registry spec recorded in a snapshot document, so a
/// daemon can rebuild the scheduler *before* calling
/// [`SimSession::restore`].
pub fn snapshot_spec(v: &Value) -> Option<&str> {
    v.get("spec")?.as_str()
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("snapshot: missing field {key:?}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("snapshot: field {key:?} is not a string"))
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("snapshot: field {key:?} is not a number"))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("snapshot: field {key:?} is not a bool")),
    }
}

fn bits_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_bits_f64()
        .ok_or_else(|| format!("snapshot: field {key:?} is not a bit string"))
}

/// A duration in seconds: a bit-string float, finite and ≥ 0.
fn secs_field(v: &Value, key: &str) -> Result<f64, String> {
    let secs = bits_field(v, key)?;
    (secs.is_finite() && secs >= 0.0)
        .then_some(secs)
        .ok_or_else(|| format!("snapshot: {key} {secs} is not finite and >= 0"))
}

fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("snapshot: field {key:?} is not an array"))
}

fn as_num(v: &Value, what: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("snapshot: {what} is not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use crate::simulate;

    /// Start every pending job on node `id % nodes` at full yield as
    /// soon as it arrives or a slot frees up (single-task test jobs).
    struct RoundRobin;
    impl Scheduler for RoundRobin {
        fn name(&self) -> String {
            "round-robin".into()
        }
        fn on_event(&mut self, _ev: SchedEvent, state: &SimState) -> Plan {
            let mut plan = Plan::noop();
            let n = state.cluster.spec.nodes;
            for j in state.jobs_in_system() {
                if j.status == crate::state::JobStatus::Pending {
                    let node = NodeId(j.spec.id.0 % n);
                    if state.cluster.is_up(node) {
                        plan = plan.run(j.spec.id, vec![node; j.spec.tasks as usize], 1.0);
                    }
                }
            }
            plan
        }
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(4, 4, 8.0).unwrap()
    }

    /// Round-trip a snapshot through its canonical text form (what a
    /// daemon writing to disk does).
    fn reparse(v: &Value) -> Result<Value, dfrs_core::json::ParseError> {
        dfrs_core::json::parse(&v.pretty())
    }

    fn job(id: u32, t: f64, runtime: f64) -> JobSpec {
        JobSpec::new(JobId(id), t, 1, 0.5, 0.2, runtime).unwrap()
    }

    /// The deterministic bits of an outcome (wall-clock timings and
    /// observational extras excluded).
    fn fingerprint(o: &SimOutcome) -> Vec<u64> {
        vec![
            o.max_stretch.to_bits(),
            o.mean_stretch.to_bits(),
            o.makespan.to_bits(),
            o.preemption_gb.to_bits(),
            o.migration_gb.to_bits(),
            o.idle_node_seconds.to_bits(),
            o.busy_node_seconds.to_bits(),
            o.down_node_seconds.to_bits(),
            o.lost_virtual_seconds.to_bits(),
            o.preemption_count,
            o.migration_count,
            o.restart_count,
            o.sched_calls,
            o.events_processed,
            o.jobs_completed,
        ]
    }

    #[test]
    fn session_matches_batch_run_bit_for_bit() {
        let jobs = vec![job(0, 0.0, 100.0), job(1, 30.0, 200.0), job(2, 500.0, 50.0)];
        let batch = simulate(cluster(), &jobs, &mut RoundRobin, &SimConfig::default());

        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        for j in &jobs {
            s.submit(*j).unwrap();
        }
        s.drain().unwrap();
        let session = s.outcome();
        assert_eq!(fingerprint(&session), fingerprint(&batch));
        assert_eq!(session.records, batch.records);
    }

    #[test]
    fn snapshot_restore_is_transparent() {
        // Quiescent gap: j0 finishes at 100, j1 arrives at 500.
        let mut a = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        let mut b = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        for s in [&mut a, &mut b] {
            s.submit(job(0, 0.0, 100.0)).unwrap();
            s.advance_to(300.0).unwrap();
            assert!(s.is_quiescent());
            s.take_records();
        }
        // b goes through a text-form snapshot/restore cycle; a doesn't.
        let snap = b.snapshot().unwrap();
        assert_eq!(snapshot_spec(&snap), Some("round-robin"));
        let reparsed = reparse(&snap).unwrap();
        assert_eq!(reparsed, snap, "snapshot text form is stable");
        let mut b = SimSession::restore(&reparsed, Box::new(RoundRobin)).unwrap();
        assert_eq!(b.now(), 300.0);
        assert_eq!(b.spec(), "round-robin");

        for s in [&mut a, &mut b] {
            s.submit(job(1, 500.0, 50.0)).unwrap();
            s.submit(job(2, 510.0, 50.0)).unwrap();
            s.drain().unwrap();
        }
        let (oa, ob) = (a.outcome(), b.outcome());
        assert_eq!(fingerprint(&oa), fingerprint(&ob));
    }

    #[test]
    fn snapshot_size_does_not_grow_with_the_cluster() {
        // An idle session on `huge-sharded`'s 102 400 nodes: the document
        // holds the down nodes and the queue rows, not one entry per node.
        const BOUND: usize = 4096;
        let s = SimSession::new(
            ClusterSpec::new(102_400, 4, 8.0).unwrap(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        let len = s.snapshot().unwrap().compact().len();
        assert!(len < BOUND, "snapshot is {len} bytes, bound {BOUND}");
    }

    #[test]
    fn snapshot_requires_quiescence() {
        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        s.submit(job(0, 0.0, 100.0)).unwrap();
        assert!(!s.is_quiescent());
        assert_eq!(s.snapshot(), Err(SimError::NotQuiescent { live: 1 }));
        s.drain().unwrap();
        assert!(s.is_quiescent());
        assert!(s.snapshot().is_ok());
    }

    #[test]
    fn command_validation() {
        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        // Non-dense id.
        assert!(matches!(
            s.submit(job(3, 0.0, 10.0)),
            Err(SimError::NonDenseSubmission { .. })
        ));
        s.submit(job(0, 50.0, 10.0)).unwrap();
        // Time behind the clock.
        assert!(matches!(
            s.submit(job(1, 10.0, 10.0)),
            Err(SimError::SubmissionOutOfOrder { .. })
        ));
        // Unknown node and past command time.
        assert!(matches!(
            s.node_event(60.0, NodeId(99), false),
            Err(SimError::UnknownNode { .. })
        ));
        assert!(matches!(
            s.node_event(1.0, NodeId(0), false),
            Err(SimError::CommandInPast { .. })
        ));
        assert!(matches!(
            s.advance_to(1.0),
            Err(SimError::CommandInPast { .. })
        ));
        // A failed submit leaves the session usable.
        s.submit(job(1, 60.0, 10.0)).unwrap();
        s.drain().unwrap();
        assert_eq!(s.completed(), 2);
    }

    #[test]
    fn node_events_apply_with_duplicate_drop() {
        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        s.submit(job(0, 0.0, 100.0)).unwrap();
        // j0 runs on node 0; failing it restarts the job (Restart
        // policy) and the round-robin scheduler cannot replace it while
        // the node is down.
        s.node_event(40.0, NodeId(0), false).unwrap();
        assert_eq!(s.state().cluster.down_nodes(), 1);
        // Duplicate down: silently dropped.
        s.node_event(41.0, NodeId(0), false).unwrap();
        assert_eq!(s.state().cluster.down_nodes(), 1);
        s.node_event(50.0, NodeId(0), true).unwrap();
        assert_eq!(s.state().cluster.down_nodes(), 0);
        s.drain().unwrap();
        let o = s.outcome();
        assert_eq!(o.restart_count, 1);
        // Restarted at the repair round: full runtime from t=50.
        assert_eq!(o.makespan, 150.0);
    }

    #[test]
    fn cancel_running_job_frees_resources() {
        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        s.submit(job(0, 0.0, 100.0)).unwrap();
        s.advance_to(10.0).unwrap();
        s.cancel(JobId(0)).unwrap();
        // The job is gone, its resources are free, and the session is
        // quiescent without a drain.
        assert!(s.is_quiescent());
        assert_eq!(s.state().cluster.total_cpu_alloc(), 0.0);
        let recs = s.take_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].completion, 10.0);
        // Accrued progress counts as lost work.
        assert_eq!(s.outcome().lost_virtual_seconds, 10.0);
    }

    #[test]
    fn cancel_pending_job_unwedges_drain() {
        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        // j0 targets node 0 (id % nodes), which is down: it waits
        // forever, and a drain would deadlock.
        s.node_event(0.0, NodeId(0), false).unwrap();
        s.submit(job(0, 5.0, 100.0)).unwrap();
        assert!(matches!(s.drain(), Err(SimError::Deadlock { .. })));
        s.cancel(JobId(0)).unwrap();
        s.drain().unwrap();
        let recs = s.take_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].first_start, None);
        assert_eq!(recs[0].completion, 5.0);
    }

    #[test]
    fn cancel_validation() {
        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        assert_eq!(
            s.cancel(JobId(0)),
            Err(SimError::UnknownJob { job: JobId(0) })
        );
        s.submit(job(0, 0.0, 10.0)).unwrap();
        s.drain().unwrap();
        // Completed and drained: the record window has moved past it.
        assert_eq!(
            s.cancel(JobId(0)),
            Err(SimError::UnknownJob { job: JobId(0) })
        );
    }

    #[test]
    fn restore_rejects_malformed_documents() {
        let err = SimSession::restore(&Value::Null, Box::new(RoundRobin))
            .err()
            .unwrap();
        assert!(matches!(err, SimError::SnapshotMalformed { .. }), "{err}");
        assert!(err.to_string().contains("missing field"));
        let bogus = obj([("schema".into(), Value::Str("nope".into()))]);
        assert!(SimSession::restore(&bogus, Box::new(RoundRobin))
            .err()
            .unwrap()
            .to_string()
            .contains("schema"));

        // Documents that would panic or travel back in time: queue rows
        // a pop cannot dispatch (a submission — arrivals never live in
        // the queue — and a node outside the 4-node cluster), a clock
        // that is not finite, and rows that are not finite or lie before
        // the clock. A row at exactly `now` is legal.
        let mut s = SimSession::new(
            cluster(),
            "round-robin",
            Box::new(RoundRobin),
            SimConfig::default(),
        );
        s.submit(job(0, 0.0, 10.0)).unwrap();
        s.drain().unwrap();
        assert_eq!(s.now(), 10.0);
        let snap = s.snapshot().unwrap();
        assert!(SimSession::restore(&snap, Box::new(RoundRobin)).is_ok());

        // Documents written before the per-node epochs were dropped carry
        // `cluster.node_epoch`, one number per node. The reader looks
        // fields up by name, so such a document restores and runs on to
        // the same bits as the clean one.
        let mut legacy = snap.clone();
        let Value::Obj(top) = &mut legacy else {
            panic!("snapshot is an object")
        };
        let Some(Value::Obj(cl)) = top.get_mut("cluster") else {
            panic!("snapshot has a cluster object")
        };
        let per_node = [0.0, 0.0, 0.0, 2.0].map(Value::Num).to_vec();
        cl.insert("node_epoch".into(), Value::Arr(per_node));
        let run_on = |doc: &Value| {
            let mut r = SimSession::restore(doc, Box::new(RoundRobin)).unwrap();
            r.submit(job(1, 20.0, 30.0)).unwrap();
            r.submit(job(2, 25.0, 10.0)).unwrap();
            r.drain().unwrap();
            fingerprint(&r.outcome())
        };
        assert_eq!(run_on(&legacy), run_on(&snap));

        let with = |now: f64, row: Option<(f64, &str, f64)>| {
            let mut doc = snap.clone();
            let Value::Obj(top) = &mut doc else {
                panic!("snapshot is an object")
            };
            top.insert("now".into(), bits(now));
            let Some(Value::Obj(queue)) = top.get_mut("queue") else {
                panic!("snapshot has a queue object")
            };
            let Some(Value::Arr(entries)) = queue.get_mut("entries") else {
                panic!("queue has an entries array")
            };
            if let Some((time, tag, arg)) = row {
                entries.push(Value::Arr(vec![
                    bits(time),
                    Value::Num(99.0),
                    Value::Str(tag.into()),
                    Value::Num(arg),
                    Value::Num(0.0),
                ]));
            }
            SimSession::restore(&doc, Box::new(RoundRobin)).err()
        };
        assert_eq!(with(10.0, Some((10.0, "tick", 0.0))), None);
        for (now, row) in [
            (10.0, Some((50.0, "submit", 7.0))),
            (10.0, Some((50.0, "down", 999.0))),
            (10.0, Some((50.0, "up", 4.0))),
            (f64::INFINITY, None),
            (10.0, Some((f64::NAN, "tick", 0.0))),
            (10.0, Some((5.0, "tick", 0.0))),
        ] {
            let err = with(now, row);
            assert!(
                matches!(err, Some(SimError::SnapshotMalformed { .. })),
                "now {now}, row {row:?} restored: {err:?}"
            );
        }

        // A penalty or live-migration freeze that is not a finite,
        // non-negative number of seconds. Zero is legal for both.
        let with_config = |name: &str, secs: f64| {
            let mut doc = snap.clone();
            let Value::Obj(top) = &mut doc else {
                panic!("snapshot is an object")
            };
            let Some(Value::Obj(config)) = top.get_mut("config") else {
                panic!("snapshot has a config object")
            };
            match name {
                "penalty" => config.insert("penalty".into(), bits(secs)),
                _ => config.insert(
                    "migration".into(),
                    obj([("live_freeze_secs".into(), bits(secs))]),
                ),
            };
            SimSession::restore(&doc, Box::new(RoundRobin)).err()
        };
        for name in ["penalty", "live_freeze_secs"] {
            assert_eq!(with_config(name, 0.0), None, "{name} 0");
            for secs in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -300.0] {
                let err = with_config(name, secs);
                assert!(
                    matches!(err, Some(SimError::SnapshotMalformed { .. })),
                    "{name} {secs} restored: {err:?}"
                );
            }
        }
    }
}
