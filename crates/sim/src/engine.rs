//! The discrete-event simulation engine.
//!
//! Between scheduler decisions all yields are constant, so the engine
//! never time-steps: it alternates between (a) advancing the clock to the
//! earlier of the next external event and the next derived completion,
//! integrating virtual time and the idle/busy node integrals, and (b)
//! letting the scheduler react and applying its plan.
//!
//! ## Streaming loop
//!
//! Submissions arrive from a pull-based [`SubmissionSource`] with
//! one-job lookahead — the engine holds at most one not-yet-due
//! submission in memory — and completed-job records leave through a
//! [`RecordSink`] as soon as every lower id has also completed, at which
//! point the job's state is evicted from the windowed
//! [`crate::state::JobStore`]. Live-set memory is therefore bounded by
//! the number of jobs in the system (plus the completed-prefix lag), not
//! by trace length. The materialized entry point ([`simulate`]) is the
//! trivial adapter: a slice source feeding a `Vec` sink, byte-identical
//! to the historical all-in-memory loop (the golden suites pin this).
//! Within an instant, arrivals are handled before queue events — they
//! carried the lowest sequence numbers when submissions lived in the
//! materialized queue — and completions before either.
//!
//! The iteration itself is written once, as `EngineCore::step`: pick the
//! next instant, count it, advance the clock, settle the completions due
//! there. The streaming loop and every [`crate::SimSession`] command run
//! through it and keep only their own rule for what else fires at the
//! instant.
//!
//! Hot-path internals (indexed state, per-job placement slots, versioned
//! timers, why completions stay derived) are documented in DESIGN.md
//! "Engine".
//!
//! ## Rescheduling-penalty semantics (Section IV-A, made precise)
//!
//! The paper charges "5 minutes of wall clock time" per preemption or
//! migration, with all migrations through a pause/resume mechanism, and
//! keeps schedulers unaware of the penalty. Concretely here:
//!
//! * pausing stops progress immediately (no penalty on the way out);
//! * resuming a paused job, or moving a running job, occupies the target
//!   nodes immediately but freezes the job's virtual time for the next
//!   `penalty` seconds (`penalty_until`);
//! * first-time starts are free — there is no VM state to move yet;
//! * bandwidth accounting (Table II): a pause writes `tasks × mem × node
//!   GB` to storage and the matching resume reads it back (both booked as
//!   preemption traffic); a migration of `k` tasks moves `2k × mem ×
//!   node GB` (save + restore), booked as migration traffic. Occurrences
//!   are counted **per job**, not per task.

use std::time::Instant;

use dfrs_core::approx;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::{ClusterSpec, JobSpec};

use crate::error::SimError;
use crate::event::{EventKind, EventQueue};
use crate::outcome::{make_record, DecisionSample, SimOutcome};
use crate::plan::{Plan, SchedEvent, Scheduler};
use crate::source::{RecordSink, SliceSource, SubmissionSource};
use crate::state::{Applied, JobStatus, RunAction, RunKind, SimState};
use crate::validate;

/// Virtual-time slack below which a job counts as finished (absorbs the
/// rounding of `remaining / yield` completion arithmetic).
const COMPLETION_TOLERANCE: f64 = 1e-6;

/// How migrations of running jobs are carried out.
///
/// The paper pessimistically assumes **stop-and-copy** through network
/// storage (footnote 1) while noting that live migration exists; the
/// live mode is provided as an extension for what-if studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationMode {
    /// Save to storage, restore on the target: the full rescheduling
    /// penalty applies and each moved task crosses storage twice.
    StopAndCopy,
    /// Direct node-to-node transfer: each moved task's memory crosses
    /// the network once, and progress freezes only for `freeze_secs`
    /// (the brownout of the final copy round), independent of the
    /// configured pause/resume penalty.
    Live {
        /// Progress freeze per migration (seconds).
        freeze_secs: f64,
    },
}

/// What happens to a running job when a node hosting one of its tasks
/// fails.
///
/// Failures strike whole jobs: a parallel job that loses one task loses
/// its synchronized state, so every task leaves the cluster (the
/// healthy-node ones included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Paper-pessimistic default: the struck job loses all accrued
    /// virtual time and is resubmitted (`Pending`, progress zero). The
    /// lost progress is metered in
    /// [`SimOutcome::lost_virtual_seconds`].
    #[default]
    Restart,
    /// Optimistic alternative: the job is paused and preserved, reusing
    /// the pause bookkeeping (occurrence + storage traffic) — the
    /// semantics of continuous checkpointing to network storage. A
    /// later resume pays the usual rescheduling penalty.
    PausePreserve,
}

/// One platform availability event: `node` leaves (`up == false`) or
/// rejoins (`up == true`) service at `time`. Produced by the scenario
/// layer's failure models and consumed by the engine as an external
/// queue event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEvent {
    /// Absolute simulation time (seconds).
    pub time: f64,
    /// The node affected.
    pub node: NodeId,
    /// `true` for a repair, `false` for a failure.
    pub up: bool,
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Wall-clock seconds of frozen progress per resume/migration
    /// (0.0 or [`dfrs_core::constants::RESCHEDULING_PENALTY_SECS`]).
    pub penalty: f64,
    /// Mechanism used for migrations of running jobs.
    pub migration_mode: MigrationMode,
    /// What a node failure does to the jobs it strikes.
    pub failure_policy: FailurePolicy,
    /// Platform availability trace: node failures and repairs delivered
    /// as external events (empty = the static cluster of the paper).
    /// Duplicate transitions (down on a down node, up on an up node)
    /// are dropped without a scheduler round.
    pub node_events: Vec<NodeEvent>,
    /// Run full plan + invariant validation around every plan (tests;
    /// O(jobs) per event).
    pub validate: bool,
    /// Record one [`DecisionSample`] per scheduler invocation.
    pub record_decisions: bool,
    /// Record the full allocation [`crate::timeline::Timeline`].
    /// Off by default — streaming runs must not accumulate unbounded
    /// per-decision state (the serve daemon drains the log between
    /// commands instead).
    pub record_timeline: bool,
    /// Hard cap on processed events (runaway-scheduler guard); trips as
    /// [`SimError::EventCapExceeded`].
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            penalty: 0.0,
            migration_mode: MigrationMode::StopAndCopy,
            failure_policy: FailurePolicy::Restart,
            node_events: Vec::new(),
            validate: false,
            record_decisions: false,
            record_timeline: false,
            max_events: 50_000_000,
        }
    }
}

/// The engine proper, shared between the one-shot drivers
/// ([`simulate_stream`]) and the long-lived [`crate::SimSession`]. Holds
/// no reference to the config or the scheduler — both are passed into
/// each method so a session can own all three side by side.
pub(crate) struct EngineCore {
    pub(crate) state: SimState,
    pub(crate) queue: EventQueue,
    pub(crate) completed: usize,
    // Accounting.
    pub(crate) pmtn_count: u64,
    pub(crate) migr_count: u64,
    pub(crate) pmtn_gb: f64,
    pub(crate) migr_gb: f64,
    pub(crate) restart_count: u64,
    pub(crate) lost_vt: f64,
    pub(crate) idle_ns: f64,
    pub(crate) busy_ns: f64,
    pub(crate) down_ns: f64,
    pub(crate) sched_wall: f64,
    pub(crate) sched_max: f64,
    pub(crate) sched_calls: u64,
    pub(crate) events_processed: u64,
    // Online record aggregates, folded in emission (= id) order with the
    // same operations the materialized path used over its records vector,
    // so streamed aggregates are bit-identical.
    pub(crate) makespan: f64,
    pub(crate) stretch_max: f64,
    pub(crate) stretch_sum: f64,
    // High-water marks of the bounded live set (memory-flatness proof
    // for endless feeds).
    pub(crate) peak_live: usize,
    pub(crate) peak_resident: usize,
    pub(crate) decisions: Vec<DecisionSample>,
    pub(crate) timeline: crate::timeline::Timeline,
    /// Reused per-plan scratch (never observable in results).
    applied: Applied,
    /// Running-index entries handed to the per-event scans (the visit
    /// guard in `tests`).
    #[cfg(test)]
    running_visits: std::cell::Cell<usize>,
}

/// Run `scheduler` over `jobs` (sorted by submit time, dense ids) on
/// `cluster`. Panics on scheduler protocol violations (invalid plans),
/// on deadlock (jobs in the system with no way to ever progress), and on
/// the event cap — all bugs, not data conditions. Fallible callers use
/// [`try_simulate`] or [`simulate_stream`].
pub fn simulate(
    cluster: ClusterSpec,
    jobs: &[JobSpec],
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> SimOutcome {
    try_simulate(cluster, jobs, scheduler, config).unwrap_or_else(|e| panic!("{e}"))
}

/// [`simulate`], but engine-level failures (deadlock, event cap, bad
/// submission order) come back as [`SimError`] values.
///
/// # Errors
/// Returns [`SimError`] when the run cannot make progress or the
/// workload violates the submission contract.
pub fn try_simulate(
    cluster: ClusterSpec,
    jobs: &[JobSpec],
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> Result<SimOutcome, SimError> {
    let mut source = SliceSource::new(jobs);
    let mut records = Vec::with_capacity(jobs.len());
    let mut outcome = simulate_stream(cluster, &mut source, &mut records, scheduler, config)?;
    outcome.records = records;
    Ok(outcome)
}

/// Run `scheduler` against a pull-based submission feed, streaming
/// completed-job records into `sink`. Memory stays bounded by the live
/// set: the trace is never materialized and
/// [`SimOutcome::records`] comes back empty (aggregates are folded
/// online and are bit-identical to the materialized path's).
///
/// # Errors
/// Returns [`SimError`] when the run cannot make progress or the source
/// violates the submission contract (dense ids, non-decreasing times).
pub fn simulate_stream(
    cluster: ClusterSpec,
    source: &mut dyn SubmissionSource,
    sink: &mut dyn RecordSink,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> Result<SimOutcome, SimError> {
    let mut core = EngineCore::new(cluster);
    core.install_clock_events(&*scheduler, config);
    core.run_stream(scheduler, source, sink, config)?;
    let mut outcome = core.into_outcome(scheduler.name());
    outcome.repack = scheduler.repack_stats();
    Ok(outcome)
}

impl EngineCore {
    pub(crate) fn new(cluster: ClusterSpec) -> Self {
        EngineCore {
            state: SimState::empty(cluster),
            queue: EventQueue::new(),
            completed: 0,
            pmtn_count: 0,
            migr_count: 0,
            pmtn_gb: 0.0,
            migr_gb: 0.0,
            restart_count: 0,
            lost_vt: 0.0,
            idle_ns: 0.0,
            busy_ns: 0.0,
            down_ns: 0.0,
            sched_wall: 0.0,
            sched_max: 0.0,
            sched_calls: 0,
            events_processed: 0,
            makespan: 0.0,
            stretch_max: 0.0,
            stretch_sum: 0.0,
            peak_live: 0,
            peak_resident: 0,
            decisions: Vec::new(),
            timeline: crate::timeline::Timeline::default(),
            applied: Applied::default(),
            #[cfg(test)]
            running_visits: Default::default(),
        }
    }

    /// Seed the queue with the scheduler's first tick and the scenario's
    /// availability trace. Called exactly once, before any event runs
    /// (a restored session must *not* call this — its queue already
    /// carries these, materialized, from the snapshot).
    pub(crate) fn install_clock_events(&mut self, scheduler: &dyn Scheduler, config: &SimConfig) {
        if let Some(period) = scheduler.period() {
            assert!(period > 0.0, "scheduler period must be positive");
            self.queue.push(period, EventKind::Tick);
        }
        for ev in &config.node_events {
            assert!(
                ev.node.index() < self.state.cluster.spec.nodes as usize,
                "node event references nonexistent {} (cluster has {} nodes)",
                ev.node,
                self.state.cluster.spec.nodes
            );
            let kind = if ev.up {
                EventKind::NodeUp(ev.node)
            } else {
                EventKind::NodeDown(ev.node)
            };
            self.queue.push(ev.time, kind);
        }
    }

    /// The full streaming loop: pull, step, then admit the arrival or
    /// dispatch one queue event — until source and live set are both
    /// drained.
    pub(crate) fn run_stream(
        &mut self,
        scheduler: &mut dyn Scheduler,
        source: &mut dyn SubmissionSource,
        sink: &mut dyn RecordSink,
        config: &SimConfig,
    ) -> Result<(), SimError> {
        let mut pending = self.pull(source)?;
        while pending.is_some() || !self.state.live.is_empty() {
            let arrival = pending.as_ref().map_or(f64::INFINITY, |j| j.submit_time);
            self.step(scheduler, config, sink, arrival, f64::INFINITY)?;
            if pending.is_none() && self.state.live.is_empty() {
                return Ok(());
            }

            // Then at most one arrival or queue event at this instant;
            // the next step re-checks completions before the next one.
            // Arrivals go first — they carried the lowest sequence
            // numbers when submissions lived in the materialized queue.
            if let Some(spec) = pending.take_if(|j| j.submit_time <= self.state.now) {
                self.admit(spec, scheduler, config);
                pending = self.pull(source)?;
            } else {
                self.handle_due_queue_event(scheduler, config);
            }
        }
        Ok(())
    }

    /// One engine iteration, shared by the streaming loop and every
    /// session command. The next instant is
    /// the earliest of the next derived completion, the queue head and
    /// the caller's `external` instant (`INFINITY` for none). When it
    /// lies past `limit` nothing happens and the step returns `false`,
    /// uncounted. Otherwise it counts against the runaway guard, advances
    /// the clock and settles every completion due there; what else fires
    /// at the instant is the caller's rule.
    ///
    /// # Errors
    /// [`SimError::EventCapExceeded`] from the guard;
    /// [`SimError::Deadlock`] when no instant is left at all.
    pub(crate) fn step(
        &mut self,
        scheduler: &mut dyn Scheduler,
        config: &SimConfig,
        sink: &mut dyn RecordSink,
        external: f64,
        limit: f64,
    ) -> Result<bool, SimError> {
        let t_next = external
            .min(self.next_completion())
            .min(self.queue.peek_time().unwrap_or(f64::INFINITY));
        if t_next > limit {
            return Ok(false);
        }
        self.events_processed += 1;
        if self.events_processed > config.max_events {
            return Err(SimError::EventCapExceeded {
                max_events: config.max_events,
            });
        }
        if t_next == f64::INFINITY {
            return Err(self.deadlock());
        }
        let mut due = self.advance_to(t_next);
        // One scheduler round per completion, streaming records out as
        // the completed prefix grows. The index is scanned again after
        // each round: a `Complete` round can pause or resume a job that
        // is already due.
        while let Some(job) = due {
            self.finish_job(job, config);
            self.round(scheduler, SchedEvent::Complete(job), config);
            self.drain_completed(sink);
            due = self.due_completion();
        }
        Ok(true)
    }

    /// Check a submission against the contract: dense ids in admission
    /// order, finite submit times no earlier than the clock, and a
    /// completion instant the clock can represent (`submit_time +
    /// runtime` finite and later than `submit_time`; otherwise the job
    /// could never finish and the loop would spin to its event cap).
    pub(crate) fn check_submission(&self, spec: &JobSpec) -> Result<(), SimError> {
        let expected = JobId(self.state.jobs.len() as u32);
        if spec.id != expected {
            return Err(SimError::NonDenseSubmission {
                expected,
                got: spec.id,
            });
        }
        if !spec.submit_time.is_finite() || spec.submit_time < self.state.now {
            return Err(SimError::SubmissionOutOfOrder {
                job: spec.id,
                time: spec.submit_time,
                now: self.state.now,
            });
        }
        let (time, runtime) = (spec.submit_time, spec.oracle_runtime());
        let end = time + runtime;
        if !end.is_finite() || end <= time {
            return Err(SimError::UnrepresentableCompletion {
                job: spec.id,
                time,
                runtime,
            });
        }
        Ok(())
    }

    /// Pull and check the next submission from the source.
    fn pull(&self, source: &mut dyn SubmissionSource) -> Result<Option<JobSpec>, SimError> {
        let spec = source.next_job();
        if let Some(spec) = &spec {
            self.check_submission(spec)?;
        }
        Ok(spec)
    }

    /// Admit `spec` into the live set as `Pending` and run its `Submit`
    /// scheduler round.
    pub(crate) fn admit(
        &mut self,
        spec: JobSpec,
        scheduler: &mut dyn Scheduler,
        config: &SimConfig,
    ) -> JobId {
        let id = self.state.admit(spec);
        self.peak_live = self.peak_live.max(self.state.live.len());
        self.peak_resident = self.peak_resident.max(self.state.jobs.resident());
        self.round(scheduler, SchedEvent::Submit(id), config);
        id
    }

    /// Emit and evict the completed prefix of the job store: records
    /// leave in id order (exactly the order the materialized records
    /// vector had), aggregates fold online with the same operations the
    /// post-hoc pass used, and retired jobs' timer versions are dropped.
    pub(crate) fn drain_completed(&mut self, sink: &mut dyn RecordSink) {
        let mut evicted = false;
        while self
            .state
            .jobs
            .front()
            .is_some_and(|j| j.status == JobStatus::Completed)
        {
            let j = self.state.jobs.evict_front().expect("front checked");
            let completion = j
                .completion
                .unwrap_or_else(|| panic!("job {} never completed", j.spec.id));
            let rec = make_record(
                j.spec.id,
                j.spec.submit_time,
                j.first_start,
                completion,
                j.spec.oracle_runtime(),
                j.preemptions,
                j.migrations,
                j.restarts,
            );
            self.makespan = f64::max(self.makespan, rec.completion);
            self.stretch_max = f64::max(self.stretch_max, rec.stretch);
            self.stretch_sum += rec.stretch;
            sink.record(rec);
            evicted = true;
        }
        if evicted {
            self.queue.retire_below(self.state.jobs.first_resident());
        }
    }

    /// Dispatch at most one queue event due at the current instant.
    /// Returns whether one was consumed.
    pub(crate) fn handle_due_queue_event(
        &mut self,
        scheduler: &mut dyn Scheduler,
        config: &SimConfig,
    ) -> bool {
        if !self.queue.peek_time().is_some_and(|t| t <= self.state.now) {
            return false;
        }
        let (_, kind, valid) = self.queue.pop().expect("peeked");
        match kind {
            EventKind::Timer(job) => {
                // Stale timers (cancelled when their job started, or
                // retired with an evicted job) are dropped silently; the
                // pending check guards against schedulers timing
                // non-pending jobs.
                if valid
                    && self
                        .state
                        .jobs
                        .get(job.index())
                        .is_some_and(|j| j.status == JobStatus::Pending)
                {
                    self.round(scheduler, SchedEvent::Timer(job), config);
                }
            }
            EventKind::Tick => {
                // Re-arm from the scheduler's *current* period: a
                // scheduler may stop ticking (`period()` -> `None`)
                // mid-run, e.g. after a restore under a different spec.
                // The already-queued tick is delivered once more and
                // simply not re-armed instead of panicking on the stale
                // queue entry.
                if let Some(period) = scheduler.period() {
                    self.queue.push(self.state.now + period, EventKind::Tick);
                }
                self.round(scheduler, SchedEvent::Tick, config);
            }
            EventKind::NodeDown(node) => self.node_transition(node, false, scheduler, config),
            EventKind::NodeUp(node) => self.node_transition(node, true, scheduler, config),
        }
        true
    }

    /// Take `node` out of service (`up == false`) or return it, with its
    /// scheduler round. A duplicate transition (down on a down node, up
    /// on an up node — explicit availability traces may contain them) is
    /// dropped silently.
    pub(crate) fn node_transition(
        &mut self,
        node: NodeId,
        up: bool,
        scheduler: &mut dyn Scheduler,
        config: &SimConfig,
    ) {
        if self.state.cluster.is_up(node) == up {
            return;
        }
        let ev = if up {
            self.state.cluster.set_node_up(node, true);
            SchedEvent::NodeUp(node)
        } else {
            self.fail_node(node, config);
            SchedEvent::NodeDown(node)
        };
        self.round(scheduler, ev, config);
    }

    /// The running index, for the per-event scans (ascending id order,
    /// exactly as a full job-table scan would visit). Unit tests count
    /// the entries it hands out.
    #[inline]
    fn running_scan(&self) -> &[u32] {
        #[cfg(test)]
        self.running_visits
            .set(self.running_visits.get() + self.state.running_ids().len());
        self.state.running_ids()
    }

    /// Earliest completion instant among running jobs (`INFINITY` when
    /// none is progressing).
    fn next_completion(&self) -> f64 {
        self.running_scan()
            .iter()
            .filter_map(|&i| self.state.jobs[i as usize].completion_time(self.state.now))
            .fold(f64::INFINITY, f64::min)
    }

    /// The smallest-id running job whose remaining virtual time is
    /// (numerically) zero.
    fn due_completion(&self) -> Option<JobId> {
        self.running_scan()
            .iter()
            .map(|&i| &self.state.jobs[i as usize])
            .find(|j| j.remaining() <= COMPLETION_TOLERANCE)
            .map(|j| j.spec.id)
    }

    /// Move the clock to `t`, integrating the node-second integrals and
    /// every running job's virtual time, and return the job
    /// [`Self::due_completion`] would now return — found in the same
    /// pass, which still visits every job after a hit. At `t <= now`
    /// nothing is integrated, but the pass still looks for a due job.
    pub(crate) fn advance_to(&mut self, t: f64) -> Option<JobId> {
        let now = self.state.now;
        debug_assert!(t + approx::EPS >= now, "time went backwards: {now} -> {t}");
        if t > now {
            let dt = t - now;
            self.idle_ns += self.state.cluster.idle_nodes() as f64 * dt;
            self.busy_ns += self.state.cluster.total_cpu_alloc() * dt;
            self.down_ns += self.state.cluster.down_nodes() as f64 * dt;
            self.state.now = t;
        }
        let mut due = None;
        for k in 0..self.running_scan().len() {
            let i = self.state.running_ids()[k] as usize;
            let j = &mut self.state.jobs[i];
            // `from >= now`, so nothing integrates when `t <= now`.
            let from = now.max(j.penalty_until);
            if t > from {
                j.virtual_time += j.yld * (t - from);
            }
            if due.is_none() && j.remaining() <= COMPLETION_TOLERANCE {
                due = Some(j.spec.id);
            }
        }
        due
    }

    fn finish_job(&mut self, id: JobId, config: &SimConfig) {
        debug_assert_eq!(self.state.jobs[id.index()].status, JobStatus::Running);
        self.state.retire(id);
        self.completed += 1;
        if config.record_timeline {
            self.timeline
                .push(self.state.now, id, crate::timeline::AllocEvent::Complete);
        }
    }

    /// Take `node` out of service: [`SimState::strike`] evicts every
    /// running job with a task there under the configured
    /// [`FailurePolicy`], then the node is marked down. The scheduler
    /// is notified *after* this bookkeeping, mirroring how completions
    /// are delivered. A restart crosses no storage — the state died
    /// with the node — and its progress counts as lost work.
    fn fail_node(&mut self, node: NodeId, config: &SimConfig) {
        let preserve = config.failure_policy == FailurePolicy::PausePreserve;
        for (id, vt) in self.state.strike(node, |_| preserve) {
            if preserve {
                self.count_pause(id, config);
                continue;
            }
            self.lost_vt += vt;
            self.restart_count += 1;
            if config.record_timeline {
                self.timeline
                    .push(self.state.now, id, crate::timeline::AllocEvent::Kill);
            }
        }
    }

    /// Remove `id` from the system at the current instant without
    /// finishing its work: an operator or quarantine *cancel*. Running
    /// jobs free their tasks; pending and paused jobs simply leave the
    /// queue. Either way the job transitions to `Completed` (so the
    /// normal drain path emits its record and quiescence is reachable)
    /// and its accrued virtual time counts as lost work. Returns
    /// whether the job held cluster resources.
    pub(crate) fn cancel_job(&mut self, id: JobId, config: &SimConfig) -> Result<bool, SimError> {
        let Some(j) = self.state.jobs.get(id.index()) else {
            return Err(SimError::UnknownJob { job: id });
        };
        if !j.in_system() {
            return Err(SimError::NotCancelable {
                job: id,
                status: j.status,
            });
        }
        let was_running = j.status == JobStatus::Running;
        self.lost_vt += j.virtual_time;
        self.state.retire(id);
        self.completed += 1;
        if config.record_timeline {
            self.timeline.push(
                self.state.now,
                id,
                crate::timeline::AllocEvent::Cancel { was_running },
            );
        }
        Ok(was_running)
    }

    /// One scheduler round: deliver `ev`, time the decision, and apply
    /// its plan.
    pub(crate) fn round(
        &mut self,
        scheduler: &mut dyn Scheduler,
        ev: SchedEvent,
        config: &SimConfig,
    ) {
        let start = Instant::now();
        let plan = scheduler.on_event(ev, &self.state);
        let wall = start.elapsed().as_secs_f64();
        self.sched_wall += wall;
        self.sched_max = self.sched_max.max(wall);
        self.sched_calls += 1;
        if config.record_decisions {
            self.decisions.push(DecisionSample {
                jobs_in_system: self.state.in_system_len() as u32,
                wall_secs: wall,
            });
        }
        self.apply_plan(plan, config);
    }

    /// Apply a plan through [`SimState::apply_plan`], then book what it
    /// did — preemption and migration counts and traffic, penalty
    /// windows, timeline entries, timers — in the order the transitions
    /// ran: pauses, the yield decreases of phase 1, then phase 2.
    pub(crate) fn apply_plan(&mut self, plan: Plan, config: &SimConfig) {
        if config.validate {
            if let Err(e) = validate::check_plan(&self.state, &plan) {
                panic!("invalid plan at t={}: {e}", self.state.now);
            }
        }
        let mut applied = std::mem::take(&mut self.applied);
        self.state.apply_plan(&plan, &mut applied);
        for &job in &applied.pauses {
            self.count_pause(job, config);
        }
        if config.record_timeline {
            for a in applied.actions.iter().filter(|a| a.lowers()) {
                let ev = crate::timeline::AllocEvent::Adjust { yld: a.yld };
                self.timeline.push(self.state.now, a.job, ev);
            }
        }
        for a in applied.actions.iter().filter(|a| !a.lowers()) {
            let placement = plan.placement(&plan.entries[a.entry as usize]);
            self.count_run(a, placement, config);
        }
        self.applied = applied;

        for (job, at) in plan.timers {
            assert!(
                at + approx::EPS >= self.state.now,
                "timer for {job} in the past ({at} < {})",
                self.state.now
            );
            self.queue
                .push(at.max(self.state.now), EventKind::Timer(job));
        }
        if config.validate {
            if let Err(msg) = validate::check_invariants(&self.state) {
                panic!("invariant violation at t={}: {msg}", self.state.now);
            }
        }
    }

    /// Book a pause: one preemption, its memory written to storage.
    fn count_pause(&mut self, id: JobId, config: &SimConfig) {
        let spec = self.state.jobs[id.index()].spec;
        self.pmtn_count += 1;
        self.pmtn_gb += spec.tasks as f64 * self.state.cluster.spec.task_move_gb(spec.mem_req);
        if config.record_timeline {
            self.timeline
                .push(self.state.now, id, crate::timeline::AllocEvent::Pause);
        }
    }

    /// Book a phase-2 run: its timeline entry, and for a resume or a
    /// migration the traffic and the penalty window.
    fn count_run(&mut self, a: &RunAction, placement: &[NodeId], config: &SimConfig) {
        let now = self.state.now;
        let spec = self.state.jobs[a.job.index()].spec;
        if config.record_timeline {
            use crate::timeline::AllocEvent;
            let ev = match a.kind {
                RunKind::Start => Some(AllocEvent::Start {
                    nodes: placement.to_vec(),
                    yld: a.yld,
                }),
                RunKind::Resume => Some(AllocEvent::Resume {
                    nodes: placement.to_vec(),
                    yld: a.yld,
                }),
                RunKind::Adjust if (a.yld - a.old_yld).abs() > 0.0 => {
                    Some(AllocEvent::Adjust { yld: a.yld })
                }
                RunKind::Adjust => None,
                RunKind::Migrate { moved } => Some(AllocEvent::Migrate {
                    nodes: placement.to_vec(),
                    yld: a.yld,
                    moved,
                }),
            };
            if let Some(ev) = ev {
                self.timeline.push(now, a.job, ev);
            }
        }
        match a.kind {
            // First start: free (no VM state to move yet), and any
            // outstanding backoff timer is now obsolete.
            RunKind::Start => self.queue.cancel_timers(a.job),
            RunKind::Resume => {
                // Restored from storage; the penalty applies.
                self.pmtn_gb +=
                    spec.tasks as f64 * self.state.cluster.spec.task_move_gb(spec.mem_req);
                self.state.jobs[a.job.index()].penalty_until = now + config.penalty;
            }
            RunKind::Adjust => {}
            RunKind::Migrate { moved } => {
                let gb_per_task = self.state.cluster.spec.task_move_gb(spec.mem_req);
                let (gb, freeze) = match config.migration_mode {
                    MigrationMode::StopAndCopy => {
                        // Save + restore through storage.
                        (2.0 * moved as f64 * gb_per_task, config.penalty)
                    }
                    MigrationMode::Live { freeze_secs } => {
                        // One node-to-node copy; short brownout.
                        (moved as f64 * gb_per_task, freeze_secs)
                    }
                };
                self.migr_gb += gb;
                self.migr_count += 1;
                self.state.jobs[a.job.index()].penalty_until = now + freeze;
            }
        }
    }

    /// The typed form of the old deadlock panic: nothing can ever make
    /// progress again.
    pub(crate) fn deadlock(&self) -> SimError {
        SimError::Deadlock {
            now: self.state.now,
            stuck: self
                .state
                .jobs_in_system()
                .map(|j| (j.spec.id, j.status))
                .collect(),
        }
    }

    pub(crate) fn into_outcome(self, algorithm: String) -> SimOutcome {
        let mean_stretch = if self.completed == 0 {
            0.0
        } else {
            self.stretch_sum / self.completed as f64
        };
        SimOutcome {
            algorithm,
            records: Vec::new(),
            max_stretch: self.stretch_max,
            mean_stretch,
            makespan: self.makespan,
            preemption_count: self.pmtn_count,
            migration_count: self.migr_count,
            preemption_gb: self.pmtn_gb,
            migration_gb: self.migr_gb,
            restart_count: self.restart_count,
            lost_virtual_seconds: self.lost_vt,
            idle_node_seconds: self.idle_ns,
            busy_node_seconds: self.busy_ns,
            down_node_seconds: self.down_ns,
            sched_wall_total: self.sched_wall,
            sched_wall_max: self.sched_max,
            sched_calls: self.sched_calls,
            events_processed: self.events_processed,
            jobs_completed: self.completed as u64,
            peak_live_jobs: self.peak_live as u64,
            peak_resident_jobs: self.peak_resident as u64,
            decisions: self.decisions,
            timeline: self.timeline,
            ..SimOutcome::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moved_tasks_counts_multiset_difference() {
        let n = |v: &[u32]| v.iter().map(|&x| NodeId(x)).collect::<Vec<_>>();
        let mt = |a: &[u32], b: &[u32]| {
            let (mut ba, mut bb) = (Vec::new(), Vec::new());
            crate::state::moved_tasks(&n(a), &n(b), &mut ba, &mut bb)
        };
        assert_eq!(mt(&[0, 1, 2], &[2, 1, 0]), 0, "permutation is no move");
        assert_eq!(mt(&[0, 1, 2], &[0, 1, 3]), 1);
        assert_eq!(mt(&[0, 0, 1], &[0, 1, 1]), 1, "multiplicity matters");
        assert_eq!(mt(&[4, 5], &[6, 7]), 2);
        assert_eq!(mt(&[], &[]), 0);
    }

    /// A job whose completion instant the clock cannot represent is
    /// refused at admission with a typed error, before the scheduler
    /// sees it: `1e17 + 1 == 1e17` used to spin the loop to its event
    /// cap, and `1e308 + 1e308` overflowed into a deadlock.
    #[test]
    fn unrepresentable_completion_is_refused_at_submission() {
        for (time, runtime) in [(1e17, 1.0), (f64::MAX, 10.0), (1e308, 1e308)] {
            let jobs = [
                JobSpec::new(JobId(0), 0.0, 1, 0.5, 0.2, 1.0).unwrap(),
                JobSpec::new(JobId(1), time, 1, 0.5, 0.2, runtime).unwrap(),
            ];
            let err = simulate_stream(
                ClusterSpec::new(2, 4, 8.0).unwrap(),
                &mut crate::source::IterSource::new(jobs.into_iter()),
                &mut crate::source::DiscardRecords,
                &mut StartAll,
                &SimConfig::default(),
            )
            .unwrap_err();
            let job = JobId(1);
            assert_eq!(
                err,
                SimError::UnrepresentableCompletion { job, time, runtime }
            );
        }
    }

    /// Starts every pending job at full yield on node `id % nodes`.
    struct StartAll;
    impl Scheduler for StartAll {
        fn name(&self) -> String {
            "start-all".into()
        }
        fn on_event(&mut self, _ev: SchedEvent, state: &SimState) -> Plan {
            let mut plan = Plan::noop();
            for j in state.jobs_in_system() {
                if j.status == JobStatus::Pending {
                    let node = NodeId(j.spec.id.0 % state.cluster.spec.nodes);
                    plan = plan.run(j.spec.id, vec![node; j.spec.tasks as usize], 1.0);
                }
            }
            plan
        }
    }

    /// The per-event cost of derived completions: one iteration hands
    /// the running index to `next_completion` and to the fused
    /// integrate-and-find pass of `advance_to` — `2R` entries for `R`
    /// running jobs — plus one `due_completion` rescan per settled
    /// completion.
    #[test]
    fn step_visits_running_index_twice_plus_once_per_completion() {
        let mut core = EngineCore::new(ClusterSpec::new(4, 4, 8.0).unwrap());
        let (mut sched, config) = (StartAll, SimConfig::default());
        let mut sink: Vec<crate::JobRecord> = Vec::new();
        // Twelve jobs, three per node; jobs 0, 4 and 8 finish at t = 50,
        // the rest at t = 100.
        for i in 0..12u32 {
            let runtime = if i % 4 == 0 { 50.0 } else { 100.0 };
            let spec = JobSpec::new(JobId(i), 0.0, 1, 0.25, 0.1, runtime).unwrap();
            core.admit(spec, &mut sched, &config);
        }
        let r = core.state.running_ids().len();
        assert_eq!(r, 12);

        core.running_visits.set(0);
        assert!(core
            .step(&mut sched, &config, &mut sink, 10.0, f64::INFINITY)
            .unwrap());
        assert_eq!((core.state.now, core.completed), (10.0, 0));
        assert_eq!(core.running_visits.get(), 2 * r, "dt > 0, nothing settled");

        core.running_visits.set(0);
        assert!(core
            .step(&mut sched, &config, &mut sink, f64::INFINITY, f64::INFINITY)
            .unwrap());
        let k = core.completed;
        assert_eq!((core.state.now, k), (50.0, 3));
        assert!(
            core.running_visits.get() <= (2 + k) * r,
            "{} visits settling {k} of {r}",
            core.running_visits.get()
        );

        // Past the caller's limit: uncounted, and nothing is scanned
        // beyond picking the instant.
        let events = core.events_processed;
        core.running_visits.set(0);
        assert!(!core
            .step(&mut sched, &config, &mut sink, f64::INFINITY, 60.0)
            .unwrap());
        assert_eq!(core.events_processed, events);
        assert_eq!(core.running_visits.get(), r - k);
    }
}
