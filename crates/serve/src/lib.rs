//! # dfrs-serve
//!
//! The streaming service mode of the DFRS workspace: a long-lived
//! scheduler daemon built on [`dfrs_sim::SimSession`]. Clients drive a
//! simulated cluster one command at a time over an NDJSON line
//! protocol — submit jobs, fail and repair nodes, advance the clock —
//! and the daemon answers with the placement, preemption, and
//! migration decisions the configured scheduler makes, plus a record
//! line per finished job.
//!
//! The protocol lives in [`Daemon`], whose one command loop is
//! [`Daemon::handle_batch`]; the `dfrs-serve` binary wires it to
//! stdin/stdout or a Unix socket. One command object per line in, zero
//! or more event objects per line out:
//!
//! | command | fields | effect |
//! |---|---|---|
//! | `submit` | `time?`, `tasks?`, `cpu`, `mem`, `runtime`, `gpu?`, `id?` | admit a job (ids are assigned densely; a given `id` must match) |
//! | `node-down` / `node-up` | `time?`, `node` | platform event at `time` (default: now) |
//! | `advance` | `time` | run the clock forward, firing everything due |
//! | `drain` | | run until every admitted job completed |
//! | `stats` | | one `stats` event, no state change |
//! | `snapshot` | `path?` | quiescent-state snapshot to `path`, or inline |
//! | `shutdown` | | final `shutdown` event, then the daemon exits |
//!
//! Every response event carries an `"event"` key: `ready`, `submitted`,
//! `decision`, `record`, `node`, `advanced`, `drained`, `stats`,
//! `snapshot`, `shutdown`, or `error`. Errors never kill the daemon —
//! the engine's typed [`dfrs_sim::SimError`] values surface as `error`
//! events and the session keeps serving.
//!
//! Output is deterministic: same command lines, same event lines, byte
//! for byte — which is what the checked-in golden transcript in CI
//! asserts, and what makes the snapshot/restore cycle testable (the
//! resumed daemon must emit exactly what the uninterrupted one would
//! have).
//!
//! ## Crash safety
//!
//! With a [`journal`] attached (`--journal DIR`), every state-mutating
//! command is appended to a write-ahead log *before* it is applied —
//! consecutive ones share one group commit — and
//! [`Daemon::recover`] rebuilds a crashed daemon from the newest
//! snapshot plus a replay of the journal suffix — byte-identical to
//! never having crashed, because the simulation runs on sim time and
//! replay goes through this very command loop. Scheduler faults are
//! contained by [`quarantine`]: a panicking tick or invalid plan
//! cancels the offending job with a typed `error` event instead of
//! poisoning the daemon. The [`chaos`] module provides the seeded
//! crash points the recovery tests and CI chaos matrix are built on.

use std::fmt;
use std::path::Path;

use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::json::{self, obj, Value};
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_sched::{SchedulerRegistry, SpecError};
use dfrs_sim::{
    snapshot_spec, AllocEvent, JobRecord, Scheduler, SimConfig, SimError, SimSession, TimelineEntry,
};

pub mod chaos;
pub mod journal;
pub mod quarantine;

use chaos::{ChaosAction, ChaosPlan, ChaosState};
use journal::{FsyncPolicy, Journal, JournalError};
use quarantine::{QuarantineGuard, QuarantineLog};

/// Why a daemon could not be constructed, restored, or recovered.
/// Command-level failures never use this — they become `error` events
/// and the daemon keeps serving; this type is for the startup paths
/// where there is no session to keep alive.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The scheduler spec did not parse or build.
    Spec(SpecError),
    /// The snapshot document was rejected by the session (malformed,
    /// truncated, or not quiescent).
    Sim(SimError),
    /// The snapshot text was not parseable JSON or lacked the recorded
    /// scheduler spec.
    Snapshot {
        /// What was wrong with the text.
        detail: String,
    },
    /// The write-ahead journal could not be created, appended, or
    /// recovered.
    Journal(JournalError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Spec(e) => write!(f, "{e}"),
            ServeError::Sim(e) => write!(f, "{e}"),
            ServeError::Snapshot { detail } => write!(f, "snapshot: {detail}"),
            ServeError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Spec(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Journal(e)
    }
}

/// Whether the daemon should keep reading commands after a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving.
    Continue,
    /// A `shutdown` command was processed; stop reading.
    Shutdown,
    /// A seeded [`chaos`] crash point fired: the process must die *now*
    /// without flushing anything (the binary calls
    /// [`std::process::abort`]; in-process tests drop the daemon).
    Crashed,
}

/// Default cap on accepted command-line length (bytes). Oversized
/// lines yield a typed `error` event and are not applied.
pub const MAX_LINE_DEFAULT: usize = 64 * 1024;

/// What [`Daemon::recover`] did, for the startup banner.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Sequence number covered by the snapshot recovery started from.
    pub covered: u64,
    /// Journaled commands replayed on top of it.
    pub replayed: u64,
    /// Last sequence number in the journal after recovery.
    pub last_seq: u64,
    /// The torn final record, when one was dropped.
    pub torn: Option<journal::TornTail>,
}

/// The protocol engine: one [`SimSession`] plus the command loop.
/// Transport-free — the binary (stdin/stdout, Unix socket), journal
/// recovery and the tests all feed lines through
/// [`Daemon::handle_batch`]; [`Daemon::handle_line`] is a batch of one.
pub struct Daemon {
    session: SimSession,
    journal: Option<Journal>,
    chaos: Option<ChaosState>,
    qlog: QuarantineLog,
    max_line: usize,
}

impl Daemon {
    /// Fresh daemon: build `spec` through the built-in scheduler
    /// registry and open a session at `t = 0`. The session always
    /// records the allocation timeline (drained into `decision` events
    /// after every command, so memory stays flat).
    ///
    /// # Errors
    /// [`ServeError::Spec`] when `spec` does not parse or build.
    pub fn new(cluster: ClusterSpec, spec: &str, config: SimConfig) -> Result<Self, ServeError> {
        let scheduler = SchedulerRegistry::builtin().build_str(spec)?;
        Ok(Self::with_scheduler(cluster, spec, scheduler, config))
    }

    /// Fresh daemon around a caller-supplied scheduler (tests and
    /// embedders; the registry is bypassed, `spec` is only recorded).
    /// Like every constructor, the scheduler is wrapped in the
    /// [`quarantine::QuarantineGuard`].
    pub fn with_scheduler(
        cluster: ClusterSpec,
        spec: &str,
        scheduler: Box<dyn Scheduler>,
        mut config: SimConfig,
    ) -> Self {
        config.record_timeline = true;
        Self::guarded(scheduler, |s| Ok(SimSession::new(cluster, spec, s, config)))
            .expect("opening a fresh session cannot fail")
    }

    /// Wrap `scheduler` in the [`quarantine::QuarantineGuard`] and build
    /// the daemon around the session `open` makes from it.
    fn guarded(
        scheduler: Box<dyn Scheduler>,
        open: impl FnOnce(Box<dyn Scheduler>) -> Result<SimSession, SimError>,
    ) -> Result<Self, SimError> {
        let qlog = QuarantineLog::default();
        let session = open(Box::new(QuarantineGuard::new(scheduler, qlog.clone())))?;
        Ok(Daemon {
            session,
            journal: None,
            chaos: None,
            qlog,
            max_line: MAX_LINE_DEFAULT,
        })
    }

    /// Attach a fresh write-ahead journal in `dir`: the current
    /// (quiescent) state becomes the base snapshot, and every further
    /// mutating command is journaled before it is applied.
    ///
    /// # Errors
    /// [`ServeError::Sim`] when the session is not quiescent (attach at
    /// startup); [`ServeError::Journal`] when `dir` already holds a
    /// journal or on I/O failure.
    pub fn attach_journal(&mut self, dir: &Path, policy: FsyncPolicy) -> Result<(), ServeError> {
        let doc = self.session.snapshot()?;
        self.journal = Some(Journal::create(dir, policy, &doc.pretty())?);
        Ok(())
    }

    /// Arm a seeded crash point (effective only with a journal
    /// attached; see [`chaos`]).
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(ChaosState::new(plan));
    }

    /// Cap accepted command-line length (default
    /// [`MAX_LINE_DEFAULT`]).
    pub fn set_max_line(&mut self, bytes: usize) {
        self.max_line = bytes;
    }

    /// Rebuild a crashed daemon from its journal directory: load the
    /// newest snapshot, replay the journaled command suffix through the
    /// ordinary command loop (a torn final record is dropped and
    /// truncated), and reopen the journal for appends. The recovered
    /// daemon is byte-identical to one that never crashed.
    ///
    /// # Errors
    /// [`ServeError::Journal`] on a missing or damaged journal,
    /// [`ServeError::Spec`] / [`ServeError::Sim`] /
    /// [`ServeError::Snapshot`] when the base snapshot no longer
    /// restores.
    pub fn recover(dir: &Path, policy: FsyncPolicy) -> Result<(Daemon, Recovery), ServeError> {
        let rec = journal::scan(dir)?;
        let mut daemon = Daemon::restore(&rec.snapshot)?;
        // Journaled lines were accepted once; replay must not re-limit
        // them (the caller may have lowered max_line since).
        daemon.max_line = usize::MAX;
        for line in &rec.lines {
            // Replay outputs are discarded — the original run already
            // delivered them. Failing commands fail identically, which
            // is all determinism needs.
            let (_events, _flow) = daemon.handle_line(line);
        }
        daemon.max_line = MAX_LINE_DEFAULT;
        daemon.journal = Some(Journal::resume(dir, policy, &rec)?);
        Ok((
            daemon,
            Recovery {
                covered: rec.covered,
                replayed: rec.lines.len() as u64,
                last_seq: rec.last_seq,
                torn: rec.torn,
            },
        ))
    }

    /// Resume a daemon from the text of a `dfrs-snapshot-v1` document:
    /// read the registry spec recorded in it, rebuild the scheduler,
    /// and restore the session. The resumed daemon continues
    /// byte-identically to the one that wrote the snapshot.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the text is not parseable JSON or
    /// records no spec, [`ServeError::Spec`] when that spec no longer
    /// builds, [`ServeError::Sim`] when the session rejects the
    /// document.
    pub fn restore(text: &str) -> Result<Self, ServeError> {
        let doc = json::parse(text).map_err(|e| ServeError::Snapshot {
            detail: e.to_string(),
        })?;
        let spec = snapshot_spec(&doc)
            .ok_or_else(|| ServeError::Snapshot {
                detail: "missing scheduler spec".into(),
            })?
            .to_string();
        let scheduler = SchedulerRegistry::builtin().build_str(&spec)?;
        Ok(Self::guarded(scheduler, |s| SimSession::restore(&doc, s))?)
    }

    /// Direct access to the underlying session (tests, embedding).
    pub fn session(&self) -> &SimSession {
        &self.session
    }

    /// The `ready` banner emitted once at startup. Journaled daemons
    /// also report the journal directory and last sequence number.
    pub fn ready_event(&self) -> Value {
        let spec = self.session.state().cluster.spec;
        let mut pairs = vec![
            ("event".into(), Value::Str("ready".into())),
            ("spec".into(), Value::Str(self.session.spec().into())),
            ("nodes".into(), Value::Num(spec.nodes as f64)),
            ("now".into(), Value::Num(self.session.now())),
            (
                "admitted".into(),
                Value::Num(self.session.admitted() as f64),
            ),
        ];
        if let Some(j) = &self.journal {
            pairs.push(("journal".into(), Value::Str(j.dir().display().to_string())));
            pairs.push(("journal_seq".into(), Value::Num(j.last_seq() as f64)));
        }
        obj(pairs)
    }

    /// The `recovered` banner a recovering binary emits after
    /// [`Daemon::recover`].
    pub fn recovered_event(recovery: &Recovery) -> Value {
        obj([
            ("event".into(), Value::Str("recovered".into())),
            ("covered".into(), Value::Num(recovery.covered as f64)),
            ("replayed".into(), Value::Num(recovery.replayed as f64)),
            ("journal_seq".into(), Value::Num(recovery.last_seq as f64)),
            (
                "torn_dropped".into(),
                Value::Num(recovery.torn.as_ref().map_or(0, |t| t.dropped) as f64),
            ),
        ])
    }

    /// Process one command line: a batch of one through
    /// [`Daemon::handle_batch`]. Returns the response events (already
    /// ordered) and whether to keep serving. Blank lines and `#`
    /// comments produce no events. A malformed or failing command
    /// produces a single `error` event and the daemon keeps serving.
    pub fn handle_line(&mut self, line: &str) -> (Vec<Value>, Flow) {
        self.handle_batch(&[line])
            .pop()
            .expect("a batch answers every line it reads")
    }

    /// Process a run of command lines — the daemon's one command loop.
    /// Each line is parsed once. Consecutive journaled commands are
    /// staged with one buffered append each, made durable together
    /// with a **single** journal commit (one write, at most one
    /// fsync), and only then applied in order. Any
    /// other line — blank, comment, malformed, oversize, or a command
    /// that is not journaled — first flushes the staged run, so the
    /// events are byte for byte what one line at a time would produce.
    /// Journal-less daemons stage the same way, with nothing to wait on.
    ///
    /// Returns one `(events, flow)` entry per processed line, in input
    /// order. A non-`Continue` flow is always the last entry: after
    /// `Shutdown` the remaining lines are not read. The `pre-append`,
    /// `torn` and `post-append` chaos points flush the staged run before
    /// they crash; `batch-crash` crashes with it unapplied and
    /// unacknowledged — exactly the window crash recovery must cover.
    pub fn handle_batch<S: AsRef<str>>(&mut self, lines: &[S]) -> Vec<(Vec<Value>, Flow)> {
        let mut out = Vec::with_capacity(lines.len());
        let mut staged: Vec<Staged> = Vec::new();
        for line in lines {
            let (cmd, v, line) = match self.parse_line(line.as_ref()) {
                Ok(Some(parsed)) if parsed.0.journaled() => parsed,
                other => {
                    self.flush(&mut staged, &mut out);
                    let (events, flow) = match other {
                        Ok(Some((cmd, v, _))) => answer(self.apply(cmd, &v, None)),
                        Ok(None) => (Vec::new(), Flow::Continue),
                        Err(event) => (vec![event], Flow::Continue),
                    };
                    out.push((events, flow));
                    if flow != Flow::Continue {
                        return out;
                    }
                    continue;
                }
            };
            if self.journal.is_none() {
                staged.push(Staged { cmd, v, seq: None });
                continue;
            }
            // Write-ahead: the command is enqueued before it is applied,
            // unless a seeded chaos point fires here instead.
            let action = self
                .chaos
                .as_mut()
                .map_or(ChaosAction::Proceed, ChaosState::on_append);
            if !matches!(action, ChaosAction::Proceed | ChaosAction::CrashStaged) {
                // Every earlier command is applied and acknowledged
                // before the crash, as if each had come on its own.
                self.flush(&mut staged, &mut out);
            }
            let j = self.journal.as_mut().expect("checked above");
            // `Ok` means the seeded crash fires now.
            let fired = match action {
                ChaosAction::Proceed => match j.append_async(line) {
                    Ok(seq) => {
                        staged.push(Staged {
                            cmd,
                            v,
                            seq: Some(seq),
                        });
                        continue;
                    }
                    Err(e) => Err(e),
                },
                ChaosAction::CrashBefore => Ok(()),
                ChaosAction::Torn { keep } => j.append_torn(line, keep),
                ChaosAction::CrashAfter => j.append_async(line).and_then(|seq| j.wait_durable(seq)),
                // The record joins the uncommitted staged run, which dies
                // unapplied: an in-process drop of the daemon commits
                // the run, an aborted process loses it.
                ChaosAction::CrashStaged => {
                    let _ = j.append_async(line);
                    Ok(())
                }
            };
            match fired {
                Ok(()) => {
                    out.push((Vec::new(), Flow::Crashed));
                    return out;
                }
                // A journal failure: the command is NOT applied.
                Err(e) => {
                    self.flush(&mut staged, &mut out);
                    out.push((vec![error_event(e.to_string())], Flow::Continue));
                }
            }
        }
        self.flush(&mut staged, &mut out);
        out
    }

    /// Parse one line into its command: `Ok(None)` for blank lines and
    /// `#` comments, `Err` with the `error` event for anything that is
    /// not a command. An oversize line is rejected before any parsing.
    fn parse_line<'a>(&self, line: &'a str) -> Result<Option<(Cmd, Value, &'a str)>, Value> {
        if line.len() > self.max_line {
            return Err(obj([
                ("event".into(), Value::Str("error".into())),
                ("kind".into(), Value::Str("oversize".into())),
                (
                    "message".into(),
                    Value::Str(format!(
                        "line of {} bytes exceeds the {}-byte limit",
                        line.len(),
                        self.max_line
                    )),
                ),
            ]));
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let v = json::parse(line).map_err(|e| error_event(format!("bad command line: {e}")))?;
        let name = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| error_event("command object needs a \"cmd\" string".into()))?;
        let cmd =
            Cmd::parse(name).ok_or_else(|| error_event(format!("unknown command {name:?}")))?;
        Ok(Some((cmd, v, line)))
    }

    /// Make every staged command durable with one journal commit, then
    /// apply them in order, appending each command's events.
    fn flush(&mut self, staged: &mut Vec<Staged>, out: &mut Vec<(Vec<Value>, Flow)>) {
        let durable = match (staged.last().and_then(|s| s.seq), &mut self.journal) {
            (Some(seq), Some(j)) => j.wait_durable(seq).map_err(|e| e.to_string()),
            _ => Ok(()),
        };
        for s in staged.drain(..) {
            // Write-ahead discipline: after a failed wait none of the
            // staged commands may be applied; each reports the failure.
            out.push(answer(match &durable {
                Ok(()) => self.apply(s.cmd, &s.v, s.seq),
                Err(message) => Err(message.clone()),
            }));
        }
    }

    /// Apply a parsed command that has already cleared the write-ahead
    /// journal (`seq` is its journal sequence number, when journaled).
    fn apply(
        &mut self,
        cmd: Cmd,
        v: &Value,
        seq: Option<u64>,
    ) -> Result<(Vec<Value>, Flow), String> {
        match cmd {
            Cmd::Submit => self.submit(v),
            Cmd::NodeDown => self.node_event(v, false),
            Cmd::NodeUp => self.node_event(v, true),
            Cmd::Advance => self.advance(v),
            Cmd::Drain => self.drain(seq),
            Cmd::Stats => Ok((vec![self.stats_event()], Flow::Continue)),
            Cmd::Snapshot => self.snapshot(v),
            Cmd::Shutdown => {
                let mut done = self.stats_event();
                if let Value::Obj(m) = &mut done {
                    m.insert("event".into(), Value::Str("shutdown".into()));
                }
                Ok((vec![done], Flow::Shutdown))
            }
        }
    }

    fn submit(&mut self, v: &Value) -> Result<(Vec<Value>, Flow), String> {
        let time = opt_num(v, "time")?.unwrap_or_else(|| self.session.now());
        let tasks = opt_u32(v, "tasks")?.unwrap_or(1);
        let cpu = req_num(v, "cpu")?;
        let mem = req_num(v, "mem")?;
        let runtime = req_num(v, "runtime")?;
        let next = JobId(self.session.state().jobs.len() as u32);
        if let Some(want) = opt_u32(v, "id")? {
            if want != next.0 {
                return Err(format!("job id {want} out of order; the next id is {next}"));
            }
        }
        let mut job =
            JobSpec::new(next, time, tasks, cpu, mem, runtime).map_err(|e| e.to_string())?;
        if let Some(gpu) = opt_num(v, "gpu")? {
            job = job.with_gpu(gpu).map_err(|e| e.to_string())?;
        }
        let id = self.session.submit(job).map_err(|e| e.to_string())?;
        let mut events = vec![obj([
            ("event".into(), Value::Str("submitted".into())),
            ("job".into(), Value::Num(id.0 as f64)),
            ("time".into(), Value::Num(time)),
        ])];
        self.drain_outputs(&mut events);
        self.process_quarantines(&mut events);
        Ok((events, Flow::Continue))
    }

    fn node_event(&mut self, v: &Value, up: bool) -> Result<(Vec<Value>, Flow), String> {
        let time = opt_num(v, "time")?.unwrap_or_else(|| self.session.now());
        let node = NodeId(opt_u32(v, "node")?.ok_or_else(|| missing("node"))?);
        self.session
            .node_event(time, node, up)
            .map_err(|e| e.to_string())?;
        let mut events = vec![obj([
            ("event".into(), Value::Str("node".into())),
            ("node".into(), Value::Num(node.0 as f64)),
            ("up".into(), Value::Bool(up)),
            ("time".into(), Value::Num(time)),
        ])];
        self.drain_outputs(&mut events);
        self.process_quarantines(&mut events);
        Ok((events, Flow::Continue))
    }

    fn advance(&mut self, v: &Value) -> Result<(Vec<Value>, Flow), String> {
        let time = req_num(v, "time")?;
        self.session.advance_to(time).map_err(|e| e.to_string())?;
        let mut events = Vec::new();
        self.drain_outputs(&mut events);
        self.process_quarantines(&mut events);
        events.push(obj([
            ("event".into(), Value::Str("advanced".into())),
            ("now".into(), Value::Num(self.session.now())),
        ]));
        Ok((events, Flow::Continue))
    }

    /// The `drained` ack. Journaled daemons also report this drain's
    /// own journal sequence number, so clients know what is durable.
    /// (`seq` rather than the journal's high-water mark: later commands
    /// of the same batch may already hold higher numbers when the drain
    /// is applied.)
    fn drained_event(&self, seq: Option<u64>) -> Value {
        let mut pairs = vec![
            ("event".into(), Value::Str("drained".into())),
            ("now".into(), Value::Num(self.session.now())),
            (
                "completed".into(),
                Value::Num(self.session.completed() as f64),
            ),
        ];
        if let Some(seq) = seq {
            pairs.push(("journal_seq".into(), Value::Num(seq as f64)));
        }
        obj(pairs)
    }

    fn drain(&mut self, seq: Option<u64>) -> Result<(Vec<Value>, Flow), String> {
        let mut events = Vec::new();
        if let Err(e) = self.session.drain() {
            // A scheduler fault (quarantine pending) can leave the drain
            // deadlocked on a job the guard wants canceled. Cancel and
            // retry once; a drain that fails with nothing quarantined is
            // the client's problem and reports as a plain error.
            if self.qlog.is_empty() {
                return Err(e.to_string());
            }
            self.drain_outputs(&mut events);
            if self.process_quarantines(&mut events) == 0 {
                events.push(obj([
                    ("event".into(), Value::Str("error".into())),
                    ("message".into(), Value::Str(e.to_string())),
                ]));
                return Ok((events, Flow::Continue));
            }
            if let Err(e2) = self.session.drain() {
                self.drain_outputs(&mut events);
                self.process_quarantines(&mut events);
                events.push(obj([
                    ("event".into(), Value::Str("error".into())),
                    ("message".into(), Value::Str(e2.to_string())),
                ]));
                return Ok((events, Flow::Continue));
            }
        }
        self.drain_outputs(&mut events);
        self.process_quarantines(&mut events);
        events.push(self.drained_event(seq));
        Ok((events, Flow::Continue))
    }

    fn snapshot(&mut self, v: &Value) -> Result<(Vec<Value>, Flow), String> {
        let doc = self.session.snapshot().map_err(|e| e.to_string())?;
        let text = doc.pretty();
        // Journal integration: the snapshot anchors a segment rotation
        // (or, under chaos, a torn temp file and a crash).
        let mut journal_seq = None;
        if let Some(j) = &mut self.journal {
            if let Some(keep) = self.chaos.as_mut().and_then(ChaosState::on_snapshot) {
                j.torn_snapshot(&text, keep).map_err(|e| e.to_string())?;
                return Ok((Vec::new(), Flow::Crashed));
            }
            journal_seq = Some(j.mark_snapshot(&text).map_err(|e| e.to_string())?);
        }
        let mut pairs = match v.get("path").and_then(Value::as_str) {
            Some(path) => {
                std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
                vec![
                    ("event".into(), Value::Str("snapshot".into())),
                    ("path".into(), Value::Str(path.into())),
                    ("bytes".into(), Value::Num(text.len() as f64)),
                ]
            }
            None => vec![
                ("event".into(), Value::Str("snapshot".into())),
                ("data".into(), doc),
            ],
        };
        if let Some(covered) = journal_seq {
            pairs.push(("journal_seq".into(), Value::Num(covered as f64)));
        }
        Ok((vec![obj(pairs)], Flow::Continue))
    }

    fn stats_event(&self) -> Value {
        obj([
            ("event".into(), Value::Str("stats".into())),
            ("spec".into(), Value::Str(self.session.spec().into())),
            ("now".into(), Value::Num(self.session.now())),
            ("live".into(), Value::Num(self.session.live_jobs() as f64)),
            (
                "admitted".into(),
                Value::Num(self.session.admitted() as f64),
            ),
            (
                "completed".into(),
                Value::Num(self.session.completed() as f64),
            ),
            (
                "events_processed".into(),
                Value::Num(self.session.events_processed() as f64),
            ),
            ("quiescent".into(), Value::Bool(self.session.is_quiescent())),
        ])
    }

    /// Pull everything the last command produced out of the session:
    /// timeline entries become `decision` events, completed jobs become
    /// `record` events.
    fn drain_outputs(&mut self, out: &mut Vec<Value>) {
        for e in self.session.take_timeline() {
            out.push(decision_event(&e));
        }
        for r in self.session.take_records() {
            out.push(record_event(&r));
        }
    }

    /// Act on quarantine notes the guard pushed during the last
    /// command: emit a typed `error` event per fault and cancel the
    /// attributed job. Canceling may itself tick the (faulty) scheduler
    /// and produce more notes, so loop until the log is dry. Returns
    /// the number of jobs successfully canceled.
    fn process_quarantines(&mut self, out: &mut Vec<Value>) -> usize {
        let mut canceled = 0;
        let mut reported: Vec<(Option<JobId>, String)> = Vec::new();
        loop {
            let notes = self.qlog.take();
            if notes.is_empty() {
                return canceled;
            }
            for note in notes {
                let key = (note.job, note.reason.clone());
                if reported.contains(&key) {
                    // The same fault repeats every round the bad entry
                    // reappears in; one report is enough.
                    continue;
                }
                reported.push(key);
                let mut pairs = vec![
                    ("event".into(), Value::Str("error".into())),
                    ("kind".into(), Value::Str("quarantine".into())),
                ];
                if let Some(j) = note.job {
                    pairs.push(("job".into(), Value::Num(j.0 as f64)));
                }
                pairs.push(("message".into(), Value::Str(note.reason)));
                out.push(obj(pairs));
                let Some(job) = note.job else { continue };
                match self.session.cancel(job) {
                    Ok(()) => {
                        canceled += 1;
                        self.drain_outputs(out);
                    }
                    // Already canceled (a duplicate attribution) or
                    // already gone: nothing left to contain.
                    Err(SimError::NotCancelable { .. }) | Err(SimError::UnknownJob { .. }) => {}
                    Err(e) => out.push(obj([
                        ("event".into(), Value::Str("error".into())),
                        ("kind".into(), Value::Str("quarantine".into())),
                        ("job".into(), Value::Num(job.0 as f64)),
                        (
                            "message".into(),
                            Value::Str(format!("canceling quarantined {job}: {e}")),
                        ),
                    ])),
                }
            }
        }
    }
}

/// A protocol command, classified once per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Submit,
    NodeDown,
    NodeUp,
    Advance,
    Drain,
    Stats,
    Snapshot,
    Shutdown,
}

impl Cmd {
    fn parse(name: &str) -> Option<Cmd> {
        Some(match name {
            "submit" => Cmd::Submit,
            "node-down" => Cmd::NodeDown,
            "node-up" => Cmd::NodeUp,
            "advance" => Cmd::Advance,
            "drain" => Cmd::Drain,
            "stats" => Cmd::Stats,
            "snapshot" => Cmd::Snapshot,
            "shutdown" => Cmd::Shutdown,
            _ => return None,
        })
    }

    /// State-mutating commands: journaled before they are applied, and
    /// staged for group commit.
    fn journaled(self) -> bool {
        matches!(
            self,
            Cmd::Submit | Cmd::NodeDown | Cmd::NodeUp | Cmd::Advance | Cmd::Drain
        )
    }
}

/// A journaled command staged by [`Daemon::handle_batch`]: parsed,
/// sequence-numbered when a journal is attached, and awaiting its
/// group-commit ack.
struct Staged {
    cmd: Cmd,
    v: Value,
    seq: Option<u64>,
}

/// The protocol's uniform failure shape — commands never kill the
/// daemon, they answer with one of these.
fn error_event(message: String) -> Value {
    obj([
        ("event".into(), Value::Str("error".into())),
        ("message".into(), Value::Str(message)),
    ])
}

/// A command's response: its events, or the one `error` event it failed with.
fn answer(res: Result<(Vec<Value>, Flow), String>) -> (Vec<Value>, Flow) {
    res.unwrap_or_else(|message| (vec![error_event(message)], Flow::Continue))
}

fn decision_event(e: &TimelineEntry) -> Value {
    let nodes = |ns: &[NodeId]| Value::Arr(ns.iter().map(|n| Value::Num(n.0 as f64)).collect());
    let mut pairs: Vec<(String, Value)> = vec![
        ("event".into(), Value::Str("decision".into())),
        ("time".into(), Value::Num(e.time)),
        ("job".into(), Value::Num(e.job.0 as f64)),
    ];
    let action = match &e.event {
        AllocEvent::Start { nodes: ns, yld } => {
            pairs.push(("nodes".into(), nodes(ns)));
            pairs.push(("yield".into(), Value::Num(*yld)));
            "start"
        }
        AllocEvent::Adjust { yld } => {
            pairs.push(("yield".into(), Value::Num(*yld)));
            "adjust"
        }
        AllocEvent::Migrate {
            nodes: ns,
            yld,
            moved,
        } => {
            pairs.push(("nodes".into(), nodes(ns)));
            pairs.push(("yield".into(), Value::Num(*yld)));
            pairs.push(("moved".into(), Value::Num(*moved as f64)));
            "migrate"
        }
        AllocEvent::Pause => "pause",
        AllocEvent::Kill => "kill",
        AllocEvent::Resume { nodes: ns, yld } => {
            pairs.push(("nodes".into(), nodes(ns)));
            pairs.push(("yield".into(), Value::Num(*yld)));
            "resume"
        }
        AllocEvent::Complete => "complete",
        AllocEvent::Cancel { was_running } => {
            pairs.push(("was_running".into(), Value::Bool(*was_running)));
            "cancel"
        }
    };
    pairs.push(("action".into(), Value::Str(action.into())));
    obj(pairs)
}

fn record_event(r: &JobRecord) -> Value {
    obj([
        ("event".into(), Value::Str("record".into())),
        ("job".into(), Value::Num(r.id.0 as f64)),
        ("submit".into(), Value::Num(r.submit)),
        (
            "start".into(),
            r.first_start.map_or(Value::Null, Value::Num),
        ),
        ("completion".into(), Value::Num(r.completion)),
        ("turnaround".into(), Value::Num(r.turnaround)),
        ("stretch".into(), Value::Num(r.stretch)),
        ("preemptions".into(), Value::Num(r.preemptions as f64)),
        ("migrations".into(), Value::Num(r.migrations as f64)),
        ("restarts".into(), Value::Num(r.restarts as f64)),
    ])
}

fn missing(key: &str) -> String {
    format!("command needs a numeric {key:?} field")
}

fn req_num(v: &Value, key: &str) -> Result<f64, String> {
    opt_num(v, key)?.ok_or_else(|| missing(key))
}

fn opt_num(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a number")),
    }
}

/// An integer field from outside input (a count, an id, a node index):
/// negative, fractional or wider-than-`u32` values are rejected, never
/// cast.
fn opt_u32(v: &Value, key: &str) -> Result<Option<u32>, String> {
    match opt_num(v, key)? {
        Some(x) if !(x >= 0.0 && x <= f64::from(u32::MAX) && x.fract() == 0.0) => Err(format!(
            "field {key:?} must be an integer in 0..={}, got {x}",
            u32::MAX
        )),
        n => Ok(n.map(|x| x as u32)),
    }
}

// Unwrap audit: production paths in this crate return typed errors
// (`ServeError`, `JournalError`) — the only `expect`s left state the
// invariant that makes them unreachable (e.g. "checked above"). The
// unwraps below are test assertions, where panicking with a backtrace
// *is* the failure report.
#[cfg(test)]
mod tests {
    use super::*;

    fn daemon(spec: &str) -> Daemon {
        Daemon::new(
            ClusterSpec::new(4, 4, 8.0).unwrap(),
            spec,
            SimConfig::default(),
        )
        .unwrap()
    }

    fn lines(d: &mut Daemon, line: &str) -> Vec<String> {
        let (events, _) = d.handle_line(line);
        events.iter().map(Value::compact).collect()
    }

    #[test]
    fn submit_emits_decisions_and_records() {
        let mut d = daemon("greedy-pmtn");
        let out = lines(
            &mut d,
            r#"{"cmd":"submit","time":0,"cpu":0.5,"mem":0.2,"runtime":100}"#,
        );
        assert!(out[0].contains(r#""event":"submitted""#), "{out:?}");
        assert!(
            out.iter().any(|l| l.contains(r#""action":"start""#)),
            "{out:?}"
        );
        let out = lines(&mut d, r#"{"cmd":"drain"}"#);
        assert!(
            out.iter().any(|l| l.contains(r#""event":"record""#)),
            "{out:?}"
        );
        assert!(out.last().unwrap().contains(r#""event":"drained""#));
    }

    #[test]
    fn errors_keep_the_daemon_serving() {
        let mut d = daemon("fcfs");
        let stats = lines(&mut d, r#"{"cmd":"stats"}"#);
        for bad in [
            "not json",
            r#"{"nocmd":1}"#,
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"submit","cpu":0.5,"mem":0.2}"#,
            r#"{"cmd":"submit","time":-5,"cpu":0.5,"mem":0.2,"runtime":10}"#,
            r#"{"cmd":"node-down","node":99}"#,
            r#"{"cmd":"advance","time":-1}"#,
            // Integer fields are validated, never cast.
            r#"{"cmd":"node-down","node":-1}"#,
            r#"{"cmd":"node-up","node":0.5}"#,
            r#"{"cmd":"node-down","node":4294967296}"#,
            r#"{"cmd":"submit","tasks":2.9,"cpu":0.5,"mem":0.2,"runtime":10}"#,
            r#"{"cmd":"submit","tasks":-1,"cpu":0.5,"mem":0.2,"runtime":10}"#,
            r#"{"cmd":"submit","id":-1,"cpu":0.5,"mem":0.2,"runtime":10}"#,
            r#"{"cmd":"submit","id":0.5,"cpu":0.5,"mem":0.2,"runtime":10}"#,
            r#"{"cmd":"submit","id":1e10,"cpu":0.5,"mem":0.2,"runtime":10}"#,
        ] {
            let (events, flow) = d.handle_line(bad);
            assert_eq!(flow, Flow::Continue, "{bad}");
            assert_eq!(events.len(), 1, "{bad}");
            assert_eq!(
                events[0].get("event").unwrap().as_str(),
                Some("error"),
                "{bad}"
            );
            assert_eq!(lines(&mut d, r#"{"cmd":"stats"}"#), stats, "{bad}");
        }
        // Still alive and consistent.
        let out = lines(
            &mut d,
            r#"{"cmd":"submit","time":0,"cpu":0.5,"mem":0.2,"runtime":10}"#,
        );
        assert!(out[0].contains(r#""job":0"#), "{out:?}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut d = daemon("fcfs");
        assert!(d.handle_line("").0.is_empty());
        assert!(d.handle_line("  # scripted pause").0.is_empty());
    }

    #[test]
    fn explicit_out_of_order_id_is_rejected() {
        let mut d = daemon("fcfs");
        let (events, _) =
            d.handle_line(r#"{"cmd":"submit","id":3,"cpu":0.5,"mem":0.2,"runtime":10}"#);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("error"));
        let (events, _) =
            d.handle_line(r#"{"cmd":"submit","id":0,"cpu":0.5,"mem":0.2,"runtime":10}"#);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("submitted"));
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let script_prefix = [
            r#"{"cmd":"submit","time":0,"tasks":2,"cpu":0.5,"mem":0.25,"runtime":600}"#,
            r#"{"cmd":"submit","time":10,"cpu":1.0,"mem":0.5,"runtime":300}"#,
            r#"{"cmd":"node-down","time":60,"node":1}"#,
            r#"{"cmd":"node-up","time":120,"node":1}"#,
            r#"{"cmd":"drain"}"#,
        ];
        let script_suffix = [
            r#"{"cmd":"submit","time":2000,"cpu":0.5,"mem":0.25,"runtime":120}"#,
            r#"{"cmd":"submit","time":2030,"tasks":3,"cpu":0.75,"mem":0.3,"runtime":400}"#,
            r#"{"cmd":"drain"}"#,
            r#"{"cmd":"stats"}"#,
        ];
        let spec = "dynmcb8-per:t=300";

        // Uninterrupted daemon.
        let mut a = daemon(spec);
        for line in script_prefix {
            a.handle_line(line);
        }
        let a_suffix: Vec<String> = script_suffix
            .iter()
            .flat_map(|l| lines(&mut a, l))
            .collect();

        // Snapshot after the prefix, restore from the *text* form, and
        // replay the suffix: byte-identical events.
        let mut b = daemon(spec);
        for line in script_prefix {
            b.handle_line(line);
        }
        let (events, _) = b.handle_line(r#"{"cmd":"snapshot"}"#);
        let doc = events[0].get("data").unwrap();
        let mut b = Daemon::restore(&doc.pretty()).unwrap();
        let b_suffix: Vec<String> = script_suffix
            .iter()
            .flat_map(|l| lines(&mut b, l))
            .collect();

        assert_eq!(a_suffix, b_suffix);
    }

    #[test]
    fn snapshot_of_a_busy_session_is_an_error_event() {
        let mut d = daemon("fcfs");
        d.handle_line(r#"{"cmd":"submit","time":0,"cpu":0.5,"mem":0.2,"runtime":100}"#);
        let (events, _) = d.handle_line(r#"{"cmd":"snapshot"}"#);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("error"));
        assert!(events[0]
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("quiescen"));
    }

    #[test]
    fn construction_failures_are_typed() {
        let cluster = ClusterSpec::new(4, 4, 8.0).unwrap();
        let err = Daemon::new(cluster, "no-such-scheduler", SimConfig::default())
            .err()
            .unwrap();
        assert!(matches!(err, ServeError::Spec(_)), "{err}");

        let err = Daemon::restore("not json at all").err().unwrap();
        assert!(matches!(err, ServeError::Snapshot { .. }), "{err}");
        assert!(err.to_string().starts_with("snapshot:"), "{err}");

        let err = Daemon::restore("{}").err().unwrap();
        assert!(matches!(err, ServeError::Snapshot { .. }), "{err}");
        assert!(err.to_string().contains("missing scheduler spec"), "{err}");

        // A paper-table name is a label, not a spec: the restore fails
        // on the spec, typed.
        let err = Daemon::restore(r#"{"spec": "DynMCB8-per 600"}"#)
            .err()
            .unwrap();
        assert!(matches!(err, ServeError::Spec(_)), "{err}");

        // Well-formed JSON with a spec but nothing else: the session
        // rejects it with a typed SimError.
        let err = Daemon::restore(r#"{"spec": "fcfs"}"#).err().unwrap();
        assert!(
            matches!(
                err,
                ServeError::Sim(dfrs_sim::SimError::SnapshotMalformed { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn snapshot_schema_and_spec_skew_is_typed() {
        // A real snapshot with its schema or spec replaced. `restore`
        // builds the scheduler from the spec first, so a foreign schema
        // under a known spec reaches the session and ends in
        // `ServeError::Sim`; an unknown spec ends in `ServeError::Spec`,
        // whatever the schema says.
        let mut d = daemon("dynmcb8-per:t=300");
        let (events, _) = d.handle_line(r#"{"cmd":"snapshot"}"#);
        let doc = events[0].get("data").unwrap();
        let skewed = |schema: &str, spec: &str| {
            let mut v = doc.clone();
            let Value::Obj(top) = &mut v else {
                panic!("snapshot is an object")
            };
            top.insert("schema".into(), Value::Str(schema.into()));
            top.insert("spec".into(), Value::Str(spec.into()));
            Daemon::restore(&v.pretty()).err()
        };
        assert!(skewed("dfrs-snapshot-v1", "dynmcb8-per:t=300").is_none());
        for schema in ["dfrs-snapshot-v0", "dfrs-snapshot-v2"] {
            let err = skewed(schema, "dynmcb8-per:t=300").unwrap();
            assert!(
                matches!(
                    err,
                    ServeError::Sim(dfrs_sim::SimError::SnapshotMalformed { .. })
                ),
                "{schema}: {err}"
            );
            assert!(err.to_string().contains(schema), "{err}");
        }
        for schema in ["dfrs-snapshot-v0", "dfrs-snapshot-v1", "dfrs-snapshot-v2"] {
            let err = skewed(schema, "no-such-scheduler").unwrap();
            assert!(matches!(err, ServeError::Spec(_)), "{schema}: {err}");
        }
    }

    /// A batch of journaled commands is one group commit: one write and
    /// one fsync under `always`, however many lines it holds.
    #[test]
    fn a_batch_of_submits_commits_once() {
        let dir = std::env::temp_dir().join(format!("dfrs-serve-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = daemon("fcfs");
        d.attach_journal(&dir, FsyncPolicy::Always).unwrap();
        let batch: Vec<String> = (0..64)
            .map(|i| format!(r#"{{"cmd":"submit","time":{i},"cpu":0.5,"mem":0.2,"runtime":10}}"#))
            .collect();
        let out = d.handle_batch(&batch);
        assert_eq!(out.len(), 64);
        assert!(out
            .iter()
            .all(|(ev, _)| ev[0].get("event").unwrap().as_str() == Some("submitted")));
        let j = d.journal.as_ref().unwrap();
        assert_eq!(j.last_seq(), 64);
        assert_eq!(j.commit_syscalls(), (1, 1));
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_stops_the_flow() {
        let mut d = daemon("fcfs");
        let (events, flow) = d.handle_line(r#"{"cmd":"shutdown"}"#);
        assert_eq!(flow, Flow::Shutdown);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("shutdown"));
    }
}
