//! Set-up, passes and verification: everything that drives the program
//! under test, through public functions only.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dfrs_core::json::Value;
use dfrs_core::pool::WorkerPool;
use dfrs_core::JobSpec;
use dfrs_sched::{SchedulerRegistry, Sharded};
use dfrs_serve::journal::FsyncPolicy;
use dfrs_serve::Daemon;
use dfrs_sim::{
    simulate_stream, DiscardRecords, Scheduler, SimConfig, SimOutcome, SubmissionSource,
};

use crate::trace::{Probe, Timed, Tracer};
use crate::workloads::{generate, Input, SimInput, Workload};

/// Directory of the benchmark executable: inside the build directory,
/// so inside the checkout and ignored by git. Everything the benchmark
/// writes goes under it.
pub fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// A per-process scratch directory under [`exe_dir`]. Removed on drop —
/// which unwinding runs too, so a panicking run leaves nothing behind.
pub struct TempRoot {
    path: PathBuf,
    next: AtomicU32,
}

impl TempRoot {
    pub fn new() -> TempRoot {
        static SERIAL: AtomicU32 = AtomicU32::new(0);
        let path = exe_dir().join(format!(
            "dfrs-benchmark-tmp-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("scratch directory is creatable");
        TempRoot {
            path,
            next: AtomicU32::new(0),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, not yet created, sub-path (journal directories must not
    /// exist or must be empty when attached).
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{tag}-{n}"))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The program under test for one pass, freshly built.
pub enum Subject {
    Sim(Box<dyn Scheduler>),
    Serve(Box<Daemon>),
}

/// Build the scheduler or daemon `workload` runs against. With a
/// tracer, schedulers are wrapped in [`Timed`]; the sharded coordinator
/// is then assembled by hand around timed inners on a one-worker pool,
/// so inner spans nest serially inside the outer one (event-driven
/// inners never fan out, so the schedule is the registry build's).
pub fn prepare(
    workload: Workload,
    journal: Option<&Path>,
    tracing: Option<(&Tracer, &Arc<Mutex<Probe>>)>,
) -> Subject {
    let registry = SchedulerRegistry::builtin();
    let build = |spec: &str| registry.build_str(spec).expect("builtin spec");
    if workload == Workload::ServeJournal {
        let mut d = Daemon::new(workload.cluster(), workload.spec(), SimConfig::default())
            .expect("builtin spec");
        if let Some(dir) = journal {
            d.attach_journal(dir, FsyncPolicy::Always)
                .expect("fresh journal directory");
        }
        return Subject::Serve(Box::new(d));
    }
    let Some((tracer, probe)) = tracing else {
        return Subject::Sim(build(workload.spec()));
    };
    let sched: Box<dyn Scheduler> = match workload.sharded() {
        None => Box::new(Timed::new(
            build(workload.spec()),
            tracer,
            "sched.on_event",
            Some(probe.clone()),
        )),
        Some((inner, shards)) => {
            const INNER_SPANS: [&str; 8] = [
                "sharded.inner.0",
                "sharded.inner.1",
                "sharded.inner.2",
                "sharded.inner.3",
                "sharded.inner.4",
                "sharded.inner.5",
                "sharded.inner.6",
                "sharded.inner.7",
            ];
            let inners = INNER_SPANS[..shards]
                .iter()
                .map(|&span| {
                    Box::new(Timed::new(build(inner), tracer, span, Some(probe.clone())))
                        as Box<dyn Scheduler>
                })
                .collect();
            let coordinator = Sharded::new(inners).with_pool(Arc::new(WorkerPool::new(1)));
            Box::new(Timed::new(
                Box::new(coordinator),
                tracer,
                "sched.on_event",
                None,
            ))
        }
    };
    Subject::Sim(sched)
}

/// What one pass measured.
pub struct Pass {
    pub wall_s: f64,
    /// `SimOutcome.events_processed` (sim) or command lines (serve).
    pub events: u64,
    /// Jobs submitted (sim) or command lines sent (serve).
    pub ops: u64,
    /// Jobs not completed; `error` events, unanswered lines and
    /// unrecorded jobs.
    pub failed: u64,
    /// Bits of everything simulated that must repeat exactly.
    pub fingerprint: String,
    pub max_stretch: f64,
    /// Host milliseconds per batch of submissions / command lines.
    pub batches_ms: Vec<f64>,
    pub outcome: Option<SimOutcome>,
    /// Serve only: response events rendered, and `error` events among them.
    pub response_events: u64,
    pub errors: u64,
}

impl Pass {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// Submission source that timestamps every `every`-th pull: the time
/// between two stamps is the host time the engine took to absorb one
/// batch of submissions (admission, scheduling, and every completion
/// that fell in between).
struct BatchClock<I> {
    inner: I,
    every: usize,
    pulled: usize,
    mark: Instant,
    batches_ms: Vec<f64>,
}

impl<I: Iterator<Item = JobSpec>> SubmissionSource for BatchClock<I> {
    fn next_job(&mut self) -> Option<JobSpec> {
        if self.pulled.is_multiple_of(self.every) {
            let now = Instant::now();
            if self.pulled > 0 {
                self.batches_ms
                    .push(now.duration_since(self.mark).as_secs_f64() * 1e3);
            }
            self.mark = now;
        }
        self.pulled += 1;
        self.inner.next()
    }
}

fn sim_fingerprint(o: &SimOutcome) -> String {
    format!(
        "max={:016x} mean={:016x} mk={:016x} migr={} pre={} ev={} done={}",
        o.max_stretch.to_bits(),
        o.mean_stretch.to_bits(),
        o.makespan.to_bits(),
        o.migration_count,
        o.preemption_count,
        o.events_processed,
        o.jobs_completed,
    )
}

fn sim_pass(
    workload: Workload,
    input: &SimInput,
    scheduler: &mut dyn Scheduler,
    limit: usize,
    batch: usize,
    validate: bool,
    tracer: Option<&Tracer>,
) -> Pass {
    let config = SimConfig {
        validate,
        ..SimConfig::default()
    };
    let ops = input.len().min(limit) as u64;
    let root = tracer.map(|t| (t, t.name("sim.pass")));
    let start = Instant::now();
    let mut source = BatchClock {
        inner: input.feed(limit),
        every: batch,
        pulled: 0,
        mark: start,
        batches_ms: Vec::with_capacity(ops as usize / batch + 1),
    };
    if let Some((t, root)) = root {
        t.begin(root);
    }
    let result = simulate_stream(
        workload.cluster(),
        &mut source,
        &mut DiscardRecords,
        scheduler,
        &config,
    );
    if let Some(t) = tracer {
        t.end();
    }
    let wall_s = start.elapsed().as_secs_f64();
    let batches_ms = std::mem::take(&mut source.batches_ms);
    drop(source);
    match result {
        Ok(o) => Pass {
            wall_s,
            events: o.events_processed,
            ops,
            failed: ops.saturating_sub(o.jobs_completed),
            fingerprint: sim_fingerprint(&o),
            max_stretch: o.max_stretch,
            batches_ms,
            outcome: Some(o),
            response_events: 0,
            errors: 0,
        },
        // An engine error (deadlock, rejected plan under `validate`)
        // fails every operation of the pass.
        Err(e) => Pass {
            wall_s,
            events: 1,
            ops,
            failed: ops,
            fingerprint: format!("error: {e}"),
            max_stretch: f64::NAN,
            batches_ms,
            outcome: None,
            response_events: 0,
            errors: 0,
        },
    }
}

/// The daemon's `stats` line — the state summary daemons are compared by.
pub fn daemon_stats(d: &mut Daemon) -> String {
    d.handle_line(r#"{"cmd":"stats"}"#).0[0].compact()
}

fn serve_pass(d: &mut Daemon, script: &[String], batch: usize, tracer: Option<&Tracer>) -> Pass {
    let spans = tracer.map(|t| {
        (
            t,
            t.name("serve.pass"),
            t.name("serve.handle_batch"),
            t.name("json.render"),
        )
    });
    let (mut submits, mut acks, mut records) = (0u64, 0u64, 0u64);
    let (mut response_events, mut errors, mut unanswered) = (0u64, 0u64, 0u64);
    let mut max_stretch = 0.0f64;
    let mut batches_ms = Vec::with_capacity(script.len() / batch + 1);
    let start = Instant::now();
    if let Some((t, root, _, _)) = spans {
        t.begin(root);
    }
    for chunk in script.chunks(batch) {
        let mark = Instant::now();
        if let Some((t, _, handle, _)) = spans {
            t.begin(handle);
        }
        let out = d.handle_batch(chunk);
        if let Some((t, _, _, render)) = spans {
            t.end();
            t.begin(render);
        }
        unanswered += (chunk.len() - out.len()) as u64;
        for event in out.iter().flat_map(|(events, _)| events) {
            // A client would put every response on the wire.
            black_box(event.compact());
            response_events += 1;
            match event.get("event").and_then(Value::as_str) {
                Some("error") => errors += 1,
                Some("submitted") => acks += 1,
                Some("record") => {
                    records += 1;
                    let s = event.get("stretch").and_then(Value::as_f64);
                    max_stretch = max_stretch.max(s.unwrap_or(f64::NAN));
                }
                _ => {}
            }
        }
        if let Some((t, ..)) = spans {
            t.end();
        }
        if chunk.len() == batch {
            batches_ms.push(mark.elapsed().as_secs_f64() * 1e3);
        }
        submits += chunk.iter().filter(|l| l.contains(r#""submit""#)).count() as u64;
    }
    if let Some((t, ..)) = spans {
        t.end();
    }
    let wall_s = start.elapsed().as_secs_f64();
    let lines = script.len() as u64;
    Pass {
        wall_s,
        events: lines,
        ops: lines,
        failed: errors
            + unanswered
            + (submits - acks.min(submits))
            + (submits - records.min(submits)),
        fingerprint: format!(
            "{} max={:016x} records={records}",
            daemon_stats(d),
            max_stretch.to_bits()
        ),
        max_stretch,
        batches_ms,
        outcome: None,
        response_events,
        errors,
    }
}

/// Replay the first `limit` operations of `input` against `subject`.
/// Only this call is timed as a pass.
pub fn run(
    workload: Workload,
    input: &Input,
    subject: &mut Subject,
    limit: usize,
    smoke: bool,
    validate: bool,
    tracer: Option<&Tracer>,
) -> Pass {
    let batch = workload.params(smoke).batch;
    match (input, subject) {
        (Input::Sim(sim), Subject::Sim(s)) => {
            sim_pass(workload, sim, s.as_mut(), limit, batch, validate, tracer)
        }
        (Input::Serve(script), Subject::Serve(d)) => {
            serve_pass(d, &script[..script.len().min(limit)], batch, tracer)
        }
        _ => unreachable!("prepare() and generate() agree on the workload kind"),
    }
}

/// One set-up: what `setup_s` times, split into its parts.
pub struct Setup {
    pub input: Input,
    pub total_s: f64,
    pub gen_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
    pub recover_s: f64,
    pub recover_cmds: u64,
}

/// Generate the input, build the program under test, and run one
/// untimed warm-up pass over the input's prefix. For `serve-journal`
/// the warm-up writes a journal and set-up ends with `Daemon::recover`
/// of it: restart cost is the daemon's set-up.
pub fn set_up(workload: Workload, seed: u64, smoke: bool, tmp: &TempRoot) -> Setup {
    let start = Instant::now();
    let input = generate(workload, seed, smoke);
    let gen_s = start.elapsed().as_secs_f64();

    let journal = (workload == Workload::ServeJournal).then(|| tmp.fresh("setup-journal"));
    let mark = Instant::now();
    let mut subject = prepare(workload, journal.as_deref(), None);
    let build_s = mark.elapsed().as_secs_f64();

    let mark = Instant::now();
    let warmup = workload.params(smoke).warmup;
    run(workload, &input, &mut subject, warmup, smoke, false, None);
    let warmup_s = mark.elapsed().as_secs_f64();

    let (mut recover_s, mut recover_cmds) = (0.0, 0);
    if let Some(dir) = &journal {
        drop(subject); // closes the journal: its writer drains and joins
        let mark = Instant::now();
        let (_daemon, recovery) =
            Daemon::recover(dir, FsyncPolicy::Always).expect("warm-up journal recovers");
        recover_s = mark.elapsed().as_secs_f64();
        recover_cmds = recovery.replayed;
    }
    let total_s = start.elapsed().as_secs_f64();
    if let Some(dir) = &journal {
        let _ = std::fs::remove_dir_all(dir);
    }
    Setup {
        input,
        total_s,
        gen_s,
        build_s,
        warmup_s,
        recover_s,
        recover_cmds,
    }
}

/// Correctness beyond the passes' own counts, outside every timing.
/// Sim workloads replay a prefix twice, plain and with
/// `SimConfig.validate` (every plan and every state invariant checked),
/// and the two must agree; `serve-journal` drives the prefix through a
/// journaled, a journal-less and a recovered daemon, which must return
/// byte-identical `stats`. Returns the mismatch, if any.
pub fn verify(
    workload: Workload,
    input: &Input,
    smoke: bool,
    tmp: &TempRoot,
) -> Result<(), String> {
    let prefix = workload.params(smoke).verify;
    let replay = |journal: Option<&Path>, validate: bool| {
        let mut subject = prepare(workload, journal, None);
        let pass = run(workload, input, &mut subject, prefix, smoke, validate, None);
        (pass.fingerprint, subject)
    };
    if workload != Workload::ServeJournal {
        let (plain, _) = replay(None, false);
        let (checked, _) = replay(None, true);
        return if plain == checked {
            Ok(())
        } else {
            Err(format!("validated prefix {checked} != plain {plain}"))
        };
    }
    let dir = tmp.fresh("verify-journal");
    let (journaled, daemon) = replay(Some(&dir), false);
    let (plain, _) = replay(None, false);
    drop(daemon); // closes the journal
    let recovered = Daemon::recover(&dir, FsyncPolicy::Always)
        .map(|(mut d, _)| daemon_stats(&mut d))
        .map_err(|e| format!("verify journal did not recover: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    let recovered = recovered?;
    if journaled != plain {
        return Err(format!(
            "journaled daemon {journaled} != journal-less {plain}"
        ));
    }
    // Pass fingerprints lead with the daemon's `stats` line; the
    // recovered daemon rendered no records, so compare that line.
    if !journaled.starts_with(&recovered) {
        return Err(format!(
            "recovered daemon {recovered} != journaled {journaled}"
        ));
    }
    Ok(())
}
