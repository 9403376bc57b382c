//! `benchmark` — the repo's benchmark (README.md in this directory,
//! contract in `/BENCHMARK.json`).
//!
//! One run is one workload in one process:
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! benchmark --all [--runs N] [same options]                 # child process per run
//! benchmark --compare A.json B.json                            # two --all --out files
//! ```
//!
//! A plain run (`--trace 0`) sets up, replays the generated input in
//! timed passes until `--seconds` have elapsed, verifies, and prints
//! the six end-to-end metrics. A traced run (`--trace 1`) wraps the
//! program under test in spans and prints every per-layer metric. The
//! last line of standard output is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when `correct`.

mod compare;
mod layers;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dfrs_core::json::{obj, Value};

use layers::Rows;
use measure::{exe_dir, prepare, run, set_up, verify, Pass, Setup, TempRoot};
use metrics::{END_TO_END, PER_LAYER};
use stats::{canary_ms, iqr_share, median, percentile_sorted};
use trace::{Probe, Tracer};
use workloads::{Input, Workload};

/// The contract this program is written to; a unit test checks it
/// against [`metrics`].
#[cfg(test)]
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Default `--seconds`; equals `run_seconds` in `/BENCHMARK.json`.
const RUN_SECONDS: f64 = 16.0;

/// Set-ups per plain run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// A pass is marked noisy when its canary is this far off the run's median.
const NOISY_CANARY: f64 = 0.2;

/// Schema tag of a run document (`--out`).
const RUN_SCHEMA: &str = "dfrs-benchmark-run-v1";

/// Schema tag of a set of run documents (`--all --out`).
const SET_SCHEMA: &str = "dfrs-benchmark-set-v1";

struct Opts {
    workload: Option<Workload>,
    all: bool,
    runs: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str =
    "usage: benchmark --workload <stream-fcfs|lublin-dynmcb8|gpu-drf|huge-sharded|serve-journal> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       benchmark --all [--runs N] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       benchmark --compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        all: false,
        runs: 1,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    let value = |flag: &str, v: Option<&String>| {
        v.cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(arg, it.next())?;
                o.workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                o.seed = value(arg, it.next())?
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number\n{USAGE}"))?
            }
            "--seconds" => {
                o.seconds = value(arg, it.next())?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number\n{USAGE}"))?
            }
            "--runs" => {
                o.runs = value(arg, it.next())?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--runs needs a count of at least 1\n{USAGE}"))?
            }
            // `--trace 0|1` for the driver; a bare `--trace` means 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    o.trace = false;
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--out" => o.out = Some(PathBuf::from(value(arg, it.next())?)),
            "--all" => o.all = true,
            "--smoke" => o.smoke = true,
            "--compare" => {
                let a = value(arg, it.next())?;
                let b = value(arg, it.next())?;
                o.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if o.compare.is_none() && o.all == o.workload.is_some() {
        return Err(format!(
            "give exactly one of --workload, --all, --compare\n{USAGE}"
        ));
    }
    Ok(o)
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// IQR/median over the run's passes, for timings taken per pass.
    spread: Option<f64>,
}

/// Everything one run reports.
struct RunDoc {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tally: Tally,
    passes: usize,
    noisy_passes: usize,
    /// `(events_per_s, canary ms)` of every pass, in order.
    pass_log: Vec<(f64, f64)>,
    fingerprint: String,
    verify_s: f64,
    metrics: Vec<Metric>,
    /// Per-layer values that need no tracing (the † names of the
    /// README), reported by plain runs beside the end-to-end metrics.
    parts: Rows,
}

impl RunDoc {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.problems.is_empty()
    }

    fn metrics_json(&self, with_spread: bool) -> Value {
        obj(self.metrics.iter().map(|m| {
            let mut pairs = vec![
                ("value".to_string(), Value::Num(m.value)),
                ("unit".to_string(), Value::Str(m.unit.into())),
            ];
            if let (true, Some(s)) = (with_spread, m.spread) {
                pairs.push(("spread".to_string(), Value::Num(s)));
            }
            (m.name.to_string(), obj(pairs))
        }))
    }

    /// The line the acceptance driver reads.
    fn driver_line(&self) -> String {
        obj([
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Num(self.tally.attempted as f64),
            ),
            ("failed".to_string(), Value::Num(self.tally.failed as f64)),
            ("metrics".to_string(), self.metrics_json(false)),
        ])
        .compact()
    }

    fn to_json(&self) -> Value {
        let p = self.workload.params(self.smoke);
        let num = |x: usize| Value::Num(x as f64);
        obj([
            ("schema".to_string(), Value::Str(RUN_SCHEMA.into())),
            (
                "workload".to_string(),
                Value::Str(self.workload.name().into()),
            ),
            ("seed".to_string(), Value::Num(self.seed as f64)),
            ("seconds".to_string(), Value::Num(self.seconds)),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("smoke".to_string(), Value::Bool(self.smoke)),
            (
                "host".to_string(),
                obj([
                    (
                        "threads".to_string(),
                        num(dfrs_core::pool::available_threads()),
                    ),
                    (
                        "pool_workers".to_string(),
                        num(dfrs_core::pool::global().workers()),
                    ),
                    ("cpu".to_string(), Value::Str(stats::cpu_model())),
                    ("git_rev".to_string(), Value::Str(stats::git_rev())),
                ]),
            ),
            (
                "constants".to_string(),
                obj([
                    ("spec".to_string(), Value::Str(self.workload.spec().into())),
                    ("ops".to_string(), num(p.ops)),
                    ("batch".to_string(), num(p.batch)),
                    ("warmup".to_string(), num(p.warmup)),
                    ("verify".to_string(), num(p.verify)),
                ]),
            ),
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Num(self.tally.attempted as f64),
            ),
            ("failed".to_string(), Value::Num(self.tally.failed as f64)),
            (
                "problems".to_string(),
                Value::Arr(
                    self.tally
                        .problems
                        .iter()
                        .cloned()
                        .map(Value::Str)
                        .collect(),
                ),
            ),
            ("passes".to_string(), num(self.passes)),
            ("noisy_passes".to_string(), num(self.noisy_passes)),
            (
                "pass_log".to_string(),
                Value::Arr(
                    self.pass_log
                        .iter()
                        .map(|(r, c)| Value::Arr(vec![Value::Num(*r), Value::Num(*c)]))
                        .collect(),
                ),
            ),
            (
                "fingerprint".to_string(),
                Value::Str(self.fingerprint.clone()),
            ),
            ("verify_s".to_string(), Value::Num(self.verify_s)),
            ("metrics".to_string(), self.metrics_json(true)),
            (
                "parts".to_string(),
                obj(self
                    .parts
                    .iter()
                    .map(|(name, v)| (name.to_string(), Value::Num(*v)))),
            ),
        ])
    }

    fn print(&self) {
        println!(
            "# {} seed={} trace={} passes={} noisy_passes={} ops_attempted={} ops_failed={} verify_s={:.3}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.passes,
            self.noisy_passes,
            self.tally.attempted,
            self.tally.failed,
            self.verify_s,
        );
        println!("# fingerprint {}", self.fingerprint);
        for (i, (rate, canary)) in self.pass_log.iter().enumerate() {
            println!(
                "# pass {} events_per_s {rate:.3} canary {canary:.4} ms",
                i + 1
            );
        }
        for p in &self.tally.problems {
            println!("# PROBLEM {p}");
        }
        for m in &self.metrics {
            match m.spread {
                Some(s) => println!(
                    "{:<36} {:>16.6} {:<6} pass spread {:.2}%",
                    m.name,
                    m.value,
                    m.unit,
                    s * 100.0
                ),
                None => println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit),
            }
        }
        for (name, v) in &self.parts {
            println!("  {name:<34} {v:>16.6}");
        }
    }
}

/// Per-layer values that are exact or need no spans: the parts of a
/// set-up and the counts of an untraced pass.
fn untraced_parts(setup: &Setup, pass: &Pass) -> Rows {
    let mut rows: Rows = vec![
        ("workload.gen_s", setup.gen_s),
        ("sched.build_s", setup.build_s),
        ("sim.warmup_s", setup.warmup_s),
        ("serve.recover_s", setup.recover_s),
        (
            "serve.recover_cmds_per_s",
            // 0 for workloads without a journal.
            if setup.recover_s > 0.0 {
                setup.recover_cmds as f64 / setup.recover_s
            } else {
                0.0
            },
        ),
        ("pool.workers", dfrs_core::pool::global().workers() as f64),
        ("serve.response_events", pass.response_events as f64),
        ("serve.errors", pass.errors as f64),
    ];
    let Some(o) = &pass.outcome else { return rows };
    rows.extend([
        ("sim.events", o.events_processed as f64),
        ("sim.sched_calls", o.sched_calls as f64),
        ("sim.peak_live_jobs", o.peak_live_jobs as f64),
        ("sim.peak_resident_jobs", o.peak_resident_jobs as f64),
        ("sim.migrations", o.migration_count as f64),
        ("sim.preemptions", o.preemption_count as f64),
        ("sim.mean_stretch", o.mean_stretch),
        ("sim.makespan_s", o.makespan),
        (
            "sched.decision_mean_us",
            o.sched_wall_total * 1e6 / o.sched_calls.max(1) as f64,
        ),
    ]);
    if let Some(r) = o.repack {
        rows.extend([
            ("packing.searches", r.searches as f64),
            ("packing.packs", r.packs as f64),
            (
                "packing.packs_per_search",
                r.packs as f64 / r.searches.max(1) as f64,
            ),
            ("packing.memo_search_hits", r.search_hits as f64),
            (
                "packing.memo_hit_ratio",
                r.search_hits as f64 / r.searches.max(1) as f64,
            ),
            ("packing.memo_packs_saved", r.packs_saved as f64),
        ]);
    }
    rows
}

/// One timed pass against a freshly built scheduler/daemon, with the
/// canary read before and after. Building and tearing down (journal
/// directory included) are outside the pass's clock.
fn canaried_pass(
    workload: Workload,
    input: &Input,
    smoke: bool,
    tmp: &TempRoot,
    tracing: Option<(&Tracer, &std::sync::Arc<std::sync::Mutex<Probe>>)>,
) -> (Pass, f64) {
    let before = canary_ms();
    let journal = (workload == Workload::ServeJournal).then(|| tmp.fresh("pass-journal"));
    let mut subject = prepare(workload, journal.as_deref(), tracing);
    let pass = run(
        workload,
        input,
        &mut subject,
        usize::MAX,
        smoke,
        false,
        tracing.map(|(t, _)| t),
    );
    drop(subject);
    if let Some(dir) = journal {
        let _ = std::fs::remove_dir_all(dir);
    }
    (pass, (before + canary_ms()) / 2.0)
}

/// Every full batch of every pass, ascending. `batch_p50_ms` and
/// `batch_p99_ms` are percentiles of this pool, so a stall counts
/// whether or not it recurs at the same batch of every pass.
fn pooled_batches(passes: &[Pass]) -> Vec<f64> {
    let mut pool: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.batches_ms.iter().copied())
        .collect();
    pool.sort_by(f64::total_cmp);
    pool
}

/// Whether `rounds` rounds of passes taking `elapsed` seconds so far
/// are the count that brings the timed total closest to `seconds`: one
/// more round is run only if it would overshoot by less than stopping
/// now undershoots.
fn budget_spent(elapsed: f64, rounds: usize, seconds: f64) -> bool {
    elapsed + 0.5 * elapsed / rounds as f64 >= seconds
}

/// Passes whose canary is more than [`NOISY_CANARY`] off the median.
/// They are counted and printed, never dropped, and no metric is
/// normalized by the canary.
fn noisy_passes(canaries: &[f64]) -> usize {
    let med = median(canaries);
    canaries
        .iter()
        .filter(|c| (*c - med).abs() > NOISY_CANARY * med)
        .count()
}

/// Operations attempted and failed over a run, and why any failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// One line per failure cause.
    problems: Vec<String>,
}

impl Tally {
    /// Count the passes' operations; a pass whose fingerprint differs
    /// from the first fails whole.
    fn passes(&mut self, passes: &[&Pass]) {
        for (i, p) in passes.iter().enumerate() {
            self.attempted += p.ops;
            if p.fingerprint != passes[0].fingerprint {
                self.failed += p.ops;
                self.problems.push(format!(
                    "pass {} fingerprint {} differs from pass 1 {}",
                    i + 1,
                    p.fingerprint,
                    passes[0].fingerprint
                ));
            } else if p.failed > 0 {
                self.failed += p.failed;
                self.problems
                    .push(format!("pass {}: {} operations failed", i + 1, p.failed));
            }
        }
    }

    /// Run `verify` and count its prefix; returns its wall time.
    fn verify(&mut self, workload: Workload, input: &Input, smoke: bool, tmp: &TempRoot) -> f64 {
        let start = Instant::now();
        let ops = workload.params(smoke).verify as u64;
        self.attempted += ops;
        if let Err(e) = verify(workload, input, smoke, tmp) {
            self.failed += ops;
            self.problems.push(format!("verify: {e}"));
        }
        start.elapsed().as_secs_f64()
    }
}

/// The plain run: end-to-end metrics, tracing off.
fn run_plain(workload: Workload, seed: u64, seconds: f64, smoke: bool) -> RunDoc {
    let tmp = TempRoot::new();
    let reps = if smoke { 1 } else { SETUP_REPS };
    let mut setup_totals = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // One generated input alive at a time: `peak_rss_mb` is the
        // workload's, not the repetition count's.
        drop(last.take());
        let setup = set_up(workload, seed, smoke, &tmp);
        setup_totals.push(setup.total_s);
        last = Some(setup);
    }
    let setup = &last.expect("at least one set-up");

    let (mut passes, mut canaries) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    loop {
        let (pass, canary) = canaried_pass(workload, &setup.input, smoke, &tmp, None);
        passes.push(pass);
        canaries.push(canary);
        if smoke || budget_spent(clock.elapsed().as_secs_f64(), passes.len(), seconds) {
            break;
        }
    }
    let peak_rss_mb = stats::peak_rss_mb();

    let mut tally = Tally::default();
    tally.passes(&passes.iter().collect::<Vec<_>>());
    let verify_s = tally.verify(workload, &setup.input, smoke, &tmp);

    let rates: Vec<f64> = passes.iter().map(Pass::events_per_s).collect();
    let batches = pooled_batches(&passes);
    // Per-pass medians give `batch_p50_ms` a pass spread too.
    let pass_p50: Vec<f64> = passes.iter().map(|p| median(&p.batches_ms)).collect();
    let values = [
        (median(&setup_totals), Some(iqr_share(&setup_totals))),
        (median(&rates), Some(iqr_share(&rates))),
        (percentile_sorted(&batches, 0.5), Some(iqr_share(&pass_p50))),
        (percentile_sorted(&batches, 0.99), None),
        (peak_rss_mb, None),
        (passes[0].max_stretch, None),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, spread))| Metric {
            name: def.name,
            unit: def.unit,
            value,
            spread,
        })
        .collect();

    let mut parts = untraced_parts(setup, &passes[0]);
    parts.push(("host.spin_ms_p50", median(&canaries)));
    parts.push(("host.spin_ms_spread", iqr_share(&canaries)));
    parts.push(("batches_pooled", batches.len() as f64));
    RunDoc {
        workload,
        seed,
        seconds,
        trace: false,
        smoke,
        tally,
        passes: passes.len(),
        noisy_passes: noisy_passes(&canaries),
        pass_log: rates
            .iter()
            .copied()
            .zip(canaries.iter().copied())
            .collect(),
        fingerprint: passes[0].fingerprint.clone(),
        verify_s,
        metrics,
        parts,
    }
}

/// The traced run: pairs of an untraced and a traced pass (their ratio
/// is the tracing overhead), then the per-layer measurements. Prints
/// every per-layer metric and writes `trace-<workload>.json` next to
/// the executable.
fn run_traced(workload: Workload, seed: u64, seconds: f64, smoke: bool) -> RunDoc {
    let tmp = TempRoot::new();
    let setup = set_up(workload, seed, smoke, &tmp);
    let tracer = Tracer::new();
    let probe = Probe::new(workload.packs());

    let (mut plain, mut traced, mut canaries) = (Vec::new(), Vec::new(), Vec::new());
    let clock = Instant::now();
    loop {
        let (pass, canary) = canaried_pass(workload, &setup.input, smoke, &tmp, None);
        plain.push(pass);
        canaries.push(canary);
        tracer.set_pass(traced.len() as u32);
        let (pass, canary) =
            canaried_pass(workload, &setup.input, smoke, &tmp, Some((&tracer, &probe)));
        traced.push(pass);
        canaries.push(canary);
        // Half the budget goes to the passes, the rest to the layers.
        if smoke || budget_spent(clock.elapsed().as_secs_f64(), traced.len(), seconds / 2.0) {
            break;
        }
    }

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let mut tally = Tally::default();
    tally.passes(&all);
    let verify_s = tally.verify(workload, &setup.input, smoke, &tmp);

    let n = traced.len() as f64;
    let mut rows = untraced_parts(&setup, &plain[0]);
    let root = if workload == Workload::ServeJournal {
        "serve.pass"
    } else {
        "sim.pass"
    };
    let pass_total_s = tracer.with_stats(root, |s| s.total_s()).unwrap_or(0.0);
    let pass_self_s = tracer.with_stats(root, |s| s.self_s()).unwrap_or(0.0);
    let events = traced[0].events.max(1) as f64;
    if workload != Workload::ServeJournal {
        rows.extend([
            ("sim.engine_self_s", pass_self_s / n),
            ("sim.engine_self_share", pass_self_s / pass_total_s),
            (
                "sim.engine_self_us_per_event",
                pass_self_s / n * 1e6 / events,
            ),
        ]);
    }
    // The sharded workload's inner wrappers sample job sets inside the
    // coordinator's span (elsewhere sampling precedes the span): that
    // time is the benchmark's, not the scheduler's.
    let capture_in_sched_s = if workload.sharded().is_some() {
        tracer
            .with_stats("trace.capture", |s| s.total_s())
            .unwrap_or(0.0)
    } else {
        0.0
    };
    let (sched_busy_s, sched_self_s) = tracer
        .with_stats("sched.on_event", |s| {
            let busy_s = s.total_s() - capture_in_sched_s;
            rows.extend([
                ("sched.busy_s", busy_s / n),
                ("sched.share", busy_s / pass_total_s),
                ("sched.decision_p50_us", s.hist.quantile(0.5)),
                ("sched.decision_p99_us", s.hist.quantile(0.99)),
                ("sched.decision_max_us", s.max_ns as f64 * 1e-3),
            ]);
            (busy_s, s.self_s())
        })
        .unwrap_or((0.0, 0.0));
    tracer.with_stats("serve.handle_batch", |s| {
        rows.extend([
            ("serve.busy_s", s.total_s() / n),
            ("serve.share", s.total_s() / pass_total_s),
        ]);
    });
    tracer.with_stats("json.render", |s| {
        rows.push(("json.render_share", s.total_s() / pass_total_s));
    });
    let inners = tracer.totals_with_prefix("sharded.inner.");
    if !inners.is_empty() {
        let inner_s: f64 = inners.iter().map(|(_, s)| s).sum();
        let calls: Vec<f64> = inners.iter().map(|(c, _)| *c as f64).collect();
        let mean_calls = calls.iter().sum::<f64>() / calls.len() as f64;
        // The outer span's self time: its children are the inner spans
        // and the sampling spans.
        let coord_s = sched_self_s;
        rows.extend([
            ("sharded.outer_busy_s", sched_busy_s / n),
            ("sharded.inner_busy_s", inner_s / n),
            ("sharded.coord_self_s", coord_s / n),
            ("sharded.coord_self_share", coord_s / pass_total_s),
            (
                "sharded.coord_self_us_per_event",
                coord_s / n * 1e6 / events,
            ),
            ("sharded.inner_calls", calls.iter().sum::<f64>() / n),
            (
                "sharded.shard_imbalance_ratio",
                calls.iter().copied().fold(0.0, f64::max) / mean_calls.max(1.0),
            ),
        ]);
    }
    {
        let probe = probe.lock().expect("passes are over");
        rows.push(("sched.jobs_in_system_p50", probe.jobs_in_system_p50()));
        rows.extend(layers::packing_replay(&probe.sets.items, workload.packs()));
    }
    rows.extend(layers::pool_roundtrip());
    if let Input::Serve(script) = &setup.input {
        rows.extend(layers::serve_layers(
            script,
            workload.params(smoke).batch,
            traced[0].wall_s,
            tmp.path(),
        ));
    }
    let rate = |ps: &[Pass]| median(&ps.iter().map(Pass::events_per_s).collect::<Vec<_>>());
    rows.extend([
        ("trace.overhead_ratio", rate(&plain) / rate(&traced)),
        ("trace.spans_recorded", tracer.spans_recorded() as f64 / n),
        ("host.spin_ms_p50", median(&canaries)),
        ("host.spin_ms_spread", iqr_share(&canaries)),
    ]);

    let values: BTreeMap<&str, f64> = rows.into_iter().collect();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            // A layer this workload never enters did no work.
            value: values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
            spread: None,
        })
        .collect();

    let path = exe_dir().join(format!("trace-{}.json", workload.name()));
    match std::fs::write(&path, tracer.to_json().pretty()) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({}: {e})", path.display()),
    }
    RunDoc {
        workload,
        seed,
        seconds,
        trace: true,
        smoke,
        tally,
        passes: all.len(),
        noisy_passes: noisy_passes(&canaries),
        // Untraced and traced passes alternate, as run.
        pass_log: plain
            .iter()
            .zip(&traced)
            .flat_map(|(p, t)| [p.events_per_s(), t.events_per_s()])
            .zip(canaries.iter().copied())
            .collect(),
        fingerprint: plain[0].fingerprint.clone(),
        verify_s,
        metrics,
        parts: Vec::new(),
    }
}

fn run_one(o: &Opts, workload: Workload) -> RunDoc {
    if o.trace {
        run_traced(workload, o.seed, o.seconds, o.smoke)
    } else {
        run_plain(workload, o.seed, o.seconds, o.smoke)
    }
}

/// `--all`: every workload as a sequential child process (so each
/// `peak_rss_mb` is that workload's own), `--runs` times over.
fn run_all(o: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let tmp = TempRoot::new();
    let mut docs = Vec::new();
    let mut all_correct = true;
    for _ in 0..o.runs {
        for w in Workload::ALL {
            let out = tmp.fresh("run");
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if o.smoke {
                cmd.arg("--smoke");
            }
            // `status()` waits for the child to end.
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&out)
                .map_err(|e| format!("{} wrote no run document: {e}", w.name()))?;
            docs.push(dfrs_core::json::parse(&text).map_err(|e| e.to_string())?);
        }
    }
    if let Some(path) = &o.out {
        let set = obj([
            ("schema".to_string(), Value::Str(SET_SCHEMA.into())),
            ("runs".to_string(), Value::Arr(docs)),
        ]);
        std::fs::write(path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &opts.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare refused: {e}");
                ExitCode::from(2)
            }
        };
    }
    if opts.all {
        return match run_all(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let workload = opts.workload.expect("parse_args checked");
    let doc = run_one(&opts, workload);
    doc.print();
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, doc.to_json().pretty()) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", doc.driver_line());
    if doc.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for n in names {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = dfrs_core::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let list = |k: &str| doc.get(k).and_then(Value::as_arr).unwrap().to_vec();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(
            workloads,
            Workload::ALL.iter().map(|w| w.name()).collect::<Vec<_>>()
        );
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), def.name);
            assert_eq!(field(j, "unit"), def.unit);
            assert_eq!(field(j, "better"), def.better);
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(def.bound));
            assert!(def.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (def.0.to_string(), def.1.to_string(), def.2.to_string())
            );
        }
    }

    /// Every workload, smoke scale, plain and traced: all metrics
    /// present with their units, correct, fingerprints equal between
    /// the two runs, and the same seed reproduces the fingerprint.
    #[test]
    fn smoke_runs_emit_every_metric_and_repeat() {
        for w in Workload::ALL {
            let plain = run_plain(w, 7, 1.0, true);
            assert!(plain.correct(), "{}: {:?}", w.name(), plain.tally.problems);
            assert!(plain.tally.attempted >= 1 && plain.tally.failed == 0);
            let line = dfrs_core::json::parse(&plain.driver_line()).unwrap();
            let metrics = line.get("metrics").unwrap();
            for def in &END_TO_END {
                let m = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{}", def.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name(), def.name);
            }
            assert_eq!(metrics.as_obj().unwrap().len(), END_TO_END.len());

            let traced = run_traced(w, 7, 1.0, true);
            assert!(
                traced.correct(),
                "{}: {:?}",
                w.name(),
                traced.tally.problems
            );
            assert_eq!(traced.fingerprint, plain.fingerprint, "{}", w.name());
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let busy = traced
                .metrics
                .iter()
                .find(|m| m.name == "trace.spans_recorded")
                .unwrap();
            assert!(busy.value > 0.0, "{} recorded no span", w.name());
        }
    }

    #[test]
    fn seed_decides_the_input() {
        for w in Workload::ALL {
            let input = |seed| match workloads::generate(w, seed, true) {
                Input::Sim(s) => s.feed(usize::MAX).map(|j| format!("{j:?}")).collect(),
                Input::Serve(lines) => lines,
            };
            assert!(input(3) == input(3), "{}", w.name());
            // The pinned Lublin traces are the one input `--seed` does
            // not reach (workloads.rs, `generate`).
            let pinned = matches!(w, Workload::LublinDynmcb8 | Workload::GpuDrf);
            assert_eq!(input(3) == input(4), pinned, "{}", w.name());
        }
    }

    #[test]
    fn scratch_directories_are_removed_on_exit_and_on_panic() {
        let kept = {
            let tmp = TempRoot::new();
            std::fs::create_dir_all(tmp.fresh("journal")).unwrap();
            tmp.path().to_path_buf()
        };
        assert!(!kept.exists());
        let seen = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(|| {
            let tmp = TempRoot::new();
            std::fs::create_dir_all(tmp.fresh("journal")).unwrap();
            *seen.lock().unwrap() = Some(tmp.path().to_path_buf());
            panic!("a run dies mid-pass");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().take().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn argument_errors_are_reported() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "gpu-drf", "--all"]).is_err());
        let o = parse(&[
            "--workload",
            "gpu-drf",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(o.trace && o.seed == 9 && o.seconds == 2.0);
        assert!(!parse(&["--all", "--trace", "0"]).unwrap().trace);
        assert!(parse(&["--all", "--trace"]).unwrap().trace);
    }
}
