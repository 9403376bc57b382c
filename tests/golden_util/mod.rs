//! Shared machinery of the golden-trace snapshot suites
//! (`golden_traces.rs`, `golden_drf.rs`): the byte-exact `SimOutcome`
//! snapshot, the recursive field diff, and the check-or-regenerate
//! driver keyed on `DFRS_GOLDEN_REGEN`.

#![allow(dead_code)]

use dfrs::sim::SimOutcome;
use dfrs_core::json::{self, bits, obj, Value};

/// One float metric: exact bits plus a human-readable decimal.
pub fn metric(x: f64) -> Value {
    obj([("bits".into(), bits(x)), ("dec".into(), Value::Num(x))])
}

/// Snapshot every deterministic field of an outcome. Wall-clock fields
/// (`sched_wall_*`) are intentionally excluded.
pub fn snapshot(out: &SimOutcome) -> Value {
    let jobs: Vec<Value> = out
        .records
        .iter()
        .map(|r| {
            Value::Arr(vec![
                Value::Num(r.id.0 as f64),
                r.first_start.map(bits).unwrap_or(Value::Null),
                bits(r.completion),
                bits(r.stretch),
                Value::Num(r.preemptions as f64),
                Value::Num(r.migrations as f64),
            ])
        })
        .collect();
    obj([
        ("algorithm".into(), Value::Str(out.algorithm.clone())),
        ("max_stretch".into(), metric(out.max_stretch)),
        ("mean_stretch".into(), metric(out.mean_stretch)),
        ("makespan".into(), metric(out.makespan)),
        (
            "preemption_count".into(),
            Value::Num(out.preemption_count as f64),
        ),
        (
            "migration_count".into(),
            Value::Num(out.migration_count as f64),
        ),
        ("preemption_gb".into(), metric(out.preemption_gb)),
        ("migration_gb".into(), metric(out.migration_gb)),
        ("idle_node_seconds".into(), metric(out.idle_node_seconds)),
        ("busy_node_seconds".into(), metric(out.busy_node_seconds)),
        ("sched_calls".into(), Value::Num(out.sched_calls as f64)),
        (
            "events_processed".into(),
            Value::Num(out.events_processed as f64),
        ),
        (
            "jobs_header".into(),
            Value::Str("[id, first_start, completion, stretch, preemptions, migrations]".into()),
        ),
        ("jobs".into(), Value::Arr(jobs)),
    ])
}

/// Recursively diff two snapshot values, collecting readable lines.
pub fn diff(path: &str, golden: &Value, current: &Value, out: &mut Vec<String>) {
    match (golden, current) {
        (Value::Obj(g), Value::Obj(c)) => {
            for key in g.keys().chain(c.keys().filter(|k| !g.contains_key(*k))) {
                let p = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}/{key}")
                };
                match (g.get(key), c.get(key)) {
                    (Some(gv), Some(cv)) => diff(&p, gv, cv, out),
                    (Some(_), None) => out.push(format!("{p}: missing from current run")),
                    (None, Some(_)) => out.push(format!("{p}: not in golden file")),
                    (None, None) => unreachable!(),
                }
            }
        }
        (Value::Arr(g), Value::Arr(c)) => {
            if g.len() != c.len() {
                out.push(format!(
                    "{path}: length {} in golden vs {} now",
                    g.len(),
                    c.len()
                ));
                return;
            }
            for (i, (gv, cv)) in g.iter().zip(c.iter()).enumerate() {
                diff(&format!("{path}[{i}]"), gv, cv, out);
            }
        }
        (g, c) if g == c => {}
        (g, c) => out.push(format!("{path}: golden {} vs now {}", render(g), render(c))),
    }
}

/// Render a scalar for the diff message; bit strings also get decoded
/// to decimal so the drift is human-readable.
fn render(v: &Value) -> String {
    if let Some(x) = v.as_bits_f64() {
        return format!("{} ({x})", v.as_str().unwrap_or_default());
    }
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        other => other.pretty().trim_end().to_string(),
    }
}

/// Shard count the suites run under, from `DFRS_SHARDS` (unset → the
/// bare specs). `1` wraps every spec in `sharded:<spec>:shards=1`,
/// which must stay **byte-identical** to the pinned bare goldens (the
/// registry builds the bare scheduler in that case); higher counts
/// replace the byte comparison with a replay-stability check (see
/// [`check_or_regen`]).
pub fn shards() -> Option<u32> {
    let raw = std::env::var("DFRS_SHARDS").ok()?;
    let n: u32 = raw
        .trim()
        .parse()
        .expect("DFRS_SHARDS must be a positive integer");
    assert!(n >= 1, "DFRS_SHARDS must be at least 1");
    Some(n)
}

/// `spec` as the suite actually runs it: wrapped in the sharded
/// coordinator when `DFRS_SHARDS` is set.
pub fn suite_spec(spec: &str) -> String {
    match shards() {
        Some(n) => format!("sharded:{spec}:shards={n}"),
        None => spec.to_string(),
    }
}

/// The absolute path of a golden file given its repo-relative path.
pub fn golden_file(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The check-or-regenerate driver: under `DFRS_GOLDEN_REGEN` it pins
/// `build()` (after a back-to-back determinism check) to `rel`;
/// otherwise it diffs `build()` against the pinned file and panics with
/// per-field drift lines. `regen_cmd` is the command named in the
/// failure hints (e.g. `cargo test --test golden_drf`).
pub fn check_or_regen(rel: &str, regen_cmd: &str, build: impl Fn() -> Value) {
    let current = build();

    if let Some(n) = shards().filter(|&n| n > 1) {
        assert!(
            std::env::var_os("DFRS_GOLDEN_REGEN").is_none(),
            "refusing to pin golden files from a sharded (DFRS_SHARDS={n}) run; \
             goldens are recorded from the bare specs"
        );
        // Byte-identity against the pinned file is a shards=1 property.
        // At higher counts the suite instead pins replay stability: two
        // builds of the full snapshot document must agree bit for bit
        // (deterministic merge order, no dependence on thread timing).
        assert_eq!(
            current,
            build(),
            "sharded (DFRS_SHARDS={n}) snapshots are not run-to-run deterministic"
        );
        return;
    }

    if std::env::var_os("DFRS_GOLDEN_REGEN").is_some() {
        // Regeneration guard: two back-to-back builds must agree before
        // anything is pinned.
        assert_eq!(
            current,
            build(),
            "snapshots are not run-to-run deterministic; refusing to pin"
        );
        let path = golden_file(rel);
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, current.pretty()).expect("write golden file");
        eprintln!("golden snapshots regenerated at {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(golden_file(rel)).unwrap_or_else(|e| {
        panic!(
            "cannot read {rel}: {e}\n\
             run `DFRS_GOLDEN_REGEN=1 {regen_cmd}` to create it"
        )
    });
    let golden = json::parse(&text).expect("golden file parses");

    let mut diffs = Vec::new();
    diff("", &golden, &current, &mut diffs);
    if !diffs.is_empty() {
        let total = diffs.len();
        let shown: Vec<String> = diffs.into_iter().take(40).collect();
        panic!(
            "golden trace drift: {total} field(s) changed (first {}):\n  {}\n\
             if this change is intentional, regenerate with \
             DFRS_GOLDEN_REGEN=1 {regen_cmd}",
            shown.len(),
            shown.join("\n  ")
        );
    }
}
