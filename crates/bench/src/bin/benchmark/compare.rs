//! `benchmark --compare A.json B.json`: two sets of runs (`--all --out`
//! files; a single run document counts as a set of one), A as the base.
//!
//! Per workload × end-to-end metric: both medians, the ratio B/A, the
//! metric's bound (the `/BENCHMARK.json` value, mirrored in
//! [`crate::metrics`]), and a verdict by the rule in the
//! choosing-metrics guide — `worse` when B's median is worse than A's by
//! more than the bound; `unresolved` when either set's own spread
//! (IQR/median) is wider than the bound, unless every run of B reads
//! better than every run of A; `ok` otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use dfrs_core::json::{self, Value};

use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;

/// One set of runs, as far as comparing needs it.
struct RunSet {
    /// `(workload, seed)` of every run, sorted.
    runs: Vec<(String, u64)>,
    /// `pool_workers` and the input constants, rendered; must agree
    /// inside a set and between the two sets.
    identity: BTreeMap<String, String>,
    /// Workload → metric → one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// `(workload, seed)` → fingerprint + failed count of each run.
    exact: BTreeMap<(String, u64), Vec<String>>,
}

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let docs: Vec<Value> = match doc.get("runs").and_then(Value::as_arr) {
        Some(runs) => runs.to_vec(),
        None => vec![doc],
    };
    let mut set = RunSet {
        runs: Vec::new(),
        identity: BTreeMap::new(),
        values: BTreeMap::new(),
        exact: BTreeMap::new(),
    };
    for d in &docs {
        let bad = |what: &str| format!("{}: run document without {what}", path.display());
        let workload = d
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("workload"))?
            .to_string();
        let seed = d
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("seed"))? as u64;
        if d.get("trace") != Some(&Value::Bool(false)) {
            return Err(format!(
                "{}: only plain (--trace 0) runs carry end-to-end metrics",
                path.display()
            ));
        }
        let workers = d
            .get("host")
            .and_then(|h| h.get("pool_workers"))
            .ok_or_else(|| bad("host.pool_workers"))?;
        let constants = d.get("constants").ok_or_else(|| bad("constants"))?;
        let smoke = d.get("smoke").ok_or_else(|| bad("smoke"))?;
        for (key, v) in [
            ("pool.workers".to_string(), workers),
            (format!("{workload} constants"), constants),
            ("smoke".to_string(), smoke),
        ] {
            let rendered = v.compact();
            if let Some(prev) = set.identity.insert(key.clone(), rendered.clone()) {
                if prev != rendered {
                    return Err(format!(
                        "{}: {key} differs between runs ({prev} vs {rendered})",
                        path.display()
                    ));
                }
            }
        }
        let metrics = d
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("metrics"))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad(name))?;
            set.values
                .entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
        let exact = format!(
            "{} failed={}",
            d.get("fingerprint").and_then(Value::as_str).unwrap_or("?"),
            d.get("failed").map_or("?".into(), Value::compact),
        );
        set.exact
            .entry((workload.clone(), seed))
            .or_default()
            .push(exact);
        set.runs.push((workload, seed));
    }
    set.runs.sort();
    Ok(set)
}

/// The verdict on one workload × metric. `lower` = lower is better.
fn verdict(a: &[f64], b: &[f64], lower: bool, bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse_by = (if lower { mb - ma } else { ma - mb }) / ma.abs();
    if iqr_share(a).max(iqr_share(b)) > bound {
        let b_always_better = a
            .iter()
            .all(|x| b.iter().all(|y| if lower { y < x } else { y > x }));
        return if b_always_better { "ok" } else { "unresolved" };
    }
    if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Print the comparison; `Ok(true)` when no row reads `worse` and the
/// exact values agree.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.runs != b.runs {
        return Err(format!(
            "the sets hold different (workload, seed) runs: {} vs {}",
            a.runs.len(),
            b.runs.len()
        ));
    }
    for (key, va) in &a.identity {
        match b.identity.get(key) {
            Some(vb) if vb == va => {}
            other => {
                return Err(format!(
                    "{key} differs: {va} vs {}",
                    other.map_or("nothing", |s| s.as_str())
                ))
            }
        }
    }

    println!("base A = {}   B = {}", a_path.display(), b_path.display());
    println!(
        "{:<16} {:<14} {:>4} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "median A", "median B", "B/A", "iqr A", "iqr B", "bound"
    );
    let mut clean = true;
    for w in Workload::ALL {
        let (Some(ma), Some(mb)) = (a.values.get(w.name()), b.values.get(w.name())) else {
            continue;
        };
        for def in &END_TO_END {
            let (name, bound) = (def.name, def.bound);
            let (Some(va), Some(vb)) = (ma.get(name), mb.get(name)) else {
                return Err(format!("{}: no {name} in both sets", w.name()));
            };
            let v = verdict(va, vb, def.better == "lower", bound);
            clean &= v != "worse";
            println!(
                "{:<16} {:<14} {:>4} {:>14.5} {:>14.5} {:>8.4} {:>7.2}% {:>7.2}% {:>5.1}%  {v}",
                w.name(),
                name,
                va.len(),
                median(va),
                median(vb),
                median(vb) / median(va),
                iqr_share(va) * 100.0,
                iqr_share(vb) * 100.0,
                bound * 100.0,
            );
        }
    }
    // Simulated values repeat exactly: every run of one (workload,
    // seed), in either set, must carry the same fingerprint and count.
    for (key, fa) in &a.exact {
        let all: Vec<&String> = fa.iter().chain(&b.exact[key]).collect();
        let same = all.iter().all(|f| *f == all[0]);
        clean &= same;
        println!(
            "{:<16} seed {:<4} fingerprint and ops_failed over {} runs: {}",
            key.0,
            key.1,
            all.len(),
            if same { "identical" } else { "MISMATCH" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.1, 100.4, 99.9];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let wide = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&base, &same, true, 0.1), "ok");
        assert_eq!(verdict(&base, &slow, true, 0.1), "worse");
        // Higher-is-better: the same numbers are a gain, not a loss.
        assert_eq!(verdict(&base, &slow, false, 0.1), "ok");
        assert_eq!(verdict(&slow, &base, false, 0.1), "worse");
        assert_eq!(verdict(&base, &wide, true, 0.1), "unresolved");
        // Wide, but every B run beats every A run.
        assert_eq!(verdict(&wide, &[10.0, 30.0, 20.0], true, 0.1), "ok");
    }
}
