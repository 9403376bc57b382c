//! The §V timing study: wall-clock cost of computing one `DYNMCB8`
//! allocation as a function of the number of jobs in the system.
//!
//! The paper instrumented the scheduler over the 100 unscaled traces
//! (197,808 observations on a 3.2 GHz Xeon): ≤ 0.001 s for ≤ 10 jobs,
//! average ≈ 0.25 s overall, maximum < 4.5 s. Absolute numbers on modern
//! hardware are (much) lower; the shape — growth with the job count, and
//! feasibility relative to inter-arrival times — is the reproducible
//! claim.

use dfrs_core::OnlineStats;
use dfrs_sim::{DecisionSample, SimConfig};

use crate::instances::unscaled_instances;
use crate::report::TextTable;

/// Decision-time statistics bucketed by jobs-in-system.
#[derive(Debug, Clone)]
pub struct TimingData {
    /// `(bucket upper bound, stats)` — e.g. bucket 10 covers 1–10 jobs.
    pub buckets: Vec<(u32, OnlineStats)>,
    /// All observations pooled.
    pub overall: OnlineStats,
    /// Total observations.
    pub observations: u64,
}

/// Run `DYNMCB8` over unscaled traces and collect per-decision timings.
pub fn run(seeds: u64, jobs: usize, seed0: u64) -> TimingData {
    let cfg = SimConfig {
        record_decisions: true,
        ..SimConfig::default()
    };
    let mut samples: Vec<DecisionSample> = Vec::new();
    for inst in unscaled_instances(seeds, jobs, seed0) {
        let out = inst
            .with_config(cfg.clone())
            .run("dynmcb8")
            .expect("dynmcb8 is a built-in spec");
        samples.extend(out.decisions);
    }
    let bounds = [10u32, 20, 40, 80, 160, u32::MAX];
    let mut buckets: Vec<(u32, OnlineStats)> =
        bounds.iter().map(|&b| (b, OnlineStats::new())).collect();
    let mut overall = OnlineStats::new();
    for s in &samples {
        overall.push(s.wall_secs);
        for (bound, stats) in buckets.iter_mut() {
            if s.jobs_in_system <= *bound {
                stats.push(s.wall_secs);
                break;
            }
        }
    }
    TimingData {
        buckets,
        overall,
        observations: samples.len() as u64,
    }
}

impl TimingData {
    /// Render as a table (seconds).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["jobs in system", "count", "avg s", "max s"]);
        let mut lo = 0u32;
        for (bound, s) in &self.buckets {
            if s.count() == 0 {
                lo = bound.saturating_add(1);
                continue;
            }
            let label = if *bound == u32::MAX {
                format!("> {}", lo.saturating_sub(1))
            } else {
                format!("{}-{}", lo, bound)
            };
            t.row(vec![
                label,
                s.count().to_string(),
                format!("{:.6}", s.mean()),
                format!("{:.6}", s.max()),
            ]);
            lo = bound.saturating_add(1);
        }
        t.row(vec![
            "overall".to_string(),
            self.overall.count().to_string(),
            format!("{:.6}", self.overall.mean()),
            format!("{:.6}", self.overall.max()),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_observations_and_buckets() {
        let data = run(1, 40, 5);
        // Submissions + completions ≈ 2 × jobs decisions.
        assert!(
            data.observations >= 60,
            "{} observations",
            data.observations
        );
        assert_eq!(data.overall.count(), data.observations);
        let bucketed: u64 = data.buckets.iter().map(|(_, s)| s.count()).sum();
        assert_eq!(bucketed, data.observations);
        assert!(data.overall.max() < 10.0, "pathological decision time");
        let text = data.table().render();
        assert!(text.contains("overall"));
    }
}
