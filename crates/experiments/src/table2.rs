//! Table II — preemption and migration costs on the scaled synthetic
//! traces with load ≥ 0.7: average storage bandwidth (GB/s), occurrences
//! per hour, occurrences per job; averages over instances with maxima in
//! parentheses.

use dfrs_core::OnlineStats;
use dfrs_scenario::Campaign;
use dfrs_sched::{SchedulerSpec, PREEMPTING_SPECS};

use crate::instances::scaled_instances;
use crate::report::{avg_max, TextTable};

/// Accumulated cost statistics for one algorithm.
#[derive(Debug, Clone, Default)]
pub struct CostStats {
    /// GB/s moved by preemptions.
    pub pmtn_bw: OnlineStats,
    /// GB/s moved by migrations.
    pub migr_bw: OnlineStats,
    /// Preemptions per hour.
    pub pmtn_per_hour: OnlineStats,
    /// Migrations per hour.
    pub migr_per_hour: OnlineStats,
    /// Preemptions per job.
    pub pmtn_per_job: OnlineStats,
    /// Migrations per job.
    pub migr_per_job: OnlineStats,
}

/// The table's data.
#[derive(Debug, Clone)]
pub struct Table2Data {
    /// The six preempting algorithms' specs (Table II order).
    pub specs: Vec<SchedulerSpec>,
    /// Display names aligned with `specs`.
    pub names: Vec<String>,
    /// Stats aligned with `specs`.
    pub stats: Vec<CostStats>,
}

/// Run the experiment: high-load scaled traces, 5-minute penalty as in
/// the paper (`penalty` configurable for ablations).
pub fn run(
    seeds: u64,
    jobs: usize,
    high_loads: &[f64],
    penalty: f64,
    seed0: u64,
    threads: usize,
) -> Table2Data {
    let specs = PREEMPTING_SPECS.map(SchedulerSpec::new).to_vec();
    let mut names: Vec<String> = specs.iter().map(ToString::to_string).collect();
    let mut stats = vec![CostStats::default(); specs.len()];
    for &load in high_loads {
        let instances = scaled_instances(seeds, jobs, &[load], seed0);
        let result = Campaign::from_specs(&instances, specs.clone())
            .penalty(penalty)
            .threads(threads)
            .run();
        if let Some(row_names) = result.names() {
            names = row_names;
        }
        for row in &result.cells {
            for (a, s) in row.iter().enumerate() {
                stats[a].pmtn_bw.push(s.preemption_bandwidth_gbs());
                stats[a].migr_bw.push(s.migration_bandwidth_gbs());
                stats[a].pmtn_per_hour.push(s.preemptions_per_hour());
                stats[a].migr_per_hour.push(s.migrations_per_hour());
                stats[a].pmtn_per_job.push(s.preemptions_per_job());
                stats[a].migr_per_job.push(s.migrations_per_job());
            }
        }
    }
    Table2Data {
        specs,
        names,
        stats,
    }
}

impl Table2Data {
    /// Render in the paper's layout.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Algorithm",
            "pmtn GB/s",
            "migr GB/s",
            "pmtn /hour",
            "migr /hour",
            "pmtn /job",
            "migr /job",
        ]);
        for (name, s) in self.names.iter().zip(self.stats.iter()) {
            t.row(vec![
                name.clone(),
                avg_max(s.pmtn_bw.mean(), s.pmtn_bw.max()),
                avg_max(s.migr_bw.mean(), s.migr_bw.max()),
                avg_max(s.pmtn_per_hour.mean(), s.pmtn_per_hour.max()),
                avg_max(s.migr_per_hour.mean(), s.migr_per_hour.max()),
                avg_max(s.pmtn_per_job.mean(), s.pmtn_per_job.max()),
                avg_max(s.migr_per_job.mean(), s.migr_per_job.max()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_preempting_algorithms_reported() {
        let data = run(1, 30, &[0.8], 300.0, 4, 4);
        assert_eq!(data.specs.len(), 6);
        // Greedy-pmtn never migrates by construction.
        let gp = data
            .specs
            .iter()
            .position(|s| s.key() == "greedy-pmtn")
            .unwrap();
        assert_eq!(data.stats[gp].migr_per_hour.max(), 0.0);
        let text = data.table().render();
        assert!(text.contains("pmtn GB/s"));
        assert_eq!(text.lines().count(), 8);
        let labels: Vec<&str> = text
            .lines()
            .skip(2)
            .map(|l| l.split("  ").next().unwrap().trim())
            .collect();
        assert_eq!(
            labels,
            [
                "Greedy-pmtn",
                "Greedy-pmtn-migr",
                "DynMCB8",
                "DynMCB8-per 600",
                "DynMCB8-asap-per 600",
                "DynMCB8-stretch-per 600",
            ]
        );
    }

    #[test]
    fn dynmcb8_moves_more_than_periodic_variants() {
        // The paper's qualitative claim: event-driven DYNMCB8 has the
        // highest migration rate.
        let data = run(2, 40, &[0.8], 300.0, 11, 4);
        let idx = |key: &str| data.specs.iter().position(|s| s.key() == key).unwrap();
        let event = data.stats[idx("dynmcb8")].migr_per_job.mean();
        let per = data.stats[idx("dynmcb8-per")].migr_per_job.mean();
        assert!(
            event >= per,
            "DynMCB8 migrations/job {event} < periodic {per}"
        );
    }
}
