//! Figure 1 — average stretch-degradation factor vs offered load, for
//! all nine algorithms, without (a) and with (b) the 5-minute
//! rescheduling penalty.

use dfrs_core::OnlineStats;
use dfrs_scenario::Campaign;
use dfrs_sched::SchedulerSpec;

use crate::instances::scaled_instances;
use crate::report::TextTable;

/// One figure's data: per load level, per scheduler spec, the average
/// degradation factor over the instances at that load.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// Load grid (x axis).
    pub loads: Vec<f64>,
    /// Scheduler specs (series), Table I order by default.
    pub specs: Vec<SchedulerSpec>,
    /// Display names aligned with `specs`.
    pub names: Vec<String>,
    /// `series[l][a]` = average degradation at `loads[l]` for
    /// `specs[a]`.
    pub series: Vec<Vec<f64>>,
}

/// Run the experiment over arbitrary scheduler specs.
pub fn run_specs(
    seeds: u64,
    jobs: usize,
    loads: &[f64],
    specs: Vec<SchedulerSpec>,
    penalty: f64,
    seed0: u64,
    threads: usize,
) -> Fig1Data {
    let mut series = Vec::with_capacity(loads.len());
    let mut names: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
    for &load in loads {
        // One load at a time keeps the memory footprint flat and lets
        // the degradation baseline stay per-instance, as in the paper.
        let instances = scaled_instances(seeds, jobs, &[load], seed0);
        let result = Campaign::from_specs(&instances, specs.clone())
            .penalty(penalty)
            .threads(threads)
            .run();
        if let Some(row_names) = result.names() {
            names = row_names;
        }
        let stats = result.degradation_stats();
        series.push(stats.iter().map(OnlineStats::mean).collect());
    }
    Fig1Data {
        loads: loads.to_vec(),
        specs,
        names,
        series,
    }
}

impl Fig1Data {
    /// The figure as a table: rows = loads, columns = schedulers.
    pub fn table(&self) -> TextTable {
        let mut header = vec!["load".to_string()];
        header.extend(self.names.iter().cloned());
        let mut t = TextTable::new(header);
        for (l, row) in self.loads.iter().zip(self.series.iter()) {
            let mut cells = vec![format!("{l:.1}")];
            cells.extend(row.iter().map(|d| format!("{d:.2}")));
            t.row(cells);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_sched::PAPER_SPECS;

    fn paper_specs() -> Vec<SchedulerSpec> {
        PAPER_SPECS.map(SchedulerSpec::new).to_vec()
    }

    #[test]
    fn shape_matches_inputs() {
        let data = run_specs(2, 30, &[0.3, 0.6], paper_specs(), 0.0, 3, 4);
        assert_eq!(data.loads, vec![0.3, 0.6]);
        assert_eq!(data.series.len(), 2);
        assert_eq!(data.series[0].len(), 9);
        // Degradations are ≥ 1 and at least one algorithm is near-best on
        // average... (≥ 1 for all).
        for row in &data.series {
            for &d in row {
                assert!(d >= 1.0);
            }
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let data = run_specs(1, 25, &[0.5], paper_specs(), 0.0, 7, 2);
        let text = data.table().render();
        assert!(text.contains("FCFS"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn custom_specs_run_from_strings() {
        let specs = ["greedy-pmtn", "dynmcb8-per:t=300"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let data = run_specs(1, 25, &[0.5], specs, 300.0, 9, 2);
        assert_eq!(data.series[0].len(), 2);
        assert!(data.table().render().contains("DynMCB8-per 300"));
    }
}
