//! Cross-model robustness check (beyond the paper): rerun the
//! degradation comparison on the **Downey** workload family instead of
//! Lublin's. If DFRS's dominance over batch scheduling only held for
//! one synthetic model's shapes, it would show up here.

use dfrs_core::OnlineStats;
use dfrs_scenario::{degradation_row, Campaign, Scenario, ScenarioBuilder};
use dfrs_sched::{SchedulerSpec, PAPER_SPECS};

use crate::report::TextTable;

/// Downey-family scenarios, annotated with the paper's CPU/memory rules
/// and rescaled to the given loads.
pub fn downey_instances(seeds: u64, jobs: usize, loads: &[f64], seed0: u64) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(seeds as usize * loads.len());
    for s in 0..seeds {
        let base = ScenarioBuilder::new()
            .downey(jobs)
            .seed(seed0 ^ (0xD014u64) ^ s)
            .build()
            .expect("the Downey model always yields a valid trace");
        for &load in loads {
            let mut scaled = base.scaled_to(load).expect("nonzero span");
            scaled.label = format!("downey-s{s}-load{load:.1}");
            out.push(scaled);
        }
    }
    out
}

/// Per-algorithm average degradation (with 95 % CI half-width) on the
/// Downey family.
#[derive(Debug, Clone)]
pub struct RobustnessData {
    /// Scheduler specs, Table I order.
    pub specs: Vec<SchedulerSpec>,
    /// Display names aligned with `specs`.
    pub names: Vec<String>,
    /// Per spec: degradation stats over all instances.
    pub stats: Vec<OnlineStats>,
}

/// Run the check.
pub fn run(
    seeds: u64,
    jobs: usize,
    loads: &[f64],
    penalty: f64,
    seed0: u64,
    threads: usize,
) -> RobustnessData {
    let specs = PAPER_SPECS.map(SchedulerSpec::new).to_vec();
    let mut names: Vec<String> = specs.iter().map(ToString::to_string).collect();
    let mut stats = vec![OnlineStats::new(); specs.len()];
    for &load in loads {
        let instances = downey_instances(seeds, jobs, &[load], seed0);
        let result = Campaign::from_specs(&instances, specs.clone())
            .penalty(penalty)
            .threads(threads)
            .run();
        if let Some(row_names) = result.names() {
            names = row_names;
        }
        for row in &result.cells {
            for (a, d) in degradation_row(row).into_iter().enumerate() {
                stats[a].push(d);
            }
        }
    }
    RobustnessData {
        specs,
        names,
        stats,
    }
}

impl RobustnessData {
    /// Render as a table with CI half-widths.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["Algorithm", "avg degradation", "±95% CI", "max"]);
        for (name, s) in self.names.iter().zip(self.stats.iter()) {
            t.row(vec![
                name.clone(),
                format!("{:.2}", s.mean()),
                format!("{:.2}", s.ci95_half_width()),
                format!("{:.2}", s.max()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_sched::PREEMPTING_SPECS;

    #[test]
    fn downey_instances_hit_loads() {
        let insts = downey_instances(2, 40, &[0.4], 3);
        assert_eq!(insts.len(), 2);
        for i in &insts {
            let load = i.trace().offered_load();
            assert!((load - 0.4).abs() < 1e-6, "{}", i.label);
        }
    }

    #[test]
    fn dfrs_dominance_is_model_independent() {
        let data = run(2, 40, &[0.7], 0.0, 5, 2);
        let idx = |key: &str| data.specs.iter().position(|s| s.key() == key).unwrap();
        let batch_best = data.stats[idx("fcfs")]
            .mean()
            .min(data.stats[idx("easy")].mean());
        let dfrs_best = PREEMPTING_SPECS
            .iter()
            .map(|key| data.stats[idx(key)].mean())
            .fold(f64::INFINITY, f64::min);
        assert!(
            dfrs_best * 5.0 < batch_best,
            "DFRS ({dfrs_best:.1}) should dominate batch ({batch_best:.1}) on Downey workloads too"
        );
        let text = data.table().render();
        assert!(text.contains("±95% CI"));
        let labels: Vec<&str> = text
            .lines()
            .skip(2)
            .map(|l| l.split("  ").next().unwrap().trim())
            .collect();
        assert_eq!(
            labels,
            [
                "FCFS",
                "EASY",
                "Greedy",
                "Greedy-pmtn",
                "Greedy-pmtn-migr",
                "DynMCB8",
                "DynMCB8-per 600",
                "DynMCB8-asap-per 600",
                "DynMCB8-stretch-per 600",
            ]
        );
    }
}
