//! Table I — degradation-factor statistics (avg, std, max) for the three
//! workload families, all with the 5-minute rescheduling penalty.

use dfrs_core::OnlineStats;
use dfrs_scenario::{Campaign, Scenario};
use dfrs_sched::{SchedulerSpec, PAPER_SPECS};

use crate::instances::{hpc2n_like_instances, scaled_instances, unscaled_instances};
use crate::report::{f2, TextTable};

/// One family's aggregated column triple.
#[derive(Debug, Clone)]
pub struct FamilyStats {
    /// Family label (e.g. "Scaled synthetic traces").
    pub family: String,
    /// Per spec (Table I order): degradation stats.
    pub per_algo: Vec<OnlineStats>,
}

/// The whole table.
#[derive(Debug, Clone)]
pub struct Table1Data {
    /// Scheduler specs, Table I order.
    pub specs: Vec<SchedulerSpec>,
    /// Display names aligned with `specs`.
    pub names: Vec<String>,
    /// The three families.
    pub families: Vec<FamilyStats>,
}

/// Inputs controlling the run.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Synthetic base traces.
    pub seeds: u64,
    /// Jobs per synthetic trace.
    pub jobs: usize,
    /// Loads for the scaled family.
    pub loads: Vec<f64>,
    /// Rescheduling penalty (the paper's Table I uses 300).
    pub penalty: f64,
    /// Base RNG seed.
    pub seed0: u64,
    /// Worker threads.
    pub threads: usize,
    /// HPC2N-like weeks (when `swf` is None).
    pub weeks: u32,
    /// HPC2N-like weekly job volume (the real trace averages ≈ 1,100).
    pub hpc2n_jobs_per_week: f64,
    /// One-week instances of a real SWF file, if provided
    /// ([`crate::cli::swf_instances`]).
    pub swf: Option<Vec<Scenario>>,
}

/// Run all three families.
pub fn run(cfg: &Table1Config) -> Table1Data {
    let specs = PAPER_SPECS.map(SchedulerSpec::new).to_vec();
    let mut names: Vec<String> = specs.iter().map(ToString::to_string).collect();
    let mut family = |instances: &[Scenario]| {
        let result = Campaign::from_specs(instances, specs.clone())
            .penalty(cfg.penalty)
            .threads(cfg.threads)
            .run();
        if let Some(row_names) = result.names() {
            names = row_names;
        }
        result.degradation_stats()
    };

    // Scaled family, one load at a time (memory; per-instance baseline).
    let mut scaled = vec![OnlineStats::new(); specs.len()];
    for &load in &cfg.loads {
        let stats = family(&scaled_instances(cfg.seeds, cfg.jobs, &[load], cfg.seed0));
        for (acc, s) in scaled.iter_mut().zip(&stats) {
            acc.merge(s);
        }
    }
    let unscaled = family(&unscaled_instances(cfg.seeds, cfg.jobs, cfg.seed0));
    let hpc2n = match &cfg.swf {
        Some(instances) => family(instances),
        None => family(&hpc2n_like_instances(
            cfg.weeks,
            cfg.hpc2n_jobs_per_week,
            cfg.seed0 ^ 0x4850_4332, // "HPC2"
        )),
    };

    let families = [
        ("Scaled synthetic traces", scaled),
        ("Unscaled synthetic traces", unscaled),
        ("Real-world trace (HPC2N-like)", hpc2n),
    ]
    .into_iter()
    .map(|(family, per_algo)| FamilyStats {
        family: family.into(),
        per_algo,
    })
    .collect();
    Table1Data {
        specs,
        names,
        families,
    }
}

impl Table1Data {
    /// Render in the paper's layout: one row per algorithm, three
    /// (avg, std, max) column groups.
    pub fn table(&self) -> TextTable {
        let mut header = vec!["Algorithm".to_string()];
        for f in &self.families {
            let tag = match f.family.as_str() {
                s if s.starts_with("Scaled") => "scaled",
                s if s.starts_with("Unscaled") => "unscaled",
                _ => "hpc2n",
            };
            header.push(format!("{tag}-avg"));
            header.push(format!("{tag}-std"));
            header.push(format!("{tag}-max"));
        }
        let mut t = TextTable::new(header);
        for (a, name) in self.names.iter().enumerate() {
            let mut cells = vec![name.clone()];
            for fam in &self.families {
                let s = &fam.per_algo[a];
                cells.push(f2(s.mean()));
                cells.push(f2(s.std_dev()));
                cells.push(f2(s.max()));
            }
            t.row(cells);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_families_with_nine_algorithms() {
        let cfg = Table1Config {
            seeds: 1,
            jobs: 25,
            loads: vec![0.5],
            penalty: 300.0,
            seed0: 2,
            threads: 4,
            weeks: 2,
            hpc2n_jobs_per_week: 60.0,
            swf: None,
        };
        let data = run(&cfg);
        assert_eq!(data.families.len(), 3);
        for f in &data.families {
            assert_eq!(f.per_algo.len(), 9);
            for s in &f.per_algo {
                assert!(s.count() > 0, "{}", f.family);
                assert!(s.mean() >= 1.0);
                assert!(s.max() >= s.mean());
            }
        }
        let text = data.table().render();
        assert!(text.contains("hpc2n-max"));
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
