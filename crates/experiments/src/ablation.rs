//! Ablations of the design choices DESIGN.md §6 calls out:
//!
//! 1. **Packer** — MCB8 vs first-fit vs best-fit inside the yield binary
//!    search (how much does balance-aware packing buy?);
//! 2. **Priority exponent** — the paper's `vt²` denominator vs plain
//!    `vt` (the paper reports the square is decisively better);
//! 3. **Period** — T ∈ {60, 600, 3600} for the periodic repacker under
//!    the 5-minute penalty (the paper states 600 matches 60's quality at
//!    3600's overhead).
//!
//! Every variant is a registry [`SchedulerSpec`] — no hand-wired
//! factory closures — so the same sweeps run from any binary via
//! `--algo`.

use dfrs_core::OnlineStats;
use dfrs_scenario::{Campaign, Scenario};
use dfrs_sched::SchedulerSpec;

use crate::instances::scaled_instances;
use crate::report::TextTable;

/// Aggregated ablation rows.
#[derive(Debug, Clone)]
pub struct AblationData {
    /// Table title.
    pub title: String,
    /// `(label, avg max stretch, avg mean stretch, avg moved GB)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Run `(label, spec)` variants over the instances and aggregate the
/// stretch/data-movement means per variant.
pub fn aggregate(
    title: &str,
    instances: &[Scenario],
    variants: &[(&str, &str)],
    penalty: f64,
    threads: usize,
) -> AblationData {
    let specs: Vec<SchedulerSpec> = variants
        .iter()
        .map(|(label, s)| {
            s.parse()
                .unwrap_or_else(|e| panic!("ablation variant {label}: {e}"))
        })
        .collect();
    let result = Campaign::from_specs(instances, specs)
        .penalty(penalty)
        .threads(threads)
        .run();
    let mut rows = Vec::with_capacity(variants.len());
    for (b, (label, _)) in variants.iter().enumerate() {
        let mut max_s = OnlineStats::new();
        let mut mean_s = OnlineStats::new();
        let mut moved = OnlineStats::new();
        for row in &result.cells {
            max_s.push(row[b].max_stretch);
            mean_s.push(row[b].mean_stretch);
            moved.push(row[b].moved_gb());
        }
        rows.push((label.to_string(), max_s.mean(), mean_s.mean(), moved.mean()));
    }
    AblationData {
        title: title.to_string(),
        rows,
    }
}

/// Packer ablation on the periodic repacker.
pub fn packer_ablation(
    seeds: u64,
    jobs: usize,
    load: f64,
    seed0: u64,
    threads: usize,
) -> AblationData {
    let instances = scaled_instances(seeds, jobs, &[load], seed0);
    aggregate(
        "Packer inside the yield search (DynMCB8-asap-per 600)",
        &instances,
        &[
            ("mcb8", "dynmcb8-asap-per:t=600,packer=mcb8"),
            ("first-fit", "dynmcb8-asap-per:t=600,packer=first-fit"),
            ("best-fit", "dynmcb8-asap-per:t=600,packer=best-fit"),
        ],
        300.0,
        threads,
    )
}

/// Priority-exponent ablation on GREEDY-PMTN.
pub fn priority_ablation(
    seeds: u64,
    jobs: usize,
    load: f64,
    seed0: u64,
    threads: usize,
) -> AblationData {
    let instances = scaled_instances(seeds, jobs, &[load], seed0);
    aggregate(
        "Priority exponent (Greedy-pmtn)",
        &instances,
        &[
            ("flow/vt^2 (paper)", "greedy-pmtn:exponent=2"),
            ("flow/vt (no square)", "greedy-pmtn:exponent=1"),
        ],
        300.0,
        threads,
    )
}

/// Period sweep on the periodic repacker, with the 5-minute penalty.
pub fn period_ablation(
    seeds: u64,
    jobs: usize,
    load: f64,
    seed0: u64,
    threads: usize,
) -> AblationData {
    let instances = scaled_instances(seeds, jobs, &[load], seed0);
    aggregate(
        "Scheduling period (DynMCB8-per)",
        &instances,
        &[
            ("T=60", "dynmcb8-per:t=60"),
            ("T=600 (paper)", "dynmcb8-per:t=600"),
            ("T=3600", "dynmcb8-per:t=3600"),
        ],
        300.0,
        threads,
    )
}

impl AblationData {
    /// Render the rows.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "variant",
            "avg max stretch",
            "avg mean stretch",
            "avg moved GB",
        ]);
        for (name, max_s, mean_s, moved) in &self.rows {
            t.row(vec![
                name.clone(),
                format!("{max_s:.2}"),
                format!("{mean_s:.2}"),
                format!("{moved:.1}"),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packer_ablation_runs_and_mcb8_is_competitive() {
        let data = packer_ablation(2, 40, 0.8, 21, 2);
        assert_eq!(data.rows.len(), 3);
        let mcb8 = data.rows[0].1;
        let worst = data.rows.iter().map(|r| r.1).fold(0.0, f64::max);
        assert!(mcb8 <= worst + 1e-9);
        assert!(data.table().render().contains("mcb8"));
    }

    #[test]
    fn priority_ablation_runs() {
        let data = priority_ablation(2, 40, 0.8, 22, 2);
        assert_eq!(data.rows.len(), 2);
        for (_, max_s, mean_s, _) in &data.rows {
            assert!(*max_s >= 1.0 && *mean_s >= 1.0);
        }
    }

    #[test]
    fn period_ablation_monotone_overhead() {
        let data = period_ablation(1, 40, 0.8, 23, 2);
        // The GB moved per period on this instance (T=60, 600, 3600)
        // before a repack kept jobs that all still fit at yield 1 in
        // place. Keeping may only save moves. The T=60 ≥ T=3600
        // ordering no longer holds on this small instance: short
        // periods stop paying for all-fit remaps (T=60 now moves 0 GB)
        // and T=3600 still moves 600 GB.
        const BEFORE_KEEP_GB: [f64; 3] = [1619.2, 1800.0, 811.2];
        assert_eq!(data.rows.len(), BEFORE_KEEP_GB.len());
        for (row, before) in data.rows.iter().zip(BEFORE_KEEP_GB) {
            assert!(
                row.3 <= before + 1e-6,
                "{}: {} GB moved, {before} GB before keeping",
                row.0,
                row.3
            );
        }
    }
}
