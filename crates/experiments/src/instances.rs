//! Workload scenario construction for the paper's three experiment
//! families, on top of [`dfrs_scenario::ScenarioBuilder`].
//!
//! * **Scaled synthetic** — `seeds` Lublin base traces × the nine loads
//!   0.1–0.9 (Section IV-C: 100 × 9 = 900 in the paper);
//! * **Unscaled synthetic** — the base traces as generated;
//! * **HPC2N-like** — one-week segments from the synthetic HPC2N
//!   generator (or, when a real SWF file is supplied, from that file).

use dfrs_scenario::{Scenario, ScenarioBuilder, ScenarioError};

/// One Lublin base trace (seeded), annotated per the paper.
pub fn synthetic_base(seed: u64, jobs: usize) -> Scenario {
    ScenarioBuilder::new()
        .lublin(jobs)
        .seed(seed)
        .build()
        .expect("the Lublin model always yields a valid trace")
}

/// The unscaled synthetic family: `seeds` base traces.
pub fn unscaled_instances(seeds: u64, jobs: usize, seed0: u64) -> Vec<Scenario> {
    (0..seeds)
        .map(|s| {
            ScenarioBuilder::new()
                .label(format!("unscaled-s{s}"))
                .lublin(jobs)
                .seed(seed0 + s)
                .build()
                .expect("the Lublin model always yields a valid trace")
        })
        .collect()
}

/// The scaled synthetic family: each base trace rescaled to each of
/// `loads` (defaults to the paper's 0.1–0.9).
pub fn scaled_instances(seeds: u64, jobs: usize, loads: &[f64], seed0: u64) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(seeds as usize * loads.len());
    for s in 0..seeds {
        // Generate each base trace once and rescale per load — the
        // paper's construction, and 9× cheaper than regenerating at
        // every grid point.
        let base = synthetic_base(seed0 + s, jobs);
        for &load in loads {
            let mut scaled = base.scaled_to(load).expect("nonzero span");
            scaled.label = format!("scaled-s{s}-load{load:.1}");
            out.push(scaled);
        }
    }
    out
}

/// HPC2N-like one-week segments (the documented stand-in for the real
/// 182-week trace; see `dfrs_workload::hpc2n`). `jobs_per_week` scales
/// the weekly volume (the real trace averages ≈ 1,100; smaller values
/// make laptop-scale runs cheap).
pub fn hpc2n_like_instances(weeks: u32, jobs_per_week: f64, seed: u64) -> Vec<Scenario> {
    ScenarioBuilder::new()
        .label("hpc2n")
        .hpc2n_like(weeks, jobs_per_week)
        .seed(seed)
        .build_all()
        .expect("the HPC2N-like generator always yields valid traces")
}

/// One-week segments from a real SWF file processed by the paper's
/// HPC2N rules.
pub fn hpc2n_swf_instances(swf_text: &str) -> Result<Vec<Scenario>, ScenarioError> {
    ScenarioBuilder::new()
        .label("hpc2n-swf")
        .swf_text(swf_text)
        .build_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_instances_hit_their_loads() {
        let insts = scaled_instances(2, 60, &[0.3, 0.7], 0);
        assert_eq!(insts.len(), 4);
        for inst in &insts {
            let measured = inst.trace().offered_load();
            let target = inst.load.unwrap();
            assert!(
                (measured - target).abs() < 1e-6,
                "{}: {measured}",
                inst.label
            );
        }
    }

    #[test]
    fn same_seed_same_instance() {
        let a = unscaled_instances(1, 50, 7);
        let b = unscaled_instances(1, 50, 7);
        assert_eq!(a[0].jobs, b[0].jobs);
    }

    #[test]
    fn scaled_instances_share_job_mix_across_loads() {
        let insts = scaled_instances(1, 40, &[0.2, 0.8], 3);
        let mix = |i: &Scenario| -> Vec<(u32, f64)> {
            i.jobs
                .iter()
                .map(|j| (j.tasks, j.oracle_runtime()))
                .collect()
        };
        assert_eq!(
            mix(&insts[0]),
            mix(&insts[1]),
            "same jobs, different arrival spacing"
        );
    }

    #[test]
    fn hpc2n_like_segments_are_week_bounded() {
        let insts = hpc2n_like_instances(3, 300.0, 1);
        assert!(insts.len() >= 2);
        for i in &insts {
            assert_eq!(i.cluster.nodes, 120);
            for j in &i.jobs {
                assert!(j.submit_time < dfrs_workload::trace::WEEK_SECS + 1.0);
            }
        }
    }

    #[test]
    fn swf_instances_pipeline_works() {
        let swf = "1 0 0 3600 4 -1 209715 4 -1 -1 1 1 1 -1 1 -1 -1 -1\n\
                   2 700000 0 60 1 -1 -1 1 -1 -1 1 1 1 -1 1 -1 -1 -1\n";
        let insts = hpc2n_swf_instances(swf).unwrap();
        assert_eq!(insts.len(), 2, "two weeks, one job each");
    }
}
