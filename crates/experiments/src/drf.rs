//! The **DRF study**: max-min yield vs max-min dominant share when a
//! workload is no longer CPU+memory only.
//!
//! The paper's schedulers maximize the minimum *yield* — correct when
//! CPU is the only fluid resource. This study annotates a fraction of
//! the scaled Lublin jobs with a GPU demand
//! ([`dfrs_scenario::ScenarioBuilder::gpu_frac`]) and runs the yield
//! family (`dynmcb8`, `dynmcb8-per`) head to head against the DRF
//! family (`dynmcb8-drf`, `dynmcb8-drf-per`), each on the same trace
//! twice: once CPU-only and once GPU-annotated, with full plan and
//! invariant validation (which now checks the GPU capacity on every
//! node at every event).
//!
//! The hypothesis under test (Ghodsi et al., NSDI 2011, transplanted to
//! the DFRS setting): when dominant resources differ across jobs, the
//! dominant-share objective shares contended GPUs by *dominant* demand
//! instead of starving GPU-heavy jobs behind a CPU-balanced yield, so
//! DRF's stretch degradation under GPU annotation stays flatter than
//! the yield family's.

use dfrs_scenario::{Campaign, CampaignResult, Scenario, ScenarioBuilder};
use dfrs_sched::{SchedulerRegistry, SchedulerSpec};

use crate::availability::study_load;
use crate::cli::Opts;
use crate::report::{f2, TextTable};

/// One scheduler's row of the DRF table.
#[derive(Debug, Clone)]
pub struct DrfRow {
    /// The spec (canonical string form).
    pub spec: SchedulerSpec,
    /// Scheduler display name.
    pub name: String,
    /// Mean (over instances) max bounded stretch on the CPU-only trace.
    pub cpu_max_stretch: f64,
    /// Mean max bounded stretch on the GPU-annotated trace.
    pub gpu_max_stretch: f64,
    /// `gpu / cpu` — what the GPU contention cost the headline metric.
    pub gpu_degradation: f64,
    /// Mean mean-stretch on the GPU-annotated trace.
    pub gpu_mean_stretch: f64,
    /// Mean preemptions per instance on the GPU-annotated trace.
    pub preemptions: f64,
    /// Mean migrations per instance on the GPU-annotated trace.
    pub migrations: f64,
}

/// The study's full result: per-spec rows plus the raw matrices.
#[derive(Debug)]
pub struct DrfStudy {
    /// One row per spec, yield family first.
    pub rows: Vec<DrfRow>,
    /// The CPU-only matrix.
    pub cpu_only: CampaignResult,
    /// The GPU-annotated matrix.
    pub gpu: CampaignResult,
    /// The GPU-annotation fraction the study ran at.
    pub gpu_frac: f64,
}

/// The study's default head-to-head: the event-driven and periodic
/// members of the yield family against their DRF counterparts.
pub const DEFAULT_SPECS: [&str; 4] = [
    "dynmcb8",
    "dynmcb8-per:t=600",
    "dynmcb8-drf",
    "dynmcb8-drf-per:t=600",
];

/// The scenario pair for one seed: identical Lublin workloads, one
/// CPU-only and one with `gpu_frac` of the jobs carrying a GPU demand.
/// Validation is **on** in both.
fn scenario_pair(opts: &Opts, seed: u64, load: f64) -> (Scenario, Scenario) {
    let base = |label: String| {
        ScenarioBuilder::new()
            .label(label)
            .lublin(opts.jobs)
            .load(load)
            .seed(seed)
            .validate(true)
    };
    let cpu = base(format!("drf-cpu-s{seed}"))
        .build()
        .expect("the Lublin model always yields a valid trace");
    let gpu = base(format!("drf-gpu-s{seed}"))
        .gpu_frac(opts.gpu_frac)
        .build()
        .expect("a gpu_frac accepted by Opts::parse is valid here");
    debug_assert_eq!(cpu.jobs.len(), gpu.jobs.len());
    (cpu, gpu)
}

/// Run the study over `opts` (specs from `--algo`, or the yield-vs-DRF
/// head-to-head when none were given) at the availability study's
/// single high-pressure load point.
pub fn run(opts: &Opts) -> DrfStudy {
    let specs = opts.specs_or(&SchedulerRegistry::builtin(), &DEFAULT_SPECS);
    let load = study_load(opts);
    let mut cpu_scenarios = Vec::new();
    let mut gpu_scenarios = Vec::new();
    for s in 0..opts.instances {
        let (cpu, gpu) = scenario_pair(opts, opts.seed + s, load);
        cpu_scenarios.push(cpu);
        gpu_scenarios.push(gpu);
    }

    let run_campaign = |scenarios: &[Scenario]| {
        Campaign::from_specs(scenarios, specs.clone())
            .penalty(opts.penalty)
            .threads(opts.threads)
            .migration_opt(opts.migration)
            .run()
    };
    let cpu_only = run_campaign(&cpu_scenarios);
    let gpu = run_campaign(&gpu_scenarios);

    let n = cpu_scenarios.len() as f64;
    let mean =
        |col: usize, result: &CampaignResult, f: &dyn Fn(&dfrs_scenario::CellResult) -> f64| {
            result.cells.iter().map(|row| f(&row[col])).sum::<f64>() / n
        };
    let rows = specs
        .iter()
        .enumerate()
        .map(|(a, spec)| {
            let cpu_max = mean(a, &cpu_only, &|c| c.max_stretch);
            let gpu_max = mean(a, &gpu, &|c| c.max_stretch);
            DrfRow {
                spec: spec.clone(),
                name: gpu.cells[0][a].name.clone(),
                cpu_max_stretch: cpu_max,
                gpu_max_stretch: gpu_max,
                gpu_degradation: if cpu_max > 0.0 {
                    gpu_max / cpu_max
                } else {
                    0.0
                },
                gpu_mean_stretch: mean(a, &gpu, &|c| c.mean_stretch),
                preemptions: mean(a, &gpu, &|c| c.preemption_count as f64),
                migrations: mean(a, &gpu, &|c| c.migration_count as f64),
            }
        })
        .collect();
    DrfStudy {
        rows,
        cpu_only,
        gpu,
        gpu_frac: opts.gpu_frac,
    }
}

impl DrfStudy {
    /// Render the per-spec table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Scheduler",
            "cpu max S",
            "gpu max S",
            "degr",
            "gpu mean S",
            "pmtn",
            "migr",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                f2(r.cpu_max_stretch),
                f2(r.gpu_max_stretch),
                f2(r.gpu_degradation),
                f2(r.gpu_mean_stretch),
                f2(r.preemptions),
                f2(r.migrations),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Opts {
        Opts {
            instances: 1,
            jobs: 60,
            seed: 7,
            threads: 2,
            penalty: 0.0,
            gpu_frac: 0.5,
            ..Opts::default()
        }
    }

    #[test]
    fn study_runs_the_default_head_to_head_and_is_deterministic() {
        let opts = tiny_opts();
        let a = run(&opts);
        assert_eq!(a.rows.len(), 4);
        assert_eq!(a.rows[0].name, "DynMCB8");
        assert_eq!(a.rows[2].name, "DynMCB8-drf");
        for row in &a.rows {
            assert!(row.cpu_max_stretch >= 1.0, "{}", row.name);
            assert!(row.gpu_max_stretch >= 1.0, "{}", row.name);
        }
        let b = run(&opts);
        assert_eq!(a.cpu_only.fingerprint(), b.cpu_only.fingerprint());
        assert_eq!(a.gpu.fingerprint(), b.gpu.fingerprint());
        let rendered = a.table().render();
        assert!(rendered.contains("gpu max S"), "{rendered}");
    }

    #[test]
    fn zero_gpu_frac_makes_both_matrices_identical() {
        let mut opts = tiny_opts();
        opts.gpu_frac = 0.0;
        opts.algos = vec!["dynmcb8".parse().unwrap(), "dynmcb8-drf".parse().unwrap()];
        let study = run(&opts);
        assert_eq!(study.rows.len(), 2);
        // With nothing annotated, the "gpu" trace IS the cpu trace.
        for r in &study.rows {
            assert_eq!(r.cpu_max_stretch, r.gpu_max_stretch, "{}", r.name);
            assert_eq!(r.gpu_degradation, 1.0, "{}", r.name);
        }
    }
}
