//! The **availability study**: DFRS vs batch scheduling on a platform
//! whose nodes fail and get repaired.
//!
//! The paper's evaluation runs on an eternal cluster, so its
//! pause/migrate machinery is only ever exercised by the schedulers'
//! own choices. This study attaches a seeded per-node exponential
//! MTBF/MTTR churn model ([`dfrs_scenario::FailureModel::Exp`]) to the
//! scaled Lublin workload and runs **every registered scheduler spec**
//! twice — once on the static cluster, once under churn, with full
//! plan/invariant validation enabled — then tabulates what the churn
//! cost each policy: stretch degradation, failure-induced restarts,
//! lost virtual time, and the preemption/migration work spent adapting.
//!
//! The hypothesis under test (Casanova, Stillwell & Vivien 2011; Huber
//! et al. 2024): dynamic fractional schedulers absorb availability
//! churn — victims are repacked onto survivors within one event —
//! while rigid integral queues serialize behind re-entered jobs.

use dfrs_scenario::{Campaign, CampaignResult, FailureModel, Scenario, ScenarioBuilder};
use dfrs_sched::{SchedulerRegistry, SchedulerSpec};

use crate::cli::Opts;
use crate::report::{f2, TextTable};

/// One scheduler's row of the availability table.
#[derive(Debug, Clone)]
pub struct AvailabilityRow {
    /// The spec (canonical string form).
    pub spec: SchedulerSpec,
    /// Scheduler display name.
    pub name: String,
    /// Mean (over instances) max bounded stretch on the static cluster.
    pub base_max_stretch: f64,
    /// Mean max bounded stretch under churn.
    pub churn_max_stretch: f64,
    /// `churn / base` — how much the churn degraded the headline metric.
    pub churn_degradation: f64,
    /// Mean failure-induced restarts per instance.
    pub restarts: f64,
    /// Mean virtual time lost to kills per instance (hours).
    pub lost_vt_hours: f64,
    /// Mean preemptions per instance under churn.
    pub preemptions: f64,
    /// Mean migrations per instance under churn.
    pub migrations: f64,
    /// Mean fraction of the cluster out of service over the makespan.
    pub unavailability: f64,
}

/// The study's full result: per-spec rows plus the raw matrices.
#[derive(Debug)]
pub struct AvailabilityStudy {
    /// One row per spec, in registry-key order.
    pub rows: Vec<AvailabilityRow>,
    /// The static-cluster matrix.
    pub baseline: CampaignResult,
    /// The churn matrix.
    pub churn: CampaignResult,
    /// Nodes in the simulated cluster (for unavailability).
    pub nodes: u32,
}

/// The churn-study scenario pair for one seed: identical workloads,
/// one static and one with the exponential failure model attached.
/// Validation is **on** in both: every plan of every scheduler is
/// checked against the availability constraints on every event.
fn scenario_pair(opts: &Opts, seed: u64, load: f64) -> (Scenario, Scenario) {
    let base = ScenarioBuilder::new()
        .label(format!("avail-s{seed}"))
        .lublin(opts.jobs)
        .load(load)
        .seed(seed)
        .validate(true)
        .build()
        .expect("the Lublin model always yields a valid trace");
    let churn = ScenarioBuilder::new()
        .label(format!("avail-churn-s{seed}"))
        .lublin(opts.jobs)
        .load(load)
        .seed(seed)
        .validate(true)
        .failures(FailureModel::exp(opts.mtbf_secs, opts.mttr_secs))
        .failure_policy(opts.failure_policy)
        .build()
        .expect("the Lublin model always yields a valid trace");
    debug_assert_eq!(base.jobs, churn.jobs, "failures never change the jobs");
    (base, churn)
}

/// Run the study with the built-in registry over `opts` (specs from
/// `--algo`, or every registered key when none were given).
pub fn run(opts: &Opts) -> AvailabilityStudy {
    run_with_registry(opts, SchedulerRegistry::builtin())
}

/// The single load point the study runs at: the first `--loads` value
/// when the flag was given (the binary warns when extra values are
/// dropped), or the paper's high-pressure 0.7 on the untouched default
/// grid — failures bite hardest when spare capacity is scarce.
pub fn study_load(opts: &Opts) -> f64 {
    if opts.loads.as_slice() == dfrs_core::constants::SCALED_LOADS {
        0.7
    } else {
        opts.loads[0]
    }
}

/// [`run`] against an explicit (possibly user-extended) registry.
/// Without `--algo` the study runs every key the registry knows, in
/// sorted order, so user-registered schedulers appear automatically.
pub fn run_with_registry(opts: &Opts, registry: SchedulerRegistry) -> AvailabilityStudy {
    let specs = opts.specs_or(&registry, &registry.keys());
    let load = study_load(opts);
    let mut base_scenarios = Vec::new();
    let mut churn_scenarios = Vec::new();
    for s in 0..opts.instances {
        let (base, churn) = scenario_pair(opts, opts.seed + s, load);
        base_scenarios.push(base);
        churn_scenarios.push(churn);
    }
    let nodes = base_scenarios[0].cluster.nodes;

    let run_campaign = |scenarios: &[Scenario]| {
        Campaign::with_registry(
            scenarios,
            registry.clone(),
            specs.iter().map(|s| s.to_string()),
        )
        .expect("specs parsed against this registry")
        .penalty(opts.penalty)
        .threads(opts.threads)
        .migration_opt(opts.migration)
        .run()
    };
    let baseline = run_campaign(&base_scenarios);
    let churn = run_campaign(&churn_scenarios);

    let n = base_scenarios.len() as f64;
    let mean =
        |col: usize, result: &CampaignResult, f: &dyn Fn(&dfrs_scenario::CellResult) -> f64| {
            result.cells.iter().map(|row| f(&row[col])).sum::<f64>() / n
        };
    let rows = specs
        .iter()
        .enumerate()
        .map(|(a, spec)| {
            let base_max = mean(a, &baseline, &|c| c.max_stretch);
            let churn_max = mean(a, &churn, &|c| c.max_stretch);
            let unavail = mean(a, &churn, &|c| c.mean_unavailability(nodes));
            AvailabilityRow {
                spec: spec.clone(),
                name: churn.cells[0][a].name.clone(),
                base_max_stretch: base_max,
                churn_max_stretch: churn_max,
                churn_degradation: if base_max > 0.0 {
                    churn_max / base_max
                } else {
                    0.0
                },
                restarts: mean(a, &churn, &|c| c.restart_count as f64),
                lost_vt_hours: mean(a, &churn, &|c| c.lost_virtual_seconds / 3_600.0),
                preemptions: mean(a, &churn, &|c| c.preemption_count as f64),
                migrations: mean(a, &churn, &|c| c.migration_count as f64),
                unavailability: unavail,
            }
        })
        .collect();
    AvailabilityStudy {
        rows,
        baseline,
        churn,
        nodes,
    }
}

impl AvailabilityStudy {
    /// Render the per-spec table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Scheduler",
            "base max S",
            "churn max S",
            "degr",
            "restarts",
            "lost vt (h)",
            "pmtn",
            "migr",
            "down %",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                f2(r.base_max_stretch),
                f2(r.churn_max_stretch),
                f2(r.churn_degradation),
                f2(r.restarts),
                f2(r.lost_vt_hours),
                f2(r.preemptions),
                f2(r.migrations),
                f2(r.unavailability * 100.0),
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
            jobs: 40,
            seed: 3,
            threads: 2,
            penalty: 0.0,
            // Aggressive churn so a 40-job trace is actually struck.
            mtbf_secs: 40_000.0,
            mttr_secs: 2_000.0,
            ..Opts::default()
        }
    }

    #[test]
    fn study_covers_every_registry_spec_and_is_deterministic() {
        let opts = tiny_opts();
        let a = run(&opts);
        let registry = SchedulerRegistry::builtin();
        assert_eq!(a.rows.len(), registry.keys().len());
        for row in &a.rows {
            assert!(row.base_max_stretch >= 1.0, "{}", row.name);
            assert!(row.churn_max_stretch >= 1.0, "{}", row.name);
        }
        // Churn actually happened and someone was struck.
        assert!(a.rows.iter().any(|r| r.unavailability > 0.0));
        let b = run(&opts);
        assert_eq!(a.churn.fingerprint(), b.churn.fingerprint());
        assert_eq!(a.baseline.fingerprint(), b.baseline.fingerprint());
    }

    #[test]
    fn explicit_algo_subset_is_honored() {
        let mut opts = tiny_opts();
        opts.algos = vec!["fcfs".parse().unwrap(), "greedy-pmtn".parse().unwrap()];
        let study = run(&opts);
        assert_eq!(study.rows.len(), 2);
        assert_eq!(study.rows[0].name, "FCFS");
        let rendered = study.table().render();
        assert!(rendered.contains("restarts"), "{rendered}");
    }

    #[test]
    fn shards_wrap_every_row() {
        let mut opts = tiny_opts();
        opts.algos = vec!["fcfs".parse().unwrap(), "dynmcb8".parse().unwrap()];
        opts.shards = 2;
        let study = run(&opts);
        let names: Vec<&str> = study.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["Sharded[2] FCFS", "Sharded[2] DynMCB8"]);
    }

    #[test]
    fn user_registered_schedulers_run() {
        let mut reg = SchedulerRegistry::builtin();
        reg.register_fn("my-greedy", "custom", &[], |_| {
            SchedulerRegistry::builtin().build_str("greedy-pmtn")
        });
        let mut opts = tiny_opts();
        opts.algos = vec![reg.parse("my-greedy").unwrap()];
        opts.shards = 2;
        let study = run_with_registry(&opts, reg);
        assert_eq!(study.rows[0].spec.to_string(), "sharded:my-greedy:shards=2");
        assert_eq!(study.rows[0].name, "Sharded[2] Greedy-pmtn");
    }
}
