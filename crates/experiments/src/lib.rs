//! # dfrs-experiments
//!
//! The harness that regenerates **every table and figure** of the IPDPS
//! 2010 DFRS paper (see EXPERIMENTS.md "Binary index"):
//!
//! * Figure 1(a)/(b) — average stretch-degradation factor vs offered
//!   load, without/with the 5-minute rescheduling penalty
//!   ([`fig1`], binary `fig1`);
//! * Table I — degradation avg/std/max on scaled synthetic, unscaled
//!   synthetic, and HPC2N(-like) workloads ([`table1`], binary `table1`);
//! * Table II — preemption/migration bandwidth and occurrence rates at
//!   load ≥ 0.7 ([`table2`], binary `table2`);
//! * §V timing study — `DYNMCB8` allocation compute time vs jobs in
//!   system ([`timing`], binary `timing`);
//! * availability study (extension) — every registered spec on a
//!   platform with node failure/repair churn, static vs churn
//!   ([`availability`], binary `availability`);
//! * DRF study (extension) — max-min yield vs max-min dominant share
//!   on GPU-annotated workloads, CPU-only vs annotated
//!   ([`drf`], binary `drf`).
//!
//! Execution goes through [`dfrs_scenario::Campaign`] — the generic
//! parallel `(scenario × scheduler spec)` runner — with workloads
//! materialized by [`instances`] and tables rendered by [`report`].
//! Any spec the [`dfrs_sched::SchedulerRegistry`] resolves can be run
//! from the binaries via `--algo` without recompiling.
//!
//! Scale: binaries default to a laptop-scale subset and accept
//! `--paper-scale` for the full 100-instance configuration. Every run is
//! deterministic given `--seed`.

pub mod ablation;
pub mod availability;
pub mod cli;
pub mod drf;
pub mod fig1;
pub mod instances;
pub mod report;
pub mod robustness;
pub mod table1;
pub mod table2;
pub mod timing;

pub use dfrs_scenario::{Campaign, CampaignResult, CellResult, Scenario, ScenarioBuilder};
