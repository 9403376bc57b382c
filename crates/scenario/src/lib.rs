//! # dfrs-scenario
//!
//! The unified experiment API over the DFRS simulator: a [`Scenario`] is
//! one simulatable workload (cluster + jobs + engine config), built
//! fluently by [`ScenarioBuilder`] from any workload source the paper
//! uses — scaled/unscaled Lublin, Downey, HPC2N-like weeks, an SWF file,
//! or a crafted job list. A [`Campaign`] runs `scenarios × scheduler
//! specs` across threads with deterministic results and a streaming
//! per-cell observer.
//!
//! The three layers (see DESIGN.md "Experiment API"):
//!
//! 1. **registry** ([`dfrs_sched::SchedulerRegistry`]) — string-keyed
//!    scheduler factories, `"dynmcb8-per:t=300"`;
//! 2. **scenario** ([`ScenarioBuilder`] → [`Scenario::run`]) — one
//!    workload, one scheduler, one [`SimOutcome`](dfrs_sim::SimOutcome);
//! 3. **campaign** ([`Campaign`] → [`CampaignResult`]) — the full
//!    matrix, replacing the former `run_matrix`/`run_matrix_with` pair.
//!
//! ```
//! use dfrs_scenario::{Campaign, ScenarioBuilder};
//!
//! let scenarios = vec![ScenarioBuilder::new()
//!     .label("demo")
//!     .lublin(40)
//!     .load(0.7)
//!     .seed(11)
//!     .build()
//!     .unwrap()];
//! let result = Campaign::new(&scenarios, ["easy", "dynmcb8-asap-per:t=300"])
//!     .unwrap()
//!     .threads(2)
//!     .run();
//! assert_eq!(result.cells[0].len(), 2);
//! assert!(result.cells[0][0].max_stretch >= 1.0);
//! ```

pub mod campaign;
pub mod scenario;

pub use campaign::{
    degradation_row, degradation_stats, Campaign, CampaignResult, CellResult, CellUpdate,
};
pub use scenario::{FailureModel, Scenario, ScenarioBuilder, ScenarioError, WorkloadSource};
