//! # dfrs — Dynamic Fractional Resource Scheduling for HPC workloads
//!
//! A from-scratch reproduction of Stillwell, Vivien & Casanova,
//! *"Dynamic Fractional Resource Scheduling for HPC Workloads"*, IEEE
//! IPDPS 2010. This meta-crate re-exports the whole workspace; see the
//! README for a guided tour and DESIGN.md for the design layer by
//! layer, from the experiment API (registry → scenario → campaign) down.
//!
//! The front door is [`ScenarioBuilder`]: pick a workload source, a
//! cluster, and engine knobs, then run any scheduler the
//! [`SchedulerRegistry`] knows by its spec string.
//!
//! ```
//! use dfrs::core::ids::JobId;
//! use dfrs::core::{ClusterSpec, JobSpec};
//! use dfrs::ScenarioBuilder;
//!
//! // Two memory-light jobs that batch scheduling would serialize share
//! // the cluster under DFRS and both finish in dedicated time.
//! let scenario = ScenarioBuilder::new()
//!     .cluster(ClusterSpec::new(2, 4, 8.0).unwrap())
//!     .jobs(vec![
//!         JobSpec::new(JobId(0), 0.0, 2, 0.25, 0.1, 600.0).unwrap(),
//!         JobSpec::new(JobId(1), 0.0, 2, 0.25, 0.1, 600.0).unwrap(),
//!     ])
//!     .build()
//!     .unwrap();
//! assert_eq!(scenario.run("easy").unwrap().max_stretch, 2.0);
//! assert_eq!(scenario.run("greedy-pmtn").unwrap().max_stretch, 1.0);
//! ```
//!
//! A [`Campaign`] runs whole `scenarios × specs` matrices in parallel
//! with deterministic results:
//!
//! ```
//! use dfrs::{Campaign, ScenarioBuilder};
//!
//! let scenarios = vec![ScenarioBuilder::new()
//!     .lublin(30) // 30 jobs from the Lublin-Feitelson model
//!     .load(0.7) // rescaled to offered load 0.7
//!     .seed(42)
//!     .build()
//!     .unwrap()];
//! let result = Campaign::new(&scenarios, ["easy", "dynmcb8-per:t=300"])
//!     .unwrap()
//!     .penalty(300.0)
//!     .threads(4)
//!     .run();
//! assert!(result.cells[0][0].max_stretch >= result.cells[0][1].max_stretch);
//! ```

pub use dfrs_core as core;
pub use dfrs_experiments as experiments;
pub use dfrs_packing as packing;
pub use dfrs_scenario as scenario;
pub use dfrs_sched as sched;
pub use dfrs_sim as sim;
pub use dfrs_workload as workload;

pub use dfrs_scenario::{
    Campaign, CampaignResult, CellResult, CellUpdate, FailureModel, Scenario, ScenarioBuilder,
    ScenarioError, WorkloadSource,
};
pub use dfrs_sched::{SchedulerRegistry, SchedulerSpec, SpecError, PAPER_SPECS, PREEMPTING_SPECS};
pub use dfrs_sim::{FailurePolicy, MigrationMode, NodeEvent};
