//! # dfrs-sched
//!
//! The nine scheduling algorithms evaluated in the IPDPS 2010 DFRS paper
//! (Section III for the DFRS algorithms, Section IV-B for the batch
//! baselines), all implemented against the [`dfrs_sim::Scheduler`]
//! interface:
//!
//! | Constructor | Paper name | Mechanisms |
//! |---|---|---|
//! | [`batch::Fcfs`] | FCFS | integral nodes, FIFO queue |
//! | [`batch::Easy`] | EASY | integral nodes + backfilling, perfect estimates |
//! | [`greedy::Greedy`] | GREEDY | fractional CPU, backoff postponing |
//! | [`greedy::GreedyPmtn`] | GREEDY-PMTN | + priority-based pausing |
//! | [`greedy::GreedyPmtnMigr`] | GREEDY-PMTN-MIGR | + same-event re-placement |
//! | [`dynmcb8::DynMcb8`] | DYNMCB8 | MCB8 repack at every event |
//! | [`dynmcb8::DynMcb8Per`] | DYNMCB8-PER-600 | periodic repack |
//! | [`dynmcb8::DynMcb8AsapPer`] | DYNMCB8-ASAP-PER-600 | periodic + greedy admission |
//! | [`stretch_per::DynMcb8StretchPer`] | DYNMCB8-STRETCH-PER-600 | periodic, minimizes estimated stretch |
//!
//! Only the batch baselines are clairvoyant (EASY backfills with perfect
//! runtime estimates, as in the paper's evaluation); no DFRS algorithm
//! reads `oracle_runtime`.
//!
//! [`spec::SchedulerRegistry`] is the open entry point: string-keyed
//! factories with typed parameters (`"dynmcb8-per:t=300"`), extensible
//! by user code. [`registry::Algorithm`] enumerates the paper's nine as
//! a thin shim over the registry for the fixed Table I/II harnesses.
//! Extensions beyond the paper: [`conservative::ConservativeBf`]
//! (conservative backfilling), [`fairness::DynMcb8FairPer`]
//! (long-job yield damping, the paper's future-work sketch), and the
//! multi-resource [`drf::DynMcb8Drf`] / [`drf::DynMcb8DrfPer`] family
//! (max-min **dominant share** over CPU+GPU instead of max-min yield)
//! — registered as `conservative-bf`, `dynmcb8-fair-per`,
//! `dynmcb8-drf`, and `dynmcb8-drf-per`.
//!
//! ```
//! use dfrs_core::ids::JobId;
//! use dfrs_core::{ClusterSpec, JobSpec};
//! use dfrs_sched::Algorithm;
//! use dfrs_sim::{simulate, SimConfig};
//!
//! // Two memory-light jobs a batch scheduler would serialize run
//! // concurrently under DFRS.
//! let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
//! let jobs: Vec<JobSpec> = (0..2)
//!     .map(|i| JobSpec::new(JobId(i), 0.0, 2, 0.25, 0.1, 300.0).unwrap())
//!     .collect();
//! let fcfs = simulate(cluster, &jobs, Algorithm::Fcfs.build().as_mut(), &SimConfig::default());
//! let dfrs = simulate(cluster, &jobs, Algorithm::GreedyPmtn.build().as_mut(), &SimConfig::default());
//! assert_eq!(fcfs.max_stretch, 2.0);
//! assert_eq!(dfrs.max_stretch, 1.0);
//! ```

pub mod batch;
pub mod common;
pub mod conservative;
pub mod drf;
pub mod dynmcb8;
mod evict;
pub mod fairness;
pub mod greedy;
pub mod registry;
pub mod sharded;
pub mod spec;
pub mod stretch_per;

pub use batch::{Easy, Fcfs};
pub use conservative::ConservativeBf;
pub use drf::{DynMcb8Drf, DynMcb8DrfPer};
pub use dynmcb8::{DynMcb8, DynMcb8AsapPer, DynMcb8Per};
pub use fairness::DynMcb8FairPer;
pub use greedy::{Greedy, GreedyPmtn, GreedyPmtnMigr};
pub use registry::Algorithm;
pub use sharded::Sharded;
pub use spec::{SchedulerFactory, SchedulerRegistry, SchedulerSpec, SpecError, SpecParams};
pub use stretch_per::DynMcb8StretchPer;
