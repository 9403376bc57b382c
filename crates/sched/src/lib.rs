//! # dfrs-sched
//!
//! The nine scheduling algorithms evaluated in the IPDPS 2010 DFRS paper
//! (Section III for the DFRS algorithms, Section IV-B for the batch
//! baselines), all implemented against the [`dfrs_sim::Scheduler`]
//! interface:
//!
//! | Registry key | Paper name | Mechanisms |
//! |---|---|---|
//! | `fcfs` | FCFS | integral nodes, FIFO queue |
//! | `easy` | EASY | integral nodes + backfilling, perfect estimates |
//! | `greedy` | GREEDY | fractional CPU, backoff postponing |
//! | `greedy-pmtn` | GREEDY-PMTN | + priority-based pausing |
//! | `greedy-pmtn-migr` | GREEDY-PMTN-MIGR | + same-event re-placement |
//! | `dynmcb8` | DYNMCB8 | MCB8 repack at every event |
//! | `dynmcb8-per` | DYNMCB8-PER-600 | periodic repack |
//! | `dynmcb8-asap-per` | DYNMCB8-ASAP-PER-600 | periodic + greedy admission |
//! | `dynmcb8-stretch-per` | DYNMCB8-STRETCH-PER-600 | periodic, minimizes estimated stretch |
//!
//! Each family is one crate-private scheduler with no public type; the
//! registry's keys build them:
//!
//! - the batch baselines are one FIFO queue that backfills behind
//!   nobody (FCFS), behind the head (EASY) or behind every queued job
//!   (`conservative-bf`);
//! - the greedy family is one driver with two switches: pause to admit
//!   (PMTN), and re-place the paused at once (MIGR);
//! - the DYNMCB8 family is one repacker, a trigger (every event, every
//!   `T`, every `T` with ASAP admission) × an objective (max-min yield,
//!   min-max estimated stretch, max-min dominant share).
//!
//! Only the batch baselines are clairvoyant (EASY backfills with perfect
//! runtime estimates, as in the paper's evaluation); no DFRS algorithm
//! reads `oracle_runtime`.
//!
//! [`spec::SchedulerRegistry`] is the open entry point: string-keyed
//! factories with typed parameters (`"dynmcb8-per:t=300"`), extensible
//! by user code, and the only way to name a scheduler.
//! [`PAPER_SPECS`] and [`PREEMPTING_SPECS`] list the keys of the
//! paper's Table I and Table II rows. Extensions beyond the paper:
//! `conservative-bf` (conservative backfilling), the multi-resource
//! `dynmcb8-drf` / `dynmcb8-drf-per` pair (max-min **dominant share**
//! over CPU+GPU instead of max-min yield), and the
//! [`Sharded`] coordinator (`sharded:<inner-spec>:shards=N`).
//!
//! ```
//! use dfrs_core::ids::JobId;
//! use dfrs_core::{ClusterSpec, JobSpec};
//! use dfrs_sched::SchedulerRegistry;
//! use dfrs_sim::{simulate, SimConfig};
//!
//! // Two memory-light jobs a batch scheduler would serialize run
//! // concurrently under DFRS.
//! let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
//! let jobs: Vec<JobSpec> = (0..2)
//!     .map(|i| JobSpec::new(JobId(i), 0.0, 2, 0.25, 0.1, 300.0).unwrap())
//!     .collect();
//! let reg = SchedulerRegistry::builtin();
//! let fcfs = simulate(cluster, &jobs, reg.build_str("fcfs").unwrap().as_mut(), &SimConfig::default());
//! let dfrs = simulate(cluster, &jobs, reg.build_str("greedy-pmtn").unwrap().as_mut(), &SimConfig::default());
//! assert_eq!(fcfs.max_stretch, 2.0);
//! assert_eq!(dfrs.max_stretch, 1.0);
//! ```

mod batch;
mod common;
mod conservative;
mod drf;
mod dynmcb8;
mod evict;
mod greedy;
pub mod registry;
pub mod sharded;
pub mod spec;
mod stretch_per;

pub use registry::{PAPER_SPECS, PREEMPTING_SPECS};
pub use sharded::Sharded;
pub use spec::{SchedulerFactory, SchedulerRegistry, SchedulerSpec, SpecError, SpecParams};
