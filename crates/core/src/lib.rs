//! # dfrs-core
//!
//! Core types and math for **Dynamic Fractional Resource Scheduling**
//! (DFRS), the job-scheduling approach of Stillwell, Vivien and Casanova
//! (IPDPS 2010).
//!
//! This crate is deliberately free of any simulation or algorithmic logic;
//! it defines the vocabulary shared by the rest of the workspace:
//!
//! * [`JobId`], [`NodeId`] — typed identifiers;
//! * [`JobSpec`] — a job request: submit time, task count, per-task CPU
//!   need and memory requirement, and the (oracle-only) dedicated runtime;
//! * [`ClusterSpec`] — a homogeneous cluster description;
//! * [`stretch`] — the bounded-stretch metric the paper reports;
//! * [`priority`] — the pause/resume priority function
//!   `max(30, flow_time) / virtual_time²`;
//! * [`yield_math`] — helpers for yields (allocated CPU / CPU need);
//! * [`stats`] — numerically stable online statistics (Welford) used for
//!   the avg/std/max aggregates of Table I and Table II;
//! * [`constants`] — the paper's magic numbers in one place.
//!
//! ## Conventions
//!
//! * Time is `f64` seconds from the start of the trace.
//! * CPU and memory quantities are fractions of one node's capacity in
//!   `[0, 1]` (CPU *loads*, being sums of needs, may exceed 1).
//! * All randomness lives in `dfrs-workload`; this crate is deterministic.

pub mod approx;
pub mod checksum;
pub mod cluster;
pub mod constants;
pub mod error;
pub mod histogram;
pub mod ids;
pub mod job;
pub mod json;
pub mod pool;
pub mod priority;
pub mod resources;
pub mod stats;
pub mod stretch;
pub mod yield_math;

pub use cluster::ClusterSpec;
pub use error::CoreError;
pub use histogram::LogHistogram;
pub use ids::{JobId, NodeId};
pub use job::JobSpec;
pub use priority::Priority;
pub use resources::{ResourceVec, DIM_CPU, DIM_FLUID, DIM_GPU, DIM_MEM, RESOURCE_DIMS};
pub use stats::OnlineStats;
