//! # dfrs-sim
//!
//! Discrete-event simulator for fractional resource scheduling on a
//! homogeneous cluster — the substrate behind every experiment in the
//! IPDPS 2010 DFRS paper (Section IV-A).
//!
//! ## Model
//!
//! * Nodes have unit CPU and unit memory. Tasks placed on a node consume
//!   memory **hard** (the engine rejects overcommitment) and CPU
//!   **fluidly**: each running job has a *yield* in `(0, 1]` and every one
//!   of its tasks is allocated `cpu_need × yield` of its node.
//! * A job's **virtual time** advances at `yield` seconds per second; the
//!   job completes when virtual time reaches its dedicated runtime.
//!   Between scheduler decisions yields are constant, so completions are
//!   computed exactly rather than time-stepped.
//! * Schedulers ([`Scheduler`]) are driven by events — job submission,
//!   job completion, per-job timers (backoff), periodic ticks, and
//!   platform events (node failure/repair, [`SchedEvent::NodeDown`] /
//!   [`SchedEvent::NodeUp`]) — and respond with [`Plan`]s: pause
//!   entries and full `(placement, yield)` run entries. The engine diffs plans against current state to count
//!   **preemptions** and **migrations**, to charge the optional
//!   **rescheduling penalty** (300 s of frozen progress after a resume or
//!   migration, Section IV-A), and to meter the bytes moved through
//!   network storage (Table II).
//! * The engine never lets algorithms observe the penalty; the
//!   clairvoyant runtime accessor used by the batch baselines is explicit
//!   ([`dfrs_core::JobSpec::oracle_runtime`]).
//!
//! ## Entry points
//!
//! [`simulate`] runs one scheduler over one job list and returns a
//! [`SimOutcome`] with per-job records and the aggregate metrics every
//! table and figure of the paper is computed from. It is a thin wrapper
//! over the streaming core, [`simulate_stream`], which pulls
//! submissions from a [`SubmissionSource`] and emits completed-job
//! records through a [`RecordSink`] — memory stays bounded by the live
//! set, and the two paths are byte-identical by construction. For
//! open-ended operation (submissions arriving over time, node events on
//! command, snapshot/restore at quiescence) there is [`SimSession`],
//! the command-driven session behind the `dfrs-serve` daemon.
//!
//! ```
//! use dfrs_core::ids::{JobId, NodeId};
//! use dfrs_core::{ClusterSpec, JobSpec};
//! use dfrs_sim::{simulate, Plan, SchedEvent, Scheduler, SimConfig, SimState};
//!
//! /// Start every job on node 0 at full yield the moment it arrives.
//! struct RunNow;
//! impl Scheduler for RunNow {
//!     fn name(&self) -> String { "run-now".into() }
//!     fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
//!         match ev {
//!             SchedEvent::Submit(id) => {
//!                 let tasks = state.job(id).spec.tasks;
//!                 Plan::noop().run(id, vec![NodeId(0); tasks as usize], 1.0)
//!             }
//!             _ => Plan::noop(),
//!         }
//!     }
//! }
//!
//! let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
//! let jobs = vec![JobSpec::new(JobId(0), 0.0, 1, 0.5, 0.2, 120.0).unwrap()];
//! let out = simulate(cluster, &jobs, &mut RunNow, &SimConfig::default());
//! assert_eq!(out.records[0].completion, 120.0);
//! assert_eq!(out.max_stretch, 1.0);
//! ```

pub mod engine;
pub mod error;
pub mod event;
pub mod export;
pub mod outcome;
pub mod plan;
pub mod session;
pub mod shard;
pub mod source;
pub mod state;
pub mod timeline;
pub mod validate;

pub use engine::{
    simulate, simulate_stream, try_simulate, FailurePolicy, MigrationMode, NodeEvent, SimConfig,
};
pub use error::SimError;
pub use event::{EventKind, EventQueue};
pub use outcome::{DecisionSample, JobRecord, SimOutcome};
pub use plan::{NodeSpan, Plan, PlanEntry, RepackStats, SchedEvent, Scheduler};
pub use session::{snapshot_spec, SimSession, SNAPSHOT_SCHEMA};
pub use shard::{partition, ShardView};
pub use source::{DiscardRecords, FnSink, IterSource, RecordSink, SliceSource, SubmissionSource};
pub use state::{ClusterState, FreeNodes, JobState, JobStatus, JobStore, NodeState, SimState};
pub use timeline::{AllocEvent, Timeline, TimelineEntry};
pub use validate::{check_invariants, check_plan, PlanError, ValidationError};
