//! Whole-state invariant checking and plan pre-validation, with typed
//! error variants.
//!
//! The engine keeps per-node aggregates incrementally; this module
//! recomputes everything from scratch from the job placements and
//! cross-checks. Tests run it around every plan application
//! (`SimConfig::validate`), so any drift or bookkeeping bug surfaces at
//! the first event that introduces it. [`check_plan`] additionally
//! rejects malformed plans *before* they are applied — unknown job ids,
//! duplicate mentions, wrong task counts, bad yields, unknown nodes,
//! and over-capacity placements all come back as a specific
//! [`PlanError`] variant instead of a panic mid-application.

use std::fmt;

use dfrs_core::approx;
use dfrs_core::ids::{JobId, NodeId};

use crate::plan::{Plan, PlanEntry};
use crate::state::{JobStatus, NodeState, SimState};

/// Tolerance for comparing incrementally maintained sums against
/// recomputed ones (looser than [`approx::EPS`]: thousands of add/remove
/// pairs accumulate rounding).
const SUM_TOLERANCE: f64 = 1e-6;

/// A violated engine invariant (state-level; see [`PlanError`] for
/// plan-level rejections).
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A running job's yield is outside `(0, 1]`.
    BadYield {
        /// Offending job.
        job: JobId,
        /// Its yield.
        yld: f64,
    },
    /// A placement references a node outside the cluster.
    UnknownNode {
        /// Offending job.
        job: JobId,
        /// The nonexistent node.
        node: NodeId,
    },
    /// A running job holds a task on a node that is out of service.
    TaskOnDownNode {
        /// Offending job.
        job: JobId,
        /// The down node.
        node: NodeId,
    },
    /// A completed job has no completion timestamp.
    MissingCompletion {
        /// Offending job.
        job: JobId,
    },
    /// A job's virtual time exceeds its runtime beyond tolerance.
    VirtualTimeOvershoot {
        /// Offending job.
        job: JobId,
        /// Accrued virtual time.
        virtual_time: f64,
        /// Its dedicated runtime.
        runtime: f64,
    },
    /// A node's recomputed memory use exceeds capacity.
    MemoryOvercommitted {
        /// Offending node.
        node: NodeId,
        /// Recomputed memory use.
        mem_used: f64,
    },
    /// A node's recomputed CPU allocation exceeds capacity.
    CpuOverallocated {
        /// Offending node.
        node: NodeId,
        /// Recomputed CPU allocation.
        cpu_alloc: f64,
    },
    /// A node's recomputed GPU allocation exceeds capacity.
    GpuOverallocated {
        /// Offending node.
        node: NodeId,
        /// Recomputed GPU allocation.
        gpu_alloc: f64,
    },
    /// Incrementally maintained node state drifted from the recomputed
    /// truth.
    BookkeepingDrift {
        /// Offending node.
        node: NodeId,
        /// What the engine carries.
        engine: NodeState,
        /// What the placements imply.
        recomputed: NodeState,
    },
    /// The busy-node counter disagrees with the recomputed value.
    BusyCountDrift {
        /// Engine counter.
        engine: u32,
        /// Recomputed count.
        recomputed: u32,
    },
    /// The live/running indexes disagree with job statuses.
    IndexDrift {
        /// Which index.
        index: &'static str,
        /// Engine index size.
        engine: usize,
        /// Recomputed size.
        recomputed: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::BadYield { job, yld } => {
                write!(f, "{job} running with yield {yld}")
            }
            ValidationError::UnknownNode { job, node } => {
                write!(f, "{job} placed on nonexistent {node}")
            }
            ValidationError::TaskOnDownNode { job, node } => {
                write!(f, "{job} holds a task on out-of-service {node}")
            }
            ValidationError::MissingCompletion { job } => {
                write!(f, "{job} completed without a completion time")
            }
            ValidationError::VirtualTimeOvershoot {
                job,
                virtual_time,
                runtime,
            } => write!(
                f,
                "{job} overshot its runtime: vt={virtual_time} runtime={runtime}"
            ),
            ValidationError::MemoryOvercommitted { node, mem_used } => {
                write!(f, "{node} memory overcommitted: {mem_used}")
            }
            ValidationError::CpuOverallocated { node, cpu_alloc } => {
                write!(f, "{node} CPU overallocated: {cpu_alloc}")
            }
            ValidationError::GpuOverallocated { node, gpu_alloc } => {
                write!(f, "{node} GPU overallocated: {gpu_alloc}")
            }
            ValidationError::BookkeepingDrift {
                node,
                engine,
                recomputed,
            } => write!(
                f,
                "{node} bookkeeping drift: engine {engine:?} vs recomputed {recomputed:?}"
            ),
            ValidationError::BusyCountDrift { engine, recomputed } => {
                write!(
                    f,
                    "busy-node count drift: engine {engine} vs recomputed {recomputed}"
                )
            }
            ValidationError::IndexDrift {
                index,
                engine,
                recomputed,
            } => write!(
                f,
                "{index} index drift: engine tracks {engine} jobs, statuses imply {recomputed}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check every engine invariant; returns the first violation.
pub fn check_invariants(state: &SimState) -> Result<(), ValidationError> {
    let n_nodes = state.cluster.nodes().len();
    let mut recomputed = vec![NodeState::default(); n_nodes];

    let (mut live, mut running) = (0usize, 0usize);
    for j in &state.jobs {
        if j.in_system() {
            live += 1;
        }
        match j.status {
            JobStatus::Running => {
                running += 1;
                if !(j.yld > 0.0 && j.yld <= 1.0 + approx::EPS) {
                    return Err(ValidationError::BadYield {
                        job: j.spec.id,
                        yld: j.yld,
                    });
                }
                for &node in state.placement(j.spec.id) {
                    let Some(ns) = recomputed.get_mut(node.index()) else {
                        return Err(ValidationError::UnknownNode {
                            job: j.spec.id,
                            node,
                        });
                    };
                    if !state.cluster.is_up(node) {
                        return Err(ValidationError::TaskOnDownNode {
                            job: j.spec.id,
                            node,
                        });
                    }
                    ns.cpu_load += j.spec.cpu_need;
                    ns.cpu_alloc += j.spec.cpu_need * j.yld;
                    ns.gpu_alloc += j.spec.gpu_need * j.yld;
                    ns.mem_used += j.spec.mem_req;
                    ns.task_count += 1;
                }
            }
            JobStatus::Pending | JobStatus::Paused | JobStatus::Unsubmitted => {}
            JobStatus::Completed => {
                if j.completion.is_none() {
                    return Err(ValidationError::MissingCompletion { job: j.spec.id });
                }
            }
        }
        if j.virtual_time > j.spec.oracle_runtime() + 1e-3 {
            return Err(ValidationError::VirtualTimeOvershoot {
                job: j.spec.id,
                virtual_time: j.virtual_time,
                runtime: j.spec.oracle_runtime(),
            });
        }
    }

    if live != state.jobs_in_system().count() {
        return Err(ValidationError::IndexDrift {
            index: "live",
            engine: state.jobs_in_system().count(),
            recomputed: live,
        });
    }
    if running != state.running_jobs().count() {
        return Err(ValidationError::IndexDrift {
            index: "running",
            engine: state.running_jobs().count(),
            recomputed: running,
        });
    }

    let mut busy = 0u32;
    for (i, (got, want)) in state
        .cluster
        .nodes()
        .iter()
        .zip(recomputed.iter())
        .enumerate()
    {
        let node = NodeId(i as u32);
        if want.mem_used > 1.0 + SUM_TOLERANCE {
            return Err(ValidationError::MemoryOvercommitted {
                node,
                mem_used: want.mem_used,
            });
        }
        if want.cpu_alloc > 1.0 + SUM_TOLERANCE {
            return Err(ValidationError::CpuOverallocated {
                node,
                cpu_alloc: want.cpu_alloc,
            });
        }
        if want.gpu_alloc > 1.0 + SUM_TOLERANCE {
            return Err(ValidationError::GpuOverallocated {
                node,
                gpu_alloc: want.gpu_alloc,
            });
        }
        if (got.cpu_load - want.cpu_load).abs() > SUM_TOLERANCE
            || (got.cpu_alloc - want.cpu_alloc).abs() > SUM_TOLERANCE
            || (got.gpu_alloc - want.gpu_alloc).abs() > SUM_TOLERANCE
            || (got.mem_used - want.mem_used).abs() > SUM_TOLERANCE
            || got.task_count != want.task_count
        {
            return Err(ValidationError::BookkeepingDrift {
                node,
                engine: *got,
                recomputed: *want,
            });
        }
        if want.task_count > 0 {
            busy += 1;
        }
    }
    if busy != state.cluster.busy_nodes() {
        return Err(ValidationError::BusyCountDrift {
            engine: state.cluster.busy_nodes(),
            recomputed: busy,
        });
    }
    Ok(())
}

/// Why a plan was rejected before application.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// An entry names a job id outside the trace.
    UnknownJob {
        /// The nonexistent id.
        job: JobId,
    },
    /// A job appears in more than one entry (pause + run, duplicate
    /// run, or duplicate pause).
    DuplicateJob {
        /// The twice-mentioned job.
        job: JobId,
    },
    /// A run entry's placement length differs from the job's task count.
    WrongTaskCount {
        /// Target job.
        job: JobId,
        /// Placement entries supplied.
        placed: usize,
        /// Tasks the job has.
        tasks: u32,
    },
    /// A run entry's yield is outside `(0, 1]`.
    InvalidYield {
        /// Target job.
        job: JobId,
        /// The bad yield.
        yld: f64,
    },
    /// A placement references a node outside the cluster.
    UnknownNode {
        /// Target job.
        job: JobId,
        /// The nonexistent node.
        node: NodeId,
    },
    /// A placement references a node that is out of service (failed,
    /// not yet repaired). Schedulers must consume the available-node
    /// view ([`crate::ClusterState::available_nodes`]).
    NodeUnavailable {
        /// Target job.
        job: JobId,
        /// The down node.
        node: NodeId,
    },
    /// The entry runs a job that is unsubmitted or completed.
    InvalidStatus {
        /// Target job.
        job: JobId,
        /// Its current status.
        status: JobStatus,
    },
    /// The entry pauses a job that is not running.
    PauseNotRunning {
        /// Target job.
        job: JobId,
        /// Its current status.
        status: JobStatus,
    },
    /// Applying the plan would exceed a node's memory capacity.
    OverCapacityMemory {
        /// Overflowing node.
        node: NodeId,
        /// Its memory use after the plan.
        mem_used: f64,
    },
    /// Applying the plan would exceed a node's CPU capacity.
    OverCapacityCpu {
        /// Overflowing node.
        node: NodeId,
        /// Its CPU allocation after the plan.
        cpu_alloc: f64,
    },
    /// Applying the plan would exceed a node's GPU capacity.
    OverCapacityGpu {
        /// Overflowing node.
        node: NodeId,
        /// Its GPU allocation after the plan.
        gpu_alloc: f64,
    },
    /// A timer is scheduled in the past.
    TimerInPast {
        /// Target job.
        job: JobId,
        /// Requested fire time.
        at: f64,
        /// Current simulation time.
        now: f64,
    },
}

impl PlanError {
    /// The job the violation is attributable to, when the variant names
    /// one. The over-capacity variants name only the overflowing node —
    /// attribution there needs a scan of the plan's entries (the serve
    /// layer's quarantine does exactly that).
    pub fn job(&self) -> Option<JobId> {
        match self {
            PlanError::UnknownJob { job }
            | PlanError::DuplicateJob { job }
            | PlanError::WrongTaskCount { job, .. }
            | PlanError::InvalidYield { job, .. }
            | PlanError::UnknownNode { job, .. }
            | PlanError::NodeUnavailable { job, .. }
            | PlanError::InvalidStatus { job, .. }
            | PlanError::PauseNotRunning { job, .. }
            | PlanError::TimerInPast { job, .. } => Some(*job),
            PlanError::OverCapacityMemory { .. }
            | PlanError::OverCapacityCpu { .. }
            | PlanError::OverCapacityGpu { .. } => None,
        }
    }

    /// The node the violation names, for the capacity variants.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            PlanError::OverCapacityMemory { node, .. }
            | PlanError::OverCapacityCpu { node, .. }
            | PlanError::OverCapacityGpu { node, .. } => Some(*node),
            _ => None,
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownJob { job } => write!(f, "plan references unknown {job}"),
            PlanError::DuplicateJob { job } => {
                write!(f, "plan mentions {job} more than once")
            }
            PlanError::WrongTaskCount { job, placed, tasks } => {
                write!(f, "plan places {placed} tasks for {job} ({tasks} expected)")
            }
            PlanError::InvalidYield { job, yld } => {
                write!(f, "plan sets invalid yield {yld} for {job}")
            }
            PlanError::UnknownNode { job, node } => {
                write!(f, "plan places {job} on nonexistent {node}")
            }
            PlanError::NodeUnavailable { job, node } => {
                write!(f, "plan places {job} on out-of-service {node}")
            }
            PlanError::InvalidStatus { job, status } => {
                write!(f, "plan runs {job} in status {status:?}")
            }
            PlanError::PauseNotRunning { job, status } => {
                write!(f, "plan pauses {job} in status {status:?}")
            }
            PlanError::OverCapacityMemory { node, mem_used } => {
                write!(f, "plan overcommits {node} memory: {mem_used}")
            }
            PlanError::OverCapacityCpu { node, cpu_alloc } => {
                write!(f, "plan overallocates {node} CPU: {cpu_alloc}")
            }
            PlanError::OverCapacityGpu { node, gpu_alloc } => {
                write!(f, "plan overallocates {node} GPU: {gpu_alloc}")
            }
            PlanError::TimerInPast { job, at, now } => {
                write!(f, "plan sets timer for {job} in the past ({at} < {now})")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Validate `plan` against `state` without applying it: structural
/// checks first (ids, duplicates, task counts, yields, statuses,
/// nodes), then a two-phase capacity simulation mirroring the engine's
/// removals-before-additions application order. Returns the first
/// violation as a typed [`PlanError`].
///
/// A plan without a run entry places nothing, so no node can overflow:
/// its verdict is the structural and timer checks alone, and the
/// capacity pass is skipped.
pub fn check_plan(state: &SimState, plan: &Plan) -> Result<(), PlanError> {
    let n_jobs = state.jobs.len();
    let n_nodes = state.cluster.nodes().len();
    // Duplicate tracking is window-relative so validation memory stays
    // bounded on streamed runs; evicted ids (always completed) fail the
    // status checks below before duplicate tracking matters.
    let base = state.jobs.first_resident();
    let mut seen = vec![false; state.jobs.resident()];

    let mut check_job = |job: JobId| -> Result<(), PlanError> {
        if job.index() >= n_jobs {
            return Err(PlanError::UnknownJob { job });
        }
        if let Some(k) = job.index().checked_sub(base) {
            if seen[k] {
                return Err(PlanError::DuplicateJob { job });
            }
            seen[k] = true;
        }
        Ok(())
    };

    let mut has_run = false;
    for e in &plan.entries {
        match e {
            PlanEntry::Pause { job } => {
                check_job(*job)?;
                // An evicted id is a completed job streamed out already.
                let status = state
                    .jobs
                    .get(job.index())
                    .map_or(JobStatus::Completed, |j| j.status);
                if status != JobStatus::Running {
                    return Err(PlanError::PauseNotRunning { job: *job, status });
                }
            }
            PlanEntry::Run { job, yld, .. } => {
                has_run = true;
                let placement = plan.placement(e);
                check_job(*job)?;
                let Some(j) = state.jobs.get(job.index()) else {
                    return Err(PlanError::InvalidStatus {
                        job: *job,
                        status: JobStatus::Completed,
                    });
                };
                if matches!(j.status, JobStatus::Unsubmitted | JobStatus::Completed) {
                    return Err(PlanError::InvalidStatus {
                        job: *job,
                        status: j.status,
                    });
                }
                if placement.len() != j.spec.tasks as usize {
                    return Err(PlanError::WrongTaskCount {
                        job: *job,
                        placed: placement.len(),
                        tasks: j.spec.tasks,
                    });
                }
                if !(*yld > 0.0 && *yld <= 1.0 + approx::EPS) {
                    return Err(PlanError::InvalidYield {
                        job: *job,
                        yld: *yld,
                    });
                }
                if let Some(&node) = placement.iter().find(|n| n.index() >= n_nodes) {
                    return Err(PlanError::UnknownNode { job: *job, node });
                }
                if let Some(&node) = placement.iter().find(|&&n| !state.cluster.is_up(n)) {
                    return Err(PlanError::NodeUnavailable { job: *job, node });
                }
            }
        }
    }

    for &(job, at) in &plan.timers {
        if job.index() >= n_jobs {
            return Err(PlanError::UnknownJob { job });
        }
        if at + approx::EPS < state.now {
            return Err(PlanError::TimerInPast {
                job,
                at,
                now: state.now,
            });
        }
    }
    if !has_run {
        return Ok(());
    }

    // Capacity simulation, mirroring the engine's two-phase order:
    // every mentioned running job's tasks leave first, then the final
    // placements land. Jobs not mentioned keep their allocation. The
    // rejection threshold is the engine's own `approx::EPS` (the same
    // tolerance its capacity assertions use), so a plan this check
    // accepts cannot trip those assertions beyond summation-order
    // rounding (this recomputes sums fresh; the engine accumulates
    // incrementally — the disagreement window is a few ulps).
    let mut mem = vec![0.0f64; n_nodes];
    let mut cpu = vec![0.0f64; n_nodes];
    let mut gpu = vec![0.0f64; n_nodes];
    for j in state.running_jobs() {
        let touched = seen[j.spec.id.index() - base];
        for &node in state.placement(j.spec.id) {
            if !touched {
                mem[node.index()] += j.spec.mem_req;
                cpu[node.index()] += j.spec.cpu_need * j.yld;
                gpu[node.index()] += j.spec.gpu_need * j.yld;
            }
        }
    }
    for e in &plan.entries {
        if let PlanEntry::Run { job, yld, .. } = e {
            let spec = &state.job(*job).spec;
            for &node in plan.placement(e) {
                let m = &mut mem[node.index()];
                *m += spec.mem_req;
                if !approx::le(*m, 1.0) {
                    return Err(PlanError::OverCapacityMemory { node, mem_used: *m });
                }
                let c = &mut cpu[node.index()];
                *c += spec.cpu_need * yld.min(1.0);
                if !approx::le(*c, 1.0) {
                    return Err(PlanError::OverCapacityCpu {
                        node,
                        cpu_alloc: *c,
                    });
                }
                let g = &mut gpu[node.index()];
                *g += spec.gpu_need * yld.min(1.0);
                if !approx::le(*g, 1.0) {
                    return Err(PlanError::OverCapacityGpu {
                        node,
                        gpu_alloc: *g,
                    });
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SimState;
    use dfrs_core::ids::{JobId, NodeId};
    use dfrs_core::{ClusterSpec, JobSpec};

    fn base_state() -> SimState {
        SimState::new(
            ClusterSpec::new(2, 4, 8.0).unwrap(),
            &[JobSpec::new(JobId(0), 0.0, 2, 0.5, 0.4, 100.0).unwrap()],
        )
    }

    /// Drive job 0 of `s` into a consistent running state.
    fn run_job0(s: &mut SimState, yld: f64) {
        s.jobs[0].status = JobStatus::Pending;
        s.index_transition(JobId(0), JobStatus::Unsubmitted, JobStatus::Pending);
        s.jobs[0].status = JobStatus::Running;
        s.jobs[0].yld = yld;
        s.index_transition(JobId(0), JobStatus::Pending, JobStatus::Running);
        s.placement_slot(JobId(0))
            .copy_from_slice(&[NodeId(0), NodeId(1)]);
        s.cluster.add_task(NodeId(0), 0.5, 0.4, 0.0, yld);
        s.cluster.add_task(NodeId(1), 0.5, 0.4, 0.0, yld);
    }

    #[test]
    fn clean_state_passes() {
        assert!(check_invariants(&base_state()).is_ok());
    }

    #[test]
    fn consistent_running_job_passes() {
        let mut s = base_state();
        run_job0(&mut s, 0.5);
        assert!(check_invariants(&s).is_ok());
    }

    #[test]
    fn detects_bookkeeping_drift() {
        let mut s = base_state();
        run_job0(&mut s, 1.0);
        // Engine-side allocation silently dropped -> drift.
        s.cluster.remove_task(NodeId(0), 0.5, 0.4, 0.0, 1.0);
        let err = check_invariants(&s).unwrap_err();
        assert!(
            matches!(err, ValidationError::BookkeepingDrift { node, .. } if node == NodeId(0)),
            "{err}"
        );
    }

    #[test]
    fn detects_vt_overshoot() {
        let mut s = base_state();
        s.jobs[0].virtual_time = 200.0; // runtime is 100
        assert!(matches!(
            check_invariants(&s).unwrap_err(),
            ValidationError::VirtualTimeOvershoot { job, .. } if job == JobId(0)
        ));
    }

    #[test]
    fn detects_bad_yield() {
        let mut s = base_state();
        run_job0(&mut s, 0.5);
        s.jobs[0].yld = 0.0;
        let err = check_invariants(&s).unwrap_err();
        assert!(matches!(err, ValidationError::BadYield { .. }), "{err}");
    }

    #[test]
    fn errors_render_readably() {
        let e = ValidationError::BusyCountDrift {
            engine: 3,
            recomputed: 2,
        };
        assert!(e.to_string().contains("busy-node count drift"));
        let p = PlanError::UnknownJob { job: JobId(9) };
        assert!(p.to_string().contains("unknown"));
    }
}
