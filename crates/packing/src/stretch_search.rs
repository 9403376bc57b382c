//! Binary search minimizing the **estimated maximum stretch**, the
//! allocation rule of `DYNMCB8-STRETCH-PER` (Section III-B).
//!
//! At a scheduling event, with no knowledge of execution times, the best
//! estimate of a job's stretch is flow time over virtual time. Assuming a
//! job keeps yield `y` for the whole next period `T`, its estimate at the
//! next event is `(flow + T) / (vt + y·T)`. Given a candidate bound `S`
//! on that estimate, each job's required yield is obtained by inverting
//! the formula; clamping (non-positive → 0.01 so no job holds memory
//! without progress, above 1 → 1) turns the needs into concrete CPU
//! requirements, and MCB8 decides feasibility. Bisection finds the lowest
//! feasible `S`.

use dfrs_core::constants::MIN_STRETCH_PER_YIELD;
use dfrs_core::ids::JobId;
use dfrs_core::yield_math;

use crate::bisect::bisect;
use crate::item::{PackItem, VectorPacker};
use crate::scratch::SearchScratch;

/// Per-job inputs to the estimated-stretch minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchJob {
    /// The job (carried through to the result).
    pub job: JobId,
    /// Number of tasks.
    pub tasks: u32,
    /// Per-task CPU need in `(0, 1]`.
    pub cpu_need: f64,
    /// Per-task memory requirement in `(0, 1]`.
    pub mem_req: f64,
    /// Seconds since submission.
    pub flow_time: f64,
    /// Accrued virtual time (seconds).
    pub virtual_time: f64,
}

/// Result: the achieved estimated-stretch bound, plus per-job yields
/// (aligned with the input order) and the node hosting every task.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchAllocation {
    /// The minimized bound on the estimated max stretch.
    pub target: f64,
    /// Per job: `(job, assigned yield, index in `bins` of its first
    /// task)`.
    pub assignments: Vec<(JobId, f64, u32)>,
    /// The node of every task, the input jobs' tasks back to back in
    /// input order (the packer's `bin_of`).
    pub bins: Vec<u32>,
}

impl StretchAllocation {
    /// The node of each task of input job `i`.
    pub fn placement(&self, i: usize) -> &[u32] {
        crate::row_span(&self.bins, &self.assignments, i)
    }
}

/// The clamped yield a job needs to meet estimate bound `target`.
fn clamped_yield(j: &StretchJob, target: f64, period: f64) -> f64 {
    let y = yield_math::yield_for_target_stretch(j.flow_time, j.virtual_time, target, period);
    y.clamp(MIN_STRETCH_PER_YIELD, 1.0)
}

/// Expand jobs into per-job item runs at estimate bound `target`.
fn fill_runs_at_target(
    jobs: &[StretchJob],
    target: f64,
    period: f64,
    runs: &mut Vec<(PackItem, u32)>,
) {
    runs.clear();
    let mut id = 0u32;
    for j in jobs {
        let cpu = (j.cpu_need * clamped_yield(j, target, period)).min(1.0);
        runs.push((
            PackItem {
                id,
                cpu,
                mem: j.mem_req,
            },
            j.tasks,
        ));
        id += j.tasks;
    }
}

/// Minimize the estimated max stretch over the next period.
///
/// Returns `None` when memory alone makes the instance unpackable (caller
/// evicts the lowest-priority job and retries). `accuracy` is relative
/// (the search stops when the bracket is within `accuracy × max(1, lo)`),
/// mirroring the paper's 0.01 yield accuracy on a quantity that is
/// unbounded above.
pub fn min_max_estimated_stretch(
    jobs: &[StretchJob],
    nodes: usize,
    period: f64,
    packer: &dyn VectorPacker,
    accuracy: f64,
) -> Option<StretchAllocation> {
    min_max_estimated_stretch_with(
        jobs,
        nodes,
        period,
        packer,
        accuracy,
        &mut SearchScratch::new(),
    )
}

/// [`min_max_estimated_stretch`] with caller-provided scratch buffers;
/// repeated callers pay zero allocations for the probe loop. Results
/// are identical to [`min_max_estimated_stretch`].
pub fn min_max_estimated_stretch_with(
    jobs: &[StretchJob],
    nodes: usize,
    period: f64,
    packer: &dyn VectorPacker,
    accuracy: f64,
    scratch: &mut SearchScratch,
) -> Option<StretchAllocation> {
    debug_assert!(period > 0.0 && accuracy > 0.0);
    if jobs.is_empty() {
        return Some(StretchAllocation {
            target: 1.0,
            assignments: Vec::new(),
            bins: Vec::new(),
        });
    }

    // Lowest conceivable bound: every job at yield 1.
    let s_min = jobs
        .iter()
        .map(|j| (j.flow_time + period) / (j.virtual_time + period))
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1.0);
    // Laxest useful bound: the bottleneck job at the yield floor — beyond
    // this every yield is clamped to the floor and feasibility is constant.
    let s_max = jobs
        .iter()
        .map(|j| (j.flow_time + period) / (j.virtual_time + MIN_STRETCH_PER_YIELD * period))
        .fold(f64::NEG_INFINITY, f64::max)
        .max(s_min);

    let SearchScratch {
        runs,
        pack,
        best,
        packs,
    } = scratch;
    // `s_min` is the ideal, `s_max` the floor: the feasible end of the
    // bracket is the upper one here.
    let (target, _) = bisect(
        s_min,
        s_max,
        |hi, lo| hi - lo > accuracy * lo.max(1.0),
        |target| {
            fill_runs_at_target(jobs, target, period, runs);
            *packs += 1;
            let ok = packer.pack_runs_into(runs, nodes, pack);
            if ok {
                best.clear();
                best.extend_from_slice(pack.bin_of());
            }
            ok
        },
    )?;
    let yields = jobs
        .iter()
        .map(|j| (j.job, clamped_yield(j, target, period), j.tasks));
    Some(StretchAllocation {
        target,
        assignments: crate::rows_of(yields),
        bins: best.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcb8::Mcb8;

    fn sjob(id: u32, tasks: u32, cpu: f64, mem: f64, flow: f64, vt: f64) -> StretchJob {
        StretchJob {
            job: JobId(id),
            tasks,
            cpu_need: cpu,
            mem_req: mem,
            flow_time: flow,
            virtual_time: vt,
        }
    }

    const T: f64 = 600.0;

    #[test]
    fn empty_input_is_trivial() {
        let a = min_max_estimated_stretch(&[], 4, T, &Mcb8, 0.01).unwrap();
        assert!(a.assignments.is_empty());
    }

    #[test]
    fn underloaded_jobs_get_full_yield() {
        let jobs = vec![sjob(0, 2, 0.5, 0.2, 100.0, 50.0)];
        let a = min_max_estimated_stretch(&jobs, 4, T, &Mcb8, 0.01).unwrap();
        assert_eq!(a.assignments[0].1, 1.0);
    }

    #[test]
    fn starved_job_outranks_fresh_job() {
        // Job 0 has waited 10 000 s with almost no progress; job 1 just
        // arrived. Sharing one node, job 0 must get the larger yield.
        let jobs = vec![
            sjob(0, 1, 1.0, 0.4, 10_000.0, 10.0),
            sjob(1, 1, 1.0, 0.4, 10.0, 0.0),
        ];
        let a = min_max_estimated_stretch(&jobs, 1, T, &Mcb8, 0.001).unwrap();
        let y0 = a.assignments[0].1;
        let y1 = a.assignments[1].1;
        assert!(y0 > y1, "starved job got y0={y0} <= fresh y1={y1}");
        assert!(y0 + y1 <= 1.0 + 1e-6, "node CPU overcommitted");
    }

    #[test]
    fn memory_infeasibility_returns_none() {
        let jobs = vec![sjob(0, 3, 0.1, 0.9, 10.0, 0.0)];
        assert!(min_max_estimated_stretch(&jobs, 2, T, &Mcb8, 0.01).is_none());
    }

    #[test]
    fn yields_respect_floor_and_cap() {
        let jobs = vec![
            sjob(0, 1, 1.0, 0.1, 50_000.0, 1.0),
            sjob(1, 1, 1.0, 0.1, 10.0, 5_000.0),
            sjob(2, 1, 1.0, 0.1, 10.0, 0.0),
        ];
        let a = min_max_estimated_stretch(&jobs, 1, T, &Mcb8, 0.01).unwrap();
        for (_, y, _) in &a.assignments {
            assert!(
                *y >= MIN_STRETCH_PER_YIELD - 1e-12 && *y <= 1.0,
                "yield {y}"
            );
        }
        // Job 1 already has lots of virtual time: it should be at the floor.
        assert!((a.assignments[1].1 - MIN_STRETCH_PER_YIELD).abs() < 1e-9);
    }

    #[test]
    fn achieved_target_bounds_all_estimates() {
        let jobs = vec![
            sjob(0, 2, 0.8, 0.3, 3_000.0, 500.0),
            sjob(1, 1, 0.6, 0.5, 900.0, 100.0),
            sjob(2, 3, 0.4, 0.2, 12_000.0, 200.0),
        ];
        let a = min_max_estimated_stretch(&jobs, 3, T, &Mcb8, 0.01).unwrap();
        for (j, (_, y, _)) in jobs.iter().zip(a.assignments.iter()) {
            let est =
                dfrs_core::yield_math::estimated_stretch_after(j.flow_time, j.virtual_time, *y, T);
            // Jobs clamped to the floor may exceed the target; others must
            // meet it (within search tolerance).
            if *y > MIN_STRETCH_PER_YIELD + 1e-12 {
                assert!(
                    est <= a.target * 1.02 + 1e-9,
                    "estimate {est} exceeds target {}",
                    a.target
                );
            }
        }
    }

    #[test]
    fn placements_are_within_cluster() {
        let jobs = vec![
            sjob(0, 5, 0.5, 0.3, 100.0, 10.0),
            sjob(1, 2, 0.9, 0.6, 700.0, 3.0),
        ];
        let a = min_max_estimated_stretch(&jobs, 4, T, &Mcb8, 0.01).unwrap();
        assert!(a.bins.iter().all(|&n| n < 4));
        assert_eq!(a.placement(0).len(), 5);
        assert_eq!(a.placement(1).len(), 2);
    }
}
