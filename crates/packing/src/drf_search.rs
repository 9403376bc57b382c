//! Binary search for the maximized minimum **dominant share** (DRF).
//!
//! Dominant Resource Fairness (Ghodsi et al., NSDI 2011) generalizes
//! max-min fairness to multiple resources: equalize every job's share
//! of its *dominant* resource — the resource it demands the largest
//! fraction of. In the DFRS setting the fluid resources are CPU and
//! GPU (allocations scale with the yield); memory is rigid and enters
//! only through packing feasibility, exactly as in the paper's
//! two-resource model.
//!
//! A job with per-task needs `(cpu, mem, gpu)` running at yield `y`
//! holds `cpu·y` CPU and `gpu·y` GPU per task, so its dominant share is
//! `d·y` with `d = max(cpu, gpu)`
//! ([`dfrs_core::yield_math::dominant_share`]). Fixing a target share
//! `S` therefore fixes every job's yield at `y_i = min(1, S/d_i)`
//! ([`dfrs_core::yield_math::yield_for_dominant_share`]) and reduces
//! allocation to three-dimensional vector packing, handled by
//! [`McbVec`]. The largest feasible `S` is located by bisection with
//! the paper's 0.01 accuracy, mirroring the yield search in
//! `yield_search.rs`.
//!
//! The floor probe fixes every yield at `min_yield` uniformly (not at a
//! share target): a job must never sit at yield 0 holding memory, and
//! this is the weakest demand profile any share target can induce, so
//! its failure proves infeasibility at every `S` — the same role the
//! `min_yield` probe plays in the yield search. When the returned
//! bracket end lies below the smallest job's floor share, yields clamp
//! up to `min_yield`, so the reported minimum dominant share can exceed
//! the bracket (it is reported exactly as achieved).

use dfrs_core::ids::JobId;
use dfrs_core::yield_math::yield_for_dominant_share;

use crate::bisect::bisect;
use crate::vecpack::{McbVec, VecItem, VecPackScratch};

/// Resource dimensionality of the DRF instance (CPU, memory, GPU).
pub const DRF_DIMS: usize = 3;

/// Capacity of every node, in every dimension.
const UNIT: [f64; DRF_DIMS] = [1.0; DRF_DIMS];

/// Aggregate demand of one job for the DRF search: `tasks` identical
/// tasks with a three-resource per-task demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrfJob {
    /// The job this load belongs to (carried through to the result).
    pub job: JobId,
    /// Number of tasks.
    pub tasks: u32,
    /// Per-task CPU need in `(0, 1]` (fluid).
    pub cpu_need: f64,
    /// Per-task memory requirement in `(0, 1]` (rigid).
    pub mem_req: f64,
    /// Per-task GPU need in `[0, 1]` (fluid; 0 = no GPU demand).
    pub gpu_need: f64,
}

impl DrfJob {
    /// The job's dominant fluid demand `max(cpu, gpu)` — the
    /// denominator of its dominant share.
    #[inline]
    pub fn dominant_need(&self) -> f64 {
        self.cpu_need.max(self.gpu_need)
    }
}

/// Result of the DRF maximization: per-job yields (no longer uniform —
/// each job's yield is set by the common share target) and the node
/// hosting every task.
#[derive(Debug, Clone, PartialEq)]
pub struct DrfAllocation {
    /// The achieved minimum dominant share `min_i d_i·y_i`. This can
    /// sit below [`target_share`](Self::target_share) when the minimum
    /// comes from a job already at full speed (its share caps at its
    /// own demand), and above it when the yield floor lifts a heavy
    /// job's share past the target.
    pub min_dominant_share: f64,
    /// The feasible share target the allocation was packed at (the
    /// bisection's `lo`, or the full-speed demand on the fast path).
    pub target_share: f64,
    /// The terminal infeasible share target — at most `accuracy` above
    /// [`target_share`](Self::target_share); `None` when the full-speed
    /// fast path succeeded and no infeasible target exists. This is the
    /// certificate the maximality proptest checks.
    pub infeasible_share: Option<f64>,
    /// `allocations[i]` = `(job, yield, index in `bins` of its first
    /// task)` for input job `i` (same order).
    pub allocations: Vec<(JobId, f64, u32)>,
    /// The node of every task, the input jobs' tasks back to back in
    /// input order (the packer's `bin_of`).
    pub bins: Vec<u32>,
}

impl DrfAllocation {
    /// The node of each task of input job `i`.
    pub fn placement(&self, i: usize) -> &[u32] {
        crate::row_span(&self.bins, &self.allocations, i)
    }
}

/// Buffers for one DRF search caller.
#[derive(Debug, Clone, Default)]
pub struct DrfSearchScratch {
    runs: Vec<(VecItem<DRF_DIMS>, u32)>,
    pack: VecPackScratch<DRF_DIMS>,
    best: Vec<u32>,
    yields: Vec<f64>,
    best_yields: Vec<f64>,
    /// Monotone count of packer invocations (bench accounting).
    pub packs: u64,
}

impl DrfSearchScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        DrfSearchScratch::default()
    }
}

/// Fill `runs` (and `yields`) with the demand profile at share target
/// `share`: each job's yield is `clamp(share/d_i, min_yield, 1)` and
/// its fluid requirements scale with it. Item ids number tasks densely
/// in input order.
fn fill_runs_at_share(
    jobs: &[DrfJob],
    share: f64,
    min_yield: f64,
    runs: &mut Vec<(VecItem<DRF_DIMS>, u32)>,
    yields: &mut Vec<f64>,
) {
    runs.clear();
    yields.clear();
    let mut id = 0u32;
    for j in jobs {
        let y = yield_for_dominant_share(j.dominant_need(), share).max(min_yield);
        yields.push(y);
        runs.push((
            VecItem {
                id,
                req: [
                    (j.cpu_need * y).min(1.0),
                    j.mem_req,
                    (j.gpu_need * y).min(1.0),
                ],
            },
            j.tasks,
        ));
        id += j.tasks;
    }
}

/// Maximize the minimum dominant share over all jobs.
///
/// * `jobs` — demands; order fixes deterministic tie-breaking.
/// * `nodes` — cluster size (unit capacity in every dimension).
/// * `accuracy` — bisection stops when the share bracket is narrower
///   than this (0.01, like the yield search).
/// * `min_yield` — smallest admissible yield (see module docs).
///
/// Returns `None` when even the `min_yield` floor cannot be packed
/// (the caller evicts the job with the largest dominant-share demand
/// and retries — the DRF preemption ordering), otherwise the best
/// allocation found.
pub fn max_min_dominant_share(
    jobs: &[DrfJob],
    nodes: usize,
    accuracy: f64,
    min_yield: f64,
    scratch: &mut DrfSearchScratch,
) -> Option<DrfAllocation> {
    debug_assert!(accuracy > 0.0 && min_yield > 0.0 && min_yield <= 1.0);
    if jobs.is_empty() {
        return Some(DrfAllocation {
            min_dominant_share: 1.0,
            target_share: 1.0,
            infeasible_share: None,
            allocations: Vec::new(),
            bins: Vec::new(),
        });
    }

    let DrfSearchScratch {
        runs,
        pack,
        best,
        yields,
        best_yields,
        packs,
    } = scratch;
    // The largest meaningful target: every job at full speed.
    let d_max = jobs
        .iter()
        .map(|j| j.dominant_need())
        .fold(0.0f64, f64::max);
    // The floor probe (share 0 → every yield clamps to `min_yield`)
    // doubles as the memory-feasibility check.
    let (target_share, infeasible_share) = bisect(
        d_max,
        0.0,
        |lo, hi| hi - lo > accuracy,
        |share| {
            *packs += 1;
            fill_runs_at_share(jobs, share, min_yield, runs, yields);
            let ok = McbVec::<DRF_DIMS>.pack_runs_uniform(runs, UNIT, nodes, pack);
            if ok {
                best.clear();
                best.extend_from_slice(pack.bin_of());
                best_yields.clone_from(yields);
            }
            ok
        },
    )?;
    Some(DrfAllocation {
        min_dominant_share: min_achieved_share(jobs, best_yields),
        target_share,
        infeasible_share,
        allocations: crate::rows_of(
            jobs.iter()
                .zip(&*best_yields)
                .map(|(j, &y)| (j.job, y, j.tasks)),
        ),
        bins: best.clone(),
    })
}

/// Whether the demand profile at share target `share` packs — exposed
/// so tests can certify the returned share is maximal within tolerance.
pub fn drf_feasible_at_share(jobs: &[DrfJob], nodes: usize, share: f64, min_yield: f64) -> bool {
    let mut scratch = DrfSearchScratch::new();
    fill_runs_at_share(
        jobs,
        share,
        min_yield,
        &mut scratch.runs,
        &mut scratch.yields,
    );
    McbVec::<DRF_DIMS>.pack_runs_uniform(&scratch.runs, UNIT, nodes, &mut scratch.pack)
}

fn min_achieved_share(jobs: &[DrfJob], yields: &[f64]) -> f64 {
    jobs.iter()
        .zip(yields.iter())
        .map(|(j, y)| j.dominant_need() * y)
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, tasks: u32, cpu: f64, mem: f64, gpu: f64) -> DrfJob {
        DrfJob {
            job: JobId(id),
            tasks,
            cpu_need: cpu,
            mem_req: mem,
            gpu_need: gpu,
        }
    }

    fn run(jobs: &[DrfJob], nodes: usize) -> Option<DrfAllocation> {
        max_min_dominant_share(jobs, nodes, 0.01, 0.01, &mut DrfSearchScratch::new())
    }

    #[test]
    fn empty_system_is_trivially_fair() {
        let a = run(&[], 4).unwrap();
        assert_eq!(a.min_dominant_share, 1.0);
        assert!(a.allocations.is_empty());
    }

    #[test]
    fn underloaded_cluster_runs_everyone_at_full_speed() {
        let a = run(&[job(0, 2, 0.3, 0.1, 0.0), job(1, 1, 0.2, 0.1, 0.7)], 4).unwrap();
        for (_, y, _) in &a.allocations {
            assert_eq!(*y, 1.0);
        }
        // Min dominant share = min(0.3, 0.7) at full speed.
        assert!((a.min_dominant_share - 0.3).abs() < 1e-12);
    }

    #[test]
    fn contended_gpu_equalizes_dominant_shares() {
        // Two single-task jobs both needing the whole GPU of one node:
        // DRF splits the GPU, shares ≈ 0.5 each.
        let jobs = [job(0, 1, 0.2, 0.3, 1.0), job(1, 1, 0.2, 0.3, 1.0)];
        let a = run(&jobs, 1).unwrap();
        assert!(a.min_dominant_share <= 0.5 + 1e-9);
        assert!(a.min_dominant_share >= 0.5 - 0.01 - 1e-9);
        for (_, y, _) in &a.allocations {
            assert!((*y - a.min_dominant_share).abs() < 0.011, "d=1 → y = share");
        }
    }

    #[test]
    fn asymmetric_demands_get_asymmetric_yields() {
        // Job 0 is CPU-dominant (d=1.0), job 1 GPU-dominant (d=0.5),
        // both on one node. At share S: y0 = S, y1 = min(1, 2S).
        // CPU binds: S + 0.2·min(1,2S) ≤ 1 and GPU: 0.5·min(1,2S) ≤ 1.
        // For S ≤ 0.5: cpu = S + 0.4S = 1.4S ≤ 1 → S ≈ 0.714? But then
        // 2S > 1, so y1 = 1 and cpu = S + 0.2 ≤ 1 → S ≈ 0.8.
        let jobs = [job(0, 1, 1.0, 0.3, 0.0), job(1, 1, 0.2, 0.3, 0.5)];
        let a = run(&jobs, 1).unwrap();
        let y0 = a.allocations[0].1;
        let y1 = a.allocations[1].1;
        assert_eq!(y1, 1.0, "small job saturates at full speed");
        assert!(y0 >= 0.8 - 0.011, "big job gets the remaining CPU: {y0}");
        assert!(y0 <= 0.8 + 1e-9);
        // Job 1 at full speed caps its own dominant share at d=0.5, so
        // the reported minimum is 0.5 even as job 0 climbs past it.
        assert!((a.min_dominant_share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn memory_infeasibility_returns_none() {
        // Three 60%-memory tasks cannot fit two nodes at any share.
        assert!(run(&[job(0, 3, 0.1, 0.6, 0.0)], 2).is_none());
    }

    #[test]
    fn returned_share_is_maximal_within_tolerance() {
        let jobs = [
            job(0, 2, 0.8, 0.2, 0.0),
            job(1, 1, 0.3, 0.3, 0.9),
            job(2, 3, 0.5, 0.1, 0.2),
        ];
        let a = run(&jobs, 2).unwrap();
        // The bracket certificate: the target packs, the terminal
        // infeasible share does not, and they differ by at most the
        // accuracy.
        assert!(drf_feasible_at_share(&jobs, 2, a.target_share, 0.01));
        if let Some(hi) = a.infeasible_share {
            assert!(!drf_feasible_at_share(&jobs, 2, hi, 0.01));
            assert!(hi - a.target_share <= 0.01 + 1e-12);
        }
    }

    #[test]
    fn yields_never_fall_below_the_floor() {
        // Heavy contention: 8 single-task full-CPU jobs on one node.
        let jobs: Vec<_> = (0..8).map(|i| job(i, 1, 1.0, 0.1, 0.0)).collect();
        let a = run(&jobs, 1).unwrap();
        for (_, y, _) in &a.allocations {
            assert!(*y >= 0.01);
            assert!(*y <= 0.125 + 1e-9);
        }
    }

    #[test]
    fn zero_gpu_instance_matches_uniform_yield_search_shape() {
        // Without GPU demand and with equal CPU needs, DRF degenerates
        // to the uniform yield search: equal shares mean equal yields.
        let jobs = [job(0, 1, 1.0, 0.4, 0.0), job(1, 1, 1.0, 0.4, 0.0)];
        let a = run(&jobs, 1).unwrap();
        let y0 = a.allocations[0].1;
        let y1 = a.allocations[1].1;
        assert_eq!(y0, y1);
        assert!((0.5 - 0.011..=0.5 + 1e-9).contains(&y0));
    }
}
