//! Binary search for the maximized minimum yield (Section III-B).
//!
//! Fixing a yield `Y` turns every fluid CPU need into the concrete
//! requirement `need × Y`, reducing allocation to vector packing. The
//! highest feasible `Y` is located by bisection with the paper's accuracy
//! threshold of 0.01.
//!
//! Feasibility at the lower end is probed at `min_yield` (default 0.01,
//! [`dfrs_core::constants::MIN_STRETCH_PER_YIELD`]) rather than 0: an
//! allocation in which a job has yield 0 would let it hold memory forever
//! without progressing, which the paper explicitly excludes. If packing
//! fails even at `min_yield`, the instance is reported infeasible and the
//! caller (the `DYNMCB8*` schedulers) evicts the lowest-priority job and
//! retries.

use dfrs_core::ids::JobId;

use crate::bisect::bisect;
use crate::item::{PackItem, VectorPacker};
use crate::scratch::SearchScratch;

/// Aggregate resource demand of one job: `tasks` identical tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobLoad {
    /// The job this load belongs to (carried through to the result).
    pub job: JobId,
    /// Number of tasks.
    pub tasks: u32,
    /// Per-task CPU need in `(0, 1]`.
    pub cpu_need: f64,
    /// Per-task memory requirement in `(0, 1]`.
    pub mem_req: f64,
}

/// Result of the yield maximization: a single uniform yield plus the
/// node hosting every task.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldAllocation {
    /// The maximized minimum yield, in `[min_yield, 1]`.
    pub yield_: f64,
    /// The node of every task, the input jobs' tasks back to back in
    /// input order (the packer's `bin_of`).
    pub bins: Vec<u32>,
}

impl YieldAllocation {
    /// `(job, node of each of its tasks)` for the `jobs` searched.
    pub fn placements<'a>(
        &'a self,
        jobs: &'a [JobLoad],
    ) -> impl Iterator<Item = (JobId, &'a [u32])> + 'a {
        let per_job = crate::split_tasks(&self.bins, jobs.iter().map(|j| j.tasks));
        jobs.iter().map(|j| j.job).zip(per_job)
    }
}

/// Expand jobs into per-job item runs at a given yield, reusing `runs`
/// storage. Item ids number tasks densely in input order, so id ranges
/// map back to jobs.
fn fill_runs_at_yield(jobs: &[JobLoad], yld: f64, runs: &mut Vec<(PackItem, u32)>) {
    runs.clear();
    let mut id = 0u32;
    for j in jobs {
        let cpu = (j.cpu_need * yld).min(1.0);
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

/// Task-level expansion at a given yield (tests, one-shot callers).
#[cfg(test)]
fn items_at_yield(jobs: &[JobLoad], yld: f64) -> Vec<PackItem> {
    let mut items = Vec::new();
    let mut id = 0u32;
    for j in jobs {
        let cpu = (j.cpu_need * yld).min(1.0);
        for _ in 0..j.tasks {
            items.push(PackItem {
                id,
                cpu,
                mem: j.mem_req,
            });
            id += 1;
        }
    }
    items
}

/// Maximize the minimum yield over all jobs.
///
/// * `jobs` — demands; order fixes the deterministic tie-breaking.
/// * `nodes` — cluster size.
/// * `packer` — the vector-packing heuristic (MCB8 in the paper).
/// * `accuracy` — bisection stops when the bracket is narrower than this
///   (the paper uses 0.01).
/// * `min_yield` — smallest admissible yield (see module docs).
///
/// Returns `None` when even `min_yield` cannot be packed (the caller
/// should evict a job and retry), otherwise the best allocation found.
pub fn max_min_yield(
    jobs: &[JobLoad],
    nodes: usize,
    packer: &dyn VectorPacker,
    accuracy: f64,
    min_yield: f64,
) -> Option<YieldAllocation> {
    max_min_yield_with(
        jobs,
        nodes,
        packer,
        accuracy,
        min_yield,
        &mut SearchScratch::new(),
    )
}

/// [`max_min_yield`] with caller-provided scratch buffers: repeated
/// callers (the `DynMCB8*` schedulers, once per event) pay zero
/// allocations for the probe loop. Results are identical to
/// [`max_min_yield`].
pub fn max_min_yield_with(
    jobs: &[JobLoad],
    nodes: usize,
    packer: &dyn VectorPacker,
    accuracy: f64,
    min_yield: f64,
    scratch: &mut SearchScratch,
) -> Option<YieldAllocation> {
    debug_assert!(accuracy > 0.0 && min_yield > 0.0 && min_yield <= 1.0);
    if jobs.is_empty() {
        return Some(YieldAllocation {
            yield_: 1.0,
            bins: Vec::new(),
        });
    }

    let SearchScratch {
        runs,
        pack,
        best,
        packs,
        ..
    } = scratch;
    // Everything fitting at full speed is the common case; the probe
    // at `min_yield` doubles as the memory-feasibility check.
    let (yield_, _) = bisect(
        1.0,
        min_yield,
        |lo, hi| hi - lo > accuracy,
        |yld| {
            *packs += 1;
            fill_runs_at_yield(jobs, yld, runs);
            let ok = packer.pack_runs_into(runs, nodes, pack);
            if ok {
                best.clear();
                best.extend_from_slice(pack.bin_of());
            }
            ok
        },
    )?;
    Some(YieldAllocation {
        yield_,
        bins: best.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Packing;
    use crate::mcb8::Mcb8;

    fn job(id: u32, tasks: u32, cpu: f64, mem: f64) -> JobLoad {
        JobLoad {
            job: JobId(id),
            tasks,
            cpu_need: cpu,
            mem_req: mem,
        }
    }

    fn run(jobs: &[JobLoad], nodes: usize) -> Option<YieldAllocation> {
        max_min_yield(jobs, nodes, &Mcb8, 0.01, 0.01)
    }

    #[test]
    fn empty_system_yields_one() {
        let a = run(&[], 16).unwrap();
        assert_eq!(a.yield_, 1.0);
        assert!(a.bins.is_empty());
    }

    #[test]
    fn underloaded_cluster_gives_full_yield() {
        let a = run(&[job(0, 4, 0.25, 0.1), job(1, 2, 1.0, 0.3)], 8).unwrap();
        assert_eq!(a.yield_, 1.0);
        assert_eq!(a.bins.len(), 6);
    }

    #[test]
    fn two_full_cpu_jobs_on_one_node_split_the_cpu() {
        // Two single-task jobs, each needing 100% CPU and 50% memory, on a
        // 1-node cluster: both must land on the node, max load 2, yield ~0.5.
        let a = run(&[job(0, 1, 1.0, 0.5), job(1, 1, 1.0, 0.5)], 1).unwrap();
        assert!(
            a.yield_ <= 0.5 + 1e-9,
            "yield {} exceeds capacity",
            a.yield_
        );
        assert!(
            a.yield_ >= 0.5 - 0.01 - 1e-9,
            "yield {} below accuracy band",
            a.yield_
        );
    }

    #[test]
    fn memory_infeasibility_returns_none() {
        // Three 60 %-memory tasks cannot fit on two nodes at any yield.
        assert!(run(&[job(0, 3, 0.1, 0.6)], 2).is_none());
    }

    #[test]
    fn returned_yield_always_packs_validly() {
        let jobs = vec![
            job(0, 3, 0.8, 0.2),
            job(1, 5, 0.3, 0.3),
            job(2, 2, 1.0, 0.5),
            job(3, 1, 0.25, 0.4),
        ];
        let a = run(&jobs, 4).unwrap();
        let items = items_at_yield(&jobs, a.yield_);
        let packing = Packing { bin_of: a.bins };
        assert!(packing.is_valid(&items, 4));
    }

    #[test]
    fn yield_respects_min_floor() {
        // 8 single-task full-CPU tiny-memory jobs on one node: load 8 →
        // equal share would be 0.125.
        let jobs: Vec<_> = (0..8).map(|i| job(i, 1, 1.0, 0.1)).collect();
        let a = run(&jobs, 1).unwrap();
        assert!(a.yield_ >= 0.01);
        assert!(a.yield_ <= 0.125 + 1e-9);
        assert!(a.yield_ >= 0.125 - 0.01 - 1e-9);
    }

    #[test]
    fn accuracy_parameter_bounds_the_gap() {
        let jobs = vec![
            job(0, 1, 1.0, 0.3),
            job(1, 1, 1.0, 0.3),
            job(2, 1, 1.0, 0.3),
        ];
        // On one node: optimal yield = 1/3.
        let coarse = max_min_yield(&jobs, 1, &Mcb8, 0.1, 0.01).unwrap();
        let fine = max_min_yield(&jobs, 1, &Mcb8, 0.001, 0.01).unwrap();
        assert!(fine.yield_ >= coarse.yield_ - 1e-9);
        assert!((fine.yield_ - 1.0 / 3.0).abs() < 0.002);
    }

    #[test]
    fn placements_cover_every_task_exactly_once() {
        let jobs = vec![job(0, 7, 0.5, 0.1), job(1, 3, 0.2, 0.2)];
        let a = run(&jobs, 4).unwrap();
        let per_job: Vec<(JobId, &[u32])> = a.placements(&jobs).collect();
        assert_eq!(per_job.len(), 2);
        assert_eq!((per_job[0].0, per_job[0].1.len()), (JobId(0), 7));
        assert_eq!((per_job[1].0, per_job[1].1.len()), (JobId(1), 3));
        assert_eq!(a.bins.len(), 10);
        assert!(a.bins.iter().all(|&n| (n as usize) < 4));
    }
}
