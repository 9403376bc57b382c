//! # dfrs-packing
//!
//! Vector packing for DFRS resource allocation (Section III-B of the
//! IPDPS 2010 paper), over the paper's (CPU, memory) pair and over
//! (CPU, memory, GPU).
//!
//! The allocation problem — place tasks with a requirement vector onto
//! unit-capacity nodes — is *vector packing*. The paper's jobs have
//! **fluid CPU needs**, which is resolved by fixing a yield `Y`
//! (turning each CPU need into the requirement `need × Y`) and binary
//! searching for the largest feasible `Y`. This crate provides:
//!
//! * [`vecpack::McbVec`] — the multi-capacity bin-packing heuristic of
//!   Leinberger, Karypis and Kumar (ICPP 1999) over `D` dimensions: one
//!   list per dominant requirement, sorted by non-increasing largest
//!   component, placement steered *against* the current imbalance of
//!   the open node. It is the only MCB implementation;
//! * [`mcb8::Mcb8`] — the paper's MCB8: `McbVec` at `D = 2` on unit
//!   bins, behind the [`VectorPacker`] interface;
//! * [`fit::FirstFitDecreasing`] and [`fit::BestFitDecreasing`] — classic
//!   baselines used for ablation;
//! * [`yield_search::max_min_yield`] — the binary search on the yield
//!   (accuracy 0.01) returning the placement achieving the maximized
//!   minimum yield;
//! * [`stretch_search::min_max_estimated_stretch`] — the analogous binary
//!   search minimizing the estimated max stretch used by
//!   `DYNMCB8-STRETCH-PER`;
//! * [`drf_search::max_min_dominant_share`] — the analogous search
//!   maximizing the minimum dominant share (DRF) over three resources;
//! * [`memo::RepackMemo`] — replay of yield searches whose exact inputs
//!   recur across scheduling events;
//!
//! The three searches are one sequential bisection (probe the ideal
//! target, probe the floor, then halve) with one objective each.
//!
//! Everything is deterministic; ties are broken by item order, which
//! callers fix (the schedulers pass tasks grouped by job id).
//!
//! ```
//! use dfrs_packing::{max_min_yield, JobLoad, Mcb8};
//! use dfrs_core::ids::JobId;
//!
//! // Two CPU-hungry single-task jobs sharing one node: the highest
//! // feasible uniform yield is ~0.5.
//! let jobs = vec![
//!     JobLoad { job: JobId(0), tasks: 1, cpu_need: 1.0, mem_req: 0.4 },
//!     JobLoad { job: JobId(1), tasks: 1, cpu_need: 1.0, mem_req: 0.4 },
//! ];
//! let alloc = max_min_yield(&jobs, 1, &Mcb8, 0.01, 0.01).unwrap();
//! assert!(alloc.yield_ <= 0.5 && alloc.yield_ > 0.48);
//! assert_eq!(alloc.bins, [0, 0]);
//! ```

use dfrs_core::ids::JobId;

mod bisect;
pub mod drf_search;
pub mod fit;
pub mod item;
pub mod mcb8;
pub mod memo;
pub mod scratch;
pub mod stretch_search;
pub mod vecpack;
pub mod yield_search;

pub use drf_search::{
    drf_feasible_at_share, max_min_dominant_share, DrfAllocation, DrfJob, DrfSearchScratch,
    DRF_DIMS,
};
pub use fit::{BestFitDecreasing, FirstFitDecreasing};
pub use item::{Bin, PackItem, Packing, VectorPacker};
pub use mcb8::Mcb8;
pub use memo::{max_min_yield_warm, MemoStats, RepackMemo, UNIT_CAPS};
pub use scratch::{PackScratch, SearchScratch};
pub use stretch_search::{
    min_max_estimated_stretch, min_max_estimated_stretch_with, StretchAllocation, StretchJob,
};
pub use vecpack::{McbVec, VecBin, VecItem, VecPackScratch};
pub use yield_search::{max_min_yield, max_min_yield_with, JobLoad, YieldAllocation};

/// The per-job slices of a flat per-task vector (a packing's `bin_of`,
/// a search result's `bins`): `tasks` are the task counts of the jobs in
/// the order their tasks were laid out.
pub fn split_tasks<'a, T>(
    flat: &'a [T],
    tasks: impl IntoIterator<Item = u32> + 'a,
) -> impl Iterator<Item = &'a [T]> + 'a {
    let mut rest = flat;
    tasks.into_iter().map(move |n| {
        let (head, tail) = rest.split_at(n as usize);
        rest = tail;
        head
    })
}

/// `(job, yield, index of the job's first task)` rows from `(job,
/// yield, tasks)` in input order — the per-job half of the DRF and
/// stretch results.
fn rows_of(jobs: impl Iterator<Item = (JobId, f64, u32)>) -> Vec<(JobId, f64, u32)> {
    let mut first = 0;
    jobs.map(|(job, yld, tasks)| {
        let row = (job, yld, first);
        first += tasks;
        row
    })
    .collect()
}

/// The slice of `flat` belonging to row `i` of [`rows_of`].
fn row_span<'a>(flat: &'a [u32], rows: &[(JobId, f64, u32)], i: usize) -> &'a [u32] {
    let end = rows.get(i + 1).map_or(flat.len(), |next| next.2 as usize);
    &flat[rows[i].2 as usize..end]
}
