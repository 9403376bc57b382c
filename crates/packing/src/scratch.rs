//! Reusable scratch buffers for the packing hot path.
//!
//! Every `DynMCB8*` scheduling decision runs a binary search whose each
//! probe writes one item run per job and packs the runs. Naively that
//! is a handful of heap allocations per probe (the runs, the kernel's
//! per-run dominance lists and their accelerators, the per-task
//! output); at ~10 probes per decision and one decision per event this
//! dominated the allocator profile. Callers that decide repeatedly
//! hold one [`SearchScratch`] (schedulers keep it across events) and
//! every probe reuses the same buffers.

use crate::item::PackItem;
use crate::vecpack::{VecItem, VecPackScratch};

/// Buffers reused by a single packer invocation ([`crate::VectorPacker::pack_into`]).
///
/// Contents between calls are unspecified; the packer rebuilds what it
/// needs. Holding one per repeated caller turns per-probe allocations
/// into amortized-free buffer reuse.
#[derive(Debug, Default, Clone)]
pub struct PackScratch {
    /// The instance as the MCB kernel takes it: `(first item, count)`
    /// runs of identical 2-vectors with consecutive ids.
    pub(crate) runs: Vec<(VecItem<2>, u32)>,
    /// The kernel's buffers. Its `bin_of` is this scratch's output,
    /// whichever packer filled it.
    pub(crate) kernel: VecPackScratch<2>,
}

impl PackScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        PackScratch::default()
    }

    /// The bin assignment left by the last successful
    /// [`crate::VectorPacker::pack_into`]: `bin_of()[i]` is the bin of
    /// the item with id `i`.
    pub fn bin_of(&self) -> &[u32] {
        self.kernel.bin_of()
    }

    /// How many bins the last MCB pack filled item by item
    /// ([`VecPackScratch::bins_filled`]).
    pub fn bins_filled(&self) -> usize {
        self.kernel.bins_filled()
    }
}

/// Buffers for one binary-search caller (yield or stretch search):
/// the per-job item runs, the packer scratch, and the best feasible
/// assignment found so far.
#[derive(Debug, Default, Clone)]
pub struct SearchScratch {
    /// Per-job item runs; only the `cpu` column varies across probes.
    pub(crate) runs: Vec<(PackItem, u32)>,
    /// Packer-internal buffers.
    pub(crate) pack: PackScratch,
    /// `bin_of` of the best feasible probe so far.
    pub(crate) best: Vec<u32>,
    /// Monotone count of packer invocations made through this scratch
    /// (replays from [`crate::RepackMemo`] pack nothing and add
    /// nothing). Never read by the searches themselves.
    pub packs: u64,
}

impl SearchScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}
