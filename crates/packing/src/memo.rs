//! Cross-invocation warm-start memoization for the yield search.
//!
//! The `DynMCB8*` schedulers re-run a full yield binary search at every
//! scheduling event even though consecutive events usually differ by
//! exactly one arrival or completion. This module carries state across
//! invocations in a [`RepackMemo`] so that a job set seen before is
//! answered without packing.
//!
//! ## Why byte-identity holds
//!
//! [`max_min_yield_with`] is a **deterministic pure function** of its
//! explicit inputs `(jobs, nodes, packer, accuracy, min_yield)`. Time
//! never enters: the same job multiset in the same order yields
//! bit-for-bit the same `(yield, placements)` (or the same infeasibility
//! verdict).
//!
//! The memo therefore only ever **replays** previously computed results
//! for *identical* inputs — it never extrapolates. A replay is
//! indistinguishable from re-running the computation, so every
//! `SimOutcome` downstream stays byte-identical to a cold run; the
//! `warm == cold` property tests in `tests/warm_equivalence.rs` machine-
//! check this for random arrival/completion deltas.
//!
//! A tempting stronger design — revalidating the previous placement as
//! a feasibility *certificate* and bisecting only the previous final
//! bracket — is **not** exact for a heuristic packer: a certificate
//! proves a packing *exists* at a yield, but the search's verdicts are
//! "does MCB8 *find* one", and MCB8 can fail feasible instances, so a
//! certificate-seeded bracket could diverge from the cold verdict path
//! (DESIGN.md §8). Replay-of-pure-functions is the strongest sound
//! shortcut, and it is what this module implements.
//!
//! ## Where the hits come from
//!
//! The search input is the in-system job list, which only changes on
//! arrivals, completions and evictions. Hits arrive whenever a job set
//! *recurs*: periodic repacks under memory pressure (an eviction bumps
//! the change epoch every tick, but the job set is unchanged until the
//! next arrival or completion, so the whole eviction chain — including
//! the cached **infeasible** verdict that drives victim selection —
//! replays without a single pack), and event-driven repacks whenever a
//! short job arrives and completes with no interleaved event (the set
//! returns to one seen two events ago).

use std::collections::VecDeque;

use crate::item::VectorPacker;
use crate::scratch::SearchScratch;
use crate::yield_search::{max_min_yield_with, JobLoad, YieldAllocation};

/// Hit/miss/pack accounting of one [`RepackMemo`] (all monotone).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Warm search invocations.
    pub searches: u64,
    /// Searches answered entirely from the memo (zero packs).
    pub search_hits: u64,
    /// Packer invocations actually executed.
    pub packs: u64,
    /// Packer invocations avoided by replaying memoized results.
    pub packs_saved: u64,
}

/// One memoized whole yield search: exact inputs, exact output, and how
/// many packs the cold computation spent (the savings of a replay).
///
/// Entry buffers are recycled through LRU eviction, so a steady-state
/// miss allocates nothing beyond what the cold search itself does.
#[derive(Debug, Clone, Default)]
struct YieldEntry {
    fingerprint: u64,
    nodes: usize,
    caps: u64,
    jobs: Vec<JobLoad>,
    /// What the search returned (`None`: infeasible).
    result: Option<YieldAllocation>,
    packs: u64,
}

/// Search parameters a memo is implicitly keyed under. One memo serves
/// one caller with fixed parameters; a change (packer swap, different
/// accuracy/floor) flushes every entry, so mixed use degrades to
/// cold rather than to wrong.
///
/// The packer is identified by its **address** (which the `&'static`
/// bound on the warm entry points makes stable for the program's
/// lifetime) plus its name: two differently configured instances of
/// the same packer type live at distinct `'static` addresses, so one
/// can never replay the other's results. The only indistinguishable
/// pair is two *zero-sized* packer types that report the same name and
/// happen to share a dangling address — zero-sized packers must use
/// distinct names (all built-ins do).
#[derive(Clone, Copy)]
struct MemoParams {
    accuracy: f64,
    min_yield: f64,
    packer: &'static dyn VectorPacker,
}

impl std::fmt::Debug for MemoParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoParams")
            .field("accuracy", &self.accuracy)
            .field("min_yield", &self.min_yield)
            .field("packer", &self.packer.name())
            .finish()
    }
}

impl PartialEq for MemoParams {
    fn eq(&self, other: &Self) -> bool {
        self.accuracy == other.accuracy
            && self.min_yield == other.min_yield
            && std::ptr::eq(
                self.packer as *const dyn VectorPacker as *const (),
                other.packer as *const dyn VectorPacker as *const (),
            )
            && self.packer.name() == other.packer.name()
    }
}

/// Cross-invocation warm-start state for the yield binary search: a
/// small LRU of whole search results and the accounting the benchmarks
/// report.
///
/// Exactness does not depend on invalidation — entries are keyed by
/// their complete inputs — so callers invalidate ([`clear`]) only for
/// hygiene (e.g. when a scheduler instance is reused for a fresh
/// simulation, detected via the engine's change-epoch machinery going
/// backwards).
///
/// [`clear`]: RepackMemo::clear
#[derive(Debug)]
pub struct RepackMemo {
    yield_cap: usize,
    yields: VecDeque<YieldEntry>,
    params: Option<MemoParams>,
    caps: u64,
    stats: MemoStats,
}

/// Default capacity of the whole-search LRU: deep enough to hold an
/// eviction chain plus the arrive/complete oscillation window.
const YIELD_CAP: usize = 64;

impl Default for RepackMemo {
    fn default() -> Self {
        RepackMemo::new()
    }
}

impl RepackMemo {
    /// An empty memo with the default capacities.
    pub fn new() -> Self {
        RepackMemo {
            yield_cap: YIELD_CAP,
            yields: VecDeque::new(),
            params: None,
            caps: UNIT_CAPS,
            stats: MemoStats::default(),
        }
    }

    /// Drop every stored entry (stats survive).
    pub fn clear(&mut self) {
        self.yields.clear();
    }

    /// Declare the **capacity identity** of the bins behind subsequent
    /// searches: a caller-computed hash of the available node *set* and
    /// each node's capacity vector (see [`RepackMemo::caps_identity`]).
    ///
    /// The memo keys every entry under this word in addition to the bin
    /// *count* that reaches the search signature, closing the latent
    /// hole where two different node sets (or capacity mixes) of equal
    /// size could replay each other's results. Entries stored under a
    /// different identity stay resident — they answer again when that
    /// identity returns (e.g. a node repairs) — so churn costs cold
    /// searches, never a flush.
    pub fn set_caps_identity(&mut self, caps: u64) {
        self.caps = caps;
    }

    /// Hash a capacity description into an identity word: feed one
    /// `u64` per available node (its id, or its id plus capacity bits
    /// for heterogeneous clusters). Deterministic and order-sensitive —
    /// callers must feed nodes in a canonical (sorted) order.
    pub fn caps_identity(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = Fnv::new();
        for w in words {
            h.word(w);
        }
        h.0
    }

    /// The accumulated accounting.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Flush if the caller's search parameters changed (see
    /// [`MemoParams`]).
    fn check_params(&mut self, accuracy: f64, min_yield: f64, packer: &'static dyn VectorPacker) {
        let params = MemoParams {
            accuracy,
            min_yield,
            packer,
        };
        if self.params != Some(params) {
            self.clear();
            self.params = Some(params);
        }
    }
}

/// Xor-multiply-rotate mix over a stream of words — cheap, deterministic,
/// and platform independent (used only to pre-filter exact comparisons, so
/// collisions cost a memcmp, never correctness). One multiply per word
/// instead of FNV's eight byte rounds; fingerprints live only in memory,
/// so the mixing function is free to change between builds.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }
}

/// Capacity identity of the default homogeneous unit cluster with every
/// node up — the state every memo starts in. Distinct from
/// `Fnv::new().0` only for documentation; any fixed word works because
/// identities only ever compare for equality.
pub const UNIT_CAPS: u64 = 0;

fn fingerprint_jobs(jobs: &[JobLoad], nodes: usize, caps: u64) -> u64 {
    let mut h = Fnv::new();
    h.word(nodes as u64);
    h.word(caps);
    for j in jobs {
        h.word(j.job.0 as u64);
        h.word(j.tasks as u64);
        h.word(j.cpu_need.to_bits());
        h.word(j.mem_req.to_bits());
    }
    h.0
}

/// [`max_min_yield_with`] with cross-invocation warm starting: when the
/// exact `(jobs, nodes)` input was searched before (the job set
/// recurred), the stored result — including the infeasible verdict the
/// eviction loop branches on — is replayed with zero packs. Misses run
/// the cold search and memoize it. Results are bit-for-bit identical to
/// the cold entry point (see the module docs for the argument).
pub fn max_min_yield_warm(
    jobs: &[JobLoad],
    nodes: usize,
    packer: &'static dyn VectorPacker,
    accuracy: f64,
    min_yield: f64,
    scratch: &mut SearchScratch,
    memo: &mut RepackMemo,
) -> Option<YieldAllocation> {
    memo.stats.searches += 1;
    memo.check_params(accuracy, min_yield, packer);
    let caps = memo.caps;
    let fingerprint = fingerprint_jobs(jobs, nodes, caps);
    let hit = memo
        .yields
        .iter()
        .position(|e| {
            e.fingerprint == fingerprint && e.nodes == nodes && e.caps == caps && e.jobs == jobs
        })
        .and_then(|i| memo.yields.remove(i));
    if let Some(entry) = hit {
        memo.stats.search_hits += 1;
        memo.stats.packs_saved += entry.packs;
        let result = entry.result.clone();
        memo.yields.push_front(entry); // LRU: refresh on hit
        return result;
    }
    let packs_before = scratch.packs;
    let result = max_min_yield_with(jobs, nodes, packer, accuracy, min_yield, scratch);
    let packs = scratch.packs - packs_before;
    memo.stats.packs += packs;
    // Recycle the evicted entry's buffers: steady-state misses allocate
    // nothing beyond what the cold search itself does. A zero-cap memo
    // recycles one slot forever instead of panicking.
    let mut entry = if memo.yields.len() >= memo.yield_cap {
        memo.yields.pop_back().unwrap_or_default()
    } else {
        YieldEntry::default()
    };
    entry.fingerprint = fingerprint;
    entry.nodes = nodes;
    entry.caps = caps;
    entry.jobs.clear();
    entry.jobs.extend_from_slice(jobs);
    entry.packs = packs;
    match (&result, &mut entry.result) {
        (Some(found), Some(slot)) => {
            slot.yield_ = found.yield_;
            slot.bins.clone_from(&found.bins);
        }
        (found, slot) => *slot = found.clone(),
    }
    memo.yields.push_front(entry);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_min_yield;
    use crate::mcb8::Mcb8;
    use dfrs_core::ids::JobId;

    fn job(id: u32, tasks: u32, cpu: f64, mem: f64) -> JobLoad {
        JobLoad {
            job: JobId(id),
            tasks,
            cpu_need: cpu,
            mem_req: mem,
        }
    }

    #[test]
    fn warm_yield_matches_cold_and_hits_on_recurrence() {
        let jobs = vec![
            job(0, 3, 0.8, 0.2),
            job(1, 2, 1.0, 0.5),
            job(2, 1, 0.3, 0.4),
        ];
        let cold = max_min_yield(&jobs, 4, &Mcb8, 0.01, 0.01);
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        let first = max_min_yield_warm(&jobs, 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(first, cold);
        assert_eq!(memo.stats().search_hits, 0);
        let packs_after_first = memo.stats().packs;
        let second = max_min_yield_warm(&jobs, 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(second, cold);
        assert_eq!(memo.stats().search_hits, 1);
        assert_eq!(memo.stats().packs, packs_after_first, "hit must not pack");
    }

    #[test]
    fn warm_yield_caches_infeasible_verdicts() {
        // Three 60%-memory tasks cannot fit on two nodes at any yield.
        let jobs = vec![job(0, 3, 0.1, 0.6)];
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        assert!(max_min_yield_warm(&jobs, 2, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo).is_none());
        let packs = memo.stats().packs;
        assert!(max_min_yield_warm(&jobs, 2, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo).is_none());
        assert_eq!(memo.stats().packs, packs);
        assert_eq!(memo.stats().search_hits, 1);
    }

    #[test]
    fn warm_yield_distinguishes_node_counts_and_sets() {
        let jobs = vec![job(0, 2, 1.0, 0.3)];
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        let a = max_min_yield_warm(&jobs, 1, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        let b = max_min_yield_warm(&jobs, 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(memo.stats().search_hits, 0);
        assert_ne!(a.unwrap().yield_, b.unwrap().yield_);
        let more = vec![job(0, 2, 1.0, 0.3), job(1, 1, 0.5, 0.1)];
        let _ = max_min_yield_warm(&more, 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(memo.stats().search_hits, 0);
    }

    #[test]
    fn changed_params_flush_the_memo() {
        let jobs = vec![job(0, 2, 1.0, 0.3)];
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        let _ = max_min_yield_warm(&jobs, 2, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        // A different accuracy is a different search; the stale entry
        // must not answer it.
        let _ = max_min_yield_warm(&jobs, 2, &Mcb8, 0.001, 0.01, &mut scratch, &mut memo);
        assert_eq!(memo.stats().search_hits, 0);
    }

    #[test]
    fn caps_identity_keys_entries_not_just_node_count() {
        let jobs = vec![job(0, 2, 1.0, 0.3)];
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        let a = max_min_yield_warm(&jobs, 2, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        // Same node *count*, different node *set*: the entry stored
        // under the old identity must not answer.
        memo.set_caps_identity(RepackMemo::caps_identity([0u64, 3u64]));
        let b = max_min_yield_warm(&jobs, 2, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(a, b, "pure search: same count gives the same result");
        assert_eq!(memo.stats().search_hits, 0);
        // The original identity returning (node repaired) finds its
        // entry still resident — churn never flushes.
        memo.set_caps_identity(UNIT_CAPS);
        let c = max_min_yield_warm(&jobs, 2, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(c, a);
        assert_eq!(memo.stats().search_hits, 1);
    }

    #[test]
    fn zero_caps_degrade_gracefully() {
        // A zero-capacity memo must not panic on the recycle path: every
        // miss recycles the single resident slot and results stay
        // identical to the cold search.
        let jobs = vec![
            job(0, 2, 1.0, 0.3),
            job(1, 1, 0.5, 0.2),
            job(2, 3, 0.8, 0.1),
        ];
        let cold = max_min_yield(&jobs, 4, &Mcb8, 0.01, 0.01);
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        memo.yield_cap = 0;
        for _ in 0..3 {
            let warm = max_min_yield_warm(&jobs, 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
            assert_eq!(warm, cold);
        }
        assert!(memo.yields.len() <= 1, "zero cap keeps one recycled slot");
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let mut scratch = SearchScratch::new();
        let mut memo = RepackMemo::new();
        memo.yield_cap = 2;
        let sets: Vec<Vec<JobLoad>> = (0..3).map(|i| vec![job(i, 1 + i, 0.5, 0.2)]).collect();
        for s in &sets {
            let _ = max_min_yield_warm(s, 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        }
        // Set 0 was evicted; sets 1 and 2 are still warm.
        let _ = max_min_yield_warm(&sets[0], 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(memo.stats().search_hits, 0);
        let _ = max_min_yield_warm(&sets[2], 4, &Mcb8, 0.01, 0.01, &mut scratch, &mut memo);
        assert_eq!(memo.stats().search_hits, 1);
    }
}
