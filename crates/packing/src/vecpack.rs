//! The MCB packer: `McbVec<D>`, the one implementation of the heuristic.
//!
//! MCB is the *Multi-Capacity Bin packing* family of Leinberger, Karypis
//! and Kumar (ICPP 1999). Stillwell et al. (Section III-B) use its
//! two-resource instance, MCB8, inside the yield search; this module is
//! that heuristic written against a compile-time dimension count `D`, so
//! the paper's (CPU, memory) packer ([`crate::Mcb8`], `D = 2`) and the
//! (CPU, memory, GPU) packer of the DRF search (`D = 3`) are one code
//! path:
//!
//! 0. reject instances that cannot pack — an item larger than the
//!    largest bin in some dimension; a dimension whose requirements,
//!    added in input order, exceed its total capacity (`bins × cap` for
//!    uniform bins, the sum of the capacities otherwise); and, for
//!    uniform bins only, more items above half a bin in one dimension
//!    than there are bins. Every comparison carries the `+ EPS` of
//!    `fits`;
//! 1. split the tasks into `D` dominance lists, one per **dominant
//!    dimension** (the index of the largest requirement, ties toward
//!    the higher index — MCB8's "CPU-dominant iff `cpu > mem`" when
//!    `D = 2`);
//! 2. sort each list by non-increasing largest requirement, exact ties
//!    by item id;
//! 3. open the bins one at a time, in order; on the open bin,
//!    repeatedly place the first fitting task of the first list that
//!    has one, trying the lists in order of the bin's residual
//!    capacities, **freest dimension first**: an item whose dominant
//!    demand sits in the freest dimension steers every residual back
//!    toward balance, so no resource is depleted while another sits
//!    idle (MCB8's "go against the imbalance" rule). The order is an
//!    insertion sort of the dimensions `0..D` under a pairwise
//!    predicate: the freer dimension first; when the two free
//!    capacities are equal within `EPS` (an empty bin, say), the list
//!    whose head has the larger requirement (big rocks first); then
//!    the higher dimension index (at `D = 2`: ties go to the memory
//!    list). When no list has a fitting task, open the next bin.
//!
//! The pack succeeds when every task is placed. Bins carry an explicit
//! capacity vector, so heterogeneous nodes pack through the same code;
//! a uniform cluster is passed as one capacity and a count, and nothing
//! is then allocated or scanned per bin.
//!
//! ## Exactness of the accelerators
//!
//! The kernel returns exactly what scanning every list of tasks from
//! its head would (`tests/mcb_reference.rs` checks that against such a
//! scan, byte for byte), but never holds a task: callers pass **runs**
//! — groups of identical items with consecutive ids, a job's tasks —
//! and every list, column and index below has one entry per run. Only
//! the output `bin_of` is per task.
//!
//! * **Run-level lists.** A list is its runs, sorted with the MCB
//!   comparator; a run is `(next item, items left)`, and taking an item
//!   advances the id and decrements the count. That equals the sorted
//!   task list: within a run the comparator ties break by ascending id,
//!   which is the order a run hands its items out in, and runs with
//!   equal keys cannot interleave because their id ranges are disjoint,
//!   so the run-level id tie-break orders whole blocks as the
//!   task-level one would. The comparator is a total order (first ids
//!   are unique), so the unstable sort is deterministic. A run with no
//!   item is dropped before anything reads it.
//! * **Skip array.** A run whose last item was placed is unlinked
//!   through a path-compressed "first alive run `>= i`" array: O(α)
//!   amortized removal and successor lookup, same visiting order. The
//!   head key of the free-capacity tie-break is the first alive run's
//!   largest requirement.
//! * **Prefix jump.** Each list is sorted by exactly its primary
//!   requirement (for items in list `d` the largest component *is*
//!   `req[d]`) and the primary-capacity check of `fits` is monotone
//!   along it, so the runs failing that check form a prefix, which a
//!   binary search with the *same arithmetic* skips. An empty primary
//!   dimension whose capacity admits the list's largest item has an
//!   empty prefix; a heterogeneous bin smaller than the widest one
//!   must still search.
//! * **Suffix minima.** For every secondary dimension the list keeps
//!   the minimum requirement over `runs[i..]` — over all runs,
//!   exhausted ones included, so it only underestimates the alive
//!   suffix. When even that minimum overflows the bin, no item ahead
//!   can fit and the walk stops.
//! * **Group skip.** Identical items produce identical verdicts, so one
//!   failure skips the run and every neighbour with the same
//!   requirements, however the caller cut them.
//! * **Per-bin cursor.** A bin's usage only grows while it is open and
//!   `fits` is monotone in it, so a run that failed the open bin once
//!   can never fit it later; the walk resumes at the run last taken
//!   from, past known failures, and forgets them when the next bin
//!   opens.
//! * **Bin replication** (uniform bins only). What an open bin takes is
//!   a function of its capacity, the alive runs in list order and their
//!   requirements — never of how many items a run has left, as long as
//!   it has one. So when filling bin `b` took `k` items from each of
//!   some runs and exhausted none, bin `b + 1` starts from the same
//!   empty bin, capacity, alive set and heads, and repeats every
//!   freest-dimension order, `EPS` tie-break and `fits` verdict bit for
//!   bit for as long as each of those runs keeps an item *after* its
//!   last pick (a run that dies mid-bin changes its list's head key).
//!   That holds for `min((left − 1) / k)` further bins, `left` counted
//!   after bin `b`; their ids go straight into `bin_of`. The fill after
//!   them meets a run with at most `k` items left and exhausts it, so
//!   fills that exhaust nothing are at most every other one: **real
//!   fills ≤ 2 × non-empty runs** ([`VecPackScratch::bins_filled`]),
//!   whatever the task and bin counts. An instance without a run of two
//!   items has nothing to replicate and keeps no record of its picks.
//! * **Early rejections** (step 0) return exactly what the bin loop
//!   would for the oversized-item and over-half tests: an item above
//!   every capacity fits nowhere, and two items above `cap/2 + EPS` in
//!   one dimension sum past `cap + EPS`, so each needs its own bin. The
//!   volume test is part of the heuristic's definition rather than an
//!   accelerator: `fits` tolerates `EPS` per bin, so the loop alone
//!   could place up to `bins × EPS` more than the test admits.

use dfrs_core::approx::EPS;
use dfrs_core::resources::dominant_dim;

/// One task to place: a point in the `D`-dimensional requirement space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecItem<const D: usize> {
    /// Caller-assigned unique id, dense `0..n` within one pack call.
    pub id: u32,
    /// Per-dimension requirement, `req[d] ∈ [0, cap[d]]`.
    pub req: [f64; D],
}

impl<const D: usize> VecItem<D> {
    /// The largest requirement — the MCB sort key.
    #[inline]
    pub fn max_component(&self) -> f64 {
        let mut m = f64::NEG_INFINITY;
        for d in 0..D {
            m = m.max(self.req[d]);
        }
        m
    }

    /// The dominance-list index of this item (ties toward the higher
    /// dimension index; see [`dominant_dim`]).
    #[inline]
    pub fn dominant(&self) -> usize {
        dominant_dim(&self.req)
    }
}

/// Running state of one bin while packing: usage plus an explicit
/// capacity vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecBin<const D: usize> {
    /// Committed per dimension.
    pub used: [f64; D],
    /// Capacity per dimension.
    pub cap: [f64; D],
}

impl<const D: usize> VecBin<D> {
    /// Fresh empty bin with the given capacities.
    #[inline]
    pub fn new(cap: [f64; D]) -> Self {
        VecBin {
            used: [0.0; D],
            cap,
        }
    }

    /// Remaining capacity in dimension `d`.
    #[inline]
    pub fn free(&self, d: usize) -> f64 {
        self.cap[d] - self.used[d]
    }

    /// Whether `item` fits in every dimension (the same `used + req <=
    /// cap + EPS` arithmetic as [`crate::Bin::fits`]).
    #[inline]
    pub fn fits(&self, item: &VecItem<D>) -> bool {
        for d in 0..D {
            if self.used[d] + item.req[d] > self.cap[d] + EPS {
                return false;
            }
        }
        true
    }

    /// Commit `item`.
    #[inline]
    pub fn place(&mut self, item: &VecItem<D>) {
        debug_assert!(self.fits(item));
        for d in 0..D {
            self.used[d] += item.req[d];
        }
    }
}

/// One dominance list, reused across packs. Every vector is indexed by
/// the run's position in the sorted list; nothing here is per task.
#[derive(Debug, Clone)]
struct ListBufs<const D: usize> {
    /// The non-empty input runs whose dominant dimension is this
    /// list's, sorted, as `(next item to hand out, items left)`.
    runs: Vec<(VecItem<D>, u32)>,
    /// Structure-of-arrays mirror of the requirements: `req_cols[d][i]
    /// = runs[i].0.req[d]`. The hot `take_first_fit` scans touch one
    /// dimension at a time; a dense per-dimension column keeps those
    /// scans on sequential cache lines instead of striding through
    /// `D`-wide structs (values identical, so verdicts are too).
    req_cols: Vec<Vec<f64>>,
    /// Path-compressed liveness skips (`runs.len() + 1` slots); a run
    /// is unlinked when its last item is taken.
    skip: Vec<u32>,
    /// `sufmin[s][i] = min(req[s] over runs[i..])`; the walk reads the
    /// secondary dimensions' columns only.
    sufmin: Vec<Vec<f64>>,
    /// `group[i]` = end (exclusive) of the maximal block of neighbouring
    /// runs with the requirements of run `i`.
    group: Vec<u32>,
    /// The run the open bin last took from: everything alive before it
    /// has failed this bin.
    cursor: usize,
}

impl<const D: usize> Default for ListBufs<D> {
    fn default() -> Self {
        ListBufs {
            runs: Vec::new(),
            req_cols: (0..D).map(|_| Vec::new()).collect(),
            skip: Vec::new(),
            sufmin: (0..D).map(|_| Vec::new()).collect(),
            group: Vec::new(),
            cursor: 0,
        }
    }
}

impl<const D: usize> ListBufs<D> {
    /// Sort this list's runs with the MCB comparator and rebuild the
    /// per-run columns and accelerators.
    fn build(&mut self) {
        self.runs.sort_unstable_by(|a, b| {
            b.0.max_component()
                .total_cmp(&a.0.max_component())
                .then(a.0.id.cmp(&b.0.id))
        });
        let n = self.runs.len();
        for (d, col) in self.req_cols.iter_mut().enumerate() {
            col.clear();
            col.extend(self.runs.iter().map(|(it, _)| it.req[d]));
        }
        self.skip.clear();
        self.skip.extend(0..=n as u32);
        for col in self.sufmin.iter_mut() {
            col.clear();
            col.resize(n, f64::INFINITY);
        }
        self.group.clear();
        self.group.resize(n, 0);
        let mut acc = [f64::INFINITY; D];
        for i in (0..n).rev() {
            let req = self.runs[i].0.req;
            for (s, col) in self.sufmin.iter_mut().enumerate() {
                acc[s] = acc[s].min(req[s]);
                col[i] = acc[s];
            }
            let same_as_next = i + 1 < n && req == self.runs[i + 1].0.req;
            self.group[i] = if same_as_next {
                self.group[i + 1]
            } else {
                i as u32 + 1
            };
        }
        self.cursor = 0;
    }

    /// First alive run `>= i`, with path compression.
    fn first_alive(&mut self, mut i: usize) -> usize {
        loop {
            let p = self.skip[i] as usize;
            if p == i {
                return i;
            }
            let gp = self.skip[p];
            self.skip[i] = gp;
            i = gp as usize;
        }
    }

    /// Largest alive item's max component, or `-inf` when empty — the
    /// head key of the balanced-bin tie-break.
    fn head_key(&mut self) -> f64 {
        let i = self.first_alive(0);
        match self.runs.get(i) {
            Some((it, _)) => it.max_component(),
            None => f64::NEG_INFINITY,
        }
    }

    /// Find and remove the first (largest) alive item that fits `bin`,
    /// where `dim` is this list's primary dimension; `cursor` is then
    /// the run it came from. Exact-equivalent to a scan from the head
    /// (module docs).
    fn take_first_fit(&mut self, dim: usize, bin: &VecBin<D>) -> Option<VecItem<D>> {
        let n = self.runs.len();
        let p_used = bin.used[dim];
        let p_cap = bin.cap[dim];
        let start = if p_used == 0.0 && self.req_cols[dim].first().is_none_or(|&r| r <= p_cap + EPS)
        {
            // Empty primary dimension and the largest primary demand
            // fits this bin's capacity: no item can fail the primary
            // check. (Uniform bins always land here; a heterogeneous
            // bin smaller than the widest one must still search.)
            0
        } else {
            self.req_cols[dim].partition_point(|&r| p_used + r > p_cap + EPS)
        };
        let mut i = self.first_alive(start.max(self.cursor));
        'walk: while i < n {
            for s in 0..D {
                if s != dim && bin.used[s] + self.sufmin[s][i] > bin.cap[s] + EPS {
                    break 'walk;
                }
            }
            let mut ok = true;
            for s in 0..D {
                if s != dim && bin.used[s] + self.req_cols[s][i] > bin.cap[s] + EPS {
                    ok = false;
                    break;
                }
            }
            if ok {
                let (next, left) = &mut self.runs[i];
                let item = *next;
                debug_assert!(bin.fits(&item));
                next.id += 1;
                *left -= 1;
                if *left == 0 {
                    self.skip[i] = i as u32 + 1;
                }
                self.cursor = i;
                return Some(item);
            }
            i = self.first_alive(self.group[i] as usize);
        }
        self.cursor = n;
        None
    }
}

/// Reusable buffers for one [`McbVec`] invocation; hold one per
/// repeated caller (the DRF search keeps one per scheduler).
#[derive(Debug, Clone)]
pub struct VecPackScratch<const D: usize> {
    lists: Vec<ListBufs<D>>,
    /// The `(list, run, items taken)` picks of the bin being filled,
    /// one entry per distinct run (bin replication, module docs).
    picks: Vec<(usize, usize, u32)>,
    /// Bins the last pack filled item by item.
    bins_filled: usize,
    /// Output: bin of the item with id `i`, `u32::MAX` while unplaced.
    pub(crate) bin_of: Vec<u32>,
}

impl<const D: usize> Default for VecPackScratch<D> {
    fn default() -> Self {
        VecPackScratch {
            lists: (0..D).map(|_| ListBufs::default()).collect(),
            picks: Vec::new(),
            bins_filled: 0,
            bin_of: Vec::new(),
        }
    }
}

impl<const D: usize> VecPackScratch<D> {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        VecPackScratch::default()
    }

    /// The bin assignment left by the last successful
    /// [`McbVec::pack_runs_into`]: `bin_of()[i]` is the bin of the item
    /// with id `i`.
    pub fn bin_of(&self) -> &[u32] {
        &self.bin_of
    }

    /// How many bins the last pack filled item by item; the other bins
    /// it used were copies of one of those (module docs, "Bin
    /// replication"). At most twice the non-empty runs on uniform bins.
    pub fn bins_filled(&self) -> usize {
        self.bins_filled
    }
}

/// Bin capacities as the kernel reads them.
#[derive(Clone, Copy)]
enum Caps<'a, const D: usize> {
    /// That many bins of one capacity: nothing is stored or scanned per
    /// bin, so a pack costs the same on 8 nodes and on 100 000.
    Uniform([f64; D], usize),
    /// One capacity vector per bin.
    PerBin(&'a [[f64; D]]),
}

impl<const D: usize> Caps<'_, D> {
    fn bins(&self) -> usize {
        match *self {
            Caps::Uniform(_, bins) => bins,
            Caps::PerBin(caps) => caps.len(),
        }
    }

    fn of_bin(&self, b: usize) -> [f64; D] {
        match *self {
            Caps::Uniform(cap, _) => cap,
            Caps::PerBin(caps) => caps[b],
        }
    }

    /// Per dimension, the largest capacity of any bin and the total
    /// capacity of all bins (`bins × cap` when uniform — exact for unit
    /// bins — and the running sum otherwise).
    fn widest_and_total(&self) -> ([f64; D], [f64; D]) {
        match *self {
            Caps::Uniform(cap, bins) => (cap, cap.map(|c| bins as f64 * c)),
            Caps::PerBin(caps) => {
                let mut widest = [f64::NEG_INFINITY; D];
                let mut total = [0.0f64; D];
                for cap in caps {
                    for d in 0..D {
                        widest[d] = widest[d].max(cap[d]);
                        total[d] += cap[d];
                    }
                }
                (widest, total)
            }
        }
    }
}

/// Append `item` to `runs`, extending the last run when `item` is
/// identical to it and carries the next id.
pub(crate) fn push_as_run<const D: usize>(runs: &mut Vec<(VecItem<D>, u32)>, item: VecItem<D>) {
    match runs.last_mut() {
        Some((first, count)) if first.req == item.req && first.id + *count == item.id => {
            *count += 1;
        }
        _ => runs.push((item, 1)),
    }
}

/// The MCB packer over `D` dimensions. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct McbVec<const D: usize>;

impl<const D: usize> McbVec<D> {
    /// Attempt to place every run (`(first, count)` groups of identical
    /// items with consecutive ids) into `caps.len()` bins with the
    /// given per-bin capacity vectors. Returns whether every item was
    /// placed; the assignment is left in [`VecPackScratch::bin_of`].
    pub fn pack_runs_into(
        &self,
        runs: &[(VecItem<D>, u32)],
        caps: &[[f64; D]],
        scratch: &mut VecPackScratch<D>,
    ) -> bool {
        let view = match caps.first() {
            Some(first) if caps.iter().all(|cap| cap == first) => Caps::Uniform(*first, caps.len()),
            _ => Caps::PerBin(caps),
        };
        self.pack(runs, view, scratch)
    }

    /// [`pack_runs_into`](Self::pack_runs_into) for `bins` bins of the
    /// same capacity `cap`, at a cost independent of `bins`.
    pub(crate) fn pack_runs_uniform(
        &self,
        runs: &[(VecItem<D>, u32)],
        cap: [f64; D],
        bins: usize,
        scratch: &mut VecPackScratch<D>,
    ) -> bool {
        self.pack(runs, Caps::Uniform(cap, bins), scratch)
    }

    fn pack(
        &self,
        runs: &[(VecItem<D>, u32)],
        caps: Caps<'_, D>,
        scratch: &mut VecPackScratch<D>,
    ) -> bool {
        scratch.bin_of.clear();
        scratch.bins_filled = 0;
        let bins = caps.bins();

        // Step 0 (module docs), evaluated with the exact per-item
        // addition sequence: items within a run are identical, so the
        // repeated adds match an item-level loop. A run of no items
        // constrains nothing, and no items at all pack onto no bins.
        let live = runs.iter().copied().filter(|&(_, count)| count > 0);
        let (widest, total) = caps.widest_and_total();
        let mut n = 0usize;
        let mut live_runs = 0usize;
        let mut sums = [0.0f64; D];
        let mut big = [0usize; D];
        for (it, count) in live.clone() {
            if it.req.iter().zip(widest.iter()).any(|(&r, &c)| r > c + EPS) {
                return false;
            }
            for _ in 0..count {
                for (s, &r) in sums.iter_mut().zip(it.req.iter()) {
                    *s += r;
                }
            }
            n += count as usize;
            live_runs += 1;
            if let Caps::Uniform(cap, _) = caps {
                for d in 0..D {
                    big[d] += ((it.req[d] > 0.5 * cap[d] + EPS) as usize) * count as usize;
                }
            }
        }
        for d in 0..D {
            if sums[d] > total[d] + EPS || big[d] > bins {
                return false;
            }
        }

        // Partition runs into the D dominance lists and build each.
        for list in scratch.lists.iter_mut() {
            list.runs.clear();
        }
        for (it, count) in live {
            scratch.lists[it.dominant()].runs.push((it, count));
        }
        for list in scratch.lists.iter_mut() {
            list.build();
        }

        scratch.bin_of.resize(n, u32::MAX);
        // Bin replication (module docs) needs equal bins and a run of
        // two or more items.
        let replicate = matches!(caps, Caps::Uniform(..)) && n > live_runs;
        let mut placed = 0usize;
        let mut b = 0usize;

        while b < bins && placed < n {
            let mut bin = VecBin::new(caps.of_bin(b));
            for list in scratch.lists.iter_mut() {
                list.cursor = 0;
            }
            scratch.bins_filled += 1;
            scratch.picks.clear();
            let mut exhausted = false;
            loop {
                // Order the lists by the bin's residual capacities,
                // freest dimension first; a free-capacity tie prefers
                // the list with the larger head, then the higher
                // dimension index (step 3 of the module docs).
                let mut heads = [f64::NEG_INFINITY; D];
                for (d, h) in heads.iter_mut().enumerate() {
                    *h = scratch.lists[d].head_key();
                }
                let mut order = [0usize; D];
                for (d, o) in order.iter_mut().enumerate() {
                    *o = d;
                }
                // Insertion sort with the pairwise "a before b"
                // predicate: deterministic for small fixed D.
                for i in 1..D {
                    let mut j = i;
                    while j > 0 {
                        let (a, b) = (order[j], order[j - 1]);
                        let before = if dfrs_core::approx::eq(bin.free(a), bin.free(b)) {
                            if heads[a] == heads[b] {
                                a > b
                            } else {
                                heads[a] > heads[b]
                            }
                        } else {
                            bin.free(a) > bin.free(b)
                        };
                        if before {
                            order.swap(j, j - 1);
                            j -= 1;
                        } else {
                            break;
                        }
                    }
                }

                let mut picked = None;
                for &d in order.iter() {
                    if let Some(item) = scratch.lists[d].take_first_fit(d, &bin) {
                        picked = Some((d, item));
                        break;
                    }
                }
                // Nothing fits: open the next bin.
                let Some((d, item)) = picked else { break };
                bin.place(&item);
                scratch.bin_of[item.id as usize] = b as u32;
                placed += 1;
                if replicate && !exhausted {
                    let run = scratch.lists[d].cursor;
                    if scratch.lists[d].runs[run].1 == 0 {
                        exhausted = true;
                    } else if let Some(pick) = scratch
                        .picks
                        .iter_mut()
                        .find(|pick| (pick.0, pick.1) == (d, run))
                    {
                        pick.2 += 1;
                    } else {
                        scratch.picks.push((d, run, 1));
                    }
                }
                if placed == n {
                    break;
                }
            }
            b += 1;

            if replicate && !exhausted {
                // Every picked run outlives each copy by an item, so
                // the copies repeat this bin pick for pick.
                let mut copies = bins - b;
                for &(d, run, k) in scratch.picks.iter() {
                    copies = copies.min(((scratch.lists[d].runs[run].1 - 1) / k) as usize);
                }
                for &(d, run, k) in scratch.picks.iter() {
                    let (next, left) = &mut scratch.lists[d].runs[run];
                    let taken = copies as u32 * k;
                    let ids = next.id as usize..(next.id + taken) as usize;
                    let per_copy = scratch.bin_of[ids].chunks_exact_mut(k as usize);
                    for (copy, slots) in per_copy.enumerate() {
                        slots.fill((b + copy) as u32);
                    }
                    next.id += taken;
                    *left -= taken;
                    placed += taken as usize;
                }
                b += copies;
            }
        }

        placed == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validate an assignment: every item placed exactly once, no bin over
    /// capacity in any dimension.
    fn assignment_is_valid<const D: usize>(
        items: &[VecItem<D>],
        caps: &[[f64; D]],
        bin_of: &[u32],
    ) -> bool {
        if bin_of.len() != items.len() {
            return false;
        }
        let mut used = vec![[0.0f64; D]; caps.len()];
        for item in items {
            let Some(&b) = bin_of.get(item.id as usize) else {
                return false;
            };
            let b = b as usize;
            if b >= caps.len() {
                return false;
            }
            for (u, &r) in used[b].iter_mut().zip(item.req.iter()) {
                *u += r;
            }
        }
        used.iter()
            .zip(caps.iter())
            .all(|(u, c)| (0..D).all(|d| u[d] <= c[d] + EPS))
    }

    fn items3(reqs: &[[f64; 3]]) -> Vec<VecItem<3>> {
        reqs.iter()
            .enumerate()
            .map(|(i, &req)| VecItem { id: i as u32, req })
            .collect()
    }

    /// Pack expanded items into `bins` unit bins; the assignment when
    /// everything fits.
    fn unit_bins(items: &[VecItem<3>], bins: usize) -> Option<Vec<u32>> {
        let mut scratch = VecPackScratch::new();
        let mut runs = Vec::new();
        for &it in items {
            push_as_run(&mut runs, it);
        }
        McbVec::<3>
            .pack_runs_uniform(&runs, [1.0; 3], bins, &mut scratch)
            .then(|| scratch.bin_of.clone())
    }

    #[test]
    fn empty_input_packs_trivially() {
        assert!(unit_bins(&[], 0).is_some());
        assert!(unit_bins(&[], 4).is_some());
    }

    #[test]
    fn oversized_item_fails_in_any_dimension() {
        for d in 0..3 {
            let mut req = [0.1; 3];
            req[d] = 1.2;
            assert!(unit_bins(&items3(&[req]), 4).is_none(), "dim {d}");
        }
    }

    #[test]
    fn a_run_of_no_items_is_skipped_everywhere() {
        // Its requirement is oversized, but it holds no item: the
        // instance is the two real runs around it.
        let item = |id, req| VecItem::<3> { id, req };
        let runs = [
            (item(0, [0.4, 0.2, 0.1]), 2),
            (item(2, [1.2, 0.1, 0.1]), 0),
            (item(2, [0.1, 0.6, 0.0]), 1),
        ];
        let mut scratch = VecPackScratch::new();
        assert!(McbVec::<3>.pack_runs_into(&runs, &[[1.0; 3]; 2], &mut scratch));
        assert_eq!(scratch.bin_of(), [0, 0, 0]);
        assert!(McbVec::<3>.pack_runs_into(&runs[1..2], &[[1.0; 3]], &mut scratch));
        assert!(scratch.bin_of().is_empty());
    }

    #[test]
    fn gpu_capacity_binds_even_with_free_cpu_and_memory() {
        // Three items needing 60% GPU each: two nodes can host at most
        // two, whatever their CPU/memory slack.
        let its = items3(&[[0.1, 0.1, 0.6]; 3]);
        assert!(unit_bins(&its, 2).is_none());
        assert!(unit_bins(&its, 3).is_some());
    }

    #[test]
    fn complementary_items_share_bins_across_three_dimensions() {
        // CPU-heavy, memory-heavy and GPU-heavy items are mutually
        // complementary: three per bin, two bins.
        let its = items3(&[
            [0.8, 0.1, 0.05],
            [0.1, 0.8, 0.05],
            [0.05, 0.1, 0.8],
            [0.8, 0.1, 0.05],
            [0.1, 0.8, 0.05],
            [0.05, 0.1, 0.8],
        ]);
        let bin_of = unit_bins(&its, 2).unwrap();
        assert!(assignment_is_valid(&its, &[[1.0; 3]; 2], &bin_of));
    }

    #[test]
    fn heterogeneous_capacities_govern_placement() {
        // One GPU node, one CPU-only node; the GPU item must land on
        // bin 0 and the result must respect the zero GPU capacity.
        let caps = [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]];
        let its = items3(&[[0.2, 0.2, 0.9], [0.9, 0.2, 0.0]]);
        let mut scratch = VecPackScratch::new();
        let runs: Vec<_> = its.iter().map(|&it| (it, 1u32)).collect();
        assert!(McbVec::<3>.pack_runs_into(&runs, &caps, &mut scratch));
        assert!(assignment_is_valid(&its, &caps, scratch.bin_of()));
        assert_eq!(scratch.bin_of()[0], 0, "GPU item needs the GPU node");
    }

    #[test]
    fn deterministic_across_repeat_calls() {
        let its = items3(&[
            [0.5, 0.3, 0.2],
            [0.5, 0.3, 0.2],
            [0.3, 0.5, 0.1],
            [0.2, 0.1, 0.6],
        ]);
        let a = unit_bins(&its, 2).unwrap();
        let b = unit_bins(&its, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_gpu_degenerates_to_two_dimensional_behavior() {
        // With every GPU requirement zero, the GPU dominance list stays
        // empty and packing matches the 2-dim problem.
        let its = items3(&[
            [0.9, 0.1, 0.0],
            [0.1, 0.9, 0.0],
            [0.9, 0.1, 0.0],
            [0.1, 0.9, 0.0],
        ]);
        let bin_of = unit_bins(&its, 2).unwrap();
        assert!(assignment_is_valid(&its, &[[1.0; 3]; 2], &bin_of));
        assert_ne!(bin_of[0], bin_of[2], "two CPU-heavy items can't share");
    }
}
