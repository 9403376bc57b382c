//! Items, bins, and the packer interface.

use dfrs_core::approx;

/// One task to place: a point in the (CPU, memory) requirement plane.
///
/// `id` is an opaque caller-assigned index (the schedulers use a dense
/// task index and map ranges of ids back to jobs). Ids must be unique
/// within one `pack` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackItem {
    /// Caller-assigned unique id.
    pub id: u32,
    /// CPU requirement in `[0, 1]` (a *requirement*, i.e. need × yield).
    pub cpu: f64,
    /// Memory requirement in `(0, 1]`.
    pub mem: f64,
}

impl PackItem {
    /// The larger of the two requirements — MCB8's sort key.
    #[inline]
    pub fn max_component(&self) -> f64 {
        self.cpu.max(self.mem)
    }

    /// True when the CPU requirement strictly dominates memory.
    #[inline]
    pub fn cpu_dominant(&self) -> bool {
        self.cpu > self.mem
    }
}

/// Running state of one node while packing.
///
/// Bins carry an **explicit capacity vector**: nothing in `fits`/`place`
/// assumes unit capacity, so heterogeneous nodes pack through the same
/// code path. [`Bin::empty`] yields the paper's normalized unit bin
/// (both capacities exactly `1.0`), keeping the historical arithmetic
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// CPU already committed.
    pub cpu_used: f64,
    /// Memory already committed.
    pub mem_used: f64,
    /// CPU capacity of this bin.
    pub cpu_cap: f64,
    /// Memory capacity of this bin.
    pub mem_cap: f64,
}

impl Bin {
    /// Fresh empty bin with the paper's normalized unit capacities.
    #[inline]
    pub fn empty() -> Self {
        Bin::with_caps(1.0, 1.0)
    }

    /// Fresh empty bin with explicit capacities.
    #[inline]
    pub fn with_caps(cpu_cap: f64, mem_cap: f64) -> Self {
        debug_assert!(cpu_cap >= 0.0 && mem_cap >= 0.0);
        Bin {
            cpu_used: 0.0,
            mem_used: 0.0,
            cpu_cap,
            mem_cap,
        }
    }

    /// Remaining CPU capacity.
    #[inline]
    pub fn cpu_free(&self) -> f64 {
        self.cpu_cap - self.cpu_used
    }

    /// Remaining memory capacity.
    #[inline]
    pub fn mem_free(&self) -> f64 {
        self.mem_cap - self.mem_used
    }

    /// Whether `item` fits within both remaining capacities (tolerant
    /// comparison).
    #[inline]
    pub fn fits(&self, item: &PackItem) -> bool {
        approx::le(self.cpu_used + item.cpu, self.cpu_cap)
            && approx::le(self.mem_used + item.mem, self.mem_cap)
    }

    /// Commit `item` into the bin.
    #[inline]
    pub fn place(&mut self, item: &PackItem) {
        debug_assert!(self.fits(item));
        self.cpu_used += item.cpu;
        self.mem_used += item.mem;
    }
}

/// A successful packing: for every input item, the bin that hosts it.
#[derive(Debug, Clone, PartialEq)]
pub struct Packing {
    /// `bin_of[i]` is the bin index of the item with id `i`.
    ///
    /// Indexed by item **id**, so callers can hand items in any order as
    /// long as ids are dense `0..n`.
    pub bin_of: Vec<u32>,
}

impl Packing {
    /// Verify that this packing places every item exactly once without
    /// exceeding any bin capacity — used by tests and debug assertions.
    pub fn is_valid(&self, items: &[PackItem], bins: usize) -> bool {
        if self.bin_of.len() != items.len() {
            return false;
        }
        let mut state = vec![Bin::empty(); bins];
        for item in items {
            let Some(&b) = self.bin_of.get(item.id as usize) else {
                return false;
            };
            let b = b as usize;
            if b >= bins {
                return false;
            }
            state[b].cpu_used += item.cpu;
            state[b].mem_used += item.mem;
        }
        state
            .iter()
            .all(|b| approx::le(b.cpu_used, b.cpu_cap) && approx::le(b.mem_used, b.mem_cap))
    }
}

/// A bi-dimensional vector-packing heuristic: place all `items` into
/// `bins` unit bins, or report failure (`None`). Heuristics are
/// incomplete: `None` does not prove infeasibility.
/// `Send + Sync` is a supertrait requirement: packers are stateless
/// configuration shared by `&'static` reference from scheduler
/// instances, and schedulers must be `Send` so composite runners (the
/// sharded coordinator, campaign thread pools) can fan them out across
/// scoped threads.
pub trait VectorPacker: Send + Sync {
    /// Human-readable name for reports and benches.
    fn name(&self) -> &'static str;

    /// Attempt to place every item. Item ids must be dense `0..items.len()`.
    fn pack(&self, items: &[PackItem], bins: usize) -> Option<Packing>;

    /// Allocation-free variant of [`pack`](Self::pack): reuse `scratch`
    /// buffers and leave the assignment in
    /// [`PackScratch::bin_of`](crate::PackScratch::bin_of). Returns
    /// whether every item was placed. The default falls back to `pack`;
    /// hot-path packers override it.
    fn pack_into(
        &self,
        items: &[PackItem],
        bins: usize,
        scratch: &mut crate::scratch::PackScratch,
    ) -> bool {
        let bin_of = &mut scratch.kernel.bin_of;
        bin_of.clear();
        match self.pack(items, bins) {
            Some(p) => {
                bin_of.extend_from_slice(&p.bin_of);
                true
            }
            None => false,
        }
    }

    /// [`pack_into`](Self::pack_into) over pre-compressed runs: each
    /// `(first, count)` entry stands for `count` identical items with
    /// consecutive ids starting at `first.id` (a job's tasks). Repeated
    /// callers build runs directly — O(jobs) per probe instead of
    /// O(tasks). The default expands and delegates.
    fn pack_runs_into(
        &self,
        runs: &[(PackItem, u32)],
        bins: usize,
        scratch: &mut crate::scratch::PackScratch,
    ) -> bool {
        let items: Vec<PackItem> = runs
            .iter()
            .flat_map(|&(it, count)| {
                (0..count).map(move |k| PackItem {
                    id: it.id + k,
                    cpu: it.cpu,
                    mem: it.mem,
                })
            })
            .collect();
        self.pack_into(&items, bins, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_fits_is_tolerant_at_capacity() {
        let mut b = Bin::empty();
        let half = PackItem {
            id: 0,
            cpu: 0.5,
            mem: 0.5,
        };
        b.place(&half);
        assert!(b.fits(&half));
        b.place(&half);
        assert!(!b.fits(&PackItem {
            id: 1,
            cpu: 1e-6,
            mem: 0.0
        }));
        // Tolerates rounding noise.
        assert!(b.fits(&PackItem {
            id: 2,
            cpu: 1e-12,
            mem: 0.0
        }));
    }

    #[test]
    fn explicit_caps_govern_fits_and_place() {
        // A bin with a non-unit memory capacity: the old hardcoded-1.0
        // check would wrongly accept items that overflow it.
        let mut b = Bin::with_caps(2.0, 0.5);
        let item = PackItem {
            id: 0,
            cpu: 1.5,
            mem: 0.5,
        };
        // Exactly at capacity in the non-CPU dimension: the approx::le
        // boundary accepts it.
        assert!(b.fits(&item));
        b.place(&item);
        assert_eq!(b.cpu_free(), 0.5);
        assert_eq!(b.mem_free(), 0.0);
        // One epsilon over (beyond the approx tolerance) does not fit.
        let over = PackItem {
            id: 1,
            cpu: 0.0,
            mem: 1e-6,
        };
        assert!(!b.fits(&over));
        // Unit bins reject what only the larger capacity admitted.
        assert!(!Bin::empty().fits(&PackItem {
            id: 2,
            cpu: 1.5,
            mem: 0.1
        }));
    }

    #[test]
    fn at_capacity_boundary_in_memory_dimension() {
        // Negative-path pair for the capacity bugfix: an item landing
        // *exactly* at a fractional memory capacity places; an epsilon
        // beyond the tolerance is refused.
        let cap = 0.7;
        let b = Bin::with_caps(1.0, cap);
        let exact = PackItem {
            id: 0,
            cpu: 0.1,
            mem: cap,
        };
        assert!(b.fits(&exact), "exact boundary must pass approx::le");
        let sliver = PackItem {
            id: 1,
            cpu: 0.1,
            mem: cap + 1e-6,
        };
        assert!(!b.fits(&sliver), "an epsilon over must not fit");
    }

    #[test]
    fn max_component_and_dominance() {
        let i = PackItem {
            id: 0,
            cpu: 0.7,
            mem: 0.3,
        };
        assert_eq!(i.max_component(), 0.7);
        assert!(i.cpu_dominant());
        let j = PackItem {
            id: 1,
            cpu: 0.3,
            mem: 0.3,
        };
        assert!(!j.cpu_dominant(), "ties are memory-dominant");
    }

    #[test]
    fn packing_validity_detects_overflow() {
        let items = vec![
            PackItem {
                id: 0,
                cpu: 0.6,
                mem: 0.1,
            },
            PackItem {
                id: 1,
                cpu: 0.6,
                mem: 0.1,
            },
        ];
        let ok = Packing { bin_of: vec![0, 1] };
        assert!(ok.is_valid(&items, 2));
        let bad = Packing { bin_of: vec![0, 0] };
        assert!(!bad.is_valid(&items, 2), "1.2 CPU in one bin");
        let out_of_range = Packing { bin_of: vec![0, 5] };
        assert!(!out_of_range.is_valid(&items, 2));
        let wrong_len = Packing { bin_of: vec![0] };
        assert!(!wrong_len.is_valid(&items, 2));
    }
}
