//! MCB8, the paper's packer: [`McbVec`] at `D = 2` on unit bins.
//!
//! MCB8 is the two-resource instance of the *Multi-Capacity Bin packing*
//! family of Leinberger, Karypis and Kumar (ICPP 1999), in the variant
//! used by Stillwell et al. (Section III-B): tasks split into a
//! CPU-dominant and a memory-dominant list (ties are memory-dominant),
//! each sorted by non-increasing largest requirement, and on the open
//! node the next task comes from the list that goes **against** the
//! node's current imbalance. The heuristic, its tie-breaks and the
//! exactness of its accelerators are documented where the code is, in
//! [`crate::vecpack`]; this type only gives the `D = 2` instantiation
//! its historical name and the [`VectorPacker`] interface the yield and
//! stretch searches pack through.

use crate::item::{PackItem, Packing, VectorPacker};
use crate::scratch::PackScratch;
use crate::vecpack::{push_as_run, McbVec, VecItem};

/// The MCB8 packer. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mcb8;

fn as_vec_item(it: &PackItem) -> VecItem<2> {
    VecItem {
        id: it.id,
        req: [it.cpu, it.mem],
    }
}

/// Pack `scratch.runs` onto `bins` unit bins.
fn pack_scratch_runs(bins: usize, scratch: &mut PackScratch) -> bool {
    McbVec::<2>.pack_runs_uniform(&scratch.runs, [1.0; 2], bins, &mut scratch.kernel)
}

impl VectorPacker for Mcb8 {
    fn name(&self) -> &'static str {
        "mcb8"
    }

    fn pack(&self, items: &[PackItem], bins: usize) -> Option<Packing> {
        let mut scratch = PackScratch::new();
        self.pack_into(items, bins, &mut scratch).then(|| {
            let packing = Packing {
                bin_of: std::mem::take(&mut scratch.kernel.bin_of),
            };
            debug_assert!(packing.is_valid(items, bins));
            packing
        })
    }

    fn pack_into(&self, items: &[PackItem], bins: usize, scratch: &mut PackScratch) -> bool {
        debug_assert!(
            {
                let n = items.len();
                let mut seen = vec![false; n];
                items.iter().all(|i| {
                    let ok = (i.id as usize) < n && !seen[i.id as usize];
                    if ok {
                        seen[i.id as usize] = true;
                    }
                    ok
                })
            },
            "item ids must be dense 0..n and unique"
        );
        // Compress consecutive identical items into runs; hot-path
        // callers (the searches) build runs directly.
        scratch.runs.clear();
        for it in items {
            push_as_run(&mut scratch.runs, as_vec_item(it));
        }
        pack_scratch_runs(bins, scratch)
    }

    fn pack_runs_into(
        &self,
        runs: &[(PackItem, u32)],
        bins: usize,
        scratch: &mut PackScratch,
    ) -> bool {
        scratch.runs.clear();
        scratch
            .runs
            .extend(runs.iter().map(|(it, count)| (as_vec_item(it), *count)));
        pack_scratch_runs(bins, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(reqs: &[(f64, f64)]) -> Vec<PackItem> {
        reqs.iter()
            .enumerate()
            .map(|(i, &(cpu, mem))| PackItem {
                id: i as u32,
                cpu,
                mem,
            })
            .collect()
    }

    #[test]
    fn empty_input_packs_trivially() {
        assert!(Mcb8.pack(&[], 0).is_some());
        assert!(Mcb8.pack(&[], 4).is_some());
    }

    #[test]
    fn single_item_fills_one_bin() {
        let its = items(&[(1.0, 1.0)]);
        let p = Mcb8.pack(&its, 1).unwrap();
        assert_eq!(p.bin_of, vec![0]);
    }

    #[test]
    fn oversized_item_fails() {
        assert!(Mcb8.pack(&items(&[(1.2, 0.1)]), 4).is_none());
        assert!(Mcb8.pack(&items(&[(0.1, 1.2)]), 4).is_none());
    }

    #[test]
    fn total_demand_exceeding_capacity_fails_fast() {
        let its = items(&[(0.9, 0.1), (0.9, 0.1), (0.9, 0.1)]);
        assert!(Mcb8.pack(&its, 2).is_none());
    }

    #[test]
    fn complementary_items_share_a_bin() {
        // One CPU-heavy and one memory-heavy item fit together; two of the
        // same kind would not. MCB8's balance steering must pair them.
        let its = items(&[(0.9, 0.1), (0.1, 0.9), (0.9, 0.1), (0.1, 0.9)]);
        let p = Mcb8.pack(&its, 2).unwrap();
        assert!(p.is_valid(&its, 2));
        // Each bin must hold exactly one of each kind.
        assert_ne!(p.bin_of[0], p.bin_of[2], "two CPU-heavy items can't share");
        assert_ne!(
            p.bin_of[1], p.bin_of[3],
            "two memory-heavy items can't share"
        );
    }

    #[test]
    fn balance_steering_beats_naive_order() {
        // Four CPU-heavy small-mem + four mem-heavy small-cpu items on 4
        // bins, where any same-kind pairing overflows.
        let its = items(&[
            (0.8, 0.15),
            (0.8, 0.15),
            (0.8, 0.15),
            (0.8, 0.15),
            (0.15, 0.8),
            (0.15, 0.8),
            (0.15, 0.8),
            (0.15, 0.8),
        ]);
        let p = Mcb8.pack(&its, 4).unwrap();
        assert!(p.is_valid(&its, 4));
    }

    #[test]
    fn uses_exactly_enough_bins_for_unit_items() {
        let its = items(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        assert!(Mcb8.pack(&its, 3).is_some());
        assert!(Mcb8.pack(&its, 2).is_none());
    }

    #[test]
    fn many_small_items_fill_densely() {
        // 40 items of (0.1, 0.1) pack into 4 bins exactly.
        let its = items(&[(0.1, 0.1); 40]);
        let p = Mcb8.pack(&its, 4).unwrap();
        assert!(p.is_valid(&its, 4));
        assert!(Mcb8.pack(&its, 3).is_none(), "needs 4 full bins");
    }

    #[test]
    fn zero_cpu_items_pack_by_memory_only() {
        // Yield 0 turns CPU requirements to 0; packing degenerates to 1-D
        // memory packing.
        let its = items(&[(0.0, 0.5); 6]);
        assert!(Mcb8.pack(&its, 3).is_some());
        assert!(Mcb8.pack(&its, 2).is_none());
    }

    #[test]
    fn deterministic_across_input_permutations_of_equal_items() {
        let a = items(&[(0.5, 0.3), (0.5, 0.3), (0.3, 0.5), (0.3, 0.5)]);
        let p1 = Mcb8.pack(&a, 2).unwrap();
        let p2 = Mcb8.pack(&a, 2).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn cost_is_independent_of_the_bin_count() {
        // A uniform cluster is a capacity and a count, never a per-bin
        // array: 2^40 bins would not fit in memory (or in the test
        // budget) if anything were allocated or scanned per bin.
        let runs = [(
            PackItem {
                id: 0,
                cpu: 0.5,
                mem: 0.5,
            },
            1,
        )];
        let mut scratch = PackScratch::new();
        assert!(Mcb8.pack_runs_into(&runs, 1 << 40, &mut scratch));
        assert_eq!(scratch.bin_of(), [0]);
    }

    #[test]
    fn identical_tasks_cost_two_bin_fills_however_many_there_are() {
        // Three tasks to a bin: the first bin is filled task by task,
        // 33 332 bins are copies of it, and the one task left over
        // fills the last.
        let runs = [(
            PackItem {
                id: 0,
                cpu: 0.3,
                mem: 0.3,
            },
            100_000,
        )];
        let mut scratch = PackScratch::new();
        assert!(Mcb8.pack_runs_into(&runs, 1 << 40, &mut scratch));
        assert!(scratch.bins_filled() <= 2, "{}", scratch.bins_filled());
        let expected: Vec<u32> = (0..100_000).map(|id| id / 3).collect();
        assert_eq!(scratch.bin_of(), expected);
    }

    #[test]
    fn respects_memory_even_with_free_cpu() {
        // CPU requirements are 0 but memory binds: 5 half-memory items
        // need 3 bins.
        let its = items(&[(0.0, 0.5); 5]);
        let p = Mcb8.pack(&its, 3).unwrap();
        assert!(p.is_valid(&its, 3));
    }
}
