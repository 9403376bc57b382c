//! The MCB kernel against an independent textbook reference.
//!
//! `reference_mcb` is the heuristic written straight from the steps and
//! tie-breaks in the `vecpack` module docs: task-level sort, every scan
//! from the head of its list, `Vec::remove` for a placed task. It has
//! none of the kernel's accelerators (no run-level lists, skip array,
//! prefix jump, suffix minima, group skip, per-bin cursor or bin
//! replication), so byte-identical `bin_of` on random instances is
//! evidence that those are exact — for `Mcb8` (the `D = 2` adapter) and
//! for `McbVec::<3>` alike. The first three properties draw runs of one
//! to four tasks; the last two draw the long runs of small tasks that
//! bin replication lives on, and hold the kernel to its count guard,
//! `bins_filled <= 2 × non-empty runs` on uniform bins.

use dfrs_core::approx::{self, EPS};
use dfrs_packing::{Mcb8, McbVec, PackItem, PackScratch, VecItem, VecPackScratch, VectorPacker};
use proptest::prelude::*;

fn largest<const D: usize>(it: &VecItem<D>) -> f64 {
    it.req.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Scan-from-head MCB over `D` dimensions; `items` carry dense ids in
/// slice order. Returns the bin of every item, or `None` when some item
/// stays unplaced.
fn reference_mcb<const D: usize>(items: &[VecItem<D>], caps: &[[f64; D]]) -> Option<Vec<u32>> {
    if items.is_empty() {
        return Some(Vec::new());
    }
    // Step 0: the cheap rejections.
    let uniform = caps.windows(2).all(|w| w[0] == w[1]);
    for d in 0..D {
        let widest = caps.iter().map(|c| c[d]).fold(f64::NEG_INFINITY, f64::max);
        if items.iter().any(|it| it.req[d] > widest + EPS) {
            return None;
        }
        let demand = items.iter().fold(0.0, |sum, it| sum + it.req[d]);
        let supply = if uniform {
            caps.len() as f64 * caps[0][d]
        } else {
            caps.iter().map(|c| c[d]).sum()
        };
        if demand > supply + EPS {
            return None;
        }
        let over_half = |it: &&VecItem<D>| it.req[d] > 0.5 * caps[0][d] + EPS;
        if uniform && items.iter().filter(over_half).count() > caps.len() {
            return None;
        }
    }
    // Steps 1 and 2: one list per dominant dimension (ties toward the
    // higher index), largest requirement first, then id.
    let mut lists: [Vec<VecItem<D>>; D] = std::array::from_fn(|_| Vec::new());
    for it in items {
        let mut dominant = 0;
        for d in 1..D {
            if it.req[d] >= it.req[dominant] {
                dominant = d;
            }
        }
        lists[dominant].push(*it);
    }
    for list in lists.iter_mut() {
        list.sort_by(|a, b| largest(b).total_cmp(&largest(a)).then(a.id.cmp(&b.id)));
    }
    // Step 3: fill one bin at a time.
    let mut bin_of = vec![u32::MAX; items.len()];
    let mut unplaced = items.len();
    for (b, cap) in caps.iter().enumerate() {
        let mut used = [0.0; D];
        while unplaced > 0 {
            let free = |d: usize| cap[d] - used[d];
            let head = |d: usize| lists[d].first().map_or(f64::NEG_INFINITY, largest);
            let before = |x: usize, y: usize| {
                if !approx::eq(free(x), free(y)) {
                    free(x) > free(y)
                } else if head(x) != head(y) {
                    head(x) > head(y)
                } else {
                    x > y
                }
            };
            let mut order: Vec<usize> = (0..D).collect();
            for i in 1..D {
                let mut j = i;
                while j > 0 && before(order[j], order[j - 1]) {
                    order.swap(j, j - 1);
                    j -= 1;
                }
            }
            let fits = |it: &VecItem<D>| (0..D).all(|d| used[d] + it.req[d] <= cap[d] + EPS);
            let pick = order
                .iter()
                .find_map(|&d| lists[d].iter().position(fits).map(|i| (d, i)));
            let Some((d, i)) = pick else { break };
            let it = lists[d].remove(i);
            for (u, r) in used.iter_mut().zip(it.req) {
                *u += r;
            }
            bin_of[it.id as usize] = b as u32;
            unplaced -= 1;
        }
    }
    (unplaced == 0).then_some(bin_of)
}

/// One requirement: exactly zero, on a grid of eighths shared by every
/// dimension (so sort keys, list heads, free capacities and whole items
/// tie), or anywhere up to `max`.
fn arb_req(max: f64) -> impl Strategy<Value = f64> {
    (0u32..4, 0u32..=8, 0.0..=max).prop_map(move |(kind, grid, any)| match kind {
        0 => 0.0,
        1 => (f64::from(grid) / 8.0).min(max),
        _ => any,
    })
}

/// Expanded items, and the same items as runs.
type Instance<const D: usize> = (Vec<VecItem<D>>, Vec<(VecItem<D>, u32)>);

/// Items as the searches produce them: runs of identical tasks with
/// consecutive ids.
fn instance<const D: usize>(raw: Vec<([f64; D], u32)>) -> Instance<D> {
    let mut items = Vec::new();
    let mut runs: Vec<(VecItem<D>, u32)> = Vec::new();
    for (req, count) in raw {
        let first = VecItem {
            id: items.len() as u32,
            req,
        };
        for k in 0..count {
            items.push(VecItem {
                id: first.id + k,
                req,
            });
        }
        // Neighbours that happen to be identical are still one run each:
        // the kernel must not care how the caller cut them.
        runs.push((first, count));
    }
    (items, runs)
}

/// A unit-bin count around the instance's volume bound, so that most
/// cases reach the bin loop and about half of those pack.
fn bins_near_the_bound<const D: usize>(items: &[VecItem<D>], slack: usize) -> usize {
    let volume = |d: usize| items.iter().map(|it| it.req[d]).sum::<f64>();
    let bound = (0..D).map(volume).fold(0.0, f64::max).ceil() as usize;
    (bound + slack).saturating_sub(1)
}

fn arb_instance2(max_runs: usize) -> impl Strategy<Value = Instance<2>> {
    prop::collection::vec((arb_req(1.0), arb_req(0.7), 1u32..5), 0..max_runs)
        .prop_map(|raw| instance(raw.into_iter().map(|(c, m, n)| ([c, m], n)).collect()))
}

fn arb_instance3(max_runs: usize) -> impl Strategy<Value = Instance<3>> {
    prop::collection::vec(
        (arb_req(1.0), arb_req(0.7), arb_req(1.0), 1u32..5),
        0..max_runs,
    )
    .prop_map(|raw| instance(raw.into_iter().map(|(c, m, g, n)| ([c, m, g], n)).collect()))
}

/// One requirement of a small task — a bin takes three or more: exactly
/// zero, on a grid of sixteenths up to a quarter (whole items, list
/// heads and the free capacities of an empty bin tie; 4, 8 or 16 to a
/// bin exactly), or anywhere up to 0.3.
fn arb_small_req() -> impl Strategy<Value = f64> {
    (0u32..4, 0u32..=4, 0.0..=0.3).prop_map(|(kind, grid, any)| match kind {
        0 => 0.0,
        1 => f64::from(grid) / 16.0,
        _ => any,
    })
}

/// A run length up to 200: none, short, a multiple of twelve (so of the
/// 2, 3, 4, 6 or 12 items a bin takes from it — the run ends exactly
/// where a copied bin does), or anything.
fn arb_run_len() -> impl Strategy<Value = u32> {
    (0u32..8, 1u32..=16, 1u32..=200).prop_map(|(kind, dozens, any)| match kind {
        0 => 0,
        1 => any % 5,
        2..=4 => 12 * dozens,
        _ => any,
    })
}

/// Long runs of small `D`-vectors. One run in four is followed by a
/// second run of the same requirements and its own length; another one
/// in four by its mirror image — the requirements reversed, as long or
/// of its own length — so that the two lists' heads tie, a bin that
/// took one of each has tied free capacities, and the order of the
/// lists turns on which of the two runs is still alive.
fn arb_long_runs<const D: usize>(max_runs: usize) -> impl Strategy<Value = Instance<D>> {
    let req = prop::collection::vec(arb_small_req(), D);
    prop::collection::vec((req, arb_run_len(), 0u32..8, arb_run_len()), 1..max_runs).prop_map(
        |raw| {
            let mut cut = Vec::new();
            for (req, len, twin, twin_len) in raw {
                let req: [f64; D] = std::array::from_fn(|d| req[d]);
                let mirror: [f64; D] = std::array::from_fn(|d| req[D - 1 - d]);
                cut.push((req, len));
                match twin {
                    0 | 1 => cut.push((req, twin_len)),
                    2 => cut.push((mirror, len)),
                    3 => cut.push((mirror, twin_len)),
                    _ => {}
                }
            }
            instance(cut)
        },
    )
}

/// The count guard: on uniform bins a pack fills at most two bins per
/// non-empty run item by item, whatever the task and bin counts.
fn fills_allowed<const D: usize>(runs: &[(VecItem<D>, u32)]) -> usize {
    2 * runs.iter().filter(|run| run.1 > 0).count()
}

/// Per-bin capacities: unit, on a grid, or anything — GPU down to zero.
fn arb_caps3(max_bins: usize) -> impl Strategy<Value = Vec<[f64; 3]>> {
    let cap = |lo: f64| {
        (0u32..3, 0u32..=4, lo..=1.0).prop_map(move |(kind, grid, any)| match kind {
            0 => 1.0,
            1 => lo + (1.0 - lo) * f64::from(grid) / 4.0,
            _ => any,
        })
    };
    prop::collection::vec((cap(0.5), cap(0.5), cap(0.0)), 0..max_bins)
        .prop_map(|caps| caps.into_iter().map(|(c, m, g)| [c, m, g]).collect())
}

/// The `(left − 1) / k` edge of bin replication, by hand. Bin 0 takes
/// one `x`, one `y`, then — free capacities tied at a quarter, heads
/// tied at a half, so the memory list goes first — one `w`. No run is
/// exhausted, but bin 1 is no copy: it takes the *last* `x`, the memory
/// list's head drops to `w`'s 0.2, the same tie now goes to the CPU
/// list, and `v` is placed where `w` was. A run may be copied only
/// while it keeps an item after the copy.
#[test]
fn a_run_that_ends_with_the_bin_is_not_copied() {
    let (items, runs) = instance(vec![
        ([0.25, 0.5], 2), // x: ids 0, 1
        ([0.5, 0.25], 4), // y: ids 2..=5
        ([0.1, 0.2], 4),  // w: ids 6..=9
        ([0.2, 0.1], 4),  // v: ids 10..=13
    ]);
    let caps = [[1.0; 2]; 4];
    let expected = reference_mcb(&items, &caps).expect("packs");
    assert_eq!(expected, [0, 1, 0, 1, 2, 3, 0, 2, 2, 2, 1, 2, 3, 3]);
    let mut scratch = VecPackScratch::new();
    assert!(McbVec::<2>.pack_runs_into(&runs, &caps, &mut scratch));
    assert_eq!(scratch.bin_of(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Mcb8`, through both of its entry points, is the reference at
    /// `D = 2` on unit bins — zero bins and all-zero items included.
    #[test]
    fn mcb8_is_byte_identical_to_the_reference(
        instance in arb_instance2(24),
        slack in 0usize..6,
    ) {
        let (items, runs) = instance;
        let bins = bins_near_the_bound(&items, slack);
        let expected = reference_mcb(&items, &vec![[1.0; 2]; bins]);
        let pack_item = |it: &VecItem<2>| PackItem { id: it.id, cpu: it.req[0], mem: it.req[1] };
        let mut scratch = PackScratch::new();

        let flat: Vec<PackItem> = items.iter().map(pack_item).collect();
        let ok = Mcb8.pack_into(&flat, bins, &mut scratch);
        prop_assert_eq!(ok, expected.is_some(), "pack_into verdict: {:?} bins {}", items, bins);
        if let Some(bin_of) = &expected {
            prop_assert_eq!(scratch.bin_of(), &bin_of[..], "pack_into: {:?} bins {}", items, bins);
        }

        let runs: Vec<(PackItem, u32)> = runs.iter().map(|(it, n)| (pack_item(it), *n)).collect();
        let ok = Mcb8.pack_runs_into(&runs, bins, &mut scratch);
        prop_assert_eq!(ok, expected.is_some(), "runs verdict: {:?} bins {}", items, bins);
        if let Some(bin_of) = &expected {
            prop_assert_eq!(scratch.bin_of(), &bin_of[..], "runs: {:?} bins {}", items, bins);
        }
    }

    /// `McbVec::<3>` is the reference on unit bins.
    #[test]
    fn mcbvec3_is_byte_identical_to_the_reference_on_unit_bins(
        instance in arb_instance3(20),
        slack in 0usize..6,
    ) {
        let (items, runs) = instance;
        let bins = bins_near_the_bound(&items, slack);
        let caps = vec![[1.0; 3]; bins];
        let expected = reference_mcb(&items, &caps);
        let mut scratch = VecPackScratch::new();
        let ok = McbVec::<3>.pack_runs_into(&runs, &caps, &mut scratch);
        prop_assert_eq!(ok, expected.is_some(), "verdict: {:?} bins {}", items, bins);
        if let Some(bin_of) = &expected {
            prop_assert_eq!(scratch.bin_of(), &bin_of[..], "{:?} bins {}", items, bins);
        }
    }

    /// … and on heterogeneous ones, where a bin can be smaller than an
    /// item, the prefix jump cannot assume an empty bin admits the head,
    /// and the uniform-only rejections are off.
    #[test]
    fn mcbvec3_is_byte_identical_to_the_reference_on_heterogeneous_bins(
        instance in arb_instance3(6),
        caps in arb_caps3(10),
    ) {
        let (items, runs) = instance;
        let expected = reference_mcb(&items, &caps);
        let mut scratch = VecPackScratch::new();
        let ok = McbVec::<3>.pack_runs_into(&runs, &caps, &mut scratch);
        prop_assert_eq!(ok, expected.is_some(), "verdict: {:?} caps {:?}", items, caps);
        if let Some(bin_of) = &expected {
            prop_assert_eq!(scratch.bin_of(), &bin_of[..], "{:?} caps {:?}", items, caps);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Long runs through `Mcb8`: most bins are copies, and the result is
    /// still the reference's, within the count guard.
    #[test]
    fn mcb8_replicates_bins_byte_identically_to_the_reference(
        instance in arb_long_runs::<2>(7),
        slack in 0usize..6,
    ) {
        let (items, runs) = instance;
        let bins = bins_near_the_bound(&items, slack);
        let expected = reference_mcb(&items, &vec![[1.0; 2]; bins]);
        let pack_item = |it: &VecItem<2>| PackItem { id: it.id, cpu: it.req[0], mem: it.req[1] };
        let pack_runs: Vec<(PackItem, u32)> =
            runs.iter().map(|(it, n)| (pack_item(it), *n)).collect();
        let mut scratch = PackScratch::new();
        let ok = Mcb8.pack_runs_into(&pack_runs, bins, &mut scratch);
        prop_assert_eq!(ok, expected.is_some(), "verdict: {:?} bins {}", runs, bins);
        if let Some(bin_of) = &expected {
            prop_assert_eq!(scratch.bin_of(), &bin_of[..], "{:?} bins {}", runs, bins);
        }
        prop_assert!(
            scratch.bins_filled() <= fills_allowed(&runs),
            "{} fills: {:?} bins {}", scratch.bins_filled(), runs, bins
        );
    }

    /// The same at `D = 3`; and once one bin differs from the rest the
    /// bins are no longer copies of each other, so nothing may be
    /// replicated.
    #[test]
    fn mcbvec3_replicates_uniform_bins_only(
        instance in arb_long_runs::<3>(6),
        slack in 0usize..6,
        odd_bin in (0usize..1000, 0.5..1.0f64),
    ) {
        let (items, runs) = instance;
        let bins = bins_near_the_bound(&items, slack);
        let mut caps = vec![[1.0; 3]; bins];
        let mut scratch = VecPackScratch::new();

        let expected = reference_mcb(&items, &caps);
        let ok = McbVec::<3>.pack_runs_into(&runs, &caps, &mut scratch);
        prop_assert_eq!(ok, expected.is_some(), "verdict: {:?} bins {}", runs, bins);
        if let Some(bin_of) = &expected {
            prop_assert_eq!(scratch.bin_of(), &bin_of[..], "{:?} bins {}", runs, bins);
        }
        prop_assert!(
            scratch.bins_filled() <= fills_allowed(&runs),
            "{} fills: {:?} bins {}", scratch.bins_filled(), runs, bins
        );

        if bins >= 2 {
            let (at, memory) = odd_bin;
            caps[at % bins][1] = memory;
            let expected = reference_mcb(&items, &caps);
            let ok = McbVec::<3>.pack_runs_into(&runs, &caps, &mut scratch);
            prop_assert_eq!(ok, expected.is_some(), "verdict: {:?} caps {:?}", runs, caps);
            if let Some(bin_of) = &expected {
                prop_assert_eq!(scratch.bin_of(), &bin_of[..], "{:?} caps {:?}", runs, caps);
            }
        }
    }
}
