//! Properties of the MCB packer at `D = 3` and of the DRF search that
//! need no reference: no bin oversubscribed, per-bin capacities
//! respected, the returned share maximal within the search tolerance.
//! (Byte-identity of the kernel against a textbook MCB, `D = 2`
//! included, is `mcb_reference.rs`.)

use dfrs_core::approx::EPS;
use dfrs_core::ids::JobId;
use dfrs_packing::{
    drf_feasible_at_share, max_min_dominant_share, DrfJob, DrfSearchScratch, McbVec, VecItem,
    VecPackScratch,
};
use proptest::prelude::*;

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

fn arb_items3(max_items: usize) -> impl Strategy<Value = Vec<VecItem<3>>> {
    prop::collection::vec((0.0f64..=1.0, 0.001f64..=1.0, 0.0f64..=1.0), 0..max_items).prop_map(
        |reqs| {
            reqs.into_iter()
                .enumerate()
                .map(|(i, (cpu, mem, gpu))| VecItem {
                    id: i as u32,
                    req: [cpu, mem, gpu],
                })
                .collect()
        },
    )
}

fn arb_drf_jobs(max_jobs: usize) -> impl Strategy<Value = Vec<DrfJob>> {
    prop::collection::vec(
        (1u32..5, 0.05f64..=1.0, 0.05f64..=0.8, 0.0f64..=1.0),
        1..max_jobs,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (tasks, cpu, mem, gpu))| DrfJob {
                job: JobId(i as u32),
                tasks,
                cpu_need: cpu,
                mem_req: mem,
                gpu_need: gpu,
            })
            .collect()
    })
}

proptest! {
    /// A successful pack never oversubscribes any bin in any of the
    /// three dimensions.
    #[test]
    fn mcbvec_never_oversubscribes_any_dimension(
        items in arb_items3(40),
        bins in 1usize..12,
    ) {
        let caps = vec![[1.0f64; 3]; bins];
        let runs: Vec<(VecItem<3>, u32)> = items.iter().map(|&it| (it, 1u32)).collect();
        let mut scratch = VecPackScratch::new();
        if McbVec::<3>.pack_runs_into(&runs, &caps, &mut scratch) {
            prop_assert!(
                assignment_is_valid(&items, &caps, scratch.bin_of()),
                "oversubscribed: items {:?} bins {}", items, bins
            );
        }
    }

    /// Heterogeneous capacity vectors are respected per bin.
    #[test]
    fn mcbvec_respects_heterogeneous_caps(
        items in arb_items3(24),
        caps in prop::collection::vec(
            (0.5f64..=1.0, 0.5f64..=1.0, 0.0f64..=1.0), 1..8
        ),
    ) {
        let caps: Vec<[f64; 3]> = caps.into_iter().map(|(c, m, g)| [c, m, g]).collect();
        let runs: Vec<(VecItem<3>, u32)> = items.iter().map(|&it| (it, 1u32)).collect();
        let mut scratch = VecPackScratch::new();
        if McbVec::<3>.pack_runs_into(&runs, &caps, &mut scratch) {
            prop_assert!(
                assignment_is_valid(&items, &caps, scratch.bin_of()),
                "cap overflow: items {:?} caps {:?}", items, caps
            );
        }
    }

    /// The DRF search returns a valid allocation whose minimum dominant
    /// share is maximal within the binary-search tolerance: every yield
    /// respects the floor and cap, the placement never oversubscribes,
    /// and (unless everyone already runs at full speed) a share target
    /// two tolerances higher is infeasible for the same packer.
    #[test]
    fn drf_min_dominant_share_is_maximal(
        jobs in arb_drf_jobs(8),
        nodes in 1usize..8,
    ) {
        let accuracy = 0.01;
        let min_yield = 0.01;
        let mut scratch = DrfSearchScratch::new();
        let Some(alloc) =
            max_min_dominant_share(&jobs, nodes, accuracy, min_yield, &mut scratch)
        else {
            // Infeasible even at the floor: the floor profile itself
            // must fail to pack.
            prop_assert!(!drf_feasible_at_share(&jobs, nodes, 0.0, min_yield));
            return Ok(());
        };
        // Yields in range, per-job share consistent with the minimum.
        let mut expanded: Vec<VecItem<3>> = Vec::new();
        let mut id = 0u32;
        for (i, (j, (jid, y, _))) in jobs.iter().zip(alloc.allocations.iter()).enumerate() {
            prop_assert_eq!(j.job, *jid);
            prop_assert_eq!(alloc.placement(i).len(), j.tasks as usize);
            prop_assert!(*y >= min_yield - 1e-12 && *y <= 1.0 + 1e-12, "yield {}", y);
            prop_assert!(
                j.dominant_need() * *y >= alloc.min_dominant_share - 1e-12,
                "job below the reported minimum share"
            );
            for _ in 0..j.tasks {
                expanded.push(VecItem {
                    id,
                    req: [
                        (j.cpu_need * *y).min(1.0),
                        j.mem_req,
                        (j.gpu_need * *y).min(1.0),
                    ],
                });
                id += 1;
            }
        }
        let caps = vec![[1.0f64; 3]; nodes];
        prop_assert!(assignment_is_valid(&expanded, &caps, &alloc.bins));
        // Maximality within tolerance, via the bracket certificate: the
        // returned target packs, the terminal infeasible target (at
        // most `accuracy` above it) does not. A share level above a
        // full-speed job's demand cannot change that job's allocation,
        // so maximality is stated on the bisection bracket rather than
        // on `min_dominant_share` itself.
        prop_assert!(drf_feasible_at_share(&jobs, nodes, alloc.target_share, min_yield));
        if let Some(hi) = alloc.infeasible_share {
            prop_assert!(
                !drf_feasible_at_share(&jobs, nodes, hi, min_yield),
                "bracket end still packs: hi {} jobs {:?} nodes {}", hi, jobs, nodes
            );
            prop_assert!(hi - alloc.target_share <= accuracy + 1e-12);
        } else {
            // Fast path: everyone at full speed.
            prop_assert!(alloc.allocations.iter().all(|(_, y, _)| *y == 1.0));
        }
    }
}
