//! Qualitative reproduction checks for the paper's Section V claims, at
//! laptop scale. Each test averages a few seeds so heuristic noise on
//! single instances doesn't flake; the quantitative tables live in
//! EXPERIMENTS.md.
//!
//! The multi-seed suites simulate hundreds of (instance × algorithm)
//! runs and dominate the default suite's wall clock, so they are
//! `#[ignore]`d by default. Run them (release mode recommended) with:
//!
//! ```sh
//! cargo test --release --test paper_claims -- --ignored
//! ```
//!
//! The non-ignored [`paper_claims_smoke`] test keeps a fast end-to-end
//! pass over the same code path in the default suite.

use dfrs::experiments::instances::{hpc2n_like_instances, scaled_instances};
use dfrs::scenario::degradation_row;
use dfrs::{Campaign, CampaignResult, Scenario, PAPER_SPECS, PREEMPTING_SPECS};

const ALGOS: [&str; 9] = PAPER_SPECS;

fn idx(key: &str) -> usize {
    ALGOS.iter().position(|x| *x == key).unwrap()
}

fn run_matrix(
    instances: &[Scenario],
    specs: &[&str],
    penalty: f64,
    threads: usize,
) -> CampaignResult {
    Campaign::new(instances, specs)
        .expect("built-in specs")
        .penalty(penalty)
        .threads(threads)
        .run()
}

/// Average degradation per algorithm over instances.
fn avg_degradation(result: &CampaignResult) -> Vec<f64> {
    let mut sums = vec![0.0; result.specs.len()];
    for row in &result.cells {
        for (a, d) in degradation_row(row).into_iter().enumerate() {
            sums[a] += d;
        }
    }
    sums.iter().map(|s| s / result.cells.len() as f64).collect()
}

/// Fast non-ignored pass over the claims pipeline: one small matrix,
/// asserting only the robust headline ordering (batch ≫ preempting DFRS
/// without penalty). Everything statistical lives in the ignored suites.
#[test]
fn paper_claims_smoke() {
    let instances = scaled_instances(2, 40, &[0.7], 100);
    let results = run_matrix(&instances, &ALGOS, 0.0, 2);
    let avg = avg_degradation(&results);
    assert_eq!(results.cells.len(), instances.len());
    assert!(
        avg[idx("dynmcb8")] <= avg[idx("fcfs")],
        "DynMCB8 ({:.2}) must not trail FCFS ({:.2}) without a penalty",
        avg[idx("dynmcb8")],
        avg[idx("fcfs")]
    );
    assert!(avg.iter().all(|&d| d >= 1.0));
}

#[test]
#[ignore = "multi-seed statistical suite; run with: cargo test --release --test paper_claims -- --ignored"]
fn figure1a_ordering_no_penalty() {
    // Claim (Fig. 1(a)): without a penalty, DYNMCB8 is (near-)best;
    // FCFS, EASY and GREEDY are orders of magnitude worse; the greedy
    // preempting algorithms improve hugely over batch.
    let instances = scaled_instances(4, 80, &[0.5, 0.8], 100);
    let results = run_matrix(&instances, &ALGOS, 0.0, 1);
    let avg = avg_degradation(&results);

    assert!(
        avg[idx("dynmcb8")] < 2.0,
        "DynMCB8 avg {:.2}",
        avg[idx("dynmcb8")]
    );
    for batch in ["fcfs", "easy"] {
        assert!(
            avg[idx(batch)] > 10.0 * avg[idx("greedy-pmtn")],
            "{batch} ({:.1}) should be ≫ Greedy-pmtn ({:.1})",
            avg[idx(batch)],
            avg[idx("greedy-pmtn")]
        );
    }
    assert!(
        avg[idx("greedy")] > avg[idx("greedy-pmtn")],
        "plain GREEDY must trail its preempting variants"
    );
    assert!(
        avg[idx("fcfs")] > avg[idx("easy")],
        "backfilling beats FIFO on average"
    );
}

#[test]
#[ignore = "multi-seed statistical suite; run with: cargo test --release --test paper_claims -- --ignored"]
fn figure1b_penalty_dethrones_event_driven_dynmcb8() {
    // Claim (Fig. 1(b)): with the 5-minute penalty, DYNMCB8 is no longer
    // best — a periodic variant (or greedy-pmtn at low load) wins — but
    // DYNMCB8 still beats the batch schedulers.
    let instances = scaled_instances(4, 80, &[0.7], 200);
    let results = run_matrix(&instances, &ALGOS, 300.0, 1);
    let avg = avg_degradation(&results);

    let periodic_best = [
        "dynmcb8-per",
        "dynmcb8-asap-per",
        "dynmcb8-stretch-per",
        "greedy-pmtn",
        "greedy-pmtn-migr",
    ]
    .into_iter()
    .map(|a| avg[idx(a)])
    .fold(f64::INFINITY, f64::min);
    assert!(
        periodic_best <= avg[idx("dynmcb8")],
        "with a penalty something must beat aggressive DynMCB8: best {periodic_best:.2} vs {:.2}",
        avg[idx("dynmcb8")]
    );
    assert!(
        avg[idx("dynmcb8")] < avg[idx("fcfs")],
        "DynMCB8 with penalty still beats FCFS"
    );
}

#[test]
#[ignore = "multi-seed statistical suite; run with: cargo test --release --test paper_claims -- --ignored"]
fn stretch_per_does_not_beat_yield_per() {
    // Claim: optimizing the estimated stretch directly is NOT better
    // than optimizing the yield (Section V: "DYNMCB8-STRETCH-PER always
    // has average results worse than DYNMCB8-PER" — we allow a tie band
    // at this small scale).
    let instances = scaled_instances(5, 80, &[0.6, 0.9], 300);
    let results = run_matrix(&instances, &ALGOS, 300.0, 1);
    let avg = avg_degradation(&results);
    assert!(
        avg[idx("dynmcb8-stretch-per")] >= avg[idx("dynmcb8-per")] * 0.8,
        "stretch-per ({:.2}) unexpectedly dominates yield-per ({:.2})",
        avg[idx("dynmcb8-stretch-per")],
        avg[idx("dynmcb8-per")]
    );
}

#[test]
#[ignore = "multi-seed statistical suite; run with: cargo test --release --test paper_claims -- --ignored"]
fn hpc2n_short_serial_mix_helps_greedy() {
    // Claim (Table I discussion): the HPC2N trace's many short serial
    // jobs shrink the greedy algorithms' disadvantage dramatically —
    // Greedy-pmtn's average degradation drops to within a few × of the
    // best (1.72 in the paper vs 9.45 on scaled synthetic).
    let weeks = hpc2n_like_instances(4, 250.0, 9);
    let results = run_matrix(&weeks, &ALGOS, 300.0, 1);
    let avg = avg_degradation(&results);
    assert!(
        avg[idx("greedy-pmtn")] < 8.0,
        "Greedy-pmtn should be near-best on short-serial workloads, got {:.2}",
        avg[idx("greedy-pmtn")]
    );
    // And batch is still far behind.
    assert!(avg[idx("fcfs")] > avg[idx("greedy-pmtn")]);
}

#[test]
#[ignore = "multi-seed statistical suite; run with: cargo test --release --test paper_claims -- --ignored"]
fn table2_cost_ordering() {
    // Claim (Table II): DYNMCB8 has the highest migration activity;
    // GREEDY-PMTN the lowest (zero migrations by construction);
    // periodic variants sit in between; bandwidths stay technologically
    // feasible (well under ~10 GB/s aggregate).
    let instances = scaled_instances(3, 80, &[0.8], 400);
    let algos = PREEMPTING_SPECS;
    let results = run_matrix(&instances, &algos, 300.0, 1);
    let pos = |key: &str| algos.iter().position(|x| *x == key).unwrap();
    let mut migr_per_job = vec![0.0; algos.len()];
    for row in &results.cells {
        for (i, s) in row.iter().enumerate() {
            migr_per_job[i] += s.migrations_per_job() / results.cells.len() as f64;
        }
    }
    assert_eq!(migr_per_job[pos("greedy-pmtn")], 0.0);
    assert!(
        migr_per_job[pos("dynmcb8")] >= migr_per_job[pos("dynmcb8-per")],
        "event-driven repacking must migrate at least as much as periodic"
    );
    for row in &results.cells {
        for s in row {
            assert!(
                s.preemption_bandwidth_gbs() + s.migration_bandwidth_gbs() < 10.0,
                "{}: implausible bandwidth",
                s.name
            );
        }
    }
}
