//! Campaign-level guarantees: the parallel runner is a pure
//! parallelization — its result matrix is byte-equal to a
//! single-threaded run — and the observer stream covers every cell
//! exactly once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dfrs::{Campaign, Scenario, ScenarioBuilder, SchedulerSpec};

fn scenarios() -> Vec<Scenario> {
    (0..2)
        .map(|s| {
            ScenarioBuilder::new()
                .lublin(20)
                .load(0.4)
                .seed(5 + s)
                .build()
                .unwrap()
        })
        .collect()
}

/// Replaces the old `parallel_matches_serial` runner test, now at the
/// byte level over the whole matrix.
#[test]
fn parallel_results_byte_equal_to_single_threaded() {
    let scens = scenarios();
    let specs = ["fcfs", "greedy-pmtn", "dynmcb8-per:T=300"];
    let serial = Campaign::new(&scens, specs).unwrap().penalty(300.0).run();
    let parallel = Campaign::new(&scens, specs)
        .unwrap()
        .penalty(300.0)
        .threads(8)
        .run();
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "thread count changed the deterministic result matrix"
    );
    // And a spec built as a typed `SchedulerSpec` really is the parsed
    // string's scheduler inside the matrix, too.
    let typed = SchedulerSpec::new("dynmcb8-per").with("t", 300);
    let via_typed = Campaign::from_specs(&scens, vec![typed])
        .penalty(300.0)
        .run();
    for (row, full) in via_typed.cells.iter().zip(serial.cells.iter()) {
        assert_eq!(row[0].fingerprint(), full[2].fingerprint());
    }
}

#[test]
fn observer_sees_each_cell_once_with_monotone_progress() {
    let scens = scenarios();
    let counts = Mutex::new(vec![0usize; 2 * 3]);
    let max_done = AtomicUsize::new(0);
    Campaign::new(&scens, ["fcfs", "easy", "greedy-pmtn"])
        .unwrap()
        .threads(4)
        .on_cell(|u| {
            counts.lock().unwrap()[u.scenario * 3 + u.spec] += 1;
            // Observer calls are serialized, so `done` must strictly grow.
            let prev = max_done.swap(u.done, Ordering::Relaxed);
            assert!(u.done > prev, "done went {prev} -> {}", u.done);
            assert_eq!(u.total, 6);
        })
        .run();
    assert!(counts.lock().unwrap().iter().all(|&c| c == 1));
}

#[test]
fn campaign_config_override_beats_scenario_config() {
    let free = vec![ScenarioBuilder::new()
        .lublin(25)
        .load(0.8)
        .seed(3)
        .build()
        .unwrap()];
    // Scenario config says no penalty; the campaign overrides it on.
    let with_pen = Campaign::new(&free, ["dynmcb8"])
        .unwrap()
        .penalty(300.0)
        .run();
    let without = Campaign::new(&free, ["dynmcb8"]).unwrap().run();
    assert!(with_pen.cells[0][0].max_stretch >= without.cells[0][0].max_stretch);
}
