//! Algorithm shootout: all nine schedulers on one trace via a
//! `Campaign`, ranked by the paper's headline metric (max bounded
//! stretch).
//!
//! ```sh
//! cargo run --release --example shootout [load] [jobs] [seed]
//! ```

use dfrs::{Campaign, ScenarioBuilder, PAPER_SPECS};

fn main() {
    let mut args = std::env::args().skip(1);
    let load: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.7);
    let jobs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let scenarios = vec![ScenarioBuilder::new()
        .label("shootout")
        .lublin(jobs)
        .load(load)
        .seed(seed)
        .penalty(300.0)
        .build()
        .expect("the Lublin model always yields a valid trace")];

    println!("load {load}, {jobs} jobs, seed {seed}, penalty 300 s\n");
    let result = Campaign::new(&scenarios, PAPER_SPECS)
        .expect("the paper's specs are built in")
        .threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
        .run();

    let mut rows: Vec<&dfrs::CellResult> = result.cells[0].iter().collect();
    rows.sort_by(|a, b| a.max_stretch.total_cmp(&b.max_stretch));
    let best = rows[0].max_stretch;
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>6} {:>6}",
        "algorithm", "max stretch", "degradation", "mean stretch", "pmtn", "migr"
    );
    for cell in rows {
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>12.2} {:>6} {:>6}",
            cell.name,
            cell.max_stretch,
            cell.max_stretch / best,
            cell.mean_stretch,
            cell.preemption_count,
            cell.migration_count
        );
    }
}
