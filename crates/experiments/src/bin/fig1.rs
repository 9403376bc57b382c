//! Regenerates Figure 1: average stretch-degradation factor vs load.
//!
//! `--penalty 0` reproduces Figure 1(a), `--penalty 300` (default)
//! Figure 1(b). Paper scale: `--paper-scale --penalty 0`. Any registry
//! spec set can replace the paper's nine via `--algo`.

use dfrs_experiments::cli::Opts;
use dfrs_experiments::fig1;
use dfrs_sched::{SchedulerRegistry, PAPER_SPECS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let which = if opts.penalty > 0.0 { "1(b)" } else { "1(a)" };
    eprintln!(
        "Figure {which}: {} instances × {} jobs × {} loads, penalty {}s, {} threads",
        opts.instances,
        opts.jobs,
        opts.loads.len(),
        opts.penalty,
        opts.threads
    );
    let data = fig1::run_specs(
        opts.instances,
        opts.jobs,
        &opts.loads,
        opts.specs_or(&SchedulerRegistry::builtin(), &PAPER_SPECS),
        opts.penalty,
        opts.seed,
        opts.threads,
    );
    let table = data.table();
    println!(
        "\nFigure {which} — average degradation factor vs load (penalty {}s)",
        opts.penalty
    );
    println!("{}", table.render());
    if let Some(path) = &opts.csv {
        std::fs::write(path, table.to_csv()).expect("write CSV");
        eprintln!("CSV written to {path}");
    }
}
