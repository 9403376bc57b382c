//! Generic sweep: every algorithm (or `--algo` spec set) × every load ×
//! both penalty settings, emitting one CSV row per
//! (scheduler, load, penalty, instance) with all recorded metrics — the
//! raw material for custom plots beyond the paper's figures.
//!
//! ```sh
//! cargo run --release -p dfrs_experiments --bin sweep -- \
//!     --instances 5 --jobs 300 --loads 0.2,0.5,0.8 --csv results/sweep.csv
//! ```

use dfrs_experiments::cli::Opts;
use dfrs_experiments::instances::scaled_instances;
use dfrs_scenario::Campaign;
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
    let specs = opts.specs_or(&SchedulerRegistry::builtin(), &PAPER_SPECS);
    let mut csv = String::from(
        "scheduler,load,penalty,instance,max_stretch,mean_stretch,makespan,\
         preemptions,migrations,preemption_gb,migration_gb\n",
    );
    for &penalty in &[0.0, dfrs_core::constants::RESCHEDULING_PENALTY_SECS] {
        for &load in &opts.loads {
            let instances = scaled_instances(opts.instances, opts.jobs, &[load], opts.seed);
            let result = Campaign::from_specs(&instances, specs.clone())
                .penalty(penalty)
                .threads(opts.threads)
                .migration_opt(opts.migration)
                .run();
            for (i, row) in result.cells.iter().enumerate() {
                for s in row {
                    csv.push_str(&format!(
                        "{},{load},{penalty},{i},{:.4},{:.4},{:.1},{},{},{:.2},{:.2}\n",
                        s.spec,
                        s.max_stretch,
                        s.mean_stretch,
                        s.makespan,
                        s.preemption_count,
                        s.migration_count,
                        s.preemption_gb,
                        s.migration_gb,
                    ));
                }
            }
            eprintln!("done: load {load}, penalty {penalty}");
        }
    }
    match &opts.csv {
        Some(path) => {
            std::fs::write(path, &csv).expect("write CSV");
            eprintln!("CSV written to {path}");
        }
        None => print!("{csv}"),
    }
}
