//! Replays a real SWF trace (or, without `--swf`, a synthesized
//! HPC2N-like one) through every algorithm — or any `--algo` spec set —
//! and prints the outcome metrics: the quickest way to evaluate a
//! scheduler matrix on a trace that is not part of the paper's families.

use dfrs_experiments::cli::{swf_instances, Opts};
use dfrs_experiments::instances::hpc2n_like_instances;
use dfrs_experiments::report::{f2, TextTable};
use dfrs_scenario::{Campaign, CellResult};
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
    let instances = match &opts.swf {
        Some(path) => swf_instances(path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => {
            eprintln!(
                "no --swf given; synthesizing {} HPC2N-like weeks ({} jobs/week)",
                opts.weeks, opts.hpc2n_jobs_per_week
            );
            hpc2n_like_instances(opts.weeks, opts.hpc2n_jobs_per_week, opts.seed)
        }
    };
    if instances.is_empty() {
        eprintln!("no instances to replay (empty trace or --weeks 0)");
        std::process::exit(2);
    }
    eprintln!(
        "replaying {} instance(s), penalty {}s",
        instances.len(),
        opts.penalty
    );

    let specs = opts.specs_or(&SchedulerRegistry::builtin(), &PAPER_SPECS);
    let result = Campaign::from_specs(&instances, specs)
        .penalty(opts.penalty)
        .threads(opts.threads)
        .on_cell(|u| {
            if u.done == u.total || u.done % 16 == 0 {
                eprintln!("  {}/{} cells done", u.done, u.total);
            }
        })
        .run();
    let mut table = TextTable::new(vec![
        "algorithm",
        "max stretch (avg)",
        "mean stretch (avg)",
        "preempt/job",
        "migr/job",
    ]);
    for a in 0..result.specs.len() {
        let n = result.cells.len() as f64;
        let avg = |f: &dyn Fn(&CellResult) -> f64| {
            result.cells.iter().map(|row| f(&row[a])).sum::<f64>() / n
        };
        table.row(vec![
            result.cells[0][a].name.clone(),
            f2(avg(&|s| s.max_stretch)),
            f2(avg(&|s| s.mean_stretch)),
            f2(avg(&|s| s.preemptions_per_job())),
            f2(avg(&|s| s.migrations_per_job())),
        ]);
    }
    println!("\n{}", table.render());
    if let Some(path) = &opts.csv {
        std::fs::write(path, table.to_csv()).expect("write CSV");
        eprintln!("CSV written to {path}");
    }
}
