//! Regenerates Table I: degradation-factor statistics for scaled
//! synthetic, unscaled synthetic, and HPC2N(-like) workloads, all at the
//! 5-minute rescheduling penalty.
//!
//! To use the real HPC2N trace from the Parallel Workloads Archive, pass
//! `--swf /path/to/HPC2N-2002-2.2-cln.swf`.

use dfrs_experiments::cli::{swf_instances, Opts};
use dfrs_experiments::table1::{self, Table1Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let swf = match opts.swf.as_deref().map(swf_instances).transpose() {
        Ok(swf) => swf,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "Table I: {} instances × {} jobs, {} loads, {} weeks ({}), penalty {}s, {} threads",
        opts.instances,
        opts.jobs,
        opts.loads.len(),
        opts.weeks,
        if swf.is_some() {
            "real SWF"
        } else {
            "HPC2N-like generator"
        },
        opts.penalty,
        opts.threads
    );
    let cfg = Table1Config {
        seeds: opts.instances,
        jobs: opts.jobs,
        loads: opts.loads.clone(),
        penalty: opts.penalty,
        seed0: opts.seed,
        threads: opts.threads,
        weeks: opts.weeks,
        hpc2n_jobs_per_week: opts.hpc2n_jobs_per_week,
        swf,
    };
    let data = table1::run(&cfg);
    let table = data.table();
    println!(
        "\nTable I — degradation factors (avg / std / max), penalty {}s",
        opts.penalty
    );
    println!("{}", table.render());
    if let Some(path) = &opts.csv {
        std::fs::write(path, table.to_csv()).expect("write CSV");
        eprintln!("CSV written to {path}");
    }
}
