//! The `drf` study binary: max-min yield vs max-min dominant share on
//! GPU-annotated workloads (see `dfrs_experiments::drf`).
//!
//! ```sh
//! cargo run --release -p dfrs_experiments --bin drf -- \
//!     --instances 3 --jobs 200 --gpu-frac 0.4
//! ```
//!
//! Runs the yield family (`dynmcb8`, `dynmcb8-per`) against the DRF
//! family (`dynmcb8-drf`, `dynmcb8-drf-per`) — or an `--algo` subset —
//! on the same scaled Lublin workload twice, CPU-only vs GPU-annotated,
//! with full validation enabled, and prints the per-spec degradation
//! table. Deterministic given `--seed`.

use dfrs_experiments::cli::Opts;
use dfrs_experiments::{availability, drf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse_drf(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let load = availability::study_load(&opts);
    if opts.loads.len() > 1 && opts.loads.as_slice() != dfrs_core::constants::SCALED_LOADS {
        eprintln!(
            "warning: the drf study runs one load point; using {load} and ignoring the other \
             --loads values"
        );
    }
    eprintln!(
        "drf study: {} instance(s) x {} jobs at load {load}, gpu-frac {}",
        opts.instances, opts.jobs, opts.gpu_frac
    );
    let study = drf::run(&opts);
    let table = study.table();
    println!("{}", table.render());
    println!(
        "(gpu-frac {}; 'degr' = GPU-annotated max stretch / CPU-only max stretch)",
        study.gpu_frac
    );
    if let Some(path) = &opts.csv {
        std::fs::write(path, table.to_csv()).expect("write CSV");
        eprintln!("CSV written to {path}");
    }
}
