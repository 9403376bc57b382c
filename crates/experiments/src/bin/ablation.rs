//! Runs the three design-choice ablations (packer, priority exponent,
//! scheduling period) and prints one table each. See DESIGN.md
//! "Extensions and ablations".

use dfrs_experiments::ablation;
use dfrs_experiments::cli::Opts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let load = opts.loads.iter().copied().fold(0.0, f64::max).max(0.7);
    eprintln!(
        "Ablations: {} instances × {} jobs at load {load}, penalty 300 s",
        opts.instances, opts.jobs
    );
    let mut csv = String::new();
    for data in [
        ablation::packer_ablation(opts.instances, opts.jobs, load, opts.seed, opts.threads),
        ablation::priority_ablation(opts.instances, opts.jobs, load, opts.seed, opts.threads),
        ablation::period_ablation(opts.instances, opts.jobs, load, opts.seed, opts.threads),
    ] {
        println!("\n{}\n{}", data.title, data.table().render());
        csv.push_str(&format!("# {}\n{}", data.title, data.table().to_csv()));
    }
    if let Some(path) = &opts.csv {
        std::fs::write(path, csv).expect("write CSV");
        eprintln!("CSV written to {path}");
    }
}
