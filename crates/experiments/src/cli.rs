//! Minimal hand-rolled CLI parsing shared by the experiment binaries
//! (keeps the dependency set to the approved list — no clap).

use dfrs_scenario::Scenario;
use dfrs_sched::{SchedulerRegistry, SchedulerSpec};
use dfrs_sim::{FailurePolicy, MigrationMode};

use crate::instances::hpc2n_swf_instances;

/// Parse `--migration` values: `stop-and-copy`, `live` (60 s freeze),
/// or `live:freeze=SECS`.
pub fn parse_migration(s: &str) -> Result<MigrationMode, String> {
    let s = s.trim();
    match s {
        "stop-and-copy" => Ok(MigrationMode::StopAndCopy),
        "live" => Ok(MigrationMode::Live { freeze_secs: 60.0 }),
        _ => match s.strip_prefix("live:freeze=") {
            Some(v) => {
                let freeze: f64 = v
                    .parse()
                    .map_err(|_| format!("bad freeze seconds {v:?} in --migration {s:?}"))?;
                if freeze.is_finite() && freeze >= 0.0 {
                    Ok(MigrationMode::Live {
                        freeze_secs: freeze,
                    })
                } else {
                    Err(format!("freeze seconds must be non-negative, got {v}"))
                }
            }
            None => Err(format!(
                "unknown migration mode {s:?} (expected stop-and-copy | live | live:freeze=SECS)"
            )),
        },
    }
}

/// Parse `--failure-policy` values: `restart` or `preserve`.
pub fn parse_failure_policy(s: &str) -> Result<FailurePolicy, String> {
    match s.trim() {
        "restart" => Ok(FailurePolicy::Restart),
        "preserve" | "pause-preserve" => Ok(FailurePolicy::PausePreserve),
        other => Err(format!(
            "unknown failure policy {other:?} (expected restart | preserve)"
        )),
    }
}

/// Split an `--algo` list at its commas. A fragment that starts with
/// `name=` (no `:` before its first `=`) continues the previous spec's
/// parameter list, so `dynmcb8-per:t=60,packer=ffd,fcfs` is two specs.
fn split_specs(list: &str) -> Vec<String> {
    let mut specs: Vec<String> = Vec::new();
    for frag in list.split(',') {
        let continues = frag
            .split_once('=')
            .is_some_and(|(head, _)| !head.contains(':'));
        match specs.last_mut() {
            Some(spec) if continues => {
                spec.push(',');
                spec.push_str(frag);
            }
            _ => specs.push(frag.to_string()),
        }
    }
    specs
}

/// Options common to all experiment binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Scheduler specs to run (`--algo`), comma-separated; empty means
    /// each binary's default set.
    pub algos: Vec<SchedulerSpec>,
    /// Base traces (seeds) per family.
    pub instances: u64,
    /// Jobs per synthetic trace.
    pub jobs: usize,
    /// Offered loads for the scaled family.
    pub loads: Vec<f64>,
    /// Rescheduling penalty in seconds.
    pub penalty: f64,
    /// RNG base seed.
    pub seed: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// HPC2N-like weeks to synthesize.
    pub weeks: u32,
    /// HPC2N-like weekly job volume (real trace ≈ 1,100).
    pub hpc2n_jobs_per_week: f64,
    /// Path to a real HPC2N SWF file, if available.
    pub swf: Option<String>,
    /// Write CSV next to the printed table.
    pub csv: Option<String>,
    /// Paper-scale preset (100 instances × 1000 jobs × 182 weeks).
    pub paper_scale: bool,
    /// Migration mechanism override (`--migration`); `None` keeps each
    /// scenario's configured mode (stop-and-copy by default).
    pub migration: Option<MigrationMode>,
    /// Mean time between failures per node (`--mtbf`, seconds) for the
    /// availability study.
    pub mtbf_secs: f64,
    /// Mean time to repair per node (`--mttr`, seconds).
    pub mttr_secs: f64,
    /// What a failure does to struck jobs (`--failure-policy`).
    pub failure_policy: FailurePolicy,
    /// Fraction of jobs annotated with a GPU demand (`--gpu-frac`); read
    /// only by the DRF study (`drf`), where `0` leaves every trace
    /// CPU+memory only.
    pub gpu_frac: f64,
    /// Cluster shards (`--shards`); above 1, every selected spec is
    /// wrapped in `sharded:<spec>:shards=N`.
    pub shards: u32,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            algos: Vec::new(),
            instances: 10,
            jobs: 400,
            loads: dfrs_core::constants::SCALED_LOADS.to_vec(),
            penalty: dfrs_core::constants::RESCHEDULING_PENALTY_SECS,
            seed: 1,
            threads: 0,
            weeks: 12,
            hpc2n_jobs_per_week: 300.0,
            swf: None,
            csv: None,
            paper_scale: false,
            migration: None,
            // Availability-study defaults: one failure every ~14 simulated
            // days per node, hour-scale repairs — enough churn to strike a
            // laptop-scale trace several times without drowning it.
            mtbf_secs: 1_209_600.0,
            mttr_secs: 3_600.0,
            failure_policy: FailurePolicy::Restart,
            // DRF-study default: strike a bit under half the jobs with
            // a GPU demand so dominant shares actually differ.
            gpu_frac: 0.4,
            shards: 1,
        }
    }
}

impl Opts {
    /// Parse `--key value` style arguments. Returns an error string
    /// suitable for printing with usage. `--gpu-frac` is an error here:
    /// only [`parse_drf`](Self::parse_drf) reads it.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        Self::parse_as(args, false)
    }

    /// [`parse`](Self::parse) for the `drf` binary, the one reader of
    /// `--gpu-frac`.
    pub fn parse_drf(args: &[String]) -> Result<Opts, String> {
        Self::parse_as(args, true)
    }

    fn parse_as(args: &[String], reads_gpu_frac: bool) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut grab = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("missing value after {arg}"))
            };
            match arg.as_str() {
                "--algo" => {
                    let reg = SchedulerRegistry::builtin();
                    for part in split_specs(&grab()?) {
                        o.algos
                            .push(reg.parse(&part).map_err(|e| format!("--algo: {e}"))?);
                    }
                }
                "--instances" => o.instances = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--jobs" => o.jobs = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--loads" => {
                    o.loads = grab()?
                        .split(',')
                        .map(|s| s.trim().parse::<f64>().map_err(|e| format!("{e}")))
                        .collect::<Result<Vec<f64>, String>>()?;
                }
                "--penalty" => o.penalty = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--seed" => o.seed = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--threads" => o.threads = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--weeks" => o.weeks = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--jobs-per-week" => {
                    o.hpc2n_jobs_per_week = grab()?.parse().map_err(|e| format!("{e}"))?
                }
                "--swf" => o.swf = Some(grab()?),
                "--csv" => o.csv = Some(grab()?),
                "--paper-scale" => o.paper_scale = true,
                "--migration" => o.migration = Some(parse_migration(&grab()?)?),
                "--mtbf" => o.mtbf_secs = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--mttr" => o.mttr_secs = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--failure-policy" => o.failure_policy = parse_failure_policy(&grab()?)?,
                "--gpu-frac" if !reads_gpu_frac => {
                    return Err("--gpu-frac is read only by drf; this binary builds \
                                CPU-only traces"
                        .into())
                }
                "--gpu-frac" => o.gpu_frac = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--shards" => o.shards = grab()?.parse().map_err(|e| format!("{e}"))?,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument {other}\n{USAGE}")),
            }
        }
        if o.paper_scale {
            o.instances = 100;
            o.jobs = 1_000;
            o.weeks = 182;
            o.hpc2n_jobs_per_week = 1_100.0;
        }
        if o.threads == 0 {
            o.threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
        }
        if !o.loads.iter().all(|l| l.is_finite() && *l > 0.0) {
            return Err("loads must be finite and positive".into());
        }
        if !(o.penalty.is_finite() && o.penalty >= 0.0) {
            return Err(format!(
                "penalty must be finite and >= 0, got {}",
                o.penalty
            ));
        }
        if !(o.mtbf_secs > 0.0 && o.mttr_secs > 0.0) {
            return Err("mtbf/mttr must be positive".into());
        }
        if !((0.0..=1.0).contains(&o.gpu_frac) && o.gpu_frac.is_finite()) {
            return Err("gpu-frac must be in [0, 1]".into());
        }
        if o.shards == 0 {
            return Err("shards must be at least 1".into());
        }
        Ok(o)
    }

    /// The specs `--algo` selected, or `default` (usually
    /// [`dfrs_sched::PAPER_SPECS`]) parsed against `registry` when none
    /// were given. With `--shards N` for `N > 1`, every spec is wrapped
    /// in `sharded:<spec>:shards=N` (specs already sharded are left
    /// alone — nesting is rejected by the registry grammar).
    ///
    /// # Panics
    ///
    /// Panics if a `default` spec does not parse against `registry`.
    pub fn specs_or(
        &self,
        registry: &SchedulerRegistry,
        default: &[impl AsRef<str>],
    ) -> Vec<SchedulerSpec> {
        let specs = if self.algos.is_empty() {
            default
                .iter()
                .map(|s| {
                    registry
                        .parse(s.as_ref())
                        .expect("default specs are registered")
                })
                .collect()
        } else {
            self.algos.clone()
        };
        if self.shards <= 1 {
            return specs;
        }
        specs
            .into_iter()
            .map(|s| {
                if s.key() == "sharded" {
                    return s;
                }
                registry
                    .parse(&format!("sharded:{s}:shards={}", self.shards))
                    .expect("wrapping a canonical spec in sharded: cannot fail")
            })
            .collect()
    }
}

/// Read and parse an `--swf` file into its one-week HPC2N instances.
/// A file that cannot be read or parsed is an error message, which the
/// binaries print before exiting with status 2.
pub fn swf_instances(path: &str) -> Result<Vec<Scenario>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--swf {path}: {e}"))?;
    hpc2n_swf_instances(&text).map_err(|e| format!("--swf {path}: {e}"))
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "\
Options:
  --algo S1,S2,..   scheduler specs to run instead of the default set
                    (any registry spec, e.g. dynmcb8-per:t=60,packer=ffd);
                    read by fig1, sweep, replay, availability and drf
  --instances N     base synthetic traces (default 10; paper: 100)
  --jobs N          jobs per synthetic trace (default 400; paper: 1000)
  --loads L1,L2,..  offered loads (default 0.1..0.9)
  --penalty SECS    rescheduling penalty (default 300; figure 1(a): 0)
  --seed N          RNG base seed (default 1)
  --threads N       worker threads (default: all cores)
  --weeks N         HPC2N-like weeks (default 12; paper: 182)
  --jobs-per-week N HPC2N-like weekly volume (default 300; paper: 1100)
  --swf PATH        use a real HPC2N SWF file instead of the generator
  --csv PATH        also write the table as CSV
  --paper-scale     preset: 100 instances, 1000 jobs, 182 weeks
  --migration M     stop-and-copy | live | live:freeze=SECS
                    (migration mechanism; default stop-and-copy)
  --mtbf SECS       per-node mean time between failures (availability)
  --mttr SECS       per-node mean time to repair (availability)
  --failure-policy P restart | preserve (what a failure does to jobs)
  --gpu-frac F      fraction of jobs given a GPU demand; read only by drf
                    (every other binary rejects it)
  --shards N        partition the cluster: wrap every spec in
                    sharded:<spec>:shards=N (default 1 = unsharded);
                    read by the same binaries as --algo";

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_sched::PAPER_SPECS;

    fn parse(words: &[&str]) -> Result<Opts, String> {
        Opts::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_without_args() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.instances, 10);
        assert_eq!(o.loads.len(), 9);
        assert!(o.threads >= 1);
    }

    #[test]
    fn parses_each_option() {
        let o = parse(&[
            "--instances",
            "3",
            "--jobs",
            "50",
            "--loads",
            "0.2,0.4",
            "--penalty",
            "0",
            "--seed",
            "9",
            "--threads",
            "2",
            "--weeks",
            "4",
            "--csv",
            "/tmp/x.csv",
        ])
        .unwrap();
        assert_eq!(o.instances, 3);
        assert_eq!(o.jobs, 50);
        assert_eq!(o.loads, vec![0.2, 0.4]);
        assert_eq!(o.penalty, 0.0);
        assert_eq!(o.seed, 9);
        assert_eq!(o.threads, 2);
        assert_eq!(o.weeks, 4);
        assert_eq!(o.csv.as_deref(), Some("/tmp/x.csv"));
    }

    #[test]
    fn paper_scale_presets() {
        let o = parse(&["--paper-scale"]).unwrap();
        assert_eq!(o.instances, 100);
        assert_eq!(o.jobs, 1000);
        assert_eq!(o.weeks, 182);
    }

    #[test]
    fn rejects_unknown_and_incomplete() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--loads", "0,-1"]).is_err());
    }

    #[test]
    fn rejects_non_finite_or_negative_penalty_and_load() {
        for bad in ["inf", "-inf", "nan", "-300"] {
            let err = parse(&["--penalty", bad]).unwrap_err();
            assert!(err.contains("penalty"), "{bad}: {err}");
        }
        for bad in ["inf", "0.5,inf"] {
            let err = parse(&["--loads", bad]).unwrap_err();
            assert!(err.contains("loads"), "{bad}: {err}");
        }
    }

    #[test]
    fn migration_and_failure_options_parse() {
        let o = parse(&[
            "--migration",
            "live:freeze=45",
            "--mtbf",
            "86400",
            "--mttr",
            "1800",
            "--failure-policy",
            "preserve",
        ])
        .unwrap();
        assert_eq!(o.migration, Some(MigrationMode::Live { freeze_secs: 45.0 }));
        assert_eq!(o.mtbf_secs, 86_400.0);
        assert_eq!(o.mttr_secs, 1_800.0);
        assert_eq!(o.failure_policy, FailurePolicy::PausePreserve);

        assert_eq!(
            parse(&["--migration", "stop-and-copy"]).unwrap().migration,
            Some(MigrationMode::StopAndCopy)
        );
        assert_eq!(
            parse(&["--migration", "live"]).unwrap().migration,
            Some(MigrationMode::Live { freeze_secs: 60.0 })
        );
        assert!(parse(&["--migration", "teleport"]).is_err());
        assert!(parse(&["--migration", "live:freeze=-3"]).is_err());
        assert!(parse(&["--failure-policy", "shrug"]).is_err());
        assert!(parse(&["--mtbf", "0"]).is_err());
    }

    #[test]
    fn gpu_frac_parses_and_is_bounded() {
        let parse = |words: &[&str]| {
            Opts::parse_drf(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse(&["--gpu-frac", "0.25"]).unwrap().gpu_frac, 0.25);
        assert_eq!(parse(&["--gpu-frac", "0"]).unwrap().gpu_frac, 0.0);
        assert!(parse(&["--gpu-frac", "1.5"]).is_err());
        assert!(parse(&["--gpu-frac", "-0.1"]).is_err());
        assert!(parse(&["--gpu-frac", "NaN"]).is_err());
    }

    #[test]
    fn gpu_frac_is_rejected_by_every_binary_but_drf() {
        let err = parse(&["--jobs", "40", "--gpu-frac", "0.3"]).unwrap_err();
        assert!(err.contains("--gpu-frac") && err.contains("drf"), "{err}");
    }

    #[test]
    fn shards_wrap_every_selected_spec() {
        let reg = SchedulerRegistry::builtin();
        let o = parse(&["--algo", "fcfs,dynmcb8-per:T=60", "--shards", "4"]).unwrap();
        let specs = o.specs_or(&reg, &PAPER_SPECS);
        assert_eq!(specs[0].to_string(), "sharded:fcfs:shards=4");
        assert_eq!(specs[1].to_string(), "sharded:dynmcb8-per:t=60:shards=4");

        // Already-sharded specs, the bare `sharded` key included, are
        // not double-wrapped.
        let o = parse(&["--algo", "sharded:fcfs:shards=2,sharded", "--shards", "4"]).unwrap();
        let specs = o.specs_or(&reg, &PAPER_SPECS);
        assert_eq!(specs[0].to_string(), "sharded:fcfs:shards=2");
        assert_eq!(specs[1].to_string(), "sharded");

        // shards=1 leaves everything bare; 0 is rejected.
        let o = parse(&["--algo", "fcfs", "--shards", "1"]).unwrap();
        assert_eq!(o.specs_or(&reg, &PAPER_SPECS)[0].to_string(), "fcfs");
        assert!(parse(&["--shards", "0"]).is_err());
    }

    #[test]
    fn algo_list_keeps_multi_parameter_specs_whole() {
        let o = parse(&[
            "--algo",
            "fcfs,dynmcb8-asap-per:t=300,packer=bfd,dynmcb8-per:packer=ffd,t=60,DynMCB8-PER:T=600",
        ])
        .unwrap();
        let specs: Vec<String> = o.algos.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            specs,
            [
                "fcfs",
                "dynmcb8-asap-per:packer=bfd,t=300",
                "dynmcb8-per:packer=ffd,t=60",
                "dynmcb8-per:t=600",
            ]
        );
        let o = parse(&["--algo", "sharded:dynmcb8-per:packer=ffd,t=300:shards=4"]).unwrap();
        assert_eq!(
            o.algos[0].to_string(),
            "sharded:dynmcb8-per:packer=ffd,t=300:shards=4"
        );
    }

    #[test]
    fn swf_instances_reports_missing_and_malformed_files() {
        let missing = std::env::temp_dir().join("dfrs-cli-test-no-such-file.swf");
        let err = swf_instances(missing.to_str().unwrap()).unwrap_err();
        assert!(err.starts_with("--swf "), "{err}");

        let malformed = std::env::temp_dir().join(format!(
            "dfrs-cli-test-malformed-{}.swf",
            std::process::id()
        ));
        std::fs::write(&malformed, "; Version: 2.2\n1 0 5 100\n").unwrap();
        let err = swf_instances(malformed.to_str().unwrap()).unwrap_err();
        std::fs::remove_file(&malformed).unwrap();
        assert!(err.contains("expected 18 fields"), "{err}");
    }

    #[test]
    fn algo_specs_parse_and_default() {
        let reg = SchedulerRegistry::builtin();
        let o = parse(&["--algo", "fcfs,dynmcb8-per:T=60"]).unwrap();
        assert_eq!(o.algos.len(), 2);
        assert_eq!(o.algos[1].to_string(), "dynmcb8-per:t=60");
        assert_eq!(o.specs_or(&reg, &PAPER_SPECS), o.algos);

        let d = parse(&[]).unwrap();
        assert_eq!(d.specs_or(&reg, &PAPER_SPECS).len(), 9);

        let err = parse(&["--algo", "dynmbc8"]).unwrap_err();
        assert!(err.contains("known:"), "{err}");
    }
}
