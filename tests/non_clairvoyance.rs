//! Non-clairvoyance as a metamorphic relation (paper §IV-B: EASY gets
//! perfect runtime estimates, the DFRS algorithms get nothing).
//!
//! Multiply one job's runtime by 1.5. A scheduler that never reads the
//! runtime oracle (`oracle_runtime()`, `remaining()`) sees the same
//! inputs up to that job's original completion, so every timeline
//! entry strictly before that instant must be byte-identical. The
//! clairvoyant batch baselines, `easy` and `conservative-bf`, plan
//! around runtimes and must violate the relation on a crafted instance
//! where the stretched job loses its backfill slot.
//!
//! The default cells run every other registry key (the `sharded` key
//! as `sharded:dynmcb8:shards=4`) on one small Lublin trace and every
//! key on the crafted instance; the full matrix is `#[ignore]`d:
//!
//! ```sh
//! cargo test --release --test non_clairvoyance -- --ignored
//! ```

use dfrs::core::ids::JobId;
use dfrs::core::{ClusterSpec, JobSpec};
use dfrs::sched::SchedulerRegistry;
use dfrs::sim::{simulate, SimConfig, TimelineEntry};
use dfrs::workload::{Annotator, LublinModel, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runtime multiplier applied to the perturbed job.
const STRETCH: f64 = 1.5;
/// Every `PERTURB_EVERY`-th job (by id) is perturbed, one at a time.
const PERTURB_EVERY: usize = 23;
/// The two clairvoyant keys: they read `oracle_runtime()`.
const CLAIRVOYANT: [&str; 2] = ["easy", "conservative-bf"];

/// Every built-in registry key as a buildable spec.
fn every_spec() -> Vec<String> {
    SchedulerRegistry::builtin()
        .keys()
        .into_iter()
        .map(|k| {
            if k == "sharded" {
                "sharded:dynmcb8:shards=4".to_string()
            } else {
                k
            }
        })
        .collect()
}

fn lublin(seed: u64, n: usize, load: f64) -> Trace {
    let cluster = ClusterSpec::synthetic();
    let model = LublinModel::for_cluster(&cluster);
    let mut rng = SmallRng::seed_from_u64(seed);
    let raws = model.generate(n, &mut rng);
    let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
    Trace::new(cluster, jobs)
        .unwrap()
        .scale_to_load(load)
        .unwrap()
}

/// `job` with its runtime multiplied by [`STRETCH`].
fn stretched(job: &JobSpec) -> JobSpec {
    JobSpec::new(
        job.id,
        job.submit_time,
        job.tasks,
        job.cpu_need,
        job.mem_req,
        job.oracle_runtime() * STRETCH,
    )
    .and_then(|j| j.with_gpu(job.gpu_need))
    .unwrap()
}

/// The run's timeline entries and per-job completions.
fn run(
    spec: &str,
    cluster: ClusterSpec,
    jobs: &[JobSpec],
    penalty: f64,
) -> (Vec<TimelineEntry>, Vec<f64>) {
    let cfg = SimConfig {
        penalty,
        record_timeline: true,
        ..SimConfig::default()
    };
    let mut sched = SchedulerRegistry::builtin().build_str(spec).unwrap();
    let out = simulate(cluster, jobs, sched.as_mut(), &cfg);
    let completions = out.records.iter().map(|r| r.completion).collect();
    (out.timeline.entries, completions)
}

/// The bytes of the entries strictly before `t`: times compared by bit
/// pattern, events through their `Debug` form (which prints every
/// float's shortest round-trip representation).
fn prefix(entries: &[TimelineEntry], t: f64) -> Vec<(u64, JobId, String)> {
    entries
        .iter()
        .take_while(|e| e.time < t)
        .map(|e| (e.time.to_bits(), e.job, format!("{:?}", e.event)))
        .collect()
}

/// Trials (one per perturbed job) and how many violated the relation.
fn violations(
    spec: &str,
    cluster: ClusterSpec,
    jobs: &[JobSpec],
    penalty: f64,
    perturb: &[usize],
) -> (usize, usize) {
    let (base, completions) = run(spec, cluster, jobs, penalty);
    let mut failed = 0;
    for &k in perturb {
        let mut perturbed = jobs.to_vec();
        perturbed[k] = stretched(&jobs[k]);
        let (entries, _) = run(spec, cluster, &perturbed, penalty);
        let cut = completions[k];
        if prefix(&base, cut) != prefix(&entries, cut) {
            failed += 1;
        }
    }
    (perturb.len(), failed)
}

/// Trials and violations per spec over `seeds` Lublin traces of `n`
/// jobs at load 0.8, penalties 0 and 300, perturbing every 23rd job.
fn matrix(specs: &[String], seeds: &[u64], n: usize) -> Vec<(String, usize, usize)> {
    let traces: Vec<Trace> = seeds.iter().map(|&seed| lublin(seed, n, 0.8)).collect();
    let mut rows = Vec::new();
    for spec in specs {
        let (mut trials, mut failed) = (0, 0);
        for trace in &traces {
            let perturb: Vec<usize> = (0..n).step_by(PERTURB_EVERY).collect();
            for penalty in [0.0, 300.0] {
                let (t, f) = violations(spec, trace.cluster, trace.jobs(), penalty, &perturb);
                trials += t;
                failed += f;
            }
        }
        rows.push((spec.clone(), trials, failed));
    }
    rows
}

#[test]
fn non_clairvoyant_schedulers_ignore_runtimes() {
    let specs: Vec<String> = every_spec()
        .into_iter()
        .filter(|s| !CLAIRVOYANT.contains(&s.as_str()))
        .collect();
    assert_eq!(specs.len(), 11, "{specs:?}");
    // Seed 4: its first 90 jobs build a FIFO queue at load 0.8, so a
    // batch queue ordered by runtime shows here (6 of 8 trials); the
    // first 90 jobs of seeds 1-3 barely queue and would hide it.
    for (spec, trials, failed) in matrix(&specs, &[4], 90) {
        assert!(trials > 0, "{spec}");
        assert_eq!(
            failed, 0,
            "{spec}: {failed}/{trials} trials read the runtime oracle"
        );
    }
}

#[test]
fn clairvoyant_backfilling_reads_runtimes() {
    // The `easy_backfills_short_jobs` shape: job 0 holds 2 of 4 nodes
    // until t=100, job 1 (the head) needs all 4, and job 2 (90 s, one
    // node) backfills at t=2 because it ends at 92, before the head's
    // reservation. Stretched to 135 s it would end at 137 and delay
    // the reservation (no node is spare at t=100), so the backfill at
    // t=2 vanishes — before job 2's original completion at t=92.
    let cluster = ClusterSpec::new(4, 4, 8.0).unwrap();
    let job = |id: u32, submit: f64, tasks: u32, rt: f64| {
        JobSpec::new(JobId(id), submit, tasks, 1.0, 0.2, rt).unwrap()
    };
    let jobs = [
        job(0, 0.0, 2, 100.0),
        job(1, 1.0, 4, 50.0),
        job(2, 2.0, 1, 90.0),
    ];
    assert_eq!(stretched(&jobs[2]).oracle_runtime(), 135.0);
    for spec in every_spec() {
        let (trials, failed) = violations(&spec, cluster, &jobs, 0.0, &[2]);
        let expect = if CLAIRVOYANT.contains(&spec.as_str()) {
            trials
        } else {
            0
        };
        assert_eq!(failed, expect, "{spec}");
    }
}

/// The full matrix: 3 seeds × 300 jobs × penalties 0 / 300, 84 trials
/// per spec. Every non-clairvoyant key holds the relation in all of
/// them; the violation counts of the two clairvoyant keys are pinned.
#[test]
#[ignore = "full matrix; run with --ignored (release recommended)"]
fn non_clairvoyance_full_matrix() {
    for (spec, trials, failed) in matrix(&every_spec(), &[1, 2, 3], 300) {
        assert_eq!(trials, 84, "{spec}");
        let expect = match spec.as_str() {
            "easy" => 4,
            "conservative-bf" => 14,
            _ => 0,
        };
        assert_eq!(
            failed, expect,
            "{spec}: {failed}/{trials} trials violated the relation"
        );
    }
}
