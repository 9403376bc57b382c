//! Batch baselines must emulate real batch systems: whole nodes,
//! exclusive access, no sharing — verified by replaying the allocation
//! timeline against a per-node occupancy model.

use dfrs_core::ids::NodeId;
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_sched::SchedulerRegistry;
use dfrs_sim::{simulate, AllocEvent, Scheduler, SimConfig};
use dfrs_workload::{Annotator, LublinModel, Trace};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn workload(seed: u64, n: usize) -> (ClusterSpec, Vec<JobSpec>) {
    let cluster = ClusterSpec::new(16, 4, 8.0).unwrap();
    let model = LublinModel::for_cluster(&cluster);
    let mut rng = SmallRng::seed_from_u64(seed);
    let raws = model.generate(n, &mut rng);
    let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
    let trace = Trace::new(cluster, jobs)
        .unwrap()
        .scale_to_load(0.8)
        .unwrap();
    (cluster, trace.jobs().to_vec())
}

/// A fresh scheduler built from a registry spec.
fn build(spec: &str) -> Box<dyn Scheduler> {
    SchedulerRegistry::builtin().build_str(spec).unwrap()
}

/// Replay the timeline of `spec`'s run; assert at most one job occupies
/// a node at any time and that batch jobs are never adjusted, paused,
/// or migrated.
fn assert_exclusive(spec: &str, cluster: ClusterSpec, jobs: &[JobSpec]) {
    let cfg = SimConfig {
        record_timeline: true,
        validate: true,
        ..SimConfig::default()
    };
    let out = simulate(cluster, jobs, build(spec).as_mut(), &cfg);
    let mut owner: Vec<Option<dfrs_core::JobId>> = vec![None; cluster.nodes as usize];
    let mut nodes_of: std::collections::HashMap<dfrs_core::JobId, Vec<NodeId>> =
        std::collections::HashMap::new();
    for e in &out.timeline.entries {
        match &e.event {
            AllocEvent::Start { nodes, yld } => {
                assert_eq!(*yld, 1.0, "batch jobs run at full speed");
                for n in nodes {
                    assert_eq!(
                        owner[n.index()],
                        None,
                        "{} given occupied node {n} at t={}",
                        e.job,
                        e.time
                    );
                    owner[n.index()] = Some(e.job);
                }
                // Whole distinct nodes.
                let mut uniq = nodes.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(
                    uniq.len(),
                    nodes.len(),
                    "{} shares nodes with itself",
                    e.job
                );
                nodes_of.insert(e.job, nodes.clone());
            }
            AllocEvent::Complete => {
                for n in nodes_of.remove(&e.job).expect("completion without start") {
                    assert_eq!(owner[n.index()], Some(e.job));
                    owner[n.index()] = None;
                }
            }
            other => panic!("batch scheduler produced {other:?} for {}", e.job),
        }
    }
    assert!(nodes_of.is_empty(), "jobs left running at the end");
}

#[test]
fn fcfs_is_exclusive() {
    let (cluster, jobs) = workload(1, 60);
    assert_exclusive("fcfs", cluster, &jobs);
}

#[test]
fn easy_is_exclusive() {
    let (cluster, jobs) = workload(2, 60);
    assert_exclusive("easy", cluster, &jobs);
}

#[test]
fn conservative_bf_is_exclusive() {
    let (cluster, jobs) = workload(3, 60);
    assert_exclusive("conservative-bf", cluster, &jobs);
}

#[test]
fn conservative_never_beats_easy_by_definition_of_aggressiveness() {
    // EASY's aggressive backfilling starts at least as many jobs early;
    // over several seeds its mean stretch should not be systematically
    // worse than the conservative variant's.
    let mut easy_wins = 0;
    let total = 6;
    for seed in 0..total {
        let (cluster, jobs) = workload(100 + seed, 50);
        let e = simulate(
            cluster,
            &jobs,
            build("easy").as_mut(),
            &SimConfig::default(),
        );
        let c = simulate(
            cluster,
            &jobs,
            build("conservative-bf").as_mut(),
            &SimConfig::default(),
        );
        if e.mean_stretch <= c.mean_stretch + 1e-9 {
            easy_wins += 1;
        }
    }
    assert!(easy_wins * 2 >= total, "EASY won only {easy_wins}/{total}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exclusivity holds for arbitrary seeds on all three batch policies.
    #[test]
    fn batch_exclusivity_random(seed in 0u64..5_000) {
        let (cluster, jobs) = workload(seed, 30);
        assert_exclusive("fcfs", cluster, &jobs);
        assert_exclusive("easy", cluster, &jobs);
        assert_exclusive("conservative-bf", cluster, &jobs);
    }
}
