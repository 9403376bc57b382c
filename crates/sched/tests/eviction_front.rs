//! Differential tests of the shared eviction front (`dfrs_sched`'s
//! private `evict` module) against the loop it replaced, kept here
//! verbatim as the reference: search, and on `None` drop one victim
//! chosen by a fresh `min_by`/`max_by` over the survivors.
//!
//! The front is crate-private, so it is driven the way the engine
//! drives it: a probe scheduler sits in a real simulation and, at every
//! event on which the family repacks, hands the same `SimState` to a
//! fresh scheduler instance and to the reference, and requires the same
//! decision — surviving candidates (the plan's run set), the search
//! result's bits (placements; per-job yields where the plan carries
//! them unprocessed), and the evicted running jobs (the plan's pauses).
//! The front may only ever *save* searches, never add one.
//!
//! A *keep* decision of the max-min yield objective (every running job
//! at yield 1, the waiting tasks one per idle node: no search) is not
//! the reference's decision; it is recognized from its plan and checked
//! against the keep witness (`keep_witness`) instead.

use dfrs_core::constants::{MIN_STRETCH_PER_YIELD, YIELD_SEARCH_ACCURACY};
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_packing::{
    max_min_dominant_share, max_min_yield, min_max_estimated_stretch, BestFitDecreasing, DrfJob,
    DrfSearchScratch, FirstFitDecreasing, JobLoad, Mcb8, StretchJob, VectorPacker,
};
use dfrs_sched::SchedulerRegistry;
use dfrs_sim::{
    simulate, NodeEvent, Plan, PlanEntry, RepackStats, SchedEvent, Scheduler, SimConfig, SimState,
};
use proptest::prelude::*;

mod keep_witness;
use keep_witness::{assert_keep, keep_shaped, KeepTally};

/// Tick period of the periodic family under test.
const PERIOD: f64 = 100.0;

/// The three hand-written loops the front replaced, one per objective:
/// max-min yield (any packer, named by its `packer=` value), dominant
/// share, and estimated stretch.
#[derive(Debug, Clone, Copy)]
enum Family {
    Yield(&'static str),
    Drf,
    Stretch,
}

impl Family {
    fn build(self) -> Box<dyn Scheduler> {
        let spec = match self {
            Family::Yield(p) => format!("dynmcb8:packer={p}"),
            Family::Drf => "dynmcb8-drf".into(),
            Family::Stretch => format!("dynmcb8-stretch-per:t={PERIOD}"),
        };
        SchedulerRegistry::builtin().build_str(&spec).unwrap()
    }

    fn repacks_on(self, ev: SchedEvent) -> bool {
        match self {
            Family::Stretch => ev == SchedEvent::Tick,
            _ => matches!(
                ev,
                SchedEvent::Submit(_)
                    | SchedEvent::Complete(_)
                    | SchedEvent::NodeDown(_)
                    | SchedEvent::NodeUp(_)
            ),
        }
    }
}

/// What a repack decided, as far as a plan shows it.
#[derive(Debug, PartialEq)]
struct Decision {
    pauses: Vec<JobId>,
    runs: Vec<(JobId, Vec<NodeId>)>,
    /// Per-job yields, for the family whose plan carries the search's
    /// yields unprocessed (`drf`).
    yields: Option<Vec<u64>>,
}

fn decision_of(plan: &Plan, with_yields: bool) -> Decision {
    let mut d = Decision {
        pauses: Vec::new(),
        runs: Vec::new(),
        yields: with_yields.then(Vec::new),
    };
    for e in &plan.entries {
        match e {
            PlanEntry::Pause { job } => d.pauses.push(*job),
            PlanEntry::Run { job, yld, .. } => {
                d.runs.push((*job, plan.placement(e).to_vec()));
                if let Some(y) = d.yields.as_mut() {
                    y.push(yld.to_bits());
                }
            }
        }
    }
    d
}

/// The parent commit's eviction loop. Returns the survivors, the first
/// `Some` and the number of searches it took.
fn reference_loop<T>(
    state: &SimState,
    family: Family,
    mut search: impl FnMut(&[JobId], usize) -> Option<T>,
) -> (Vec<JobId>, T, u64) {
    let nodes = state.cluster.available_nodes().count();
    let mut candidates: Vec<JobId> = Vec::new();
    if nodes > 0 {
        candidates.extend(state.jobs_in_system().map(|j| j.spec.id));
    }
    let mut searches = 0;
    loop {
        searches += 1;
        if let Some(found) = search(&candidates, nodes.max(1)) {
            return (candidates, found, searches);
        }
        let victim = match family {
            Family::Drf => candidates.iter().copied().max_by(|&a, &b| {
                let d = |id: JobId| {
                    let s = &state.job(id).spec;
                    s.dominant_fluid_need() * s.tasks as f64
                };
                d(a).total_cmp(&d(b)).then_with(|| {
                    // max_by keeps the *later* of equal elements;
                    // compare reversed so the lower priority key wins
                    // the tie.
                    state
                        .job(b)
                        .priority_key(state.now)
                        .cmp(&state.job(a).priority_key(state.now))
                })
            }),
            _ => candidates.iter().copied().min_by(|&a, &b| {
                state
                    .job(a)
                    .priority_key(state.now)
                    .cmp(&state.job(b).priority_key(state.now))
            }),
        }
        .expect("an empty candidate set packs trivially");
        candidates.retain(|&c| c != victim);
    }
}

/// The reference decision for `state`: the old loop over the family's
/// cold search, mapped to physical nodes like the schedulers do. Also
/// returns the number of searches, and whether the decision kept every
/// job in the system at a search yield of 1.
fn reference_decision(state: &SimState, family: Family) -> (Decision, u64, bool) {
    // Per-job bins, per-job yield bits (`drf`), every yield 1.
    type Found = (Vec<(JobId, Vec<u32>)>, Option<Vec<u64>>, bool);
    let (survivors, (bins, yields, full), searches) =
        reference_loop(state, family, |ids, nodes| -> Option<Found> {
            match family {
                Family::Yield(p) => {
                    let loads: Vec<JobLoad> = ids
                        .iter()
                        .map(|&id| {
                            let s = &state.job(id).spec;
                            JobLoad {
                                job: id,
                                tasks: s.tasks,
                                cpu_need: s.cpu_need,
                                mem_req: s.mem_req,
                            }
                        })
                        .collect();
                    max_min_yield(
                        &loads,
                        nodes,
                        packer(p),
                        YIELD_SEARCH_ACCURACY,
                        MIN_STRETCH_PER_YIELD,
                    )
                    .map(|a| {
                        let bins = a.placements(&loads);
                        let bins = bins.map(|(id, b)| (id, b.to_vec())).collect();
                        (bins, None, a.yield_ == 1.0)
                    })
                }
                Family::Drf => {
                    let djobs: Vec<DrfJob> = ids
                        .iter()
                        .map(|&id| {
                            let s = &state.job(id).spec;
                            DrfJob {
                                job: id,
                                tasks: s.tasks,
                                cpu_need: s.cpu_need,
                                mem_req: s.mem_req,
                                gpu_need: s.gpu_need,
                            }
                        })
                        .collect();
                    max_min_dominant_share(
                        &djobs,
                        nodes,
                        YIELD_SEARCH_ACCURACY,
                        MIN_STRETCH_PER_YIELD,
                        &mut DrfSearchScratch::default(),
                    )
                    .map(|a| {
                        let yields = a.allocations.iter().map(|(_, y, _)| y.to_bits()).collect();
                        let full = a.allocations.iter().all(|r| r.1 == 1.0);
                        let bins = (0..a.allocations.len())
                            .map(|i| (a.allocations[i].0, a.placement(i).to_vec()))
                            .collect();
                        (bins, Some(yields), full)
                    })
                }
                Family::Stretch => {
                    let sjobs: Vec<StretchJob> = ids
                        .iter()
                        .map(|&id| {
                            let j = state.job(id);
                            StretchJob {
                                job: id,
                                tasks: j.spec.tasks,
                                cpu_need: j.spec.cpu_need,
                                mem_req: j.spec.mem_req,
                                flow_time: (state.now - j.spec.submit_time).max(0.0),
                                virtual_time: j.virtual_time,
                            }
                        })
                        .collect();
                    min_max_estimated_stretch(&sjobs, nodes, PERIOD, &Mcb8, 0.01).map(|a| {
                        let full = a.assignments.iter().all(|r| r.1 == 1.0);
                        let bins = (0..a.assignments.len())
                            .map(|i| (a.assignments[i].0, a.placement(i).to_vec()))
                            .collect();
                        (bins, None, full)
                    })
                }
            }
        });
    let avail: Vec<NodeId> = state.cluster.available_nodes().collect();
    let decision = Decision {
        pauses: state
            .running_jobs()
            .map(|j| j.spec.id)
            .filter(|id| !survivors.contains(id))
            .collect(),
        runs: bins
            .into_iter()
            .map(|(id, bins)| (id, bins.into_iter().map(|b| avail[b as usize]).collect()))
            .collect(),
        yields,
    };
    let full = full && survivors.len() == state.in_system_len();
    (decision, searches, full)
}

/// Counters a [`Probe`] leaves behind.
#[derive(Debug, Default)]
struct Tally {
    /// Repack decisions compared.
    decisions: u64,
    /// Decisions on which the reference evicted at least one candidate.
    evicting: u64,
    /// Searches the reference ran and the fresh instance's front did
    /// not, over the decisions that searched at all (a keep decision
    /// runs none).
    saved: u64,
    /// `searches` of the persistent scheduler driving the run.
    searches: u64,
    /// The fresh instance's keep decisions.
    keep: KeepTally,
}

/// Drives a simulation with a persistent scheduler of `family` and
/// checks a fresh instance against the reference at every repack.
struct Probe {
    family: Family,
    inner: Box<dyn Scheduler>,
    tally: Tally,
}

impl Scheduler for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn period(&self) -> Option<f64> {
        self.inner.period()
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        if self.family.repacks_on(ev) {
            let mut fresh = self.family.build();
            let plan = fresh.on_event(ev, state);
            let (expected, ref_searches, ref_full) = reference_decision(state, self.family);
            let got = decision_of(&plan, expected.yields.is_some());
            let at = format!("{:?} at t={} on {ev:?}", self.family, state.now);
            if got != expected && keep_shaped(state, &plan) {
                assert_keep(state, &plan, &at);
                self.tally.keep.record(ref_full);
            } else {
                assert_eq!(got, expected, "{at}");
            }
            let searches = fresh.repack_stats().expect("packing family").searches;
            assert!(
                searches <= ref_searches,
                "the front added searches: {searches} vs {ref_searches}"
            );
            self.tally.decisions += 1;
            self.tally.evicting += (ref_searches > 1) as u64;
            if searches > 0 {
                self.tally.saved += ref_searches - searches;
            }
        }
        self.inner.on_event(ev, state)
    }
}

/// Simulate `jobs` on `nodes` nodes under a probed `family` scheduler.
fn run(family: Family, nodes: u32, jobs: &[JobSpec], churn: Vec<NodeEvent>) -> Tally {
    let mut probe = Probe {
        family,
        inner: family.build(),
        tally: Tally::default(),
    };
    let cfg = SimConfig {
        validate: true,
        node_events: churn,
        ..SimConfig::default()
    };
    let out = simulate(
        ClusterSpec::new(nodes, 4, 8.0).unwrap(),
        jobs,
        &mut probe,
        &cfg,
    );
    assert_eq!(out.records.len(), jobs.len(), "every job completes");
    let stats: RepackStats = probe.inner.repack_stats().expect("packing family");
    probe.tally.searches = stats.searches;
    probe.tally
}

fn job(id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, gpu: f64, rt: f64) -> JobSpec {
    JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt)
        .unwrap()
        .with_gpu(gpu)
        .unwrap()
}

/// Memory requirements that land sets on every side of the front's
/// tests: dyadic values whose sums hit the node count exactly, tiny
/// ones that push such a sum into the slack band (above the packers'
/// `bins + EPS`, below the front's limit), and the three sides of the
/// over-half boundary (`0.5`, inside the tolerance, beyond it).
const MEMS: [f64; 11] = [
    1e-7,
    3e-10,
    0.125,
    0.25,
    0.3,
    0.5,
    0.5 + 5e-10,
    0.5 + 2e-9,
    0.75,
    0.9,
    1.0,
];

/// The packer a `packer=` value names.
fn packer(name: &str) -> &'static dyn VectorPacker {
    match name {
        "mcb8" => &Mcb8,
        "first-fit" => &FirstFitDecreasing,
        "best-fit" => &BestFitDecreasing,
        other => panic!("unknown packer {other}"),
    }
}

const FAMILIES: [Family; 5] = [
    Family::Yield("mcb8"),
    Family::Yield("first-fit"),
    Family::Yield("best-fit"),
    Family::Drf,
    Family::Stretch,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Random memory-heavy job sets (one job to a few dozen) on one to
    /// six nodes, with node churn — including a blackout with no node
    /// in service — under every family, victim order and packer: the
    /// front's decisions equal the old loop's at every repack.
    #[test]
    fn front_equals_the_loop_it_replaced(
        family in prop::sample::select(FAMILIES.to_vec()),
        nodes in 1u32..7,
        raw in prop::collection::vec(
            (
                0.0f64..40.0,
                1u32..5,
                0.05f64..1.0,
                prop::sample::select(MEMS.to_vec()),
                prop::sample::select(vec![0.0, 0.0, 0.3, 0.9]),
                20.0f64..1500.0,
            ),
            1..28,
        ),
        outages in prop::collection::vec((0u32..6, 0.0f64..600.0, 10.0f64..300.0), 0..4),
        blackout in prop::sample::select(vec![false, false, true]),
    ) {
        let mut at = 0.0;
        let jobs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(gap, tasks, cpu, mem, gpu, rt))| {
                at += gap;
                job(i as u32, at, tasks.min(nodes), cpu, mem, gpu, rt)
            })
            .collect();
        let mut churn = Vec::new();
        let mut outage = |node: u32, from: f64, len: f64| {
            churn.push(NodeEvent { time: from, node: NodeId(node), up: false });
            churn.push(NodeEvent { time: from + len, node: NodeId(node), up: true });
        };
        for &(n, from, len) in &outages {
            outage(n % nodes, from, len);
        }
        if blackout {
            for n in 0..nodes {
                outage(n, 150.0, 120.0);
            }
        }
        churn.sort_by(|a, b| a.time.total_cmp(&b.time));
        let tally = run(family, nodes, &jobs, churn);
        prop_assert!(tally.decisions > 0);
    }
}

/// A set whose memory total sits inside the slack band — above what
/// any packer accepts, below the front's limit — is not skipped: it
/// costs the same searches as the old loop, and evicts the same victim.
#[test]
fn slack_band_sets_fall_through_to_the_search() {
    for family in FAMILIES {
        // Two nodes; four half-node tasks fill them exactly and the
        // fifth job tips the total to 2 + 1e-7.
        let mut jobs: Vec<JobSpec> = (0..4)
            .map(|i| job(i, 0.0, 1, 0.5, 0.5, 0.0, 300.0))
            .collect();
        jobs.push(job(4, 0.0, 1, 0.5, 1e-7, 0.0, 300.0));
        let tally = run(family, 2, &jobs, Vec::new());
        assert!(tally.evicting > 0, "{family:?}");
        assert_eq!(tally.saved, 0, "{family:?}");
    }
}

/// More over-half tasks than nodes, and a memory total far past the
/// cluster: the victims go without a search each.
#[test]
fn overloaded_sets_skip_their_searches() {
    for family in FAMILIES {
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| job(i, i as f64, 1, 0.5, 0.6, 0.0, 300.0))
            .collect();
        let tally = run(family, 2, &jobs, Vec::new());
        assert!(tally.evicting > 0, "{family:?}");
        assert!(tally.saved > 0, "{family:?}");
    }
}

/// The count guard (host-independent): on a trace that keeps the
/// cluster's memory several times oversubscribed, a decision costs at
/// most two searches on average — the feasible one plus the occasional
/// set that fits by total but not by shape — where the old loop paid
/// one per victim.
#[test]
fn memory_overload_costs_at_most_two_searches_per_decision() {
    for family in [Family::Yield("mcb8"), Family::Drf, Family::Stretch] {
        // 8 nodes; 240 jobs of 1–4 quarter-to-whole-node tasks arriving
        // every 5 s and running ~10 min: dozens in the system at once.
        let jobs: Vec<JobSpec> = (0..240u32)
            .map(|i| {
                let mem = [0.25, 0.5, 0.75, 1.0][(i % 4) as usize];
                let gpu = if i % 3 == 0 { 0.5 } else { 0.0 };
                job(
                    i,
                    i as f64 * 5.0,
                    1 + i % 4,
                    0.6,
                    mem,
                    gpu,
                    500.0 + (i % 7) as f64 * 40.0,
                )
            })
            .collect();
        let tally = run(family, 8, &jobs, Vec::new());
        let decisions = tally.decisions;
        let evicting = tally.evicting;
        let saved = tally.saved;
        let searches = tally.searches;
        assert!(
            2 * evicting > decisions,
            "{family:?}: the trace must overload memory"
        );
        assert!(
            saved > 5 * decisions,
            "{family:?}: the old loop paid {saved} more searches"
        );
        assert!(
            searches <= 2 * decisions,
            "{family:?}: {searches} searches for {decisions} decisions"
        );
    }
}
