//! The batch baselines (`fcfs`, `easy`, `conservative-bf`), as the
//! registry builds them, against a reference copied verbatim from the
//! version that collected every idle in-service node into a `Vec`
//! before each decision: `free_nodes`, `waiting_jobs`, the `Batch`
//! driver and its `Never` / `Head` / `All` policies with `Profile`
//! (one guard added to `All`, marked where it stands).
//!
//! A probe feeds every engine event to both and asserts the two plans
//! equal at every call (entries, placements, yields and timers; the
//! probe hands the engine the registry's plan). Runs: Lublin traces
//! with and without node churn, under `Restart` and under
//! `PausePreserve`, and a blackout that takes every node down at once.
//! The wider seed matrix is `#[ignore]`d:
//!
//! ```sh
//! cargo test --release -p dfrs_sched --test batch_reference -- --ignored
//! ```

use std::collections::VecDeque;

use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_sched::SchedulerRegistry;
use dfrs_sim::{
    simulate, FailurePolicy, JobStatus, NodeEvent, Plan, SchedEvent, Scheduler, SimConfig, SimState,
};
use dfrs_workload::{Annotator, LublinModel, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---- The reference, verbatim (module paths aside). ----

/// Ids of the in-service, completely idle nodes, ascending — the
/// whole-node free list the batch schedulers (FCFS, EASY, conservative
/// backfilling) draw placements from. Down nodes are never free: they
/// host nothing *and* accept nothing until repaired.
pub fn free_nodes(state: &SimState) -> Vec<NodeId> {
    state
        .cluster
        .nodes()
        .iter()
        .enumerate()
        .filter(|&(i, n)| n.is_idle() && state.cluster.is_up(NodeId(i as u32)))
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// Jobs waiting to be (re)placed, ascending id (= submission) order —
/// the queue the batch schedulers rebuild after a platform event.
/// Covers `Pending` (killed under [`dfrs_sim::FailurePolicy::Restart`],
/// or never started) and `Paused` (victims of the preserve policy;
/// batch schedulers never pause on their own, so with no failures this
/// is exactly the pending set).
pub fn waiting_jobs(state: &SimState) -> Vec<JobId> {
    state
        .jobs_in_system()
        .filter(|j| {
            matches!(
                j.status,
                dfrs_sim::JobStatus::Pending | dfrs_sim::JobStatus::Paused
            )
        })
        .map(|j| j.spec.id)
        .collect()
}

/// How far a batch queue backfills: one full scheduling pass over the
/// queue against the whole nodes free now.
pub(crate) trait Backfill: Default + Send + 'static {
    /// The scheduler's display name.
    const NAME: &'static str;

    /// Start what may start now, removing it from `queue`.
    fn schedule(&self, queue: &mut VecDeque<JobId>, free: Vec<NodeId>, state: &SimState) -> Plan;
}

/// A FIFO batch queue under backfilling policy `B`.
#[derive(Debug, Default)]
pub(crate) struct Batch<B> {
    queue: VecDeque<JobId>,
    policy: B,
}

impl<B: Backfill> Batch<B> {
    /// A fresh instance, boxed for the registry.
    pub(crate) fn boxed() -> Box<dyn Scheduler> {
        Box::new(Batch::<B>::default())
    }

    fn schedule(&mut self, state: &SimState) -> Plan {
        self.policy
            .schedule(&mut self.queue, free_nodes(state), state)
    }
}

impl<B: Backfill> Scheduler for Batch<B> {
    fn name(&self) -> String {
        B::NAME.into()
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        match ev {
            SchedEvent::Submit(id) => {
                self.queue.push_back(id);
                self.schedule(state)
            }
            SchedEvent::Complete(_) => self.schedule(state),
            SchedEvent::NodeDown(_) | SchedEvent::NodeUp(_) => {
                // Killed jobs are Pending again: rebuild the queue from
                // the waiting set (id = submission order, so victims
                // rejoin at their original rank), rebuild every
                // reservation against the surviving nodes, reschedule.
                self.queue = waiting_jobs(state).into();
                self.schedule(state)
            }
            SchedEvent::Withdraw(id) => {
                // Rebalanced to another shard: purge, or the stale entry
                // would head-block the queue (or hold a phantom
                // reservation) forever.
                self.queue.retain(|&q| q != id);
                Plan::noop()
            }
            _ => Plan::noop(),
        }
    }
}

/// Start queue heads, in order, while they fit on `free`; `started`
/// sees each one. Strict FIFO: nothing may overtake a head that does
/// not fit.
fn start_heads(
    queue: &mut VecDeque<JobId>,
    free: &mut Vec<NodeId>,
    state: &SimState,
    plan: &mut Plan,
    mut started: impl FnMut(&JobSpec),
) {
    while let Some(&head) = queue.front() {
        let spec = &state.job(head).spec;
        let tasks = spec.tasks as usize;
        if tasks > free.len() {
            break;
        }
        started(spec);
        plan.push_run(head, 1.0, free.drain(..tasks));
        queue.pop_front();
    }
}

/// `FCFS`: no backfilling.
#[derive(Debug, Default)]
pub(crate) struct Never;

impl Backfill for Never {
    const NAME: &'static str = "FCFS";

    fn schedule(
        &self,
        queue: &mut VecDeque<JobId>,
        mut free: Vec<NodeId>,
        state: &SimState,
    ) -> Plan {
        let mut plan = Plan::noop();
        start_heads(queue, &mut free, state, &mut plan, |_| {});
        plan
    }
}

/// `EASY`: backfill behind the head's reservation.
#[derive(Debug, Default)]
pub(crate) struct Head;

impl Backfill for Head {
    const NAME: &'static str = "EASY";

    fn schedule(
        &self,
        queue: &mut VecDeque<JobId>,
        mut free: Vec<NodeId>,
        state: &SimState,
    ) -> Plan {
        let mut plan = Plan::noop();
        // (completion_time, nodes_released) of jobs that will be running
        // after this plan: running jobs, then the heads started below.
        let mut releases: Vec<(f64, u32)> = state
            .jobs
            .iter()
            .filter(|j| j.status == JobStatus::Running)
            .map(|j| {
                // Batch jobs run at yield 1: remaining vt = remaining wall.
                (state.now + j.remaining(), j.spec.tasks)
            })
            .collect();
        start_heads(queue, &mut free, state, &mut plan, |spec| {
            releases.push((state.now + spec.oracle_runtime(), spec.tasks));
        });

        let Some(&head) = queue.front() else {
            return plan;
        };

        // Reservation for the head: earliest time `head.tasks` nodes are
        // simultaneously free, assuming perfect estimates.
        let head_tasks = state.job(head).spec.tasks;
        releases.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cum = free.len() as u32;
        let mut shadow = f64::INFINITY;
        let mut extra = 0u32;
        for &(t, n) in &releases {
            cum += n;
            if cum >= head_tasks {
                shadow = t;
                extra = cum - head_tasks;
                break;
            }
        }
        // An infinite shadow means the head cannot run on the nodes
        // currently in service; that is only legitimate while part of
        // the cluster is down (the head waits for a repair, and EASY's
        // aggressive rule lets everything that fits backfill meanwhile).
        debug_assert!(
            shadow.is_finite() || state.cluster.down_nodes() > 0,
            "head can never run: tasks > cluster?"
        );
        // Nodes free *now* beyond those the reservation will consume are
        // also usable indefinitely; `extra` counts surplus at shadow time.
        let mut extra = extra.min(free.len() as u32);

        // Backfill pass: jobs behind the head, in order.
        let mut started: Vec<JobId> = Vec::new();
        for &cand in queue.iter().skip(1) {
            let spec = &state.job(cand).spec;
            let tasks = spec.tasks as usize;
            if tasks > free.len() {
                continue;
            }
            let finishes_before_shadow = state.now + spec.oracle_runtime() <= shadow;
            let fits_extra = spec.tasks <= extra;
            if finishes_before_shadow || fits_extra {
                plan.push_run(cand, 1.0, free.drain(..tasks));
                started.push(cand);
                if !finishes_before_shadow {
                    extra -= spec.tasks;
                }
            }
        }
        queue.retain(|j| !started.contains(j));
        plan
    }
}

/// Piecewise-constant future free-node profile: `points[i] = (t_i,
/// free_i)` means `free_i` nodes are free on `[t_i, t_{i+1})`; the last
/// segment extends forever.
#[derive(Debug, Clone)]
struct Profile {
    points: Vec<(f64, u32)>,
}

impl Profile {
    /// Profile starting at `now` with `free_now` nodes, gaining
    /// `releases` (time, nodes) later. Release times before `now` are
    /// clamped to `now`.
    fn new(now: f64, free_now: u32, releases: &[(f64, u32)]) -> Self {
        let mut points = vec![(now, free_now)];
        let mut rel: Vec<(f64, u32)> = releases.iter().map(|&(t, n)| (t.max(now), n)).collect();
        rel.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, n) in rel {
            let last = *points.last().expect("nonempty");
            if (t - last.0).abs() < 1e-9 {
                points.last_mut().expect("nonempty").1 += n;
            } else {
                points.push((t, last.1 + n));
            }
        }
        Profile { points }
    }

    /// Free nodes at time `t`.
    fn free_at(&self, t: f64) -> u32 {
        let mut free = 0;
        for &(pt, pf) in &self.points {
            if pt <= t + 1e-9 {
                free = pf;
            } else {
                break;
            }
        }
        free
    }

    /// Earliest start `s ≥` profile origin such that at least `need`
    /// nodes are free throughout `[s, s + duration)`, or `None` when no
    /// start works — possible only while failures keep the in-service
    /// node count below `need` (the final segment otherwise always has
    /// enough capacity).
    fn find_slot(&self, need: u32, duration: f64) -> Option<f64> {
        let candidates: Vec<f64> = self.points.iter().map(|&(t, _)| t).collect();
        'outer: for &s in &candidates {
            if self.free_at(s) < need {
                continue;
            }
            let end = s + duration;
            for &(t, f) in &self.points {
                if t > s + 1e-9 && t < end - 1e-9 && f < need {
                    continue 'outer;
                }
            }
            return Some(s);
        }
        None
    }

    /// Subtract `need` nodes over `[start, start + duration)`.
    fn reserve(&mut self, start: f64, duration: f64, need: u32) {
        let end = start + duration;
        let split = |points: &mut Vec<(f64, u32)>, at: f64| {
            if points.iter().any(|&(t, _)| (t - at).abs() < 1e-9) {
                return;
            }
            if let Some(i) = points.iter().rposition(|&(t, _)| t < at) {
                let f = points[i].1;
                points.insert(i + 1, (at, f));
            }
        };
        split(&mut self.points, start);
        split(&mut self.points, end);
        for p in &mut self.points {
            if p.0 + 1e-9 >= start && p.0 < end - 1e-9 {
                debug_assert!(p.1 >= need, "profile underflow");
                p.1 -= need;
            }
        }
    }
}

/// Conservative backfilling over whole nodes with perfect estimates:
/// the [`Backfill`] policy of [`crate::batch::Batch`] that reserves for
/// every queued job.
#[derive(Debug, Default)]
pub(crate) struct All;

impl Backfill for All {
    const NAME: &'static str = "Conservative-BF";

    fn schedule(
        &self,
        queue: &mut VecDeque<JobId>,
        mut free: Vec<NodeId>,
        state: &SimState,
    ) -> Plan {
        let releases: Vec<(f64, u32)> = state
            .jobs
            .iter()
            .filter(|j| j.status == JobStatus::Running)
            .map(|j| (state.now + j.remaining(), j.spec.tasks))
            .collect();
        let mut profile = Profile::new(state.now, free.len() as u32, &releases);

        let mut plan = Plan::noop();
        let mut started: Vec<JobId> = Vec::new();
        for &id in queue.iter() {
            let spec = &state.job(id).spec;
            // While failures keep the in-service count below this job's
            // width, it holds no reservation (nothing to reserve
            // against); it is reconsidered at the next event — at the
            // latest the repair's NodeUp.
            let Some(start) = profile.find_slot(spec.tasks, spec.oracle_runtime()) else {
                debug_assert!(
                    state.cluster.down_nodes() > 0,
                    "slot must exist on a full cluster"
                );
                continue;
            };
            profile.reserve(start, spec.oracle_runtime(), spec.tasks);
            // The one change to the copy: the guard the policy gained with
            // the cursor. Without it, a release within the profile's 1e-9 s
            // merge window of now (a job ending at this instant whose own
            // `Complete` round has not come yet) counts as free now, and
            // `drain` panics past the free list.
            if (start - state.now).abs() < 1e-9 && spec.tasks as usize <= free.len() {
                plan.push_run(id, 1.0, free.drain(..spec.tasks as usize));
                started.push(id);
            }
        }
        queue.retain(|j| !started.contains(j));
        plan
    }
}

// ---- The lockstep probe. ----

/// Feeds every event to the registry-built scheduler and to the
/// reference, asserts their plans equal, and hands the engine the
/// registry's.
struct Lockstep {
    real: Box<dyn Scheduler>,
    reference: Box<dyn Scheduler>,
    calls: usize,
    /// Calls whose plan started at least one job.
    starts: usize,
}

impl Scheduler for Lockstep {
    fn name(&self) -> String {
        self.real.name()
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        let plan = self.real.on_event(ev, state);
        let want = self.reference.on_event(ev, state);
        assert_eq!(
            plan,
            want,
            "{} call {} ({ev:?}) at t={}",
            self.real.name(),
            self.calls,
            state.now
        );
        self.calls += 1;
        self.starts += usize::from(!plan.entries.is_empty());
        plan
    }
}

/// The registry spec and the reference of each batch baseline.
fn pairs() -> [(&'static str, Box<dyn Scheduler>); 3] {
    [
        ("fcfs", Batch::<Never>::boxed()),
        ("easy", Batch::<Head>::boxed()),
        ("conservative-bf", Batch::<All>::boxed()),
    ]
}

/// A Lublin trace of `n` jobs on a `nodes`-node cluster at load 0.9.
fn lublin(seed: u64, nodes: u32, n: usize) -> (ClusterSpec, Vec<JobSpec>) {
    let cluster = ClusterSpec::new(nodes, 4, 8.0).unwrap();
    let model = LublinModel::for_cluster(&cluster);
    let mut rng = SmallRng::seed_from_u64(seed);
    let raws = model.generate(n, &mut rng);
    let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
    let trace = Trace::new(cluster, jobs)
        .unwrap()
        .scale_to_load(0.9)
        .unwrap();
    (cluster, trace.jobs().to_vec())
}

/// How the platform behaves during a run.
#[derive(Debug, Clone, Copy)]
enum Platform {
    Static,
    /// About a third of the nodes fail once each and are repaired.
    Churn(FailurePolicy),
    /// Every node fails at once and every one returns later.
    Blackout,
}

fn node_events(platform: Platform, seed: u64, nodes: u32, horizon: f64) -> Vec<NodeEvent> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB1AC);
    let mut events = Vec::new();
    let mut outage = |node: u32, down: f64, up: f64| {
        events.push(NodeEvent {
            time: down,
            node: NodeId(node),
            up: false,
        });
        events.push(NodeEvent {
            time: up,
            node: NodeId(node),
            up: true,
        });
    };
    match platform {
        Platform::Static => {}
        Platform::Churn(_) => {
            for node in 0..nodes {
                if rng.gen_bool(0.35) {
                    let down = rng.gen_range(0.0..horizon);
                    outage(node, down, down + rng.gen_range(60.0..3_600.0));
                }
            }
        }
        Platform::Blackout => {
            for node in 0..nodes {
                outage(node, 0.4 * horizon, 0.6 * horizon);
            }
        }
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    events
}

/// Runs every batch baseline in lockstep with its reference over one
/// trace and platform; returns (calls, calls that started a job).
fn lockstep(seed: u64, nodes: u32, n: usize, platform: Platform) -> (usize, usize) {
    let (cluster, jobs) = lublin(seed, nodes, n);
    let horizon = jobs.last().map_or(0.0, |j| j.submit_time);
    let cfg = SimConfig {
        validate: true,
        failure_policy: match platform {
            Platform::Churn(policy) => policy,
            Platform::Static | Platform::Blackout => FailurePolicy::Restart,
        },
        node_events: node_events(platform, seed, nodes, horizon),
        ..SimConfig::default()
    };
    let (mut calls, mut starts) = (0, 0);
    for (spec, reference) in pairs() {
        let mut probe = Lockstep {
            real: SchedulerRegistry::builtin().build_str(spec).unwrap(),
            reference,
            calls: 0,
            starts: 0,
        };
        let out = simulate(cluster, &jobs, &mut probe, &cfg);
        assert_eq!(out.records.len(), n, "{spec} seed {seed} {platform:?}");
        calls += probe.calls;
        starts += probe.starts;
    }
    (calls, starts)
}

const PLATFORMS: [Platform; 4] = [
    Platform::Static,
    Platform::Churn(FailurePolicy::Restart),
    Platform::Churn(FailurePolicy::PausePreserve),
    Platform::Blackout,
];

#[test]
fn batch_baselines_equal_the_reference_at_every_call() {
    for platform in PLATFORMS {
        let (calls, starts) = lockstep(11, 16, 200, platform);
        assert!(calls >= 3 * 400, "{platform:?}: {calls} calls");
        assert!(starts >= 3 * 150, "{platform:?}: {starts} starting calls");
    }
}

/// The wide matrix: 6 seeds × every platform, 600 jobs on 32 nodes.
#[test]
#[ignore = "wide matrix; run with --ignored"]
fn batch_baselines_equal_the_reference_matrix() {
    for seed in 1..=6 {
        for platform in PLATFORMS {
            let (calls, starts) = lockstep(seed, 32, 600, platform);
            println!("seed {seed} {platform:?}: {calls} calls, {starts} started a job");
        }
    }
}
