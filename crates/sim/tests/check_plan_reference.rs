//! `check_plan` against a verbatim copy of itself from before the
//! run-free fast path (a plan without a run entry returns after the
//! structural and timer checks). Every verdict and every error value
//! must stay identical.
//!
//! The states come from streamed runs (so low ids are evicted) of a
//! whole-node driver that also pauses, under node churn with either
//! failure policy; at every scheduler call each generated plan shape
//! is resolved against the live state — empty plans with good, past or
//! unknown-job timers, pause-only plans with repeats, runs with
//! unknown, down or crowded nodes, wrong task counts and bad yields —
//! and both functions judge it.

use std::collections::BTreeSet;

use dfrs_core::approx;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_sim::{
    check_plan, simulate_stream, DiscardRecords, FailurePolicy, JobStatus, NodeEvent, Plan,
    PlanEntry, PlanError, SchedEvent, Scheduler, SimConfig, SimState, SliceSource,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `check_plan` as it stood before the fast path, verbatim.
fn reference_check_plan(state: &SimState, plan: &Plan) -> Result<(), PlanError> {
    let n_jobs = state.jobs.len();
    let n_nodes = state.cluster.nodes().len();
    // Duplicate tracking is window-relative so validation memory stays
    // bounded on streamed runs; evicted ids (always completed) fail the
    // status checks below before duplicate tracking matters.
    let base = state.jobs.first_resident();
    let mut seen = vec![false; state.jobs.resident()];

    let mut check_job = |job: JobId| -> Result<(), PlanError> {
        if job.index() >= n_jobs {
            return Err(PlanError::UnknownJob { job });
        }
        if let Some(k) = job.index().checked_sub(base) {
            if seen[k] {
                return Err(PlanError::DuplicateJob { job });
            }
            seen[k] = true;
        }
        Ok(())
    };

    for e in &plan.entries {
        match e {
            PlanEntry::Pause { job } => {
                check_job(*job)?;
                // An evicted id is a completed job streamed out already.
                let status = state
                    .jobs
                    .get(job.index())
                    .map_or(JobStatus::Completed, |j| j.status);
                if status != JobStatus::Running {
                    return Err(PlanError::PauseNotRunning { job: *job, status });
                }
            }
            PlanEntry::Run { job, yld, .. } => {
                let placement = plan.placement(e);
                check_job(*job)?;
                let Some(j) = state.jobs.get(job.index()) else {
                    return Err(PlanError::InvalidStatus {
                        job: *job,
                        status: JobStatus::Completed,
                    });
                };
                if matches!(j.status, JobStatus::Unsubmitted | JobStatus::Completed) {
                    return Err(PlanError::InvalidStatus {
                        job: *job,
                        status: j.status,
                    });
                }
                if placement.len() != j.spec.tasks as usize {
                    return Err(PlanError::WrongTaskCount {
                        job: *job,
                        placed: placement.len(),
                        tasks: j.spec.tasks,
                    });
                }
                if !(*yld > 0.0 && *yld <= 1.0 + approx::EPS) {
                    return Err(PlanError::InvalidYield {
                        job: *job,
                        yld: *yld,
                    });
                }
                if let Some(&node) = placement.iter().find(|n| n.index() >= n_nodes) {
                    return Err(PlanError::UnknownNode { job: *job, node });
                }
                if let Some(&node) = placement.iter().find(|&&n| !state.cluster.is_up(n)) {
                    return Err(PlanError::NodeUnavailable { job: *job, node });
                }
            }
        }
    }

    for &(job, at) in &plan.timers {
        if job.index() >= n_jobs {
            return Err(PlanError::UnknownJob { job });
        }
        if at + approx::EPS < state.now {
            return Err(PlanError::TimerInPast {
                job,
                at,
                now: state.now,
            });
        }
    }

    // Capacity simulation, mirroring the engine's two-phase order:
    // every mentioned running job's tasks leave first, then the final
    // placements land. Jobs not mentioned keep their allocation. The
    // rejection threshold is the engine's own `approx::EPS` (the same
    // tolerance its capacity assertions use), so a plan this check
    // accepts cannot trip those assertions beyond summation-order
    // rounding (this recomputes sums fresh; the engine accumulates
    // incrementally — the disagreement window is a few ulps).
    let mut mem = vec![0.0f64; n_nodes];
    let mut cpu = vec![0.0f64; n_nodes];
    let mut gpu = vec![0.0f64; n_nodes];
    for j in state.running_jobs() {
        let touched = seen[j.spec.id.index() - base];
        for &node in state.placement(j.spec.id) {
            if !touched {
                mem[node.index()] += j.spec.mem_req;
                cpu[node.index()] += j.spec.cpu_need * j.yld;
                gpu[node.index()] += j.spec.gpu_need * j.yld;
            }
        }
    }
    for e in &plan.entries {
        if let PlanEntry::Run { job, yld, .. } = e {
            let spec = &state.job(*job).spec;
            for &node in plan.placement(e) {
                let m = &mut mem[node.index()];
                *m += spec.mem_req;
                if !approx::le(*m, 1.0) {
                    return Err(PlanError::OverCapacityMemory { node, mem_used: *m });
                }
                let c = &mut cpu[node.index()];
                *c += spec.cpu_need * yld.min(1.0);
                if !approx::le(*c, 1.0) {
                    return Err(PlanError::OverCapacityCpu {
                        node,
                        cpu_alloc: *c,
                    });
                }
                let g = &mut gpu[node.index()];
                *g += spec.gpu_need * yld.min(1.0);
                if !approx::le(*g, 1.0) {
                    return Err(PlanError::OverCapacityGpu {
                        node,
                        gpu_alloc: *g,
                    });
                }
            }
        }
    }

    Ok(())
}

/// One plan entry before it meets a state: picks resolve to a job, a
/// task count and nodes at the call that judges it.
#[derive(Debug, Clone)]
struct EntryShape {
    pause: bool,
    job: u32,
    tasks_off: i8,
    nodes: Vec<u32>,
    yld: u8,
}

/// A plan before it meets a state.
#[derive(Debug, Clone)]
struct Shape {
    entries: Vec<EntryShape>,
    timers: Vec<(u32, u8)>,
}

const YIELDS: [f64; 8] = [1.0, 1.0, 0.5, 0.25, 0.0, 1.5, f64::NAN, 1.0 + 1e-12];
const TIMER_OFFSETS: [f64; 6] = [5.0, 0.0, -1e-12, -1.0, -1e6, f64::NAN];

/// A job id for `pick`: mostly a job in the system (running ones for
/// pauses), sometimes any id up to three past the admitted ones —
/// evicted, unsubmitted or unknown.
fn pick_job(state: &SimState, pick: u32, pause: bool) -> JobId {
    let pool: Vec<JobId> = if pause {
        state.running_jobs().map(|j| j.spec.id).collect()
    } else {
        state.jobs_in_system().map(|j| j.spec.id).collect()
    };
    if pick.is_multiple_of(3) || pool.is_empty() {
        JobId((pick / 3) % (state.jobs.len() as u32 + 3))
    } else {
        pool[(pick / 3) as usize % pool.len()]
    }
}

impl Shape {
    fn resolve(&self, state: &SimState) -> Plan {
        let n_nodes = state.cluster.nodes().len() as u32;
        let free: Vec<NodeId> = state.cluster.free_nodes().collect();
        let mut plan = Plan::noop();
        for e in &self.entries {
            let job = pick_job(state, e.job, e.pause);
            if e.pause {
                plan = plan.pause(job);
                continue;
            }
            let tasks = state.jobs.get(job.index()).map_or(1, |j| j.spec.tasks);
            let count = (i64::from(tasks) + i64::from(e.tasks_off)).max(0) as usize;
            let nodes = (0..count)
                .map(|t| {
                    let p = e.nodes[t % e.nodes.len()];
                    match (p % 4, free.len()) {
                        (0, _) | (_, 0) => NodeId((p / 4) % (n_nodes + 2)),
                        (_, n) => free[(p / 4) as usize % n],
                    }
                })
                .collect();
            plan = plan.run(job, nodes, YIELDS[usize::from(e.yld) % YIELDS.len()]);
        }
        for &(job, at) in &self.timers {
            let job = JobId(job % (state.jobs.len() as u32 + 2));
            let at = state.now + TIMER_OFFSETS[usize::from(at) % TIMER_OFFSETS.len()];
            plan.timers.push((job, at));
        }
        plan
    }
}

/// Runs waiting jobs first-come on whole free nodes at yield 1 and,
/// on an arrival, sometimes pauses the newest running job; judges every
/// shape against the state of every call on the way.
struct Probe {
    shapes: Vec<Shape>,
    rng: SmallRng,
    verdicts: BTreeSet<String>,
    judged: usize,
}

impl Probe {
    fn judge(&mut self, state: &SimState) {
        for shape in &self.shapes {
            let plan = shape.resolve(state);
            let got = check_plan(state, &plan);
            let want = reference_check_plan(state, &plan);
            // Debug formatting compares NaN payloads as equal text.
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "t={} plan {plan:?}",
                state.now
            );
            let kind = match &got {
                Ok(()) if plan.entries.is_empty() => "ok-empty".to_string(),
                Ok(()) => "ok".to_string(),
                Err(e) => format!("{e:?}")
                    .split([' ', '{'])
                    .next()
                    .unwrap_or("")
                    .to_string(),
            };
            let runs = plan
                .entries
                .iter()
                .any(|e| matches!(e, PlanEntry::Run { .. }));
            self.verdicts
                .insert(format!("{}:{kind}", if runs { "runs" } else { "no-runs" }));
            self.judged += 1;
        }
    }
}

impl Scheduler for Probe {
    fn name(&self) -> String {
        "check-plan-probe".into()
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        self.judge(state);
        let mut plan = Plan::noop();
        // With another job left running, a completion always follows to
        // resume the paused one.
        if matches!(ev, SchedEvent::Submit(_))
            && state.running_jobs().nth(1).is_some()
            && self.rng.gen_bool(0.2)
        {
            if let Some(newest) = state.running_jobs().last() {
                return plan.pause(newest.spec.id);
            }
        }
        let mut free = state.cluster.free_nodes();
        for j in state.jobs_in_system() {
            let tasks = j.spec.tasks as usize;
            if matches!(j.status, JobStatus::Pending | JobStatus::Paused) && tasks <= free.len() {
                plan.push_run(j.spec.id, 1.0, free.by_ref().take(tasks));
            }
        }
        plan
    }
}

fn jobs(seed: u64, n: u32, nodes: u32) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += rng.gen_range(0.0..40.0);
            let job = JobSpec::new(
                JobId(i),
                t,
                rng.gen_range(1..=nodes.min(3)),
                [0.25, 0.5, 1.0][rng.gen_range(0..3usize)],
                0.1 * f64::from(rng.gen_range(1..8)),
                rng.gen_range(10.0..200.0),
            )
            .unwrap();
            if rng.gen_bool(0.3) {
                job.with_gpu(rng.gen_range(0.1..=1.0)).unwrap()
            } else {
                job
            }
        })
        .collect()
}

/// Node churn over the run: each node fails at most once, for a while.
fn churn(seed: u64, nodes: u32, horizon: f64) -> Vec<NodeEvent> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0_D0);
    let mut events = Vec::new();
    for node in 0..nodes {
        if rng.gen_bool(0.5) {
            let down = rng.gen_range(0.0..horizon);
            let node = NodeId(node);
            events.push(NodeEvent {
                time: down,
                node,
                up: false,
            });
            events.push(NodeEvent {
                time: down + rng.gen_range(1.0..300.0),
                node,
                up: true,
            });
        }
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    events
}

/// Judge `shapes` at every call of one streamed run; the verdict kinds
/// seen and the number of judgements.
fn run(seed: u64, shapes: Vec<Shape>, policy: FailurePolicy) -> (BTreeSet<String>, usize) {
    let nodes = 6;
    let jobs = jobs(seed, 40, nodes);
    let horizon = jobs.last().map_or(0.0, |j| j.submit_time);
    let cfg = SimConfig {
        failure_policy: policy,
        node_events: churn(seed, nodes, horizon),
        ..SimConfig::default()
    };
    let mut probe = Probe {
        shapes,
        rng: SmallRng::seed_from_u64(seed),
        verdicts: BTreeSet::new(),
        judged: 0,
    };
    let out = simulate_stream(
        ClusterSpec::new(nodes, 4, 8.0).unwrap(),
        &mut SliceSource::new(&jobs),
        &mut DiscardRecords,
        &mut probe,
        &cfg,
    )
    .unwrap();
    assert_eq!(out.jobs_completed, jobs.len() as u64);
    (probe.verdicts, probe.judged)
}

/// An entry shape: a pause with probability `pauses` in 4.
fn entry_shape(pauses: u8) -> impl Strategy<Value = EntryShape> {
    (
        0u8..4,
        0u32..u32::MAX,
        prop::sample::select(vec![0i8, 0, 0, 0, -1, 1]),
        prop::collection::vec(0u32..u32::MAX, 1..4),
        0u8..=255,
    )
        .prop_map(move |(p, job, tasks_off, nodes, yld)| EntryShape {
            pause: p < pauses,
            job,
            tasks_off,
            nodes,
            yld,
        })
}

/// A plan shape: in six, two empty, one pause-only and three mixed
/// (one pause in four entries), each with up to two timers.
fn shape() -> impl Strategy<Value = Shape> {
    (
        0u8..6,
        prop::collection::vec(entry_shape(4), 1..4),
        prop::collection::vec(entry_shape(1), 1..4),
        prop::collection::vec((0u32..u32::MAX, 0u8..=255), 0..3),
    )
        .prop_map(|(kind, pauses, mixed, timers)| Shape {
            entries: match kind {
                0 | 1 => Vec::new(),
                2 => pauses,
                _ => mixed,
            },
            timers,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn check_plan_judges_every_plan_as_the_reference_does(
        seed in 0u64..10_000,
        preserve in 0u8..2,
        shapes in prop::collection::vec(shape(), 1..6),
    ) {
        let policy = if preserve == 1 { FailurePolicy::PausePreserve } else { FailurePolicy::Restart };
        run(seed, shapes, policy);
    }
}

/// Fixed shapes over a few runs reach every verdict the fast path can
/// give and the run-entry verdicts around it.
#[test]
fn the_fixed_shapes_reach_every_verdict() {
    let entry = |pause, job: u32, tasks_off, yld| {
        // Node picks that are multiples of 4 name a node id directly;
        // 24 and 28 name ids past the cluster's six nodes.
        let mut nodes = vec![1, 4, 2, 24, 3, 8, 5, 28];
        nodes.rotate_left(job as usize % 8);
        EntryShape {
            pause,
            job,
            tasks_off,
            nodes,
            yld,
        }
    };
    let mut shapes = vec![
        // Empty plans: no timer, a good one, past ones, unknown jobs.
        Shape {
            entries: vec![],
            timers: vec![],
        },
    ];
    for at in 0..6u8 {
        for job in [1u32, 7, u32::MAX] {
            shapes.push(Shape {
                entries: vec![],
                timers: vec![(job, at), (job.wrapping_add(1), (at + 3) % 6)],
            });
        }
    }
    // Pause-only plans: repeats, unknown and non-running ids.
    for job in [1u32, 2, 3, 4, 5, 6, 9, 12, 300, u32::MAX] {
        shapes.push(Shape {
            entries: vec![entry(true, job, 0, 0), entry(true, job, 0, 0)],
            timers: vec![(job, 3)],
        });
        shapes.push(Shape {
            entries: vec![
                entry(true, job, 0, 0),
                entry(true, job.wrapping_add(1), 0, 0),
            ],
            timers: vec![],
        });
    }
    // Runs: every task-count offset and yield, repeated and mixed with
    // pauses.
    for job in [1u32, 2, 4, 5, 9, 300] {
        for yld in 0..8u8 {
            for off in [-1i8, 0, 1] {
                shapes.push(Shape {
                    entries: vec![entry(false, job, off, yld)],
                    timers: vec![],
                });
            }
        }
        shapes.push(Shape {
            entries: vec![entry(true, job, 0, 0), entry(false, job, 0, 0)],
            timers: vec![(job, 4)],
        });
        shapes.push(Shape {
            entries: vec![entry(false, job, 0, 0), entry(false, job + 3, 0, 0)],
            timers: vec![],
        });
    }
    let mut seen = BTreeSet::new();
    let mut judged = 0;
    for (seed, policy) in [
        (1, FailurePolicy::Restart),
        (2, FailurePolicy::PausePreserve),
        (3, FailurePolicy::Restart),
    ] {
        let (verdicts, n) = run(seed, shapes.clone(), policy);
        seen.extend(verdicts);
        judged += n;
    }
    println!("{judged} plans judged; verdicts: {seen:?}");
    for kind in [
        "no-runs:ok-empty",
        "no-runs:ok",
        "no-runs:UnknownJob",
        "no-runs:DuplicateJob",
        "no-runs:PauseNotRunning",
        "no-runs:TimerInPast",
        "runs:ok",
        "runs:DuplicateJob",
        "runs:InvalidStatus",
        "runs:WrongTaskCount",
        "runs:InvalidYield",
        "runs:UnknownNode",
        "runs:NodeUnavailable",
        "runs:OverCapacityMemory",
        "runs:OverCapacityCpu",
    ] {
        assert!(seen.contains(kind), "no plan reached {kind}: {seen:?}");
    }
}
