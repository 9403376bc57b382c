//! Differential test of the flat placement buffer against the nested
//! pipeline it replaced, kept here verbatim as the reference: the
//! search's bins split into one `Vec<u32>` per job, mapped to one
//! `Vec<NodeId>` per job through the available-node slice, carried
//! through the yield passes as `(job, yield, Vec<NodeId>)` and into the
//! plan one `Vec` at a time.
//!
//! The schedulers write `avail[bin]` straight into the plan's node
//! arena (`dfrs_sched`'s private `EvictionFront::plan`) and settle the
//! yields there, so the reference is compared where both end: at every
//! decision of real simulations, entry for entry — job, node slice, the
//! yield's bits, pauses, order. A probe hands the same `SimState` to a
//! fresh instance of the scheduler, to the persistent one driving the
//! run (whose memo and clean-epoch skip are live), and to the
//! reference. `sharded:dynmcb8:shards=4` is compared in lockstep: the
//! real coordinator over the real inners against the same coordinator
//! over reference inners, decision by decision.
//!
//! A *keep* decision (every running job at yield 1, the waiting tasks
//! one per idle node: no search) is not the reference's plan; it is
//! recognized from its plan and checked against the keep witness
//! (`keep_witness`) instead. The sharded reference's inners apply the
//! keep rule as its definition states it before the nested pipeline.

use dfrs_core::approx;
use dfrs_core::constants::{MIN_STRETCH_PER_YIELD, YIELD_SEARCH_ACCURACY};
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::yield_math;
use dfrs_core::{ClusterSpec, JobSpec};
use dfrs_packing::{
    max_min_dominant_share, max_min_yield, min_max_estimated_stretch, DrfJob, DrfSearchScratch,
    JobLoad, Mcb8, StretchJob,
};
use dfrs_sched::{SchedulerRegistry, Sharded};
use dfrs_sim::{
    simulate, JobStatus, NodeEvent, Plan, PlanEntry, SchedEvent, Scheduler, SimConfig, SimState,
};
use std::sync::{Arc, Mutex};

mod keep_witness;
use keep_witness::{assert_keep, keep_shaped, runs_all_at_full_yield, KeepTally};

/// Tick period of the periodic schedulers under test.
const PERIOD: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    DynMcb8,
    DynMcb8Per,
    DynMcb8AsapPer,
    Drf,
    StretchPer,
}

impl Family {
    fn spec(self) -> String {
        match self {
            Family::DynMcb8 => "dynmcb8".into(),
            Family::DynMcb8Per => format!("dynmcb8-per:t={PERIOD}"),
            Family::DynMcb8AsapPer => format!("dynmcb8-asap-per:t={PERIOD}"),
            Family::Drf => "dynmcb8-drf".into(),
            Family::StretchPer => format!("dynmcb8-stretch-per:t={PERIOD}"),
        }
    }

    fn build(self) -> Box<dyn Scheduler> {
        SchedulerRegistry::builtin()
            .build_str(&self.spec())
            .unwrap()
    }

    fn repacks_on(self, ev: SchedEvent) -> bool {
        match self {
            // ASAP admission between ticks runs no search: only its
            // tick repacks are compared.
            Family::DynMcb8Per | Family::DynMcb8AsapPer | Family::StretchPer => {
                ev == SchedEvent::Tick
            }
            Family::DynMcb8 | Family::Drf => matches!(
                ev,
                SchedEvent::Submit(_)
                    | SchedEvent::Complete(_)
                    | SchedEvent::NodeDown(_)
                    | SchedEvent::NodeUp(_)
            ),
        }
    }
}

// ---------------------------------------------------------------------
// The reference: the nested pipeline of the commit before the flat
// buffer (PR 22), function for function.
// ---------------------------------------------------------------------

/// `yield_search::placements_from`: a bin assignment split into per-job
/// task placements.
fn placements_from(tasks: &[(JobId, u32)], bin_of: &[u32]) -> Vec<(JobId, Vec<u32>)> {
    let mut out = Vec::with_capacity(tasks.len());
    let mut cursor = 0usize;
    for &(job, n) in tasks {
        let nodes = bin_of[cursor..cursor + n as usize].to_vec();
        cursor += n as usize;
        out.push((job, nodes));
    }
    out
}

/// `EvictionFront::nodes_of`: the physical nodes behind bin indices.
fn nodes_of(avail: &[NodeId], bins: &[u32]) -> Vec<NodeId> {
    bins.iter().map(|&b| avail[b as usize]).collect()
}

/// `common::AllocSet`, one owned placement per job.
#[derive(Default)]
struct NestedAllocSet {
    jobs: Vec<(JobId, f64, f64, Vec<NodeId>)>,
    n_nodes: usize,
}

impl NestedAllocSet {
    fn push(&mut self, id: JobId, cpu_need: f64, gpu_need: f64, placement: Vec<NodeId>) {
        for n in &placement {
            self.n_nodes = self.n_nodes.max(n.index() + 1);
        }
        self.jobs.push((id, cpu_need, gpu_need, placement));
    }

    fn optimized_yields(&self, base: f64) -> Vec<(JobId, f64)> {
        let base = base.min(1.0);
        let n = self.jobs.len();
        if base >= 1.0 - approx::EPS && !self.jobs.iter().any(|j| j.2 > 0.0) {
            return self.jobs.iter().map(|j| (j.0, base)).collect();
        }
        let mut yields = vec![base; n];
        let mut alloc = vec![0.0; self.n_nodes];
        for (_, cpu_need, _, placement) in &self.jobs {
            for &node in placement {
                alloc[node.index()] += cpu_need * base;
            }
        }
        let mut frozen = vec![false; n];
        loop {
            let mut pick: Option<usize> = None;
            for (i, (id, cpu_need, _, placement)) in self.jobs.iter().enumerate() {
                if frozen[i] || yields[i] >= 1.0 - approx::EPS {
                    continue;
                }
                let has_slack = placement
                    .iter()
                    .all(|&node| approx::pos(1.0 - alloc[node.index()]));
                if !has_slack {
                    continue;
                }
                let better = match pick {
                    None => true,
                    Some(p) => {
                        let (tp, ti) = (
                            self.jobs[p].1 * self.jobs[p].3.len() as f64,
                            cpu_need * placement.len() as f64,
                        );
                        ti < tp - approx::EPS || (approx::eq(ti, tp) && *id < self.jobs[p].0)
                    }
                };
                if better {
                    pick = Some(i);
                }
            }
            let Some(i) = pick else { break };
            let (_, cpu_need, _, placement) = &self.jobs[i];
            let mut delta = 1.0 - yields[i];
            for (k, &node) in placement.iter().enumerate() {
                if placement[..k].contains(&node) {
                    continue;
                }
                let count = placement[k..].iter().filter(|&&n| n == node).count() as u32;
                let slack = 1.0 - alloc[node.index()];
                delta = delta.min(yield_math::max_yield_increase(
                    slack,
                    cpu_need * count as f64,
                ));
            }
            if delta <= approx::EPS {
                frozen[i] = true;
                continue;
            }
            for &node in placement {
                alloc[node.index()] += cpu_need * delta;
            }
            yields[i] += delta;
            if yields[i] > 1.0 {
                yields[i] = 1.0;
            }
        }
        if self.jobs.iter().any(|j| j.2 > 0.0) {
            let mut gpu = vec![0.0; self.n_nodes];
            for ((_, _, gpu_need, placement), y) in self.jobs.iter().zip(&yields) {
                for &node in placement {
                    gpu[node.index()] += gpu_need * y;
                }
            }
            for ((_, _, gpu_need, placement), y) in self.jobs.iter().zip(yields.iter_mut()) {
                if *gpu_need <= 0.0 {
                    continue;
                }
                let mut factor = 1.0f64;
                for &node in placement {
                    let load = gpu[node.index()];
                    if load > 1.0 {
                        factor = factor.min(load.recip());
                    }
                }
                *y *= factor;
            }
        }
        self.jobs
            .iter()
            .zip(yields)
            .map(|(j, y)| (j.0, y))
            .collect()
    }
}

/// `common::gpu_clamp_assignments` over `(job, yield, placement)`.
fn gpu_clamp_assignments(
    n_nodes: usize,
    gpu_of: impl Fn(JobId) -> f64,
    assignments: &mut [(JobId, f64, Vec<NodeId>)],
) {
    if !assignments.iter().any(|(id, _, _)| gpu_of(*id) > 0.0) {
        return;
    }
    let mut gpu = vec![0.0; n_nodes];
    for (id, yld, placement) in assignments.iter() {
        for &node in placement {
            gpu[node.index()] += gpu_of(*id) * yld;
        }
    }
    for (id, yld, placement) in assignments.iter_mut() {
        if gpu_of(*id) <= 0.0 {
            continue;
        }
        let mut factor = 1.0f64;
        for &node in placement.iter() {
            let load = gpu[node.index()];
            if load > 1.0 {
                factor = factor.min(load.recip());
            }
        }
        *yld *= factor;
    }
}

/// `stretch_per::improve_average_stretch` over `(job, yield, placement)`.
fn improve_average_stretch(
    state: &SimState,
    assignments: &mut [(JobId, f64, Vec<NodeId>)],
    nodes: usize,
) {
    let t = PERIOD;
    let mut alloc = vec![0.0; nodes];
    for (id, yld, placement) in assignments.iter() {
        let need = state.job(*id).spec.cpu_need;
        for n in placement {
            alloc[n.index()] += need * yld;
        }
    }
    let mut frozen = vec![false; assignments.len()];
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, (id, yld, placement)) in assignments.iter().enumerate() {
            if frozen[i] || *yld >= 1.0 - approx::EPS {
                continue;
            }
            let j = state.job(*id);
            if !placement
                .iter()
                .all(|&n| approx::pos(1.0 - alloc[n.index()]))
            {
                continue;
            }
            let flow = (state.now - j.spec.submit_time).max(0.0);
            let denom = j.virtual_time + yld * t;
            let benefit =
                ((flow + t) * t / (denom * denom)) / (j.spec.cpu_need * j.spec.tasks as f64);
            if best.is_none_or(|(_, b)| benefit > b) {
                best = Some((i, benefit));
            }
        }
        let Some((i, _)) = best else { break };
        let (id, yld, placement) = &assignments[i];
        let need = state.job(*id).spec.cpu_need;
        let mut delta = 1.0 - yld;
        for (k, &n) in placement.iter().enumerate() {
            if placement[..k].contains(&n) {
                continue;
            }
            let count = placement[k..].iter().filter(|&&m| m == n).count() as u32;
            delta = delta.min((1.0 - alloc[n.index()]) / (need * count as f64));
        }
        if delta <= approx::EPS {
            frozen[i] = true;
            continue;
        }
        for k in 0..assignments[i].2.len() {
            let n = assignments[i].2[k];
            alloc[n.index()] += need * delta;
        }
        assignments[i].1 = (assignments[i].1 + delta).min(1.0);
    }
}

/// The eviction loop every family ran before the shared front (PR 14's
/// reference): search, and on `None` drop one victim.
fn evict_until_packed<T>(
    state: &SimState,
    family: Family,
    nodes: usize,
    mut search: impl FnMut(&[JobId], usize) -> Option<T>,
) -> (Vec<JobId>, T) {
    let mut candidates: Vec<JobId> = Vec::new();
    if nodes > 0 {
        candidates.extend(state.jobs_in_system().map(|j| j.spec.id));
    }
    loop {
        if let Some(found) = search(&candidates, nodes.max(1)) {
            return (candidates, found);
        }
        let key = |id: JobId| state.job(id).priority_key(state.now);
        let victim = match family {
            Family::Drf => candidates.iter().copied().max_by(|&a, &b| {
                let d = |id: JobId| {
                    let s = &state.job(id).spec;
                    s.dominant_fluid_need() * s.tasks as f64
                };
                d(a).total_cmp(&d(b)).then_with(|| key(b).cmp(&key(a)))
            }),
            _ => candidates.iter().copied().min_by_key(|&id| key(id)),
        }
        .expect("an empty candidate set packs trivially");
        candidates.retain(|&c| c != victim);
    }
}

/// The reference scheduler: on the events its family repacks on, the
/// whole nested pipeline from a cold search; stateless otherwise.
struct Reference(Family);

impl Reference {
    fn repack(&self, state: &SimState) -> Plan {
        let family = self.0;
        let avail: Vec<NodeId> = state.cluster.available_nodes().collect();
        let n_nodes = state.cluster.nodes().len();
        let tasks_of = |ids: &[JobId]| -> Vec<(JobId, u32)> {
            ids.iter()
                .map(|&id| (id, state.job(id).spec.tasks))
                .collect()
        };
        // Search → per-job `Vec<u32>` (+ per-job yields).
        type Found = (Vec<(JobId, Vec<u32>)>, Vec<f64>);
        let (survivors, (bins, yields)) =
            evict_until_packed(state, family, avail.len(), |ids, nodes| -> Option<Found> {
                match family {
                    Family::DynMcb8 | Family::DynMcb8Per | Family::DynMcb8AsapPer => {
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
                        let a = max_min_yield(
                            &loads,
                            nodes,
                            &Mcb8,
                            YIELD_SEARCH_ACCURACY,
                            MIN_STRETCH_PER_YIELD,
                        )?;
                        let yields = vec![a.yield_; ids.len()];
                        Some((placements_from(&tasks_of(ids), &a.bins), yields))
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
                        let a = max_min_dominant_share(
                            &djobs,
                            nodes,
                            YIELD_SEARCH_ACCURACY,
                            MIN_STRETCH_PER_YIELD,
                            &mut DrfSearchScratch::default(),
                        )?;
                        let yields = a.allocations.iter().map(|r| r.1).collect();
                        Some((placements_from(&tasks_of(ids), &a.bins), yields))
                    }
                    Family::StretchPer => {
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
                        let a = min_max_estimated_stretch(&sjobs, nodes, PERIOD, &Mcb8, 0.01)?;
                        let yields = a.assignments.iter().map(|r| r.1).collect();
                        Some((placements_from(&tasks_of(ids), &a.bins), yields))
                    }
                }
            });
        // Per-job `Vec<u32>` → `avail[b]` per job → `(job, yield, Vec<NodeId>)`.
        let mut assignments: Vec<(JobId, f64, Vec<NodeId>)> = bins
            .into_iter()
            .zip(yields)
            .map(|((id, bins), y)| (id, y, nodes_of(&avail, &bins)))
            .collect();
        // The family's yield pass.
        match family {
            Family::DynMcb8 | Family::DynMcb8Per | Family::DynMcb8AsapPer => {
                let mut set = NestedAllocSet::default();
                for (id, _, placement) in &assignments {
                    let spec = &state.job(*id).spec;
                    set.push(*id, spec.cpu_need, spec.gpu_need, placement.clone());
                }
                let base = assignments.first().map_or(1.0, |a| a.1);
                for (a, (id, yld)) in assignments.iter_mut().zip(set.optimized_yields(base)) {
                    assert_eq!(a.0, id);
                    a.1 = yld;
                }
            }
            Family::Drf => {}
            Family::StretchPer => {
                improve_average_stretch(state, &mut assignments, n_nodes);
                gpu_clamp_assignments(n_nodes, |id| state.job(id).spec.gpu_need, &mut assignments);
            }
        }
        // Pauses for the running jobs left out, then one run per job.
        let mut plan = Plan::noop();
        for j in state.running_jobs() {
            if !survivors.contains(&j.spec.id) {
                plan = plan.pause(j.spec.id);
            }
        }
        for (id, yld, placement) in assignments {
            plan = plan.run(id, placement, yld);
        }
        plan
    }
}

impl Scheduler for Reference {
    fn name(&self) -> String {
        format!("reference {:?}", self.0)
    }
    fn period(&self) -> Option<f64> {
        matches!(
            self.0,
            Family::DynMcb8Per | Family::DynMcb8AsapPer | Family::StretchPer
        )
        .then_some(PERIOD)
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        if self.0.repacks_on(ev) {
            self.repack(state)
        } else {
            Plan::noop()
        }
    }
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// A plan as the engine reads it, entry by entry.
#[derive(Debug, PartialEq)]
enum Entry {
    Pause(JobId),
    Run(JobId, Vec<NodeId>, u64),
}

fn entries_of(plan: &Plan) -> Vec<Entry> {
    plan.entries
        .iter()
        .map(|e| match e {
            PlanEntry::Pause { job } => Entry::Pause(*job),
            PlanEntry::Run { job, yld, .. } => {
                Entry::Run(*job, plan.placement(e).to_vec(), yld.to_bits())
            }
        })
        .collect()
}

#[derive(Debug, Default)]
struct Tally {
    decisions: u64,
    /// Decisions that paused a running job.
    evicting: u64,
    /// Decisions made with a node down: bin `b` is not node `b`.
    with_node_down: u64,
    /// Decisions in which some job got a yield other than 1.
    below_full_speed: u64,
    /// Decisions the persistent scheduler answered itself (no
    /// clean-epoch skip).
    persistent: u64,
    /// The fresh instance's keep decisions.
    keep: KeepTally,
}

/// Checks `plan` against the reference's entries: a keep decision
/// passes the keep witness, any other equals the reference entry for
/// entry. Returns whether it was a keep.
fn check(state: &SimState, plan: &Plan, expected: &[Entry], at: &str) -> bool {
    let got = entries_of(plan);
    if got != expected && keep_shaped(state, plan) {
        assert_keep(state, plan, at);
        return true;
    }
    assert_eq!(got, expected, "{at}");
    false
}

/// Drives a run with a persistent scheduler of `family`, checking it
/// and a fresh instance against the reference at every repack.
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
        let plan = self.inner.on_event(ev, state);
        if self.family.repacks_on(ev) {
            let at = format!("{:?} at t={} on {ev:?}", self.family, state.now);
            let reference = Reference(self.family).on_event(ev, state);
            let expected = entries_of(&reference);
            let fresh = self.family.build().on_event(ev, state);
            if check(state, &fresh, &expected, &format!("fresh instance, {at}")) {
                let full = runs_all_at_full_yield(state, &reference);
                self.tally.keep.record(full);
            }
            assert!(fresh.timers.is_empty());
            // The persistent instance may skip a repack that would
            // re-derive the allocation in force; what it does emit is
            // the fresh instance's plan (its memo replays included).
            if !plan.entries.is_empty() {
                let (got, want) = (entries_of(&plan), entries_of(&fresh));
                assert_eq!(got, want, "persistent instance, {at}");
                self.tally.persistent += 1;
            }
            self.tally.decisions += 1;
            self.tally.evicting += expected.iter().any(|e| matches!(e, Entry::Pause(_))) as u64;
            self.tally.with_node_down += (state.cluster.down_nodes() > 0) as u64;
            let full = 1.0f64.to_bits();
            self.tally.below_full_speed += expected
                .iter()
                .any(|e| matches!(e, Entry::Run(_, _, y) if *y != full))
                as u64;
        }
        plan
    }
}

fn run(family: Family, nodes: u32, jobs: &[JobSpec], churn: Vec<NodeEvent>, penalty: f64) -> Tally {
    let mut probe = Probe {
        family,
        inner: family.build(),
        tally: Tally::default(),
    };
    let cfg = SimConfig {
        validate: true,
        node_events: churn,
        penalty,
        ..SimConfig::default()
    };
    let cluster = ClusterSpec::new(nodes, 4, 8.0).unwrap();
    let out = simulate(cluster, jobs, &mut probe, &cfg);
    assert_eq!(out.records.len(), jobs.len(), "every job completes");
    probe.tally
}

/// A loaded trace of 1–4-task jobs: CPU-bound enough that yields drop
/// below 1, memory-heavy enough that repacks evict; every third job
/// wants GPU when `gpu`.
fn trace(n: u32, gpu: bool) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let mem = [0.15, 0.3, 0.45, 0.6][(i % 4) as usize];
            let cpu = [0.9, 0.5, 0.7, 0.3, 1.0][(i % 5) as usize];
            let want = if gpu && i % 3 == 0 { 0.6 } else { 0.0 };
            JobSpec::new(
                JobId(i),
                i as f64 * 7.0,
                1 + i % 4,
                cpu,
                mem,
                220.0 + (i % 7) as f64 * 35.0,
            )
            .unwrap()
            .with_gpu(want)
            .unwrap()
        })
        .collect()
}

/// Bursts of six 1–3-task jobs every 1 200 s: each burst drives yields
/// below 1, and between bursts every job runs at yield 1 with nodes to
/// spare, so keep decisions and searches alternate.
fn bursty_trace(n: u32) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let mem = [0.15, 0.3, 0.45][(i % 3) as usize];
            let cpu = [0.9, 0.5, 0.7, 0.3][(i % 4) as usize];
            let submit = (i / 6) as f64 * 1200.0 + (i % 6) as f64 * 3.0;
            JobSpec::new(
                JobId(i),
                submit,
                1 + i % 3,
                cpu,
                mem,
                120.0 + (i % 5) as f64 * 40.0,
            )
            .unwrap()
        })
        .collect()
}

/// Nodes 1 and 4 fail and come back, overlapping, mid-trace.
fn churn() -> Vec<NodeEvent> {
    let ev = |time, node, up| NodeEvent {
        time,
        node: NodeId(node),
        up,
    };
    vec![
        ev(150.0, 1, false),
        ev(260.0, 4, false),
        ev(420.0, 1, true),
        ev(610.0, 4, true),
    ]
}

const FAMILIES: [Family; 5] = [
    Family::DynMcb8,
    Family::DynMcb8Per,
    Family::DynMcb8AsapPer,
    Family::Drf,
    Family::StretchPer,
];

#[test]
fn plans_equal_the_nested_pipeline_on_a_loaded_trace() {
    for family in FAMILIES {
        let tally = run(family, 6, &trace(90, false), Vec::new(), 0.0);
        assert!(tally.decisions > 10, "{family:?}: {tally:?}");
        assert!(tally.evicting > 0, "{family:?}: {tally:?}");
        assert!(tally.below_full_speed > 0, "{family:?}: {tally:?}");
        assert!(tally.persistent > 0, "{family:?}: {tally:?}");
    }
}

#[test]
fn plans_equal_the_nested_pipeline_with_failures_and_repairs() {
    for family in FAMILIES {
        for penalty in [0.0, 300.0] {
            let tally = run(family, 6, &trace(90, false), churn(), penalty);
            assert!(tally.with_node_down > 2, "{family:?}: {tally:?}");
        }
    }
}

#[test]
fn plans_equal_the_nested_pipeline_with_gpu_jobs() {
    for family in FAMILIES {
        let tally = run(family, 6, &trace(90, true), churn(), 0.0);
        assert!(tally.below_full_speed > 0, "{family:?}: {tally:?}");
    }
}

/// Node 0 is down across the second burst of [`bursty_trace`]: the
/// jobs that arrive then find the cluster idle but its lowest node out
/// of service.
fn outage_at_second_burst() -> Vec<NodeEvent> {
    let ev = |time, up| NodeEvent {
        time,
        node: NodeId(0),
        up,
    };
    vec![ev(1100.0, false), ev(1300.0, true)]
}

/// Keep fires between bursts, with and without churn and the paper's
/// rescheduling penalty, under every trigger of the max-min yield
/// objective; the other objectives never keep. Every keep decision
/// passes the witness, and every other decision equals the reference.
#[test]
fn keep_decisions_pass_the_witness() {
    for family in FAMILIES {
        let yield_objective = !matches!(family, Family::Drf | Family::StretchPer);
        for penalty in [0.0, 300.0] {
            for churn in [Vec::new(), churn(), outage_at_second_burst()] {
                let tally = run(family, 6, &bursty_trace(72), churn, penalty);
                eprintln!("{family:?}, penalty {penalty}: {tally:?}");
                if yield_objective {
                    assert!(tally.keep.total() > 0, "{family:?}: {tally:?}");
                    assert!(tally.decisions > tally.keep.total(), "{tally:?}");
                } else {
                    assert_eq!(tally.keep, KeepTally::default(), "{family:?}");
                }
            }
        }
    }
}

/// One logged decision: when and why, the plan's entries, its timers.
type Logged = (String, Vec<Entry>, Vec<(JobId, u64)>);

/// Logs every decision of the scheduler it wraps.
struct Recorder {
    inner: Box<dyn Scheduler>,
    log: Vec<Logged>,
}

impl Scheduler for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn period(&self) -> Option<f64> {
        self.inner.period()
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        let plan = self.inner.on_event(ev, state);
        let timers = plan.timers.iter().map(|&(j, t)| (j, t.to_bits())).collect();
        self.log
            .push((format!("t={} {ev:?}", state.now), entries_of(&plan), timers));
        plan
    }
}

/// The keep rule as its definition states it: every running job at
/// yield 1, and the waiting jobs' tasks at most the idle in-service
/// nodes (found by a scan of every node). Then every waiting job,
/// ascending id, runs at yield 1 with one task on each next idle node.
fn reference_keep(state: &SimState) -> Option<Plan> {
    if state.running_jobs().any(|j| j.yld != 1.0) {
        return None;
    }
    let cluster = &state.cluster;
    let idle: Vec<NodeId> = (0..cluster.nodes().len() as u32)
        .map(NodeId)
        .filter(|&n| cluster.is_up(n) && cluster.nodes()[n.index()].is_idle())
        .collect();
    let waiting: Vec<(JobId, usize)> = state
        .jobs_in_system()
        .filter(|j| j.status != JobStatus::Running)
        .map(|j| (j.spec.id, j.spec.tasks as usize))
        .collect();
    if waiting.iter().map(|w| w.1).sum::<usize>() > idle.len() {
        return None;
    }
    let mut free = idle.into_iter();
    let mut plan = Plan::noop();
    for (id, tasks) in waiting {
        plan = plan.run(id, free.by_ref().take(tasks).collect(), 1.0);
    }
    Some(plan)
}

/// A reference inner of the sharded lockstep: [`reference_keep`], else
/// the nested pipeline. Tallies its keep decisions against what the
/// pipeline would have decided.
struct KeepOrReference(Arc<Mutex<KeepTally>>);

impl Scheduler for KeepOrReference {
    fn name(&self) -> String {
        "reference keep, then the nested DynMCB8".into()
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        let nested = Reference(Family::DynMcb8).on_event(ev, state);
        if !Family::DynMcb8.repacks_on(ev) {
            return nested;
        }
        match reference_keep(state) {
            Some(plan) => {
                let full = runs_all_at_full_yield(state, &nested);
                self.0.lock().unwrap().record(full);
                plan
            }
            None => nested,
        }
    }
}

#[test]
fn sharded_plans_equal_the_coordinator_over_nested_inners() {
    let tally = Arc::new(Mutex::new(KeepTally::default()));
    for (jobs, churn) in [(trace(120, false), Vec::new()), (trace(120, true), churn())] {
        for penalty in [0.0, 300.0] {
            let real = SchedulerRegistry::builtin()
                .build_str("sharded:dynmcb8:shards=4")
                .unwrap();
            let inners =
                (0..4).map(|_| Box::new(KeepOrReference(tally.clone())) as Box<dyn Scheduler>);
            let nested = Box::new(Sharded::new(inners.collect()));
            let mut logs = Vec::new();
            for inner in [real, nested] {
                let mut recorder = Recorder {
                    inner,
                    log: Vec::new(),
                };
                let cfg = SimConfig {
                    validate: true,
                    node_events: churn.clone(),
                    penalty,
                    ..SimConfig::default()
                };
                // Four shards of three nodes: 4-task jobs are wide and go
                // through the coordinator's own placement.
                let cluster = ClusterSpec::new(12, 4, 8.0).unwrap();
                let out = simulate(cluster, &jobs, &mut recorder, &cfg);
                assert_eq!(out.records.len(), jobs.len());
                logs.push(recorder.log);
            }
            let (nested, real) = (logs.pop().unwrap(), logs.pop().unwrap());
            assert_eq!(real.len(), nested.len());
            let mut moving = 0;
            for (r, n) in real.iter().zip(&nested) {
                assert_eq!(r, n);
                moving += r.1.iter().any(|e| matches!(e, Entry::Run(..))) as u32;
            }
            assert!(moving > 50, "{moving} decisions ran a job");
        }
    }
    let tally = *tally.lock().unwrap();
    eprintln!("sharded keep decisions: {tally:?}");
    assert!(tally.total() > 0, "{tally:?}");
}
