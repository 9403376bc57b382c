//! The vector-packing DFRS algorithms (Section III-B): `DYNMCB8`,
//! `DYNMCB8-PER`, and `DYNMCB8-ASAP-PER`.
//!
//! All three compute *global* allocations with the MCB8 heuristic wrapped
//! in a binary search that maximizes the minimum yield (accuracy 0.01).
//! If no allocation exists at any yield — i.e. memory alone cannot be
//! packed — the lowest-priority job is removed from consideration (and
//! paused if running) and the search retries. The resulting uniform yield
//! is then improved by the average-yield heuristic.
//!
//! * `DYNMCB8` repacks at **every** submission and completion:
//!   near-optimal minimum yield, but aggressive preemption/migration.
//! * `DYNMCB8-PER-T` repacks every `T` seconds (600 in the paper);
//!   arrivals wait in the queue until the next tick.
//! * `DYNMCB8-ASAP-PER-T` additionally admits arrivals immediately when
//!   they fit greedily under memory constraints, letting short jobs run
//!   (and possibly finish) between ticks.

use dfrs_core::constants::{DEFAULT_PERIOD_SECS, MIN_STRETCH_PER_YIELD, YIELD_SEARCH_ACCURACY};
use dfrs_core::ids::{JobId, NodeId};
use dfrs_packing::{
    max_min_yield_warm, BestFitDecreasing, FirstFitDecreasing, JobLoad, Mcb8, RepackMemo,
    SearchScratch, VectorPacker,
};
use dfrs_sim::{Plan, RepackStats, SchedEvent, Scheduler, SimState};

use crate::common::{AllocSet, NodeScratch};
use crate::evict::{EvictionFront, VictimOrder};

/// Which vector-packing heuristic the DYNMCB8 family uses inside the
/// yield binary search. The paper uses MCB8 everywhere; the alternatives
/// exist for the packer ablation (DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackerChoice {
    /// Leinberger et al.'s balance-aware heuristic (the paper's choice).
    #[default]
    Mcb8,
    /// First-fit decreasing baseline.
    FirstFit,
    /// Best-fit decreasing baseline.
    BestFit,
}

impl PackerChoice {
    /// The packer instance (all are zero-sized).
    pub fn packer(&self) -> &'static dyn VectorPacker {
        match self {
            PackerChoice::Mcb8 => &Mcb8,
            PackerChoice::FirstFit => &FirstFitDecreasing,
            PackerChoice::BestFit => &BestFitDecreasing,
        }
    }

    /// Short tag for names/reports.
    pub fn tag(&self) -> &'static str {
        match self {
            PackerChoice::Mcb8 => "mcb8",
            PackerChoice::FirstFit => "ffd",
            PackerChoice::BestFit => "bfd",
        }
    }
}

/// Raw result of the eviction loop + yield binary search.
#[derive(Debug, Clone)]
pub(crate) struct PackedAllocation {
    /// The maximized minimum yield of the packing, in `[min_yield, 1]`.
    pub yield_: f64,
    /// The packing as a plan ([`EvictionFront::plan`]): the running jobs
    /// that had to be evicted paused, every surviving candidate run on
    /// its packed nodes at the uniform `yield_` — the callers settle
    /// the per-job yields in place.
    pub plan: Plan,
    /// Every in-system job was packed: no candidate dropped, no running
    /// job evicted.
    pub clean: bool,
}

/// Reusable buffers for [`packed_allocation`], plus the change-epoch
/// memo behind the dirty-state repack skip: one per scheduler instance,
/// reused across every event of a simulation run.
#[derive(Debug, Default)]
pub(crate) struct RepackScratch {
    front: EvictionFront,
    search: SearchScratch,
    /// Cross-event warm-start state: identical `(job set, nodes)`
    /// searches replay their stored result with zero packs
    /// (`dfrs_packing::memo` has the exactness argument).
    memo: RepackMemo,
    loads: Vec<JobLoad>,
    /// [`SimState::change_epoch`] recorded at the last *eviction-free*
    /// repack decision. A clean repack is a pure function of the
    /// candidate set and the cluster size — not of time — so while the
    /// epoch is unchanged (no submissions, completions, placement or
    /// yield changes since; see `SimState::change_epoch`), replaying it
    /// would re-derive the exact allocation already in force and apply
    /// as a physical no-op. Repacks that evicted are never memoized:
    /// victim selection reads time-dependent priority keys.
    last_clean_epoch: Option<u64>,
    /// Highest epoch ever observed by this scheduler instance. Epochs
    /// are monotone within one simulation and restart at ~0 for a new
    /// one, so an observed decrease proves the instance is being reused
    /// across `simulate` runs and the memo must be dropped (an epoch
    /// from another run says nothing about this run's state).
    last_seen_epoch: u64,
}

impl RepackScratch {
    /// Record `epoch` from the current event; on a new-run detection
    /// (epoch went backwards) the clean-repack memo is invalidated.
    /// Schedulers call this on **every** event so detection happens
    /// before the first tick of a reused instance.
    pub(crate) fn observe_epoch(&mut self, epoch: u64) {
        if epoch < self.last_seen_epoch {
            self.last_clean_epoch = None;
            // The warm-start memo is keyed by complete inputs, so stale
            // entries could never answer wrongly — dropping them on a
            // new-run detection is hygiene (a fresh trace shares no job
            // sets with the old one, so the entries are dead weight).
            self.memo.clear();
            self.front.forget_platform();
        }
        self.last_seen_epoch = self.last_seen_epoch.max(epoch);
    }

    /// The warm-start accounting in the engine's vocabulary.
    pub(crate) fn stats(&self) -> RepackStats {
        let s = self.memo.stats();
        RepackStats {
            searches: s.searches,
            search_hits: s.search_hits,
            packs: s.packs,
            packs_saved: s.packs_saved,
        }
    }
}

/// Eviction front + yield binary search over all jobs in the system
/// (Section III-B): while memory alone cannot be packed, the
/// lowest-priority job is dropped from consideration.
///
/// Packing runs over the **available-node slice**: `avail.len()`
/// anonymous bins, bin `b` landing on physical node `avail[b]`. With
/// every node up the slice is the identity, so failure-free packings
/// are byte-identical to the static-cluster ones; a packing is a pure
/// function of `(loads, bin count)` either way, which is what keeps the
/// warm memo's replays exact across the mapping.
pub(crate) fn packed_allocation(
    state: &SimState,
    packer: &'static dyn VectorPacker,
    scratch: &mut RepackScratch,
) -> PackedAllocation {
    let RepackScratch {
        front,
        search,
        memo,
        loads,
        ..
    } = scratch;
    memo.set_caps_identity(front.platform_identity(state));
    let alloc = front.pack(state, VictimOrder::Priority, |candidates, nodes| {
        loads.clear();
        loads.extend(candidates.iter().map(|&id| {
            let s = &state.job(id).spec;
            JobLoad {
                job: id,
                tasks: s.tasks,
                cpu_need: s.cpu_need,
                mem_req: s.mem_req,
            }
        }));
        max_min_yield_warm(
            loads,
            nodes,
            packer,
            YIELD_SEARCH_ACCURACY,
            MIN_STRETCH_PER_YIELD,
            search,
            memo,
        )
    });
    PackedAllocation {
        yield_: alloc.yield_,
        plan: front.plan(state, &alloc.bins, |_| alloc.yield_),
        clean: front.kept_all(state),
    }
}

/// The full paper pipeline: packing, average-yield improvement, plan —
/// skipped entirely (noop) when nothing observable changed since the
/// last eviction-free repack (see [`RepackScratch::last_clean_epoch`]).
pub(crate) fn repack_all(
    state: &SimState,
    packer: &'static dyn VectorPacker,
    scratch: &mut RepackScratch,
) -> Plan {
    let epoch = state.change_epoch();
    if scratch.last_clean_epoch == Some(epoch) {
        return Plan::noop();
    }
    let PackedAllocation {
        yield_,
        mut plan,
        clean,
    } = packed_allocation(state, packer, scratch);
    // Only a clean repack's outcome is time-independent and therefore
    // memoizable.
    scratch.last_clean_epoch = clean.then_some(epoch);
    // At full yield with no GPU demand the improvement pass is the
    // identity (see `AllocSet::optimized_yields`' fast path), so the
    // packed plan stands as it is on the underloaded hot path.
    // Bit-identical to the general path.
    let full_speed = yield_ >= 1.0 - dfrs_core::approx::EPS
        && plan
            .runs_mut()
            .all(|(id, ..)| state.job(id).spec.gpu_need <= 0.0);
    if !full_speed {
        let mut set = AllocSet::new();
        for (id, placement, _) in plan.runs_mut() {
            let spec = &state.job(id).spec;
            set.push(id, spec.cpu_need, spec.gpu_need, placement);
        }
        for ((id, _, yld), (yid, improved)) in plan.runs_mut().zip(set.optimized_yields(yield_)) {
            debug_assert_eq!(id, yid);
            *yld = improved;
        }
    }
    plan
}

/// `DYNMCB8`: global repack at every submission and completion.
#[derive(Debug, Default)]
pub struct DynMcb8 {
    packer: PackerChoice,
    scratch: RepackScratch,
}

impl DynMcb8 {
    /// Fresh instance with the paper's MCB8 packer.
    pub fn new() -> Self {
        DynMcb8::default()
    }

    /// Ablation constructor: swap the packing heuristic.
    pub fn with_packer(packer: PackerChoice) -> Self {
        DynMcb8 {
            packer,
            scratch: RepackScratch::default(),
        }
    }
}

impl Scheduler for DynMcb8 {
    fn name(&self) -> String {
        match self.packer {
            PackerChoice::Mcb8 => "DynMCB8".into(),
            p => format!("DynMCB8[{}]", p.tag()),
        }
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        self.scratch.observe_epoch(state.change_epoch());
        match ev {
            // The event-driven variant treats a platform change like any
            // other membership change: repack globally — killed jobs
            // re-enter, paused victims may resume. Nothing is flushed:
            // the change epoch bumped, and the warm memo's entries are
            // keyed by the node set's identity.
            SchedEvent::Submit(_)
            | SchedEvent::Complete(_)
            | SchedEvent::NodeDown(_)
            | SchedEvent::NodeUp(_) => repack_all(state, self.packer.packer(), &mut self.scratch),
            _ => Plan::noop(),
        }
    }
    fn repack_stats(&self) -> Option<RepackStats> {
        Some(self.scratch.stats())
    }
}

/// `DYNMCB8-PER-T`: global repack every `T` seconds; arrivals queue until
/// the next tick.
#[derive(Debug)]
pub struct DynMcb8Per {
    period: f64,
    packer: PackerChoice,
    scratch: RepackScratch,
}

impl DynMcb8Per {
    /// The paper's default, T = 600 s.
    pub fn new() -> Self {
        Self::with_period(DEFAULT_PERIOD_SECS)
    }

    /// Custom period (the paper also probed 60 s and 3600 s).
    pub fn with_period(period: f64) -> Self {
        Self::with_packer(period, PackerChoice::Mcb8)
    }

    /// Ablation constructor: swap the packing heuristic.
    pub fn with_packer(period: f64, packer: PackerChoice) -> Self {
        assert!(period > 0.0);
        DynMcb8Per {
            period,
            packer,
            scratch: RepackScratch::default(),
        }
    }
}

impl Default for DynMcb8Per {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for DynMcb8Per {
    fn name(&self) -> String {
        match self.packer {
            PackerChoice::Mcb8 => format!("DynMCB8-per {}", self.period),
            p => format!("DynMCB8-per {}[{}]", self.period, p.tag()),
        }
    }
    fn period(&self) -> Option<f64> {
        Some(self.period)
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        self.scratch.observe_epoch(state.change_epoch());
        match ev {
            SchedEvent::Tick => repack_all(state, self.packer.packer(), &mut self.scratch),
            // Periodic semantics: victims of a failure wait in the
            // queue like fresh arrivals until the next tick (nothing is
            // flushed, see `DynMcb8`).
            _ => Plan::noop(),
        }
    }
    fn repack_stats(&self) -> Option<RepackStats> {
        Some(self.scratch.stats())
    }
}

/// `DYNMCB8-ASAP-PER-T`: periodic repack plus immediate greedy admission
/// of arrivals that fit under memory constraints.
#[derive(Debug)]
pub struct DynMcb8AsapPer {
    period: f64,
    packer: PackerChoice,
    scratch: RepackScratch,
}

impl DynMcb8AsapPer {
    /// The paper's default, T = 600 s.
    pub fn new() -> Self {
        Self::with_period(DEFAULT_PERIOD_SECS)
    }

    /// Custom period.
    pub fn with_period(period: f64) -> Self {
        Self::with_packer(period, PackerChoice::Mcb8)
    }

    /// Ablation constructor: swap the packing heuristic.
    pub fn with_packer(period: f64, packer: PackerChoice) -> Self {
        assert!(period > 0.0);
        DynMcb8AsapPer {
            period,
            packer,
            scratch: RepackScratch::default(),
        }
    }
}

impl Default for DynMcb8AsapPer {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for DynMcb8AsapPer {
    fn name(&self) -> String {
        match self.packer {
            PackerChoice::Mcb8 => format!("DynMCB8-asap-per {}", self.period),
            p => format!("DynMCB8-asap-per {}[{}]", self.period, p.tag()),
        }
    }
    fn period(&self) -> Option<f64> {
        Some(self.period)
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        self.scratch.observe_epoch(state.change_epoch());
        match ev {
            SchedEvent::Tick => repack_all(state, self.packer.packer(), &mut self.scratch),
            SchedEvent::Submit(id) => asap_admit(state, &[id]),
            // ASAP semantics apply to re-arrivals too: greedily admit
            // every waiting job — pending (killed under the restart
            // policy, or backlogged) *and* paused (preserve-policy
            // victims, which re-enter as resumes) — that fits the
            // surviving nodes; anything that does not fit queues for
            // the next tick as usual.
            SchedEvent::NodeDown(_) | SchedEvent::NodeUp(_) => {
                asap_admit(state, &crate::common::waiting_jobs(state))
            }
            _ => Plan::noop(),
        }
    }
    fn repack_stats(&self) -> Option<RepackStats> {
        Some(self.scratch.stats())
    }
}

/// The ASAP greedy-admission pass: place each of `arrivals` (pending
/// or paused jobs, in the given order) on the least-loaded feasible
/// in-service nodes without touching anyone's placement, then
/// rebalance yields over running + admitted (a paused admittee becomes
/// a resume). Jobs that do not fit are left queued for the next tick.
/// A noop when nothing fits.
fn asap_admit(state: &SimState, arrivals: &[JobId]) -> Plan {
    let mut scratch = NodeScratch::from_state(state);
    let mut admitted: Vec<(JobId, Vec<NodeId>)> = Vec::new();
    for &id in arrivals {
        let spec = state.job(id).spec;
        if let Some(placement) = scratch.greedy_place(spec.tasks, spec.cpu_need, spec.mem_req) {
            admitted.push((id, placement));
        }
    }
    if admitted.is_empty() {
        return Plan::noop(); // wait for the next tick
    }
    let mut set = AllocSet::new();
    for j in state.running_jobs() {
        let placement = state.placement(j.spec.id);
        set.push(j.spec.id, j.spec.cpu_need, j.spec.gpu_need, placement);
    }
    for (id, placement) in &admitted {
        let spec = &state.job(*id).spec;
        set.push(*id, spec.cpu_need, spec.gpu_need, placement);
    }
    set.run_all(Plan::noop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{simulate, SimConfig};

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(2, 4, 8.0).unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            validate: true,
            ..SimConfig::default()
        }
    }

    fn job(id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, rt: f64) -> JobSpec {
        JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt).unwrap()
    }

    #[test]
    fn dynmcb8_runs_everything_when_feasible() {
        let jobs = vec![
            job(0, 0.0, 2, 0.5, 0.4, 100.0),
            job(1, 10.0, 1, 0.5, 0.4, 50.0),
        ];
        let out = simulate(cluster(), &jobs, &mut DynMcb8::new(), &cfg());
        assert_eq!(out.max_stretch, 1.0, "underloaded cluster → no slowdown");
    }

    #[test]
    fn dynmcb8_shares_cpu_on_overload() {
        // Four 1-task CPU-bound jobs, 2 nodes: loads 2 and 2 → yield ~0.5.
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 0.0, 1, 1.0, 0.3, 100.0)).collect();
        let out = simulate(cluster(), &jobs, &mut DynMcb8::new(), &cfg());
        for r in &out.records {
            assert!(
                (r.completion - 200.0).abs() < 5.0,
                "completion {} (yield accuracy band)",
                r.completion
            );
        }
    }

    #[test]
    fn dynmcb8_evicts_lowest_priority_on_memory_pressure() {
        // Job 0 fills both nodes' memory; job 1 arrives → one must give
        // way. Job 1 (never run) has infinite priority; job 0 has run →
        // finite → job 0 is evicted.
        let jobs = vec![
            job(0, 0.0, 2, 0.25, 1.0, 100.0),
            job(1, 10.0, 1, 0.25, 0.5, 20.0),
        ];
        let out = simulate(cluster(), &jobs, &mut DynMcb8::new(), &cfg());
        assert!((out.records[1].first_start.unwrap() - 10.0).abs() < 1e-9);
        assert!(out.preemption_count >= 1);
        // Job 0 resumes after job 1 completes (event-driven repack).
        assert!((out.records[0].completion - 120.0).abs() < 1.0);
    }

    #[test]
    fn per_variant_waits_for_ticks() {
        let jobs = vec![job(0, 10.0, 1, 0.5, 0.2, 50.0)];
        let out = simulate(
            cluster(),
            &jobs,
            &mut DynMcb8Per::with_period(600.0),
            &cfg(),
        );
        assert!((out.records[0].first_start.unwrap() - 600.0).abs() < 1e-9);
        assert!((out.records[0].completion - 650.0).abs() < 1e-6);
    }

    #[test]
    fn asap_variant_starts_immediately_when_feasible() {
        let jobs = vec![job(0, 10.0, 1, 0.5, 0.2, 50.0)];
        let out = simulate(
            cluster(),
            &jobs,
            &mut DynMcb8AsapPer::with_period(600.0),
            &cfg(),
        );
        assert!((out.records[0].first_start.unwrap() - 10.0).abs() < 1e-9);
        assert!((out.records[0].completion - 60.0).abs() < 1e-6);
    }

    #[test]
    fn asap_variant_queues_when_memory_blocked() {
        // Job 0 holds all memory until t=700; job 1 (t=10) can't start
        // greedily and must wait for the tick *after* job 0 completes:
        // ticks at 600 (blocked: job 0 still running), 1200 → starts 1200.
        let jobs = vec![
            job(0, 0.0, 2, 0.25, 1.0, 700.0),
            job(1, 10.0, 1, 0.25, 0.5, 20.0),
        ];
        let out = simulate(
            cluster(),
            &jobs,
            &mut DynMcb8AsapPer::with_period(600.0),
            &cfg(),
        );
        let start1 = out.records[1].first_start.unwrap();
        // At the t=600 tick the packer CAN fix this by evicting... the
        // eviction loop only evicts when *memory packing fails*; with job
        // 0 and job 1 both in the system memory indeed cannot fit → the
        // lowest-priority (job 0, already run) is paused and job 1 runs.
        assert!(
            (start1 - 600.0).abs() < 1e-9,
            "asap tick repack should force job 1 in at t=600, got {start1}"
        );
        assert!(out.preemption_count >= 1);
    }

    #[test]
    fn periodic_repack_raises_yields_after_completion_at_tick() {
        // Two CPU-bound jobs on one node (yield 0.5 each). Job 1 finishes
        // at t=100 (vt 50); job 0 keeps yield 0.5 until the t=600 tick.
        let one_node = ClusterSpec::new(1, 4, 8.0).unwrap();
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.3, 400.0),
            job(1, 0.0, 1, 1.0, 0.3, 50.0),
        ];
        let out = simulate(one_node, &jobs, &mut DynMcb8Per::with_period(600.0), &cfg());
        // Both start at tick 600 (PER queues arrivals!): both at 0.5.
        // Job 1 completes at 600 + 100 = 700 (vt 50). Job 0 continues at
        // 0.5 until tick 1200 (vt = 50 + 250 = 300), then yield 1 →
        // completes at 1300.
        assert!((out.records[1].completion - 700.0).abs() < 5.0);
        assert!((out.records[0].completion - 1300.0).abs() < 10.0);
    }

    #[test]
    fn event_driven_repacks_onto_survivors_after_failure() {
        // Two CPU-bound single-task jobs, one per node. Node 1 fails at
        // t=10: its job is killed, the NodeDown repack packs both onto
        // the surviving node (memory allows), and everything completes.
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.3, 100.0),
            job(1, 0.0, 1, 1.0, 0.3, 100.0),
        ];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![dfrs_sim::NodeEvent {
                time: 10.0,
                node: NodeId(1),
                up: false,
            }],
            ..SimConfig::default()
        };
        let out = simulate(cluster(), &jobs, &mut DynMcb8::new(), &cfg);
        assert_eq!(out.restart_count, 1, "exactly one job was on node 1");
        assert!((out.lost_virtual_seconds - 10.0).abs() < 1e-6);
        assert_eq!(out.records.len(), 2);
        // Shared node: both finish, the survivor first.
        assert!(out.records.iter().all(|r| r.completion > 100.0 - 1e-9));
    }

    #[test]
    fn asap_readmits_killed_job_before_the_next_tick() {
        // The lone job is admitted at submit (t=0, node 0); node 0
        // fails at t=10 and ASAP re-admits the killed job on node 1 in
        // the same event — not at the t=600 tick.
        let jobs = vec![job(0, 0.0, 1, 0.5, 0.2, 100.0)];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![dfrs_sim::NodeEvent {
                time: 10.0,
                node: NodeId(0),
                up: false,
            }],
            ..SimConfig::default()
        };
        let out = simulate(
            cluster(),
            &jobs,
            &mut DynMcb8AsapPer::with_period(600.0),
            &cfg,
        );
        assert_eq!(out.restart_count, 1);
        assert!(
            (out.records[0].completion - 110.0).abs() < 1e-6,
            "readmitted at the failure instant, got {}",
            out.records[0].completion
        );
    }

    #[test]
    fn asap_resumes_preserved_victims_before_the_next_tick() {
        // PausePreserve: the victim is paused with its 10 s of progress
        // kept and ASAP resumes it on node 1 at the failure instant —
        // not at the t=600 tick — so it completes at 100 (penalty 0).
        let jobs = vec![job(0, 0.0, 1, 0.5, 0.2, 100.0)];
        let cfg = SimConfig {
            validate: true,
            failure_policy: dfrs_sim::FailurePolicy::PausePreserve,
            node_events: vec![dfrs_sim::NodeEvent {
                time: 10.0,
                node: NodeId(0),
                up: false,
            }],
            ..SimConfig::default()
        };
        let out = simulate(
            cluster(),
            &jobs,
            &mut DynMcb8AsapPer::with_period(600.0),
            &cfg,
        );
        assert_eq!(out.restart_count, 0);
        assert_eq!(out.preemption_count, 1);
        assert!(
            (out.records[0].completion - 100.0).abs() < 1e-6,
            "resumed at the failure instant with progress kept, got {}",
            out.records[0].completion
        );
    }

    #[test]
    fn periodic_variant_restarts_victims_at_the_next_tick() {
        // PER queues re-arrivals: the killed job waits for the tick.
        let jobs = vec![job(0, 0.0, 1, 0.5, 0.2, 100.0)];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![dfrs_sim::NodeEvent {
                time: 650.0,
                node: NodeId(0),
                up: false,
            }],
            ..SimConfig::default()
        };
        let out = simulate(cluster(), &jobs, &mut DynMcb8Per::with_period(600.0), &cfg);
        // Starts at tick 600 on node 0 (or 1); if it was struck at 650
        // it reruns from the t=1200 tick. Either way it completes and
        // the accounting is consistent.
        if out.restart_count == 1 {
            assert!((out.records[0].completion - 1300.0).abs() < 1e-6);
            assert!((out.lost_virtual_seconds - 50.0).abs() < 1e-6);
        } else {
            assert!((out.records[0].completion - 700.0).abs() < 1e-6);
        }
    }

    #[test]
    fn names_include_period() {
        assert_eq!(DynMcb8Per::new().name(), "DynMCB8-per 600");
        assert_eq!(DynMcb8AsapPer::new().name(), "DynMCB8-asap-per 600");
        assert_eq!(DynMcb8::new().name(), "DynMCB8");
    }
}
