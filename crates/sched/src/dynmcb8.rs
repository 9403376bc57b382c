//! The DYNMCB8 family (Section III-B) as one scheduler, [`Repacker`]: a
//! [`Trigger`] (when to repack) × an [`Objective`] (what a repack
//! optimizes).
//!
//! Every objective computes a *global* allocation: while memory alone
//! cannot be packed, the shared eviction front removes the
//! lowest-priority job from consideration (paused if running) and the
//! objective's binary search over the packer retries.
//!
//! The paper's three triggers:
//!
//! * [`Trigger::Event`] repacks at **every** submission, completion and
//!   platform event (`DYNMCB8`): near-optimal minimum yield, but
//!   aggressive preemption/migration.
//! * [`Trigger::Period`] repacks every `T` seconds (600 in the paper);
//!   arrivals and failure victims wait in the queue until the next tick
//!   (`-PER-T`).
//! * [`Trigger::AsapPer`] additionally admits arrivals immediately when
//!   they fit greedily under memory constraints, letting short jobs run
//!   (and possibly finish) between ticks (`-ASAP-PER-T`).
//!
//! The objectives: [`MaxMinYield`] (the paper's max-min yield plus the
//! average-yield improvement), `stretch_per::MinMaxStretch` and
//! `drf::DominantShare`. The registry's six `dynmcb8*` keys are the
//! only way to build it.

use dfrs_core::constants::{MIN_STRETCH_PER_YIELD, YIELD_SEARCH_ACCURACY};
use dfrs_core::ids::{JobId, NodeId};
use dfrs_packing::{
    max_min_yield_warm, BestFitDecreasing, FirstFitDecreasing, JobLoad, Mcb8, RepackMemo,
    SearchScratch, VectorPacker,
};
use dfrs_sim::{Plan, RepackStats, SchedEvent, Scheduler, SimState};

use crate::common::{waiting_jobs, AllocSet, NodeScratch};
use crate::evict::{EvictionFront, VictimOrder};

/// Which vector-packing heuristic [`MaxMinYield`] uses inside the yield
/// binary search. The paper uses MCB8 everywhere; the alternatives
/// exist for the packer ablation (DESIGN.md "Extensions and ablations").
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum PackerChoice {
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
    fn packer(&self) -> &'static dyn VectorPacker {
        match self {
            PackerChoice::Mcb8 => &Mcb8,
            PackerChoice::FirstFit => &FirstFitDecreasing,
            PackerChoice::BestFit => &BestFitDecreasing,
        }
    }
}

/// Which events make [`Repacker`] repack.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Trigger {
    /// At every submission, completion and platform event.
    Event,
    /// Every `T` seconds.
    Period(f64),
    /// Every `T` seconds, plus greedy admission between ticks.
    AsapPer(f64),
}

/// What a repack optimizes: one search through the shared eviction
/// front, turned into a plan.
pub(crate) trait Objective: Send + 'static {
    /// Whether an eviction-free repack is a pure function of the
    /// candidate set and the platform — not of time — so that while the
    /// change epoch is unchanged the repacker may skip it (see
    /// [`Repacker::last_clean_epoch`]).
    const TIME_FREE: bool;

    /// The name's infix after `DynMCB8` and its suffix after the
    /// trigger: `("-drf", "")` under `Period(600)` renders
    /// `DynMCB8-drf-per 600`.
    fn name_parts(&self) -> (&'static str, &'static str);

    /// One repack decision.
    fn repack(&mut self, front: &mut EvictionFront, state: &SimState) -> Plan;

    /// Search accounting so far.
    fn stats(&self) -> RepackStats;

    /// Drop cross-event state when the instance is reused for a new run.
    fn forget_run(&mut self) {}
}

/// The one DYNMCB8 scheduler: `trigger` decides on which events
/// `objective` repacks.
#[derive(Debug)]
pub(crate) struct Repacker<O> {
    trigger: Trigger,
    objective: O,
    front: EvictionFront,
    /// [`SimState::change_epoch`] recorded at the last *eviction-free*
    /// repack of a [time-free](Objective::TIME_FREE) objective. While
    /// the epoch is unchanged (no submissions, completions, placement or
    /// yield changes since; see `SimState::change_epoch`), replaying it
    /// would re-derive the exact allocation already in force and apply
    /// as a physical no-op. Repacks that evicted are never memoized:
    /// victim selection reads time-dependent priority keys.
    last_clean_epoch: Option<u64>,
    /// Highest epoch ever observed by this instance. Epochs are
    /// monotone within one simulation and restart at ~0 for a new one,
    /// so an observed decrease proves the instance is being reused
    /// across `simulate` runs and its caches must be dropped.
    last_seen_epoch: u64,
}

impl<O: Objective> Repacker<O> {
    /// The repacker as the registry hands it out.
    pub(crate) fn boxed(trigger: Trigger, objective: O) -> Box<dyn Scheduler> {
        Box::new(Repacker {
            trigger,
            objective,
            front: EvictionFront::default(),
            last_clean_epoch: None,
            last_seen_epoch: 0,
        })
    }

    fn repack(&mut self, state: &SimState) -> Plan {
        let epoch = state.change_epoch();
        if self.last_clean_epoch == Some(epoch) {
            return Plan::noop();
        }
        let plan = self.objective.repack(&mut self.front, state);
        self.last_clean_epoch = (O::TIME_FREE && self.front.kept_all(state)).then_some(epoch);
        plan
    }
}

impl<O: Objective> Scheduler for Repacker<O> {
    fn name(&self) -> String {
        let (infix, suffix) = self.objective.name_parts();
        match self.trigger {
            Trigger::Event => format!("DynMCB8{infix}{suffix}"),
            Trigger::Period(t) => format!("DynMCB8{infix}-per {t}{suffix}"),
            Trigger::AsapPer(t) => format!("DynMCB8{infix}-asap-per {t}{suffix}"),
        }
    }

    fn period(&self) -> Option<f64> {
        match self.trigger {
            Trigger::Event => None,
            Trigger::Period(t) | Trigger::AsapPer(t) => Some(t),
        }
    }

    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        // Observed on every event, so a reused instance is detected
        // before its first repack.
        let epoch = state.change_epoch();
        if epoch < self.last_seen_epoch {
            self.last_clean_epoch = None;
            self.objective.forget_run();
            self.front.forget_platform();
        }
        self.last_seen_epoch = self.last_seen_epoch.max(epoch);
        match (self.trigger, ev) {
            // The event-driven trigger treats a platform change like any
            // other membership change: repack globally — killed jobs
            // re-enter, paused victims may resume.
            (
                Trigger::Event,
                SchedEvent::Submit(_)
                | SchedEvent::Complete(_)
                | SchedEvent::NodeDown(_)
                | SchedEvent::NodeUp(_),
            )
            | (Trigger::Period(_) | Trigger::AsapPer(_), SchedEvent::Tick) => self.repack(state),
            (Trigger::AsapPer(_), SchedEvent::Submit(id)) => asap_admit(state, &[id]),
            // ASAP semantics apply to re-arrivals too: greedily admit
            // every waiting job — pending (killed under the restart
            // policy, or backlogged) *and* paused (preserve-policy
            // victims, which re-enter as resumes) — that fits the
            // surviving nodes; anything that does not fit queues for
            // the next tick as usual.
            (Trigger::AsapPer(_), SchedEvent::NodeDown(_) | SchedEvent::NodeUp(_)) => {
                asap_admit(state, &waiting_jobs(state))
            }
            // Periodic semantics: arrivals and failure victims wait for
            // the next tick. Nothing is flushed: the change epoch
            // bumped, and the warm memo's entries are keyed by the node
            // set's identity.
            _ => Plan::noop(),
        }
    }

    fn repack_stats(&self) -> Option<RepackStats> {
        Some(self.objective.stats())
    }
}

/// The paper's objective: maximize the minimum yield (accuracy 0.01)
/// over the chosen packer, then raise yields with the average-yield
/// improvement heuristic. A repack in which every job can run at yield
/// 1 without moving a running task keeps what still fits and runs no
/// search ([`EvictionFront::keep`]).
#[derive(Debug, Default)]
pub(crate) struct MaxMinYield {
    packer: PackerChoice,
    search: SearchScratch,
    /// Cross-event warm-start state: identical `(job set, nodes)`
    /// searches replay their stored result with zero packs
    /// (`dfrs_packing::memo` has the exactness argument).
    memo: RepackMemo,
    loads: Vec<JobLoad>,
    /// The improvement pass's set, cleared and refilled per decision.
    set: AllocSet,
}

impl MaxMinYield {
    pub(crate) fn new(packer: PackerChoice) -> Self {
        MaxMinYield {
            packer,
            ..MaxMinYield::default()
        }
    }

    /// Eviction front + yield binary search over all jobs in the system:
    /// the maximized minimum yield, in `[min_yield, 1]`, and the packing
    /// as a plan ([`EvictionFront::plan`]) with every survivor at that
    /// uniform yield.
    ///
    /// Packing runs over the **available-node slice**: `avail.len()`
    /// anonymous bins, bin `b` landing on physical node `avail[b]`. With
    /// every node up the slice is the identity, so failure-free packings
    /// are byte-identical to the static-cluster ones; a packing is a
    /// pure function of `(loads, bin count)` either way, which is what
    /// keeps the warm memo's replays exact across the mapping.
    pub(crate) fn pack(&mut self, front: &mut EvictionFront, state: &SimState) -> (f64, Plan) {
        let MaxMinYield {
            packer,
            search,
            memo,
            loads,
            ..
        } = self;
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
                packer.packer(),
                YIELD_SEARCH_ACCURACY,
                MIN_STRETCH_PER_YIELD,
                search,
                memo,
            )
        });
        (
            alloc.yield_,
            front.plan(state, &alloc.bins, |_| alloc.yield_),
        )
    }
}

impl Objective for MaxMinYield {
    const TIME_FREE: bool = true;

    fn name_parts(&self) -> (&'static str, &'static str) {
        let tag = match self.packer {
            PackerChoice::Mcb8 => "",
            PackerChoice::FirstFit => "[ffd]",
            PackerChoice::BestFit => "[bfd]",
        };
        ("", tag)
    }

    fn repack(&mut self, front: &mut EvictionFront, state: &SimState) -> Plan {
        // Keep what still fits: with every job at yield 1 and no task
        // moved, no search can find a higher yield (DESIGN.md "Keep
        // what still fits").
        if let Some(plan) = front.keep(state) {
            return plan;
        }
        let (yield_, mut plan) = self.pack(front, state);
        // At full yield with no GPU demand the improvement pass is the
        // identity (see `AllocSet::optimized_yields`' fast path), so the
        // packed plan stands as it is on the underloaded hot path.
        // Bit-identical to the general path.
        let full_speed = yield_ >= 1.0 - dfrs_core::approx::EPS
            && plan
                .runs_mut()
                .all(|(id, ..)| state.job(id).spec.gpu_need <= 0.0);
        if !full_speed {
            let set = &mut self.set;
            set.clear();
            for (id, placement, _) in plan.runs_mut() {
                let spec = &state.job(id).spec;
                set.push(id, spec.cpu_need, spec.gpu_need, placement);
            }
            for ((_, _, yld), &improved) in plan.runs_mut().zip(set.optimized_yields(yield_)) {
                *yld = improved;
            }
        }
        plan
    }

    fn stats(&self) -> RepackStats {
        let s = self.memo.stats();
        RepackStats {
            searches: s.searches,
            search_hits: s.search_hits,
            packs: s.packs,
            packs_saved: s.packs_saved,
        }
    }

    fn forget_run(&mut self) {
        // The memo is keyed by complete inputs, so stale entries could
        // never answer wrongly — dropping them is hygiene (a fresh trace
        // shares no job sets with the old one).
        self.memo.clear();
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

/// A scheduler from a built-in spec string, for the family's tests.
#[cfg(test)]
pub(crate) fn build(spec: &str) -> Box<dyn Scheduler> {
    crate::SchedulerRegistry::builtin().build_str(spec).unwrap()
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
        let out = simulate(cluster(), &jobs, build("dynmcb8").as_mut(), &cfg());
        assert_eq!(out.max_stretch, 1.0, "underloaded cluster → no slowdown");
    }

    #[test]
    fn dynmcb8_shares_cpu_on_overload() {
        // Four 1-task CPU-bound jobs, 2 nodes: loads 2 and 2 → yield ~0.5.
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 0.0, 1, 1.0, 0.3, 100.0)).collect();
        let out = simulate(cluster(), &jobs, build("dynmcb8").as_mut(), &cfg());
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
        let out = simulate(cluster(), &jobs, build("dynmcb8").as_mut(), &cfg());
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
            build("dynmcb8-per:t=600").as_mut(),
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
            build("dynmcb8-asap-per:t=600").as_mut(),
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
            build("dynmcb8-asap-per:t=600").as_mut(),
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
        let out = simulate(one_node, &jobs, build("dynmcb8-per:t=600").as_mut(), &cfg());
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
        let out = simulate(cluster(), &jobs, build("dynmcb8").as_mut(), &cfg);
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
            build("dynmcb8-asap-per:t=600").as_mut(),
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
            build("dynmcb8-asap-per:t=600").as_mut(),
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
        let out = simulate(cluster(), &jobs, build("dynmcb8-per:t=600").as_mut(), &cfg);
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
        assert_eq!(build("dynmcb8-per").name(), "DynMCB8-per 600");
        assert_eq!(build("dynmcb8-asap-per").name(), "DynMCB8-asap-per 600");
        assert_eq!(build("dynmcb8").name(), "DynMCB8");
    }
}
