//! The greedy DFRS algorithms (Section III-A): `GREEDY`, `GREEDY-PMTN`,
//! and `GREEDY-PMTN-MIGR`.
//!
//! All three place tasks one at a time on the least CPU-loaded node with
//! sufficient free memory, then give every running job the equal-share
//! yield `1/max(1, Λ)` improved by the average-yield heuristic. They
//! differ in what happens when an arriving job does not fit:
//!
//! * **GREEDY** postpones it with bounded exponential backoff
//!   (`min(2¹², 2^count)` seconds) — which can starve jobs;
//! * **GREEDY-PMTN** forces admission by pausing running jobs, chosen by
//!   increasing priority, with a second pass that un-marks (in decreasing
//!   priority) any candidate that can stay; paused jobs are resumed at
//!   later events in decreasing priority order;
//! * **GREEDY-PMTN-MIGR** additionally lets the jobs paused *at this
//!   event* be re-placed immediately on different nodes — a migration.

use std::collections::{HashMap, HashSet};

use dfrs_core::constants::BACKOFF_CAP_SECS;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_sim::{JobStatus, Plan, SchedEvent, Scheduler, SimState};

use crate::common::{by_increasing_priority, AllocSet, NodeScratch};

/// The greedy driver: one scheduler, two switches.
#[derive(Debug)]
pub(crate) struct Greedy {
    /// Force admission by pausing lower-priority jobs (GREEDY-PMTN).
    pmtn: bool,
    /// Also re-place the jobs paused at this event (GREEDY-PMTN-MIGR).
    migr: bool,
    /// Virtual-time exponent of the priority function (paper: 2; the
    /// exponent-1 variant exists for the ablation of Section III-A).
    priority_exponent: f64,
    backoff: HashMap<JobId, u32>,
    /// Jobs with an outstanding backoff timer. Kept so the node-event
    /// rescue pass never arms a second concurrent timer chain for a job
    /// that already has one (each chain would re-arm itself via
    /// `on_arrival`, multiplying scheduler rounds under heavy churn).
    armed: HashSet<JobId>,
}

impl Greedy {
    /// `GREEDY`, `GREEDY-PMTN` (`pmtn`) or `GREEDY-PMTN-MIGR` (`pmtn`
    /// and `migr`), pausing by a priority with virtual-time exponent
    /// `priority_exponent`.
    pub(crate) fn new(pmtn: bool, migr: bool, priority_exponent: f64) -> Self {
        debug_assert!(pmtn || !migr, "migration re-places paused jobs");
        debug_assert!(priority_exponent > 0.0);
        Greedy {
            pmtn,
            migr,
            priority_exponent,
            backoff: HashMap::new(),
            armed: HashSet::new(),
        }
    }

    /// Emit the final plan: pauses, then runs for **every** job that will
    /// be running (members with planned placements; survivors with their
    /// current ones), with yields recomputed by the paper's two-step
    /// rule.
    fn emit(
        &self,
        state: &SimState,
        paused: Vec<JobId>,
        new_runs: Vec<(JobId, Vec<NodeId>)>,
    ) -> Plan {
        let mut set = AllocSet::new();
        for j in state.running_jobs() {
            if paused.contains(&j.spec.id) {
                continue;
            }
            // A running job being re-placed this event (migr) is covered
            // by new_runs below.
            if new_runs.iter().any(|(id, _)| *id == j.spec.id) {
                continue;
            }
            let placement = state.placement(j.spec.id);
            set.push(j.spec.id, j.spec.cpu_need, j.spec.gpu_need, placement);
        }
        for (id, placement) in &new_runs {
            let spec = &state.job(*id).spec;
            set.push(*id, spec.cpu_need, spec.gpu_need, placement);
        }
        let mut plan = Plan::noop();
        for id in paused {
            plan = plan.pause(id);
        }
        set.run_all(plan)
    }

    /// Resume paused jobs in decreasing priority order onto `scratch`,
    /// appending to `runs`. `eligible` filters which paused jobs may come
    /// back (PMTN excludes those paused at this very event).
    fn resume_paused(
        &self,
        state: &SimState,
        scratch: &mut NodeScratch,
        runs: &mut Vec<(JobId, Vec<NodeId>)>,
        eligible: impl Fn(JobId) -> bool,
    ) {
        let order = by_increasing_priority(
            state,
            |j| j.status == JobStatus::Paused,
            self.priority_exponent,
        );
        for id in order.into_iter().rev() {
            if !eligible(id) {
                continue;
            }
            let spec = &state.job(id).spec;
            if let Some(p) = scratch.greedy_place(spec.tasks, spec.cpu_need, spec.mem_req) {
                runs.push((id, p));
            }
        }
    }

    fn on_arrival(&mut self, id: JobId, state: &SimState) -> Plan {
        // Fresh submit, or this job's timer just fired (consumed): no
        // outstanding timer either way.
        self.armed.remove(&id);
        let spec = state.job(id).spec;
        let mut scratch = NodeScratch::from_state(state);

        if let Some(placement) = scratch.greedy_place(spec.tasks, spec.cpu_need, spec.mem_req) {
            let mut runs = vec![(id, placement)];
            if self.pmtn {
                self.resume_paused(state, &mut scratch, &mut runs, |_| true);
            }
            return self.emit(state, Vec::new(), runs);
        }

        if !self.pmtn {
            // Postpone with bounded exponential backoff.
            return Plan::noop().timer(id, self.next_backoff(id, state.now));
        }

        // Forced admission. Mark running jobs by increasing priority
        // until the newcomer would fit if all marked were paused.
        let order = by_increasing_priority(
            state,
            |j| j.status == JobStatus::Running,
            self.priority_exponent,
        );
        let mut marked: Vec<JobId> = Vec::new();
        let mut fits = false;
        for cand in order {
            let cs = &state.job(cand).spec;
            scratch.remove_job(state.placement(cand), cs.cpu_need, cs.mem_req);
            marked.push(cand);
            if scratch
                .clone()
                .greedy_place(spec.tasks, spec.cpu_need, spec.mem_req)
                .is_some()
            {
                fits = true;
                break;
            }
        }
        if !fits {
            // Even pausing every running job leaves no room — possible
            // only while failures keep too few nodes in service (the
            // trace validated against the full cluster). Wait out the
            // outage with the same bounded backoff GREEDY uses; the
            // timer redelivers the arrival and forced admission retries.
            assert!(
                state.cluster.down_nodes() > 0,
                "job {id} cannot start even on an empty cluster (tasks={} nodes={})",
                spec.tasks,
                state.cluster.nodes().len()
            );
            return Plan::noop().timer(id, self.next_backoff(id, state.now));
        }

        // Unmark pass, in decreasing priority: keep a candidate running
        // if the newcomer still fits without pausing it.
        let mut still_marked: Vec<JobId> = Vec::new();
        for &cand in marked.iter().rev() {
            let cs = &state.job(cand).spec;
            let placement = state.placement(cand);
            // Tentatively leave it running.
            for &n in placement {
                scratch.add_task(n, cs.cpu_need, cs.mem_req);
            }
            if scratch
                .clone()
                .greedy_place(spec.tasks, spec.cpu_need, spec.mem_req)
                .is_none()
            {
                // Must pause after all.
                scratch.remove_job(placement, cs.cpu_need, cs.mem_req);
                still_marked.push(cand);
            }
        }

        let placement = scratch
            .greedy_place(spec.tasks, spec.cpu_need, spec.mem_req)
            .expect("mark phase guarantees room");
        let mut runs = vec![(id, placement)];

        let mut paused = still_marked;
        if self.migr {
            // Re-place the just-paused jobs immediately where possible:
            // emitted as Run entries on running jobs = migration.
            let mut kept: Vec<JobId> = Vec::new();
            let order: Vec<JobId> = {
                // Decreasing priority among the marked jobs.
                let mut v = by_increasing_priority(
                    state,
                    |j| paused.contains(&j.spec.id),
                    self.priority_exponent,
                );
                v.reverse();
                v
            };
            for cand in order {
                let cs = &state.job(cand).spec;
                if let Some(p) = scratch.greedy_place(cs.tasks, cs.cpu_need, cs.mem_req) {
                    runs.push((cand, p));
                } else {
                    kept.push(cand);
                }
            }
            paused = kept;
        }
        // Previously-paused jobs may also return now that the cluster was
        // reshuffled (both variants).
        let freshly_paused: Vec<JobId> = paused.clone();
        let mut resumes = Vec::new();
        self.resume_paused(state, &mut scratch, &mut resumes, |j| {
            !freshly_paused.contains(&j)
        });
        runs.extend(resumes);

        self.emit(state, paused, runs)
    }

    fn on_completion(&mut self, state: &SimState) -> Plan {
        let mut scratch = NodeScratch::from_state(state);
        let mut runs = Vec::new();
        // Unconditional (not PMTN-gated): plain GREEDY never pauses on
        // its own, so without failures this resumes nothing and
        // behavior is unchanged — but victims of the preserve failure
        // policy must be resumable by every variant.
        self.resume_paused(state, &mut scratch, &mut runs, |_| true);
        // Even without resumes, freed capacity changes the equal-share
        // yield and the improvement slack.
        self.emit(state, Vec::new(), runs)
    }

    /// The bounded exponential backoff instant for `id` (attempt count
    /// bumped, job marked as holding a timer).
    fn next_backoff(&mut self, id: JobId, now: f64) -> f64 {
        let count = self.backoff.entry(id).or_insert(0);
        *count += 1;
        self.armed.insert(id);
        now + (2.0f64).powi(*count as i32).min(BACKOFF_CAP_SECS)
    }

    /// Platform event (failure or repair): the engine already evicted
    /// the victims — `Pending` with zero progress under the restart
    /// policy, `Paused` under preserve. Try to (re)start every pending
    /// job greedily (highest priority first; a killed job's zero
    /// virtual time makes its priority infinite, so victims go first),
    /// resume paused jobs where room remains, and give any job that
    /// does not fit a backoff timer so it is never stranded — its timer
    /// redelivers the arrival, where the PMTN variants may force
    /// admission.
    fn on_node_event(&mut self, state: &SimState) -> Plan {
        let mut scratch = NodeScratch::from_state(state);
        let mut runs: Vec<(JobId, Vec<NodeId>)> = Vec::new();
        let mut timers: Vec<(JobId, f64)> = Vec::new();
        let order = by_increasing_priority(
            state,
            |j| j.status == JobStatus::Pending,
            self.priority_exponent,
        );
        for id in order.into_iter().rev() {
            let spec = &state.job(id).spec;
            match scratch.greedy_place(spec.tasks, spec.cpu_need, spec.mem_req) {
                Some(p) => {
                    // Starting cancels any outstanding timer in the
                    // engine; mirror that here.
                    self.armed.remove(&id);
                    runs.push((id, p));
                }
                // One live timer chain per job: a backlogged arrival
                // already holds one and will retry on its own.
                None if !self.armed.contains(&id) => {
                    timers.push((id, self.next_backoff(id, state.now)));
                }
                None => {}
            }
        }
        // Unconditional for the same reason as in `on_completion`.
        self.resume_paused(state, &mut scratch, &mut runs, |_| true);
        let mut plan = self.emit(state, Vec::new(), runs);
        plan.timers.extend(timers);
        plan
    }
}

impl Scheduler for Greedy {
    fn name(&self) -> String {
        match (self.pmtn, self.migr) {
            (false, _) => "Greedy",
            (true, false) => "Greedy-pmtn",
            (true, true) => "Greedy-pmtn-migr",
        }
        .into()
    }

    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        match ev {
            SchedEvent::Submit(id) | SchedEvent::Timer(id) => self.on_arrival(id, state),
            SchedEvent::Complete(id) => {
                // A completed job never backs off again.
                self.backoff.remove(&id);
                self.on_completion(state)
            }
            SchedEvent::NodeDown(_) | SchedEvent::NodeUp(_) => self.on_node_event(state),
            SchedEvent::Tick => Plan::noop(),
            SchedEvent::Withdraw(id) => {
                // The job leaves this scheduler's jurisdiction: drop its
                // timer bookkeeping so a stale chain can never re-arm.
                self.armed.remove(&id);
                self.backoff.remove(&id);
                Plan::noop()
            }
        }
    }
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

    fn greedy() -> Greedy {
        Greedy::new(false, false, 2.0)
    }

    fn pmtn() -> Greedy {
        Greedy::new(true, false, 2.0)
    }

    fn pmtn_migr() -> Greedy {
        Greedy::new(true, true, 2.0)
    }

    #[test]
    fn greedy_time_shares_cpu_heavy_jobs() {
        // Two 1-task CPU-bound jobs with small memory on a 2-node cluster:
        // each gets its own node at yield 1.0.
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.1, 100.0),
            job(1, 0.0, 1, 1.0, 0.1, 100.0),
        ];
        let out = simulate(cluster(), &jobs, &mut greedy(), &cfg());
        assert_eq!(out.max_stretch, 1.0);
        assert!((out.records[0].completion - 100.0).abs() < 1e-6);
    }

    #[test]
    fn greedy_overcommits_cpu_when_memory_allows() {
        // Three 2-task CPU-bound jobs, memory 0.3 each: 6 tasks over 2
        // nodes → 3 per node, load 3 → yield 1/3 → 300 s completions.
        let jobs: Vec<JobSpec> = (0..3).map(|i| job(i, 0.0, 2, 1.0, 0.3, 100.0)).collect();
        let out = simulate(cluster(), &jobs, &mut greedy(), &cfg());
        for r in &out.records {
            assert!(
                (r.completion - 300.0).abs() < 1e-6,
                "completion {}",
                r.completion
            );
        }
        assert!((out.max_stretch - 3.0).abs() < 1e-6);
    }

    #[test]
    fn greedy_postpones_on_memory_pressure_with_backoff() {
        // Job 0 hogs all memory of both nodes for 100 s; job 1 arrives at
        // t=1 and cannot fit → backoff retries at 1+2, +4, ..., until
        // after t=100; it must start eventually and complete.
        let jobs = vec![
            job(0, 0.0, 2, 0.25, 1.0, 100.0),
            job(1, 1.0, 1, 0.25, 0.5, 10.0),
        ];
        let out = simulate(cluster(), &jobs, &mut greedy(), &cfg());
        let r1 = &out.records[1];
        assert!(
            r1.first_start.unwrap() > 100.0,
            "started at {:?}",
            r1.first_start
        );
        // Backoff: retries at t=3, 7, 15, 31, 63, 127 → starts at 127.
        assert!((r1.first_start.unwrap() - 127.0).abs() < 1e-6);
        assert_eq!(out.preemption_count, 0);
    }

    #[test]
    fn backoff_counts_leave_with_their_jobs() {
        // The backoff scenario above: job 1 retries six times, then
        // runs; once both jobs completed, no count is left behind.
        let jobs = vec![
            job(0, 0.0, 2, 0.25, 1.0, 100.0),
            job(1, 1.0, 1, 0.25, 0.5, 10.0),
        ];
        let mut g = greedy();
        let out = simulate(cluster(), &jobs, &mut g, &cfg());
        assert!((out.records[1].first_start.unwrap() - 127.0).abs() < 1e-6);
        assert!(g.backoff.is_empty(), "{:?}", g.backoff);
    }

    #[test]
    fn greedy_pmtn_forces_admission_by_pausing() {
        // Same memory-pressure scenario: PMTN pauses job 0 (the only
        // candidate) to start job 1 immediately at t=1.
        let jobs = vec![
            job(0, 0.0, 2, 0.25, 1.0, 100.0),
            job(1, 1.0, 1, 0.25, 0.5, 10.0),
        ];
        let out = simulate(cluster(), &jobs, &mut pmtn(), &cfg());
        let r1 = &out.records[1];
        assert!((r1.first_start.unwrap() - 1.0).abs() < 1e-9);
        assert!((r1.completion - 11.0).abs() < 1e-6);
        assert_eq!(out.preemption_count, 1, "job 0 paused once");
        // Job 0: ran 1 s, paused 1..11, resumed → completes at 110.
        assert!((out.records[0].completion - 110.0).abs() < 1e-6);
    }

    #[test]
    fn greedy_pmtn_unmark_pass_keeps_high_priority_jobs() {
        // Node memory: two running jobs each hold 0.6 on separate nodes.
        // A newcomer needs 0.4 on one node: pausing ONE suffices; the
        // unmark pass must keep the other running.
        let jobs = vec![
            job(0, 0.0, 1, 0.25, 0.6, 50.0),
            job(1, 5.0, 1, 0.25, 0.6, 50.0),
            job(2, 10.0, 2, 0.25, 0.7, 20.0), // needs 0.7 on both nodes
        ];
        let out = simulate(cluster(), &jobs, &mut pmtn(), &cfg());
        // Both 0 and 1 must be marked (job 2 needs 0.7 free on both
        // nodes), so expect 2 preemptions... unmark can keep neither.
        assert_eq!(out.preemption_count, 2);
        assert!((out.records[2].first_start.unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_pmtn_resumes_in_priority_order_after_completion() {
        let jobs = vec![
            job(0, 0.0, 2, 0.25, 1.0, 100.0),
            job(1, 1.0, 1, 0.25, 0.5, 10.0),
        ];
        let out = simulate(cluster(), &jobs, &mut pmtn(), &cfg());
        // Job 0 resumes when job 1 completes at t=11; its remaining 99 s
        // finish at t=110.
        assert!((out.records[0].completion - 110.0).abs() < 1e-6);
    }

    #[test]
    fn greedy_pmtn_migr_replaces_paused_jobs_same_event() {
        // Job 0: 1 task, 0.8 memory on node A. Job 1: 1 task, 0.8 memory
        // (goes to node B). Job 2 arrives needing 2 tasks × 0.6: both
        // nodes must free memory; one paused job can come back on the
        // other node? 0.6+0.8 > 1 → no. Instead: job 0 (0.3 mem on A),
        // job 1 (0.3 on B), job 2 needs 2 × 0.8 → pause both; after
        // placing job 2 (0.8 each node), 0.2 free per node → neither
        // fits back. Make them 0.15: they fit back → migrations.
        let jobs = vec![
            job(0, 0.0, 1, 0.25, 0.15, 100.0),
            job(1, 1.0, 1, 0.25, 0.15, 100.0),
            job(2, 10.0, 2, 0.25, 0.8, 20.0),
        ];
        let out = simulate(cluster(), &jobs, &mut pmtn_migr(), &cfg());
        // With 0.15+0.8 < 1: nothing needs pausing at all (greedy fit).
        // Check no preemptions and everyone runs immediately.
        assert_eq!(out.preemption_count + out.migration_count, 0);

        // Now with memory that forces the reshuffle:
        let jobs = vec![
            job(0, 0.0, 1, 0.25, 0.55, 100.0),
            job(1, 1.0, 1, 0.25, 0.55, 100.0),
            job(2, 10.0, 2, 0.25, 0.45, 20.0),
        ];
        // Greedy would spread 0/1 across nodes; job 2 needs 0.45 on each
        // → 0.55+0.45 = 1.0 exactly fits! Choose 0.5 to break that.
        let _ = jobs;
        let jobs = vec![
            job(0, 0.0, 1, 0.25, 0.55, 100.0),
            job(1, 1.0, 1, 0.25, 0.55, 100.0),
            job(2, 10.0, 2, 0.25, 0.5, 20.0),
        ];
        let out = simulate(cluster(), &jobs, &mut pmtn_migr(), &cfg());
        // One of jobs 0/1 is paused (lower priority = job 1, same vt but
        // later submission... job 1 has less virtual time: priorities:
        // both finite; job 0 vt=10, job 1 vt=9 → priority 0 = 30/100,
        // priority 1 = 30/81 → job 0 has LOWER priority → job 0 marked
        // first. After job 2 placed (0.5+0.5), 0.45 free on job 0's old
        // node... 1 − 0.5 − 0.55(job1? no job1 is on other node).
        // Node A: job2 task (0.5) → 0.5 free ≥ 0.55? No. Node B: job 1
        // (0.55) + job2 task (0.5) = 1.05 > 1 → job 2's tasks: one per
        // node; B had 0.55 used, 0.5 doesn't fit → both of job 2's tasks
        // can't be placed without pausing BOTH 0 and 1? A after pausing 0:
        // free 1.0 ≥ 0.5 ✓; B: 0.55+0.5 > 1 ✗ → must pause job 1 too.
        // Then unmark (decreasing priority: job 1 first): restore job 1:
        // can job 2 still fit? A: 0.5 ✓, B: 0.55+0.5 > 1... place both
        // tasks on A? 0.5+0.5 = 1.0 ✓ memory! Yes → job 1 stays.
        // Then job 0 restore: A full (1.0), B has 0.45 free < 0.55 → job
        // 0 stays marked. MIGR: re-place job 0: B free 0.45 < 0.55 → no.
        // So: 1 preemption (job 0), 0 migrations.
        assert_eq!(out.preemption_count, 1);
        assert!((out.records[2].first_start.unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn killed_job_restarts_on_surviving_node() {
        // Job 0 runs alone; greedy places its single task on node 0.
        // Node 0 fails at t=10: the job loses 10 s of progress and the
        // rescue pass restarts it immediately on node 1.
        let jobs = vec![job(0, 0.0, 1, 0.5, 0.3, 100.0)];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![
                dfrs_sim::NodeEvent {
                    time: 10.0,
                    node: NodeId(0),
                    up: false,
                },
                dfrs_sim::NodeEvent {
                    time: 5_000.0,
                    node: NodeId(0),
                    up: true,
                },
            ],
            ..SimConfig::default()
        };
        for sched in [
            &mut greedy() as &mut dyn dfrs_sim::Scheduler,
            &mut pmtn(),
            &mut pmtn_migr(),
        ] {
            let out = simulate(cluster(), &jobs, sched, &cfg);
            assert_eq!(out.restart_count, 1);
            assert!((out.lost_virtual_seconds - 10.0).abs() < 1e-6);
            assert!(
                (out.records[0].completion - 110.0).abs() < 1e-6,
                "restart from scratch at t=10: {}",
                out.records[0].completion
            );
        }
    }

    #[test]
    fn preserve_policy_resumes_with_progress_kept() {
        // Same failure, but under PausePreserve the job keeps its 10 s
        // of virtual time and resumes on node 1: completes at 100.
        let jobs = vec![job(0, 0.0, 1, 0.5, 0.3, 100.0)];
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
        let out = simulate(cluster(), &jobs, &mut greedy(), &cfg);
        assert_eq!(out.restart_count, 0);
        assert_eq!(out.lost_virtual_seconds, 0.0);
        assert_eq!(out.preemption_count, 1, "failure pause is a preemption");
        assert!((out.records[0].completion - 100.0).abs() < 1e-6);
    }

    #[test]
    fn preserve_policy_charges_penalty_on_failure_resume() {
        let jobs = vec![job(0, 0.0, 1, 0.5, 0.3, 100.0)];
        let cfg = SimConfig {
            validate: true,
            penalty: 300.0,
            failure_policy: dfrs_sim::FailurePolicy::PausePreserve,
            node_events: vec![dfrs_sim::NodeEvent {
                time: 10.0,
                node: NodeId(0),
                up: false,
            }],
            ..SimConfig::default()
        };
        let out = simulate(cluster(), &jobs, &mut pmtn(), &cfg);
        // Resumes at t=10 on node 1 but progress is frozen until t=310,
        // then 90 s remain.
        assert!((out.records[0].completion - 400.0).abs() < 1e-6);
    }

    #[test]
    fn wide_job_waits_out_an_outage_with_backoff() {
        // A 2-task job needs both nodes; one is down from t=0 until
        // t=400. Forced admission cannot help (too few nodes), so the
        // job retries on backoff timers and starts after the repair.
        let jobs = vec![job(0, 1.0, 2, 0.5, 0.8, 50.0)];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![
                dfrs_sim::NodeEvent {
                    time: 0.0,
                    node: NodeId(1),
                    up: false,
                },
                dfrs_sim::NodeEvent {
                    time: 400.0,
                    node: NodeId(1),
                    up: true,
                },
            ],
            ..SimConfig::default()
        };
        for sched in [&mut greedy() as &mut dyn dfrs_sim::Scheduler, &mut pmtn()] {
            let out = simulate(cluster(), &jobs, sched, &cfg);
            let start = out.records[0].first_start.unwrap();
            assert!(
                (start - 400.0).abs() < 1e-6,
                "rescued at the repair, got {start}"
            );
            assert!((out.records[0].completion - 450.0).abs() < 1e-6);
        }
    }

    #[test]
    fn variants_report_distinct_names() {
        assert_eq!(greedy().name(), "Greedy");
        assert_eq!(pmtn().name(), "Greedy-pmtn");
        assert_eq!(pmtn_migr().name(), "Greedy-pmtn-migr");
        // The priority exponent does not enter the name.
        assert_eq!(Greedy::new(true, false, 1.0).name(), "Greedy-pmtn");
    }

    #[test]
    fn completion_rebalances_yields_upward() {
        // Jobs 0 and 1 share a node's CPU (load 2 → yield 0.5); when job
        // 1 (shorter) finishes, job 0's yield returns to 1.0.
        // Job 0: 100 vt; job 1: 50 vt. Shared from t=0: both at 0.5.
        // Job 1 completes at t=100 (vt 50). Job 0 has vt 50, then full
        // speed → completes at t=150.
        let tight = ClusterSpec::new(1, 4, 8.0).unwrap();
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.3, 100.0),
            job(1, 0.0, 1, 1.0, 0.3, 50.0),
        ];
        let out = simulate(tight, &jobs, &mut greedy(), &cfg());
        assert!((out.records[1].completion - 100.0).abs() < 1e-6);
        assert!((out.records[0].completion - 150.0).abs() < 1e-6);
    }

    #[test]
    fn sequential_tasks_fill_multicore_node() {
        // Four sequential tasks (need 0.25) on one node: load 1.0 → all
        // at yield 1.0 simultaneously.
        let tight = ClusterSpec::new(1, 4, 8.0).unwrap();
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(i, 0.0, 1, 0.25, 0.2, 100.0)).collect();
        let out = simulate(tight, &jobs, &mut greedy(), &cfg());
        assert_eq!(out.max_stretch, 1.0);
    }
}
