//! Batch-scheduling baselines (Section IV-B): one driver, [`Batch`],
//! over a FIFO queue, and three [`Backfill`] policies — backfill behind
//! nobody (`FCFS`), behind the head's reservation (`EASY`), or behind
//! every queued job's (conservative backfilling, in
//! [`crate::conservative`]).
//!
//! All three allocate **integral** nodes — one task per node, exclusive
//! access, yield 1.0 — exactly as production batch schedulers do, and
//! never preempt or migrate. `EASY` adds aggressive backfilling: the
//! head of the queue receives a reservation at the earliest time enough
//! nodes will be free, and later jobs may jump ahead if they do not
//! interfere with that reservation. Per the paper's conservative
//! methodology, the backfilling policies are given **perfect runtime
//! estimates** (the clairvoyant `oracle_runtime` accessor) while the
//! DFRS algorithms get nothing.
//!
//! Under platform dynamics a failure kills the struck jobs (the engine
//! resubmits them under the default [`dfrs_sim::FailurePolicy`]); the
//! driver rebuilds its queue from the waiting set
//! ([`crate::common::waiting_jobs`]: pending, plus paused victims of
//! the preserve policy) in submission order — killed jobs rejoin ahead
//! of later arrivals, exactly where a resubmission with the original
//! timestamp would sit — and reschedules. The whole nodes free now come
//! from [`dfrs_sim::ClusterState::free_nodes`], a lazy ascending cursor
//! that never offers an out-of-service node and is read only as far as
//! the policy places; a call on an empty queue does no work at all.

use std::collections::VecDeque;

use dfrs_core::ids::JobId;
use dfrs_sim::{FreeNodes, Plan, PlanEntry, SchedEvent, Scheduler, SimState};

use crate::common::waiting_jobs;

/// How far a batch queue backfills: one full scheduling pass over the
/// queue against the whole nodes free now.
pub(crate) trait Backfill: Default + Send + 'static {
    /// The scheduler's display name.
    const NAME: &'static str;

    /// Start what may start now, removing it from the non-empty `queue`;
    /// `free` reads only its length and its next nodes in order.
    fn schedule(&self, queue: &mut VecDeque<JobId>, free: FreeNodes<'_>, state: &SimState) -> Plan;
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
        // Every policy starts nothing without a queued job.
        if self.queue.is_empty() {
            return Plan::noop();
        }
        self.policy
            .schedule(&mut self.queue, state.cluster.free_nodes(), state)
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

/// Start queue heads, in order, while they fit on `free`, each as a run
/// entry of `plan`. Strict FIFO: nothing may overtake a head that does
/// not fit.
fn start_heads(
    queue: &mut VecDeque<JobId>,
    free: &mut FreeNodes<'_>,
    state: &SimState,
    plan: &mut Plan,
) {
    while let Some(&head) = queue.front() {
        let tasks = state.job(head).spec.tasks as usize;
        if tasks > free.len() {
            break;
        }
        plan.push_run(head, 1.0, free.by_ref().take(tasks));
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
        mut free: FreeNodes<'_>,
        state: &SimState,
    ) -> Plan {
        let mut plan = Plan::noop();
        start_heads(queue, &mut free, state, &mut plan);
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
        mut free: FreeNodes<'_>,
        state: &SimState,
    ) -> Plan {
        let mut plan = Plan::noop();
        start_heads(queue, &mut free, state, &mut plan);

        let Some(&head) = queue.front() else {
            return plan;
        };

        // (completion_time, nodes_released) of jobs that will be running
        // after this plan: running jobs by ascending id, then the heads
        // started above in start order (the sort below is stable, so
        // this order breaks ties between equal release times).
        let started_heads = plan.entries.iter().filter_map(|e| match e {
            PlanEntry::Run { job, .. } => {
                let spec = &state.job(*job).spec;
                Some((state.now + spec.oracle_runtime(), spec.tasks))
            }
            PlanEntry::Pause { .. } => None,
        });
        let mut releases: Vec<(f64, u32)> = state
            .running_jobs()
            // Batch jobs run at yield 1: remaining vt = remaining wall.
            .map(|j| (state.now + j.remaining(), j.spec.tasks))
            .chain(started_heads)
            .collect();

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
                plan.push_run(cand, 1.0, free.by_ref().take(tasks));
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

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_core::ids::NodeId;
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{simulate, SimConfig};

    fn cluster(n: u32) -> ClusterSpec {
        ClusterSpec::new(n, 4, 8.0).unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            validate: true,
            ..SimConfig::default()
        }
    }

    fn job(id: u32, submit: f64, tasks: u32, rt: f64) -> JobSpec {
        JobSpec::new(JobId(id), submit, tasks, 1.0, 0.2, rt).unwrap()
    }

    #[test]
    fn fcfs_runs_in_order() {
        let jobs = vec![job(0, 0.0, 2, 100.0), job(1, 10.0, 2, 50.0)];
        let out = simulate(cluster(2), &jobs, &mut Batch::<Never>::default(), &cfg());
        assert!((out.records[0].completion - 100.0).abs() < 1e-6);
        // Job 1 waits for both nodes: starts 100, ends 150.
        assert!((out.records[1].completion - 150.0).abs() < 1e-6);
    }

    #[test]
    fn fcfs_head_blocks_smaller_jobs() {
        // Head needs 4 nodes (busy until 100); a 1-node job behind it
        // must wait even though 2 nodes are free — the FCFS weakness EASY
        // fixes.
        let jobs = vec![
            job(0, 0.0, 2, 100.0), // occupies 2 of 4 nodes
            job(1, 1.0, 4, 50.0),  // head of queue, needs all 4
            job(2, 2.0, 1, 10.0),  // small job stuck behind
        ];
        let out = simulate(cluster(4), &jobs, &mut Batch::<Never>::default(), &cfg());
        assert!((out.records[1].first_start.unwrap() - 100.0).abs() < 1e-6);
        assert!(
            out.records[2].first_start.unwrap() >= 150.0 - 1e-6,
            "FCFS must not let job 2 overtake: {:?}",
            out.records[2].first_start
        );
    }

    #[test]
    fn easy_backfills_short_jobs() {
        // Same scenario: EASY backfills job 2 (10 s ≤ shadow 100) onto a
        // free node immediately.
        let jobs = vec![
            job(0, 0.0, 2, 100.0),
            job(1, 1.0, 4, 50.0),
            job(2, 2.0, 1, 10.0),
        ];
        let out = simulate(cluster(4), &jobs, &mut Batch::<Head>::default(), &cfg());
        assert!((out.records[2].first_start.unwrap() - 2.0).abs() < 1e-6);
        // Head still starts exactly at its reservation.
        assert!((out.records[1].first_start.unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn easy_backfill_never_delays_reservation() {
        // Job 2 runs 200 s — longer than the shadow (100): backfilling it
        // onto the 2 free nodes would delay the head, so EASY must not.
        let jobs = vec![
            job(0, 0.0, 2, 100.0),
            job(1, 1.0, 4, 50.0),
            job(2, 2.0, 1, 200.0),
        ];
        let out = simulate(cluster(4), &jobs, &mut Batch::<Head>::default(), &cfg());
        assert!((out.records[1].first_start.unwrap() - 100.0).abs() < 1e-6);
        assert!(out.records[2].first_start.unwrap() >= 100.0 - 1e-6);
    }

    #[test]
    fn easy_uses_extra_nodes_for_long_backfill() {
        // Head needs 3 of 4 nodes at shadow: one node is extra, so a long
        // 1-node job may backfill onto it without delaying the head.
        let jobs = vec![
            job(0, 0.0, 2, 100.0), // nodes 0-1 until t=100
            job(1, 1.0, 3, 50.0),  // head: reservation at t=100, extra=1
            job(2, 2.0, 1, 500.0), // long, 1 node → fits the extra node
        ];
        let out = simulate(cluster(4), &jobs, &mut Batch::<Head>::default(), &cfg());
        assert!((out.records[2].first_start.unwrap() - 2.0).abs() < 1e-6);
        assert!((out.records[1].first_start.unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn batch_never_preempts() {
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| job(i, i as f64, 1 + i % 3, 30.0 + i as f64))
            .collect();
        for sched in [
            &mut Batch::<Never>::default() as &mut dyn Scheduler,
            &mut Batch::<Head>::default(),
        ] {
            let out = simulate(cluster(3), &jobs, sched, &cfg());
            assert_eq!(out.preemption_count, 0);
            assert_eq!(out.migration_count, 0);
            assert_eq!(out.preemption_gb, 0.0);
        }
    }

    #[test]
    fn easy_equals_fcfs_without_backfill_opportunities() {
        // Single-node jobs of equal length leave no backfill gaps.
        let jobs: Vec<JobSpec> = (0..5).map(|i| job(i, 0.0, 1, 100.0)).collect();
        let f = simulate(cluster(2), &jobs, &mut Batch::<Never>::default(), &cfg());
        let e = simulate(cluster(2), &jobs, &mut Batch::<Head>::default(), &cfg());
        assert_eq!(f.max_stretch, e.max_stretch);
    }

    #[test]
    fn fcfs_restarts_killed_job_after_repair() {
        // Job 0 spans both nodes; node 1 fails at t=50 (progress lost)
        // and is repaired at t=80. The job needs 2 nodes, so it waits
        // for the repair and reruns from scratch: completes at 180.
        let jobs = vec![job(0, 0.0, 2, 100.0)];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![
                dfrs_sim::NodeEvent {
                    time: 50.0,
                    node: NodeId(1),
                    up: false,
                },
                dfrs_sim::NodeEvent {
                    time: 80.0,
                    node: NodeId(1),
                    up: true,
                },
            ],
            ..SimConfig::default()
        };
        let out = simulate(cluster(2), &jobs, &mut Batch::<Never>::default(), &cfg);
        assert_eq!(out.restart_count, 1);
        assert_eq!(out.records[0].restarts, 1);
        assert!((out.lost_virtual_seconds - 50.0).abs() < 1e-6);
        assert!((out.records[0].completion - 180.0).abs() < 1e-6);
        // 30 s of one node down.
        assert!((out.down_node_seconds - 30.0).abs() < 1e-6);
    }

    #[test]
    fn fcfs_killed_head_keeps_its_rank() {
        // Job 0 (1 node) killed at t=10 must restart before job 1 gets
        // the freed node back, because resubmission keeps the original
        // submit order.
        let jobs = vec![job(0, 0.0, 2, 100.0), job(1, 5.0, 2, 100.0)];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![
                dfrs_sim::NodeEvent {
                    time: 10.0,
                    node: NodeId(0),
                    up: false,
                },
                dfrs_sim::NodeEvent {
                    time: 20.0,
                    node: NodeId(0),
                    up: true,
                },
            ],
            ..SimConfig::default()
        };
        let out = simulate(cluster(2), &jobs, &mut Batch::<Never>::default(), &cfg);
        // Job 0 restarts at the repair (t=20) and job 1 still runs after
        // it: strict FIFO survives the failure.
        assert!((out.records[0].completion - 120.0).abs() < 1e-6);
        assert!((out.records[1].completion - 220.0).abs() < 1e-6);
    }

    #[test]
    fn easy_reschedules_around_a_down_node() {
        // 4 nodes; a 4-node head is blocked while one node is down, but
        // 1-node jobs keep backfilling onto the survivors.
        let jobs = vec![
            job(0, 0.0, 4, 100.0),
            job(1, 5.0, 1, 10.0),
            job(2, 6.0, 1, 10.0),
        ];
        let cfg = SimConfig {
            validate: true,
            node_events: vec![
                dfrs_sim::NodeEvent {
                    time: 1.0,
                    node: NodeId(3),
                    up: false,
                },
                dfrs_sim::NodeEvent {
                    time: 500.0,
                    node: NodeId(3),
                    up: true,
                },
            ],
            ..SimConfig::default()
        };
        let out = simulate(cluster(4), &jobs, &mut Batch::<Head>::default(), &cfg);
        assert_eq!(out.restart_count, 1, "head killed by the failure");
        // The short jobs run on surviving nodes long before the repair.
        assert!(out.records[1].completion < 100.0);
        assert!(out.records[2].completion < 100.0);
        // The wide head needs all four nodes: restarts at the repair.
        assert!((out.records[0].completion - 600.0).abs() < 1e-6);
    }

    #[test]
    fn integral_allocation_wastes_fractional_capacity() {
        // The motivating pathology: jobs that *could* share nodes (low
        // CPU need, low memory) still serialize under batch scheduling.
        let jobs = vec![
            JobSpec::new(JobId(0), 0.0, 2, 0.25, 0.1, 100.0).unwrap(),
            JobSpec::new(JobId(1), 0.0, 2, 0.25, 0.1, 100.0).unwrap(),
        ];
        let out = simulate(cluster(2), &jobs, &mut Batch::<Never>::default(), &cfg());
        // Batch: job 1 waits for job 0's nodes → stretch 2.
        assert!((out.records[1].completion - 200.0).abs() < 1e-6);
        assert!((out.max_stretch - 2.0).abs() < 1e-6);
    }
}
