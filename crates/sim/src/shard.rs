//! Per-shard [`SimState`] views for hierarchical (sharded) scheduling.
//!
//! A sharded coordinator partitions the cluster's nodes into `N`
//! contiguous ranges and runs one independent inner scheduler per
//! range. Each inner instance must see an ordinary [`SimState`] — that
//! is the whole point: existing algorithms work unmodified — so every
//! shard owns a [`ShardView`]: a real `SimState` over a shard-sized
//! [`ClusterState`](crate::ClusterState) plus the id maps between the
//! shard-local world and the global one.
//!
//! The view is maintained **incrementally** by the coordinator from the
//! only three sources of global mutation it witnesses:
//!
//! 1. plans its inner schedulers returned, applied by
//!    [`ShardView::mirror_plan`] through the engine's own
//!    [`SimState`] plan application — the same classification, the
//!    same two phases, the same per-node operations;
//! 2. engine lifecycle events (completion, node failure/repair),
//!    applied through the same `SimState` transitions the engine ran,
//!    before the inner scheduler is notified, matching the engine's
//!    "state reflects the event's bookkeeping" contract;
//! 3. the continuous virtual-time accrual of running jobs, copied from
//!    the global state by [`ShardView::refresh`] before every
//!    delivery (`O(running jobs in shard)`).
//!
//! The view keeps only the id and node translation, that refresh, and
//! the window eviction; it has no transition code of its own.
//!
//! Job ids inside a view are **local and dense** (the
//! [`JobStore`](crate::state::JobStore) window requires density);
//! [`ShardView::global_job`] translates a
//! resident local id back. Node ids translate by offset: local node `k`
//! is global node `lo + k`.
//!
//! Withdrawn jobs (rebalanced away by the coordinator) and completed
//! jobs are marked `Completed` locally and evicted once they reach the
//! window front, exactly like the streaming engine's eviction; their
//! global ids leave the id map with them.

use std::collections::VecDeque;

use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::ClusterSpec;

use crate::plan::Plan;
use crate::state::{Applied, JobState, JobStatus, SimState};

/// Contiguous near-equal node partition: shard `i` of `shards` gets
/// `nodes/shards` nodes plus one of the `nodes % shards` remainder
/// nodes (lowest shards first). Returns `(lo, count)` per shard; every
/// `count` is at least 1 when `shards <= nodes`.
pub fn partition(nodes: u32, shards: u32) -> Vec<(u32, u32)> {
    assert!(shards >= 1 && shards <= nodes, "invalid shard count");
    let (base, rem) = (nodes / shards, nodes % shards);
    let mut out = Vec::with_capacity(shards as usize);
    let mut lo = 0;
    for i in 0..shards {
        let count = base + u32::from(i < rem);
        out.push((lo, count));
        lo += count;
    }
    out
}

/// One shard's private world: a shard-sized [`SimState`] plus the
/// local↔global id maps. See the module docs for the maintenance
/// protocol.
#[derive(Debug)]
pub struct ShardView {
    state: SimState,
    lo: u32,
    count: u32,
    /// Global id of every resident local job: `global_of[k]` belongs to
    /// local id `state.jobs.first_resident() + k` (local ids are never
    /// reused; evicted ones are dropped from the front).
    global_of: VecDeque<u32>,
    /// Reused plan-application scratch.
    applied: Applied,
}

impl ShardView {
    /// View over global nodes `[lo, lo + count)` of a cluster described
    /// by `spec` (same per-node cores and memory).
    pub fn new(spec: &ClusterSpec, lo: u32, count: u32) -> Self {
        let shard_spec = ClusterSpec::new(count, spec.cores_per_node, spec.node_memory_gb)
            .expect("a shard of a valid cluster spec is a valid cluster spec");
        ShardView {
            state: SimState::empty(shard_spec),
            lo,
            count,
            global_of: VecDeque::new(),
            applied: Applied::default(),
        }
    }

    /// The shard-local state handed to the inner scheduler.
    #[inline]
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Number of nodes in this shard.
    #[inline]
    pub fn node_count(&self) -> u32 {
        self.count
    }

    /// Whether `node` (global) belongs to this shard.
    #[inline]
    pub fn owns_node(&self, node: NodeId) -> bool {
        node.0 >= self.lo && node.0 < self.lo + self.count
    }

    /// Global → local node id (caller guarantees ownership).
    #[inline]
    pub fn local_node(&self, node: NodeId) -> NodeId {
        debug_assert!(self.owns_node(node));
        NodeId(node.0 - self.lo)
    }

    /// Local → global node id.
    #[inline]
    pub fn global_node(&self, node: NodeId) -> NodeId {
        debug_assert!(node.0 < self.count);
        NodeId(node.0 + self.lo)
    }

    /// Local → global job id (the local job must be resident).
    #[inline]
    pub fn global_job(&self, local: JobId) -> JobId {
        JobId(self.global_of[local.index() - self.state.jobs.first_resident()])
    }

    /// Jobs currently in this shard's system (its load metric for
    /// routing and rebalancing).
    #[inline]
    pub fn in_system(&self) -> usize {
        self.state.live.len()
    }

    /// Local ids of waiting (`Pending` or `Paused`) jobs, ascending.
    pub fn waiting_locals(&self) -> Vec<JobId> {
        self.state
            .jobs_in_system()
            .filter(|j| matches!(j.status, JobStatus::Pending | JobStatus::Paused))
            .map(|j| j.spec.id)
            .collect()
    }

    /// Admit `global` (a job the coordinator routed here) as a fresh
    /// local `Pending` job, carrying over its accrued virtual time and
    /// penalty window (a `Paused` migrant keeps its progress — the
    /// resume at this shard goes through the engine's ordinary
    /// pause/resume machinery). Returns the local id.
    pub fn admit(&mut self, global: &JobState) -> JobId {
        let local = JobId(self.state.jobs.len() as u32);
        let mut spec = global.spec;
        spec.id = local;
        self.state.admit(spec);
        let js = &mut self.state.jobs[local.index()];
        js.virtual_time = global.virtual_time;
        js.penalty_until = global.penalty_until;
        self.global_of.push_back(global.spec.id.0);
        local
    }

    /// Remove a waiting job from this shard's jurisdiction (it is being
    /// rebalanced elsewhere). The job must be `Pending` or `Paused`
    /// (it holds no tasks); it is retired locally so the window can
    /// evict it.
    pub fn withdraw(&mut self, local: JobId) {
        let status = self.state.jobs[local.index()].status;
        debug_assert!(
            matches!(status, JobStatus::Pending | JobStatus::Paused),
            "withdrawing {local} in status {status:?}"
        );
        self.state.retire(local);
        self.evict_completed();
    }

    /// Mirror a completion the engine just finalized: free the tasks,
    /// retire the job locally.
    pub fn mirror_complete(&mut self, local: JobId) {
        debug_assert_eq!(self.state.jobs[local.index()].status, JobStatus::Running);
        self.state.retire(local);
        self.evict_completed();
    }

    /// Mirror a node availability transition. For a failure the
    /// engine has already struck every resident job globally; the same
    /// strike runs here, each victim paused or restarted as it was
    /// globally, with its virtual time and penalty window copied from
    /// `global`.
    pub fn mirror_node_event(&mut self, local_node: NodeId, up: bool, global: &SimState) {
        if up {
            self.state.cluster.set_node_up(local_node, true);
            return;
        }
        let (global_of, base) = (&self.global_of, self.state.jobs.first_resident());
        let global_job = |local: JobId| &global.jobs[global_of[local.index() - base] as usize];
        let struck = self.state.strike(local_node, |j| {
            global_job(j.spec.id).status == JobStatus::Paused
        });
        for (local, _) in struck {
            let (g, js) = (global_job(local), &mut self.state.jobs[local.index()]);
            js.virtual_time = g.virtual_time;
            js.penalty_until = g.penalty_until;
        }
    }

    /// Mirror a plan this shard's inner scheduler returned (local ids,
    /// local nodes) through the engine's own plan application, so the
    /// view's node loads track the global ones operation for operation.
    pub fn mirror_plan(&mut self, plan: &Plan) {
        self.state.apply_plan(plan, &mut self.applied);
    }

    /// Bring the view's clock and its running jobs' continuously
    /// advancing fields (virtual time, penalty window) up to date from
    /// the global state. Called before every event delivery.
    pub fn refresh(&mut self, now: f64, global: &SimState) {
        self.state.now = now;
        let base = self.state.jobs.first_resident();
        for k in 0..self.state.running.len() {
            let i = self.state.running[k] as usize;
            let gid = self.global_of[i - base] as usize;
            // A job evicted from the global window is already
            // completed; its mirror event is on the way.
            if let Some(g) = global.jobs.get(gid) {
                let j = &mut self.state.jobs[i];
                j.virtual_time = g.virtual_time;
                j.penalty_until = g.penalty_until;
            }
        }
    }

    /// Evict the completed window prefix and its global ids (records
    /// are the global engine's business; the view just drops retired
    /// jobs).
    fn evict_completed(&mut self) {
        while self
            .state
            .jobs
            .front()
            .is_some_and(|j| j.status == JobStatus::Completed)
        {
            self.state.jobs.evict_front();
            self.global_of.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_core::JobSpec;

    fn spec4() -> ClusterSpec {
        ClusterSpec::new(10, 4, 8.0).unwrap()
    }

    fn gjob(id: u32, tasks: u32) -> JobState {
        let mut js = JobState::new(JobSpec::new(JobId(id), 0.0, tasks, 0.5, 0.25, 100.0).unwrap());
        js.status = JobStatus::Pending;
        js
    }

    #[test]
    fn partition_is_contiguous_and_near_equal() {
        let parts = partition(10, 3);
        assert_eq!(parts, vec![(0, 4), (4, 3), (7, 3)]);
        let parts = partition(8, 4);
        assert_eq!(parts, vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
        let parts = partition(5, 5);
        assert_eq!(parts.len(), 5);
        assert!(parts.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn admit_assigns_dense_local_ids_and_maps_back() {
        let mut v = ShardView::new(&spec4(), 4, 3);
        let a = v.admit(&gjob(17, 1));
        let b = v.admit(&gjob(99, 2));
        assert_eq!(a, JobId(0));
        assert_eq!(b, JobId(1));
        assert_eq!(v.global_job(a), JobId(17));
        assert_eq!(v.global_job(b), JobId(99));
        assert_eq!(v.in_system(), 2);
        assert_eq!(v.state().cluster.spec.nodes, 3);
    }

    #[test]
    fn node_translation_offsets_by_lo() {
        let v = ShardView::new(&spec4(), 4, 3);
        assert!(v.owns_node(NodeId(4)) && v.owns_node(NodeId(6)));
        assert!(!v.owns_node(NodeId(3)) && !v.owns_node(NodeId(7)));
        assert_eq!(v.local_node(NodeId(5)), NodeId(1));
        assert_eq!(v.global_node(NodeId(1)), NodeId(5));
    }

    #[test]
    fn mirror_plan_and_complete_round_trip() {
        let mut v = ShardView::new(&spec4(), 0, 3);
        let l = v.admit(&gjob(3, 2));
        let plan = Plan::noop().run(l, vec![NodeId(0), NodeId(1)], 1.0);
        v.mirror_plan(&plan);
        assert_eq!(v.state().job(l).status, JobStatus::Running);
        assert_eq!(v.state().cluster.busy_nodes(), 2);
        v.mirror_complete(l);
        assert_eq!(v.in_system(), 0);
        assert_eq!(v.state().cluster.busy_nodes(), 0);
        // The retired local id was evicted from the window.
        assert!(v.state().jobs.get(l.index()).is_none());
    }

    #[test]
    fn withdraw_removes_waiting_job_from_view() {
        let mut v = ShardView::new(&spec4(), 0, 3);
        let a = v.admit(&gjob(1, 1));
        let b = v.admit(&gjob(2, 1));
        v.withdraw(a);
        assert_eq!(v.in_system(), 1);
        assert_eq!(v.waiting_locals(), vec![b]);
    }

    #[test]
    fn id_map_holds_only_resident_jobs() {
        let mut v = ShardView::new(&spec4(), 0, 3);
        for g in 0..50 {
            let l = v.admit(&gjob(100 + g, 1));
            v.mirror_plan(&Plan::noop().run(l, vec![NodeId(0)], 1.0));
            v.mirror_complete(l);
            assert!(v.global_of.len() <= v.state().jobs.resident());
        }
        let (a, b) = (v.admit(&gjob(7, 1)), v.admit(&gjob(8, 1)));
        v.withdraw(a);
        assert_eq!(v.global_of.len(), 1);
        assert_eq!(v.global_job(b), JobId(8));
    }

    #[test]
    fn migrant_keeps_virtual_time() {
        let mut v = ShardView::new(&spec4(), 0, 3);
        let mut g = gjob(7, 1);
        g.status = JobStatus::Paused;
        g.virtual_time = 33.5;
        g.penalty_until = 40.0;
        let l = v.admit(&g);
        let j = v.state().job(l);
        assert_eq!(j.status, JobStatus::Pending);
        assert_eq!(j.virtual_time, 33.5);
        assert_eq!(j.penalty_until, 40.0);
    }
}
