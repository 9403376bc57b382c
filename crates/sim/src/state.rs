//! Mutable simulation state: per-job lifecycle and per-node resource
//! bookkeeping.
//!
//! ## Hot-path layout
//!
//! The engine touches this state once per event, so the layout avoids
//! per-event allocation and per-event whole-trace scans:
//!
//! * **Windowed job store** — [`JobStore`] keeps only the *resident*
//!   jobs (admitted, plus a completed prefix not yet streamed out) in a
//!   deque indexed by dense job id. The streaming engine admits jobs as
//!   a [`crate::SubmissionSource`] yields them and evicts the completed
//!   prefix after emitting each record, so live-set memory stays
//!   bounded no matter how long the feed is. Each job's task placement
//!   is a per-job boxed slice filled in place (no per-event `Vec`
//!   allocation).
//! * **Live/running indexes** — sorted id lists of the jobs in the
//!   system and the running subset, so per-event scans cost O(live)
//!   instead of O(trace length). Iteration order equals ascending id —
//!   identical to a filtered scan of the full job table.
//! * **Change epochs** — a monotone counter bumped on every observable
//!   state change (job lifecycle transitions here, per-node load
//!   changes in [`ClusterState`]). Schedulers use
//!   [`SimState::change_epoch`] to recognize that nothing changed since
//!   their last decision and skip provably identical repacks.
//!
//! ## Lifecycle transitions
//!
//! Every change of a job's lifecycle or placement is a `SimState`
//! method here — admit, the two-phase plan application, pause, strike,
//! retire — and nothing else in the crate touches the per-node loads or
//! the live/running indexes. The engine calls them and keeps only its
//! own bookkeeping (counters, bandwidth, penalty windows, timeline,
//! timers); a [`crate::ShardView`] calls the same code on its
//! shard-sized state, so a view's loads and placements follow the
//! global ones operation for operation.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use dfrs_core::approx;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::priority::PriorityKey;
use dfrs_core::{ClusterSpec, JobSpec};

use crate::plan::{Plan, PlanEntry};

/// Lifecycle of a job inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Known from the trace but not yet submitted.
    Unsubmitted,
    /// Submitted, never or not currently placed, waiting to start.
    Pending,
    /// Placed on nodes with a positive yield.
    Running,
    /// Previously ran, currently evicted from the cluster.
    Paused,
    /// Finished.
    Completed,
}

/// Full dynamic state of one job, including its task placement slots
/// (read through [`SimState::placement`]).
#[derive(Debug, Clone)]
pub struct JobState {
    /// The immutable request.
    pub spec: JobSpec,
    /// One hosting-node slot per task; meaningful only while `Running`.
    pub(crate) placement: Box<[NodeId]>,
    /// Lifecycle phase.
    pub status: JobStatus,
    /// Accrued virtual time (integral of yield since submission).
    pub virtual_time: f64,
    /// Current yield; meaningful only while `Running`.
    pub yld: f64,
    /// Wall-clock time until which progress is frozen (rescheduling
    /// penalty after a resume or migration).
    pub penalty_until: f64,
    /// First time the job was placed, if ever.
    pub first_start: Option<f64>,
    /// Completion time, once finished.
    pub completion: Option<f64>,
    /// Times this job was paused (preemption occurrences).
    pub preemptions: u32,
    /// Times this job was moved while running (migration occurrences).
    pub migrations: u32,
    /// Times this job was killed by a node failure and resubmitted with
    /// its progress discarded ([`crate::FailurePolicy::Restart`]).
    pub restarts: u32,
}

impl JobState {
    /// Fresh state for a spec.
    pub fn new(spec: JobSpec) -> Self {
        JobState {
            placement: vec![NodeId(0); spec.tasks as usize].into_boxed_slice(),
            spec,
            status: JobStatus::Unsubmitted,
            virtual_time: 0.0,
            yld: 0.0,
            penalty_until: 0.0,
            first_start: None,
            completion: None,
            preemptions: 0,
            migrations: 0,
            restarts: 0,
        }
    }

    /// Remaining virtual time to completion.
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.spec.oracle_runtime() - self.virtual_time).max(0.0)
    }

    /// Is the job in the system (submitted, not finished)?
    #[inline]
    pub fn in_system(&self) -> bool {
        matches!(
            self.status,
            JobStatus::Pending | JobStatus::Running | JobStatus::Paused
        )
    }

    /// The paper's pause/resume priority key at time `now`.
    pub fn priority_key(&self, now: f64) -> PriorityKey {
        PriorityKey::new(now, self.spec.submit_time, self.virtual_time, self.spec.id)
    }

    /// Completion instant under the current yield, accounting for a
    /// pending penalty window; `None` when not running or not progressing.
    pub fn completion_time(&self, now: f64) -> Option<f64> {
        if self.status != JobStatus::Running || self.yld <= 0.0 {
            return None;
        }
        let start = now.max(self.penalty_until);
        Some(start + self.remaining() / self.yld)
    }
}

/// Resource bookkeeping of one node. All quantities are derived from the
/// placements of running jobs; [`crate::validate`] cross-checks them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeState {
    /// Sum of CPU needs of hosted tasks (may exceed 1 — over-subscription).
    pub cpu_load: f64,
    /// Sum of allocated CPU fractions (`need × yield`; must stay ≤ 1).
    pub cpu_alloc: f64,
    /// Sum of memory requirements (must stay ≤ 1 — hard constraint).
    pub mem_used: f64,
    /// Sum of allocated GPU fractions (`need × yield`; must stay ≤ 1).
    /// GPU is fluid like CPU: allocations scale with the yield. Zero
    /// whenever no hosted job declares GPU demand, so the paper's
    /// two-resource scenarios never observe it.
    pub gpu_alloc: f64,
    /// Number of hosted tasks.
    pub task_count: u32,
}

impl NodeState {
    /// Remaining memory.
    #[inline]
    pub fn mem_free(&self) -> f64 {
        1.0 - self.mem_used
    }

    /// True when no task is placed here (candidate for power-down).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.task_count == 0
    }
}

/// The cluster: node states plus aggregate counters, an up/down bit per
/// node (platform dynamics), and change epochs.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// Static description.
    pub spec: ClusterSpec,
    nodes: Vec<NodeState>,
    busy_nodes: u32,
    /// Ids of the nodes hosting at least one task, ascending. Lets the
    /// per-event utilization integrals sum allocated CPU over busy
    /// nodes only — bit-identical to the full scan, since idle nodes'
    /// contributions are exactly `+0.0` (snapped on last removal) and
    /// adding `+0.0` never changes a non-negative partial sum — while
    /// costing `O(busy)` instead of `O(all nodes)` on huge clusters.
    busy_ids: Vec<u32>,
    /// Up/down bit per node; a down node hosts no tasks and is invisible
    /// to [`available_nodes`](Self::available_nodes).
    node_up: Vec<bool>,
    /// Number of nodes currently in service.
    up_count: u32,
    /// Bumped on every task add/remove/retarget and on every node
    /// leaving or rejoining service.
    epoch: u64,
    /// Bumped only when a node leaves or rejoins service — unlike
    /// `epoch`, never by load changes. Schedulers key caches of the
    /// available-node set on this, so a no-churn run computes that set
    /// once instead of once per event.
    membership_epoch: u64,
}

impl ClusterState {
    /// All-idle cluster, every node in service.
    pub fn new(spec: ClusterSpec) -> Self {
        ClusterState {
            spec,
            nodes: vec![NodeState::default(); spec.nodes as usize],
            busy_nodes: 0,
            busy_ids: Vec::new(),
            node_up: vec![true; spec.nodes as usize],
            up_count: spec.nodes,
            epoch: 0,
            membership_epoch: 0,
        }
    }

    /// Rebuild a cluster from snapshot parts: all nodes idle (snapshots
    /// are taken at quiescence, when nothing is placed) with the
    /// down-node set and the change epoch restored exactly, so every
    /// future epoch value matches the uninterrupted run.
    pub(crate) fn restore(spec: ClusterSpec, down: &[NodeId], epoch: u64) -> Self {
        let mut c = ClusterState::new(spec);
        for &n in down {
            c.node_up[n.index()] = false;
        }
        c.up_count = spec.nodes - down.len() as u32;
        c.epoch = epoch;
        // Snapshots don't carry the membership counter; any value no
        // smaller than past ones keeps it monotone, and `epoch` counts
        // a superset of membership changes. Schedulers are rebuilt on
        // restore, so their membership-keyed caches start empty anyway.
        c.membership_epoch = epoch;
        c
    }

    /// Per-node states.
    #[inline]
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// Number of nodes hosting at least one task.
    #[inline]
    pub fn busy_nodes(&self) -> u32 {
        self.busy_nodes
    }

    /// Number of idle nodes *in service* (down nodes are not idle
    /// capacity — they are gone until repaired).
    #[inline]
    pub fn idle_nodes(&self) -> u32 {
        self.up_count - self.busy_nodes
    }

    /// Whether `node` is in service.
    #[inline]
    pub fn is_up(&self, node: NodeId) -> bool {
        self.node_up[node.index()]
    }

    /// Number of nodes currently in service.
    #[inline]
    pub fn up_nodes(&self) -> u32 {
        self.up_count
    }

    /// Number of nodes currently out of service.
    #[inline]
    pub fn down_nodes(&self) -> u32 {
        self.spec.nodes - self.up_count
    }

    /// Ids of the nodes currently in service, ascending — the
    /// **available-node view** that placement (packing bins, greedy
    /// scratch, batch free lists) consumes. With no failures this is
    /// every node, so failure-free behavior is unchanged.
    pub fn available_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_up
            .iter()
            .enumerate()
            .filter(|(_, &up)| up)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// The idle in-service nodes, ascending, as a lazy cursor: the
    /// whole-node free list of the batch schedulers, read only as far
    /// as they place.
    ///
    /// Its length is [`idle_nodes`](Self::idle_nodes), known without a
    /// scan, and equal to the count of `is_idle() && is_up()` over every
    /// node: a busy node is always in service (the engine evicts a
    /// node's tasks before taking it down, and no task lands on a down
    /// node), so the idle in-service nodes number `up − busy`. Each node
    /// handed out costs a step through the gaps of the busy index.
    pub fn free_nodes(&self) -> FreeNodes<'_> {
        debug_assert_eq!(
            self.idle_nodes() as usize,
            self.nodes
                .iter()
                .zip(&self.node_up)
                .filter(|&(n, &up)| n.is_idle() && up)
                .count(),
            "a busy node is out of service"
        );
        FreeNodes {
            up: &self.node_up,
            busy: &self.busy_ids,
            next: 0,
            left: self.idle_nodes() as usize,
        }
    }

    /// Take `node` out of service or return it. The engine evicts every
    /// resident task *before* marking a node down; bumps the change
    /// epoch so schedulers caching decisions observe the node-set
    /// change. No-op when the bit already has the requested value.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        if self.node_up[node.index()] == up {
            return;
        }
        debug_assert!(
            up || self.nodes[node.index()].task_count == 0,
            "{node} taken down while hosting tasks"
        );
        self.node_up[node.index()] = up;
        self.up_count = if up {
            self.up_count + 1
        } else {
            self.up_count - 1
        };
        self.membership_epoch += 1;
        self.epoch += 1;
    }

    /// Monotone counter of node-membership changes (see the field doc).
    /// Equal values at two instants of one run guarantee the
    /// available-node set is unchanged between them.
    #[inline]
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Monotone counter of node-state mutations.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sum of allocated CPU over all nodes (for utilization integrals).
    ///
    /// Summed over the busy-node index in ascending id order — the
    /// same sequence of non-zero terms the historical full scan added
    /// (idle nodes contribute exactly `+0.0`, the additive identity
    /// here), so the result is bit-identical at `O(busy)` cost.
    pub fn total_cpu_alloc(&self) -> f64 {
        self.busy_ids
            .iter()
            .map(|&i| self.nodes[i as usize].cpu_alloc)
            .sum()
    }

    /// Highest CPU load over all nodes (the `Λ` of the greedy yield
    /// rule). Idle nodes carry load exactly `0.0` — the fold's seed —
    /// so scanning only busy nodes is exact.
    pub fn max_cpu_load(&self) -> f64 {
        self.busy_ids
            .iter()
            .map(|&i| self.nodes[i as usize].cpu_load)
            .fold(0.0, f64::max)
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeState {
        &mut self.nodes[id.index()]
    }

    /// Place one task of `job` (at `yld`) on `node`. Panics (debug) on
    /// memory overcommitment — callers must have checked feasibility —
    /// and on placement onto a node that is out of service.
    pub fn add_task(&mut self, node: NodeId, cpu_need: f64, mem_req: f64, gpu_need: f64, yld: f64) {
        debug_assert!(self.node_up[node.index()], "task placed on down {node}");
        let n = self.node_mut(node);
        if n.task_count == 0 {
            self.busy_nodes += 1;
            let id = node.index() as u32;
            let pos = self.busy_ids.partition_point(|&b| b < id);
            self.busy_ids.insert(pos, id);
        }
        let n = self.node_mut(node);
        n.cpu_load += cpu_need;
        n.cpu_alloc += cpu_need * yld;
        n.mem_used += mem_req;
        n.gpu_alloc += gpu_need * yld;
        n.task_count += 1;
        debug_assert!(
            approx::le(n.mem_used, 1.0),
            "memory overcommitted: {}",
            n.mem_used
        );
        debug_assert!(
            approx::le(n.cpu_alloc, 1.0),
            "CPU overallocated: {}",
            n.cpu_alloc
        );
        debug_assert!(
            approx::le(n.gpu_alloc, 1.0),
            "GPU overallocated: {}",
            n.gpu_alloc
        );
        self.epoch += 1;
    }

    /// Remove one task of `job` from `node`.
    pub fn remove_task(
        &mut self,
        node: NodeId,
        cpu_need: f64,
        mem_req: f64,
        gpu_need: f64,
        yld: f64,
    ) {
        let n = self.node_mut(node);
        debug_assert!(n.task_count > 0, "removing task from empty node");
        n.cpu_load = (n.cpu_load - cpu_need).max(0.0);
        n.cpu_alloc = (n.cpu_alloc - cpu_need * yld).max(0.0);
        n.mem_used = (n.mem_used - mem_req).max(0.0);
        n.gpu_alloc = (n.gpu_alloc - gpu_need * yld).max(0.0);
        n.task_count -= 1;
        if n.task_count == 0 {
            self.busy_nodes -= 1;
            let id = node.index() as u32;
            if let Ok(pos) = self.busy_ids.binary_search(&id) {
                self.busy_ids.remove(pos);
            } else {
                debug_assert!(false, "{node} missing from the busy index");
            }
            // Snap residues so long simulations don't accumulate drift.
            let n = self.node_mut(node);
            n.cpu_load = 0.0;
            n.cpu_alloc = 0.0;
            n.mem_used = 0.0;
            n.gpu_alloc = 0.0;
        }
        self.epoch += 1;
    }

    /// Adjust the allocated fluid resources (CPU, GPU) of a hosted task
    /// after a yield change.
    pub fn retarget_task(
        &mut self,
        node: NodeId,
        cpu_need: f64,
        gpu_need: f64,
        old_yld: f64,
        new_yld: f64,
    ) {
        let n = self.node_mut(node);
        n.cpu_alloc += cpu_need * (new_yld - old_yld);
        n.cpu_alloc = n.cpu_alloc.max(0.0);
        n.gpu_alloc += gpu_need * (new_yld - old_yld);
        n.gpu_alloc = n.gpu_alloc.max(0.0);
        debug_assert!(
            approx::le(n.cpu_alloc, 1.0),
            "CPU overallocated: {}",
            n.cpu_alloc
        );
        debug_assert!(
            approx::le(n.gpu_alloc, 1.0),
            "GPU overallocated: {}",
            n.gpu_alloc
        );
        self.epoch += 1;
    }
}

/// Ascending cursor over a cluster's idle in-service nodes (see
/// [`ClusterState::free_nodes`]); [`len`](ExactSizeIterator::len) is
/// how many it has left.
#[derive(Debug, Clone)]
pub struct FreeNodes<'a> {
    up: &'a [bool],
    /// The busy ids not yet passed, ascending.
    busy: &'a [u32],
    /// The next node id to consider.
    next: u32,
    /// Idle in-service nodes at or after `next`.
    left: usize,
}

impl Iterator for FreeNodes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        // `left > 0` guarantees an idle in-service node at or after
        // `next`, so the walk stops inside the cluster.
        while self.left > 0 {
            let id = self.next;
            self.next += 1;
            if let [b, rest @ ..] = self.busy {
                if *b == id {
                    self.busy = rest;
                    continue;
                }
            }
            if self.up[id as usize] {
                self.left -= 1;
                return Some(NodeId(id));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for FreeNodes<'_> {}

/// Resident job table with a sliding eviction window.
///
/// Jobs are admitted in dense-id order; the completed *prefix* is
/// evicted (after its records stream out through a
/// [`crate::RecordSink`]), so memory holds only `[base, base + resident)`
/// — the jobs still in the system plus completed jobs waiting for a
/// lower id to finish. Indexing is by dense job id; `len()` counts every
/// job ever admitted, preserving the `total = jobs.len()` arithmetic of
/// the materialized engine. Accessing an evicted or not-yet-admitted id
/// through `[]` panics; use [`JobStore::get`] where eviction is legal.
#[derive(Debug, Default)]
pub struct JobStore {
    /// Ids below this are completed and evicted.
    base: usize,
    /// Resident jobs, `window[k]` holding id `base + k`.
    window: VecDeque<JobState>,
}

impl JobStore {
    /// Empty store whose next admitted id is `base` (snapshot restore).
    pub(crate) fn with_base(base: usize) -> Self {
        JobStore {
            base,
            window: VecDeque::new(),
        }
    }

    /// Total jobs ever admitted (evicted ones included).
    #[inline]
    pub fn len(&self) -> usize {
        self.base + self.window.len()
    }

    /// True when no job was ever admitted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident (non-evicted) jobs.
    #[inline]
    pub fn resident(&self) -> usize {
        self.window.len()
    }

    /// Smallest resident id — everything below it is evicted.
    #[inline]
    pub fn first_resident(&self) -> usize {
        self.base
    }

    /// The job with dense id `i`, when resident.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&JobState> {
        i.checked_sub(self.base).and_then(|k| self.window.get(k))
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> Option<&mut JobState> {
        i.checked_sub(self.base)
            .and_then(|k| self.window.get_mut(k))
    }

    /// Resident jobs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &JobState> {
        self.window.iter()
    }

    /// Admit the next job (its id must be `len()`; the engine checks).
    pub(crate) fn push(&mut self, job: JobState) {
        self.window.push_back(job);
    }

    /// Evict the front job; callers only do this once it has completed
    /// and its record has been emitted.
    pub(crate) fn evict_front(&mut self) -> Option<JobState> {
        let j = self.window.pop_front()?;
        self.base += 1;
        Some(j)
    }

    /// The lowest-id resident job, if any.
    #[inline]
    pub(crate) fn front(&self) -> Option<&JobState> {
        self.window.front()
    }
}

impl Index<usize> for JobStore {
    type Output = JobState;
    #[inline]
    fn index(&self, i: usize) -> &JobState {
        self.get(i).unwrap_or_else(|| {
            panic!(
                "job {i} is not resident (ids below {} evicted, {} admitted)",
                self.base,
                self.len()
            )
        })
    }
}

impl IndexMut<usize> for JobStore {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut JobState {
        let (base, len) = (self.base, self.len());
        self.get_mut(i).unwrap_or_else(|| {
            panic!("job {i} is not resident (ids below {base} evicted, {len} admitted)")
        })
    }
}

impl<'a> IntoIterator for &'a JobStore {
    type Item = &'a JobState;
    type IntoIter = std::collections::vec_deque::Iter<'a, JobState>;
    fn into_iter(self) -> Self::IntoIter {
        self.window.iter()
    }
}

/// Read view handed to schedulers: current time, cluster, jobs.
#[derive(Debug)]
pub struct SimState {
    /// Current simulation time (seconds).
    pub now: f64,
    /// Node bookkeeping.
    pub cluster: ClusterState,
    /// One entry per admitted job, indexed by [`JobId`]; completed
    /// prefixes are evicted by the streaming engine.
    pub jobs: JobStore,
    /// Sorted ids of jobs in the system (submitted, not completed).
    pub(crate) live: Vec<u32>,
    /// Sorted ids of running jobs.
    pub(crate) running: Vec<u32>,
    /// Bumped on every job lifecycle transition.
    pub(crate) epoch: u64,
}

impl SimState {
    /// Fresh state with every trace job resident and unsubmitted, all
    /// nodes idle (the materialized construction; the streaming engine
    /// starts from [`SimState::empty`] and admits jobs as they arrive).
    pub fn new(cluster: ClusterSpec, jobs: &[JobSpec]) -> Self {
        let mut state = SimState::empty(cluster);
        for j in jobs {
            state.jobs.push(JobState::new(*j));
        }
        state
    }

    /// Fresh state with no jobs admitted yet.
    pub fn empty(cluster: ClusterSpec) -> Self {
        SimState {
            now: 0.0,
            cluster: ClusterState::new(cluster),
            jobs: JobStore::default(),
            live: Vec::new(),
            running: Vec::new(),
            epoch: 0,
        }
    }

    /// Access a job by id.
    #[inline]
    pub fn job(&self, id: JobId) -> &JobState {
        &self.jobs[id.index()]
    }

    /// The task placement of `id`: one hosting node per task while the
    /// job is `Running`, empty otherwise.
    #[inline]
    pub fn placement(&self, id: JobId) -> &[NodeId] {
        let j = &self.jobs[id.index()];
        if j.status == JobStatus::Running {
            &j.placement
        } else {
            &[]
        }
    }

    /// The full placement slice of `id` (regardless of status) for the
    /// engine to fill before marking the job running.
    #[inline]
    pub(crate) fn placement_slot(&mut self, id: JobId) -> &mut [NodeId] {
        &mut self.jobs[id.index()].placement
    }

    /// The placement slice of `id` read without the `Running` guard (the
    /// engine reads it mid-transition, e.g. while vacating a migrating
    /// job whose status is still `Running` but whose tasks are being
    /// removed).
    #[inline]
    pub(crate) fn placement_raw(&self, id: JobId) -> &[NodeId] {
        &self.jobs[id.index()].placement
    }

    /// Monotone counter of observable state changes (job lifecycle +
    /// node loads). Equal epochs at two instants guarantee that no job
    /// was submitted, started, paused, resumed, migrated, completed, or
    /// re-targeted in between (virtual-time accrual is *not* tracked —
    /// it advances continuously).
    #[inline]
    pub fn change_epoch(&self) -> u64 {
        self.epoch + self.cluster.epoch()
    }

    /// Jobs currently in the system (submitted, not completed), in
    /// ascending id order.
    pub fn jobs_in_system(&self) -> impl Iterator<Item = &JobState> {
        self.live.iter().map(|&i| &self.jobs[i as usize])
    }

    /// How many jobs [`jobs_in_system`](Self::jobs_in_system) yields,
    /// without walking them.
    #[inline]
    pub fn in_system_len(&self) -> usize {
        self.live.len()
    }

    /// Running jobs, in ascending id order.
    pub fn running_jobs(&self) -> impl Iterator<Item = &JobState> {
        self.running.iter().map(|&i| &self.jobs[i as usize])
    }

    /// Sorted ids of running jobs (engine hot path).
    #[inline]
    pub(crate) fn running_ids(&self) -> &[u32] {
        &self.running
    }

    fn index_insert(list: &mut Vec<u32>, id: u32) {
        match list.binary_search(&id) {
            Ok(_) => debug_assert!(false, "job {id} already indexed"),
            Err(pos) => list.insert(pos, id),
        }
    }

    fn index_remove(list: &mut Vec<u32>, id: u32) {
        match list.binary_search(&id) {
            Ok(pos) => {
                list.remove(pos);
            }
            Err(_) => debug_assert!(false, "job {id} not indexed"),
        }
    }

    /// Record a lifecycle transition of `id` from `from` to `to`,
    /// keeping the live/running indexes and the change epoch in sync.
    /// The caller sets `jobs[id].status` itself (it owns the rest of
    /// the transition bookkeeping).
    pub(crate) fn index_transition(&mut self, id: JobId, from: JobStatus, to: JobStatus) {
        let raw = id.0;
        match (from, to) {
            (JobStatus::Unsubmitted, JobStatus::Pending) => Self::index_insert(&mut self.live, raw),
            (JobStatus::Pending | JobStatus::Paused, JobStatus::Running) => {
                Self::index_insert(&mut self.running, raw)
            }
            (JobStatus::Running, JobStatus::Paused) => Self::index_remove(&mut self.running, raw),
            // Node failure under FailurePolicy::Restart: the job is
            // resubmitted with its progress discarded.
            (JobStatus::Running, JobStatus::Pending) => Self::index_remove(&mut self.running, raw),
            (JobStatus::Running, JobStatus::Completed) => {
                Self::index_remove(&mut self.running, raw);
                Self::index_remove(&mut self.live, raw);
            }
            // Cancel of a job that never held (or no longer holds)
            // resources: only the live index knows about it.
            (JobStatus::Pending | JobStatus::Paused, JobStatus::Completed) => {
                Self::index_remove(&mut self.live, raw);
            }
            (f, t) => debug_assert!(false, "unexpected transition {f:?} -> {t:?}"),
        }
        self.epoch += 1;
    }

    /// Admit `spec` as a fresh `Pending` job (its id must be the next
    /// dense one).
    pub(crate) fn admit(&mut self, spec: JobSpec) -> JobId {
        let id = spec.id;
        debug_assert_eq!(id.index(), self.jobs.len(), "{id} admitted out of order");
        let mut js = JobState::new(spec);
        js.status = JobStatus::Pending;
        self.jobs.push(js);
        self.index_transition(id, JobStatus::Unsubmitted, JobStatus::Pending);
        id
    }

    /// Take every task of `id` off the cluster; `yld` is the yield the
    /// tasks were allocated at.
    fn vacate(&mut self, id: JobId, yld: f64) {
        let spec = self.jobs[id.index()].spec;
        for k in 0..spec.tasks as usize {
            let node = self.placement_raw(id)[k];
            self.cluster
                .remove_task(node, spec.cpu_need, spec.mem_req, spec.gpu_need, yld);
        }
    }

    /// Put every task of `id` on `placement` at yield `yld`.
    fn place(&mut self, id: JobId, placement: &[NodeId], yld: f64) {
        let spec = self.jobs[id.index()].spec;
        for &n in placement {
            self.cluster
                .add_task(n, spec.cpu_need, spec.mem_req, spec.gpu_need, yld);
        }
        self.placement_slot(id).copy_from_slice(placement);
        self.jobs[id.index()].yld = yld;
    }

    /// Change the yield of `id`'s tasks in place, from `old` to `new`.
    fn retarget(&mut self, id: JobId, old: f64, new: f64) {
        let spec = self.jobs[id.index()].spec;
        for k in 0..spec.tasks as usize {
            let node = self.placement_raw(id)[k];
            self.cluster
                .retarget_task(node, spec.cpu_need, spec.gpu_need, old, new);
        }
        self.jobs[id.index()].yld = new;
    }

    /// Run the waiting (`Pending` or `Paused`) job `id` on `placement`
    /// at `yld`. A first start records its start time.
    fn start(&mut self, id: JobId, placement: &[NodeId], yld: f64) {
        let from = self.jobs[id.index()].status;
        self.place(id, placement, yld);
        let j = &mut self.jobs[id.index()];
        j.status = JobStatus::Running;
        if from == JobStatus::Pending {
            j.first_start.get_or_insert(self.now);
        }
        self.index_transition(id, from, JobStatus::Running);
    }

    /// Pause the running job `id`: its tasks leave the cluster, its
    /// progress is kept.
    fn pause(&mut self, id: JobId) {
        let j = &self.jobs[id.index()];
        assert_eq!(
            j.status,
            JobStatus::Running,
            "plan pauses non-running job {id}"
        );
        self.vacate(id, j.yld);
        let j = &mut self.jobs[id.index()];
        j.status = JobStatus::Paused;
        j.yld = 0.0;
        j.preemptions += 1;
        self.index_transition(id, JobStatus::Running, JobStatus::Paused);
    }

    /// Retire the live job `id` at the current instant — a completion,
    /// a cancel, or a view's withdrawal of a job moved elsewhere: a
    /// running job's tasks leave the cluster, and the job ends
    /// `Completed` with its completion time set.
    pub(crate) fn retire(&mut self, id: JobId) {
        let j = &self.jobs[id.index()];
        let from = j.status;
        if from == JobStatus::Running {
            self.vacate(id, j.yld);
        }
        let j = &mut self.jobs[id.index()];
        j.status = JobStatus::Completed;
        j.completion = Some(self.now);
        j.yld = 0.0;
        self.index_transition(id, from, JobStatus::Completed);
    }

    /// Take `node` out of service. Every running job with a task there
    /// is struck, in ascending id: all its tasks leave the cluster
    /// (healthy-node ones included — a parallel job that loses one task
    /// loses its synchronized state). A victim for which `preserve`
    /// holds is paused with its progress kept; any other is resubmitted
    /// `Pending` with its progress discarded. Returns every victim with
    /// the virtual time it had when struck.
    pub(crate) fn strike(
        &mut self,
        node: NodeId,
        preserve: impl Fn(&JobState) -> bool,
    ) -> Vec<(JobId, f64)> {
        let victims: Vec<JobId> = self
            .running
            .iter()
            .map(|&i| JobId(i))
            .filter(|&id| self.placement_raw(id).contains(&node))
            .collect();
        let mut struck = Vec::with_capacity(victims.len());
        for id in victims {
            let j = &self.jobs[id.index()];
            struck.push((id, j.virtual_time));
            if preserve(j) {
                self.pause(id);
                continue;
            }
            self.vacate(id, j.yld);
            let j = &mut self.jobs[id.index()];
            j.virtual_time = 0.0;
            j.yld = 0.0;
            j.penalty_until = 0.0;
            j.status = JobStatus::Pending;
            j.restarts += 1;
            self.index_transition(id, JobStatus::Running, JobStatus::Pending);
        }
        self.cluster.set_node_up(node, false);
        struck
    }

    /// Apply `plan` in two phases — every release (pauses, then
    /// migration departures and yield decreases) strictly before every
    /// addition — so that plans which permute jobs across nodes never
    /// trip capacity checks on transient intermediate states. Run
    /// entries are classified against the *pre-plan* state; `applied`
    /// comes back holding the pauses and the classified runs in plan
    /// order for the caller's own bookkeeping. Placements are read from
    /// the plan in place and copied into the per-job slots.
    pub(crate) fn apply_plan(&mut self, plan: &Plan, applied: &mut Applied) {
        let Applied {
            pauses,
            actions,
            moved_a,
            moved_b,
        } = applied;
        actions.clear();
        pauses.clear();
        for (idx, e) in plan.entries.iter().enumerate() {
            match e {
                PlanEntry::Pause { job } => pauses.push(*job),
                PlanEntry::Run { job, yld, .. } => {
                    let placement = plan.placement(e);
                    let js = &self.jobs[job.index()];
                    assert_eq!(
                        placement.len(),
                        js.spec.tasks as usize,
                        "plan places {} tasks for {job} ({} expected)",
                        placement.len(),
                        js.spec.tasks
                    );
                    assert!(
                        *yld > 0.0 && *yld <= 1.0 + approx::EPS,
                        "plan sets invalid yield {yld} for {job}"
                    );
                    let kind = match js.status {
                        JobStatus::Pending => RunKind::Start,
                        JobStatus::Paused => RunKind::Resume,
                        JobStatus::Running => {
                            match moved_tasks(self.placement_raw(*job), placement, moved_a, moved_b)
                            {
                                0 => RunKind::Adjust,
                                moved => RunKind::Migrate { moved },
                            }
                        }
                        st => panic!("plan runs job {job} in status {st:?}"),
                    };
                    actions.push(RunAction {
                        entry: idx as u32,
                        job: *job,
                        yld: yld.min(1.0),
                        kind,
                        old_yld: js.yld,
                    });
                }
            }
        }
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                actions.iter().all(|a| seen.insert(a.job)) && pauses.iter().all(|p| seen.insert(*p))
            },
            "plan mentions a job twice (pause+run or duplicate run)"
        );

        // Phase 1: releases. Doing every one before any addition keeps
        // the per-node capacity monotone below its final value.
        for &job in pauses.iter() {
            self.pause(job);
        }
        for a in actions.iter() {
            if let RunKind::Migrate { .. } = a.kind {
                self.vacate(a.job, a.old_yld);
            } else if a.lowers() {
                self.retarget(a.job, a.old_yld, a.yld);
            }
        }

        // Phase 2: additions and upward adjustments.
        for a in actions.iter() {
            let placement = plan.placement(&plan.entries[a.entry as usize]);
            match a.kind {
                RunKind::Start | RunKind::Resume => self.start(a.job, placement, a.yld),
                RunKind::Adjust if a.yld > a.old_yld => self.retarget(a.job, a.old_yld, a.yld),
                RunKind::Adjust => {}
                RunKind::Migrate { .. } => {
                    // The old tasks left in phase 1.
                    self.place(a.job, placement, a.yld);
                    self.jobs[a.job.index()].migrations += 1;
                }
            }
        }
    }
}

/// How a run entry affects its job, classified against pre-plan state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RunKind {
    Start,
    Resume,
    /// Same nodes as a multiset (a reordering is no move); the yield
    /// may change.
    Adjust,
    Migrate {
        moved: usize,
    },
}

/// One classified run entry; the placement is read from the plan entry
/// at index `entry` (no clone).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunAction {
    pub(crate) entry: u32,
    pub(crate) job: JobId,
    pub(crate) yld: f64,
    pub(crate) kind: RunKind,
    pub(crate) old_yld: f64,
}

impl RunAction {
    /// A yield decrease in place: a release, applied in phase 1.
    pub(crate) fn lowers(&self) -> bool {
        self.kind == RunKind::Adjust && self.yld < self.old_yld
    }
}

/// What [`SimState::apply_plan`] did — the pauses and the classified
/// runs, each in plan order — plus the sort scratch its classification
/// reuses (never observable in results).
#[derive(Debug, Default)]
pub(crate) struct Applied {
    pub(crate) pauses: Vec<JobId>,
    pub(crate) actions: Vec<RunAction>,
    moved_a: Vec<NodeId>,
    moved_b: Vec<NodeId>,
}

/// Number of tasks that change nodes between two placements (multiset
/// difference; task identity within a job is interchangeable). `buf_a`
/// and `buf_b` are caller-owned sort scratch; an unchanged placement
/// (the common case under repacking) returns before touching them.
pub(crate) fn moved_tasks(
    old: &[NodeId],
    new: &[NodeId],
    buf_a: &mut Vec<NodeId>,
    buf_b: &mut Vec<NodeId>,
) -> usize {
    debug_assert_eq!(old.len(), new.len());
    if old == new {
        return 0;
    }
    buf_a.clear();
    buf_a.extend_from_slice(old);
    buf_b.clear();
    buf_b.extend_from_slice(new);
    buf_a.sort_unstable();
    buf_b.sort_unstable();
    let (mut i, mut k, mut common) = (0usize, 0usize, 0usize);
    while i < buf_a.len() && k < buf_b.len() {
        match buf_a[i].cmp(&buf_b[k]) {
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                k += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => k += 1,
        }
    }
    old.len() - common
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32, tasks: u32) -> JobSpec {
        JobSpec::new(JobId(id), 0.0, tasks, 0.5, 0.25, 100.0).unwrap()
    }

    fn cluster() -> ClusterState {
        ClusterState::new(ClusterSpec::new(4, 4, 8.0).unwrap())
    }

    #[test]
    fn add_remove_round_trips_node_state() {
        let mut c = cluster();
        c.add_task(NodeId(1), 0.5, 0.25, 0.0, 0.8);
        assert_eq!(c.busy_nodes(), 1);
        let n = c.nodes()[1];
        assert!((n.cpu_load - 0.5).abs() < 1e-12);
        assert!((n.cpu_alloc - 0.4).abs() < 1e-12);
        assert!((n.mem_used - 0.25).abs() < 1e-12);
        c.remove_task(NodeId(1), 0.5, 0.25, 0.0, 0.8);
        assert_eq!(c.busy_nodes(), 0);
        assert_eq!(c.nodes()[1], NodeState::default());
    }

    #[test]
    fn retarget_updates_allocation_only() {
        let mut c = cluster();
        c.add_task(NodeId(0), 0.5, 0.1, 0.0, 1.0);
        c.retarget_task(NodeId(0), 0.5, 0.0, 1.0, 0.4);
        let n = c.nodes()[0];
        assert!((n.cpu_alloc - 0.2).abs() < 1e-12);
        assert!((n.cpu_load - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_counting_tracks_multiple_tasks_per_node() {
        let mut c = cluster();
        c.add_task(NodeId(2), 0.3, 0.1, 0.0, 1.0);
        c.add_task(NodeId(2), 0.3, 0.1, 0.0, 1.0);
        assert_eq!(c.busy_nodes(), 1);
        c.remove_task(NodeId(2), 0.3, 0.1, 0.0, 1.0);
        assert_eq!(c.busy_nodes(), 1);
        c.remove_task(NodeId(2), 0.3, 0.1, 0.0, 1.0);
        assert_eq!(c.busy_nodes(), 0);
        assert_eq!(c.idle_nodes(), 4);
    }

    #[test]
    fn max_cpu_load_over_nodes() {
        let mut c = cluster();
        c.add_task(NodeId(0), 1.0, 0.1, 0.0, 0.5);
        c.add_task(NodeId(0), 1.0, 0.1, 0.0, 0.5);
        c.add_task(NodeId(3), 0.7, 0.1, 0.0, 1.0);
        assert!((c.max_cpu_load() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn epochs_mark_dirty_nodes() {
        // `epoch` rises on every load change; `membership_epoch` never does.
        let mut c = cluster();
        let m0 = c.membership_epoch();
        let e0 = c.epoch();
        c.add_task(NodeId(2), 0.3, 0.1, 0.0, 1.0);
        let e1 = c.epoch();
        assert!(e1 > e0, "add_task bumps the epoch");
        c.retarget_task(NodeId(2), 0.3, 0.0, 1.0, 0.5);
        let e2 = c.epoch();
        assert!(e2 > e1, "retarget_task bumps the epoch");
        c.remove_task(NodeId(2), 0.3, 0.1, 0.0, 0.5);
        let e3 = c.epoch();
        assert!(e3 > e2, "remove_task bumps the epoch");
        assert_eq!(
            c.membership_epoch(),
            m0,
            "load changes leave membership alone"
        );
        // A node leaving and rejoining service bumps both counters.
        c.set_node_up(NodeId(2), false);
        assert_eq!(c.membership_epoch(), m0 + 1);
        assert!(c.epoch() > e3);
        c.set_node_up(NodeId(2), true);
        assert_eq!(c.membership_epoch(), m0 + 2);
    }

    #[test]
    fn up_down_bit_and_available_view() {
        let mut c = cluster();
        assert_eq!(c.up_nodes(), 4);
        assert_eq!(c.down_nodes(), 0);
        assert_eq!(c.available_nodes().count(), 4);
        let e0 = c.epoch();
        c.set_node_up(NodeId(2), false);
        assert!(!c.is_up(NodeId(2)));
        assert_eq!(c.up_nodes(), 3);
        assert_eq!(c.down_nodes(), 1);
        assert_eq!(
            c.available_nodes().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        assert!(c.epoch() > e0, "node-set changes bump the epoch");
        // Idempotent: repeating the same bit is a no-op (no epoch bump).
        let e1 = c.epoch();
        c.set_node_up(NodeId(2), false);
        assert_eq!(c.epoch(), e1);
        c.set_node_up(NodeId(2), true);
        assert_eq!(c.up_nodes(), 4);
    }

    #[test]
    fn down_nodes_are_not_idle_capacity() {
        let mut c = cluster();
        c.add_task(NodeId(0), 0.3, 0.1, 0.0, 1.0);
        assert_eq!(c.idle_nodes(), 3);
        c.set_node_up(NodeId(3), false);
        assert_eq!(c.idle_nodes(), 2, "a down node is not idle");
        assert_eq!(c.busy_nodes(), 1);
    }

    #[test]
    fn free_nodes_skip_busy_and_down_nodes_lazily() {
        let mut c = ClusterState::new(ClusterSpec::new(8, 4, 8.0).unwrap());
        for n in [0, 3, 4, 7] {
            c.add_task(NodeId(n), 0.3, 0.1, 0.0, 1.0);
        }
        c.set_node_up(NodeId(5), false);
        let mut free = c.free_nodes();
        assert_eq!(free.len(), 3);
        assert_eq!(
            free.by_ref().take(2).collect::<Vec<_>>(),
            [NodeId(1), NodeId(2)]
        );
        assert_eq!(free.len(), 1);
        assert_eq!(free.collect::<Vec<_>>(), [NodeId(6)]);
        c.remove_task(NodeId(0), 0.3, 0.1, 0.0, 1.0);
        let free: Vec<NodeId> = c.free_nodes().collect();
        assert_eq!(free, [NodeId(0), NodeId(1), NodeId(2), NodeId(6)]);
    }

    #[test]
    fn completion_time_accounts_for_penalty() {
        let mut j = JobState::new(spec(0, 1));
        j.status = JobStatus::Running;
        j.yld = 0.5;
        j.virtual_time = 40.0;
        // remaining 60 vt-seconds at yield 0.5 → 120 s of wall clock.
        assert_eq!(j.completion_time(1_000.0), Some(1_120.0));
        j.penalty_until = 1_200.0;
        assert_eq!(j.completion_time(1_000.0), Some(1_320.0));
        j.status = JobStatus::Paused;
        assert_eq!(j.completion_time(1_000.0), None);
    }

    #[test]
    fn job_state_lifecycle_flags() {
        let mut j = JobState::new(spec(0, 2));
        assert!(!j.in_system());
        j.status = JobStatus::Pending;
        assert!(j.in_system());
        j.status = JobStatus::Completed;
        assert!(!j.in_system());
    }

    #[test]
    fn sim_state_indexes_follow_transitions() {
        let cl = ClusterSpec::new(4, 4, 8.0).unwrap();
        let jobs = vec![spec(0, 2), spec(1, 1), spec(2, 3)];
        let mut s = SimState::new(cl, &jobs);
        assert_eq!(s.jobs_in_system().count(), 0);
        let e0 = s.change_epoch();

        for id in [1u32, 0, 2] {
            s.jobs[id as usize].status = JobStatus::Pending;
            s.index_transition(JobId(id), JobStatus::Unsubmitted, JobStatus::Pending);
        }
        let ids: Vec<u32> = s.jobs_in_system().map(|j| j.spec.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "ascending id order");
        assert!(s.change_epoch() > e0);

        s.jobs[1].status = JobStatus::Running;
        s.index_transition(JobId(1), JobStatus::Pending, JobStatus::Running);
        assert_eq!(s.running_ids(), &[1]);

        s.jobs[1].status = JobStatus::Running;
        s.placement_slot(JobId(1))[0] = NodeId(3);
        assert_eq!(s.placement(JobId(1)), &[NodeId(3)]);
        assert_eq!(s.placement(JobId(0)), &[] as &[NodeId]);

        s.jobs[1].status = JobStatus::Completed;
        s.index_transition(JobId(1), JobStatus::Running, JobStatus::Completed);
        assert_eq!(s.running_ids(), &[] as &[u32]);
        assert_eq!(s.jobs_in_system().count(), 2);
    }
}
