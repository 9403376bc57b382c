//! The eviction front shared by every vector-packing family
//! (`dynmcb8*`, `fairness`, `stretch_per`, `drf`): the paper's "drop the
//! lowest-priority job and search again" loop (Section III-B), entered
//! at the first candidate set that can possibly pack.
//!
//! Memory is rigid, so two facts one pass over the candidates decides
//! are necessary for *any* valid packing: the memory total fits the
//! cluster, and the tasks needing more than half a node number at most
//! one per node. A set violating either makes every search return
//! `None`, so the loop takes that branch without running the search:
//! victims go in a once-sorted order with O(1) running updates until
//! a set passes both tests, only those sets are searched, and the
//! victims popped between two searches leave the candidates in one
//! pass (DESIGN.md "Eviction front" has the exactness argument).

use dfrs_core::approx::EPS;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::priority::PriorityKey;
use dfrs_packing::{split_tasks, RepackMemo};
use dfrs_sim::{JobState, JobStatus, Plan, SimState};

/// Relative slack on the memory-total test. A valid packing holds at
/// most `1 + EPS` per bin *as the packers sum it*; this covers that
/// `bins × EPS`, their per-bin rounding, and the rounding of the
/// running total here, each orders of magnitude smaller. Sets inside
/// the band are not skipped — they fall through to the real search.
const MEM_SLACK: f64 = 1e-6;

/// Which candidate is dropped first when a set does not pack. Both keys
/// are strict total orders (they end in the job id), so one sort equals
/// repeated `min_by`/`max_by` over the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VictimOrder {
    /// Lowest paper priority key first.
    Priority,
    /// Largest total dominant demand `d · tasks` first, ties to the
    /// lower priority key (the DRF preemption ordering).
    DominantDemand,
}

/// A job's rigid demand: total memory, and its tasks that cannot share
/// a node with another such task (two of them exceed `1 + EPS`).
fn rigid_demand(j: &JobState) -> (f64, u64) {
    let s = &j.spec;
    let big = if s.mem_req > 0.5 + EPS { s.tasks } else { 0 };
    (s.tasks as f64 * s.mem_req, big as u64)
}

/// Buffers of the front, one per scheduler instance, reused across
/// every decision of a run.
#[derive(Debug, Default)]
pub(crate) struct EvictionFront {
    /// The surviving candidates, ascending id.
    candidates: Vec<JobId>,
    /// `(total dominant demand, priority key)` of every candidate of
    /// this decision, in eviction order (built on the first eviction).
    victims: Vec<(f64, PriorityKey)>,
    /// The victims one eviction step removes, ascending id.
    batch: Vec<JobId>,
    /// The available-node slice: packing runs over `avail.len()`
    /// anonymous bins and bin `b` maps to physical node `avail[b]`
    /// (the identity with every node up).
    avail: Vec<NodeId>,
    /// `(membership_epoch, cluster size)` the slice and its identity
    /// were computed at. Both are pure functions of the membership, so
    /// while it is unchanged per-event repacks skip the cluster-sized
    /// rebuild and rehash — the dominant per-event cost on very large
    /// clusters.
    avail_at: Option<(u64, usize)>,
    /// `RepackMemo::caps_identity` of `avail`.
    avail_identity: u64,
}

impl EvictionFront {
    /// Refresh the available-node slice if the membership changed and
    /// return its identity — what keys a warm memo to the *set* of
    /// nodes, not just its size (same-count churn is another platform).
    pub(crate) fn platform_identity(&mut self, state: &SimState) -> u64 {
        let cluster = &state.cluster;
        let at = (cluster.membership_epoch(), cluster.nodes().len());
        if self.avail_at != Some(at) {
            self.avail.clear();
            self.avail.extend(cluster.available_nodes());
            self.avail_identity =
                RepackMemo::caps_identity(self.avail.iter().map(|n| n.index() as u64));
            self.avail_at = Some(at);
        }
        self.avail_identity
    }

    /// Drop the cached slice: a new run's cluster may share a
    /// membership counter with the old one's.
    pub(crate) fn forget_platform(&mut self) {
        self.avail_at = None;
    }

    /// Whether the last [`pack`](Self::pack) or [`keep`](Self::keep)
    /// kept every job in the system: no candidate dropped, so no running
    /// job to pause.
    pub(crate) fn kept_all(&self, state: &SimState) -> bool {
        self.candidates.len() == state.in_system_len()
    }

    /// Keep what still fits: when every running job runs at yield 1
    /// and the waiting jobs' tasks number at most the idle in-service
    /// nodes, the plan that starts every waiting job (ascending id) at
    /// yield 1 with one task on each next idle node
    /// ([`free_nodes`](dfrs_sim::ClusterState::free_nodes)), and leaves
    /// every running job where it is. Every job then runs at the
    /// maximum yield, so no search could raise one. `None` otherwise.
    /// Every job in the system stays a candidate, so
    /// [`kept_all`](Self::kept_all) holds after it. O(jobs in system +
    /// tasks placed).
    pub(crate) fn keep(&mut self, state: &SimState) -> Option<Plan> {
        if state.running_jobs().any(|j| j.yld != 1.0) {
            return None;
        }
        let waiting = || {
            state
                .jobs_in_system()
                .filter(|j| j.status != JobStatus::Running)
        };
        let tasks: u64 = waiting().map(|j| u64::from(j.spec.tasks)).sum();
        if tasks > u64::from(state.cluster.idle_nodes()) {
            return None;
        }
        self.candidates.clear();
        self.candidates
            .extend(state.jobs_in_system().map(|j| j.spec.id));
        let mut free = state.cluster.free_nodes();
        let mut plan = Plan::with_capacity(waiting().count(), tasks as usize);
        for j in waiting() {
            plan.push_run(j.spec.id, 1.0, free.by_ref().take(j.spec.tasks as usize));
        }
        Some(plan)
    }

    /// The decision of the last [`pack`](Self::pack) as a plan: a pause
    /// for every running job it left out (ascending id), then a run
    /// for every surviving candidate (ascending id). `bins` is the
    /// search's per-task bin vector over those candidates — bin `b`
    /// goes into the plan as physical node `avail[b]` — and `yld(i)`
    /// the yield of candidate `i`.
    pub(crate) fn plan(&self, state: &SimState, bins: &[u32], yld: impl Fn(usize) -> f64) -> Plan {
        let mut plan = Plan::with_capacity(self.candidates.len(), bins.len());
        if !self.kept_all(state) {
            let running = state.running_jobs().map(|j| j.spec.id);
            for id in running.filter(|id| self.candidates.binary_search(id).is_err()) {
                plan = plan.pause(id);
            }
        }
        let tasks = self.candidates.iter().map(|&id| state.job(id).spec.tasks);
        let per_job = self.candidates.iter().zip(split_tasks(bins, tasks));
        for (i, (&id, bins)) in per_job.enumerate() {
            plan.push_run(id, yld(i), bins.iter().map(|&b| self.avail[b as usize]));
        }
        plan
    }

    /// Run `search(candidates, bins)` on the jobs in the system minus
    /// the fewest victims (in `order`) for which it returns `Some`.
    /// With no node in service nothing is a candidate and the empty set
    /// packs trivially, pausing everything until capacity returns.
    pub(crate) fn pack<T>(
        &mut self,
        state: &SimState,
        order: VictimOrder,
        mut search: impl FnMut(&[JobId], usize) -> Option<T>,
    ) -> T {
        self.platform_identity(state);
        let nodes = self.avail.len();
        self.candidates.clear();
        self.victims.clear();
        let (mut mem, mut big) = (0.0, 0u64);
        if nodes > 0 {
            for j in state.jobs_in_system() {
                self.candidates.push(j.spec.id);
                let (m, b) = rigid_demand(j);
                mem += m;
                big += b;
            }
        }
        let limit = nodes as f64 + MEM_SLACK * (nodes as f64 + mem);
        let mut evicted = 0;
        loop {
            // A set that fails a necessary condition is one whose
            // search returns `None`: skip straight to its eviction.
            if mem <= limit && big <= nodes as u64 {
                if let Some(found) = search(&self.candidates, nodes.max(1)) {
                    return found;
                }
            }
            if evicted == 0 {
                self.victims.extend(self.candidates.iter().map(|&id| {
                    let j = state.job(id);
                    let demand = match order {
                        VictimOrder::Priority => 0.0,
                        VictimOrder::DominantDemand => {
                            j.spec.dominant_fluid_need() * j.spec.tasks as f64
                        }
                    };
                    (demand, j.priority_key(state.now))
                }));
                self.victims
                    .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            }
            // Pop victims until the set passes both tests again: every
            // set in between would fail one, so none is searched. The
            // empty set passes both (the running total's residue is far
            // inside the slack) and packs trivially, so a victim
            // remains at every pop.
            let first = evicted;
            loop {
                let (m, b) = rigid_demand(state.job(self.victims[evicted].1.id));
                evicted += 1;
                mem -= m;
                big -= b;
                if mem <= limit && big <= nodes as u64 {
                    break;
                }
            }
            // One pass removes the batch: the candidates ascend by id.
            self.batch.clear();
            self.batch
                .extend(self.victims[first..evicted].iter().map(|v| v.1.id));
            self.batch.sort_unstable();
            let mut next = self.batch.iter().peekable();
            self.candidates.retain(|&c| next.next_if_eq(&&c).is_none());
        }
    }
}
