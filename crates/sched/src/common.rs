//! Machinery shared by all the algorithms: the waiting set, scratch
//! node state for incremental placement (down nodes poisoned), the
//! greedy task placer, and the yield optimization pipeline (equal-share
//! base + the paper's average-yield improvement heuristic).

use dfrs_core::approx;
use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::yield_math;
use dfrs_sim::{Plan, SimState};

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

/// Mutable copy of per-node free memory and CPU load that schedulers use
/// to evaluate placements before committing them to a plan.
#[derive(Debug, Clone)]
pub struct NodeScratch {
    /// Free memory per node.
    pub mem_free: Vec<f64>,
    /// CPU load (sum of needs) per node.
    pub cpu_load: Vec<f64>,
}

impl NodeScratch {
    /// Snapshot the current cluster state. Out-of-service nodes are
    /// poisoned (no free memory, infinite load) so the greedy placer
    /// can never select them; with every node up the snapshot is
    /// unchanged from the static-cluster behavior.
    pub fn from_state(state: &SimState) -> Self {
        NodeScratch {
            mem_free: state
                .cluster
                .nodes()
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    if state.cluster.is_up(NodeId(i as u32)) {
                        n.mem_free()
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect(),
            cpu_load: state
                .cluster
                .nodes()
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    if state.cluster.is_up(NodeId(i as u32)) {
                        n.cpu_load
                    } else {
                        f64::INFINITY
                    }
                })
                .collect(),
        }
    }

    /// Account one task added to `node`.
    pub fn add_task(&mut self, node: NodeId, cpu_need: f64, mem_req: f64) {
        self.mem_free[node.index()] -= mem_req;
        self.cpu_load[node.index()] += cpu_need;
    }

    /// Account one task removed from `node`.
    pub fn remove_task(&mut self, node: NodeId, cpu_need: f64, mem_req: f64) {
        self.mem_free[node.index()] += mem_req;
        self.cpu_load[node.index()] -= cpu_need;
    }

    /// Remove every task of a running job (by its current placement).
    pub fn remove_job(&mut self, placement: &[NodeId], cpu_need: f64, mem_req: f64) {
        for &n in placement {
            self.remove_task(n, cpu_need, mem_req);
        }
    }

    /// The GREEDY placement rule (Section III-A): for each task in turn,
    /// pick the node with the lowest CPU load among nodes with enough
    /// free memory. Returns `None` (leaving `self` unchanged) when some
    /// task cannot be placed.
    pub fn greedy_place(&mut self, tasks: u32, cpu_need: f64, mem_req: f64) -> Option<Vec<NodeId>> {
        let mut placement = Vec::with_capacity(tasks as usize);
        for _ in 0..tasks {
            let mut best: Option<usize> = None;
            for i in 0..self.mem_free.len() {
                if !approx::ge(self.mem_free[i], mem_req) {
                    continue;
                }
                match best {
                    Some(b) if self.cpu_load[b] <= self.cpu_load[i] => {}
                    _ => best = Some(i),
                }
            }
            match best {
                Some(i) => {
                    let node = NodeId(i as u32);
                    self.add_task(node, cpu_need, mem_req);
                    placement.push(node);
                }
                None => {
                    // Roll back partial placement.
                    for &n in &placement {
                        self.remove_task(n, cpu_need, mem_req);
                    }
                    return None;
                }
            }
        }
        Some(placement)
    }
}

/// A complete prospective allocation: the set of jobs that will be
/// running after this event, with their placements. Produces the per-job
/// yields via the paper's two-step rule.
#[derive(Debug, Clone, Default)]
pub struct AllocSet {
    jobs: Vec<AllocJob>,
    /// Every job's placement, back to back in insertion order.
    nodes: Vec<NodeId>,
    n_nodes: usize,
    /// The improvement pass's buffers, kept by a set that is
    /// [cleared](Self::clear) and reused.
    pass: YieldPass,
}

#[derive(Debug, Clone)]
struct AllocJob {
    id: JobId,
    cpu_need: f64,
    gpu_need: f64,
    /// This job's placement is `nodes[start..end]`.
    start: usize,
    end: usize,
}

/// Buffers of [`AllocSet::optimized_yields`]; only `yields`, the
/// answer, outlives a call.
#[derive(Debug, Clone, Default)]
struct YieldPass {
    /// Per job: its yield.
    yields: Vec<f64>,
    /// Per job: it can no longer be picked.
    retired: Vec<bool>,
    /// The jobs not yet retired, in insertion order (compacted as a
    /// round scans it).
    live: Vec<u32>,
    /// Per node: allocated CPU; in the GPU clamp, allocated GPU.
    alloc: Vec<f64>,
    /// Per node: no CPU slack is left.
    saturated: Vec<bool>,
    /// Per node: the picked job's tasks on it, zeroed as it is read.
    tally: Vec<u32>,
    /// Node → jobs index: the jobs with a task on node `n` are
    /// `node_jobs[node_start[n]..node_start[n + 1]]`, once per task.
    node_start: Vec<u32>,
    node_jobs: Vec<u32>,
}

impl AllocSet {
    /// Empty set. The per-node buffers are sized by the highest node
    /// actually pushed, not by the cluster: they are only ever indexed
    /// at placement nodes and folded with identities (zero load, zero
    /// demand) elsewhere, so a mostly-idle huge cluster doesn't pay
    /// cluster-sized zeroing per allocation set.
    pub fn new() -> Self {
        AllocSet::default()
    }

    /// Empty the set, keeping every buffer for the next one.
    pub fn clear(&mut self) {
        self.jobs.clear();
        self.nodes.clear();
        self.n_nodes = 0;
    }

    /// Add a job with its (planned or current) placement, copied into
    /// the set's arena. `gpu_need` is the job's fluid GPU demand (0 for
    /// the paper's CPU+memory workloads); it never steers the yield
    /// optimization — the yield family stays GPU-oblivious in its
    /// objective — but it feeds the final feasibility clamp (see
    /// [`gpu_clamp`](Self::optimized_yields)).
    pub fn push(&mut self, id: JobId, cpu_need: f64, gpu_need: f64, placement: &[NodeId]) {
        debug_assert!(!placement.is_empty());
        for n in placement {
            self.n_nodes = self.n_nodes.max(n.index() + 1);
        }
        let start = self.nodes.len();
        self.nodes.extend_from_slice(placement);
        self.jobs.push(AllocJob {
            id,
            cpu_need,
            gpu_need,
            start,
            end: self.nodes.len(),
        });
    }

    /// The placement of the `i`-th job pushed.
    pub fn placement(&self, i: usize) -> &[NodeId] {
        self.nodes_of(&self.jobs[i])
    }

    fn nodes_of(&self, job: &AllocJob) -> &[NodeId] {
        &self.nodes[job.start..job.end]
    }

    /// Per-node CPU load of this allocation.
    fn cpu_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.n_nodes];
        for j in &self.jobs {
            for &n in self.nodes_of(j) {
                loads[n.index()] += j.cpu_need;
            }
        }
        loads
    }

    /// The equal-share yield `1 / max(1, Λ)` for this allocation — the
    /// maximized minimum yield for a fixed mapping (Section III-A).
    pub fn equal_share_yield(&self) -> f64 {
        let max_load = self.cpu_loads().iter().copied().fold(0.0, f64::max);
        yield_math::equal_share_yield(max_load)
    }

    /// The average-yield improvement heuristic (Section III-A), starting
    /// every job at `base` yield: repeatedly select the job with the
    /// lowest total CPU need among jobs whose yield can still grow (yield
    /// < 1 and CPU slack on every hosting node) and raise its yield as
    /// far as the tightest node allows. Returns the yields in insertion
    /// order.
    ///
    /// Per-node allocation and yields only grow and a frozen job stays
    /// frozen, so a job that cannot grow never can again: each job is
    /// tested for slack once, and after a raise only the raised job's
    /// nodes are, a node that runs out of slack retiring every job on
    /// it (DESIGN.md "Average-yield improvement pass"). A round scans
    /// the survivors in insertion order with the one comparison below;
    /// its `approx::eq` ties are not transitive, so the candidates are
    /// never pre-sorted.
    pub fn optimized_yields(&mut self, base: f64) -> &[f64] {
        debug_assert!(base > 0.0 && base <= 1.0 + approx::EPS);
        let base = base.min(1.0);
        let YieldPass {
            yields,
            retired,
            live,
            alloc,
            saturated,
            tally,
            node_start,
            node_jobs,
        } = &mut self.pass;
        let (jobs, nodes, n_nodes) = (&self.jobs, &self.nodes, self.n_nodes);
        yields.clear();
        yields.resize(jobs.len(), base);
        let any_gpu = jobs.iter().any(|j| j.gpu_need > 0.0);
        // At full yield no job can grow, so with no GPU demand the
        // answer is `base` for everyone.
        if base >= 1.0 - approx::EPS && !any_gpu {
            return yields;
        }
        // Allocated CPU per node under the base yield, and the tasks on
        // each node: the sizes of the node → jobs index's buckets.
        alloc.clear();
        alloc.resize(n_nodes, 0.0);
        node_start.clear();
        node_start.resize(n_nodes + 1, 0);
        for j in jobs {
            for &node in &nodes[j.start..j.end] {
                alloc[node.index()] += j.cpu_need * base;
                node_start[node.index()] += 1;
            }
        }
        saturated.clear();
        saturated.extend(alloc.iter().map(|&a| !approx::pos(1.0 - a)));
        tally.clear();
        tally.resize(n_nodes, 0);
        // Bucket ends; filling each bucket backwards leaves
        // `node_start[n]` at its start. The candidates, in the same
        // pass: every job below full yield with slack on all its nodes.
        for k in 1..=n_nodes {
            node_start[k] += node_start[k - 1];
        }
        node_jobs.clear();
        node_jobs.resize(nodes.len(), 0);
        retired.clear();
        live.clear();
        for (i, j) in jobs.iter().enumerate() {
            let mut grows = base < 1.0 - approx::EPS;
            for &node in &nodes[j.start..j.end] {
                let k = node.index();
                node_start[k] -= 1;
                node_jobs[node_start[k] as usize] = i as u32;
                grows &= !saturated[k];
            }
            retired.push(!grows);
            if grows {
                live.push(i as u32);
            }
        }
        let total_need = |j: &AllocJob| j.cpu_need * (j.end - j.start) as f64;
        loop {
            // Lowest total CPU need among the survivors, ties by id;
            // the retired leave the list as it is scanned.
            let mut pick: Option<usize> = None;
            let mut kept = 0;
            for r in 0..live.len() {
                let i = live[r] as usize;
                if retired[i] {
                    continue;
                }
                live[kept] = i as u32;
                kept += 1;
                let better = match pick {
                    None => true,
                    Some(p) => {
                        let (tp, ti) = (total_need(&jobs[p]), total_need(&jobs[i]));
                        ti < tp - approx::EPS || (approx::eq(ti, tp) && jobs[i].id < jobs[p].id)
                    }
                };
                if better {
                    pick = Some(i);
                }
            }
            live.truncate(kept);
            let Some(i) = pick else { break };
            let job = &jobs[i];
            let placement = &nodes[job.start..job.end];
            // Tightest increase over hosting nodes: slack / (need × count
            // of this job's tasks on that node), each node counted at its
            // first occurrence; the running minimum is order-independent.
            for &node in placement {
                tally[node.index()] += 1;
            }
            let mut delta = 1.0 - yields[i];
            for &node in placement {
                let count = std::mem::take(&mut tally[node.index()]);
                if count == 0 {
                    continue; // already counted
                }
                let slack = 1.0 - alloc[node.index()];
                delta = delta.min(yield_math::max_yield_increase(
                    slack,
                    job.cpu_need * count as f64,
                ));
            }
            if delta <= approx::EPS {
                retired[i] = true;
                continue;
            }
            for &node in placement {
                alloc[node.index()] += job.cpu_need * delta;
            }
            yields[i] += delta;
            if yields[i] > 1.0 {
                yields[i] = 1.0;
            }
            retired[i] |= yields[i] >= 1.0 - approx::EPS;
            for &node in placement {
                let k = node.index();
                if !saturated[k] && !approx::pos(1.0 - alloc[k]) {
                    saturated[k] = true;
                    let on_node = &node_jobs[node_start[k] as usize..node_start[k + 1] as usize];
                    for &other in on_node {
                        retired[other as usize] = true;
                    }
                }
            }
        }
        // GPU feasibility clamp: the optimization above is deliberately
        // GPU-oblivious (the paper's objective is CPU-only), so on a
        // GPU-annotated workload it can promise more fluid GPU than a
        // node has. Scale each GPU consumer down by the worst
        // oversubscription among its hosting nodes — sufficient in one
        // pass, since every consumer on an oversubscribed node shrinks
        // by at least that node's factor. With no GPU demand this is a
        // guarded no-op, keeping GPU-free runs bit-identical.
        if any_gpu {
            let gpu = alloc;
            gpu.clear();
            gpu.resize(n_nodes, 0.0);
            for (j, y) in jobs.iter().zip(yields.iter()) {
                for &node in &nodes[j.start..j.end] {
                    gpu[node.index()] += j.gpu_need * y;
                }
            }
            for (j, y) in jobs.iter().zip(yields.iter_mut()) {
                if j.gpu_need <= 0.0 {
                    continue;
                }
                let mut factor = 1.0f64;
                for &node in &nodes[j.start..j.end] {
                    let load = gpu[node.index()];
                    if load > 1.0 {
                        factor = factor.min(load.recip());
                    }
                }
                *y *= factor;
            }
        }
        yields
    }

    /// Convenience: equal-share base followed by the improvement pass.
    pub fn greedy_yields(&mut self) -> &[f64] {
        self.optimized_yields(self.equal_share_yield())
    }

    /// `plan` plus one run per job of the set, in insertion order, at
    /// the [`greedy_yields`](Self::greedy_yields).
    pub fn run_all(&mut self, mut plan: Plan) -> Plan {
        self.greedy_yields();
        for (i, &yld) in self.pass.yields.iter().enumerate() {
            plan.push_run(self.jobs[i].id, yld, self.placement(i).iter().copied());
        }
        plan
    }
}

/// The GPU feasibility clamp of [`AllocSet::optimized_yields`] for the
/// run entries of a plan, the shape the stretch scheduler settles its
/// yields in: scale each GPU consumer's yield down by the worst
/// oversubscription among its hosting nodes. A guarded no-op on
/// GPU-free workloads (bit-identical runs).
pub fn gpu_clamp_assignments(n_nodes: usize, gpu_of: impl Fn(JobId) -> f64, plan: &mut Plan) {
    if !plan.runs_mut().any(|(id, _, _)| gpu_of(id) > 0.0) {
        return;
    }
    let mut gpu = vec![0.0; n_nodes];
    for (id, placement, yld) in plan.runs_mut() {
        for &node in placement {
            gpu[node.index()] += gpu_of(id) * *yld;
        }
    }
    for (id, placement, yld) in plan.runs_mut() {
        if gpu_of(id) <= 0.0 {
            continue;
        }
        let mut factor = 1.0f64;
        for &node in placement {
            let load = gpu[node.index()];
            if load > 1.0 {
                factor = factor.min(load.recip());
            }
        }
        *yld *= factor;
    }
}

/// Jobs in the system ordered by **increasing** priority (pause
/// candidates first), with virtual-time exponent `exponent` in the
/// priority function (paper: 2). Reverse for resume order. Only jobs
/// currently in the system are considered (every caller filters on a
/// status subset of pending/running/paused anyway).
pub fn by_increasing_priority<'a>(
    state: &'a SimState,
    filter: impl Fn(&dfrs_sim::JobState) -> bool + 'a,
    exponent: f64,
) -> Vec<JobId> {
    let mut jobs: Vec<_> = state
        .jobs_in_system()
        .filter(|j| filter(j))
        .map(|j| {
            (
                dfrs_core::priority::PriorityKey::with_exponent(
                    state.now,
                    j.spec.submit_time,
                    j.virtual_time,
                    j.spec.id,
                    exponent,
                ),
                j.spec.id,
            )
        })
        .collect();
    jobs.sort_by_key(|&(key, _)| key);
    jobs.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    impl NodeScratch {
        /// An empty cluster of `n` nodes.
        fn empty(n: usize) -> Self {
            NodeScratch {
                mem_free: vec![1.0; n],
                cpu_load: vec![0.0; n],
            }
        }
    }

    impl AllocSet {
        /// True when no jobs were added.
        fn is_empty(&self) -> bool {
            self.jobs.is_empty()
        }
    }

    fn scratch3() -> NodeScratch {
        NodeScratch::empty(3)
    }

    #[test]
    fn greedy_place_prefers_least_loaded_node() {
        let mut s = scratch3();
        s.cpu_load = vec![0.5, 0.1, 0.9];
        let p = s.greedy_place(1, 1.0, 0.2).unwrap();
        assert_eq!(p, vec![NodeId(1)]);
        assert!((s.cpu_load[1] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn greedy_place_respects_memory() {
        let mut s = scratch3();
        s.mem_free = vec![0.1, 0.5, 0.1];
        let p = s.greedy_place(1, 1.0, 0.3).unwrap();
        assert_eq!(p, vec![NodeId(1)]);
    }

    #[test]
    fn greedy_place_spreads_tasks_by_load() {
        let mut s = scratch3();
        let p = s.greedy_place(3, 1.0, 0.2).unwrap();
        // Each placement raises the load, so tasks round-robin.
        let mut nodes: Vec<u32> = p.iter().map(|n| n.0).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn greedy_place_rolls_back_on_failure() {
        let mut s = scratch3();
        s.mem_free = vec![0.3, 0.3, 0.3];
        let before = s.clone();
        // 4 tasks of 0.3 memory: only 3 fit (one per node).
        assert!(s.greedy_place(4, 0.5, 0.3).is_none());
        assert_eq!(s.mem_free, before.mem_free);
        assert_eq!(s.cpu_load, before.cpu_load);
    }

    #[test]
    fn greedy_place_stacks_tasks_when_memory_allows() {
        let mut s = NodeScratch::empty(1);
        let p = s.greedy_place(3, 1.0, 0.25).unwrap();
        assert_eq!(p, vec![NodeId(0); 3]);
        assert!((s.cpu_load[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn equal_share_yield_of_allocation() {
        let mut set = AllocSet::new();
        set.push(JobId(0), 1.0, 0.0, &[NodeId(0)]);
        set.push(JobId(1), 1.0, 0.0, &[NodeId(0)]);
        set.push(JobId(2), 0.5, 0.0, &[NodeId(1)]);
        assert!((set.equal_share_yield() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_raises_unconstrained_jobs_to_full_yield() {
        // Node 0 overloaded (2 × need 1.0), node 1 has one small job: the
        // small job must end at yield 1.0, the others stay at 0.5.
        let mut set = AllocSet::new();
        set.push(JobId(0), 1.0, 0.0, &[NodeId(0)]);
        set.push(JobId(1), 1.0, 0.0, &[NodeId(0)]);
        set.push(JobId(2), 0.5, 0.0, &[NodeId(1)]);
        let yields = set.greedy_yields();
        assert!((yields[0] - 0.5).abs() < 1e-9);
        assert!((yields[1] - 0.5).abs() < 1e-9);
        assert!((yields[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn improvement_picks_lowest_total_need_first() {
        // One node, two jobs (needs 0.6 and 0.3) at base yield 1/0.9=...
        // loads: 0.9 → base yield 1.0 (under-loaded). Nothing to improve.
        // Make it overloaded: needs 1.0 and 0.5 → base 1/1.5. Slack after
        // base: 0. No improvement possible.
        // Use two nodes: job A (need 1.0) on node 0; jobs B,C (need 0.4,
        // 0.2) on node 1. Base = 1/1.0 = 1.0... loads: n0=1.0, n1=0.6 →
        // base 1.0, everyone full. Overload n0: A,D both need 1.0.
        let mut set = AllocSet::new();
        set.push(JobId(0), 1.0, 0.0, &[NodeId(0)]); // A
        set.push(JobId(1), 1.0, 0.0, &[NodeId(0)]); // D
        set.push(JobId(2), 0.4, 0.0, &[NodeId(1)]); // B
        set.push(JobId(3), 0.2, 0.0, &[NodeId(1)]); // C
        let yields = set.greedy_yields();
        // Base = 0.5. Node 1 slack = 1 − 0.3 = 0.7. C (total need 0.2)
        // picked first → raised to 1.0 (consumes 0.1); B raised with
        // remaining slack 0.6 → Δ = 0.6/0.4 = 1.5 → capped at 1.0.
        assert!((yields[2] - 1.0).abs() < 1e-9, "B {}", yields[2]);
        assert!((yields[3] - 1.0).abs() < 1e-9, "C {}", yields[3]);
        assert!((yields[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn improvement_handles_partial_slack() {
        // One node: jobs with needs 1.0 + 0.5 → base yield 1/1.5 = 2/3.
        // alloc = 1.0 exactly; no slack; yields stay at base.
        let mut set = AllocSet::new();
        set.push(JobId(0), 1.0, 0.0, &[NodeId(0)]);
        set.push(JobId(1), 0.5, 0.0, &[NodeId(0)]);
        let yields = set.greedy_yields();
        assert!((yields[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((yields[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn multi_task_job_bounded_by_tightest_node() {
        // Job 0 has tasks on both nodes; node 1 is crowded by job 1.
        // Base = 1/1.5. Job 0 (total need 1.0 over 2 tasks of 0.5)...
        // loads: n0 = 0.5, n1 = 0.5 + 1.0 = 1.5 → base = 2/3.
        // Slack n0 = 1 − 1/3 = 2/3; slack n1 = 0. Nothing improvable on
        // n1 → job 0 frozen by n1, job 1 frozen by n1.
        let mut set = AllocSet::new();
        set.push(JobId(0), 0.5, 0.0, &[NodeId(0), NodeId(1)]);
        set.push(JobId(1), 1.0, 0.0, &[NodeId(1)]);
        let yields = set.greedy_yields();
        assert!((yields[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((yields[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_tasks_same_node_count_double() {
        // Job 0 has both tasks on node 0 (need 0.4 each), job 1 need 1.0
        // also on node 0: load = 1.8, base = 1/1.8. Slack = 0. Frozen.
        let mut set = AllocSet::new();
        set.push(JobId(0), 0.4, 0.0, &[NodeId(0), NodeId(0)]);
        set.push(JobId(1), 1.0, 0.0, &[NodeId(0)]);
        let yields = set.greedy_yields();
        for &y in yields {
            assert!((y - 1.0 / 1.8).abs() < 1e-9);
        }
    }

    #[test]
    fn gpu_clamp_scales_consumers_to_capacity() {
        // Two GPU-1.0 jobs on one node would allocate 2.0 GPUs at
        // yield 1.0 → each ends at 0.5; the GPU-free job is untouched.
        let mut set = AllocSet::new();
        set.push(JobId(0), 0.2, 1.0, &[NodeId(0)]);
        set.push(JobId(1), 0.2, 1.0, &[NodeId(0)]);
        set.push(JobId(2), 0.2, 0.0, &[NodeId(0)]);
        let yields = set.greedy_yields();
        assert!((yields[0] - 0.5).abs() < 1e-9, "{}", yields[0]);
        assert!((yields[1] - 0.5).abs() < 1e-9, "{}", yields[1]);
        assert!((yields[2] - 1.0).abs() < 1e-9, "{}", yields[2]);
    }

    #[test]
    fn gpu_clamp_assignments_uses_worst_hosting_node() {
        let gpu = |id: JobId| if id.0 == 2 { 0.0 } else { 0.8 };
        let mut plan = Plan::noop()
            .run(JobId(0), vec![NodeId(0), NodeId(1)], 1.0)
            .run(JobId(1), vec![NodeId(1)], 1.0)
            .run(JobId(2), vec![NodeId(0)], 1.0);
        gpu_clamp_assignments(2, gpu, &mut plan);
        let a: Vec<f64> = plan.runs_mut().map(|(_, _, yld)| *yld).collect();
        // Node 1's load is 1.6 → jobs 0 and 1 scale by 1/1.6; node 0
        // (0.8) is fine and the GPU-free job keeps its full yield.
        assert!((a[0] - 1.0 / 1.6).abs() < 1e-9, "{}", a[0]);
        assert!((a[1] - 1.0 / 1.6).abs() < 1e-9, "{}", a[1]);
        assert_eq!(a[2], 1.0);
    }

    #[test]
    fn empty_alloc_set_is_trivial() {
        let mut set = AllocSet::new();
        assert!(set.is_empty());
        assert_eq!(set.equal_share_yield(), 1.0);
        assert!(set.greedy_yields().is_empty());
    }
}
