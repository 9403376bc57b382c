//! Sharded scheduling: partition the cluster, run one independent
//! inner scheduler per shard, coordinate through a thin deterministic
//! layer (its cost is the ROADMAP item "Sharding: price its quality,
//! then cut the coordinator").
//!
//! ## Model
//!
//! The coordinator splits the `M` nodes into `N` contiguous shards
//! ([`dfrs_sim::partition`]) and owns one inner [`Scheduler`] instance
//! plus one [`ShardView`] per shard. Inners never see the global
//! [`SimState`]; each sees its view — an ordinary shard-sized state —
//! so every registered algorithm works unmodified. Jobs are routed to
//! one shard at a time (least normalized load, ties to the lowest
//! shard index) and rebalanced between shards when the queues skew;
//! a rebalanced job leaves its old shard via [`SchedEvent::Withdraw`]
//! and arrives at the new one as a fresh local submission carrying its
//! accrued virtual time, so a paused migrant resumes through the
//! engine's ordinary pause/resume machinery (penalty included).
//!
//! ## Determinism
//!
//! Everything is deterministic by construction, mirroring the
//! `Campaign` parallel==serial discipline:
//!
//! * shard boundaries depend only on `(M, N)`;
//! * routing and rebalancing read only view load counts, with
//!   lowest-index tie-breaks;
//! * the periodic tick fans out to the inners on the persistent worker
//!   pool (when it has at least two workers), but each inner's plan
//!   depends only on its own view, and plans are merged in shard index
//!   order — thread interleaving cannot reach any output;
//! * the merged plan is emitted per job in ascending global id.
//!
//! ## Plan merging
//!
//! Within one event the coordinator may deliver several inner events
//! (a completion plus a rebalancing round, say) whose plans can touch
//! the same job more than once. Raw concatenation would trip the
//! engine's one-mention-per-job discipline, so the coordinator instead
//! applies every inner plan to its view immediately and then emits
//! one **net** entry per touched job: the difference between the job's
//! final view state and its pre-plan global state. A view applies
//! plans, completions and node failures through the engine's own
//! [`SimState`] transitions, so the engine classifies the net entry —
//! start, resume, migration or yield adjustment — exactly as the view
//! did, and afterwards every job a view runs runs globally at the same
//! yield on the same nodes in the same order (the lockstep witness in
//! this module's tests checks it at every delivery).
//! Inner plans are read in place (the touched jobs go into one list,
//! sorted and deduplicated once at emission) and a changed job's
//! placement is translated from its view straight into the outgoing
//! plan's node arena.
//!
//! ## Wide jobs
//!
//! A job with more tasks than any single shard has in-service nodes
//! cannot be routed — shards do not overlap, and one-task-per-node is
//! the only capacity promise that holds for **every** registered
//! inner (batch algorithms never co-locate tasks). Such jobs wait at
//! the coordinator itself and are placed directly across shard
//! boundaries on **borrowed** nodes: nodes that are in service and
//! idle in their owning view. A borrowed node is marked down in its
//! view (the inner sees an ordinary capacity loss, exactly like a
//! failure, and cannot double-book it) and returns with a `NodeUp`
//! when the wide job completes. Wide placement is one task per node
//! at full yield; only a job wider than the whole in-service cluster
//! falls back to stacking tasks per node up to the memory capacity
//! with the yield scaled so CPU/GPU allocations fit. Routing and
//! rebalancing are feasibility-aware: a job is only ever admitted to
//! a shard that could host it when empty, so no shard can wedge on a
//! job it can never place. Wide placement is strict FIFO by global id
//! — a later, narrower wide job never overtakes an earlier one.
//!
//! ## Limitations
//!
//! Inner-visible virtual times and penalty windows are refreshed from
//! the global state before every delivery, so within a single
//! multi-delivery event they can lag the plan being assembled — a
//! deterministic, one-event-bounded staleness. A wide job waits until
//! enough simultaneously idle nodes exist; under sustained load the
//! inners keep their shards busy, so it may start much later than it
//! would on the unsharded cluster.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dfrs_core::ids::{JobId, NodeId};
use dfrs_core::pool::WorkerPool;
use dfrs_core::JobSpec;

use dfrs_sim::shard::{partition, ShardView};
use dfrs_sim::{JobStatus, Plan, PlanEntry, RepackStats, SchedEvent, Scheduler, SimState};

/// The sharded coordinator. Built via the registry's
/// `sharded:<inner>:shards=N` spec family (see [`crate::spec`]); the
/// `shards=1` case never constructs this type — the registry returns
/// the bare inner scheduler, making single-shard operation byte-
/// identical to the unsharded scheduler by construction.
///
/// The views are built at the first event, which must find no job in
/// the system but the one a `Submit` announces: the engine admits one
/// job per `Submit` round, and a session snapshots (so restores) only
/// at quiescence. So the coordinator never adopts jobs it did not
/// route itself.
pub struct Sharded {
    inners: Vec<Box<dyn Scheduler>>,
    views: Vec<ShardView>,
    /// Global job id → (shard index, shard-local id).
    assign: BTreeMap<JobId, (usize, JobId)>,
    period: Option<f64>,
    /// Jobs no single shard can host, waiting at the coordinator for a
    /// cross-shard placement; ascending global id = submission FIFO.
    wide_waiting: BTreeSet<JobId>,
    /// Wide jobs currently running → the nodes borrowed for them
    /// (global ids, ascending, deduplicated).
    wide_running: BTreeMap<JobId, Vec<NodeId>>,
    /// Borrowed global node → the wide job holding it.
    borrowed_by: BTreeMap<NodeId, JobId>,
    /// Worker pool override for the tick fan-out; `None` means the
    /// machine-sized [`dfrs_core::pool::global`] pool. Tests inject a
    /// pool here to pin parallel == serial byte-identity regardless of
    /// how many cores the test host happens to have.
    pool: Option<Arc<WorkerPool>>,
}

impl Sharded {
    /// Coordinator over `inners.len()` shards (one pre-built inner
    /// instance per shard; at least 2 — use the bare inner for 1).
    pub fn new(inners: Vec<Box<dyn Scheduler>>) -> Self {
        assert!(inners.len() >= 2, "Sharded needs at least 2 inners");
        let period = inners[0].period();
        Sharded {
            inners,
            views: Vec::new(),
            assign: BTreeMap::new(),
            period,
            wide_waiting: BTreeSet::new(),
            wide_running: BTreeMap::new(),
            borrowed_by: BTreeMap::new(),
            pool: None,
        }
    }

    /// Fan the periodic tick out on `pool` instead of the global
    /// machine-sized pool. The plan merge reads results in shard index
    /// order, so any pool (including a zero-worker serial one) must
    /// produce byte-identical schedules — the property the fan-out
    /// proptests pin by injecting pools of different widths here.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Build the views at the first event (the cluster size is only
    /// known from the state), clamping the shard count to the node
    /// count. See the type docs for why no job needs adopting.
    fn init(&mut self, ev: SchedEvent, state: &SimState) {
        if !self.views.is_empty() {
            return;
        }
        debug_assert!(
            state
                .jobs_in_system()
                .all(|j| ev == SchedEvent::Submit(j.spec.id)),
            "the coordinator's first event ({ev:?}) found jobs it did not route"
        );
        let nodes = state.cluster.spec.nodes;
        if (self.inners.len() as u32) > nodes {
            self.inners.truncate(nodes as usize);
        }
        self.views = partition(nodes, self.inners.len() as u32)
            .into_iter()
            .map(|(lo, count)| ShardView::new(&state.cluster.spec, lo, count))
            .collect();
    }

    /// Tasks of `spec` that fit one empty node by memory (the only
    /// rigid resource — CPU and GPU scale with the yield), accumulated
    /// with a strict `<= 1.0` so this never claims feasible what a
    /// packer's `<= 1 + EPS` bin check would reject. At least 1
    /// (`mem_req` is in `(0, 1]`). Used only by the wide-placement
    /// stacking fallback for jobs wider than the in-service cluster.
    fn tasks_per_node(spec: &JobSpec) -> u32 {
        let mut used = 0.0;
        let mut k = 0;
        while k < spec.tasks && used + spec.mem_req <= 1.0 {
            used += spec.mem_req;
            k += 1;
        }
        k.max(1)
    }

    /// Whether `spec` could be hosted by this shard at all, were the
    /// shard otherwise empty. One task per in-service node is the only
    /// promise every inner honors (batch algorithms never co-locate
    /// tasks), so that is the bar — fluid inners remain free to pack
    /// tighter than this *inside* a shard.
    fn fits_shard(view: &ShardView, spec: &JobSpec) -> bool {
        spec.tasks <= view.state().cluster.up_nodes()
    }

    /// Shard `i`'s load: jobs in system over nodes, as an exact
    /// fraction `(jobs, nodes)`.
    fn load(&self, i: usize) -> (u64, u64) {
        let v = &self.views[i];
        (v.in_system() as u64, u64::from(v.node_count()))
    }

    /// Compares two loads exactly, as cross-multiplied integers.
    fn cmp_load((ca, na): (u64, u64), (cb, nb): (u64, u64)) -> std::cmp::Ordering {
        (ca * nb).cmp(&(cb * na))
    }

    /// Least-loaded shard (ties to the lowest index) among those that
    /// can host `spec` at all; `None` when no single shard can — the
    /// job then waits at the coordinator for a cross-shard wide
    /// placement.
    fn route(&self, spec: &JobSpec) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in 0..self.views.len() {
            if !Self::fits_shard(&self.views[i], spec) {
                continue;
            }
            if best.is_none_or(|b| Self::cmp_load(self.load(i), self.load(b)).is_lt()) {
                best = Some(i);
            }
        }
        best
    }

    /// Index of the shard owning global node `n`.
    fn owner_of(&self, n: NodeId) -> usize {
        self.views
            .iter()
            .position(|v| v.owns_node(n))
            .expect("node outside every shard")
    }

    /// Deliver `ev` to shard `s`'s inner against its freshly refreshed
    /// view, mirror the plan into the view, and record every job the
    /// plan touched plus its timers.
    fn deliver(&mut self, s: usize, ev: SchedEvent, state: &SimState, out: &mut MergeState) {
        self.views[s].refresh(state.now, state);
        let plan = self.inners[s].on_event(ev, self.views[s].state());
        self.absorb(s, plan, out);
    }

    /// Mirror an already-obtained plan for shard `s` (tick fan-out path).
    fn absorb(&mut self, s: usize, plan: Plan, out: &mut MergeState) {
        let view = &mut self.views[s];
        out.touched.extend(plan.entries.iter().map(|e| {
            let (PlanEntry::Run { job, .. } | PlanEntry::Pause { job }) = e;
            view.global_job(*job)
        }));
        for &(local, at) in &plan.timers {
            out.timers.push((view.global_job(local), at));
        }
        view.mirror_plan(&plan);
    }

    /// Admit global job `g` to shard `s` as a fresh local job and
    /// deliver its `Submit` there.
    fn admit_to(&mut self, s: usize, g: JobId, state: &SimState, out: &mut MergeState) {
        let local = self.views[s].admit(state.job(g));
        self.assign.insert(g, (s, local));
        self.deliver(s, SchedEvent::Submit(local), state, out);
    }

    /// Admit `g` to the shard [`Self::route`] picks, or queue it for a
    /// wide placement when no single shard can host it.
    fn admit(&mut self, g: JobId, state: &SimState, out: &mut MergeState) {
        match self.route(&state.job(g).spec) {
            Some(s) => self.admit_to(s, g, state, out),
            None => {
                self.wide_waiting.insert(g);
            }
        }
    }

    /// Take the waiting job `g` out of its shard and deliver the
    /// `Withdraw` there; `false` when no shard holds it.
    fn withdraw(&mut self, g: JobId, state: &SimState, out: &mut MergeState) -> bool {
        let Some((s, local)) = self.assign.remove(&g) else {
            return false;
        };
        self.views[s].withdraw(local);
        self.deliver(s, SchedEvent::Withdraw(local), state, out);
        true
    }

    /// Move waiting jobs from overloaded to underloaded shards until no
    /// single move strictly improves the normalized-load imbalance.
    /// Jobs already touched by this event's plans are pinned (moving
    /// them would contradict the net entries about to be emitted).
    fn rebalance(&mut self, state: &SimState, out: &mut MergeState) {
        loop {
            // Most and least loaded shard.
            let (mut hi, mut lo) = (0usize, 0usize);
            for i in 1..self.views.len() {
                if Self::cmp_load(self.load(i), self.load(hi)).is_gt() {
                    hi = i;
                }
                if Self::cmp_load(self.load(i), self.load(lo)).is_lt() {
                    lo = i;
                }
            }
            if hi == lo {
                return;
            }
            // Moving one job helps only if the source stays at least as
            // loaded as the destination becomes.
            let (cl, nl) = self.load(lo);
            if Self::cmp_load(self.load(hi), (cl + 1, nl)).is_le() {
                return;
            }
            // Oldest movable (waiting, untouched) job on the hot shard
            // that the destination could actually host.
            let candidate = self.views[hi]
                .waiting_locals()
                .into_iter()
                .map(|l| self.views[hi].global_job(l))
                .filter(|g| !out.touched.contains(g))
                .filter(|&g| Self::fits_shard(&self.views[lo], &state.job(g).spec))
                .min();
            let Some(g) = candidate else {
                return;
            };
            self.withdraw(g, state, out);
            self.admit_to(lo, g, state, out);
        }
    }

    /// After shard `s` lost capacity, re-route any of its waiting jobs
    /// it can no longer host at all (they would wedge there forever).
    fn reroute_infeasible(&mut self, s: usize, state: &SimState, out: &mut MergeState) {
        let stuck: Vec<JobId> = self.views[s]
            .waiting_locals()
            .into_iter()
            .map(|l| self.views[s].global_job(l))
            .filter(|g| !out.touched.contains(g))
            .filter(|&g| !Self::fits_shard(&self.views[s], &state.job(g).spec))
            .collect();
        for g in stuck {
            self.withdraw(g, state, out);
            self.admit(g, state, out);
        }
    }

    /// Place waiting wide jobs (strict FIFO by global id) on idle nodes
    /// borrowed across shard boundaries; stops at the first job that
    /// cannot be placed right now. Each borrowed node is marked down in
    /// its owning view and announced to the inner as a `NodeDown`.
    fn place_wide(&mut self, state: &SimState, out: &mut MergeState) {
        while let Some(&g) = self.wide_waiting.iter().next() {
            let spec = state.job(g).spec;
            let Some((placement, nodes, yld)) = self.wide_placement(state, &spec) else {
                return;
            };
            self.wide_waiting.remove(&g);
            for &n in &nodes {
                let (s, ln) = self.lend(n, Some(g), state);
                self.deliver(s, SchedEvent::NodeDown(ln), state, out);
            }
            self.wide_running.insert(g, nodes);
            out.wide.push((g, placement, yld));
        }
    }

    /// A concrete cross-shard placement for `spec` on borrowable nodes
    /// — in service, not already borrowed, and idle in their owning
    /// view (the view, not the global state, already reflects this
    /// event's plans) — or `None` when there is not enough idle
    /// capacity right now. One task per node at full yield; a job
    /// wider than the whole in-service cluster instead splits its
    /// tasks near-evenly over the fewest nodes that hold them by
    /// memory, with the yield scaled so CPU/GPU allocations fit.
    /// Returns `(placement, distinct nodes, yield)`.
    fn wide_placement(
        &self,
        state: &SimState,
        spec: &JobSpec,
    ) -> Option<(Vec<NodeId>, Vec<NodeId>, f64)> {
        let per = if spec.tasks <= state.cluster.up_nodes() {
            1
        } else {
            u64::from(Self::tasks_per_node(spec))
        };
        let needed = u64::from(spec.tasks).div_ceil(per) as usize;
        let mut nodes = Vec::with_capacity(needed);
        for (i, ns) in state.cluster.nodes().iter().enumerate() {
            let n = NodeId(i as u32);
            if !state.cluster.is_up(n) || ns.task_count != 0 || self.borrowed_by.contains_key(&n) {
                continue;
            }
            let view = &self.views[self.owner_of(n)];
            let ln = view.local_node(n);
            if view.state().cluster.nodes()[ln.index()].task_count != 0
                || !view.state().cluster.is_up(ln)
            {
                continue;
            }
            nodes.push(n);
            if nodes.len() == needed {
                break;
            }
        }
        if nodes.len() < needed {
            return None;
        }
        let base = spec.tasks as usize / needed;
        let rem = spec.tasks as usize % needed;
        let mut placement = Vec::with_capacity(spec.tasks as usize);
        let mut max_k = 0usize;
        for (i, &n) in nodes.iter().enumerate() {
            let k = base + usize::from(i < rem);
            max_k = max_k.max(k);
            placement.extend(std::iter::repeat_n(n, k));
        }
        let mut yld = (1.0 / (max_k as f64 * spec.cpu_need)).min(1.0);
        if spec.gpu_need > 0.0 {
            yld = yld.min(1.0 / (max_k as f64 * spec.gpu_need));
        }
        Some((placement, nodes, yld))
    }

    /// Lend global node `n` to the wide job `to` (marked down in its
    /// owning view) or, with `None`, give it back (marked up again).
    /// Returns the owning shard and the node's local id there.
    fn lend(&mut self, n: NodeId, to: Option<JobId>, state: &SimState) -> (usize, NodeId) {
        match to {
            Some(g) => self.borrowed_by.insert(n, g),
            None => self.borrowed_by.remove(&n),
        };
        let s = self.owner_of(n);
        let ln = self.views[s].local_node(n);
        self.views[s].mirror_node_event(ln, to.is_none(), state);
        (s, ln)
    }

    /// Return borrowed nodes to their shards: marked back up in the
    /// owning views, announced to the inners as `NodeUp` (exactly as a
    /// repair would arrive).
    fn release_nodes(&mut self, nodes: &[NodeId], state: &SimState, out: &mut MergeState) {
        for &n in nodes {
            let (s, ln) = self.lend(n, None, state);
            self.deliver(s, SchedEvent::NodeUp(ln), state, out);
        }
    }

    /// Emit the net plan: one entry per touched job, ascending global
    /// id, diffing the job's final view state against its pre-plan
    /// global state (see module docs), plus the coordinator's own wide
    /// placements.
    fn emit(&self, state: &SimState, mut out: MergeState) -> Plan {
        out.touched.sort_unstable();
        out.touched.dedup();
        let mut plan = Plan::noop();
        // Most touched jobs turn out unchanged (an inner's full repack
        // re-runs every job it knows): compare the view's placement,
        // translated node by node, with the global one, and write only
        // the changed ones into the plan.
        for g in out.touched {
            let Some(&(s, local)) = self.assign.get(&g) else {
                continue;
            };
            let view = &self.views[s];
            let vj = view.state().job(local);
            let gj = state.job(g);
            match vj.status {
                JobStatus::Running => {
                    let placement = view.state().placement(local).iter();
                    let placement = placement.map(|&n| view.global_node(n));
                    let unchanged = gj.status == JobStatus::Running
                        && gj.yld == vj.yld
                        && placement.clone().eq(state.placement(g).iter().copied());
                    if !unchanged {
                        plan.push_run(g, vj.yld, placement);
                    }
                }
                JobStatus::Paused if gj.status == JobStatus::Running => {
                    plan = plan.pause(g);
                }
                _ => {}
            }
        }
        for (g, placement, yld) in out.wide {
            plan = plan.run(g, placement, yld);
        }
        plan.timers = out.timers;
        plan
    }
}

/// Accumulator for one event's deliveries: which global jobs any inner
/// plan mentioned, the translated timers, and the coordinator's own
/// wide placements (jobs no inner knows about).
#[derive(Default)]
struct MergeState {
    /// In delivery order, with repeats, until `emit` sorts it.
    touched: Vec<JobId>,
    timers: Vec<(JobId, f64)>,
    wide: Vec<(JobId, Vec<NodeId>, f64)>,
}

impl Scheduler for Sharded {
    fn name(&self) -> String {
        format!("Sharded[{}] {}", self.inners.len(), self.inners[0].name())
    }

    fn period(&self) -> Option<f64> {
        self.period
    }

    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        self.init(ev, state);
        let mut out = MergeState::default();
        match ev {
            SchedEvent::Submit(g) => self.admit(g, state, &mut out),
            SchedEvent::Complete(g) => {
                if let Some(nodes) = self.wide_running.remove(&g) {
                    // A wide job finished: its borrowed nodes go home.
                    self.release_nodes(&nodes, state, &mut out);
                    self.rebalance(state, &mut out);
                } else if let Some((s, local)) = self.assign.remove(&g) {
                    self.views[s].mirror_complete(local);
                    self.deliver(s, SchedEvent::Complete(local), state, &mut out);
                    self.rebalance(state, &mut out);
                }
            }
            SchedEvent::Timer(g) => {
                // Routed to the *current* owner — the job may have been
                // rebalanced (or finished) since the timer was armed.
                if let Some(&(s, local)) = self.assign.get(&g) {
                    self.deliver(s, SchedEvent::Timer(local), state, &mut out);
                }
            }
            SchedEvent::NodeDown(n) if self.borrowed_by.contains_key(&n) => {
                // A borrowed node failed. The engine has already struck
                // the wide job (it is waiting again globally); return
                // the surviving borrowed nodes and requeue the job. The
                // failed node itself stays down in its view — it has
                // been since the borrow — until the repair arrives.
                let w = self.borrowed_by[&n];
                let nodes = self
                    .wide_running
                    .remove(&w)
                    .expect("borrow map out of sync");
                self.borrowed_by.remove(&n);
                let survivors: Vec<NodeId> = nodes.into_iter().filter(|&m| m != n).collect();
                self.release_nodes(&survivors, state, &mut out);
                self.wide_waiting.insert(w);
                self.rebalance(state, &mut out);
            }
            SchedEvent::NodeDown(n) | SchedEvent::NodeUp(n) => {
                let up = matches!(ev, SchedEvent::NodeUp(_));
                let s = self.owner_of(n);
                let ln = self.views[s].local_node(n);
                self.views[s].mirror_node_event(ln, up, state);
                let local_ev = if up {
                    SchedEvent::NodeUp(ln)
                } else {
                    SchedEvent::NodeDown(ln)
                };
                self.deliver(s, local_ev, state, &mut out);
                if !up {
                    // Waiting jobs the shrunken shard can no longer
                    // host at all would wedge there; move them out.
                    self.reroute_infeasible(s, state, &mut out);
                }
                self.rebalance(state, &mut out);
            }
            SchedEvent::Tick => {
                self.rebalance(state, &mut out);
                for v in &mut self.views {
                    v.refresh(state.now, state);
                }
                let plans = self.fan_out_tick();
                for (s, plan) in plans.into_iter().enumerate() {
                    self.absorb(s, plan, &mut out);
                }
            }
            SchedEvent::Withdraw(g) => {
                // The session canceled a pending/paused job: drop every
                // trace of it. (A running cancel frees resources and
                // arrives as `Complete` instead; a wide job holding
                // borrowed nodes is running by definition, so only the
                // waiting set needs checking here.)
                if !self.wide_waiting.remove(&g) && self.withdraw(g, state, &mut out) {
                    self.rebalance(state, &mut out);
                }
            }
        }
        self.place_wide(state, &mut out);
        self.emit(state, out)
    }

    fn repack_stats(&self) -> Option<RepackStats> {
        let mut sum = RepackStats::default();
        let mut any = false;
        for inner in &self.inners {
            if let Some(s) = inner.repack_stats() {
                any = true;
                sum.searches += s.searches;
                sum.search_hits += s.search_hits;
                sum.packs += s.packs;
                sum.packs_saved += s.packs_saved;
            }
        }
        any.then_some(sum)
    }
}

impl Sharded {
    /// Run every inner's tick against its view, in parallel on the
    /// persistent worker pool when the host has workers to spare (each
    /// plan depends only on its own view, so the serial fallback is
    /// result-identical — the `Campaign` discipline). Long-lived pool
    /// workers replace the per-tick `thread::scope` spawns: at huge
    /// scale that amortizes millions of thread creations into channel
    /// sends. Plans are read back in shard index order, so the worker
    /// schedule is invisible to the merge.
    fn fan_out_tick(&mut self) -> Vec<Plan> {
        let pool: &WorkerPool = match &self.pool {
            Some(p) => p,
            None => dfrs_core::pool::global(),
        };
        let parallel = self.inners.len() > 1 && pool.workers() >= 2;
        if !parallel {
            return self
                .inners
                .iter_mut()
                .zip(&self.views)
                .map(|(inner, view)| inner.on_event(SchedEvent::Tick, view.state()))
                .collect();
        }
        let mut plans: Vec<Option<Plan>> = Vec::new();
        plans.resize_with(self.inners.len(), || None);
        pool.scope(|scope| {
            for ((inner, view), slot) in self
                .inners
                .iter_mut()
                .zip(&self.views)
                .zip(plans.iter_mut())
            {
                scope.execute(move || {
                    *slot = Some(inner.on_event(SchedEvent::Tick, view.state()));
                });
            }
        });
        // Unwrap audit: no `expect` on the merge path. A panicking
        // tick task re-raises out of `scope` (and the serve stack's
        // quarantine guard catches it); the only other way a slot can
        // be empty is a task that never ran, and for that shard the
        // inner never saw the tick — so delivering it serially here IS
        // the deterministic serial path, not a guess.
        plans
            .into_iter()
            .enumerate()
            .map(|(s, plan)| match plan {
                Some(p) => p,
                None => self.inners[s].on_event(SchedEvent::Tick, self.views[s].state()),
            })
            .collect()
    }
}

impl std::fmt::Debug for Sharded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.inners.len())
            .field("inner", &self.inners[0].name())
            .field("jobs", &self.assign.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchedulerRegistry;
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{simulate, FailurePolicy, NodeEvent, SimConfig};

    fn jobs(n: u32) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec::new(JobId(i), i as f64 * 10.0, 2, 0.5, 0.2, 400.0).unwrap())
            .collect()
    }

    #[test]
    fn sharded_runs_all_jobs_to_completion() {
        let cluster = ClusterSpec::new(8, 4, 8.0).unwrap();
        let reg = SchedulerRegistry::builtin();
        let mut sched = reg.build_str("sharded:dynmcb8-per:t=600:shards=2").unwrap();
        let out = simulate(cluster, &jobs(12), sched.as_mut(), &SimConfig::default());
        assert_eq!(out.records.len(), 12);
        assert!(out.records.iter().all(|r| r.completion.is_finite()));
    }

    #[test]
    fn sharded_name_reports_shards_and_inner() {
        let reg = SchedulerRegistry::builtin();
        let sched = reg.build_str("sharded:greedy:shards=3").unwrap();
        assert_eq!(sched.name(), "Sharded[3] Greedy");
    }

    #[test]
    fn shards_clamped_to_node_count() {
        // 2 nodes, 4 shards requested: must still run correctly.
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let reg = SchedulerRegistry::builtin();
        let mut sched = reg.build_str("sharded:greedy:shards=4").unwrap();
        let out = simulate(cluster, &jobs(4), sched.as_mut(), &SimConfig::default());
        assert_eq!(out.records.len(), 4);
    }

    #[test]
    fn wide_job_runs_across_one_node_shards() {
        // 4 shards of 1 node each; a 4-task memory hog (0.85/node) can
        // never fit inside any shard — the coordinator must place it
        // across shard boundaries once the cluster drains.
        let cluster = ClusterSpec::new(4, 4, 8.0).unwrap();
        let specs = vec![
            JobSpec::new(JobId(0), 0.0, 2, 0.5, 0.3, 400.0).unwrap(),
            JobSpec::new(JobId(1), 10.0, 1, 1.0, 0.2, 300.0).unwrap(),
            JobSpec::new(JobId(2), 20.0, 4, 0.25, 0.85, 500.0).unwrap(),
            JobSpec::new(JobId(3), 30.0, 1, 0.5, 0.1, 100.0).unwrap(),
        ];
        let reg = SchedulerRegistry::builtin();
        let mut sched = reg.build_str("sharded:dynmcb8:shards=4").unwrap();
        let out = simulate(cluster, &specs, sched.as_mut(), &SimConfig::default());
        assert_eq!(out.records.len(), 4);
        assert!(out.records.iter().all(|r| r.completion.is_finite()));
    }

    #[test]
    fn wide_job_stacks_tasks_and_scales_yield() {
        // 2 shards of 1 node. The 4-task job (mem 0.4 → 2 tasks/node,
        // cpu 1.0 → yield 1/2) runs alone from t=0 on borrowed nodes:
        // 2 nodes × 2 tasks at yield 0.5, so runtime 100 takes 200s.
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let specs = vec![JobSpec::new(JobId(0), 0.0, 4, 1.0, 0.4, 100.0).unwrap()];
        let reg = SchedulerRegistry::builtin();
        let mut sched = reg.build_str("sharded:dynmcb8:shards=2").unwrap();
        let out = simulate(cluster, &specs, sched.as_mut(), &SimConfig::default());
        assert_eq!(out.records.len(), 1);
        let r = &out.records[0];
        assert_eq!(r.first_start, Some(0.0));
        assert!(
            (r.completion - 200.0).abs() < 1e-6,
            "completion {}",
            r.completion
        );
    }

    #[test]
    fn wide_placement_is_fifo_and_releases_nodes() {
        // Two consecutive wide jobs: the second must wait for the
        // first's borrowed nodes to come home, then run to completion.
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let specs = vec![
            JobSpec::new(JobId(0), 0.0, 2, 0.5, 0.9, 100.0).unwrap(),
            JobSpec::new(JobId(1), 1.0, 2, 0.5, 0.9, 100.0).unwrap(),
        ];
        let reg = SchedulerRegistry::builtin();
        let mut sched = reg.build_str("sharded:greedy:shards=2").unwrap();
        let out = simulate(cluster, &specs, sched.as_mut(), &SimConfig::default());
        assert_eq!(out.records.len(), 2);
        let by_id = |i: u32| out.records.iter().find(|r| r.id == JobId(i)).unwrap();
        assert!((by_id(0).completion - 100.0).abs() < 1e-6);
        // Job 1 starts only when job 0's nodes are returned.
        assert!(by_id(1).first_start.unwrap() >= 100.0 - 1e-9);
        assert!(by_id(1).completion.is_finite());
    }

    /// Wraps the coordinator and checks, at the entry of every
    /// `Submit`, `Tick` and `Timer` delivery (where the global state is
    /// the previous plan applied, with no new bookkeeping on top), that
    /// every view agrees with the global state.
    struct Witness {
        sharded: Sharded,
        checks: usize,
    }

    impl Witness {
        /// Every view passes the invariant check; every job a view runs
        /// runs globally at the same yield bits on the same translated
        /// placement, in order; every node the view has in service
        /// hosts as many tasks as globally, at loads within `EPS`.
        fn check(&self, state: &SimState) -> Result<(), String> {
            for (s, view) in self.sharded.views.iter().enumerate() {
                let vs = view.state();
                dfrs_sim::check_invariants(vs).map_err(|e| format!("shard {s}: {e}"))?;
                for vj in vs.running_jobs() {
                    let (local, g) = (vj.spec.id, view.global_job(vj.spec.id));
                    let gj = state.job(g);
                    let translated: Vec<NodeId> = vs
                        .placement(local)
                        .iter()
                        .map(|&n| view.global_node(n))
                        .collect();
                    if gj.status != JobStatus::Running
                        || gj.yld.to_bits() != vj.yld.to_bits()
                        || translated != state.placement(g)
                    {
                        return Err(format!(
                            "shard {s}: {g} runs at {} on {translated:?} in its view, \
                             globally {:?} at {} on {:?}",
                            vj.yld,
                            gj.status,
                            gj.yld,
                            state.placement(g)
                        ));
                    }
                }
                for k in 0..view.node_count() {
                    let (ln, gn) = (NodeId(k), view.global_node(NodeId(k)));
                    if !vs.cluster.is_up(ln) && state.cluster.is_up(gn) {
                        continue; // borrowed by a wide job
                    }
                    let (v, g) = (
                        vs.cluster.nodes()[ln.index()],
                        state.cluster.nodes()[gn.index()],
                    );
                    let close = |a: f64, b: f64| (a - b).abs() <= dfrs_core::approx::EPS;
                    if v.task_count != g.task_count
                        || !close(v.cpu_load, g.cpu_load)
                        || !close(v.cpu_alloc, g.cpu_alloc)
                        || !close(v.mem_used, g.mem_used)
                        || !close(v.gpu_alloc, g.gpu_alloc)
                    {
                        return Err(format!(
                            "shard {s}: {gn} is {v:?} in its view, {g:?} globally"
                        ));
                    }
                }
            }
            Ok(())
        }
    }

    impl Scheduler for Witness {
        fn name(&self) -> String {
            self.sharded.name()
        }
        fn period(&self) -> Option<f64> {
            self.sharded.period()
        }
        fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
            if matches!(
                ev,
                SchedEvent::Submit(_) | SchedEvent::Tick | SchedEvent::Timer(_)
            ) {
                if let Err(e) = self.check(state) {
                    panic!("view out of lockstep at t={} before {ev:?}: {e}", state.now);
                }
                self.checks += 1;
            }
            self.sharded.on_event(ev, state)
        }
    }

    /// A Lublin trace of `n` jobs at load 0.9 on `nodes` nodes, with
    /// about a third of the nodes failing once and coming back. With
    /// `gpu`, 40 % of the jobs want a GPU fraction from U(0.05, 1].
    fn lublin_churn(
        seed: u64,
        nodes: u32,
        n: usize,
        gpu: bool,
    ) -> (ClusterSpec, Vec<JobSpec>, Vec<NodeEvent>) {
        use dfrs_workload::{Annotator, LublinModel, Trace};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let cluster = ClusterSpec::new(nodes, 4, 8.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let raws = LublinModel::for_cluster(&cluster).generate(n, &mut rng);
        let jobs = Annotator::new(cluster).annotate(&raws, &mut rng).unwrap();
        let trace = Trace::new(cluster, jobs)
            .unwrap()
            .scale_to_load(0.9)
            .unwrap();
        // After the rescale, which rebuilds the specs without GPU.
        let jobs: Vec<JobSpec> = trace
            .jobs()
            .iter()
            .map(|&j| {
                if gpu && rng.gen_bool(0.4) {
                    j.with_gpu(rng.gen_range(0.05..=1.0)).unwrap()
                } else {
                    j
                }
            })
            .collect();
        let horizon = jobs.last().map_or(0.0, |j| j.submit_time);
        let mut events = Vec::new();
        for node in 0..nodes {
            if rng.gen_bool(0.35) {
                let down = rng.gen_range(0.0..horizon);
                let up = down + rng.gen_range(60.0..3_600.0);
                for (time, up) in [(down, false), (up, true)] {
                    events.push(NodeEvent {
                        time,
                        node: NodeId(node),
                        up,
                    });
                }
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        (cluster, jobs, events)
    }

    /// Runs `sharded:<inner>:shards=<shards>` under validation inside the
    /// witness on [`lublin_churn`] (GPU jobs for the DRF inners);
    /// returns how many deliveries it checked.
    fn lockstep(
        inner: &str,
        shards: u32,
        policy: FailurePolicy,
        seed: u64,
        nodes: u32,
        n: usize,
    ) -> usize {
        let (cluster, jobs, node_events) = lublin_churn(seed, nodes, n, inner.contains("drf"));
        let spec = format!("sharded:{inner}:shards={shards}");
        let inners = (0..shards)
            .map(|_| SchedulerRegistry::builtin().build_str(inner).unwrap())
            .collect();
        let mut witness = Witness {
            sharded: Sharded::new(inners),
            checks: 0,
        };
        let cfg = SimConfig {
            validate: true,
            failure_policy: policy,
            node_events,
            ..SimConfig::default()
        };
        let out = simulate(cluster, &jobs, &mut witness, &cfg);
        assert_eq!(
            out.records.len(),
            jobs.len(),
            "{spec} seed {seed} {policy:?}"
        );
        witness.checks
    }

    /// The views stay in lockstep with the global state on inputs where
    /// `dynmcb8-asap-per` hands back running jobs with their nodes only
    /// reordered (an adjustment, not a migration).
    #[test]
    fn views_stay_in_lockstep_with_the_global_state() {
        for policy in [FailurePolicy::Restart, FailurePolicy::PausePreserve] {
            for (inner, shards) in [("dynmcb8-asap-per:t=600", 4), ("dynmcb8", 2)] {
                let checks = lockstep(inner, shards, policy, 3, 16, 120);
                assert!(checks >= 120, "{inner}: {checks} checks");
            }
        }
    }

    /// The wide matrix: every yield-family inner × shards 2, 3, 4 ×
    /// both failure policies, on four churning 300-job Lublin traces
    /// over 32 nodes.
    #[test]
    #[ignore = "wide matrix; run with --ignored"]
    fn views_stay_in_lockstep_matrix() {
        const INNERS: &[&str] = &[
            "greedy",
            "greedy-pmtn",
            "greedy-pmtn-migr",
            "dynmcb8",
            "dynmcb8-per",
            "dynmcb8-asap-per",
            "dynmcb8-stretch-per",
            "dynmcb8-fair-per",
            "dynmcb8-drf",
            "dynmcb8-drf-per",
        ];
        for inner in INNERS {
            for shards in [2, 3, 4] {
                for policy in [FailurePolicy::Restart, FailurePolicy::PausePreserve] {
                    for seed in 1..=4 {
                        let checks = lockstep(inner, shards, policy, seed, 32, 300);
                        println!("{inner} shards={shards} {policy:?} seed {seed}: {checks} checks");
                    }
                }
            }
        }
    }

    #[test]
    fn routing_balances_across_shards() {
        // Many single-task jobs arriving together spread over shards:
        // with 2 shards of 4 nodes and 8 one-node jobs, both shards
        // must host some work (makespan stays flat).
        let cluster = ClusterSpec::new(8, 4, 8.0).unwrap();
        let specs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec::new(JobId(i), 0.0, 1, 1.0, 0.5, 100.0).unwrap())
            .collect();
        let reg = SchedulerRegistry::builtin();
        let mut sched = reg.build_str("sharded:greedy:shards=2").unwrap();
        let out = simulate(cluster, &specs, sched.as_mut(), &SimConfig::default());
        assert_eq!(out.records.len(), 8);
        // All 8 fit at once (8 nodes, 1 node each): no queueing at all.
        assert!(out.makespan <= 100.0 + 1e-9, "makespan {}", out.makespan);
    }
}
