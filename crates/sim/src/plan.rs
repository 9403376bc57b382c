//! The scheduler interface: events in, plans out.
//!
//! A scheduler is a pure policy. It never mutates simulation state
//! directly; it inspects the read-only [`SimState`] and returns a
//! [`Plan`], which the engine validates, applies, and accounts for
//! (preemption/migration counting, penalty charging, bandwidth metering).
//! This keeps every algorithm honest: the only way to affect the world is
//! through auditable plan entries.
//!
//! A plan's placements share one node arena the plan owns (see
//! [`Plan`]): a scheduler writes each job's nodes into it once, and the
//! validator, the engine, the shard views and the serve quarantine read
//! them in place.

use dfrs_core::ids::{JobId, NodeId};

use crate::state::SimState;

/// Why the scheduler is being invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// `job` just arrived.
    Submit(JobId),
    /// `job` just completed (already removed from its nodes).
    Complete(JobId),
    /// A timer previously requested for `job` fired (backoff retry). Only
    /// delivered while the job is still `Pending`.
    Timer(JobId),
    /// Periodic scheduling event ([`Scheduler::period`]).
    Tick,
    /// `node` just failed. The engine has already taken it out of
    /// service and evicted its resident jobs under the configured
    /// [`crate::FailurePolicy`] — victims are `Pending` (progress lost)
    /// or `Paused` (progress preserved) in the state the scheduler sees.
    NodeDown(NodeId),
    /// `node` was just repaired and is back in service (idle).
    NodeUp(NodeId),
    /// `job` is being taken away from this scheduler's jurisdiction by
    /// an outer coordinator (shard rebalancing): forget any queued or
    /// per-job state for it. Only ever `Pending` or `Paused` jobs are
    /// withdrawn, and the engine itself never emits this event — it is
    /// delivered by composite schedulers (see `dfrs_sched`'s sharded
    /// coordinator) to their inner instances.
    Withdraw(JobId),
}

/// Where one run entry's placement sits in its plan's node arena. Only
/// [`Plan`] makes these, so a span always lies inside the arena of the
/// plan that holds its entry; read it with [`Plan::placement`].
#[derive(Debug, Clone, Copy)]
pub struct NodeSpan {
    start: u32,
    len: u32,
}

impl NodeSpan {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// One desired state change.
#[derive(Debug, Clone, Copy)]
pub enum PlanEntry {
    /// Ensure `job` runs with this placement (one node per task, same
    /// order as task indices) and yield. Covers first starts, resumes,
    /// migrations, and pure yield adjustments; the engine diffs against
    /// the current state to classify and account.
    Run {
        /// Target job.
        job: JobId,
        /// Hosting node per task, as a span of the plan's arena
        /// ([`Plan::placement`]).
        nodes: NodeSpan,
        /// Yield in `(0, 1]`.
        yld: f64,
    },
    /// Evict a running job from its nodes, preserving its virtual time.
    Pause {
        /// Target job.
        job: JobId,
    },
}

/// The scheduler's response to one event.
///
/// The engine applies **all pauses first**, then runs in the order given
/// (so a plan may move job B into memory freed by pausing job A). Jobs
/// not mentioned keep their current placement and yield.
///
/// Every placement of a plan lives in one node arena the plan owns: a
/// run entry holds a [`NodeSpan`] of it, written once when the entry is
/// added ([`Plan::push_run`] appends in place, [`Plan::run`] copies a
/// `Vec` in) and read in place by everything downstream
/// ([`Plan::placement`]). Removing an entry from [`Plan::entries`] (the
/// serve stack's quarantine does) leaves its nodes in the arena,
/// referenced by nothing; they are dropped with the plan.
///
/// Two plans are equal when they make the same changes in the same
/// order — entry by entry the same job, yield and placement *contents*,
/// and the same timers — wherever the placements sit in either arena.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// State changes.
    pub entries: Vec<PlanEntry>,
    /// Absolute times at which to deliver [`SchedEvent::Timer`] for a job
    /// (used for bounded exponential backoff).
    pub timers: Vec<(JobId, f64)>,
    /// The placements of the run entries, back to back in entry order.
    nodes: Vec<NodeId>,
}

impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.timers == other.timers
            && self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| match (a, b) {
                    (PlanEntry::Pause { job: a }, PlanEntry::Pause { job: b }) => a == b,
                    (
                        PlanEntry::Run { job, yld, .. },
                        PlanEntry::Run {
                            job: other_job,
                            yld: other_yld,
                            ..
                        },
                    ) => {
                        job == other_job
                            && yld == other_yld
                            && self.placement(a) == other.placement(b)
                    }
                    _ => false,
                })
    }
}

impl Plan {
    /// A plan that changes nothing.
    pub fn noop() -> Self {
        Plan::default()
    }

    /// An empty plan with room for `entries` entries placing `tasks`
    /// tasks in total.
    pub fn with_capacity(entries: usize, tasks: usize) -> Self {
        Plan {
            entries: Vec::with_capacity(entries),
            timers: Vec::new(),
            nodes: Vec::with_capacity(tasks),
        }
    }

    /// Add a run entry (builder style).
    pub fn run(mut self, job: JobId, placement: Vec<NodeId>, yld: f64) -> Self {
        self.push_run(job, yld, placement);
        self
    }

    /// Add a run entry, writing its placement straight into the arena.
    pub fn push_run(&mut self, job: JobId, yld: f64, placement: impl IntoIterator<Item = NodeId>) {
        let start = self.nodes.len();
        self.nodes.extend(placement);
        let span = |n: usize| u32::try_from(n).expect("a plan places fewer than 2^32 tasks");
        let nodes = NodeSpan {
            start: span(start),
            len: span(self.nodes.len() - start),
        };
        self.entries.push(PlanEntry::Run { job, nodes, yld });
    }

    /// The placement of `entry`, which must be one of this plan's
    /// entries: one node per task for a run, empty for a pause.
    pub fn placement(&self, entry: &PlanEntry) -> &[NodeId] {
        match entry {
            PlanEntry::Run { nodes, .. } => &self.nodes[nodes.range()],
            PlanEntry::Pause { .. } => &[],
        }
    }

    /// Every run entry as `(job, placement, yield)`, in entry order,
    /// with the yield open to adjustment — for the passes that settle
    /// yields over placements already written.
    pub fn runs_mut(&mut self) -> impl Iterator<Item = (JobId, &[NodeId], &mut f64)> {
        let arena = &self.nodes;
        self.entries.iter_mut().filter_map(move |e| match e {
            PlanEntry::Run { job, nodes, yld } => Some((*job, &arena[nodes.range()], yld)),
            PlanEntry::Pause { .. } => None,
        })
    }

    /// Add a pause entry (builder style).
    pub fn pause(mut self, job: JobId) -> Self {
        self.entries.push(PlanEntry::Pause { job });
        self
    }

    /// Add a timer (builder style).
    pub fn timer(mut self, job: JobId, at: f64) -> Self {
        self.timers.push((job, at));
        self
    }
}

/// Search and pack accounting a scheduler can expose after a run. The
/// yield-search `DynMCB8*` schedulers report their repack-memo counters
/// (`dfrs_packing::RepackMemo`); the estimated-stretch and DRF searches
/// run cold, so their hits and packs saved stay zero. Purely
/// observational: the values never influence scheduling decisions or
/// outcomes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RepackStats {
    /// Allocation searches the scheduler ran.
    pub searches: u64,
    /// Searches answered entirely from warm state (zero packs).
    pub search_hits: u64,
    /// Packer invocations actually executed.
    pub packs: u64,
    /// Packer invocations avoided by warm-start replay.
    pub packs_saved: u64,
}

/// A scheduling policy driven by the simulation engine.
///
/// `Send` is a supertrait so composite schedulers (the sharded
/// coordinator, [`dfrs_scenario`-style campaign runners]) can fan
/// instances out across scoped threads; every scheduler in the tree is
/// plain owned data, so this costs implementors nothing.
pub trait Scheduler: Send {
    /// Display name (used in tables; e.g. `"DynMCB8-asap-per 600"`).
    fn name(&self) -> String;

    /// If `Some(T)`, the engine delivers [`SchedEvent::Tick`] every `T`
    /// seconds starting at `T`.
    fn period(&self) -> Option<f64> {
        None
    }

    /// React to an event. `state` reflects the world *after* the event's
    /// bookkeeping (e.g. a completed job is already off its nodes).
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan;

    /// Warm-start accounting accumulated so far, if this scheduler
    /// keeps any (the engine copies it into
    /// [`SimOutcome::repack`](crate::SimOutcome::repack) after a run).
    fn repack_stats(&self) -> Option<RepackStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_entries_in_order() {
        let p = Plan::noop()
            .pause(JobId(1))
            .run(JobId(2), vec![NodeId(0)], 1.0)
            .timer(JobId(3), 42.0);
        assert_eq!(p.entries.len(), 2);
        assert!(matches!(p.entries[0], PlanEntry::Pause { job: JobId(1) }));
        assert!(matches!(p.entries[1], PlanEntry::Run { job: JobId(2), .. }));
        assert_eq!(p.timers, vec![(JobId(3), 42.0)]);
    }

    #[test]
    fn placements_read_back_in_place_and_compare_by_content() {
        let mut a = Plan::noop().run(JobId(0), vec![NodeId(4), NodeId(5)], 0.5);
        a.push_run(JobId(1), 1.0, [NodeId(7)]);
        let read: Vec<&[NodeId]> = a.entries.iter().map(|e| a.placement(e)).collect();
        assert_eq!(read, [&[NodeId(4), NodeId(5)][..], &[NodeId(7)]]);
        for (_, placement, yld) in a.runs_mut() {
            *yld = 1.0 / placement.len() as f64;
        }
        // The same changes, with an entry (and its nodes) stripped in
        // between: another arena layout, an equal plan.
        let mut b = Plan::noop()
            .run(JobId(9), vec![NodeId(1)], 1.0)
            .pause(JobId(3))
            .run(JobId(0), vec![NodeId(4), NodeId(5)], 0.5)
            .run(JobId(1), vec![NodeId(7)], 1.0);
        b.entries.drain(..2);
        assert_eq!(a, b);
        assert_ne!(a, b.clone().pause(JobId(3)));
        assert_ne!(
            a,
            Plan::noop().run(JobId(0), vec![NodeId(4), NodeId(6)], 0.5)
        );
    }

    #[test]
    fn noop_is_empty() {
        let p = Plan::noop();
        assert!(p.entries.is_empty() && p.timers.is_empty());
    }
}
