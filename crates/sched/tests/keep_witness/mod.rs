//! The witness of a *keep* decision (`dfrs_sched`'s private
//! `EvictionFront::keep`), shared by the lockstep tests that compare
//! every other decision with a verbatim reference.
//!
//! Keep answers a repack without a search when every running job runs
//! at yield 1 and the waiting jobs' tasks fit one per idle node: it
//! starts the waiting jobs there at yield 1 and leaves the running ones
//! in place. Its plan differs from a search's, so a lockstep test
//! recognizes it from the plan alone: no pause, no entry for a running
//! job, and not the reference's plan. (A search's plan pauses every
//! running job it drops and has an entry for every one it keeps; with
//! no job running, a search's plan the reference reproduces is equal
//! to it.) Everything else must equal the reference as before.

// Each test crate that includes this module uses a part of it.
#![allow(dead_code)]

use std::collections::HashSet;

use dfrs_core::ids::JobId;
use dfrs_sim::{JobStatus, Plan, PlanEntry, SimState};

/// Whether `plan` has the shape of a keep decision in `state`: no
/// pause, and no entry for a running job.
pub fn keep_shaped(state: &SimState, plan: &Plan) -> bool {
    plan.entries.iter().all(|e| match e {
        PlanEntry::Pause { .. } => false,
        PlanEntry::Run { job, .. } => state.job(*job).status != JobStatus::Running,
    })
}

/// Asserts the keep witness: every running job was already at yield 1;
/// the plan runs every waiting job, ascending id, at yield bits `1.0`;
/// and its tasks sit on distinct nodes that were idle and in service.
pub fn assert_keep(state: &SimState, plan: &Plan, at: &str) {
    for j in state.running_jobs() {
        assert_eq!(
            j.yld.to_bits(),
            1f64.to_bits(),
            "keep while job {} runs at yield {}, {at}",
            j.spec.id,
            j.yld
        );
    }
    let waiting: Vec<JobId> = state
        .jobs_in_system()
        .filter(|j| j.status != JobStatus::Running)
        .map(|j| j.spec.id)
        .collect();
    let mut runs = Vec::new();
    let mut used = HashSet::new();
    for e in &plan.entries {
        let PlanEntry::Run { job, yld, .. } = e else {
            panic!("keep paused a job, {at}");
        };
        runs.push(*job);
        assert_eq!(yld.to_bits(), 1f64.to_bits(), "{job} kept at {yld}, {at}");
        let nodes = plan.placement(e);
        assert_eq!(nodes.len(), state.job(*job).spec.tasks as usize, "{at}");
        for &n in nodes {
            assert!(state.cluster.is_up(n), "{job} kept on down {n}, {at}");
            assert!(
                state.cluster.nodes()[n.index()].is_idle(),
                "{job} kept on busy {n}, {at}"
            );
            assert!(used.insert(n), "two kept tasks on {n}, {at}");
        }
    }
    assert_eq!(runs, waiting, "keep runs every waiting job, {at}");
}

/// Whether a reference decision ran every job in the system at yield
/// bits `1.0`: no pause, a run entry per job, and no lower yield.
pub fn runs_all_at_full_yield(state: &SimState, plan: &Plan) -> bool {
    let full = 1f64.to_bits();
    plan.entries.len() == state.in_system_len()
        && plan
            .entries
            .iter()
            .all(|e| matches!(e, PlanEntry::Run { yld, .. } if yld.to_bits() == full))
}

/// Keep decisions seen, split by what the reference decided instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KeepTally {
    /// The reference also ran every job at yield 1: only placements
    /// differ (keep moves no running task).
    pub same_yields: u64,
    /// The reference ran a job below yield 1 or paused one: an MCB8
    /// path loss that keep wins.
    pub wins: u64,
}

impl KeepTally {
    /// Count one keep decision; `reference_full` says whether the
    /// reference ran every job at yield 1.
    pub fn record(&mut self, reference_full: bool) {
        if reference_full {
            self.same_yields += 1;
        } else {
            self.wins += 1;
        }
    }

    /// Keep decisions in all.
    pub fn total(&self) -> u64 {
        self.same_yields + self.wins
    }
}
