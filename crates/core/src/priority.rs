//! The pause/resume priority function of Section III-A.
//!
//! ```text
//! priority = max(30, flow_time) / virtual_time²
//! ```
//!
//! * *flow time* — seconds since the job was submitted;
//! * *virtual time* — the integral of the job's yield since submission
//!   (the "subjective execution time" it has experienced).
//!
//! Jobs are considered for **pausing in increasing** order of priority and
//! for **resuming in decreasing** order. A job with zero virtual time has
//! infinite priority (it has never run, so it must never be paused in
//! favor of one that has). The flow time in the numerator guarantees every
//! paused job eventually gets resumed (no starvation); the square in the
//! denominator biases toward short-running jobs — the paper reports that
//! removing it is markedly worse.

use std::cmp::Ordering;

use crate::constants::PRIORITY_FLOW_FLOOR_SECS;
use crate::ids::JobId;

/// A job's scheduling priority: either a finite positive value or
/// infinite (never-run jobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Priority {
    /// `max(30, flow) / vt²` for a job with positive virtual time.
    Finite(f64),
    /// Job has never accrued virtual time.
    Infinite,
}

impl Priority {
    /// Compute the priority of a job at time `now`.
    ///
    /// `submit_time` is the job's submission time and `virtual_time` its
    /// accrued virtual time, both in seconds. Callers must ensure
    /// `now >= submit_time`.
    pub fn compute(now: f64, submit_time: f64, virtual_time: f64) -> Priority {
        Priority::compute_with_exponent(now, submit_time, virtual_time, 2.0)
    }

    /// The priority with a configurable virtual-time exponent:
    /// `max(30, flow) / vt^exponent`. The paper uses exponent 2 and
    /// reports that exponent 1 is markedly worse; this generalization
    /// exists for that ablation (DESIGN.md "Extensions and ablations").
    pub fn compute_with_exponent(
        now: f64,
        submit_time: f64,
        virtual_time: f64,
        exponent: f64,
    ) -> Priority {
        debug_assert!(
            now + 1e-9 >= submit_time,
            "priority queried before submission"
        );
        debug_assert!(virtual_time >= 0.0);
        debug_assert!(exponent > 0.0);
        if virtual_time <= 0.0 {
            return Priority::Infinite;
        }
        let flow = (now - submit_time).max(0.0).max(PRIORITY_FLOW_FLOOR_SECS);
        Priority::Finite(flow / virtual_time.powf(exponent))
    }

    /// True when infinite.
    #[inline]
    pub fn is_infinite(&self) -> bool {
        matches!(self, Priority::Infinite)
    }
}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp_total(other))
    }
}

impl Priority {
    /// Total order: any finite value < infinite; finite values compare
    /// numerically (`total_cmp`, so no NaN surprises).
    pub fn cmp_total(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Priority::Infinite, Priority::Infinite) => Ordering::Equal,
            (Priority::Infinite, Priority::Finite(_)) => Ordering::Greater,
            (Priority::Finite(_), Priority::Infinite) => Ordering::Less,
            (Priority::Finite(a), Priority::Finite(b)) => a.total_cmp(b),
        }
    }
}

/// A fully ordered priority key for deterministic scheduling decisions.
///
/// Equal priority values are broken by submission time (earlier submission
/// = higher priority, i.e. resumed first / paused last) and finally by job
/// id, so sorting is a total order and simulations are reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityKey {
    /// The priority value.
    pub priority: Priority,
    /// Submission time of the job.
    pub submit_time: f64,
    /// The job, as the final tie-break.
    pub id: JobId,
}

impl PriorityKey {
    /// Build the key for a job.
    pub fn new(now: f64, submit_time: f64, virtual_time: f64, id: JobId) -> Self {
        PriorityKey {
            priority: Priority::compute(now, submit_time, virtual_time),
            submit_time,
            id,
        }
    }

    /// Key under a custom virtual-time exponent (ablation).
    pub fn with_exponent(
        now: f64,
        submit_time: f64,
        virtual_time: f64,
        id: JobId,
        exponent: f64,
    ) -> Self {
        PriorityKey {
            priority: Priority::compute_with_exponent(now, submit_time, virtual_time, exponent),
            submit_time,
            id,
        }
    }
}

impl Eq for PriorityKey {}

impl PartialOrd for PriorityKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PriorityKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Ascending order = increasing priority (pause candidates first).
        self.priority
            .cmp_total(&other.priority)
            // Later submission = lower priority on ties.
            .then_with(|| other.submit_time.total_cmp(&self.submit_time))
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_run_job_is_infinite() {
        assert!(Priority::compute(100.0, 50.0, 0.0).is_infinite());
    }

    #[test]
    fn paper_example_virtual_time() {
        // 10 s at yield 1.0, 2 min paused, 30 s at yield 0.5 -> vt = 25 s.
        // At that point flow = 160 s, priority = 160 / 625.
        let p = Priority::compute(160.0, 0.0, 25.0);
        match p {
            Priority::Finite(v) => assert!((v - 160.0 / 625.0).abs() < 1e-12),
            Priority::Infinite => panic!("expected finite"),
        }
    }

    #[test]
    fn flow_floor_protects_young_jobs() {
        // A job 1 s after submission uses flow = 30, not 1.
        let p = Priority::compute(1.0, 0.0, 1.0);
        match p {
            Priority::Finite(v) => assert!((v - 30.0).abs() < 1e-12),
            Priority::Infinite => panic!(),
        }
    }

    #[test]
    fn more_virtual_time_means_lower_priority() {
        let young = Priority::compute(1000.0, 0.0, 10.0);
        let old = Priority::compute(1000.0, 0.0, 100.0);
        assert_eq!(old.cmp_total(&young), Ordering::Less);
    }

    #[test]
    fn longer_wait_raises_priority() {
        let waited = Priority::compute(5000.0, 0.0, 50.0);
        let fresh = Priority::compute(1000.0, 900.0, 50.0);
        assert_eq!(waited.cmp_total(&fresh), Ordering::Greater);
    }

    #[test]
    fn infinite_dominates() {
        let inf = Priority::Infinite;
        let fin = Priority::Finite(1e30);
        assert_eq!(inf.cmp_total(&fin), Ordering::Greater);
        assert_eq!(fin.cmp_total(&inf), Ordering::Less);
        assert_eq!(inf.cmp_total(&Priority::Infinite), Ordering::Equal);
    }

    #[test]
    fn key_ties_broken_by_submission_then_id() {
        // Two never-run jobs: the earlier-submitted one has the *greater*
        // key (resumed first when iterating in decreasing order).
        let a = PriorityKey::new(100.0, 10.0, 0.0, JobId(1));
        let b = PriorityKey::new(100.0, 20.0, 0.0, JobId(2));
        assert!(a > b);
        // Same submit: lower id wins (greater key).
        let c = PriorityKey::new(100.0, 10.0, 0.0, JobId(3));
        assert!(a > c);
    }

    #[test]
    fn key_sort_is_deterministic_total_order() {
        let mut keys = [
            PriorityKey::new(500.0, 0.0, 100.0, JobId(0)),
            PriorityKey::new(500.0, 0.0, 0.0, JobId(1)),
            PriorityKey::new(500.0, 100.0, 5.0, JobId(2)),
            PriorityKey::new(500.0, 100.0, 5.0, JobId(3)),
        ];
        keys.sort();
        // Ascending = pause order: long-run low-priority jobs first,
        // infinite-priority last.
        assert_eq!(keys.last().unwrap().id, JobId(1));
        let pos2 = keys.iter().position(|k| k.id == JobId(2)).unwrap();
        let pos3 = keys.iter().position(|k| k.id == JobId(3)).unwrap();
        assert!(pos2 > pos3, "lower id = higher priority on exact ties");
    }
}
