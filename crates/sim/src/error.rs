//! Typed engine failures.
//!
//! The materialized entry point ([`crate::simulate`]) still panics on
//! these — a batch run that deadlocks or runs away is a bug and should
//! abort the test — but the streaming entry points
//! ([`crate::try_simulate`], [`crate::simulate_stream`], and the
//! long-lived [`crate::SimSession`]) surface them as values so a daemon
//! can refuse the offending input and keep serving.

use std::fmt;

use dfrs_core::ids::{JobId, NodeId};

use crate::state::JobStatus;

/// Why a simulation could not make progress or accept an input.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The runaway-scheduler guard tripped: more engine iterations than
    /// [`crate::SimConfig::max_events`] allows.
    EventCapExceeded {
        /// The configured cap.
        max_events: u64,
    },
    /// No pending events, no running jobs, and jobs still in the
    /// system: nothing can ever make progress again.
    Deadlock {
        /// Simulation time at which progress stopped.
        now: f64,
        /// The stuck jobs and their statuses.
        stuck: Vec<(JobId, JobStatus)>,
    },
    /// The submission source yielded a job whose id is not the next
    /// dense id.
    NonDenseSubmission {
        /// The id the engine expected.
        expected: JobId,
        /// The id the source produced.
        got: JobId,
    },
    /// A submission's time is in the past (sources must yield
    /// non-decreasing, finite, non-negative submit times).
    SubmissionOutOfOrder {
        /// Offending job.
        job: JobId,
        /// Its submit time.
        time: f64,
        /// The simulation clock when it arrived.
        now: f64,
    },
    /// A submission whose completion instant the clock cannot
    /// represent: `submit_time + runtime` overflows to infinity or
    /// rounds back to `submit_time`, so the job could never finish.
    UnrepresentableCompletion {
        /// Offending job.
        job: JobId,
        /// Its submit time.
        time: f64,
        /// Its runtime.
        runtime: f64,
    },
    /// A session command referenced a node outside the cluster.
    UnknownNode {
        /// The nonexistent node.
        node: NodeId,
        /// Cluster size.
        nodes: u32,
    },
    /// A session command carried a time before the simulation clock.
    CommandInPast {
        /// Requested time.
        time: f64,
        /// Current simulation time.
        now: f64,
    },
    /// A snapshot was requested while jobs were still in the system
    /// (snapshots are only defined at quiescence; see DESIGN.md §11).
    NotQuiescent {
        /// Jobs still in the system.
        live: usize,
    },
    /// A snapshot document handed to [`crate::SimSession::restore`] was
    /// not a well-formed `dfrs-snapshot-v1` snapshot.
    SnapshotMalformed {
        /// What was wrong with the document.
        detail: String,
    },
    /// A session command referenced a job that has never been
    /// submitted (or whose record has already been drained).
    UnknownJob {
        /// The nonexistent job.
        job: JobId,
    },
    /// A cancel referenced a job that is no longer in the system.
    NotCancelable {
        /// The job.
        job: JobId,
        /// Its status at the time of the cancel.
        status: JobStatus,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the two legacy messages byte-compatible with the old
            // engine panics: tests assert on these substrings.
            SimError::EventCapExceeded { max_events } => {
                write!(f, "event cap exceeded ({max_events}) — runaway scheduler?")
            }
            SimError::Deadlock { now, stuck } => {
                let list: Vec<String> = stuck
                    .iter()
                    .map(|(id, st)| format!("{id}({st:?})"))
                    .collect();
                write!(
                    f,
                    "simulation deadlock at t={now}: no events, no running jobs, {} jobs stuck: {}",
                    list.len(),
                    list.join(", ")
                )
            }
            SimError::NonDenseSubmission { expected, got } => {
                write!(
                    f,
                    "submission source yielded {got} where {expected} was expected (ids must be dense, in order)"
                )
            }
            SimError::SubmissionOutOfOrder { job, time, now } => {
                write!(
                    f,
                    "submission of {job} at t={time} is in the past (clock is at {now}); sources must yield non-decreasing submit times"
                )
            }
            SimError::UnrepresentableCompletion { job, time, runtime } => {
                write!(
                    f,
                    "{job} submitted at t={time} with runtime {runtime} cannot complete: \
                     t + runtime must be finite and later than t"
                )
            }
            SimError::UnknownNode { node, nodes } => {
                write!(f, "{node} does not exist (cluster has {nodes} nodes)")
            }
            SimError::CommandInPast { time, now } => {
                write!(f, "command time {time} is in the past (clock is at {now})")
            }
            SimError::NotQuiescent { live } => {
                write!(
                    f,
                    "snapshot requires quiescence, but {live} jobs are still in the system"
                )
            }
            // Details carry their own "snapshot:" prefix.
            SimError::SnapshotMalformed { detail } => write!(f, "{detail}"),
            SimError::UnknownJob { job } => {
                write!(
                    f,
                    "{job} does not exist (never submitted, or already drained)"
                )
            }
            SimError::NotCancelable { job, status } => {
                write!(f, "{job} cannot be canceled: status is {status:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_messages_are_preserved() {
        let e = SimError::EventCapExceeded { max_events: 1000 };
        assert_eq!(
            e.to_string(),
            "event cap exceeded (1000) — runaway scheduler?"
        );
        let d = SimError::Deadlock {
            now: 5.0,
            stuck: vec![(JobId(3), JobStatus::Pending)],
        };
        assert_eq!(
            d.to_string(),
            "simulation deadlock at t=5: no events, no running jobs, 1 jobs stuck: j3(Pending)"
        );
    }

    #[test]
    fn source_errors_render() {
        let e = SimError::NonDenseSubmission {
            expected: JobId(2),
            got: JobId(5),
        };
        assert!(e.to_string().contains("j5"));
        assert!(e.to_string().contains("j2"));
        let o = SimError::SubmissionOutOfOrder {
            job: JobId(1),
            time: 3.0,
            now: 9.0,
        };
        assert!(o.to_string().contains("non-decreasing"));
        let u = SimError::UnrepresentableCompletion {
            job: JobId(0),
            time: 1e17,
            runtime: 1.0,
        };
        assert_eq!(
            u.to_string(),
            "j0 submitted at t=100000000000000000 with runtime 1 cannot complete: \
             t + runtime must be finite and later than t"
        );
    }
}
