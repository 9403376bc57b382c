//! Deterministic fault injection for the crash-safety harness.
//!
//! A [`ChaosPlan`] names one seeded crash point in the daemon's
//! write-ahead path: before a journal append (the command is lost,
//! as it should be — it was never acknowledged), after one (the
//! command is durable but unacknowledged), mid-append (a torn record,
//! dropped on recovery), mid-snapshot (a half-written temp file,
//! ignored on recovery), or between a group-commit append and its ack
//! (every staged command unapplied). The `dfrs-serve` binary takes a plan via
//! `--chaos` and emulates `kill -9` with [`std::process::abort`] when
//! it fires; in-process tests get [`crate::Flow::Crashed`] and drop
//! the daemon.
//!
//! Plans are fully deterministic — they count commands, not time — so
//! every crash point is reproducible and the recovery proptest can
//! assert byte-identical convergence.

use std::fmt;
use std::str::FromStr;

/// Where in the write-ahead path to crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the journal append: the command vanishes entirely.
    PreAppend,
    /// After the append (and its sync): durable but never applied or
    /// acknowledged.
    PostAppend,
    /// Mid-append: only the first `keep` bytes of the record reach the
    /// file — a torn final record.
    TornAppend {
        /// Bytes of the record (newline included) that survive.
        keep: usize,
    },
    /// Mid-snapshot: the snapshot temp file is half-written and never
    /// renamed into place.
    MidSnapshot {
        /// Bytes of the snapshot text that survive.
        keep: usize,
    },
    /// Between a group-commit append and its ack: the command and every
    /// earlier command staged in the same `Daemon::handle_batch` were
    /// appended but not committed, applied or acknowledged. Unlike
    /// [`CrashPoint::PostAppend`], the staged run is not flushed first.
    /// An in-process drop of the daemon commits the run; an aborted
    /// process (the binary) loses it.
    BatchCrash,
}

/// One seeded crash: fire `point` at the `at`-th triggering event
/// (1-based; journaled commands for the append points, snapshot
/// commands for [`CrashPoint::MidSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The injection point.
    pub point: CrashPoint,
    /// Which occurrence triggers it (1-based).
    pub at: u64,
}

impl FromStr for ChaosPlan {
    type Err = String;

    /// `pre-append:N`, `post-append:N`, `torn:N:K` (K surviving bytes),
    /// `mid-snapshot:N:K`, `batch-crash:N`.
    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || {
            format!(
            "bad chaos spec {s:?} (expected pre-append:N, post-append:N, torn:N:K, mid-snapshot:N:K, or batch-crash:N)"
        )
        };
        let parts: Vec<&str> = s.split(':').collect();
        let num = |i: usize, min: u64| -> Result<u64, String> {
            match parts.get(i).map(|p| p.parse::<u64>()) {
                Some(Ok(n)) if n >= min => Ok(n),
                _ => Err(bad()),
            }
        };
        match (parts.first().copied(), parts.len()) {
            (Some("pre-append"), 2) => Ok(ChaosPlan {
                point: CrashPoint::PreAppend,
                at: num(1, 1)?,
            }),
            (Some("post-append"), 2) => Ok(ChaosPlan {
                point: CrashPoint::PostAppend,
                at: num(1, 1)?,
            }),
            (Some("torn"), 3) => Ok(ChaosPlan {
                point: CrashPoint::TornAppend {
                    keep: num(2, 1)? as usize,
                },
                at: num(1, 1)?,
            }),
            (Some("mid-snapshot"), 3) => Ok(ChaosPlan {
                point: CrashPoint::MidSnapshot {
                    keep: num(2, 0)? as usize,
                },
                at: num(1, 1)?,
            }),
            (Some("batch-crash"), 2) => Ok(ChaosPlan {
                point: CrashPoint::BatchCrash,
                at: num(1, 1)?,
            }),
            _ => Err(bad()),
        }
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.point {
            CrashPoint::PreAppend => write!(f, "pre-append:{}", self.at),
            CrashPoint::PostAppend => write!(f, "post-append:{}", self.at),
            CrashPoint::TornAppend { keep } => write!(f, "torn:{}:{keep}", self.at),
            CrashPoint::MidSnapshot { keep } => write!(f, "mid-snapshot:{}:{keep}", self.at),
            CrashPoint::BatchCrash => write!(f, "batch-crash:{}", self.at),
        }
    }
}

/// What the daemon should do for the append it is about to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// No injection here.
    Proceed,
    /// Crash without touching the journal.
    CrashBefore,
    /// Append and wait until the record is durable, then crash before
    /// applying ([`CrashPoint::PostAppend`]).
    CrashAfter,
    /// Append without committing, then crash with every staged command
    /// unapplied and unacknowledged ([`CrashPoint::BatchCrash`]): an
    /// in-process drop commits the staged run, an abort loses it.
    CrashStaged,
    /// Write a torn prefix of the record, then crash.
    Torn {
        /// Surviving byte count.
        keep: usize,
    },
}

/// Counts trigger occurrences and fires the plan exactly once.
#[derive(Debug, Clone)]
pub struct ChaosState {
    plan: ChaosPlan,
    appends: u64,
    snapshots: u64,
}

impl ChaosState {
    /// Arm `plan`.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosState {
            plan,
            appends: 0,
            snapshots: 0,
        }
    }

    /// Called once per journaled command, before the append.
    pub fn on_append(&mut self) -> ChaosAction {
        self.appends += 1;
        if self.appends != self.plan.at {
            return ChaosAction::Proceed;
        }
        match self.plan.point {
            CrashPoint::PreAppend => ChaosAction::CrashBefore,
            CrashPoint::PostAppend => ChaosAction::CrashAfter,
            CrashPoint::BatchCrash => ChaosAction::CrashStaged,
            CrashPoint::TornAppend { keep } => ChaosAction::Torn { keep },
            CrashPoint::MidSnapshot { .. } => ChaosAction::Proceed,
        }
    }

    /// Called once per snapshot command; `Some(keep)` means write a
    /// torn snapshot temp file of `keep` bytes, then crash.
    pub fn on_snapshot(&mut self) -> Option<usize> {
        self.snapshots += 1;
        match self.plan.point {
            CrashPoint::MidSnapshot { keep } if self.snapshots == self.plan.at => Some(keep),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_roundtrip() {
        for (s, plan) in [
            (
                "pre-append:3",
                ChaosPlan {
                    point: CrashPoint::PreAppend,
                    at: 3,
                },
            ),
            (
                "post-append:1",
                ChaosPlan {
                    point: CrashPoint::PostAppend,
                    at: 1,
                },
            ),
            (
                "torn:4:7",
                ChaosPlan {
                    point: CrashPoint::TornAppend { keep: 7 },
                    at: 4,
                },
            ),
            (
                "mid-snapshot:1:100",
                ChaosPlan {
                    point: CrashPoint::MidSnapshot { keep: 100 },
                    at: 1,
                },
            ),
            (
                "batch-crash:5",
                ChaosPlan {
                    point: CrashPoint::BatchCrash,
                    at: 5,
                },
            ),
        ] {
            assert_eq!(s.parse::<ChaosPlan>().as_ref(), Ok(&plan), "{s}");
            assert_eq!(plan.to_string(), s);
        }
        for bad in [
            "",
            "boom",
            "pre-append",
            "pre-append:0",
            "pre-append:x",
            "pre-append:1:2",
            "torn:1",
            "torn:1:0",
            "mid-snapshot:0:5",
            "batch-crash:0",
            "batch-crash:1:2",
        ] {
            assert!(bad.parse::<ChaosPlan>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fires_exactly_once_at_the_seeded_occurrence() {
        let mut c = ChaosState::new("post-append:2".parse().unwrap());
        assert_eq!(c.on_append(), ChaosAction::Proceed);
        assert_eq!(c.on_append(), ChaosAction::CrashAfter);
        assert_eq!(c.on_append(), ChaosAction::Proceed);
        assert_eq!(c.on_snapshot(), None);

        let mut c = ChaosState::new("batch-crash:1".parse().unwrap());
        assert_eq!(c.on_append(), ChaosAction::CrashStaged);
        assert_eq!(c.on_append(), ChaosAction::Proceed);

        let mut c = ChaosState::new("mid-snapshot:2:9".parse().unwrap());
        assert_eq!(c.on_append(), ChaosAction::Proceed);
        assert_eq!(c.on_snapshot(), None);
        assert_eq!(c.on_snapshot(), Some(9));
        assert_eq!(c.on_snapshot(), None);
    }
}
