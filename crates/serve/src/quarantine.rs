//! Scheduler fault containment: a [`Scheduler`] wrapper that stops a
//! panicking tick or an invalid plan from poisoning the daemon.
//!
//! The engine's own plan validation ([`dfrs_sim::check_plan`]) panics
//! on a bad plan when `validate` is on — correct for batch experiments
//! (a bad plan is a scheduler bug and the run is worthless), fatal for
//! a long-lived daemon. [`QuarantineGuard`] validates every plan
//! *before* the engine sees it; offending entries are stripped, the
//! attributable job is noted, and the daemon (which shares the note
//! log) cancels the job and reports a typed `error` event — the
//! session keeps serving. A panic inside the scheduler is caught the
//! same way and degrades to a no-op plan.
//!
//! Everything here runs inside the session command loop, so quarantine
//! decisions replay deterministically from the journal.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use dfrs_core::ids::JobId;
use dfrs_sim::{check_plan, Plan, PlanEntry, RepackStats, SchedEvent, Scheduler, SimState};

/// One containment decision, for the daemon to report and act on.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarantine {
    /// The job the fault was attributed to (canceled by the daemon);
    /// `None` when no single job is attributable (tick panic, or a
    /// capacity fault with no placed entry on the named node).
    pub job: Option<JobId>,
    /// Human-readable cause.
    pub reason: String,
}

/// Shared note log between the guard (writer) and the daemon (reader).
#[derive(Clone, Default)]
pub struct QuarantineLog(Arc<Mutex<Vec<Quarantine>>>);

impl QuarantineLog {
    fn push(&self, q: Quarantine) {
        self.0.lock().expect("quarantine log poisoned").push(q);
    }

    /// Drain every pending note.
    pub fn take(&self) -> Vec<Quarantine> {
        std::mem::take(&mut *self.0.lock().expect("quarantine log poisoned"))
    }

    /// True when no notes are pending.
    pub fn is_empty(&self) -> bool {
        self.0.lock().expect("quarantine log poisoned").is_empty()
    }
}

/// The wrapper installed around every daemon scheduler.
pub struct QuarantineGuard {
    inner: Box<dyn Scheduler>,
    log: QuarantineLog,
}

impl QuarantineGuard {
    /// Wrap `inner`, sharing `log` with the daemon.
    pub fn new(inner: Box<dyn Scheduler>, log: QuarantineLog) -> Self {
        QuarantineGuard { inner, log }
    }
}

/// Strip every entry and timer belonging to `job` from `plan`.
fn strip(plan: &mut Plan, job: JobId) {
    plan.entries.retain(|e| match e {
        PlanEntry::Run { job: j, .. } | PlanEntry::Pause { job: j } => *j != job,
    });
    plan.timers.retain(|(j, _)| *j != job);
}

/// The job to blame for a capacity fault on `node`: the last run entry
/// placing a task there (deterministic, and the marginal overcommitter
/// under the engine's in-order application).
fn capacity_culprit(plan: &Plan, node: dfrs_core::ids::NodeId) -> Option<JobId> {
    plan.entries.iter().rev().find_map(|e| match e {
        PlanEntry::Run { job, .. } if plan.placement(e).contains(&node) => Some(*job),
        _ => None,
    })
}

impl Scheduler for QuarantineGuard {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn period(&self) -> Option<f64> {
        self.inner.period()
    }

    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        let mut plan = match catch_unwind(AssertUnwindSafe(|| self.inner.on_event(ev, state))) {
            Ok(plan) => plan,
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                self.log.push(Quarantine {
                    job: None,
                    reason: format!("scheduler panicked on {ev:?}: {detail}"),
                });
                return Plan::noop();
            }
        };
        // Sanitize until valid. Each round removes at least one entry
        // or timer (or empties the plan outright), so this terminates.
        loop {
            let err = match check_plan(state, &plan) {
                Ok(()) => return plan,
                Err(e) => e,
            };
            let job = err
                .job()
                .or_else(|| err.node().and_then(|n| capacity_culprit(&plan, n)));
            self.log.push(Quarantine {
                job,
                reason: format!("invalid plan: {err}"),
            });
            match job {
                Some(j) => strip(&mut plan, j),
                None => {
                    // Nothing attributable: drop the whole plan rather
                    // than guess.
                    return Plan::noop();
                }
            }
        }
    }

    fn repack_stats(&self) -> Option<RepackStats> {
        self.inner.repack_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_core::ids::NodeId;
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{SimConfig, SimSession};

    /// Misbehaves on demand: panics on tick `panic_at`, emits an
    /// invalid placement for job `bad_job`, otherwise runs everything
    /// pending on node 0.
    struct Saboteur {
        ticks: u32,
        panic_at: Option<u32>,
        bad_job: Option<JobId>,
    }

    impl Scheduler for Saboteur {
        fn name(&self) -> String {
            "saboteur".into()
        }
        fn period(&self) -> Option<f64> {
            Some(100.0)
        }
        fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
            if matches!(ev, SchedEvent::Tick) {
                self.ticks += 1;
                if self.panic_at == Some(self.ticks) {
                    panic!("sabotage at tick {}", self.ticks);
                }
            }
            let mut plan = Plan::noop();
            for j in state.jobs_in_system() {
                if j.status != dfrs_sim::JobStatus::Pending {
                    continue;
                }
                let id = j.spec.id;
                if self.bad_job == Some(id) {
                    // Nonexistent node: an invalid plan.
                    plan = plan.run(id, vec![NodeId(999); j.spec.tasks as usize], 1.0);
                } else {
                    plan = plan.run(id, vec![NodeId(0); j.spec.tasks as usize], 1.0);
                }
            }
            plan
        }
    }

    fn session(sab: Saboteur, log: QuarantineLog) -> SimSession {
        SimSession::new(
            ClusterSpec::new(4, 4, 8.0).unwrap(),
            "saboteur",
            Box::new(QuarantineGuard::new(Box::new(sab), log)),
            SimConfig::default(),
        )
    }

    fn job(id: u32, t: f64) -> JobSpec {
        JobSpec::new(JobId(id), t, 1, 0.5, 0.2, 50.0).unwrap()
    }

    #[test]
    fn invalid_plans_are_stripped_and_noted() {
        let log = QuarantineLog::default();
        let sab = Saboteur {
            ticks: 0,
            panic_at: None,
            bad_job: Some(JobId(1)),
        };
        let mut s = session(sab, log.clone());
        s.submit(job(0, 0.0)).unwrap();
        s.submit(job(1, 1.0)).unwrap();
        // j1's bad entry was stripped on every round it appeared in;
        // j0 is unaffected and completes.
        let notes = log.take();
        assert!(!notes.is_empty());
        assert!(notes.iter().all(|n| n.job == Some(JobId(1))), "{notes:?}");
        assert!(notes[0].reason.contains("nonexistent"), "{notes:?}");
        s.cancel(JobId(1)).unwrap();
        s.drain().unwrap();
        assert_eq!(s.completed(), 2);
    }

    #[test]
    fn tick_panics_degrade_to_noop_plans() {
        let log = QuarantineLog::default();
        let sab = Saboteur {
            ticks: 0,
            panic_at: Some(1),
            bad_job: None,
        };
        let mut s = session(sab, log.clone());
        s.submit(job(0, 0.0)).unwrap();
        // Tick 1 (t=100) panics; the job is already running by then and
        // completes regardless.
        s.advance_to(150.0).unwrap();
        let notes = log.take();
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert_eq!(notes[0].job, None);
        assert!(notes[0].reason.contains("sabotage"), "{notes:?}");
        s.drain().unwrap();
        assert_eq!(s.completed(), 1);
    }
}
