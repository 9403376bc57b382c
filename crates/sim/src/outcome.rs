//! Simulation results: per-job records plus the aggregates every paper
//! table and figure is computed from.

use dfrs_core::ids::JobId;
use dfrs_core::stretch::bounded_stretch;

/// One job's fate.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Submission time.
    pub submit: f64,
    /// First placement time, if the job ever started before completing.
    pub first_start: Option<f64>,
    /// Completion time.
    pub completion: f64,
    /// Dedicated-mode runtime (denominator of the stretch).
    pub dedicated: f64,
    /// Turn-around time (`completion − submit`).
    pub turnaround: f64,
    /// The bounded stretch (Section II-B2).
    pub stretch: f64,
    /// Pause occurrences.
    pub preemptions: u32,
    /// Move-while-running occurrences.
    pub migrations: u32,
    /// Node-failure kills (progress lost, job resubmitted; see
    /// [`crate::FailurePolicy::Restart`]).
    pub restarts: u32,
}

/// One scheduler-invocation timing sample (for the paper's §V timing
/// study of allocation compute times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionSample {
    /// Jobs in the system when the scheduler was invoked.
    pub jobs_in_system: u32,
    /// Wall-clock seconds the invocation took.
    pub wall_secs: f64,
}

/// Aggregate outcome of one simulation run.
///
/// All aggregates are folded online by the engine in record-emission
/// (= id) order, so a streamed run ([`crate::simulate_stream`]) that
/// discards its records still reports bit-identical aggregates to a
/// materialized one.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// Scheduler display name.
    pub algorithm: String,
    /// Per-job records, indexed by job id. Populated by the materialized
    /// entry points ([`crate::simulate`] / [`crate::try_simulate`]);
    /// empty for [`crate::simulate_stream`] runs, whose records went to
    /// the sink instead.
    pub records: Vec<JobRecord>,
    /// Maximum bounded stretch — the paper's headline metric.
    pub max_stretch: f64,
    /// Mean bounded stretch.
    pub mean_stretch: f64,
    /// Time of the last completion.
    pub makespan: f64,
    /// Total pause occurrences.
    pub preemption_count: u64,
    /// Total migration occurrences.
    pub migration_count: u64,
    /// GB moved through storage by pauses + resumes.
    pub preemption_gb: f64,
    /// GB moved through storage by migrations (save + restore).
    pub migration_gb: f64,
    /// Jobs killed by node failures and resubmitted from scratch
    /// ([`crate::FailurePolicy::Restart`]); occurrences, like
    /// preemptions.
    pub restart_count: u64,
    /// Accrued virtual time discarded by those kills (seconds) — work
    /// the cluster performed and lost.
    pub lost_virtual_seconds: f64,
    /// Integral of idle nodes over time (node-seconds) — the energy
    /// observation of Section II-B2.
    pub idle_node_seconds: f64,
    /// Integral of allocated CPU over time (node-seconds of useful
    /// allocation).
    pub busy_node_seconds: f64,
    /// Integral of out-of-service nodes over time (node-seconds);
    /// zero on the paper's static cluster.
    pub down_node_seconds: f64,
    /// Scheduler wall-clock: total seconds across invocations.
    pub sched_wall_total: f64,
    /// Scheduler wall-clock: worst single invocation.
    pub sched_wall_max: f64,
    /// Number of scheduler invocations.
    pub sched_calls: u64,
    /// Engine event-loop iterations processed (deterministic; the
    /// denominator of event-throughput measurements).
    pub events_processed: u64,
    /// Jobs that completed (the per-job rate denominator — equals
    /// `records.len()` on materialized runs, where every record is
    /// retained).
    pub jobs_completed: u64,
    /// High-water mark of jobs simultaneously in the system.
    pub peak_live_jobs: u64,
    /// High-water mark of resident [`crate::state::JobStore`] entries
    /// (live set plus the completed prefix awaiting emission) — the
    /// memory bound a streamed run actually held.
    pub peak_resident_jobs: u64,
    /// Warm-start accounting reported by the scheduler, when it keeps
    /// any ([`Scheduler::repack_stats`](crate::Scheduler::repack_stats)).
    /// Observational only — never part of outcome fingerprints.
    pub repack: Option<crate::plan::RepackStats>,
    /// Per-invocation samples (populated when requested in `SimConfig`).
    pub decisions: Vec<DecisionSample>,
    /// Full allocation log (populated when `SimConfig::record_timeline`).
    pub timeline: crate::timeline::Timeline,
}

impl SimOutcome {
    /// Average storage bandwidth consumed by preemptions, GB/s over the
    /// makespan (Table II, "Bandwidth Consumption — pmtn").
    pub fn preemption_bandwidth_gbs(&self) -> f64 {
        if self.makespan > 0.0 {
            self.preemption_gb / self.makespan
        } else {
            0.0
        }
    }

    /// Average storage bandwidth consumed by migrations, GB/s (Table II).
    pub fn migration_bandwidth_gbs(&self) -> f64 {
        if self.makespan > 0.0 {
            self.migration_gb / self.makespan
        } else {
            0.0
        }
    }

    /// Preemptions per hour of simulated time (Table II).
    pub fn preemptions_per_hour(&self) -> f64 {
        if self.makespan > 0.0 {
            self.preemption_count as f64 / (self.makespan / 3600.0)
        } else {
            0.0
        }
    }

    /// Migrations per hour of simulated time (Table II).
    pub fn migrations_per_hour(&self) -> f64 {
        if self.makespan > 0.0 {
            self.migration_count as f64 / (self.makespan / 3600.0)
        } else {
            0.0
        }
    }

    /// Preemptions per job (Table II).
    pub fn preemptions_per_job(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.preemption_count as f64 / self.jobs_completed as f64
        }
    }

    /// Migrations per job (Table II).
    pub fn migrations_per_job(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.migration_count as f64 / self.jobs_completed as f64
        }
    }

    /// Mean fraction of the cluster out of service over the makespan
    /// (0 on a static cluster).
    pub fn mean_unavailability(&self, nodes: u32) -> f64 {
        if self.makespan > 0.0 && nodes > 0 {
            self.down_node_seconds / (self.makespan * nodes as f64)
        } else {
            0.0
        }
    }
}

/// Compute a job record from raw times.
#[allow(clippy::too_many_arguments)]
pub(crate) fn make_record(
    id: JobId,
    submit: f64,
    first_start: Option<f64>,
    completion: f64,
    dedicated: f64,
    preemptions: u32,
    migrations: u32,
    restarts: u32,
) -> JobRecord {
    let turnaround = completion - submit;
    JobRecord {
        id,
        submit,
        first_start,
        completion,
        dedicated,
        turnaround,
        stretch: bounded_stretch(turnaround, dedicated),
        preemptions,
        migrations,
        restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Outcome with aggregates folded the way the engine folds them
    /// online (same ops, same order).
    fn outcome_with(records: Vec<JobRecord>, makespan: f64) -> SimOutcome {
        let max_stretch = records.iter().map(|r| r.stretch).fold(0.0, f64::max);
        let mean_stretch = if records.is_empty() {
            0.0
        } else {
            records.iter().map(|r| r.stretch).sum::<f64>() / records.len() as f64
        };
        SimOutcome {
            jobs_completed: records.len() as u64,
            records,
            makespan,
            max_stretch,
            mean_stretch,
            ..SimOutcome::default()
        }
    }

    fn rec(stretch_inputs: (f64, f64)) -> JobRecord {
        let (turnaround, dedicated) = stretch_inputs;
        make_record(JobId(0), 0.0, Some(0.0), turnaround, dedicated, 0, 0, 0)
    }

    #[test]
    fn stretch_aggregates() {
        let o = outcome_with(vec![rec((100.0, 50.0)), rec((400.0, 50.0))], 400.0);
        assert!((o.max_stretch - 8.0).abs() < 1e-12);
        assert!((o.mean_stretch - 5.0).abs() < 1e-12);
    }

    #[test]
    fn table2_rates() {
        let mut o = outcome_with(vec![rec((100.0, 50.0)); 4], 7200.0);
        o.preemption_count = 8;
        o.migration_count = 2;
        o.preemption_gb = 72.0;
        assert!((o.preemptions_per_hour() - 4.0).abs() < 1e-12);
        assert!((o.migrations_per_hour() - 1.0).abs() < 1e-12);
        assert!((o.preemptions_per_job() - 2.0).abs() < 1e-12);
        assert!((o.preemption_bandwidth_gbs() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_outcome_is_all_zeros() {
        let o = outcome_with(vec![], 0.0);
        assert_eq!(o.max_stretch, 0.0);
        assert_eq!(o.mean_stretch, 0.0);
        assert_eq!(o.preemptions_per_hour(), 0.0);
        assert_eq!(o.migrations_per_job(), 0.0);
    }

    #[test]
    fn record_computes_bounded_stretch() {
        let r = make_record(JobId(3), 100.0, Some(150.0), 400.0, 10.0, 1, 2, 3);
        assert_eq!(r.turnaround, 300.0);
        assert!((r.stretch - 10.0).abs() < 1e-12); // max(300,30)/max(10,30)
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.migrations, 2);
        assert_eq!(r.restarts, 3);
    }

    #[test]
    fn availability_rates() {
        let mut o = outcome_with(vec![rec((100.0, 50.0)); 4], 1_000.0);
        o.restart_count = 2;
        o.down_node_seconds = 500.0;
        // 500 down node-seconds over 1000 s × 10 nodes = 5 %.
        assert!((o.mean_unavailability(10) - 0.05).abs() < 1e-12);
        assert_eq!(o.mean_unavailability(0), 0.0);
    }
}
