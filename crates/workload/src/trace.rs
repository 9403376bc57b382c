//! Traces: ordered job collections bound to a cluster, with offered-load
//! computation, inter-arrival scaling, and weekly splitting.
//!
//! **Offered load** (Section IV-C, following Batat & Feitelson) is the
//! ratio of the work submitted to the capacity offered over the
//! submission window:
//!
//! ```text
//! load = Σ_j tasks_j · runtime_j  /  (nodes · span)
//! ```
//!
//! where `span` is the time between the first and last submissions.
//! Multiplying every inter-arrival gap by a constant `k` multiplies the
//! span by `k` and therefore divides the load by `k`, which is how the
//! paper turns 100 base traces into 900 traces with loads 0.1–0.9.

use dfrs_core::ids::JobId;
use dfrs_core::{ClusterSpec, CoreError, JobSpec};

/// Seconds in a week (HPC2N segment length).
pub const WEEK_SECS: f64 = 7.0 * 24.0 * 3600.0;

/// An immutable trace: jobs sorted by submission time with dense ids,
/// plus the cluster they target.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The cluster the trace was generated for.
    pub cluster: ClusterSpec,
    jobs: Vec<JobSpec>,
}

impl Trace {
    /// Build a trace. Jobs are sorted by submission time (stable, so
    /// equal-time jobs keep their given order) and re-assigned dense ids.
    ///
    /// # Errors
    /// Rejects jobs with more tasks than any feasible allocation could
    /// host (`tasks > nodes` would make batch stretch infinite and DFRS
    /// memory-infeasible whenever `tasks × mem > nodes`).
    pub fn new(cluster: ClusterSpec, mut jobs: Vec<JobSpec>) -> Result<Self, CoreError> {
        for j in &jobs {
            if j.tasks > cluster.nodes {
                return Err(CoreError::Infeasible {
                    reason: format!(
                        "job {} has {} tasks but the cluster has {} nodes",
                        j.id, j.tasks, cluster.nodes
                    ),
                });
            }
        }
        jobs.sort_by(|a, b| a.submit_time.total_cmp(&b.submit_time));
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, j)| {
                JobSpec::new(
                    JobId(i as u32),
                    j.submit_time,
                    j.tasks,
                    j.cpu_need,
                    j.mem_req,
                    j.oracle_runtime(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { cluster, jobs })
    }

    /// The jobs, sorted by submission time.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Submission window: last submit − first submit (0 for ≤ 1 job).
    pub fn span(&self) -> f64 {
        match (self.jobs.first(), self.jobs.last()) {
            (Some(f), Some(l)) => l.submit_time - f.submit_time,
            _ => 0.0,
        }
    }

    /// Total work: `Σ tasks · runtime` in node-seconds.
    pub fn total_node_seconds(&self) -> f64 {
        self.jobs.iter().map(JobSpec::node_seconds).sum()
    }

    /// Offered load (see module docs). For degenerate traces whose
    /// submissions all coincide (span 0), the longest runtime serves as
    /// the window instead.
    pub fn offered_load(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let mut span = self.span();
        if span <= 0.0 {
            span = self
                .jobs
                .iter()
                .map(|j| j.oracle_runtime())
                .fold(0.0, f64::max);
        }
        self.total_node_seconds() / (self.cluster.nodes as f64 * span)
    }

    /// A copy with every inter-arrival gap multiplied by `factor`
    /// (every field but the submission time untouched, GPU demand
    /// included; first submission preserved).
    pub fn scale_interarrival(&self, factor: f64) -> Result<Trace, CoreError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(CoreError::NonPositive {
                what: "scale factor",
                value: factor,
            });
        }
        let Some(first) = self.jobs.first() else {
            return Ok(self.clone());
        };
        let t0 = first.submit_time;
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                JobSpec::new(
                    j.id,
                    t0 + (j.submit_time - t0) * factor,
                    j.tasks,
                    j.cpu_need,
                    j.mem_req,
                    j.oracle_runtime(),
                )?
                .with_gpu(j.gpu_need)
            })
            .collect::<Result<Vec<_>, _>>()?;
        // A positive factor keeps the submission order and the ids
        // dense, so this is already the trace `Trace::new` would build,
        // minus its rebuild of every spec.
        Ok(Trace {
            cluster: self.cluster,
            jobs,
        })
    }

    /// A copy rescaled so its offered load equals `target` (paper:
    /// targets 0.1–0.9 in steps of 0.1).
    pub fn scale_to_load(&self, target: f64) -> Result<Trace, CoreError> {
        if !target.is_finite() || target <= 0.0 {
            return Err(CoreError::NonPositive {
                what: "target load",
                value: target,
            });
        }
        let current = self.offered_load();
        if current == 0.0 {
            return Err(CoreError::Infeasible {
                reason: "cannot rescale an empty or zero-work trace".into(),
            });
        }
        self.scale_interarrival(current / target)
    }

    /// Split into consecutive one-week segments by submission time, each
    /// re-based to start at 0 (the paper cuts HPC2N into 182 such
    /// segments). Empty weeks are dropped.
    pub fn split_weeks(&self) -> Vec<Trace> {
        self.split_windows(WEEK_SECS)
    }

    /// Split into `window`-second segments (see [`Trace::split_weeks`]).
    pub fn split_windows(&self, window: f64) -> Vec<Trace> {
        assert!(window > 0.0);
        let mut out = Vec::new();
        let mut current: Vec<JobSpec> = Vec::new();
        let mut window_idx = 0u64;
        for j in &self.jobs {
            let idx = (j.submit_time / window).floor() as u64;
            if idx != window_idx && !current.is_empty() {
                out.push(Trace::new(self.cluster, std::mem::take(&mut current)).expect("subset"));
            }
            window_idx = idx;
            let base = idx as f64 * window;
            current.push(
                JobSpec::new(
                    j.id,
                    j.submit_time - base,
                    j.tasks,
                    j.cpu_need,
                    j.mem_req,
                    j.oracle_runtime(),
                )
                .expect("re-based job stays valid"),
            );
        }
        if !current.is_empty() {
            out.push(Trace::new(self.cluster, current).expect("subset"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, submit: f64, tasks: u32, runtime: f64) -> JobSpec {
        JobSpec::new(JobId(id), submit, tasks, 1.0, 0.1, runtime).unwrap()
    }

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(4, 4, 8.0).unwrap()
    }

    #[test]
    fn new_sorts_and_reindexes() {
        let t = Trace::new(
            cluster(),
            vec![
                job(0, 50.0, 1, 10.0),
                job(1, 10.0, 2, 10.0),
                job(2, 30.0, 1, 10.0),
            ],
        )
        .unwrap();
        let submits: Vec<f64> = t.jobs().iter().map(|j| j.submit_time).collect();
        assert_eq!(submits, vec![10.0, 30.0, 50.0]);
        let ids: Vec<u32> = t.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn oversized_job_rejected() {
        let r = Trace::new(cluster(), vec![job(0, 0.0, 5, 10.0)]);
        assert!(matches!(r, Err(CoreError::Infeasible { .. })));
    }

    #[test]
    fn offered_load_formula() {
        // Two jobs: 2×100 + 1×100 node-seconds = 300 over 4 nodes × 100 s.
        let t = Trace::new(
            cluster(),
            vec![job(0, 0.0, 2, 100.0), job(1, 100.0, 1, 100.0)],
        )
        .unwrap();
        assert!((t.offered_load() - 300.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn offered_load_single_job_uses_runtime_window() {
        let t = Trace::new(cluster(), vec![job(0, 0.0, 2, 50.0)]).unwrap();
        // span = 0 → window = runtime 50; load = 100/(4×50) = 0.5.
        assert!((t.offered_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scale_interarrival_scales_span_linearly() {
        let t = Trace::new(
            cluster(),
            vec![
                job(0, 10.0, 1, 5.0),
                job(1, 20.0, 1, 5.0),
                job(2, 40.0, 1, 5.0),
            ],
        )
        .unwrap();
        let s = t.scale_interarrival(3.0).unwrap();
        assert_eq!(s.jobs()[0].submit_time, 10.0);
        assert_eq!(s.jobs()[1].submit_time, 40.0);
        assert_eq!(s.jobs()[2].submit_time, 100.0);
        assert!((s.span() - 3.0 * t.span()).abs() < 1e-9);
    }

    #[test]
    fn scale_interarrival_keeps_every_field_but_the_submit_time() {
        let mut gpu = Trace::new(
            cluster(),
            vec![
                job(0, 10.0, 2, 5.0),
                job(1, 20.0, 1, 7.0),
                job(2, 40.0, 3, 9.0),
            ],
        )
        .unwrap();
        // `Trace::new` rebuilds every spec without its GPU demand, so
        // annotate the built trace's jobs in place.
        gpu.jobs[0] = gpu.jobs[0].with_gpu(0.25).unwrap();
        gpu.jobs[2] = gpu.jobs[2].with_gpu(1.0).unwrap();
        let scaled = gpu.scale_interarrival(2.0).unwrap();
        assert_eq!(scaled.cluster, gpu.cluster);
        for (before, after) in gpu.jobs().iter().zip(scaled.jobs()) {
            let mut expected = *before;
            expected.submit_time = after.submit_time;
            assert_eq!(*after, expected);
        }
        let submits: Vec<f64> = scaled.jobs().iter().map(|j| j.submit_time).collect();
        assert_eq!(submits, [10.0, 30.0, 70.0]);
    }

    #[test]
    fn scale_to_load_hits_target() {
        let jobs: Vec<JobSpec> = (0..50)
            .map(|i| job(i, i as f64 * 60.0, 1 + (i % 4), 400.0))
            .collect();
        let t = Trace::new(cluster(), jobs).unwrap();
        for target in [0.1, 0.5, 0.9] {
            let s = t.scale_to_load(target).unwrap();
            assert!(
                (s.offered_load() - target).abs() < 1e-9,
                "target {target} got {}",
                s.offered_load()
            );
        }
    }

    #[test]
    fn scale_rejects_bad_factors() {
        let t = Trace::new(cluster(), vec![job(0, 0.0, 1, 5.0)]).unwrap();
        assert!(t.scale_interarrival(0.0).is_err());
        assert!(t.scale_interarrival(-2.0).is_err());
        assert!(t.scale_to_load(0.0).is_err());
    }

    #[test]
    fn split_weeks_rebases_each_segment() {
        let jobs = vec![
            job(0, 100.0, 1, 5.0),
            job(1, WEEK_SECS + 50.0, 1, 5.0),
            job(2, WEEK_SECS + 60.0, 1, 5.0),
            job(3, 3.0 * WEEK_SECS + 1.0, 1, 5.0),
        ];
        let t = Trace::new(cluster(), jobs).unwrap();
        let weeks = t.split_weeks();
        assert_eq!(weeks.len(), 3, "empty week dropped");
        assert_eq!(weeks[0].len(), 1);
        assert_eq!(weeks[1].len(), 2);
        assert_eq!(weeks[1].jobs()[0].submit_time, 50.0);
        assert_eq!(weeks[2].jobs()[0].submit_time, 1.0);
    }

    #[test]
    fn empty_trace_behaves() {
        let t = Trace::new(cluster(), vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.offered_load(), 0.0);
        assert_eq!(t.span(), 0.0);
        assert!(t.split_weeks().is_empty());
        assert!(t.scale_to_load(0.5).is_err());
    }

    #[test]
    fn stable_sort_keeps_equal_time_order() {
        let t = Trace::new(
            cluster(),
            vec![
                job(7, 10.0, 1, 1.0),
                job(8, 10.0, 2, 1.0),
                job(9, 10.0, 3, 1.0),
            ],
        )
        .unwrap();
        let tasks: Vec<u32> = t.jobs().iter().map(|j| j.tasks).collect();
        assert_eq!(tasks, vec![1, 2, 3]);
    }
}
