//! Job requests, as defined in Section II-B1 of the paper.
//!
//! A job consists of `tasks` identical parallel tasks. Each task has a
//! **CPU need** (fraction of a node's CPU it uses when running at full
//! speed in dedicated mode) and a **memory requirement** (fraction of a
//! node's memory, a hard constraint). All tasks of a job progress at the
//! same rate and are always given identical CPU fractions.
//!
//! `runtime` is the execution time the job would take on a dedicated
//! cluster with every task given its full CPU need. DFRS algorithms are
//! **non-clairvoyant** and must never read it; it exists so the simulator
//! can decide when jobs finish and so the clairvoyant batch baseline
//! (`EASY`) can use perfect estimates, exactly as in the paper's
//! methodology. Access is funneled through [`JobSpec::oracle_runtime`] to
//! make the clairvoyance grep-able.

use crate::approx;
use crate::error::CoreError;
use crate::ids::JobId;
use crate::resources::ResourceVec;

/// An immutable job request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Dense identifier within the trace (submission order).
    pub id: JobId,
    /// Submission time, seconds from trace start.
    pub submit_time: f64,
    /// Number of parallel tasks (≥ 1); one VM instance per task.
    pub tasks: u32,
    /// Per-task CPU need, fraction of one node's CPU in `(0, 1]`.
    pub cpu_need: f64,
    /// Per-task memory requirement, fraction of one node's memory in `(0, 1]`.
    pub mem_req: f64,
    /// Per-task GPU need, fraction of one node's GPU capacity in
    /// `[0, 1]`. Zero (the default — every constructor that predates the
    /// resource-vector model) means "no GPU demand" and reproduces the
    /// paper's two-resource model exactly. Like CPU, GPU is *fluid*:
    /// the allocation scales with the yield.
    pub gpu_need: f64,
    /// Dedicated-mode execution time in seconds (> 0). Oracle data — see
    /// the module docs.
    runtime: f64,
}

impl JobSpec {
    /// Validate and build a job spec.
    ///
    /// # Errors
    /// Returns [`CoreError`] if `tasks == 0`, a fraction is outside
    /// `(0, 1]`, a time is negative, or `runtime` is non-positive.
    pub fn new(
        id: JobId,
        submit_time: f64,
        tasks: u32,
        cpu_need: f64,
        mem_req: f64,
        runtime: f64,
    ) -> Result<Self, CoreError> {
        if tasks == 0 {
            return Err(CoreError::ZeroCount { what: "tasks" });
        }
        if !cpu_need.is_finite() || cpu_need <= 0.0 || !approx::le(cpu_need, 1.0) {
            return Err(CoreError::FractionOutOfRange {
                what: "cpu_need",
                value: cpu_need,
            });
        }
        if !mem_req.is_finite() || mem_req <= 0.0 || !approx::le(mem_req, 1.0) {
            return Err(CoreError::FractionOutOfRange {
                what: "mem_req",
                value: mem_req,
            });
        }
        if !submit_time.is_finite() || submit_time < 0.0 {
            return Err(CoreError::NonPositive {
                what: "submit_time",
                value: submit_time,
            });
        }
        if !runtime.is_finite() || runtime <= 0.0 {
            return Err(CoreError::NonPositive {
                what: "runtime",
                value: runtime,
            });
        }
        Ok(JobSpec {
            id,
            submit_time,
            tasks,
            cpu_need: cpu_need.min(1.0),
            mem_req: mem_req.min(1.0),
            gpu_need: 0.0,
            runtime,
        })
    }

    /// This job with a per-task GPU need attached (fraction of one
    /// node's GPU capacity in `[0, 1]`; zero removes the demand).
    ///
    /// # Errors
    /// Returns [`CoreError::FractionOutOfRange`] when `gpu_need` is
    /// negative, above 1, or not finite.
    pub fn with_gpu(mut self, gpu_need: f64) -> Result<Self, CoreError> {
        if !gpu_need.is_finite() || gpu_need < 0.0 || !approx::le(gpu_need, 1.0) {
            return Err(CoreError::FractionOutOfRange {
                what: "gpu_need",
                value: gpu_need,
            });
        }
        self.gpu_need = gpu_need.min(1.0);
        Ok(self)
    }

    /// Per-task demand across every modeled resource dimension.
    #[inline]
    pub fn resources(&self) -> ResourceVec {
        ResourceVec::new(self.cpu_need, self.mem_req, self.gpu_need)
    }

    /// The job's dominant *fluid* demand — `max(cpu_need, gpu_need)`,
    /// the denominator of the DRF dominant-share objective.
    #[inline]
    pub fn dominant_fluid_need(&self) -> f64 {
        self.resources().dominant_fluid()
    }

    /// The dedicated-mode execution time. **Clairvoyant accessor**: only
    /// the simulation engine (to detect completion) and the batch
    /// baselines (perfect estimates for EASY) may call this; DFRS
    /// algorithms must not.
    #[inline]
    pub fn oracle_runtime(&self) -> f64 {
        self.runtime
    }

    /// Total memory footprint in node-memory units (e.g. `2.5` means two
    /// and a half nodes' worth of memory).
    #[inline]
    pub fn total_mem(&self) -> f64 {
        self.mem_req * self.tasks as f64
    }

    /// Total work in CPU-need × seconds — used for offered-load
    /// computations: `tasks × runtime` node-seconds under the integral
    /// batch model.
    #[inline]
    pub fn node_seconds(&self) -> f64 {
        self.tasks as f64 * self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_job() -> JobSpec {
        JobSpec::new(JobId(0), 10.0, 4, 0.25, 0.1, 3600.0).unwrap()
    }

    #[test]
    fn valid_job_builds() {
        let j = ok_job();
        assert_eq!(j.tasks, 4);
        assert_eq!(j.oracle_runtime(), 3600.0);
    }

    #[test]
    fn zero_tasks_rejected() {
        assert!(matches!(
            JobSpec::new(JobId(0), 0.0, 0, 0.5, 0.5, 1.0),
            Err(CoreError::ZeroCount { .. })
        ));
    }

    #[test]
    fn cpu_need_out_of_range_rejected() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                JobSpec::new(JobId(0), 0.0, 1, bad, 0.5, 1.0).is_err(),
                "cpu {bad}"
            );
        }
    }

    #[test]
    fn mem_req_out_of_range_rejected() {
        for bad in [0.0, -0.1, 1.01, f64::NAN] {
            assert!(
                JobSpec::new(JobId(0), 0.0, 1, 0.5, bad, 1.0).is_err(),
                "mem {bad}"
            );
        }
    }

    #[test]
    fn negative_submit_time_rejected() {
        assert!(JobSpec::new(JobId(0), -1.0, 1, 0.5, 0.5, 1.0).is_err());
    }

    #[test]
    fn non_positive_runtime_rejected() {
        assert!(JobSpec::new(JobId(0), 0.0, 1, 0.5, 0.5, 0.0).is_err());
        assert!(JobSpec::new(JobId(0), 0.0, 1, 0.5, 0.5, -3.0).is_err());
    }

    #[test]
    fn cpu_need_exactly_one_is_allowed() {
        let j = JobSpec::new(JobId(1), 0.0, 2, 1.0, 1.0, 60.0).unwrap();
        assert_eq!(j.cpu_need, 1.0);
        assert_eq!(j.mem_req, 1.0);
    }

    #[test]
    fn totals_scale_with_tasks() {
        let j = ok_job();
        assert!((j.total_mem() - 0.4).abs() < 1e-12);
        assert!((j.node_seconds() - 4.0 * 3600.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_defaults_to_zero_and_validates() {
        let j = ok_job();
        assert_eq!(j.gpu_need, 0.0);
        let g = j.with_gpu(0.75).unwrap();
        assert_eq!(g.gpu_need, 0.75);
        assert_eq!(g.resources().0, [0.25, 0.1, 0.75]);
        assert_eq!(g.dominant_fluid_need(), 0.75);
        assert_eq!(j.dominant_fluid_need(), 0.25, "no GPU: CPU dominates");
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(ok_job().with_gpu(bad).is_err(), "gpu {bad}");
        }
        assert_eq!(ok_job().with_gpu(0.0).unwrap().gpu_need, 0.0);
    }
}
