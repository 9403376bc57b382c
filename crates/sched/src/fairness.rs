//! **Extension beyond the paper** (its Conclusion sketches it as future
//! work): *"a strategy for reducing the yield of long running jobs as a
//! way to improve fairness and further decrease maximum stretch …
//! inspired by thread scheduling in operating systems kernels."*
//!
//! [`DynMcb8FairPer`] is `DYNMCB8-PER` with a **long-job damping** pass
//! replacing the plain average-yield improvement:
//!
//! 1. the usual eviction loop + yield binary search produce a uniform
//!    feasible yield `Y` and placements;
//! 2. jobs whose virtual time exceeds `vt_threshold` get their yield
//!    *reduced* to `max(floor, Y · (threshold / vt)^alpha)` — reductions
//!    are always feasible;
//! 3. the freed CPU is redistributed by the average-yield improvement
//!    restricted to the *young* jobs first, then offered to everyone.
//!
//! With `alpha = 0` this degenerates exactly to `DYNMCB8-PER`. The
//! default `threshold = 3600 s`, `alpha = 0.5` mirrors multi-level
//! feedback queues: a job that has run 4 hours cedes half its share.

use dfrs_core::approx;
use dfrs_core::constants::{DEFAULT_PERIOD_SECS, MIN_STRETCH_PER_YIELD};
use dfrs_sim::{Plan, SchedEvent, Scheduler, SimState};

use crate::common::AllocSet;
use crate::dynmcb8::{packed_allocation, PackedAllocation, PackerChoice, RepackScratch};

/// Periodic repacker with long-job yield damping (see module docs).
#[derive(Debug)]
pub struct DynMcb8FairPer {
    period: f64,
    /// Virtual time (seconds) beyond which a job is considered
    /// long-running.
    pub vt_threshold: f64,
    /// Damping strength; 0 disables damping.
    pub alpha: f64,
    packer: PackerChoice,
    scratch: RepackScratch,
}

impl DynMcb8FairPer {
    /// Paper-default period with the default damping (τ = 1 h, α = ½).
    pub fn new() -> Self {
        Self::with_params(DEFAULT_PERIOD_SECS, 3_600.0, 0.5)
    }

    /// Fully parameterized constructor.
    pub fn with_params(period: f64, vt_threshold: f64, alpha: f64) -> Self {
        assert!(period > 0.0 && vt_threshold > 0.0 && alpha >= 0.0);
        DynMcb8FairPer {
            period,
            vt_threshold,
            alpha,
            packer: PackerChoice::Mcb8,
            scratch: RepackScratch::default(),
        }
    }

    /// The damped yield of a job with virtual time `vt`, given base `y`.
    fn damped(&self, y: f64, vt: f64) -> f64 {
        if self.alpha == 0.0 || vt <= self.vt_threshold {
            return y;
        }
        (y * (self.vt_threshold / vt).powf(self.alpha))
            .max(MIN_STRETCH_PER_YIELD)
            .min(y)
    }

    fn repack(&mut self, state: &SimState) -> Plan {
        let PackedAllocation {
            yield_, mut plan, ..
        } = packed_allocation(state, self.packer.packer(), &mut self.scratch);
        let nodes = state.cluster.nodes().len();

        // Base yields: uniform Y, damped for long-running jobs.
        for (id, _, yld) in plan.runs_mut() {
            *yld = self.damped(yield_, state.job(id).virtual_time);
        }

        // Redistribute, unless every job is long-running.
        let any_young = plan
            .runs_mut()
            .any(|(id, ..)| state.job(id).virtual_time <= self.vt_threshold);
        if any_young {
            // Feasible head-room for young jobs: account the damped
            // allocation of long jobs as background load by lowering the
            // improvement's starting point appropriately. We approximate
            // by running the improvement on the *full* set with the
            // damped yields as the floor; AllocSet starts from a uniform
            // base, so use the smallest damped yield as base and then
            // re-damp long jobs afterwards (reductions stay feasible).
            let mut set_all = AllocSet::new();
            for (id, placement, _) in plan.runs_mut() {
                let spec = &state.job(id).spec;
                set_all.push(id, spec.cpu_need, spec.gpu_need, placement);
            }
            let improved = set_all.optimized_yields(yield_);
            for ((id, _, yld), (_, y)) in plan.runs_mut().zip(improved) {
                let vt = state.job(id).virtual_time;
                *yld = self.damped(y, vt).max(yld.min(y));
            }
        }

        // Final GPU feasibility pass: the damped base path above never
        // ran through `AllocSet`'s clamp, so clamp the assembled
        // assignments here (a no-op on GPU-free workloads, and on
        // yields the improvement path already clamped).
        crate::common::gpu_clamp_assignments(nodes, |id| state.job(id).spec.gpu_need, &mut plan);
        for (_, _, yld) in plan.runs_mut() {
            debug_assert!(*yld > 0.0 && *yld <= 1.0 + approx::EPS);
            *yld = yld.min(1.0);
        }
        plan
    }
}

impl Default for DynMcb8FairPer {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for DynMcb8FairPer {
    fn name(&self) -> String {
        format!(
            "DynMCB8-fair-per {} (τ={}, α={})",
            self.period, self.vt_threshold, self.alpha
        )
    }
    fn period(&self) -> Option<f64> {
        Some(self.period)
    }
    fn on_event(&mut self, ev: SchedEvent, state: &SimState) -> Plan {
        self.scratch.observe_epoch(state.change_epoch());
        match ev {
            SchedEvent::Tick => self.repack(state),
            // Periodic semantics: failure victims wait for the next
            // tick (see `DynMcb8Per`).
            _ => Plan::noop(),
        }
    }
    fn repack_stats(&self) -> Option<dfrs_sim::RepackStats> {
        Some(self.scratch.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfrs_core::ids::JobId;
    use dfrs_core::{ClusterSpec, JobSpec};
    use dfrs_sim::{simulate, SimConfig};

    fn cfg() -> SimConfig {
        SimConfig {
            validate: true,
            ..SimConfig::default()
        }
    }

    fn job(id: u32, submit: f64, tasks: u32, cpu: f64, mem: f64, rt: f64) -> JobSpec {
        JobSpec::new(JobId(id), submit, tasks, cpu, mem, rt).unwrap()
    }

    #[test]
    fn damping_formula() {
        let s = DynMcb8FairPer::with_params(600.0, 100.0, 0.5);
        assert_eq!(s.damped(1.0, 50.0), 1.0, "young jobs undamped");
        assert!(
            (s.damped(1.0, 400.0) - 0.5).abs() < 1e-12,
            "(100/400)^0.5 = 0.5"
        );
        assert!(s.damped(1.0, 1e12) >= MIN_STRETCH_PER_YIELD, "floored");
        let off = DynMcb8FairPer::with_params(600.0, 100.0, 0.0);
        assert_eq!(off.damped(0.7, 1e9), 0.7, "alpha 0 disables damping");
    }

    #[test]
    fn simulates_cleanly_and_all_jobs_finish() {
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.3, 20_000.0),
            job(1, 100.0, 1, 1.0, 0.3, 8_000.0),
            job(2, 7_000.0, 1, 1.0, 0.3, 400.0),
        ];
        let out = simulate(cluster, &jobs, &mut DynMcb8FairPer::new(), &cfg());
        assert_eq!(out.records.len(), 3);
        assert!(out.max_stretch >= 1.0);
    }

    #[test]
    fn damping_favors_the_late_short_job() {
        // One node; a long job has been running for hours when a short
        // job arrives: under fairness damping the short job should see a
        // better stretch than under the plain periodic repacker.
        let cluster = ClusterSpec::new(1, 4, 8.0).unwrap();
        let jobs = vec![
            job(0, 0.0, 1, 1.0, 0.3, 40_000.0),
            job(1, 20_000.0, 1, 1.0, 0.3, 1_000.0),
        ];
        let fair = simulate(
            cluster,
            &jobs,
            &mut DynMcb8FairPer::with_params(600.0, 1_800.0, 1.0),
            &cfg(),
        );
        let plain = simulate(
            cluster,
            &jobs,
            &mut crate::dynmcb8::DynMcb8Per::with_period(600.0),
            &cfg(),
        );
        let s_fair = fair.records[1].stretch;
        let s_plain = plain.records[1].stretch;
        assert!(
            s_fair < s_plain + 1e-9,
            "short job: fair {s_fair} vs plain {s_plain}"
        );
    }

    #[test]
    fn zero_alpha_matches_plain_periodic() {
        let cluster = ClusterSpec::new(2, 4, 8.0).unwrap();
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| job(i, i as f64 * 500.0, 1 + i % 2, 1.0, 0.3, 2_000.0))
            .collect();
        let a = simulate(
            cluster,
            &jobs,
            &mut DynMcb8FairPer::with_params(600.0, 3_600.0, 0.0),
            &cfg(),
        );
        let b = simulate(
            cluster,
            &jobs,
            &mut crate::dynmcb8::DynMcb8Per::with_period(600.0),
            &cfg(),
        );
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert!((ra.completion - rb.completion).abs() < 1e-6);
        }
    }
}
