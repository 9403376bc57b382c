//! **Extension beyond the paper** (its Conclusion sketches it as future
//! work): *"a strategy for reducing the yield of long running jobs as a
//! way to improve fairness and further decrease maximum stretch …
//! inspired by thread scheduling in operating systems kernels."*
//!
//! `dynmcb8-fair-per` is `DYNMCB8-PER` with the [`LongJobDamping`]
//! objective: a **long-job damping** pass replacing the plain
//! average-yield improvement:
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
//! registry's defaults, `vt-threshold = 1800 s` and `alpha = 1`, mirror
//! multi-level feedback queues: a job that has run an hour cedes half
//! its share.

use dfrs_core::approx;
use dfrs_core::constants::MIN_STRETCH_PER_YIELD;
use dfrs_sim::{Plan, RepackStats, SimState};

use crate::common::AllocSet;
use crate::dynmcb8::{MaxMinYield, Objective};
use crate::evict::EvictionFront;

/// Max-min yield with long-job damping (see module docs).
#[derive(Debug)]
pub(crate) struct LongJobDamping {
    base: MaxMinYield,
    /// Virtual time (seconds) beyond which a job is considered
    /// long-running.
    vt_threshold: f64,
    /// Damping strength; 0 disables damping.
    alpha: f64,
}

impl LongJobDamping {
    pub(crate) fn new(vt_threshold: f64, alpha: f64) -> Self {
        LongJobDamping {
            base: MaxMinYield::default(),
            vt_threshold,
            alpha,
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
}

impl Objective for LongJobDamping {
    /// Damping reads virtual times.
    const TIME_FREE: bool = false;

    fn name_parts(&self) -> (&'static str, String) {
        let suffix = format!(" (τ={}, α={})", self.vt_threshold, self.alpha);
        ("-fair", suffix)
    }

    fn repack(&mut self, front: &mut EvictionFront, state: &SimState) -> Plan {
        let (yield_, mut plan) = self.base.pack(front, state);
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
            for ((id, _, yld), &y) in plan.runs_mut().zip(improved) {
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

    fn stats(&self) -> RepackStats {
        self.base.stats()
    }

    fn forget_run(&mut self) {
        self.base.forget_run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynmcb8::build;
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
        let s = LongJobDamping::new(100.0, 0.5);
        assert_eq!(s.damped(1.0, 50.0), 1.0, "young jobs undamped");
        assert!(
            (s.damped(1.0, 400.0) - 0.5).abs() < 1e-12,
            "(100/400)^0.5 = 0.5"
        );
        assert!(s.damped(1.0, 1e12) >= MIN_STRETCH_PER_YIELD, "floored");
        let off = LongJobDamping::new(100.0, 0.0);
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
        let out = simulate(
            cluster,
            &jobs,
            build("dynmcb8-fair-per:vt-threshold=3600,alpha=0.5").as_mut(),
            &cfg(),
        );
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
            build("dynmcb8-fair-per:t=600,vt-threshold=1800,alpha=1").as_mut(),
            &cfg(),
        );
        let plain = simulate(cluster, &jobs, build("dynmcb8-per:t=600").as_mut(), &cfg());
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
            build("dynmcb8-fair-per:t=600,vt-threshold=3600,alpha=0").as_mut(),
            &cfg(),
        );
        let b = simulate(cluster, &jobs, build("dynmcb8-per:t=600").as_mut(), &cfg());
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert!((ra.completion - rb.completion).abs() < 1e-6);
        }
    }
}
