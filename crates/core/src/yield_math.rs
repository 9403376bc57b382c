//! Yield arithmetic (Section II-B2).
//!
//! The **yield** of a task is the CPU fraction allocated to it divided by
//! its CPU need; since all tasks of a job get identical fractions, it is
//! also the yield of the job. A yield of 1 means "running as fast as in
//! dedicated mode"; the job's virtual time advances at `yield` seconds per
//! second. The yield is the inverse of an instantaneous stretch.

use crate::approx;

/// The base equal-share yield used by the greedy algorithms:
/// `1 / max(1, Λ)`, where `Λ` is the maximum CPU load (sum of CPU needs)
/// over all nodes. This maximizes the minimum yield for a *fixed*
/// task-to-node mapping.
#[inline]
pub fn equal_share_yield(max_cpu_load: f64) -> f64 {
    debug_assert!(max_cpu_load >= 0.0);
    1.0 / max_cpu_load.max(1.0)
}

/// Largest yield increase a single node can grant a job: `slack / need`,
/// where `need` is the job's total CPU need on that node.
#[inline]
pub fn max_yield_increase(node_cpu_slack: f64, job_need_on_node: f64) -> f64 {
    debug_assert!(job_need_on_node > 0.0);
    (node_cpu_slack / job_need_on_node).max(0.0)
}

/// The estimated-stretch recurrence of `DYNMCB8-STRETCH-PER`
/// (Section III-B): assuming a job keeps yield `y` for the next period
/// `t`, its estimated stretch at the next event is
/// `(flow + t) / (vt + y·t)`.
#[inline]
pub fn estimated_stretch_after(flow_time: f64, virtual_time: f64, yld: f64, period: f64) -> f64 {
    debug_assert!(period > 0.0);
    (flow_time + period) / (virtual_time + yld * period)
}

/// Invert the recurrence: the yield needed over the next period `t` for
/// the job's estimated stretch to reach `target` — may be negative (target
/// unreachable slowly) or above 1 (target unreachable at all); callers
/// clamp per the paper (non-positive → 0.01 floor, above 1 → 1).
#[inline]
pub fn yield_for_target_stretch(
    flow_time: f64,
    virtual_time: f64,
    target: f64,
    period: f64,
) -> f64 {
    debug_assert!(target > 0.0);
    debug_assert!(period > 0.0);
    ((flow_time + period) / target - virtual_time) / period
}

/// A job's **dominant share** under DRF: the fraction of the cluster's
/// scarcest (for this job) fluid resource it is allocated. With yield
/// `y` and dominant fluid need `d = max(cpu_need, gpu_need)`, every
/// fluid allocation is `need·y`, so the dominant share is simply `d·y`.
/// Memory is rigid and enters only through packing feasibility.
#[inline]
pub fn dominant_share(dominant_fluid_need: f64, yld: f64) -> f64 {
    debug_assert!(dominant_fluid_need >= 0.0);
    debug_assert!((0.0..=1.0 + approx::EPS).contains(&yld), "yield {yld}");
    dominant_fluid_need * yld
}

/// Invert [`dominant_share`]: the yield that grants a job dominant
/// share `s`, clamped into `[0, 1]` (a share at or above the job's
/// dominant need means full speed — yield never exceeds 1).
#[inline]
pub fn yield_for_dominant_share(dominant_fluid_need: f64, share: f64) -> f64 {
    debug_assert!(share >= 0.0);
    if dominant_fluid_need <= 0.0 {
        return 1.0; // no fluid demand: the job runs at full speed free
    }
    (share / dominant_fluid_need).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_share_is_one_when_underloaded() {
        assert_eq!(equal_share_yield(0.0), 1.0);
        assert_eq!(equal_share_yield(0.7), 1.0);
        assert_eq!(equal_share_yield(1.0), 1.0);
    }

    #[test]
    fn equal_share_shrinks_with_overload() {
        assert!((equal_share_yield(2.0) - 0.5).abs() < 1e-12);
        assert!((equal_share_yield(4.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stretch_recurrence_round_trips() {
        let (flow, vt, period) = (1000.0, 400.0, 600.0);
        for y in [0.01, 0.3, 0.77, 1.0] {
            let s = estimated_stretch_after(flow, vt, y, period);
            let back = yield_for_target_stretch(flow, vt, s, period);
            assert!((back - y).abs() < 1e-9, "y={y} back={back}");
        }
    }

    #[test]
    fn unreachable_target_gives_out_of_range_yield() {
        // Target stretch 1 immediately after a long wait needs y > 1.
        let y = yield_for_target_stretch(10_000.0, 0.0, 1.0, 600.0);
        assert!(y > 1.0);
        // A very lax target needs a negative yield (already better).
        let y = yield_for_target_stretch(100.0, 5_000.0, 10.0, 600.0);
        assert!(y < 0.0);
    }

    #[test]
    fn dominant_share_round_trips_through_yield() {
        for d in [0.05, 0.4, 1.0] {
            for y in [0.01, 0.5, 1.0] {
                let s = dominant_share(d, y);
                let back = yield_for_dominant_share(d, s);
                assert!((back - y).abs() < 1e-12, "d={d} y={y} back={back}");
            }
        }
        // Shares above the need clamp the yield at 1.
        assert_eq!(yield_for_dominant_share(0.5, 2.0), 1.0);
        // Degenerate zero-demand jobs run at full speed.
        assert_eq!(yield_for_dominant_share(0.0, 0.3), 1.0);
    }

    #[test]
    fn max_increase_never_negative() {
        assert_eq!(max_yield_increase(-0.1, 0.5), 0.0);
        assert!((max_yield_increase(0.25, 0.5) - 0.5).abs() < 1e-12);
    }
}
