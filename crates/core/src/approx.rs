//! Tolerant floating-point comparisons.
//!
//! The simulator integrates yields over time and the packer sums many
//! small fractions; both accumulate rounding error. Every capacity check
//! in the workspace goes through these helpers so the tolerance is uniform
//! and auditable.

/// Absolute tolerance used for resource-capacity comparisons.
///
/// Resource fractions are O(1) and at most a few hundred terms are summed
/// per node, so 1e-9 is comfortably above accumulated f64 error while
/// remaining far below the paper's own 0.01 yield-search accuracy.
pub const EPS: f64 = 1e-9;

/// `a <= b`, tolerating `EPS` of overshoot.
#[inline]
pub fn le(a: f64, b: f64) -> bool {
    a <= b + EPS
}

/// `a >= b`, tolerating `EPS` of undershoot.
#[inline]
pub fn ge(a: f64, b: f64) -> bool {
    a + EPS >= b
}

/// `a == b` within `EPS`.
#[inline]
pub fn eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Strictly positive beyond tolerance.
#[inline]
pub fn pos(a: f64) -> bool {
    a > EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_tolerates_tiny_overshoot() {
        assert!(le(1.0 + 1e-12, 1.0));
        assert!(!le(1.0 + 1e-6, 1.0));
    }

    #[test]
    fn ge_tolerates_tiny_undershoot() {
        assert!(ge(1.0 - 1e-12, 1.0));
        assert!(!ge(0.9999, 1.0));
    }

    #[test]
    fn eq_is_symmetric() {
        assert!(eq(0.3, 0.1 + 0.2));
        assert!(eq(0.1 + 0.2, 0.3));
        assert!(!eq(0.3, 0.301));
    }

    #[test]
    fn pos_rejects_noise() {
        assert!(!pos(1e-12));
        assert!(pos(1e-6));
    }
}
