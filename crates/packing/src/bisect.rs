//! The one bisection loop behind the yield, dominant-share and
//! estimated-stretch searches.
//!
//! Each search looks, along one scalar target, for the end of the
//! feasible range nearest an `ideal` value: the largest packable yield
//! or share below 1, the smallest packable stretch bound above the
//! all-at-full-speed one. Feasibility is "the packer finds a packing",
//! which the searches treat as monotone between the two ends.

/// Probe `ideal` and stop there if it is feasible; probe `floor` and
/// give up (`None`) if even that is not; otherwise halve the bracket
/// between the feasible end (starting at `floor`) and the infeasible
/// end (starting at `ideal`) while `gap_open(feasible, infeasible)`.
///
/// Returns the final feasible end and, unless `ideal` itself was
/// feasible, the final infeasible end. `probe` is called once per
/// target, in exactly this order, so whatever it records about its
/// last feasible call belongs to the returned feasible end.
///
/// The midpoint is half the sum of the two ends, whichever of them is
/// the larger: IEEE addition commutes, so maximizing and minimizing
/// searches bisect through the same code bit for bit.
pub(crate) fn bisect(
    ideal: f64,
    floor: f64,
    gap_open: impl Fn(f64, f64) -> bool,
    mut probe: impl FnMut(f64) -> bool,
) -> Option<(f64, Option<f64>)> {
    if probe(ideal) {
        return Some((ideal, None));
    }
    if !probe(floor) {
        return None;
    }
    let (mut feasible, mut infeasible) = (floor, ideal);
    while gap_open(feasible, infeasible) {
        let mid = 0.5 * (feasible + infeasible);
        if probe(mid) {
            feasible = mid;
        } else {
            infeasible = mid;
        }
    }
    Some((feasible, Some(infeasible)))
}

#[cfg(test)]
mod tests {
    use super::bisect;

    /// Feasible iff `x <= limit`; records every probed target.
    fn run(limit: f64, ideal: f64, floor: f64) -> (Option<(f64, Option<f64>)>, Vec<f64>) {
        let mut seen = Vec::new();
        let out = bisect(
            ideal,
            floor,
            |ok, bad| (bad - ok).abs() > 0.01,
            |x| {
                seen.push(x);
                x <= limit
            },
        );
        (out, seen)
    }

    #[test]
    fn feasible_ideal_is_one_probe() {
        let (out, seen) = run(2.0, 1.0, 0.01);
        assert_eq!(out, Some((1.0, None)));
        assert_eq!(seen, [1.0]);
    }

    #[test]
    fn infeasible_floor_is_two_probes_and_none() {
        let (out, seen) = run(0.001, 1.0, 0.01);
        assert_eq!(out, None);
        assert_eq!(seen, [1.0, 0.01]);
    }

    #[test]
    fn bracket_closes_around_the_limit() {
        let (out, seen) = run(0.3, 1.0, 0.01);
        let (ok, bad) = out.unwrap();
        let bad = bad.unwrap();
        assert!(ok <= 0.3 && 0.3 < bad && bad - ok <= 0.01);
        assert_eq!(seen[..3], [1.0, 0.01, 0.505]);
        assert_eq!(seen.len(), 2 + 7, "0.99 halves to under 0.01 in 7 steps");
    }

    #[test]
    fn a_minimizing_search_mirrors_a_maximizing_one() {
        // Feasible iff x >= 4: ideal below floor.
        let mut seen = Vec::new();
        let out = bisect(
            1.0,
            9.0,
            |ok, bad| ok - bad > 0.5,
            |x| {
                seen.push(x);
                x >= 4.0
            },
        );
        assert_eq!(out, Some((4.0, Some(3.5))));
        assert_eq!(seen, [1.0, 9.0, 5.0, 3.0, 4.0, 3.5]);
    }
}
