//! The paper's fixed algorithm sets as registry spec strings.
//!
//! Every scheduler is named by a [`crate::SchedulerSpec`] and built
//! through the [`crate::SchedulerRegistry`]; these lists are the bare
//! keys of the paper's Table I and Table II rows (periodic variants
//! default to T = 600). Row labels come from the built schedulers'
//! `name()`.

/// The nine algorithms of the paper's evaluation, in the order of
/// Table I.
pub const PAPER_SPECS: [&str; 9] = [
    "fcfs",
    "easy",
    "greedy",
    "greedy-pmtn",
    "greedy-pmtn-migr",
    "dynmcb8",
    "dynmcb8-per",
    "dynmcb8-asap-per",
    "dynmcb8-stretch-per",
];

/// The six algorithms of Table II (those that preempt or migrate).
pub const PREEMPTING_SPECS: [&str; 6] = [
    "greedy-pmtn",
    "greedy-pmtn-migr",
    "dynmcb8",
    "dynmcb8-per",
    "dynmcb8-asap-per",
    "dynmcb8-stretch-per",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedulerRegistry, SchedulerSpec, SpecError};

    const PAPER_NAMES: [&str; 9] = [
        "FCFS",
        "EASY",
        "Greedy",
        "Greedy-pmtn",
        "Greedy-pmtn-migr",
        "DynMCB8",
        "DynMCB8-per 600",
        "DynMCB8-asap-per 600",
        "DynMCB8-stretch-per 600",
    ];

    #[test]
    fn all_contains_nine_distinct_algorithms() {
        let keys: std::collections::HashSet<_> = PAPER_SPECS.iter().collect();
        assert_eq!(keys.len(), 9);
        let reg = SchedulerRegistry::builtin();
        let names: std::collections::HashSet<_> = PAPER_SPECS
            .iter()
            .map(|s| reg.build_str(s).unwrap().name())
            .collect();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn parse_round_trips_names() {
        for s in PAPER_SPECS {
            let spec: SchedulerSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(s.to_uppercase().parse::<SchedulerSpec>(), Ok(spec), "{s}");
        }
        // A one-word paper-table name is its key in another case; the
        // periodic names ("DynMCB8-per 600") are labels, not specs.
        for (s, name) in PAPER_SPECS.iter().zip(PAPER_NAMES) {
            match name.parse::<SchedulerSpec>() {
                Ok(spec) => assert_eq!(spec.to_string(), *s),
                Err(e) => {
                    assert!(name.contains(' '), "{name}: {e}");
                    assert!(matches!(e, SpecError::UnknownKey { .. }), "{name}");
                }
            }
        }
        assert!(matches!(
            "nonsense".parse::<SchedulerSpec>(),
            Err(SpecError::UnknownKey { .. })
        ));
    }

    #[test]
    fn build_produces_matching_names() {
        let reg = SchedulerRegistry::builtin();
        let extensions = [
            ("conservative-bf", "Conservative-BF"),
            ("greedy-pmtn:exponent=1", "Greedy-pmtn"),
        ];
        for (s, name) in PAPER_SPECS
            .iter()
            .copied()
            .zip(PAPER_NAMES)
            .chain(extensions)
        {
            assert_eq!(reg.build_str(s).unwrap().name(), name, "{s}");
        }
    }

    #[test]
    fn specs_resolve_through_the_builtin_registry() {
        let reg = SchedulerRegistry::builtin();
        for s in PAPER_SPECS {
            assert!(reg.contains(s), "{s}");
            assert_eq!(
                reg.build(&SchedulerSpec::new(s)).unwrap().name(),
                reg.build_str(s).unwrap().name()
            );
        }
    }

    #[test]
    fn batch_flag() {
        // Table II drops the rows that never preempt: the two batch
        // baselines and GREEDY.
        let non_preempting: Vec<_> = PAPER_SPECS
            .iter()
            .filter(|s| !PREEMPTING_SPECS.contains(s))
            .copied()
            .collect();
        assert_eq!(non_preempting, ["fcfs", "easy", "greedy"]);
        assert_eq!(PAPER_SPECS[3..], PREEMPTING_SPECS);
    }

    #[test]
    fn custom_period_shows_in_name() {
        let s = SchedulerRegistry::builtin()
            .build_str("dynmcb8-per:t=60")
            .unwrap();
        assert_eq!(s.name(), "DynMCB8-per 60");
    }
}
