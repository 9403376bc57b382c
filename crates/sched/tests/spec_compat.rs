//! Spec-layer guarantees: property-based parse/display round-trips for
//! [`SchedulerSpec`], and one spelling per scheduler — the paper-table
//! names with spaces, underscores and `-600` period suffixes are not
//! specs.

use dfrs_sched::{SchedulerRegistry, SchedulerSpec, SpecError, PAPER_SPECS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// display(parse(s)) == display(parse(display(parse(s)))) and the
    /// parsed specs are equal: the canonical form is a fixed point.
    /// Every registry key is checked in every case.
    #[test]
    fn parse_display_round_trip(
        t in prop::sample::select(vec![1u32, 60, 300, 600, 3600, 86_400]),
        with_t in prop::sample::select(vec![true, false]),
        packer in prop::sample::select(vec!["mcb8", "first-fit", "best-fit"]),
        with_packer in prop::sample::select(vec![true, false]),
    ) {
        let reg = SchedulerRegistry::builtin();
        for key in reg.keys() {
            let allowed = reg.factory(&key).unwrap().param_names().to_vec();

            let mut spec = SchedulerSpec::new(&key);
            if with_t && allowed.iter().any(|p| p == "t") {
                spec = spec.with("t", t);
            }
            if with_packer && allowed.iter().any(|p| p == "packer") {
                spec = spec.with("packer", packer);
            }

            let rendered = spec.to_string();
            let reparsed: SchedulerSpec = rendered.parse().unwrap();
            prop_assert_eq!(&reparsed, &spec, "parse(display) changed the spec {}", rendered);
            prop_assert_eq!(reparsed.to_string(), rendered);

            // Whatever the spec, it must build through the registry.
            prop_assert!(reg.build(&spec).is_ok(), "spec {} failed to build", spec);
        }
    }

    /// Uppercasing and surrounding whitespace never change what a spec
    /// means; an underscore for a hyphen makes it an unknown key. Every
    /// registry key is checked in every case.
    #[test]
    fn parse_is_case_and_separator_insensitive(
        upper in prop::sample::select(vec![true, false]),
        underscores in prop::sample::select(vec![true, false]),
        pad in prop::sample::select(vec!["", " ", "  "]),
    ) {
        let reg = SchedulerRegistry::builtin();
        for key in reg.keys() {
            let mut mangled = key.clone();
            if upper {
                mangled = mangled.to_ascii_uppercase();
            }
            let mangled = format!("{pad}{mangled}{pad}");
            prop_assert_eq!(reg.parse(&mangled).unwrap(), SchedulerSpec::new(&key));
            if underscores && key.contains('-') {
                prop_assert!(matches!(
                    reg.parse(&mangled.replace('-', "_")),
                    Err(SpecError::UnknownKey { .. })
                ));
            }
        }
    }
}

/// Each paper algorithm has one spelling, its registry key: the
/// display name a scheduler prints is a key only when it is one word
/// ("FCFS"), and the periodic names ("DynMCB8-per 600") and their
/// hyphenated forms ("dynmcb8-per-600") are unknown keys.
#[test]
fn every_algorithm_name_string_keeps_parsing() {
    let reg = SchedulerRegistry::builtin();
    for key in PAPER_SPECS {
        let name = reg.build_str(key).unwrap().name();
        assert_eq!(reg.parse(key).unwrap().key(), key);
        if name.contains(' ') {
            let hyphenated = name.to_ascii_lowercase().replace(' ', "-");
            for s in [name.as_str(), hyphenated.as_str()] {
                assert!(
                    matches!(reg.parse(s), Err(SpecError::UnknownKey { .. })),
                    "{s}"
                );
            }
        } else {
            assert_eq!(reg.parse(&name).unwrap().key(), key, "{name}");
        }
    }
}

/// A period is a `t=` parameter, never a key suffix.
#[test]
fn legacy_suffix_builds_with_that_period() {
    let reg = SchedulerRegistry::builtin();
    for s in ["dynmcb8-per-60", "DynMCB8-stretch-per 600"] {
        assert!(
            matches!(reg.build_str(s), Err(SpecError::UnknownKey { .. })),
            "{s}"
        );
    }
    assert_eq!(
        reg.build_str("dynmcb8-per:t=60").unwrap().name(),
        "DynMCB8-per 60"
    );
    assert_eq!(
        reg.build_str("DynMCB8-STRETCH-PER:T=600").unwrap().name(),
        "DynMCB8-stretch-per 600"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The DRF family round-trips through the spec grammar with any
    /// period, and the periodic variant carries it into the built
    /// scheduler's display name.
    #[test]
    fn drf_specs_round_trip_and_build(
        t in prop::sample::select(vec![1u32, 60, 300, 600, 3600, 86_400]),
    ) {
        let reg = SchedulerRegistry::builtin();
        let spec = SchedulerSpec::new("dynmcb8-drf-per").with("t", t);
        let rendered = spec.to_string();
        prop_assert_eq!(&rendered.parse::<SchedulerSpec>().unwrap(), &spec);
        prop_assert_eq!(
            reg.build(&spec).unwrap().name(),
            format!("DynMCB8-drf-per {t}")
        );
        // The numeric-suffix spelling is not a period.
        prop_assert!(matches!(
            reg.parse(&format!("dynmcb8-drf-per-{t}")),
            Err(SpecError::UnknownKey { .. })
        ));
    }

    /// `dynmcb8-drf` is its own key, and a numeric suffix on the
    /// (parameterless) event-driven key stays an unknown key instead of
    /// colliding with anything.
    #[test]
    fn drf_keys_do_not_collide_with_legacy_suffix_rewrites(
        n in prop::sample::select(vec![1u32, 60, 600, 3600]),
    ) {
        let reg = SchedulerRegistry::builtin();
        prop_assert_eq!(reg.parse("dynmcb8-drf").unwrap(), SchedulerSpec::new("dynmcb8-drf"));
        prop_assert!(matches!(
            reg.parse(&format!("dynmcb8-drf-{n}")),
            Err(SpecError::UnknownKey { .. })
        ));
    }
}

/// The DRF factories reject parameters they don't take, listing what
/// they do.
#[test]
fn drf_family_rejects_unknown_params() {
    let reg = SchedulerRegistry::builtin();
    match reg.parse("dynmcb8-drf:t=600") {
        Err(SpecError::UnknownParam {
            key,
            param,
            allowed,
        }) => {
            assert_eq!(key, "dynmcb8-drf");
            assert_eq!(param, "t");
            assert!(allowed.is_empty(), "event-driven drf takes no params");
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
    match reg.parse("dynmcb8-drf-per:packer=mcb8") {
        Err(SpecError::UnknownParam { key, allowed, .. }) => {
            assert_eq!(key, "dynmcb8-drf-per");
            assert_eq!(allowed, vec!["t".to_string()]);
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
    assert!(matches!(
        reg.build_str("dynmcb8-drf-per:t=0"),
        Err(SpecError::InvalidParam { .. })
    ));
    assert!(matches!(
        reg.build_str("dynmcb8-drf-per:t=banana"),
        Err(SpecError::InvalidParam { .. })
    ));
}

/// Spec errors name the known registry keys, so a typo points at the
/// fix.
#[test]
fn unknown_key_error_is_typo_friendly() {
    let err = SchedulerRegistry::builtin()
        .parse("dynmcb8-asap-par")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("dynmcb8-asap-per"), "{msg}");
    assert!(msg.contains("fcfs"), "{msg}");
}
