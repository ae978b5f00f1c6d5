//! End-to-end race-checker acceptance: every shipped kernel must be
//! race-free and order-independent under all fixed seeds, and the
//! planted overlap must be caught (the detector actually fires).

use lotus_analyzer::{planted_overlap, run_suite, FIXED_SEEDS};

#[test]
fn shipped_kernels_clean_under_all_fixed_seeds() {
    let suite = run_suite(&FIXED_SEEDS);
    assert_eq!(suite.outcomes.len(), 6 * FIXED_SEEDS.len());
    for o in &suite.outcomes {
        assert!(
            o.race.is_clean(),
            "{} seed {}: {} race(s): {:?}",
            o.scenario,
            o.seed,
            o.race.total_races,
            o.race.races
        );
        assert!(
            o.agrees,
            "{} seed {}: scheduled result diverged",
            o.scenario, o.seed
        );
    }
    // Every planted negative control must be flagged, or the clean
    // verdict above is worthless.
    assert_eq!(suite.controls.len(), 4);
    for c in &suite.controls {
        assert!(c.flagged(), "planted control '{}' was missed", c.name);
    }
    assert!(suite.is_clean());
}

#[test]
fn instrumentation_is_live() {
    // The shadow log must actually see the kernels' accesses; a suite
    // that is "clean" because nothing was logged proves nothing.
    let suite = run_suite(&FIXED_SEEDS[..1]);
    for o in &suite.outcomes {
        assert!(
            o.race.accesses > 0,
            "{}: no shadow-log accesses recorded — instrumentation lost",
            o.scenario
        );
        assert!(
            o.race.regions > 0,
            "{}: no parallel regions seen",
            o.scenario
        );
    }
}

#[test]
fn planted_overlap_caught_under_every_fixed_seed() {
    for seed in FIXED_SEEDS {
        let report = planted_overlap(seed, 32);
        assert!(
            !report.is_clean(),
            "seed {seed}: planted overlap escaped detection"
        );
        assert!(report.races.iter().all(|r| r.write_write));
    }
}

#[test]
fn suite_report_json_parses() {
    let suite = run_suite(&FIXED_SEEDS[..1]);
    let json = suite.to_json();
    let parsed = lotus_telemetry::json::parse(&json).expect("suite JSON parses");
    assert_eq!(parsed.get("mode").and_then(|v| v.as_str()), Some("race"));
    assert_eq!(
        parsed
            .get("clean")
            .and_then(lotus_telemetry::json::Json::as_bool),
        Some(true)
    );
    let outcomes = parsed
        .get("outcomes")
        .and_then(|v| v.as_array())
        .expect("outcomes array");
    assert_eq!(outcomes.len(), 6);
}
