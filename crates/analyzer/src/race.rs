//! Deterministic-schedule race checking over the LOTUS kernels.
//!
//! Built on `shims/par`'s scheduler mode ([`rayon::sched`]): inside
//! [`rayon::sched::with_schedule`] every parallel-for replays its task
//! bodies in a seeded permutation while the instrumented kernels log the
//! address ranges each logical task reads and writes (the per-vertex
//! degree/entry windows of Algorithm 2, the HE/NHE lists the three
//! counting phases of Algorithm 3 scan, the forward drivers' `N⁻`
//! lists). Two properties are checked per scenario:
//!
//! 1. **no overlap** — no two distinct tasks write overlapping byte
//!    ranges, and no task reads a range another task writes
//!    (synchronized atomics are deliberately not logged: the shadow log
//!    models *plain* accesses);
//! 2. **order independence** — the scheduled result equals the
//!    unscheduled reference, under every seed.
//!
//! [`planted_overlap`] is the negative control: a test-only kernel with
//! a real overlapping window claim, proving the detector actually fires.

use lotus_core::config::HubCount;
use lotus_core::kclique::{count_oriented_kcliques, orient};
use lotus_core::per_vertex::count_per_vertex;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::{LotusConfig, LotusCounter};
use lotus_graph::UndirectedCsr;
use lotus_resilience::RunGuard;
use rayon::hb::{self, Event};
use rayon::sched::{self, Access, ClockInfo, RaceReport, SERIAL_TASK};

use crate::diag::json_str;

/// The fixed seeds CI replays (documented in DESIGN.md §10).
pub const FIXED_SEEDS: [u64; 3] = [7, 42, 0x5EED];

/// One scenario under one seed.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Kernel-under-test name.
    pub scenario: &'static str,
    /// Schedule seed.
    pub seed: u64,
    /// Shadow-access-log verdict.
    pub race: RaceReport,
    /// Whether the scheduled run reproduced the unscheduled reference.
    pub agrees: bool,
}

impl ScenarioOutcome {
    /// Clean = no races and the result matched the reference.
    pub fn is_clean(&self) -> bool {
        self.race.is_clean() && self.agrees
    }
}

/// One planted-race negative control: a fixture with a deliberate
/// synchronization bug that the detector must flag.
#[derive(Debug)]
pub struct ControlOutcome {
    /// Control name (one per sync feature, see [`planted_controls`]).
    pub name: &'static str,
    /// The detector's verdict on the planted bug.
    pub report: RaceReport,
}

impl ControlOutcome {
    /// A control passes by being *flagged* — a clean report means the
    /// detector went blind to this bug class.
    pub fn flagged(&self) -> bool {
        !self.report.is_clean()
    }
}

/// All scenarios across all seeds, plus the planted negative controls.
#[derive(Debug, Default)]
pub struct RaceSuiteReport {
    /// Per-(scenario, seed) outcomes.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Planted-race controls (must all be flagged).
    pub controls: Vec<ControlOutcome>,
}

impl RaceSuiteReport {
    /// Whether every scenario is race-free and order-independent, and
    /// every planted control was caught.
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(ScenarioOutcome::is_clean)
            && self.controls.iter().all(ControlOutcome::flagged)
    }

    /// Renders the suite as stable JSON for the CI artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.outcomes.len() * 160);
        out.push_str(
            "{\n  \"schema_version\": 1,\n  \"tool\": \"lotus-analyzer\",\n  \"mode\": \"race\",\n",
        );
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"outcomes\": [");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"scenario\": {}, ", json_str(o.scenario)));
            out.push_str(&format!("\"seed\": {}, ", o.seed));
            out.push_str(&format!("\"regions\": {}, ", o.race.regions));
            out.push_str(&format!("\"accesses\": {}, ", o.race.accesses));
            out.push_str(&format!("\"races\": {}, ", o.race.total_races));
            out.push_str(&format!("\"agrees\": {}, ", o.agrees));
            out.push_str("\"race_details\": [");
            push_races(&mut out, &o.race);
            out.push_str("]}");
        }
        if !self.outcomes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"controls\": [");
        for (i, c) in self.controls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"name\": {}, ", json_str(c.name)));
            out.push_str(&format!("\"flagged\": {}, ", c.flagged()));
            out.push_str(&format!("\"races\": {}, ", c.report.total_races));
            out.push_str("\"race_details\": [");
            push_races(&mut out, &c.report);
            out.push_str("]}");
        }
        if !self.controls.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Appends one report's races (with clock evidence) as JSON objects.
fn push_races(out: &mut String, report: &RaceReport) {
    for (j, r) in report.races.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"label_a\": {}, \"task_a\": {}, \"label_b\": {}, \"task_b\": {}, \
             \"write_write\": {}, \"overlap_len\": {}, \"clock_a\": {}, \"clock_b\": {}}}",
            json_str(r.label_a),
            r.task_a,
            json_str(r.label_b),
            r.task_b,
            r.write_write,
            r.overlap_len,
            clock_json(&r.clock_a),
            clock_json(&r.clock_b)
        ));
    }
}

/// One side's clock evidence as a JSON object. The serial mainline is
/// `"region": null`; an unjoined task is `"join": null`.
fn clock_json(c: &ClockInfo) -> String {
    let region = if c.region == u32::MAX {
        "null".to_owned()
    } else {
        c.region.to_string()
    };
    let task = if c.task == SERIAL_TASK {
        "null".to_owned()
    } else {
        c.task.to_string()
    };
    let join = c.join.map_or("null".to_owned(), |j| j.to_string());
    format!(
        "{{\"region\": {region}, \"task\": {task}, \"epoch\": {}, \"fork\": {}, \"join\": {join}}}",
        c.epoch, c.fork
    )
}

fn test_graph() -> UndirectedCsr {
    lotus_gen::Rmat::new(8, 8).generate(3)
}

fn config() -> LotusConfig {
    LotusConfig::default().with_hub_count(HubCount::Fixed(32))
}

/// Runs every shipped LOTUS kernel under every seed, comparing against
/// the unscheduled reference result.
pub fn run_suite(seeds: &[u64]) -> RaceSuiteReport {
    let g = test_graph();
    let mut outcomes = Vec::new();

    let mut scenario = |name: &'static str, f: &dyn Fn(&UndirectedCsr) -> u64| {
        let reference = f(&g);
        for &seed in seeds {
            let (value, race) = sched::with_schedule(seed, || f(&g));
            outcomes.push(ScenarioOutcome {
                scenario: name,
                seed,
                race,
                agrees: value == reference,
            });
        }
    };

    scenario("preprocess+phases", &|g| {
        LotusCounter::new(config()).count(g).total()
    });
    scenario("phases-guarded", &|g| {
        LotusCounter::new(config())
            .count_guarded(g, &RunGuard::unlimited())
            .map_or(u64::MAX, |r| r.total())
    });
    // An FNV-1a hash of the whole vector: a corner credited to the wrong
    // vertex changes it, where the sum would not.
    scenario("per-vertex", &|g| {
        let lg = build_lotus_graph(g, &config());
        let fnv = |h: u64, &c: &u64| (h ^ c).wrapping_mul(0x100_0000_01b3);
        count_per_vertex(&lg)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, fnv)
    });
    scenario("kclique-4", &|g| {
        count_oriented_kcliques(&orient(&build_lotus_graph(g, &config())), 4)
    });
    scenario("forward", &|g| lotus_algos::forward_count(g));
    scenario("forward-hashed", &|g| {
        lotus_algos::forward_hashed::forward_hashed_count(g)
    });

    RaceSuiteReport {
        outcomes,
        controls: planted_controls(),
    }
}

fn ev_access(region: u32, task: u32, write: bool, base: usize, len: usize) -> Event {
    Event::Access(Access {
        region,
        task,
        write,
        base,
        len,
        label: if write {
            "control.write"
        } else {
            "control.read"
        },
    })
}

/// The planted-race negative controls — one deliberate bug per
/// synchronization feature the happens-before detector models. Each
/// must come back flagged; a clean verdict means the detector lost
/// sight of that bug class.
///
/// - `planted-overlap` (PR-4 control): sibling tasks claim overlapping
///   windows inside one region — caught by the basic fork-level
///   concurrency check.
/// - `missing-join`: a forked region never joins, so nothing orders its
///   write before the continuation's read.
/// - `dropped-combine`: in a reduction region, one task's combine edge
///   is missing — its write must stay unordered against the
///   continuation even though the region joined.
/// - `relaxed-publication`: a producer "publishes" with a Relaxed flag
///   (no release/acquire edge recorded), so the consumer's read races;
///   the same stream with the edges present is verified clean by the
///   detector's own tests.
pub fn planted_controls() -> Vec<ControlOutcome> {
    let missing_join = [
        Event::Fork {
            region: 0,
            tasks: 1,
        },
        Event::Begin { region: 0, task: 0 },
        ev_access(0, 0, true, 0x1000, 8),
        Event::End { region: 0, task: 0 },
        // Join deliberately missing.
        ev_access(u32::MAX, SERIAL_TASK, false, 0x1000, 8),
    ];

    let dropped_combine = [
        Event::Fork {
            region: 0,
            tasks: 2,
        },
        Event::Begin { region: 0, task: 0 },
        ev_access(0, 0, true, 0x1000, 8),
        Event::End { region: 0, task: 0 },
        Event::Begin { region: 0, task: 1 },
        ev_access(0, 1, true, 0x2000, 8),
        Event::Combine { region: 0, task: 1 },
        Event::End { region: 0, task: 1 },
        Event::Join { region: 0 },
        ev_access(u32::MAX, SERIAL_TASK, false, 0x1000, 8),
        ev_access(u32::MAX, SERIAL_TASK, false, 0x2000, 8),
    ];

    // Producer writes, then flips a completion flag with `Relaxed` —
    // which records no Release event — and the consumer polls the flag
    // and reads. Without the publication edge the read races.
    let relaxed_publication = [
        Event::Fork {
            region: 0,
            tasks: 2,
        },
        Event::Begin { region: 0, task: 0 },
        ev_access(0, 0, true, 0x3000, 64),
        // (a correct kernel would record Release { addr } here)
        Event::End { region: 0, task: 0 },
        Event::Begin { region: 0, task: 1 },
        // (…and Acquire { addr } here)
        ev_access(0, 1, false, 0x3000, 64),
        Event::End { region: 0, task: 1 },
        Event::Join { region: 0 },
    ];

    vec![
        ControlOutcome {
            name: "planted-overlap",
            report: planted_overlap(FIXED_SEEDS[0], 16),
        },
        ControlOutcome {
            name: "missing-join",
            report: hb::detect(&missing_join),
        },
        ControlOutcome {
            name: "dropped-combine",
            report: hb::detect(&dropped_combine),
        },
        ControlOutcome {
            name: "relaxed-publication",
            report: hb::detect(&relaxed_publication),
        },
    ]
}

/// Negative control: a kernel with a *real* overlapping write claim.
///
/// Task `i` owns the window `out[i .. i+2]`, so neighbouring tasks
/// overlap in one slot — the classic off-by-one tile-boundary bug in
/// hub-partitioned kernels. The slots are atomics so the demo stays
/// well-defined on a genuinely parallel runtime; the *logged* ranges are plain
/// writes, which is exactly what the shadow log checks.
pub fn planted_overlap(seed: u64, tasks: usize) -> RaceReport {
    use std::sync::atomic::{AtomicU32, Ordering};

    use rayon::prelude::*;

    let out: Vec<AtomicU32> = (0..=tasks).map(|_| AtomicU32::new(0)).collect();
    let ((), report) = sched::with_schedule(seed, || {
        (0..tasks).into_par_iter().for_each(|i| {
            let window = &out[i..i + 2];
            sched::log_write(window, "planted.window");
            window[0].fetch_add(1, Ordering::Relaxed);
            window[1].fetch_add(1, Ordering::Relaxed);
        });
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_overlap_is_detected() {
        let report = planted_overlap(FIXED_SEEDS[0], 16);
        assert!(!report.is_clean(), "planted overlap must be detected");
        assert!(report.races.iter().all(|r| r.write_write));
        assert!(report.races.iter().all(|r| r.overlap_len == 4)); // one u32 slot
    }

    #[test]
    fn suite_json_shape() {
        let mut suite = RaceSuiteReport::default();
        suite.outcomes.push(ScenarioOutcome {
            scenario: "demo",
            seed: 7,
            race: RaceReport::default(),
            agrees: true,
        });
        let parsed = lotus_telemetry::json::parse(&suite.to_json()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("clean")
                .and_then(lotus_telemetry::json::Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn planted_controls_all_flagged() {
        let controls = planted_controls();
        let names: Vec<_> = controls.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "planted-overlap",
                "missing-join",
                "dropped-combine",
                "relaxed-publication"
            ]
        );
        for c in &controls {
            assert!(c.flagged(), "control {} must be flagged", c.name);
        }
    }

    #[test]
    fn missing_join_control_shows_unjoined_clock() {
        let c = &planted_controls()[1];
        let race = &c.report.races[0];
        // The forked task's clock carries no join stamp — that is the
        // evidence the ordering edge is absent.
        assert!(race.clock_a.join.is_none() || race.clock_b.join.is_none());
    }

    #[test]
    fn dropped_combine_control_races_only_on_uncombined_task() {
        let c = &planted_controls()[2];
        assert!(c.flagged());
        // Only task 0 (combine edge dropped) may race; task 1's combine
        // edge orders it before the continuation.
        for race in &c.report.races {
            for (task, clock) in [(race.task_a, &race.clock_a), (race.task_b, &race.clock_b)] {
                if task != SERIAL_TASK {
                    assert_eq!(task, 0, "combined task must not race");
                    assert!(clock.join.is_none());
                }
            }
        }
    }

    #[test]
    fn relaxed_publication_control_is_read_write() {
        let c = &planted_controls()[3];
        assert!(c.flagged());
        assert!(c.report.races.iter().any(|r| !r.write_write));
    }

    #[test]
    fn control_json_carries_clock_evidence() {
        let suite = RaceSuiteReport {
            outcomes: Vec::new(),
            controls: planted_controls(),
        };
        let json = suite.to_json();
        let parsed = lotus_telemetry::json::parse(&json).expect("valid JSON");
        // All controls flagged and no real scenarios → overall clean.
        assert_eq!(
            parsed
                .get("clean")
                .and_then(lotus_telemetry::json::Json::as_bool),
            Some(true)
        );
        assert!(
            json.contains("\"clock_a\""),
            "races must carry clock evidence"
        );
        assert!(json.contains("\"relaxed-publication\""));
    }
}
