//! The perf-regression gate behind `lotus bench compare`.
//!
//! Two `BENCH.json` artifacts are diffed run-by-run, matched on
//! `(dataset, algorithm)`. Three classes of outcome:
//!
//! * **Hard failures** — triangle counts differ (a correctness bug, no
//!   tolerance applies), a baseline run is missing from the current
//!   artifact, the artifacts have incompatible schema versions, or, with
//!   telemetry armed in both, one of the [`EXACT_COUNTERS`] changed.
//! * **Regressions** — `wall_ms` grew beyond `(1 + tolerance) ×`
//!   baseline. Speedups never fail.
//! * **Notes** — informational only: drift of the other counters (tile
//!   visits and the pool counters depend on the thread count), runs
//!   present only in the current artifact, and environment differences.

use std::fmt;

use lotus_telemetry::Counter;

use crate::report::{BenchReport, BenchRun};
use crate::serve_section::ServeSection;

/// Tolerance used by the CI gate when none is given on the command line.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// The work counters that repeat exactly for one graph and algorithm on
/// any thread count. When both artifacts armed telemetry, any change in
/// one of them fails the gate: the code did different work.
pub const EXACT_COUNTERS: [Counter; 6] = [
    Counter::Intersections,
    Counter::FruitlessIntersections,
    Counter::MergeSteps,
    Counter::BitmapProbes,
    Counter::H2hProbes,
    Counter::H2hHits,
];

/// Severity of one [`Finding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational; never fails the gate.
    Note,
    /// `wall_ms` grew beyond tolerance.
    Regression,
    /// Correctness or structural mismatch; tolerance does not apply.
    Failure,
}

/// One comparison observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// How serious it is.
    pub severity: Severity,
    /// Human-readable description, one line.
    pub message: String,
}

impl Finding {
    fn note(message: String) -> Finding {
        Finding {
            severity: Severity::Note,
            message,
        }
    }

    fn regression(message: String) -> Finding {
        Finding {
            severity: Severity::Regression,
            message,
        }
    }

    fn failure(message: String) -> Finding {
        Finding {
            severity: Severity::Failure,
            message,
        }
    }
}

/// Outcome of comparing a current artifact against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Tolerance the gate ran with (fractional, e.g. `0.25` = ±25%).
    pub tolerance: f64,
    /// Everything observed, notes included.
    pub findings: Vec<Finding>,
    /// Runs compared (matched pairs).
    pub matched: usize,
}

impl Comparison {
    /// True when no regression or failure was found.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.severity == Severity::Note)
    }

    /// Findings of a given severity.
    #[must_use]
    pub fn with_severity(&self, severity: Severity) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .collect()
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bench compare: {} matched run(s), tolerance {:.0}%",
            self.matched,
            self.tolerance * 100.0
        )?;
        for finding in &self.findings {
            let tag = match finding.severity {
                Severity::Note => "note",
                Severity::Regression => "REGRESSION",
                Severity::Failure => "FAIL",
            };
            writeln!(f, "  [{tag}] {}", finding.message)?;
        }
        if self.passed() {
            writeln!(f, "result: PASS")
        } else {
            writeln!(f, "result: FAIL")
        }
    }
}

/// Compares `current` against `baseline` at the given fractional
/// tolerance. See the module docs for what fails versus what is noted.
#[must_use]
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: f64) -> Comparison {
    let mut findings = Vec::new();
    let mut matched = 0usize;

    if baseline.schema_version != current.schema_version {
        findings.push(Finding::failure(format!(
            "schema_version mismatch: baseline {} vs current {}",
            baseline.schema_version, current.schema_version
        )));
    }
    if baseline.suite != current.suite {
        findings.push(Finding::note(format!(
            "suite differs: baseline '{}' vs current '{}'",
            baseline.suite, current.suite
        )));
    }
    if baseline.environment.threads != current.environment.threads {
        findings.push(Finding::note(format!(
            "thread count differs: baseline {} vs current {} (times may not be comparable)",
            baseline.environment.threads, current.environment.threads
        )));
    }
    if baseline.environment.telemetry != current.environment.telemetry {
        findings.push(Finding::note(format!(
            "telemetry armed in one artifact only (baseline {}, current {})",
            baseline.environment.telemetry, current.environment.telemetry
        )));
    }

    let exact = baseline.environment.telemetry && current.environment.telemetry;
    for base in &baseline.runs {
        let Some(cur) = current.find(&base.dataset, &base.algorithm) else {
            findings.push(Finding::failure(format!(
                "{}/{}: run present in baseline but missing from current artifact",
                base.dataset, base.algorithm
            )));
            continue;
        };
        matched += 1;
        compare_run(base, cur, tolerance, exact, &mut findings);
    }

    for cur in &current.runs {
        if baseline.find(&cur.dataset, &cur.algorithm).is_none() {
            findings.push(Finding::note(format!(
                "{}/{}: new run not present in baseline (refresh the baseline to gate it)",
                cur.dataset, cur.algorithm
            )));
        }
    }

    Comparison {
        tolerance,
        findings,
        matched,
    }
}

/// Gates the serving layer: compares the `serve` sections of two
/// artifacts. Only gates when *both* documents carry a section — a
/// baseline predating the serving layer must not fail every CI run —
/// and a section present on one side only is noted.
///
/// Failures: any protocol/transport errors in the current run, or zero
/// successful requests. Regressions: `p99_us` beyond
/// `(1 + tolerance) ×` baseline. Throughput and `max_sustained_rps`
/// drops are notes (they swing with runner load far more than tail
/// latency does).
#[must_use]
pub fn compare_serve(
    baseline: Option<&ServeSection>,
    current: Option<&ServeSection>,
    tolerance: f64,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (base, cur) = match (baseline, current) {
        (Some(base), Some(cur)) => (base, cur),
        (None, None) => return findings,
        (Some(_), None) => {
            findings.push(Finding::failure(
                "serve: baseline has a serve section but the current artifact does not".into(),
            ));
            return findings;
        }
        (None, Some(_)) => {
            findings.push(Finding::note(
                "serve: new serve section not present in baseline (refresh the baseline to gate it)"
                    .into(),
            ));
            return findings;
        }
    };

    if cur.errors > 0 {
        findings.push(Finding::failure(format!(
            "serve: {} protocol/transport error(s) in the current run (baseline {})",
            cur.errors, base.errors
        )));
    }
    if cur.ok == 0 {
        findings.push(Finding::failure(
            "serve: no request succeeded in the current run".into(),
        ));
    }

    let limit = base.p99_us as f64 * (1.0 + tolerance);
    if base.p99_us > 0 && cur.p99_us as f64 > limit {
        findings.push(Finding::regression(format!(
            "serve: p99 {} us exceeds baseline {} us by {:+.1}% (limit {:+.0}%)",
            cur.p99_us,
            base.p99_us,
            (cur.p99_us as f64 / base.p99_us as f64 - 1.0) * 100.0,
            tolerance * 100.0
        )));
    } else if base.p99_us > 0 && (cur.p99_us as f64) < base.p99_us as f64 / (1.0 + tolerance) {
        findings.push(Finding::note(format!(
            "serve: p99 improved {} -> {} us; consider refreshing the baseline",
            base.p99_us, cur.p99_us
        )));
    }

    if base.throughput_rps > 0.0 && cur.throughput_rps < base.throughput_rps / (1.0 + tolerance) {
        findings.push(Finding::note(format!(
            "serve: throughput dropped {:.1} -> {:.1} req/s",
            base.throughput_rps, cur.throughput_rps
        )));
    }
    if base.max_sustained_rps > 0.0
        && cur.max_sustained_rps < base.max_sustained_rps / (1.0 + tolerance)
    {
        findings.push(Finding::note(format!(
            "serve: max sustained rate dropped {:.1} -> {:.1} req/s",
            base.max_sustained_rps, cur.max_sustained_rps
        )));
    }
    findings
}

/// Compares one matched run. `exact` gates the [`EXACT_COUNTERS`].
fn compare_run(
    base: &BenchRun,
    cur: &BenchRun,
    tolerance: f64,
    exact: bool,
    findings: &mut Vec<Finding>,
) {
    let key = format!("{}/{}", base.dataset, base.algorithm);

    // Triangle counts are exact; any drift is a correctness failure.
    if base.triangles != cur.triangles {
        findings.push(Finding::failure(format!(
            "{key}: triangle count changed: baseline {} vs current {} (correctness, not perf)",
            base.triangles, cur.triangles
        )));
    }

    let limit = base.wall_ms * (1.0 + tolerance);
    if cur.wall_ms > limit && base.wall_ms > 0.0 {
        findings.push(Finding::regression(format!(
            "{key}: wall_ms {:.2} exceeds baseline {:.2} by {:+.1}% (limit {:+.0}%)",
            cur.wall_ms,
            base.wall_ms,
            (cur.wall_ms / base.wall_ms - 1.0) * 100.0,
            tolerance * 100.0
        )));
    } else if base.wall_ms > 0.0 && cur.wall_ms < base.wall_ms / (1.0 + tolerance) {
        findings.push(Finding::note(format!(
            "{key}: wall_ms improved {:.2} -> {:.2} ({:+.1}%); consider refreshing the baseline",
            base.wall_ms,
            cur.wall_ms,
            (cur.wall_ms / base.wall_ms - 1.0) * 100.0
        )));
    }

    // The other counters are informational: tile visits scale with the
    // thread count, so machines with different parallelism disagree
    // legitimately.
    for (name, base_value) in &base.counters {
        let cur_value = cur.counter(name);
        if exact && EXACT_COUNTERS.iter().any(|c| c.name() == *name) {
            if cur_value != *base_value {
                findings.push(Finding::failure(format!(
                    "{key}: counter '{name}' changed {base_value} -> {cur_value} (exact work counter)"
                )));
            }
        } else if *base_value > 0 && cur_value == 0 {
            findings.push(Finding::note(format!(
                "{key}: counter '{name}' dropped to 0 (baseline {base_value}); telemetry off?"
            )));
        } else if *base_value > 0 {
            let ratio = cur_value as f64 / *base_value as f64;
            if !(0.5..=2.0).contains(&ratio) {
                findings.push(Finding::note(format!(
                    "{key}: counter '{name}' drifted {base_value} -> {cur_value} ({ratio:.2}x)"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envinfo::EnvInfo;
    use crate::report::{PhaseMillis, SCHEMA_VERSION};

    fn env() -> EnvInfo {
        EnvInfo {
            commit: "test".into(),
            threads: 4,
            cpu: "test".into(),
            os: "linux".into(),
            arch: "x86_64".into(),
            telemetry: true,
        }
    }

    fn run(dataset: &str, algorithm: &str, triangles: u64, wall_ms: f64) -> BenchRun {
        BenchRun {
            dataset: dataset.into(),
            algorithm: algorithm.into(),
            vertices: 100,
            edges: 500,
            triangles,
            wall_ms,
            phases_ms: PhaseMillis::default(),
            counters: vec![("intersections", 1000)],
            edges_per_sec: 500.0 / (wall_ms / 1e3),
            triangles_per_sec: triangles as f64 / (wall_ms / 1e3),
        }
    }

    fn report(runs: Vec<BenchRun>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            suite: "ci".into(),
            environment: env(),
            runs,
        }
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = report(vec![run("d", "Lotus", 42, 10.0)]);
        let cmp = compare(&a, &a.clone(), DEFAULT_TOLERANCE);
        assert!(cmp.passed(), "{cmp}");
        assert_eq!(cmp.matched, 1);
    }

    #[test]
    fn within_tolerance_slowdown_passes() {
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        let cur = report(vec![run("d", "Lotus", 42, 12.0)]);
        assert!(compare(&base, &cur, 0.25).passed());
    }

    #[test]
    fn injected_regression_beyond_tolerance_fails() {
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        let cur = report(vec![run("d", "Lotus", 42, 14.0)]); // +40% > 25%
        let cmp = compare(&base, &cur, 0.25);
        assert!(!cmp.passed(), "{cmp}");
        assert_eq!(cmp.with_severity(Severity::Regression).len(), 1);
        assert!(cmp.to_string().contains("REGRESSION"), "{cmp}");
    }

    #[test]
    fn tolerance_boundary_is_exclusive() {
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        // Exactly at the limit: passes (gate fires strictly beyond it).
        let at = report(vec![run("d", "Lotus", 42, 12.5)]);
        assert!(compare(&base, &at, 0.25).passed());
        let over = report(vec![run("d", "Lotus", 42, 12.6)]);
        assert!(!compare(&base, &over, 0.25).passed());
    }

    #[test]
    fn speedup_is_a_note_not_a_failure() {
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        let cur = report(vec![run("d", "Lotus", 42, 2.0)]);
        let cmp = compare(&base, &cur, 0.25);
        assert!(cmp.passed(), "{cmp}");
        assert!(!cmp.with_severity(Severity::Note).is_empty());
    }

    #[test]
    fn triangle_mismatch_is_a_hard_failure_regardless_of_tolerance() {
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        let cur = report(vec![run("d", "Lotus", 41, 10.0)]);
        let cmp = compare(&base, &cur, 1000.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.with_severity(Severity::Failure).len(), 1);
        assert!(cmp.to_string().contains("correctness"), "{cmp}");
    }

    #[test]
    fn missing_baseline_run_fails_extra_run_notes() {
        let base = report(vec![run("d", "Lotus", 42, 10.0), run("d", "GAP", 42, 10.0)]);
        let cur = report(vec![run("d", "Lotus", 42, 10.0), run("e", "Lotus", 7, 3.0)]);
        let cmp = compare(&base, &cur, 0.25);
        assert!(!cmp.passed());
        let failures = cmp.with_severity(Severity::Failure);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].message.contains("d/GAP"),
            "{}",
            failures[0].message
        );
        assert!(cmp
            .with_severity(Severity::Note)
            .iter()
            .any(|f| f.message.contains("e/Lotus")));
    }

    #[test]
    fn schema_version_mismatch_fails() {
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        let mut cur = base.clone();
        cur.schema_version = 2;
        assert!(!compare(&base, &cur, 0.25).passed());
    }

    #[test]
    fn counter_drift_and_env_changes_are_notes() {
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        let mut cur = report(vec![run("d", "Lotus", 42, 10.0)]);
        cur.environment.threads = 16;
        cur.environment.telemetry = false;
        cur.runs[0].counters = vec![("intersections", 5000)];
        let cmp = compare(&base, &cur, 0.25);
        assert!(cmp.passed(), "{cmp}");
        let notes = cmp.with_severity(Severity::Note);
        assert!(notes.iter().any(|f| f.message.contains("thread count")));
        assert!(notes.iter().any(|f| f.message.contains("drifted")));
    }

    /// A run whose counters are `counters`.
    fn counted(counters: Vec<(&'static str, u64)>) -> BenchRun {
        BenchRun {
            counters,
            ..run("d", "Lotus", 42, 10.0)
        }
    }

    #[test]
    fn a_changed_exact_counter_fails() {
        let base = report(vec![counted(vec![("intersections", 1000)])]);
        let cur = report(vec![counted(vec![("intersections", 1001)])]);
        let cmp = compare(&base, &cur, 0.25);
        let failures = cmp.with_severity(Severity::Failure);
        assert_eq!(failures.len(), 1, "{cmp}");
        assert!(failures[0].message.contains("'intersections'"), "{cmp}");
    }

    #[test]
    fn tile_visit_drift_is_a_note() {
        let base = report(vec![counted(vec![("tile_visits", 1000)])]);
        let cur = report(vec![counted(vec![("tile_visits", 5000)])]);
        let cmp = compare(&base, &cur, 0.25);
        assert!(cmp.passed(), "{cmp}");
        let notes = cmp.with_severity(Severity::Note);
        assert!(notes
            .iter()
            .any(|f| f.message.contains("'tile_visits' drifted")));
    }

    #[test]
    fn telemetry_off_on_either_side_skips_the_exact_gate() {
        let on = report(vec![counted(vec![("merge_steps", 1000)])]);
        let mut off = report(vec![counted(vec![("merge_steps", 0)])]);
        off.environment.telemetry = false;
        for (base, cur) in [(&on, &off), (&off, &on)] {
            let cmp = compare(base, cur, 0.25);
            assert!(cmp.passed(), "{cmp}");
        }
    }

    fn serve(p99_us: u64, errors: u64) -> ServeSection {
        ServeSection {
            suite: "ci".into(),
            graph: "rmat:9:8:7".into(),
            connections: 1024,
            requests: 4096,
            ok: 4096 - errors,
            errors,
            p99_us,
            throughput_rps: 5000.0,
            max_sustained_rps: 6000.0,
            ..ServeSection::default()
        }
    }

    #[test]
    fn serve_gate_passes_identical_and_skips_absent_sections() {
        let base = serve(4000, 0);
        assert!(compare_serve(Some(&base), Some(&base.clone()), 0.25)
            .iter()
            .all(|f| f.severity == Severity::Note));
        assert!(compare_serve(None, None, 0.25).is_empty());
        // New section, no baseline: a note, not a gate.
        let only_new = compare_serve(None, Some(&base), 0.25);
        assert!(only_new.iter().all(|f| f.severity == Severity::Note));
        // Section vanished from the current artifact: hard failure.
        let vanished = compare_serve(Some(&base), None, 0.25);
        assert_eq!(vanished[0].severity, Severity::Failure);
    }

    #[test]
    fn serve_gate_fails_on_errors_and_p99_regressions() {
        let base = serve(4000, 0);
        let errored = serve(4000, 3);
        let findings = compare_serve(Some(&base), Some(&errored), 0.25);
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Failure && f.message.contains("error")));

        let slow = serve(9000, 0); // +125% > 25%
        let findings = compare_serve(Some(&base), Some(&slow), 0.25);
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Regression && f.message.contains("p99")));

        // Within tolerance: clean.
        let ok = serve(4500, 0);
        assert!(compare_serve(Some(&base), Some(&ok), 0.25)
            .iter()
            .all(|f| f.severity == Severity::Note));
    }

    #[test]
    fn serve_throughput_drops_are_notes() {
        let base = serve(4000, 0);
        let mut slow = serve(4000, 0);
        slow.throughput_rps = 100.0;
        slow.max_sustained_rps = 100.0;
        let findings = compare_serve(Some(&base), Some(&slow), 0.25);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.severity == Severity::Note));
    }

    #[test]
    fn round_trip_then_compare_is_stable() {
        // serialize -> parse -> compare: the ISSUE's acceptance loop.
        let base = report(vec![run("d", "Lotus", 42, 10.0)]);
        let parsed = BenchReport::parse(&base.to_pretty_string()).unwrap();
        assert!(compare(&base, &parsed, 0.0).passed());
    }
}
