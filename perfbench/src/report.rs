//! Metric names, units and the result a workload hands back.

use lotus_telemetry::json::Json;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports each of them for its own operation (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("goodput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, which every workload reports:
/// the layers below the request path, for the graph it counts or serves.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_s", "s"),
    ("graph.build_s", "s"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.csr_mb", "MB"),
    ("graph.skew", "ratio"),
    ("core.preprocess_s", "s"),
    ("core.topology_mb", "MB"),
    ("core.hhh_hhn_s", "s"),
    ("core.tiling_s", "s"),
    ("core.hnn_s", "s"),
    ("core.nnn_s", "s"),
    ("core.preprocess_share", "fraction"),
    ("core.nnn_share", "fraction"),
    ("core.triangles.hhh", "count"),
    ("core.triangles.hhn", "count"),
    ("core.triangles.hnn", "count"),
    ("core.triangles.nnn", "count"),
    ("algos.intersections", "count"),
    ("algos.merge_steps", "count"),
    ("algos.fruitless_frac", "fraction"),
    ("core.h2h_probes", "count"),
    ("core.h2h_hit_frac", "fraction"),
    ("core.tile_visits", "count"),
    ("par.steals", "count"),
    ("par.parks", "count"),
    ("algos.gap_s", "s"),
    ("algos.gap_over_lotus", "ratio"),
    ("trace.phase_sum_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Figures that go into the record lines alone. `p50_ms` is every
/// workload's median operation time; on serve-mix its median moved by a
/// third between two sets of runs on the calibration machine, more than
/// any bound allows, so it is not gated. The rest belong to the request
/// path, which only `serve-mix` has, and the result line carries only
/// metrics that every workload reports.
pub const RECORD_ONLY: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("load.p99_ms", "ms"),
    ("load.knee_rps", "1/s"),
    ("load.goodput_rps", "1/s"),
    ("load.shed_frac", "fraction"),
    ("load.lag_p99_ms", "ms"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("registry.lookup_us", "us"),
    ("registry.hit_frac", "fraction"),
    ("serve.ping_p50_ms", "ms"),
    ("serve.count_p50_ms", "ms"),
    ("serve.per_vertex_p50_ms", "ms"),
    ("serve.kclique_p50_ms", "ms"),
    ("serve.batch_p50_ms", "ms"),
    ("core.count_prepared_us", "us"),
    ("serve.count_overhead_ms", "ms"),
    ("serve.loop_wakeups_per_req", "ratio"),
    ("serve.readiness_events_per_req", "ratio"),
    ("cluster.count_p50_ms", "ms"),
    ("cluster.shard_count_p50_ms", "ms"),
    ("cluster.fanout_overhead_ms", "ms"),
    ("cluster.fanout_calls_per_req", "ratio"),
    ("cluster.shard_failures", "count"),
];

fn declared() -> impl Iterator<Item = &'static (&'static str, &'static str)> {
    END_TO_END.iter().chain(PER_LAYER).chain(RECORD_ONLY)
}

/// The unit of a known metric.
///
/// # Panics
/// Panics on a name in no table: a typo in the benchmark itself.
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    match declared().find(|(n, _)| *n == name) {
        Some((_, unit)) => unit,
        None => panic!("metric `{name}` is not declared in report.rs"),
    }
}

/// One measured figure with its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How many samples the value summarizes (1 for a count).
    pub samples: usize,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted (counts, requests).
    pub attempted: u64,
    /// Operations that failed (refused, lost, or wrong).
    pub failed: u64,
    /// Answer-check failures; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Workload descriptors and daemon configuration.
    pub descriptors: Vec<(String, Json)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        let _ = unit_of(name);
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Adds a descriptor.
    pub fn describe(&mut self, key: &str, value: Json) {
        self.descriptors.push((key.to_string(), value));
    }

    /// Records an answer-check failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in declared() {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(*name), "duplicate metric `{name}`");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit `{unit}`"
            );
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics this table knows,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = lotus_telemetry::json::parse(&text).expect("parse BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from report.rs");
        }
    }
}
