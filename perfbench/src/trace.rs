//! Spans recorded from the benchmark's own code around each call into a
//! layer: name, start, end, parent, and for serve requests a request id.
//!
//! Spans are kept in memory and written once, at exit. A span's self time
//! is its duration minus the part of its interval that its children
//! cover; children of one parent may overlap (pipelined requests), so the
//! covered part is the length of the union of their intervals.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lotus_telemetry::json::Json;

/// One finished span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.nnn`.
    pub name: String,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Request id, for spans of one served request.
    pub request: Option<u64>,
}

/// The in-memory span store. A disabled tracer still times closures, so
/// the plain and the traced run measure through the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that keeps spans when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id before the span's children start.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        interval: (Instant, Instant),
        request: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        let rec = SpanRec {
            id,
            parent,
            name: name.to_string(),
            start: self.ns(interval.0),
            end: self.ns(interval.1),
            request,
        };
        self.spans.lock().expect("span store poisoned").push(rec);
    }

    /// Times `f` as span `name` under `parent`; `f` receives the span's id
    /// so it can parent its own children. Returns `f`'s result and the
    /// elapsed wall time.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(id, name, parent, (start, end), None);
        (out, end - start)
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Length of the union of `[start, end)` intervals.
#[must_use]
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        if e <= s {
            continue;
        }
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span, in ns: its duration minus the union of its
/// children's intervals clipped to its own.
#[must_use]
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start, s.end))).collect();
    for s in spans {
        if let Some((ps, pe)) = s.parent.and_then(|p| bounds.get(&p)) {
            children
                .entry(s.parent.unwrap_or_default())
                .or_default()
                .push((s.start.max(*ps), s.end.min(*pe)));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| union_len(c.clone()));
            (s.id, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The trace file: every span with its self time, plus per-name totals.
#[must_use]
pub fn to_json(spans: &[SpanRec]) -> Json {
    let own = self_times(spans);
    let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(&s.name).or_default();
        t.0 += 1;
        t.1 += s.end - s.start;
        t.2 += own[&s.id];
    }
    let int = |v: u64| Json::Int(v as i64);
    let opt = |v: Option<u64>| v.map_or(Json::Null, int);
    obj([
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("id", int(s.id)),
                            ("parent", opt(s.parent)),
                            ("name", Json::Str(s.name.clone())),
                            ("start_ns", int(s.start)),
                            ("end_ns", int(s.end)),
                            ("self_ns", int(own[&s.id])),
                            ("request", opt(s.request)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "by_name",
            Json::Obj(
                totals
                    .into_iter()
                    .map(|(name, (n, total, own))| {
                        (
                            name.to_string(),
                            obj([
                                ("count", int(n)),
                                ("total_ns", int(total)),
                                ("self_ns", int(own)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: format!("s{id}"),
            start,
            end,
            request: None,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(vec![(3, 3), (4, 2)]), 0);
        assert_eq!(union_len(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Parent 0..100 with sequential children 0..30 and 30..90.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 30),
            span(3, Some(1), 30, 90),
            span(4, Some(3), 40, 50),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 10);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 50);
        assert_eq!(own[&4], 10);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two pipelined requests overlap each other; one outlives the
        // parent window.
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 110, 150),
            span(3, Some(1), 140, 260),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 10);
        assert_eq!(own[&3], 120);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.span("x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
        assert!(t.spans().is_empty());

        let t = Tracer::new(true);
        let ((), _) = t.span("outer", None, |id| {
            t.span("inner", Some(id), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.parent, Some(outer.id));
        let file = to_json(&spans).to_string();
        assert!(file.contains("\"by_name\""));
    }
}
