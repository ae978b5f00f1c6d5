//! Instrumented lock wrappers — the runtime half of lock-discipline
//! certification (`lotus analyze locks`).
//!
//! [`TracedMutex`] and [`TracedCondvar`] wrap their `std::sync`
//! counterparts and give each lock a stable, human-chosen name (e.g.
//! `serve.store.durable`). While the witness is armed — any
//! `debug_assertions` build, or release with the `lock-witness` feature
//! — every acquisition records *order edges*: for each lock the
//! acquiring thread already holds, an edge `held → acquired` lands in a
//! process-global edge set. The edge set is the dynamic lock-order
//! graph:
//!
//! * at process exit a `.fini_array` destructor asserts the graph is
//!   acyclic (a cycle means two call paths disagree about lock order —
//!   an ABBA deadlock candidate that merely hasn't interleaved yet) and,
//!   when `LOTUS_LOCK_WITNESS=<path>` is set, writes the graph as
//!   `lock-order.json`;
//! * `lotus analyze locks` cross-checks that every dynamic edge is also
//!   present in the *static* lock-order graph extracted by
//!   `lotus-analyzer`, so the static pass provably sees the locks the
//!   test suite actually exercises.
//!
//! Re-locking a mutex the thread already holds would deadlock in
//! `std`; the armed witness panics immediately instead, with both lock
//! names in the message.
//!
//! Names starting with a reserved prefix (`planted.`, `golden.`) are
//! negative-control fixtures and scripted test scenarios; they are
//! excluded from the exit assertion and the default report so a planted
//! ABBA cycle can prove the detector fires without failing the suite.
//!
//! When the witness is disarmed (release build without `lock-witness`)
//! every recording body is empty and the wrappers are plain newtypes
//! around `std::sync` — no atomics, no thread-locals, no edges.

use crate::json::Json;
use std::fmt;
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};

/// Lock names beginning with one of these are test fixtures, kept out
/// of the exit assertion and the default report.
pub const RESERVED_PREFIXES: [&str; 2] = ["planted.", "golden."];

/// Whether this build records lock acquisitions (`debug_assertions` or
/// the `lock-witness` feature).
#[must_use]
pub const fn witness_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "lock-witness"))
}

// ---------------------------------------------------------------------------
// Global witness state
// ---------------------------------------------------------------------------

#[cfg(any(debug_assertions, feature = "lock-witness"))]
mod state {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, PoisonError};

    /// Interned lock names (index = lock id) plus the directed edge set
    /// `held → acquired`. One plain `std` mutex; the witness never
    /// acquires a traced lock, so it cannot feed back into itself.
    pub(super) struct Witness {
        pub(super) names: Vec<&'static str>,
        pub(super) edges: BTreeSet<(u32, u32)>,
    }

    pub(super) static WITNESS: Mutex<Witness> = Mutex::new(Witness {
        names: Vec::new(),
        edges: BTreeSet::new(),
    });

    thread_local! {
        /// Lock ids this thread currently holds, in acquisition order.
        pub(super) static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    /// Interns `name`, records an edge from every lock this thread
    /// already holds, pushes the new id onto the held stack, and
    /// returns the id. Panics (before blocking) on a same-thread
    /// re-lock, which would deadlock in `std`.
    pub(super) fn enter(name: &'static str) -> u32 {
        let id = {
            let mut w = WITNESS.lock().unwrap_or_else(PoisonError::into_inner);
            let id = match w.names.iter().position(|n| *n == name) {
                Some(i) => i as u32,
                None => {
                    w.names.push(name);
                    (w.names.len() - 1) as u32
                }
            };
            let relock = HELD.with(|h| {
                let held = h.borrow();
                if held.contains(&id) {
                    return true;
                }
                for &from in held.iter() {
                    w.edges.insert((from, id));
                }
                false
            });
            if relock {
                drop(w);
                // analyzer: allow(no-panic): the witness exists to turn a self-deadlock into a loud failure before the thread hangs
                panic!("lock-witness: thread re-locked '{name}' while already holding it");
            }
            id
        };
        HELD.with(|h| h.borrow_mut().push(id));
        id
    }

    /// Pops one held entry for `id` (the most recent — guards may be
    /// dropped out of LIFO order, e.g. via `drop(g)`).
    pub(super) fn exit(id: u32) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&x| x == id) {
                held.remove(pos);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// TracedMutex
// ---------------------------------------------------------------------------

/// A named [`Mutex`] that records acquisition-order edges while the
/// witness is armed. Drop-in for the `lock().unwrap_or_else(..)` idiom:
/// poison carries through as `PoisonError<TracedGuard>`.
pub struct TracedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

/// The guard returned by [`TracedMutex::lock`]; releases the witness
/// entry when dropped.
pub struct TracedGuard<'a, T> {
    name: &'static str,
    id: u32,
    inner: MutexGuard<'a, T>,
}

impl<T> TracedMutex<T> {
    /// Wraps `value` in a mutex named `name`. The name is the node id
    /// in `lock-order.json` and must match the literal the static pass
    /// extracts, so pick a stable dotted path (`serve.pool.queue`).
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: Mutex::new(value),
        }
    }

    /// The witness name this lock was created with.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, recording order edges first (so an edge is
    /// present even for an acquisition that then blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates poisoning exactly like [`Mutex::lock`].
    pub fn lock(&self) -> LockResult<TracedGuard<'_, T>> {
        #[cfg(any(debug_assertions, feature = "lock-witness"))]
        let id = state::enter(self.name);
        #[cfg(not(any(debug_assertions, feature = "lock-witness")))]
        let id = 0;
        match self.inner.lock() {
            Ok(g) => Ok(TracedGuard {
                name: self.name,
                id,
                inner: g,
            }),
            Err(p) => Err(PoisonError::new(TracedGuard {
                name: self.name,
                id,
                inner: p.into_inner(),
            })),
        }
    }

    /// Consumes the mutex, returning the inner value (never blocks).
    ///
    /// # Errors
    ///
    /// Propagates poisoning exactly like [`Mutex::into_inner`].
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for TracedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T> std::ops::Deref for TracedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TracedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TracedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "lock-witness"))]
        state::exit(self.id);
        // Disarmed builds: self.id is a dead 0; nothing to release.
        #[cfg(not(any(debug_assertions, feature = "lock-witness")))]
        let _ = self.id;
    }
}

impl<T: fmt::Debug> fmt::Debug for TracedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedGuard")
            .field("name", &self.name)
            .field("value", &*self.inner)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// TracedCondvar
// ---------------------------------------------------------------------------

/// A named [`Condvar`] aware of [`TracedGuard`]: waiting releases the
/// witness entry for the passed guard and re-records it on wake, so the
/// held stack mirrors what `std` actually holds.
pub struct TracedCondvar {
    name: &'static str,
    inner: Condvar,
}

impl TracedCondvar {
    /// Creates a condvar named `name` (names share the lock namespace
    /// but condvars are not lock-order nodes).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            inner: Condvar::new(),
        }
    }

    /// The witness name this condvar was created with.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Blocks on the condvar, atomically releasing `guard`'s mutex.
    ///
    /// # Errors
    ///
    /// Propagates poisoning exactly like [`Condvar::wait`].
    pub fn wait<'a, T>(&self, guard: TracedGuard<'a, T>) -> LockResult<TracedGuard<'a, T>> {
        let (name, id, inner) = guard.into_parts();
        let waited = self.inner.wait(inner);
        Self::reenter(name, id, waited)
    }

    /// Blocks with a timeout, atomically releasing `guard`'s mutex.
    /// Returns the re-acquired guard and whether the wait timed out.
    ///
    /// # Errors
    ///
    /// Propagates poisoning exactly like [`Condvar::wait_timeout`].
    pub fn wait_timeout<'a, T>(
        &self,
        guard: TracedGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(TracedGuard<'a, T>, std::sync::WaitTimeoutResult)> {
        let (name, id, inner) = guard.into_parts();
        match self.inner.wait_timeout(inner, dur) {
            Ok((g, timed_out)) => match Self::reenter(name, id, Ok(g)) {
                Ok(tg) => Ok((tg, timed_out)),
                Err(p) => Err(PoisonError::new((p.into_inner(), timed_out))),
            },
            Err(p) => {
                let (g, timed_out) = p.into_inner();
                match Self::reenter(name, id, Ok(g)) {
                    Ok(tg) => Err(PoisonError::new((tg, timed_out))),
                    Err(p2) => Err(PoisonError::new((p2.into_inner(), timed_out))),
                }
            }
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    fn reenter<'a, T>(
        name: &'static str,
        disarmed_id: u32,
        waited: LockResult<MutexGuard<'a, T>>,
    ) -> LockResult<TracedGuard<'a, T>> {
        #[cfg(any(debug_assertions, feature = "lock-witness"))]
        let id = state::enter(name);
        #[cfg(not(any(debug_assertions, feature = "lock-witness")))]
        let id = disarmed_id;
        #[cfg(any(debug_assertions, feature = "lock-witness"))]
        let _ = disarmed_id;
        match waited {
            Ok(g) => Ok(TracedGuard { name, id, inner: g }),
            Err(p) => Err(PoisonError::new(TracedGuard {
                name,
                id,
                inner: p.into_inner(),
            })),
        }
    }
}

impl fmt::Debug for TracedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedCondvar")
            .field("name", &self.name)
            .finish()
    }
}

impl<'a, T> TracedGuard<'a, T> {
    /// Splits into parts for a condvar wait, releasing the witness
    /// entry (the mutex itself is released by `Condvar::wait`).
    fn into_parts(self) -> (&'static str, u32, MutexGuard<'a, T>) {
        #[cfg(any(debug_assertions, feature = "lock-witness"))]
        state::exit(self.id);
        let me = std::mem::ManuallyDrop::new(self);
        // SAFETY: `me` is never dropped (ManuallyDrop), so the guard is
        // moved out exactly once and Drop::drop never observes it.
        let inner = unsafe { std::ptr::read(&me.inner) };
        (me.name, me.id, inner)
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// A snapshot of the dynamic lock-order graph: every named lock seen so
/// far and the recorded `held → acquired` edges, both sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WitnessReport {
    /// Lock names that appeared in at least one recorded acquisition.
    pub nodes: Vec<String>,
    /// Directed order edges `(held, acquired)`.
    pub edges: Vec<(String, String)>,
}

/// Which lock names a [`witness_report`] snapshot includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessFilter<'a> {
    /// Everything except [`RESERVED_PREFIXES`] fixtures — the report
    /// the exit assertion and CI artifact use.
    Default,
    /// Only names starting with this prefix — how a test scopes the
    /// global edge set down to its own scripted scenario.
    Prefix(&'a str),
}

/// Snapshots the recorded edge set. Always empty when the witness is
/// disarmed.
#[must_use]
pub fn witness_report(filter: WitnessFilter<'_>) -> WitnessReport {
    #[cfg(any(debug_assertions, feature = "lock-witness"))]
    {
        use std::collections::BTreeSet;
        let w = state::WITNESS
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let keep = |name: &str| match filter {
            WitnessFilter::Default => !RESERVED_PREFIXES.iter().any(|p| name.starts_with(p)),
            WitnessFilter::Prefix(p) => name.starts_with(p),
        };
        let mut nodes = BTreeSet::new();
        let mut edges = BTreeSet::new();
        for &(from, to) in &w.edges {
            let (f, t) = (w.names[from as usize], w.names[to as usize]);
            if keep(f) && keep(t) {
                nodes.insert(f.to_string());
                nodes.insert(t.to_string());
                edges.insert((f.to_string(), t.to_string()));
            }
        }
        WitnessReport {
            nodes: nodes.into_iter().collect(),
            edges: edges.into_iter().collect(),
        }
    }
    #[cfg(not(any(debug_assertions, feature = "lock-witness")))]
    {
        let _ = filter;
        WitnessReport::default()
    }
}

impl WitnessReport {
    /// Finds a cycle, returned as a lock-name path whose last element
    /// equals its first (`["a", "b", "a"]`), or `None` if acyclic.
    #[must_use]
    pub fn cycle(&self) -> Option<Vec<String>> {
        // Iterative DFS with white/grey/black coloring over the sorted
        // node list, so the reported cycle is deterministic.
        let index = |name: &str| self.nodes.iter().position(|n| n == name);
        let n = self.nodes.len();
        let mut succ = vec![Vec::new(); n];
        for (from, to) in &self.edges {
            if let (Some(f), Some(t)) = (index(from), index(to)) {
                succ[f].push(t);
            }
        }
        let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
        let mut parent = vec![usize::MAX; n];
        for root in 0..n {
            if color[root] != 0 {
                continue;
            }
            let mut stack = vec![(root, 0usize)];
            color[root] = 1;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < succ[v].len() {
                    let w = succ[v][*next];
                    *next += 1;
                    match color[w] {
                        0 => {
                            color[w] = 1;
                            parent[w] = v;
                            stack.push((w, 0));
                        }
                        1 => {
                            // Back edge v → w closes a cycle.
                            let mut path = vec![self.nodes[w].clone()];
                            let mut cur = v;
                            let mut rev = Vec::new();
                            while cur != w {
                                rev.push(self.nodes[cur].clone());
                                cur = parent[cur];
                            }
                            rev.reverse();
                            path.extend(rev);
                            path.push(self.nodes[w].clone());
                            return Some(path);
                        }
                        _ => {}
                    }
                } else {
                    color[v] = 2;
                    stack.pop();
                }
            }
        }
        None
    }

    /// `true` when [`WitnessReport::cycle`] finds nothing.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        self.cycle().is_none()
    }

    /// Serializes as the `lock-order.json` artifact (stable ordering,
    /// two-space pretty format with a trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let edges = self
            .edges
            .iter()
            .map(|(f, t)| {
                Json::Obj(vec![
                    ("from".into(), Json::Str(f.clone())),
                    ("to".into(), Json::Str(t.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::Int(1)),
            ("tool".into(), Json::Str("lotus-analyzer".into())),
            ("mode".into(), Json::Str("lock-witness".into())),
            (
                "nodes".into(),
                Json::Arr(self.nodes.iter().cloned().map(Json::Str).collect()),
            ),
            ("edges".into(), Json::Arr(edges)),
            ("acyclic".into(), Json::Bool(self.is_acyclic())),
        ])
        .pretty()
    }
}

// ---------------------------------------------------------------------------
// Process-exit assertion
// ---------------------------------------------------------------------------

/// Runs the exit-time witness check now: writes the default report to
/// `$LOTUS_LOCK_WITNESS` when that variable is set, and aborts with the
/// cycle path on stderr if the recorded graph (fixtures excluded) has a
/// cycle. Called automatically from a `.fini_array` destructor on
/// Linux; exposed so tests and non-Linux targets can invoke it.
pub fn witness_exit_check() {
    if !witness_enabled() {
        return;
    }
    let report = witness_report(WitnessFilter::Default);
    if let Ok(path) = std::env::var("LOTUS_LOCK_WITNESS") {
        if !path.is_empty() {
            // Best-effort: exit-path diagnostics must not panic.
            let _ = std::fs::write(&path, report.to_json());
        }
    }
    if let Some(path) = report.cycle() {
        eprintln!(
            "lock-witness: lock-order cycle observed at process exit: {}",
            path.join(" -> ")
        );
        std::process::abort();
    }
}

#[cfg(all(target_os = "linux", any(debug_assertions, feature = "lock-witness")))]
mod exit_hook {
    /// Registered in `.fini_array` so the check runs after `main` (and
    /// after libtest harnesses) without an atexit dependency.
    // SAFETY: `.fini_array` holds `extern "C" fn()` pointers the loader
    // invokes at process exit; `run` has exactly that ABI and signature
    // and never unwinds across the FFI boundary.
    #[used]
    #[unsafe(link_section = ".fini_array")]
    static WITNESS_EXIT_CHECK: extern "C" fn() = run;

    extern "C" fn run() {
        super::witness_exit_check();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_deref_and_release() {
        let m = TracedMutex::new("golden.sync.basic", 5usize);
        {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap(), 6);
        assert_eq!(m.name(), "golden.sync.basic");
        assert_eq!(m.into_inner().unwrap(), 6);
    }

    #[test]
    fn records_order_edges() {
        let a = TracedMutex::new("golden.sync.order-a", ());
        let b = TracedMutex::new("golden.sync.order-b", ());
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        drop(gb);
        drop(ga);
        let report = witness_report(WitnessFilter::Prefix("golden.sync.order-"));
        if witness_enabled() {
            assert_eq!(
                report.edges,
                vec![(
                    "golden.sync.order-a".to_string(),
                    "golden.sync.order-b".to_string()
                )]
            );
            assert!(report.is_acyclic());
        } else {
            assert!(report.edges.is_empty());
        }
    }

    #[test]
    fn non_lifo_drop_releases_the_right_entry() {
        let a = TracedMutex::new("golden.sync.fifo-a", ());
        let b = TracedMutex::new("golden.sync.fifo-b", ());
        let c = TracedMutex::new("golden.sync.fifo-c", ());
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        drop(ga); // out of LIFO order
        let gc = c.lock().unwrap();
        drop(gc);
        drop(gb);
        let report = witness_report(WitnessFilter::Prefix("golden.sync.fifo-"));
        if witness_enabled() {
            // a→b from the nested acquire; b→c after a was dropped. No
            // a→c: a was no longer held when c was taken.
            assert_eq!(
                report.edges,
                vec![
                    ("golden.sync.fifo-a".into(), "golden.sync.fifo-b".into()),
                    ("golden.sync.fifo-b".into(), "golden.sync.fifo-c".into()),
                ]
            );
        }
    }

    #[test]
    fn planted_abba_cycle_is_detected_and_quarantined() {
        if !witness_enabled() {
            return;
        }
        let a = TracedMutex::new("planted.witness.abba-a", ());
        let b = TracedMutex::new("planted.witness.abba-b", ());
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        let planted = witness_report(WitnessFilter::Prefix("planted.witness.abba-"));
        let path = planted
            .cycle()
            .expect("planted control 'witness-abba' was missed: no cycle reported");
        assert_eq!(path.first(), path.last());
        assert!(!planted.is_acyclic());
        // The default report must not see the planted fixture, or the
        // exit assertion would fail the whole suite.
        let default = witness_report(WitnessFilter::Default);
        assert!(default
            .nodes
            .iter()
            .all(|n| !n.starts_with("planted.witness.abba-")));
    }

    #[test]
    fn planted_relock_panics_instead_of_deadlocking() {
        if !witness_enabled() {
            return;
        }
        let m = std::sync::Arc::new(TracedMutex::new("planted.witness.relock", ()));
        let g = m.lock().unwrap();
        let m2 = std::sync::Arc::clone(&m);
        let err = std::panic::catch_unwind(move || {
            let _ = m2.lock();
        })
        .expect_err("planted control 'witness-relock' was missed: re-lock did not panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("planted.witness.relock"), "message: {msg}");
        drop(g);
        // The failed acquisition must not have leaked a held entry.
        let _g2 = m.lock().unwrap();
    }

    #[test]
    fn condvar_wait_releases_and_reacquires_witness_entry() {
        let m = std::sync::Arc::new(TracedMutex::new("golden.sync.cv-lock", false));
        let cv = std::sync::Arc::new(TracedCondvar::new("golden.sync.cv"));
        assert_eq!(cv.name(), "golden.sync.cv");
        let (m2, cv2) = (std::sync::Arc::clone(&m), std::sync::Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            *g = true;
            cv2.notify_all();
        });
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        t.join().unwrap();
        // A short timed wait exercises the timeout path too.
        let g = m.lock().unwrap();
        let (g, timed_out) = cv
            .wait_timeout(g, std::time::Duration::from_millis(1))
            .unwrap();
        assert!(timed_out.timed_out());
        drop(g);
        cv.notify_one();
    }

    #[test]
    fn report_json_is_stable_and_marks_acyclicity() {
        let a = TracedMutex::new("golden.sync.json-a", ());
        let b = TracedMutex::new("golden.sync.json-b", ());
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap();
        let report = witness_report(WitnessFilter::Prefix("golden.sync.json-"));
        let json = report.to_json();
        if witness_enabled() {
            assert_eq!(
                json,
                "{\n  \"schema_version\": 1,\n  \"tool\": \"lotus-analyzer\",\n  \"mode\": \"lock-witness\",\n  \"nodes\": [\n    \"golden.sync.json-a\",\n    \"golden.sync.json-b\"\n  ],\n  \"edges\": [\n    {\n      \"from\": \"golden.sync.json-a\",\n      \"to\": \"golden.sync.json-b\"\n    }\n  ],\n  \"acyclic\": true\n}\n"
            );
        }
        let parsed = crate::json::parse(&json).expect("witness report must be valid JSON");
        assert_eq!(
            parsed.get("mode").and_then(Json::as_str),
            Some("lock-witness")
        );
    }

    #[test]
    fn exit_check_is_callable() {
        // Must not abort on the (acyclic) state accumulated by this
        // test binary; planted fixtures are filtered out.
        witness_exit_check();
    }
}
