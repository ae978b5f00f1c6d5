//! The always-on serving counters: one table per server (DESIGN.md
//! §9.1). A daemon's or coordinator's [`Engine`](crate::event_loop::Engine)
//! creates its [`Metrics`] and shares it with the worker pool; the daemon
//! hands it to its registry and durable store too. Each layer bumps its
//! rows where the event happens, in every build, and
//! [`Engine::stats`](crate::event_loop::Engine::stats) reads them into a
//! `Stats` reply.

use std::sync::atomic::{AtomicU64, Ordering};

/// One counter of the table: a relaxed atomic.
#[derive(Debug, Default)]
pub struct Row(AtomicU64);

impl Row {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes one away: `conns_open` is a gauge and falls when a
    /// connection closes.
    pub(crate) fn decr(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares the table once: each row with its doc comment becomes a
/// public field to bump and an accessor of the same name to read.
macro_rules! metrics {
    ($($(#[doc = $doc:literal])* $row:ident,)*) => {
        /// The always-on counter table of one server.
        #[derive(Debug, Default)]
        pub struct Metrics {$(
            $(#[doc = $doc])*
            pub $row: Row,
        )*}

        impl Metrics {$(
            $(#[doc = $doc])*
            #[must_use]
            pub fn $row(&self) -> u64 {
                self.$row.get()
            }
        )*}
    };
}

metrics! {
    /// Requests answered: successfully on a daemon, with any outcome on
    /// a coordinator.
    served,
    /// Requests refused admission (a full queue or the connection quota).
    overloaded,
    /// Requests that expired their deadline.
    deadline_expired,
    /// Worker panics confined by request isolation or the pool's
    /// backstop.
    panics,
    /// Registry lookups served from the cache.
    cache_hits,
    /// Registry lookups that had to build or load the graph.
    cache_misses,
    /// Graph snapshots durably written.
    snapshot_writes,
    /// Journal records appended and synced.
    journal_appends,
    /// Journal records replayed by startup recovery.
    journal_replays,
    /// Files quarantined by startup recovery.
    recovery_quarantined,
    /// Milliseconds the startup recovery pass took.
    recovery_ms,
    /// Connections accepted since startup.
    conns_accepted,
    /// Connections open right now.
    conns_open,
    /// Socket writes that could not complete in one call (resumed when
    /// the socket signals writable again).
    partial_writes,
    /// Shard calls a coordinator fanned out.
    fanout_calls,
    /// Fanned-out shard calls that resolved to an error (dead, slow, or
    /// desynced shard).
    shard_failures,
    /// Degraded partial `Count` answers a coordinator returned.
    partial_answers,
    /// Malformed shard-map journal entries a coordinator's recovery
    /// tolerated.
    map_recovery_errors,
}
