//! The durable snapshot store: crash-safe persistence for the registry.
//!
//! Explicitly registered graphs (a `LoadGraph` request or `--preload`)
//! are persisted as CRC-framed LOTG v2 snapshots under
//! `<data_dir>/snapshots/`, and the registry's logical state is
//! journaled in `<data_dir>/journal.lotj` (see [`crate::journal`]). The
//! write protocol makes each step crash-atomic:
//!
//! 1. snapshot → write to `<name>.lotg.tmp`, `fsync`, atomic rename to
//!    `<name>.lotg`, `fsync` the directory;
//! 2. only then append + sync the `Register` journal record.
//!
//! A crash between 1 and 2 leaves an orphan snapshot (garbage-collected
//! at the next checkpoint); a crash inside 1 leaves a `*.tmp` torn file
//! (quarantined at recovery); a crash inside 2 leaves a torn journal
//! tail (discarded at recovery). In every case the journal never
//! acknowledges a graph whose snapshot is not fully durable.
//!
//! Spec-shaped cache builds (`Count { name: "rmat:9:8:7" }` without a
//! prior `LoadGraph`) are *not* persisted — a deliberate non-guarantee,
//! since they are cheap to rebuild and would churn the journal.
//!
//! Locking protocol: the durable-map mutex doubles as the *commit
//! lock*. Every mutation (`record_register`, `record_evict`,
//! `checkpoint`) holds it for its full sequence of snapshot write,
//! journal append, and map update, so a checkpoint can never observe
//! (and GC away) a half-committed registration, and its temp-file
//! sweep is serialized against in-flight snapshot writes. Lock order
//! is always durable → journal; nothing acquires them the other way.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};

use lotus_telemetry::sync::{TracedGuard, TracedMutex};

use lotus_graph::io::write_binary;
use lotus_graph::{GraphError, UndirectedCsr};
use lotus_resilience::fault_point;

use crate::journal::{self, Journal, JournalRecord};
use crate::metrics::Metrics;
use crate::recovery::{self, RecoveredState};

/// File suffix of a complete snapshot.
pub const SNAPSHOT_SUFFIX: &str = ".lotg";
/// File suffix of an in-progress snapshot write.
pub const TEMP_SUFFIX: &str = ".lotg.tmp";

/// A durability-layer failure, tagged with the step that failed.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure during `op` (snapshot write, fsync, rename,
    /// journal append...).
    Io {
        /// Which durability step failed.
        op: &'static str,
        /// The underlying error.
        source: io::Error,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, source } => write!(f, "durability {op} failed: {source}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
        }
    }
}

fn io_err(op: &'static str) -> impl FnOnce(io::Error) -> StoreError {
    move |source| StoreError::Io { op, source }
}

/// The durable store: owns the journal, the snapshot directory, and the
/// durable `name → spec` manifest. All methods are callable from any
/// worker thread.
#[derive(Debug)]
pub struct DurableStore {
    data_dir: PathBuf,
    journal: TracedMutex<Journal>,
    durable: TracedMutex<HashMap<String, String>>,
    /// The owning server's table: recovery, snapshot and journal rows.
    metrics: Arc<Metrics>,
}

impl DurableStore {
    /// Opens (creating directories as needed) the store under
    /// `data_dir`, running full recovery first: journal replay, snapshot
    /// CRC verification, quarantine of damaged files, compaction of a
    /// torn journal. Returns the store plus the recovered graphs for the
    /// caller to re-prepare. The store counts into a table of its own.
    ///
    /// # Errors
    /// Environmental I/O failures only; damaged durability files are
    /// quarantined, never fatal.
    pub fn open(data_dir: impl AsRef<Path>) -> Result<(DurableStore, RecoveredState), StoreError> {
        DurableStore::open_with_metrics(data_dir, Arc::default())
    }

    /// [`DurableStore::open`], counting the recovery and every later
    /// snapshot and journal write into the server's `metrics`.
    ///
    /// # Errors
    /// As [`DurableStore::open`].
    pub(crate) fn open_with_metrics(
        data_dir: impl AsRef<Path>,
        metrics: Arc<Metrics>,
    ) -> Result<(DurableStore, RecoveredState), StoreError> {
        let data_dir = data_dir.as_ref().to_path_buf();
        std::fs::create_dir_all(data_dir.join("snapshots")).map_err(io_err("data dir create"))?;
        // Freshly created directories need their parents synced too, or
        // a power loss can drop the whole tree (and with it the journal
        // and snapshots) from the namespace.
        journal::sync_parent_dir(&data_dir.join("snapshots")).map_err(io_err("data dir fsync"))?;
        journal::sync_parent_dir(&data_dir).map_err(io_err("data dir fsync"))?;
        let recovered = recovery::recover(&data_dir, false).map_err(io_err("recovery"))?;
        let journal =
            Journal::open(data_dir.join("journal.lotj")).map_err(io_err("journal open"))?;
        let report = &recovered.report;
        metrics.journal_replays.add(report.journal_records);
        metrics
            .recovery_quarantined
            .add(report.quarantined.len() as u64);
        metrics.recovery_ms.add(report.recovery_ms);
        let store = DurableStore {
            data_dir,
            journal: TracedMutex::new("serve.store.journal", journal),
            durable: TracedMutex::new(
                "serve.store.durable",
                recovered.entries.iter().cloned().collect(),
            ),
            metrics,
        };
        Ok((store, recovered))
    }

    /// The directory this store persists under.
    #[must_use]
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Names currently in the durable manifest, sorted.
    #[must_use]
    pub fn durable_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock_durable().keys().cloned().collect();
        names.sort();
        names
    }

    /// True when `name` is durably registered.
    #[must_use]
    pub fn is_durable(&self, name: &str) -> bool {
        self.lock_durable().contains_key(name)
    }

    /// Persists an explicit registration: snapshot first (temp, fsync,
    /// rename, dir fsync), then the synced `Register` journal record.
    /// When this returns `Ok`, a crash at any later point recovers the
    /// graph bit-identically. The commit lock is held across all three
    /// steps so a concurrent checkpoint sees the registration either
    /// not at all or fully committed — never a snapshot without its
    /// manifest entry (which GC would delete as an orphan).
    ///
    /// # Errors
    /// [`StoreError::Io`] naming the failed step. A failed snapshot
    /// write deliberately leaves its `*.tmp` behind — the same artifact
    /// a crash would leave — for recovery to quarantine.
    pub fn record_register(
        &self,
        name: &str,
        spec: &str,
        graph: &UndirectedCsr,
    ) -> Result<(), StoreError> {
        let mut durable = self.lock_durable();
        self.write_snapshot(name, graph)?;
        self.append(&JournalRecord::Register {
            name: name.to_string(),
            spec: spec.to_string(),
        })?;
        durable.insert(name.to_string(), spec.to_string());
        Ok(())
    }

    /// Journals an eviction and drops the snapshot. Called for explicit
    /// `EvictGraph` requests and for LRU evictions of durable graphs.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the journal append fails; the snapshot file
    /// removal is best-effort (checkpoint GC sweeps leftovers).
    pub fn record_evict(&self, name: &str) -> Result<(), StoreError> {
        let mut durable = self.lock_durable();
        let Some(spec) = durable.remove(name) else {
            return Ok(());
        };
        if let Err(e) = self.append(&JournalRecord::Evict {
            name: name.to_string(),
        }) {
            // The journal still says registered; keep the map in sync
            // so a later checkpoint doesn't silently drop the graph.
            durable.insert(name.to_string(), spec);
            return Err(e);
        }
        let _ = std::fs::remove_file(self.snapshot_path(name));
        Ok(())
    }

    /// Compacts the journal to a single `Checkpoint` of the current
    /// manifest and garbage-collects snapshots (and stray temp files)
    /// no longer referenced. Run periodically by the daemon.
    ///
    /// # Errors
    /// [`StoreError::Io`] if the rewrite or reopen fails.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        // Commit lock first (durable → journal order), held through the
        // GC sweep: no registration can be mid-flight while we clone
        // the manifest, rewrite the journal, or delete files — so the
        // sweep never eats a temp file an active write_snapshot owns,
        // and never GCs a snapshot whose Register record is about to
        // land. The journal lock is additionally held across rewrite +
        // reopen so no append lands on the unlinked old file.
        let durable = self.lock_durable();
        let mut journal = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries: Vec<(String, String)> = durable
            .iter()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect();
        entries.sort();
        journal::rewrite(journal.path(), &entries).map_err(io_err("journal rewrite"))?;
        let reopened = Journal::open(journal.path()).map_err(io_err("journal reopen"))?;
        *journal = reopened;
        self.metrics.journal_appends.incr();

        for (name, path) in recovery::snapshots_on_disk(&self.data_dir) {
            if !durable.contains_key(&name) {
                let _ = std::fs::remove_file(path);
            }
        }
        if let Ok(dir) = std::fs::read_dir(snapshot_dir(&self.data_dir)) {
            for entry in dir.flatten() {
                let path = entry.path();
                if path.to_string_lossy().ends_with(TEMP_SUFFIX) {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        Ok(())
    }

    /// Full path of `name`'s snapshot file.
    #[must_use]
    pub fn snapshot_path(&self, name: &str) -> PathBuf {
        snapshot_dir(&self.data_dir).join(snapshot_file_name(name))
    }

    fn lock_durable(&self) -> TracedGuard<'_, HashMap<String, String>> {
        self.durable.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn append(&self, record: &JournalRecord) -> Result<(), StoreError> {
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(record)
            .map_err(io_err("journal append"))?;
        self.metrics.journal_appends.incr();
        Ok(())
    }

    fn write_snapshot(&self, name: &str, graph: &UndirectedCsr) -> Result<(), StoreError> {
        let final_path = self.snapshot_path(name);
        let tmp_path =
            snapshot_dir(&self.data_dir).join(format!("{}{TEMP_SUFFIX}", enc_name(name)));
        let edges = graph.to_canonical_edges();
        let mut bytes = Vec::new();
        write_binary(&edges, &mut bytes).map_err(|e| StoreError::Io {
            op: "snapshot encode",
            source: match e {
                GraphError::Io(io) => io,
                other => io::Error::other(other.to_string()),
            },
        })?;

        // Chunked writes with a fault point per chunk: an injected error
        // (or a real crash) leaves a genuinely partial temp file behind,
        // exactly the artifact recovery must quarantine — so no cleanup
        // on the error paths below.
        let mut file = File::create(&tmp_path).map_err(io_err("snapshot create"))?;
        for chunk in bytes.chunks(4096) {
            file.write_all(chunk).map_err(io_err("snapshot write"))?;
            fault_point!("serve.snapshot.write").map_err(io_err("snapshot write"))?;
        }
        fault_point!("serve.snapshot.fsync").map_err(io_err("snapshot fsync"))?;
        file.sync_data().map_err(io_err("snapshot fsync"))?;
        drop(file);
        fault_point!("serve.snapshot.rename").map_err(io_err("snapshot rename"))?;
        std::fs::rename(&tmp_path, &final_path).map_err(io_err("snapshot rename"))?;
        journal::sync_parent_dir(&final_path).map_err(io_err("snapshot dir fsync"))?;
        self.metrics.snapshot_writes.incr();
        Ok(())
    }
}

/// The snapshot directory under a data dir.
#[must_use]
pub fn snapshot_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("snapshots")
}

/// The file name a graph name persists under.
#[must_use]
pub fn snapshot_file_name(name: &str) -> String {
    format!("{}{SNAPSHOT_SUFFIX}", enc_name(name))
}

/// Percent-encodes a registry name into a safe file stem: bytes outside
/// `[A-Za-z0-9._-]` become `%XX` (so `rmat:9:8:7` → `rmat%3A9%3A8%3A7`).
#[must_use]
pub fn enc_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-') {
            out.push(b as char);
        } else {
            out.push('%');
            out.push_str(&format!("{b:02X}"));
        }
    }
    out
}

/// Inverse of [`enc_name`]; malformed escapes decode as literal bytes.
#[must_use]
pub fn dec_name(stem: &str) -> String {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(hi), Some(lo)) = (
                bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
            ) {
                out.push((hi * 16 + lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_gen::Rmat;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lotus-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn name_encoding_round_trips() {
        for name in [
            "plain",
            "rmat:9:8:7",
            "er:100:400:1",
            "path:data/web.lotg",
            "a b%c",
        ] {
            let enc = enc_name(name);
            assert!(
                enc.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-' | b'%')),
                "{enc}"
            );
            assert_eq!(dec_name(&enc), name);
        }
        // Malformed escapes survive as literals instead of panicking.
        assert_eq!(dec_name("x%ZZy"), "x%ZZy");
        assert_eq!(dec_name("tail%"), "tail%");
    }

    #[test]
    fn register_persists_and_reopen_recovers() {
        let dir = tmp_dir("reopen");
        let graph = Rmat::new(6, 4).generate(1);
        {
            let metrics = Arc::new(Metrics::default());
            let (store, state) =
                DurableStore::open_with_metrics(&dir, Arc::clone(&metrics)).unwrap();
            assert!(state.graphs.is_empty());
            store.record_register("g", "rmat:6:4:1", &graph).unwrap();
            assert!(store.is_durable("g"));
            assert_eq!(
                (metrics.snapshot_writes(), metrics.journal_appends()),
                (1, 1)
            );
        }
        let (store, state) = DurableStore::open(&dir).unwrap();
        assert_eq!(state.graphs.len(), 1);
        assert_eq!(state.graphs[0].edges, graph.to_canonical_edges());
        assert_eq!(store.durable_names(), vec!["g".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_removes_from_manifest_and_disk() {
        let dir = tmp_dir("evict");
        let graph = Rmat::new(6, 4).generate(1);
        let metrics = Arc::new(Metrics::default());
        let (store, _) = DurableStore::open_with_metrics(&dir, Arc::clone(&metrics)).unwrap();
        store.record_register("g", "rmat:6:4:1", &graph).unwrap();
        let snap = store.snapshot_path("g");
        assert!(snap.exists());
        store.record_evict("g").unwrap();
        assert!(!store.is_durable("g"));
        assert!(!snap.exists());
        // Evicting a non-durable name is a no-op, not a journal record.
        let appends_before = metrics.journal_appends();
        store.record_evict("never-registered").unwrap();
        assert_eq!(metrics.journal_appends(), appends_before);
        drop(store);
        let (_, state) = DurableStore::open(&dir).unwrap();
        assert!(state.graphs.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_never_loses_concurrent_registrations() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = tmp_dir("race");
        let graph = Rmat::new(6, 4).generate(1);
        let store = Arc::new(DurableStore::open(&dir).unwrap().0);
        let stop = Arc::new(AtomicBool::new(false));
        // Checkpoint as fast as possible while registrations stream in:
        // every acked registration must survive the reopen, and no
        // checkpoint GC may delete an in-flight temp file (which would
        // fail the registration's rename with NotFound).
        let ckpt = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    store.checkpoint().unwrap();
                }
            })
        };
        for i in 0..32 {
            store
                .record_register(&format!("g{i}"), "rmat:6:4:1", &graph)
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        ckpt.join().unwrap();
        drop(store);

        let (store, state) = DurableStore::open(&dir).unwrap();
        assert!(
            state.report.quarantined.is_empty(),
            "no acked registration may be lost or torn: {:?}",
            state.report.quarantined
        );
        assert_eq!(state.graphs.len(), 32);
        assert_eq!(store.durable_names().len(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_collects_orphans() {
        let dir = tmp_dir("ckpt");
        let graph = Rmat::new(6, 4).generate(1);
        let (store, _) = DurableStore::open(&dir).unwrap();
        store.record_register("a", "rmat:6:4:1", &graph).unwrap();
        store.record_register("b", "rmat:6:4:2", &graph).unwrap();
        store.record_evict("a").unwrap();
        // Plant an orphan snapshot (crash between snapshot and journal
        // record) and a stray temp file.
        std::fs::write(snapshot_dir(&dir).join("orphan.lotg"), b"junk").unwrap();
        std::fs::write(snapshot_dir(&dir).join("stray.lotg.tmp"), b"junk").unwrap();
        store.checkpoint().unwrap();
        assert!(!snapshot_dir(&dir).join("orphan.lotg").exists());
        assert!(!snapshot_dir(&dir).join("stray.lotg.tmp").exists());
        let readout = journal::read_journal(dir.join("journal.lotj")).unwrap();
        assert_eq!(readout.records.len(), 1, "compacted to one checkpoint");
        // Appends after a checkpoint land in the new file.
        store.record_register("c", "rmat:6:4:3", &graph).unwrap();
        drop(store);
        let (store, state) = DurableStore::open(&dir).unwrap();
        let mut names: Vec<&str> = state.graphs.iter().map(|g| g.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(
            store.durable_names(),
            vec!["b".to_string(), "c".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
