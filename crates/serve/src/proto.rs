//! The `lotus-serve` wire protocol: length-prefixed binary frames.
//!
//! Every message (request or response) travels in one frame:
//!
//! ```text
//! magic  "LSRV"          4 bytes
//! version u32            4 bytes   (currently 1)
//! payload_len u32        4 bytes   (bytes of payload, ≤ MAX_FRAME_PAYLOAD)
//! payload                payload_len bytes
//! crc32 u32              4 bytes   (over everything above)
//! ```
//!
//! The framing reuses the v2 discipline of `lotus_graph::io`: a magic +
//! version prefix, a CRC32 trailer over the whole frame, and *untrusted*
//! header fields — a declared payload length is validated against
//! [`MAX_FRAME_PAYLOAD`] before any allocation, and buffer reservations
//! are additionally capped at `lotus_graph::io::MAX_PREALLOC_BYTES`, so a
//! hostile 4 GiB length costs a typed error, not an allocation.
//!
//! Payloads are a one-byte tag followed by little-endian fields; strings
//! are a u16 length plus UTF-8 bytes. Deadlines travel as milliseconds
//! with [`NO_DEADLINE`] meaning "none" (so an explicit `0` is an
//! *already-expired* deadline — useful for admission-control tests).
//!
//! Each message is declared once in the message table below (tag, fields
//! in wire order, JSON keys); the table macros derive its Rust type,
//! encoder, decoder and JSON form, so a new field is one line.

use std::io::{Read, Write};

use lotus_graph::crc32::Crc32;
use lotus_graph::io::MAX_PREALLOC_BYTES;
use lotus_telemetry::json::Json;

/// Frame magic, distinct from the `.lotg` file magic.
pub const MAGIC: &[u8; 4] = b"LSRV";
/// Current protocol version.
pub const VERSION: u32 = 1;
/// Hard cap on a frame's declared payload length. Larger declarations
/// are rejected before any allocation happens.
pub const MAX_FRAME_PAYLOAD: u32 = 4 << 20;
/// Sentinel for "no deadline" in the wire encoding of deadlines.
pub const NO_DEADLINE: u64 = u64::MAX;
/// Largest per-vertex slice a single request may ask for (bounds the
/// response frame size: 64 Ki counts × 8 bytes = 512 KiB).
pub const MAX_PER_VERTEX_SPAN: u32 = 1 << 16;
/// Largest clique size `KClique` accepts.
pub const MAX_CLIQUE_K: u32 = 8;
/// Largest number of sub-requests in one `Batch`.
pub const MAX_BATCH: usize = 256;

/// A protocol-level failure while reading or decoding a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure (includes EOF between frames).
    Io(std::io::Error),
    /// Stream did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u32),
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// Connection closed mid-frame.
    Truncated,
    /// CRC32 trailer mismatch.
    BadCrc {
        /// Checksum stored in the frame trailer.
        stored: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// Payload bytes do not decode as a valid message.
    Malformed(String),
    /// First payload byte is not a known message tag.
    UnknownTag(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Oversized(len) => write!(
                f,
                "declared payload length {len} exceeds cap {MAX_FRAME_PAYLOAD}"
            ),
            ProtoError::Truncated => write!(f, "connection closed mid-frame"),
            ProtoError::BadCrc { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ProtoError::Malformed(m) => write!(f, "malformed payload: {m}"),
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------
// The message table
// ---------------------------------------------------------------------

/// Declares a wire enum once and derives its codec: the Rust type, the
/// tagged little-endian encoding, the decoder and the JSON value.
///
/// Each row is `tag => Variant`, then optionally
/// - `["marker"]`: the JSON object opens with `"marker": true`;
/// - `(binding: Type)` with an optional `as "key"`: a newtype variant
///   whose payload is one [`Field`]; its JSON is the payload's own value,
///   or an object holding it under `key`;
/// - `{ field as "key": Type, .. }`: fields in wire order, each rendered
///   under its own name or the given `key`.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {$(
            $(#[$vmeta:meta])*
            $tag:literal => $variant:ident $([$marker:literal])?
                $(($inner:ident: $ity:ty) $(as $ikey:literal)?)?
                $({$($(#[$fmeta:meta])* $field:ident $(as $fkey:literal)?: $fty:ty,)*})?
        ),* $(,)?}
    ) => {
        $(#[$meta])*
        pub enum $name {$(
            $(#[$vmeta])*
            $variant $(($ity))? $({$($(#[$fmeta])* $field: $fty,)*})?,
        )*}

        impl $name {
            /// Encodes the payload (tag + fields).
            ///
            /// # Errors
            /// Returns [`ProtoError::Malformed`] when a string or list
            /// outgrows its length prefix, or a batch nests or exceeds
            /// [`MAX_BATCH`].
            pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
                let mut e = Enc::default();
                self.put(&mut e)?;
                Ok(e.buf)
            }

            /// Decodes a payload.
            ///
            /// # Errors
            /// Returns [`ProtoError::UnknownTag`] for an unrecognized
            /// first byte and [`ProtoError::Malformed`] for anything that
            /// does not decode.
            pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
                let mut d = Dec::new(payload);
                let message = Self::get(&mut d)?;
                d.finish()?;
                Ok(message)
            }
        }

        impl Message for $name {}

        impl Field for $name {
            fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
                match self {$(
                    $name::$variant $(($inner))? $({$($field),*})? => {
                        e.buf.push($tag);
                        $($inner.put(e)?;)?
                        $($($field.put(e)?;)*)?
                    }
                )*}
                Ok(())
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
                Ok(match d.u8()? {
                    $($tag => $name::$variant
                        $((<$ity as Field>::get(d)?))?
                        $({$($field: Field::get(d)?,)*})?,)*
                    other => return Err(ProtoError::UnknownTag(other)),
                })
            }

            fn json(&self) -> Json {
                match self {$(
                    $name::$variant $(($inner))? $({$($field),*})? => json_of!(
                        [$($marker)?] $(($inner $(as $ikey)?))? $($($field $(as $fkey)?),*)?
                    ),
                )*}
            }
        }
    };
}

/// The JSON value of one `wire_enum!` row (see there).
macro_rules! json_of {
    ([] ($inner:ident)) => {
        $inner.json()
    };
    ([] ($inner:ident as $key:literal)) => {
        Json::Obj(vec![($key.into(), $inner.json())])
    };
    ([$($marker:literal)?] $($field:ident $(as $key:literal)?),*) => {
        Json::Obj(vec![
            $(($marker.into(), Json::Bool(true)),)?
            $((json_key!($field $($key)?).into(), $field.json()),)*
        ])
    };
}

macro_rules! json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Declares a wire struct once: fields in wire order, its JSON an object
/// keyed by field name.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {$(
            $(#[$fmeta:meta])*
            pub $field:ident: $fty:ty,
        )*}
    ) => {
        $(#[$meta])*
        pub struct $name {$(
            $(#[$fmeta])*
            pub $field: $fty,
        )*}

        impl Field for $name {
            fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
                $(self.$field.put(e)?;)*
                Ok(())
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
                Ok($name {
                    $($field: Field::get(d)?,)*
                })
            }

            fn json(&self) -> Json {
                Json::Obj(vec![$((stringify!($field).into(), self.$field.json()),)*])
            }
        }
    };
}

/// Declares [`ErrorKind`] once: each kind with its snake_case name, and
/// declaration order as the wire tag.
macro_rules! error_kinds {
    ($($(#[$meta:meta])* $kind:ident = $label:literal,)*) => {
        /// Why a request failed, as carried by [`Response::Error`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ErrorKind {$(
            $(#[$meta])*
            $kind,
        )*}

        impl ErrorKind {
            const ALL: [ErrorKind; [$($label),*].len()] = [$(ErrorKind::$kind),*];

            /// Stable snake_case name (the `"error"` field of the JSON form).
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $(ErrorKind::$kind => $label,)*
                }
            }
        }
    };
}

error_kinds! {
    /// Frame-level problem (bad magic/version/length/CRC).
    Protocol = "protocol",
    /// Well-framed but semantically invalid request.
    BadRequest = "bad_request",
    /// Named graph is not resident and the name is not a buildable spec.
    NotFound = "not_found",
    /// Bounded request queue was full; retry later.
    Overloaded = "overloaded",
    /// The request's deadline expired before or during execution.
    DeadlineExpired = "deadline_expired",
    /// The request was cancelled.
    Cancelled = "cancelled",
    /// A worker panicked executing the request (isolated; daemon lives).
    WorkerPanic = "worker_panic",
    /// The daemon is draining and no longer accepts work.
    ShuttingDown = "shutting_down",
    /// The request succeeded in memory but its durability step
    /// (snapshot or journal) failed — the result is not crash-safe.
    DurabilityFailed = "durability_failed",
    /// A cluster fan-out could not reach (or timed out waiting for) a
    /// shard daemon, so the exact merged answer cannot be produced.
    ShardUnavailable = "shard_unavailable",
}

impl ErrorKind {
    fn tag(self) -> u8 {
        self as u8
    }

    fn from_tag(t: u8) -> Result<ErrorKind, ProtoError> {
        ErrorKind::ALL
            .get(t as usize)
            .copied()
            .ok_or(ProtoError::Malformed(format!("unknown error kind {t}")))
    }
}

wire_enum! {
    /// A client request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// Liveness probe.
        0 => Ping,
        /// Server / registry statistics.
        1 => Stats,
        /// Total triangle count of a resident (or spec-buildable) graph.
        2 => Count {
            /// Registry key: a loaded name or a buildable spec.
            name: String,
            /// Milliseconds until the deadline; [`NO_DEADLINE`] for none.
            deadline_ms: u64,
        },
        /// Per-vertex triangle counts over `[start, end)` (original IDs).
        /// `start == end == 0` means the whole graph (still capped at
        /// [`MAX_PER_VERTEX_SPAN`]).
        3 => PerVertex {
            /// Registry key.
            name: String,
            /// First vertex of the slice.
            start: u32,
            /// One past the last vertex of the slice.
            end: u32,
            /// Milliseconds until the deadline; [`NO_DEADLINE`] for none.
            deadline_ms: u64,
        },
        /// k-clique count (`1 ≤ k ≤` [`MAX_CLIQUE_K`]).
        4 => KClique {
            /// Registry key.
            name: String,
            /// Clique size.
            k: u32,
            /// Milliseconds until the deadline; [`NO_DEADLINE`] for none.
            deadline_ms: u64,
        },
        /// Admin: build/load a graph into the registry under `name`.
        5 => LoadGraph {
            /// Registry key to store under.
            name: String,
            /// Graph source spec (see `registry::GraphSpec`).
            spec: String,
        },
        /// Admin: drop a graph from the registry.
        6 => EvictGraph {
            /// Registry key to drop.
            name: String,
        },
        /// Admin: finish in-flight work, then shut the daemon down.
        7 => Drain,
        /// Several non-admin requests executed as one worker-pool job (one
        /// queue slot, one span) — the batching path.
        8 => Batch(items: Vec<Request>) as "batch",
        /// Cluster: build the graph from `spec`, extract the edge-balanced
        /// partition `index` of `parts` as a shard subgraph (owned forward
        /// columns plus ghost columns), and store it under `name`. The full
        /// graph is built transiently from the deterministic spec; only the
        /// subgraph stays resident.
        9 => ShardLoad {
            /// Shard-store key.
            name: String,
            /// Deterministic graph spec (see `registry::GraphSpec`).
            spec: String,
            /// Total shards the graph is split across.
            parts: u32,
            /// This shard's partition index (`0 ≤ index < parts`).
            index: u32,
        },
        /// Cluster: count the triangles owned by the shard subgraph `name`
        /// (apex-restricted — exact when summed across all shards).
        10 => ShardCount {
            /// Shard-store key.
            name: String,
            /// Milliseconds until the deadline; [`NO_DEADLINE`] for none.
            deadline_ms: u64,
        },
        /// Cluster: this shard's contribution to per-vertex counts over the
        /// window `[start, end)`; element-wise sums across shards are exact.
        11 => ShardPerVertex {
            /// Shard-store key.
            name: String,
            /// First vertex of the window.
            start: u32,
            /// One past the last vertex of the window.
            end: u32,
            /// Milliseconds until the deadline; [`NO_DEADLINE`] for none.
            deadline_ms: u64,
        },
        /// Cluster: a shard daemon announces itself to the coordinator.
        12 => ShardJoin {
            /// Address (`host:port`) the coordinator should dial back.
            addr: String,
        },
        /// Cluster: health/occupancy probe answered by a shard daemon.
        13 => ShardStat,
    }
}

wire_struct! {
    /// Server/registry statistics carried by [`Response::Stats`]. These are
    /// the always-on serving counters; armed `telemetry` builds mirror them
    /// into `lotus_telemetry::counters` as well.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StatsReply {
        /// Graphs resident in the registry.
        pub graphs: u32,
        /// Bytes charged against the registry's memory budget.
        pub resident_bytes: u64,
        /// The registry's byte budget.
        pub budget_bytes: u64,
        /// Requests answered successfully.
        pub requests_served: u64,
        /// Requests rejected by admission control.
        pub overloaded: u64,
        /// Requests that expired their deadline.
        pub deadline_expired: u64,
        /// Registry lookups served from cache.
        pub cache_hits: u64,
        /// Registry lookups that had to build/load.
        pub cache_misses: u64,
        /// Worker panics confined by isolation.
        pub panics: u64,
        /// Worker threads in the pool.
        pub workers: u32,
        /// Capacity of the bounded request queue.
        pub queue_capacity: u32,
        /// Graph snapshots durably written (0 without a data dir).
        pub snapshot_writes: u64,
        /// Manifest journal records appended and synced.
        pub journal_appends: u64,
        /// Journal records replayed by startup recovery.
        pub journal_replays: u64,
        /// Files quarantined by startup recovery.
        pub recovery_quarantined: u64,
        /// Milliseconds the startup recovery pass took.
        pub recovery_ms: u64,
        /// Connections accepted since startup.
        pub conns_accepted: u64,
        /// Connections open right now.
        pub conns_open: u64,
        /// Event-loop threads multiplexing connections.
        pub event_threads: u32,
        /// Per-event-loop readiness/wakeup tallies, indexed by loop thread.
        /// Lets the soak lane spot one hot loop that totals would hide.
        pub loop_stats: Vec<LoopStat>,
    }
}

wire_struct! {
    /// One event-loop thread's always-on activity counters (a row of
    /// [`StatsReply::loop_stats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LoopStat {
        /// Readiness events delivered to this loop by the poller.
        pub readiness_events: u64,
        /// Times this loop's `wait` returned (including waker nudges).
        pub loop_wakeups: u64,
    }
}

wire_enum! {
    /// A server response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        /// Reply to [`Request::Ping`].
        0 => Pong ["pong"],
        /// Reply to [`Request::Stats`].
        1 => Stats(stats: StatsReply),
        /// Reply to [`Request::Count`].
        2 => Count {
            /// Total triangles.
            triangles: u64,
            /// Whether the preprocessed graph came from the registry cache.
            cached: bool,
            /// Server-side execution time, microseconds.
            wall_micros: u64,
        },
        /// Reply to [`Request::PerVertex`].
        3 => PerVertex {
            /// First vertex of the returned slice.
            start: u32,
            /// Per-vertex triangle counts for `[start, start + len)`.
            counts: Vec<u64>,
        },
        /// Reply to [`Request::KClique`].
        4 => KClique {
            /// Clique size counted.
            k: u32,
            /// Number of k-cliques.
            cliques: u64,
        },
        /// Reply to [`Request::LoadGraph`].
        5 => Loaded ["loaded"] {
            /// Vertices of the loaded graph.
            vertices: u32,
            /// Undirected edges.
            edges: u64,
            /// Bytes charged against the registry budget.
            bytes: u64,
            /// Resident graphs evicted to make room.
            evicted: u32,
        },
        /// Reply to [`Request::EvictGraph`].
        6 => Evicted {
            /// Whether the name was resident.
            existed as "evicted": bool,
        },
        /// Reply to [`Request::Drain`]: the daemon finishes in-flight work
        /// and exits.
        7 => Draining ["draining"],
        /// Reply to [`Request::Batch`]: one response per sub-request.
        8 => Batch(items: Vec<Response>) as "batch",
        /// A structured failure.
        9 => Error {
            /// Failure category.
            kind as "error": ErrorKind,
            /// Human-readable detail.
            message: String,
        },
        /// Reply to [`Request::ShardJoin`]: the coordinator acknowledges the
        /// shard and reports the fleet size it now tracks.
        10 => ShardJoined ["joined"] {
            /// Shards registered with the coordinator after this join.
            shards: u32,
        },
        /// Reply to [`Request::ShardStat`]: a shard daemon's occupancy.
        11 => ShardStat {
            /// Shard subgraphs resident in the shard store.
            graphs as "shard_graphs": u32,
            /// Vertices owned across resident shard subgraphs.
            owned_vertices: u64,
            /// Forward entries resident (owned plus ghost columns).
            entries: u64,
            /// Entries held in ghost (non-owned) columns.
            ghost_entries: u64,
        },
    }
}

impl Response {
    /// Convenience constructor for [`Response::Error`].
    #[must_use]
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error {
            kind,
            message: message.into(),
        }
    }

    /// The JSON rendering printed by `lotus query`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.json()
    }
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

/// One wire type: its single little-endian encoding and its single JSON
/// value. Every message field is a `Field`, and so is every message, so
/// the message table below derives each codec from its field types.
trait Field: Sized {
    fn put(&self, e: &mut Enc) -> Result<(), ProtoError>;
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError>;
    fn json(&self) -> Json;
}

/// A tagged message ([`Request`] or [`Response`]): the item type of a
/// `Batch` body.
trait Message: Field {}

/// A payload under construction.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
    /// Inside a `Batch` item, where another batch is malformed.
    in_batch: bool,
}

/// Cursor over a received payload. All reads are bounds-checked; running
/// past the end is a [`ProtoError::Malformed`]. The manifest journal
/// decodes its records with it too.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Inside a `Batch` item, where another batch is malformed.
    in_batch: bool,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            in_batch: false,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtoError::Malformed("payload ends early".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        u32::get(self)
    }

    /// Reads `len` bytes as a UTF-8 string.
    pub(crate) fn utf8(&mut self, len: usize) -> Result<String, ProtoError> {
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ProtoError::Malformed("string is not UTF-8".into()))
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!(
                "{} trailing byte(s) after the message",
                self.buf.len() - self.pos
            )))
        }
    }
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
                e.buf.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
                Ok(<$t>::from_le_bytes(d.array()?))
            }
            fn json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
int_fields!(u16, u32, u64);

impl Field for bool {
    fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
        e.buf.push(u8::from(*self));
        Ok(())
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        Ok(d.u8()? != 0)
    }
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

/// A u16 byte length, then UTF-8 bytes.
impl Field for String {
    fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
        prefix::<u16>(self.len(), "string bytes", e)?;
        e.buf.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        let len = u16::get(d)?;
        d.utf8(usize::from(len))
    }
    fn json(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// One tag byte; its JSON value is the snake_case name.
impl Field for ErrorKind {
    fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
        e.buf.push(self.tag());
        Ok(())
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        ErrorKind::from_tag(d.u8()?)
    }
    fn json(&self) -> Json {
        Json::Str(self.name().into())
    }
}

/// Per-vertex counts: a u32 count, then the values.
impl Field for Vec<u64> {
    fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
        prefix::<u32>(self.len(), "per-vertex counts", e)?;
        self.iter().try_for_each(|c| c.put(e))
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        let len = u32::get(d)?;
        get_items(d, len as usize)
    }
    fn json(&self) -> Json {
        json_list(self)
    }
}

/// `loop_stats`: a u16 count, then the rows.
impl Field for Vec<LoopStat> {
    fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
        prefix::<u16>(self.len(), "loop stats", e)?;
        self.iter().try_for_each(|l| l.put(e))
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        let len = u16::get(d)?;
        get_items(d, usize::from(len))
    }
    fn json(&self) -> Json {
        json_list(self)
    }
}

/// A `Batch` body: a u16 count (at most [`MAX_BATCH`]), then each item
/// as a u32 length plus its own tagged payload. Batches do not nest.
impl<M: Message> Field for Vec<M> {
    fn put(&self, e: &mut Enc) -> Result<(), ProtoError> {
        if e.in_batch {
            return Err(ProtoError::Malformed("batches do not nest".into()));
        }
        batch_cap(self.len())?;
        prefix::<u16>(self.len(), "batch items", e)?;
        for item in self {
            let mut inner = Enc {
                buf: Vec::new(),
                in_batch: true,
            };
            item.put(&mut inner)?;
            prefix::<u32>(inner.buf.len(), "item bytes", e)?;
            e.buf.extend_from_slice(&inner.buf);
        }
        Ok(())
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ProtoError> {
        if d.in_batch {
            return Err(ProtoError::Malformed("batches do not nest".into()));
        }
        let count = usize::from(u16::get(d)?);
        batch_cap(count)?;
        let mut items = Vec::with_capacity(prealloc::<M>(count));
        for _ in 0..count {
            let len = u32::get(d)?;
            let mut inner = Dec::new(d.take(len as usize)?);
            inner.in_batch = true;
            items.push(M::get(&mut inner)?);
            inner.finish()?;
        }
        Ok(items)
    }
    fn json(&self) -> Json {
        json_list(self)
    }
}

/// Writes the count prefix of `len` items as a `P`, or refuses a count
/// the prefix cannot hold.
fn prefix<P: Field + TryFrom<usize>>(
    len: usize,
    what: &str,
    e: &mut Enc,
) -> Result<(), ProtoError> {
    let bits = 8 * std::mem::size_of::<P>();
    let too_long =
        |_| ProtoError::Malformed(format!("{len} {what} exceed the u{bits} length prefix"));
    P::try_from(len).map_err(too_long)?.put(e)
}

fn batch_cap(len: usize) -> Result<(), ProtoError> {
    if len > MAX_BATCH {
        return Err(ProtoError::Malformed(format!(
            "batch of {len} exceeds the {MAX_BATCH}-request cap"
        )));
    }
    Ok(())
}

/// Capacity to reserve for `n` declared items: the count is untrusted,
/// so the reservation stays within `MAX_PREALLOC_BYTES`.
fn prealloc<T>(n: usize) -> usize {
    n.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

fn get_items<T: Field>(d: &mut Dec<'_>, n: usize) -> Result<Vec<T>, ProtoError> {
    let mut items = Vec::with_capacity(prealloc::<T>(n));
    for _ in 0..n {
        items.push(T::get(d)?);
    }
    Ok(items)
}

fn json_list<T: Field>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(Field::json).collect())
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame around an already-encoded payload.
///
/// # Errors
/// Returns [`ProtoError::Oversized`] when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`], or an [`ProtoError::Io`] on write failure.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(ProtoError::Oversized(payload.len() as u32));
    }
    let mut digest = Crc32::new();
    let mut head = Vec::with_capacity(12 + payload.len() + 4);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    head.extend_from_slice(payload);
    digest.update(&head);
    head.extend_from_slice(&digest.finalize().to_le_bytes());
    writer.write_all(&head)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, returning the verified payload bytes.
///
/// The declared length is validated against [`MAX_FRAME_PAYLOAD`] before
/// anything is allocated, and the read buffer's reservation is capped at
/// `lotus_graph::io::MAX_PREALLOC_BYTES` — a hostile length costs a typed
/// error, never a giant allocation.
///
/// # Errors
/// Returns the specific [`ProtoError`] for EOF mid-frame, a bad magic,
/// version, length, or CRC, or any transport failure.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, ProtoError> {
    let mut digest = Crc32::new();
    let mut head = [0u8; 4];
    reader.read_exact(&mut head)?;
    digest.update(&head);
    if &head != MAGIC {
        return Err(ProtoError::BadMagic(head));
    }
    let mut buf4 = [0u8; 4];
    read_exact_or_truncated(reader, &mut buf4)?;
    digest.update(&buf4);
    let version = u32::from_le_bytes(buf4);
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    read_exact_or_truncated(reader, &mut buf4)?;
    digest.update(&buf4);
    let len = u32::from_le_bytes(buf4);
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; (len as usize).min(MAX_PREALLOC_BYTES)];
    let mut filled = 0usize;
    while filled < len as usize {
        let want = ((len as usize) - filled).min(MAX_PREALLOC_BYTES);
        if payload.len() < filled + want {
            payload.resize(filled + want, 0);
        }
        read_exact_or_truncated(reader, &mut payload[filled..filled + want])?;
        filled += want;
    }
    digest.update(&payload);
    read_exact_or_truncated(reader, &mut buf4)?;
    let stored = u32::from_le_bytes(buf4);
    let computed = digest.finalize();
    if stored != computed {
        return Err(ProtoError::BadCrc { stored, computed });
    }
    Ok(payload)
}

/// `read_exact` that maps EOF inside a frame to [`ProtoError::Truncated`].
fn read_exact_or_truncated<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    })
}

/// Outcome of scanning an accumulation buffer for one complete frame
/// (the event loop's nonblocking counterpart of [`read_frame`]).
#[derive(Debug)]
pub enum FrameProgress {
    /// Not enough bytes buffered yet; keep reading. Every check that
    /// *could* fail on the bytes present has already passed — damage is
    /// reported at the earliest byte that proves it.
    Incomplete,
    /// One complete, CRC-verified frame.
    Frame {
        /// The verified payload bytes.
        payload: Vec<u8>,
        /// Total frame bytes to drain from the buffer (header + payload
        /// + trailer).
        consumed: usize,
    },
    /// Unrecoverable framing damage: the stream cannot be
    /// resynchronized. The connection must answer with a typed
    /// `protocol` error and close.
    Damaged(ProtoError),
}

/// Scans the front of `buf` for one frame without blocking.
///
/// Header fields are validated as soon as their bytes arrive — a bad
/// magic fails on the first mismatching byte and an oversized declared
/// length is rejected from the 12-byte header alone, before any payload
/// is buffered (the same untrusted-length discipline as [`read_frame`]).
/// The CRC trailer is checked once the whole frame is present.
#[must_use]
pub fn try_parse_frame(buf: &[u8]) -> FrameProgress {
    // Magic: compare the prefix that has arrived so far, so garbage
    // (e.g. an HTTP request) is rejected without waiting for 12 bytes.
    let head = buf.len().min(4);
    if buf[..head] != MAGIC[..head] {
        let mut seen = [0u8; 4];
        seen[..head].copy_from_slice(&buf[..head]);
        return FrameProgress::Damaged(ProtoError::BadMagic(seen));
    }
    if buf.len() < 12 {
        return FrameProgress::Incomplete;
    }
    let version = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if version != VERSION {
        return FrameProgress::Damaged(ProtoError::BadVersion(version));
    }
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > MAX_FRAME_PAYLOAD {
        return FrameProgress::Damaged(ProtoError::Oversized(len));
    }
    let total = 12 + len as usize + 4;
    if buf.len() < total {
        return FrameProgress::Incomplete;
    }
    let mut digest = Crc32::new();
    digest.update(&buf[..total - 4]);
    let computed = digest.finalize();
    let stored = u32::from_le_bytes([
        buf[total - 4],
        buf[total - 3],
        buf[total - 2],
        buf[total - 1],
    ]);
    if stored != computed {
        return FrameProgress::Damaged(ProtoError::BadCrc { stored, computed });
    }
    FrameProgress::Frame {
        payload: buf[12..total - 4].to_vec(),
        consumed: total,
    }
}

/// Encodes a response and wraps it in a complete frame, returned as
/// bytes (the event loop's write-queue unit).
///
/// # Errors
/// Propagates encoding failures as [`ProtoError`].
pub fn frame_response(resp: &Response) -> Result<Vec<u8>, ProtoError> {
    let mut bytes = Vec::new();
    write_response(&mut bytes, resp)?;
    Ok(bytes)
}

/// Encodes and frames a request in one step.
///
/// # Errors
/// Propagates encoding and transport errors as [`ProtoError`].
pub fn write_request<W: Write>(writer: &mut W, req: &Request) -> Result<(), ProtoError> {
    write_frame(writer, &req.encode()?)
}

/// Encodes and frames a response in one step.
///
/// # Errors
/// Propagates encoding and transport errors as [`ProtoError`].
pub fn write_response<W: Write>(writer: &mut W, resp: &Response) -> Result<(), ProtoError> {
    write_frame(writer, &resp.encode()?)
}

/// Reads and decodes one response frame.
///
/// # Errors
/// Propagates framing and decoding failures as [`ProtoError`].
pub fn read_response<R: Read>(reader: &mut R) -> Result<Response, ProtoError> {
    Response::decode(&read_frame(reader)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, req).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(&Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: &Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, resp).unwrap();
        assert_eq!(&read_response(&mut wire.as_slice()).unwrap(), resp);
    }

    #[test]
    fn all_requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Count {
                name: "g".into(),
                deadline_ms: NO_DEADLINE,
            },
            Request::PerVertex {
                name: "graph-ü".into(),
                start: 5,
                end: 105,
                deadline_ms: 250,
            },
            Request::KClique {
                name: "g".into(),
                k: 4,
                deadline_ms: 0,
            },
            Request::LoadGraph {
                name: "ci".into(),
                spec: "rmat:9:8:7".into(),
            },
            Request::EvictGraph { name: "ci".into() },
            Request::Drain,
            Request::Batch(vec![
                Request::Ping,
                Request::Count {
                    name: "g".into(),
                    deadline_ms: 9,
                },
            ]),
            Request::ShardLoad {
                name: "ci".into(),
                spec: "rmat:9:8:7".into(),
                parts: 3,
                index: 2,
            },
            Request::ShardCount {
                name: "ci".into(),
                deadline_ms: 400,
            },
            Request::ShardPerVertex {
                name: "ci".into(),
                start: 0,
                end: 128,
                deadline_ms: NO_DEADLINE,
            },
            Request::ShardJoin {
                addr: "127.0.0.1:9001".into(),
            },
            Request::ShardStat,
        ];
        for req in &reqs {
            round_trip_request(req);
        }
    }

    #[test]
    fn all_responses_round_trip() {
        let resps = [
            Response::Pong,
            Response::Stats(StatsReply {
                graphs: 2,
                resident_bytes: 1024,
                budget_bytes: 1 << 20,
                requests_served: 10,
                overloaded: 1,
                deadline_expired: 2,
                cache_hits: 7,
                cache_misses: 3,
                panics: 0,
                workers: 4,
                queue_capacity: 64,
                snapshot_writes: 6,
                journal_appends: 8,
                journal_replays: 5,
                recovery_quarantined: 1,
                recovery_ms: 17,
                conns_accepted: 100,
                conns_open: 12,
                event_threads: 2,
                loop_stats: vec![
                    LoopStat {
                        readiness_events: 40,
                        loop_wakeups: 19,
                    },
                    LoopStat {
                        readiness_events: 60,
                        loop_wakeups: 23,
                    },
                ],
            }),
            Response::Count {
                triangles: 123_456,
                cached: true,
                wall_micros: 42,
            },
            Response::PerVertex {
                start: 3,
                counts: vec![0, 5, 17, u64::MAX],
            },
            Response::KClique { k: 5, cliques: 99 },
            Response::Loaded {
                vertices: 512,
                edges: 4096,
                bytes: 123_456,
                evicted: 1,
            },
            Response::Evicted { existed: false },
            Response::Draining,
            Response::ShardJoined { shards: 3 },
            Response::ShardStat {
                graphs: 1,
                owned_vertices: 171,
                entries: 2048,
                ghost_entries: 301,
            },
            Response::error(ErrorKind::ShardUnavailable, "shard 1 timed out"),
            Response::Batch(vec![
                Response::Pong,
                Response::error(ErrorKind::NotFound, "x"),
            ]),
            Response::error(ErrorKind::Overloaded, "queue full"),
        ];
        for resp in &resps {
            round_trip_response(resp);
        }
    }

    #[test]
    fn error_kinds_round_trip_their_tags() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(ErrorKind::from_tag(200).is_err());
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        // Hand-craft a frame declaring a 4 GiB-ish payload.
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.extend_from_slice(&VERSION.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(
            matches!(err, ProtoError::Oversized(len) if len == u32::MAX),
            "{err}"
        );
    }

    #[test]
    fn large_declared_length_with_short_body_is_truncated_not_allocated() {
        // Declared length below the cap but way past the prealloc chunk:
        // the reader grows in ≤64 KiB steps and reports Truncated.
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.extend_from_slice(&VERSION.to_le_bytes());
        wire.extend_from_slice(&(MAX_FRAME_PAYLOAD - 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 100]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::Truncated), "{err}");
    }

    #[test]
    fn corrupted_byte_fails_the_crc() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            &Request::Count {
                name: "graph".into(),
                deadline_ms: NO_DEADLINE,
            },
        )
        .unwrap();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(
            matches!(err, ProtoError::BadCrc { .. } | ProtoError::Malformed(_)),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let err = read_frame(&mut &b"XXXXxxxxxxxx"[..]).unwrap_err();
        assert!(matches!(err, ProtoError::BadMagic(_)), "{err}");

        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.extend_from_slice(&99u32.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, ProtoError::BadVersion(99)), "{err}");
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[200u8]).unwrap();
        let payload = read_frame(&mut wire.as_slice()).unwrap();
        assert!(matches!(
            Request::decode(&payload).unwrap_err(),
            ProtoError::UnknownTag(200)
        ));
        assert!(matches!(
            Response::decode(&payload).unwrap_err(),
            ProtoError::UnknownTag(200)
        ));
    }

    #[test]
    fn trailing_garbage_after_message_is_malformed() {
        let mut payload = Request::Ping.encode().unwrap();
        payload.push(7);
        assert!(matches!(
            Request::decode(&payload).unwrap_err(),
            ProtoError::Malformed(_)
        ));
    }

    #[test]
    fn nested_batches_are_rejected() {
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Ping])]);
        assert!(nested.encode().is_err());
    }

    #[test]
    fn incremental_parser_handles_byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            &Request::Count {
                name: "graph".into(),
                deadline_ms: 120,
            },
        )
        .unwrap();
        for cut in 0..wire.len() {
            assert!(
                matches!(try_parse_frame(&wire[..cut]), FrameProgress::Incomplete),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        match try_parse_frame(&wire) {
            FrameProgress::Frame { payload, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(
                    Request::decode(&payload).unwrap(),
                    Request::Count {
                        name: "graph".into(),
                        deadline_ms: 120,
                    }
                );
            }
            other => panic!("expected a complete frame, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_finds_back_to_back_frames() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).unwrap();
        let first = wire.len();
        write_request(&mut wire, &Request::Stats).unwrap();
        let FrameProgress::Frame { consumed, .. } = try_parse_frame(&wire) else {
            panic!("first frame should parse");
        };
        assert_eq!(consumed, first);
        let FrameProgress::Frame { payload, consumed } = try_parse_frame(&wire[first..]) else {
            panic!("second frame should parse");
        };
        assert_eq!(consumed, wire.len() - first);
        assert_eq!(Request::decode(&payload).unwrap(), Request::Stats);
    }

    #[test]
    fn incremental_parser_rejects_damage_at_the_earliest_byte() {
        // One wrong byte of magic: damaged immediately, not Incomplete.
        assert!(matches!(
            try_parse_frame(b"X"),
            FrameProgress::Damaged(ProtoError::BadMagic(_))
        ));
        // Oversized declared length: damaged from the header alone.
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.extend_from_slice(&VERSION.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            try_parse_frame(&wire),
            FrameProgress::Damaged(ProtoError::Oversized(_))
        ));
        // Wrong version.
        let mut wire = Vec::new();
        wire.extend_from_slice(MAGIC);
        wire.extend_from_slice(&7u32.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            try_parse_frame(&wire),
            FrameProgress::Damaged(ProtoError::BadVersion(7))
        ));
        // Flipped payload byte: CRC mismatch once the frame completes.
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Drain).unwrap();
        wire[12] ^= 0x10;
        assert!(matches!(
            try_parse_frame(&wire),
            FrameProgress::Damaged(ProtoError::BadCrc { .. })
        ));
    }
}
