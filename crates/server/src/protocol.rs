//! The length-prefixed binary wire protocol between [`crate::Server`] and
//! [`crate::Client`].
//!
//! Every frame — request and response alike — is a `u32` little-endian
//! length prefix followed by exactly that many payload bytes:
//!
//! ```text
//! u32 len · magic "IUSW" (4) · version (u16) · request id (u64) · op (u8) · body
//! ```
//!
//! The length prefix does not count itself. The magic and version open every
//! frame so each side can reject foreign or incompatible traffic without
//! trusting stream state; the request id is chosen by the client and echoed
//! verbatim in the response, which is what lets a client match answers to
//! questions. All multi-byte integers are little-endian, matching the
//! `ius_index::persist` on-disk format.
//!
//! **Version policy:** [`WIRE_VERSION`] is bumped on any layout change and
//! peers reject versions they do not know (no silent negotiation) — the same
//! policy as the index file format. A server answering an unknown version
//! replies with a typed [`ErrorCode::UnsupportedVersion`] frame carrying the
//! *current* magic and version, so even a stale client can decode the
//! refusal. Version 2 added the live-corpus ops ([`Request::Append`],
//! [`Request::DeleteRange`], [`Request::Flush`], [`Request::Compact`], the
//! [`Response::Live`] frame and the live counters of [`StatsSnapshot`]) and
//! raised [`MAX_REQUEST_FRAME`] so an `APPEND` can carry a real batch of
//! probability rows. Version 3 added the durability counters and the
//! `last_error` string to [`StatsSnapshot`] (WAL records/bytes, recovery
//! counts, the active fsync policy, background-compaction failures).
//!
//! The `METRICS` op ([`Request::Metrics`] / [`Response::Metrics`]) was
//! deliberately added **without** a version bump: a new op is a body-level
//! extension, so an old server answers it with a typed
//! [`ErrorCode::UnknownOp`] frame and keeps the connection — exactly the
//! degradation a monitoring client wants — whereas a version bump would
//! make every old↔new pairing a header-level rejection that closes the
//! connection. The snapshot body instead opens with its own
//! [`METRICS_FORMAT_VERSION`], so the metrics layout can evolve
//! independently and a client refuses an unknown layout typed
//! ([`ProtocolError::UnsupportedMetricsFormat`]). Metrics format 2 added
//! the per-entry slow-query pattern prefix and the ring-occupancy gauges.
//!
//! The `TRACE_DUMP` op ([`Request::TraceDump`] / [`Response::TraceDump`])
//! follows the same discipline: no wire-version bump (an old server
//! answers `UNKNOWN_OP` and keeps the connection), and the dump body opens
//! with its own [`TRACE_FORMAT_VERSION`] so the span layout can evolve
//! independently ([`ProtocolError::UnsupportedTraceFormat`]). The dump is
//! a non-destructive snapshot of the server's flight recorder — pinned
//! error traces first, then the recent ring, both oldest first.
//!
//! Requests: [`Request::Ping`], [`Request::Query`] (with a [`ResultMode`]
//! mapping onto the `ius_query` sinks: collect-all, count-only, first-`k`),
//! [`Request::Stats`], [`Request::Reload`], [`Request::Shutdown`], plus the
//! live-corpus mutations above (answered with a typed
//! [`ErrorCode::Live`] error by a server that does not serve a live index).
//! Responses mirror them, plus the typed [`Response::Error`] frame the
//! server sends instead of ever panicking (or hanging up silently) on
//! untrusted bytes.

use crate::flight::TraceRecordSnapshot;
use crate::metrics::{LiveObsView, MetricsSnapshot, RingOccupancy, SlowQueryEntry};
use ius_obs::trace::Span;
use ius_obs::HistogramSnapshot;
use ius_query::QueryStats;
use std::fmt;
use std::io::{self, Read};

/// The four magic bytes opening every wire frame.
pub const WIRE_MAGIC: [u8; 4] = *b"IUSW";

/// The current wire-protocol version.
pub const WIRE_VERSION: u16 = 3;

/// Layout version of the [`Response::Metrics`] body. Bumped when the
/// snapshot layout changes; independent of [`WIRE_VERSION`] (see the
/// module docs for why the `METRICS` op did not bump the wire version).
/// Version 2 added the slow-query pattern prefix and the ring-occupancy
/// gauges.
pub const METRICS_FORMAT_VERSION: u16 = 2;

/// Layout version of the [`Response::TraceDump`] body. Independent of
/// [`WIRE_VERSION`] for the same reason as the metrics format.
pub const TRACE_FORMAT_VERSION: u16 = 1;

/// Fixed header size inside the payload: magic + version + request id + op.
pub const HEADER_LEN: usize = 4 + 2 + 8 + 1;

/// Upper bound on request frames the server will read. Patterns are small,
/// but an `APPEND` legitimately carries a batch of `rows × σ` probability
/// rows (e.g. ~23k rows at σ = 91); anything larger than this bound is a
/// protocol violation or an attack and is refused before allocation.
pub const MAX_REQUEST_FRAME: usize = 1 << 24;

/// Upper bound on response frames the client will read (a collect-all answer
/// over a large corpus is the biggest legitimate frame).
pub const MAX_RESPONSE_FRAME: usize = 1 << 26;

// Request ops.
const OP_PING: u8 = 0;
const OP_QUERY: u8 = 1;
const OP_STATS: u8 = 2;
const OP_RELOAD: u8 = 3;
const OP_SHUTDOWN: u8 = 4;
const OP_APPEND: u8 = 5;
const OP_DELETE_RANGE: u8 = 6;
const OP_FLUSH: u8 = 7;
const OP_COMPACT: u8 = 8;
const OP_METRICS: u8 = 9;
const OP_TRACE_DUMP: u8 = 10;

// Response statuses.
const ST_PONG: u8 = 0;
const ST_MATCHES: u8 = 1;
const ST_COUNT: u8 = 2;
const ST_STATS: u8 = 3;
const ST_RELOADED: u8 = 4;
const ST_SHUTTING_DOWN: u8 = 5;
const ST_LIVE: u8 = 6;
const ST_METRICS: u8 = 7;
const ST_TRACE_DUMP: u8 = 8;
const ST_ERROR: u8 = 255;

// Result modes.
const MODE_COLLECT: u8 = 0;
const MODE_COUNT: u8 = 1;
const MODE_FIRST_K: u8 = 2;

/// What a query should deliver, mapping one-to-one onto the
/// `ius_query::MatchSink` implementations the server plugs into
/// `query_into`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultMode {
    /// Report every occurrence position (`Vec<usize>` sink).
    Collect,
    /// Report only the number of occurrences (`CountSink`).
    Count,
    /// Report the `k` smallest occurrence positions (`FirstKSink`); the
    /// engine stops early once it has them.
    FirstK(u64),
}

/// A request frame, minus the id (carried alongside).
/// (`PartialEq` only: `Append` carries `f64` probabilities.)
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Answer a pattern query in the given result mode.
    Query {
        /// What to deliver.
        mode: ResultMode,
        /// The rank-encoded pattern.
        pattern: Vec<u8>,
    },
    /// Report the server's metrics snapshot.
    Stats,
    /// Atomically swap in a new index. `None` reloads the path the server
    /// was started from.
    Reload {
        /// Path of the index file to load, if different from the startup
        /// path.
        path: Option<String>,
    },
    /// Gracefully stop the server: in-flight requests complete, new
    /// connections are refused.
    Shutdown,
    /// Append a batch of probability rows to a live corpus (row-major,
    /// `rows × sigma`, each row a distribution over the served alphabet).
    Append {
        /// Alphabet size the rows are encoded over (must match the served
        /// live index).
        sigma: u64,
        /// Row-major probabilities (`rows × sigma` values).
        probs: Vec<f64>,
    },
    /// Tombstone the logical range `[start, end)` of a live corpus.
    DeleteRange {
        /// First deleted position.
        start: u64,
        /// One past the last deleted position.
        end: u64,
    },
    /// Freeze the live memtable into segment(s).
    Flush,
    /// Run live compaction: one tiered round, or a full merge-all.
    Compact {
        /// `true` merges every segment into one; `false` applies one
        /// tiered policy round.
        full: bool,
    },
    /// Scrape the server's observability snapshot (per-stage query
    /// histograms, queue-wait/service split, live and WAL timings, slow
    /// queries). Old servers answer `UNKNOWN_OP` and keep the connection.
    Metrics,
    /// Drain a snapshot of the server's flight recorder: the most recent
    /// complete request traces plus the pinned error traces. Old servers
    /// answer `UNKNOWN_OP` and keep the connection.
    TraceDump,
}

/// Per-query counters carried on the wire (a `u64` projection of
/// [`QueryStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Candidate occurrences enumerated before verification.
    pub candidates: u64,
    /// Candidates that passed verification.
    pub verified: u64,
    /// Distinct positions delivered to the sink.
    pub reported: u64,
    /// Canonical 2D-grid nodes touched.
    pub grid_nodes: u64,
}

impl From<QueryStats> for WireStats {
    fn from(s: QueryStats) -> Self {
        Self {
            candidates: s.candidates as u64,
            verified: s.verified as u64,
            reported: s.reported as u64,
            grid_nodes: s.grid_nodes as u64,
        }
    }
}

impl From<WireStats> for QueryStats {
    fn from(s: WireStats) -> Self {
        // Stage timings do not travel on QUERY responses (they are served
        // aggregated by the METRICS op), so the projection zeroes them.
        Self {
            candidates: s.candidates as usize,
            verified: s.verified as usize,
            reported: s.reported as usize,
            grid_nodes: s.grid_nodes as usize,
            ..Self::default()
        }
    }
}

/// The server-side metrics snapshot answered to [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Display name of the served index family.
    pub index_name: String,
    /// Index generation: starts at 0, +1 per successful reload.
    pub generation: u64,
    /// Length of the served corpus.
    pub corpus_len: u64,
    /// Heap bytes of the served index.
    pub index_size_bytes: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Admission-queue capacity.
    pub queue_depth: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Frames read since startup (well-formed or not).
    pub requests: u64,
    /// Queries answered successfully.
    pub queries: u64,
    /// Occurrence positions delivered over all queries.
    pub occurrences: u64,
    /// Malformed or incompatible frames answered with a typed error.
    pub protocol_errors: u64,
    /// Well-formed queries that failed engine-side validation.
    pub query_errors: u64,
    /// Connections refused with `OVERLOADED` because the queue was full.
    pub overloaded: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Positions appended to a live corpus (0 for static serving).
    pub appended_positions: u64,
    /// Successful `DELETE_RANGE` requests.
    pub delete_ranges: u64,
    /// Explicit `FLUSH` requests that froze at least one segment
    /// (append-triggered auto-flushes are internal to the live index and
    /// not counted here).
    pub flushes: u64,
    /// Successful live compaction requests that merged at least one run.
    pub compactions: u64,
    /// Live mutations refused or failed (`LIVE_ERROR` frames: op on a
    /// static server, alphabet mismatch, malformed rows, bad ranges,
    /// segment build failures).
    pub live_errors: u64,
    /// Mutations logged to the live write-ahead log (0 when durability is
    /// off or the server is static).
    pub wal_records: u64,
    /// Bytes appended to the live write-ahead log.
    pub wal_bytes: u64,
    /// Crash recoveries the served live index performed at open.
    pub recoveries: u64,
    /// Mutations replayed from the write-ahead log at open.
    pub recovered_records: u64,
    /// The active fsync policy: 0 durability off, 1 per-record,
    /// 2 interval, 3 never.
    pub fsync_policy: u64,
    /// Background live-compaction rounds that failed (retried
    /// automatically; see `last_error`).
    pub compaction_errors: u64,
    /// The most recent background/durability error of the served live
    /// index (empty when none).
    pub last_error: String,
}

/// The answer to every live-corpus mutation (`APPEND` / `DELETE_RANGE` /
/// `FLUSH` / `COMPACT`): the post-operation shape of the live index plus
/// what the operation changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Logical corpus length after the operation.
    pub corpus_len: u64,
    /// Immutable segments after the operation.
    pub segments: u64,
    /// Memtable rows after the operation.
    pub memtable_rows: u64,
    /// Tombstoned ranges after the operation.
    pub tombstones: u64,
    /// What the operation changed: positions appended, positions deleted
    /// (range width), segments created by the flush, or merges performed.
    pub changed: u64,
}

/// Typed error codes of [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad magic, truncated or trailing
    /// bytes, unknown result mode, oversized length prefix).
    Malformed,
    /// The frame's wire version is not spoken by this server.
    UnsupportedVersion,
    /// The frame's op byte names no known request.
    UnknownOp,
    /// The query was well-formed on the wire but rejected by the engine
    /// (empty pattern, pattern shorter than ℓ / longer than the live
    /// bound, …).
    Query,
    /// The reload failed (missing path, unreadable or corrupt index file).
    Reload,
    /// The admission queue is full; retry later.
    Overloaded,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// A live-corpus mutation was refused: the server does not serve a
    /// live index, or the mutation failed engine-side (alphabet mismatch,
    /// malformed rows, out-of-range delete, segment build failure).
    Live,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0,
            ErrorCode::UnsupportedVersion => 1,
            ErrorCode::UnknownOp => 2,
            ErrorCode::Query => 3,
            ErrorCode::Reload => 4,
            ErrorCode::Overloaded => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Live => 7,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        Ok(match b {
            0 => ErrorCode::Malformed,
            1 => ErrorCode::UnsupportedVersion,
            2 => ErrorCode::UnknownOp,
            3 => ErrorCode::Query,
            4 => ErrorCode::Reload,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Live,
            other => return Err(ProtocolError::UnknownErrorCode(other)),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "MALFORMED",
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::UnknownOp => "UNKNOWN_OP",
            ErrorCode::Query => "QUERY_ERROR",
            ErrorCode::Reload => "RELOAD_ERROR",
            ErrorCode::Overloaded => "OVERLOADED",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::Live => "LIVE_ERROR",
        };
        f.write_str(name)
    }
}

/// A response frame, minus the echoed id (carried alongside).
///
/// Deliberately unboxed despite the variant size skew (a `METRICS` body
/// dwarfs a `PONG`): a `Response` is a transient value built, encoded and
/// dropped within one frame round trip — never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Collect-all / first-`k` answer: the occurrence positions.
    Matches {
        /// Per-query counters.
        stats: WireStats,
        /// Sorted, deduplicated occurrence positions.
        positions: Vec<u64>,
    },
    /// Count-only answer.
    Count {
        /// Per-query counters.
        stats: WireStats,
        /// Number of distinct occurrences.
        count: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Answer to a successful [`Request::Reload`].
    Reloaded {
        /// The new index generation.
        generation: u64,
    },
    /// Answer to [`Request::Shutdown`] (and to work arriving during
    /// shutdown).
    ShuttingDown,
    /// Answer to every successful live-corpus mutation.
    Live(LiveSnapshot),
    /// Answer to [`Request::Metrics`].
    Metrics(MetricsSnapshot),
    /// Answer to [`Request::TraceDump`]: the surviving flight-recorder
    /// traces, pinned errors first, then recent, both oldest first.
    TraceDump {
        /// Layout version of this body (see [`TRACE_FORMAT_VERSION`]).
        format_version: u16,
        /// The recorded traces.
        records: Vec<TraceRecordSnapshot>,
    },
    /// Typed refusal: the server never hangs up silently and never panics on
    /// untrusted bytes.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Decoding errors. The server maps these onto [`Response::Error`] frames;
/// the client surfaces them as `ClientError::Protocol`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame does not open with [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The frame speaks a version this build does not.
    UnsupportedVersion(u16),
    /// The op byte names no known request.
    UnknownOp(u8),
    /// The status byte names no known response.
    UnknownStatus(u8),
    /// The result-mode byte names no known mode.
    UnknownMode(u8),
    /// The error-code byte names no known code.
    UnknownErrorCode(u8),
    /// The payload ended before the announced content.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The payload has bytes after the announced content.
    TrailingBytes(usize),
    /// The length prefix exceeds the applicable frame bound.
    FrameTooLarge {
        /// The announced length.
        len: u64,
        /// The bound it violates.
        max: usize,
    },
    /// A string field is not valid UTF-8.
    InvalidUtf8,
    /// A `METRICS` body announces a snapshot layout this build does not
    /// speak (the op itself decoded fine; only the snapshot is opaque).
    UnsupportedMetricsFormat(u16),
    /// A `TRACE_DUMP` body announces a span layout this build does not
    /// speak (the op itself decoded fine; only the dump is opaque).
    UnsupportedTraceFormat(u16),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => {
                write!(f, "frame does not start with the IUSW magic (got {m:02x?})")
            }
            ProtocolError::UnsupportedVersion(v) => write!(
                f,
                "unsupported wire version {v} (this build speaks version {WIRE_VERSION})"
            ),
            ProtocolError::UnknownOp(op) => write!(f, "unknown request op {op}"),
            ProtocolError::UnknownStatus(st) => write!(f, "unknown response status {st}"),
            ProtocolError::UnknownMode(m) => write!(f, "unknown query result mode {m}"),
            ProtocolError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            ProtocolError::Truncated { what } => {
                write!(f, "frame truncated while decoding {what}")
            }
            ProtocolError::TrailingBytes(n) => {
                write!(f, "{n} unexpected trailing byte(s) after the frame content")
            }
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "length prefix {len} exceeds the frame bound {max}")
            }
            ProtocolError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            ProtocolError::UnsupportedMetricsFormat(v) => write!(
                f,
                "unsupported metrics snapshot format {v} (this build speaks \
                 format {METRICS_FORMAT_VERSION})"
            ),
            ProtocolError::UnsupportedTraceFormat(v) => write!(
                f,
                "unsupported trace dump format {v} (this build speaks \
                 format {TRACE_FORMAT_VERSION})"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn push_stats(out: &mut Vec<u8>, stats: &WireStats) {
    push_u64(out, stats.candidates);
    push_u64(out, stats.verified);
    push_u64(out, stats.reported);
    push_u64(out, stats.grid_nodes);
}

/// Sparse histogram encoding: the four summary integers, then the
/// occupied `(bucket index, count)` pairs.
fn push_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    push_u64(out, h.count);
    push_u64(out, h.sum);
    push_u64(out, h.min);
    push_u64(out, h.max);
    push_u32(out, h.buckets.len() as u32);
    for &(idx, n) in &h.buckets {
        push_u32(out, idx);
        push_u64(out, n);
    }
}

/// Starts a frame in `out` (clearing it): length placeholder + header.
fn begin_frame(out: &mut Vec<u8>, id: u64, op: u8) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]); // length prefix, patched by end_frame
    out.extend_from_slice(&WIRE_MAGIC);
    push_u16(out, WIRE_VERSION);
    push_u64(out, id);
    out.push(op);
}

/// Patches the length prefix once the body is written.
fn end_frame(out: &mut [u8]) {
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes one request as a complete frame (length prefix included) into
/// `out`, which is cleared first and can be reused across calls.
pub fn encode_request(id: u64, request: &Request, out: &mut Vec<u8>) {
    match request {
        Request::Ping => begin_frame(out, id, OP_PING),
        Request::Query { mode, pattern } => {
            begin_frame(out, id, OP_QUERY);
            match mode {
                ResultMode::Collect => out.push(MODE_COLLECT),
                ResultMode::Count => out.push(MODE_COUNT),
                ResultMode::FirstK(k) => {
                    out.push(MODE_FIRST_K);
                    push_u64(out, *k);
                }
            }
            push_u32(out, pattern.len() as u32);
            out.extend_from_slice(pattern);
        }
        Request::Stats => begin_frame(out, id, OP_STATS),
        Request::Reload { path } => {
            begin_frame(out, id, OP_RELOAD);
            push_str(out, path.as_deref().unwrap_or(""));
        }
        Request::Shutdown => begin_frame(out, id, OP_SHUTDOWN),
        Request::Append { sigma, probs } => {
            begin_frame(out, id, OP_APPEND);
            push_u64(out, *sigma);
            push_u64(out, probs.len() as u64);
            for &p in probs {
                push_u64(out, p.to_bits());
            }
        }
        Request::DeleteRange { start, end } => {
            begin_frame(out, id, OP_DELETE_RANGE);
            push_u64(out, *start);
            push_u64(out, *end);
        }
        Request::Flush => begin_frame(out, id, OP_FLUSH),
        Request::Compact { full } => {
            begin_frame(out, id, OP_COMPACT);
            out.push(u8::from(*full));
        }
        Request::Metrics => begin_frame(out, id, OP_METRICS),
        Request::TraceDump => begin_frame(out, id, OP_TRACE_DUMP),
    }
    end_frame(out);
}

/// Encodes one response as a complete frame into `out` (cleared first).
pub fn encode_response(id: u64, response: &Response, out: &mut Vec<u8>) {
    match response {
        Response::Pong => begin_frame(out, id, ST_PONG),
        Response::Matches { stats, positions } => {
            begin_frame(out, id, ST_MATCHES);
            push_stats(out, stats);
            push_u64(out, positions.len() as u64);
            for &pos in positions {
                push_u64(out, pos);
            }
        }
        Response::Count { stats, count } => {
            begin_frame(out, id, ST_COUNT);
            push_stats(out, stats);
            push_u64(out, *count);
        }
        Response::Stats(snapshot) => {
            begin_frame(out, id, ST_STATS);
            push_str(out, &snapshot.index_name);
            for v in [
                snapshot.generation,
                snapshot.corpus_len,
                snapshot.index_size_bytes,
                snapshot.workers,
                snapshot.queue_depth,
                snapshot.connections,
                snapshot.requests,
                snapshot.queries,
                snapshot.occurrences,
                snapshot.protocol_errors,
                snapshot.query_errors,
                snapshot.overloaded,
                snapshot.reloads,
                snapshot.appended_positions,
                snapshot.delete_ranges,
                snapshot.flushes,
                snapshot.compactions,
                snapshot.live_errors,
                snapshot.wal_records,
                snapshot.wal_bytes,
                snapshot.recoveries,
                snapshot.recovered_records,
                snapshot.fsync_policy,
                snapshot.compaction_errors,
            ] {
                push_u64(out, v);
            }
            push_str(out, &snapshot.last_error);
        }
        Response::Reloaded { generation } => {
            begin_frame(out, id, ST_RELOADED);
            push_u64(out, *generation);
        }
        Response::ShuttingDown => begin_frame(out, id, ST_SHUTTING_DOWN),
        Response::Live(snapshot) => {
            begin_frame(out, id, ST_LIVE);
            for v in [
                snapshot.corpus_len,
                snapshot.segments,
                snapshot.memtable_rows,
                snapshot.tombstones,
                snapshot.changed,
            ] {
                push_u64(out, v);
            }
        }
        Response::Metrics(snapshot) => {
            begin_frame(out, id, ST_METRICS);
            push_u16(out, snapshot.format_version);
            push_u64(out, snapshot.uptime_ns);
            for h in [
                &snapshot.query_scan,
                &snapshot.query_locate,
                &snapshot.query_verify,
                &snapshot.query_report,
                &snapshot.queue_wait,
            ] {
                push_histogram(out, h);
            }
            out.push(snapshot.op_service.len() as u8);
            for (op, h) in &snapshot.op_service {
                out.push(*op);
                push_histogram(out, h);
            }
            let live = &snapshot.live;
            for h in [&live.flush, &live.compaction, &live.wal_fsync] {
                push_histogram(out, h);
            }
            for v in [
                live.segments,
                live.memtable_rows,
                live.swap_in_races,
                live.compaction_errors,
                live.wal_replay_records,
                live.wal_replay_bytes,
                live.wal_replay_ns,
            ] {
                push_u64(out, v);
            }
            push_str(out, &live.last_error);
            push_u64(out, snapshot.slow_query_threshold_ns);
            push_u32(out, snapshot.slow_queries.len() as u32);
            for entry in &snapshot.slow_queries {
                for v in [
                    entry.ts_ns,
                    entry.duration_ns,
                    entry.pattern_len,
                    entry.reported,
                ] {
                    push_u64(out, v);
                }
                out.push(entry.prefix_len);
                out.extend_from_slice(entry.prefix());
            }
            let rings = &snapshot.rings;
            for v in [
                rings.flight_recent,
                rings.flight_recent_capacity,
                rings.flight_pinned,
                rings.flight_pinned_capacity,
                rings.slow,
                rings.slow_capacity,
            ] {
                push_u64(out, v);
            }
        }
        Response::TraceDump {
            format_version,
            records,
        } => {
            begin_frame(out, id, ST_TRACE_DUMP);
            push_u16(out, *format_version);
            push_u32(out, records.len() as u32);
            for record in records {
                push_u64(out, record.trace_id);
                out.push(record.op);
                out.push(record.error);
                push_u64(out, record.started_ns);
                push_u64(out, record.total_ns);
                out.push(u8::from(record.truncated) | (u8::from(record.pinned) << 1));
                push_u16(out, record.spans.len() as u16);
                for span in &record.spans {
                    push_u16(out, span.code);
                    out.push(span.depth);
                    push_u64(out, span.start_ns);
                    push_u64(out, span.dur_ns);
                    push_u64(out, span.a);
                    push_u64(out, span.b);
                }
            }
        }
        Response::Error { code, message } => {
            begin_frame(out, id, ST_ERROR);
            out.push(code.to_byte());
            push_str(out, message);
        }
    }
    end_frame(out);
}

/// Encodes a [`Response::Matches`] frame directly from the engine's
/// `usize` positions — the server's hot path, sidestepping the `Vec<u64>`
/// a [`Response`] value would need. Byte-compatible with
/// [`encode_response`] (asserted by a unit test below).
pub fn encode_matches_from_slice(
    id: u64,
    stats: &WireStats,
    positions: &[usize],
    out: &mut Vec<u8>,
) {
    begin_frame(out, id, ST_MATCHES);
    push_stats(out, stats);
    push_u64(out, positions.len() as u64);
    for &pos in positions {
        push_u64(out, pos as u64);
    }
    end_frame(out);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over one frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.bytes.len() - self.pos < n {
            return Err(ProtocolError::Truncated { what });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn string(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::InvalidUtf8)
    }

    fn histogram(&mut self, what: &'static str) -> Result<HistogramSnapshot, ProtocolError> {
        let count = self.u64(what)?;
        let sum = self.u64(what)?;
        let min = self.u64(what)?;
        let max = self.u64(what)?;
        let n = self.u32(what)? as usize;
        // A lying pair count is bounds-checked per take, so cap the reserve.
        let mut buckets = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            buckets.push((self.u32(what)?, self.u64(what)?));
        }
        Ok(HistogramSnapshot {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        let rest = self.bytes.len() - self.pos;
        if rest > 0 {
            return Err(ProtocolError::TrailingBytes(rest));
        }
        Ok(())
    }
}

/// Validates the payload header and returns `(request id, op/status byte,
/// body)`. Shared by request and response decoding; the server uses it
/// directly so it can echo the request id even when the *body* is garbage.
pub fn decode_header(payload: &[u8]) -> Result<(u64, u8, &[u8]), ProtocolError> {
    let mut cur = Cursor::new(payload);
    let magic = cur.take(4, "magic")?;
    if magic != WIRE_MAGIC {
        return Err(ProtocolError::BadMagic(
            magic.try_into().expect("4-byte slice"),
        ));
    }
    let version = cur.u16("version")?;
    if version != WIRE_VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let id = cur.u64("request id")?;
    let op = cur.u8("op")?;
    Ok((id, op, &payload[cur.pos..]))
}

/// Decodes a QUERY body, **borrowing** the pattern from the frame buffer —
/// the server's hot path, so steady-state query handling copies nothing
/// out of the frame. Returns `None` when `op` is not the QUERY op (the
/// caller falls back to [`decode_request_body`]).
#[allow(clippy::type_complexity)]
pub fn decode_query_body(
    op: u8,
    body: &[u8],
) -> Option<Result<(ResultMode, &[u8]), ProtocolError>> {
    if op != OP_QUERY {
        return None;
    }
    let mut cur = Cursor::new(body);
    let decode = |cur: &mut Cursor| -> Result<(ResultMode, usize), ProtocolError> {
        let mode = match cur.u8("result mode")? {
            MODE_COLLECT => ResultMode::Collect,
            MODE_COUNT => ResultMode::Count,
            MODE_FIRST_K => ResultMode::FirstK(cur.u64("first-k bound")?),
            other => return Err(ProtocolError::UnknownMode(other)),
        };
        let len = cur.u32("pattern length")? as usize;
        Ok((mode, len))
    };
    Some(match decode(&mut cur) {
        Ok((mode, len)) => cur
            .take(len, "pattern bytes")
            .and_then(|pattern| cur.finish().map(|()| (mode, pattern))),
        Err(err) => Err(err),
    })
}

/// Decodes a request body given its op byte (from [`decode_header`]).
pub fn decode_request_body(op: u8, body: &[u8]) -> Result<Request, ProtocolError> {
    if let Some(result) = decode_query_body(op, body) {
        let (mode, pattern) = result?;
        return Ok(Request::Query {
            mode,
            pattern: pattern.to_vec(),
        });
    }
    let mut cur = Cursor::new(body);
    let request = match op {
        OP_PING => Request::Ping,
        OP_STATS => Request::Stats,
        OP_RELOAD => {
            let path = cur.string("reload path")?;
            Request::Reload {
                path: (!path.is_empty()).then_some(path),
            }
        }
        OP_SHUTDOWN => Request::Shutdown,
        OP_APPEND => {
            let sigma = cur.u64("append sigma")?;
            let count = cur.u64("append value count")? as usize;
            // The remaining payload must hold exactly `count` floats; the
            // cursor bounds-checks every take, so a lying count fails with
            // Truncated (or TrailingBytes) instead of over-reading.
            let mut probs = Vec::with_capacity(count.min(MAX_REQUEST_FRAME / 8));
            for _ in 0..count {
                probs.push(f64::from_bits(cur.u64("append probability")?));
            }
            Request::Append { sigma, probs }
        }
        OP_DELETE_RANGE => Request::DeleteRange {
            start: cur.u64("delete start")?,
            end: cur.u64("delete end")?,
        },
        OP_FLUSH => Request::Flush,
        OP_COMPACT => Request::Compact {
            full: cur.u8("compact mode")? != 0,
        },
        OP_METRICS => Request::Metrics,
        OP_TRACE_DUMP => Request::TraceDump,
        other => return Err(ProtocolError::UnknownOp(other)),
    };
    cur.finish()?;
    Ok(request)
}

/// Decodes a full request payload (header + body).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtocolError> {
    let (id, op, body) = decode_header(payload)?;
    Ok((id, decode_request_body(op, body)?))
}

/// Decodes a full response payload (header + body).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtocolError> {
    let (id, status, body) = decode_header(payload)?;
    let mut cur = Cursor::new(body);
    let take_stats = |cur: &mut Cursor| -> Result<WireStats, ProtocolError> {
        Ok(WireStats {
            candidates: cur.u64("stats.candidates")?,
            verified: cur.u64("stats.verified")?,
            reported: cur.u64("stats.reported")?,
            grid_nodes: cur.u64("stats.grid_nodes")?,
        })
    };
    let response = match status {
        ST_PONG => Response::Pong,
        ST_MATCHES => {
            let stats = take_stats(&mut cur)?;
            let count = cur.u64("position count")? as usize;
            let mut positions = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                positions.push(cur.u64("position")?);
            }
            Response::Matches { stats, positions }
        }
        ST_COUNT => {
            let stats = take_stats(&mut cur)?;
            let count = cur.u64("occurrence count")?;
            Response::Count { stats, count }
        }
        ST_STATS => {
            let index_name = cur.string("index name")?;
            let mut vals = [0u64; 24];
            for (i, v) in vals.iter_mut().enumerate() {
                *v = cur.u64(match i {
                    0 => "generation",
                    _ => "stats counter",
                })?;
            }
            let last_error = cur.string("last error")?;
            Response::Stats(StatsSnapshot {
                index_name,
                generation: vals[0],
                corpus_len: vals[1],
                index_size_bytes: vals[2],
                workers: vals[3],
                queue_depth: vals[4],
                connections: vals[5],
                requests: vals[6],
                queries: vals[7],
                occurrences: vals[8],
                protocol_errors: vals[9],
                query_errors: vals[10],
                overloaded: vals[11],
                reloads: vals[12],
                appended_positions: vals[13],
                delete_ranges: vals[14],
                flushes: vals[15],
                compactions: vals[16],
                live_errors: vals[17],
                wal_records: vals[18],
                wal_bytes: vals[19],
                recoveries: vals[20],
                recovered_records: vals[21],
                fsync_policy: vals[22],
                compaction_errors: vals[23],
                last_error,
            })
        }
        ST_RELOADED => Response::Reloaded {
            generation: cur.u64("generation")?,
        },
        ST_SHUTTING_DOWN => Response::ShuttingDown,
        ST_LIVE => Response::Live(LiveSnapshot {
            corpus_len: cur.u64("live corpus length")?,
            segments: cur.u64("live segment count")?,
            memtable_rows: cur.u64("live memtable rows")?,
            tombstones: cur.u64("live tombstone count")?,
            changed: cur.u64("live change count")?,
        }),
        ST_METRICS => {
            let format_version = cur.u16("metrics format version")?;
            if format_version != METRICS_FORMAT_VERSION {
                return Err(ProtocolError::UnsupportedMetricsFormat(format_version));
            }
            let uptime_ns = cur.u64("metrics uptime")?;
            let query_scan = cur.histogram("scan histogram")?;
            let query_locate = cur.histogram("locate histogram")?;
            let query_verify = cur.histogram("verify histogram")?;
            let query_report = cur.histogram("report histogram")?;
            let queue_wait = cur.histogram("queue-wait histogram")?;
            let op_count = cur.u8("op-service count")? as usize;
            let mut op_service = Vec::with_capacity(op_count.min(256));
            for _ in 0..op_count {
                let op = cur.u8("op-service op byte")?;
                op_service.push((op, cur.histogram("op-service histogram")?));
            }
            let flush = cur.histogram("flush histogram")?;
            let compaction = cur.histogram("compaction histogram")?;
            let wal_fsync = cur.histogram("wal-fsync histogram")?;
            let mut live_vals = [0u64; 7];
            for v in live_vals.iter_mut() {
                *v = cur.u64("live counter")?;
            }
            let last_error = cur.string("live last error")?;
            let slow_query_threshold_ns = cur.u64("slow-query threshold")?;
            let slow_count = cur.u32("slow-query count")? as usize;
            let mut slow_queries = Vec::with_capacity(slow_count.min(4096));
            for _ in 0..slow_count {
                let mut entry = SlowQueryEntry {
                    ts_ns: cur.u64("slow-query ts")?,
                    duration_ns: cur.u64("slow-query duration")?,
                    pattern_len: cur.u64("slow-query pattern length")?,
                    reported: cur.u64("slow-query reported")?,
                    ..SlowQueryEntry::default()
                };
                let prefix_len = cur.u8("slow-query prefix length")? as usize;
                if prefix_len > crate::metrics::SLOW_QUERY_PREFIX_LEN {
                    return Err(ProtocolError::Truncated {
                        what: "slow-query prefix",
                    });
                }
                let bytes = cur.take(prefix_len, "slow-query prefix")?;
                entry.prefix_len = prefix_len as u8;
                entry.prefix[..prefix_len].copy_from_slice(bytes);
                slow_queries.push(entry);
            }
            let mut ring_vals = [0u64; 6];
            for v in ring_vals.iter_mut() {
                *v = cur.u64("ring occupancy")?;
            }
            Response::Metrics(MetricsSnapshot {
                format_version,
                uptime_ns,
                query_scan,
                query_locate,
                query_verify,
                query_report,
                queue_wait,
                op_service,
                live: LiveObsView {
                    flush,
                    compaction,
                    wal_fsync,
                    segments: live_vals[0],
                    memtable_rows: live_vals[1],
                    swap_in_races: live_vals[2],
                    compaction_errors: live_vals[3],
                    wal_replay_records: live_vals[4],
                    wal_replay_bytes: live_vals[5],
                    wal_replay_ns: live_vals[6],
                    last_error,
                },
                slow_queries,
                slow_query_threshold_ns,
                rings: RingOccupancy {
                    flight_recent: ring_vals[0],
                    flight_recent_capacity: ring_vals[1],
                    flight_pinned: ring_vals[2],
                    flight_pinned_capacity: ring_vals[3],
                    slow: ring_vals[4],
                    slow_capacity: ring_vals[5],
                },
            })
        }
        ST_TRACE_DUMP => {
            let format_version = cur.u16("trace format version")?;
            if format_version != TRACE_FORMAT_VERSION {
                return Err(ProtocolError::UnsupportedTraceFormat(format_version));
            }
            let count = cur.u32("trace count")? as usize;
            let mut records = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                let trace_id = cur.u64("trace id")?;
                let op = cur.u8("trace op")?;
                let error = cur.u8("trace error")?;
                let started_ns = cur.u64("trace start")?;
                let total_ns = cur.u64("trace total")?;
                let flags = cur.u8("trace flags")?;
                let span_count = cur.u16("trace span count")? as usize;
                let mut spans = Vec::with_capacity(span_count.min(4096));
                for _ in 0..span_count {
                    spans.push(Span {
                        code: cur.u16("span code")?,
                        depth: cur.u8("span depth")?,
                        start_ns: cur.u64("span start")?,
                        dur_ns: cur.u64("span duration")?,
                        a: cur.u64("span detail a")?,
                        b: cur.u64("span detail b")?,
                    });
                }
                records.push(TraceRecordSnapshot {
                    trace_id,
                    op,
                    error,
                    started_ns,
                    total_ns,
                    truncated: flags & 1 != 0,
                    pinned: flags & 2 != 0,
                    spans,
                });
            }
            Response::TraceDump {
                format_version,
                records,
            }
        }
        ST_ERROR => {
            let code = ErrorCode::from_byte(cur.u8("error code")?)?;
            let message = cur.string("error message")?;
            Response::Error { code, message }
        }
        other => return Err(ProtocolError::UnknownStatus(other)),
    };
    cur.finish()?;
    Ok((id, response))
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Reads one frame payload (length prefix stripped) from `r` into `buf`.
///
/// Returns `Ok(false)` on clean EOF at a frame boundary, `Ok(true)` when a
/// frame was read. A length prefix above `max_len` fails with
/// `InvalidData` *before* any allocation, so a hostile peer cannot make the
/// reader reserve absurd buffers.
///
/// # Errors
///
/// I/O errors of the reader; `UnexpectedEof` on EOF inside a frame.
pub fn read_frame(r: &mut dyn Read, max_len: usize, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge {
                len: len as u64,
                max: max_len,
            }
            .to_string(),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::TRACE_NO_ERROR;

    fn round_trip_request(request: Request) {
        let mut frame = Vec::new();
        encode_request(0xFEED_BEEF_0042, &request, &mut frame);
        let (id, got) = decode_request(&frame[4..]).expect("decode");
        assert_eq!(id, 0xFEED_BEEF_0042);
        assert_eq!(got, request);
        // The length prefix covers exactly the payload.
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
    }

    fn round_trip_response(response: Response) {
        let mut frame = Vec::new();
        encode_response(7, &response, &mut frame);
        let (id, got) = decode_response(&frame[4..]).expect("decode");
        assert_eq!(id, 7);
        assert_eq!(got, response);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Reload { path: None });
        round_trip_request(Request::Reload {
            path: Some("/tmp/index.iusx".into()),
        });
        round_trip_request(Request::Append {
            sigma: 2,
            probs: vec![0.25, 0.75, 1.0, 0.0],
        });
        round_trip_request(Request::Append {
            sigma: 4,
            probs: Vec::new(),
        });
        round_trip_request(Request::DeleteRange { start: 10, end: 99 });
        round_trip_request(Request::Flush);
        round_trip_request(Request::Compact { full: false });
        round_trip_request(Request::Compact { full: true });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::TraceDump);
        for mode in [
            ResultMode::Collect,
            ResultMode::Count,
            ResultMode::FirstK(9),
        ] {
            round_trip_request(Request::Query {
                mode,
                pattern: vec![0, 1, 2, 3, 1, 0],
            });
            round_trip_request(Request::Query {
                mode,
                pattern: Vec::new(),
            });
        }
    }

    #[test]
    fn every_response_round_trips() {
        let stats = WireStats {
            candidates: 10,
            verified: 6,
            reported: 4,
            grid_nodes: 3,
        };
        round_trip_response(Response::Pong);
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Matches {
            stats,
            positions: vec![1, 5, 900, u64::MAX],
        });
        round_trip_response(Response::Matches {
            stats: WireStats::default(),
            positions: Vec::new(),
        });
        round_trip_response(Response::Count { stats, count: 42 });
        round_trip_response(Response::Reloaded { generation: 3 });
        round_trip_response(Response::Stats(StatsSnapshot {
            index_name: "MWSA-G".into(),
            generation: 2,
            corpus_len: 100_000,
            index_size_bytes: 1 << 20,
            workers: 4,
            queue_depth: 64,
            connections: 17,
            requests: 1000,
            queries: 990,
            occurrences: 12345,
            protocol_errors: 3,
            query_errors: 7,
            overloaded: 1,
            reloads: 2,
            appended_positions: 4096,
            delete_ranges: 3,
            flushes: 9,
            compactions: 4,
            live_errors: 2,
            wal_records: 4099,
            wal_bytes: 1 << 20,
            recoveries: 1,
            recovered_records: 17,
            fsync_policy: 2,
            compaction_errors: 1,
            last_error: "background compaction failed (will retry): disk full".to_string(),
        }));
        round_trip_response(Response::Live(LiveSnapshot {
            corpus_len: 123_456,
            segments: 7,
            memtable_rows: 300,
            tombstones: 2,
            changed: 512,
        }));
        for code in [
            ErrorCode::Malformed,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownOp,
            ErrorCode::Query,
            ErrorCode::Reload,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::Live,
        ] {
            round_trip_response(Response::Error {
                code,
                message: format!("{code} happened"),
            });
        }
    }

    #[test]
    fn slice_encoder_is_byte_compatible_with_the_owned_encoder() {
        let stats = WireStats {
            candidates: 8,
            verified: 8,
            reported: 3,
            grid_nodes: 0,
        };
        let positions = [3usize, 77, 1 << 40];
        let mut fast = Vec::new();
        encode_matches_from_slice(99, &stats, &positions, &mut fast);
        let mut owned = Vec::new();
        encode_response(
            99,
            &Response::Matches {
                stats,
                positions: positions.iter().map(|&p| p as u64).collect(),
            },
            &mut owned,
        );
        assert_eq!(fast, owned);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = Vec::new();
        encode_request(1, &Request::Ping, &mut frame);
        frame[4] = b'X';
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(ProtocolError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut frame = Vec::new();
        encode_request(1, &Request::Ping, &mut frame);
        frame[8] = 0xFF; // low byte of the version field
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(ProtocolError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn unknown_op_status_and_mode_are_rejected() {
        let mut frame = Vec::new();
        encode_request(1, &Request::Ping, &mut frame);
        frame[18] = 200; // op byte
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(ProtocolError::UnknownOp(200))
        ));
        let mut frame = Vec::new();
        encode_response(1, &Response::Pong, &mut frame);
        frame[18] = 201;
        assert!(matches!(
            decode_response(&frame[4..]),
            Err(ProtocolError::UnknownStatus(201))
        ));
        let mut frame = Vec::new();
        encode_request(
            1,
            &Request::Query {
                mode: ResultMode::Collect,
                pattern: vec![1],
            },
            &mut frame,
        );
        frame[19] = 77; // mode byte
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(ProtocolError::UnknownMode(77))
        ));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let mut frame = Vec::new();
        encode_request(
            3,
            &Request::Query {
                mode: ResultMode::FirstK(5),
                pattern: vec![1, 2, 3],
            },
            &mut frame,
        );
        // Short read: every prefix of the payload that is not the whole
        // payload must fail with Truncated (never panic).
        for cut in 0..frame.len() - 4 {
            let result = decode_request(&frame[4..4 + cut]);
            assert!(
                matches!(result, Err(ProtocolError::Truncated { .. })),
                "cut at {cut}: {result:?}"
            );
        }
        // Trailing garbage after a well-formed body.
        let mut long = frame[4..].to_vec();
        long.push(0xAB);
        assert!(matches!(
            decode_request(&long),
            Err(ProtocolError::TrailingBytes(1))
        ));
    }

    #[test]
    fn append_bodies_with_lying_counts_are_rejected() {
        let mut frame = Vec::new();
        encode_request(
            5,
            &Request::Append {
                sigma: 2,
                probs: vec![0.5, 0.5],
            },
            &mut frame,
        );
        // Every strict prefix of the payload fails Truncated, never panics.
        for cut in 0..frame.len() - 4 {
            assert!(
                matches!(
                    decode_request(&frame[4..4 + cut]),
                    Err(ProtocolError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        // A count larger than the remaining floats: Truncated.
        let mut lying = frame.clone();
        lying[4 + HEADER_LEN + 8] += 1; // low byte of the value count
        assert!(matches!(
            decode_request(&lying[4..]),
            Err(ProtocolError::Truncated { .. })
        ));
        // A count smaller than the supplied floats: TrailingBytes.
        let mut lying = frame;
        lying[4 + HEADER_LEN + 8] -= 1;
        assert!(matches!(
            decode_request(&lying[4..]),
            Err(ProtocolError::TrailingBytes(8))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocating() {
        let bytes = u32::MAX.to_le_bytes();
        let mut reader: &[u8] = &bytes;
        let mut buf = Vec::new();
        let err = read_frame(&mut reader, MAX_REQUEST_FRAME, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.capacity() < MAX_REQUEST_FRAME);
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_mid_frame_eof() {
        let mut empty: &[u8] = &[];
        let mut buf = Vec::new();
        assert!(!read_frame(&mut empty, 1024, &mut buf).unwrap());
        // EOF inside the length prefix.
        let mut short: &[u8] = &[3, 0];
        assert_eq!(
            read_frame(&mut short, 1024, &mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // EOF inside the payload.
        let mut short: &[u8] = &[5, 0, 0, 0, 1, 2];
        assert_eq!(
            read_frame(&mut short, 1024, &mut buf).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn wire_stats_projection_round_trips() {
        let stats = QueryStats {
            candidates: 5,
            verified: 4,
            reported: 2,
            grid_nodes: 1,
            ..QueryStats::default()
        };
        let wire: WireStats = stats.into();
        let back: QueryStats = wire.into();
        assert_eq!(back, stats);
    }

    /// A fully-populated metrics snapshot for the wire tests: every
    /// histogram occupied, per-op list non-trivial, live view and slow-log
    /// non-empty.
    fn sample_metrics_snapshot() -> MetricsSnapshot {
        let hist = |values: &[u64]| {
            let h = ius_obs::Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        MetricsSnapshot {
            format_version: METRICS_FORMAT_VERSION,
            uptime_ns: 123_456_789,
            query_scan: hist(&[100, 200, 30_000]),
            query_locate: hist(&[50, 60]),
            query_verify: hist(&[1 << 20]),
            query_report: hist(&[7]),
            queue_wait: hist(&[900, 1_000_000]),
            op_service: vec![(0, hist(&[150])), (1, hist(&[10_000, 20_000]))],
            live: crate::metrics::LiveObsView {
                flush: hist(&[2_000_000]),
                compaction: hist(&[9_000_000, 11_000_000]),
                wal_fsync: hist(&[400_000]),
                segments: 5,
                memtable_rows: 321,
                swap_in_races: 1,
                compaction_errors: 2,
                wal_replay_records: 77,
                wal_replay_bytes: 8_192,
                wal_replay_ns: 3_000_000,
                last_error: "background compaction failed (will retry): disk full".into(),
            },
            slow_queries: vec![
                SlowQueryEntry {
                    ts_ns: 1_000,
                    duration_ns: 60_000_000,
                    pattern_len: 32,
                    reported: 4,
                    prefix_len: crate::metrics::SLOW_QUERY_PREFIX_LEN as u8,
                    prefix: [7; crate::metrics::SLOW_QUERY_PREFIX_LEN],
                },
                SlowQueryEntry {
                    ts_ns: 2_000,
                    duration_ns: 51_000_000,
                    pattern_len: 8,
                    reported: 0,
                    prefix_len: 8,
                    prefix: {
                        let mut p = [0u8; crate::metrics::SLOW_QUERY_PREFIX_LEN];
                        p[..8].copy_from_slice(&[0, 1, 2, 3, 3, 2, 1, 0]);
                        p
                    },
                },
            ],
            slow_query_threshold_ns: 50_000_000,
            rings: RingOccupancy {
                flight_recent: 12,
                flight_recent_capacity: 64,
                flight_pinned: 2,
                flight_pinned_capacity: 16,
                slow: 2,
                slow_capacity: 128,
            },
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        round_trip_response(Response::Metrics(sample_metrics_snapshot()));
        // The all-zero snapshot (static server, nothing recorded yet) must
        // round-trip too — as long as it announces the spoken format.
        round_trip_response(Response::Metrics(MetricsSnapshot {
            format_version: METRICS_FORMAT_VERSION,
            ..MetricsSnapshot::default()
        }));
    }

    #[test]
    fn metrics_truncations_are_refused_typed() {
        let mut frame = Vec::new();
        encode_response(9, &Response::Metrics(sample_metrics_snapshot()), &mut frame);
        // Every strict prefix of the payload fails Truncated, never panics
        // and never misdecodes.
        for cut in HEADER_LEN..frame.len() - 4 {
            let result = decode_response(&frame[4..4 + cut]);
            assert!(
                matches!(result, Err(ProtocolError::Truncated { .. })),
                "cut at {cut}: {result:?}"
            );
        }
        // Trailing garbage after a well-formed snapshot.
        let mut long = frame[4..].to_vec();
        long.push(0x00);
        assert!(matches!(
            decode_response(&long),
            Err(ProtocolError::TrailingBytes(1))
        ));
    }

    #[test]
    fn future_metrics_format_is_refused_typed() {
        let mut frame = Vec::new();
        encode_response(
            11,
            &Response::Metrics(MetricsSnapshot {
                format_version: METRICS_FORMAT_VERSION + 1,
                ..MetricsSnapshot::default()
            }),
            &mut frame,
        );
        assert!(matches!(
            decode_response(&frame[4..]),
            Err(ProtocolError::UnsupportedMetricsFormat(v)) if v == METRICS_FORMAT_VERSION + 1
        ));
    }

    /// A populated trace dump: one pinned error trace, one recent trace
    /// with a nested span tree and non-trivial detail words.
    fn sample_trace_dump() -> Response {
        Response::TraceDump {
            format_version: TRACE_FORMAT_VERSION,
            records: vec![
                TraceRecordSnapshot {
                    trace_id: 42,
                    op: 1,
                    error: 3,
                    started_ns: 1_000_000,
                    total_ns: 90_000,
                    truncated: true,
                    pinned: true,
                    spans: vec![Span {
                        code: ius_obs::trace::STAGE_FRAME_DECODE,
                        depth: 0,
                        start_ns: 10,
                        dur_ns: 500,
                        a: 0,
                        b: 0,
                    }],
                },
                TraceRecordSnapshot {
                    trace_id: 43,
                    op: 1,
                    error: TRACE_NO_ERROR,
                    started_ns: 2_000_000,
                    total_ns: 45_000,
                    truncated: false,
                    pinned: false,
                    spans: vec![
                        Span {
                            code: ius_obs::trace::STAGE_QUERY,
                            depth: 0,
                            start_ns: 600,
                            dur_ns: 40_000,
                            a: 0,
                            b: 7,
                        },
                        Span {
                            code: ius_obs::trace::STAGE_PART,
                            depth: 1,
                            start_ns: 0,
                            dur_ns: 30_000,
                            a: 2,
                            b: 7,
                        },
                        Span {
                            code: ius_obs::trace::STAGE_VERIFY,
                            depth: 2,
                            start_ns: 0,
                            dur_ns: 20_000,
                            a: 11,
                            b: 0,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn trace_dump_round_trips() {
        round_trip_request(Request::TraceDump);
        round_trip_response(sample_trace_dump());
        // The empty dump (fresh server, nothing sampled yet) round-trips.
        round_trip_response(Response::TraceDump {
            format_version: TRACE_FORMAT_VERSION,
            records: Vec::new(),
        });
    }

    #[test]
    fn trace_dump_truncations_are_refused_typed() {
        let mut frame = Vec::new();
        encode_response(13, &sample_trace_dump(), &mut frame);
        for cut in HEADER_LEN..frame.len() - 4 {
            let result = decode_response(&frame[4..4 + cut]);
            assert!(
                matches!(result, Err(ProtocolError::Truncated { .. })),
                "cut at {cut}: {result:?}"
            );
        }
        let mut long = frame[4..].to_vec();
        long.push(0x00);
        assert!(matches!(
            decode_response(&long),
            Err(ProtocolError::TrailingBytes(1))
        ));
    }

    #[test]
    fn future_trace_format_is_refused_typed() {
        let mut frame = Vec::new();
        encode_response(
            17,
            &Response::TraceDump {
                format_version: TRACE_FORMAT_VERSION + 1,
                records: Vec::new(),
            },
            &mut frame,
        );
        assert!(matches!(
            decode_response(&frame[4..]),
            Err(ProtocolError::UnsupportedTraceFormat(v)) if v == TRACE_FORMAT_VERSION + 1
        ));
    }
}
