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
//! questions. All multi-byte integers are little-endian, written and read
//! through [`ius_arena::le`] like every on-disk format.
//!
//! **Version policy:** [`WIRE_VERSION`] is the one version of every frame
//! and every body layout: it is bumped on any layout change, and peers
//! reject versions they do not know (no silent negotiation, no per-body
//! versions) — the same policy as the index file format. A server
//! answering an unknown version replies with a typed
//! [`ErrorCode::UnsupportedVersion`] frame carrying the *current* magic and
//! version, so even a stale client can decode the refusal.
//!
//! * Version 2 added the live-corpus ops ([`Request::Append`],
//!   [`Request::DeleteRange`], [`Request::Flush`], [`Request::Compact`] and
//!   the [`Response::Live`] frame) and raised [`MAX_REQUEST_FRAME`] so an
//!   `APPEND` can carry a real batch of probability rows.
//! * Version 3 added the durability counters and `last_error` to `STATS`.
//! * Version 4 made metrics one surface. `STATS` answers a self-describing
//!   [`Scrape`]: `u32 count`, then per sample `str name · u8 kind ·
//!   payload`, where kind 0 is a counter and 1 a gauge (`u64`), 2 a
//!   histogram (the sparse [`HistogramSnapshot`] encoding) and 3 an info
//!   string. Names are flat `[a-z0-9_]+` and unique; the decoder refuses
//!   anything else typed. The `METRICS` op (9) and its status (7) are
//!   retired — op 9 is answered `UNKNOWN_OP` — and the `TRACE_DUMP` body
//!   lost its own format version and gained the slow-query log (events,
//!   not metrics). New samples need no version bump: a reader looks
//!   samples up by name.
//! * Version 5 made `TRACE_DUMP` one list of flight records: the slow-query
//!   log became the recorder's slow ring, each record names its ring
//!   (errors, slow or recent) where it carried a pinned flag, and every
//!   record carries a QUERY's pattern length, first ranks and reported
//!   count.
//!
//! The `TRACE_DUMP` op ([`Request::TraceDump`] / [`Response::TraceDump`])
//! answers a non-destructive snapshot of the server's flight recorder:
//! the errors ring, then the slow ring, then the recent ring, each oldest
//! first. Its body is `u32 count`, then per record
//!
//! ```text
//! u64 trace id · u8 ring · u8 op · u8 error · u8 truncated · u64 started
//! · u64 total · u64 pattern len · u64 reported · 16 B pattern prefix
//! · u16 span count · spans (u16 code · u8 depth · u64 start, dur, a, b)
//! ```
//!
//! Requests: [`Request::Ping`], [`Request::Query`] (with a [`ResultMode`]
//! mapping onto the `ius_query` sinks: collect-all, count-only, first-`k`),
//! [`Request::Stats`], [`Request::Reload`], [`Request::Shutdown`], plus the
//! live-corpus mutations above (answered with a typed
//! [`ErrorCode::Live`] error by a server that does not serve a live index).
//! Responses mirror them, plus the typed [`Response::Error`] frame the
//! server sends instead of ever panicking (or hanging up silently) on
//! untrusted bytes.

use crate::flight::{FlightRing, RequestFacts, TraceRecordSnapshot, SLOW_QUERY_PREFIX_LEN};
use ius_arena::le::{self, Reader, Truncated};
use ius_obs::trace::Span;
use ius_obs::{HistogramSnapshot, Scrape, Value};
use ius_query::QueryStats;
use std::fmt;
use std::io::{self, Read};

/// The four magic bytes opening every wire frame.
pub const WIRE_MAGIC: [u8; 4] = *b"IUSW";

/// The current wire-protocol version.
pub const WIRE_VERSION: u16 = 5;

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
pub(crate) const OP_QUERY: u8 = 1;
const OP_STATS: u8 = 2;
const OP_RELOAD: u8 = 3;
const OP_SHUTDOWN: u8 = 4;
const OP_APPEND: u8 = 5;
const OP_DELETE_RANGE: u8 = 6;
const OP_FLUSH: u8 = 7;
const OP_COMPACT: u8 = 8;
// Op 9 was METRICS until wire version 4; it is unassigned now.
const OP_TRACE_DUMP: u8 = 10;

/// Every request op byte with its display name, sorted by op byte: the
/// one op table.
const OPS: [(u8, &str); 10] = [
    (OP_PING, "PING"),
    (OP_QUERY, "QUERY"),
    (OP_STATS, "STATS"),
    (OP_RELOAD, "RELOAD"),
    (OP_SHUTDOWN, "SHUTDOWN"),
    (OP_APPEND, "APPEND"),
    (OP_DELETE_RANGE, "DELETE_RANGE"),
    (OP_FLUSH, "FLUSH"),
    (OP_COMPACT, "COMPACT"),
    (OP_TRACE_DUMP, "TRACE_DUMP"),
];

/// Number of per-op service histograms: one slot per op byte up to the
/// largest assigned op (`OPS` is sorted by op byte).
pub const OP_SERVICE_SLOTS: usize = OPS[OPS.len() - 1].0 as usize + 1;

/// Display name of a request op byte (`UNKNOWN` for unassigned bytes).
pub fn op_name(op: u8) -> &'static str {
    OPS.iter()
        .find(|&&(byte, _)| byte == op)
        .map_or("UNKNOWN", |&(_, name)| name)
}

// Response statuses.
const ST_PONG: u8 = 0;
const ST_MATCHES: u8 = 1;
const ST_COUNT: u8 = 2;
const ST_STATS: u8 = 3;
const ST_RELOADED: u8 = 4;
const ST_SHUTTING_DOWN: u8 = 5;
const ST_LIVE: u8 = 6;
// Status 7 answered METRICS until wire version 4.
const ST_TRACE_DUMP: u8 = 8;

// Scrape sample kinds.
const KIND_COUNTER: u8 = 0;
const KIND_GAUGE: u8 = 1;
const KIND_HISTOGRAM: u8 = 2;
const KIND_INFO: u8 = 3;
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
    /// Scrape the server's metrics: every counter, gauge, histogram and
    /// info sample, by name.
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
    /// Snapshot the server's events: the flight recorder's errors, slow
    /// and recent rings.
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
        Self {
            candidates: s.candidates as usize,
            verified: s.verified as usize,
            reported: s.reported as usize,
            grid_nodes: s.grid_nodes as usize,
        }
    }
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
    /// Answer to [`Request::Stats`]: the server's metrics scrape.
    Stats(Scrape),
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
    /// Answer to [`Request::TraceDump`]: the surviving flight records,
    /// errors ring first, then slow, then recent, each oldest first.
    TraceDump(Vec<TraceRecordSnapshot>),
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
    /// A scrape sample carries a kind byte this build does not know.
    UnknownSampleKind(u8),
    /// A scrape sample name is not flat `[a-z0-9_]+`.
    InvalidSampleName(String),
    /// A scrape names the same sample twice.
    DuplicateSample(String),
    /// A flight record names a ring this build does not know.
    UnknownRing(u8),
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
            ProtocolError::UnknownSampleKind(k) => write!(f, "unknown scrape sample kind {k}"),
            ProtocolError::InvalidSampleName(name) => {
                write!(f, "scrape sample name {name:?} is not [a-z0-9_]+")
            }
            ProtocolError::DuplicateSample(name) => {
                write!(f, "scrape names sample {name:?} twice")
            }
            ProtocolError::UnknownRing(ring) => write!(f, "unknown flight-recorder ring {ring}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<Truncated> for ProtocolError {
    #[inline]
    fn from(e: Truncated) -> Self {
        ProtocolError::Truncated { what: e.what }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    le::put(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_stats(out: &mut Vec<u8>, stats: &WireStats) {
    le::put_slice(
        out,
        &[
            stats.candidates,
            stats.verified,
            stats.reported,
            stats.grid_nodes,
        ],
    );
}

/// Sparse histogram encoding: the four summary integers, then the
/// occupied `(bucket index, count)` pairs.
fn put_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    le::put_slice(out, &[h.count, h.sum, h.min, h.max]);
    le::put(out, h.buckets.len() as u32);
    for &(idx, n) in &h.buckets {
        le::put(out, idx);
        le::put(out, n);
    }
}

/// The body of a MATCHES frame: the stats, then the counted positions.
#[inline]
fn put_matches(
    out: &mut Vec<u8>,
    stats: &WireStats,
    positions: impl ExactSizeIterator<Item = u64>,
) {
    put_stats(out, stats);
    le::put(out, positions.len() as u64);
    out.reserve(positions.len() * 8);
    for pos in positions {
        le::put(out, pos);
    }
}

/// Starts a frame in `out` (clearing it): length placeholder + header.
fn begin_frame(out: &mut Vec<u8>, id: u64, op: u8) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]); // length prefix, patched by end_frame
    out.extend_from_slice(&WIRE_MAGIC);
    le::put(out, WIRE_VERSION);
    le::put(out, id);
    le::put(out, op);
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
                ResultMode::Collect => le::put(out, MODE_COLLECT),
                ResultMode::Count => le::put(out, MODE_COUNT),
                ResultMode::FirstK(k) => {
                    le::put(out, MODE_FIRST_K);
                    le::put(out, *k);
                }
            }
            le::put(out, pattern.len() as u32);
            out.extend_from_slice(pattern);
        }
        Request::Stats => begin_frame(out, id, OP_STATS),
        Request::Reload { path } => {
            begin_frame(out, id, OP_RELOAD);
            put_str(out, path.as_deref().unwrap_or(""));
        }
        Request::Shutdown => begin_frame(out, id, OP_SHUTDOWN),
        Request::Append { sigma, probs } => {
            begin_frame(out, id, OP_APPEND);
            le::put_slice(out, &[*sigma, probs.len() as u64]);
            le::put_slice(out, probs);
        }
        Request::DeleteRange { start, end } => {
            begin_frame(out, id, OP_DELETE_RANGE);
            le::put(out, *start);
            le::put(out, *end);
        }
        Request::Flush => begin_frame(out, id, OP_FLUSH),
        Request::Compact { full } => {
            begin_frame(out, id, OP_COMPACT);
            le::put(out, u8::from(*full));
        }
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
            put_matches(out, stats, positions.iter().copied());
        }
        Response::Count { stats, count } => {
            begin_frame(out, id, ST_COUNT);
            put_stats(out, stats);
            le::put(out, *count);
        }
        Response::Stats(scrape) => {
            begin_frame(out, id, ST_STATS);
            le::put(out, scrape.samples().len() as u32);
            for (name, value) in scrape.samples() {
                put_str(out, name);
                match value {
                    Value::Counter(v) => {
                        le::put(out, KIND_COUNTER);
                        le::put(out, *v);
                    }
                    Value::Gauge(v) => {
                        le::put(out, KIND_GAUGE);
                        le::put(out, *v);
                    }
                    Value::Histogram(h) => {
                        le::put(out, KIND_HISTOGRAM);
                        put_histogram(out, h);
                    }
                    Value::Info(text) => {
                        le::put(out, KIND_INFO);
                        put_str(out, text);
                    }
                }
            }
        }
        Response::Reloaded { generation } => {
            begin_frame(out, id, ST_RELOADED);
            le::put(out, *generation);
        }
        Response::ShuttingDown => begin_frame(out, id, ST_SHUTTING_DOWN),
        Response::Live(snapshot) => {
            begin_frame(out, id, ST_LIVE);
            le::put_slice(
                out,
                &[
                    snapshot.corpus_len,
                    snapshot.segments,
                    snapshot.memtable_rows,
                    snapshot.tombstones,
                    snapshot.changed,
                ],
            );
        }
        Response::TraceDump(records) => {
            begin_frame(out, id, ST_TRACE_DUMP);
            le::put(out, records.len() as u32);
            for record in records {
                let facts = &record.facts;
                le::put(out, record.trace_id);
                out.extend_from_slice(&[
                    record.ring as u8,
                    facts.op,
                    facts.error,
                    u8::from(record.truncated),
                ]);
                le::put_slice(
                    out,
                    &[
                        facts.started_ns,
                        facts.total_ns,
                        facts.pattern_len,
                        facts.reported,
                    ],
                );
                out.extend_from_slice(&facts.prefix);
                le::put(out, record.spans.len() as u16);
                for span in &record.spans {
                    le::put(out, span.code);
                    le::put(out, span.depth);
                    le::put_slice(out, &[span.start_ns, span.dur_ns, span.a, span.b]);
                }
            }
        }
        Response::Error { code, message } => {
            begin_frame(out, id, ST_ERROR);
            le::put(out, code.to_byte());
            put_str(out, message);
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
    put_matches(out, stats, positions.iter().map(|&pos| pos as u64));
    end_frame(out);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A `u32`-length-prefixed UTF-8 string.
fn get_string(r: &mut Reader, what: &'static str) -> Result<String, ProtocolError> {
    let len = r.get::<u32>(what)? as usize;
    let bytes = r.bytes(len, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::InvalidUtf8)
}

/// A histogram in the sparse encoding of [`put_histogram`].
fn get_histogram(r: &mut Reader, what: &'static str) -> Result<HistogramSnapshot, ProtocolError> {
    let count = r.get(what)?;
    let sum = r.get(what)?;
    let min = r.get(what)?;
    let max = r.get(what)?;
    let n = r.get::<u32>(what)? as usize;
    // A lying pair count is bounds-checked per read, so cap the reserve.
    let mut buckets = Vec::with_capacity(n.min(r.remaining() / 12));
    for _ in 0..n {
        buckets.push((r.get(what)?, r.get(what)?));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets,
    })
}

/// Refuses bytes after the announced content.
#[inline]
fn finish(r: &Reader) -> Result<(), ProtocolError> {
    match r.remaining() {
        0 => Ok(()),
        rest => Err(ProtocolError::TrailingBytes(rest)),
    }
}

/// Validates the payload header and returns `(request id, op/status byte,
/// body)`. Shared by request and response decoding; the server uses it
/// directly so it can echo the request id even when the *body* is garbage.
pub fn decode_header(payload: &[u8]) -> Result<(u64, u8, &[u8]), ProtocolError> {
    let mut r = Reader::new(payload);
    let magic = r.bytes(4, "magic")?;
    if magic != WIRE_MAGIC {
        return Err(ProtocolError::BadMagic(
            magic.try_into().expect("4-byte slice"),
        ));
    }
    let version: u16 = r.get("version")?;
    if version != WIRE_VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let id = r.get("request id")?;
    let op = r.get("op")?;
    Ok((id, op, &payload[r.pos()..]))
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
    let decode = || -> Result<(ResultMode, &[u8]), ProtocolError> {
        let mut r = Reader::new(body);
        let mode = match r.get("result mode")? {
            MODE_COLLECT => ResultMode::Collect,
            MODE_COUNT => ResultMode::Count,
            MODE_FIRST_K => ResultMode::FirstK(r.get("first-k bound")?),
            other => return Err(ProtocolError::UnknownMode(other)),
        };
        let len = r.get::<u32>("pattern length")? as usize;
        let pattern = r.bytes(len, "pattern bytes")?;
        finish(&r)?;
        Ok((mode, pattern))
    };
    Some(decode())
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
    let mut r = Reader::new(body);
    let request = match op {
        OP_PING => Request::Ping,
        OP_STATS => Request::Stats,
        OP_RELOAD => {
            let path = get_string(&mut r, "reload path")?;
            Request::Reload {
                path: (!path.is_empty()).then_some(path),
            }
        }
        OP_SHUTDOWN => Request::Shutdown,
        OP_APPEND => {
            let sigma = r.get("append sigma")?;
            let count = r.usize("append value count")?;
            // The remaining payload must hold exactly `count` floats: a
            // lying count fails with Truncated (checked before anything is
            // allocated) or TrailingBytes instead of over-reading.
            let probs = r.vec(count, "append probability")?;
            Request::Append { sigma, probs }
        }
        OP_DELETE_RANGE => Request::DeleteRange {
            start: r.get("delete start")?,
            end: r.get("delete end")?,
        },
        OP_FLUSH => Request::Flush,
        OP_COMPACT => Request::Compact {
            full: r.get::<u8>("compact mode")? != 0,
        },
        OP_TRACE_DUMP => Request::TraceDump,
        other => return Err(ProtocolError::UnknownOp(other)),
    };
    finish(&r)?;
    Ok(request)
}

/// Decodes a full request payload (header + body).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtocolError> {
    let (id, op, body) = decode_header(payload)?;
    Ok((id, decode_request_body(op, body)?))
}

/// Decodes a `STATS` body. Every sample name must be valid and unique
/// and every kind known; anything else is refused typed.
fn decode_scrape(r: &mut Reader) -> Result<Scrape, ProtocolError> {
    let count = r.get::<u32>("sample count")? as usize;
    let mut scrape = Scrape::new();
    for _ in 0..count {
        let name = get_string(r, "sample name")?;
        let value = match r.get::<u8>("sample kind")? {
            KIND_COUNTER => Value::Counter(r.get("counter value")?),
            KIND_GAUGE => Value::Gauge(r.get("gauge value")?),
            KIND_HISTOGRAM => Value::Histogram(get_histogram(r, "histogram value")?),
            KIND_INFO => Value::Info(get_string(r, "info value")?),
            other => return Err(ProtocolError::UnknownSampleKind(other)),
        };
        if !ius_obs::valid_name(&name) {
            return Err(ProtocolError::InvalidSampleName(name));
        }
        if scrape.get(&name).is_some() {
            return Err(ProtocolError::DuplicateSample(name));
        }
        scrape.push(name, value);
    }
    Ok(scrape)
}

/// Decodes a full response payload (header + body).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtocolError> {
    let (id, status, body) = decode_header(payload)?;
    let mut r = Reader::new(body);
    let take_stats = |r: &mut Reader| -> Result<WireStats, ProtocolError> {
        Ok(WireStats {
            candidates: r.get("stats.candidates")?,
            verified: r.get("stats.verified")?,
            reported: r.get("stats.reported")?,
            grid_nodes: r.get("stats.grid_nodes")?,
        })
    };
    let response = match status {
        ST_PONG => Response::Pong,
        ST_MATCHES => {
            let stats = take_stats(&mut r)?;
            let count = r.usize("position count")?;
            let positions = r.vec(count, "position")?;
            Response::Matches { stats, positions }
        }
        ST_COUNT => {
            let stats = take_stats(&mut r)?;
            let count = r.get::<u64>("occurrence count")?;
            Response::Count { stats, count }
        }
        ST_STATS => Response::Stats(decode_scrape(&mut r)?),
        ST_RELOADED => Response::Reloaded {
            generation: r.get("generation")?,
        },
        ST_SHUTTING_DOWN => Response::ShuttingDown,
        ST_LIVE => Response::Live(LiveSnapshot {
            corpus_len: r.get("live corpus length")?,
            segments: r.get("live segment count")?,
            memtable_rows: r.get("live memtable rows")?,
            tombstones: r.get("live tombstone count")?,
            changed: r.get("live change count")?,
        }),
        ST_TRACE_DUMP => {
            let count = r.get::<u32>("trace count")? as usize;
            let mut records = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                let trace_id = r.get::<u64>("trace id")?;
                let ring_byte = r.get::<u8>("trace ring")?;
                let ring = FlightRing::from_byte(ring_byte)
                    .ok_or(ProtocolError::UnknownRing(ring_byte))?;
                let op = r.get::<u8>("trace op")?;
                let error = r.get::<u8>("trace error")?;
                let truncated = r.get::<u8>("trace truncated flag")? != 0;
                let mut facts =
                    RequestFacts::new(op, error, r.get("trace start")?, r.get("trace total")?);
                facts.pattern_len = r.get("trace pattern length")?;
                facts.reported = r.get("trace reported")?;
                facts
                    .prefix
                    .copy_from_slice(r.bytes(SLOW_QUERY_PREFIX_LEN, "trace pattern prefix")?);
                let span_count = r.get::<u16>("trace span count")? as usize;
                let mut spans = Vec::with_capacity(span_count.min(4096));
                for _ in 0..span_count {
                    spans.push(Span {
                        code: r.get("span code")?,
                        depth: r.get("span depth")?,
                        start_ns: r.get("span start")?,
                        dur_ns: r.get("span duration")?,
                        a: r.get("span detail a")?,
                        b: r.get("span detail b")?,
                    });
                }
                records.push(TraceRecordSnapshot {
                    trace_id,
                    ring,
                    truncated,
                    facts,
                    spans,
                });
            }
            Response::TraceDump(records)
        }
        ST_ERROR => {
            let code = ErrorCode::from_byte(r.get::<u8>("error code")?)?;
            let message = get_string(&mut r, "error message")?;
            Response::Error { code, message }
        }
        other => return Err(ProtocolError::UnknownStatus(other)),
    };
    finish(&r)?;
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
    let len = Reader::new(&prefix).get::<u32>("length prefix")? as usize;
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
    use proptest::collection::vec;
    use proptest::prelude::*;

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
        round_trip_response(Response::Stats(sample_scrape()));
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
        // Versions 3 and 4 are earlier layouts; 0xFF a future one.
        for version in [3u16, 4, 0xFF, WIRE_VERSION + 1] {
            frame[8..10].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_request(&frame[4..]),
                Err(ProtocolError::UnsupportedVersion(version))
            );
        }
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
        };
        let wire: WireStats = stats.into();
        let back: QueryStats = wire.into();
        assert_eq!(back, stats);
    }

    /// A scrape with every sample kind: counters, gauges, occupied and
    /// empty histograms, an empty and a non-trivial info string.
    fn sample_scrape() -> Scrape {
        let hist = |values: &[u64]| {
            let h = ius_obs::Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let mut scrape = Scrape::new();
        for (name, value) in [
            ("index_name", Value::Info("MWSA-G".into())),
            ("generation", Value::Gauge(2)),
            ("requests", Value::Counter(1_000)),
            ("protocol_errors", Value::Counter(3)),
            ("query_scan_ns", Value::Histogram(hist(&[100, 200, 30_000]))),
            ("queue_wait_ns", Value::Histogram(hist(&[900, 1_000_000]))),
            ("live_flush_ns", Value::Histogram(hist(&[]))),
            ("op_service_ns_query", Value::Histogram(hist(&[10_000]))),
            ("live_segments", Value::Gauge(5)),
            ("compaction_errors", Value::Counter(u64::MAX)),
            (
                "last_error",
                Value::Info("background compaction failed (will retry): disk full".into()),
            ),
            ("slow_query_threshold_ns", Value::Gauge(50_000_000)),
        ] {
            scrape.push(name, value);
        }
        scrape
    }

    /// Encodes a `STATS` answer and returns its payload (length prefix
    /// stripped).
    fn scrape_payload(scrape: &Scrape) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_response(9, &Response::Stats(scrape.clone()), &mut frame);
        frame.split_off(4)
    }

    #[test]
    fn metrics_response_round_trips() {
        round_trip_response(Response::Stats(sample_scrape()));
        // The empty scrape round-trips too.
        round_trip_response(Response::Stats(Scrape::new()));
    }

    #[test]
    fn metrics_truncations_are_refused_typed() {
        let payload = scrape_payload(&sample_scrape());
        // Every strict prefix of the payload fails Truncated, never panics
        // and never misdecodes.
        for cut in HEADER_LEN..payload.len() {
            let result = decode_response(&payload[..cut]);
            assert!(
                matches!(result, Err(ProtocolError::Truncated { .. })),
                "cut at {cut}: {result:?}"
            );
        }
        // Trailing garbage after a well-formed scrape, of any length.
        for extra in 1..=9 {
            let mut long = payload.clone();
            long.extend(std::iter::repeat_n(0u8, extra));
            assert_eq!(
                decode_response(&long),
                Err(ProtocolError::TrailingBytes(extra))
            );
        }
    }

    /// Offset of the kind byte of the single sample named `name` in a
    /// one-sample scrape payload: header, status, `u32 count`, `u32`
    /// name length, name.
    fn kind_offset(name: &str) -> usize {
        HEADER_LEN + 4 + 4 + name.len()
    }

    #[test]
    fn future_metrics_format_is_refused_typed() {
        // A sample kind this build does not know (a future layout) is
        // refused typed, never skipped or misread.
        let mut scrape = Scrape::new();
        scrape.push("requests", Value::Counter(7));
        let mut payload = scrape_payload(&scrape);
        for kind in [4u8, 7, 255] {
            payload[kind_offset("requests")] = kind;
            assert_eq!(
                decode_response(&payload),
                Err(ProtocolError::UnknownSampleKind(kind))
            );
        }
    }

    #[test]
    fn duplicate_and_invalid_sample_names_are_refused_typed() {
        // Two samples whose names differ in one byte: patch the second
        // onto the first.
        let mut scrape = Scrape::new();
        scrape.push("aa", Value::Counter(1));
        scrape.push("ab", Value::Gauge(2));
        let mut payload = scrape_payload(&scrape);
        let second = kind_offset("aa") + 1 + 8 + 4 + 1;
        assert_eq!(payload[second], b'b');
        payload[second] = b'a';
        assert_eq!(
            decode_response(&payload),
            Err(ProtocolError::DuplicateSample("aa".into()))
        );
        // Names outside [a-z0-9_]: upper case, punctuation, a label, and
        // the empty name.
        for bad in ["Ab", "a-", "a{", "a.", " a"] {
            let mut payload = scrape_payload(&scrape);
            let first = kind_offset("aa") - 2;
            payload[first..first + 2].copy_from_slice(bad.as_bytes());
            assert_eq!(
                decode_response(&payload),
                Err(ProtocolError::InvalidSampleName(bad.into()))
            );
        }
        let mut empty_name = Vec::new();
        begin_frame(&mut empty_name, 1, ST_STATS);
        le::put(&mut empty_name, 1u32);
        put_str(&mut empty_name, "");
        le::put(&mut empty_name, KIND_COUNTER);
        le::put(&mut empty_name, 0u64);
        end_frame(&mut empty_name);
        assert_eq!(
            decode_response(&empty_name[4..]),
            Err(ProtocolError::InvalidSampleName(String::new()))
        );
    }

    #[test]
    fn scrape_text_exposition_is_pinned() {
        let mut scrape = Scrape::new();
        let h = ius_obs::Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        for (name, value) in [
            ("index_name", Value::Info("MWSA \"G\"\\x\ny".into())),
            ("requests", Value::Counter(12)),
            ("live_segments", Value::Gauge(3)),
            ("query_scan_ns", Value::Histogram(h.snapshot())),
            ("empty_ns", Value::Histogram(HistogramSnapshot::default())),
        ] {
            scrape.push(name, value);
        }
        assert_eq!(
            scrape.to_text(),
            "# TYPE index_name gauge\n\
             index_name{value=\"MWSA \\\"G\\\"\\\\x\\ny\"} 1\n\
             # TYPE requests counter\n\
             requests 12\n\
             # TYPE live_segments gauge\n\
             live_segments 3\n\
             # TYPE query_scan_ns summary\n\
             query_scan_ns{quantile=\"0.5\"} 20\n\
             query_scan_ns{quantile=\"0.99\"} 30\n\
             query_scan_ns_sum 60\n\
             query_scan_ns_count 3\n\
             # TYPE empty_ns summary\n\
             empty_ns{quantile=\"0.5\"} 0\n\
             empty_ns{quantile=\"0.99\"} 0\n\
             empty_ns_sum 0\n\
             empty_ns_count 0\n"
        );
    }

    /// A random valid scrape: up to 11 samples with random kinds and
    /// payloads, names drawn from the whole `[a-z0-9_]` alphabet (a name
    /// drawn twice keeps its first sample).
    fn arb_scrape() -> impl Strategy<Value = Scrape> {
        const NAME_BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        let sample = (
            (0u8..4, vec(0..NAME_BYTES.len(), 1..6)),
            (0..=u64::MAX, 0..=u64::MAX, 0..=u64::MAX),
            vec((0..=u32::MAX, 0..=u64::MAX), 0..6),
            vec(0x20u8..0x7F, 0..12),
        );
        vec(sample, 0..12).prop_map(|samples| {
            let mut scrape = Scrape::new();
            for ((kind, name), (a, b, c), buckets, info) in samples {
                let name: String = name.iter().map(|&i| NAME_BYTES[i] as char).collect();
                let value = match kind {
                    0 => Value::Counter(a),
                    1 => Value::Gauge(a),
                    2 => Value::Histogram(HistogramSnapshot {
                        count: a,
                        sum: b,
                        min: c,
                        max: a ^ c,
                        buckets,
                    }),
                    _ => Value::Info(String::from_utf8(info).expect("printable ASCII")),
                };
                if scrape.get(&name).is_none() {
                    scrape.push(name, value);
                }
            }
            scrape
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_scrapes_round_trip(scrape in arb_scrape()) {
            let payload = scrape_payload(&scrape);
            let (_, decoded) = decode_response(&payload).expect("decode");
            prop_assert_eq!(decoded, Response::Stats(scrape));
        }
    }

    /// A populated trace dump: one record from each ring — a sampled
    /// error with a truncated span tree, an unsampled slow query with its
    /// pattern prefix, and a sampled recent query with a nested span tree
    /// and non-trivial detail words.
    fn sample_trace_dump() -> Response {
        Response::TraceDump(vec![
            TraceRecordSnapshot {
                trace_id: 42,
                ring: FlightRing::Errors,
                truncated: true,
                facts: RequestFacts::new(OP_QUERY, 3, 1_000_000, 90_000),
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
                trace_id: 44,
                ring: FlightRing::Slow,
                truncated: false,
                facts: RequestFacts::new(OP_QUERY, TRACE_NO_ERROR, 1_500_000, 60_000_000)
                    .with_query(&[7; 32], 4),
                spans: Vec::new(),
            },
            TraceRecordSnapshot {
                trace_id: 43,
                ring: FlightRing::Recent,
                truncated: false,
                facts: RequestFacts::new(OP_QUERY, TRACE_NO_ERROR, 2_000_000, 45_000)
                    .with_query(&[0, 1, 2, 3, 3, 2, 1, 0], 7),
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
        ])
    }

    #[test]
    fn trace_dump_round_trips() {
        round_trip_request(Request::TraceDump);
        round_trip_response(sample_trace_dump());
        // The empty dump (fresh server, nothing sampled yet) round-trips.
        round_trip_response(Response::TraceDump(Vec::new()));
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
    fn unknown_flight_rings_are_refused_typed() {
        let mut frame = Vec::new();
        encode_response(19, &sample_trace_dump(), &mut frame);
        // The first record's ring byte follows the header, the record
        // count and its trace id.
        let at = 4 + HEADER_LEN + 4 + 8;
        assert_eq!(frame[at], FlightRing::Errors as u8);
        for ring in [3u8, 255] {
            frame[at] = ring;
            assert_eq!(
                decode_response(&frame[4..]),
                Err(ProtocolError::UnknownRing(ring))
            );
        }
    }

    #[test]
    fn future_trace_format_is_refused_typed() {
        // The dump body has no version of its own: a future layout comes
        // with a future wire version, refused typed naming it.
        let mut frame = Vec::new();
        encode_response(17, &sample_trace_dump(), &mut frame);
        frame[8..10].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_response(&frame[4..]),
            Err(ProtocolError::UnsupportedVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn op_table_names_every_op_once() {
        assert_eq!(OP_SERVICE_SLOTS, OP_TRACE_DUMP as usize + 1);
        assert_eq!(op_name(OP_QUERY), "QUERY");
        assert_eq!(op_name(OP_TRACE_DUMP), "TRACE_DUMP");
        assert_eq!(op_name(9), "UNKNOWN", "op 9 (METRICS) is retired");
        assert_eq!(op_name(200), "UNKNOWN");
        // Sorted and unique, as OP_SERVICE_SLOTS relies on.
        assert!(OPS.windows(2).all(|pair| pair[0].0 < pair[1].0));
        // Every op in the table decodes (possibly needing a body), and the
        // retired op 9 does not.
        for &(op, _) in &OPS {
            assert!(!matches!(
                decode_request_body(op, &[]),
                Err(ProtocolError::UnknownOp(_))
            ));
        }
        assert_eq!(
            decode_request_body(9, &[]),
            Err(ProtocolError::UnknownOp(9))
        );
    }
}
