//! Request-scoped span tracing: a fixed-depth, allocation-free span buffer
//! that records where one request's time went as a tree of stage timings.
//!
//! The metrics in the crate root aggregate *across* requests; this module
//! answers the orthogonal question of *one* request's breakdown: how long
//! it waited in the admission queue, how long the frame decode took, how
//! the query fan-out split across segments and their
//! scan/locate/verify/report stages, and what the response encode/write
//! cost. A trace is a flat array of [`Span`]s in pre-order with explicit
//! depths — no pointers, no allocation, `Copy` all the way down — so a
//! server can move a finished trace into a flight-recorder ring with one
//! `memcpy`-shaped copy.
//!
//! ## Recording discipline
//!
//! The trace is the only record of a request's stage times:
//!
//! * The server arms a trace ([`begin`]) for one request in
//!   [`clock::STAGE_SAMPLE_EVERY`] per worker, and that armed trace is the
//!   one sampling decision: the query engines write their stage leaves iff
//!   [`active`], and the server's stage histograms are read back from
//!   those leaves ([`stage_sums`]) before the trace is finished. The
//!   un-sampled fast path pays one thread-local flag read per
//!   instrumentation site.
//! * The buffer is a thread-local with [`MAX_SPANS`] inline slots and a
//!   [`MAX_DEPTH`] open-span stack. When either limit is hit the trace is
//!   marked truncated and recording degrades gracefully — enters and exits
//!   stay balanced, nothing allocates, nothing panics.
//! * Every span that has children is wall-clocked ([`enter`]/[`exit_with`]):
//!   it carries a start offset relative to the trace's begin time plus a
//!   duration. A fan-out part is such a span, so it shows when the part
//!   ran as well as how long. Duration-only [`leaf`] spans carry timings
//!   measured by the recording site (queue wait measured before the trace
//!   armed, an engine's chained stage stamps); their `start_ns` is 0
//!   because the leaf is written after the work it times.
//!
//! A request is served entirely on one worker thread, so the thread-local
//! buffer needs no synchronization and no signature changes in the layers
//! it threads through. That includes a partitioned query's fan-out: its
//! parts run one after another on the request thread, each under its own
//! wall-clocked [`STAGE_PART`] span holding the engine's stage leaves.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use super::clock;

/// Inline span slots per trace. A fully staged live query over eleven
/// segments fits (queue wait, decode, query, 11 parts × 5, memtable,
/// filter, encode, write = 62); deeper fan-outs truncate gracefully and
/// say so.
pub const MAX_SPANS: usize = 64;

/// Maximum nesting depth of open spans (request → query → part → stage is
/// 4; the rest is headroom).
pub const MAX_DEPTH: usize = 8;

/// Stage code: time between accept and worker pickup (duration-only).
pub const STAGE_QUEUE_WAIT: u16 = 1;
/// Stage code: wire-frame header + body decode.
pub const STAGE_FRAME_DECODE: u16 = 2;
/// Stage code: the whole query execution (fan-out + merge + finalize).
pub const STAGE_QUERY: u16 = 3;
/// Stage code: one segment of a fan-out (`a` is the part index, `b` the
/// part's reported count).
pub const STAGE_PART: u16 = 4;
/// Stage code: the live index's memtable scan part (`a` is its part index,
/// `b` its reported count).
pub const STAGE_MEMTABLE: u16 = 5;
/// Stage code: minimizer selection / pattern staging (leaf).
pub const STAGE_SCAN: u16 = 6;
/// Stage code: candidate range location (leaf).
pub const STAGE_LOCATE: u16 = 7;
/// Stage code: candidate verification (leaf; `a` is the candidate count).
pub const STAGE_VERIFY: u16 = 8;
/// Stage code: finalize/sort/dedup/stream (leaf).
pub const STAGE_REPORT: u16 = 9;
/// Stage code: tombstone-range filtering of merged live results.
pub const STAGE_TOMBSTONE_FILTER: u16 = 10;
/// Stage code: response body encoding.
pub const STAGE_RESPONSE_ENCODE: u16 = 11;
/// Stage code: response frame write to the socket.
pub const STAGE_RESPONSE_WRITE: u16 = 12;

/// Human name for a stage code (`"?"` for codes this build does not know).
pub fn stage_name(code: u16) -> &'static str {
    match code {
        STAGE_QUEUE_WAIT => "queue_wait",
        STAGE_FRAME_DECODE => "frame_decode",
        STAGE_QUERY => "query",
        STAGE_PART => "part",
        STAGE_MEMTABLE => "memtable",
        STAGE_SCAN => "scan",
        STAGE_LOCATE => "locate",
        STAGE_VERIFY => "verify",
        STAGE_REPORT => "report",
        STAGE_TOMBSTONE_FILTER => "tombstone_filter",
        STAGE_RESPONSE_ENCODE => "response_encode",
        STAGE_RESPONSE_WRITE => "response_write",
        _ => "?",
    }
}

/// One node of a trace tree, in pre-order with an explicit depth.
///
/// `start_ns` is relative to the trace's begin time for wall-clocked spans
/// and 0 for duration-only spans (see the module docs). `a` and `b` are
/// site-defined payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Stage code (one of the `STAGE_*` constants).
    pub code: u16,
    /// Nesting depth (0 = child of the request root).
    pub depth: u8,
    /// Start offset relative to the trace begin (0 for duration-only spans).
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// First site-defined payload word.
    pub a: u64,
    /// Second site-defined payload word.
    pub b: u64,
}

impl Span {
    /// The all-zero span used to const-initialize buffers.
    pub const EMPTY: Span = Span {
        code: 0,
        depth: 0,
        start_ns: 0,
        dur_ns: 0,
        a: 0,
        b: 0,
    };
}

/// Open-stack sentinel: the matching enter was dropped (buffer full), so
/// the matching exit must not stamp anything.
const OPEN_NONE: u16 = u16::MAX;

/// A fixed-capacity span recorder. All storage is inline; recording never
/// allocates, locks, or panics. Normally used through the thread-local
/// free functions ([`begin`], [`enter`], …), but constructible directly
/// for tests.
#[derive(Debug)]
pub struct SpanBuffer {
    trace_id: u64,
    started_ns: u64,
    active: bool,
    len: usize,
    open_len: usize,
    overflow_depth: u32,
    skipped: u32,
    open: [u16; MAX_DEPTH],
    spans: [Span; MAX_SPANS],
}

impl SpanBuffer {
    /// Creates an inactive, empty buffer.
    pub const fn new() -> Self {
        Self {
            trace_id: 0,
            started_ns: 0,
            active: false,
            len: 0,
            open_len: 0,
            overflow_depth: 0,
            skipped: 0,
            open: [OPEN_NONE; MAX_DEPTH],
            spans: [Span::EMPTY; MAX_SPANS],
        }
    }

    /// Arms the buffer for a new trace, dropping any earlier spans.
    pub fn begin(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
        self.started_ns = clock::now_ns();
        self.active = true;
        self.len = 0;
        self.open_len = 0;
        self.overflow_depth = 0;
        self.skipped = 0;
    }

    /// Whether a trace is currently armed.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    #[inline]
    fn rel_now(&self) -> u64 {
        clock::now_ns().saturating_sub(self.started_ns)
    }

    /// Opens a wall-clocked span as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, code: u16) {
        if !self.active {
            return;
        }
        if self.open_len == MAX_DEPTH {
            self.overflow_depth += 1;
            self.skipped += 1;
            return;
        }
        if self.len == MAX_SPANS {
            self.open[self.open_len] = OPEN_NONE;
            self.open_len += 1;
            self.skipped += 1;
            return;
        }
        self.spans[self.len] = Span {
            code,
            depth: self.open_len as u8,
            start_ns: self.rel_now(),
            dur_ns: 0,
            a: 0,
            b: 0,
        };
        self.open[self.open_len] = self.len as u16;
        self.open_len += 1;
        self.len += 1;
    }

    /// Closes the innermost open span, stamping its duration and payload.
    #[inline]
    pub fn exit_with(&mut self, a: u64, b: u64) {
        if !self.active {
            return;
        }
        if self.overflow_depth > 0 {
            self.overflow_depth -= 1;
            return;
        }
        if self.open_len == 0 {
            return;
        }
        self.open_len -= 1;
        let idx = self.open[self.open_len];
        if idx == OPEN_NONE {
            return;
        }
        let now = self.rel_now();
        let span = &mut self.spans[idx as usize];
        span.dur_ns = now.saturating_sub(span.start_ns);
        span.a = a;
        span.b = b;
    }

    /// Closes the innermost open span with a zero payload.
    #[inline]
    pub fn exit(&mut self) {
        self.exit_with(0, 0);
    }

    /// Records a completed duration-only span (no children).
    #[inline]
    pub fn leaf(&mut self, code: u16, dur_ns: u64, a: u64, b: u64) {
        if !self.active {
            return;
        }
        if self.len == MAX_SPANS {
            self.skipped += 1;
            return;
        }
        self.spans[self.len] = Span {
            code,
            depth: self.open_len.min(MAX_DEPTH) as u8,
            start_ns: 0,
            dur_ns,
            a,
            b,
        };
        self.len += 1;
    }

    /// Disarms the buffer without reading it (error paths).
    pub fn abandon(&mut self) {
        self.active = false;
    }

    /// The trace id the buffer was armed with.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Absolute [`clock::now_ns`] when the trace was armed.
    pub fn started_ns(&self) -> u64 {
        self.started_ns
    }

    /// The recorded spans, in pre-order.
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len]
    }

    /// Whether any span was dropped for capacity or depth.
    pub fn truncated(&self) -> bool {
        self.skipped > 0
    }

    /// Number of spans dropped for capacity or depth.
    pub fn skipped(&self) -> u32 {
        self.skipped
    }

    /// The summed durations of the spans of each code in `codes`, or
    /// `None` when the buffer holds no span of any of them.
    pub fn stage_sums<const N: usize>(&self, codes: [u16; N]) -> Option<[u64; N]> {
        let mut sums = [0u64; N];
        let mut found = false;
        for span in self.spans() {
            if let Some(i) = codes.iter().position(|&c| c == span.code) {
                sums[i] += span.dur_ns;
                found = true;
            }
        }
        found.then_some(sums)
    }
}

impl Default for SpanBuffer {
    fn default() -> Self {
        Self::new()
    }
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique trace id (monotone, never 0).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static TRACE: RefCell<SpanBuffer> = const { RefCell::new(SpanBuffer::new()) };
}

/// Arms this thread's trace buffer (see [`SpanBuffer::begin`]).
pub fn begin(trace_id: u64) {
    TRACE.with_borrow_mut(|t| t.begin(trace_id));
}

/// Whether this thread has an armed trace. This is the whole cost an
/// un-sampled request pays per instrumentation site.
#[inline]
pub fn active() -> bool {
    TRACE.with_borrow(|t| t.is_active())
}

/// Opens a wall-clocked span on this thread's trace (no-op when inactive).
#[inline]
pub fn enter(code: u16) {
    TRACE.with_borrow_mut(|t| t.enter(code));
}

/// Closes the innermost open span with a payload (no-op when inactive).
#[inline]
pub fn exit_with(a: u64, b: u64) {
    TRACE.with_borrow_mut(|t| t.exit_with(a, b));
}

/// Closes the innermost open span (no-op when inactive).
#[inline]
pub fn exit() {
    TRACE.with_borrow_mut(|t| t.exit());
}

/// Records a duration-only leaf span (no-op when inactive).
#[inline]
pub fn leaf(code: u16, dur_ns: u64, a: u64, b: u64) {
    TRACE.with_borrow_mut(|t| t.leaf(code, dur_ns, a, b));
}

/// Disarms this thread's trace without reading it.
pub fn abandon() {
    TRACE.with_borrow_mut(|t| t.abandon());
}

/// The armed trace's summed span durations per code (see
/// [`SpanBuffer::stage_sums`]); `None` when no trace is armed or it holds
/// none of the codes. This is how the server feeds its stage histograms
/// from a sampled request's leaves.
pub fn stage_sums<const N: usize>(codes: [u16; N]) -> Option<[u64; N]> {
    TRACE.with_borrow(|t| {
        if t.is_active() {
            t.stage_sums(codes)
        } else {
            None
        }
    })
}

/// Reads this thread's finished trace and disarms it. Returns `None` if no
/// trace was armed. The callback borrows the buffer in place so the caller
/// can copy the spans out without an intermediate allocation.
pub fn finish<R>(f: impl FnOnce(&SpanBuffer) -> R) -> Option<R> {
    TRACE.with_borrow_mut(|t| {
        if !t.is_active() {
            return None;
        }
        let r = f(t);
        t.abandon();
        Some(r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_nested_tree_with_wall_and_synthetic_spans() {
        let mut buf = SpanBuffer::new();
        assert!(!buf.is_active());
        buf.begin(42);
        buf.leaf(STAGE_QUEUE_WAIT, 1_000, 0, 0);
        buf.enter(STAGE_QUERY);
        buf.enter(STAGE_PART);
        buf.leaf(STAGE_SCAN, 1_200, 0, 0);
        buf.leaf(STAGE_VERIFY, 3_800, 0, 0);
        buf.exit_with(0, 17);
        buf.exit_with(99, 17);
        assert!(buf.is_active());
        assert!(!buf.truncated());
        let spans = buf.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(
            spans.iter().map(|s| s.code).collect::<Vec<_>>(),
            vec![
                STAGE_QUEUE_WAIT,
                STAGE_QUERY,
                STAGE_PART,
                STAGE_SCAN,
                STAGE_VERIFY
            ]
        );
        assert_eq!(
            spans.iter().map(|s| s.depth).collect::<Vec<_>>(),
            vec![0, 0, 1, 2, 2]
        );
        let (query, part) = (&spans[1], &spans[2]);
        assert_eq!((query.a, query.b), (99, 17));
        assert_eq!((part.a, part.b), (0, 17));
        assert!(part.start_ns >= query.start_ns, "parts are wall-clocked");
        assert!(part.start_ns + part.dur_ns <= query.start_ns + query.dur_ns);
        assert_eq!(spans[0].start_ns, 0, "leaves carry no start offset");
        assert_eq!(spans[3].dur_ns, 1_200);
        assert_eq!(buf.trace_id(), 42);
    }

    #[test]
    fn stage_sums_add_up_each_code_over_the_whole_tree() {
        let mut buf = SpanBuffer::new();
        buf.begin(7);
        assert_eq!(buf.stage_sums([STAGE_SCAN, STAGE_VERIFY]), None);
        buf.enter(STAGE_QUERY);
        for (scan, verify) in [(10, 100), (20, 200)] {
            buf.enter(STAGE_PART);
            buf.leaf(STAGE_SCAN, scan, 0, 0);
            buf.leaf(STAGE_VERIFY, verify, 0, 0);
            buf.exit();
        }
        buf.exit();
        assert_eq!(
            buf.stage_sums([STAGE_SCAN, STAGE_VERIFY, STAGE_REPORT]),
            Some([30, 300, 0])
        );
        // The thread-local reader sees only an armed trace.
        assert_eq!(stage_sums([STAGE_SCAN]), None);
        begin(next_trace_id());
        leaf(STAGE_SCAN, 5, 0, 0);
        assert_eq!(stage_sums([STAGE_SCAN, STAGE_LOCATE]), Some([5, 0]));
        abandon();
        assert_eq!(
            stage_sums([STAGE_SCAN]),
            None,
            "a finished trace is not read"
        );
    }

    #[test]
    fn depth_overflow_keeps_enters_and_exits_balanced() {
        let mut buf = SpanBuffer::new();
        buf.begin(1);
        for _ in 0..MAX_DEPTH + 3 {
            buf.enter(STAGE_QUERY);
        }
        assert!(buf.truncated());
        assert_eq!(buf.spans().len(), MAX_DEPTH);
        for _ in 0..MAX_DEPTH + 3 {
            buf.exit();
        }
        // A fresh top-level span still records at depth 0.
        buf.enter(STAGE_RESPONSE_WRITE);
        buf.exit();
        let last = *buf.spans().last().unwrap();
        assert_eq!(last.code, STAGE_RESPONSE_WRITE);
        assert_eq!(last.depth, 0);
    }

    #[test]
    fn span_overflow_truncates_without_losing_balance() {
        let mut buf = SpanBuffer::new();
        buf.begin(1);
        for _ in 0..MAX_SPANS + 5 {
            buf.leaf(STAGE_SCAN, 1, 0, 0);
        }
        assert_eq!(buf.spans().len(), MAX_SPANS);
        assert_eq!(buf.skipped(), 5);
        // Enter/exit on a full buffer must still pair cleanly.
        buf.enter(STAGE_QUERY);
        buf.exit_with(7, 7);
        assert_eq!(buf.spans().len(), MAX_SPANS);
        assert!(buf.truncated());
    }

    #[test]
    fn thread_local_finish_reads_and_disarms() {
        assert!(!active());
        begin(next_trace_id());
        assert!(active());
        enter(STAGE_QUERY);
        leaf(STAGE_SCAN, 10, 0, 0);
        exit_with(1, 2);
        let got = finish(|t| (t.trace_id(), t.spans().len())).expect("trace was armed");
        assert!(got.0 >= 1);
        assert_eq!(got.1, 2);
        assert!(!active());
        assert!(finish(|_| ()).is_none(), "finish disarmed the buffer");
    }

    #[test]
    fn stage_names_cover_every_code() {
        for code in STAGE_QUEUE_WAIT..=STAGE_RESPONSE_WRITE {
            assert_ne!(stage_name(code), "?");
        }
        assert_eq!(stage_name(999), "?");
    }
}
