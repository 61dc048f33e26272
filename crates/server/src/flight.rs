//! The flight recorder: fixed-capacity rings of the most recent *complete*
//! request traces, drained over the `TRACE_DUMP` wire op and dumped to
//! stderr when a worker dies.
//!
//! Sampled requests (the same 1-in-N ticket discipline as the stage
//! histograms) record a span tree into their worker's thread-local
//! [`ius_obs::trace`] buffer; when the response has been written the
//! finished trace is copied — one fixed-size `Copy`, no allocation — into
//! the recorder:
//!
//! * the **recent ring** ([`FLIGHT_RECENT_CAPACITY`] slots) holds the
//!   newest completed traces, slow or fast — a flight recorder is for
//!   reconstructing *what the server was doing*, not only its outliers;
//! * the **pinned ring** ([`FLIGHT_PINNED_CAPACITY`] slots) holds
//!   error-tagged traces (typed refusals, query/live errors) separately,
//!   so the last K failures survive churn from the healthy traffic that
//!   follows them.
//!
//! Both rings sit behind one mutex. That is deliberate: only sampled
//! requests push (so the lock is taken at 1/16th of the request rate, by
//! design off the un-sampled hot path), and a scrape copies everything out
//! under the same lock. The recording path never allocates — the rings are
//! preallocated at construction and a push is a slot overwrite.

use ius_obs::trace::{stage_name, Span, SpanBuffer, MAX_SPANS};
use ius_obs::{fmt_ns, Scrape, Value};
use std::sync::Mutex;

/// Slots in the recent-trace ring.
pub const FLIGHT_RECENT_CAPACITY: usize = 64;

/// Slots in the pinned error-trace ring.
pub const FLIGHT_PINNED_CAPACITY: usize = 16;

/// `error` byte of a trace that completed without a typed error frame.
pub const TRACE_NO_ERROR: u8 = u8::MAX;

/// One completed trace as it crosses the wire (and as tests inspect it):
/// the request identity plus the span tree in pre-order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceRecordSnapshot {
    /// Process-unique trace id ([`ius_obs::trace::next_trace_id`]).
    pub trace_id: u64,
    /// The request's op byte.
    pub op: u8,
    /// The `ErrorCode` byte of the typed error frame this request was
    /// answered with, or [`TRACE_NO_ERROR`].
    pub error: u8,
    /// Absolute `clock::now_ns` when the trace armed.
    pub started_ns: u64,
    /// Total service time of the request (read-to-write).
    pub total_ns: u64,
    /// Whether spans were dropped for capacity or depth.
    pub truncated: bool,
    /// Whether this record came from the pinned error ring.
    pub pinned: bool,
    /// The span tree, pre-order with explicit depths.
    pub spans: Vec<Span>,
}

impl TraceRecordSnapshot {
    /// Renders the trace tree as indented text, one span per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} op={} total={}{}{}\n",
            self.trace_id,
            crate::protocol::op_name(self.op),
            fmt_ns(self.total_ns),
            if self.error != TRACE_NO_ERROR {
                format!(" error={}", self.error)
            } else {
                String::new()
            },
            if self.truncated { " (truncated)" } else { "" },
        );
        for span in &self.spans {
            out.push_str(&format!(
                "{:indent$}{} {} a={} b={}\n",
                "",
                stage_name(span.code),
                fmt_ns(span.dur_ns),
                span.a,
                span.b,
                indent = 2 * (span.depth as usize + 1),
            ));
        }
        out
    }
}

/// One ring slot: everything inline so a push is a plain `Copy`.
#[derive(Clone, Copy)]
struct FixedRecord {
    trace_id: u64,
    op: u8,
    error: u8,
    started_ns: u64,
    total_ns: u64,
    truncated: bool,
    len: u16,
    spans: [Span; MAX_SPANS],
}

impl FixedRecord {
    const EMPTY: FixedRecord = FixedRecord {
        trace_id: 0,
        op: 0,
        error: TRACE_NO_ERROR,
        started_ns: 0,
        total_ns: 0,
        truncated: false,
        len: 0,
        spans: [Span::EMPTY; MAX_SPANS],
    };

    fn snapshot(&self, pinned: bool) -> TraceRecordSnapshot {
        TraceRecordSnapshot {
            trace_id: self.trace_id,
            op: self.op,
            error: self.error,
            started_ns: self.started_ns,
            total_ns: self.total_ns,
            truncated: self.truncated,
            pinned,
            spans: self.spans[..self.len as usize].to_vec(),
        }
    }
}

struct Ring {
    slots: Box<[FixedRecord]>,
    next: usize,
    len: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            slots: vec![FixedRecord::EMPTY; capacity.max(1)].into_boxed_slice(),
            next: 0,
            len: 0,
        }
    }

    fn push(&mut self, record: &FixedRecord) {
        self.slots[self.next] = *record;
        self.next = (self.next + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
    }

    /// Occupied slots, oldest first.
    fn iter_oldest_first(&self) -> impl Iterator<Item = &FixedRecord> {
        let cap = self.slots.len();
        let start = (self.next + cap - self.len) % cap;
        (0..self.len).map(move |i| &self.slots[(start + i) % cap])
    }
}

struct Inner {
    recent: Ring,
    pinned: Ring,
}

/// The server's trace rings. See the module docs.
///
/// Every lock recovers from poisoning: the panic-hook stderr dump renders
/// the recorder *from a panicking process*, and the slots are plain old
/// data (worst case one half-overwritten record), so refusing to read
/// after a mid-push panic would defeat the recorder's purpose.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("FlightRecorder")
            .field("recent", &inner.recent.len)
            .field("pinned", &inner.pinned.len)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates empty rings at the default capacities (preallocated; the
    /// recording path never allocates after this).
    pub fn new() -> Self {
        Self::with_capacity(FLIGHT_RECENT_CAPACITY, FLIGHT_PINNED_CAPACITY)
    }

    /// Creates empty rings at explicit capacities (both at least 1).
    pub fn with_capacity(recent: usize, pinned: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                recent: Ring::new(recent),
                pinned: Ring::new(pinned),
            }),
        }
    }

    /// Records one finished trace: error-tagged traces go to the pinned
    /// ring, the rest to the recent ring. Allocation-free (one lock plus a
    /// fixed-size copy).
    pub fn record(&self, buf: &SpanBuffer, op: u8, error: u8, total_ns: u64) {
        let mut record = FixedRecord {
            trace_id: buf.trace_id(),
            op,
            error,
            started_ns: buf.started_ns(),
            total_ns,
            truncated: buf.truncated(),
            len: buf.spans().len() as u16,
            spans: [Span::EMPTY; MAX_SPANS],
        };
        let spans = buf.spans();
        record.spans[..spans.len()].copy_from_slice(spans);
        let mut inner = self.lock();
        if error != TRACE_NO_ERROR {
            inner.pinned.push(&record);
        } else {
            inner.recent.push(&record);
        }
    }

    /// Copies every surviving trace out: pinned errors first (oldest
    /// first), then the recent ring (oldest first). Non-destructive — a
    /// dump is a snapshot, not a drain, so two monitors never race each
    /// other for the data.
    pub fn snapshot(&self) -> Vec<TraceRecordSnapshot> {
        let inner = self.lock();
        let mut out = Vec::with_capacity(inner.pinned.len + inner.recent.len);
        out.extend(inner.pinned.iter_oldest_first().map(|r| r.snapshot(true)));
        out.extend(inner.recent.iter_oldest_first().map(|r| r.snapshot(false)));
        out
    }

    /// Writes the rings' occupancy gauges into `scrape`, so ring sizing
    /// is visible without a `TRACE_DUMP`.
    pub fn scrape_into(&self, scrape: &mut Scrape) {
        let inner = self.lock();
        for (name, v) in [
            ("flight_recent_len", inner.recent.len),
            ("flight_recent_capacity", inner.recent.slots.len()),
            ("flight_pinned_len", inner.pinned.len),
            ("flight_pinned_capacity", inner.pinned.slots.len()),
        ] {
            scrape.push(name, Value::Gauge(v as u64));
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Renders every surviving trace (the panic-hook stderr dump).
    pub fn render(&self) -> String {
        let records = self.snapshot();
        let mut out = format!("== ius flight recorder: {} trace(s) ==\n", records.len());
        for record in &records {
            out.push_str(&record.render());
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_obs::{clock, trace};

    fn sample_trace(id: u64) -> SpanBuffer {
        clock::set_enabled(true);
        let mut buf = SpanBuffer::new();
        assert!(buf.begin(id));
        buf.leaf(trace::STAGE_QUEUE_WAIT, 500, 0, 0);
        buf.enter(trace::STAGE_QUERY);
        buf.exit_with(3, 2);
        buf
    }

    #[test]
    fn recent_ring_overwrites_oldest_and_reports_oldest_first() {
        let recorder = FlightRecorder::with_capacity(3, 2);
        for id in 1..=5u64 {
            recorder.record(&sample_trace(id), 1, TRACE_NO_ERROR, 10 * id);
        }
        let records = recorder.snapshot();
        assert_eq!(
            records.iter().map(|r| r.trace_id).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "capacity 3 keeps the newest three, oldest first"
        );
        assert!(records.iter().all(|r| !r.pinned));
        assert_eq!(records[0].spans.len(), 2);
        assert_eq!(records[0].spans[1].a, 3);
        let mut scrape = Scrape::new();
        recorder.scrape_into(&mut scrape);
        assert_eq!(scrape.value("flight_recent_len"), Some(3));
        assert_eq!(scrape.value("flight_recent_capacity"), Some(3));
        assert_eq!(scrape.value("flight_pinned_len"), Some(0));
        assert_eq!(scrape.value("flight_pinned_capacity"), Some(2));
    }

    #[test]
    fn error_traces_are_pinned_and_survive_recent_churn() {
        let recorder = FlightRecorder::with_capacity(2, 2);
        recorder.record(&sample_trace(100), 1, 3, 1_000); // QUERY_ERROR byte
        for id in 1..=10u64 {
            recorder.record(&sample_trace(id), 1, TRACE_NO_ERROR, 10);
        }
        let records = recorder.snapshot();
        assert_eq!(records.len(), 3);
        assert!(records[0].pinned);
        assert_eq!(records[0].trace_id, 100);
        assert_eq!(records[0].error, 3);
        assert_eq!(
            records[1..].iter().map(|r| r.trace_id).collect::<Vec<_>>(),
            vec![9, 10]
        );
    }

    #[test]
    fn render_includes_stage_names_and_error_tags() {
        let recorder = FlightRecorder::new();
        recorder.record(&sample_trace(7), 1, TRACE_NO_ERROR, 42_000);
        recorder.record(&sample_trace(8), 1, 3, 9_000);
        let text = recorder.render();
        for needle in ["flight recorder: 2", "queue_wait", "query", "error=3"] {
            assert!(text.contains(needle), "render missing {needle:?}:\n{text}");
        }
    }
}
