//! The flight recorder: fixed-capacity rings of the server's most recent
//! notable requests, answered over the `TRACE_DUMP` wire op and dumped to
//! stderr when a thread panics.
//!
//! At service end a worker hands the recorder what it knows of the request
//! ([`RequestFacts`]). The recorder keeps the request when it failed, was
//! slow or was sampled, in exactly one ring:
//!
//! * the **errors ring** ([`FLIGHT_ERRORS_CAPACITY`] slots) holds requests
//!   answered with a typed error frame, so the last K failures survive
//!   churn from the healthy traffic that follows them;
//! * the **slow ring** ([`FLIGHT_SLOW_CAPACITY`] slots) holds every QUERY
//!   answered at or above `ServerConfig::slow_query_threshold`, sampled or
//!   not, so the `slow_queries` counter is exact;
//! * the **recent ring** ([`FLIGHT_RECENT_CAPACITY`] slots) holds the other
//!   sampled requests (one in `clock::STAGE_SAMPLE_EVERY` per connection),
//!   slow or fast — a flight recorder is for reconstructing *what the
//!   server was doing*, not only its outliers.
//!
//! A failed request goes to the errors ring even when slow, and a slow one
//! to the slow ring even when sampled. Every record has one type: the
//! request's op, error code, start and service time; for a QUERY its
//! pattern length, first [`SLOW_QUERY_PREFIX_LEN`] ranks and reported
//! count; and the span tree of a sampled request (none for an unsampled
//! one).
//!
//! The three rings sit behind one mutex. Only sampled, failed and slow
//! requests take it (by design off the un-sampled hot path), and a dump
//! copies everything out under the same lock. The recording path never
//! allocates: the rings are preallocated at construction and a record is
//! written in place over the ring's oldest slot.

use crate::protocol::{op_name, OP_QUERY};
use ius_obs::trace::{self, stage_name, Span, SpanBuffer, MAX_SPANS};
use ius_obs::{fmt_ns, Scrape, Value};
use std::sync::Mutex;

/// Slots in the recent ring (sampled requests).
pub const FLIGHT_RECENT_CAPACITY: usize = 64;

/// Slots in the errors ring (requests answered with a typed error frame).
pub const FLIGHT_ERRORS_CAPACITY: usize = 16;

/// Slots in the slow ring (queries at or above the slow threshold).
pub const FLIGHT_SLOW_CAPACITY: usize = 128;

/// Rank bytes of the pattern a QUERY record retains. Long enough to re-run
/// a representative prefix query from a dump, short enough to keep the
/// record `Copy` and the wire encoding tiny.
pub const SLOW_QUERY_PREFIX_LEN: usize = 16;

/// `error` byte of a request that completed without a typed error frame.
pub const TRACE_NO_ERROR: u8 = u8::MAX;

/// The ring a flight record was kept in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRing {
    /// Answered with a typed error frame.
    Errors,
    /// A QUERY at or above the slow threshold.
    Slow,
    /// Any other sampled request.
    Recent,
}

impl FlightRing {
    /// Every ring in `TRACE_DUMP` order; a ring's wire byte is its place
    /// here (`ring as u8`).
    pub const ALL: [FlightRing; 3] = [FlightRing::Errors, FlightRing::Slow, FlightRing::Recent];

    /// The ring a wire byte names, if any.
    pub fn from_byte(byte: u8) -> Option<FlightRing> {
        FlightRing::ALL.get(byte as usize).copied()
    }

    /// Lower-case display name (`errors`, `slow`, `recent`).
    pub fn name(self) -> &'static str {
        match self {
            FlightRing::Errors => "errors",
            FlightRing::Slow => "slow",
            FlightRing::Recent => "recent",
        }
    }
}

/// What a worker knows of one served request at service end: everything a
/// flight record holds except the span tree. `Copy`, so building one
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFacts {
    /// The request's op byte.
    pub op: u8,
    /// The `ErrorCode` byte of the typed error frame this request was
    /// answered with, or [`TRACE_NO_ERROR`].
    pub error: u8,
    /// Absolute `clock::now_ns` when service began (the trace's arming
    /// time for a sampled request).
    pub started_ns: u64,
    /// Total service time of the request (read-to-write).
    pub total_ns: u64,
    /// Length of a QUERY's pattern (0 for other ops).
    pub pattern_len: u64,
    /// Distinct positions a QUERY reported (0 for other ops and failures).
    pub reported: u64,
    /// The first [`SLOW_QUERY_PREFIX_LEN`] ranks of a QUERY's pattern,
    /// zero-padded, so a query is reproducible from a dump.
    pub prefix: [u8; SLOW_QUERY_PREFIX_LEN],
}

impl RequestFacts {
    /// The facts of a request of `op` that began at `started_ns` and took
    /// `total_ns`, answered with `error` ([`TRACE_NO_ERROR`] if none).
    pub const fn new(op: u8, error: u8, started_ns: u64, total_ns: u64) -> Self {
        Self {
            op,
            error,
            started_ns,
            total_ns,
            pattern_len: 0,
            reported: 0,
            prefix: [0; SLOW_QUERY_PREFIX_LEN],
        }
    }

    /// Adds a QUERY's pattern (its length and first ranks) and reported
    /// count.
    pub fn with_query(mut self, pattern: &[u8], reported: u64) -> Self {
        let keep = pattern.len().min(SLOW_QUERY_PREFIX_LEN);
        self.pattern_len = pattern.len() as u64;
        self.reported = reported;
        self.prefix = [0; SLOW_QUERY_PREFIX_LEN];
        self.prefix[..keep].copy_from_slice(&pattern[..keep]);
        self
    }

    /// The retained ranks of the pattern: its first
    /// `min(pattern_len, SLOW_QUERY_PREFIX_LEN)`.
    pub fn prefix(&self) -> &[u8] {
        let keep = self.pattern_len.min(SLOW_QUERY_PREFIX_LEN as u64) as usize;
        &self.prefix[..keep]
    }
}

/// One flight record as it crosses the wire (and as tests inspect it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecordSnapshot {
    /// Process-unique id ([`ius_obs::trace::next_trace_id`]): the trace's
    /// for a sampled request, a fresh one otherwise.
    pub trace_id: u64,
    /// The ring the record was kept in.
    pub ring: FlightRing,
    /// Whether spans were dropped for capacity or depth.
    pub truncated: bool,
    /// The request itself.
    pub facts: RequestFacts,
    /// The span tree, pre-order with explicit depths (empty for an
    /// unsampled request).
    pub spans: Vec<Span>,
}

impl TraceRecordSnapshot {
    /// Renders the record as one summary line, then its span tree
    /// indented, one span per line.
    pub fn render(&self) -> String {
        let facts = &self.facts;
        let mut out = format!(
            "trace {} ring={} op={} total={}",
            self.trace_id,
            self.ring.name(),
            op_name(facts.op),
            fmt_ns(facts.total_ns),
        );
        if facts.error != TRACE_NO_ERROR {
            out.push_str(&format!(" error={}", facts.error));
        }
        if facts.op == OP_QUERY {
            out.push_str(&format!(
                " pattern_len={} prefix={:?} reported={}",
                facts.pattern_len,
                facts.prefix(),
                facts.reported
            ));
        }
        if self.truncated {
            out.push_str(" (truncated)");
        }
        out.push('\n');
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

/// One ring slot: everything inline so the rings preallocate once.
#[derive(Clone, Copy)]
struct FixedRecord {
    trace_id: u64,
    truncated: bool,
    facts: RequestFacts,
    len: u16,
    spans: [Span; MAX_SPANS],
}

impl FixedRecord {
    const EMPTY: FixedRecord = FixedRecord {
        trace_id: 0,
        truncated: false,
        facts: RequestFacts::new(0, TRACE_NO_ERROR, 0, 0),
        len: 0,
        spans: [Span::EMPTY; MAX_SPANS],
    };

    /// Copies a finished trace's id, start and spans into the slot.
    fn copy_trace(&mut self, buf: &SpanBuffer) {
        let spans = buf.spans();
        self.trace_id = buf.trace_id();
        self.truncated = buf.truncated();
        self.facts.started_ns = buf.started_ns();
        self.len = spans.len() as u16;
        self.spans[..spans.len()].copy_from_slice(spans);
    }

    fn snapshot(&self, ring: FlightRing) -> TraceRecordSnapshot {
        TraceRecordSnapshot {
            trace_id: self.trace_id,
            ring,
            truncated: self.truncated,
            facts: self.facts,
            spans: self.spans[..self.len as usize].to_vec(),
        }
    }
}

struct Ring {
    slots: Box<[FixedRecord]>,
    next: usize,
    len: usize,
    /// Records ever kept (overwritten ones included).
    recorded: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            slots: vec![FixedRecord::EMPTY; capacity.max(1)].into_boxed_slice(),
            next: 0,
            len: 0,
            recorded: 0,
        }
    }

    /// The slot a new record overwrites: the oldest once the ring is full.
    fn claim(&mut self) -> &mut FixedRecord {
        let slot = self.next;
        self.next = (slot + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
        self.recorded += 1;
        &mut self.slots[slot]
    }

    /// Occupied slots, oldest first.
    fn iter_oldest_first(&self) -> impl Iterator<Item = &FixedRecord> {
        let cap = self.slots.len();
        let start = (self.next + cap - self.len) % cap;
        (0..self.len).map(move |i| &self.slots[(start + i) % cap])
    }
}

/// The rings, indexed like [`FlightRing::ALL`].
struct Inner([Ring; 3]);

impl Inner {
    fn ring(&self, ring: FlightRing) -> &Ring {
        &self.0[ring as usize]
    }
}

/// The server's flight-recorder rings. See the module docs.
///
/// Every lock recovers from poisoning: the panic-hook stderr dump renders
/// the recorder *from a panicking process*, and the slots are plain old
/// data (worst case one half-overwritten record), so refusing to read
/// after a mid-record panic would defeat the recorder's purpose.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// Creates empty rings at the default capacities (preallocated; the
    /// recording path never allocates after this).
    pub fn new() -> Self {
        Self::with_capacity(
            FLIGHT_RECENT_CAPACITY,
            FLIGHT_ERRORS_CAPACITY,
            FLIGHT_SLOW_CAPACITY,
        )
    }

    /// Creates empty rings at explicit capacities (each at least 1).
    pub fn with_capacity(recent: usize, errors: usize, slow: usize) -> Self {
        Self {
            inner: Mutex::new(Inner([
                Ring::new(errors),
                Ring::new(slow),
                Ring::new(recent),
            ])),
        }
    }

    /// Records the calling thread's request, if it belongs in a ring: a
    /// failed one in the errors ring, else a `slow` one in the slow ring,
    /// else a sampled one (this thread carries an armed trace) in the
    /// recent ring; any other request is not kept. The thread's trace is
    /// finished into the record, so an unsampled record has no spans.
    /// Allocation-free: one lock plus a write in place.
    pub fn record(&self, facts: &RequestFacts, slow: bool) {
        let ring = if facts.error != TRACE_NO_ERROR {
            FlightRing::Errors
        } else if slow {
            FlightRing::Slow
        } else if trace::active() {
            FlightRing::Recent
        } else {
            return;
        };
        let mut inner = self.lock();
        let slot = inner.0[ring as usize].claim();
        slot.facts = *facts;
        if trace::finish(|buf| slot.copy_trace(buf)).is_none() {
            slot.trace_id = trace::next_trace_id();
            slot.truncated = false;
            slot.len = 0;
        }
    }

    /// Copies every surviving record out: the errors ring, then the slow
    /// ring, then the recent ring, each oldest first. Non-destructive — a
    /// dump is a snapshot, not a drain, so two monitors never race each
    /// other for the data.
    pub fn snapshot(&self) -> Vec<TraceRecordSnapshot> {
        let inner = self.lock();
        FlightRing::ALL
            .iter()
            .flat_map(|&ring| {
                inner
                    .ring(ring)
                    .iter_oldest_first()
                    .map(move |r| r.snapshot(ring))
            })
            .collect()
    }

    /// Writes the `slow_queries` counter (records ever kept in the slow
    /// ring) and each ring's occupancy gauges into `scrape`, so ring sizing
    /// is visible without a `TRACE_DUMP`. The errors ring's gauges keep
    /// their `pinned` name.
    pub fn scrape_into(&self, scrape: &mut Scrape) {
        let inner = self.lock();
        let slow = inner.ring(FlightRing::Slow);
        scrape.push("slow_queries", Value::Counter(slow.recorded));
        for (ring, name) in [
            (FlightRing::Recent, "recent"),
            (FlightRing::Errors, "pinned"),
            (FlightRing::Slow, "slow"),
        ] {
            let ring = inner.ring(ring);
            scrape.push(format!("flight_{name}_len"), Value::Gauge(ring.len as u64));
            scrape.push(
                format!("flight_{name}_capacity"),
                Value::Gauge(ring.slots.len() as u64),
            );
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Renders every surviving record (the panic-hook stderr dump).
    pub fn render(&self) -> String {
        let records = self.snapshot();
        let mut out = format!("== ius flight recorder: {} record(s) ==\n", records.len());
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
    use ius_obs::clock;

    /// Arms this thread's trace with a small span tree, as a sampled
    /// request would have.
    fn arm_sample_trace() {
        clock::set_enabled(true);
        assert!(trace::begin(trace::next_trace_id()));
        trace::leaf(trace::STAGE_QUEUE_WAIT, 500, 0, 0);
        trace::enter(trace::STAGE_QUERY);
        trace::exit_with(3, 2);
    }

    fn facts(error: u8, total_ns: u64) -> RequestFacts {
        RequestFacts::new(OP_QUERY, error, 0, total_ns)
    }

    #[test]
    fn recent_ring_overwrites_oldest_and_reports_oldest_first() {
        let recorder = FlightRecorder::with_capacity(3, 2, 2);
        for total in 1..=5u64 {
            arm_sample_trace();
            recorder.record(&facts(TRACE_NO_ERROR, total), false);
        }
        // An unsampled, healthy, fast request is not kept.
        recorder.record(&facts(TRACE_NO_ERROR, 6), false);
        let records = recorder.snapshot();
        assert_eq!(
            records.iter().map(|r| r.facts.total_ns).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "capacity 3 keeps the newest three, oldest first"
        );
        assert!(records.iter().all(|r| r.ring == FlightRing::Recent));
        assert_eq!(records[0].spans.len(), 2);
        assert_eq!(records[0].spans[1].a, 3);
        assert!(!trace::active(), "recording finished the trace");
        let mut scrape = Scrape::new();
        recorder.scrape_into(&mut scrape);
        assert_eq!(scrape.value("flight_recent_len"), Some(3));
        assert_eq!(scrape.value("flight_recent_capacity"), Some(3));
        assert_eq!(scrape.value("flight_pinned_len"), Some(0));
        assert_eq!(scrape.value("flight_pinned_capacity"), Some(2));
        assert_eq!(scrape.value("flight_slow_len"), Some(0));
        assert_eq!(scrape.value("slow_queries"), Some(0));
    }

    #[test]
    fn error_traces_are_pinned_and_survive_recent_churn() {
        let recorder = FlightRecorder::with_capacity(2, 2, 2);
        arm_sample_trace();
        // A sampled QUERY_ERROR that was also slow goes to the errors ring.
        recorder.record(&facts(3, 1_000), true);
        // An unsampled failure is kept too, without spans.
        recorder.record(&facts(3, 2_000), false);
        for total in 1..=10u64 {
            arm_sample_trace();
            recorder.record(&facts(TRACE_NO_ERROR, total), false);
        }
        let records = recorder.snapshot();
        assert_eq!(records.len(), 4);
        assert!(records[..2].iter().all(|r| r.ring == FlightRing::Errors));
        assert_eq!(records[0].facts.error, 3);
        assert_eq!(records[0].spans.len(), 2, "the sampled failure has spans");
        assert!(records[1].spans.is_empty(), "the unsampled one has none");
        assert_ne!(records[0].trace_id, records[1].trace_id);
        assert_eq!(
            records[2..]
                .iter()
                .map(|r| r.facts.total_ns)
                .collect::<Vec<_>>(),
            vec![9, 10]
        );
        let mut scrape = Scrape::new();
        recorder.scrape_into(&mut scrape);
        assert_eq!(
            scrape.value("slow_queries"),
            Some(0),
            "failures are not slow"
        );
    }

    #[test]
    fn slow_ring_truncates_prefixes_and_keeps_the_newest() {
        let recorder = FlightRecorder::with_capacity(4, 4, 2);
        let long: Vec<u8> = (0..40u8).collect();
        recorder.record(&facts(TRACE_NO_ERROR, 1_000).with_query(&long, 1), true);
        arm_sample_trace();
        recorder.record(
            &facts(TRACE_NO_ERROR, 2_000).with_query(&[9, 8, 7, 6], 2),
            true,
        );
        recorder.record(&facts(TRACE_NO_ERROR, 3_000).with_query(&[1, 2], 0), true);
        let mut scrape = Scrape::new();
        recorder.scrape_into(&mut scrape);
        assert_eq!(scrape.value("slow_queries"), Some(3));
        assert_eq!(scrape.value("flight_slow_len"), Some(2));
        assert_eq!(scrape.value("flight_slow_capacity"), Some(2));
        let records = recorder.snapshot();
        assert_eq!(records.len(), 2, "capacity 2 keeps the newest two");
        assert!(records.iter().all(|r| r.ring == FlightRing::Slow));
        assert_eq!(records[0].facts.prefix(), &[9, 8, 7, 6]);
        assert_eq!(records[0].facts.reported, 2);
        assert_eq!(records[0].spans.len(), 2, "a sampled slow query has spans");
        assert_eq!(records[1].facts.prefix(), &[1, 2]);
        assert!(records[1].spans.is_empty(), "an unsampled one has none");
        // A long pattern keeps exactly the prefix cap.
        let recorder = FlightRecorder::new();
        recorder.record(&facts(TRACE_NO_ERROR, 1).with_query(&long, 0), true);
        let record = &recorder.snapshot()[0];
        assert_eq!(record.facts.prefix(), &long[..SLOW_QUERY_PREFIX_LEN]);
        assert_eq!(record.facts.pattern_len, 40);
    }

    #[test]
    fn render_includes_stage_names_and_error_tags() {
        let recorder = FlightRecorder::new();
        arm_sample_trace();
        recorder.record(&facts(TRACE_NO_ERROR, 42_000), false);
        recorder.record(&facts(3, 9_000), false);
        recorder.record(
            &facts(TRACE_NO_ERROR, 77_000).with_query(&[0, 1, 2], 5),
            true,
        );
        let text = recorder.render();
        for needle in [
            "flight recorder: 3",
            "queue_wait",
            "query",
            "error=3",
            "ring=slow op=QUERY",
            "pattern_len=3 prefix=[0, 1, 2] reported=5",
        ] {
            assert!(text.contains(needle), "render missing {needle:?}:\n{text}");
        }
    }
}
