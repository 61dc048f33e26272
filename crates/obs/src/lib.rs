//! # ius-obs — allocation-free runtime metrics
//!
//! The observability primitives shared by the query engine, the server, the
//! live (LSM) index and the write-ahead log:
//!
//! * [`Counter`] — a monotone event counter (one relaxed atomic add).
//! * [`Gauge`] — a last-value instrument for levels (segment count,
//!   memtable rows).
//! * [`Histogram`] — a mergeable log-linear (HDR-style) latency histogram
//!   with an exact total count and bounded-relative-error quantiles.
//! * [`EventLog`] — a fixed-capacity seqlock ring buffer of small binary
//!   events (used for the slow-query log and span-style tracing).
//! * [`trace`] — request-scoped span tracing: a fixed-depth,
//!   allocation-free per-thread span buffer recording one request's stage
//!   tree (sampled with the same ticket discipline as the stage
//!   histograms).
//! * [`clock`] — a process-wide monotonic nanosecond clock that can be
//!   stubbed out at runtime to measure instrumentation overhead.
//!
//! Everything is designed around one rule: **recording must never lock,
//! allocate, or enter the kernel**. A histogram record is two relaxed
//! atomic read-modify-writes plus two load-guarded extreme updates that
//! almost never fire after warmup; a counter add is one; an event-log
//! append is
//! a handful of relaxed stores plus one release store. Aggregation
//! (snapshotting, merging per-worker registries, quantile estimation,
//! text formatting) happens on the scrape path, where allocation is fine.
//!
//! ## Histogram accuracy contract
//!
//! Values (nanoseconds) are bucketed log-linearly: exact unit buckets below
//! 32, then 32 linear sub-buckets per power of two up to
//! [`Histogram::MAX_TRACKABLE`] (2⁴⁰ − 1 ns ≈ 18 minutes); larger values
//! clamp into the top bucket. Quantiles report the midpoint of the bucket
//! containing the requested rank, so any quantile of values within the
//! trackable range is off by **at most 1/64 ≈ 1.6 % relative error**
//! (exactly 0 below 32 ns). `count` and `sum` are exact; `min` and `max`
//! are the exact recorded extremes. The proptests in
//! `tests/histogram_props.rs` pin this bound against a sorted-vec oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide monotonic nanosecond clock used by every timing site.
///
/// `now_ns` reads a vDSO monotonic clock (no syscall on Linux) relative to
/// a process-wide base instant; it never allocates. The clock can be
/// disabled ([`clock::set_enabled`]) so benchmarks can measure the cost of
/// the instrumentation itself: a disabled clock returns 0 from every call,
/// turning all recorded durations into zeros without branching at the
/// subtraction sites.
pub mod clock {
    use super::*;
    use std::cell::Cell;

    static START: OnceLock<Instant> = OnceLock::new();
    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// One query in [`STAGE_SAMPLE_EVERY`] pays for per-stage tracing.
    ///
    /// A monotonic clock read costs ~30–40 ns on a virtualized host, and a
    /// fully staged query takes five of them plus four histogram records —
    /// too much to spend on every request when the whole wire round trip is
    /// ~14 µs. End-to-end timing (one stamp pair per request) stays always
    /// on; the stage *breakdown* is statistical, which is all a breakdown
    /// is for.
    pub const STAGE_SAMPLE_EVERY: u32 = 16;

    thread_local! {
        static STAGE_TICK: Cell<u32> = const { Cell::new(0) };
    }

    /// Draws a stage-tracing ticket: `true` on the first call on each
    /// thread and every [`STAGE_SAMPLE_EVERY`]th call after that, always
    /// `false` while the clock is disabled.
    ///
    /// The tick is thread-local, so workers never contend on it and the
    /// first query a worker serves is always traced (scrapes see per-stage
    /// data immediately, and single-query tests stay deterministic).
    #[inline]
    pub fn stage_ticket() -> bool {
        if !ENABLED.load(Ordering::Relaxed) {
            return false;
        }
        STAGE_TICK.with(|tick| {
            let t = tick.get();
            tick.set(t.wrapping_add(1));
            t % STAGE_SAMPLE_EVERY == 0
        })
    }

    /// Nanoseconds since the first call in this process (0 when disabled).
    #[inline]
    pub fn now_ns() -> u64 {
        if !ENABLED.load(Ordering::Relaxed) {
            return 0;
        }
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Enables or disables the clock (used by the overhead benchmark to
    /// compare instrumented vs. stubbed hot paths).
    pub fn set_enabled(enabled: bool) {
        ENABLED.store(enabled, Ordering::Relaxed);
    }

    /// Whether the clock is currently enabled.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Forces the base instant to exist so the first timed operation does
    /// not pay the one-time initialization.
    pub fn warm_up() {
        let _ = START.get_or_init(Instant::now);
    }
}

/// A monotone event counter. Recording is one relaxed atomic add.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value instrument for levels that go up and down (queue depths,
/// segment counts, memtable sizes). Recording is one relaxed store.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power-of-two range: 2⁵ = 32.
const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per octave (and the exact-bucket range).
const SUB: u64 = 1 << SUB_BITS;
/// Largest exponent tracked: values up to 2⁴⁰ − 1 keep the error bound.
const MAX_EXP: u32 = 39;

/// A mergeable log-linear latency histogram over `u64` nanosecond values.
///
/// See the crate docs for the accuracy contract. Recording is two relaxed
/// atomic read-modify-writes (sum, bucket) plus load-guarded min/max
/// updates that stop firing once the extremes settle; the total count is
/// derived from the buckets on the scrape path, so the hot path does not
/// pay for it. There are no locks and no allocation after construction.
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Histogram {
    /// Total number of buckets: 32 exact + 35 octaves × 32 sub-buckets.
    pub const BUCKETS: usize = (SUB as usize) * (1 + (MAX_EXP - SUB_BITS + 1) as usize);

    /// Largest value recorded without clamping (≈ 18 minutes in ns).
    pub const MAX_TRACKABLE: u64 = (1 << (MAX_EXP + 1)) - 1;

    /// Worst-case relative error of any quantile over trackable values.
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / 64.0;

    /// Creates an empty histogram (allocates its bucket array once).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..Self::BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: buckets.into_boxed_slice(),
        }
    }

    /// The bucket index a value lands in.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        let v = value.min(Self::MAX_TRACKABLE);
        if v < SUB {
            v as usize
        } else {
            // Floor log2 is in SUB_BITS..=MAX_EXP after the clamp.
            let e = 63 - v.leading_zeros();
            let sub = (v >> (e - SUB_BITS)) - SUB;
            (SUB + (e - SUB_BITS) as u64 * SUB + sub) as usize
        }
    }

    /// The representative (midpoint) value reported for a bucket.
    #[inline]
    pub fn bucket_value(index: usize) -> u64 {
        let idx = index as u64;
        if idx < SUB {
            idx
        } else {
            let group = (idx - SUB) >> SUB_BITS;
            let sub = (idx - SUB) & (SUB - 1);
            let lo = (SUB + sub) << group;
            let width = 1u64 << group;
            lo + width / 2
        }
    }

    /// Records one value. Lock-free, allocation-free, no syscalls.
    #[inline]
    pub fn record(&self, value: u64) {
        self.sum.fetch_add(value, Ordering::Relaxed);
        // min/max change rarely after warmup: guard the RMWs behind plain
        // loads so the steady state pays two reads instead of two writes.
        // The fetch_min/fetch_max keep the extremes exact under races.
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values (exact; a scrape-path sum over the
    /// buckets, not a hot-path atomic).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Folds another histogram into this one, bucket-wise. Equivalent to
    /// having recorded the concatenation of both streams (the proptests
    /// pin this).
    pub fn merge(&self, other: &Histogram) {
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Captures a point-in-time snapshot (sparse: only nonzero buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((idx as u32, n));
                count += n;
            }
        }
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time, mergeable copy of a [`Histogram`] (sparse bucket list,
/// sorted by bucket index). This is the form that crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Exact number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Exact smallest recorded value (0 when empty).
    pub min: u64,
    /// Exact largest recorded value (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` for every nonzero bucket, ascending index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]` (midpoint of the bucket holding
    /// rank ⌈q·count⌉), within [`Histogram::RELATIVE_ERROR_BOUND`] of the
    /// exact order statistic for trackable values. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_value(idx as usize);
            }
        }
        Histogram::bucket_value(self.buckets.last().map_or(0, |&(idx, _)| idx as usize))
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (see [`HistogramSnapshot::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other` into `self`, equivalent to snapshotting a histogram
    /// that recorded both streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while let (Some(&&(ia, na)), Some(&&(ib, nb))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, na));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, nb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, na + nb));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
    }

    /// One-line human summary: `count=…  mean=…  p50=…  p99=…  max=…`.
    pub fn summary_line(&self) -> String {
        format!(
            "count={}  mean={}  p50={}  p99={}  max={}",
            self.count,
            fmt_ns(self.mean()),
            fmt_ns(self.p50()),
            fmt_ns(self.p99()),
            fmt_ns(self.max)
        )
    }
}

/// Formats a nanosecond duration with a human-scale unit (`ns`, `µs`,
/// `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// One entry of an [`EventLog`]: a timestamp plus three opaque words whose
/// meaning is fixed by the recording site's `code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number (global order of appends).
    pub seq: u64,
    /// [`clock::now_ns`] at record time.
    pub ts_ns: u64,
    /// Site-defined event kind.
    pub code: u64,
    /// First site-defined payload word.
    pub a: u64,
    /// Second site-defined payload word.
    pub b: u64,
}

struct EventSlot {
    seq: AtomicU64,
    ts_ns: AtomicU64,
    code: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// Stamp of a slot no event was ever written to.
const SLOT_EMPTY: u64 = u64::MAX;
/// Stamp of a slot a writer currently owns.
const SLOT_BUSY: u64 = u64::MAX - 1;

/// A fixed-capacity ring buffer of [`Event`]s: the newest `capacity`
/// events survive, older ones are overwritten. Appending claims its slot
/// with one compare-exchange on the slot's sequence stamp, then a few
/// relaxed stores and one release store; no allocation. A writer only
/// waits when a writer a full lap ahead holds the same slot.
///
/// Each slot is a seqlock: a reader that races a writer on the same slot
/// sees the stamp change and drops the torn entry from the snapshot — the
/// log is a diagnostic aid, not a durable record.
pub struct EventLog {
    head: AtomicU64,
    slots: Box<[EventSlot]>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventLog {
    /// Creates a log keeping the newest `capacity` events (rounded up to a
    /// power of two, at least 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<EventSlot> = (0..cap)
            .map(|_| EventSlot {
                seq: AtomicU64::new(SLOT_EMPTY),
                ts_ns: AtomicU64::new(0),
                code: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        Self {
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Appends an event, overwriting the oldest once full.
    #[inline]
    pub fn record(&self, code: u64, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        // Two writers a lap apart can race for one slot: own it first, so
        // their field stores never interleave.
        let prev = loop {
            let cur = slot.seq.load(Ordering::Relaxed);
            if cur != SLOT_BUSY
                && slot
                    .seq
                    .compare_exchange_weak(cur, SLOT_BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                break cur;
            }
            std::hint::spin_loop();
        };
        if prev != SLOT_EMPTY && prev > seq {
            // The writer a lap ahead got here first: keep its newer event.
            slot.seq.store(prev, Ordering::Release);
            return;
        }
        // Order the busy stamp before the field stores for readers.
        fence(Ordering::Release);
        slot.ts_ns.store(clock::now_ns(), Ordering::Relaxed);
        slot.code.store(code, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The surviving events, oldest first. Entries being overwritten
    /// concurrently are dropped.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq >= SLOT_BUSY || seq >= head {
                continue;
            }
            let event = Event {
                seq,
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                code: slot.code.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            // Re-check the stamp: if a writer claimed this slot while the
            // fields were being read, the entry may be torn — drop it. The
            // fence keeps the field loads before the re-check.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == seq && head.saturating_sub(seq) <= cap {
                events.push(event);
            }
        }
        events.sort_unstable_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(42);
        assert_eq!(g.get(), 42);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        let mut last = Histogram::bucket_index(0);
        assert_eq!(last, 0);
        for v in 1..100_000u64 {
            let idx = Histogram::bucket_index(v);
            assert!(idx == last || idx == last + 1, "gap at {v}");
            last = idx;
        }
        assert_eq!(
            Histogram::bucket_index(u64::MAX),
            Histogram::BUCKETS - 1,
            "clamped into the top bucket"
        );
    }

    #[test]
    fn bucket_value_round_trips_within_the_error_bound() {
        for v in [
            0,
            1,
            31,
            32,
            33,
            100,
            1_000,
            123_456,
            1 << 30,
            (1 << 40) - 1,
        ] {
            let idx = Histogram::bucket_index(v);
            let rep = Histogram::bucket_value(idx);
            let err = rep.abs_diff(v) as f64;
            assert!(
                err <= Histogram::RELATIVE_ERROR_BOUND * v as f64 + 0.5,
                "value {v}: representative {rep} off by {err}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_small_stream() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 1_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.min, 1_000);
        assert_eq!(snap.max, 100_000);
        let p50 = snap.p50() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 <= Histogram::RELATIVE_ERROR_BOUND);
        let p99 = snap.p99() as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 <= Histogram::RELATIVE_ERROR_BOUND);
        assert!(snap.p50() <= snap.p99());
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.mean(), 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn snapshot_merge_matches_histogram_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [5u64, 500, 50_000, 5_000_000] {
            a.record(v);
        }
        for v in [7u64, 500, 1 << 35] {
            b.record(v);
        }
        let mut merged_snap = a.snapshot();
        merged_snap.merge(&b.snapshot());
        a.merge(&b);
        assert_eq!(merged_snap, a.snapshot());
        assert_eq!(merged_snap.count, 7);
    }

    #[test]
    fn event_log_keeps_the_newest_entries() {
        let log = EventLog::new(4);
        for i in 0..10u64 {
            log.record(1, i, 100 + i);
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest entries were overwritten"
        );
        assert_eq!(log.recorded(), 10);
    }

    #[test]
    fn event_log_is_thread_safe() {
        let log = std::sync::Arc::new(EventLog::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        log.record(t, i, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.recorded(), 4_000);
        let events = log.snapshot();
        assert!(events.len() <= 64);
        assert!(!events.is_empty());
    }

    #[test]
    fn clock_stub_returns_zero() {
        clock::warm_up();
        assert!(clock::enabled());
        let t = clock::now_ns();
        let t2 = clock::now_ns();
        assert!(t2 >= t);
        clock::set_enabled(false);
        assert_eq!(clock::now_ns(), 0);
        clock::set_enabled(true);
        assert!(clock::now_ns() >= t2);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
