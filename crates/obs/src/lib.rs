//! # ius-obs — allocation-free runtime metrics
//!
//! The observability primitives shared by the query engine, the server, the
//! live (LSM) index and the write-ahead log:
//!
//! * [`Counter`] — a monotone event counter (one relaxed atomic add).
//! * [`Histogram`] — a mergeable log-linear (HDR-style) latency histogram
//!   with an exact total count and bounded-relative-error quantiles.
//! * [`Scrape`] — the one snapshot form every source is read out as: an
//!   ordered list of uniquely named counter, gauge, histogram and info
//!   samples, with one text exposition ([`Scrape::to_text`]).
//! * [`trace`] — request-scoped span tracing: a fixed-depth,
//!   allocation-free per-thread span buffer recording one request's stage
//!   tree (sampled once per request, and the stage timings follow it).
//! * [`clock`] — a process-wide monotonic nanosecond clock that can be
//!   stubbed out at runtime to measure instrumentation overhead.
//!
//! Everything is designed around one rule: **recording must never lock,
//! allocate, or enter the kernel**. A histogram record is two relaxed
//! atomic read-modify-writes plus two load-guarded extreme updates that
//! almost never fire after warmup; a counter add is one. Aggregation
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

    static START: OnceLock<Instant> = OnceLock::new();
    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// One request in `STAGE_SAMPLE_EVERY` on each server connection is
    /// sampled: the first, then every 16th. That one decision arms the
    /// request's trace ([`crate::trace`]), feeds its service-time
    /// histogram and stamps its query stages, which the engines do iff
    /// [`crate::trace::active`]. A live query times all of its parts or
    /// none of them.
    ///
    /// A monotonic clock read costs ~30–40 ns on a virtualized host, and a
    /// fully staged query takes five of them plus four histogram records —
    /// too much to spend on every request when the whole wire round trip is
    /// ~14 µs. End-to-end timing (one stamp pair per request) stays always
    /// on; the stage *breakdown* is statistical, which is all a breakdown
    /// is for.
    pub const STAGE_SAMPLE_EVERY: u32 = 16;

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

/// The value of one [`Scrape`] sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A monotone event count.
    Counter(u64),
    /// A level or a setting: may go up and down.
    Gauge(u64),
    /// A latency distribution (nanoseconds).
    Histogram(HistogramSnapshot),
    /// A string: the served index's name, the last background error.
    Info(String),
}

/// Whether `name` is a valid sample name: flat `[a-z0-9_]+`, no labels.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// A self-describing point-in-time metrics snapshot: an ordered list of
/// uniquely named samples. Every source (server counters, worker
/// registries, the live index, the diagnostic rings) writes its own
/// samples; readers look them up by name, and [`Scrape::to_text`] renders
/// the whole list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scrape {
    samples: Vec<(String, Value)>,
    /// Position of each name in `samples`: constant-time lookups and
    /// duplicate checks, however many samples an untrusted peer sends.
    index: HashMap<String, usize>,
}

impl Scrape {
    /// Creates an empty scrape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// If `name` is not [`valid_name`] or is already present — both are
    /// bugs of the writing source, never of untrusted input (the wire
    /// decoder checks before it pushes).
    pub fn push(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        assert!(valid_name(&name), "invalid sample name {name:?}");
        let slot = self.samples.len();
        assert!(
            self.index.insert(name.clone(), slot).is_none(),
            "duplicate sample name {name:?}"
        );
        self.samples.push((name, value));
    }

    /// Every sample, in push order.
    pub fn samples(&self) -> &[(String, Value)] {
        &self.samples
    }

    /// The sample named `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.index.get(name).map(|&slot| &self.samples[slot].1)
    }

    /// The value of the counter or gauge named `name`.
    pub fn value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Value::Counter(v) | Value::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            Value::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The info string named `name`.
    pub fn info(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            Value::Info(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the scrape in the Prometheus text exposition format: a
    /// `# TYPE` line per name; a histogram as a summary (`{quantile="0.5"}`
    /// and `{quantile="0.99"}` lines, then `_sum` and `_count`); an info
    /// string as a gauge of 1 carrying the string in a `value` label.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, value) in &self.samples {
            // Writing into a String cannot fail.
            let _ = match value {
                Value::Counter(v) => writeln!(out, "# TYPE {name} counter\n{name} {v}"),
                Value::Gauge(v) => writeln!(out, "# TYPE {name} gauge\n{name} {v}"),
                Value::Histogram(h) => writeln!(
                    out,
                    "# TYPE {name} summary\n{name}{{quantile=\"0.5\"}} {}\n\
                     {name}{{quantile=\"0.99\"}} {}\n{name}_sum {}\n{name}_count {}",
                    h.p50(),
                    h.p99(),
                    h.sum,
                    h.count
                ),
                Value::Info(s) => {
                    let escaped = s
                        .replace('\\', "\\\\")
                        .replace('"', "\\\"")
                        .replace('\n', "\\n");
                    writeln!(out, "# TYPE {name} gauge\n{name}{{value=\"{escaped}\"}} 1")
                }
            };
        }
        out
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
        let mut scrape = Scrape::new();
        scrape.push("events", Value::Counter(c.get()));
        scrape.push("level", Value::Gauge(42));
        scrape.push("name", Value::Info("MWSA".into()));
        assert_eq!(scrape.value("events"), Some(5));
        assert_eq!(scrape.value("level"), Some(42));
        assert_eq!(scrape.info("name"), Some("MWSA"));
        assert_eq!(scrape.value("name"), None, "an info sample has no number");
        assert_eq!(scrape.histogram("events"), None);
        assert_eq!(scrape.get("missing"), None);
    }

    #[test]
    fn sample_names_are_flat_lowercase() {
        for ok in ["a", "query_scan_ns", "op_service_ns_trace_dump", "p99"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "Query", "a-b", "a.b", "a{b}", "a b", "é"] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate sample name")]
    fn duplicate_names_are_a_writer_bug() {
        let mut scrape = Scrape::new();
        scrape.push("requests", Value::Counter(1));
        scrape.push("requests", Value::Counter(2));
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
