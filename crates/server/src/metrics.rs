//! Lock-free server observability: the flat counters answered to `STATS`,
//! plus the per-worker histogram registries ([`WorkerObs`]) and the typed
//! [`MetricsSnapshot`] answered to `METRICS`.
//!
//! Recording follows the `ius_obs` rule — a few relaxed atomic adds, no
//! locks, no allocation, no syscalls on the hot path. Aggregation happens
//! on the scrape path only: a `METRICS` request merges every worker's
//! registry into one snapshot, so workers never contend with each other
//! or with scrapers.

use crate::flight::FlightOccupancy;
use crate::protocol::StatsSnapshot;
use ius_obs::{clock, Histogram, HistogramSnapshot};
use ius_query::QueryStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic counters shared by the acceptor and every worker. All updates
/// are relaxed atomics — the counters are operational telemetry, not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted (admitted or refused).
    pub connections: AtomicU64,
    /// Frames read off admitted connections.
    pub requests: AtomicU64,
    /// Queries answered successfully.
    pub queries: AtomicU64,
    /// Occurrence positions delivered over all queries.
    pub occurrences: AtomicU64,
    /// Frames answered with a protocol-level error.
    pub protocol_errors: AtomicU64,
    /// Well-formed queries rejected by the engine (pattern contract).
    pub query_errors: AtomicU64,
    /// Connections refused with `OVERLOADED`.
    pub overloaded: AtomicU64,
    /// Successful hot reloads.
    pub reloads: AtomicU64,
    /// Positions appended to a live corpus via `APPEND`.
    pub appended_positions: AtomicU64,
    /// Successful `DELETE_RANGE` requests.
    pub delete_ranges: AtomicU64,
    /// `FLUSH` requests that froze at least one segment (append-triggered
    /// auto-flushes are internal to the live index and not counted here).
    pub flushes: AtomicU64,
    /// `COMPACT` requests that merged at least one run.
    pub compactions: AtomicU64,
    /// Live mutations refused or failed with a typed `LIVE_ERROR` frame.
    pub live_errors: AtomicU64,
}

/// Durability counters sampled from the served live index at `STATS` time.
/// Static servers (and live servers with durability off) use the zeroed
/// [`Default`] view.
#[derive(Debug, Clone, Default)]
pub struct DurabilityView {
    /// Mutations logged to the write-ahead log.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Crash recoveries performed when the live directory was opened.
    pub recoveries: u64,
    /// Mutation records replayed from the log during recovery.
    pub recovered_records: u64,
    /// Active fsync policy code (0 off, 1 record, 2 interval, 3 never).
    pub fsync_policy: u64,
    /// Background compaction passes that failed.
    pub compaction_errors: u64,
    /// Most recent background/durability failure, if any.
    pub last_error: Option<String>,
}

impl ServerMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Projects the counters plus the given serving context into the wire
    /// snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        index_name: String,
        generation: u64,
        corpus_len: u64,
        index_size_bytes: u64,
        workers: u64,
        queue_depth: u64,
        durability: DurabilityView,
    ) -> StatsSnapshot {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            index_name,
            generation,
            corpus_len,
            index_size_bytes,
            workers,
            queue_depth,
            connections: read(&self.connections),
            requests: read(&self.requests),
            queries: read(&self.queries),
            occurrences: read(&self.occurrences),
            protocol_errors: read(&self.protocol_errors),
            query_errors: read(&self.query_errors),
            overloaded: read(&self.overloaded),
            reloads: read(&self.reloads),
            appended_positions: read(&self.appended_positions),
            delete_ranges: read(&self.delete_ranges),
            flushes: read(&self.flushes),
            compactions: read(&self.compactions),
            live_errors: read(&self.live_errors),
            wal_records: durability.wal_records,
            wal_bytes: durability.wal_bytes,
            recoveries: durability.recoveries,
            recovered_records: durability.recovered_records,
            fsync_policy: durability.fsync_policy,
            compaction_errors: durability.compaction_errors,
            last_error: durability.last_error.unwrap_or_default(),
        }
    }
}

/// Number of request ops the per-op service histograms cover (op bytes
/// `0..OP_SERVICE_SLOTS`).
pub const OP_SERVICE_SLOTS: usize = 11;

/// Display name of a request op byte (for the text dump).
pub fn op_name(op: u8) -> &'static str {
    match op {
        0 => "PING",
        1 => "QUERY",
        2 => "STATS",
        3 => "RELOAD",
        4 => "SHUTDOWN",
        5 => "APPEND",
        6 => "DELETE_RANGE",
        7 => "FLUSH",
        8 => "COMPACT",
        9 => "METRICS",
        10 => "TRACE_DUMP",
        _ => "UNKNOWN",
    }
}

/// One worker's private histogram registry. Each worker records into its
/// own instance (no sharing, no contention); a `METRICS` scrape merges all
/// of them.
#[derive(Debug)]
pub struct WorkerObs {
    /// Minimizer-scan stage nanoseconds per query.
    pub query_scan: Histogram,
    /// Locate (`equal_range` / trie descent) stage nanoseconds per query.
    pub query_locate: Histogram,
    /// Verification (grid report + probability checks) nanoseconds.
    pub query_verify: Histogram,
    /// Reporting (sort/dedup/stream) nanoseconds.
    pub query_report: Histogram,
    /// Queue wait: accept-to-worker-pop nanoseconds per connection.
    pub queue_wait: Histogram,
    /// Per-op service time (decode + answer + send), indexed by op byte.
    pub op_service: [Histogram; OP_SERVICE_SLOTS],
}

impl WorkerObs {
    /// Creates an empty registry (one bucket-array allocation per
    /// histogram; nothing allocates after this).
    pub fn new() -> Self {
        Self {
            query_scan: Histogram::new(),
            query_locate: Histogram::new(),
            query_verify: Histogram::new(),
            query_report: Histogram::new(),
            queue_wait: Histogram::new(),
            op_service: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records the per-stage timings of one answered query. Callers gate
    /// this on `stats.timed` — stage tracing is sampled, and the untimed
    /// majority carry zeroed stage fields that must not reach the
    /// histograms.
    #[inline]
    pub fn record_query_stages(&self, stats: &QueryStats) {
        self.query_scan.record(stats.scan_ns);
        self.query_locate.record(stats.locate_ns);
        self.query_verify.record(stats.verify_ns);
        self.query_report.record(stats.report_ns);
    }

    /// Records the service time of one answered frame. The worker loop
    /// samples calls at the stage-tracing rate (first request on each
    /// connection always recorded); slow-query detection stays exact
    /// because the elapsed time is measured for every request regardless.
    #[inline]
    pub fn record_service(&self, op: u8, ns: u64) {
        if (op as usize) < OP_SERVICE_SLOTS {
            self.op_service[op as usize].record(ns);
        }
    }
}

impl Default for WorkerObs {
    fn default() -> Self {
        Self::new()
    }
}

/// Rank bytes of the pattern a slow-query entry retains. Long enough to
/// re-run a representative prefix query from a dump, short enough to keep
/// the entry `Copy` and the wire encoding tiny.
pub const SLOW_QUERY_PREFIX_LEN: usize = 16;

/// One threshold-crossing query in the slow-query log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowQueryEntry {
    /// `ius_obs::clock::now_ns` when the query finished.
    pub ts_ns: u64,
    /// How long the query took.
    pub duration_ns: u64,
    /// Length of the queried pattern.
    pub pattern_len: u64,
    /// Distinct positions the query reported.
    pub reported: u64,
    /// How many of `prefix`'s bytes are meaningful
    /// (`min(pattern_len, SLOW_QUERY_PREFIX_LEN)`).
    pub prefix_len: u8,
    /// The first [`SLOW_QUERY_PREFIX_LEN`] ranks of the queried pattern,
    /// so a slow query is reproducible from a dump (trailing bytes zero).
    pub prefix: [u8; SLOW_QUERY_PREFIX_LEN],
}

impl SlowQueryEntry {
    /// The meaningful ranks of the retained pattern prefix.
    pub fn prefix(&self) -> &[u8] {
        &self.prefix[..self.prefix_len as usize]
    }
}

/// A fixed-capacity ring of [`SlowQueryEntry`]s: the newest `capacity`
/// slow queries survive, older ones are overwritten.
///
/// Unlike the atomics-only `ius_obs::EventLog` this ring sits behind a mutex:
/// an entry (with its pattern prefix) no longer fits the event log's three
/// payload words, and queries that cross the slow threshold are — by
/// construction — rare and already tens of milliseconds deep, so a
/// microsecond of lock hold is invisible. Recording stays allocation-free:
/// the slots are preallocated and a push is a slot overwrite.
#[derive(Debug)]
pub struct SlowRing {
    inner: Mutex<SlowRingInner>,
}

#[derive(Debug)]
struct SlowRingInner {
    slots: Box<[SlowQueryEntry]>,
    next: usize,
    len: usize,
    recorded: u64,
}

impl SlowRing {
    /// Creates a ring keeping the newest `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(SlowRingInner {
                slots: vec![SlowQueryEntry::default(); capacity.max(1)].into_boxed_slice(),
                next: 0,
                len: 0,
                recorded: 0,
            }),
        }
    }

    /// Appends an entry, stamping it with the current clock and retaining
    /// the first [`SLOW_QUERY_PREFIX_LEN`] bytes of `pattern_prefix`.
    /// `pattern_len` is the full pattern length (the prefix the caller
    /// still holds may be shorter than the pattern only by truncation).
    pub fn record(&self, duration_ns: u64, pattern_len: u64, pattern_prefix: &[u8], reported: u64) {
        let keep = pattern_prefix.len().min(SLOW_QUERY_PREFIX_LEN);
        let mut entry = SlowQueryEntry {
            ts_ns: clock::now_ns(),
            duration_ns,
            pattern_len,
            reported,
            prefix_len: keep as u8,
            prefix: [0u8; SLOW_QUERY_PREFIX_LEN],
        };
        entry.prefix[..keep].copy_from_slice(&pattern_prefix[..keep]);
        let mut inner = self.inner.lock().expect("slow ring lock");
        let next = inner.next;
        inner.slots[next] = entry;
        inner.next = (next + 1) % inner.slots.len();
        inner.len = (inner.len + 1).min(inner.slots.len());
        inner.recorded += 1;
    }

    /// Total entries ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("slow ring lock").recorded
    }

    /// `(occupied slots, capacity)`.
    pub fn occupancy(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("slow ring lock");
        (inner.len as u64, inner.slots.len() as u64)
    }

    /// The surviving entries, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQueryEntry> {
        let inner = self.inner.lock().expect("slow ring lock");
        let cap = inner.slots.len();
        let start = (inner.next + cap - inner.len) % cap;
        (0..inner.len)
            .map(|i| inner.slots[(start + i) % cap])
            .collect()
    }
}

/// Occupancy gauges of the server's diagnostic rings, carried in the
/// metrics snapshot so ring sizing is visible from a plain stderr dump
/// without a `TRACE_DUMP` scrape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingOccupancy {
    /// Occupied flight-recorder recent-ring slots.
    pub flight_recent: u64,
    /// Flight-recorder recent-ring capacity.
    pub flight_recent_capacity: u64,
    /// Occupied flight-recorder pinned (error) slots.
    pub flight_pinned: u64,
    /// Flight-recorder pinned-ring capacity.
    pub flight_pinned_capacity: u64,
    /// Occupied slow-query ring slots.
    pub slow: u64,
    /// Slow-query ring capacity.
    pub slow_capacity: u64,
}

/// The live-index observability view a `METRICS` scrape samples (zeroed
/// for static servers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveObsView {
    /// Flush (memtable freeze + segment build + swap) durations.
    pub flush: HistogramSnapshot,
    /// Compaction (merge build + swap) durations.
    pub compaction: HistogramSnapshot,
    /// WAL fsync durations.
    pub wal_fsync: HistogramSnapshot,
    /// Immutable segments currently serving.
    pub segments: u64,
    /// Memtable rows currently buffered.
    pub memtable_rows: u64,
    /// Compactions whose swap-in lost the id race and was discarded.
    pub swap_in_races: u64,
    /// Background compaction passes that failed (they retry).
    pub compaction_errors: u64,
    /// Mutation records replayed from the WAL at open.
    pub wal_replay_records: u64,
    /// WAL bytes scanned during replay.
    pub wal_replay_bytes: u64,
    /// Nanoseconds spent replaying the WAL.
    pub wal_replay_ns: u64,
    /// Most recent background/durability failure (empty when none).
    pub last_error: String,
}

/// The typed snapshot answered to a `METRICS` request: per-stage query
/// histograms merged across workers, the server's queue-wait/service
/// split, the live/WAL timings, and the slow-query log. The body carries
/// its own format version (`protocol::METRICS_FORMAT_VERSION`) so the
/// snapshot layout can evolve without a wire-version bump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Snapshot layout version (see `protocol::METRICS_FORMAT_VERSION`).
    pub format_version: u16,
    /// Nanoseconds since the server's observability clock started.
    pub uptime_ns: u64,
    /// Minimizer-scan stage, merged across workers.
    pub query_scan: HistogramSnapshot,
    /// Locate stage (`equal_range` / trie descent), merged across workers.
    pub query_locate: HistogramSnapshot,
    /// Verification stage, merged across workers.
    pub query_verify: HistogramSnapshot,
    /// Reporting stage, merged across workers.
    pub query_report: HistogramSnapshot,
    /// Accept-to-worker-pop wait per connection.
    pub queue_wait: HistogramSnapshot,
    /// Per-op service time: `(op byte, histogram)` for every op that
    /// served at least one frame.
    pub op_service: Vec<(u8, HistogramSnapshot)>,
    /// Live-index and WAL timings (zeroed for static servers).
    pub live: LiveObsView,
    /// Queries slower than the threshold, oldest first (bounded ring).
    pub slow_queries: Vec<SlowQueryEntry>,
    /// The slow-query threshold in force.
    pub slow_query_threshold_ns: u64,
    /// Occupancy of the flight-recorder and slow-query rings.
    pub rings: RingOccupancy,
}

impl MetricsSnapshot {
    /// Renders the snapshot as the human-readable text dump printed by
    /// `serve --metrics-interval`.
    pub fn dump(&self) -> String {
        use ius_obs::fmt_ns;
        let mut out = String::new();
        out.push_str(&format!(
            "== ius metrics (format v{}, uptime {}) ==\n",
            self.format_version,
            fmt_ns(self.uptime_ns)
        ));
        out.push_str("query stages (ns per query, merged across workers):\n");
        for (name, h) in [
            ("scan  ", &self.query_scan),
            ("locate", &self.query_locate),
            ("verify", &self.query_verify),
            ("report", &self.query_report),
        ] {
            out.push_str(&format!("  {name}  {}\n", h.summary_line()));
        }
        out.push_str(&format!("queue_wait  {}\n", self.queue_wait.summary_line()));
        out.push_str("per-op service time:\n");
        for (op, h) in &self.op_service {
            out.push_str(&format!("  {:<12}  {}\n", op_name(*op), h.summary_line()));
        }
        let live = &self.live;
        out.push_str(&format!(
            "live: segments={} memtable_rows={} swap_in_races={} compaction_errors={}\n",
            live.segments, live.memtable_rows, live.swap_in_races, live.compaction_errors
        ));
        out.push_str(&format!("  flush       {}\n", live.flush.summary_line()));
        out.push_str(&format!(
            "  compaction  {}\n",
            live.compaction.summary_line()
        ));
        out.push_str(&format!(
            "wal: fsync  {}\n  replay: {} record(s), {} byte(s), {}\n",
            live.wal_fsync.summary_line(),
            live.wal_replay_records,
            live.wal_replay_bytes,
            fmt_ns(live.wal_replay_ns)
        ));
        if !live.last_error.is_empty() {
            out.push_str(&format!("last_error: {}\n", live.last_error));
        }
        let rings = &self.rings;
        out.push_str(&format!(
            "rings: flight_recent={}/{} flight_pinned={}/{} slow={}/{}\n",
            rings.flight_recent,
            rings.flight_recent_capacity,
            rings.flight_pinned,
            rings.flight_pinned_capacity,
            rings.slow,
            rings.slow_capacity
        ));
        out.push_str(&format!(
            "slow queries (over {}): {}\n",
            fmt_ns(self.slow_query_threshold_ns),
            self.slow_queries.len()
        ));
        for entry in &self.slow_queries {
            out.push_str(&format!(
                "  +{:<10}  {:<10}  pattern_len={}  reported={}  prefix={:?}\n",
                fmt_ns(entry.ts_ns),
                fmt_ns(entry.duration_ns),
                entry.pattern_len,
                entry.reported,
                entry.prefix()
            ));
        }
        out
    }
}

/// Merges the per-worker registries plus the shared slow-query log into
/// one [`MetricsSnapshot`] (the `METRICS` scrape path; allocation is fine
/// here).
pub(crate) fn merge_worker_obs(
    workers: &[std::sync::Arc<WorkerObs>],
    slow_log: &SlowRing,
    slow_query_threshold_ns: u64,
    live: LiveObsView,
    flight: FlightOccupancy,
) -> MetricsSnapshot {
    let (slow, slow_capacity) = slow_log.occupancy();
    let mut snapshot = MetricsSnapshot {
        format_version: crate::protocol::METRICS_FORMAT_VERSION,
        uptime_ns: ius_obs::clock::now_ns(),
        slow_query_threshold_ns,
        live,
        rings: RingOccupancy {
            flight_recent: flight.recent,
            flight_recent_capacity: flight.recent_capacity,
            flight_pinned: flight.pinned,
            flight_pinned_capacity: flight.pinned_capacity,
            slow,
            slow_capacity,
        },
        ..MetricsSnapshot::default()
    };
    let mut op_service: Vec<HistogramSnapshot> =
        vec![HistogramSnapshot::default(); OP_SERVICE_SLOTS];
    for worker in workers {
        snapshot.query_scan.merge(&worker.query_scan.snapshot());
        snapshot.query_locate.merge(&worker.query_locate.snapshot());
        snapshot.query_verify.merge(&worker.query_verify.snapshot());
        snapshot.query_report.merge(&worker.query_report.snapshot());
        snapshot.queue_wait.merge(&worker.queue_wait.snapshot());
        for (slot, hist) in op_service.iter_mut().zip(worker.op_service.iter()) {
            slot.merge(&hist.snapshot());
        }
    }
    snapshot.op_service = op_service
        .into_iter()
        .enumerate()
        .filter(|(_, h)| h.count > 0)
        .map(|(op, h)| (op as u8, h))
        .collect();
    snapshot.slow_queries = slow_log.snapshot();
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters_and_context() {
        let metrics = ServerMetrics::new();
        ServerMetrics::inc(&metrics.connections);
        ServerMetrics::add(&metrics.occurrences, 41);
        ServerMetrics::inc(&metrics.occurrences);
        let snap = metrics.snapshot(
            "MWSA".into(),
            2,
            1000,
            4096,
            3,
            16,
            DurabilityView::default(),
        );
        assert_eq!(snap.index_name, "MWSA");
        assert_eq!(snap.generation, 2);
        assert_eq!(snap.corpus_len, 1000);
        assert_eq!(snap.index_size_bytes, 4096);
        assert_eq!(snap.workers, 3);
        assert_eq!(snap.queue_depth, 16);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.occurrences, 42);
        assert_eq!(snap.requests, 0);
    }

    #[test]
    fn worker_registries_merge_on_scrape() {
        let workers: Vec<std::sync::Arc<WorkerObs>> = (0..3)
            .map(|_| std::sync::Arc::new(WorkerObs::new()))
            .collect();
        for (i, w) in workers.iter().enumerate() {
            w.record_query_stages(&QueryStats {
                scan_ns: 100 * (i as u64 + 1),
                locate_ns: 10,
                verify_ns: 20,
                report_ns: 30,
                ..QueryStats::default()
            });
            w.record_service(1, 5_000);
            w.record_service(0, 200);
            w.queue_wait.record(1_000);
        }
        // An out-of-range op byte is ignored, not a panic.
        workers[0].record_service(200, 1);
        let slow_log = SlowRing::new(8);
        slow_log.record(2_000_000, 64, &[5, 4, 3], 3);
        let flight = FlightOccupancy {
            recent: 2,
            recent_capacity: 64,
            pinned: 1,
            pinned_capacity: 16,
        };
        let snap = merge_worker_obs(
            &workers,
            &slow_log,
            1_000_000,
            LiveObsView::default(),
            flight,
        );
        assert_eq!(snap.query_scan.count, 3);
        assert_eq!(snap.query_scan.sum, 100 + 200 + 300);
        assert_eq!(snap.queue_wait.count, 3);
        let ops: Vec<u8> = snap.op_service.iter().map(|(op, _)| *op).collect();
        assert_eq!(ops, vec![0, 1], "only ops that served frames appear");
        assert_eq!(snap.op_service[1].1.count, 3);
        assert_eq!(snap.slow_queries.len(), 1);
        let entry = snap.slow_queries[0];
        assert_eq!(entry.duration_ns, 2_000_000);
        assert_eq!(entry.pattern_len, 64);
        assert_eq!(entry.reported, 3);
        assert_eq!(entry.prefix(), &[5, 4, 3]);
        assert_eq!(snap.slow_query_threshold_ns, 1_000_000);
        assert_eq!(snap.rings.flight_recent, 2);
        assert_eq!(snap.rings.flight_pinned, 1);
        assert_eq!(snap.rings.slow, 1);
        assert_eq!(snap.rings.slow_capacity, 8);
    }

    #[test]
    fn slow_ring_truncates_prefixes_and_keeps_the_newest() {
        let ring = SlowRing::new(2);
        let long: Vec<u8> = (0..40u8).collect();
        ring.record(1_000, 40, &long, 1);
        ring.record(2_000, 4, &[9, 8, 7, 6], 2);
        ring.record(3_000, 2, &[1, 2], 0);
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.occupancy(), (2, 2));
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 2, "capacity 2 keeps the newest two");
        assert_eq!(entries[0].prefix(), &[9, 8, 7, 6]);
        assert_eq!(entries[1].prefix(), &[1, 2]);
        // A fresh ring with a long pattern keeps exactly the prefix cap.
        let ring = SlowRing::new(4);
        ring.record(1, 40, &long, 0);
        let entry = ring.snapshot()[0];
        assert_eq!(entry.prefix_len as usize, SLOW_QUERY_PREFIX_LEN);
        assert_eq!(entry.prefix(), &long[..SLOW_QUERY_PREFIX_LEN]);
        assert_eq!(entry.pattern_len, 40);
    }

    #[test]
    fn dump_renders_every_section() {
        let workers = vec![std::sync::Arc::new(WorkerObs::new())];
        workers[0].record_service(1, 42_000);
        let slow_log = SlowRing::new(4);
        slow_log.record(77_000_000, 8, b"ACGTACGT", 2);
        let live = LiveObsView {
            segments: 4,
            memtable_rows: 123,
            last_error: "disk full".into(),
            ..LiveObsView::default()
        };
        let flight = FlightOccupancy {
            recent: 5,
            recent_capacity: 64,
            pinned: 1,
            pinned_capacity: 16,
        };
        let text = merge_worker_obs(&workers, &slow_log, 50_000_000, live, flight).dump();
        for needle in [
            "query stages",
            "queue_wait",
            "QUERY",
            "segments=4",
            "memtable_rows=123",
            "wal:",
            "slow queries",
            "pattern_len=8",
            "rings: flight_recent=5/64 flight_pinned=1/16 slow=1/4",
            "prefix=",
            "last_error: disk full",
        ] {
            assert!(text.contains(needle), "dump missing {needle:?}:\n{text}");
        }
    }
}
