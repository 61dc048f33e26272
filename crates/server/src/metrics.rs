//! Lock-free server observability: the shared counters ([`ServerMetrics`])
//! and the per-worker registries ([`WorkerObs`]), each read out into the
//! one `ius_obs::Scrape` that `STATS` answers (beside the flight
//! recorder's ring counts, `crate::flight`).
//!
//! Recording follows the `ius_obs` rule — a few relaxed atomic adds, no
//! locks, no allocation, no syscalls on the hot path. Aggregation happens
//! on the scrape path only: a scrape merges every worker's registry, so
//! workers never contend with each other or with scrapers.

use crate::protocol::{op_name, OP_SERVICE_SLOTS};
use ius_obs::trace;
use ius_obs::{Counter, Histogram, HistogramSnapshot, Scrape, Value};
use ius_query::QueryStats;
use std::sync::Arc;

/// Monotonic counters shared by the acceptor and every worker. All updates
/// are relaxed atomics — the counters are operational telemetry, not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted (admitted or refused).
    pub connections: Counter,
    /// Frames read off admitted connections (well-formed or not).
    pub requests: Counter,
    /// Queries answered successfully.
    pub queries: Counter,
    /// Occurrence positions delivered over all queries.
    pub occurrences: Counter,
    /// Frames answered with a protocol-level error.
    pub protocol_errors: Counter,
    /// Well-formed queries rejected by the engine (pattern contract).
    pub query_errors: Counter,
    /// Connections refused with `OVERLOADED`.
    pub overloaded: Counter,
    /// Successful hot reloads.
    pub reloads: Counter,
    /// Positions appended to a live corpus via `APPEND`.
    pub appended_positions: Counter,
    /// Successful `DELETE_RANGE` requests.
    pub delete_ranges: Counter,
    /// `FLUSH` requests that froze at least one segment (append-triggered
    /// auto-flushes are internal to the live index and not counted here).
    pub flushes: Counter,
    /// `COMPACT` requests that merged at least one run.
    pub compactions: Counter,
    /// Live mutations refused or failed with a typed `LIVE_ERROR` frame.
    pub live_errors: Counter,
}

impl ServerMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes every counter into `scrape`, named after its field.
    pub fn scrape_into(&self, scrape: &mut Scrape) {
        for (name, counter) in [
            ("connections", &self.connections),
            ("requests", &self.requests),
            ("queries", &self.queries),
            ("occurrences", &self.occurrences),
            ("protocol_errors", &self.protocol_errors),
            ("query_errors", &self.query_errors),
            ("overloaded", &self.overloaded),
            ("reloads", &self.reloads),
            ("appended_positions", &self.appended_positions),
            ("delete_ranges", &self.delete_ranges),
            ("flushes", &self.flushes),
            ("compactions", &self.compactions),
            ("live_errors", &self.live_errors),
        ] {
            scrape.push(name, Value::Counter(counter.get()));
        }
    }
}

/// One worker's private registry. Each worker records into its own
/// instance (no sharing, no contention); a scrape merges all of them.
#[derive(Debug)]
pub struct WorkerObs {
    /// Candidate occurrences enumerated over all answered queries (exact).
    pub candidates: Counter,
    /// Candidates that passed verification (exact).
    pub verified: Counter,
    /// Distinct positions reported (exact).
    pub reported: Counter,
    /// Grid work — wavelet-matrix nodes plus entries scanned (exact).
    pub grid_nodes: Counter,
    /// Queries refused because the pattern is shorter than ℓ (exact).
    pub pattern_too_short: Counter,
    /// Minimizer-scan stage nanoseconds per sampled query (the sum of its
    /// trace's scan leaves).
    pub query_scan: Histogram,
    /// Locate (`equal_range` / trie descent) stage nanoseconds per sampled
    /// query.
    pub query_locate: Histogram,
    /// Verification (grid report + probability checks) nanoseconds per
    /// sampled query.
    pub query_verify: Histogram,
    /// Reporting (sort/dedup/stream) nanoseconds per sampled query.
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
            candidates: Counter::new(),
            verified: Counter::new(),
            reported: Counter::new(),
            grid_nodes: Counter::new(),
            pattern_too_short: Counter::new(),
            query_scan: Histogram::new(),
            query_locate: Histogram::new(),
            query_verify: Histogram::new(),
            query_report: Histogram::new(),
            queue_wait: Histogram::new(),
            op_service: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records one answered query: the filter counters on every query,
    /// and one sample per stage histogram when the calling thread's armed
    /// trace holds stage leaves — the sum of each stage's leaves, so a
    /// live query sums its parts. Call it before the trace is finished. An
    /// unsampled query, and a sampled one whose engine writes no stage
    /// leaves (WST, WSA, NAIVE, a memtable-only live query), records no
    /// stage sample.
    #[inline]
    pub fn record_query(&self, stats: &QueryStats) {
        self.candidates.add(stats.candidates as u64);
        self.verified.add(stats.verified as u64);
        self.reported.add(stats.reported as u64);
        self.grid_nodes.add(stats.grid_nodes as u64);
        let stages = [
            trace::STAGE_SCAN,
            trace::STAGE_LOCATE,
            trace::STAGE_VERIFY,
            trace::STAGE_REPORT,
        ];
        if let Some(sums) = trace::stage_sums(stages) {
            let hists = [
                &self.query_scan,
                &self.query_locate,
                &self.query_verify,
                &self.query_report,
            ];
            for (hist, ns) in hists.into_iter().zip(sums) {
                hist.record(ns);
            }
        }
    }

    /// Records the service time of one answered frame. The worker loop
    /// calls it for sampled requests only (the first request a worker
    /// serves, then one in `clock::STAGE_SAMPLE_EVERY`); slow-query
    /// detection stays exact because the elapsed time is measured for
    /// every request regardless.
    #[inline]
    pub fn record_service(&self, op: u8, ns: u64) {
        if (op as usize) < OP_SERVICE_SLOTS {
            self.op_service[op as usize].record(ns);
        }
    }

    fn counters(&self) -> [&Counter; 5] {
        [
            &self.candidates,
            &self.verified,
            &self.reported,
            &self.grid_nodes,
            &self.pattern_too_short,
        ]
    }

    fn histograms(&self) -> [&Histogram; 5] {
        [
            &self.query_scan,
            &self.query_locate,
            &self.query_verify,
            &self.query_report,
            &self.queue_wait,
        ]
    }

    /// Merges every worker's registry into `scrape`: counters summed,
    /// histograms merged, and one `op_service_ns_<op>` histogram per op
    /// that served at least one sampled frame.
    pub fn scrape_into(workers: &[Arc<WorkerObs>], scrape: &mut Scrape) {
        for (i, name) in WORKER_COUNTERS.into_iter().enumerate() {
            let total = workers.iter().map(|w| w.counters()[i].get()).sum();
            scrape.push(name, Value::Counter(total));
        }
        for (i, name) in WORKER_HISTOGRAMS.into_iter().enumerate() {
            let h = merged(workers, |w| w.histograms()[i]);
            scrape.push(name, Value::Histogram(h));
        }
        for op in 0..OP_SERVICE_SLOTS {
            let h = merged(workers, |w| &w.op_service[op]);
            if h.count > 0 {
                let name = format!("op_service_ns_{}", op_name(op as u8).to_ascii_lowercase());
                scrape.push(name, Value::Histogram(h));
            }
        }
    }
}

/// Scrape names of [`WorkerObs::counters`], in order.
const WORKER_COUNTERS: [&str; 5] = [
    "query_candidates",
    "query_verified",
    "query_reported",
    "query_grid_nodes",
    "pattern_too_short",
];

/// Scrape names of [`WorkerObs::histograms`], in order.
const WORKER_HISTOGRAMS: [&str; 5] = [
    "query_scan_ns",
    "query_locate_ns",
    "query_verify_ns",
    "query_report_ns",
    "queue_wait_ns",
];

/// One histogram of every worker, merged.
fn merged(
    workers: &[Arc<WorkerObs>],
    pick: impl Fn(&WorkerObs) -> &Histogram,
) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for worker in workers {
        out.merge(&pick(worker).snapshot());
    }
    out
}

impl Default for WorkerObs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightRecorder, RequestFacts, TRACE_NO_ERROR};

    #[test]
    fn snapshot_reflects_counters_and_context() {
        let metrics = ServerMetrics::new();
        metrics.connections.inc();
        metrics.occurrences.add(41);
        metrics.occurrences.inc();
        let mut scrape = Scrape::new();
        metrics.scrape_into(&mut scrape);
        assert_eq!(scrape.value("connections"), Some(1));
        assert_eq!(scrape.value("occurrences"), Some(42));
        assert_eq!(scrape.value("requests"), Some(0));
        assert_eq!(scrape.samples().len(), 13, "one sample per counter");
        assert!(scrape
            .samples()
            .iter()
            .all(|(_, v)| matches!(v, Value::Counter(_))));
    }

    #[test]
    fn worker_registries_merge_on_scrape() {
        let workers: Vec<Arc<WorkerObs>> = (0..3).map(|_| Arc::new(WorkerObs::new())).collect();
        let stats = QueryStats {
            candidates: 10,
            verified: 4,
            reported: 2,
            grid_nodes: 5,
        };
        for (i, w) in workers.iter().enumerate() {
            // A sampled query: its trace holds two parts' stage leaves, and
            // each stage records their sum once.
            trace::begin(trace::next_trace_id());
            for part in 0..2u64 {
                trace::enter(trace::STAGE_PART);
                trace::leaf(trace::STAGE_SCAN, 50 * (i as u64 + 1), 0, 0);
                trace::leaf(trace::STAGE_LOCATE, 5, 0, 0);
                trace::leaf(trace::STAGE_VERIFY, 10, 0, 0);
                trace::leaf(trace::STAGE_REPORT, 15, 0, 0);
                trace::exit_with(part, 1);
            }
            w.record_query(&QueryStats {
                reported: 2 + i,
                ..stats
            });
            trace::abandon();
            // An unsampled query feeds the filter counters, not the stages.
            w.record_query(&QueryStats {
                candidates: 1,
                reported: 1,
                ..QueryStats::default()
            });
            // So does a sampled one whose engine wrote no stage leaves.
            trace::begin(trace::next_trace_id());
            w.record_query(&QueryStats::default());
            trace::abandon();
            w.record_service(1, 5_000);
            w.record_service(0, 200);
            w.queue_wait.record(1_000);
        }
        workers[1].pattern_too_short.inc();
        // An out-of-range op byte is ignored, not a panic.
        workers[0].record_service(200, 1);
        let mut scrape = Scrape::new();
        WorkerObs::scrape_into(&workers, &mut scrape);
        assert_eq!(scrape.value("query_candidates"), Some(33));
        assert_eq!(scrape.value("query_verified"), Some(12));
        assert_eq!(scrape.value("query_reported"), Some(2 + 3 + 4 + 3));
        assert_eq!(scrape.value("query_grid_nodes"), Some(15));
        assert_eq!(scrape.value("pattern_too_short"), Some(1));
        let scan = scrape.histogram("query_scan_ns").expect("scan");
        assert_eq!(scan.count, 3);
        assert_eq!(scan.sum, 100 + 200 + 300);
        let report = scrape.histogram("query_report_ns").expect("report");
        assert_eq!((report.count, report.sum), (3, 90));
        assert_eq!(scrape.histogram("queue_wait_ns").expect("wait").count, 3);
        let ops: Vec<&str> = scrape
            .samples()
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("op_service_ns_"))
            .collect();
        assert_eq!(ops, vec!["ping", "query"], "only ops that served frames");
        assert_eq!(scrape.histogram("op_service_ns_query").unwrap().count, 3);
    }

    #[test]
    fn dump_renders_every_section() {
        // The text exposition of every server-side source: counters,
        // merged worker histograms and the flight recorder's ring counts.
        let workers = vec![Arc::new(WorkerObs::new())];
        workers[0].record_service(1, 42_000);
        let flight = FlightRecorder::new();
        let slow = RequestFacts::new(1, TRACE_NO_ERROR, 0, 77_000_000).with_query(&[0, 1, 2], 2);
        flight.record(&slow, true);
        let mut scrape = Scrape::new();
        ServerMetrics::new().scrape_into(&mut scrape);
        WorkerObs::scrape_into(&workers, &mut scrape);
        flight.scrape_into(&mut scrape);
        let text = scrape.to_text();
        for needle in [
            "# TYPE requests counter\nrequests 0\n",
            "# TYPE query_scan_ns summary\n",
            "queue_wait_ns_count 0\n",
            "op_service_ns_query_count 1\n",
            "op_service_ns_query_sum 42000\n",
            "query_candidates 0\n",
            "slow_queries 1\n",
            "# TYPE flight_slow_len gauge\nflight_slow_len 1\n",
        ] {
            assert!(text.contains(needle), "text missing {needle:?}:\n{text}");
        }
        // Every line is a TYPE comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.rsplit_once(' ').is_some(),
                "{line:?}"
            );
        }
    }
}
