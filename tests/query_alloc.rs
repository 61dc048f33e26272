//! Asserts the acceptance criterion of the query-engine overhaul: once a
//! [`QueryScratch`]'s buffers have warmed up, `query_into` performs **no
//! heap allocation** on the minimizer-index hot paths (simple and grid
//! queries, count-only sink).
//!
//! This integration test is its own binary, so installing the counting
//! allocator here affects nothing else in the workspace. The allocator's
//! counters are process-wide, so every test holds [`serialize`]'s lock
//! from its workload build through its last assertion: a sibling test
//! building its workload on another thread would otherwise land in the
//! measured window.

use ius::prelude::*;
use ius_memtrack::CountingAllocator;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Runs this file's tests one at a time. A failed test poisons the lock;
/// the others still run (the guarded state is `()`).
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn workload() -> (WeightedString, ZEstimation, Vec<Vec<u8>>, IndexParams) {
    let x = PangenomeConfig {
        n: 2_000,
        delta: 0.05,
        seed: 0xA110C,
        ..Default::default()
    }
    .generate();
    let z = 16.0;
    let ell = 32usize;
    let est = ZEstimation::build(&x, z).unwrap();
    let mut sampler = PatternSampler::new(&est, 77);
    let mut patterns = sampler.sample_many(ell, 40);
    patterns.extend(sampler.sample_many(2 * ell, 20));
    assert!(patterns.len() >= 40, "workload needs patterns");
    let params = IndexParams::new(z, ell, x.sigma()).unwrap();
    (x, est, patterns, params)
}

/// Runs every pattern once to warm the scratch, then asserts that a second
/// full pass allocates zero heap bytes.
fn assert_steady_state_allocation_free(variant: IndexVariant, label: &str) {
    let _serial = serialize();
    let (x, est, patterns, params) = workload();
    let index = MinimizerIndex::build_from_estimation(&x, &est, params, variant).unwrap();
    assert_warm_queries_allocate_nothing(&index, &x, &patterns, label);
}

/// The measurement behind every steady-state case: a warm-up pass over
/// `patterns`, then a measured second pass that must not touch the
/// allocator. The caller holds [`serialize`]'s lock.
fn assert_warm_queries_allocate_nothing(
    index: &dyn UncertainIndex,
    x: &WeightedString,
    patterns: &[Vec<u8>],
    label: &str,
) {
    let mut scratch = QueryScratch::new();
    let mut sink = CountSink::new();

    // Warm-up pass: buffers grow to the workload's high-water mark.
    let mut warm_count = 0usize;
    for pattern in patterns {
        index
            .query_into(pattern, x, &mut scratch, &mut sink)
            .unwrap();
        warm_count = sink.count;
    }

    // Steady-state pass: must not touch the allocator at all.
    let (steady_count, mem) = ius_memtrack::measure(|| {
        let mut sink = CountSink::new();
        for pattern in patterns {
            index
                .query_into(pattern, x, &mut scratch, &mut sink)
                .unwrap();
        }
        sink.count
    });
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.peak_bytes,
        0,
        "{label}: steady-state query_into allocated {} bytes over {} queries",
        mem.peak_bytes,
        patterns.len()
    );
    assert_eq!(mem.retained_bytes, 0, "{label}: steady state retained heap");
    assert!(
        steady_count >= warm_count,
        "{label}: queries kept answering"
    );
    assert!(steady_count > 0, "{label}: workload found occurrences");
}

#[test]
fn mwsa_simple_query_is_allocation_free_after_warmup() {
    assert_steady_state_allocation_free(IndexVariant::Array, "MWSA");
}

#[test]
fn mwsa_grid_query_is_allocation_free_after_warmup() {
    assert_steady_state_allocation_free(IndexVariant::ArrayGrid, "MWSA-G");
}

#[test]
fn mwst_tree_query_is_allocation_free_after_warmup() {
    assert_steady_state_allocation_free(IndexVariant::Tree, "MWST");
}

/// A sharded query visits its shards on the calling thread with the
/// caller's scratch: no thread, no per-shard buffer.
#[test]
fn sharded_query_is_allocation_free_after_warmup() {
    let _serial = serialize();
    let (x, _est, patterns, params) = workload();
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let max_len = patterns.iter().map(Vec::len).max().unwrap();
    let sharded = ShardedIndex::build(&x, spec, 4, max_len).unwrap();
    assert_eq!(sharded.num_shards(), 4);
    assert_warm_queries_allocate_nothing(&sharded, &x, &patterns, "SHARDED(S=4)");
}

/// A live query visits its segments and then scans the memtable, all on
/// the calling thread: neither part may allocate once the scratch is warm.
#[test]
fn live_query_is_allocation_free_after_warmup() {
    let _serial = serialize();
    let (x, _est, patterns, params) = workload();
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let max_len = patterns.iter().map(Vec::len).max().unwrap();
    let config = LiveConfig {
        flush_threshold: 500,
        auto_compact: false,
        ..LiveConfig::default()
    };
    let live = LiveIndex::new(x.alphabet().clone(), spec, max_len, config).unwrap();
    for start in (0..x.len()).step_by(150) {
        let end = (start + 150).min(x.len());
        live.append(&x.substring(start, end).unwrap()).unwrap();
    }
    let stats = live.live_stats();
    assert!(stats.segments >= 2, "{} segments", stats.segments);
    assert!(
        stats.memtable_rows >= max_len,
        "{} memtable rows",
        stats.memtable_rows
    );
    assert_warm_queries_allocate_nothing(&live, &x, &patterns, "LIVE");
}

/// The serving hot path is `query_into` **plus** metrics recording: stage
/// timings into log-linear histograms, op counters, and a ring-buffer
/// slow-query log. All of it must stay allocation-free in steady state —
/// the observability layer's core promise.
#[test]
fn instrumented_query_recording_is_allocation_free_after_warmup() {
    use ius_obs::{clock, Counter, EventLog, Histogram};
    let _serial = serialize();
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    // The registry mirrors the server's per-worker one: histograms and the
    // event log allocate once here, never on the recording path.
    let scan = Histogram::new();
    let locate = Histogram::new();
    let verify = Histogram::new();
    let report = Histogram::new();
    let queries = Counter::new();
    let slow_log = EventLog::new(128);
    clock::warm_up();
    assert!(clock::enabled(), "timing must be on for this test");

    // Warm-up pass.
    let mut sink = CountSink::new();
    for pattern in &patterns {
        index
            .query_into(pattern, &x, &mut scratch, &mut sink)
            .unwrap();
    }

    // Steady state: query + full metrics recording, zero heap traffic.
    // Stage recording mirrors the server: only queries that drew a
    // stage-tracing ticket (1 in `clock::STAGE_SAMPLE_EVERY`) carry
    // stamped stage fields and reach the stage histograms.
    let ((recorded, timed), mem) = ius_memtrack::measure(|| {
        let mut sink = CountSink::new();
        let mut timed = 0u64;
        for pattern in &patterns {
            let start = clock::now_ns();
            let stats = index
                .query_into(pattern, &x, &mut scratch, &mut sink)
                .unwrap();
            if stats.timed {
                timed += 1;
                scan.record(stats.scan_ns);
                locate.record(stats.locate_ns);
                verify.record(stats.verify_ns);
                report.record(stats.report_ns);
            }
            queries.inc();
            let elapsed = clock::now_ns().saturating_sub(start);
            slow_log.record(pattern.len() as u64, elapsed, stats.reported as u64);
        }
        (queries.get(), timed)
    });
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.peak_bytes, 0,
        "instrumented steady-state queries allocated {} bytes",
        mem.peak_bytes
    );
    assert_eq!(mem.retained_bytes, 0, "instrumentation retained heap");
    assert_eq!(recorded as usize, patterns.len());
    // 60 patterns at a 1-in-16 ticket guarantee several timed queries on
    // this thread no matter where the tick starts.
    assert!(
        timed >= 1,
        "sampling must trace some of {} queries",
        recorded
    );
    assert_eq!(scan.count(), timed);
    assert_eq!(slow_log.recorded(), patterns.len() as u64);
    // The stage stamps really measured something on this build.
    assert!(scan.snapshot().sum > 0, "scan stage timings recorded");
}

/// The fully traced serving path — span tree into the thread-local trace
/// buffer, flight-recorder push, slow-query ring push with its pattern
/// prefix — must stay allocation-free in steady state, on sampled and
/// unsampled requests alike. This is the budget behind the <2%
/// instrumentation-overhead acceptance row.
#[test]
fn traced_query_path_is_allocation_free_after_warmup() {
    use ius_obs::{clock, trace};
    use ius_server::{FlightRecorder, SlowRing, TRACE_NO_ERROR};
    let _serial = serialize();
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    // The rings preallocate at construction, exactly like the server's
    // shared state; nothing below may touch the allocator again.
    let flight = FlightRecorder::new();
    let slow = SlowRing::new(64);
    clock::warm_up();
    assert!(clock::enabled(), "timing must be on for this test");

    // Mirrors one served request: arm the trace on sampled requests, wrap
    // the query in a STAGE_QUERY span with stage leaves, then push the
    // finished trace into the flight recorder and the timing into the
    // slow ring.
    let run_one = |pattern: &Vec<u8>, sampled: bool, scratch: &mut QueryScratch| -> u64 {
        let start = clock::now_ns();
        let armed = sampled && trace::begin(trace::next_trace_id());
        if armed {
            trace::leaf(trace::STAGE_QUEUE_WAIT, 120, 0, 0);
            trace::enter(trace::STAGE_QUERY);
        }
        let mut sink = CountSink::new();
        let stats = index.query_into(pattern, &x, scratch, &mut sink).unwrap();
        if armed {
            if stats.timed {
                trace::leaf(trace::STAGE_SCAN, stats.scan_ns, 0, 0);
                trace::leaf(
                    trace::STAGE_VERIFY,
                    stats.verify_ns,
                    stats.candidates as u64,
                    0,
                );
            }
            trace::exit_with(stats.candidates as u64, stats.reported as u64);
        }
        let elapsed = clock::now_ns().saturating_sub(start);
        let recorded = trace::finish(|buf| {
            flight.record(buf, 1, TRACE_NO_ERROR, elapsed);
        });
        assert_eq!(recorded.is_some(), sampled, "arming must follow the ticket");
        slow.record(
            elapsed,
            pattern.len() as u64,
            pattern,
            stats.reported as u64,
        );
        stats.reported as u64
    };

    // Warm-up pass, alternating sampled and unsampled requests.
    for (i, pattern) in patterns.iter().enumerate() {
        run_one(pattern, i % 2 == 0, &mut scratch);
    }

    // Steady state: the whole traced request loop, zero heap traffic.
    let (reported, mem) = ius_memtrack::measure(|| {
        let mut reported = 0u64;
        for (i, pattern) in patterns.iter().enumerate() {
            reported += run_one(pattern, i % 2 == 0, &mut scratch);
        }
        reported
    });
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.peak_bytes,
        0,
        "traced steady-state queries allocated {} bytes over {} requests",
        mem.peak_bytes,
        patterns.len()
    );
    assert_eq!(mem.retained_bytes, 0, "traced path retained heap");
    assert!(reported > 0, "workload found occurrences");
    // Both rings really absorbed the pushes.
    let occupancy = flight.occupancy();
    assert!(occupancy.recent > 0, "flight recorder captured traces");
    assert_eq!(slow.recorded(), 2 * patterns.len() as u64);
    // Sampled traces carry the span tree.
    let snapshot = flight.snapshot();
    assert!(snapshot
        .iter()
        .any(|t| t.spans.iter().any(|s| s.code == trace::STAGE_QUERY)));
}

#[test]
fn collecting_into_a_warm_reused_vector_is_also_allocation_free() {
    let _serial = serialize();
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    let mut out: Vec<usize> = Vec::new();
    let mut high_water = 0usize;
    for pattern in &patterns {
        out.clear();
        index
            .query_into(pattern, &x, &mut scratch, &mut out)
            .unwrap();
        high_water = high_water.max(out.len());
    }
    // `out` has warmed to the largest single answer; replaying the workload
    // into it allocates nothing.
    let (_, mem) = ius_memtrack::measure(|| {
        for pattern in &patterns {
            out.clear();
            index
                .query_into(pattern, &x, &mut scratch, &mut out)
                .unwrap();
        }
    });
    assert_eq!(mem.peak_bytes, 0, "reused collect sink allocated");
    assert!(high_water > 0);
}
