//! Asserts the promise of the query-engine overhaul: once a
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

/// A sharded index — a live index seeded in ⌈n/4⌉-row segments — visits
/// its 4 segments and its overlap-row memtable tail on the calling thread
/// with the caller's scratch: no thread, no per-segment buffer.
#[test]
fn sharded_query_is_allocation_free_after_warmup() {
    let _serial = serialize();
    let (x, _est, patterns, params) = workload();
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let max_len = patterns.iter().map(Vec::len).max().unwrap();
    let config = LiveConfig {
        flush_threshold: x.len().div_ceil(4),
        auto_compact: false,
        ..LiveConfig::default()
    };
    let sharded = LiveIndex::from_corpus(&x, spec, max_len, config).unwrap();
    assert_eq!(sharded.num_segments(), 4);
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

/// The serving hot path is `query_into` **plus** metrics recording: the
/// server's per-worker registry (exact filter counters, sampled stage
/// timings into log-linear histograms), its shared op counters, and the
/// flight recorder's slow ring. All of it must stay allocation-free in
/// steady state — the observability layer's core promise.
#[test]
fn instrumented_query_recording_is_allocation_free_after_warmup() {
    use ius_obs::{clock, trace};
    use ius_server::{FlightRecorder, RequestFacts, ServerMetrics, WorkerObs, TRACE_NO_ERROR};
    let _serial = serialize();
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    // The server's own registries: histograms and the rings allocate once
    // here, never on the recording path.
    let obs = WorkerObs::new();
    let metrics = ServerMetrics::new();
    let flight = FlightRecorder::new();
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
    // Stage recording mirrors the server: one request in
    // `clock::STAGE_SAMPLE_EVERY` arms a trace, and exactly those queries
    // carry stamped stage fields and reach the stage histograms. Every
    // query is slow (threshold 0), so each lands in the slow ring.
    let every = clock::STAGE_SAMPLE_EVERY as usize;
    let ((recorded, timed, candidates), mem) = ius_memtrack::measure(|| {
        let mut sink = CountSink::new();
        let (mut timed, mut candidates) = (0u64, 0u64);
        for (i, pattern) in patterns.iter().enumerate() {
            let start = clock::now_ns();
            let sampled = i % every == 0 && trace::begin(trace::next_trace_id());
            let stats = index
                .query_into(pattern, &x, &mut scratch, &mut sink)
                .unwrap();
            assert_eq!(stats.timed, sampled, "stages are stamped iff sampled");
            timed += u64::from(stats.timed);
            candidates += stats.candidates as u64;
            obs.record_query(&stats);
            metrics.queries.inc();
            let elapsed = clock::now_ns().saturating_sub(start);
            let facts = RequestFacts::new(1, TRACE_NO_ERROR, start, elapsed)
                .with_query(pattern, stats.reported as u64);
            flight.record(&facts, true);
        }
        (metrics.queries.get(), timed, candidates)
    });
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.peak_bytes, 0,
        "instrumented steady-state queries allocated {} bytes",
        mem.peak_bytes
    );
    assert_eq!(mem.retained_bytes, 0, "instrumentation retained heap");
    assert_eq!(recorded as usize, patterns.len());
    assert_eq!(timed as usize, patterns.len().div_ceil(every));
    assert_eq!(obs.query_scan.count(), timed);
    assert_eq!(obs.candidates.get(), candidates, "exact, unsampled");
    let mut scrape = ius_server::Scrape::new();
    flight.scrape_into(&mut scrape);
    assert_eq!(scrape.value("slow_queries"), Some(patterns.len() as u64));
    // The stage stamps really measured something on this build.
    assert!(
        obs.query_scan.snapshot().sum > 0,
        "scan stage timings recorded"
    );
}

/// The fully traced serving path — span tree into the thread-local trace
/// buffer, then one flight-recorder record with its pattern prefix — must
/// stay allocation-free in steady state, on sampled, unsampled and
/// unsampled-slow requests alike. This is the budget behind the <2%
/// instrumentation-overhead acceptance row.
#[test]
fn traced_query_path_is_allocation_free_after_warmup() {
    use ius_index::overlap::trace_stages;
    use ius_obs::{clock, trace};
    use ius_server::{
        FlightRecorder, FlightRing, RequestFacts, FLIGHT_RECENT_CAPACITY, FLIGHT_SLOW_CAPACITY,
        TRACE_NO_ERROR,
    };
    let _serial = serialize();
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    // The rings preallocate at construction, exactly like the server's
    // shared state; nothing below may touch the allocator again.
    let flight = FlightRecorder::new();
    clock::warm_up();
    assert!(clock::enabled(), "timing must be on for this test");

    // Mirrors one served request: arm the trace on sampled requests, wrap
    // the query in a STAGE_QUERY span with its stage leaves, then hand the
    // request to the flight recorder. Requests cycle through sampled,
    // unsampled and unsampled-slow.
    let run_one = |i: usize, pattern: &Vec<u8>, scratch: &mut QueryScratch| -> u64 {
        let (sampled, slow) = (i.is_multiple_of(3), i % 3 == 2);
        let start = clock::now_ns();
        let armed = sampled && trace::begin(trace::next_trace_id());
        assert_eq!(armed, sampled, "arming must follow the sampling decision");
        if armed {
            trace::leaf(trace::STAGE_QUEUE_WAIT, 120, 0, 0);
            trace::enter(trace::STAGE_QUERY);
        }
        let mut sink = CountSink::new();
        let stats = index.query_into(pattern, &x, scratch, &mut sink).unwrap();
        if armed {
            trace_stages(&stats);
            trace::exit_with(stats.candidates as u64, stats.reported as u64);
        }
        let elapsed = clock::now_ns().saturating_sub(start);
        let facts = RequestFacts::new(1, TRACE_NO_ERROR, start, elapsed)
            .with_query(pattern, stats.reported as u64);
        flight.record(&facts, slow);
        assert!(!trace::active(), "the record finished the trace");
        stats.reported as u64
    };

    // Warm-up pass.
    for (i, pattern) in patterns.iter().enumerate() {
        run_one(i, pattern, &mut scratch);
    }

    // Steady state: the whole traced request loop, zero heap traffic.
    let (reported, mem) = ius_memtrack::measure(|| {
        let mut reported = 0u64;
        for (i, pattern) in patterns.iter().enumerate() {
            reported += run_one(i, pattern, &mut scratch);
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
    // Both rings really absorbed the records: sampled ones with their span
    // tree and stage leaves, unsampled slow ones with none.
    let snapshot = flight.snapshot();
    let recent: Vec<_> = snapshot
        .iter()
        .filter(|r| r.ring == FlightRing::Recent)
        .collect();
    let slow: Vec<_> = snapshot
        .iter()
        .filter(|r| r.ring == FlightRing::Slow)
        .collect();
    // Two passes over the workload (warm-up and measured).
    let kept = |class: usize| 2 * (0..patterns.len()).filter(|i| i % 3 == class).count();
    assert_eq!(recent.len(), kept(0).min(FLIGHT_RECENT_CAPACITY));
    assert_eq!(slow.len(), kept(2).min(FLIGHT_SLOW_CAPACITY));
    assert!(recent
        .iter()
        .all(|r| r.spans.iter().any(|s| s.code == trace::STAGE_VERIFY)));
    assert!(slow.iter().all(|r| r.spans.is_empty()));
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

/// The grid's strategies past the narrow-side scan — the count and the
/// wavelet-matrix walk — allocate nothing: the count follows two
/// root-to-leaf paths and the walk recurses on the stack. Near-diagonal
/// points make the shapes below reach each strategy.
#[test]
fn grid_count_and_walk_are_allocation_free() {
    use ius::grid::{RangeReporter, Rect};
    let _serial = serialize();
    let n = 4096u32;
    let grid = RangeReporter::new((0..n).map(|x| x ^ 1).collect());
    let rects = [
        // A narrow x side: scanned without counting.
        Rect::new((100, 104), (0, n)),
        // 2048 points inside: counted, then scanned.
        Rect::new((0, n / 2), (0, n / 2)),
        // Three points in the corner of two wide sides: counted, then walked.
        Rect::new((0, n / 2), (n / 2 - 3, n)),
    ];
    let (counts, mem) = ius_memtrack::measure(|| {
        rects.map(|rect| {
            let mut reported = 0usize;
            grid.report_with(&rect, |_| reported += 1);
            (reported, grid.count(&rect))
        })
    });
    assert_eq!(mem.peak_bytes, 0, "grid report or count allocated");
    assert_eq!(counts, [(4, 4), (2048, 2048), (3, 3)]);
}
