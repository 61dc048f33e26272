//! The dynamic-corpus benchmark behind `reproduce --bench-update` and
//! `BENCH_update.json`.
//!
//! For each of the four benchmark corpora the final weighted string is
//! streamed **batch by batch into a `LiveIndex`** (MWSA-G segments), the
//! way a serving deployment would ingest it, measuring:
//!
//! * **append throughput** — positions per second over the whole ingest,
//!   including every auto-flush segment build;
//! * **append→visible latency** — the wall time from initiating an append
//!   until a query returns over the new rows (appends are synchronous and
//!   the memtable serves immediately, so this is append + one query);
//! * **query latency vs segment count** — the same pattern set timed
//!   against the many-segment pre-compaction index, then again after
//!   tiered compaction rounds (run **under concurrent query load**, with
//!   every answer still asserted identical), then after a full merge;
//! * **correctness** — every pattern is answered in all three result
//!   modes (collect / count / first-k) and asserted **byte-identical** to
//!   a from-scratch rebuild of the final corpus before any timing is
//!   trusted.
//!
//! The rebuilt single index is also timed as the static baseline, so the
//! cost of dynamism (segment fan-out) can be read directly.

use crate::report::percentile;
use ius_datasets::corpora::bench_corpora;
use ius_datasets::patterns::PatternSampler;
use ius_index::{
    AnyIndex, CountSink, FirstKSink, IndexFamily, IndexParams, IndexSpec, IndexVariant,
    QueryScratch, UncertainIndex,
};
use ius_live::{LiveConfig, LiveIndex};
use ius_weighted::{WeightedString, ZEstimation};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Parameters of one update-benchmark run.
#[derive(Debug, Clone)]
pub struct UpdateBenchConfig {
    /// Final length of the generated weighted strings.
    pub n: usize,
    /// Timed sweeps per query measurement (the minimum total is kept).
    pub reps: usize,
    /// Query patterns sampled per dataset (half at ℓ, half at 2ℓ).
    pub patterns: usize,
    /// Rows per append batch during the ingest phase.
    pub batch: usize,
    /// Memtable rows per flushed segment; 0 derives `max(n/16, 2·ℓ·2)`
    /// so every corpus ends the ingest with a two-digit segment count.
    pub flush_threshold: usize,
    /// Concurrent query threads hammering the index while the compaction
    /// rounds run.
    pub load_threads: usize,
    /// Segment-build executor widths swept after the main phases: the
    /// whole ingest + tiered compaction is repeated at each count and
    /// asserted answer-identical to the rebuilt index (0 = all CPUs).
    pub threads: Vec<usize>,
}

impl Default for UpdateBenchConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            reps: 3,
            patterns: 200,
            batch: 2_000,
            flush_threshold: 0,
            load_threads: 2,
            threads: crate::report::default_thread_sweep(),
        }
    }
}

/// One timed query measurement: average per-pattern latency over the best
/// sweep, at a given segment count.
#[derive(Debug, Clone)]
pub struct QueryPhase {
    /// Segments serving when the measurement ran.
    pub segments: usize,
    /// Average collect-mode latency per pattern, microseconds (best of
    /// `reps` sweeps).
    pub avg_query_us: f64,
}

/// One point of the multi-core sweep: the full ingest and the tiered
/// compaction rounds repeated with the segment-build executor at a given
/// width, every answer asserted identical to the rebuilt index.
#[derive(Debug, Clone)]
pub struct UpdateThreadPoint {
    /// Executor width the `LiveIndex` was configured with.
    pub threads: usize,
    /// Wall time of the batch-by-batch ingest (including flushes), s.
    pub ingest_s: f64,
    /// Wall time of the tiered compaction rounds to quiescence, s.
    pub compact_s: f64,
}

/// The compaction-under-load stage.
#[derive(Debug, Clone)]
pub struct CompactionPhase {
    /// Tiered merges performed (≥ 1 by construction of the thresholds).
    pub merges: usize,
    /// Wall time of the rounds, seconds.
    pub duration_s: f64,
    /// Queries answered by the load threads while the merges ran (every
    /// answer asserted identical to the rebuild).
    pub concurrent_queries: usize,
}

/// All measurements of one dataset.
#[derive(Debug, Clone)]
pub struct UpdateDatasetBench {
    /// Dataset label (`uniform`, `pangenome`, …).
    pub name: String,
    /// Human-readable generator parameters.
    pub params: String,
    /// Weight threshold z.
    pub z: f64,
    /// Minimum pattern length ℓ.
    pub ell: usize,
    /// Occurrences over the pattern set (identical on every path).
    pub occurrences: usize,
    /// Positions ingested.
    pub appended: usize,
    /// Append batches.
    pub batches: usize,
    /// Segment flushes during the ingest (auto, threshold-triggered).
    pub flushes: u64,
    /// Ingest throughput, positions per second (includes segment builds).
    pub append_throughput_pos_s: f64,
    /// Median append→visible latency over the sampled batches, µs.
    pub visible_p50_us: f64,
    /// Wall time of the from-scratch rebuild of the final corpus, seconds
    /// (the static alternative to the whole ingest).
    pub rebuild_s: f64,
    /// Static-baseline average query latency (the rebuilt single index).
    pub rebuilt_avg_query_us: f64,
    /// Live query latency before any compaction.
    pub pre_compaction: QueryPhase,
    /// The tiered compaction rounds under concurrent query load.
    pub compaction: CompactionPhase,
    /// Live query latency after the tiered rounds.
    pub post_compaction: QueryPhase,
    /// Live query latency after a full merge into one segment.
    pub full_merge: QueryPhase,
    /// `pre_compaction.avg_query_us / post_compaction.avg_query_us`.
    pub compaction_speedup: f64,
    /// Ingest + compaction repeated at each configured executor width.
    pub thread_sweep: Vec<UpdateThreadPoint>,
}

/// Asserts that the live index answers **byte-identically** to the
/// rebuilt single index in all three result modes, for every pattern.
fn assert_identical(
    live: &LiveIndex,
    rebuilt: &AnyIndex,
    x: &WeightedString,
    patterns: &[Vec<u8>],
    expected: &[Vec<usize>],
    stage: &str,
) {
    let mut scratch = QueryScratch::new();
    for (i, pattern) in patterns.iter().enumerate() {
        let got = live.query_owned(pattern).expect("live collect");
        assert_eq!(
            got, expected[i],
            "{stage}: live collect differs from the rebuilt index (pattern {i})"
        );
        let mut count = CountSink::new();
        live.query_owned_into(pattern, &mut scratch, &mut count)
            .expect("live count");
        assert_eq!(
            count.count,
            expected[i].len(),
            "{stage}: count mode (pattern {i})"
        );
        let mut first = FirstKSink::new(3);
        live.query_owned_into(pattern, &mut scratch, &mut first)
            .expect("live first-k");
        let mut rebuilt_first = FirstKSink::new(3);
        rebuilt
            .query_into(pattern, x, &mut scratch, &mut rebuilt_first)
            .expect("rebuilt first-k");
        assert_eq!(
            first.positions, rebuilt_first.positions,
            "{stage}: first-k mode (pattern {i})"
        );
    }
}

/// Times one collect sweep over the pattern set (reusing one scratch and
/// output vector), returning total seconds.
fn time_live_sweep(live: &LiveIndex, patterns: &[Vec<u8>]) -> f64 {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let start = Instant::now();
    for pattern in patterns {
        out.clear();
        live.query_owned_into(pattern, &mut scratch, &mut out)
            .expect("timed live query");
    }
    start.elapsed().as_secs_f64()
}

fn time_rebuilt_sweep(index: &AnyIndex, x: &WeightedString, patterns: &[Vec<u8>]) -> f64 {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let start = Instant::now();
    for pattern in patterns {
        out.clear();
        index
            .query_into(pattern, x, &mut scratch, &mut out)
            .expect("timed rebuilt query");
    }
    start.elapsed().as_secs_f64()
}

fn query_phase(live: &LiveIndex, patterns: &[Vec<u8>], reps: usize) -> QueryPhase {
    let best = (0..reps.max(1))
        .map(|_| time_live_sweep(live, patterns))
        .fold(f64::INFINITY, f64::min);
    QueryPhase {
        segments: live.num_segments(),
        avg_query_us: best * 1e6 / patterns.len() as f64,
    }
}

fn bench_dataset(
    name: &str,
    params_label: String,
    x: &WeightedString,
    z: f64,
    ell: usize,
    config: &UpdateBenchConfig,
) -> UpdateDatasetBench {
    let max_pattern_len = 2 * ell;
    let flush_threshold = if config.flush_threshold > 0 {
        config.flush_threshold
    } else {
        (config.n / 16).max(2 * max_pattern_len)
    };
    eprintln!(
        "[bench-update] {name} (n = {}, z = {z}, ell = {ell}, batch = {}, flush = {flush_threshold})",
        x.len(),
        config.batch
    );
    let index_params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let spec = IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        index_params,
    );

    // The static alternative: rebuild the final corpus from scratch.
    let rebuild_start = Instant::now();
    let rebuilt = spec.build(x).expect("rebuild final corpus");
    let rebuild_s = rebuild_start.elapsed().as_secs_f64();

    // The pattern workload and its ground truth through the same engine
    // entry point the live index uses per segment.
    let est = ZEstimation::build(x, z).expect("estimation");
    let mut sampler = PatternSampler::new(&est, 0x11FE);
    let mut patterns = sampler.sample_many(ell, config.patterns / 2);
    patterns.extend(sampler.sample_many(max_pattern_len, config.patterns - config.patterns / 2));
    assert!(!patterns.is_empty(), "{name}: no solid patterns");
    let mut scratch = QueryScratch::new();
    let expected: Vec<Vec<usize>> = patterns
        .iter()
        .map(|pattern| {
            let mut out = Vec::new();
            rebuilt
                .query_into(pattern, x, &mut scratch, &mut out)
                .expect("rebuilt collect");
            out
        })
        .collect();
    let occurrences: usize = expected.iter().map(Vec::len).sum();

    // Ingest: stream the corpus into the live index batch by batch.
    // Auto-compaction stays off so the pre-compaction phase is measured
    // at an uncompacted segment count; the compaction phase below runs
    // the tiered rounds explicitly (under query load).
    let live = LiveIndex::new(
        x.alphabet().clone(),
        spec,
        max_pattern_len,
        LiveConfig {
            flush_threshold,
            compact_fanout: 4,
            auto_compact: false,
            threads: 0,
        },
    )
    .expect("live index");
    let mut visible_us: Vec<f64> = Vec::new();
    let mut batches = 0usize;
    let probe = &patterns[0];
    let append_start = Instant::now();
    let mut offset = 0usize;
    while offset < x.len() {
        let end = (offset + config.batch).min(x.len());
        let batch = x.substring(offset, end).expect("batch");
        let visible_start = Instant::now();
        live.append(&batch).expect("append");
        // Visibility is synchronous: the memtable serves the new rows to
        // the very next query. Sample the (append + probe query) wall
        // time on every 4th batch.
        if batches.is_multiple_of(4) && end >= probe.len() {
            live.query_owned(probe).expect("probe query");
            visible_us.push(visible_start.elapsed().as_secs_f64() * 1e6);
        }
        offset = end;
        batches += 1;
    }
    live.flush().expect("final flush");
    let append_s = append_start.elapsed().as_secs_f64();
    visible_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let stats = live.live_stats();
    assert_eq!(stats.corpus_len, x.len());

    // Phase 1: many segments. Correctness first, timing second.
    assert_identical(&live, &rebuilt, x, &patterns, &expected, "pre-compaction");
    let pre = query_phase(&live, &patterns, config.reps);
    let rebuilt_best = (0..config.reps.max(1))
        .map(|_| time_rebuilt_sweep(&rebuilt, x, &patterns))
        .fold(f64::INFINITY, f64::min);
    eprintln!(
        "  ingest {:.2} s ({:.0} pos/s, {} segments), queries {:.1} us/pattern (rebuilt {:.1} us)",
        append_s,
        x.len() as f64 / append_s,
        pre.segments,
        pre.avg_query_us,
        rebuilt_best * 1e6 / patterns.len() as f64
    );

    // Phase 2: tiered compaction under concurrent query load; every
    // answer issued during the merges must stay identical.
    let stop = AtomicBool::new(false);
    let concurrent = AtomicUsize::new(0);
    let mut merges = 0usize;
    let mut duration_s = 0.0f64;
    std::thread::scope(|scope| {
        for t in 0..config.load_threads.max(1) {
            let live = &live;
            let patterns = &patterns;
            let expected = &expected;
            let stop = &stop;
            let concurrent = &concurrent;
            scope.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let pattern = &patterns[i % patterns.len()];
                    let got = live.query_owned(pattern).expect("query under compaction");
                    assert_eq!(
                        got,
                        expected[i % patterns.len()],
                        "answer changed under compaction"
                    );
                    concurrent.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        let start = Instant::now();
        loop {
            let merged = live.compact_once().expect("tiered round");
            if merged == 0 {
                break;
            }
            merges += merged;
        }
        duration_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        merges >= 1,
        "{name}: the tiered policy must trigger at least once (fanout 4, {} segments)",
        pre.segments
    );
    assert_identical(&live, &rebuilt, x, &patterns, &expected, "post-compaction");
    let post = query_phase(&live, &patterns, config.reps);

    // Phase 3: full merge into one segment (the fully-compacted floor).
    live.compact_full().expect("full merge");
    assert_identical(&live, &rebuilt, x, &patterns, &expected, "full-merge");
    let full = query_phase(&live, &patterns, config.reps);

    // Multi-core sweep: repeat the whole ingest and the tiered rounds
    // with the segment-build executor at each configured width, and
    // assert the answers stay identical to the rebuilt index every time.
    let mut thread_sweep = Vec::with_capacity(config.threads.len());
    for &t in &config.threads {
        let sweep_live = LiveIndex::new(
            x.alphabet().clone(),
            spec,
            max_pattern_len,
            LiveConfig {
                flush_threshold,
                compact_fanout: 4,
                auto_compact: false,
                threads: t,
            },
        )
        .expect("sweep live index");
        let ingest_start = Instant::now();
        let mut offset = 0usize;
        while offset < x.len() {
            let end = (offset + config.batch).min(x.len());
            sweep_live
                .append(&x.substring(offset, end).expect("sweep batch"))
                .expect("sweep append");
            offset = end;
        }
        sweep_live.flush().expect("sweep flush");
        let ingest_s = ingest_start.elapsed().as_secs_f64();
        let compact_start = Instant::now();
        while sweep_live.compact_once().expect("sweep tiered round") > 0 {}
        let compact_s = compact_start.elapsed().as_secs_f64();
        assert_identical(
            &sweep_live,
            &rebuilt,
            x,
            &patterns,
            &expected,
            "thread-sweep",
        );
        thread_sweep.push(UpdateThreadPoint {
            threads: t,
            ingest_s,
            compact_s,
        });
    }
    eprintln!(
        "  sweep [{}]",
        thread_sweep
            .iter()
            .map(|p| format!(
                "t={}: ingest {:.2} s, compact {:.2} s",
                p.threads, p.ingest_s, p.compact_s
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
    eprintln!(
        "  compaction: {merges} merges in {duration_s:.2} s under {} concurrent queries; \
         {} -> {} -> {} segments, {:.1} -> {:.1} -> {:.1} us/pattern",
        concurrent.load(Ordering::Relaxed),
        pre.segments,
        post.segments,
        full.segments,
        pre.avg_query_us,
        post.avg_query_us,
        full.avg_query_us
    );

    UpdateDatasetBench {
        name: name.to_string(),
        params: params_label,
        z,
        ell,
        occurrences,
        appended: x.len(),
        batches,
        flushes: stats.flushes,
        append_throughput_pos_s: x.len() as f64 / append_s,
        visible_p50_us: percentile(&visible_us, 0.50),
        rebuild_s,
        rebuilt_avg_query_us: rebuilt_best * 1e6 / patterns.len() as f64,
        pre_compaction: pre,
        compaction: CompactionPhase {
            merges,
            duration_s,
            concurrent_queries: concurrent.load(Ordering::Relaxed),
        },
        post_compaction: post,
        full_merge: full,
        compaction_speedup: 0.0, // filled below
        thread_sweep,
    }
    .with_speedup()
}

impl UpdateDatasetBench {
    fn with_speedup(mut self) -> Self {
        self.compaction_speedup =
            self.pre_compaction.avg_query_us / self.post_compaction.avg_query_us;
        self
    }
}

/// Runs the update benchmark on the four corpora.
pub fn run_update_bench(config: &UpdateBenchConfig) -> Vec<UpdateDatasetBench> {
    bench_corpora(config.n)
        .into_iter()
        .map(|corpus| {
            bench_dataset(
                corpus.name,
                corpus.params,
                &corpus.x,
                corpus.z,
                corpus.ell,
                config,
            )
        })
        .collect()
}

/// Renders the benchmark results as the `BENCH_update.json` document.
pub fn render_update_json(config: &UpdateBenchConfig, results: &[UpdateDatasetBench]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"n\": {}, \"patterns_per_dataset\": {}, \"reps\": {}, \"append_batch\": {}, \
         \"family\": \"MWSA-G segments\", {},\n",
        config.n,
        config.patterns,
        config.reps,
        config.batch,
        crate::report::json_host_fields(&config.threads)
    ));
    out.push_str(
        "  \"note\": \"Each dataset's final corpus is streamed batch-by-batch into a \
         LiveIndex (immutable MWSA-G segments + naive-scanned memtable tail, overlap \
         max_pattern_len-1, tiered compaction fanout 4). Before any timing is trusted the \
         live answers are asserted byte-identical to a from-scratch rebuild of the final \
         corpus in all three result modes (collect/count/first-3) — and again after the \
         tiered compaction rounds, which run under load_threads concurrent query threads \
         whose every answer is also asserted, and once more after a full merge. \
         append_throughput includes every threshold-triggered segment build; visible_p50_us \
         is the median (append + immediate probe query) wall time, appends being \
         synchronously visible. avg_query_us is the best-of-reps sweep average in collect \
         mode; rebuilt_avg_query_us is the same sweep on the static rebuilt index \
         (the fan-out cost floor). thread_sweep repeats the whole ingest and the tiered \
         rounds with the segment-build executor at each width in threads (0 = all CPUs), \
         asserting the answers identical to the rebuilt index at every point.\",\n",
    );
    out.push_str("  \"datasets\": [\n");
    for (i, d) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", d.name));
        out.push_str(&format!("      \"params\": \"{}\",\n", d.params));
        out.push_str(&format!(
            "      \"z\": {}, \"ell\": {}, \"occurrences\": {},\n",
            d.z, d.ell, d.occurrences
        ));
        out.push_str(&format!(
            "      \"append\": {{ \"positions\": {}, \"batches\": {}, \"flushes\": {}, \
             \"throughput_pos_per_s\": {:.0}, \"visible_p50_us\": {:.1}, \
             \"rebuild_from_scratch_s\": {:.3} }},\n",
            d.appended,
            d.batches,
            d.flushes,
            d.append_throughput_pos_s,
            d.visible_p50_us,
            d.rebuild_s
        ));
        out.push_str(&format!(
            "      \"pre_compaction\": {{ \"segments\": {}, \"avg_query_us\": {:.1} }},\n",
            d.pre_compaction.segments, d.pre_compaction.avg_query_us
        ));
        out.push_str(&format!(
            "      \"compaction\": {{ \"merges\": {}, \"duration_s\": {:.3}, \
             \"concurrent_queries\": {}, \"outputs_identical\": true }},\n",
            d.compaction.merges, d.compaction.duration_s, d.compaction.concurrent_queries
        ));
        out.push_str(&format!(
            "      \"post_compaction\": {{ \"segments\": {}, \"avg_query_us\": {:.1}, \
             \"speedup_vs_pre\": {:.2} }},\n",
            d.post_compaction.segments, d.post_compaction.avg_query_us, d.compaction_speedup
        ));
        out.push_str(&format!(
            "      \"full_merge\": {{ \"segments\": {}, \"avg_query_us\": {:.1} }},\n",
            d.full_merge.segments, d.full_merge.avg_query_us
        ));
        out.push_str(&format!(
            "      \"rebuilt_single_index_avg_query_us\": {:.1},\n",
            d.rebuilt_avg_query_us
        ));
        let sweep: Vec<String> = d
            .thread_sweep
            .iter()
            .map(|p| {
                format!(
                    "{{ \"threads\": {}, \"ingest_s\": {:.3}, \"compact_s\": {:.3} }}",
                    p.threads, p.ingest_s, p.compact_s
                )
            })
            .collect();
        out.push_str(&format!(
            "      \"thread_sweep\": [{}],\n",
            sweep.join(", ")
        ));
        out.push_str("      \"outputs_identical\": true\n");
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_updates_all_corpora_and_renders_json() {
        // Tiny end-to-end run; the identity assertions inside
        // bench_dataset (pre/during/post compaction, all three result
        // modes) are the test.
        let config = UpdateBenchConfig {
            n: 3_000,
            reps: 1,
            patterns: 8,
            batch: 300,
            flush_threshold: 0,
            load_threads: 2,
            threads: vec![1, 2],
        };
        let results = run_update_bench(&config);
        assert_eq!(results.len(), 4);
        let json = render_update_json(&config, &results);
        assert!(json.contains("\"host_cpus\":"));
        assert!(json.contains("\"threads\": [1, 2]"));
        for d in &results {
            assert_eq!(d.thread_sweep.len(), 2);
            assert!(d.thread_sweep.iter().all(|p| p.ingest_s > 0.0));
            assert!(json.contains(&format!("\"name\": \"{}\"", d.name)));
            assert!(d.append_throughput_pos_s > 0.0);
            assert!(d.flushes >= 1);
            assert!(d.pre_compaction.segments > d.post_compaction.segments);
            assert!(d.compaction.merges >= 1);
            assert!(d.compaction.concurrent_queries > 0);
            assert_eq!(d.full_merge.segments, 1);
            assert!(d.visible_p50_us > 0.0);
        }
    }
}
