//! Determinism suite for the shared-executor parallel paths: at every
//! thread count the parallel construction pipeline must be **byte-identical**
//! to the serial one, across all four preset benchmark corpora.
//!
//! Covered surfaces (the z-estimation itself is serial and has no thread
//! knob, so it is compared against its reference formulation in the
//! `ius_weighted` unit tests instead):
//!
//! * the full minimizer construction pipeline, compared as **persisted
//!   IUSX bytes** (which serialize the `EncodedFactorSet` verbatim, so any
//!   divergence in the parallel factor sort shows up here);
//! * `ShardedIndex` built with a concurrent shard fan-out — size and
//!   query answers;
//! * `LiveIndex` ingesting with parallel segment builds and tiered
//!   compaction — query answers after every phase.

use ius_datasets::corpora::bench_corpora;
use ius_datasets::patterns::PatternSampler;
use ius_index::{
    save_index, IndexFamily, IndexParams, IndexSpec, IndexVariant, QueryScratch, ShardedIndex,
    UncertainIndex,
};
use ius_live::{LiveConfig, LiveIndex};
use ius_weighted::ZEstimation;

/// Thread counts every parallel path is swept over (1 = the inline/serial
/// schedule; 3 exercises uneven chunking; 8 oversubscribes small hosts).
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Corpus length: small enough for CI, large enough that every corpus
/// spans multiple sort chunks, shards and live segments at 8 threads.
const N: usize = 2_500;

#[test]
fn persisted_index_bytes_match_serial_at_every_thread_count() {
    for corpus in bench_corpora(N) {
        let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).expect("params");
        for variant in [IndexVariant::Array, IndexVariant::ArrayGrid] {
            let spec = IndexSpec::new(IndexFamily::Minimizer(variant), params);
            let serial = spec.build(&corpus.x).expect("serial build");
            let mut expected = Vec::new();
            save_index(&serial, &mut expected).expect("serialize serial");
            for &t in &THREADS {
                let parallel = spec
                    .with_threads(t)
                    .build(&corpus.x)
                    .expect("parallel build");
                let mut bytes = Vec::new();
                save_index(&parallel, &mut bytes).expect("serialize parallel");
                assert_eq!(
                    bytes, expected,
                    "{} {variant:?} t={t}: persisted IUSX bytes diverged",
                    corpus.name
                );
            }
        }
    }
}

#[test]
fn sharded_index_matches_serial_at_every_thread_count() {
    for corpus in bench_corpora(N) {
        let x = &corpus.x;
        let params = IndexParams::new(corpus.z, corpus.ell, x.sigma()).expect("params");
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
        let max_pattern_len = 2 * corpus.ell;
        let patterns = sample_patterns(x, corpus.z, corpus.ell, 24);
        let serial = ShardedIndex::build(x, spec, 4, max_pattern_len).expect("serial shards");
        let expected: Vec<Vec<usize>> =
            patterns.iter().map(|p| query_sharded(&serial, p)).collect();
        for &t in &THREADS {
            let parallel = ShardedIndex::build_with_threads(x, spec, 4, max_pattern_len, t)
                .expect("parallel shards");
            assert_eq!(
                parallel.size_bytes(),
                serial.size_bytes(),
                "{} t={t}: sharded size",
                corpus.name
            );
            for (i, pattern) in patterns.iter().enumerate() {
                assert_eq!(
                    query_sharded(&parallel, pattern),
                    expected[i],
                    "{} t={t}: sharded answer for pattern {i}",
                    corpus.name
                );
            }
        }
    }
}

#[test]
fn live_index_matches_serial_at_every_thread_count() {
    for corpus in bench_corpora(N) {
        let x = &corpus.x;
        let params = IndexParams::new(corpus.z, corpus.ell, x.sigma()).expect("params");
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
        let max_pattern_len = 2 * corpus.ell;
        let patterns = sample_patterns(x, corpus.z, corpus.ell, 24);
        let expected = live_answers(x, spec, max_pattern_len, &patterns, 1, corpus.name);
        for &t in &THREADS[1..] {
            let got = live_answers(x, spec, max_pattern_len, &patterns, t, corpus.name);
            assert_eq!(
                got, expected,
                "{} t={t}: live answers diverged from serial",
                corpus.name
            );
        }
    }
}

/// Ingests the corpus batch-by-batch into a `LiveIndex` whose segment
/// builds and compaction merges run on a `t`-thread executor, then
/// returns the collect-mode answers after the flush, after tiered
/// compaction to quiescence, and after a full merge (concatenated, so a
/// divergence in any phase fails the comparison).
fn live_answers(
    x: &ius_weighted::WeightedString,
    spec: IndexSpec,
    max_pattern_len: usize,
    patterns: &[Vec<u8>],
    threads: usize,
    name: &str,
) -> Vec<Vec<usize>> {
    let live = LiveIndex::new(
        x.alphabet().clone(),
        spec,
        max_pattern_len,
        LiveConfig {
            flush_threshold: (N / 8).max(2 * max_pattern_len),
            compact_fanout: 2,
            auto_compact: false,
            threads,
        },
    )
    .expect("live index");
    let mut offset = 0usize;
    while offset < x.len() {
        let end = (offset + 300).min(x.len());
        live.append(&x.substring(offset, end).expect("batch"))
            .expect("append");
        offset = end;
    }
    live.flush().expect("flush");
    let mut answers = Vec::with_capacity(patterns.len() * 3);
    let mut collect = |stage: &str| {
        for pattern in patterns {
            answers.push(
                live.query_owned(pattern)
                    .unwrap_or_else(|e| panic!("{name} {stage}: {e}")),
            );
        }
    };
    collect("post-flush");
    while live.compact_once().expect("tiered round") > 0 {}
    collect("post-compaction");
    live.compact_full().expect("full merge");
    collect("full-merge");
    answers
}

fn sample_patterns(
    x: &ius_weighted::WeightedString,
    z: f64,
    ell: usize,
    count: usize,
) -> Vec<Vec<u8>> {
    let est = ZEstimation::build(x, z).expect("estimation");
    let mut sampler = PatternSampler::new(&est, 0xD373);
    let mut patterns = sampler.sample_many(ell, count / 2);
    patterns.extend(sampler.sample_many(2 * ell, count - count / 2));
    assert!(!patterns.is_empty(), "no solid patterns sampled");
    patterns
}

fn query_sharded(index: &ShardedIndex, pattern: &[u8]) -> Vec<usize> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    index
        .query_owned_into(pattern, &mut scratch, &mut out)
        .expect("sharded query");
    out
}
