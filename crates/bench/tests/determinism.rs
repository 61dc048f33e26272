//! Determinism suite for the shared-executor parallel path, the live index's
//! segment builds: at every thread count it must answer exactly like the
//! serial schedule, across all four preset benchmark corpora. (Index
//! construction itself, the z-estimation and the factor sorts, is serial.)
//!
//! Covered surfaces:
//!
//! * `LiveIndex::from_corpus` freezing a whole corpus into several
//!   segments built concurrently in one flush — size and query answers;
//! * `LiveIndex` ingesting with parallel segment builds and tiered
//!   compaction — query answers after every phase.

use ius_datasets::corpora::bench_corpora;
use ius_datasets::patterns::PatternSampler;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, UncertainIndex};
use ius_live::{LiveConfig, LiveIndex};
use ius_weighted::ZEstimation;

/// Thread counts every parallel path is swept over (1 = the inline/serial
/// schedule; 3 exercises uneven chunking; 8 oversubscribes small hosts).
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Corpus length: small enough for CI, large enough that every corpus
/// spans multiple live segments at 8 threads.
const N: usize = 2_500;

#[test]
fn sharded_index_matches_serial_at_every_thread_count() {
    for corpus in bench_corpora(N) {
        let x = &corpus.x;
        let params = IndexParams::new(corpus.z, corpus.ell, x.sigma()).expect("params");
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
        let max_pattern_len = 2 * corpus.ell;
        let patterns = sample_patterns(x, corpus.z, corpus.ell, 24);
        // A sharded index: one flush freezes the whole seed into 4
        // segments, built on the `threads`-wide executor.
        let seed = |threads: usize| {
            let config = LiveConfig {
                flush_threshold: N.div_ceil(4),
                auto_compact: false,
                threads,
                ..LiveConfig::default()
            };
            LiveIndex::from_corpus(x, spec, max_pattern_len, config).expect("seeded live index")
        };
        let serial = seed(1);
        assert_eq!(serial.num_segments(), 4, "{}", corpus.name);
        let expected: Vec<Vec<usize>> = patterns
            .iter()
            .map(|p| serial.query_owned(p).expect("serial query"))
            .collect();
        for &t in &THREADS[1..] {
            let parallel = seed(t);
            assert_eq!(
                parallel.size_bytes(),
                serial.size_bytes(),
                "{} t={t}: seeded live index size",
                corpus.name
            );
            for (i, pattern) in patterns.iter().enumerate() {
                assert_eq!(
                    parallel.query_owned(pattern).expect("parallel query"),
                    expected[i],
                    "{} t={t}: seeded live answer for pattern {i}",
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
