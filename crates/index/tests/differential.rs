//! The shared differential harness: every index family must return exactly
//! the naive oracle's answers through **every** query entry point — the
//! classic `query()` and the sink-based `query_into` (collect and count
//! sinks) — on shared uniform, pangenome and rssi-like corpora. This replaces the per-file
//! `check_against_naive` helpers that used to be copy-pasted across
//! `minimizer_index.rs`, `wsa.rs`, `wst.rs` and `space_efficient.rs`.
//!
//! The harness also covers the **partitioned** side, `ius_live::LiveIndex`
//! (dev-dependency back-edge): seeded from a whole corpus in four segments
//! for every family, and after interleaved append / delete / flush /
//! compact sequences — scripted and proptest-driven — checked against
//! NAIVE over the materialized final corpus, with the documented tombstone
//! semantics (an occurrence survives iff its window intersects no deleted
//! range) applied to the reference.

use ius_datasets::pangenome::PangenomeConfig;
use ius_datasets::patterns::PatternSampler;
use ius_datasets::rssi::rssi_like;
use ius_datasets::uniform::UniformConfig;
use ius_index::{
    load_index, AnyIndex, CountSink, IndexFamily, IndexParams, IndexSpec, IndexVariant, NaiveIndex,
    QueryScratch, UncertainIndex,
};
use ius_sampling::KmerOrder;
use ius_weighted::{Error, HeavyString, WeightedString, ZEstimation};

/// One corpus of the harness: a weighted string with its parameters and a
/// mixed pattern workload (sampled at ℓ and 2ℓ, plus random negatives and
/// short patterns that only the baselines accept).
struct Corpus {
    label: &'static str,
    x: WeightedString,
    z: f64,
    ell: usize,
    patterns: Vec<Vec<u8>>,
}

fn corpora() -> Vec<Corpus> {
    let mut out = Vec::new();
    {
        let x = UniformConfig {
            n: 300,
            sigma: 2,
            spread: 0.5,
            seed: 41,
        }
        .generate();
        let (z, ell) = (8.0, 8usize);
        let est = ZEstimation::build(&x, z).unwrap();
        let mut sampler = PatternSampler::new(&est, 11);
        let mut patterns = sampler.sample_many(ell, 25);
        patterns.extend(sampler.sample_many(2 * ell, 15));
        patterns.extend(sampler.sample_random(ell, 15, 2));
        patterns.extend(sampler.sample_many(3, 10)); // baselines only
        out.push(Corpus {
            label: "uniform",
            x,
            z,
            ell,
            patterns,
        });
    }
    {
        let x = PangenomeConfig {
            n: 1_500,
            delta: 0.08,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let (z, ell) = (16.0, 32usize);
        let est = ZEstimation::build(&x, z).unwrap();
        let mut sampler = PatternSampler::new(&est, 3);
        let mut patterns = sampler.sample_many(ell, 20);
        patterns.extend(sampler.sample_many(2 * ell, 15));
        patterns.extend(sampler.sample_random(ell, 8, 4));
        patterns.extend(sampler.sample_many(5, 8)); // baselines only
        out.push(Corpus {
            label: "pangenome",
            x,
            z,
            ell,
            patterns,
        });
    }
    {
        // The rssi preset's regime: σ = 91, every position uncertain, many
        // short solid factors — the only corpus here whose backward SE pass
        // keys k-mers over a large alphabet. n stays small: every family
        // is built several times per test, unoptimised in a debug run.
        let x = rssi_like(1_000, 0x0551);
        let (z, ell) = (64.0, 8usize);
        let est = ZEstimation::build(&x, z).unwrap();
        let mut sampler = PatternSampler::new(&est, 7);
        let mut patterns = sampler.sample_many(ell, 25);
        patterns.extend(sampler.sample_many(2 * ell, 10));
        patterns.extend(sampler.sample_random(ell, 10, x.sigma()));
        patterns.extend(sampler.sample_many(4, 8)); // baselines only
        out.push(Corpus {
            label: "rssi_like",
            x,
            z,
            ell,
            patterns,
        });
    }
    out
}

/// The families the harness exercises (everything buildable except the
/// NAIVE oracle itself, which is the reference side).
fn harness_families() -> Vec<IndexFamily> {
    IndexFamily::all()
        .into_iter()
        .filter(|family| !matches!(family, IndexFamily::Naive))
        .collect()
}

/// Builds every index family over one corpus through the unified builder
/// layer (no per-family match arms — see `ius_index::builder`).
fn build_families(corpus: &Corpus) -> Vec<(String, AnyIndex)> {
    let est = ZEstimation::build(&corpus.x, corpus.z).unwrap();
    let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).unwrap();
    harness_families()
        .into_iter()
        .map(|family| {
            let spec = IndexSpec::new(family, params);
            (
                family.name().to_string(),
                spec.build_with_estimation(&corpus.x, &est).unwrap(),
            )
        })
        .collect()
}

/// `true` iff this family enforces the minimum pattern length ℓ.
fn has_length_bound(label: &str) -> bool {
    !matches!(label, "WST" | "WSA")
}

#[test]
fn every_family_agrees_with_naive_through_every_entry_point() {
    for corpus in corpora() {
        let naive = NaiveIndex::new(corpus.z).unwrap();
        let expected: Vec<Vec<usize>> = corpus
            .patterns
            .iter()
            .map(|p| naive.query(p, &corpus.x).unwrap())
            .collect();
        for (label, index) in build_families(&corpus) {
            let mut scratch = QueryScratch::new();
            let mut admissible = 0usize;
            for (pattern, expect) in corpus.patterns.iter().zip(&expected) {
                if has_length_bound(&label) && pattern.len() < corpus.ell {
                    // Short patterns must fail with the documented error.
                    assert!(
                        matches!(
                            index.query(pattern, &corpus.x),
                            Err(Error::PatternTooShort { .. })
                        ),
                        "{} on {}: short pattern must be rejected",
                        label,
                        corpus.label
                    );
                    continue;
                }
                admissible += 1;
                // Classic single-shot query.
                assert_eq!(
                    &index.query(pattern, &corpus.x).unwrap(),
                    expect,
                    "{} on {}: query()",
                    label,
                    corpus.label
                );
                // Sink-based engine with a reused scratch.
                let mut positions = Vec::new();
                let stats = index
                    .query_into(pattern, &corpus.x, &mut scratch, &mut positions)
                    .unwrap();
                assert_eq!(
                    &positions, expect,
                    "{} on {}: query_into",
                    label, corpus.label
                );
                assert_eq!(stats.reported, expect.len());
                assert!(stats.candidates >= stats.verified);
                assert!(stats.verified >= stats.reported);
                // Count-only sink sees the same cardinality.
                let mut count = CountSink::new();
                index
                    .query_into(pattern, &corpus.x, &mut scratch, &mut count)
                    .unwrap();
                assert_eq!(count.count, expect.len());
            }
            assert!(
                admissible > 0,
                "{} on {}: no admissible patterns",
                label,
                corpus.label
            );
        }
    }
}

#[test]
fn every_family_loaded_from_disk_agrees_with_naive() {
    // The persistence half of the harness: every family is saved, reloaded
    // and the *loaded* index is run against the oracle on every corpus.
    for corpus in corpora() {
        let naive = NaiveIndex::new(corpus.z).unwrap();
        for (label, index) in build_families(&corpus) {
            let mut bytes = Vec::new();
            index.save_to(&mut bytes).unwrap();
            let loaded = load_index(&mut bytes.as_slice()).unwrap();
            let mut scratch = QueryScratch::new();
            let mut checked = 0usize;
            for pattern in &corpus.patterns {
                if has_length_bound(&label) && pattern.len() < corpus.ell {
                    continue;
                }
                let expected = naive.query(pattern, &corpus.x).unwrap();
                let mut positions = Vec::new();
                loaded
                    .query_into(pattern, &corpus.x, &mut scratch, &mut positions)
                    .unwrap();
                assert_eq!(
                    positions, expected,
                    "{} on {}: loaded-from-disk index disagrees with NAIVE",
                    label, corpus.label
                );
                checked += 1;
            }
            assert!(checked > 0, "{label}: no patterns checked");
        }
    }
}

// ---------------------------------------------------------------------
// Live (partitioned) differentials
// ---------------------------------------------------------------------

use ius_live::{LiveConfig, LiveIndex};
use proptest::prelude::*;

#[test]
fn sharded_indexes_agree_with_their_unsharded_family_and_naive() {
    // A sharded index is a `LiveIndex` seeded by `from_corpus` in
    // ⌈n/4⌉-row segments and never mutated: 4 segments plus the
    // `overlap`-row memtable tail, for every family on every corpus,
    // answering exactly like the unsharded index of its family and like
    // NAIVE over the whole corpus. Patterns below the family's ℓ or above
    // the configured maximum are refused by the length contract.
    for corpus in corpora() {
        let naive = NaiveIndex::new(corpus.z).unwrap();
        let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).unwrap();
        let n = corpus.x.len();
        let max_len = 3 * corpus.ell;
        for family in harness_families() {
            let label = format!("{} on {}", family.name(), corpus.label);
            let spec = IndexSpec::new(family, params);
            let unsharded = spec.build(&corpus.x).unwrap();
            let config = LiveConfig {
                flush_threshold: n.div_ceil(4),
                auto_compact: false,
                ..LiveConfig::default()
            };
            let live = LiveIndex::from_corpus(&corpus.x, spec, max_len, config).unwrap();
            assert_eq!(live.len(), n, "{label}");
            assert_eq!(live.num_segments(), 4, "{label}: segment count");
            assert_eq!(live.live_stats().memtable_rows, max_len - 1, "{label}");
            assert_eq!(
                live.stats().name,
                format!("LIVE-{}(S=4)", family.name()),
                "{label}"
            );
            let mut scratch = QueryScratch::new();
            let mut checked = 0usize;
            for pattern in &corpus.patterns {
                if pattern.len() < spec.lower_bound() || pattern.len() > max_len {
                    assert!(
                        live.query(pattern, &corpus.x).is_err(),
                        "{label}: length contract"
                    );
                    continue;
                }
                let expected = naive.query(pattern, &corpus.x).unwrap();
                let mut positions = Vec::new();
                let stats = live
                    .query_into(pattern, &corpus.x, &mut scratch, &mut positions)
                    .unwrap();
                assert_eq!(
                    positions, expected,
                    "{label}: sharded (S=4) live index disagrees with NAIVE"
                );
                assert_eq!(unsharded.query(pattern, &corpus.x).unwrap(), expected);
                assert_eq!(stats.reported, expected.len(), "{label}");
                assert!(stats.candidates >= stats.verified, "{label}");
                checked += 1;
            }
            assert!(checked > 0, "{label}: no patterns checked");
        }
    }
}

#[test]
fn sharded_live_index_answers_windows_across_every_boundary() {
    // A tiny binary corpus whose heavy letter (probability 0.9) alternates
    // in runs, cut into segments no longer than the longest pattern: every
    // heavy substring of length 1..=12 is solid (0.9^12 > 1/6) and occurs
    // at nearly every start, so windows cross every segment boundary —
    // including the longest window starting on a segment's last home
    // position — and end in the memtable tail. Answers must match a direct
    // NAIVE scan.
    let n = 64usize;
    let heavy: Vec<u8> = (0..n).map(|i| u8::from((i / 5) % 3 == 2)).collect();
    let rows: Vec<Vec<f64>> = heavy
        .iter()
        .map(|&h| {
            if h == 0 {
                vec![0.9, 0.1]
            } else {
                vec![0.1, 0.9]
            }
        })
        .collect();
    let x = WeightedString::from_rows(ius_weighted::Alphabet::integer(2).unwrap(), &rows).unwrap();
    let z = 6.0;
    let max_len = 12;
    let patterns: std::collections::BTreeSet<Vec<u8>> = (1..=max_len)
        .flat_map(|len| heavy.windows(len).map(<[u8]>::to_vec).collect::<Vec<_>>())
        .collect();
    let direct = NaiveIndex::new(z).unwrap();
    let params = IndexParams::new(z, 1, x.sigma()).unwrap();
    for family in [IndexFamily::Naive, IndexFamily::Wst, IndexFamily::Wsa] {
        let spec = IndexSpec::new(family, params);
        for threshold in [max_len, 20, 64] {
            let config = LiveConfig {
                flush_threshold: threshold,
                auto_compact: false,
                ..LiveConfig::default()
            };
            let live = LiveIndex::from_corpus(&x, spec, max_len, config).unwrap();
            assert_eq!(
                live.num_segments(),
                (x.len() - (max_len - 1)).div_ceil(threshold)
            );
            for pattern in &patterns {
                let expected = direct.query(pattern, &x).unwrap();
                assert!(!expected.is_empty(), "heavy substrings are solid");
                assert_eq!(
                    live.query_owned(pattern).unwrap(),
                    expected,
                    "{} threshold {threshold}: pattern {pattern:?}",
                    family.name()
                );
            }
            // The length contract, with typed errors.
            assert!(matches!(
                live.query_owned(&[]),
                Err(Error::EmptyInput("pattern"))
            ));
            assert!(matches!(
                live.query_owned(&[0u8; 13]),
                Err(Error::PatternTooLong {
                    pattern: 13,
                    upper_bound: 12
                })
            ));
        }
    }
}

fn live_config(flush_threshold: usize) -> LiveConfig {
    LiveConfig {
        flush_threshold,
        compact_fanout: 3,
        auto_compact: false,
        threads: 2,
    }
}

/// The documented live-query semantics, applied to the oracle: NAIVE
/// occurrences over the materialized corpus, minus every start whose
/// window `[p, p + m)` intersects a tombstoned range.
fn live_reference(
    x: &WeightedString,
    tombstones: &[(usize, usize)],
    pattern: &[u8],
    z: f64,
) -> Vec<usize> {
    let naive = NaiveIndex::new(z).unwrap();
    let mut positions = naive.query(pattern, x).unwrap();
    positions.retain(|&p| {
        tombstones
            .iter()
            .all(|&(s, e)| p + pattern.len() <= s || p >= e)
    });
    positions
}

/// Checks the live index against the oracle over its own materialized
/// corpus for every admissible pattern of the workload.
fn check_live(live: &LiveIndex, patterns: &[Vec<u8>], label: &str) {
    let x = live.materialize().expect("non-empty live corpus");
    let tombstones = live.tombstones();
    let z = live.spec().params.z;
    let mut checked = 0usize;
    for pattern in patterns {
        if pattern.len() < live.spec().lower_bound() || pattern.len() > live.max_pattern_len() {
            assert!(
                live.query_owned(pattern).is_err(),
                "{label}: length contract"
            );
            continue;
        }
        assert_eq!(
            live.query_owned(pattern).unwrap(),
            live_reference(&x, &tombstones, pattern, z),
            "{label}: live disagrees with NAIVE over the materialized corpus"
        );
        checked += 1;
    }
    assert!(checked > 0, "{label}: no patterns checked");
}

#[test]
fn live_indexes_agree_with_naive_after_scripted_mutations() {
    // A fixed interleaving of every mutation kind, across three families,
    // on every harness corpus; answers checked after every step.
    for corpus in corpora() {
        let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).unwrap();
        for family in [
            IndexFamily::Minimizer(ius_index::IndexVariant::Array),
            IndexFamily::Minimizer(ius_index::IndexVariant::ArrayGrid),
            IndexFamily::SpaceEfficient(ius_index::SeVariant::Array),
        ] {
            let label = format!("{} on {}", family.name(), corpus.label);
            let spec = IndexSpec::new(family, params);
            let live = LiveIndex::new(
                corpus.x.alphabet().clone(),
                spec,
                3 * corpus.ell,
                live_config(corpus.x.len() / 6),
            )
            .unwrap();
            let n = corpus.x.len();
            let step = n.div_ceil(5);
            let mut appended = 0usize;
            while appended < n {
                let end = (appended + step).min(n);
                live.append(&corpus.x.substring(appended, end).unwrap())
                    .unwrap();
                appended = end;
                check_live(&live, &corpus.patterns, &label);
            }
            live.delete_range(n / 10, n / 10 + n / 20).unwrap();
            check_live(&live, &corpus.patterns, &label);
            live.flush().unwrap();
            live.delete_range(n / 2, n / 2 + 1).unwrap();
            check_live(&live, &corpus.patterns, &label);
            while live.compact_once().unwrap() > 0 {
                check_live(&live, &corpus.patterns, &label);
            }
            live.compact_full().unwrap();
            check_live(&live, &corpus.patterns, &label);
            assert_eq!(live.len(), n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of append / delete / flush / compact over a
    /// random uniform corpus: after every operation the live answers must
    /// equal NAIVE over the materialized prefix with the tombstone mask.
    #[test]
    fn live_differential_under_random_op_sequences(
        seed in 0u64..1 << 32,
        threshold in 24usize..80,
        ops in prop::collection::vec((0u8..4, 0.0f64..1.0, 0.0f64..1.0), 6..16),
    ) {
        let x = UniformConfig {
            n: 400,
            sigma: 2,
            spread: 0.4,
            seed,
        }
        .generate();
        let (z, ell, max_len) = (8.0, 4usize, 12usize);
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Minimizer(ius_index::IndexVariant::Array), params);
        let live = LiveIndex::new(x.alphabet().clone(), spec, max_len, live_config(threshold))
            .unwrap();
        let patterns: Vec<Vec<u8>> = (0..)
            .map_while(|i| match i {
                0 => Some(vec![0u8; ell]),
                1 => Some(vec![1u8; ell]),
                2 => Some((0..8).map(|j| (j % 2) as u8).collect()),
                3 => Some(vec![0u8; max_len]),
                4 => Some((0..max_len).map(|j| (j / 3 % 2) as u8).collect()),
                _ => None,
            })
            .collect();
        let mut appended = 0usize;
        for &(kind, a, b) in &ops {
            match kind {
                // Append the next random-sized chunk of the corpus stream.
                0 => {
                    if appended < x.len() {
                        let len = 1 + ((x.len() - appended) as f64 * a * 0.4) as usize;
                        let end = (appended + len).min(x.len());
                        live.append(&x.substring(appended, end).unwrap()).unwrap();
                        appended = end;
                    }
                }
                // Delete a random range of the current corpus.
                1 => {
                    if appended > 1 {
                        let start = (a * (appended - 1) as f64) as usize;
                        let len = 1 + (b * 20.0) as usize;
                        let end = (start + len).min(appended);
                        live.delete_range(start, end).unwrap();
                    }
                }
                2 => {
                    live.flush().unwrap();
                }
                _ => {
                    live.compact_once().unwrap();
                }
            }
            if appended == 0 {
                continue;
            }
            let materialized = live.materialize().unwrap();
            prop_assert_eq!(&materialized, &x.substring(0, appended).unwrap());
            let tombstones = live.tombstones();
            for pattern in &patterns {
                prop_assert_eq!(
                    live.query_owned(pattern).unwrap(),
                    live_reference(&materialized, &tombstones, pattern, z),
                    "after op {:?}, {} rows, {} segments",
                    (kind, a, b),
                    appended,
                    live.num_segments()
                );
            }
        }
    }
}

#[test]
fn lexicographic_key_ties_past_the_fit_limit_agree_with_naive() {
    // σ = 4, k = 40: a lexicographic key packs each k-mer's first 31
    // letters. Over the period-4 string below, with a variant every 37
    // positions, k-mers 4 apart inside one window agree on those 31 letters
    // but not on all 40, so their keys tie. Every family, both SE ones
    // included, must still answer like NAIVE.
    let letter = |i: usize| (i % 4) as u8;
    let rows: Vec<Vec<f64>> = (0..400)
        .map(|i| {
            let mut row = vec![0.0; 4];
            if i % 37 == 36 {
                row[(i + 1) % 4] = 0.75;
                row[(i + 2) % 4] = 0.25;
            } else {
                row[usize::from(letter(i))] = 1.0;
            }
            row
        })
        .collect();
    let x = WeightedString::from_rows(ius_weighted::Alphabet::dna(), &rows).unwrap();
    let heavy = HeavyString::letters_of(&x);
    let (z, ell, k) = (4.0, 48, 40);
    let keys = ius_sampling::order::KmerKeyer::new(KmerOrder::Lexicographic, k, 4).keys(&heavy);
    let tie = |i: usize| keys[i] == keys[i + 4] && heavy[i..i + k] != heavy[i + 4..i + 4 + k];
    assert!((0..keys.len() - 4).any(tie), "the fixture has key ties");
    let params = IndexParams::new(z, ell, 4)
        .unwrap()
        .with_k(k)
        .unwrap()
        .with_order(KmerOrder::Lexicographic);
    let est = ZEstimation::build(&x, z).unwrap();
    let mut sampler = PatternSampler::new(&est, 13);
    let mut patterns = sampler.sample_many(ell, 20);
    patterns.extend(sampler.sample_many(ell + 20, 10));
    let naive = NaiveIndex::new(z).unwrap();
    let expected: Vec<Vec<usize>> = patterns
        .iter()
        .map(|p| naive.query(p, &x).unwrap())
        .collect();
    assert!(expected.iter().any(|e| !e.is_empty()), "patterns occur");
    for family in harness_families() {
        let index = IndexSpec::new(family, params)
            .build_with_estimation(&x, &est)
            .unwrap();
        for (pattern, expect) in patterns.iter().zip(&expected) {
            let got = index.query(pattern, &x).unwrap();
            assert_eq!(&got, expect, "{}: {pattern:?}", family.name());
        }
    }
}

/// Asserts that `index` refuses `pattern` with `RankOutOfRange` naming
/// `rank` and σ of `x`, through `query` and `query_into`.
fn assert_refuses_rank(index: &dyn UncertainIndex, pattern: &[u8], x: &WeightedString, rank: u8) {
    let label = index.name();
    assert!(
        matches!(
            index.query(pattern, x),
            Err(Error::RankOutOfRange { rank: r, sigma }) if r == rank && sigma == x.sigma()
        ),
        "{label}: rank {rank} in {pattern:?} must be refused"
    );
    let mut scratch = QueryScratch::new();
    let mut sink = Vec::new();
    assert!(
        matches!(
            index.query_into(pattern, x, &mut scratch, &mut sink),
            Err(Error::RankOutOfRange { rank: r, sigma }) if r == rank && sigma == x.sigma()
        ),
        "{label}: rank {rank} in {pattern:?} must be refused by query_into"
    );
    assert!(
        sink.is_empty(),
        "{label}: nothing reported before the refusal"
    );
}

#[test]
fn every_family_rejects_the_empty_pattern() {
    let corpus = &corpora()[0];
    let naive = NaiveIndex::new(corpus.z).unwrap();
    assert!(matches!(
        naive.query(&[], &corpus.x),
        Err(Error::EmptyInput("pattern"))
    ));
    let families = build_families(corpus);
    for (label, index) in &families {
        assert!(
            matches!(
                index.query(&[], &corpus.x),
                Err(Error::EmptyInput("pattern"))
            ),
            "{label}: empty pattern must be rejected"
        );
        let mut scratch = QueryScratch::new();
        let mut sink = Vec::new();
        assert!(
            index
                .query_into(&[], &corpus.x, &mut scratch, &mut sink)
                .is_err(),
            "{label}: empty pattern must be rejected by query_into"
        );
    }
    // A rank outside the alphabet (σ or σ + 1) as the first, middle or
    // last letter of a pattern whose other letters occur is refused typed
    // by every family, NAIVE and a segmented live index included — no
    // panic and no answer.
    let sigma = corpus.x.sigma();
    let params = IndexParams::new(corpus.z, corpus.ell, sigma).unwrap();
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
    let config = LiveConfig {
        flush_threshold: corpus.x.len().div_ceil(4),
        auto_compact: false,
        ..LiveConfig::default()
    };
    let live = LiveIndex::from_corpus(&corpus.x, spec, 2 * corpus.ell, config).unwrap();
    let mut indexes: Vec<&dyn UncertainIndex> = vec![&naive, &live];
    indexes.extend(
        families
            .iter()
            .map(|(_, index)| index as &dyn UncertainIndex),
    );
    let sampled = corpus.patterns.iter().filter(|p| p.len() == corpus.ell);
    for pattern in sampled.take(10) {
        let m = pattern.len();
        for (at, rank) in [(0, sigma), (m / 2, sigma + 1), (m - 1, sigma + 1)] {
            let mut bad = pattern.clone();
            bad[at] = rank as u8;
            for &index in &indexes {
                assert_refuses_rank(index, &bad, &corpus.x, rank as u8);
            }
        }
    }
}

/// Every log-ratio an MWST-G or MWSA-G set stores is
/// `ln(p(letter) / p(heavy letter))` read from `X` at its mismatch's
/// position (anchor + depth forward, anchor − depth backward), bit for
/// bit: the index derives the pool for the kept mismatches alone, after
/// both constructions carried letters only.
#[test]
fn grid_log_ratios_are_read_from_x_bit_for_bit() {
    let mut checked = 0;
    for corpus in corpora()
        .iter()
        .filter(|c| matches!(c.label, "pangenome" | "rssi_like"))
    {
        let x = &corpus.x;
        let heavy = HeavyString::new(x);
        let params = IndexParams::new(corpus.z, corpus.ell, x.sigma()).unwrap();
        for variant in [IndexVariant::TreeGrid, IndexVariant::ArrayGrid] {
            let spec = IndexSpec::new(IndexFamily::Minimizer(variant), params);
            let AnyIndex::Minimizer(index) = spec.build(x).unwrap() else {
                panic!("a minimizer family builds a minimizer index");
            };
            let [fwd, bwd] = index.factor_sets();
            for (side, set) in [("forward", fwd), ("backward", bwd)] {
                for leaf in 0..set.len() {
                    let anchor = set.anchor_x(leaf);
                    let ratios = set.mismatch_log_ratios(leaf);
                    for (depth, &stored) in set.mismatch_depths(leaf).zip(ratios) {
                        let depth = depth as usize;
                        let p = if side == "forward" {
                            anchor + depth
                        } else {
                            anchor - depth
                        };
                        let c = set.letter_at(leaf, depth).unwrap();
                        let expected = (x.prob(p, c) / x.prob(p, heavy.letter(p))).ln();
                        assert_eq!(
                            stored.to_bits(),
                            expected.to_bits(),
                            "{}/{}: {side} leaf {leaf} depth {depth}",
                            corpus.label,
                            variant.name()
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0, "no grid set stored a mismatch");
}
