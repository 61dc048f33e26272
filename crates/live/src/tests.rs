use super::*;
use ius_datasets::pangenome::PangenomeConfig;
use ius_datasets::patterns::PatternSampler;
use ius_datasets::uniform::UniformConfig;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, NaiveIndex};
use ius_weighted::ZEstimation;

fn uniform(n: usize, seed: u64) -> WeightedString {
    UniformConfig {
        n,
        sigma: 2,
        spread: 0.4,
        seed,
    }
    .generate()
}

fn mwsa_spec(z: f64, ell: usize, sigma: usize) -> IndexSpec {
    IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::Array),
        IndexParams::new(z, ell, sigma).unwrap(),
    )
}

fn config(flush_threshold: usize) -> LiveConfig {
    LiveConfig {
        flush_threshold,
        compact_fanout: 3,
        auto_compact: false,
        threads: 2,
    }
}

/// The documented reference semantics: NAIVE occurrences over the
/// materialized corpus, minus every start whose window intersects a
/// tombstone.
fn reference(
    x: &WeightedString,
    tombstones: &[(usize, usize)],
    pattern: &[u8],
    z: f64,
) -> Vec<usize> {
    let naive = NaiveIndex::new(z).unwrap();
    let mut positions = naive.query(pattern, x).unwrap();
    filter_tombstoned_windows(&mut positions, tombstones, pattern.len());
    positions
}

#[test]
fn appends_are_visible_to_the_very_next_query() {
    let x = uniform(400, 7);
    let z = 6.0;
    let spec = mwsa_spec(z, 4, x.sigma());
    let live = LiveIndex::new(x.alphabet().clone(), spec, 16, config(64)).unwrap();
    assert!(live.is_empty());
    let mut appended = 0usize;
    for chunk_start in (0..x.len()).step_by(50) {
        let batch = x
            .substring(chunk_start, (chunk_start + 50).min(x.len()))
            .unwrap();
        appended += batch.len();
        assert_eq!(live.append(&batch).unwrap(), appended);
        // Immediately after the append, the live answers must equal the
        // oracle over the materialized prefix — no flush required.
        let prefix = x.substring(0, appended).unwrap();
        assert_eq!(live.materialize().unwrap(), prefix);
        for pattern in [vec![0u8; 6], vec![1u8; 4], vec![0, 1, 0, 1]] {
            assert_eq!(
                live.query_owned(&pattern).unwrap(),
                reference(&prefix, &[], &pattern, z),
                "after appending {appended} rows"
            );
        }
    }
    let stats = live.live_stats();
    assert_eq!(stats.corpus_len, x.len());
    assert_eq!(stats.appended, x.len() as u64);
    assert!(stats.flushes >= 1, "threshold 64 must have auto-flushed");
    assert!(live.num_segments() >= 1);
}

#[test]
fn flush_freezes_the_memtable_and_retains_the_overlap() {
    let x = uniform(300, 3);
    let z = 6.0;
    let spec = mwsa_spec(z, 4, x.sigma());
    let live = LiveIndex::new(x.alphabet().clone(), spec, 12, config(10_000)).unwrap();
    live.append(&x).unwrap();
    assert_eq!(live.num_segments(), 0);
    assert!(live.flush().unwrap());
    let stats = live.live_stats();
    assert_eq!(stats.segments, 1);
    // The memtable retains exactly the overlap (max_pattern_len − 1).
    assert_eq!(stats.memtable_rows, live.overlap());
    assert_eq!(stats.corpus_len, 300);
    // Flushing again is a no-op: nothing beyond the overlap to freeze.
    assert!(!live.flush().unwrap());
    for pattern in [vec![0u8; 12], vec![1u8; 5], vec![0, 1, 0, 1, 0, 1]] {
        assert_eq!(
            live.query_owned(&pattern).unwrap(),
            reference(&x, &[], &pattern, z)
        );
    }
}

#[test]
fn delete_range_masks_every_intersecting_window() {
    let x = uniform(256, 11);
    let z = 6.0;
    let spec = mwsa_spec(z, 4, x.sigma());
    let live = LiveIndex::from_corpus(&x, spec, 16, config(60)).unwrap();
    live.delete_range(40, 60).unwrap();
    live.delete_range(55, 70).unwrap(); // coalesces with the first
    live.delete_range(200, 201).unwrap();
    let tombstones = live.tombstones();
    assert_eq!(tombstones, vec![(40, 70), (200, 201)]);
    for pattern in [vec![0u8; 4], vec![1u8; 6], vec![0, 1, 0, 1, 0, 1, 0, 1]] {
        let got = live.query_owned(&pattern).unwrap();
        assert_eq!(got, reference(&x, &tombstones, &pattern, z));
        // Nothing whose window touches a tombstone survives.
        for &p in &got {
            assert!(tombstones
                .iter()
                .all(|&(s, e)| p + pattern.len() <= s || p >= e));
        }
    }
    // Contract errors.
    assert!(matches!(
        live.delete_range(5, 5),
        Err(Error::InvalidParameters(_))
    ));
    assert!(matches!(
        live.delete_range(0, 10_000),
        Err(Error::PositionOutOfBounds { .. })
    ));
}

#[test]
fn compaction_merges_segments_without_changing_answers() {
    let x = PangenomeConfig {
        n: 1_200,
        delta: 0.06,
        seed: 19,
        ..Default::default()
    }
    .generate();
    let (z, ell) = (16.0, 16usize);
    let spec = IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        IndexParams::new(z, ell, x.sigma()).unwrap(),
    );
    let live = LiveIndex::from_corpus(&x, spec, 2 * ell, config(150)).unwrap();
    let before = live.num_segments();
    assert!(
        before >= 4,
        "threshold 150 over n=1200 must leave many segments"
    );
    let est = ZEstimation::build(&x, z).unwrap();
    let mut sampler = PatternSampler::new(&est, 9);
    let mut patterns = sampler.sample_many(ell, 15);
    patterns.extend(sampler.sample_many(2 * ell, 10));
    let expected: Vec<Vec<usize>> = patterns.iter().map(|p| reference(&x, &[], p, z)).collect();
    let check = |live: &LiveIndex| {
        for (pattern, expect) in patterns.iter().zip(&expected) {
            assert_eq!(&live.query_owned(pattern).unwrap(), expect);
        }
    };
    check(&live);
    // Tiered rounds until the policy is exhausted.
    let mut merges = 0usize;
    while live.compact_once().unwrap() > 0 {
        merges += 1;
        check(&live);
    }
    assert!(merges >= 1, "fanout 3 must trigger at least one merge");
    assert!(live.num_segments() < before);
    // A major compaction folds everything into one segment.
    live.compact_full().unwrap();
    assert_eq!(live.num_segments(), 1);
    check(&live);
    assert_eq!(live.live_stats().compactions as usize, merges + 1);
    let stats = live.stats();
    assert!(stats.name.contains("LIVE-MWSA-G") && stats.name.contains("S=1"));
    assert!(live.size_bytes() > 0);
}

#[test]
fn background_compactor_converges_after_flushes() {
    let x = uniform(900, 23);
    let spec = mwsa_spec(6.0, 4, x.sigma());
    let live = LiveIndex::from_corpus(
        &x,
        spec,
        8,
        LiveConfig {
            flush_threshold: 50,
            compact_fanout: 3,
            auto_compact: true,
            threads: 2,
        },
    )
    .unwrap();
    // The compactor runs asynchronously; wait for it to exhaust the
    // tiered policy.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let snapshot = live.snapshot();
        if plan_tiered_runs(&snapshot.segments, 3).is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background compactor did not converge"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(live.live_stats().compactions >= 1);
    assert_eq!(
        live.query_owned(&[0u8; 6]).unwrap(),
        reference(&x, &[], &[0u8; 6], 6.0)
    );
}

#[test]
fn pattern_contract_is_enforced() {
    let x = uniform(200, 2);
    let spec = mwsa_spec(8.0, 8, x.sigma());
    let live = LiveIndex::from_corpus(&x, spec, 16, config(64)).unwrap();
    assert!(matches!(
        live.query_owned(&[]),
        Err(Error::EmptyInput("pattern"))
    ));
    assert!(matches!(
        live.query_owned(&[0u8; 4]),
        Err(Error::PatternTooShort { .. })
    ));
    assert!(matches!(
        live.query_owned(&[0u8; 17]),
        Err(Error::PatternTooLong {
            pattern: 17,
            upper_bound: 16
        })
    ));
    // Ranks outside the alphabet are rejected, not panicked on.
    let mut bad = vec![0u8; 16];
    bad[3] = 9;
    assert!(matches!(
        live.query_owned(&bad),
        Err(Error::RankOutOfRange { rank: 9, sigma: 2 })
    ));
    assert!(live.query_owned(&[0u8; 16]).is_ok());
}

#[test]
fn construction_and_append_validation() {
    let x = uniform(100, 5);
    let spec = mwsa_spec(8.0, 8, x.sigma());
    // max_pattern_len below ℓ.
    assert!(LiveIndex::new(x.alphabet().clone(), spec, 4, config(64)).is_err());
    assert!(LiveIndex::new(x.alphabet().clone(), spec, 0, config(64)).is_err());
    // Degenerate fan-out.
    let mut cfg = config(64);
    cfg.compact_fanout = 1;
    assert!(LiveIndex::new(x.alphabet().clone(), spec, 16, cfg).is_err());
    // Alphabet mismatch on append.
    let live = LiveIndex::new(x.alphabet().clone(), spec, 16, config(64)).unwrap();
    let other = UniformConfig {
        n: 40,
        sigma: 3,
        spread: 0.4,
        seed: 5,
    }
    .generate();
    assert!(matches!(
        live.append(&other),
        Err(Error::InvalidParameters(_))
    ));
    // Queries on an empty live index return empty, not an error.
    assert_eq!(live.query_owned(&[0u8; 16]).unwrap(), Vec::<usize>::new());
}

#[test]
fn query_stats_are_aggregated_across_parts() {
    let x = uniform(500, 13);
    let z = 6.0;
    let spec = mwsa_spec(z, 4, x.sigma());
    let live = LiveIndex::from_corpus(&x, spec, 12, config(80)).unwrap();
    assert!(live.num_segments() >= 2);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let pattern = vec![0u8; 5];
    let stats = live
        .query_owned_into(&pattern, &mut scratch, &mut out)
        .unwrap();
    assert_eq!(out, reference(&x, &[], &pattern, z));
    assert_eq!(stats.reported, out.len());
    assert!(stats.candidates >= stats.verified);
    // Count sink agrees.
    let mut count = ius_query::CountSink::new();
    live.query_owned_into(&pattern, &mut scratch, &mut count)
        .unwrap();
    assert_eq!(count.count, out.len());
}

#[test]
fn manifest_round_trip_preserves_everything() {
    let x = PangenomeConfig {
        n: 800,
        delta: 0.06,
        seed: 31,
        ..Default::default()
    }
    .generate();
    let (z, ell) = (8.0, 8usize);
    let spec = IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::Array),
        IndexParams::new(z, ell, x.sigma()).unwrap(),
    );
    let live = LiveIndex::from_corpus(&x, spec, 2 * ell, config(120)).unwrap();
    live.delete_range(100, 130).unwrap();
    let tail = uniform_like_tail(&x, 40);
    live.append(&tail).unwrap();
    let dir = std::env::temp_dir().join(format!("ius-live-roundtrip-{}", std::process::id()));
    live.save_to_dir(&dir).unwrap();
    let reopened = LiveIndex::open(&dir, config(120)).unwrap();
    assert_eq!(reopened.len(), live.len());
    assert_eq!(reopened.num_segments(), live.num_segments());
    assert_eq!(reopened.tombstones(), live.tombstones());
    assert_eq!(reopened.materialize(), live.materialize());
    let est = ZEstimation::build(&x, z).unwrap();
    let mut sampler = PatternSampler::new(&est, 4);
    for pattern in sampler.sample_many(ell, 12) {
        assert_eq!(
            reopened.query_owned(&pattern).unwrap(),
            live.query_owned(&pattern).unwrap()
        );
    }
    // The reopened index stays mutable: ids continue past the stored ones.
    reopened.append(&tail).unwrap();
    reopened.flush().unwrap();
    assert_eq!(reopened.len(), live.len() + tail.len());
    // A second save garbage-collects retired segment files after a
    // compaction, plus any `.tmp` debris a crashed save could have left;
    // unchanged segments keep their files (immutable + id-named, so they
    // are skipped instead of truncated in place — a torn save can never
    // corrupt a file the previous manifest references).
    reopened.compact_full().unwrap();
    std::fs::write(dir.join("seg-00000000deadbeef.iusg.tmp"), b"debris").unwrap();
    reopened.save_to_dir(&dir).unwrap();
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");
    let seg_files = names.iter().filter(|n| n.ends_with(".iusg")).count();
    assert_eq!(seg_files, reopened.num_segments());
    // Idempotent re-save: the surviving segment file is skipped, and the
    // directory still reopens to the identical state.
    reopened.save_to_dir(&dir).unwrap();
    let again = LiveIndex::open(&dir, config(120)).unwrap();
    assert_eq!(again.materialize(), reopened.materialize());
    std::fs::remove_dir_all(&dir).ok();
}

/// A deterministic batch over the same alphabet as `x` (rows borrowed from
/// its prefix), used to grow a corpus in tests.
fn uniform_like_tail(x: &WeightedString, rows: usize) -> WeightedString {
    x.substring(0, rows.min(x.len())).unwrap()
}

#[test]
fn memtable_slabs_coalesce_split_and_drain_at_row_boundaries() {
    let sigma = 2usize;
    let mut mt = Memtable::empty(5);
    let mut mirror: Vec<f64> = Vec::new();
    // 600 one-row appends: the tail slab coalesces, so the slab count
    // stays ~rows / SLAB_MIN_ROWS instead of one slab per append.
    for i in 0..600usize {
        let p = (i % 7) as f64 / 10.0;
        let row = [p, 1.0 - p];
        mt.push_rows(&row, 1, sigma);
        mirror.extend_from_slice(&row);
    }
    assert_eq!(mt.rows, 600);
    assert_eq!(mt.flat_rows(0, 600, sigma), mirror);
    // Row copies flatten the slab structure back to plain indexing.
    assert_eq!(mt.flat_rows(599, 600, sigma), &mirror[599 * sigma..]);
    // Copies and drains may land mid-slab; both stay row-aligned.
    assert_eq!(
        mt.flat_rows(100, 350, sigma),
        mirror[100 * sigma..350 * sigma]
    );
    // Draining while a snapshot shares the slabs must not mutate the
    // snapshot's view.
    let snapshot = mt.clone();
    mt.drain_front(123, sigma);
    assert_eq!(mt.start, 5 + 123);
    assert_eq!(mt.rows, 477);
    assert_eq!(mt.flat_rows(0, 477, sigma), mirror[123 * sigma..]);
    assert_eq!(snapshot.flat_rows(0, 600, sigma), mirror, "snapshot intact");
    assert!(mt.capacity_bytes() > 0);
}

#[test]
fn row_at_a_time_ingest_matches_the_oracle() {
    // The degenerate wire-client pattern: one-row appends across flush
    // boundaries (slab splits) must stay correct and visible.
    let x = uniform(300, 77);
    let z = 6.0;
    let spec = mwsa_spec(z, 4, x.sigma());
    let live = LiveIndex::new(x.alphabet().clone(), spec, 12, config(64)).unwrap();
    for i in 0..x.len() {
        live.append(&x.substring(i, i + 1).unwrap()).unwrap();
    }
    assert_eq!(live.len(), x.len());
    assert!(live.num_segments() >= 2);
    assert_eq!(live.materialize().unwrap(), x);
    for pattern in [vec![0u8; 5], vec![1u8; 4], vec![0, 1, 0, 1, 0, 1]] {
        assert_eq!(
            live.query_owned(&pattern).unwrap(),
            reference(&x, &[], &pattern, z)
        );
    }
}

#[test]
fn tombstone_insertion_coalesces() {
    let mut tombs = Vec::new();
    insert_tombstone(&mut tombs, 10, 20);
    insert_tombstone(&mut tombs, 30, 40);
    insert_tombstone(&mut tombs, 5, 8);
    assert_eq!(tombs, vec![(5, 8), (10, 20), (30, 40)]);
    // Bridging insert swallows two neighbours (adjacent counts as
    // touching).
    insert_tombstone(&mut tombs, 8, 30);
    assert_eq!(tombs, vec![(5, 40)]);
    insert_tombstone(&mut tombs, 50, 60);
    insert_tombstone(&mut tombs, 40, 50);
    assert_eq!(tombs, vec![(5, 60)]);
}

#[test]
fn window_filter_uses_half_open_intersection() {
    let tombs = vec![(10, 12), (20, 25)];
    let mut positions = vec![5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 25, 30];
    // m = 3: window [p, p+3) intersects [10,12) for p ∈ {8..11}, and
    // [20,25) for p ∈ {18..24}.
    filter_tombstoned_windows(&mut positions, &tombs, 3);
    assert_eq!(positions, vec![5, 6, 7, 12, 15, 16, 17, 25, 30]);
}

#[test]
fn tiered_plan_finds_the_first_long_same_class_run() {
    let segment = |id: u64, home_len: usize| {
        Arc::new(Segment {
            id,
            offset: 0,
            home_len,
            x: uniform(4, id + 1),
            index: AnyIndexForTest::build(),
        })
    };
    // Classes: 100→7 bits, 100→7, 1000→10, 90→7, 80→7, 70→7.
    let segments = vec![
        segment(0, 100),
        segment(1, 100),
        segment(2, 1000),
        segment(3, 90),
        segment(4, 80),
        segment(5, 70),
    ];
    assert_eq!(plan_tiered_runs(&segments, 3), vec![(3, 6)]);
    // With fanout 2 both class-7 runs qualify: the prefix pair and the
    // suffix triple (disjoint, planned in one round).
    assert_eq!(plan_tiered_runs(&segments, 2), vec![(0, 2), (3, 6)]);
    assert_eq!(plan_tiered_runs(&segments, 4), Vec::<(usize, usize)>::new());
    assert_eq!(plan_tiered_runs(&[], 2), Vec::<(usize, usize)>::new());
    // A long class run is chopped into at-most-2·fanout merges, with a
    // short tail below fanout left for the next round.
    let long: Vec<_> = (0..11).map(|id| segment(id, 100)).collect();
    assert_eq!(plan_tiered_runs(&long, 2), vec![(0, 4), (4, 8), (8, 11)]);
    let thirteen: Vec<_> = (0..13).map(|id| segment(id, 100)).collect();
    assert_eq!(
        plan_tiered_runs(&thirteen, 3),
        vec![(0, 6), (6, 12)],
        "the 1-segment tail waits"
    );
}

/// Minimal index value for plan tests (never queried).
struct AnyIndexForTest;

impl AnyIndexForTest {
    fn build() -> ius_index::AnyIndex {
        ius_index::AnyIndex::Naive(NaiveIndex::new(2.0).unwrap())
    }
}

/// Row `i` of the memtable-exactness corpus: fair coins (so windows hit
/// exactly `1/z`), entries in `(1, 1 + DISTRIBUTION_SUM_TOLERANCE]`, and a
/// prefix just short of `1/4` that the following `> 1` entry lifts back
/// over the threshold.
fn edge_row(i: usize) -> Vec<f64> {
    match i % 7 {
        0 => vec![0.25 * (1.0 - 5e-7), 1.0 - 0.25 * (1.0 - 5e-7)],
        1 => vec![1.0 + 0.9 * DISTRIBUTION_SUM_TOLERANCE, 0.0],
        2 => vec![0.0, 1.0 + 0.9 * DISTRIBUTION_SUM_TOLERANCE],
        _ => vec![0.5, 0.5],
    }
}

#[test]
fn memtable_early_exit_matches_naive_exactly() {
    let alphabet = uniform(1, 1).alphabet().clone();
    let rows: Vec<Vec<f64>> = (0..1_000).map(edge_row).collect();
    let x = WeightedString::from_rows(alphabet.clone(), &rows).unwrap();
    // The lifted window really is solid only thanks to its second factor.
    assert!(!is_solid(x.prob(0, 0), 4.0));
    assert!(is_solid(x.occurrence_probability(0, &[0, 0]), 4.0));
    // Appends of one row and of more than a slab's worth, so windows
    // straddle slab boundaries of both kinds.
    let mut batches = Vec::new();
    let mut at = 0usize;
    for len in [
        1usize,
        1,
        3,
        1,
        SLAB_MIN_ROWS + 45,
        1,
        1,
        SLAB_MIN_ROWS + 1,
        2,
    ]
    .into_iter()
    .cycle()
    {
        if at == x.len() {
            break;
        }
        let end = (at + len).min(x.len());
        batches.push(x.substring(at, end).unwrap());
        at = end;
    }
    let max_len = 8usize;
    let patterns: Vec<Vec<u8>> = (1..=max_len)
        .flat_map(|m| {
            (0..1u32 << m).map(move |bits| (0..m).map(|b| (bits >> b & 1) as u8).collect())
        })
        .collect();
    for z in [4.0, 8.0] {
        let spec = IndexSpec::new(
            IndexFamily::Naive,
            IndexParams::new(z, 1, alphabet.size()).unwrap(),
        );
        let live = LiveIndex::new(alphabet.clone(), spec, max_len, config(1_000_000)).unwrap();
        for batch in &batches {
            live.append(batch).unwrap();
        }
        let stats = live.live_stats();
        assert_eq!(stats.segments, 0, "the corpus must stay in the memtable");
        assert_eq!(stats.memtable_rows, x.len());
        let mut solid = 0usize;
        for pattern in &patterns {
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            let query = live
                .query_owned_into(pattern, &mut scratch, &mut out)
                .unwrap();
            let expected = reference(&x, &[], pattern, z);
            assert_eq!(out, expected, "z = {z}, pattern {pattern:?}");
            // Every window is still enumerated.
            assert_eq!(query.candidates, x.len() - pattern.len() + 1);
            assert_eq!(query.verified, expected.len());
            solid += expected.len();
        }
        assert!(solid > 0);
    }
}
