//! Persistence round-trip properties: for every index family,
//! build → save → load must be byte-identical on re-save, answer queries
//! exactly like the original, and account the arena it was opened from
//! (`size_bytes() ≥ file length`, the rule `tests/size_accounting.rs`
//! cross-checks against the allocator). Loading never re-runs
//! construction, so these tests are the correctness net under the
//! load-vs-rebuild numbers of `BENCH_space.json`.

use ius_datasets::pangenome::PangenomeConfig;
use ius_datasets::patterns::PatternSampler;
use ius_datasets::uniform::UniformConfig;
use ius_index::{AnyIndex, IndexFamily, IndexParams, IndexSpec, IndexStats, UncertainIndex};
use ius_weighted::{Alphabet, WeightedString, ZEstimation};
use proptest::prelude::*;

/// The arena accounting rule: a loaded index retains the one arena its
/// file was read into, so it reports at least the file's length (NAIVE
/// stores only `z` and retains nothing).
fn accounts_its_arena(loaded: &AnyIndex, file_len: usize) -> bool {
    matches!(loaded, AnyIndex::Naive(_)) || loaded.size_bytes() >= file_len
}

/// Builds, saves, loads and re-saves one family over one corpus, asserting
/// the full round-trip contract. Returns the serialized size.
fn assert_round_trip(spec: IndexSpec, x: &WeightedString, patterns: &[Vec<u8>]) -> usize {
    let original = spec.build(x).expect("build");
    let mut bytes = Vec::new();
    original.save_to(&mut bytes).expect("save");
    let loaded = AnyIndex::load_from(&mut bytes.as_slice()).expect("load");
    // Re-saving the loaded index reproduces the file byte for byte.
    let mut resaved = Vec::new();
    loaded.save_to(&mut resaved).expect("re-save");
    assert_eq!(
        bytes,
        resaved,
        "{}: re-save not byte-identical",
        spec.family.name()
    );
    // The loaded index is behaviourally indistinguishable.
    assert_eq!(loaded.name(), original.name());
    assert!(
        accounts_its_arena(&loaded, bytes.len()),
        "{}: loaded size_bytes() {} below the {}-byte file",
        spec.family.name(),
        loaded.size_bytes(),
        bytes.len()
    );
    // Every statistic but the footprint is structural and survives as is.
    assert_eq!(
        IndexStats {
            size_bytes: 0,
            ..loaded.stats()
        },
        IndexStats {
            size_bytes: 0,
            ..original.stats()
        }
    );
    for pattern in patterns {
        let expected = original.query(pattern, x);
        let got = loaded.query(pattern, x);
        match (expected, got) {
            (Ok(expected), Ok(got)) => {
                assert_eq!(
                    got,
                    expected,
                    "{}: loaded query differs",
                    spec.family.name()
                );
            }
            (Err(_), Err(_)) => {}
            (expected, got) => panic!(
                "{}: outcome mismatch ({expected:?} vs {got:?})",
                spec.family.name()
            ),
        }
    }
    bytes.len()
}

#[test]
fn every_family_round_trips_on_uniform_and_pangenome_corpora() {
    let corpora = [
        (
            UniformConfig {
                n: 260,
                sigma: 2,
                spread: 0.5,
                seed: 77,
            }
            .generate(),
            8.0,
            8usize,
        ),
        (
            PangenomeConfig {
                n: 900,
                delta: 0.07,
                seed: 13,
                ..Default::default()
            }
            .generate(),
            16.0,
            32usize,
        ),
    ];
    for (x, z, ell) in corpora {
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let est = ZEstimation::build(&x, z).unwrap();
        let mut sampler = PatternSampler::new(&est, 4);
        let mut patterns = sampler.sample_many(ell, 15);
        patterns.extend(sampler.sample_many(2 * ell, 8));
        patterns.extend(sampler.sample_random(ell, 8, x.sigma()));
        assert!(!patterns.is_empty());
        for family in IndexFamily::all() {
            let file_bytes = assert_round_trip(IndexSpec::new(family, params), &x, &patterns);
            assert!(file_bytes > 7, "{}: implausibly small file", family.name());
        }
    }
}

/// Random "peaked" weighted strings (most mass on one letter per position,
/// the regime where factors are long and mismatch lists non-trivial).
fn peaked_string_strategy(max_len: usize, sigma: usize) -> impl Strategy<Value = WeightedString> {
    let rows = prop::collection::vec((0usize..sigma, 0.0f64..0.3), 16..=max_len);
    rows.prop_map(move |rows| {
        let alphabet = Alphabet::integer(sigma).unwrap();
        let rows: Vec<Vec<f64>> = rows
            .into_iter()
            .map(|(major, minor_mass)| {
                let mut row = vec![minor_mass / (sigma as f64 - 1.0); sigma];
                row[major] = 1.0 - minor_mass;
                row
            })
            .collect();
        WeightedString::from_rows(alphabet, &rows).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Build → save → load → byte-identical re-save, on random corpora and a
    /// rotating family selection.
    #[test]
    fn random_corpora_round_trip(
        x in peaked_string_strategy(120, 3),
        z in 2.0f64..12.0,
        family_pick in 0usize..IndexFamily::all().len(),
    ) {
        let ell = 8usize.min(x.len());
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let family = IndexFamily::all()[family_pick];
        let spec = IndexSpec::new(family, params);
        let Ok(original) = spec.build(&x) else {
            // e.g. the space-efficient construction's node cap on adversarial
            // inputs — nothing to round-trip.
            return Ok(());
        };
        let mut bytes = Vec::new();
        original.save_to(&mut bytes).expect("save");
        let loaded = AnyIndex::load_from(&mut bytes.as_slice()).expect("load");
        let mut resaved = Vec::new();
        loaded.save_to(&mut resaved).expect("re-save");
        prop_assert_eq!(&bytes, &resaved);
        prop_assert!(accounts_its_arena(&loaded, bytes.len()));
        // A handful of direct queries agree.
        for len in [ell, (2 * ell).min(x.len())] {
            let pattern = vec![0u8; len];
            match (original.query(&pattern, &x), loaded.query(&pattern, &x)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("outcome mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}
