//! End-to-end integration tests over the public `ius` API: every index built
//! on every (small) stand-in dataset answers exactly like the naive matcher,
//! error paths behave, and the headline size relationships of the paper hold.

use ius::prelude::*;
use ius::weighted::solid;

/// Builds one small pangenome-style dataset shared by the tests.
fn small_pangenome() -> WeightedString {
    PangenomeConfig {
        n: 3_000,
        delta: 0.05,
        seed: 0xE2E,
        ..Default::default()
    }
    .generate()
}

#[test]
fn all_indexes_agree_with_naive_on_sampled_and_random_patterns() {
    let x = small_pangenome();
    let z = 32.0;
    let ell = 64usize;
    let est = ZEstimation::build(&x, z).unwrap();
    let params = IndexParams::new(z, ell, x.sigma()).unwrap();

    let wst = Wst::build_from_estimation(&est).unwrap();
    let wsa = Wsa::build_from_estimation(&est).unwrap();
    let mwst = MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Tree).unwrap();
    let mwsa =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).unwrap();
    let mwst_g =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::TreeGrid).unwrap();
    let mwsa_g =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mwst_se = SpaceEfficientBuilder::new(params)
        .build(&x, SeVariant::Tree)
        .unwrap();
    let indexes: Vec<&dyn UncertainIndex> =
        vec![&wst, &wsa, &mwst, &mwsa, &mwst_g, &mwsa_g, &mwst_se];

    let mut sampler = PatternSampler::new(&est, 99);
    let mut patterns = sampler.sample_many(ell, 60);
    patterns.extend(sampler.sample_many(ell * 2, 30));
    patterns.extend(sampler.sample_random(ell, 30, x.sigma()));
    assert!(patterns.len() >= 100);

    for pattern in &patterns {
        let expected = solid::occurrences(&x, pattern, z);
        for index in &indexes {
            assert_eq!(
                index.query(pattern, &x).unwrap(),
                expected,
                "{} disagrees on a pattern of length {}",
                index.name(),
                pattern.len()
            );
        }
    }
}

#[test]
fn registry_datasets_are_indexable_end_to_end() {
    for dataset in standard_datasets(Scale::Tiny) {
        let x = &dataset.weighted;
        // Use a reduced z for speed; the shape of the pipeline is identical.
        let z = dataset.default_z.min(32.0);
        let ell = 32usize;
        let est = ZEstimation::build(x, z).unwrap();
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let mwsa =
            MinimizerIndex::build_from_estimation(x, &est, params, IndexVariant::Array).unwrap();
        let wsa = Wsa::build_from_estimation(&est).unwrap();
        let mut sampler = PatternSampler::new(&est, 5);
        let patterns = sampler.sample_many(ell, 10);
        for pattern in &patterns {
            assert_eq!(
                mwsa.query(pattern, x).unwrap(),
                wsa.query(pattern, x).unwrap(),
                "dataset {}",
                dataset.name
            );
        }
        // Table 2 invariants.
        assert!(dataset.n() >= 1_000);
        assert!(dataset.delta_percent() > 0.0);
    }
}

#[test]
fn headline_size_relationships_hold() {
    // The paper's headline: for large ℓ the minimizer indexes are orders of
    // magnitude smaller than the baselines, and array variants are smaller
    // than tree variants.
    let x = PangenomeConfig {
        n: 8_000,
        delta: 0.05,
        seed: 3,
        ..Default::default()
    }
    .generate();
    let z = 64.0;
    let est = ZEstimation::build(&x, z).unwrap();
    let params = IndexParams::new(z, 512, x.sigma()).unwrap();
    let wst = Wst::build_from_estimation(&est).unwrap();
    let wsa = Wsa::build_from_estimation(&est).unwrap();
    let mwst = MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Tree).unwrap();
    let mwsa =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).unwrap();

    assert!(
        wst.size_bytes() > wsa.size_bytes(),
        "WST should be larger than WSA"
    );
    assert!(
        mwst.size_bytes() > mwsa.size_bytes(),
        "MWST should be larger than MWSA"
    );
    assert!(
        wsa.size_bytes() as f64 / mwsa.size_bytes() as f64 > 8.0,
        "MWSA should be much smaller than WSA (got {} vs {})",
        mwsa.size_bytes(),
        wsa.size_bytes()
    );
    assert!(
        wst.size_bytes() as f64 / mwst.size_bytes() as f64 > 8.0,
        "MWST should be much smaller than WST (got {} vs {})",
        mwst.size_bytes(),
        wst.size_bytes()
    );
}

#[test]
fn error_paths_are_reported() {
    let x = small_pangenome();
    let params = IndexParams::new(16.0, 64, x.sigma()).unwrap();
    let index = MinimizerIndex::build(&x, params, IndexVariant::Array).unwrap();
    // Too-short and empty patterns.
    assert!(matches!(
        index.query(&[0u8; 10], &x),
        Err(ius::weighted::Error::PatternTooShort { .. })
    ));
    assert!(index.query(&[], &x).is_err());
    // Invalid parameters.
    assert!(IndexParams::new(0.2, 64, 4).is_err());
    assert!(IndexParams::new(16.0, 0, 4).is_err());
}

#[test]
fn io_roundtrip_through_the_public_api() {
    let dataset = ius::datasets::registry::sars_star(Scale::Tiny);
    let mut buffer = Vec::new();
    ius::datasets::io::write_weighted(&dataset.weighted, &mut buffer).unwrap();
    let roundtripped = ius::datasets::io::read_weighted(&buffer[..]).unwrap();
    assert_eq!(roundtripped.len(), dataset.weighted.len());
    // Indexing the round-tripped string gives the same answers.
    let z = 64.0;
    let est = ZEstimation::build(&roundtripped, z).unwrap();
    let params = IndexParams::new(z, 32, roundtripped.sigma()).unwrap();
    let index =
        MinimizerIndex::build_from_estimation(&roundtripped, &est, params, IndexVariant::Array)
            .unwrap();
    let mut sampler = PatternSampler::new(&est, 8);
    for pattern in sampler.sample_many(32, 10) {
        assert_eq!(
            index.query(&pattern, &roundtripped).unwrap(),
            solid::occurrences(&dataset.weighted, &pattern, z)
        );
    }
}
