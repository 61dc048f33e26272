//! Property-based cross-index tests: on arbitrary random weighted strings and
//! arbitrary thresholds, every index must report exactly the set of z-solid
//! occurrences, and the structural invariants of the paper must hold.

use ius::prelude::*;
use ius::weighted::heavy::max_solid_mismatches;
use ius::weighted::solid;
use proptest::prelude::*;

/// Random weighted string over a small alphabet with moderately peaked
/// distributions (so that solid factors of useful length exist).
fn weighted_string_strategy() -> impl Strategy<Value = WeightedString> {
    (2usize..=3, 40usize..=120, 0u64..1_000_000).prop_map(|(sigma, n, seed)| {
        ius::datasets::uniform::UniformConfig {
            n,
            sigma,
            spread: 0.55,
            seed,
        }
        .generate()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All six explicitly-constructed indexes and the space-efficient one
    /// agree with the naive matcher on patterns cut from the string itself.
    #[test]
    fn indexes_equal_naive(
        x in weighted_string_strategy(),
        z in 2.0f64..12.0,
        ell_choice in 4usize..=10,
        seed in 0u64..1_000,
    ) {
        let ell = ell_choice;
        let est = ZEstimation::build(&x, z).unwrap();
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let wst = Wst::build_from_estimation(&est).unwrap();
        let wsa = Wsa::build_from_estimation(&est).unwrap();
        let mwsa =
            MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).unwrap();
        let mwst_g =
            MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::TreeGrid).unwrap();
        let se = SpaceEfficientBuilder::new(params).build(&x, IndexVariant::Array).unwrap();
        let indexes: Vec<&dyn UncertainIndex> = vec![&wst, &wsa, &mwsa, &mwst_g, &se];

        let mut sampler = PatternSampler::new(&est, seed);
        let mut patterns = sampler.sample_many(ell, 10);
        patterns.extend(sampler.sample_many((ell + 4).min(x.len()), 5));
        patterns.extend(sampler.sample_random(ell, 5, x.sigma()));
        for pattern in &patterns {
            let expected = solid::occurrences(&x, pattern, z);
            for index in &indexes {
                // Baselines accept any pattern length; minimizer indexes only m ≥ ℓ.
                if pattern.len() >= ell || matches!(index.name(), "WST" | "WSA") {
                    prop_assert_eq!(
                        &index.query(pattern, &x).unwrap(),
                        &expected,
                        "{} on pattern {:?}",
                        index.name(),
                        pattern
                    );
                }
            }
        }
    }

    /// Structural invariants: mismatch counts respect Lemma 3, every leaf
    /// carries a grid point, and reported stats are internally coherent.
    #[test]
    fn structural_invariants(
        x in weighted_string_strategy(),
        z in 2.0f64..16.0,
    ) {
        let ell = 6usize;
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let index = MinimizerIndex::build(&x, params, IndexVariant::ArrayGrid).unwrap();
        let stats = index.stats();
        prop_assert_eq!(stats.size_bytes, index.size_bytes());
        // Every stored leaf of either set carries at least one grid point.
        prop_assert!(stats.num_grid_points * 2 >= stats.num_leaves);
        // Lemma 3: the average number of mismatches per factor is at most log2 z.
        if stats.num_leaves > 0 {
            let avg = stats.num_mismatches as f64 / stats.num_leaves as f64;
            prop_assert!(avg <= max_solid_mismatches(z) as f64 + 1e-9);
        }
    }

    /// The z-estimation → property-text pipeline preserves the exact set of
    /// solid occurrences for every single-letter pattern (a cheap exhaustive
    /// check complementing the sampled patterns above).
    #[test]
    fn single_letter_occurrences(
        x in weighted_string_strategy(),
        z in 1.0f64..10.0,
    ) {
        let est = ZEstimation::build(&x, z).unwrap();
        let wsa = Wsa::build_from_estimation(&est).unwrap();
        for letter in 0..x.sigma() as u8 {
            let expected = solid::occurrences(&x, &[letter], z);
            prop_assert_eq!(wsa.query(&[letter], &x).unwrap(), expected);
        }
    }
}
