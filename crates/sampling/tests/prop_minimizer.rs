//! Differential property tests of the minimizer scanners: the amortised-O(1)
//! monotone-deque scan must select exactly the positions of the per-window
//! rescan (`minimizers_bruteforce`: `window_minimizer` on every window) on random and
//! degenerate inputs, for both k-mer orders, including the leftmost-smallest
//! tie-breaking that repetitive inputs exercise heavily.

use ius_sampling::{KmerOrder, MinimizerScheme, SlidingWindowMinimizer};
use proptest::prelude::*;

fn assert_scan_matches_rescan(text: &[u8], sigma: usize, label: &str) {
    for order in [KmerOrder::Lexicographic, KmerOrder::KarpRabin { seed: 7 }] {
        for (ell, k) in [(3usize, 1usize), (4, 2), (8, 3), (12, 12), (16, 5)] {
            if ell > text.len() || k > ell {
                continue;
            }
            let scheme = MinimizerScheme::new(ell, k, sigma, order);
            assert_eq!(
                scheme.minimizers(text),
                scheme.minimizers_bruteforce(text),
                "{label}: order {order:?}, ell {ell}, k {k}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deque scan ≡ per-window rescan on random texts.
    #[test]
    fn random_texts(sigma in 2usize..=6, raw in prop::collection::vec(0u8..=254, 0..160)) {
        let text: Vec<u8> = raw.into_iter().map(|c| c % sigma as u8).collect();
        assert_scan_matches_rescan(&text, sigma, "random");
    }

    /// Periodic texts: every window is full of key ties, so this pins the
    /// leftmost-smallest tie-breaking.
    #[test]
    fn periodic_texts(
        motif in prop::collection::vec(0u8..3, 1..5),
        repeats in 2usize..60,
    ) {
        let mut text = Vec::with_capacity(motif.len() * repeats);
        for _ in 0..repeats {
            text.extend_from_slice(&motif);
        }
        assert_scan_matches_rescan(&text, 3, "periodic");
    }

    /// Restricting to the full range must equal the plain scan, and windows
    /// in clipped sub-ranges must be a subset computed consistently.
    #[test]
    fn range_restriction_consistency(
        raw in prop::collection::vec(0u8..4, 24..120),
        cut in 0usize..24,
    ) {
        let scheme = MinimizerScheme::new(8, 3, 4, KmerOrder::default());
        let full = scheme.minimizers_in_ranges(&raw, std::iter::once((0usize, raw.len())));
        prop_assert_eq!(&full, &scheme.minimizers(&raw));
        // A prefix range behaves like the scan of the prefix slice.
        let end = raw.len() - cut;
        let prefix = scheme.minimizers_in_ranges(&raw, std::iter::once((0usize, end)));
        prop_assert_eq!(&prefix, &scheme.minimizers(&raw[..end]));
    }
}

#[test]
fn degenerate_inputs() {
    // Empty and too-short texts.
    let scheme = MinimizerScheme::new(8, 3, 4, KmerOrder::default());
    assert!(scheme.minimizers(&[]).is_empty());
    assert!(scheme.minimizers(&[0, 1, 2]).is_empty());
    // All-equal letters of several lengths: everything ties everywhere.
    for len in [8usize, 9, 64, 257] {
        let text = vec![1u8; len];
        assert_scan_matches_rescan(&text, 4, "all-equal");
    }
    // Strictly increasing / decreasing ramps.
    let up: Vec<u8> = (0..200u8).map(|i| i % 5).collect();
    assert_scan_matches_rescan(&up, 5, "ramp");
}

#[test]
fn lex_fallback_without_total_keys_matches_rescan() {
    // σ = 91, k = 12 overflows the packed lexicographic keys, forcing the
    // rank-based fallback; the deque scan must still match the rescan
    // (regression: raw fallback keys used to collapse to a constant).
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(91);
    let text: Vec<u8> = (0..400).map(|_| rng.gen_range(0..91u8)).collect();
    let scheme = MinimizerScheme::new(16, 12, 91, KmerOrder::Lexicographic);
    assert!(!scheme.keyer().has_total_keys());
    assert_eq!(
        scheme.minimizers(&text),
        scheme.minimizers_bruteforce(&text)
    );
}

#[test]
fn deque_capacity_constructor_behaves_identically() {
    let keys: Vec<u64> = vec![5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9];
    for width in 1..=keys.len() {
        let mut a = SlidingWindowMinimizer::new();
        let mut b = SlidingWindowMinimizer::with_capacity(width);
        for (i, &k) in keys.iter().enumerate() {
            a.push(i, k);
            b.push(i, k);
            if i + 1 >= width {
                a.retire(i + 1 - width);
                b.retire(i + 1 - width);
                assert_eq!(a.argmin(), b.argmin(), "width {width} i {i}");
            }
        }
    }
}
