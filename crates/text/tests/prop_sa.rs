//! Differential property tests of the suffix-array builder: the linear-time
//! SA-IS construction must agree with the naive `O(n² log n)` oracle on
//! random and degenerate inputs, and downstream consumers (LCP, LCE) must see
//! the plain suffix-array contract.

use ius_text::lcp::{lcp_array, lcp_of};
use ius_text::sa::{inverse_suffix_array, suffix_array, suffix_array_naive};
use proptest::prelude::*;

fn assert_matches_naive(text: &[u8], label: &str) {
    assert_eq!(
        suffix_array(text),
        suffix_array_naive(text),
        "SA-IS vs naive on {label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SA-IS ≡ naive on arbitrary texts over alphabets of
    /// 1 to 8 letters.
    #[test]
    fn random_texts(sigma in 1u8..=8, text in prop::collection::vec(0u8..=254, 0..300)) {
        let text: Vec<u8> = text.into_iter().map(|c| c % sigma).collect();
        assert_matches_naive(&text, "random text");
    }

    /// Periodic texts (short repeated motifs) exercise the LMS recursion.
    #[test]
    fn periodic_texts(
        motif in prop::collection::vec(0u8..4, 1..7),
        repeats in 1usize..80,
        tail in prop::collection::vec(0u8..4, 0..6),
    ) {
        let mut text = Vec::with_capacity(motif.len() * repeats + tail.len());
        for _ in 0..repeats {
            text.extend_from_slice(&motif);
        }
        text.extend_from_slice(&tail);
        assert_matches_naive(&text, "periodic text");
    }

    /// The inverse permutation property holds for SA-IS output.
    #[test]
    fn inverse_roundtrip(text in prop::collection::vec(0u8..5, 1..400)) {
        let sa = suffix_array(&text);
        let rank = inverse_suffix_array(&sa);
        for (r, &p) in sa.iter().enumerate() {
            prop_assert_eq!(rank[p as usize] as usize, r);
        }
    }

    /// Kasai's LCP over the SA-IS array matches direct prefix comparison —
    /// the downstream consumers see the plain suffix-array contract.
    #[test]
    fn lcp_consumes_sais_unchanged(text in prop::collection::vec(0u8..3, 2..200)) {
        let sa = suffix_array(&text);
        let lcp = lcp_array(&text, &sa);
        prop_assert_eq!(lcp[0], 0);
        for r in 1..sa.len() {
            let direct = lcp_of(&text[sa[r - 1] as usize..], &text[sa[r] as usize..]);
            prop_assert_eq!(lcp[r], direct as u32, "rank {}", r);
        }
    }
}

#[test]
fn degenerate_inputs() {
    // Empty, single letters, all-equal runs of several lengths.
    assert_matches_naive(b"", "empty");
    for sigma in 1u8..4 {
        for len in [1usize, 2, 3, 5, 64, 255, 256, 257] {
            let text = vec![sigma - 1; len];
            assert_matches_naive(&text, "all-equal");
        }
    }
    // Strictly increasing and strictly decreasing ramps (all-S / all-L).
    let up: Vec<u8> = (0..=255u8).collect();
    let down: Vec<u8> = (0..=255u8).rev().collect();
    assert_matches_naive(&up, "increasing ramp");
    assert_matches_naive(&down, "decreasing ramp");
    // Alternating two-letter text (every odd position is LMS).
    let alt: Vec<u8> = (0..501).map(|i| (i % 2) as u8).collect();
    assert_matches_naive(&alt, "alternating");
}

#[test]
fn large_random_text_cross_check() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5A15);
    for sigma in [2usize, 4, 16, 91] {
        let text: Vec<u8> = (0..20_000).map(|_| rng.gen_range(0..sigma as u8)).collect();
        assert_eq!(
            suffix_array(&text),
            suffix_array_naive(&text),
            "sigma = {sigma}"
        );
    }
}
