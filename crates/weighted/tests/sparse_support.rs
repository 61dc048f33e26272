//! Differential tests of the candidate-letter z-estimation kernel.
//!
//! `ZEstimation::build` runs every group over the `k` candidate letters of a
//! position (those with a positive top-level multiplicity), addressed by
//! slot, and maps slots back to letters only when it writes a row. These
//! tests compare it strand for strand (letters and extents) against
//! `ZEstimation::build_reference`, which walks all `σ` letters, on inputs
//! built to expose a slot/letter mix-up: large alphabets, sparse supports
//! scattered over the alphabet with zero entries between them, deterministic
//! runs, and entries placed exactly on the `1/z` boundary, alone or as a
//! product with an earlier position's entry.

use ius_datasets::rssi::rssi_like;
use ius_weighted::{Alphabet, WeightedString, ZEstimation};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Asserts `build` and `build_reference` produce the same strands.
fn assert_matches_reference(x: &WeightedString, z: f64, context: &str) -> ZEstimation {
    let fast = ZEstimation::build(x, z).unwrap();
    let reference = ZEstimation::build_reference(x, z).unwrap();
    assert_eq!(fast.num_strands(), reference.num_strands(), "{context}");
    for (j, (a, b)) in fast.strands().iter().zip(reference.strands()).enumerate() {
        assert_eq!(a.seq(), b.seq(), "{context}: strand {j} letters");
        assert_eq!(a.extents(), b.extents(), "{context}: strand {j} extents");
    }
    fast
}

/// A row with a support of `letters.len()` letters; the first takes `first`
/// (if given) and the rest share the remaining mass at random.
fn sparse_row(rng: &mut StdRng, sigma: usize, letters: &[usize], first: Option<f64>) -> Vec<f64> {
    let mut row = vec![0.0; sigma];
    let (head, rest_mass, rest) = match first {
        Some(p) => (Some(p), 1.0 - p, &letters[1..]),
        None => (None, 1.0, letters),
    };
    let weights: Vec<f64> = rest.iter().map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = weights.iter().sum();
    for (&letter, w) in rest.iter().zip(weights) {
        row[letter] = rest_mass * w / total;
    }
    if let Some(p) = head {
        row[letters[0]] = p;
    }
    row
}

/// A weighted string of length `n` over `σ` letters: deterministic runs of
/// 1–6 positions, and uncertain positions whose 2–5 support letters are
/// scattered over the whole alphabet. About a third of the uncertain
/// positions carry an entry on the `1/z` boundary: `1/z` itself, or one of
/// `½`, `¼`, `2/z`, `4/z`, whose products with each other land on `1/z`.
fn sparse_string(rng: &mut StdRng, sigma: usize, n: usize, z: f64) -> WeightedString {
    let ties: Vec<f64> = [1.0 / z, 2.0 / z, 4.0 / z, 0.5, 0.25]
        .into_iter()
        .filter(|&t| t > 0.0 && t < 1.0)
        .collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    while rows.len() < n {
        if rng.gen_bool(0.3) {
            let run = rng.gen_range(1..=6usize);
            for _ in 0..run.min(n - rows.len()) {
                let mut row = vec![0.0; sigma];
                row[rng.gen_range(0..sigma)] = 1.0;
                rows.push(row);
            }
            continue;
        }
        let support = rng.gen_range(2..=5usize);
        let mut letters: Vec<usize> = Vec::with_capacity(support);
        while letters.len() < support {
            let letter = rng.gen_range(0..sigma);
            if !letters.contains(&letter) {
                letters.push(letter);
            }
        }
        let tie = if !ties.is_empty() && rng.gen_bool(0.35) {
            Some(ties[rng.gen_range(0..ties.len())])
        } else {
            None
        };
        rows.push(sparse_row(rng, sigma, &letters, tie));
    }
    WeightedString::from_rows(Alphabet::integer(sigma).unwrap(), &rows).unwrap()
}

#[test]
fn sparse_supports_over_large_alphabets_match_reference() {
    let mut rng = StdRng::seed_from_u64(0x5BA5E);
    for sigma in [16usize, 91, 255] {
        for z in [1.0, 4.0, 7.5, 64.0] {
            for trial in 0..4 {
                let x = sparse_string(&mut rng, sigma, 240, z);
                let context = format!("sigma={sigma} z={z} trial={trial}");
                let est = assert_matches_reference(&x, z, &context);
                if trial == 0 {
                    est.verify_contract(&x, 4)
                        .unwrap_or_else(|e| panic!("{context}: {e}"));
                }
            }
        }
    }
}

#[test]
fn exact_threshold_products_match_reference() {
    // Alternating ½ and 2/z entries: every two-letter factor through the
    // tied letters has probability exactly 1/z, so its group sits on the
    // quota boundary at every second position.
    for sigma in [16usize, 91, 255] {
        for z in [4.0, 64.0] {
            let rows: Vec<Vec<f64>> = (0..120)
                .map(|i| {
                    let mut row = vec![0.0; sigma];
                    let (a, b) = ((7 * i) % sigma, (7 * i + sigma / 2) % sigma);
                    let p = if i % 2 == 0 { 0.5 } else { 2.0 / z };
                    row[a] = p;
                    row[b] = 1.0 - p;
                    row
                })
                .collect();
            let x = WeightedString::from_rows(Alphabet::integer(sigma).unwrap(), &rows).unwrap();
            let context = format!("alternating sigma={sigma} z={z}");
            let est = assert_matches_reference(&x, z, &context);
            est.verify_contract(&x, 4)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
        }
    }
}

#[test]
fn rssi_corpus_matches_reference_and_contract() {
    let x = rssi_like(2000, 0x0551);
    let est = assert_matches_reference(&x, 64.0, "rssi n=2000 z=64");
    est.verify_contract(&x, 3).unwrap();
}
