//! # ius-weighted — the uncertain (weighted) string model
//!
//! This crate implements the *character-level uncertainty model* used by
//! "Space-Efficient Indexes for Uncertain Strings" (ICDE 2024): an uncertain
//! string (also called a *weighted string*) `X` of length `n` over an alphabet
//! `Σ` is a sequence of `n` probability distributions over `Σ`.
//!
//! It provides every weighted-string substrate the indexes in `ius-index`
//! build upon:
//!
//! * [`Alphabet`] — compact mapping between user symbols (bytes) and dense
//!   ranks `0..σ`;
//! * [`WeightedString`] — the `σ × n` probability matrix with occurrence
//!   probability queries;
//! * [`HeavyString`] — the string of per-position most likely letters together
//!   with prefix products, used for the `O(log z)` edge encoding (Lemma 3 /
//!   Corollary 4 of the paper);
//! * solid factor machinery ([`solid`]) — validity checks, naive reference
//!   pattern matching and maximal solid factor enumeration;
//! * [`PropertyString`] — a standard string equipped with a hereditary
//!   property array `π` (Property Indexing);
//! * [`ZEstimation`] — the family of `⌊z⌋` property strings of Barton et al.
//!   (Theorem 2), i.e. the bridge from uncertain strings to standard ones.
//!
//! Positions are **0-based** throughout the crate (the paper uses 1-based
//! positions); intervals are inclusive `[start, end]` unless stated otherwise.
//!
//! ## Quick example
//!
//! ```
//! use ius_weighted::{Alphabet, WeightedString, ZEstimation};
//!
//! // The running example of the paper (Example 1): n = 6, Σ = {A, B}.
//! let alphabet = Alphabet::new(b"AB").unwrap();
//! let x = WeightedString::from_rows(
//!     alphabet,
//!     &[
//!         vec![1.0, 0.0],
//!         vec![0.5, 0.5],
//!         vec![0.75, 0.25],
//!         vec![0.8, 0.2],
//!         vec![0.5, 0.5],
//!         vec![0.25, 0.75],
//!     ],
//! )
//! .unwrap();
//!
//! // Occurrence probability of P = ABA at position 2 (0-based), cf. Example 1.
//! let p = x.occurrence_probability_bytes(2, b"ABA").unwrap();
//! assert!((p - 0.075).abs() < 1e-12);
//!
//! // A 4-estimation (Table 1): 4 property strings that jointly "count" every
//! // factor with multiplicity ⌊p·z⌋.
//! let est = ZEstimation::build(&x, 4.0).unwrap();
//! assert_eq!(est.num_strands(), 4);
//! assert_eq!(est.count_bytes(b"AB", 0).unwrap(), 2); // p = 1/2 → ⌊2⌋ = 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod error;
pub mod heavy;
pub mod property;
pub mod solid;
pub mod string;
pub mod zestimation;

pub use alphabet::Alphabet;
pub use error::{Error, Result};
pub use heavy::HeavyString;
pub use property::PropertyString;
pub use solid::{MaximalSolidFactor, SolidFactorSet};
pub use string::WeightedString;
pub use zestimation::ZEstimation;

/// Numerical slack used when comparing floating-point occurrence
/// probabilities against the `1/z` threshold and when taking floors of `p·z`.
///
/// All crates in the workspace use this single constant so that the reference
/// matcher, the z-estimation and every index agree on borderline factors.
pub const PROB_EPSILON: f64 = 1e-9;

/// `⌊p·z⌋` computed with the shared [`PROB_EPSILON`] slack.
///
/// This is the multiplicity with which a factor of occurrence probability `p`
/// must appear in a z-estimation (Definition of z-estimation in the paper).
#[inline]
pub fn solid_multiplicity(p: f64, z: f64) -> u64 {
    if p <= 0.0 {
        return 0;
    }
    let scaled = p * z + PROB_EPSILON;
    if scaled < 1.0 {
        0
    } else {
        // Truncation is the floor here (`scaled ≥ 1`), and unlike
        // `f64::floor` it needs no libm call on baseline x86-64.
        scaled as u64
    }
}

/// Returns `true` iff a factor with occurrence probability `p` is *z-solid*
/// (also called *z-valid*), i.e. `p ≥ 1/z`, using the shared epsilon.
#[inline]
pub fn is_solid(p: f64, z: f64) -> bool {
    solid_multiplicity(p, z) >= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicity_basics() {
        assert_eq!(solid_multiplicity(0.5, 4.0), 2);
        assert_eq!(solid_multiplicity(0.3, 4.0), 1);
        assert_eq!(solid_multiplicity(0.075, 4.0), 0);
        assert_eq!(solid_multiplicity(0.0, 4.0), 0);
        assert_eq!(solid_multiplicity(1.0, 1.0), 1);
        assert_eq!(solid_multiplicity(1.0, 128.0), 128);
    }

    #[test]
    fn multiplicity_boundary_uses_epsilon() {
        // 0.25 * 4 = 1.0 exactly: must count as solid.
        assert_eq!(solid_multiplicity(0.25, 4.0), 1);
        // A value infinitesimally below the boundary (beyond epsilon) does not.
        assert_eq!(solid_multiplicity(0.25 - 1e-6, 4.0), 0);
        assert!(is_solid(0.25, 4.0));
        assert!(!is_solid(0.2499, 4.0));
    }

    #[test]
    fn multiplicity_is_monotone_in_p() {
        let z = 17.0;
        let mut last = 0;
        for i in 0..=1000 {
            let p = i as f64 / 1000.0;
            let m = solid_multiplicity(p, z);
            assert!(m >= last);
            last = m;
        }
        assert_eq!(last, 17);
    }
}
