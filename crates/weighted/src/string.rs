//! The [`WeightedString`] type: a sequence of probability distributions.

use crate::alphabet::Alphabet;
use crate::error::{Error, Result};

/// Tolerance used when validating that a per-position distribution sums to 1.
pub const DISTRIBUTION_SUM_TOLERANCE: f64 = 1e-6;

/// An uncertain string in the character-level uncertainty model.
///
/// A `WeightedString` of length `n` over an alphabet of size `σ` stores, for
/// every position `i ∈ 0..n` and every letter rank `c ∈ 0..σ`, the probability
/// `p_i(c)` that letter `c` occurs at position `i`. Each position's
/// probabilities sum to 1.
///
/// The probabilities are stored densely in row-major order (`n × σ`), which is
/// the same `σ × n` matrix representation used in Example 1 of the paper, just
/// transposed for cache-friendly per-position access.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WeightedString {
    alphabet: Alphabet,
    n: usize,
    /// `probs[i * σ + c]` = probability of letter rank `c` at position `i`.
    probs: Vec<f64>,
}

impl WeightedString {
    /// Builds a weighted string from one probability row per position.
    ///
    /// Row `i` must have exactly `σ` entries (ordered by letter rank), all
    /// non-negative, summing to 1 within [`DISTRIBUTION_SUM_TOLERANCE`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDistribution`] on the first malformed row, or
    /// [`Error::EmptyInput`] if no rows are given.
    pub fn from_rows(alphabet: Alphabet, rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(Error::EmptyInput("weighted string"));
        }
        let sigma = alphabet.size();
        let mut probs = Vec::with_capacity(rows.len() * sigma);
        for (i, row) in rows.iter().enumerate() {
            validate_row(i, row, sigma)?;
            probs.extend_from_slice(row);
        }
        Ok(Self {
            alphabet,
            n: rows.len(),
            probs,
        })
    }

    /// Builds a weighted string from a flat row-major probability matrix.
    ///
    /// `flat.len()` must be a non-zero multiple of `σ`.
    ///
    /// # Errors
    ///
    /// Same validation as [`WeightedString::from_rows`].
    pub fn from_flat(alphabet: Alphabet, flat: Vec<f64>) -> Result<Self> {
        let sigma = alphabet.size();
        if flat.is_empty() || !flat.len().is_multiple_of(sigma) {
            return Err(Error::InvalidParameters(format!(
                "flat probability matrix of length {} is not a non-zero multiple of σ = {sigma}",
                flat.len()
            )));
        }
        let n = flat.len() / sigma;
        for i in 0..n {
            validate_row(i, &flat[i * sigma..(i + 1) * sigma], sigma)?;
        }
        Ok(Self {
            alphabet,
            n,
            probs: flat,
        })
    }

    /// Builds a *deterministic* weighted string: position `i` has probability
    /// 1 for `text[i]` and 0 for every other letter.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSymbol`] if `text` contains a byte outside the
    /// alphabet, [`Error::EmptyInput`] if `text` is empty.
    pub fn deterministic(alphabet: Alphabet, text: &[u8]) -> Result<Self> {
        if text.is_empty() {
            return Err(Error::EmptyInput("weighted string"));
        }
        let sigma = alphabet.size();
        let mut probs = vec![0.0; text.len() * sigma];
        for (i, &b) in text.iter().enumerate() {
            let r = alphabet.rank_checked(b)? as usize;
            probs[i * sigma + r] = 1.0;
        }
        Ok(Self {
            alphabet,
            n: text.len(),
            probs,
        })
    }

    /// Builds a weighted string from non-negative per-position counts
    /// (e.g. allele counts across samples), normalising each row to sum to 1.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDistribution`] if a row has no positive count or a
    /// negative count; [`Error::EmptyInput`] if no rows are given;
    /// [`Error::InvalidParameters`] on arity mismatch.
    pub fn from_counts(alphabet: Alphabet, rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(Error::EmptyInput("weighted string"));
        }
        let sigma = alphabet.size();
        let mut normalised = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if row.len() != sigma {
                return Err(Error::InvalidParameters(format!(
                    "count row {i} has {} entries, expected σ = {sigma}",
                    row.len()
                )));
            }
            if row.iter().any(|&c| c < 0.0 || !c.is_finite()) {
                return Err(Error::InvalidDistribution {
                    position: i,
                    reason: "negative or non-finite count".into(),
                });
            }
            let total: f64 = row.iter().sum();
            if total <= 0.0 {
                return Err(Error::InvalidDistribution {
                    position: i,
                    reason: "all counts are zero".into(),
                });
            }
            normalised.push(row.iter().map(|&c| c / total).collect::<Vec<f64>>());
        }
        Self::from_rows(alphabet, &normalised)
    }

    /// Length `n` of the weighted string.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the string has length 0 (never the case for a
    /// successfully constructed value, but required by convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Alphabet size σ.
    #[inline]
    pub fn sigma(&self) -> usize {
        self.alphabet.size()
    }

    /// The alphabet this string is defined over.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Probability of letter rank `rank` at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= n` or `rank >= σ` (use the checked variants for
    /// untrusted input).
    #[inline]
    pub fn prob(&self, pos: usize, rank: u8) -> f64 {
        self.probs[pos * self.alphabet.size() + rank as usize]
    }

    /// Probability of the user byte `symbol` at position `pos`.
    ///
    /// # Errors
    ///
    /// [`Error::PositionOutOfBounds`] or [`Error::UnknownSymbol`].
    pub fn prob_symbol(&self, pos: usize, symbol: u8) -> Result<f64> {
        self.check_pos(pos)?;
        let rank = self.alphabet.rank_checked(symbol)?;
        Ok(self.prob(pos, rank))
    }

    /// The full probability distribution at position `pos`, indexed by rank.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= n`.
    #[inline]
    pub fn distribution(&self, pos: usize) -> &[f64] {
        let sigma = self.alphabet.size();
        &self.probs[pos * sigma..(pos + 1) * sigma]
    }

    /// Iterator over `(rank, probability)` pairs with positive probability at
    /// position `pos`, in rank order.
    pub fn letters_at(&self, pos: usize) -> impl Iterator<Item = (u8, f64)> + '_ {
        self.distribution(pos)
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(r, &p)| (r as u8, p))
    }

    /// Occurrence probability `P(X[start .. start+|P|-1] = P)` of a rank-encoded
    /// pattern `pattern` at position `start`.
    ///
    /// Returns 0 if the pattern does not fit inside the string.
    ///
    /// # Panics
    ///
    /// Panics if a rank in `pattern` is `>= σ`.
    pub fn occurrence_probability(&self, start: usize, pattern: &[u8]) -> f64 {
        if pattern.is_empty() {
            return 1.0;
        }
        if start + pattern.len() > self.n {
            return 0.0;
        }
        let mut p = 1.0;
        for (offset, &rank) in pattern.iter().enumerate() {
            p *= self.prob(start + offset, rank);
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// Occurrence probability of a byte pattern at `start`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSymbol`] if the pattern contains a byte outside the
    /// alphabet.
    pub fn occurrence_probability_bytes(&self, start: usize, pattern: &[u8]) -> Result<f64> {
        let encoded = self.alphabet.encode(pattern)?;
        Ok(self.occurrence_probability(start, &encoded))
    }

    /// The number of positions where more than one letter has positive
    /// probability, as a fraction of `n`.
    ///
    /// This is the Δ statistic reported in Table 2 of the paper.
    pub fn uncertainty_fraction(&self) -> f64 {
        let ambiguous = (0..self.n)
            .filter(|&i| self.distribution(i).iter().filter(|&&p| p > 0.0).count() > 1)
            .count();
        ambiguous as f64 / self.n as f64
    }

    /// The reverse weighted string: position `i` of the result carries the
    /// distribution of position `n-1-i` of `self`.
    ///
    /// Used by the space-efficient index construction, whose backward pass
    /// runs the forward algorithm on the reversed string.
    pub fn reversed(&self) -> Self {
        let sigma = self.alphabet.size();
        let mut probs = Vec::with_capacity(self.probs.len());
        for i in (0..self.n).rev() {
            probs.extend_from_slice(&self.probs[i * sigma..(i + 1) * sigma]);
        }
        Self {
            alphabet: self.alphabet.clone(),
            n: self.n,
            probs,
        }
    }

    /// The weighted substring `X[start..end)` (half-open range): position `i`
    /// of the result carries the distribution of position `start + i`.
    ///
    /// Used by the live index to give every segment its own chunk of `X`.
    ///
    /// # Errors
    ///
    /// [`Error::PositionOutOfBounds`] if `end > n` or `start >= end`.
    pub fn substring(&self, start: usize, end: usize) -> Result<Self> {
        if end > self.n || start >= end {
            return Err(Error::PositionOutOfBounds {
                position: end.max(start),
                length: self.n,
            });
        }
        let sigma = self.alphabet.size();
        Ok(Self {
            alphabet: self.alphabet.clone(),
            n: end - start,
            probs: self.probs[start * sigma..end * sigma].to_vec(),
        })
    }

    /// The flat row-major probability matrix (`n × σ`), exposed for the
    /// persistence layer.
    #[inline]
    pub fn flat_probs(&self) -> &[f64] {
        &self.probs
    }

    /// Approximate heap size of the probability matrix, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.probs.capacity() * std::mem::size_of::<f64>()
    }

    #[inline]
    fn check_pos(&self, pos: usize) -> Result<()> {
        if pos >= self.n {
            Err(Error::PositionOutOfBounds {
                position: pos,
                length: self.n,
            })
        } else {
            Ok(())
        }
    }
}

fn validate_row(position: usize, row: &[f64], sigma: usize) -> Result<()> {
    if row.len() != sigma {
        return Err(Error::InvalidDistribution {
            position,
            reason: format!("has {} entries, expected σ = {sigma}", row.len()),
        });
    }
    let mut sum = 0.0;
    for &p in row {
        if !(0.0..=1.0 + DISTRIBUTION_SUM_TOLERANCE).contains(&p) || !p.is_finite() {
            return Err(Error::InvalidDistribution {
                position,
                reason: format!("probability {p} outside [0, 1]"),
            });
        }
        sum += p;
    }
    if (sum - 1.0).abs() > DISTRIBUTION_SUM_TOLERANCE {
        return Err(Error::InvalidDistribution {
            position,
            reason: format!("probabilities sum to {sum}, expected 1"),
        });
    }
    Ok(())
}

/// Convenience constructor for the running example of the paper (Example 1).
///
/// Exposed publicly because several crates' tests and examples use it.
pub fn paper_example() -> WeightedString {
    let alphabet = Alphabet::new(b"AB").expect("valid alphabet");
    WeightedString::from_rows(
        alphabet,
        &[
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.75, 0.25],
            vec![0.8, 0.2],
            vec![0.5, 0.5],
            vec![0.25, 0.75],
        ],
    )
    .expect("the paper's running example is a valid weighted string")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_probabilities() {
        let x = paper_example();
        assert_eq!(x.len(), 6);
        assert_eq!(x.sigma(), 2);
        // Example 1: P = ABA at position 3 (1-based) = 2 (0-based): 3/4 * 1/5 * 1/2 = 3/40.
        let p = x.occurrence_probability_bytes(2, b"ABA").unwrap();
        assert!((p - 3.0 / 40.0).abs() < 1e-12);
        // Example 6: AAAA at position 1 (1-based) has probability 0.3.
        let p = x.occurrence_probability_bytes(0, b"AAAA").unwrap();
        assert!((p - 0.3).abs() < 1e-12);
        // AABB at position 1 has probability 1/40.
        let p = x.occurrence_probability_bytes(0, b"AABB").unwrap();
        assert!((p - 1.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_pattern_has_probability_one() {
        let x = paper_example();
        assert_eq!(x.occurrence_probability(0, &[]), 1.0);
        assert_eq!(x.occurrence_probability(5, &[]), 1.0);
    }

    #[test]
    fn pattern_past_the_end_has_probability_zero() {
        let x = paper_example();
        assert_eq!(x.occurrence_probability_bytes(5, b"AB").unwrap(), 0.0);
        assert_eq!(x.occurrence_probability_bytes(6, b"A").unwrap(), 0.0);
    }

    #[test]
    fn deterministic_string() {
        let x = WeightedString::deterministic(Alphabet::dna(), b"GATTACA").unwrap();
        assert_eq!(x.len(), 7);
        assert_eq!(x.prob_symbol(0, b'G').unwrap(), 1.0);
        assert_eq!(x.prob_symbol(0, b'A').unwrap(), 0.0);
        assert_eq!(x.occurrence_probability_bytes(0, b"GATTACA").unwrap(), 1.0);
        assert_eq!(x.occurrence_probability_bytes(1, b"ATTACA").unwrap(), 1.0);
        assert_eq!(x.occurrence_probability_bytes(0, b"GATTACC").unwrap(), 0.0);
        assert_eq!(x.uncertainty_fraction(), 0.0);
    }

    #[test]
    fn from_counts_normalises() {
        let x = WeightedString::from_counts(
            Alphabet::dna(),
            &[vec![3.0, 1.0, 0.0, 0.0], vec![0.0, 0.0, 2.0, 2.0]],
        )
        .unwrap();
        assert!((x.prob_symbol(0, b'A').unwrap() - 0.75).abs() < 1e-12);
        assert!((x.prob_symbol(1, b'G').unwrap() - 0.5).abs() < 1e-12);
        assert!((x.uncertainty_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_distributions() {
        let a = Alphabet::new(b"AB").unwrap();
        // Wrong arity.
        assert!(matches!(
            WeightedString::from_rows(a.clone(), &[vec![1.0]]),
            Err(Error::InvalidDistribution { position: 0, .. })
        ));
        // Does not sum to one.
        assert!(matches!(
            WeightedString::from_rows(a.clone(), &[vec![0.5, 0.4]]),
            Err(Error::InvalidDistribution { position: 0, .. })
        ));
        // Negative entry.
        assert!(matches!(
            WeightedString::from_rows(a.clone(), &[vec![1.2, -0.2]]),
            Err(Error::InvalidDistribution { position: 0, .. })
        ));
        // Empty.
        assert!(matches!(
            WeightedString::from_rows(a, &[]),
            Err(Error::EmptyInput(_))
        ));
    }

    #[test]
    fn from_flat_matches_from_rows() {
        let a = Alphabet::new(b"AB").unwrap();
        let x1 = WeightedString::from_rows(a.clone(), &[vec![0.5, 0.5], vec![0.1, 0.9]]).unwrap();
        let x2 = WeightedString::from_flat(a, vec![0.5, 0.5, 0.1, 0.9]).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn from_counts_rejects_zero_rows() {
        let a = Alphabet::new(b"AB").unwrap();
        assert!(WeightedString::from_counts(a.clone(), &[vec![0.0, 0.0]]).is_err());
        assert!(WeightedString::from_counts(a, &[vec![1.0, -1.0]]).is_err());
    }

    #[test]
    fn letters_at_skips_zero_probabilities() {
        let x = paper_example();
        let letters: Vec<(u8, f64)> = x.letters_at(0).collect();
        assert_eq!(letters, vec![(0, 1.0)]);
        let letters: Vec<(u8, f64)> = x.letters_at(1).collect();
        assert_eq!(letters.len(), 2);
    }

    #[test]
    fn substring_preserves_distributions() {
        let x = paper_example();
        let sub = x.substring(2, 5).unwrap();
        assert_eq!(sub.len(), 3);
        for i in 0..3 {
            assert_eq!(sub.distribution(i), x.distribution(2 + i));
        }
        // Occurrence probabilities translate by the offset.
        assert_eq!(
            sub.occurrence_probability(0, &[0, 1]).to_bits(),
            x.occurrence_probability(2, &[0, 1]).to_bits()
        );
        assert_eq!(x.substring(0, x.len()).unwrap(), x);
        assert!(x.substring(3, 3).is_err());
        assert!(x.substring(0, x.len() + 1).is_err());
    }

    #[test]
    fn uncertainty_fraction_of_paper_example() {
        let x = paper_example();
        // Positions 2..6 (1-based) have two letters with positive probability.
        assert!((x.uncertainty_fraction() - 5.0 / 6.0).abs() < 1e-12);
    }
}
