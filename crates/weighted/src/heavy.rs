//! Heavy strings (Definition 2 of the paper) and prefix products.
//!
//! The *heavy string* `H_X` of a weighted string `X` keeps, at every position,
//! a letter with the largest probability. Lemma 3 of the paper (due to
//! Kociumaka, Pissis and Radoszewski) states that any z-solid factor differs
//! from the corresponding fragment of `H_X` in at most `log₂ z` positions —
//! the combinatorial fact behind the `O(log z)` edge encoding of the
//! minimizer solid factor trees.

use crate::error::{Error, Result};
use crate::string::WeightedString;
use ius_arena::ArenaVec;
use std::sync::Arc;

/// The heavy string of a weighted string, together with prefix products of
/// its letter probabilities.
///
/// The prefix products are kept in log-space so that arbitrarily long ranges
/// can be multiplied without underflow; see [`HeavyString::range_probability`].
///
/// The letter ranks live behind an [`Arc`] so that consumers needing their
/// own handle on the heavy text (most prominently the encoded factor sets,
/// whose forward heavy view *is* this string) share the allocation instead
/// of cloning `n` bytes per consumer; see [`HeavyString::shared_ranks`].
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyString {
    /// Heavy letters as dense ranks, one per position (shared).
    letters: Arc<Vec<u8>>,
    /// `log_prefix[i]` = Σ_{j < i} ln p_j(H_X[j]); length `n + 1`. An
    /// [`ArenaVec`], so a persisted heavy string can borrow the table
    /// zero-copy from the index arena.
    log_prefix: ArenaVec<f64>,
}

impl HeavyString {
    /// Computes a heavy string of `x`.
    ///
    /// Ties are broken in favour of the letter with the smallest rank, which
    /// makes the result deterministic (the paper allows arbitrary
    /// tie-breaking).
    pub fn new(x: &WeightedString) -> Self {
        let n = x.len();
        let mut letters = Vec::with_capacity(n);
        let mut log_prefix = Vec::with_capacity(n + 1);
        log_prefix.push(0.0);
        for i in 0..n {
            let (best, best_p) = most_probable(x.distribution(i));
            letters.push(best);
            log_prefix.push(log_prefix[i] + best_p.ln());
        }
        Self {
            letters: Arc::new(letters),
            log_prefix: ArenaVec::from(log_prefix),
        }
    }

    /// The letters of [`HeavyString::new`] without its log-prefix table,
    /// for a build that reads no fragment probability before it is done.
    pub fn letters_of(x: &WeightedString) -> Vec<u8> {
        (0..x.len())
            .map(|i| most_probable(x.distribution(i)).0)
            .collect()
    }

    /// The log-prefix table of [`HeavyString::new`] for the heavy
    /// `letters` of `x` (from [`HeavyString::letters_of`]), bit for bit:
    /// `n + 1` entries, entry `i` being `Σ_{j < i} ln p_j(H_X[j])`.
    pub fn log_prefix_of(x: &WeightedString, letters: &[u8]) -> ArenaVec<f64> {
        let mut log_prefix = Vec::with_capacity(letters.len() + 1);
        log_prefix.push(0.0);
        for (i, &c) in letters.iter().enumerate() {
            log_prefix.push(log_prefix[i] + x.prob(i, c).ln());
        }
        ArenaVec::from(log_prefix)
    }

    /// Length of the heavy string (equals the length of `X`).
    #[inline]
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// `true` iff the heavy string is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// The heavy letter (rank) at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= n`.
    #[inline]
    pub fn letter(&self, pos: usize) -> u8 {
        self.letters[pos]
    }

    /// The heavy string as a rank slice.
    #[inline]
    pub fn as_ranks(&self) -> &[u8] {
        &self.letters
    }

    /// A shared handle on the rank vector — the clone-free way to hand the
    /// heavy text to another owner (no bytes are copied).
    #[inline]
    pub fn shared_ranks(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.letters)
    }

    /// Probability of the heavy fragment `H_X[start..end]` (half-open range),
    /// i.e. `Π_{i ∈ [start, end)} p_i(H_X[i])`.
    ///
    /// # Errors
    ///
    /// [`Error::PositionOutOfBounds`] if `end > n` or `start > end`.
    pub fn range_probability(&self, start: usize, end: usize) -> Result<f64> {
        if end > self.len() || start > end {
            return Err(Error::PositionOutOfBounds {
                position: end,
                length: self.len(),
            });
        }
        Ok((self.log_prefix[end] - self.log_prefix[start]).exp())
    }

    /// Log-probability of the heavy fragment `H_X[start..end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn range_log_probability(&self, start: usize, end: usize) -> f64 {
        self.log_prefix[end] - self.log_prefix[start]
    }

    /// Number of mismatches between a rank-encoded fragment `fragment` and the
    /// heavy string aligned at `start` (Hamming distance of Lemma 3).
    ///
    /// Positions extending past the end of the heavy string count as
    /// mismatches.
    pub fn mismatches(&self, start: usize, fragment: &[u8]) -> usize {
        fragment
            .iter()
            .enumerate()
            .filter(|(off, &c)| {
                self.letters
                    .get(start + off)
                    .map(|&h| h != c)
                    .unwrap_or(true)
            })
            .count()
    }

    /// Positions (absolute, 0-based) where `fragment` aligned at `start`
    /// differs from the heavy string.
    pub fn mismatch_positions(&self, start: usize, fragment: &[u8]) -> Vec<usize> {
        fragment
            .iter()
            .enumerate()
            .filter(|(off, &c)| {
                self.letters
                    .get(start + off)
                    .map(|&h| h != c)
                    .unwrap_or(true)
            })
            .map(|(off, _)| start + off)
            .collect()
    }

    /// Reassembles a heavy string from its stored parts (letters and
    /// log-prefix products) without recomputing either — the persistence
    /// layer's constructor.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] unless `log_prefix` has exactly
    /// `letters.len() + 1` finite entries starting at 0.
    pub fn from_parts(letters: Vec<u8>, log_prefix: ArenaVec<f64>) -> Result<Self> {
        if log_prefix.len() != letters.len() + 1 {
            return Err(Error::InvalidParameters(format!(
                "log-prefix table has {} entries for {} letters",
                log_prefix.len(),
                letters.len()
            )));
        }
        if log_prefix.first() != Some(&0.0) || log_prefix.iter().any(|v| !v.is_finite()) {
            return Err(Error::InvalidParameters(
                "log-prefix table must start at 0 and stay finite".into(),
            ));
        }
        Ok(Self {
            letters: Arc::new(letters),
            log_prefix,
        })
    }

    /// Splits the heavy string into its shared letters and its log-prefix
    /// table (`n + 1` entries; entry `i` is `Σ_{j < i} ln p_j(H_X[j])`) —
    /// for owners that keep the table only when they read it.
    pub fn into_parts(self) -> (Arc<Vec<u8>>, ArenaVec<f64>) {
        (self.letters, self.log_prefix)
    }

    /// Approximate heap usage in bytes. An arena-backed log-prefix table
    /// counts as zero here; the arena is counted once by whoever retains
    /// its handle.
    pub fn memory_bytes(&self) -> usize {
        self.letters.capacity() + self.log_prefix.heap_bytes()
    }
}

/// The most probable letter of a distribution and its probability, ties
/// broken towards the smallest rank.
fn most_probable(dist: &[f64]) -> (u8, f64) {
    let mut best = 0usize;
    let mut best_p = dist[0];
    for (c, &p) in dist.iter().enumerate().skip(1) {
        if p > best_p {
            best_p = p;
            best = c;
        }
    }
    (best as u8, best_p)
}

/// The maximum number of mismatches a z-solid factor can have with the heavy
/// string: `⌊log₂ z⌋` (Lemma 3 of the paper).
#[inline]
pub fn max_solid_mismatches(z: f64) -> usize {
    if z < 1.0 {
        0
    } else {
        z.log2().floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string::paper_example;
    use crate::Alphabet;

    #[test]
    fn heavy_string_of_paper_example() {
        // Example 5: H_X = ABAAAB up to tie-breaking at positions 2 and 5
        // (1-based). Our tie-break picks the smaller rank, i.e. A at both,
        // giving AAAAAB; both are valid heavy strings.
        let x = paper_example();
        let h = HeavyString::new(&x);
        let decoded = x.alphabet().decode(h.as_ranks());
        assert_eq!(decoded, b"AAAAAB");
        // Probabilities of the chosen letters.
        assert!((h.range_probability(0, 1).unwrap() - 1.0).abs() < 1e-12);
        assert!((h.range_probability(0, 2).unwrap() - 0.5).abs() < 1e-12);
        assert!((h.range_probability(2, 4).unwrap() - 0.6).abs() < 1e-12);
        assert!(
            (h.range_probability(0, 6).unwrap() - 1.0 * 0.5 * 0.75 * 0.8 * 0.5 * 0.75).abs() < 1e-9
        );
    }

    #[test]
    fn range_probability_bounds() {
        let x = paper_example();
        let h = HeavyString::new(&x);
        assert!(h.range_probability(0, 7).is_err());
        assert!(h.range_probability(4, 3).is_err());
        assert_eq!(h.range_probability(3, 3).unwrap(), 1.0);
    }

    #[test]
    fn mismatches_and_positions() {
        let x = paper_example();
        let h = HeavyString::new(&x);
        let a = x.alphabet();
        // Heavy = AAAAAB; fragment BABA at position 0 differs at 0 and 2.
        let frag = a.encode(b"BABA").unwrap();
        assert_eq!(h.mismatches(0, &frag), 2);
        assert_eq!(h.mismatch_positions(0, &frag), vec![0, 2]);
        // Fragment running past the end counts overhang as mismatches.
        let frag = a.encode(b"AB").unwrap();
        assert_eq!(h.mismatches(5, &frag), 2);
    }

    #[test]
    fn lemma3_bound_examples() {
        assert_eq!(max_solid_mismatches(1.0), 0);
        assert_eq!(max_solid_mismatches(2.0), 1);
        assert_eq!(max_solid_mismatches(4.0), 2);
        assert_eq!(max_solid_mismatches(128.0), 7);
        assert_eq!(max_solid_mismatches(1024.0), 10);
        assert_eq!(max_solid_mismatches(0.5), 0);
    }

    #[test]
    fn lemma3_holds_on_paper_example() {
        // Example 6: for z = 4 no solid factor has more than log2(4) = 2
        // mismatches with the heavy string at its occurrence position.
        let x = paper_example();
        let h = HeavyString::new(&x);
        let z = 4.0;
        let a = x.alphabet().clone();
        // Enumerate all factors of length up to 6 and check the bound.
        for start in 0..x.len() {
            let mut stack: Vec<Vec<u8>> = vec![vec![]];
            while let Some(prefix) = stack.pop() {
                for c in 0..a.size() as u8 {
                    let mut f = prefix.clone();
                    f.push(c);
                    if start + f.len() > x.len() {
                        continue;
                    }
                    let p = x.occurrence_probability(start, &f);
                    if crate::is_solid(p, z) {
                        assert!(
                            h.mismatches(start, &f) <= max_solid_mismatches(z),
                            "solid factor with too many mismatches"
                        );
                        stack.push(f);
                    }
                }
            }
        }
    }

    #[test]
    fn parts_round_trip_is_exact() {
        let x = paper_example();
        let h = HeavyString::new(&x);
        let (letters, log_prefix) = h.clone().into_parts();
        assert_eq!(letters.as_slice(), h.as_ranks());
        assert_eq!(log_prefix.len(), h.len() + 1);
        let rebuilt = HeavyString::from_parts(letters.to_vec(), log_prefix).unwrap();
        assert_eq!(rebuilt, h);
        assert_eq!(
            rebuilt.range_log_probability(1, 5).to_bits(),
            h.range_log_probability(1, 5).to_bits()
        );
        // Malformed parts are rejected.
        assert!(HeavyString::from_parts(vec![0, 1], vec![0.0, 0.5].into()).is_err());
        assert!(HeavyString::from_parts(vec![0], vec![0.1, 0.2].into()).is_err());
        assert!(HeavyString::from_parts(vec![0], vec![0.0, f64::NAN].into()).is_err());
    }

    #[test]
    fn long_range_probability_does_not_underflow_to_zero_prematurely() {
        // 10_000 positions with heavy probability 0.999 each.
        let alphabet = Alphabet::new(b"AB").unwrap();
        let rows: Vec<Vec<f64>> = (0..10_000).map(|_| vec![0.999, 0.001]).collect();
        let x = WeightedString::from_rows(alphabet, &rows).unwrap();
        let h = HeavyString::new(&x);
        let p = h.range_probability(0, 10_000).unwrap();
        assert!(p > 0.0);
        assert!((p.ln() - 10_000.0 * 0.999f64.ln()).abs() < 1e-6);
    }
}
