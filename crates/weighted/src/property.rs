//! Property strings: standard strings equipped with a hereditary property.
//!
//! A *property* Π of a string `S` is a hereditary collection of integer
//! intervals of `[0, n)`. Following the paper we represent Π with an array
//! `π` such that the longest interval starting at position `i` is
//! `[i, π[i]]`. We store the *length* of that interval, `π[i] + 1 − i`
//! (0 when position `i` is not covered by any interval), and read back the
//! exclusive end `extent(i) = i + length`. Lengths are bounded by the
//! strand's longest solid factor, so they are kept in a
//! [`NarrowTable`] at the narrowest of `u8`, `u16` and `u32` that holds the
//! longest: a z-estimation of `n` letters and `⌊z⌋` strands holds
//! `⌊z⌋·n·(1 + width)` bytes.
//!
//! Property strings are the building blocks of z-estimations: each strand of
//! a z-estimation is a [`PropertyString`] whose property intervals are exactly
//! the (occurrences of) solid factors the strand is responsible for.

use crate::error::{Error, Result};
use crate::string::WeightedString;
use crate::{is_solid, PROB_EPSILON};
use ius_arena::narrow::{width_for, Entry, NarrowTable};
use ius_arena::with_entries;
use std::ops::Range;

/// A standard string (of letter ranks) together with a property array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyString {
    seq: Vec<u8>,
    /// Length of the longest property interval starting at each position,
    /// `extent(i) − i`, at the narrowest width holding the longest.
    lengths: NarrowTable,
}

impl PropertyString {
    /// Creates a property string from a rank sequence and exclusive extents.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProperty`] if lengths differ, an extent is out of
    /// range, or the (inclusive) property array is not non-decreasing.
    pub fn new(seq: Vec<u8>, extent: Vec<u32>) -> Result<Self> {
        if seq.len() != extent.len() {
            return Err(Error::InvalidProperty(format!(
                "sequence has length {} but extent array has length {}",
                seq.len(),
                extent.len()
            )));
        }
        let mut longest = 0u32;
        for (i, &e) in (0u32..).zip(&extent) {
            if e < i {
                return Err(Error::InvalidProperty(format!(
                    "extent[{i}] = {e} outside [{i}, {}]",
                    seq.len()
                )));
            }
            longest = longest.max(e - i);
        }
        let lengths = NarrowTable::collect(
            width_for(longest),
            extent.len(),
            (0u32..).zip(&extent).map(|(i, &e)| e - i),
        );
        Self::from_lengths(seq, lengths)
    }

    /// Creates a property string from a rank sequence and the length of the
    /// longest property interval starting at each position.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProperty`] if the table and the sequence differ in
    /// length, an interval runs past the end, or the exclusive ends
    /// `i + length` are not non-decreasing.
    pub(crate) fn from_lengths(seq: Vec<u8>, lengths: NarrowTable) -> Result<Self> {
        if seq.len() != lengths.len() {
            return Err(Error::InvalidProperty(format!(
                "sequence has length {} but extent array has length {}",
                seq.len(),
                lengths.len()
            )));
        }
        with_entries!(&lengths, lens => check_lengths(lens))?;
        Ok(Self { seq, lengths })
    }

    /// Creates a property string whose property covers the whole string
    /// (every interval is allowed). This makes the property string behave
    /// like an ordinary string.
    pub fn unrestricted(seq: Vec<u8>) -> Self {
        let n = seq.len() as u32;
        let lengths = NarrowTable::collect(width_for(n), seq.len(), (1..=n).rev());
        Self { seq, lengths }
    }

    /// Length of the underlying string.
    #[inline]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` iff the underlying string is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The underlying rank sequence.
    #[inline]
    pub fn seq(&self) -> &[u8] {
        &self.seq
    }

    /// The letter rank at `pos`.
    #[inline]
    pub fn letter(&self, pos: usize) -> u8 {
        self.seq[pos]
    }

    /// Exclusive end of the longest property interval starting at `pos`.
    #[inline]
    pub fn extent(&self, pos: usize) -> usize {
        pos + self.lengths.get(pos) as usize
    }

    /// Length of the longest property interval starting at each position,
    /// `extent(i) − i`. A loop over a whole strand matches the table's width
    /// once, with [`ius_arena::with_entries!`].
    #[inline]
    pub fn lengths(&self) -> &NarrowTable {
        &self.lengths
    }

    /// The first position at or after `from` where a property-respecting
    /// factor of length `m` starts, if any.
    pub fn first_admissible(&self, m: usize, from: usize) -> Option<usize> {
        with_entries!(&self.lengths, lens => {
            lens.get(from..)?
                .iter()
                .position(|len| len.index() >= m)
                .map(|offset| from + offset)
        })
    }

    /// Inclusive `π[pos]` as in the paper, or `None` when position `pos` is
    /// not covered by any property interval (`π[pos] = pos - 1`).
    #[inline]
    pub fn pi(&self, pos: usize) -> Option<usize> {
        self.covered(pos).then(|| self.extent(pos) - 1)
    }

    /// Returns `true` iff position `pos` is covered by some property interval.
    #[inline]
    pub fn covered(&self, pos: usize) -> bool {
        self.lengths.get(pos) > 0
    }

    /// The longest property-respecting factor starting at `pos`.
    #[inline]
    pub fn factor_at(&self, pos: usize) -> &[u8] {
        &self.seq[pos..self.extent(pos)]
    }

    /// Does `pattern` occur at `pos` respecting the property?
    pub fn occurs_at(&self, pattern: &[u8], pos: usize) -> bool {
        if pattern.is_empty() {
            return true;
        }
        let end = pos + pattern.len();
        end <= self.extent(pos) && &self.seq[pos..end] == pattern
    }

    /// All positions where `pattern` occurs respecting the property
    /// (`Occ_π(P, S)` in the paper), by a naive scan.
    pub fn occurrences(&self, pattern: &[u8]) -> Vec<usize> {
        if pattern.is_empty() || pattern.len() > self.seq.len() {
            return Vec::new();
        }
        (0..=self.seq.len() - pattern.len())
            .filter(|&i| self.occurs_at(pattern, i))
            .collect()
    }

    /// Total number of positions covered by the property (sum of lengths of
    /// the maximal intervals starting at each position is *not* what the
    /// paper reports; this is the count of positions `i` with `π[i] ≥ i`).
    pub fn covered_positions(&self) -> usize {
        with_entries!(&self.lengths, lens => lens.iter().filter(|len| len.index() > 0).count())
    }

    /// Verifies the *soundness* of this property string against a weighted
    /// string: every property-respecting factor must be a z-solid factor of
    /// `x` at the same position.
    ///
    /// Because solidity is hereditary it suffices to check the maximal factor
    /// at each position.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProperty`] naming the first offending position.
    pub fn verify_sound(&self, x: &WeightedString, z: f64) -> Result<()> {
        self.verify_sound_in(x, z, 0..self.len())
    }

    /// [`PropertyString::verify_sound`] for the factors starting in
    /// `starts` only.
    pub(crate) fn verify_sound_in(
        &self,
        x: &WeightedString,
        z: f64,
        starts: Range<usize>,
    ) -> Result<()> {
        if self.len() != x.len() {
            return Err(Error::InvalidProperty(format!(
                "property string has length {} but X has length {}",
                self.len(),
                x.len()
            )));
        }
        with_entries!(&self.lengths, lens => {
            for i in starts {
                let len = lens[i].index();
                if len == 0 {
                    continue;
                }
                let factor = &self.seq[i..i + len];
                let p = x.occurrence_probability(i, factor);
                if !is_solid(p, z) {
                    return Err(Error::InvalidProperty(format!(
                        "factor of length {len} at position {i} has probability {p:.6e} < 1/z (z = {z})"
                    )));
                }
            }
        });
        Ok(())
    }

    /// Heap bytes: one per letter, plus the length table's.
    pub fn memory_bytes(&self) -> usize {
        self.seq.capacity() + self.lengths.heap_bytes()
    }
}

/// The earliest start whose property interval covers `pos` in a strand
/// whose property lengths are `lengths`: the smallest `i` with
/// `i + lengths[i] > pos`, or `lengths.len()` if there is none. These ends
/// never decrease, so this is a binary search, over the starts no further
/// before `pos` than the width allows (256 of them for `u8` lengths) and
/// written like the standard library's `partition_point`: the halving step
/// is a conditional move, not a branch.
pub fn first_covering<L: Entry>(lengths: &[L], pos: usize) -> usize {
    let widest = L::truncate(u32::MAX).index();
    let lo = pos.saturating_sub(widest).min(lengths.len());
    let window = &lengths[lo..(pos + 1).min(lengths.len())];
    let ends_by = |i: usize| lo + i + window[i].index() <= pos;
    let (mut base, mut size) = (0, window.len());
    if size == 0 {
        return lo;
    }
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        base = if ends_by(mid) { mid } else { base };
        size -= half;
    }
    lo + base + usize::from(ends_by(base))
}

/// Checks a strand's property lengths: every interval ends inside the
/// strand, and the exclusive ends `i + length` never decrease.
fn check_lengths<L: Entry>(lengths: &[L]) -> Result<()> {
    let n = lengths.len();
    let mut prev = 0usize;
    for (i, len) in lengths.iter().enumerate() {
        let e = i + len.index();
        if e > n {
            return Err(Error::InvalidProperty(format!(
                "extent[{i}] = {e} outside [{i}, {n}]"
            )));
        }
        // A hereditary property is closed under subintervals, hence the
        // inclusive π array is non-decreasing (π[i-1] ≤ π[i]), which in
        // terms of exclusive extents is plain monotonicity.
        if e < prev {
            return Err(Error::InvalidProperty(format!(
                "property array not hereditary/monotone at position {i}: extent {e} < previous {prev}"
            )));
        }
        prev = e;
    }
    Ok(())
}

/// Builds the property string of *maximal solid factors* of `x`, i.e. the
/// property suffix-array-style pair `(S, π)` where `S` is an arbitrary string
/// containing the solid factors of one strand.
///
/// This helper derives, for a given strand string `seq`, the maximal sound
/// property with respect to `x` and `z`: `extent[i]` is the largest `e` such
/// that `seq[i..e]` is z-solid at `i` (note this is monotone because
/// solidity is hereditary).
pub fn derive_maximal_property(seq: Vec<u8>, x: &WeightedString, z: f64) -> Result<PropertyString> {
    if seq.len() != x.len() {
        return Err(Error::InvalidProperty(format!(
            "sequence has length {} but X has length {}",
            seq.len(),
            x.len()
        )));
    }
    let n = seq.len();
    let mut extent = vec![0u32; n];
    let threshold = 1.0 / z;
    // Two-pointer sweep: maintain the product of probabilities over the
    // window [i, j).
    let mut j = 0usize;
    let mut product = 1.0f64;
    for i in 0..n {
        if j < i {
            j = i;
            product = 1.0;
        }
        while j < n {
            let p = x.prob(j, seq[j]);
            if p <= 0.0 || product * p + PROB_EPSILON < threshold {
                break;
            }
            product *= p;
            j += 1;
        }
        extent[i] = j as u32;
        if j > i {
            let p = x.prob(i, seq[i]);
            product /= p;
        }
        // Guard against drift from repeated division.
        if product > 1.0 {
            product = 1.0;
        }
    }
    // Recompute products periodically to avoid floating-point drift on very
    // long strings: the two-pointer invariant is re-established lazily above,
    // which is sufficient for the tolerances used in this workspace.
    PropertyString::new(seq, extent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string::paper_example;

    /// The pair (S2, π2) from Table 1 of the paper (0-based extents).
    fn table1_s2() -> PropertyString {
        // S2 = AAAAAB, π2 (1-based) = 4 4 5 6 6 6 → exclusive extents 4 4 5 6 6 6.
        PropertyString::new(vec![0, 0, 0, 0, 0, 1], vec![4, 4, 5, 6, 6, 6]).unwrap()
    }

    #[test]
    fn example3_occurrence() {
        // Example 3: P = AAA occurs at position 3 (1-based) = 2 (0-based) in (S2, π2).
        let s2 = table1_s2();
        assert!(s2.occurs_at(&[0, 0, 0], 2));
        assert_eq!(s2.occurrences(&[0, 0, 0]), vec![0, 1, 2]);
        // AAAA only occurs at 0 and 1 within the property... 0: end 4 ≤ 4 ✓, 1: end 5 > 4 ✗.
        assert_eq!(s2.occurrences(&[0, 0, 0, 0]), vec![0]);
    }

    #[test]
    fn example4_occ_pi() {
        // Example 4: for P = AB and S3 = ABAABB with π3 = 4 4 5 6 6 6 (1-based),
        // Occ_π(P, S3) = {1, 4} (1-based) = {0, 3} (0-based).
        let s3 = PropertyString::new(vec![0, 1, 0, 0, 1, 1], vec![4, 4, 5, 6, 6, 6]).unwrap();
        assert_eq!(s3.occurrences(&[0, 1]), vec![0, 3]);
    }

    #[test]
    fn pi_and_covered() {
        let s = PropertyString::new(vec![0, 1, 0], vec![2, 2, 2]).unwrap();
        assert_eq!(s.pi(0), Some(1));
        assert_eq!(s.pi(1), Some(1));
        assert!(s.covered(1));
        assert_eq!(s.pi(2), None);
        assert!(!s.covered(2));
        assert_eq!(s.factor_at(0), &[0, 1]);
        assert_eq!(s.factor_at(2), &[] as &[u8]);
    }

    #[test]
    fn rejects_invalid_extents() {
        // Empty extents everywhere are fine.
        assert!(PropertyString::new(vec![0, 0], vec![0, 1]).is_ok());
        // extent[i] < i.
        assert!(PropertyString::new(vec![0, 0], vec![2, 1]).is_err());
        assert!(PropertyString::new(vec![0, 0], vec![0, 0]).is_err());
        // extent > n.
        assert!(PropertyString::new(vec![0, 0], vec![3, 2]).is_err());
        // length mismatch.
        assert!(PropertyString::new(vec![0, 0], vec![2]).is_err());
        // Non-monotone hereditary representation: π = [2, 0] (extent [3, 1]).
        assert!(PropertyString::new(vec![0, 0, 0], vec![3, 1, 3]).is_err());
    }

    #[test]
    fn unrestricted_behaves_like_plain_string() {
        let s = PropertyString::unrestricted(vec![0, 1, 0, 1, 0]);
        assert_eq!(s.occurrences(&[0, 1]), vec![0, 2]);
        assert_eq!(s.occurrences(&[1, 0]), vec![1, 3]);
        assert_eq!(s.occurrences(&[]), Vec::<usize>::new());
        assert_eq!(s.covered_positions(), 5);
    }

    #[test]
    fn table1_strands_are_sound_for_z4() {
        let x = paper_example();
        let s2 = table1_s2();
        s2.verify_sound(&x, 4.0).unwrap();
        // An unsound property: claim ABAB is allowed at position 0 (prob 3/40 < 1/4).
        let bad = PropertyString::new(vec![0, 1, 0, 1, 0, 0], vec![4, 4, 5, 6, 6, 6]).unwrap();
        assert!(bad.verify_sound(&x, 4.0).is_err());
    }

    #[test]
    fn derive_maximal_property_matches_bruteforce() {
        let x = paper_example();
        let z = 4.0;
        for seq in [
            vec![0u8, 0, 0, 0, 0, 0],
            vec![0, 1, 0, 0, 1, 1],
            vec![1, 1, 1, 1, 1, 1],
        ] {
            let ps = derive_maximal_property(seq.clone(), &x, z).unwrap();
            for i in 0..x.len() {
                // Brute-force maximal extent.
                let mut best = i;
                for e in (i + 1)..=x.len() {
                    if is_solid(x.occurrence_probability(i, &seq[i..e]), z) {
                        best = e;
                    } else {
                        break;
                    }
                }
                assert_eq!(ps.extent(i), best, "position {i} of strand {seq:?}");
            }
            ps.verify_sound(&x, z).unwrap();
        }
    }

    /// The windowed search agrees with a linear scan at every position of
    /// staircases whose steps cross the one- and two-byte widths.
    #[test]
    fn first_covering_matches_a_linear_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF1C);
        for longest in [3u32, 255, 256, 700, 65_535, 65_536] {
            let n = 1_500usize;
            let mut extent = Vec::with_capacity(n);
            let mut e = 0u32;
            for i in 0..n as u32 {
                let reach = (i + rng.gen_range(0..=longest)).min(n as u32);
                e = e.max(i).max(reach.min(i + longest));
                extent.push(e);
            }
            let strand = PropertyString::new(vec![0; n], extent.clone()).unwrap();
            with_entries!(strand.lengths(), lens => {
                for pos in 0..n + 2 {
                    let scan = (0..n).find(|&i| extent[i] as usize > pos).unwrap_or(n);
                    assert_eq!(first_covering(lens, pos), scan, "longest {longest}, pos {pos}");
                }
            });
        }
    }

    #[test]
    fn occurrences_of_overlong_pattern_is_empty() {
        let s = PropertyString::unrestricted(vec![0, 1]);
        assert!(s.occurrences(&[0, 1, 0]).is_empty());
    }
}
