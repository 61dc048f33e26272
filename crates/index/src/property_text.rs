//! The property text: the concatenated z-estimation with per-position
//! truncation lengths, plus its *property suffix array* (PSA).
//!
//! Both state-of-the-art baselines are views over this structure:
//!
//! * the weighted suffix array ([`crate::Wsa`]) is the PSA itself,
//! * the weighted suffix tree ([`crate::Wst`]) is the compacted trie of the
//!   truncated suffixes, built from the PSA and the truncated LCP values.
//!
//! A *truncated suffix* of the concatenation `T = S_1 S_2 … S_⌊z⌋` at text
//! position `s` is `T[s .. s + t(s))` where `t(s)` is the length of the
//! longest property-respecting factor starting at `s` inside its strand.
//! Truncated suffixes are exactly the maximal solid factors' suffixes, so an
//! occurrence of a pattern `P` as a *prefix of a truncated suffix* is exactly
//! a property-respecting (hence z-solid) occurrence of `P`.

use ius_arena::narrow::Entry;
use ius_arena::{with_entries, ArenaVec};
use ius_text::lce::LceIndex;
use ius_weighted::{Error, Result, ZEstimation};
use std::cmp::Ordering;

/// The concatenated z-estimation with truncation lengths and its PSA.
#[derive(Debug, Clone)]
pub struct PropertyText {
    /// Length `n` of the original weighted string.
    n: usize,
    /// Number of strands `⌊z⌋`.
    num_strands: usize,
    /// Concatenated strand letters (strand j occupies `[j·n, (j+1)·n)`).
    text: ArenaVec<u8>,
    /// Truncation length per text position (0 ⇒ position not covered).
    trunc: ArenaVec<u32>,
    /// Text positions with positive truncation, sorted by truncated suffix.
    psa: ArenaVec<u32>,
}

impl PropertyText {
    /// Builds the property text and its PSA from a z-estimation.
    ///
    /// Uses an LCE index over the concatenation to compare truncated suffixes
    /// in `O(1)`-ish time; the LCE structures are dropped before returning,
    /// so the retained memory is `text + trunc + psa` — the `O(nz)` footprint
    /// the paper reports for the WSA.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyInput`] if the estimation has no strands.
    pub fn build(estimation: &ZEstimation) -> Result<Self> {
        Self::build_internal(estimation, false).map(|(pt, _)| pt)
    }

    /// Like [`PropertyText::build`], and also returns the LCPs of adjacent
    /// truncated suffixes in PSA order (entry 0 is 0): the input of the
    /// WST's trie build, which the structure itself does not keep.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyInput`] if the estimation has no strands.
    pub fn build_with_lcp(estimation: &ZEstimation) -> Result<(Self, Vec<u32>)> {
        Self::build_internal(estimation, true)
    }

    fn build_internal(estimation: &ZEstimation, want_lcp: bool) -> Result<(Self, Vec<u32>)> {
        let strands = estimation.strands();
        if strands.is_empty() {
            return Err(Error::EmptyInput("z-estimation"));
        }
        let n = estimation.len();
        let num_strands = strands.len();
        let total = n * num_strands;
        let mut text = Vec::with_capacity(total);
        let mut trunc = Vec::with_capacity(total);
        for strand in strands {
            text.extend_from_slice(strand.seq());
            with_entries!(strand.lengths(), lens => {
                trunc.extend(lens.iter().map(|len| len.index() as u32));
            });
        }

        // Sort the covered positions by truncated suffix.
        let lce = LceIndex::new(&text);
        let mut psa: Vec<u32> = (0..total as u32)
            .filter(|&s| trunc[s as usize] > 0)
            .collect();
        // `collect` through a filter can overshoot; the PSA is retained for
        // the index's whole lifetime, so drop the slack.
        psa.shrink_to_fit();
        psa.sort_unstable_by(|&a, &b| {
            compare_truncated(&text, &trunc, &lce, a as usize, b as usize)
        });
        let mut lcps = Vec::new();
        if want_lcp {
            lcps = vec![0u32; psa.len()];
            for r in 1..psa.len() {
                let a = psa[r - 1] as usize;
                let b = psa[r] as usize;
                let cap = trunc[a].min(trunc[b]) as usize;
                lcps[r] = lce.lce(a, b).min(cap) as u32;
            }
        }
        let pt = Self {
            n,
            num_strands,
            text: ArenaVec::from(text),
            trunc: ArenaVec::from(trunc),
            psa: ArenaVec::from(psa),
        };
        Ok((pt, lcps))
    }

    /// Length of the original weighted string.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of strands.
    #[inline]
    pub fn num_strands(&self) -> usize {
        self.num_strands
    }

    /// The concatenated strand text.
    #[inline]
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// Truncation length of text position `s`.
    #[inline]
    pub fn trunc(&self, s: usize) -> usize {
        self.trunc[s] as usize
    }

    /// The property suffix array (positions of covered text suffixes in
    /// truncated-lexicographic order).
    #[inline]
    pub fn psa(&self) -> &[u32] {
        &self.psa
    }

    /// Maps a text position to the position in `X` it stands for.
    #[inline]
    pub fn position_in_x(&self, text_pos: usize) -> usize {
        text_pos % self.n
    }

    /// Maps a text position to its strand id.
    #[inline]
    pub fn strand_of(&self, text_pos: usize) -> usize {
        text_pos / self.n
    }

    /// The truncated suffix starting at text position `s`.
    #[inline]
    pub fn truncated_suffix(&self, s: usize) -> &[u8] {
        &self.text[s..s + self.trunc[s] as usize]
    }

    /// The half-open PSA interval of truncated suffixes having `pattern` as a
    /// prefix (binary search, `O(m log(nz))`).
    pub fn equal_range(&self, pattern: &[u8]) -> (usize, usize) {
        let lo = self.partition_point(|suffix| suffix < pattern);
        let hi = self.partition_point(|suffix| {
            let prefix = &suffix[..suffix.len().min(pattern.len())];
            prefix <= pattern
        });
        (lo, hi)
    }

    /// Appends the (unsorted, possibly duplicated across strands) `X`
    /// positions of the PSA interval matching `pattern` into `out` and
    /// returns the interval width — the allocation-free locate step of the
    /// sink-based WSA query, which sorts and deduplicates once downstream.
    pub fn positions_into(&self, pattern: &[u8], out: &mut Vec<usize>) -> usize {
        let (lo, hi) = self.equal_range(pattern);
        out.extend(
            self.psa[lo..hi]
                .iter()
                .map(|&s| self.position_in_x(s as usize)),
        );
        hi - lo
    }

    // ---- persistence support (see `crate::persist`) --------------------

    /// The full truncation table (one entry per text position).
    pub(crate) fn trunc_raw(&self) -> &[u32] {
        &self.trunc
    }

    /// Reassembles a property text from its persisted parts without re-running
    /// the suffix sort.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency (the PSA
    /// order itself is trusted; it is covered by the round-trip tests).
    pub(crate) fn from_parts(
        n: usize,
        num_strands: usize,
        text: ArenaVec<u8>,
        trunc: ArenaVec<u32>,
        psa: ArenaVec<u32>,
    ) -> std::result::Result<Self, String> {
        let total = n
            .checked_mul(num_strands)
            .ok_or("property-text dimensions overflow")?;
        if text.len() != total || trunc.len() != total {
            return Err("text/truncation tables do not match n × strands".into());
        }
        // These checks run over `n·z` entries on every arena open, so they
        // are phrased as whole-array reduction scans — division-free, no
        // early exit, no random access — that compile to SIMD; the offending
        // entry is located by a second pass only on the error path.
        //
        // A truncated suffix never crosses its strand's end; the covered-
        // position count rides along in the same pass over the table.
        let mut covered = 0usize;
        for strand in 0..num_strands {
            let base = strand * n;
            let (worst, strand_covered) = trunc[base..base + n]
                .iter()
                .enumerate()
                .fold((0usize, 0usize), |(m, c), (i, &t)| {
                    (m.max(i + t as usize), c + usize::from(t > 0))
                });
            if worst > n {
                let i = trunc[base..base + n]
                    .iter()
                    .enumerate()
                    .position(|(i, &t)| i + t as usize > n)
                    .unwrap_or(0);
                return Err(format!(
                    "truncation at text position {} crosses a strand",
                    base + i
                ));
            }
            covered += strand_covered;
        }
        // Every PSA entry is in range, and the PSA lists exactly the covered
        // positions (one entry per `trunc > 0` slot — checked by count, so
        // no per-entry gather into the truncation table is needed; the sort
        // order itself is trusted, as documented above).
        let max_psa = psa.iter().fold(0u32, |m, &s| m.max(s));
        if !psa.is_empty() && max_psa as usize >= total {
            return Err("PSA references an uncovered or out-of-range position".into());
        }
        if psa.len() != covered {
            return Err(format!(
                "PSA lists {} positions but {covered} are covered",
                psa.len()
            ));
        }
        Ok(Self {
            n,
            num_strands,
            text,
            trunc,
            psa,
        })
    }

    /// Heap bytes retained by the structure. Arena-backed tables count as
    /// zero here; the arena is counted once by whoever retains its handle.
    pub fn memory_bytes(&self) -> usize {
        self.text.heap_bytes() + self.trunc.heap_bytes() + self.psa.heap_bytes()
    }

    fn partition_point<F: Fn(&[u8]) -> bool>(&self, pred: F) -> usize {
        let mut lo = 0usize;
        let mut hi = self.psa.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let s = self.psa[mid] as usize;
            let suffix = self.truncated_suffix(s);
            if pred(suffix) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Compares two truncated suffixes using the LCE index over the concatenation.
fn compare_truncated(text: &[u8], trunc: &[u32], lce: &LceIndex, a: usize, b: usize) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let ta = trunc[a] as usize;
    let tb = trunc[b] as usize;
    // Fast path: resolve on the first few characters without an LCE query.
    let quick = ta.min(tb).min(4);
    for d in 0..quick {
        match text[a + d].cmp(&text[b + d]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    if quick == ta.min(tb) {
        return ta.cmp(&tb).then(a.cmp(&b));
    }
    lce.compare_fragments(a, ta, b, tb).then(a.cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_datasets::uniform::UniformConfig;
    use ius_weighted::string::paper_example;
    use ius_weighted::ZEstimation;

    fn build_example(z: f64) -> (ius_weighted::WeightedString, PropertyText) {
        let x = paper_example();
        let est = ZEstimation::build(&x, z).unwrap();
        let pt = PropertyText::build(&est).unwrap();
        (x, pt)
    }

    #[test]
    fn psa_contains_only_covered_positions_in_sorted_order() {
        let (_x, pt) = build_example(4.0);
        assert_eq!(pt.n(), 6);
        assert_eq!(pt.num_strands(), 4);
        for r in 0..pt.psa().len() {
            let s = pt.psa()[r] as usize;
            assert!(pt.trunc(s) > 0);
            if r > 0 {
                let prev = pt.psa()[r - 1] as usize;
                assert!(
                    pt.truncated_suffix(prev) <= pt.truncated_suffix(s),
                    "PSA not sorted at rank {r}"
                );
            }
        }
    }

    /// The sorted, deduplicated `X` positions of `pattern`.
    fn positions_of(pt: &PropertyText, pattern: &[u8]) -> Vec<usize> {
        let mut positions = Vec::new();
        pt.positions_into(pattern, &mut positions);
        positions.sort_unstable();
        positions.dedup();
        positions
    }

    #[test]
    fn equal_range_finds_solid_occurrences() {
        let (x, pt) = build_example(4.0);
        // AB is solid at positions 0, 3, 4 of the paper's example (0-based).
        let positions = positions_of(&pt, &[0, 1]);
        assert_eq!(
            positions,
            ius_weighted::solid::occurrences(&x, &[0, 1], 4.0)
        );
        // AAAA is solid only at 0.
        assert_eq!(positions_of(&pt, &[0, 0, 0, 0]), vec![0]);
        // ABAB occurs nowhere with probability ≥ 1/4.
        assert!(positions_of(&pt, &[0, 1, 0, 1]).is_empty());
    }

    #[test]
    fn positions_match_naive_matcher_on_random_input() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let x = UniformConfig {
            n: 200,
            sigma: 3,
            spread: 0.6,
            seed: 5,
        }
        .generate();
        let z = 6.0;
        let est = ZEstimation::build(&x, z).unwrap();
        let pt = PropertyText::build(&est).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for len in 1..=6 {
            for _ in 0..40 {
                let pattern: Vec<u8> = (0..len).map(|_| rng.gen_range(0..3u8)).collect();
                assert_eq!(
                    positions_of(&pt, &pattern),
                    ius_weighted::solid::occurrences(&x, &pattern, z),
                    "pattern {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_lcp_matches_direct_comparison() {
        let x = paper_example();
        let est = ZEstimation::build(&x, 4.0).unwrap();
        let (pt, lcps) = PropertyText::build_with_lcp(&est).unwrap();
        assert_eq!(lcps.len(), pt.psa().len());
        assert_eq!(lcps[0], 0);
        for (pair, &lcp) in pt.psa().windows(2).zip(&lcps[1..]) {
            let a = pt.truncated_suffix(pair[0] as usize);
            let b = pt.truncated_suffix(pair[1] as usize);
            let expected = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
            assert_eq!(lcp as usize, expected);
        }
    }

    #[test]
    fn strand_and_position_mapping() {
        let (_x, pt) = build_example(3.0);
        assert_eq!(pt.position_in_x(0), 0);
        assert_eq!(pt.position_in_x(7), 1);
        assert_eq!(pt.strand_of(7), 1);
        assert_eq!(pt.strand_of(17), 2);
        assert!(pt.memory_bytes() > 0);
    }
}
