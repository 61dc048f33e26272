//! The overlap/home-range routing rule of the partitioned index.
//!
//! The workspace has one partitioned index, `ius_live::LiveIndex` (a static
//! segmented index is a `LiveIndex` built with `from_corpus` and left
//! unmutated). It cuts one logical weighted string into an ordered sequence
//! of *home ranges* that tile `[0, n)`, and builds each part's index over
//! its home range extended by an **overlap** of `max_pattern_len − 1`
//! positions to the right. The invariants it relies on live here:
//!
//! * **No loss:** an occurrence of a pattern of length `m ≤ max_pattern_len`
//!   starting at position `p` spans the window `[p, p + m)`, which lies
//!   entirely inside the chunk of the part whose home range contains `p`
//!   (the chunk extends `max_pattern_len − 1` positions past the home end).
//! * **No duplication:** each part reports only starts inside its own home
//!   range; hits in the overlap region (starts belonging to the *next*
//!   part's home range) are dropped by the home-range sink of
//!   [`query_parts`]. That single filter is the deduplication.
//! * **Global order for free:** home ranges are disjoint and increasing and
//!   each part's output is sorted, so the concatenation of the filtered
//!   per-part outputs is globally sorted — the final merge needs no sort.
//!
//! [`query_parts`] is the segment fan-out: the parts run in order on the
//! calling thread with the caller's [`QueryScratch`], so a partitioned
//! query spawns no thread and, once the scratch has warmed up, allocates
//! nothing.

use crate::traits::UncertainIndex;
use ius_obs::trace;
use ius_query::{MatchSink, QueryScratch, QueryStats};
use ius_weighted::{Result, WeightedString};

/// The chunk overlap implied by a maximum supported pattern length: a
/// window of at most `max_pattern_len` letters starting on the last home
/// position needs `max_pattern_len − 1` more positions to verify.
///
/// # Panics
///
/// Panics in debug builds if `max_pattern_len` is zero (callers validate it
/// before any overlap arithmetic).
#[inline]
pub fn overlap_len(max_pattern_len: usize) -> usize {
    debug_assert!(max_pattern_len > 0, "max_pattern_len must be positive");
    max_pattern_len - 1
}

/// One part of a partitioned query: the index over a chunk of `X`, the chunk
/// itself, and the home range `[offset, offset + home_len)` the part
/// reports occurrence starts for.
pub struct Part<'a> {
    /// The index built over `chunk`.
    pub index: &'a dyn UncertainIndex,
    /// The chunk of `X` (home range + overlap, clipped at `n`).
    pub chunk: &'a WeightedString,
    /// Width of the home range.
    pub home_len: usize,
    /// Global position of the chunk's first letter.
    pub offset: usize,
}

/// The dedup-and-translate step of the partitioned query fan-out, as a sink:
/// keeps only chunk-local starts inside the home range (`pos < home_len` —
/// overlap hits are the next part's responsibility) and appends the
/// survivors to `out` in global coordinates (`pos + offset`).
///
/// The input order is preserved, so a sorted per-part output stays sorted.
struct HomeSink<'a> {
    out: &'a mut Vec<usize>,
    home_len: usize,
    offset: usize,
}

impl MatchSink for HomeSink<'_> {
    #[inline]
    fn push(&mut self, pos: usize) -> bool {
        if pos < self.home_len {
            self.out.push(pos + self.offset);
        }
        true
    }
}

/// The partitioned query fan-out: queries every part in order on the calling
/// thread with the caller's `scratch`, streaming each part's hits through
/// the home-range filter into `scratch.merged` — which ends up globally
/// sorted, since home ranges are disjoint and increasing. Returns the
/// accumulated [`QueryStats`]; the caller appends any further part, then
/// finalizes `scratch.merged` into its sink and overwrites `reported` with
/// what the sink actually received.
///
/// A traced query wraps each part in a wall-clocked [`trace::STAGE_PART`]
/// span (`a` the part index, `b` its delivered count), which holds the
/// part engine's stage leaves. The first part error stops the fan-out and
/// is returned.
///
/// # Errors
///
/// Query errors of the per-part indexes.
pub fn query_parts<'a>(
    parts: impl IntoIterator<Item = Part<'a>>,
    pattern: &[u8],
    scratch: &mut QueryScratch,
) -> Result<QueryStats> {
    // Each part's engine stages its own candidates in `scratch.positions`,
    // so the merge buffer is moved out for the fan-out (no allocation:
    // `take` leaves an empty vector behind) and put back afterwards.
    let mut merged = std::mem::take(&mut scratch.merged);
    merged.clear();
    let mut total = QueryStats::default();
    let mut outcome = Ok(());
    for (i, part) in parts.into_iter().enumerate() {
        let mut home = HomeSink {
            out: &mut merged,
            home_len: part.home_len,
            offset: part.offset,
        };
        trace::enter(trace::STAGE_PART);
        let result = part
            .index
            .query_into(pattern, part.chunk, scratch, &mut home);
        let reported = result.as_ref().map_or(0, |stats| stats.reported);
        trace::exit_with(i as u64, reported as u64);
        match result {
            Ok(stats) => total.accumulate(&stats),
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    scratch.merged = merged;
    outcome.map(|()| total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_one_less_than_the_pattern_bound() {
        assert_eq!(overlap_len(1), 0);
        assert_eq!(overlap_len(64), 63);
    }

    fn home_filter(hits: &[usize], home_len: usize, offset: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut sink = HomeSink {
            out: &mut out,
            home_len,
            offset,
        };
        for &pos in hits {
            assert!(sink.push(pos), "the home filter never stops a part");
        }
        out
    }

    #[test]
    fn home_filter_drops_overlap_hits_and_translates_the_rest() {
        let positions = home_filter(&[0, 3, 9, 10, 14], 10, 100);
        assert_eq!(positions, vec![100, 103, 109]);
        // Order (and hence global sortedness) is preserved.
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn home_filter_handles_empty_inputs() {
        assert!(home_filter(&[], 5, 7).is_empty());
    }
}
