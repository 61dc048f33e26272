//! # ius-query — the sink-based query engine layer
//!
//! Every query algorithm in this workspace (WST subtree enumeration, MWSA
//! property-text binary search, minimizer locate-then-verify) decomposes into
//! *emit candidate → verify → report*. This crate provides the serving-side
//! machinery that shape needs:
//!
//! * [`MatchSink`] — where verified occurrence positions go: collect them all
//!   (`Vec<usize>` implements the trait), count them ([`CountSink`]), or stop
//!   after the first `k` ([`FirstKSink`]);
//! * [`QueryScratch`] — the reusable buffers of one query "lane" (candidate
//!   positions, reversed-prefix staging, k-mer key decode), so
//!   steady-state queries perform **no heap allocation** once the buffers
//!   have warmed up;
//! * [`QueryStats`] — the per-query filter counts every index family
//!   reports (candidates enumerated, candidates verified, survivors
//!   delivered, grid work done);
//! * [`finalize_into`] — the shared sort/dedup/stream step between a raw
//!   candidate buffer and a sink, with a `sorted` fast path for sources that
//!   already emit increasing positions.
//!
//! The indexes themselves live in `ius-index`; they implement
//! `UncertainIndex::query_into(pattern, x, &mut QueryScratch, &mut dyn
//! MatchSink)` on top of these primitives, and the classic allocating
//! `query()` is a thin wrapper over that entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A consumer of verified occurrence positions.
///
/// [`finalize_into`] feeds positions to the sink **sorted increasingly and
/// deduplicated**. `push` returns `false` to stop early (e.g. a first-`k`
/// sink that is full); engines are free to stop producing once that happens.
pub trait MatchSink {
    /// Accepts one verified position; returns `false` to stop the query.
    fn push(&mut self, pos: usize) -> bool;
}

/// Collect-all sink: the classic `query()` result vector.
impl MatchSink for Vec<usize> {
    #[inline]
    fn push(&mut self, pos: usize) -> bool {
        self.push(pos);
        true
    }
}

/// Count-only sink: counts distinct occurrences without materialising them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountSink {
    /// Number of distinct positions seen so far.
    pub count: usize,
}

impl CountSink {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchSink for CountSink {
    #[inline]
    fn push(&mut self, _pos: usize) -> bool {
        self.count += 1;
        true
    }
}

/// First-`k` sink: keeps the `k` smallest occurrence positions and stops the
/// query as soon as it has them.
#[derive(Debug, Clone)]
pub struct FirstKSink {
    k: usize,
    /// The collected positions (at most `k`, sorted increasingly).
    pub positions: Vec<usize>,
}

impl FirstKSink {
    /// Creates a sink that accepts at most `k` positions. Nothing is
    /// reserved up front: `k` may come from an untrusted client and be
    /// far larger than the number of occurrences.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            positions: Vec::new(),
        }
    }

    /// `true` iff the sink has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.positions.len() >= self.k
    }
}

impl MatchSink for FirstKSink {
    #[inline]
    fn push(&mut self, pos: usize) -> bool {
        if self.positions.len() < self.k {
            self.positions.push(pos);
        }
        self.positions.len() < self.k
    }
}

/// Reusable buffers of one query lane.
///
/// A scratch is cheap to create but each buffer grows to the high-water mark
/// of the queries run through it, after which `query_into` is allocation-free
/// on the hot paths (asserted by `tests/query_alloc.rs` at the workspace
/// root). One scratch serves one thread.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Raw candidate/verified positions before [`finalize_into`].
    pub positions: Vec<usize>,
    /// Reversed-prefix staging (the backward pattern part of the minimizer
    /// indexes).
    pub pattern_rev: Vec<u8>,
    /// k-mer keys of the pattern's first window (minimizer selection).
    pub kmer_keys: Vec<u64>,
    /// Merged global positions of a partitioned (segment fan-out)
    /// query: each part's engine uses `positions` for its own candidates,
    /// so the parts' filtered outputs gather here.
    pub merged: Vec<usize>,
}

impl QueryScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total capacity currently held by the buffers, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.positions.capacity() * std::mem::size_of::<usize>()
            + self.pattern_rev.capacity()
            + self.kmer_keys.capacity() * 8
            + self.merged.capacity() * std::mem::size_of::<usize>()
    }
}

/// Per-query filter counts, reported by every index family.
///
/// These are counts, not times: a query's stage times live only in the
/// calling thread's armed request trace (`ius_obs::trace`), where the
/// minimizer engine writes its scan/locate/verify/report leaves when the
/// request was sampled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidate occurrences enumerated before verification.
    pub candidates: usize,
    /// Candidates that passed verification (counted with multiplicity).
    pub verified: usize,
    /// Distinct positions delivered to the sink (fewer than the distinct
    /// survivors when the sink stopped the query early).
    pub reported: usize,
    /// Grid work done by the 2D range report (0 for non-grid indexes):
    /// wavelet-matrix nodes visited by the count or the walk, plus entries
    /// read by a narrow-side scan. The field keeps its historical name,
    /// which the wire protocol carries.
    pub grid_nodes: usize,
}

impl QueryStats {
    /// Accumulates another query's counters into this one, field by field.
    ///
    /// This is the aggregation step of every composite execution: the
    /// live-index segment fan-out sums per-part stats into one total with it.
    /// It is associative and commutative, and `QueryStats::default()` (all
    /// counters zero) is its identity — accumulating the empty stats
    /// changes nothing, and accumulating *into* the empty stats copies the
    /// other side. Composites rely on that identity to start their fold
    /// from `QueryStats::default()` without a special first-part case.
    ///
    /// Note that after a composite merge the summed `reported` counts
    /// per-part deliveries (which may include overlap hits dropped by the
    /// home-range filter); composites overwrite `reported` with the count
    /// actually delivered to the sink after deduplication.
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.verified += other.verified;
        self.reported += other.reported;
        self.grid_nodes += other.grid_nodes;
    }
}

/// Sorts (unless the producer already emitted sorted positions), deduplicates
/// and streams a candidate buffer into a sink, returning the number of
/// positions delivered.
///
/// With `sorted == true` the sort pass is skipped entirely; a debug assertion
/// guards the claimed sortedness. The dedup is a streaming comparison against
/// the previously delivered position, so no second pass or extra buffer is
/// needed either way.
pub fn finalize_into(positions: &mut [usize], sorted: bool, sink: &mut dyn MatchSink) -> usize {
    if sorted {
        debug_assert!(
            positions.windows(2).all(|w| w[0] <= w[1]),
            "caller claimed sorted candidate positions but they are not"
        );
    } else {
        positions.sort_unstable();
    }
    let mut delivered = 0usize;
    let mut last = usize::MAX;
    for &pos in positions.iter() {
        if pos == last {
            continue;
        }
        last = pos;
        delivered += 1;
        if !sink.push(pos) {
            break;
        }
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_sorts_dedups_and_streams() {
        let mut buf = vec![5, 1, 5, 3, 1];
        let mut out = Vec::new();
        let delivered = finalize_into(&mut buf, false, &mut out);
        assert_eq!(out, vec![1, 3, 5]);
        assert_eq!(delivered, 3);
    }

    #[test]
    fn finalize_sorted_skips_the_sort_but_still_dedups() {
        let mut buf = vec![1, 1, 2, 7, 7, 7, 9];
        let mut out = Vec::new();
        let delivered = finalize_into(&mut buf, true, &mut out);
        assert_eq!(out, vec![1, 2, 7, 9]);
        assert_eq!(delivered, 4);
    }

    #[test]
    fn count_sink_counts_distinct_positions() {
        let mut buf = vec![4, 4, 2, 0, 2];
        let mut sink = CountSink::new();
        assert_eq!(finalize_into(&mut buf, false, &mut sink), 3);
        assert_eq!(sink.count, 3);
    }

    #[test]
    fn first_k_sink_stops_early_with_the_smallest_positions() {
        let mut buf = vec![9, 3, 7, 1, 5];
        let mut sink = FirstKSink::new(2);
        let delivered = finalize_into(&mut buf, false, &mut sink);
        assert_eq!(sink.positions, vec![1, 3]);
        assert!(sink.is_full());
        assert_eq!(delivered, 2);
        // A zero-capacity sink stores nothing; it is offered exactly one
        // position before the stream stops.
        let mut empty = FirstKSink::new(0);
        let mut buf = vec![1, 2];
        assert_eq!(finalize_into(&mut buf, false, &mut empty), 1);
        assert!(empty.positions.is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut total = QueryStats::default();
        total.accumulate(&QueryStats {
            candidates: 3,
            verified: 2,
            reported: 2,
            grid_nodes: 5,
        });
        total.accumulate(&QueryStats {
            candidates: 1,
            verified: 1,
            reported: 1,
            grid_nodes: 0,
        });
        assert_eq!(
            total,
            QueryStats {
                candidates: 4,
                verified: 3,
                reported: 3,
                grid_nodes: 5,
            }
        );
    }

    #[test]
    fn accumulating_the_empty_stats_is_the_identity() {
        // The segment merge folds from QueryStats::default(); both
        // identity directions must hold exactly.
        let sample = QueryStats {
            candidates: 7,
            verified: 5,
            reported: 4,
            grid_nodes: 2,
        };
        let mut total = sample;
        total.accumulate(&QueryStats::default());
        assert_eq!(total, sample, "right identity");
        let mut from_empty = QueryStats::default();
        from_empty.accumulate(&sample);
        assert_eq!(from_empty, sample, "left identity");
        let mut twice = QueryStats::default();
        twice.accumulate(&QueryStats::default());
        assert_eq!(twice, QueryStats::default(), "empty + empty = empty");
    }

    #[test]
    fn scratch_reports_capacity() {
        let mut scratch = QueryScratch::new();
        assert_eq!(scratch.capacity_bytes(), 0);
        scratch.positions.reserve(10);
        scratch.kmer_keys.reserve(4);
        assert!(scratch.capacity_bytes() >= 10 * std::mem::size_of::<usize>() + 32);
    }
}
