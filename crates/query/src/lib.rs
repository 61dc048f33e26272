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
//!   positions, reversed-prefix staging, grid-report output, k-mer key
//!   decode), so steady-state queries perform **no heap allocation** once the
//!   buffers have warmed up;
//! * [`QueryStats`] — the per-query instrumentation every index family
//!   reports (candidates enumerated, candidates verified, survivors
//!   delivered, grid nodes touched);
//! * [`finalize_into`] — the shared sort/dedup/stream step between a raw
//!   candidate buffer and a sink, with a `sorted` fast path for sources that
//!   already emit increasing positions;
//! * [`QueryBatch`] — a batched runner on the shared [`ius_exec::Executor`],
//!   answering many queries over one shared index with one scratch per worker
//!   and deterministic output order.
//!
//! The indexes themselves live in `ius-index`; they implement
//! `UncertainIndex::query_into(pattern, x, &mut QueryScratch, &mut dyn
//! MatchSink)` on top of these primitives, and the classic allocating
//! `query()` is a thin wrapper over that entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ius_exec::Executor;

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
    /// Creates a sink that accepts at most `k` positions.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            positions: Vec::with_capacity(k),
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
/// root). One scratch serves one thread; [`QueryBatch`] creates one per
/// worker.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Raw candidate/verified positions before [`finalize_into`].
    pub positions: Vec<usize>,
    /// Reversed-prefix staging (the backward pattern part of the minimizer
    /// indexes).
    pub pattern_rev: Vec<u8>,
    /// 2D-grid report output (point payloads).
    pub grid: Vec<u32>,
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
            + self.grid.capacity() * 4
            + self.kmer_keys.capacity() * 8
            + self.merged.capacity() * std::mem::size_of::<usize>()
    }
}

/// Per-query instrumentation, reported by every index family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidate occurrences enumerated before verification.
    pub candidates: usize,
    /// Candidates that passed verification (counted with multiplicity).
    pub verified: usize,
    /// Distinct positions delivered to the sink (fewer than the distinct
    /// survivors when the sink stopped the query early).
    pub reported: usize,
    /// Canonical 2D-grid nodes touched (0 for non-grid indexes).
    pub grid_nodes: usize,
    /// Nanoseconds spent selecting the pattern's minimizer and staging the
    /// split pattern (0 for engines without that stage, or when the
    /// `ius_obs` clock is stubbed out).
    pub scan_ns: u64,
    /// Nanoseconds spent locating candidate ranges (`equal_range` over the
    /// property arrays, or the compacted-trie descent).
    pub locate_ns: u64,
    /// Nanoseconds spent in candidate verification (grid reporting plus
    /// per-candidate probability checks).
    pub verify_ns: u64,
    /// Nanoseconds spent finalizing (sort/dedup/stream into the sink).
    pub report_ns: u64,
    /// Whether this query drew a stage-tracing ticket
    /// ([`ius_obs::clock::stage_ticket`]) and the `*_ns` stage fields were
    /// actually stamped. Stage tracing is sampled (1 in
    /// [`ius_obs::clock::STAGE_SAMPLE_EVERY`] per thread) because five
    /// clock reads per query are too expensive for the serve hot path;
    /// consumers must skip the stage fields of untimed queries instead of
    /// recording zeros. For a partitioned (segment fan-out) query the flag
    /// is true if *any* part was timed, and the stage sums cover exactly
    /// the timed parts.
    pub timed: bool,
}

impl QueryStats {
    /// Accumulates another query's counters into this one, field by field.
    ///
    /// This is the aggregation step of every composite/batched execution:
    /// the live-index segment fan-out and the batch executors sum per-part
    /// stats into one total with it.
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
        self.scan_ns += other.scan_ns;
        self.locate_ns += other.locate_ns;
        self.verify_ns += other.verify_ns;
        self.report_ns += other.report_ns;
        self.timed |= other.timed;
    }

    /// Total nanoseconds attributed to the per-stage timers.
    pub fn staged_ns(&self) -> u64 {
        self.scan_ns + self.locate_ns + self.verify_ns + self.report_ns
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

/// A batched query executor: runs `count` independent jobs on the shared
/// [`ius_exec::Executor`], one [`QueryScratch`] per worker, writing each
/// job's result into its own slot so the output order is deterministic
/// regardless of thread scheduling.
///
/// Jobs are partitioned into contiguous chunks (one per worker); with one
/// thread (or one job) everything runs inline on the calling thread with a
/// single scratch and no thread is spawned. A panicking job is re-raised on
/// the calling thread (queries are pure; a panic is a bug, not a result).
#[derive(Debug, Clone)]
pub struct QueryBatch {
    executor: Executor,
}

impl Default for QueryBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryBatch {
    /// Creates an executor with one worker per available CPU.
    pub fn new() -> Self {
        Self {
            executor: Executor::new(),
        }
    }

    /// Creates an executor with an explicit worker count (at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            executor: Executor::with_threads(threads.max(1)),
        }
    }

    /// Number of workers this executor uses.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Runs `count` jobs; `run_one(i, scratch)` answers job `i`. The returned
    /// vector has exactly `count` entries, entry `i` holding job `i`'s result.
    ///
    /// # Panics
    ///
    /// Re-raises the first (by job index) panic of a job.
    pub fn run<T, E, F>(&self, count: usize, run_one: F) -> Vec<Result<T, E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize, &mut QueryScratch) -> Result<T, E> + Sync,
    {
        self.executor
            .run_with(count, QueryScratch::new, |i, scratch| run_one(i, scratch))
            .into_iter()
            .map(|slot| match slot {
                Ok(result) => result,
                Err(task_panic) => panic!("{task_panic}"),
            })
            .collect()
    }
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
            scan_ns: 100,
            locate_ns: 10,
            verify_ns: 1,
            report_ns: 7,
            timed: true,
        });
        total.accumulate(&QueryStats {
            candidates: 1,
            verified: 1,
            reported: 1,
            grid_nodes: 0,
            scan_ns: 1,
            locate_ns: 2,
            verify_ns: 3,
            report_ns: 4,
            timed: false,
        });
        assert_eq!(
            total,
            QueryStats {
                candidates: 4,
                verified: 3,
                reported: 3,
                grid_nodes: 5,
                scan_ns: 101,
                locate_ns: 12,
                verify_ns: 4,
                report_ns: 11,
                timed: true,
            }
        );
        assert_eq!(total.staged_ns(), 128);
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
            scan_ns: 9,
            locate_ns: 8,
            verify_ns: 7,
            report_ns: 6,
            timed: true,
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
    fn batch_preserves_job_order_for_any_worker_count() {
        for threads in [1usize, 2, 3, 8] {
            let batch = QueryBatch::with_threads(threads);
            assert_eq!(batch.threads(), threads);
            let results: Vec<Result<usize, ()>> = batch.run(17, |i, scratch| {
                scratch.positions.push(i);
                Ok(i * i)
            });
            let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn batch_reports_per_job_errors_in_place() {
        let batch = QueryBatch::with_threads(4);
        let results: Vec<Result<usize, String>> = batch.run(6, |i, _scratch| {
            if i % 2 == 0 {
                Ok(i)
            } else {
                Err(format!("job {i}"))
            }
        });
        for (i, r) in results.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(*r.as_ref().unwrap(), i);
            } else {
                assert_eq!(r.as_ref().unwrap_err(), &format!("job {i}"));
            }
        }
    }

    #[test]
    fn batch_handles_empty_and_single_job_sets() {
        let batch = QueryBatch::new();
        let empty: Vec<Result<usize, ()>> = batch.run(0, |_, _| Ok(0));
        assert!(empty.is_empty());
        let one: Vec<Result<usize, ()>> = batch.run(1, |i, _| Ok(i + 41));
        assert_eq!(one[0], Ok(41));
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
