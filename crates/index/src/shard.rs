//! Sharded composite indexes: one logical index over `S` overlapping chunks
//! of `X`.
//!
//! A [`ShardedIndex`] partitions the weighted string into `S` *home ranges*
//! of roughly `n/S` positions each and builds one per-shard index (any
//! family, through the [`crate::builder`] layer) over the home range
//! extended by an **overlap** of `max_pattern_len − 1` positions to the
//! right. Any occurrence starts in exactly one home range, and because its
//! window is at most `max_pattern_len` letters it lies entirely inside that
//! shard's chunk — so no cross-boundary occurrence is ever lost, and
//! occurrence probabilities computed inside a chunk equal the global ones
//! (they only read the window's distributions).
//!
//! A query visits every shard in order on the calling thread through the
//! shared fan-out [`crate::overlap::query_parts`], with the caller's
//! [`QueryScratch`]. Each shard reports shard-local positions; hits that
//! fall into the overlap region (their start belongs to the *next* shard's
//! home range) are dropped before the sink sees them — that single
//! home-range filter is the deduplication, and it makes the concatenated
//! per-shard outputs globally sorted, so the final merge is allocation-free
//! and sort-free. The differential harness asserts the result identical to
//! the unsharded index for every family.

use crate::builder::{AnyIndex, IndexSpec};
use crate::overlap::{chunk_end, overlap_len, query_parts, Part};
use crate::traits::{validate_pattern, IndexStats, UncertainIndex};
use ius_arena::Arena;
use ius_query::{finalize_into, MatchSink, QueryScratch, QueryStats};
use ius_weighted::{Error, Result, WeightedString};

/// One shard: its global offset, the width of the home range it is
/// authoritative for, its chunk of `X` and the index built over the chunk.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Global position of the chunk's first letter.
    pub(crate) offset: usize,
    /// Width of the home range (occurrence starts this shard reports).
    pub(crate) home_len: usize,
    /// The chunk of `X` (home range + overlap), owned by the shard.
    pub(crate) x: WeightedString,
    /// The index over the chunk.
    pub(crate) index: AnyIndex,
}

/// A sharded composite index over one weighted string.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    spec: IndexSpec,
    /// Length of the global string.
    n: usize,
    /// Upper bound on supported pattern lengths (the overlap covers
    /// occurrences up to this length; longer patterns are rejected).
    max_pattern_len: usize,
    shards: Vec<Shard>,
    /// The backing arena when opened zero-copy from a v3 file. The nested
    /// per-shard indexes borrow from it but do not retain a handle of their
    /// own, so the allocation is counted exactly once, here.
    arena: Option<Arena>,
}

impl ShardedIndex {
    /// Builds one per-shard index of the `spec`'s family over `num_shards`
    /// overlapping chunks of `x`. `max_pattern_len` bounds the pattern
    /// lengths the sharded index will serve; the chunk overlap is
    /// `max_pattern_len − 1`.
    ///
    /// Home ranges are `⌈n / num_shards⌉` wide; when `n` is not an exact
    /// multiple, trailing shards shrink and empty trailing home ranges are
    /// dropped (so [`ShardedIndex::num_shards`] can be smaller than
    /// requested).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if `num_shards` is zero or exceeds `n`,
    /// or if `max_pattern_len` is smaller than the family's minimum pattern
    /// length; construction errors of the per-shard builds are propagated.
    pub fn build(
        x: &WeightedString,
        spec: IndexSpec,
        num_shards: usize,
        max_pattern_len: usize,
    ) -> Result<Self> {
        Self::build_with_threads(x, spec, num_shards, max_pattern_len, 1)
    }

    /// [`ShardedIndex::build`] with the per-shard builds fanned out over
    /// `build_threads` workers (0 = all CPUs) on the shared
    /// [`ius_exec::Executor`]. Shard boundaries are planned serially before
    /// the fan-out, each shard builds independently over its own chunk, and
    /// errors propagate in shard order — the built index is byte-identical
    /// to the serial [`ShardedIndex::build`] at every thread count. Keep the
    /// `spec`'s own fan-out at 1 when building shards concurrently; nesting
    /// the two multiplies the worker count.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedIndex::build`].
    pub fn build_with_threads(
        x: &WeightedString,
        spec: IndexSpec,
        num_shards: usize,
        max_pattern_len: usize,
        build_threads: usize,
    ) -> Result<Self> {
        let n = x.len();
        if n == 0 {
            return Err(Error::EmptyInput("weighted string"));
        }
        if num_shards == 0 {
            return Err(Error::InvalidParameters(
                "num_shards = 0: a sharded index needs at least one shard".into(),
            ));
        }
        if num_shards > n {
            return Err(Error::InvalidParameters(format!(
                "num_shards = {num_shards} exceeds the string length {n} \
                 (every shard needs a non-empty home range)"
            )));
        }
        if max_pattern_len == 0 {
            return Err(Error::InvalidParameters(
                "max_pattern_len = 0: the sharded index could not serve any pattern".into(),
            ));
        }
        if max_pattern_len < spec.lower_bound() {
            return Err(Error::InvalidParameters(format!(
                "max_pattern_len = {max_pattern_len} is below the family's minimum \
                 pattern length {}",
                spec.lower_bound()
            )));
        }
        let overlap = overlap_len(max_pattern_len);
        let home = n.div_ceil(num_shards);
        // Plan every shard's boundaries serially, then fan the independent
        // chunk builds out; assembling in plan order keeps the shard list —
        // and any propagated error — identical at every thread count.
        let mut plans: Vec<(usize, usize)> = Vec::with_capacity(num_shards);
        let mut offset = 0usize;
        while offset < n {
            let home_len = home.min(n - offset);
            plans.push((offset, home_len));
            offset += home_len;
        }
        let executor = ius_exec::Executor::with_threads(build_threads);
        let built = executor.run(plans.len(), |i| -> Result<Shard> {
            let (offset, home_len) = plans[i];
            let end = chunk_end(offset, home_len, overlap, n);
            let chunk = x.substring(offset, end)?;
            let index = spec.build(&chunk)?;
            Ok(Shard {
                offset,
                home_len,
                x: chunk,
                index,
            })
        });
        let mut shards = Vec::with_capacity(plans.len());
        for outcome in built {
            match outcome {
                Ok(shard) => shards.push(shard?),
                Err(task_panic) => panic!("{task_panic}"),
            }
        }
        Ok(Self {
            spec,
            n,
            max_pattern_len,
            shards,
            arena: None,
        })
    }

    /// The family/parameter descriptor the shards were built from.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Length of the global string.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the global string is empty (never the case for a
    /// successfully built index).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The maximum pattern length this index serves.
    pub fn max_pattern_len(&self) -> usize {
        self.max_pattern_len
    }

    /// The chunk overlap (`max_pattern_len − 1`).
    pub fn overlap(&self) -> usize {
        self.max_pattern_len - 1
    }

    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The sink-based query without an external corpus: every shard owns its
    /// chunk of `X`, so a sharded index is fully self-contained (which is
    /// what lets a persisted sharded file be served without regenerating the
    /// corpus). [`UncertainIndex::query_into`] delegates here, ignoring its
    /// `x` argument.
    ///
    /// # Errors
    ///
    /// Pattern-validation errors ([`Error::EmptyInput`],
    /// [`Error::PatternTooShort`], [`Error::PatternTooLong`]) and query
    /// errors of the per-shard indexes.
    pub fn query_owned_into(
        &self,
        pattern: &[u8],
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        validate_pattern(pattern, self.spec.lower_bound())?;
        if pattern.len() > self.max_pattern_len {
            return Err(Error::PatternTooLong {
                pattern: pattern.len(),
                upper_bound: self.max_pattern_len,
            });
        }
        // Every shard queries its own chunk (shard-local coordinates); its
        // hits are filtered to the home range and translated to global
        // offsets on the way into `scratch.merged`.
        let parts = self.shards.iter().map(|shard| Part {
            index: &shard.index,
            chunk: &shard.x,
            home_len: shard.home_len,
            offset: shard.offset,
        });
        let mut total = query_parts(parts, pattern, scratch)?;
        // The accumulated `reported` counted shard-local deliveries
        // (including overlap hits the home filter dropped); the
        // authoritative count is what actually reaches the sink.
        total.reported = finalize_into(&mut scratch.merged, true, sink);
        Ok(total)
    }

    /// Collects all occurrence positions without an external corpus — the
    /// allocating convenience wrapper over
    /// [`ShardedIndex::query_owned_into`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedIndex::query_owned_into`].
    pub fn query_owned(&self, pattern: &[u8]) -> Result<Vec<usize>> {
        let mut scratch = QueryScratch::new();
        let mut positions = Vec::new();
        self.query_owned_into(pattern, &mut scratch, &mut positions)?;
        Ok(positions)
    }

    /// Reassembles a sharded index from persisted parts (see
    /// `crate::persist`), validating the routing invariants: home ranges
    /// tile `[0, n)` in order and every chunk covers its home range plus the
    /// overlap (clipped at `n`).
    pub(crate) fn from_loaded_parts(
        spec: IndexSpec,
        n: usize,
        max_pattern_len: usize,
        shards: Vec<Shard>,
        arena: Option<Arena>,
    ) -> std::result::Result<Self, String> {
        if max_pattern_len < spec.lower_bound() {
            return Err("stored max_pattern_len is below the family's lower bound".into());
        }
        if shards.is_empty() {
            return Err("a sharded index needs at least one shard".into());
        }
        let overlap = overlap_len(max_pattern_len);
        let mut expected_offset = 0usize;
        for (i, shard) in shards.iter().enumerate() {
            if shard.offset != expected_offset || shard.home_len == 0 {
                return Err(format!("shard {i} does not tile the string"));
            }
            let end = chunk_end(shard.offset, shard.home_len, overlap, n);
            if shard.x.len() != end - shard.offset {
                return Err(format!("shard {i}'s chunk does not cover its overlap"));
            }
            expected_offset += shard.home_len;
        }
        if expected_offset != n {
            return Err("shard home ranges do not cover the string".into());
        }
        Ok(Self {
            spec,
            n,
            max_pattern_len,
            shards,
            arena,
        })
    }
}

impl UncertainIndex for ShardedIndex {
    fn name(&self) -> &'static str {
        "SHARDED"
    }

    fn query_into(
        &self,
        pattern: &[u8],
        _x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        self.query_owned_into(pattern, scratch, sink)
    }

    fn size_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.index.size_bytes() + shard.x.memory_bytes())
            .sum::<usize>()
            + self.arena.as_ref().map_or(0, Arena::alloc_bytes)
    }

    fn stats(&self) -> IndexStats {
        let mut aggregate = IndexStats {
            name: format!(
                "SHARDED-{}(S={})",
                self.spec.family.name(),
                self.shards.len()
            ),
            ..Default::default()
        };
        for shard in &self.shards {
            let stats = shard.index.stats();
            aggregate.size_bytes += stats.size_bytes + shard.x.memory_bytes();
            aggregate.num_nodes += stats.num_nodes;
            aggregate.num_leaves += stats.num_leaves;
            aggregate.num_grid_points += stats.num_grid_points;
            aggregate.num_mismatches += stats.num_mismatches;
        }
        aggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexFamily;
    use crate::minimizer_index::IndexVariant;
    use crate::naive::NaiveIndex;
    use crate::params::IndexParams;
    use ius_datasets::pangenome::PangenomeConfig;
    use ius_datasets::patterns::PatternSampler;
    use ius_datasets::uniform::UniformConfig;
    use ius_weighted::ZEstimation;

    #[test]
    fn sharded_output_is_identical_to_unsharded_for_any_shard_count() {
        let x = PangenomeConfig {
            n: 1_100,
            delta: 0.07,
            seed: 23,
            ..Default::default()
        }
        .generate();
        let (z, ell) = (16.0, 32usize);
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
        let unsharded = spec.build(&x).unwrap();
        let est = ZEstimation::build(&x, z).unwrap();
        let mut sampler = PatternSampler::new(&est, 9);
        let mut patterns = sampler.sample_many(ell, 20);
        patterns.extend(sampler.sample_many(2 * ell, 10));
        patterns.extend(sampler.sample_random(ell, 10, 7));
        assert!(!patterns.is_empty());
        for num_shards in [1usize, 3, 4, 7] {
            let sharded = ShardedIndex::build(&x, spec, num_shards, 2 * ell).unwrap();
            assert!(sharded.num_shards() >= 1 && sharded.num_shards() <= num_shards);
            assert_eq!(sharded.overlap(), 2 * ell - 1);
            for pattern in &patterns {
                assert_eq!(
                    sharded.query(pattern, &x).unwrap(),
                    unsharded.query(pattern, &x).unwrap(),
                    "S = {num_shards}, pattern {:?}…",
                    &pattern[..4]
                );
            }
        }
    }

    #[test]
    fn parallel_shard_build_matches_serial_at_every_thread_count() {
        let x = PangenomeConfig {
            n: 900,
            delta: 0.06,
            seed: 41,
            ..Default::default()
        }
        .generate();
        let (z, ell) = (8.0, 16usize);
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
        let serial = ShardedIndex::build(&x, spec, 5, 2 * ell).unwrap();
        let est = ZEstimation::build(&x, z).unwrap();
        let mut sampler = PatternSampler::new(&est, 3);
        let patterns = sampler.sample_many(ell, 15);
        assert!(!patterns.is_empty());
        for threads in [2usize, 3, 8] {
            let parallel = ShardedIndex::build_with_threads(&x, spec, 5, 2 * ell, threads).unwrap();
            assert_eq!(parallel.num_shards(), serial.num_shards());
            assert_eq!(parallel.stats().size_bytes, serial.stats().size_bytes);
            for pattern in &patterns {
                assert_eq!(
                    parallel.query(pattern, &x).unwrap(),
                    serial.query(pattern, &x).unwrap(),
                    "threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_naive_matches_direct_scan_including_boundaries() {
        // A deliberately tiny string with many shards, so nearly every
        // occurrence window crosses a chunk boundary.
        let x = UniformConfig {
            n: 64,
            sigma: 2,
            spread: 0.4,
            seed: 5,
        }
        .generate();
        let z = 6.0;
        let params = IndexParams::new(z, 1, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Naive, params);
        let direct = NaiveIndex::new(z).unwrap();
        let sharded = ShardedIndex::build(&x, spec, 8, 12).unwrap();
        for len in 1..=12usize {
            for letter in 0..2u8 {
                let pattern = vec![letter; len];
                assert_eq!(
                    sharded.query(&pattern, &x).unwrap(),
                    direct.query(&pattern, &x).unwrap(),
                    "pattern {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn pattern_length_contract() {
        let x = UniformConfig {
            n: 200,
            sigma: 2,
            spread: 0.5,
            seed: 2,
        }
        .generate();
        let params = IndexParams::new(8.0, 8, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
        let sharded = ShardedIndex::build(&x, spec, 4, 16).unwrap();
        assert_eq!(sharded.max_pattern_len(), 16);
        assert!(matches!(
            sharded.query(&[], &x),
            Err(Error::EmptyInput("pattern"))
        ));
        assert!(matches!(
            sharded.query(&[0u8; 4], &x),
            Err(Error::PatternTooShort { .. })
        ));
        assert!(matches!(
            sharded.query(&[0u8; 17], &x),
            Err(Error::PatternTooLong {
                pattern: 17,
                upper_bound: 16
            })
        ));
        assert!(sharded.query(&[0u8; 16], &x).is_ok());
    }

    #[test]
    fn build_validation() {
        let x = UniformConfig {
            n: 50,
            sigma: 2,
            spread: 0.5,
            seed: 1,
        }
        .generate();
        let params = IndexParams::new(4.0, 8, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params);
        // S = 0: typed error, no degenerate (shardless) map.
        let err = ShardedIndex::build(&x, spec, 0, 16).unwrap_err();
        assert!(matches!(err, Error::InvalidParameters(_)));
        assert!(err.to_string().contains("num_shards = 0"));
        // S > |X|: typed error instead of empty trailing shards.
        let err = ShardedIndex::build(&x, spec, 51, 16).unwrap_err();
        assert!(matches!(err, Error::InvalidParameters(_)));
        assert!(err.to_string().contains("51") && err.to_string().contains("50"));
        // max_pattern_len = 0: typed error instead of an overlap underflow.
        let err = ShardedIndex::build(&x, spec, 2, 0).unwrap_err();
        assert!(matches!(err, Error::InvalidParameters(_)));
        assert!(err.to_string().contains("max_pattern_len = 0"));
        // max_pattern_len below ℓ.
        assert!(ShardedIndex::build(&x, spec, 2, 4).is_err());
        let ok = ShardedIndex::build(&x, spec, 2, 8).unwrap();
        assert_eq!(ok.len(), 50);
        assert!(!ok.is_empty());
        assert!(ok.size_bytes() > 0);
        let stats = ok.stats();
        assert!(stats.name.contains("MWSA") && stats.name.contains("S=2"));
        assert_eq!(stats.size_bytes, ok.size_bytes());
    }

    #[test]
    fn stats_aggregate_over_shards() {
        let x = PangenomeConfig {
            n: 600,
            delta: 0.05,
            seed: 31,
            ..Default::default()
        }
        .generate();
        let params = IndexParams::new(8.0, 16, x.sigma()).unwrap();
        let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::TreeGrid), params);
        let sharded = ShardedIndex::build(&x, spec, 3, 32).unwrap();
        let est = ZEstimation::build(&x, 8.0).unwrap();
        let pattern = PatternSampler::new(&est, 1).sample(16).unwrap();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let stats = sharded
            .query_into(&pattern, &x, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(stats.reported, out.len());
        assert!(stats.candidates >= stats.verified);
        let aggregate = sharded.stats();
        assert!(aggregate.num_nodes > 0);
        assert!(aggregate.num_grid_points > 0);
    }
}
