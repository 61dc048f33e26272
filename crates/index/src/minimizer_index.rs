//! The minimizer-based indexes: MWST, MWSA, MWST-G and MWSA-G
//! (Contribution 1 of the paper, Sections 3 and 5).
//!
//! All four variants share the same sampled data: the forward and backward
//! minimizer solid factor sets, heavy-string-encoded (`O(log z)` words per
//! factor). They differ in
//!
//! * how a pattern part is located — by walking a compacted trie (**tree**
//!   variants, `MWST*`) or by binary search over the sorted factor array
//!   (**array** variants, `MWSA*`), and
//! * how candidate occurrences are produced — by enumerating the subtree of
//!   the *longer* pattern part and verifying each candidate against `X`
//!   (the **simple** query of Section 5), or by a 2D range-reporting query
//!   that pairs the two parts and verifies candidates in `O(log z)` time from
//!   the stored mismatches alone (the **grid** variants of Theorem 9).

use crate::encode::{
    Direction, EncodedFactorSet, EncodedFactorSetBuilder, Mismatch, PendingFactor,
};
use crate::params::IndexParams;
use crate::traits::{validate_pattern, IndexStats, UncertainIndex};
use ius_arena::{Arena, ArenaVec};
use ius_grid::{GridPoint, RangeReporter, Rect};
use ius_obs::clock;
use ius_query::{finalize_into, MatchSink, QueryScratch};
use ius_sampling::MinimizerScheme;
use ius_text::trie::CompactedTrie;
use ius_weighted::{is_solid, Error, HeavyString, Result, WeightedString, ZEstimation};
use std::collections::HashMap;

pub use ius_query::QueryStats;

/// Which of the four index variants of the paper to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexVariant {
    /// MWST — minimizer solid factor trees, simple (verification) query.
    Tree,
    /// MWSA — sorted factor arrays, simple (verification) query.
    Array,
    /// MWST-G — trees plus the 2D grid of Theorem 9.
    TreeGrid,
    /// MWSA-G — arrays plus the 2D grid of Theorem 9.
    ArrayGrid,
}

impl IndexVariant {
    /// Does this variant keep the compacted tries?
    pub fn has_tree(&self) -> bool {
        matches!(self, IndexVariant::Tree | IndexVariant::TreeGrid)
    }

    /// Does this variant keep the 2D grid?
    pub fn has_grid(&self) -> bool {
        matches!(self, IndexVariant::TreeGrid | IndexVariant::ArrayGrid)
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            IndexVariant::Tree => "MWST",
            IndexVariant::Array => "MWSA",
            IndexVariant::TreeGrid => "MWST-G",
            IndexVariant::ArrayGrid => "MWSA-G",
        }
    }
}

/// A minimizer-based uncertain-string index (any of MWST / MWSA / MWST-G /
/// MWSA-G, depending on the [`IndexVariant`]).
#[derive(Debug, Clone)]
pub struct MinimizerIndex {
    params: IndexParams,
    variant: IndexVariant,
    n: usize,
    sigma: usize,
    /// The minimizer scheme, constructed once at build time so queries do
    /// not re-derive the keyer for every pattern.
    scheme: MinimizerScheme,
    heavy: HeavyString,
    fwd: EncodedFactorSet,
    bwd: EncodedFactorSet,
    fwd_trie: Option<CompactedTrie>,
    bwd_trie: Option<CompactedTrie>,
    grid: Option<RangeReporter>,
    /// Per grid point: the (forward leaf, backward leaf) it pairs,
    /// interleaved `[fwd₀, bwd₀, fwd₁, bwd₁, …]` so the pool is one flat
    /// array an arena open can view zero-copy.
    pairs: ArenaVec<u32>,
    /// The persisted arena the index's views borrow from, when it was
    /// loaded from a file (`None` for built indexes).
    /// Held so size accounting can count the single backing allocation once.
    arena: Option<Arena>,
    /// `"explicit"` (from a z-estimation) or `"space-efficient"` (Section 4).
    construction: &'static str,
}

impl MinimizerIndex {
    /// Builds the index from a weighted string, materialising the
    /// z-estimation internally (the Theorem 9 construction path).
    ///
    /// # Errors
    ///
    /// Propagates parameter and estimation validation errors.
    pub fn build(x: &WeightedString, params: IndexParams, variant: IndexVariant) -> Result<Self> {
        let estimation = ZEstimation::build(x, params.z)?;
        Self::build_from_estimation(x, &estimation, params, variant)
    }

    /// Builds the index from an already materialised z-estimation.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if the estimation's `z` differs from the
    /// parameters' `z` or the lengths are inconsistent.
    pub fn build_from_estimation(
        x: &WeightedString,
        estimation: &ZEstimation,
        params: IndexParams,
        variant: IndexVariant,
    ) -> Result<Self> {
        if (estimation.z() - params.z).abs() > 1e-9 {
            return Err(Error::InvalidParameters(format!(
                "estimation built for z = {} but parameters say z = {}",
                estimation.z(),
                params.z
            )));
        }
        if estimation.len() != x.len() {
            return Err(Error::InvalidParameters(format!(
                "estimation length {} does not match |X| = {}",
                estimation.len(),
                x.len()
            )));
        }
        let heavy = HeavyString::new(x);
        let scheme = MinimizerScheme::new(params.ell, params.k, x.sigma(), params.order);

        // Both builders borrow the heavy ranks — nothing is copied here, and
        // the forward factor set keeps sharing the allocation after `finish`.
        let mut fwd_builder =
            EncodedFactorSetBuilder::new(Direction::Forward, heavy.shared_ranks());
        let mut bwd_builder =
            EncodedFactorSetBuilder::new(Direction::Backward, heavy.shared_ranks());

        // Per-strand deviation buffer, reused across strands.
        let mut deviations: Vec<(u32, u8, f64)> = Vec::new();
        for (strand_id, strand) in estimation.strands().iter().enumerate() {
            let seq = strand.seq();
            let extents = strand.extents();
            // Positions where this strand deviates from the heavy string,
            // with the probability ratios needed for O(log z) verification.
            deviations.clear();
            let heavy_ranks = heavy.as_ranks();
            for (p, (&s, &h)) in seq.iter().zip(heavy_ranks).enumerate() {
                if s != h {
                    let ratio = x.prob(p, s) / x.prob(p, h);
                    deviations.push((p as u32, s, ratio));
                }
            }
            let minimizers = scheme.minimizers_respecting(seq, extents);
            // For backward factors we need, per minimizer position i, the
            // earliest start b whose property interval still covers i.
            for &anchor in &minimizers {
                // Forward factor: the longest property-respecting factor
                // starting at the minimizer.
                let end = strand.extent(anchor);
                let fwd_len = (end - anchor) as u32;
                let fwd_mismatches =
                    collect_mismatches(&deviations, anchor as u32, end as u32, false, |pos| {
                        pos - anchor as u32
                    });
                fwd_builder.push(PendingFactor {
                    anchor_x: anchor as u32,
                    len: fwd_len,
                    strand: strand_id as u32,
                    mismatches: fwd_mismatches,
                });
                // Backward factor: the longest property-respecting factor
                // ending at the minimizer, reversed. Its start is the first
                // position whose extent reaches past the anchor (extents are
                // non-decreasing, so binary search applies). Depths decrease
                // with position, so the collector emits in reverse to keep
                // them sorted without a post-hoc sort.
                let b = extents.partition_point(|&e| (e as usize) < anchor + 1);
                let bwd_len = (anchor - b + 1) as u32;
                let bwd_mismatches =
                    collect_mismatches(&deviations, b as u32, anchor as u32 + 1, true, |pos| {
                        anchor as u32 - pos
                    });
                bwd_builder.push(PendingFactor {
                    anchor_x: anchor as u32,
                    len: bwd_len,
                    strand: strand_id as u32,
                    mismatches: bwd_mismatches,
                });
            }
        }

        let (fwd, fwd_lcps) = fwd_builder.finish();
        let (bwd, bwd_lcps) = bwd_builder.finish();
        Self::assemble(
            x, params, variant, heavy, fwd, fwd_lcps, bwd, bwd_lcps, "explicit",
        )
    }

    /// Assembles the final index from the sorted factor sets (shared by the
    /// explicit and the space-efficient construction paths).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        x: &WeightedString,
        params: IndexParams,
        variant: IndexVariant,
        heavy: HeavyString,
        fwd: EncodedFactorSet,
        fwd_lcps: Vec<usize>,
        bwd: EncodedFactorSet,
        bwd_lcps: Vec<usize>,
        construction: &'static str,
    ) -> Result<Self> {
        let (fwd_trie, bwd_trie) = if variant.has_tree() {
            let fwd_lengths: Vec<usize> = (0..fwd.len()).map(|i| fwd.factor_len(i)).collect();
            let bwd_lengths: Vec<usize> = (0..bwd.len()).map(|i| bwd.factor_len(i)).collect();
            (
                Some(CompactedTrie::build(&fwd_lengths, &fwd_lcps, &fwd)),
                Some(CompactedTrie::build(&bwd_lengths, &bwd_lcps, &bwd)),
            )
        } else {
            (None, None)
        };

        let (grid, pairs) = if variant.has_grid() {
            let mut by_label: HashMap<(u32, u32), u32> = HashMap::with_capacity(fwd.len());
            for leaf in 0..fwd.len() {
                by_label.insert((fwd.anchor_x(leaf) as u32, fwd.strand(leaf)), leaf as u32);
            }
            let mut points = Vec::with_capacity(bwd.len());
            let mut pairs = Vec::with_capacity(2 * bwd.len());
            for bwd_leaf in 0..bwd.len() {
                let label = (bwd.anchor_x(bwd_leaf) as u32, bwd.strand(bwd_leaf));
                if let Some(&fwd_leaf) = by_label.get(&label) {
                    let payload = (pairs.len() / 2) as u32;
                    pairs.push(fwd_leaf);
                    pairs.push(bwd_leaf as u32);
                    points.push(GridPoint::new(fwd_leaf, bwd_leaf as u32, payload));
                }
            }
            // Unpaired backward leaves leave slack behind the capacity guess;
            // the pair table is retained for the index's lifetime.
            pairs.shrink_to_fit();
            (Some(RangeReporter::new(points)), ArenaVec::from(pairs))
        } else {
            (None, ArenaVec::new())
        };

        Ok(Self {
            params,
            variant,
            n: x.len(),
            sigma: x.sigma(),
            scheme: MinimizerScheme::new(params.ell, params.k, x.sigma(), params.order),
            heavy,
            fwd,
            bwd,
            fwd_trie,
            bwd_trie,
            grid,
            pairs,
            arena: None,
            construction,
        })
    }

    /// The `(forward leaf, backward leaf)` pair a grid payload refers to.
    #[inline]
    fn pair(&self, payload: usize) -> (u32, u32) {
        (self.pairs[2 * payload], self.pairs[2 * payload + 1])
    }

    /// The index parameters (`z`, `ℓ`, `k`, order).
    pub fn params(&self) -> &IndexParams {
        &self.params
    }

    /// The variant this index was built as.
    pub fn variant(&self) -> IndexVariant {
        self.variant
    }

    /// `"explicit"` or `"space-efficient"` — which construction produced it.
    pub fn construction(&self) -> &'static str {
        self.construction
    }

    /// Length of the corpus `X` the index was built over (candidate starts
    /// are verified against it, so serving the index with a corpus of a
    /// different length is always an error).
    pub fn corpus_len(&self) -> usize {
        self.n
    }

    // ---- persistence support (see `crate::persist`) --------------------

    pub(crate) fn persist_parts(&self) -> MinimizerParts<'_> {
        MinimizerParts {
            n: self.n,
            sigma: self.sigma,
            heavy: &self.heavy,
            fwd: &self.fwd,
            bwd: &self.bwd,
            fwd_trie: self.fwd_trie.as_ref(),
            bwd_trie: self.bwd_trie.as_ref(),
            grid: self.grid.as_ref(),
            pairs: &self.pairs,
        }
    }

    /// Reassembles a minimizer index from its persisted parts. Only the
    /// minimizer scheme is re-derived (an `O(1)` keyer setup, not a
    /// construction step); everything else is taken as loaded.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_loaded_parts(
        params: IndexParams,
        variant: IndexVariant,
        n: usize,
        sigma: usize,
        heavy: HeavyString,
        fwd: EncodedFactorSet,
        bwd: EncodedFactorSet,
        fwd_trie: Option<CompactedTrie>,
        bwd_trie: Option<CompactedTrie>,
        grid: Option<RangeReporter>,
        pairs: ArenaVec<u32>,
        arena: Option<Arena>,
        construction: &'static str,
    ) -> Self {
        Self {
            params,
            variant,
            n,
            sigma,
            scheme: MinimizerScheme::new(params.ell, params.k, sigma, params.order),
            heavy,
            fwd,
            bwd,
            fwd_trie,
            bwd_trie,
            grid,
            pairs,
            arena,
            construction,
        }
    }

    /// Number of sampled minimizer factors (leaves of the forward structure).
    pub fn num_sampled_factors(&self) -> usize {
        self.fwd.len()
    }

    /// Runs a query and additionally reports candidate/verification counts —
    /// a convenience wrapper over the sink-based engine with a one-shot
    /// scratch.
    ///
    /// # Errors
    ///
    /// Same contract as [`UncertainIndex::query`].
    pub fn query_with_stats(
        &self,
        pattern: &[u8],
        x: &WeightedString,
    ) -> Result<(Vec<usize>, QueryStats)> {
        let mut scratch = QueryScratch::new();
        let mut positions = Vec::new();
        let stats = self.run_query(pattern, x, &mut scratch, &mut positions)?;
        Ok((positions, stats))
    }

    /// The sink-based query engine: locate the two pattern parts, enumerate
    /// candidates (grid pairing or subtree walk), verify, and stream the
    /// survivors into `sink`. All intermediate state lives in `scratch`, so
    /// steady-state calls allocate nothing.
    fn run_query(
        &self,
        pattern: &[u8],
        x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        validate_pattern(pattern, self.params.ell)?;
        // Stage tracing is sampled: only queries that draw a ticket (1 in
        // `clock::STAGE_SAMPLE_EVERY` per thread, never while the clock is
        // stubbed) pay for clock stamps. A timed query's stamps are chained
        // — each boundary is read once and ends one stage while starting
        // the next, so four stages cost five reads; an untimed query pays
        // one thread-local tick and leaves the stage fields 0.
        let timed = clock::stage_ticket();
        let stamp = || if timed { clock::now_ns() } else { 0 };
        let t_scan = stamp();
        let mu = self
            .scheme
            .window_minimizer_with(&pattern[..self.params.ell], &mut scratch.kmer_keys);
        let suffix_part = &pattern[mu..];
        scratch.pattern_rev.clear();
        scratch
            .pattern_rev
            .extend(pattern[..=mu].iter().rev().copied());

        let t_locate = stamp();
        let mut stats = QueryStats {
            scan_ns: t_locate.saturating_sub(t_scan),
            timed,
            ..QueryStats::default()
        };
        scratch.positions.clear();
        let t_report = if self.variant.has_grid() {
            let fwd_range = self.locate(&self.fwd, self.fwd_trie.as_ref(), suffix_part);
            let bwd_range = self.locate(&self.bwd, self.bwd_trie.as_ref(), &scratch.pattern_rev);
            let t_verify = stamp();
            stats.locate_ns = t_verify.saturating_sub(t_locate);
            let rect = Rect::new(
                (fwd_range.0 as u32, fwd_range.1 as u32),
                (bwd_range.0 as u32, bwd_range.1 as u32),
            );
            let grid = self.grid.as_ref().expect("grid variant holds a grid");
            scratch.grid.clear();
            stats.grid_nodes = grid.report_into(&rect, &mut scratch.grid);
            for &payload in &scratch.grid {
                let (fwd_leaf, bwd_leaf) = self.pair(payload as usize);
                stats.candidates += 1;
                let anchor = self.fwd.anchor_x(fwd_leaf as usize);
                let Some(start) = anchor.checked_sub(mu) else {
                    continue;
                };
                if start + pattern.len() > self.n {
                    continue;
                }
                if self.verify_encoded(
                    pattern.len(),
                    mu,
                    start,
                    fwd_leaf as usize,
                    bwd_leaf as usize,
                ) {
                    stats.verified += 1;
                    scratch.positions.push(start);
                }
            }
            let t = stamp();
            stats.verify_ns = t.saturating_sub(t_verify);
            t
        } else {
            // Simple query (Section 5): walk the longer of the two parts and
            // verify every leaf below it against X. The reversed prefix part
            // has mu + 1 letters.
            let use_forward = suffix_part.len() > mu;
            let (set, trie, part): (&EncodedFactorSet, Option<&CompactedTrie>, &[u8]) =
                if use_forward {
                    (&self.fwd, self.fwd_trie.as_ref(), suffix_part)
                } else {
                    (
                        &self.bwd,
                        self.bwd_trie.as_ref(),
                        scratch.pattern_rev.as_slice(),
                    )
                };
            let (lo, hi) = self.locate(set, trie, part);
            let t_verify = stamp();
            stats.locate_ns = t_verify.saturating_sub(t_locate);
            for leaf in lo..hi {
                stats.candidates += 1;
                let anchor = set.anchor_x(leaf);
                let Some(start) = anchor.checked_sub(mu) else {
                    continue;
                };
                if start + pattern.len() > self.n {
                    continue;
                }
                let p = x.occurrence_probability(start, pattern);
                if is_solid(p, self.params.z) {
                    stats.verified += 1;
                    scratch.positions.push(start);
                }
            }
            let t = stamp();
            stats.verify_ns = t.saturating_sub(t_verify);
            t
        };
        stats.reported = finalize_into(&mut scratch.positions, false, sink);
        stats.report_ns = stamp().saturating_sub(t_report);
        Ok(stats)
    }

    /// Locates the half-open sorted-leaf range whose factors have `part` as a
    /// prefix, using the trie when present and binary search otherwise.
    fn locate(
        &self,
        set: &EncodedFactorSet,
        trie: Option<&CompactedTrie>,
        part: &[u8],
    ) -> (usize, usize) {
        match trie {
            Some(trie) => match trie.descend(part, set) {
                Some(descent) => (descent.leaves.0 as usize, descent.leaves.1 as usize),
                None => (0, 0),
            },
            None => set.equal_range(part),
        }
    }

    /// Verifies a grid candidate in `O(log z)` time from the heavy prefix
    /// products and the stored mismatch ratios — no access to `X`. Uses the
    /// log-ratios precomputed at build time, so no `ln` is evaluated per
    /// candidate.
    fn verify_encoded(
        &self,
        m: usize,
        mu: usize,
        start: usize,
        fwd_leaf: usize,
        bwd_leaf: usize,
    ) -> bool {
        let end = start + m;
        let mut log_prob = self.heavy.range_log_probability(start, end);
        // Mismatches of the backward factor cover positions [start, anchor);
        // depth d corresponds to position anchor - d, so depths 1..=mu fall
        // inside the pattern window (depth 0 is the anchor itself, accounted
        // for by the forward factor).
        for (&depth, log_ratio) in self
            .bwd
            .mismatch_depths(bwd_leaf)
            .iter()
            .zip(self.bwd.mismatch_log_ratios(bwd_leaf))
        {
            let d = depth as usize;
            if d >= 1 && d <= mu {
                log_prob += log_ratio;
            }
        }
        // Mismatches of the forward factor cover positions [anchor, end);
        // depth d corresponds to position anchor + d, inside the window for
        // d < m - mu.
        for (&depth, log_ratio) in self
            .fwd
            .mismatch_depths(fwd_leaf)
            .iter()
            .zip(self.fwd.mismatch_log_ratios(fwd_leaf))
        {
            let d = depth as usize;
            if d < m - mu {
                log_prob += log_ratio;
            }
        }
        is_solid(log_prob.exp(), self.params.z)
    }
}

/// A borrowed view of the persisted state of a [`MinimizerIndex`], consumed
/// by `crate::persist`.
pub(crate) struct MinimizerParts<'a> {
    pub(crate) n: usize,
    pub(crate) sigma: usize,
    pub(crate) heavy: &'a HeavyString,
    pub(crate) fwd: &'a EncodedFactorSet,
    pub(crate) bwd: &'a EncodedFactorSet,
    pub(crate) fwd_trie: Option<&'a CompactedTrie>,
    pub(crate) bwd_trie: Option<&'a CompactedTrie>,
    pub(crate) grid: Option<&'a RangeReporter>,
    /// Interleaved `[fwd₀, bwd₀, fwd₁, bwd₁, …]` grid pairs.
    pub(crate) pairs: &'a [u32],
}

/// Extracts the deviations of a strand from the heavy string that fall into
/// `[from, to)` (absolute positions), mapping them to factor-relative depths.
/// With `reverse` the slice is walked back to front, which keeps the output
/// sorted by depth when `depth_of` is position-decreasing (backward factors).
fn collect_mismatches(
    deviations: &[(u32, u8, f64)],
    from: u32,
    to: u32,
    reverse: bool,
    depth_of: impl Fn(u32) -> u32,
) -> Vec<Mismatch> {
    let lo = deviations.partition_point(|&(p, _, _)| p < from);
    let hi = deviations.partition_point(|&(p, _, _)| p < to);
    let map = |&(p, letter, ratio): &(u32, u8, f64)| Mismatch {
        depth: depth_of(p),
        letter,
        ratio,
    };
    if reverse {
        deviations[lo..hi].iter().rev().map(map).collect()
    } else {
        deviations[lo..hi].iter().map(map).collect()
    }
}

impl UncertainIndex for MinimizerIndex {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn query_into(
        &self,
        pattern: &[u8],
        x: &WeightedString,
        scratch: &mut QueryScratch,
        sink: &mut dyn MatchSink,
    ) -> Result<QueryStats> {
        self.run_query(pattern, x, scratch, sink)
    }

    fn size_bytes(&self) -> usize {
        let tries = self.fwd_trie.as_ref().map_or(0, |t| t.memory_bytes())
            + self.bwd_trie.as_ref().map_or(0, |t| t.memory_bytes());
        let grid = self.grid.as_ref().map_or(0, |g| g.memory_bytes()) + self.pairs.heap_bytes();
        // The forward set normally shares its heavy view with `self.heavy`
        // (count the allocation once), but a loaded file can give it an owned
        // copy. The backward set always owns its reversed copy.
        let fwd_bytes = if self.fwd.owns_heavy_view() {
            self.fwd.memory_bytes()
        } else {
            self.fwd.memory_bytes_without_heavy()
        };
        // Arena-backed components report zero owned bytes for their views;
        // the single backing allocation is counted here, once.
        let arena = self.arena.as_ref().map_or(0, Arena::alloc_bytes);
        self.heavy.memory_bytes() + fwd_bytes + self.bwd.memory_bytes() + tries + grid + arena
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            name: self.name().to_string(),
            size_bytes: self.size_bytes(),
            num_nodes: self.fwd_trie.as_ref().map_or(0, |t| t.num_nodes())
                + self.bwd_trie.as_ref().map_or(0, |t| t.num_nodes()),
            num_leaves: self.fwd.len() + self.bwd.len(),
            num_grid_points: self.grid.as_ref().map_or(0, |g| g.len()),
            num_mismatches: self.fwd.total_mismatches() + self.bwd.total_mismatches(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_datasets::pangenome::PangenomeConfig;
    use ius_datasets::patterns::PatternSampler;
    use ius_datasets::uniform::UniformConfig;
    use ius_weighted::solid;

    fn all_variants() -> [IndexVariant; 4] {
        [
            IndexVariant::Tree,
            IndexVariant::Array,
            IndexVariant::TreeGrid,
            IndexVariant::ArrayGrid,
        ]
    }

    // The cross-family differential coverage lives in the shared harness
    // `tests/differential.rs`, which also exercises every sink form.

    #[test]
    fn engine_matches_naive_on_sampled_patterns() {
        let x = PangenomeConfig {
            n: 1_200,
            delta: 0.08,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let z = 16.0;
        let ell = 32;
        let est = ZEstimation::build(&x, z).unwrap();
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let mut sampler = PatternSampler::new(&est, 3);
        let mut patterns = sampler.sample_many(ell, 20);
        patterns.extend(sampler.sample_many(64, 10));
        patterns.extend(sampler.sample_random(ell, 5, 4));
        for variant in all_variants() {
            let index = MinimizerIndex::build_from_estimation(&x, &est, params, variant).unwrap();
            let mut scratch = QueryScratch::new();
            for pattern in &patterns {
                let expected = solid::occurrences(&x, pattern, z);
                let mut got = Vec::new();
                let stats = index
                    .query_into(pattern, &x, &mut scratch, &mut got)
                    .unwrap();
                assert_eq!(
                    got,
                    expected,
                    "{} pattern {:?}",
                    index.name(),
                    &pattern[..4]
                );
                assert_eq!(stats.reported, got.len());
                if variant.has_grid() && !got.is_empty() {
                    assert!(stats.grid_nodes > 0);
                }
            }
        }
    }

    #[test]
    fn rejects_short_patterns_and_empty_patterns() {
        let x = UniformConfig {
            n: 120,
            sigma: 2,
            spread: 0.5,
            seed: 4,
        }
        .generate();
        let params = IndexParams::new(4.0, 16, 2).unwrap();
        let index = MinimizerIndex::build(&x, params, IndexVariant::Array).unwrap();
        assert!(matches!(
            index.query(&[0; 8], &x),
            Err(Error::PatternTooShort {
                pattern: 8,
                lower_bound: 16
            })
        ));
        assert!(index.query(&[], &x).is_err());
    }

    #[test]
    fn index_is_much_smaller_than_baselines_for_large_ell() {
        use crate::wsa::Wsa;
        use crate::wst::Wst;
        let x = PangenomeConfig {
            n: 4_000,
            delta: 0.05,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let z = 32.0;
        let est = ZEstimation::build(&x, z).unwrap();
        let wst = Wst::build_from_estimation(&est).unwrap();
        let wsa = Wsa::build_from_estimation(&est).unwrap();
        let params = IndexParams::new(z, 256, 4).unwrap();
        let mwsa =
            MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).unwrap();
        let mwst =
            MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Tree).unwrap();
        assert!(
            mwsa.size_bytes() * 4 < wsa.size_bytes(),
            "MWSA should be ≫ smaller than WSA"
        );
        assert!(
            mwst.size_bytes() * 4 < wst.size_bytes(),
            "MWST should be ≫ smaller than WST"
        );
        // Array variants are smaller than tree variants (Fig. 6 vs 6b shape).
        assert!(mwsa.size_bytes() < mwst.size_bytes());
    }

    #[test]
    fn size_decreases_with_ell_and_grows_with_z() {
        let x = PangenomeConfig {
            n: 3_000,
            delta: 0.06,
            seed: 2,
            ..Default::default()
        }
        .generate();
        let sizes: Vec<usize> = [32usize, 128, 512]
            .iter()
            .map(|&ell| {
                let params = IndexParams::new(16.0, ell, 4).unwrap();
                MinimizerIndex::build(&x, params, IndexVariant::Array)
                    .unwrap()
                    .size_bytes()
            })
            .collect();
        assert!(
            sizes[0] > sizes[1] && sizes[1] > sizes[2],
            "sizes {sizes:?} not decreasing in ℓ"
        );
        let size_small_z = MinimizerIndex::build(
            &x,
            IndexParams::new(4.0, 64, 4).unwrap(),
            IndexVariant::Array,
        )
        .unwrap()
        .size_bytes();
        let size_large_z = MinimizerIndex::build(
            &x,
            IndexParams::new(64.0, 64, 4).unwrap(),
            IndexVariant::Array,
        )
        .unwrap()
        .size_bytes();
        assert!(size_large_z > size_small_z);
    }

    #[test]
    fn stats_and_metadata_are_consistent() {
        // A pangenome-style string guarantees that solid windows of length ℓ
        // exist, so every variant actually samples factors.
        let x = PangenomeConfig {
            n: 600,
            delta: 0.05,
            seed: 13,
            ..Default::default()
        }
        .generate();
        let params = IndexParams::new(8.0, 16, 4).unwrap();
        for variant in all_variants() {
            let index = MinimizerIndex::build(&x, params, variant).unwrap();
            let stats = index.stats();
            assert_eq!(stats.name, variant.name());
            assert_eq!(index.construction(), "explicit");
            assert_eq!(stats.size_bytes, index.size_bytes());
            assert_eq!(variant.has_tree(), stats.num_nodes > 0);
            assert_eq!(variant.has_grid(), stats.num_grid_points > 0);
            assert!(stats.num_leaves > 0);
            assert_eq!(index.params().ell, 16);
        }
    }

    #[test]
    fn index_without_solid_windows_is_empty_but_queryable() {
        // High-entropy distributions with a small z: no window of length ℓ is
        // solid, so nothing is sampled; queries must still answer correctly
        // (with the empty set).
        let x = UniformConfig {
            n: 200,
            sigma: 4,
            spread: 0.9,
            seed: 13,
        }
        .generate();
        let params = IndexParams::new(2.0, 16, 4).unwrap();
        for variant in all_variants() {
            let index = MinimizerIndex::build(&x, params, variant).unwrap();
            assert_eq!(index.num_sampled_factors(), 0);
            let pattern = vec![0u8; 16];
            assert_eq!(index.query(&pattern, &x).unwrap(), Vec::<usize>::new());
        }
    }

    #[test]
    fn query_stats_count_candidates() {
        let x = PangenomeConfig {
            n: 1_000,
            delta: 0.05,
            seed: 21,
            ..Default::default()
        }
        .generate();
        let z = 8.0;
        let est = ZEstimation::build(&x, z).unwrap();
        let params = IndexParams::new(z, 32, 4).unwrap();
        let index =
            MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).unwrap();
        let mut sampler = PatternSampler::new(&est, 1);
        let pattern = sampler
            .sample(32)
            .expect("a solid pattern of length 32 exists");
        let (positions, stats) = index.query_with_stats(&pattern, &x).unwrap();
        assert!(!positions.is_empty());
        assert!(stats.candidates >= stats.verified);
        assert!(stats.verified >= stats.reported);
        assert_eq!(stats.reported, positions.len());
    }
}
