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
//!
//! Only the leaves a query can land on are stored. A factor that is a
//! prefix of another factor of the same anchor (an equal one included) is
//! dropped by [`EncodedFactorSetBuilder::finish`]: every pattern part it
//! spells, the longer factor spells too, at the same anchor and with the
//! same letters. The grid stores each occurrence as the pair of leaves
//! that survive its two factors, every distinct pair once, so a leaf
//! carries one point or several; [`RankSpaceGrid`] ranks the points on
//! both axes and maps leaf ranges to point ranges.

use crate::builder::IndexFamily;
use crate::encode::{check_u32_positions, Direction, EncodedFactorSet, EncodedFactorSetBuilder};
use crate::params::IndexParams;
use crate::traits::{validate_pattern, IndexStats, UncertainIndex};
use ius_arena::narrow::Entry;
use ius_arena::{with_entries, Arena, ArenaVec};
use ius_grid::{GridPoint, RankSpaceGrid, Rect};
use ius_obs::{clock, trace};
use ius_query::{finalize_into, MatchSink, QueryScratch};
use ius_sampling::MinimizerScheme;
use ius_text::trie::CompactedTrie;
use ius_weighted::property::first_covering;
use ius_weighted::{is_solid, Error, HeavyString, Result, WeightedString, ZEstimation};
use std::sync::Arc;

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
    /// The minimizer family that built the index: its variant, and the
    /// explicit or the space-efficient construction.
    family: IndexFamily,
    n: usize,
    sigma: usize,
    /// The minimizer scheme, constructed once at build time so queries do
    /// not re-derive the keyer for every pattern.
    scheme: MinimizerScheme,
    /// The heavy string's letters, shared with the forward factor set.
    heavy: Arc<Vec<u8>>,
    /// `log_prefix[i]` = Σ_{j < i} ln p_j(H_X[j]) (`n + 1` entries), read
    /// by grid verification only: empty in MWST and MWSA, which verify
    /// against `X`.
    log_prefix: ArenaVec<f64>,
    fwd: EncodedFactorSet,
    bwd: EncodedFactorSet,
    fwd_trie: Option<CompactedTrie>,
    bwd_trie: Option<CompactedTrie>,
    /// The 2D grid over `(forward leaf, backward leaf)` pairs.
    grid: Option<RankSpaceGrid>,
    /// The persisted arena the index's views borrow from, when it was
    /// loaded from a file (`None` for built indexes).
    /// Held so size accounting can count the single backing allocation once.
    arena: Option<Arena>,
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
    /// parameters' `z`, the lengths are inconsistent, `|X|` exceeds
    /// `u32::MAX` positions, a factor set exceeds `u32::MAX` factors or
    /// mismatches.
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
        // Positions, anchors, lengths and depths narrow to u32 below.
        check_u32_positions(x.len())?;
        // The letters alone: only a grid variant reads the log-prefix
        // table, and `assemble` computes it once the sorts are done.
        let heavy = Arc::new(HeavyString::letters_of(x));
        let scheme = MinimizerScheme::new(params.ell, params.k, x.sigma(), params.order);

        // Both builders borrow the heavy ranks — nothing is copied here, and
        // the forward factor set keeps sharing the allocation after `finish`.
        let mut fwd_builder = EncodedFactorSetBuilder::new(Direction::Forward, Arc::clone(&heavy));
        let mut bwd_builder = EncodedFactorSetBuilder::new(Direction::Backward, Arc::clone(&heavy));

        // Per-strand deviation buffer, reused across strands.
        let mut deviations: Vec<(u32, u8)> = Vec::new();
        // Every (minimizer, strand) pushes one forward and one backward
        // factor, in step: pushed factor `i` of either builder is the same
        // occurrence, which is how the grid pairs the leaves that survive
        // them. Both share its anchor, so one copy is kept for both.
        let mut anchors: Vec<u32> = Vec::new();
        for strand in estimation.strands() {
            let seq = strand.seq();
            // Positions where this strand deviates from the heavy string,
            // with the strand's letter there.
            deviations.clear();
            for (p, (&s, &h)) in seq.iter().zip(heavy.iter()).enumerate() {
                if s != h {
                    deviations.push((p as u32, s));
                }
            }
            // The strand's property lengths are matched to their width once:
            // the scan and the anchor loop below run on `&[u8]`, `&[u16]` or
            // `&[u32]`.
            with_entries!(strand.lengths(), lens => {
                let minimizers = scheme.minimizers_respecting(seq, lens);
                for &anchor in &minimizers {
                    let a = anchor as u32;
                    // Forward factor: the longest property-respecting factor
                    // starting at the minimizer.
                    let end = a + lens[anchor].index() as u32;
                    anchors.push(a);
                    fwd_builder.push(
                        end - a,
                        deviations_in(&deviations, a, end)
                            .iter()
                            .map(|&(p, letter)| (p - a, letter)),
                    )?;
                    // Backward factor: the longest property-respecting factor
                    // ending at the minimizer, reversed. Its start is the
                    // earliest whose property interval still covers the
                    // anchor. Depths decrease with position, so walking the
                    // deviations back to front keeps them sorted without a
                    // post-hoc sort.
                    let b = first_covering(lens, anchor) as u32;
                    bwd_builder.push(
                        a - b + 1,
                        deviations_in(&deviations, b, a + 1)
                            .iter()
                            .rev()
                            .map(|&(p, letter)| (a - p, letter)),
                    )?;
                }
            });
        }

        // Free the strand buffer (up to 8 B per position) before the sorts,
        // and the backward pools' growth slack before the forward sort.
        drop(deviations);
        anchors.shrink_to_fit();
        bwd_builder.shrink_to_fit();
        let (fwd, fwd_leaf) = fwd_builder.finish(&anchors);
        let (bwd, bwd_leaf) = bwd_builder.finish(&anchors);
        drop(anchors);
        // Occurrence `i` is the point (forward leaf, backward leaf) of the
        // leaves that survive its two factors; occurrences whose factors
        // survive onto the same pair share one point.
        let grid = variant.has_grid().then(|| {
            let points = fwd_leaf
                .iter()
                .zip(&bwd_leaf)
                .map(|(&x, &y)| GridPoint::new(x, y))
                .collect();
            drop((fwd_leaf, bwd_leaf));
            RankSpaceGrid::new(points)
        });
        let family = IndexFamily::Minimizer(variant);
        Ok(Self::assemble(x, params, family, heavy, fwd, bwd, grid))
    }

    /// Assembles the index from the letter-only factor sets of either
    /// construction over the heavy letters `heavy` (plus the grid of a grid
    /// variant): the one place that decides which tables each variant
    /// keeps. Grid variants get the heavy log-prefix table and each kept
    /// mismatch's log-ratio, read from `X`; the others verify against `X`.
    /// Tree variants get their tries; the array variants get the key
    /// directories that only the array lookup reads.
    pub(crate) fn assemble(
        x: &WeightedString,
        params: IndexParams,
        family: IndexFamily,
        heavy: Arc<Vec<u8>>,
        mut fwd: EncodedFactorSet,
        mut bwd: EncodedFactorSet,
        grid: Option<RankSpaceGrid>,
    ) -> Self {
        let variant = family.minimizer_variant().expect("a minimizer family");
        assert_eq!(variant.has_grid(), grid.is_some(), "grid iff grid variant");
        let mut log_prefix = ArenaVec::new();
        if variant.has_grid() {
            log_prefix = HeavyString::log_prefix_of(x, &heavy);
            let log_ratio = |p: usize, c: u8| (x.prob(p, c) / x.prob(p, heavy[p])).ln();
            fwd.derive_log_ratios(log_ratio);
            bwd.derive_log_ratios(log_ratio);
        }
        if !variant.has_tree() {
            fwd.derive_key_directory();
            bwd.derive_key_directory();
        }
        let trie = |set: &EncodedFactorSet| {
            variant
                .has_tree()
                .then(|| CompactedTrie::build(&set.neighbour_lcps(), set))
        };
        let (fwd_trie, bwd_trie) = (trie(&fwd), trie(&bwd));

        Self {
            params,
            family,
            n: x.len(),
            sigma: x.sigma(),
            scheme: MinimizerScheme::new(params.ell, params.k, x.sigma(), params.order),
            heavy,
            log_prefix,
            fwd,
            bwd,
            fwd_trie,
            bwd_trie,
            grid,
            arena: None,
        }
    }

    /// The index parameters (`z`, `ℓ`, `k`, order).
    pub fn params(&self) -> &IndexParams {
        &self.params
    }

    /// The family that built this index: its variant, and the explicit or
    /// the space-efficient construction.
    pub fn family(&self) -> IndexFamily {
        self.family
    }

    /// The variant this index was built as.
    pub fn variant(&self) -> IndexVariant {
        self.family.minimizer_variant().expect("a minimizer family")
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
            log_prefix: &self.log_prefix,
            fwd: &self.fwd,
            bwd: &self.bwd,
            fwd_trie: self.fwd_trie.as_ref(),
            bwd_trie: self.bwd_trie.as_ref(),
            grid: self.grid.as_ref(),
        }
    }

    /// Reassembles a minimizer index from its persisted parts. Only the
    /// minimizer scheme is re-derived (an `O(1)` keyer setup, not a
    /// construction step); everything else is taken as loaded.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_loaded_parts(
        params: IndexParams,
        family: IndexFamily,
        n: usize,
        sigma: usize,
        heavy: Arc<Vec<u8>>,
        log_prefix: ArenaVec<f64>,
        fwd: EncodedFactorSet,
        bwd: EncodedFactorSet,
        fwd_trie: Option<CompactedTrie>,
        bwd_trie: Option<CompactedTrie>,
        grid: Option<RankSpaceGrid>,
        arena: Option<Arena>,
    ) -> Self {
        Self {
            params,
            family,
            n,
            sigma,
            scheme: MinimizerScheme::new(params.ell, params.k, sigma, params.order),
            heavy,
            log_prefix,
            fwd,
            bwd,
            fwd_trie,
            bwd_trie,
            grid,
            arena,
        }
    }

    /// Number of sampled minimizer factors (leaves of the forward structure).
    pub fn num_sampled_factors(&self) -> usize {
        self.fwd.len()
    }

    /// The forward and the backward factor set, in that order: their leaf
    /// and mismatch counts and the widths their tables are stored at.
    pub fn factor_sets(&self) -> [&EncodedFactorSet; 2] {
        [&self.fwd, &self.bwd]
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
        validate_pattern(pattern, self.params.ell, x.sigma())?;
        // Stages are stamped iff the request was sampled: the caller armed
        // a trace on this thread (one request in `clock::STAGE_SAMPLE_EVERY`
        // per connection, never while the clock is stubbed). A timed
        // query's stamps are chained — each boundary is read once and ends
        // one stage while starting the next, so four stages cost five
        // reads; an untimed query pays one thread-local flag read and
        // leaves the stage fields 0.
        let timed = trace::active();
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
        let t_report = if self.variant().has_grid() {
            let fwd_range = self.locate(&self.fwd, self.fwd_trie.as_ref(), suffix_part);
            let bwd_range = self.locate(&self.bwd, self.bwd_trie.as_ref(), &scratch.pattern_rev);
            let t_verify = stamp();
            stats.locate_ns = t_verify.saturating_sub(t_locate);
            let rect = Rect::new(
                (fwd_range.0 as u32, fwd_range.1 as u32),
                (bwd_range.0 as u32, bwd_range.1 as u32),
            );
            let grid = self.grid.as_ref().expect("grid variant holds a grid");
            let (mut candidates, mut verified) = (0usize, 0usize);
            let positions = &mut scratch.positions;
            // A grid point is a (forward leaf, backward leaf) pair; each is
            // verified as it is reported.
            stats.grid_nodes = grid.report_with(&rect, |point| {
                candidates += 1;
                let (fwd_leaf, bwd_leaf) = (point.x as usize, point.y as usize);
                let Some(start) = self.fwd.anchor_x(fwd_leaf).checked_sub(mu) else {
                    return;
                };
                if start + pattern.len() <= self.n
                    && self.verify_encoded(pattern.len(), mu, start, fwd_leaf, bwd_leaf)
                {
                    verified += 1;
                    positions.push(start);
                }
            });
            stats.candidates = candidates;
            stats.verified = verified;
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
            Some(trie) => match set.descend(trie, part) {
                Some(descent) => (descent.leaves.0 as usize, descent.leaves.1 as usize),
                None => (0, 0),
            },
            None => set.equal_range(part),
        }
    }

    /// Verifies a grid candidate in `O(log z)` time from the heavy
    /// log-prefix table and the stored mismatch log-ratios — no access to
    /// `X`, and no `ln` evaluated per candidate.
    fn verify_encoded(
        &self,
        m: usize,
        mu: usize,
        start: usize,
        fwd_leaf: usize,
        bwd_leaf: usize,
    ) -> bool {
        let end = start + m;
        let log_prob = self.log_prefix[end] - self.log_prefix[start];
        // Mismatches of the backward factor cover positions [start, anchor);
        // depth d corresponds to position anchor - d, so depths 1..=mu fall
        // inside the pattern window (depth 0 is the anchor itself, accounted
        // for by the forward factor).
        let log_prob = self.bwd.add_log_ratios(bwd_leaf, 1..mu + 1, log_prob);
        // Mismatches of the forward factor cover positions [anchor, end);
        // depth d corresponds to position anchor + d, inside the window for
        // d < m - mu.
        let log_prob = self.fwd.add_log_ratios(fwd_leaf, 0..m - mu, log_prob);
        is_solid(log_prob.exp(), self.params.z)
    }
}

/// A borrowed view of the persisted state of a [`MinimizerIndex`], consumed
/// by `crate::persist`.
pub(crate) struct MinimizerParts<'a> {
    pub(crate) n: usize,
    pub(crate) sigma: usize,
    pub(crate) heavy: &'a [u8],
    pub(crate) log_prefix: &'a [f64],
    pub(crate) fwd: &'a EncodedFactorSet,
    pub(crate) bwd: &'a EncodedFactorSet,
    pub(crate) fwd_trie: Option<&'a CompactedTrie>,
    pub(crate) bwd_trie: Option<&'a CompactedTrie>,
    pub(crate) grid: Option<&'a RankSpaceGrid>,
}

/// The deviations of a strand from the heavy string that fall into
/// `[from, to)` (absolute positions; `deviations` is sorted by position).
fn deviations_in(deviations: &[(u32, u8)], from: u32, to: u32) -> &[(u32, u8)] {
    let lo = deviations.partition_point(|&(p, _)| p < from);
    let hi = deviations.partition_point(|&(p, _)| p < to);
    &deviations[lo..hi]
}

impl UncertainIndex for MinimizerIndex {
    fn name(&self) -> &'static str {
        self.variant().name()
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
        let grid = self.grid.as_ref().map_or(0, |g| g.memory_bytes());
        // Arena-backed components report zero owned bytes for their views;
        // the single backing allocation is counted here, once.
        let arena = self.arena.as_ref().map_or(0, Arena::alloc_bytes);
        let heavy = self.heavy.capacity() + self.log_prefix.heap_bytes();
        heavy + self.fwd.memory_bytes() + self.bwd.memory_bytes() + tries + grid + arena
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
    use crate::encode::KEY_STRIDE;
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
            assert_eq!(index.family(), IndexFamily::Minimizer(variant));
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

    /// Every index of every variant over the four benchmark presets at
    /// n = 400, built from one estimation per preset.
    fn preset_indexes() -> Vec<(String, MinimizerIndex)> {
        use ius_datasets::corpora::{bench_corpus, BENCH_CORPUS_NAMES};
        let mut out = Vec::new();
        for name in BENCH_CORPUS_NAMES {
            let corpus = bench_corpus(name, 400, None).unwrap();
            let est = ZEstimation::build(&corpus.x, corpus.z).unwrap();
            let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).unwrap();
            for variant in all_variants() {
                let index = MinimizerIndex::build_from_estimation(&corpus.x, &est, params, variant)
                    .unwrap();
                out.push((format!("{name}/{}", variant.name()), index));
            }
        }
        out
    }

    #[test]
    fn grid_pairs_each_leaf_with_the_other_side_of_its_occurrence() {
        let mut points = 0usize;
        for (label, index) in preset_indexes() {
            let Some(grid) = &index.grid else { continue };
            let (fwd_leaves, bwd_leaves) = (index.fwd.len(), index.bwd.len());
            let reported = grid.report(&Rect::new((0, fwd_leaves as u32), (0, bwd_leaves as u32)));
            assert_eq!(reported.len(), grid.len(), "{label}");
            let (mut fwd_seen, mut bwd_seen) = (vec![false; fwd_leaves], vec![false; bwd_leaves]);
            for p in &reported {
                // Each point pairs the two leaves of one occurrence.
                assert_eq!(
                    index.fwd.anchor_x(p.x as usize),
                    index.bwd.anchor_x(p.y as usize),
                    "{label}: point {p:?} pairs leaves of different anchors"
                );
                fwd_seen[p.x as usize] = true;
                bwd_seen[p.y as usize] = true;
            }
            // Each stored leaf carries a point.
            assert!(
                fwd_seen.iter().all(|&s| s),
                "{label}: a forward leaf has no point"
            );
            assert!(
                bwd_seen.iter().all(|&s| s),
                "{label}: a backward leaf has no point"
            );
            // No point repeats.
            let mut distinct = reported.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), reported.len(), "{label}: a point repeats");
            points += grid.len();
        }
        assert!(points > 0, "no preset sampled a grid point");
    }

    /// No stored leaf is a prefix of another leaf of its anchor (an equal
    /// string included): the build kept only leaves a query can land on.
    #[test]
    fn no_stored_leaf_is_prefix_dominated() {
        let mut leaves = 0usize;
        for (label, index) in preset_indexes() {
            for (side, set) in [("forward", &index.fwd), ("backward", &index.bwd)] {
                let mut by_anchor: Vec<(usize, Vec<u8>)> = (0..set.len())
                    .map(|leaf| (set.anchor_x(leaf), set.materialize(leaf)))
                    .collect();
                // Within one anchor, a prefix sorts right before the
                // strings it prefixes.
                by_anchor.sort_unstable();
                for pair in by_anchor.windows(2) {
                    let ((a, s), (b, t)) = (&pair[0], &pair[1]);
                    assert!(
                        a != b || !t.starts_with(s),
                        "{label}: a {side} leaf at {a} is a prefix of another there"
                    );
                }
                leaves += set.len();
            }
        }
        assert!(leaves > 0, "no preset sampled a leaf");
    }

    /// `size_bytes()` of a built index stays within the documented costs,
    /// so an array no query reads cannot come back unnoticed:
    ///
    /// * per position: the heavy letter and its copy in the backward set's
    ///   reversed view (2 B), plus the log-prefix entry (8 B) with a grid;
    /// * per leaf of either set: `anchor_x` (4 B), its length at the set's
    ///   length width and its `mism_start` entry at the set's offset width
    ///   (1, 2 or 4 B each), plus one trailing offset per set, plus one
    ///   key-directory entry (8 B) per 16 leaves without a tree;
    /// * per trie node, with a tree: 16 B, plus 5 B for the edge from its
    ///   parent, plus one trailing child offset (4 B) per trie;
    /// * per mismatch: its depth at the set's length width and its letter
    ///   (1 B), plus its log-ratio (8 B) with a grid;
    /// * per grid point: `π` and `π⁻¹` (8 B), plus 12 B per 64 points per
    ///   wavelet level and per leaf bitvector (a 64-bit word and its 32-bit
    ///   rank count), the two bitvectors costing two levels more.
    #[test]
    fn size_bytes_stays_within_the_documented_costs() {
        for (label, index) in preset_indexes() {
            let variant = index.variant();
            let grid = usize::from(variant.has_grid());
            let array = usize::from(!variant.has_tree());
            let n = index.corpus_len();
            let leaves = index.fwd.len() + index.bwd.len();
            let mismatches = index.fwd.total_mismatches() + index.bwd.total_mismatches();
            let mut budget = (2 + 8 * grid) * n + 8 * grid; // positions (+ log-prefix's n + 1)
            for set in index.factor_sets() {
                let (length, offset) = (set.length_width(), set.offset_width());
                budget += (4 + length + offset) * set.len() + offset; // + the trailing offset
                budget += 8 * array * set.len().div_ceil(KEY_STRIDE);
                budget += (length + 1 + 8 * grid) * set.total_mismatches();
            }
            if variant.has_tree() {
                budget += 21 * index.stats().num_nodes + 2 * 4;
            }
            if let Some(g) = &index.grid {
                let levels = (usize::BITS - g.len().saturating_sub(1).leading_zeros()) as usize;
                budget += 8 * g.len() + 12 * (levels + 2) * (g.len() / 64 + 1);
            }
            assert!(
                index.size_bytes() <= budget,
                "{label}: size_bytes() {} exceeds the documented {budget} B \
                 (n = {n}, {leaves} leaves, {mismatches} mismatches)",
                index.size_bytes()
            );
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
