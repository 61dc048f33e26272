//! Heavy-string encoding of solid factors (Lemma 3 / Corollary 4).
//!
//! Every z-solid factor differs from the heavy string `H_X` at no more than
//! `⌊log₂ z⌋` positions, so a factor anchored at a known position can be
//! stored as *(anchor, length, list of mismatches)* — `O(log z)` words instead
//! of its full text. The minimizer solid factor trees and arrays store all
//! their leaf strings this way; the structures in this module provide
//!
//! * the storage ([`EncodedFactorSet`]) and its builder,
//! * a [`LabelProvider`] implementation so that `ius-text`'s compacted tries
//!   and the array binary searches can read factor letters transparently,
//! * lexicographic comparison and LCP of two encoded factors in
//!   `O(log z)` time using an LCE index over the heavy view (the operation
//!   the paper uses to sort the sampled factors, Theorem 12), and
//! * the probability machinery needed to *verify* a candidate occurrence in
//!   `O(log z)` time without access to `X`: each mismatch stores the ratio
//!   `p(letter)/p(heavy letter)` so a window's occurrence probability is the
//!   heavy prefix-product times the ratios of the mismatches inside it.

use ius_arena::ArenaVec;
use ius_text::lce::LceIndex;
use ius_text::trie::LabelProvider;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// One stored deviation of a factor from the heavy string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mismatch {
    /// Depth of the mismatch within the factor (0 = at the anchor).
    pub depth: u32,
    /// The factor's letter at that depth (≠ the heavy letter there).
    pub letter: u8,
    /// `p(letter) / p(heavy letter)` at the corresponding position of `X`.
    pub ratio: f64,
}

/// Reading direction of a factor set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Factors read left-to-right starting at the anchor (the `T_suff` tree).
    Forward,
    /// Factors read right-to-left starting at the anchor (the `T_pref` tree).
    Backward,
}

/// A factor to be inserted into an [`EncodedFactorSet`].
#[derive(Debug, Clone)]
pub struct PendingFactor {
    /// Anchor position in `X` (the minimizer position).
    pub anchor_x: u32,
    /// Factor length (letters read from the anchor in the set's direction).
    pub len: u32,
    /// Strand the factor was sampled from (`u32::MAX` for the strand-free
    /// space-efficient construction).
    pub strand: u32,
    /// Deviations from the heavy string, sorted by increasing depth.
    pub mismatches: Vec<Mismatch>,
}

/// A sorted set of heavy-encoded factors anchored at minimizer positions.
///
/// The set owns its *heavy view*: the heavy string read in the set's
/// direction (`H_X` itself for forward sets, its reverse for backward sets),
/// so that the letter at depth `d` of a factor anchored at view position `a`
/// is `heavy_view[a + d]` unless overridden by a stored mismatch.
#[derive(Debug, Clone)]
pub struct EncodedFactorSet {
    direction: Direction,
    /// The heavy string read in the set's direction. Forward sets share the
    /// index-wide heavy allocation (no copy); backward sets own the reversed
    /// copy.
    heavy_view: Arc<Vec<u8>>,
    /// Anchor in view coordinates, per sorted leaf (derived from `anchor_x`
    /// at build/load time, never persisted).
    anchor_view: Vec<u32>,
    /// Anchor in `X` coordinates (the minimizer position), per sorted leaf.
    anchor_x: ArenaVec<u32>,
    /// Factor length per sorted leaf.
    lens: ArenaVec<u32>,
    /// Strand per sorted leaf (`u32::MAX` when strand-free).
    strands: ArenaVec<u32>,
    /// Offsets into the mismatch pools, one per leaf plus a trailing total.
    mism_start: ArenaVec<u32>,
    /// The concatenated mismatch storage, struct-of-arrays: depth, letter
    /// and probability ratio per stored mismatch. Flat [`ArenaVec`] pools,
    /// so a persisted set can borrow them zero-copy from the index arena.
    mism_depths: ArenaVec<u32>,
    mism_letters: ArenaVec<u8>,
    mism_ratios: ArenaVec<f64>,
    /// `ln(ratio)` per stored mismatch, precomputed at build time so grid
    /// verification sums log-probabilities without per-query `ln` calls.
    /// Derived from `mism_ratios`, never persisted.
    mism_log_ratios: Vec<f64>,
    /// Packed 8-letter prefix key per sorted leaf (see [`prefix_key`]),
    /// carried over from the construction sort. Non-decreasing in leaf
    /// order; used to narrow `equal_range` with integer comparisons before
    /// any letter is compared. An empty table (accepted on load) makes the
    /// binary search skip the narrowing.
    prefix_keys: ArenaVec<u64>,
}

impl EncodedFactorSet {
    /// Number of stored factors (leaves).
    #[inline]
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// `true` iff the set stores no factor.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Reading direction of the set.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The anchor (minimizer position in `X`) of the `leaf`-th sorted factor.
    #[inline]
    pub fn anchor_x(&self, leaf: usize) -> usize {
        self.anchor_x[leaf] as usize
    }

    /// The strand of the `leaf`-th factor (`u32::MAX` when strand-free).
    #[inline]
    pub fn strand(&self, leaf: usize) -> u32 {
        self.strands[leaf]
    }

    /// The length of the `leaf`-th factor.
    #[inline]
    pub fn factor_len(&self, leaf: usize) -> usize {
        self.lens[leaf] as usize
    }

    /// The range of the `leaf`-th factor's entries in the mismatch pools.
    #[inline]
    fn mism_range(&self, leaf: usize) -> Range<usize> {
        self.mism_start[leaf] as usize..self.mism_start[leaf + 1] as usize
    }

    /// Number of stored mismatches of the `leaf`-th factor.
    #[inline]
    pub fn num_mismatches(&self, leaf: usize) -> usize {
        let r = self.mism_range(leaf);
        r.end - r.start
    }

    /// The stored mismatches of the `leaf`-th factor, materialised from the
    /// struct-of-arrays pools (convenience iterator; the hot paths read the
    /// per-component slices directly).
    pub fn mismatches(&self, leaf: usize) -> impl Iterator<Item = Mismatch> + '_ {
        let r = self.mism_range(leaf);
        self.mism_depths[r.clone()]
            .iter()
            .zip(&self.mism_letters[r.clone()])
            .zip(&self.mism_ratios[r])
            .map(|((&depth, &letter), &ratio)| Mismatch {
                depth,
                letter,
                ratio,
            })
    }

    /// The depths of the `leaf`-th factor's stored mismatches.
    #[inline]
    pub fn mismatch_depths(&self, leaf: usize) -> &[u32] {
        &self.mism_depths[self.mism_range(leaf)]
    }

    /// The letters of the `leaf`-th factor's stored mismatches, aligned with
    /// [`EncodedFactorSet::mismatch_depths`].
    #[inline]
    pub fn mismatch_letters(&self, leaf: usize) -> &[u8] {
        &self.mism_letters[self.mism_range(leaf)]
    }

    /// The precomputed `ln(ratio)` of each stored mismatch of the `leaf`-th
    /// factor, aligned with [`EncodedFactorSet::mismatch_depths`].
    #[inline]
    pub fn mismatch_log_ratios(&self, leaf: usize) -> &[f64] {
        &self.mism_log_ratios[self.mism_range(leaf)]
    }

    /// Total number of stored mismatches.
    #[inline]
    pub fn total_mismatches(&self) -> usize {
        self.mism_depths.len()
    }

    /// The letter at `depth` of the `leaf`-th factor, or `None` past its end.
    #[inline]
    pub fn letter_at(&self, leaf: usize, depth: usize) -> Option<u8> {
        if depth >= self.lens[leaf] as usize {
            return None;
        }
        let r = self.mism_range(leaf);
        if let Some(slot) = self.mism_depths[r.clone()]
            .iter()
            .position(|&d| d as usize == depth)
        {
            return Some(self.mism_letters[r.start + slot]);
        }
        Some(self.heavy_view[self.anchor_view[leaf] as usize + depth])
    }

    /// Materialises the `leaf`-th factor (used by tests and debugging).
    pub fn materialize(&self, leaf: usize) -> Vec<u8> {
        (0..self.factor_len(leaf))
            .map(|d| self.letter_at(leaf, d).expect("depth within factor"))
            .collect()
    }

    /// The half-open range of sorted leaves whose factors have `pattern` as a
    /// prefix, by binary search — the array-based (MWSA) lookup.
    ///
    /// Patterns of length ≥ 8 are first narrowed to the run of leaves whose
    /// packed 8-letter [`prefix_key`] equals the pattern's (pure integer
    /// comparisons), and every remaining comparison walks the factor's
    /// heavy-view stretches *between* mismatches with slice (memcmp-style)
    /// comparisons instead of decoding one letter at a time — `O(m/word +
    /// log z)` per comparison rather than `O(m · log z)`.
    pub fn equal_range(&self, pattern: &[u8]) -> (usize, usize) {
        let (search_lo, search_hi) = if pattern.len() >= 8 && !self.prefix_keys.is_empty() {
            // Any factor having the (≥ 8 letter) pattern as a prefix packs
            // exactly the pattern's first eight letters, so its key equals
            // `pat_key`; keys are non-decreasing in leaf order, truncated
            // factors pad with 0 and letters pack as rank+1, so no shorter
            // factor collides with the full key.
            let pat_key = pattern_prefix_key(pattern);
            let lo = self.prefix_keys.partition_point(|&k| k < pat_key);
            let hi = self.prefix_keys.partition_point(|&k| k <= pat_key);
            (lo, hi)
        } else {
            (0, self.len())
        };
        let lo = search_lo
            + partition_point_in(search_hi - search_lo, |i| {
                self.cmp_leaf(search_lo + i, pattern, false).is_lt()
            });
        let hi = search_lo
            + partition_point_in(search_hi - search_lo, |i| {
                // Leaf's prefix (of pattern length) ≤ pattern?
                self.cmp_leaf(search_lo + i, pattern, true) != Ordering::Greater
            });
        (lo, hi)
    }

    /// Compares the `leaf`-th factor with `pattern` by comparing the pure
    /// heavy-view stretches between stored mismatches as slices.
    ///
    /// With `prefix_only` the factor is compared only up to `|pattern|`
    /// letters (a shorter factor counts as smaller, an equal-or-longer one as
    /// equal); otherwise the full factor is compared as a plain string.
    fn cmp_leaf(&self, leaf: usize, pattern: &[u8], prefix_only: bool) -> Ordering {
        let len = self.factor_len(leaf);
        let limit = len.min(pattern.len());
        let base = self.anchor_view[leaf] as usize;
        let heavy = &self.heavy_view[base..base + limit];
        let mut d = 0usize;
        let r = self.mism_range(leaf);
        for (&depth, &letter) in self.mism_depths[r.clone()]
            .iter()
            .zip(&self.mism_letters[r])
        {
            let md = depth as usize;
            if md >= limit {
                break;
            }
            match heavy[d..md].cmp(&pattern[d..md]) {
                Ordering::Equal => {}
                other => return other,
            }
            match letter.cmp(&pattern[md]) {
                Ordering::Equal => {}
                other => return other,
            }
            d = md + 1;
        }
        match heavy[d..limit].cmp(&pattern[d..limit]) {
            Ordering::Equal => {}
            other => return other,
        }
        if prefix_only {
            if len >= pattern.len() {
                Ordering::Equal
            } else {
                Ordering::Less
            }
        } else {
            len.cmp(&pattern.len())
        }
    }

    /// Heap bytes retained by the set, counting the heavy view even when it
    /// is shared (see [`EncodedFactorSet::memory_bytes_without_heavy`] for
    /// the variant that avoids double counting a shared view).
    pub fn memory_bytes(&self) -> usize {
        self.heavy_view.capacity()
            + self.anchor_view.capacity() * 4
            + self.anchor_x.heap_bytes()
            + self.lens.heap_bytes()
            + self.strands.heap_bytes()
            + self.mism_start.heap_bytes()
            + self.mism_depths.heap_bytes()
            + self.mism_letters.heap_bytes()
            + self.mism_ratios.heap_bytes()
            + self.mism_log_ratios.capacity() * 8
            + self.prefix_keys.heap_bytes()
    }

    /// Heap bytes excluding the heavy view. Forward sets share the view's
    /// allocation with the index-wide heavy string, so counting it again
    /// would double count.
    pub fn memory_bytes_without_heavy(&self) -> usize {
        self.memory_bytes() - self.heavy_view.capacity()
    }

    /// `true` iff this set is the sole owner of its heavy view (backward
    /// sets own their reversed copy; forward sets usually share).
    pub fn owns_heavy_view(&self) -> bool {
        Arc::strong_count(&self.heavy_view) == 1
    }

    // ---- persistence support (see `crate::persist`) --------------------

    /// Anchors in `X` coordinates, per sorted leaf.
    pub(crate) fn anchor_x_raw(&self) -> &[u32] {
        &self.anchor_x
    }

    /// Factor lengths, per sorted leaf.
    pub(crate) fn lens_raw(&self) -> &[u32] {
        &self.lens
    }

    /// Strand ids, per sorted leaf.
    pub(crate) fn strands_raw(&self) -> &[u32] {
        &self.strands
    }

    /// Mismatch offsets (one per leaf plus the trailing total).
    pub(crate) fn mism_start_raw(&self) -> &[u32] {
        &self.mism_start
    }

    /// The concatenated mismatch depths.
    pub(crate) fn mism_depths_raw(&self) -> &[u32] {
        &self.mism_depths
    }

    /// The concatenated mismatch letters.
    pub(crate) fn mism_letters_raw(&self) -> &[u8] {
        &self.mism_letters
    }

    /// The concatenated mismatch probability ratios.
    pub(crate) fn mism_ratios_raw(&self) -> &[f64] {
        &self.mism_ratios
    }

    /// The packed prefix keys (may be empty; `equal_range` then skips the
    /// integer narrowing).
    pub(crate) fn prefix_keys_raw(&self) -> &[u64] {
        &self.prefix_keys
    }

    /// Reassembles a set from its persisted parts. `heavy_view` must be the
    /// heavy string read in the set's direction (shared for forward sets,
    /// an owned reversed copy for backward sets); anchor view coordinates
    /// and the mismatch log-ratios are recomputed (both are derived data —
    /// no construction, i.e. no sorting, is re-run).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_loaded_parts(
        direction: Direction,
        heavy_view: Arc<Vec<u8>>,
        anchor_x: ArenaVec<u32>,
        lens: ArenaVec<u32>,
        strands: ArenaVec<u32>,
        mism_start: ArenaVec<u32>,
        mism_depths: ArenaVec<u32>,
        mism_letters: ArenaVec<u8>,
        mism_ratios: ArenaVec<f64>,
        prefix_keys: ArenaVec<u64>,
    ) -> Result<EncodedFactorSet, String> {
        let n = heavy_view.len();
        let leaves = anchor_x.len();
        if lens.len() != leaves || strands.len() != leaves {
            return Err("factor-set leaf arrays have inconsistent lengths".into());
        }
        if mism_start.len() != leaves + 1 || mism_start.first().copied().unwrap_or(1) != 0 {
            return Err("mismatch offset table is malformed".into());
        }
        if mism_depths.len() != mism_letters.len() || mism_depths.len() != mism_ratios.len() {
            return Err("mismatch component pools have inconsistent lengths".into());
        }
        if mism_start.windows(2).any(|w| w[0] > w[1])
            || mism_start.last().map(|&v| v as usize) != Some(mism_depths.len())
        {
            return Err("mismatch offsets do not cover the mismatch storage".into());
        }
        if !prefix_keys.is_empty() && prefix_keys.len() != leaves {
            return Err("prefix-key table length does not match the leaf count".into());
        }
        let mut anchor_view = Vec::with_capacity(leaves);
        for (leaf, &a) in anchor_x.iter().enumerate() {
            let view = match direction {
                Direction::Forward => a as usize,
                Direction::Backward => {
                    if a as usize >= n {
                        return Err(format!("anchor {a} of leaf {leaf} out of range"));
                    }
                    n - 1 - a as usize
                }
            };
            if view + lens[leaf] as usize > n {
                return Err(format!("factor of leaf {leaf} runs past the heavy view"));
            }
            anchor_view.push(view as u32);
        }
        for (leaf, window) in mism_start.windows(2).enumerate() {
            let (lo, hi) = (window[0] as usize, window[1] as usize);
            // Ratios are probability quotients: strictly positive and finite,
            // or the recomputed log-ratios would be NaN/-inf and silently
            // corrupt grid verification.
            if mism_depths[lo..hi].iter().any(|&d| d >= lens[leaf])
                || mism_ratios[lo..hi]
                    .iter()
                    .any(|&r| !r.is_finite() || r <= 0.0)
            {
                return Err(format!("mismatch of leaf {leaf} is out of range"));
            }
        }
        let mism_log_ratios: Vec<f64> = mism_ratios.iter().map(|&r| r.ln()).collect();
        Ok(EncodedFactorSet {
            direction,
            heavy_view,
            anchor_view,
            anchor_x,
            lens,
            strands,
            mism_start,
            mism_depths,
            mism_letters,
            mism_ratios,
            mism_log_ratios,
            prefix_keys,
        })
    }
}

impl LabelProvider for EncodedFactorSet {
    #[inline]
    fn letter(&self, leaf: usize, depth: usize) -> Option<u8> {
        self.letter_at(leaf, depth)
    }

    #[inline]
    fn len(&self, leaf: usize) -> usize {
        self.factor_len(leaf)
    }
}

/// Builder collecting factors before sorting them into an
/// [`EncodedFactorSet`].
#[derive(Debug)]
pub struct EncodedFactorSetBuilder {
    direction: Direction,
    /// Heavy string of `X` (always in forward orientation), borrowed from
    /// the index-wide heavy string — the builder never copies it.
    heavy_forward: Arc<Vec<u8>>,
    factors: Vec<PendingFactor>,
}

impl EncodedFactorSetBuilder {
    /// Creates a builder for the given direction over the heavy string of `X`
    /// (given in forward orientation; the builder derives the view it needs).
    /// Pass [`ius_weighted::HeavyString::shared_ranks`] — no letters are
    /// copied for forward sets; backward sets materialise one reversed copy
    /// at [`EncodedFactorSetBuilder::finish`] time.
    pub fn new(direction: Direction, heavy_forward: Arc<Vec<u8>>) -> Self {
        Self {
            direction,
            heavy_forward,
            factors: Vec::new(),
        }
    }

    /// Adds a factor.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a mismatch depth exceeds the factor length or
    /// mismatches are not sorted by depth.
    pub fn push(&mut self, factor: PendingFactor) {
        debug_assert!(
            factor
                .mismatches
                .windows(2)
                .all(|w| w[0].depth < w[1].depth),
            "mismatches must be sorted by depth"
        );
        debug_assert!(
            factor.mismatches.iter().all(|m| m.depth < factor.len),
            "mismatch depth beyond factor length"
        );
        self.factors.push(factor);
    }

    /// Number of factors pushed so far.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// `true` iff nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// Sorts the factors lexicographically and returns the finished set
    /// together with the LCP values of neighbouring factors (entry 0 is 0) —
    /// exactly what [`ius_text::trie::CompactedTrie::build`] needs.
    pub fn finish(self) -> (EncodedFactorSet, Vec<usize>) {
        let n = self.heavy_forward.len();
        let heavy_view: Arc<Vec<u8>> = match self.direction {
            // Forward sets read the heavy string as-is: share the allocation.
            Direction::Forward => self.heavy_forward,
            // Backward sets read it reversed: one owned copy, unavoidable
            // because the LCE index is built over the view's orientation.
            Direction::Backward => {
                let mut v = (*self.heavy_forward).clone();
                v.reverse();
                Arc::new(v)
            }
        };
        let anchor_to_view = |anchor_x: u32| -> u32 {
            match self.direction {
                Direction::Forward => anchor_x,
                Direction::Backward => (n as u32) - 1 - anchor_x,
            }
        };
        let lce = LceIndex::new(&heavy_view);
        let factors = self.factors;
        // Packed prefix keys decide almost every comparison with one integer
        // compare; the O(log z) LCE comparator only breaks the ties of
        // factors sharing their first eight letters.
        let prefix_keys: Vec<u64> = factors
            .iter()
            .map(|f| prefix_key(f, &heavy_view, anchor_to_view(f.anchor_x) as usize))
            .collect();
        let mut order: Vec<usize> = (0..factors.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            prefix_keys[a]
                .cmp(&prefix_keys[b])
                .then_with(|| {
                    compare_pending(
                        &factors[a],
                        anchor_to_view(factors[a].anchor_x) as usize,
                        &factors[b],
                        anchor_to_view(factors[b].anchor_x) as usize,
                        &heavy_view,
                        &lce,
                    )
                })
                .then(factors[a].anchor_x.cmp(&factors[b].anchor_x))
                .then(factors[a].strand.cmp(&factors[b].strand))
        });

        let total_mismatches: usize = factors.iter().map(|f| f.mismatches.len()).sum();
        let mut raw = RawFactorData::with_capacity(order.len(), total_mismatches);
        let mut lcps = vec![0usize; order.len()];
        for (rank, &idx) in order.iter().enumerate() {
            let f = &factors[idx];
            raw.anchor_view.push(anchor_to_view(f.anchor_x));
            raw.anchor_x.push(f.anchor_x);
            raw.lens.push(f.len);
            raw.strands.push(f.strand);
            for m in &f.mismatches {
                raw.mism_depths.push(m.depth);
                raw.mism_letters.push(m.letter);
                raw.mism_ratios.push(m.ratio);
                raw.mism_log_ratios.push(m.ratio.ln());
            }
            raw.mism_start.push(raw.mism_depths.len() as u32);
            if rank > 0 {
                let prev = &factors[order[rank - 1]];
                lcps[rank] = lcp_pending(
                    prev,
                    anchor_to_view(prev.anchor_x) as usize,
                    f,
                    anchor_to_view(f.anchor_x) as usize,
                    &heavy_view,
                    &lce,
                );
            }
        }
        // Keep the construction sort's packed keys, reordered to leaf order,
        // as the integer narrowing index of `equal_range`.
        let leaf_keys: Vec<u64> = order.iter().map(|&idx| prefix_keys[idx]).collect();
        (raw.into_set(self.direction, heavy_view, leaf_keys), lcps)
    }
}

/// Construction-time emission buffers of [`EncodedFactorSetBuilder`] — plain
/// vectors grown by `push`, converted into the set's flat pools at the end.
struct RawFactorData {
    anchor_view: Vec<u32>,
    anchor_x: Vec<u32>,
    lens: Vec<u32>,
    strands: Vec<u32>,
    mism_start: Vec<u32>,
    mism_depths: Vec<u32>,
    mism_letters: Vec<u8>,
    mism_ratios: Vec<f64>,
    mism_log_ratios: Vec<f64>,
}

impl RawFactorData {
    fn with_capacity(leaves: usize, mismatches: usize) -> Self {
        let mut mism_start = Vec::with_capacity(leaves + 1);
        mism_start.push(0);
        Self {
            anchor_view: Vec::with_capacity(leaves),
            anchor_x: Vec::with_capacity(leaves),
            lens: Vec::with_capacity(leaves),
            strands: Vec::with_capacity(leaves),
            mism_start,
            mism_depths: Vec::with_capacity(mismatches),
            mism_letters: Vec::with_capacity(mismatches),
            mism_ratios: Vec::with_capacity(mismatches),
            mism_log_ratios: Vec::with_capacity(mismatches),
        }
    }

    fn into_set(
        self,
        direction: Direction,
        heavy_view: Arc<Vec<u8>>,
        prefix_keys: Vec<u64>,
    ) -> EncodedFactorSet {
        EncodedFactorSet {
            direction,
            heavy_view,
            anchor_view: self.anchor_view,
            anchor_x: ArenaVec::from(self.anchor_x),
            lens: ArenaVec::from(self.lens),
            strands: ArenaVec::from(self.strands),
            mism_start: ArenaVec::from(self.mism_start),
            mism_depths: ArenaVec::from(self.mism_depths),
            mism_letters: ArenaVec::from(self.mism_letters),
            mism_ratios: ArenaVec::from(self.mism_ratios),
            mism_log_ratios: self.mism_log_ratios,
            prefix_keys: ArenaVec::from(prefix_keys),
        }
    }
}

/// First index in `0..len` for which `pred` is false (`pred` must be
/// monotone), the binary-search kernel of [`EncodedFactorSet::equal_range`].
fn partition_point_in<F: Fn(usize) -> bool>(len: usize, pred: F) -> usize {
    let mut lo = 0usize;
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Packs the first eight letters of a (length ≥ 8) pattern exactly like
/// [`prefix_key`] packs a factor's, for the integer narrowing of
/// [`EncodedFactorSet::equal_range`].
fn pattern_prefix_key(pattern: &[u8]) -> u64 {
    let mut key = 0u64;
    for &c in &pattern[..8] {
        key = (key << 8) | (c as u64 + 1);
    }
    key
}

/// Packs the first eight letters of a factor into a big-endian `u64` whose
/// integer order equals the lexicographic order of those prefixes (letters
/// are stored as `rank + 1`, so "past the factor's end" packs as 0 and a
/// proper prefix sorts first).
fn prefix_key(f: &PendingFactor, view: &[u8], anchor_view: usize) -> u64 {
    let mut key = 0u64;
    let take = (f.len as usize).min(8);
    for d in 0..take {
        key = (key << 8) | (letter_of(f, view, anchor_view, d) as u64 + 1);
    }
    key << (8 * (8 - take))
}

fn mismatch_letter(f: &PendingFactor, depth: usize) -> Option<u8> {
    f.mismatches
        .iter()
        .find(|m| m.depth as usize == depth)
        .map(|m| m.letter)
}

fn letter_of(f: &PendingFactor, view: &[u8], anchor_view: usize, depth: usize) -> u8 {
    mismatch_letter(f, depth).unwrap_or(view[anchor_view + depth])
}

/// Walks two encoded factors and returns the first depth at which they
/// differ, capped at the shorter length. `O(#mismatches)` LCE queries.
fn lcp_pending(
    a: &PendingFactor,
    a_view: usize,
    b: &PendingFactor,
    b_view: usize,
    view: &[u8],
    lce: &LceIndex,
) -> usize {
    let limit = (a.len.min(b.len)) as usize;
    let mut d = 0usize;
    let mut ai = 0usize;
    let mut bi = 0usize;
    while d < limit {
        // Skip mismatches whose depth is behind `d`.
        while ai < a.mismatches.len() && (a.mismatches[ai].depth as usize) < d {
            ai += 1;
        }
        while bi < b.mismatches.len() && (b.mismatches[bi].depth as usize) < d {
            bi += 1;
        }
        let next_a = a
            .mismatches
            .get(ai)
            .map_or(usize::MAX, |m| m.depth as usize);
        let next_b = b
            .mismatches
            .get(bi)
            .map_or(usize::MAX, |m| m.depth as usize);
        if next_a == d || next_b == d {
            if letter_of(a, view, a_view, d) != letter_of(b, view, b_view, d) {
                return d;
            }
            d += 1;
            continue;
        }
        // Both factors follow the heavy view until the next mismatch.
        let stretch_end = limit.min(next_a).min(next_b);
        let heavy_lce = lce.lce(a_view + d, b_view + d);
        let step = heavy_lce.min(stretch_end - d);
        if step < stretch_end - d {
            return d + step;
        }
        d = stretch_end;
    }
    limit
}

/// Lexicographic comparison of two encoded factors (`O(log z)` LCE queries).
fn compare_pending(
    a: &PendingFactor,
    a_view: usize,
    b: &PendingFactor,
    b_view: usize,
    view: &[u8],
    lce: &LceIndex,
) -> Ordering {
    let l = lcp_pending(a, a_view, b, b_view, view, lce);
    let limit = (a.len.min(b.len)) as usize;
    if l >= limit {
        return a.len.cmp(&b.len);
    }
    letter_of(a, view, a_view, l).cmp(&letter_of(b, view, b_view, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Reference materialisation of a pending factor over a heavy view.
    fn materialize_pending(f: &PendingFactor, view: &[u8], anchor_view: usize) -> Vec<u8> {
        (0..f.len as usize)
            .map(|d| letter_of(f, view, anchor_view, d))
            .collect()
    }

    fn random_factor(
        rng: &mut StdRng,
        n: usize,
        direction: Direction,
        sigma: u8,
        heavy: &[u8],
    ) -> PendingFactor {
        let anchor_x = rng.gen_range(0..n as u32);
        let max_len = match direction {
            Direction::Forward => n as u32 - anchor_x,
            Direction::Backward => anchor_x + 1,
        };
        let len = rng.gen_range(1..=max_len.min(30));
        let mut depths: Vec<u32> = (0..len).collect();
        // Choose up to 4 mismatch depths.
        let count = rng.gen_range(0..=3.min(len as usize));
        let mut mismatches = Vec::new();
        for _ in 0..count {
            let idx = rng.gen_range(0..depths.len());
            let depth = depths.swap_remove(idx);
            let abs = match direction {
                Direction::Forward => anchor_x + depth,
                Direction::Backward => anchor_x - depth,
            } as usize;
            let heavy_letter = heavy[abs];
            let mut letter = rng.gen_range(0..sigma);
            if letter == heavy_letter {
                letter = (letter + 1) % sigma;
            }
            mismatches.push(Mismatch {
                depth,
                letter,
                ratio: 0.5,
            });
        }
        mismatches.sort_by_key(|m| m.depth);
        PendingFactor {
            anchor_x,
            len,
            strand: 0,
            mismatches,
        }
    }

    #[test]
    fn sorted_set_orders_and_lcps_match_materialised_strings() {
        let mut rng = StdRng::seed_from_u64(12);
        for direction in [Direction::Forward, Direction::Backward] {
            let n = 60usize;
            let sigma = 3u8;
            let heavy: Arc<Vec<u8>> = Arc::new((0..n).map(|_| rng.gen_range(0..sigma)).collect());
            let view: Vec<u8> = match direction {
                Direction::Forward => (*heavy).clone(),
                Direction::Backward => {
                    let mut v = (*heavy).clone();
                    v.reverse();
                    v
                }
            };
            let anchor_to_view = |anchor_x: u32| match direction {
                Direction::Forward => anchor_x as usize,
                Direction::Backward => n - 1 - anchor_x as usize,
            };
            // Materialise each factor's expected string up front, then move
            // the factor into the builder — no per-factor clone needed.
            let mut builder = EncodedFactorSetBuilder::new(direction, Arc::clone(&heavy));
            let mut expected: Vec<Vec<u8>> = Vec::new();
            for _ in 0..80 {
                let f = random_factor(&mut rng, n, direction, sigma, &heavy);
                expected.push(materialize_pending(&f, &view, anchor_to_view(f.anchor_x)));
                builder.push(f);
            }
            let (set, lcps) = builder.finish();
            assert_eq!(set.len(), expected.len());
            // The sorted set must materialise exactly the pushed multiset of
            // strings, in sorted order, with matching neighbour LCPs.
            expected.sort();
            let strings: Vec<Vec<u8>> = (0..set.len()).map(|i| set.materialize(i)).collect();
            assert_eq!(strings, expected, "sorted factors differ ({direction:?})");
            for i in 1..strings.len() {
                let direct = strings[i - 1]
                    .iter()
                    .zip(strings[i].iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                assert_eq!(lcps[i], direct, "LCP mismatch at {i} ({direction:?})");
            }
            // The stored view letters must agree with the anchors.
            for (leaf, s) in strings.iter().enumerate() {
                let anchor_view = anchor_to_view(set.anchor_x(leaf) as u32);
                for (d, &letter) in s.iter().enumerate() {
                    let stored = set.letter_at(leaf, d).unwrap();
                    assert_eq!(stored, letter, "leaf {leaf} depth {d}");
                    if set.mismatch_depths(leaf).iter().all(|&md| md as usize != d) {
                        assert_eq!(view[anchor_view + d], letter);
                    }
                }
            }
        }
    }

    #[test]
    fn equal_range_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 50usize;
        let sigma = 2u8;
        let heavy: Arc<Vec<u8>> = Arc::new((0..n).map(|_| rng.gen_range(0..sigma)).collect());
        let mut builder = EncodedFactorSetBuilder::new(Direction::Forward, Arc::clone(&heavy));
        for _ in 0..60 {
            builder.push(random_factor(
                &mut rng,
                n,
                Direction::Forward,
                sigma,
                &heavy,
            ));
        }
        let (set, _) = builder.finish();
        for _ in 0..300 {
            // Lengths up to 15 cover both search branches: plain binary
            // search (m < 8) and the packed-prefix-key narrowing (m ≥ 8).
            let m = rng.gen_range(1..16usize);
            let pattern: Vec<u8> = if rng.gen_bool(0.5) {
                // Borrow a real factor's prefix so long patterns also hit
                // non-empty ranges, not just misses.
                let leaf = rng.gen_range(0..set.len());
                let mut p = set.materialize(leaf);
                p.truncate(m);
                while p.len() < m {
                    p.push(rng.gen_range(0..sigma));
                }
                p
            } else {
                (0..m).map(|_| rng.gen_range(0..sigma)).collect()
            };
            let (lo, hi) = set.equal_range(&pattern);
            for leaf in 0..set.len() {
                let is_prefix = set.materialize(leaf).starts_with(&pattern);
                let in_range = leaf >= lo && leaf < hi;
                assert_eq!(is_prefix, in_range, "leaf {leaf} pattern {pattern:?}");
            }
        }
    }

    #[test]
    fn letter_at_and_label_provider_agree() {
        let heavy = Arc::new(vec![0u8, 1, 2, 3, 0, 1, 2, 3]);
        let mut builder = EncodedFactorSetBuilder::new(Direction::Forward, heavy);
        builder.push(PendingFactor {
            anchor_x: 2,
            len: 5,
            strand: 7,
            mismatches: vec![Mismatch {
                depth: 1,
                letter: 0,
                ratio: 0.25,
            }],
        });
        let (set, _) = builder.finish();
        assert_eq!(set.len(), 1);
        assert_eq!(set.materialize(0), vec![2, 0, 0, 1, 2]);
        assert_eq!(set.letter_at(0, 1), Some(0));
        assert_eq!(set.letter_at(0, 5), None);
        assert_eq!(LabelProvider::letter(&set, 0, 4), Some(2));
        assert_eq!(LabelProvider::len(&set, 0), 5);
        assert_eq!(set.strand(0), 7);
        assert_eq!(set.anchor_x(0), 2);
        assert_eq!(set.num_mismatches(0), 1);
        assert_eq!(set.total_mismatches(), 1);
        assert!(set.memory_bytes() > set.memory_bytes_without_heavy());
    }

    #[test]
    fn loaded_parts_validation_rejects_corruption() {
        let heavy: Arc<Vec<u8>> = Arc::new(vec![0, 1, 0, 1, 0]);
        let good = |ratio: f64| {
            EncodedFactorSet::from_loaded_parts(
                Direction::Forward,
                Arc::clone(&heavy),
                vec![1].into(),
                vec![3].into(),
                vec![0].into(),
                vec![0, 1].into(),
                vec![2u32].into(),
                vec![0u8].into(),
                vec![ratio].into(),
                ArenaVec::new(),
            )
        };
        assert!(good(0.5).is_ok());
        // Non-positive or non-finite ratios would make the recomputed
        // log-ratios NaN/-inf and silently corrupt verification.
        assert!(good(0.0).is_err());
        assert!(good(-1.0).is_err());
        assert!(good(f64::NAN).is_err());
        // Depth beyond the factor length.
        assert!(EncodedFactorSet::from_loaded_parts(
            Direction::Forward,
            Arc::clone(&heavy),
            vec![1].into(),
            vec![3].into(),
            vec![0].into(),
            vec![0, 1].into(),
            vec![3u32].into(),
            vec![0u8].into(),
            vec![0.5].into(),
            ArenaVec::new(),
        )
        .is_err());
        // Factor running past the heavy view.
        assert!(EncodedFactorSet::from_loaded_parts(
            Direction::Forward,
            Arc::clone(&heavy),
            vec![4].into(),
            vec![2].into(),
            vec![0].into(),
            vec![0, 0].into(),
            ArenaVec::new(),
            ArenaVec::new(),
            ArenaVec::new(),
            ArenaVec::new(),
        )
        .is_err());
    }

    #[test]
    fn empty_builder_finishes_cleanly() {
        let builder = EncodedFactorSetBuilder::new(Direction::Backward, Arc::new(vec![0, 1, 0]));
        assert!(builder.is_empty());
        let (set, lcps) = builder.finish();
        assert!(set.is_empty());
        assert!(lcps.is_empty());
        assert_eq!(set.equal_range(&[0]), (0, 0));
    }
}
