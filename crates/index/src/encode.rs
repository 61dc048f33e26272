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
//!   `O(log z)` time without access to `X`: each mismatch carries
//!   `ln(p(letter)/p(heavy letter))`, so a window's log-probability is the
//!   heavy log-prefix difference plus the log-ratios of the mismatches
//!   inside it. Only the grid variants keep that pool; the others verify
//!   against `X`.

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
    /// `ln(p(letter) / p(heavy letter))` at the corresponding position of
    /// `X` — at most 0, the heavy letter being the most probable.
    pub log_ratio: f64,
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
    /// Deviations from the heavy string, sorted by increasing depth.
    pub mismatches: Vec<Mismatch>,
}

/// A sorted set of heavy-encoded factors anchored at minimizer positions.
///
/// The set owns its *heavy view*: the heavy string read in the set's
/// direction (`H_X` itself for forward sets, its reverse for backward sets),
/// so that the letter at depth `d` of a factor anchored at view position `a`
/// is `heavy_view[a + d]` unless overridden by a stored mismatch. The view
/// anchor is `anchor_x` in forward sets and `n − 1 − anchor_x` in backward
/// sets, computed on use.
#[derive(Debug, Clone)]
pub struct EncodedFactorSet {
    direction: Direction,
    /// The heavy string read in the set's direction. Forward sets share the
    /// index-wide heavy allocation (no copy); backward sets own the reversed
    /// copy.
    heavy_view: Arc<Vec<u8>>,
    /// Anchor in `X` coordinates (the minimizer position), per sorted leaf.
    anchor_x: ArenaVec<u32>,
    /// Factor length per sorted leaf.
    lens: ArenaVec<u32>,
    /// Offsets into the mismatch pools, one per leaf plus a trailing total.
    mism_start: ArenaVec<u32>,
    /// The concatenated mismatch storage, struct-of-arrays: depth, letter
    /// and log-ratio per stored mismatch. Flat [`ArenaVec`] pools, so a
    /// persisted set can borrow them zero-copy from the index arena.
    mism_depths: ArenaVec<u32>,
    mism_letters: ArenaVec<u8>,
    /// [`Mismatch::log_ratio`] per stored mismatch — the terms grid
    /// verification sums. Empty in the sets of the variants without a grid,
    /// which verify against `X` instead.
    mism_log_ratios: ArenaVec<f64>,
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

    /// The anchor (minimizer position in `X`) of the `leaf`-th sorted factor.
    #[inline]
    pub fn anchor_x(&self, leaf: usize) -> usize {
        self.anchor_x[leaf] as usize
    }

    /// The anchor of the `leaf`-th factor in view coordinates: the heavy
    /// view position its depth 0 reads.
    #[inline]
    fn view_anchor(&self, leaf: usize) -> usize {
        let a = self.anchor_x[leaf] as usize;
        match self.direction {
            Direction::Forward => a,
            Direction::Backward => self.heavy_view.len() - 1 - a,
        }
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

    /// The depths of the `leaf`-th factor's stored mismatches.
    #[inline]
    pub fn mismatch_depths(&self, leaf: usize) -> &[u32] {
        &self.mism_depths[self.mism_range(leaf)]
    }

    /// The log-ratio of each stored mismatch of the `leaf`-th factor,
    /// aligned with [`EncodedFactorSet::mismatch_depths`].
    ///
    /// # Panics
    ///
    /// In a set without the log-ratio pool (see
    /// [`EncodedFactorSet::drop_log_ratios`]) that stores mismatches.
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
        Some(self.heavy_view[self.view_anchor(leaf) + depth])
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
        let base = self.view_anchor(leaf);
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

    /// Heap bytes retained by the set. A forward set's heavy view is the
    /// index-wide heavy string, counted by its owner; a backward set owns
    /// its reversed copy.
    pub fn memory_bytes(&self) -> usize {
        let view = match self.direction {
            Direction::Forward => 0,
            Direction::Backward => self.heavy_view.capacity(),
        };
        view + self.anchor_x.heap_bytes()
            + self.lens.heap_bytes()
            + self.mism_start.heap_bytes()
            + self.mism_depths.heap_bytes()
            + self.mism_letters.heap_bytes()
            + self.mism_log_ratios.heap_bytes()
            + self.prefix_keys.heap_bytes()
    }

    /// Frees the log-ratio pool: only grid verification reads it.
    pub(crate) fn drop_log_ratios(&mut self) {
        self.mism_log_ratios = ArenaVec::new();
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

    /// The concatenated mismatch log-ratios (empty once dropped).
    pub(crate) fn mism_log_ratios_raw(&self) -> &[f64] {
        &self.mism_log_ratios
    }

    /// The packed prefix keys (may be empty; `equal_range` then skips the
    /// integer narrowing).
    pub(crate) fn prefix_keys_raw(&self) -> &[u64] {
        &self.prefix_keys
    }

    /// Reassembles a set from its persisted parts. `heavy_view` must be the
    /// heavy string read in the set's direction (the index-wide one for
    /// forward sets, a reversed copy for backward sets); `mism_log_ratios` is
    /// `None` for the variants without a grid, which store no such pool.
    /// Nothing is recomputed or copied: every array is taken as loaded.
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
        mism_start: ArenaVec<u32>,
        mism_depths: ArenaVec<u32>,
        mism_letters: ArenaVec<u8>,
        mism_log_ratios: Option<ArenaVec<f64>>,
        prefix_keys: ArenaVec<u64>,
    ) -> Result<EncodedFactorSet, String> {
        let n = heavy_view.len() as u64;
        let leaves = anchor_x.len();
        if lens.len() != leaves {
            return Err("factor-set leaf arrays have inconsistent lengths".into());
        }
        if mism_start.len() != leaves + 1 || mism_start.first().copied().unwrap_or(1) != 0 {
            return Err("mismatch offset table is malformed".into());
        }
        if mism_depths.len() != mism_letters.len()
            || mism_log_ratios
                .as_ref()
                .is_some_and(|r| r.len() != mism_depths.len())
        {
            return Err("mismatch component pools have inconsistent lengths".into());
        }
        // Every check below is a whole-array fold (these run over the
        // arrays on every arena open, so they must vectorize rather than
        // exit early).
        let descents = mism_start
            .windows(2)
            .fold(0usize, |acc, w| acc + usize::from(w[0] > w[1]));
        if descents != 0 || mism_start.last().map(|&v| v as usize) != Some(mism_depths.len()) {
            return Err("mismatch offsets do not cover the mismatch storage".into());
        }
        if !prefix_keys.is_empty() && prefix_keys.len() != leaves {
            return Err("prefix-key table length does not match the leaf count".into());
        }
        // Every factor reads the heavy view from its view anchor on: a
        // forward one up to `anchor + len`, a backward one down to
        // `anchor + 1 − len`.
        let overruns = anchor_x
            .iter()
            .zip(lens.iter())
            .fold(0usize, |acc, (&a, &len)| {
                let (a, len) = (u64::from(a), u64::from(len));
                let fits = match direction {
                    Direction::Forward => a + len <= n,
                    Direction::Backward => a < n && len <= a + 1,
                };
                acc + usize::from(!fits)
            });
        if overruns != 0 {
            return Err(format!("{overruns} factor(s) run past the heavy view"));
        }
        // Each leaf's depths strictly increase and stay inside the factor:
        // the slice comparisons of `equal_range` walk them in order.
        let bad_depths = mism_start
            .windows(2)
            .zip(lens.iter())
            .fold(0usize, |acc, (w, &len)| {
                let depths = &mism_depths[w[0] as usize..w[1] as usize];
                let repeats = depths
                    .windows(2)
                    .fold(0usize, |a, d| a + usize::from(d[0] >= d[1]));
                acc + repeats + usize::from(depths.last().is_some_and(|&d| d >= len))
            });
        if bad_depths != 0 {
            return Err("mismatch depths do not strictly increase within their factors".into());
        }
        // The heavy letter is the most probable, so every ratio is ≤ 1 and
        // its logarithm finite and ≤ 0 (a NaN or ±inf would silently
        // corrupt grid verification).
        let mism_log_ratios = mism_log_ratios.unwrap_or_default();
        let bad_ratios = mism_log_ratios.iter().fold(0usize, |acc, &r| {
            acc + usize::from(!(r.is_finite() && r <= 0.0))
        });
        if bad_ratios != 0 {
            return Err(format!(
                "{bad_ratios} mismatch log-ratio(s) are not finite and ≤ 0"
            ));
        }
        Ok(EncodedFactorSet {
            direction,
            heavy_view,
            anchor_x,
            lens,
            mism_start,
            mism_depths,
            mism_letters,
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

    /// Sorts the factors lexicographically and returns the finished set,
    /// the LCP values of neighbouring factors (entry 0 is 0) — exactly what
    /// [`ius_text::trie::CompactedTrie::build`] needs — and the sort order:
    /// the push index of the factor at each leaf rank. Equal factors are
    /// ordered by anchor, then by push index.
    ///
    /// # Panics
    ///
    /// If more than `u32::MAX` factors were pushed.
    pub fn finish(self) -> (EncodedFactorSet, Vec<usize>, Vec<u32>) {
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
        let anchor_to_view = |anchor_x: u32| -> usize {
            match self.direction {
                Direction::Forward => anchor_x as usize,
                Direction::Backward => n - 1 - anchor_x as usize,
            }
        };
        let lce = LceIndex::new(&heavy_view);
        let factors = self.factors;
        assert!(
            u32::try_from(factors.len()).is_ok(),
            "factor set exceeds u32 leaf ids"
        );
        // Packed prefix keys decide almost every comparison with one integer
        // compare; the O(log z) LCE comparator only breaks the ties of
        // factors sharing their first eight letters.
        let prefix_keys: Vec<u64> = factors
            .iter()
            .map(|f| prefix_key(f, &heavy_view, anchor_to_view(f.anchor_x)))
            .collect();
        let mut order: Vec<u32> = (0..factors.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (fa, fb) = (&factors[a as usize], &factors[b as usize]);
            prefix_keys[a as usize]
                .cmp(&prefix_keys[b as usize])
                .then_with(|| {
                    compare_pending(
                        fa,
                        anchor_to_view(fa.anchor_x),
                        fb,
                        anchor_to_view(fb.anchor_x),
                        &heavy_view,
                        &lce,
                    )
                })
                .then(fa.anchor_x.cmp(&fb.anchor_x))
                .then(a.cmp(&b))
        });

        let total_mismatches: usize = factors.iter().map(|f| f.mismatches.len()).sum();
        let mut raw = RawFactorData::with_capacity(order.len(), total_mismatches);
        let mut lcps = vec![0usize; order.len()];
        for (rank, &idx) in order.iter().enumerate() {
            let f = &factors[idx as usize];
            raw.anchor_x.push(f.anchor_x);
            raw.lens.push(f.len);
            for m in &f.mismatches {
                raw.mism_depths.push(m.depth);
                raw.mism_letters.push(m.letter);
                raw.mism_log_ratios.push(m.log_ratio);
            }
            raw.mism_start.push(raw.mism_depths.len() as u32);
            if rank > 0 {
                let prev = &factors[order[rank - 1] as usize];
                lcps[rank] = lcp_pending(
                    prev,
                    anchor_to_view(prev.anchor_x),
                    f,
                    anchor_to_view(f.anchor_x),
                    &heavy_view,
                    &lce,
                );
            }
        }
        // Keep the construction sort's packed keys, reordered to leaf order,
        // as the integer narrowing index of `equal_range`.
        let leaf_keys: Vec<u64> = order.iter().map(|&idx| prefix_keys[idx as usize]).collect();
        (
            raw.into_set(self.direction, heavy_view, leaf_keys),
            lcps,
            order,
        )
    }
}

/// Construction-time emission buffers of [`EncodedFactorSetBuilder`] — plain
/// vectors grown by `push`, converted into the set's flat pools at the end.
struct RawFactorData {
    anchor_x: Vec<u32>,
    lens: Vec<u32>,
    mism_start: Vec<u32>,
    mism_depths: Vec<u32>,
    mism_letters: Vec<u8>,
    mism_log_ratios: Vec<f64>,
}

impl RawFactorData {
    fn with_capacity(leaves: usize, mismatches: usize) -> Self {
        let mut mism_start = Vec::with_capacity(leaves + 1);
        mism_start.push(0);
        Self {
            anchor_x: Vec::with_capacity(leaves),
            lens: Vec::with_capacity(leaves),
            mism_start,
            mism_depths: Vec::with_capacity(mismatches),
            mism_letters: Vec::with_capacity(mismatches),
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
            anchor_x: ArenaVec::from(self.anchor_x),
            lens: ArenaVec::from(self.lens),
            mism_start: ArenaVec::from(self.mism_start),
            mism_depths: ArenaVec::from(self.mism_depths),
            mism_letters: ArenaVec::from(self.mism_letters),
            mism_log_ratios: ArenaVec::from(self.mism_log_ratios),
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
                log_ratio: 0.5f64.ln(),
            });
        }
        mismatches.sort_by_key(|m| m.depth);
        PendingFactor {
            anchor_x,
            len,
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
            let mut anchors = Vec::new();
            for _ in 0..80 {
                let f = random_factor(&mut rng, n, direction, sigma, &heavy);
                expected.push(materialize_pending(&f, &view, anchor_to_view(f.anchor_x)));
                anchors.push(f.anchor_x);
                builder.push(f);
            }
            let pushed = expected.clone();
            let (set, lcps, order) = builder.finish();
            assert_eq!(set.len(), expected.len());
            // The order names the pushed factor at each leaf; equal factors
            // keep (anchor, push index) order.
            for (leaf, &idx) in order.iter().enumerate() {
                assert_eq!(set.materialize(leaf), pushed[idx as usize]);
                assert_eq!(set.anchor_x(leaf), anchors[idx as usize] as usize);
            }
            for w in order.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                if pushed[a] == pushed[b] && anchors[a] == anchors[b] {
                    assert!(a < b, "ties must keep push order");
                }
            }
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
        let (set, _, _) = builder.finish();
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
            mismatches: vec![Mismatch {
                depth: 1,
                letter: 0,
                log_ratio: 0.25f64.ln(),
            }],
        });
        let (set, _, order) = builder.finish();
        assert_eq!(order, vec![0]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.materialize(0), vec![2, 0, 0, 1, 2]);
        assert_eq!(set.letter_at(0, 1), Some(0));
        assert_eq!(set.letter_at(0, 5), None);
        assert_eq!(LabelProvider::letter(&set, 0, 4), Some(2));
        assert_eq!(LabelProvider::len(&set, 0), 5);
        assert_eq!(set.mismatch_log_ratios(0), &[0.25f64.ln()]);
        assert_eq!(set.anchor_x(0), 2);
        assert_eq!(set.mismatch_depths(0), &[1]);
        assert_eq!(set.total_mismatches(), 1);
    }

    /// One forward leaf of length `len` anchored at 0 of a 5-letter heavy
    /// view, with the given mismatch depths and log-ratios.
    fn one_leaf(len: u32, depths: &[u32], log_ratios: &[f64]) -> Result<EncodedFactorSet, String> {
        EncodedFactorSet::from_loaded_parts(
            Direction::Forward,
            Arc::new(vec![0, 1, 0, 1, 0]),
            vec![0].into(),
            vec![len].into(),
            vec![0, depths.len() as u32].into(),
            depths.to_vec().into(),
            vec![1u8; depths.len()].into(),
            Some(log_ratios.to_vec().into()),
            ArenaVec::new(),
        )
    }

    #[test]
    fn loaded_parts_validation_rejects_corruption() {
        let heavy: Arc<Vec<u8>> = Arc::new(vec![0, 1, 0, 1, 0]);
        let good = |log_ratio: f64| one_leaf(3, &[2], &[log_ratio]);
        assert!(good(0.5f64.ln()).is_ok());
        assert!(good(0.0).is_ok());
        // Every ratio is ≤ 1 (the heavy letter is the most probable), so a
        // positive or non-finite log-ratio is corrupt and would silently
        // skew grid verification.
        for bad in [0.5, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            let err = good(bad).expect_err("bad log-ratio opened");
            assert!(err.contains("log-ratio"), "{err}");
        }
        // Depth beyond the factor length.
        assert!(one_leaf(3, &[3], &[-1.0]).is_err());
        // A log-ratio pool of the wrong length.
        assert!(one_leaf(3, &[2], &[-1.0, -1.0]).is_err());
        // Factor running past the heavy view, either way.
        for (direction, anchor, len) in [
            (Direction::Forward, 4, 2),
            (Direction::Backward, 1, 3),
            (Direction::Backward, 5, 1),
        ] {
            assert!(EncodedFactorSet::from_loaded_parts(
                direction,
                Arc::clone(&heavy),
                vec![anchor].into(),
                vec![len].into(),
                vec![0, 0].into(),
                ArenaVec::new(),
                ArenaVec::new(),
                None,
                ArenaVec::new(),
            )
            .is_err());
        }
    }

    #[test]
    fn unordered_mismatch_depths_are_refused_at_open() {
        // Depths out of order or repeated would make `equal_range` slice
        // `heavy[d..md]` with `d > md` and panic the query; the open refuses
        // them instead.
        assert!(one_leaf(5, &[1, 3], &[-1.0, -1.0]).is_ok());
        for depths in [[3, 1], [2, 2]] {
            let err = one_leaf(5, &depths, &[-1.0, -1.0]).expect_err("opened");
            assert!(err.contains("strictly increase"), "{depths:?}: {err}");
        }
    }

    #[test]
    fn empty_builder_finishes_cleanly() {
        let builder = EncodedFactorSetBuilder::new(Direction::Backward, Arc::new(vec![0, 1, 0]));
        assert!(builder.is_empty());
        let (set, lcps, order) = builder.finish();
        assert!(set.is_empty());
        assert!(lcps.is_empty());
        assert!(order.is_empty());
        assert_eq!(set.equal_range(&[0]), (0, 0));
    }
}
