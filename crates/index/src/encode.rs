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
//!
//! The build holds little more than the set it produces. The builder keeps
//! pending factors in struct-of-arrays pools (12 B per factor, 13 B per
//! mismatch) and sorts them on packed keys of their first 16 letters, with
//! each factor's anchor and push index beside the keys. The LCE comparator
//! runs only inside runs of equal keys, between factors longer than 16
//! letters. Each pool is permuted into the set and freed. Neighbour LCPs
//! are not part of the build: the tree variants compute them from the
//! finished set (`EncodedFactorSet::neighbour_lcps`), from the XOR of the
//! packed 8-letter prefix keys where those differ and with the LCE walk
//! from depth 8 where they are equal. Both walks answer equal and short
//! heavy-view extensions directly and build the LCE index over the view
//! only on the first extension longer than 32 letters.

use ius_arena::ArenaVec;
use ius_text::lce::LceIndex;
use ius_text::trie::LabelProvider;
use ius_weighted::Error;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Reading direction of a factor set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Factors read left-to-right starting at the anchor (the `T_suff` tree).
    Forward,
    /// Factors read right-to-left starting at the anchor (the `T_pref` tree).
    Backward,
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
    /// `ln(p(letter) / p(heavy letter))` per stored mismatch — at most 0,
    /// the heavy letter being the most probable; the terms grid
    /// verification sums. Empty in the sets of the variants without a grid,
    /// which verify against `X` instead.
    mism_log_ratios: ArenaVec<f64>,
    /// Packed 8-letter prefix key per sorted leaf (see [`packed_keys`]),
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
    /// In a set without the log-ratio pool (the sets of MWST and MWSA,
    /// which verify against `X`) that stores mismatches.
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

    /// The `leaf`-th factor as the comparators read it.
    fn factor(&self, leaf: usize) -> FactorRef<'_> {
        let r = self.mism_range(leaf);
        FactorRef {
            view: self.view_anchor(leaf),
            len: self.factor_len(leaf),
            depths: &self.mism_depths[r.clone()],
            letters: &self.mism_letters[r],
        }
    }

    /// The LCP of each leaf's factor with the previous leaf's (entry 0 is
    /// 0) — what [`ius_text::trie::CompactedTrie::build`] needs, so only
    /// the tree variants compute it. Neighbours whose packed prefix keys
    /// differ take it from the keys' XOR; the others walk on from depth 8
    /// with `O(log z)` extensions over the heavy view.
    pub(crate) fn neighbour_lcps(&self) -> Vec<usize> {
        let heavy = HeavyLce::new(&self.heavy_view);
        let lcp = |leaf: usize| {
            let from = match self.prefix_keys.get(leaf - 1..=leaf) {
                // Letters pack as rank + 1 and the end as 0, so the first
                // differing byte is where the factors part.
                Some(&[a, b]) if a != b => return ((a ^ b).leading_zeros() / 8) as usize,
                Some(_) => 8,
                None => 0,
            };
            lcp_from(self.factor(leaf - 1), self.factor(leaf), from, &heavy)
        };
        (0..self.len())
            .map(|leaf| if leaf == 0 { 0 } else { lcp(leaf) })
            .collect()
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
    /// packed 8-letter prefix key equals the pattern's (pure integer
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

/// Refuses a corpus with more positions than `u32` can address. The factor
/// sets store anchors, lengths and depths as `u32`, and both minimizer
/// builds narrow positions to `u32` only once this check has passed.
///
/// # Errors
///
/// [`Error::InvalidParameters`] if `n > u32::MAX`.
pub(crate) fn check_u32_positions(n: usize) -> Result<(), Error> {
    if u32::try_from(n).is_err() {
        return Err(Error::InvalidParameters(format!(
            "|X| = {n} exceeds the {} positions a minimizer index addresses (u32 anchors)",
            u32::MAX
        )));
    }
    Ok(())
}

/// Builder collecting factors before sorting them into an
/// [`EncodedFactorSet`].
///
/// Pending factors live in struct-of-arrays pools, with no allocation per
/// factor: per factor its anchor, length and the end of its entries in the
/// mismatch pools (12 B), per mismatch its depth, letter and log-ratio
/// (13 B). [`EncodedFactorSetBuilder::finish`] permutes each pool into the
/// set and frees it before the next.
#[derive(Debug)]
pub struct EncodedFactorSetBuilder {
    direction: Direction,
    /// Heavy string of `X` (always in forward orientation), borrowed from
    /// the index-wide heavy string — the builder never copies it.
    heavy_forward: Arc<Vec<u8>>,
    anchor_x: Vec<u32>,
    lens: Vec<u32>,
    /// End of each factor's entries in the mismatch pools; they start at
    /// the previous factor's end.
    mism_end: Vec<u32>,
    mism_depths: Vec<u32>,
    mism_letters: Vec<u8>,
    mism_log_ratios: Vec<f64>,
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
            anchor_x: Vec::new(),
            lens: Vec::new(),
            mism_end: Vec::new(),
            mism_depths: Vec::new(),
            mism_letters: Vec::new(),
            mism_log_ratios: Vec::new(),
        }
    }

    /// Adds a factor: its anchor in `X` (the minimizer position), its length
    /// (letters read from the anchor in the builder's direction) and its
    /// deviations from the heavy string as `(depth, letter, log_ratio)` in
    /// strictly increasing depth order, where `log_ratio` is
    /// `ln(p(letter) / p(heavy letter))` at that position of `X` — at most
    /// 0, the heavy letter being the most probable.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if the set would hold more than
    /// `u32::MAX` factors or mismatches (its leaf ids and mismatch offsets
    /// are `u32`). The builder is then left as it was.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a mismatch depth is not below the factor
    /// length or the depths do not strictly increase.
    pub fn push(
        &mut self,
        anchor_x: u32,
        len: u32,
        mismatches: impl IntoIterator<Item = (u32, u8, f64)>,
    ) -> Result<(), Error> {
        if u32::try_from(self.lens.len() + 1).is_err() {
            return Err(Error::InvalidParameters(
                "a factor set holds at most u32::MAX factors".into(),
            ));
        }
        let start = self.mism_depths.len();
        for (depth, letter, log_ratio) in mismatches {
            debug_assert!(depth < len, "mismatch depth beyond factor length");
            debug_assert!(
                self.mism_depths[start..].last().is_none_or(|&d| d < depth),
                "mismatches must be sorted by depth"
            );
            self.mism_depths.push(depth);
            self.mism_letters.push(letter);
            self.mism_log_ratios.push(log_ratio);
        }
        let Ok(end) = u32::try_from(self.mism_depths.len()) else {
            self.mism_depths.truncate(start);
            self.mism_letters.truncate(start);
            self.mism_log_ratios.truncate(start);
            return Err(Error::InvalidParameters(
                "a factor set holds at most u32::MAX mismatches".into(),
            ));
        };
        self.anchor_x.push(anchor_x);
        self.lens.push(len);
        self.mism_end.push(end);
        Ok(())
    }

    /// Number of factors pushed so far.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// `true` iff nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Sorts the factors by (string, anchor, push index), drops every
    /// *prefix-dominated* factor and returns the finished set of the others
    /// together with, for each pushed factor, the leaf rank of the factor
    /// that survives it: its own, or that of the factor dominating it.
    ///
    /// A factor is dominated when the next factor of the same anchor in
    /// sorted order has it as a prefix (an equal string included, so one
    /// copy of a string survives per anchor). Every pattern that is a
    /// prefix of a dominated factor is a prefix of its survivor, at the
    /// same anchor and with the same letters, so no query needs it.
    ///
    /// The sort compares packed keys of the factors' first 16 letters, with
    /// each factor's anchor and push index held beside them (see
    /// `packed_keys`). The `O(log z)` LCE comparator runs only between
    /// factors longer than 16 letters that agree on all 16; the LCE index
    /// over the heavy view is built only if one of its extensions runs past
    /// 32 letters. The prefix test between two factors of one anchor reads
    /// their mismatches alone (their heavy letters coincide). Each pending
    /// pool is then permuted into leaf order, without the dominated
    /// factors, and freed. No LCPs are computed: only the tree variants
    /// need them, from `EncodedFactorSet::neighbour_lcps`.
    pub fn finish(self) -> (EncodedFactorSet, Vec<u32>) {
        let Self {
            direction,
            heavy_forward,
            mut anchor_x,
            mut lens,
            mut mism_end,
            mut mism_depths,
            mut mism_letters,
            mut mism_log_ratios,
        } = self;
        // The pools grew by doubling; the sort and the permutation below
        // run beside them, so hand the slack back first.
        anchor_x.shrink_to_fit();
        lens.shrink_to_fit();
        mism_end.shrink_to_fit();
        mism_depths.shrink_to_fit();
        mism_letters.shrink_to_fit();
        mism_log_ratios.shrink_to_fit();
        let n = heavy_forward.len();
        let heavy_view: Arc<Vec<u8>> = match direction {
            // Forward sets read the heavy string as-is: share the allocation.
            Direction::Forward => heavy_forward,
            // Backward sets read it reversed: one owned copy, unavoidable
            // because the LCE index is built over the view's orientation.
            Direction::Backward => {
                let mut v = (*heavy_forward).clone();
                v.reverse();
                Arc::new(v)
            }
        };
        let pending = |i: usize| {
            let r = pool_range(&mism_end, i);
            FactorRef {
                view: match direction {
                    Direction::Forward => anchor_x[i] as usize,
                    Direction::Backward => n - 1 - anchor_x[i] as usize,
                },
                len: lens[i] as usize,
                depths: &mism_depths[r.clone()],
                letters: &mism_letters[r],
            }
        };
        let mut entries: Vec<SortEntry> = (0..lens.len())
            .map(|i| {
                let (key_hi, key_lo) = packed_keys(pending(i), &heavy_view);
                SortEntry {
                    key_hi,
                    key_lo,
                    tie: u64::from(anchor_x[i]) << 32 | i as u64,
                }
            })
            .collect();
        let heavy = HeavyLce::new(&heavy_view);
        entries.sort_unstable_by(|a, b| {
            (a.key_hi, a.key_lo)
                .cmp(&(b.key_hi, b.key_lo))
                .then_with(|| {
                    // Equal keys ending in a letter: both factors have at
                    // least 16 letters and agree on them; what follows
                    // decides. Equal keys ending in padding are equal
                    // strings.
                    if a.key_lo & 0xFF == 0 {
                        return Ordering::Equal;
                    }
                    compare_from(
                        pending(a.push_index()),
                        pending(b.push_index()),
                        KEY_LETTERS,
                        &heavy,
                    )
                })
                .then(a.tie.cmp(&b.tie))
        });
        let mut order: Vec<u32> = entries.iter().map(|e| e.push_index() as u32).collect();
        drop(entries);
        let survivors = drop_dominated(&mut order, n, &anchor_x, &pending, &heavy);
        drop(heavy);
        // The first eight letters' key, in leaf order, is the integer
        // narrowing index of `equal_range`. Packing it again costs less
        // than holding it beside the sort entries.
        let prefix_keys: Vec<u64> = order
            .iter()
            .map(|&i| packed_keys(pending(i as usize), &heavy_view).0)
            .collect();

        let mut mism_start = Vec::with_capacity(order.len() + 1);
        mism_start.push(0u32);
        let mut total = 0u32;
        for &i in &order {
            // At most the pools' length, which `push` kept within u32.
            total += pool_range(&mism_end, i as usize).len() as u32;
            mism_start.push(total);
        }
        let set = EncodedFactorSet {
            direction,
            heavy_view,
            mism_depths: permute_pool(mism_depths, &mism_end, &order, total).into(),
            mism_letters: permute_pool(mism_letters, &mism_end, &order, total).into(),
            mism_log_ratios: permute_pool(mism_log_ratios, &mism_end, &order, total).into(),
            mism_start: mism_start.into(),
            anchor_x: permute(anchor_x, &order).into(),
            lens: permute(lens, &order).into(),
            prefix_keys: prefix_keys.into(),
        };
        (set, survivors)
    }
}

/// Removes the prefix-dominated factors from `order` (the push index at
/// each sorted rank, kept in rank order) and returns, per push index, the
/// leaf rank of its survivor among the factors kept. One pass from the
/// last rank down, with the push index of the next-ranked factor of each
/// anchor in an `n`-entry table. The survivors are compacted to the top of
/// `order` as they are found, never below the rank being read.
fn drop_dominated<'a>(
    order: &mut Vec<u32>,
    n: usize,
    anchor_x: &[u32],
    pending: &impl Fn(usize) -> FactorRef<'a>,
    heavy: &HeavyLce<'_>,
) -> Vec<u32> {
    const NONE: u32 = u32::MAX;
    // Push indices stay below u32::MAX (`push` caps the count there).
    let mut next_of_anchor = vec![NONE; n];
    // Per push index: the survivor's rank counted from the top, for now.
    let mut survivor = vec![0u32; order.len()];
    let (mut kept, mut top) = (0u32, order.len());
    for rank in (0..order.len()).rev() {
        let i = order[rank] as usize;
        let next = std::mem::replace(&mut next_of_anchor[anchor_x[i] as usize], i as u32);
        let dominated = next != NONE && {
            let (f, g) = (pending(i), pending(next as usize));
            f.len <= g.len && lcp_from(f, g, 0, heavy) == f.len
        };
        if dominated {
            survivor[i] = survivor[next as usize];
        } else {
            survivor[i] = kept;
            kept += 1;
            top -= 1;
            order[top] = i as u32;
        }
    }
    order.drain(..top);
    for s in &mut survivor {
        *s = kept - 1 - *s;
    }
    survivor
}

/// Letters packed into the construction sort's keys.
const KEY_LETTERS: usize = 16;

/// One factor in the construction sort: its first 16 letters packed as by
/// [`packed_keys`], then its anchor and push index packed as
/// `anchor << 32 | push`, whose integer order is the tie-break order.
#[derive(Debug, Clone, Copy)]
struct SortEntry {
    key_hi: u64,
    key_lo: u64,
    tie: u64,
}

impl SortEntry {
    /// The factor's push index.
    #[inline]
    fn push_index(&self) -> usize {
        (self.tie & u64::from(u32::MAX)) as usize
    }
}

/// The range of pending factor `i`'s entries in the mismatch pools.
#[inline]
fn pool_range(mism_end: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { mism_end[i - 1] };
    start as usize..mism_end[i] as usize
}

/// A pending per-factor column in leaf order (`order[rank]` is the pushed
/// factor at each rank). Consumes the column, so it is freed on return.
fn permute<T: Copy>(column: Vec<T>, order: &[u32]) -> Vec<T> {
    order.iter().map(|&i| column[i as usize]).collect()
}

/// A pending mismatch pool with the entries of the factors in `order`, in
/// leaf order (`total` of them). Consumes the pool, so it is freed on
/// return.
fn permute_pool<T: Copy>(pool: Vec<T>, mism_end: &[u32], order: &[u32], total: u32) -> Vec<T> {
    let mut out = Vec::with_capacity(total as usize);
    for &i in order {
        out.extend_from_slice(&pool[pool_range(mism_end, i as usize)]);
    }
    out
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
/// [`packed_keys`] packs a factor's, for the integer narrowing of
/// [`EncodedFactorSet::equal_range`].
fn pattern_prefix_key(pattern: &[u8]) -> u64 {
    let mut key = 0u64;
    for &c in &pattern[..8] {
        key = (key << 8) | (c as u64 + 1);
    }
    key
}

/// Packs the first 16 letters of a factor big-endian into two `u64`s,
/// letters `0..8` and `8..16`, whose integer order is the lexicographic
/// order of those prefixes: letters are stored as `rank + 1`, so "past the
/// factor's end" packs as 0 and a proper prefix sorts first. The first is
/// the factor's stored prefix key.
fn packed_keys(f: FactorRef<'_>, view: &[u8]) -> (u64, u64) {
    let mut letters = [0u8; KEY_LETTERS];
    let take = f.len.min(KEY_LETTERS);
    for (slot, &c) in letters[..take].iter_mut().zip(&view[f.view..f.view + take]) {
        *slot = c + 1;
    }
    for (&depth, &c) in f.depths.iter().zip(f.letters) {
        // Depths increase and stay below the length.
        let Some(slot) = letters.get_mut(depth as usize) else {
            break;
        };
        *slot = c + 1;
    }
    let key = u128::from_be_bytes(letters);
    ((key >> 64) as u64, key as u64)
}

/// One encoded factor as the comparators read it: its anchor in view
/// coordinates, its length and its stored mismatches (depths strictly
/// increasing, each below the length).
#[derive(Debug, Clone, Copy)]
struct FactorRef<'a> {
    view: usize,
    len: usize,
    depths: &'a [u32],
    letters: &'a [u8],
}

impl FactorRef<'_> {
    /// The letter at `depth` (below the length).
    fn letter(&self, view: &[u8], depth: usize) -> u8 {
        match self.depths.iter().position(|&d| d as usize == depth) {
            Some(slot) => self.letters[slot],
            None => view[self.view + depth],
        }
    }
}

/// Letters compared directly before a heavy-view extension falls back to
/// the LCE index: on text that does not repeat itself, two distinct
/// positions part within a few letters and the index is never built.
const DIRECT_LCE_LETTERS: usize = 32;

/// Longest common extensions over a heavy view. Equal positions and short
/// extensions are answered directly; the LCE index (suffix array, LCP and
/// RMQ over the view) is built on the first extension longer than
/// [`DIRECT_LCE_LETTERS`], so every answer stays `O(1)` after at most
/// that many letter comparisons.
struct HeavyLce<'a> {
    view: &'a [u8],
    index: OnceCell<LceIndex>,
}

impl<'a> HeavyLce<'a> {
    fn new(view: &'a [u8]) -> Self {
        Self {
            view,
            index: OnceCell::new(),
        }
    }

    /// The common extension of the view's suffixes at `i` and `j`, capped
    /// at `max` (both suffixes have at least `max` letters).
    fn common(&self, i: usize, j: usize, max: usize) -> usize {
        if i == j {
            return max;
        }
        let direct = max.min(DIRECT_LCE_LETTERS);
        let same = self.view[i..i + direct]
            .iter()
            .zip(&self.view[j..j + direct])
            .take_while(|(a, b)| a == b)
            .count();
        if same < direct || direct == max {
            return same;
        }
        let index = self.index.get_or_init(|| LceIndex::new(self.view));
        index.lce(i, j).min(max)
    }
}

/// The first depth at or after `from` where two factors differ, capped at
/// the shorter length; the caller vouches that they agree before `from`.
/// `O(#mismatches)` heavy-view extensions.
fn lcp_from(a: FactorRef<'_>, b: FactorRef<'_>, from: usize, heavy: &HeavyLce<'_>) -> usize {
    let view = heavy.view;
    let limit = a.len.min(b.len);
    let mut d = from;
    let mut ai = 0usize;
    let mut bi = 0usize;
    while d < limit {
        // Skip mismatches whose depth is behind `d`.
        while ai < a.depths.len() && (a.depths[ai] as usize) < d {
            ai += 1;
        }
        while bi < b.depths.len() && (b.depths[bi] as usize) < d {
            bi += 1;
        }
        let next_a = a.depths.get(ai).map_or(usize::MAX, |&m| m as usize);
        let next_b = b.depths.get(bi).map_or(usize::MAX, |&m| m as usize);
        if next_a == d || next_b == d {
            let la = if next_a == d {
                a.letters[ai]
            } else {
                view[a.view + d]
            };
            let lb = if next_b == d {
                b.letters[bi]
            } else {
                view[b.view + d]
            };
            if la != lb {
                return d;
            }
            d += 1;
            continue;
        }
        // Both factors follow the heavy view until the next mismatch.
        let stretch = limit.min(next_a).min(next_b) - d;
        let step = heavy.common(a.view + d, b.view + d, stretch);
        if step < stretch {
            return d + step;
        }
        d += stretch;
    }
    limit
}

/// Lexicographic comparison of two encoded factors that agree before
/// `from` (`O(log z)` heavy-view extensions).
fn compare_from(a: FactorRef<'_>, b: FactorRef<'_>, from: usize, heavy: &HeavyLce<'_>) -> Ordering {
    let l = lcp_from(a, b, from, heavy);
    if l >= a.len.min(b.len) {
        return a.len.cmp(&b.len);
    }
    a.letter(heavy.view, l).cmp(&b.letter(heavy.view, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A factor as a test pushes it: its anchor in `X`, its length and its
    /// `(depth, letter, log_ratio)` mismatches in depth order.
    #[derive(Debug, Clone)]
    struct TestFactor {
        anchor_x: u32,
        len: u32,
        mismatches: Vec<(u32, u8, f64)>,
    }

    /// `letters` read in `direction`: the heavy view of a heavy string, and
    /// the heavy string of a view (reversal is its own inverse).
    fn oriented(letters: &[u8], direction: Direction) -> Vec<u8> {
        let mut v = letters.to_vec();
        if direction == Direction::Backward {
            v.reverse();
        }
        v
    }

    /// The factor spelling `letters` from view position `view_anchor`: a
    /// mismatch wherever they leave the heavy view. Log-ratios differ by
    /// anchor and depth, so a test sees whether the pools were permuted
    /// together.
    fn spelling(
        view: &[u8],
        direction: Direction,
        view_anchor: usize,
        letters: &[u8],
    ) -> TestFactor {
        let anchor_x = match direction {
            Direction::Forward => view_anchor,
            Direction::Backward => view.len() - 1 - view_anchor,
        };
        TestFactor {
            anchor_x: anchor_x as u32,
            len: letters.len() as u32,
            mismatches: letters
                .iter()
                .zip(&view[view_anchor..])
                .enumerate()
                .filter(|(_, (c, h))| c != h)
                .map(|(d, (&c, _))| (d as u32, c, -((anchor_x * 64 + d) as f64)))
                .collect(),
        }
    }

    /// A random factor of up to 30 letters with up to three mismatches.
    fn random_factor(rng: &mut StdRng, view: &[u8], direction: Direction, sigma: u8) -> TestFactor {
        let view_anchor = rng.gen_range(0..view.len());
        let len = rng.gen_range(1..=(view.len() - view_anchor).min(30));
        let mut letters = view[view_anchor..view_anchor + len].to_vec();
        for _ in 0..rng.gen_range(0..=3usize) {
            let d = rng.gen_range(0..len);
            let shift = u16::from(rng.gen_range(1..sigma));
            letters[d] = ((u16::from(view[view_anchor + d]) + shift) % u16::from(sigma)) as u8;
        }
        spelling(view, direction, view_anchor, &letters)
    }

    /// Pushes `factors` in order and finishes the set.
    fn build(
        heavy: &Arc<Vec<u8>>,
        direction: Direction,
        factors: &[TestFactor],
    ) -> (EncodedFactorSet, Vec<u32>) {
        let mut builder = EncodedFactorSetBuilder::new(direction, Arc::clone(heavy));
        for f in factors {
            builder
                .push(f.anchor_x, f.len, f.mismatches.iter().copied())
                .unwrap();
        }
        builder.finish()
    }

    /// Builds `factors` and checks the set against a plain sort of their
    /// materialised strings by (string, anchor, push index) with every
    /// factor dropped whose next factor of the same anchor in that order
    /// has it as a prefix: the kept order, each leaf's letters, anchor and
    /// mismatches, the neighbour LCPs and each pushed factor's survivor.
    fn assert_sorted_like_materialised(
        heavy: &Arc<Vec<u8>>,
        direction: Direction,
        factors: &[TestFactor],
    ) {
        let view = oriented(heavy, direction);
        let strings: Vec<Vec<u8>> = factors
            .iter()
            .map(|f| {
                let view_anchor = match direction {
                    Direction::Forward => f.anchor_x as usize,
                    Direction::Backward => view.len() - 1 - f.anchor_x as usize,
                };
                let mut s = view[view_anchor..view_anchor + f.len as usize].to_vec();
                for &(depth, letter, _) in &f.mismatches {
                    s[depth as usize] = letter;
                }
                s
            })
            .collect();
        let mut sorted: Vec<usize> = (0..factors.len()).collect();
        sorted.sort_by_key(|&i| (&strings[i], factors[i].anchor_x, i));
        // The next factor of the same anchor, per sorted rank.
        let next: Vec<Option<usize>> = (0..sorted.len())
            .map(|rank| {
                let anchor = factors[sorted[rank]].anchor_x;
                (rank + 1..sorted.len()).find(|&r| factors[sorted[r]].anchor_x == anchor)
            })
            .collect();
        let dominated = |rank: usize| {
            next[rank].is_some_and(|r| strings[sorted[r]].starts_with(&strings[sorted[rank]]))
        };
        let kept: Vec<usize> = (0..sorted.len()).filter(|&r| !dominated(r)).collect();
        let (set, survivors) = build(heavy, direction, factors);
        assert_eq!(set.len(), kept.len(), "kept leaves ({direction:?})");
        for (rank, &i) in sorted.iter().enumerate() {
            let mut survivor = rank;
            while dominated(survivor) {
                survivor = next[survivor].unwrap();
            }
            let leaf = kept.binary_search(&survivor).unwrap();
            assert_eq!(survivors[i] as usize, leaf, "survivor of factor {i}");
            assert!(strings[sorted[survivor]].starts_with(&strings[i]));
        }
        let lcps = set.neighbour_lcps();
        assert_eq!(lcps.len(), kept.len());
        for (leaf, &rank) in kept.iter().enumerate() {
            let i = sorted[rank];
            let f = &factors[i];
            assert_eq!(set.materialize(leaf), strings[i], "leaf {leaf}");
            assert_eq!(set.anchor_x(leaf), f.anchor_x as usize);
            let depths: Vec<u32> = f.mismatches.iter().map(|m| m.0).collect();
            let ratios: Vec<f64> = f.mismatches.iter().map(|m| m.2).collect();
            assert_eq!(set.mismatch_depths(leaf), &depths[..], "leaf {leaf}");
            assert_eq!(set.mismatch_log_ratios(leaf), &ratios[..], "leaf {leaf}");
            let direct = match leaf {
                0 => 0,
                _ => strings[sorted[kept[leaf - 1]]]
                    .iter()
                    .zip(&strings[i])
                    .take_while(|(a, b)| a == b)
                    .count(),
            };
            assert_eq!(lcps[leaf], direct, "LCP at leaf {leaf} ({direction:?})");
        }
    }

    /// Exactly the prefix-dominated factors go: a prefix chain at one
    /// anchor keeps its longest string, equal strings at one anchor keep
    /// one copy, and a string survives beside its copy or its extension at
    /// another anchor, or beside a factor its mismatch letter parts from.
    #[test]
    fn finish_drops_exactly_the_prefix_dominated_factors() {
        let heavy = Arc::new(vec![0u8, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let factors = [
            // A prefix chain at 0: "01" ⊂ "0123" ⊂ "012301".
            (0, 2, vec![]),
            (0, 4, vec![]),
            (0, 6, vec![]),
            // "012" twice at 4, once at 8: a prefix of "012301", which is
            // anchored elsewhere.
            (4, 3, vec![]),
            (4, 3, vec![]),
            (8, 3, vec![]),
            // "13" (a mismatch at depth 1) and "1230" at 1.
            (1, 2, vec![(1, 3, -0.5)]),
            (1, 4, vec![]),
        ];
        let mut builder = EncodedFactorSetBuilder::new(Direction::Forward, heavy);
        for (anchor, len, mismatches) in factors {
            builder.push(anchor, len, mismatches).unwrap();
        }
        let (set, survivors) = builder.finish();
        // Kept, in (string, anchor) order: "012" at 4 (the later push) and
        // at 8, "012301", "1230", "13".
        let leaves: Vec<(usize, Vec<u8>)> = (0..set.len())
            .map(|leaf| (set.anchor_x(leaf), set.materialize(leaf)))
            .collect();
        assert_eq!(
            leaves,
            vec![
                (4, vec![0, 1, 2]),
                (8, vec![0, 1, 2]),
                (0, vec![0, 1, 2, 3, 0, 1]),
                (1, vec![1, 2, 3, 0]),
                (1, vec![1, 3]),
            ]
        );
        assert_eq!(survivors, vec![2, 2, 2, 0, 0, 1, 4, 3]);
        assert_eq!(set.mismatch_log_ratios(4), &[-0.5]);
        assert_eq!(set.total_mismatches(), 1);
    }

    #[test]
    fn sorted_set_orders_and_lcps_match_materialised_strings() {
        let mut rng = StdRng::seed_from_u64(12);
        for direction in [Direction::Forward, Direction::Backward] {
            let (n, sigma) = (60usize, 3u8);
            let heavy: Arc<Vec<u8>> = Arc::new((0..n).map(|_| rng.gen_range(0..sigma)).collect());
            let view = oriented(&heavy, direction);
            let factors: Vec<TestFactor> = (0..80)
                .map(|_| random_factor(&mut rng, &view, direction, sigma))
                .collect();
            assert_sorted_like_materialised(&heavy, direction, &factors);
            let (heavy, factors) = fast_path_factors(&mut rng, direction);
            assert_sorted_like_materialised(&heavy, direction, &factors);
        }
    }

    /// A heavy string and factors over it that drive the sort's fast paths:
    /// the packed 16-letter keys, the LCE fallback inside runs of equal
    /// keys, and the tie-breaks.
    fn fast_path_factors(
        rng: &mut StdRng,
        direction: Direction,
    ) -> (Arc<Vec<u8>>, Vec<TestFactor>) {
        // A 255-letter alphabet, so letter ranks reach 254 (packed as
        // 255). The view repeats its stretch 20..100 at 120 and 210, so
        // factors there agree on heavy letters alone far past 16 letters
        // (and past the 32 compared directly, so the LCE index is built)
        // and part where the copies were changed (depths 70, 60).
        let mut view: Vec<u8> = (0..300).map(|_| rng.gen_range(0..255u8)).collect();
        view[20] = 254;
        view[21] = 0;
        view[22] = 254;
        let stretch = view[20..100].to_vec();
        view[120..200].copy_from_slice(&stretch);
        view[210..290].copy_from_slice(&stretch);
        view[190] = ((u16::from(view[190]) + 1) % 255) as u8;
        view[270] = ((u16::from(view[270]) + 7) % 255) as u8;
        let heavy = Arc::new(oriented(&view, direction));
        let stem = |len: usize| stretch[..len].to_vec();
        let own = |view_anchor: usize, len: usize| view[view_anchor..view_anchor + len].to_vec();
        let with = |len: usize, depth: usize, letter: u8| {
            let mut s = stem(len);
            s[depth] = letter;
            s
        };
        let spell =
            |view_anchor: usize, letters: &[u8]| spelling(&view, direction, view_anchor, letters);
        let factors = vec![
            // (a) longer than 16 letters and equal on all 16: heavy
            // copies parting at depths 70 and 60, one parting by a
            // mismatch at depth 30, one spelled through mismatches
            // elsewhere, two parting at depth 16 itself.
            spell(20, &own(20, 80)),
            spell(120, &own(120, 80)),
            spell(210, &own(210, 80)),
            spell(120, &with(80, 30, 254)),
            spell(5, &stem(33)),
            spell(60, &with(17, 16, 254)),
            spell(210, &with(24, 16, 0)),
            // (b) exactly 8 and 16 letters, next to longer extensions
            // of themselves (9, 17 and the ones above).
            spell(20, &stem(8)),
            spell(120, &stem(16)),
            spell(20, &stem(9)),
            spell(210, &stem(17)),
            spell(120, &stem(8)),
            // (c) one string at several anchors (heavy, or spelled
            // through mismatches, like the 80 letters at 120), and at one
            // anchor across push indices.
            spell(20, &stem(16)),
            spell(210, &stem(16)),
            spell(70, &stem(16)),
            spell(20, &stem(16)),
            spell(120, &stem(80)),
            spell(20, &stem(8)),
            // (d) ranks 254 and 0 (the stem starts 254, 0, 254), also by
            // mismatch, at the front and inside the first key.
            spell(3, &with(12, 0, 254)),
            spell(3, &with(12, 0, 0)),
            spell(40, &with(20, 7, 254)),
        ];
        let mut factors = factors;
        factors.extend((0..40).map(|_| random_factor(rng, &view, direction, 255)));
        (heavy, factors)
    }

    #[test]
    fn equal_range_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 50usize;
        let sigma = 2u8;
        let heavy: Arc<Vec<u8>> = Arc::new((0..n).map(|_| rng.gen_range(0..sigma)).collect());
        let factors: Vec<TestFactor> = (0..60)
            .map(|_| random_factor(&mut rng, &heavy, Direction::Forward, sigma))
            .collect();
        let (set, _) = build(&heavy, Direction::Forward, &factors);
        assert!(set.len() > 30, "pruning left too few leaves to search");
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
        builder.push(2, 5, [(1, 0, 0.25f64.ln())]).unwrap();
        let (set, survivors) = builder.finish();
        assert_eq!(survivors, vec![0]);
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
    fn positions_past_u32_are_refused() {
        assert!(check_u32_positions(u32::MAX as usize).is_ok());
        let err = check_u32_positions(u32::MAX as usize + 1).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidParameters(m) if m.contains("4294967296")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_builder_finishes_cleanly() {
        let builder = EncodedFactorSetBuilder::new(Direction::Backward, Arc::new(vec![0, 1, 0]));
        assert!(builder.is_empty());
        let (set, survivors) = builder.finish();
        assert!(set.is_empty());
        assert!(set.neighbour_lcps().is_empty());
        assert!(survivors.is_empty());
        assert_eq!(set.equal_range(&[0]), (0, 0));
    }
}
