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
//!   inside it. Only the grid variants' sets hold that pool, derived from
//!   `X` after the build; the others verify against `X`.
//!
//! A set stores its factors' lengths and mismatch depths at the narrowest
//! of `u8`, `u16` and `u32` that holds its longest factor, and its mismatch
//! offsets at the narrowest that holds its mismatch total (see
//! [`EncodedFactorSet::length_width`] and
//! [`EncodedFactorSet::offset_width`]).
//!
//! The build holds little more than the set it produces. The builder keeps
//! pending factors in struct-of-arrays pools (8 B per factor, its caller
//! 4 B for its anchor, 5 B per mismatch) and sorts them on packed keys of
//! their first 16 letters, with each factor's anchor and push index beside
//! the keys. The LCE comparator
//! runs only inside runs of equal keys, between factors longer than 16
//! letters. The sort entries are released as the rank order is read off
//! them. Each pool is permuted into the set (the lengths, depths and
//! offsets straight into their narrow tables) and freed. Neighbour LCPs are
//! not part of the build: the tree variants compute them from the finished
//! set (`EncodedFactorSet::neighbour_lcps`), from the XOR of the two
//! leaves' packed 8-letter keys where those differ and with the LCE walk
//! from depth 8 where they are equal. Both walks answer equal and short
//! heavy-view extensions directly and build the LCE index over the view
//! only on the first extension longer than 32 letters.
//!
//! A leaf's **key** packs its first 8 letters big-endian into a `u64`,
//! each as `rank + 1` and the end of a shorter factor as 0, so keys are
//! non-decreasing in leaf order. No per-leaf key is stored: a key costs
//! one read of the leaf's anchor, its heavy-view letters and its
//! mismatches below depth 8. The array variants keep a **key directory**,
//! the key of every [`KEY_STRIDE`]-th leaf (8 B per 16 leaves), which
//! [`EncodedFactorSet::equal_range`] searches before it reads any leaf.

use ius_arena::narrow::{width_for, Entry, NarrowTable};
use ius_arena::with_entries;
use ius_arena::ArenaVec;
use ius_text::lce::LceIndex;
use ius_text::trie::{CompactedTrie, Descent, LabelProvider};
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
    lens: NarrowTable,
    /// Offsets into the mismatch pools, one per leaf plus a trailing total.
    mism_start: NarrowTable,
    /// The concatenated mismatch storage, struct-of-arrays: depth, letter
    /// and log-ratio per stored mismatch. Flat pools (the depths as wide as
    /// `lens`), so a persisted set can borrow them zero-copy from the index
    /// arena.
    mism_depths: NarrowTable,
    mism_letters: ArenaVec<u8>,
    /// `ln(p(letter) / p(heavy letter))` per stored mismatch — at most 0,
    /// the heavy letter being the most probable; the terms grid
    /// verification sums. Empty in the sets of the variants without a grid,
    /// which verify against `X` instead.
    mism_log_ratios: ArenaVec<f64>,
    /// The key directory: the packed 8-letter key of leaves 0,
    /// [`KEY_STRIDE`], 2·[`KEY_STRIDE`], …, so `⌈len / KEY_STRIDE⌉`
    /// entries, non-decreasing. `equal_range` finds its boundary buckets
    /// here with integer comparisons. Derived for the array variants only
    /// (`derive_key_directory`); empty in the tree variants' sets.
    key_dir: ArenaVec<u64>,
}

/// Leaves per key-directory entry: an array variant's set stores the key
/// of every 16th leaf.
pub const KEY_STRIDE: usize = 16;

/// Letters packed into a leaf's key.
const LEAF_KEY_LETTERS: usize = 8;

/// Evaluates `$body` with `$leaves` bound to the [`Leaves`] of a set: its
/// tables at their stored widths, matched once for the whole body.
macro_rules! with_leaves {
    ($set:expr, $leaves:ident => $body:expr) => {{
        let set: &EncodedFactorSet = $set;
        with_entries!(&set.mism_start, starts => match (&set.lens, &set.mism_depths) {
            (NarrowTable::U8(lens), NarrowTable::U8(depths)) => {
                let $leaves = Leaves { set, lens, starts, depths };
                $body
            }
            (NarrowTable::U16(lens), NarrowTable::U16(depths)) => {
                let $leaves = Leaves { set, lens, starts, depths };
                $body
            }
            (NarrowTable::U32(lens), NarrowTable::U32(depths)) => {
                let $leaves = Leaves { set, lens, starts, depths };
                $body
            }
            _ => unreachable!("a set's lengths and mismatch depths share one width"),
        })
    }};
}

impl EncodedFactorSet {
    /// Number of stored factors (leaves).
    #[inline]
    pub fn len(&self) -> usize {
        self.anchor_x.len()
    }

    /// `true` iff the set stores no factor.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.anchor_x.is_empty()
    }

    /// Bytes per stored factor length and per mismatch depth: 1, 2 or 4,
    /// the narrowest width holding the set's longest factor.
    pub fn length_width(&self) -> usize {
        self.lens.width()
    }

    /// Bytes per mismatch offset: 1, 2 or 4, the narrowest width holding
    /// the set's mismatch total.
    pub fn offset_width(&self) -> usize {
        self.mism_start.width()
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
        self.lens.get(leaf) as usize
    }

    /// The range of the `leaf`-th factor's entries in the mismatch pools.
    #[inline]
    fn mism_range(&self, leaf: usize) -> Range<usize> {
        self.mism_start.get(leaf) as usize..self.mism_start.get(leaf + 1) as usize
    }

    /// The depths of the `leaf`-th factor's stored mismatches, in
    /// increasing order.
    pub fn mismatch_depths(&self, leaf: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.mism_depths.iter(self.mism_range(leaf))
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
        self.mism_letters.len()
    }

    /// The letter at `depth` of the `leaf`-th factor, or `None` past its end.
    #[inline]
    pub fn letter_at(&self, leaf: usize, depth: usize) -> Option<u8> {
        with_leaves!(self, leaves => leaves.letter(leaf, depth))
    }

    /// `acc` plus the log-ratio of each stored mismatch of the `leaf`-th
    /// factor whose depth lies in `depths`, added in depth order — the
    /// terms grid verification sums (see
    /// [`EncodedFactorSet::mismatch_log_ratios`] for the panic).
    #[inline]
    pub(crate) fn add_log_ratios(&self, leaf: usize, depths: Range<usize>, acc: f64) -> f64 {
        with_leaves!(self, leaves => leaves.add_log_ratios(leaf, depths, acc))
    }

    /// The LCP of each leaf's factor with the previous leaf's (entry 0 is
    /// 0) — what [`ius_text::trie::CompactedTrie::build`] needs, so only
    /// the tree variants compute it. Neighbours whose packed keys differ
    /// take it from the keys' XOR; the others walk on from depth 8 with
    /// `O(log z)` extensions over the heavy view.
    pub(crate) fn neighbour_lcps(&self) -> Vec<u32> {
        let heavy = HeavyLce::new(&self.heavy_view);
        with_leaves!(self, leaves => {
            let mut prev = 0u64;
            (0..self.len())
                .map(|leaf| {
                    let key = leaves.key(leaf);
                    let prev_key = std::mem::replace(&mut prev, key);
                    if leaf == 0 {
                        0
                    } else if key != prev_key {
                        // Letters pack as rank + 1 and the end as 0, so the
                        // first differing byte is where the factors part.
                        (key ^ prev_key).leading_zeros() / 8
                    } else {
                        // At most the factor length, which fits the u32
                        // anchors.
                        let (a, b) = (leaves.factor(leaf - 1), leaves.factor(leaf));
                        lcp_from(a, b, LEAF_KEY_LETTERS, &heavy) as u32
                    }
                })
                .collect()
        })
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
    /// The pattern's first (up to) 8 letters give a key range: the
    /// pattern's own key for `m ≥ 8`, and `[P·00…, P·FF…]` for a shorter
    /// pattern `P`, which holds exactly the leaves having `P` as a prefix
    /// (letters pack as `rank + 1 ≤ 255`, the end as 0). A `partition_point`
    /// over the key directory finds the bucket of [`KEY_STRIDE`] leaves
    /// holding each end of that range. A pattern of at most 8 letters is
    /// answered by keys alone: a binary search by keys computed from the
    /// leaves of each bucket finds the ends of the run. A longer pattern's
    /// letter comparisons run over the leaves from the first bucket to the
    /// last, each walking the factor's heavy-view stretches *between*
    /// mismatches with slice (memcmp-style) comparisons instead of decoding
    /// one letter at a time — `O(m/word + log z)` per comparison rather
    /// than `O(m · log z)`. Nothing is allocated.
    pub fn equal_range(&self, pattern: &[u8]) -> (usize, usize) {
        with_leaves!(self, leaves => leaves.equal_range(pattern))
    }

    /// The range of leaves below the node of `trie` (built over this set)
    /// that `pattern` leads to, or `None` if it leaves the trie — the
    /// tree-based (MWST) lookup.
    pub(crate) fn descend(&self, trie: &CompactedTrie, pattern: &[u8]) -> Option<Descent> {
        with_leaves!(self, leaves => trie.descend(pattern, &leaves))
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
            + self.key_dir.heap_bytes()
    }

    /// Fills the log-ratio pool, which only grid verification reads, with
    /// `log_ratio(p, letter)` per stored mismatch, `p` its position in `X`
    /// (anchor + depth forward, anchor − depth backward).
    pub(crate) fn derive_log_ratios(&mut self, log_ratio: impl Fn(usize, u8) -> f64) {
        let forward = self.direction == Direction::Forward;
        let mut ratios = Vec::with_capacity(self.total_mismatches());
        for leaf in 0..self.len() {
            let (a, r) = (self.anchor_x(leaf), self.mism_range(leaf));
            for (d, &letter) in self.mism_depths.iter(r.clone()).zip(&self.mism_letters[r]) {
                let d = d as usize;
                let p = if forward { a + d } else { a - d };
                ratios.push(log_ratio(p, letter));
            }
        }
        self.mism_log_ratios = ratios.into();
    }

    /// Fills the key directory, which only the array lookup reads, with the
    /// key of every [`KEY_STRIDE`]-th leaf.
    pub(crate) fn derive_key_directory(&mut self) {
        let keys: Vec<u64> = with_leaves!(self, leaves => {
            (0..self.len())
                .step_by(KEY_STRIDE)
                .map(|leaf| leaves.key(leaf))
                .collect()
        });
        self.key_dir = keys.into();
    }

    // ---- persistence support (see `crate::persist`) --------------------

    /// Anchors in `X` coordinates, per sorted leaf.
    pub(crate) fn anchor_x_raw(&self) -> &[u32] {
        &self.anchor_x
    }

    /// Factor lengths, per sorted leaf.
    pub(crate) fn lens_raw(&self) -> &NarrowTable {
        &self.lens
    }

    /// Mismatch offsets (one per leaf plus the trailing total).
    pub(crate) fn mism_start_raw(&self) -> &NarrowTable {
        &self.mism_start
    }

    /// The concatenated mismatch depths.
    pub(crate) fn mism_depths_raw(&self) -> &NarrowTable {
        &self.mism_depths
    }

    /// The concatenated mismatch letters.
    pub(crate) fn mism_letters_raw(&self) -> &[u8] {
        &self.mism_letters
    }

    /// The concatenated mismatch log-ratios (empty unless derived).
    pub(crate) fn mism_log_ratios_raw(&self) -> &[f64] {
        &self.mism_log_ratios
    }

    /// The key directory (empty in the tree variants' sets).
    pub(crate) fn key_dir_raw(&self) -> &[u64] {
        &self.key_dir
    }

    /// Reassembles a set from its persisted parts. `heavy_view` must be the
    /// heavy string read in the set's direction (the index-wide one for
    /// forward sets, a reversed copy for backward sets); `mism_log_ratios` is
    /// `None` for the variants without a grid, which store no such pool.
    /// `keyed` says whether the set serves the array lookup: its key
    /// directory must then hold `⌈len / KEY_STRIDE⌉` keys, and otherwise
    /// none. Nothing is recomputed or copied: every array is taken as
    /// loaded, at the width it was stored at.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_loaded_parts(
        direction: Direction,
        heavy_view: Arc<Vec<u8>>,
        anchor_x: ArenaVec<u32>,
        lens: NarrowTable,
        mism_start: NarrowTable,
        mism_depths: NarrowTable,
        mism_letters: ArenaVec<u8>,
        mism_log_ratios: Option<ArenaVec<f64>>,
        key_dir: ArenaVec<u64>,
        keyed: bool,
    ) -> Result<EncodedFactorSet, String> {
        let n = heavy_view.len();
        let leaves = anchor_x.len();
        if lens.len() != leaves {
            return Err("factor-set leaf arrays have inconsistent lengths".into());
        }
        if lens.width() != mism_depths.width() {
            return Err(format!(
                "factor lengths are stored {} B wide but mismatch depths {} B wide",
                lens.width(),
                mism_depths.width()
            ));
        }
        if mism_start.len() != leaves + 1 || mism_start.get(0) != 0 {
            return Err("mismatch offset table is malformed".into());
        }
        if mism_depths.len() != mism_letters.len()
            || mism_log_ratios
                .as_ref()
                .is_some_and(|r| r.len() != mism_depths.len())
        {
            return Err("mismatch component pools have inconsistent lengths".into());
        }
        // Every check below is a whole-array fold over each table at its
        // own width (these run over the arrays on every arena open, so they
        // must vectorize rather than exit early).
        let descents = with_entries!(&mism_start, starts => offset_descents(starts));
        if descents != 0 || mism_start.get(leaves) as usize != mism_depths.len() {
            return Err("mismatch offsets do not cover the mismatch storage".into());
        }
        // A forged directory could narrow a lookup to the wrong leaves, so
        // it must hold one key per stride and never decrease.
        let want = if keyed {
            leaves.div_ceil(KEY_STRIDE)
        } else {
            0
        };
        if key_dir.len() != want {
            return Err(format!(
                "key directory holds {} key(s), but {leaves} leaves need {want}",
                key_dir.len()
            ));
        }
        let dir_descents = key_dir
            .windows(2)
            .fold(0usize, |acc, w| acc + usize::from(w[0] > w[1]));
        if dir_descents != 0 {
            return Err(format!("key directory decreases {dir_descents} time(s)"));
        }
        let overruns = with_entries!(&lens, lens => view_overruns(direction, n, &anchor_x, lens));
        if overruns != 0 {
            return Err(format!("{overruns} factor(s) run past the heavy view"));
        }
        let bad_depths = with_entries!(&mism_start, starts => {
            with_entries!(&lens, lens => {
                with_entries!(&mism_depths, depths => depth_faults(starts, lens, depths))
            })
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
            key_dir,
        })
    }
}

/// A set's tables at their stored widths — lengths and depths as `L`,
/// offsets as `S` — which is what the query paths read: [`with_leaves`]
/// matches the widths once per call, not once per entry.
struct Leaves<'a, L, S> {
    set: &'a EncodedFactorSet,
    lens: &'a [L],
    starts: &'a [S],
    depths: &'a [L],
}

impl<'a, L: Entry, S: Entry> Leaves<'a, L, S> {
    /// The range of the `leaf`-th factor's entries in the mismatch pools.
    #[inline]
    fn mism_range(&self, leaf: usize) -> Range<usize> {
        self.starts[leaf].index()..self.starts[leaf + 1].index()
    }

    /// The `leaf`-th factor as the comparators read it.
    #[inline]
    fn factor(&self, leaf: usize) -> FactorRef<'a, L> {
        let r = self.mism_range(leaf);
        FactorRef {
            view: self.set.view_anchor(leaf),
            len: self.lens[leaf].index(),
            depths: &self.depths[r.clone()],
            letters: &self.set.mism_letters[r],
        }
    }

    /// See [`EncodedFactorSet::add_log_ratios`].
    #[inline]
    fn add_log_ratios(&self, leaf: usize, depths: Range<usize>, mut acc: f64) -> f64 {
        let r = self.mism_range(leaf);
        for (&depth, &log_ratio) in self.depths[r.clone()]
            .iter()
            .zip(&self.set.mism_log_ratios[r])
        {
            if depths.contains(&depth.index()) {
                acc += log_ratio;
            }
        }
        acc
    }

    /// The packed key of the `leaf`-th factor's first 8 letters.
    #[inline]
    fn key(&self, leaf: usize) -> u64 {
        let f = self.factor(leaf);
        let view = &self.set.heavy_view;
        let Some(word) = view.get(f.view..f.view + LEAF_KEY_LETTERS) else {
            return u64::from_be_bytes(packed_letters(f, view));
        };
        // Eight heavy letters at once: ranks stay below 255, so adding 1 to
        // every byte carries into none. Then the bytes past a shorter
        // factor's end are cleared and the mismatches below depth 8 set.
        let word = u64::from_be_bytes(word.try_into().expect("eight letters"));
        let mut key = word.wrapping_add(0x0101_0101_0101_0101);
        if f.len < LEAF_KEY_LETTERS {
            key &= !(u64::MAX >> (8 * f.len));
        }
        for (&depth, &c) in f.depths.iter().zip(f.letters) {
            let Some(shift) = 56usize.checked_sub(8 * depth.index()) else {
                break;
            };
            key = key & !(0xFF << shift) | u64::from(c.wrapping_add(1)) << shift;
        }
        key
    }

    /// The range of leaves that can hold the first leaf whose key fails
    /// `below` (monotone: true on a prefix of the key order): the bucket of
    /// [`KEY_STRIDE`] leaves past the last sampled leaf whose key passes, up
    /// to the first whose key fails, found by the directory's
    /// `partition_point`. A set without a directory has one bucket, all its
    /// leaves.
    fn bucket(&self, below: impl Fn(u64) -> bool) -> Range<usize> {
        let dir = &self.set.key_dir;
        if dir.is_empty() {
            return 0..self.lens.len();
        }
        let j = dir.partition_point(|&k| below(k));
        let from = if j == 0 { 0 } else { (j - 1) * KEY_STRIDE + 1 };
        from..(j * KEY_STRIDE).min(self.lens.len())
    }

    /// The first leaf at or after `floor` whose key fails `below`: its
    /// bucket, then a binary search by keys computed from the leaves.
    fn first_key_not(&self, floor: usize, below: impl Fn(u64) -> bool) -> usize {
        let bucket = self.bucket(&below);
        let from = bucket.start.max(floor);
        let to = bucket.end.max(from);
        from + partition_point_in(to - from, |i| below(self.key(from + i)))
    }

    /// See [`EncodedFactorSet::equal_range`].
    fn equal_range(&self, pattern: &[u8]) -> (usize, usize) {
        let Some((lo_key, hi_key)) = pattern_key_range(pattern) else {
            return (0, 0);
        };
        if pattern.len() <= LEAF_KEY_LETTERS {
            let lo = self.first_key_not(0, |k| k < lo_key);
            return (lo, self.first_key_not(lo, |k| k <= hi_key));
        }
        // A longer pattern's key run lies between the buckets holding its
        // ends; the letter comparisons search those leaves directly (on
        // the presets this measured no slower than finding the run by
        // computed keys first).
        let from = self.bucket(|k| k < lo_key).start;
        let to = self.bucket(|k| k <= hi_key).end.max(from);
        let lo = from
            + partition_point_in(to - from, |i| {
                self.cmp_leaf(from + i, pattern, false).is_lt()
            });
        let hi = lo
            + partition_point_in(to - lo, |i| {
                // Leaf's prefix (of pattern length) ≤ pattern?
                self.cmp_leaf(lo + i, pattern, true) != Ordering::Greater
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
        let f = self.factor(leaf);
        let len = f.len;
        let limit = len.min(pattern.len());
        let heavy = &self.set.heavy_view[f.view..f.view + limit];
        let mut d = 0usize;
        for (&depth, &letter) in f.depths.iter().zip(f.letters) {
            let md = depth.index();
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
}

impl<L: Entry, S: Entry> LabelProvider for Leaves<'_, L, S> {
    #[inline]
    fn letter(&self, leaf: usize, depth: usize) -> Option<u8> {
        let f = self.factor(leaf);
        (depth < f.len).then(|| f.letter(&self.set.heavy_view, depth))
    }

    #[inline]
    fn len(&self, leaf: usize) -> usize {
        self.lens[leaf].index()
    }
}

/// The number of mismatch offsets below their predecessor (0 in a valid
/// table).
fn offset_descents<S: Entry>(starts: &[S]) -> usize {
    starts
        .windows(2)
        .fold(0, |acc, w| acc + usize::from(w[0].index() > w[1].index()))
}

/// The number of factors that read past the heavy view of `n` letters from
/// their anchor: a forward one up to `anchor + len`, a backward one down to
/// `anchor + 1 − len`.
fn view_overruns<L: Entry>(direction: Direction, n: usize, anchor_x: &[u32], lens: &[L]) -> usize {
    let n = n as u64;
    anchor_x.iter().zip(lens).fold(0, |acc, (&a, &len)| {
        let (a, len) = (u64::from(a), len.index() as u64);
        let fits = match direction {
            Direction::Forward => a + len <= n,
            Direction::Backward => a < n && len <= a + 1,
        };
        acc + usize::from(!fits)
    })
}

/// The number of mismatch depths that do not strictly increase within
/// their factor, plus the factors whose last depth is not below their
/// length: the slice comparisons of `equal_range` walk the depths in
/// order. `starts` must cover `depths` without descents.
fn depth_faults<S: Entry, L: Entry, D: Entry>(starts: &[S], lens: &[L], depths: &[D]) -> usize {
    starts.windows(2).zip(lens).fold(0, |acc, (w, &len)| {
        let depths = &depths[w[0].index()..w[1].index()];
        let repeats = depths
            .windows(2)
            .fold(0, |a, d| a + usize::from(d[0].index() >= d[1].index()));
        let past_end = depths.last().is_some_and(|&d| d.index() >= len.index());
        acc + repeats + usize::from(past_end)
    })
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
/// sets store anchors as `u32` and lengths and depths at most as wide, and
/// both minimizer builds narrow positions to `u32` only once this check
/// has passed.
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
/// factor: per factor its length and the end of its entries in the
/// mismatch pools (8 B), per mismatch its depth and letter (5 B). A caller
/// that knows how many factors come next reserves the per-factor pools
/// exactly ([`EncodedFactorSetBuilder::reserve_exact`]), so they hold no
/// growth slack when the sort runs beside them.
/// [`EncodedFactorSetBuilder::finish`] sorts one first-two-letter bucket
/// at a time, then permutes each pool into the set and frees it before the
/// next. The caller holds the anchors, in push order,
/// and hands them to `finish`: builders whose `i`-th factors share one
/// anchor (the explicit build's two factors of one occurrence) share one
/// copy.
#[derive(Debug)]
pub struct EncodedFactorSetBuilder {
    direction: Direction,
    /// Heavy string of `X` (always in forward orientation), borrowed from
    /// the index-wide heavy string — the builder never copies it.
    heavy_forward: Arc<Vec<u8>>,
    lens: Vec<u32>,
    /// End of each factor's entries in the mismatch pools; they start at
    /// the previous factor's end.
    mism_end: Vec<u32>,
    mism_depths: Vec<u32>,
    mism_letters: Vec<u8>,
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
            lens: Vec::new(),
            mism_end: Vec::new(),
            mism_depths: Vec::new(),
            mism_letters: Vec::new(),
        }
    }

    /// Adds a factor: its length (letters read from its anchor, which the
    /// caller keeps, in the builder's direction) and its deviations from
    /// the heavy string as `(depth, letter)` in strictly increasing depth
    /// order.
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
        len: u32,
        mismatches: impl IntoIterator<Item = (u32, u8)>,
    ) -> Result<(), Error> {
        if u32::try_from(self.lens.len() + 1).is_err() {
            return Err(Error::InvalidParameters(
                "a factor set holds at most u32::MAX factors".into(),
            ));
        }
        let start = self.mism_depths.len();
        for (depth, letter) in mismatches {
            debug_assert!(depth < len, "mismatch depth beyond factor length");
            debug_assert!(
                self.mism_depths[start..].last().is_none_or(|&d| d < depth),
                "mismatches must be sorted by depth"
            );
            self.mism_depths.push(depth);
            self.mism_letters.push(letter);
        }
        let Ok(end) = u32::try_from(self.mism_depths.len()) else {
            self.mism_depths.truncate(start);
            self.mism_letters.truncate(start);
            return Err(Error::InvalidParameters(
                "a factor set holds at most u32::MAX mismatches".into(),
            ));
        };
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

    /// Reserves room for exactly `additional` more factors in the
    /// per-factor pools (lengths and mismatch ends), so a caller that knows
    /// how many factors it pushes next grows them without slack. The
    /// mismatch pools still grow by doubling.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.lens.reserve_exact(additional);
        self.mism_end.reserve_exact(additional);
    }

    /// Hands back the pools' growth slack. [`EncodedFactorSetBuilder::finish`]
    /// does so first; a build that finishes one builder while another is
    /// still full calls this on the other beforehand, so the slack does not
    /// sit beside the first builder's sort.
    pub fn shrink_to_fit(&mut self) {
        self.lens.shrink_to_fit();
        self.mism_end.shrink_to_fit();
        self.mism_depths.shrink_to_fit();
        self.mism_letters.shrink_to_fit();
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
    /// The sort is the first pass of an MSD radix sort, then a comparison
    /// sort per bucket: the push indices are placed into one `u32`
    /// permutation by their factors' first two letters (a 65,536-entry
    /// count table), and each bucket is sorted on its own. Inside a bucket
    /// the sort compares packed keys of the factors' first 16 letters, with
    /// each factor's anchor and push index held beside them (see
    /// `packed_keys`); the bucket is the keys' top 16 bits, so the order is
    /// that of one sort of all the factors, and only the widest bucket's
    /// 24-byte sort entries are ever held. The `O(log z)` LCE comparator
    /// runs only between factors longer than 16 letters that agree on all
    /// 16; the LCE index over the heavy view is built only if one of its
    /// extensions runs past 32 letters. The prefix test between two factors of one anchor reads
    /// their mismatches alone (their heavy letters coincide). Each pending
    /// pool is then permuted into leaf order, without the dominated
    /// factors, and freed: the lengths and mismatch depths straight into
    /// tables as wide as the longest factor needs, the mismatch offsets into
    /// one as wide as the mismatch total needs. No LCPs are computed: only
    /// the tree variants need them, from `EncodedFactorSet::neighbour_lcps`.
    ///
    /// `anchor_x[i]` is the anchor in `X` of the `i`-th pushed factor.
    ///
    /// # Panics
    ///
    /// If `anchor_x` holds another number of anchors than the builder
    /// factors.
    pub fn finish(mut self, anchor_x: &[u32]) -> (EncodedFactorSet, Vec<u32>) {
        assert_eq!(anchor_x.len(), self.len(), "one anchor per pushed factor");
        // Pools that grew by doubling hold slack; the sort and the
        // permutation below run beside them, so hand it back first.
        self.shrink_to_fit();
        let Self {
            direction,
            heavy_forward,
            lens,
            mism_end,
            mism_depths,
            mism_letters,
        } = self;
        // A dominated factor is no longer than its survivor, so the
        // longest pushed factor survives and sets the width of the lengths
        // and of the depths below them.
        let length_width = width_for(lens.iter().copied().max().unwrap_or(0));
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
        // First pass of an MSD radix sort: the push indices, bucketed by
        // their factors' first two letters — the top 16 bits of the sort
        // key, so the buckets are already in sorted order.
        let bucket =
            |i: usize| usize::from(u16::from_be_bytes(packed_letters(pending(i), &heavy_view)));
        // A bucket's size, then its start, then (once placed) its end.
        let mut bucket_end = vec![0u32; 1 << 16];
        for i in 0..lens.len() {
            bucket_end[bucket(i)] += 1;
        }
        let mut placed = 0;
        for slot in &mut bucket_end {
            placed += *slot;
            *slot = placed - *slot;
        }
        // Push indices stay below u32::MAX (`push` caps the count there).
        let mut order = vec![0u32; lens.len()];
        for i in 0..lens.len() {
            let slot = &mut bucket_end[bucket(i)];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        // Then each bucket is sorted on its own, so only the widest
        // bucket's sort entries are ever held.
        let heavy = HeavyLce::new(&heavy_view);
        let mut entries: Vec<SortEntry> = Vec::new();
        let mut start = 0;
        for end in bucket_end {
            let members = &mut order[start..end as usize];
            start = end as usize;
            if members.len() < 2 {
                continue;
            }
            entries.clear();
            entries.extend(members.iter().map(|&i| {
                let i = i as usize;
                let (key_hi, key_lo) = packed_keys(pending(i), &heavy_view);
                SortEntry {
                    key_hi,
                    key_lo,
                    tie: u64::from(anchor_x[i]) << 32 | i as u64,
                }
            }));
            entries.sort_unstable_by(|a, b| {
                (a.key_hi, a.key_lo)
                    .cmp(&(b.key_hi, b.key_lo))
                    .then_with(|| {
                        // Equal keys ending in a letter: both factors have
                        // at least 16 letters and agree on them; what
                        // follows decides. Equal keys ending in padding are
                        // equal strings.
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
            for (slot, entry) in members.iter_mut().zip(&entries) {
                *slot = entry.push_index() as u32;
            }
        }
        drop(entries);
        let survivors = drop_dominated(&mut order, n, anchor_x, &pending, &heavy);
        drop(heavy);
        // Each kept factor's mismatch count, in leaf order; the total is at
        // most the pools' length, which `push` kept within u32.
        let counts = || {
            order
                .iter()
                .map(|&i| pool_range(&mism_end, i as usize).len() as u32)
        };
        let total: u32 = counts().sum();
        let mism_start = NarrowTable::collect(
            width_for(total),
            order.len() + 1,
            std::iter::once(0).chain(counts().scan(0u32, |end, count| {
                *end += count;
                Some(*end)
            })),
        );
        let depths = NarrowTable::collect(
            length_width,
            total as usize,
            order.iter().flat_map(|&i| {
                mism_depths[pool_range(&mism_end, i as usize)]
                    .iter()
                    .copied()
            }),
        );
        drop(mism_depths);
        let set = EncodedFactorSet {
            direction,
            heavy_view,
            mism_depths: depths,
            mism_letters: permute_pool(mism_letters, &mism_end, &order, total).into(),
            mism_log_ratios: ArenaVec::new(),
            mism_start,
            anchor_x: permute(anchor_x, &order).into(),
            lens: NarrowTable::collect(
                length_width,
                order.len(),
                order.iter().map(|&i| lens[i as usize]),
            ),
            key_dir: ArenaVec::new(),
        };
        (set, survivors)
    }
}

/// Removes the prefix-dominated factors from `order` (the push index at
/// each sorted rank) and returns, per push index, the leaf rank of its
/// survivor among the factors kept; `order` is left holding the survivors
/// in rank order. One pass from the last rank down, with the push index of
/// the next-ranked factor of each anchor in an `n`-entry table. The
/// survivors are compacted to the back of `order` as they are found, never
/// below the entry being read.
fn drop_dominated<'a>(
    order: &mut Vec<u32>,
    n: usize,
    anchor_x: &[u32],
    pending: &impl Fn(usize) -> FactorRef<'a, u32>,
    heavy: &HeavyLce<'_>,
) -> Vec<u32> {
    const NONE: u32 = u32::MAX;
    // Push indices stay below u32::MAX (`push` caps the count there).
    let mut next_of_anchor = vec![NONE; n];
    // Per push index: the survivor's slot in `order`, for now.
    let mut survivor = vec![0u32; order.len()];
    let mut front = order.len();
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
            front -= 1;
            survivor[i] = front as u32;
            order[front] = i as u32;
        }
    }
    order.drain(..front);
    for s in &mut survivor {
        *s -= front as u32;
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
/// factor at each rank).
fn permute<T: Copy>(column: &[T], order: &[u32]) -> Vec<T> {
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

/// The range of leaf keys whose factors can have `pattern` as a prefix:
/// its first eight letters packed as [`packed_letters`] packs a factor's,
/// with every byte past a shorter pattern's end free (`0x00` to `0xFF`).
/// For a pattern of at most eight letters the range holds exactly the
/// factors it prefixes. `None` if one of those letters is 255, which no
/// factor holds (an alphabet has at most 255 letters).
fn pattern_key_range(pattern: &[u8]) -> Option<(u64, u64)> {
    let mut letters = [0u8; LEAF_KEY_LETTERS];
    for (slot, &c) in letters.iter_mut().zip(pattern) {
        *slot = c.checked_add(1)?;
    }
    let key = u64::from_be_bytes(letters);
    let fixed = 8 * pattern.len().min(LEAF_KEY_LETTERS) as u32;
    Some((key, key | u64::MAX.checked_shr(fixed).unwrap_or(0)))
}

/// Packs the first `N` letters of a factor big-endian, each as `rank + 1`
/// and "past the factor's end" as 0, so the byte order is the
/// lexicographic order of those prefixes and a proper prefix sorts first.
/// Eight letters make a leaf's key (as a `u64`), sixteen the construction
/// sort's (as two).
#[inline]
fn packed_letters<const N: usize, D: Entry>(f: FactorRef<'_, D>, view: &[u8]) -> [u8; N] {
    let mut letters = [0u8; N];
    let take = f.len.min(N);
    for (slot, &c) in letters[..take].iter_mut().zip(&view[f.view..f.view + take]) {
        *slot = c.wrapping_add(1);
    }
    for (&depth, &c) in f.depths.iter().zip(f.letters) {
        // Depths increase and stay below the length.
        let Some(slot) = letters.get_mut(depth.index()) else {
            break;
        };
        *slot = c.wrapping_add(1);
    }
    letters
}

/// The first 16 letters of a factor packed by [`packed_letters`] into two
/// `u64`s, letters `0..8` and `8..16`.
fn packed_keys(f: FactorRef<'_, u32>, view: &[u8]) -> (u64, u64) {
    let key = u128::from_be_bytes(packed_letters(f, view));
    ((key >> 64) as u64, key as u64)
}

/// One encoded factor as the comparators read it: its anchor in view
/// coordinates, its length and its stored mismatches (depths strictly
/// increasing, each below the length, stored as `D`).
#[derive(Debug, Clone, Copy)]
struct FactorRef<'a, D> {
    view: usize,
    len: usize,
    depths: &'a [D],
    letters: &'a [u8],
}

impl<D: Entry> FactorRef<'_, D> {
    /// The letter at `depth` (below the length).
    #[inline]
    fn letter(&self, view: &[u8], depth: usize) -> u8 {
        match self.depths.iter().position(|&d| d.index() == depth) {
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
fn lcp_from<D: Entry>(
    a: FactorRef<'_, D>,
    b: FactorRef<'_, D>,
    from: usize,
    heavy: &HeavyLce<'_>,
) -> usize {
    let view = heavy.view;
    let limit = a.len.min(b.len);
    let mut d = from;
    let mut ai = 0usize;
    let mut bi = 0usize;
    while d < limit {
        // Skip mismatches whose depth is behind `d`.
        while ai < a.depths.len() && a.depths[ai].index() < d {
            ai += 1;
        }
        while bi < b.depths.len() && b.depths[bi].index() < d {
            bi += 1;
        }
        let next_a = a.depths.get(ai).map_or(usize::MAX, |&m| m.index());
        let next_b = b.depths.get(bi).map_or(usize::MAX, |&m| m.index());
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
fn compare_from<D: Entry>(
    a: FactorRef<'_, D>,
    b: FactorRef<'_, D>,
    from: usize,
    heavy: &HeavyLce<'_>,
) -> Ordering {
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
    /// `(depth, letter)` mismatches in depth order.
    #[derive(Debug, Clone)]
    struct TestFactor {
        anchor_x: u32,
        len: u32,
        mismatches: Vec<(u32, u8)>,
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
    /// mismatch wherever they leave the heavy view.
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
                .map(|(d, (&c, _))| (d as u32, c))
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
            builder.push(f.len, f.mismatches.iter().copied()).unwrap();
        }
        let anchors: Vec<u32> = factors.iter().map(|f| f.anchor_x).collect();
        builder.finish(&anchors)
    }

    /// Builds `factors` and checks the set against a plain sort of their
    /// materialised strings by (string, anchor, push index) with every
    /// factor dropped whose next factor of the same anchor in that order
    /// has it as a prefix: the kept order, each leaf's letters, anchor and
    /// mismatches, the neighbour LCPs and each pushed factor's survivor. A
    /// leaf's `(depth, letter)` mismatches must be its own factor's, so the
    /// depth and letter pools were permuted together.
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
                for &(depth, letter) in &f.mismatches {
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
            let mismatches: Vec<(u32, u8)> = set
                .mismatch_depths(leaf)
                .map(|d| (d, set.letter_at(leaf, d as usize).unwrap()))
                .collect();
            assert_eq!(mismatches, f.mismatches, "leaf {leaf}");
            let direct = match leaf {
                0 => 0,
                _ => strings[sorted[kept[leaf - 1]]]
                    .iter()
                    .zip(&strings[i])
                    .take_while(|(a, b)| a == b)
                    .count(),
            };
            assert_eq!(
                lcps[leaf] as usize, direct,
                "LCP at leaf {leaf} ({direction:?})"
            );
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
            (1, 2, vec![(1, 3)]),
            (1, 4, vec![]),
        ];
        let mut builder = EncodedFactorSetBuilder::new(Direction::Forward, heavy);
        let mut anchors = Vec::new();
        for (anchor, len, mismatches) in factors {
            builder.push(len, mismatches).unwrap();
            anchors.push(anchor);
        }
        let (set, survivors) = builder.finish(&anchors);
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
        assert_eq!(set.mismatch_depths(4).collect::<Vec<_>>(), [1]);
        assert_eq!(set.total_mismatches(), 1);
        // A finished set carries letters only.
        assert!(set.mism_log_ratios_raw().is_empty());
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

    /// `finish` sorts one first-two-letter bucket at a time; its set and
    /// survivor ranks must be those of one sort of the whole array, which
    /// `assert_sorted_like_materialised` makes of the materialised strings.
    /// The cases are where bucketing could part from it: every factor in
    /// one bucket, factors whose key bytes are padding, one string at many
    /// anchors (the tie decides), and factors past 16 letters that agree
    /// on all 16 (the LCE comparator decides).
    #[test]
    fn bucketed_sort_matches_one_whole_array_sort() {
        let mut rng = StdRng::seed_from_u64(39);
        for direction in [Direction::Forward, Direction::Backward] {
            let check = |view: &[u8], factors: &[TestFactor]| {
                assert_sorted_like_materialised(
                    &Arc::new(oriented(view, direction)),
                    direction,
                    factors,
                );
            };
            // σ = 2 and every factor spelled from "01": one bucket.
            let view: Vec<u8> = (0..100).map(|_| rng.gen_range(0..2)).collect();
            let factors: Vec<TestFactor> = (0..300)
                .map(|_| {
                    let a = rng.gen_range(0..60);
                    let mut letters = view[a..a + rng.gen_range(2..=30usize)].to_vec();
                    letters[..2].copy_from_slice(&[0, 1]);
                    if letters.len() > 2 && rng.gen_bool(0.5) {
                        let d = rng.gen_range(2..letters.len());
                        letters[d] ^= 1;
                    }
                    spelling(&view, direction, a, &letters)
                })
                .collect();
            check(&view, &factors);
            // Factors of 0, 1 and 2 letters, several at each anchor.
            let view: Vec<u8> = (0..40).map(|_| rng.gen_range(0..3)).collect();
            let factors: Vec<TestFactor> = (0..120)
                .map(|_| {
                    let a = rng.gen_range(0..10);
                    let mut letters = view[a..a + rng.gen_range(0..=2usize)].to_vec();
                    if let Some(c) = letters.last_mut().filter(|_| rng.gen_bool(0.3)) {
                        *c = (*c + 1) % 3;
                    }
                    spelling(&view, direction, a, &letters)
                })
                .collect();
            check(&view, &factors);
            // A period-3 view: each string recurs at every third anchor,
            // and is spelled through mismatches at the others.
            let view: Vec<u8> = (0..90).map(|i| (i % 3) as u8).collect();
            let factors: Vec<TestFactor> = (0..200)
                .map(|_| {
                    let (a, phase) = (rng.gen_range(0..60), rng.gen_range(0..3));
                    let letters: Vec<u8> = (0..rng.gen_range(1..=12))
                        .map(|d| ((phase + d) % 3) as u8)
                        .collect();
                    spelling(&view, direction, a, &letters)
                })
                .collect();
            check(&view, &factors);
            // A view of eight copies of one 25-letter stretch: factors at
            // its copies agree on their first 16 letters and on heavy
            // letters far past 32, and part at a mismatch or an end.
            let stretch: Vec<u8> = (0..25).map(|_| rng.gen_range(0..4)).collect();
            let view = stretch.repeat(8);
            let factors: Vec<TestFactor> = (0..150)
                .map(|_| {
                    let a = 25 * rng.gen_range(0..5usize);
                    let mut letters = view[a..a + rng.gen_range(17..=75usize)].to_vec();
                    for _ in 0..rng.gen_range(0..=2) {
                        let d = rng.gen_range(16..letters.len());
                        letters[d] = (letters[d] + 1) % 4;
                    }
                    spelling(&view, direction, a, &letters)
                })
                .collect();
            check(&view, &factors);
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

    /// `letters`' first eight packed as a leaf key, straight from the
    /// letters.
    fn key_of(letters: &[u8]) -> u64 {
        let mut key = [0u8; 8];
        for (slot, &c) in key.iter_mut().zip(letters) {
            *slot = c + 1;
        }
        u64::from_be_bytes(key)
    }

    /// Exactly `leaves` factors over a binary heavy string, each at its own
    /// anchor (so none is dominated), and the string. The view opens with
    /// `zeros` zero letters, and a factor anchored there is longer than 8
    /// letters with no mismatch below depth 8: those all share one key.
    fn keyed_case(
        rng: &mut StdRng,
        direction: Direction,
        leaves: usize,
        zeros: usize,
    ) -> (Arc<Vec<u8>>, Vec<TestFactor>) {
        let n = leaves + 40;
        let view: Vec<u8> = (0..n)
            .map(|i| if i < zeros { 0 } else { rng.gen_range(0..2) })
            .collect();
        let factors = (0..leaves)
            .map(|a| {
                let max = (n - a).min(30);
                let shared = a + 9 <= zeros;
                let len = rng.gen_range(if shared { 9 } else { 1 }..=max);
                let mut letters = view[a..a + len].to_vec();
                for _ in 0..rng.gen_range(0..=3usize) {
                    let d = rng.gen_range(if shared { 8 } else { 0 }..len);
                    letters[d] ^= 1;
                }
                spelling(&view, direction, a, &letters)
            })
            .collect();
        (Arc::new(oriented(&view, direction)), factors)
    }

    /// `equal_range` against a linear scan, with and without the key
    /// directory, for every pattern length from 1 to 20 (below, at and
    /// above the 8 letters of a key), on sets of 16k − 1, 16k and 16k + 1
    /// leaves, on one where more than 4 strides of leaves share one key,
    /// and on a random set with dominated factors dropped. Patterns are
    /// real leaves' prefixes (extended at random past them), random
    /// strings and strings holding letter 255, which no factor holds.
    #[test]
    fn equal_range_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut cases = Vec::new();
        for direction in [Direction::Forward, Direction::Backward] {
            for k in [1usize, 20] {
                for leaves in [KEY_STRIDE * k - 1, KEY_STRIDE * k, KEY_STRIDE * k + 1] {
                    cases.push((direction, keyed_case(&mut rng, direction, leaves, 250)));
                }
            }
            let heavy: Arc<Vec<u8>> = Arc::new((0..50).map(|_| rng.gen_range(0..2)).collect());
            let view = oriented(&heavy, direction);
            let factors = (0..60)
                .map(|_| random_factor(&mut rng, &view, direction, 2))
                .collect();
            cases.push((direction, (heavy, factors)));
        }
        let mut longest_run = 0;
        for (direction, (heavy, factors)) in cases {
            let (bare, _) = build(&heavy, direction, &factors);
            let mut keyed = bare.clone();
            keyed.derive_key_directory();
            let strings: Vec<Vec<u8>> =
                (0..bare.len()).map(|leaf| bare.materialize(leaf)).collect();
            let label = format!("{direction:?}, {} leaves", strings.len());
            let dir: Vec<u64> = strings
                .iter()
                .step_by(KEY_STRIDE)
                .map(|s| key_of(s))
                .collect();
            assert_eq!(keyed.key_dir_raw(), dir, "{label}: directory");
            assert!(bare.key_dir_raw().is_empty());
            let run = strings
                .chunk_by(|a, b| key_of(a) == key_of(b))
                .map(<[_]>::len)
                .max()
                .unwrap_or(0);
            longest_run = longest_run.max(run);
            for m in 1..=20usize {
                for trial in 0..40 {
                    let pattern: Vec<u8> = match trial % 4 {
                        0 | 1 => {
                            let mut p = strings[rng.gen_range(0..strings.len())].clone();
                            p.truncate(m);
                            while p.len() < m {
                                p.push(rng.gen_range(0..2));
                            }
                            p
                        }
                        2 => (0..m).map(|_| rng.gen_range(0..2)).collect(),
                        _ => {
                            let mut p: Vec<u8> = (0..m).map(|_| rng.gen_range(0..2)).collect();
                            p[rng.gen_range(0..m)] = u8::MAX;
                            p
                        }
                    };
                    let expected = strings.iter().filter(|s| s.starts_with(&pattern)).count();
                    for (with, set) in [("directory", &keyed), ("no directory", &bare)] {
                        let (lo, hi) = set.equal_range(&pattern);
                        assert_eq!(hi - lo, expected, "{label}, {with}: {pattern:?}");
                        for s in &strings[lo..hi] {
                            assert!(s.starts_with(&pattern), "{label}, {with}: {pattern:?}");
                        }
                    }
                }
            }
        }
        assert!(
            longest_run > 4 * KEY_STRIDE,
            "no set has more than 4 strides of leaves sharing one key ({longest_run})"
        );
    }

    #[test]
    fn letter_at_and_label_provider_agree() {
        let heavy = Arc::new(vec![0u8, 1, 2, 3, 0, 1, 2, 3]);
        let mut builder = EncodedFactorSetBuilder::new(Direction::Forward, heavy);
        builder.push(5, [(1, 0)]).unwrap();
        let (set, survivors) = builder.finish(&[2]);
        assert_eq!(survivors, vec![0]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.materialize(0), vec![2, 0, 0, 1, 2]);
        assert_eq!(set.letter_at(0, 1), Some(0));
        assert_eq!(set.letter_at(0, 5), None);
        assert_eq!(LabelProvider::letter(&set, 0, 4), Some(2));
        assert_eq!(LabelProvider::len(&set, 0), 5);
        assert_eq!(set.anchor_x(0), 2);
        assert_eq!(set.mismatch_depths(0).collect::<Vec<_>>(), [1]);
        assert_eq!(set.total_mismatches(), 1);
    }

    /// One forward leaf of length `len` anchored at 0 of a 5-letter heavy
    /// view, with the given mismatch depths and log-ratios.
    fn one_leaf(len: u32, depths: &[u32], log_ratios: &[f64]) -> Result<EncodedFactorSet, String> {
        EncodedFactorSet::from_loaded_parts(
            Direction::Forward,
            Arc::new(vec![0, 1, 0, 1, 0]),
            vec![0].into(),
            NarrowTable::U32(vec![len].into()),
            NarrowTable::U32(vec![0, depths.len() as u32].into()),
            NarrowTable::U32(depths.to_vec().into()),
            vec![1u8; depths.len()].into(),
            Some(log_ratios.to_vec().into()),
            ArenaVec::new(),
            false,
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
            let err = EncodedFactorSet::from_loaded_parts(
                direction,
                Arc::clone(&heavy),
                vec![anchor].into(),
                NarrowTable::U32(vec![len].into()),
                NarrowTable::U32(vec![0, 0].into()),
                NarrowTable::U32(ArenaVec::new()),
                ArenaVec::new(),
                None,
                ArenaVec::new(),
                false,
            )
            .expect_err("a factor past the heavy view opened");
            assert!(err.contains("run past the heavy view"), "{err}");
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
        let (set, survivors) = builder.finish(&[]);
        assert!(set.is_empty());
        assert!(set.neighbour_lcps().is_empty());
        assert!(survivors.is_empty());
        assert_eq!(set.equal_range(&[0]), (0, 0));
    }
}
