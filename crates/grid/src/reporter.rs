//! Wavelet-matrix 2D range reporting with narrow-side scans.

use crate::{GridPoint, Rect};
use ius_arena::ArenaVec;

/// Scan without counting first when the narrower side of the rectangle
/// holds at most `BLIND_SCAN_PER_LEVEL · L` entries. A count costs two
/// root-to-leaf paths of rank pairs (two random reads each per level), while
/// a scan step is one sequential `u32` read and a compare; sixteen scan
/// steps per level is about what counting alone would cost, so a rectangle
/// this narrow is cheapest to scan outright.
const BLIND_SCAN_PER_LEVEL: usize = 16;

/// After counting `k` points, scan the narrower side when it holds at most
/// `SCAN_PER_WALK_LEVEL · (k + 1) · L` entries. The walk pays one rank pair
/// per visited node and visits `O((1 + k) · L)` nodes; a scan step is no
/// dearer than one of those rank pairs, so the scan wins up to that width.
/// Either branch stays within the `O((1 + k) log N)` query bound.
const SCAN_PER_WALK_LEVEL: usize = 1;

/// The flat representation of a [`RangeReporter`], used by the persistence
/// layer to save the structure without re-running the construction on load.
/// Each array is an [`ArenaVec`], so the parts can either own their storage
/// (a fresh build) or borrow it zero-copy from a persisted arena;
/// [`RangeReporter::parts`] lends them as slices (`U64 = &[u64]`,
/// `U32 = &[u32]`), for writing the structure out without a copy.
///
/// The points are the pairs `(x, π(x))` of a permutation `π` of `0..N` —
/// in the index, the x and y ranks of a [`crate::RankSpaceGrid`]'s points,
/// not leaves; a point's *id* is its y. With `L = ⌈log₂ N⌉` and `W = ⌊N / 64⌋ + 1` words
/// per level:
#[derive(Debug, Clone, PartialEq)]
pub struct ReporterParts<U64 = ArenaVec<u64>, U32 = ArenaVec<u32>> {
    /// Number of stored points `N`.
    pub len: u64,
    /// The wavelet matrix over `π`: `L` levels of `W` words, level-major,
    /// bit `i` of a level at bit `i % 64` of word `i / 64`.
    pub bits: U64,
    /// Per word of `bits`: the one-bits of its level before that word.
    pub ranks: U32,
    /// `π`: the id (y) paired with each x (`N` entries).
    pub ids_by_x: U32,
    /// `π⁻¹`: the x paired with each id (`N` entries).
    pub xs_by_id: U32,
}

/// A static 2D range reporter: a wavelet matrix (Claude, Navarro and
/// Ordóñez) over `π`, beside `π` itself and `π⁻¹`, for the permutation
/// grid of the points `(x, π(x))`, `π` a permutation of `0..N`.
///
/// A rectangle's x range is an x-rank range of width `w_x` and its y range
/// an id range of width `w_y`, with no search: coordinates are ranks. With
/// `w = min(w_x, w_y)` a query scans the narrower side when `w` is small,
/// otherwise counts the `k` points in `O(log N)` and either scans (when `w`
/// is within a constant of `(k + 1) log N`) or walks the wavelet matrix
/// down to the ids inside, `O((1 + k) log N)` in all cases.
///
/// Space: `8 N` bytes for `π` and `π⁻¹`, plus `1.5 · L` bits per point for
/// the matrix levels and their rank counts. Every part is a flat array, so
/// a persisted reporter reopens as zero-copy views into an
/// [`ius_arena::Arena`].
#[derive(Debug, Clone)]
pub struct RangeReporter {
    /// Number of points `N`.
    len: usize,
    /// Number of wavelet-matrix levels `L`.
    levels: usize,
    /// Words per level, `⌊N / 64⌋ + 1`.
    words: usize,
    /// Zero bits per level (derived: a permutation of `0..N` fixes them).
    zeros: [u32; 32],
    bits: ArenaVec<u64>,
    ranks: ArenaVec<u32>,
    ids_by_x: ArenaVec<u32>,
    xs_by_id: ArenaVec<u32>,
}

/// `⌈log₂ n⌉`, the number of bits a value in `0..n` needs (0 for `n ≤ 1`).
fn levels_for(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// How many values in `0..n` have bit `bit` set.
fn ones_below(n: usize, bit: usize) -> usize {
    let period = 1usize << (bit + 1);
    let half = 1usize << bit;
    (n / period) * half + (n % period).saturating_sub(half)
}

/// Zero bits per level of a wavelet matrix over a permutation of `0..n`.
fn level_zeros(n: usize, levels: usize) -> [u32; 32] {
    let mut zeros = [0u32; 32];
    for (level, z) in zeros.iter_mut().enumerate().take(levels) {
        *z = (n - ones_below(n, levels - 1 - level)) as u32;
    }
    zeros
}

impl RangeReporter {
    /// Builds the grid of the points `(x, pairing[x])` in `O(N log N)` time
    /// and `O(N)` words of transient memory.
    ///
    /// # Panics
    ///
    /// If `pairing` is not a permutation of `0..N`, or `N` exceeds
    /// `u32::MAX`.
    pub fn new(pairing: Vec<u32>) -> Self {
        let len = pairing.len();
        assert!(u32::try_from(len).is_ok(), "grid exceeds u32 point ids");
        let mut xs_by_id = vec![u32::MAX; len];
        for (x, &id) in pairing.iter().enumerate() {
            assert!(
                xs_by_id.get(id as usize) == Some(&u32::MAX),
                "grid pairing is not a permutation of 0..{len}"
            );
            xs_by_id[id as usize] = x as u32;
        }

        let levels = levels_for(len);
        let words = len / 64 + 1;
        let zeros = level_zeros(len, levels);
        let mut bits = vec![0u64; levels * words];
        let mut ranks = vec![0u32; levels * words];
        // Level `l` holds bit `L − 1 − l` of the sequence `cur`; the next
        // level's sequence is `cur` stably partitioned, zeros first.
        let mut cur = pairing.clone();
        let mut next = vec![0u32; len];
        for level in 0..levels {
            let shift = levels - 1 - level;
            let level_bits = &mut bits[level * words..(level + 1) * words];
            let (mut z, mut o) = (0usize, zeros[level] as usize);
            for (i, &id) in cur.iter().enumerate() {
                let bit = (id >> shift) & 1;
                level_bits[i / 64] |= u64::from(bit) << (i % 64);
                if bit == 0 {
                    next[z] = id;
                    z += 1;
                } else {
                    next[o] = id;
                    o += 1;
                }
            }
            let mut ones = 0u32;
            for (rank, &word) in ranks[level * words..(level + 1) * words]
                .iter_mut()
                .zip(level_bits.iter())
            {
                *rank = ones;
                ones += word.count_ones();
            }
            std::mem::swap(&mut cur, &mut next);
        }
        Self {
            len,
            levels,
            words,
            zeros,
            bits: ArenaVec::from(bits),
            ranks: ArenaVec::from(ranks),
            ids_by_x: ArenaVec::from(pairing),
            xs_by_id: ArenaVec::from(xs_by_id),
        }
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-bits of level `level` before position `i` (`i ≤ N`).
    #[inline]
    fn rank1(&self, level: usize, i: usize) -> usize {
        let w = level * self.words + i / 64;
        let below = self.bits[w] & ((1u64 << (i % 64)) - 1);
        self.ranks[w] as usize + below.count_ones() as usize
    }

    /// The x range and the id range of `rect` (each half-open), clamped to
    /// `0..N`: both coordinates are ranks, so no search is needed.
    #[inline]
    fn ranges(&self, rect: &Rect) -> ((usize, usize), (usize, usize)) {
        let clamp = |v: u32| (v as usize).min(self.len);
        (
            (clamp(rect.x_lo), clamp(rect.x_hi)),
            (clamp(rect.y_lo), clamp(rect.y_hi)),
        )
    }

    /// Points inside `rect`.
    pub fn report(&self, rect: &Rect) -> Vec<GridPoint> {
        let mut out = Vec::new();
        self.report_into(rect, &mut out);
        out
    }

    /// Like [`RangeReporter::report`] but appending into a reused output
    /// buffer. Returns the grid work done: wavelet-matrix nodes visited plus
    /// entries scanned, for query instrumentation.
    pub fn report_into(&self, rect: &Rect, out: &mut Vec<GridPoint>) -> usize {
        self.report_with(rect, |p| out.push(p))
    }

    /// Callback form of [`RangeReporter::report`]: invokes `emit` once per
    /// point inside `rect`, allocating nothing. Returns the grid work done
    /// (see [`RangeReporter::report_into`]).
    pub fn report_with(&self, rect: &Rect, mut emit: impl FnMut(GridPoint)) -> usize {
        let ((lo, hi), (a, b)) = self.ranges(rect);
        if lo >= hi || a >= b {
            return 0;
        }
        let w = (hi - lo).min(b - a);
        let levels = self.levels.max(1);
        if w <= BLIND_SCAN_PER_LEVEL * levels {
            return self.scan((lo, hi), (a, b), &mut emit);
        }
        let mut work = 0usize;
        let k = self.count_ranges((lo, hi), (a, b), &mut work);
        if k == 0 {
            return work;
        }
        if w <= SCAN_PER_WALK_LEVEL * (k + 1) * levels {
            return work + self.scan((lo, hi), (a, b), &mut emit);
        }
        self.walk(0, lo, hi, 0, (a, b), &mut emit, &mut work);
        work
    }

    /// Number of points inside `rect`.
    pub fn count(&self, rect: &Rect) -> usize {
        let ((lo, hi), (a, b)) = self.ranges(rect);
        if lo >= hi || a >= b {
            return 0;
        }
        self.count_ranges((lo, hi), (a, b), &mut 0)
    }

    /// Scans the narrower side of the rectangle: the ids at x ranks
    /// `lo..hi` filtered by id, or the xs of ids `a..b` filtered by x.
    /// Returns the entries scanned.
    fn scan(
        &self,
        (lo, hi): (usize, usize),
        (a, b): (usize, usize),
        emit: &mut impl FnMut(GridPoint),
    ) -> usize {
        if hi - lo <= b - a {
            for (x, &id) in (lo..hi).zip(&self.ids_by_x[lo..hi]) {
                if (id as usize).wrapping_sub(a) < b - a {
                    emit(GridPoint::new(x as u32, id));
                }
            }
            hi - lo
        } else {
            for (id, &x) in (a..b).zip(&self.xs_by_id[a..b]) {
                if (x as usize).wrapping_sub(lo) < hi - lo {
                    emit(GridPoint::new(x, id as u32));
                }
            }
            b - a
        }
    }

    /// Number of ids in `a..b` at x ranks `lo..hi`, in `O(L)`; adds the
    /// nodes visited to `work`.
    fn count_ranges(
        &self,
        (lo, hi): (usize, usize),
        (a, b): (usize, usize),
        work: &mut usize,
    ) -> usize {
        self.count_below(lo, hi, b, work) - self.count_below(lo, hi, a, work)
    }

    /// Number of ids `< bound` at x ranks `lo..hi`: one root-to-leaf path.
    fn count_below(&self, mut lo: usize, mut hi: usize, bound: usize, work: &mut usize) -> usize {
        if bound >= 1usize << self.levels {
            return hi - lo;
        }
        let mut below = 0usize;
        for level in 0..self.levels {
            *work += 1;
            let (ones_lo, ones_hi) = (self.rank1(level, lo), self.rank1(level, hi));
            if (bound >> (self.levels - 1 - level)) & 1 == 1 {
                below += (hi - lo) - (ones_hi - ones_lo);
                let z = self.zeros[level] as usize;
                (lo, hi) = (z + ones_lo, z + ones_hi);
            } else {
                (lo, hi) = (lo - ones_lo, hi - ones_hi);
            }
            if lo == hi {
                break;
            }
        }
        below
    }

    /// Reports the ids in `a..b` below the node at `level` whose values
    /// start at `base` and whose positions are `lo..hi` (non-empty); adds
    /// the nodes visited to `work`.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        level: usize,
        lo: usize,
        hi: usize,
        base: usize,
        (a, b): (usize, usize),
        emit: &mut impl FnMut(GridPoint),
        work: &mut usize,
    ) {
        *work += 1;
        if level == self.levels {
            // A leaf is one id: ids are distinct.
            emit(GridPoint::new(self.xs_by_id[base], base as u32));
            return;
        }
        let mid = base + (1usize << (self.levels - 1 - level));
        let (ones_lo, ones_hi) = (self.rank1(level, lo), self.rank1(level, hi));
        if a < mid && lo - ones_lo < hi - ones_hi {
            self.walk(
                level + 1,
                lo - ones_lo,
                hi - ones_hi,
                base,
                (a, b),
                emit,
                work,
            );
        }
        if mid < b && ones_lo < ones_hi {
            let z = self.zeros[level] as usize;
            self.walk(level + 1, z + ones_lo, z + ones_hi, mid, (a, b), emit, work);
        }
    }

    /// Approximate heap usage in bytes. Arena-backed arrays count as zero
    /// owned bytes here; the arena itself is counted once by whoever retains
    /// its handle.
    pub fn memory_bytes(&self) -> usize {
        self.bits.heap_bytes()
            + self.ranks.heap_bytes()
            + self.ids_by_x.heap_bytes()
            + self.xs_by_id.heap_bytes()
    }

    /// Exports the structure as its flat representation (see
    /// [`ReporterParts`]).
    pub fn to_parts(&self) -> ReporterParts {
        ReporterParts {
            len: self.len as u64,
            bits: self.bits.clone(),
            ranks: self.ranks.clone(),
            ids_by_x: self.ids_by_x.clone(),
            xs_by_id: self.xs_by_id.clone(),
        }
    }

    /// The flat representation, borrowed: what a writer reads, no copy.
    pub fn parts(&self) -> ReporterParts<&[u64], &[u32]> {
        ReporterParts {
            len: self.len as u64,
            bits: &self.bits,
            ranks: &self.ranks,
            ids_by_x: &self.ids_by_x,
            xs_by_id: &self.xs_by_id,
        }
    }

    /// Reassembles the structure from its flat representation — the inverse
    /// of [`RangeReporter::to_parts`], in linear time (the wavelet matrix is
    /// *not* rebuilt). The arrays are moved in as-is, so views stay views.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency.
    pub fn from_parts(parts: ReporterParts) -> Result<Self, String> {
        let Ok(len) = u32::try_from(parts.len) else {
            return Err(format!("{} points exceed u32 point ids", parts.len));
        };
        let len = len as usize;
        let levels = levels_for(len);
        let words = len / 64 + 1;
        for (name, found, expected) in [
            ("bits", parts.bits.len(), levels * words),
            ("ranks", parts.ranks.len(), levels * words),
            ("ids_by_x", parts.ids_by_x.len(), len),
            ("xs_by_id", parts.xs_by_id.len(), len),
        ] {
            if found != expected {
                return Err(format!(
                    "{name} has {found} entries, expected {expected} for {len} points"
                ));
            }
        }
        // Every check below is a whole-array fold (these run over the
        // arrays on every arena open, so they must vectorize rather than
        // exit early).
        //
        // `ids_by_x` and `xs_by_id` are inverse permutations of 0..N: every
        // id is in range and maps back to its x. That makes `ids_by_x`
        // injective, hence a permutation, and `xs_by_id` its inverse.
        let worst = parts.ids_by_x.iter().fold(0u32, |m, &id| m.max(id));
        if len > 0 && worst as usize >= len {
            return Err(format!("id {worst} out of range for {len} points"));
        }
        let strays = parts
            .ids_by_x
            .iter()
            .enumerate()
            .fold(0usize, |acc, (x, &id)| {
                acc + usize::from(parts.xs_by_id[id as usize] as usize != x)
            });
        if strays != 0 {
            return Err("ids_by_x and xs_by_id are not inverse permutations".into());
        }
        // The wavelet matrix: prefix popcounts, nothing past N, the level
        // one-counts of a permutation, and level 0 = top bit of ids_by_x.
        let zeros = level_zeros(len, levels);
        let per_level = parts
            .bits
            .chunks_exact(words)
            .zip(parts.ranks.chunks_exact(words))
            .zip(zeros);
        for (level, ((level_bits, level_ranks), zero_count)) in per_level.enumerate() {
            let (mismatched, ones) = level_ranks.iter().zip(level_bits).fold(
                (0usize, 0u64),
                |(bad, ones), (&rank, &word)| {
                    (
                        bad + usize::from(u64::from(rank) != ones),
                        ones + u64::from(word.count_ones()),
                    )
                },
            );
            if mismatched != 0 {
                return Err(format!(
                    "wavelet level {level} rank counts are not its prefix popcounts"
                ));
            }
            if level_bits[words - 1] >> (len % 64) != 0 {
                return Err(format!("wavelet level {level} has bits set past N"));
            }
            let expected = len - zero_count as usize;
            if ones != expected as u64 {
                return Err(format!(
                    "wavelet level {level} has {ones} one-bits, expected {expected}"
                ));
            }
        }
        if levels > 0 {
            let shift = levels - 1;
            let level0 = &parts.bits[..words];
            let differing = parts
                .ids_by_x
                .iter()
                .enumerate()
                .fold(0usize, |acc, (i, &id)| {
                    let bit = (level0[i / 64] >> (i % 64)) & 1;
                    acc + usize::from(bit != u64::from(id >> shift))
                });
            if differing != 0 {
                return Err("wavelet level 0 is not the top bit of ids_by_x".into());
            }
        }
        Ok(Self {
            len,
            levels,
            words,
            zeros,
            bits: parts.bits,
            ranks: parts.ranks,
            ids_by_x: parts.ids_by_x,
            xs_by_id: parts.xs_by_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveGrid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random permutation pairing, as produced by the index.
    fn random_pairing(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ys: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            ys.swap(i, j);
        }
        ys
    }

    fn naive_of(pairing: &[u32]) -> NaiveGrid {
        NaiveGrid::new(
            (0..pairing.len() as u32)
                .zip(pairing)
                .map(|(x, &y)| GridPoint::new(x, y))
                .collect(),
        )
    }

    fn sorted(mut points: Vec<GridPoint>) -> Vec<GridPoint> {
        points.sort_unstable();
        points
    }

    /// Copies an arena vector out, applies `f`, and wraps it back up — the
    /// corruption tests' stand-in for direct mutation.
    fn tweak<T: ius_arena::Pod>(v: &ArenaVec<T>, f: impl FnOnce(&mut Vec<T>)) -> ArenaVec<T> {
        let mut owned = v.to_vec();
        f(&mut owned);
        ArenaVec::from(owned)
    }

    #[test]
    fn matches_naive_on_permutation_points() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 2, 7, 64, 200] {
            let pairing = random_pairing(n, n as u64);
            let naive = naive_of(&pairing);
            let fast = RangeReporter::new(pairing);
            assert_eq!(fast.len(), n);
            for _ in 0..200 {
                let x1 = rng.gen_range(0..=(n as u32 + 2));
                let x2 = rng.gen_range(0..=(n as u32 + 2));
                let y1 = rng.gen_range(0..=(n as u32 + 2));
                let y2 = rng.gen_range(0..=(n as u32 + 2));
                let rect = Rect::new((x1.min(x2), x1.max(x2)), (y1.min(y2), y1.max(y2)));
                assert_eq!(
                    sorted(naive.report(&rect)),
                    sorted(fast.report(&rect)),
                    "n={n} rect={rect:?}"
                );
                assert_eq!(naive.count(&rect), fast.count(&rect));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn new_refuses_a_pairing_that_is_not_a_permutation() {
        RangeReporter::new(vec![0, 2, 2]);
    }

    #[test]
    fn report_forms_agree_and_count_grid_work() {
        let fast = RangeReporter::new(random_pairing(2000, 3));
        let mut rng = StdRng::seed_from_u64(11);
        let mut reused = Vec::new();
        for _ in 0..300 {
            let x1 = rng.gen_range(0..=2002u32);
            let x2 = rng.gen_range(0..=2002u32);
            let y1 = rng.gen_range(0..=2002u32);
            let y2 = rng.gen_range(0..=2002u32);
            let rect = Rect::new((x1.min(x2), x1.max(x2)), (y1.min(y2), y1.max(y2)));
            let direct = fast.report(&rect);
            reused.clear();
            let work_into = fast.report_into(&rect, &mut reused);
            let mut via_callback = Vec::new();
            let work_with = fast.report_with(&rect, |p| via_callback.push(p));
            assert_eq!(direct, reused);
            assert_eq!(direct, via_callback);
            assert_eq!(work_into, work_with);
            // Work is bounded by O((1 + k) log N): a scan stays within
            // 16·L·(k + 1) entries, a count and a walk within (2 + 2k)·L
            // nodes plus the count's two paths.
            let levels = 11;
            assert!(
                work_into <= (direct.len() + 1) * levels * 20,
                "work {work_into}"
            );
            if !direct.is_empty() {
                assert!(work_into > 0);
            }
        }
    }

    #[test]
    fn parts_round_trip_preserves_reports() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [0usize, 1, 5, 100] {
            let original = RangeReporter::new(random_pairing(n, n as u64 + 7));
            let rebuilt = RangeReporter::from_parts(original.to_parts()).unwrap();
            assert_eq!(rebuilt.len(), original.len());
            for _ in 0..50 {
                let x1 = rng.gen_range(0..=(n as u32 + 2));
                let x2 = rng.gen_range(0..=(n as u32 + 2));
                let y1 = rng.gen_range(0..=(n as u32 + 2));
                let y2 = rng.gen_range(0..=(n as u32 + 2));
                let rect = Rect::new((x1.min(x2), x1.max(x2)), (y1.min(y2), y1.max(y2)));
                assert_eq!(rebuilt.report(&rect), original.report(&rect));
            }
            assert_eq!(rebuilt.to_parts(), original.to_parts());
        }
    }

    #[test]
    fn from_parts_rejects_corrupted_input() {
        let original = RangeReporter::new(random_pairing(100, 1));
        let good = original.to_parts();
        assert!(RangeReporter::from_parts(good.clone()).is_ok());
        let corruptions: Vec<(&str, &str, ReporterParts)> = vec![
            ("short xs_by_id", "xs_by_id has", {
                let mut bad = good.clone();
                bad.xs_by_id = tweak(&bad.xs_by_id, |v| {
                    v.pop();
                });
                bad
            }),
            ("long ids_by_x", "ids_by_x has", {
                let mut bad = good.clone();
                bad.ids_by_x = tweak(&bad.ids_by_x, |v| v.push(0));
                bad
            }),
            ("wrong length", "expected", {
                let mut bad = good.clone();
                bad.len = 99;
                bad
            }),
            ("short bits", "bits has", {
                let mut bad = good.clone();
                bad.bits = tweak(&bad.bits, |v| {
                    v.pop();
                });
                bad
            }),
            ("not the inverse", "not inverse permutations", {
                let mut bad = good.clone();
                bad.xs_by_id = tweak(&bad.xs_by_id, |v| v.swap(0, 1));
                bad
            }),
            ("repeated id", "not inverse permutations", {
                let mut bad = good.clone();
                bad.ids_by_x = tweak(&bad.ids_by_x, |v| v[1] = v[0]);
                bad
            }),
            ("id out of range", "out of range", {
                let mut bad = good.clone();
                bad.ids_by_x = tweak(&bad.ids_by_x, |v| v[0] = 100);
                bad
            }),
            ("rank count", "prefix popcounts", {
                let mut bad = good.clone();
                bad.ranks = tweak(&bad.ranks, |v| v[1] += 1);
                bad
            }),
            ("bit past N", "past N", {
                let mut bad = good.clone();
                bad.bits = tweak(&bad.bits, |v| v[1] |= 1 << 63);
                bad
            }),
            ("level one-count", "one-bits, expected", {
                // Clear a one-bit of the last level and recompute that
                // level's rank counts, so only the one-count is wrong.
                let mut bad = good.clone();
                let words = 100 / 64 + 1;
                let last = bad.bits.len() - words;
                let mut bits = bad.bits.to_vec();
                let word = (last..bits.len()).find(|&w| bits[w] != 0).unwrap();
                bits[word] &= bits[word] - 1;
                let mut ranks = bad.ranks.to_vec();
                let mut ones = 0;
                for w in last..bits.len() {
                    ranks[w] = ones;
                    ones += bits[w].count_ones();
                }
                bad.bits = ArenaVec::from(bits);
                bad.ranks = ArenaVec::from(ranks);
                bad
            }),
            ("level 0", "level 0 is not the top bit", {
                let mut bad = good.clone();
                // Flip bit 0 and the lowest bit unlike it: the level keeps
                // its popcounts but no longer matches ids_by_x.
                bad.bits = tweak(&bad.bits, |v| {
                    let unlike = if v[0] & 1 == 1 { !v[0] } else { v[0] };
                    v[0] ^= 1 | (1 << unlike.trailing_zeros());
                });
                bad
            }),
        ];
        for (what, expected, bad) in corruptions {
            let err = RangeReporter::from_parts(bad).expect_err(what);
            assert!(err.contains(expected), "{what}: {err}");
        }
    }

    #[test]
    fn full_rectangle_reports_everything() {
        let fast = RangeReporter::new(random_pairing(100, 9));
        let rect = Rect::new((0, 100), (0, 100));
        assert_eq!(fast.report(&rect).len(), 100);
        assert_eq!(fast.count(&rect), 100);
    }

    #[test]
    fn memory_is_eight_bytes_plus_one_and_a_half_level_bits_per_point() {
        for n in [0usize, 1, 64, 1000, 1 << 12, 50_000] {
            let bytes = RangeReporter::new(random_pairing(n, 1)).memory_bytes();
            let levels = levels_for(n);
            let bound = 8 * n + (3 * levels * n) / 16 + 64 * levels + 64;
            assert!(bytes <= bound, "n={n}: {bytes} B > {bound} B");
        }
    }
}
