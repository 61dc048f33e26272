//! Merge-sort-tree 2D range reporting.

use crate::{GridPoint, Rect};
use ius_arena::ArenaVec;

/// The flat representation of a [`RangeReporter`], used by the persistence
/// layer to save the structure without re-running the `O(N log N)` merge on
/// load. `node_lens[i]` is the number of `(y, payload)` entries of segment
/// tree node `i`; the entries themselves are concatenated in node order in
/// `ys`/`payloads`. Each array is an [`ArenaVec`], so the parts can either
/// own their storage (a fresh build, a bit-packed section) or borrow it
/// zero-copy from a persisted arena.
#[derive(Debug, Clone, PartialEq)]
pub struct ReporterParts {
    /// Number of stored points.
    pub len: u64,
    /// x-coordinate of each point in x-sorted order.
    pub xs: ArenaVec<u32>,
    /// Entry count per segment-tree node (always `2 · size` nodes).
    pub node_lens: ArenaVec<u32>,
    /// Concatenated y-values of all nodes' entries.
    pub ys: ArenaVec<u32>,
    /// Concatenated payloads of all nodes' entries.
    pub payloads: ArenaVec<u32>,
}

/// A static merge-sort tree over a point set.
///
/// Points are sorted by `x`; a perfect binary segment tree is laid over that
/// order, and every tree node stores the y-values (with payloads) of its
/// segment, sorted by `y`. A rectangle query decomposes the x-range into
/// `O(log N)` canonical nodes and binary-searches the y-range in each:
/// `O(log² N + k)` time, `O(N log N)` space.
///
/// The per-node entry lists are stored concatenated in two flat pools
/// (`ys`/`payloads`) with a derived offset table, so a persisted reporter can
/// be reopened as zero-copy views into an [`ius_arena::Arena`].
#[derive(Debug, Clone)]
pub struct RangeReporter {
    /// Number of leaves (points), rounded up to a power of two for the tree.
    size: usize,
    /// Number of actual points.
    len: usize,
    /// x-coordinate of each point in x-sorted order (for locating ranges).
    xs: ArenaVec<u32>,
    /// Start of node `i`'s entries in `ys`/`payloads`; `2 · size + 1`
    /// entries (prefix sums of the node lengths, `u32` like the pool
    /// indices they point into — half the memory and half the open-time
    /// traffic of machine words). Derived at build/load.
    node_starts: Vec<u32>,
    /// Concatenated y-values of all nodes' entries, each node y-sorted.
    ys: ArenaVec<u32>,
    /// Payloads parallel to `ys`.
    payloads: ArenaVec<u32>,
}

impl RangeReporter {
    /// Builds the structure. `O(N log N)` time and space.
    pub fn new(mut points: Vec<GridPoint>) -> Self {
        points.sort_unstable_by_key(|p| (p.x, p.y));
        let len = points.len();
        let size = len.next_power_of_two().max(1);
        let mut node_points: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 2 * size];
        let xs: Vec<u32> = points.iter().map(|p| p.x).collect();
        // Fill leaves.
        for (i, p) in points.iter().enumerate() {
            node_points[size + i].push((p.y, p.payload));
        }
        // Merge upwards.
        for node in (1..size).rev() {
            let (left, right) = (2 * node, 2 * node + 1);
            let mut merged = Vec::with_capacity(node_points[left].len() + node_points[right].len());
            let (a, b) = (&node_points[left], &node_points[right]);
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                if a[i] <= b[j] {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(b[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            node_points[node] = merged;
        }
        // Flatten the per-node lists into the two entry pools.
        let total: usize = node_points.iter().map(Vec::len).sum();
        let mut node_starts = Vec::with_capacity(2 * size + 1);
        let mut ys = Vec::with_capacity(total);
        let mut payloads = Vec::with_capacity(total);
        node_starts.push(0u32);
        for node in &node_points {
            for &(y, payload) in node {
                ys.push(y);
                payloads.push(payload);
            }
            node_starts.push(u32::try_from(ys.len()).expect("entry pools exceed u32 range"));
        }
        Self {
            size,
            len,
            xs: ArenaVec::from(xs),
            node_starts,
            ys: ArenaVec::from(ys),
            payloads: ArenaVec::from(payloads),
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

    /// Payloads of all points inside `rect`.
    pub fn report(&self, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.report_into(rect, &mut out);
        out
    }

    /// Like [`RangeReporter::report`] but appending into a reused output
    /// buffer. Returns the number of canonical segment-tree nodes touched
    /// (the `O(log N)` term of the query cost), for query instrumentation.
    pub fn report_into(&self, rect: &Rect, out: &mut Vec<u32>) -> usize {
        self.report_with(rect, |payload| out.push(payload))
    }

    /// Callback form of [`RangeReporter::report`]: invokes `emit` once per
    /// point payload inside `rect`, allocating nothing. Returns the number of
    /// canonical segment-tree nodes touched.
    pub fn report_with(&self, rect: &Rect, mut emit: impl FnMut(u32)) -> usize {
        if rect.is_empty() || self.len == 0 {
            return 0;
        }
        // Translate the x-range into a rank range over the x-sorted points.
        let lo = self.xs.partition_point(|&x| x < rect.x_lo);
        let hi = self.xs.partition_point(|&x| x < rect.x_hi);
        if lo >= hi {
            return 0;
        }
        // Canonical decomposition of [lo, hi) over the segment tree.
        let mut nodes = 0usize;
        let (mut l, mut r) = (lo + self.size, hi + self.size);
        while l < r {
            if l & 1 == 1 {
                self.emit(l, rect, &mut emit);
                nodes += 1;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                self.emit(r, rect, &mut emit);
                nodes += 1;
            }
            l >>= 1;
            r >>= 1;
        }
        nodes
    }

    /// Number of points inside `rect`.
    pub fn count(&self, rect: &Rect) -> usize {
        if rect.is_empty() || self.len == 0 {
            return 0;
        }
        let lo = self.xs.partition_point(|&x| x < rect.x_lo);
        let hi = self.xs.partition_point(|&x| x < rect.x_hi);
        if lo >= hi {
            return 0;
        }
        let (mut l, mut r) = (lo + self.size, hi + self.size);
        let mut total = 0usize;
        while l < r {
            if l & 1 == 1 {
                total += self.count_node(l, rect);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                total += self.count_node(r, rect);
            }
            l >>= 1;
            r >>= 1;
        }
        total
    }

    /// Segment-tree node `node`'s entries: y-values and parallel payloads.
    #[inline]
    fn node(&self, node: usize) -> (&[u32], &[u32]) {
        let (start, end) = (
            self.node_starts[node] as usize,
            self.node_starts[node + 1] as usize,
        );
        (&self.ys[start..end], &self.payloads[start..end])
    }

    fn emit(&self, node: usize, rect: &Rect, emit: &mut impl FnMut(u32)) {
        let (ys, payloads) = self.node(node);
        let start = ys.partition_point(|&y| y < rect.y_lo);
        for (&y, &payload) in ys[start..].iter().zip(&payloads[start..]) {
            if y >= rect.y_hi {
                break;
            }
            emit(payload);
        }
    }

    fn count_node(&self, node: usize, rect: &Rect) -> usize {
        let (ys, _) = self.node(node);
        ys.partition_point(|&y| y < rect.y_hi) - ys.partition_point(|&y| y < rect.y_lo)
    }

    /// Approximate heap usage in bytes. Arena-backed entry pools count as
    /// zero owned bytes here; the arena itself is counted once by whoever
    /// retains its handle.
    pub fn memory_bytes(&self) -> usize {
        self.xs.heap_bytes()
            + self.ys.heap_bytes()
            + self.payloads.heap_bytes()
            + self.node_starts.capacity() * std::mem::size_of::<u32>()
    }

    /// Exports the structure as its flat representation (see
    /// [`ReporterParts`]).
    pub fn to_parts(&self) -> ReporterParts {
        let node_lens: Vec<u32> = self.node_starts.windows(2).map(|w| w[1] - w[0]).collect();
        ReporterParts {
            len: self.len as u64,
            xs: self.xs.clone(),
            node_lens: ArenaVec::from(node_lens),
            ys: self.ys.clone(),
            payloads: self.payloads.clone(),
        }
    }

    /// Reassembles the structure from its flat representation — the inverse
    /// of [`RangeReporter::to_parts`], in linear time (the merge-sort tree is
    /// *not* rebuilt). The entry pools are moved in as-is, so views stay
    /// views.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency.
    pub fn from_parts(parts: ReporterParts) -> Result<Self, String> {
        let len = parts.len as usize;
        if parts.xs.len() != len {
            return Err(format!(
                "xs has {} entries for {len} points",
                parts.xs.len()
            ));
        }
        let size = len.next_power_of_two().max(1);
        if parts.node_lens.len() != 2 * size {
            return Err(format!(
                "expected {} segment-tree nodes, found {}",
                2 * size,
                parts.node_lens.len()
            ));
        }
        let mut node_starts = Vec::with_capacity(2 * size + 1);
        let mut offset = 0u64;
        node_starts.push(0u32);
        for &node_len in parts.node_lens.iter() {
            offset += u64::from(node_len);
            let Ok(start) = u32::try_from(offset) else {
                return Err("entry pools exceed the u32 address range".into());
            };
            node_starts.push(start);
        }
        if parts.ys.len() as u64 != offset || parts.payloads.len() as u64 != offset {
            return Err("entry arrays do not match the per-node lengths".into());
        }
        // Sortedness checks, phrased as whole-pool reduction scans so they
        // vectorize (these run over the O(n log n) entry pools on every
        // arena open). A node's entries are y-sorted iff every adjacent
        // descent in the concatenated pool falls on a node boundary: count
        // descents globally, then subtract the ones boundaries explain.
        let descents = count_adjacent_descents(&parts.ys);
        let mut boundary_descents = 0usize;
        let mut prev_boundary = 0usize; // offset 0 is never an interior descent
        for &b in &node_starts[1..node_starts.len() - 1] {
            // Empty nodes repeat an offset; each distinct boundary can
            // explain at most one descent.
            let b = b as usize;
            if b != prev_boundary && b < parts.ys.len() && parts.ys[b - 1] > parts.ys[b] {
                boundary_descents += 1;
            }
            prev_boundary = b;
        }
        if descents != boundary_descents {
            return Err("a segment-tree node's entries are not y-sorted".into());
        }
        if count_adjacent_descents(&parts.xs) != 0 {
            return Err("point x-coordinates are not sorted".into());
        }
        Ok(Self {
            size,
            len,
            xs: parts.xs,
            node_starts,
            ys: parts.ys,
            payloads: parts.payloads,
        })
    }
}

/// Number of positions `i` with `values[i] > values[i + 1]` — a branch-free
/// reduction over adjacent pairs that the compiler turns into SIMD compares.
fn count_adjacent_descents(values: &[u32]) -> usize {
    match values.len() {
        0 | 1 => 0,
        len => values[..len - 1]
            .iter()
            .zip(&values[1..])
            .fold(0usize, |acc, (&a, &b)| acc + usize::from(a > b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveGrid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<GridPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Permutation pairing, as produced by the index (distinct x, distinct y).
        let mut ys: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            ys.swap(i, j);
        }
        (0..n as u32)
            .map(|x| GridPoint::new(x, ys[x as usize], 1000 + x))
            .collect()
    }

    /// Copies an arena vector out, applies `f`, and wraps it back up — the
    /// corruption tests' stand-in for direct mutation.
    fn tweak(v: &ArenaVec<u32>, f: impl FnOnce(&mut Vec<u32>)) -> ArenaVec<u32> {
        let mut owned = v.to_vec();
        f(&mut owned);
        ArenaVec::from(owned)
    }

    #[test]
    fn matches_naive_on_permutation_points() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 2, 7, 64, 200] {
            let points = random_points(n, n as u64);
            let naive = NaiveGrid::new(points.clone());
            let fast = RangeReporter::new(points);
            assert_eq!(fast.len(), n);
            for _ in 0..200 {
                let x1 = rng.gen_range(0..=(n as u32 + 2));
                let x2 = rng.gen_range(0..=(n as u32 + 2));
                let y1 = rng.gen_range(0..=(n as u32 + 2));
                let y2 = rng.gen_range(0..=(n as u32 + 2));
                let rect = Rect::new((x1.min(x2), x1.max(x2)), (y1.min(y2), y1.max(y2)));
                let mut a = naive.report(&rect);
                let mut b = fast.report(&rect);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "n={n} rect={rect:?}");
                assert_eq!(naive.count(&rect), fast.count(&rect));
            }
        }
    }

    #[test]
    fn duplicate_coordinates_are_supported() {
        // Even though the index produces permutations, the structure should
        // not silently break on duplicates.
        let points = vec![
            GridPoint::new(3, 3, 1),
            GridPoint::new(3, 3, 2),
            GridPoint::new(3, 4, 3),
            GridPoint::new(4, 3, 4),
        ];
        let naive = NaiveGrid::new(points.clone());
        let fast = RangeReporter::new(points);
        let rect = Rect::new((3, 4), (3, 4));
        let mut a = naive.report(&rect);
        let mut b = fast.report(&rect);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2]);
    }

    #[test]
    fn report_forms_agree_and_count_canonical_nodes() {
        let points = random_points(200, 3);
        let fast = RangeReporter::new(points);
        let mut rng = StdRng::seed_from_u64(11);
        let mut reused = Vec::new();
        for _ in 0..100 {
            let x1 = rng.gen_range(0..=202u32);
            let x2 = rng.gen_range(0..=202u32);
            let y1 = rng.gen_range(0..=202u32);
            let y2 = rng.gen_range(0..=202u32);
            let rect = Rect::new((x1.min(x2), x1.max(x2)), (y1.min(y2), y1.max(y2)));
            let direct = fast.report(&rect);
            reused.clear();
            let nodes_into = fast.report_into(&rect, &mut reused);
            let mut via_callback = Vec::new();
            let nodes_with = fast.report_with(&rect, |p| via_callback.push(p));
            assert_eq!(direct, reused);
            assert_eq!(direct, via_callback);
            assert_eq!(nodes_into, nodes_with);
            // The canonical decomposition of any rank range over a segment
            // tree with 256 leaves touches at most 2·log2(256) nodes.
            assert!(nodes_into <= 16, "nodes {nodes_into}");
            if !direct.is_empty() {
                assert!(nodes_into > 0);
            }
        }
    }

    #[test]
    fn parts_round_trip_preserves_reports() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [0usize, 1, 5, 100] {
            let points = random_points(n, n as u64 + 7);
            let original = RangeReporter::new(points);
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
        let original = RangeReporter::new(random_points(9, 1));
        let good = original.to_parts();
        let mut bad = good.clone();
        bad.xs = tweak(&bad.xs, |v| {
            v.pop();
        });
        assert!(RangeReporter::from_parts(bad).is_err());
        let mut bad = good.clone();
        bad.node_lens = tweak(&bad.node_lens, |v| {
            v.pop();
        });
        assert!(RangeReporter::from_parts(bad).is_err());
        let mut bad = good.clone();
        bad.ys = tweak(&bad.ys, |v| v.push(0));
        assert!(RangeReporter::from_parts(bad).is_err());
        let mut bad = good;
        bad.xs = tweak(&bad.xs, |v| v.reverse());
        assert!(RangeReporter::from_parts(bad).is_err());
    }

    #[test]
    fn full_rectangle_reports_everything() {
        let points = random_points(100, 9);
        let fast = RangeReporter::new(points);
        let rect = Rect::new((0, 100), (0, 100));
        assert_eq!(fast.report(&rect).len(), 100);
        assert_eq!(fast.count(&rect), 100);
    }

    #[test]
    fn memory_grows_superlinearly_but_modestly() {
        let small = RangeReporter::new(random_points(128, 1)).memory_bytes();
        let large = RangeReporter::new(random_points(1024, 1)).memory_bytes();
        assert!(large > small);
        // N log N scaling: 1024·11 vs 128·8 ⇒ factor ≈ 11; allow a wide band.
        assert!(large < small * 32);
    }
}
