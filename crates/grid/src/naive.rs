//! Linear-scan 2D range reporting, the test oracle of the grid structures.

use crate::{GridPoint, Rect};

/// A naive grid: stores the points in a vector and answers queries by a full
/// scan. `O(N)` per query, `O(N)` space — the reference implementation the
/// tests check [`crate::RangeReporter`] and [`crate::RankSpaceGrid`]
/// against; no index uses it.
#[derive(Debug, Clone, Default)]
pub struct NaiveGrid {
    points: Vec<GridPoint>,
}

impl NaiveGrid {
    /// Builds the structure from a point set.
    pub fn new(points: Vec<GridPoint>) -> Self {
        Self { points }
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points inside `rect`, in insertion order.
    pub fn report(&self, rect: &Rect) -> Vec<GridPoint> {
        if rect.is_empty() {
            return Vec::new();
        }
        self.points
            .iter()
            .filter(|p| rect.contains(p))
            .copied()
            .collect()
    }

    /// Number of points inside `rect`.
    pub fn count(&self, rect: &Rect) -> usize {
        if rect.is_empty() {
            return 0;
        }
        self.points.iter().filter(|p| rect.contains(p)).count()
    }

    /// Approximate heap usage in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<GridPoint>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_and_count() {
        let grid = NaiveGrid::new(vec![
            GridPoint::new(0, 0),
            GridPoint::new(1, 2),
            GridPoint::new(2, 1),
            GridPoint::new(3, 3),
        ]);
        assert_eq!(grid.len(), 4);
        let all = Rect::new((0, 4), (0, 4));
        assert_eq!(grid.count(&all), 4);
        let r = Rect::new((1, 3), (1, 3));
        let mut hits = grid.report(&r);
        hits.sort_unstable();
        assert_eq!(hits, vec![GridPoint::new(1, 2), GridPoint::new(2, 1)]);
        assert_eq!(grid.count(&Rect::new((0, 0), (0, 4))), 0);
    }

    #[test]
    fn empty_grid() {
        let grid = NaiveGrid::default();
        assert!(grid.is_empty());
        assert!(grid.report(&Rect::new((0, 10), (0, 10))).is_empty());
    }
}
