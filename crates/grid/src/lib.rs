//! # ius-grid — 2D range reporting
//!
//! The grid-based variants of the uncertain-string indexes (MWST-G / MWSA-G)
//! pair up the leaves of the forward and backward minimizer solid factor
//! trees: each minimizer occurrence becomes a point `(x, y)` where `x` is the
//! leaf rank in the forward tree and `y` the leaf rank in the backward tree
//! (Section 3 of the paper, Lemma 7). A leaf may carry the points of several
//! occurrences and every leaf carries at least one, so the distinct points
//! are ranked on both axes: the ranks pair by a permutation `π` of `0..N`,
//! and one bitvector per axis maps leaves to ranks and back. A pattern query
//! then asks for all points inside an axis-aligned rectangle
//! `I_suff(P) × I_pref(P)`.
//!
//! This crate provides:
//!
//! * [`RangeReporter`] — a wavelet matrix (Claude, Navarro and Ordóñez,
//!   Inf. Syst. 2015) over `π`, beside `π` and `π⁻¹`. It occupies 8 bytes
//!   plus `1.5·⌈log₂ N⌉` bits per point and answers a rectangle with `k`
//!   points in `O((1 + k) log N)` time — the Mäkinen–Navarro bound the
//!   paper cites — scanning the narrower side of the rectangle directly
//!   when that is cheaper than walking the matrix. Construction is
//!   `O(N log N)` time in `O(N)` words.
//! * [`RankSpaceGrid`] — the rank-space reduction (Mäkinen and Navarro,
//!   "Rank and select revisited and extended", TCS 2007) of distinct points
//!   whose keys cover `0..X` × `0..Y`: a [`RangeReporter`] over the points'
//!   ranks plus, per axis, a [`RankSelect`] bitvector marking each key's
//!   first point (1.5 bits per point per axis).
//! * [`NaiveGrid`] — a linear scan, the test oracle of the other two: the
//!   differential tests check every answer against it, and no index uses
//!   it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;
pub mod rank_select;
pub mod rank_space;
pub mod reporter;

pub use naive::NaiveGrid;
pub use rank_select::{BitParts, RankSelect};
pub use rank_space::{RankSpaceGrid, RankSpaceParts};
pub use reporter::{RangeReporter, ReporterParts};

/// A point of the grid: a pair of leaf ranks. Queries report the points
/// themselves, so the index reads both leaves of a candidate straight from
/// the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GridPoint {
    /// Rank in the forward tree's leaf order.
    pub x: u32,
    /// Rank in the backward tree's leaf order.
    pub y: u32,
}

impl GridPoint {
    /// Convenience constructor.
    pub fn new(x: u32, y: u32) -> Self {
        Self { x, y }
    }
}

/// An axis-aligned half-open query rectangle `[x_lo, x_hi) × [y_lo, y_hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Inclusive lower x bound.
    pub x_lo: u32,
    /// Exclusive upper x bound.
    pub x_hi: u32,
    /// Inclusive lower y bound.
    pub y_lo: u32,
    /// Exclusive upper y bound.
    pub y_hi: u32,
}

impl Rect {
    /// Convenience constructor from half-open ranges.
    pub fn new(x: (u32, u32), y: (u32, u32)) -> Self {
        Self {
            x_lo: x.0,
            x_hi: x.1,
            y_lo: y.0,
            y_hi: y.1,
        }
    }

    /// `true` iff the rectangle contains the point.
    #[inline]
    pub fn contains(&self, p: &GridPoint) -> bool {
        p.x >= self.x_lo && p.x < self.x_hi && p.y >= self.y_lo && p.y < self.y_hi
    }

    /// `true` iff the rectangle is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x_lo >= self.x_hi || self.y_lo >= self.y_hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_contains() {
        let r = Rect::new((2, 5), (10, 20));
        assert!(r.contains(&GridPoint::new(2, 10)));
        assert!(r.contains(&GridPoint::new(4, 19)));
        assert!(!r.contains(&GridPoint::new(5, 10)));
        assert!(!r.contains(&GridPoint::new(4, 20)));
        assert!(!r.contains(&GridPoint::new(1, 15)));
        assert!(!r.is_empty());
        assert!(Rect::new((3, 3), (0, 10)).is_empty());
        assert!(Rect::new((0, 1), (10, 10)).is_empty());
    }
}
