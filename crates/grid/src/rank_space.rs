//! A grid of distinct points over key ranges, reduced to rank space.

use crate::rank_select::{BitParts, RankSelect};
use crate::reporter::{RangeReporter, ReporterParts};
use crate::{GridPoint, Rect};
use ius_arena::ArenaVec;

/// The flat representation of a [`RankSpaceGrid`], used by the persistence
/// layer: the points' [`RangeReporter`] and one bitvector per axis over
/// its `N` ranks (both of `N` bits). Owned, or borrowed from
/// [`RankSpaceGrid::parts`] (`U64 = &[u64]`, `U32 = &[u32]`).
#[derive(Debug, Clone, PartialEq)]
pub struct RankSpaceParts<U64 = ArenaVec<u64>, U32 = ArenaVec<u32>> {
    /// The points in rank space.
    pub points: ReporterParts<U64, U32>,
    /// One-bits at the x rank of each x key's first point.
    pub x_starts: BitParts<U64, U32>,
    /// One-bits at the y rank of each y key's first point.
    pub y_starts: BitParts<U64, U32>,
}

/// A static 2D range reporter over distinct points `(x, y)` whose x keys
/// cover `0..X` and whose y keys cover `0..Y`: every key in range carries
/// at least one point, and a key may carry several.
///
/// The points are ranked on both axes: a point's x rank is its position in
/// `(x, y)` order and its y rank its position in `(y, x)` order, so the
/// ranks pair by a permutation of `0..N` and the [`RangeReporter`] over it
/// answers unchanged (Mäkinen and Navarro's rank-space reduction). Per axis,
/// a [`RankSelect`] over the `N` ranks marks each key's first point: a key
/// range `[lo, hi)` is the rank range `[select(lo), select(hi))`, and the
/// key of rank `r` is `rank(r + 1) − 1`.
///
/// Space: the reporter's, plus 1.5 bits per point per axis.
#[derive(Debug, Clone)]
pub struct RankSpaceGrid {
    points: RangeReporter,
    x_starts: RankSelect,
    y_starts: RankSelect,
}

impl RankSpaceGrid {
    /// Builds the grid of `points`, dropping repeats, in `O(N log N)` time
    /// and `O(N + Y)` words beside the points.
    ///
    /// # Panics
    ///
    /// If some x key below the largest x, or some y key below the largest
    /// y, carries no point, or the distinct points exceed `u32::MAX`.
    pub fn new(mut points: Vec<GridPoint>) -> Self {
        points.sort_unstable();
        points.dedup();
        let len = points.len();
        assert!(u32::try_from(len).is_ok(), "grid exceeds u32 point ranks");
        let y_keys = points.iter().map(|p| p.y as usize + 1).max().unwrap_or(0);
        // The first y rank of each y key: a counting sort, stable in x.
        let mut y_next = vec![0u32; y_keys + 1];
        for p in &points {
            y_next[p.y as usize + 1] += 1;
        }
        assert!(
            y_next[1..].iter().all(|&c| c > 0),
            "every y key below the largest must carry a point"
        );
        for y in 1..=y_keys {
            y_next[y] += y_next[y - 1];
        }
        let y_starts = RankSelect::from_ones(len, y_next[..y_keys].iter().map(|&r| r as usize));
        assert!(
            points.first().is_none_or(|p| p.x == 0)
                && points.windows(2).all(|w| w[1].x - w[0].x <= 1),
            "every x key below the largest must carry a point"
        );
        let x_starts = RankSelect::from_ones(
            len,
            (0..len).filter(|&rank| rank == 0 || points[rank - 1].x != points[rank].x),
        );
        let pairing: Vec<u32> = points
            .iter()
            .map(|p| {
                let y_rank = &mut y_next[p.y as usize];
                *y_rank += 1;
                *y_rank - 1
            })
            .collect();
        drop((points, y_next));
        Self {
            points: RangeReporter::new(pairing),
            x_starts,
            y_starts,
        }
    }

    /// Number of stored (distinct) points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff no points are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of x keys `X`.
    #[inline]
    pub fn x_keys(&self) -> usize {
        self.x_starts.ones()
    }

    /// Number of y keys `Y`.
    #[inline]
    pub fn y_keys(&self) -> usize {
        self.y_starts.ones()
    }

    /// Invokes `emit` once per point inside `rect` (in key coordinates),
    /// allocating nothing. Returns the grid work done: wavelet-matrix nodes
    /// visited plus entries scanned (see [`RangeReporter::report_into`]).
    pub fn report_with(&self, rect: &Rect, mut emit: impl FnMut(GridPoint)) -> usize {
        let ranks = |starts: &RankSelect, lo: u32, hi: u32| {
            (
                starts.select(lo as usize) as u32,
                starts.select(hi as usize) as u32,
            )
        };
        let in_ranks = Rect::new(
            ranks(&self.x_starts, rect.x_lo, rect.x_hi),
            ranks(&self.y_starts, rect.y_lo, rect.y_hi),
        );
        self.points.report_with(&in_ranks, |p| {
            let key = |starts: &RankSelect, rank: u32| (starts.rank(rank as usize + 1) - 1) as u32;
            emit(GridPoint::new(
                key(&self.x_starts, p.x),
                key(&self.y_starts, p.y),
            ))
        })
    }

    /// Points inside `rect`, in key coordinates.
    pub fn report(&self, rect: &Rect) -> Vec<GridPoint> {
        let mut out = Vec::new();
        self.report_with(rect, |p| out.push(p));
        out
    }

    /// Approximate heap usage in bytes (arena views count zero).
    pub fn memory_bytes(&self) -> usize {
        self.points.memory_bytes() + self.x_starts.memory_bytes() + self.y_starts.memory_bytes()
    }

    /// Exports the flat representation (see [`RankSpaceParts`]).
    pub fn to_parts(&self) -> RankSpaceParts {
        RankSpaceParts {
            points: self.points.to_parts(),
            x_starts: self.x_starts.to_parts(),
            y_starts: self.y_starts.to_parts(),
        }
    }

    /// The flat representation, borrowed: what a writer reads, no copy.
    pub fn parts(&self) -> RankSpaceParts<&[u64], &[u32]> {
        RankSpaceParts {
            points: self.points.parts(),
            x_starts: self.x_starts.parts(),
            y_starts: self.y_starts.parts(),
        }
    }

    /// Reassembles the grid from its flat representation in linear time,
    /// nothing rebuilt. Beyond the reporter's and the bitvectors' own
    /// checks, each bitvector marks rank 0 when there are points, so every
    /// reported rank maps to a key.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency.
    pub fn from_parts(parts: RankSpaceParts) -> Result<Self, String> {
        let points = RangeReporter::from_parts(parts.points)?;
        let len = points.len();
        Ok(Self {
            x_starts: axis_starts("x", len, parts.x_starts)?,
            y_starts: axis_starts("y", len, parts.y_starts)?,
            points,
        })
    }
}

/// One axis's bitvector over `len` point ranks, which must mark rank 0
/// when there are points.
fn axis_starts(axis: &str, len: usize, bits: BitParts) -> Result<RankSelect, String> {
    let starts = RankSelect::from_parts(len, bits).map_err(|e| format!("{axis} {e}"))?;
    if len > 0 && starts.rank(1) != 1 {
        return Err(format!("{axis} bitvector does not mark the first point"));
    }
    Ok(starts)
}
