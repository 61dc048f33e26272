//! Property tests of the wavelet-matrix [`RangeReporter`] against the
//! linear-scan [`NaiveGrid`] oracle.
//!
//! Point sets are permutation grids — random, near-diagonal, the identity
//! and the reversal — at sizes around word and power-of-two boundaries (`N ∈ {0, 1, 63, 64, 65, 2^k ± 1, …}`). Rectangles are random,
//! plus shapes that force each of the three query strategies: a narrow x
//! side, a narrow y side (both scanned without counting), and two wide
//! sides with a tiny intersection (counted, then walked). Every rectangle
//! checks `report`, `report_into` and `report_with` against the oracle, and
//! checks the returned grid work against the strategy the rectangle's
//! widths select.

use ius_grid::{GridPoint, NaiveGrid, RangeReporter, Rect};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sizes at and around the 64-bit word and power-of-two boundaries.
const SIZES: [usize; 19] = [
    0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097,
];

/// The query plan the documented rule selects for a rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Nothing inside either range: no work.
    Empty,
    /// `w ≤ 16·L`: scan the narrower side without counting.
    BlindScan,
    /// `w ≤ (k + 1)·L` after counting `k`: count, then scan.
    CountThenScan,
    /// Counted `k = 0`: nothing to scan or walk.
    CountedNothing,
    /// Otherwise: count, then walk the wavelet matrix.
    Walk,
}

fn levels(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut values: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        values.swap(i, rng.gen_range(0..=i));
    }
    values
}

/// One of four permutation shapes, chosen by `kind`: the y paired with
/// each x.
fn pairing(n: usize, kind: u8, rng: &mut StdRng) -> Vec<u32> {
    match kind % 4 {
        // A random permutation.
        0 => random_permutation(n, rng),
        // Near-diagonal: the identity with a few local swaps. Wide
        // rectangles off the diagonal hold few points.
        1 => {
            let mut ys: Vec<u32> = (0..n as u32).collect();
            for _ in 0..n / 8 {
                let i = rng.gen_range(0..n - 1);
                ys.swap(i, i + 1);
            }
            ys
        }
        // The identity.
        2 => (0..n as u32).collect(),
        // The reversal.
        _ => (0..n as u32).rev().collect(),
    }
}

/// The points `(x, pairing[x])`.
fn points_of(pairing: &[u32]) -> Vec<GridPoint> {
    (0..pairing.len() as u32)
        .zip(pairing)
        .map(|(x, &y)| GridPoint::new(x, y))
        .collect()
}

/// Random rectangles plus the strategy-forcing shapes, over coordinates up
/// to `bound` (exclusive).
fn rectangles(bound: u32, rng: &mut StdRng) -> Vec<Rect> {
    let mut span = || {
        let a = rng.gen_range(0..=bound + 2);
        let b = rng.gen_range(0..=bound + 2);
        (a.min(b), a.max(b))
    };
    let mut rects: Vec<Rect> = (0..24).map(|_| Rect::new(span(), span())).collect();
    let half = bound / 2;
    let narrow = rng.gen_range(1..=8u32);
    let start = rng.gen_range(0..=bound);
    rects.extend([
        // Narrow x side, wide y side.
        Rect::new((start, start + narrow), (0, bound)),
        // Narrow y side, wide x side.
        Rect::new((0, bound), (start, start + narrow)),
        // Two wide sides meeting in a corner: few points on a diagonal.
        Rect::new((0, half), (half.saturating_sub(narrow), bound)),
        Rect::new((half, bound), (0, half + narrow)),
        // Two wide sides on the diagonal: many points.
        Rect::new((0, half + narrow), (0, half)),
        Rect::new((0, bound), (0, bound)),
    ]);
    rects
}

fn sorted(mut points: Vec<GridPoint>) -> Vec<GridPoint> {
    points.sort_unstable();
    points
}

/// The strategy the rule selects for `rect`, and the width `w` it scans.
fn predicted(points: &[GridPoint], rect: &Rect) -> (Plan, usize) {
    if rect.is_empty() || points.is_empty() {
        return (Plan::Empty, 0);
    }
    let w_x = points
        .iter()
        .filter(|p| p.x >= rect.x_lo && p.x < rect.x_hi)
        .count();
    let w_y = points
        .iter()
        .filter(|p| p.y >= rect.y_lo && p.y < rect.y_hi)
        .count();
    if w_x == 0 || w_y == 0 {
        return (Plan::Empty, 0);
    }
    let w = w_x.min(w_y);
    let l = levels(points.len()).max(1);
    if w <= 16 * l {
        return (Plan::BlindScan, w);
    }
    let k = points.iter().filter(|p| rect.contains(p)).count();
    if k == 0 {
        return (Plan::CountedNothing, w);
    }
    if w <= (k + 1) * l {
        (Plan::CountThenScan, w)
    } else {
        (Plan::Walk, w)
    }
}

/// Checks every report form against the oracle and the work against the
/// predicted strategy; returns the strategy.
fn check_rect(
    grid: &RangeReporter,
    naive: &NaiveGrid,
    points: &[GridPoint],
    rect: &Rect,
) -> Result<Plan, TestCaseError> {
    let expected = sorted(naive.report(rect));
    let direct = grid.report(rect);
    prop_assert_eq!(
        sorted(direct.clone()),
        expected.clone(),
        "report {:?}",
        rect
    );
    let mut reused = vec![GridPoint::new(7, 7)];
    let work = grid.report_into(rect, &mut reused);
    prop_assert_eq!(&reused[1..], direct.as_slice(), "report_into {:?}", rect);
    let mut via_callback = Vec::new();
    let work_with = grid.report_with(rect, |p| via_callback.push(p));
    prop_assert_eq!(&via_callback, &direct, "report_with {:?}", rect);
    prop_assert_eq!(work, work_with);
    prop_assert_eq!(grid.count(rect), expected.len(), "count {:?}", rect);

    let l = levels(points.len());
    let k = expected.len();
    let (plan, w) = predicted(points, rect);
    match plan {
        Plan::Empty => prop_assert_eq!(work, 0),
        Plan::BlindScan => prop_assert_eq!(work, w, "blind scan {:?}", rect),
        Plan::CountedNothing => prop_assert!(
            work >= 1 && work <= 2 * l,
            "empty count: work {} {:?}",
            work,
            rect
        ),
        Plan::CountThenScan => prop_assert!(
            work > w && work <= w + 2 * l,
            "count then scan: work {} for w {} {:?}",
            work,
            w,
            rect
        ),
        // The count visits at most two root-to-leaf paths; the walk visits
        // the leaves' paths plus at most two boundary nodes per level.
        Plan::Walk => prop_assert!(
            work >= 1 && work <= 2 * l + (k + 2) * (l + 1),
            "walk: work {} for k {} {:?}",
            work,
            k,
            rect
        ),
    }
    if k > 0 {
        prop_assert!(work > 0);
    }
    Ok(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every report form agrees with the oracle, on every point-set shape
    /// and size, and does the work its strategy predicts.
    #[test]
    fn reports_match_the_naive_grid(
        size in 0usize..SIZES.len() + 4,
        kind in 0u8..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = SIZES.get(size).copied().unwrap_or_else(|| rng.gen_range(0..3000));
        let pairing = pairing(n, kind, &mut rng);
        let points = points_of(&pairing);
        let naive = NaiveGrid::new(points.clone());
        let grid = RangeReporter::new(pairing);
        prop_assert_eq!(grid.len(), n);
        let bound = (n as u32).max(1);
        for rect in rectangles(bound, &mut rng) {
            check_rect(&grid, &naive, &points, &rect)?;
        }
    }

    /// `to_parts`/`from_parts` is lossless: the rebuilt reporter exports the
    /// same parts and answers every rectangle the same.
    #[test]
    fn parts_round_trip(
        size in 0usize..SIZES.len(),
        kind in 0u8..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = SIZES[size];
        let grid = RangeReporter::new(pairing(n, kind, &mut rng));
        let rebuilt = RangeReporter::from_parts(grid.to_parts())
            .map_err(|e| TestCaseError(format!("from_parts refused a build: {e}")))?;
        prop_assert_eq!(rebuilt.to_parts(), grid.to_parts());
        let bound = (n as u32).max(1);
        for rect in rectangles(bound, &mut rng) {
            prop_assert_eq!(rebuilt.report(&rect), grid.report(&rect));
        }
    }
}

/// The strategy-forcing shapes do force each strategy on a near-diagonal
/// set, so the property above exercises all three.
#[test]
fn forcing_shapes_reach_every_strategy() {
    let mut rng = StdRng::seed_from_u64(3);
    let pairing = pairing(4096, 1, &mut rng);
    let points = points_of(&pairing);
    let naive = NaiveGrid::new(points.clone());
    let grid = RangeReporter::new(pairing);
    let shapes = [
        (Rect::new((100, 104), (0, 4096)), Plan::BlindScan),
        (Rect::new((0, 4096), (100, 104)), Plan::BlindScan),
        (Rect::new((0, 2048), (0, 2048)), Plan::CountThenScan),
        (Rect::new((0, 2048), (2045, 4096)), Plan::Walk),
    ];
    for (rect, expected) in shapes {
        let got = check_rect(&grid, &naive, &points, &rect).unwrap();
        assert_eq!(got, expected, "{rect:?}");
    }
}
