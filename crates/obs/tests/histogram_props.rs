//! Property tests pinning the [`Histogram`] accuracy contract against an
//! exact sorted-vec oracle: every quantile is within the documented
//! relative-error bound, counts and sums are exact, and merging two
//! histograms is equivalent to recording the concatenated stream.

use ius_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// The exact order statistic the histogram quantile approximates:
/// `sorted[⌈q·n⌉ − 1]` (clamped into range).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn record_all(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A value mix covering every regime: exact unit buckets, mid-range
/// log-linear buckets, and near-the-cap magnitudes.
fn value_strategy() -> impl Strategy<Value = u64> {
    (0u32..40, 0u64..u64::MAX).prop_map(|(exp, raw)| raw % (1u64 << exp).max(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantiles vs the exact oracle: within the documented relative-error
    /// bound at every probed q, and count/sum/min/max exact.
    #[test]
    fn quantiles_match_the_sorted_oracle(
        values in prop::collection::vec(value_strategy(), 1..400),
    ) {
        let snap = record_all(&values).snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();

        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snap.min, *sorted.first().unwrap());
        prop_assert_eq!(snap.max, *sorted.last().unwrap());

        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle_quantile(&sorted, q);
            let approx = snap.quantile(q);
            let err = approx.abs_diff(exact) as f64;
            // +0.5 absorbs the integer midpoint of odd-width buckets.
            prop_assert!(
                err <= Histogram::RELATIVE_ERROR_BOUND * exact as f64 + 0.5,
                "q={} exact={} approx={} err={}", q, exact, approx, err
            );
        }
        prop_assert!(snap.p50() <= snap.p99());
    }

    /// merge(a, b) — at both the histogram and the snapshot level — is
    /// indistinguishable from recording the concatenated stream.
    #[test]
    fn merge_equals_concatenated_recording(
        a in prop::collection::vec(value_strategy(), 0..200),
        b in prop::collection::vec(value_strategy(), 0..200),
    ) {
        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let expected = record_all(&concat).snapshot();

        let ha = record_all(&a);
        let hb = record_all(&b);
        let mut snap_merged = ha.snapshot();
        snap_merged.merge(&hb.snapshot());
        prop_assert_eq!(&snap_merged, &expected, "snapshot-level merge");

        ha.merge(&hb);
        prop_assert_eq!(&ha.snapshot(), &expected, "histogram-level merge");
    }

    /// Merging is commutative and the empty snapshot is its identity.
    #[test]
    fn merge_is_commutative_with_empty_identity(
        a in prop::collection::vec(value_strategy(), 0..100),
        b in prop::collection::vec(value_strategy(), 0..100),
    ) {
        let sa = record_all(&a).snapshot();
        let sb = record_all(&b).snapshot();
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        let mut with_empty = sa.clone();
        with_empty.merge(&HistogramSnapshot::default());
        prop_assert_eq!(&with_empty, &sa);
        let mut from_empty = HistogramSnapshot::default();
        from_empty.merge(&sa);
        prop_assert_eq!(&from_empty, &sa);
    }
}

/// Histogram-level merge with an empty operand, both directions: the empty
/// side's internal sentinels (`u64::MAX` min, 0 max) must never leak into
/// the reported extremes, which stay exact.
#[test]
fn histogram_merge_with_an_empty_operand_keeps_min_max_exact() {
    // Empty right operand: the populated side is unchanged.
    let populated = record_all(&[7, 1_000, 31]);
    populated.merge(&Histogram::new());
    let snap = populated.snapshot();
    assert_eq!(
        (snap.count, snap.sum, snap.min, snap.max),
        (3, 1_038, 7, 1_000)
    );

    // Empty left operand: the extremes cross over exactly.
    let empty = Histogram::new();
    empty.merge(&record_all(&[7, 1_000, 31]));
    let snap = empty.snapshot();
    assert_eq!(
        (snap.count, snap.sum, snap.min, snap.max),
        (3, 1_038, 7, 1_000)
    );

    // Empty into empty stays a well-formed empty snapshot.
    let still_empty = Histogram::new();
    still_empty.merge(&Histogram::new());
    let snap = still_empty.snapshot();
    assert_eq!((snap.count, snap.sum, snap.min, snap.max), (0, 0, 0, 0));
    assert!(snap.buckets.is_empty());
}
