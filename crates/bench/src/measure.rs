//! Measurement helpers: wall-clock, peak heap, index size and query latency.

use ius_datasets::patterns::PatternSampler;
use ius_index::{AnyIndex, IndexFamily, IndexParams, IndexSpec, IndexStats, UncertainIndex};
use ius_weighted::{Result, WeightedString, ZEstimation};
use std::time::{Duration, Instant};

/// Everything measured while constructing one index.
pub struct BuildMeasurement {
    /// Which index was built.
    pub family: IndexFamily,
    /// Wall-clock construction time, including the z-estimation when the
    /// index requires it.
    pub wall: Duration,
    /// Peak heap growth during construction, in bytes. Includes the
    /// z-estimation for estimation-based indexes (approximated as
    /// `max(estimation peak, estimation retained + index peak)` when the
    /// estimation is shared across index builds).
    pub peak_bytes: usize,
    /// Final index size in bytes.
    pub size_bytes: usize,
    /// Structural statistics of the index.
    pub stats: IndexStats,
    /// The built index, for subsequent query measurements.
    pub index: AnyIndex,
}

/// Peak/retained heap of building the shared z-estimation, measured once per
/// `(dataset, z)` configuration by [`measure_estimation`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimationCost {
    /// Peak heap growth while constructing the estimation.
    pub peak_bytes: usize,
    /// Heap retained by the estimation itself.
    pub retained_bytes: usize,
    /// Wall-clock time of constructing the estimation.
    pub wall: Duration,
}

/// Builds a z-estimation while measuring its wall-clock time and heap cost.
///
/// # Errors
///
/// Propagates threshold validation errors.
pub fn measure_estimation(x: &WeightedString, z: f64) -> Result<(ZEstimation, EstimationCost)> {
    let start = Instant::now();
    let (result, mem) = ius_memtrack::measure(|| ZEstimation::build(x, z));
    let estimation = result?;
    Ok((
        estimation,
        EstimationCost {
            peak_bytes: mem.peak_bytes,
            retained_bytes: mem.retained_bytes,
            wall: start.elapsed(),
        },
    ))
}

/// Builds one index while measuring wall-clock time, peak heap and size.
///
/// The shared `estimation` is ignored by the families that do not need one
/// (NAIVE and the space-efficient construction). For the others its cost is
/// folded in so that the reported numbers correspond to a from-scratch
/// construction, as the paper measures them.
///
/// # Errors
///
/// Propagates construction errors.
pub fn measure_build(
    family: IndexFamily,
    x: &WeightedString,
    estimation: &ZEstimation,
    estimation_cost: EstimationCost,
    params: IndexParams,
) -> Result<BuildMeasurement> {
    let spec = IndexSpec::new(family, params);
    let start = Instant::now();
    let (built, mem) = ius_memtrack::measure(|| spec.build_with_estimation(x, estimation));
    let index = built?;
    let mut wall = start.elapsed();
    let mut peak = mem.peak_bytes;
    if family.needs_estimation() {
        wall += estimation_cost.wall;
        peak = estimation_cost
            .peak_bytes
            .max(estimation_cost.retained_bytes + mem.peak_bytes);
    }
    Ok(BuildMeasurement {
        family,
        wall,
        peak_bytes: peak,
        size_bytes: index.size_bytes(),
        stats: index.stats(),
        index,
    })
}

/// Aggregate query-time measurement over a pattern set.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryMeasurement {
    /// Average time per query in microseconds.
    pub avg_micros: f64,
    /// Total number of reported occurrences over all patterns.
    pub total_occurrences: usize,
    /// Number of patterns queried.
    pub num_patterns: usize,
}

/// Runs every pattern through the index and reports the averages.
///
/// Uses the sink-based serving path (`query_into` with one reused scratch
/// and output buffer) — the configuration the query figures are meant to
/// describe.
///
/// # Errors
///
/// The first query error (a pattern shorter than ℓ, say): an average over
/// refused patterns would describe no query.
pub fn measure_queries(
    index: &dyn UncertainIndex,
    patterns: &[Vec<u8>],
    x: &WeightedString,
) -> Result<QueryMeasurement> {
    if patterns.is_empty() {
        return Ok(QueryMeasurement::default());
    }
    let mut scratch = ius_query::QueryScratch::new();
    let mut out: Vec<usize> = Vec::new();
    let start = Instant::now();
    let mut total = 0usize;
    for pattern in patterns {
        out.clear();
        index.query_into(pattern, x, &mut scratch, &mut out)?;
        total += out.len();
    }
    let elapsed = start.elapsed();
    Ok(QueryMeasurement {
        avg_micros: elapsed.as_micros() as f64 / patterns.len() as f64,
        total_occurrences: total,
        num_patterns: patterns.len(),
    })
}

/// Samples query patterns the way the paper does (uniformly from the
/// z-estimation), capped at `max_patterns` to keep sweep runtimes sane.
pub fn sample_patterns(
    estimation: &ZEstimation,
    m: usize,
    max_patterns: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    let paper_count =
        PatternSampler::paper_pattern_count(estimation.len(), estimation.z()).min(max_patterns);
    PatternSampler::new(estimation, seed).sample_many(m, paper_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_datasets::pangenome::PangenomeConfig;

    #[test]
    fn all_kinds_build_and_answer_queries() {
        let x = PangenomeConfig {
            n: 800,
            delta: 0.06,
            seed: 4,
            ..Default::default()
        }
        .generate();
        let z = 8.0;
        let ell = 16usize;
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let (est, est_cost) = measure_estimation(&x, z).unwrap();
        let patterns = sample_patterns(&est, ell, 20, 1);
        assert!(!patterns.is_empty());
        let mut reference: Option<usize> = None;
        for family in IndexFamily::all() {
            let b = measure_build(family, &x, &est, est_cost, params).unwrap();
            // The space-efficient constructions report the structure they
            // build (SE-MWST is an MWST); every other family its own name.
            assert_eq!(family.name().trim_start_matches("SE-"), b.stats.name);
            assert!(b.size_bytes > 0);
            let q = measure_queries(&b.index, &patterns, &x).unwrap();
            assert_eq!(q.num_patterns, patterns.len());
            match reference {
                None => reference = Some(q.total_occurrences),
                Some(expected) => assert_eq!(
                    q.total_occurrences,
                    expected,
                    "{} reports a different occurrence total",
                    family.name()
                ),
            }
        }
    }

    #[test]
    fn refused_queries_are_errors_not_empty_answers() {
        let x = PangenomeConfig {
            n: 400,
            delta: 0.06,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let params = IndexParams::new(8.0, 16, x.sigma()).unwrap();
        let index = IndexSpec::new(
            IndexFamily::Minimizer(ius_index::IndexVariant::ArrayGrid),
            params,
        )
        .build(&x)
        .unwrap();
        // The second pattern is shorter than ℓ = 16.
        let patterns = vec![vec![0u8; 16], vec![0u8; 15]];
        assert!(measure_queries(&index, &patterns, &x).is_err());
        assert!(measure_queries(&index, &patterns[..1], &x).is_ok());
    }
}
