//! The query-path benchmark behind `reproduce --bench-query` and
//! `BENCH_query.json`.
//!
//! Each family answers a sampled pattern set through the serving engine,
//! `query_into` with one reused [`QueryScratch`] and a reused output
//! vector. Before any timing is trusted, every family's answers are
//! asserted identical, pattern by pattern, to the first family's (WSA's),
//! and a count-only sink must see the same totals.
//!
//! Timing runs in K rounds (at least [`MIN_ROUNDS`]) in one process. Each
//! round times every family once, in an order that rotates from round to
//! round; a family's round value is its fastest of [`PASSES_PER_ROUND`]
//! passes over the pattern set, in microseconds per query. Per family the
//! bench reports the median and interquartile range of its round values,
//! the median and IQR of its per-round ratio to WSA (the control: the
//! minimizer work never touches WSA's query path, so a host mode flip that
//! slows both in one round cancels in the ratio), and the share of rounds
//! more than 1.2 × its own fastest round (for WSA, the mode flips seen).

use crate::report::percentile;
use ius_datasets::corpora::bench_corpora;
use ius_datasets::patterns::PatternSampler;
use ius_index::{
    CountSink, IndexParams, IndexVariant, MinimizerIndex, QueryScratch, UncertainIndex, Wsa, Wst,
};
use ius_weighted::{WeightedString, ZEstimation};
use std::time::Instant;

/// Above this `n·⌊z⌋` product the WST baseline is skipped (its trie over the
/// full property text dominates build time without adding query coverage).
const WST_NZ_LIMIT: usize = 1_500_000;

/// The fewest timing rounds a run makes, whatever its `rounds`.
pub const MIN_ROUNDS: usize = 9;

/// Passes over the pattern set per family and round; the fastest counts,
/// so one interrupt does not set a round's value.
pub const PASSES_PER_ROUND: usize = 3;

/// A round slower than this multiple of the family's fastest round counts
/// as slow.
const SLOW_ROUND: f64 = 1.2;

/// Parameters of one query-benchmark run.
#[derive(Debug, Clone)]
pub struct QueryBenchConfig {
    /// Length of the generated weighted strings.
    pub n: usize,
    /// Timing rounds (raised to [`MIN_ROUNDS`]).
    pub rounds: usize,
    /// Query patterns sampled per dataset (half at ℓ, half at 2ℓ).
    pub patterns: usize,
}

impl Default for QueryBenchConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            rounds: MIN_ROUNDS,
            patterns: 400,
        }
    }
}

/// The median and quartiles of a sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Number of samples.
    pub samples: usize,
    /// First quartile (nearest rank).
    pub q1: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// Third quartile (nearest rank).
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `samples`.
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "quartiles need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self {
            samples: sorted.len(),
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            q3: percentile(&sorted, 0.75),
        }
    }

    /// Renders the quartiles as a JSON object with `decimals` fraction
    /// digits.
    pub fn json(&self, decimals: usize) -> String {
        format!(
            "{{ \"samples\": {}, \"q1\": {:.d$}, \"median\": {:.d$}, \"q3\": {:.d$} }}",
            self.samples,
            self.q1,
            self.median,
            self.q3,
            d = decimals
        )
    }
}

/// The timing of one index family on one dataset.
#[derive(Debug, Clone)]
pub struct FamilyQueryBench {
    /// Family label (`WSA`, `MWSA-G`, …).
    pub family: String,
    /// Number of patterns answered per pass.
    pub patterns: usize,
    /// Total occurrences reported over the pattern set (identical across
    /// families by assertion).
    pub occurrences: usize,
    /// Microseconds per query, one value per round.
    pub us_per_query: Quartiles,
    /// The family's round value over WSA's in the same round.
    pub ratio_to_wsa: Quartiles,
    /// Share of rounds slower than 1.2 × the family's fastest round.
    pub slow_round_share: f64,
}

/// All family timings for one dataset configuration.
#[derive(Debug, Clone)]
pub struct QueryDatasetBench {
    /// Dataset label (`uniform`, `pangenome`, …).
    pub name: String,
    /// Human-readable generator parameters.
    pub params: String,
    /// Weight threshold z.
    pub z: f64,
    /// Minimum pattern length ℓ the indexes were built for.
    pub ell: usize,
    /// Per-family results.
    pub families: Vec<FamilyQueryBench>,
}

/// Answers every pattern with `index` and returns the answers, asserting
/// they match `oracle` (the first family's answers) and that a count-only
/// sink sees the same total.
fn check_family(
    label: &str,
    index: &dyn UncertainIndex,
    x: &WeightedString,
    patterns: &[Vec<u8>],
    oracle: Option<&[Vec<usize>]>,
) -> Vec<Vec<usize>> {
    let mut scratch = QueryScratch::new();
    let outputs: Vec<Vec<usize>> = patterns
        .iter()
        .map(|p| {
            let mut out = Vec::new();
            index
                .query_into(p, x, &mut scratch, &mut out)
                .expect("query");
            out
        })
        .collect();
    if let Some(oracle) = oracle {
        assert_eq!(
            outputs, oracle,
            "{label}: outputs differ from the first family"
        );
    }
    let occurrences: usize = outputs.iter().map(Vec::len).sum();
    let counted: usize = patterns
        .iter()
        .map(|p| {
            let mut count = CountSink::new();
            index
                .query_into(p, x, &mut scratch, &mut count)
                .expect("count query");
            count.count
        })
        .sum();
    assert_eq!(counted, occurrences, "{label}: count sink vs collect sink");
    outputs
}

/// One round value of `index`: the fastest of [`PASSES_PER_ROUND`] passes
/// over `patterns`, in microseconds per query. Each pass accumulates the
/// occurrence total so the work cannot be optimised away; it must equal
/// `occurrences`.
fn time_round(
    index: &dyn UncertainIndex,
    x: &WeightedString,
    patterns: &[Vec<u8>],
    occurrences: usize,
    scratch: &mut QueryScratch,
    out: &mut Vec<usize>,
) -> f64 {
    let mut fastest = f64::INFINITY;
    for _ in 0..PASSES_PER_ROUND {
        let start = Instant::now();
        let mut total = 0usize;
        for p in patterns {
            out.clear();
            index.query_into(p, x, scratch, out).expect("query");
            total += out.len();
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / patterns.len() as f64;
        assert_eq!(total, occurrences);
        fastest = fastest.min(us);
    }
    fastest
}

/// Benchmarks one `(x, z, ℓ)` configuration across the index families.
fn bench_dataset(
    name: &str,
    params_label: String,
    x: &WeightedString,
    z: f64,
    ell: usize,
    config: &QueryBenchConfig,
) -> QueryDatasetBench {
    eprintln!(
        "[bench-query] {name} (n = {}, z = {z}, ell = {ell}, {} patterns)",
        x.len(),
        config.patterns
    );
    let est = ZEstimation::build(x, z).expect("estimation");
    let mut sampler = PatternSampler::new(&est, 0x9E41);
    let mut patterns = sampler.sample_many(ell, config.patterns / 2);
    patterns.extend(sampler.sample_many(2 * ell, config.patterns - config.patterns / 2));
    assert!(
        !patterns.is_empty(),
        "{name}: no solid patterns of length {ell} — pick a smaller ell"
    );

    let index_params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let mut families: Vec<(String, Box<dyn UncertainIndex>)> = Vec::new();
    families.push((
        "WSA".into(),
        Box::new(Wsa::build_from_estimation(&est).expect("WSA")),
    ));
    let nz = x.len() * z.floor() as usize;
    if nz <= WST_NZ_LIMIT {
        families.push((
            "WST".into(),
            Box::new(Wst::build_from_estimation(&est).expect("WST")),
        ));
    } else {
        eprintln!("  [skip] WST (n·z = {nz} exceeds the build budget)");
    }
    for variant in [
        IndexVariant::Tree,
        IndexVariant::Array,
        IndexVariant::ArrayGrid,
    ] {
        families.push((
            variant.name().into(),
            Box::new(
                MinimizerIndex::build_from_estimation(x, &est, index_params, variant)
                    .expect("minimizer index"),
            ),
        ));
    }

    // WSA comes first: its answers are the oracle and its rounds the
    // control.
    let mut oracle: Option<Vec<Vec<usize>>> = None;
    let mut occurrences = 0;
    for (label, index) in &families {
        let outputs = check_family(label, index.as_ref(), x, &patterns, oracle.as_deref());
        occurrences = outputs.iter().map(Vec::len).sum();
        oracle.get_or_insert(outputs);
    }
    let rounds = config.rounds.max(MIN_ROUNDS);
    let mut values = vec![Vec::with_capacity(rounds); families.len()];
    let (mut scratch, mut out) = (QueryScratch::new(), Vec::new());
    for round in 0..rounds {
        for k in 0..families.len() {
            let f = (round + k) % families.len();
            let us = time_round(
                families[f].1.as_ref(),
                x,
                &patterns,
                occurrences,
                &mut scratch,
                &mut out,
            );
            values[f].push(us);
        }
    }
    let wsa = &values[0];
    let results: Vec<FamilyQueryBench> = families
        .iter()
        .zip(&values)
        .map(|((label, _), rounds)| {
            let ratios: Vec<f64> = rounds.iter().zip(wsa).map(|(v, w)| v / w).collect();
            let fastest = rounds.iter().copied().fold(f64::INFINITY, f64::min);
            let slow = rounds.iter().filter(|&&v| v > SLOW_ROUND * fastest).count();
            let result = FamilyQueryBench {
                family: label.clone(),
                patterns: patterns.len(),
                occurrences,
                us_per_query: Quartiles::of(rounds),
                ratio_to_wsa: Quartiles::of(&ratios),
                slow_round_share: slow as f64 / rounds.len() as f64,
            };
            let (s, r) = (result.us_per_query, result.ratio_to_wsa);
            eprintln!(
                "  {label:<8} median {:>8.3} us/query [{:.3}, {:.3}]  ratio to WSA {:.3} [{:.3}, {:.3}]  \
                 slow rounds {:.2}",
                s.median, s.q1, s.q3, r.median, r.q1, r.q3, result.slow_round_share
            );
            result
        })
        .collect();
    QueryDatasetBench {
        name: name.to_string(),
        params: params_label,
        z,
        ell,
        families: results,
    }
}

/// Runs the query benchmark on the four canonical benchmark corpora
/// (`ius_datasets::corpora` — the shared definition also behind the
/// construction/space benches and the `serve` presets).
pub fn run_query_bench(config: &QueryBenchConfig) -> Vec<QueryDatasetBench> {
    bench_corpora(config.n)
        .into_iter()
        .map(|corpus| {
            bench_dataset(
                corpus.name,
                corpus.params,
                &corpus.x,
                corpus.z,
                corpus.ell,
                config,
            )
        })
        .collect()
}

/// Renders the benchmark results as the `BENCH_query.json` document.
pub fn render_query_json(config: &QueryBenchConfig, results: &[QueryDatasetBench]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"n\": {}, \"patterns_per_dataset\": {}, \"rounds\": {}, \"passes_per_round\": {}, {},\n",
        config.n,
        config.patterns,
        config.rounds.max(MIN_ROUNDS),
        PASSES_PER_ROUND,
        crate::report::json_host_fields(&[1])
    ));
    out.push_str(
        "  \"note\": \"Microseconds per query of the serving engine (query_into with one reused \
         QueryScratch and a reused output vector, one thread). Every family's answers are \
         asserted identical to the first family's (WSA's), pattern by pattern, and a count-only \
         sink must see the same totals, before timing. Timing runs in rounds in one process; \
         each round times every family once, in an order rotating from round to round, and a \
         family's round value is its fastest of passes_per_round passes over the pattern set. \
         us_per_query gives the quartiles of the round values; ratio_to_wsa those of the \
         family's round value over WSA's in the same round (WSA is the control: no minimizer \
         change touches its query path, so a host mode flip that slows both in one round \
         cancels); slow_round_share is the share of rounds more than 1.2 x the family's fastest \
         (for WSA, the mode flips seen). A change to a family's query time is judged by its \
         median ratio_to_wsa, parent against change, and counts only if it moves by more than \
         the parent's IQR. The ratio does not cancel every host mode flip: one that slows the \
         families unevenly moves a median ratio between runs by more than the IQR of either \
         run, and widens the IQR past 10% when it comes mid-run, so take several runs per side \
         and cite each.\",\n",
    );
    out.push_str("  \"datasets\": [\n");
    for (i, d) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", d.name));
        out.push_str(&format!("      \"params\": \"{}\",\n", d.params));
        out.push_str(&format!("      \"z\": {}, \"ell\": {},\n", d.z, d.ell));
        out.push_str("      \"families\": [\n");
        for (j, f) in d.families.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"family\": \"{}\", \"patterns\": {}, \"occurrences\": {}, \
                 \"us_per_query\": {}, \"ratio_to_wsa\": {}, \"slow_round_share\": {:.3} }}{}\n",
                f.family,
                f.patterns,
                f.occurrences,
                f.us_per_query.json(3),
                f.ratio_to_wsa.json(3),
                f.slow_round_share,
                if j + 1 == d.families.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_asserts_identical_outputs_and_renders_json() {
        // A tiny end-to-end run: the assertions inside the bench are the
        // test; the JSON must contain every family row, each timed in at
        // least the minimum number of rounds, WSA's ratio to itself 1.
        let config = QueryBenchConfig {
            n: 2_000,
            rounds: 2,
            patterns: 12,
        };
        let results = run_query_bench(&config);
        assert_eq!(results.len(), 4);
        let json = render_query_json(&config, &results);
        for d in &results {
            assert_eq!(d.families[0].family, "WSA");
            assert_eq!(d.families[0].ratio_to_wsa.median, 1.0);
            for f in &d.families {
                assert!(json.contains(&format!("\"family\": \"{}\"", f.family)));
                let s = f.us_per_query;
                assert_eq!(s.samples, MIN_ROUNDS);
                assert!(s.q1 > 0.0 && s.q1 <= s.median && s.median <= s.q3);
                assert_eq!(f.ratio_to_wsa.samples, MIN_ROUNDS);
                assert!((0.0..=1.0).contains(&f.slow_round_share));
            }
        }
    }

    #[test]
    fn quartiles_take_nearest_ranks() {
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.samples, q.q1, q.median, q.q3), (5, 2.0, 3.0, 4.0));
    }
}
