//! The query-path benchmark behind `reproduce --bench-query` and
//! `BENCH_query.json`.
//!
//! Each row times one index family answering a sampled pattern set through
//! the serving engine, `query_into` with one reused [`QueryScratch`] and a
//! reused output vector, and reports the absolute microseconds per query as
//! a [`Summary`] over the repetitions (sample count plus min/median/max).
//! Before any timing is trusted, every family's answers are asserted
//! identical, pattern by pattern, to the first family's, and a count-only
//! sink must see the same totals.

use crate::report::{time_reps, Summary};
use ius_datasets::corpora::bench_corpora;
use ius_datasets::patterns::PatternSampler;
use ius_index::{
    CountSink, IndexParams, IndexVariant, MinimizerIndex, QueryScratch, UncertainIndex, Wsa, Wst,
};
use ius_weighted::{WeightedString, ZEstimation};

/// Above this `n·⌊z⌋` product the WST baseline is skipped (its trie over the
/// full property text dominates build time without adding query coverage).
const WST_NZ_LIMIT: usize = 1_500_000;

/// Parameters of one query-benchmark run.
#[derive(Debug, Clone)]
pub struct QueryBenchConfig {
    /// Length of the generated weighted strings.
    pub n: usize,
    /// Timed passes over the pattern set.
    pub reps: usize,
    /// Query patterns sampled per dataset (half at ℓ, half at 2ℓ).
    pub patterns: usize,
}

impl Default for QueryBenchConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            reps: 3,
            patterns: 400,
        }
    }
}

/// The timing of one index family on one dataset.
#[derive(Debug, Clone)]
pub struct FamilyQueryBench {
    /// Family label (`WSA`, `MWSA-G`, …).
    pub family: String,
    /// Number of patterns answered per repetition.
    pub patterns: usize,
    /// Total occurrences reported over the pattern set (identical across
    /// families by assertion).
    pub occurrences: usize,
    /// Microseconds per query of `query_into` with a reused scratch.
    pub us_per_query: Summary,
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

/// Benchmarks one family over one pattern set, asserting its answers match
/// `oracle` (the first family's answers) before timing it.
fn bench_family(
    label: &str,
    index: &dyn UncertainIndex,
    x: &WeightedString,
    patterns: &[Vec<u8>],
    oracle: Option<&[Vec<usize>]>,
    reps: usize,
) -> (FamilyQueryBench, Vec<Vec<usize>>) {
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

    // Each pass accumulates the occurrence total so the work cannot be
    // optimised away; the total must match the asserted outputs.
    let mut out: Vec<usize> = Vec::new();
    let (total, pass_ms) = time_reps(reps, || {
        let mut total = 0usize;
        for p in patterns {
            out.clear();
            index
                .query_into(p, x, &mut scratch, &mut out)
                .expect("query");
            total += out.len();
        }
        total
    });
    assert_eq!(total, occurrences);

    let result = FamilyQueryBench {
        family: label.to_string(),
        patterns: patterns.len(),
        occurrences,
        us_per_query: Summary::of(&pass_ms).scaled(1e3 / patterns.len() as f64),
    };
    let s = result.us_per_query;
    eprintln!(
        "  {label:<8} median {:>8.3} us/query  [{:.3}, {:.3}]",
        s.median, s.min, s.max
    );
    (result, outputs)
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

    let mut results = Vec::new();
    let mut oracle: Option<Vec<Vec<usize>>> = None;
    for (label, index) in &families {
        let (result, outputs) = bench_family(
            label,
            index.as_ref(),
            x,
            &patterns,
            oracle.as_deref(),
            config.reps,
        );
        oracle.get_or_insert(outputs);
        results.push(result);
    }
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
        "  \"n\": {}, \"patterns_per_dataset\": {}, \"reps\": {}, {},\n",
        config.n,
        config.patterns,
        config.reps,
        crate::report::json_host_fields(&[1])
    ));
    out.push_str(
        "  \"note\": \"Absolute microseconds per query of the serving engine (query_into with \
         one reused QueryScratch and a reused output vector, one thread), summarised over the \
         timed passes (samples, min, median, max). Every family's answers are asserted \
         identical to the first family's, pattern by pattern, and a count-only sink must see \
         the same totals, before timing.\",\n",
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
                 \"us_per_query\": {} }}{}\n",
                f.family,
                f.patterns,
                f.occurrences,
                f.us_per_query.json(3),
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
        // A tiny end-to-end run: the assertions inside bench_family are the
        // test; the JSON must contain every family row.
        let config = QueryBenchConfig {
            n: 2_000,
            reps: 2,
            patterns: 12,
        };
        let results = run_query_bench(&config);
        assert_eq!(results.len(), 4);
        let json = render_query_json(&config, &results);
        for d in &results {
            assert!(!d.families.is_empty());
            for f in &d.families {
                assert!(json.contains(&format!("\"family\": \"{}\"", f.family)));
                let s = f.us_per_query;
                assert_eq!(s.samples, 2);
                assert!(s.min > 0.0 && s.min <= s.median && s.median <= s.max);
            }
        }
    }
}
