//! The construction-pipeline benchmark behind `reproduce --bench-construction`
//! and `BENCH_construction.json`.
//!
//! Every row is an absolute wall-clock [`Summary`] (sample count plus
//! min/median/max over the repetitions, in milliseconds) of one layer of the
//! serial build: the z-estimation, the suffix array and the minimizer scan
//! over the heavy string, the explicit MWSA build from the shared
//! estimation, and the end-to-end pipeline (z-estimation + index build,
//! summed per repetition). Before any timing is trusted, each layer's output
//! is checked against its oracle: the z-estimation contract for short
//! factors, and the naive suffix array and the brute-force minimizers on a
//! prefix of the heavy string.

use crate::report::{time_reps, Summary};
use ius_datasets::corpora::bench_corpus;
use ius_index::{IndexParams, IndexVariant, MinimizerIndex};
use ius_sampling::{KmerOrder, MinimizerScheme};
use ius_text::sa::{suffix_array, suffix_array_naive};
use ius_weighted::{HeavyString, WeightedString, ZEstimation};

/// Letters of the heavy string the quadratic oracles (naive suffix array,
/// brute-force minimizers) are checked on.
const ORACLE_PREFIX: usize = 4_000;

/// Parameters of one benchmarked configuration.
#[derive(Debug, Clone)]
pub struct ConstructionBenchConfig {
    /// Length of the generated weighted strings.
    pub n: usize,
    /// Repetitions per stage.
    pub reps: usize,
}

impl Default for ConstructionBenchConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            reps: 3,
        }
    }
}

/// All stage timings for one dataset configuration, in milliseconds.
#[derive(Debug, Clone)]
pub struct DatasetBench {
    /// Dataset label (`uniform`, `pangenome`, …).
    pub name: String,
    /// Human-readable generator parameters.
    pub params: String,
    /// Weight threshold z.
    pub z: f64,
    /// Minimum pattern length ℓ.
    pub ell: usize,
    /// Sampled minimizer factors of the built index.
    pub factors: usize,
    /// z-estimation.
    pub z_estimation: Summary,
    /// SA-IS suffix array over the heavy string (an ingredient of the factor
    /// sort's LCE index).
    pub suffix_array: Summary,
    /// Monotone-deque minimizer scan over the heavy string (the index build
    /// scans every strand the same way).
    pub minimizer_scan: Summary,
    /// Explicit MWSA build from the shared estimation.
    pub index_build: Summary,
    /// End-to-end construction: z-estimation + index build.
    pub pipeline: Summary,
}

/// Benchmarks one `(x, z, ℓ)` configuration.
fn bench_dataset(
    name: &str,
    params: String,
    x: &WeightedString,
    z: f64,
    ell: usize,
    reps: usize,
) -> DatasetBench {
    eprintln!(
        "[bench-construction] {name} (n = {}, z = {z}, ell = {ell})",
        x.len()
    );

    let (est, z_ms) = time_reps(reps, || ZEstimation::build(x, z).expect("estimation"));
    let prefix = x.substring(0, x.len().min(200)).expect("prefix");
    ZEstimation::build(&prefix, z)
        .expect("prefix estimation")
        .verify_contract(&prefix, 3)
        .unwrap_or_else(|e| panic!("z-estimation contract on {name}: {e}"));

    let heavy = HeavyString::new(x);
    let ranks = heavy.as_ranks();
    let oracle_text = &ranks[..ranks.len().min(ORACLE_PREFIX)];
    let (_, sa_ms) = time_reps(reps, || suffix_array(ranks));
    assert_eq!(
        suffix_array(oracle_text),
        suffix_array_naive(oracle_text),
        "suffix array vs naive on {name}"
    );

    let scheme = MinimizerScheme::new(
        ell,
        ius_sampling::recommended_k(ell, x.sigma()),
        x.sigma(),
        KmerOrder::default(),
    );
    let (_, scan_ms) = time_reps(reps, || scheme.minimizers(ranks));
    assert_eq!(
        scheme.minimizers(oracle_text),
        scheme.minimizers_bruteforce(oracle_text),
        "minimizer scan vs brute force on {name}"
    );

    let params_idx = IndexParams::new(z, ell, x.sigma()).expect("params");
    let (index, build_ms) = time_reps(reps, || {
        MinimizerIndex::build_from_estimation(x, &est, params_idx, IndexVariant::Array)
            .expect("build")
    });
    let factors = index.num_sampled_factors();
    let pipeline_ms: Vec<f64> = z_ms.iter().zip(&build_ms).map(|(a, b)| a + b).collect();

    let result = DatasetBench {
        name: name.to_string(),
        params,
        z,
        ell,
        factors,
        z_estimation: Summary::of(&z_ms),
        suffix_array: Summary::of(&sa_ms),
        minimizer_scan: Summary::of(&scan_ms),
        index_build: Summary::of(&build_ms),
        pipeline: Summary::of(&pipeline_ms),
    };
    for (label, s) in [
        ("z-estimation", result.z_estimation),
        ("suffix-array", result.suffix_array),
        ("minimizer-scan", result.minimizer_scan),
        ("index-build", result.index_build),
        ("pipeline", result.pipeline),
    ] {
        eprintln!(
            "  {label:<16} median {:9.1} ms  [{:.1}, {:.1}]",
            s.median, s.min, s.max
        );
    }
    result
}

/// Runs the construction benchmark on the canonical corpora.
pub fn run_construction_bench(config: &ConstructionBenchConfig) -> Vec<DatasetBench> {
    // The corpora come from the canonical shared definition
    // (`ius_datasets::corpora`); z and ell stay per-bench parameters — the
    // high-entropy corpus is deliberately measured at ell = 128 here
    // (short solid windows, the estimation dominates) instead of its
    // query-regime ell = 24.
    ["uniform", "uniform_high_entropy", "pangenome", "rssi"]
        .into_iter()
        .map(|name| {
            let corpus = bench_corpus(name, config.n, None).expect("known corpus name");
            let ell = if name == "uniform_high_entropy" {
                128
            } else {
                corpus.ell
            };
            bench_dataset(
                corpus.name,
                corpus.params.clone(),
                &corpus.x,
                corpus.z,
                ell,
                config.reps,
            )
        })
        .collect()
}

/// Renders the benchmark results as the `BENCH_construction.json` document.
pub fn render_json(config: &ConstructionBenchConfig, results: &[DatasetBench]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"n\": {}, \"reps\": {}, {},\n",
        config.n,
        config.reps,
        crate::report::json_host_fields(&[1])
    ));
    out.push_str(
        "  \"note\": \"Absolute wall-clock milliseconds of the serial construction, one \
         summary per layer (samples, min, median, max over the repetitions). \
         construction_pipeline_ms sums z_estimation_ms and index_build_ms per repetition; \
         suffix_array_ms and minimizer_scan_ms time one pass over the heavy string and are \
         informational. Outputs are checked against their oracles before timing: the \
         z-estimation contract, the naive suffix array and the brute-force minimizers on a \
         prefix.\",\n",
    );
    out.push_str("  \"datasets\": [\n");
    for (i, d) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", d.name));
        out.push_str(&format!("      \"params\": \"{}\",\n", d.params));
        out.push_str(&format!(
            "      \"z\": {}, \"ell\": {}, \"factors\": {},\n",
            d.z, d.ell, d.factors
        ));
        let stages = [
            ("z_estimation_ms", &d.z_estimation),
            ("suffix_array_ms", &d.suffix_array),
            ("minimizer_scan_ms", &d.minimizer_scan),
            ("index_build_ms", &d.index_build),
            ("construction_pipeline_ms", &d.pipeline),
        ];
        for (j, (name, s)) in stages.iter().enumerate() {
            out.push_str(&format!(
                "      \"{name}\": {}{}\n",
                s.json(2),
                if j + 1 == stages.len() { "" } else { "," }
            ));
        }
        out.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
