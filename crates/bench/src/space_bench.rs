//! The index-lifecycle space benchmark behind `reproduce --bench-space` and
//! `BENCH_space.json`.
//!
//! The paper sells its indexes on *space*; this benchmark makes the byte
//! footprint a first-class measured artifact alongside the construction and
//! query timings. Per family it reports the in-memory footprint
//! (`size_bytes()`, cross-checked against the counting allocator by
//! `tests/size_accounting.rs`), the serialized file size, the save and
//! arena-open wall times over in-memory buffers, and the load-vs-rebuild
//! speedup — opening never re-runs construction (no z-estimation, no suffix
//! sorting, no tree merging), so it beats a rebuild by orders of magnitude
//! and makes build-once / serve-many deployments practical. Segmented
//! (partitioned) indexes are `ius_live::LiveIndex`es, measured by the
//! update benchmark (`BENCH_update.json`).
//!
//! Correctness is asserted before any number is trusted: every opened index
//! must answer the pattern set exactly like the index it was saved from (and
//! re-save byte-identically).

use ius_arena::Arena;
use ius_datasets::corpora::bench_corpus;
use ius_datasets::patterns::PatternSampler;
use ius_index::{
    open_index, save_index_with, AnyIndex, IndexFamily, IndexParams, IndexSpec, IndexVariant,
    QueryScratch, SaveOptions, UncertainIndex,
};
use ius_weighted::{WeightedString, ZEstimation};
use std::time::Instant;

/// Above this `n·⌊z⌋` product the WST baseline is skipped (same budget rule
/// as the query benchmark).
const WST_NZ_LIMIT: usize = 1_500_000;

/// Parameters of one space-benchmark run.
#[derive(Debug, Clone)]
pub struct SpaceBenchConfig {
    /// Length of the generated weighted strings.
    pub n: usize,
    /// Repetitions per timed side (the minimum is reported).
    pub reps: usize,
    /// Query patterns per dataset (half at ℓ, half at 2ℓ).
    pub patterns: usize,
}

impl Default for SpaceBenchConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            reps: 3,
            patterns: 200,
        }
    }
}

/// Footprint and save/open timings of one family on one dataset.
#[derive(Debug, Clone)]
pub struct FamilySpaceBench {
    /// Family label (`WSA`, `MWSA-G`, …).
    pub family: String,
    /// In-memory footprint reported by `size_bytes()`.
    pub size_bytes: usize,
    /// Length of the serialized v3 representation (raw sections).
    pub file_bytes: usize,
    /// Length of the v3 representation with bit-packed `u32` sections
    /// (`SaveOptions { pack_u32: true }`; ≤ `file_bytes` — the writer keeps
    /// a section raw when packing would not shrink it).
    pub file_bytes_packed: usize,
    /// Milliseconds to serialize (one buffered `write_all`).
    pub save_ms: f64,
    /// Milliseconds to **open** the bytes through the zero-copy arena path
    /// (the one read path): CRC pass + O(sections) validation + view
    /// carving out of a resident arena, no element decoding.
    pub open_ms: f64,
    /// Bytes of the arena covered by the opened index's typed views after
    /// the first query — the data a query can touch, as opposed to the
    /// whole decoded structure (the open itself streams the file once for
    /// the CRC, but materialises nothing).
    pub bytes_touched_at_first_query: usize,
    /// Milliseconds of a from-scratch rebuild (including the z-estimation
    /// where the family needs one).
    pub rebuild_ms: f64,
}

impl FamilySpaceBench {
    /// `rebuild / open`: how much faster loading is than rebuilding.
    pub fn load_speedup(&self) -> f64 {
        self.rebuild_ms / self.open_ms
    }
}

/// All space measurements for one dataset configuration.
#[derive(Debug, Clone)]
pub struct SpaceDatasetBench {
    /// Dataset label (`uniform`, `pangenome`, `rssi`).
    pub name: String,
    /// Human-readable generator parameters.
    pub params: String,
    /// Weight threshold z.
    pub z: f64,
    /// Minimum pattern length ℓ the indexes were built for.
    pub ell: usize,
    /// Per-family footprint and persistence timings.
    pub families: Vec<FamilySpaceBench>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        best = best.min(ms(t));
        out = Some(v);
    }
    (out.expect("at least one rep"), best)
}

/// Measures one family: footprint, serialized size, save/open/rebuild times,
/// with the opened index asserted identical before timing is trusted.
fn bench_family(
    spec: IndexSpec,
    x: &WeightedString,
    estimation: &ZEstimation,
    patterns: &[Vec<u8>],
    config: &SpaceBenchConfig,
) -> FamilySpaceBench {
    let label = spec.family.name();
    let index = spec.build_with_estimation(x, estimation).expect("build");

    // Serialize once for the correctness checks: the opened index re-saves
    // byte-identically, accounts its arena, and answers like the build —
    // and so does the bit-packed encoding.
    let mut bytes = Vec::new();
    index.save_to(&mut bytes).expect("save");
    let arena = Arena::from_bytes(&bytes);
    let opened = open_index(&arena).expect("arena open");
    let mut resaved = Vec::new();
    opened.save_to(&mut resaved).expect("re-save");
    assert_eq!(bytes, resaved, "{label}: re-save not byte-identical");
    assert!(
        opened.size_bytes() >= bytes.len(),
        "{label}: opened index does not account its arena"
    );
    let mut packed = Vec::new();
    save_index_with(&index, &mut packed, SaveOptions { pack_u32: true }).expect("save packed");
    let packed_opened = open_index(&Arena::from_bytes(&packed)).expect("open packed");
    let mut scratch = QueryScratch::new();
    for pattern in patterns {
        let mut expect = Vec::new();
        index
            .query_into(pattern, x, &mut scratch, &mut expect)
            .expect("query");
        for (path, other) in [("open", &opened), ("packed open", &packed_opened)] {
            let mut got = Vec::new();
            other
                .query_into(pattern, x, &mut scratch, &mut got)
                .expect("query");
            assert_eq!(expect, got, "{label}: {path} answers differently");
        }
    }
    // Views attribute at creation, so after the open + first query the
    // attribution is exactly the data a query can dereference.
    let bytes_touched_at_first_query = arena.attributed_bytes();
    drop((opened, packed_opened, arena));

    let mut buf = Vec::with_capacity(bytes.len());
    let (_, save_ms) = time_min(config.reps, || {
        buf.clear();
        index.save_to(&mut buf).expect("save");
        buf.len()
    });
    // The open path from a resident arena: CRC pass, section validation,
    // view carving — no element decoding. The one file read is excluded
    // (this is also exactly the server's hot-reload cost — its arena is
    // already read in).
    let open_arena = Arena::from_bytes(&bytes);
    let (opened, open_ms) = time_min(config.reps, || open_index(&open_arena).expect("open"));
    drop::<AnyIndex>(opened);
    drop(open_arena);
    // The rebuild side runs the full from-scratch construction, including
    // the z-estimation for the families that need it — the cost a serving
    // process pays when it cannot load.
    let (rebuilt, rebuild_ms) = time_min(config.reps, || spec.build(x).expect("rebuild"));
    assert_eq!(rebuilt.size_bytes(), index.size_bytes());

    let result = FamilySpaceBench {
        family: label.to_string(),
        size_bytes: index.size_bytes(),
        file_bytes: bytes.len(),
        file_bytes_packed: packed.len(),
        save_ms,
        open_ms,
        bytes_touched_at_first_query,
        rebuild_ms,
    };
    eprintln!(
        "  {label:<8} size {:>8.2} MB  file {:>8.2} MB (packed {:>6.2} MB)  save {:>6.1} ms  \
         open {:>6.2} ms  rebuild {:>8.1} ms  ({:.1}x)",
        result.size_bytes as f64 / 1e6,
        result.file_bytes as f64 / 1e6,
        result.file_bytes_packed as f64 / 1e6,
        result.save_ms,
        result.open_ms,
        result.rebuild_ms,
        result.load_speedup(),
    );
    result
}

/// Benchmarks one `(x, z, ℓ)` configuration: per-family footprint and
/// persistence.
fn bench_dataset(
    name: &str,
    params_label: String,
    x: &WeightedString,
    z: f64,
    ell: usize,
    config: &SpaceBenchConfig,
) -> SpaceDatasetBench {
    eprintln!(
        "[bench-space] {name} (n = {}, z = {z}, ell = {ell}, {} patterns)",
        x.len(),
        config.patterns
    );
    let estimation = ZEstimation::build(x, z).expect("estimation");
    let mut sampler = PatternSampler::new(&estimation, 0x5ACE);
    let mut patterns = sampler.sample_many(ell, config.patterns / 2);
    patterns.extend(sampler.sample_many(2 * ell, config.patterns - config.patterns / 2));
    assert!(
        !patterns.is_empty(),
        "{name}: no solid patterns of length {ell} — pick a smaller ell"
    );

    let index_params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let mut families_to_run = vec![IndexFamily::Wsa];
    let nz = x.len() * z.floor() as usize;
    if nz <= WST_NZ_LIMIT {
        families_to_run.push(IndexFamily::Wst);
    } else {
        eprintln!("  [skip] WST (n·z = {nz} exceeds the build budget)");
    }
    families_to_run.extend([
        IndexFamily::Minimizer(IndexVariant::Tree),
        IndexFamily::Minimizer(IndexVariant::Array),
        IndexFamily::Minimizer(IndexVariant::TreeGrid),
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
    ]);
    let families: Vec<FamilySpaceBench> = families_to_run
        .into_iter()
        .map(|family| {
            bench_family(
                IndexSpec::new(family, index_params),
                x,
                &estimation,
                &patterns,
                config,
            )
        })
        .collect();

    SpaceDatasetBench {
        name: name.to_string(),
        params: params_label,
        z,
        ell,
        families,
    }
}

/// Runs the full space benchmark on the uniform, pangenome and RSSI
/// corpora (three of the four canonical benchmark corpora of
/// `ius_datasets::corpora`; the high-entropy uniform corpus adds no
/// lifecycle coverage).
pub fn run_space_bench(config: &SpaceBenchConfig) -> Vec<SpaceDatasetBench> {
    ["uniform", "pangenome", "rssi"]
        .into_iter()
        .map(|name| {
            let corpus = bench_corpus(name, config.n, None).expect("known corpus name");
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

/// Renders the benchmark results as the `BENCH_space.json` document.
pub fn render_space_json(config: &SpaceBenchConfig, results: &[SpaceDatasetBench]) -> String {
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
        "  \"note\": \"size_bytes = in-memory footprint reported by the index (cross-checked \
         against the counting allocator in tests/size_accounting.rs); file_bytes = serialized \
         size of the v3 format (raw sections) and file_bytes_packed with bit-packed u32 \
         sections; save_ms and open_ms are timed over in-memory buffers and rebuild runs the \
         full from-scratch construction including the z-estimation where the family needs it \
         (minimum over the same repetition count on every side). Loading never re-runs \
         construction. open_ms times the one read path, the zero-copy arena open: CRC pass + \
         section validation + view carving out of a resident arena, no element decode, the one \
         file read excluded; load_speedup = rebuild_ms / open_ms. \
         bytes_touched_at_first_query = arena bytes covered by the opened index's typed views. \
         Before timing, every opened index is asserted byte-identical on re-save and \
         answer-identical on the pattern set (raw and packed alike). Segmented indexes are \
         live indexes, measured in BENCH_update.json.\",\n",
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
                "        {{ \"family\": \"{}\", \"size_bytes\": {}, \"file_bytes\": {}, \
                 \"file_bytes_packed\": {}, \"save_ms\": {:.2}, \"open_ms\": {:.3}, \
                 \"bytes_touched_at_first_query\": {}, \"rebuild_ms\": {:.2}, \
                 \"load_speedup\": {:.2}, \"loaded_outputs_identical\": true }}{}\n",
                f.family,
                f.size_bytes,
                f.file_bytes,
                f.file_bytes_packed,
                f.save_ms,
                f.open_ms,
                f.bytes_touched_at_first_query,
                f.rebuild_ms,
                f.load_speedup(),
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
    fn smoke_run_asserts_round_trips_and_renders_json() {
        // A tiny end-to-end run; the assertions inside bench_family are the
        // real test.
        let config = SpaceBenchConfig {
            n: 3_000,
            reps: 1,
            patterns: 10,
        };
        let results = run_space_bench(&config);
        assert_eq!(results.len(), 3);
        let json = render_space_json(&config, &results);
        assert!(json.contains("\"host_cpus\":"));
        assert!(json.contains("\"threads\": [1]"));
        for d in &results {
            assert!(!d.families.is_empty());
            for f in &d.families {
                assert!(json.contains(&format!("\"family\": \"{}\"", f.family)));
                assert!(f.size_bytes > 0 && f.file_bytes > 0);
                assert!(f.save_ms >= 0.0 && f.open_ms > 0.0 && f.rebuild_ms > 0.0);
                assert!(
                    f.file_bytes_packed <= f.file_bytes,
                    "{}: packing must never grow the file",
                    f.family
                );
                assert!(
                    f.bytes_touched_at_first_query > 0
                        && f.bytes_touched_at_first_query <= f.file_bytes,
                    "{}: view attribution out of range",
                    f.family
                );
            }
            assert!(json.contains("\"open_ms\":"));
            assert!(json.contains("\"page_size\":"));
        }
    }
}
