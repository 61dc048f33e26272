//! Side-by-side comparison of every index on one dataset: size, construction
//! time, construction space (peak heap) and average query time — a miniature,
//! human-readable version of the paper's evaluation (the full reproduction
//! lives in `crates/bench`).
//!
//! Run with `cargo run --release --example index_comparison -- [ell]`.

use ius::prelude::*;
use ius_memtrack::measure;
use std::time::Instant;

fn main() {
    let ell: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let dataset = ius::datasets::registry::sars_star(Scale::Tiny);
    let x = dataset.weighted.clone();
    let z = 128.0;
    println!(
        "dataset {} (n = {}, σ = {}, Δ = {:.1}%), z = {z}, ℓ = {ell}",
        dataset.name,
        x.len(),
        x.sigma(),
        dataset.delta_percent()
    );

    let est = ZEstimation::build(&x, z).expect("z-estimation");
    let params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let mut sampler = PatternSampler::new(&est, 2024);
    let patterns = sampler.sample_many(ell, 200);
    println!("{} query patterns of length {ell}\n", patterns.len());

    println!(
        "{:<8} {:>12} {:>14} {:>16} {:>14} {:>12}",
        "index", "size (KB)", "build (ms)", "peak heap (KB)", "query (µs)", "occ total"
    );
    let naive = NaiveIndex::new(z).unwrap();
    let mut expected_total = 0usize;
    for p in &patterns {
        expected_total += naive.query(p, &x).unwrap().len();
    }
    for family in IndexFamily::all() {
        let name = family.name();
        let spec = IndexSpec::new(family, params);
        let start = Instant::now();
        let (index, mem) = measure(|| spec.build_with_estimation(&x, &est).expect(name));
        let build_time = start.elapsed();
        let t = Instant::now();
        let mut total = 0usize;
        for p in &patterns {
            total += index.query(p, &x).expect("query").len();
        }
        let per_query = t.elapsed().as_micros() as f64 / patterns.len().max(1) as f64;
        assert_eq!(
            total, expected_total,
            "{name} disagrees with the naive matcher"
        );
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>16.1} {:>14.2} {:>12}",
            name,
            index.size_bytes() as f64 / 1e3,
            build_time.as_secs_f64() * 1e3,
            mem.peak_bytes as f64 / 1e3,
            per_query,
            total
        );
    }
    println!("\n(peak heap is 0 unless the binary installs ius_memtrack::CountingAllocator as its global allocator; the `reproduce` benchmark binary does.)");
}
