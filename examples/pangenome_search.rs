//! Pangenome read-mapping scenario: index a collection of closely related
//! genomes represented as one uncertain string (reference + allele
//! frequencies) and map sequencing reads onto it.
//!
//! This mirrors the paper's motivating bioinformatics application: the
//! pattern lower bound ℓ corresponds to the read length, so the minimizer
//! index can be orders of magnitude smaller than the classic weighted suffix
//! array while answering the same queries.
//!
//! Run with `cargo run --release --example pangenome_search`.

use ius::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Simulates sequencing reads: solid factors of the uncertain string with a
/// few per-read errors injected at a configurable rate.
fn simulate_reads(
    est: &ZEstimation,
    read_len: usize,
    count: usize,
    error_rate: f64,
    sigma: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    let mut sampler = PatternSampler::new(est, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut reads = sampler.sample_many(read_len, count);
    for read in reads.iter_mut() {
        for slot in read.iter_mut() {
            if rng.gen_bool(error_rate) {
                *slot = rng.gen_range(0..sigma as u8);
            }
        }
    }
    reads
}

fn main() {
    // An E. faecium-like pangenome stand-in (Δ ≈ 6 %).
    let dataset = ius::datasets::registry::efm_star(Scale::Tiny);
    let x = &dataset.weighted;
    let z = 64.0;
    let read_len = 128usize; // ℓ: the shortest read we promise to support.
    println!(
        "pangenome: n = {}, sigma = {}, Δ = {:.1}%, z = {z}, read length ≥ {read_len}",
        x.len(),
        x.sigma(),
        dataset.delta_percent()
    );

    let t0 = Instant::now();
    let est = ZEstimation::build(x, z).expect("z-estimation");
    println!(
        "z-estimation: {} strands, {:.1} MB, built in {:.2?}",
        est.num_strands(),
        est.memory_bytes() as f64 / 1e6,
        t0.elapsed()
    );

    // The practical pipeline recommended by the paper (Section 7.4):
    // construct space-efficiently, query the array variant.
    let params = IndexParams::new(z, read_len, x.sigma()).expect("params");
    let t1 = Instant::now();
    let index = SpaceEfficientBuilder::new(params)
        .build(x, SeVariant::Array)
        .expect("space-efficient construction");
    println!(
        "{}: {:.1} MB, {} sampled factors, built in {:.2?}",
        IndexFamily::SpaceEfficient(SeVariant::Array).name(),
        index.size_bytes() as f64 / 1e6,
        index.num_sampled_factors(),
        t1.elapsed()
    );

    // The baseline for comparison.
    let t2 = Instant::now();
    let wsa = Wsa::build_from_estimation(&est).expect("WSA");
    println!(
        "WSA baseline:     {:.1} MB, built in {:.2?} (plus the z-estimation above)",
        wsa.size_bytes() as f64 / 1e6,
        t2.elapsed()
    );

    // Map perfect reads and noisy reads.
    for (label, error_rate) in [("error-free", 0.0), ("0.2% errors", 0.002)] {
        let reads = simulate_reads(&est, read_len, 200, error_rate, x.sigma(), 99);
        let t = Instant::now();
        let mut mapped = 0usize;
        let mut total_hits = 0usize;
        for read in &reads {
            let hits = index.query(read, x).expect("query");
            let baseline = wsa.query(read, x).expect("baseline query");
            assert_eq!(hits, baseline, "index and baseline disagree");
            if !hits.is_empty() {
                mapped += 1;
                total_hits += hits.len();
            }
        }
        println!(
            "{label}: mapped {mapped}/{} reads ({total_hits} solid occurrences) in {:.2?} \
             ({:.1} µs/read)",
            reads.len(),
            t.elapsed(),
            t.elapsed().as_micros() as f64 / reads.len() as f64 / 2.0,
        );
    }
    println!(
        "index/baseline size ratio: {:.1}×",
        wsa.size_bytes() as f64 / index.size_bytes() as f64
    );
}
