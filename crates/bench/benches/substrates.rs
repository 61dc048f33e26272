//! Micro-benchmarks of the substrate data structures every index is built on:
//! suffix arrays, LCP/LCE, minimizer scans, the 2D grid and the heavy string.

use criterion::{criterion_group, criterion_main, Criterion};
use ius_grid::{RangeReporter, Rect};
use ius_sampling::{KmerOrder, MinimizerScheme};
use ius_text::lce::LceIndex;
use ius_text::sa::suffix_array;
use ius_weighted::HeavyString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn substrate_benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let text: Vec<u8> = (0..200_000).map(|_| rng.gen_range(0..4u8)).collect();

    let mut group = c.benchmark_group("substrates");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(6));

    group.bench_function("suffix_array/200k-dna", |b| b.iter(|| suffix_array(&text)));

    group.bench_function("lce_index/200k-dna", |b| b.iter(|| LceIndex::new(&text)));

    let lce = LceIndex::new(&text);
    group.bench_function("lce_query/200k-dna", |b| {
        let mut i = 1usize;
        b.iter(|| {
            i = (i * 48_271) % text.len();
            let j = (i * 16_807) % text.len();
            lce.lce(i, j)
        })
    });

    for (label, order) in [
        ("kr", KmerOrder::default()),
        ("lex", KmerOrder::Lexicographic),
    ] {
        let scheme = MinimizerScheme::new(256, 6, 4, order);
        group.bench_function(format!("minimizers/200k-dna/ell=256/{label}"), |b| {
            b.iter(|| scheme.minimizers(&text))
        });
    }

    // 2D grid: build and query at the scale of a minimizer index.
    let mut ys: Vec<u32> = (0..100_000u32).collect();
    for i in (1..ys.len()).rev() {
        let j = rng.gen_range(0..=i);
        ys.swap(i, j);
    }
    group.bench_function("grid_build/100k-points", |b| {
        b.iter(|| RangeReporter::new(ys.clone()))
    });
    let grid = RangeReporter::new(ys);
    group.bench_function("grid_query/100k-points", |b| {
        let mut q = 0u32;
        b.iter(|| {
            q = (q + 9973) % 90_000;
            grid.report(&Rect::new((q, q + 500), (q, q + 500)))
        })
    });
    // A wide rectangle: ~12.5k of the 100k points inside, so the cost is
    // dominated by the reported points rather than the range location.
    group.bench_function("grid_query_wide/100k-points", |b| {
        let mut q = 0u32;
        let mut out = Vec::new();
        b.iter(|| {
            q = (q + 9973) % 50_000;
            out.clear();
            grid.report_into(&Rect::new((q, q + 50_000), (0, 25_000)), &mut out);
            out.len()
        })
    });

    // Heavy string of a pangenome-like weighted string.
    let x = ius_datasets::pangenome::efm_like(100_000, 3);
    group.bench_function("heavy_string/EFM*-100k", |b| {
        b.iter(|| HeavyString::new(&x))
    });

    group.finish();
}

criterion_group!(benches, substrate_benches);
criterion_main!(benches);
