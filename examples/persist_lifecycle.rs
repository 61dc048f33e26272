//! The full index lifecycle on disk: build once → measure → save → load →
//! serve, plus a segmented live index answering the same queries and
//! surviving a save-to-directory / reopen round trip.
//!
//! Run with `cargo run --release --example persist_lifecycle`.
//! CI runs this as the save→load→query round-trip smoke test (the files go
//! to a scratch directory under the system temp dir).

use ius::prelude::*;
use ius_index::{load_index, IndexFamily, IndexSpec};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::time::Instant;

fn main() {
    // A synthetic pangenome and a family selection to persist.
    let x = PangenomeConfig {
        n: 20_000,
        delta: 0.05,
        seed: 0xD15C,
        ..Default::default()
    }
    .generate();
    let (z, ell) = (16.0, 64usize);
    let params = IndexParams::new(z, ell, x.sigma()).expect("valid parameters");
    let est = ZEstimation::build(&x, z).expect("estimation");
    let mut sampler = PatternSampler::new(&est, 7);
    let patterns = sampler.sample_many(ell, 25);
    assert!(!patterns.is_empty(), "no solid patterns sampled");

    let dir = std::env::temp_dir().join(format!("ius-lifecycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    println!("scratch directory: {}", dir.display());

    for family in [
        IndexFamily::Wsa,
        IndexFamily::Minimizer(IndexVariant::Array),
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
    ] {
        let spec = IndexSpec::new(family, params);

        // Build (once) and measure.
        let t = Instant::now();
        let index = spec.build_with_estimation(&x, &est).expect("build");
        let build_ms = t.elapsed().as_secs_f64() * 1e3;

        // Save to disk (buffered, like the read side below).
        let path = dir.join(format!("{}.iusx", family.name().to_lowercase()));
        let mut writer = BufWriter::new(File::create(&path).expect("create index file"));
        index.save_to(&mut writer).expect("save");
        writer.flush().expect("flush");
        let file_bytes = std::fs::metadata(&path).expect("stat").len();

        // Load from disk — no construction is re-run.
        let t = Instant::now();
        let mut reader = BufReader::new(File::open(&path).expect("open index file"));
        let loaded = load_index(&mut reader).expect("load");
        let load_ms = t.elapsed().as_secs_f64() * 1e3;

        // Serve: the loaded index answers exactly like the built one.
        let mut total = 0usize;
        for pattern in &patterns {
            let expected = index.query(pattern, &x).expect("query");
            let got = loaded.query(pattern, &x).expect("loaded query");
            assert_eq!(got, expected, "loaded index diverged");
            total += got.len();
        }
        println!(
            "{:<8} build {build_ms:>8.1} ms   size {:>7.2} MB   file {:>7.2} MB   \
             load {load_ms:>6.1} ms   {} occurrences over {} patterns",
            family.name(),
            index.size_bytes() as f64 / 1e6,
            file_bytes as f64 / 1e6,
            total,
            patterns.len(),
        );
    }

    // A segmented index: a live index seeded in 4 segments whose chunks
    // overlap by 2ℓ−1 rows, answers asserted identical to the unsegmented
    // index, then saved as a manifest directory and reopened.
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let unsegmented = spec.build_with_estimation(&x, &est).expect("unsegmented");
    let config = LiveConfig {
        flush_threshold: x.len().div_ceil(4),
        auto_compact: false,
        ..LiveConfig::default()
    };
    let segmented =
        LiveIndex::from_corpus(&x, spec, 2 * ell, config.clone()).expect("segmented build");
    let live_dir = dir.join("mwsa-g.live");
    segmented.save_to_dir(&live_dir).expect("save live index");
    let reopened = LiveIndex::open(&live_dir, config).expect("reopen live index");
    for pattern in &patterns {
        let expected = unsegmented.query(pattern, &x).expect("unsegmented query");
        assert_eq!(
            segmented.query_owned(pattern).expect("segmented query"),
            expected
        );
        assert_eq!(
            reopened.query_owned(pattern).expect("reopened query"),
            expected
        );
    }
    println!(
        "LIVE     {} segments, overlap {}   size {:>7.2} MB   round-trip OK",
        reopened.num_segments(),
        reopened.overlap(),
        reopened.size_bytes() as f64 / 1e6,
    );

    std::fs::remove_dir_all(&dir).expect("clean scratch directory");
    println!("lifecycle round trip complete; scratch directory removed");
}
