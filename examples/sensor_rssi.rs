//! Sensor-telemetry scenario: index an uncertain string of discretised signal
//! strength (RSSI) readings, where every time step is a distribution over
//! σ = 91 values estimated from 16 radio channels, and search for recurring
//! signal-strength motifs.
//!
//! This mirrors the paper's RSSI dataset (Δ = 100 %: every position is
//! uncertain) and its scaled variants RSSI_{n,σ}, which drive Figures 14 and
//! 16 of the evaluation.
//!
//! Run with `cargo run --release --example sensor_rssi`.

use ius::datasets::corpora::bench_corpus;
use ius::prelude::*;
use std::time::Instant;

fn main() {
    // The rssi bench preset's parameters. Readings this uncertain keep few
    // long solid factors: at ℓ = 8 a window is still solid at z = 64, where
    // a longer ℓ would leave nothing to index.
    let preset = bench_corpus("rssi", 1_000, None).expect("rssi is a bench preset");
    let (z, ell) = (preset.z, preset.ell);
    let family = IndexFamily::SpaceEfficient(SeVariant::Array);

    println!(
        "{:<12} {:>8} {:>6} {:>14} {:>14} {:>12}",
        "dataset",
        "n",
        "σ",
        format!("{} (KB)", family.name()),
        "WSA (KB)",
        "ratio"
    );
    for sigma in [16usize, 32, 64, 91] {
        let x = RssiConfig {
            n: 20_000,
            sigma,
            seed: 7,
            ..Default::default()
        }
        .generate();
        let params = IndexParams::new(z, ell, x.sigma()).expect("params");

        let t = Instant::now();
        let index = IndexSpec::new(family, params)
            .build(&x)
            .expect("space-efficient construction");
        let se_time = t.elapsed();

        let t = Instant::now();
        let est = ZEstimation::build(&x, z).expect("z-estimation");
        let wsa = Wsa::build_from_estimation(&est).expect("WSA");
        let baseline_time = t.elapsed();

        println!(
            "{:<12} {:>8} {:>6} {:>14.1} {:>14.1} {:>11.1}×   (construction {:.2?} vs {:.2?})",
            format!("RSSI*_{{1,{sigma}}}"),
            x.len(),
            sigma,
            index.size_bytes() as f64 / 1e3,
            wsa.size_bytes() as f64 / 1e3,
            wsa.size_bytes() as f64 / index.size_bytes() as f64,
            se_time,
            baseline_time,
        );

        // Search for a motif: the most likely signal pattern around the middle
        // of the recording, and a perturbed (likely absent) variant.
        let heavy = HeavyString::new(&x);
        let motif: Vec<u8> = heavy.as_ranks()[10_000..10_000 + ell].to_vec();
        let occ = index.query(&motif, &x).expect("query");
        let baseline_occ = wsa.query(&motif, &x).expect("baseline query");
        assert_eq!(occ, baseline_occ);
        let mut shifted = motif.clone();
        for v in shifted.iter_mut() {
            *v = (*v + 7) % sigma as u8;
        }
        assert!(
            !occ.is_empty(),
            "σ = {sigma}: the heavy motif must occur, or the index above is empty"
        );
        let absent = index.query(&shifted, &x).expect("query");
        println!(
            "             heavy motif of length {ell} occurs at {} positions; a shifted motif at {}",
            occ.len(),
            absent.len()
        );
    }
}
