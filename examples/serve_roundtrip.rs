//! Serving round trip: build an index, persist it, serve it from the file
//! on an ephemeral loopback port, query it through the wire client and
//! check every answer against the in-process engine — then hot-reload and
//! shut down gracefully.
//!
//! Run with `cargo run --release --example serve_roundtrip`.
//! CI runs this as the serving smoke test.

use ius::prelude::*;
use std::sync::Arc;

fn main() {
    // A synthetic pangenome, indexed as MWSA-G for patterns of length ≥ 32.
    let x = PangenomeConfig {
        n: 20_000,
        delta: 0.05,
        seed: 0x5E12,
        ..Default::default()
    }
    .generate();
    let (z, ell) = (16.0, 32usize);
    let params = IndexParams::new(z, ell, x.sigma()).expect("valid parameters");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let index = spec.build(&x).expect("build");

    let est = ZEstimation::build(&x, z).expect("estimation");
    let mut sampler = PatternSampler::new(&est, 21);
    let patterns = sampler.sample_many(ell, 40);
    assert!(!patterns.is_empty(), "no solid patterns sampled");

    // Persist, then serve from the file — the server process of a real
    // deployment would start exactly here.
    let dir = std::env::temp_dir().join(format!("ius-serve-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let path = dir.join("mwsa-g.iusx");
    index
        .save_to(&mut std::fs::File::create(&path).expect("create index file"))
        .expect("save");
    println!("persisted {} to {}", index.name(), path.display());

    let served = ServedIndex::load(&path, Some(Arc::new(x.clone()))).expect("load for serving");
    let server = Server::bind(
        "127.0.0.1:0", // ephemeral port
        served,
        Some(path.clone()),
        &ServerConfig {
            workers: 2,
            queue_depth: 8,
            ..Default::default()
        },
    )
    .expect("bind");
    println!("serving on {}", server.local_addr());

    // Query over the wire; every answer must equal the in-process one.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    let mut total = 0usize;
    for pattern in &patterns {
        let expected = index.query(pattern, &x).expect("in-process query");
        let outcome = client.query(pattern).expect("served query");
        assert_eq!(outcome.positions, expected, "served answer differs");
        let (count, _) = client.query_count(pattern).expect("count query");
        assert_eq!(count as usize, expected.len());
        total += expected.len();
    }
    println!(
        "{} patterns, {} occurrences — wire answers identical to in-process",
        patterns.len(),
        total
    );

    // Hot reload from the same file: the generation advances and queries
    // keep working without restarting the server.
    let generation = client.reload(None).expect("hot reload");
    let scrape = client.scrape().expect("scrape");
    let read = |name: &str| scrape.value(name).expect(name);
    println!(
        "hot reload done: generation {generation}, {} queries served, {} occurrences delivered",
        read("queries"),
        read("occurrences")
    );
    assert_eq!(generation, 1);
    assert_eq!(read("generation"), 1);
    assert_eq!(
        client
            .query(&patterns[0])
            .expect("post-reload query")
            .positions,
        index.query(&patterns[0], &x).expect("in-process query")
    );

    client.shutdown().expect("graceful shutdown");
    server.join();
    println!("server shut down gracefully");
    std::fs::remove_dir_all(&dir).ok();
}
