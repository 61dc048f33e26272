//! End-to-end serving test: build → save → serve from the file on an
//! ephemeral loopback port → concurrent clients exercise every result mode
//! → every response is identical to a direct in-process `query_into` on the
//! same index — plus a hot-reload storm proving queries issued during index
//! swaps complete correctly.

use ius::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ius-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn build_corpus_and_patterns() -> (WeightedString, f64, usize, Vec<Vec<u8>>) {
    let x = PangenomeConfig {
        n: 6_000,
        delta: 0.06,
        seed: 0x5E47,
        ..Default::default()
    }
    .generate();
    let (z, ell) = (16.0, 32usize);
    let est = ZEstimation::build(&x, z).expect("estimation");
    let mut sampler = PatternSampler::new(&est, 3);
    let mut patterns = sampler.sample_many(ell, 30);
    patterns.extend(sampler.sample_many(2 * ell, 15));
    patterns.extend(sampler.sample_random(ell, 15, 99));
    assert!(patterns.len() >= 40, "need a real pattern set");
    (x, z, ell, patterns)
}

#[test]
fn concurrent_clients_see_exactly_the_in_process_answers() {
    let (x, z, ell, patterns) = build_corpus_and_patterns();
    let params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let index = spec.build(&x).expect("build");

    // Save, then serve from the file (the acceptance path: nothing is
    // reused from the in-memory build).
    let dir = scratch_dir("single");
    let path = dir.join("mwsa-g.iusx");
    let mut file = std::fs::File::create(&path).expect("create");
    index.save_to(&mut file).expect("save");
    drop(file);
    let served = ServedIndex::load(&path, Some(Arc::new(x.clone()))).expect("load for serving");
    let server = Server::bind(
        "127.0.0.1:0",
        served,
        Some(path.clone()),
        &ServerConfig {
            workers: 4,
            queue_depth: 16,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // In-process ground truth through the same engine entry point.
    let mut scratch = QueryScratch::new();
    let expected: Vec<Vec<usize>> = patterns
        .iter()
        .map(|p| {
            let mut out = Vec::new();
            index
                .query_into(p, &x, &mut scratch, &mut out)
                .expect("in-process query");
            out
        })
        .collect();

    // ≥ 4 concurrent client threads, each with its own connection, each
    // exercising all three result modes over its slice of the patterns.
    let threads = 4usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let patterns = &patterns;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (i, pattern) in patterns.iter().enumerate().skip(t).step_by(threads) {
                    let want = &expected[i];
                    let outcome = client.query(pattern).expect("collect");
                    assert_eq!(&outcome.positions, want, "thread {t}, pattern {i}");
                    assert_eq!(outcome.stats.reported, want.len());
                    let (count, _) = client.query_count(pattern).expect("count");
                    assert_eq!(count as usize, want.len(), "thread {t}, pattern {i}");
                    let k = 3u64;
                    let first = client.query_first_k(pattern, k).expect("first-k");
                    assert_eq!(
                        first.positions,
                        want[..want.len().min(k as usize)].to_vec(),
                        "thread {t}, pattern {i}"
                    );
                }
            });
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    let snapshot = client.stats().expect("stats");
    assert_eq!(snapshot.index_name, "MWSA-G");
    assert_eq!(snapshot.corpus_len as usize, x.len());
    assert_eq!(snapshot.queries as usize, patterns.len() * 3);
    assert_eq!(snapshot.query_errors, 0);
    assert_eq!(snapshot.generation, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_swaps_generations_while_queries_are_in_flight() {
    let (x, z, ell, patterns) = build_corpus_and_patterns();
    let params = IndexParams::new(z, ell, x.sigma()).expect("params");
    let corpus = Arc::new(x.clone());

    // Two index files over the same corpus: different families, identical
    // answers — so any interleaving of queries and swaps must produce the
    // same outputs.
    let dir = scratch_dir("reload");
    let path_a = dir.join("a.iusx");
    let path_b = dir.join("b.iusx");
    let index_a = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::Array), params)
        .build(&x)
        .expect("build A");
    let index_b = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params)
        .build(&x)
        .expect("build B");
    index_a
        .save_to(&mut std::fs::File::create(&path_a).expect("create A"))
        .expect("save A");
    index_b
        .save_to(&mut std::fs::File::create(&path_b).expect("create B"))
        .expect("save B");

    let expected: Vec<Vec<usize>> = patterns
        .iter()
        .map(|p| index_a.query(p, &x).expect("ground truth"))
        .collect();

    let served = ServedIndex::load(&path_a, Some(corpus)).expect("load A");
    let server = Server::bind(
        "127.0.0.1:0",
        served,
        Some(path_a.clone()),
        &ServerConfig {
            workers: 4,
            queue_depth: 16,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Query threads hammer the server while a reloader thread keeps
    // swapping the index back and forth. Every query must succeed with the
    // exact expected answer — proving in-flight queries complete across
    // swaps (the Arc snapshot outlives the swap).
    let stop = AtomicBool::new(false);
    let reloads_done = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut query_threads = Vec::new();
        for t in 0..4usize {
            let patterns = &patterns;
            let expected = &expected;
            query_threads.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    for (i, pattern) in patterns.iter().enumerate() {
                        let outcome = client.query(pattern).expect("query during reloads");
                        assert_eq!(
                            &outcome.positions, &expected[i],
                            "thread {t}, round {round}, pattern {i}"
                        );
                    }
                }
            }));
        }
        let reloader = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect reloader");
            let mut flip = false;
            // Always at least one swap, then keep flipping until the query
            // threads are done.
            loop {
                let path = if flip { &path_b } else { &path_a };
                flip = !flip;
                let generation = client
                    .reload(Some(path.to_str().expect("utf-8 path")))
                    .expect("reload");
                assert!(generation > 0);
                reloads_done.fetch_add(1, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        for handle in query_threads {
            handle.join().expect("query thread");
        }
        stop.store(true, Ordering::Relaxed);
        reloader.join().expect("reloader thread");
    });
    assert!(
        reloads_done.load(Ordering::Relaxed) >= 1,
        "at least one hot reload must have interleaved with the queries"
    );

    // The swap really happened: generation advanced, and a fresh query
    // still answers correctly on whatever index is current.
    let mut client = Client::connect(addr).expect("connect");
    let snapshot = client.stats().expect("stats");
    assert!(snapshot.generation >= 1);
    assert_eq!(snapshot.query_errors, 0);
    assert_eq!(
        client
            .query(&patterns[0])
            .expect("post-reload query")
            .positions,
        expected[0]
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
