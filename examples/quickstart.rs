//! Quickstart: build every index over the paper's running example and a small
//! synthetic pangenome, and compare their answers and sizes.
//!
//! Run with `cargo run --release --example quickstart`.

use ius::prelude::*;
use ius::weighted::string::paper_example;

fn main() {
    // ---------------------------------------------------------------
    // 1. The running example of the paper (Example 1): n = 6, Σ = {A, B}.
    // ---------------------------------------------------------------
    let x = paper_example();
    let z = 4.0;
    println!(
        "== Paper running example (n = {}, sigma = {}, z = {z}) ==",
        x.len(),
        x.sigma()
    );

    // Its 4-estimation (Table 1 of the paper).
    let est = ZEstimation::build(&x, z).expect("valid threshold");
    for (j, strand) in est.strands().iter().enumerate() {
        let letters: String = strand
            .seq()
            .iter()
            .map(|&r| x.alphabet().symbol(r) as char)
            .collect();
        let pi: Vec<usize> = (0..x.len())
            .map(|i| strand.pi(i).map_or(0, |v| v + 1))
            .collect();
        println!("  S{} = {}   pi = {:?}", j + 1, letters, pi);
    }
    // Count_S(AB, position 1) = 2 (Example 4).
    println!("  Count_S(AB, 1) = {}", est.count_bytes(b"AB", 0).unwrap());

    // Occurrence probabilities and solid occurrences of AAAA (Example 6).
    let p = x.occurrence_probability_bytes(0, b"AAAA").unwrap();
    println!(
        "  P(X[1..4] = AAAA) = {p}   (solid for z = 4: {})",
        ius::weighted::is_solid(p, z)
    );

    // ---------------------------------------------------------------
    // 2. A synthetic pangenome, indexed by every method of the paper.
    // ---------------------------------------------------------------
    let x = PangenomeConfig {
        n: 20_000,
        delta: 0.05,
        seed: 42,
        ..Default::default()
    }
    .generate();
    let z = 32.0;
    let ell = 64usize;
    println!();
    println!(
        "== Synthetic pangenome (n = {}, Δ = {:.1}%, z = {z}, ℓ = {ell}) ==",
        x.len(),
        x.uncertainty_fraction() * 100.0
    );

    let est = ZEstimation::build(&x, z).expect("valid threshold");
    println!(
        "  z-estimation size: {:.1} MB",
        est.memory_bytes() as f64 / 1e6
    );

    let params = IndexParams::new(z, ell, x.sigma()).expect("valid parameters");
    let wst = Wst::build_from_estimation(&est).expect("WST");
    let wsa = Wsa::build_from_estimation(&est).expect("WSA");
    let mwst =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Tree).expect("MWST");
    let mwsa =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::Array).expect("MWSA");
    let mwsa_g = MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid)
        .expect("MWSA-G");
    let mwst_se = SpaceEfficientBuilder::new(params)
        .build(&x, IndexVariant::Array)
        .expect("MWST-SE");

    let naive = NaiveIndex::new(z).expect("naive");
    let mut sampler = PatternSampler::new(&est, 7);
    let patterns = sampler.sample_many(ell, 50);
    println!(
        "  sampled {} query patterns of length {ell}",
        patterns.len()
    );

    let indexes: Vec<(&str, &(dyn UncertainIndex + Sync))> = vec![
        ("WST", &wst),
        ("WSA", &wsa),
        ("MWST", &mwst),
        ("MWSA", &mwsa),
        ("MWSA-G", &mwsa_g),
        ("MWSA (space-efficient construction)", &mwst_se),
    ];
    println!(
        "  {:<40} {:>12} {:>12}",
        "index", "size (KB)", "occurrences"
    );
    let mut total_naive = 0usize;
    for p in &patterns {
        total_naive += naive.query(p, &x).unwrap().len();
    }
    for (name, index) in &indexes {
        // The serving path: one reused scratch, a reused output vector —
        // steady-state queries allocate nothing.
        let mut scratch = QueryScratch::new();
        let mut occ: Vec<usize> = Vec::new();
        let mut total = 0usize;
        for p in &patterns {
            occ.clear();
            index
                .query_into(p, &x, &mut scratch, &mut occ)
                .expect("query succeeds");
            total += occ.len();
        }
        assert_eq!(
            total, total_naive,
            "{name} disagrees with the naive matcher"
        );
        println!(
            "  {:<40} {:>12.1} {:>12}",
            name,
            index.size_bytes() as f64 / 1e3,
            total
        );
    }
    println!("  all indexes agree with the naive matcher ({total_naive} occurrences in total)");

    // ---------------------------------------------------------------
    // 3. The non-collecting sinks.
    // ---------------------------------------------------------------
    println!();
    println!("== Match sinks ==");
    // Count-only and first-k sinks skip materialising positions.
    let mut scratch = QueryScratch::new();
    let mut count = CountSink::new();
    let stats = mwsa_g
        .query_into(&patterns[0], &x, &mut scratch, &mut count)
        .expect("count query");
    let mut first = FirstKSink::new(1);
    mwsa_g
        .query_into(&patterns[0], &x, &mut scratch, &mut first)
        .expect("first-k query");
    println!(
        "  pattern 0: {} occurrence(s), first at {:?}; {} grid candidate(s), {} grid node(s)",
        count.count,
        first.positions.first(),
        stats.candidates,
        stats.grid_nodes
    );

    // ---------------------------------------------------------------
    // 4. A live (mutable) corpus: append, query, compact — no rebuild.
    // ---------------------------------------------------------------
    println!();
    println!("== Live appends (ius_live) ==");
    // Serve the first half of the corpus, then append the second half in
    // batches: every appended row is visible to the very next query.
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let half = x.len() / 2;
    let live = LiveIndex::from_corpus(
        &x.substring(0, half).expect("first half"),
        spec,
        2 * ell,
        LiveConfig {
            flush_threshold: 2_000,
            ..Default::default()
        },
    )
    .expect("seed live index");
    let mut appended = half;
    while appended < x.len() {
        let end = (appended + 2_500).min(x.len());
        live.append(&x.substring(appended, end).expect("batch"))
            .expect("append");
        appended = end;
    }
    live.flush().expect("flush the tail");
    // The grown live index answers exactly like the static index built
    // over the full corpus.
    let mut live_total = 0usize;
    for p in &patterns {
        let hits = live.query_owned(p).expect("live query");
        assert_eq!(hits, mwsa_g.query(p, &x).unwrap(), "live disagrees");
        live_total += hits.len();
    }
    let stats = live.live_stats();
    println!(
        "  appended {} -> {} positions across {} segment(s) (+{} memtable rows): \
         {live_total} occurrences, identical to the static MWSA-G",
        half, stats.corpus_len, stats.segments, stats.memtable_rows
    );
    live.compact_full().expect("compact");
    for p in patterns.iter().take(5) {
        assert_eq!(live.query_owned(p).unwrap(), mwsa_g.query(p, &x).unwrap());
    }
    println!(
        "  compacted to {} segment(s); answers unchanged",
        live.num_segments()
    );
}
