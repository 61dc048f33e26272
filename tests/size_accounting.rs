//! Cross-checks `size_bytes()` against the counting allocator: for every
//! index family, the self-reported footprint must match the heap actually
//! retained by construction. This is the audit net for the space figures —
//! a forgotten allocation (a key directory, precomputed log-ratios,
//! grid tables, …) shows up here as under-reporting, a double count as
//! over-reporting.
//!
//! Saving is checked the same way: one buffer of the index's size, no
//! copy of a table.
//!
//! It also bounds what a minimizer build holds on the way: its peak heap
//! growth against the index it produces, and the space-efficient build's
//! peak against the explicit build's. The z-estimation's own
//! `memory_bytes()` is checked the same way at each width of its property
//! lengths.
//!
//! This integration test is its own binary, so installing the counting
//! allocator here affects nothing else in the workspace. The counters are
//! process-wide, so every test holds [`serialize`] from its workload build
//! to its last assertion: no parallel test perturbs them mid-measurement.

use ius::datasets::corpora::bench_corpus;
use ius::prelude::*;
use ius_index::{AnyIndex, IndexFamily, IndexSpec};
use ius_memtrack::CountingAllocator;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// Runs this file's tests one at a time. A failed test poisons the lock;
/// the others still run (the guarded state is `()`).
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Asserts `reported` is within `tolerance` (fractional) plus `slack_bytes`
/// of `retained`, in both directions.
fn assert_close(label: &str, reported: usize, retained: usize, tolerance: f64, slack_bytes: usize) {
    let lo = retained as f64 * (1.0 - tolerance) - slack_bytes as f64;
    let hi = retained as f64 * (1.0 + tolerance) + slack_bytes as f64;
    assert!(
        (reported as f64) >= lo && (reported as f64) <= hi,
        "{label}: size_bytes() reports {reported} but construction retained {retained} \
         heap bytes (allowed [{lo:.0}, {hi:.0}])"
    );
}

#[test]
fn size_bytes_matches_retained_heap_for_every_family() {
    let _serial = serialize();
    let x = PangenomeConfig {
        n: 3_000,
        delta: 0.06,
        seed: 0x51E,
        ..Default::default()
    }
    .generate();
    let (z, ell) = (16.0, 32usize);
    let params = IndexParams::new(z, ell, x.sigma()).unwrap();

    for family in IndexFamily::all() {
        if matches!(family, IndexFamily::Naive) {
            continue; // O(1)-sized; nothing meaningful to cross-check.
        }
        let spec = IndexSpec::new(family, params);
        // Everything construction-internal (the z-estimation, LCE tables,
        // sort buffers) is freed inside the closure, so the net growth is
        // exactly the index's retained heap.
        let (index, mem) = ius_memtrack::measure(|| spec.build(&x).unwrap());
        assert!(
            mem.retained_bytes > 0,
            "{}: nothing retained?",
            family.name()
        );
        assert!(mem.peak_bytes >= mem.retained_bytes);
        // 2% + 4 KB covers allocator-header noise (Arc control blocks) and
        // the enum wrapper; anything beyond that is an accounting bug.
        assert_close(
            family.name(),
            index.size_bytes(),
            mem.retained_bytes,
            0.02,
            4096,
        );
        // Saving builds the file in one buffer, allocated up front at
        // `size_bytes()` plus 4 KiB, and copies no table on the way: the
        // file fits that buffer, and the buffer is the save's whole peak.
        let mut file = Vec::new();
        index.save_to(&mut file).unwrap();
        let (saved, save) = ius_memtrack::measure(|| index.save_to(&mut std::io::sink()));
        saved.unwrap();
        assert!(
            file.len() <= index.size_bytes() + 4096 && save.peak_bytes <= index.size_bytes() + 4096,
            "{}: a {}-byte file of a {}-byte index peaked at {} bytes of heap growth to save",
            family.name(),
            file.len(),
            index.size_bytes(),
            save.peak_bytes
        );
        drop::<AnyIndex>(index);
    }

    // ---- the partitioned index -------------------------------------------
    // An empty `LiveIndex` retains a fixed registry (the shared state and
    // its observability histograms) that does not depend on the corpus it
    // will hold, and `size_bytes()` reports none of it.
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let empty_live = |n: usize| {
        let config = LiveConfig {
            flush_threshold: n.div_ceil(4),
            auto_compact: false,
            ..LiveConfig::default()
        };
        ius_memtrack::measure(|| {
            LiveIndex::new(x.alphabet().clone(), spec, 2 * ell, config).unwrap()
        })
    };
    let (large, large_shell) = empty_live(1_000_000);
    drop(large);
    let (live, shell) = empty_live(x.len());
    assert_eq!(live.size_bytes(), 0, "an empty live index reports nothing");
    assert_eq!(
        shell.retained_bytes, large_shell.retained_bytes,
        "the empty live index's registry must not depend on n"
    );
    assert!(
        shell.retained_bytes < 64 * 1024,
        "an empty live index retains {} bytes",
        shell.retained_bytes
    );
    // Appending the corpus and flushing it into 4 segments grows the heap
    // by the segment chunks, their indexes and the memtable tail, which
    // `size_bytes()` must report. The per-segment Alphabet tables are the
    // only heap it does not see — covered by the slack.
    let ((), mem) = ius_memtrack::measure(|| {
        live.append(&x).unwrap();
        live.flush().unwrap();
    });
    assert_eq!(live.num_segments(), 4);
    assert_close(
        "LIVE-MWSA-G(S=4)",
        live.size_bytes(),
        mem.retained_bytes,
        0.03,
        16 * 1024,
    );
    drop(live);

    // ---- arena-open accounting ------------------------------------------
    // An IUSX file opened through the arena path retains ONE buffer (the
    // arena) plus the few small owned structures the loader derives.
    // `size_bytes()` must count the arena exactly once — via the retained
    // `Arena` handle, since every borrowed view reports zero owned bytes —
    // and the views attribute their byte ranges back to the arena.
    for family in [
        IndexFamily::Wst,
        IndexFamily::Wsa,
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        IndexFamily::SpaceEfficient(SeVariant::Tree),
    ] {
        let spec = IndexSpec::new(family, params);
        let built = spec.build(&x).unwrap();
        let mut bytes = Vec::new();
        built.save_to(&mut bytes).unwrap();
        drop(built);

        // The arena itself is a single buffer allocation (plus the Arc
        // control block), no matter how many megabytes it spans.
        let (arena, mem) = ius_memtrack::measure(|| ius_arena::Arena::from_bytes(&bytes));
        assert_eq!(
            mem.alloc_calls,
            2,
            "{}: an arena must be one buffer allocation + one Arc block",
            family.name()
        );

        // Opening out of it allocates O(sections) small structures, not
        // O(elements): the flat arrays stay in the arena as views.
        let (opened, mem) = ius_memtrack::measure(|| ius_index::open_index(&arena).unwrap());
        assert!(
            mem.alloc_calls < 256,
            "{}: arena open made {} allocations — the flat arrays must be \
             zero-copy views, not decoded vectors",
            family.name(),
            mem.alloc_calls
        );
        if family == IndexFamily::Minimizer(IndexVariant::ArrayGrid) {
            // What an MWSA-G open owns beyond the arena: the heavy letters
            // (shared by the forward set), the backward set's reversed view
            // and a few small structures. Everything else — the log-prefix
            // table, the mismatch log-ratios, the grid — is a view, and
            // nothing is derived per leaf or per mismatch.
            let (n, constant) = (x.len(), 4096);
            assert!(
                mem.retained_bytes <= 2 * n + constant,
                "MWSA-G arena open retained {} bytes, more than the heavy letters and the \
                 reversed view ({} bytes) plus {constant}",
                mem.retained_bytes,
                2 * n
            );
        }
        let attributed = arena.attributed_bytes();
        assert!(
            attributed > 0 && attributed <= arena.len(),
            "{}: views attributed {attributed} of {} arena bytes",
            family.name(),
            arena.len()
        );
        // The opened index's self-reported footprint covers the arena
        // (counted once) plus what the open retained on top of it.
        assert_close(
            &format!("{} (arena open)", family.name()),
            opened.size_bytes(),
            arena.alloc_bytes() + mem.retained_bytes,
            0.02,
            4096,
        );
        drop(opened);
        drop(arena);
    }
}

/// Saving a live directory builds each segment file in one buffer
/// reserved up front (its head, `X`'s rows, the index's `save_bound()`
/// and the trailer), as `AnyIndex::save_to` does: the save's peak heap
/// growth fits the largest file plus the 4 KiB of envelope slack, and
/// 4 KiB for the paths and the snapshot. On rssi (σ = 91) `X`'s rows are
/// most of a segment file, so a buffer grown by doubling from its head
/// instead peaks near twice the file.
#[test]
fn live_save_reserves_each_segment_file_up_front() {
    let _serial = serialize();
    let corpus = bench_corpus("rssi", 3_000, None).expect("rssi is a bench preset");
    let params = IndexParams::new(corpus.z, corpus.ell, corpus.x.sigma()).unwrap();
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let config = LiveConfig {
        flush_threshold: 750,
        auto_compact: false,
        threads: 1,
        ..LiveConfig::default()
    };
    let live = LiveIndex::from_corpus(&corpus.x, spec, 2 * corpus.ell, config).unwrap();
    assert!(live.num_segments() >= 4);
    let dir = std::env::temp_dir().join(format!("ius-size-accounting-{}", std::process::id()));
    let (saved, save) = ius_memtrack::measure(|| live.save_to_dir(&dir));
    let largest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len() as usize)
        .max();
    std::fs::remove_dir_all(&dir).ok();
    saved.unwrap();
    let largest = largest.unwrap();
    assert!(
        save.peak_bytes <= largest + 2 * 4096,
        "a live save whose largest file is {largest} bytes peaked at {} bytes of heap growth",
        save.peak_bytes
    );
}

/// `ZEstimation::memory_bytes` matches the heap a build retains at each
/// width of the strands' property lengths: one byte on rssi (no solid
/// factor longer than 255 letters), two on pangenome (longest past 255,
/// below 65,536) and four on a deterministic run of 65,536 letters ended by
/// a position where no letter is solid. The tolerance is the families'.
#[test]
fn z_estimation_memory_bytes_matches_retained_heap_at_each_width() {
    let _serial = serialize();
    let run = 65_536;
    let synthetic = {
        let alphabet = Alphabet::integer(5).unwrap();
        let mut rows = vec![vec![1.0, 0.0, 0.0, 0.0, 0.0]; run];
        rows.push(vec![0.2; 5]);
        WeightedString::from_rows(alphabet, &rows).unwrap()
    };
    let rssi = bench_corpus("rssi", 20_000, None).expect("rssi is a bench preset");
    let pangenome = bench_corpus("pangenome", 20_000, None).expect("pangenome is a bench preset");
    for (label, x, z, width) in [
        ("rssi", &rssi.x, rssi.z, 1),
        ("pangenome", &pangenome.x, pangenome.z, 2),
        ("deterministic run", &synthetic, 4.0, 4),
    ] {
        let (est, mem) = ius_memtrack::measure(|| ZEstimation::build(x, z).unwrap());
        let widest = est
            .strands()
            .iter()
            .map(|strand| strand.lengths().width())
            .max();
        assert_eq!(widest, Some(width), "{label}: widest property-length table");
        assert_close(
            &format!("z-estimation ({label})"),
            est.memory_bytes(),
            mem.retained_bytes,
            0.02,
            4096,
        );
    }
}

/// The minimizer build holds little more than the index it produces. On
/// the rssi preset (σ = 91, ℓ = 8: about three factors per position, most
/// of them sharing their first eight letters with another) the build's
/// peak heap growth — pending factors, sort keys, the grid's build buffers,
/// the tries' construction, everything but the z-estimation it reads —
/// stays within 1.15 × the index's `size_bytes()` for MWSA-G and 1.25 ×
/// for MWST and MWST-G, whose tries are built beside the finished sets.
#[test]
fn minimizer_build_peak_stays_near_the_index() {
    let _serial = serialize();
    let corpus = bench_corpus("rssi", 20_000, None).expect("rssi is a bench preset");
    let x = &corpus.x;
    let est = ZEstimation::build(x, corpus.z).unwrap();
    let params = IndexParams::new(corpus.z, corpus.ell, x.sigma()).unwrap();
    for (variant, bound) in [
        (IndexVariant::ArrayGrid, 1.15),
        (IndexVariant::Tree, 1.25),
        (IndexVariant::TreeGrid, 1.25),
    ] {
        let (index, mem) = ius_memtrack::measure(|| {
            MinimizerIndex::build_from_estimation(x, &est, params, variant).unwrap()
        });
        let size = index.size_bytes();
        assert!(
            index.num_sampled_factors() > 2 * x.len(),
            "the workload must sample several factors per position"
        );
        assert!(
            mem.peak_bytes as f64 <= bound * size as f64,
            "{} build peaked at {} bytes of heap growth for a {size}-byte index ({:.3}×, \
             bound {bound}×)",
            variant.name(),
            mem.peak_bytes,
            mem.peak_bytes as f64 / size as f64
        );
    }
}

/// The space-efficient construction earns its name: on the rssi preset
/// (σ = 91, every position uncertain) the SE-MWSA build's peak heap growth
/// stays below that of the explicit pipeline it replaces — the
/// z-estimation plus the MWSA build from it. Neither side counts `X`
/// itself, which both read in place. Both peaks grow linearly in n (SE's
/// is about a quarter of the explicit one from n = 2,000 to 20,000), so a
/// small corpus keeps the test cheap; a second copy of `X` (n·σ `f64`s)
/// would put SE at 1.5 × the explicit peak.
#[test]
fn space_efficient_build_peaks_below_the_explicit_build() {
    let _serial = serialize();
    let corpus = bench_corpus("rssi", 4_000, None).expect("rssi is a bench preset");
    let x = &corpus.x;
    let params = IndexParams::new(corpus.z, corpus.ell, x.sigma()).unwrap();
    let (explicit, explicit_mem) = ius_memtrack::measure(|| {
        let est = ZEstimation::build(x, corpus.z).unwrap();
        MinimizerIndex::build_from_estimation(x, &est, params, IndexVariant::Array).unwrap()
    });
    let (se, se_mem) = ius_memtrack::measure(|| {
        SpaceEfficientBuilder::new(params)
            .build(x, SeVariant::Array)
            .unwrap()
    });
    assert!(
        se.num_sampled_factors() > 0 && explicit.num_sampled_factors() > 0,
        "the workload must sample factors"
    );
    assert!(
        se_mem.peak_bytes < explicit_mem.peak_bytes,
        "SE-MWSA build peaked at {} bytes of heap growth, the explicit z-estimation + MWSA \
         build at {}",
        se_mem.peak_bytes,
        explicit_mem.peak_bytes
    );
}
