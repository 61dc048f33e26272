//! Cross-checks `size_bytes()` against the counting allocator: for every
//! index family, the self-reported footprint must match the heap actually
//! retained by construction. This is the audit net for the space figures —
//! a forgotten allocation (packed prefix keys, precomputed log-ratios,
//! grid pair tables, …) shows up here as under-reporting, a double count as
//! over-reporting.
//!
//! This integration test is its own binary, so installing the counting
//! allocator here affects nothing else in the workspace. All checks run
//! inside a single `#[test]` so no parallel test perturbs the live-byte
//! counters during a measurement.

use ius::prelude::*;
use ius_index::{AnyIndex, IndexFamily, IndexSpec};
use ius_memtrack::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

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
    // A v3 file opened through the arena path retains ONE buffer (the
    // arena) plus the few small owned structures the loader derives.
    // `size_bytes()` must count the arena exactly once — via the retained
    // `Arena` handle, since every borrowed view reports zero owned bytes —
    // and the views attribute their byte ranges back to the arena.
    for family in [
        IndexFamily::Wst,
        IndexFamily::Wsa,
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        IndexFamily::SpaceEfficient(IndexVariant::Tree),
    ] {
        let spec = IndexSpec::new(family, params);
        let built = spec.build(&x).unwrap();
        let mut bytes = Vec::new();
        ius_index::save_index(&built, &mut bytes).unwrap();
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
