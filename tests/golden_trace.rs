//! Golden-trace regression test: a tiny committed trace with exact
//! expected counters for the software-assisted cache and the
//! direct-mapped baseline.
//!
//! `tests/data/golden.trace` is a hand-built 280-reference mix — a
//! stride-1 spatial sweep, a hot temporal scalar set, an 8 KB-apart
//! conflict pair, and an untagged write burst — chosen so every counter
//! below is nonzero-interesting. The expected values were recorded from
//! the engines at the time the trace was committed; any drift in hit/miss
//! accounting, cycle costing, fetch width or write handling trips this
//! test with the exact counter that moved.

use software_assisted_caches::core::{SoftCache, SoftCacheConfig, SoftPolicy};
use software_assisted_caches::simcache::{CacheSim, Metrics, StandardCache, StandardPolicy};
use software_assisted_caches::trace::io::read_text;
use software_assisted_caches::trace::Trace;

/// The software-assisted cache running `cfg`.
fn soft_cache(cfg: SoftCacheConfig) -> SoftCache {
    SoftCache::new(SoftPolicy::new(cfg), cfg.memory)
}

fn golden() -> Trace {
    let text = include_str!("data/golden.trace");
    let trace = read_text(text.as_bytes()).expect("golden trace parses");
    assert_eq!(trace.name(), "golden");
    assert_eq!(trace.len(), 280);
    trace
}

#[test]
fn standard_cache_counters_match_golden() {
    let trace = golden();
    let mut stand = StandardCache::new(StandardPolicy::new(Default::default()), Default::default());
    stand.run(&trace);
    let expected = Metrics {
        refs: 280,
        reads: 240,
        writes: 40,
        main_hits: 198,
        aux_hits: 0,
        misses: 82,
        bypasses: 0,
        mem_cycles: 2002,
        lines_fetched: 82,
        words_fetched: 328,
        writebacks: 24,
        bounces: 0,
        swaps: 0,
        prefetches: 0,
        useful_prefetches: 0,
        stall_cycles: 0,
    };
    assert_eq!(*stand.metrics(), expected);
}

#[test]
fn soft_cache_counters_match_golden() {
    let trace = golden();
    let mut soft = soft_cache(SoftCacheConfig::soft());
    soft.run(&trace);
    let expected = Metrics {
        refs: 280,
        reads: 240,
        writes: 40,
        main_hits: 206,
        aux_hits: 46,
        misses: 28,
        bypasses: 0,
        mem_cycles: 994,
        lines_fetched: 36,
        words_fetched: 144,
        writebacks: 1,
        bounces: 2,
        swaps: 46,
        prefetches: 0,
        useful_prefetches: 0,
        stall_cycles: 18,
    };
    assert_eq!(*soft.metrics(), expected);
}

#[test]
fn soft_cache_beats_the_baseline_on_the_golden_trace() {
    // The relationship the whole paper rests on, pinned on a trace small
    // enough to debug by hand: fewer misses, fewer words fetched, lower
    // AMAT.
    let trace = golden();
    let mut stand = StandardCache::new(StandardPolicy::new(Default::default()), Default::default());
    stand.run(&trace);
    let mut soft = soft_cache(SoftCacheConfig::soft());
    soft.run(&trace);
    assert!(soft.metrics().misses < stand.metrics().misses);
    assert!(soft.metrics().words_fetched < stand.metrics().words_fetched);
    assert!(soft.metrics().amat() < stand.metrics().amat());
}
