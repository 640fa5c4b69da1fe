//! Cross-engine equivalence: with its mechanisms disabled, the
//! software-assisted cache must degenerate into the corresponding
//! baseline organization — same hits, same misses, same write-backs.

use software_assisted_caches::core::{SoftCache, SoftCacheConfig, SoftPolicy};
use software_assisted_caches::simcache::{
    CacheGeometry, CacheSim, MemoryModel, StandardCache, StandardPolicy, VictimCache, VictimPolicy,
};
use software_assisted_caches::trace::{Access, GapModel, Trace};

/// The software-assisted cache running `cfg`.
fn soft_cache(cfg: SoftCacheConfig) -> SoftCache {
    SoftCache::new(SoftPolicy::new(cfg), cfg.memory)
}

/// A pseudo-random but deterministic mixed trace with tags.
fn mixed_trace(n: usize, footprint_lines: u64) -> Trace {
    let mut gaps = GapModel::seeded(99);
    let mut t = Trace::new("mixed");
    let mut state = 0x12345678u64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let line = (state >> 33) % footprint_lines;
        let addr = line * 32 + (state >> 20) % 4 * 8;
        let a = if state.is_multiple_of(5) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        t.push(
            a.with_temporal(state.is_multiple_of(3))
                .with_spatial(state.is_multiple_of(2))
                .with_gap(gaps.sample())
                .with_instr((i % 17) as u32),
        );
    }
    t
}

/// Sequential stride-1 trace (all lines visited once).
fn stream_trace(words: u64) -> Trace {
    (0..words)
        .map(|i| Access::read(i * 8).with_spatial(true))
        .collect()
}

fn neutered_soft(geom: CacheGeometry) -> SoftCacheConfig {
    let mut cfg = SoftCacheConfig::soft().with_geometry(geom);
    cfg.virtual_line_bytes = geom.line_bytes();
    cfg.bounce_lines = 0;
    cfg.use_temporal = false;
    cfg.use_spatial = false;
    cfg
}

#[test]
fn soft_without_mechanisms_equals_standard_cache() {
    for geom in [
        CacheGeometry::standard(),
        CacheGeometry::new(1024, 32, 1),
        CacheGeometry::new(8 * 1024, 32, 2),
        CacheGeometry::new(4 * 1024, 64, 4),
    ] {
        let trace = mixed_trace(50_000, 4 * geom.lines());
        let mut soft = soft_cache(neutered_soft(geom));
        let mut standard = StandardCache::new(StandardPolicy::new(geom), MemoryModel::default());
        soft.run(&trace);
        standard.run(&trace);
        let (s, b) = (soft.metrics(), standard.metrics());
        assert_eq!(s.misses, b.misses, "{geom}");
        assert_eq!(s.main_hits, b.main_hits, "{geom}");
        assert_eq!(s.writebacks, b.writebacks, "{geom}");
        assert_eq!(s.words_fetched, b.words_fetched, "{geom}");
        assert_eq!(s.mem_cycles, b.mem_cycles, "{geom}");
    }
}

#[test]
fn soft_with_plain_victim_cache_equals_victim_baseline() {
    let geom = CacheGeometry::new(1024, 32, 1);
    let trace = mixed_trace(50_000, 4 * geom.lines());
    let mut cfg = SoftCacheConfig::soft().with_geometry(geom);
    cfg.virtual_line_bytes = 32;
    cfg.use_temporal = false;
    cfg.use_spatial = false;
    cfg.bounce_lines = 8;
    let mut soft = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
    let mut victim = VictimCache::new(VictimPolicy::new(geom, 8), MemoryModel::default());
    soft.run(&trace);
    victim.run(&trace);
    let (s, v) = (soft.metrics(), victim.metrics());
    assert_eq!(s.misses, v.misses);
    assert_eq!(s.main_hits, v.main_hits);
    assert_eq!(s.aux_hits, v.aux_hits);
    assert_eq!(s.writebacks, v.writebacks);
}

#[test]
fn every_reference_is_classified_exactly_once() {
    let trace = mixed_trace(30_000, 2048);
    let mut soft = soft_cache(SoftCacheConfig::soft());
    soft.run(&trace);
    let m = soft.metrics();
    assert_eq!(m.refs as usize, trace.len());
    assert_eq!(m.main_hits + m.aux_hits + m.misses, m.refs);
    assert_eq!(m.reads + m.writes, m.refs);
}

#[test]
fn virtual_lines_halve_stream_misses() {
    let trace = stream_trace(32_768);
    let mut soft = soft_cache(SoftCacheConfig::soft());
    let mut stand = StandardCache::new(
        StandardPolicy::new(CacheGeometry::standard()),
        MemoryModel::default(),
    );
    soft.run(&trace);
    stand.run(&trace);
    // One miss per 64-byte virtual line vs one per 32-byte physical line.
    assert_eq!(stand.metrics().misses, 32_768 / 4);
    assert_eq!(soft.metrics().misses, 32_768 / 8);
    // Same words fetched: virtual lines do not add traffic on a pure
    // stream.
    assert_eq!(soft.metrics().words_fetched, stand.metrics().words_fetched);
}

#[test]
fn soft_is_deterministic_across_runs() {
    let trace = mixed_trace(20_000, 1024);
    let run = || {
        let mut c = soft_cache(SoftCacheConfig::soft().with_prefetch(true));
        c.run(&trace);
        *c.metrics()
    };
    assert_eq!(run(), run());
}

#[test]
fn bounce_back_cache_is_strictly_better_than_nothing_on_mv_pattern() {
    // Synthetic MV-like pattern: a small temporal vector thrashed by a
    // large stream.
    let mut trace = Trace::new("mv-like");
    let vector_lines = 128u64; // 4 KB temporal vector
    let stream_lines = 512u64;
    for pass in 0..6u64 {
        for i in 0..vector_lines * 4 {
            trace.push(
                Access::read(i * 8)
                    .with_temporal(true)
                    .with_spatial(true)
                    .with_gap(2),
            );
            let s = pass * stream_lines * 4 + i;
            trace.push(
                Access::read(0x10_0000 + s * 8)
                    .with_spatial(true)
                    .with_gap(2),
            );
        }
    }
    let mut soft = soft_cache(SoftCacheConfig::soft());
    let mut stand = StandardCache::new(
        StandardPolicy::new(CacheGeometry::standard()),
        MemoryModel::default(),
    );
    soft.run(&trace);
    stand.run(&trace);
    assert!(
        (soft.metrics().miss_ratio()) < stand.metrics().miss_ratio() * 0.7,
        "soft {:.4} vs standard {:.4}",
        soft.metrics().miss_ratio(),
        stand.metrics().miss_ratio()
    );
    assert!(soft.metrics().bounces > 0);
}
