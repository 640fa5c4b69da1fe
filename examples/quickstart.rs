//! Quickstart: run the paper's matrix-vector multiply through a standard
//! cache and the software-assisted cache, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use software_assisted_caches::core::{SoftCache, SoftCacheConfig, SoftPolicy};
use software_assisted_caches::simcache::{
    CacheGeometry, CacheSim, MemoryModel, StandardCache, StandardPolicy,
};
use software_assisted_caches::workloads::mv;

fn main() {
    // 1. Build a workload as a loop nest and trace it. The tracer runs
    //    the paper's locality analysis and attaches the temporal/spatial
    //    tag bits to every reference.
    let program = mv::program(mv::DEFAULT_N);
    let trace = program.trace_default();
    println!("{program}");
    println!("trace: {} references\n", trace.len());

    // 2. The paper's Standard baseline: 8 KB, 32-byte lines, 1-way,
    //    20-cycle memory latency, 16-byte bus.
    let mut standard = StandardCache::new(
        StandardPolicy::new(CacheGeometry::standard()),
        MemoryModel::default(),
    );
    standard.run(&trace);

    // 3. The software-assisted cache: 64-byte virtual lines + a 256-byte
    //    bounce-back cache, driven by the tags.
    let cfg = SoftCacheConfig::soft();
    let mut soft = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
    soft.run(&trace);

    let (s, m) = (standard.metrics(), soft.metrics());
    println!("standard cache:        {s}");
    println!("software-assisted:     {m}");
    println!();
    println!(
        "AMAT       {:.3} -> {:.3}  ({:.0}% better)",
        s.amat(),
        m.amat(),
        100.0 * (1.0 - m.amat() / s.amat())
    );
    println!(
        "miss ratio {:.4} -> {:.4}  ({:.0}% of misses removed)",
        s.miss_ratio(),
        m.miss_ratio(),
        m.misses_removed_vs(s)
    );
    println!(
        "traffic    {:.3} -> {:.3} words/ref",
        s.traffic_ratio(),
        m.traffic_ratio()
    );
    println!(
        "{} lines bounced back into the main cache kept X resident.",
        m.bounces
    );
}
