//! The paper's §2 cycle arithmetic, pinned with literal numbers.
//!
//! Every figure is an average memory access time, so these few formulas
//! set every number the suite prints. The expected values below are
//! written out from the paper's parameters (20-cycle memory latency, a
//! 16-byte-per-cycle bus, 32-byte physical lines) rather than taken from
//! the crates' own constants, and each is read off the observable
//! `mem_cycles` counter of a fresh cache:
//!
//! - miss penalty `t_lat + n·LS/w_b`: 22, 24 and 36 cycles for 1, 2 and
//!   8 physical lines (§2.1);
//! - a bounce-back hit costs 3 cycles, and the swap locks both arrays 2
//!   further cycles (§2.2);
//! - a hit on a prefetched line costs one extra cycle (§4.4);
//! - across memory latencies, `t_lat` enters once per fetching miss:
//!   two latency lanes that stall alike differ by `(L − L′) · misses`.

use software_assisted_caches::core::{SoftCache, SoftCacheConfig};
use software_assisted_caches::simcache::{CacheSim, MemoryModel, StandardCache};
use software_assisted_caches::trace::io::read_text;
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{Access, Trace};

/// A read of physical line `line` (32-byte lines), `gap` cycles after the
/// previous access completed.
fn read(line: u64, gap: u32) -> Access {
    Access::read(line * 32).with_gap(gap)
}

/// `mem_cycles` charged to `a` alone.
fn cost_of(c: &mut SoftCache, a: Access) -> u64 {
    let before = c.metrics().mem_cycles;
    c.access(&a);
    c.metrics().mem_cycles - before
}

#[test]
fn miss_penalty_is_latency_plus_lines_over_bus_width() {
    for (vline_bytes, lines, penalty) in [(32, 1, 22), (64, 2, 24), (256, 8, 36)] {
        let mut c = SoftCache::new(SoftCacheConfig::soft().with_virtual_line(vline_bytes));
        assert_eq!(cost_of(&mut c, read(0, 0).with_spatial(true)), penalty);
        assert_eq!(c.metrics().lines_fetched, lines);
    }
    // The standard cache fetches one line per miss: 20 + 32/16.
    let mut stand = StandardCache::new(Default::default(), MemoryModel::default());
    stand.access(&read(0, 0));
    assert_eq!(stand.metrics().mem_cycles, 22);
}

#[test]
fn virtual_line_fetches_only_the_absent_lines() {
    // Line 1 is cached; the 4-line virtual line {0..3} fetches 3 lines:
    // 20 + 3·32/16 = 26 cycles.
    let mut c = SoftCache::new(SoftCacheConfig::soft().with_virtual_line(128));
    c.access(&read(1, 0));
    assert_eq!(cost_of(&mut c, read(0, 0).with_spatial(true)), 26);
}

#[test]
fn figure_10b_latency_point() {
    // At 30 cycles of latency, the Figure 10b soft cache pays
    // 30 + 64/16 = 34 cycles for a 64-byte virtual line and the standard
    // cache 30 + 32/16 = 32 for one line.
    let mut c = SoftCache::new(SoftCacheConfig::soft().with_latency(30));
    assert_eq!(cost_of(&mut c, read(0, 0).with_spatial(true)), 34);
    let mut stand = StandardCache::new(Default::default(), MemoryModel::default().with_latency(30));
    stand.access(&read(0, 0));
    assert_eq!(stand.metrics().mem_cycles, 32);
}

#[test]
fn bounce_back_hit_costs_three_cycles_and_locks_two() {
    let mut c = SoftCache::new(SoftCacheConfig::soft());
    c.access(&read(0, 0));
    // Line 256 maps to set 0 of the 256-set cache: line 0 moves to the
    // bounce-back cache.
    c.access(&read(256, 10));
    assert_eq!(cost_of(&mut c, read(0, 10)), 3, "bounce-back hit");
    assert_eq!(c.metrics().swaps, 1);
    // Issued right after the swap, the next access waits out the 2 lock
    // cycles, then hits in 1.
    let stall_before = c.metrics().stall_cycles;
    assert_eq!(cost_of(&mut c, read(0, 0)), 2 + 1);
    assert_eq!(c.metrics().stall_cycles - stall_before, 2);
    // One cycle later, only one lock cycle is left.
    c.access(&read(256, 10));
    c.access(&read(0, 10));
    assert_eq!(cost_of(&mut c, read(0, 1)), 1 + 1);
}

#[test]
fn prefetched_line_hit_costs_one_extra_cycle() {
    let mut c = SoftCache::new(SoftCacheConfig::soft().with_prefetch(true));
    // A spatial miss on line 0 fills the virtual line {0, 1} (24 cycles)
    // and prefetches line 2 into the bounce-back cache.
    assert_eq!(cost_of(&mut c, read(0, 0).with_spatial(true)), 24);
    assert_eq!(c.metrics().prefetches, 1);
    // Long after its arrival, line 2 hits in the bounce-back cache:
    // 3 cycles plus 1 for checking the next prefetched line.
    assert_eq!(cost_of(&mut c, read(2, 200)), 3 + 1);
    assert_eq!(c.metrics().useful_prefetches, 1);
}

/// A tagged pseudo-random reference stream: loads and stores, temporal
/// and spatial tags, issue gaps, over four times the 8 KB cache.
fn tagged_trace(seed: u64, len: usize) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let addr = rng.below(1 << 15);
            let a = if rng.chance(0.3) {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            a.with_temporal(rng.chance(0.4))
                .with_spatial(rng.chance(0.6))
                .with_gap(rng.below(4) as u32)
        })
        .collect()
}

/// §2.1/§2.2 across latencies: `t_lat` enters an access's cost once per
/// fetching miss and nowhere else — a bounce-back hit fetches nothing,
/// and hits, swaps and locks do not depend on it. So of two latency
/// lanes over the same trajectory whose `stall_cycles` are equal,
/// `mem_cycles` differ by exactly `(L − L′) · misses`. Checked on every
/// such pair of an 8-latency sweep, for Standard and for Soft. with 64-
/// and 256-byte virtual lines, on the golden trace and two tagged
/// streams.
#[test]
fn latency_enters_once_per_fetching_miss() {
    let golden = read_text(include_str!("data/golden.trace").as_bytes()).expect("golden trace");
    let traces = [
        golden,
        tagged_trace(0x7A7, 8_000),
        tagged_trace(0x7A8, 8_000),
    ];
    let latencies = [5u64, 10, 15, 20, 25, 30, 35, 40];
    for trace in &traces {
        let mut engines: Vec<(&str, Box<dyn CacheSim>)> = vec![
            (
                "Stand.",
                Box::new(StandardCache::with_lanes(
                    Default::default(),
                    MemoryModel::default(),
                    &latencies,
                )),
            ),
            (
                "Soft.",
                Box::new(SoftCache::with_lanes(SoftCacheConfig::soft(), &latencies)),
            ),
            (
                "Soft. 256B",
                Box::new(SoftCache::with_lanes(
                    SoftCacheConfig::soft().with_virtual_line(256),
                    &latencies,
                )),
            ),
        ];
        for (name, engine) in &mut engines {
            engine.run(trace);
            let lanes: Vec<_> = engine
                .lane_metrics()
                .into_iter()
                .map(|m| m.expect("the paper's bus never lets a lane diverge"))
                .collect();
            let mut equal_stall_pairs = 0;
            for (i, a) in lanes.iter().enumerate() {
                for (j, b) in lanes.iter().enumerate().skip(i + 1) {
                    assert_eq!(a.misses, b.misses, "{name}: one trajectory");
                    if a.stall_cycles != b.stall_cycles {
                        continue;
                    }
                    equal_stall_pairs += 1;
                    let (la, lb) = (latencies[i] as i128, latencies[j] as i128);
                    assert_eq!(
                        a.mem_cycles as i128 - b.mem_cycles as i128,
                        (la - lb) * a.misses as i128,
                        "{name}: lat {la} vs {lb}"
                    );
                }
            }
            assert!(equal_stall_pairs > 0, "{name}: some lanes stall alike");
        }
    }
}
