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
//! - a hit on a prefetched line costs one extra cycle (§4.4).

use software_assisted_caches::core::{SoftCache, SoftCacheConfig};
use software_assisted_caches::simcache::{CacheSim, MemoryModel, StandardCache};
use software_assisted_caches::trace::Access;

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
