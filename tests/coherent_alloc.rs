//! The coherent driver's hot path allocates nothing.
//!
//! A counting global allocator tallies the calling thread's
//! allocations. After a warm-up pass (which sizes every core's write
//! buffer), 100k more MESI and Dragon accesses at 4 CPUs must not
//! allocate at all: every per-access structure is a fixed-size sidecar
//! of the tag array. A map or growable buffer on the hot path fails
//! this test deterministically.
//!
//! The one file of the workspace that allows `unsafe_code`: forwarding
//! a `GlobalAlloc` to `System` takes an `unsafe impl`.

#![allow(unsafe_code)]

use software_assisted_caches::simcache::{
    CacheGeometry, CoherenceProtocol, CoherentSystem, Dragon, MemoryModel, Mesi,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{interleave_round_robin, Access, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread so the test
/// harness's own threads cannot disturb the tally.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so an allocation during thread teardown is not an error.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const CPUS: usize = 4;
const MEASURED: usize = 100_000;

/// Four seeded streams over 384 lines: more than the standard cache
/// holds, so the measured run fills, evicts, invalidates, upgrades and
/// writes back as well as hits.
fn sharing_trace(seed: u64, len_per_cpu: usize) -> Trace {
    let streams: Vec<Trace> = (0..CPUS as u64)
        .map(|c| {
            let mut rng = SplitMix64::seed_from_u64(seed + c);
            let mut t = Trace::new("alloc");
            for _ in 0..len_per_cpu {
                let addr = rng.below(384 * 4) * 8;
                let a = if rng.chance(0.4) {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                };
                t.push(a.with_gap(rng.below(3) as u32));
            }
            t
        })
        .collect();
    interleave_round_robin("alloc", &streams)
}

/// Allocations made by `MEASURED` accesses after a warm-up run.
fn steady_state_allocations<Proto: CoherenceProtocol>() -> u64 {
    let warm = sharing_trace(0xA110C, 10_000);
    let measured = sharing_trace(0x5EED, MEASURED / CPUS);
    let mut sys: CoherentSystem<Proto> =
        CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), CPUS);
    sys.run(&warm);
    let before = allocations();
    for a in &measured {
        sys.access(a);
    }
    let n = allocations() - before;
    assert_eq!(sys.metrics().refs as usize, warm.len() + MEASURED);
    assert!(sys.metrics().misses > 10_000, "the run must miss");
    n
}

#[test]
fn warmed_up_accesses_do_not_allocate() {
    assert_eq!(steady_state_allocations::<Mesi>(), 0, "MESI");
    assert_eq!(steady_state_allocations::<Dragon>(), 0, "Dragon");
}
