//! Property-based tests over the core invariants: metric conservation
//! for every engine on arbitrary tagged traces, virtual-line block
//! arithmetic, fill-buffer FIFO discipline and write-buffer timing.
//!
//! The build environment is offline, so instead of `proptest` these use
//! a hand-rolled generator seeded from [`SplitMix64`]: each property runs
//! over `CASES` independently generated inputs, and every assertion
//! message carries the case seed so a failure is reproducible.

use software_assisted_caches::core::{
    virtual_block, AssistCache, AssistPolicy, FillBuffer, FillSlot, SoftCache, SoftCacheConfig,
    SoftPolicy,
};
use software_assisted_caches::simcache::{
    classify_misses, BypassCache, BypassMode, BypassPolicy, CacheGeometry, CacheSim,
    ColAssocPolicy, ColumnAssociativeCache, MemoryModel, Metrics, NextLinePrefetchCache,
    PrefetchPolicy, StandardCache, StandardPolicy, StreamBufferCache, StreamPolicy, VictimCache,
    VictimPolicy, WriteBuffer,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{Access, Trace};

/// The software-assisted cache running `cfg`.
fn soft_cache(cfg: SoftCacheConfig) -> SoftCache {
    SoftCache::new(SoftPolicy::new(cfg), cfg.memory)
}

const CASES: u64 = 64;

/// Runs `f` once per case with a per-case generator; the seed is passed
/// through so failures can name the offending case.
fn for_each_case(f: impl Fn(u64, &mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5AC0_0000 + case);
        f(case, &mut rng);
    }
}

/// An arbitrary tagged access over a bounded footprint.
fn gen_access(rng: &mut SplitMix64) -> Access {
    let addr = rng.below(4096) * 8;
    let a = if rng.chance(0.5) {
        Access::write(addr)
    } else {
        Access::read(addr)
    };
    a.with_temporal(rng.chance(0.5))
        .with_spatial(rng.chance(0.5))
        .with_gap(1 + rng.below(19) as u32)
}

/// A 1..600 entry trace of arbitrary tagged accesses.
fn gen_trace(rng: &mut SplitMix64) -> Trace {
    let len = 1 + rng.below(599);
    (0..len).map(|_| gen_access(rng)).collect()
}

/// Invariants every engine must maintain on any input.
fn check_conservation(case: u64, m: &Metrics, trace: &Trace) {
    assert_eq!(m.refs as usize, trace.len(), "case {case}");
    assert_eq!(m.reads + m.writes, m.refs, "case {case}");
    assert_eq!(
        m.main_hits + m.aux_hits + m.misses + m.bypasses,
        m.refs,
        "case {case}"
    );
    assert!(
        m.amat() >= 1.0,
        "case {case}: an access costs at least one cycle: {m}"
    );
    let ratio = m.miss_ratio();
    assert!((0.0..=1.0).contains(&ratio), "case {case}");
    assert!(m.hit_ratio() + ratio <= 1.0 + 1e-9, "case {case}");
    // Useful prefetches never exceed issued prefetches.
    assert!(m.useful_prefetches <= m.prefetches, "case {case}");
}

#[test]
fn standard_cache_conserves_references() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let mut c = StandardCache::new(
            StandardPolicy::new(CacheGeometry::new(1024, 32, 1)),
            MemoryModel::default(),
        );
        c.run(&trace);
        check_conservation(case, c.metrics(), &trace);
    });
}

#[test]
fn victim_cache_conserves_references() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let mut c = VictimCache::new(
            VictimPolicy::new(CacheGeometry::new(1024, 32, 1), 4),
            MemoryModel::default(),
        );
        c.run(&trace);
        check_conservation(case, c.metrics(), &trace);
    });
}

#[test]
fn bypass_cache_conserves_references() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        for mode in [BypassMode::Plain, BypassMode::Buffered { lines: 2 }] {
            let mut c = BypassCache::new(
                BypassPolicy::new(CacheGeometry::new(1024, 32, 1), mode),
                MemoryModel::default(),
            );
            c.run(&trace);
            check_conservation(case, c.metrics(), &trace);
        }
    });
}

#[test]
fn prefetch_cache_conserves_references() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let mut c = NextLinePrefetchCache::new(
            PrefetchPolicy::new(CacheGeometry::new(1024, 32, 1), 4),
            MemoryModel::default(),
        );
        c.run(&trace);
        check_conservation(case, c.metrics(), &trace);
    });
}

#[test]
fn related_designs_conserve_references() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let geom = CacheGeometry::new(1024, 32, 1);
        let mem = MemoryModel::default();
        {
            let mut c = StreamBufferCache::new(StreamPolicy::new(geom, 2, 4), mem);
            c.run(&trace);
            check_conservation(case, c.metrics(), &trace);
        }
        {
            let mut c = ColumnAssociativeCache::new(ColAssocPolicy::new(geom), mem);
            c.run(&trace);
            check_conservation(case, c.metrics(), &trace);
        }
        {
            let mut c = AssistCache::new(AssistPolicy::new(geom, 4), mem);
            c.run(&trace);
            check_conservation(case, c.metrics(), &trace);
        }
    });
}

#[test]
fn miss_classification_is_bounded_and_consistent() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let geom = CacheGeometry::new(1024, 32, 1);
        let c = classify_misses(&trace, geom);
        assert_eq!(c.refs as usize, trace.len(), "case {case}");
        assert!(c.total() as usize <= trace.len(), "case {case}");
        // The real organization can never beat the compulsory floor.
        assert!(c.total() >= c.compulsory, "case {case}");
        // And the standard engine's miss count matches the classifier's.
        let mut sim = StandardCache::new(StandardPolicy::new(geom), MemoryModel::default());
        sim.run(&trace);
        assert_eq!(sim.metrics().misses, c.total(), "case {case}");
    });
}

#[test]
fn soft_cache_conserves_references() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let cfg = SoftCacheConfig::soft()
            .with_geometry(CacheGeometry::new(1024, 32, 1))
            .with_bounce_lines(4)
            .with_prefetch(true);
        let mut c = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        c.run(&trace);
        check_conservation(case, c.metrics(), &trace);
    });
}

#[test]
fn soft_cache_conserves_on_all_paper_configs() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        for cfg in [
            SoftCacheConfig::soft(),
            SoftCacheConfig::temporal_only(),
            SoftCacheConfig::spatial_only(),
            SoftCacheConfig::simplified_assoc(2),
        ] {
            let mut c = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
            c.run(&trace);
            check_conservation(case, c.metrics(), &trace);
        }
    });
}

#[test]
fn engines_are_deterministic() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let run = |trace: &Trace| {
            let mut c = soft_cache(SoftCacheConfig::soft().with_prefetch(true));
            c.run(trace);
            *c.metrics()
        };
        assert_eq!(run(&trace), run(&trace), "case {case}");
    });
}

#[test]
fn virtual_block_contains_and_aligns() {
    for_each_case(|case, rng| {
        let line = rng.below(100_000);
        let span_pow = rng.below(4) as u32;
        let ls = 32u64;
        let vls = ls << span_pow;
        let block = virtual_block(line, ls, vls);
        assert!(block.contains(&line), "case {case}");
        assert_eq!(block.end - block.start, vls / ls, "case {case}");
        assert_eq!(block.start % (vls / ls), 0, "case {case}");
    });
}

#[test]
fn virtual_blocks_tile_the_address_space() {
    // Every line maps into exactly one virtual block: two lines share a
    // block iff they agree on the block index, and blocks never overlap.
    for_each_case(|case, rng| {
        let ls = 16u64 << rng.below(3); // 16, 32 or 64-byte lines
        let vls = ls << rng.below(4);
        let a = rng.below(10_000);
        let b = rng.below(10_000);
        let ba = virtual_block(a, ls, vls);
        let bb = virtual_block(b, ls, vls);
        let span = vls / ls;
        assert_eq!(ba == bb, a / span == b / span, "case {case}");
        assert!(
            ba == bb || ba.end <= bb.start || bb.end <= ba.start,
            "case {case}: distinct blocks {ba:?} and {bb:?} overlap"
        );
    });
}

#[test]
fn fill_buffer_preserves_fifo_order_against_a_model() {
    // Random push/pop interleavings must match a queue model exactly and
    // never exceed the declared capacity.
    for_each_case(|case, rng| {
        let capacity = 1 + rng.index(8);
        let mut fifo = FillBuffer::new(capacity);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut pushed = 0u64;
        let mut peak = 0usize;
        for step in 0..200 {
            let push = fifo.len() < capacity && (fifo.is_empty() || rng.chance(0.5));
            if push {
                let line = rng.below(1 << 20);
                fifo.push(FillSlot {
                    line,
                    set: line % 256,
                    way: 0,
                });
                model.push_back(line);
                pushed += 1;
                peak = peak.max(model.len());
            } else {
                let got = fifo.pop().map(|s| s.line);
                assert_eq!(got, model.pop_front(), "case {case} step {step}");
            }
            assert_eq!(fifo.len(), model.len(), "case {case} step {step}");
            assert!(fifo.len() <= capacity, "case {case} step {step}");
            assert_eq!(fifo.is_empty(), model.is_empty(), "case {case} step {step}");
        }
        assert_eq!(fifo.total_pushes(), pushed, "case {case}");
        assert_eq!(fifo.peak(), peak, "case {case}");
        // Draining returns the remaining lines in push order.
        while let Some(slot) = fifo.pop() {
            assert_eq!(Some(slot.line), model.pop_front(), "case {case} drain");
        }
        assert!(model.is_empty(), "case {case}");
    });
}

#[test]
fn write_buffer_never_goes_back_in_time() {
    for_each_case(|case, rng| {
        let mut wb = WriteBuffer::new(4, 3);
        let mut now = 0u64;
        let pushes = 1 + rng.below(39);
        for line in 0..pushes {
            now += rng.below(50);
            let stall = wb.push(now, line);
            // A stall is bounded by the full drain of the buffer.
            assert!(stall <= 4 * 3, "case {case}");
            // The line just pushed is pending once the stall is over.
            assert!(wb.snoop(now + stall, line), "case {case}");
        }
    });
}

#[test]
fn hit_plus_miss_cycles_bound_amat() {
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        // AMAT is bounded above by the cost of missing on every access
        // with the largest virtual line plus worst-case stalls.
        let mut c = soft_cache(SoftCacheConfig::soft().with_virtual_line(256));
        c.run(&trace);
        let worst = 20.0 + (8.0 * 32.0) / 16.0 + 16.0; // fetch + generous stall slack
        assert!(c.metrics().amat() <= worst, "case {case}: {}", c.metrics());
    });
}

/// Separate regression: zero-length traces are harmless.
#[test]
fn empty_trace_is_fine_everywhere() {
    let empty = Trace::new("empty");
    let mut soft = soft_cache(SoftCacheConfig::soft());
    soft.run(&empty);
    assert_eq!(soft.metrics().refs, 0);
    assert_eq!(soft.metrics().amat(), 0.0);
}

/// Reconciliation contract between the telemetry probe and the engine
/// counters, asserted per case: the event totals reconcile with the
/// `Metrics` (`Metrics::reconcile_classified`, 3C causes included), and the
/// reuse / miss-interval sketches must cover every reference.
fn check_probe_reconciles(
    case: u64,
    engine: &str,
    m: &Metrics,
    p: &software_assisted_caches::obs::TracingProbe,
) {
    m.reconcile_classified(p.counts())
        .unwrap_or_else(|e| panic!("case {case} {engine}: {e}"));
    assert_eq!(
        p.reuse_cold() + p.reuse().total(),
        m.refs,
        "case {case} {engine}: reuse sketch coverage"
    );
    assert_eq!(
        p.miss_intervals().total(),
        m.misses,
        "case {case} {engine}: miss intervals"
    );
}

/// Property: the tracing probe reconciles exactly with the metrics of
/// both probed engines on arbitrary tagged traces, random geometries and
/// random soft-cache features, across chunk boundaries and a final flush.
#[test]
fn tracing_probe_reconciles_with_metrics_on_random_traces() {
    use software_assisted_caches::obs::{ObsConfig, TracingProbe};
    for_each_case(|case, rng| {
        let trace = gen_trace(rng);
        let geom = CacheGeometry::new(
            [4096u64, 8192][rng.index(2)],
            [32u64, 64][rng.index(2)],
            [1u32, 2][rng.index(2)],
        );
        let mem = MemoryModel::new(5 + rng.below(30), [8u64, 16][rng.index(2)]);
        let obs = ObsConfig::for_cache(geom.lines(), geom.sets(), geom.line_bytes())
            .with_ring(64, 1 + rng.below(7));
        let chunk = 13 + rng.below(80) as usize;

        let mut std =
            StandardCache::with_probe(StandardPolicy::new(geom), mem, TracingProbe::new(obs));
        for c in trace.as_slice().chunks(chunk) {
            std.run_chunk(c);
        }
        std.invalidate_all(); // exercises the Flush event path
        std.probe_mut().finish();
        let m = *std.metrics();
        check_probe_reconciles(case, "standard", &m, std.probe());

        let cfg = SoftCacheConfig::soft()
            .with_geometry(geom)
            .with_memory(mem)
            .with_virtual_line(geom.line_bytes() * (1 << rng.below(3)))
            .with_prefetch(rng.chance(0.5));
        let mut soft =
            SoftCache::with_probe(SoftPolicy::new(cfg), cfg.memory, TracingProbe::new(obs));
        for c in trace.as_slice().chunks(chunk) {
            soft.run_chunk(c);
        }
        soft.invalidate_all();
        soft.probe_mut().finish();
        let m = *soft.metrics();
        check_probe_reconciles(case, "soft", &m, soft.probe());
    });
}
