//! End-to-end invariants of the multi-core coherent memory system.
//!
//! Five families, mirroring the coherence design notes in DESIGN.md §16:
//!
//! 1. **SWMR fuzz** — on seeded-random multi-CPU traces, the
//!    single-writer/multiple-reader invariant holds after *every* access
//!    (at most one owner per line; an M or E copy is the sole cached
//!    copy; no invalid slot keeps a word mask), under MESI and Dragon
//!    alike.
//! 2. **Reconciliation** — the per-CPU [`Metrics`] blocks merge exactly
//!    into the global block, reference for reference and cycle for
//!    cycle.
//! 3. **False-sharing ping-pong** — a 2-CPU trace whose CPUs write
//!    disjoint words of the same line shows an invalidation ping-pong
//!    (classified ~100% false sharing) that the same references run on
//!    1 CPU do not exhibit at all.
//! 4. **Write-buffer drain ordering under snooping** — a dirty line
//!    pending in a core's write buffer is visible to a remote BusRd that
//!    races the drain (forwarded at cache-to-cache cost), and invisible
//!    one cycle after the drain completes.
//! 5. **Frozen counters** — twelve seeded runs (MESI and Dragon, 2–4
//!    CPUs, tight and standard geometry) book exactly the per-CPU
//!    coherence counters (false sharing included), global metrics and
//!    bus totals pinned as literals. Six more runs on a zero-latency,
//!    one-byte bus with a write-heavy mix book write-buffer forwards
//!    under both protocols, so the forwarding path is pinned by seeded
//!    runs as well as by the hand-built races of family 4.
//!
//! The build environment is offline, so instead of `proptest` the fuzz
//! uses the hand-rolled [`SplitMix64`] generator; every assertion
//! message carries the case seed so a failure is reproducible.

use software_assisted_caches::simcache::{
    CacheGeometry, CoherenceProtocol, CoherentSystem, CpuCoherence, Dragon, MemoryModel, Mesi,
    Metrics, SNOOP_CYCLES,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{interleave_round_robin, Access, Trace, MAX_CPUS};
use software_assisted_caches::workloads::sharing;

/// A seeded pseudo-random stream over `lines` cache lines' worth of
/// addresses, a `write_frac` share of them writes, with small issue
/// gaps.
fn random_stream(seed: u64, len: usize, lines: u64, write_frac: f64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = Trace::new("fuzz");
    for _ in 0..len {
        let addr = rng.below(lines * 4) * 8;
        let a = if rng.chance(write_frac) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        t.push(a.with_gap(rng.below(3) as u32));
    }
    t
}

/// A multi-CPU interleave of `cpus` independently seeded streams, 40%
/// writes.
fn random_multi(seed: u64, cpus: usize, len_per_cpu: usize, lines: u64) -> Trace {
    mixed_multi(seed, cpus, len_per_cpu, lines, 0.4)
}

/// [`random_multi`] with a `write_frac` share of writes.
fn mixed_multi(seed: u64, cpus: usize, len_per_cpu: usize, lines: u64, write_frac: f64) -> Trace {
    let streams: Vec<Trace> = (0..cpus as u64)
        .map(|c| random_stream(seed ^ (c << 32) | c, len_per_cpu, lines, write_frac))
        .collect();
    interleave_round_robin("fuzz-multi", &streams)
}

/// A small, conflict-prone geometry: 8 sets, direct-mapped, 32 B lines.
fn tight_geom() -> CacheGeometry {
    CacheGeometry::new(256, 32, 1)
}

#[test]
fn swmr_holds_at_every_step_mesi() {
    for case in 0..24u64 {
        let cpus = 2 + (case % 3) as usize; // 2..=4
        let trace = random_multi(0x5AC0_0000 + case, cpus, 400, 8);
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(tight_geom(), MemoryModel::default(), cpus);
        for (i, a) in trace.iter().enumerate() {
            sys.access(a);
            sys.check_swmr()
                .unwrap_or_else(|e| panic!("case {case}, after access {i}: {e}"));
        }
    }
}

#[test]
fn swmr_holds_at_every_step_dragon() {
    for case in 0..12u64 {
        let cpus = 2 + (case % 3) as usize;
        let trace = random_multi(0xD7A6_0000 + case, cpus, 400, 8);
        let mut sys: CoherentSystem<Dragon> =
            CoherentSystem::new(tight_geom(), MemoryModel::default(), cpus);
        for (i, a) in trace.iter().enumerate() {
            sys.access(a);
            sys.check_swmr()
                .unwrap_or_else(|e| panic!("case {case}, after access {i}: {e}"));
        }
    }
}

/// The shape every case of one frozen table shares.
struct FrozenSetup {
    mem: MemoryModel,
    /// Cache lines' worth of addresses the tight-geometry streams cover
    /// (the standard geometry's streams cover 384).
    tight_lines: u64,
    write_frac: f64,
}

/// Everything a seeded run books: each CPU's coherence counters, the
/// global metrics, and the bus's transaction and occupancy totals.
fn frozen_run<Proto: CoherenceProtocol>(
    geom: CacheGeometry,
    setup: &FrozenSetup,
    cpus: usize,
    seed: u64,
    lines: u64,
) -> (Vec<CpuCoherence>, Metrics, [u64; 2]) {
    let trace = mixed_multi(seed, cpus, 2_000, lines, setup.write_frac);
    let mut sys: CoherentSystem<Proto> = CoherentSystem::new(geom, setup.mem, cpus);
    sys.run(&trace);
    (
        sys.stats().per_cpu().to_vec(),
        *sys.metrics(),
        [sys.bus().transactions(), sys.bus().occupancy_cycles()],
    )
}

/// One frozen case: the run's shape and the counters it must book.
struct Frozen {
    dragon: bool,
    standard: bool,
    cpus: usize,
    /// refs, reads, writes, main hits, misses, mem cycles, lines
    /// fetched, words fetched, writebacks, stall cycles (every other
    /// [`Metrics`] field is zero).
    metrics: [u64; 10],
    /// Per CPU: invalidations sent, received, false sharing, upgrades,
    /// c2c fills, wb forwards, updates.
    per_cpu: &'static [[u64; 7]],
    /// Bus transactions, occupancy cycles.
    bus: [u64; 2],
}

#[rustfmt::skip]
const FROZEN: [Frozen; 12] = [
    Frozen { dragon: false, standard: false, cpus: 2,
        metrics: [4000, 2402, 1598, 1639, 2361, 34115, 2361, 9444, 1321, 0],
        per_cpu: &[[331, 329, 201, 161, 543, 0, 0], [329, 331, 217, 150, 573, 0, 0]],
        bus: [3355, 6710] },
    Frozen { dragon: false, standard: false, cpus: 3,
        metrics: [6000, 3624, 2376, 2094, 3906, 45044, 3906, 15624, 2120, 0],
        per_cpu: &[[571, 576, 358, 165, 841, 0, 0], [575, 572, 378, 164, 795, 0, 0],
                   [572, 570, 381, 167, 807, 0, 0]],
        bus: [5856, 11712] },
    Frozen { dragon: false, standard: false, cpus: 4,
        metrics: [8000, 4813, 3187, 2442, 5558, 57392, 5558, 22232, 2931, 0],
        per_cpu: &[[771, 733, 463, 182, 948, 0, 0], [749, 777, 498, 155, 928, 0, 0],
                   [758, 752, 501, 175, 949, 0, 0], [773, 789, 571, 160, 990, 0, 0]],
        bus: [8488, 16976] },
    Frozen { dragon: false, standard: true, cpus: 2,
        metrics: [4000, 2402, 1598, 1907, 2093, 29339, 2093, 8372, 1134, 0],
        per_cpu: &[[365, 379, 232, 184, 548, 0, 0], [379, 365, 228, 166, 525, 0, 0]],
        bus: [3200, 6400] },
    Frozen { dragon: false, standard: true, cpus: 3,
        metrics: [6000, 3624, 2376, 2372, 3628, 41412, 3628, 14512, 1949, 0],
        per_cpu: &[[626, 639, 388, 182, 778, 0, 0], [635, 628, 409, 200, 786, 0, 0],
                   [645, 639, 417, 200, 766, 0, 0]],
        bus: [5743, 11486] },
    Frozen { dragon: false, standard: true, cpus: 4,
        metrics: [8000, 4813, 3187, 2739, 5261, 54761, 5261, 21044, 2746, 0],
        per_cpu: &[[827, 786, 516, 189, 866, 0, 0], [758, 816, 555, 176, 952, 0, 0],
                   [793, 784, 526, 187, 893, 0, 0], [809, 801, 530, 195, 912, 0, 0]],
        bus: [8288, 16576] },
    Frozen { dragon: true, standard: false, cpus: 2,
        metrics: [4000, 2402, 1598, 1972, 2028, 29994, 2028, 8112, 878, 0],
        per_cpu: &[[0, 0, 0, 0, 491, 0, 391], [0, 0, 0, 0, 518, 0, 393]],
        bus: [2812, 5624] },
    Frozen { dragon: true, standard: false, cpus: 3,
        metrics: [6000, 3624, 2376, 2947, 3053, 32473, 3053, 12212, 1069, 0],
        per_cpu: &[[0, 0, 0, 0, 792, 0, 598], [0, 0, 0, 0, 753, 0, 577],
                   [0, 0, 0, 0, 743, 0, 597]],
        bus: [4825, 9650] },
    Frozen { dragon: true, standard: false, cpus: 4,
        metrics: [8000, 4813, 3187, 3948, 4052, 34432, 4052, 16208, 1225, 0],
        per_cpu: &[[0, 0, 0, 0, 854, 0, 710], [0, 0, 0, 0, 899, 0, 679],
                   [0, 0, 0, 0, 874, 0, 687], [0, 0, 0, 0, 941, 0, 706]],
        bus: [6834, 13668] },
    Frozen { dragon: true, standard: true, cpus: 2,
        metrics: [4000, 2402, 1598, 2362, 1638, 27156, 1638, 6552, 499, 0],
        per_cpu: &[[0, 0, 0, 0, 372, 0, 473], [0, 0, 0, 0, 357, 0, 467]],
        bus: [2578, 5156] },
    Frozen { dragon: true, standard: true, cpus: 3,
        metrics: [6000, 3624, 2376, 3546, 2454, 31798, 2454, 9816, 631, 0],
        per_cpu: &[[0, 0, 0, 0, 543, 0, 589], [0, 0, 0, 0, 556, 0, 608],
                   [0, 0, 0, 0, 533, 0, 623]],
        bus: [4274, 8548] },
    Frozen { dragon: true, standard: true, cpus: 4,
        metrics: [8000, 4813, 3187, 4595, 3405, 37101, 3405, 13620, 756, 0],
        per_cpu: &[[0, 0, 0, 0, 637, 0, 703], [0, 0, 0, 0, 681, 0, 661],
                   [0, 0, 0, 0, 661, 0, 669], [0, 0, 0, 0, 680, 0, 696]],
        bus: [6134, 12268] },
];

/// Six runs that book write-buffer forwards: tight geometry over 32
/// lines, 80% writes, zero memory latency and a one-byte bus. A dirty
/// victim is pushed when its miss starts and drains in `LS/w_b`, while
/// the miss itself takes `t_lat + LS/w_b`; only at `t_lat = 0` is the
/// entry still pending (on its final beat) when the next CPU's
/// back-to-back access snoops it. Recorded before the write-buffer
/// snoop's newest-entry exit.
#[rustfmt::skip]
const FORWARDING: [Frozen; 6] = [
    Frozen { dragon: false, standard: false, cpus: 2,
        metrics: [4000, 774, 3226, 843, 3157, 103543, 3157, 12628, 2666, 0],
        per_cpu: &[[322, 337, 232, 27, 374, 9, 0], [337, 322, 231, 27, 392, 9, 0]],
        bus: [3882, 122604] },
    Frozen { dragon: false, standard: false, cpus: 3,
        metrics: [6000, 1193, 4807, 1100, 4900, 162048, 4900, 19600, 4108, 0],
        per_cpu: &[[612, 585, 398, 38, 673, 9, 0], [584, 581, 391, 35, 623, 6, 0],
                   [577, 607, 432, 42, 643, 5, 0]],
        bus: [6733, 212006] },
    Frozen { dragon: false, standard: false, cpus: 4,
        metrics: [8000, 1638, 6362, 1233, 6767, 224725, 6767, 27068, 5630, 0],
        per_cpu: &[[771, 751, 515, 41, 804, 3, 0], [771, 778, 551, 53, 798, 1, 0],
                   [782, 758, 538, 51, 839, 2, 0], [756, 793, 595, 39, 839, 4, 0]],
        bus: [9856, 309872] },
    Frozen { dragon: true, standard: false, cpus: 2,
        metrics: [4000, 774, 3226, 1020, 2980, 99418, 2980, 11920, 2089, 0],
        per_cpu: &[[0, 0, 0, 0, 358, 6, 385], [0, 0, 0, 0, 368, 7, 395]],
        bus: [3760, 96920] },
    Frozen { dragon: true, standard: false, cpus: 3,
        metrics: [6000, 1193, 4807, 1551, 4449, 152007, 4449, 17796, 2574, 0],
        per_cpu: &[[0, 0, 0, 0, 678, 6, 733], [0, 0, 0, 0, 634, 1, 688],
                   [0, 0, 0, 0, 624, 3, 677]],
        bus: [6547, 146564] },
    Frozen { dragon: true, standard: false, cpus: 4,
        metrics: [8000, 1638, 6362, 1995, 6005, 208301, 6005, 24020, 3026, 0],
        per_cpu: &[[0, 0, 0, 0, 821, 3, 895], [0, 0, 0, 0, 856, 0, 914],
                   [0, 0, 0, 0, 866, 0, 913], [0, 0, 0, 0, 899, 1, 905]],
        bus: [9632, 199414] },
];

#[test]
fn seeded_runs_book_frozen_counters() {
    // The false-sharing column is the only check of the word masks
    // beyond the 0%/100% sharing kernels: a mask that survives a
    // refill, or is cleared too early, moves it.
    let setup = FrozenSetup {
        mem: MemoryModel::default(),
        tight_lines: 16,
        write_frac: 0.4,
    };
    check_frozen(&FROZEN, &setup);
}

#[test]
fn seeded_forwarding_runs_book_frozen_counters() {
    let setup = FrozenSetup {
        mem: MemoryModel::new(0, 1),
        tight_lines: 32,
        write_frac: 0.8,
    };
    check_frozen(&FORWARDING, &setup);
    for dragon in [false, true] {
        assert!(
            FORWARDING
                .iter()
                .filter(|f| f.dragon == dragon)
                .any(|f| f.per_cpu.iter().any(|c| c[5] > 0)),
            "the forwarding table must pin a forward under {}",
            if dragon { "Dragon" } else { "MESI" }
        );
    }
}

fn check_frozen(cases: &[Frozen], setup: &FrozenSetup) {
    for f in cases {
        let case = format!(
            "{} {} geometry, {} CPUs",
            if f.dragon { "Dragon" } else { "MESI" },
            if f.standard { "standard" } else { "tight" },
            f.cpus
        );
        let (geom, lines) = if f.standard {
            (CacheGeometry::standard(), 384)
        } else {
            (tight_geom(), setup.tight_lines)
        };
        let seed = 0xF20_0000 + f.cpus as u64;
        let (per_cpu, metrics, bus) = if f.dragon {
            frozen_run::<Dragon>(geom, setup, f.cpus, seed, lines)
        } else {
            frozen_run::<Mesi>(geom, setup, f.cpus, seed, lines)
        };
        let want_cpu: Vec<CpuCoherence> = f
            .per_cpu
            .iter()
            .map(|&[s, r, fs, u, c2c, wbf, upd]| CpuCoherence {
                invalidations_sent: s,
                invalidations_received: r,
                false_sharing_invalidations: fs,
                upgrades: u,
                c2c_fills: c2c,
                wb_forwards: wbf,
                updates: upd,
            })
            .collect();
        assert_eq!(per_cpu, want_cpu, "{case}: per-CPU coherence counters");
        let [refs, reads, writes, main_hits, misses, mem_cycles, lines_fetched, words_fetched, writebacks, stall_cycles] =
            f.metrics;
        let want = Metrics {
            refs,
            reads,
            writes,
            main_hits,
            misses,
            mem_cycles,
            lines_fetched,
            words_fetched,
            writebacks,
            stall_cycles,
            ..Metrics::default()
        };
        assert_eq!(metrics, want, "{case}: global metrics");
        assert_eq!(bus, f.bus, "{case}: bus transactions and occupancy");
    }
}

#[test]
fn per_cpu_outcome_totals_reconcile_exactly_with_global_metrics() {
    for case in 0..16u64 {
        let cpus = 2 + (case % 3) as usize;
        let trace = random_multi(0xBEEF_0000 + case, cpus, 1500, 64);
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), cpus);
        sys.run(&trace);
        let merged = Metrics::merged((0..cpus).map(|c| sys.core_metrics(c)));
        assert_eq!(
            merged,
            *sys.metrics(),
            "case {case}: per-CPU metrics must merge exactly into the global block"
        );
        sys.metrics()
            .check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        // Every CPU saw its own share of the interleave, nothing more.
        for c in 0..cpus {
            assert_eq!(
                sys.core_metrics(c).refs,
                1500,
                "case {case}: cpu {c} ref count"
            );
        }
    }
}

#[test]
fn max_cpus_interleave_runs_clean() {
    let trace = random_multi(0xCAFE, MAX_CPUS, 1000, 32);
    let mut sys: CoherentSystem<Mesi> =
        CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), MAX_CPUS);
    sys.run(&trace);
    sys.check_swmr().unwrap();
    assert_eq!(sys.metrics().refs, (MAX_CPUS * 1000) as u64);
}

#[test]
fn false_sharing_ping_pong_absent_on_one_cpu() {
    // Two CPUs write disjoint words of the same lines.
    let trace = sharing::false_sharing(2, 2_000, 4);
    let mut two: CoherentSystem<Mesi> =
        CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), 2);
    two.run(&trace);
    two.check_swmr().unwrap();
    let t2 = two.stats().totals();
    assert!(
        t2.invalidations_received > 1_000,
        "2-CPU run must ping-pong: {t2:?}"
    );
    assert!(
        t2.false_sharing_invalidations as f64 >= 0.99 * t2.invalidations_received as f64,
        "disjoint words must classify as false sharing: {t2:?}"
    );

    // The same references, all issued from CPU 0: no coherence activity
    // and (after the cold fills) no misses at all.
    let mut solo_trace = Trace::new("false_sharing_solo");
    for a in &trace {
        solo_trace.push(a.with_cpu(0));
    }
    let mut one: CoherentSystem<Mesi> =
        CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), 1);
    one.run(&solo_trace);
    one.check_swmr().unwrap();
    let t1 = one.stats().totals();
    assert_eq!(t1.invalidations_received, 0, "1 CPU cannot invalidate");
    assert_eq!(t1.upgrades + t1.c2c_fills + t1.updates, 0, "{t1:?}");
    assert!(
        one.metrics().misses < two.metrics().misses / 100,
        "solo run keeps the lines resident: {} vs {}",
        one.metrics().misses,
        two.metrics().misses
    );
    // Dragon on the 2-CPU trace: updates instead of ping-pong.
    let mut dragon: CoherentSystem<Dragon> =
        CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), 2);
    dragon.run(&trace);
    dragon.check_swmr().unwrap();
    let td = dragon.stats().totals();
    assert_eq!(td.invalidations_received, 0, "Dragon never invalidates");
    assert!(td.updates > 1_000, "{td:?}");
}

#[test]
fn pending_buffered_write_is_visible_to_remote_busrd_before_drain() {
    // Zero memory latency makes the fill exactly as long as the write
    // buffer's retire window, so a back-to-back remote read (gap 0)
    // arrives on the drain's final beat.
    let mem = MemoryModel::new(0, 16);
    let geom = tight_geom();
    let mut sys: CoherentSystem<Mesi> = CoherentSystem::new(geom, mem, 2);
    sys.access(&Access::write(0).with_cpu(0)); // line 0 dirty in cpu 0
    sys.access(&Access::read(256).with_cpu(0)); // conflict: evicts line 0 → wb
    assert_eq!(
        sys.metrics().writebacks,
        1,
        "eviction went through the buffer"
    );

    let before = sys.metrics().mem_cycles;
    sys.access(&Access::read(0).with_cpu(1).with_gap(0));
    let stats = sys.stats().totals();
    assert_eq!(
        stats.wb_forwards, 1,
        "racing read must forward, not re-fetch"
    );
    assert_eq!(
        sys.metrics().mem_cycles - before,
        SNOOP_CYCLES + mem.transfer_cycles(geom.line_bytes()),
        "forward is priced as a cache-to-cache fill, not a memory fill"
    );
    sys.check_swmr().unwrap();

    // One cycle later the buffer has drained to memory: the same race
    // now misses the window and pays the full memory fill.
    let mut sys: CoherentSystem<Mesi> = CoherentSystem::new(geom, mem, 2);
    sys.access(&Access::write(0).with_cpu(0));
    sys.access(&Access::read(256).with_cpu(0));
    let before = sys.metrics().mem_cycles;
    sys.access(&Access::read(0).with_cpu(1).with_gap(1));
    assert_eq!(
        sys.stats().totals().wb_forwards,
        0,
        "drained entry must not forward"
    );
    assert_eq!(
        sys.metrics().mem_cycles - before,
        mem.latency() + mem.transfer_cycles(geom.line_bytes()),
        "post-drain read pays the memory fill"
    );
}

#[test]
fn producer_consumer_hands_off_cache_to_cache() {
    let trace = sharing::producer_consumer(2, 500, 4);
    let mut sys: CoherentSystem<Mesi> =
        CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), 2);
    sys.run(&trace);
    sys.check_swmr().unwrap();
    let t = sys.stats().totals();
    // Every consumer refill after the first round comes from the
    // producer's cache, and the sharing is true (same words).
    assert!(t.c2c_fills > 400, "{t:?}");
    assert_eq!(
        t.false_sharing_invalidations, 0,
        "producer/consumer shares the very words it writes: {t:?}"
    );
}
