//! Frozen per-organization counters: the full [`Metrics`] of every
//! organization in the study, plus the software-assisted variants the
//! figures sweep, on the golden trace and on four seeded traces.
//!
//! `tests/replay_equivalence.rs` compares two replay paths through the
//! same tag arrays and policies, so a bug in a tag-set scan (a last-match
//! lookup, a wrong LRU tie-break, a misordered replacement class) moves
//! both sides alike and passes there. This file pins the numbers
//! themselves. `tests/data/org_frozen_counters.txt` holds one line per
//! (organization, trace) with every counter; the values were recorded
//! before the miss-path scans were rewritten as single branch-free
//! passes, and any drift names the organization, the trace and the
//! counter that moved.

use software_assisted_caches::core::SoftCacheConfig;
use software_assisted_caches::experiments::Config;
use software_assisted_caches::simcache::Metrics;
use software_assisted_caches::trace::io::{read_binary2, read_text};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{Access, Trace};

const FROZEN: &str = include_str!("data/org_frozen_counters.txt");

/// The eight organizations of [`Config::all_organizations`] and the
/// software-assisted variants whose miss paths differ: prefetching
/// (degree 1 and 3), each mechanism alone, the set-associative
/// simplified scheme, a 4-way bounce-back cache and variable-length
/// virtual lines.
fn organizations() -> Vec<(String, Config)> {
    let mut orgs: Vec<(String, Config)> = Config::all_organizations()
        .iter()
        .map(|(name, config)| (name.to_string(), *config))
        .collect();
    let soft = SoftCacheConfig::soft();
    let variants = [
        ("soft+pf", soft.with_prefetch(true)),
        ("spat-only", SoftCacheConfig::spatial_only()),
        ("temp-only", SoftCacheConfig::temporal_only()),
        ("simpl-soft-2way", SoftCacheConfig::simplified_assoc(2)),
        ("bounce-4way", soft.with_bounce_ways(Some(4))),
        ("vlines-variable", soft.with_variable_vlines(true)),
        (
            "soft+pf-degree3",
            soft.with_prefetch(true).with_prefetch_degree(3),
        ),
    ];
    orgs.extend(
        variants
            .into_iter()
            .map(|(name, cfg)| (name.to_string(), Config::Soft(cfg))),
    );
    orgs
}

/// The committed golden trace; its SAC2 fixture must decode to the same
/// references.
fn golden() -> Trace {
    let trace = read_text(include_str!("data/golden.trace").as_bytes()).expect("golden parses");
    let sac2 = read_binary2(&include_bytes!("data/golden.sact2")[..]).expect("SAC2 decodes");
    assert_eq!(sac2, trace, "golden.sact2 and golden.trace hold one trace");
    trace
}

/// A seeded trace that drives every miss path: tagged unit-stride sweeps
/// (virtual lines, progressive prefetch), a temporal hot set that
/// conflicts with the sweeps (bounce-backs), 8 KB-apart conflict groups
/// (victim, swap and 2-way replacement), sparse untagged references,
/// stores, spatial levels 0-3 and gaps long enough for prefetches to
/// arrive.
fn seeded(seed: u64, len: usize) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut sweep = [0x10_0000u64, 0x40_0000, 0x80_0000];
    (0..len)
        .map(|_| {
            let (addr, temporal, spatial) = match rng.below(10) {
                0..=3 => {
                    let s = rng.index(sweep.len());
                    sweep[s] += 8;
                    (sweep[s], false, true)
                }
                4..=5 => (0x2000 + 8 * rng.below(48), true, false),
                6..=7 => (
                    0x20_0000 + 0x2000 * rng.below(6) + 32 * rng.below(4),
                    rng.chance(0.5),
                    rng.chance(0.5),
                ),
                _ => (rng.below(1 << 18) & !7, false, rng.chance(0.3)),
            };
            let a = if rng.chance(0.25) {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            let gap = if rng.chance(0.05) {
                20 + rng.below(40)
            } else {
                rng.below(4)
            };
            a.with_temporal(temporal)
                .with_spatial(spatial)
                .with_spatial_level(rng.below(4) as u8)
                .with_gap(gap as u32)
        })
        .collect()
}

fn traces() -> Vec<(String, Trace)> {
    let mut traces = vec![("golden".to_string(), golden())];
    for k in 0..4u64 {
        traces.push((format!("seed{k}"), seeded(0x0F20_5EED + k, 6_000)));
    }
    traces
}

fn row(org: &str, trace: &str, m: &Metrics) -> String {
    format!(
        "{org} {trace} refs={} reads={} writes={} main_hits={} aux_hits={} misses={} \
         bypasses={} mem_cycles={} lines_fetched={} words_fetched={} writebacks={} \
         bounces={} swaps={} prefetches={} useful_prefetches={} stall_cycles={}",
        m.refs,
        m.reads,
        m.writes,
        m.main_hits,
        m.aux_hits,
        m.misses,
        m.bypasses,
        m.mem_cycles,
        m.lines_fetched,
        m.words_fetched,
        m.writebacks,
        m.bounces,
        m.swaps,
        m.prefetches,
        m.useful_prefetches,
        m.stall_cycles
    )
}

#[test]
fn every_organization_books_its_frozen_counters() {
    let traces = traces();
    let mut got = Vec::new();
    for (org, config) in organizations() {
        for (name, trace) in &traces {
            let m = config.run(trace);
            m.check_invariants()
                .unwrap_or_else(|e| panic!("{org} {name}: {e}"));
            got.push(row(&org, name, &m));
        }
    }
    let want: Vec<&str> = FROZEN.lines().filter(|l| !l.starts_with('#')).collect();
    if got.iter().map(String::as_str).ne(want.iter().copied()) {
        eprintln!("actual counters:\n{}", got.join("\n"));
    }
    assert_eq!(got.len(), want.len(), "row count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "frozen counters moved");
    }
}

#[test]
fn seeded_traces_exercise_every_mechanism() {
    // A frozen row of zeros pins nothing: each mechanism must fire.
    let trace = seeded(0x0F20_5EED, 6_000);
    let soft = Config::Soft(SoftCacheConfig::soft().with_prefetch(true)).run(&trace);
    assert!(soft.bounces > 0 && soft.swaps > 0 && soft.useful_prefetches > 0);
    assert!(soft.writebacks > 0 && soft.stall_cycles > 0);
    assert!(
        soft.lines_fetched > soft.misses + soft.prefetches,
        "virtual-line fills"
    );
    let victim = Config::standard_victim().run(&trace);
    assert!(victim.aux_hits > 0);
}
