//! The differential explainer's exactness contract (DESIGN.md §15):
//! for every cache organization, `diff_configs` must reconcile — each
//! side's folded outcome events equal its `Metrics`, the per-mechanism
//! divergence deltas sum exactly to the difference of the two global
//! `Metrics`, and the probed lockstep replay matches an unprobed one.
//! `diff_configs` enforces all three internally and returns `Err` on
//! any mismatch, so `Ok` *is* the assertion; the tests here sweep the
//! contract across organizations, trace shapes, and chunk sizes that
//! do not divide the trace length.

use sac_experiments::diff::diff_configs;
use sac_experiments::explain::{hit_heavy_trace, miss_heavy_trace, mixed_trace};
use sac_experiments::Config;
use sac_trace::rng::SplitMix64;
use sac_trace::{Access, Trace};

/// A seeded random trace: addresses spread over four times the standard
/// cache's footprint, a write mix, and hint tags drawn independently —
/// adversarial input for the mechanism attribution (no structure the
/// organizations were designed around).
fn random_trace(seed: u64, len: usize) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = Trace::with_capacity(format!("random-{seed}"), len);
    for _ in 0..len {
        let addr = rng.below(4 * 8192) & !7;
        let a = if rng.chance(0.3) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        t.push(
            a.with_temporal(rng.chance(0.25))
                .with_spatial(rng.chance(0.5))
                .with_gap(rng.below(8) as u32),
        );
    }
    t
}

/// Diffs Standard against every organization (including itself) over
/// one trace and chunk size; checks the reported metrics against solo
/// replays on top of the internal reconciliation.
fn check_all_organizations(trace: &Trace, chunk: usize) {
    let base = Config::standard();
    let solo_a = base.run(trace);
    for (name, config) in Config::all_organizations() {
        let report =
            diff_configs("standard", &base, name, &config, trace, chunk).unwrap_or_else(|e| {
                panic!("standard vs {name} ({}, chunk {chunk}): {e}", trace.name())
            });
        assert_eq!(
            report.metrics_a, solo_a,
            "side A metrics differ from a solo replay (vs {name}, chunk {chunk})"
        );
        assert_eq!(
            report.metrics_b,
            config.run(trace),
            "side B metrics differ from a solo replay ({name}, chunk {chunk})"
        );
        let attributed: u64 = report.mechanisms.iter().map(|m| m.count).sum();
        assert_eq!(
            attributed, report.divergent,
            "every divergent reference gets exactly one mechanism ({name})"
        );
        if name == "standard" {
            assert_eq!(report.divergent, 0, "standard vs itself never diverges");
        }
    }
}

#[test]
fn all_organizations_reconcile_on_the_golden_traces() {
    // REPLAY_CHUNK-aligned and deliberately misaligned chunk sizes:
    // 33 forces many chunk boundaries (orphan maintenance events must
    // carry forward), 777 leaves a ragged tail.
    for &chunk in &[33usize, 777] {
        check_all_organizations(&mixed_trace(6_000), chunk);
    }
    check_all_organizations(&miss_heavy_trace(6_000), 777);
    check_all_organizations(&hit_heavy_trace(4_000), 33);
}

#[test]
fn all_organizations_reconcile_on_seeded_random_traces() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        check_all_organizations(&random_trace(seed, 5_000), 997);
    }
}

#[test]
fn divergence_report_is_deterministic_across_chunk_sizes() {
    // Chunking is a replay implementation detail: the divergence set,
    // its attribution, and the rendered report must not depend on it.
    let trace = mixed_trace(6_000);
    let base = Config::standard();
    let (name, config) = Config::all_organizations()
        .into_iter()
        .find(|(n, _)| *n == "victim")
        .expect("victim organization exists");
    let a = diff_configs("standard", &base, name, &config, &trace, 33).expect("chunk 33");
    let b = diff_configs("standard", &base, name, &config, &trace, 4_096).expect("chunk 4096");
    assert_eq!(a.divergent, b.divergent);
    assert_eq!(a.render(5), b.render(5));
    let mut ja = Vec::new();
    let mut jb = Vec::new();
    a.write_jsonl(&mut ja, 5).expect("jsonl a");
    b.write_jsonl(&mut jb, 5).expect("jsonl b");
    assert_eq!(ja, jb, "diff JSONL must be chunk-size independent");
}

#[test]
fn a_zero_chunk_replays_one_reference_at_a_time() {
    let trace = mixed_trace(500);
    let base = Config::standard();
    let victim = Config::standard_victim();
    let zero = diff_configs("standard", &base, "victim", &victim, &trace, 0).expect("chunk 0");
    let one = diff_configs("standard", &base, "victim", &victim, &trace, 1).expect("chunk 1");
    assert_eq!(zero.render(5), one.render(5));
}
