//! The timeline reconciliation invariant (DESIGN.md §13), end to end:
//! folding a run into fixed-width windows loses nothing. For every
//! cache organization, summing the per-window deltas must reproduce
//! the unprobed engine's global `Metrics` counters *exactly* — on the
//! committed golden trace and on seeded random traces — and attaching
//! the `Timeline` probe must not perturb the simulation itself.

use software_assisted_caches::experiments::explain::{
    explain_timeline, run_probed, verify_timeline,
};
use software_assisted_caches::experiments::Config;
use software_assisted_caches::obs::Timeline;
use software_assisted_caches::simcache::{BypassMode, CacheGeometry, MemoryModel};
use software_assisted_caches::trace::io::read_text;
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{Access, Trace};

/// All eight cache organizations, at the shapes the figures use.
fn all_configs() -> Vec<(&'static str, Config)> {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    vec![
        ("standard", Config::standard()),
        ("victim", Config::standard_victim()),
        (
            "bypass",
            Config::Bypass {
                geom,
                mem,
                mode: BypassMode::Buffered { lines: 4 },
            },
        ),
        (
            "prefetch",
            Config::HwPrefetch {
                geom,
                mem,
                lines: 8,
            },
        ),
        (
            "stream",
            Config::StreamBuffer {
                geom,
                mem,
                buffers: 4,
                depth: 4,
            },
        ),
        ("colassoc", Config::ColumnAssoc { geom, mem }),
        (
            "assist",
            Config::Assist {
                geom,
                mem,
                lines: 16,
            },
        ),
        ("soft", Config::soft()),
    ]
}

fn golden() -> Trace {
    let text = include_str!("data/golden.trace");
    let trace = read_text(text.as_bytes()).expect("golden trace parses");
    assert_eq!(trace.len(), 280);
    trace
}

fn random_trace(seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let len = 2_000 + rng.below(3_000);
    (0..len)
        .map(|_| {
            let addr = rng.below(1 << 14) * 8;
            let a = if rng.chance(0.7) {
                Access::read(addr)
            } else {
                Access::write(addr)
            };
            a.with_temporal(rng.chance(0.5))
                .with_spatial(rng.chance(0.5))
                .with_gap(1 + rng.below(7) as u32)
        })
        .collect()
}

/// Window sums equal the *unprobed* engine's global counters on the
/// golden trace, for every organization. `explain_timeline` already
/// verifies its own probed run; comparing against a separate
/// `Config::run` additionally pins that the probe did not perturb the
/// simulation.
#[test]
fn golden_trace_windows_reconcile_for_all_organizations() {
    let trace = golden();
    for (name, config) in all_configs() {
        let label = format!("golden/{name}");
        let (tl, probed) = explain_timeline(&label, &config, &trace, 64)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let unprobed = config.run(&trace);
        assert_eq!(probed, unprobed, "{label}: probe perturbed the run");
        verify_timeline(&label, &tl, &unprobed).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Driving with chunks of exactly the window width makes every window
/// except the last exactly that wide, and the windows partition the
/// run.
#[test]
fn golden_trace_windows_are_exact_and_partition_the_run() {
    let trace = golden();
    let (tl, m) = explain_timeline("golden/width", &Config::soft(), &trace, 64).unwrap();
    let windows = tl.windows();
    assert_eq!(windows.len(), 5, "ceil(280 / 64)");
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.index, i);
        assert_eq!(w.start_ref, 64 * i as u64);
        if i + 1 < windows.len() {
            assert_eq!(w.delta.counts.refs, 64, "window {i} is exactly one width");
        }
    }
    assert_eq!(windows.last().unwrap().delta.counts.refs, 280 % 64);
    let sum: u64 = windows.iter().map(|w| w.delta.counts.refs).sum();
    assert_eq!(sum, m.refs);
    assert!(!tl.phases().is_empty());
}

/// The reconciliation invariant holds on seeded random traces for
/// every organization and several window widths (including widths that
/// do not divide the trace length).
#[test]
fn random_traces_reconcile_for_all_organizations() {
    for seed in [1u64, 2, 3] {
        let trace = random_trace(0x5AC0_7100 + seed);
        for (name, config) in all_configs() {
            for window in [128u64, 777] {
                let label = format!("rand{seed}/{name}/w{window}");
                let (tl, m) = explain_timeline(&label, &config, &trace, window)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(tl.totals().counts.refs, trace.len() as u64, "{label}");
                assert_eq!(m, config.run(&trace), "{label}: probe perturbed the run");
            }
        }
    }
}

/// A timeline fed through `run_probed` with a chunk size that is *not*
/// the window width still reconciles: windows then close at the first
/// fold at-or-past each nominal boundary (they widen, never drop
/// references).
#[test]
fn misaligned_chunks_still_reconcile() {
    let trace = random_trace(0x5AC0_71FF);
    let tl = Timeline::new(100, 64);
    let (m, mut tl) = run_probed(&Config::soft(), &trace, tl, 33);
    tl.finish();
    verify_timeline("misaligned", &tl, &m)
        .expect("window sums reconcile even with misaligned folds");
    let windows = tl.windows();
    for w in &windows[..windows.len() - 1] {
        assert_eq!(
            w.delta.counts.refs % 33,
            0,
            "windows close only at chunk folds"
        );
    }
}
