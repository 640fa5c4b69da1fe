//! The mixed-trace telemetry goldens in the workspace's `tests/data`,
//! rebuilt byte for byte from the library calls that produce them: the
//! probe JSONL and the timeline JSONL of the standard, victim and soft
//! organizations, and the lockstep diff of Standard against every other
//! organization. Each call verifies its own reconciliation first.

use sac_experiments::diff::diff_configs;
use sac_experiments::explain::{explain_config, explain_timeline, mixed_trace};
use sac_experiments::runner::REPLAY_CHUNK;
use sac_experiments::Config;

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The three organizations the probe and timeline goldens cover.
fn probed_configs() -> [(&'static str, Config); 3] {
    [
        ("standard", Config::standard()),
        ("victim", Config::standard_victim()),
        ("soft", Config::soft()),
    ]
}

#[test]
fn probe_jsonl_matches_its_golden() {
    let trace = mixed_trace(200_000);
    let mut out = Vec::new();
    for (name, config) in probed_configs() {
        let label = format!("obs/mixed/{name}");
        let e = explain_config(&label, &config, &trace, 4096, 16).expect("reconciles");
        e.probe.write_jsonl(&label, &mut out).expect("write");
    }
    assert!(
        out == golden("obs_small_golden.jsonl"),
        "probe JSONL differs from tests/data/obs_small_golden.jsonl"
    );
}

#[test]
fn timeline_jsonl_matches_its_golden() {
    let trace = mixed_trace(200_000);
    let mut out = Vec::new();
    for (name, config) in probed_configs() {
        let label = format!("timeline/mixed/{name}");
        let (tl, _) = explain_timeline(&label, &config, &trace, sac_obs::DEFAULT_WINDOW_REFS)
            .expect("window sums reconcile");
        tl.write_jsonl(&label, &mut out).expect("write");
    }
    assert!(
        out == golden("timeline_small_golden.jsonl"),
        "timeline JSONL differs from tests/data/timeline_small_golden.jsonl"
    );
}

#[test]
fn diff_against_standard_matches_its_golden() {
    let trace = mixed_trace(50_000);
    let base = Config::standard();
    let mut out = String::new();
    let mut pairs = 0;
    for (name, config) in Config::all_organizations() {
        if name == "standard" {
            continue;
        }
        let report = diff_configs("standard", &base, name, &config, &trace, REPLAY_CHUNK)
            .unwrap_or_else(|e| panic!("standard vs {name}: {e}"));
        out.push_str(&report.render(3));
        out.push('\n');
        pairs += 1;
    }
    assert_eq!(pairs, 7, "one pair per non-standard organization");
    assert!(
        out.as_bytes() == golden("diff_all_small_golden.txt"),
        "diff reports differ from tests/data/diff_all_small_golden.txt"
    );
}
