//! Smoke tests for the `figures` and `explain` binaries.

use std::process::Command;

#[test]
fn figures_prints_a_requested_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig04b"])
        .output()
        .expect("run figures");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 4b"));
    assert!(text.contains("> 20 cycles"));
}

#[test]
fn figures_rejects_unknown_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "fig04b", "fig99"])
        .output()
        .expect("run figures");
    // One unknown id fails the whole run before any trace is generated,
    // so a typo cannot pass for a complete batch.
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown figure id \"fig99\""), "{err}");
    assert!(err.contains("valid ids: summary fig01a"), "{err}");
    assert!(!err.contains("generating"), "{err}");
}

/// Splits `figures` stdout into its tables (each ends with a blank line).
fn tables(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .split("\n\n")
        .filter(|t| !t.trim().is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn figures_groups_compose_in_argument_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "all", "ablations"])
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tables = tables(&out.stdout);
    assert_eq!(tables.len(), 25, "19 paper figures + 6 ablations");
    assert!(tables[0].starts_with("Figure 1a"), "{}", tables[0]);
    assert!(tables[19].starts_with("Ablation"), "{}", tables[19]);
}

#[test]
fn figures_generates_no_suite_that_no_selected_figure_reads() {
    for id in ["ext-copy-vline", "fig04b"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--small", id])
            .output()
            .expect("run figures");
        assert!(out.status.success(), "{id}");
        assert_eq!(tables(&out.stdout).len(), 1, "{id}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("generating"), "{id}: {err}");
    }
}

/// The coherence sweeps book their coherent runs as cells: 12 per table,
/// with their references in the run summary, while stdout stays the
/// committed golden.
#[test]
fn figures_coherence_books_its_coherent_runs_as_cells() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--jobs", "1", "coherence"])
        .output()
        .expect("run figures");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("../../../tests/data/coherence_golden.txt")
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("coh-mesi: 12 cells in "), "{err}");
    assert!(err.contains("coh-dragon: 12 cells in "), "{err}");
    assert!(
        err.contains("sweep: 24 cells, 1296000 simulated refs"),
        "{err}"
    );
}

/// A path in the temp directory that no test creates, for checking that
/// a rejected run wrote nothing.
fn unwritten_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sac-unwritten-{tag}-{}", std::process::id()))
}

#[test]
fn figures_rejects_unknown_options_before_running() {
    // A mistyped or retired flag must not be taken for a figure id. The
    // retired side passes (`--diff`, `--coherence [--protocol]`,
    // `--obs-json`, `--timeline-json`) fail the same way, before their
    // output path is touched.
    let path = unwritten_path("figures");
    let path = path.to_str().expect("utf-8 temp path");
    let cases: [&[&str]; 6] = [
        &["--bogus"],
        &["--diff"],
        &["--coherence"],
        &["--protocol", "dragon"],
        &["--obs-json", path],
        &["--timeline-json", path],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .arg("fig04b")
            .output()
            .expect("run figures");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option {}", args[0])),
            "{args:?}: {err}"
        );
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{args:?}");
        assert!(!std::path::Path::new(path).exists(), "{args:?}");
    }
}

#[test]
fn explain_rejects_unknown_options_before_running() {
    // `--diff-json` is retired: the diff records go to `--obs-json`. The
    // probe ring and the report length are constants, not `--ring` and
    // `--top`.
    let path = unwritten_path("explain");
    let cases = [
        vec!["--bogus"],
        vec![
            "--diff",
            "soft",
            "--diff-json",
            path.to_str().expect("utf-8 temp path"),
        ],
        vec!["--ring", "8"],
        vec!["--top", "8"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_explain"))
            .args(["--small", "--len", "2000"])
            .args(&args)
            .output()
            .expect("run explain");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let flag = args
            .iter()
            .find(|a| ["--bogus", "--diff-json", "--ring", "--top"].contains(a));
        assert!(
            err.contains(&format!("unknown argument {:?}", flag.unwrap())),
            "{args:?}: {err}"
        );
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{args:?}");
        assert!(!path.exists(), "{args:?}");
    }
}

#[test]
fn explain_takes_an_explicit_len_before_small() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--len", "2000", "--small"])
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("trace        2000 refs"), "{text}");
}

#[test]
fn explain_rejects_a_len_above_its_ceiling_before_building_a_trace() {
    // u64::MAX references would overflow the trace's capacity; the
    // ceiling turns that panic into a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--len", "18446744073709551615"])
        .output()
        .expect("run explain");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--len: at most 67108864 references"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
}

/// Runs `figures` with `args` and asserts it exits 2 with `message` on
/// stderr before printing any table.
fn assert_figures_usage_error(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2), "figures {args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(message), "figures {args:?}: {err}");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
}

#[test]
fn figures_rejects_bad_csv_and_jobs_arguments_before_running() {
    assert_figures_usage_error(
        &["--small", "--jobs", "0", "fig06a"],
        "--jobs needs a positive integer",
    );
    assert_figures_usage_error(
        &["--small", "fig06a", "--csv"],
        "--csv needs a directory path",
    );
}

#[test]
fn figures_rejects_unwritable_csv_dir_before_running() {
    // A path whose parent is a regular file can never become a directory.
    let blocker = std::env::temp_dir().join(format!("sac-csv-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let dir = blocker.join("csv");
    assert_figures_usage_error(
        &[
            "--small",
            "fig06a",
            "--csv",
            dir.to_str().expect("utf-8 temp path"),
        ],
        "--csv: cannot create",
    );
    std::fs::remove_file(&blocker).ok();
}

#[test]
fn figures_markdown_writes_one_csv_per_selected_id() {
    let dir = std::env::temp_dir().join(format!("sac-csv-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "--markdown", "--csv"])
        .arg(&dir)
        .args(["summary", "all", "extensions", "ablations", "coherence"])
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("**Figure 6a"));
    assert!(text.contains("|---|"));
    assert_eq!(text.lines().filter(|l| l.starts_with("**")).count(), 35);
    assert!(text.contains("**Coherence — private vs shared data, Dragon"));
    let mut got: Vec<String> = std::fs::read_dir(&dir)
        .expect("csv dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    got.sort();
    let mut want: Vec<String> = sac_experiments::figures::REGISTRY
        .iter()
        .map(|f| format!("{}.csv", f.id))
        .collect();
    want.sort();
    assert_eq!(got, want, "one CSV per selected id, named by the id");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_exits_1_naming_the_path_when_a_csv_write_fails() {
    // A directory where the CSV file should go makes the write fail.
    let dir = std::env::temp_dir().join(format!("sac-csv-clash-{}", std::process::id()));
    let clash = dir.join("fig04b.csv");
    std::fs::create_dir_all(&clash).expect("clashing dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "fig04b", "--csv"])
        .arg(&dir)
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("failed to write {}", clash.display())),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_renders_a_breakdown_and_writes_jsonl() {
    let path = std::env::temp_dir().join(format!("sac-obs-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--config", "soft", "--sample", "4"])
        .arg("--obs-json")
        .arg(&path)
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("explain explain/mixed/soft"), "{text}");
    assert!(
        text.contains("events match metrics counters exactly"),
        "{text}"
    );
    assert!(text.contains("miss causes"), "{text}");
    let jsonl = std::fs::read_to_string(&path).expect("telemetry written");
    assert!(jsonl.starts_with("{\"type\":\"summary\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"miss_causes\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_timeline_renders_windows_and_reconciles() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args([
            "--small",
            "--config",
            "victim",
            "--timeline",
            "--window",
            "4096",
        ])
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("timeline of explain/mixed/victim"), "{text}");
    assert!(text.contains("phases:"), "{text}");
    assert!(text.contains("window sums reconcile exactly"), "{text}");
}

#[test]
fn figures_writes_a_valid_nested_chrome_trace() {
    let path = std::env::temp_dir().join(format!("sac-trace-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "--jobs", "2", "fig06a"])
        .arg("--trace-json")
        .arg(&path)
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("pipeline span(s) (wall mode)"), "{err}");
    assert!(err.contains("metrics registry"), "{err}");
    let trace = std::fs::read_to_string(&path).expect("trace written");
    // The bin validated nesting before writing; spot-check the shape.
    assert!(trace.starts_with("{\"displayTimeUnit\""), "{trace}");
    assert!(trace.contains("\"cat\": \"run\""));
    assert!(trace.contains("\"cat\": \"figure\""));
    assert!(trace.contains("\"cat\": \"cell\""));
    assert!(trace.contains("\"ph\": \"C\""), "RSS counters in wall mode");
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_rejects_unwritable_obs_path_before_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--obs-json", "/no/such/dir/obs.jsonl"])
        .output()
        .expect("run explain");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "{err}");
}

#[test]
fn figures_rejects_unwritable_bench_path_before_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args([
            "--small",
            "fig04b",
            "--bench-json",
            "/no/such/dir/bench.json",
        ])
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "{err}");
    // Failing fast means no figure work ran before the exit.
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
}

/// The store round-trip: a cold `figures --store` run replays and
/// persists every suite cell; a warm run over the same traces serves
/// every cell from the store — zero misses — and its figure output is
/// byte-identical to the cold run's.
#[test]
fn figures_store_warm_run_is_byte_identical_to_cold() {
    let dir = std::env::temp_dir().join(format!("sac-store-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--small", "fig06a", "--store"])
            .arg(&dir)
            .output()
            .expect("run figures");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8_lossy(&out.stderr).to_string())
    };

    let (cold_out, cold_err) = run();
    let (warm_out, warm_err) = run();
    assert_eq!(cold_out, warm_out, "cold and warm figure output differ");
    assert!(cold_err.contains("store: 0 hit(s)"), "{cold_err}");
    let warm_line = warm_err
        .lines()
        .find(|l| l.starts_with("store: "))
        .expect("warm run prints a store summary");
    assert!(warm_line.contains("0 miss(es)"), "{warm_line}");
    assert!(!warm_line.contains("store: 0 hit(s)"), "{warm_line}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_diff_attributes_divergence_and_writes_jsonl() {
    let path = std::env::temp_dir().join(format!("sac-diff-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--config", "standard", "--diff", "soft"])
        .arg("--obs-json")
        .arg(&path)
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("diff explain/mixed/standard vs explain/mixed/soft"),
        "{text}"
    );
    assert!(
        text.contains("mechanism deltas sum exactly to the metrics difference"),
        "{text}"
    );
    let jsonl = std::fs::read_to_string(&path).expect("diff telemetry written");
    // The probe records come first; the diff records follow them.
    assert!(jsonl.starts_with("{\"type\":\"summary\""), "{jsonl}");
    assert!(
        jsonl.contains("\n{\"type\":\"diff\",\"schema_version\":"),
        "{jsonl}"
    );
    assert!(jsonl.contains("\"type\":\"side\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"mechanism\""), "{jsonl}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn figures_rejects_unwritable_store_dir_before_running() {
    // A path whose parent is a regular file can never become a
    // directory, whoever runs the test (`/no/such/dir` would just be
    // created when running as root).
    let blocker = std::env::temp_dir().join(format!("sac-store-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "fig06a", "--store"])
        .arg(blocker.join("store"))
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot create store"), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
    std::fs::remove_file(&blocker).ok();
}

#[test]
fn empty_store_path_is_refused_before_running() {
    // Run in an empty directory of its own: an accepted empty path would
    // put its entries there.
    let cwd = std::env::temp_dir().join(format!("sac-empty-store-{}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).expect("scratch cwd");
    let runs: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_figures"), &["--small", "fig06a"]),
        (
            env!("CARGO_BIN_EXE_explain"),
            &["--small", "--config", "standard"],
        ),
    ];
    for (bin, args) in runs {
        let out = Command::new(bin)
            .current_dir(&cwd)
            .args(args)
            .args(["--store", ""])
            .output()
            .expect("run bin");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--store: cannot open store \"\": the store path is empty"),
            "{bin}: {err}"
        );
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{bin}");
    }
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .expect("scratch cwd")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    assert!(left.is_empty(), "{left:?}");
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn explain_cpus_rejects_options_the_coherent_run_would_ignore() {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let obs = tmp.join(format!("sac-cpus-obs-{pid}.jsonl"));
    let store = tmp.join(format!("sac-cpus-store-{pid}"));
    let cases: [(Vec<&str>, &str); 7] = [
        (vec!["--config", "victim"], "--config"),
        (vec!["--config", "soft"], "--config"),
        (vec!["--diff", "victim"], "--diff"),
        (
            vec!["--diff", "victim", "--obs-json", obs.to_str().unwrap()],
            "--diff",
        ),
        (vec!["--timeline"], "--timeline"),
        (vec!["--obs-json", obs.to_str().unwrap()], "--obs-json"),
        (vec!["--store", store.to_str().unwrap()], "--store"),
    ];
    for (extra, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_explain"))
            .args(["--small", "--cpus", "2"])
            .args(&extra)
            .output()
            .expect("run explain");
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains("--cpus"),
            "{extra:?}: {err}"
        );
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{extra:?}");
    }
    for path in [&obs, &store] {
        assert!(!path.exists(), "{} must not be created", path.display());
    }
    // The bench guard would otherwise be skipped and exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args([
            "--small",
            "--cpus",
            "2",
            "--bench-guard",
            "/nonexistent.json",
        ])
        .output()
        .expect("run explain");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bench-guard"));
}

#[test]
fn explain_cpus_accepts_the_standard_config() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args([
            "--small", "--len", "2000", "--cpus", "2", "--config", "standard",
        ])
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("coherence explain/mixed/2cpu"));
}

#[test]
fn explain_rejects_a_bench_guard_pct_that_disarms_or_trips_the_gate() {
    for pct in ["nan", "inf", "-inf", "-1", "five"] {
        let out = Command::new(env!("CARGO_BIN_EXE_explain"))
            .args(["--small", "--len", "2000", "--bench-guard-pct", pct])
            .output()
            .expect("run explain");
        assert_eq!(out.status.code(), Some(2), "--bench-guard-pct {pct}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--bench-guard-pct"), "{pct}: {err}");
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{pct}");
    }
}

/// `explain --obs-json` writes one JSONL: the probe records, then the
/// timeline's window and phase records, then the diff records. Every
/// record that carries a schema version carries `sac_obs::SCHEMA_VERSION`.
#[test]
fn explain_obs_json_appends_timeline_then_diff_records() {
    let path = std::env::temp_dir().join(format!("sac-obs-all-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args([
            "--small",
            "--config",
            "standard",
            "--diff",
            "soft",
            "--timeline",
            "--obs-json",
        ])
        .arg(&path)
        .output()
        .expect("run explain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&path).expect("telemetry written");
    std::fs::remove_file(&path).ok();
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/explain_diff_small_golden.jsonl");
    let golden = std::fs::read_to_string(golden).expect("golden present");
    let lines: Vec<&str> = jsonl.lines().collect();
    let (head, diff) = lines.split_at(lines.len() - golden.lines().count());
    assert_eq!(diff, golden.lines().collect::<Vec<_>>(), "diff records");
    // Probe records start `{"type":`, timeline records `{"kind": `.
    let timeline_at = head
        .iter()
        .position(|l| l.starts_with("{\"kind\": "))
        .expect("timeline records");
    let (probe, timeline) = head.split_at(timeline_at);
    assert!(
        probe[0].starts_with("{\"type\":\"summary\""),
        "{}",
        probe[0]
    );
    assert!(probe.iter().all(|l| l.starts_with("{\"type\":")));
    assert!(timeline.iter().all(|l| l.starts_with("{\"kind\": ")));
    // One schema version across the three sections: the probe summary,
    // every window and phase record and the diff header carry it, and
    // no record carries another.
    let version = sac_obs::SCHEMA_VERSION;
    let stamped = |l: &&str| {
        l.contains(&format!("\"schema_version\":{version},"))
            || l.contains(&format!("\"schema_version\": {version},"))
    };
    assert!(stamped(&probe[0]) && stamped(&diff[0]));
    assert!(timeline.iter().all(stamped));
    for l in &lines {
        assert!(!l.contains("schema_version") || stamped(l), "{l}");
    }
}

/// `explain`'s report outputs are pinned byte for byte against goldens
/// in the workspace's `tests/data`: the timeline table, and the diff
/// records that close its `--obs-json` file.
#[test]
fn telemetry_outputs_match_their_goldens() {
    let data = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    let dir = std::env::temp_dir().join(format!("sac-telemetry-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_explain"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run explain");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    run(&[
        "--small",
        "--config",
        "standard",
        "--diff",
        "soft",
        "--obs-json",
        "obs.jsonl",
    ]);
    let obs = std::fs::read(dir.join("obs.jsonl")).expect("output written");
    let diff = std::fs::read(data.join("explain_diff_small_golden.jsonl")).expect("golden");
    assert!(
        obs.ends_with(&diff),
        "the diff records differ from tests/data/explain_diff_small_golden.jsonl"
    );
    let timeline = run(&["--small", "--config", "soft", "--timeline"]);
    let want = std::fs::read(data.join("explain_soft_timeline_golden.txt")).expect("golden");
    assert!(
        timeline == want,
        "explain_soft_timeline_golden.txt differs from tests/data"
    );
    std::fs::remove_dir_all(&dir).ok();
}
