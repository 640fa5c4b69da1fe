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

#[test]
fn figures_rejects_unknown_options_before_running() {
    // A mistyped or retired flag must not be taken for a figure id.
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--bogus", "fig04b"])
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --bogus"), "{err}");
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
        .args(["summary", "all", "extensions", "ablations"])
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
    assert_eq!(text.lines().filter(|l| l.starts_with("**")).count(), 33);
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
fn figures_writes_timeline_jsonl() {
    let path = std::env::temp_dir().join(format!("sac-tl-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "fig04b"])
        .arg("--timeline-json")
        .arg(&path)
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&path).expect("timeline written");
    assert!(jsonl.contains("\"kind\": \"window\""), "{jsonl}");
    assert!(jsonl.contains("\"kind\": \"phase\""), "{jsonl}");
    assert!(jsonl.contains("\"schema_version\": "), "{jsonl}");
    assert!(jsonl.contains("timeline/mixed/standard"), "{jsonl}");
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
        .arg("--diff-json")
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
    assert!(
        jsonl.starts_with("{\"type\":\"diff\",\"schema_version\":"),
        "{jsonl}"
    );
    assert!(jsonl.contains("\"type\":\"side\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"mechanism\""), "{jsonl}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_diff_json_requires_a_diff_config() {
    let out = Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(["--small", "--diff-json", "/tmp/never-written.jsonl"])
        .output()
        .expect("run explain");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--diff-json needs --diff"), "{err}");
}

#[test]
fn figures_diff_reports_every_pair_against_standard() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--small", "--diff"])
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let pairs = text.matches("diff standard vs ").count();
    assert_eq!(pairs, 7, "one pair per non-standard organization: {text}");
    assert!(text.contains("diff standard vs soft"), "{text}");
    assert_eq!(
        text.matches("mechanism deltas sum exactly").count(),
        7,
        "every pair reconciled: {text}"
    );
}

/// The sampled-event telemetry is recorded on a single instrumented
/// replay, so its JSONL must not depend on the sweep worker count.
#[test]
fn figures_obs_jsonl_is_byte_identical_across_jobs() {
    let run = |jobs: &str, tag: &str| {
        let path =
            std::env::temp_dir().join(format!("sac-obs-jobs{tag}-{}.jsonl", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--small", "fig04b", "--jobs", jobs])
            .arg("--obs-json")
            .arg(&path)
            .output()
            .expect("run figures");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let jsonl = std::fs::read(&path).expect("telemetry written");
        std::fs::remove_file(&path).ok();
        jsonl
    };
    let sequential = run("1", "1");
    let parallel = run("4", "4");
    assert!(!sequential.is_empty());
    assert!(
        String::from_utf8_lossy(&sequential).contains("\"schema_version\":"),
        "obs records carry the schema version"
    );
    assert_eq!(
        sequential, parallel,
        "obs JSONL must be byte-identical under --jobs 4"
    );
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
    let diff = tmp.join(format!("sac-cpus-diff-{pid}.jsonl"));
    let store = tmp.join(format!("sac-cpus-store-{pid}"));
    let cases: [(Vec<&str>, &str); 7] = [
        (vec!["--config", "victim"], "--config"),
        (vec!["--config", "soft"], "--config"),
        (vec!["--diff", "victim"], "--diff"),
        (
            vec!["--diff", "victim", "--diff-json", diff.to_str().unwrap()],
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
    for path in [&obs, &diff, &store] {
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

/// The telemetry outputs (probe JSONL, timeline JSONL and table, the
/// lockstep diff report and its JSONL) are pinned byte for byte against
/// goldens in the workspace's `tests/data`.
#[test]
fn telemetry_outputs_match_their_goldens() {
    let data = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    let dir = std::env::temp_dir().join(format!("sac-telemetry-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |bin: &str, args: &[&str]| {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run binary");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let figures = env!("CARGO_BIN_EXE_figures");
    let explain = env!("CARGO_BIN_EXE_explain");
    run(
        figures,
        &[
            "--jobs",
            "1",
            "--small",
            "fig04b",
            "--obs-json",
            "obs_small_golden.jsonl",
            "--timeline-json",
            "timeline_small_golden.jsonl",
        ],
    );
    let diff_all = run(figures, &["--small", "--diff"]);
    std::fs::write(dir.join("diff_all_small_golden.txt"), diff_all).expect("write");
    run(
        explain,
        &[
            "--small",
            "--config",
            "standard",
            "--diff",
            "soft",
            "--diff-json",
            "explain_diff_small_golden.jsonl",
        ],
    );
    let timeline = run(explain, &["--small", "--config", "soft", "--timeline"]);
    std::fs::write(dir.join("explain_soft_timeline_golden.txt"), timeline).expect("write");
    for name in [
        "obs_small_golden.jsonl",
        "timeline_small_golden.jsonl",
        "diff_all_small_golden.txt",
        "explain_diff_small_golden.jsonl",
        "explain_soft_timeline_golden.txt",
    ] {
        let got = std::fs::read(dir.join(name)).expect("output written");
        let want = std::fs::read(data.join(name)).expect("golden present");
        assert!(got == want, "{name} differs from tests/data/{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
