//! The `sacbench` command.
//!
//! ```text
//! sacbench run --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!              [--trace-dir DIR] [--json PATH]
//! sacbench compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
//! ```
//!
//! `run` prints a summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--workload all` runs every workload in its own child process, one
//! after another. `compare` applies the bounds of `BENCHMARK.json` in the
//! current directory to result files written with `--json`.

use sacbench::compare::{bounds, compare, ResultSet};
use sacbench::harness::{read_results, results_file, run_named, RunOpts, RunResult, Value};
use sacbench::json::Json;
use sacbench::{DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

const USAGE: &str = "usage: sacbench run --workload NAME|all [--seed N] [--seconds S] \
[--trace 0|1] [--trace-dir DIR] [--json PATH]\n       sacbench compare PARENT.json CHANGE.json [...]";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("sacbench: {msg}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => fail(USAGE),
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn run(args: &[String]) {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_dir: PathBuf::from(".sacbench/trace"),
    };
    let mut json = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value().clone()),
            "--seed" => {
                let v = value();
                opts.seed = parse_seed(v).unwrap_or_else(|| fail(format!("bad --seed {v}")));
            }
            "--seconds" => {
                let v = value();
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| fail(format!("bad --seconds {v}")));
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    v => fail(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-dir" => opts.trace_dir = PathBuf::from(value()),
            "--json" => json = Some(PathBuf::from(value())),
            _ => fail(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail(USAGE));

    let results = if workload == "all" {
        run_all(&opts)
    } else {
        let result = match run_named(&workload, &opts) {
            Some(Ok(r)) => r,
            Some(Err(e)) => fail(format!("{workload}: {e}")),
            None => fail(format!(
                "unknown workload {workload} (one of: all, {})",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        };
        eprint!("{}", result.summary());
        println!("{}", result.line());
        vec![result]
    };
    if let Some(path) = json {
        std::fs::write(&path, results_file(&results))
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
    }
}

/// Runs every workload in a child process of its own, so that set-up
/// time and peak memory belong to one workload, and prints one combined
/// result line with each metric prefixed by its workload.
fn run_all(opts: &RunOpts) -> Vec<RunResult> {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("cannot find myself: {e}")));
    let parts = Path::new(".sacbench").join(format!("all-{}", std::process::id()));
    std::fs::create_dir_all(&parts)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", parts.display())));
    let mut results = Vec::new();
    for w in WORKLOADS {
        let part = parts.join(format!("{}.json", w.name));
        let status = Command::new(&exe)
            .args(["run", "--workload", w.name, "--seed"])
            .arg(opts.seed.to_string())
            .arg("--seconds")
            .arg(opts.seconds.to_string())
            .args(["--trace", if opts.trace { "1" } else { "0" }, "--trace-dir"])
            .arg(&opts.trace_dir)
            .arg("--json")
            .arg(&part)
            .stdout(Stdio::null())
            .status()
            .unwrap_or_else(|e| fail(format!("cannot start {}: {e}", w.name)));
        if !status.success() {
            fail(format!("workload {} failed: {status}", w.name));
        }
        results.extend(load_results(&part.to_string_lossy()));
    }
    let _ = std::fs::remove_dir_all(&parts);

    let combined = RunResult {
        workload: "all".into(),
        seed: opts.seed,
        attempted: results.iter().map(|r| r.attempted).sum(),
        failed: results.iter().map(|r| r.failed).sum(),
        metrics: results
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(|m| Value {
                    name: format!("{}.{}", r.workload, m.name),
                    ..m.clone()
                })
            })
            .collect(),
    };
    println!("{}", combined.line());
    results
}

fn load_json(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

/// Reads back a result file written with `--json`.
fn load_results(path: &str) -> Vec<RunResult> {
    read_results(&load_json(path)).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn compare_files(paths: &[String]) {
    if paths.len() < 2 {
        fail(USAGE);
    }
    let rules = bounds(&load_json("BENCHMARK.json")).unwrap_or_else(|e| fail(e));
    let sets: Vec<ResultSet> = paths
        .iter()
        .map(|p| ResultSet::of(&load_results(p)))
        .collect();
    let (report, worse) = compare(&rules, &sets);
    print!("{report}");
    if worse {
        exit(1);
    }
}
