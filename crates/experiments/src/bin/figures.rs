//! Prints any subset of the paper's figures as text tables.
//!
//! ```text
//! cargo run --release -p sac-experiments --bin figures -- all
//! cargo run --release -p sac-experiments --bin figures -- fig06a fig07b
//! cargo run --release -p sac-experiments --bin figures -- --small fig11a
//! cargo run --release -p sac-experiments --bin figures -- --jobs 4 all
//! cargo run --release -p sac-experiments --bin figures -- --sequential fig06a
//! cargo run --release -p sac-experiments --bin figures -- --store results/ all
//! ```
//!
//! Sweeps shard their (config × workload) cells across a worker pool;
//! `--jobs N` pins the worker count, `--sequential` is `--jobs 1`, and
//! the default uses every core. Output is bit-identical either way. A
//! run summary (cells done, slowest cells, aggregate speedup) goes to
//! stderr at the end.
//!
//! Replay is chunked: every configuration of a sweep row advances
//! through the trace in one pass, each engine consuming a chunk while it
//! is hot in cache.
//! `--store DIR` attaches a content-addressed on-disk result store:
//! suite cells found in DIR (same trace content, config and engine
//! version) are served without replay, fresh cells are persisted, so a
//! second (*warm*) run over the same suite skips replay entirely and a
//! summary line reports the hit/miss split.
//! `--diff` runs the standalone differential pass instead of figures:
//! every organization is lockstep-diffed against the standard baseline
//! over the shared mixed trace and one reconciled divergence report per
//! pair goes to stdout (single-threaded, so byte-identical at any
//! `--jobs` setting).
//! `--coherence` runs the standalone multi-core pass instead of figures:
//! the private-vs-shared sweep (miss ratio and AMAT at 2 and 4 CPUs,
//! plus the false-sharing fraction) over two deterministic kernels and
//! the two sharing microkernels, under MESI by default or the protocol
//! named by `--protocol mesi|dragon`. Rows run sequentially, so the
//! table is byte-identical at any `--jobs` setting.
//! `--bench-json PATH` additionally times raw / hit-heavy / miss-heavy
//! replay micro-benchmarks and writes a JSON report (refs/sec per shape,
//! store cold/warm, peak RSS, per-figure wall-clock, runner-level cell
//! spans) to PATH.
//! `--obs-json PATH` runs one instrumented standard + soft cell with the
//! full `TracingProbe` and writes the telemetry as JSON Lines to PATH.
//! `--timeline-json PATH` runs windowed-timeline cells (standard,
//! victim, soft over the shared mixed trace) and writes one JSON line
//! per window and phase to PATH.
//! `--trace-json PATH` records pipeline spans (run → figure → cell,
//! plus per-chunk spans with `--trace-chunks`) and writes a
//! Chrome-trace / Perfetto JSON document to PATH; `--trace-logical`
//! switches the export to deterministic logical timestamps, which are
//! byte-identical at any `--jobs N`. The trace is validated (JSON spans
//! must nest laminarly) before it is written. All output paths are
//! validated (created) up front, so a long run cannot die at the final
//! write. When any telemetry ran, a metrics-registry snapshot
//! (counters / gauges / histograms) is printed to stderr at the end and
//! embedded in the `--bench-json` report.

use sac_experiments::explain::{self, hit_heavy_trace, miss_heavy_trace, mixed_trace};
use sac_experiments::runner::{ReplayBatch, REPLAY_CHUNK};
use sac_experiments::{cli, diff, figures, runner, Config, ResultStore, Suite, Table};
use sac_obs::registry;
use sac_obs::span::{self, Span, SpanKey, SpanLevel, TraceMode};
use sac_trace::{Access, Trace};
use std::io::{BufWriter, Write};
use std::time::Instant;

/// Figure ids in paper order.
const ALL: [&str; 19] = [
    "fig01a", "fig01b", "fig03a", "fig03b", "fig04a", "fig04b", "fig06a", "fig06b", "fig07a",
    "fig07b", "fig08a", "fig08b", "fig09a", "fig09b", "fig10a", "fig10b", "fig11a", "fig11b",
    "fig12",
];

const ABLATIONS: [&str; 6] = [
    "abl-bb-size",
    "abl-bb-ways",
    "abl-bb-policy",
    "abl-phys16",
    "abl-assoc",
    "abl-bus",
];

const EXTENSIONS: [&str; 7] = [
    "ext-var-vlines",
    "ext-pf-distance",
    "ext-related",
    "ext-related-traffic",
    "ext-miss-classes",
    "ext-context-switch",
    "ext-copy-vline",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let mut wanted: Vec<String> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut obs_json: Option<String> = None;
    let mut timeline_json: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut trace_logical = false;
    let mut trace_chunks = false;
    let mut diff_pairs = false;
    let mut coherence_pass = false;
    let mut protocol = sac_experiments::coherence::Protocol::Mesi;
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--small" => {}
            "--sequential" => runner::set_jobs(1),
            "--store" => {
                store_dir = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--store needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--diff" => diff_pairs = true,
            "--coherence" => coherence_pass = true,
            "--protocol" => {
                let name = iter.next().unwrap_or_else(|| {
                    eprintln!("--protocol needs a value");
                    std::process::exit(2);
                });
                protocol =
                    sac_experiments::coherence::Protocol::by_name(&name).unwrap_or_else(|| {
                        eprintln!(
                            "--protocol {name:?} not supported ({})",
                            sac_experiments::coherence::Protocol::CLI_NAMES
                        );
                        std::process::exit(2);
                    });
            }
            "--trace-logical" => trace_logical = true,
            "--trace-chunks" => trace_chunks = true,
            "--bench-json" => {
                bench_json = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--bench-json needs an output path");
                    std::process::exit(2);
                }));
            }
            "--obs-json" => {
                obs_json = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--obs-json needs an output path");
                    std::process::exit(2);
                }));
            }
            "--timeline-json" => {
                timeline_json = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--timeline-json needs an output path");
                    std::process::exit(2);
                }));
            }
            "--trace-json" => {
                trace_json = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--trace-json needs an output path");
                    std::process::exit(2);
                }));
            }
            "--jobs" => {
                let n = cli::positive("--jobs", iter.next()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                runner::set_jobs(n);
            }
            _ => {
                if let Some(n) = a.strip_prefix("--jobs=") {
                    match cli::positive("--jobs", Some(n.to_string())) {
                        Ok(n) => runner::set_jobs(n),
                        Err(e) => {
                            eprintln!("{e}");
                            std::process::exit(2);
                        }
                    }
                } else if a.starts_with("--") {
                    eprintln!("unknown option {a}");
                    std::process::exit(2);
                } else {
                    wanted.push(a);
                }
            }
        }
    }
    // Validate output paths up front (satellite of the telemetry work):
    // a full `figures all` run takes minutes, and discovering a typo'd
    // directory only at the final write would throw all of it away.
    let mut bench_writer = bench_json.map(|path| match sac_trace::io::create_output(&path) {
        Ok(f) => (path, f),
        Err(e) => {
            eprintln!("--bench-json: {e}");
            std::process::exit(2);
        }
    });
    let mut obs_writer = obs_json.map(|path| match sac_trace::io::create_output(&path) {
        Ok(f) => (path, BufWriter::new(f)),
        Err(e) => {
            eprintln!("--obs-json: {e}");
            std::process::exit(2);
        }
    });
    let mut timeline_writer = timeline_json.map(|path| match sac_trace::io::create_output(&path) {
        Ok(f) => (path, BufWriter::new(f)),
        Err(e) => {
            eprintln!("--timeline-json: {e}");
            std::process::exit(2);
        }
    });
    let mut trace_writer = trace_json.map(|path| match sac_trace::io::create_output(&path) {
        Ok(f) => (path, BufWriter::new(f)),
        Err(e) => {
            eprintln!("--trace-json: {e}");
            std::process::exit(2);
        }
    });
    // The store directory is created up front for the same reason the
    // writers are: an unwritable path must fail before the run, not
    // after it.
    let store = store_dir.map(|dir| match ResultStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--store: {e}");
            std::process::exit(2);
        }
    });

    // `--diff` is a standalone pass: every organization lockstep-diffed
    // against the standard baseline over the shared mixed trace, one
    // reconciled divergence report per pair on stdout. The pass is
    // single-threaded by construction, so the output is byte-identical
    // at any `--jobs` setting — which is exactly what the CI determinism
    // leg diffs.
    if diff_pairs {
        run_diff_pairs(small);
        return;
    }

    // `--coherence` is a standalone pass like `--diff`: the
    // private-vs-shared multi-CPU sweep, built sequentially so the
    // emitted table is byte-identical at any `--jobs` setting — the
    // property the CI coherence-determinism leg diffs.
    if coherence_pass {
        registry::reset_global();
        println!("{}", sac_experiments::coherence::coherence_table(protocol));
        // The sweep bumps the coherence.* registry counters; with
        // `--bench-json` they ship as a small standalone artifact so the
        // invalidation/upgrade/c2c totals land next to the replay report.
        if let Some((path, f)) = bench_writer.as_mut() {
            let report = format!(
                "{{\n  \"schema\": \"sac-bench-coherence-v1\",\n  \"registry\": {}\n}}\n",
                registry::snapshot().to_json(2).trim_start()
            );
            if let Err(e) = f.write_all(report.as_bytes()) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote coherence bench report to {path}");
        }
        return;
    }

    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL.iter().map(|s| s.to_string()).collect();
    }
    if wanted.iter().any(|w| w == "ablations") {
        wanted = ABLATIONS.iter().map(|s| s.to_string()).collect();
    }
    if wanted.iter().any(|w| w == "extensions") {
        wanted = EXTENSIONS.iter().map(|s| s.to_string()).collect();
    }

    runner::reset_stats();
    registry::reset_global();
    let tracing = trace_writer.is_some();
    if tracing {
        span::reset();
        span::set_enabled(true);
        runner::set_chunk_spans(trace_chunks);
    }
    let start = Instant::now();

    let needs_suite = wanted
        .iter()
        .any(|w| !matches!(w.as_str(), "fig04b" | "fig10a" | "fig11a" | "fig11b"));
    runner::set_figure_seq(0);
    let suite_span_start = tracing.then(span::now_us);
    let suite = needs_suite.then(|| {
        eprintln!(
            "generating {} benchmark traces on {} worker(s)...",
            if small { "small" } else { "paper-scale" },
            runner::jobs()
        );
        let mut suite = if small {
            Suite::small()
        } else {
            Suite::paper()
        };
        if let Some(store) = &store {
            suite.attach_store(store.clone());
        }
        suite
    });
    if let (Some(s0), true) = (suite_span_start, needs_suite) {
        span::record(Span::new(
            "suite",
            SpanLevel::Figure,
            SpanKey::default(),
            0,
            s0,
            span::now_us().saturating_sub(s0),
        ));
        span::sample_rss(peak_rss_bytes());
    }

    let mut figure_walls: Vec<(String, f64)> = Vec::new();
    for (seq, id) in wanted.iter().enumerate() {
        // Figure sequence numbers start at 1: 0 is suite generation.
        runner::set_figure_seq(seq as u32 + 1);
        let before = runner::cells_done();
        let figure_start = Instant::now();
        let span_start = tracing.then(span::now_us);
        let table = run_one(id, suite.as_ref(), small);
        match table {
            Some(t) => {
                println!("{t}");
                let wall = figure_start.elapsed();
                figure_walls.push((id.clone(), wall.as_secs_f64()));
                let cells = runner::cells_done() - before;
                eprintln!("{id}: {cells} cells in {wall:.2?}");
                if let Some(s0) = span_start {
                    span::record(
                        Span::new(
                            id.clone(),
                            SpanLevel::Figure,
                            SpanKey {
                                figure: seq as u32 + 1,
                                ..SpanKey::default()
                            },
                            0,
                            s0,
                            span::now_us().saturating_sub(s0),
                        )
                        .arg("cells", cells as u64),
                    );
                    span::sample_rss(peak_rss_bytes());
                }
            }
            None => {
                eprintln!("unknown figure id: {id} (valid: {ALL:?}, {ABLATIONS:?}, {EXTENSIONS:?})")
            }
        }
    }

    let total_wall = start.elapsed();
    eprint!("{}", runner::summary(total_wall));
    // Latency lanes (DESIGN.md §11.1): engines that priced several
    // latencies from one tag walk, the cells they carried, and the lanes
    // that diverged and replayed alone. CI greps this line.
    let reg = registry::snapshot();
    eprintln!(
        "lanes: {} engines, {} cells, {} diverged",
        reg.counter("lanes.engines"),
        reg.counter("lanes.cells"),
        reg.counter("lanes.diverged")
    );

    // Everything past the figures proper (obs / timeline / bench cells)
    // records under a sequence number no figure list can reach, so the
    // figure keys stay stable whether or not the extra passes run.
    runner::set_figure_seq(1000);

    if let Some((path, w)) = obs_writer.as_mut() {
        if let Err(e) = write_obs_jsonl(w).and_then(|()| w.flush()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote probe telemetry to {path}");
    }

    if let Some((path, w)) = timeline_writer.as_mut() {
        if let Err(e) = write_timeline_jsonl(w).and_then(|()| w.flush()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote timeline JSONL to {path}");
    }

    if let Some((path, f)) = bench_writer.as_mut() {
        let report = bench_report(
            suite.as_ref(),
            &figure_walls,
            total_wall.as_secs_f64(),
            BENCH_LEN,
        );
        if let Err(e) = f.write_all(report.as_bytes()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote replay bench report to {path}");
    }

    if let Some((path, f)) = trace_writer.as_mut() {
        // The run span closes over everything recorded above, bench and
        // telemetry cells included.
        span::record(Span::new(
            "figures",
            SpanLevel::Run,
            SpanKey::default(),
            0,
            0,
            span::now_us(),
        ));
        span::sample_rss(peak_rss_bytes());
        let mode = if trace_logical {
            TraceMode::Logical
        } else {
            TraceMode::Wall
        };
        let (spans, rss) = span::snapshot();
        if let Err(e) = span::check_nesting(&spans, mode) {
            eprintln!("--trace-json: span nesting violated (tracer bug): {e}");
            std::process::exit(1);
        }
        if let Err(e) = f.write_all(span::chrome_trace(&spans, &rss, mode).as_bytes()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        span::set_enabled(false);
        eprintln!(
            "wrote {} pipeline span(s) ({} mode) to {path}",
            spans.len(),
            if trace_logical { "logical" } else { "wall" }
        );
    }

    // The store summary is the line the CI cold/warm smoke greps for: a
    // warm run over an unchanged suite must report hits and no replays.
    if let Some(store) = &store {
        let reg = registry::snapshot();
        eprintln!(
            "store: {} hit(s), {} miss(es), {} entr{} in {}",
            reg.counter("store.hits"),
            reg.counter("store.misses"),
            store.len(),
            if store.len() == 1 { "y" } else { "ies" },
            store.dir().display()
        );
    }

    let reg = registry::snapshot();
    if !reg.is_empty() {
        eprint!("{}", reg.render_text());
    }
}

/// The `--diff` pass: every non-standard organization lockstep-diffed
/// against the standard baseline over the shared mixed trace. Each
/// report is reconciled (mechanism deltas sum exactly to the pair's
/// metrics difference) before it is printed.
fn run_diff_pairs(small: bool) {
    let len = if small { 50_000 } else { 200_000 };
    let trace = mixed_trace(len);
    let base = Config::standard();
    for (name, config) in Config::all_organizations() {
        if name == "standard" {
            continue;
        }
        let report = diff::diff_configs("standard", &base, name, &config, &trace, REPLAY_CHUNK)
            .unwrap_or_else(|e| {
                eprintln!("--diff {name}: {e}");
                std::process::exit(1);
            });
        print!("{}", report.render(3));
        println!();
    }
}

/// The `--timeline-json` pass: windowed-timeline cells over the shared
/// mixed trace, one JSON line per window and per phase, each verified
/// to reconcile exactly with the engine's global metrics.
fn write_timeline_jsonl(w: &mut impl Write) -> std::io::Result<()> {
    const TIMELINE_LEN: usize = 200_000;
    let trace = mixed_trace(TIMELINE_LEN);
    for (label, config) in [
        ("timeline/mixed/standard", Config::standard()),
        ("timeline/mixed/victim", Config::standard_victim()),
        ("timeline/mixed/soft", Config::soft()),
    ] {
        let (tl, _) =
            explain::explain_timeline(label, &config, &trace, sac_obs::DEFAULT_WINDOW_REFS)
                .expect("built-in configs must reconcile window sums with global metrics");
        tl.write_jsonl(label, w)?;
    }
    Ok(())
}

/// The `--obs-json` pass: instrumented standard, victim and soft cells
/// with the full `TracingProbe` over the shared mixed trace, telemetry
/// appended as JSON Lines (one `summary`/histogram/event record per
/// line, tagged with the cell label).
fn write_obs_jsonl(w: &mut impl Write) -> std::io::Result<()> {
    const OBS_LEN: usize = 200_000;
    let trace = mixed_trace(OBS_LEN);
    for (label, config) in [
        ("obs/mixed/standard", Config::standard()),
        ("obs/mixed/victim", Config::standard_victim()),
        ("obs/mixed/soft", Config::soft()),
    ] {
        let e = explain::explain_config(label, &config, &trace, 4096, 16)
            .expect("built-in configs are probeable and must reconcile");
        e.probe.write_jsonl(label, w)?;
    }
    Ok(())
}

/// Replays `trace` through a Standard + Victim + Soft batch and reports
/// engine references per second (each engine sees every reference once).
/// Best of three rounds: single replays finish in tens of milliseconds,
/// where one scheduling hiccup would skew the recorded baseline that the
/// `explain --bench-guard` CI tripwire later compares against. The batch
/// composition must stay in lockstep with the guard's.
fn time_replay(trace: &Trace) -> (u64, f64, f64) {
    let mut best: Option<(u64, f64, f64)> = None;
    for round in 0..3 {
        let start = Instant::now();
        let mut batch = ReplayBatch::new();
        batch.push(
            format!("bench/{}/standard/{round}", trace.name()),
            &Config::standard(),
        );
        batch.push(
            format!("bench/{}/victim/{round}", trace.name()),
            &Config::standard_victim(),
        );
        batch.push(
            format!("bench/{}/soft/{round}", trace.name()),
            &Config::soft(),
        );
        let engines = batch.len() as u64;
        let metrics = batch.replay(trace);
        let wall = start.elapsed().as_secs_f64();
        let engine_refs: u64 = metrics.iter().map(|m| m.refs).sum();
        assert_eq!(engine_refs, trace.len() as u64 * engines);
        let rate = engine_refs as f64 / wall;
        if best.is_none_or(|(_, _, r)| rate > r) {
            best = Some((engine_refs, wall, rate));
        }
    }
    best.expect("three rounds ran")
}

/// Times one cold sweep (replay + store write) and one warm sweep (store
/// lookups only, trace hash precomputed as `Suite::attach_store` does)
/// over the same cells, in a throwaway store directory. Returns
/// `(cells, cold_wall_s, warm_wall_s)`; the warm wall is the best of
/// five passes, since a handful of small-file reads is at the mercy of
/// the page cache on the first pass.
fn time_store_warm(trace: &Trace) -> (usize, f64, f64) {
    let dir = std::env::temp_dir().join(format!("sac-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("temp store dir must be creatable");
    let configs = [
        Config::standard(),
        Config::standard_victim(),
        Config::soft(),
    ];
    let hash = trace.content_hash();

    let cold_start = Instant::now();
    for config in &configs {
        let m = config.run(trace);
        store.save(hash, config, &m).expect("store write");
    }
    let cold = cold_start.elapsed().as_secs_f64();

    let mut warm = f64::INFINITY;
    for _ in 0..5 {
        let warm_start = Instant::now();
        for config in &configs {
            assert!(store.load(hash, config).is_some(), "warm lookup missed");
        }
        warm = warm.min(warm_start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&dir);
    (configs.len(), cold, warm)
}

/// Peak resident set size in bytes, from `/proc/self/status` `VmHWM`
/// (0 when unavailable, e.g. off Linux).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// References per synthetic `--bench-json` replay shape.
const BENCH_LEN: usize = 2_000_000;

/// Hand-rolled JSON (the build is offline: no serde): the replay
/// micro-benchmarks over `bench_len`-reference shapes, the peak-RSS
/// estimate and the per-figure wall-clock of the run that just finished.
fn bench_report(
    suite: Option<&Suite>,
    figure_walls: &[(String, f64)],
    total_wall: f64,
    bench_len: usize,
) -> String {
    let raw = match suite.and_then(|s| s.entries().first()) {
        Some((_, t)) => Trace::clone(t).with_name("raw"),
        None => {
            // Suite-less invocation: a deterministic mixed pattern.
            let mut t = Trace::with_capacity("raw", bench_len);
            let mut x = 0x5AC0_FFEEu64;
            for _ in 0..bench_len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t.push(Access::read((x >> 20) % (1 << 22)));
            }
            t
        }
    };
    let shapes = [
        ("raw", raw),
        ("hit_heavy", hit_heavy_trace(bench_len)),
        ("miss_heavy", miss_heavy_trace(bench_len)),
    ];
    let mut out = String::from("{\n  \"schema\": \"sac-bench-replay-v4\",\n");
    out.push_str(&format!("  \"jobs\": {},\n", runner::jobs()));
    out.push_str("  \"replay\": {\n");
    // `refs_per_sec` is the rate the `explain --bench-guard` tripwire
    // re-times on the same host.
    for (i, (name, trace)) in shapes.iter().enumerate() {
        let (engine_refs, wall, rate) = time_replay(trace);
        out.push_str(&format!(
            "    \"{name}\": {{\"engine_refs\": {engine_refs}, \"wall_s\": {wall:.6}, \"refs_per_sec\": {rate:.0}}}{}\n",
            if i + 1 < shapes.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    // The store row: cold replay-and-save vs warm lookup of the same
    // cells, documenting what a warm `--store` sweep saves.
    let (cells, cold, warm) = time_store_warm(&shapes[1].1);
    out.push_str(&format!(
        "  \"store\": {{\"cells\": {cells}, \"cold_wall_s\": {cold:.6}, \"warm_wall_s\": {warm:.6}, \"warm_speedup\": {:.1}}},\n",
        cold / warm
    ));
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    out.push_str(&format!("  \"total_wall_s\": {total_wall:.3},\n"));
    out.push_str("  \"figures\": [\n");
    for (i, (id, wall)) in figure_walls.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{id}\", \"wall_s\": {wall:.3}}}{}\n",
            if i + 1 < figure_walls.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&spans_json());
    // The registry snapshot rides along so one artifact carries the
    // whole run's counters (cells, chunks, refs, per-track busy time).
    out.push_str(&format!(
        "  \"registry\": {}\n",
        registry::snapshot().to_json(2).trim_start()
    ));
    out.push_str("}\n");
    out
}

/// Runner-level spans from the observability ledger: aggregate queue /
/// occupancy totals plus the most expensive cells (wall time, chunk
/// count, refs/sec throughput).
fn spans_json() -> String {
    const TOP: usize = 10;
    let cells = runner::cells();
    let total_chunks: u64 = cells.iter().map(|c| c.chunks).sum();
    let total_wall: f64 = cells.iter().map(|c| c.wall.as_secs_f64()).sum();
    let mut slowest: Vec<_> = cells.iter().collect();
    slowest.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.label.cmp(&b.label)));
    slowest.truncate(TOP);

    let mut out = String::from("  \"spans\": {\n");
    out.push_str(&format!("    \"cells\": {},\n", cells.len()));
    out.push_str(&format!("    \"total_chunks\": {total_chunks},\n"));
    out.push_str(&format!("    \"total_cell_wall_s\": {total_wall:.3},\n"));
    out.push_str("    \"slowest\": [\n");
    for (i, c) in slowest.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"label\": \"{}\", \"wall_s\": {:.6}, \"chunks\": {}, \"refs\": {}, \"refs_per_sec\": {:.0}, \"track\": \"{}\", \"queue_wait_us\": {}}}{}\n",
            c.label,
            c.wall.as_secs_f64(),
            c.chunks,
            c.metrics.refs,
            c.refs_per_sec(),
            c.track(),
            c.queue_wait.as_micros(),
            if i + 1 < slowest.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n");
    let busy: Vec<(String, f64)> = {
        let mut per_track: std::collections::BTreeMap<String, f64> =
            std::collections::BTreeMap::new();
        for c in &cells {
            *per_track.entry(c.track()).or_insert(0.0) += c.wall.as_secs_f64();
        }
        per_track.into_iter().collect()
    };
    out.push_str("    \"track_busy_s\": {");
    for (i, (track, s)) in busy.iter().enumerate() {
        out.push_str(&format!(
            "\"{track}\": {s:.3}{}",
            if i + 1 < busy.len() { ", " } else { "" }
        ));
    }
    out.push_str("}\n  },\n");
    out
}

fn run_one(id: &str, suite: Option<&Suite>, small: bool) -> Option<Table> {
    let s = || suite.expect("suite was built for suite-based figures");
    Some(match id {
        "fig01a" => figures::fig01a(s()),
        "fig01b" => figures::fig01b(s()),
        "fig03a" => figures::fig03a(s()),
        "fig03b" => figures::fig03b(s()),
        "fig04a" => figures::fig04a(s()),
        "fig04b" => figures::fig04b(),
        "fig06a" => figures::fig06a(s()),
        "fig06b" => figures::fig06b(s()),
        "fig07a" => figures::fig07a(s()),
        "fig07b" => figures::fig07b(s()),
        "fig08a" => figures::fig08a(s()),
        "fig08b" => figures::fig08b(s()),
        "fig09a" => figures::fig09a(s()),
        "fig09b" => figures::fig09b(s()),
        "fig10a" => figures::fig10a(),
        "fig10b" => figures::fig10b(s()),
        "fig11a" => figures::fig11a(small),
        "fig11b" => figures::fig11b(small),
        "fig12" => figures::fig12(s()),
        "summary" => figures::summary(s()),
        "ext-var-vlines" => {
            let leveled = if small {
                Suite::small_leveled()
            } else {
                Suite::paper_leveled()
            };
            figures::ext_variable_vlines(&leveled)
        }
        "ext-pf-distance" => figures::ext_prefetch_distance(s()),
        "ext-related" => figures::ext_related_designs(s()),
        "ext-related-traffic" => figures::ext_related_traffic(s()),
        "ext-miss-classes" => figures::ext_miss_classes(s()),
        "ext-context-switch" => figures::ext_context_switch(s()),
        "ext-copy-vline" => figures::ext_copy_vline(small),
        "abl-bb-size" => figures::ablation_bb_size(s()),
        "abl-bb-ways" => figures::ablation_bb_ways(s()),
        "abl-bb-policy" => figures::ablation_bb_policy(s()),
        "abl-phys16" => figures::ablation_physical_16(s()),
        "abl-assoc" => figures::ablation_associativity(s()),
        "abl-bus" => figures::ablation_bus_width(s()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each shape is timed once (best of three rounds), so every bench
    /// cell label in the ledger is unique, and the v4 report carries no
    /// mode or ratio fields.
    #[test]
    fn bench_report_labels_are_unique_and_the_schema_is_v4() {
        runner::reset_stats();
        let report = bench_report(None, &[("fig04b".to_string(), 0.5)], 1.0, 4_096);
        let labels: Vec<String> = runner::cells().into_iter().map(|c| c.label).collect();
        assert_eq!(labels.len(), 3 * 3 * 3, "3 shapes x 3 rounds x 3 engines");
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "duplicate labels in {labels:?}");
        assert!(
            report.contains("\"schema\": \"sac-bench-replay-v4\""),
            "{report}"
        );
        for gone in [
            "replay_mode",
            "scalar_refs_per_sec",
            "\"speedup\"",
            "\"fused\"",
        ] {
            assert!(!report.contains(gone), "{gone} in {report}");
        }
        for shape in ["raw", "hit_heavy", "miss_heavy"] {
            assert!(
                explain::bench_refs_per_sec(&report, shape).is_some_and(|r| r > 0.0),
                "{shape}"
            );
        }
    }
}
