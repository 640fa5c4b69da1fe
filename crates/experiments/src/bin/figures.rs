//! Prints any subset of the paper's figures as text tables.
//!
//! ```text
//! cargo run --release -p sac-experiments --bin figures -- all
//! cargo run --release -p sac-experiments --bin figures -- fig06a fig07b ablations
//! cargo run --release -p sac-experiments --bin figures -- --markdown summary all extensions ablations
//! cargo run --release -p sac-experiments --bin figures -- --csv out/ all
//! cargo run --release -p sac-experiments --bin figures -- --small fig11a
//! cargo run --release -p sac-experiments --bin figures -- --jobs 4 all
//! cargo run --release -p sac-experiments --bin figures -- --jobs 1 fig06a
//! cargo run --release -p sac-experiments --bin figures -- --store results/ all
//! ```
//!
//! Arguments name figures of `figures::REGISTRY`: an id selects one
//! figure, and `all` (the paper's 19), `extensions`, `ablations` and
//! `coherence` expand in place to their groups; no names means `all`. An
//! unknown name or option exits 2 before any trace is generated.
//! `--markdown` prints the tables as markdown (`--markdown summary all
//! extensions ablations` is EXPERIMENTS.md's table set), and `--csv DIR`
//! also writes each table to `DIR/<id>.csv`. `figures` prints only
//! registry tables; per-trace telemetry (probe, timeline and lockstep
//! diff JSONL) comes from the `explain` binary.
//!
//! Each figure lists its cells (`figures::Cell`: label, input, work) as
//! a grid of rows, and the rows shard across a worker pool; `--jobs N`
//! pins the worker count (`--jobs 1` is the sequential path), and the
//! default uses every core. Output is bit-identical either way. A run
//! summary (cells done, slowest cells, aggregate speedup) goes to stderr
//! at the end.
//!
//! Replay is chunked: every configuration of a row that reads the same
//! trace advances through it in one pass, each engine consuming a chunk
//! while it is hot in cache.
//! `--store DIR` attaches a content-addressed on-disk result store:
//! suite cells found in DIR (same trace content, config and engine
//! version) are served without replay, fresh cells are persisted, so a
//! second (*warm*) run over the same suite skips replay entirely and a
//! summary line reports the hit/miss split.
//! The `coherence` group (`coh-mesi`, `coh-dragon`) is the multi-core
//! private-vs-shared sweep: miss ratio and AMAT at 2 and 4 CPUs, plus
//! the false-sharing fraction, over two synthetic traces and the two
//! sharing microkernels. Each coherent run is a cell in the ledger, and
//! its `coherence.*` counters reach the registry snapshot on stderr.
//! `--bench-json PATH` additionally times raw / hit-heavy / miss-heavy
//! replay micro-benchmarks and writes a JSON report (refs/sec per shape,
//! store cold/warm, peak RSS, per-figure wall-clock, runner-level cell
//! spans) to PATH.
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

use sac_experiments::explain::{hit_heavy_trace, miss_heavy_trace};
use sac_experiments::runner::{ReplayBatch, Run, Spans};
use sac_experiments::{cli, figures, runner, Config, ResultStore, Suite};
use sac_obs::span::{self, Span, SpanKey, SpanLevel, TraceMode};
use sac_trace::{Access, Trace};
use std::io::{BufWriter, Write};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let mut wanted: Vec<String> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut trace_logical = false;
    let mut trace_chunks = false;
    let mut markdown = false;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut jobs = 0;
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--small" => {}
            "--store" => {
                store_dir = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--store needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--markdown" => markdown = true,
            "--csv" => {
                csv_dir = Some(iter.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--csv needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--trace-logical" => trace_logical = true,
            "--trace-chunks" => trace_chunks = true,
            "--bench-json" => {
                bench_json = Some(iter.next().unwrap_or_else(|| {
                    eprintln!("--bench-json needs an output path");
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
                jobs = cli::positive("--jobs", iter.next()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            _ if a.starts_with("--") => {
                eprintln!("unknown option {a}");
                std::process::exit(2);
            }
            _ => wanted.push(a),
        }
    }
    let selected = figures::select(&wanted).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
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
    let mut trace_writer = trace_json.map(|path| match sac_trace::io::create_output(&path) {
        Ok(f) => (path, BufWriter::new(f)),
        Err(e) => {
            eprintln!("--trace-json: {e}");
            std::process::exit(2);
        }
    });
    let spans = match (&trace_writer, trace_chunks) {
        (None, _) => Spans::Off,
        (Some(_), false) => Spans::Cells,
        (Some(_), true) => Spans::Chunks,
    };
    let run = Run::new(jobs, spans);
    runner::install(run.clone());
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--csv: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
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

    let tracing = spans != Spans::Off;
    let start = Instant::now();

    let needs_suite = selected.iter().any(|f| f.needs_suite());
    runner::set_figure_seq(0);
    let suite_span_start = tracing.then(|| run.now_us());
    let suite = needs_suite.then(|| {
        eprintln!(
            "generating {} benchmark traces on {} worker(s)...",
            if small { "small" } else { "paper-scale" },
            run.jobs()
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
        run.record_span(Span::new(
            "suite",
            SpanLevel::Figure,
            SpanKey::default(),
            0,
            s0,
            run.now_us().saturating_sub(s0),
        ));
        run.sample_rss(peak_rss_bytes());
    }

    let mut figure_walls: Vec<(String, f64)> = Vec::new();
    for (seq, fig) in selected.iter().enumerate() {
        // Figure sequence numbers start at 1: 0 is suite generation.
        runner::set_figure_seq(seq as u32 + 1);
        let before = run.cells_done();
        let figure_start = Instant::now();
        let span_start = tracing.then(|| run.now_us());
        let t = fig.build(suite.as_ref(), small);
        if markdown {
            println!("{}", t.to_markdown());
        } else {
            println!("{t}");
        }
        let wall = figure_start.elapsed();
        figure_walls.push((fig.id.to_string(), wall.as_secs_f64()));
        let cells = run.cells_done() - before;
        eprintln!("{}: {cells} cells in {wall:.2?}", fig.id);
        if let Some(s0) = span_start {
            run.record_span(
                Span::new(
                    fig.id,
                    SpanLevel::Figure,
                    SpanKey {
                        figure: seq as u32 + 1,
                        ..SpanKey::default()
                    },
                    0,
                    s0,
                    run.now_us().saturating_sub(s0),
                )
                .arg("cells", cells as u64),
            );
            run.sample_rss(peak_rss_bytes());
        }
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", fig.id));
            if let Err(e) = std::fs::write(&path, t.to_csv()) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    }

    let total_wall = start.elapsed();
    eprint!("{}", run.summary(total_wall));
    // Latency lanes (DESIGN.md §11.1): engines that priced several
    // latencies from one tag walk, the cells they carried, and the lanes
    // that diverged and replayed alone. CI greps this line.
    let reg = run.registry();
    eprintln!(
        "lanes: {} engines, {} cells, {} diverged",
        reg.counter("lanes.engines"),
        reg.counter("lanes.cells"),
        reg.counter("lanes.diverged")
    );

    // The bench cells record under a sequence number no figure list can
    // reach, so the figure keys stay stable whether or not they run.
    runner::set_figure_seq(1000);

    if let Some((path, f)) = bench_writer.as_mut() {
        let report = bench_report(
            &run,
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
        // The run span closes over everything recorded above, bench
        // cells included.
        run.record_span(Span::new(
            "figures",
            SpanLevel::Run,
            SpanKey::default(),
            0,
            0,
            run.now_us(),
        ));
        run.sample_rss(peak_rss_bytes());
        let mode = if trace_logical {
            TraceMode::Logical
        } else {
            TraceMode::Wall
        };
        let (spans, rss) = run.recorded_spans();
        if let Err(e) = span::check_nesting(&spans, mode) {
            eprintln!("--trace-json: span nesting violated (tracer bug): {e}");
            std::process::exit(1);
        }
        if let Err(e) = f.write_all(span::chrome_trace(&spans, &rss, mode).as_bytes()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} pipeline span(s) ({} mode) to {path}",
            spans.len(),
            if trace_logical { "logical" } else { "wall" }
        );
    }

    // The store summary is the line the CI cold/warm smoke greps for: a
    // warm run over an unchanged suite must report hits and no replays.
    if let Some(store) = &store {
        let reg = run.registry();
        eprintln!(
            "store: {} hit(s), {} miss(es), {} entr{} in {}",
            reg.counter("store.hits"),
            reg.counter("store.misses"),
            store.len(),
            if store.len() == 1 { "y" } else { "ies" },
            store.dir().display()
        );
    }

    let reg = run.registry();
    if !reg.is_empty() {
        eprint!("{}", reg.render_text());
    }
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
    run: &Run,
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
    out.push_str(&format!("  \"jobs\": {},\n", run.jobs()));
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
    out.push_str(&spans_json(&run.cells()));
    // The registry snapshot rides along so one artifact carries the
    // whole run's counters (cells, chunks, refs, per-track busy time).
    out.push_str(&format!(
        "  \"registry\": {}\n",
        run.registry().to_json(2).trim_start()
    ));
    out.push_str("}\n");
    out
}

/// Runner-level spans from the observability ledger: aggregate queue /
/// occupancy totals plus the most expensive cells (wall time, chunk
/// count, refs/sec throughput).
fn spans_json(cells: &[runner::CellStat]) -> String {
    const TOP: usize = 10;
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
        for c in cells {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Each shape is timed once (best of three rounds), so every bench
    /// cell label in the ledger is unique, and the v4 report carries no
    /// mode or ratio fields.
    #[test]
    fn bench_report_labels_are_unique_and_the_schema_is_v4() {
        let run = Run::default();
        runner::install(run.clone());
        let report = bench_report(&run, None, &[("figure".to_string(), 0.5)], 1.0, 4_096);
        let labels: Vec<String> = run.cells().into_iter().map(|c| c.label).collect();
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
                sac_experiments::explain::bench_refs_per_sec(&report, shape)
                    .is_some_and(|r| r > 0.0),
                "{shape}"
            );
        }
    }
}
