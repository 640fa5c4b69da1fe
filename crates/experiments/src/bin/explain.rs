//! Explains one cache configuration's behavior from probe telemetry.
//!
//! ```text
//! cargo run --release -p sac-experiments --bin explain
//! cargo run --release -p sac-experiments --bin explain -- --config standard --trace miss
//! cargo run --release -p sac-experiments --bin explain -- --obs-json obs.jsonl --sample 8
//! cargo run --release -p sac-experiments --bin explain -- --bench-guard BENCH_replay.json
//! ```
//!
//! Runs the chosen configuration over a deterministic trace with the full
//! [`TracingProbe`] attached, prints the per-mechanism breakdown (miss
//! causes, hot sets, bounce-back / virtual-line / prefetch attribution),
//! and verifies that every event total reconciles exactly with the
//! engine's `Metrics` counters.
//!
//! The synthetic trace (`--trace mixed|hit|miss`) is `--len` references
//! long (default 500000, 50000 with `--small`, at most 67108864 = 2^26,
//! a 1 GiB trace; a longer one exits 2 before any trace is built).
//!
//! `--obs-json PATH` additionally writes the telemetry as one JSON
//! Lines file: the probe records (summary, histograms, sampled events),
//! then with `--timeline` the window and phase records, then with
//! `--diff` the diff records. The path is validated up front so a long
//! run cannot die at the final write.
//!
//! `--timeline` re-runs the same configuration with the windowed
//! [`Timeline`] probe attached (window width `--window`, default 8192
//! references) and prints the per-window table and phase summary; the
//! window sums are verified to reconcile *exactly* with the global
//! `Metrics` counters before anything is printed.
//!
//! `--diff CONFIG` replays the same trace through the `--config` side
//! and CONFIG in lockstep and prints the divergence report: every
//! reference whose outcome differs between the two (hit ↔ miss,
//! different miss class, extra writebacks, ...) is attributed to a
//! mechanism (victim save, prefetch coverage, bypass side-effect, ...),
//! and the per-mechanism counter deltas are verified to sum *exactly*
//! to the difference of the two sides' global metrics before anything
//! is printed; with `--obs-json` the report (mechanisms, top diverging
//! lines with lifetime stats, top sets) is appended to the JSONL.
//!
//! `--cpus N` (with optional `--protocol mesi|dragon`) shards the trace
//! round-robin over N CPUs and replays it through the coherent
//! multi-core memory system instead of a single engine: per-CPU metrics,
//! coherence counters (invalidations with their false-sharing split,
//! upgrades, cache-to-cache fills, write-buffer forwards, updates) and
//! shared-bus totals are printed after the SWMR invariant is verified
//! (the global metrics are the per-CPU blocks merged). The coherent
//! system runs Standard caches and no probe, so with `--cpus` above 1
//! an explicit `--config` other than `standard`, `--diff`,
//! `--timeline`, `--obs-json`, `--store` and `--bench-guard` are
//! rejected (exit 2) before anything is written.
//!
//! `--store DIR` opens a content-addressed result store: if DIR already
//! holds this cell (same trace content, config, engine version) the
//! stored counters are cross-checked against this run, otherwise the
//! run's counters seed the store.
//!
//! `--bench-guard PATH` re-times unprobed (`NoopProbe`) replay of the
//! shared hit-heavy / miss-heavy benchmark traces and compares against
//! the `refs_per_sec` recorded in a `figures --bench-json` report from
//! the same machine/job; the process exits non-zero if throughput
//! regressed by more than `--bench-guard-pct` percent (default 5) —
//! the CI tripwire proving the probe layer stays zero-cost when
//! disabled. Two more legs ride along: a store-warm leg asserting a
//! warm store lookup beats the cold replay it replaces by >10x, and the
//! run-level span layer (the run's span setting toggled between off and
//! cells, with the side that runs first alternating from round to
//! round), which fails if recording spans costs more
//! than 1% throughput — an upper bound on the disabled span layer's
//! overhead, which is one read of the run's span setting per replay
//! batch, when the batch is made.
//!
//! [`TracingProbe`]: sac_obs::TracingProbe
//! [`Timeline`]: sac_obs::Timeline

use sac_experiments::cli;
use sac_experiments::coherence::{self, Protocol};
use sac_experiments::diff::diff_configs;
use sac_experiments::explain::{
    bench_refs_per_sec, explain_config, explain_timeline, hit_heavy_trace, miss_heavy_trace,
    mixed_trace,
};
use sac_experiments::runner::{self, ReplayBatch, Run, Spans, REPLAY_CHUNK};
use sac_experiments::{Config, ResultStore};
use sac_trace::Trace;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

/// The longest synthetic trace `--len` accepts: 2^26 references, a
/// 1 GiB trace.
const MAX_LEN: usize = 1 << 26;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut config_name = "soft".to_string();
    let mut config_explicit = false;
    let mut trace_name = "mixed".to_string();
    let mut len = 500_000usize;
    let mut obs_json: Option<String> = None;
    let mut ring = 4096usize;
    let mut sample = 1u64;
    let mut top = 5usize;
    let mut bench_guard: Option<String> = None;
    let mut guard_pct = 5.0f64;
    let mut store_dir: Option<String> = None;
    let mut timeline = false;
    let mut window = sac_obs::DEFAULT_WINDOW_REFS;
    let mut diff_name: Option<String> = None;
    let mut cpus = 1usize;
    let mut protocol = Protocol::Mesi;

    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--config" => {
                config_name = value("--config");
                config_explicit = true;
            }
            "--trace" => trace_name = value("--trace"),
            "--len" => {
                len = cli::positive("--len", iter.next()).unwrap_or_else(|e| fail(&e));
                if len > MAX_LEN {
                    fail(&format!("--len: at most {MAX_LEN} references"));
                }
            }
            "--obs-json" => obs_json = Some(value("--obs-json")),
            "--ring" => ring = cli::positive("--ring", iter.next()).unwrap_or_else(|e| fail(&e)),
            "--sample" => {
                sample = cli::positive("--sample", iter.next()).unwrap_or_else(|e| fail(&e))
            }
            "--top" => top = cli::positive("--top", iter.next()).unwrap_or_else(|e| fail(&e)),
            "--timeline" => timeline = true,
            "--window" => {
                window = cli::positive("--window", iter.next()).unwrap_or_else(|e| fail(&e))
            }
            "--diff" => diff_name = Some(value("--diff")),
            "--cpus" => cpus = cli::positive("--cpus", iter.next()).unwrap_or_else(|e| fail(&e)),
            "--protocol" => {
                let name = value("--protocol");
                protocol = Protocol::by_name(&name).unwrap_or_else(|| {
                    fail(&format!(
                        "--protocol {name:?} not supported ({})",
                        Protocol::CLI_NAMES
                    ))
                });
            }
            "--store" => store_dir = Some(value("--store")),
            "--bench-guard" => bench_guard = Some(value("--bench-guard")),
            "--bench-guard-pct" => {
                // NaN or infinity would disarm the gate, a negative value
                // would trip it on noise.
                guard_pct = value("--bench-guard-pct")
                    .parse()
                    .ok()
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .unwrap_or_else(|| fail("--bench-guard-pct needs a finite number >= 0"))
            }
            "--small" => len = 50_000,
            other => fail(&format!(
                "unknown argument {other:?} (see the module docs for usage)"
            )),
        }
    }

    let run = Run::default();
    runner::install(run.clone());

    // The coherent run uses Standard caches and no probe: refuse the
    // options it would otherwise ignore, before any file is created.
    if cpus > 1 {
        let ignored = [
            (config_explicit && config_name != "standard", "--config"),
            (diff_name.is_some(), "--diff"),
            (timeline, "--timeline"),
            (obs_json.is_some(), "--obs-json"),
            (store_dir.is_some(), "--store"),
            (bench_guard.is_some(), "--bench-guard"),
        ];
        if let Some((_, flag)) = ignored.iter().find(|(set, _)| *set) {
            fail(&format!(
                "{flag} is not supported with --cpus above 1 (the coherent run \
                 uses Standard caches and no probe)"
            ));
        }
        if cpus > sac_trace::MAX_CPUS {
            fail(&format!("--cpus: at most {} CPUs", sac_trace::MAX_CPUS));
        }
    }

    // Validate output paths up front: a long instrumented run must not
    // die at the final write because the directory does not exist.
    let mut obs_writer = obs_json.map(|path| {
        let f = sac_trace::io::create_output(&path)
            .unwrap_or_else(|e| fail(&format!("--obs-json: {e}")));
        (path, BufWriter::new(f))
    });
    let store = store_dir
        .map(|dir| ResultStore::open(&dir).unwrap_or_else(|e| fail(&format!("--store: {e}"))));

    let config = Config::by_name(&config_name).unwrap_or_else(|| {
        fail(&format!(
            "--config {config_name:?} not supported ({})",
            Config::CLI_NAMES
        ))
    });
    let diff_config = diff_name.as_ref().map(|name| {
        Config::by_name(name).unwrap_or_else(|| {
            fail(&format!(
                "--diff {name:?} not supported ({})",
                Config::CLI_NAMES
            ))
        })
    });
    let trace: Trace = match trace_name.as_str() {
        "mixed" => mixed_trace(len),
        "hit" => hit_heavy_trace(len),
        "miss" => miss_heavy_trace(len),
        other => fail(&format!(
            "--trace {other:?} not supported (mixed | hit | miss)"
        )),
    };

    // The multi-CPU path: shard the chosen trace round-robin over the
    // CPUs and run the coherent system instead of a single engine. The
    // run's SWMR invariant is verified inside `run_coherent` before
    // anything is printed; the uniprocessor explainer below is
    // untouched when `--cpus` is 1 or absent.
    if cpus > 1 {
        let (geom, mem) = config.shape();
        let tagged = coherence::shard_round_robin(&trace, cpus);
        let label = format!("explain/{trace_name}/{}cpu", cpus);
        let start = Instant::now();
        let summary = coherence::run_coherent(&label, protocol, geom, mem, cpus, &tagged)
            .unwrap_or_else(|e| fail(&format!("coherent run failed: {e}")));
        print!("{}", summary.render());
        eprintln!("coherent run took {:.2?}", start.elapsed());
        return;
    }

    let label = format!("explain/{trace_name}/{config_name}");
    let start = Instant::now();
    let explanation = match explain_config(&label, &config, &trace, ring, sample) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("explain failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", explanation.render(top));
    eprintln!("instrumented run took {:.2?}", start.elapsed());
    append_jsonl(&mut obs_writer, |w| {
        explanation.probe.write_jsonl(&label, w)
    });

    if timeline {
        match explain_timeline(&label, &config, &trace, window) {
            Ok((tl, _metrics)) => {
                print!("{}", tl.render(&label));
                println!(
                    "timeline: {} windows, {} phases; window sums reconcile exactly \
                     with the global metrics",
                    tl.windows().len(),
                    tl.phases().len()
                );
                append_jsonl(&mut obs_writer, |w| tl.write_jsonl(&label, w));
            }
            Err(e) => {
                eprintln!("timeline reconciliation failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // The differential pass: replay the same trace through this config
    // and the `--diff` config in lockstep, attribute every divergent
    // reference to a mechanism, and reconcile the attribution exactly
    // against the two sides' counter difference before printing.
    if let Some(config_b) = &diff_config {
        let name_b = diff_name.as_deref().expect("--diff parsed");
        let label_b = format!("explain/{trace_name}/{name_b}");
        let diff_start = Instant::now();
        let report = diff_configs(&label, &config, &label_b, config_b, &trace, REPLAY_CHUNK)
            .unwrap_or_else(|e| fail(&format!("diff failed: {e}")));
        print!("{}", report.render(top));
        eprintln!("lockstep diff took {:.2?}", diff_start.elapsed());
        append_jsonl(&mut obs_writer, |w| report.write_jsonl(w, top));
    }

    if let Some((path, mut w)) = obs_writer {
        w.flush()
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        eprintln!("wrote telemetry JSONL to {path}");
    }

    // With a store attached, this run either seeds the cell or is
    // cross-checked against the stored result: the probed engine must
    // reproduce exactly what an earlier (unprobed or probed) run stored
    // for the same trace content, config and engine version.
    if let Some(store) = &store {
        let hash = trace.content_hash();
        match store.load(hash, &config) {
            Some(m) if m == explanation.metrics => {
                run.counter_add("store.hits", 1);
                eprintln!("store: verified this run against {}", store.dir().display());
            }
            Some(_) => fail(&format!(
                "store: {} holds different metrics for this cell under the same \
                 engine version — stale or corrupt store, delete it or bump \
                 ENGINE_VERSION after a semantics change",
                store.dir().display()
            )),
            None => {
                run.counter_add("store.misses", 1);
                store
                    .save(hash, &config, &explanation.metrics)
                    .unwrap_or_else(|e| fail(&format!("store: {e}")));
                eprintln!("store: recorded this cell in {}", store.dir().display());
            }
        }
        // The same summary line (and registry snapshot) the figures
        // store path prints, so both binaries surface the store
        // counters identically.
        let reg = run.registry();
        eprintln!(
            "store: {} hit(s), {} miss(es), {} entr{} in {}",
            reg.counter("store.hits"),
            reg.counter("store.misses"),
            store.len(),
            if store.len() == 1 { "y" } else { "ies" },
            store.dir().display()
        );
        eprint!("{}", reg.render_text());
    }

    if let Some(path) = bench_guard {
        run_bench_guard(&path, guard_pct);
    }
}

/// Re-times unprobed replay of the shared benchmark shapes and compares
/// with the recorded rates; exits non-zero on a regression beyond `pct`.
fn run_bench_guard(path: &str, pct: f64) {
    const BENCH_LEN: usize = 2_000_000;
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("--bench-guard: cannot read {path}: {e}")));
    let mut regressed = false;
    for (name, trace) in [
        ("hit_heavy", hit_heavy_trace(BENCH_LEN)),
        ("miss_heavy", miss_heavy_trace(BENCH_LEN)),
    ] {
        let Some(baseline_rate) = bench_refs_per_sec(&json, name) else {
            fail(&format!(
                "--bench-guard: no refs_per_sec for {name} in {path}"
            ));
        };
        // Best of five rounds: a scheduling hiccup slows single rounds,
        // a real regression slows all of them. The batch composition
        // must stay in lockstep with the `figures --bench-json` timer
        // that recorded the baseline.
        let rate = (0..5)
            .map(|round| guard_rate(name, &trace, round))
            .fold(0.0f64, f64::max);
        let delta = 100.0 * (rate - baseline_rate) / baseline_rate;
        let verdict = if delta < -pct {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "bench-guard {name}: {rate:.0} refs/s vs baseline {baseline_rate:.0} \
             ({delta:+.1}%) {verdict}"
        );
    }

    // Store-warm guard: a warm store lookup (trace hash precomputed, as
    // the suite does) must beat the cold replay it replaces by more than
    // 10x — otherwise the store is overhead masquerading as a cache.
    // Self-contained: cold and warm are timed here in a throwaway
    // directory, so no snapshot baseline is involved.
    {
        let dir = std::env::temp_dir().join(format!("sac-guard-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir)
            .unwrap_or_else(|e| fail(&format!("bench-guard store_warm: {e}")));
        let trace = hit_heavy_trace(BENCH_LEN);
        let config = Config::standard();
        let hash = trace.content_hash();
        let cold_start = Instant::now();
        let m = config.run(&trace);
        store
            .save(hash, &config, &m)
            .unwrap_or_else(|e| fail(&format!("bench-guard store_warm: {e}")));
        let cold = cold_start.elapsed().as_secs_f64();
        let mut warm = f64::INFINITY;
        for _ in 0..5 {
            let warm_start = Instant::now();
            assert_eq!(store.load(hash, &config), Some(m), "warm lookup missed");
            warm = warm.min(warm_start.elapsed().as_secs_f64());
        }
        let _ = std::fs::remove_dir_all(&dir);
        let ratio = cold / warm;
        let verdict = if ratio <= 10.0 {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "bench-guard store_warm: cold {cold:.4}s replay+save vs warm {warm:.6}s lookup \
             ({ratio:.0}x, limit 10x) {verdict}"
        );
    }

    // Span-layer overhead guard: time the fastest shape with the run's
    // span setting off vs cells as pairs and keep the most favorable
    // per-round ratio. The side that runs first alternates from round to
    // round, so an order effect (the second replay of a pair running on
    // a warmer cache or clock) is not read as span cost. Recording spans
    // adds a cell span per replay, so it upper-bounds the disabled path
    // — whose only cost is one read of the span setting per batch — and
    // the guard asserts even that upper bound stays within 1%.
    let trace = hit_heavy_trace(BENCH_LEN);
    let rate = |spans, name, round| {
        runner::set_spans(spans);
        guard_rate(name, &trace, round)
    };
    let mut best_ratio = 0.0f64;
    for round in 0..5 {
        let (off, on) = if round % 2 == 0 {
            let off = rate(Spans::Off, "span_off", round);
            (off, rate(Spans::Cells, "span_on", round))
        } else {
            let on = rate(Spans::Cells, "span_on", round);
            (rate(Spans::Off, "span_off", round), on)
        };
        best_ratio = best_ratio.max(on / off);
    }
    runner::set_spans(Spans::Off);
    let overhead = 100.0 * (1.0 - best_ratio.min(1.0));
    let span_verdict = if overhead > 1.0 {
        regressed = true;
        "REGRESSED"
    } else {
        "ok"
    };
    eprintln!(
        "bench-guard span_layer: spans-enabled/disabled ratio {best_ratio:.3} \
         (overhead {overhead:.2}%, limit 1%) {span_verdict}"
    );

    if regressed {
        eprintln!("bench-guard: replay throughput guard regressed (see lines above)");
        std::process::exit(1);
    }
}

/// Appends records to the `--obs-json` file, if one was asked for.
fn append_jsonl(
    writer: &mut Option<(String, BufWriter<File>)>,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) {
    if let Some((path, w)) = writer {
        write(w).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    }
}

/// Replay rate for one trace shape (one round).
fn guard_rate(name: &str, trace: &Trace, round: usize) -> f64 {
    let start = Instant::now();
    let mut batch = ReplayBatch::new();
    batch.push(
        format!("guard/{name}/standard/{round}"),
        &Config::standard(),
    );
    batch.push(
        format!("guard/{name}/victim/{round}"),
        &Config::standard_victim(),
    );
    batch.push(format!("guard/{name}/soft/{round}"), &Config::soft());
    let engines = batch.len() as u64;
    let metrics = batch.replay(trace);
    let wall = start.elapsed().as_secs_f64();
    let refs: u64 = metrics.iter().map(|m| m.refs).sum();
    assert_eq!(refs, trace.len() as u64 * engines);
    refs as f64 / wall
}
