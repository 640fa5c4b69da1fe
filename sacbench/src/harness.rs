//! The measurement loop: set-up, warm-up, timed iterations for a fixed
//! time, and the optional traced iteration, producing one result.

use crate::json::{num, quote, Json};
use crate::record::{peak_rss_mib, Checks, HostClock, Recorder, Timing};
use crate::stats::{median, quartiles};
use crate::workloads::{Coherent, PaperSweep, Replay, TraceFiles, Workload};
use crate::{MetricDef, END_TO_END, PER_LAYER, SETUP_REPS};
use sac_experiments::runner::{self, REPLAY_CHUNK};
use sac_simcache::LineRuns;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The input seed.
    pub seed: u64,
    /// How long the timed iterations run, in seconds.
    pub seconds: f64,
    /// Whether to add the traced iteration and report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace and layer file.
    pub trace_dir: PathBuf,
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value (a median where there are several samples).
    pub value: f64,
    /// First and third quartile and sample count, for sampled metrics.
    pub spread: Option<(f64, f64, usize)>,
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload's name.
    pub workload: String,
    /// The seed it ran with.
    pub seed: u64,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// The end-to-end metrics, or the per-layer ones of a traced run.
    pub metrics: Vec<Value>,
}

impl RunResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record `--json` writes: the result line's fields plus the
    /// workload, seed, and each sampled metric's quartiles and count.
    pub fn record(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let spread = m.spread.map_or(String::new(), |(p25, p75, n)| {
                    format!(
                        ", \"p25\": {}, \"p75\": {}, \"samples\": {n}",
                        num(p25),
                        num(p75)
                    )
                });
                format!(
                    "      {}: {{\"value\": {}, \"unit\": {}{spread}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "    {{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
            quote(&self.workload),
            self.seed,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",\n")
        )
    }

    /// A human-readable summary, one metric per line.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: {} of {} checks passed\n",
            self.workload,
            self.attempted - self.failed,
            self.attempted
        );
        for m in &self.metrics {
            s.push_str(&format!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit));
            if let Some((p25, p75, n)) = m.spread {
                s.push_str(&format!("  (p25 {p25:.6}, p75 {p75:.6}, {n} samples)"));
            }
            s.push('\n');
        }
        s
    }
}

/// A set of results as `--json` writes it, and `compare` reads it.
pub fn results_file(results: &[RunResult]) -> String {
    let records: Vec<String> = results.iter().map(RunResult::record).collect();
    format!("{{\"results\": [\n{}\n]}}\n", records.join(",\n"))
}

/// Reads a document written by [`results_file`].
///
/// # Errors
///
/// Returns a message when the document is not a result file.
pub fn read_results(doc: &Json) -> Result<Vec<RunResult>, String> {
    let records = doc.get("results").ok_or("not a sacbench result file")?;
    records
        .items()
        .iter()
        .map(|r| {
            let count = |k: &str| {
                r.get(k)
                    .and_then(Json::num)
                    .ok_or(format!("record without {k}"))
            };
            let metrics = r
                .get("metrics")
                .map_or(&[][..], Json::members)
                .iter()
                .map(|(name, m)| {
                    let f = |k: &str| m.get(k).and_then(Json::num);
                    Ok(Value {
                        name: name.clone(),
                        unit: m.get("unit").and_then(Json::str).unwrap_or("").into(),
                        value: f("value").ok_or(format!("{name} has no value"))?,
                        spread: match (f("p25"), f("p75"), f("samples")) {
                            (Some(a), Some(b), Some(n)) => Some((a, b, n as usize)),
                            _ => None,
                        },
                    })
                })
                .collect::<Result<_, String>>()?;
            Ok(RunResult {
                workload: r
                    .get("workload")
                    .and_then(Json::str)
                    .ok_or("record without workload")?
                    .into(),
                seed: count("seed")? as u64,
                attempted: count("attempted")? as u64,
                failed: count("failed")? as u64,
                metrics,
            })
        })
        .collect()
}

/// Runs the named workload; `None` for an unknown name.
///
/// # Errors
///
/// Returns an error when a traced run cannot write its artifacts.
pub fn run_named(name: &str, opts: &RunOpts) -> Option<io::Result<RunResult>> {
    Some(match name {
        "paper_sweep" => run(&PaperSweep, opts),
        "replay_hit" => run(&Replay::hit(), opts),
        "replay_miss" => run(&Replay::miss(), opts),
        "trace_files" => run(&TraceFiles, opts),
        "coherent" => run(&Coherent, opts),
        _ => return None,
    })
}

/// One timed build of a workload's inputs.
struct SetupSample {
    time: Timing,
    loopir_secs: f64,
    loopir_refs: u64,
}

/// Holds the current inputs and rebuilds them when an iteration has
/// spent them, timing every build as a set-up sample.
struct Inputs<'w, W: Workload> {
    w: &'w W,
    seed: u64,
    current: Option<W::Inputs>,
    spent: bool,
    samples: Vec<SetupSample>,
}

impl<'w, W: Workload> Inputs<'w, W> {
    fn new(w: &'w W, seed: u64, clock: &mut HostClock) -> Self {
        let mut inputs = Inputs {
            w,
            seed,
            current: None,
            spent: false,
            samples: Vec::new(),
        };
        for _ in 0..SETUP_REPS {
            inputs.build(clock);
        }
        inputs
    }

    fn build(&mut self, clock: &mut HostClock) {
        // Drop the old inputs first, so that two builds never coexist.
        self.current = None;
        runner::reset_stats();
        let (s, time) = clock.time(|| self.w.setup(self.seed));
        self.samples.push(SetupSample {
            time,
            loopir_secs: s.loopir_secs,
            loopir_refs: s.loopir_refs,
        });
        self.current = Some(s.inputs);
        self.spent = false;
    }

    fn get(&self) -> &W::Inputs {
        self.current.as_ref().expect("inputs were built")
    }

    /// The inputs for the next iteration: fresh ones if the workload
    /// spends them.
    fn next(&mut self, clock: &mut HostClock) -> &W::Inputs {
        if self.spent && self.w.spends_inputs() {
            self.build(clock);
        }
        self.spent = true;
        self.get()
    }
}

/// Runs one workload: [`SETUP_REPS`] input builds, the untimed
/// reference, the warm-up iterations, then timed iterations back to
/// back (a closed loop with one client) until `opts.seconds` have
/// passed. A traced run adds one traced iteration and reports the
/// per-layer metrics instead of the end-to-end ones.
///
/// # Errors
///
/// Returns an error when a traced run cannot write its artifacts.
pub fn run<W: Workload>(w: &W, opts: &RunOpts) -> io::Result<RunResult> {
    runner::set_jobs(1);
    let mut clock = HostClock::new();
    let mut inputs = Inputs::new(w, opts.seed, &mut clock);
    let mut checks = Checks::default();
    let reference = w.reference(inputs.get(), opts.seed, &mut checks);

    for _ in 0..w.def().warmup {
        let out = w.iterate(inputs.next(&mut clock), &mut Recorder::untraced());
        w.check(&out, &reference, &mut checks);
    }

    let mut iterations: Vec<Timing> = Vec::new();
    let mut engine_refs = 0;
    let start = Instant::now();
    clock.resync();
    while iterations.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let current = inputs.next(&mut clock);
        let mut rec = Recorder::timed(&mut clock);
        let out = w.iterate(current, &mut rec);
        iterations.push(rec.finish());
        engine_refs = rec.engine.refs;
        w.check(&out, &reference, &mut checks);
    }
    let peak_rss = peak_rss_mib().unwrap_or(0.0);

    let metrics = if opts.trace {
        traced(
            w,
            &mut inputs,
            &mut clock,
            &reference,
            &mut checks,
            &iterations,
            opts,
        )?
    } else {
        let setup: Vec<f64> = inputs.samples.iter().map(|s| s.time.norm).collect();
        let walls: Vec<f64> = iterations.iter().map(|t| t.norm).collect();
        let wall = median(&walls);
        let (w25, w75) = quartiles(&walls);
        let rate = |secs: f64| engine_refs as f64 / secs;
        let values = [
            (median(&setup), Some(sampled(&setup))),
            (wall, Some((w25, w75, walls.len()))),
            (rate(wall), Some((rate(w75), rate(w25), walls.len()))),
            (peak_rss, None),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(def, (value, spread))| value_of(def, value, spread))
            .collect()
    };
    Ok(RunResult {
        workload: w.def().name.to_string(),
        seed: opts.seed,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}

fn sampled(values: &[f64]) -> (f64, f64, usize) {
    let (q1, q3) = quartiles(values);
    (q1, q3, values.len())
}

fn value_of(def: &MetricDef, value: f64, spread: Option<(f64, f64, usize)>) -> Value {
    Value {
        name: def.name.to_string(),
        unit: def.unit.to_string(),
        value,
        spread,
    }
}

/// The traced iteration: spans around every layer call, the layer pass
/// over the inputs, and the artifacts in `opts.trace_dir`.
fn traced<W: Workload>(
    w: &W,
    inputs: &mut Inputs<'_, W>,
    clock: &mut HostClock,
    reference: &W::Reference,
    checks: &mut Checks,
    iterations: &[Timing],
    opts: &RunOpts,
) -> io::Result<Vec<Value>> {
    let current = inputs.next(clock);
    let mut rec = Recorder::traced(iterations.len() as u32);
    let (out, traced) = clock.time(|| {
        let span = rec.begin("iteration");
        let out = w.iterate(current, &mut rec);
        rec.end(span);
        out
    });
    w.check(&out, reference, checks);

    std::fs::create_dir_all(&opts.trace_dir)?;
    let span = rec.begin("layer_pass");
    w.traced_extras(current, &out, &mut rec, &opts.trace_dir)?;
    // The fused arena the replay batches build per chunk, rebuilt over
    // the workload's own traces at the standard line shift (32 B lines).
    let mut runs = LineRuns::new();
    let (mut n_runs, mut n_refs) = (0, 0);
    let arena = rec.begin("fused_build");
    for trace in w.traces(current) {
        for chunk in trace.as_slice().chunks(REPLAY_CHUNK) {
            runs.compute_into(chunk, 5);
            n_runs += runs.runs().len();
            n_refs += chunk.len();
        }
    }
    let fused_s = rec.end(arena);
    rec.end(span);

    let loopir: Vec<f64> = inputs.samples.iter().map(|s| s.loopir_secs).collect();
    let loopir_s = median(&loopir);
    let loopir_refs = inputs.samples.last().map_or(0, |s| s.loopir_refs);
    let engine = rec.engine;
    let raw: Vec<f64> = iterations.iter().map(|t| t.raw).collect();
    let norm: Vec<f64> = iterations.iter().map(|t| t.norm).collect();
    let traced_wall = traced.raw;
    for (name, value) in [
        ("loopir.trace_s", loopir_s),
        ("loopir.refs_per_s", loopir_refs as f64 / loopir_s),
        ("engine.replay_s", engine.secs),
        ("engine.refs", engine.refs as f64),
        ("engine.ns_per_ref", engine.secs * 1e9 / engine.refs as f64),
        (
            "engine.miss_ratio",
            engine.misses as f64 / engine.refs as f64,
        ),
        ("iter.outside_engine_s", traced_wall - engine.secs),
        ("simcache.fused.build_s", fused_s),
        ("simcache.fused.runs_per_ref", n_runs as f64 / n_refs as f64),
        ("host.calib_s", median(&clock.calibs)),
        ("host.wall_s", median(&raw)),
        (
            "host.trace_overhead_pct",
            (traced.norm / median(&norm) - 1.0) * 100.0,
        ),
    ] {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .expect("every universal layer metric is in PER_LAYER");
        rec.layer(name, value, def.unit);
    }

    let name = w.def().name;
    std::fs::write(
        opts.trace_dir.join(format!("{name}.trace.json")),
        rec.chrome_trace(),
    )?;
    let layers: Vec<String> = rec
        .layers
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                quote(k),
                num(*v),
                quote(unit)
            )
        })
        .collect();
    std::fs::write(
        opts.trace_dir.join(format!("{name}.layers.json")),
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"layers\": {{\n{}\n}}}}\n",
            quote(name),
            opts.seed,
            layers.join(",\n")
        ),
    )?;

    Ok(PER_LAYER
        .iter()
        .map(|def| {
            let (value, _) = rec.layers[def.name];
            value_of(def, value, None)
        })
        .collect())
}
