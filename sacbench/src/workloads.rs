//! The five workloads: how each builds its inputs from the seed, what
//! one iteration calls, and how its outputs are checked.

use crate::record::{fnv64, metrics_digest, Checks, Recorder};
use crate::{WorkloadDef, DEFAULT_SEED, REPLAY_HIT_KERNELS, REPLAY_MISS_KERNELS};
use sac_experiments::coherence::{privatize, shard_round_robin, Protocol};
use sac_experiments::runner::{self, ReplayBatch};
use sac_experiments::{figures, Config, ResultStore, Suite, Table};
use sac_simcache::{
    CacheGeometry, CoherenceProtocol, CoherentSystem, CpuCoherence, Dragon, MemoryModel, Mesi,
    Metrics,
};
use sac_trace::io::{ChunkSource, FileSource};
use sac_trace::Trace;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A workload's inputs plus the loop-nest trace generation behind them.
pub struct Setup<I> {
    /// The inputs one iteration runs on.
    pub inputs: I,
    /// Seconds spent in `Program::trace` while building them.
    pub loopir_secs: f64,
    /// References those calls generated.
    pub loopir_refs: u64,
}

/// One benchmark workload, driven by [`crate::harness::run`].
pub trait Workload {
    /// What an iteration runs on, built from the seed.
    type Inputs;
    /// The untimed reference outputs are checked against.
    type Reference;
    /// What one iteration produces.
    type Output;

    /// The workload's entry in [`crate::WORKLOADS`].
    fn def(&self) -> &'static WorkloadDef;

    /// Builds the inputs from `seed` (timed as set-up).
    fn setup(&self, seed: u64) -> Setup<Self::Inputs>;

    /// Whether an iteration uses up its inputs, so that each iteration
    /// needs a fresh build (a `Suite` memoizes the cells it has run).
    fn spends_inputs(&self) -> bool {
        false
    }

    /// The reference traces in the inputs, for the per-layer line-run
    /// arena pass.
    fn traces<'a>(&self, inputs: &'a Self::Inputs) -> Vec<&'a Trace>;

    /// Computes the reference outputs once, untimed; checks made on the
    /// reference itself (golden digests) count in `checks`.
    fn reference(&self, inputs: &Self::Inputs, seed: u64, checks: &mut Checks) -> Self::Reference;

    /// One iteration: the calls users wait for. Records its spans,
    /// layer values and engine work in `rec`.
    fn iterate(&self, inputs: &Self::Inputs, rec: &mut Recorder<'_>) -> Self::Output;

    /// Checks one iteration's outputs against the reference.
    fn check(&self, out: &Self::Output, reference: &Self::Reference, checks: &mut Checks);

    /// After the traced iteration: layer timings that need calls outside
    /// the iteration, and any artifacts for `dir`.
    fn traced_extras(
        &self,
        inputs: &Self::Inputs,
        out: &Self::Output,
        rec: &mut Recorder<'_>,
        dir: &Path,
    ) -> io::Result<()> {
        let _ = (inputs, out, rec, dir);
        Ok(())
    }
}

fn def(name: &str) -> &'static WorkloadDef {
    crate::workload(name).expect("workload is listed in WORKLOADS")
}

/// Traces the named paper benchmarks with the gap seed `Suite` gives
/// each (`seed` plus the benchmark's index in the paper set), so at
/// [`DEFAULT_SEED`] they equal the suite's traces.
fn benchset_traces(names: &[&str], seed: u64) -> Setup<Vec<Trace>> {
    let programs = sac_workloads::benchset();
    let mut traces = Vec::with_capacity(names.len());
    let mut secs = 0.0;
    for name in names {
        let (i, p) = programs
            .iter()
            .enumerate()
            .find(|(_, p)| p.name() == *name)
            .expect("kernel is one of the paper benchmarks");
        let opts = sac_loopir::TraceOptions {
            seed: seed.wrapping_add(i as u64),
            gaps: true,
            levels: false,
        };
        let start = Instant::now();
        let trace = p
            .trace(&opts)
            .unwrap_or_else(|e| panic!("workload {name} failed to trace: {e}"));
        secs += start.elapsed().as_secs_f64();
        traces.push(trace);
    }
    let refs = traces.iter().map(|t| t.len() as u64).sum();
    Setup {
        inputs: traces,
        loopir_secs: secs,
        loopir_refs: refs,
    }
}

/// One figure of the paper, computed over the suite.
pub type FigureFn = fn(&Suite) -> Table;

/// The 19 figures of `figures all`, in its order.
pub const FIGURES: [(&str, FigureFn); 19] = [
    ("fig01a", figures::fig01a),
    ("fig01b", figures::fig01b),
    ("fig03a", figures::fig03a),
    ("fig03b", figures::fig03b),
    ("fig04a", figures::fig04a),
    ("fig04b", |_| figures::fig04b()),
    ("fig06a", figures::fig06a),
    ("fig06b", figures::fig06b),
    ("fig07a", figures::fig07a),
    ("fig07b", figures::fig07b),
    ("fig08a", figures::fig08a),
    ("fig08b", figures::fig08b),
    ("fig09a", figures::fig09a),
    ("fig09b", figures::fig09b),
    ("fig10a", |_| figures::fig10a()),
    ("fig10b", figures::fig10b),
    ("fig11a", |_| figures::fig11a(false)),
    ("fig11b", |_| figures::fig11b(false)),
    ("fig12", figures::fig12),
];

/// Parses a golden file: one `id hex-digest` pair per line.
fn golden(text: &str) -> Vec<(&str, u64)> {
    text.lines()
        .filter_map(|l| {
            let (id, hex) = l.split_once(' ')?;
            Some((id, u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Checks each rendered figure against its golden digest: one check
/// per figure.
pub fn check_figures(rendered: &[String], golden_text: &str, checks: &mut Checks) {
    let want = golden(golden_text);
    for ((id, _), text) in FIGURES.iter().zip(rendered) {
        let got = fnv64(text.as_bytes());
        let expected = want.iter().find(|(g, _)| g == id).map(|&(_, d)| d);
        checks.check(expected == Some(got), || {
            format!("paper_sweep {id}: digest {got:016x}, golden {expected:016x?}")
        });
    }
}

/// The paper-scale suite through every figure.
pub struct PaperSweep;

impl Workload for PaperSweep {
    type Inputs = Suite;
    type Reference = ();
    type Output = Vec<String>;

    fn def(&self) -> &'static WorkloadDef {
        def("paper_sweep")
    }

    /// The suite fixes its own seeds, so this workload ignores `seed`.
    fn setup(&self, _seed: u64) -> Setup<Suite> {
        runner::reset_stats();
        let suite = Suite::paper();
        let loopir_secs = runner::cells()
            .iter()
            .filter(|c| c.label.ends_with("/trace"))
            .map(|c| c.wall.as_secs_f64())
            .sum();
        let loopir_refs = suite.total_refs() as u64;
        Setup {
            inputs: suite,
            loopir_secs,
            loopir_refs,
        }
    }

    fn spends_inputs(&self) -> bool {
        true
    }

    fn traces<'a>(&self, suite: &'a Suite) -> Vec<&'a Trace> {
        suite.entries().iter().map(|(_, t)| &**t).collect()
    }

    fn reference(&self, _: &Suite, _: u64, _: &mut Checks) {}

    fn iterate(&self, suite: &Suite, rec: &mut Recorder<'_>) -> Vec<String> {
        runner::reset_stats();
        let mut rendered = Vec::with_capacity(FIGURES.len());
        let mut render_s = 0.0;
        for (id, figure) in FIGURES {
            let span = rec.begin(id);
            let table = figure(suite);
            let secs = rec.end(span);
            rec.layer(format!("figures.{id}_s"), secs, "s");
            let span = rec.begin("render");
            rendered.push(table.to_string());
            render_s += rec.end(span);
            rec.checkpoint();
        }
        rec.layer("table.render_s", render_s, "s");

        // The runner's own cell ledger splits the sweep by layer: trace
        // generation, trace statistics, and engine replay.
        let (mut gen, mut stats) = (0.0, 0.0);
        let cells = runner::cells();
        for c in &cells {
            let secs = c.wall.as_secs_f64();
            if c.label.ends_with("/trace") {
                gen += secs;
            } else if ["/reuse", "/vectors", "/tags"]
                .iter()
                .any(|s| c.label.ends_with(s))
            {
                stats += secs;
            } else {
                rec.engine.add(secs, &c.metrics);
            }
        }
        rec.layer("sweep.trace_gen_s", gen, "s");
        rec.layer("sweep.stats_s", stats, "s");
        rec.layer("sweep.replay_s", rec.engine.secs, "s");
        rec.layer("sweep.cells", cells.len() as f64, "count");
        rec.layer("sweep.refs", rec.engine.refs as f64, "count");
        rendered
    }

    fn check(&self, rendered: &Vec<String>, _: &(), checks: &mut Checks) {
        check_figures(rendered, include_str!("../golden/paper_sweep.txt"), checks);
    }

    /// Writes the rendered tables exactly as `figures --jobs 1 all`
    /// prints them.
    fn traced_extras(
        &self,
        _: &Suite,
        rendered: &Vec<String>,
        _: &mut Recorder<'_>,
        dir: &Path,
    ) -> io::Result<()> {
        let mut text = String::new();
        for table in rendered {
            text.push_str(table);
            text.push('\n');
        }
        std::fs::write(dir.join("paper_sweep.txt"), text)
    }
}

/// Every organization over a fixed kernel set in one `ReplayBatch` per
/// kernel.
pub struct Replay {
    name: &'static str,
    kernels: [&'static str; 4],
    golden: &'static str,
}

impl Replay {
    /// The low-miss kernel set.
    pub fn hit() -> Self {
        Replay {
            name: "replay_hit",
            kernels: REPLAY_HIT_KERNELS,
            golden: include_str!("../golden/replay_hit.txt"),
        }
    }

    /// The high-miss kernel set.
    pub fn miss() -> Self {
        Replay {
            name: "replay_miss",
            kernels: REPLAY_MISS_KERNELS,
            golden: include_str!("../golden/replay_miss.txt"),
        }
    }

    /// `kernel/organization` for every result, kernel-major.
    fn labels(&self) -> Vec<String> {
        self.kernels
            .iter()
            .flat_map(|k| {
                Config::all_organizations()
                    .into_iter()
                    .map(move |(org, _)| format!("{k}/{org}"))
            })
            .collect()
    }
}

impl Workload for Replay {
    type Inputs = Vec<Trace>;
    type Reference = Vec<Metrics>;
    type Output = Vec<Metrics>;

    fn def(&self) -> &'static WorkloadDef {
        def(self.name)
    }

    fn setup(&self, seed: u64) -> Setup<Vec<Trace>> {
        benchset_traces(&self.kernels, seed)
    }

    fn traces<'a>(&self, traces: &'a Vec<Trace>) -> Vec<&'a Trace> {
        traces.iter().collect()
    }

    /// Each organization run alone through `Config::run`, the
    /// per-access reference path; at the default seed its digest must
    /// also match the golden one.
    fn reference(&self, traces: &Vec<Trace>, seed: u64, checks: &mut Checks) -> Vec<Metrics> {
        let reference: Vec<Metrics> = traces
            .iter()
            .flat_map(|t| {
                Config::all_organizations()
                    .into_iter()
                    .map(move |(_, c)| c.run(t))
            })
            .collect();
        if seed == DEFAULT_SEED {
            let got = metrics_digest(&reference);
            let want = golden(self.golden).first().map(|&(_, d)| d);
            checks.check(want == Some(got), || {
                format!(
                    "{}: reference digest {got:016x}, golden {want:016x?}",
                    self.name
                )
            });
        }
        reference
    }

    fn iterate(&self, traces: &Vec<Trace>, rec: &mut Recorder<'_>) -> Vec<Metrics> {
        runner::reset_stats();
        let mut out = Vec::with_capacity(traces.len() * 8);
        let mut batch_s = 0.0;
        for (kernel, trace) in self.kernels.iter().zip(traces) {
            let span = rec.begin(*kernel);
            let mut batch = ReplayBatch::new();
            for (org, config) in Config::all_organizations() {
                batch.push(format!("{kernel}/{org}"), &config);
            }
            out.extend(batch.replay(trace));
            batch_s += rec.end(span);
        }
        let cells = runner::cells();
        for (org, _) in Config::all_organizations() {
            let mut engine = crate::record::EngineTotals::default();
            for c in cells
                .iter()
                .filter(|c| c.label.ends_with(&format!("/{org}")))
            {
                engine.add(c.wall.as_secs_f64(), &c.metrics);
            }
            rec.layer(format!("simcache.{org}.replay_s"), engine.secs, "s");
            rec.layer(
                format!("simcache.{org}.miss_ratio"),
                engine.misses as f64 / engine.refs.max(1) as f64,
                "ratio",
            );
        }
        for c in &cells {
            rec.engine.add(c.wall.as_secs_f64(), &c.metrics);
        }
        // The batch's own cost: chunk slicing, the fused arena builds and
        // the per-engine dispatch around the engines' replay time.
        rec.layer("runner.batch_overhead_s", batch_s - rec.engine.secs, "s");
        let chunks: u64 = cells
            .iter()
            .filter(|c| c.label.ends_with("/standard"))
            .map(|c| c.chunks)
            .sum();
        rec.layer("runner.chunks", chunks as f64, "count");
        out
    }

    fn check(&self, out: &Vec<Metrics>, reference: &Vec<Metrics>, checks: &mut Checks) {
        checks.metrics(self.name, &self.labels(), out, reference);
    }
}

/// A directory under the checkout's `.sacbench/` that is removed when
/// dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> io::Result<Self> {
        let dir = Path::new(".sacbench")
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The organizations `trace_files` replays from each file.
fn file_configs() -> [(&'static str, Config); 2] {
    [("standard", Config::standard()), ("soft", Config::soft())]
}

/// The two wire formats, with their file extensions.
const FORMATS: [&str; 2] = ["sact", "sac2"];

/// MV and SpMV written to both wire formats, replayed from the files,
/// and their cells stored and loaded back.
pub struct TraceFiles;

/// The inputs of [`TraceFiles`].
pub struct TraceFilesInputs {
    traces: Vec<Trace>,
    dir: TempDir,
}

impl TraceFilesInputs {
    fn file(&self, trace: &Trace, format: &str) -> PathBuf {
        self.dir.path().join(format!("{}.{format}", trace.name()))
    }
}

/// What one [`TraceFiles`] iteration produced.
pub struct TraceFilesOutput {
    /// Per (trace, format): the replayed metrics of [`file_configs`], or
    /// the decode error.
    replays: Vec<(String, Result<Vec<Metrics>, String>)>,
    /// Per (trace, config): what was saved and what came back.
    stored: Vec<(String, Metrics, Option<Metrics>)>,
}

fn encode(trace: &Trace, path: &Path, format: &str) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    match format {
        "sact" => sac_trace::io::write_binary(trace, &mut w)?,
        _ => sac_trace::io::write_binary2(trace, &mut w)?,
    }
    w.flush()
}

impl Workload for TraceFiles {
    type Inputs = TraceFilesInputs;
    type Reference = Vec<Vec<Metrics>>;
    type Output = TraceFilesOutput;

    fn def(&self) -> &'static WorkloadDef {
        def("trace_files")
    }

    fn setup(&self, seed: u64) -> Setup<TraceFilesInputs> {
        let s = benchset_traces(&["MV", "SpMV"], seed);
        let dir = TempDir::new("trace_files").expect("the checkout is writable");
        Setup {
            inputs: TraceFilesInputs {
                traces: s.inputs,
                dir,
            },
            loopir_secs: s.loopir_secs,
            loopir_refs: s.loopir_refs,
        }
    }

    fn traces<'a>(&self, inputs: &'a TraceFilesInputs) -> Vec<&'a Trace> {
        inputs.traces.iter().collect()
    }

    /// The same batch replayed from the in-memory trace.
    fn reference(&self, inputs: &TraceFilesInputs, _: u64, _: &mut Checks) -> Vec<Vec<Metrics>> {
        inputs
            .traces
            .iter()
            .map(|t| {
                let mut batch = ReplayBatch::new();
                for (org, config) in file_configs() {
                    batch.push(format!("reference/{org}"), &config);
                }
                batch.replay(t)
            })
            .collect()
    }

    fn iterate(&self, inputs: &TraceFilesInputs, rec: &mut Recorder<'_>) -> TraceFilesOutput {
        runner::reset_stats();
        for format in FORMATS {
            let span = rec.begin(format!("encode_{format}"));
            for t in &inputs.traces {
                encode(t, &inputs.file(t, format), format).expect("trace file is writable");
            }
            let secs = rec.end(span);
            rec.layer(format!("trace.io.encode_{format}_s"), secs, "s");
        }

        let mut replays = Vec::new();
        for format in FORMATS {
            let span = rec.begin(format!("replay_{format}"));
            for t in &inputs.traces {
                let label = format!("{}.{format}", t.name());
                let result = FileSource::open(inputs.file(t, format)).and_then(|mut src| {
                    let mut batch = ReplayBatch::new();
                    for (org, config) in file_configs() {
                        batch.push(format!("{label}/{org}"), &config);
                    }
                    batch.replay_reader(&mut src)
                });
                replays.push((label, result.map_err(|e| e.to_string())));
            }
            let secs = rec.end(span);
            rec.layer(format!("trace.io.replay_{format}_s"), secs, "s");
        }
        let cells = runner::cells();
        for (org, _) in file_configs() {
            let secs: f64 = cells
                .iter()
                .filter(|c| c.label.ends_with(&format!("/{org}")))
                .map(|c| c.wall.as_secs_f64())
                .sum();
            rec.layer(format!("simcache.{org}.replay_s"), secs, "s");
        }
        for c in &cells {
            rec.engine.add(c.wall.as_secs_f64(), &c.metrics);
        }

        let span = rec.begin("content_hash");
        let hashes: Vec<u64> = inputs.traces.iter().map(Trace::content_hash).collect();
        let secs = rec.end(span);
        rec.layer("trace.content_hash_s", secs, "s");

        let store_dir = inputs.dir.path().join("store");
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = ResultStore::open(&store_dir).expect("store directory is creatable");
        let span = rec.begin("store.save");
        let mut saved = Vec::new();
        // The first replays are the SACT ones, one per trace in order.
        for ((t, hash), (_, result)) in inputs.traces.iter().zip(&hashes).zip(&replays) {
            let Ok(metrics) = result else { continue };
            for ((org, config), m) in file_configs().iter().zip(metrics) {
                store
                    .save(*hash, config, m)
                    .expect("store entry is writable");
                saved.push((format!("{}/{org}", t.name()), *hash, *config, *m));
            }
        }
        let secs = rec.end(span);
        rec.layer("store.save_s", secs, "s");
        let span = rec.begin("store.load");
        let stored: Vec<(String, Metrics, Option<Metrics>)> = saved
            .into_iter()
            .map(|(label, hash, config, m)| (label, m, store.load(hash, &config)))
            .collect();
        let secs = rec.end(span);
        rec.layer("store.load_s", secs, "s");
        let hits = stored.iter().filter(|(_, _, l)| l.is_some()).count();
        rec.layer("store.hits", hits as f64, "count");
        rec.layer("store.misses", (stored.len() - hits) as f64, "count");
        TraceFilesOutput { replays, stored }
    }

    fn check(&self, out: &TraceFilesOutput, reference: &Vec<Vec<Metrics>>, checks: &mut Checks) {
        let labels: Vec<String> = file_configs().iter().map(|(o, _)| o.to_string()).collect();
        // Replays are format-major over the traces.
        for (i, (label, result)) in out.replays.iter().enumerate() {
            let want = &reference[i % reference.len()];
            match result {
                Ok(got) => {
                    checks.metrics(label, &labels, got, want);
                    checks.check(got[0].refs == want[0].refs, || {
                        format!(
                            "{label}: decoded {} references, trace has {}",
                            got[0].refs, want[0].refs
                        )
                    });
                }
                Err(e) => checks.check(false, || format!("{label}: {e}")),
            }
        }
        checks.check(out.stored.len() == reference.len() * labels.len(), || {
            format!("trace_files: {} cells saved", out.stored.len())
        });
        for (label, saved, loaded) in &out.stored {
            checks.check(loaded.as_ref() == Some(saved), || {
                format!("store {label}: saved {saved:?}, loaded {loaded:?}")
            });
        }
    }

    /// Decode-only passes over the files the iteration wrote, and their
    /// sizes.
    fn traced_extras(
        &self,
        inputs: &TraceFilesInputs,
        _: &TraceFilesOutput,
        rec: &mut Recorder<'_>,
        _: &Path,
    ) -> io::Result<()> {
        let refs: u64 = inputs.traces.iter().map(|t| t.len() as u64).sum();
        for format in FORMATS {
            let span = rec.begin(format!("decode_{format}"));
            let mut bytes = 0;
            let mut decoded = 0;
            for t in &inputs.traces {
                let path = inputs.file(t, format);
                bytes += std::fs::metadata(&path)?.len();
                let mut src = FileSource::open(&path).map_err(io::Error::other)?;
                while let Some(chunk) = src.next_chunk().map_err(io::Error::other)? {
                    decoded += chunk.len() as u64;
                }
            }
            let secs = rec.end(span);
            if decoded != refs {
                return Err(io::Error::other(format!(
                    "{format}: decoded {decoded} of {refs} references"
                )));
            }
            rec.layer(format!("trace.io.decode_{format}_s"), secs, "s");
            rec.layer(
                format!("trace.io.{format}_bytes_per_ref"),
                bytes as f64 / refs as f64,
                "B/ref",
            );
        }
        Ok(())
    }
}

/// One coherent run: a cpu-tagged trace under one protocol.
pub struct CoherentCase {
    label: String,
    protocol: Protocol,
    cpus: usize,
    trace: Trace,
}

/// What one coherent run produced.
pub struct CoherentResult {
    metrics: Metrics,
    merged: Metrics,
    swmr: Result<(), String>,
    coherence: CpuCoherence,
    bus_occupancy: u64,
}

fn run_system<P: CoherenceProtocol>(case: &CoherentCase, rec: &mut Recorder<'_>) -> CoherentResult {
    let mut sys: CoherentSystem<P> =
        CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), case.cpus);
    let span = rec.begin(case.label.clone());
    sys.run(&case.trace);
    let run_s = rec.end(span);
    rec.engine.add(run_s, sys.metrics());
    let key = format!("coherent.{}.run_s", P::NAME.to_lowercase());
    let prev = rec.layers.get(&key).map_or(0.0, |v| v.0);
    rec.layer(key, prev + run_s, "s");

    let span = rec.begin("check");
    let swmr = sys.check_swmr();
    let merged = Metrics::merged((0..case.cpus).map(|c| sys.core_metrics(c)));
    let check_s = rec.end(span);
    let prev = rec.layers.get("coherent.check_s").map_or(0.0, |v| v.0);
    rec.layer("coherent.check_s", prev + check_s, "s");
    CoherentResult {
        metrics: *sys.metrics(),
        merged,
        swmr,
        coherence: sys.stats().totals(),
        bus_occupancy: sys.bus().occupancy_cycles(),
    }
}

/// SpMV under MESI (shared at 2 and 4 CPUs, and privatized), MV under
/// Dragon (2 and 4 CPUs), and both sharing microkernels under both
/// protocols.
pub struct Coherent;

impl Workload for Coherent {
    type Inputs = Vec<CoherentCase>;
    type Reference = Vec<Metrics>;
    type Output = Vec<CoherentResult>;

    fn def(&self) -> &'static WorkloadDef {
        def("coherent")
    }

    fn setup(&self, seed: u64) -> Setup<Vec<CoherentCase>> {
        let s = benchset_traces(&["SpMV", "MV"], seed);
        let (spmv, mv) = (&s.inputs[0], &s.inputs[1]);
        let spmv2 = shard_round_robin(spmv, 2);
        let prod_cons = sac_workloads::sharing::producer_consumer(2, 2_000, 16);
        let false_share = sac_workloads::sharing::false_sharing(2, 8_000, 4);
        let case = |label: &str, protocol: Protocol, cpus, trace| CoherentCase {
            label: format!("{}/{label}", protocol.name().to_lowercase()),
            protocol,
            cpus,
            trace,
        };
        let cases = vec![
            case("SpMV/private2", Protocol::Mesi, 2, privatize(&spmv2)),
            case(
                "SpMV/shared4",
                Protocol::Mesi,
                4,
                shard_round_robin(spmv, 4),
            ),
            case("SpMV/shared2", Protocol::Mesi, 2, spmv2),
            case("MV/shared2", Protocol::Dragon, 2, shard_round_robin(mv, 2)),
            case("MV/shared4", Protocol::Dragon, 4, shard_round_robin(mv, 4)),
            case("prod_cons", Protocol::Mesi, 2, prod_cons.clone()),
            case("false_share", Protocol::Mesi, 2, false_share.clone()),
            case("prod_cons", Protocol::Dragon, 2, prod_cons),
            case("false_share", Protocol::Dragon, 2, false_share),
        ];
        Setup {
            inputs: cases,
            loopir_secs: s.loopir_secs,
            loopir_refs: s.loopir_refs,
        }
    }

    fn traces<'a>(&self, cases: &'a Vec<CoherentCase>) -> Vec<&'a Trace> {
        cases.iter().map(|c| &c.trace).collect()
    }

    fn reference(&self, cases: &Vec<CoherentCase>, _: u64, _: &mut Checks) -> Vec<Metrics> {
        let mut rec = Recorder::untraced();
        self.iterate(cases, &mut rec)
            .iter()
            .map(|r| r.metrics)
            .collect()
    }

    fn iterate(&self, cases: &Vec<CoherentCase>, rec: &mut Recorder<'_>) -> Vec<CoherentResult> {
        let results: Vec<CoherentResult> = cases
            .iter()
            .map(|case| match case.protocol {
                Protocol::Mesi => run_system::<Mesi>(case, rec),
                Protocol::Dragon => run_system::<Dragon>(case, rec),
            })
            .collect();
        let mut totals = CpuCoherence::default();
        for r in &results {
            totals.merge(&r.coherence);
        }
        let bus: u64 = results.iter().map(|r| r.bus_occupancy).sum();
        rec.layer(
            "coherent.invalidations",
            totals.invalidations_received as f64,
            "count",
        );
        rec.layer("coherent.c2c_fills", totals.c2c_fills as f64, "count");
        rec.layer("coherent.upgrades", totals.upgrades as f64, "count");
        rec.layer(
            "coherent.false_sharing_frac",
            totals.false_sharing_invalidations as f64 / totals.invalidations_received.max(1) as f64,
            "ratio",
        );
        rec.layer("coherent.bus_occupancy_cycles", bus as f64, "count");
        results
    }

    fn check(&self, out: &Vec<CoherentResult>, reference: &Vec<Metrics>, checks: &mut Checks) {
        checks.check(out.len() == reference.len(), || {
            format!(
                "coherent: {} runs for {} references",
                out.len(),
                reference.len()
            )
        });
        for (i, (r, want)) in out.iter().zip(reference).enumerate() {
            checks.check(r.swmr.is_ok(), || format!("coherent run {i}: {:?}", r.swmr));
            checks.check(r.merged == r.metrics, || {
                format!(
                    "coherent run {i}: per-CPU metrics merge to {:?}, global is {:?}",
                    r.merged, r.metrics
                )
            });
            checks.check(r.metrics == *want, || {
                format!("coherent run {i}: got {:?}, want {want:?}", r.metrics)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_digest_is_exactly_one_failure() {
        let rendered: Vec<String> = FIGURES
            .iter()
            .map(|(id, _)| format!("table {id}"))
            .collect();
        let golden_text: String = FIGURES
            .iter()
            .zip(&rendered)
            .map(|((id, _), t)| format!("{id} {:016x}\n", fnv64(t.as_bytes())))
            .collect();
        let mut ok = Checks::default();
        check_figures(&rendered, &golden_text, &mut ok);
        assert_eq!((ok.attempted, ok.failed), (19, 0));

        let mut changed = rendered.clone();
        changed[7].push(' ');
        let mut bad = Checks::default();
        check_figures(&changed, &golden_text, &mut bad);
        assert_eq!((bad.attempted, bad.failed), (19, 1));
    }

    #[test]
    fn committed_goldens_cover_every_figure() {
        let g = golden(include_str!("../golden/paper_sweep.txt"));
        let ids: Vec<&str> = g.iter().map(|(id, _)| *id).collect();
        let want: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, want);
        for text in [
            include_str!("../golden/replay_hit.txt"),
            include_str!("../golden/replay_miss.txt"),
        ] {
            assert_eq!(golden(text).len(), 1);
        }
    }

    #[test]
    fn kernel_sets_are_disjoint_paper_benchmarks() {
        let names: Vec<String> = sac_workloads::benchset()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        for k in REPLAY_HIT_KERNELS.iter().chain(&REPLAY_MISS_KERNELS) {
            assert!(names.iter().any(|n| n == k), "{k}");
        }
        assert!(REPLAY_HIT_KERNELS
            .iter()
            .all(|k| !REPLAY_MISS_KERNELS.contains(k)));
    }
}
