//! The parallel sweep runner: a self-scheduling worker pool over the
//! (configuration × workload) grid, with deterministic aggregation.
//!
//! The paper's figures are produced by sweeping many cache
//! configurations over many workload traces. Every cell of that grid is
//! an independent simulation, so the sweep is embarrassingly parallel —
//! but figure output must be **bit-identical** to the sequential path.
//! The runner guarantees that by construction:
//!
//! * work is handed out through a shared atomic cursor (workers "steal"
//!   the next unclaimed cell whenever they finish one, so long cells do
//!   not straggle a static partition);
//! * every result is tagged with its cell index and the aggregator
//!   places it by index, never by completion order;
//! * each cell's floating-point math happens entirely inside the cell,
//!   so no cross-cell reduction order can perturb the values. The only
//!   cross-cell reductions (suite means, geometric means) are performed
//!   after aggregation, in index order.
//!
//! The worker pool is built on `std::thread::scope` and `mpsc` channels
//! only: the build environment is offline, so rayon/crossbeam are not
//! available.
//!
//! The runner also carries a lightweight observability layer: every cell
//! records its wall time and simulated-cycle counters into a process-wide
//! ledger, which [`summary`] folds into a [`RunSummary`] (cells done,
//! slowest cells, aggregate speedup) for the `figures` binary.

use sac_obs::registry;
use sac_obs::span::{self, Span, SpanKey, SpanLevel};
use sac_simcache::{CacheSim, Metrics};
use sac_trace::io::{ChunkSource, ReadError};
use sac_trace::{Access, Trace};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::Config;

/// The configured worker count: 0 means "not set, use all cores".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Whether batch replays record one span per chunk (`--trace-chunks`).
static CHUNK_SPANS: AtomicBool = AtomicBool::new(false);

/// The `item` span-key component of work running outside any
/// [`par_map`] (directly on the calling thread).
const MAIN_ITEM: u32 = u32::MAX;

/// Per-thread sweep context: which span track this thread records on
/// (0 = main thread, `w + 1` = pool worker `w`), which (figure, item)
/// it is executing, the per-item cell sequence counter, and how long
/// the claimed item waited in the queue. Everything the ledger and the
/// span layer need to attribute a cell is read from here, so recording
/// never guesses from completion order.
#[derive(Clone, Copy)]
struct SweepCtx {
    worker: u32,
    figure: u32,
    item: u32,
    slot: u32,
    queue_wait_us: u64,
}

thread_local! {
    static CTX: std::cell::Cell<SweepCtx> = const {
        std::cell::Cell::new(SweepCtx {
            worker: 0,
            figure: 0,
            item: MAIN_ITEM,
            slot: 0,
            queue_wait_us: 0,
        })
    };
}

/// Sets the calling thread's figure sequence number for subsequent
/// cells (the `figures` bin bumps it per figure; 0 is reserved for suite
/// generation) and resets its item context. [`par_map`] hands the
/// number on to its workers. The sequence number is the first component
/// of every span key, so exported artifacts sort by figure regardless of
/// worker scheduling.
pub fn set_figure_seq(seq: u32) {
    CTX.with(|c| {
        c.set(SweepCtx {
            worker: c.get().worker,
            figure: seq,
            item: MAIN_ITEM,
            slot: 0,
            queue_wait_us: 0,
        })
    });
}

/// Enables one span per replay chunk (high volume; `--trace-chunks`).
pub fn set_chunk_spans(on: bool) {
    CHUNK_SPANS.store(on, Ordering::SeqCst);
}

fn chunk_spans() -> bool {
    CHUNK_SPANS.load(Ordering::SeqCst)
}

/// Binds the calling thread to item `item` of figure `figure`'s grid.
fn claim_item(worker: u32, figure: u32, item: u32, queue_wait: Duration) {
    CTX.with(|c| {
        c.set(SweepCtx {
            worker,
            figure,
            item,
            slot: 0,
            queue_wait_us: queue_wait.as_micros() as u64,
        })
    });
}

/// Claims the next cell slot on this thread: the deterministic span
/// key plus `(worker, queue_wait_us)` attribution.
fn claim_slot() -> (SpanKey, u32, u64) {
    CTX.with(|c| {
        let mut ctx = c.get();
        let key = SpanKey {
            figure: ctx.figure,
            item: ctx.item,
            slot: ctx.slot,
            chunk: 0,
        };
        ctx.slot += 1;
        c.set(ctx);
        (key, ctx.worker, ctx.queue_wait_us)
    })
}

/// The calling thread's `(worker, queue_wait_us)` attribution.
fn attribution() -> (u32, u64) {
    CTX.with(|c| {
        let ctx = c.get();
        (ctx.worker, ctx.queue_wait_us)
    })
}

/// Sets the worker count for subsequent sweeps (the `--jobs N` flag).
/// `1` forces the sequential path; `0` resets to "all cores".
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The effective worker count for the next sweep.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Deterministic parallel map: applies `f` to every item and returns the
/// results **in item order**, regardless of completion order.
///
/// Scheduling is dynamic (a shared cursor; idle workers claim the next
/// unclaimed index), so an expensive cell never serializes the tail of
/// the grid behind it. With one worker (or one item) this degenerates to
/// a plain sequential map with zero thread overhead.
///
/// ```
/// use sac_experiments::runner::par_map;
///
/// let squares = par_map(&[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_workers(items, jobs(), f)
}

/// [`par_map`] with an explicit worker count (the testable core).
pub fn par_map_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    // Every item records under the caller's figure sequence number.
    let saved = CTX.with(|c| c.get());
    if workers <= 1 {
        // Sequential path: items still claim `(item, slot)` contexts so
        // recorded cells carry the same deterministic span keys as the
        // parallel path; the caller's context is restored afterwards.
        let start = Instant::now();
        let out = items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                claim_item(saved.worker, saved.figure, i as u32, start.elapsed());
                f(i, t)
            })
            .collect();
        CTX.with(|c| c.set(saved));
        return out;
    }

    let sweep_start = Instant::now();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                claim_item(w as u32 + 1, saved.figure, i as u32, sweep_start.elapsed());
                if tx.send((i, f(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Aggregate by cell index: completion order is irrelevant.
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every cell produced a result"))
        .collect()
}

/// References a replay batch feeds each engine per chunk (also the chunk
/// size of the streaming SACT decoder): 64 KB of `Access`es, small enough
/// to stay hot in L1/L2 while every engine of the batch consumes it.
pub const REPLAY_CHUNK: usize = sac_trace::io::DEFAULT_CHUNK;

/// A batch of independent engines replaying one trace in a single pass.
///
/// Each decoded chunk is fed to every engine in push order before the
/// next chunk is touched, so the chunk stays resident in the fastest
/// cache levels instead of the trace being re-streamed from memory once
/// per configuration. Engines are independent, and every [`Metrics`]
/// counter is additive, so the result is bit-identical to running each
/// configuration alone over the whole trace.
///
/// ```
/// use sac_experiments::runner::ReplayBatch;
/// use sac_experiments::Config;
/// use sac_trace::{Access, Trace};
///
/// let trace: Trace = (0..10_000u64).map(|i| Access::read(i % 512 * 8)).collect();
/// let mut batch = ReplayBatch::new();
/// batch.push("demo/stand".into(), &Config::standard());
/// batch.push("demo/soft".into(), &Config::soft());
/// let metrics = batch.replay(&trace);
/// assert_eq!(metrics[0], Config::standard().run(&trace));
/// assert_eq!(metrics[1], Config::soft().run(&trace));
/// ```
#[derive(Default)]
pub struct ReplayBatch {
    engines: Vec<BatchSlot>,
    /// Cells pushed so far (an engine with latency lanes carries several).
    cells: usize,
    span: Option<BatchSpan>,
}

/// One engine of a batch and the cells it carries: one for a
/// single-config engine, one per lane for a latency-lane engine.
struct BatchSlot {
    /// `(cell index, label, config)` per lane, in lane order.
    cells: Vec<(usize, String, Config)>,
    engine: Box<dyn CacheSim + Send>,
    wall: Duration,
    chunks: u64,
}

/// Span bookkeeping of one batch replay: the batch is the contiguous
/// unit a thread executes, so it records as one cell-level span (with
/// optional per-chunk child spans).
struct BatchSpan {
    key: SpanKey,
    worker: u32,
    queue_wait_us: u64,
    start_us: u64,
    chunk_seq: u32,
}

impl ReplayBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ReplayBatch::default()
    }

    /// Adds one configuration; its metrics appear at the matching index
    /// of [`ReplayBatch::finish`], and its cell is recorded in the ledger
    /// under `label`.
    pub fn push(&mut self, label: String, config: &Config) {
        let index = self.cells;
        self.push_engine(vec![(index, label, *config)], config.build());
    }

    /// Adds an engine carrying `cells`, each with the index its metrics
    /// take among the batch's results. Only [`replay_trace`] pushes a
    /// latency-lane engine (several cells): a lane that diverges is
    /// replayed alone over its in-memory trace.
    fn push_engine(
        &mut self,
        cells: Vec<(usize, String, Config)>,
        engine: Box<dyn CacheSim + Send>,
    ) {
        self.cells += cells.len();
        self.engines.push(BatchSlot {
            cells,
            engine,
            wall: Duration::ZERO,
            chunks: 0,
        });
    }

    /// Number of cells in the batch.
    pub fn len(&self) -> usize {
        self.cells
    }

    /// Whether the batch holds no engines.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Opens the batch's cell-level span (claiming this thread's next
    /// slot), if span recording is on. [`ReplayBatch::feed`] calls it on
    /// the first chunk, so every way of driving a batch records its span.
    fn begin_span(&mut self) {
        if !span::enabled() {
            return;
        }
        let (key, worker, queue_wait_us) = claim_slot();
        self.span = Some(BatchSpan {
            key,
            worker,
            queue_wait_us,
            start_us: span::now_us(),
            chunk_seq: 0,
        });
    }

    /// Drives every engine over one decoded chunk (in push order)
    /// through its [`CacheSim::run_chunk`].
    pub fn feed(&mut self, chunk: &[Access]) {
        if self.span.is_none() {
            self.begin_span();
        }
        let chunk_span_start = match &self.span {
            Some(_) if chunk_spans() => Some(span::now_us()),
            _ => None,
        };
        for slot in &mut self.engines {
            let start = Instant::now();
            slot.engine.run_chunk(chunk);
            slot.wall += start.elapsed();
            slot.chunks += 1;
        }
        if let (Some(start_us), Some(bs)) = (chunk_span_start, &mut self.span) {
            span::record(
                Span::new(
                    format!("chunk{}", bs.chunk_seq),
                    SpanLevel::Chunk,
                    SpanKey {
                        chunk: bs.chunk_seq,
                        ..bs.key
                    },
                    bs.worker,
                    start_us,
                    span::now_us().saturating_sub(start_us),
                )
                .arg("refs", chunk.len() as u64),
            );
            bs.chunk_seq += 1;
        }
    }

    /// Records each engine's cell in the ledger (and the batch's span,
    /// when tracing) and returns the metrics in push order.
    pub fn finish(self) -> Vec<Metrics> {
        self.finish_over(None)
    }

    /// [`ReplayBatch::finish`], replaying any diverged lane alone over
    /// `trace`. Each lane records as its own cell, with its share of the
    /// engine's wall time (plus its solo replay, if it diverged); cells
    /// are recorded and returned in index order.
    fn finish_over(self, trace: Option<&Trace>) -> Vec<Metrics> {
        let name = match self.engines.as_slice() {
            [] => "batch".to_string(),
            [only] if only.cells.len() == 1 => only.cells[0].1.clone(),
            [first, ..] => format!("{} (+{} cfgs)", first.cells[0].1, self.cells - 1),
        };
        let engines = self.engines.len() as u64;
        let chunks = self.engines.iter().map(|s| s.chunks).max().unwrap_or(0);
        let mut done: Vec<(usize, String, Duration, u64, Metrics)> = Vec::with_capacity(self.cells);
        for slot in self.engines {
            let lanes = slot.engine.lane_metrics();
            let share = slot.wall / lanes.len() as u32;
            if lanes.len() > 1 {
                let diverged = lanes.iter().filter(|m| m.is_none()).count() as u64;
                registry::global_counter_add("lanes.engines", 1);
                registry::global_counter_add("lanes.cells", lanes.len() as u64);
                registry::global_counter_add("lanes.diverged", diverged);
            }
            for ((index, label, config), lane) in slot.cells.into_iter().zip(lanes) {
                let (m, wall) = match lane {
                    Some(m) => (m, share),
                    None => {
                        let trace = trace.expect("lane engines replay in-memory traces");
                        let start = Instant::now();
                        let m = config.run(trace);
                        (m, share + start.elapsed())
                    }
                };
                done.push((index, label, wall, slot.chunks, m));
            }
        }
        done.sort_by_key(|&(index, ..)| index);
        let metrics: Vec<Metrics> = done
            .into_iter()
            .map(|(_, label, wall, chunks, m)| {
                record_cell_span(label, wall, chunks, m);
                m
            })
            .collect();
        if let Some(bs) = self.span {
            let refs: u64 = metrics.iter().map(|m| m.refs).sum();
            span::record(
                Span::new(
                    name,
                    SpanLevel::Cell,
                    bs.key,
                    bs.worker,
                    bs.start_us,
                    span::now_us().saturating_sub(bs.start_us),
                )
                .arg("engines", engines)
                .arg("cells", metrics.len() as u64)
                .arg("chunks", chunks)
                .arg("refs", refs)
                .wall_arg("queue_wait_us", bs.queue_wait_us),
            );
        }
        metrics
    }

    /// Feeds a whole in-memory trace chunk by chunk and finishes.
    pub fn replay(mut self, trace: &Trace) -> Vec<Metrics> {
        for chunk in trace.as_slice().chunks(REPLAY_CHUNK) {
            self.feed(chunk);
        }
        self.finish_over(Some(trace))
    }

    /// Streams a serialized trace through the batch without
    /// materializing it as a [`Trace`]: each decoded chunk is consumed by
    /// every engine, then overwritten by the next one. Accepts any
    /// [`ChunkSource`], such as [`sac_trace::io::TraceReader`] over
    /// either wire format.
    ///
    /// # Errors
    ///
    /// Propagates decode errors; engines keep the references replayed so
    /// far but no cells are recorded.
    pub fn replay_reader<S: ChunkSource>(
        mut self,
        reader: &mut S,
    ) -> Result<Vec<Metrics>, ReadError> {
        while let Some(chunk) = reader.next_chunk()? {
            self.feed(chunk);
        }
        Ok(self.finish())
    }
}

/// Runs a labeled configuration sweep over one trace under the ledger:
/// one [`ReplayBatch`] pass, every engine consuming each chunk in turn.
///
/// Configurations that differ only in memory latency and share a
/// [`Config::lane_key`] run as one latency-lane engine: one tag walk
/// prices every latency. A lane whose write-buffer-full answer departs
/// from the first lane's is replayed alone over `trace`, so every
/// result equals [`Config::run`]. Results and ledger cells come back in
/// `cells` order.
pub fn replay_trace(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    // Lane groups in order of first appearance; configs without a lane
    // key are groups of one.
    let mut groups: Vec<(Option<Config>, Vec<usize>)> = Vec::new();
    for (i, (_, config)) in cells.iter().enumerate() {
        let key = config.lane_key();
        match groups.iter_mut().find(|(k, _)| key.is_some() && *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut batch = ReplayBatch::new();
    for (_, members) in groups {
        let group: Vec<(usize, String, Config)> = members
            .iter()
            .map(|&i| (i, cells[i].0.clone(), cells[i].1))
            .collect();
        let engine = match group.as_slice() {
            [(_, _, config)] => config.build(),
            [(_, _, config), ..] => {
                let latencies: Vec<u64> = group.iter().map(|c| c.2.shape().1.latency()).collect();
                config.build_lanes(&latencies)
            }
            [] => unreachable!("every group has a member"),
        };
        batch.push_engine(group, engine);
    }
    batch.replay(trace)
}

/// Runs a labeled configuration sweep over a trace that is generated
/// while it replays: `generate` receives the batch and feeds it each chunk
/// as it is made (typically `|batch| program.trace_into(&opts, |c|
/// batch.feed(c))`), so the trace is never materialized. Engines consume
/// chunks independently of their size, so the metrics equal
/// [`replay_trace`] over the materialized trace.
///
/// The generation is recorded in the ledger under `trace_label` with its
/// own wall time, the total minus the engines' replay time, next to the
/// engines' cells.
///
/// # Errors
///
/// Returns the generator's error; no cell is recorded then.
pub fn replay_generated<E>(
    trace_label: String,
    cells: &[(String, Config)],
    generate: impl FnOnce(&mut ReplayBatch) -> Result<(), E>,
) -> Result<Vec<Metrics>, E> {
    let mut batch = ReplayBatch::new();
    for (label, config) in cells {
        batch.push(label.clone(), config);
    }
    let start = Instant::now();
    generate(&mut batch)?;
    let replay: Duration = batch.engines.iter().map(|slot| slot.wall).sum();
    record_cell(
        trace_label,
        start.elapsed().saturating_sub(replay),
        Metrics::new(),
    );
    Ok(batch.finish())
}

/// One finished sweep cell, as recorded in the observability ledger.
#[derive(Debug, Clone)]
pub struct CellStat {
    /// `figure/benchmark/config` label.
    pub label: String,
    /// Host wall time the cell took.
    pub wall: Duration,
    /// Chunks the replay engine fed this cell (0 for per-access cells
    /// and non-engine cells).
    pub chunks: u64,
    /// The cell's simulation counters (zeroed for pure analysis cells).
    pub metrics: Metrics,
    /// The span track the cell ran on: 0 = main thread, `w + 1` = pool
    /// worker `w`.
    pub worker: u32,
    /// How long the cell's grid item waited between sweep start and a
    /// worker claiming it.
    pub queue_wait: Duration,
}

impl CellStat {
    /// Engine references per wall second (0 when the wall time rounded
    /// to zero).
    pub fn refs_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.metrics.refs as f64 / s
        } else {
            0.0
        }
    }

    /// The cell's track name: `main` for the calling thread, `w00`,
    /// `w01`, ... for pool workers.
    pub fn track(&self) -> String {
        if self.worker == 0 {
            "main".to_string()
        } else {
            format!("w{:02}", self.worker - 1)
        }
    }
}

fn ledger() -> &'static Mutex<Vec<CellStat>> {
    static LEDGER: OnceLock<Mutex<Vec<CellStat>>> = OnceLock::new();
    LEDGER.get_or_init(|| Mutex::new(Vec::new()))
}

/// Appends one cell to the observability ledger.
pub fn record_cell(label: String, wall: Duration, metrics: Metrics) {
    record_cell_span(label, wall, 0, metrics);
}

/// Appends one cell with its chunk-span information (how many replay
/// chunks the engine consumed) to the observability ledger, attributed
/// to the calling thread's worker track and queue wait, and bumps the
/// run-level registry counters (`sweep.cells`, `sweep.chunks`,
/// `sweep.refs`, per-track busy time, cell-wall histogram).
pub fn record_cell_span(label: String, wall: Duration, chunks: u64, metrics: Metrics) {
    let (worker, queue_wait_us) = attribution();
    let wall_us = wall.as_micros() as u64;
    registry::global_counter_add("sweep.cells", 1);
    if chunks > 0 {
        registry::global_counter_add("sweep.chunks", chunks);
    }
    if metrics.refs > 0 {
        registry::global_counter_add("sweep.refs", metrics.refs);
    }
    let track = if worker == 0 {
        "main".to_string()
    } else {
        format!("w{:02}", worker - 1)
    };
    registry::global_counter_add(&format!("sweep.busy_us.{track}"), wall_us);
    registry::global_hist_record("sweep.cell_wall_us", wall_us);
    ledger().lock().expect("ledger poisoned").push(CellStat {
        label,
        wall,
        chunks,
        metrics,
        worker,
        queue_wait: Duration::from_micros(queue_wait_us),
    });
}

/// Clears the ledger (the bins call this before a run so repeated sweeps
/// in one process do not blend).
pub fn reset_stats() {
    ledger().lock().expect("ledger poisoned").clear();
}

/// Cells recorded since the last [`reset_stats`].
pub fn cells_done() -> usize {
    ledger().lock().expect("ledger poisoned").len()
}

/// A snapshot of the ledger, in recording order (the runner-level spans
/// the `figures --bench-json` report folds in).
pub fn cells() -> Vec<CellStat> {
    ledger().lock().expect("ledger poisoned").clone()
}

/// Runs one engine cell under the ledger: builds the engine, drives the
/// trace, and records wall time + metrics under `label`.
pub fn run_cell(label: String, config: &Config, trace: &Trace) -> Metrics {
    metered_cell(label, || config.run(trace))
}

/// Times a cell whose body yields its own [`Metrics`] (engines driven
/// directly rather than through [`Config::run`]).
pub fn metered_cell(label: String, f: impl FnOnce() -> Metrics) -> Metrics {
    let span_start = span::enabled().then(span::now_us);
    let start = Instant::now();
    let m = f();
    let wall = start.elapsed();
    if let Some(start_us) = span_start {
        let (key, worker, queue_wait_us) = claim_slot();
        span::record(
            Span::new(label.clone(), SpanLevel::Cell, key, worker, start_us, {
                wall.as_micros() as u64
            })
            .arg("refs", m.refs)
            .wall_arg("queue_wait_us", queue_wait_us),
        );
    }
    record_cell(label, wall, m);
    m
}

/// Times a non-engine cell (trace analysis, trace generation) under the
/// ledger with zeroed simulation counters.
pub fn timed_cell<R>(label: String, f: impl FnOnce() -> R) -> R {
    let span_start = span::enabled().then(span::now_us);
    let start = Instant::now();
    let r = f();
    let wall = start.elapsed();
    if let Some(start_us) = span_start {
        let (key, worker, queue_wait_us) = claim_slot();
        span::record(
            Span::new(label.clone(), SpanLevel::Cell, key, worker, start_us, {
                wall.as_micros() as u64
            })
            .wall_arg("queue_wait_us", queue_wait_us),
        );
    }
    record_cell(label, wall, Metrics::new());
    r
}

/// The end-of-run report of the observability layer.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Cells completed.
    pub cells: usize,
    /// Merged simulation counters across all cells.
    pub totals: Metrics,
    /// Sum of per-cell wall times (the sequential-equivalent cost).
    pub cell_wall: Duration,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// The slowest cells, most expensive first, with worker and
    /// queue-wait attribution.
    pub slowest: Vec<CellStat>,
}

impl RunSummary {
    /// Aggregate speedup: total cell time over elapsed wall time. ~1.0
    /// when sequential (or on one core); approaches the worker count when
    /// the grid parallelizes well.
    pub fn speedup(&self) -> f64 {
        if self.elapsed.as_secs_f64() > 0.0 {
            self.cell_wall.as_secs_f64() / self.elapsed.as_secs_f64()
        } else {
            1.0
        }
    }
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sweep: {} cells, {} simulated refs, {} simulated cycles",
            self.cells, self.totals.refs, self.totals.mem_cycles
        )?;
        writeln!(
            f,
            "cell time {:.2?} over wall {:.2?} on {} worker(s) — speedup {:.2}x",
            self.cell_wall,
            self.elapsed,
            self.jobs,
            self.speedup()
        )?;
        if !self.slowest.is_empty() {
            writeln!(f, "slowest cells:")?;
            for c in &self.slowest {
                writeln!(
                    f,
                    "  {:>10.2?}  {} [{}, queued {:.2?}]",
                    c.wall,
                    c.label,
                    c.track(),
                    c.queue_wait
                )?;
            }
        }
        Ok(())
    }
}

/// Folds the ledger into a [`RunSummary`] for a run that took `elapsed`.
pub fn summary(elapsed: Duration) -> RunSummary {
    let cells = ledger().lock().expect("ledger poisoned");
    let totals = Metrics::merged(cells.iter().map(|c| &c.metrics));
    let cell_wall = cells.iter().map(|c| c.wall).sum();
    let mut slowest: Vec<CellStat> = cells.clone();
    slowest.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.label.cmp(&b.label)));
    slowest.truncate(5);
    RunSummary {
        jobs: jobs(),
        cells: cells.len(),
        totals,
        cell_wall,
        elapsed,
        slowest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_trace::io::TraceReader;
    use sac_trace::Access;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 4, 7] {
            // Skew the work so late items finish first under parallelism.
            let out = par_map_workers(&items, workers, |i, &x| {
                if i < 4 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                x * 2
            });
            let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_workers(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map_workers(&[9], 4, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn par_map_matches_sequential_for_engine_cells() {
        let trace: Trace = (0..512u64)
            .map(|i| Access::read((i % 96) * 8).with_spatial(i % 3 == 0))
            .collect();
        let configs = [
            Config::standard(),
            Config::soft(),
            Config::standard_victim(),
        ];
        let seq: Vec<_> = configs.iter().map(|c| c.run(&trace)).collect();
        let par = par_map_workers(&configs, 3, |_, c| c.run(&trace));
        assert_eq!(seq, par);
    }

    #[test]
    fn engines_and_traces_are_send_and_sync_enough_for_the_pool() {
        fn sendable<T: Send>() {}
        fn shareable<T: Sync>() {}
        sendable::<Metrics>();
        sendable::<Config>();
        shareable::<Config>();
        shareable::<Trace>();
        sendable::<sac_core::SoftCache>();
        sendable::<sac_simcache::StandardCache>();
        sendable::<sac_simcache::VictimCache>();
        sendable::<sac_simcache::StreamBufferCache>();
    }

    fn seeded_trace(seed: u64, len: usize) -> Trace {
        let mut rng = sac_trace::rng::SplitMix64::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let addr = rng.below(1 << 16);
                let a = if rng.chance(0.3) {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                };
                a.with_temporal(rng.chance(0.4))
                    .with_spatial(rng.chance(0.5))
                    .with_spatial_level((rng.below(4)) as u8)
                    .with_gap(rng.below(8) as u32)
            })
            .collect()
    }

    fn seeded_config(rng: &mut sac_trace::rng::SplitMix64) -> Config {
        use sac_core::SoftCacheConfig;
        use sac_simcache::{BypassMode, CacheGeometry, MemoryModel};
        let geom = CacheGeometry::new(
            [4096u64, 8192, 16384][rng.index(3)],
            [32u64, 64][rng.index(2)],
            [1u32, 2][rng.index(2)],
        );
        let mem = MemoryModel::new(5 + rng.below(30), [8u64, 16][rng.index(2)]);
        match rng.below(6) {
            0 => Config::Standard { geom, mem },
            1 => Config::Victim {
                geom,
                mem,
                lines: 4 + rng.below(8) as u32,
            },
            2 => Config::Bypass {
                geom,
                mem,
                mode: BypassMode::Plain,
            },
            3 => Config::HwPrefetch {
                geom,
                mem,
                lines: 4 + rng.below(8) as u32,
            },
            4 => Config::Soft(
                SoftCacheConfig::soft()
                    .with_geometry(geom)
                    .with_memory(mem)
                    .with_virtual_line(geom.line_bytes() * (1 << rng.below(3))),
            ),
            _ => Config::Soft(
                SoftCacheConfig::soft()
                    .with_geometry(geom)
                    .with_memory(mem)
                    .with_prefetch(true)
                    .with_prefetch_degree(1 + rng.below(3) as u32),
            ),
        }
    }

    /// Property (seeded): batched single-pass replay over random configs
    /// and random traces equals one-config-at-a-time replay.
    #[test]
    fn batched_replay_matches_one_config_at_a_time() {
        for seed in 0..12u64 {
            let mut rng = sac_trace::rng::SplitMix64::seed_from_u64(0xBA7C4 + seed);
            let trace = seeded_trace(seed, 6_000);
            let cells: Vec<(String, Config)> = (0..1 + rng.index(5))
                .map(|i| (format!("prop/seed{seed}/cfg{i}"), seeded_config(&mut rng)))
                .collect();
            let solo: Vec<Metrics> = cells.iter().map(|(_, c)| c.run(&trace)).collect();
            let mut batch = ReplayBatch::new();
            for (label, config) in &cells {
                batch.push(label.clone(), config);
            }
            let batched = batch.replay(&trace);
            assert_eq!(solo, batched, "seed {seed}");
        }
    }

    /// Streaming SACT replay (never materializing the trace) equals
    /// whole-`Vec` replay.
    #[test]
    fn streamed_replay_matches_materialized_replay() {
        let trace = seeded_trace(7, 10_000);
        let mut bytes = Vec::new();
        sac_trace::io::write_binary(&trace, &mut bytes).expect("in-memory write");
        let mut batch = ReplayBatch::new();
        batch.push("stream/stand".into(), &Config::standard());
        batch.push("stream/soft".into(), &Config::soft());
        let mut reader = TraceReader::new(&bytes[..]).expect("valid header");
        let streamed = batch.replay_reader(&mut reader).expect("valid stream");
        let direct = vec![Config::standard().run(&trace), Config::soft().run(&trace)];
        assert_eq!(streamed, direct);
    }

    /// Streaming a trace into a batch while it is generated, as Figures
    /// 11a and 11b do, equals `Config::run` over the materialized trace
    /// for every organization, and records the generation cell.
    #[test]
    fn generated_replay_matches_materialized_runs() {
        // The programs of `fig11a(true)` and `fig11b(true)`.
        let mut programs: Vec<sac_loopir::Program> = [10, 20, 30, 40, 60, 120, 240]
            .map(|block| {
                sac_workloads::blocked::program(sac_workloads::blocked::Params { n: 240, block })
            })
            .into();
        for ld in sac_workloads::copying::FIG11B_LDS {
            for copying in [false, true] {
                programs.push(sac_workloads::copying::program(
                    sac_workloads::copying::Params {
                        n: 32,
                        ld,
                        block: 16,
                        copying,
                    },
                ));
            }
        }
        let cells: Vec<(String, Config)> = Config::all_organizations()
            .into_iter()
            .map(|(name, config)| (format!("test/generated/{name}"), config))
            .collect();
        let opts = sac_loopir::TraceOptions::default();
        for (i, p) in programs.iter().enumerate() {
            let trace = p.trace(&opts).expect("traces");
            let label = format!("test/generated/{i}/trace");
            let streamed = replay_generated(label.clone(), &cells, |batch| {
                p.trace_into(&opts, |chunk| batch.feed(chunk))
            })
            .expect("traces");
            let solo: Vec<Metrics> = cells.iter().map(|(_, c)| c.run(&trace)).collect();
            assert_eq!(streamed, solo, "{}", p.name());
            assert!(super::cells().iter().any(|c| c.label == label));
        }
    }

    #[test]
    fn ledger_folds_into_a_summary() {
        // The ledger is process-global; other tests may add cells
        // concurrently, so assert only on a lower bound and on the cells
        // this test contributed.
        let label = "test/ledger/cell".to_string();
        let m = Metrics {
            refs: 7,
            mem_cycles: 21,
            ..Metrics::default()
        };
        record_cell(label.clone(), Duration::from_millis(5), m);
        let s = summary(Duration::from_millis(10));
        assert!(s.cells >= 1);
        assert!(s.totals.refs >= 7);
        assert!(s.cell_wall >= Duration::from_millis(5));
        assert!(s.speedup() > 0.0);
        let text = s.to_string();
        assert!(text.contains("sweep:"), "{text}");
        assert!(text.contains("speedup"), "{text}");
    }
}
