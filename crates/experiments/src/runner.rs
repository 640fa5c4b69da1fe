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
//! The runner also owns the sweep's run ([`Run`]): its options (the
//! worker count and the span setting) and its records (the cell ledger,
//! the pipeline spans and the metrics registry). Every cell records its
//! wall time and simulated-cycle counters into the ledger of the calling
//! thread's run, which [`Run::summary`] folds into a [`RunSummary`]
//! (cells done, slowest cells, aggregate speedup) for the `figures`
//! binary.

use sac_obs::span::{Span, SpanKey, SpanLevel};
use sac_obs::MetricsRegistry;
use sac_obs::NoopProbe;
use sac_simcache::{Metrics, ProbedSim};
use sac_trace::io::{ChunkSource, ReadError};
use sac_trace::{Access, Trace};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::Config;

/// How much of the pipeline a run records as spans (DESIGN.md §13.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Spans {
    /// No spans (the default).
    #[default]
    Off,
    /// One span per cell, plus the figure and run spans a bin records.
    Cells,
    /// Cell spans plus one span per replay chunk (`--trace-chunks`).
    Chunks,
}

/// One sweep's options and records.
///
/// The options are the worker count and the span setting; the records
/// are the cell ledger, the pipeline spans with their epoch and RSS
/// samples, and the metrics registry. A clone shares the records. The
/// thread that runs a sweep holds its run ([`install`]), and
/// [`par_map`] hands a clone to each worker, so everything the workers
/// record lands in the caller's run and a run on another thread sees
/// none of it.
#[derive(Clone)]
pub struct Run {
    jobs: usize,
    spans: Spans,
    records: Arc<Records>,
}

/// The shared half of a [`Run`]: the span clock's epoch and the log.
struct Records {
    epoch: Instant,
    log: Mutex<Log>,
}

#[derive(Default)]
struct Log {
    cells: Vec<CellStat>,
    spans: Vec<Span>,
    /// `(us since the epoch, bytes)` RSS samples.
    rss: Vec<(u64, u64)>,
    registry: MetricsRegistry,
}

impl Default for Run {
    fn default() -> Self {
        Run::new(0, Spans::Off)
    }
}

impl Run {
    /// A run with empty records whose span clock starts now. `jobs` is
    /// the worker count: `0` means all cores, `1` the zero-thread
    /// sequential path.
    pub fn new(jobs: usize, spans: Spans) -> Self {
        Run {
            jobs,
            spans,
            records: Arc::new(Records {
                epoch: Instant::now(),
                log: Mutex::new(Log::default()),
            }),
        }
    }

    /// The effective worker count of this run's sweeps.
    pub fn jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.records.log.lock().expect("run log poisoned")
    }

    /// Microseconds since the run was made (the span clock).
    pub fn now_us(&self) -> u64 {
        self.records.epoch.elapsed().as_micros() as u64
    }

    /// Records one completed span, unless spans are off.
    pub fn record_span(&self, span: Span) {
        if self.spans != Spans::Off {
            self.log().spans.push(span);
        }
    }

    /// Records an RSS sample (bytes) at the current span-clock offset,
    /// unless spans are off. Exported as a Chrome counter track in wall
    /// mode.
    pub fn sample_rss(&self, bytes: u64) {
        if self.spans != Spans::Off {
            let ts = self.now_us();
            self.log().rss.push((ts, bytes));
        }
    }

    /// The recorded spans and RSS samples, in recording order.
    pub fn recorded_spans(&self) -> (Vec<Span>, Vec<(u64, u64)>) {
        let log = self.log();
        (log.spans.clone(), log.rss.clone())
    }

    /// Adds `delta` to the registry counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.log().registry.counter_add(name, delta);
    }

    /// The run's metrics registry, with the `sweep.*` entries folded from
    /// the ledger: `sweep.cells`, `sweep.chunks`, `sweep.refs`, per-track
    /// `sweep.busy_us.<track>` and the `sweep.cell_wall_us` histogram.
    pub fn registry(&self) -> MetricsRegistry {
        let log = self.log();
        let mut reg = log.registry.clone();
        for c in &log.cells {
            let wall_us = c.wall.as_micros() as u64;
            reg.counter_add("sweep.cells", 1);
            if c.chunks > 0 {
                reg.counter_add("sweep.chunks", c.chunks);
            }
            if c.metrics.refs > 0 {
                reg.counter_add("sweep.refs", c.metrics.refs);
            }
            reg.counter_add(&format!("sweep.busy_us.{}", c.track()), wall_us);
            reg.hist_record("sweep.cell_wall_us", wall_us);
        }
        reg
    }

    /// A snapshot of the ledger, in recording order.
    pub fn cells(&self) -> Vec<CellStat> {
        self.log().cells.clone()
    }

    /// Cells in the ledger.
    pub fn cells_done(&self) -> usize {
        self.log().cells.len()
    }

    /// Appends one cell to the ledger, attributed to the calling
    /// thread's worker track and queue wait; `chunks` is how many replay
    /// chunks the engine consumed.
    fn record_cell(&self, label: String, wall: Duration, chunks: u64, metrics: Metrics) {
        let (worker, queue_wait_us) = CTX.with(|c| {
            let ctx = c.borrow();
            (ctx.worker, ctx.queue_wait_us)
        });
        self.log().cells.push(CellStat {
            label,
            wall,
            chunks,
            metrics,
            worker,
            queue_wait: Duration::from_micros(queue_wait_us),
        });
    }

    /// Records a cell-level span from `start_us` to now under a claimed
    /// slot: the one span-recording path of every kind of cell.
    fn cell_span(&self, name: String, claim: Claim, start_us: u64, args: &[(&'static str, u64)]) {
        let mut span = Span::new(
            name,
            SpanLevel::Cell,
            claim.key,
            claim.worker,
            start_us,
            self.now_us().saturating_sub(start_us),
        );
        span.args.extend_from_slice(args);
        self.record_span(span.wall_arg("queue_wait_us", claim.queue_wait_us));
    }

    /// Folds the ledger into a [`RunSummary`] for a run that took
    /// `elapsed`.
    pub fn summary(&self, elapsed: Duration) -> RunSummary {
        let cells = self.cells();
        let totals = Metrics::merged(cells.iter().map(|c| &c.metrics));
        let cell_wall = cells.iter().map(|c| c.wall).sum();
        let mut slowest = cells.clone();
        slowest.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.label.cmp(&b.label)));
        slowest.truncate(5);
        RunSummary {
            jobs: self.jobs(),
            cells: cells.len(),
            totals,
            cell_wall,
            elapsed,
            slowest,
        }
    }
}

/// The `item` span-key component of work running outside any
/// [`par_map`] (directly on the calling thread).
const MAIN_ITEM: u32 = u32::MAX;

/// Per-thread sweep context: the run this thread records into, which
/// span track it records on (0 = main thread, `w + 1` = pool worker
/// `w`), which (figure, item) it is executing, the per-item cell
/// sequence counter, and how long the claimed item waited in the queue.
/// Everything the ledger and the spans need to attribute a cell is read
/// from here, so recording never guesses from completion order.
#[derive(Clone)]
struct SweepCtx {
    run: Run,
    worker: u32,
    figure: u32,
    item: u32,
    slot: u32,
    queue_wait_us: u64,
}

thread_local! {
    static CTX: RefCell<SweepCtx> = RefCell::new(SweepCtx {
        run: Run::default(),
        worker: 0,
        figure: 0,
        item: MAIN_ITEM,
        slot: 0,
        queue_wait_us: 0,
    });
}

/// Makes `run` the calling thread's run: the sweeps this thread starts
/// from now on record into it and use its options. A thread that never
/// installs one has its own default run (all cores, spans off).
pub fn install(run: Run) {
    CTX.with(|c| c.borrow_mut().run = run);
}

/// The calling thread's run (a clone sharing its records).
fn current() -> Run {
    CTX.with(|c| c.borrow().run.clone())
}

/// Sets the calling thread's figure sequence number for subsequent
/// cells (the `figures` bin bumps it per figure; 0 is reserved for suite
/// generation) and resets its item context. [`par_map`] hands the
/// number on to its workers. The sequence number is the first component
/// of every span key, so exported artifacts sort by figure regardless of
/// worker scheduling.
pub fn set_figure_seq(seq: u32) {
    CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        ctx.figure = seq;
        ctx.item = MAIN_ITEM;
        ctx.slot = 0;
        ctx.queue_wait_us = 0;
    });
}

/// Sets the worker count of the calling thread's run (the `--jobs N`
/// flag). `1` forces the sequential path; `0` means all cores.
pub fn set_jobs(n: usize) {
    CTX.with(|c| c.borrow_mut().run.jobs = n);
}

/// Sets the span setting of the calling thread's run.
pub fn set_spans(spans: Spans) {
    CTX.with(|c| c.borrow_mut().run.spans = spans);
}

/// Clears the ledger of the calling thread's run (between repeated
/// sweeps in one process, so they do not blend).
pub fn reset_stats() {
    CTX.with(|c| c.borrow().run.log().cells.clear());
}

/// A snapshot of the calling thread's ledger, in recording order.
pub fn cells() -> Vec<CellStat> {
    CTX.with(|c| c.borrow().run.cells())
}

/// Adds `delta` to the counter `name` of the calling thread's registry.
pub(crate) fn counter_add(name: &str, delta: u64) {
    CTX.with(|c| c.borrow().run.counter_add(name, delta));
}

/// Binds the calling thread to item `item` of figure `figure`'s grid.
fn claim_item(worker: u32, figure: u32, item: u32, queue_wait: Duration) {
    CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        ctx.worker = worker;
        ctx.figure = figure;
        ctx.item = item;
        ctx.slot = 0;
        ctx.queue_wait_us = queue_wait.as_micros() as u64;
    });
}

/// A claimed cell slot: the deterministic span key plus the
/// `(worker, queue_wait_us)` attribution.
#[derive(Clone, Copy)]
struct Claim {
    key: SpanKey,
    worker: u32,
    queue_wait_us: u64,
}

/// Claims the next cell slot on this thread.
fn claim_slot() -> Claim {
    CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        let key = SpanKey {
            figure: ctx.figure,
            item: ctx.item,
            slot: ctx.slot,
            chunk: 0,
        };
        ctx.slot += 1;
        Claim {
            key,
            worker: ctx.worker,
            queue_wait_us: ctx.queue_wait_us,
        }
    })
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
    let jobs = CTX.with(|c| c.borrow().run.jobs());
    par_map_workers(items, jobs, f)
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
    // Every item records into the caller's run, under its figure
    // sequence number.
    let saved = CTX.with(|c| c.borrow().clone());
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
        CTX.with(|c| *c.borrow_mut() = saved);
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
            let saved = &saved;
            scope.spawn(move || {
                install(saved.run.clone());
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    claim_item(w as u32 + 1, saved.figure, i as u32, sweep_start.elapsed());
                    if tx.send((i, f(i, &items[i]))).is_err() {
                        break;
                    }
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
pub struct ReplayBatch {
    engines: Vec<BatchSlot>,
    /// Cells pushed so far (an engine with latency lanes carries several).
    cells: usize,
    /// The run the batch records into, and whose span setting it reads,
    /// taken from the calling thread once, when the batch is made.
    run: Run,
    span: Option<BatchSpan>,
}

/// One engine of a batch and the cells it carries: one for a
/// single-config engine, one per lane for a latency-lane engine.
struct BatchSlot {
    /// `(cell index, label, config)` per lane, in lane order.
    cells: Vec<(usize, String, Config)>,
    engine: Box<dyn ProbedSim<NoopProbe>>,
    wall: Duration,
    chunks: u64,
}

/// Span bookkeeping of one batch replay: the batch is the contiguous
/// unit a thread executes, so it records as one cell-level span (with
/// optional per-chunk child spans).
struct BatchSpan {
    claim: Claim,
    start_us: u64,
    chunk_seq: u32,
}

impl Default for ReplayBatch {
    fn default() -> Self {
        ReplayBatch {
            engines: Vec::new(),
            cells: 0,
            run: current(),
            span: None,
        }
    }
}

impl ReplayBatch {
    /// An empty batch recording into the calling thread's run.
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
        engine: Box<dyn ProbedSim<NoopProbe>>,
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

    /// Drives every engine over one decoded chunk (in push order)
    /// through its [`sac_simcache::CacheSim::run_chunk`]. With spans on,
    /// the first chunk opens the batch's cell-level span (claiming this
    /// thread's next slot), so every way of driving a batch records its
    /// span.
    pub fn feed(&mut self, chunk: &[Access]) {
        let spans = self.run.spans;
        if spans != Spans::Off && self.span.is_none() {
            self.span = Some(BatchSpan {
                claim: claim_slot(),
                start_us: self.run.now_us(),
                chunk_seq: 0,
            });
        }
        let chunk_span_start = (spans == Spans::Chunks).then(|| self.run.now_us());
        for slot in &mut self.engines {
            let start = Instant::now();
            slot.engine.run_chunk(chunk);
            slot.wall += start.elapsed();
            slot.chunks += 1;
        }
        if let (Some(start_us), Some(bs)) = (chunk_span_start, &mut self.span) {
            self.run.record_span(
                Span::new(
                    format!("chunk{}", bs.chunk_seq),
                    SpanLevel::Chunk,
                    SpanKey {
                        chunk: bs.chunk_seq,
                        ..bs.claim.key
                    },
                    bs.claim.worker,
                    start_us,
                    self.run.now_us().saturating_sub(start_us),
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
                self.run.counter_add("lanes.engines", 1);
                self.run.counter_add("lanes.cells", lanes.len() as u64);
                self.run.counter_add("lanes.diverged", diverged);
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
                self.run.record_cell(label, wall, chunks, m);
                m
            })
            .collect();
        if let Some(bs) = self.span {
            let refs: u64 = metrics.iter().map(|m| m.refs).sum();
            self.run.cell_span(
                name,
                bs.claim,
                bs.start_us,
                &[
                    ("engines", engines),
                    ("cells", metrics.len() as u64),
                    ("chunks", chunks),
                    ("refs", refs),
                ],
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
    let wall = start.elapsed().saturating_sub(replay);
    batch.run.record_cell(trace_label, wall, 0, Metrics::new());
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

/// Runs `f` as one cell of the calling thread's run: times it, records
/// its span when spans are on (with a `refs` arg when `metrics` reads
/// counters from the result) and appends it to the ledger, with zeroed
/// counters when `metrics` reads none (trace analysis or generation).
pub(crate) fn cell<R>(
    label: String,
    f: impl FnOnce() -> R,
    metrics: impl FnOnce(&R) -> Option<Metrics>,
) -> R {
    let run = current();
    let span_start = (run.spans != Spans::Off).then(|| run.now_us());
    let start = Instant::now();
    let r = f();
    let wall = start.elapsed();
    let m = metrics(&r);
    if let Some(start_us) = span_start {
        let refs = m.map(|m| ("refs", m.refs));
        run.cell_span(label.clone(), claim_slot(), start_us, refs.as_slice());
    }
    run.record_cell(label, wall, 0, m.unwrap_or_default());
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
        let run = Run::new(2, Spans::Off);
        let m = Metrics {
            refs: 7,
            mem_cycles: 21,
            ..Metrics::default()
        };
        run.record_cell("test/ledger/a".into(), Duration::from_millis(5), 3, m);
        run.record_cell("test/ledger/b".into(), Duration::from_millis(2), 0, m);
        let s = run.summary(Duration::from_millis(10));
        assert_eq!(s.jobs, 2);
        assert_eq!(s.cells, 2);
        assert_eq!((s.totals.refs, s.totals.mem_cycles), (14, 42));
        assert_eq!(s.cell_wall, Duration::from_millis(7));
        assert_eq!(s.slowest[0].label, "test/ledger/a");
        assert!((s.speedup() - 0.7).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("sweep: 2 cells, 14 simulated refs"), "{text}");
        let reg = run.registry();
        assert_eq!(reg.counter("sweep.cells"), 2);
        assert_eq!(reg.counter("sweep.chunks"), 3);
        assert_eq!(reg.counter("sweep.refs"), 14);
        assert_eq!(reg.counter("sweep.busy_us.main"), 7_000);
        assert_eq!(reg.hist("sweep.cell_wall_us").unwrap().total(), 2);
    }

    /// Pool workers record every cell and every `lanes.*` and `store.*`
    /// counter into the caller's run; a run installed on another thread
    /// at the same time sees none of it.
    #[test]
    fn par_map_records_into_the_callers_run() {
        use crate::{ResultStore, Suite};
        use sac_simcache::{CacheGeometry, MemoryModel};
        use std::sync::Barrier;

        let barrier = Arc::new(Barrier::new(2));
        let other = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let run = Run::new(4, Spans::Off);
                install(run.clone());
                cell("other/cell".into(), || (), |_| None);
                barrier.wait();
                barrier.wait();
                run
            })
        };
        let run = Run::new(4, Spans::Off);
        install(run.clone());
        barrier.wait();

        let dir = std::env::temp_dir()
            .join("sac-store-tests")
            .join(format!("runner-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = Suite::small();
        cold.attach_store(ResultStore::open(&dir).unwrap());
        let mut warm = Suite::small();
        warm.attach_store(ResultStore::open(&dir).unwrap());
        let names: Vec<String> = cold.names().into_iter().map(String::from).collect();
        let trace: Trace = (0..4_000u64)
            .map(|i| Access::read(i * 40 % 65_536))
            .collect();
        let geom = CacheGeometry::standard();
        par_map(&names, |i, name| {
            let cells: Vec<(String, Config)> = [5, 10, 20]
                .map(|latency| {
                    let mem = MemoryModel::default().with_latency(latency);
                    (
                        format!("lanes/{i}/{latency}"),
                        Config::Standard { geom, mem },
                    )
                })
                .into();
            replay_trace(&cells, &trace);
            let config = Config::standard();
            assert!(cold.cached(name, &config).is_none());
            cold.store(name, &config, Metrics::default());
            assert!(warm.cached(name, &config).is_some());
        });
        barrier.wait();
        let other = other.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let benches = names.len() as u64;
        let cells = run.cells();
        // Two suites' trace generation, then three lane cells per item.
        assert_eq!(cells.len() as u64, 2 * benches + 3 * benches);
        let lane_cells: Vec<&CellStat> = cells
            .iter()
            .filter(|c| c.label.starts_with("lanes/"))
            .collect();
        assert_eq!(lane_cells.len() as u64, 3 * benches);
        assert!(
            lane_cells.iter().all(|c| c.worker >= 1),
            "recorded on workers"
        );
        let reg = run.registry();
        assert_eq!(reg.counter("lanes.engines"), benches);
        assert_eq!(reg.counter("lanes.cells"), 3 * benches);
        assert_eq!(reg.counter("lanes.diverged"), 0);
        assert_eq!(reg.counter("store.misses"), benches);
        assert_eq!(reg.counter("store.hits"), benches);
        assert_eq!(reg.counter("sweep.cells"), 5 * benches);

        let labels: Vec<String> = other.cells().into_iter().map(|c| c.label).collect();
        assert_eq!(labels, ["other/cell"]);
        let reg = other.registry();
        for key in ["lanes.engines", "lanes.cells", "store.hits", "store.misses"] {
            assert_eq!(reg.counter(key), 0, "{key}");
        }
        assert_eq!(reg.counter("sweep.cells"), 1);
    }
}
