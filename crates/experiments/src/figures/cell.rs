//! Cells as data. A [`Cell`] is one simulation of a figure: its ledger
//! label, the [`Input`] its trace comes from and the [`Work`] run on that
//! trace. A [`Plan`] is a figure's cells, one grid row per pool item, and
//! the fold from their outcomes to its table; `run_cells` runs any grid.

use crate::coherence::{self, run_coherent, Protocol};
use crate::{runner, Config, Suite, Table};
use sac_loopir::{Program, TraceOptions};
use sac_simcache::{classify_misses, CacheGeometry, MemoryModel, Metrics};
use sac_trace::stats::{
    ReuseBand, ReuseHistogram, TagClass, TagFractions, VectorBand, VectorLengths,
};
use sac_trace::Trace;
use std::sync::Arc;

/// One simulation of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The label the cell records under in the run's ledger.
    pub label: String,
    /// Where the cell's trace comes from.
    pub input: Input,
    /// What runs on that trace.
    pub work: Work,
}

/// Where a cell's trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A benchmark of the suite, by name.
    Suite(String),
    /// A benchmark of the leveled suite, by name.
    Leveled(String),
    /// A program traced while its cells replay it.
    Program {
        /// The ledger label of the trace generation.
        label: String,
        /// The program.
        program: Arc<Program>,
        /// The tracer options.
        opts: TraceOptions,
    },
    /// A coherence-sweep workload issued by `cpus` CPUs.
    Coherent {
        /// The sweep row naming the workload.
        row: &'static str,
        /// The CPU count.
        cpus: usize,
        /// Whether each CPU works on its own copy of the data.
        private: bool,
    },
}

/// What a cell runs on its trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// A replay under a configuration.
    Replay(Config),
    /// A replay under a configuration that invalidates the whole cache
    /// every quantum (the second field) references.
    ContextSwitch(Config, usize),
    /// A trace statistic's fractions.
    Stat(Stat),
    /// The 3C classes per reference (compulsory, capacity, conflict,
    /// total) of a geometry.
    Classify(CacheGeometry),
    /// A coherent run under a protocol, one Standard cache per CPU.
    Coherent(Protocol),
}

/// The trace statistics of Figures 1a, 1b and 4a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Temporal reuse distances.
    Reuse,
    /// Vector lengths of reference streams.
    Vectors,
    /// Software-tag classes.
    Tags,
}

impl Stat {
    /// The ledger-label suffix of the statistic's cells.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stat::Reuse => "reuse",
            Stat::Vectors => "vectors",
            Stat::Tags => "tags",
        }
    }

    /// The labels of the fractions, in order.
    pub(crate) fn columns(self) -> Vec<&'static str> {
        match self {
            Stat::Reuse => ReuseBand::ALL.iter().map(|b| b.label()).collect(),
            Stat::Vectors => VectorBand::ALL.iter().map(|b| b.label()).collect(),
            Stat::Tags => TagClass::ALL.iter().map(|c| c.label()).collect(),
        }
    }

    fn fractions(self, trace: &Trace) -> Vec<f64> {
        match self {
            Stat::Reuse => ReuseHistogram::of(trace).fractions().to_vec(),
            Stat::Vectors => VectorLengths::of(trace).fractions().to_vec(),
            Stat::Tags => TagFractions::of(trace).fractions().to_vec(),
        }
    }
}

/// What a cell produced: the counters of a replay or a coherent run
/// (zero for an analysis) and the values it read out of its trace (a
/// statistic's fractions, the 3C classes, a coherent run's false-sharing
/// percentage).
#[derive(Debug, Clone)]
pub(crate) struct Outcome {
    pub(crate) metrics: Metrics,
    pub(crate) values: Vec<f64>,
}

/// The outcomes of a grid, in its shape.
type Outcomes = Vec<Vec<Outcome>>;

/// A figure as data: its cells, one grid row per pool item, and the fold
/// from their outcomes to its table.
pub struct Plan {
    rows: Vec<Vec<Cell>>,
    fold: Box<dyn FnOnce(Outcomes) -> Table>,
}

impl Plan {
    /// A plan whose `fold` makes the table from the outcomes of `rows`.
    pub(crate) fn new(
        rows: Vec<Vec<Cell>>,
        fold: impl FnOnce(Outcomes) -> Table + 'static,
    ) -> Self {
        let fold = Box::new(fold);
        Plan { rows, fold }
    }

    /// One table row per grid row: `table` gets each row's name and the
    /// `values` of its outcomes, in row order.
    pub(crate) fn per_row(
        mut table: Table,
        rows: Vec<(String, Vec<Cell>)>,
        values: impl Fn(&[Outcome]) -> Vec<f64> + 'static,
    ) -> Self {
        let (names, rows): (Vec<String>, Vec<Vec<Cell>>) = rows.into_iter().unzip();
        Plan::new(rows, move |outcomes| {
            for (name, row) in names.into_iter().zip(outcomes) {
                table.push_row(name, values(&row));
            }
            table
        })
    }

    /// This plan with `finish` applied to its folded table.
    pub(crate) fn then(self, finish: impl FnOnce(&mut Table) + 'static) -> Self {
        let fold = self.fold;
        Plan::new(self.rows, move |outcomes| {
            let mut table = fold(outcomes);
            finish(&mut table);
            table
        })
    }

    /// The cells, row by row.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Runs the cells and folds their outcomes; suite cells read `suite`.
    pub(crate) fn run(self, suite: Option<&Suite>) -> Table {
        (self.fold)(run_cells(&self.rows, suite))
    }
}

/// Runs every cell of `rows`, one pool item per row, and returns the
/// outcomes in the shape of `rows`, the same at any worker count.
///
/// Within a row, consecutive cells that share an input run together. The
/// suite's memo and result store answer the suite replays they have
/// seen, and the rest replay the trace in one batch
/// ([`runner::replay_trace`], where latency lanes form). A program's
/// replays stream its trace while it is generated
/// ([`runner::replay_generated`]). Every other cell runs alone. Suite and
/// leveled cells read `suite`.
///
/// # Panics
///
/// Panics if a suite cell has no `suite` or names a benchmark it lacks, if
/// a program input carries a cell that is not a replay, or if a coherent
/// run breaks the SWMR invariant (an engine bug).
pub(crate) fn run_cells(rows: &[Vec<Cell>], suite: Option<&Suite>) -> Outcomes {
    runner::par_map(rows, |_, row| {
        row.chunk_by(|a, b| a.input == b.input)
            .flat_map(|cells| run_input(&cells[0].input, cells, suite))
            .collect()
    })
}

/// Runs `cells`, which share `input`, and returns their outcomes in order.
fn run_input(input: &Input, cells: &[Cell], suite: Option<&Suite>) -> Vec<Outcome> {
    let replayed = |metrics| Outcome {
        metrics,
        values: Vec::new(),
    };
    match input {
        Input::Suite(bench) | Input::Leveled(bench) => {
            let suite = suite.expect("suite cells run over a suite");
            let trace = suite
                .trace(bench)
                .unwrap_or_else(|| panic!("no benchmark {bench} in the suite"));
            let (mut fresh, mut batch) = (Vec::new(), Vec::new());
            let mut out: Vec<Option<Outcome>> = cells
                .iter()
                .enumerate()
                .map(|(i, cell)| match cell.work {
                    Work::Replay(config) => {
                        let seen = suite.cached(bench, &config);
                        if seen.is_none() {
                            fresh.push(i);
                            batch.push((cell.label.clone(), config));
                        }
                        seen.map(replayed)
                    }
                    _ => Some(run_alone(cell, trace)),
                })
                .collect();
            if !batch.is_empty() {
                let metrics = runner::replay_trace(&batch, trace);
                for ((i, (_, config)), m) in fresh.into_iter().zip(&batch).zip(metrics) {
                    suite.store(bench, config, m);
                    out[i] = Some(replayed(m));
                }
            }
            out.into_iter()
                .map(|o| o.expect("every cell ran"))
                .collect()
        }
        Input::Program {
            label,
            program,
            opts,
        } => {
            let batch: Vec<(String, Config)> = cells
                .iter()
                .map(|cell| match cell.work {
                    Work::Replay(config) => (cell.label.clone(), config),
                    _ => panic!("{}: a program input streams only replays", cell.label),
                })
                .collect();
            runner::replay_generated(label.clone(), &batch, |b| {
                program.trace_into(opts, |chunk| b.feed(chunk))
            })
            .unwrap_or_else(|e| panic!("{} failed to trace: {e}", program.name()))
            .into_iter()
            .map(replayed)
            .collect()
        }
        &Input::Coherent { row, cpus, private } => {
            let trace = coherence::sweep_trace(row, cpus, private);
            cells.iter().map(|cell| run_alone(cell, &trace)).collect()
        }
    }
}

/// Runs one cell alone over `trace`, booked in the ledger under its label
/// with its counters.
fn run_alone(cell: &Cell, trace: &Trace) -> Outcome {
    let outcome = |metrics, values| Outcome { metrics, values };
    let run = || match cell.work {
        Work::Replay(config) => outcome(config.run(trace), Vec::new()),
        Work::ContextSwitch(config, quantum) => {
            let mut engine = config.build();
            engine.run_with_context_switches(trace, quantum);
            outcome(*engine.metrics(), Vec::new())
        }
        Work::Stat(stat) => outcome(Metrics::new(), stat.fractions(trace)),
        Work::Classify(geom) => {
            let c = classify_misses(trace, geom);
            let classes = [c.compulsory, c.capacity, c.conflict, c.total()];
            outcome(Metrics::new(), classes.map(|n| c.per_ref(n)).to_vec())
        }
        Work::Coherent(protocol) => {
            let Input::Coherent { cpus, .. } = cell.input else {
                panic!("{}: a coherent run needs a coherent input", cell.label);
            };
            let (geom, mem) = (CacheGeometry::standard(), MemoryModel::default());
            let s = run_coherent(&cell.label, protocol, geom, mem, cpus, trace)
                .unwrap_or_else(|e| panic!("coherence sweep {e}"));
            outcome(s.metrics, vec![s.false_sharing_pct()])
        }
    };
    let counted = !matches!(cell.work, Work::Stat(_) | Work::Classify(_));
    runner::cell(cell.label.clone(), run, |o| counted.then_some(o.metrics))
}
