//! One figure per table of the paper's evaluation, plus the extensions,
//! ablations and coherence sweeps called out in DESIGN.md.
//!
//! A figure is data: [`REGISTRY`] lists each one with its id, its group
//! and a function that returns its [`Plan`]: the [`Cell`]s it replays, as
//! a grid of rows, and the fold that turns their outcomes into its
//! [`Table`]. A cell names one simulation: its ledger label, its input (a
//! suite or leveled-suite benchmark, a generated program with its tracer
//! options, or a coherent sharding) and what runs on it (a replay, a
//! replay with context switches, a trace statistic, the 3C classifier or
//! a coherent run). One function runs any grid, one pool item per row,
//! and puts each result back by row and cell index, so the table is
//! bit-identical at any worker count (`--jobs`). Within a row,
//! consecutive cells that share an input run together: suite replays go
//! through the suite's memo and result store, then one batched pass over
//! the trace in which latency lanes form; a program's replays stream its
//! trace while it is generated. Cross-cell reductions (derived columns,
//! suite means, geometric means) happen in the fold, after every result
//! is back, in row order.

mod cell;

pub use cell::{Cell, Input, Plan, Stat, Work};

use crate::coherence;
use crate::suite::trace_options;
use crate::{Config, Suite, Table};
pub(crate) use cell::Outcome;
use sac_core::SoftCacheConfig;
use sac_loopir::TraceOptions;
use sac_simcache::{BypassMode, CacheGeometry, MemoryModel, Metrics};
use sac_trace::GapModel;
use sac_workloads::{blocked, copying};
use std::sync::Arc;

/// A figure's plan function, tagged by the input its cells read.
#[derive(Clone, Copy)]
pub enum Builder {
    /// The benchmark suite ([`Suite::paper`] or [`Suite::small`]); the
    /// plan is listed over its benchmark names.
    Suite(fn(&[&str]) -> Plan),
    /// The leveled suite ([`Suite::paper_leveled`] or
    /// [`Suite::small_leveled`]), which the figure builds for itself.
    Leveled(fn(&[&str]) -> Plan),
    /// Only the scale: the figure's cells generate their own traces,
    /// scaled down when the flag is set.
    Scale(fn(bool) -> Plan),
}

/// The part of the evaluation a figure belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// The whole-suite summary table.
    Summary,
    /// The paper's own 19 figures.
    Paper,
    /// Experiments beyond the paper.
    Extension,
    /// Ablations of the paper's design choices.
    Ablation,
    /// The multi-core private-vs-shared sweeps, one per protocol.
    Coherence,
}

impl Group {
    /// The command-line name that selects the whole group, if any.
    pub fn name(self) -> Option<&'static str> {
        match self {
            Group::Summary => None,
            Group::Paper => Some("all"),
            Group::Extension => Some("extensions"),
            Group::Ablation => Some("ablations"),
            Group::Coherence => Some("coherence"),
        }
    }
}

/// One figure of [`REGISTRY`].
pub struct Figure {
    /// The id that selects the figure and names its CSV export.
    pub id: &'static str,
    /// The group the figure belongs to.
    pub group: Group,
    /// Lists the figure's cells.
    pub builder: Builder,
}

impl Figure {
    /// Whether the figure's cells read the benchmark suite.
    pub fn needs_suite(&self) -> bool {
        matches!(self.builder, Builder::Suite(_))
    }

    /// The figure's cells and fold, listed over the suite benchmarks
    /// `benches` (for a figure over a suite) at paper scale, or scaled
    /// down when `small`. Listing replays nothing.
    pub fn plan(&self, benches: &[&str], small: bool) -> Plan {
        match self.builder {
            Builder::Suite(f) | Builder::Leveled(f) => f(benches),
            Builder::Scale(f) => f(small),
        }
    }

    /// Runs the figure's cells and returns its table, at paper scale or
    /// scaled down when `small`.
    ///
    /// # Panics
    ///
    /// Panics if the figure [needs the suite](Self::needs_suite) and
    /// `suite` is `None`.
    pub fn build(&self, suite: Option<&Suite>, small: bool) -> Table {
        let leveled;
        let suite = match self.builder {
            Builder::Suite(_) => Some(suite.expect("suite figures are built over the suite")),
            Builder::Leveled(_) => {
                leveled = if small {
                    Suite::small_leveled()
                } else {
                    Suite::paper_leveled()
                };
                Some(&leveled)
            }
            Builder::Scale(_) => None,
        };
        let benches = suite.map(Suite::names).unwrap_or_default();
        self.plan(&benches, small).run(suite)
    }
}

const fn entry(id: &'static str, group: Group, builder: Builder) -> Figure {
    Figure { id, group, builder }
}

/// Every figure, in EXPERIMENTS.md order: the summary, the paper's 19
/// figures, the extensions, the ablations, then the coherence sweeps.
pub const REGISTRY: [Figure; 35] = {
    use crate::coherence::Protocol::{Dragon, Mesi};
    use Builder::{Leveled, Scale, Suite as S};
    use Group::{Ablation as A, Coherence as C, Extension as E, Paper as P};
    [
        entry("summary", Group::Summary, S(summary)),
        entry("fig01a", P, S(fig01a_plan)),
        entry("fig01b", P, S(fig01b_plan)),
        entry("fig03a", P, S(fig03a_plan)),
        entry("fig03b", P, S(fig03b_plan)),
        entry("fig04a", P, S(fig04a_plan)),
        entry("fig04b", P, Scale(|_| fig04b_plan())),
        entry("fig06a", P, S(fig06a_plan)),
        entry("fig06b", P, S(fig06b_plan)),
        entry("fig07a", P, S(fig07a_plan)),
        entry("fig07b", P, S(fig07b_plan)),
        entry("fig08a", P, S(fig08a_plan)),
        entry("fig08b", P, S(fig08b_plan)),
        entry("fig09a", P, S(fig09a_plan)),
        entry("fig09b", P, S(fig09b_plan)),
        entry("fig10a", P, Scale(|_| fig10a_plan())),
        entry("fig10b", P, S(fig10b_plan)),
        entry("fig11a", P, Scale(fig11a_plan)),
        entry("fig11b", P, Scale(fig11b_plan)),
        entry("fig12", P, S(fig12_plan)),
        entry("ext-var-vlines", E, Leveled(ext_variable_vlines)),
        entry("ext-pf-distance", E, S(ext_prefetch_distance)),
        entry("ext-related", E, S(ext_related_designs)),
        entry("ext-related-traffic", E, S(ext_related_traffic)),
        entry("ext-miss-classes", E, S(ext_miss_classes)),
        entry("ext-context-switch", E, S(ext_context_switch)),
        entry("ext-copy-vline", E, Scale(ext_copy_vline)),
        entry("abl-bb-size", A, S(ablation_bb_size)),
        entry("abl-bb-ways", A, S(ablation_bb_ways)),
        entry("abl-bb-policy", A, S(ablation_bb_policy)),
        entry("abl-phys16", A, S(ablation_physical_16)),
        entry("abl-assoc", A, S(ablation_associativity)),
        entry("abl-bus", A, S(ablation_bus_width)),
        entry("coh-mesi", C, Scale(|_| coherence::sweep(Mesi))),
        entry("coh-dragon", C, Scale(|_| coherence::sweep(Dragon))),
    ]
};

/// Resolves figure names against [`REGISTRY`], in argument order: an id
/// selects its figure and a group name (`all`, `extensions`,
/// `ablations`, `coherence`) expands in place to the group's figures.
/// No names selects `all`.
///
/// # Errors
///
/// The first unknown name, with a message listing the valid ones.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static Figure>, String> {
    if names.is_empty() {
        return select(&["all"]);
    }
    let mut selected = Vec::new();
    for name in names.iter().map(AsRef::as_ref) {
        let before = selected.len();
        selected.extend(
            REGISTRY
                .iter()
                .filter(|f| f.id == name || f.group.name() == Some(name)),
        );
        if selected.len() == before {
            let ids: Vec<&str> = REGISTRY.iter().map(|f| f.id).collect();
            let mut groups: Vec<&str> = REGISTRY.iter().filter_map(|f| f.group.name()).collect();
            groups.dedup();
            return Err(format!(
                "unknown figure id {name:?} (valid ids: {}; groups: {})",
                ids.join(" "),
                groups.join(" ")
            ));
        }
    }
    Ok(selected)
}

/// The paper's figures over a suite, as functions of it.
macro_rules! suite_figures {
    ($($id:ident),*) => {$(
        #[doc = concat!("The `", stringify!($id), "` figure of [`REGISTRY`] over `suite`.")]
        pub fn $id(suite: &Suite) -> Table {
            select(&[stringify!($id)]).expect("a registry id")[0].build(Some(suite), false)
        }
    )*};
}

suite_figures!(
    fig01a, fig01b, fig03a, fig03b, fig04a, fig06a, fig06b, fig07a, fig07b, fig08a, fig08b, fig09a,
    fig09b, fig10b, fig12
);

/// The `fig04b` figure of [`REGISTRY`].
pub fn fig04b() -> Table {
    select(&["fig04b"]).expect("a registry id")[0].build(None, false)
}

/// The `fig10a` figure of [`REGISTRY`].
pub fn fig10a() -> Table {
    select(&["fig10a"]).expect("a registry id")[0].build(None, false)
}

/// The `fig11a` figure of [`REGISTRY`], scaled down when `small`.
pub fn fig11a(small: bool) -> Table {
    select(&["fig11a"]).expect("a registry id")[0].build(None, small)
}

/// The `fig11b` figure of [`REGISTRY`], scaled down when `small`.
pub fn fig11b(small: bool) -> Table {
    select(&["fig11b"]).expect("a registry id")[0].build(None, small)
}

/// A replay of `config` over `input`, labeled `label`.
fn replay(label: String, input: &Input, config: Config) -> Cell {
    Cell {
        label,
        input: input.clone(),
        work: Work::Replay(config),
    }
}

/// A program input: `program` traced under `opts`, its generation
/// booked under `label`.
fn program(label: String, program: sac_loopir::Program, opts: TraceOptions) -> Input {
    let program = Arc::new(program);
    Input::Program {
        label,
        program,
        opts,
    }
}

/// The rows of a figure over a suite: each benchmark of `benches`, over
/// `input(bench)`.
fn bench_rows(benches: &[&str], input: fn(String) -> Input) -> Vec<(String, Input)> {
    benches
        .iter()
        .map(|&bench| (bench.to_string(), input(bench.to_string())))
        .collect()
}

/// One grid row per `(name, input)`: a cell per `(column, work)` over the
/// input, labeled `{prefix}/{name}/{column}`.
fn grid(
    prefix: &str,
    rows: Vec<(String, Input)>,
    works: &[(String, Work)],
) -> Vec<(String, Vec<Cell>)> {
    rows.into_iter()
        .map(|(name, input)| {
            let cells = works
                .iter()
                .map(|(column, work)| Cell {
                    label: format!("{prefix}/{name}/{column}"),
                    input: input.clone(),
                    work: *work,
                })
                .collect();
            (name, cells)
        })
        .collect()
}

/// A table of one row per `(name, input)` and one column per `(label,
/// config)` replay, each cell read out by `value`.
fn metric_plan<S: AsRef<str>>(
    prefix: &str,
    title: &str,
    rows: Vec<(String, Input)>,
    configs: &[(S, Config)],
    value: fn(&Metrics) -> f64,
) -> Plan {
    let columns: Vec<&str> = configs.iter().map(|(l, _)| l.as_ref()).collect();
    let works: Vec<(String, Work)> = configs
        .iter()
        .map(|(l, c)| (l.as_ref().to_string(), Work::Replay(*c)))
        .collect();
    Plan::per_row(
        Table::new(title, &columns),
        grid(prefix, rows, &works),
        move |row| row.iter().map(|o| value(&o.metrics)).collect(),
    )
}

/// [`metric_plan`] of the AMAT.
fn amat_plan<S: AsRef<str>>(
    prefix: &str,
    title: &str,
    rows: Vec<(String, Input)>,
    configs: &[(S, Config)],
) -> Plan {
    metric_plan(prefix, title, rows, configs, Metrics::amat)
}

/// The mean AMAT of cell `cell` over every row (one per benchmark),
/// summed in row order.
fn suite_mean(rows: &[Vec<Outcome>], cell: usize) -> f64 {
    let sum: f64 = rows.iter().map(|row| row[cell].metrics.amat()).sum();
    sum / rows.len() as f64
}

/// A table of one trace statistic's fractions per benchmark.
fn stat_plan(prefix: &str, title: &str, rows: Vec<(String, Input)>, stat: Stat) -> Plan {
    let works = [(stat.name().to_string(), Work::Stat(stat))];
    Plan::per_row(
        Table::new(title, &stat.columns()),
        grid(prefix, rows, &works),
        |row| row[0].values.clone(),
    )
}

/// The four software-control variants of Figures 6a/7a/7b.
fn soft_variants() -> [(&'static str, Config); 4] {
    [
        ("Stand.", Config::standard()),
        ("Temp.only", Config::Soft(SoftCacheConfig::temporal_only())),
        ("Spat.only", Config::Soft(SoftCacheConfig::spatial_only())),
        ("Soft.", Config::soft()),
    ]
}

/// Figure 1a: distribution of references over temporal reuse distances.
fn fig01a_plan(benches: &[&str]) -> Plan {
    stat_plan(
        "Figure 1a",
        "Figure 1a — reuse-distance distribution (fraction of references)",
        bench_rows(benches, Input::Suite),
        Stat::Reuse,
    )
}

/// Figure 1b: distribution of references over the vector length of their
/// instruction's reference stream.
fn fig01b_plan(benches: &[&str]) -> Plan {
    stat_plan(
        "Figure 1b",
        "Figure 1b — vector-length distribution (fraction of references)",
        bench_rows(benches, Input::Suite),
        Stat::Vectors,
    )
}

/// Figure 3a: efficiency of bypassing (AMAT).
fn fig03a_plan(benches: &[&str]) -> Plan {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    amat_plan(
        "Figure 3a",
        "Figure 3a — efficiency of bypassing (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &[
            ("Standard", Config::standard()),
            (
                "Bypass",
                Config::Bypass {
                    geom,
                    mem,
                    mode: BypassMode::Plain,
                },
            ),
            (
                "Buf.bypass",
                Config::Bypass {
                    geom,
                    mem,
                    mode: BypassMode::Buffered { lines: 2 },
                },
            ),
            ("Soft.", Config::soft()),
        ],
    )
}

/// Figure 3b: efficiency of victim caches (AMAT).
fn fig03b_plan(benches: &[&str]) -> Plan {
    amat_plan(
        "Figure 3b",
        "Figure 3b — efficiency of victim caches (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &[
            ("Stand.", Config::standard()),
            ("Stand.+Victim", Config::standard_victim()),
            ("Soft.", Config::soft()),
        ],
    )
}

/// Figure 4a: fraction of references in each temporal × spatial tag class.
fn fig04a_plan(benches: &[&str]) -> Plan {
    stat_plan(
        "Figure 4a",
        "Figure 4a — software-tag classes (fraction of references)",
        bench_rows(benches, Input::Suite),
        Stat::Tags,
    )
}

/// Figure 4b: the inter-reference issue-gap distribution used by the
/// tracer (an input of the methodology, reproduced for completeness). It
/// has no cells.
fn fig04b_plan() -> Plan {
    Plan::new(Vec::new(), |_| {
        let mut t = Table::new(
            "Figure 4b — time between consecutive load/stores (fraction of references)",
            &["fraction"],
        );
        for &(gap, p) in GapModel::distribution() {
            let label = if gap >= 25 {
                "> 20 cycles".to_string()
            } else {
                format!("{gap} cycles")
            };
            t.push_row(label, vec![p]);
        }
        t
    })
}

/// Figure 6a: AMAT of the four software-control variants.
fn fig06a_plan(benches: &[&str]) -> Plan {
    amat_plan(
        "Figure 6a",
        "Figure 6a — performance of software control (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &soft_variants(),
    )
}

/// Figure 6b: repartition of cache hits between main cache and
/// bounce-back cache under the full mechanism.
fn fig06b_plan(benches: &[&str]) -> Plan {
    let works = [("Soft.".to_string(), Work::Replay(Config::soft()))];
    Plan::per_row(
        Table::new(
            "Figure 6b — repartition of cache hits (hit ratio split, Soft.)",
            &["main cache", "bounce-back"],
        ),
        grid("Figure 6b", bench_rows(benches, Input::Suite), &works),
        |row| {
            let m = row[0].metrics;
            vec![m.main_hit_ratio(), m.aux_hit_ratio()]
        },
    )
}

/// Figure 7a: memory traffic (words fetched per reference).
fn fig07a_plan(benches: &[&str]) -> Plan {
    metric_plan(
        "Figure 7a",
        "Figure 7a — memory traffic (words fetched / references)",
        bench_rows(benches, Input::Suite),
        &soft_variants(),
        Metrics::traffic_ratio,
    )
}

/// Figure 7b: miss ratio.
fn fig07b_plan(benches: &[&str]) -> Plan {
    metric_plan(
        "Figure 7b",
        "Figure 7b — miss ratio",
        bench_rows(benches, Input::Suite),
        &soft_variants(),
        Metrics::miss_ratio,
    )
}

/// Figure 8a: influence of the virtual line size (AMAT).
fn fig08a_plan(benches: &[&str]) -> Plan {
    let configs: Vec<(String, Config)> = [32u64, 64, 128, 256]
        .into_iter()
        .map(|v| {
            (
                format!("vline={v}B"),
                Config::Soft(SoftCacheConfig::soft().with_virtual_line(v)),
            )
        })
        .collect();
    amat_plan(
        "Figure 8a",
        "Figure 8a — influence of virtual line size (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &configs,
    )
}

/// Figure 8b: influence of the physical line size (AMAT), standard
/// caches vs the software-assisted design.
fn fig08b_plan(benches: &[&str]) -> Plan {
    let mem = MemoryModel::default();
    let mut configs: Vec<(String, Config)> = [32u64, 64, 128, 256]
        .into_iter()
        .map(|ls| {
            (
                format!("Stand.{ls}B"),
                Config::Standard {
                    geom: CacheGeometry::new(8 * 1024, ls, 1),
                    mem,
                },
            )
        })
        .collect();
    configs.push(("Soft.".to_string(), Config::soft()));
    amat_plan(
        "Figure 8b",
        "Figure 8b — influence of physical line size (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &configs,
    )
}

/// Figure 9a: software control for larger caches (% of misses removed
/// relative to the plain cache of the same geometry).
fn fig09a_plan(benches: &[&str]) -> Plan {
    // 8 KB keeps 32-byte lines; larger caches use 64-byte physical lines
    // (and thus 128-byte virtual lines), as in the paper.
    let points = [
        ("Cs=8k,Ls=32", CacheGeometry::new(8 * 1024, 32, 1)),
        ("Cs=16k,Ls=64", CacheGeometry::new(16 * 1024, 64, 1)),
        ("Cs=32k,Ls=64", CacheGeometry::new(32 * 1024, 64, 1)),
        ("Cs=64k,Ls=64", CacheGeometry::new(64 * 1024, 64, 1)),
    ];
    let mem = MemoryModel::default();
    // The plain baseline and the soft cache of every geometry, pairwise.
    let mut works = Vec::with_capacity(points.len() * 2);
    for (label, geom) in points {
        works.push((
            format!("{label}/base"),
            Work::Replay(Config::Standard { geom, mem }),
        ));
        let soft = SoftCacheConfig::soft()
            .with_geometry(geom)
            .with_virtual_line(geom.line_bytes() * 2);
        works.push((format!("{label}/soft"), Work::Replay(Config::Soft(soft))));
    }
    Plan::per_row(
        Table::new(
            "Figure 9a — % of misses removed by software control",
            &points.map(|(label, _)| label),
        ),
        grid("Figure 9a", bench_rows(benches, Input::Suite), &works),
        |row| {
            row.chunks(2)
                .map(|pair| pair[1].metrics.misses_removed_vs(&pair[0].metrics))
                .collect()
        },
    )
}

/// Figure 9b: software control for set-associative caches (AMAT).
fn fig09b_plan(benches: &[&str]) -> Plan {
    let geom2 = CacheGeometry::new(8 * 1024, 32, 2);
    let mem = MemoryModel::default();
    amat_plan(
        "Figure 9b",
        "Figure 9b — software control for 2-way set-associative caches (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &[
            ("2-way", Config::Standard { geom: geom2, mem }),
            (
                "2-way+victim",
                Config::Victim {
                    geom: geom2,
                    mem,
                    lines: 8,
                },
            ),
            (
                "Soft.2-way",
                Config::Soft(SoftCacheConfig::soft().with_geometry(geom2)),
            ),
            (
                "Simpl.soft",
                Config::Soft(SoftCacheConfig::simplified_assoc(2)),
            ),
        ],
    )
}

/// Figure 10a: software control on the most time-consuming Perfect Club
/// subroutines, fully instrumented and traced alone. Each kernel's trace
/// is used by this figure only, so it streams through one batch of the
/// four variants while it is generated instead of being held in a suite.
fn fig10a_plan() -> Plan {
    let rows = sac_workloads::perfect_kernels()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let name = p.name().to_string();
            let label = format!("Figure 10a/{name}/trace");
            (name, program(label, p, trace_options(i, false)))
        })
        .collect();
    amat_plan(
        "Figure 10a",
        "Figure 10a — most time-consuming Perfect Club subroutines (AMAT, cycles)",
        rows,
        &soft_variants(),
    )
}

/// Figure 10b: influence of memory latency — the AMAT advantage of the
/// software-assisted cache (AMAT(Stand.) − AMAT(Soft.)) per latency.
fn fig10b_plan(benches: &[&str]) -> Plan {
    let latencies = [5u64, 10, 15, 20, 25, 30];
    let columns: Vec<String> = latencies.iter().map(|l| format!("lat={l}")).collect();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    // Both engines of every latency point, pairwise; each engine's
    // latencies share one latency-lane engine.
    let mut works = Vec::with_capacity(latencies.len() * 2);
    for lat in latencies {
        let mem = MemoryModel::default().with_latency(lat);
        let geom = CacheGeometry::standard();
        works.push((
            format!("lat={lat}/stand"),
            Work::Replay(Config::Standard { geom, mem }),
        ));
        works.push((
            format!("lat={lat}/soft"),
            Work::Replay(Config::Soft(SoftCacheConfig::soft().with_latency(lat))),
        ));
    }
    Plan::per_row(
        Table::new(
            "Figure 10b — influence of memory latency (AMAT Stand. − AMAT Soft., cycles)",
            &columns,
        ),
        grid("Figure 10b", bench_rows(benches, Input::Suite), &works),
        |row| {
            row.chunks(2)
                .map(|pair| pair[0].metrics.amat() - pair[1].metrics.amat())
                .collect()
        },
    )
}

/// Figure 11a: optimal block size for blocked matrix-vector multiply.
/// Rows are block sizes; `small` scales the problem down for tests.
fn fig11a_plan(small: bool) -> Plan {
    let (n, blocks): (i64, Vec<i64>) = if small {
        (240, vec![10, 20, 30, 40, 60, 120, 240])
    } else {
        (
            blocked::Params::default().n,
            blocked::FIG11A_BLOCKS.to_vec(),
        )
    };
    let rows = blocks
        .into_iter()
        .map(|b| {
            let p = blocked::program(blocked::Params { n, block: b });
            let label = format!("Figure 11a/B={b}/trace");
            (format!("B={b}"), program(label, p, TraceOptions::default()))
        })
        .collect();
    amat_plan(
        "Figure 11a",
        "Figure 11a — blocked MV: AMAT vs block size",
        rows,
        &[("Stand.", Config::standard()), ("Soft.", Config::soft())],
    )
}

/// Figure 11b: data copying in blocked matrix-matrix multiply across
/// leading dimensions 116–126.
fn fig11b_plan(small: bool) -> Plan {
    let (n, block) = if small { (32, 16) } else { (64, 32) };
    let rows = copying::FIG11B_LDS
        .iter()
        .map(|&ld| {
            // The four cells of a row read two traces (copy off/on); each
            // streams once through a batch of both engines. The cells run
            // grouped by trace; the columns interleave copy × soft.
            let inputs = [false, true].map(|copying| {
                let p = copying::program(copying::Params {
                    n,
                    ld,
                    block,
                    copying,
                });
                let label = format!("Figure 11b/ld={ld}/copy={copying}/trace");
                program(label, p, TraceOptions::default())
            });
            let mut cells = Vec::with_capacity(4);
            for (copying, input) in [false, true].into_iter().zip(&inputs) {
                for (soft, config) in [(false, Config::standard()), (true, Config::soft())] {
                    let label = format!("Figure 11b/ld={ld}/copy={copying}/soft={soft}");
                    cells.push(replay(label, input, config));
                }
            }
            (format!("ld={ld}"), cells)
        })
        .collect();
    Plan::per_row(
        Table::new(
            "Figure 11b — blocked MM: AMAT vs leading dimension, copy × soft",
            &["NoCopy/Stand.", "Copy/Stand.", "NoCopy/Soft.", "Copy/Soft."],
        ),
        rows,
        |row| [0, 2, 1, 3].map(|i| row[i].metrics.amat()).to_vec(),
    )
}

/// Figure 12: prefetching (AMAT).
fn fig12_plan(benches: &[&str]) -> Plan {
    amat_plan(
        "Figure 12",
        "Figure 12 — prefetching (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &[
            ("Stand.", Config::standard()),
            (
                "Stand.+Pf",
                Config::HwPrefetch {
                    geom: CacheGeometry::standard(),
                    mem: MemoryModel::default(),
                    lines: 8,
                },
            ),
            ("Soft.", Config::soft()),
            (
                "Soft.+Pf",
                Config::Soft(SoftCacheConfig::soft().with_prefetch(true)),
            ),
        ],
    )
}

/// Extension (§4.3): "ultimately a virtual line size equal to the block
/// size could be employed" for the data-copying refill loops. The
/// variable-virtual-line analysis discovers the refill loop's extent on
/// its own, so copy+soft with leveled traces approximates exactly that.
fn ext_copy_vline(small: bool) -> Plan {
    let (n, block) = if small { (32, 16) } else { (64, 32) };
    let rows = copying::FIG11B_LDS
        .iter()
        .map(|&ld| {
            let p = copying::program(copying::Params {
                n,
                ld,
                block,
                copying: true,
            });
            let input = |trace: &str, levels: bool| {
                let opts = TraceOptions {
                    levels,
                    ..TraceOptions::default()
                };
                program(format!("ext-copy-vline/ld={ld}/{trace}"), p.clone(), opts)
            };
            let variable = Config::Soft(SoftCacheConfig::soft().with_variable_vlines(true));
            let cells = vec![
                replay(
                    format!("ext-copy-vline/ld={ld}/Copy/Soft 64B"),
                    &input("trace", false),
                    Config::soft(),
                ),
                replay(
                    format!("ext-copy-vline/ld={ld}/Copy/Soft variable"),
                    &input("leveled-trace", true),
                    variable,
                ),
            ];
            (format!("ld={ld}"), cells)
        })
        .collect();
    Plan::per_row(
        Table::new(
            "Extension — copy refill with block-sized virtual lines (AMAT)",
            &["Copy/Soft 64B", "Copy/Soft variable"],
        ),
        rows,
        |row| row.iter().map(|o| o.metrics.amat()).collect(),
    )
}

/// Extension: context-switch robustness. The cache is fully invalidated
/// every `quantum` references (a pessimistic context-switch model); the
/// software-assisted advantage must survive cold restarts because most
/// of its gains are stream (compulsory) misses that a flush does not
/// multiply. Cells are the mean AMAT across the suite: one grid row per
/// benchmark, averaged in the fold.
fn ext_context_switch(benches: &[&str]) -> Plan {
    let quanta: [Option<usize>; 4] = [None, Some(100_000), Some(20_000), Some(5_000)];
    let columns: Vec<String> = quanta
        .iter()
        .map(|q| match q {
            None => "no switches".to_string(),
            Some(q) => format!("q={q}"),
        })
        .collect();
    let kinds = [("Stand.", Config::standard()), ("Soft.", Config::soft())];
    let mut works = Vec::with_capacity(kinds.len() * quanta.len());
    for (kind, config) in kinds {
        for (column, quantum) in columns.iter().zip(quanta) {
            let work = match quantum {
                None => Work::Replay(config),
                Some(q) => Work::ContextSwitch(config, q),
            };
            works.push((format!("{kind}/{column}"), work));
        }
    }
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Extension — context-switch robustness (mean AMAT: standard / soft)",
        &columns,
    );
    let grid = grid(
        "ext-context-switch",
        bench_rows(benches, Input::Suite),
        &works,
    );
    Plan::new(
        grid.into_iter().map(|(_, cells)| cells).collect(),
        move |rows| {
            for (k, (kind, _)) in kinds.iter().enumerate() {
                let means = (0..quanta.len())
                    .map(|q| suite_mean(&rows, k * quanta.len() + q))
                    .collect();
                table.push_row(*kind, means);
            }
            table
        },
    )
}

/// Whole-suite summary: geometric-mean AMAT of every organization in the
/// repository over the nine benchmarks, plus the per-benchmark rows — the
/// one-table answer to "who wins".
fn summary(benches: &[&str]) -> Plan {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    amat_plan(
        "Summary",
        "Summary — AMAT of every organization (cycles; geometric mean last)",
        bench_rows(benches, Input::Suite),
        &[
            ("Stand.", Config::standard()),
            ("Victim", Config::standard_victim()),
            ("ColAssoc", Config::ColumnAssoc { geom, mem }),
            (
                "StreamBuf",
                Config::StreamBuffer {
                    geom,
                    mem,
                    buffers: 4,
                    depth: 4,
                },
            ),
            (
                "Assist",
                Config::Assist {
                    geom,
                    mem,
                    lines: 16,
                },
            ),
            ("Temp.only", Config::Soft(SoftCacheConfig::temporal_only())),
            ("Spat.only", Config::Soft(SoftCacheConfig::spatial_only())),
            ("Soft.", Config::soft()),
            (
                "Soft.+Pf",
                Config::Soft(SoftCacheConfig::soft().with_prefetch(true)),
            ),
        ],
    )
    .then(|t| t.push_geomean_row("geomean"))
}

/// Ablation: bounce-back cache size (the paper settles on 8 lines,
/// noting small bounce-back caches perform nearly as well as large ones).
fn ablation_bb_size(benches: &[&str]) -> Plan {
    let configs: Vec<(String, Config)> = [2u32, 4, 8, 16, 32]
        .into_iter()
        .map(|n| {
            (
                format!("bb={n}"),
                Config::Soft(SoftCacheConfig::soft().with_bounce_lines(n)),
            )
        })
        .collect();
    amat_plan(
        "abl-bb-size",
        "Ablation — bounce-back cache size (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &configs,
    )
}

/// Ablation: bounce-back cache associativity (§2.2: "a 4-way bounce-back
/// cache would perform reasonably well").
fn ablation_bb_ways(benches: &[&str]) -> Plan {
    let configs = [
        (None, "full"),
        (Some(4), "4-way"),
        (Some(2), "2-way"),
        (Some(1), "1-way"),
    ]
    .map(|(w, label)| {
        (
            label,
            Config::Soft(SoftCacheConfig::soft().with_bounce_ways(w)),
        )
    });
    amat_plan(
        "abl-bb-ways",
        "Ablation — bounce-back associativity (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &configs,
    )
}

/// Ablation: victim-for-all vs temporal-only admission into the
/// bounce-back cache (§2.2 reports victim-for-all wins), and the
/// 2-vs-3-cycle access-time choice (§2.2, note 6).
fn ablation_bb_policy(benches: &[&str]) -> Plan {
    amat_plan(
        "abl-bb-policy",
        "Ablation — bounce-back admission & access time (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &[
            ("admit-all/3cy", Config::soft()),
            (
                "temp-only/3cy",
                Config::Soft(SoftCacheConfig::soft().with_admit_nontemporal(false)),
            ),
            (
                "admit-all/2cy",
                Config::Soft(SoftCacheConfig::soft().with_bounce_hit_cycles(2)),
            ),
        ],
    )
}

/// Extension (§3.2 "Cache Line Size"): variable-length virtual lines.
/// The cells read the leveled suite (traces carrying spatial levels); the
/// fixed-size columns ignore the levels, so the same traces compare
/// fairly.
fn ext_variable_vlines(benches: &[&str]) -> Plan {
    metric_plan(
        "ext-var-vlines",
        "Extension — variable-length virtual lines (AMAT, cycles; leveled traces)",
        bench_rows(benches, Input::Leveled),
        &[
            ("fixed 64B", Config::soft()),
            (
                "fixed 256B",
                Config::Soft(SoftCacheConfig::soft().with_virtual_line(256)),
            ),
            (
                "variable",
                Config::Soft(SoftCacheConfig::soft().with_variable_vlines(true)),
            ),
        ],
        Metrics::amat,
    )
}

/// Extension (§4.4): prefetch distance vs memory latency. "Beyond
/// [25 cycles] it becomes worthwhile to increase the prefetch distance by
/// prefetching several physical lines at the same time." Cells are the
/// mean AMAT across the suite: one grid row per benchmark holds every
/// latency and prefetch column, averaged in the fold.
fn ext_prefetch_distance(benches: &[&str]) -> Plan {
    let degrees = [1u32, 2, 4];
    let columns: Vec<String> = std::iter::once("no pf".to_string())
        .chain(degrees.iter().map(|d| format!("degree {d}")))
        .collect();
    let lats = [20u64, 25, 30, 40];
    let mut works = Vec::with_capacity(lats.len() * columns.len());
    for lat in lats {
        let soft = SoftCacheConfig::soft().with_latency(lat);
        let prefetching = degrees
            .iter()
            .map(|&d| soft.with_prefetch(true).with_prefetch_degree(d));
        for (column, config) in columns.iter().zip(std::iter::once(soft).chain(prefetching)) {
            works.push((
                format!("lat={lat}/{column}"),
                Work::Replay(Config::Soft(config)),
            ));
        }
    }
    let ncols = columns.len();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Extension — prefetch distance vs latency (mean AMAT, cycles)",
        &columns,
    );
    let grid = grid("ext-pf-distance", bench_rows(benches, Input::Suite), &works);
    Plan::new(
        grid.into_iter().map(|(_, cells)| cells).collect(),
        move |rows| {
            for (l, lat) in lats.iter().enumerate() {
                let means = (0..ncols)
                    .map(|c| suite_mean(&rows, l * ncols + c))
                    .collect();
                table.push_row(format!("lat={lat}"), means);
            }
            table
        },
    )
}

/// The designs of §5 related work — Jouppi stream buffers, the
/// column-associative cache and an HP-7200 style assist cache — next to
/// the standard and software-assisted caches.
fn related_designs() -> [(&'static str, Config); 5] {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    [
        ("Stand.", Config::standard()),
        (
            "StreamBuf",
            Config::StreamBuffer {
                geom,
                mem,
                buffers: 4,
                depth: 4,
            },
        ),
        ("ColAssoc", Config::ColumnAssoc { geom, mem }),
        (
            "Assist",
            Config::Assist {
                geom,
                mem,
                lines: 16,
            },
        ),
        ("Soft.", Config::soft()),
    ]
}

/// Extension (§5 related work): the designs the paper discusses against
/// the software-assisted cache (AMAT).
fn ext_related_designs(benches: &[&str]) -> Plan {
    amat_plan(
        "ext-related",
        "Extension — related designs of §5 (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &related_designs(),
    )
}

/// Extension: 3C decomposition of the Standard cache's misses next to
/// the miss ratios of the Standard and software-assisted caches. The
/// paper's reading (§3.2): spatial assistance removes compulsory and
/// capacity misses of vector accesses; the bounce-back cache attacks the
/// pollution (capacity/conflict) component.
fn ext_miss_classes(benches: &[&str]) -> Plan {
    let works = [
        (
            "classify".to_string(),
            Work::Classify(CacheGeometry::standard()),
        ),
        ("soft total".to_string(), Work::Replay(Config::soft())),
    ];
    Plan::per_row(
        Table::new(
            "Extension — 3C miss decomposition (misses per reference)",
            &[
                "compulsory",
                "capacity",
                "conflict",
                "stand. total",
                "soft total",
            ],
        ),
        grid(
            "ext-miss-classes",
            bench_rows(benches, Input::Suite),
            &works,
        ),
        |row| {
            let mut values = row[0].values.clone();
            values.push(row[1].metrics.miss_ratio());
            values
        },
    )
}

/// Companion to [`ext_related_designs`]: the memory-traffic side.
/// Stream buffers buy their AMAT with wrong-path prefetch traffic (the
/// paper's stated flaw of tag-blind hardware prefetching), while the
/// software-assisted cache *reduces* traffic.
fn ext_related_traffic(benches: &[&str]) -> Plan {
    metric_plan(
        "ext-related-traffic",
        "Extension — related designs of §5 (words fetched / references)",
        bench_rows(benches, Input::Suite),
        &related_designs(),
        Metrics::traffic_ratio,
    )
}

/// Ablation: software control across main-cache associativities (the
/// paper evaluates 1-way throughout and 2-way in Figure 9b; this sweep
/// completes the picture).
fn ablation_associativity(benches: &[&str]) -> Plan {
    let configs: Vec<(String, Config)> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|w| {
            let geom = CacheGeometry::new(8 * 1024, 32, w);
            (
                format!("{w}-way"),
                Config::Soft(SoftCacheConfig::soft().with_geometry(geom)),
            )
        })
        .collect();
    amat_plan(
        "abl-assoc",
        "Ablation — software control vs main-cache associativity (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &configs,
    )
}

/// Ablation: bus bandwidth. The virtual-line penalty is `n·LS/w_b`
/// (§2.1: a 256-byte virtual line costs 14 extra cycles on the 16-byte
/// bus), so narrower buses shrink the profitable virtual-line size.
fn ablation_bus_width(benches: &[&str]) -> Plan {
    let mut configs: Vec<(String, Config)> = Vec::new();
    for w in [8u64, 16, 32] {
        let mem = MemoryModel::new(20, w);
        configs.push((
            format!("stand w={w}"),
            Config::Standard {
                geom: CacheGeometry::standard(),
                mem,
            },
        ));
        configs.push((
            format!("soft w={w}"),
            Config::Soft(SoftCacheConfig::soft().with_memory(mem)),
        ));
    }
    amat_plan(
        "abl-bus",
        "Ablation — bus bandwidth (AMAT, cycles; bytes/cycle)",
        bench_rows(benches, Input::Suite),
        &configs,
    )
}

/// Ablation: 16-byte physical lines under software control (§3.2 "Cache
/// Line Size": performance proved similar, enabling a smaller mux).
fn ablation_physical_16(benches: &[&str]) -> Plan {
    amat_plan(
        "abl-phys16",
        "Ablation — 16 B vs 32 B physical lines under software control (AMAT, cycles)",
        bench_rows(benches, Input::Suite),
        &[
            ("32B phys", Config::soft()),
            (
                "16B phys",
                Config::Soft(
                    SoftCacheConfig::soft()
                        .with_geometry(CacheGeometry::new(8 * 1024, 16, 1))
                        .with_virtual_line(64),
                ),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> Suite {
        Suite::small()
    }

    #[test]
    fn fig01a_fractions_sum_to_one() {
        let t = fig01a(&suite());
        for (name, row) in t.rows() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name}: {sum}");
        }
    }

    #[test]
    fn fig04b_matches_gap_model() {
        let t = fig04b();
        let sum: f64 = t.rows().iter().map(|(_, v)| v[0]).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig06a_soft_never_loses() {
        // "software-assisted data caches perform better than standard
        // caches in any case, so software-assistance appears to be safe."
        let t = fig06a(&suite());
        for (name, _) in t.rows() {
            let stand = t.get(name, "Stand.").unwrap();
            let soft = t.get(name, "Soft.").unwrap();
            assert!(
                soft <= stand * 1.02,
                "{name}: soft {soft:.3} vs standard {stand:.3}"
            );
        }
    }

    #[test]
    fn fig11a_rows_are_block_sizes() {
        let t = fig11a(true);
        assert_eq!(t.rows().len(), 7);
        assert_eq!(t.columns().len(), 2);
    }
}
