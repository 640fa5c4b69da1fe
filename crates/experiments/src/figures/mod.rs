//! One function per figure of the paper's evaluation, plus the ablations
//! called out in DESIGN.md.
//!
//! Every figure is a sweep over a (configuration × workload) grid. The
//! unit of parallelism is one **benchmark row**: all of a row's
//! configurations replay the row's trace in a single batched pass
//! ([`runner::replay_trace`]) so each decoded chunk is reused by every
//! engine while it is hot, and rows shard across the [`runner`] worker
//! pool and reassemble **by row index** — the emitted [`Table`] is
//! bit-identical to the one a sequential run produces, whatever the
//! worker count (see `runner::set_jobs`). Cross-cell reductions (suite
//! means, geometric means) happen after aggregation, in row order, for
//! the same reason.
//!
//! [`REGISTRY`] lists every figure once, with its id, group and the input
//! its builder takes; the `figures` binary and the tests select from it.

use crate::coherence::coherence_table;
use crate::suite::trace_options;
use crate::{runner, Config, Suite, Table};
use sac_core::SoftCacheConfig;
use sac_loopir::TraceOptions;
use sac_simcache::{BypassMode, CacheGeometry, MemoryModel, Metrics};
use sac_trace::stats::{
    ReuseBand, ReuseHistogram, TagClass, TagFractions, VectorBand, VectorLengths,
};
use sac_trace::GapModel;

/// A figure builder, tagged by the input it needs.
#[derive(Clone, Copy)]
pub enum Builder {
    /// The benchmark suite ([`Suite::paper`] or [`Suite::small`]).
    Suite(fn(&Suite) -> Table),
    /// The leveled suite ([`Suite::paper_leveled`] or
    /// [`Suite::small_leveled`]), which the figure builds for itself.
    Leveled(fn(&Suite) -> Table),
    /// Only the scale: the figure generates its own traces, scaled down
    /// when the flag is set.
    Scale(fn(bool) -> Table),
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
    /// Builds the table.
    pub builder: Builder,
}

impl Figure {
    /// Whether the builder reads the benchmark suite.
    pub fn needs_suite(&self) -> bool {
        matches!(self.builder, Builder::Suite(_))
    }

    /// Builds the table at paper scale, or scaled down when `small`.
    ///
    /// # Panics
    ///
    /// Panics if the figure [needs the suite](Self::needs_suite) and
    /// `suite` is `None`.
    pub fn build(&self, suite: Option<&Suite>, small: bool) -> Table {
        match self.builder {
            Builder::Suite(f) => f(suite.expect("suite figures are built over the suite")),
            Builder::Leveled(f) => f(&if small {
                Suite::small_leveled()
            } else {
                Suite::paper_leveled()
            }),
            Builder::Scale(f) => f(small),
        }
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
        entry("fig01a", P, S(fig01a)),
        entry("fig01b", P, S(fig01b)),
        entry("fig03a", P, S(fig03a)),
        entry("fig03b", P, S(fig03b)),
        entry("fig04a", P, S(fig04a)),
        entry("fig04b", P, Scale(|_| fig04b())),
        entry("fig06a", P, S(fig06a)),
        entry("fig06b", P, S(fig06b)),
        entry("fig07a", P, S(fig07a)),
        entry("fig07b", P, S(fig07b)),
        entry("fig08a", P, S(fig08a)),
        entry("fig08b", P, S(fig08b)),
        entry("fig09a", P, S(fig09a)),
        entry("fig09b", P, S(fig09b)),
        entry("fig10a", P, Scale(|_| fig10a())),
        entry("fig10b", P, S(fig10b)),
        entry("fig11a", P, Scale(fig11a)),
        entry("fig11b", P, Scale(fig11b)),
        entry("fig12", P, S(fig12)),
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
        entry("coh-mesi", C, Scale(|_| coherence_table(Mesi))),
        entry("coh-dragon", C, Scale(|_| coherence_table(Dragon))),
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

/// The short cell-label prefix of a figure title ("Figure 6a — ..." →
/// "Figure 6a").
fn short(title: &str) -> &str {
    title.split('—').next().unwrap_or(title).trim()
}

/// Replays `cells` over one suite benchmark's trace, reusing any result
/// the suite has already recorded for the same `(benchmark, config)`
/// pair (figures share many columns); the configs not seen before replay
/// the trace in a single batched pass and are recorded for later
/// figures. Results come back in cell order.
fn replay_suite_cells(
    suite: &Suite,
    name: &str,
    trace: &sac_trace::Trace,
    cells: &[(String, Config)],
) -> Vec<Metrics> {
    let mut out: Vec<Option<Metrics>> = cells
        .iter()
        .map(|(_, cfg)| suite.cached(name, cfg))
        .collect();
    let fresh_cells: Vec<(String, Config)> = cells
        .iter()
        .zip(&out)
        .filter(|(_, cached)| cached.is_none())
        .map(|(cell, _)| cell.clone())
        .collect();
    if !fresh_cells.is_empty() {
        let mut fresh = runner::replay_trace(&fresh_cells, trace).into_iter();
        for (slot, (_, cfg)) in out.iter_mut().zip(cells) {
            if slot.is_none() {
                let m = fresh.next().expect("one result per fresh cell");
                suite.store(name, cfg, m);
                *slot = Some(m);
            }
        }
    }
    out.into_iter().map(|m| m.expect("filled")).collect()
}

/// Runs every `(benchmark, config)` cell of the grid and returns the
/// metrics in `[benchmark][config]` order. One parallel task per
/// benchmark; within a task all configs replay the trace in a single
/// batched pass.
fn run_grid(title: &str, suite: &Suite, configs: &[(&str, Config)]) -> Vec<Vec<Metrics>> {
    let prefix = short(title);
    runner::par_map(suite.entries(), |_, (name, trace)| {
        let cells: Vec<(String, Config)> = configs
            .iter()
            .map(|(label, cfg)| (format!("{prefix}/{name}/{label}"), *cfg))
            .collect();
        replay_suite_cells(suite, name, trace, &cells)
    })
}

/// Runs every `(label, config)` over every benchmark and tabulates
/// `extract(metrics)`.
fn metric_table(
    title: &str,
    suite: &Suite,
    configs: &[(&str, Config)],
    extract: impl Fn(&Metrics) -> f64,
) -> Table {
    let labels: Vec<&str> = configs.iter().map(|(l, _)| *l).collect();
    let mut table = Table::new(title, &labels);
    let grid = run_grid(title, suite, configs);
    for ((name, _), row) in suite.entries().iter().zip(grid) {
        table.push_row(name.clone(), row.iter().map(&extract).collect());
    }
    table
}

fn amat_table(title: &str, suite: &Suite, configs: &[(&str, Config)]) -> Table {
    metric_table(title, suite, configs, |m| m.amat())
}

/// Borrows `(String, Config)` sweeps as the `(&str, Config)` slices the
/// table helpers take.
fn as_label_refs(configs: &[(String, Config)]) -> Vec<(&str, Config)> {
    configs.iter().map(|(l, c)| (l.as_str(), *c)).collect()
}

/// Parallel map over the suite's benchmarks, one row per benchmark, rows
/// in suite order.
fn par_rows(
    suite: &Suite,
    f: impl Fn(&str, &sac_trace::Trace) -> Vec<f64> + Sync,
) -> Vec<(String, Vec<f64>)> {
    runner::par_map(suite.entries(), |_, (name, trace)| {
        (name.clone(), f(name, trace))
    })
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
pub fn fig01a(suite: &Suite) -> Table {
    let labels: Vec<&str> = ReuseBand::ALL.iter().map(|b| b.label()).collect();
    let mut t = Table::new(
        "Figure 1a — reuse-distance distribution (fraction of references)",
        &labels,
    );
    for (name, row) in par_rows(suite, |name, trace| {
        runner::timed_cell(format!("Figure 1a/{name}/reuse"), || {
            ReuseHistogram::of(trace).fractions().to_vec()
        })
    }) {
        t.push_row(name, row);
    }
    t
}

/// Figure 1b: distribution of references over the vector length of their
/// instruction's reference stream.
pub fn fig01b(suite: &Suite) -> Table {
    let labels: Vec<&str> = VectorBand::ALL.iter().map(|b| b.label()).collect();
    let mut t = Table::new(
        "Figure 1b — vector-length distribution (fraction of references)",
        &labels,
    );
    for (name, row) in par_rows(suite, |name, trace| {
        runner::timed_cell(format!("Figure 1b/{name}/vectors"), || {
            VectorLengths::of(trace).fractions().to_vec()
        })
    }) {
        t.push_row(name, row);
    }
    t
}

/// Figure 3a: efficiency of bypassing (AMAT).
pub fn fig03a(suite: &Suite) -> Table {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    amat_table(
        "Figure 3a — efficiency of bypassing (AMAT, cycles)",
        suite,
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
pub fn fig03b(suite: &Suite) -> Table {
    amat_table(
        "Figure 3b — efficiency of victim caches (AMAT, cycles)",
        suite,
        &[
            ("Stand.", Config::standard()),
            ("Stand.+Victim", Config::standard_victim()),
            ("Soft.", Config::soft()),
        ],
    )
}

/// Figure 4a: fraction of references in each temporal × spatial tag class.
pub fn fig04a(suite: &Suite) -> Table {
    let labels: Vec<&str> = TagClass::ALL.iter().map(|c| c.label()).collect();
    let mut t = Table::new(
        "Figure 4a — software-tag classes (fraction of references)",
        &labels,
    );
    for (name, row) in par_rows(suite, |name, trace| {
        runner::timed_cell(format!("Figure 4a/{name}/tags"), || {
            TagFractions::of(trace).fractions().to_vec()
        })
    }) {
        t.push_row(name, row);
    }
    t
}

/// Figure 4b: the inter-reference issue-gap distribution used by the
/// tracer (an input of the methodology, reproduced for completeness).
pub fn fig04b() -> Table {
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
}

/// Figure 6a: AMAT of the four software-control variants.
pub fn fig06a(suite: &Suite) -> Table {
    amat_table(
        "Figure 6a — performance of software control (AMAT, cycles)",
        suite,
        &soft_variants(),
    )
}

/// Figure 6b: repartition of cache hits between main cache and
/// bounce-back cache under the full mechanism.
pub fn fig06b(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 6b — repartition of cache hits (hit ratio split, Soft.)",
        &["main cache", "bounce-back"],
    );
    for (name, row) in par_rows(suite, |name, trace| {
        let cells = vec![(format!("Figure 6b/{name}/Soft."), Config::soft())];
        let m = replay_suite_cells(suite, name, trace, &cells)[0];
        vec![m.main_hit_ratio(), m.aux_hit_ratio()]
    }) {
        t.push_row(name, row);
    }
    t
}

/// Figure 7a: memory traffic (words fetched per reference).
pub fn fig07a(suite: &Suite) -> Table {
    metric_table(
        "Figure 7a — memory traffic (words fetched / references)",
        suite,
        &soft_variants(),
        |m| m.traffic_ratio(),
    )
}

/// Figure 7b: miss ratio.
pub fn fig07b(suite: &Suite) -> Table {
    metric_table("Figure 7b — miss ratio", suite, &soft_variants(), |m| {
        m.miss_ratio()
    })
}

/// Figure 8a: influence of the virtual line size (AMAT).
pub fn fig08a(suite: &Suite) -> Table {
    let configs: Vec<(String, Config)> = [32u64, 64, 128, 256]
        .into_iter()
        .map(|v| {
            (
                format!("vline={v}B"),
                Config::Soft(SoftCacheConfig::soft().with_virtual_line(v)),
            )
        })
        .collect();
    amat_table(
        "Figure 8a — influence of virtual line size (AMAT, cycles)",
        suite,
        &as_label_refs(&configs),
    )
}

/// Figure 8b: influence of the physical line size (AMAT), standard
/// caches vs the software-assisted design.
pub fn fig08b(suite: &Suite) -> Table {
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
    amat_table(
        "Figure 8b — influence of physical line size (AMAT, cycles)",
        suite,
        &as_label_refs(&configs),
    )
}

/// Figure 9a: software control for larger caches (% of misses removed
/// relative to the plain cache of the same geometry).
pub fn fig09a(suite: &Suite) -> Table {
    // 8 KB keeps 32-byte lines; larger caches use 64-byte physical lines
    // (and thus 128-byte virtual lines), as in the paper.
    let points: Vec<(String, CacheGeometry)> = vec![
        ("Cs=8k,Ls=32".into(), CacheGeometry::new(8 * 1024, 32, 1)),
        ("Cs=16k,Ls=64".into(), CacheGeometry::new(16 * 1024, 64, 1)),
        ("Cs=32k,Ls=64".into(), CacheGeometry::new(32 * 1024, 64, 1)),
        ("Cs=64k,Ls=64".into(), CacheGeometry::new(64 * 1024, 64, 1)),
    ];
    let labels: Vec<&str> = points.iter().map(|(l, _)| l.as_str()).collect();
    let mut t = Table::new(
        "Figure 9a — % of misses removed by software control",
        &labels,
    );
    let mem = MemoryModel::default();
    // One batched pass per benchmark: the plain baseline and the soft
    // cache of every geometry replay the trace together.
    let rows = runner::par_map(suite.entries(), |_, (name, trace)| {
        let mut cells: Vec<(String, Config)> = Vec::with_capacity(points.len() * 2);
        for (label, geom) in &points {
            cells.push((
                format!("Figure 9a/{name}/{label}/base"),
                Config::Standard { geom: *geom, mem },
            ));
            let soft_cfg = SoftCacheConfig::soft()
                .with_geometry(*geom)
                .with_virtual_line(geom.line_bytes() * 2);
            cells.push((
                format!("Figure 9a/{name}/{label}/soft"),
                Config::Soft(soft_cfg),
            ));
        }
        let ms = replay_suite_cells(suite, name, trace, &cells);
        (0..points.len())
            .map(|p| ms[2 * p + 1].misses_removed_vs(&ms[2 * p]))
            .collect::<Vec<f64>>()
    });
    for ((name, _), row) in suite.entries().iter().zip(rows) {
        t.push_row(name.clone(), row);
    }
    t
}

/// Figure 9b: software control for set-associative caches (AMAT).
pub fn fig09b(suite: &Suite) -> Table {
    let geom2 = CacheGeometry::new(8 * 1024, 32, 2);
    let mem = MemoryModel::default();
    amat_table(
        "Figure 9b — software control for 2-way set-associative caches (AMAT, cycles)",
        suite,
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
pub fn fig10a() -> Table {
    let title = "Figure 10a — most time-consuming Perfect Club subroutines (AMAT, cycles)";
    let configs = soft_variants();
    let labels: Vec<&str> = configs.iter().map(|(l, _)| *l).collect();
    let mut t = Table::new(title, &labels);
    let prefix = short(title);
    let rows = runner::par_map(&sac_workloads::perfect_kernels(), |i, p| {
        let name = p.name();
        let cells: Vec<(String, Config)> = configs
            .iter()
            .map(|(label, cfg)| (format!("{prefix}/{name}/{label}"), *cfg))
            .collect();
        let opts = trace_options(i, false);
        let ms = replay_program(format!("{prefix}/{name}/trace"), &cells, p, &opts);
        (name.to_string(), ms.iter().map(Metrics::amat).collect())
    });
    for (name, row) in rows {
        t.push_row(name, row);
    }
    t
}

/// Figure 10b: influence of memory latency — the AMAT advantage of the
/// software-assisted cache (AMAT(Stand.) − AMAT(Soft.)) per latency.
pub fn fig10b(suite: &Suite) -> Table {
    let latencies = [5u64, 10, 15, 20, 25, 30];
    let labels: Vec<String> = latencies.iter().map(|l| format!("lat={l}")).collect();
    let labels: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 10b — influence of memory latency (AMAT Stand. − AMAT Soft., cycles)",
        &labels,
    );
    // One batched pass per benchmark: both engines of every latency
    // point replay the trace together.
    let rows = runner::par_map(suite.entries(), |_, (name, trace)| {
        let mut cells: Vec<(String, Config)> = Vec::with_capacity(latencies.len() * 2);
        for &lat in &latencies {
            let mem = MemoryModel::default().with_latency(lat);
            cells.push((
                format!("Figure 10b/{name}/lat={lat}/stand"),
                Config::Standard {
                    geom: CacheGeometry::standard(),
                    mem,
                },
            ));
            cells.push((
                format!("Figure 10b/{name}/lat={lat}/soft"),
                Config::Soft(SoftCacheConfig::soft().with_latency(lat)),
            ));
        }
        let ms = replay_suite_cells(suite, name, trace, &cells);
        (0..latencies.len())
            .map(|l| ms[2 * l].amat() - ms[2 * l + 1].amat())
            .collect::<Vec<f64>>()
    });
    for ((name, _), row) in suite.entries().iter().zip(rows) {
        t.push_row(name.clone(), row);
    }
    t
}

/// Replays `cells` over `program`'s trace under `opts` while it is
/// generated ([`runner::replay_generated`]); the generation records as
/// `trace_label`.
fn replay_program(
    trace_label: String,
    cells: &[(String, Config)],
    program: &sac_loopir::Program,
    opts: &TraceOptions,
) -> Vec<Metrics> {
    runner::replay_generated(trace_label, cells, |batch| {
        program.trace_into(opts, |chunk| batch.feed(chunk))
    })
    .unwrap_or_else(|e| panic!("{} failed to trace: {e}", program.name()))
}

/// Figure 11a: optimal block size for blocked matrix-vector multiply.
/// Rows are block sizes; `small` scales the problem down for tests.
pub fn fig11a(small: bool) -> Table {
    let (n, blocks): (i64, Vec<i64>) = if small {
        (240, vec![10, 20, 30, 40, 60, 120, 240])
    } else {
        (
            sac_workloads::blocked::Params::default().n,
            sac_workloads::blocked::FIG11A_BLOCKS.to_vec(),
        )
    };
    let mut t = Table::new(
        "Figure 11a — blocked MV: AMAT vs block size",
        &["Stand.", "Soft."],
    );
    // One parallel cell per block size: both engines replay the trace
    // chunk by chunk while it is generated.
    let rows = runner::par_map(&blocks, |_, &b| {
        let p = sac_workloads::blocked::program(sac_workloads::blocked::Params { n, block: b });
        let cells = [
            (format!("Figure 11a/B={b}/Stand."), Config::standard()),
            (format!("Figure 11a/B={b}/Soft."), Config::soft()),
        ];
        let trace_label = format!("Figure 11a/B={b}/trace");
        let ms = replay_program(trace_label, &cells, &p, &TraceOptions::default());
        (format!("B={b}"), vec![ms[0].amat(), ms[1].amat()])
    });
    for (label, row) in rows {
        t.push_row(label, row);
    }
    t
}

/// Figure 11b: data copying in blocked matrix-matrix multiply across
/// leading dimensions 116–126.
pub fn fig11b(small: bool) -> Table {
    let (n, block) = if small { (32, 16) } else { (64, 32) };
    let mut t = Table::new(
        "Figure 11b — blocked MM: AMAT vs leading dimension, copy × soft",
        &["NoCopy/Stand.", "Copy/Stand.", "NoCopy/Soft.", "Copy/Soft."],
    );
    let lds: Vec<i64> = sac_workloads::copying::FIG11B_LDS.to_vec();
    let rows = runner::par_map(&lds, |_, &ld| {
        // The four cells of a row need only two traces (copy off/on); each
        // streams once through a batch of both engines.
        let replay_for = |copying: bool| {
            let p = sac_workloads::copying::program(sac_workloads::copying::Params {
                n,
                ld,
                block,
                copying,
            });
            let cells = [
                (
                    format!("Figure 11b/ld={ld}/copy={copying}/soft=false"),
                    Config::standard(),
                ),
                (
                    format!("Figure 11b/ld={ld}/copy={copying}/soft=true"),
                    Config::soft(),
                ),
            ];
            let trace_label = format!("Figure 11b/ld={ld}/copy={copying}/trace");
            replay_program(trace_label, &cells, &p, &TraceOptions::default())
        };
        let nc = replay_for(false);
        let cp = replay_for(true);
        // Columns interleave copy × soft.
        let row = vec![nc[0].amat(), cp[0].amat(), nc[1].amat(), cp[1].amat()];
        (format!("ld={ld}"), row)
    });
    for (label, row) in rows {
        t.push_row(label, row);
    }
    t
}

/// Figure 12: prefetching (AMAT).
pub fn fig12(suite: &Suite) -> Table {
    amat_table(
        "Figure 12 — prefetching (AMAT, cycles)",
        suite,
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
pub fn ext_copy_vline(small: bool) -> Table {
    let (n, block) = if small { (32, 16) } else { (64, 32) };
    let mut t = Table::new(
        "Extension — copy refill with block-sized virtual lines (AMAT)",
        &["Copy/Soft 64B", "Copy/Soft variable"],
    );
    let lds: Vec<i64> = sac_workloads::copying::FIG11B_LDS.to_vec();
    let rows = runner::par_map(&lds, |_, &ld| {
        let p = sac_workloads::copying::program(sac_workloads::copying::Params {
            n,
            ld,
            block,
            copying: true,
        });
        let plain = runner::timed_cell(format!("Ext copy-vline/ld={ld}/trace"), || {
            p.trace_default()
        });
        let leveled = runner::timed_cell(format!("Ext copy-vline/ld={ld}/leveled-trace"), || {
            p.trace(&sac_loopir::TraceOptions {
                seed: 0x5AC,
                gaps: true,
                levels: true,
            })
            .expect("copy kernel traces")
        });
        let fixed = runner::run_cell(
            format!("Ext copy-vline/ld={ld}/fixed"),
            &Config::soft(),
            &plain,
        )
        .amat();
        let var = runner::run_cell(
            format!("Ext copy-vline/ld={ld}/variable"),
            &Config::Soft(SoftCacheConfig::soft().with_variable_vlines(true)),
            &leveled,
        )
        .amat();
        (format!("ld={ld}"), vec![fixed, var])
    });
    for (label, row) in rows {
        t.push_row(label, row);
    }
    t
}

/// Extension: context-switch robustness. The cache is fully invalidated
/// every `quantum` references (a pessimistic context-switch model); the
/// software-assisted advantage must survive cold restarts because most
/// of its gains are stream (compulsory) misses that a flush does not
/// multiply. Cells are the mean AMAT across the suite.
pub fn ext_context_switch(suite: &Suite) -> Table {
    use sac_core::{SoftCache, SoftCacheConfig};
    use sac_simcache::{CacheSim, StandardCache};
    let quanta: [Option<usize>; 4] = [None, Some(100_000), Some(20_000), Some(5_000)];
    let labels: Vec<String> = quanta
        .iter()
        .map(|q| match q {
            None => "no switches".to_string(),
            Some(q) => format!("q={q}"),
        })
        .collect();
    let labels: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Extension — context-switch robustness (mean AMAT: standard / soft)",
        &labels,
    );
    let kinds = [("Stand.", false), ("Soft.", true)];
    let nb = suite.entries().len();
    // One cell per (kind, quantum, benchmark); the suite mean is reduced
    // afterwards in benchmark order.
    let cells: Vec<(usize, usize, usize)> = (0..kinds.len())
        .flat_map(|k| (0..quanta.len()).flat_map(move |q| (0..nb).map(move |b| (k, q, b))))
        .collect();
    let flat = runner::par_map(&cells, |_, &(k, q, b)| {
        let (name, trace) = &suite.entries()[b];
        let (kind, soft) = kinds[k];
        let quantum = quanta[q];
        let label = format!("Ext ctx-switch/{name}/{kind}/q={quantum:?}");
        let m = runner::metered_cell(label, || {
            if soft {
                let mut c = SoftCache::new(SoftCacheConfig::soft());
                match quantum {
                    None => c.run(trace),
                    Some(q) => c.run_with_context_switches(trace, q),
                }
                *c.metrics()
            } else {
                let mut c = StandardCache::new(CacheGeometry::standard(), MemoryModel::default());
                match quantum {
                    None => c.run(trace),
                    Some(q) => c.run_with_context_switches(trace, q),
                }
                *c.metrics()
            }
        });
        m.amat()
    });
    for (k, (kind, _)) in kinds.iter().enumerate() {
        let row: Vec<f64> = (0..quanta.len())
            .map(|q| {
                let base = (k * quanta.len() + q) * nb;
                let sum: f64 = flat[base..base + nb].iter().sum();
                sum / nb as f64
            })
            .collect();
        t.push_row(*kind, row);
    }
    t
}

/// Whole-suite summary: geometric-mean AMAT of every organization in the
/// repository over the nine benchmarks, plus the per-benchmark rows — the
/// one-table answer to "who wins".
pub fn summary(suite: &Suite) -> Table {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    let mut t = amat_table(
        "Summary — AMAT of every organization (cycles; geometric mean last)",
        suite,
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
    );
    t.push_geomean_row("geomean");
    t
}

/// Ablation: bounce-back cache size (the paper settles on 8 lines,
/// noting small bounce-back caches perform nearly as well as large ones).
pub fn ablation_bb_size(suite: &Suite) -> Table {
    let configs: Vec<(String, Config)> = [2u32, 4, 8, 16, 32]
        .into_iter()
        .map(|n| {
            (
                format!("bb={n}"),
                Config::Soft(SoftCacheConfig::soft().with_bounce_lines(n)),
            )
        })
        .collect();
    amat_table(
        "Ablation — bounce-back cache size (AMAT, cycles)",
        suite,
        &as_label_refs(&configs),
    )
}

/// Ablation: bounce-back cache associativity (§2.2: "a 4-way bounce-back
/// cache would perform reasonably well").
pub fn ablation_bb_ways(suite: &Suite) -> Table {
    let configs: Vec<(String, Config)> = [
        (None, "full"),
        (Some(4), "4-way"),
        (Some(2), "2-way"),
        (Some(1), "1-way"),
    ]
    .into_iter()
    .map(|(w, label)| {
        (
            label.to_string(),
            Config::Soft(SoftCacheConfig::soft().with_bounce_ways(w)),
        )
    })
    .collect();
    amat_table(
        "Ablation — bounce-back associativity (AMAT, cycles)",
        suite,
        &as_label_refs(&configs),
    )
}

/// Ablation: victim-for-all vs temporal-only admission into the
/// bounce-back cache (§2.2 reports victim-for-all wins), and the
/// 2-vs-3-cycle access-time choice (§2.2, note 6).
pub fn ablation_bb_policy(suite: &Suite) -> Table {
    amat_table(
        "Ablation — bounce-back admission & access time (AMAT, cycles)",
        suite,
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
/// The trace must carry spatial levels (`Suite::paper_leveled` /
/// `Suite::small_leveled`); the fixed-size columns ignore them, so the
/// same traces compare fairly.
pub fn ext_variable_vlines(leveled_suite: &Suite) -> Table {
    amat_table(
        "Extension — variable-length virtual lines (AMAT, cycles; leveled traces)",
        leveled_suite,
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
    )
}

/// Extension (§4.4): prefetch distance vs memory latency. "Beyond
/// [25 cycles] it becomes worthwhile to increase the prefetch distance by
/// prefetching several physical lines at the same time." Cells are the
/// mean AMAT across the suite.
pub fn ext_prefetch_distance(suite: &Suite) -> Table {
    let degrees = [1u32, 2, 4];
    let labels: Vec<String> = std::iter::once("no pf".to_string())
        .chain(degrees.iter().map(|d| format!("degree {d}")))
        .collect();
    let labels: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Extension — prefetch distance vs latency (mean AMAT, cycles)",
        &labels,
    );
    let lats = [20u64, 25, 30, 40];
    let nb = suite.entries().len();
    let config_for = |lat: u64, col: usize| -> Config {
        if col == 0 {
            Config::Soft(SoftCacheConfig::soft().with_latency(lat))
        } else {
            Config::Soft(
                SoftCacheConfig::soft()
                    .with_latency(lat)
                    .with_prefetch(true)
                    .with_prefetch_degree(degrees[col - 1]),
            )
        }
    };
    let ncols = degrees.len() + 1;
    // One batched pass per (latency, benchmark): every prefetch column
    // replays the trace together. Suite means reduce in benchmark order
    // afterwards, preserving the sequential summation order.
    let cells: Vec<(usize, usize)> = (0..lats.len())
        .flat_map(|l| (0..nb).map(move |b| (l, b)))
        .collect();
    let flat: Vec<Vec<f64>> = runner::par_map(&cells, |_, &(l, b)| {
        let (name, trace) = &suite.entries()[b];
        let lat = lats[l];
        let batch: Vec<(String, Config)> = (0..ncols)
            .map(|c| {
                (
                    format!("Ext pf-distance/{name}/lat={lat}/col{c}"),
                    config_for(lat, c),
                )
            })
            .collect();
        replay_suite_cells(suite, name, trace, &batch)
            .iter()
            .map(Metrics::amat)
            .collect()
    });
    for (l, lat) in lats.iter().enumerate() {
        let row: Vec<f64> = (0..ncols)
            .map(|c| {
                let sum: f64 = (0..nb).map(|b| flat[l * nb + b][c]).sum();
                sum / nb as f64
            })
            .collect();
        t.push_row(format!("lat={lat}"), row);
    }
    t
}

/// Extension (§5 related work): the designs the paper discusses —
/// Jouppi stream buffers, the column-associative cache, and an HP-7200
/// style assist cache — against the software-assisted cache.
pub fn ext_related_designs(suite: &Suite) -> Table {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    amat_table(
        "Extension — related designs of §5 (AMAT, cycles)",
        suite,
        &[
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
        ],
    )
}

/// Extension: 3C decomposition of the Standard cache's misses next to
/// the miss ratios of the Standard and software-assisted caches. The
/// paper's reading (§3.2): spatial assistance removes compulsory and
/// capacity misses of vector accesses; the bounce-back cache attacks the
/// pollution (capacity/conflict) component.
pub fn ext_miss_classes(suite: &Suite) -> Table {
    use sac_simcache::classify_misses;
    let geom = CacheGeometry::standard();
    let mut t = Table::new(
        "Extension — 3C miss decomposition (misses per reference)",
        &[
            "compulsory",
            "capacity",
            "conflict",
            "stand. total",
            "soft total",
        ],
    );
    for (name, row) in par_rows(suite, |name, trace| {
        let c = runner::timed_cell(format!("Ext miss-classes/{name}/classify"), || {
            classify_misses(trace, geom)
        });
        let soft = runner::run_cell(
            format!("Ext miss-classes/{name}/soft"),
            &Config::soft(),
            trace,
        );
        vec![
            c.per_ref(c.compulsory),
            c.per_ref(c.capacity),
            c.per_ref(c.conflict),
            c.per_ref(c.total()),
            soft.miss_ratio(),
        ]
    }) {
        t.push_row(name, row);
    }
    t
}

/// Companion to [`ext_related_designs`]: the memory-traffic side.
/// Stream buffers buy their AMAT with wrong-path prefetch traffic (the
/// paper's stated flaw of tag-blind hardware prefetching), while the
/// software-assisted cache *reduces* traffic.
pub fn ext_related_traffic(suite: &Suite) -> Table {
    let geom = CacheGeometry::standard();
    let mem = MemoryModel::default();
    metric_table(
        "Extension — related designs of §5 (words fetched / references)",
        suite,
        &[
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
        ],
        |m| m.traffic_ratio(),
    )
}

/// Ablation: software control across main-cache associativities (the
/// paper evaluates 1-way throughout and 2-way in Figure 9b; this sweep
/// completes the picture).
pub fn ablation_associativity(suite: &Suite) -> Table {
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
    amat_table(
        "Ablation — software control vs main-cache associativity (AMAT, cycles)",
        suite,
        &as_label_refs(&configs),
    )
}

/// Ablation: bus bandwidth. The virtual-line penalty is `n·LS/w_b`
/// (§2.1: a 256-byte virtual line costs 14 extra cycles on the 16-byte
/// bus), so narrower buses shrink the profitable virtual-line size.
pub fn ablation_bus_width(suite: &Suite) -> Table {
    let widths = [8u64, 16, 32];
    let mut configs: Vec<(String, Config)> = Vec::new();
    for w in widths {
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
    amat_table(
        "Ablation — bus bandwidth (AMAT, cycles; bytes/cycle)",
        suite,
        &as_label_refs(&configs),
    )
}

/// Ablation: 16-byte physical lines under software control (§3.2 "Cache
/// Line Size": performance proved similar, enabling a smaller mux).
pub fn ablation_physical_16(suite: &Suite) -> Table {
    amat_table(
        "Ablation — 16 B vs 32 B physical lines under software control (AMAT, cycles)",
        suite,
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
