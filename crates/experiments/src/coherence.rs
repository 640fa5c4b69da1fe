//! Multi-core coherence experiments: drives cpu-tagged traces through
//! the [`CoherentSystem`] and turns the result into reports and tables.
//!
//! Three reusable pieces:
//!
//! * [`run_coherent`] — one verified run: the SWMR invariant is checked
//!   after the replay (the global counters are the per-CPU blocks merged,
//!   so they reconcile by construction), and the coherence totals land
//!   in the run's registry (`coherence.*`), which `figures` prints to
//!   stderr at the end of a run.
//! * [`shard_round_robin`] / [`privatize`] — turn a uniprocessor
//!   benchmark trace into a shared-data or private-data multi-CPU
//!   version of itself, the two poles the coherence sweep compares.
//! * `sweep` — the private-vs-shared sweep itself, over two synthetic
//!   traces and the two sharing microkernels, as figure cells: the
//!   `coh-mesi` and `coh-dragon` entries of [`crate::figures::REGISTRY`].

use crate::figures::{Cell, Input, Plan, Work};
use crate::{runner, Table};
use sac_simcache::{
    CacheGeometry, CoherentSystem, CpuCoherence, Dragon, MemoryModel, Mesi, Metrics,
};
use sac_trace::{Access, Trace, MAX_CPUS};
use sac_workloads::sharing;

/// The snooping protocols the experiments can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Invalidation-based MESI (the default).
    Mesi,
    /// Update-based Dragon.
    Dragon,
}

impl Protocol {
    /// CLI names, for error messages.
    pub const CLI_NAMES: &'static str = "mesi | dragon";

    /// Parses a CLI protocol name.
    pub fn by_name(name: &str) -> Option<Protocol> {
        match name {
            "mesi" => Some(Protocol::Mesi),
            "dragon" => Some(Protocol::Dragon),
            _ => None,
        }
    }

    /// The display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Mesi => "MESI",
            Protocol::Dragon => "Dragon",
        }
    }
}

/// The verified result of one coherent replay.
#[derive(Debug, Clone)]
pub struct CoherentSummary {
    /// The label the run was recorded under.
    pub label: String,
    /// The protocol that ran.
    pub protocol: Protocol,
    /// Global counters (all CPUs combined).
    pub metrics: Metrics,
    /// Each CPU's private counters; sums exactly to `metrics`.
    pub per_cpu: Vec<Metrics>,
    /// Each CPU's coherence counters.
    pub per_cpu_coherence: Vec<CpuCoherence>,
    /// Shared-bus transaction count.
    pub bus_transactions: u64,
    /// Cycles the shared bus spent occupied.
    pub bus_occupancy: u64,
}

/// Runs `trace` through a [`CoherentSystem`] of `cpus` private caches
/// under `protocol`, verifying the SWMR invariant before returning, and
/// accumulating the coherence totals into the installed run's registry
/// (`coherence.invalidations` / `.upgrades` / `.c2c_fills` /
/// `.bus_occupancy`).
///
/// # Errors
///
/// Returns the SWMR violation — an engine bug, not a user error.
///
/// # Panics
///
/// Panics if `cpus` is zero, exceeds [`MAX_CPUS`], or the trace names a
/// CPU outside `0..cpus`.
pub fn run_coherent(
    label: &str,
    protocol: Protocol,
    geom: CacheGeometry,
    mem: MemoryModel,
    cpus: usize,
    trace: &Trace,
) -> Result<CoherentSummary, String> {
    // The two protocol arms monomorphize separately; a tiny closure
    // keeps the summary assembly shared.
    let finish = |metrics: Metrics,
                  per_cpu: Vec<Metrics>,
                  per_cpu_coherence: Vec<CpuCoherence>,
                  bus_transactions: u64,
                  bus_occupancy: u64| {
        let s = CoherentSummary {
            label: label.to_string(),
            protocol,
            metrics,
            per_cpu,
            per_cpu_coherence,
            bus_transactions,
            bus_occupancy,
        };
        let t = s.coherence_totals();
        runner::counter_add("coherence.invalidations", t.invalidations_received);
        runner::counter_add("coherence.upgrades", t.upgrades);
        runner::counter_add("coherence.c2c_fills", t.c2c_fills);
        runner::counter_add("coherence.bus_occupancy", bus_occupancy);
        s
    };
    match protocol {
        Protocol::Mesi => {
            let mut sys: CoherentSystem<Mesi> = CoherentSystem::new(geom, mem, cpus);
            sys.run(trace);
            sys.check_swmr().map_err(|e| format!("{label}: {e}"))?;
            Ok(finish(
                *sys.metrics(),
                (0..cpus).map(|c| *sys.core_metrics(c)).collect(),
                sys.stats().per_cpu().to_vec(),
                sys.bus().transactions(),
                sys.bus().occupancy_cycles(),
            ))
        }
        Protocol::Dragon => {
            let mut sys: CoherentSystem<Dragon> = CoherentSystem::new(geom, mem, cpus);
            sys.run(trace);
            sys.check_swmr().map_err(|e| format!("{label}: {e}"))?;
            Ok(finish(
                *sys.metrics(),
                (0..cpus).map(|c| *sys.core_metrics(c)).collect(),
                sys.stats().per_cpu().to_vec(),
                sys.bus().transactions(),
                sys.bus().occupancy_cycles(),
            ))
        }
    }
}

impl CoherentSummary {
    /// All CPUs' coherence counters summed.
    pub fn coherence_totals(&self) -> CpuCoherence {
        let mut t = CpuCoherence::default();
        for c in &self.per_cpu_coherence {
            t.merge(c);
        }
        t
    }

    /// The percentage of invalidations that were false sharing (0
    /// without invalidations).
    pub fn false_sharing_pct(&self) -> f64 {
        let t = self.coherence_totals();
        if t.invalidations_received > 0 {
            100.0 * t.false_sharing_invalidations as f64 / t.invalidations_received as f64
        } else {
            0.0
        }
    }

    /// The textual report `explain --cpus` prints.
    pub fn render(&self) -> String {
        let m = &self.metrics;
        let t = self.coherence_totals();
        let mut s = String::new();
        s.push_str(&format!(
            "coherence {} ({}, {} CPUs)\n",
            self.label,
            self.protocol.name(),
            self.per_cpu.len()
        ));
        s.push_str(&format!(
            "  global       {} refs, miss ratio {:.4}, AMAT {:.3} cycles, {} writebacks\n",
            m.refs,
            m.miss_ratio(),
            m.amat(),
            m.writebacks
        ));
        s.push_str("  reconcile    per-CPU metrics sum exactly to the global block; SWMR holds\n");
        s.push_str(&format!(
            "  bus          {} transactions, {} cycles occupied ({:.3} per ref)\n",
            self.bus_transactions,
            self.bus_occupancy,
            if m.refs > 0 {
                self.bus_occupancy as f64 / m.refs as f64
            } else {
                0.0
            }
        ));
        s.push_str(&format!(
            "  coherence    {} invalidations ({} false sharing, {:.1}%), {} upgrades, \
             {} c2c fills, {} wb forwards, {} updates\n",
            t.invalidations_received,
            t.false_sharing_invalidations,
            self.false_sharing_pct(),
            t.upgrades,
            t.c2c_fills,
            t.wb_forwards,
            t.updates
        ));
        for (c, (m, coh)) in self.per_cpu.iter().zip(&self.per_cpu_coherence).enumerate() {
            s.push_str(&format!(
                "  cpu {c}        {} refs, miss ratio {:.4}, AMAT {:.3}; \
                 inv {}→/{}← ({} false), {} c2c\n",
                m.refs,
                m.miss_ratio(),
                m.amat(),
                coh.invalidations_sent,
                coh.invalidations_received,
                coh.false_sharing_invalidations,
                coh.c2c_fills
            ));
        }
        s
    }
}

/// Retags a uniprocessor trace for `cpus` CPUs round-robin (reference
/// `i` issues from CPU `i % cpus`), keeping addresses and order — the
/// *shared-data* pole of the sweep: every CPU works on the same arrays,
/// so lines migrate and invalidate.
///
/// # Panics
///
/// Panics if `cpus` is zero or exceeds [`MAX_CPUS`].
pub fn shard_round_robin(trace: &Trace, cpus: usize) -> Trace {
    assert!(cpus > 0, "need at least one CPU");
    assert!(cpus <= MAX_CPUS, "at most {MAX_CPUS} CPUs");
    let mut t = Trace::with_capacity(trace.name(), trace.len());
    for (i, a) in trace.iter().enumerate() {
        t.push(a.with_cpu((i % cpus) as u8));
    }
    t
}

/// Address offset separating the per-CPU copies a [`privatize`] trace
/// works on: far above any benchmark footprint, line-aligned.
const PRIVATE_STRIDE: u64 = 1 << 32;

/// Moves each CPU's references of an already cpu-tagged trace into a
/// disjoint address region — the *private-data* pole: identical
/// interleaving, cpu tags and per-CPU reference streams, but no line is
/// ever shared, so any metric delta against the original is pure
/// coherence cost. Uniprocessor traces go through [`shard_round_robin`]
/// first.
///
/// Only kind, address, gap and cpu survive (the coherent system ignores
/// locality tags).
pub fn privatize(trace: &Trace) -> Trace {
    let mut t = Trace::with_capacity(trace.name(), trace.len());
    for a in trace {
        let addr = a.addr() + a.cpu() as u64 * PRIVATE_STRIDE;
        let base = if a.kind().is_write() {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        t.push(base.with_gap(a.gap()).with_cpu(a.cpu()));
    }
    t
}

/// Reference length of the synthetic rows of the sweep.
const SWEEP_KERNEL_REFS: usize = 60_000;

/// The workload rows of the coherence sweep: the synthetic `mixed` and
/// `hit_heavy` traces of [`crate::explain`] ([`mixed_trace`] and
/// [`hit_heavy_trace`], 60,000 references each) and the two sharing
/// microkernels, which issue from two CPUs of their own.
///
/// [`mixed_trace`]: crate::explain::mixed_trace
/// [`hit_heavy_trace`]: crate::explain::hit_heavy_trace
const SWEEP_ROWS: [&str; 4] = ["mixed", "hit_heavy", "prod_cons", "false_share"];

/// The trace of sweep row `row` issued by `cpus` CPUs, sharing its data
/// or, when `private`, each on its own copy ([`privatize`]). A workload
/// that already issues from `cpus` CPUs keeps its own tagging
/// (re-sharding would destroy its pattern); any other is sharded round
/// robin.
///
/// # Panics
///
/// Panics if `row` is not a sweep row.
pub(crate) fn sweep_trace(row: &str, cpus: usize, private: bool) -> Trace {
    let trace = match row {
        "mixed" => crate::explain::mixed_trace(SWEEP_KERNEL_REFS),
        "hit_heavy" => crate::explain::hit_heavy_trace(SWEEP_KERNEL_REFS),
        "prod_cons" => sharing::producer_consumer(2, 2_000, 16),
        "false_share" => sharing::false_sharing(2, 8_000, 4),
        _ => panic!("no coherence sweep row {row}"),
    };
    let tagged = if trace.cpu_count() == cpus {
        trace
    } else {
        shard_round_robin(&trace, cpus)
    };
    if private {
        privatize(&tagged)
    } else {
        tagged
    }
}

/// The coherence sweep table under `protocol` (the `coh-mesi` and
/// `coh-dragon` figures): each workload's miss ratio and AMAT with the
/// data private to each CPU versus shared between them, at 2 and 4 CPUs,
/// plus the false-sharing fraction of the 2-CPU shared run. Each row's
/// three coherent runs are cells labeled `coh-<protocol>/<row>/<run>`.
pub(crate) fn sweep(protocol: Protocol) -> Plan {
    let id = format!("coh-{}", protocol.name().to_lowercase());
    let table = Table::new(
        format!(
            "Coherence — private vs shared data, {} (miss ratio / AMAT)",
            protocol.name()
        ),
        &[
            "miss.priv2",
            "miss.shared2",
            "miss.shared4",
            "amat.priv2",
            "amat.shared2",
            "amat.shared4",
            "false.pct2",
        ],
    );
    let rows = SWEEP_ROWS
        .iter()
        .map(|&row| {
            let cell = |run: &str, cpus, private| Cell {
                label: format!("{id}/{row}/{run}"),
                input: Input::Coherent { row, cpus, private },
                work: Work::Coherent(protocol),
            };
            let cells = vec![
                cell("shared2", 2, false),
                cell("shared4", 4, false),
                cell("priv2", 2, true),
            ];
            (row.to_string(), cells)
        })
        .collect();
    Plan::per_row(table, rows, |runs| {
        let [shared2, shared4, priv2] = [0, 1, 2].map(|i| &runs[i]);
        vec![
            priv2.metrics.miss_ratio(),
            shared2.metrics.miss_ratio(),
            shared4.metrics.miss_ratio(),
            priv2.metrics.amat(),
            shared2.metrics.amat(),
            shared4.metrics.amat(),
            shared2.values[0],
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_parse() {
        assert_eq!(Protocol::by_name("mesi"), Some(Protocol::Mesi));
        assert_eq!(Protocol::by_name("dragon"), Some(Protocol::Dragon));
        assert_eq!(Protocol::by_name("moesi"), None);
    }

    #[test]
    fn run_coherent_verifies_and_renders() {
        let trace = shard_round_robin(&crate::explain::mixed_trace(20_000), 2);
        let s = run_coherent(
            "test/mixed2",
            Protocol::Mesi,
            CacheGeometry::standard(),
            MemoryModel::default(),
            2,
            &trace,
        )
        .unwrap();
        assert_eq!(s.metrics.refs, 20_000);
        assert_eq!(s.per_cpu.len(), 2);
        let text = s.render();
        assert!(text.contains("coherence test/mixed2"), "{text}");
        assert!(text.contains("SWMR holds"), "{text}");
        assert!(text.contains("cpu 1"), "{text}");
    }

    #[test]
    fn privatized_trace_has_no_coherence_traffic() {
        let base = crate::explain::mixed_trace(20_000);
        let shared = run_coherent(
            "t/shared",
            Protocol::Mesi,
            CacheGeometry::standard(),
            MemoryModel::default(),
            2,
            &shard_round_robin(&base, 2),
        )
        .unwrap();
        let private = run_coherent(
            "t/priv",
            Protocol::Mesi,
            CacheGeometry::standard(),
            MemoryModel::default(),
            2,
            &privatize(&shard_round_robin(&base, 2)),
        )
        .unwrap();
        assert_eq!(
            private.coherence_totals().invalidations_received,
            0,
            "disjoint regions cannot invalidate"
        );
        assert!(
            shared.coherence_totals().invalidations_received > 0,
            "the shared version of the same trace does"
        );
    }

    #[test]
    fn sweep_tables_match_the_committed_golden() {
        // The same bytes `figures coherence` prints: `coh-mesi`, then
        // `coh-dragon`.
        let got = format!(
            "{}\n{}\n",
            sweep(Protocol::Mesi).run(None),
            sweep(Protocol::Dragon).run(None)
        );
        assert_eq!(
            got,
            include_str!("../../../tests/data/coherence_golden.txt"),
            "coherence sweep drifted from tests/data/coherence_golden.txt"
        );
    }

    #[test]
    fn sweep_table_has_expected_shape() {
        let t = sweep(Protocol::Mesi).run(None);
        assert_eq!(t.rows().len(), 4);
        let fs = t.get("false_share", "false.pct2").unwrap();
        assert!(
            fs > 95.0,
            "false-sharing kernel must classify as false sharing, got {fs}"
        );
        let shared = t.get("false_share", "amat.shared2").unwrap();
        let private = t.get("false_share", "amat.priv2").unwrap();
        assert!(
            shared > private,
            "ping-pong must cost cycles: shared {shared} vs private {private}"
        );
    }
}
