//! `sacbench`: the repository's end-to-end and per-layer benchmark.
//!
//! Five workloads, each run in its own process on one thread, time the
//! simulator from outside through its public calls: the paper-scale
//! figure sweep, batched replay on low-miss and high-miss kernels, trace
//! files plus the result store, and the coherent multi-core driver. A
//! run prints one JSON line with the end-to-end metrics (or, when
//! traced, the per-layer metrics) and counts every output check it made.
//!
//! The tables below are the harness's side of the contract with
//! `BENCHMARK.json`; `tests/contract.rs` asserts that the two agree.

pub mod compare;
pub mod harness;
pub mod json;
pub mod record;
pub mod stats;
pub mod workloads;

/// The seed `Suite` uses for its traces: at this seed the replay
/// workloads see exactly the suite's reference streams.
pub const DEFAULT_SEED: u64 = 0x5AC0;

/// How many times a run builds its workload's inputs before measuring;
/// `setup_s` is the median of these builds (plus any rebuilds).
pub const SETUP_REPS: usize = 3;

/// How long the calibration loop ([`record::calibrate`]) takes on the
/// reference host, a 2-vCPU Intel Xeon virtual machine. Timings are
/// reported in seconds on that host: raw seconds scaled by this over the
/// calibration measured around them.
pub const CALIB_REF_S: f64 = 0.025;

/// Kernels whose standard-cache miss ratio is 1–15%: the tag probe and
/// the fused line-run arena do most of the work.
pub const REPLAY_HIT_KERNELS: [&str; 4] = ["MDG", "BDN", "Slalom", "LIV"];

/// Kernels whose standard-cache miss ratio is 22–41%: the victim,
/// bounce-back, assist and write-buffer miss paths dominate.
pub const REPLAY_MISS_KERNELS: [&str; 4] = ["DYF", "TRF", "MV", "SpMV"];

/// Whether a smaller or a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The metric's name in the JSON output.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("norm_wall_s", "s", Better::Lower, 0.25),
    e2e("norm_refs_per_s", "refs/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// The per-layer metrics of a traced run. Every workload measures every
/// one of them; the workload-specific breakdown (per figure, per
/// organization, per file format, per protocol) goes to the run's
/// `layers.json` instead.
pub const PER_LAYER: [MetricDef; 12] = [
    layer("loopir.trace_s", "s", Better::Lower),
    layer("loopir.refs_per_s", "refs/s", Better::Higher),
    layer("engine.replay_s", "s", Better::Lower),
    layer("engine.refs", "count", Better::Higher),
    layer("engine.ns_per_ref", "ns", Better::Lower),
    layer("engine.miss_ratio", "ratio", Better::Lower),
    layer("iter.outside_engine_s", "s", Better::Lower),
    layer("simcache.fused.build_s", "s", Better::Lower),
    layer("simcache.fused.runs_per_ref", "ratio", Better::Lower),
    layer("host.calib_s", "s", Better::Lower),
    layer("host.wall_s", "s", Better::Lower),
    layer("host.trace_overhead_pct", "%", Better::Lower),
];

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the benchmark runs it (one line).
    pub why: &'static str,
    /// Untimed iterations before the timed ones.
    pub warmup: usize,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "paper_sweep",
        why: "all 19 paper figures at paper scale on a fresh suite: the sweep users wait for",
        warmup: 0,
    },
    WorkloadDef {
        name: "replay_hit",
        why: "8 organizations over low-miss kernels MDG BDN Slalom LIV: tag probe and line-run arena dominate",
        warmup: 2,
    },
    WorkloadDef {
        name: "replay_miss",
        why: "8 organizations over high-miss kernels DYF TRF MV SpMV: victim, bounce-back and assist miss paths dominate",
        warmup: 2,
    },
    WorkloadDef {
        name: "trace_files",
        why: "MV and SpMV encoded to SACT and SAC2, replayed from mmap, cells saved to and loaded from the store",
        warmup: 1,
    },
    WorkloadDef {
        name: "coherent",
        why: "SpMV, MV and sharing microkernels under MESI and Dragon at 2 and 4 CPUs: the only coherence workload",
        warmup: 1,
    },
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}
