//! Named cache configurations used across the figures.

use sac_core::{AssistCache, SoftCache, SoftCacheConfig};
use sac_obs::Probe;
use sac_simcache::{
    BypassCache, BypassMode, CacheGeometry, CacheSim, ColumnAssociativeCache, MemoryModel, Metrics,
    NextLinePrefetchCache, ProbedSim, StandardCache, StreamBufferCache, VictimCache,
};
use sac_trace::Trace;
use std::fmt;

/// One cache organization to evaluate.
///
/// `Config` is a cheap, copyable description; [`Config::run`] builds the
/// engine and drives a trace through it.
///
/// ```
/// use sac_experiments::Config;
/// use sac_trace::{Access, Trace};
///
/// let trace: Trace = (0..64u64).map(|i| Access::read(i * 8)).collect();
/// let m = Config::standard().run(&trace);
/// assert_eq!(m.refs, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Config {
    /// A plain cache ([`StandardCache`]).
    Standard {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
    },
    /// Main cache plus victim cache ([`VictimCache`]).
    Victim {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Victim-cache size in lines.
        lines: u32,
    },
    /// Tag-driven bypassing ([`BypassCache`]).
    Bypass {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Plain or through a line buffer.
        mode: BypassMode,
    },
    /// Hardware next-line prefetching ([`NextLinePrefetchCache`]).
    HwPrefetch {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Prefetch-buffer size in lines.
        lines: u32,
    },
    /// Jouppi stream buffers ([`StreamBufferCache`], §5 related work).
    StreamBuffer {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Number of stream buffers.
        buffers: u32,
        /// Entries per buffer.
        depth: u32,
    },
    /// The column-associative cache ([`ColumnAssociativeCache`], §5).
    ColumnAssoc {
        /// Main-cache geometry (direct-mapped).
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
    },
    /// An HP-7200-style assist cache ([`AssistCache`], §5).
    Assist {
        /// Main-cache geometry.
        geom: CacheGeometry,
        /// Memory parameters.
        mem: MemoryModel,
        /// Assist-cache size in lines.
        lines: u32,
    },
    /// The software-assisted cache ([`SoftCache`]).
    Soft(SoftCacheConfig),
}

impl Config {
    /// The paper's Standard baseline (8 KB / 32 B / 1-way, 20-cycle
    /// latency, 16-byte bus).
    pub fn standard() -> Self {
        Config::Standard {
            geom: CacheGeometry::standard(),
            mem: MemoryModel::default(),
        }
    }

    /// Standard plus an 8-line victim cache (Figure 3b).
    pub fn standard_victim() -> Self {
        Config::Victim {
            geom: CacheGeometry::standard(),
            mem: MemoryModel::default(),
            lines: 8,
        }
    }

    /// The full software-assisted mechanism.
    pub fn soft() -> Self {
        Config::Soft(SoftCacheConfig::soft())
    }

    /// One representative of every cache organization, all on the
    /// standard geometry — the widest replay batch, used by the
    /// multi-config replay benchmarks, the differential pass and the
    /// equivalence tests.
    pub fn all_organizations() -> [(&'static str, Config); 8] {
        let geom = CacheGeometry::standard();
        let mem = MemoryModel::default();
        [
            ("standard", Config::standard()),
            ("victim", Config::standard_victim()),
            (
                "bypass",
                Config::Bypass {
                    geom,
                    mem,
                    mode: BypassMode::Buffered { lines: 4 },
                },
            ),
            (
                "prefetch",
                Config::HwPrefetch {
                    geom,
                    mem,
                    lines: 8,
                },
            ),
            (
                "stream",
                Config::StreamBuffer {
                    geom,
                    mem,
                    buffers: 4,
                    depth: 4,
                },
            ),
            ("colassoc", Config::ColumnAssoc { geom, mem }),
            (
                "assist",
                Config::Assist {
                    geom,
                    mem,
                    lines: 16,
                },
            ),
            ("soft", Config::soft()),
        ]
    }

    /// Resolves a CLI configuration name (the `--config`/`--diff`
    /// vocabulary of the `explain` binary) to its standard-geometry
    /// configuration. `None` for unknown names; [`Config::CLI_NAMES`]
    /// lists the accepted ones.
    pub fn by_name(name: &str) -> Option<Config> {
        let geom = CacheGeometry::standard();
        let mem = MemoryModel::default();
        Some(match name {
            "standard" => Config::standard(),
            "victim" => Config::standard_victim(),
            "bypass" => Config::Bypass {
                geom,
                mem,
                mode: BypassMode::Buffered { lines: 4 },
            },
            "prefetch" => Config::HwPrefetch {
                geom,
                mem,
                lines: 8,
            },
            "stream" => Config::StreamBuffer {
                geom,
                mem,
                buffers: 4,
                depth: 4,
            },
            "colassoc" => Config::ColumnAssoc { geom, mem },
            "assist" => Config::Assist {
                geom,
                mem,
                lines: 16,
            },
            "soft" => Config::soft(),
            "soft-prefetch" => match Config::soft() {
                Config::Soft(mut c) => {
                    c.prefetch = true;
                    Config::Soft(c)
                }
                _ => unreachable!(),
            },
            _ => return None,
        })
    }

    /// The names [`Config::by_name`] accepts, for usage messages.
    pub const CLI_NAMES: &'static str =
        "standard | victim | bypass | prefetch | stream | colassoc | assist | soft | soft-prefetch";

    /// The main-cache geometry and memory model of this configuration —
    /// the shape a baseline or an observer config is derived from.
    pub fn shape(&self) -> (CacheGeometry, MemoryModel) {
        match *self {
            Config::Standard { geom, mem }
            | Config::Victim { geom, mem, .. }
            | Config::Bypass { geom, mem, .. }
            | Config::HwPrefetch { geom, mem, .. }
            | Config::StreamBuffer { geom, mem, .. }
            | Config::ColumnAssoc { geom, mem }
            | Config::Assist { geom, mem, .. } => (geom, mem),
            Config::Soft(cfg) => (cfg.geometry, cfg.memory),
        }
    }

    /// Builds the configured engine, ready to replay a trace. The boxed
    /// engine is what a replay batch drives chunk by chunk; the virtual
    /// dispatch happens once per chunk ([`CacheSim::run_chunk`]), not per
    /// reference. The box is `Send` so a batch can shard its engines
    /// across intra-cell worker threads.
    pub fn build(&self) -> Box<dyn CacheSim + Send> {
        match *self {
            Config::Standard { geom, mem } => Box::new(StandardCache::new(geom, mem)),
            Config::Victim { geom, mem, lines } => Box::new(VictimCache::new(geom, mem, lines)),
            Config::Bypass { geom, mem, mode } => Box::new(BypassCache::new(geom, mem, mode)),
            Config::HwPrefetch { geom, mem, lines } => {
                Box::new(NextLinePrefetchCache::new(geom, mem, lines))
            }
            Config::StreamBuffer {
                geom,
                mem,
                buffers,
                depth,
            } => Box::new(StreamBufferCache::new(geom, mem, buffers, depth)),
            Config::ColumnAssoc { geom, mem } => Box::new(ColumnAssociativeCache::new(geom, mem)),
            Config::Assist { geom, mem, lines } => Box::new(AssistCache::new(geom, mem, lines)),
            Config::Soft(cfg) => Box::new(SoftCache::new(cfg)),
        }
    }

    /// Builds the configured engine with an observer probe attached; the
    /// probe comes back out through [`ProbedSim::into_probe`]. Every
    /// organization runs on the shared policy engine, so any [`Probe`]
    /// composes with any configuration; the probed engine replays
    /// exactly like its unprobed twin (same chunked fast path, same
    /// metrics).
    pub fn build_probed<P: Probe + 'static>(&self, probe: P) -> Box<dyn ProbedSim<P>> {
        match *self {
            Config::Standard { geom, mem } => Box::new(StandardCache::with_probe(geom, mem, probe)),
            Config::Victim { geom, mem, lines } => {
                Box::new(VictimCache::with_probe(geom, mem, lines, probe))
            }
            Config::Bypass { geom, mem, mode } => {
                Box::new(BypassCache::with_probe(geom, mem, mode, probe))
            }
            Config::HwPrefetch { geom, mem, lines } => {
                Box::new(NextLinePrefetchCache::with_probe(geom, mem, lines, probe))
            }
            Config::StreamBuffer {
                geom,
                mem,
                buffers,
                depth,
            } => Box::new(StreamBufferCache::with_probe(
                geom, mem, buffers, depth, probe,
            )),
            Config::ColumnAssoc { geom, mem } => {
                Box::new(ColumnAssociativeCache::with_probe(geom, mem, probe))
            }
            Config::Assist { geom, mem, lines } => {
                Box::new(AssistCache::with_probe(geom, mem, lines, probe))
            }
            Config::Soft(cfg) => Box::new(SoftCache::with_probe(cfg, probe)),
        }
    }

    /// The configuration this one behaves exactly like, which the suite
    /// memo and the result store key on. A Soft. configuration that
    /// cannot form a virtual line — virtual line equal to the physical
    /// line, no variable virtual lines, no prefetch — fetches one line
    /// per miss whether or not it honors spatial tags, so it is keyed as
    /// its `use_spatial = false` twin (Figure 8a's `vline=32B` is
    /// Figure 6a's Temp.only). Every other configuration is its own.
    pub fn canonical(&self) -> Config {
        match *self {
            Config::Soft(mut c)
                if c.use_spatial
                    && c.virtual_line_bytes == c.geometry.line_bytes()
                    && !c.variable_vlines
                    && !c.prefetch =>
            {
                c.use_spatial = false;
                Config::Soft(c)
            }
            other => other,
        }
    }

    /// The key under which configurations share one latency-lane engine
    /// ([`Config::build_lanes`]): the configuration at latency 0, for the
    /// organizations whose policy takes no decision from the clock but
    /// the write-buffer-full check — Standard, and Soft. without
    /// prefetch. `None` for every other configuration.
    pub fn lane_key(&self) -> Option<Config> {
        match *self {
            Config::Standard { geom, mem } => Some(Config::Standard {
                geom,
                mem: mem.with_latency(0),
            }),
            Config::Soft(cfg) if !cfg.prefetch => Some(Config::Soft(cfg.with_latency(0))),
            _ => None,
        }
    }

    /// Builds one engine that replays this configuration at every
    /// latency of `latencies` over one policy state, one timing lane per
    /// latency; [`CacheSim::lane_metrics`] reports each lane, `None`
    /// where a lane diverged and must be replayed alone.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no [`Config::lane_key`].
    pub fn build_lanes(&self, latencies: &[u64]) -> Box<dyn CacheSim + Send> {
        match *self {
            Config::Standard { geom, mem } => {
                Box::new(StandardCache::with_lanes(geom, mem, latencies))
            }
            Config::Soft(cfg) => Box::new(SoftCache::with_lanes(cfg, latencies)),
            _ => panic!("{self} cannot run latency lanes"),
        }
    }

    /// Builds the engine and runs the whole trace.
    pub fn run(&self, trace: &Trace) -> Metrics {
        let mut c = self.build();
        c.run(trace);
        *c.metrics()
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Config::Standard { geom, .. } => write!(f, "standard {geom}"),
            Config::Victim { geom, lines, .. } => write!(f, "victim({lines}) {geom}"),
            Config::Bypass { geom, mode, .. } => write!(f, "bypass({mode:?}) {geom}"),
            Config::HwPrefetch { geom, lines, .. } => write!(f, "prefetch({lines}) {geom}"),
            Config::StreamBuffer { buffers, depth, .. } => {
                write!(f, "stream-buffers({buffers}x{depth})")
            }
            Config::ColumnAssoc { geom, .. } => write!(f, "column-assoc {geom}"),
            Config::Assist { lines, .. } => write!(f, "assist({lines})"),
            Config::Soft(cfg) => write!(f, "soft {cfg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_trace::Access;

    fn trace() -> Trace {
        (0..256u64)
            .map(|i| Access::read((i % 64) * 8).with_temporal(true))
            .collect()
    }

    #[test]
    fn every_variant_runs() {
        let t = trace();
        let configs = [
            Config::standard(),
            Config::standard_victim(),
            Config::Bypass {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                mode: BypassMode::Plain,
            },
            Config::HwPrefetch {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                lines: 8,
            },
            Config::StreamBuffer {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                buffers: 4,
                depth: 4,
            },
            Config::ColumnAssoc {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
            },
            Config::Assist {
                geom: CacheGeometry::standard(),
                mem: MemoryModel::default(),
                lines: 16,
            },
            Config::soft(),
        ];
        for c in configs {
            let m = c.run(&t);
            assert_eq!(m.refs, 256, "{c}");
            assert!(m.amat() >= 1.0, "{c}");
        }
    }

    #[test]
    fn probed_build_matches_unprobed() {
        use sac_obs::EventCounts;
        let t = trace();
        for c in [
            Config::standard(),
            Config::standard_victim(),
            Config::soft(),
        ] {
            let (geom, _) = c.shape();
            assert_eq!(geom, CacheGeometry::standard(), "{c}");
            let mut probed = c.build_probed(EventCounts::default());
            probed.run(&t);
            let m = *probed.metrics();
            assert_eq!(m, c.run(&t), "{c}");
            m.reconcile_events(&probed.into_probe()).unwrap();
        }
    }

    #[test]
    fn by_name_covers_every_organization() {
        for (name, config) in Config::all_organizations() {
            assert_eq!(Config::by_name(name), Some(config), "{name}");
            assert!(Config::CLI_NAMES.contains(name), "{name}");
        }
        assert!(matches!(
            Config::by_name("soft-prefetch"),
            Some(Config::Soft(c)) if c.prefetch
        ));
        assert_eq!(Config::by_name("nope"), None);
    }

    #[test]
    fn run_is_deterministic() {
        let t = trace();
        let a = Config::soft().run(&t);
        let b = Config::soft().run(&t);
        assert_eq!(a, b);
    }
}
