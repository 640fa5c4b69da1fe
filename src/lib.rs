//! Reproduction of O. Temam & N. Drach, *Software Assistance for Data
//! Caches* (HPCA 1995).
//!
//! This crate is a façade over the workspace: it re-exports the five
//! subsystem crates so applications can depend on a single package.
//!
//! * [`trace`] — tagged reference traces and trace statistics,
//! * [`obs`] — probe-based telemetry: typed engine events, behavior
//!   histograms, 3C classification and JSONL export,
//! * [`loopir`] — the loop-nest IR, the paper's locality analysis, and
//!   the trace-emitting interpreter,
//! * [`simcache`] — the cache-simulation substrate and the baseline
//!   organizations (standard, victim cache, bypassing, hardware
//!   prefetch),
//! * [`core`] — the paper's contribution: virtual lines + bounce-back
//!   cache + software-controlled replacement + software-assisted
//!   prefetching,
//! * [`workloads`] — the nine benchmark programs and the blocking /
//!   copying kernels,
//! * [`experiments`] — per-figure experiment runners.
//!
//! # Quickstart
//!
//! ```
//! use software_assisted_caches::core::{SoftCache, SoftCacheConfig, SoftPolicy};
//! use software_assisted_caches::simcache::{CacheSim, StandardCache, StandardPolicy};
//! use software_assisted_caches::workloads::mv;
//!
//! let trace = mv::program(128).trace_default();
//! let cfg = SoftCacheConfig::soft();
//!
//! let mut standard = StandardCache::new(StandardPolicy::new(cfg.geometry), cfg.memory);
//! standard.run(&trace);
//!
//! let mut soft = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
//! soft.run(&trace);
//!
//! assert!(soft.metrics().amat() <= standard.metrics().amat());
//! ```

#![warn(missing_docs)]

pub use sac_core as core;
pub use sac_experiments as experiments;
pub use sac_loopir as loopir;
pub use sac_obs as obs;
pub use sac_simcache as simcache;
pub use sac_trace as trace;
pub use sac_workloads as workloads;
