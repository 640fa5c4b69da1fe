//! Cache-simulation substrate for the software-assisted cache study.
//!
//! This crate provides the building blocks shared by every cache
//! organization evaluated in the paper, plus the *baseline* organizations
//! the paper compares against:
//!
//! * [`CacheGeometry`] / [`MemoryModel`] — cache and memory/bus parameters
//!   (defaults: 8 KB direct-mapped cache, 32-byte lines, 20-cycle latency,
//!   16-byte bus — the paper's *Standard* configuration),
//! * [`TagArray`] — a set-associative tag store with LRU state and
//!   per-line temporal/prefetched bits,
//! * [`WriteBuffer`] — a timed write buffer drained over the bus,
//! * [`Metrics`] — AMAT, miss ratio, memory traffic, hit repartition,
//! * [`CacheSim`] — the trait every engine implements,
//! * baselines: [`StandardCache`], [`VictimCache`] (Jouppi), bypassing
//!   ([`BypassCache`], plain or through a line buffer), and a classic
//!   next-line prefetcher ([`NextLinePrefetchCache`]).
//!
//! The software-assisted mechanisms themselves (virtual lines, bounce-back
//! cache, software-biased replacement, software-assisted prefetch) live in
//! the `sac-core` crate.
//!
//! # Timing model
//!
//! The simulators advance a cycle clock by each reference's issue gap and
//! charge an *access cost* per reference: 1 cycle for a main-cache hit,
//! 3 cycles for a victim/bounce-back hit (plus a 2-cycle lock that can
//! stall the next access), and `t_lat + n·LS/w_b` for a miss fetching `n`
//! physical lines. **AMAT** is the mean access cost, exactly as in the
//! paper (CPI is not available from source-level traces).
//!
//! # Example
//!
//! ```
//! use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, StandardCache, StandardPolicy};
//! use sac_trace::{Access, Trace};
//!
//! let trace: Trace = (0..1024u64).map(|i| Access::read(i * 8)).collect();
//! let policy = StandardPolicy::new(CacheGeometry::standard());
//! let mut cache = StandardCache::new(policy, MemoryModel::default());
//! cache.run(&trace);
//! // Sequential doubles: one miss per 32-byte line.
//! assert_eq!(cache.metrics().misses, 256);
//! ```

#![warn(missing_docs)]

mod bus;
mod bypass;
mod classify;
mod clock;
mod coherence;
mod coherent;
mod colassoc;
mod config;
mod engine;
mod fused;
mod memsys;
mod metrics;
mod prefetch;
mod standard;
mod stream;
mod tagarray;
mod victim;
mod writebuf;

pub use bus::{BusTx, FillSource, SnoopBus};
pub use bypass::{BypassCache, BypassMode, BypassPolicy};
pub use classify::{classify_misses, MissClasses};
pub use clock::Clock;
pub use coherence::{CoherenceProtocol, Dragon, LineState, Mesi, SnoopReaction, WriteHitAction};
pub use coherent::{CoherenceStats, CoherentSystem, CpuCoherence};
pub use colassoc::{ColAssocPolicy, ColumnAssociativeCache};
pub use config::{CacheGeometry, MemoryModel};
pub use engine::{CacheSim, ProbedSim};
pub use fused::{LineRun, LineRuns};
pub use memsys::{CacheEngine, CachePolicy, Lane, LaneSet, Lanes, MemorySystem, OneLane, WbStall};
pub use metrics::{ChunkDelta, Metrics};
pub use prefetch::{NextLinePrefetchCache, PrefetchPolicy};
pub use standard::{StandardCache, StandardPolicy};
pub use stream::{StreamBufferCache, StreamPolicy};
pub use tagarray::{Entry, Evict, TagArray};
pub use victim::{VictimCache, VictimPolicy};
pub use writebuf::WriteBuffer;

/// Access cost of a main-cache hit, in cycles.
pub const MAIN_HIT_CYCLES: u64 = 1;

/// Access cost of a victim / bounce-back cache hit, in cycles (§2.2: a
/// conservative 3-cycle value covering the 2-cycle hit/miss answer plus
/// miss-handling overhead).
pub const AUX_HIT_CYCLES: u64 = 3;

/// Extra cycles both caches stay locked after a swap (§2.2).
pub const SWAP_LOCK_CYCLES: u64 = 2;

/// Cycles to transfer one dirty line to the write buffer (§2.1 note 3).
pub const DIRTY_TRANSFER_CYCLES: u64 = 2;

/// Cycles for the address phase plus the wired-OR snoop answer of a bus
/// transaction: the full cost of an address-only BusUpgr, and the head
/// start a cache-to-cache fill has over a memory fetch.
pub const SNOOP_CYCLES: u64 = 2;
