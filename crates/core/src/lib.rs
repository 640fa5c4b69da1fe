//! The software-assisted data cache of Temam & Drach (HPCA 1995).
//!
//! This crate implements the paper's contribution on top of the
//! `sac-simcache` substrate:
//!
//! * **Virtual lines** (§2.1) — on a miss by a *spatial-tagged* reference,
//!   the cache fills the aligned group of small physical lines that a
//!   large line would cover. Presence checks for the extra lines are
//!   hidden under the first request; already-present lines are not
//!   re-fetched; lines found in the bounce-back cache have their incoming
//!   copy invalidated (the fetch cannot be aborted). The miss penalty for
//!   `n` fetched lines is `t_lat + n·LS/w_b`.
//! * **Bounce-back cache** (§2.2) — a small fully-associative LRU buffer
//!   receiving every main-cache victim. A line evicted from it whose
//!   *temporal bit* is set is bounced back into the main cache instead of
//!   being discarded (its temporal bit resets: the dynamic adjustment).
//!   Hits swap with the conflicting main line (3 cycles + 2-cycle lock).
//!   With no temporal tags in flight it degrades into a plain victim
//!   cache, so the silicon is never wasted.
//! * **Software-controlled set-associative replacement** (§3.2) — LRU
//!   biased against non-temporal lines; the cheap alternative to the
//!   bounce-back cache for associative caches ("simplified soft").
//! * **Software-assisted progressive prefetching** (§4.4) — on a spatial
//!   miss the line following the virtual line is prefetched into the
//!   bounce-back cache; a hit on a prefetched line swaps it in and
//!   prefetches the next line. Prefetched lines are capped in the
//!   bounce-back cache and preferentially replace other prefetched lines.
//!
//! Every configuration evaluated in the paper is a [`SoftCacheConfig`]
//! preset: [`SoftCacheConfig::soft`] (the full mechanism),
//! [`SoftCacheConfig::temporal_only`], [`SoftCacheConfig::spatial_only`],
//! [`SoftCacheConfig::simplified_assoc`], plus builder methods for sweeps
//! over virtual line size, cache size, associativity and latency.
//!
//! # Example
//!
//! ```
//! use sac_core::{SoftCache, SoftCacheConfig, SoftPolicy};
//! use sac_simcache::CacheSim;
//! use sac_trace::Access;
//!
//! let cfg = SoftCacheConfig::soft();
//! let mut cache = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
//! // A spatial-tagged miss pulls in a 64-byte virtual line (2 physical
//! // lines): the next line hits.
//! cache.access(&Access::read(0).with_spatial(true));
//! cache.access(&Access::read(32).with_spatial(true));
//! assert_eq!(cache.metrics().misses, 1);
//! assert_eq!(cache.metrics().main_hits, 1);
//! ```

#![warn(missing_docs)]

mod assist;
mod config;
mod engine;
mod fillbuf;
mod vline;

pub use assist::{AssistCache, AssistPolicy};
pub use config::{Replacement, SoftCacheConfig};
pub use engine::{SoftCache, SoftPolicy};
pub use fillbuf::{FillBuffer, FillSlot};
pub use vline::virtual_block;
