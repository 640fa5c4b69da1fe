//! Tagged memory-reference traces for the software-assisted cache study.
//!
//! This crate is the lowest substrate of the reproduction of Temam & Drach,
//! *Software Assistance for Data Caches* (HPCA 1995). The paper's cache
//! mechanisms are driven entirely by a stream of *tagged* memory references:
//! each load/store carries a one-bit **temporal** hint and a one-bit
//! **spatial** hint inserted by the compiler, plus the issue-time gap to the
//! previous reference (the paper records the gap in the trace so repeated
//! simulations are identical).
//!
//! The crate provides:
//!
//! * [`Access`] / [`Trace`] — the trace entry and container types,
//! * [`GapModel`] — the inter-reference time distribution of the paper's
//!   Figure 4b, sampled with a seeded RNG at trace-generation time,
//! * [`stats`] — the trace-analysis passes behind the paper's Figures 1a
//!   (reuse-distance distribution), 1b (vector lengths of reference streams)
//!   and 4a (tag fractions).
//!
//! # Example
//!
//! ```
//! use sac_trace::{Access, AccessKind, Trace};
//!
//! let mut trace = Trace::new("demo");
//! trace.push(Access::read(0x1000).with_spatial(true));
//! trace.push(Access::write(0x1000).with_temporal(true));
//! assert_eq!(trace.len(), 2);
//! assert!(trace.iter().any(|a| a.temporal()));
//! ```

#![warn(missing_docs)]

mod access;
mod gaps;
mod trace;

pub mod io;
pub mod rng;
pub mod stats;

pub use access::{Access, AccessKind, MAX_CPUS, WORD_BYTES};
pub use gaps::GapModel;
pub use trace::{interleave_round_robin, Trace};
