//! Experiment runners regenerating every evaluation figure of the paper.
//!
//! Each figure of Temam & Drach's evaluation is data: the cells it runs
//! (workload input × cache configuration) and the fold from their
//! results to a [`Table`] whose rows/series are the ones the paper
//! plots. Absolute values differ (our
//! workloads are structural stand-ins, see `sac-workloads`), but the
//! orderings, rough factors and crossovers are expected to match; see
//! EXPERIMENTS.md for the recorded comparison.
//!
//! [`figures::REGISTRY`] lists every figure with its id and group, and
//! each paper figure is also a `figures::figXX` function. The
//! `figures` binary prints any subset (`cargo run --release -p
//! sac-experiments --bin figures -- fig06a`), and `figures --markdown
//! summary all extensions ablations` prints EXPERIMENTS.md's tables.
//!
//! ```
//! use sac_experiments::{figures, Suite};
//!
//! let suite = Suite::small();
//! let table = figures::fig06a(&suite);
//! assert_eq!(table.columns().len(), 4); // Stand. / Temp. / Spat. / Soft.
//! ```

#![warn(missing_docs)]

mod config;
mod suite;
mod table;

pub mod cli;
pub mod coherence;
pub mod diff;
pub mod explain;
pub mod figures;
pub mod runner;
pub mod store;

pub use config::Config;
pub use runner::RunSummary;
pub use store::ResultStore;
pub use suite::Suite;
pub use table::Table;
