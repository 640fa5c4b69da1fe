//! Probe-based simulation telemetry.
//!
//! This crate defines the observation layer of the simulator: a
//! [`Probe`] trait the cache engines are generic over, the typed
//! [`Event`]s they emit at exactly their `Metrics`-bump sites, and the
//! aggregating [`TracingProbe`] that turns the event stream into
//! *explanations* — 3C miss-cause splits ([`ShadowClassifier`]),
//! per-set conflict heatmaps ([`SetHeatmap`]), virtual-line
//! word-utilization ([`WordUse`]), bounce-back residency and reuse- and
//! miss-interval histograms ([`Log2Histogram`]), plus a bounded
//! sampling ring of raw events ([`EventRing`]) exported as JSONL.
//!
//! The default probe is [`NoopProbe`]: its hooks are empty
//! `#[inline(always)]` bodies guarded by a `const ENABLED = false`
//! flag, so an unprobed engine monomorphizes to exactly its pre-probe
//! code — zero cost on the simulation fast path, byte-identical figure
//! output.
//!
//! Beyond per-cell telemetry, the crate carries the run-level
//! observability layer (DESIGN.md §13): [`Timeline`], a probe folding
//! the event stream into fixed-width reference windows (miss rate,
//! AMAT contribution, 3C mix per window) with online phase detection,
//! whose window sums reconcile *exactly* against the engine's global
//! metrics; [`span`], pipeline span values with Chrome-trace (Perfetto)
//! export in wall and byte-deterministic logical modes; and
//! [`registry`], a value of named counters, gauges and histograms for
//! end-of-run snapshots, plus a step-gated progress counter. The crate
//! holds no process-global state: the sweep runner in `sac-experiments`
//! owns each run's spans and registry and hands them to its workers.
//!
//! The differential layer (DESIGN.md §15) compares two configurations
//! replaying the same trace in lockstep: [`OutcomeProbe`] folds each
//! side's event stream into one per-reference outcome record
//! ([`RefOutcome`]), and [`LineLifetime`] shadows main-array residency
//! (fill→evict intervals, reuse counts, dead time) so a divergence can
//! be tied to the lines whose lifetimes changed. The comparison and
//! mechanism attribution live in `sac-experiments`.
//!
//! The crate deliberately depends only on `sac-trace` (for the word
//! size): engines pass plain line/set/address numbers, so `sac-obs`
//! sits below both engine crates without cycles.

#![warn(missing_docs)]

mod classify;
mod counts;
mod diff;
mod event;
mod hist;
mod lifetime;
mod probe;
pub mod registry;
mod ring;
pub mod span;
mod timeline;
mod tracing;

/// Version stamped into every JSONL export of this crate (obs, timeline
/// and diff streams). Bump it whenever a field is added, removed or
/// renamed, so downstream parsers fail loudly on format drift instead of
/// silently misreading.
pub const SCHEMA_VERSION: u32 = 3;

pub use classify::{ShadowClassifier, ShadowOutcome};
pub use counts::EventCounts;
pub use diff::{OutcomeClass, OutcomeProbe, RefOutcome, SideState};
pub use event::{AuxSource, CoherenceOp, Event, MissCause, Victim};
pub use hist::{Log2Histogram, SetHeatmap, WordUse};
pub use lifetime::{FillOrigin, LifetimeSummary, LineLifetime, LineStats};
pub use probe::{NoopProbe, Probe};
pub use registry::{MetricsRegistry, ProgressGauge};
pub use ring::{EventRing, TimedEvent};
pub use span::json_escape;
pub use timeline::{
    Phase, Timeline, Window, WindowDelta, DEFAULT_PHASE_THRESHOLD, DEFAULT_WINDOW_REFS,
};
pub use tracing::{ObsConfig, TracingProbe};
