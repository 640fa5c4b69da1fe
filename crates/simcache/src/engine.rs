//! The engine trait shared by every cache organization.

use crate::Metrics;
use sac_trace::{Access, Trace};

/// A trace-driven cache simulator.
///
/// Engines consume references one at a time, maintain their own cycle
/// clock (advanced by each access's issue gap), and accumulate
/// [`Metrics`]. The blanket [`CacheSim::run`] drives a whole [`Trace`].
///
/// ```
/// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, StandardCache, StandardPolicy};
/// use sac_trace::{Access, Trace};
///
/// let trace: Trace = [Access::read(0), Access::read(0)].into_iter().collect();
/// let policy = StandardPolicy::new(CacheGeometry::standard());
/// let mut sim = StandardCache::new(policy, MemoryModel::default());
/// sim.run(&trace);
/// assert_eq!(sim.metrics().main_hits, 1);
/// assert_eq!(sim.metrics().misses, 1);
/// ```
pub trait CacheSim {
    /// Processes one reference: the single-step reference that
    /// [`CacheSim::run_chunk`] is tested against. Replay goes through
    /// `run_chunk`.
    fn access(&mut self, a: &Access);

    /// The metrics accumulated so far.
    fn metrics(&self) -> &Metrics;

    /// Invalidates all cached state (models a context switch or an
    /// external invalidation); dirty lines are written back through the
    /// metrics' write-back counter. Engines without extra state only
    /// clear their main array.
    fn invalidate_all(&mut self);

    /// Drives a contiguous slice of references through the simulator —
    /// the unit of work of the batched replay engine, which decodes a
    /// trace chunk once and feeds it to many engines while it is hot in
    /// cache. Main-cache hits bump a compact [`crate::ChunkDelta`] that
    /// is merged into [`Metrics`] at the chunk boundary, so the counters
    /// after the call are exactly those of per-access replay.
    fn run_chunk(&mut self, chunk: &[Access]);

    /// Drives an entire trace through the simulator.
    fn run(&mut self, trace: &Trace) {
        self.run_chunk(trace.as_slice());
    }

    /// The metrics of every timing lane, in lane order: one entry for a
    /// single-config engine; one per latency for a lane engine
    /// ([`crate::Lanes`]), `None` where a lane diverged from the
    /// reference lane and needs a solo replay.
    fn lane_metrics(&self) -> Vec<Option<Metrics>>;

    /// Drives a trace, invalidating everything every `quantum`
    /// references — the cold-cache cost of context switches.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    fn run_with_context_switches(&mut self, trace: &Trace, quantum: usize) {
        assert!(quantum > 0, "quantum must be positive");
        for (i, slice) in trace.as_slice().chunks(quantum).enumerate() {
            if i > 0 {
                self.invalidate_all();
            }
            self.run_chunk(slice);
        }
    }
}

/// A [`CacheSim`] with a probe attached that can be taken back after
/// the run — what `Config::build_probed` returns, so one constructor
/// serves callers that drive the engine boxed and callers that need the
/// probe afterwards.
pub trait ProbedSim<P>: CacheSim {
    /// Consumes the engine and returns its probe.
    fn into_probe(self: Box<Self>) -> P;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheGeometry, MemoryModel, StandardCache, StandardPolicy};

    #[test]
    fn invalidate_all_forces_cold_restart() {
        let mut sim = StandardCache::new(
            StandardPolicy::new(CacheGeometry::standard()),
            MemoryModel::default(),
        );
        sim.access(&sac_trace::Access::write(0));
        sim.access(&sac_trace::Access::read(0));
        assert_eq!(sim.metrics().main_hits, 1);
        sim.invalidate_all();
        assert_eq!(sim.metrics().writebacks, 1, "dirty line written back");
        sim.access(&sac_trace::Access::read(0));
        assert_eq!(sim.metrics().misses, 2, "cold again after the flush");
    }

    #[test]
    fn context_switch_quanta_split_the_run() {
        let trace: Trace = (0..100u64).map(|_| sac_trace::Access::read(0)).collect();
        let mut sim = StandardCache::new(
            StandardPolicy::new(CacheGeometry::standard()),
            MemoryModel::default(),
        );
        sim.run_with_context_switches(&trace, 25);
        // Flushes after refs 25, 50, 75: one extra miss each.
        assert_eq!(sim.metrics().misses, 4);
    }

    #[test]
    fn run_processes_every_entry() {
        let trace: Trace = (0..100u64)
            .map(|i| sac_trace::Access::read(i * 8))
            .collect();
        let mut sim = StandardCache::new(
            StandardPolicy::new(CacheGeometry::standard()),
            MemoryModel::default(),
        );
        sim.run(&trace);
        assert_eq!(sim.metrics().refs, 100);
    }
}
