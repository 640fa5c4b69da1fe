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
/// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, StandardCache};
/// use sac_trace::{Access, Trace};
///
/// let trace: Trace = [Access::read(0), Access::read(0)].into_iter().collect();
/// let mut sim = StandardCache::new(CacheGeometry::standard(), MemoryModel::default());
/// sim.run(&trace);
/// assert_eq!(sim.metrics().main_hits, 1);
/// assert_eq!(sim.metrics().misses, 1);
/// ```
pub trait CacheSim {
    /// Processes one reference.
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
    /// cache.
    ///
    /// The default implementation simply calls [`CacheSim::access`] per
    /// reference; engines with a hit fast path override it to bump a
    /// compact [`crate::ChunkDelta`] on main-cache hits and merge it into
    /// [`Metrics`] at the chunk boundary. Either way the counters after
    /// the call are exactly those of per-access replay.
    fn run_chunk(&mut self, chunk: &[Access]) {
        for a in chunk {
            self.access(a);
        }
    }

    /// Drives an entire trace through the simulator.
    fn run(&mut self, trace: &Trace) {
        self.run_chunk(trace.as_slice());
    }

    /// Drives a trace, invalidating everything every `quantum`
    /// references — the cold-cache cost of context switches.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    fn run_with_context_switches(&mut self, trace: &Trace, quantum: usize) {
        assert!(quantum > 0, "quantum must be positive");
        for (i, a) in trace.iter().enumerate() {
            if i > 0 && i % quantum == 0 {
                self.invalidate_all();
            }
            self.access(a);
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
    use crate::{CacheGeometry, MemoryModel, StandardCache};

    #[test]
    fn invalidate_all_forces_cold_restart() {
        let mut sim = StandardCache::new(CacheGeometry::standard(), MemoryModel::default());
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
        let mut sim = StandardCache::new(CacheGeometry::standard(), MemoryModel::default());
        sim.run_with_context_switches(&trace, 25);
        // Flushes after refs 25, 50, 75: one extra miss each.
        assert_eq!(sim.metrics().misses, 4);
    }

    #[test]
    fn run_processes_every_entry() {
        let trace: Trace = (0..100u64)
            .map(|i| sac_trace::Access::read(i * 8))
            .collect();
        let mut sim = StandardCache::new(CacheGeometry::standard(), MemoryModel::default());
        sim.run(&trace);
        assert_eq!(sim.metrics().refs, 100);
    }
}
