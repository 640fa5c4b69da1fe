//! The Standard baseline: a plain write-back, write-allocate LRU cache.

use crate::{CacheEngine, CacheGeometry, CachePolicy, Entry, MemorySystem, TagArray, WbStall};
use sac_obs::{Event, NoopProbe, Probe, Victim};
use sac_trace::Access;

/// The policy of the paper's *Standard* cache: a bare LRU tag array over
/// the shared memory system. On a miss it fetches one line, fills it and
/// writes back the dirty victim.
///
/// Every "Standard plus one structure" baseline — bypassing, next-line
/// prefetching, stream buffers, the victim cache — holds one of these as
/// its main array, and so does each core of the [`crate::CoherentSystem`].
#[derive(Debug, Clone)]
pub struct StandardPolicy {
    pub(crate) geom: CacheGeometry,
    pub(crate) tags: TagArray,
}

impl StandardPolicy {
    /// Creates the policy state for `geom`.
    pub fn new(geom: CacheGeometry) -> Self {
        StandardPolicy {
            geom,
            tags: TagArray::new(geom),
        }
    }

    /// The one LRU fill: puts `line` in its set's LRU way and sends a
    /// dirty victim to the write buffer, its stall accounted as `stall`
    /// says (the organizations differ on whether write-buffer pressure
    /// hides under the miss). Returns the filled way and the displaced
    /// entry; events are the caller's.
    ///
    /// Always inlined, like [`Self::demand_fill`]: as calls they cost
    /// the miss paths built on them a few percent.
    #[inline(always)]
    pub(crate) fn fill_lru(
        &mut self,
        sys: &mut MemorySystem,
        line: u64,
        dirty: bool,
        stall: WbStall,
    ) -> (usize, Entry) {
        let way = self.tags.victim_way(line);
        let old = self.tags.fill(line, way, dirty);
        if old.valid && old.dirty {
            sys.writeback(old.line, stall);
        }
        (way, old)
    }

    /// The demand fill that ends every Standard miss: [`Self::fill_lru`]
    /// with the `Miss`/`LineFill`/`Writeback` events; the 2-cycle
    /// transfer hides under the miss penalty, only write-buffer pressure
    /// shows up as stall. The caller has counted the miss and reported
    /// the fetch. Returns the filled way.
    #[inline(always)]
    pub(crate) fn demand_fill<P: Probe>(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        line: u64,
        is_write: bool,
    ) -> usize {
        let (way, old) = self.fill_lru(sys, line, is_write, WbStall::Booked);
        if P::ENABLED {
            let victim = old.valid.then_some(Victim {
                line: old.line,
                dirty: old.dirty,
            });
            probe.on_event(&Event::Miss {
                line,
                set: self.geom.set_of_line(line),
                is_write,
                victim,
            });
            probe.on_event(&Event::LineFill { line, demand: true });
            if old.valid && old.dirty {
                probe.on_event(&Event::Writeback { line: old.line });
            }
        }
        way
    }
}

impl<P: Probe> CachePolicy<P> for StandardPolicy {
    #[inline]
    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn probe_main(&mut self, line: u64) -> Option<usize> {
        self.tags.probe(line)
    }

    #[inline]
    fn touch_hit(&mut self, idx: usize, a: &Access) {
        if a.kind().is_write() {
            self.tags.entry_at_mut(idx).dirty = true;
        }
    }

    fn miss(&mut self, sys: &mut MemorySystem, probe: &mut P, line: u64, a: &Access) {
        sys.metrics_mut().misses += 1;
        sys.fetch(1);
        self.demand_fill(sys, probe, line, a.kind().is_write());
    }

    fn flush(&mut self) -> u64 {
        self.tags.invalidate_all()
    }
}

/// The paper's *Standard* cache (and, with other geometries, every plain
/// set-associative configuration of Figures 8b, 9a and 9b).
///
/// Write-back, write-allocate, LRU replacement, a write buffer for dirty
/// victims. Ignores the software tags entirely. This is
/// [`StandardPolicy`] run by the shared [`CacheEngine`].
///
/// The engine is generic over an observer probe (defaulting to the
/// disabled [`NoopProbe`], which monomorphizes to the unprobed code —
/// see [`Probe`]); attach one with [`CacheEngine::with_probe`].
///
/// ```
/// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, StandardCache, StandardPolicy};
/// use sac_trace::Access;
///
/// let policy = StandardPolicy::new(CacheGeometry::standard());
/// let mut c = StandardCache::new(policy, MemoryModel::default());
/// c.access(&Access::read(0));        // miss: 20 + 2 cycles
/// c.access(&Access::read(8));        // hit in the same line: 1 cycle
/// assert_eq!(c.metrics().mem_cycles, 23);
/// ```
pub type StandardCache<P = NoopProbe> = CacheEngine<StandardPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, MemoryModel};
    use sac_trace::Trace;

    fn small() -> StandardCache {
        // 4 lines of 32 B, direct-mapped; 20-cycle latency, 16 B bus.
        StandardCache::new(
            StandardPolicy::new(CacheGeometry::new(128, 32, 1)),
            MemoryModel::default(),
        )
    }

    #[test]
    fn cold_miss_then_hits_within_line() {
        let mut c = small();
        c.access(&Access::read(0));
        c.access(&Access::read(8));
        c.access(&Access::read(24));
        let m = c.metrics();
        assert_eq!(m.misses, 1);
        assert_eq!(m.main_hits, 2);
        assert_eq!(m.mem_cycles, 22 + 1 + 1);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = small();
        // Lines 0 and 4 conflict (4 sets).
        for _ in 0..3 {
            c.access(&Access::read(0));
            c.access(&Access::read(4 * 32));
        }
        assert_eq!(c.metrics().misses, 6);
    }

    #[test]
    fn associativity_removes_conflicts() {
        let geom = CacheGeometry::new(128, 32, 2);
        let mut c = StandardCache::new(StandardPolicy::new(geom), MemoryModel::default());
        for _ in 0..3 {
            c.access(&Access::read(0));
            c.access(&Access::read(2 * 32)); // same set in 2-set cache
        }
        assert_eq!(c.metrics().misses, 2);
        assert_eq!(c.metrics().main_hits, 4);
    }

    #[test]
    fn write_allocate_marks_dirty_and_writes_back() {
        let mut c = small();
        c.access(&Access::write(0)); // allocate dirty
        c.access(&Access::read(4 * 32)); // evicts dirty line 0
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(&Access::read(0));
        c.access(&Access::write(8));
        c.access(&Access::read(4 * 32));
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn clean_eviction_does_not_write_back() {
        let mut c = small();
        c.access(&Access::read(0));
        c.access(&Access::read(4 * 32));
        assert_eq!(c.metrics().writebacks, 0);
    }

    #[test]
    fn amat_of_pure_miss_stream() {
        let mut c = small();
        // Strided so every access misses: 4-set cache, stride = one set's
        // worth so each access maps to a new line.
        let trace: Trace = (0..100u64).map(|i| Access::read(i * 128 * 8)).collect();
        c.run(&trace);
        assert_eq!(c.metrics().misses, 100);
        assert!(
            (c.metrics().amat() - 22.0).abs() < 0.5,
            "write-buffer noise only"
        );
    }

    #[test]
    fn chunked_replay_matches_per_access_replay() {
        let trace: Trace = (0..1000u64)
            .map(|i| {
                let a = if i % 7 == 0 {
                    Access::write(i * 40)
                } else {
                    Access::read((i % 13) * 32)
                };
                a.with_gap((i % 5) as u32)
            })
            .collect();
        let mut per_access = small();
        for a in &trace {
            per_access.access(a);
        }
        let mut chunked = small();
        for chunk in trace.as_slice().chunks(64) {
            chunked.run_chunk(chunk);
        }
        assert_eq!(per_access.metrics(), chunked.metrics());
    }

    #[test]
    fn traffic_counts_words_per_line() {
        let mut c = small();
        c.access(&Access::read(0));
        assert_eq!(c.metrics().words_fetched, 4);
    }

    #[test]
    fn metrics_invariants_hold_throughout_a_run() {
        let mut c = small();
        let trace: Trace = (0..500u64)
            .map(|i| {
                if i % 3 == 0 {
                    Access::write(i * 48)
                } else {
                    Access::read((i % 17) * 32)
                }
            })
            .collect();
        for chunk in trace.as_slice().chunks(64) {
            c.run_chunk(chunk);
            c.metrics().check_invariants().unwrap();
        }
        let m = c.metrics();
        assert_eq!(m.refs, 500);
        assert_eq!(m.refs, m.reads + m.writes);
        assert_eq!(m.main_hits + m.aux_hits + m.misses + m.bypasses, m.refs);
    }

    #[test]
    fn counting_probe_reconciles_with_metrics() {
        use sac_obs::EventCounts;
        let geom = CacheGeometry::new(128, 32, 1);
        let mut c = StandardCache::with_probe(
            StandardPolicy::new(geom),
            MemoryModel::default(),
            EventCounts::default(),
        );
        let trace: Trace = (0..300u64).map(|i| Access::read((i % 29) * 24)).collect();
        for chunk in trace.as_slice().chunks(64) {
            c.run_chunk(chunk);
        }
        c.metrics().reconcile_events(c.probe()).unwrap();
        // Every miss produces Miss + LineFill.
        assert_eq!(c.probe().line_fills, c.metrics().misses);
    }

    /// Replays 4096 references (one store in three) through an 8 KB
    /// direct-mapped cache in 1024-reference chunks, then flushes it:
    /// the flush's `Flush { writebacks }` event arrives after the last
    /// chunk fold. Returns the final counters and the probe.
    fn run_then_flush<P: sac_obs::Probe>(probe: P) -> (crate::Metrics, P) {
        let mut c = StandardCache::with_probe(
            StandardPolicy::new(CacheGeometry::standard()),
            MemoryModel::default(),
            probe,
        );
        let trace: Trace = (0..4096u64)
            .map(|i| {
                let addr = (i * 40) % 12288;
                if i % 3 == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect();
        for chunk in trace.as_slice().chunks(1024) {
            c.run_chunk(chunk);
        }
        c.invalidate_all();
        (*c.metrics(), c.into_probe())
    }

    #[test]
    fn timeline_counts_a_trailing_flush() {
        let (m, mut tl) = run_then_flush(sac_obs::Timeline::new(1024, 256));
        tl.finish();
        assert_eq!(tl.windows().len(), 4);
        m.reconcile_classified(&tl.totals().counts).unwrap();
    }

    #[test]
    fn outcome_probe_counts_a_trailing_flush() {
        let (probe, state) = sac_obs::OutcomeProbe::new(256);
        let (m, _) = run_then_flush(probe);
        state.borrow_mut().finish();
        assert_eq!(state.borrow_mut().drain_outcomes().len(), 4096);
        m.reconcile_classified(&state.borrow().totals()).unwrap();
    }

    #[test]
    fn tracing_probe_counts_match_metrics_exactly() {
        use sac_obs::{ObsConfig, TracingProbe};
        let geom = CacheGeometry::new(128, 32, 1);
        let probe = TracingProbe::new(ObsConfig::for_cache(
            geom.lines(),
            geom.sets(),
            geom.line_bytes(),
        ));
        let mut c =
            StandardCache::with_probe(StandardPolicy::new(geom), MemoryModel::default(), probe);
        let trace: Trace = (0..400u64)
            .map(|i| {
                if i % 5 == 0 {
                    Access::write(i * 64)
                } else {
                    Access::read((i % 23) * 32)
                }
            })
            .collect();
        c.run(&trace);
        c.invalidate_all();
        c.probe_mut().finish();
        let m = *c.metrics();
        m.reconcile_classified(c.into_probe().counts()).unwrap();
    }

    #[test]
    fn tags_are_ignored_by_standard_cache() {
        let mut c = small();
        c.access(&Access::read(0).with_temporal(true).with_spatial(true));
        // Spatial tag does not trigger a multi-line fill here.
        assert_eq!(c.metrics().lines_fetched, 1);
    }
}
