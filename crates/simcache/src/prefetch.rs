//! A classic hardware next-line prefetcher (the Figure 12
//! `Stand.+Prefetching` baseline).

use crate::{
    CacheEngine, CacheGeometry, CachePolicy, LaneSet, MemorySystem, StandardPolicy, WbStall,
    AUX_HIT_CYCLES,
};
use sac_obs::{AuxSource, Event, NoopProbe, Probe};
use sac_trace::Access;

#[derive(Debug, Clone, Copy)]
struct PrefetchSlot {
    line: u64,
    ready_at: u64,
    lru: u64,
    valid: bool,
}

/// The next-line prefetch policy: a [`StandardPolicy`] main array plus
/// an N-entry prefetch buffer, run by the shared [`CacheEngine`]. Every
/// demand miss on line `L` also fetches `L+1` into the buffer
/// (prefetch-on-miss); a buffer hit promotes the line into the main
/// cache.
#[derive(Debug, Clone)]
pub struct PrefetchPolicy {
    main: StandardPolicy,
    buffer: Vec<PrefetchSlot>,
    lru_clock: u64,
}

impl PrefetchPolicy {
    /// Creates the policy state with a `buffer_lines`-entry buffer.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_lines` is zero.
    pub fn new(geom: CacheGeometry, buffer_lines: u32) -> Self {
        assert!(buffer_lines > 0, "prefetch buffer needs at least one line");
        PrefetchPolicy {
            main: StandardPolicy::new(geom),
            buffer: vec![
                PrefetchSlot {
                    line: 0,
                    ready_at: 0,
                    lru: 0,
                    valid: false
                };
                buffer_lines as usize
            ],
            lru_clock: 0,
        }
    }

    fn buffer_find(&self, line: u64) -> Option<usize> {
        self.buffer.iter().position(|s| s.valid && s.line == line)
    }

    fn issue_prefetch<P: Probe, L: LaneSet>(
        &mut self,
        sys: &mut MemorySystem<L>,
        probe: &mut P,
        line: u64,
        ready_at: u64,
    ) {
        if self.main.tags.peek(line).is_some() || self.buffer_find(line).is_some() {
            return;
        }
        sys.metrics_mut().prefetches += 1;
        sys.record_fetch_traffic(1);
        if P::ENABLED {
            probe.on_event(&Event::PrefetchIssue { line });
        }
        self.lru_clock += 1;
        let slot = self
            .buffer
            .iter()
            .position(|s| !s.valid)
            .unwrap_or_else(|| {
                self.buffer
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty buffer")
            });
        self.buffer[slot] = PrefetchSlot {
            line,
            ready_at,
            lru: self.lru_clock,
            valid: true,
        };
    }

    fn promote<P: Probe, L: LaneSet>(
        &mut self,
        sys: &mut MemorySystem<L>,
        probe: &mut P,
        slot: usize,
        a: &Access,
    ) {
        let line = self.buffer[slot].line;
        let ready_at = self.buffer[slot].ready_at;
        self.buffer[slot].valid = false;
        // 3 cycles to access the buffer, plus any residual fetch latency.
        sys.spend(AUX_HIT_CYCLES.max(ready_at.saturating_sub(sys.now())));
        // The write-back stall is charged to the access, not booked as
        // processor stall: it hides under the fetch.
        let (_, old) = self
            .main
            .fill_lru(sys, line, a.kind().is_write(), WbStall::Unbooked);
        if P::ENABLED && old.valid {
            probe.on_event(&Event::MainEvict {
                line: old.line,
                dirty: old.dirty,
            });
            if old.dirty {
                probe.on_event(&Event::Writeback { line: old.line });
            }
        }
    }
}

impl<P: Probe> CachePolicy<P> for PrefetchPolicy {
    #[inline]
    fn geometry(&self) -> CacheGeometry {
        CachePolicy::<P>::geometry(&self.main)
    }

    #[inline]
    fn probe_main(&mut self, line: u64) -> Option<usize> {
        CachePolicy::<P>::probe_main(&mut self.main, line)
    }

    #[inline]
    fn touch_hit(&mut self, idx: usize, a: &Access) {
        CachePolicy::<P>::touch_hit(&mut self.main, idx, a);
    }

    fn miss<L: LaneSet>(
        &mut self,
        sys: &mut MemorySystem<L>,
        probe: &mut P,
        line: u64,
        a: &Access,
    ) {
        if let Some(slot) = self.buffer_find(line) {
            sys.metrics_mut().aux_hits += 1;
            sys.metrics_mut().useful_prefetches += 1;
            if P::ENABLED {
                probe.on_event(&Event::AuxHit {
                    line,
                    source: AuxSource::PrefetchBuffer,
                });
                probe.on_event(&Event::PrefetchUse { line });
            }
            self.promote(sys, probe, slot, a);
            // Classic prefetch-on-miss: buffer hits do not re-arm the
            // prefetcher (the software-assisted design's *progressive*
            // prefetch, which does re-arm, is its advantage — §4.4).
            return;
        }
        self.main.miss(sys, probe, line, a);
        // Prefetch the next line, queued behind the demand fetch.
        let ready = sys.now() + sys.access_cost() + sys.line_transfer_cycles();
        self.issue_prefetch(sys, probe, line + 1, ready);
    }

    fn flush(&mut self) -> u64 {
        for slot in &mut self.buffer {
            slot.valid = false;
        }
        CachePolicy::<P>::flush(&mut self.main)
    }

    fn prefetches(&self) -> bool {
        true
    }
}

/// A standard cache plus an N-entry prefetch buffer: every demand miss on
/// line `L` also fetches `L+1` into the buffer (prefetch-on-miss); a
/// buffer hit promotes the line into the main cache. Prefetches that
/// arrive after they are demanded stall for the residual latency.
///
/// The paper cites the two flaws of such tag-blind hardware prefetching:
/// wrong predictions and additional memory traffic — both are visible in
/// this engine's [`crate::Metrics`] (`prefetches` vs `useful_prefetches`,
/// `words_fetched`). This is [`PrefetchPolicy`] run by the shared
/// [`CacheEngine`]; attach an observer with [`CacheEngine::with_probe`].
///
/// ```
/// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, NextLinePrefetchCache, PrefetchPolicy};
/// use sac_trace::Access;
///
/// let policy = PrefetchPolicy::new(CacheGeometry::standard(), 8);
/// let mut c = NextLinePrefetchCache::new(policy, MemoryModel::default());
/// c.access(&Access::read(0));                 // miss, prefetches line 1
/// c.access(&Access::read(32).with_gap(100));  // prefetch-buffer hit
/// assert_eq!(c.metrics().useful_prefetches, 1);
/// ```
pub type NextLinePrefetchCache<P = NoopProbe> = CacheEngine<PrefetchPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, MemoryModel};
    use sac_trace::Trace;

    fn small() -> NextLinePrefetchCache {
        NextLinePrefetchCache::new(
            PrefetchPolicy::new(CacheGeometry::new(128, 32, 1), 2),
            MemoryModel::default(),
        )
    }

    #[test]
    fn sequential_stream_alternates_miss_and_buffer_hit() {
        // Prefetch-on-miss without re-arming halves the misses of a
        // sequential stream.
        let mut c = small();
        let trace: Trace = (0..16u64)
            .map(|i| Access::read(i * 32).with_gap(200))
            .collect();
        c.run(&trace);
        let m = c.metrics();
        assert_eq!(m.misses, 8);
        assert_eq!(m.useful_prefetches, 8);
    }

    #[test]
    fn immediate_demand_is_still_cheaper_than_a_miss() {
        // The prefetched line becomes ready 2 bus cycles after the demand
        // miss completes, so even an immediate demand pays at most the
        // 3-cycle buffer access (the residual is covered by it).
        let mut c = small();
        c.access(&Access::read(0)); // miss, prefetches line 1
        let before = c.metrics().mem_cycles;
        c.access(&Access::read(32).with_gap(1)); // demanded immediately
        let cost = c.metrics().mem_cycles - before;
        assert!(
            (AUX_HIT_CYCLES..22).contains(&cost),
            "cost {cost} should be between a buffer hit and a full miss"
        );
    }

    #[test]
    fn wrong_prediction_wastes_traffic() {
        let mut c = small();
        // Random-ish strided accesses: prefetches are never used.
        for i in 0..8u64 {
            c.access(&Access::read(i * 4096).with_gap(100));
        }
        let m = c.metrics();
        assert_eq!(m.useful_prefetches, 0);
        assert!(m.prefetches > 0);
        assert!(m.words_fetched > m.misses * 4);
    }

    #[test]
    fn prefetch_not_issued_when_line_already_cached() {
        let mut c = small();
        c.access(&Access::read(32)); // line 1 cached
        c.access(&Access::read(0).with_gap(100)); // miss; next line is 1 → no prefetch beyond the first
        let m = c.metrics();
        // First access prefetched line 2; second found line 1 cached.
        assert_eq!(m.prefetches, 1);
    }

    #[test]
    fn buffer_eviction_is_lru() {
        let mut c = small();
        // Fill buffer with prefetches for lines 1 and 101, then line 201;
        // line 1's slot is the LRU one and gets replaced.
        c.access(&Access::read(0).with_gap(100));
        c.access(&Access::read(100 * 32).with_gap(100));
        c.access(&Access::read(200 * 32).with_gap(100));
        c.access(&Access::read(32).with_gap(100)); // line 1 gone → miss
        assert_eq!(c.metrics().misses, 4);
    }
}
