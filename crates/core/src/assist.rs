//! An HP PA-7200-style *assist cache* (§5 related work).
//!
//! The design the authors discovered after submission: a small
//! fully-associative FIFO buffer placed **before** the main cache. Every
//! miss fills the assist cache first; a line leaving it is promoted into
//! the main cache only if it showed temporal locality — non-temporal
//! (spatial-only) data flows through the assist cache and never pollutes
//! the main array. The HP-7200 probes both arrays in the same cycle
//! (170 MHz circuitry), so assist hits cost 1 cycle, unlike the paper's
//! 3-cycle bounce-back cache.
//!
//! The HP design carries a per-line *spatial-only* (i.e. non-temporal)
//! bit: a line marked spatial-only flows through the assist cache and is
//! never promoted, while everything else — including untagged data, which
//! gets the benefit of the doubt — moves into the main cache on eviction.
//! We set the marker from the same software tags the bounce-back cache
//! uses (`spatial && !temporal`), which makes the two designs directly
//! comparable (`figures::ext_related_designs`). Differences from the
//! bounce-back cache: the filter sits in *front*, promotion happens once
//! per residency (no bouncing), and there is no virtual-line mechanism.

use sac_obs::{AuxSource, Event, NoopProbe, Probe};
use sac_simcache::{
    CacheEngine, CacheGeometry, CachePolicy, Entry, LaneSet, MemorySystem, TagArray, WbStall,
    MAIN_HIT_CYCLES,
};
use sac_trace::Access;

/// The assist-cache policy: a fully-associative FIFO filter probed in
/// parallel with the main array, run by the shared [`CacheEngine`] as
/// the [`AssistCache`] organization.
#[derive(Debug, Clone)]
pub struct AssistPolicy {
    geom: CacheGeometry,
    main: TagArray,
    assist: TagArray,
    /// FIFO order: insertion stamps (the LRU field is not touched on
    /// hits, making the replacement FIFO as in the HP design).
    fifo_clock: u64,
}

impl AssistPolicy {
    /// Creates the policy state: `geom` main array plus `assist_lines`
    /// fully-associative assist lines.
    ///
    /// # Panics
    ///
    /// Panics if `assist_lines` is zero.
    pub fn new(geom: CacheGeometry, assist_lines: u32) -> Self {
        assert!(assist_lines > 0, "assist cache needs at least one line");
        let ls = geom.line_bytes();
        let assist = TagArray::new(CacheGeometry::new(
            assist_lines as u64 * ls,
            ls,
            assist_lines,
        ));
        AssistPolicy {
            geom,
            main: TagArray::new(geom),
            assist,
            fifo_clock: 0,
        }
    }

    fn discard<P: Probe, L: LaneSet>(
        &mut self,
        sys: &mut MemorySystem<L>,
        probe: &mut P,
        entry: Entry,
    ) {
        if entry.valid && entry.dirty {
            if P::ENABLED {
                probe.on_event(&Event::Writeback { line: entry.line });
            }
            sys.writeback(entry.line, WbStall::Booked);
        }
    }

    /// Inserts a line, stamped with its insertion order, into the assist
    /// cache; the FIFO evictee (smallest insertion stamp, invalid ways
    /// first) is promoted to the main cache unless it is marked
    /// spatial-only (the `prefetched` field doubles as the HP
    /// spatial-only bit here).
    fn assist_insert<P: Probe, L: LaneSet>(
        &mut self,
        sys: &mut MemorySystem<L>,
        probe: &mut P,
        entry: Entry,
    ) {
        let line = entry.line;
        let way = self.assist.victim_way(line);
        let evicted = self.assist.install(line, way, entry);
        // install() refreshes lru; keep the FIFO insertion stamp.
        self.assist.entry_mut(line, way).lru = entry.lru;
        if !evicted.valid {
            return;
        }
        if !evicted.prefetched {
            // Promote into the main cache (hidden under the miss).
            let way = self.main.victim_way(evicted.line);
            let displaced = self.main.install(evicted.line, way, evicted);
            if P::ENABLED && displaced.valid {
                probe.on_event(&Event::MainEvict {
                    line: displaced.line,
                    dirty: displaced.dirty,
                });
            }
            self.discard(sys, probe, displaced)
        } else {
            self.discard(sys, probe, evicted)
        }
    }
}

impl<P: Probe> CachePolicy<P> for AssistPolicy {
    #[inline]
    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn probe_main(&mut self, line: u64) -> Option<usize> {
        self.main.probe(line)
    }

    #[inline]
    fn touch_hit(&mut self, idx: usize, a: &Access) {
        let e = self.main.entry_at_mut(idx);
        if a.kind().is_write() {
            e.dirty = true;
        }
        if a.temporal() {
            e.temporal = true;
        }
    }

    fn miss<L: LaneSet>(
        &mut self,
        sys: &mut MemorySystem<L>,
        probe: &mut P,
        line: u64,
        a: &Access,
    ) {
        if let Some(idx) = self.assist.peek(line) {
            // Both arrays are probed in parallel: 1 cycle. FIFO
            // replacement: the hit does not refresh the stamp.
            let e = self.assist.entry_at_mut(idx);
            if a.kind().is_write() {
                e.dirty = true;
            }
            if a.temporal() {
                e.temporal = true;
                e.prefetched = false; // temporal evidence clears the marker
            }
            sys.metrics_mut().aux_hits += 1;
            if P::ENABLED {
                probe.on_event(&Event::AuxHit {
                    line,
                    source: AuxSource::Assist,
                });
            }
            sys.spend(MAIN_HIT_CYCLES);
            return;
        }
        sys.metrics_mut().misses += 1;
        sys.fetch(1);
        if P::ENABLED {
            probe.on_event(&Event::Miss {
                line,
                set: self.geom.set_of_line(line),
                is_write: a.kind().is_write(),
                victim: None,
            });
            probe.on_event(&Event::LineFill { line, demand: true });
        }
        self.fifo_clock += 1;
        let entry = Entry {
            line,
            valid: true,
            dirty: a.kind().is_write(),
            temporal: a.temporal(),
            // The HP spatial-only marker: tagged streaming data.
            prefetched: a.spatial() && !a.temporal(),
            lru: self.fifo_clock,
        };
        self.assist_insert(sys, probe, entry);
    }

    fn flush(&mut self) -> u64 {
        self.main.invalidate_all() + self.assist.invalidate_all()
    }
}

/// The assist-cache organization: [`AssistPolicy`] run by the shared
/// [`CacheEngine`]. The paper-comparable configuration is the standard
/// geometry with 16 assist lines (the HP's 64 × 32 B scaled to our 8 KB
/// cache).
///
/// ```
/// use sac_core::{AssistCache, AssistPolicy};
/// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel};
/// use sac_trace::Access;
///
/// let policy = AssistPolicy::new(CacheGeometry::standard(), 16);
/// let mut c = AssistCache::new(policy, MemoryModel::default());
/// c.access(&Access::read(0).with_temporal(true)); // fills the assist cache
/// c.access(&Access::read(0));                     // assist hit: 1 cycle
/// assert_eq!(c.metrics().aux_hits, 1);
/// ```
pub type AssistCache<P = NoopProbe> = CacheEngine<AssistPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use sac_simcache::{CacheSim, MemoryModel};

    fn small(lines: u32) -> AssistCache {
        AssistCache::new(
            AssistPolicy::new(CacheGeometry::new(128, 32, 1), lines),
            MemoryModel::default(),
        )
    }

    fn read(line: u64) -> Access {
        Access::read(line * 32)
    }

    #[test]
    fn misses_fill_the_assist_cache_first() {
        let mut c = small(2);
        c.access(&read(0));
        c.access(&read(0));
        let m = c.metrics();
        assert_eq!(m.misses, 1);
        assert_eq!(m.aux_hits, 1, "line still in the assist cache");
        assert_eq!(m.main_hits, 0);
    }

    #[test]
    fn temporal_lines_promote_to_main() {
        let mut c = small(2);
        c.access(&read(0).with_temporal(true));
        c.access(&read(1)); // assist {0t, 1}
        c.access(&read(2)); // FIFO evicts 0 → promoted to main
        let before = c.metrics().main_hits;
        c.access(&read(0));
        assert_eq!(c.metrics().main_hits, before + 1);
    }

    #[test]
    fn untagged_lines_promote_by_default() {
        // No compiler information: the HP design gives the line the
        // benefit of the doubt.
        let mut c = small(2);
        c.access(&read(0));
        c.access(&read(1));
        c.access(&read(2)); // evicts 0 → promoted
        let before = c.metrics().main_hits;
        c.access(&read(0));
        assert_eq!(c.metrics().main_hits, before + 1);
    }

    #[test]
    fn spatial_only_lines_never_pollute_main() {
        let mut c = small(2);
        c.access(&read(0).with_spatial(true)); // marked spatial-only
        c.access(&read(1));
        c.access(&read(2)); // evicts 0 → discarded
        let misses = c.metrics().misses;
        c.access(&read(0));
        assert_eq!(c.metrics().misses, misses + 1, "line 0 was dropped");
    }

    #[test]
    fn temporal_evidence_clears_the_marker() {
        let mut c = small(2);
        c.access(&read(0).with_spatial(true)); // marked spatial-only
        c.access(&read(0).with_temporal(true)); // re-touched as temporal
        c.access(&read(1));
        c.access(&read(2)); // evicts 0 → promoted after all
        let before = c.metrics().main_hits;
        c.access(&read(0));
        assert_eq!(c.metrics().main_hits, before + 1);
    }

    #[test]
    fn fifo_not_lru() {
        let mut c = small(2);
        c.access(&read(0));
        c.access(&read(1));
        c.access(&read(0)); // assist hit must NOT refresh the FIFO stamp
        c.access(&read(2)); // evicts 0 (oldest insertion), not 1
        let misses = c.metrics().misses;
        c.access(&read(1));
        assert_eq!(c.metrics().misses, misses, "line 1 survived");
    }

    #[test]
    fn dirty_spatial_only_discards_write_back() {
        let mut c = small(1);
        c.access(&Access::write(0).with_spatial(true));
        c.access(&read(1)); // evicts dirty spatial-only 0 → write buffer
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn assist_hits_cost_one_cycle() {
        let mut c = small(2);
        c.access(&read(0));
        let before = c.metrics().mem_cycles;
        c.access(&read(0));
        assert_eq!(c.metrics().mem_cycles - before, 1);
    }
}
