//! Jouppi's victim cache (the Figure 3b baseline).

use crate::{
    CacheEngine, CacheGeometry, CachePolicy, Evict, LaneSet, MemorySystem, StandardPolicy,
    TagArray, WbStall, AUX_HIT_CYCLES, SWAP_LOCK_CYCLES,
};
use sac_obs::{AuxSource, Event, NoopProbe, Probe, Victim};
use sac_trace::Access;

/// The victim-cache policy: a [`StandardPolicy`] main array backed by a
/// small fully-associative victim array, run by the shared
/// [`CacheEngine`].
///
/// A victim-cache hit is the auxiliary path of the generic miss hook: it
/// costs [`AUX_HIT_CYCLES`] and swaps the line with the conflicting main
/// line, locking both arrays [`SWAP_LOCK_CYCLES`] further cycles.
#[derive(Debug, Clone)]
pub struct VictimPolicy {
    main: StandardPolicy,
    victim: TagArray,
}

impl VictimPolicy {
    /// Creates the policy state: `geom` main array plus `victim_lines`
    /// fully-associative victim lines.
    ///
    /// # Panics
    ///
    /// Panics if `victim_lines` is zero.
    pub fn new(geom: CacheGeometry, victim_lines: u32) -> Self {
        assert!(victim_lines > 0, "victim cache needs at least one line");
        let vgeom = CacheGeometry::new(
            victim_lines as u64 * geom.line_bytes(),
            geom.line_bytes(),
            victim_lines,
        );
        VictimPolicy {
            main: StandardPolicy::new(geom),
            victim: TagArray::new(vgeom),
        }
    }
}

impl<P: Probe> CachePolicy<P> for VictimPolicy {
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
        // One pass over the fully associative victim array answers both
        // "is the line here" and "which way takes the next main victim".
        let vway = match self.victim.take_or_victim(line, Evict::Lru) {
            Ok((vway, mut ventry)) => {
                // Victim-cache hit: swap with the conflicting main line.
                sys.metrics_mut().aux_hits += 1;
                sys.metrics_mut().swaps += 1;
                if P::ENABLED {
                    probe.on_event(&Event::AuxHit {
                        line,
                        source: AuxSource::Victim,
                    });
                    probe.on_event(&Event::Swap { line });
                }
                if a.kind().is_write() {
                    ventry.dirty = true;
                }
                let way = self.main.tags.victim_way(line);
                let displaced = self.main.tags.install(line, way, ventry);
                if displaced.valid {
                    if P::ENABLED {
                        probe.on_event(&Event::MainEvict {
                            line: displaced.line,
                            dirty: displaced.dirty,
                        });
                    }
                    self.victim.install(displaced.line, vway, displaced);
                }
                sys.spend(AUX_HIT_CYCLES);
                sys.lock(SWAP_LOCK_CYCLES);
                return;
            }
            Err(vway) => vway,
        };
        // Miss in both: fetch from memory; the main victim moves to the
        // victim cache while the request is in flight.
        sys.metrics_mut().misses += 1;
        sys.fetch(1);
        let way = self.main.tags.victim_way(line);
        let displaced = self.main.tags.fill(line, way, a.kind().is_write());
        if P::ENABLED {
            let victim = displaced.valid.then_some(Victim {
                line: displaced.line,
                dirty: displaced.dirty,
            });
            probe.on_event(&Event::Miss {
                line,
                set: self.main.geom.set_of_line(line),
                is_write: a.kind().is_write(),
                victim,
            });
            probe.on_event(&Event::LineFill { line, demand: true });
        }
        if displaced.valid {
            // The victim array has one set and the fill left it alone, so
            // `vway` is still its LRU way.
            let evicted = self.victim.install(displaced.line, vway, displaced);
            if evicted.valid && evicted.dirty {
                if P::ENABLED {
                    probe.on_event(&Event::Writeback { line: evicted.line });
                }
                sys.writeback(evicted.line, WbStall::Booked);
            }
        }
    }

    fn flush(&mut self) -> u64 {
        CachePolicy::<P>::flush(&mut self.main) + self.victim.invalidate_all()
    }
}

/// A direct-mapped (or set-associative) main cache backed by a small
/// fully-associative victim cache.
///
/// Every main-cache victim is transferred to the victim cache; a hit there
/// costs 3 cycles and swaps the line with the conflicting main-cache line,
/// locking both arrays 2 further cycles (§2.2). Lines evicted from the
/// victim cache are discarded (written back first when dirty) — the
/// bounce-back mechanism of `sac-core` is exactly this design plus the
/// temporal-bit-driven bounce. This is [`VictimPolicy`] run by the shared
/// [`CacheEngine`]; attach an observer with [`CacheEngine::with_probe`].
///
/// ```
/// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, VictimCache, VictimPolicy};
/// use sac_trace::Access;
///
/// let policy = VictimPolicy::new(CacheGeometry::standard(), 8);
/// let mut c = VictimCache::new(policy, MemoryModel::default());
/// c.access(&Access::read(0));      // miss
/// c.access(&Access::read(8192));   // conflict: evicts line 0 to the victim cache
/// c.access(&Access::read(0));      // victim-cache hit (3 cycles), swap
/// assert_eq!(c.metrics().aux_hits, 1);
/// ```
pub type VictimCache<P = NoopProbe> = CacheEngine<VictimPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, MemoryModel, MAIN_HIT_CYCLES};

    fn small() -> VictimCache {
        // 4-line direct-mapped main + 2-line victim cache.
        VictimCache::new(
            VictimPolicy::new(CacheGeometry::new(128, 32, 1), 2),
            MemoryModel::default(),
        )
    }

    #[test]
    fn conflict_pair_ping_pongs_through_victim_cache() {
        let mut c = small();
        c.access(&Access::read(0)); // miss
        c.access(&Access::read(128)); // conflict miss, 0 → victim
        c.access(&Access::read(0)); // victim hit, swap
        c.access(&Access::read(128)); // victim hit, swap
        let m = c.metrics();
        assert_eq!(m.misses, 2);
        assert_eq!(m.aux_hits, 2);
        assert_eq!(m.swaps, 2);
    }

    #[test]
    fn swap_cost_and_lock() {
        let mut c = small();
        c.access(&Access::read(0));
        c.access(&Access::read(128));
        let before = c.metrics().mem_cycles;
        c.access(&Access::read(0)); // swap: 3 cycles
        assert_eq!(c.metrics().mem_cycles - before, AUX_HIT_CYCLES);
        // Immediately following access pays the 2-cycle lock (gap 1 puts
        // it 1 cycle after completion, so 1 residual stall cycle... the
        // lock spans 2 cycles after completion; a gap-1 arrival stalls 1).
        let before = c.metrics().mem_cycles;
        c.access(&Access::read(8)); // main hit on the swapped-in line
        assert_eq!(c.metrics().mem_cycles - before, 1 + MAIN_HIT_CYCLES);
    }

    #[test]
    fn victim_eviction_discards_lru() {
        let mut c = small();
        // Three conflicting lines through a 2-entry victim cache.
        c.access(&Access::read(0));
        c.access(&Access::read(128)); // 0 → victim
        c.access(&Access::read(256)); // 128 → victim
        c.access(&Access::read(384)); // 256 → victim, 0 evicted from victim
        c.access(&Access::read(0)); // must be a full miss again
        let m = c.metrics();
        assert_eq!(m.misses, 5);
        assert_eq!(m.aux_hits, 0);
    }

    #[test]
    fn dirty_victim_line_written_back_on_eviction() {
        let mut c = small();
        c.access(&Access::write(0));
        c.access(&Access::read(128)); // dirty 0 → victim
        c.access(&Access::read(256)); // 128 → victim
        c.access(&Access::read(384)); // evicts dirty 0 from victim cache
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn dirty_bit_survives_swap() {
        let mut c = small();
        c.access(&Access::write(0));
        c.access(&Access::read(128)); // dirty 0 → victim
        c.access(&Access::read(0)); // swap back, still dirty
        c.access(&Access::read(128)); // swap: dirty 0 → victim again
        c.access(&Access::read(256)); // 128 → victim, evicting... capacity 2
        c.access(&Access::read(384));
        c.access(&Access::read(512));
        // Dirty line 0 must have been written back exactly once.
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn write_through_victim_hit_marks_dirty() {
        let mut c = small();
        c.access(&Access::read(0));
        c.access(&Access::read(128));
        c.access(&Access::write(0)); // victim hit with a write
        c.access(&Access::read(128)); // swap dirty 0 back out
        c.access(&Access::read(256));
        c.access(&Access::read(384));
        c.access(&Access::read(512));
        assert_eq!(c.metrics().writebacks, 1);
    }
}
