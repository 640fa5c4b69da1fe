//! The column-associative cache (Agarwal & Pudar, §5 related work).
//!
//! A direct-mapped cache in which a line may also live in its *rehash*
//! location (the set index with its highest bit flipped), giving
//! 2-way-like conflict behaviour at direct-mapped hit time. A first-probe
//! hit costs 1 cycle; a rehash-probe hit costs one extra cycle and swaps
//! the two lines so the most recently used one sits in the primary slot.
//! "Most conflict misses are eliminated. However, the mechanism does not
//! deal with cache pollution" — which is exactly what the comparison
//! experiment shows.
//!
//! Placement follows the rehash-bit scheme of the original paper: a
//! block living in its rehash location is the set pair's second-choice
//! occupant, and a miss replaces exactly one block — the rehashed
//! occupant of the primary slot if there is one, otherwise the rehash
//! slot's occupant. (A block's "rehash bit" is equivalent to its home
//! set differing from the set it sits in, so no extra state is stored.)

use crate::{
    CacheEngine, CacheGeometry, CachePolicy, MemorySystem, TagArray, WbStall, MAIN_HIT_CYCLES,
};
use sac_obs::{AuxSource, Event, NoopProbe, Probe, Victim};
use sac_trace::Access;

/// The column-associative (rehash) policy, run by the shared
/// [`CacheEngine`]. A rehash-probe hit is the auxiliary path of the
/// generic miss hook: one extra probe cycle, then a swap so the hot line
/// sits in its primary slot.
#[derive(Debug, Clone)]
pub struct ColAssocPolicy {
    geom: CacheGeometry,
    tags: TagArray,
}

impl ColAssocPolicy {
    /// Creates the policy state for `geom`.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry is direct-mapped with at least two sets
    /// (the rehash function flips the top index bit).
    pub fn new(geom: CacheGeometry) -> Self {
        assert_eq!(
            geom.ways(),
            1,
            "column associativity needs a direct-mapped array"
        );
        assert!(geom.sets() >= 2, "need at least two sets to rehash");
        ColAssocPolicy {
            geom,
            tags: TagArray::new(geom),
        }
    }

    /// The line number whose primary set is this line's rehash set.
    ///
    /// `TagArray` maps a line to set `line % sets`; flipping the top
    /// index bit of the set is equivalent to XOR-ing the line number with
    /// `sets/2` (for power-of-two set counts).
    fn rehash_line(&self, line: u64) -> u64 {
        line ^ (self.geom.sets() / 2)
    }
}

impl<P: Probe> CachePolicy<P> for ColAssocPolicy {
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
        let alt = self.rehash_line(line);
        if self.tags.peek_as(alt, line).is_some() {
            // Rehash hit: one extra probe cycle, then swap the slots so
            // the hot line moves to its primary location.
            sys.metrics_mut().aux_hits += 1;
            sys.metrics_mut().swaps += 1;
            if P::ENABLED {
                probe.on_event(&Event::AuxHit {
                    line,
                    source: AuxSource::Rehash,
                });
                probe.on_event(&Event::Swap { line });
            }
            sys.spend(MAIN_HIT_CYCLES + 1);
            let (_, mut hot) = self.tags.take_as(alt, line).expect("peeked");
            if a.kind().is_write() {
                hot.dirty = true;
            }
            let displaced = self.tags.install(line, 0, hot);
            if displaced.valid {
                // The old primary occupant retreats to the rehash slot.
                self.tags.install_as(alt, displaced.line, 0, displaced);
            }
            return;
        }
        sys.metrics_mut().misses += 1;
        sys.fetch(1);
        // Agarwal & Pudar's placement, one eviction per miss: a
        // rehashed occupant of the primary slot (the pair's
        // second-choice block) is replaced in place; otherwise the
        // new block takes the primary slot and the old occupant
        // retreats to the rehash slot, evicting what lived there.
        let primary = *self.tags.entry(line, 0);
        let primary_is_rehashed =
            primary.valid && self.geom.set_of_line(primary.line) != self.geom.set_of_line(line);
        let evicted = if !primary.valid || primary_is_rehashed {
            self.tags.fill(line, 0, a.kind().is_write())
        } else {
            let old_primary = self.tags.fill(line, 0, a.kind().is_write());
            self.tags.install_as(
                self.rehash_line(old_primary.line),
                old_primary.line,
                0,
                old_primary,
            )
        };
        if P::ENABLED {
            let victim = evicted.valid.then_some(Victim {
                line: evicted.line,
                dirty: evicted.dirty,
            });
            probe.on_event(&Event::Miss {
                line,
                set: self.geom.set_of_line(line),
                is_write: a.kind().is_write(),
                victim,
            });
            probe.on_event(&Event::LineFill { line, demand: true });
        }
        if evicted.valid && evicted.dirty {
            if P::ENABLED {
                probe.on_event(&Event::Writeback { line: evicted.line });
            }
            sys.writeback(evicted.line, WbStall::Booked);
        }
    }

    fn flush(&mut self) -> u64 {
        self.tags.invalidate_all()
    }
}

/// A column-associative (rehash) cache: [`ColAssocPolicy`] run by the
/// shared [`CacheEngine`]. Attach an observer with
/// [`CacheEngine::with_probe`].
///
/// ```
/// use sac_simcache::{CacheGeometry, CacheSim, ColAssocPolicy, ColumnAssociativeCache, MemoryModel};
/// use sac_trace::Access;
///
/// let policy = ColAssocPolicy::new(CacheGeometry::standard());
/// let mut c = ColumnAssociativeCache::new(policy, MemoryModel::default());
/// c.access(&Access::read(0));
/// c.access(&Access::read(8192));  // conflicts; goes to the rehash slot
/// c.access(&Access::read(0));     // rehash hit: 2 cycles, swap
/// assert_eq!(c.metrics().aux_hits, 1);
/// assert_eq!(c.metrics().misses, 2);
/// ```
pub type ColumnAssociativeCache<P = NoopProbe> = CacheEngine<ColAssocPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, MemoryModel};

    fn small() -> ColumnAssociativeCache {
        // 8 sets of 32 B.
        ColumnAssociativeCache::new(
            ColAssocPolicy::new(CacheGeometry::new(256, 32, 1)),
            MemoryModel::default(),
        )
    }

    #[test]
    fn conflicting_pair_coexists() {
        let mut c = small();
        // Lines 0 and 8 share primary set 0; rehash set is 4.
        for _ in 0..4 {
            c.access(&Access::read(0));
            c.access(&Access::read(8 * 32));
        }
        let m = c.metrics();
        assert_eq!(m.misses, 2, "only the cold misses remain");
        assert!(m.aux_hits > 0, "rehash probes served the conflicts");
    }

    #[test]
    fn rehash_hit_swaps_to_primary() {
        let mut c = small();
        c.access(&Access::read(0));
        c.access(&Access::read(8 * 32)); // 8 takes primary; 0 → rehash slot
        c.access(&Access::read(0)); // rehash hit: swap back
        let before = c.metrics().mem_cycles;
        c.access(&Access::read(0)); // primary hit
        assert_eq!(c.metrics().mem_cycles - before, 1);
        // And 8 still lives in the pair (now rehashed).
        let misses = c.metrics().misses;
        c.access(&Access::read(8 * 32));
        assert_eq!(c.metrics().misses, misses);
    }

    #[test]
    fn rehashed_occupant_is_replaced_in_place() {
        let mut c = small();
        c.access(&Access::read(0)); // set 0
        c.access(&Access::read(8 * 32)); // 0 → rehash slot (set 4)
                                         // Line 4's primary slot is set 4, currently holding rehashed 0:
                                         // the miss replaces it in place without touching the 0/8 pair's
                                         // primary slot.
        c.access(&Access::read(4 * 32));
        let misses = c.metrics().misses;
        c.access(&Access::read(8 * 32)); // still primary
        assert_eq!(c.metrics().misses, misses);
    }

    #[test]
    fn dirty_lines_are_written_back_when_the_pair_overflows() {
        let mut c = small();
        c.access(&Access::write(0)); // dirty, set 0
        c.access(&Access::read(8 * 32)); // dirty 0 → rehash slot
        c.access(&Access::read(16 * 32)); // third conflicting line: 8 → rehash, dirty 0 evicted
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn three_way_conflict_still_thrashes() {
        // Column associativity gives 2 locations; a 3-line conflict set
        // still misses — the design fixes interferences, not capacity or
        // pollution.
        let mut c = small();
        for _ in 0..4 {
            c.access(&Access::read(0));
            c.access(&Access::read(8 * 32));
            c.access(&Access::read(16 * 32));
        }
        assert!(c.metrics().misses > 6);
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn associative_geometry_rejected() {
        let _ = ColumnAssociativeCache::new(
            ColAssocPolicy::new(CacheGeometry::new(256, 32, 2)),
            MemoryModel::default(),
        );
    }
}
