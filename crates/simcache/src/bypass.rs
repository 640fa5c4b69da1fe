//! Cache bypassing (the Figure 3a baselines).
//!
//! Bypassing is "the most natural solution for avoiding cache pollution"
//! but has a major flaw: spatial locality cannot be exploited for
//! non-reusable data, so plain bypassing usually performs poorly (§2.2).
//! The *bypass through a buffer* variant streams bypassed lines through a
//! small line buffer (in the spirit of the Intel i860's pipelined loads),
//! recovering the spatial locality of bypassed streams.

use crate::{
    CacheEngine, CacheGeometry, CachePolicy, LaneSet, MemorySystem, StandardPolicy, TagArray,
    MAIN_HIT_CYCLES,
};
use sac_obs::{AuxSource, Event, NoopProbe, Probe};
use sac_trace::Access;

/// How non-temporal references bypass the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BypassMode {
    /// Each bypassed load fetches a single word from memory; stores go
    /// straight to the write buffer.
    Plain,
    /// Bypassed references stream through a small fully-associative line
    /// buffer that captures their spatial locality.
    Buffered {
        /// Buffer capacity in lines.
        lines: u32,
    },
}

/// The bypassing policy: temporal references allocate normally in a
/// [`StandardPolicy`] main array, everything else goes around the cache
/// (optionally through a line buffer).
///
/// Both paths probe the main cache first, so the unified hit fast path of
/// the [`CacheEngine`] applies to bypassed references too and coherence is
/// preserved.
#[derive(Debug, Clone)]
pub struct BypassPolicy {
    main: StandardPolicy,
    buffer: Option<TagArray>,
}

impl BypassPolicy {
    /// Creates the policy state for `geom` in `mode`.
    pub fn new(geom: CacheGeometry, mode: BypassMode) -> Self {
        let buffer = match mode {
            BypassMode::Plain => None,
            BypassMode::Buffered { lines } => {
                assert!(lines > 0, "line buffer needs at least one line");
                Some(TagArray::new(CacheGeometry::new(
                    lines as u64 * geom.line_bytes(),
                    geom.line_bytes(),
                    lines,
                )))
            }
        };
        BypassPolicy {
            main: StandardPolicy::new(geom),
            buffer,
        }
    }
}

impl<P: Probe> CachePolicy<P> for BypassPolicy {
    #[inline]
    fn geometry(&self) -> CacheGeometry {
        CachePolicy::<P>::geometry(&self.main)
    }

    #[inline]
    fn probe_main(&mut self, line: u64) -> Option<usize> {
        // The main cache may still hold the line (a temporal reference
        // brought it in): hits are served normally either way.
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
        if a.temporal() {
            // Normal write-back write-allocate path.
            return self.main.miss(sys, probe, line, a);
        }
        match (&mut self.buffer, a.kind().is_write()) {
            (_, true) => {
                // Stores bypass through the write buffer.
                sys.metrics_mut().bypasses += 1;
                if P::ENABLED {
                    probe.on_event(&Event::Bypass {
                        line,
                        is_write: true,
                    });
                }
                sys.spend(MAIN_HIT_CYCLES);
                sys.buffer_store(line);
            }
            (None, false) => {
                // Plain bypass: a full memory round trip per word.
                sys.metrics_mut().bypasses += 1;
                if P::ENABLED {
                    probe.on_event(&Event::Bypass {
                        line,
                        is_write: false,
                    });
                }
                sys.fetch_word();
            }
            (Some(buffer), false) => {
                if buffer.probe(line).is_some() {
                    // Spatial locality recovered by the line buffer.
                    sys.metrics_mut().aux_hits += 1;
                    if P::ENABLED {
                        probe.on_event(&Event::AuxHit {
                            line,
                            source: AuxSource::LineBuffer,
                        });
                    }
                    sys.spend(MAIN_HIT_CYCLES);
                } else {
                    sys.metrics_mut().bypasses += 1;
                    sys.fetch(1);
                    if P::ENABLED {
                        probe.on_event(&Event::Bypass {
                            line,
                            is_write: false,
                        });
                        probe.on_event(&Event::LineFill { line, demand: true });
                    }
                    let way = buffer.victim_way(line);
                    buffer.fill(line, way, false);
                }
            }
        }
    }

    fn flush(&mut self) -> u64 {
        let mut wbs = CachePolicy::<P>::flush(&mut self.main);
        if let Some(buffer) = &mut self.buffer {
            wbs += buffer.invalidate_all();
        }
        wbs
    }
}

/// A standard cache in which references *without* the temporal tag bypass
/// the cache instead of allocating.
///
/// Temporal-tagged references use the normal write-back write-allocate
/// path; all main-cache contents stay coherent because bypassed
/// references still probe the main cache first. This is [`BypassPolicy`]
/// run by the shared [`CacheEngine`]; attach an observer with
/// [`CacheEngine::with_probe`].
///
/// ```
/// use sac_simcache::{BypassCache, BypassMode, BypassPolicy, CacheGeometry, CacheSim, MemoryModel};
/// use sac_trace::Access;
///
/// let policy = BypassPolicy::new(CacheGeometry::standard(), BypassMode::Plain);
/// let mut c = BypassCache::new(policy, MemoryModel::default());
/// c.access(&Access::read(0)); // non-temporal: bypassed, not allocated
/// c.access(&Access::read(8)); // same line — but nothing was cached
/// assert_eq!(c.metrics().bypasses, 2);
/// assert_eq!(c.metrics().main_hits, 0);
/// ```
pub type BypassCache<P = NoopProbe> = CacheEngine<BypassPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, MemoryModel};

    fn plain() -> BypassCache {
        BypassCache::new(
            BypassPolicy::new(CacheGeometry::new(128, 32, 1), BypassMode::Plain),
            MemoryModel::default(),
        )
    }

    fn buffered() -> BypassCache {
        BypassCache::new(
            BypassPolicy::new(
                CacheGeometry::new(128, 32, 1),
                BypassMode::Buffered { lines: 2 },
            ),
            MemoryModel::default(),
        )
    }

    #[test]
    fn temporal_references_allocate_normally() {
        let mut c = plain();
        c.access(&Access::read(0).with_temporal(true));
        c.access(&Access::read(8).with_temporal(true));
        assert_eq!(c.metrics().misses, 1);
        assert_eq!(c.metrics().main_hits, 1);
    }

    #[test]
    fn plain_bypass_pays_full_latency_per_word() {
        let mut c = plain();
        c.access(&Access::read(0));
        c.access(&Access::read(8));
        let m = c.metrics();
        assert_eq!(m.bypasses, 2);
        // Each bypassed read: 20 + 1 cycles.
        assert_eq!(m.mem_cycles, 2 * 21);
        assert_eq!(m.words_fetched, 2);
    }

    #[test]
    fn buffered_bypass_recovers_spatial_locality() {
        let mut c = buffered();
        for i in 0..4u64 {
            c.access(&Access::read(i * 8));
        }
        let m = c.metrics();
        assert_eq!(m.bypasses, 1, "one line fetch");
        assert_eq!(m.aux_hits, 3, "remaining words hit the buffer");
        assert_eq!(m.words_fetched, 4);
    }

    #[test]
    fn buffer_capacity_is_bounded() {
        let mut c = buffered();
        // Three distinct lines through a 2-line buffer, then revisit the
        // first: it must have been displaced.
        for line in [0u64, 1, 2, 0] {
            c.access(&Access::read(line * 32));
        }
        assert_eq!(c.metrics().bypasses, 4);
    }

    #[test]
    fn bypassed_reference_hitting_main_cache_is_served_there() {
        let mut c = plain();
        c.access(&Access::read(0).with_temporal(true)); // allocates
        c.access(&Access::read(8)); // non-temporal but present
        assert_eq!(c.metrics().main_hits, 1);
        assert_eq!(c.metrics().bypasses, 0);
    }

    #[test]
    fn bypassed_store_to_cached_line_stays_coherent() {
        let mut c = plain();
        c.access(&Access::read(0).with_temporal(true));
        c.access(&Access::write(8)); // hits, marks dirty
        c.access(&Access::read(128).with_temporal(true)); // evicts line 0
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn bypassed_store_misses_go_to_write_buffer() {
        let mut c = plain();
        c.access(&Access::write(0));
        let m = c.metrics();
        assert_eq!(m.bypasses, 1);
        assert_eq!(m.mem_cycles, 1);
        assert_eq!(m.words_fetched, 0);
    }
}
