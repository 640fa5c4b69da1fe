//! Jouppi's stream buffers (§5 related work).
//!
//! N FIFO buffers of K entries each sit beside the cache. A miss that
//! hits the *head* of a buffer pops it into the main cache and the buffer
//! fetches one more line at its tail; a miss that hits no head allocates
//! the least-recently-used buffer to a fresh stream. The paper's critique
//! is structural: the mechanism stops working when a loop body touches
//! more streams than there are buffers — visible in this model by
//! comparing `useful_prefetches` across buffer counts.

use crate::{
    CacheEngine, CacheGeometry, CachePolicy, LaneSet, MemorySystem, StandardPolicy, WbStall,
    MAIN_HIT_CYCLES,
};
use sac_obs::{AuxSource, Event, NoopProbe, Probe, Victim};
use sac_trace::Access;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct StreamBuf {
    /// Pending lines, oldest (head) first, with their arrival times.
    entries: VecDeque<(u64, u64)>,
    /// Next line the buffer will fetch when it advances.
    next_line: u64,
    lru: u64,
}

/// The stream-buffer policy: a [`StandardPolicy`] main array beside `N`
/// FIFO stream buffers of `K` entries, run by the shared [`CacheEngine`].
#[derive(Debug, Clone)]
pub struct StreamPolicy {
    main: StandardPolicy,
    buffers: Vec<StreamBuf>,
    depth: usize,
    lru_clock: u64,
}

impl StreamPolicy {
    /// Creates the policy state with `buffers` stream buffers of `depth`
    /// lines each.
    ///
    /// # Panics
    ///
    /// Panics if `buffers` or `depth` is zero.
    pub fn new(geom: CacheGeometry, buffers: u32, depth: u32) -> Self {
        assert!(buffers > 0 && depth > 0, "need at least one buffer entry");
        StreamPolicy {
            main: StandardPolicy::new(geom),
            buffers: (0..buffers)
                .map(|_| StreamBuf {
                    entries: VecDeque::new(),
                    next_line: 0,
                    lru: 0,
                })
                .collect(),
            depth: depth as usize,
            lru_clock: 0,
        }
    }

    /// Starts a fresh stream at `line + 1` in the LRU buffer.
    fn allocate_stream<P: Probe, L: LaneSet>(
        &mut self,
        sys: &mut MemorySystem<L>,
        probe: &mut P,
        line: u64,
    ) {
        self.lru_clock += 1;
        let lru_clock = self.lru_clock;
        let fetch = sys.fetch_cycles(1);
        let transfer = sys.line_transfer_cycles();
        let now = sys.now();
        let depth = self.depth;
        let buf = self
            .buffers
            .iter_mut()
            .min_by_key(|b| b.lru)
            .expect("at least one buffer");
        buf.lru = lru_clock;
        buf.entries.clear();
        for k in 0..depth as u64 {
            buf.entries
                .push_back((line + 1 + k, now + fetch + k * transfer));
            if P::ENABLED {
                probe.on_event(&Event::PrefetchIssue { line: line + 1 + k });
            }
        }
        buf.next_line = line + 1 + depth as u64;
        sys.metrics_mut().prefetches += depth as u64;
        sys.record_fetch_traffic(depth as u64);
    }
}

impl<P: Probe> CachePolicy<P> for StreamPolicy {
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
        if let Some(bi) = self
            .buffers
            .iter()
            .position(|b| b.entries.front().is_some_and(|&(l, _)| l == line))
        {
            // Head hit: pop into the main cache, advance the stream.
            sys.metrics_mut().aux_hits += 1;
            sys.metrics_mut().useful_prefetches += 1;
            if P::ENABLED {
                probe.on_event(&Event::AuxHit {
                    line,
                    source: AuxSource::StreamBuffer,
                });
                probe.on_event(&Event::PrefetchUse { line });
            }
            self.lru_clock += 1;
            self.buffers[bi].lru = self.lru_clock;
            let (_, ready) = self.buffers[bi].entries.pop_front().expect("head checked");
            sys.spend(MAIN_HIT_CYCLES.max(ready.saturating_sub(sys.now())));
            let next = self.buffers[bi].next_line;
            self.buffers[bi].next_line += 1;
            let arrive = sys.now() + sys.access_cost() + sys.fetch_cycles(1);
            self.buffers[bi].entries.push_back((next, arrive));
            sys.metrics_mut().prefetches += 1;
            sys.record_fetch_traffic(1);
            if P::ENABLED {
                probe.on_event(&Event::PrefetchIssue { line: next });
            }
            // The write-back stall folds into the access cost only: it
            // hides under the fetch, so it is not processor stall.
            let (_, old) = self
                .main
                .fill_lru(sys, line, a.kind().is_write(), WbStall::Unbooked);
            if P::ENABLED && old.valid {
                if old.dirty {
                    probe.on_event(&Event::Writeback { line: old.line });
                }
                probe.on_event(&Event::MainEvict {
                    line: old.line,
                    dirty: old.dirty,
                });
            }
            return;
        }
        sys.metrics_mut().misses += 1;
        sys.fetch(1);
        let (_, old) = self
            .main
            .fill_lru(sys, line, a.kind().is_write(), WbStall::Unbooked);
        if P::ENABLED {
            if old.valid && old.dirty {
                probe.on_event(&Event::Writeback { line: old.line });
            }
            let victim = old.valid.then_some(Victim {
                line: old.line,
                dirty: old.dirty,
            });
            probe.on_event(&Event::Miss {
                line,
                set: self.main.geom.set_of_line(line),
                is_write: a.kind().is_write(),
                victim,
            });
            probe.on_event(&Event::LineFill { line, demand: true });
        }
        self.allocate_stream(sys, probe, line);
    }

    fn flush(&mut self) -> u64 {
        for b in &mut self.buffers {
            b.entries.clear();
        }
        CachePolicy::<P>::flush(&mut self.main)
    }

    fn prefetches(&self) -> bool {
        true
    }
}

/// A standard cache backed by `N` stream buffers of `K` entries: this is
/// [`StreamPolicy`] run by the shared [`CacheEngine`]. Attach an observer
/// with [`CacheEngine::with_probe`].
///
/// ```
/// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, StreamBufferCache, StreamPolicy};
/// use sac_trace::Access;
///
/// let policy = StreamPolicy::new(CacheGeometry::standard(), 4, 4);
/// let mut c = StreamBufferCache::new(policy, MemoryModel::default());
/// c.access(&Access::read(0));                  // miss: allocates a stream
/// c.access(&Access::read(32).with_gap(200));   // head hit
/// assert_eq!(c.metrics().aux_hits, 1);
/// ```
pub type StreamBufferCache<P = NoopProbe> = CacheEngine<StreamPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, MemoryModel};
    use sac_trace::Trace;

    fn cache(buffers: u32) -> StreamBufferCache {
        StreamBufferCache::new(
            StreamPolicy::new(CacheGeometry::new(1024, 32, 1), buffers, 4),
            MemoryModel::default(),
        )
    }

    #[test]
    fn single_stream_is_absorbed() {
        let mut c = cache(2);
        let trace: Trace = (0..64u64)
            .map(|i| Access::read(i * 32).with_gap(100))
            .collect();
        c.run(&trace);
        assert_eq!(c.metrics().misses, 1, "only the stream start misses");
        assert_eq!(c.metrics().aux_hits, 63);
    }

    #[test]
    fn too_many_streams_defeat_the_buffers() {
        // The paper's critique: more concurrent streams than buffers.
        let streams: Vec<u64> = vec![0, 1 << 20, 2 << 20, 3 << 20];
        let interleaved: Trace = (0..64u64)
            .flat_map(|i| {
                streams
                    .iter()
                    .map(move |&b| Access::read(b + i * 32).with_gap(50))
            })
            .collect();
        let few = {
            let mut c = cache(2);
            c.run(&interleaved);
            c.metrics().aux_hits
        };
        let enough = {
            let mut c = cache(4);
            c.run(&interleaved);
            c.metrics().aux_hits
        };
        assert!(enough > few * 5, "4 buffers {enough} vs 2 buffers {few}");
    }

    #[test]
    fn non_head_lines_do_not_hit() {
        let mut c = cache(1);
        c.access(&Access::read(0).with_gap(100)); // stream {1,2,3,4}
                                                  // Line 2 is in the buffer but not at the head: classic stream
                                                  // buffers miss and re-allocate.
        c.access(&Access::read(2 * 32).with_gap(100));
        assert_eq!(c.metrics().misses, 2);
        assert_eq!(c.metrics().aux_hits, 0);
    }

    #[test]
    fn traffic_includes_prefetched_lines() {
        let mut c = cache(2);
        c.access(&Access::read(0));
        // 1 demand + 4 prefetched lines.
        assert_eq!(c.metrics().lines_fetched, 5);
    }
}
