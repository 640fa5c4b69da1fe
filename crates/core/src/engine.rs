//! The software-assisted cache engine.

use crate::config::{Replacement, SoftCacheConfig};
use crate::fillbuf::{FillBuffer, FillSlot};
use crate::vline::aligned_block;
use sac_obs::{AuxSource, Event, NoopProbe, Probe, Victim};
use sac_simcache::{
    CacheEngine, CacheGeometry, CachePolicy, Entry, Evict, MemorySystem, TagArray, WbStall,
    SWAP_LOCK_CYCLES,
};
use sac_trace::Access;

/// A software-assisted prefetch in flight to the bounce-back cache.
#[derive(Debug, Clone, Copy)]
struct InflightPrefetch {
    line: u64,
    ready_at: u64,
}

/// At most this many prefetched lines can be in flight (degree ≤ 4).
const MAX_INFLIGHT: usize = 4;

/// The software-assisted policy: a main array with virtual-line fills,
/// backed by a bounce-back cache, optionally with software-biased
/// replacement and progressive prefetching: the [`SoftCache`]
/// organization run by the shared [`CacheEngine`].
#[derive(Debug, Clone)]
pub struct SoftPolicy {
    cfg: SoftCacheConfig,
    main: TagArray,
    /// The main array's replacement order (from `cfg.replacement`).
    main_evict: Evict,
    bounce: Option<TagArray>,
    inflight: Vec<InflightPrefetch>,
    /// No in-flight prefetch arrives before this cycle (`u64::MAX` when
    /// none is in flight). A lower bound: dropping a prefetch leaves it
    /// in place until the next delivery pass recomputes it.
    next_ready: u64,
    prefetched_resident: u32,
    fillbuf: FillBuffer,
    /// Physical lines per default virtual line (`cfg.vline_span()`).
    vline_span: u64,
    // Scratch buffers reused across misses (the miss path used to
    // allocate Vecs per miss, which dominated system time on long
    // sweeps). Taken with `mem::take` for the duration of a miss and
    // restored afterwards, keeping their capacity.
    needed_buf: Vec<u64>,
    stale_buf: Vec<u64>,
}

impl SoftPolicy {
    /// Builds the policy state from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SoftCacheConfig::validate`]).
    pub fn new(cfg: SoftCacheConfig) -> Self {
        cfg.validate();
        let ls = cfg.geometry.line_bytes();
        let bounce = (cfg.bounce_lines > 0).then(|| {
            let ways = cfg.bounce_ways.unwrap_or(cfg.bounce_lines);
            TagArray::new(CacheGeometry::new(cfg.bounce_lines as u64 * ls, ls, ways))
        });
        // The fill FIFO holds one virtual line's worth of in-flight
        // physical lines (8 when variable-length virtual lines can ask
        // for the maximum span).
        let max_vline = if cfg.variable_vlines {
            ls * 8
        } else {
            cfg.virtual_line_bytes
        };
        SoftPolicy {
            cfg,
            main: TagArray::new(cfg.geometry),
            main_evict: match cfg.replacement {
                Replacement::Lru => Evict::Lru,
                Replacement::PreferNonTemporal => Evict::NonTemporalFirst,
            },
            bounce,
            inflight: Vec::with_capacity(MAX_INFLIGHT),
            next_ready: u64::MAX,
            prefetched_resident: 0,
            fillbuf: FillBuffer::for_geometry(cfg.geometry, max_vline),
            vline_span: cfg.vline_span(),
            needed_buf: Vec::new(),
            stale_buf: Vec::new(),
        }
    }

    /// Deepest occupancy the §2.1 fill FIFO reached: how many in-flight
    /// line slots the hardware actually needed.
    pub fn fill_buffer_peak(&self) -> usize {
        self.fillbuf.peak()
    }

    fn main_victim_way(&self, line: u64) -> usize {
        self.main.victim(line, self.main_evict)
    }

    /// Sends an entry to the write buffer if dirty, else drops it. The
    /// stall is charged immediately (§2.2: bounce maintenance runs in the
    /// shadow of the access but a full write buffer stalls the processor
    /// on the spot).
    fn discard<P: Probe>(&mut self, sys: &mut MemorySystem, probe: &mut P, entry: Entry) {
        if entry.valid && entry.dirty {
            if P::ENABLED {
                probe.on_event(&Event::Writeback { line: entry.line });
            }
            sys.writeback(entry.line, WbStall::Now);
        }
    }

    /// The bounce-back replacement order for an incoming entry.
    ///
    /// Prefetched insertions above the residency cap preferentially
    /// replace other prefetched lines (§4.4); everything else is plain
    /// LRU with invalid ways first.
    fn bounce_evict(&self, entry: &Entry) -> Evict {
        if entry.prefetched && self.prefetched_resident >= self.cfg.max_prefetched {
            Evict::PrefetchedFirst
        } else {
            Evict::Lru
        }
    }

    /// Inserts a main-cache victim (or an arriving prefetched line) into
    /// the bounce-back cache, bouncing temporal evictees back to the main
    /// cache. `filling` holds the lines the current miss is fetching:
    /// bouncing into one of their main-cache sets would ping-pong with the
    /// incoming data, so such lines are discarded instead (§2.2).
    ///
    /// `lru_hint` is `(line, way)` from an earlier pass over `line`'s
    /// bounce-back set that nothing has changed since: `way` is that
    /// set's LRU way, so a plain-LRU insertion into the same set takes it
    /// without another pass.
    fn bounce_insert<P: Probe>(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        entry: Entry,
        filling: &[u64],
        lru_hint: Option<(u64, usize)>,
    ) {
        if !self.cfg.admit_nontemporal && !entry.temporal && !entry.prefetched {
            // Temporal-only admission (ablation of §2.2).
            self.discard(sys, probe, entry);
            return;
        }
        let evict = self.bounce_evict(&entry);
        let Some(bb) = &self.bounce else {
            self.discard(sys, probe, entry);
            return;
        };
        let set_of = |l| bb.geometry().set_of_line(l);
        let way = match lru_hint {
            Some((l, way)) if evict == Evict::Lru && set_of(l) == set_of(entry.line) => way,
            _ => bb.victim(entry.line, evict),
        };
        self.bounce_install(sys, probe, entry, way, filling);
    }

    /// Installs an admitted entry at bounce-back way `way` (chosen by
    /// [`Self::bounce_evict`]) and disposes of the evictee.
    fn bounce_install<P: Probe>(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        mut entry: Entry,
        way: usize,
        filling: &[u64],
    ) {
        if entry.prefetched {
            self.prefetched_resident += 1;
        }
        let line = entry.line;
        entry.lru = 0; // install refreshes it
        let bb = self.bounce.as_mut().expect("a bounce-back way was chosen");
        let evicted = bb.install(line, way, entry);
        if !evicted.valid {
            return;
        }
        if evicted.prefetched {
            self.prefetched_resident = self.prefetched_resident.saturating_sub(1);
        }
        if self.cfg.use_temporal && evicted.temporal {
            self.bounce_back(sys, probe, evicted, filling);
        } else {
            self.discard(sys, probe, evicted);
        }
    }

    /// Bounces a temporal line from the bounce-back cache into its
    /// main-cache slot, honoring the paper's corner cases.
    fn bounce_back<P: Probe>(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        mut evicted: Entry,
        filling: &[u64],
    ) {
        let geom = self.cfg.geometry;
        let dest_set = geom.set_of_line(evicted.line);
        // No ping-pong with the pending miss: a bounce aimed at a slot the
        // miss is filling is discarded (write-buffered when dirty).
        if filling.iter().any(|&l| geom.set_of_line(l) == dest_set) {
            self.discard(sys, probe, evicted);
            return;
        }
        let way = self.main_victim_way(evicted.line);
        let displaced = *self.main.entry(evicted.line, way);
        // A bounce over a dirty line needs a write-buffer slot; when the
        // buffer is full the transfer is aborted (§2.2).
        if displaced.valid && displaced.dirty && sys.write_buffer_full() {
            self.discard(sys, probe, evicted);
            return;
        }
        // Dynamic adjustment: the temporal bit resets on bounce-back.
        evicted.temporal = false;
        evicted.prefetched = false;
        let line = evicted.line;
        let displaced = self.main.install(line, way, evicted);
        sys.metrics_mut().bounces += 1;
        if P::ENABLED {
            probe.on_event(&Event::BounceBack {
                line,
                set: dest_set,
            });
            if displaced.valid {
                probe.on_event(&Event::MainEvict {
                    line: displaced.line,
                    dirty: displaced.dirty,
                });
            }
        }
        self.discard(sys, probe, displaced);
    }

    /// Delivers every in-flight prefetch that has arrived.
    fn settle_prefetch<P: Probe>(&mut self, sys: &mut MemorySystem, probe: &mut P) {
        let now = sys.now();
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].ready_at > now {
                i += 1;
                continue;
            }
            let p = self.inflight.remove(i);
            if self.main.peek(p.line).is_some() {
                continue;
            }
            let entry = Entry {
                line: p.line,
                valid: true,
                dirty: false,
                temporal: false,
                prefetched: true,
                lru: 0,
            };
            // One pass over the bounce-back set: already there, or the
            // way the arrival takes.
            let evict = self.bounce_evict(&entry);
            let bb = self
                .bounce
                .as_ref()
                .expect("prefetches need a bounce-back cache");
            if let Err(way) = bb.lookup(p.line, evict) {
                self.bounce_install(sys, probe, entry, way, &[]);
            }
        }
        self.next_ready = self
            .inflight
            .iter()
            .map(|p| p.ready_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Issues prefetches for `degree` consecutive lines starting at
    /// `line` (§4.4; degree > 1 is the long-latency extension). Older
    /// undelivered prefetches are displaced first.
    fn issue_prefetch<P: Probe>(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        line: u64,
        ready_at: u64,
    ) {
        if !self.cfg.prefetch || self.bounce.is_none() {
            return;
        }
        let degree = self.cfg.prefetch_degree as u64;
        let transfer = sys.line_transfer_cycles();
        for k in 0..degree {
            let l = line + k;
            if self.main.peek(l).is_some()
                || self.bounce.as_ref().is_some_and(|bb| bb.peek(l).is_some())
                || self.inflight.iter().any(|p| p.line == l)
            {
                continue;
            }
            if self.inflight.len() == MAX_INFLIGHT {
                self.inflight.remove(0);
            }
            sys.metrics_mut().prefetches += 1;
            if P::ENABLED {
                probe.on_event(&Event::PrefetchIssue { line: l });
            }
            sys.record_fetch_traffic(1);
            let ready_at = ready_at + k * transfer;
            self.next_ready = self.next_ready.min(ready_at);
            self.inflight.push(InflightPrefetch { line: l, ready_at });
        }
    }

    /// Sets the line's temporal bit when the instruction carries the tag;
    /// an unset tag leaves the bit unchanged (§2.2).
    fn note_temporal(cfg: &SoftCacheConfig, entry: &mut Entry, a: &Access) {
        if cfg.use_temporal && a.temporal() {
            entry.temporal = true;
        }
    }

    /// Handles a hit in the bounce-back cache (or on the in-flight
    /// prefetch): swap with the conflicting main line. Returns the
    /// cycles the hit takes; the caller reports them.
    fn bounce_hit<P: Probe>(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        mut entry: Entry,
        bbway: Option<usize>,
        a: &Access,
    ) -> u64 {
        let mut cost = self.cfg.bounce_hit_cycles;
        sys.metrics_mut().aux_hits += 1;
        sys.metrics_mut().swaps += 1;
        if P::ENABLED {
            probe.on_event(&Event::AuxHit {
                line: entry.line,
                source: AuxSource::BounceBack,
            });
            probe.on_event(&Event::Swap { line: entry.line });
        }
        let was_prefetched = entry.prefetched;
        if was_prefetched {
            sys.metrics_mut().useful_prefetches += 1;
            if P::ENABLED {
                probe.on_event(&Event::PrefetchUse { line: entry.line });
            }
            self.prefetched_resident = self.prefetched_resident.saturating_sub(1);
            entry.prefetched = false;
            // Checking for the next prefetched line keeps the main cache
            // stalled one extra cycle (§4.4).
            cost += 1;
        }
        if a.kind().is_write() {
            entry.dirty = true;
        }
        Self::note_temporal(&self.cfg, &mut entry, a);
        let line = entry.line;
        let way = self.main_victim_way(line);
        let displaced = self.main.install(line, way, entry);
        if displaced.valid {
            if P::ENABLED {
                probe.on_event(&Event::MainEvict {
                    line: displaced.line,
                    dirty: displaced.dirty,
                });
            }
            match (bbway, self.bounce.as_mut()) {
                (Some(bway), Some(bb)) => {
                    // The swap puts the displaced main line in the way the
                    // hit vacated.
                    let evicted = bb.install(displaced.line, bway, displaced);
                    debug_assert!(!evicted.valid, "swap target way was vacated");
                }
                _ => self.discard(sys, probe, displaced),
            }
        }
        if was_prefetched {
            // Progressive prefetch: fetch the consecutive physical line.
            let ready = sys.now() + cost + sys.fetch_cycles(1);
            self.issue_prefetch(sys, probe, line + 1, ready);
        }
        cost
    }

    /// Handles a full miss: virtual-line fill plus bounce-back
    /// maintenance. `bb_lru` is the LRU way of `line`'s bounce-back set,
    /// from the pass that found `line` absent there.
    fn full_miss<P: Probe>(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        line: u64,
        a: &Access,
        bb_lru: Option<usize>,
    ) {
        let geom = self.cfg.geometry;
        sys.metrics_mut().misses += 1;
        let block = if self.cfg.use_spatial && a.spatial() {
            let span = if self.cfg.variable_vlines && a.spatial_level() > 0 {
                // §3.2 extension: the reference's own level picks the
                // virtual line size (2^L physical lines, capped at 8).
                1 << a.spatial_level().min(3)
            } else {
                self.vline_span
            };
            aligned_block(line, span)
        } else {
            line..line + 1
        };
        // Presence checks for the additional lines are overlapped with the
        // first request (§2.1): only absent lines are fetched. The scratch
        // vectors are owned by the policy and reused across misses.
        let mut needed = std::mem::take(&mut self.needed_buf);
        needed.clear();
        needed.extend(
            block
                .clone()
                .filter(|&l| l == line || self.main.peek(l).is_none()),
        );
        sys.fetch(needed.len() as u64);
        if P::ENABLED && block.end - block.start > 1 {
            probe.on_event(&Event::VlineFill {
                line: block.start,
                span_lines: (block.end - block.start) as u32,
                fetched_lines: needed.len() as u32,
            });
        }

        // §2.1 "Storing multiple lines": target slots are selected while
        // the requests go out and held in a FIFO; arrivals (in request
        // order) are stored by unstacking it, without re-checking tags.
        for &l in &needed {
            self.fillbuf.push(FillSlot {
                line: l,
                set: geom.set_of_line(l),
                way: self.main_victim_way(l),
            });
        }
        let mut dirty_victims = 0u64;
        // The bounce-back cache is untouched until the first insertion,
        // which may reuse the miss's pass over it.
        let mut lru_hint = bb_lru.map(|way| (line, way));
        for &l in &needed {
            let slot = self.fillbuf.pop().expect("one slot per request");
            debug_assert_eq!(slot.line, l, "in-order arrival");
            let way = slot.way;
            let dirty = l == line && a.kind().is_write();
            let displaced = self.main.fill(l, way, dirty);
            if P::ENABLED {
                probe.on_event(&Event::LineFill {
                    line: l,
                    demand: l == line,
                });
                if l == line {
                    probe.on_event(&Event::Miss {
                        line,
                        set: geom.set_of_line(line),
                        is_write: a.kind().is_write(),
                        victim: displaced.valid.then_some(Victim {
                            line: displaced.line,
                            dirty: displaced.dirty,
                        }),
                    });
                } else if displaced.valid {
                    probe.on_event(&Event::MainEvict {
                        line: displaced.line,
                        dirty: displaced.dirty,
                    });
                }
            }
            if l == line {
                Self::note_temporal(&self.cfg, self.main.entry_mut(l, way), a);
            }
            if displaced.valid {
                if displaced.dirty {
                    dirty_victims += 1;
                }
                self.bounce_insert(sys, probe, displaced, &needed, lru_hint.take());
            }
        }

        // Coherence with the bounce-back cache (§2.2): it is checked after
        // the requests have gone out; a physical line found there keeps
        // the bounce-back copy and invalidates the incoming one. The
        // demanded line itself can never be there (it would have hit).
        // One pass over the bounce-back entries collects the fetched
        // lines it holds (only a fetched line can be stale: a line of the
        // block that was already in the main cache is not in the
        // bounce-back cache); they are invalidated in request order.
        if let Some(bb) = self.bounce.as_ref().filter(|_| needed.len() > 1) {
            let mut stale = std::mem::take(&mut self.stale_buf);
            stale.clear();
            stale.extend(
                bb.entries()
                    .iter()
                    .filter(|e| e.valid && e.line != line && block.contains(&e.line))
                    .map(|e| e.line)
                    .filter(|l| needed.contains(l)),
            );
            stale.sort_unstable();
            stale.dedup();
            for &l in &stale {
                let gone = self.main.invalidate(l);
                if P::ENABLED {
                    if let Some(e) = gone {
                        probe.on_event(&Event::MainEvict {
                            line: e.line,
                            dirty: e.dirty,
                        });
                    }
                }
            }
            self.stale_buf = stale;
        }

        // Dirty-victim transfers hide under the miss penalty; any excess
        // shows up as stall (§2.1).
        sys.hide_transfers(dirty_victims);

        // Software-assisted prefetch: also fetch the line following the
        // virtual line (§4.4).
        if self.cfg.prefetch && self.cfg.use_spatial && a.spatial() {
            let penalty = sys.fetch_cycles(needed.len() as u64);
            let ready = sys.now() + penalty + sys.line_transfer_cycles();
            self.issue_prefetch(sys, probe, block.end, ready);
        }
        self.needed_buf = needed;
    }
}

impl<P: Probe> CachePolicy<P> for SoftPolicy {
    #[inline]
    fn geometry(&self) -> CacheGeometry {
        self.cfg.geometry
    }

    #[inline]
    fn before_access(&mut self, sys: &mut MemorySystem, probe: &mut P) {
        // A lane engine carries no prefetch, so nothing is ever in
        // flight: it never reads the clock here.
        if self.next_ready != u64::MAX && sys.now() >= self.next_ready {
            self.settle_prefetch(sys, probe);
        }
    }

    #[inline]
    fn probe_main(&mut self, line: u64) -> Option<usize> {
        self.main.probe(line)
    }

    #[inline]
    fn touch_hit(&mut self, idx: usize, a: &Access) {
        let entry = self.main.entry_at_mut(idx);
        if a.kind().is_write() {
            entry.dirty = true;
        }
        if self.cfg.use_temporal && a.temporal() {
            entry.temporal = true;
        }
        entry.prefetched = false;
    }

    fn miss(&mut self, sys: &mut MemorySystem, probe: &mut P, line: u64, a: &Access) {
        // One pass over the bounce-back set: a hit swaps with the
        // conflicting main line; a miss learns the set's LRU way.
        let bb_lru = match self
            .bounce
            .as_mut()
            .map(|bb| bb.take_or_victim(line, Evict::Lru))
        {
            Some(Ok((way, entry))) => {
                let cycles = self.bounce_hit(sys, probe, entry, Some(way), a);
                sys.spend(cycles);
                sys.lock(SWAP_LOCK_CYCLES);
                return;
            }
            Some(Err(way)) => Some(way),
            None => None,
        };

        // Hit on an in-flight prefetched line: wait for it, then treat
        // it as a bounce-back hit without a vacated way.
        if let Some(pos) = self.inflight.iter().position(|p| p.line == line) {
            let p = self.inflight.remove(pos);
            let wait = p.ready_at.saturating_sub(sys.now());
            let entry = Entry {
                line,
                valid: true,
                dirty: false,
                temporal: false,
                prefetched: true,
                lru: 0,
            };
            self.prefetched_resident += 1; // bounce_hit will decrement
            let cycles = self.bounce_hit(sys, probe, entry, None, a);
            sys.spend(cycles.max(wait));
            sys.lock(SWAP_LOCK_CYCLES);
            return;
        }

        self.full_miss(sys, probe, line, a, bb_lru);
    }

    fn flush(&mut self) -> u64 {
        let mut wbs = self.main.invalidate_all();
        if let Some(bb) = &mut self.bounce {
            wbs += bb.invalidate_all();
        }
        self.inflight.clear();
        self.next_ready = u64::MAX;
        self.prefetched_resident = 0;
        wbs
    }

    fn prefetches(&self) -> bool {
        self.cfg.prefetch
    }
}

/// The paper's software-assisted cache: a main cache with virtual-line
/// fills, backed by a bounce-back cache, optionally with software-biased
/// replacement and progressive prefetching. See the crate docs for the
/// mechanism summary and [`SoftCacheConfig`] for the presets.
///
/// This is [`SoftPolicy`] run by the shared [`CacheEngine`], built with
/// [`CacheEngine::new`], [`CacheEngine::with_probe`] (typed
/// miss/bounce/swap/prefetch/fill events, see [`Probe`]) or, without
/// prefetch, [`CacheEngine::with_lanes`].
pub type SoftCache<P = NoopProbe> = CacheEngine<SoftPolicy, P>;

#[cfg(test)]
mod tests {
    use super::*;
    use sac_simcache::CacheSim;
    use sac_trace::Trace;

    /// 4-line direct-mapped main cache, 2-line bounce-back cache,
    /// 64-byte virtual lines.
    fn tiny(cfg_mut: impl FnOnce(&mut SoftCacheConfig)) -> SoftCache {
        let mut cfg = SoftCacheConfig::soft()
            .with_geometry(CacheGeometry::new(128, 32, 1))
            .with_bounce_lines(2);
        cfg.virtual_line_bytes = 64;
        cfg_mut(&mut cfg);
        SoftCache::new(SoftPolicy::new(cfg), cfg.memory)
    }

    fn read(line: u64) -> Access {
        Access::read(line * 32)
    }

    #[test]
    fn spatial_miss_fills_virtual_line() {
        let mut c = tiny(|_| {});
        c.access(&read(0).with_spatial(true));
        c.access(&read(1).with_spatial(true));
        let m = c.metrics();
        assert_eq!(m.misses, 1);
        assert_eq!(m.main_hits, 1);
        assert_eq!(m.lines_fetched, 2);
        // Penalty: 20 + 2*32/16 = 24 cycles, then a 1-cycle hit.
        assert_eq!(m.mem_cycles, 25);
    }

    #[test]
    fn untagged_miss_fetches_one_line() {
        let mut c = tiny(|_| {});
        c.access(&read(0));
        c.access(&read(1));
        let m = c.metrics();
        assert_eq!(m.misses, 2);
        assert_eq!(m.lines_fetched, 2);
    }

    #[test]
    fn spatial_tag_ignored_when_disabled() {
        let mut c = tiny(|cfg| cfg.use_spatial = false);
        c.access(&read(0).with_spatial(true));
        assert_eq!(c.metrics().lines_fetched, 1);
    }

    #[test]
    fn virtual_line_skips_present_lines() {
        let mut c = tiny(|_| {});
        c.access(&read(1)); // line 1 cached alone
        c.access(&read(0).with_spatial(true)); // virtual pair {0,1}: only 0 fetched
        let m = c.metrics();
        assert_eq!(m.lines_fetched, 2);
        assert_eq!(m.misses, 2);
    }

    #[test]
    fn victims_go_to_bounce_back_cache() {
        let mut c = tiny(|_| {});
        c.access(&read(0));
        c.access(&read(4)); // conflicts with 0 (4 sets)
        c.access(&read(0)); // bounce-back hit
        let m = c.metrics();
        assert_eq!(m.aux_hits, 1);
        assert_eq!(m.swaps, 1);
    }

    #[test]
    fn temporal_eviction_bounces_back() {
        let mut c = tiny(|_| {});
        // Line 0 is temporal; lines 4, 8, 12 conflict with it (set 0).
        c.access(&read(0).with_temporal(true));
        c.access(&read(4)); // 0 → BB (temporal bit set)
        c.access(&read(8)); // 4 → BB
        c.access(&read(12)); // 8 → BB; BB full (2): evicts 0 → BOUNCE to main
                             // 0 bounced into set 0 displacing 12... no: 12 is being filled.
                             // set 0 is being filled, so the bounce is cancelled. Use a non-conflicting
                             // filler instead.
        let m = c.metrics();
        assert_eq!(m.bounces, 0, "bounce into the fill target is cancelled");
    }

    #[test]
    fn bounce_restores_temporal_line_to_main() {
        let mut c = tiny(|_| {});
        c.access(&read(0).with_temporal(true));
        c.access(&read(4)); // 0d? no, clean → BB {0t}
        c.access(&read(1)); // set 1, displaces nothing
        c.access(&read(5)); // set 1: 1 → BB {0t, 1}
        c.access(&read(9)); // set 1: 5 → BB evicts LRU = 0 (temporal) → bounce to set 0
        assert_eq!(c.metrics().bounces, 1);
        // Line 0 is back in main: hit at 1 cycle.
        let before = c.metrics().mem_cycles;
        c.access(&read(0));
        assert_eq!(c.metrics().mem_cycles - before, 1);
    }

    #[test]
    fn bounced_line_loses_temporal_bit() {
        let mut c = tiny(|_| {});
        c.access(&read(0).with_temporal(true));
        c.access(&read(4));
        c.access(&read(1));
        c.access(&read(5));
        c.access(&read(9)); // bounce 0 back (temporal bit reset)
        assert_eq!(c.metrics().bounces, 1);
        // Now evict 0 again without touching it with a temporal access;
        // it must NOT bounce again (dead-data protection).
        c.access(&read(4).with_gap(100)); // 0 → BB (clean, non-temporal now)
        c.access(&read(13));
        c.access(&read(2)); // fill BB pressure in other sets
        c.access(&read(6));
        c.access(&read(10));
        assert_eq!(c.metrics().bounces, 1, "no second bounce for dead data");
    }

    #[test]
    fn non_temporal_eviction_is_discarded() {
        let mut c = tiny(|_| {});
        c.access(&read(0)); // no tags
        c.access(&read(4));
        c.access(&read(1));
        c.access(&read(5));
        c.access(&read(9)); // BB evicts 0 (non-temporal) → discard
        assert_eq!(c.metrics().bounces, 0);
        // Line 0 gone: full miss again.
        let misses = c.metrics().misses;
        c.access(&read(0));
        assert_eq!(c.metrics().misses, misses + 1);
    }

    #[test]
    fn temporal_disabled_means_plain_victim_cache() {
        let mut c = tiny(|cfg| cfg.use_temporal = false);
        c.access(&read(0).with_temporal(true));
        c.access(&read(4));
        c.access(&read(1));
        c.access(&read(5));
        c.access(&read(9));
        assert_eq!(c.metrics().bounces, 0);
    }

    #[test]
    fn swap_cost_and_lock_match_spec() {
        let mut c = tiny(|_| {});
        c.access(&read(0));
        c.access(&read(4));
        let before = c.metrics().mem_cycles;
        c.access(&read(0)); // BB hit: 3 cycles
        assert_eq!(
            c.metrics().mem_cycles - before,
            sac_simcache::AUX_HIT_CYCLES
        );
        let before = c.metrics().mem_cycles;
        c.access(&read(0)); // arrives 1 cycle later: 1 stall + 1 hit
        assert_eq!(c.metrics().mem_cycles - before, 2);
    }

    #[test]
    fn bb_coherence_invalidates_incoming_copy() {
        let mut c = tiny(|_| {});
        // Put line 1 into the BB cache: fill set 1 with line 1 then 5.
        c.access(&read(1).with_temporal(true));
        c.access(&read(5)); // 1 → BB
                            // Virtual fill of {0,1}: line 1 is in BB → its main copy must be
                            // invalidated, BB copy stays.
        c.access(&read(0).with_spatial(true));
        // Line 1 should hit in the BB cache, not in main.
        let aux_before = c.metrics().aux_hits;
        c.access(&read(1));
        assert_eq!(c.metrics().aux_hits, aux_before + 1);
    }

    #[test]
    fn write_allocates_dirty_and_writes_back_once() {
        let mut c = tiny(|_| {});
        c.access(&Access::write(0));
        c.access(&read(4)); // dirty 0 → BB
        c.access(&read(1));
        c.access(&read(5)); // 1 → BB
        c.access(&read(9)); // BB evicts dirty non-temporal 0 → write buffer
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn prefer_nontemporal_replacement_protects_temporal_ways() {
        let mut cfg =
            SoftCacheConfig::simplified_assoc(2).with_geometry(CacheGeometry::new(128, 32, 2));
        cfg.bounce_lines = 0;
        cfg.replacement = Replacement::PreferNonTemporal;
        cfg.virtual_line_bytes = 32;
        let mut c = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        // Two lines in set 0 (2 sets): line 0 temporal, line 2 not.
        c.access(&read(0).with_temporal(true));
        c.access(&read(2));
        c.access(&read(4)); // victim = non-temporal line 2
        let misses = c.metrics().misses;
        c.access(&read(0)); // still cached
        assert_eq!(c.metrics().misses, misses);
    }

    #[test]
    fn progressive_prefetch_chains() {
        let mut c = tiny(|cfg| cfg.prefetch = true);
        // Spatial miss on {0,1} prefetches line 2 into the BB cache.
        c.access(&read(0).with_spatial(true));
        c.access(&read(2).with_gap(200).with_spatial(true)); // prefetched → BB hit
        let m = c.metrics();
        assert!(m.prefetches >= 2, "hit re-arms the prefetcher");
        assert_eq!(m.useful_prefetches, 1);
        assert_eq!(m.misses, 1);
    }

    #[test]
    fn prefetch_cap_limits_bb_occupancy() {
        let mut c = tiny(|cfg| {
            cfg.prefetch = true;
            cfg.max_prefetched = 1;
        });
        // Generate several prefetches across distinct virtual lines.
        c.access(&read(0).with_spatial(true).with_gap(100));
        c.access(&read(8).with_spatial(true).with_gap(100));
        c.access(&read(16).with_spatial(true).with_gap(100));
        assert!(c.policy().prefetched_resident <= 1);
    }

    #[test]
    fn variable_vlines_follow_the_reference_level() {
        let mut cfg = SoftCacheConfig::soft().with_variable_vlines(true);
        cfg.bounce_lines = 0;
        let mut c = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        // Level 3: one miss fills 8 physical lines (256 B).
        c.access(&read(0).with_spatial(true).with_spatial_level(3));
        assert_eq!(c.metrics().lines_fetched, 8);
        for l in 1..8u64 {
            c.access(&read(l).with_spatial(true).with_spatial_level(3));
        }
        assert_eq!(c.metrics().misses, 1);
        // Level 0 falls back to the configured default (64 B).
        c.access(&read(64).with_spatial(true));
        assert_eq!(c.metrics().lines_fetched, 8 + 2);
    }

    #[test]
    fn variable_vlines_ignored_when_disabled() {
        let cfg = SoftCacheConfig::soft();
        let mut c = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        c.access(&read(0).with_spatial(true).with_spatial_level(3));
        assert_eq!(c.metrics().lines_fetched, 2, "default 64 B fill");
    }

    #[test]
    fn prefetch_degree_issues_multiple_lines() {
        let mut c = tiny(|cfg| {
            cfg.prefetch = true;
            cfg.prefetch_degree = 2;
        });
        c.access(&read(0).with_spatial(true).with_gap(200));
        // The virtual pair {0,1} was fetched; lines 2 and 3 prefetched.
        assert_eq!(c.metrics().prefetches, 2);
        let misses = c.metrics().misses;
        c.access(&read(2).with_gap(300));
        c.access(&read(3).with_gap(300));
        assert_eq!(c.metrics().misses, misses, "both prefetches useful");
        assert_eq!(c.metrics().useful_prefetches, 2);
    }

    #[test]
    fn dirty_bounce_into_fill_target_goes_to_write_buffer() {
        // A dirty temporal line whose bounce destination is being filled
        // by the current miss is written back instead of bounced (§2.2:
        // "it is sent to the write buffer and the bounce-back operation
        // is canceled").
        let mut c = tiny(|_| {});
        c.access(&Access::write(0).with_temporal(true)); // dirty temporal, set 0
        c.access(&read(4)); // dirty 0 → BB
        c.access(&read(1)); // set 1
        c.access(&read(5)); // 1 → BB (BB now {0d, 1})
                            // Miss on set 0: BB must evict LRU = dirty temporal 0, whose home
                            // set is exactly the fill target → cancelled bounce + write-back.
        c.access(&read(8));
        let m = c.metrics();
        assert_eq!(m.bounces, 0);
        assert_eq!(m.writebacks, 1);
    }

    #[test]
    fn bb_write_hit_marks_dirty_through_the_swap() {
        let mut c = tiny(|_| {});
        c.access(&read(0));
        c.access(&read(4)); // 0 → BB
        c.access(&Access::write(0)); // BB hit with a store
        c.access(&read(4)); // swap dirty 0 back to BB
        c.access(&read(1));
        c.access(&read(5));
        c.access(&read(9)); // BB evicts dirty non-temporal 0 → write buffer
        assert_eq!(c.metrics().writebacks, 1);
    }

    #[test]
    fn fill_buffer_peak_matches_the_vline_span() {
        let mut c = tiny(|_| {});
        assert_eq!(c.policy().fill_buffer_peak(), 0);
        c.access(&read(0).with_spatial(true)); // 64 B fill: 2 lines in flight
        assert_eq!(c.policy().fill_buffer_peak(), 2);
        c.access(&read(8)); // single-line miss does not deepen it
        assert_eq!(c.policy().fill_buffer_peak(), 2);
    }

    #[test]
    fn chunked_replay_matches_per_access_replay() {
        let trace: Trace = (0..20_000u64)
            .map(|i| {
                let a = if i % 11 == 0 {
                    Access::write((i % 4000) * 8)
                } else {
                    Access::read((i % 3000) * 8)
                };
                a.with_spatial(i % 3 != 0)
                    .with_temporal(i % 7 == 0)
                    .with_gap((i % 6) as u32)
            })
            .collect();
        let mut cfg = SoftCacheConfig::soft();
        cfg.prefetch = true;
        let mut per_access = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        for a in &trace {
            per_access.access(a);
        }
        let mut chunked = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        for chunk in trace.as_slice().chunks(512) {
            chunked.run_chunk(chunk);
        }
        assert_eq!(per_access.metrics(), chunked.metrics());
    }

    fn soft_trace(len: u64) -> Trace {
        (0..len)
            .map(|i| {
                let a = if i % 11 == 0 {
                    Access::write((i % 900) * 8)
                } else {
                    Access::read((i % 700) * 8)
                };
                a.with_spatial(i % 3 != 0)
                    .with_temporal(i % 7 == 0)
                    .with_gap((i % 6) as u32)
            })
            .collect()
    }

    #[test]
    fn metrics_invariants_hold_throughout_a_run() {
        let mut cfg = SoftCacheConfig::soft();
        cfg.prefetch = true;
        let mut c = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        let trace = soft_trace(5_000);
        for chunk in trace.as_slice().chunks(256) {
            c.run_chunk(chunk);
            c.metrics().check_invariants().unwrap();
        }
        let m = c.metrics();
        assert_eq!(m.refs, m.reads + m.writes);
        assert_eq!(m.main_hits + m.aux_hits + m.misses + m.bypasses, m.refs);
    }

    #[test]
    fn tracing_probe_counts_match_metrics_exactly() {
        use sac_obs::{ObsConfig, TracingProbe};
        let mut cfg = SoftCacheConfig::soft();
        cfg.prefetch = true;
        let geom = cfg.geometry;
        let probe = TracingProbe::new(ObsConfig::for_cache(
            geom.lines(),
            geom.sets(),
            geom.line_bytes(),
        ));
        let mut c = SoftCache::with_probe(SoftPolicy::new(cfg), cfg.memory, probe);
        let trace = soft_trace(20_000);
        for chunk in trace.as_slice().chunks(512) {
            c.run_chunk(chunk);
        }
        c.invalidate_all();
        c.probe_mut().finish();
        let m = *c.metrics();
        m.reconcile_classified(c.into_probe().counts()).unwrap();
    }

    #[test]
    fn probed_run_leaves_metrics_untouched() {
        use sac_obs::EventCounts;
        let mut cfg = SoftCacheConfig::soft();
        cfg.prefetch = true;
        let trace = soft_trace(10_000);
        let mut plain = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        plain.run(&trace);
        let mut probed =
            SoftCache::with_probe(SoftPolicy::new(cfg), cfg.memory, EventCounts::default());
        probed.run(&trace);
        assert_eq!(plain.metrics(), probed.metrics());
        probed.metrics().reconcile_events(probed.probe()).unwrap();
    }

    #[test]
    #[should_panic(expected = "prefetch ready times need a single lane")]
    fn a_lane_engine_refuses_a_prefetching_policy() {
        // Refused when the engine is built, in every build profile: a
        // lane engine cannot time prefetches (the clock reads behind
        // them are only debug-asserted).
        let cfg = SoftCacheConfig::soft().with_prefetch(true);
        let _ = CacheEngine::with_lanes(SoftPolicy::new(cfg), cfg.memory, &[20, 40]);
    }

    #[test]
    fn soft_defaults_run_a_real_trace() {
        let cfg = SoftCacheConfig::soft();
        let mut c = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
        let trace: Trace = (0..10_000u64)
            .map(|i| {
                Access::read((i % 3000) * 8)
                    .with_spatial(true)
                    .with_temporal(i % 7 == 0)
            })
            .collect();
        c.run(&trace);
        let m = c.metrics();
        assert_eq!(m.refs, 10_000);
        assert_eq!(m.main_hits + m.aux_hits + m.misses, 10_000);
        assert!(m.amat() >= 1.0);
    }
}
