//! Simulation metrics: the quantities the paper's figures plot.

use sac_obs::EventCounts;
use std::fmt;

/// Counters and derived metrics collected by every cache engine.
///
/// The figures of the paper are all derived from these fields:
/// AMAT (Figures 3, 6a, 8–12), miss ratio (Figure 7b), memory traffic in
/// words fetched per reference (Figure 7a), and the main/bounce-back hit
/// repartition (Figure 6b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total references processed.
    pub refs: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Hits served by the main cache (1 cycle).
    pub main_hits: u64,
    /// Hits served by the auxiliary cache — victim, bounce-back or
    /// prefetch buffer (3 cycles).
    pub aux_hits: u64,
    /// References that went to memory.
    pub misses: u64,
    /// Non-allocating references serviced straight from memory (bypass
    /// organizations only).
    pub bypasses: u64,
    /// Total access cost in cycles (the AMAT numerator).
    pub mem_cycles: u64,
    /// Physical lines fetched from memory (demand + prefetch).
    pub lines_fetched: u64,
    /// Words fetched from memory (the Figure 7a numerator).
    pub words_fetched: u64,
    /// Dirty lines sent to the write buffer.
    pub writebacks: u64,
    /// Lines bounced back from the bounce-back cache to the main cache.
    pub bounces: u64,
    /// Swaps between main and auxiliary cache.
    pub swaps: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Prefetched lines that were referenced before eviction.
    pub useful_prefetches: u64,
    /// Cycles lost waiting on a locked cache (post-swap lock, write-buffer
    /// pressure).
    pub stall_cycles: u64,
}

/// Compact per-chunk counter deltas bumped on the replay engine's hit
/// fast path and folded into [`Metrics`] at chunk boundaries via
/// [`Metrics::apply_chunk`].
///
/// A main-cache hit can only touch a handful of counters (reference
/// bookkeeping, the hit itself, its cycle cost and any lock stall), so
/// the fast path updates this 24-byte struct — which lives in a register
/// or a single cache line — instead of the full [`Metrics`] block. The
/// per-chunk counts fit comfortably in `u32` for any practical chunk
/// size; cycle totals stay `u64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkDelta {
    /// References processed on the fast path.
    pub refs: u32,
    /// Stores among them (loads are `refs - writes`).
    pub writes: u32,
    /// Main-cache hits (on the fast path, every reference is one).
    pub main_hits: u32,
    /// Access cost in cycles accumulated by those hits.
    pub mem_cycles: u64,
    /// Cycles lost to cache locks before those hits.
    pub stall_cycles: u64,
}

impl ChunkDelta {
    /// Creates a zeroed delta.
    #[inline]
    pub fn new() -> Self {
        ChunkDelta::default()
    }

    /// Records one main-cache hit: `cost` access cycles after `stall`
    /// lock-wait cycles.
    #[inline]
    pub fn record_hit(&mut self, is_write: bool, cost: u64, stall: u64) {
        self.refs += 1;
        self.writes += u32::from(is_write);
        self.main_hits += 1;
        self.mem_cycles += cost;
        self.stall_cycles += stall;
    }

    /// True if nothing has been recorded since the last reset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.refs == 0
    }
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records bookkeeping common to every reference.
    pub fn record_ref(&mut self, is_write: bool) {
        self.refs += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    /// Records the fetch of `lines` physical lines of `line_bytes` bytes.
    pub fn record_fetch(&mut self, lines: u64, line_bytes: u64) {
        self.lines_fetched += lines;
        self.words_fetched += lines * line_bytes / sac_trace::WORD_BYTES;
    }

    /// Average memory access time in cycles (Figures 3, 6a, 8–12).
    pub fn amat(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.mem_cycles as f64 / self.refs as f64
        }
    }

    /// Miss ratio: references serviced by memory over total references
    /// (Figure 7b). Bypassed references count as misses — they pay a
    /// memory access.
    pub fn miss_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            (self.misses + self.bypasses) as f64 / self.refs as f64
        }
    }

    /// Hit ratio (main + auxiliary).
    pub fn hit_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            (self.main_hits + self.aux_hits) as f64 / self.refs as f64
        }
    }

    /// Words fetched from memory per reference (Figure 7a).
    pub fn traffic_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.words_fetched as f64 / self.refs as f64
        }
    }

    /// Fraction of all hits served by the main cache (Figure 6b).
    pub fn main_hit_share(&self) -> f64 {
        let hits = self.main_hits + self.aux_hits;
        if hits == 0 {
            0.0
        } else {
            self.main_hits as f64 / hits as f64
        }
    }

    /// Main-cache hits over total references (Figure 6b stacks hit ratios).
    pub fn main_hit_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.main_hits as f64 / self.refs as f64
        }
    }

    /// Auxiliary-cache hits over total references.
    pub fn aux_hit_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.aux_hits as f64 / self.refs as f64
        }
    }

    /// A copy of the current counters — the value an engine hands to the
    /// sweep runner's aggregator while it keeps simulating.
    pub fn snapshot(&self) -> Metrics {
        *self
    }

    /// Accumulates another metrics block into this one. All counters are
    /// additive, so merging per-shard metrics yields exactly the counters
    /// a single sequential run over the concatenated work would produce;
    /// derived ratios (AMAT, miss ratio, traffic) are recomputed from the
    /// merged counters.
    pub fn merge(&mut self, other: &Metrics) {
        self.refs += other.refs;
        self.reads += other.reads;
        self.writes += other.writes;
        self.main_hits += other.main_hits;
        self.aux_hits += other.aux_hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
        self.mem_cycles += other.mem_cycles;
        self.lines_fetched += other.lines_fetched;
        self.words_fetched += other.words_fetched;
        self.writebacks += other.writebacks;
        self.bounces += other.bounces;
        self.swaps += other.swaps;
        self.prefetches += other.prefetches;
        self.useful_prefetches += other.useful_prefetches;
        self.stall_cycles += other.stall_cycles;
    }

    /// Merges an iterator of metrics blocks into one (the deterministic
    /// reduce step of the parallel sweep runner).
    pub fn merged<'a>(blocks: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let mut total = Metrics::new();
        for b in blocks {
            total.merge(b);
        }
        total
    }

    /// Folds a fast-path hit delta into the full counters (the chunk
    /// boundary of the replay engine's hit fast path). Only the counters
    /// a main-cache hit can touch are carried by [`ChunkDelta`]; all of
    /// them are additive, so applying the delta at the end of a chunk
    /// yields exactly the counters per-access bumping would have.
    #[inline]
    pub fn apply_chunk(&mut self, d: &ChunkDelta) {
        self.refs += d.refs as u64;
        self.writes += d.writes as u64;
        self.reads += (d.refs - d.writes) as u64;
        self.main_hits += d.main_hits as u64;
        self.mem_cycles += d.mem_cycles;
        self.stall_cycles += d.stall_cycles;
    }

    /// Checks the counter conservation laws every engine must maintain
    /// at reference boundaries: every reference is a read or a write
    /// (`refs == reads + writes`), and every reference is serviced
    /// exactly once (`main_hits + aux_hits + misses + bypasses ==
    /// refs`).
    ///
    /// Engines call [`Metrics::debug_check_invariants`] (a
    /// `debug_assert` wrapper) after every access and at every chunk
    /// boundary; mid-reference and mid-chunk states legitimately
    /// violate the laws (a [`ChunkDelta`] holds unfolded hits), so the
    /// check only makes sense at those boundaries.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.refs != self.reads + self.writes {
            return Err(format!(
                "refs ({}) != reads ({}) + writes ({})",
                self.refs, self.reads, self.writes
            ));
        }
        let serviced = self.main_hits + self.aux_hits + self.misses + self.bypasses;
        if serviced != self.refs {
            return Err(format!(
                "main_hits ({}) + aux_hits ({}) + misses ({}) + bypasses ({}) = {} != refs ({})",
                self.main_hits, self.aux_hits, self.misses, self.bypasses, serviced, self.refs
            ));
        }
        Ok(())
    }

    /// The counters a probe's event stream backs, one rule per counter:
    /// references by direction; one `Miss`, `AuxHit`, `Bypass`,
    /// `BounceBack`, `Swap`, `PrefetchIssue` or `PrefetchUse` per bump
    /// of `misses`, `aux_hits`, `bypasses`, `bounces`, `swaps`,
    /// `prefetches` or `useful_prefetches`; `writebacks` as counted
    /// (flush write-backs included); `lines_fetched` as `LineFill` plus
    /// `PrefetchIssue`; and `main_hits` by the service identity of
    /// [`Metrics::check_invariants`]. The cycle and word counters are
    /// not event-backed and stay zero.
    pub fn from_events(c: &EventCounts) -> Metrics {
        Metrics {
            refs: c.refs,
            reads: c.reads,
            writes: c.writes,
            main_hits: c.refs.saturating_sub(c.aux_hits + c.misses + c.bypasses),
            aux_hits: c.aux_hits,
            misses: c.misses,
            bypasses: c.bypasses,
            lines_fetched: c.line_fills + c.prefetch_issues,
            writebacks: c.writebacks,
            bounces: c.bounces,
            swaps: c.swaps,
            prefetches: c.prefetch_issues,
            useful_prefetches: c.prefetch_uses,
            ..Metrics::default()
        }
    }

    /// The reconciliation of a probe's event counts against these
    /// counters: every event-backed counter ([`Metrics::from_events`])
    /// must match exactly. For counts a shadow classifier fed, use
    /// [`Metrics::reconcile_classified`].
    ///
    /// # Errors
    ///
    /// Names the first counter that disagrees.
    pub fn reconcile_events(&self, c: &EventCounts) -> Result<(), String> {
        let e = Metrics::from_events(c);
        let pairs = [
            ("refs", e.refs, self.refs),
            ("reads", e.reads, self.reads),
            ("writes", e.writes, self.writes),
            ("main_hits", e.main_hits, self.main_hits),
            ("aux_hits", e.aux_hits, self.aux_hits),
            ("misses", e.misses, self.misses),
            ("bypasses", e.bypasses, self.bypasses),
            ("bounces", e.bounces, self.bounces),
            ("swaps", e.swaps, self.swaps),
            ("prefetches", e.prefetches, self.prefetches),
            (
                "useful_prefetches",
                e.useful_prefetches,
                self.useful_prefetches,
            ),
            ("writebacks", e.writebacks, self.writebacks),
            ("lines_fetched", e.lines_fetched, self.lines_fetched),
        ];
        for (name, events, counter) in pairs {
            if events != counter {
                return Err(format!(
                    "{name}: events say {events}, metrics say {counter}"
                ));
            }
        }
        Ok(())
    }

    /// [`Metrics::reconcile_events`] for counts whose probe classifies
    /// every miss: the 3C causes must also partition the misses.
    ///
    /// # Errors
    ///
    /// Names the first counter that disagrees.
    pub fn reconcile_classified(&self, c: &EventCounts) -> Result<(), String> {
        self.reconcile_events(c)?;
        let three_c = c.compulsory + c.capacity + c.conflict;
        if three_c != c.misses {
            return Err(format!(
                "miss causes sum to {three_c} but misses = {}",
                c.misses
            ));
        }
        Ok(())
    }

    /// Debug-build assertion of [`Metrics::check_invariants`]; free in
    /// release builds, so engines can call it on their per-access path.
    #[inline]
    pub fn debug_check_invariants(&self) {
        debug_assert!(
            {
                let r = self.check_invariants();
                if let Err(ref e) = r {
                    eprintln!("metrics invariant violated: {e}");
                }
                r.is_ok()
            },
            "metrics invariant violated"
        );
    }

    /// Percentage of this configuration's misses removed relative to a
    /// baseline (Figure 9a), e.g.
    /// `soft.metrics().misses_removed_vs(&standard.metrics())`.
    pub fn misses_removed_vs(&self, baseline: &Metrics) -> f64 {
        let base = baseline.misses + baseline.bypasses;
        if base == 0 {
            0.0
        } else {
            100.0 * (base as f64 - (self.misses + self.bypasses) as f64) / base as f64
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs={} amat={:.3} miss={:.4} traffic={:.3} (main {} / aux {} / miss {})",
            self.refs,
            self.amat(),
            self.miss_ratio(),
            self.traffic_ratio(),
            self.main_hits,
            self.aux_hits,
            self.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let m = Metrics {
            refs: 100,
            main_hits: 80,
            aux_hits: 10,
            misses: 10,
            mem_cycles: 300,
            words_fetched: 40,
            ..Metrics::default()
        };
        assert!((m.amat() - 3.0).abs() < 1e-12);
        assert!((m.miss_ratio() - 0.1).abs() < 1e-12);
        assert!((m.hit_ratio() - 0.9).abs() < 1e-12);
        assert!((m.traffic_ratio() - 0.4).abs() < 1e-12);
        assert!((m.main_hit_share() - 80.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = Metrics::new();
        assert_eq!(m.amat(), 0.0);
        assert_eq!(m.miss_ratio(), 0.0);
        assert_eq!(m.main_hit_share(), 0.0);
    }

    #[test]
    fn misses_removed_percentage() {
        let base = Metrics {
            misses: 200,
            ..Metrics::default()
        };
        let improved = Metrics {
            misses: 150,
            ..Metrics::default()
        };
        assert!((improved.misses_removed_vs(&base) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn bypasses_count_as_misses() {
        let m = Metrics {
            refs: 10,
            bypasses: 5,
            misses: 1,
            ..Metrics::default()
        };
        assert!((m.miss_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_is_counterwise_addition() {
        let a = Metrics {
            refs: 10,
            reads: 6,
            writes: 4,
            main_hits: 7,
            misses: 3,
            mem_cycles: 70,
            words_fetched: 12,
            ..Metrics::default()
        };
        let b = Metrics {
            refs: 5,
            reads: 5,
            main_hits: 5,
            mem_cycles: 5,
            stall_cycles: 2,
            ..Metrics::default()
        };
        let mut m = a.snapshot();
        m.merge(&b);
        assert_eq!(m.refs, 15);
        assert_eq!(m.reads, 11);
        assert_eq!(m.main_hits, 12);
        assert_eq!(m.mem_cycles, 75);
        assert_eq!(m.stall_cycles, 2);
        assert_eq!(Metrics::merged([&a, &b]), m);
        // AMAT is recomputed over the merged counters.
        assert!((m.amat() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merged_of_nothing_is_zero() {
        assert_eq!(Metrics::merged([]), Metrics::new());
    }

    #[test]
    fn chunk_delta_folds_exactly_like_per_access_bumping() {
        // Per-access path: record_ref + hit bookkeeping.
        let mut direct = Metrics::new();
        for i in 0..5u64 {
            let is_write = i % 2 == 0;
            direct.record_ref(is_write);
            direct.main_hits += 1;
            direct.mem_cycles += 1;
        }
        direct.stall_cycles += 4;

        // Fast path: the same hits through a delta.
        let mut folded = Metrics::new();
        let mut d = ChunkDelta::new();
        assert!(d.is_empty());
        for i in 0..5u64 {
            d.record_hit(i % 2 == 0, 1, if i == 0 { 4 } else { 0 });
        }
        assert!(!d.is_empty());
        folded.apply_chunk(&d);
        assert_eq!(folded, direct);
    }

    #[test]
    fn invariants_accept_conserved_counters() {
        let m = Metrics {
            refs: 10,
            reads: 6,
            writes: 4,
            main_hits: 5,
            aux_hits: 2,
            misses: 2,
            bypasses: 1,
            ..Metrics::default()
        };
        assert!(m.check_invariants().is_ok());
        m.debug_check_invariants();
    }

    #[test]
    fn invariants_reject_leaked_references() {
        let mut m = Metrics {
            refs: 10,
            reads: 10,
            main_hits: 9,
            ..Metrics::default()
        };
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("!= refs"), "{err}");
        m.reads = 9; // refs != reads + writes now
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("reads"), "{err}");
    }

    #[test]
    fn record_fetch_counts_words() {
        let mut m = Metrics::new();
        m.record_fetch(2, 32);
        assert_eq!(m.lines_fetched, 2);
        assert_eq!(m.words_fetched, 8);
    }
}
