//! The shared memory-system core and the policy-driven cache engine.
//!
//! Every cache organization in this study charges the same costs for the
//! same actions: advance the clock by the issue gap, wait out any cache
//! lock, pay 1 cycle for a main-cache hit, pay `t_lat + n·LS/w_b` to
//! fetch `n` lines, push dirty victims through a timed write buffer, and
//! account everything in [`Metrics`]. [`MemorySystem`] owns exactly that
//! machinery — clock, bus, write buffer and counters — so the
//! organizations themselves reduce to *policies*: what to probe, what to
//! fill, where victims go.
//!
//! [`CacheEngine`] composes a [`CachePolicy`] with a [`MemorySystem`] and
//! an observer [`Probe`], and implements [`CacheSim`] once for all of
//! them: the per-access front-end, the chunked hit fast path with
//! [`ChunkDelta`] folding, and the [`Metrics::debug_check_invariants`]
//! boundary checks are written a single time instead of per engine.

use crate::clock::Clock;
use crate::{
    CacheGeometry, CacheSim, ChunkDelta, MemoryModel, Metrics, ProbedSim, SnoopBus, WriteBuffer,
    MAIN_HIT_CYCLES,
};
use sac_obs::{Event, NoopProbe, Probe};
use sac_trace::Access;

/// The timing and accounting core shared by every cache organization:
/// the cycle [`Clock`], the [`SnoopBus`] pricing memory transfers, the
/// dirty write-back [`WriteBuffer`] (8 entries retiring one line per bus
/// transfer, as in §2.1) and the [`Metrics`] block.
///
/// Policies never touch a clock, a bus or a write buffer directly; they
/// ask the memory system to fetch lines, write back victims or lock the
/// cache, and the memory system keeps the books. A uniprocessor system
/// owns its bus privately. Each core of the multi-core
/// [`crate::CoherentSystem`] keeps its own memory system for its write
/// buffer and books, while the system prices transactions on one shared
/// bus and hands one shared clock to whichever core acts.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    bus: SnoopBus,
    wb: WriteBuffer,
    clock: Clock,
    metrics: Metrics,
}

impl MemorySystem {
    /// Creates the memory system for a cache of `line_bytes`-byte lines:
    /// the standard 8-entry write buffer retires one line per bus
    /// transfer.
    pub fn new(mem: MemoryModel, line_bytes: u64) -> Self {
        MemorySystem {
            bus: SnoopBus::new(mem, line_bytes),
            wb: WriteBuffer::new(8, mem.transfer_cycles(line_bytes)),
            clock: Clock::new(),
            metrics: Metrics::new(),
        }
    }

    /// The memory/bus parameters.
    #[inline]
    pub fn memory(&self) -> MemoryModel {
        self.bus.memory()
    }

    /// The physical line size the write buffer and fetch costing use.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.bus.line_bytes()
    }

    /// The bus this system charges transfers through.
    #[inline]
    pub fn bus(&self) -> &SnoopBus {
        &self.bus
    }

    /// The bus, mutably (coherent drivers price snoop transactions
    /// directly).
    #[inline]
    pub fn bus_mut(&mut self) -> &mut SnoopBus {
        &mut self.bus
    }

    /// The metrics accumulated so far.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics, mutably (policies bump their organization-specific
    /// counters — `aux_hits`, `swaps`, `prefetches`, … — directly).
    #[inline]
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The current cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Advances the clock to the access's issue time and waits out any
    /// lock; returns the stall in cycles.
    #[inline]
    pub fn arrive(&mut self, gap: u32) -> u64 {
        self.clock.arrive(gap)
    }

    /// Advances the clock past an access without charging `mem_cycles`
    /// (the chunked fast path accounts hit costs in its [`ChunkDelta`]).
    #[inline]
    pub fn complete(&mut self, cost: u64) {
        self.clock.complete(cost);
    }

    /// Charges an access cost: `mem_cycles` grows by `cost` and the
    /// clock advances past it.
    #[inline]
    pub fn charge(&mut self, cost: u64) {
        self.metrics.mem_cycles += cost;
        self.clock.complete(cost);
    }

    /// Locks the cache for `extra` cycles beyond the current time (the
    /// post-swap lock of §2.2).
    #[inline]
    pub fn lock_for(&mut self, extra: u64) {
        self.clock.lock_for(extra);
    }

    /// Demand-fetches `lines` physical lines: records the traffic and
    /// returns the fetch cost `t_lat + n·LS/w_b`.
    #[inline]
    pub fn fetch_lines(&mut self, lines: u64) -> u64 {
        self.metrics.record_fetch(lines, self.bus.line_bytes());
        self.bus.fetch_cycles(lines)
    }

    /// Records the traffic of `lines` fetched lines whose cycles are
    /// charged elsewhere (prefetches issued behind a demand fetch).
    #[inline]
    pub fn record_fetch_traffic(&mut self, lines: u64) {
        self.metrics.record_fetch(lines, self.bus.line_bytes());
    }

    /// Bus cycles to transfer one cache line.
    #[inline]
    pub fn line_transfer_cycles(&self) -> u64 {
        self.bus.line_transfer_cycles()
    }

    /// Sends the dirty line `line` to the write buffer, counting the
    /// write-back; returns the stall (0 unless the buffer was full). The caller
    /// decides whether the stall is charged to `stall_cycles` — the
    /// organizations differ on whether write-buffer pressure hides under
    /// the miss penalty.
    #[inline]
    pub fn writeback(&mut self, line: u64) -> u64 {
        self.metrics.writebacks += 1;
        self.wb.push(self.clock.now(), line)
    }

    /// Pushes a bypassed store to `line` into the write buffer *without*
    /// counting a write-back (no cache line is being retired); returns the
    /// stall.
    #[inline]
    pub fn buffer_store(&mut self, line: u64) -> u64 {
        self.wb.push(self.clock.now(), line)
    }

    /// The clock, mutably: [`crate::CoherentSystem`] copies its one
    /// shared clock in before a core acts and back out after.
    #[inline]
    pub(crate) fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// Answers a bus snoop at cycle `now`: whether a pending write-buffer
    /// entry still holds `line` (see [`WriteBuffer::snoop`]).
    #[inline]
    pub(crate) fn buffer_holds(&self, now: u64, line: u64) -> bool {
        self.wb.snoop(now, line)
    }

    /// Whether a write-buffer push right now would stall (§2.2: a bounce
    /// over a dirty line is aborted when the buffer is full).
    #[inline]
    pub fn write_buffer_full(&mut self) -> bool {
        self.wb.is_full(self.clock.now())
    }
}

/// One cache organization, expressed as a replacement/fill policy over
/// the shared [`MemorySystem`].
///
/// The policy owns the tag state (main array plus any auxiliary
/// structure — victim cache, line buffer, prefetch buffer, bounce-back
/// cache) and decides what happens past the main-array probe. The
/// generic [`CacheEngine`] drives the common front-end: reference
/// bookkeeping, arrival, the main probe, the 1-cycle hit, cost charging
/// and the invariant checks.
pub trait CachePolicy<P: Probe> {
    /// The main-array geometry (address-to-line mapping).
    fn geometry(&self) -> CacheGeometry;

    /// Hook before the main-array probe — e.g. delivering in-flight
    /// prefetches that have arrived by now.
    #[inline]
    fn before_access(&mut self, _sys: &mut MemorySystem, _probe: &mut P) {}

    /// Probes the main array (with LRU side effect); `Some(index)` on a
    /// hit.
    fn probe_main(&mut self, line: u64) -> Option<usize>;

    /// Finishes a main-array hit: hint-bit updates on the hit entry
    /// (dirty on a store, temporal tag notes, …).
    fn touch_hit(&mut self, idx: usize, a: &Access);

    /// Everything past a main-array miss — auxiliary hit, bypass or a
    /// full miss. `stall` is the already-recorded arrival stall. Returns
    /// `(cost, lock)`: the total access cost *including* `stall`, and
    /// the cycles both arrays stay locked after completion (0 for no
    /// lock, [`crate::SWAP_LOCK_CYCLES`] after a swap).
    fn miss(
        &mut self,
        sys: &mut MemorySystem,
        probe: &mut P,
        line: u64,
        stall: u64,
        a: &Access,
    ) -> (u64, u64);

    /// Invalidates all cached state; returns the number of dirty lines
    /// written back (the engine counts them and emits the
    /// [`Event::Flush`]).
    fn flush(&mut self) -> u64;
}

/// A complete cache simulator: a [`CachePolicy`] composed with the
/// shared [`MemorySystem`] and an observer [`Probe`].
///
/// Implements [`CacheSim`] once for every policy: a per-access path and
/// a chunked replay path whose inlined single-probe hit fast path bumps
/// a compact [`ChunkDelta`] folded into [`Metrics`] at the chunk
/// boundary. The engine is generic over the probe with the disabled
/// [`NoopProbe`] as default, so unprobed engines monomorphize to the
/// probe-free code.
#[derive(Debug, Clone)]
pub struct CacheEngine<Pol, P: Probe = NoopProbe> {
    policy: Pol,
    sys: MemorySystem,
    probe: P,
}

impl<Pol, P: Probe> CacheEngine<Pol, P> {
    /// Composes a policy, a memory system and a probe into an engine.
    pub fn from_parts(policy: Pol, sys: MemorySystem, probe: P) -> Self {
        CacheEngine { policy, sys, probe }
    }

    /// The organization's policy state (tag arrays, buffers).
    pub fn policy(&self) -> &Pol {
        &self.policy
    }

    /// The policy state, mutably.
    pub fn policy_mut(&mut self) -> &mut Pol {
        &mut self.policy
    }

    /// The memory model the engine charges costs against.
    pub fn memory(&self) -> MemoryModel {
        self.sys.memory()
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The attached probe, mutably.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the engine and returns the probe (for post-run export).
    pub fn into_probe(self) -> P {
        self.probe
    }
}

impl<Pol: CachePolicy<P>, P: Probe> CacheEngine<Pol, P> {
    /// The main-array geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.policy.geometry()
    }
}

impl<Pol: CachePolicy<P>, P: Probe> CacheSim for CacheEngine<Pol, P> {
    fn access(&mut self, a: &Access) {
        let is_write = a.kind().is_write();
        self.sys.metrics_mut().record_ref(is_write);
        let stall = self.sys.arrive(a.gap());
        self.sys.metrics_mut().stall_cycles += stall;
        self.policy.before_access(&mut self.sys, &mut self.probe);

        let line = self.policy.geometry().line_of(a.addr());
        if P::ENABLED {
            self.probe.on_ref(a.addr(), line, is_write);
        }
        if let Some(idx) = self.policy.probe_main(line) {
            self.policy.touch_hit(idx, a);
            self.sys.metrics_mut().main_hits += 1;
            self.sys.charge(stall + MAIN_HIT_CYCLES);
        } else {
            let (cost, lock) = self
                .policy
                .miss(&mut self.sys, &mut self.probe, line, stall, a);
            self.sys.charge(cost);
            if lock > 0 {
                self.sys.lock_for(lock);
            }
        }
        self.sys.metrics().debug_check_invariants();
    }

    fn run_chunk(&mut self, chunk: &[Access]) {
        // Hit fast path: arrival, the policy's direct probe and hint-bit
        // updates, with counters bumped in a compact [`ChunkDelta`]
        // instead of the full metrics block; the miss machinery only
        // runs on actual misses. All counters are additive, so folding
        // the delta at the chunk boundary yields exactly the per-access
        // counters.
        let mut delta = ChunkDelta::new();
        for a in chunk {
            let stall = self.sys.arrive(a.gap());
            self.policy.before_access(&mut self.sys, &mut self.probe);
            let line = self.policy.geometry().line_of(a.addr());
            if P::ENABLED {
                self.probe.on_ref(a.addr(), line, a.kind().is_write());
            }
            if let Some(idx) = self.policy.probe_main(line) {
                let is_write = a.kind().is_write();
                self.policy.touch_hit(idx, a);
                let cost = stall + MAIN_HIT_CYCLES;
                delta.record_hit(is_write, cost, stall);
                self.sys.complete(cost);
            } else {
                self.sys.metrics_mut().record_ref(a.kind().is_write());
                self.sys.metrics_mut().stall_cycles += stall;
                let (cost, lock) = self
                    .policy
                    .miss(&mut self.sys, &mut self.probe, line, stall, a);
                self.sys.charge(cost);
                if lock > 0 {
                    self.sys.lock_for(lock);
                }
            }
        }
        self.sys.metrics_mut().apply_chunk(&delta);
        if P::ENABLED {
            let m = self.sys.metrics();
            self.probe.on_chunk(m.refs, m.mem_cycles);
        }
        self.sys.metrics().debug_check_invariants();
    }

    fn invalidate_all(&mut self) {
        let wbs = self.policy.flush();
        self.sys.metrics_mut().writebacks += wbs;
        if P::ENABLED {
            self.probe.on_event(&Event::Flush { writebacks: wbs });
        }
    }

    fn metrics(&self) -> &Metrics {
        self.sys.metrics()
    }
}

impl<Pol: CachePolicy<P>, P: Probe> ProbedSim<P> for CacheEngine<Pol, P> {
    fn into_probe(self: Box<Self>) -> P {
        self.probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_advances_clock_and_cycles_together() {
        let mut sys = MemorySystem::new(MemoryModel::default(), 32);
        assert_eq!(sys.arrive(5), 0);
        sys.charge(22);
        assert_eq!(sys.now(), 27);
        assert_eq!(sys.metrics().mem_cycles, 22);
    }

    #[test]
    fn fetch_lines_records_traffic_and_returns_cost() {
        let mut sys = MemorySystem::new(MemoryModel::default(), 32);
        // 20-cycle latency + 32 B over a 16 B bus.
        assert_eq!(sys.fetch_lines(1), 22);
        assert_eq!(sys.metrics().lines_fetched, 1);
        assert_eq!(sys.metrics().words_fetched, 4);
    }

    #[test]
    fn writeback_counts_and_buffer_store_does_not() {
        let mut sys = MemorySystem::new(MemoryModel::default(), 32);
        assert_eq!(sys.writeback(0x40), 0);
        assert_eq!(sys.buffer_store(0x80), 0);
        assert_eq!(sys.metrics().writebacks, 1);
        assert!(!sys.write_buffer_full());
    }

    #[test]
    fn lock_stalls_the_next_arrival() {
        let mut sys = MemorySystem::new(MemoryModel::default(), 32);
        sys.arrive(1);
        sys.charge(3);
        sys.lock_for(2);
        assert_eq!(sys.arrive(1), 1, "arrives inside the lock window");
    }
}
