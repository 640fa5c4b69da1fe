//! The shared memory-system core and the policy-driven cache engine.
//!
//! Every cache organization in this study charges the same costs for the
//! same actions: advance the clock by the issue gap, wait out any cache
//! lock, pay 1 cycle for a main-cache hit, pay `t_lat + n·LS/w_b` to
//! fetch `n` lines, push dirty victims through a timed write buffer, and
//! account everything in [`Metrics`]. [`MemorySystem`] owns exactly that
//! machinery — clock, prices, write buffer and counters — and every
//! cycle: policies *report* what happened (a fetch of `n` lines, an
//! auxiliary hit, a write-back, a transfer to hide under the miss, a
//! lock), and the memory system prices each event and books
//! `mem_cycles` and `stall_cycles`. No policy reads or writes a cycle
//! counter or computes a fetch cost.
//!
//! Because cycles are the memory system's alone, one engine can carry
//! several **timing lanes** ([`Lane`]): a clock, a write buffer, a price
//! table and cycle counters per memory latency, all over one policy
//! state. Where a policy makes no clock decision, a latency only prices
//! the trajectory, so the lanes of a [`Lanes`] set replay a sweep of
//! latencies from one tag walk. The single decision the lane-eligible
//! policies take from the clock — §2.2's "abort a bounce-back when the
//! write buffer is full" — is evaluated on every lane; a lane that
//! disagrees with the first one is dropped as *diverged* (its owner
//! replays that latency alone). A single-config engine is the one-lane
//! case ([`OneLane`]) of the same code.
//!
//! Lanes share everything that is the same on every lane. Lock windows
//! open at a fixed distance past each lane's own completion and the
//! issue gaps are the trace's, so arrivals, lock stalls and hits cost
//! every lane the same: they run once, on the first lane's clock and
//! counters. A lane keeps only how far its clock and counters have
//! drifted from the first lane's, which changes when a miss prices
//! differently on it.
//!
//! [`CacheEngine`] composes a [`CachePolicy`] with a [`MemorySystem`] and
//! an observer [`Probe`], and implements [`CacheSim`] once for all of
//! them: the per-access front-end, the chunked hit fast path with
//! [`ChunkDelta`] folding, and the [`Metrics::debug_check_invariants`]
//! boundary checks are written a single time instead of per engine.

use crate::clock::Clock;
use crate::{
    CacheGeometry, CacheSim, ChunkDelta, MemoryModel, Metrics, ProbedSim, WriteBuffer,
    DIRTY_TRANSFER_CYCLES, MAIN_HIT_CYCLES,
};
use sac_obs::{Event, NoopProbe, Probe};
use sac_trace::Access;
use std::fmt;

/// Fetches of up to this many lines are priced from a lane's table;
/// longer ones (virtual lines wider than 8 physical lines) apply the
/// formula directly.
const PRICED_LINES: usize = 8;

/// One timing lane: the write buffer, prices and clock and cycle
/// offsets of one memory latency.
///
/// A lane prices every miss event from one table, `fetch[n] = t_lat +
/// n·LS/w_b` (§2.1). Its clock reads the memory system's reference
/// clock plus `skew`, and its cycle counters read the shared ones plus
/// `mem_delta`/`stall_delta` (wrapping: a lane may run behind the
/// first one). The first lane's offsets stay zero.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Position of the lane's latency in the list the set was built from.
    id: usize,
    mem: MemoryModel,
    /// The 8-entry dirty write-back buffer, retiring one line per bus
    /// transfer (§2.1).
    wb: WriteBuffer,
    skew: u64,
    mem_delta: u64,
    stall_delta: u64,
    /// Cycles the access in flight takes on this lane beyond what every
    /// lane shares (its arrival stall and [`MemorySystem::spend`]).
    cost: u64,
    /// Write-buffer stalls the access in flight already waited out on
    /// the spot ([`WbStall::Now`]): the lane's clock has moved past them.
    waited: u64,
    /// Stall cycles the access in flight books on this lane.
    stall: u64,
    /// The fetch penalty of the access in flight (what dirty-victim
    /// transfers hide under).
    penalty: u64,
    /// `fetch[n]`: the miss penalty of `n` physical lines.
    fetch: [u64; PRICED_LINES + 1],
    /// A one-word bypass fetch: `t_lat + 8/w_b`.
    word: u64,
}

impl Lane {
    fn new(id: usize, mem: MemoryModel, line_bytes: u64) -> Self {
        Lane {
            id,
            mem,
            wb: WriteBuffer::new(8, mem.transfer_cycles(line_bytes)),
            skew: 0,
            mem_delta: 0,
            stall_delta: 0,
            cost: 0,
            waited: 0,
            stall: 0,
            penalty: 0,
            fetch: std::array::from_fn(|n| mem.fetch_cycles(n as u64, line_bytes)),
            word: mem.latency() + mem.transfer_cycles(sac_trace::WORD_BYTES),
        }
    }

    /// The miss penalty of `lines` physical lines.
    #[inline]
    fn price(&self, lines: u64, line_bytes: u64) -> u64 {
        match self.fetch.get(lines as usize) {
            Some(&cycles) => cycles,
            None => self.mem.fetch_cycles(lines, line_bytes),
        }
    }

    /// The lane's current cycle, given the reference clock's.
    #[inline]
    fn now(&self, reference: u64) -> u64 {
        reference.wrapping_add(self.skew) + self.waited
    }

    /// Pushes `line` into the write buffer now; returns the stall.
    #[inline]
    fn push(&mut self, reference: u64, line: u64) -> u64 {
        let now = self.now(reference);
        self.wb.push(now, line)
    }

    #[inline]
    fn buffer_full(&mut self, reference: u64) -> bool {
        let now = self.now(reference);
        self.wb.is_full(now)
    }

    /// Cycles the access in flight advances this lane's clock beyond
    /// the shared part.
    #[inline]
    fn advance(&self) -> u64 {
        self.waited + self.cost
    }
}

/// The timing lanes a [`MemorySystem`] carries. The engine and the
/// memory system are generic over it, so the one-lane set compiles to a
/// plain single-clock loop.
pub trait LaneSet: Clone + fmt::Debug {
    /// Whether the set holds exactly one lane by construction. Clock
    /// reads that feed prefetch ready times are debug-asserted on it: a
    /// lane engine must never reach them.
    const SINGLE: bool;

    /// The lanes still in step, the reference lane first.
    fn live(&self) -> &[Lane];

    /// The lanes still in step, mutably.
    fn live_mut(&mut self) -> &mut [Lane];

    /// Drops the lane at position `pos` (never 0) as diverged.
    fn diverge(&mut self, pos: usize);

    /// How many lanes the set was built with, diverged ones included.
    fn count(&self) -> usize;
}

/// The lane set of a single-config engine.
#[derive(Debug, Clone)]
pub struct OneLane([Lane; 1]);

impl LaneSet for OneLane {
    const SINGLE: bool = true;

    #[inline(always)]
    fn live(&self) -> &[Lane] {
        &self.0
    }

    #[inline(always)]
    fn live_mut(&mut self) -> &mut [Lane] {
        &mut self.0
    }

    fn diverge(&mut self, _pos: usize) {
        unreachable!("a single lane cannot disagree with itself")
    }

    fn count(&self) -> usize {
        1
    }
}

/// The lane set of a latency-sweep engine: one lane per latency, over
/// one policy state. The first lane is the reference: the policy follows
/// its answer to every clock decision, and a lane that answers otherwise
/// leaves the set.
#[derive(Debug, Clone)]
pub struct Lanes {
    live: Vec<Lane>,
    count: usize,
}

impl LaneSet for Lanes {
    const SINGLE: bool = false;

    #[inline(always)]
    fn live(&self) -> &[Lane] {
        &self.live
    }

    #[inline(always)]
    fn live_mut(&mut self) -> &mut [Lane] {
        &mut self.live
    }

    fn diverge(&mut self, pos: usize) {
        assert!(pos > 0, "the reference lane cannot diverge");
        self.live.remove(pos);
    }

    fn count(&self) -> usize {
        self.count
    }
}

/// How the stall of a write-buffer push is accounted (the organizations
/// differ on whether write-buffer pressure hides under the miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbStall {
    /// Charged to the access and booked as processor stall: the 2-cycle
    /// transfer hides under the miss penalty, only a full buffer shows.
    Booked,
    /// Charged to the access but not booked as stall: it hides under the
    /// fetch of a prefetched line being promoted.
    Unbooked,
    /// Stalls the processor on the spot (§2.2: bounce-back maintenance
    /// runs in the shadow of the access, but a full write buffer stalls
    /// at once): booked, and the clock moves past it before the access
    /// goes on.
    Now,
    /// Costs the processor nothing: a dirty owner's flush hidden behind
    /// another core's bus transaction.
    Free,
}

/// The timing and accounting core shared by every cache organization:
/// the reference [`Clock`], its timing [`Lane`]s (write buffer, prices
/// and offsets per memory latency) and the [`Metrics`] block, which
/// holds the reference lane's cycles.
///
/// Policies never touch a clock, a write buffer or a cycle counter;
/// they report events, and the memory system prices them on every lane.
/// Each core of the multi-core [`crate::CoherentSystem`] keeps its own
/// one-lane memory system for its write buffer and books, while the
/// system prices transactions on one shared bus and hands one shared
/// clock to whichever core acts.
#[derive(Debug, Clone)]
pub struct MemorySystem<L = OneLane> {
    line_bytes: u64,
    /// The reference lane's clock; lock windows and arrivals are the
    /// same on every lane.
    clock: Clock,
    lanes: L,
    /// Cycles the access in flight costs every lane alike: its arrival
    /// stall plus what [`Self::spend`] reported.
    shared: u64,
    /// Cycles both arrays stay locked after the access in flight.
    lock: u64,
    metrics: Metrics,
}

impl MemorySystem {
    /// Creates the memory system for a cache of `line_bytes`-byte lines:
    /// the standard 8-entry write buffer retires one line per bus
    /// transfer.
    pub fn new(mem: MemoryModel, line_bytes: u64) -> Self {
        MemorySystem::from_lanes(OneLane([Lane::new(0, mem, line_bytes)]), line_bytes)
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
        self.lanes.0[0].wb.snoop(now, line)
    }
}

impl MemorySystem<Lanes> {
    /// Creates a memory system with one lane per entry of `latencies`,
    /// each `mem` with that latency. The first latency is the reference
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if `latencies` is empty.
    pub fn with_lanes(mem: MemoryModel, line_bytes: u64, latencies: &[u64]) -> Self {
        assert!(!latencies.is_empty(), "a lane set needs a lane");
        let live = latencies
            .iter()
            .enumerate()
            .map(|(id, &lat)| Lane::new(id, mem.with_latency(lat), line_bytes))
            .collect();
        MemorySystem::from_lanes(
            Lanes {
                live,
                count: latencies.len(),
            },
            line_bytes,
        )
    }
}

impl<L: LaneSet> MemorySystem<L> {
    fn from_lanes(lanes: L, line_bytes: u64) -> Self {
        MemorySystem {
            line_bytes,
            clock: Clock::new(),
            lanes,
            shared: 0,
            lock: 0,
            metrics: Metrics::new(),
        }
    }

    /// The memory/bus parameters of the reference lane.
    #[inline]
    pub fn memory(&self) -> MemoryModel {
        self.lanes.live()[0].mem
    }

    /// The physical line size the write buffer and fetch pricing use.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// The metrics accumulated so far (the reference lane's cycles).
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics, mutably: policies bump their trajectory counters —
    /// `aux_hits`, `swaps`, `prefetches`, … — directly. The cycle
    /// counters are the memory system's.
    #[inline]
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Every lane's metrics in lane order: the shared counters with the
    /// lane's cycles, or `None` for a lane that diverged.
    pub fn lane_metrics(&self) -> Vec<Option<Metrics>> {
        let mut out = vec![None; self.lanes.count()];
        for lane in self.lanes.live() {
            out[lane.id] = Some(Metrics {
                mem_cycles: self.metrics.mem_cycles.wrapping_add(lane.mem_delta),
                stall_cycles: self.metrics.stall_cycles.wrapping_add(lane.stall_delta),
                ..self.metrics
            });
        }
        out
    }

    /// Advances the clock to the access's issue time and waits out any
    /// lock; returns the stall (the same on every lane).
    #[inline(always)]
    pub(crate) fn arrive(&mut self, gap: u32) -> u64 {
        self.clock.arrive(gap)
    }

    /// Moves the clock past a main-array hit of `cost` cycles, arrival
    /// stall included (the hit path books the cycles in its
    /// [`ChunkDelta`]).
    #[inline(always)]
    pub(crate) fn complete_hit(&mut self, cost: u64) {
        self.clock.complete(cost);
    }

    /// Completes a hit of `cost` cycles that waited `stall` lock cycles
    /// to arrive, booking both (a hit costs every lane the same).
    #[inline]
    pub(crate) fn book_hit(&mut self, stall: u64, cost: u64) {
        self.metrics.stall_cycles += stall;
        self.metrics.mem_cycles += stall + cost;
        self.clock.complete(stall + cost);
    }

    /// Opens a miss that arrived after `stall` lock cycles: the stall is
    /// booked and opens the access's cost.
    #[inline]
    pub(crate) fn open(&mut self, stall: u64) {
        self.metrics.stall_cycles += stall;
        self.shared = stall;
    }

    /// Completes the access in flight: charges each lane its cost, moves
    /// the clock past the reference lane's and applies any lock the
    /// policy reported.
    #[inline]
    pub(crate) fn complete(&mut self) {
        let shared = std::mem::take(&mut self.shared);
        let lock = std::mem::take(&mut self.lock);
        let lanes = self.lanes.live_mut();
        let (first, rest) = lanes.split_first_mut().expect("a lane set has a lane");
        let advance = first.advance();
        let stall = first.stall;
        for lane in rest {
            let drift = lane.advance().wrapping_sub(advance);
            lane.skew = lane.skew.wrapping_add(drift);
            lane.mem_delta = lane.mem_delta.wrapping_add(drift);
            lane.stall_delta = lane
                .stall_delta
                .wrapping_add(lane.stall.wrapping_sub(stall));
            (lane.cost, lane.waited, lane.stall) = (0, 0, 0);
        }
        (first.cost, first.waited, first.stall) = (0, 0, 0);
        self.metrics.mem_cycles += shared + advance;
        self.metrics.stall_cycles += stall;
        self.clock.complete(shared + advance);
        if lock > 0 {
            self.clock.lock_for(lock);
        }
    }

    /// The access takes `cycles` more, on every lane (an auxiliary-array
    /// hit, a bypassed store's issue, a bus transaction priced by the
    /// shared bus).
    #[inline]
    pub fn spend(&mut self, cycles: u64) {
        self.shared += cycles;
    }

    /// Demand-fetches `lines` physical lines: records the traffic and
    /// charges the access `t_lat + n·LS/w_b`.
    #[inline]
    pub fn fetch(&mut self, lines: u64) {
        self.metrics.record_fetch(lines, self.line_bytes);
        let line_bytes = self.line_bytes;
        for lane in self.lanes.live_mut() {
            let penalty = lane.price(lines, line_bytes);
            lane.penalty = penalty;
            lane.cost += penalty;
        }
    }

    /// Fetches one word straight from memory (a plain bypassed load):
    /// `t_lat` plus one word over the bus.
    #[inline]
    pub fn fetch_word(&mut self) {
        self.metrics.words_fetched += 1;
        for lane in self.lanes.live_mut() {
            lane.cost += lane.word;
        }
    }

    /// Records the traffic of `lines` fetched lines whose cycles are not
    /// the access's (prefetches issued behind a demand fetch).
    #[inline]
    pub fn record_fetch_traffic(&mut self, lines: u64) {
        self.metrics.record_fetch(lines, self.line_bytes);
    }

    /// Bus cycles to transfer one cache line (`LS/w_b`; the same on
    /// every lane).
    #[inline]
    pub fn line_transfer_cycles(&self) -> u64 {
        self.memory().transfer_cycles(self.line_bytes)
    }

    /// Sends the dirty line `line` to the write buffer, counting the
    /// write-back; `stall` says how a full buffer's wait is accounted.
    #[inline]
    pub fn writeback(&mut self, line: u64, stall: WbStall) {
        self.metrics.writebacks += 1;
        let reference = self.clock.now();
        for lane in self.lanes.live_mut() {
            let wait = lane.push(reference, line);
            match stall {
                WbStall::Booked => {
                    lane.stall += wait;
                    lane.cost += wait;
                }
                WbStall::Unbooked => lane.cost += wait,
                WbStall::Now => {
                    lane.stall += wait;
                    lane.waited += wait;
                }
                WbStall::Free => {}
            }
        }
    }

    /// Pushes a bypassed store to `line` into the write buffer *without*
    /// counting a write-back (no cache line is being retired); a full
    /// buffer's wait is booked as stall and charged to the access.
    #[inline]
    pub fn buffer_store(&mut self, line: u64) {
        let reference = self.clock.now();
        for lane in self.lanes.live_mut() {
            let wait = lane.push(reference, line);
            lane.stall += wait;
            lane.cost += wait;
        }
    }

    /// Hides the transfers of `dirty` victim lines to the write buffer
    /// under the access's fetch penalty; whatever exceeds it is booked
    /// as stall and charged to the access (§2.1).
    #[inline]
    pub fn hide_transfers(&mut self, dirty: u64) {
        let transfer = DIRTY_TRANSFER_CYCLES * dirty;
        for lane in self.lanes.live_mut() {
            let residual = transfer.saturating_sub(lane.penalty);
            lane.stall += residual;
            lane.cost += residual;
        }
    }

    /// Locks both arrays `cycles` beyond the access's completion (the
    /// post-swap lock of §2.2).
    #[inline]
    pub fn lock(&mut self, cycles: u64) {
        self.lock = cycles;
    }

    /// Whether a write-buffer push right now would stall (§2.2: a bounce
    /// over a dirty line is aborted when the buffer is full). The answer
    /// is the reference lane's; every other lane that answers otherwise
    /// diverges and leaves the set.
    #[inline]
    pub fn write_buffer_full(&mut self) -> bool {
        let reference = self.clock.now();
        let full = self.lanes.live_mut()[0].buffer_full(reference);
        if !L::SINGLE {
            let mut pos = 1;
            while pos < self.lanes.live().len() {
                if self.lanes.live_mut()[pos].buffer_full(reference) == full {
                    pos += 1;
                } else {
                    self.lanes.diverge(pos);
                }
            }
        }
        full
    }

    /// The current cycle. One-lane engines only: it feeds prefetch ready
    /// times, which a lane engine never computes.
    #[inline]
    pub fn now(&self) -> u64 {
        debug_assert!(L::SINGLE, "a clock read on a lane engine");
        self.lanes.live()[0].now(self.clock.now())
    }

    /// The cost charged to the access in flight so far, arrival stall
    /// included. One-lane engines only, like [`Self::now`].
    #[inline]
    pub fn access_cost(&self) -> u64 {
        debug_assert!(L::SINGLE, "a clock read on a lane engine");
        self.shared + self.lanes.live()[0].cost
    }

    /// The price of fetching `lines` physical lines, for prefetch ready
    /// times. One-lane engines only, like [`Self::now`].
    #[inline]
    pub fn fetch_cycles(&self, lines: u64) -> u64 {
        debug_assert!(L::SINGLE, "a clock read on a lane engine");
        self.lanes.live()[0].price(lines, self.line_bytes)
    }
}

/// One cache organization, expressed as a replacement/fill policy over
/// the shared [`MemorySystem`].
///
/// The policy owns the tag state (main array plus any auxiliary
/// structure — victim cache, line buffer, prefetch buffer, bounce-back
/// cache) and decides what happens past the main-array probe. The
/// generic [`CacheEngine`] drives the common front-end: reference
/// bookkeeping, arrival, the main probe, the 1-cycle hit, completion
/// and the invariant checks. The policy's methods are generic over the
/// memory system's [`LaneSet`], so the same policy code runs one lane
/// or a latency sweep.
pub trait CachePolicy<P: Probe> {
    /// The main-array geometry (address-to-line mapping).
    fn geometry(&self) -> CacheGeometry;

    /// Hook before the main-array probe — e.g. delivering in-flight
    /// prefetches that have arrived by now.
    #[inline]
    fn before_access<L: LaneSet>(&mut self, _sys: &mut MemorySystem<L>, _probe: &mut P) {}

    /// Probes the main array (with LRU side effect); `Some(index)` on a
    /// hit.
    fn probe_main(&mut self, line: u64) -> Option<usize>;

    /// Finishes a main-array hit: hint-bit updates on the hit entry
    /// (dirty on a store, temporal tag notes, …).
    fn touch_hit(&mut self, idx: usize, a: &Access);

    /// Everything past a main-array miss — auxiliary hit, bypass or a
    /// full miss — reported to `sys` as events: fetches, auxiliary-hit
    /// cycles, write-backs, transfers to hide and any post-swap lock.
    fn miss<L: LaneSet>(&mut self, sys: &mut MemorySystem<L>, probe: &mut P, line: u64, a: &Access);

    /// Invalidates all cached state; returns the number of dirty lines
    /// written back (the engine counts them and emits the
    /// [`Event::Flush`]).
    fn flush(&mut self) -> u64;

    /// Whether the policy times prefetches from the clock
    /// ([`MemorySystem::now`]), which only a one-lane engine reads:
    /// [`CacheEngine::with_lanes`] refuses such a policy.
    #[inline]
    fn prefetches(&self) -> bool {
        false
    }
}

/// A complete cache simulator: a [`CachePolicy`] composed with the
/// shared [`MemorySystem`] and an observer [`Probe`].
///
/// Implements [`CacheSim`] once for every policy: a per-access path and
/// a chunked replay path whose inlined single-probe hit fast path bumps
/// a compact [`ChunkDelta`] folded into [`Metrics`] at the chunk
/// boundary. The engine is generic over the probe with the disabled
/// [`NoopProbe`] as default, so unprobed engines monomorphize to the
/// probe-free code, and over the [`LaneSet`] with the single
/// [`OneLane`] as default.
#[derive(Debug, Clone)]
pub struct CacheEngine<Pol, P = NoopProbe, L = OneLane> {
    policy: Pol,
    sys: MemorySystem<L>,
    probe: P,
}

impl<Pol: CachePolicy<P>, P: Probe> CacheEngine<Pol, P> {
    /// Runs `policy` over a one-lane memory system priced by `mem`, with
    /// `probe` attached; the line size is the policy's.
    pub fn with_probe(policy: Pol, mem: MemoryModel, probe: P) -> Self {
        let sys = MemorySystem::new(mem, policy.geometry().line_bytes());
        CacheEngine { policy, sys, probe }
    }
}

impl<Pol: CachePolicy<NoopProbe>> CacheEngine<Pol> {
    /// Runs `policy` over a one-lane memory system priced by `mem`.
    ///
    /// ```
    /// use sac_simcache::{CacheGeometry, CacheSim, MemoryModel, StandardCache, StandardPolicy};
    /// use sac_trace::Access;
    ///
    /// let policy = StandardPolicy::new(CacheGeometry::standard());
    /// let mut c = StandardCache::new(policy, MemoryModel::default());
    /// c.access(&Access::read(0));
    /// assert_eq!(c.metrics().misses, 1);
    /// ```
    pub fn new(policy: Pol, mem: MemoryModel) -> Self {
        CacheEngine::with_probe(policy, mem, NoopProbe)
    }
}

impl<Pol: CachePolicy<NoopProbe>> CacheEngine<Pol, NoopProbe, Lanes> {
    /// Runs `policy` once over one timing lane per entry of `latencies`,
    /// each `mem` at that latency (the first is the reference lane). A
    /// policy whose only clock decision is the write-buffer-full check
    /// yields, on every lane still in step, the metrics of a solo run at
    /// its latency ([`CacheSim::lane_metrics`]).
    ///
    /// # Panics
    ///
    /// Panics if `latencies` is empty or the policy
    /// [prefetches](CachePolicy::prefetches).
    pub fn with_lanes(policy: Pol, mem: MemoryModel, latencies: &[u64]) -> Self {
        assert!(
            !policy.prefetches(),
            "prefetch ready times need a single lane"
        );
        let sys = MemorySystem::with_lanes(mem, policy.geometry().line_bytes(), latencies);
        CacheEngine {
            policy,
            sys,
            probe: NoopProbe,
        }
    }
}

impl<Pol, P: Probe, L: LaneSet> CacheEngine<Pol, P, L> {
    /// The organization's policy state (tag arrays, buffers).
    pub fn policy(&self) -> &Pol {
        &self.policy
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

impl<Pol: CachePolicy<P>, P: Probe, L: LaneSet> CacheSim for CacheEngine<Pol, P, L> {
    fn access(&mut self, a: &Access) {
        let is_write = a.kind().is_write();
        self.sys.metrics_mut().record_ref(is_write);
        let stall = self.sys.arrive(a.gap());
        self.policy.before_access(&mut self.sys, &mut self.probe);

        let line = self.policy.geometry().line_of(a.addr());
        if P::ENABLED {
            self.probe.on_ref(a.addr(), line, is_write);
        }
        if let Some(idx) = self.policy.probe_main(line) {
            self.policy.touch_hit(idx, a);
            self.sys.metrics_mut().main_hits += 1;
            self.sys.book_hit(stall, MAIN_HIT_CYCLES);
        } else {
            self.sys.open(stall);
            self.policy.miss(&mut self.sys, &mut self.probe, line, a);
            self.sys.complete();
        }
        self.sys.metrics().debug_check_invariants();
    }

    fn run_chunk(&mut self, chunk: &[Access]) {
        // Hit fast path: arrival, the policy's direct probe and hint-bit
        // updates, with counters bumped in a compact [`ChunkDelta`]
        // instead of the full metrics block; the miss machinery only
        // runs on actual misses. A hit costs every lane the same, so it
        // never touches a lane. All counters are additive, so folding
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
                self.sys.complete_hit(cost);
            } else {
                self.sys.metrics_mut().record_ref(a.kind().is_write());
                self.sys.open(stall);
                self.policy.miss(&mut self.sys, &mut self.probe, line, a);
                self.sys.complete();
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

    fn lane_metrics(&self) -> Vec<Option<Metrics>> {
        self.sys.lane_metrics()
    }
}

impl<Pol: CachePolicy<P>, P: Probe, L: LaneSet> ProbedSim<P> for CacheEngine<Pol, P, L> {
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
        let stall = sys.arrive(5);
        sys.open(stall);
        sys.spend(22);
        sys.complete();
        assert_eq!(sys.now(), 27);
        assert_eq!(sys.metrics().mem_cycles, 22);
    }

    #[test]
    fn fetch_lines_records_traffic_and_returns_cost() {
        let mut sys = MemorySystem::new(MemoryModel::default(), 32);
        sys.open(0);
        sys.fetch(1);
        // 20-cycle latency + 32 B over a 16 B bus.
        assert_eq!(sys.access_cost(), 22);
        assert_eq!(sys.metrics().lines_fetched, 1);
        assert_eq!(sys.metrics().words_fetched, 4);
        // Past the table: a 16-line fetch applies the formula.
        assert_eq!(sys.fetch_cycles(16), 20 + 32);
    }

    #[test]
    fn writeback_counts_and_buffer_store_does_not() {
        let mut sys = MemorySystem::new(MemoryModel::default(), 32);
        sys.writeback(0x40, WbStall::Booked);
        sys.buffer_store(0x80);
        assert_eq!(sys.metrics().writebacks, 1);
        assert!(!sys.write_buffer_full());
    }

    #[test]
    fn lock_stalls_the_next_arrival() {
        let mut sys = MemorySystem::new(MemoryModel::default(), 32);
        let stall = sys.arrive(1);
        sys.open(stall);
        sys.spend(3);
        sys.lock(2);
        sys.complete();
        assert_eq!(sys.arrive(1), 1, "arrives inside the lock window");
    }

    #[test]
    fn a_stall_on_the_spot_moves_the_clock_before_the_access_completes() {
        let mut sys = MemorySystem::new(MemoryModel::new(20, 16), 32);
        sys.open(0);
        for line in 0..9 {
            sys.writeback(line, WbStall::Now);
        }
        // The ninth push waits for the first retirement, 2 cycles out.
        assert_eq!(sys.now(), 2);
        sys.fetch(1);
        sys.complete();
        assert_eq!(sys.now(), 2 + 22);
        assert_eq!(sys.metrics().mem_cycles, 2 + 22);
        assert_eq!(sys.metrics().stall_cycles, 2);
    }

    #[test]
    fn each_lane_prices_its_own_latency() {
        let mut sys = MemorySystem::with_lanes(MemoryModel::default(), 32, &[20, 5, 40]);
        sys.open(0);
        sys.fetch(2);
        sys.hide_transfers(16);
        sys.complete();
        // A hit afterwards costs every lane the same.
        let stall = sys.arrive(3);
        sys.book_hit(stall, MAIN_HIT_CYCLES);
        let lanes = sys.lane_metrics();
        // 2 lines: t_lat + 4; 16 dirty transfers take 32 cycles, of
        // which the penalty hides t_lat + 4.
        for (m, lat) in lanes.iter().zip([20, 5, 40]) {
            let m = m.expect("no clock decision was taken");
            let penalty = lat + 4;
            let residual = 32u64.saturating_sub(penalty);
            assert_eq!(m.mem_cycles, penalty + residual + 1, "lat={lat}");
            assert_eq!(m.stall_cycles, residual, "lat={lat}");
            assert_eq!(m.lines_fetched, 2);
        }
        assert_eq!(*sys.metrics(), lanes[0].unwrap());
    }

    #[test]
    #[should_panic(expected = "prefetch ready times need a single lane")]
    fn a_lane_engine_refuses_a_prefetching_policy() {
        let policy = crate::PrefetchPolicy::new(CacheGeometry::standard(), 8);
        let _ = CacheEngine::with_lanes(policy, MemoryModel::default(), &[20, 40]);
    }

    #[test]
    fn a_lane_that_disagrees_on_a_full_buffer_diverges() {
        // Eight write-backs at cycle 0 fill the buffer on every lane; a
        // long fetch lets the slow lane drain it before the next check.
        let mut sys = MemorySystem::with_lanes(MemoryModel::default(), 32, &[1, 40]);
        sys.open(0);
        for line in 0..8 {
            sys.writeback(line, WbStall::Booked);
        }
        assert!(sys.write_buffer_full());
        sys.fetch(1);
        sys.complete();
        let stall = sys.arrive(0);
        sys.open(stall);
        // Lane 0 (latency 1) is at cycle 3, one entry retired; lane 1 is
        // at cycle 42, all retired. Both answer "not full".
        assert!(!sys.write_buffer_full());
        for line in 8..14 {
            sys.writeback(line, WbStall::Booked);
        }
        // Lane 0's buffer is full again; lane 1 holds six entries, so it
        // answers otherwise and diverges.
        assert!(sys.write_buffer_full());
        let lanes = sys.lane_metrics();
        assert!(lanes[0].is_some());
        assert!(lanes[1].is_none(), "the slow lane diverged");
    }
}
