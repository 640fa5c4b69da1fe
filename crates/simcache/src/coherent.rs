//! The multi-core coherent memory system: private caches on a shared
//! snoop bus.
//!
//! [`CoherentSystem`] gives each CPU a private Standard cache — a
//! [`StandardPolicy`] over its own [`MemorySystem`], which holds that
//! core's write buffer and [`Metrics`] — and drives a cpu-tagged
//! interleaved trace (see [`sac_trace::interleave_round_robin`]) through
//! them under a snooping coherence protocol: the invalidation-based
//! [`Mesi`] by default, the update-based [`crate::Dragon`] as the
//! comparison point. Transactions are priced on one shared [`SnoopBus`],
//! and one shared cycle [`Clock`] is handed to the acting core's memory
//! system for each access. Per-line protocol state lives in a
//! [`LineState`] sidecar indexed like the core's tag array, and dirty
//! victims drain through the per-core write buffers, whose pending
//! entries answer remote snoops (write-buffer forwarding). Each core
//! keeps one set of books; [`CoherentSystem::metrics`] is their merge.
//!
//! **Timing.** A hit costs [`MAIN_HIT_CYCLES`]. A miss pays the arrival
//! stall plus one bus transaction: `t_lat + LS/w_b` when memory supplies
//! the line, [`crate::SNOOP_CYCLES`]` + LS/w_b` when another cache (or a
//! pending write-buffer entry) does. A MESI write hit on a shared line
//! pays an address-only BusUpgr ([`crate::SNOOP_CYCLES`]); a dirty
//! owner's flush in response to a remote transaction is hidden behind
//! the requester's fill and charged to bus occupancy only, with the
//! write-back itself going through the owner's write buffer. The fill
//! and its dirty-victim write-back are [`StandardPolicy`]'s own, so a
//! single-CPU [`CoherentSystem`] reproduces the uniprocessor
//! [`crate::StandardCache`] exactly (no sharer ever exists, so no
//! coherence transaction is ever priced) — a property the unit tests
//! pin down.
//!
//! **False sharing.** Each core keeps, per tag-array slot, a bitmask of
//! the words it touched since it last filled that slot — a second
//! sidecar indexed like the protocol state. When a remote write
//! invalidates a copy, the invalidation is classified *false sharing*
//! if the victim never touched the word the writer is modifying — the
//! ping-pong is an artifact of line granularity, not a data dependence.
//! A mask resets when its slot is filled and when its copy is
//! invalidated, so an invalid slot always carries an empty mask.

use crate::{
    BusTx, CacheGeometry, CachePolicy, Clock, CoherenceProtocol, FillSource, LineState,
    MemoryModel, MemorySystem, Mesi, Metrics, SnoopBus, StandardPolicy, WbStall, WriteHitAction,
    MAIN_HIT_CYCLES,
};
use sac_obs::{CoherenceOp, Event, NoopProbe, Probe};
use sac_trace::{Access, Trace, MAX_CPUS, WORD_BYTES};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Per-CPU coherence counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCoherence {
    /// Remote copies this CPU's writes forced out (BusRdX/BusUpgr).
    pub invalidations_sent: u64,
    /// Copies this CPU lost to remote writes.
    pub invalidations_received: u64,
    /// The subset of `invalidations_received` where this CPU had never
    /// touched the word the remote writer modified.
    pub false_sharing_invalidations: u64,
    /// Address-only ownership upgrades (MESI write hit on Shared).
    pub upgrades: u64,
    /// Misses of this CPU filled cache-to-cache by a remote holder.
    pub c2c_fills: u64,
    /// Misses of this CPU answered out of a pending write-buffer entry.
    pub wb_forwards: u64,
    /// Word updates this CPU broadcast (update-based protocols).
    pub updates: u64,
}

impl CpuCoherence {
    /// Accumulates another counter block.
    pub fn merge(&mut self, o: &CpuCoherence) {
        self.invalidations_sent += o.invalidations_sent;
        self.invalidations_received += o.invalidations_received;
        self.false_sharing_invalidations += o.false_sharing_invalidations;
        self.upgrades += o.upgrades;
        self.c2c_fills += o.c2c_fills;
        self.wb_forwards += o.wb_forwards;
        self.updates += o.updates;
    }
}

/// Coherence counters of a whole [`CoherentSystem`] run, per CPU.
#[derive(Debug, Clone, Default)]
pub struct CoherenceStats {
    per_cpu: Vec<CpuCoherence>,
}

impl CoherenceStats {
    fn new(cpus: usize) -> Self {
        CoherenceStats {
            per_cpu: vec![CpuCoherence::default(); cpus],
        }
    }

    /// The per-CPU counter blocks, indexed by CPU id.
    pub fn per_cpu(&self) -> &[CpuCoherence] {
        &self.per_cpu
    }

    /// All CPUs' counters summed.
    pub fn totals(&self) -> CpuCoherence {
        let mut t = CpuCoherence::default();
        for c in &self.per_cpu {
            t.merge(c);
        }
        t
    }
}

/// One CPU's private cache: a Standard cache over the core's own
/// memory system, its protocol-state and word-mask sidecars, and its
/// probe.
#[derive(Debug, Clone)]
struct Core<P: Probe> {
    cache: StandardPolicy,
    /// The core's write buffer and metrics; its clock is the shared one
    /// while the core acts.
    sys: MemorySystem,
    /// Protocol state per tag-array slot, same global indexing as the
    /// tag array; kept in sync with the entries' valid/dirty bits.
    state: Vec<LineState>,
    /// Per slot, same indexing: the words (word-in-line index, clamped
    /// to 63) touched since the slot was filled. Drives the
    /// false-sharing classifier.
    words: Vec<u64>,
    probe: P,
}

/// What the snoop phase of one transaction found and did.
struct SnoopOutcome {
    /// Remote copies still valid after the reactions.
    holders_after: usize,
    /// A remote cache able to source a cache-to-cache fill (a dirty
    /// owner if one exists, else the lowest-numbered supplier — a
    /// deterministic choice).
    supplier: Option<usize>,
}

/// A multi-core memory system: one private standard cache per CPU,
/// kept coherent over a shared snoop bus by the protocol `Proto`.
///
/// ```
/// use sac_simcache::{CacheGeometry, CoherentSystem, MemoryModel, Mesi};
/// use sac_trace::{interleave_round_robin, Access, Trace};
///
/// let a: Trace = (0..64u64).map(|i| Access::read(i * 8)).collect();
/// let b: Trace = (0..64u64).map(|i| Access::write(i * 8)).collect();
/// let t = interleave_round_robin("pair", &[a, b]);
/// let mut sys: CoherentSystem<Mesi> =
///     CoherentSystem::new(CacheGeometry::standard(), MemoryModel::default(), 2);
/// sys.run(&t);
/// assert_eq!(sys.metrics().refs, 128);
/// sys.check_swmr().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct CoherentSystem<Proto: CoherenceProtocol = Mesi, P: Probe = NoopProbe> {
    geom: CacheGeometry,
    bus: SnoopBus,
    clock: Clock,
    cores: Vec<Core<P>>,
    /// The per-CPU metrics merged, computed on demand and dropped by the
    /// next access.
    merged: OnceLock<Metrics>,
    stats: CoherenceStats,
    _proto: PhantomData<Proto>,
}

impl<Proto: CoherenceProtocol> CoherentSystem<Proto, NoopProbe> {
    /// A system of `cpus` private standard caches of geometry `geom` on
    /// a shared bus, unprobed.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or exceeds [`MAX_CPUS`].
    pub fn new(geom: CacheGeometry, mem: MemoryModel, cpus: usize) -> Self {
        Self::with_probes(geom, mem, (0..cpus).map(|_| NoopProbe).collect())
    }
}

impl<Proto: CoherenceProtocol, P: Probe> CoherentSystem<Proto, P> {
    /// A system with one cache and one probe per element of `probes`.
    ///
    /// # Panics
    ///
    /// Panics if `probes` is empty or longer than [`MAX_CPUS`].
    pub fn with_probes(geom: CacheGeometry, mem: MemoryModel, probes: Vec<P>) -> Self {
        assert!(!probes.is_empty(), "need at least one CPU");
        assert!(probes.len() <= MAX_CPUS, "at most {MAX_CPUS} CPUs");
        let cores = probes
            .into_iter()
            .map(|probe| Core {
                cache: StandardPolicy::new(geom),
                sys: MemorySystem::new(mem, geom.line_bytes()),
                state: vec![LineState::Invalid; geom.lines() as usize],
                words: vec![0; geom.lines() as usize],
                probe,
            })
            .collect::<Vec<_>>();
        let stats = CoherenceStats::new(cores.len());
        CoherentSystem {
            geom,
            bus: SnoopBus::new(mem, geom.line_bytes()),
            clock: Clock::new(),
            cores,
            merged: OnceLock::new(),
            stats,
            _proto: PhantomData,
        }
    }

    /// The protocol's display name.
    pub fn protocol_name(&self) -> &'static str {
        Proto::NAME
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cores.len()
    }

    /// The cache geometry every core shares.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The global metrics: every CPU's private metrics merged.
    pub fn metrics(&self) -> &Metrics {
        self.merged
            .get_or_init(|| Metrics::merged(self.cores.iter().map(|c| c.sys.metrics())))
    }

    /// One CPU's private metrics.
    pub fn core_metrics(&self, cpu: usize) -> &Metrics {
        self.cores[cpu].sys.metrics()
    }

    /// The coherence counters.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// The shared bus (transaction and occupancy totals).
    pub fn bus(&self) -> &SnoopBus {
        &self.bus
    }

    /// One CPU's probe.
    pub fn probe(&self, cpu: usize) -> &P {
        &self.cores[cpu].probe
    }

    /// Consumes the system, returning the per-CPU probes.
    pub fn into_probes(self) -> Vec<P> {
        self.cores.into_iter().map(|c| c.probe).collect()
    }

    /// Runs a whole cpu-tagged trace through the system.
    ///
    /// # Panics
    ///
    /// Panics if the trace names a CPU this system does not have.
    pub fn run(&mut self, trace: &Trace) {
        for a in trace {
            self.access(a);
        }
    }

    /// Word-in-line bit index of `addr`, which lies in `line` (clamped
    /// to the 64-bit mask width; lines above 512 bytes alias their tail
    /// words, which only makes the false-sharing classifier
    /// conservative).
    #[inline]
    fn word_bit(&self, addr: u64, line: u64) -> u32 {
        ((addr - line * self.geom.line_bytes()) / WORD_BYTES).min(63) as u32
    }

    #[inline]
    fn emit(&mut self, cpu: usize, line: u64, op: CoherenceOp) {
        if P::ENABLED {
            self.cores[cpu].probe.on_event(&Event::Coherence {
                cpu: cpu as u8,
                line,
                op,
            });
        }
    }

    /// Number of remote caches currently holding a valid copy of `line`.
    fn remote_holders(&self, cpu: usize, line: u64) -> usize {
        self.cores
            .iter()
            .enumerate()
            .filter(|&(c, core)| c != cpu && core.cache.tags.peek(line).is_some())
            .count()
    }

    /// The snoop phase of a transaction by `requester` on `line`:
    /// applies every remote copy's protocol reaction (state change,
    /// invalidation, dirty flush), books the coherence counters and
    /// events, and reports what remains plus a deterministic supplier.
    fn snoop_remotes(
        &mut self,
        requester: usize,
        line: u64,
        is_write: bool,
        writer_bit: u32,
    ) -> SnoopOutcome {
        let mut out = SnoopOutcome {
            holders_after: 0,
            supplier: None,
        };
        let mut owner_supplier = None;
        let clock = *self.cores[requester].sys.clock_mut();
        for c in 0..self.cores.len() {
            if c == requester {
                continue;
            }
            let Some(ridx) = self.cores[c].cache.tags.peek(line) else {
                continue;
            };
            let state = self.cores[c].state[ridx];
            debug_assert!(state.is_valid(), "valid tag with Invalid sidecar state");
            let r = if is_write {
                Proto::snoop_write(state)
            } else {
                Proto::snoop_read(state)
            };
            if r.supply {
                if state.is_owner() {
                    owner_supplier = Some(c);
                } else if out.supplier.is_none() {
                    out.supplier = Some(c);
                }
            }
            if r.flush_dirty {
                // The owner pushes its dirty line toward memory, hidden
                // behind the requester's transaction: bus occupancy and
                // the owner's write buffer, no requester cycles.
                let _ = self
                    .bus
                    .transaction_cycles(BusTx::Flush, FillSource::Memory);
                let owner = &mut self.cores[c];
                *owner.sys.clock_mut() = clock;
                owner.sys.writeback(line, WbStall::Free);
                if P::ENABLED {
                    owner.probe.on_event(&Event::Writeback { line });
                }
            }
            if r.next == LineState::Invalid {
                self.cores[c].cache.tags.invalidate(line);
                self.cores[c].state[ridx] = LineState::Invalid;
                let words = std::mem::take(&mut self.cores[c].words[ridx]);
                let false_sharing = words >> writer_bit & 1 == 0;
                self.stats.per_cpu[c].invalidations_received += 1;
                self.stats.per_cpu[c].false_sharing_invalidations += u64::from(false_sharing);
                self.stats.per_cpu[requester].invalidations_sent += 1;
                self.emit(c, line, CoherenceOp::InvalidateRecv { false_sharing });
                self.emit(requester, line, CoherenceOp::InvalidateSent);
                if P::ENABLED {
                    self.cores[c]
                        .probe
                        .on_event(&Event::MainEvict { line, dirty: false });
                }
            } else {
                self.cores[c].state[ridx] = r.next;
                self.cores[c].cache.tags.entry_at_mut(ridx).dirty = r.next.is_dirty();
                out.holders_after += 1;
            }
        }
        if owner_supplier.is_some() {
            out.supplier = owner_supplier;
        }
        out
    }

    /// Broadcasts a word update to every remote copy (update-based
    /// protocols): the copies stay valid and demote per
    /// [`CoherenceProtocol::snoop_update`].
    fn update_remotes(&mut self, writer: usize, line: u64) {
        for c in 0..self.cores.len() {
            if c == writer {
                continue;
            }
            let Some(ridx) = self.cores[c].cache.tags.peek(line) else {
                continue;
            };
            let next = Proto::snoop_update(self.cores[c].state[ridx]);
            self.cores[c].state[ridx] = next;
            self.cores[c].cache.tags.entry_at_mut(ridx).dirty = next.is_dirty();
        }
        self.stats.per_cpu[writer].updates += 1;
        self.emit(writer, line, CoherenceOp::Update);
    }

    /// Processes one reference, routed to its CPU's private cache.
    pub fn access(&mut self, a: &Access) {
        let cpu = a.cpu() as usize;
        assert!(
            cpu < self.cores.len(),
            "trace names cpu {cpu} but the system has {} CPUs",
            self.cores.len()
        );
        self.merged.take();
        let is_write = a.kind().is_write();
        let line = self.geom.line_of(a.addr());
        let bit = self.word_bit(a.addr(), line);
        let core = &mut self.cores[cpu];
        *core.sys.clock_mut() = self.clock;
        core.sys.metrics_mut().record_ref(is_write);
        let stall = core.sys.arrive(a.gap());
        if P::ENABLED {
            core.probe.on_ref(a.addr(), line, is_write);
        }
        match CachePolicy::<P>::probe_main(&mut core.cache, line) {
            Some(idx) => {
                let cost = self.hit(cpu, idx, line, bit, is_write);
                self.cores[cpu].sys.book_hit(stall, cost);
            }
            None => {
                self.cores[cpu].sys.open(stall);
                let cost = self.miss(cpu, line, bit, is_write);
                self.cores[cpu].sys.spend(cost);
                self.cores[cpu].sys.complete();
            }
        }
        let sys = &mut self.cores[cpu].sys;
        self.clock = *sys.clock_mut();
        sys.metrics().debug_check_invariants();
    }

    /// A hit on `cpu`'s slot `idx`; returns its cost past the arrival
    /// stall.
    fn hit(&mut self, cpu: usize, idx: usize, line: u64, bit: u32, is_write: bool) -> u64 {
        self.cores[cpu].sys.metrics_mut().main_hits += 1;
        let mut cost = MAIN_HIT_CYCLES;
        if is_write {
            let state = self.cores[cpu].state[idx];
            let shared_elsewhere =
                Proto::write_hit_needs_sharers(state) && self.remote_holders(cpu, line) > 0;
            let (next, action) = Proto::write_hit(state, shared_elsewhere);
            match action {
                WriteHitAction::Upgrade => {
                    cost += self
                        .bus
                        .transaction_cycles(BusTx::BusUpgr, FillSource::Memory);
                    self.stats.per_cpu[cpu].upgrades += 1;
                    self.emit(cpu, line, CoherenceOp::Upgrade);
                    self.snoop_remotes(cpu, line, true, bit);
                }
                WriteHitAction::Update => {
                    cost += self
                        .bus
                        .transaction_cycles(BusTx::BusUpgr, FillSource::Memory);
                    self.update_remotes(cpu, line);
                }
                WriteHitAction::None => {}
            }
            self.cores[cpu].state[idx] = next;
            self.cores[cpu].cache.tags.entry_at_mut(idx).dirty = next.is_dirty();
        }
        self.cores[cpu].words[idx] |= 1 << bit;
        cost
    }

    /// A miss of `cpu` on `line`: the snoop, the bus transaction, then
    /// the Standard fill. Returns its bus cost; the fill's write-back
    /// stall is the core's memory system's.
    fn miss(&mut self, cpu: usize, line: u64, bit: u32, is_write: bool) -> u64 {
        self.cores[cpu].sys.metrics_mut().misses += 1;
        let snoop = self.snoop_remotes(cpu, line, is_write, bit);
        // A pending write-buffer entry anywhere (own buffer included)
        // still holds the newest copy: it must answer before memory.
        let now = self.cores[cpu].sys.now();
        let wb_forward = self.cores.iter().any(|c| c.sys.buffer_holds(now, line));
        let source = if snoop.supplier.is_some() || wb_forward {
            FillSource::CacheToCache
        } else {
            FillSource::Memory
        };
        let tx = if is_write {
            BusTx::BusRdX
        } else {
            BusTx::BusRd
        };
        let mut cost = self.bus.transaction_cycles(tx, source);
        if source == FillSource::CacheToCache {
            if snoop.supplier.is_some() {
                self.stats.per_cpu[cpu].c2c_fills += 1;
                self.emit(cpu, line, CoherenceOp::C2CFill);
            } else {
                self.stats.per_cpu[cpu].wb_forwards += 1;
                self.emit(cpu, line, CoherenceOp::WbForward);
            }
        }
        let new_state = if is_write {
            Proto::fill_write(snoop.holders_after > 0)
        } else {
            Proto::fill_read(snoop.holders_after > 0)
        };
        let core = &mut self.cores[cpu];
        core.sys.record_fetch_traffic(1);
        let way = core
            .cache
            .demand_fill(&mut core.sys, &mut core.probe, line, is_write);
        let slot = self.geom.set_of_line(line) as usize * self.geom.ways() as usize + way;
        core.state[slot] = new_state;
        core.cache.tags.entry_at_mut(slot).dirty = new_state.is_dirty();
        // A fresh mask: the new copy has touched only this word.
        core.words[slot] = 1 << bit;
        // An update-based write miss fetches with BusRd and then
        // broadcasts the written word to the surviving copies.
        if Proto::UPDATE_BASED && is_write && snoop.holders_after > 0 {
            cost += self
                .bus
                .transaction_cycles(BusTx::BusUpgr, FillSource::Memory);
            self.update_remotes(cpu, line);
        }
        cost
    }

    /// Verifies the single-writer/multiple-reader invariant over every
    /// line currently cached anywhere: at most one owner (M/Sm), and an
    /// M or E copy is the *only* copy. Also checks that no invalid slot
    /// carries a word mask. Returns the first violation.
    pub fn check_swmr(&self) -> Result<(), String> {
        let mut by_line: BTreeMap<u64, Vec<(usize, LineState)>> = BTreeMap::new();
        for (c, core) in self.cores.iter().enumerate() {
            for idx in 0..self.geom.lines() as usize {
                let e = core.cache.tags.entry_at(idx);
                if !e.valid {
                    if core.words[idx] != 0 {
                        return Err(format!(
                            "cpu {c} slot {idx} is invalid but has word mask {:#x}",
                            core.words[idx]
                        ));
                    }
                    continue;
                }
                let s = core.state[idx];
                if !s.is_valid() {
                    return Err(format!(
                        "cpu {c} holds line {} with Invalid protocol state",
                        e.line
                    ));
                }
                if e.dirty != s.is_dirty() {
                    return Err(format!(
                        "cpu {c} line {}: entry dirty={} but state {}",
                        e.line,
                        e.dirty,
                        s.name()
                    ));
                }
                by_line.entry(e.line).or_default().push((c, s));
            }
        }
        for (line, holders) in by_line {
            let owners = holders.iter().filter(|(_, s)| s.is_owner()).count();
            if owners > 1 {
                return Err(format!("line {line} has {owners} owners: {holders:?}"));
            }
            let exclusive = holders
                .iter()
                .filter(|(_, s)| matches!(s, LineState::Modified | LineState::Exclusive))
                .count();
            if exclusive > 0 && holders.len() > 1 {
                return Err(format!(
                    "line {line} has an exclusive copy among {} holders: {holders:?}",
                    holders.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheSim, StandardCache, SNOOP_CYCLES};
    use sac_trace::interleave_round_robin;

    fn small_geom() -> CacheGeometry {
        // 8 sets, direct-mapped, 32 B lines.
        CacheGeometry::new(256, 32, 1)
    }

    /// A seeded pseudo-random single-CPU trace.
    fn random_trace(seed: u64, len: usize, lines: u64) -> Trace {
        let mut t = Trace::new("rand");
        let mut s = seed;
        for _ in 0..len {
            s = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let addr = ((s >> 33) % (lines * 4)) * 8;
            let a = if s & 1 == 0 {
                Access::read(addr)
            } else {
                Access::write(addr)
            };
            t.push(a.with_gap((s >> 8 & 3) as u32));
        }
        t
    }

    /// Runs `trace` on one CPU of a `Proto` system and on a
    /// [`StandardCache`] of the same geometry: the books must be equal,
    /// counter for counter, with no coherence activity at all.
    fn assert_single_cpu_is_standard<Proto: CoherenceProtocol>(geom: CacheGeometry, trace: &Trace) {
        let mut std_cache = StandardCache::new(geom, MemoryModel::default());
        for a in trace {
            std_cache.access(a);
        }
        let mut coh: CoherentSystem<Proto> = CoherentSystem::new(geom, MemoryModel::default(), 1);
        coh.run(trace);
        assert_eq!(
            std_cache.metrics(),
            coh.metrics(),
            "{} on {geom:?}",
            Proto::NAME
        );
        assert_eq!(coh.stats().totals(), CpuCoherence::default());
        coh.check_swmr().unwrap();
    }

    #[test]
    fn single_cpu_matches_standard_cache() {
        let trace = random_trace(0x5AC, 4000, 64);
        for geom in [
            CacheGeometry::standard(),
            small_geom(),
            CacheGeometry::new(256, 32, 2),
        ] {
            assert_single_cpu_is_standard::<Mesi>(geom, &trace);
            assert_single_cpu_is_standard::<crate::Dragon>(geom, &trace);
        }
    }

    #[test]
    fn read_sharing_then_upgrade() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        // Both CPUs read line 0: second fill is cache-to-cache, both S.
        sys.access(&Access::read(0).with_cpu(0));
        sys.access(&Access::read(0).with_cpu(1));
        assert_eq!(sys.stats().per_cpu()[1].c2c_fills, 1);
        sys.check_swmr().unwrap();
        // CPU 0 writes: hit on S → BusUpgr, CPU 1 invalidated.
        sys.access(&Access::write(0).with_cpu(0));
        let s = sys.stats();
        assert_eq!(s.per_cpu()[0].upgrades, 1);
        assert_eq!(s.per_cpu()[0].invalidations_sent, 1);
        assert_eq!(s.per_cpu()[1].invalidations_received, 1);
        sys.check_swmr().unwrap();
        // CPU 1 re-reads: the dirty owner supplies c2c and flushes.
        let wb_before = sys.metrics().writebacks;
        sys.access(&Access::read(0).with_cpu(1));
        assert_eq!(sys.stats().per_cpu()[1].c2c_fills, 2);
        assert_eq!(sys.metrics().writebacks, wb_before + 1, "owner flushed");
        sys.check_swmr().unwrap();
    }

    #[test]
    fn exclusive_write_hit_is_silent() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        sys.access(&Access::read(0).with_cpu(0)); // E, alone
        let cycles = sys.metrics().mem_cycles;
        sys.access(&Access::write(0).with_cpu(0)); // E → M, no bus
        assert_eq!(sys.metrics().mem_cycles, cycles + MAIN_HIT_CYCLES);
        assert_eq!(sys.stats().totals().upgrades, 0);
        sys.check_swmr().unwrap();
    }

    #[test]
    fn false_sharing_classified_by_word() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        // CPU 0 writes word 0, CPU 1 writes word 2 of the same line,
        // ping-pong: every invalidation is false sharing.
        for _ in 0..8 {
            sys.access(&Access::write(0).with_cpu(0));
            sys.access(&Access::write(16).with_cpu(1));
        }
        let t = sys.stats().totals();
        assert!(t.invalidations_received >= 14);
        assert_eq!(
            t.false_sharing_invalidations, t.invalidations_received,
            "disjoint words: all false sharing"
        );
        sys.check_swmr().unwrap();

        // Same line, same word: true sharing.
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        for _ in 0..8 {
            sys.access(&Access::write(0).with_cpu(0));
            sys.access(&Access::write(0).with_cpu(1));
        }
        let t = sys.stats().totals();
        assert!(t.invalidations_received >= 14);
        assert_eq!(t.false_sharing_invalidations, 0, "same word: all true");
    }

    #[test]
    fn dragon_updates_instead_of_ping_pong() {
        let mut sys: CoherentSystem<crate::Dragon> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 2);
        for _ in 0..8 {
            sys.access(&Access::write(0).with_cpu(0));
            sys.access(&Access::write(16).with_cpu(1));
        }
        let t = sys.stats().totals();
        assert_eq!(t.invalidations_received, 0, "Dragon never invalidates");
        assert!(t.updates > 0, "writes broadcast updates instead");
        // Both copies stay resident: after warmup every access hits.
        assert!(sys.metrics().misses <= 2);
        sys.check_swmr().unwrap();
    }

    #[test]
    fn write_buffer_forwards_before_drain() {
        // Zero-latency memory so the eviction's drain window is still
        // open when the remote read arrives.
        let mem = MemoryModel::new(0, 16);
        let mut sys: CoherentSystem<Mesi> = CoherentSystem::new(small_geom(), mem, 2);
        sys.access(&Access::write(0).with_cpu(0)); // line 0 → M
        sys.access(&Access::read(256).with_cpu(0)); // same set: evicts dirty line 0
        assert_eq!(sys.metrics().writebacks, 1);
        // Line 0 now lives only in CPU 0's write buffer; CPU 1's read
        // (issued back-to-back, gap 0) races the final drain beat and
        // must be forwarded, at c2c price.
        let cycles = sys.metrics().mem_cycles;
        sys.access(&Access::read(0).with_cpu(1).with_gap(0));
        assert_eq!(sys.stats().per_cpu()[1].wb_forwards, 1);
        assert_eq!(
            sys.metrics().mem_cycles,
            cycles + SNOOP_CYCLES + 2,
            "wb forward priced as a cache-to-cache fill"
        );
        sys.check_swmr().unwrap();
    }

    #[test]
    fn per_cpu_metrics_reconcile_with_global() {
        let streams: Vec<Trace> = (0..4u64)
            .map(|s| random_trace(0xBEEF + s, 2000, 64))
            .collect();
        let t = interleave_round_robin("mix", &streams);
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 4);
        sys.run(&t);
        let merged = Metrics::merged((0..4).map(|c| sys.core_metrics(c)));
        assert_eq!(merged, *sys.metrics());
        assert_eq!(sys.metrics().refs, 4 * 2000);
        sys.check_swmr().unwrap();
    }

    /// Runs a probed `cpus`-CPU system, one [`TracingProbe`] per core,
    /// and checks each core's event totals against its books.
    fn assert_probes_reconcile<Proto: CoherenceProtocol>(cpus: usize) {
        use sac_obs::{ObsConfig, TracingProbe};
        let geom = small_geom();
        let streams: Vec<Trace> = (0..cpus as u64)
            .map(|s| random_trace(0x0B5 + s, 1500, 16))
            .collect();
        let t = interleave_round_robin("probed", &streams);
        let probes = (0..cpus)
            .map(|_| {
                TracingProbe::new(ObsConfig::for_cache(
                    geom.lines(),
                    geom.sets(),
                    geom.line_bytes(),
                ))
            })
            .collect();
        let mut sys: CoherentSystem<Proto, TracingProbe> =
            CoherentSystem::with_probes(geom, MemoryModel::default(), probes);
        sys.run(&t);
        sys.check_swmr().unwrap();
        let metrics: Vec<Metrics> = (0..cpus).map(|c| *sys.core_metrics(c)).collect();
        let stats = sys.stats().clone();
        assert!(stats.totals().c2c_fills > 0, "the run must share lines");
        for (c, mut probe) in sys.into_probes().into_iter().enumerate() {
            probe.finish();
            let (o, m, s) = (probe.counts(), &metrics[c], &stats.per_cpu()[c]);
            let at = format!("{} cpu {c} of {cpus}", Proto::NAME);
            m.reconcile_classified(o)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            // One event per counted operation; false sharing is a
            // subset of the invalidations received, not an event.
            assert_eq!(
                o.coherence,
                s.invalidations_sent
                    + s.invalidations_received
                    + s.upgrades
                    + s.c2c_fills
                    + s.wb_forwards
                    + s.updates,
                "{at}"
            );
        }
    }

    #[test]
    fn probed_runs_reconcile_events_with_metrics() {
        for cpus in [2, 4] {
            assert_probes_reconcile::<Mesi>(cpus);
            assert_probes_reconcile::<crate::Dragon>(cpus);
        }
    }

    #[test]
    fn swmr_holds_under_random_sharing() {
        // All CPUs hammer the same small line set with mixed reads and
        // writes; the invariant must hold after every access.
        let streams: Vec<Trace> = (0..3u64)
            .map(|s| random_trace(0xD0_0D + s, 600, 8))
            .collect();
        let t = interleave_round_robin("storm", &streams);
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 3);
        for a in &t {
            sys.access(a);
            sys.check_swmr().unwrap();
        }
        let total = sys.stats().totals();
        assert!(
            total.invalidations_received > 0,
            "sharing actually occurred"
        );
    }

    #[test]
    fn swmr_holds_under_dragon_too() {
        let streams: Vec<Trace> = (0..3u64).map(|s| random_trace(0xACE + s, 600, 8)).collect();
        let t = interleave_round_robin("storm", &streams);
        let mut sys: CoherentSystem<crate::Dragon> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 3);
        for a in &t {
            sys.access(a);
            sys.check_swmr().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "trace names cpu")]
    fn access_for_unknown_cpu_panics() {
        let mut sys: CoherentSystem<Mesi> =
            CoherentSystem::new(small_geom(), MemoryModel::default(), 1);
        sys.access(&Access::read(0).with_cpu(1));
    }
}
