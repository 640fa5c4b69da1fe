//! The shared snoop bus: one arbitrated path to memory that every cache
//! of a (possibly multi-core) memory system charges its transfers
//! through.
//!
//! In the uniprocessor study the bus was implicit plumbing inside
//! [`crate::MemorySystem`]: a [`MemoryModel`] consulted for fetch and
//! transfer costs. Extracting it into [`SnoopBus`] makes the bus a
//! first-class participant so multiple caches can attach as *snoopers*:
//! the bus prices the classic invalidation-protocol transactions
//! (BusRd, BusRdX, BusUpgr, flush), distinguishes a cache-to-cache
//! transfer from a memory fill, and keeps occupancy books that a
//! contention analysis can read back.
//!
//! A memory fill is priced exactly as the uniprocessor memory system
//! prices a one-line miss, `t_lat + LS/w_b`, so a single-core coherent
//! system produces the uniprocessor figures. Uniprocessor fetches are
//! priced by [`crate::MemorySystem`]'s own lane tables and never touch a
//! bus.

use crate::{MemoryModel, SNOOP_CYCLES};

/// The bus transactions of an invalidation-based snooping protocol
/// (MESI naming; the update-based Dragon variant reuses `BusUpgr`
/// pricing for its word updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusTx {
    /// Read miss: fetch a line with no intent to modify.
    BusRd,
    /// Write miss: fetch a line with intent to modify, invalidating
    /// remote copies.
    BusRdX,
    /// Write hit on a shared line: address-only ownership upgrade,
    /// invalidating remote copies without a data transfer.
    BusUpgr,
    /// A dirty owner pushes its line toward memory in response to a
    /// remote transaction.
    Flush,
}

impl BusTx {
    /// Short lower-case name (telemetry labels).
    pub fn name(self) -> &'static str {
        match self {
            BusTx::BusRd => "bus_rd",
            BusTx::BusRdX => "bus_rdx",
            BusTx::BusUpgr => "bus_upgr",
            BusTx::Flush => "flush",
        }
    }
}

/// Where the data of a miss fill came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSource {
    /// No cache held the line: a full-latency memory fetch.
    Memory,
    /// Another cache (or a pending write-buffer entry) supplied the line
    /// over the bus without the memory round-trip.
    CacheToCache,
}

/// The shared snoop bus: [`MemoryModel`] parameters, the line size every
/// transfer is priced at, and occupancy counters.
///
/// A uniprocessor memory system owns a private bus with one participant;
/// a [`crate::CoherentSystem`] shares one instance across all cores so
/// transaction counts and occupancy aggregate globally.
#[derive(Debug, Clone)]
pub struct SnoopBus {
    mem: MemoryModel,
    line_bytes: u64,
    transactions: u64,
    occupancy_cycles: u64,
}

impl SnoopBus {
    /// Creates a bus for caches of `line_bytes`-byte lines.
    pub fn new(mem: MemoryModel, line_bytes: u64) -> Self {
        SnoopBus {
            mem,
            line_bytes,
            transactions: 0,
            occupancy_cycles: 0,
        }
    }

    /// The memory/bus parameters.
    #[inline]
    pub fn memory(&self) -> MemoryModel {
        self.mem
    }

    /// The physical line size transfers are priced at.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Bus cycles to move one cache line (`LS/w_b`).
    #[inline]
    pub fn line_transfer_cycles(&self) -> u64 {
        self.mem.transfer_cycles(self.line_bytes)
    }

    /// Cost of one coherence transaction, charged to the requester's
    /// access and logged as occupancy:
    ///
    /// * `BusRd`/`BusRdX` from [`FillSource::Memory`]: the full
    ///   `t_lat + LS/w_b` memory fetch;
    /// * `BusRd`/`BusRdX` from [`FillSource::CacheToCache`]: the snoop
    ///   lookup plus one line transfer (`SNOOP_CYCLES + LS/w_b`) — the
    ///   supplying cache answers without the memory round-trip;
    /// * `BusUpgr`: address-only, [`SNOOP_CYCLES`];
    /// * `Flush`: one line of bus beats (`LS/w_b`), hidden behind the
    ///   requester's transaction — callers charge it to occupancy only.
    pub fn transaction_cycles(&mut self, tx: BusTx, source: FillSource) -> u64 {
        self.transactions += 1;
        let cycles = match (tx, source) {
            (BusTx::BusRd | BusTx::BusRdX, FillSource::Memory) => {
                self.mem.latency() + self.line_transfer_cycles()
            }
            (BusTx::BusRd | BusTx::BusRdX, FillSource::CacheToCache) => {
                SNOOP_CYCLES + self.line_transfer_cycles()
            }
            (BusTx::BusUpgr, _) => SNOOP_CYCLES,
            (BusTx::Flush, _) => self.line_transfer_cycles(),
        };
        self.occupancy_cycles += match tx {
            // The address phase of an upgrade occupies the bus for its
            // whole cost; data transactions log only their data beats
            // (the latency part is memory wait, not bus time).
            BusTx::BusUpgr => cycles,
            BusTx::BusRd | BusTx::BusRdX => self.line_transfer_cycles(),
            BusTx::Flush => cycles,
        };
        cycles
    }

    /// Total transactions arbitrated so far.
    #[inline]
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total cycles of bus occupancy (data beats plus address-only
    /// transactions) accumulated so far.
    #[inline]
    pub fn occupancy_cycles(&self) -> u64 {
        self.occupancy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> SnoopBus {
        SnoopBus::new(MemoryModel::default(), 32)
    }

    #[test]
    fn fetch_matches_uniprocessor_formula() {
        let mut b = bus();
        // 20-cycle latency + 32 B over a 16 B bus, as a one-line miss
        // of the uniprocessor memory system.
        let fill = b.transaction_cycles(BusTx::BusRdX, FillSource::Memory);
        assert_eq!(fill, 22);
        assert_eq!(fill, MemoryModel::default().fetch_cycles(1, 32));
        assert_eq!(b.transactions(), 1);
        assert_eq!(b.occupancy_cycles(), 2);
    }

    #[test]
    fn cache_to_cache_is_cheaper_than_memory() {
        let mut b = bus();
        let mem = b.transaction_cycles(BusTx::BusRd, FillSource::Memory);
        let c2c = b.transaction_cycles(BusTx::BusRd, FillSource::CacheToCache);
        assert_eq!(mem, 22);
        assert_eq!(c2c, SNOOP_CYCLES + 2);
        assert!(c2c < mem);
    }

    #[test]
    fn upgrade_is_address_only() {
        let mut b = bus();
        assert_eq!(
            b.transaction_cycles(BusTx::BusUpgr, FillSource::Memory),
            SNOOP_CYCLES
        );
        assert_eq!(b.occupancy_cycles(), SNOOP_CYCLES);
    }

    #[test]
    fn flush_prices_one_line_of_beats() {
        let mut b = bus();
        assert_eq!(b.transaction_cycles(BusTx::Flush, FillSource::Memory), 2);
        assert_eq!(b.occupancy_cycles(), 2);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BusTx::BusRd.name(), "bus_rd");
        assert_eq!(BusTx::BusRdX.name(), "bus_rdx");
        assert_eq!(BusTx::BusUpgr.name(), "bus_upgr");
        assert_eq!(BusTx::Flush.name(), "flush");
    }
}
