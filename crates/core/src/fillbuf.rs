//! The virtual-line fill buffer (§2.1, "Storing multiple lines").
//!
//! When a virtual line is loaded, several physical lines come back from
//! memory. Checking the tag array for each arriving line would add a
//! cycle per line to the miss penalty, so the design stores the *target
//! cache locations* of the requested lines in a small FIFO while the
//! requests go out: "assuming the buffer is FIFO and that memory requests
//! are sent back in-order, unstacking the last entry of the buffer
//! provides the cache location of the incoming physical line", letting
//! lines be stored at the pace they arrive.
//!
//! The functional simulator fills lines synchronously, so this structure
//! does not change *what* is cached; it exists to model the hardware
//! contract (capacity, in-order discipline) and to expose occupancy
//! statistics. [`crate::SoftCache`] drives one per miss and enforces the
//! capacity bound implied by the largest virtual line.

use sac_simcache::CacheGeometry;
use std::collections::VecDeque;

/// One pending fill: which line is in flight and which cache slot
/// (set, way) it will be stored into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillSlot {
    /// The physical line number in flight.
    pub line: u64,
    /// The destination set index.
    pub set: u64,
    /// The destination way within the set.
    pub way: usize,
}

/// The FIFO of target cache locations for in-flight physical lines.
///
/// ```
/// use sac_core::{FillBuffer, FillSlot};
///
/// let mut fifo = FillBuffer::new(8);
/// fifo.push(FillSlot { line: 4, set: 4, way: 0 });
/// fifo.push(FillSlot { line: 5, set: 5, way: 0 });
/// // Memory returns lines in request order: pops match pushes.
/// assert_eq!(fifo.pop().unwrap().line, 4);
/// assert_eq!(fifo.pop().unwrap().line, 5);
/// assert!(fifo.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct FillBuffer {
    slots: VecDeque<FillSlot>,
    capacity: usize,
    peak: usize,
    total_pushes: u64,
}

impl FillBuffer {
    /// Creates a fill buffer with room for `capacity` in-flight lines
    /// (the largest virtual line's span).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fill buffer needs at least one slot");
        FillBuffer {
            slots: VecDeque::with_capacity(capacity),
            capacity,
            peak: 0,
            total_pushes: 0,
        }
    }

    /// Sized for a cache geometry and its maximum virtual line.
    pub fn for_geometry(geom: CacheGeometry, max_vline_bytes: u64) -> Self {
        let span = (max_vline_bytes / geom.line_bytes()).max(1) as usize;
        FillBuffer::new(span)
    }

    /// Records an outgoing request's target slot.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the engine must never request more
    /// lines than one virtual line's worth.
    pub fn push(&mut self, slot: FillSlot) {
        assert!(
            self.slots.len() < self.capacity,
            "fill buffer overflow: more in-flight lines than the hardware holds"
        );
        self.slots.push_back(slot);
        self.peak = self.peak.max(self.slots.len());
        self.total_pushes += 1;
    }

    /// Unstacks the oldest entry: the destination of the next line to
    /// arrive from memory (requests return in order).
    pub fn pop(&mut self) -> Option<FillSlot> {
        self.slots.pop_front()
    }

    /// Entries currently in flight.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no fills are in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The deepest occupancy seen (how many slots the hardware actually
    /// needed).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total lines pushed over the buffer's lifetime.
    pub fn total_pushes(&self) -> u64 {
        self.total_pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(line: u64) -> FillSlot {
        FillSlot {
            line,
            set: line % 256,
            way: 0,
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut f = FillBuffer::new(4);
        for l in 0..4 {
            f.push(slot(l));
        }
        for l in 0..4 {
            assert_eq!(f.pop().unwrap().line, l);
        }
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_is_a_hardware_contract_violation() {
        let mut f = FillBuffer::new(2);
        f.push(slot(0));
        f.push(slot(1));
        f.push(slot(2));
    }

    #[test]
    fn peak_tracks_deepest_occupancy() {
        let mut f = FillBuffer::new(8);
        f.push(slot(0));
        f.push(slot(1));
        f.pop();
        f.push(slot(2));
        assert_eq!(f.peak(), 2);
        assert_eq!(f.total_pushes(), 3);
    }

    #[test]
    fn sized_from_geometry() {
        let f = FillBuffer::for_geometry(CacheGeometry::standard(), 256);
        assert_eq!(f.capacity, 8);
    }
}
