//! The write buffer: dirty victims drain to memory over the bus.

use std::collections::VecDeque;

/// A timed write buffer whose pending entries are visible to bus snoops.
///
/// Dirty victim lines are pushed here instead of stalling the processor;
/// entries retire over the bus, one line every `retire_cycles`. Pushing
/// into a full buffer stalls until the oldest entry retires — the stall is
/// returned so the engine can charge it (§2.1 notes that with a large
/// virtual line and many dirty targets, not all transfers can be hidden).
///
/// Each entry remembers which line it holds. Under snooping coherence a
/// dirty line sitting in the write buffer is still the newest copy: a
/// remote miss that races the drain must be answered from the buffer (a
/// *write-buffer forward*), not from stale memory, so the coherent driver
/// asks through [`WriteBuffer::snoop`].
///
/// ```
/// use sac_simcache::WriteBuffer;
///
/// let mut wb = WriteBuffer::new(2, 2);
/// assert_eq!(wb.push(0, 0x40), 0);
/// assert_eq!(wb.push(0, 0x80), 0);
/// // Buffer full; third push at cycle 0 waits for the first retire at 2.
/// assert_eq!(wb.push(0, 0xc0), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    cap: usize,
    retire_cycles: u64,
    /// `(completion time, line)` of in-flight writes, oldest first.
    inflight: VecDeque<(u64, u64)>,
}

impl WriteBuffer {
    /// Creates a write buffer of `cap` line entries, each taking
    /// `retire_cycles` of bus time to drain.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize, retire_cycles: u64) -> Self {
        assert!(cap > 0, "write buffer needs at least one entry");
        WriteBuffer {
            cap,
            retire_cycles: retire_cycles.max(1),
            inflight: VecDeque::with_capacity(cap),
        }
    }

    /// The paper's configuration: 8 entries, retiring a 32-byte line over
    /// a 16-byte bus (2 cycles).
    pub fn standard() -> Self {
        WriteBuffer::new(8, 2)
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries still in flight at `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.drain(now);
        self.inflight.len()
    }

    /// Whether a push at `now` would stall.
    pub fn is_full(&mut self, now: u64) -> bool {
        self.occupancy(now) == self.cap
    }

    /// Enqueues the dirty line `line` at cycle `now`; returns the stall in
    /// cycles (0 unless the buffer was full).
    pub fn push(&mut self, now: u64, line: u64) -> u64 {
        self.drain(now);
        let mut stall = 0;
        let mut now = now;
        if self.inflight.len() == self.cap {
            let (head, _) = *self.inflight.front().expect("full buffer has a head");
            stall = head - now;
            now = head;
            self.inflight.pop_front();
        }
        let start = self
            .inflight
            .back()
            .map(|&(t, _)| t)
            .unwrap_or(now)
            .max(now);
        self.inflight.push_back((start + self.retire_cycles, line));
        stall
    }

    /// Answers a bus snoop at cycle `now`: whether a pending entry holds
    /// `line`. An entry retiring at cycle `t` occupies the bus through
    /// `t`, so the visibility boundary is inclusive: a snoop at exactly
    /// `t` still forwards (memory is only consistent from `t + 1` on).
    /// The timing side ([`WriteBuffer::push`], occupancy) keeps an
    /// exclusive boundary — only snoop *visibility* extends through the
    /// final beat.
    pub fn snoop(&self, now: u64, line: u64) -> bool {
        self.inflight.iter().any(|&(t, l)| l == line && t >= now)
    }

    fn drain(&mut self, now: u64) {
        while let Some(&(head, _)) = self.inflight.front() {
            if head <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_without_pressure_are_free() {
        let mut wb = WriteBuffer::new(4, 2);
        for t in [0u64, 10, 20] {
            assert_eq!(wb.push(t, t), 0);
        }
    }

    #[test]
    fn retirement_frees_slots() {
        let mut wb = WriteBuffer::new(1, 2);
        assert_eq!(wb.push(0, 1), 0);
        // Retires at 2; pushing at 5 is free again.
        assert_eq!(wb.push(5, 2), 0);
    }

    #[test]
    fn full_buffer_stalls_until_head_retires() {
        let mut wb = WriteBuffer::new(2, 10);
        wb.push(0, 1); // retires at 10
        wb.push(0, 2); // retires at 20 (serialized on the bus)
        let stall = wb.push(0, 3);
        assert_eq!(stall, 10);
    }

    #[test]
    fn serialized_retirement_chains() {
        let mut wb = WriteBuffer::new(8, 2);
        for line in 0..8 {
            assert_eq!(wb.push(0, line), 0);
        }
        // Ninth push at cycle 0: head retires at 2.
        assert_eq!(wb.push(0, 8), 2);
    }

    #[test]
    fn occupancy_reflects_time() {
        let mut wb = WriteBuffer::new(4, 2);
        wb.push(0, 1);
        wb.push(0, 2);
        assert_eq!(wb.occupancy(1), 2);
        assert_eq!(wb.occupancy(2), 1);
        assert_eq!(wb.occupancy(4), 0);
        assert!(!wb.is_full(0));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0, 2);
    }

    #[test]
    fn snoop_sees_pending_line_until_drain() {
        let mut wb = WriteBuffer::new(4, 10);
        wb.push(0, 0x40);
        assert!(wb.snoop(5, 0x40), "pending entry forwards");
        assert!(!wb.snoop(5, 0x80), "other lines do not");
        // The final beat lands during cycle 10: still visible there,
        // memory consistent from 11 on.
        assert!(wb.snoop(10, 0x40));
        assert!(!wb.snoop(11, 0x40));
    }

    #[test]
    fn snoop_buffer_full_stalls_until_head_retires() {
        let mut wb = WriteBuffer::new(1, 10);
        assert_eq!(wb.push(0, 1), 0);
        assert_eq!(wb.push(0, 2), 10);
        assert!(wb.is_full(10));
    }
}
