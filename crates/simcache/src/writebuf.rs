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
    ///
    /// The snoop walks the queue newest first and stops at the first
    /// entry retired before `now`. That is exact: [`WriteBuffer::push`]
    /// starts each entry at the later of `now` and the newest entry's
    /// completion, so completion times rise along the queue and every
    /// entry older than a retired one has retired too. A drained buffer
    /// (the common case on a coherent miss) answers from its newest
    /// entry alone.
    pub fn snoop(&self, now: u64, line: u64) -> bool {
        self.inflight
            .iter()
            .rev()
            .take_while(|&&(t, _)| t >= now)
            .any(|&(_, l)| l == line)
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

    /// The snoop the newest-first walk replaced: every entry, retired
    /// or not.
    fn full_scan(wb: &WriteBuffer, now: u64, line: u64) -> bool {
        wb.inflight.iter().any(|&(t, l)| l == line && t >= now)
    }

    #[test]
    fn snoop_equals_the_full_scan() {
        use sac_trace::rng::SplitMix64;
        for cap in [1usize, 2, 8] {
            for seed in 0..48u64 {
                let mut rng = SplitMix64::seed_from_u64(seed << 8 | cap as u64);
                let retire = 1 + rng.below(4);
                let mut wb = WriteBuffer::new(cap, retire);
                let mut now = 0u64;
                for step in 0..200 {
                    // Bursts (no time passes) fill the buffer; long
                    // pauses leave retired entries queued until the
                    // next push drains them.
                    now += rng.below(3 * retire);
                    if rng.chance(0.5) {
                        wb.push(now, rng.below(4));
                    }
                    // Each entry's retire cycle and the cycle after it,
                    // plus times before, at and after `now`.
                    let mut times: Vec<u64> =
                        wb.inflight.iter().flat_map(|&(t, _)| [t, t + 1]).collect();
                    times.extend([
                        now,
                        now.saturating_sub(rng.below(4 * retire)),
                        now + rng.below(4 * retire),
                    ]);
                    for t in times {
                        for line in 0..4 {
                            assert_eq!(
                                wb.snoop(t, line),
                                full_scan(&wb, t, line),
                                "cap {cap}, seed {seed}, step {step}: line {line} at {t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn snoop_after_the_newest_entry_retires_sees_nothing() {
        let mut wb = WriteBuffer::new(8, 4);
        wb.push(0, 1); // retires at 4
        wb.push(0, 2); // retires at 8
        wb.push(0, 1); // retires at 12
        assert!(
            wb.snoop(12, 1),
            "the newest entry forwards on its final beat"
        );
        assert!(!wb.snoop(12, 2), "an older entry already retired");
        assert!(
            !wb.snoop(13, 1),
            "nothing is pending after the newest entry"
        );
        assert!(wb.snoop(8, 2) && wb.snoop(4, 1));
    }

    #[test]
    fn snoop_buffer_full_stalls_until_head_retires() {
        let mut wb = WriteBuffer::new(1, 10);
        assert_eq!(wb.push(0, 1), 0);
        assert_eq!(wb.push(0, 2), 10);
        assert!(wb.is_full(10));
    }
}
