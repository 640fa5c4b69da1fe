//! Vector lengths of per-instruction reference streams (paper Figure 1b).
//!
//! The paper measures, per static load/store instruction, the *vector
//! length* of the address streams it issues: a sequence extends while the
//! instruction keeps a stride of at most 32 bytes, and terminates either
//! when the stride grows beyond 32 bytes or when the instruction stays
//! unused for more than 500 references (a value much smaller than the
//! average lifetime of a cache line). Each reference is then attributed to
//! the byte-length band of the sequence it belongs to.

use super::wordmap::WordMap;
use crate::Trace;
use std::fmt;

/// Maximum stride (bytes) for a vector sequence to continue.
pub const MAX_STRIDE: u64 = 32;

/// Maximum idle time (in references) before a sequence is cut.
pub const IDLE_CUTOFF: u64 = 500;

/// The vector-length bands plotted in Figure 1b. Variants are declared in
/// plot order, so `band as usize` indexes the distribution's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VectorBand {
    /// Sequence spans ≤ 32 bytes (no exploitable spatial run).
    UpTo32,
    /// 32 < length ≤ 64 bytes.
    UpTo64,
    /// 64 < length ≤ 128 bytes.
    UpTo128,
    /// 128 < length ≤ 256 bytes.
    UpTo256,
    /// 256 < length ≤ 512 bytes.
    UpTo512,
    /// Length beyond 512 bytes.
    Beyond512,
}

impl VectorBand {
    /// All bands in plot order.
    pub const ALL: [VectorBand; 6] = [
        VectorBand::UpTo32,
        VectorBand::UpTo64,
        VectorBand::UpTo128,
        VectorBand::UpTo256,
        VectorBand::UpTo512,
        VectorBand::Beyond512,
    ];

    /// Classifies a sequence extent in bytes.
    pub fn classify(bytes: u64) -> Self {
        match bytes {
            0..=32 => VectorBand::UpTo32,
            33..=64 => VectorBand::UpTo64,
            65..=128 => VectorBand::UpTo128,
            129..=256 => VectorBand::UpTo256,
            257..=512 => VectorBand::UpTo512,
            _ => VectorBand::Beyond512,
        }
    }

    /// The label used in the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            VectorBand::UpTo32 => "<= 32 B",
            VectorBand::UpTo64 => "32-64 B",
            VectorBand::UpTo128 => "64-128 B",
            VectorBand::UpTo256 => "128-256 B",
            VectorBand::UpTo512 => "256-512 B",
            VectorBand::Beyond512 => "> 512 B",
        }
    }
}

impl fmt::Display for VectorBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone)]
struct StreamState {
    last_addr: u64,
    last_index: u64,
    /// Lowest and highest address touched by the current sequence.
    lo: u64,
    hi: u64,
    /// References attributed to the current sequence so far.
    refs: u64,
}

/// Distribution of references over the vector length of their instruction's
/// address stream.
///
/// ```
/// use sac_trace::{Access, Trace};
/// use sac_trace::stats::{VectorBand, VectorLengths};
///
/// // One instruction streaming 64 consecutive doubles: a 512-byte vector.
/// let trace: Trace = (0..64u64)
///     .map(|i| Access::read(i * 8).with_instr(1))
///     .collect();
/// let v = VectorLengths::of(&trace);
/// assert!(v.fraction(VectorBand::UpTo512) > 0.99);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VectorLengths {
    counts: [u64; 6],
    total: u64,
}

impl VectorLengths {
    /// Computes the distribution for a trace.
    pub fn of(trace: &Trace) -> Self {
        // Instruction id → index into `states`, in first-use order.
        let mut slots = WordMap::with_capacity(64);
        let mut states: Vec<StreamState> = Vec::new();
        let mut counts = [0u64; 6];
        for (i, a) in trace.iter().enumerate() {
            let i = i as u64;
            let slot = slots.get_or_insert(u64::from(a.instr()), states.len() as u64) as usize;
            if slot == states.len() {
                states.push(StreamState {
                    last_addr: a.addr(),
                    last_index: i,
                    lo: a.addr(),
                    hi: a.addr(),
                    refs: 0,
                });
            }
            let state = &mut states[slot];
            let stride = a.addr().abs_diff(state.last_addr);
            let idle = i - state.last_index;
            if state.refs > 0 && (stride > MAX_STRIDE || idle > IDLE_CUTOFF) {
                flush(state, &mut counts);
                state.lo = a.addr();
                state.hi = a.addr();
            }
            state.lo = state.lo.min(a.addr());
            state.hi = state.hi.max(a.addr());
            state.last_addr = a.addr();
            state.last_index = i;
            state.refs += 1;
        }
        // The counts are additive, so the flush order does not matter.
        for state in &mut states {
            flush(state, &mut counts);
        }
        VectorLengths {
            counts,
            total: trace.len() as u64,
        }
    }

    /// Fraction of references in the given band.
    pub fn fraction(&self, band: VectorBand) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[band as usize] as f64 / self.total as f64
        }
    }

    /// Raw count in the given band.
    pub fn count(&self, band: VectorBand) -> u64 {
        self.counts[band as usize]
    }

    /// Total references analysed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fractions in plot order (Figure 1b bar segments).
    pub fn fractions(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        for (i, band) in VectorBand::ALL.into_iter().enumerate() {
            out[i] = self.fraction(band);
        }
        out
    }
}

fn flush(state: &mut StreamState, counts: &mut [u64; 6]) {
    if state.refs == 0 {
        return;
    }
    // Extent covers the final word too.
    let bytes = state.hi - state.lo + crate::WORD_BYTES;
    counts[VectorBand::classify(bytes) as usize] += state.refs;
    state.refs = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Access;

    #[test]
    fn classify_boundaries() {
        assert_eq!(VectorBand::classify(8), VectorBand::UpTo32);
        assert_eq!(VectorBand::classify(32), VectorBand::UpTo32);
        assert_eq!(VectorBand::classify(33), VectorBand::UpTo64);
        assert_eq!(VectorBand::classify(512), VectorBand::UpTo512);
        assert_eq!(VectorBand::classify(513), VectorBand::Beyond512);
    }

    #[test]
    fn scalar_instruction_stays_in_first_band() {
        // Same address over and over: extent is one word.
        let t: Trace = (0..100).map(|_| Access::read(0x40).with_instr(3)).collect();
        let v = VectorLengths::of(&t);
        assert_eq!(v.count(VectorBand::UpTo32), 100);
    }

    #[test]
    fn long_stream_lands_in_large_band() {
        let t: Trace = (0..200u64)
            .map(|i| Access::read(i * 8).with_instr(1))
            .collect();
        let v = VectorLengths::of(&t);
        assert_eq!(v.count(VectorBand::Beyond512), 200);
    }

    #[test]
    fn large_stride_cuts_sequence() {
        // Stride of 800 bytes: every reference is its own sequence.
        let t: Trace = (0..50u64)
            .map(|i| Access::read(i * 800).with_instr(1))
            .collect();
        let v = VectorLengths::of(&t);
        assert_eq!(v.count(VectorBand::UpTo32), 50);
    }

    #[test]
    fn idle_cutoff_splits_streams() {
        let mut t = Trace::new("idle");
        // Instruction 1 issues 4 consecutive words, goes idle for 600
        // references from instruction 2, then issues 4 more from where it
        // left off. The idle cut splits it into two 32-byte sequences.
        for i in 0..4u64 {
            t.push(Access::read(i * 8).with_instr(1));
        }
        for i in 0..600u64 {
            t.push(Access::read(0x10_0000 + (i % 4) * 8).with_instr(2));
        }
        for i in 4..8u64 {
            t.push(Access::read(i * 8).with_instr(1));
        }
        let v = VectorLengths::of(&t);
        // All instruction-1 references fall in the ≤32 B band.
        assert_eq!(v.count(VectorBand::UpTo32), 600 + 8);
    }

    #[test]
    fn two_instructions_tracked_independently() {
        let mut t = Trace::new("two");
        for i in 0..64u64 {
            t.push(Access::read(i * 8).with_instr(1));
            t.push(Access::read(0x100000 + i * 8).with_instr(2));
        }
        let v = VectorLengths::of(&t);
        assert_eq!(v.count(VectorBand::UpTo512), 128);
    }

    #[test]
    fn fractions_sum_to_one() {
        let t: Trace = (0..1000u64)
            .map(|i| Access::read(i * 16).with_instr((i % 7) as u32))
            .collect();
        let v = VectorLengths::of(&t);
        let sum: f64 = v.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
