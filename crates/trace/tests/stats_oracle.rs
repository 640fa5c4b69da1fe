//! The Figure 1a and 1b statistics passes checked against naive
//! reference models on seeded random traces.
//!
//! * Reuse distances: a forward walk remembering each word's previous
//!   reference in a `HashMap`; when the word recurs, the earlier
//!   reference's distance is the index difference, and references never
//!   followed by another to their word have no reuse.
//! * Vector lengths: the rule in `stats::vectors`' doc comment applied
//!   literally. Each instruction's references are split into sequences
//!   wherever the stride exceeds 32 bytes or the instruction stayed idle
//!   for more than 500 references, and every reference counts in the band
//!   of its sequence's byte extent (lowest to highest address, plus one
//!   word).
//!
//! The traces cover both reuse paths (dense words, and words scattered
//! over the whole 64-bit space up to the top word), sub-word addresses,
//! instruction ids near `u32::MAX` and idle gaps of exactly 500 and 501.

use sac_trace::rng::SplitMix64;
use sac_trace::stats::{ReuseBand, ReuseHistogram, VectorBand, VectorLengths};
use sac_trace::{Access, Trace, WORD_BYTES};
use std::collections::HashMap;

/// Naive reuse-band counts, in `ReuseBand::ALL` order.
fn reuse_oracle(trace: &Trace) -> [u64; 5] {
    let mut counts = [0u64; 5];
    let mut last: HashMap<u64, usize> = HashMap::new();
    for (j, a) in trace.iter().enumerate() {
        if let Some(i) = last.insert(a.word(), j) {
            let band = match j - i {
                0..=100 => 1,
                101..=1_000 => 2,
                1_001..=10_000 => 3,
                _ => 4,
            };
            counts[band] += 1;
        }
    }
    counts[0] = last.len() as u64;
    counts
}

/// Naive vector-band counts, in `VectorBand::ALL` order.
fn vector_oracle(trace: &Trace) -> [u64; 6] {
    let mut by_instr: HashMap<u32, Vec<(usize, u64)>> = HashMap::new();
    for (i, a) in trace.iter().enumerate() {
        by_instr.entry(a.instr()).or_default().push((i, a.addr()));
    }
    let mut counts = [0u64; 6];
    for refs in by_instr.values() {
        let mut start = 0;
        for end in 1..=refs.len() {
            let cut = end == refs.len() || {
                let (i0, a0) = refs[end - 1];
                let (i1, a1) = refs[end];
                a0.abs_diff(a1) > 32 || i1 - i0 > 500
            };
            if cut {
                let seq = &refs[start..end];
                let lo = seq.iter().map(|&(_, a)| a).min().unwrap();
                let hi = seq.iter().map(|&(_, a)| a).max().unwrap();
                let band = match hi - lo + WORD_BYTES {
                    0..=32 => 0,
                    33..=64 => 1,
                    65..=128 => 2,
                    129..=256 => 3,
                    257..=512 => 4,
                    _ => 5,
                };
                counts[band] += seq.len() as u64;
                start = end;
            }
        }
    }
    counts
}

fn reuse_counts(trace: &Trace) -> [u64; 5] {
    let h = ReuseHistogram::of(trace);
    assert_eq!(h.total(), trace.len() as u64);
    ReuseBand::ALL.map(|b| h.count(b))
}

fn vector_counts(trace: &Trace) -> [u64; 6] {
    let v = VectorLengths::of(trace);
    assert_eq!(v.total(), trace.len() as u64);
    VectorBand::ALL.map(|b| v.count(b))
}

/// Whether the reuse pass takes its dense table for this trace: the
/// words span fewer than two per reference.
fn is_dense(trace: &Trace) -> bool {
    let lo = trace.iter().map(Access::word).min().unwrap();
    let hi = trace.iter().map(Access::word).max().unwrap();
    hi - lo < 2 * trace.len() as u64
}

/// Checks both passes against their oracles, plus the identity that each
/// distinct word's last reference is the only one without reuse.
fn check(trace: &Trace) -> [u64; 5] {
    let reuse = reuse_counts(trace);
    assert_eq!(
        reuse,
        reuse_oracle(trace),
        "reuse bands of {}",
        trace.name()
    );
    assert_eq!(
        reuse[0],
        trace.footprint_words() as u64,
        "no-reuse count vs footprint of {}",
        trace.name()
    );
    assert_eq!(
        vector_counts(trace),
        vector_oracle(trace),
        "vector bands of {}",
        trace.name()
    );
    reuse
}

fn assert_every_band_hit(reuse: [u64; 5], vectors: [u64; 6]) {
    assert!(reuse.iter().all(|&c| c > 0), "reuse bands {reuse:?}");
    assert!(vectors.iter().all(|&c| c > 0), "vector bands {vectors:?}");
}

/// Instruction ids, including the top of the `u32` range.
const INSTRS: [u32; 6] = [0, 1, 7, 1 << 31, u32::MAX - 1, u32::MAX];

/// A random mix of streaming instructions (small strides in both
/// directions, runs that end in jumps) and instructions reusing data at
/// every distance band, with sub-word offsets. `place` maps a word index
/// in `0..words` to the word actually referenced.
fn mixed_trace(name: &str, seed: u64, len: usize, place: impl Fn(u64) -> u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let words = (len / 2) as u64;
    let strides: [i64; 6] = [8, 16, 24, 32, 40, -8];
    let mut cursors: Vec<(u64, i64)> = INSTRS
        .iter()
        .map(|_| (rng.below(words), strides[rng.index(strides.len())]))
        .collect();
    let mut trace = Trace::new(name);
    for _ in 0..len {
        let k = rng.index(INSTRS.len());
        // The last instruction issues rarely, so its idle times straddle
        // the 500-reference cutoff.
        if k == INSTRS.len() - 1 && !rng.chance(0.01) {
            continue;
        }
        let byte_index = match k {
            // Streams: walk by the cursor's stride, occasionally jumping.
            0 | 2 | 5 => {
                let (pos, stride) = &mut cursors[k];
                if rng.chance(0.005) {
                    *pos = rng.below(words * 8);
                    *stride = strides[rng.index(strides.len())];
                } else {
                    *pos = pos.wrapping_add_signed(*stride) % (words * 8);
                }
                *pos
            }
            // Hot, warm and cold reuse sets.
            _ => match rng.below(10) {
                0..=3 => rng.below(16) * 8,
                4..=5 => rng.below(400) * 8 + rng.below(8),
                6..=7 => rng.below(4_000) * 8 + rng.below(8),
                _ => rng.below(words) * 8 + rng.below(8),
            },
        };
        let word = place(byte_index / 8);
        let addr = word * 8 + byte_index % 8;
        let a = if rng.chance(0.2) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        trace.push(a.with_instr(INSTRS[k]));
    }
    trace
}

#[test]
fn dense_words_match_the_oracles() {
    for seed in 0..4 {
        let base = 0x1000_0000 + seed * 12_345;
        let trace = mixed_trace("dense", seed, 60_000, |w| base + w);
        assert!(is_dense(&trace));
        assert_every_band_hit(check(&trace), vector_counts(&trace));
    }
}

#[test]
fn scattered_words_match_the_oracles() {
    for seed in 0..4 {
        // Consecutive word indices stay neighbours (so streams keep their
        // strides) inside 1024-word pages spread over the whole 64-bit
        // space; the trace's 30 pages wrap onto these 24, the last of
        // which ends at the top word.
        let mut rng = SplitMix64::seed_from_u64(100 + seed);
        let pages: Vec<u64> = (0..24u64)
            .map(|p| match p {
                0 => 0,
                23 => u64::MAX / 8 - 1023,
                _ => (rng.next_u64() / 8).saturating_sub(1024),
            })
            .collect();
        let mut trace = mixed_trace("sparse", seed, 60_000, |w| {
            pages[(w / 1024) as usize % pages.len()] + w % 1024
        });
        trace.push(Access::read(u64::MAX).with_instr(u32::MAX));
        trace.push(Access::read(u64::MAX - 7).with_instr(u32::MAX));
        trace.push(Access::read(0).with_instr(u32::MAX));
        assert!(!is_dense(&trace));
        assert_every_band_hit(check(&trace), vector_counts(&trace));
    }
}

#[test]
fn sub_word_addresses_share_a_word_on_both_paths() {
    // Bytes 0..8 of four words, each byte once: 32 references, of which
    // the last per word has no reuse.
    let bytes: Vec<u64> = (0..4u64)
        .flat_map(|w| (0..8).map(move |b| w * 8 + b))
        .collect();
    let dense: Trace = bytes.iter().map(|&a| Access::read(a)).collect();
    assert!(is_dense(&dense));
    assert_eq!(check(&dense), [4, 28, 0, 0, 0]);
    let sparse: Trace = bytes
        .iter()
        .map(|&a| Access::read(a % 16 + a / 16 * ((u64::MAX / 2) & !7)))
        .collect();
    assert!(!is_dense(&sparse));
    assert_eq!(check(&sparse), [4, 28, 0, 0, 0]);
}

#[test]
fn idle_gaps_of_500_continue_and_501_cut() {
    // Instruction u32::MAX walks consecutive words; filler instruction 0
    // hammers one word in between. Its references sit `gap` apart.
    for (gap, joined) in [(500usize, true), (501, false)] {
        let mut trace = Trace::new(format!("idle{gap}"));
        for k in 0..8u64 {
            trace.push(Access::read(0x8000 + k * 8).with_instr(u32::MAX));
            for _ in 1..gap {
                trace.push(Access::read(0x40).with_instr(0));
            }
        }
        check(&trace);
        let v = VectorLengths::of(&trace);
        let fillers = 8 * (gap as u64 - 1);
        if joined {
            // One 64-byte sequence of 8 references.
            assert_eq!(v.count(VectorBand::UpTo64), 8);
            assert_eq!(v.count(VectorBand::UpTo32), fillers);
        } else {
            // Eight one-word sequences.
            assert_eq!(v.count(VectorBand::UpTo64), 0);
            assert_eq!(v.count(VectorBand::UpTo32), fillers + 8);
        }
    }
}

#[test]
fn empty_and_single_reference_traces() {
    assert_eq!(check(&Trace::new("empty")), [0; 5]);
    let one: Trace = [Access::write(u64::MAX).with_instr(u32::MAX)]
        .into_iter()
        .collect();
    assert_eq!(check(&one), [1, 0, 0, 0, 0]);
}
