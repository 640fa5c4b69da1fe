//! The trace container.

use crate::Access;
use std::fmt;

/// A named sequence of tagged memory references.
///
/// Traces in the paper are produced by source-level instrumentation of the
/// benchmark loop nests; here they are produced by the `sac-loopir`
/// interpreter. A `Trace` owns its entries and exposes iteration plus a few
/// cheap aggregates.
///
/// ```
/// use sac_trace::{Access, Trace};
///
/// let trace: Trace = std::iter::repeat(Access::read(0x40)).take(3).collect();
/// assert_eq!(trace.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    name: String,
    entries: Vec<Access>,
}

impl Trace {
    /// Creates an empty trace with the given benchmark name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// Creates an empty trace with room for `cap` entries.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        Trace {
            name: name.into(),
            entries: Vec::with_capacity(cap),
        }
    }

    /// The benchmark name this trace was generated from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the trace (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Appends one reference.
    pub fn push(&mut self, access: Access) {
        self.entries.push(access);
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the references in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.entries.iter()
    }

    /// Borrows the underlying entries.
    pub fn as_slice(&self) -> &[Access] {
        &self.entries
    }

    /// A stable 64-bit content hash of the reference stream (the name is
    /// deliberately excluded). Two traces hash equal exactly when they
    /// drive a simulation through the identical sequence of references,
    /// up to 64-bit collisions, which makes this the trace component of
    /// content-addressed result-store keys: regenerating the same
    /// benchmark deterministically reuses stored results, while any change
    /// to the generator invalidates them.
    ///
    /// Each entry is read through its accessors as two words, the address
    /// and `instr | gap << 32 | flags << 48`, so every field counts and the
    /// struct's padding byte never does. Entry `i` is folded into lane
    /// `i % 4` by a 64×64→128-bit multiply whose halves are xored; the
    /// four lanes are independent chains, so their multiplies overlap.
    /// The lanes are then folded in order into the length, and the
    /// SplitMix64 finalizer spreads the result. Only integer arithmetic on
    /// field values is involved, so the value is the same on every
    /// platform. Changing this function changes every result-store key
    /// and needs a store format bump.
    pub fn content_hash(&self) -> u64 {
        let mut lanes = LANE_SEEDS;
        let mut quads = self.entries.chunks_exact(LANE_SEEDS.len());
        for quad in &mut quads {
            for (lane, a) in lanes.iter_mut().zip(quad) {
                *lane = fold_entry(*lane, a);
            }
        }
        for (lane, a) in lanes.iter_mut().zip(quads.remainder()) {
            *lane = fold_entry(*lane, a);
        }
        let mut h = self.entries.len() as u64;
        for lane in lanes {
            h = fold(h ^ lane, HASH_MUL);
        }
        crate::rng::finalize(h)
    }

    /// Sum of all issue gaps, i.e. the issue time of the last reference.
    pub fn issue_cycles(&self) -> u64 {
        self.entries.iter().map(|a| a.gap() as u64).sum()
    }

    /// Number of distinct static instructions appearing in the trace.
    pub fn instr_count(&self) -> usize {
        let mut ids: Vec<u32> = self.entries.iter().map(|a| a.instr()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Number of distinct data words touched (the data footprint, in
    /// words; multiply by [`crate::WORD_BYTES`] for bytes).
    pub fn footprint_words(&self) -> usize {
        let mut words: Vec<u64> = self.entries.iter().map(|a| a.word()).collect();
        words.sort_unstable();
        words.dedup();
        words.len()
    }

    /// Number of CPUs the trace names: one past the highest cpu id seen
    /// (1 for every single-CPU trace, including the empty one).
    pub fn cpu_count(&self) -> usize {
        self.entries.iter().map(|a| a.cpu()).max().unwrap_or(0) as usize + 1
    }

    /// Fraction of references that are loads.
    pub fn read_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let reads = self.entries.iter().filter(|a| a.kind().is_read()).count();
        reads as f64 / self.entries.len() as f64
    }
}

/// Start values of [`Trace::content_hash`]'s four lanes (hex digits of
/// pi), distinct so that entries swapped between lanes change the hash.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The odd multiplier [`Trace::content_hash`] folds with (the golden
/// ratio); its top byte is nonzero, so an entry's second word xored with
/// it is never zero.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The full 128-bit product of `a` and `b`, its halves xored.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Folds one entry into a lane. The second word packs the instruction id,
/// the gap and the 7-bit flag byte into bits 0..55.
#[inline(always)]
fn fold_entry(lane: u64, a: &Access) -> u64 {
    let word = u64::from(a.instr()) | u64::from(a.gap()) << 32 | u64::from(a.wire_flags()) << 48;
    fold(lane ^ a.addr(), word ^ HASH_MUL)
}

/// Interleaves one per-CPU reference stream per element of `streams`
/// into a single multi-core trace, round-robin: reference `i` of stream
/// `c` lands at interleaved position `i * streams.len() + c` (shorter
/// streams simply drop out of the rotation once exhausted). Every entry
/// is tagged with its stream index via [`Access::with_cpu`], so the
/// interleave is reversible and a coherent simulation can attribute each
/// reference to its core.
///
/// # Panics
///
/// Panics if `streams` is empty or names more than
/// [`crate::MAX_CPUS`] CPUs.
pub fn interleave_round_robin(name: impl Into<String>, streams: &[Trace]) -> Trace {
    assert!(!streams.is_empty(), "need at least one stream");
    assert!(
        streams.len() <= crate::MAX_CPUS,
        "at most {} CPU streams",
        crate::MAX_CPUS
    );
    let total: usize = streams.iter().map(Trace::len).sum();
    let mut out = Trace::with_capacity(name, total);
    let mut next = vec![0usize; streams.len()];
    let mut live = streams.len();
    while live > 0 {
        live = 0;
        for (cpu, stream) in streams.iter().enumerate() {
            if let Some(a) = stream.as_slice().get(next[cpu]) {
                out.push(a.with_cpu(cpu as u8));
                next[cpu] += 1;
                live += 1;
            }
        }
    }
    out
}

impl FromIterator<Access> for Trace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        Trace {
            name: String::from("anonymous"),
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<Access> for Trace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Access;
    type IntoIter = std::vec::IntoIter<Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace '{}' ({} refs)", self.name, self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::access_from_parts as entry;
    use crate::AccessKind;

    #[test]
    fn push_and_iterate() {
        let mut t = Trace::new("t");
        t.push(Access::read(0));
        t.push(Access::write(8));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let kinds: Vec<AccessKind> = t.iter().map(|a| a.kind()).collect();
        assert_eq!(kinds, vec![AccessKind::Read, AccessKind::Write]);
    }

    #[test]
    fn issue_cycles_sums_gaps() {
        let mut t = Trace::new("t");
        t.push(Access::read(0).with_gap(2));
        t.push(Access::read(8).with_gap(10));
        assert_eq!(t.issue_cycles(), 12);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = (0..4).map(|i| Access::read(i * 8)).collect();
        assert_eq!(t.len(), 4);
        t.extend([Access::write(0)]);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn instr_count_dedups() {
        let mut t = Trace::new("t");
        for i in 0..10u32 {
            t.push(Access::read(8 * i as u64).with_instr(i % 3));
        }
        assert_eq!(t.instr_count(), 3);
    }

    #[test]
    fn empty_trace_aggregates() {
        let t = Trace::new("e");
        assert!(t.is_empty());
        assert_eq!(t.issue_cycles(), 0);
        assert_eq!(t.instr_count(), 0);
        assert_eq!(t.footprint_words(), 0);
        assert_eq!(t.read_fraction(), 0.0);
    }

    #[test]
    fn footprint_and_read_fraction() {
        let mut t = Trace::new("f");
        t.push(Access::read(0));
        t.push(Access::read(4)); // same word
        t.push(Access::write(8));
        t.push(Access::read(16));
        assert_eq!(t.footprint_words(), 3);
        assert!((t.read_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn round_robin_interleave_tags_and_orders() {
        let a: Trace = (0..5u64).map(|i| Access::read(i * 8)).collect();
        let b: Trace = (0..3u64).map(|i| Access::write(0x1000 + i * 8)).collect();
        let t = interleave_round_robin("pair", &[a, b]);
        assert_eq!(t.len(), 8);
        assert_eq!(t.cpu_count(), 2);
        // First rotation: a[0] then b[0].
        assert_eq!(t.as_slice()[0].addr(), 0);
        assert_eq!(t.as_slice()[0].cpu(), 0);
        assert_eq!(t.as_slice()[1].addr(), 0x1000);
        assert_eq!(t.as_slice()[1].cpu(), 1);
        // After b is exhausted, a continues alone in order.
        let tail: Vec<u64> = t.as_slice()[6..].iter().map(|x| x.addr()).collect();
        assert_eq!(tail, vec![3 * 8, 4 * 8]);
        // Per-cpu subsequences reproduce the inputs exactly.
        let cpu0: Vec<u64> = t
            .iter()
            .filter(|x| x.cpu() == 0)
            .map(|x| x.addr())
            .collect();
        assert_eq!(cpu0, (0..5u64).map(|i| i * 8).collect::<Vec<_>>());
    }

    #[test]
    fn cpu_count_defaults_to_one() {
        assert_eq!(Trace::new("e").cpu_count(), 1);
        let t: Trace = (0..3u64).map(Access::read).collect();
        assert_eq!(t.cpu_count(), 1);
    }

    #[test]
    fn content_hash_sees_cpu_bits() {
        let base: Trace = (0..10u64).map(|i| Access::read(i * 8)).collect();
        let tagged: Trace = (0..10u64)
            .map(|i| Access::read(i * 8).with_cpu(1))
            .collect();
        assert_ne!(base.content_hash(), tagged.content_hash());
    }

    #[test]
    fn content_hash_tracks_content_not_name() {
        let build = |name: &str| {
            let mut t = Trace::new(name);
            for i in 0..100u64 {
                t.push(Access::read(i * 8).with_temporal(i % 2 == 0).with_gap(2));
            }
            t
        };
        let a = build("a");
        assert_eq!(a.content_hash(), build("b").content_hash());

        let mut changed = build("a");
        changed.push(Access::read(0));
        assert_ne!(a.content_hash(), changed.content_hash());

        let mut flipped = Trace::new("a");
        for (i, acc) in a.iter().enumerate() {
            flipped.push(if i == 50 {
                acc.with_temporal(false)
            } else {
                *acc
            });
        }
        assert_ne!(a.content_hash(), flipped.content_hash(), "tag bits hash");

        // A prefix never collides with the full trace.
        let mut prefix = Trace::new("a");
        prefix.extend(a.iter().take(99).copied());
        assert_ne!(a.content_hash(), prefix.content_hash());
    }

    /// `len` entries with every field drawn at random.
    fn random_trace(len: usize, seed: u64) -> Vec<Access> {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let w = rng.next_u64();
                entry(
                    rng.next_u64(),
                    w as u32,
                    (w >> 32) as u16,
                    (w >> 48) as u8 & 0x7f,
                )
            })
            .collect()
    }

    fn hash(entries: &[Access]) -> u64 {
        entries.iter().copied().collect::<Trace>().content_hash()
    }

    #[test]
    fn content_hash_sees_every_bit_of_every_entry() {
        // Lengths 1..=9 put the flipped entry in every lane, both in a
        // full group of four and in every remainder shape.
        for len in 1..=9 {
            let base = random_trace(len, len as u64);
            let want = hash(&base);
            for i in 0..len {
                let a = base[i];
                let (addr, instr, gap, flags) =
                    (a.addr(), a.instr(), a.gap() as u16, a.wire_flags());
                let flips = (0..64)
                    .map(|b| entry(addr ^ 1 << b, instr, gap, flags))
                    .chain((0..32).map(|b| entry(addr, instr ^ 1 << b, gap, flags)))
                    .chain((0..16).map(|b| entry(addr, instr, gap ^ 1 << b, flags)))
                    .chain((0..7).map(|b| entry(addr, instr, gap, flags ^ 1 << b)));
                for (n, flipped) in flips.enumerate() {
                    assert_ne!(flipped, a);
                    let mut t = base.clone();
                    t[i] = flipped;
                    assert_ne!(hash(&t), want, "len {len}, entry {i}, flip {n}");
                }
            }
        }
    }

    #[test]
    fn content_hash_sees_order_and_length() {
        let base = random_trace(9, 99);
        let want = hash(&base);
        // Entries 0 and 4 share lane 0; 4 and 5 sit in adjacent lanes;
        // 3 and 4 in the last lane and the next group's first.
        for (i, j) in [(0, 4), (4, 8), (4, 5), (3, 4), (0, 1), (7, 8)] {
            let mut t = base.clone();
            t.swap(i, j);
            assert_ne!(hash(&t), want, "swap {i} and {j}");
        }
        // Two entries that are their lanes' only ones trade lanes whole.
        for len in 2..=4 {
            let mut t = base[..len].to_vec();
            t.swap(0, 1);
            assert_ne!(hash(&t), hash(&base[..len]), "swap 0 and 1 of {len}");
        }
        for len in 0..base.len() {
            assert_ne!(hash(&base[..len]), want, "prefix of {len}");
        }
        let mut longer = base.clone();
        longer.push(base[8]);
        assert_ne!(hash(&longer), want, "one-entry extension");
        // The all-default stream of every length hashes apart.
        let zeros: Vec<u64> = (0..16).map(|n| hash(&vec![entry(0, 0, 0, 0); n])).collect();
        for (n, h) in zeros.iter().enumerate() {
            assert!(!zeros[..n].contains(h), "{n} zero entries");
        }
    }

    #[test]
    fn content_hash_known_answer() {
        // Changing this value changes every result-store key: it needs a
        // bump of the store's format header, so older entries are refused.
        let t: Trace = [
            entry(0x1000, 1, 1, 0),
            entry(0x1008, 1, 2, 0b0000_0011),
            entry(0xffff_ffff_ffff_fff8, 0xdead_beef, u16::MAX, 0x7f),
            entry(0, 0, 0, 0b0110_0100),
            entry(0x2040, 7, 12, 0b0001_1101),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.content_hash(), 0xe351_1291_28f0_17a9);
    }
}
