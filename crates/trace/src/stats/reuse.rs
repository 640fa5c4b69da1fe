//! Reuse-distance distribution (paper Figure 1a).

use super::wordmap::WordMap;
use crate::{Access, Trace};
use std::fmt;

/// The reuse-distance bands plotted in Figure 1a.
///
/// A reference's *reuse distance* is the number of references issued between
/// it and the next reference to the same data word; a word referenced for
/// the last time falls into [`ReuseBand::NoReuse`] ("0 corresponds to data
/// referenced only once" in the paper's caption). Variants are declared
/// in plot order, so `band as usize` indexes the histogram's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseBand {
    /// The word is never referenced again.
    NoReuse,
    /// Next reuse within 1 to 10² references.
    UpTo100,
    /// Next reuse within 10² to 10³ references.
    UpTo1k,
    /// Next reuse within 10³ to 10⁴ references.
    UpTo10k,
    /// Next reuse beyond 10⁴ references.
    Beyond10k,
}

impl ReuseBand {
    /// All bands in plot order.
    pub const ALL: [ReuseBand; 5] = [
        ReuseBand::NoReuse,
        ReuseBand::UpTo100,
        ReuseBand::UpTo1k,
        ReuseBand::UpTo10k,
        ReuseBand::Beyond10k,
    ];

    /// Classifies a forward reuse distance (`None` = never reused).
    pub fn classify(distance: Option<u64>) -> Self {
        match distance {
            None => ReuseBand::NoReuse,
            Some(d) if d <= 100 => ReuseBand::UpTo100,
            Some(d) if d <= 1_000 => ReuseBand::UpTo1k,
            Some(d) if d <= 10_000 => ReuseBand::UpTo10k,
            Some(_) => ReuseBand::Beyond10k,
        }
    }

    /// The label used in the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            ReuseBand::NoReuse => "no reuse",
            ReuseBand::UpTo100 => "1 - 10^2",
            ReuseBand::UpTo1k => "10^2 - 10^3",
            ReuseBand::UpTo10k => "10^3 - 10^4",
            ReuseBand::Beyond10k => "> 10^4",
        }
    }
}

impl fmt::Display for ReuseBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Distribution of a trace's references over reuse-distance bands.
///
/// ```
/// use sac_trace::{Access, Trace};
/// use sac_trace::stats::{ReuseBand, ReuseHistogram};
///
/// // Word 0 is reused at distance 1; word 8 never again.
/// let trace: Trace = [Access::read(0), Access::read(0), Access::read(8)]
///     .into_iter()
///     .collect();
/// let h = ReuseHistogram::of(&trace);
/// assert!(h.fraction(ReuseBand::UpTo100) > 0.3);
/// assert!(h.fraction(ReuseBand::NoReuse) > 0.6);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseHistogram {
    counts: [u64; 5],
    total: u64,
}

impl ReuseHistogram {
    /// Computes the histogram for a trace (word granularity, forward
    /// distances).
    ///
    /// A backward pass records, for each word, the index of its next
    /// reference. When the trace's words span fewer than two words per
    /// reference (every generated workload: arrays are laid out
    /// contiguously), that record is a dense `u32` table indexed by
    /// `word - lo`, at most 8 bytes per reference and one load and store
    /// per reference. Sparser traces (external trace files scattered over
    /// the address space) fall back to a hashed word map.
    pub fn of(trace: &Trace) -> Self {
        let accesses = trace.as_slice();
        let mut counts = [0u64; 5];
        match dense_span(accesses) {
            Some((lo, span)) => {
                // `u32::MAX` marks "no later use"; indices stay below it.
                let mut next_use = vec![u32::MAX; span];
                for (i, a) in accesses.iter().enumerate().rev() {
                    let i = i as u32;
                    let next = std::mem::replace(&mut next_use[(a.word() - lo) as usize], i);
                    let dist = (next != u32::MAX).then(|| u64::from(next - i));
                    counts[ReuseBand::classify(dist) as usize] += 1;
                }
            }
            None => {
                // Sized for the common case of many reuses per word; grows
                // if the trace turns out to be mostly-unique addresses.
                let mut next_use = WordMap::with_capacity(accesses.len() / 4);
                for (i, a) in accesses.iter().enumerate().rev() {
                    let i = i as u64;
                    let dist = next_use.insert(a.word(), i).map(|next| next - i);
                    counts[ReuseBand::classify(dist) as usize] += 1;
                }
            }
        }
        ReuseHistogram {
            counts,
            total: accesses.len() as u64,
        }
    }

    /// Fraction of references in the given band (0 if the trace is empty).
    pub fn fraction(&self, band: ReuseBand) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[band as usize] as f64 / self.total as f64
        }
    }

    /// Raw count in the given band.
    pub fn count(&self, band: ReuseBand) -> u64 {
        self.counts[band as usize]
    }

    /// Total number of references analysed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fractions in plot order (Figure 1a bar segments).
    pub fn fractions(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, band) in ReuseBand::ALL.into_iter().enumerate() {
            out[i] = self.fraction(band);
        }
        out
    }
}

/// The lowest word and the length of the dense next-use table, or `None`
/// when the words span `2 * len` or more (the table would outgrow 8 bytes
/// per reference) or the trace is too long for `u32` indices.
fn dense_span(accesses: &[Access]) -> Option<(u64, usize)> {
    let len = accesses.len() as u64;
    if len >= u64::from(u32::MAX) {
        return None;
    }
    let (lo, hi) = accesses.iter().fold((u64::MAX, 0), |(lo, hi), a| {
        (lo.min(a.word()), hi.max(a.word()))
    });
    let span = hi.checked_sub(lo)?;
    (span < 2 * len).then(|| (lo, span as usize + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(addrs: &[u64]) -> Trace {
        addrs.iter().map(|&a| Access::read(a)).collect()
    }

    #[test]
    fn classify_boundaries() {
        assert_eq!(ReuseBand::classify(None), ReuseBand::NoReuse);
        assert_eq!(ReuseBand::classify(Some(1)), ReuseBand::UpTo100);
        assert_eq!(ReuseBand::classify(Some(100)), ReuseBand::UpTo100);
        assert_eq!(ReuseBand::classify(Some(101)), ReuseBand::UpTo1k);
        assert_eq!(ReuseBand::classify(Some(1_000)), ReuseBand::UpTo1k);
        assert_eq!(ReuseBand::classify(Some(10_000)), ReuseBand::UpTo10k);
        assert_eq!(ReuseBand::classify(Some(10_001)), ReuseBand::Beyond10k);
    }

    #[test]
    fn single_use_words_have_no_reuse() {
        let h = ReuseHistogram::of(&trace_of(&[0, 8, 16, 24]));
        assert_eq!(h.count(ReuseBand::NoReuse), 4);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn immediate_reuse_lands_in_first_band() {
        // Word 0 referenced three times: two entries with forward reuse,
        // the final one with none.
        let h = ReuseHistogram::of(&trace_of(&[0, 0, 0]));
        assert_eq!(h.count(ReuseBand::UpTo100), 2);
        assert_eq!(h.count(ReuseBand::NoReuse), 1);
    }

    #[test]
    fn long_distance_reuse() {
        // Word 0, then 1500 distinct fillers, then word 0 again.
        let mut addrs: Vec<u64> = vec![0];
        addrs.extend((1..=1500u64).map(|i| i * 8));
        addrs.push(0);
        let h = ReuseHistogram::of(&trace_of(&addrs));
        assert_eq!(h.count(ReuseBand::UpTo10k), 1);
    }

    #[test]
    fn sub_word_addresses_share_a_word() {
        let h = ReuseHistogram::of(&trace_of(&[0, 4]));
        // 0 and 4 are in the same 8-byte word: the first entry is a reuse.
        assert_eq!(h.count(ReuseBand::UpTo100), 1);
        assert_eq!(h.count(ReuseBand::NoReuse), 1);
    }

    #[test]
    fn fractions_sum_to_one() {
        let addrs: Vec<u64> = (0..1000u64).map(|i| (i % 37) * 8).collect();
        let h = ReuseHistogram::of(&trace_of(&addrs));
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let h = ReuseHistogram::of(&Trace::new("e"));
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction(ReuseBand::NoReuse), 0.0);
    }
}
