//! The inter-reference issue-time distribution (paper Figure 4b).
//!
//! The paper could not recover cycle counts from source-level tracing, so
//! the authors measured — with the Spa binary tracer — the distribution of
//! the number of cycles between two consecutive load/store instructions
//! (every instruction pessimistically counted as one cycle), and drew the
//! gap of each trace entry from that distribution at trace-generation time.
//! We reuse the published distribution.

use crate::rng::SplitMix64;

/// The Figure 4b histogram: `(gap in cycles, fraction of load/stores)`.
///
/// Bars read off the paper's figure; the `> 20` band is represented by a
/// 25-cycle gap. Fractions sum to 1.
pub const FIG4B_DISTRIBUTION: [(u32, f64); 9] = [
    (1, 0.34),
    (2, 0.20),
    (3, 0.12),
    (4, 0.08),
    (5, 0.07),
    (10, 0.10),
    (15, 0.04),
    (20, 0.03),
    (25, 0.02),
];

/// Sampler for issue gaps between consecutive references.
///
/// A `GapModel` owns a seeded RNG so that a given seed always reproduces the
/// same gap sequence — the paper stores gaps in the trace precisely so that
/// "repetitive simulations performed with the same trace are completely
/// identical".
///
/// ```
/// use sac_trace::GapModel;
///
/// let mut a = GapModel::seeded(7);
/// let mut b = GapModel::seeded(7);
/// let ga: Vec<u32> = (0..100).map(|_| a.sample()).collect();
/// let gb: Vec<u32> = (0..100).map(|_| b.sample()).collect();
/// assert_eq!(ga, gb);
/// assert!(ga.iter().all(|&g| (1..=25).contains(&g)));
/// ```
#[derive(Debug, Clone)]
pub struct GapModel {
    rng: SplitMix64,
    /// `thresholds[k] = ceil(cum_k · 2^53)` for the cumulative probability
    /// `cum_k` of buckets `0..=k`; see [`GapModel::sample`].
    thresholds: [u64; 8],
    /// The gap of each bucket, unused tail slots padded with the last.
    gaps: [u32; 9],
}

impl GapModel {
    /// Creates a gap model with a deterministic seed.
    pub fn seeded(seed: u64) -> Self {
        GapModel::from_distribution(seed, &FIG4B_DISTRIBUTION)
            .expect("the published distribution is well-formed")
    }

    /// Creates a gap model from a custom `(gap, probability)` histogram —
    /// for studying issue rates other than the paper's Figure 4b (e.g. a
    /// wider superscalar front end).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the histogram is empty,
    /// has non-positive entries, or does not sum to 1 (±1e-6).
    pub fn from_distribution(seed: u64, dist: &[(u32, f64)]) -> Result<Self, String> {
        if dist.is_empty() {
            return Err("distribution must have at least one bucket".into());
        }
        let mut gaps = [0u32; 9];
        if dist.len() > gaps.len() {
            return Err(format!("at most {} buckets supported", gaps.len()));
        }
        // Every threshold starts at 2^53, past the largest draw, which
        // pins the last bucket's cumulative value (and the unused tail's)
        // to 1.
        let mut thresholds = [1u64 << 53; 8];
        let mut acc = 0.0;
        for (k, &(gap, p)) in dist.iter().enumerate() {
            if gap == 0 {
                return Err("gaps must be at least 1 cycle".into());
            }
            if p <= 0.0 {
                return Err(format!("bucket for gap {gap} has probability {p}"));
            }
            acc += p;
            gaps[k] = gap;
            if k + 1 < dist.len() {
                thresholds[k] = (acc * (1u64 << 53) as f64).ceil() as u64;
            }
        }
        if (acc - 1.0).abs() > 1e-6 {
            return Err(format!("probabilities sum to {acc}, expected 1"));
        }
        let final_gap = gaps[dist.len() - 1];
        for slot in gaps.iter_mut().skip(dist.len()) {
            *slot = final_gap;
        }
        Ok(GapModel {
            rng: SplitMix64::seed_from_u64(seed),
            thresholds,
            gaps,
        })
    }

    /// Draws the issue gap (in cycles) for the next trace entry.
    ///
    /// The draw is `m = x >> 11` for the generator's next word `x`, read
    /// as the uniform `u = m / 2^53`, and the gap is that of the first
    /// bucket whose cumulative probability `cum_k` exceeds `u`. Both
    /// scalings by 2^53 are exact in `f64` (`m < 2^53`; `cum_k · 2^53`
    /// only shifts the exponent), so `u < cum_k` holds exactly when
    /// `m < cum_k · 2^53`, that is when `m < ceil(cum_k · 2^53)` for the
    /// integer `m`. The bucket index is therefore the number of
    /// thresholds `m` has reached, counted without a branch.
    pub fn sample(&mut self) -> u32 {
        let m = self.rng.next_u64() >> 11;
        self.bucket(m)
    }

    /// The gap of the bucket the 53-bit draw `m` falls in.
    #[inline]
    fn bucket(&self, m: u64) -> u32 {
        let k: usize = self.thresholds.iter().map(|&t| usize::from(m >= t)).sum();
        self.gaps[k]
    }

    /// Expected gap of the distribution, in cycles.
    pub fn mean() -> f64 {
        FIG4B_DISTRIBUTION.iter().map(|&(g, p)| g as f64 * p).sum()
    }

    /// The published distribution as `(gap, fraction)` pairs, for Figure 4b.
    pub fn distribution() -> &'static [(u32, f64)] {
        &FIG4B_DISTRIBUTION
    }
}

impl Default for GapModel {
    fn default() -> Self {
        GapModel::seeded(0x5AC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let total: f64 = FIG4B_DISTRIBUTION.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_are_in_support() {
        let support: Vec<u32> = FIG4B_DISTRIBUTION.iter().map(|&(g, _)| g).collect();
        let mut m = GapModel::seeded(42);
        for _ in 0..10_000 {
            assert!(support.contains(&m.sample()));
        }
    }

    #[test]
    fn empirical_frequencies_track_distribution() {
        let mut m = GapModel::seeded(1);
        let n = 200_000;
        let mut count_one = 0usize;
        for _ in 0..n {
            if m.sample() == 1 {
                count_one += 1;
            }
        }
        let freq = count_one as f64 / n as f64;
        assert!((freq - 0.34).abs() < 0.01, "freq of gap=1 was {freq}");
    }

    #[test]
    fn mean_matches_hand_computation() {
        // 0.34 + 0.40 + 0.36 + 0.32 + 0.35 + 1.0 + 0.60 + 0.60 + 0.50
        assert!((GapModel::mean() - 4.47).abs() < 1e-9);
    }

    #[test]
    fn custom_distributions_are_validated() {
        assert!(GapModel::from_distribution(0, &[]).is_err());
        assert!(GapModel::from_distribution(0, &[(0, 1.0)]).is_err());
        assert!(GapModel::from_distribution(0, &[(1, 0.4)]).is_err());
        assert!(GapModel::from_distribution(0, &[(1, 0.5), (2, -0.5)]).is_err());
        let mut m = GapModel::from_distribution(0, &[(2, 0.5), (7, 0.5)]).unwrap();
        for _ in 0..1000 {
            let g = m.sample();
            assert!(g == 2 || g == 7);
        }
    }

    /// The thresholds against the floating-point rule they replace, on
    /// both sides of every boundary and at the ends of the draw range.
    #[test]
    fn thresholds_split_exactly_where_the_float_rule_does() {
        let float_rule = |dist: &[(u32, f64)], m: u64| {
            let u = m as f64 / (1u64 << 53) as f64;
            let mut acc = 0.0;
            for (k, &(gap, p)) in dist.iter().enumerate() {
                acc += p;
                if k + 1 == dist.len() || u < acc {
                    return gap;
                }
            }
            unreachable!("the last bucket always matches")
        };
        let mut irregular: Vec<(u32, f64)> = (1..=8)
            .map(|k| (k, 1.0 / (3.0 * f64::from(k) + 1.0)))
            .collect();
        let rest = 1.0 - irregular.iter().map(|&(_, p)| p).sum::<f64>();
        irregular.push((40, rest));
        for dist in [&FIG4B_DISTRIBUTION[..], &[(6, 1.0)], &irregular] {
            let m = GapModel::from_distribution(0, dist).unwrap();
            let mut probes = vec![0, (1u64 << 53) - 1];
            for &t in &m.thresholds {
                probes.extend([t.saturating_sub(1), t, t + 1].map(|p| p.min((1 << 53) - 1)));
            }
            for p in probes {
                assert_eq!(m.bucket(p), float_rule(dist, p), "draw {p}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GapModel::seeded(1);
        let mut b = GapModel::seeded(2);
        let sa: Vec<u32> = (0..64).map(|_| a.sample()).collect();
        let sb: Vec<u32> = (0..64).map(|_| b.sample()).collect();
        assert_ne!(sa, sb);
    }
}
