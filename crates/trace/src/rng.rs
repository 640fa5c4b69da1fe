//! A tiny deterministic PRNG for trace and workload generation.
//!
//! The build environment is offline, so the workspace cannot depend on
//! the `rand` crate; this SplitMix64 generator replaces it. SplitMix64
//! (Steele, Lea & Flood, OOPSLA'14) passes BigCrush, needs only 8 bytes
//! of state, and — crucially for the paper's methodology — is fully
//! deterministic per seed, so "repetitive simulations performed with the
//! same trace are completely identical".

/// The SplitMix64 output finalizer: a bijection on `u64` that spreads
/// every input bit over the whole word. [`crate::Trace::content_hash`]
/// ends with it too.
#[inline]
pub(crate) fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 generator.
///
/// ```
/// use sac_trace::rng::SplitMix64;
///
/// let mut a = SplitMix64::seed_from_u64(7);
/// let mut b = SplitMix64::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.state)
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform value in `[0, n)`, bias-free via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let limit = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < limit {
                return v % n;
            }
        }
    }

    /// A uniform `i64` in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "range_i64: {lo} > {hi}");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// A uniform `usize` in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// A bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::seed_from_u64(1);
        let mut b = SplitMix64::seed_from_u64(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SplitMix64::seed_from_u64(3);
        let n = 100_000;
        let mut below_half = 0;
        for _ in 0..n {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        let frac = below_half as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn ranges_stay_inclusive() {
        let mut r = SplitMix64::seed_from_u64(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi, "both endpoints reachable");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_rejected() {
        SplitMix64::seed_from_u64(0).below(0);
    }
}
