//! The gap sampler against an independent oracle: the floating-point
//! rule the paper's tracer describes, written out here in full. A draw
//! takes the top 53 bits of the generator's next word as a uniform
//! `u = (x >> 11) / 2^53`, then returns the gap of the first bucket whose
//! cumulative probability exceeds `u` (the last bucket's cumulative value
//! is pinned to 1). `GapModel::sample` must agree draw for draw.

use sac_trace::rng::SplitMix64;
use sac_trace::GapModel;

/// Draws per seed; four seeds give 10M draws per distribution.
const DRAWS: usize = 2_500_000;

const SEEDS: [u64; 4] = [0, 0x5AC0, 0xDEAD_BEEF, u64::MAX];

struct Oracle {
    rng: SplitMix64,
    cdf: Vec<(u32, f64)>,
}

impl Oracle {
    fn new(seed: u64, dist: &[(u32, f64)]) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<(u32, f64)> = dist
            .iter()
            .map(|&(gap, p)| {
                acc += p;
                (gap, acc)
            })
            .collect();
        cdf.last_mut().expect("non-empty").1 = 1.0;
        Oracle {
            rng: SplitMix64::seed_from_u64(seed),
            cdf,
        }
    }

    fn sample(&mut self) -> u32 {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        for &(gap, cum) in &self.cdf {
            if u < cum {
                return gap;
            }
        }
        self.cdf.last().expect("non-empty").0
    }
}

/// Compares the sampler with the oracle over `DRAWS` draws for every
/// seed (one thread per seed), and checks every bucket was drawn.
fn agrees(name: &str, dist: &[(u32, f64)]) {
    std::thread::scope(|s| {
        for seed in SEEDS {
            s.spawn(move || {
                let mut model = GapModel::from_distribution(seed, dist).expect("valid table");
                let mut oracle = Oracle::new(seed, dist);
                let mut seen = vec![false; dist.len()];
                for i in 0..DRAWS {
                    let (got, want) = (model.sample(), oracle.sample());
                    assert_eq!(got, want, "{name}: seed {seed:#x}, draw {i}");
                    let k = dist
                        .iter()
                        .position(|&(g, _)| g == want)
                        .expect("in support");
                    seen[k] = true;
                }
                // A bucket below 1e-6 may go unseen in 2.5M draws.
                for (k, &(gap, p)) in dist.iter().enumerate() {
                    assert!(seen[k] || p < 1e-6, "{name}: gap {gap} never drawn");
                }
            });
        }
    });
}

#[test]
fn figure_4b_table_matches_the_float_rule() {
    agrees("fig4b", GapModel::distribution());
}

#[test]
fn single_bucket_matches_the_float_rule() {
    agrees("single", &[(4, 1.0)]);
}

#[test]
fn irregular_nine_buckets_match_the_float_rule() {
    let head = [
        (1, 1.0 / 3.0),
        (2, 1.0 / 6.0),
        (3, 1.0 / 9.0),
        (4, 1.0 / 12.0),
        (5, 1.0 / 7.0),
        (6, 1.0 / 11.0),
        (9, 1.0 / 29.0),
        (12, 1.0 / 31.0),
    ];
    let rest = 1.0 - head.iter().map(|&(_, p)| p).sum::<f64>();
    let mut dist = head.to_vec();
    dist.push((30, rest));
    agrees("irregular", &dist);
}

#[test]
fn tables_off_one_by_1e7_match_the_float_rule() {
    // Sums to 1 + 1e-7, with a cumulative value above 1 before the
    // last bucket: that bucket's threshold lies past every draw.
    agrees("over", &[(3, 1.0 + 0.9e-7), (8, 1e-8)]);
    // Sums to 1 - 1e-7: the pinned last bucket absorbs the shortfall.
    agrees("under", &[(1, 0.25), (2, 0.25), (5, 0.5 - 1e-7)]);
}
