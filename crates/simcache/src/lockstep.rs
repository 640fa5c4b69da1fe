//! Lockstep replay of one trace through two engines, chunk by chunk.
//!
//! The differential explain layer (DESIGN.md §15) needs both sides to
//! have folded the *same* references before their per-chunk outcomes are
//! compared, so the driver advances the two engines in strict
//! alternation: decode-once, replay chunk through A, replay chunk
//! through B, hand both sides' cumulative [`Metrics`] to the caller,
//! repeat. Each side folds through its own [`CacheSim::run_chunk`], so
//! the counters are byte-identical to solo replay, which the diff
//! layer's reconciliation re-checks.

use crate::{CacheSim, Metrics};
use sac_trace::Access;

/// Replays `trace` through both engines in `chunk`-sized lockstep
/// steps, invoking `after_chunk(a_metrics, b_metrics)` after each pair
/// of folds (cumulative totals, not per-chunk deltas). Either engine
/// may be unsized (`dyn CacheSim`, or a boxed probed engine).
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn run_lockstep<A: CacheSim + ?Sized, B: CacheSim + ?Sized>(
    a: &mut A,
    b: &mut B,
    trace: &[Access],
    chunk: usize,
    mut after_chunk: impl FnMut(&Metrics, &Metrics),
) {
    assert!(chunk > 0, "lockstep chunk must be positive");
    for ch in trace.chunks(chunk) {
        a.run_chunk(ch);
        b.run_chunk(ch);
        after_chunk(a.metrics(), b.metrics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheGeometry, MemoryModel, StandardCache, VictimCache};
    use sac_trace::Trace;

    fn trace(len: u64) -> Trace {
        (0..len)
            .map(|i| Access::read((i % 700) * 8).with_temporal(i % 3 == 0))
            .collect()
    }

    #[test]
    fn lockstep_matches_solo_replay() {
        let geom = CacheGeometry::standard();
        let mem = MemoryModel::default();
        let t = trace(10_000);

        let mut solo_a = StandardCache::new(geom, mem);
        solo_a.run(&t);
        let mut solo_b = VictimCache::new(geom, mem, 8);
        solo_b.run(&t);

        let mut a = StandardCache::new(geom, mem);
        let mut b = VictimCache::new(geom, mem, 8);
        let mut folds = 0usize;
        run_lockstep(&mut a, &mut b, t.as_slice(), 333, |ma, mb| {
            folds += 1;
            assert!(ma.refs == mb.refs, "sides advance together");
        });
        assert_eq!(folds, 10_000usize.div_ceil(333));
        assert_eq!(a.metrics(), solo_a.metrics());
        assert_eq!(b.metrics(), solo_b.metrics());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_is_rejected() {
        let geom = CacheGeometry::standard();
        let mem = MemoryModel::default();
        let mut a = StandardCache::new(geom, mem);
        let mut b = StandardCache::new(geom, mem);
        run_lockstep(&mut a, &mut b, &[], 0, |_, _| {});
    }
}
