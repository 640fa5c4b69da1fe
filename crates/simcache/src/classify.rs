//! Miss classification under the 3C model (compulsory / capacity /
//! conflict).
//!
//! The paper reasons about its results in these terms: "because spatial
//! locality is heavily exploited, a major share of cache misses removed
//! are compulsory and capacity misses corresponding to vector accesses"
//! (§3.2), and "the relative share of compulsory misses increases when
//! the cache size increases" (§3.2, after Przybylski et al.). This module
//! computes the classical decomposition:
//!
//! * **compulsory** — first reference to a line (an infinite cache would
//!   still miss),
//! * **capacity** — additional misses of a fully-associative LRU cache of
//!   the same size,
//! * **conflict** — additional misses of the actual organization.

use crate::CacheGeometry;
use sac_obs::ShadowClassifier;
use sac_trace::Trace;

/// The 3C decomposition of a trace's misses for one cache geometry.
///
/// ```
/// use sac_simcache::{classify_misses, CacheGeometry};
/// use sac_trace::{Access, Trace};
///
/// // Two conflicting lines, revisited: all conflict misses after the
/// // cold start.
/// let trace: Trace = (0..8)
///     .map(|i| Access::read(if i % 2 == 0 { 0 } else { 8192 }))
///     .collect();
/// let c = classify_misses(&trace, CacheGeometry::standard());
/// assert_eq!(c.compulsory, 2);
/// assert_eq!(c.capacity, 0);
/// assert_eq!(c.conflict, 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissClasses {
    /// First-touch misses.
    pub compulsory: u64,
    /// Extra misses of a same-size fully-associative LRU cache.
    pub capacity: u64,
    /// Extra misses of the actual (set-mapped) organization over the
    /// fully-associative one, clamped at zero: on cyclic sweeps LRU can
    /// lose to direct mapping (the classic LRU anomaly), in which case
    /// the actual total is *below* compulsory+capacity.
    pub conflict: u64,
    /// Misses of the actual organization.
    pub total_misses: u64,
    /// References analysed.
    pub refs: u64,
}

impl MissClasses {
    /// Total misses of the actual organization.
    pub fn total(&self) -> u64 {
        self.total_misses
    }

    /// Misses of the given class per reference.
    pub fn per_ref(&self, class_misses: u64) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            class_misses as f64 / self.refs as f64
        }
    }
}

/// Classifies the misses a plain cache of geometry `geom` takes on
/// `trace` (demand misses only; no prefetching, no software assistance —
/// the decomposition is a property of the reference stream).
///
/// This is a fold over [`ShadowClassifier`], the online classifier the
/// tracing probes use, so the offline and online splits cannot diverge:
/// compulsory counts first touches, capacity counts shadow misses that
/// are not first touches, and conflict is what the real organization
/// misses beyond both.
pub fn classify_misses(trace: &Trace, geom: CacheGeometry) -> MissClasses {
    let mut shadow = ShadowClassifier::new(geom.lines() as usize);
    let mut real = crate::TagArray::new(geom);
    let mut out = MissClasses {
        refs: trace.len() as u64,
        ..MissClasses::default()
    };
    for a in trace {
        let line = geom.line_of(a.addr());
        let seen = shadow.touch(line);
        out.compulsory += u64::from(seen.first_touch);
        out.capacity += u64::from(!seen.first_touch && !seen.fa_hit);
        if real.probe(line).is_none() {
            out.total_misses += 1;
            let way = real.victim_way(line);
            real.fill(line, way, false);
        }
    }
    out.conflict = out
        .total_misses
        .saturating_sub(out.compulsory + out.capacity);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_trace::Access;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(128, 32, 1) // 4 lines
    }

    #[test]
    fn pure_stream_is_all_compulsory() {
        let t: Trace = (0..64u64).map(|i| Access::read(i * 32)).collect();
        let c = classify_misses(&t, geom());
        assert_eq!(c.compulsory, 64);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 0);
    }

    #[test]
    fn cyclic_overflow_is_capacity() {
        // 8 lines cycled through a 4-line cache: every revisit misses in
        // both the real and the fully-associative cache.
        let mut t = Trace::new("cyc");
        for _ in 0..4 {
            for l in 0..8u64 {
                t.push(Access::read(l * 32));
            }
        }
        let c = classify_misses(&t, geom());
        assert_eq!(c.compulsory, 8);
        assert_eq!(c.capacity, 24);
        assert_eq!(c.conflict, 0);
    }

    #[test]
    fn mapping_pathology_is_conflict() {
        // Two lines 4 apart (same set in a 4-set cache) thrash
        // direct-mapped but fit a fully-associative cache.
        let mut t = Trace::new("conf");
        for _ in 0..10 {
            t.push(Access::read(0));
            t.push(Access::read(4 * 32));
        }
        let c = classify_misses(&t, geom());
        assert_eq!(c.compulsory, 2);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 18);
    }

    #[test]
    fn totals_are_consistent() {
        let mut t = Trace::new("mix");
        for i in 0..400u64 {
            t.push(Access::read(((i * 7) % 23) * 32));
        }
        let c = classify_misses(&t, geom());
        assert!(c.total() >= c.compulsory);
        assert!(c.total() as usize <= t.len());
        assert_eq!(c.refs as usize, t.len());
    }

    #[test]
    fn lru_anomaly_keeps_real_total_authoritative() {
        // Cyclic sweep of 5 lines through a 4-line cache: FA-LRU misses
        // everything, the direct-mapped cache keeps line 4 resident.
        let mut t = Trace::new("anomaly");
        for _ in 0..20 {
            for l in 0..5u64 {
                t.push(Access::read(l * 32));
            }
        }
        let c = classify_misses(&t, geom());
        assert_eq!(c.conflict, 0, "clamped");
        assert!(
            c.total() < c.compulsory + c.capacity,
            "real misses ({}) below the FA count ({})",
            c.total(),
            c.compulsory + c.capacity
        );
    }

    #[test]
    fn associativity_removes_conflicts_only() {
        let mut t = Trace::new("conf2");
        for _ in 0..10 {
            t.push(Access::read(0));
            t.push(Access::read(4 * 32));
        }
        let dm = classify_misses(&t, CacheGeometry::new(128, 32, 1));
        let fa = classify_misses(&t, CacheGeometry::new(128, 32, 4));
        assert_eq!(dm.compulsory, fa.compulsory);
        assert_eq!(dm.capacity, fa.capacity);
        assert!(fa.conflict < dm.conflict);
    }
}
