//! Online 3C miss classification via a shadow fully-associative filter.

use crate::MissCause;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A shadow fully-associative LRU cache plus a first-touch set, updated
/// on **every** reference (hits included), so each miss of the real
/// organization can be classified online under the 3C model:
///
/// * first touch of the line → [`MissCause::Compulsory`],
/// * the shadow FA cache of the same capacity also missed →
///   [`MissCause::Capacity`],
/// * only the real (set-mapped) organization missed →
///   [`MissCause::Conflict`].
///
/// The single-pass protocol matters: [`ShadowClassifier::touch`] must be
/// called *once per reference, before* the engine's own lookup outcome is
/// known, and returns what the shadow structures said about that line at
/// that instant. [`crate::TracingProbe`] calls it from `on_ref` and uses
/// the remembered outcome when (and only when) a miss event follows for
/// the same reference. The offline decomposition of a trace
/// (`sac_simcache::classify_misses`) is a fold over this type, so the two
/// agree by construction (the shadow sees the same reference stream as
/// the engine).
#[derive(Debug, Clone)]
pub struct ShadowClassifier {
    capacity: usize,
    seen: HashSet<u64>,
    /// line → last-use stamp.
    stamps: HashMap<u64, u64>,
    /// stamp → line, ordered: the front is the LRU victim.
    order: BTreeMap<u64, u64>,
    clock: u64,
}

/// What the shadow structures knew about a line when it was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowOutcome {
    /// The line had never been referenced before.
    pub first_touch: bool,
    /// The shadow fully-associative cache held the line.
    pub fa_hit: bool,
}

impl ShadowOutcome {
    /// The 3C cause this outcome assigns to a real miss on the same
    /// reference.
    pub fn cause(self) -> MissCause {
        if self.first_touch {
            MissCause::Compulsory
        } else if !self.fa_hit {
            MissCause::Capacity
        } else {
            MissCause::Conflict
        }
    }
}

impl ShadowClassifier {
    /// A classifier shadowing a main cache of `capacity_lines` lines.
    pub fn new(capacity_lines: usize) -> Self {
        ShadowClassifier {
            capacity: capacity_lines.max(1),
            seen: HashSet::new(),
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Advances the shadow state by one reference to `line` and reports
    /// what the shadow knew *before* this touch.
    pub fn touch(&mut self, line: u64) -> ShadowOutcome {
        self.clock += 1;
        let first_touch = self.seen.insert(line);
        let fa_hit = if let Some(&old) = self.stamps.get(&line) {
            self.order.remove(&old);
            self.order.insert(self.clock, line);
            self.stamps.insert(line, self.clock);
            true
        } else {
            if self.stamps.len() == self.capacity {
                let (&oldest, &victim) = self.order.iter().next().expect("full shadow cache");
                self.order.remove(&oldest);
                self.stamps.remove(&victim);
            }
            self.stamps.insert(line, self.clock);
            self.order.insert(self.clock, line);
            false
        };
        ShadowOutcome {
            first_touch,
            fa_hit,
        }
    }

    /// Distinct lines ever touched.
    pub fn lines_seen(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = ShadowClassifier::new(4);
        assert_eq!(c.touch(7).cause(), MissCause::Compulsory);
        assert_eq!(c.lines_seen(), 1);
    }

    #[test]
    fn capacity_overflow_classifies_as_capacity() {
        let mut c = ShadowClassifier::new(2);
        c.touch(0);
        c.touch(1);
        c.touch(2); // evicts 0 from the shadow FA cache
        let o = c.touch(0);
        assert!(!o.first_touch && !o.fa_hit);
        assert_eq!(o.cause(), MissCause::Capacity);
    }

    #[test]
    fn resident_line_classifies_as_conflict() {
        let mut c = ShadowClassifier::new(4);
        c.touch(0);
        c.touch(8); // same set in a small direct-mapped cache, say
        let o = c.touch(0);
        assert!(o.fa_hit);
        assert_eq!(o.cause(), MissCause::Conflict);
    }

    #[test]
    fn lru_order_is_refreshed_by_touches() {
        let mut c = ShadowClassifier::new(2);
        c.touch(0);
        c.touch(1);
        c.touch(0); // refresh 0: the FA victim is now 1
        c.touch(2); // evicts 1
        assert!(c.touch(0).fa_hit, "0 survived");
        assert!(!c.touch(1).fa_hit, "1 was evicted");
    }
}
