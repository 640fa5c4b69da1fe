//! The one fold from probe hooks to event counts.

use crate::{Event, MissCause, Probe, ShadowOutcome};

/// Counts of every probe hook: references by direction, events by kind
/// and, when a shadow classifier supplied the verdict, misses by 3C
/// cause.
///
/// This is the only place an [`Event`] is turned into a count, so every
/// probe agrees on the rules — above all that a `Flush` adds its bulk
/// write-backs to `writebacks`. `sac_simcache::Metrics::from_events` maps
/// the counts onto the `Metrics` counters they back and
/// `Metrics::reconcile_events` checks them (`reconcile_classified` with
/// the 3C split). The struct is itself a [`Probe`] (unclassified), the
/// cheapest active one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// References observed.
    pub refs: u64,
    /// Loads among them.
    pub reads: u64,
    /// Stores among them.
    pub writes: u64,
    /// `Miss` events.
    pub misses: u64,
    /// `AuxHit` events (references served by an auxiliary structure).
    pub aux_hits: u64,
    /// `Bypass` events (references the cache did not allocate for).
    pub bypasses: u64,
    /// `LineFill` events (demand-path physical line fetches).
    pub line_fills: u64,
    /// `VlineFill` events (spatial misses that spanned > 1 line).
    pub vline_fills: u64,
    /// `MainEvict` events.
    pub main_evicts: u64,
    /// `BounceBack` events.
    pub bounces: u64,
    /// `Swap` events.
    pub swaps: u64,
    /// `PrefetchIssue` events.
    pub prefetch_issues: u64,
    /// `PrefetchUse` events.
    pub prefetch_uses: u64,
    /// `Writeback` events plus `Flush` writeback counts.
    pub writebacks: u64,
    /// `Flush` events.
    pub flushes: u64,
    /// `Coherence` events (multi-core snooping only; always zero in
    /// uniprocessor runs).
    pub coherence: u64,
    /// Classified misses an infinite cache would also take.
    pub compulsory: u64,
    /// Classified misses a same-size fully-associative cache would also
    /// take.
    pub capacity: u64,
    /// Classified misses only the real set mapping takes.
    pub conflict: u64,
}

impl EventCounts {
    /// One reference, counted.
    #[inline]
    pub fn record_ref(&mut self, is_write: bool) {
        self.refs += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    /// One event, counted. `shadow` is the shadow classifier's verdict
    /// on the current reference, if the caller keeps one: a `Miss` then
    /// also counts under its 3C cause ([`ShadowOutcome::cause`]), which
    /// is returned.
    #[inline]
    pub fn record(&mut self, event: &Event, shadow: Option<ShadowOutcome>) -> Option<MissCause> {
        match *event {
            Event::Miss { .. } => {
                self.misses += 1;
                let cause = shadow?.cause();
                *match cause {
                    MissCause::Compulsory => &mut self.compulsory,
                    MissCause::Capacity => &mut self.capacity,
                    MissCause::Conflict => &mut self.conflict,
                } += 1;
                return Some(cause);
            }
            Event::AuxHit { .. } => self.aux_hits += 1,
            Event::Bypass { .. } => self.bypasses += 1,
            Event::LineFill { .. } => self.line_fills += 1,
            Event::VlineFill { .. } => self.vline_fills += 1,
            Event::MainEvict { .. } => self.main_evicts += 1,
            Event::BounceBack { .. } => self.bounces += 1,
            Event::Swap { .. } => self.swaps += 1,
            Event::PrefetchIssue { .. } => self.prefetch_issues += 1,
            Event::PrefetchUse { .. } => self.prefetch_uses += 1,
            Event::Writeback { .. } => self.writebacks += 1,
            Event::Flush { writebacks } => {
                self.writebacks += writebacks;
                self.flushes += 1;
            }
            Event::Coherence { .. } => self.coherence += 1,
        }
        None
    }

    /// Accumulates another count set.
    pub fn merge(&mut self, o: &EventCounts) {
        self.refs += o.refs;
        self.reads += o.reads;
        self.writes += o.writes;
        self.misses += o.misses;
        self.aux_hits += o.aux_hits;
        self.bypasses += o.bypasses;
        self.line_fills += o.line_fills;
        self.vline_fills += o.vline_fills;
        self.main_evicts += o.main_evicts;
        self.bounces += o.bounces;
        self.swaps += o.swaps;
        self.prefetch_issues += o.prefetch_issues;
        self.prefetch_uses += o.prefetch_uses;
        self.writebacks += o.writebacks;
        self.flushes += o.flushes;
        self.coherence += o.coherence;
        self.compulsory += o.compulsory;
        self.capacity += o.capacity;
        self.conflict += o.conflict;
    }
}

impl Probe for EventCounts {
    #[inline]
    fn on_ref(&mut self, _addr: u64, _line: u64, is_write: bool) {
        self.record_ref(is_write);
    }

    #[inline]
    fn on_event(&mut self, event: &Event) {
        self.record(event, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_adds_its_writebacks_and_classified_misses_split() {
        let mut c = EventCounts::default();
        c.record_ref(true);
        c.record(&Event::Writeback { line: 1 }, None);
        c.record(&Event::Flush { writebacks: 3 }, None);
        assert_eq!((c.writebacks, c.flushes), (4, 1));
        let miss = Event::Miss {
            line: 0,
            set: 0,
            is_write: false,
            victim: None,
        };
        assert_eq!(c.record(&miss, None), None);
        let first = ShadowOutcome {
            first_touch: true,
            fa_hit: false,
        };
        assert_eq!(c.record(&miss, Some(first)), Some(MissCause::Compulsory));
        assert_eq!((c.misses, c.compulsory + c.capacity + c.conflict), (2, 1));
        let mut sum = EventCounts::default();
        sum.merge(&c);
        sum.merge(&c);
        assert_eq!((sum.refs, sum.writes, sum.writebacks), (2, 2, 8));
    }
}
