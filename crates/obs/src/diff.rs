//! Per-reference outcome folding for differential explain.
//!
//! When two configurations replay the same trace in lockstep, each side
//! carries an [`OutcomeProbe`]: it folds the side's event stream into
//! one [`RefOutcome`] per reference — the outcome class (main hit,
//! auxiliary hit and through which structure, miss and its 3C cause, or
//! bypass) plus the exact per-event-kind counts the reference generated.
//! The comparator in `sac-experiments` pairs the two sides' outcome
//! vectors element-wise and attributes every difference to a mechanism.
//!
//! **Attribution boundary.** Engines fire `before_access` maintenance
//! (e.g. the software cache settling an arrived prefetch) *before* the
//! [`Probe::on_ref`] of the reference that triggered it, so those events
//! fold into the previous reference's outcome — or, at a chunk boundary
//! (where the previous outcome was already finalized by
//! [`Probe::on_chunk`]), carry forward into the next one; events after
//! the last reference (a trailing flush) join the totals at
//! [`SideState::finish`]. The rules are deterministic and preserve
//! totals: [`SideState::totals`] reconciles exactly against the side's
//! `Metrics`, which is what the differential layer rests on.
//!
//! The probe is handed to the engine by value (`build_probed` boxes it
//! into the simulator), so its state lives behind an `Rc<RefCell<..>>`
//! the driver keeps a handle to — outcomes are drained per chunk, between
//! lockstep steps. The engines are not `Send` anyway; the lockstep diff
//! runs single-threaded.

use crate::{
    AuxSource, Event, EventCounts, FillOrigin, LineLifetime, MissCause, Probe, ShadowClassifier,
    ShadowOutcome,
};
use std::cell::RefCell;
use std::rc::Rc;

/// How one reference was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Served by the main tag array.
    MainHit,
    /// Served by an auxiliary structure.
    Aux(AuxSource),
    /// Went to memory, with its 3C cause (from the side's own shadow
    /// classifier).
    Miss(MissCause),
    /// Deliberately not allocated for.
    Bypass,
}

impl OutcomeClass {
    /// Stable label, as used by the diff report and JSONL.
    pub fn label(self) -> String {
        match self {
            OutcomeClass::MainHit => "hit".into(),
            OutcomeClass::Aux(s) => format!("aux:{}", s.name()),
            OutcomeClass::Miss(c) => format!("miss:{}", c.name()),
            OutcomeClass::Bypass => "bypass".into(),
        }
    }
}

/// The folded outcome of one reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefOutcome {
    /// The referenced line.
    pub line: u64,
    /// How it was served.
    pub class: OutcomeClass,
    /// The reference itself (`writes` is 1 for a store) and every event
    /// it generated (plus carried-over maintenance; see the module
    /// docs), misses classified.
    pub counts: EventCounts,
    /// The fill origin of the line's current main-array residency at the
    /// end of the reference, when it is resident in the shadow.
    pub origin: Option<FillOrigin>,
}

/// A reference whose outcome is still open (events may yet arrive).
#[derive(Debug, Clone, Copy)]
struct Pending {
    line: u64,
    /// 3C verdict of the side's shadow classifier, captured at `on_ref`
    /// so a later `Miss` event classifies without re-touching.
    shadow: ShadowOutcome,
    class: Option<OutcomeClass>,
    counts: EventCounts,
}

/// One side's outcome-folding state, shared between the [`OutcomeProbe`]
/// the engine owns and the lockstep driver that drains it.
#[derive(Debug)]
pub struct SideState {
    classifier: ShadowClassifier,
    lifetime: LineLifetime,
    pending: Option<Pending>,
    /// Events that arrived with no open reference (chunk-boundary
    /// maintenance); they carry forward into the next outcome.
    orphan: EventCounts,
    outcomes: Vec<RefOutcome>,
    totals: EventCounts,
    refs_seen: u64,
    /// Most recent fold: (cumulative refs, cumulative mem_cycles).
    last_fold: (u64, u64),
}

impl SideState {
    fn new(capacity_lines: usize) -> Self {
        SideState {
            classifier: ShadowClassifier::new(capacity_lines),
            lifetime: LineLifetime::new(),
            pending: None,
            orphan: EventCounts::default(),
            outcomes: Vec::new(),
            totals: EventCounts::default(),
            refs_seen: 0,
            last_fold: (0, 0),
        }
    }

    fn finalize_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.totals.merge(&p.counts);
            self.outcomes.push(RefOutcome {
                line: p.line,
                class: p.class.unwrap_or(OutcomeClass::MainHit),
                counts: p.counts,
                origin: self.lifetime.origin_of(p.line),
            });
        }
    }

    fn on_ref(&mut self, line: u64, is_write: bool) {
        self.finalize_pending();
        self.refs_seen += 1;
        let shadow = self.classifier.touch(line);
        self.lifetime.touch(line, self.refs_seen);
        let mut counts = std::mem::take(&mut self.orphan);
        counts.record_ref(is_write);
        self.pending = Some(Pending {
            line,
            shadow,
            class: None,
            counts,
        });
    }

    fn on_event(&mut self, event: &Event) {
        let at = self.refs_seen;
        // Shadow-residency bookkeeping (see `LineLifetime` for the
        // best-effort caveats).
        match *event {
            Event::Miss { line, victim, .. } => {
                if let Some(v) = victim {
                    self.lifetime.evict(v.line, at);
                }
                self.lifetime.fill(line, FillOrigin::Demand, at);
                // Count the fill as this reference's touch too.
                self.lifetime.touch(line, at);
            }
            Event::LineFill { line, demand } => {
                // The demand fill is covered by `Miss`; a `demand` fill
                // with no miss (the bypass line buffer) is not a
                // main-array fill at all.
                if !demand {
                    self.lifetime.fill(line, FillOrigin::VlinePrefill, at);
                }
            }
            Event::MainEvict { line, .. } => self.lifetime.evict(line, at),
            Event::BounceBack { line, .. } => self.lifetime.fill(line, FillOrigin::Bounce, at),
            Event::Swap { line } => {
                self.lifetime.fill(line, FillOrigin::Swap, at);
                self.lifetime.touch(line, at);
            }
            Event::PrefetchUse { line } => {
                // A no-op when a `Swap` in the same reference already
                // filled the line (first origin wins).
                self.lifetime.fill(line, FillOrigin::PrefetchPromote, at);
                self.lifetime.touch(line, at);
            }
            Event::Flush { .. } => self.lifetime.flush(at),
            Event::VlineFill { .. }
            | Event::AuxHit { .. }
            | Event::Bypass { .. }
            | Event::PrefetchIssue { .. }
            | Event::Writeback { .. }
            | Event::Coherence { .. } => {}
        }
        match &mut self.pending {
            Some(p) => {
                p.counts.record(event, Some(p.shadow));
                // The first class-bearing event decides the outcome; an
                // engine emits at most one of these per reference.
                if p.class.is_none() {
                    p.class = match *event {
                        Event::Miss { .. } => Some(OutcomeClass::Miss(p.shadow.cause())),
                        Event::AuxHit { source, .. } => Some(OutcomeClass::Aux(source)),
                        Event::Bypass { .. } => Some(OutcomeClass::Bypass),
                        _ => None,
                    };
                }
            }
            None => {
                self.orphan.record(event, None);
            }
        }
    }

    fn on_chunk(&mut self, refs: u64, mem_cycles: u64) {
        self.finalize_pending();
        self.last_fold = (refs, mem_cycles);
    }

    /// Takes the outcomes finalized since the last drain (one per
    /// reference of the chunk just replayed, once the engine has folded
    /// it).
    pub fn drain_outcomes(&mut self) -> Vec<RefOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// The sum of every finalized outcome's counts (after
    /// [`SideState::finish`], plus events that arrived after the last
    /// reference), for reconciliation against the side's `Metrics`.
    pub fn totals(&self) -> EventCounts {
        self.totals
    }

    /// The side's lifetime shadow.
    pub fn lifetime(&self) -> &LineLifetime {
        &self.lifetime
    }

    /// References observed so far.
    pub fn refs_seen(&self) -> u64 {
        self.refs_seen
    }

    /// The engine's cumulative `(refs, mem_cycles)` at the most recent
    /// chunk fold.
    pub fn last_fold(&self) -> (u64, u64) {
        self.last_fold
    }

    /// Folds still-open state (a pending outcome, events with no
    /// reference left to carry them such as a trailing flush, resident
    /// lifetimes). Call once, after the run.
    pub fn finish(&mut self) {
        self.finalize_pending();
        let orphan = std::mem::take(&mut self.orphan);
        self.totals.merge(&orphan);
        let at = self.refs_seen;
        self.lifetime.finish(at);
    }
}

/// The probe handed to one side's engine. Construct via
/// [`OutcomeProbe::new`], which also returns the shared state handle the
/// driver drains between chunks.
#[derive(Debug)]
pub struct OutcomeProbe {
    state: Rc<RefCell<SideState>>,
}

impl OutcomeProbe {
    /// A probe whose shadow 3C classifier models a main array of
    /// `capacity_lines` lines. Returns the probe (for `build_probed`)
    /// and the driver's handle to the shared state.
    pub fn new(capacity_lines: usize) -> (OutcomeProbe, Rc<RefCell<SideState>>) {
        let state = Rc::new(RefCell::new(SideState::new(capacity_lines)));
        (
            OutcomeProbe {
                state: Rc::clone(&state),
            },
            state,
        )
    }
}

impl Probe for OutcomeProbe {
    fn on_ref(&mut self, _addr: u64, line: u64, is_write: bool) {
        self.state.borrow_mut().on_ref(line, is_write);
    }

    fn on_event(&mut self, event: &Event) {
        self.state.borrow_mut().on_event(event);
    }

    fn on_chunk(&mut self, refs: u64, mem_cycles: u64) {
        self.state.borrow_mut().on_chunk(refs, mem_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(state: &Rc<RefCell<SideState>>, probe: &mut OutcomeProbe) -> Vec<RefOutcome> {
        // Ref 1: main hit (no events).
        probe.on_ref(0, 0, false);
        // Ref 2: miss with a victim.
        probe.on_ref(32, 1, true);
        probe.on_event(&Event::Miss {
            line: 1,
            set: 1,
            is_write: true,
            victim: Some(crate::Victim {
                line: 9,
                dirty: true,
            }),
        });
        probe.on_event(&Event::LineFill {
            line: 1,
            demand: true,
        });
        probe.on_event(&Event::Writeback { line: 9 });
        // Ref 3: aux hit via the victim cache.
        probe.on_ref(64, 2, false);
        probe.on_event(&Event::AuxHit {
            line: 2,
            source: AuxSource::Victim,
        });
        probe.on_event(&Event::Swap { line: 2 });
        probe.on_chunk(3, 100);
        state.borrow_mut().drain_outcomes()
    }

    #[test]
    fn outcomes_classify_and_count() {
        let (mut probe, state) = OutcomeProbe::new(4);
        let outcomes = drive(&state, &mut probe);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].class, OutcomeClass::MainHit);
        assert_eq!(outcomes[1].class, OutcomeClass::Miss(MissCause::Compulsory));
        assert_eq!(outcomes[1].counts.misses, 1);
        assert_eq!(outcomes[1].counts.line_fills, 1);
        assert_eq!(outcomes[1].counts.writebacks, 1);
        assert_eq!(outcomes[2].class, OutcomeClass::Aux(AuxSource::Victim));
        assert_eq!(outcomes[2].counts.swaps, 1);
        assert_eq!(outcomes[2].origin, Some(FillOrigin::Swap));
    }

    #[test]
    fn totals_reconcile_with_outcomes() {
        let (mut probe, state) = OutcomeProbe::new(4);
        let outcomes = drive(&state, &mut probe);
        let t = state.borrow().totals();
        assert_eq!(t.refs, 3);
        assert_eq!(t.reads, 2);
        assert_eq!(t.writes, 1);
        assert_eq!(t.misses, 1);
        assert_eq!(t.compulsory, 1);
        assert_eq!(t.aux_hits, 1);
        let mut sum = EventCounts::default();
        for o in &outcomes {
            sum.merge(&o.counts);
        }
        assert_eq!(sum, t);
        assert_eq!(state.borrow().last_fold(), (3, 100));
    }

    #[test]
    fn chunk_boundary_maintenance_carries_forward() {
        let (mut probe, state) = OutcomeProbe::new(4);
        probe.on_ref(0, 0, false);
        probe.on_chunk(1, 10);
        // Maintenance lands before the next reference opens.
        probe.on_event(&Event::BounceBack { line: 5, set: 1 });
        probe.on_ref(32, 1, false);
        probe.on_chunk(2, 20);
        let outcomes = state.borrow_mut().drain_outcomes();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].counts.bounces, 0);
        assert_eq!(outcomes[1].counts.bounces, 1);
        assert_eq!(state.borrow().totals().bounces, 1);
    }

    #[test]
    fn class_labels_are_stable() {
        assert_eq!(OutcomeClass::MainHit.label(), "hit");
        assert_eq!(OutcomeClass::Aux(AuxSource::Assist).label(), "aux:assist");
        assert_eq!(
            OutcomeClass::Miss(MissCause::Conflict).label(),
            "miss:conflict"
        );
        assert_eq!(OutcomeClass::Bypass.label(), "bypass");
    }

    #[test]
    fn flush_event_counts_bulk_writebacks() {
        let (mut probe, state) = OutcomeProbe::new(4);
        probe.on_ref(0, 0, false);
        probe.on_event(&Event::Miss {
            line: 0,
            set: 0,
            is_write: false,
            victim: None,
        });
        probe.on_event(&Event::Flush { writebacks: 3 });
        probe.on_chunk(1, 5);
        let mut s = state.borrow_mut();
        let outcomes = s.drain_outcomes();
        assert_eq!(outcomes[0].counts.writebacks, 3);
        assert_eq!(outcomes[0].counts.flushes, 1);
        assert_eq!(s.lifetime().live(), 0, "flush emptied the shadow");
        s.finish();
    }
}
