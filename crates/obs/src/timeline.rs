//! Windowed time-series cache metrics: the simulation timeline.
//!
//! End-of-run aggregates say *whether* an organization wins; the paper's
//! argument is about *when* — across loop nests, working-set shifts and
//! phase changes. [`Timeline`] is a [`Probe`] that folds the
//! per-reference event stream into fixed-width reference windows, each
//! carrying the counters a time axis needs: miss rate, AMAT
//! contribution (memory cycles attributed to the window), the 3C miss
//! mix (via its own [`ShadowClassifier`]), bounce-backs and writebacks.
//!
//! **Window semantics.** A window nominally spans `window_refs`
//! references, but windows *close only at chunk folds* — the
//! [`Probe::on_chunk`] hook the engine fires when it folds a chunk
//! delta into its `Metrics`. Cycle totals are only coherent at
//! those boundaries (the hit fast path accumulates cycles in the
//! unfolded delta), so a window closes at the first fold at or past its
//! nominal boundary and its width rounds up to that fold. Drive the
//! engine with chunks no larger than the window (the `explain
//! --timeline` path feeds chunks of exactly the window width) and the
//! windows are exact.
//!
//! **Reconciliation invariant.** Windows partition the run: every
//! reference and event lands in exactly one window's [`EventCounts`]
//! (events after the last fold, such as a trailing flush, join the last
//! window), and `mem_cycles` is the difference of the engine's
//! cumulative total between consecutive folds. Summing all windows
//! therefore reproduces the engine's global `Metrics` counters
//! *exactly* — not approximately — and `explain --timeline` verifies
//! this on every invocation (tested for all eight organizations).
//!
//! **Phase detection.** An online change detector: each closed window's
//! miss rate is compared against the running mean miss rate of the
//! current phase; a deviation beyond [`Timeline::with_phase_threshold`]
//! starts a new phase. Phases are summarized alongside the window table
//! and exported in the JSONL.

use crate::{json_escape, Event, EventCounts, Probe, ShadowClassifier, ShadowOutcome};
use std::io::{self, Write};

/// The additive per-window counters. Summing the deltas of all windows
/// of a run reproduces the engine's global `Metrics` exactly (the
/// reconciliation invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowDelta {
    /// The window's references and events, misses classified.
    pub counts: EventCounts,
    /// Memory cycles attributed to the window (difference of the
    /// engine's cumulative total between the folds bounding it).
    pub mem_cycles: u64,
}

impl WindowDelta {
    /// Accumulates another delta (used by [`Timeline::totals`]).
    pub fn merge(&mut self, other: &WindowDelta) {
        self.counts.merge(&other.counts);
        self.mem_cycles += other.mem_cycles;
    }

    /// Window miss rate (misses over references; 0 when empty).
    pub fn miss_rate(&self) -> f64 {
        let c = &self.counts;
        if c.refs == 0 {
            0.0
        } else {
            c.misses as f64 / c.refs as f64
        }
    }

    /// The window's AMAT contribution: memory cycles per reference in
    /// the window (0 when empty).
    pub fn amat(&self) -> f64 {
        if self.counts.refs == 0 {
            0.0
        } else {
            self.mem_cycles as f64 / self.counts.refs as f64
        }
    }
}

/// One closed window of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Window sequence number, 0 first.
    pub index: usize,
    /// Index of the first reference in the window (0-based).
    pub start_ref: u64,
    /// The phase this window belongs to.
    pub phase: usize,
    /// The window's counters.
    pub delta: WindowDelta,
}

/// A maximal run of consecutive windows with similar miss rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// First window of the phase.
    pub start_window: usize,
    /// Number of windows in the phase.
    pub windows: usize,
    /// Index of the first reference in the phase.
    pub start_ref: u64,
    /// References across the phase.
    pub refs: u64,
    /// Misses across the phase.
    pub misses: u64,
    /// Memory cycles across the phase.
    pub mem_cycles: u64,
}

impl Phase {
    /// Mean miss rate across the phase.
    pub fn miss_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses as f64 / self.refs as f64
        }
    }

    /// Mean AMAT contribution across the phase.
    pub fn amat(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.mem_cycles as f64 / self.refs as f64
        }
    }
}

/// Default nominal window width in references.
pub const DEFAULT_WINDOW_REFS: u64 = 8192;
/// Default phase-change threshold (absolute miss-rate deviation from
/// the current phase's running mean).
pub const DEFAULT_PHASE_THRESHOLD: f64 = 0.05;

/// The windowed time-series probe. See the module docs for window
/// semantics and the reconciliation invariant.
#[derive(Debug, Clone)]
pub struct Timeline {
    window_refs: u64,
    phase_threshold: f64,
    classifier: ShadowClassifier,
    last_outcome: Option<ShadowOutcome>,
    pending: WindowDelta,
    pending_start_ref: u64,
    refs_seen: u64,
    /// Engine cumulative `mem_cycles` at the fold that opened the
    /// pending window.
    cycles_at_open: u64,
    /// Most recent fold: (cumulative refs, cumulative mem_cycles).
    last_fold: (u64, u64),
    windows: Vec<Window>,
    phases: Vec<Phase>,
    current_phase: Option<Phase>,
    finished: bool,
}

impl Timeline {
    /// A timeline with `window_refs`-reference windows over a main
    /// cache of `capacity_lines` lines (for the 3C shadow classifier).
    pub fn new(window_refs: u64, capacity_lines: usize) -> Self {
        Timeline {
            window_refs: window_refs.max(1),
            phase_threshold: DEFAULT_PHASE_THRESHOLD,
            classifier: ShadowClassifier::new(capacity_lines),
            last_outcome: None,
            pending: WindowDelta::default(),
            pending_start_ref: 0,
            refs_seen: 0,
            cycles_at_open: 0,
            last_fold: (0, 0),
            windows: Vec::new(),
            phases: Vec::new(),
            current_phase: None,
            finished: false,
        }
    }

    /// Overrides the phase-change threshold (absolute miss-rate
    /// deviation from the current phase's running mean).
    pub fn with_phase_threshold(mut self, threshold: f64) -> Self {
        self.phase_threshold = threshold.max(0.0);
        self
    }

    /// The nominal window width in references.
    pub fn window_refs(&self) -> u64 {
        self.window_refs
    }

    /// Closes the pending window at the current fold.
    fn close_window(&mut self) {
        debug_assert!(self.pending.counts.refs > 0);
        self.pending.mem_cycles = self.last_fold.1 - self.cycles_at_open;
        let delta = self.pending;
        let rate = delta.miss_rate();
        let index = self.windows.len();
        // Phase update: extend the current phase, or start a new one
        // when this window's miss rate deviates from its running mean.
        let phase_idx = match &mut self.current_phase {
            Some(p) if (rate - p.miss_rate()).abs() <= self.phase_threshold => {
                p.windows += 1;
                p.refs += delta.counts.refs;
                p.misses += delta.counts.misses;
                p.mem_cycles += delta.mem_cycles;
                self.phases.len()
            }
            current => {
                if let Some(done) = current.take() {
                    self.phases.push(done);
                }
                *current = Some(Phase {
                    start_window: index,
                    windows: 1,
                    start_ref: self.pending_start_ref,
                    refs: delta.counts.refs,
                    misses: delta.counts.misses,
                    mem_cycles: delta.mem_cycles,
                });
                self.phases.len()
            }
        };
        self.windows.push(Window {
            index,
            start_ref: self.pending_start_ref,
            phase: phase_idx,
            delta,
        });
        self.pending = WindowDelta::default();
        self.pending_start_ref = self.refs_seen;
        self.cycles_at_open = self.last_fold.1;
    }

    /// Closes the trailing partial window and the current phase. Call
    /// once, after the run; [`Timeline::totals`], window iteration and
    /// rendering expect a finished timeline. Events that arrived after
    /// the last reference (a trailing flush) join the last window.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        if self.pending.counts.refs > 0 {
            self.close_window();
        } else if let Some(last) = self.windows.last_mut() {
            last.delta.merge(&self.pending);
        }
        if let Some(p) = self.current_phase.take() {
            self.phases.push(p);
        }
        self.finished = true;
    }

    /// The closed windows, in order.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// The detected phases, in order (complete after
    /// [`Timeline::finish`]).
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The sum of all window deltas. After [`Timeline::finish`], equal
    /// — counter for counter — to the engine's global `Metrics` (the
    /// reconciliation invariant), provided the run was driven through
    /// chunked replay so every fold reached [`Probe::on_chunk`].
    pub fn totals(&self) -> WindowDelta {
        let mut t = WindowDelta::default();
        for w in &self.windows {
            t.merge(&w.delta);
        }
        t
    }

    /// Writes the timeline as JSONL: one object per window, then one
    /// `"kind": "phase"` object per phase.
    pub fn write_jsonl(&self, label: &str, out: &mut impl Write) -> io::Result<()> {
        let label = json_escape(label);
        for w in &self.windows {
            let (d, c) = (&w.delta, &w.delta.counts);
            writeln!(
                out,
                "{{\"kind\": \"window\", \"schema_version\": {}, \"label\": \"{label}\", \"window\": {}, \
                 \"start_ref\": {}, \"phase\": {}, \"refs\": {}, \"reads\": {}, \
                 \"writes\": {}, \"misses\": {}, \"miss_rate\": {:.6}, \"amat\": {:.6}, \
                 \"compulsory\": {}, \"capacity\": {}, \"conflict\": {}, \"bounces\": {}, \
                 \"writebacks\": {}, \"coherence\": {}, \"mem_cycles\": {}}}",
                crate::SCHEMA_VERSION,
                w.index,
                w.start_ref,
                w.phase,
                c.refs,
                c.reads,
                c.writes,
                c.misses,
                d.miss_rate(),
                d.amat(),
                c.compulsory,
                c.capacity,
                c.conflict,
                c.bounces,
                c.writebacks,
                c.coherence,
                d.mem_cycles
            )?;
        }
        for (i, p) in self.phases.iter().enumerate() {
            writeln!(
                out,
                "{{\"kind\": \"phase\", \"schema_version\": {}, \"label\": \"{label}\", \"phase\": {i}, \
                 \"start_window\": {}, \"windows\": {}, \"start_ref\": {}, \"refs\": {}, \
                 \"misses\": {}, \"miss_rate\": {:.6}, \"amat\": {:.6}}}",
                crate::SCHEMA_VERSION,
                p.start_window,
                p.windows,
                p.start_ref,
                p.refs,
                p.misses,
                p.miss_rate(),
                p.amat()
            )?;
        }
        Ok(())
    }

    /// A per-window table plus phase summary, for `explain --timeline`.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "timeline of {label} ({} windows of ~{} refs, {} phases)\n",
            self.windows.len(),
            self.window_refs,
            self.phases.len()
        ));
        out.push_str(
            "  win      start     refs  miss%    amat   comp    cap   conf  bounce  wrback  ph\n",
        );
        for w in &self.windows {
            let (d, c) = (&w.delta, &w.delta.counts);
            out.push_str(&format!(
                "  {:>3} {:>10} {:>8} {:>6.2} {:>7.3} {:>6} {:>6} {:>6} {:>7} {:>7} {:>3}\n",
                w.index,
                w.start_ref,
                c.refs,
                100.0 * d.miss_rate(),
                d.amat(),
                c.compulsory,
                c.capacity,
                c.conflict,
                c.bounces,
                c.writebacks,
                w.phase
            ));
        }
        out.push_str("  phases:\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    phase {i}: windows {}..{} ({} refs from ref {}), miss {:.2}%, amat {:.3}\n",
                p.start_window,
                p.start_window + p.windows - 1,
                p.refs,
                p.start_ref,
                100.0 * p.miss_rate(),
                p.amat()
            ));
        }
        out
    }
}

impl Probe for Timeline {
    #[inline]
    fn on_ref(&mut self, _addr: u64, line: u64, is_write: bool) {
        self.refs_seen += 1;
        self.pending.counts.record_ref(is_write);
        self.last_outcome = Some(self.classifier.touch(line));
    }

    #[inline]
    fn on_event(&mut self, event: &Event) {
        self.pending.counts.record(event, self.last_outcome);
    }

    #[inline]
    fn on_chunk(&mut self, refs: u64, mem_cycles: u64) {
        self.last_fold = (refs, mem_cycles);
        if self.refs_seen - self.pending_start_ref >= self.window_refs {
            self.close_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the probe like an engine would: `refs` references in
    /// chunks of `chunk`, missing every `miss_every`-th reference at
    /// `cost` cycles (hits cost 1).
    fn drive(t: &mut Timeline, refs: u64, chunk: u64, miss_every: u64, cost: u64) {
        let mut cycles = 0u64;
        for i in 0..refs {
            let line = i % 4; // tiny working set: misses are conflicts
            t.on_ref(i * 8, line, i % 3 == 0);
            if i % miss_every == 0 {
                cycles += cost;
                t.on_event(&Event::Miss {
                    line,
                    set: 0,
                    is_write: false,
                    victim: None,
                });
            } else {
                cycles += 1;
            }
            if (i + 1) % chunk == 0 {
                t.on_chunk(i + 1, cycles);
            }
        }
        if !refs.is_multiple_of(chunk) {
            t.on_chunk(refs, cycles);
        }
        t.finish();
    }

    #[test]
    fn windows_partition_the_run_exactly() {
        let mut t = Timeline::new(100, 64);
        drive(&mut t, 1000, 100, 5, 10);
        assert_eq!(t.windows().len(), 10);
        let totals = t.totals();
        assert_eq!(totals.counts.refs, 1000);
        assert_eq!(totals.counts.misses, 200);
        assert_eq!(
            totals.counts.reads + totals.counts.writes,
            totals.counts.refs
        );
        // Cycles: 200 misses * 10 + 800 hits * 1.
        assert_eq!(totals.mem_cycles, 2800);
        for w in t.windows() {
            assert_eq!(w.delta.counts.refs, 100);
            assert_eq!(w.delta.mem_cycles, 280);
        }
        assert_eq!(t.windows()[3].start_ref, 300);
    }

    #[test]
    fn window_width_rounds_up_to_chunk_folds() {
        let mut t = Timeline::new(100, 64);
        // Chunks of 64: folds at 64, 128, 192, 256 — the first fold at
        // or past each 100-ref boundary closes the window.
        drive(&mut t, 256, 64, 4, 8);
        let widths: Vec<u64> = t.windows().iter().map(|w| w.delta.counts.refs).collect();
        assert_eq!(widths, vec![128, 128]);
        assert_eq!(t.totals().counts.refs, 256);
    }

    #[test]
    fn trailing_partial_window_is_kept() {
        let mut t = Timeline::new(100, 64);
        drive(&mut t, 250, 50, 2, 6);
        let widths: Vec<u64> = t.windows().iter().map(|w| w.delta.counts.refs).collect();
        assert_eq!(widths, vec![100, 100, 50]);
        assert_eq!(t.totals().counts.refs, 250);
        assert_eq!(t.totals().counts.misses, 125);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut t = Timeline::new(10, 4);
        drive(&mut t, 25, 5, 2, 3);
        let w = t.windows().len();
        let p = t.phases().len();
        t.finish();
        assert_eq!((t.windows().len(), t.phases().len()), (w, p));
    }

    #[test]
    fn phase_change_is_detected() {
        let mut t = Timeline::new(100, 1024);
        let mut cycles = 0u64;
        // Phase 1: 400 refs, no misses. Phase 2: 400 refs, all miss.
        for i in 0..800u64 {
            t.on_ref(i * 8, i, false);
            if i >= 400 {
                cycles += 10;
                t.on_event(&Event::Miss {
                    line: i,
                    set: 0,
                    is_write: false,
                    victim: None,
                });
            } else {
                cycles += 1;
            }
            if (i + 1) % 100 == 0 {
                t.on_chunk(i + 1, cycles);
            }
        }
        t.finish();
        assert_eq!(t.phases().len(), 2, "{:?}", t.phases());
        let p0 = t.phases()[0];
        let p1 = t.phases()[1];
        assert_eq!((p0.start_window, p0.windows), (0, 4));
        assert_eq!((p1.start_window, p1.windows), (4, 4));
        assert_eq!(p0.misses, 0);
        assert_eq!(p1.misses, 400);
        assert!(p1.miss_rate() > 0.99);
        // Every window is tagged with its phase.
        assert!(t.windows()[..4].iter().all(|w| w.phase == 0));
        assert!(t.windows()[4..].iter().all(|w| w.phase == 1));
    }

    #[test]
    fn three_c_mix_sums_to_misses() {
        // Capacity 2: lines 0..4 round-robin forces capacity misses
        // after the compulsory first touches.
        let mut t = Timeline::new(50, 2);
        let mut cycles = 0u64;
        for i in 0..100u64 {
            let line = i % 4;
            t.on_ref(line * 32, line, false);
            cycles += 5;
            t.on_event(&Event::Miss {
                line,
                set: line,
                is_write: false,
                victim: None,
            });
            if (i + 1) % 50 == 0 {
                t.on_chunk(i + 1, cycles);
            }
        }
        t.finish();
        let totals = t.totals();
        assert_eq!(totals.counts.misses, 100);
        assert_eq!(
            totals.counts.compulsory + totals.counts.capacity + totals.counts.conflict,
            totals.counts.misses
        );
        assert_eq!(totals.counts.compulsory, 4, "first touch of each line");
        assert_eq!(totals.counts.capacity, 96, "working set exceeds shadow FA");
    }

    #[test]
    fn writebacks_and_bounces_accumulate() {
        let mut t = Timeline::new(10, 8);
        t.on_ref(0, 0, true);
        t.on_event(&Event::Writeback { line: 1 });
        t.on_event(&Event::BounceBack { line: 2, set: 0 });
        t.on_event(&Event::Flush { writebacks: 3 });
        t.on_chunk(1, 7);
        t.finish();
        let totals = t.totals();
        assert_eq!(totals.counts.writebacks, 4);
        assert_eq!(totals.counts.bounces, 1);
        assert_eq!(totals.mem_cycles, 7);
    }

    #[test]
    fn jsonl_and_render_mention_every_window_and_phase() {
        let mut t = Timeline::new(100, 64);
        drive(&mut t, 300, 100, 3, 4);
        let mut buf = Vec::new();
        t.write_jsonl("std", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), t.windows().len() + t.phases().len());
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"kind\": \"window\""));
        assert!(text.contains("\"kind\": \"phase\""));
        let table = t.render("std");
        assert!(table.contains("timeline of std"));
        assert!(table.contains("phase 0:"));
    }
}
