//! The full telemetry probe: classification, histograms, ring buffer,
//! JSONL export.

use crate::{
    json_escape, Event, EventCounts, EventRing, Log2Histogram, Probe, SetHeatmap, ShadowClassifier,
    ShadowOutcome, TimedEvent, WordUse,
};
use std::collections::HashMap;
use std::io::{self, Write};

/// Static parameters of a [`TracingProbe`]: the observed cache's shape
/// plus the event-ring policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Main-cache lines (capacity of the shadow fully-assoc filter).
    pub lines: u64,
    /// Main-cache sets (width of the conflict heatmap).
    pub sets: u64,
    /// Line size in bytes (word-utilization granularity).
    pub line_bytes: u64,
    /// Events the ring buffer retains.
    pub ring_capacity: usize,
    /// Keep one event in `sample_every` (1 = keep all, up to capacity).
    pub sample_every: u64,
}

impl ObsConfig {
    /// A configuration for a cache of `lines` lines in `sets` sets of
    /// `line_bytes`-byte lines, with the default ring policy (4096
    /// events, no subsampling).
    pub fn for_cache(lines: u64, sets: u64, line_bytes: u64) -> Self {
        ObsConfig {
            lines,
            sets,
            line_bytes,
            ring_capacity: 4096,
            sample_every: 1,
        }
    }

    /// Overrides the ring policy.
    pub fn with_ring(mut self, capacity: usize, sample_every: u64) -> Self {
        self.ring_capacity = capacity;
        self.sample_every = sample_every;
        self
    }
}

/// The aggregating probe: classifies every miss (3C, via the shadow
/// filter), maintains the per-set conflict heatmap, the virtual-line
/// word-utilization histogram, the bounce-back residency histogram, the
/// reuse-interval sketch and the miss-interval histogram, and retains a
/// sampled tail of raw events in a bounded ring. Everything it collects
/// reconciles exactly with the engine's `Metrics` (see [`EventCounts`]).
///
/// The reuse sketch records, per reference, the number of references
/// elapsed since the previous touch of the same line (a log₂-bucketed
/// *reuse interval* — the cheap single-pass cousin of LRU stack
/// distance); first touches are counted separately as `cold`, so
/// `cold + sketch.total() == refs` always holds.
#[derive(Debug, Clone)]
pub struct TracingProbe {
    cfg: ObsConfig,
    counts: EventCounts,
    classifier: ShadowClassifier,
    last_outcome: ShadowOutcome,
    heatmap: SetHeatmap,
    word_use: WordUse,
    /// line → reference index of its bounce-back into the main cache.
    bounce_at: HashMap<u64, u64>,
    residency: Log2Histogram,
    /// line → reference index of its last touch.
    last_touch: HashMap<u64, u64>,
    reuse: Log2Histogram,
    reuse_cold: u64,
    last_miss_at: Option<u64>,
    miss_intervals: Log2Histogram,
    ring: EventRing,
}

impl TracingProbe {
    /// A probe for a cache described by `cfg`.
    pub fn new(cfg: ObsConfig) -> Self {
        TracingProbe {
            cfg,
            counts: EventCounts::default(),
            classifier: ShadowClassifier::new(cfg.lines as usize),
            last_outcome: ShadowOutcome {
                first_touch: true,
                fa_hit: false,
            },
            heatmap: SetHeatmap::new(cfg.sets),
            word_use: WordUse::new(cfg.line_bytes),
            bounce_at: HashMap::new(),
            residency: Log2Histogram::new(),
            last_touch: HashMap::new(),
            reuse: Log2Histogram::new(),
            reuse_cold: 0,
            last_miss_at: None,
            miss_intervals: Log2Histogram::new(),
            ring: EventRing::new(cfg.ring_capacity, cfg.sample_every),
        }
    }

    /// Folds still-resident state (word-utilization of lines that never
    /// left the cache) into the histograms. Call once, after the run.
    pub fn finish(&mut self) {
        self.word_use.finish();
    }

    /// The event totals (misses classified), for reconciliation against
    /// `Metrics`.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Misses per 3C cause: `(compulsory, capacity, conflict)`.
    pub fn causes(&self) -> (u64, u64, u64) {
        let c = &self.counts;
        (c.compulsory, c.capacity, c.conflict)
    }

    /// The per-set conflict heatmap.
    pub fn heatmap(&self) -> &SetHeatmap {
        &self.heatmap
    }

    /// The virtual-line word-utilization tracker.
    pub fn word_use(&self) -> &WordUse {
        &self.word_use
    }

    /// Bounce-back residency: references a bounced line survived in the
    /// main cache before being evicted again.
    pub fn residency(&self) -> &Log2Histogram {
        &self.residency
    }

    /// The reuse-interval sketch (`cold` first touches are not in the
    /// histogram; see [`TracingProbe::reuse_cold`]).
    pub fn reuse(&self) -> &Log2Histogram {
        &self.reuse
    }

    /// First touches (references with no earlier touch of the line).
    pub fn reuse_cold(&self) -> u64 {
        self.reuse_cold
    }

    /// References elapsed between consecutive misses (the first miss
    /// records its own reference index).
    pub fn miss_intervals(&self) -> &Log2Histogram {
        &self.miss_intervals
    }

    /// The sampled event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Distinct lines the trace touched.
    pub fn footprint_lines(&self) -> usize {
        self.classifier.lines_seen()
    }

    fn evicted_from_main(&mut self, line: u64) {
        self.word_use.evict(line);
        if let Some(b) = self.bounce_at.remove(&line) {
            self.residency.record(self.counts.refs.saturating_sub(b));
        }
    }

    /// Serializes everything — summary, cause split, heatmap,
    /// histograms, then the sampled events — as JSON Lines.
    pub fn write_jsonl(&self, label: &str, w: &mut impl Write) -> io::Result<()> {
        let c = &self.counts;
        writeln!(
            w,
            "{{\"type\":\"summary\",\"schema_version\":{},\"label\":\"{}\",\"refs\":{},\"reads\":{},\
             \"writes\":{},\"misses\":{},\"aux_hits\":{},\"bypasses\":{},\"bounces\":{},\
             \"swaps\":{},\"prefetch_issues\":{},\
             \"prefetch_uses\":{},\"writebacks\":{},\"line_fills\":{},\"vline_fills\":{},\
             \"main_evicts\":{},\"footprint_lines\":{}}}",
            crate::SCHEMA_VERSION,
            json_escape(label),
            c.refs,
            c.reads,
            c.writes,
            c.misses,
            c.aux_hits,
            c.bypasses,
            c.bounces,
            c.swaps,
            c.prefetch_issues,
            c.prefetch_uses,
            c.writebacks,
            c.line_fills,
            c.vline_fills,
            c.main_evicts,
            self.footprint_lines(),
        )?;
        let (comp, cap, conf) = self.causes();
        writeln!(
            w,
            "{{\"type\":\"miss_causes\",\"compulsory\":{comp},\"capacity\":{cap},\"conflict\":{conf}}}"
        )?;
        let top: Vec<String> = self
            .heatmap
            .top(16)
            .into_iter()
            .map(|(s, n)| format!("{{\"set\":{s},\"misses\":{n}}}"))
            .collect();
        writeln!(
            w,
            "{{\"type\":\"conflict_sets\",\"sets\":{},\"total\":{},\"top\":[{}]}}",
            self.cfg.sets,
            self.heatmap.total(),
            top.join(",")
        )?;
        writeln!(
            w,
            "{{\"type\":\"vline_words\",\"words_per_line\":{},\"lines\":{},\"touched_words\":{},\
             \"wasted_words\":{},\"utilization\":{:.6},\"histogram\":{}}}",
            self.word_use.words_per_line(),
            self.word_use.lines(),
            self.word_use.touched_words(),
            self.word_use.wasted_words(),
            self.word_use.utilization(),
            json_u64s(self.word_use.counts()),
        )?;
        for (name, hist, extra) in [
            ("bounce_residency", &self.residency, String::new()),
            (
                "reuse_intervals",
                &self.reuse,
                format!("\"cold\":{},", self.reuse_cold),
            ),
            ("miss_intervals", &self.miss_intervals, String::new()),
        ] {
            writeln!(
                w,
                "{{\"type\":\"{name}\",{extra}\"count\":{},\"mean\":{:.3},\"histogram\":{}}}",
                hist.total(),
                hist.mean(),
                json_u64s(hist.buckets()),
            )?;
        }
        writeln!(
            w,
            "{{\"type\":\"events\",\"seen\":{},\"sample_every\":{},\"retained\":{},\"dropped\":{}}}",
            self.ring.seen(),
            self.ring.sample_every(),
            self.ring.len(),
            self.ring.dropped(),
        )?;
        for e in self.ring.iter() {
            writeln!(w, "{}", event_json(e))?;
        }
        Ok(())
    }
}

impl Probe for TracingProbe {
    fn on_ref(&mut self, addr: u64, line: u64, is_write: bool) {
        self.counts.record_ref(is_write);
        self.last_outcome = self.classifier.touch(line);
        let word_in_line = (addr % self.cfg.line_bytes) / sac_trace::WORD_BYTES;
        self.word_use.touch(line, word_in_line);
        match self.last_touch.insert(line, self.counts.refs) {
            Some(prev) => self.reuse.record(self.counts.refs - prev),
            None => self.reuse_cold += 1,
        }
    }

    fn on_event(&mut self, event: &Event) {
        let cause = self.counts.record(event, Some(self.last_outcome));
        match *event {
            Event::Miss { set, victim, .. } => {
                self.heatmap.record(set);
                let at = self.counts.refs;
                self.miss_intervals
                    .record(at - self.last_miss_at.unwrap_or(0));
                self.last_miss_at = Some(at);
                if let Some(v) = victim {
                    self.evicted_from_main(v.line);
                }
            }
            Event::LineFill {
                line,
                demand: false,
            } => self.word_use.fill(line),
            Event::MainEvict { line, .. } => self.evicted_from_main(line),
            Event::BounceBack { line, .. } => {
                self.bounce_at.insert(line, self.counts.refs);
            }
            Event::Flush { .. } => {
                // Everything left the cache: fold residency and word-use
                // state for all tracked lines.
                let lines: Vec<u64> = self.bounce_at.keys().copied().collect();
                for l in lines {
                    self.evicted_from_main(l);
                }
                self.word_use.finish();
            }
            _ => {}
        }
        self.ring.push(TimedEvent {
            at_ref: self.counts.refs,
            cause,
            event: *event,
        });
    }
}

fn json_u64s(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn event_json(e: &TimedEvent) -> String {
    let mut body = format!("{{\"type\":\"event\",\"at_ref\":{},", e.at_ref);
    match e.event {
        Event::Miss {
            line,
            set,
            is_write,
            victim,
        } => {
            body.push_str(&format!(
                "\"kind\":\"miss\",\"line\":{line},\"set\":{set},\"write\":{is_write}"
            ));
            if let Some(c) = e.cause {
                body.push_str(&format!(",\"cause\":\"{}\"", c.name()));
            }
            if let Some(v) = victim {
                body.push_str(&format!(
                    ",\"victim_line\":{},\"victim_dirty\":{}",
                    v.line, v.dirty
                ));
            }
        }
        Event::LineFill { line, demand } => body.push_str(&format!(
            "\"kind\":\"line_fill\",\"line\":{line},\"demand\":{demand}"
        )),
        Event::VlineFill {
            line,
            span_lines,
            fetched_lines,
        } => body.push_str(&format!(
            "\"kind\":\"vline_fill\",\"line\":{line},\"span_lines\":{span_lines},\"fetched_lines\":{fetched_lines}"
        )),
        Event::MainEvict { line, dirty } => body.push_str(&format!(
            "\"kind\":\"main_evict\",\"line\":{line},\"dirty\":{dirty}"
        )),
        Event::AuxHit { line, source } => body.push_str(&format!(
            "\"kind\":\"aux_hit\",\"line\":{line},\"source\":\"{}\"",
            source.name()
        )),
        Event::Bypass { line, is_write } => body.push_str(&format!(
            "\"kind\":\"bypass\",\"line\":{line},\"write\":{is_write}"
        )),
        Event::BounceBack { line, set } => body.push_str(&format!(
            "\"kind\":\"bounce_back\",\"line\":{line},\"set\":{set}"
        )),
        Event::Swap { line } => body.push_str(&format!("\"kind\":\"swap\",\"line\":{line}")),
        Event::PrefetchIssue { line } => {
            body.push_str(&format!("\"kind\":\"prefetch_issue\",\"line\":{line}"))
        }
        Event::PrefetchUse { line } => {
            body.push_str(&format!("\"kind\":\"prefetch_use\",\"line\":{line}"))
        }
        Event::Writeback { line } => {
            body.push_str(&format!("\"kind\":\"writeback\",\"line\":{line}"))
        }
        Event::Flush { writebacks } => {
            body.push_str(&format!("\"kind\":\"flush\",\"writebacks\":{writebacks}"))
        }
        Event::Coherence { cpu, line, op } => {
            body.push_str(&format!(
                "\"kind\":\"coherence\",\"cpu\":{cpu},\"line\":{line},\"op\":\"{}\"",
                op.name()
            ));
            if let crate::CoherenceOp::InvalidateRecv { false_sharing } = op {
                body.push_str(&format!(",\"false_sharing\":{false_sharing}"));
            }
        }
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Victim;

    fn probe() -> TracingProbe {
        TracingProbe::new(ObsConfig::for_cache(4, 4, 32))
    }

    #[test]
    fn refs_and_reuse_reconcile() {
        let mut p = probe();
        for (i, line) in [0u64, 1, 0, 2, 1, 0].into_iter().enumerate() {
            p.on_ref(line * 32, line, i % 2 == 0);
        }
        assert_eq!(p.counts().refs, 6);
        assert_eq!(p.counts().reads + p.counts().writes, 6);
        assert_eq!(p.reuse_cold() + p.reuse().total(), 6);
    }

    #[test]
    fn miss_events_classify_and_reconcile() {
        let mut p = probe();
        // Lines 0 and 4 conflict in a 4-set direct-mapped cache; the
        // shadow FA cache (4 lines) holds both, so revisits classify as
        // conflict.
        for line in [0u64, 4, 0, 4] {
            p.on_ref(line * 32, line, false);
            p.on_event(&Event::Miss {
                line,
                set: line % 4,
                is_write: false,
                victim: None,
            });
        }
        assert_eq!(p.counts().misses, 4);
        let (comp, cap, conf) = p.causes();
        assert_eq!((comp, cap, conf), (2, 0, 2));
        assert_eq!(p.miss_intervals().total(), 4);
        assert_eq!(p.heatmap().total(), 4);
        assert_eq!(p.heatmap().top(1), vec![(0, 4)]);
    }

    #[test]
    fn residency_spans_bounce_to_evict() {
        let mut p = probe();
        p.on_ref(0, 0, false);
        p.on_event(&Event::BounceBack { line: 9, set: 1 });
        for i in 0..5u64 {
            p.on_ref(i * 32, i, false);
        }
        p.on_event(&Event::MainEvict {
            line: 9,
            dirty: false,
        });
        assert_eq!(p.residency().total(), 1);
        assert!((p.residency().mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn vline_word_use_counts_touches_and_waste() {
        let mut p = probe();
        p.on_ref(0, 0, false);
        p.on_event(&Event::LineFill {
            line: 0,
            demand: true,
        });
        p.on_event(&Event::LineFill {
            line: 1,
            demand: false,
        });
        // Touch one word of speculative line 1, then evict it.
        p.on_ref(32, 1, false);
        p.on_event(&Event::Miss {
            line: 5,
            set: 1,
            is_write: false,
            victim: Some(Victim {
                line: 1,
                dirty: false,
            }),
        });
        p.finish();
        assert_eq!(p.word_use().lines(), 1);
        assert_eq!(p.word_use().touched_words(), 1);
        assert_eq!(p.word_use().wasted_words(), 3);
    }

    #[test]
    fn flush_folds_tracked_state_and_counts_writebacks() {
        let mut p = probe();
        p.on_ref(0, 0, false);
        p.on_event(&Event::BounceBack { line: 3, set: 3 });
        p.on_event(&Event::Flush { writebacks: 2 });
        assert_eq!(p.counts().writebacks, 2);
        assert_eq!(p.counts().flushes, 1);
        assert_eq!(p.residency().total(), 1);
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let mut p = probe();
        p.on_ref(0, 0, true);
        p.on_event(&Event::Miss {
            line: 0,
            set: 0,
            is_write: true,
            victim: None,
        });
        p.on_event(&Event::Writeback { line: 7 });
        p.finish();
        let mut buf = Vec::new();
        p.write_jsonl("test/cell", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"type\":\"summary\""));
        assert!(text.contains("\"label\":\"test/cell\""));
        assert!(text.contains("\"cause\":\"compulsory\""));
        assert!(text.contains("\"kind\":\"writeback\""));
        assert!(text.contains("\"type\":\"miss_intervals\""));
    }

    #[test]
    fn json_str_escapes_quotes() {
        let mut p = probe();
        p.on_ref(0, 0, false);
        p.finish();
        let mut buf = Vec::new();
        p.write_jsonl("a\"b\\c", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"label\":\"a\\\"b\\\\c\""), "{text}");
    }
}
