//! A metrics registry: named counters, gauges and histograms for
//! run-level observability.
//!
//! The simulation probes measure *what the cache did*; the registry
//! measures *what the pipeline did* — cells completed, chunks replayed,
//! per-worker busy time, bytes-read progress of the trace tools. Names
//! are dotted strings (`sweep.cells`, `worker00.busy_us`) and all maps
//! are `BTreeMap`s, so every rendering is deterministically ordered.
//!
//! [`MetricsRegistry`] is a plain value: each sweep run owns one (the
//! `sac-experiments` runner keeps it with the run's other records), and
//! renders it for stderr ([`MetricsRegistry::render_text`]) or embeds it
//! in `BENCH_replay.json` ([`MetricsRegistry::to_json`]). Updates happen
//! at coarse boundaries only (once per cell or engine) — never per
//! reference — so the replay fast path is untouched.

use crate::Log2Histogram;
use std::collections::BTreeMap;

/// A named-metric store: monotonic counters, last-value gauges, and
/// log2-bucketed histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the histogram `name`.
    pub fn hist_record(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// The counter's current value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge's current value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram under `name`, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&Log2Histogram> {
        self.hists.get(name)
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// A deterministic human-readable rendering (sorted by name),
    /// suitable for an end-of-run stderr report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("metrics registry\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("  counter {name:<32} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("  gauge   {name:<32} {v:.3}\n"));
        }
        for (name, h) in &self.hists {
            out.push_str(&format!(
                "  hist    {name:<32} n={} mean={:.1}\n",
                h.total(),
                h.mean()
            ));
        }
        out
    }

    /// The registry as a JSON object (hand-rolled: the build is
    /// offline), with `indent` leading spaces on each inner line.
    /// Histograms serialize as `{"total": n, "mean": m, "buckets": [..]}`.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut parts: Vec<String> = Vec::new();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{inner}  \"{k}\": {v}"))
            .collect();
        parts.push(format!(
            "{inner}\"counters\": {{\n{}\n{inner}}}",
            counters.join(",\n")
        ));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{inner}  \"{k}\": {}", json_f64(*v)))
            .collect();
        parts.push(format!(
            "{inner}\"gauges\": {{\n{}\n{inner}}}",
            gauges.join(",\n")
        ));
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h.buckets().iter().map(|b| b.to_string()).collect();
                format!(
                    "{inner}  \"{k}\": {{\"total\": {}, \"mean\": {}, \"buckets\": [{}]}}",
                    h.total(),
                    json_f64(h.mean()),
                    buckets.join(", ")
                )
            })
            .collect();
        parts.push(format!(
            "{inner}\"histograms\": {{\n{}\n{inner}}}",
            hists.join(",\n")
        ));
        format!("{pad}{{\n{}\n{pad}}}", parts.join(",\n"))
    }
}

/// An `f64` as JSON: finite values print with enough precision to
/// round-trip; non-finite values (not representable in JSON) print as
/// `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// A step-gated progress counter over a known total (entries of a
/// conversion or of a written trace): `update` returns the stepped
/// percentage only when a new 10% step is crossed, so the caller prints
/// exactly one progress line per step. Long streaming commands
/// (`sact-convert`, `sac trace`) tick it per chunk — ten lines over a
/// multi-gigabyte run, never one per entry.
#[derive(Debug)]
pub struct ProgressGauge {
    total: u64,
    last_step: u64,
}

impl ProgressGauge {
    /// Step size in percent between reported steps.
    pub const STEP_PCT: u64 = 10;

    /// A gauge for `current / total` progress.
    pub fn new(total: u64) -> Self {
        ProgressGauge {
            total,
            last_step: 0,
        }
    }

    /// Records progress `current` (same unit as `total`). Returns
    /// `Some(pct)` when a new step was crossed, `None` otherwise.
    pub fn update(&mut self, current: u64) -> Option<u64> {
        let pct = 100 * current.min(self.total) / self.total.max(1);
        let step = pct / Self::STEP_PCT;
        if step <= self.last_step {
            return None;
        }
        self.last_step = step;
        Some(step * Self::STEP_PCT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_round_trip() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.counter_add("sweep.cells", 3);
        r.counter_add("sweep.cells", 2);
        r.gauge_set("progress_pct", 40.0);
        r.gauge_set("progress_pct", 80.0);
        r.hist_record("cell_wall_us", 100);
        r.hist_record("cell_wall_us", 300);
        assert_eq!(r.counter("sweep.cells"), 5);
        assert_eq!(r.gauge("progress_pct"), Some(80.0));
        assert_eq!(r.hist("cell_wall_us").unwrap().total(), 2);
        assert!((r.hist("cell_wall_us").unwrap().mean() - 200.0).abs() < 1e-9);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("absent"), None);
        assert!(!r.is_empty());
    }

    #[test]
    fn render_text_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.counter_add("b.second", 2);
        r.counter_add("a.first", 1);
        let text = r.render_text();
        let a = text.find("a.first").unwrap();
        let b = text.find("b.second").unwrap();
        assert!(a < b, "counters render in name order");
        assert_eq!(text, r.clone().render_text());
    }

    #[test]
    fn json_shape_is_parseable_ish() {
        let mut r = MetricsRegistry::new();
        r.counter_add("cells", 7);
        r.gauge_set("pct", 12.5);
        r.hist_record("wall", 9);
        let j = r.to_json(0);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"cells\": 7"));
        assert!(j.contains("\"pct\": 12.500000"));
        assert!(j.contains("\"wall\": {\"total\": 1"));
        // Balanced braces and brackets (cheap structural check).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn non_finite_gauges_serialize_as_null() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("bad", f64::NAN);
        assert!(r.to_json(0).contains("\"bad\": null"));
    }

    #[test]
    fn progress_gauge_steps_by_ten_percent() {
        let mut p = ProgressGauge::new(1000);
        assert_eq!(p.update(5), None, "below first step");
        assert_eq!(p.update(99), None);
        assert_eq!(p.update(100), Some(10));
        assert_eq!(p.update(101), None, "same step stays quiet");
        assert_eq!(p.update(349), Some(30), "skipped steps collapse");
        assert_eq!(p.update(2000), Some(100), "clamped past total");
        assert_eq!(p.update(u64::MAX), None, "only fires once at 100");
    }

    #[test]
    fn progress_gauge_survives_zero_total() {
        // Unknown/zero totals must not divide by zero; such a gauge
        // simply never fires (current is clamped to the total).
        let mut p = ProgressGauge::new(0);
        assert_eq!(p.update(0), None);
        assert_eq!(p.update(1), None);
    }
}
