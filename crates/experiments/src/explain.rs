//! The cache-behavior explainer: runs one configuration with a full
//! [`TracingProbe`] attached and turns the telemetry into a
//! per-mechanism breakdown of *why* the cache performs the way it does.
//!
//! The `explain` binary is the CLI front end; this module holds the
//! reusable pieces: [`explain_config`] (instrumented run + standard
//! baseline), [`Explanation`] (render + exact event↔counter
//! reconciliation), the deterministic benchmark traces shared with the
//! `figures --bench-json` micro-benchmarks, and the bench-guard JSON
//! probe used by CI to detect `NoopProbe` throughput regressions.

use crate::runner::REPLAY_CHUNK;
use crate::Config;
use sac_obs::{ObsConfig, Probe, Timeline, TracingProbe};
use sac_simcache::{MemoryModel, Metrics, AUX_HIT_CYCLES};
use sac_trace::{Access, Trace};

/// A trace whose footprint fits the standard 8 KB cache: after the first
/// lap the inlined hit fast path handles every reference.
pub fn hit_heavy_trace(len: usize) -> Trace {
    let mut t = Trace::with_capacity("hit-heavy", len);
    for i in 0..len {
        t.push(Access::read((i as u64 % 512) * 8).with_temporal(true));
    }
    t
}

/// Alternating tags in every set of the standard geometry: each access
/// evicts the line its revisit needs, so the steady state is all misses.
pub fn miss_heavy_trace(len: usize) -> Trace {
    let mut t = Trace::with_capacity("miss-heavy", len);
    for i in 0..len {
        let set = (i as u64 / 2) % 256;
        let tag = (i as u64) % 2;
        t.push(Access::read(tag * 8192 + set * 32));
    }
    t
}

/// A deterministic mixed read/write pattern with temporal and spatial
/// tags — the default trace the `explain` binary dissects.
pub fn mixed_trace(len: usize) -> Trace {
    let mut t = Trace::with_capacity("mixed", len);
    for i in 0..len as u64 {
        let a = if i % 11 == 0 {
            Access::write((i % 900) * 8)
        } else {
            Access::read((i % 700) * 8)
        };
        t.push(
            a.with_spatial(i % 3 != 0)
                .with_temporal(i % 7 == 0)
                .with_gap((i % 6) as u32),
        );
    }
    t
}

/// The result of an instrumented run: the probed configuration's
/// counters, a standard-cache baseline over the same trace (same
/// geometry and memory model), and the full telemetry probe.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The label the run was recorded under.
    pub label: String,
    /// Counters of the probed configuration.
    pub metrics: Metrics,
    /// Counters of the standard baseline (same geometry and memory).
    pub baseline: Metrics,
    /// The finished telemetry probe (histograms folded).
    pub probe: TracingProbe,
    /// Memory model, for the attribution estimate.
    mem: MemoryModel,
    /// Line size in bytes.
    line_bytes: u64,
}

/// Runs `config` over `trace` with an arbitrary probe attached, feeding
/// the chunked-replay path `chunk`-sized chunks, and returns the final
/// counters together with the probe.
///
/// The probe's own finalization (`TracingProbe::finish`,
/// `Timeline::finish`, ...) is the caller's job: this function only
/// drives the replay.
pub fn run_probed<P: Probe + 'static>(
    config: &Config,
    trace: &Trace,
    probe: P,
    chunk: usize,
) -> (Metrics, P) {
    let mut sim = config.build_probed(probe);
    for ch in trace.as_slice().chunks(chunk.max(1)) {
        sim.run_chunk(ch);
    }
    (*sim.metrics(), sim.into_probe())
}

/// Runs `config` over `trace` with a [`Timeline`] probe whose windows
/// are exactly `window_refs` references wide, and checks the
/// reconciliation invariant before returning.
///
/// Windows close at chunk folds, so the replay is driven with chunks of
/// exactly the window width: every window except possibly the last is
/// then exactly `window_refs` references.
///
/// # Errors
///
/// Returns the first counter whose window sum disagrees with the global
/// metrics (which would be an instrumentation bug, not a user error).
pub fn explain_timeline(
    label: &str,
    config: &Config,
    trace: &Trace,
    window_refs: u64,
) -> Result<(Timeline, Metrics), String> {
    let (geom, _) = config.shape();
    let window_refs = window_refs.max(1);
    let timeline = Timeline::new(window_refs, geom.lines() as usize);
    let chunk = usize::try_from(window_refs).unwrap_or(usize::MAX);
    let (metrics, mut timeline) = run_probed(config, trace, timeline, chunk);
    timeline.finish();
    verify_timeline(label, &timeline, &metrics)?;
    Ok((timeline, metrics))
}

/// The timeline reconciliation invariant: the window sums reconcile
/// against the engine's global counters ([`Metrics::reconcile_classified`]),
/// 3C split included, and the per-window cycle deltas sum to its
/// `mem_cycles`.
///
/// # Errors
///
/// Returns the first mismatching counter, labelled with `label`.
pub fn verify_timeline(label: &str, timeline: &Timeline, metrics: &Metrics) -> Result<(), String> {
    let t = timeline.totals();
    metrics
        .reconcile_classified(&t.counts)
        .map_err(|e| format!("{label}: timeline window sums: {e}"))?;
    if t.mem_cycles != metrics.mem_cycles {
        return Err(format!(
            "{label}: timeline window sum mem_cycles={} != global {}",
            t.mem_cycles, metrics.mem_cycles
        ));
    }
    Ok(())
}

/// Runs `config` over `trace` with a [`TracingProbe`] attached, plus an
/// unprobed standard baseline with the same geometry and memory model.
///
/// Every organization is supported: all engines run on the shared policy
/// engine, whose chunked replay feeds the probe on hits and misses
/// alike.
///
/// # Errors
///
/// Returns the exact counter the telemetry failed to reconcile against
/// (which would be an engine instrumentation bug, not a user error).
pub fn explain_config(
    label: &str,
    config: &Config,
    trace: &Trace,
    ring_capacity: usize,
    sample_every: u64,
) -> Result<Explanation, String> {
    let (geom, mem) = config.shape();
    let obs = ObsConfig::for_cache(geom.lines(), geom.sets(), geom.line_bytes())
        .with_ring(ring_capacity, sample_every);

    let (metrics, mut probe) = run_probed(config, trace, TracingProbe::new(obs), REPLAY_CHUNK);
    probe.finish();

    let mut base = Config::Standard { geom, mem }.build();
    for chunk in trace.as_slice().chunks(REPLAY_CHUNK) {
        base.run_chunk(chunk);
    }

    let e = Explanation {
        label: label.to_string(),
        metrics,
        baseline: *base.metrics(),
        probe,
        mem,
        line_bytes: geom.line_bytes(),
    };
    e.verify()?;
    Ok(e)
}

impl Explanation {
    /// Exact reconciliation of the probe's event totals against the
    /// engine's counters ([`Metrics::reconcile_classified`]), plus the
    /// probe's own coverage: the reuse sketch accounts for every
    /// reference and the miss-interval histogram for every miss.
    ///
    /// # Errors
    ///
    /// Names the first counter that disagrees.
    pub fn verify(&self) -> Result<(), String> {
        let m = &self.metrics;
        m.reconcile_classified(self.probe.counts())?;
        if self.probe.reuse_cold() + self.probe.reuse().total() != m.refs {
            return Err(format!(
                "reuse sketch: cold {} + recorded {} != refs {}",
                self.probe.reuse_cold(),
                self.probe.reuse().total(),
                m.refs
            ));
        }
        if self.probe.miss_intervals().total() != m.misses {
            return Err(format!(
                "miss intervals: {} recorded, {} misses",
                self.probe.miss_intervals().total(),
                m.misses
            ));
        }
        Ok(())
    }

    /// Estimated cycles the auxiliary (bounce-back) hits saved versus
    /// paying a full miss for each: `aux_hits × (miss penalty − aux hit
    /// cost)`.
    pub fn bounce_saving_estimate(&self) -> u64 {
        let penalty = self.mem.fetch_cycles(1, self.line_bytes);
        self.metrics.aux_hits * penalty.saturating_sub(AUX_HIT_CYCLES)
    }

    /// The textual report, listing the top `top` conflicting sets.
    pub fn render(&self, top: usize) -> String {
        let m = &self.metrics;
        let b = &self.baseline;
        let o = self.probe.counts();
        let mut s = String::new();
        let pct = |part: f64, whole: f64| {
            if whole > 0.0 {
                100.0 * part / whole
            } else {
                0.0
            }
        };

        s.push_str(&format!("explain {}\n", self.label));
        s.push_str(&format!(
            "  trace        {} refs ({} reads / {} writes), footprint {} lines\n",
            m.refs,
            m.reads,
            m.writes,
            self.probe.footprint_lines()
        ));
        let gain = b.amat() - m.amat();
        s.push_str(&format!(
            "  outcome      AMAT {:.3} cycles vs standard {:.3} ({} {:.3}, {:.1}%)\n",
            m.amat(),
            b.amat(),
            if gain >= 0.0 { "gain" } else { "loss" },
            gain.abs(),
            pct(gain.abs(), b.amat()),
        ));
        s.push_str(&format!(
            "               miss ratio {:.4} vs {:.4}, traffic {:.3} vs {:.3} words/ref\n",
            m.miss_ratio(),
            b.miss_ratio(),
            m.traffic_ratio(),
            b.traffic_ratio(),
        ));
        s.push_str("  reconcile    events match metrics counters exactly\n");

        let (comp, cap, conf) = self.probe.causes();
        let mf = m.misses as f64;
        s.push_str(&format!(
            "  miss causes  {} misses: compulsory {} ({:.1}%), capacity {} ({:.1}%), conflict {} ({:.1}%)\n",
            m.misses,
            comp,
            pct(comp as f64, mf),
            cap,
            pct(cap as f64, mf),
            conf,
            pct(conf as f64, mf),
        ));
        for (set, n) in self.probe.heatmap().top(top) {
            s.push_str(&format!(
                "  hot set      set {set}: {n} misses ({:.1}%)\n",
                pct(n as f64, mf)
            ));
        }

        // Mechanism attribution: what the telemetry says each soft-cache
        // mechanism contributed.
        let saved_cycles = b.mem_cycles as f64 - m.mem_cycles as f64;
        if m.aux_hits > 0 || m.bounces > 0 {
            let bb_saved = self.bounce_saving_estimate() as f64;
            s.push_str(&format!(
                "  bounce-back  {} re-injections, {} aux hits, {} swaps; ~{:.0} cycles saved ({:.1}% of the {:.0}-cycle gain)\n",
                m.bounces,
                m.aux_hits,
                m.swaps,
                bb_saved,
                pct(bb_saved, saved_cycles.max(bb_saved)),
                saved_cycles,
            ));
            let res = self.probe.residency();
            if res.total() > 0 {
                s.push_str(&format!(
                    "               bounced lines survive a mean {:.1} refs back in the main cache ({} folded)\n",
                    res.mean(),
                    res.total(),
                ));
            }
        }
        if o.vline_fills > 0 {
            let w = self.probe.word_use();
            s.push_str(&format!(
                "  virtual line {} spanning fills, {} speculative line fetches; {:.1}% of speculative words used, {} words wasted\n",
                o.vline_fills,
                o.line_fills - o.misses,
                100.0 * w.utilization(),
                w.wasted_words(),
            ));
        }
        if m.prefetches > 0 {
            s.push_str(&format!(
                "  prefetch     {} issued, {} useful ({:.1}%)\n",
                m.prefetches,
                m.useful_prefetches,
                pct(m.useful_prefetches as f64, m.prefetches as f64),
            ));
        }

        s.push_str(&format!(
            "  reuse        {} cold refs; mean reuse interval {:.1} refs over {} revisits\n",
            self.probe.reuse_cold(),
            self.probe.reuse().mean(),
            self.probe.reuse().total(),
        ));
        s.push_str(&format!(
            "  miss spacing mean {:.1} refs between misses\n",
            self.probe.miss_intervals().mean(),
        ));
        let ring = self.probe.ring();
        s.push_str(&format!(
            "  events       {} emitted, {} retained in the ring (1 in {})\n",
            ring.seen(),
            ring.len(),
            ring.sample_every(),
        ));
        s
    }
}

/// Extracts `"refs_per_sec"` for one replay shape from a
/// `sac-bench-replay` JSON report (hand-rolled scan: the build is
/// offline, no serde). Returns `None` when the shape is absent.
pub fn bench_refs_per_sec(json: &str, shape: &str) -> Option<f64> {
    bench_field(json, shape, "\"refs_per_sec\":")
}

/// Extracts the store-warm `"warm_speedup"` ratio (cold replay wall over
/// warm store-lookup wall) from a `sac-bench-replay` report (v3 on).
/// `None` for older snapshots.
pub fn bench_store_warm_speedup(json: &str) -> Option<f64> {
    bench_field(json, "store", "\"warm_speedup\":")
}

fn bench_field(json: &str, shape: &str, field: &str) -> Option<f64> {
    let key = format!("\"{shape}\"");
    let obj = &json[json.find(&key)? + key.len()..];
    let obj = &obj[..obj.find('}')?];
    let rest = &obj[obj.find(field)? + field.len()..];
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_standard_reconciles_and_renders() {
        let trace = mixed_trace(30_000);
        let e = explain_config("test/standard", &Config::standard(), &trace, 256, 1).unwrap();
        assert_eq!(e.metrics, e.baseline);
        let text = e.render(3);
        assert!(text.contains("explain test/standard"), "{text}");
        assert!(text.contains("miss causes"), "{text}");
        assert!(text.contains("events match metrics"), "{text}");
    }

    #[test]
    fn explain_soft_attributes_mechanisms() {
        let mut cfg = match Config::soft() {
            Config::Soft(c) => c,
            _ => unreachable!(),
        };
        cfg.prefetch = true;
        // Three conflicting tags cycling through 64 sets, all temporal:
        // every revisit rides the bounce-back machinery.
        let mut trace = Trace::with_capacity("bouncy", 30_000);
        for i in 0..30_000u64 {
            let set = i % 64;
            let tag = (i / 64) % 3;
            trace.push(
                Access::read(tag * 8192 + set * 32)
                    .with_temporal(true)
                    .with_spatial(i % 2 == 0),
            );
        }
        let e = explain_config("test/soft", &Config::Soft(cfg), &trace, 256, 4).unwrap();
        assert!(e.metrics.bounces > 0, "{}", e.metrics);
        let text = e.render(3);
        assert!(text.contains("bounce-back"), "{text}");
        assert!(text.contains("virtual line"), "{text}");
        assert!(text.contains("prefetch"), "{text}");
    }

    #[test]
    fn explain_covers_every_organization() {
        use sac_simcache::{BypassMode, CacheGeometry};
        let trace = mixed_trace(20_000);
        let geom = CacheGeometry::standard();
        let mem = MemoryModel::default();
        let configs = [
            Config::standard_victim(),
            Config::Bypass {
                geom,
                mem,
                mode: BypassMode::Buffered { lines: 4 },
            },
            Config::HwPrefetch {
                geom,
                mem,
                lines: 8,
            },
            Config::StreamBuffer {
                geom,
                mem,
                buffers: 4,
                depth: 4,
            },
            Config::ColumnAssoc { geom, mem },
            Config::Assist {
                geom,
                mem,
                lines: 16,
            },
        ];
        for cfg in configs {
            // `explain_config` verifies the event↔counter reconciliation
            // internally; the probed run must also match the unprobed one.
            let e = explain_config("test/all", &cfg, &trace, 64, 8).unwrap_or_else(|err| {
                panic!("{cfg}: {err}");
            });
            assert_eq!(e.metrics, cfg.run(&trace), "{cfg}");
            assert!(e.render(2).contains("explain test/all"), "{cfg}");
        }
    }

    #[test]
    fn bench_json_probe_reads_rates() {
        let json = r#"{
  "replay": {
    "raw": {"engine_refs": 10, "wall_s": 1.0, "refs_per_sec": 1234},
    "hit_heavy": {"engine_refs": 10, "wall_s": 0.5, "refs_per_sec": 5678.5}
  }
}"#;
        assert_eq!(bench_refs_per_sec(json, "raw"), Some(1234.0));
        assert_eq!(bench_refs_per_sec(json, "hit_heavy"), Some(5678.5));
        assert_eq!(bench_refs_per_sec(json, "nope"), None);
        // A snapshot without a store row: the extractor must report its
        // absence, not a bogus number.
        assert_eq!(bench_store_warm_speedup(json), None);
    }

    #[test]
    fn bench_json_probe_reads_v4_rows() {
        let json = r#"{
  "schema": "sac-bench-replay-v4",
  "replay": {
    "hit_heavy": {"engine_refs": 10, "wall_s": 0.5, "refs_per_sec": 5678.5}
  },
  "store": {"cells": 3, "cold_wall_s": 0.08, "warm_wall_s": 0.0004, "warm_speedup": 200.0}
}"#;
        assert_eq!(bench_refs_per_sec(json, "hit_heavy"), Some(5678.5));
        assert_eq!(bench_store_warm_speedup(json), Some(200.0));
        // A field is read from its own row only: the store row has no
        // rate.
        assert_eq!(bench_refs_per_sec(json, "store"), None);
    }

    #[test]
    fn bench_traces_have_the_advertised_shape() {
        let m = Config::standard().run(&hit_heavy_trace(4096));
        assert!(m.main_hits > m.misses * 10, "{m}");
        let m = Config::standard().run(&miss_heavy_trace(4096));
        assert!(m.misses > m.main_hits, "{m}");
    }
}
