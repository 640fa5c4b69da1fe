//! What a run records: timed spans around calls into the program's
//! layers, per-layer values, output checks, and host measurements.
//!
//! Every span is measured from the harness's side of a public call; the
//! program itself carries no instrumentation for the benchmark.

use crate::json::{num, quote};
use crate::CALIB_REF_S;
use sac_simcache::Metrics;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The iteration the span belongs to.
    pub iteration: u32,
}

/// An open span returned by [`Recorder::begin`].
#[must_use = "close the span with Recorder::end"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// Simulated work an iteration drove through cache engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    /// Host seconds inside the engines.
    pub secs: f64,
    /// Engine references (each engine counts every reference it saw).
    pub refs: u64,
    /// References serviced by memory (misses plus bypasses).
    pub misses: u64,
}

impl EngineTotals {
    /// Adds one engine's work.
    pub fn add(&mut self, secs: f64, m: &Metrics) {
        self.secs += secs;
        self.refs += m.refs;
        self.misses += m.misses + m.bypasses;
    }
}

/// Host seconds of a timed call, raw and scaled to the reference host.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Timing {
    /// Seconds on this host, now.
    pub(crate) raw: f64,
    /// Seconds on the reference host ([`CALIB_REF_S`]).
    pub(crate) norm: f64,
}

/// Times work in segments, each between two runs of [`calibrate`]. The
/// host's speed drifts by tens of percent over minutes (other tenants,
/// clock changes) and the calibration loop drifts with it, so a
/// segment's time scaled by `CALIB_REF_S` over the mean of its two
/// calibrations measures the program rather than the moment.
pub(crate) struct HostClock {
    last: f64,
    segment: Instant,
    /// Every calibration measured so far, in seconds.
    pub(crate) calibs: Vec<f64>,
}

impl HostClock {
    /// Calibrates and starts the first segment.
    pub(crate) fn new() -> Self {
        let mut clock = HostClock {
            last: 0.0,
            segment: Instant::now(),
            calibs: Vec::new(),
        };
        clock.resync();
        clock
    }

    /// Calibrates afresh after untimed work, and starts a new segment.
    pub(crate) fn resync(&mut self) {
        self.last = calibrate();
        self.calibs.push(self.last);
        self.segment = Instant::now();
    }

    /// Ends the current segment and starts the next one after
    /// calibrating.
    pub(crate) fn lap(&mut self) -> Timing {
        let raw = self.segment.elapsed().as_secs_f64();
        let now = calibrate();
        self.calibs.push(now);
        let norm = raw * CALIB_REF_S / ((self.last + now) / 2.0);
        self.last = now;
        self.segment = Instant::now();
        Timing { raw, norm }
    }

    /// Times `f` as one segment.
    pub(crate) fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        self.segment = Instant::now();
        let r = f();
        (r, self.lap())
    }
}

/// Records one iteration: span timings (kept only when tracing), the
/// layer values the workload reports, its engine totals, and, for a
/// timed iteration, its calibrated time.
pub struct Recorder<'c> {
    origin: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
    iteration: u32,
    clock: Option<&'c mut HostClock>,
    time: Timing,
    /// Per-layer values of the iteration: name -> (value, unit).
    pub layers: BTreeMap<String, (f64, &'static str)>,
    /// The iteration's cache-engine work.
    pub engine: EngineTotals,
}

impl Recorder<'static> {
    /// A recorder that times calls but keeps no spans.
    pub fn untraced() -> Self {
        Recorder::new(None, 0, None)
    }

    /// A recorder that keeps every span, tagged with `iteration`.
    pub fn traced(iteration: u32) -> Self {
        Recorder::new(Some(Vec::new()), iteration, None)
    }
}

impl<'c> Recorder<'c> {
    /// A recorder for a timed iteration, which starts now: the iteration
    /// may split itself into calibrated segments with
    /// [`Recorder::checkpoint`].
    pub(crate) fn timed(clock: &'c mut HostClock) -> Self {
        clock.segment = Instant::now();
        Recorder::new(None, 0, Some(clock))
    }

    fn new(spans: Option<Vec<Span>>, iteration: u32, clock: Option<&'c mut HostClock>) -> Self {
        Recorder {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
            iteration,
            clock,
            time: Timing::default(),
            layers: BTreeMap::new(),
            engine: EngineTotals::default(),
        }
    }

    /// Ends a calibrated segment of a timed iteration (a no-op
    /// otherwise). Long iterations call this between their parts, so
    /// that host drift within the iteration is calibrated out too.
    pub fn checkpoint(&mut self) {
        if let Some(clock) = self.clock.as_mut() {
            let lap = clock.lap();
            self.time.raw += lap.raw;
            self.time.norm += lap.norm;
        }
    }

    /// Ends a timed iteration: its time, summed over its segments.
    pub(crate) fn finish(&mut self) -> Timing {
        self.checkpoint();
        self.time
    }

    /// Opens a span around a call.
    pub fn begin(&mut self, name: impl Into<String>) -> Open {
        let start = Instant::now();
        let idx = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name: name.into(),
                start_us: (start - self.origin).as_secs_f64() * 1e6,
                dur_us: 0.0,
                parent: self.open.last().copied(),
                iteration: self.iteration,
            });
            spans.len() - 1
        });
        if let Some(i) = idx {
            self.open.push(i);
        }
        Open { start, idx }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.start.elapsed().as_secs_f64();
        if let (Some(i), Some(spans)) = (open.idx, self.spans.as_mut()) {
            spans[i].dur_us = secs * 1e6;
            self.open.retain(|&o| o != i);
        }
        secs
    }

    /// Sets one layer value.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.insert(name.into(), (value, unit));
    }

    /// The spans recorded so far (empty when untraced).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The spans as a Chrome trace (loadable in Perfetto or
    /// `chrome://tracing`): one complete event per span, with the parent
    /// and iteration in its arguments.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"iteration\": {}}}}}{}\n",
                quote(&s.name),
                num(s.start_us),
                num(s.dur_us),
                s.iteration,
                if i + 1 < self.spans().len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// A tally of output checks: each one either matches its reference or
/// counts as one failure.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not match.
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Checks that each result equals its reference, one check per pair.
    pub fn metrics(&mut self, what: &str, labels: &[String], got: &[Metrics], want: &[Metrics]) {
        self.check(got.len() == want.len(), || {
            format!(
                "{what}: {} results for {} references",
                got.len(),
                want.len()
            )
        });
        for ((label, g), w) in labels.iter().zip(got).zip(want) {
            self.check(g == w, || format!("{what} {label}: got {g:?}, want {w:?}"));
        }
    }
}

/// FNV-1a-64 over a byte string: the digest the golden files hold.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of a list of results, in order.
pub fn metrics_digest(all: &[Metrics]) -> u64 {
    fnv64(format!("{all:?}").as_bytes())
}

/// Times a fixed integer-and-memory loop, about 25 ms on the reference
/// host: a 1 MiB table refilled with pseudo-random words and sorted,
/// again and again (branchy compares over an L2-sized working set, like
/// the simulator's probes). It shares no code with the simulator, so a
/// change to the program cannot move it; its duration tracks how fast
/// the host is running at that moment. Of the loops tried (random
/// read-modify-write over 1 MiB, 4 MiB and 64 MiB, streaming, page
/// faulting, hashing, sorting), sorting followed the replay and
/// trace-file workloads' drift most closely.
pub fn calibrate() -> f64 {
    const WORDS: usize = 1 << 17;
    const ROUNDS: usize = 11;
    // Filled before timing, so page faults stay out of the measurement.
    let mut table = vec![1u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for w in table.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *w = x;
        }
        table.sort_unstable();
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_result_is_exactly_one_failure() {
        let want = vec![
            Metrics {
                refs: 10,
                misses: 2,
                ..Metrics::default()
            };
            4
        ];
        let labels: Vec<String> = (0..4).map(|i| format!("cell{i}")).collect();
        let mut ok = Checks::default();
        ok.metrics("t", &labels, &want, &want);
        assert_eq!((ok.attempted, ok.failed), (5, 0));

        let mut got = want.clone();
        got[2].misses += 1;
        let mut bad = Checks::default();
        bad.metrics("t", &labels, &got, &want);
        assert_eq!((bad.attempted, bad.failed), (5, 1));
    }

    #[test]
    fn digests_see_every_counter() {
        let a = vec![Metrics::default(); 3];
        let mut b = a.clone();
        b[1].stall_cycles = 1;
        assert_ne!(metrics_digest(&a), metrics_digest(&b));
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn spans_nest_and_export() {
        let mut r = Recorder::traced(3);
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        let inner_s = r.end(inner);
        let outer_s = r.end(outer);
        assert!(outer_s >= inner_s);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].parent, None);
        let json = crate::json::Json::parse(&r.chrome_trace()).unwrap();
        let events = json.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("iteration")
                .unwrap()
                .num(),
            Some(3.0)
        );
    }

    #[test]
    fn untraced_recorder_keeps_no_spans() {
        let mut r = Recorder::untraced();
        let s = r.begin("x");
        r.end(s);
        assert!(r.spans().is_empty());
    }
}
