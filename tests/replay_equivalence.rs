//! Replay-path equivalence: the per-reference [`CacheSim::access`] loop
//! is the oracle, and the chunk loop ([`CacheSim::run_chunk`]) at any
//! chunking, the batched whole-`Vec` replay, the streamed SACT/SAC2
//! replay and the one-config-at-a-time replay must all produce its
//! [`Metrics`] exactly — the figure suite's byte-identical output rests
//! on this.
//!
//! [`CacheSim::access`]: software_assisted_caches::simcache::CacheSim::access
//! [`CacheSim::run_chunk`]: software_assisted_caches::simcache::CacheSim::run_chunk

use software_assisted_caches::experiments::explain::explain_config;
use software_assisted_caches::experiments::runner::ReplayBatch;
use software_assisted_caches::experiments::{Config, Suite};
use software_assisted_caches::obs::{EventCounts, ObsConfig, TracingProbe};
use software_assisted_caches::simcache::{CacheSim, Metrics};
use software_assisted_caches::trace::io::{read_text, write_binary, TraceReader};
use software_assisted_caches::trace::Trace;

fn golden() -> Trace {
    let text = include_str!("data/golden.trace");
    let trace = read_text(text.as_bytes()).expect("golden trace parses");
    assert_eq!(trace.len(), 280);
    trace
}

/// Every organization in the study — all of them run on the shared
/// policy engine, so all of them must replay identically on every path.
/// The set is [`Config::all_organizations`].
fn configs() -> Vec<(String, Config)> {
    Config::all_organizations()
        .iter()
        .map(|(name, config)| (format!("equiv/{name}"), *config))
        .collect()
}

/// Materialized baseline: each config builds its own engine and replays
/// the whole trace alone.
fn one_at_a_time(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    cells.iter().map(|(_, cfg)| cfg.run(trace)).collect()
}

/// Batched replay over the in-memory trace, chunked.
fn batched(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    let mut batch = ReplayBatch::new();
    for (label, cfg) in cells {
        batch.push(label.clone(), cfg);
    }
    batch.replay(trace)
}

/// Streamed replay: serialize to SACT bytes, then replay straight off the
/// chunked reader without materializing the trace.
fn streamed(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    let mut bytes = Vec::new();
    write_binary(trace, &mut bytes).expect("in-memory SACT write");
    let mut reader = TraceReader::new(&bytes[..]).expect("valid SACT header");
    let mut batch = ReplayBatch::new();
    for (label, cfg) in cells {
        batch.push(label.clone(), cfg);
    }
    batch.replay_reader(&mut reader).expect("valid SACT stream")
}

/// A small chunk size so even the 280-reference golden trace crosses
/// several chunk boundaries.
fn streamed_small_chunks(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    let mut bytes = Vec::new();
    write_binary(trace, &mut bytes).expect("in-memory SACT write");
    let mut reader = TraceReader::new(&bytes[..])
        .expect("valid SACT header")
        .with_chunk_size(7);
    let mut batch = ReplayBatch::new();
    for (label, cfg) in cells {
        batch.push(label.clone(), cfg);
    }
    batch.replay_reader(&mut reader).expect("valid SACT stream")
}

#[test]
fn golden_trace_replays_identically_on_all_paths() {
    let trace = golden();
    let cells = configs();
    let solo = one_at_a_time(&cells, &trace);
    assert_eq!(solo, batched(&cells, &trace), "batched vs solo");
    assert_eq!(solo, streamed(&cells, &trace), "streamed vs solo");
    assert_eq!(
        solo,
        streamed_small_chunks(&cells, &trace),
        "7-entry chunks vs solo"
    );
}

/// Attaching a probe must not change a single counter: the probe layer
/// observes the engines, it never steers them. Checked for every
/// organization, with both the full `TracingProbe` and the tiny
/// `EventCounts`, over the whole trace and in 7-entry chunks.
#[test]
fn probed_replay_is_metric_identical_to_unprobed() {
    let trace = golden();
    for (label, config) in configs() {
        let (geom, _) = config.shape();
        let obs = || ObsConfig::for_cache(geom.lines(), geom.sets(), geom.line_bytes());
        for chunk in [trace.len(), 7] {
            let plain = chunked(&mut *config.build(), &trace, chunk);
            let counting = chunked(
                &mut *config.build_probed(EventCounts::default()),
                &trace,
                chunk,
            );
            let tracing = chunked(
                &mut *config.build_probed(TracingProbe::new(obs())),
                &trace,
                chunk,
            );
            assert_eq!(plain, counting, "{label}+counting chunk={chunk}");
            assert_eq!(plain, tracing, "{label}+tracing chunk={chunk}");
        }
    }
}

/// The explainer's telemetry reconciles exactly with the engine counters
/// on the golden trace, and its instrumented run reproduces the same
/// metrics as the plain replay path — for every organization.
#[test]
fn golden_trace_explain_reconciles_exactly() {
    let trace = golden();
    for (label, config) in configs() {
        let e = explain_config(&label, &config, &trace, 64, 1)
            .expect("golden trace telemetry reconciles");
        assert_eq!(e.metrics, config.run(&trace), "{label}");
        e.verify().expect("explicit re-verification holds");
    }
}

/// A random trace with every kind of reference the tag bits can express:
/// reads/writes, temporal/spatial tags, spatial levels and issue gaps,
/// over a footprint that makes every organization hit *and* miss.
fn random_trace(seed: u64, len: usize) -> Trace {
    let mut rng = software_assisted_caches::trace::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            // Mix dense (hit-heavy, same-line runs) and sparse regions.
            let addr = if rng.chance(0.6) {
                rng.below(1 << 12)
            } else {
                rng.below(1 << 17)
            };
            let a = if rng.chance(0.3) {
                software_assisted_caches::trace::Access::write(addr)
            } else {
                software_assisted_caches::trace::Access::read(addr)
            };
            a.with_temporal(rng.chance(0.4))
                .with_spatial(rng.chance(0.5))
                .with_spatial_level(rng.below(4) as u8)
                .with_gap(rng.below(6) as u32)
                .with_instr(rng.below(32) as u32)
        })
        .collect()
}

/// A random trace where a slice of the addresses have bit 63 set — the
/// top-of-address-space corner where line numbers and tags must not
/// truncate.
fn high_address_trace(seed: u64, len: usize) -> Trace {
    let mut rng = software_assisted_caches::trace::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let mut addr = rng.below(1 << 14);
            if rng.chance(0.25) {
                addr |= 1 << 63;
            }
            let a = if rng.chance(0.3) {
                software_assisted_caches::trace::Access::write(addr)
            } else {
                software_assisted_caches::trace::Access::read(addr)
            };
            a.with_temporal(rng.chance(0.4))
                .with_gap(rng.below(4) as u32)
        })
        .collect()
}

/// The oracle: one [`CacheSim::access`] call per reference.
fn per_access(engine: &mut dyn CacheSim, trace: &Trace) -> Metrics {
    for a in trace.iter() {
        engine.access(a);
    }
    *engine.metrics()
}

/// `run_chunk` over `trace` in `chunk`-entry pieces.
fn chunked<S: CacheSim + ?Sized>(engine: &mut S, trace: &Trace, chunk: usize) -> Metrics {
    for piece in trace.as_slice().chunks(chunk) {
        engine.run_chunk(piece);
    }
    *engine.metrics()
}

/// The per-access oracle's metrics for every organization on `trace`.
fn oracle(cells: &[(String, Config)], trace: &Trace) -> Vec<Metrics> {
    cells
        .iter()
        .map(|(_, config)| per_access(&mut *config.build(), trace))
        .collect()
}

/// `run_chunk` over the whole trace and over 7- and 33-entry chunks
/// must reproduce the oracle for every organization — unprobed, and
/// with `probes` also under `EventCounts` and `TracingProbe`.
fn assert_chunk_loop_matches_oracle(traces: &[(String, Trace)], probes: bool) {
    let cells = configs();
    for (tname, trace) in traces {
        for ((label, config), want) in cells.iter().zip(&oracle(&cells, trace)) {
            let (geom, _) = config.shape();
            let obs = || ObsConfig::for_cache(geom.lines(), geom.sets(), geom.line_bytes());
            for chunk in [trace.len(), 7, 33] {
                let at = format!("{tname}/{label} chunk={chunk}");
                assert_eq!(chunked(&mut *config.build(), trace, chunk), *want, "{at}");
                if probes {
                    let counting = &mut *config.build_probed(EventCounts::default());
                    assert_eq!(chunked(counting, trace, chunk), *want, "{at}+counting");
                    let tracing = &mut *config.build_probed(TracingProbe::new(obs()));
                    assert_eq!(chunked(tracing, trace, chunk), *want, "{at}+tracing");
                }
            }
        }
    }
}

/// The batched, 7-entry streamed and one-config-at-a-time replays must
/// reproduce the oracle for every organization.
fn assert_batch_matches_oracle(traces: &[(String, Trace)]) {
    let cells = configs();
    for (tname, trace) in traces {
        let want = oracle(&cells, trace);
        assert_eq!(batched(&cells, trace), want, "{tname} batched");
        assert_eq!(
            streamed_small_chunks(&cells, trace),
            want,
            "{tname} 7-entry streamed"
        );
        assert_eq!(one_at_a_time(&cells, trace), want, "{tname} solo");
    }
}

/// The golden trace, four random tagged traces and a bit-63 trace.
fn oracle_traces() -> Vec<(String, Trace)> {
    let mut traces = vec![("golden".to_string(), golden())];
    for seed in 0..4u64 {
        traces.push((format!("random{seed}"), random_trace(0xF5ED + seed, 4_000)));
    }
    traces.push(("high63".to_string(), high_address_trace(0x63B17, 4_000)));
    traces
}

// The next five tests keep the names they had when the replay had SoA
// and fused twin paths that were compared against the scalar loop.
// Those twins are gone; `run_chunk` is the one chunk loop, and each
// test now checks a slice of its contract against the per-access
// oracle.

/// Unprobed `run_chunk` at every chunking matches the oracle on the
/// golden trace and six random tagged traces.
#[test]
fn soa_replay_is_byte_identical_to_scalar_replay() {
    let mut traces = vec![("golden".to_string(), golden())];
    for seed in 0..6u64 {
        traces.push((format!("random{seed}"), random_trace(0x5AC6 + seed, 4_000)));
    }
    assert_chunk_loop_matches_oracle(&traces, false);
}

/// Probed `run_chunk` matches the unprobed oracle on the golden trace:
/// probes see the same reference stream, and metrics do not move.
#[test]
fn soa_probed_replay_is_metric_identical_to_scalar() {
    assert_chunk_loop_matches_oracle(&[("golden".to_string(), golden())], true);
}

/// A batch of every organization matches the oracle and solo replay on
/// a 6000-reference random trace.
#[test]
fn probe_modes_agree_at_the_batch_level() {
    assert_batch_matches_oracle(&[("random".to_string(), random_trace(0xD1FF, 6_000))]);
}

/// `run_chunk`, unprobed and under both probes, matches the oracle on
/// the golden, random tagged and bit-63 traces.
#[test]
fn fused_replay_is_byte_identical_to_soa_and_scalar() {
    assert_chunk_loop_matches_oracle(&oracle_traces(), true);
}

/// The batched and streamed replays match the oracle and solo replay on
/// the golden, random tagged and bit-63 traces, plus two longer ones.
#[test]
fn fused_batch_mode_agrees_with_soa_and_solo() {
    let mut traces = oracle_traces();
    traces.push(("random6k".to_string(), random_trace(0xFA57, 6_000)));
    traces.push(("high63-6k".to_string(), high_address_trace(0x63B18, 6_000)));
    assert_batch_matches_oracle(&traces);
}

#[test]
fn generated_suite_trace_replays_identically_on_all_paths() {
    // One real generated workload trace (small scale keeps the test fast).
    let suite = Suite::small();
    let trace = suite.trace("MV").expect("MV in small suite").clone();
    let cells = configs();
    let solo = one_at_a_time(&cells, &trace);
    assert_eq!(solo, batched(&cells, &trace), "batched vs solo");
    assert_eq!(solo, streamed(&cells, &trace), "streamed vs solo");
}

/// Streamed replay off the compact SAC2 format: serialize with the
/// delta encoder, replay through the sniffing `TraceReader` — the
/// Metrics must match the SACT stream and the materialized replay
/// bit-for-bit, across every organization, including chunk sizes that
/// split SAC2 runs mid-stream.
#[test]
fn sact2_streamed_replay_matches_all_other_paths() {
    use software_assisted_caches::trace::io::{write_binary2, DEFAULT_CHUNK};

    for trace in [golden(), random_trace(0x5AC2_2026, 4_000)] {
        let cells = configs();
        let mut bytes2 = Vec::new();
        write_binary2(&trace, &mut bytes2).expect("in-memory SAC2 write");

        for chunk_entries in [DEFAULT_CHUNK, 7] {
            let mut reader = TraceReader::new(&bytes2[..])
                .expect("valid SAC2 header")
                .with_chunk_size(chunk_entries);
            assert_eq!(reader.format(), "SAC2");
            let mut batch = ReplayBatch::new();
            for (label, cfg) in &cells {
                batch.push(label.clone(), cfg);
            }
            let from_sact2 = batch.replay_reader(&mut reader).expect("valid SAC2 stream");
            assert_eq!(from_sact2, streamed(&cells, &trace), "sact2 vs sact stream");
            assert_eq!(from_sact2, batched(&cells, &trace), "sact2 vs materialized");
        }
    }
}
