//! Replay-path equivalence: the per-reference [`CacheSim::access`] loop
//! is the oracle, and the chunk loop ([`CacheSim::run_chunk`]) at any
//! chunking, the batched whole-`Vec` replay, the streamed SACT/SAC2
//! replay and the one-config-at-a-time replay must all produce its
//! [`Metrics`] exactly — the figure suite's byte-identical output rests
//! on this.
//!
//! [`CacheSim::access`]: software_assisted_caches::simcache::CacheSim::access
//! [`CacheSim::run_chunk`]: software_assisted_caches::simcache::CacheSim::run_chunk

use software_assisted_caches::core::{Replacement, SoftCacheConfig};
use software_assisted_caches::experiments::explain::explain_config;
use software_assisted_caches::experiments::runner::{self, ReplayBatch};
use software_assisted_caches::experiments::{Config, Suite};
use software_assisted_caches::obs::{EventCounts, ObsConfig, TracingProbe};
use software_assisted_caches::simcache::{CacheGeometry, CacheSim, MemoryModel, Metrics};
use software_assisted_caches::trace::io::{read_text, write_binary, TraceReader};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{Access, Trace};

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
fn per_access<S: CacheSim + ?Sized>(engine: &mut S, trace: &Trace) -> Metrics {
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

// Latency lanes: one engine prices several memory latencies from one
// tag walk (`runner::replay_trace`), and every lane must equal the
// configuration replayed alone at its latency.

/// A lane-eligible configuration (Standard, or Soft. without prefetch)
/// on a random geometry and bus, at latency 20.
fn lane_config(rng: &mut SplitMix64) -> Config {
    let geom = CacheGeometry::new(
        [2048u64, 4096, 8192][rng.index(3)],
        [32u64, 64][rng.index(2)],
        [1u32, 2][rng.index(2)],
    );
    // A 64-byte bus moves a line faster than it retires from the write
    // buffer: dirty-victim transfers then outlast a short fetch, so the
    // lanes' stall counts differ (and some lanes diverge).
    let mem = MemoryModel::new(20, [8u64, 16, 64][rng.index(3)]);
    if rng.chance(0.3) {
        return Config::Standard { geom, mem };
    }
    let mut c = SoftCacheConfig::soft()
        .with_geometry(geom)
        .with_memory(mem)
        .with_virtual_line(geom.line_bytes() << rng.below(4))
        .with_bounce_lines([0u32, 4, 8][rng.index(3)])
        .with_admit_nontemporal(rng.chance(0.7))
        .with_variable_vlines(rng.chance(0.3));
    c.use_temporal = rng.chance(0.8);
    c.use_spatial = rng.chance(0.8);
    if geom.ways() >= 2 && rng.chance(0.5) {
        c.replacement = Replacement::PreferNonTemporal;
    }
    Config::Soft(c)
}

/// `config` at each latency, labeled, plus one non-lane organization in
/// the middle so the batch also carries a single-config engine.
fn latency_cells(config: Config, latencies: &[u64]) -> Vec<(String, Config)> {
    let mut cells: Vec<(String, Config)> = latencies
        .iter()
        .map(|&lat| (format!("lanes/lat={lat}"), at_latency(config, lat)))
        .collect();
    cells.insert(
        cells.len() / 2,
        ("lanes/victim".into(), Config::standard_victim()),
    );
    cells
}

fn at_latency(config: Config, lat: u64) -> Config {
    match config {
        Config::Standard { geom, mem } => Config::Standard {
            geom,
            mem: mem.with_latency(lat),
        },
        Config::Soft(c) => Config::Soft(c.with_latency(lat)),
        other => panic!("{other} has no latency lanes"),
    }
}

/// Every cell of a `replay_trace` sweep equals its solo run, and every
/// lane the lane engine kept in step equals it too. Returns how many
/// lanes diverged.
fn assert_lanes_match_solo(config: Config, latencies: &[u64], trace: &Trace, at: &str) -> usize {
    let cells = latency_cells(config, latencies);
    let solo = one_at_a_time(&cells, trace);
    assert_eq!(runner::replay_trace(&cells, trace), solo, "{at}: sweep");
    let mut engine = config.build_lanes(latencies);
    engine.run(trace);
    let lanes = engine.lane_metrics();
    assert_eq!(lanes.len(), latencies.len(), "{at}");
    assert!(
        lanes[0].is_some(),
        "{at}: the reference lane never diverges"
    );
    for (&lat, lane) in latencies.iter().zip(&lanes) {
        if let Some(m) = lane {
            assert_eq!(*m, at_latency(config, lat).run(trace), "{at}: lat={lat}");
        }
    }
    lanes.iter().filter(|m| m.is_none()).count()
}

/// Property (seeded): random tagged traces × random lane-eligible
/// configurations × random latency sets in `1..=40`.
#[test]
fn latency_lanes_match_solo_runs_on_random_traces() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::seed_from_u64(0x1A7E + seed);
        let trace = random_trace(0x1A7E5 + seed, 3_000);
        let config = lane_config(&mut rng);
        let latencies: Vec<u64> = (0..2 + rng.index(5)).map(|_| 1 + rng.below(40)).collect();
        assert_lanes_match_solo(config, &latencies, &trace, &format!("seed {seed}"));
    }
}

/// The golden trace and the small suite's benchmark traces under Figure
/// 10b's two organizations and latency sweep.
#[test]
fn latency_lanes_match_solo_runs_on_the_golden_traces() {
    let mut traces = vec![("golden".to_string(), golden())];
    let suite = Suite::small();
    for name in ["MV", "SpMV", "TRF"] {
        let trace = suite.trace(name).expect("benchmark in the small suite");
        traces.push((name.to_string(), trace.clone()));
    }
    let latencies = [5, 10, 15, 20, 25, 30];
    for (name, trace) in &traces {
        for config in [Config::standard(), Config::soft()] {
            let at = format!("{name}/{config}");
            assert_lanes_match_solo(config, &latencies, trace, &at);
        }
    }
}

/// Two laps of stores over the 8 KB cache with 256-byte virtual lines.
/// The first dirties every line, tagging the last line of each block
/// temporal. In the second, one store per block, issued back to back,
/// misses: its fill displaces eight dirty lines into the bounce-back
/// cache, which evicts the previous miss's eight — seven write-backs,
/// then the temporal line, whose bounce over a dirty line asks whether
/// the write buffer is full. Over a 12-byte bus a line retires in 3
/// cycles, eight in 24, while the fill takes `t_lat + 22`: at latency 1
/// one write-back is still pending, the buffer is full and the bounce
/// aborts; at latency 2 and above the buffer has drained and the bounce
/// goes ahead. (When the bus width divides the line, eight retirements
/// never outlast an eight-line fill, so lanes cannot diverge.)
fn store_heavy_trace() -> Trace {
    let mut refs = Vec::new();
    for block in 0..32u64 {
        for line in 0..8u64 {
            let a = Access::write(block * 256 + line * 32);
            refs.push(a.with_spatial(true).with_temporal(line == 7));
        }
    }
    for block in 0..32u64 {
        let a = Access::write(8192 + block * 256 + 7 * 32).with_gap(0);
        refs.push(a.with_spatial(true));
    }
    refs.into_iter().collect()
}

/// Lanes that disagree on the write-buffer-full check diverge, and the
/// sweep replays them alone: every result still equals its solo run.
#[test]
fn diverged_lanes_replay_alone_and_still_match() {
    let trace = store_heavy_trace();
    let soft = SoftCacheConfig::soft()
        .with_virtual_line(256)
        .with_memory(MemoryModel::new(20, 12));
    let config = Config::Soft(soft);
    let latencies = [20, 1, 2, 5, 10, 40];
    let diverged = assert_lanes_match_solo(config, &latencies, &trace, "store-heavy");
    assert_eq!(diverged, 1, "the latency-1 lane diverges");
    let bounces = |lat| at_latency(config, lat).run(&trace).bounces;
    assert!(bounces(1) < bounces(20), "aborted bounces at latency 1");
}

/// Soft. configurations that cannot form a virtual line share the memo
/// and store key of their `use_spatial = false` twin and replay
/// identically to it; no configuration with prefetch or variable virtual
/// lines is merged.
#[test]
fn canonical_configs_replay_identically() {
    let traces = [golden(), random_trace(0xCA70, 4_000)];
    let figure_8a = Config::Soft(SoftCacheConfig::soft().with_virtual_line(32));
    let temp_only = Config::Soft(SoftCacheConfig::temporal_only());
    assert_eq!(figure_8a.canonical(), temp_only);
    let mut merged = 0;
    for line in [32u64, 64] {
        for vline_lines in [1u64, 2] {
            for bits in 0..16u32 {
                let mut c = SoftCacheConfig::soft()
                    .with_geometry(CacheGeometry::new(8192, line, 1))
                    .with_virtual_line(line * vline_lines)
                    .with_prefetch(bits & 1 != 0)
                    .with_variable_vlines(bits & 2 != 0);
                c.use_spatial = bits & 4 != 0;
                c.use_temporal = bits & 8 != 0;
                let config = Config::Soft(c);
                let canonical = config.canonical();
                if c.prefetch || c.variable_vlines {
                    assert_eq!(canonical, config, "{config}: not merged");
                }
                if canonical == config {
                    continue;
                }
                merged += 1;
                assert_eq!(canonical.canonical(), canonical, "{config}: idempotent");
                for trace in &traces {
                    assert_eq!(config.run(trace), canonical.run(trace), "{config}");
                }
            }
        }
    }
    assert_eq!(
        merged, 4,
        "use_spatial on, one-line virtual line, 2 lines x 2 temporal"
    );
}
