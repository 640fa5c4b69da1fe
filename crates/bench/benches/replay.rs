//! Replay-engine throughput: the batched single-pass replay path that the
//! figure suite runs on. Three trace shapes stress the three code paths —
//! raw (a real suite trace), hit-heavy (footprint fits the cache, so the
//! inlined hit fast path dominates), miss-heavy (a cache-busting stride,
//! so the miss machinery dominates) — plus the streamed SACT decode and a
//! multi-config batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sac_bench::small_suite;
use sac_experiments::runner::ReplayBatch;
use sac_experiments::Config;
use sac_trace::io::{ChunkSource, TraceReader};
use sac_trace::{io, Access, Trace};
use std::hint::black_box;

/// Every reference lands in the standard 8 KB cache after the first pass.
fn hit_heavy(len: usize) -> Trace {
    let mut t = Trace::with_capacity("hit-heavy", len);
    for i in 0..len {
        t.push(Access::read((i as u64 % 512) * 8).with_temporal(true));
    }
    t
}

/// Alternating tags in every set of the standard 8 KB direct-mapped
/// geometry: each access evicts the line its revisit will need, so the
/// steady state is all misses (and the cycle is long enough to defeat
/// the 8-line bounce-back cache too).
fn miss_heavy(len: usize) -> Trace {
    let mut t = Trace::with_capacity("miss-heavy", len);
    for i in 0..len {
        let set = (i as u64 / 2) % 256;
        let tag = (i as u64) % 2;
        t.push(Access::read(tag * 8192 + set * 32));
    }
    t
}

fn replay_shapes(c: &mut Criterion) {
    let raw = small_suite().trace("MV").expect("MV in suite").clone();
    let shapes: Vec<(&str, Trace)> = vec![
        ("raw", raw),
        ("hit_heavy", hit_heavy(200_000)),
        ("miss_heavy", miss_heavy(200_000)),
    ];
    let mut group = c.benchmark_group("replay_shapes");
    group.sample_size(10);
    for (name, trace) in &shapes {
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.bench_with_input(BenchmarkId::new("standard", name), trace, |b, t| {
            b.iter(|| black_box(Config::standard()).run(black_box(t)))
        });
        group.bench_with_input(BenchmarkId::new("soft", name), trace, |b, t| {
            b.iter(|| black_box(Config::soft()).run(black_box(t)))
        });
    }
    group.finish();
}

fn replay_batched(c: &mut Criterion) {
    let trace = small_suite().trace("MV").expect("MV in suite");
    let configs = [
        Config::standard(),
        Config::standard_victim(),
        Config::soft(),
    ];
    let mut group = c.benchmark_group("replay_batched");
    // Elements = references × engines: the batch replays each chunk once
    // per engine while it is hot.
    group.throughput(Throughput::Elements(
        trace.len() as u64 * configs.len() as u64,
    ));
    group.sample_size(10);
    group.bench_function("three_config_batch", |b| {
        b.iter(|| {
            let mut batch = ReplayBatch::new();
            for (i, cfg) in configs.iter().enumerate() {
                batch.push(format!("bench/batch/{i}"), cfg);
            }
            batch.replay(black_box(trace))
        })
    });
    group.finish();
}

fn streamed_decode(c: &mut Criterion) {
    let trace = small_suite().trace("MV").expect("MV in suite");
    let mut bytes = Vec::new();
    io::write_binary(trace, &mut bytes).expect("in-memory SACT write");
    let mut group = c.benchmark_group("streamed_decode");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    // Chunked decode + replay without ever materializing the trace.
    group.bench_function("decode_and_replay", |b| {
        b.iter(|| {
            let mut reader = TraceReader::new(black_box(&bytes[..])).expect("valid header");
            let mut batch = ReplayBatch::new();
            batch.push("bench/stream".into(), &Config::standard());
            batch.replay_reader(&mut reader).expect("valid stream")
        })
    });
    // Decode alone, for the decode/simulate split.
    group.bench_function("decode_only", |b| {
        b.iter(|| {
            let mut reader = TraceReader::new(black_box(&bytes[..])).expect("valid header");
            let mut n = 0usize;
            while let Some(chunk) = reader.next_chunk().expect("valid stream") {
                n += chunk.len();
            }
            n
        })
    });
    group.finish();
}

criterion_group!(benches, replay_shapes, replay_batched, streamed_decode);
criterion_main!(benches);
