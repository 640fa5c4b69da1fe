//! Probe-layer overhead: the same engines over the same traces with no
//! probe attached (the default `NoopProbe`, which must be
//! indistinguishable from the pre-probe engines — its hooks const-fold
//! away), the bare `EventCounts` fold, and the full `TracingProbe`
//! telemetry stack. The noop/plain pair is the zero-cost claim; the
//! tracing rows document what full instrumentation costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sac_core::{SoftCache, SoftCacheConfig, SoftPolicy};
use sac_experiments::explain::{hit_heavy_trace, miss_heavy_trace};
use sac_obs::{EventCounts, ObsConfig, Probe, TracingProbe};
use sac_simcache::{
    CacheGeometry, CacheSim, MemoryModel, Metrics, StandardCache, StandardPolicy, VictimCache,
    VictimPolicy,
};
use sac_trace::Trace;
use std::hint::black_box;

const LEN: usize = 200_000;

fn geom() -> CacheGeometry {
    CacheGeometry::new(8192, 32, 1)
}

fn run_standard<P: Probe>(probe: P, trace: &Trace) -> Metrics {
    let mut c =
        StandardCache::with_probe(StandardPolicy::new(geom()), MemoryModel::default(), probe);
    c.run_chunk(trace.as_slice());
    *c.metrics()
}

fn run_victim<P: Probe>(probe: P, trace: &Trace) -> Metrics {
    let mut c =
        VictimCache::with_probe(VictimPolicy::new(geom(), 8), MemoryModel::default(), probe);
    c.run_chunk(trace.as_slice());
    *c.metrics()
}

fn run_soft<P: Probe>(probe: P, trace: &Trace) -> Metrics {
    let cfg = SoftCacheConfig::soft();
    let mut c = SoftCache::with_probe(SoftPolicy::new(cfg), cfg.memory, probe);
    c.run_chunk(trace.as_slice());
    *c.metrics()
}

fn tracing() -> TracingProbe {
    let g = geom();
    TracingProbe::new(ObsConfig::for_cache(g.lines(), g.sets(), g.line_bytes()).with_ring(4096, 16))
}

fn probe_overhead(c: &mut Criterion) {
    let shapes: Vec<(&str, Trace)> = vec![
        ("hit_heavy", hit_heavy_trace(LEN)),
        ("miss_heavy", miss_heavy_trace(LEN)),
    ];
    let mut group = c.benchmark_group("probe_overhead");
    group.sample_size(10);
    for (name, trace) in &shapes {
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.bench_with_input(BenchmarkId::new("standard/plain", name), trace, |b, t| {
            b.iter(|| {
                let mut c = StandardCache::new(StandardPolicy::new(geom()), MemoryModel::default());
                c.run_chunk(black_box(t.as_slice()));
                *c.metrics()
            })
        });
        group.bench_with_input(BenchmarkId::new("standard/noop", name), trace, |b, t| {
            b.iter(|| run_standard(sac_obs::NoopProbe, black_box(t)))
        });
        group.bench_with_input(
            BenchmarkId::new("standard/counting", name),
            trace,
            |b, t| b.iter(|| run_standard(EventCounts::default(), black_box(t))),
        );
        group.bench_with_input(BenchmarkId::new("standard/tracing", name), trace, |b, t| {
            b.iter(|| run_standard(tracing(), black_box(t)))
        });
        group.bench_with_input(BenchmarkId::new("victim/plain", name), trace, |b, t| {
            b.iter(|| {
                let mut c = VictimCache::new(VictimPolicy::new(geom(), 8), MemoryModel::default());
                c.run_chunk(black_box(t.as_slice()));
                *c.metrics()
            })
        });
        group.bench_with_input(BenchmarkId::new("victim/noop", name), trace, |b, t| {
            b.iter(|| run_victim(sac_obs::NoopProbe, black_box(t)))
        });
        group.bench_with_input(BenchmarkId::new("victim/counting", name), trace, |b, t| {
            b.iter(|| run_victim(EventCounts::default(), black_box(t)))
        });
        group.bench_with_input(BenchmarkId::new("victim/tracing", name), trace, |b, t| {
            b.iter(|| run_victim(tracing(), black_box(t)))
        });
        group.bench_with_input(BenchmarkId::new("soft/noop", name), trace, |b, t| {
            b.iter(|| run_soft(sac_obs::NoopProbe, black_box(t)))
        });
        group.bench_with_input(BenchmarkId::new("soft/tracing", name), trace, |b, t| {
            b.iter(|| run_soft(tracing(), black_box(t)))
        });
    }
    group.finish();
}

criterion_group!(benches, probe_overhead);
criterion_main!(benches);
