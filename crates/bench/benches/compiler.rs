//! Compiler-side throughput: the locality analysis, the tracer, the
//! static validator and the pretty-printer on the largest benchmark
//! programs.

use criterion::{criterion_group, criterion_main, Criterion};
use sac_loopir::TraceOptions;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mv = sac_workloads::mv::program(256);
    let spmv = sac_workloads::spmv::program(sac_workloads::spmv::Params::small());
    let slalom = sac_workloads::slalom::program(sac_workloads::slalom::Params::small());

    c.bench_function("compiler/analyze_slalom", |b| {
        b.iter(|| black_box(&slalom).analyze())
    });
    c.bench_function("compiler/analyze_levels_mv", |b| {
        b.iter(|| sac_loopir::analysis::analyze(black_box(&mv)))
    });
    c.bench_function("compiler/validate_slalom", |b| {
        b.iter(|| black_box(&slalom).validate())
    });
    c.bench_function("compiler/pseudocode_spmv", |b| {
        b.iter(|| black_box(&spmv).to_pseudocode())
    });
    let opts = TraceOptions {
        seed: 1,
        gaps: true,
        levels: false,
    };
    c.bench_function("compiler/trace_mv_256", |b| {
        b.iter(|| black_box(&mv).trace(black_box(&opts)).expect("traces"))
    });
    let leveled = TraceOptions {
        seed: 1,
        gaps: true,
        levels: true,
    };
    c.bench_function("compiler/trace_mv_256_leveled", |b| {
        b.iter(|| black_box(&mv).trace(black_box(&leveled)).expect("traces"))
    });
    // A Figure 11a cell's trace at paper scale, materialized as most
    // callers use it and streamed as Figure 11a consumes it.
    let blocked = sac_workloads::blocked::program(sac_workloads::blocked::Params {
        block: 50,
        ..Default::default()
    });
    let fig11 = TraceOptions::default();
    c.bench_function("compiler/trace_blocked_mv/materialized", |b| {
        b.iter(|| black_box(&blocked).trace(&fig11).expect("traces"))
    });
    c.bench_function("compiler/trace_blocked_mv/streamed", |b| {
        b.iter(|| {
            let mut refs = 0;
            black_box(&blocked)
                .trace_into(&fig11, |chunk| refs += black_box(chunk).len())
                .expect("traces");
            refs
        })
    });
    // The paper suite's sparse kernel streamed: innermost bodies mix
    // stepped affine references with per-emission indirect ones.
    let spmv_full = sac_workloads::spmv::program(sac_workloads::spmv::Params::default());
    c.bench_function("compiler/trace_spmv/streamed", |b| {
        b.iter(|| {
            let mut refs = 0;
            black_box(&spmv_full)
                .trace_into(&fig11, |chunk| refs += black_box(chunk).len())
                .expect("traces");
            refs
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
