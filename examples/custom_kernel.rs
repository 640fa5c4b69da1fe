//! Building your own kernel: the loop-nest IR, the tagging analysis, and
//! the simulator — end to end on the paper's Figure 5 loop.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use software_assisted_caches::core::{SoftCache, SoftCacheConfig, SoftPolicy};
use software_assisted_caches::loopir::{idx, shift, Program};
use software_assisted_caches::simcache::CacheSim;
use software_assisted_caches::trace::stats::TagFractions;

fn main() {
    // The instrumented loop of the paper's Figure 5:
    //   DO I: DO J:
    //     Y(I) = Y(I) + (A(I,J) + B(J,I) + B(J,I+1)) * (X(J) + X(J))
    let n = 256i64;
    let mut p = Program::new("fig5");
    let i = p.var("I");
    let j = p.var("J");
    let a = p.array("A", &[n, n]);
    let b = p.array("B", &[n, n + 1]);
    let x = p.array("X", &[n]);
    let y = p.array("Y", &[n]);
    let mut labels = Vec::new();
    p.body(|s| {
        s.for_(i, 0, n, |s| {
            s.for_(j, 0, n, |s| {
                labels.push(("A(I,J)   read ", s.read(a, &[idx(i), idx(j)])));
                labels.push(("B(J,I)   read ", s.read(b, &[idx(j), idx(i)])));
                labels.push(("B(J,I+1) read ", s.read(b, &[idx(j), shift(i, 1)])));
                labels.push(("X(J)     read ", s.read(x, &[idx(j)])));
                labels.push(("Y(I)     read ", s.read(y, &[idx(i)])));
                labels.push(("Y(I)     write", s.write(y, &[idx(i)])));
            });
        });
    });

    // The analysis reproduces the trace() calls of the paper's Figure 5.
    let tags = p.analyze();
    println!("reference        temporal  spatial   (paper's Figure 5 bits)");
    for (label, id) in &labels {
        let t = tags[id.index()];
        println!(
            "{label}       {}        {}",
            u8::from(t.temporal),
            u8::from(t.spatial)
        );
    }

    let trace = p.trace_default();
    let f = TagFractions::of(&trace);
    println!(
        "\n{} references; temporal fraction {:.2}, spatial fraction {:.2}",
        trace.len(),
        f.temporal_fraction(),
        f.spatial_fraction()
    );

    let cfg = SoftCacheConfig::soft();
    let mut cache = SoftCache::new(SoftPolicy::new(cfg), cfg.memory);
    cache.run(&trace);
    println!("software-assisted cache: {}", cache.metrics());
}
