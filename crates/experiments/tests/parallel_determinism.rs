//! The parallel sweep runner's core promise: figure output is
//! bit-identical whatever the worker count.

use sac_experiments::runner::{self, Run, Spans};
use sac_experiments::{figures, Suite, Table};

fn figures_under(jobs: usize) -> (Suite, Vec<Table>) {
    runner::install(Run::new(jobs, Spans::Off));
    // Regenerate the suite under this worker count too: trace generation
    // is itself sharded, so determinism must hold there as well.
    let suite = Suite::small();
    let build =
        |id: &str| figures::select(&[id]).expect("a registry id")[0].build(Some(&suite), true);
    let tables = vec![
        // Suite inputs: one replay batch per benchmark row.
        build("fig06a"),
        build("fig07a"),
        // Suite inputs read by a trace statistic, and by one replay
        // read out twice.
        build("fig01a"),
        build("fig06b"),
        // Two replays per column, derived in the fold.
        build("fig09a"),
        // Program inputs, generated inside the pool while they replay.
        build("fig11a"),
        // Two program inputs per row, one traced with levels.
        build("ext-copy-vline"),
        // Suite means folded in benchmark order, over replays with
        // context switches and over one row of every latency.
        build("ext-context-switch"),
        build("ext-pf-distance"),
        // The 3C classifier beside a suite replay.
        build("ext-miss-classes"),
        // Leveled-suite inputs + variable virtual lines.
        build("ext-var-vlines"),
        // Coherent inputs, one pool item per workload row.
        build("coh-mesi"),
    ];
    (suite, tables)
}

#[test]
fn parallel_and_sequential_sweeps_are_bit_identical() {
    let (suite_seq, seq) = figures_under(1);
    let (suite_par, par) = figures_under(4);

    for (name, trace) in suite_seq.entries() {
        assert_eq!(
            Some(&**trace),
            suite_par.trace(name),
            "trace {name} differs between sequential and parallel generation"
        );
    }
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        // Table equality covers every f64 bit-for-bit (no tolerance)...
        assert_eq!(s, p, "figure {:?} differs under --jobs 4", s.title());
        // ...and the rendered forms are what users diff, so check those
        // too in case rendering ever becomes value-dependent.
        assert_eq!(s.to_markdown(), p.to_markdown());
        assert_eq!(s.to_csv(), p.to_csv());
    }
}
