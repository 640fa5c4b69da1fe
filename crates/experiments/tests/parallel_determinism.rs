//! The parallel sweep runner's core promise: figure output is
//! bit-identical whatever the worker count.

use sac_experiments::runner::{self, Run, Spans};
use sac_experiments::{figures, Suite, Table};

fn figures_under(jobs: usize) -> (Suite, Vec<Table>) {
    runner::install(Run::new(jobs, Spans::Off));
    // Regenerate the suite under this worker count too: trace generation
    // is itself sharded, so determinism must hold there as well.
    let suite = Suite::small();
    let leveled = Suite::small_leveled();
    let tables = vec![
        // Plain grid sweeps (metric_table path).
        figures::fig06a(&suite),
        figures::fig07a(&suite),
        // Trace-analysis rows (par_rows + timed_cell path).
        figures::fig01a(&suite),
        figures::fig06b(&suite),
        // Two engine runs per cell, derived value.
        figures::fig09a(&suite),
        // Per-row trace generation inside the pool.
        figures::fig11a(true),
        // Post-aggregation suite means in benchmark order.
        figures::ext_context_switch(&suite),
        figures::ext_prefetch_distance(&suite),
        // Leveled traces + variable virtual lines.
        figures::ext_variable_vlines(&leveled),
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
