//! The span tracer's determinism contract (DESIGN.md §13): the
//! *logical* Chrome trace of a sweep is byte-identical at any worker
//! count, because span keys come from `(figure, item, slot, chunk)`
//! indices rather than scheduling, and logical timestamps are
//! synthesized purely from key order.

use sac_experiments::runner::{self, Run, Spans};
use sac_experiments::{figures, Suite};
use sac_obs::span::{self, TraceMode};

/// Runs a representative sweep (suite generation, a batch-replay grid
/// figure, a per-row trace-generation figure) under `jobs` workers with
/// span recording on, and returns the logical Chrome trace.
fn logical_trace_under(jobs: usize) -> String {
    let run = Run::new(jobs, Spans::Chunks);
    runner::install(run.clone());

    runner::set_figure_seq(0);
    let suite = Suite::small();
    runner::set_figure_seq(1);
    let _ = figures::fig06a(&suite);
    runner::set_figure_seq(2);
    let _ = figures::fig11a(true);

    let (spans, rss) = run.recorded_spans();
    span::check_nesting(&spans, TraceMode::Logical).expect("logical spans nest");
    span::check_nesting(&spans, TraceMode::Wall).expect("wall spans nest");
    span::chrome_trace(&spans, &rss, TraceMode::Logical)
}

#[test]
fn logical_trace_is_byte_identical_across_worker_counts() {
    let sequential = logical_trace_under(1);
    let parallel = logical_trace_under(4);

    assert!(
        sequential.contains("\"cat\": \"cell\""),
        "sweep recorded cell spans"
    );
    assert!(
        sequential.contains("\"cat\": \"chunk\""),
        "chunk spans were requested"
    );
    assert!(
        !sequential.contains("queue_wait_us"),
        "logical traces carry no wall-clock args"
    );
    assert_eq!(
        sequential, parallel,
        "logical Chrome trace must be byte-identical under --jobs 4"
    );
}
