//! The figure registry's selection rules, and shape checks for every
//! figure it lists: right benchmarks in the rows, right configurations in
//! the columns, finite values. The expensive full-matrix test is
//! `#[ignore]`d so `cargo test` stays fast; `cargo test -- --ignored`
//! runs it, as CI's release-mode step does.

use sac_experiments::figures::{self, Cell, Group, Input};
use sac_experiments::runner::{self, Run, Spans};
use sac_experiments::{Suite, Table};
use std::collections::HashMap;

const BENCHES: [&str; 9] = [
    "MDG", "BDN", "DYF", "TRF", "NAS", "Slalom", "LIV", "MV", "SpMV",
];

fn assert_suite_rows(t: &Table) {
    let rows: Vec<&str> = t.rows().iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(rows, BENCHES, "{}", t.title());
    for (label, values) in t.rows() {
        for v in values {
            assert!(v.is_finite(), "{}: {label} has non-finite value", t.title());
        }
    }
}

#[test]
fn fig04b_has_the_nine_gap_buckets() {
    let t = figures::fig04b();
    assert_eq!(t.rows().len(), 9);
    assert_eq!(t.columns(), ["fraction"]);
}

#[test]
fn fig11_tables_have_sweep_rows() {
    let a = figures::fig11a(true);
    assert!(a.rows().len() >= 6);
    assert_eq!(a.columns(), ["Stand.", "Soft."]);
    let b = figures::fig11b(true);
    assert_eq!(b.rows().len(), 11, "leading dimensions 116..=126");
    assert_eq!(b.columns().len(), 4);
}

/// The workload rows of the coherence sweeps.
const COHERENCE_ROWS: [&str; 4] = ["mixed", "hit_heavy", "prod_cons", "false_share"];

/// The rows a figure must have.
enum Rows {
    /// The nine suite benchmarks.
    Suite,
    /// The nine suite benchmarks, then the geometric-mean row.
    SuiteAndGeomean,
    /// Exactly these labels.
    Labels(&'static [&'static str]),
    /// This many rows.
    Count(usize),
}

/// The expected column count and rows of every registry id; `None` for
/// an id this test does not know yet.
fn expected_shape(id: &str) -> Option<(usize, Rows)> {
    Some(match id {
        "summary" => (9, Rows::SuiteAndGeomean),
        "fig01a" => (5, Rows::Suite),
        "fig01b" => (6, Rows::Suite),
        "fig03a" => (4, Rows::Suite),
        "fig03b" => (3, Rows::Suite),
        "fig04a" => (4, Rows::Suite),
        "fig04b" => (1, Rows::Count(9)),
        "fig06a" => (4, Rows::Suite),
        "fig06b" => (2, Rows::Suite),
        "fig07a" => (4, Rows::Suite),
        "fig07b" => (4, Rows::Suite),
        "fig08a" => (4, Rows::Suite),
        "fig08b" => (5, Rows::Suite),
        "fig09a" => (4, Rows::Suite),
        "fig09b" => (4, Rows::Suite),
        "fig10a" => (
            4,
            Rows::Labels(&["ADM", "MDG", "BDN", "DYF", "ARC", "FLO", "TRF"]),
        ),
        "fig10b" => (6, Rows::Suite),
        "fig11a" => (2, Rows::Count(7)),
        "fig11b" => (4, Rows::Count(11)),
        "fig12" => (4, Rows::Suite),
        "ext-var-vlines" => (3, Rows::Suite),
        "ext-pf-distance" => (4, Rows::Labels(&["lat=20", "lat=25", "lat=30", "lat=40"])),
        "ext-related" => (5, Rows::Suite),
        "ext-related-traffic" => (5, Rows::Suite),
        "ext-miss-classes" => (5, Rows::Suite),
        "ext-context-switch" => (4, Rows::Labels(&["Stand.", "Soft."])),
        "ext-copy-vline" => (2, Rows::Count(11)),
        "abl-bb-size" => (5, Rows::Suite),
        "abl-bb-ways" => (4, Rows::Suite),
        "abl-bb-policy" => (3, Rows::Suite),
        "abl-phys16" => (2, Rows::Suite),
        "abl-assoc" => (4, Rows::Suite),
        "abl-bus" => (6, Rows::Suite),
        "coh-mesi" | "coh-dragon" => (7, Rows::Labels(&COHERENCE_ROWS)),
        _ => return None,
    })
}

/// Builds `fig` and checks its table against [`expected_shape`].
fn assert_expected_shape(fig: &figures::Figure, suite: Option<&Suite>) {
    let (cols, rows) = expected_shape(fig.id)
        .unwrap_or_else(|| panic!("{}: no expected shape for this registry id", fig.id));
    let t = fig.build(suite, true);
    assert_eq!(t.columns().len(), cols, "{}: {}", fig.id, t.title());
    let labels: Vec<&str> = t.rows().iter().map(|(l, _)| l.as_str()).collect();
    match rows {
        Rows::Suite => assert_suite_rows(&t),
        Rows::SuiteAndGeomean => {
            assert_eq!(labels[..9], BENCHES, "{}", fig.id);
            assert_eq!(labels[9..], ["geomean"], "{}", fig.id);
        }
        Rows::Labels(want) => assert_eq!(labels, want, "{}", fig.id),
        Rows::Count(n) => assert_eq!(labels.len(), n, "{}", fig.id),
    }
}

#[test]
#[ignore = "runs every figure on the small suite (~a minute in debug)"]
fn every_figure_has_the_expected_shape() {
    let suite = Suite::small();
    for fig in &figures::REGISTRY {
        assert_expected_shape(fig, Some(&suite));
    }
}

#[test]
fn coherence_group_tables_have_the_expected_shape() {
    // The sweeps build their own traces, so they need no suite.
    for fig in figures::select(&["coherence"]).unwrap() {
        assert!(!fig.needs_suite(), "{}", fig.id);
        assert_expected_shape(fig, None);
    }
}

/// Every registry figure lists its cells at small scale without running
/// any, and a label names one simulation: two cells with the same label
/// have the same input and the same work, and two program inputs with the
/// same generation label the same program and options. Extension,
/// ablation and coherence labels start with their registry id.
#[test]
fn one_label_names_one_simulation() {
    let run = Run::new(1, Spans::Off);
    runner::install(run.clone());
    let mut cells: HashMap<String, Cell> = HashMap::new();
    let mut programs: HashMap<String, Input> = HashMap::new();
    for fig in &figures::REGISTRY {
        let plan = fig.plan(&BENCHES, true);
        for cell in plan.rows().iter().flatten() {
            if matches!(
                fig.group,
                Group::Extension | Group::Ablation | Group::Coherence
            ) {
                let prefix = format!("{}/", fig.id);
                assert!(cell.label.starts_with(&prefix), "{}", cell.label);
            }
            if let Input::Program { label, .. } = &cell.input {
                let first = programs.entry(label.clone()).or_insert(cell.input.clone());
                assert_eq!(*first, cell.input, "{label} names two traces");
            }
            let first = cells.entry(cell.label.clone()).or_insert(cell.clone());
            assert_eq!(
                (&first.input, &first.work),
                (&cell.input, &cell.work),
                "{} names two simulations",
                cell.label
            );
        }
    }
    assert!(cells.len() > 1_000, "{} cells", cells.len());
    assert_eq!(run.cells_done(), 0, "listing ran a cell");
}

#[test]
fn registry_ids_are_unique_and_groups_have_their_sizes() {
    let mut ids: Vec<&str> = figures::REGISTRY.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), figures::REGISTRY.len());
    let count = |g| figures::REGISTRY.iter().filter(|f| f.group == g).count();
    assert_eq!(
        [
            Group::Summary,
            Group::Paper,
            Group::Extension,
            Group::Ablation,
            Group::Coherence
        ]
        .map(count),
        [1, 19, 7, 6, 2]
    );
}

#[test]
fn select_expands_groups_in_place_and_rejects_unknown_names() {
    let ids = |names: &[&str]| -> Vec<&str> {
        figures::select(names)
            .unwrap()
            .iter()
            .map(|f| f.id)
            .collect()
    };
    let paper = ids(&["all"]);
    assert_eq!(paper.len(), 19);
    assert_eq!(ids(&[]), paper);
    let mixed = ids(&["fig06a", "ablations", "summary"]);
    assert_eq!(mixed.len(), 8);
    assert_eq!(mixed[0], "fig06a");
    assert_eq!(mixed[7], "summary");
    assert_eq!(ids(&["all", "ablations"]).len(), 25);
    assert_eq!(ids(&["coherence"]), ["coh-mesi", "coh-dragon"]);
    let err = figures::select(&["fig04b", "fig99"]).err().unwrap();
    assert!(err.contains("\"fig99\""), "{err}");
    assert!(err.contains("summary fig01a"), "{err}");
    assert!(
        err.contains("groups: all extensions ablations coherence"),
        "{err}"
    );
}
