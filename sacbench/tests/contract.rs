//! `BENCHMARK.json` and the harness must describe the same benchmark:
//! workload names, metric names, units, directions and bounds.

use sacbench::json::Json;
use sacbench::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("{key} is a string in {v:?}"))
}

fn check_metrics(list: &str, defs: &[MetricDef]) {
    let b = benchmark();
    let entries = b.get(list).expect("metric list").items();
    assert_eq!(entries.len(), defs.len(), "{list}: one entry per metric");
    for (entry, def) in entries.iter().zip(defs) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Json::num),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn workloads_agree() {
    let b = benchmark();
    let entries = b.get("workloads").expect("workload list").items();
    let names: Vec<&str> = entries.iter().map(|w| text(w, "name")).collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    for (entry, w) in entries.iter().zip(WORKLOADS) {
        assert_eq!(text(entry, "why"), w.why, "{}", w.name);
    }
}

#[test]
fn end_to_end_metrics_agree() {
    check_metrics("end_to_end", &END_TO_END);
}

#[test]
fn per_layer_metrics_agree() {
    check_metrics("per_layer", &PER_LAYER);
}

#[test]
fn set_up_time_has_the_largest_bound() {
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for m in END_TO_END {
        assert!(m.bound <= setup.bound, "{}", m.name);
        assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
    }
}

#[test]
fn the_command_runs_this_package() {
    let b = benchmark();
    let paths: Vec<&str> = b
        .get("paths")
        .expect("paths")
        .items()
        .iter()
        .filter_map(Json::str)
        .collect();
    assert_eq!(paths, ["sacbench"]);
    let command: Vec<&str> = b
        .get("command")
        .expect("command")
        .items()
        .iter()
        .filter_map(Json::str)
        .collect();
    assert!(command
        .windows(2)
        .any(|w| w == ["--manifest-path", "sacbench/Cargo.toml"]));
    assert_eq!(command.last(), Some(&"run"));
}
