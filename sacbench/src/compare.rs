//! `sacbench compare`: the regression verdict between result sets.
//!
//! Files alternate sides: the first, third, ... are the parent's runs
//! and the second, fourth, ... the change's. Each (workload, end-to-end
//! metric) gets one row with each side's median and quartiles and a
//! verdict under the bound `BENCHMARK.json` fixes for the metric.

use crate::harness::RunResult;
use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::Better;
use std::collections::BTreeMap;

/// An end-to-end metric's regression rule, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which direction is better.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message when the document lacks a well-formed
/// `end_to_end` list.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .str()
                    .ok_or("name is not a string")?
                    .to_string(),
                unit: field("unit")?
                    .str()
                    .ok_or("unit is not a string")?
                    .to_string(),
                better: match field("better")?.str() {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    _ => return Err("better is neither lower nor higher".to_string()),
                },
                bound: field("bound")?.num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One measurement of a metric in a result file: its value and, when the
/// run sampled it, its quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// The run's own quartiles of the samples behind it.
    pub quartiles: Option<(f64, f64)>,
}

/// Per workload: failure counts and metric readings of one result file.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// workload -> (attempted, failed).
    pub checks: BTreeMap<String, (u64, u64)>,
    /// (workload, metric) -> reading.
    pub readings: BTreeMap<(String, String), Reading>,
}

impl ResultSet {
    /// Indexes the results of one file.
    pub fn of(results: &[RunResult]) -> ResultSet {
        let mut set = ResultSet::default();
        for r in results {
            set.checks
                .insert(r.workload.clone(), (r.attempted, r.failed));
            for m in &r.metrics {
                set.readings.insert(
                    (r.workload.clone(), m.name.clone()),
                    Reading {
                        value: m.value,
                        quartiles: m.spread.map(|(q1, q3, _)| (q1, q3)),
                    },
                );
            }
        }
        set
    }
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is within the bound of the parent's.
    Ok,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the bound can
    /// neither be shown kept nor broken.
    Unresolved,
}

/// One side's summary of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
}

impl Side {
    /// Summarizes one side's readings: across runs when there are
    /// several, from the run's own samples when there is one.
    pub fn of(readings: &[Reading]) -> Side {
        let values: Vec<f64> = readings.iter().map(|r| r.value).collect();
        let (q1, q3) = match readings {
            [only] => only.quartiles.unwrap_or((only.value, only.value)),
            _ => quartiles(&values),
        };
        Side {
            median: median(&values),
            q1: q1.min(q3),
            q3: q1.max(q3),
        }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Whether `b` reads better than `a` under `better`.
fn improves(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => b < a,
        Better::Higher => b > a,
    }
}

/// The verdict for one metric: worse when the change's median misses
/// the bound; unresolved when either side's spread is wider than the
/// bound, unless every change run reads better than every parent run.
pub fn verdict(rule: &Bound, parent: &[Reading], change: &[Reading]) -> Verdict {
    let (a, b) = (Side::of(parent), Side::of(change));
    let all_better = parent.iter().all(|p| {
        change
            .iter()
            .all(|c| improves(rule.better, p.value, c.value))
    });
    if all_better {
        return Verdict::Ok;
    }
    if a.spread() > rule.bound || b.spread() > rule.bound {
        return Verdict::Unresolved;
    }
    let limit = match rule.better {
        Better::Lower => a.median * (1.0 + rule.bound),
        Better::Higher => a.median * (1.0 - rule.bound),
    };
    if improves(rule.better, b.median, limit) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The 9-in-10 rule for claiming a gain from paired runs: the change
/// must win at least nine tenths of the pairs (ties count for neither)
/// and its median must beat the parent's by more than the parent's own
/// quartile spread. `None` with fewer than ten pairs.
pub fn gain(rule: &Bound, parent: &[Reading], change: &[Reading]) -> Option<(usize, usize, bool)> {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return None;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| improves(rule.better, p.value, c.value))
        .count();
    let (a, b) = (Side::of(parent), Side::of(change));
    let claimed = wins * 10 >= pairs * 9
        && improves(rule.better, a.median, b.median)
        && (b.median - a.median).abs() > a.q3 - a.q1;
    Some((wins, pairs, claimed))
}

/// A value for the report: six decimals, or none for large values
/// (rates), so that columns stay aligned.
fn show(x: f64) -> String {
    if x.abs() >= 1e4 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

/// Compares alternating parent/change result files under `rules` and
/// renders one row per (workload, metric) plus a failure row per
/// workload. Returns the report and whether any row is worse.
pub fn compare(rules: &[Bound], sets: &[ResultSet]) -> (String, bool) {
    let parent: Vec<&ResultSet> = sets.iter().step_by(2).collect();
    let change: Vec<&ResultSet> = sets.iter().skip(1).step_by(2).collect();
    let workloads: Vec<&String> = parent[0].checks.keys().collect();
    let mut out = format!(
        "{:<12} {:<18} {:>14} {:>25} {:>14} {:>25}  verdict\n",
        "workload", "metric", "parent", "(q1 .. q3)", "change", "(q1 .. q3)"
    );
    let mut any_worse = false;
    for wl in workloads {
        for rule in rules {
            let key = (wl.clone(), rule.name.clone());
            let a: Vec<Reading> = parent
                .iter()
                .filter_map(|s| s.readings.get(&key))
                .copied()
                .collect();
            let b: Vec<Reading> = change
                .iter()
                .filter_map(|s| s.readings.get(&key))
                .copied()
                .collect();
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let v = verdict(rule, &a, &b);
            any_worse |= v == Verdict::Worse;
            let (sa, sb) = (Side::of(&a), Side::of(&b));
            out.push_str(&format!(
                "{wl:<12} {:<18} {:>14} {:>25} {:>14} {:>25}  {}",
                rule.name,
                show(sa.median),
                format!("({} .. {})", show(sa.q1), show(sa.q3)),
                show(sb.median),
                format!("({} .. {})", show(sb.q1), show(sb.q3)),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            ));
            if let Some((wins, pairs, claimed)) = gain(rule, &a, &b) {
                out.push_str(&format!(
                    "  change won {wins}/{pairs} pairs: {}",
                    if claimed { "gain" } else { "no gain" }
                ));
            }
            out.push('\n');
        }
        let failed_frac = |sides: &[&ResultSet]| {
            let (att, fail) = sides
                .iter()
                .filter_map(|s| s.checks.get(wl))
                .fold((0, 0), |(a, f), (x, y)| (a + x, f + y));
            fail as f64 / att.max(1) as f64
        };
        let (fa, fb) = (failed_frac(&parent), failed_frac(&change));
        let worse = fb > fa;
        any_worse |= worse;
        out.push_str(&format!(
            "{wl:<12} {:<18} {:>14} {:>25} {:>14} {:>25}  {}\n",
            "failed_frac",
            show(fa),
            "",
            show(fb),
            "",
            if worse { "worse" } else { "ok" }
        ));
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(better: Better) -> Bound {
        Bound {
            name: "wall_s".into(),
            unit: "s".into(),
            better,
            bound: 0.1,
        }
    }

    fn runs(values: &[f64]) -> Vec<Reading> {
        values
            .iter()
            .map(|&value| Reading {
                value,
                quartiles: None,
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = rule(Better::Lower);
        let parent = runs(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        assert_eq!(
            verdict(&lower, &parent, &runs(&[1.05, 1.04, 1.06, 1.05, 1.05])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&lower, &parent, &runs(&[1.20, 1.21, 1.19, 1.20, 1.22])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &parent, &runs(&[0.6, 1.6, 0.7, 1.5, 1.2])),
            Verdict::Unresolved
        );
        // A wide spread still resolves when every change run is better.
        assert_eq!(
            verdict(&lower, &parent, &runs(&[0.5, 0.9, 0.6, 0.8, 0.7])),
            Verdict::Ok
        );
        let higher = rule(Better::Higher);
        assert_eq!(
            verdict(&higher, &parent, &runs(&[0.8, 0.81, 0.79, 0.8, 0.8])),
            Verdict::Worse
        );
    }

    #[test]
    fn a_single_run_uses_its_own_quartiles() {
        let one = [Reading {
            value: 1.0,
            quartiles: Some((0.5, 1.5)),
        }];
        assert_eq!(
            verdict(&rule(Better::Lower), &one, &one),
            Verdict::Unresolved
        );
    }

    #[test]
    fn gains_need_nine_wins_in_ten_pairs() {
        let lower = rule(Better::Lower);
        let parent = runs(&[1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 1.01, 0.99, 1.0, 1.0]);
        let faster = runs(&[0.9, 0.91, 0.9, 0.89, 0.9, 0.9, 0.92, 0.9, 0.9, 1.05]);
        assert_eq!(gain(&lower, &parent, &faster), Some((9, 10, true)));
        let mixed = runs(&[0.9, 0.91, 0.9, 0.89, 0.9, 0.9, 0.92, 1.1, 0.9, 1.05]);
        assert_eq!(gain(&lower, &parent, &mixed), Some((8, 10, false)));
        assert_eq!(gain(&lower, &parent[..5], &faster[..5]), None);
    }

    #[test]
    fn reads_benchmark_bounds_and_result_files() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&bench).unwrap(), vec![rule(Better::Lower)]);
        let file = Json::parse(
            r#"{"results": [{"workload": "w", "seed": 1, "correct": true, "attempted": 4,
                "failed": 0, "metrics": {"wall_s": {"value": 2.0, "unit": "s", "p25": 1.5,
                "p75": 2.5, "samples": 3}}}]}"#,
        )
        .unwrap();
        let set = ResultSet::of(&crate::harness::read_results(&file).unwrap());
        assert_eq!(
            set.readings[&("w".to_string(), "wall_s".to_string())],
            Reading {
                value: 2.0,
                quartiles: Some((1.5, 2.5))
            }
        );
        let (report, worse) = compare(&bounds(&bench).unwrap(), &[set.clone(), set]);
        assert!(!worse, "{report}");
        assert!(report.contains("failed_frac"), "{report}");
    }
}
