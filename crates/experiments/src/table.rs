//! Result tables: the textual equivalent of the paper's bar charts.

use std::fmt;

/// A named table of `f64` series — one row per benchmark (or sweep
/// point), one column per configuration (or band).
///
/// ```
/// use sac_experiments::Table;
///
/// let mut t = Table::new("demo", &["A", "B"]);
/// t.push_row("bench1", vec![1.0, 2.0]);
/// assert_eq!(t.get("bench1", "B"), Some(2.0));
/// assert!(t.to_string().contains("bench1"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push((label.into(), values));
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column labels.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    /// Looks up a cell by row and column label.
    pub fn get(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let r = self.rows.iter().find(|(label, _)| label == row)?;
        r.1.get(c).copied()
    }

    /// Renders as CSV (header row, then one line per row) for plotting
    /// tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.replace(',', ";"));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&label.replace(',', ";"));
            for v in values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Appends a geometric-mean row over all current rows (useful as a
    /// whole-suite summary for AMAT-style tables; requires positive
    /// values).
    pub fn push_geomean_row(&mut self, label: impl Into<String>) {
        if self.rows.is_empty() {
            return;
        }
        let n = self.rows.len() as f64;
        let means: Vec<f64> = (0..self.columns.len())
            .map(|c| {
                let log_sum: f64 = self
                    .rows
                    .iter()
                    .map(|(_, v)| v[c].max(f64::MIN_POSITIVE).ln())
                    .sum();
                (log_sum / n).exp()
            })
            .collect();
        self.rows.push((label.into(), means));
    }

    /// Renders as a GitHub-flavoured markdown table (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str("| |");
        for c in &self.columns {
            out.push_str(&format!(" {c} |"));
        }
        out.push_str("\n|---|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("| {label} |"));
            for v in values {
                out.push_str(&format!(" {} |", fmt_val(*v)));
            }
            out.push('\n');
        }
        out
    }
}

fn fmt_val(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([9])
            .max()
            .unwrap_or(9);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len().max(9))
            .collect::<Vec<_>>();
        write!(f, "{:label_w$}", "")?;
        for (c, w) in self.columns.iter().zip(&col_w) {
            write!(f, "  {c:>w$}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:label_w$}")?;
            for (v, w) in values.iter().zip(&col_w) {
                write!(f, "  {:>w$}", fmt_val(*v))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Figure X — test", &["Stand.", "Soft."]);
        t.push_row("MV", vec![3.5, 1.75]);
        t.push_row("SpMV", vec![2.0, 1.5]);
        t
    }

    #[test]
    fn lookup_by_labels() {
        let t = sample();
        assert_eq!(t.get("MV", "Soft."), Some(1.75));
        assert_eq!(t.get("MV", "nope"), None);
        assert_eq!(t.get("nope", "Soft."), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("t", &["a"]);
        t.push_row("r", vec![1.0, 2.0]);
    }

    #[test]
    fn display_aligns_columns() {
        let text = sample().to_string();
        assert!(text.contains("Figure X"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn csv_escapes_commas_and_lists_rows() {
        let mut t = Table::new("t", &["a,b"]);
        t.push_row("r,1", vec![2.5]);
        let csv = t.to_csv();
        assert!(csv.starts_with("label,a;b\n"));
        assert!(csv.contains("r;1,2.5"));
    }

    #[test]
    fn geomean_row_is_appended() {
        let mut t = sample();
        t.push_geomean_row("geomean");
        let g = t.get("geomean", "Stand.").unwrap();
        assert!((g - (3.5f64 * 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn markdown_has_header_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("|---|"));
        assert!(md.contains("| MV |"));
    }
}
