//! The paper's claims at paper scale, and EXPERIMENTS.md's tables,
//! checked against the committed paper-scale golden
//! (`tests/data/figures_paper_golden.txt`, the output of `figures --jobs 1
//! all`) without simulating anything. CI pins the golden to the engine,
//! so these checks follow every re-recording of it.

const GOLDEN: &str = include_str!("data/figures_paper_golden.txt");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// One figure table: its title, column labels and rows of a label and
/// its cells, each cell kept exactly as printed.
#[derive(Debug, PartialEq)]
struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// The cell at `row` × `column` as a number.
    fn get(&self, row: &str, column: &str) -> f64 {
        let c = self
            .columns
            .iter()
            .position(|x| x == column)
            .unwrap_or_else(|| panic!("{}: no column {column}", self.title));
        let (_, cells) = self
            .rows
            .iter()
            .find(|(label, _)| label == row)
            .unwrap_or_else(|| panic!("{}: no row {row}", self.title));
        cells[c].parse().expect("cells are numbers")
    }

    /// A row's cells as numbers.
    fn row(&self, row: &str) -> Vec<f64> {
        (0..self.columns.len())
            .map(|c| self.get(row, &self.columns[c]))
            .collect()
    }

    fn labels(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(label, _)| label.as_str())
    }
}

/// Parses the text tables of `figures` output. A table is a title line, a
/// header line and rows separated from the next table by a blank line.
/// Each row is a label followed by N numbers, N being the table's column
/// count; the header's columns are separated by at least two spaces.
fn parse_golden(text: &str) -> Vec<Table> {
    text.split("\n\n")
        .filter(|block| !block.trim().is_empty())
        .map(|block| {
            let mut lines = block.lines();
            let title = lines.next().expect("title line").to_string();
            let columns: Vec<String> = lines
                .next()
                .expect("header line")
                .split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .map(str::to_string)
                .collect();
            let n = columns.len();
            let rows = lines
                .map(|line| {
                    let tokens: Vec<&str> = line.split_whitespace().collect();
                    assert!(tokens.len() > n, "{title}: short row {line:?}");
                    let (label, cells) = tokens.split_at(tokens.len() - n);
                    for cell in cells {
                        assert!(cell.parse::<f64>().is_ok(), "{title}: {line:?}");
                    }
                    let cells = cells.iter().map(|c| c.to_string()).collect();
                    (label.join(" "), cells)
                })
                .collect();
            Table {
                title,
                columns,
                rows,
            }
        })
        .collect()
}

/// Splits a markdown table line `| a | b |` into its trimmed cells.
fn md_cells(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(|c| c.trim().to_string()).collect()
}

/// Parses the markdown tables of a document: a `**title**` line, a blank
/// line, then `| |` header, `|---|` separator and `| label | ... |` rows.
fn parse_markdown(text: &str) -> Vec<Table> {
    let lines: Vec<&str> = text.lines().collect();
    let mut tables = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(title) = line.strip_prefix("**").and_then(|l| l.strip_suffix("**")) else {
            continue;
        };
        if !lines.get(i + 2).is_some_and(|l| l.starts_with("| |")) {
            continue;
        }
        let columns = md_cells(lines[i + 2])[1..].to_vec();
        let rows = lines[i + 4..]
            .iter()
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let mut cells = md_cells(l);
                let label = cells.remove(0);
                (label, cells)
            })
            .collect();
        tables.push(Table {
            title: title.to_string(),
            columns,
            rows,
        });
    }
    tables
}

/// The golden table whose title starts with `prefix` followed by " —".
fn figure<'a>(tables: &'a [Table], prefix: &str) -> &'a Table {
    tables
        .iter()
        .find(|t| t.title.starts_with(&format!("{prefix} —")))
        .unwrap_or_else(|| panic!("no table {prefix}"))
}

/// The shapes of `tests/paper_claims.rs`, which runs them on the small
/// suite, hold at paper scale too; so do the three deviations
/// EXPERIMENTS.md documents.
#[test]
fn paper_claims_and_documented_deviations_hold_at_paper_scale() {
    let golden = parse_golden(GOLDEN);
    let fig = |prefix| figure(&golden, prefix);

    // §3.2: soft never loses to standard, and both mechanisms combined
    // are best (within 10 %).
    let f6a = fig("Figure 6a");
    for name in f6a.labels() {
        let stand = f6a.get(name, "Stand.");
        let soft = f6a.get(name, "Soft.");
        assert!(soft <= stand * 1.02, "6a {name}: {soft} vs {stand}");
        let temp = f6a.get(name, "Temp.only");
        let spat = f6a.get(name, "Spat.only");
        assert!(soft <= temp.min(spat) * 1.10, "6a {name}");
    }
    // §4.1: the directive on SpMV's X unlocks its locality.
    assert!(f6a.get("SpMV", "Soft.") < f6a.get("SpMV", "Stand."));
    assert!(f6a.get("SpMV", "Temp.only") < f6a.get("SpMV", "Stand."));

    // Figure 3a: plain bypassing is poor.
    let f3a = fig("Figure 3a");
    let mut worse_than_standard = 0;
    for name in f3a.labels() {
        let bypass = f3a.get(name, "Bypass");
        assert!(f3a.get(name, "Soft.") < bypass, "3a {name}");
        if bypass > f3a.get(name, "Standard") {
            worse_than_standard += 1;
        }
    }
    assert!(worse_than_standard >= 5, "bypassing should usually lose");

    // Figure 3b: victim caches cannot remove MV's pollution.
    let f3b = fig("Figure 3b");
    assert!(f3b.get("MV", "Soft.") < f3b.get("MV", "Stand.+Victim") * 0.9);

    // Figure 7a: traffic is not significantly increased.
    let f7a = fig("Figure 7a");
    for name in f7a.labels() {
        assert!(
            f7a.get(name, "Soft.") <= f7a.get(name, "Stand.") * 1.30,
            "7a {name}"
        );
    }

    // Figure 8b: a 64 B virtual line beats 64 B and larger physical lines
    // on MV.
    let f8b = fig("Figure 8b");
    for ls in ["Stand.64B", "Stand.128B", "Stand.256B"] {
        assert!(f8b.get("MV", "Soft.") < f8b.get("MV", ls), "8b MV {ls}");
    }

    // Figure 9a: larger caches still benefit.
    let f9a = fig("Figure 9a");
    for name in f9a.labels() {
        for v in f9a.row(name) {
            assert!(v >= -1.0, "9a {name}: {v}");
        }
    }

    // Figure 9b: soft 2-way never loses to 2-way, and the simplified
    // scheme is usually close to it.
    let f9b = fig("Figure 9b");
    let mut close = 0;
    for name in f9b.labels() {
        let soft = f9b.get(name, "Soft.2-way");
        assert!(soft <= f9b.get(name, "2-way") * 1.02, "9b {name}");
        if f9b.get(name, "Simpl.soft") <= soft * 1.25 {
            close += 1;
        }
    }
    assert!(close >= 6, "simplified scheme should usually be close");

    // Figure 10b: the advantage grows with latency and is small at 5
    // cycles.
    let f10b = fig("Figure 10b");
    for name in f10b.labels() {
        let row = f10b.row(name);
        for pair in row.windows(2) {
            assert!(pair[1] >= pair[0] - 0.05, "10b {name}: {row:?}");
        }
        let (first, last) = (row[0], row[row.len() - 1]);
        assert!(last > first, "10b {name}");
        assert!(first <= last * 0.5 + 0.05, "10b {name}: {row:?}");
    }

    // Figure 11a: the standard cache degrades at large blocks, the soft
    // cache does not.
    let f11a = fig("Figure 11a");
    let largest = f11a.labels().last().expect("block rows");
    assert!(f11a.get(largest, "Stand.") > f11a.get("B=20", "Stand."));
    assert!(f11a.get(largest, "Soft.") <= f11a.get("B=20", "Soft.") * 1.05);

    // Figure 12: prefetch never hurts soft, and soft prefetch usually
    // beats hardware prefetch.
    let f12 = fig("Figure 12");
    let mut soft_pf_wins = 0;
    for name in f12.labels() {
        let soft_pf = f12.get(name, "Soft.+Pf");
        assert!(soft_pf <= f12.get(name, "Soft.") * 1.02, "12 {name}");
        if soft_pf <= f12.get(name, "Stand.+Pf") {
            soft_pf_wins += 1;
        }
    }
    assert!(
        soft_pf_wins >= 6,
        "software-assisted prefetch should usually win"
    );

    // Deviation 1: on LIV the combined mechanism trails spat-only.
    assert!(f6a.get("LIV", "Soft.") > f6a.get("LIV", "Spat.only"));
    // Deviation 2: a 128 B virtual line hurts DYF.
    let f8a = fig("Figure 8a");
    assert!(f8a.get("DYF", "vline=128B") > f8a.get("DYF", "vline=64B"));
    // Deviation 3: large physical lines beat the 64 B virtual line exactly
    // on NAS and LIV.
    let physical_wins: Vec<&str> = f8b
        .labels()
        .filter(|&name| {
            let soft = f8b.get(name, "Soft.");
            ["Stand.32B", "Stand.64B", "Stand.128B", "Stand.256B"]
                .iter()
                .any(|ls| f8b.get(name, ls) < soft)
        })
        .collect();
    assert_eq!(physical_wins, ["NAS", "LIV"]);
}

/// EXPERIMENTS.md shows the 19 paper figures exactly as `figures all`
/// prints them: same titles, columns, rows and cells.
#[test]
fn experiments_md_paper_tables_equal_the_golden() {
    let doc = parse_markdown(EXPERIMENTS);
    let golden = parse_golden(GOLDEN);
    assert_eq!(golden.len(), 19);
    for want in golden {
        let got = doc
            .iter()
            .find(|t| t.title == want.title)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no table {:?}", want.title));
        assert_eq!(got.columns, want.columns, "{}", want.title);
        for (g, w) in got.rows.iter().zip(&want.rows) {
            assert_eq!(g, w, "{}", want.title);
        }
        assert_eq!(got.rows.len(), want.rows.len(), "{}", want.title);
    }
}

/// Every decimal number in EXPERIMENTS.md's prose is a cell of a table in
/// the same section (the text between two `---` rules), so regenerating
/// the tables cannot leave a stale number behind.
#[test]
fn experiments_md_prose_numbers_are_cells_of_their_section() {
    for section in EXPERIMENTS.split("\n---\n") {
        let cells: Vec<String> = parse_markdown(section)
            .into_iter()
            .flat_map(|t| t.rows.into_iter().flat_map(|(_, cells)| cells))
            .collect();
        for line in section.lines().filter(|l| !l.starts_with('|')) {
            for number in decimals(line) {
                assert!(
                    cells.contains(&number),
                    "EXPERIMENTS.md quotes {number} in {line:?}, which no table of its section holds"
                );
            }
        }
    }
}

/// The decimal numbers (digits, a point, digits) in `line`, outside
/// backquoted code and section numbers.
fn decimals(line: &str) -> Vec<String> {
    let prose: String = line.split('`').step_by(2).collect::<Vec<_>>().join(" ");
    let mut out = Vec::new();
    let chars: Vec<char> = prose.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // A digit after a letter or `§` is part of a name or a section
        // number, not a quoted value.
        let after_word = i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '§');
        if chars[i].is_ascii_digit() && !after_word {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            let token: String = chars[start..i].iter().collect();
            let token = token.trim_end_matches('.');
            if token.contains('.') {
                out.push(token.to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}
