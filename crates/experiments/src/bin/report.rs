//! Emits the full results section of EXPERIMENTS.md: every figure of the
//! paper regenerated at paper scale, as markdown tables.
//!
//! ```text
//! cargo run --release -p sac-experiments --bin report > results.md
//! cargo run --release -p sac-experiments --bin report -- --csv out/   # + CSV per table
//! cargo run --release -p sac-experiments --bin report -- --jobs 4
//! cargo run --release -p sac-experiments --bin report -- --sequential
//! ```
//!
//! Sweep cells are sharded across a worker pool (`--jobs N` pins the
//! count, `--sequential` is `--jobs 1`, default all cores); the tables
//! are bit-identical either way. A run summary goes to stderr.

use sac_experiments::{cli, figures, runner, Suite};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut small = false;
    let mut csv_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => small = true,
            "--sequential" => runner::set_jobs(1),
            "--jobs" => match cli::positive("--jobs", args.next()) {
                Ok(n) => runner::set_jobs(n),
                Err(e) => die(&e),
            },
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => die("--csv needs a directory path"),
            },
            _ => die(&format!("unknown option {a}")),
        }
    }
    // Create the CSV directory before the sweep, so an unwritable path
    // fails in milliseconds rather than after the whole report.
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("--csv: cannot create {}: {e}", dir.display()));
        }
    }

    runner::reset_stats();
    let start = Instant::now();

    eprintln!(
        "generating benchmark traces on {} worker(s)...",
        runner::jobs()
    );
    let suite = if small {
        Suite::small()
    } else {
        Suite::paper()
    };
    eprintln!("suite: {} references total", suite.total_refs());

    let tables = [
        figures::summary(&suite),
        figures::fig01a(&suite),
        figures::fig01b(&suite),
        figures::fig03a(&suite),
        figures::fig03b(&suite),
        figures::fig04a(&suite),
        figures::fig04b(),
        figures::fig06a(&suite),
        figures::fig06b(&suite),
        figures::fig07a(&suite),
        figures::fig07b(&suite),
        figures::fig08a(&suite),
        figures::fig08b(&suite),
        figures::fig09a(&suite),
        figures::fig09b(&suite),
        figures::fig10a(),
        figures::fig10b(&suite),
        figures::fig11a(small),
        figures::fig11b(small),
        figures::fig12(&suite),
        figures::ext_variable_vlines(&if small {
            Suite::small_leveled()
        } else {
            Suite::paper_leveled()
        }),
        figures::ext_prefetch_distance(&suite),
        figures::ext_related_designs(&suite),
        figures::ext_related_traffic(&suite),
        figures::ext_miss_classes(&suite),
        figures::ext_context_switch(&suite),
        figures::ext_copy_vline(small),
        figures::ablation_bb_size(&suite),
        figures::ablation_bb_ways(&suite),
        figures::ablation_bb_policy(&suite),
        figures::ablation_physical_16(&suite),
        figures::ablation_associativity(&suite),
        figures::ablation_bus_width(&suite),
    ];
    for t in &tables {
        println!("{}", t.to_markdown());
        if let Some(dir) = &csv_dir {
            let slug: String = t
                .title()
                .chars()
                .take_while(|c| *c != '—')
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            let path = dir.join(format!("{slug}.csv"));
            std::fs::write(&path, t.to_csv()).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }

    eprint!("{}", runner::summary(start.elapsed()));
}

/// Exits with status 2 after printing a usage error.
fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
