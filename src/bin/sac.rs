//! `sac` — command-line front end for the software-assisted cache
//! toolkit: generate benchmark traces, inspect them, pretty-print the
//! instrumented kernels, and run any cache configuration over a trace.
//!
//! ```text
//! sac list                                  # benchmarks & configurations
//! sac pseudo MV                             # annotated kernel listing
//! sac trace MV -o mv.sact                   # generate a binary trace
//! sac stats mv.sact                         # reuse/vector/tag statistics
//! sac simulate mv.sact -c soft -c standard  # run configurations
//! ```

use software_assisted_caches::experiments::Config;
use software_assisted_caches::loopir::{Program, TraceOptions};
use software_assisted_caches::obs::ProgressGauge;
use software_assisted_caches::trace::stats::{
    ReuseBand, ReuseHistogram, TagClass, TagFractions, VectorBand, VectorLengths,
};
use software_assisted_caches::trace::{self as trace_mod, io as trace_io, Trace};
use software_assisted_caches::workloads;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::process::ExitCode;

const BENCHMARKS: [&str; 9] = [
    "MDG", "BDN", "DYF", "TRF", "NAS", "Slalom", "LIV", "MV", "SpMV",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("pseudo") => cmd_pseudo(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'sac help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sac: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "sac — software-assisted data-cache toolkit (Temam & Drach, HPCA'95)

USAGE:
  sac list                         list benchmarks and cache configurations
  sac pseudo <benchmark> [--small] print the annotated kernel listing
  sac validate <benchmark>         static subscript-bounds check
  sac trace <benchmark> [options]  generate a tagged reference trace
      -o, --out <file>             output path (default: <benchmark>.sact)
      --format bin|sact2|text      trace format (default: bin)
      --seed <n>                   issue-gap seed (default: 0x5AC)
      --cpus <n>                   interleave n seeded per-CPU streams
                                   round-robin (cpu-tagged, default: 1)
      --small                      scaled-down problem size
      --levels                     attach variable-virtual-line levels
  sac stats <trace-file>           reuse/vector/tag statistics of a trace
  sac simulate <trace-file> [-c <config>]...
                                   run cache configurations over a trace
                                   (default: standard and soft)"
    );
}

fn find_program(name: &str, small: bool) -> Result<Program, String> {
    let set = if small {
        workloads::benchset_small()
    } else {
        workloads::benchset()
    };
    set.into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark '{name}' (valid: {BENCHMARKS:?})"))
}

fn cmd_list() -> Result<(), String> {
    println!("benchmarks:");
    for w in workloads::catalog() {
        println!("  {:<8} {} — {}", w.name, w.original, w.description);
    }
    println!("configurations:");
    for name in Config::CLI_NAMES.split(" | ") {
        let config = Config::by_name(name).expect("every CLI name resolves");
        println!("  {name:<14} {config}");
    }
    Ok(())
}

fn cmd_pseudo(args: &[String]) -> Result<(), String> {
    let small = args.iter().any(|a| a == "--small");
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("usage: sac pseudo <benchmark>")?;
    let p = find_program(name, small)?;
    print!("{}", p.to_pseudocode());
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let small = args.iter().any(|a| a == "--small");
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("usage: sac validate <benchmark>")?;
    let p = find_program(name, small)?;
    match p.validate() {
        software_assisted_caches::loopir::Verdict::Ok => {
            println!("{}: all subscripts provably in bounds", p.name());
            Ok(())
        }
        software_assisted_caches::loopir::Verdict::Unknown(reasons) => {
            println!(
                "{}: in bounds where statically decidable; {} data-dependent construct(s):",
                p.name(),
                reasons.len()
            );
            for r in reasons.iter().take(8) {
                println!("  - {r}");
            }
            Ok(())
        }
        software_assisted_caches::loopir::Verdict::OutOfBounds(violations) => {
            for v in &violations {
                eprintln!("  {v}");
            }
            Err(format!(
                "{}: {} provable violation(s)",
                p.name(),
                violations.len()
            ))
        }
    }
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut name = None;
    let mut out = None;
    let mut format = "bin".to_string();
    let mut seed = 0x5ACu64;
    let mut small = false;
    let mut levels = false;
    let mut cpus = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = Some(it.next().ok_or("missing value for --out")?.clone()),
            "--format" => format = it.next().ok_or("missing value for --format")?.clone(),
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("missing value for --seed")?
                    .parse()
                    .map_err(|_| "bad seed")?
            }
            "--cpus" => {
                cpus = it
                    .next()
                    .ok_or("missing value for --cpus")?
                    .parse()
                    .ok()
                    .filter(|&n| (1..=trace_mod::MAX_CPUS).contains(&n))
                    .ok_or_else(|| format!("--cpus takes 1..={}", trace_mod::MAX_CPUS))?
            }
            "--small" => small = true,
            "--levels" => levels = true,
            other if !other.starts_with('-') => name = Some(other.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let name = name.ok_or("usage: sac trace <benchmark> [options]")?;
    let program = find_program(&name, small)?;
    // Validate the output path before tracing (shared helper; same
    // policy as `sact-convert` and `figures --bench-json`): a typo'd
    // directory fails immediately, not after generating the trace.
    let path = out.unwrap_or_else(|| format!("{}.sact", program.name()));
    let mut w = BufWriter::new(trace_io::create_output(&path).map_err(|e| e.to_string())?);
    // `--cpus N` generates N independently seeded streams of the same
    // kernel (seeds seed, seed+1, ..., seed+N-1) and interleaves them
    // round-robin with per-access cpu tags — deterministic input for the
    // coherent multi-core system. `--cpus 1` is byte-identical to the
    // original single-stream path.
    let trace = if cpus == 1 {
        program
            .trace(&TraceOptions {
                seed,
                gaps: true,
                levels,
            })
            .map_err(|e| e.to_string())?
    } else {
        let streams = (0..cpus)
            .map(|i| {
                program
                    .trace(&TraceOptions {
                        seed: seed + i as u64,
                        gaps: true,
                        levels,
                    })
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        trace_mod::interleave_round_robin(program.name(), &streams)
    };
    match format.as_str() {
        "bin" => write_with_progress(&trace, &mut w, false).map_err(|e| e.to_string())?,
        "bin2" | "sact2" => write_with_progress(&trace, &mut w, true).map_err(|e| e.to_string())?,
        "text" => trace_io::write_text(&trace, &mut w).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format '{other}' (bin|sact2|text)")),
    }
    // Dropping the `BufWriter` would discard a failed final write.
    w.flush().map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {} references to {path}", trace.len());
    Ok(())
}

/// Traces at or above this many references report write progress (one
/// stderr line per 10%); shorter traces write in well under a second and
/// stay silent.
const TRACE_PROGRESS_MIN_REFS: usize = 4_000_000;

/// Streams `trace` through the binary encoder of the chosen format, one
/// [`trace_io::DEFAULT_CHUNK`] slice at a time — output is
/// byte-identical to `write_binary`/`write_binary2` — ticking an
/// entries-written progress gauge per chunk on large traces.
fn write_with_progress(trace: &Trace, w: &mut impl Write, sact2: bool) -> std::io::Result<()> {
    let mut progress =
        (trace.len() >= TRACE_PROGRESS_MIN_REFS).then(|| ProgressGauge::new(trace.len() as u64));
    let mut written = 0u64;
    let mut tick = |n: usize| {
        written += n as u64;
        if let Some(p) = &mut progress {
            if let Some(pct) = p.update(written) {
                eprintln!("sac trace: {pct}% of references written");
            }
        }
    };
    let chunks = trace.as_slice().chunks(trace_io::DEFAULT_CHUNK);
    if sact2 {
        let mut enc = trace_io::Sact2Writer::new(w, trace.name(), trace.len() as u64)?;
        for chunk in chunks {
            enc.push_chunk(chunk)?;
            tick(chunk.len());
        }
        enc.finish()?;
    } else {
        let mut enc = trace_io::SactWriter::new(w, trace.name(), trace.len() as u64)?;
        for chunk in chunks {
            enc.push_chunk(chunk)?;
            tick(chunk.len());
        }
        enc.finish()?;
    }
    Ok(())
}

/// Loads a trace from `path`, opened once: a binary trace when the magic
/// bytes name either wire format (header errors are reported as such),
/// the text format otherwise. The sniffed bytes are chained back in front
/// of the rest, so a pipe such as `/dev/stdin` reads like a file.
fn load_trace(path: &str) -> Result<Trace, String> {
    let fail = |e: trace_io::ReadError| format!("{path}: {e}");
    let mut file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut head = Vec::with_capacity(4);
    (&mut file)
        .take(4)
        .read_to_end(&mut head)
        .map_err(|e| format!("read {path}: {e}"))?;
    let input = head.as_slice().chain(file);
    if trace_io::sniff_format(&head).is_some() {
        return trace_io::read_any(input).map_err(fail);
    }
    trace_io::read_text(input).map_err(fail)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let mut path = None;
    for a in args {
        match a.as_str() {
            other if !other.starts_with('-') => path = Some(other),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let path = path.ok_or("usage: sac stats <trace-file>")?;
    let trace = load_trace(path)?;
    println!("{trace}");
    let footprint = trace.footprint_words();
    println!(
        "footprint: {footprint} words ({} KB); {:.1}% loads; issue time {} cycles",
        footprint * 8 / 1024,
        100.0 * trace.read_fraction(),
        trace.issue_cycles()
    );
    let tags = TagFractions::of(&trace);
    println!("\ntag classes:");
    for class in TagClass::ALL {
        println!("  {:<26} {:>7.4}", class.label(), tags.fraction(class));
    }
    let reuse = ReuseHistogram::of(&trace);
    println!("\nreuse distances (Figure 1a bands):");
    for band in ReuseBand::ALL {
        println!("  {:<26} {:>7.4}", band.label(), reuse.fraction(band));
    }
    let vectors = VectorLengths::of(&trace);
    println!("\nvector lengths (Figure 1b bands):");
    for band in VectorBand::ALL {
        println!("  {:<26} {:>7.4}", band.label(), vectors.fraction(band));
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut configs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-c" | "--config" => {
                configs.push(it.next().ok_or("missing value for --config")?.clone())
            }
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let path = path.ok_or("usage: sac simulate <trace-file> [-c <config>]...")?;
    if configs.is_empty() {
        configs = vec!["standard".into(), "soft".into()];
    }
    let trace = load_trace(&path)?;
    println!("{trace}\n");
    println!(
        "{:<16} {:>8} {:>11} {:>11} {:>10} {:>10}",
        "config", "AMAT", "miss ratio", "words/ref", "main hits", "aux hits"
    );
    for name in &configs {
        let cfg = Config::by_name(name)
            .ok_or_else(|| format!("unknown config '{name}' (valid: {})", Config::CLI_NAMES))?;
        let m = cfg.run(&trace);
        println!(
            "{:<16} {:>8.3} {:>11.4} {:>11.3} {:>10} {:>10}",
            name,
            m.amat(),
            m.miss_ratio(),
            m.traffic_ratio(),
            m.main_hits,
            m.aux_hits
        );
    }
    Ok(())
}
