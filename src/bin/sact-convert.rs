//! `sact-convert`: converts traces between the two binary wire formats.
//!
//! `SACT` is the fixed-width 16-byte-per-entry format; `SAC2` is the
//! compact delta format (varint address/instr deltas, run-length-coded
//! flag bytes). The input format is sniffed from the magic bytes, so
//! the only thing to choose is the target:
//!
//! ```text
//! sact-convert trace.sact                  # -> trace.sact2 (SAC2)
//! sact-convert trace.sact2 --to sact       # -> trace.sact  (SACT)
//! sact-convert trace.sact -o /tmp/out.bin  # explicit output path
//! ```
//!
//! Conversion runs chunk-by-chunk through the same decoder the replay
//! engine uses, so the converter holds the decoder's bounded input
//! window (never the whole input), one decoded chunk and one pending
//! `SAC2` run, and the announced entry count is carried from the input
//! header (the writers enforce it). The input may be a pipe, such as
//! `/dev/stdin`: the input size in the summary line is the bytes the
//! decoder read, not a file length.

use sac_obs::ProgressGauge;
use sac_trace::io::{
    self as trace_io, ChunkSource, ReadError, Sact2Writer, SactWriter, TraceReader,
};
use std::io::{Read, Write};
use std::path::Path;
use std::process::exit;

/// Inputs whose header announces at least this many entries report
/// entries-read progress (one stderr line per 10%); smaller conversions
/// finish in well under a second and stay silent, so CI stderr diffs are
/// unaffected.
const PROGRESS_MIN_ENTRIES: u64 = 4_000_000;

/// A reader that counts the bytes pulled through it.
struct Counted<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

fn usage() -> ! {
    eprintln!("usage: sact-convert <trace-file> [-o <output>] [--to sact|sact2]");
    eprintln!("  converts between the SACT (fixed-width) and SAC2 (delta) formats;");
    eprintln!("  the input format is sniffed, the default target is the other format.");
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut target: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => output = Some(it.next().unwrap_or_else(|| usage())),
            "--to" => target = Some(it.next().unwrap_or_else(|| usage())),
            "-h" | "--help" => usage(),
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };

    let file = std::fs::File::open(&input).unwrap_or_else(|e| {
        eprintln!("sact-convert: cannot read {input}: {e}");
        exit(1);
    });
    let mut reader = match TraceReader::new(Counted {
        inner: file,
        bytes: 0,
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sact-convert: {input}: {e}");
            exit(1);
        }
    };

    let to_sact2 = match target.as_deref() {
        Some("sact2") => true,
        Some("sact") => false,
        // Default: convert to whichever format the input is not.
        None => reader.format() == "SACT",
        Some(other) => {
            eprintln!("sact-convert: unknown target '{other}' (sact|sact2)");
            exit(2);
        }
    };
    let out_path = output.unwrap_or_else(|| {
        let stem = input
            .strip_suffix(".sact2")
            .or_else(|| input.strip_suffix(".sact"))
            .unwrap_or(&input);
        format!("{stem}.{}", if to_sact2 { "sact2" } else { "sact" })
    });

    // Creating the output truncates it, and a failed conversion removes
    // it: were it the input, a decode error would destroy the trace.
    if same_file(Path::new(&input), Path::new(&out_path)) {
        eprintln!(
            "sact-convert: output {out_path} is the input file {input}; refusing to overwrite it"
        );
        exit(1);
    }
    // Validate the output path before decoding anything (shared helper;
    // same policy as `figures --bench-json` and `sac trace`).
    let out = match trace_io::create_output(&out_path) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("sact-convert: {e}");
            exit(1);
        }
    };
    let progress =
        (reader.total() >= PROGRESS_MIN_ENTRIES).then(|| ProgressGauge::new(reader.total()));

    match convert(&mut reader, out, to_sact2, progress) {
        Ok(entries) => {
            let in_bytes = reader.get_ref().bytes;
            let out_bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
            println!(
                "{input} ({}) -> {out_path} ({}): {entries} entries, {} -> {} bytes ({:.2}x)",
                reader.format(),
                if to_sact2 { "SAC2" } else { "SACT" },
                in_bytes,
                out_bytes,
                in_bytes as f64 / out_bytes.max(1) as f64,
            );
        }
        Err(e) => {
            eprintln!("sact-convert: {input}: {e}");
            let _ = std::fs::remove_file(&out_path);
            exit(1);
        }
    }
}

/// Whether `a` and `b` name one existing file: the same canonical path,
/// or (on Unix) the same device and inode reached through another path,
/// such as a hard link.
fn same_file(a: &Path, b: &Path) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        if let (Ok(ma), Ok(mb)) = (std::fs::metadata(a), std::fs::metadata(b)) {
            if (ma.dev(), ma.ino()) == (mb.dev(), mb.ino()) {
                return true;
            }
        }
    }
    matches!((a.canonicalize(), b.canonicalize()), (Ok(x), Ok(y)) if x == y)
}

/// Streams every chunk of `reader` into the chosen writer; returns the
/// number of entries converted. With a progress gauge attached, ticks
/// it once per chunk on the entries decoded so far.
fn convert<S: ChunkSource, W: Write>(
    reader: &mut S,
    mut w: W,
    to_sact2: bool,
    mut progress: Option<ProgressGauge>,
) -> Result<u64, Box<dyn std::error::Error>> {
    let total = reader.total();
    let name = reader.name().to_string();
    let mut done = 0u64;
    let mut tick = |done: u64| {
        if let Some(p) = &mut progress {
            if let Some(pct) = p.update(done) {
                eprintln!("sact-convert: {pct}% of entries read");
            }
        }
    };
    if to_sact2 {
        let mut enc = Sact2Writer::new(&mut w, &name, total)?;
        while let Some(chunk) = reader.next_chunk().map_err(boxed)? {
            enc.push_chunk(chunk)?;
            done += chunk.len() as u64;
            tick(done);
        }
        enc.finish()?;
    } else {
        let mut enc = SactWriter::new(&mut w, &name, total)?;
        while let Some(chunk) = reader.next_chunk().map_err(boxed)? {
            enc.push_chunk(chunk)?;
            done += chunk.len() as u64;
            tick(done);
        }
        enc.finish()?;
    }
    w.flush()?;
    Ok(total)
}

fn boxed(e: ReadError) -> Box<dyn std::error::Error> {
    Box::new(e)
}
