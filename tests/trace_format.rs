//! Wire-format torture tests for the two binary trace formats.
//!
//! Three families:
//!
//! * **Round-trip properties** — every benchmark workload survives
//!   `SACT -> SAC2 -> decode` exactly, and the committed golden SAC2
//!   fixture decodes to the committed golden text trace (so the wire
//!   format itself is frozen, not just the codec pair).
//! * **Fuzz-style robustness** — seeded `SplitMix64` generators feed
//!   truncated, bit-flipped and garbage streams to every entry point,
//!   in memory, through a file and through a reader that hands out a
//!   few bytes per call. Every outcome must be a clean [`ReadError`] or
//!   a correct trace — never a panic, an allocation blow-up, or a
//!   silently wrong length — and the three inputs must agree exactly,
//!   error text included.
//! * **Cross-format confusion** — a header of one format stapled to the
//!   body of the other must be rejected, not misdecoded.
//! * **Refill window** — `SAC2` files whose every varint is an overlong
//!   10-byte encoding (41 bytes an entry, the reader's worst case) and
//!   chunks larger than the default window decode whole, whatever the
//!   chunk size and wherever reads end.
//! * **Encoder equivalence** — per-access `push`, `push_chunk` at any
//!   split and `write_binary*` produce the bytes a naive encoder written
//!   from the format description produces, in both formats, over traces
//!   larger than the encoders' output buffer and runs up to the `SAC2`
//!   cap; a failing writer's error surfaces from `push_chunk` or
//!   `finish`, and the announced count is enforced both ways.
//! * **Varint edges** — values at the one-, two- and three-byte varint
//!   boundaries and ten-byte address deltas at the end of a `SAC2` file
//!   round-trip, and every cut inside them reads as a truncation.

use software_assisted_caches::trace::io::{
    read_any, read_binary, read_binary2, write_binary, write_binary2, ChunkSource, FileSource,
    ReadError, TraceReader, DEFAULT_CHUNK,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{io as trace_io, Access, Trace};
use software_assisted_caches::workloads;
use std::io::Write;

/// Decodes `bytes` through every reader entry point, in memory, from a
/// file and through [`ShortReads`]; panics if a decoder panics (the
/// property under test) or if a file-backed or short-read outcome
/// differs from the in-memory one, returns how many decoded.
fn decode_all_entry_points(bytes: &[u8]) -> Vec<Result<usize, ReadError>> {
    let mut outcomes = vec![
        read_binary(bytes).map(|t| t.len()),
        read_binary2(bytes).map(|t| t.len()),
        read_any(bytes).map(|t| t.len()),
    ];
    let short = [
        read_binary(short_reads(bytes)).map(|t| t.len()),
        read_binary2(short_reads(bytes)).map(|t| t.len()),
        read_any(short_reads(bytes)).map(|t| t.len()),
    ];
    for (short, in_memory) in short.iter().zip(&outcomes) {
        assert_eq!(
            outcome(short),
            outcome(in_memory),
            "short-read and in-memory decodes differ"
        );
    }
    let path = temp_input(bytes);
    // A chunk size of 17 splits SAC2 runs across chunk boundaries.
    for chunk in [DEFAULT_CHUNK, 17] {
        let in_memory = drain(TraceReader::new(bytes).map(|r| r.with_chunk_size(chunk)));
        let from_file = drain(FileSource::open(&path).map(|r| r.with_chunk_size(chunk)));
        let short = drain(TraceReader::new(short_reads(bytes)).map(|r| r.with_chunk_size(chunk)));
        for (got, from) in [(&from_file, "file"), (&short, "short-read")] {
            assert_eq!(
                outcome(got),
                outcome(&in_memory),
                "{from} and in-memory decodes differ at chunk size {chunk}"
            );
        }
        outcomes.extend([in_memory, from_file, short]);
    }
    std::fs::remove_file(path).unwrap();
    outcomes
}

/// A `Read` over `bytes` that hands out 1 to 7 bytes per call and fails
/// its second call with `ErrorKind::Interrupted`, as a pipe may: the
/// reader's refills end at arbitrary offsets.
struct ShortReads<'a> {
    bytes: &'a [u8],
    calls: usize,
}

impl std::io::Read for ShortReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls == 2 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = (self.calls % 7 + 1).min(out.len()).min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn short_reads(bytes: &[u8]) -> ShortReads<'_> {
    ShortReads { bytes, calls: 0 }
}

/// A decode outcome in comparable form: the length, or the error text.
fn outcome(r: &Result<usize, ReadError>) -> Result<usize, String> {
    r.as_ref().map(|&n| n).map_err(ToString::to_string)
}

/// Writes `bytes` to a fresh temp file (unique across test threads).
fn temp_input(bytes: &[u8]) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "sac-trace-format-{}-{}.bin",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn drain<S: ChunkSource>(r: Result<S, ReadError>) -> Result<usize, ReadError> {
    let mut r = r?;
    let mut n = 0usize;
    while let Some(chunk) = r.next_chunk()? {
        n += chunk.len();
        // A decoder must never yield more than the header announced.
        assert!(n as u64 <= r.total(), "decoded past the announced count");
    }
    Ok(n)
}

#[test]
fn every_workload_round_trips_through_both_formats() {
    for program in workloads::benchset_small() {
        let trace = program.trace_default();
        let mut v1 = Vec::new();
        write_binary(&trace, &mut v1).unwrap();

        // SACT -> SAC2 the way sact-convert does it: streamed.
        let reader = TraceReader::new(&v1[..]).unwrap();
        let mut v2 = Vec::new();
        {
            let mut enc =
                trace_io::Sact2Writer::new(&mut v2, reader.name(), reader.total()).unwrap();
            let mut src = TraceReader::new(&v1[..]).unwrap();
            while let Some(chunk) = src.next_chunk().unwrap() {
                enc.push_chunk(chunk).unwrap();
            }
            enc.finish().unwrap();
        }
        let back = read_binary2(&v2[..]).unwrap();
        assert_eq!(back, trace, "{} altered by SACT->SAC2", trace.name());

        // And the materialized writer agrees with the streamed one.
        let mut v2b = Vec::new();
        write_binary2(&trace, &mut v2b).unwrap();
        assert_eq!(
            v2,
            v2b,
            "{}: streamed and materialized SAC2 differ",
            trace.name()
        );

        assert!(
            v2.len() < v1.len(),
            "{}: SAC2 ({}) not smaller than SACT ({})",
            trace.name(),
            v2.len(),
            v1.len()
        );
        let _ = reader.format();
    }
}

/// The committed fixture freezes the SAC2 wire format: if the encoder
/// ever changes its byte output, this fails even though round-trip
/// tests still pass. Regenerate (deliberately!) with
/// `cargo test --test trace_format regenerate -- --ignored`.
#[test]
fn golden_sact2_fixture_decodes_to_the_golden_trace() {
    let golden = golden_text_trace();
    let bytes: &[u8] = include_bytes!("data/golden.sact2");
    let decoded = read_any(bytes).unwrap();
    assert_eq!(decoded, golden);

    // And the current encoder still produces these exact bytes.
    let mut reenc = Vec::new();
    write_binary2(&golden, &mut reenc).unwrap();
    assert_eq!(
        reenc, bytes,
        "SAC2 encoder output drifted from the committed fixture"
    );
}

fn golden_text_trace() -> Trace {
    let text = include_str!("data/golden.trace");
    trace_io::read_text(text.as_bytes()).expect("golden trace parses")
}

#[test]
#[ignore = "writes tests/data/golden.sact2; run only to regenerate the fixture"]
fn regenerate_golden_sact2_fixture() {
    let golden = golden_text_trace();
    let mut bytes = Vec::new();
    write_binary2(&golden, &mut bytes).unwrap();
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden.sact2"),
        bytes,
    )
    .unwrap();
}

fn enc_sact(t: &Trace, v: &mut Vec<u8>) -> std::io::Result<()> {
    write_binary(t, v)
}

fn enc_sact2(t: &Trace, v: &mut Vec<u8>) -> std::io::Result<()> {
    write_binary2(t, v)
}

fn fuzz_trace(rng: &mut SplitMix64, len: usize) -> Trace {
    let mut t = Trace::new("fuzz");
    for _ in 0..len {
        let addr = rng.next_u64() >> (rng.next_u64() % 40);
        let a = if rng.next_u64().is_multiple_of(3) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        t.push(
            a.with_temporal(rng.next_u64().is_multiple_of(2))
                .with_spatial(rng.next_u64().is_multiple_of(4))
                .with_spatial_level((rng.next_u64() % 4) as u8)
                .with_gap((rng.next_u64() % 70000) as u32)
                .with_instr(rng.next_u64() as u32),
        );
    }
    t
}

#[test]
fn truncated_streams_error_cleanly_in_both_formats() {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0001);
    let t = fuzz_trace(&mut rng, 300);
    for write in [enc_sact, enc_sact2] {
        let mut buf = Vec::new();
        write(&t, &mut buf).unwrap();
        for _ in 0..200 {
            let cut = (rng.next_u64() as usize) % buf.len();
            for n in decode_all_entry_points(&buf[..cut]).into_iter().flatten() {
                // A cut inside the header region can still look like a
                // shorter valid stream only if it decodes to nothing
                // more than the data actually present.
                assert!(n <= t.len());
            }
        }
    }
}

/// Varints at the one-, two- and three-byte edges end a SAC2 file, and a
/// ten-byte address delta sits in its last entry: each round-trips through
/// every entry point, and every cut inside the last entry keeps the error
/// text `entry 1: input truncated`.
#[test]
fn sac2_varint_edges_at_the_end_of_the_file() {
    // `(first address, last address, last instruction delta)`; the
    // deltas zigzag to 0x7f, 0x80, 0x3fff and 0x4000.
    let mut cases: Vec<(u64, u64, i64)> = [-64, 64, -8192, 8192]
        .into_iter()
        .map(|d| (0x1000, 0x1008, d))
        .collect();
    // Address deltas of `i64::MIN` and `i64::MAX`: zigzag `u64::MAX` and
    // `u64::MAX - 1`.
    cases.push((0, 1 << 63, 0));
    cases.push((0, i64::MAX as u64, 0));
    for (from, to, di) in cases {
        let last_instr = (100_000 + di) as u32;
        let t: Trace = [
            Access::read(from).with_instr(100_000),
            Access::read(to).with_instr(last_instr),
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        // The last entry is one run with the first: its address delta, gap
        // and instruction delta, written here from the format description.
        let mut last = Vec::new();
        naive_varint(&mut last, naive_zigzag(to.wrapping_sub(from) as i64));
        naive_varint(&mut last, 1);
        naive_varint(&mut last, naive_zigzag(di));
        assert!(buf.ends_with(&last), "{from:#x} -> {to:#x}, {di}");
        assert_eq!(read_binary2(&buf[..]).unwrap(), t);
        // The first outcome is the SACT reader's; the rest are SAC2's.
        for got in decode_all_entry_points(&buf).into_iter().skip(1) {
            assert_eq!(outcome(&got), Ok(2), "{from:#x} -> {to:#x}, {di}");
        }
        for cut in buf.len() - last.len()..buf.len() {
            for got in decode_all_entry_points(&buf[..cut]).into_iter().skip(1) {
                assert_eq!(
                    outcome(&got),
                    Err("bad trace entry: entry 1: input truncated".to_string()),
                    "{from:#x} -> {to:#x}, {di}, cut {cut}"
                );
            }
        }
    }
}

#[test]
fn bit_flipped_streams_never_panic_or_overrun() {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0002);
    let t = fuzz_trace(&mut rng, 300);
    for write in [enc_sact, enc_sact2] {
        let mut clean = Vec::new();
        write(&t, &mut clean).unwrap();
        for _ in 0..300 {
            let mut buf = clean.clone();
            // Flip 1..=8 random bits anywhere in the stream.
            for _ in 0..=(rng.next_u64() % 8) {
                let byte = (rng.next_u64() as usize) % buf.len();
                buf[byte] ^= 1 << (rng.next_u64() % 8);
            }
            for res in decode_all_entry_points(&buf) {
                // Either a clean error or a decode bounded by the
                // announced count (asserted inside drain); a flip in the
                // payload may legitimately produce a different trace.
                let _ = res;
            }
        }
    }
}

#[test]
fn random_garbage_streams_never_panic() {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0003);
    for _ in 0..300 {
        let len = (rng.next_u64() % 256) as usize;
        let mut buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Half the time, graft a valid magic on the front so the fuzz
        // reaches past the magic check.
        match rng.next_u64() % 4 {
            0 => drop(buf.splice(0..0, *b"SACT")),
            1 => drop(buf.splice(0..0, *b"SAC2")),
            _ => {}
        }
        for res in decode_all_entry_points(&buf) {
            let _ = res;
        }
    }
}

#[test]
fn cross_format_headers_are_rejected() {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0004);
    let t = fuzz_trace(&mut rng, 50);
    let (mut v1, mut v2) = (Vec::new(), Vec::new());
    write_binary(&t, &mut v1).unwrap();
    write_binary2(&t, &mut v2).unwrap();

    // The format-specific readers refuse the other magic outright.
    assert!(matches!(read_binary(&v2[..]), Err(ReadError::BadHeader(_))));
    assert!(matches!(
        read_binary2(&v1[..]),
        Err(ReadError::BadHeader(_))
    ));

    // A forged magic stapled onto the other format's body is
    // indistinguishable from data without a checksum, so the only hard
    // guarantees are: no panic, no decode past the announced count (both
    // asserted by decode_all_entry_points), and that the sniffing reader
    // routes on the forged magic, not the body.
    let mut confused = v2.clone();
    confused[..4].copy_from_slice(b"SACT");
    for res in decode_all_entry_points(&confused) {
        let _ = res;
    }
    assert_eq!(TraceReader::new(&confused[..]).unwrap().format(), "SACT");
    let mut confused = v1.clone();
    confused[..4].copy_from_slice(b"SAC2");
    for res in decode_all_entry_points(&confused) {
        let _ = res;
    }
    assert_eq!(TraceReader::new(&confused[..]).unwrap().format(), "SAC2");
}

#[test]
fn sact2_header_count_overflow_is_rejected_without_allocation() {
    // A syntactically valid SAC2 header announcing u64::MAX entries with
    // an empty body: the reader must fail on the first run, not allocate.
    let mut buf = Vec::new();
    buf.extend_from_slice(b"SAC2");
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&u64::MAX.to_le_bytes());
    let err = read_binary2(&buf[..]).unwrap_err();
    assert!(matches!(err, ReadError::BadEntry(_) | ReadError::Io(_)));
}

// ---- The refill window ----

/// Decodes every chunk of `r` at `chunk` entries, checking none is
/// longer.
fn drain_chunks<R: std::io::Read>(
    r: Result<TraceReader<R>, ReadError>,
    chunk: usize,
) -> Result<Vec<Access>, ReadError> {
    let mut r = r?.with_chunk_size(chunk);
    let mut got = Vec::new();
    while let Some(c) = r.next_chunk()? {
        assert!(c.len() <= chunk);
        got.extend_from_slice(c);
    }
    Ok(got)
}

/// Appends `v` as a valid overlong varint of 10 bytes: nine carry the
/// continuation bit whatever their value, the tenth holds bit 63.
fn overlong_varint(out: &mut Vec<u8>, v: u64) {
    for i in 0..9 {
        out.push(0x80 | ((v >> (7 * i)) as u8 & 0x7f));
    }
    out.push((v >> 63) as u8);
}

/// Every entry a one-entry run whose four varints are all overlong
/// 10-byte encodings: 41 bytes an entry, the worst case the reader
/// fills its window to before a chunk. Whatever the chunk size, and
/// with reads ending anywhere, the file decodes whole, and a cut in its
/// last entry still names that entry.
#[test]
fn sac2_overlong_varints_straddle_refill_boundaries() {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0005);
    let t = fuzz_trace(&mut rng, 2 * DEFAULT_CHUNK + 3);
    let mut buf = Vec::new();
    naive_header(&mut buf, b"SAC2", &t, 0);
    let header = buf.len();
    let (mut addr, mut instr) = (0u64, 0u32);
    for a in &t {
        buf.push(naive_flags(a));
        overlong_varint(&mut buf, 1);
        overlong_varint(&mut buf, naive_zigzag(a.addr().wrapping_sub(addr) as i64));
        overlong_varint(&mut buf, u64::from(a.gap()));
        let di = i64::from(a.instr().wrapping_sub(instr) as i32);
        overlong_varint(&mut buf, naive_zigzag(di));
        (addr, instr) = (a.addr(), a.instr());
    }
    assert_eq!(buf.len(), header + 41 * t.len());
    for chunk in [1, 7, 1000, DEFAULT_CHUNK, 3 * DEFAULT_CHUNK] {
        for got in [
            drain_chunks(TraceReader::new(&buf[..]), chunk),
            drain_chunks(TraceReader::new(short_reads(&buf)), chunk),
        ] {
            assert!(got.unwrap() == t.as_slice(), "chunk size {chunk}");
        }
    }
    let want = format!("bad trace entry: entry {}: input truncated", t.len() - 1);
    for cut in [buf.len() - 1, buf.len() - 20, buf.len() - 40] {
        for got in [
            drain_chunks(TraceReader::new(&buf[..cut]), DEFAULT_CHUNK),
            drain_chunks(TraceReader::new(short_reads(&buf[..cut])), 1000),
        ] {
            assert_eq!(got.unwrap_err().to_string(), want, "cut {cut}");
        }
    }
}

/// A chunk size past the default window: the window grows to hold each
/// chunk's worst case, in both formats, from memory, a file and short
/// reads, and every chunk but the last is full.
#[test]
fn a_chunk_larger_than_the_default_window_decodes_whole() {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0006);
    let t = fuzz_trace(&mut rng, 10 * DEFAULT_CHUNK + 11);
    let chunk = 3 * DEFAULT_CHUNK + 1;
    for write in [enc_sact, enc_sact2] {
        let mut buf = Vec::new();
        write(&t, &mut buf).unwrap();
        let path = temp_input(&buf);
        let mut r = FileSource::open(&path).unwrap().with_chunk_size(chunk);
        let mut sizes = Vec::new();
        while let Some(c) = r.next_chunk().unwrap() {
            sizes.push(c.len());
        }
        assert_eq!(sizes, [chunk, chunk, chunk, DEFAULT_CHUNK + 8]);
        for got in [
            drain_chunks(TraceReader::new(&buf[..]), chunk),
            drain_chunks(FileSource::open(&path), chunk),
            drain_chunks(TraceReader::new(short_reads(&buf)), chunk),
        ] {
            assert!(got.unwrap() == t.as_slice());
        }
        std::fs::remove_file(path).unwrap();
    }
}

// ---- Encoder equivalence ----

/// Both buffered encoders behind one interface, so each property runs
/// over both formats.
trait Encoder<W: Write>: Sized {
    fn start(w: W, name: &str, count: u64) -> std::io::Result<Self>;
    fn push(&mut self, a: &Access) -> std::io::Result<()>;
    fn push_chunk(&mut self, chunk: &[Access]) -> std::io::Result<()>;
    fn finish(self) -> std::io::Result<W>;
}

macro_rules! encoder {
    ($ty:ident) => {
        impl<W: Write> Encoder<W> for trace_io::$ty<W> {
            fn start(w: W, name: &str, count: u64) -> std::io::Result<Self> {
                trace_io::$ty::new(w, name, count)
            }
            fn push(&mut self, a: &Access) -> std::io::Result<()> {
                trace_io::$ty::push(self, a)
            }
            fn push_chunk(&mut self, chunk: &[Access]) -> std::io::Result<()> {
                trace_io::$ty::push_chunk(self, chunk)
            }
            fn finish(self) -> std::io::Result<W> {
                trace_io::$ty::finish(self)
            }
        }
    };
}
encoder!(SactWriter);
encoder!(Sact2Writer);

/// Encodes `t` one `push` per access.
fn per_access<E: Encoder<Vec<u8>>>(t: &Trace) -> Vec<u8> {
    let mut enc = E::start(Vec::new(), t.name(), t.len() as u64).unwrap();
    for a in t {
        enc.push(a).unwrap();
    }
    enc.finish().unwrap()
}

/// Encodes `t` one `push_chunk` per `split` accesses.
fn chunked<E: Encoder<Vec<u8>>>(t: &Trace, split: usize) -> Vec<u8> {
    let mut enc = E::start(Vec::new(), t.name(), t.len() as u64).unwrap();
    for chunk in t.as_slice().chunks(split) {
        enc.push_chunk(chunk).unwrap();
    }
    enc.finish().unwrap()
}

/// Random runs of one flag byte: `mean_run` sets how long a run lasts,
/// `spread` how far apart consecutive addresses land (0 = strided).
fn run_trace(rng: &mut SplitMix64, len: usize, mean_run: u64, spread: u32) -> Trace {
    let mut t = Trace::new("runs");
    let (mut addr, mut flags) = (0x1000u64, 0u64);
    for _ in 0..len {
        if rng.below(mean_run) == 0 {
            flags = rng.below(1 << 7);
        }
        addr = if spread == 0 {
            addr.wrapping_add(8)
        } else {
            addr.wrapping_add(rng.next_u64() >> (64 - spread))
        };
        let a = if flags & 1 == 0 {
            Access::read(addr)
        } else {
            Access::write(addr)
        };
        t.push(
            a.with_temporal(flags & 2 != 0)
                .with_spatial(flags & 4 != 0)
                .with_spatial_level(((flags >> 3) & 3) as u8)
                .with_cpu(((flags >> 5) & 3) as u8)
                .with_gap(rng.below(70_000) as u32)
                .with_instr(rng.next_u64() as u32 >> rng.below(32)),
        );
    }
    t
}

/// The traces the equivalence properties run over: the empty trace,
/// random ones larger than the 64 KiB output buffer with runs from one
/// entry to thousands (so runs straddle chunk and buffer boundaries),
/// and single-flag traces that reach the 65,536-entry run cap, strided
/// (a run's body is larger than the buffer) and scattered.
fn equivalence_traces() -> Vec<Trace> {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0005);
    let mut traces = vec![Trace::new("empty")];
    for (len, mean_run, spread) in [
        (1, 1, 40),
        (9_000, 1, 64),
        (30_000, 3, 20),
        (20_000, 300, 12),
        (25_000, 5_000, 40),
    ] {
        traces.push(run_trace(&mut rng, len, mean_run, spread));
    }
    let strided: Trace = (0..140_000u64).map(|i| Access::read(i * 8)).collect();
    traces.push(strided);
    traces.push(run_trace(&mut rng, 70_000, u64::MAX, 48));
    traces
}

/// The flag byte of the format description: bit 0 write, bit 1
/// temporal, bit 2 spatial, bits 3-4 level, bits 5-6 cpu.
fn naive_flags(a: &Access) -> u8 {
    u8::from(a.kind().is_write())
        | (u8::from(a.temporal()) << 1)
        | (u8::from(a.spatial()) << 2)
        | (a.spatial_level() << 3)
        | (a.cpu() << 5)
}

fn naive_zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn naive_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn naive_header(out: &mut Vec<u8>, magic: &[u8], t: &Trace, pad: usize) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&((t.name().len() + pad) as u32).to_le_bytes());
    out.extend_from_slice(t.name().as_bytes());
    out.extend(std::iter::repeat_n(0u8, pad));
    out.extend_from_slice(&(t.len() as u64).to_le_bytes());
}

/// `SACT` written straight from the format description (io.rs module
/// docs): the name NUL-padded so entries start 8-byte aligned.
fn naive_sact(t: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    naive_header(&mut out, b"SACT", t, (8 - (20 + t.name().len()) % 8) % 8);
    for a in t {
        out.extend_from_slice(&a.addr().to_le_bytes());
        out.extend_from_slice(&a.instr().to_le_bytes());
        out.extend_from_slice(&(a.gap() as u16).to_le_bytes());
        out.extend_from_slice(&[naive_flags(a), 0]);
    }
    out
}

/// `SAC2` written straight from the format description: runs of one
/// flag byte, at most 65,536 entries each, of zigzag-varint deltas.
fn naive_sac2(t: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    naive_header(&mut out, b"SAC2", t, 0);
    let (mut prev_addr, mut prev_instr) = (0u64, 0u32);
    let entries = t.as_slice();
    let mut i = 0;
    while i < entries.len() {
        let flags = naive_flags(&entries[i]);
        let mut end = i;
        while end < entries.len() && end - i < 65_536 && naive_flags(&entries[end]) == flags {
            end += 1;
        }
        out.push(flags);
        naive_varint(&mut out, (end - i) as u64);
        for a in &entries[i..end] {
            naive_varint(
                &mut out,
                naive_zigzag(a.addr().wrapping_sub(prev_addr) as i64),
            );
            naive_varint(&mut out, u64::from(a.gap()));
            naive_varint(
                &mut out,
                naive_zigzag(i64::from(a.instr().wrapping_sub(prev_instr) as i32)),
            );
            (prev_addr, prev_instr) = (a.addr(), a.instr());
        }
        i = end;
    }
    out
}

fn encoders_agree<E: Encoder<Vec<u8>>>(
    t: &Trace,
    write: fn(&Trace, &mut Vec<u8>) -> std::io::Result<()>,
    naive: fn(&Trace) -> Vec<u8>,
) {
    let want = naive(t);
    assert!(
        per_access::<E>(t) == want,
        "{} entries: per-access push differs from the format description",
        t.len()
    );
    for split in [1, 7, 4095, 4096, 4097, t.len().max(1)] {
        assert!(
            chunked::<E>(t, split) == want,
            "{} entries: push_chunk({split}) differs from per-access push",
            t.len()
        );
    }
    let mut whole = Vec::new();
    write(t, &mut whole).unwrap();
    assert!(whole == want, "{} entries: write_binary* differs", t.len());
    assert_eq!(read_any(&want[..]).unwrap(), *t);
}

#[test]
fn every_split_encodes_the_same_bytes() {
    let traces = equivalence_traces();
    let longest = traces.iter().map(Trace::len).max().unwrap();
    assert!(
        longest > (64 << 10),
        "some trace outgrows the output buffer"
    );
    for t in &traces {
        encoders_agree::<trace_io::SactWriter<Vec<u8>>>(t, enc_sact, naive_sact);
        encoders_agree::<trace_io::Sact2Writer<Vec<u8>>>(t, enc_sact2, naive_sac2);
    }
}

/// A writer that accepts `left` bytes, then fails.
struct FailAfter {
    left: usize,
    got: Vec<u8>,
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::other("device full"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        self.got.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Encodes `t` whole into a writer that fails after `limit` bytes;
/// returns the bytes written, or the error from `push_chunk` or
/// `finish`.
fn encode_failing<E: Encoder<FailAfter>>(t: &Trace, limit: usize) -> std::io::Result<Vec<u8>> {
    let w = FailAfter {
        left: limit,
        got: Vec::new(),
    };
    let mut enc = E::start(w, t.name(), t.len() as u64)?;
    enc.push_chunk(t.as_slice())?;
    Ok(enc.finish()?.got)
}

fn write_errors_surface<E: Encoder<FailAfter>>(t: &Trace) {
    let full = encode_failing::<E>(t, usize::MAX).unwrap();
    for limit in [0, 1, 30, 65_535, 65_536, 65_537, full.len() - 1] {
        let err = encode_failing::<E>(t, limit).expect_err("a lost write error");
        assert_eq!(err.to_string(), "device full", "after {limit} bytes");
    }
    assert!(encode_failing::<E>(t, full.len()).unwrap() == full);
}

#[test]
fn a_failing_writer_surfaces_from_push_chunk_or_finish() {
    let mut rng = SplitMix64::seed_from_u64(0x5AC7_0006);
    let t = run_trace(&mut rng, 20_000, 4, 30);
    write_errors_surface::<trace_io::SactWriter<_>>(&t);
    write_errors_surface::<trace_io::Sact2Writer<_>>(&t);
}

fn counts_are_enforced<E: Encoder<Vec<u8>>>() {
    let t: Trace = (0..10u64).map(|i| Access::read(i * 8)).collect();
    let a = t.as_slice();
    // Past the announced count inside one chunk.
    let mut enc = E::start(Vec::new(), "x", 5).unwrap();
    enc.push_chunk(&a[..3]).unwrap();
    let err = enc.push_chunk(&a[3..7]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(
        err.to_string().contains("more than the announced 5"),
        "{err}"
    );
    // The refused chunk counted nothing: the last two still fit.
    enc.push_chunk(&a[3..5]).unwrap();
    assert!(enc.push(&a[5]).is_err());
    enc.finish().unwrap();
    // Finishing short.
    let mut enc = E::start(Vec::new(), "x", 5).unwrap();
    enc.push_chunk(&a[..4]).unwrap();
    let err = enc.finish().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(
        err.to_string().contains("4 entries pushed, 5 announced"),
        "{err}"
    );
}

#[test]
fn encoders_enforce_the_announced_count() {
    counts_are_enforced::<trace_io::SactWriter<_>>();
    counts_are_enforced::<trace_io::Sact2Writer<_>>();
}
