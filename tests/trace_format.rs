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
//!   in memory and through a file (memory-mapped where the platform
//!   allows). Every outcome must be a clean [`ReadError`] or a correct
//!   trace — never a panic, an allocation blow-up, or a silently wrong
//!   length — and the two byte stores must agree exactly.
//! * **Cross-format confusion** — a header of one format stapled to the
//!   body of the other must be rejected, not misdecoded.

use software_assisted_caches::trace::io::{
    read_any, read_binary, read_binary2, write_binary, write_binary2, ChunkSource, FileSource,
    ReadError, TraceReader, DEFAULT_CHUNK,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{io as trace_io, Trace};
use software_assisted_caches::workloads;

/// Decodes `bytes` through every reader entry point, in memory and from
/// a file; panics if a decoder panics (the property under test) or if
/// the file-backed outcome differs from the in-memory one, returns how
/// many decoded.
fn decode_all_entry_points(bytes: &[u8]) -> Vec<Result<usize, ReadError>> {
    let mut outcomes = vec![
        read_binary(bytes).map(|t| t.len()),
        read_binary2(bytes).map(|t| t.len()),
        read_any(bytes).map(|t| t.len()),
    ];
    let path = temp_input(bytes);
    // A chunk size of 17 splits SAC2 runs across chunk boundaries.
    for chunk in [DEFAULT_CHUNK, 17] {
        let in_memory = drain(TraceReader::new(bytes).map(|r| r.with_chunk_size(chunk)));
        let from_file = drain(FileSource::open(&path).map(|r| r.with_chunk_size(chunk)));
        assert_eq!(
            outcome(&from_file),
            outcome(&in_memory),
            "file and in-memory decodes differ at chunk size {chunk}"
        );
        outcomes.extend([in_memory, from_file]);
    }
    std::fs::remove_file(path).unwrap();
    outcomes
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
                for a in chunk {
                    enc.push(a).unwrap();
                }
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
    use software_assisted_caches::trace::Access;
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
