//! End-to-end tests of the `sac` command-line tool: trace generation,
//! round-tripping through both file formats, statistics and simulation.

use std::path::PathBuf;
use std::process::Command;

fn sac() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sac"))
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sac-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn list_shows_benchmarks_and_configs() {
    let out = sac().arg("list").output().expect("run sac");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["MV", "SpMV", "soft", "standard", "stream"] {
        assert!(text.contains(needle), "missing {needle} in: {text}");
    }
}

#[test]
fn pseudo_prints_an_annotated_listing() {
    let out = sac()
        .args(["pseudo", "MV", "--small"])
        .output()
        .expect("run sac");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PROGRAM MV"));
    assert!(text.contains("DO j1"));
    assert!(text.contains("t=1 s=1"), "tag annotations present: {text}");
}

#[test]
fn trace_stats_simulate_pipeline() {
    let path = tmpfile("mv.sact");
    let out = sac()
        .args(["trace", "MV", "--small", "-o"])
        .arg(&path)
        .output()
        .expect("run sac trace");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = sac()
        .arg("stats")
        .arg(&path)
        .output()
        .expect("run sac stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tag classes"));
    assert!(text.contains("reuse distances"));

    let out = sac()
        .args(["simulate"])
        .arg(&path)
        .args(["-c", "standard", "-c", "soft"])
        .output()
        .expect("run sac simulate");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("standard") && text.contains("soft"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn stats_output_matches_the_pinned_goldens() {
    // MV's words are contiguous (the dense reuse table); golden.trace's
    // are spread far apart (the hashed fallback).
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mv = tmpfile("stats-golden-mv.sact");
    let out = sac()
        .args(["trace", "MV", "--small", "-o"])
        .arg(&mv)
        .output()
        .expect("run sac trace");
    assert!(out.status.success());
    for (input, golden) in [
        (mv.clone(), "stats_mv_small_golden.txt"),
        (data.join("golden.trace"), "stats_golden_trace_golden.txt"),
    ] {
        let out = sac()
            .arg("stats")
            .arg(&input)
            .output()
            .expect("run sac stats");
        assert!(out.status.success());
        let want = std::fs::read_to_string(data.join(golden)).expect("read golden");
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{golden}");
    }
    std::fs::remove_file(&mv).ok();
}

#[test]
fn text_format_round_trips_through_simulate() {
    let path = tmpfile("mv.txt");
    let out = sac()
        .args(["trace", "MV", "--small", "--format", "text", "-o"])
        .arg(&path)
        .output()
        .expect("run sac trace");
    assert!(out.status.success());
    let content = std::fs::read_to_string(&path).expect("trace file");
    assert!(content.starts_with("# trace: MV"));

    let out = sac()
        .arg("simulate")
        .arg(&path)
        .args(["-c", "victim"])
        .output()
        .expect("run sac simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_arguments_fail_cleanly() {
    let out = sac().arg("frobnicate").output().expect("run sac");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = sac().args(["trace", "NopeMark"]).output().expect("run sac");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));

    let out = sac()
        .args(["simulate", "/nonexistent/trace.sact"])
        .output()
        .expect("run sac");
    assert!(!out.status.success());

    // Unknown options are rejected even next to a readable trace.
    let path = tmpfile("unknown-options.trace");
    std::fs::write(&path, "# trace: tiny\nR 0x40 1 0 3 9\n").unwrap();
    let file = path.to_str().unwrap();
    for args in [
        ["stats", "--bogus", file],
        ["stats", "--stream", file],
        ["simulate", "--stream", file],
    ] {
        let out = sac().args(args).output().expect("run sac");
        assert!(!out.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// A file carrying a binary magic is decoded as that format: a bad
/// header is reported as such, not retried as a text trace.
#[test]
fn binary_header_errors_are_reported_not_parsed_as_text() {
    let path = tmpfile("version9.sact");
    let mut bytes = b"SACT".to_vec();
    bytes.extend_from_slice(&9u32.to_le_bytes()); // version
    bytes.extend_from_slice(&0u32.to_le_bytes()); // namelen
    bytes.extend_from_slice(&0u64.to_le_bytes()); // count
    std::fs::write(&path, bytes).unwrap();
    for cmd in ["stats", "simulate"] {
        let out = sac()
            .args([cmd, path.to_str().unwrap()])
            .output()
            .expect("run sac");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unsupported version 9"), "{cmd}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// A file cut inside its header, as `sac` and `sact-convert` see it: a
/// header error, not an I/O error.
#[test]
fn a_header_cut_short_is_a_header_error() {
    let path = tmpfile("magic-only.sact");
    std::fs::write(&path, b"SACT").unwrap();
    let runs = [
        sac().arg("stats").arg(&path).output(),
        sac().arg("simulate").arg(&path).output(),
        Command::new(env!("CARGO_BIN_EXE_sact-convert"))
            .arg(&path)
            .arg("-o")
            .arg(tmpfile("magic-only.sact2"))
            .output(),
    ];
    for out in runs {
        let out = out.expect("run the tool");
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad trace header: input truncated"),
            "{stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// `sac stats` reads its input once, so a pipe works as well as a file:
/// SACT and SAC2 piped into `/dev/stdin` print what the path run prints.
#[cfg(unix)]
#[test]
fn stats_reads_a_piped_trace_like_a_file() {
    use std::io::Write;
    use std::process::Stdio;
    let sact = tmpfile("piped.sact");
    let sac2 = tmpfile("piped.sact2");
    let out = sac()
        .args(["trace", "MV", "--small", "-o"])
        .arg(&sact)
        .output()
        .expect("run sac trace");
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_sact-convert"))
        .arg(&sact)
        .arg("-o")
        .arg(&sac2)
        .output()
        .expect("run sact-convert");
    assert!(out.status.success());
    for path in [&sact, &sac2] {
        let by_path = sac()
            .arg("stats")
            .arg(path)
            .output()
            .expect("run sac stats");
        assert!(by_path.status.success());
        let mut child = sac()
            .args(["stats", "/dev/stdin"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sac stats");
        let bytes = std::fs::read(path).unwrap();
        let mut stdin = child.stdin.take().unwrap();
        let writer = std::thread::spawn(move || stdin.write_all(&bytes));
        let piped = child.wait_with_output().expect("wait for sac stats");
        writer.join().unwrap().expect("write the pipe");
        assert!(
            piped.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&piped.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&piped.stdout),
            String::from_utf8_lossy(&by_path.stdout),
            "{}",
            path.display()
        );
    }
    std::fs::remove_file(&sact).ok();
    std::fs::remove_file(&sac2).ok();
}

/// `sact-convert` counts the input bytes as it reads them, so a trace
/// piped into `/dev/stdin` reports the sizes and ratio of the same file
/// given by path.
#[cfg(unix)]
#[test]
fn sact_convert_reports_a_piped_input_like_a_file() {
    use std::io::Write;
    use std::process::Stdio;
    let sact = tmpfile("convert-pipe.sact");
    let sac2 = tmpfile("convert-pipe.sact2");
    let out = sac()
        .args(["trace", "MV", "--small", "--format", "sact2", "-o"])
        .arg(&sac2)
        .output()
        .expect("run sac trace");
    assert!(out.status.success());
    // The part of the summary line after the entry count: `N -> M bytes (R x)`.
    let sizes = |stdout: &[u8]| {
        let text = String::from_utf8_lossy(stdout).into_owned();
        let at = text.find("entries, ").expect("summary line") + "entries, ".len();
        text[at..].trim_end().to_string()
    };
    let by_path = Command::new(env!("CARGO_BIN_EXE_sact-convert"))
        .arg(&sac2)
        .arg("-o")
        .arg(&sact)
        .output()
        .expect("run sact-convert");
    assert!(by_path.status.success());
    let mut child = Command::new(env!("CARGO_BIN_EXE_sact-convert"))
        .args(["/dev/stdin", "--to", "sact", "-o"])
        .arg(&sact)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sact-convert");
    let bytes = std::fs::read(&sac2).unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || stdin.write_all(&bytes));
    let piped = child.wait_with_output().expect("wait for sact-convert");
    writer.join().unwrap().expect("write the pipe");
    assert!(
        piped.status.success(),
        "{}",
        String::from_utf8_lossy(&piped.stderr)
    );
    let want = sizes(&by_path.stdout);
    assert!(!want.starts_with("0 "), "{want}");
    assert_eq!(sizes(&piped.stdout), want);
    std::fs::remove_file(&sact).ok();
    std::fs::remove_file(&sac2).ok();
}

/// Both `sac trace` and `sact-convert` validate their output path
/// through the one shared helper (`trace::io::create_output`),
/// up front: an unwritable destination fails immediately with the same
/// "cannot write <path>" message from either tool, before any trace is
/// generated or decoded.
#[test]
fn unwritable_output_path_fails_up_front_with_the_shared_message() {
    let bad = "/nonexistent-sac-dir/out.sact";

    let out = sac()
        .args(["trace", "MV", "--small", "-o", bad])
        .output()
        .expect("run sac trace");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "{err}");
    assert!(err.contains(bad), "{err}");

    // A valid input for the converter, so only the output path is at
    // fault.
    let input = tmpfile("convert-badout.sact");
    let out = sac()
        .args(["trace", "MV", "--small", "-o"])
        .arg(&input)
        .output()
        .expect("run sac trace");
    assert!(out.status.success());

    let out = Command::new(env!("CARGO_BIN_EXE_sact-convert"))
        .arg(&input)
        .args(["-o", bad])
        .output()
        .expect("run sact-convert");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "{err}");
    assert!(err.contains(bad), "{err}");
    std::fs::remove_file(&input).ok();
}

/// `sact-convert` truncates its output before writing it, so an output
/// path naming the input file (directly, through a `..` detour, or
/// through a hard link) is refused before the output is created: exit
/// 1, both paths named, input intact.
#[test]
fn sact_convert_refuses_to_overwrite_its_input() {
    let input = tmpfile("convert-self.sact2");
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden.sact2");
    std::fs::copy(fixture, &input).expect("copy the fixture");
    let before = std::fs::read(&input).expect("read the copy");
    let detour = input
        .parent()
        .expect("temp file has a parent")
        .join("..")
        .join(input.parent().unwrap().file_name().unwrap())
        .join(input.file_name().unwrap());
    let link = tmpfile("convert-self-link.sact2");
    std::fs::remove_file(&link).ok();
    let mut outputs = vec![input.clone(), detour];
    if std::fs::hard_link(&input, &link).is_ok() {
        outputs.push(link.clone());
    }
    for out_path in &outputs {
        let out = Command::new(env!("CARGO_BIN_EXE_sact-convert"))
            .arg(&input)
            .args(["--to", "sact2", "-o"])
            .arg(out_path)
            .output()
            .expect("run sact-convert");
        assert_eq!(out.status.code(), Some(1), "{}", out_path.display());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("is the input file"), "{err}");
        assert!(err.contains(out_path.to_str().unwrap()), "{err}");
        assert!(err.contains(input.to_str().unwrap()), "{err}");
        assert_eq!(
            std::fs::read(&input).expect("input still readable"),
            before,
            "input changed by {}",
            out_path.display()
        );
    }
    std::fs::remove_file(&link).ok();
    std::fs::remove_file(&input).ok();
}

#[test]
fn deterministic_traces_across_invocations() {
    let a = tmpfile("det-a.sact");
    let b = tmpfile("det-b.sact");
    for p in [&a, &b] {
        let out = sac()
            .args(["trace", "SpMV", "--small", "--seed", "42", "-o"])
            .arg(p)
            .output()
            .expect("run sac trace");
        assert!(out.status.success());
    }
    let ca = std::fs::read(&a).expect("a");
    let cb = std::fs::read(&b).expect("b");
    assert_eq!(ca, cb, "same seed, same bytes");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}
