//! Property tests over randomly generated loop-nest programs: the
//! interpreter must stay in bounds, trace sizes must match trip-count
//! arithmetic, the analysis must be deterministic and total, CALL kills
//! must clear exactly the bodies that contain them, and the streaming
//! tracer must hand out exactly the materialized trace, in full chunks,
//! and fail with the same error after the same references.
//!
//! Offline build: programs are generated with the in-tree
//! [`SplitMix64`] generator instead of `proptest`; each property runs
//! over `CASES` seeds and failures report the offending seed.

use sac_loopir::{aff, idx, indirect, AffineExpr, Bound, Program, Tags, TraceError, TraceOptions};
use sac_trace::io::DEFAULT_CHUNK;
use sac_trace::rng::SplitMix64;
use sac_trace::Access;

const CASES: u64 = 128;

/// Description of one generated loop level.
#[derive(Debug, Clone)]
struct LoopSpec {
    trip: i64,
    /// References directly in this loop's body: per ref, the coefficient
    /// on each enclosing loop level (including this one) and a write flag.
    refs: Vec<(Vec<i64>, bool)>,
    has_call: bool,
    child: Option<Box<LoopSpec>>,
}

fn gen_ref(rng: &mut SplitMix64, depth: usize) -> (Vec<i64>, bool) {
    let coefs = (0..depth).map(|_| rng.range_i64(-2, 2)).collect();
    (coefs, rng.chance(0.5))
}

fn gen_spec(rng: &mut SplitMix64, depth: usize) -> LoopSpec {
    let max_refs = if depth >= 2 { 4 } else { 3 };
    let spec = LoopSpec {
        trip: rng.range_i64(1, 5),
        refs: (0..rng.index(max_refs))
            .map(|_| gen_ref(rng, depth + 1))
            .collect(),
        has_call: rng.chance(0.2),
        child: None,
    };
    if depth >= 2 || rng.chance(0.5) {
        spec
    } else {
        LoopSpec {
            child: Some(Box::new(gen_spec(rng, depth + 1))),
            ..spec
        }
    }
}

/// Builds a program from a spec; returns (program, expected trace length,
/// killed-flag per RefId order).
fn build(spec: &LoopSpec) -> (Program, usize, Vec<bool>) {
    build_with(spec, None, None)
}

/// [`build`], optionally wrapped in a driver loop of `reps` repetitions
/// (so the trace spans several chunks), and optionally with array `j`
/// (the one reference `j` reads or writes) shrunk to extent `e`.
fn build_with(
    spec: &LoopSpec,
    reps: Option<i64>,
    shrink: Option<(usize, i64)>,
) -> (Program, usize, Vec<bool>) {
    let mut p = Program::new("random");
    // Declare enough loop variables up front.
    let vars: Vec<_> = (0..3).map(|i| p.var(format!("v{i}"))).collect();
    let rep = p.var("rep");

    // Each reference gets its own array, sized to cover the subscript
    // range: coefficients lie in [-2,2], at most 3 enclosing loops with
    // values < 5, so subscripts span [-24, 24] around the offset 24 and
    // an extent of 64 always suffices.
    let mut arrays = Vec::new();
    let mut count_refs = 0;
    let mut walk = Some(spec);
    while let Some(s) = walk {
        count_refs += s.refs.len();
        walk = s.child.as_deref();
    }
    for i in 0..count_refs {
        let extent = match shrink {
            Some((j, e)) if j == i => e,
            _ => 64,
        };
        arrays.push(p.array(format!("A{i}"), &[extent]));
    }

    let mut expected = 0usize;
    let mut killed = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn emit(
        s: &LoopSpec,
        depth: usize,
        vars: &[sac_loopir::VarId],
        arrays: &[sac_loopir::ArrayId],
        next_array: &mut usize,
        iter_mult: i64,
        expected: &mut usize,
        killed: &mut Vec<bool>,
        killed_here: bool,
        b: &mut sac_loopir::BodyBuilder,
    ) {
        let mult = iter_mult * s.trip;
        let killed_now = killed_here || s.has_call;
        b.for_(vars[depth], 0, s.trip, |b| {
            for (coefs, write) in &s.refs {
                let terms: Vec<(sac_loopir::VarId, i64)> = coefs
                    .iter()
                    .enumerate()
                    .take(depth + 1)
                    .map(|(d, &c)| (vars[d], c))
                    .collect();
                let e: AffineExpr = aff(&terms, 24);
                let arr = arrays[*next_array];
                *next_array += 1;
                if *write {
                    b.write(arr, &[e]);
                } else {
                    b.read(arr, &[e]);
                }
                killed.push(killed_now);
            }
            if s.has_call {
                b.call();
            }
            if let Some(child) = &s.child {
                emit(
                    child,
                    depth + 1,
                    vars,
                    arrays,
                    next_array,
                    mult,
                    expected,
                    killed,
                    killed_now,
                    b,
                );
            }
        });
        *expected += (s.refs.len() as i64 * mult) as usize;
    }

    let mut next_array = 0;
    p.body(|b| {
        let mut nest = |b: &mut sac_loopir::BodyBuilder| {
            emit(
                spec,
                0,
                &vars,
                &arrays,
                &mut next_array,
                reps.unwrap_or(1),
                &mut expected,
                &mut killed,
                false,
                b,
            )
        };
        match reps {
            Some(r) => b.for_driver(rep, 0, r, nest),
            None => nest(b),
        }
    });
    (p, expected, killed)
}

/// Runs `f` over `CASES` generated specs, naming the seed on failure.
fn for_each_spec(f: impl Fn(&LoopSpec)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x100F + case);
        let spec = gen_spec(&mut rng, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&spec)));
        if let Err(e) = result {
            eprintln!("failing case {case}: {spec:?}");
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn random_programs_trace_in_bounds() {
    for_each_spec(|spec| {
        let (p, expected, _) = build(spec);
        let t = p
            .trace(&TraceOptions {
                seed: 1,
                gaps: false,
                levels: false,
            })
            .expect("subscripts stay in bounds by construction");
        assert_eq!(t.len(), expected);
    });
}

#[test]
fn analysis_is_total_and_deterministic() {
    for_each_spec(|spec| {
        let (p, _, _) = build(spec);
        let a = p.analyze();
        let b = p.analyze();
        assert_eq!(a.len() as u32, p.ref_count());
        assert_eq!(a, b);
    });
}

#[test]
fn call_kills_exactly_the_enclosing_bodies() {
    for_each_spec(|spec| {
        let (p, _, killed) = build(spec);
        let tags = p.analyze();
        for (t, k) in tags.iter().zip(&killed) {
            if *k {
                assert_eq!(*t, Tags::NONE);
            }
        }
    });
}

#[test]
fn levels_are_within_the_two_bit_budget() {
    for_each_spec(|spec| {
        let (p, _, _) = build(spec);
        let t = p
            .trace(&TraceOptions {
                seed: 1,
                gaps: false,
                levels: true,
            })
            .expect("traces");
        for a in &t {
            assert!(a.spatial_level() <= 3);
            if !a.spatial() {
                assert_eq!(a.spatial_level(), 0, "levels only on spatial refs");
            }
        }
    });
}

#[test]
fn pseudocode_mentions_every_array() {
    for_each_spec(|spec| {
        let (p, _, _) = build(spec);
        let text = p.to_pseudocode();
        for a in p.arrays() {
            assert!(text.contains(a.name()));
        }
    });
}

#[test]
fn traces_round_trip_through_binary_io() {
    for_each_spec(|spec| {
        let (p, _, _) = build(spec);
        let t = p
            .trace(&TraceOptions {
                seed: 5,
                gaps: true,
                levels: true,
            })
            .expect("traces");
        let mut buf = Vec::new();
        sac_trace::io::write_binary(&t, &mut buf).expect("write");
        let back = sac_trace::io::read_binary(&buf[..]).expect("read");
        assert_eq!(t, back);
    });
}

/// Streams `p` and collects its chunks and result.
fn stream(p: &Program, opts: &TraceOptions) -> (Vec<Vec<Access>>, Result<(), TraceError>) {
    let mut chunks = Vec::new();
    let result = p.trace_into(opts, |c| chunks.push(c.to_vec()));
    (chunks, result)
}

/// Every chunk but the last is full, and none is empty.
fn assert_full_chunks(chunks: &[Vec<Access>]) {
    if let Some((last, full)) = chunks.split_last() {
        assert!(full.iter().all(|c| c.len() == DEFAULT_CHUNK));
        assert!(
            (1..=DEFAULT_CHUNK).contains(&last.len()),
            "last chunk {}",
            last.len()
        );
    }
}

const STREAM_OPTIONS: [TraceOptions; 3] = [
    TraceOptions {
        seed: 3,
        gaps: true,
        levels: false,
    },
    TraceOptions {
        seed: 3,
        gaps: false,
        levels: false,
    },
    TraceOptions {
        seed: 3,
        gaps: true,
        levels: true,
    },
];

#[test]
fn streamed_chunks_concatenate_to_the_materialized_trace() {
    for_each_spec(|spec| {
        // Repeat the nest so most traces span several chunks.
        let reps = 1 + (spec.trip * 37) % 300;
        let (p, expected, _) = build_with(spec, Some(reps), None);
        for opts in &STREAM_OPTIONS {
            let t = p.trace(opts).expect("in bounds by construction");
            assert_eq!(t.len(), expected);
            let (chunks, result) = stream(&p, opts);
            result.expect("in bounds by construction");
            assert_full_chunks(&chunks);
            assert_eq!(chunks.concat(), t.as_slice());
        }
    });
}

#[test]
fn chunk_boundaries_fall_every_default_chunk_entries() {
    let n = DEFAULT_CHUNK as i64;
    for len in [0, 1, n - 1, n, n + 1, 3 * n, 3 * n + 5] {
        let mut p = Program::new("line");
        let i = p.var("i");
        let a = p.array("A", &[len.max(1)]);
        p.body(|s| {
            s.for_(i, 0, len, |s| {
                s.read(a, &[idx(i)]);
            });
        });
        for opts in &STREAM_OPTIONS {
            let (chunks, result) = stream(&p, opts);
            result.expect("in bounds");
            assert_full_chunks(&chunks);
            assert_eq!(chunks.len(), (len as usize).div_ceil(DEFAULT_CHUNK));
            assert_eq!(chunks.concat(), p.trace(opts).unwrap().as_slice());
        }
    }
}

/// Shrinking one array makes its reference fail at a position the
/// in-bounds trace predicts: the first entry of that reference whose
/// subscript reaches the new extent. Streaming must fail with exactly
/// that error after exactly the entries before it, like `trace`.
#[test]
fn out_of_bounds_errors_match_after_the_same_references() {
    let failures = std::cell::Cell::new(0);
    for_each_spec(|spec| {
        let refs = {
            let (p, _, _) = build(spec);
            p.ref_count() as usize
        };
        if refs == 0 {
            return;
        }
        let reps = 1 + (spec.trip * 53) % 200;
        let j = (spec.trip as usize * 7) % refs;
        let extent = 1 + (spec.trip * 11) % 48;
        let opts = &STREAM_OPTIONS[0];
        let (full, _, _) = build_with(spec, Some(reps), None);
        let reference = full.trace(opts).expect("in bounds by construction");
        let base = full.arrays()[j].base();
        let failing = reference
            .iter()
            .enumerate()
            .filter(|(_, a)| a.instr() as usize == j)
            .map(|(i, a)| (i, ((a.addr() - base) / 8) as i64))
            .find(|&(_, value)| value >= extent);
        let (shrunk, _, _) = build_with(spec, Some(reps), Some((j, extent)));
        let (chunks, result) = stream(&shrunk, opts);
        match failing {
            Some((at, value)) => {
                let want = TraceError::OutOfBounds {
                    array: format!("A{j}"),
                    dim: 0,
                    value,
                    extent,
                };
                assert_eq!(result, Err(want.clone()));
                assert_eq!(shrunk.trace(opts), Err(want));
                assert_full_chunks(&chunks);
                assert_eq!(chunks.concat().len(), at);
                failures.set(failures.get() + 1);
            }
            None => assert_eq!(result, Ok(())),
        }
    });
    let failures = failures.get();
    assert!(
        failures > CASES / 4,
        "only {failures} cases exercised an error"
    );
}

#[test]
fn table_errors_match_after_the_same_references() {
    // Three references per iteration; the indirect one reads past the
    // table at iteration `len`, after `3 * len + 1` references.
    for len in [10, 1365, 4500] {
        let mut p = Program::new("indirect");
        let i = p.var("i");
        let a = p.array("A", &[5000]);
        let x = p.array("X", &[8]);
        let tab = p.table((0..len).map(|k| k % 8).collect());
        p.body(|s| {
            s.for_(i, 0, 5000, |s| {
                s.read(a, &[idx(i)]);
                s.read_subs(x, vec![indirect(tab, idx(i))]);
                s.write(a, &[idx(i)]);
            });
        });
        let want = TraceError::TableOutOfBounds {
            table: 0,
            index: len,
            len: len as usize,
        };
        for opts in &STREAM_OPTIONS {
            let (chunks, result) = stream(&p, opts);
            assert_eq!(result, Err(want.clone()));
            assert_eq!(p.trace(opts), Err(want.clone()));
            assert_full_chunks(&chunks);
            assert_eq!(chunks.concat().len(), 3 * len as usize + 1);
        }
    }
    // A data-dependent loop bound read past its table fails before the
    // loop's first reference.
    let mut p = Program::new("bound");
    let r = p.var("r");
    let k = p.var("k");
    let a = p.array("A", &[64]);
    let ptr = p.table(vec![0, 2, 5]);
    p.body(|s| {
        s.for_(r, 0, 3, |s| {
            s.for_(
                k,
                Bound::Table {
                    table: ptr,
                    index: idx(r),
                },
                Bound::Table {
                    table: ptr,
                    index: aff(&[(r, 1)], 1),
                },
                |s| {
                    s.read(a, &[idx(k)]);
                },
            );
        });
    });
    let want = TraceError::TableOutOfBounds {
        table: 0,
        index: 3,
        len: 3,
    };
    let (chunks, result) = stream(&p, &STREAM_OPTIONS[0]);
    assert_eq!(result, Err(want.clone()));
    assert_eq!(p.trace(&STREAM_OPTIONS[0]), Err(want));
    assert_eq!(chunks.concat().len(), 5);
}
