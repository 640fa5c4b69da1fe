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

mod oracle;

use sac_loopir::{
    aff, idx, indirect, AffineExpr, ArrayId, BodyBuilder, Bound, Program, Subscript, TableId, Tags,
    TraceError, TraceOptions, VarId,
};
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

// Wide programs, checked entry by entry against the naive oracle in
// `oracle/mod.rs`. The generator covers what the nests above leave out:
// non-zero and negative lower bounds, steps of ±1..3 over ranges they do
// not divide, zero-trip loops, triangular and table-driven bounds, 2-D
// arrays, innermost bodies mixing affine and indirect subscripts,
// references between loops and outside every loop, and subscripts that
// read a variable after its loop has finished.

/// Every loop variable stays within `[-VAR_LIMIT, VAR_LIMIT]`, so a
/// subscript reading a variable outside its loop can be sized for.
const VAR_LIMIT: i64 = 24;

/// The deepest loop nest the generator builds.
const MAX_DEPTH: usize = 4;

/// An inclusive range of values.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: i64,
    hi: i64,
}

impl Span {
    fn new(lo: i64, hi: i64) -> Span {
        Span { lo, hi }
    }

    fn point(k: i64) -> Span {
        Span::new(k, k)
    }

    fn scaled(self, c: i64) -> Span {
        let (a, b) = (self.lo * c, self.hi * c);
        Span::new(a.min(b), a.max(b))
    }

    fn plus(self, o: Span) -> Span {
        Span::new(self.lo + o.lo, self.hi + o.hi)
    }

    fn union(self, o: Span) -> Span {
        Span::new(self.lo.min(o.lo), self.hi.max(o.hi))
    }
}

/// `Σ coef · var + constant` over variable indices.
#[derive(Debug, Clone)]
struct Lin {
    terms: Vec<(usize, i64)>,
    constant: i64,
}

#[derive(Debug, Clone)]
enum WideBound {
    Affine(Lin),
    /// `tables[table][index]`.
    Table(usize, Lin),
}

#[derive(Debug, Clone)]
enum WideSub {
    Affine(Lin),
    /// `tables[table][index]`.
    Indirect(usize, Lin),
}

#[derive(Debug, Clone)]
enum WideStmt {
    Loop {
        depth: usize,
        lo: WideBound,
        hi: WideBound,
        step: i64,
        body: Vec<WideStmt>,
    },
    /// A reference to its own array, whose extents are `extents`.
    Ref {
        write: bool,
        subs: Vec<WideSub>,
        extents: Vec<i64>,
    },
    Call,
}

#[derive(Debug, Clone)]
struct WideSpec {
    tables: Vec<Vec<i64>>,
    body: Vec<WideStmt>,
    /// Repetitions of a driver loop around the body, if any.
    reps: Option<i64>,
}

struct WideGen {
    rng: SplitMix64,
    tables: Vec<Vec<i64>>,
}

impl WideGen {
    fn lin_span(&self, lin: &Lin, scope: &[Span]) -> Span {
        lin.terms
            .iter()
            .map(|&(v, c)| {
                let span = scope
                    .get(v)
                    .copied()
                    .unwrap_or(Span::new(-VAR_LIMIT, VAR_LIMIT));
                span.scaled(c)
            })
            .fold(Span::point(lin.constant), Span::plus)
    }

    /// Terms over the enclosing loop variables (`scope`), plus now and
    /// then one variable whose loop is not open here.
    fn gen_terms(&mut self, scope: &[Span]) -> Vec<(usize, i64)> {
        let mut terms: Vec<(usize, i64)> = (0..scope.len())
            .map(|v| (v, self.rng.range_i64(-2, 2)))
            .filter(|&(_, c)| c != 0)
            .collect();
        if scope.len() < MAX_DEPTH && self.rng.chance(0.15) {
            let v = scope.len() + self.rng.index(MAX_DEPTH - scope.len());
            terms.push((v, if self.rng.chance(0.5) { 1 } else { -1 }));
        }
        terms
    }

    /// An index into a new table that covers the index's range, so the
    /// index is in bounds; the table is one entry short with probability
    /// `short`, to provoke table errors now and then.
    fn gen_table_index(&mut self, scope: &[Span], values: Span, short: f64) -> (usize, Lin) {
        let mut index = Lin {
            terms: self.gen_terms(scope),
            constant: 0,
        };
        let span = self.lin_span(&index, scope);
        index.constant = -span.lo;
        let mut len = (span.hi - span.lo + 1) as usize;
        if len > 1 && self.rng.chance(short) {
            len -= 1;
        }
        let table = (0..len)
            .map(|_| self.rng.range_i64(values.lo, values.hi))
            .collect();
        self.tables.push(table);
        (self.tables.len() - 1, index)
    }

    fn gen_ref(&mut self, scope: &[Span]) -> WideStmt {
        let rank = if self.rng.chance(0.3) { 2 } else { 1 };
        let mut subs = Vec::new();
        let mut extents = Vec::new();
        for _ in 0..rank {
            if self.rng.chance(0.2) {
                let extent = self.rng.range_i64(1, 10);
                let (table, index) = self.gen_table_index(scope, Span::new(0, extent - 1), 0.1);
                subs.push(WideSub::Indirect(table, index));
                extents.push(extent);
            } else {
                let mut lin = Lin {
                    terms: self.gen_terms(scope),
                    constant: 0,
                };
                let span = self.lin_span(&lin, scope);
                let slack = self.rng.range_i64(0, 2);
                lin.constant = slack - span.lo;
                extents.push(span.hi - span.lo + slack + 1 + self.rng.range_i64(0, 2));
                subs.push(WideSub::Affine(lin));
            }
        }
        WideStmt::Ref {
            write: self.rng.chance(0.4),
            subs,
            extents,
        }
    }

    /// A loop over variable `v{depth}`, where `depth` counts the open
    /// loops. Bounds are drawn again until the variable's range stays
    /// within `±VAR_LIMIT`.
    fn gen_loop(&mut self, scope: &[Span]) -> WideStmt {
        let depth = scope.len();
        let step = self.rng.range_i64(1, 3) * if self.rng.chance(0.4) { -1 } else { 1 };
        let (lo, hi, span) = loop {
            let (lo, hi) = match self.rng.index(4) {
                // Triangular: the start follows an enclosing variable.
                0 if depth > 0 => {
                    let lin = Lin {
                        terms: vec![(
                            self.rng.index(depth),
                            if self.rng.chance(0.5) { 1 } else { -1 },
                        )],
                        constant: self.rng.range_i64(-2, 2),
                    };
                    let end = if self.rng.chance(0.5) {
                        Lin {
                            terms: Vec::new(),
                            constant: self.rng.range_i64(-4, 8),
                        }
                    } else {
                        let len = self.rng.range_i64(-1, 7) * step.signum();
                        Lin {
                            terms: lin.terms.clone(),
                            constant: lin.constant + len,
                        }
                    };
                    (WideBound::Affine(lin), WideBound::Affine(end))
                }
                // Data-dependent bounds, as in a CSR row loop.
                1 => {
                    let (table, index) = self.gen_table_index(scope, Span::new(-3, 9), 0.05);
                    let next = Lin {
                        terms: index.terms.clone(),
                        constant: index.constant + 1,
                    };
                    // One more entry so `index + 1` stays in the table.
                    let extra = self.rng.range_i64(-3, 9);
                    self.tables[table].push(extra);
                    (
                        WideBound::Table(table, index),
                        WideBound::Table(table, next),
                    )
                }
                _ => {
                    let start = self.rng.range_i64(-3, 4);
                    let len = self.rng.range_i64(-1, 8) * step.signum();
                    (
                        WideBound::Affine(Lin {
                            terms: Vec::new(),
                            constant: start,
                        }),
                        WideBound::Affine(Lin {
                            terms: Vec::new(),
                            constant: start + len,
                        }),
                    )
                }
            };
            let bound_span = |g: &Self, b: &WideBound| match b {
                WideBound::Affine(lin) => g.lin_span(lin, scope),
                WideBound::Table(t, _) => g.tables[*t]
                    .iter()
                    .map(|&v| Span::point(v))
                    .reduce(Span::union)
                    .expect("bound tables have at least two entries"),
            };
            let span = bound_span(self, &lo).union(bound_span(self, &hi));
            if span.lo >= -VAR_LIMIT && span.hi <= VAR_LIMIT {
                break (lo, hi, span);
            }
        };
        let mut inner = scope.to_vec();
        inner.push(span);
        WideStmt::Loop {
            depth,
            lo,
            hi,
            step,
            body: self.gen_body(&inner),
        }
    }

    fn gen_body(&mut self, scope: &[Span]) -> Vec<WideStmt> {
        let items = 1 + self.rng.index(4);
        (0..items)
            .map(|_| {
                if scope.len() < MAX_DEPTH && self.rng.chance(0.4 / (1 + scope.len()) as f64 + 0.1)
                {
                    self.gen_loop(scope)
                } else if self.rng.chance(0.1) {
                    WideStmt::Call
                } else {
                    self.gen_ref(scope)
                }
            })
            .collect()
    }
}

fn gen_wide(seed: u64) -> WideSpec {
    let mut g = WideGen {
        rng: SplitMix64::seed_from_u64(seed),
        tables: Vec::new(),
    };
    let body = g.gen_body(&[]);
    let reps = g.rng.chance(0.3).then(|| g.rng.range_i64(1, 40));
    WideSpec {
        tables: g.tables,
        body,
        reps,
    }
}

/// The extents of every reference's array, in program order.
fn wide_extents(stmts: &[WideStmt], out: &mut Vec<Vec<i64>>) {
    for s in stmts {
        match s {
            WideStmt::Loop { body, .. } => wide_extents(body, out),
            WideStmt::Ref { extents, .. } => out.push(extents.clone()),
            WideStmt::Call => {}
        }
    }
}

/// The declarations a [`WideSpec`] is built against.
struct WideDecls {
    vars: Vec<VarId>,
    arrays: Vec<ArrayId>,
    tables: Vec<TableId>,
}

impl WideDecls {
    fn lin(&self, l: &Lin) -> AffineExpr {
        let terms: Vec<_> = l.terms.iter().map(|&(v, c)| (self.vars[v], c)).collect();
        aff(&terms, l.constant)
    }

    fn bound(&self, b: &WideBound) -> Bound {
        match b {
            WideBound::Affine(l) => Bound::Affine(self.lin(l)),
            WideBound::Table(t, l) => Bound::Table {
                table: self.tables[*t],
                index: self.lin(l),
            },
        }
    }

    /// Appends `s`; `next` is the array of the next reference.
    fn stmt(&self, s: &WideStmt, b: &mut BodyBuilder, next: &mut usize) {
        match s {
            WideStmt::Loop {
                depth,
                lo,
                hi,
                step,
                body,
            } => b.for_step(
                self.vars[*depth],
                self.bound(lo),
                self.bound(hi),
                *step,
                |b| body.iter().for_each(|s| self.stmt(s, b, next)),
            ),
            WideStmt::Ref { write, subs, .. } => {
                let subs = subs
                    .iter()
                    .map(|sub| match sub {
                        WideSub::Affine(l) => Subscript::Affine(self.lin(l)),
                        WideSub::Indirect(t, l) => indirect(self.tables[*t], self.lin(l)),
                    })
                    .collect();
                let array = self.arrays[*next];
                *next += 1;
                if *write {
                    b.write_subs(array, subs);
                } else {
                    b.read_subs(array, subs);
                }
            }
            WideStmt::Call => b.call(),
        }
    }
}

/// Builds `spec`, with dimension `dim` of reference `r`'s array set to
/// `extent` when `shrink` is `Some((r, dim, extent))`.
fn build_wide(spec: &WideSpec, shrink: Option<(usize, usize, i64)>) -> Program {
    let mut p = Program::new("wide");
    let vars = (0..MAX_DEPTH).map(|i| p.var(format!("v{i}"))).collect();
    let rep = p.var("rep");
    let tables = spec.tables.iter().map(|t| p.table(t.clone())).collect();
    let mut extents = Vec::new();
    wide_extents(&spec.body, &mut extents);
    let arrays = extents
        .iter_mut()
        .enumerate()
        .map(|(r, e)| {
            if let Some((_, dim, extent)) = shrink.filter(|s| s.0 == r) {
                e[dim] = extent;
            }
            p.array(format!("A{r}"), e)
        })
        .collect();
    let decls = WideDecls {
        vars,
        arrays,
        tables,
    };
    p.body(|b| {
        let mut next = 0;
        let mut nest =
            |b: &mut BodyBuilder| spec.body.iter().for_each(|s| decls.stmt(s, b, &mut next));
        match spec.reps {
            Some(r) => b.for_driver(rep, 0, r, nest),
            None => nest(b),
        }
    });
    p
}

const WIDE_CASES: u64 = 256;

/// Runs `f` over `WIDE_CASES` generated wide programs, naming the seed
/// on failure.
fn for_each_wide(mut f: impl FnMut(&WideSpec)) {
    for case in 0..WIDE_CASES {
        let spec = gen_wide(0x51DE + case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&spec)));
        if let Err(e) = result {
            eprintln!("failing wide case {case}: {spec:?}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Shape counts over the generated programs, for the coverage check.
#[derive(Debug, Default)]
struct Shapes {
    nonzero_start: usize,
    negative_step: usize,
    undivided_range: usize,
    zero_trip: usize,
    triangular: usize,
    table_bound: usize,
    two_d: usize,
    mixed_innermost: usize,
    outside_innermost: usize,
    stale_var: usize,
}

impl Shapes {
    fn add(&mut self, stmts: &[WideStmt], depth: usize) {
        let has_loop = stmts.iter().any(|s| matches!(s, WideStmt::Loop { .. }));
        let mut affine_ref = false;
        let mut indirect_ref = false;
        for s in stmts {
            match s {
                WideStmt::Loop {
                    lo, hi, step, body, ..
                } => {
                    self.negative_step += usize::from(*step < 0);
                    match (lo, hi) {
                        (WideBound::Affine(a), WideBound::Affine(b))
                            if a.terms.is_empty() && b.terms.is_empty() =>
                        {
                            let len = (b.constant - a.constant) * step.signum();
                            self.nonzero_start += usize::from(a.constant != 0);
                            self.zero_trip += usize::from(len <= 0);
                            self.undivided_range += usize::from(len > 0 && len % step != 0);
                        }
                        (WideBound::Affine(a), _) => {
                            self.triangular += usize::from(!a.terms.is_empty())
                        }
                        (WideBound::Table(..), _) => self.table_bound += 1,
                    }
                    self.add(body, depth + 1);
                }
                WideStmt::Ref { subs, .. } => {
                    self.two_d += usize::from(subs.len() == 2);
                    self.outside_innermost += usize::from(has_loop || depth == 0);
                    let mut indirect = false;
                    for sub in subs {
                        let lin = match sub {
                            WideSub::Affine(l) => l,
                            WideSub::Indirect(_, l) => {
                                indirect = true;
                                l
                            }
                        };
                        self.stale_var += usize::from(lin.terms.iter().any(|&(v, _)| v >= depth));
                    }
                    indirect_ref |= indirect;
                    affine_ref |= !indirect;
                }
                WideStmt::Call => {}
            }
        }
        self.mixed_innermost += usize::from(!has_loop && depth > 0 && affine_ref && indirect_ref);
    }
}

#[test]
fn wide_generator_covers_every_shape() {
    let mut shapes = Shapes::default();
    for_each_wide(|spec| shapes.add(&spec.body, 0));
    let counts = [
        shapes.nonzero_start,
        shapes.negative_step,
        shapes.undivided_range,
        shapes.zero_trip,
        shapes.triangular,
        shapes.table_bound,
        shapes.two_d,
        shapes.mixed_innermost,
        shapes.outside_innermost,
        shapes.stale_var,
    ];
    assert!(counts.iter().all(|&n| n >= 20), "{shapes:?}");
}

/// Every wide program traces to the oracle's entries under every option
/// set, streamed and materialized, or fails with its error after its
/// prefix.
#[test]
fn wide_programs_match_the_oracle() {
    let (mut traced, mut failed) = (0, 0);
    for_each_wide(|spec| {
        let p = build_wide(spec, None);
        for opts in &STREAM_OPTIONS {
            match oracle::check(&p, opts) {
                Ok(()) => traced += 1,
                Err(_) => failed += 1,
            }
        }
    });
    // Most programs are in bounds; short tables make some fail.
    assert!(traced > 2 * failed, "{traced} traced, {failed} failed");
    assert!(failed > 0, "no program failed");
}

/// Shrinks one array so its reference leaves the extent exactly at the
/// first, a middle or the last iteration of an innermost loop (an
/// emission whose subscript exceeds every earlier one of that reference
/// in that dimension), and checks the error and the prefix against the
/// oracle.
#[test]
fn extent_errors_at_first_middle_and_last_iterations_match_the_oracle() {
    // Entries at a first, middle and last (but not only) iteration.
    let mut hits = [0usize; 3];
    for_each_wide(|spec| {
        let p = build_wide(spec, None);
        let opts = &STREAM_OPTIONS[0];
        let mut entries = Vec::new();
        if oracle::run(&p, opts, |a, site| entries.push((a, site))).is_err() {
            return;
        }
        let mut extents = Vec::new();
        wide_extents(&spec.body, &mut extents);
        for (class, hit) in hits.iter_mut().enumerate() {
            let mut highs: Vec<[i64; 2]> = vec![[-1; 2]; extents.len()];
            let target = entries.iter().enumerate().find_map(|(at, (a, site))| {
                let r = a.instr() as usize;
                let word = ((a.addr() - p.arrays()[r].base()) / 8) as i64;
                let e0 = extents[r][0];
                let values = [word % e0, word / e0];
                let at_class = match (site.first, site.last) {
                    (true, false) => class == 0,
                    (false, false) => class == 1,
                    (false, true) => class == 2,
                    (true, true) => false,
                };
                let mut found = None;
                for dim in 0..extents[r].len() {
                    let v = values[dim];
                    if v > highs[r][dim] {
                        highs[r][dim] = v;
                        if found.is_none() && v >= 1 && site.innermost && at_class {
                            found = Some((at, r, dim, v));
                        }
                    }
                }
                found
            });
            let Some((at, r, dim, value)) = target else {
                continue;
            };
            let shrunk = build_wide(spec, Some((r, dim, value)));
            let (prefix, result) = oracle::trace(&shrunk, opts);
            let want = TraceError::OutOfBounds {
                array: format!("A{r}"),
                dim,
                value,
                extent: value,
            };
            assert_eq!(result, Err(want.clone()));
            assert_eq!(prefix.len(), at);
            for opts in &STREAM_OPTIONS {
                assert_eq!(oracle::check(&shrunk, opts), Err(want.clone()));
            }
            *hit += 1;
        }
    });
    assert!(
        hits.iter().all(|&n| n as u64 >= WIDE_CASES / 8),
        "first/middle/last failures: {hits:?}"
    );
}
