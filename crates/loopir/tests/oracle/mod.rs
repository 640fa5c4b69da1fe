//! A naive tracer written against the public `Program` API only: it
//! walks the statement tree, and for every executed reference evaluates
//! each subscript with `AffineExpr::eval`, reads tables and checks every
//! bound on the spot. It shares no code with `loopir::interp`; tags and
//! levels come from the public analyses and gaps from the public
//! `GapModel`, so a disagreement points at the tracer's emission.

#![allow(dead_code)]

use sac_loopir::{Bound, Program, Stmt, Subscript, TableId, TraceError, TraceOptions};
use sac_trace::{Access, GapModel};

/// Where an executed reference sits in the loop that directly holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The holding loop's body has no loop in it.
    pub innermost: bool,
    /// This is the holding loop's first iteration.
    pub first: bool,
    /// This is the holding loop's last iteration.
    pub last: bool,
}

/// A site outside every loop.
const TOP: Site = Site {
    innermost: false,
    first: false,
    last: false,
};

/// Interprets `p`, handing every entry and its site to `f` in order.
/// Returns the first error; `f` has then seen exactly the entries before
/// the failing reference.
pub fn run(
    p: &Program,
    opts: &TraceOptions,
    mut f: impl FnMut(Access, Site),
) -> Result<(), TraceError> {
    let tags = p.analyze();
    let levels = if opts.levels {
        sac_loopir::analysis::analyze_levels(p)
    } else {
        vec![0; tags.len()]
    };
    let mut o = Oracle {
        p,
        tags: &tags,
        levels: &levels,
        gaps: opts.gaps.then(|| GapModel::seeded(opts.seed)),
        env: vec![0; p.var_count()],
        f: &mut f,
    };
    o.stmts(p.stmts(), TOP)
}

/// The entries [`run`] emits and the error it stops at, if any.
pub fn trace(p: &Program, opts: &TraceOptions) -> (Vec<Access>, Result<(), TraceError>) {
    let mut entries = Vec::new();
    let result = run(p, opts, |a, _| entries.push(a));
    (entries, result)
}

struct Oracle<'a, F> {
    p: &'a Program,
    tags: &'a [sac_loopir::Tags],
    levels: &'a [u8],
    gaps: Option<GapModel>,
    env: Vec<i64>,
    f: &'a mut F,
}

impl<F: FnMut(Access, Site)> Oracle<'_, F> {
    fn stmts(&mut self, stmts: &[Stmt], site: Site) -> Result<(), TraceError> {
        for s in stmts {
            match s {
                Stmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                    ..
                } => {
                    let lo = self.bound(lo)?;
                    let hi = self.bound(hi)?;
                    let runs = |x: i64| (*step > 0 && x < hi) || (*step < 0 && x > hi);
                    let innermost = !body.iter().any(|s| matches!(s, Stmt::For { .. }));
                    let mut x = lo;
                    while runs(x) {
                        self.env[var.index()] = x;
                        let site = Site {
                            innermost,
                            first: x == lo,
                            last: !runs(x + step),
                        };
                        self.stmts(body, site)?;
                        x += step;
                    }
                }
                Stmt::Ref(r) => {
                    let decl = self.p.array_decl(r.array());
                    let mut linear = 0;
                    let mut stride = 1;
                    for (dim, sub) in r.subscripts().iter().enumerate() {
                        let value = match sub {
                            Subscript::Affine(e) => e.eval(&self.env),
                            Subscript::Indirect { table, index } => {
                                self.lookup(*table, index.eval(&self.env))?
                            }
                        };
                        let extent = decl.dims().get(dim).copied().unwrap_or(1);
                        if value < 0 || value >= extent {
                            return Err(TraceError::OutOfBounds {
                                array: decl.name().to_string(),
                                dim,
                                value,
                                extent,
                            });
                        }
                        linear += value * stride;
                        stride *= extent;
                    }
                    let id = r.id().index();
                    let gap = self.gaps.as_mut().map_or(1, GapModel::sample);
                    let access = Access::new(decl.base() + linear as u64 * 8, r.kind())
                        .with_temporal(self.tags[id].temporal)
                        .with_spatial(self.tags[id].spatial)
                        .with_spatial_level(self.levels[id])
                        .with_instr(r.id().index() as u32)
                        .with_gap(gap);
                    (self.f)(access, site);
                }
                Stmt::Call => {}
            }
        }
        Ok(())
    }

    fn bound(&self, b: &Bound) -> Result<i64, TraceError> {
        match b {
            Bound::Affine(e) => Ok(e.eval(&self.env)),
            Bound::Table { table, index } => self.lookup(*table, index.eval(&self.env)),
        }
    }

    fn lookup(&self, table: TableId, index: i64) -> Result<i64, TraceError> {
        let values = self.p.table_values(table);
        usize::try_from(index)
            .ok()
            .and_then(|i| values.get(i).copied())
            .ok_or(TraceError::TableOutOfBounds {
                table: table.index(),
                index,
                len: values.len(),
            })
    }
}

/// Compares the tracer with the oracle on `p` under `opts`: the
/// materialized trace, and the streamed chunks, must equal the oracle's
/// entries field by field and stop with the same error after the same
/// prefix. Returns the oracle's result.
pub fn check(p: &Program, opts: &TraceOptions) -> Result<(), TraceError> {
    let (want, want_result) = trace(p, opts);
    let mut streamed = Vec::new();
    let streamed_result = p.trace_into(opts, |chunk| streamed.extend_from_slice(chunk));
    assert_same_entries(&streamed, &want, "trace_into");
    assert_eq!(streamed_result, want_result, "trace_into result");
    match p.trace(opts) {
        Ok(t) => {
            assert_eq!(
                want_result,
                Ok(()),
                "trace succeeded where the oracle failed"
            );
            assert_same_entries(t.as_slice(), &want, "trace");
        }
        Err(e) => assert_eq!(Err(e), want_result, "trace result"),
    }
    want_result
}

/// Like [`check`] for programs too large to hold twice: materializes
/// the tracer's trace and compares the oracle's entries as they come.
/// Returns the trace length.
pub fn check_large(p: &Program, opts: &TraceOptions) -> usize {
    let got = p
        .trace(opts)
        .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
    let got = got.as_slice();
    let mut n = 0;
    run(p, opts, |a, _| {
        assert!(n < got.len(), "{}: tracer stopped at {n}", p.name());
        assert_same_entry(&got[n], &a, n, p.name());
        n += 1;
    })
    .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", p.name()));
    assert_eq!(got.len(), n, "{}: length", p.name());
    n
}

fn assert_same_entries(got: &[Access], want: &[Access], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_same_entry(g, w, i, what);
    }
    assert_eq!(got.len(), want.len(), "{what}: length");
}

/// Field by field, so a failure names the field that differs.
fn assert_same_entry(got: &Access, want: &Access, i: usize, what: &str) {
    let fields = |a: &Access| {
        (
            a.addr(),
            a.instr(),
            a.kind(),
            a.temporal(),
            a.spatial(),
            a.spatial_level(),
            a.gap(),
            a.cpu(),
        )
    };
    assert_eq!(
        fields(got),
        fields(want),
        "{what}: entry {i} (addr, instr, kind, temporal, spatial, level, gap, cpu)"
    );
}
