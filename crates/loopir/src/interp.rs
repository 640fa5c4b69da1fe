//! The trace-emitting interpreter (the paper's source-level tracer).

use crate::analysis_impl::{analyze, Tags};
use crate::program::{ArrayId, Bound, Program, RefStmt, Stmt, Subscript, TableId};
use sac_trace::io::DEFAULT_CHUNK;
use sac_trace::{Access, GapModel, Trace};
use std::fmt;
use std::ops::Range;

/// Options for trace generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOptions {
    /// Seed for the issue-gap RNG; a given seed always reproduces the same
    /// trace, as in the paper ("repetitive simulations performed with the
    /// same trace are completely identical").
    pub seed: u64,
    /// When `false`, every gap is 1 cycle (useful in unit tests).
    pub gaps: bool,
    /// When `true`, the tracer also runs the variable-virtual-line level
    /// analysis (§3.2 extension) and attaches a 2-bit spatial level to
    /// each reference.
    pub levels: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            seed: 0x5AC,
            gaps: true,
            levels: false,
        }
    }
}

/// Errors raised while interpreting a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A subscript evaluated outside its array extent.
    OutOfBounds {
        /// Name of the offending array.
        array: String,
        /// The subscript position (0-based).
        dim: usize,
        /// The evaluated subscript value.
        value: i64,
        /// The extent it violated.
        extent: i64,
    },
    /// A table lookup (indirect subscript or data-dependent bound) was out
    /// of range.
    TableOutOfBounds {
        /// Table index within the program.
        table: usize,
        /// The evaluated position.
        index: i64,
        /// The table length.
        len: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutOfBounds {
                array,
                dim,
                value,
                extent,
            } => write!(
                f,
                "subscript {dim} of array '{array}' evaluated to {value}, outside extent {extent}"
            ),
            TraceError::TableOutOfBounds { table, index, len } => write!(
                f,
                "table {table} lookup at position {index}, outside length {len}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl Program {
    /// Runs the locality analysis, returning tags indexed by [`crate::RefId`].
    pub fn analyze(&self) -> Vec<Tags> {
        analyze(self)
    }

    /// Interprets the program, emitting one tagged trace entry per
    /// executed reference.
    ///
    /// The trace is allocated once at its exact length, counted by a
    /// first pass over the loop bounds; if that count fails (a
    /// data-dependent bound reads past its table) or the allocation is
    /// refused, the trace grows as it is filled instead.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if a subscript or table lookup evaluates out
    /// of range — this always indicates a bug in the workload definition.
    pub fn trace(&self, opts: &TraceOptions) -> Result<Trace, TraceError> {
        let lowered = Lowered::new(self, opts.levels);
        let mut entries = Vec::new();
        if let Ok(len) = lowered.count() {
            // A refused reservation only means the trace grows as it fills.
            let _ = entries.try_reserve_exact(len);
        }
        lowered.emit(opts, |chunk| entries.extend_from_slice(chunk))?;
        Ok(entries
            .into_iter()
            .collect::<Trace>()
            .with_name(self.name()))
    }

    /// Interprets the program like [`Program::trace`], but hands the
    /// entries to `sink` in chunks of [`DEFAULT_CHUNK`] (the last chunk
    /// may be shorter) instead of materializing the trace, so a consumer
    /// such as a replay batch can run while the trace is generated. The
    /// concatenated chunks equal [`Program::trace`]'s entries.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceError`] [`Program::trace`] would; `sink` has then
    /// seen exactly the references emitted before the failing one.
    pub fn trace_into(
        &self,
        opts: &TraceOptions,
        sink: impl FnMut(&[Access]),
    ) -> Result<(), TraceError> {
        Lowered::new(self, opts.levels).emit(opts, sink)
    }

    /// Interprets the program with default options.
    ///
    /// # Panics
    ///
    /// Panics on [`TraceError`]; use [`Program::trace`] to handle errors.
    pub fn trace_default(&self) -> Trace {
        self.trace(&TraceOptions::default())
            .expect("workload program traces without subscript errors")
    }
}

/// A reference site lowered once per trace: everything emitting it needs
/// except the loop variables' current values.
struct LoweredRef {
    base: u64,
    array: ArrayId,
    /// This reference's subscripts in [`Lowered::dims`].
    dims: Range<usize>,
    /// Whether any subscript reads a table.
    indirect: bool,
    /// How many words the address moves when the variable of the
    /// innermost loop around this reference grows by one: the sum of each
    /// subscript's `step_coef × stride`. Zero outside innermost bodies.
    word_coef: i64,
    /// The entry with its kind, tags, level and instruction id filled in;
    /// emitting stamps the address and gap on a copy.
    template: Access,
}

/// One subscript, flattened: the value is `constant + Σ coef · env[var]`,
/// read through `table` when the subscript is indirect.
struct LoweredDim {
    /// This subscript's `(var index, coef value)` terms in
    /// [`Lowered::terms`].
    terms: Range<usize>,
    constant: i64,
    table: Option<TableId>,
    /// The coefficient of the innermost enclosing loop's variable (zero
    /// outside innermost bodies).
    step_coef: i64,
    extent: i64,
    /// Column-major stride: the product of the preceding extents.
    stride: i64,
}

/// A loop header: the variable, its bounds and its step.
#[derive(Clone, Copy)]
struct Head<'a> {
    var: usize,
    lo: &'a Bound,
    hi: &'a Bound,
    step: i64,
}

/// One statement of the lowered tree, stored in pre-order.
#[derive(Clone, Copy)]
enum Op<'a> {
    /// A loop whose body holds another loop; the body is the ops after
    /// this one up to the second field.
    Loop(Head<'a>, usize),
    /// An innermost loop, whose body is references and CALLs only; the
    /// range holds its references' ids in body order in
    /// [`Lowered::bodies`].
    Inner(Head<'a>, usize, usize),
    /// A reference outside every innermost body.
    Ref(usize),
}

/// A program lowered for interpretation: its statement tree, and every
/// reference site resolved once.
struct Lowered<'a> {
    p: &'a Program,
    ops: Vec<Op<'a>>,
    /// Reference ids of the innermost bodies, back to back.
    bodies: Vec<usize>,
    /// Indexed by [`crate::RefId`].
    refs: Vec<LoweredRef>,
    dims: Vec<LoweredDim>,
    terms: Vec<(usize, i64)>,
}

/// What a walk over the lowered tree does with references: emit them or
/// count them.
trait Visit {
    /// One execution of reference `id`, outside any innermost body.
    fn single(&mut self, l: &Lowered<'_>, id: usize, env: &[i64]) -> Result<(), TraceError>;

    /// `trip >= 1` iterations of an innermost loop whose variable starts
    /// at `lo`, over the references `body`. The walk sets the variable to
    /// its last value afterwards.
    fn inner(
        &mut self,
        l: &Lowered<'_>,
        head: Head<'_>,
        lo: i64,
        trip: u64,
        body: &[usize],
        env: &mut [i64],
    ) -> Result<(), TraceError>;
}

impl<'a> Lowered<'a> {
    /// Resolves every reference site (tags, level, array base, and the
    /// terms, extent, stride and stepping coefficient of each subscript)
    /// and flattens the statement tree.
    fn new(p: &'a Program, levels: bool) -> Self {
        let mut l = Lowered {
            p,
            ops: Vec::new(),
            bodies: Vec::new(),
            refs: Vec::with_capacity(p.ref_count() as usize),
            dims: Vec::new(),
            terms: Vec::new(),
        };
        let tags = analyze(p);
        let levels = levels.then(|| crate::analysis_impl::analyze_levels(p));
        let template = |r: &RefStmt| {
            let id = r.id().index();
            Access::new(0, r.kind())
                .with_temporal(tags[id].temporal)
                .with_spatial(tags[id].spatial)
                .with_spatial_level(levels.as_ref().map_or(0, |l| l[id]))
                .with_instr(r.id().0)
        };
        l.lower_stmts(p.stmts(), &template);
        l
    }

    fn lower_stmts(&mut self, stmts: &'a [Stmt], template: &impl Fn(&RefStmt) -> Access) {
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
                    let head = Head {
                        var: var.index(),
                        lo,
                        hi,
                        step: *step,
                    };
                    if body.iter().any(|s| matches!(s, Stmt::For { .. })) {
                        // The body's end is patched in once it is lowered.
                        let at = self.ops.len();
                        self.ops.push(Op::Loop(head, at));
                        self.lower_stmts(body, template);
                        self.ops[at] = Op::Loop(head, self.ops.len());
                    } else {
                        let start = self.bodies.len();
                        for s in body {
                            if let Stmt::Ref(r) = s {
                                self.lower_ref(r, Some(head.var), template(r));
                                self.bodies.push(r.id().index());
                            }
                        }
                        self.ops.push(Op::Inner(head, start, self.bodies.len()));
                    }
                }
                Stmt::Ref(r) => {
                    self.lower_ref(r, None, template(r));
                    self.ops.push(Op::Ref(r.id().index()));
                }
                Stmt::Call => {}
            }
        }
    }

    /// Lowers one reference; `stepped` is the variable of the innermost
    /// loop around it, if it sits in an innermost body.
    fn lower_ref(&mut self, r: &RefStmt, stepped: Option<usize>, template: Access) {
        debug_assert_eq!(
            r.id().index(),
            self.refs.len(),
            "references number in program order"
        );
        let decl = self.p.array_decl(r.array());
        let start = self.dims.len();
        let mut stride = 1;
        let mut word_coef = 0;
        for (k, sub) in r.subscripts().iter().enumerate() {
            let (expr, table) = match sub {
                Subscript::Affine(e) => (e, None),
                Subscript::Indirect { table, index } => (index, Some(*table)),
            };
            let terms_start = self.terms.len();
            self.terms
                .extend(expr.terms().iter().map(|&(v, c)| (v.index(), c.value())));
            let step_coef = self.terms[terms_start..]
                .iter()
                .filter(|&&(v, _)| Some(v) == stepped)
                .map(|&(_, c)| c)
                .sum::<i64>();
            // Subscripts past the declared rank index an extent of 1.
            let extent = decl.dims().get(k).copied().unwrap_or(1);
            self.dims.push(LoweredDim {
                terms: terms_start..self.terms.len(),
                constant: expr.constant_term(),
                table,
                step_coef,
                extent,
                stride,
            });
            word_coef += step_coef * stride;
            stride *= extent;
        }
        self.refs.push(LoweredRef {
            base: decl.base(),
            array: r.array(),
            dims: start..self.dims.len(),
            indirect: self.dims[start..].iter().any(|d| d.table.is_some()),
            word_coef,
            template,
        });
    }

    /// The number of references the program emits, from the loop bounds
    /// alone.
    fn count(&self) -> Result<usize, TraceError> {
        let mut count = Count(0);
        let mut env = vec![0i64; self.p.var_count()];
        self.walk(0..self.ops.len(), &mut env, &mut count)?;
        Ok(count.0)
    }

    /// Emits the program's entries to `sink` in [`DEFAULT_CHUNK`] chunks.
    fn emit(&self, opts: &TraceOptions, mut sink: impl FnMut(&[Access])) -> Result<(), TraceError> {
        let mut emitter = Emitter {
            gaps: opts.gaps.then(|| GapModel::seeded(opts.seed)),
            buf: Vec::with_capacity(DEFAULT_CHUNK),
            sink: &mut sink,
            cursors: Vec::new(),
        };
        let mut env = vec![0i64; self.p.var_count()];
        let result = self.walk(0..self.ops.len(), &mut env, &mut emitter);
        if !emitter.buf.is_empty() {
            (emitter.sink)(&emitter.buf);
        }
        result
    }

    /// Interprets `ops` in order, handing references to `v`.
    fn walk(
        &self,
        ops: Range<usize>,
        env: &mut [i64],
        v: &mut impl Visit,
    ) -> Result<(), TraceError> {
        let mut i = ops.start;
        while i < ops.end {
            match self.ops[i] {
                Op::Loop(head, end) => {
                    let lo = self.eval_bound(head.lo, env)?;
                    let hi = self.eval_bound(head.hi, env)?;
                    let mut x = lo;
                    while (head.step > 0 && x < hi) || (head.step < 0 && x > hi) {
                        env[head.var] = x;
                        self.walk(i + 1..end, env, v)?;
                        x += head.step;
                    }
                    i = end;
                }
                Op::Inner(head, start, end) => {
                    let lo = self.eval_bound(head.lo, env)?;
                    let hi = self.eval_bound(head.hi, env)?;
                    let trip = trip_count(lo, hi, head.step);
                    if trip > 0 {
                        v.inner(self, head, lo, trip, &self.bodies[start..end], env)?;
                        env[head.var] = lo + (trip - 1) as i64 * head.step;
                    }
                    i += 1;
                }
                Op::Ref(id) => {
                    v.single(self, id, env)?;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    fn eval_bound(&self, b: &Bound, env: &[i64]) -> Result<i64, TraceError> {
        match b {
            Bound::Affine(e) => Ok(e.eval(env)),
            Bound::Table { table, index } => self.lookup(*table, index.eval(env)),
        }
    }

    fn lookup(&self, table: TableId, pos: i64) -> Result<i64, TraceError> {
        let values = self.p.table_values(table);
        if pos < 0 || pos as usize >= values.len() {
            return Err(TraceError::TableOutOfBounds {
                table: table.0,
                index: pos,
                len: values.len(),
            });
        }
        Ok(values[pos as usize])
    }

    /// The address of one execution of reference `id`: evaluates and
    /// bounds-checks its subscripts in order, reading the table of an
    /// indirect one.
    #[inline]
    fn address(&self, id: usize, env: &[i64]) -> Result<u64, TraceError> {
        let r = &self.refs[id];
        let mut linear: i64 = 0;
        for (k, d) in self.dims[r.dims.clone()].iter().enumerate() {
            let mut v = self.affine_value(d, env);
            if let Some(table) = d.table {
                v = self.lookup(table, v)?;
            }
            if v < 0 || v >= d.extent {
                return Err(self.out_of_bounds(r, k, v));
            }
            linear += v * d.stride;
        }
        Ok(r.base + linear as u64 * sac_trace::WORD_BYTES)
    }

    /// The address of affine reference `id` at the first iteration of
    /// its innermost loop, or `None` if a subscript leaves its extent at
    /// the first iteration or after `span` more steps of the loop
    /// variable. An affine subscript is monotone in the loop variable, so
    /// in range at both ends means in range at every iteration between.
    fn first_address(&self, id: usize, env: &[i64], span: i64) -> Option<u64> {
        let r = &self.refs[id];
        let mut linear: i64 = 0;
        for d in &self.dims[r.dims.clone()] {
            let first = self.affine_value(d, env);
            let last = first + d.step_coef * span;
            if first < 0 || first >= d.extent || last < 0 || last >= d.extent {
                return None;
            }
            linear += first * d.stride;
        }
        Some(r.base + linear as u64 * sac_trace::WORD_BYTES)
    }

    #[inline]
    fn affine_value(&self, d: &LoweredDim, env: &[i64]) -> i64 {
        let mut v = d.constant;
        for &(var, coef) in &self.terms[d.terms.clone()] {
            v += coef * env[var];
        }
        v
    }

    #[cold]
    fn out_of_bounds(&self, r: &LoweredRef, dim: usize, value: i64) -> TraceError {
        TraceError::OutOfBounds {
            array: self.p.array_decl(r.array).name().to_string(),
            dim,
            value,
            extent: self.dims[r.dims.start + dim].extent,
        }
    }
}

/// The iterations of `for (x = lo; step > 0 ? x < hi : x > hi; x += step)`.
fn trip_count(lo: i64, hi: i64, step: i64) -> u64 {
    let (span, step) = match step {
        s if s > 0 => (i128::from(hi) - i128::from(lo), i128::from(s)),
        s if s < 0 => (i128::from(lo) - i128::from(hi), -i128::from(s)),
        _ => return 0,
    };
    if span <= 0 {
        0
    } else {
        ((span + step - 1) / step) as u64
    }
}

/// Counts references without computing addresses or gaps.
struct Count(usize);

impl Visit for Count {
    fn single(&mut self, _: &Lowered<'_>, _: usize, _: &[i64]) -> Result<(), TraceError> {
        self.0 = self.0.saturating_add(1);
        Ok(())
    }

    fn inner(
        &mut self,
        _: &Lowered<'_>,
        _: Head<'_>,
        _: i64,
        trip: u64,
        body: &[usize],
        _: &mut [i64],
    ) -> Result<(), TraceError> {
        let refs = usize::try_from(trip)
            .unwrap_or(usize::MAX)
            .saturating_mul(body.len());
        self.0 = self.0.saturating_add(refs);
        Ok(())
    }
}

/// One reference of an innermost body while its loop steps.
enum Cursor {
    /// An affine reference: the next entry, whose address moves by
    /// `delta` bytes (wrapping) per iteration.
    Step { next: Access, delta: u64 },
    /// A reference evaluated and checked per emission: an indirect one,
    /// or any reference of a loop instance that failed its endpoint check.
    Checked(usize),
}

/// Emits entries with sampled gaps into chunks for a sink.
struct Emitter<'s, F> {
    /// `None` when every gap is 1.
    gaps: Option<GapModel>,
    buf: Vec<Access>,
    sink: &'s mut F,
    /// Scratch for the innermost loop being stepped.
    cursors: Vec<Cursor>,
}

impl<F: FnMut(&[Access])> Emitter<'_, F> {
    /// Stamps a sampled gap on `access` and appends it, handing the
    /// buffer to the sink when it is full.
    #[inline]
    fn push(&mut self, access: Access) {
        let gap = self.gaps.as_mut().map_or(1, GapModel::sample);
        self.buf.push(access.with_gap(gap));
        if self.buf.len() == DEFAULT_CHUNK {
            (self.sink)(&self.buf);
            self.buf.clear();
        }
    }

    /// Runs `trip` iterations of an innermost loop over its cursors.
    fn step(
        &mut self,
        l: &Lowered<'_>,
        head: Head<'_>,
        lo: i64,
        trip: u64,
        cursors: &mut [Cursor],
        env: &mut [i64],
    ) -> Result<(), TraceError> {
        let mut x = lo;
        for _ in 0..trip {
            env[head.var] = x;
            for c in cursors.iter_mut() {
                let access = match c {
                    Cursor::Step { next, delta } => {
                        let access = *next;
                        *next = access.with_addr(access.addr().wrapping_add(*delta));
                        access
                    }
                    Cursor::Checked(id) => l.refs[*id].template.with_addr(l.address(*id, env)?),
                };
                self.push(access);
            }
            x += head.step;
        }
        Ok(())
    }
}

impl<F: FnMut(&[Access])> Visit for Emitter<'_, F> {
    fn single(&mut self, l: &Lowered<'_>, id: usize, env: &[i64]) -> Result<(), TraceError> {
        let addr = l.address(id, env)?;
        self.push(l.refs[id].template.with_addr(addr));
        Ok(())
    }

    /// Steps the affine references' addresses through the loop after
    /// checking their subscripts at the first and last iteration. If a
    /// check fails, every reference of this loop instance runs checked
    /// instead, which fails at the same entry with the same error.
    fn inner(
        &mut self,
        l: &Lowered<'_>,
        head: Head<'_>,
        lo: i64,
        trip: u64,
        body: &[usize],
        env: &mut [i64],
    ) -> Result<(), TraceError> {
        env[head.var] = lo;
        let span = (trip - 1) as i64 * head.step;
        let mut cursors = std::mem::take(&mut self.cursors);
        cursors.clear();
        for &id in body {
            let r = &l.refs[id];
            if r.indirect {
                cursors.push(Cursor::Checked(id));
            } else if let Some(addr) = l.first_address(id, env, span) {
                let delta = r.word_coef * head.step * sac_trace::WORD_BYTES as i64;
                cursors.push(Cursor::Step {
                    next: r.template.with_addr(addr),
                    delta: delta as u64,
                });
            } else {
                cursors.clear();
                cursors.extend(body.iter().map(|&id| Cursor::Checked(id)));
                break;
            }
        }
        let result = self.step(l, head, lo, trip, &mut cursors, env);
        self.cursors = cursors;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{idx, lit, shift};
    use crate::program::indirect;

    #[test]
    fn simple_loop_emits_in_order() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let a = p.array("A", &[4]);
        p.body(|s| {
            s.for_(i, 0, 4, |s| {
                s.read(a, &[idx(i)]);
            });
        });
        let t = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap();
        let addrs: Vec<u64> = t.iter().map(|a| a.addr()).collect();
        assert_eq!(addrs, vec![0, 8, 16, 24]);
        assert!(t.iter().all(|a| a.gap() == 1));
    }

    #[test]
    fn column_major_addressing() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let j = p.var("j");
        let a = p.array("A", &[3, 2]);
        p.body(|s| {
            s.for_(j, 0, 2, |s| {
                s.for_(i, 0, 3, |s| {
                    s.read(a, &[idx(i), idx(j)]);
                });
            });
        });
        let t = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap();
        let addrs: Vec<u64> = t.iter().map(|a| a.addr()).collect();
        // Column-major: (0,0),(1,0),(2,0),(0,1),(1,1),(2,1)
        assert_eq!(addrs, vec![0, 8, 16, 24, 32, 40]);
    }

    #[test]
    fn descending_loop() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let a = p.array("A", &[4]);
        p.body(|s| {
            s.for_step(i, 3, -1, -1, |s| {
                s.read(a, &[idx(i)]);
            });
        });
        let t = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap();
        let addrs: Vec<u64> = t.iter().map(|a| a.addr()).collect();
        assert_eq!(addrs, vec![24, 16, 8, 0]);
    }

    #[test]
    fn triangular_bounds() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let j = p.var("j");
        let a = p.array("A", &[4, 4]);
        p.body(|s| {
            s.for_(i, 0, 4, |s| {
                s.for_(j, idx(i), 4, |s| {
                    s.read(a, &[idx(j), idx(i)]);
                });
            });
        });
        let t = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap();
        // 4 + 3 + 2 + 1 iterations.
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn indirect_subscript_reads_table() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let x = p.array("X", &[10]);
        let tab = p.table(vec![9, 0, 5]);
        p.body(|s| {
            s.for_(i, 0, 3, |s| {
                s.read_subs(x, vec![indirect(tab, idx(i))]);
            });
        });
        let t = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap();
        let addrs: Vec<u64> = t.iter().map(|a| a.addr()).collect();
        assert_eq!(addrs, vec![72, 0, 40]);
    }

    #[test]
    fn table_bounds_drive_loops() {
        // CSR-style: row pointers [0, 2, 5].
        let mut p = Program::new("t");
        let r = p.var("r");
        let k = p.var("k");
        let a = p.array("A", &[5]);
        let ptr = p.table(vec![0, 2, 5]);
        p.body(|s| {
            s.for_(r, 0, 2, |s| {
                s.for_(
                    k,
                    Bound::Table {
                        table: ptr,
                        index: idx(r),
                    },
                    Bound::Table {
                        table: ptr,
                        index: shift(r, 1),
                    },
                    |s| {
                        s.read(a, &[idx(k)]);
                    },
                );
            });
        });
        let t = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn out_of_bounds_subscript_is_an_error() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let a = p.array("A", &[4]);
        p.body(|s| {
            s.for_(i, 0, 5, |s| {
                s.read(a, &[idx(i)]);
            });
        });
        let err = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap_err();
        assert!(matches!(err, TraceError::OutOfBounds { value: 4, .. }));
        assert!(err.to_string().contains('A'));
    }

    #[test]
    fn table_out_of_range_is_an_error() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let x = p.array("X", &[10]);
        let tab = p.table(vec![0]);
        p.body(|s| {
            s.for_(i, 0, 3, |s| {
                s.read_subs(x, vec![indirect(tab, idx(i))]);
            });
        });
        let err = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap_err();
        assert!(matches!(err, TraceError::TableOutOfBounds { .. }));
    }

    #[test]
    fn tags_are_attached_to_entries() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let j = p.var("j");
        let x = p.array("X", &[8]);
        p.body(|s| {
            s.for_(i, 0, 2, |s| {
                s.for_(j, 0, 8, |s| {
                    s.read(x, &[idx(j)]); // temporal (invariant in i), spatial
                });
            });
        });
        let t = p
            .trace(&TraceOptions {
                seed: 0,
                gaps: false,
                levels: false,
            })
            .unwrap();
        assert!(t.iter().all(|a| a.temporal() && a.spatial()));
    }

    #[test]
    fn same_seed_reproduces_gaps() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let a = p.array("A", &[64]);
        p.body(|s| {
            s.for_(i, 0, 64, |s| {
                s.read(a, &[idx(i)]);
            });
        });
        let t1 = p
            .trace(&TraceOptions {
                seed: 9,
                gaps: true,
                levels: false,
            })
            .unwrap();
        let t2 = p
            .trace(&TraceOptions {
                seed: 9,
                gaps: true,
                levels: false,
            })
            .unwrap();
        assert_eq!(t1, t2);
        assert!(t1.iter().any(|a| a.gap() > 1));
    }

    #[test]
    fn literal_subscript_is_in_bounds() {
        let mut p = Program::new("t");
        let a = p.array("A", &[1]);
        p.body(|s| {
            s.read(a, &[lit(0)]);
        });
        assert_eq!(p.trace_default().len(), 1);
    }
}
