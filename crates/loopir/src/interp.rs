//! The trace-emitting interpreter (the paper's source-level tracer).

use crate::analysis_impl::{analyze, Tags};
use crate::program::{ArrayId, Bound, Program, Stmt, Subscript, TableId};
use sac_trace::io::DEFAULT_CHUNK;
use sac_trace::{Access, GapModel, Trace};
use std::fmt;
use std::ops::Range;

/// Options for trace generation.
#[derive(Debug, Clone)]
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
    /// # Errors
    ///
    /// Returns [`TraceError`] if a subscript or table lookup evaluates out
    /// of range — this always indicates a bug in the workload definition.
    pub fn trace(&self, opts: &TraceOptions) -> Result<Trace, TraceError> {
        let mut trace = Trace::with_capacity(self.name(), 1024);
        self.trace_into(opts, |chunk| trace.extend(chunk.iter().copied()))?;
        Ok(trace)
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
        mut sink: impl FnMut(&[Access]),
    ) -> Result<(), TraceError> {
        let mut interp = Interp {
            p: self,
            refs: Vec::with_capacity(self.ref_count() as usize),
            dims: Vec::new(),
            terms: Vec::new(),
            gaps: opts.gaps.then(|| GapModel::seeded(opts.seed)),
            buf: Vec::with_capacity(DEFAULT_CHUNK),
            sink: &mut sink,
        };
        interp.lower(opts.levels);
        let mut env = vec![0i64; self.var_count()];
        let result = interp.run(self.stmts(), &mut env);
        if !interp.buf.is_empty() {
            (interp.sink)(&interp.buf);
        }
        result
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
    /// This reference's subscripts in [`Interp::dims`].
    dims: Range<usize>,
    /// The entry with its kind, tags, level and instruction id filled in;
    /// emitting stamps the address and gap on a copy.
    template: Access,
}

/// One subscript, flattened: the value is `constant + Σ coef · env[var]`,
/// read through `table` when the subscript is indirect.
struct LoweredDim {
    /// This subscript's `(var index, coef value)` terms in
    /// [`Interp::terms`].
    terms: Range<usize>,
    constant: i64,
    table: Option<TableId>,
    extent: i64,
    /// Column-major stride: the product of the preceding extents.
    stride: i64,
}

struct Interp<'a, F> {
    p: &'a Program,
    /// Indexed by [`crate::RefId`].
    refs: Vec<LoweredRef>,
    dims: Vec<LoweredDim>,
    terms: Vec<(usize, i64)>,
    /// `None` when every gap is 1.
    gaps: Option<GapModel>,
    buf: Vec<Access>,
    sink: &'a mut F,
}

impl<F: FnMut(&[Access])> Interp<'_, F> {
    /// Resolves every reference site: tags, level, array base, and the
    /// terms, extent and stride of each subscript.
    fn lower(&mut self, levels: bool) {
        let p = self.p;
        let tags = analyze(p);
        let levels = levels.then(|| crate::analysis_impl::analyze_levels(p));
        p.for_each_ref(|r| {
            let id = r.id().index();
            debug_assert_eq!(id, self.refs.len(), "references number in program order");
            let decl = p.array_decl(r.array());
            let start = self.dims.len();
            let mut stride = 1;
            for (k, sub) in r.subscripts().iter().enumerate() {
                let (expr, table) = match sub {
                    Subscript::Affine(e) => (e, None),
                    Subscript::Indirect { table, index } => (index, Some(*table)),
                };
                let terms_start = self.terms.len();
                self.terms
                    .extend(expr.terms().iter().map(|&(v, c)| (v.index(), c.value())));
                // Subscripts past the declared rank index an extent of 1.
                let extent = decl.dims().get(k).copied().unwrap_or(1);
                self.dims.push(LoweredDim {
                    terms: terms_start..self.terms.len(),
                    constant: expr.constant_term(),
                    table,
                    extent,
                    stride,
                });
                stride *= extent;
            }
            let level = levels.as_ref().map_or(0, |l| l[id]);
            self.refs.push(LoweredRef {
                base: decl.base(),
                array: r.array(),
                dims: start..self.dims.len(),
                template: Access::new(0, r.kind())
                    .with_temporal(tags[id].temporal)
                    .with_spatial(tags[id].spatial)
                    .with_spatial_level(level)
                    .with_instr(r.id().0),
            });
        });
    }

    fn run(&mut self, stmts: &[Stmt], env: &mut Vec<i64>) -> Result<(), TraceError> {
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
                    let lo = self.eval_bound(lo, env)?;
                    let hi = self.eval_bound(hi, env)?;
                    let mut v = lo;
                    while (*step > 0 && v < hi) || (*step < 0 && v > hi) {
                        env[var.index()] = v;
                        self.run(body, env)?;
                        v += step;
                    }
                }
                Stmt::Ref(r) => self.emit(r.id().index(), env)?,
                Stmt::Call => {}
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

    /// Emits one execution of reference `id`: evaluates and bounds-checks
    /// its subscripts in order, then stamps the address and a sampled gap
    /// on its template.
    #[inline]
    fn emit(&mut self, id: usize, env: &[i64]) -> Result<(), TraceError> {
        let r = &self.refs[id];
        let mut linear: i64 = 0;
        for (k, d) in self.dims[r.dims.clone()].iter().enumerate() {
            let mut v = d.constant;
            for &(var, coef) in &self.terms[d.terms.clone()] {
                v += coef * env[var];
            }
            if let Some(table) = d.table {
                v = self.lookup(table, v)?;
            }
            if v < 0 || v >= d.extent {
                return Err(TraceError::OutOfBounds {
                    array: self.p.array_decl(r.array).name().to_string(),
                    dim: k,
                    value: v,
                    extent: d.extent,
                });
            }
            linear += v * d.stride;
        }
        let access = r
            .template
            .with_addr(r.base + linear as u64 * sac_trace::WORD_BYTES);
        let gap = self.gaps.as_mut().map_or(1, GapModel::sample);
        self.buf.push(access.with_gap(gap));
        if self.buf.len() == DEFAULT_CHUNK {
            (self.sink)(&self.buf);
            self.buf.clear();
        }
        Ok(())
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
