//! The loop-nest program representation and its builder.

use crate::expr::{AffineExpr, VarId};
use sac_trace::AccessKind;
use std::fmt;

/// Identifier of an array declared in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub(crate) usize);

/// Identifier of a host-side integer table (index vectors, row pointers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub(crate) usize);

impl TableId {
    /// The table's declaration index (the `table` of
    /// [`crate::TraceError::TableOutOfBounds`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a static reference (one load/store site). Doubles as the
/// instruction id recorded in trace entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefId(pub(crate) u32);

impl RefId {
    /// The reference's index in program order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An array declaration: column-major, 8-byte elements, explicit base
/// address. The first dimension varies fastest, as in Fortran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    name: String,
    base: u64,
    dims: Vec<i64>,
}

impl ArrayDecl {
    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The array's base byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The array's extents, first dimension fastest-varying.
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.dims.iter().product::<i64>() as u64 * sac_trace::WORD_BYTES
    }
}

/// One subscript of a reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subscript {
    /// An affine function of the loop variables.
    Affine(AffineExpr),
    /// An indirect subscript: the value of `table[index]` (e.g.
    /// `X(Index(j2))` in the sparse matrix-vector kernel). Indirect
    /// subscripts defeat the compile-time analysis; the paper handles them
    /// with user directives.
    Indirect {
        /// The host-side integer table being read.
        table: TableId,
        /// The position read from the table, affine in the loop variables.
        index: AffineExpr,
    },
}

impl From<AffineExpr> for Subscript {
    fn from(e: AffineExpr) -> Self {
        Subscript::Affine(e)
    }
}

impl From<VarId> for Subscript {
    fn from(v: VarId) -> Self {
        Subscript::Affine(AffineExpr::var(v))
    }
}

/// A loop bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// An affine function of enclosing loop variables (constants included).
    Affine(AffineExpr),
    /// The value of `table[index]` — used for data-dependent bounds such as
    /// the CSR row pointers `D(j1)` / `D(j1+1)` of the sparse kernel.
    Table {
        /// The host-side integer table holding the bound.
        table: TableId,
        /// The position read from the table.
        index: AffineExpr,
    },
}

impl From<i64> for Bound {
    fn from(k: i64) -> Self {
        Bound::Affine(AffineExpr::constant(k))
    }
}

impl From<AffineExpr> for Bound {
    fn from(e: AffineExpr) -> Self {
        Bound::Affine(e)
    }
}

impl From<VarId> for Bound {
    fn from(v: VarId) -> Self {
        Bound::Affine(AffineExpr::var(v))
    }
}

/// A static reference site (one load or store in the source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefStmt {
    pub(crate) id: RefId,
    pub(crate) array: ArrayId,
    pub(crate) subs: Vec<Subscript>,
    pub(crate) kind: AccessKind,
    /// User-directive override of the computed tags (`(temporal, spatial)`).
    pub(crate) force_tags: Option<(bool, bool)>,
}

impl RefStmt {
    /// The reference id (program order).
    pub fn id(&self) -> RefId {
        self.id
    }

    /// The referenced array.
    pub fn array(&self) -> ArrayId {
        self.array
    }

    /// The subscripts, first dimension first.
    pub fn subscripts(&self) -> &[Subscript] {
        &self.subs
    }

    /// Load or store.
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    /// The user-directive tag override, if any.
    pub fn forced_tags(&self) -> Option<(bool, bool)> {
        self.force_tags
    }
}

/// A statement of the loop nest.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `DO var = lo, hi-1, step` (half-open upper bound).
    For {
        /// The loop variable.
        var: VarId,
        /// Lower bound (inclusive).
        lo: Bound,
        /// Upper bound (exclusive).
        hi: Bound,
        /// Step; must be non-zero. Negative steps iterate downward while
        /// the value stays *greater* than `hi`.
        step: i64,
        /// A *driver* loop: iterated by the tracer but invisible to the
        /// locality analysis. Models a time-step or phase loop whose body
        /// is a subroutine call in the original program — the compiler
        /// analyzes each invocation's nests without seeing the outer
        /// repetition, so no temporal invariance is derived from it.
        opaque: bool,
        /// The loop body.
        body: Vec<Stmt>,
    },
    /// A memory reference.
    Ref(RefStmt),
    /// A `CALL` statement: the paper's analysis clears every tag in the
    /// enclosing loop (no interprocedural analysis).
    Call,
}

/// A complete loop-nest program: arrays, tables, and a statement tree.
///
/// See the crate-level example for typical construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    name: String,
    vars: Vec<String>,
    arrays: Vec<ArrayDecl>,
    tables: Vec<Vec<i64>>,
    body: Vec<Stmt>,
    next_base: u64,
    ref_count: u32,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            ..Program::default()
        }
    }

    /// The program name (also used as the trace name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a loop variable.
    pub fn var(&mut self, name: impl Into<String>) -> VarId {
        self.vars.push(name.into());
        VarId(self.vars.len() - 1)
    }

    /// Declares a column-major array of doubles and assigns the next free
    /// base address (arrays are packed back to back, as in a Fortran
    /// common block, so mapping conflicts between arrays are realistic).
    ///
    /// # Panics
    ///
    /// Panics if any extent is non-positive.
    pub fn array(&mut self, name: impl Into<String>, dims: &[i64]) -> ArrayId {
        let base = self.next_base;
        self.array_at(name, dims, base)
    }

    /// Declares an array at an explicit base address (for controlled
    /// interference experiments such as the leading-dimension sweep of
    /// Figure 11b).
    ///
    /// # Panics
    ///
    /// Panics if any extent is non-positive.
    pub fn array_at(&mut self, name: impl Into<String>, dims: &[i64], base: u64) -> ArrayId {
        assert!(
            !dims.is_empty() && dims.iter().all(|&d| d > 0),
            "array extents must be positive"
        );
        let decl = ArrayDecl {
            name: name.into(),
            base,
            dims: dims.to_vec(),
        };
        let end = base + decl.size_bytes();
        self.next_base = self.next_base.max(end);
        self.arrays.push(decl);
        ArrayId(self.arrays.len() - 1)
    }

    /// Registers a host-side integer table (index vectors, row pointers).
    pub fn table(&mut self, values: Vec<i64>) -> TableId {
        self.tables.push(values);
        TableId(self.tables.len() - 1)
    }

    /// Builds the program body with a [`BodyBuilder`].
    ///
    /// Calling `body` again replaces the previous body and renumbers
    /// references from zero.
    pub fn body(&mut self, f: impl FnOnce(&mut BodyBuilder)) {
        let mut b = BodyBuilder {
            stmts: Vec::new(),
            next_ref: 0,
        };
        f(&mut b);
        self.body = b.stmts;
        self.ref_count = b.next_ref;
    }

    /// The statement tree.
    pub fn stmts(&self) -> &[Stmt] {
        &self.body
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Looks up an array declaration.
    pub fn array_decl(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// Borrows a host table.
    pub fn table_values(&self, id: TableId) -> &[i64] {
        &self.tables[id.0]
    }

    /// Borrows a host table by declaration index (for tooling that
    /// inspects a program it did not build).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn table_values_at(&self, index: usize) -> &[i64] {
        &self.tables[index]
    }

    /// Number of registered host tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of declared loop variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Names of the declared loop variables, indexed by [`VarId`].
    pub fn var_names(&self) -> &[String] {
        &self.vars
    }

    /// Number of static references in the body.
    pub fn ref_count(&self) -> u32 {
        self.ref_count
    }

    /// Total footprint of all arrays in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays
            .iter()
            .map(|a| a.base + a.size_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Clones the declarations (name, variables, arrays, tables) without
    /// the body — the starting point for transformations that rebuild
    /// the statement tree.
    pub(crate) fn clone_shell(&self) -> Program {
        Program {
            name: self.name.clone(),
            vars: self.vars.clone(),
            arrays: self.arrays.clone(),
            tables: self.tables.clone(),
            body: Vec::new(),
            next_base: self.next_base,
            ref_count: 0,
        }
    }

    /// Installs a transformed body, renumbering reference ids in the new
    /// program order.
    pub(crate) fn replace_body(&mut self, body: Vec<Stmt>) {
        fn renumber(stmts: &mut [Stmt], next: &mut u32) {
            for s in stmts {
                match s {
                    Stmt::For { body, .. } => renumber(body, next),
                    Stmt::Ref(r) => {
                        r.id = RefId(*next);
                        *next += 1;
                    }
                    Stmt::Call => {}
                }
            }
        }
        self.body = body;
        let mut next = 0;
        renumber(&mut self.body, &mut next);
        self.ref_count = next;
    }

    /// Visits every reference in program order.
    pub fn for_each_ref(&self, mut f: impl FnMut(&RefStmt)) {
        fn walk(stmts: &[Stmt], f: &mut impl FnMut(&RefStmt)) {
            for s in stmts {
                match s {
                    Stmt::For { body, .. } => walk(body, f),
                    Stmt::Ref(r) => f(r),
                    Stmt::Call => {}
                }
            }
        }
        walk(&self.body, &mut f);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program '{}': {} arrays, {} refs, footprint {} bytes",
            self.name,
            self.arrays.len(),
            self.ref_count,
            self.footprint_bytes()
        )?;
        for a in &self.arrays {
            writeln!(
                f,
                "  {}{:?} @ {:#x} ({} bytes)",
                a.name,
                a.dims,
                a.base,
                a.size_bytes()
            )?;
        }
        Ok(())
    }
}

/// Incrementally builds a statement list; obtained from
/// [`Program::body`] and from nested [`BodyBuilder::for_`] calls.
#[derive(Debug)]
pub struct BodyBuilder {
    stmts: Vec<Stmt>,
    next_ref: u32,
}

impl BodyBuilder {
    /// Appends a loop `for var in lo..hi` (step 1) with a nested body.
    pub fn for_(
        &mut self,
        var: VarId,
        lo: impl Into<Bound>,
        hi: impl Into<Bound>,
        f: impl FnOnce(&mut BodyBuilder),
    ) {
        self.for_step(var, lo, hi, 1, f);
    }

    /// Appends a loop with an explicit step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn for_step(
        &mut self,
        var: VarId,
        lo: impl Into<Bound>,
        hi: impl Into<Bound>,
        step: i64,
        f: impl FnOnce(&mut BodyBuilder),
    ) {
        self.push_loop(var, lo.into(), hi.into(), step, false, f);
    }

    /// Appends a *driver* loop: executed by the tracer but outside the
    /// analysis scope, like a time-step loop whose body is a subroutine
    /// call in the original code. References gain no temporal invariance
    /// from a driver loop, and a reference directly in its body counts as
    /// "outside loops" (untagged).
    pub fn for_driver(
        &mut self,
        var: VarId,
        lo: impl Into<Bound>,
        hi: impl Into<Bound>,
        f: impl FnOnce(&mut BodyBuilder),
    ) {
        self.push_loop(var, lo.into(), hi.into(), 1, true, f);
    }

    fn push_loop(
        &mut self,
        var: VarId,
        lo: Bound,
        hi: Bound,
        step: i64,
        opaque: bool,
        f: impl FnOnce(&mut BodyBuilder),
    ) {
        assert!(step != 0, "loop step must be non-zero");
        let mut inner = BodyBuilder {
            stmts: Vec::new(),
            next_ref: self.next_ref,
        };
        f(&mut inner);
        self.next_ref = inner.next_ref;
        self.stmts.push(Stmt::For {
            var,
            lo,
            hi,
            step,
            opaque,
            body: inner.stmts,
        });
    }

    /// Appends a load with affine subscripts.
    pub fn read(&mut self, array: ArrayId, subs: &[AffineExpr]) -> RefId {
        self.push_ref(array, affine_subs(subs), AccessKind::Read, None)
    }

    /// Appends a store with affine subscripts.
    pub fn write(&mut self, array: ArrayId, subs: &[AffineExpr]) -> RefId {
        self.push_ref(array, affine_subs(subs), AccessKind::Write, None)
    }

    /// Appends a load with explicit subscripts (allows indirect ones).
    pub fn read_subs(&mut self, array: ArrayId, subs: Vec<Subscript>) -> RefId {
        self.push_ref(array, subs, AccessKind::Read, None)
    }

    /// Appends a store with explicit subscripts (allows indirect ones).
    pub fn write_subs(&mut self, array: ArrayId, subs: Vec<Subscript>) -> RefId {
        self.push_ref(array, subs, AccessKind::Write, None)
    }

    /// Appends a load whose tags are forced by a user directive
    /// (`(temporal, spatial)`), bypassing the analysis — the paper's
    /// escape hatch for sparse codes (§4.1).
    pub fn read_tagged(
        &mut self,
        array: ArrayId,
        subs: Vec<Subscript>,
        temporal: bool,
        spatial: bool,
    ) -> RefId {
        self.push_ref(array, subs, AccessKind::Read, Some((temporal, spatial)))
    }

    /// Appends a store with forced tags.
    pub fn write_tagged(
        &mut self,
        array: ArrayId,
        subs: Vec<Subscript>,
        temporal: bool,
        spatial: bool,
    ) -> RefId {
        self.push_ref(array, subs, AccessKind::Write, Some((temporal, spatial)))
    }

    /// Appends a `CALL` statement.
    pub fn call(&mut self) {
        self.stmts.push(Stmt::Call);
    }

    fn push_ref(
        &mut self,
        array: ArrayId,
        subs: Vec<Subscript>,
        kind: AccessKind,
        force_tags: Option<(bool, bool)>,
    ) -> RefId {
        let id = RefId(self.next_ref);
        self.next_ref += 1;
        self.stmts.push(Stmt::Ref(RefStmt {
            id,
            array,
            subs,
            kind,
            force_tags,
        }));
        id
    }
}

/// Builds an indirect subscript `table[index]`.
pub fn indirect(table: TableId, index: AffineExpr) -> Subscript {
    Subscript::Indirect { table, index }
}

fn affine_subs(subs: &[AffineExpr]) -> Vec<Subscript> {
    subs.iter().cloned().map(Subscript::Affine).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{idx, lit};

    #[test]
    fn arrays_are_packed_back_to_back() {
        let mut p = Program::new("t");
        let a = p.array("A", &[10]);
        let b = p.array("B", &[4, 5]);
        assert_eq!(p.array_decl(a).base(), 0);
        assert_eq!(p.array_decl(a).size_bytes(), 80);
        assert_eq!(p.array_decl(b).base(), 80);
        assert_eq!(p.array_decl(b).size_bytes(), 160);
        assert_eq!(p.footprint_bytes(), 240);
    }

    #[test]
    fn explicit_base_does_not_collide_with_auto() {
        let mut p = Program::new("t");
        let _a = p.array_at("A", &[8], 0x1000);
        let b = p.array("B", &[8]);
        assert_eq!(p.array_decl(b).base(), 0x1000 + 64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let mut p = Program::new("t");
        let _ = p.array("A", &[0]);
    }

    #[test]
    fn ref_ids_number_in_program_order() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let a = p.array("A", &[10]);
        let mut ids = Vec::new();
        p.body(|s| {
            ids.push(s.read(a, &[lit(0)]));
            s.for_(i, 0, 10, |s| {
                ids.push(s.read(a, &[idx(i)]));
                ids.push(s.write(a, &[idx(i)]));
            });
        });
        assert_eq!(ids, vec![RefId(0), RefId(1), RefId(2)]);
        assert_eq!(p.ref_count(), 3);
    }

    #[test]
    fn rebuilding_body_renumbers() {
        let mut p = Program::new("t");
        let a = p.array("A", &[4]);
        p.body(|s| {
            s.read(a, &[lit(0)]);
            s.read(a, &[lit(1)]);
        });
        assert_eq!(p.ref_count(), 2);
        p.body(|s| {
            s.read(a, &[lit(2)]);
        });
        assert_eq!(p.ref_count(), 1);
    }

    #[test]
    fn for_each_ref_visits_in_order() {
        let mut p = Program::new("t");
        let i = p.var("i");
        let a = p.array("A", &[10]);
        p.body(|s| {
            s.for_(i, 0, 10, |s| {
                s.read(a, &[idx(i)]);
                s.call();
                s.write(a, &[idx(i)]);
            });
        });
        let mut seen = Vec::new();
        p.for_each_ref(|r| seen.push((r.id(), r.kind())));
        assert_eq!(
            seen,
            vec![(RefId(0), AccessKind::Read), (RefId(1), AccessKind::Write)]
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_step_rejected() {
        let mut p = Program::new("t");
        let i = p.var("i");
        p.body(|s| {
            s.for_step(i, 0, 10, 0, |_| {});
        });
    }

    #[test]
    fn display_mentions_arrays() {
        let mut p = Program::new("mv");
        let _ = p.array("A", &[2, 2]);
        let text = p.to_string();
        assert!(text.contains("mv") && text.contains('A'));
    }
}
