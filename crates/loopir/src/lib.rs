//! Loop-nest IR, locality analysis and trace generation.
//!
//! The paper extracts its software hints with *simple* compiler techniques:
//! a reference is tagged **spatial** when the coefficient of the innermost
//! loop variable in its subscript is a known constant smaller than 4
//! elements (one 32-byte line of doubles), and **temporal** when it carries
//! a temporal self-dependence or a uniformly generated group dependence.
//! A loop body containing a `CALL` loses all its tags (no interprocedural
//! analysis). The instrumented source then emits one trace entry per
//! reference (the paper used Sage++ for this; see Figure 5).
//!
//! This crate reproduces that pipeline on a small loop-nest IR:
//!
//! * [`Program`] — arrays (column-major, explicit base addresses and
//!   leading dimensions), host-side integer tables for indirect accesses,
//!   and a statement tree of loops, references and calls;
//! * [`analysis`] — the tagging rules above, including the group-leader
//!   refinement visible in the paper's Figure 5 (within a uniformly
//!   generated group only the leading reference keeps its spatial tag);
//! * [`Program::trace`] — an interpreter that walks the nest and emits a
//!   [`sac_trace::Trace`] with tags and Figure-4b issue gaps attached.
//!
//! # Example: the paper's Figure 5 loop
//!
//! ```
//! use sac_loopir::{Program, idx, shift};
//!
//! let mut p = Program::new("fig5");
//! let n = 8i64;
//! let i = p.var("I");
//! let j = p.var("J");
//! let a = p.array("A", &[n, n + 1]);
//! let b = p.array("B", &[n, n + 1]);
//! let x = p.array("X", &[n]);
//! let y = p.array("Y", &[n]);
//! p.body(|s| {
//!     s.for_(i, 0, n, |s| {
//!         s.for_(j, 0, n, |s| {
//!             s.read(a, &[idx(i), idx(j)]);
//!             s.read(b, &[idx(j), idx(i)]);
//!             s.read(b, &[idx(j), shift(i, 1)]);
//!             s.read(x, &[idx(j)]);
//!             s.read(y, &[idx(i)]);
//!             s.write(y, &[idx(i)]);
//!         });
//!     });
//! });
//! let tags = p.analyze();
//! // A(I,J): no temporal, no spatial (innermost coefficient is the leading
//! // dimension); B(J,I): temporal, no spatial (group follower);
//! // B(J,I+1): temporal, spatial (group leader); X(J), Y(I), Y(I)=:
//! // temporal, spatial — exactly the tag column of Figure 5.
//! let bits: Vec<(bool, bool)> = tags.iter().map(|t| (t.temporal, t.spatial)).collect();
//! assert_eq!(
//!     bits,
//!     vec![
//!         (false, false),
//!         (true, false),
//!         (true, true),
//!         (true, true),
//!         (true, true),
//!         (true, true),
//!     ]
//! );
//! ```

#![warn(missing_docs)]

mod analysis_impl;
mod expr;
mod interp;
mod pretty;
mod program;
mod transform;
mod validate;

pub mod analysis {
    //! Locality analysis: the paper's tagging rules.
    pub use crate::analysis_impl::{analyze, analyze_levels, Tags};
}

pub use analysis_impl::Tags;
pub use expr::{aff, idx, lit, shift, AffineExpr, Coef, VarId};
pub use interp::{TraceError, TraceOptions};
pub use program::{
    indirect, ArrayDecl, ArrayId, BodyBuilder, Bound, Program, RefId, RefStmt, Stmt, Subscript,
    TableId,
};
pub use transform::TransformError;
pub use validate::{Verdict, Violation};
