//! # threadedc — a mini EARTH-C compiler for irregular reduction loops
//!
//! The paper's §4 describes a compiler analysis built on the EARTH-C
//! infrastructure: it recognizes irregular reduction loops, extracts
//! **reduction array sections** and **indirection array sections** (in
//! triplet notation), groups the reduction sections into **reference
//! groups** (Definition 1: sections accessed through the same set of
//! indirection sections), applies **loop fission** so each loop updates
//! a single reference group (introducing temporary arrays for scalars
//! shared across the fissioned loops), and finally emits one
//! LightInspector call plus phased threaded code per loop.
//!
//! This crate implements that pipeline over a C-like loop DSL:
//!
//! ```c
//! double X[n]; double W[e]; int IA1[e]; int IA2[e];
//! forall (i = 0; i < e; i++) {
//!     double f = W[i] * 0.5;
//!     X[IA1[i]] += f;
//!     X[IA2[i]] -= f;
//! }
//! ```
//!
//! Reductions need not be annotated: `X[IA[i]] = X[IA[i]] + f` is
//! recognized and normalized to the `+=` form, and statements through
//! indirection that are *not* reductions are rejected by the dependence
//! test with a [`Span`]-carrying [`Diagnostic`] instead of miscompiled.
//!
//! Pipeline stages (one module each):
//!
//! 1. [`lexer`] / [`parser`] — text → [`ast::Program`];
//! 2. [`analysis::normalize_program`] — reduction recognition (rewrites
//!    un-annotated self-accumulations into [`ast::Stmt::ReduceIndirect`]);
//! 3. [`sema`] — name resolution, kind/type checking;
//! 4. [`analysis`] — loop classification, array-section extraction,
//!    reference-group formation (Definition 1), and the dependence test;
//! 5. [`fission`] — loop fission by reference group, verified against
//!    the interpreter at compile time;
//! 6. [`codegen`] / [`lower`] — a [`codegen::CompiledLoop`] per
//!    fissioned loop, lowered *directly* to the CSR
//!    [`lightinspector::FlatPlan`] the PR 5 fast path streams — no
//!    nested-plan intermediate;
//! 7. [`interp`] — a direct sequential interpreter of the DSL, the
//!    reference the compiled execution is validated against;
//! 8. [`cache`] — a source-hash keyed compile cache for edit–rerun
//!    loops and the server's `SubmitSource` path.
//!
//! The end-to-end path (source text → phased execution on the EARTH
//! model) is exercised by the `compile_pipeline` example and the
//! integration tests.

pub mod analysis;
pub mod ast;
pub mod cache;
pub mod codegen;
pub mod fission;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod sema;

pub use analysis::{analyze_program, normalize_program, LoopClass, LoopInfo, RefGroup, Section};
pub use ast::{BinOp, Expr, Program, Stmt};
pub use cache::{source_hash, CompileCache};
pub use codegen::{
    compile, synthetic_bindings, CompiledLoop, CompiledProgram, ExecError, InterpKernel, LoopPlan,
    RegularLoop,
};
pub use fission::fission_loop;
pub use interp::{interpret, Bindings};
pub use lexer::{tokenize, Token};
pub use lower::{emit_flat_plans, FlatSummary};
pub use parser::parse;
pub use sema::{check, SemaError};

/// A source position: 1-based line and column. `col == 0` means "line
/// only" (synthesized nodes, whole-loop diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: usize,
    pub col: usize,
}

impl Span {
    pub fn new(line: usize, col: usize) -> Span {
        Span { line, col }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col > 0 {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            write!(f, "{}", self.line)
        }
    }
}

/// A compiler diagnostic carrying the source span of the offending
/// construct (1-based line, and column when known).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub span: Span,
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic anchored at a full span.
    pub fn at(span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            span,
            message: message.into(),
        }
    }

    /// A line-only diagnostic (column unknown).
    pub fn line(line: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            span: Span { line, col: 0 },
            message: message.into(),
        }
    }

    /// The 1-based line (0 when unknown).
    pub fn line_no(&self) -> usize {
        self.span.line
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.span, self.message)
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_with_and_without_column() {
        let d = Diagnostic::at(Span::new(3, 7), "bad");
        assert_eq!(d.to_string(), "line 3:7: bad");
        let d = Diagnostic::line(3, "bad");
        assert_eq!(d.to_string(), "line 3: bad");
    }
}
