//! # cp-lang
//!
//! The **Phage-C** language front end.
//!
//! Code Phage's donors and recipients are, in the paper, real Linux
//! applications compiled to x86 binaries.  In this reproduction they are
//! programs written in Phage-C — a small, C-like systems language with fixed
//! width integers, structs, pointers and heap allocation — compiled to the
//! stack bytecode of `cp-bytecode` and executed by the instrumented VM of
//! `cp-vm`.  The language is deliberately close to the subset of C that the
//! paper's patches live in: parsing loops over input bytes, size computations
//! with explicit casts, `malloc`-style allocation, and `if (...) { exit(1); }`
//! guard patches.
//!
//! The crate provides:
//!
//! * [`lexer`] / [`parser`] — text to AST,
//! * [`ast`] — the abstract syntax tree,
//! * [`sema`] — type checking, struct layout, frame layout and the *debug
//!   information* Code Phage's recipient-side analysis consumes (paper
//!   Section 3.3: "CP uses the debugging information from the recipient binary
//!   to identify the local and global variables available at that candidate
//!   insertion point"),
//! * [`pretty`] — a pretty printer that emits re-parseable source, and
//! * [`patch`] — source-level patch construction and insertion (the
//!   `if (...) { exit(1); }` checks CP transfers).
//!
//! ```
//! use cp_lang::parse_program;
//!
//! let source = r#"
//!     fn main() -> u32 {
//!         var x: u32 = 6;
//!         var y: u32 = 7;
//!         return x * y;
//!     }
//! "#;
//! let program = parse_program(source)?;
//! assert_eq!(program.functions.len(), 1);
//! # Ok::<(), cp_lang::LangError>(())
//! ```

pub mod ast;
pub mod debug;
pub mod lexer;
pub mod parser;
pub mod patch;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod token;
pub mod types;

pub use ast::{Expr, ExprKind, Function, Item, Program, Stmt, StmtKind};
pub use debug::{DebugInfo, FunctionDebug, StructLayout, VarDebug};
pub use patch::{Patch, PatchAction};
pub use sema::{analyze, AnalyzedProgram};
pub use span::Span;
pub use types::Type;

use std::fmt;

/// Errors produced by the Phage-C front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// What went wrong.
    pub message: String,
    /// Where in the source it went wrong, if known.
    pub span: Option<Span>,
}

impl LangError {
    /// Creates an error with a source location.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        LangError {
            message: message.into(),
            span: Some(span),
        }
    }

    /// Creates an error without a source location.
    pub fn general(message: impl Into<String>) -> Self {
        LangError {
            message: message.into(),
            span: None,
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "{} at {}", self.message, span),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for LangError {}

/// Convenience result alias for front-end operations.
pub type Result<T> = std::result::Result<T, LangError>;

/// Parses a Phage-C program from source text.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first lexical or syntactic problem
/// encountered.
pub fn parse_program(source: &str) -> Result<Program> {
    let tokens = lexer::lex(source)?;
    parser::Parser::new(tokens).parse_program()
}

/// Parses and type-checks a Phage-C program, producing the analyzed program
/// (AST plus debug information) the compiler and Code Phage consume.
///
/// # Errors
///
/// Returns a [`LangError`] for lexical, syntactic or semantic problems.
pub fn frontend(source: &str) -> Result<AnalyzedProgram> {
    let program = parse_program(source)?;
    sema::analyze(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_analyze_small_program() {
        let source = r#"
            struct Header { width: u16, height: u16, }
            fn main() -> u32 {
                var h: Header;
                h.width = 16 as u16;
                h.height = 8 as u16;
                return (h.width as u32) * (h.height as u32);
            }
        "#;
        let analyzed = frontend(source).expect("front end");
        assert_eq!(analyzed.program.functions.len(), 1);
        assert_eq!(analyzed.debug.structs.len(), 1);
    }

    #[test]
    fn error_reports_location() {
        let err = parse_program("fn main( {").unwrap_err();
        assert!(err.span.is_some());
        assert!(err.to_string().contains("at"));
    }
}
