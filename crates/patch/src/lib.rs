//! # cp-patch
//!
//! The patch insertion and validation engine — the subsystem that turns a
//! *translated* check into a *shipped* fix (paper Sections 3.4–3.5).
//!
//! `cp-solver` ends with a donor condition whose fields are provably equal
//! to recipient expressions.  This crate closes the remaining gap:
//!
//! * [`insert`] — **insertion-point selection**: enumerate the recipient's
//!   statement boundaries in first-execution order, intersect each site's
//!   in-scope variables (debug information + the recorded
//!   [`VarValueRecord`]s) with the translated check's fields, and rank
//!   viable sites by how often the run executed them, then earliest-first
//!   so the input is rejected before the error propagates;
//! * [`lower`] — **guard lowering**: render the condition as Phage-C source
//!   over the chosen variables with width-correct unsigned casts and
//!   signedness-correct operand casts, mirroring `cp_symexpr::eval` exactly;
//! * [`mod@validate`] — **validation**: apply the patch, recompile through the
//!   pretty-printer → front-end path, require the donor-error input to
//!   terminate cleanly with no detector firing and every benign corpus
//!   input to behave byte-identically to the unpatched program;
//! * [`engine`] — [`transfer`], the one loop that offers donor checks,
//!   trying each check's planned patches in rank order until one validates.
//!
//! `cp_core::Session::transfer` passes it a recorded recipient trace (its
//! observation, and its run, which stands in for the baseline's run on the
//! error input), the donor's checks and the session's compiled recipient;
//! the corpus crate's batch runner sweeps every scenario through it for the
//! Figure 8 report.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod insert;
pub mod lower;
pub mod validate;

pub use engine::{transfer, FailedAttempt, TransferError, TransferOutcome, TransferSpec};
pub use insert::{
    ChosenBinding, InsertionSite, Observation, PlannedPatch, VarTable, VarValueRecord,
};
pub use lower::{lower_guard, LowerError, VarRef};
pub use validate::{validate, Baseline, BenignComparison, InputOutcome, ValidationReport, Verdict};
