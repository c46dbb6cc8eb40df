//! Execution observers.
//!
//! The VM reports the events Code Phage's instrumentation consumes:
//! conditional branches (with the symbolic condition), allocations (with the
//! symbolic size) and statement boundaries (the candidate insertion points).
//! Input reads need no event of their own, because every value derived from
//! an input byte carries its symbolic shadow.  A symbolic condition or size
//! is a tape entry: an observer that keeps it resolves it later through the
//! run's tape, and one that reads it at once calls
//! [`MachineState::resolve`].  At a statement boundary an observer may also
//! read a variable's value as an entry with [`MachineState::load_entry`].
//! `cp-core`'s recorder, which builds a session's trace, is such an
//! observer.

use crate::state::{MachineState, Value};
use cp_symexpr::TapeRef;

/// A conditional-branch execution event.
#[derive(Debug, Clone)]
pub struct BranchEvent {
    /// Function index of the branch instruction.
    pub function: usize,
    /// Instruction index of the branch instruction.
    pub pc: usize,
    /// Invocation id of the executing frame.
    pub invocation: u64,
    /// Whether the branch was taken (the condition was zero and control jumped
    /// to the target).
    pub taken: bool,
    /// Concrete condition value.
    pub condition: Value,
    /// Tape entry of the symbolic condition, when the value depends on
    /// input bytes.
    pub expr: Option<TapeRef>,
}

/// A statement-boundary event: statement `stmt` of `function` just completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtEndEvent {
    /// Function index.
    pub function: usize,
    /// Invocation id of the executing frame.
    pub invocation: u64,
    /// Statement (program point) id within the function.
    pub stmt: usize,
}

/// Observer of VM execution events.
///
/// All methods have empty default implementations, so observers only implement
/// what they need.
#[allow(unused_variables)]
pub trait Observer {
    /// A conditional branch executed.
    fn on_branch(&mut self, event: &BranchEvent, state: &MachineState) {}

    /// A simple statement finished executing.  The state is mutable only so
    /// that [`MachineState::load_entry`] can record a load on the tape; no
    /// other public method changes it.
    fn on_stmt_end(&mut self, event: &StmtEndEvent, state: &mut MachineState) {}

    /// A heap allocation was performed; `size_expr` is the tape entry of
    /// the symbolic size, when it depends on input bytes.
    fn on_alloc(
        &mut self,
        base: u64,
        size: &Value,
        size_expr: Option<TapeRef>,
        state: &MachineState,
    ) {
    }
}

/// An observer that ignores every event (used for plain, uninstrumented runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_accepts_events() {
        let mut observer = NullObserver;
        let mut state = MachineState::new(0);
        observer.on_stmt_end(
            &StmtEndEvent {
                function: 0,
                invocation: 0,
                stmt: 1,
            },
            &mut state,
        );
    }
}
