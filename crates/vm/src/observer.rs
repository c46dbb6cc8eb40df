//! Execution observers.
//!
//! The VM reports the events Code Phage's instrumentation consumes:
//! conditional branches (with the symbolic condition), allocations (with the
//! symbolic size) and statement boundaries (the candidate insertion points).
//! Input reads need no event of their own, because every value derived from
//! an input byte carries its symbolic shadow.  Higher-level analyses (branch
//! tracing, scope capture) live in `cp-taint` and are implemented as
//! observers.

use crate::state::{MachineState, Value};
use cp_symexpr::ExprRef;

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
    /// Symbolic condition, when the value depends on input bytes.
    pub expr: Option<ExprRef>,
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

    /// A simple statement finished executing.
    fn on_stmt_end(&mut self, event: &StmtEndEvent, state: &MachineState) {}

    /// A heap allocation was performed.
    fn on_alloc(
        &mut self,
        base: u64,
        size: &Value,
        size_expr: Option<&ExprRef>,
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
        let state = MachineState::new(0);
        observer.on_stmt_end(
            &StmtEndEvent {
                function: 0,
                invocation: 0,
                stmt: 1,
            },
            &state,
        );
    }
}
