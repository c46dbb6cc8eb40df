//! # cp-vm
//!
//! The instrumented virtual machine that executes compiled Phage-C programs.
//!
//! In the paper, Code Phage observes donor and recipient executions through a
//! fine-grained dynamic taint analysis built on Valgrind (Section 3.2): every
//! input byte gets a unique label, arithmetic / data-movement / logic
//! instructions propagate labels, and additional instrumentation reconstructs
//! the full symbolic expression of each computed value.  This VM provides the
//! same observation surface for Phage-C bytecode:
//!
//! * **byte-level taint and symbolic shadow state** — every operand-stack slot
//!   and every stored memory word that depends on input bytes carries its
//!   entry on the run's [`cp_symexpr::Tape`], which records how it was
//!   computed from input bytes; memory keeps it byte-granular, one cover per
//!   byte beside the byte's segment, so a load finds its shadow in at most
//!   two reads per byte (see [`state`]).  An entry costs an append; it
//!   becomes an interned [`cp_symexpr::SymExpr`] only when a reader resolves
//!   it,
//! * **conditional-branch events** with the branch direction and the symbolic
//!   condition's entry (the raw material for candidate-check discovery),
//! * **allocation and statement-boundary events** via the [`Observer`]
//!   trait,
//! * **error detectors** for the paper's three error classes: out-of-bounds
//!   heap accesses, divide-by-zero, and integer overflow flowing into an
//!   allocation size (the property DIODE targets), and
//! * a uniform address space (globals / stack frames / heap) so that the
//!   recipient-side data-structure traversal can walk memory from debug-info
//!   roots.
//!
//! Both kinds of run execute one interpreter loop, generic over what a value
//! carries beside it, and each runs its program to completion; there is no
//! public single-stepping machine.  [`run_with_observer`], generic over its
//! observer, carries the symbolic shadow to it by static dispatch and returns
//! the tape with the result.  Plain [`run`], which serves the validation
//! re-runs (Section 3.5), carries `()` to a [`NullObserver`], so it builds
//! no shadow state, records no tape entry and makes no observer call, and
//! returns the same termination, outputs and step count.

pub mod error;
pub mod observer;
pub mod state;
pub mod vm;

pub use error::VmError;
pub use observer::{BranchEvent, NullObserver, Observer, StmtEndEvent};
pub use state::{MachineState, Value};
pub use vm::{run, run_with_observer, RunConfig, RunResult, Termination};

/// Base address of the global data segment.
pub const GLOBAL_BASE: u64 = 0x1000;
/// Base address of the stack segment (frames grow upward from here).
pub const STACK_BASE: u64 = 0x0010_0000;
/// Size of the stack segment in bytes.
pub const STACK_SIZE: u64 = 0x0010_0000;
/// Base address of the heap segment.
pub const HEAP_BASE: u64 = 0x1000_0000;
/// Guard gap left between heap allocations so small overruns land in unmapped
/// space and are detected.
pub const HEAP_GUARD: u64 = 64;
/// Call depth at which a `Call` traps with [`VmError::CallDepthExceeded`].
pub const MAX_CALL_DEPTH: usize = 256;
/// Largest single heap allocation; a larger request traps with
/// [`VmError::AllocationTooLarge`].
pub const MAX_ALLOC: u64 = 1 << 30;

#[cfg(test)]
mod tests {
    use super::*;
    use cp_bytecode::compile;
    use cp_lang::frontend;

    fn run_source(source: &str, input: &[u8]) -> RunResult {
        let program = compile(&frontend(source).unwrap()).unwrap();
        run(&program, input, &RunConfig::default())
    }

    #[test]
    fn end_to_end_arithmetic() {
        let result = run_source("fn main() -> u32 { return 6 * 7; }", &[]);
        assert_eq!(result.termination, Termination::Returned(42));
    }

    #[test]
    fn end_to_end_input_parsing() {
        let result = run_source(
            r#"
            fn main() -> u32 {
                var width: u16 = ((input_byte(0) as u16) << 8) | (input_byte(1) as u16);
                output(width as u64);
                return width as u32;
            }
        "#,
            &[0x12, 0x34],
        );
        assert_eq!(result.termination, Termination::Returned(0x1234));
        assert_eq!(result.outputs, vec![0x1234]);
    }
}
