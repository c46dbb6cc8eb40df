//! Runtime errors detected by the VM.

use std::fmt;

/// An error detected while executing a program.
///
/// The first three variants correspond to the three error classes of the
/// paper's evaluation (out-of-bounds access, divide-by-zero, integer overflow
/// at an allocation site).  The remainder are resource/robustness faults of
/// the VM itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A heap access outside every live allocation.
    OutOfBounds {
        /// The faulting address.
        addr: u64,
        /// Number of bytes accessed.
        len: usize,
        /// Whether the access was a write.
        write: bool,
    },
    /// Division or remainder by zero.
    DivideByZero {
        /// Function index of the faulting instruction.
        function: usize,
        /// Instruction index of the faulting instruction.
        pc: usize,
    },
    /// An arithmetic overflow flowed into the size argument of an allocation.
    ///
    /// This is the property the DIODE error-discovery tool targets; the VM
    /// reports it at the `malloc` call with the (wrapped) requested size.
    OverflowIntoAllocation {
        /// The wrapped size passed to the allocator.
        requested: u64,
    },
    /// An access to an address outside every mapped segment.
    UnmappedAccess {
        /// The faulting address.
        addr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// The stack segment was exhausted.
    StackOverflow,
    /// The configured step budget was exhausted.
    StepLimitExceeded,
    /// The call depth reached [`MAX_CALL_DEPTH`](crate::MAX_CALL_DEPTH).
    CallDepthExceeded,
    /// The requested allocation exceeds [`MAX_ALLOC`](crate::MAX_ALLOC).
    AllocationTooLarge {
        /// Requested size in bytes.
        requested: u64,
    },
    /// Malformed bytecode (operand-stack underflow, bad function index, …).
    InvalidBytecode(String),
}

impl VmError {
    /// Whether this error is one of the three application error classes the
    /// paper's evaluation targets (as opposed to a VM resource fault).
    pub fn is_application_error(&self) -> bool {
        matches!(
            self,
            VmError::OutOfBounds { .. }
                | VmError::DivideByZero { .. }
                | VmError::OverflowIntoAllocation { .. }
                | VmError::UnmappedAccess { .. }
        )
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfBounds { addr, len, write } => write!(
                f,
                "out-of-bounds {} of {} byte(s) at {addr:#x}",
                if *write { "write" } else { "read" },
                len
            ),
            VmError::DivideByZero { function, pc } => {
                write!(f, "divide by zero in function {function} at pc {pc}")
            }
            VmError::OverflowIntoAllocation { requested } => write!(
                f,
                "integer overflow flowed into allocation size ({requested} bytes requested)"
            ),
            VmError::UnmappedAccess { addr, write } => write!(
                f,
                "{} of unmapped address {addr:#x}",
                if *write { "write" } else { "read" }
            ),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::StepLimitExceeded => write!(f, "step limit exceeded"),
            VmError::CallDepthExceeded => write!(f, "call depth exceeded"),
            VmError::AllocationTooLarge { requested } => {
                write!(
                    f,
                    "allocation of {requested} bytes exceeds the configured maximum"
                )
            }
            VmError::InvalidBytecode(message) => write!(f, "invalid bytecode: {message}"),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn application_error_classification() {
        assert!(VmError::OutOfBounds {
            addr: 0,
            len: 1,
            write: true
        }
        .is_application_error());
        assert!(VmError::DivideByZero { function: 0, pc: 0 }.is_application_error());
        assert!(VmError::OverflowIntoAllocation { requested: 16 }.is_application_error());
        assert!(!VmError::StepLimitExceeded.is_application_error());
        assert!(!VmError::StackOverflow.is_application_error());
    }

    #[test]
    fn display_is_informative() {
        let e = VmError::OutOfBounds {
            addr: 0x1000_0040,
            len: 4,
            write: true,
        };
        assert!(e.to_string().contains("out-of-bounds write"));
    }
}
