//! The bytecode instruction set.

use cp_symexpr::{BinOp, CastKind, UnOp, Width};

/// VM intrinsics callable from bytecode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `input_byte(offset: u64) -> u8` — the taint source.
    InputByte,
    /// `input_len() -> u64`.
    InputLen,
    /// `malloc(size: u64) -> u64` — heap allocation; an error-detection site.
    Malloc,
    /// `output(value: u64)` — append to the program's output trace.
    Output,
}

impl Intrinsic {
    /// Number of arguments the intrinsic pops.
    pub fn arg_count(self) -> usize {
        match self {
            Intrinsic::InputByte | Intrinsic::Malloc | Intrinsic::Output => 1,
            Intrinsic::InputLen => 0,
        }
    }

    /// Whether the intrinsic pushes a result.
    pub fn has_result(self) -> bool {
        !matches!(self, Intrinsic::Output)
    }

    /// The intrinsic corresponding to a Phage-C callee name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        match name {
            "input_byte" => Some(Intrinsic::InputByte),
            "input_len" => Some(Intrinsic::InputLen),
            "malloc" => Some(Intrinsic::Malloc),
            "output" => Some(Intrinsic::Output),
            _ => None,
        }
    }
}

/// A bytecode instruction for the Phage-C stack machine.
///
/// The machine has an operand stack of 64-bit values; every value additionally
/// carries its nominal width so that the instrumented VM can keep byte-accurate
/// shadow state.  Locals and globals live in addressable memory (frames are
/// carved out of a stack segment), so data-structure traversal sees a uniform
/// address space — the same property the paper relies on when it walks
/// recipient data structures from debug-info roots.
///
/// The last four variants are superinstructions: each runs an adjacent pair
/// of the others as one dispatch.  [`fuse`](crate::fuse::fuse) writes one
/// over the first instruction of its pair and leaves the second in place, so
/// a fused instruction continues two instructions on, while a jump to the
/// second still runs it alone.  A fused instruction counts the steps of
/// both halves and tests the step limit before each, and an event or a trap
/// of its second half reports the second instruction's pc, so a fused run
/// and an unfused one agree step for step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Push a constant of the given width.
    PushConst {
        /// Width of the constant.
        width: Width,
        /// Constant value (already truncated to `width`).
        value: u64,
    },
    /// Push the address of a slot in the current frame.
    FrameAddr {
        /// Byte offset within the frame.
        offset: usize,
    },
    /// Push the address of a global.
    GlobalAddr {
        /// Byte offset within the global segment.
        offset: usize,
    },
    /// Pop an address, load `width` bytes from it (little-endian) and push the
    /// value.
    Load {
        /// Width of the loaded value.
        width: Width,
    },
    /// Pop a value, pop an address and store the value (little-endian).
    Store {
        /// Width of the stored value.
        width: Width,
    },
    /// Pop two operands, apply a binary operator at `width`, push the result.
    Binary {
        /// Operator (signedness is encoded in the operator).
        op: BinOp,
        /// Operand width (comparisons push a 0/1 result).
        width: Width,
    },
    /// Pop one operand, apply a unary operator at `width`, push the result.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand width.
        width: Width,
    },
    /// Pop a value of width `from`, convert it, push a value of width `to`.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Source width.
        from: Width,
        /// Destination width.
        to: Width,
    },
    /// Unconditional jump to an instruction index within the same function.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Pop a condition; jump to `target` if it is zero.
    ///
    /// This is the conditional-branch observation point of the CP donor
    /// analysis: the direction taken and the symbolic condition are recorded
    /// here.
    JumpIfZero {
        /// Target instruction index.
        target: usize,
    },
    /// Call a user function; its arguments are on the stack (pushed left to
    /// right).
    Call {
        /// Index of the callee in the program's function table.
        function: usize,
    },
    /// Call a VM intrinsic.
    CallIntrinsic {
        /// Which intrinsic to call.
        intrinsic: Intrinsic,
    },
    /// Return from the current function, optionally carrying a value.
    Return {
        /// Whether a return value is popped from the callee and pushed on the
        /// caller's stack.
        has_value: bool,
    },
    /// Pop an exit status and terminate the program.
    Exit,
    /// Pop and discard the top of stack.
    Pop,
    /// Marks the completion of a simple source statement (assignment, variable
    /// declaration, call, return or exit).  The VM treats it as a no-op but
    /// reports it to observers: these are the program points Code Phage
    /// considers as candidate insertion points ("after statement `stmt` of the
    /// enclosing function").
    StmtEnd {
        /// Statement (program point) id within the enclosing function.
        stmt: usize,
    },
    /// `FrameAddr { offset }` then `Load { width }`: loads a frame slot.
    LoadLocal {
        /// Byte offset of the slot within the frame.
        offset: usize,
        /// Width of the loaded value.
        width: Width,
    },
    /// `PushConst` then `Binary { op, width }`: applies `op` with a
    /// constant right operand.
    BinaryImm {
        /// Operator.
        op: BinOp,
        /// Operand width.
        width: Width,
        /// The right operand as the `PushConst` pushed it, truncated to the
        /// push's width.
        value: u64,
    },
    /// A comparison `Binary { op, width }` then `JumpIfZero { target }`:
    /// jumps to `target` when the comparison is false.  The branch event
    /// reports the `JumpIfZero`'s pc.
    CompareJumpIfZero {
        /// Comparison operator.
        op: BinOp,
        /// Operand width.
        width: Width,
        /// Target instruction index.
        target: usize,
    },
    /// `Store { width }` then `StmtEnd { stmt }`: stores, then marks the end
    /// of statement `stmt`.
    StoreStmtEnd {
        /// Width of the stored value.
        width: Width,
        /// Statement (program point) id within the enclosing function.
        stmt: usize,
    },
}

impl Instr {
    /// Whether the instruction is a conditional branch whose pc branch
    /// events report: a `JumpIfZero`.  A fused `CompareJumpIfZero` reports
    /// the pc of the `JumpIfZero` it shadows, so it is not one.
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self, Instr::JumpIfZero { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_names_round_trip() {
        for (name, intrinsic) in [
            ("input_byte", Intrinsic::InputByte),
            ("input_len", Intrinsic::InputLen),
            ("malloc", Intrinsic::Malloc),
            ("output", Intrinsic::Output),
        ] {
            assert_eq!(Intrinsic::from_name(name), Some(intrinsic));
        }
        assert_eq!(Intrinsic::from_name("fopen"), None);
    }

    #[test]
    fn intrinsic_arity_and_results() {
        assert_eq!(Intrinsic::InputByte.arg_count(), 1);
        assert_eq!(Intrinsic::InputLen.arg_count(), 0);
        assert!(Intrinsic::Malloc.has_result());
        assert!(!Intrinsic::Output.has_result());
    }

    #[test]
    fn branch_classification() {
        assert!(Instr::JumpIfZero { target: 0 }.is_conditional_branch());
        assert!(!Instr::Jump { target: 0 }.is_conditional_branch());
    }
}
