//! # cp-bytecode
//!
//! The stack bytecode Phage-C programs compile to, together with the
//! AST-to-bytecode compiler and a disassembler.
//!
//! In the paper, Code Phage analyses donor applications directly as stripped
//! x86 binaries under Valgrind.  The bytecode produced by this crate plays the
//! role of those binaries: it exposes exactly the observation points the CP
//! instrumentation needs — arithmetic, data movement, conditional branches,
//! calls and allocation sites — and nothing else.  A compiled program can be
//! [`stripped`](program::CompiledProgram::strip) of its names, statement maps
//! and debug information, which is how the donor side of every experiment is
//! run; recipients keep their debug information because the paper's insertion
//! analysis requires it.
//!
//! [`compile`] lowers through the `cp-ir` mid-level IR, always optimizes
//! (see [`emit`]) and then fuses adjacent instruction pairs into
//! superinstructions ([`fuse`](fuse::fuse)) without moving any instruction,
//! so a fused program runs the same steps, pcs and events as the unfused
//! one.  The original single-pass backend survives as [`compile_direct`],
//! unfused: the reference the differential tests compare against.

pub mod compiler;
pub mod disasm;
pub mod emit;
pub mod fuse;
pub mod instr;
pub mod program;

pub use compiler::{compile_direct, CompileError};
pub use emit::compile;
pub use fuse::fuse;
pub use instr::{Instr, Intrinsic};
pub use program::{CompiledFunction, CompiledProgram, ParamSlot};

#[cfg(test)]
mod tests {
    use super::*;
    use cp_lang::frontend;

    #[test]
    fn compile_strip_removes_symbols_and_debug() {
        let analyzed = frontend(
            r#"
            fn helper(x: u32) -> u32 { return x + 1; }
            fn main() -> u32 { return helper(41); }
        "#,
        )
        .unwrap();
        let program = compile(&analyzed).unwrap();
        assert!(program.debug.is_some());
        assert!(program.functions.iter().all(|f| f.name.is_some()));
        let stripped = program.strip();
        assert!(stripped.debug.is_none());
        assert!(stripped.functions.iter().all(|f| f.name.is_none()));
        assert!(stripped
            .functions
            .iter()
            .all(|f| f.stmt_map.iter().all(|s| s.is_none())));
    }
}
