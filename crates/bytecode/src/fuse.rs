//! Superinstructions, fused in place.
//!
//! A stack interpreter pays one dispatch per instruction, and a few adjacent
//! pairs make up much of what Phage-C programs execute: a local's address
//! and its load, a constant and the operator that consumes it, a comparison
//! and the branch on it, and a store and the end of its statement.  [`fuse`]
//! gives each such pair one instruction, as superinstructions do (Proebsting,
//! POPL 1995; Ertl & Gregg, PLDI 2003), without moving any instruction.
//!
//! The fused instruction is written over the first of its pair, and the
//! second stays where it was.  So code length, `stmt_map` and every jump
//! target are unchanged, a jump into the second instruction runs it alone,
//! and the VM, which counts both steps of a fused instruction and reports the
//! second half's events and traps at the second instruction's pc, runs the
//! fused program exactly as it runs the unfused one: the same steps, pcs,
//! observer events and tape entries.

use crate::instr::Instr;
use crate::program::CompiledProgram;

/// Fuses every function of `program` (see the module docs).  Pairs are taken
/// left to right and do not overlap, so in `push c; lt; jz` the push and the
/// comparison fuse and the branch runs alone.
pub fn fuse(program: &mut CompiledProgram) {
    for function in &mut program.functions {
        let code = &mut function.code;
        let mut pc = 0;
        while pc + 1 < code.len() {
            match fused(&code[pc], &code[pc + 1]) {
                Some(instr) => {
                    code[pc] = instr;
                    pc += 2;
                }
                None => pc += 1,
            }
        }
    }
}

/// The superinstruction that runs `first` and then `second`, if there is one.
fn fused(first: &Instr, second: &Instr) -> Option<Instr> {
    Some(match (first, second) {
        (&Instr::FrameAddr { offset }, &Instr::Load { width }) => {
            Instr::LoadLocal { offset, width }
        }
        (&Instr::PushConst { width: push, value }, &Instr::Binary { op, width }) => {
            Instr::BinaryImm {
                op,
                width,
                value: push.truncate(value),
            }
        }
        (&Instr::Binary { op, width }, &Instr::JumpIfZero { target }) if op.is_comparison() => {
            Instr::CompareJumpIfZero { op, width, target }
        }
        (&Instr::Store { width }, &Instr::StmtEnd { stmt }) => Instr::StoreStmtEnd { width, stmt },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, compile_direct};
    use cp_lang::frontend;
    use cp_symexpr::{BinOp, Width};

    /// The steps `instr` counts: two for a superinstruction, one for any
    /// other.
    fn steps(instr: &Instr) -> usize {
        match instr {
            Instr::LoadLocal { .. }
            | Instr::BinaryImm { .. }
            | Instr::CompareJumpIfZero { .. }
            | Instr::StoreStmtEnd { .. } => 2,
            _ => 1,
        }
    }

    /// The recipient of the benchmark's `long-input` workload: a loop sums a
    /// body whose length the header gives.
    const LONG_RECIPIENT: &str = r#"
        fn main() -> u32 {
            var rate: u32 = input_byte(0) as u32;
            var len: u64 = ((input_byte(1) as u64) << 8) | (input_byte(2) as u64);
            var sum: u32 = 0;
            var i: u64 = 0;
            while (i < len) {
                sum = sum + (input_byte(i + 3) as u32);
                i = i + 1;
            }
            var mean: u32 = sum / rate;
            output(mean as u64);
            return 0;
        }
    "#;

    #[test]
    fn fusion_keeps_length_statements_and_second_instructions() {
        let analyzed = frontend(LONG_RECIPIENT).unwrap();
        let direct = compile_direct(&analyzed).unwrap();
        let mut fused = direct.clone();
        fuse(&mut fused);
        for (before, after) in direct.functions.iter().zip(&fused.functions) {
            assert_eq!(before.code.len(), after.code.len());
            assert_eq!(before.stmt_map, after.stmt_map);
            let mut pc = 0;
            while pc < after.code.len() {
                let width = steps(&after.code[pc]);
                if width == 2 {
                    // The first instruction is replaced, the second kept.
                    assert_ne!(before.code[pc], after.code[pc], "pc {pc}");
                    assert_eq!(before.code[pc + 1], after.code[pc + 1], "pc {pc}");
                } else {
                    assert_eq!(before.code[pc], after.code[pc], "pc {pc}");
                }
                pc += width;
            }
        }
        // The pass runs on what `compile` emits.
        let compiled = compile(&analyzed).unwrap();
        assert!(compiled.functions[compiled.main]
            .code
            .iter()
            .any(|i| steps(i) == 2));
    }

    #[test]
    fn pairs_do_not_overlap_and_an_immediate_is_what_the_push_pushed() {
        let mut program =
            compile_direct(&frontend("fn main() -> u32 { return 0; }").unwrap()).expect("compiles");
        let lt = Instr::Binary {
            op: BinOp::LtU,
            width: Width::W32,
        };
        let jz = Instr::JumpIfZero { target: 0 };
        let push = Instr::PushConst {
            width: Width::W8,
            value: 0x1FF,
        };
        program.functions[0].code = vec![push, lt.clone(), jz.clone()];
        fuse(&mut program);
        let imm = Instr::BinaryImm {
            op: BinOp::LtU,
            width: Width::W32,
            value: 0xFF,
        };
        assert_eq!(program.functions[0].code, [imm, lt, jz]);
    }

    #[test]
    fn the_long_input_loop_dispatches_sixteen_of_its_twenty_six_steps() {
        let program = compile(&frontend(LONG_RECIPIENT).unwrap()).unwrap();
        let main = &program.functions[program.main];
        // The loop runs from its back edge's target through the back edge.
        let (end, start) = (main.code.iter().enumerate())
            .find_map(|(pc, instr)| match instr {
                Instr::Jump { target } if *target < pc => Some((pc, *target)),
                _ => None,
            })
            .expect("the loop has a back edge");
        assert_eq!(end - start + 1, 26, "instructions in the loop body");
        let (mut pc, mut dispatched, mut counted) = (start, 0, 0);
        let mut kinds = [0; 4];
        while pc <= end {
            let instr = &main.code[pc];
            match instr {
                Instr::LoadLocal { .. } => kinds[0] += 1,
                Instr::BinaryImm { .. } => kinds[1] += 1,
                Instr::CompareJumpIfZero { .. } => kinds[2] += 1,
                Instr::StoreStmtEnd { .. } => kinds[3] += 1,
                _ => {}
            }
            dispatched += 1;
            counted += steps(instr);
            pc += steps(instr);
        }
        assert_eq!(pc, end + 1, "no pair straddles the back edge");
        assert_eq!(counted, 26, "steps per iteration");
        assert_eq!(dispatched, 16, "dispatches per iteration");
        assert_eq!(kinds, [5, 2, 1, 2], "load_local, imm, cmp+jz, store+end");
    }
}
