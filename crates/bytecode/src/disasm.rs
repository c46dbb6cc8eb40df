//! A small disassembler, useful in tests, examples and debugging output.

use crate::instr::Instr;
use crate::program::{CompiledFunction, CompiledProgram};
use std::fmt::Write;

/// Renders one instruction.
pub fn format_instr(instr: &Instr) -> String {
    match instr {
        Instr::PushConst { width, value } => format!("push.{width} {value}"),
        Instr::FrameAddr { offset } => format!("frame_addr {offset}"),
        Instr::GlobalAddr { offset } => format!("global_addr {offset}"),
        Instr::Load { width } => format!("load.{width}"),
        Instr::Store { width } => format!("store.{width}"),
        Instr::Binary { op, width } => format!("{}.{width}", op.mnemonic().to_lowercase()),
        Instr::Unary { op, width } => format!("{}.{width}", op.mnemonic().to_lowercase()),
        Instr::Cast { kind, from, to } => {
            format!("{}.{from}->{to}", kind.mnemonic().to_lowercase())
        }
        Instr::Jump { target } => format!("jump {target}"),
        Instr::JumpIfZero { target } => format!("jz {target}"),
        Instr::Call { function } => format!("call {function}"),
        Instr::CallIntrinsic { intrinsic } => format!("intrinsic {intrinsic:?}"),
        Instr::Return { has_value } => {
            if *has_value {
                "ret value".to_string()
            } else {
                "ret".to_string()
            }
        }
        Instr::Exit => "exit".to_string(),
        Instr::Pop => "pop".to_string(),
        Instr::StmtEnd { stmt } => format!("; end of statement {stmt}"),
    }
}

/// Renders one function with instruction indices and statement annotations.
pub fn disassemble_function(function: &CompiledFunction, index: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} (frame {} bytes, {} params):",
        function.display_name(index),
        function.frame_size,
        function.params.len()
    );
    for (pc, instr) in function.code.iter().enumerate() {
        let stmt = function
            .stmt_map
            .get(pc)
            .copied()
            .flatten()
            .map(|s| format!(" [stmt {s}]"))
            .unwrap_or_default();
        let _ = writeln!(out, "  {pc:4}: {}{}", format_instr(instr), stmt);
    }
    out
}

/// Renders a whole program.
pub fn disassemble(program: &CompiledProgram) -> String {
    let mut out = String::new();
    for (index, function) in program.functions.iter().enumerate() {
        out.push_str(&disassemble_function(function, index));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use cp_lang::frontend;

    #[test]
    fn disassembly_contains_mnemonics_and_symbols() {
        let analyzed = frontend(
            r#"
            fn main() -> u32 {
                var x: u32 = input_byte(0) as u32;
                if (x > 10) { exit(1); }
                return x;
            }
        "#,
        )
        .unwrap();
        let program = compile(&analyzed).unwrap();
        let text = disassemble(&program);
        assert!(text.contains("main"));
        assert!(text.contains("intrinsic InputByte"));
        assert!(text.contains("jz"));
        assert!(text.contains("[stmt 0]"));
    }

    #[test]
    fn stripped_disassembly_uses_index_names() {
        let analyzed = frontend("fn main() -> u32 { return 0; }").unwrap();
        let program = compile(&analyzed).unwrap().strip();
        let text = disassemble(&program);
        assert!(text.contains("fn#0"));
    }
}
