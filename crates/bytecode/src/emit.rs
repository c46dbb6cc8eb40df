//! IR → bytecode emission.
//!
//! The compilation pipeline: lower the analyzed AST into the `cp-ir` CFG,
//! run the optimization passes, then *stackify* each basic block into the
//! stack-machine instruction stream.
//!
//! # Stackification
//!
//! IR temps are virtual registers; the bytecode machine only has an operand
//! stack and addressable frames.  A temp whose single use directly follows
//! its definition in stack (LIFO) order simply lives on the operand stack.
//! Every other temp — used more than once, used from a different block than
//! its definition, or consumed out of LIFO order — is *spilled* to a dedicated
//! frame slot past the function's source frame: its definition stores the
//! value and every use reloads it.  Spills round-trip values through memory,
//! which the VM keeps semantically transparent: the byte-level taint shadow
//! and the sticky overflow flag survive a store/load pair, so a spilled value
//! is indistinguishable from one kept on the stack.
//!
//! Emission runs as a fixpoint: an attempt that discovers a temp it cannot
//! satisfy from the stack adds that temp to the spill set and restarts.  Each
//! restart grows the set, so the loop terminates.
//!
//! A definition whose destination is spilled needs its `FrameAddr` pushed
//! *below* the computed value (the machine's `Store` pops value, then
//! address, and there is no swap instruction), so all operands of such a
//! definition are reloaded rather than taken from the stack — spilling
//! cascades upward through the defining expression.
//!
//! # Blocks and jumps
//!
//! Blocks are laid out in IR order, and a jump to the next block in layout
//! order is elided.
//!
//! # Superinstructions
//!
//! Last, [`fuse`] gives adjacent instruction pairs one dispatch each, in
//! place, so the emitted layout above is the fused program's too.

use crate::compiler::CompileError;
use crate::fuse::fuse;
use crate::instr::{Instr, Intrinsic};
use crate::program::{CompiledFunction, CompiledProgram, ParamSlot};
use cp_ir::{Block, BlockId, Inst, InstKind, IrFunction, Temp, Terminator};
use cp_lang::AnalyzedProgram;
use std::collections::{BTreeMap, BTreeSet};

/// Compiles a type-checked program to bytecode through the optimizing
/// mid-level IR, with adjacent pairs fused into superinstructions.
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs the bytecode cannot express
/// (struct-typed parameters, whole-struct assignment).
pub fn compile(analyzed: &AnalyzedProgram) -> Result<CompiledProgram, CompileError> {
    let ir = cp_ir::lower(analyzed).map_err(|e| CompileError { message: e.message })?;
    let ir = cp_ir::optimize(ir);
    let mut program = CompiledProgram {
        functions: ir.functions.iter().map(emit_function).collect(),
        main: ir.main,
        globals_size: ir.globals_size,
        global_inits: ir.global_inits,
        debug: Some(analyzed.debug.clone()),
    };
    fuse(&mut program);
    Ok(program)
}

/// Why an emission attempt had to be abandoned.
struct NeedSpill(Vec<Temp>);

fn emit_function(function: &IrFunction) -> CompiledFunction {
    let mut spilled = initial_spills(function);
    loop {
        let mut emitter = Emitter::new(function, &spilled);
        match emitter.run() {
            Ok(()) => return emitter.finish(),
            Err(NeedSpill(temps)) => {
                let before = spilled.len();
                spilled.extend(temps);
                assert!(
                    spilled.len() > before,
                    "emission made no progress spilling in `{}`",
                    function.name
                );
            }
        }
    }
}

/// Temps that can never live purely on the operand stack: used more than
/// once, or used outside their defining block.
fn initial_spills(function: &IrFunction) -> BTreeSet<Temp> {
    let uses = function.use_counts();
    let defs = function.def_blocks();
    let mut spills = BTreeSet::new();
    for (temp, &count) in uses.iter().enumerate() {
        if count > 1 {
            spills.insert(temp as Temp);
        }
    }
    for (id, block) in function.blocks.iter().enumerate() {
        let mut cross = |t: Temp| {
            if defs[t as usize] != Some(id) {
                spills.insert(t);
            }
        };
        for inst in &block.insts {
            for t in inst.kind.operands() {
                cross(t);
            }
        }
        if let Some(t) = block.term.operand() {
            cross(t);
        }
    }
    spills
}

struct Emitter<'a> {
    f: &'a IrFunction,
    /// Spilled temp → frame slot offset.
    slots: BTreeMap<Temp, usize>,
    frame_size: usize,
    code: Vec<Instr>,
    stmt_map: Vec<Option<usize>>,
    current_stmt: Option<usize>,
    /// The operand-stack model: unspilled temps whose values are live on the
    /// stack, bottom first.
    model: Vec<Temp>,
    use_counts: Vec<usize>,
    /// Start pc of each block, by block id.
    block_pcs: Vec<usize>,
    /// `(code index, target block)` pairs to patch once all pcs are known.
    fixups: Vec<(usize, BlockId)>,
}

impl<'a> Emitter<'a> {
    fn new(function: &'a IrFunction, spilled: &BTreeSet<Temp>) -> Self {
        // Spill slots live past the source frame, 8 bytes each, assigned in
        // temp order so layout is deterministic.
        let base = function.frame_size.div_ceil(8) * 8;
        let slots: BTreeMap<Temp, usize> = spilled
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, base + 8 * i))
            .collect();
        let frame_size = base + 8 * slots.len();
        Emitter {
            f: function,
            slots,
            frame_size,
            code: Vec::new(),
            stmt_map: Vec::new(),
            current_stmt: None,
            model: Vec::new(),
            use_counts: function.use_counts(),
            block_pcs: vec![0; function.blocks.len()],
            fixups: Vec::new(),
        }
    }

    fn emit(&mut self, instr: Instr) -> usize {
        self.code.push(instr);
        self.stmt_map.push(self.current_stmt);
        self.code.len() - 1
    }

    fn run(&mut self) -> Result<(), NeedSpill> {
        for (id, block) in self.f.blocks.iter().enumerate() {
            self.block_pcs[id] = self.code.len();
            debug_assert!(self.model.is_empty(), "operand stack dirty at block start");
            for inst in &block.insts {
                self.emit_inst(inst)?;
            }
            self.emit_terminator(id, block)?;
        }
        Ok(())
    }

    fn finish(mut self) -> CompiledFunction {
        for (at, target) in std::mem::take(&mut self.fixups) {
            let pc = self.block_pcs[target];
            match &mut self.code[at] {
                Instr::Jump { target: t } | Instr::JumpIfZero { target: t } => *t = pc,
                other => panic!("fixup on non-jump instruction {other:?}"),
            }
        }
        CompiledFunction {
            name: Some(self.f.name.clone()),
            frame_size: self.frame_size,
            params: self
                .f
                .params
                .iter()
                .map(|p| ParamSlot {
                    offset: p.offset,
                    width: p.width,
                })
                .collect(),
            returns_value: self.f.ret_width.is_some(),
            code: self.code,
            stmt_map: self.stmt_map,
        }
    }

    /// Pushes a spilled temp's value back onto the stack.
    fn reload(&mut self, temp: Temp) {
        let offset = self.slots[&temp];
        self.emit(Instr::FrameAddr { offset });
        self.emit(Instr::Load {
            width: self.f.width(temp),
        });
    }

    /// Consumes the instruction's operands: the longest prefix already in
    /// position on the stack stays there, the rest are reloaded on top.
    ///
    /// Operands arrive in push order, so `ops[..p]` can come from the stack
    /// only if they are exactly its top `p` entries (deepest first).  Any
    /// remaining operand must be spilled; if one is not, the attempt fails
    /// and the fixpoint spills it.
    fn materialize(&mut self, ops: &[Temp]) -> Result<(), NeedSpill> {
        let mut prefix = 0;
        for p in (0..=ops.len()).rev() {
            if p <= self.model.len() && self.model[self.model.len() - p..] == ops[..p] {
                prefix = p;
                break;
            }
        }
        let missing: Vec<Temp> = ops[prefix..]
            .iter()
            .copied()
            .filter(|t| !self.slots.contains_key(t))
            .collect();
        if !missing.is_empty() {
            return Err(NeedSpill(missing));
        }
        for &t in &ops[prefix..] {
            self.reload(t);
        }
        self.model.truncate(self.model.len() - prefix);
        Ok(())
    }

    /// Emits the value-producing core of an instruction, assuming its
    /// operands are already on the stack.
    fn emit_op(&mut self, kind: &InstKind) {
        match kind {
            InstKind::Const { width, value, .. } => {
                self.emit(Instr::PushConst {
                    width: *width,
                    value: *value,
                });
            }
            InstKind::FrameAddr { offset, .. } => {
                self.emit(Instr::FrameAddr { offset: *offset });
            }
            InstKind::GlobalAddr { offset, .. } => {
                self.emit(Instr::GlobalAddr { offset: *offset });
            }
            InstKind::Load { width, .. } => {
                self.emit(Instr::Load { width: *width });
            }
            InstKind::Binary { op, width, .. } => {
                self.emit(Instr::Binary {
                    op: *op,
                    width: *width,
                });
            }
            InstKind::Unary { op, width, .. } => {
                self.emit(Instr::Unary {
                    op: *op,
                    width: *width,
                });
            }
            InstKind::Cast { kind, from, to, .. } => {
                self.emit(Instr::Cast {
                    kind: *kind,
                    from: *from,
                    to: *to,
                });
            }
            InstKind::Call { function, .. } => {
                self.emit(Instr::Call {
                    function: *function,
                });
            }
            InstKind::CallIntrinsic { intrinsic, .. } => {
                self.emit(Instr::CallIntrinsic {
                    intrinsic: lower_intrinsic(*intrinsic),
                });
            }
            InstKind::Copy { .. } | InstKind::Store { .. } | InstKind::StmtEnd { .. } => {
                unreachable!("handled by emit_inst")
            }
        }
    }

    fn emit_inst(&mut self, inst: &Inst) -> Result<(), NeedSpill> {
        self.current_stmt = inst.stmt;
        let kind = &inst.kind;
        match kind {
            InstKind::StmtEnd { stmt } => {
                self.emit(Instr::StmtEnd { stmt: *stmt });
                return Ok(());
            }
            InstKind::Store { addr, value, width } => {
                self.materialize(&[*addr, *value])?;
                self.emit(Instr::Store { width: *width });
                return Ok(());
            }
            _ => {}
        }
        let ops = kind.operands();
        let Some(dst) = kind.dst() else {
            // A call without a result (`output`, a void function).
            self.materialize(&ops)?;
            self.emit_op(kind);
            return Ok(());
        };
        if let Some(&slot) = self.slots.get(&dst) {
            // Spilled destination: the store address must sit below the
            // value, so reload every operand instead of taking any from the
            // stack (the cascade described in the module docs).
            let missing: Vec<Temp> = ops
                .iter()
                .copied()
                .filter(|t| !self.slots.contains_key(t))
                .collect();
            if !missing.is_empty() {
                return Err(NeedSpill(missing));
            }
            self.emit(Instr::FrameAddr { offset: slot });
            for &t in &ops {
                self.reload(t);
            }
            match kind {
                InstKind::Copy { .. } => {} // the reloaded source is the value
                _ => self.emit_op(kind),
            }
            self.emit(Instr::Store {
                width: self.f.width(dst),
            });
            return Ok(());
        }
        // Unspilled destination: the value lives on the operand stack.
        if let InstKind::Copy { src, .. } = kind {
            // A copy is a rename when its source is on top of the stack.
            if self.model.last() == Some(src) {
                self.model.pop();
            } else if self.slots.contains_key(src) {
                self.reload(*src);
            } else {
                return Err(NeedSpill(vec![*src]));
            }
        } else {
            self.materialize(&ops)?;
            self.emit_op(kind);
        }
        if self.use_counts[dst as usize] == 0 {
            self.emit(Instr::Pop);
        } else {
            self.model.push(dst);
        }
        Ok(())
    }

    /// Brings a terminator operand to the top of the stack.
    fn materialize_operand(&mut self, temp: Temp) -> Result<(), NeedSpill> {
        if self.model.last() == Some(&temp) {
            self.model.pop();
        } else if self.slots.contains_key(&temp) {
            self.reload(temp);
        } else {
            return Err(NeedSpill(vec![temp]));
        }
        Ok(())
    }

    /// Emits a jump to `target`, unless it is the next block in layout
    /// order, which control falls through to.
    fn jump_to(&mut self, from: BlockId, target: BlockId) {
        if target == from + 1 {
            return;
        }
        let at = self.emit(Instr::Jump { target: 0 });
        self.fixups.push((at, target));
    }

    fn emit_terminator(&mut self, id: BlockId, block: &Block) -> Result<(), NeedSpill> {
        self.current_stmt = block.term_stmt;
        match &block.term {
            Terminator::Jump(target) => {
                self.jump_to(id, *target);
            }
            Terminator::Branch {
                cond,
                if_zero,
                fallthrough,
            } => {
                self.materialize_operand(*cond)?;
                let at = self.emit(Instr::JumpIfZero { target: 0 });
                self.fixups.push((at, *if_zero));
                self.jump_to(id, *fallthrough);
            }
            Terminator::Return { value } => match value {
                Some(v) => {
                    self.materialize_operand(*v)?;
                    self.emit(Instr::Return { has_value: true });
                }
                None => {
                    self.emit(Instr::Return { has_value: false });
                }
            },
            Terminator::Exit { status } => {
                self.materialize_operand(*status)?;
                self.emit(Instr::Exit);
            }
        }
        assert!(
            self.model.is_empty(),
            "operand stack not empty at end of block {id} in `{}`: {:?}",
            self.f.name,
            self.model
        );
        Ok(())
    }
}

fn lower_intrinsic(intrinsic: cp_ir::Intrinsic) -> Intrinsic {
    match intrinsic {
        cp_ir::Intrinsic::InputByte => Intrinsic::InputByte,
        cp_ir::Intrinsic::InputLen => Intrinsic::InputLen,
        cp_ir::Intrinsic::Malloc => Intrinsic::Malloc,
        cp_ir::Intrinsic::Output => Intrinsic::Output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_direct;
    use cp_lang::frontend;

    fn both(source: &str) -> (CompiledProgram, CompiledProgram) {
        let analyzed = frontend(source).unwrap();
        let direct = compile_direct(&analyzed).unwrap();
        let via_ir = compile(&analyzed).unwrap();
        (direct, via_ir)
    }

    #[test]
    fn ir_path_compiles_simple_programs() {
        let (_, program) = both("fn main() -> u32 { return 6 * 7; }");
        let main = &program.functions[program.main];
        // 6 * 7 folds to a single constant on the optimized path.
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::PushConst { value: 42, .. })));
        assert!(!main.code.iter().any(|i| matches!(i, Instr::Binary { .. })));
    }

    #[test]
    fn spilled_values_survive_round_trips() {
        // `var x = a && b` forces an address temp across the short-circuit
        // blocks, exercising the spill path.
        let (_, program) = both(
            r#"
            fn main() -> u32 {
                var a: u32 = input_byte(0) as u32;
                var b: u32 = input_byte(1) as u32;
                var x: u32 = 0;
                x = (a > 0 && b > 0) as u32;
                return x;
            }
        "#,
        );
        assert!(program.functions[program.main]
            .code
            .iter()
            .any(|i| matches!(i, Instr::Store { .. })));
    }
}
