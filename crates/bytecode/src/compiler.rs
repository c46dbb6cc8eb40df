//! Direct AST → bytecode compilation.
//!
//! This is the original single-pass tree-walking backend.  The default
//! pipeline now goes through the `cp-ir` mid-level IR (see [`crate::emit`]);
//! this module is kept as the *reference backend*: its output defines the
//! baseline semantics the IR path must reproduce, and the differential tests
//! compare the two.  Shape-sensitive tests (instruction patterns the optimizer
//! would rewrite) also target this backend.

use crate::instr::{Instr, Intrinsic};
use crate::program::{CompiledFunction, CompiledProgram, ParamSlot};
use cp_lang::ast::{BinaryOp, Expr, ExprKind, Function, Stmt, StmtKind, UnaryOp};
use cp_lang::{AnalyzedProgram, DebugInfo, Type};
use cp_symexpr::{BinOp, CastKind, UnOp, Width};
use std::fmt;

/// Errors produced while lowering an analyzed program to bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Description of the problem.
    pub message: String,
}

impl CompileError {
    fn new(message: impl Into<String>) -> Self {
        CompileError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compiles a type-checked program to bytecode with the direct (non-IR)
/// backend.
///
/// Prefer [`crate::compile`], which lowers through the optimizing mid-level
/// IR; this entry point exists as the reference for differential testing.
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs the bytecode cannot express
/// (struct-typed parameters, whole-struct assignment).
pub fn compile_direct(analyzed: &AnalyzedProgram) -> Result<CompiledProgram, CompileError> {
    let function_indices: Vec<&str> = analyzed
        .program
        .functions
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    let mut functions = Vec::with_capacity(function_indices.len());
    for function in &analyzed.program.functions {
        functions.push(compile_function(function, analyzed, &function_indices)?);
    }
    let main = function_indices
        .iter()
        .position(|name| *name == "main")
        .ok_or_else(|| CompileError::new("program has no main function"))?;
    let global_inits = analyzed
        .debug
        .globals
        .iter()
        .map(|g| {
            let width = type_width(&g.ty);
            (g.offset, width, width.truncate(g.init))
        })
        .collect();
    Ok(CompiledProgram {
        functions,
        main,
        globals_size: analyzed.debug.globals_size,
        global_inits,
        debug: Some(analyzed.debug.clone()),
    })
}

fn type_width(ty: &Type) -> Width {
    Width::from_bits(ty.bits().expect("width of a non-struct type"))
        .expect("integer and pointer widths are 8/16/32/64")
}

struct FunctionCompiler<'a> {
    debug: &'a DebugInfo,
    fn_debug: &'a cp_lang::FunctionDebug,
    function_indices: &'a [&'a str],
    code: Vec<Instr>,
    stmt_map: Vec<Option<usize>>,
    current_stmt: Option<usize>,
}

fn compile_function(
    function: &Function,
    analyzed: &AnalyzedProgram,
    function_indices: &[&str],
) -> Result<CompiledFunction, CompileError> {
    let fn_debug = analyzed
        .debug
        .functions
        .get(&function.name)
        .ok_or_else(|| CompileError::new(format!("missing debug info for `{}`", function.name)))?;
    let mut params = Vec::with_capacity(function.params.len());
    for param in &function.params {
        if !param.ty.is_integer() && !param.ty.is_pointer() {
            return Err(CompileError::new(format!(
                "parameter `{}` of `{}` has unsupported type `{}` (pass a pointer instead)",
                param.name, function.name, param.ty
            )));
        }
        let var = fn_debug
            .var(&param.name)
            .expect("parameter present in debug info");
        params.push(ParamSlot {
            offset: var.frame_offset,
            width: type_width(&param.ty),
        });
    }
    let mut compiler = FunctionCompiler {
        debug: &analyzed.debug,
        fn_debug,
        function_indices,
        code: Vec::new(),
        stmt_map: Vec::new(),
        current_stmt: None,
    };
    compiler.compile_block(&function.body)?;
    // Implicit return for functions that fall off the end.
    if let Some(ret) = &function.ret {
        compiler.emit(Instr::PushConst {
            width: type_width(ret),
            value: 0,
        });
        compiler.emit(Instr::Return { has_value: true });
    } else {
        compiler.emit(Instr::Return { has_value: false });
    }
    Ok(CompiledFunction {
        name: Some(function.name.clone()),
        frame_size: fn_debug.frame_size,
        params,
        returns_value: function.ret.is_some(),
        code: compiler.code,
        stmt_map: compiler.stmt_map,
    })
}

impl<'a> FunctionCompiler<'a> {
    fn emit(&mut self, instr: Instr) -> usize {
        self.code.push(instr);
        self.stmt_map.push(self.current_stmt);
        self.code.len() - 1
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.code[at] {
            Instr::Jump { target: t } | Instr::JumpIfZero { target: t } => *t = target,
            other => panic!("patch_jump on non-jump instruction {other:?}"),
        }
    }

    fn compile_block(&mut self, block: &[Stmt]) -> Result<(), CompileError> {
        for stmt in block {
            self.compile_stmt(stmt)?;
        }
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        self.current_stmt = Some(stmt.id);
        match &stmt.kind {
            StmtKind::VarDecl { name, ty, init } => {
                if let Some(init) = init {
                    let var = self
                        .fn_debug
                        .var(name)
                        .ok_or_else(|| CompileError::new(format!("unknown local `{name}`")))?;
                    self.emit(Instr::FrameAddr {
                        offset: var.frame_offset,
                    });
                    self.compile_rvalue(init)?;
                    self.emit(Instr::Store {
                        width: type_width(ty),
                    });
                }
                self.emit(Instr::StmtEnd { stmt: stmt.id });
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                let target_ty = target.ty().clone();
                if !target_ty.is_integer() && !target_ty.is_pointer() {
                    return Err(CompileError::new(
                        "whole-struct assignment is not supported; assign fields individually",
                    ));
                }
                self.compile_address(target)?;
                self.compile_rvalue(value)?;
                self.emit(Instr::Store {
                    width: type_width(&target_ty),
                });
                self.emit(Instr::StmtEnd { stmt: stmt.id });
                Ok(())
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                self.compile_rvalue(cond)?;
                let branch = self.emit(Instr::JumpIfZero { target: 0 });
                self.compile_block(then_block)?;
                match else_block {
                    Some(else_block) => {
                        let skip_else = self.emit(Instr::Jump { target: 0 });
                        let else_start = self.here();
                        self.patch_jump(branch, else_start);
                        self.compile_block(else_block)?;
                        let end = self.here();
                        self.patch_jump(skip_else, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch_jump(branch, end);
                    }
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let loop_start = self.here();
                self.current_stmt = Some(stmt.id);
                self.compile_rvalue(cond)?;
                let exit_branch = self.emit(Instr::JumpIfZero { target: 0 });
                self.compile_block(body)?;
                self.current_stmt = Some(stmt.id);
                self.emit(Instr::Jump { target: loop_start });
                let end = self.here();
                self.patch_jump(exit_branch, end);
                Ok(())
            }
            StmtKind::Return(value) => {
                match value {
                    Some(value) => {
                        self.compile_rvalue(value)?;
                        self.emit(Instr::StmtEnd { stmt: stmt.id });
                        self.emit(Instr::Return { has_value: true });
                    }
                    None => {
                        self.emit(Instr::StmtEnd { stmt: stmt.id });
                        self.emit(Instr::Return { has_value: false });
                    }
                }
                Ok(())
            }
            StmtKind::Exit(code) => {
                self.compile_rvalue(code)?;
                self.emit(Instr::StmtEnd { stmt: stmt.id });
                self.emit(Instr::Exit);
                Ok(())
            }
            StmtKind::Expr(expr) => {
                let pushes_value = match &expr.kind {
                    ExprKind::Call { name, .. } => match Intrinsic::from_name(name) {
                        Some(intrinsic) => intrinsic.has_result(),
                        None => expr.ty.is_some(),
                    },
                    _ => true,
                };
                self.compile_call_like(expr)?;
                if pushes_value {
                    self.emit(Instr::Pop);
                }
                self.emit(Instr::StmtEnd { stmt: stmt.id });
                Ok(())
            }
        }
    }

    /// Compiles a call expression appearing in statement position (the value,
    /// if any, is left on the stack for the caller of this helper to discard).
    fn compile_call_like(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match &expr.kind {
            ExprKind::Call { name, args } => self.compile_call(name, args),
            _ => self.compile_rvalue(expr),
        }
    }

    fn compile_call(&mut self, name: &str, args: &[Expr]) -> Result<(), CompileError> {
        for arg in args {
            self.compile_rvalue(arg)?;
        }
        if let Some(intrinsic) = Intrinsic::from_name(name) {
            self.emit(Instr::CallIntrinsic { intrinsic });
            return Ok(());
        }
        let index = self
            .function_indices
            .iter()
            .position(|candidate| *candidate == name)
            .ok_or_else(|| CompileError::new(format!("unknown function `{name}`")))?;
        self.emit(Instr::Call { function: index });
        Ok(())
    }

    /// Compiles an expression for its value, leaving it on the operand stack.
    fn compile_rvalue(&mut self, expr: &Expr) -> Result<(), CompileError> {
        let ty = expr
            .ty
            .clone()
            .ok_or_else(|| CompileError::new("expression without a type reached the compiler"))?;
        match &expr.kind {
            ExprKind::Int(value) => {
                let width = type_width(&ty);
                self.emit(Instr::PushConst {
                    width,
                    value: width.truncate(*value),
                });
                Ok(())
            }
            ExprKind::Sizeof(target) => {
                self.emit(Instr::PushConst {
                    width: Width::W64,
                    value: self.debug.size_of(target) as u64,
                });
                Ok(())
            }
            ExprKind::Var(_)
            | ExprKind::Field { .. }
            | ExprKind::Index { .. }
            | ExprKind::Deref(_) => {
                if !ty.is_integer() && !ty.is_pointer() {
                    return Err(CompileError::new(format!(
                        "cannot load a whole struct value of type `{ty}`"
                    )));
                }
                self.compile_address(expr)?;
                self.emit(Instr::Load {
                    width: type_width(&ty),
                });
                Ok(())
            }
            ExprKind::AddrOf(inner) => self.compile_address(inner),
            ExprKind::Cast {
                expr: inner,
                ty: target,
            } => {
                self.compile_rvalue(inner)?;
                let source = inner.ty().clone();
                self.emit_cast(&source, target);
                Ok(())
            }
            ExprKind::Unary { op, expr: inner } => {
                self.compile_rvalue(inner)?;
                let width = type_width(inner.ty());
                let un_op = match op {
                    UnaryOp::Neg => UnOp::Neg,
                    UnaryOp::Not => UnOp::Not,
                    UnaryOp::LogicalNot => UnOp::LogicalNot,
                };
                self.emit(Instr::Unary { op: un_op, width });
                Ok(())
            }
            ExprKind::Binary { op, lhs, rhs } => self.compile_binary(*op, lhs, rhs),
            ExprKind::Call { name, args } => self.compile_call(name, args),
        }
    }

    fn compile_binary(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> Result<(), CompileError> {
        if op.is_logical() {
            return self.compile_logical(op, lhs, rhs);
        }
        if matches!(op, BinaryOp::Gt | BinaryOp::Ge) {
            // `a > b` is compiled as `b < a` (and `>=` as `<=`) so the
            // instruction set only needs less-than comparisons.
            return self.compile_swapped_comparison(op, lhs, rhs);
        }
        self.compile_rvalue(lhs)?;
        self.compile_rvalue(rhs)?;
        let operand_ty = lhs.ty();
        let signed = operand_ty.is_signed();
        let width = type_width(operand_ty);
        let bin_op = match op {
            BinaryOp::Add => BinOp::Add,
            BinaryOp::Sub => BinOp::Sub,
            BinaryOp::Mul => BinOp::Mul,
            BinaryOp::Div => {
                if signed {
                    BinOp::DivS
                } else {
                    BinOp::DivU
                }
            }
            BinaryOp::Rem => {
                if signed {
                    BinOp::RemS
                } else {
                    BinOp::RemU
                }
            }
            BinaryOp::And => BinOp::And,
            BinaryOp::Or => BinOp::Or,
            BinaryOp::Xor => BinOp::Xor,
            BinaryOp::Shl => BinOp::Shl,
            BinaryOp::Shr => {
                if signed {
                    BinOp::ShrS
                } else {
                    BinOp::ShrU
                }
            }
            BinaryOp::Eq => BinOp::Eq,
            BinaryOp::Ne => BinOp::Ne,
            BinaryOp::Lt => {
                if signed {
                    BinOp::LtS
                } else {
                    BinOp::LtU
                }
            }
            BinaryOp::Le => {
                if signed {
                    BinOp::LeS
                } else {
                    BinOp::LeU
                }
            }
            BinaryOp::Gt | BinaryOp::Ge | BinaryOp::LogicalAnd | BinaryOp::LogicalOr => {
                unreachable!("handled above")
            }
        };
        self.emit(Instr::Binary { op: bin_op, width });
        Ok(())
    }

    fn compile_swapped_comparison(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<(), CompileError> {
        self.compile_rvalue(rhs)?;
        self.compile_rvalue(lhs)?;
        let signed = lhs.ty().is_signed();
        let width = type_width(lhs.ty());
        let bin_op = match (op, signed) {
            (BinaryOp::Gt, false) => BinOp::LtU,
            (BinaryOp::Gt, true) => BinOp::LtS,
            (BinaryOp::Ge, false) => BinOp::LeU,
            (BinaryOp::Ge, true) => BinOp::LeS,
            _ => unreachable!("only Gt/Ge are swapped"),
        };
        self.emit(Instr::Binary { op: bin_op, width });
        Ok(())
    }

    fn compile_logical(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<(), CompileError> {
        // Short-circuit lowering.  Like a C compiler, `a && b` becomes two
        // conditional branches — which is exactly why Code Phage sees each
        // atomic comparison of a composite check as its own branch site.
        match op {
            BinaryOp::LogicalAnd => {
                self.compile_rvalue(lhs)?;
                let first = self.emit(Instr::JumpIfZero { target: 0 });
                self.compile_rvalue(rhs)?;
                let second = self.emit(Instr::JumpIfZero { target: 0 });
                self.emit(Instr::PushConst {
                    width: Width::W32,
                    value: 1,
                });
                let done = self.emit(Instr::Jump { target: 0 });
                let false_label = self.here();
                self.patch_jump(first, false_label);
                self.patch_jump(second, false_label);
                self.emit(Instr::PushConst {
                    width: Width::W32,
                    value: 0,
                });
                let end = self.here();
                self.patch_jump(done, end);
                Ok(())
            }
            BinaryOp::LogicalOr => {
                self.compile_rvalue(lhs)?;
                let try_rhs = self.emit(Instr::JumpIfZero { target: 0 });
                self.emit(Instr::PushConst {
                    width: Width::W32,
                    value: 1,
                });
                let done_true = self.emit(Instr::Jump { target: 0 });
                let rhs_label = self.here();
                self.patch_jump(try_rhs, rhs_label);
                self.compile_rvalue(rhs)?;
                let false_branch = self.emit(Instr::JumpIfZero { target: 0 });
                self.emit(Instr::PushConst {
                    width: Width::W32,
                    value: 1,
                });
                let done_second = self.emit(Instr::Jump { target: 0 });
                let false_label = self.here();
                self.patch_jump(false_branch, false_label);
                self.emit(Instr::PushConst {
                    width: Width::W32,
                    value: 0,
                });
                let end = self.here();
                self.patch_jump(done_true, end);
                self.patch_jump(done_second, end);
                Ok(())
            }
            _ => unreachable!("compile_logical only handles logical operators"),
        }
    }

    fn emit_cast(&mut self, source: &Type, target: &Type) {
        let from = type_width(source);
        let to = type_width(target);
        if from == to {
            return;
        }
        let kind = if to.bits() > from.bits() {
            if source.is_signed() {
                CastKind::SignExt
            } else {
                CastKind::ZeroExt
            }
        } else {
            CastKind::Truncate
        };
        self.emit(Instr::Cast { kind, from, to });
    }

    /// Compiles the address of an lvalue, leaving a 64-bit address on the
    /// stack.
    fn compile_address(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match &expr.kind {
            ExprKind::Var(name) => {
                if let Some(var) = self.fn_debug.var(name) {
                    self.emit(Instr::FrameAddr {
                        offset: var.frame_offset,
                    });
                    return Ok(());
                }
                if let Some(global) = self.debug.global(name) {
                    self.emit(Instr::GlobalAddr {
                        offset: global.offset,
                    });
                    return Ok(());
                }
                Err(CompileError::new(format!("unknown variable `{name}`")))
            }
            ExprKind::Deref(inner) => self.compile_rvalue(inner),
            ExprKind::Field { base, field } => {
                let base_ty = base.ty().clone();
                let struct_name = match &base_ty {
                    Type::Struct(name) => {
                        self.compile_address(base)?;
                        name.clone()
                    }
                    Type::Ptr(inner) => match inner.as_ref() {
                        Type::Struct(name) => {
                            self.compile_rvalue(base)?;
                            name.clone()
                        }
                        other => {
                            return Err(CompileError::new(format!(
                                "field access through pointer to non-struct `{other}`"
                            )))
                        }
                    },
                    other => {
                        return Err(CompileError::new(format!(
                            "field access on non-struct `{other}`"
                        )))
                    }
                };
                let layout =
                    self.debug.structs.get(&struct_name).ok_or_else(|| {
                        CompileError::new(format!("unknown struct `{struct_name}`"))
                    })?;
                let field_layout = layout.field(field).ok_or_else(|| {
                    CompileError::new(format!("struct `{struct_name}` has no field `{field}`"))
                })?;
                if field_layout.offset != 0 {
                    self.emit(Instr::PushConst {
                        width: Width::W64,
                        value: field_layout.offset as u64,
                    });
                    self.emit(Instr::Binary {
                        op: BinOp::Add,
                        width: Width::W64,
                    });
                }
                Ok(())
            }
            ExprKind::Index { base, index } => {
                self.compile_rvalue(base)?;
                self.compile_rvalue(index)?;
                let index_ty = index.ty().clone();
                self.emit_cast(&index_ty, &Type::U64);
                let element_ty = base
                    .ty()
                    .pointee()
                    .ok_or_else(|| CompileError::new("indexing a non-pointer"))?;
                let element_size = self.debug.size_of(element_ty) as u64;
                if element_size != 1 {
                    self.emit(Instr::PushConst {
                        width: Width::W64,
                        value: element_size,
                    });
                    self.emit(Instr::Binary {
                        op: BinOp::Mul,
                        width: Width::W64,
                    });
                }
                self.emit(Instr::Binary {
                    op: BinOp::Add,
                    width: Width::W64,
                });
                Ok(())
            }
            _ => Err(CompileError::new("expression is not addressable")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_lang::frontend;

    fn compile_source(source: &str) -> CompiledProgram {
        compile_direct(&frontend(source).unwrap()).unwrap()
    }

    #[test]
    fn compiles_arithmetic_and_return() {
        let program = compile_source("fn main() -> u32 { return 6 * 7; }");
        let main = &program.functions[program.main];
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::Binary { op: BinOp::Mul, .. })));
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::Return { has_value: true })));
    }

    #[test]
    fn logical_and_lowered_to_two_branches() {
        let program = compile_source(
            r#"
            fn main() -> u32 {
                var w: u32 = 3;
                var h: u32 = 4;
                if (w > 0 && h > 0) { return 1; }
                return 0;
            }
        "#,
        );
        let main = &program.functions[program.main];
        let branch_count = main
            .code
            .iter()
            .filter(|i| i.is_conditional_branch())
            .count();
        // Two from the `&&` lowering plus one for the `if` itself.
        assert_eq!(branch_count, 3);
    }

    #[test]
    fn signedness_selects_operator_variants() {
        let program = compile_source(
            r#"
            fn main() -> u32 {
                var a: i32 = 10;
                var b: i32 = 3;
                var c: u32 = 10;
                var d: u32 = 3;
                if (a / b < 2) { return 1; }
                if (c / d < 2) { return 2; }
                return 0;
            }
        "#,
        );
        let main = &program.functions[program.main];
        assert!(main.code.iter().any(|i| matches!(
            i,
            Instr::Binary {
                op: BinOp::DivS,
                ..
            }
        )));
        assert!(main.code.iter().any(|i| matches!(
            i,
            Instr::Binary {
                op: BinOp::DivU,
                ..
            }
        )));
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::Binary { op: BinOp::LtS, .. })));
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::Binary { op: BinOp::LtU, .. })));
    }

    #[test]
    fn field_access_adds_offsets() {
        let program = compile_source(
            r#"
            struct H { a: u16, b: u16, }
            fn main() -> u32 {
                var h: H;
                h.b = 7;
                return h.b as u32;
            }
        "#,
        );
        let main = &program.functions[program.main];
        assert!(main.code.iter().any(|i| matches!(
            i,
            Instr::PushConst {
                width: Width::W64,
                value: 2
            }
        )));
    }

    #[test]
    fn index_scales_by_element_size() {
        let program = compile_source(
            r#"
            fn main() -> u32 {
                var p: ptr<u32> = malloc(64) as ptr<u32>;
                p[3] = 9;
                return p[3];
            }
        "#,
        );
        let main = &program.functions[program.main];
        assert!(main.code.iter().any(|i| matches!(
            i,
            Instr::PushConst {
                width: Width::W64,
                value: 4
            }
        )));
    }

    #[test]
    fn statement_end_markers_follow_simple_statements() {
        let program = compile_source(
            r#"
            fn main() -> u32 {
                var x: u32 = 1;
                x = x + 1;
                output(x as u64);
                return x;
            }
        "#,
        );
        let main = &program.functions[program.main];
        let markers: Vec<usize> = main
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::StmtEnd { stmt } => Some(*stmt),
                _ => None,
            })
            .collect();
        assert_eq!(markers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rejects_struct_parameters() {
        let analyzed = frontend(
            r#"
            struct S { x: u32, }
            fn f(s: S) -> u32 { return 0; }
            fn main() -> u32 { return 0; }
        "#,
        )
        .unwrap();
        assert!(compile_direct(&analyzed).is_err());
    }

    #[test]
    fn greater_than_swaps_to_less_than() {
        let program = compile_source(
            r#"
            fn main() -> u32 {
                var a: u32 = 5;
                if (a > 3) { return 1; }
                return 0;
            }
        "#,
        );
        let main = &program.functions[program.main];
        assert!(main
            .code
            .iter()
            .any(|i| matches!(i, Instr::Binary { op: BinOp::LtU, .. })));
    }
}
