//! Semantic analysis: name resolution, type checking, layout and debug
//! information.
//!
//! Analysis produces an [`AnalyzedProgram`] containing the type-annotated AST
//! (every expression carries its type, every statement a program-point id) and
//! the [`DebugInfo`] that drives both bytecode compilation and Code Phage's
//! recipient-side data-structure traversal.

use crate::ast::*;
use crate::debug::{DebugInfo, FieldLayout, FunctionDebug, GlobalDebug, StructLayout, VarDebug};
use crate::types::Type;
use crate::{LangError, Result};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A type-checked program together with its debug information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzedProgram {
    /// The annotated AST.
    pub program: Program,
    /// Struct layouts, function frames and global offsets.
    pub debug: DebugInfo,
}

/// Signature of a callable (user function or intrinsic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type (`None` for void).
    pub ret: Option<Type>,
}

/// Names and signatures of the VM intrinsics available to every program.
///
/// * `input_byte(offset: u64) -> u8` — read (and taint) one input byte,
/// * `input_len() -> u64` — total input length,
/// * `malloc(size: u64) -> u64` — heap allocation returning an address,
/// * `output(value: u64)` — append a value to the program's output trace.
pub fn intrinsic_signature(name: &str) -> Option<Signature> {
    match name {
        "input_byte" => Some(Signature {
            params: vec![Type::U64],
            ret: Some(Type::U8),
        }),
        "input_len" => Some(Signature {
            params: vec![],
            ret: Some(Type::U64),
        }),
        "malloc" => Some(Signature {
            params: vec![Type::U64],
            ret: Some(Type::U64),
        }),
        "output" => Some(Signature {
            params: vec![Type::U64],
            ret: None,
        }),
        _ => None,
    }
}

/// Runs semantic analysis over a parsed program.
///
/// # Errors
///
/// Returns a [`LangError`] for unknown names, type mismatches, invalid struct
/// definitions, duplicate definitions and other semantic problems.
pub fn analyze(mut program: Program) -> Result<AnalyzedProgram> {
    let mut debug = DebugInfo::default();
    build_struct_layouts(&program, &mut debug)?;
    build_globals(&program, &mut debug)?;

    let signatures = collect_signatures(&program)?;

    let functions = std::mem::take(&mut program.functions);
    let mut analyzed_functions = Vec::with_capacity(functions.len());
    for function in functions {
        let (function, fn_debug) = analyze_function(function, &debug, &signatures)?;
        debug.functions.insert(function.name.clone(), fn_debug);
        analyzed_functions.push(function);
    }
    program.functions = analyzed_functions;

    if program.function("main").is_none() {
        return Err(LangError::general("program has no `main` function"));
    }

    Ok(AnalyzedProgram { program, debug })
}

fn collect_signatures(program: &Program) -> Result<HashMap<String, Signature>> {
    let mut signatures = HashMap::new();
    for function in &program.functions {
        if intrinsic_signature(&function.name).is_some() {
            return Err(LangError::new(
                format!("function `{}` shadows an intrinsic", function.name),
                function.span,
            ));
        }
        let signature = Signature {
            params: function.params.iter().map(|p| p.ty.clone()).collect(),
            ret: function.ret.clone(),
        };
        if signatures
            .insert(function.name.clone(), signature)
            .is_some()
        {
            return Err(LangError::new(
                format!("duplicate function `{}`", function.name),
                function.span,
            ));
        }
    }
    Ok(signatures)
}

fn build_struct_layouts(program: &Program, debug: &mut DebugInfo) -> Result<()> {
    let defs: BTreeMap<&str, &StructDef> = program
        .structs
        .iter()
        .map(|s| (s.name.as_str(), s))
        .collect();
    if defs.len() != program.structs.len() {
        return Err(LangError::general("duplicate struct definition"));
    }
    for def in &program.structs {
        let mut visiting = HashSet::new();
        layout_struct(def, &defs, debug, &mut visiting)?;
    }
    Ok(())
}

fn layout_struct(
    def: &StructDef,
    defs: &BTreeMap<&str, &StructDef>,
    debug: &mut DebugInfo,
    visiting: &mut HashSet<String>,
) -> Result<usize> {
    if let Some(layout) = debug.structs.get(&def.name) {
        return Ok(layout.size);
    }
    if !visiting.insert(def.name.clone()) {
        return Err(LangError::new(
            format!("struct `{}` recursively contains itself", def.name),
            def.span,
        ));
    }
    let mut offset = 0usize;
    let mut fields = Vec::with_capacity(def.fields.len());
    let mut seen = HashSet::new();
    for (name, ty) in &def.fields {
        if !seen.insert(name.clone()) {
            return Err(LangError::new(
                format!("duplicate field `{}` in struct `{}`", name, def.name),
                def.span,
            ));
        }
        let size = match ty {
            Type::Struct(inner) => {
                let inner_def = defs
                    .get(inner.as_str())
                    .ok_or_else(|| LangError::new(format!("unknown struct `{inner}`"), def.span))?;
                layout_struct(inner_def, defs, debug, visiting)?
            }
            other => debug.size_of(other),
        };
        fields.push(FieldLayout {
            name: name.clone(),
            ty: ty.clone(),
            offset,
        });
        offset += size;
    }
    visiting.remove(&def.name);
    debug.structs.insert(
        def.name.clone(),
        StructLayout {
            name: def.name.clone(),
            size: offset,
            fields,
        },
    );
    Ok(offset)
}

fn build_globals(program: &Program, debug: &mut DebugInfo) -> Result<()> {
    let mut offset = 0usize;
    let mut seen = HashSet::new();
    for global in &program.globals {
        if !global.ty.is_integer() {
            return Err(LangError::new(
                format!("global `{}` must have an integer type", global.name),
                global.span,
            ));
        }
        if !seen.insert(global.name.clone()) {
            return Err(LangError::new(
                format!("duplicate global `{}`", global.name),
                global.span,
            ));
        }
        let size = debug.size_of(&global.ty);
        debug.globals.push(GlobalDebug {
            name: global.name.clone(),
            ty: global.ty.clone(),
            offset,
            init: global.init,
        });
        offset += size;
    }
    debug.globals_size = offset;
    Ok(())
}

struct FunctionChecker<'a> {
    debug: &'a DebugInfo,
    signatures: &'a HashMap<String, Signature>,
    locals: HashMap<String, (Type, usize)>,
    frame_offset: usize,
    vars: Vec<VarDebug>,
    ret: Option<Type>,
    next_stmt_id: usize,
    depth: usize,
}

/// Maximum recursive nesting the checker walks before diagnosing instead of
/// recursing further.
///
/// The parser enforces its own [`crate::parser::MAX_NESTING_DEPTH`], so on
/// the normal front-end path this limit is unreachable; it exists as
/// defense in depth for ASTs built programmatically (patch application
/// splices subtrees without reparsing) so sema can never overflow the stack
/// either.
const MAX_SEMA_DEPTH: usize = 256;

fn analyze_function(
    mut function: Function,
    debug: &DebugInfo,
    signatures: &HashMap<String, Signature>,
) -> Result<(Function, FunctionDebug)> {
    let mut checker = FunctionChecker {
        debug,
        signatures,
        locals: HashMap::new(),
        frame_offset: 0,
        vars: Vec::new(),
        ret: function.ret.clone(),
        next_stmt_id: 0,
        depth: 0,
    };
    for param in &function.params {
        checker.declare(param.name.clone(), param.ty.clone(), None, function.span)?;
    }
    let num_params = function.params.len();
    let mut body = std::mem::take(&mut function.body);
    checker.check_block(&mut body)?;
    function.body = body;
    let fn_debug = FunctionDebug {
        name: function.name.clone(),
        frame_size: checker.frame_offset,
        vars: checker.vars,
        num_params,
        num_statements: checker.next_stmt_id,
    };
    Ok((function, fn_debug))
}

impl<'a> FunctionChecker<'a> {
    fn declare(
        &mut self,
        name: String,
        ty: Type,
        decl_stmt: Option<usize>,
        span: crate::span::Span,
    ) -> Result<usize> {
        if self.locals.contains_key(&name) {
            return Err(LangError::new(
                format!("duplicate variable `{name}` (Phage-C locals are function-scoped)"),
                span,
            ));
        }
        if let Type::Struct(struct_name) = &ty {
            if !self.debug.structs.contains_key(struct_name) {
                return Err(LangError::new(
                    format!("unknown struct `{struct_name}`"),
                    span,
                ));
            }
        }
        let offset = self.frame_offset;
        self.frame_offset += self.debug.size_of(&ty);
        self.locals.insert(name.clone(), (ty.clone(), offset));
        self.vars.push(VarDebug {
            name,
            ty,
            frame_offset: offset,
            decl_stmt,
        });
        Ok(offset)
    }

    fn check_block(&mut self, block: &mut [Stmt]) -> Result<()> {
        for stmt in block {
            self.check_stmt(stmt)?;
        }
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &mut Stmt) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_SEMA_DEPTH {
            self.depth -= 1;
            return Err(LangError::new(
                format!("statement nesting exceeds the maximum depth of {MAX_SEMA_DEPTH}"),
                stmt.span,
            ));
        }
        let checked = self.check_stmt_inner(stmt);
        self.depth -= 1;
        checked
    }

    fn check_stmt_inner(&mut self, stmt: &mut Stmt) -> Result<()> {
        stmt.id = self.next_stmt_id;
        self.next_stmt_id += 1;
        let stmt_id = stmt.id;
        match &mut stmt.kind {
            StmtKind::VarDecl { name, ty, init } => {
                if let Some(init) = init {
                    self.check_expr(init, Some(&ty.clone()))?;
                    if init.ty() != ty {
                        return Err(LangError::new(
                            format!(
                                "initialiser of `{name}` has type {}, expected {}",
                                init.ty(),
                                ty
                            ),
                            init.span,
                        ));
                    }
                }
                self.declare(name.clone(), ty.clone(), Some(stmt_id), stmt.span)?;
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                let target_ty = self.check_lvalue(target)?;
                self.check_expr(value, Some(&target_ty))?;
                if value.ty() != &target_ty {
                    return Err(LangError::new(
                        format!(
                            "cannot assign {} to location of type {}",
                            value.ty(),
                            target_ty
                        ),
                        value.span,
                    ));
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                self.check_condition(cond)?;
                self.check_block(then_block)?;
                if let Some(else_block) = else_block {
                    self.check_block(else_block)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.check_condition(cond)?;
                self.check_block(body)
            }
            StmtKind::Return(value) => {
                match (&mut *value, self.ret.clone()) {
                    (Some(value), Some(ret)) => {
                        self.check_expr(value, Some(&ret))?;
                        if value.ty() != &ret {
                            return Err(LangError::new(
                                format!("return type mismatch: {} vs {}", value.ty(), ret),
                                value.span,
                            ));
                        }
                    }
                    (None, None) => {}
                    (Some(value), None) => {
                        return Err(LangError::new(
                            "return with a value in a void function",
                            value.span,
                        ))
                    }
                    (None, Some(_)) => {
                        return Err(LangError::new(
                            "return without a value in a non-void function",
                            stmt.span,
                        ))
                    }
                }
                Ok(())
            }
            StmtKind::Exit(code) => {
                self.check_expr(code, Some(&Type::U32))?;
                if !code.ty().is_integer() {
                    return Err(LangError::new("exit status must be an integer", code.span));
                }
                Ok(())
            }
            StmtKind::Expr(expr) => {
                if let ExprKind::Call { .. } = expr.kind {
                    self.check_call(expr, true)?;
                    Ok(())
                } else {
                    Err(LangError::new(
                        "only call expressions may be used as statements",
                        expr.span,
                    ))
                }
            }
        }
    }

    fn check_condition(&mut self, cond: &mut Expr) -> Result<()> {
        self.check_expr(cond, Some(&Type::U32))?;
        if !cond.ty().is_integer() {
            return Err(LangError::new(
                format!("condition must be an integer, found {}", cond.ty()),
                cond.span,
            ));
        }
        Ok(())
    }

    fn check_lvalue(&mut self, expr: &mut Expr) -> Result<Type> {
        match &expr.kind {
            ExprKind::Var(_)
            | ExprKind::Field { .. }
            | ExprKind::Index { .. }
            | ExprKind::Deref(_) => {
                self.check_expr(expr, None)?;
                Ok(expr.ty().clone())
            }
            _ => Err(LangError::new("expression is not assignable", expr.span)),
        }
    }

    fn lookup_var(&self, name: &str) -> Option<Type> {
        if let Some((ty, _)) = self.locals.get(name) {
            return Some(ty.clone());
        }
        self.debug.global(name).map(|g| g.ty.clone())
    }

    fn check_call(&mut self, expr: &mut Expr, statement_context: bool) -> Result<()> {
        let span = expr.span;
        let (name, args) = match &mut expr.kind {
            ExprKind::Call { name, args } => (name.clone(), args),
            _ => unreachable!("check_call on a non-call expression"),
        };
        let signature = self
            .signatures
            .get(&name)
            .cloned()
            .or_else(|| intrinsic_signature(&name))
            .ok_or_else(|| LangError::new(format!("unknown function `{name}`"), span))?;
        if args.len() != signature.params.len() {
            return Err(LangError::new(
                format!(
                    "`{name}` expects {} argument(s), found {}",
                    signature.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        for (arg, expected) in args.iter_mut().zip(signature.params.iter()) {
            self.check_expr(arg, Some(expected))?;
            if arg.ty() != expected {
                return Err(LangError::new(
                    format!("argument has type {}, expected {}", arg.ty(), expected),
                    arg.span,
                ));
            }
        }
        match &signature.ret {
            Some(ret) => expr.ty = Some(ret.clone()),
            None => {
                if !statement_context {
                    return Err(LangError::new(
                        format!("void function `{name}` used in a value context"),
                        span,
                    ));
                }
                expr.ty = None;
            }
        }
        Ok(())
    }

    fn check_expr(&mut self, expr: &mut Expr, expected: Option<&Type>) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_SEMA_DEPTH {
            self.depth -= 1;
            return Err(LangError::new(
                format!("expression nesting exceeds the maximum depth of {MAX_SEMA_DEPTH}"),
                expr.span,
            ));
        }
        let checked = self.check_expr_inner(expr, expected);
        self.depth -= 1;
        checked
    }

    fn check_expr_inner(&mut self, expr: &mut Expr, expected: Option<&Type>) -> Result<()> {
        let span = expr.span;
        match &mut expr.kind {
            ExprKind::Int(_) => {
                let ty = match expected {
                    Some(ty) if ty.is_integer() => ty.clone(),
                    _ => Type::U32,
                };
                expr.ty = Some(ty);
                Ok(())
            }
            ExprKind::Var(name) => {
                let ty = self
                    .lookup_var(name)
                    .ok_or_else(|| LangError::new(format!("unknown variable `{name}`"), span))?;
                expr.ty = Some(ty);
                Ok(())
            }
            ExprKind::Sizeof(ty) => {
                if let Type::Struct(name) = ty {
                    if !self.debug.structs.contains_key(name) {
                        return Err(LangError::new(format!("unknown struct `{name}`"), span));
                    }
                }
                expr.ty = Some(Type::U64);
                Ok(())
            }
            ExprKind::Cast { expr: inner, ty } => {
                let target = ty.clone();
                self.check_expr(inner, None)?;
                let source = inner.ty().clone();
                let castable = (source.is_integer() || source.is_pointer())
                    && (target.is_integer() || target.is_pointer());
                if !castable {
                    return Err(LangError::new(
                        format!("cannot cast {source} to {target}"),
                        span,
                    ));
                }
                expr.ty = Some(target);
                Ok(())
            }
            ExprKind::Unary { op, expr: inner } => {
                let op = *op;
                self.check_expr(inner, expected)?;
                let inner_ty = inner.ty().clone();
                if !inner_ty.is_integer() {
                    return Err(LangError::new(
                        format!("unary operator applied to non-integer {inner_ty}"),
                        span,
                    ));
                }
                expr.ty = Some(match op {
                    UnaryOp::LogicalNot => Type::U32,
                    _ => inner_ty,
                });
                Ok(())
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let op = *op;
                if op.is_logical() {
                    self.check_expr(lhs, Some(&Type::U32))?;
                    self.check_expr(rhs, Some(&Type::U32))?;
                    if !lhs.ty().is_integer() || !rhs.ty().is_integer() {
                        return Err(LangError::new(
                            "logical operators require integer operands",
                            span,
                        ));
                    }
                    expr.ty = Some(Type::U32);
                    return Ok(());
                }
                // Check the non-literal side first so that integer literals
                // adapt to the other operand's type.
                let operand_expected = expected.filter(|t| t.is_integer());
                let lhs_is_literal = matches!(lhs.kind, ExprKind::Int(_));
                let rhs_is_literal = matches!(rhs.kind, ExprKind::Int(_));
                if lhs_is_literal && !rhs_is_literal {
                    self.check_expr(rhs, operand_expected)?;
                    let rhs_ty = rhs.ty().clone();
                    self.check_expr(lhs, Some(&rhs_ty))?;
                } else {
                    self.check_expr(lhs, operand_expected)?;
                    let lhs_ty = lhs.ty().clone();
                    self.check_expr(rhs, Some(&lhs_ty))?;
                }
                let lhs_ty = lhs.ty().clone();
                let rhs_ty = rhs.ty().clone();
                if !lhs_ty.is_integer() || !rhs_ty.is_integer() {
                    return Err(LangError::new(
                        format!("binary operator applied to {lhs_ty} and {rhs_ty}"),
                        span,
                    ));
                }
                if lhs_ty != rhs_ty {
                    return Err(LangError::new(
                        format!(
                            "operand type mismatch: {lhs_ty} vs {rhs_ty} (insert an explicit cast)"
                        ),
                        span,
                    ));
                }
                expr.ty = Some(if op.is_comparison() {
                    Type::U32
                } else {
                    lhs_ty
                });
                Ok(())
            }
            ExprKind::Call { .. } => self.check_call(expr, false),
            ExprKind::Field { base, field } => {
                self.check_expr(base, None)?;
                let base_ty = base.ty().clone();
                let struct_name = match &base_ty {
                    Type::Struct(name) => name.clone(),
                    Type::Ptr(inner) => match inner.as_ref() {
                        Type::Struct(name) => name.clone(),
                        other => {
                            return Err(LangError::new(
                                format!("field access on non-struct pointer {other}"),
                                span,
                            ))
                        }
                    },
                    other => {
                        return Err(LangError::new(
                            format!("field access on non-struct value {other}"),
                            span,
                        ))
                    }
                };
                let layout = self.debug.structs.get(&struct_name).ok_or_else(|| {
                    LangError::new(format!("unknown struct `{struct_name}`"), span)
                })?;
                let field_layout = layout.field(field).ok_or_else(|| {
                    LangError::new(
                        format!("struct `{struct_name}` has no field `{field}`"),
                        span,
                    )
                })?;
                expr.ty = Some(field_layout.ty.clone());
                Ok(())
            }
            ExprKind::Index { base, index } => {
                self.check_expr(base, None)?;
                self.check_expr(index, Some(&Type::U64))?;
                if !index.ty().is_integer() {
                    return Err(LangError::new("index must be an integer", span));
                }
                let element = match base.ty() {
                    Type::Ptr(inner) => inner.as_ref().clone(),
                    other => {
                        return Err(LangError::new(
                            format!("indexing requires a pointer, found {other}"),
                            span,
                        ))
                    }
                };
                expr.ty = Some(element);
                Ok(())
            }
            ExprKind::Deref(inner) => {
                self.check_expr(inner, None)?;
                let pointee = match inner.ty() {
                    Type::Ptr(inner) => inner.as_ref().clone(),
                    other => {
                        return Err(LangError::new(
                            format!("cannot dereference non-pointer {other}"),
                            span,
                        ))
                    }
                };
                expr.ty = Some(pointee);
                Ok(())
            }
            ExprKind::AddrOf(inner) => {
                match inner.kind {
                    ExprKind::Var(_)
                    | ExprKind::Field { .. }
                    | ExprKind::Index { .. }
                    | ExprKind::Deref(_) => {}
                    _ => {
                        return Err(LangError::new(
                            "can only take the address of an lvalue",
                            span,
                        ))
                    }
                }
                self.check_expr(inner, None)?;
                expr.ty = Some(Type::Ptr(Box::new(inner.ty().clone())));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::frontend;

    #[test]
    fn assigns_statement_ids_in_preorder() {
        let analyzed = frontend(
            r#"
            fn main() -> u32 {
                var x: u32 = 1;
                if (x == 1) {
                    x = 2;
                } else {
                    x = 3;
                }
                return x;
            }
        "#,
        )
        .unwrap();
        let main = analyzed.program.function("main").unwrap();
        assert_eq!(main.body[0].id, 0);
        assert_eq!(main.body[1].id, 1);
        assert_eq!(main.body[2].id, 4);
        assert_eq!(analyzed.debug.functions["main"].num_statements, 5);
    }

    #[test]
    fn computes_struct_layouts_with_nested_structs() {
        let analyzed = frontend(
            r#"
            struct Inner { a: u16, b: u32, }
            struct Outer { x: u8, inner: Inner, p: ptr<Inner>, }
            fn main() -> u32 { return 0; }
        "#,
        )
        .unwrap();
        let outer = &analyzed.debug.structs["Outer"];
        assert_eq!(outer.size, 1 + 6 + 8);
        assert_eq!(outer.field("inner").unwrap().offset, 1);
        assert_eq!(outer.field("p").unwrap().offset, 7);
    }

    #[test]
    fn rejects_recursive_struct_by_value() {
        let err = frontend(
            r#"
            struct Node { next: Node, }
            fn main() -> u32 { return 0; }
        "#,
        )
        .unwrap_err();
        assert!(err.message.contains("recursively"));
    }

    #[test]
    fn allows_recursive_struct_through_pointer() {
        frontend(
            r#"
            struct Node { value: u32, next: ptr<Node>, }
            fn main() -> u32 { return 0; }
        "#,
        )
        .unwrap();
    }

    #[test]
    fn literal_adapts_to_operand_type() {
        frontend(
            r#"
            fn main() -> u32 {
                var w: u16 = 10;
                if (w <= 16384) { return 1; }
                return 0;
            }
        "#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_mixed_width_arithmetic_without_cast() {
        let err = frontend(
            r#"
            fn main() -> u32 {
                var w: u16 = 10;
                var h: u32 = 20;
                return (w * h) as u32;
            }
        "#,
        )
        .unwrap_err();
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn rejects_unknown_variable_and_function() {
        assert!(frontend("fn main() -> u32 { return missing; }").is_err());
        assert!(frontend("fn main() -> u32 { return missing(); }").is_err());
    }

    #[test]
    fn rejects_field_access_on_integer() {
        let err = frontend(
            r#"
            fn main() -> u32 {
                var x: u32 = 1;
                return x.width as u32;
            }
        "#,
        )
        .unwrap_err();
        assert!(err.message.contains("non-struct"));
    }

    #[test]
    fn frame_layout_packs_params_and_locals() {
        let analyzed = frontend(
            r#"
            struct H { w: u16, h: u16, }
            fn f(p: u64, q: u8) -> u32 {
                var hdr: H;
                var n: u32 = 0;
                return n;
            }
            fn main() -> u32 { return f(0, 0); }
        "#,
        )
        .unwrap();
        let f = &analyzed.debug.functions["f"];
        assert_eq!(f.num_params, 2);
        assert_eq!(f.var("p").unwrap().frame_offset, 0);
        assert_eq!(f.var("q").unwrap().frame_offset, 8);
        assert_eq!(f.var("hdr").unwrap().frame_offset, 9);
        assert_eq!(f.var("n").unwrap().frame_offset, 13);
        assert_eq!(f.frame_size, 17);
    }

    #[test]
    fn requires_main() {
        let err = frontend("fn helper() -> u32 { return 0; }").unwrap_err();
        assert!(err.message.contains("main"));
    }

    #[test]
    fn void_call_cannot_be_used_as_value() {
        let err = frontend(
            r#"
            fn main() -> u32 {
                var x: u32 = 0;
                x = output(1) as u32;
                return x;
            }
        "#,
        )
        .unwrap_err();
        assert!(err.message.contains("void"));
    }

    #[test]
    fn intrinsics_type_check() {
        frontend(
            r#"
            fn main() -> u32 {
                var n: u64 = input_len();
                var b: u8 = input_byte(0);
                var p: u64 = malloc(16);
                output(p);
                return (b as u32) + (n as u32);
            }
        "#,
        )
        .unwrap();
    }
}
