//! Guard lowering: a translated symbolic check → Phage-C source text.
//!
//! The donor check arrives as a symbolic condition whose tainted leaves are
//! named format fields, and the insertion planner has chosen a recipient
//! variable for every field.  Lowering renders that condition as Phage-C
//! source over those variables, inserting exactly the casts needed so the
//! compiled guard computes the same value the symbolic semantics
//! (`cp_symexpr::eval`) assign to the condition: operands are width-adjusted
//! through unsigned casts (zero-extension / truncation, mirroring how the
//! evaluator resizes operands), and signed operators are expressed by
//! casting their operands to the signed type of the operand width and the
//! result back to unsigned.
//!
//! The invariant maintained by `render`: the emitted text for an
//! expression of width `w` is a Phage-C expression of type `u{w}` whose
//! value equals the symbolic evaluation — except integer constants, which
//! are emitted bare so Phage-C's literal-adaptation rule types them from the
//! sibling operand.

use cp_lang::Type;
use cp_symexpr::{BinOp, CastKind, ExprRef, SymExpr, UnOp, Width};
use std::collections::HashMap;
use std::fmt;

/// The recipient variable chosen to stand in for one donor field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarRef {
    /// Source-level variable name.
    pub name: String,
    /// Declared Phage-C type (drives the reinterpretation casts for signed
    /// variables).
    pub ty: Type,
}

/// Why a condition could not be rendered as Phage-C source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The condition still reads a raw input byte — it was not fully folded
    /// over a format descriptor before lowering.
    RawByte {
        /// Offset of the unfolded read.
        offset: usize,
    },
    /// A field leaf has no chosen variable binding.
    UnboundField {
        /// The unbound field's path.
        path: String,
    },
    /// The bound variable has a pointer or struct type, which cannot carry a
    /// scalar field value.
    NonScalarVariable {
        /// The offending variable's name.
        name: String,
    },
    /// The condition is too large to be a plausible guard (defensive bound;
    /// simplified donor checks are orders of magnitude below it).
    TooLarge {
        /// Node count of the rejected condition.
        nodes: usize,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::RawByte { offset } => {
                write!(f, "condition reads raw input byte {offset}; fold it first")
            }
            LowerError::UnboundField { path } => {
                write!(f, "field `{path}` has no chosen variable binding")
            }
            LowerError::NonScalarVariable { name } => {
                write!(f, "variable `{name}` is not scalar")
            }
            LowerError::TooLarge { nodes } => {
                write!(f, "condition has {nodes} nodes, too large for a guard")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Defensive ceiling on guard size; Figure 8 checks are tens of operations.
const MAX_GUARD_NODES: usize = 4096;

/// The unsigned Phage-C type of a width.
fn utype(w: Width) -> &'static str {
    match w {
        Width::W8 => "u8",
        Width::W16 => "u16",
        Width::W32 => "u32",
        Width::W64 => "u64",
    }
}

/// The signed Phage-C type of a width.
fn itype(w: Width) -> &'static str {
    match w {
        Width::W8 => "i8",
        Width::W16 => "i16",
        Width::W32 => "i32",
        Width::W64 => "i64",
    }
}

/// Width and signedness of a scalar Phage-C type.
fn scalar(ty: &Type) -> Option<(Width, bool)> {
    match ty {
        Type::U8 => Some((Width::W8, false)),
        Type::I8 => Some((Width::W8, true)),
        Type::U16 => Some((Width::W16, false)),
        Type::I16 => Some((Width::W16, true)),
        Type::U32 => Some((Width::W32, false)),
        Type::I32 => Some((Width::W32, true)),
        Type::U64 => Some((Width::W64, false)),
        Type::I64 => Some((Width::W64, true)),
        Type::Ptr(_) | Type::Struct(_) => None,
    }
}

/// A rendered subexpression: either typed text (of the unsigned type of the
/// expression's width) or a bare constant still free to adapt.
enum Rendered {
    Typed(String),
    Literal(u64),
}

/// An explicitly typed rendering of a constant.
///
/// Literals parse as `u32` unless the context provides a type, so values
/// beyond `u32::MAX` are assembled from two halves.
fn literal_text(value: u64, w: Width) -> String {
    if value <= u32::MAX as u64 {
        format!("({value} as {})", utype(w))
    } else {
        let hi = value >> 32;
        let lo = value & 0xFFFF_FFFF;
        format!("((({hi} as u64) << (32 as u64)) | ({lo} as u64))")
    }
}

impl Rendered {
    /// Text of the unsigned type `utype(w)`.
    fn typed(self, w: Width) -> String {
        match self {
            Rendered::Typed(text) => text,
            Rendered::Literal(v) => literal_text(v, w),
        }
    }

    /// Operand text inside a binary operation whose sibling is `sibling`:
    /// bare literals may stay bare when the sibling is typed (Phage-C adapts
    /// them), otherwise they are explicitly typed.
    fn operand(self, w: Width, sibling_is_literal: bool) -> String {
        match self {
            Rendered::Typed(text) => text,
            Rendered::Literal(v) if !sibling_is_literal => format!("{v}"),
            Rendered::Literal(v) => literal_text(v, w),
        }
    }
}

/// Renders a fully folded, translated condition as Phage-C source text over
/// the chosen variables.
///
/// The returned text is a valid Phage-C expression wherever an integer is
/// accepted; it evaluates non-zero exactly when the symbolic condition does,
/// so it can be used directly as [`cp_lang::Patch`]'s guard.
///
/// # Errors
///
/// Returns a [`LowerError`] for raw input-byte leaves, unbound fields,
/// non-scalar bindings or oversized conditions.
pub fn lower_guard(
    condition: &ExprRef,
    bindings: &HashMap<String, VarRef>,
) -> Result<String, LowerError> {
    let nodes = condition.node_count();
    if nodes > MAX_GUARD_NODES {
        return Err(LowerError::TooLarge { nodes });
    }
    Ok(render(condition, bindings)?.typed(condition.width()))
}

/// Resizes a rendered operand from `from` to `to` bits, mirroring how the
/// evaluator truncates operands to the operation width (unsigned resize:
/// zero-extension when widening, truncation when narrowing).
fn resize(r: Rendered, from: Width, to: Width) -> Rendered {
    match r {
        Rendered::Literal(v) => Rendered::Literal(to.truncate(v)),
        Rendered::Typed(text) if from == to => Rendered::Typed(text),
        Rendered::Typed(text) => Rendered::Typed(format!("({text} as {})", utype(to))),
    }
}

fn render(e: &ExprRef, bindings: &HashMap<String, VarRef>) -> Result<Rendered, LowerError> {
    match e.as_ref() {
        SymExpr::Const { width, value } => Ok(Rendered::Literal(width.truncate(*value))),
        SymExpr::InputByte { offset } => Err(LowerError::RawByte { offset: *offset }),
        SymExpr::Field { path, width, .. } => {
            let var = bindings
                .get(path)
                .ok_or_else(|| LowerError::UnboundField { path: path.clone() })?;
            let (var_width, signed) =
                scalar(&var.ty).ok_or_else(|| LowerError::NonScalarVariable {
                    name: var.name.clone(),
                })?;
            // Signed variables are reinterpreted at their own width first so
            // a later widening cast zero-extends instead of sign-extending.
            let mut text = var.name.clone();
            if signed {
                text = format!("({text} as {})", utype(var_width));
            }
            if var_width != *width {
                text = format!("({text} as {})", utype(*width));
            }
            Ok(Rendered::Typed(text))
        }
        SymExpr::Unary { op, width, arg } => {
            let inner = render(arg, bindings)?;
            match op {
                UnOp::Neg => {
                    let a = resize(inner, arg.width(), *width).typed(*width);
                    Ok(Rendered::Typed(format!("(-{a})")))
                }
                UnOp::Not => {
                    let a = resize(inner, arg.width(), *width).typed(*width);
                    Ok(Rendered::Typed(format!("(~{a})")))
                }
                UnOp::LogicalNot => {
                    // `!` yields a u32 0/1 in Phage-C; cast to the node width.
                    let a = inner.typed(arg.width());
                    Ok(Rendered::Typed(format!("((!{a}) as {})", utype(*width))))
                }
            }
        }
        SymExpr::Cast { kind, width, arg } => {
            let from = arg.width();
            let inner = render(arg, bindings)?;
            match kind {
                CastKind::ZeroExt | CastKind::Truncate => Ok(resize(inner, from, *width)),
                CastKind::SignExt => {
                    let a = inner.typed(from);
                    // Reinterpret signed at the source width, sign-extend (or
                    // truncate) to the target, reinterpret back to unsigned.
                    Ok(Rendered::Typed(format!(
                        "((({a} as {}) as {}) as {})",
                        itype(from),
                        itype(*width),
                        utype(*width)
                    )))
                }
            }
        }
        SymExpr::Binary {
            op,
            width,
            lhs,
            rhs,
        } => {
            // Mirrors the evaluator: comparisons operate at the left
            // operand's width, everything else at the node width.
            let ow = if op.is_comparison() {
                lhs.width()
            } else {
                *width
            };
            let a = resize(render(lhs, bindings)?, lhs.width(), ow);
            let b = resize(render(rhs, bindings)?, rhs.width(), ow);
            let (a_lit, b_lit) = (
                matches!(a, Rendered::Literal(_)),
                matches!(b, Rendered::Literal(_)),
            );
            let signed = matches!(
                op,
                BinOp::DivS | BinOp::RemS | BinOp::ShrS | BinOp::LtS | BinOp::LeS
            );
            let (ta, tb) = if signed {
                // Signed operators: operands reinterpreted at the signed type
                // of the operand width (bare literals would adapt to the
                // signed sibling and reinterpret identically, but explicit
                // casts keep the emitted guard self-describing).
                (
                    format!("({} as {})", a.typed(ow), itype(ow)),
                    format!("({} as {})", b.typed(ow), itype(ow)),
                )
            } else {
                (a.operand(ow, b_lit), b.operand(ow, a_lit))
            };
            let body = format!("({ta} {} {tb})", op.c_token());
            if op.is_comparison() {
                // Phage-C comparisons yield u32; the symbolic result is W8.
                Ok(Rendered::Typed(format!("({body} as {})", utype(*width))))
            } else if signed {
                // Signed arithmetic yields the signed type; reinterpret back.
                Ok(Rendered::Typed(format!("({body} as {})", utype(*width))))
            } else {
                Ok(Rendered::Typed(body))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_bytecode::compile;
    use cp_lang::frontend;
    use cp_symexpr::eval::eval;
    use cp_symexpr::ExprBuild;
    use cp_vm::{run, RunConfig, Termination};

    fn bind(entries: &[(&str, &str, Type)]) -> HashMap<String, VarRef> {
        entries
            .iter()
            .map(|(path, name, ty)| {
                (
                    path.to_string(),
                    VarRef {
                        name: name.to_string(),
                        ty: ty.clone(),
                    },
                )
            })
            .collect()
    }

    /// Compiles a two-variable harness program whose output is the lowered
    /// guard's value, runs it on `input`, and checks the guard agrees with
    /// the symbolic evaluation of `condition` (fields read big-endian).
    fn assert_lowering_faithful(condition: &ExprRef, guard: &str, decls: &str, inputs: &[&[u8]]) {
        let source = format!(
            "fn main() -> u32 {{\n{decls}\n    output(({guard}) as u64);\n    return 0;\n}}"
        );
        let program = compile(&frontend(&source).expect("guard source compiles")).unwrap();
        for input in inputs {
            let result = run(&program, input, &RunConfig::default());
            assert_eq!(result.termination, Termination::Returned(0), "{source}");
            let symbolic = eval(condition, *input);
            assert_eq!(
                result.outputs,
                vec![symbolic],
                "guard `{guard}` disagrees with symbolic eval on {input:?}"
            );
        }
    }

    #[test]
    fn lowers_the_paper_overflow_guard_shape() {
        let w = SymExpr::field("/img/width", Width::W16, vec![0, 1]);
        let h = SymExpr::field("/img/height", Width::W16, vec![2, 3]);
        let cond = w
            .zext(Width::W64)
            .binop(BinOp::Mul, h.zext(Width::W64))
            .binop(BinOp::LtU, SymExpr::constant(Width::W64, 536870911))
            .unop(UnOp::LogicalNot);
        let guard = lower_guard(
            &cond,
            &bind(&[
                ("/img/width", "width", Type::U16),
                ("/img/height", "height", Type::U16),
            ]),
        )
        .expect("lowers");
        let decls = r#"
    var width: u16 = ((input_byte(0) as u16) << (8 as u16)) | (input_byte(1) as u16);
    var height: u16 = ((input_byte(2) as u16) << (8 as u16)) | (input_byte(3) as u16);"#;
        assert_lowering_faithful(
            &cond,
            &guard,
            decls,
            &[
                &[0x00, 0x10, 0x00, 0x10],
                &[0xFF, 0xFF, 0xFF, 0xFF],
                &[0x10, 0x00, 0x20, 0x00],
            ],
        );
    }

    #[test]
    fn width_adjusting_casts_are_emitted_for_mismatched_variables() {
        // A W8 field bound to a u64 variable: the guard must truncate.
        let f = SymExpr::field("/pal/index", Width::W8, vec![0]);
        let cond = f
            .zext(Width::W64)
            .binop(BinOp::LtU, SymExpr::constant(Width::W64, 16))
            .unop(UnOp::LogicalNot);
        let guard = lower_guard(&cond, &bind(&[("/pal/index", "index", Type::U64)])).unwrap();
        assert!(guard.contains("(index as u8)"), "{guard}");
        let decls = "    var index: u64 = input_byte(0) as u64;";
        assert_lowering_faithful(&cond, &guard, decls, &[&[0], &[7], &[15], &[16], &[200]]);
    }

    #[test]
    fn signed_comparisons_cast_operands_to_signed_types() {
        let f = SymExpr::field("/snd/bias", Width::W8, vec![0]);
        let cond = f.binop(BinOp::LtS, SymExpr::constant(Width::W8, 0));
        let guard = lower_guard(&cond, &bind(&[("/snd/bias", "bias", Type::U8)])).unwrap();
        assert!(guard.contains("as i8"), "{guard}");
        let decls = "    var bias: u8 = input_byte(0);";
        assert_lowering_faithful(&cond, &guard, decls, &[&[0x00], &[0x7F], &[0x80], &[0xFF]]);
    }

    #[test]
    fn signed_variables_are_reinterpreted_before_widening() {
        let f = SymExpr::field("/a/v", Width::W32, vec![0, 1, 2, 3]);
        let cond = f.binop(BinOp::Eq, SymExpr::constant(Width::W32, 0xFFFF_FFFF));
        let guard = lower_guard(&cond, &bind(&[("/a/v", "v", Type::I32)])).unwrap();
        assert!(guard.contains("(v as u32)"), "{guard}");
        let decls = r#"
    var v: i32 = ((((input_byte(0) as u32) << (24 as u32)) | ((input_byte(1) as u32) << (16 as u32)) | ((input_byte(2) as u32) << (8 as u32)) | (input_byte(3) as u32)) as i32);"#;
        assert_lowering_faithful(
            &cond,
            &guard,
            decls,
            &[&[0xFF, 0xFF, 0xFF, 0xFF], &[0x00, 0x00, 0x00, 0x01]],
        );
    }

    #[test]
    fn sign_extension_casts_round_trip_through_signed_types() {
        let f = SymExpr::field("/a/b", Width::W8, vec![0]);
        let cond = f
            .sext(Width::W32)
            .binop(BinOp::Eq, SymExpr::constant(Width::W32, 0xFFFF_FF80));
        let guard = lower_guard(&cond, &bind(&[("/a/b", "b", Type::U8)])).unwrap();
        assert!(guard.contains("as i8"), "{guard}");
        let decls = "    var b: u8 = input_byte(0);";
        assert_lowering_faithful(&cond, &guard, decls, &[&[0x80], &[0x7F], &[0xFF]]);
    }

    #[test]
    fn wide_constants_are_assembled_from_halves() {
        let f = SymExpr::field("/img/size", Width::W64, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // 2^33 does not fit a bare u32 literal.
        let cond = f.binop(BinOp::LtU, SymExpr::constant(Width::W64, 1 << 33));
        let guard = lower_guard(&cond, &bind(&[("/img/size", "size", Type::U64)])).unwrap();
        let decls = r#"
    var size: u64 = 0;
    var i: u64 = 0;
    while (i < 8) {
        size = (size << (8 as u64)) | (input_byte(i) as u64);
        i = i + 1;
    }"#;
        assert_lowering_faithful(
            &cond,
            &guard,
            decls,
            &[
                &[0, 0, 0, 0, 0, 0, 0, 1],
                &[0, 0, 0, 2, 0, 0, 0, 0],
                &[0xFF; 8],
            ],
        );
    }

    #[test]
    fn raw_bytes_and_unbound_fields_are_rejected() {
        let raw = SymExpr::input_byte(3).binop(BinOp::Eq, SymExpr::constant(Width::W8, 0));
        assert!(matches!(
            lower_guard(&raw, &HashMap::new()),
            Err(LowerError::RawByte { offset: 3 })
        ));
        let f = SymExpr::field("/x/y", Width::W8, vec![0]);
        assert!(matches!(
            lower_guard(&f, &HashMap::new()),
            Err(LowerError::UnboundField { .. })
        ));
    }
}
