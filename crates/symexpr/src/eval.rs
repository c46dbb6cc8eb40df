//! Concrete evaluation of symbolic expressions.
//!
//! In the pipeline only the solver evaluates expressions: cp-solver
//! re-validates every model and witness with [`eval`] before it returns one,
//! and its sampling and exhaustive rungs run a lane kernel that applies
//! [`eval_unop`], [`eval_cast`] and [`eval_binary`], the operator semantics
//! [`eval`] itself applies, to many byte environments at once.  The
//! simplifier folds constant operands with the same three functions, and the
//! VM's interpreter applies [`eval_binop`] to concrete operands.  Tests use
//! [`eval`] as the reference semantics.

use crate::expr::SymExpr;
use crate::op::{BinOp, CastKind, UnOp};
use crate::width::Width;

/// Provides concrete values for the tainted leaves of an expression.
pub trait ByteEnv {
    /// The value of the input byte at `offset`.
    fn byte(&self, offset: usize) -> u8;
}

impl ByteEnv for [u8] {
    fn byte(&self, offset: usize) -> u8 {
        self.get(offset).copied().unwrap_or(0)
    }
}

impl ByteEnv for Vec<u8> {
    fn byte(&self, offset: usize) -> u8 {
        self.as_slice().byte(offset)
    }
}

impl<F: Fn(usize) -> u8> ByteEnv for F {
    fn byte(&self, offset: usize) -> u8 {
        self(offset)
    }
}

/// Evaluates `expr` under the byte environment `env`.
///
/// The result is truncated to the expression's width.  Division by zero
/// evaluates to the all-ones value of the result width and remainder by zero
/// evaluates to the dividend, matching SMT-LIB bitvector semantics; the VM
/// traps divide-by-zero before such a value could ever be observed in a run.
///
/// Iterative (explicit work and value stacks): loop-carried donor
/// expressions hundreds of thousands of nodes deep evaluate without
/// overflowing the call stack.
pub fn eval<E: ByteEnv + ?Sized>(expr: &SymExpr, env: &E) -> u64 {
    // A node is visited once to schedule its children and once more
    // (`ready`) to combine their values; leaves are folded immediately.
    // `values` carries child results, pushed left-to-right.
    enum Item<'a> {
        Visit(&'a SymExpr),
        Combine(&'a SymExpr),
    }
    let mut stack: Vec<Item<'_>> = vec![Item::Visit(expr)];
    let mut values: Vec<u64> = Vec::new();
    while let Some(item) = stack.pop() {
        match item {
            Item::Visit(e) => match e {
                SymExpr::Const { width, value } => values.push(width.truncate(*value)),
                SymExpr::InputByte { offset } => values.push(env.byte(*offset) as u64),
                SymExpr::Field { width, offsets, .. } => {
                    // Fields are stored big-endian in the input (most
                    // significant offset first), as in the synthetic formats.
                    let mut v: u64 = 0;
                    for &off in offsets {
                        v = (v << 8) | env.byte(off) as u64;
                    }
                    values.push(width.truncate(v));
                }
                SymExpr::Unary { arg, .. } | SymExpr::Cast { arg, .. } => {
                    stack.push(Item::Combine(e));
                    stack.push(Item::Visit(arg));
                }
                SymExpr::Binary { lhs, rhs, .. } => {
                    stack.push(Item::Combine(e));
                    stack.push(Item::Visit(rhs));
                    stack.push(Item::Visit(lhs));
                }
            },
            Item::Combine(e) => {
                let combined = match e {
                    SymExpr::Unary { op, width, .. } => {
                        eval_unop(*op, *width, values.pop().expect("operand evaluated"))
                    }
                    SymExpr::Binary { op, width, lhs, .. } => {
                        let b = values.pop().expect("rhs evaluated");
                        let a = values.pop().expect("lhs evaluated");
                        eval_binary(*op, *width, lhs.width(), a, b)
                    }
                    SymExpr::Cast { kind, width, arg } => {
                        let a = values.pop().expect("operand evaluated");
                        eval_cast(*kind, arg.width(), *width, a)
                    }
                    _ => unreachable!("leaves are folded on first visit"),
                };
                values.push(combined);
            }
        }
    }
    let result = values.pop().expect("root evaluated");
    debug_assert!(values.is_empty(), "value stack must drain exactly");
    expr.width().truncate(result)
}

/// Applies a unary operator whose result has width `width`.
#[inline]
pub fn eval_unop(op: UnOp, width: Width, a: u64) -> u64 {
    match op {
        UnOp::Neg => width.truncate(width.truncate(a).wrapping_neg()),
        UnOp::Not => width.truncate(!a),
        UnOp::LogicalNot => u64::from(a == 0),
    }
}

/// Casts an operand of width `from` to width `width`.
#[inline]
pub fn eval_cast(kind: CastKind, from: Width, width: Width, a: u64) -> u64 {
    match kind {
        CastKind::ZeroExt => width.truncate(from.truncate(a)),
        CastKind::SignExt => width.truncate(from.sign_extend(a)),
        CastKind::Truncate => width.truncate(a),
    }
}

/// Evaluates a binary node of width `width` whose left operand has width
/// `lhs`: a comparison compares its operands at their own width, every
/// other operator computes at the node's width, and the result is truncated
/// to the node's width.
#[inline]
pub fn eval_binary(op: BinOp, width: Width, lhs: Width, a: u64, b: u64) -> u64 {
    let operand = if op.is_comparison() { lhs } else { width };
    width.truncate(eval_binop(
        op,
        operand,
        operand.truncate(a),
        operand.truncate(b),
    ))
}

/// Applies a binary operator to two concrete operands of width `width`.
// Inlinable across crates: the VM's interpreter loop calls it once per
// binary instruction.
#[inline]
pub fn eval_binop(op: BinOp, width: Width, a: u64, b: u64) -> u64 {
    let bits = width.bits() as u64;
    let result = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::DivU => a.checked_div(b).unwrap_or_else(|| width.mask()),
        BinOp::DivS => {
            if b == 0 {
                width.mask()
            } else {
                let sa = width.sign_extend(a) as i64;
                let sb = width.sign_extend(b) as i64;
                sa.wrapping_div(sb) as u64
            }
        }
        BinOp::RemU => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        BinOp::RemS => {
            if b == 0 {
                a
            } else {
                let sa = width.sign_extend(a) as i64;
                let sb = width.sign_extend(b) as i64;
                sa.wrapping_rem(sb) as u64
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= bits {
                0
            } else {
                a << b
            }
        }
        BinOp::ShrU => {
            if b >= bits {
                0
            } else {
                a >> b
            }
        }
        BinOp::ShrS => {
            let sa = width.sign_extend(a) as i64;
            let shift = b.min(63);
            (sa >> shift) as u64
        }
        BinOp::Eq => (a == b) as u64,
        BinOp::Ne => (a != b) as u64,
        BinOp::LtU => (a < b) as u64,
        BinOp::LeU => (a <= b) as u64,
        BinOp::LtS => ((width.sign_extend(a) as i64) < (width.sign_extend(b) as i64)) as u64,
        BinOp::LeS => ((width.sign_extend(a) as i64) <= (width.sign_extend(b) as i64)) as u64,
    };
    width.truncate(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ExprBuild, SymExpr};

    fn env(bytes: &[u8]) -> Vec<u8> {
        bytes.to_vec()
    }

    #[test]
    fn evaluates_big_endian_field_reconstruction() {
        // (b0 << 8) | b1 over 16 bits.
        let hi = SymExpr::input_byte(0).zext(Width::W16);
        let lo = SymExpr::input_byte(1).zext(Width::W16);
        let field = hi
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, lo);
        let input = env(&[0x12, 0x34]);
        assert_eq!(eval(&field, &input), 0x1234);
    }

    #[test]
    fn field_leaf_evaluates_big_endian() {
        let f = SymExpr::field("/hdr/width", Width::W16, vec![2, 3]);
        let input = env(&[0, 0, 0xAB, 0xCD]);
        assert_eq!(eval(&f, &input), 0xABCD);
    }

    #[test]
    fn wrapping_multiplication_overflows_at_width() {
        let a = SymExpr::constant(Width::W32, 0x10000);
        let b = SymExpr::constant(Width::W32, 0x10000);
        let product = a.binop(BinOp::Mul, b);
        assert_eq!(eval(&product, &env(&[])), 0);
    }

    #[test]
    fn signed_comparison_uses_operand_width() {
        let a = SymExpr::constant(Width::W8, 0xFF); // -1 as i8
        let b = SymExpr::constant(Width::W8, 0x01);
        let cmp = a.binop(BinOp::LtS, b);
        assert_eq!(eval(&cmp, &env(&[])), 1);
        let cmp_u =
            SymExpr::constant(Width::W8, 0xFF).binop(BinOp::LtU, SymExpr::constant(Width::W8, 1));
        assert_eq!(eval(&cmp_u, &env(&[])), 0);
    }

    #[test]
    fn division_by_zero_is_all_ones() {
        let a = SymExpr::constant(Width::W16, 7);
        let z = SymExpr::constant(Width::W16, 0);
        assert_eq!(eval(&a.binop(BinOp::DivU, z), &env(&[])), 0xFFFF);
    }

    #[test]
    fn shift_by_width_or_more_is_zero() {
        let a = SymExpr::constant(Width::W32, 0xFFFF_FFFF);
        let s = SymExpr::constant(Width::W32, 32);
        assert_eq!(eval(&a.binop(BinOp::Shl, s), &env(&[])), 0);
        assert_eq!(eval(&a.binop(BinOp::ShrU, s), &env(&[])), 0);
    }

    #[test]
    fn sign_extension_then_truncation_round_trips_low_bits() {
        let b = SymExpr::input_byte(0).sext(Width::W32).truncate(Width::W8);
        assert_eq!(eval(&b, &env(&[0x80])), 0x80);
    }

    #[test]
    fn deep_chains_evaluate_without_stack_overflow() {
        // 100k nested adds would overflow a recursive evaluator.
        let mut e = SymExpr::input_byte(0).zext(Width::W64);
        for i in 0..100_000u64 {
            e = e.binop(BinOp::Add, SymExpr::constant(Width::W64, (i % 7) + 1));
        }
        // Σ ((i % 7) + 1) over 100k terms: 14285 full cycles summing 28 each,
        // plus the 5-term tail 1+2+3+4+5, on top of the input byte.
        let expected = 3 + 14_285 * 28 + 15;
        assert_eq!(eval(&e, &env(&[3])), expected);
    }

    #[test]
    fn logical_not_produces_zero_one() {
        let z = SymExpr::constant(Width::W32, 0).unop(UnOp::LogicalNot);
        let nz = SymExpr::constant(Width::W32, 17).unop(UnOp::LogicalNot);
        assert_eq!(eval(&z, &env(&[])), 1);
        assert_eq!(eval(&nz, &env(&[])), 0);
    }
}
