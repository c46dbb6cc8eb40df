//! Concrete evaluation of symbolic expressions.
//!
//! Evaluation is used in three places:
//!
//! * by the taint tracker as a consistency cross-check (the shadow expression
//!   of a value must evaluate to the concrete value the VM computed),
//! * by the solver's sampling-based refutation of equivalence queries, and
//! * by patch validation when reasoning about what a transferred check would
//!   decide for a concrete input.

use crate::expr::{ExprRef, SymExpr};
use crate::op::{BinOp, CastKind, UnOp};
use crate::width::Width;
use std::collections::HashMap;

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
/// overflowing the call stack, which matters because the solver evaluates
/// candidate checks under thousands of sampled environments.
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
                        let a = values.pop().expect("operand evaluated");
                        match op {
                            UnOp::Neg => width.truncate((width.truncate(a)).wrapping_neg()),
                            UnOp::Not => width.truncate(!a),
                            UnOp::LogicalNot => u64::from(a == 0),
                        }
                    }
                    SymExpr::Binary { op, width, lhs, .. } => {
                        let b = values.pop().expect("rhs evaluated");
                        let a = values.pop().expect("lhs evaluated");
                        let operand_width = if op.is_comparison() {
                            lhs.width()
                        } else {
                            *width
                        };
                        width.truncate(eval_binop(
                            *op,
                            operand_width,
                            operand_width.truncate(a),
                            operand_width.truncate(b),
                        ))
                    }
                    SymExpr::Cast { kind, width, arg } => {
                        let a = values.pop().expect("operand evaluated");
                        let from = arg.width();
                        match kind {
                            CastKind::ZeroExt => width.truncate(from.truncate(a)),
                            CastKind::SignExt => width.truncate(from.sign_extend(a)),
                            CastKind::Truncate => width.truncate(a),
                        }
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

/// Evaluates `expr` under many byte environments in one walk of the shared
/// expression DAG.
///
/// [`eval`] re-walks the whole tree per environment; for the solver's
/// sampling stage — hundreds of environments against one candidate pair —
/// that walk dominates, and interned expressions share large subterms that a
/// tree walk re-evaluates from scratch.  This variant visits each *distinct*
/// node exactly once (shared subterms are recognised by arena identity via
/// [`ExprRef::memo_key`]), carrying one value slot per environment, so the
/// cost is `O(dag_nodes × envs)` instead of `O(tree_nodes × envs)`.
///
/// Returns the root's value under each environment, in `envs` order, with
/// the same truncation and division-by-zero semantics as [`eval`].
pub fn eval_batch<E: ByteEnv>(expr: &ExprRef, envs: &[E]) -> Vec<u64> {
    enum Item {
        Visit(ExprRef),
        Combine(ExprRef),
    }
    let mut memo: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut stack: Vec<Item> = vec![Item::Visit(*expr)];
    while let Some(item) = stack.pop() {
        match item {
            Item::Visit(e) => {
                if memo.contains_key(&e.memo_key()) {
                    continue;
                }
                match &*e {
                    SymExpr::Const { width, value } => {
                        memo.insert(e.memo_key(), vec![width.truncate(*value); envs.len()]);
                    }
                    SymExpr::InputByte { offset } => {
                        let values = envs.iter().map(|env| env.byte(*offset) as u64).collect();
                        memo.insert(e.memo_key(), values);
                    }
                    SymExpr::Field { width, offsets, .. } => {
                        let values = envs
                            .iter()
                            .map(|env| {
                                let mut v: u64 = 0;
                                for &off in offsets {
                                    v = (v << 8) | env.byte(off) as u64;
                                }
                                width.truncate(v)
                            })
                            .collect();
                        memo.insert(e.memo_key(), values);
                    }
                    SymExpr::Unary { arg, .. } | SymExpr::Cast { arg, .. } => {
                        stack.push(Item::Combine(e));
                        stack.push(Item::Visit(*arg));
                    }
                    SymExpr::Binary { lhs, rhs, .. } => {
                        stack.push(Item::Combine(e));
                        stack.push(Item::Visit(*rhs));
                        stack.push(Item::Visit(*lhs));
                    }
                }
            }
            Item::Combine(e) => {
                if memo.contains_key(&e.memo_key()) {
                    continue;
                }
                let combined: Vec<u64> = match &*e {
                    SymExpr::Unary { op, width, arg } => memo[&arg.memo_key()]
                        .iter()
                        .map(|&a| match op {
                            UnOp::Neg => width.truncate(width.truncate(a).wrapping_neg()),
                            UnOp::Not => width.truncate(!a),
                            UnOp::LogicalNot => u64::from(a == 0),
                        })
                        .collect(),
                    SymExpr::Binary {
                        op,
                        width,
                        lhs,
                        rhs,
                    } => {
                        let operand_width = if op.is_comparison() {
                            lhs.width()
                        } else {
                            *width
                        };
                        memo[&lhs.memo_key()]
                            .iter()
                            .zip(&memo[&rhs.memo_key()])
                            .map(|(&a, &b)| {
                                width.truncate(eval_binop(
                                    *op,
                                    operand_width,
                                    operand_width.truncate(a),
                                    operand_width.truncate(b),
                                ))
                            })
                            .collect()
                    }
                    SymExpr::Cast { kind, width, arg } => {
                        let from = arg.width();
                        memo[&arg.memo_key()]
                            .iter()
                            .map(|&a| match kind {
                                CastKind::ZeroExt => width.truncate(from.truncate(a)),
                                CastKind::SignExt => width.truncate(from.sign_extend(a)),
                                CastKind::Truncate => width.truncate(a),
                            })
                            .collect()
                    }
                    _ => unreachable!("leaves are folded on first visit"),
                };
                memo.insert(e.memo_key(), combined);
            }
        }
    }
    memo.remove(&expr.memo_key()).expect("root evaluated")
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
    fn batch_evaluation_matches_eval_per_environment() {
        // A DAG with a heavily shared subterm and every operator class:
        // shared = (b0 * b1) + b2; root mixes casts, comparisons, unary ops
        // and division over two uses of `shared`.
        let b0 = SymExpr::input_byte(0).zext(Width::W32);
        let b1 = SymExpr::input_byte(1).sext(Width::W32);
        let b2 = SymExpr::input_byte(2).zext(Width::W32);
        let shared = b0.binop(BinOp::Mul, b1).binop(BinOp::Add, b2);
        let lhs = shared.binop(BinOp::DivS, SymExpr::constant(Width::W32, 3));
        let rhs = shared
            .unop(UnOp::Not)
            .binop(BinOp::ShrU, SymExpr::constant(Width::W32, 2));
        let root = lhs
            .binop(BinOp::LtS, rhs)
            .zext(Width::W64)
            .binop(BinOp::Add, shared.truncate(Width::W8).zext(Width::W64));

        let envs: Vec<Vec<u8>> = [
            [0u8, 0, 0],
            [0xFF, 0xFF, 0xFF],
            [0x80, 0x01, 0x7F],
            [17, 3, 250],
            [1, 0x80, 0],
        ]
        .iter()
        .map(|e| e.to_vec())
        .collect();
        let batch = eval_batch(&root, &envs);
        assert_eq!(batch.len(), envs.len());
        for (i, env) in envs.iter().enumerate() {
            assert_eq!(batch[i], eval(&root, env), "environment {i}");
        }
    }

    #[test]
    fn batch_evaluation_handles_fields_and_empty_batches() {
        let f = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
        let halved = f.binop(BinOp::DivU, SymExpr::constant(Width::W16, 2));
        let envs: Vec<Vec<u8>> = vec![vec![0x12, 0x34], vec![0xFF, 0xFF]];
        assert_eq!(eval_batch(&halved, &envs), vec![0x1234 / 2, 0xFFFF / 2]);
        assert!(eval_batch(&halved, &Vec::<Vec<u8>>::new()).is_empty());
    }

    #[test]
    fn logical_not_produces_zero_one() {
        let z = SymExpr::constant(Width::W32, 0).unop(UnOp::LogicalNot);
        let nz = SymExpr::constant(Width::W32, 17).unop(UnOp::LogicalNot);
        assert_eq!(eval(&z, &env(&[])), 1);
        assert_eq!(eval(&nz, &env(&[])), 0);
    }
}
