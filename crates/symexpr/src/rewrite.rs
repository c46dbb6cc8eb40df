//! Expression simplification.
//!
//! As the symbolic expressions are recorded during the instrumented execution
//! of the donor, Code Phage applies optimisations that reduce the size of the
//! generated expressions (paper Section 3.2, Figure 5).  The most important of
//! these simplify bit-manipulation operations — shifts, masks and ors that
//! extract, align or combine operands — because such operations occur
//! constantly when applications read multi-byte fields out of their inputs.
//!
//! [`simplify`] performs a bottom-up pass applying
//!
//! * constant folding,
//! * algebraic identities (`x + 0`, `x | 0`, `x & ~0`, `x * 1`, `x << 0`, …),
//! * cast fusion (`Shrink(ToSize(x))`, nested truncations, …), and
//! * the generalised Figure 5 byte-structure rules via [`crate::bytes`].
//!
//! The `fig8` report's `raw-ops` / `simp-ops` columns show the pass's
//! effect: each transferred check's size before and after it.
//!
//! The pass is iterative (an explicit work stack, so 100k-node loop-carried
//! expressions cannot overflow the call stack) and memoised per interned
//! node: a hash-consed subtree shared by thousands of recorded branches is
//! simplified exactly once per thread, and repeated [`simplify`] calls on the
//! same expression are O(1) cache hits.
//!
//! Simplification never changes the value of an expression; the property tests
//! at the bottom of this module and the deterministic randomized tests in
//! `tests/arena_invariants.rs` check this against random byte environments.

use crate::bytes::{decompose, recompose, recomposed_ops};
use crate::eval::{eval_binary, eval_cast, eval_unop};
use crate::expr::{ExprRef, SymExpr};
use crate::op::{BinOp, CastKind, UnOp};
use crate::width::Width;
use std::cell::RefCell;
use std::collections::HashMap;

/// The simplification memo for one arena generation: entries are only
/// consulted while `stamp` matches the thread's current arena identity, and
/// the whole table drops the first time it is touched after an epoch roll.
/// Keying by the dense `ExprId` (valid per epoch) instead of the node
/// address means a reset can never alias — a recycled address or id from a
/// later epoch finds an empty table, not a stale entry.
#[derive(Default)]
struct Memo {
    stamp: crate::arena::memo::Stamp,
    map: HashMap<u32, ExprRef>,
}

thread_local! {
    /// Per-thread memo: node id → simplified node, scoped to one arena
    /// epoch.  Nodes are immutable and simplification is deterministic, so
    /// entries never invalidate *within* an epoch.
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

fn memo_get(expr: ExprRef) -> Option<ExprRef> {
    MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        crate::arena::memo::roll(&mut memo.stamp, &mut memo.map);
        memo.map.get(&expr.id().index()).copied()
    })
}

fn memo_put(expr: ExprRef, result: ExprRef) {
    MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        crate::arena::memo::roll(&mut memo.stamp, &mut memo.map);
        memo.map.insert(expr.id().index(), result);
    });
}

/// Number of memoised simplification results on this thread for the current
/// arena epoch.
pub fn memo_len() -> usize {
    MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        crate::arena::memo::roll(&mut memo.stamp, &mut memo.map);
        memo.map.len()
    })
}

/// Simplifies an expression with every rule family.
///
/// Bottom-up over the expression DAG with an explicit work stack; every
/// distinct node is combined at most once per thread.
pub fn simplify(expr: &ExprRef) -> ExprRef {
    if let Some(hit) = memo_get(*expr) {
        return hit;
    }
    // (node, children_ready) — a node is pushed once to schedule its children
    // and once more to combine their simplified forms.
    let mut stack: Vec<(ExprRef, bool)> = vec![(*expr, false)];
    while let Some((e, ready)) = stack.pop() {
        if memo_get(e).is_some() {
            continue;
        }
        if !ready {
            match &*e {
                // Leaves are already canonical: they simplify to themselves
                // (the byte rules cannot shrink a single leaf).
                SymExpr::Const { .. } | SymExpr::InputByte { .. } | SymExpr::Field { .. } => {
                    memo_put(e, e);
                }
                SymExpr::Unary { arg, .. } | SymExpr::Cast { arg, .. } => {
                    stack.push((e, true));
                    stack.push((*arg, false));
                }
                SymExpr::Binary { lhs, rhs, .. } => {
                    stack.push((e, true));
                    stack.push((*lhs, false));
                    stack.push((*rhs, false));
                }
            }
        } else {
            let child = |c: ExprRef| memo_get(c).expect("children combined before parent");
            let rebuilt = match &*e {
                SymExpr::Unary { op, width, arg } => simplify_unary(*op, *width, child(*arg)),
                SymExpr::Binary {
                    op,
                    width,
                    lhs,
                    rhs,
                } => simplify_binary(*op, *width, child(*lhs), child(*rhs)),
                SymExpr::Cast { kind, width, arg } => simplify_cast(*kind, *width, child(*arg)),
                _ => unreachable!("leaves are memoised on first visit"),
            };
            memo_put(e, apply_byte_rules(rebuilt));
        }
    }
    memo_get(*expr).expect("root combined")
}

/// The smaller of `expr` and its byte-level recomposition.  The size is
/// counted before anything is built, so a recomposition that would be
/// discarded — `zext(Field)`, the widened side of every translation miter —
/// interns no node.
fn apply_byte_rules(expr: ExprRef) -> ExprRef {
    if let Some(bytes) = decompose(&expr) {
        if recomposed_ops(&bytes, expr.width()) < expr.op_count() {
            return recompose(&bytes, expr.width());
        }
    }
    expr
}

fn simplify_unary(op: UnOp, width: Width, arg: ExprRef) -> ExprRef {
    if let Some(v) = arg.as_const() {
        return SymExpr::constant(width, eval_unop(op, width, v));
    }
    // Double negation / complement elimination.
    if let SymExpr::Unary {
        op: inner_op,
        arg: inner,
        ..
    } = arg.as_ref()
    {
        if *inner_op == op && matches!(op, UnOp::Neg | UnOp::Not) {
            return *inner;
        }
        // LogicalNot(LogicalNot(x)) is the 0/1 normalisation of x; keep it when
        // x is already a comparison (whose value is known to be 0/1).
        if op == UnOp::LogicalNot && *inner_op == UnOp::LogicalNot {
            if let SymExpr::Binary { op: cmp, .. } = inner.as_ref() {
                if cmp.is_comparison() {
                    return *inner;
                }
            }
        }
    }
    SymExpr::unary(op, width, arg)
}

fn simplify_cast(kind: CastKind, width: Width, arg: ExprRef) -> ExprRef {
    let from = arg.width();
    if from == width {
        return arg;
    }
    // A narrowing "extension" keeps only the low `width` bits (see
    // `eval`), i.e. it *is* a truncation; canonicalise so the fusion rules
    // below only ever see genuinely widening ZeroExt/SignExt nodes.
    let kind = if width < from {
        CastKind::Truncate
    } else {
        kind
    };
    if let Some(v) = arg.as_const() {
        return SymExpr::constant(width, eval_cast(kind, from, width, v));
    }
    // Cast fusion.  Recursion only follows already-simplified cast chains, so
    // its depth is bounded by the (short) fused chain, not the tree.
    if let SymExpr::Cast {
        kind: inner_kind,
        arg: inner,
        ..
    } = arg.as_ref()
    {
        match (inner_kind, kind) {
            // ZeroExt(ZeroExt(x)) => ZeroExt(x)
            (CastKind::ZeroExt, CastKind::ZeroExt) => {
                return simplify_cast(CastKind::ZeroExt, width, *inner);
            }
            // Truncate(ZeroExt(x)) where the truncation lands back at or below
            // the original width is either x itself or a narrower truncation.
            (CastKind::ZeroExt, CastKind::Truncate) => {
                if width == inner.width() {
                    return *inner;
                }
                if width < inner.width() {
                    return simplify_cast(CastKind::Truncate, width, *inner);
                }
                return simplify_cast(CastKind::ZeroExt, width, *inner);
            }
            // Truncate(Truncate(x)) => Truncate(x) — but only when the outer
            // truncation is at least as narrow as the inner one.  A *widening*
            // outer "truncate" (which zero-extends, see `eval`) must keep the
            // inner node: fusing Shrink(32, Shrink(8, x₁₆)) to Shrink(32, x₁₆)
            // would resurrect the masked-off high byte.
            (CastKind::Truncate, CastKind::Truncate) if width <= arg.width() => {
                return simplify_cast(CastKind::Truncate, width, *inner);
            }
            _ => {}
        }
    }
    SymExpr::cast(kind, width, arg)
}

fn simplify_binary(op: BinOp, width: Width, lhs: ExprRef, rhs: ExprRef) -> ExprRef {
    // Constant folding.
    if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
        return SymExpr::constant(width, eval_binary(op, width, lhs.width(), a, b));
    }
    // Canonicalise constants to the right for commutative operators so the
    // identity rules below only need to look at `rhs`.
    let (lhs, rhs) = if op.is_commutative() && lhs.as_const().is_some() && rhs.as_const().is_none()
    {
        (rhs, lhs)
    } else {
        (lhs, rhs)
    };
    if let Some(c) = rhs.as_const() {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor if c == 0 => return lhs,
            BinOp::Shl | BinOp::ShrU | BinOp::ShrS if c == 0 => return lhs,
            BinOp::Mul if c == 1 => return lhs,
            BinOp::DivU if c == 1 => return lhs,
            BinOp::Mul if c == 0 => return SymExpr::constant(width, 0),
            BinOp::And if c == 0 => return SymExpr::constant(width, 0),
            BinOp::And if c == width.mask() => return lhs,
            BinOp::Or if c == width.mask() => return SymExpr::constant(width, width.mask()),
            _ => {}
        }
    }
    // x - x => 0, x ^ x => 0, x & x => x, x | x => x.  Handle equality is
    // structural equality thanks to hash-consing.
    if lhs == rhs {
        match op {
            BinOp::Sub | BinOp::Xor => return SymExpr::constant(width, 0),
            BinOp::And | BinOp::Or => return lhs,
            BinOp::Eq | BinOp::LeU | BinOp::LeS => return SymExpr::constant(Width::W8, 1),
            BinOp::Ne | BinOp::LtU | BinOp::LtS => return SymExpr::constant(Width::W8, 0),
            _ => {}
        }
    }
    SymExpr::binary(op, width, lhs, rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_ops;
    use crate::eval::eval;
    use crate::expr::ExprBuild;
    use crate::input_support;

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    #[test]
    fn simplifying_a_widened_field_interns_only_what_its_result_holds() {
        // A fresh thread starts from an empty arena, whatever else runs.
        std::thread::spawn(|| {
            let widened = SymExpr::field("/hdr/len", Width::W16, vec![4, 5]).zext(Width::W64);
            let held = crate::ExprArena::node_count();
            assert_eq!(held, 2, "the field and its zero extension");
            assert_eq!(simplify(&widened), widened);
            assert_eq!(crate::ExprArena::node_count(), held);
        })
        .join()
        .expect("probe thread survives");
    }

    #[test]
    fn constant_folding_collapses_pure_constant_trees() {
        let e = SymExpr::constant(Width::W32, 6)
            .binop(BinOp::Mul, SymExpr::constant(Width::W32, 7))
            .binop(BinOp::Add, SymExpr::constant(Width::W32, 0));
        assert_eq!(simplify(&e).as_const(), Some(42));
    }

    #[test]
    fn identity_rules_remove_neutral_elements() {
        let x = SymExpr::input_byte(0).zext(Width::W32);
        let e = x
            .binop(BinOp::Add, SymExpr::constant(Width::W32, 0))
            .binop(BinOp::Mul, SymExpr::constant(Width::W32, 1))
            .binop(BinOp::Or, SymExpr::constant(Width::W32, 0));
        assert_eq!(simplify(&e), x);
    }

    #[test]
    fn byte_rules_disentangle_low_byte_extraction() {
        // Extracting the low byte of a big-endian 16-bit read should reduce to
        // a zero extension of the single input byte (Fig. 5 rule 1).
        let e = be16(10, 11).binop(BinOp::And, SymExpr::constant(Width::W16, 0xFF));
        let s = simplify(&e);
        assert_eq!(count_ops(&s), 1);
        assert_eq!(input_support(&s).into_iter().collect::<Vec<_>>(), vec![11]);
    }

    #[test]
    fn byte_rules_disentangle_high_byte_extraction() {
        let e = be16(10, 11)
            .binop(BinOp::And, SymExpr::constant(Width::W16, 0xFF00))
            .binop(BinOp::ShrU, SymExpr::constant(Width::W16, 8));
        let s = simplify(&e);
        assert_eq!(count_ops(&s), 1);
        assert_eq!(input_support(&s).into_iter().collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn double_logical_not_of_comparison_collapses() {
        let cmp = SymExpr::input_byte(0)
            .zext(Width::W32)
            .binop(BinOp::LeU, SymExpr::constant(Width::W32, 10));
        let e = cmp.unop(UnOp::LogicalNot).unop(UnOp::LogicalNot);
        assert_eq!(simplify(&e), cmp);
    }

    #[test]
    fn widening_truncate_keeps_the_narrower_truncation() {
        // Found by the solver differential harness: Shrink(32, Shrink(8, x₁₆))
        // masks to 8 bits and then zero-extends; fusing the two truncations
        // would resurrect the high byte of x.
        let x = be16(0, 1);
        let e = x.truncate(Width::W8).truncate(Width::W32);
        let s = simplify(&e);
        let input = vec![0x12u8, 0x34];
        assert_eq!(eval(&e, &input), 0x34);
        assert_eq!(eval(&s, &input), 0x34, "simplify changed the value: {s}");
    }

    #[test]
    fn truncate_of_zero_extension_round_trips() {
        let b = SymExpr::input_byte(3);
        let e = b.zext(Width::W64).truncate(Width::W8);
        assert_eq!(simplify(&e), b);
    }

    #[test]
    fn mul_by_zero_is_zero_even_when_tainted() {
        let e = SymExpr::input_byte(0)
            .zext(Width::W32)
            .binop(BinOp::Mul, SymExpr::constant(Width::W32, 0));
        assert_eq!(simplify(&e).as_const(), Some(0));
    }

    #[test]
    fn repeated_simplification_is_a_cache_hit() {
        let e = be16(30, 31).binop(BinOp::And, SymExpr::constant(Width::W16, 0xFF));
        let first = simplify(&e);
        let before = memo_len();
        let second = simplify(&e);
        assert_eq!(first, second);
        assert_eq!(memo_len(), before, "second call must not add memo entries");
    }

    #[test]
    fn deep_chains_do_not_overflow_the_stack() {
        // 100k nested adds would overflow a recursive simplifier.
        let mut e = SymExpr::input_byte(0).zext(Width::W64);
        for i in 0..100_000u64 {
            e = e.binop(BinOp::Add, SymExpr::constant(Width::W64, (i % 7) + 1));
        }
        let s = simplify(&e);
        assert!(s.op_count() <= e.op_count());
    }

    #[test]
    fn simplification_preserves_semantics_on_endianness_conversion() {
        // The exact shape from the paper's running example: a 16-bit
        // big-endian field, masked, shifted and recombined, then widened and
        // multiplied.  Simplification must not change its value.
        let height = be16(4, 5);
        let width_f = be16(6, 7);
        let check = height
            .zext(Width::W64)
            .binop(BinOp::Mul, width_f.zext(Width::W64))
            .binop(BinOp::LeU, SymExpr::constant(Width::W64, (1u64 << 29) - 1));
        let simplified = simplify(&check);
        for input in [
            vec![0u8, 0, 0, 0, 0x12, 0x34, 0x00, 0x40],
            vec![0u8, 0, 0, 0, 0xF5, 0x80, 0x5A, 0xA0],
            vec![0u8, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF],
        ] {
            assert_eq!(eval(&check, &input), eval(&simplified, &input));
        }
    }
}

// Property-based checks that simplification preserves semantics.  They need
// the external `proptest` crate, which offline build environments cannot
// fetch, so the module only compiles with `--features proptests`.  The
// deterministic equivalent lives in `tests/arena_invariants.rs`.
#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use crate::count_ops;
    use crate::eval::eval;
    use proptest::prelude::*;

    /// Strategy producing random expressions over input bytes 0..4.
    fn arb_expr(depth: u32) -> BoxedStrategy<ExprRef> {
        let leaf = prop_oneof![
            (0usize..4).prop_map(SymExpr::input_byte),
            (any::<u64>(), 0usize..4).prop_map(|(v, w)| { SymExpr::constant(Width::all()[w], v) }),
        ];
        leaf.prop_recursive(depth, 64, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone(), 0usize..12, 0usize..4).prop_map(|(a, b, op, w)| {
                    let ops = [
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::And,
                        BinOp::Or,
                        BinOp::Xor,
                        BinOp::Shl,
                        BinOp::ShrU,
                        BinOp::ShrS,
                        BinOp::LeU,
                        BinOp::LtS,
                        BinOp::Eq,
                    ];
                    let width = Width::all()[w];
                    let a = a.zext(width);
                    let b = b.zext(width);
                    a.binop(ops[op], b)
                }),
                (inner.clone(), 0usize..4, 0usize..3).prop_map(|(a, w, k)| {
                    let kinds = [CastKind::ZeroExt, CastKind::SignExt, CastKind::Truncate];
                    match kinds[k] {
                        CastKind::ZeroExt => a.zext(Width::all()[w]),
                        CastKind::SignExt => a.sext(Width::all()[w]),
                        CastKind::Truncate => a.truncate(Width::all()[w]),
                    }
                }),
                (inner, 0usize..3).prop_map(|(a, k)| {
                    let ops = [UnOp::Neg, UnOp::Not, UnOp::LogicalNot];
                    a.unop(ops[k])
                }),
            ]
            .boxed()
        })
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn simplify_preserves_value(expr in arb_expr(4), bytes in proptest::collection::vec(any::<u8>(), 4)) {
            let simplified = simplify(&expr);
            prop_assert_eq!(eval(&expr, &bytes), eval(&simplified, &bytes));
        }

        #[test]
        fn simplify_never_grows_expressions(expr in arb_expr(4)) {
            let simplified = simplify(&expr);
            prop_assert!(count_ops(&simplified) <= count_ops(&expr));
        }

        #[test]
        fn simplify_is_idempotent(expr in arb_expr(3), bytes in proptest::collection::vec(any::<u8>(), 4)) {
            let once = simplify(&expr);
            let twice = simplify(&once);
            prop_assert_eq!(eval(&once, &bytes), eval(&twice, &bytes));
            prop_assert!(count_ops(&twice) <= count_ops(&once));
        }
    }
}
