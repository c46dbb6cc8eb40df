//! # cp-symexpr
//!
//! Application-independent symbolic expressions for Code Phage.
//!
//! During the instrumented execution of a donor or recipient, every value that
//! depends on tainted input bytes is shadowed by a [`SymExpr`]: a bitvector
//! expression whose leaves are input bytes (or named input fields) and
//! constants.  This is the representation the paper calls the
//! *application-independent form* of a check (Section 3.2).  The run itself
//! records each expression's shape on a [`Tape`] ([`tape`]) and interns only
//! the entries a reader resolves.
//!
//! Expressions are **hash-consed**: every node is interned in the thread's
//! [`ExprArena`], so [`ExprRef`] is a `Copy` handle with a stable [`ExprId`],
//! structural equality is a pointer compare, and the metadata hot paths need —
//! width, taintedness, operator count, input-support bitset — is memoised per
//! node at intern time (see [`arena`] for the design and its invariants).
//! Passes that walk expressions ([`rewrite::simplify`], [`bytes::decompose`])
//! memoise their results per interned node, so subtrees shared across
//! thousands of recorded branch conditions are processed once per thread and
//! arena epoch.  Arenas are **epoch-scoped**: an [`ArenaEpoch`] guard (or
//! [`ExprArena::reset`]) reclaims every node, hash-cons entry and dependent
//! memo when a unit of work ends — see [`arena`] for the ownership rule.
//!
//! The crate also implements the bit-manipulation rewrite rules of Figure 5 of
//! the paper (and their generalisation to 8/16/32/64-bit operands) in
//! [`rewrite`], concrete evaluation in [`eval`], and the operation-count metric
//! used for the "Check Size" column of Figure 8 in [`count_ops`].
//!
//! ```
//! use cp_symexpr::{SymExpr, Width, BinOp, ExprBuild};
//!
//! // (byte0 << 8) | byte1 — a big-endian 16-bit field read.
//! let hi = SymExpr::input_byte(0).zext(Width::W16);
//! let lo = SymExpr::input_byte(1).zext(Width::W16);
//! let field = hi.binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
//!     .binop(BinOp::Or, lo);
//! // Extracting the low byte back out simplifies to the original byte.
//! let low = field.binop(BinOp::And, SymExpr::constant(Width::W16, 0xFF));
//! let simplified = cp_symexpr::rewrite::simplify(&low);
//! assert_eq!(cp_symexpr::count_ops(&simplified), 1); // just the zero-extension
//! ```

pub mod arena;
pub mod bytes;
pub mod display;
pub mod eval;
pub mod expr;
pub mod op;
pub mod overflow;
pub mod rewrite;
pub mod support;
pub mod tape;
pub mod walk;
pub mod width;

pub use arena::{ArenaEpoch, ExprArena, ExprId};
pub use expr::{ExprBuild, ExprRef, SymExpr};
pub use op::{BinOp, CastKind, UnOp};
pub use overflow::{overflow_conditions, overflow_goal};
pub use support::SupportSet;
pub use tape::{Operand, Tape, TapeRef};
pub use width::Width;

/// Counts operator nodes (unary, binary and cast nodes) in an expression.
///
/// This is the metric reported in the "Check Size" column of Figure 8 of the
/// paper: the number of operations in the excised application-independent
/// representation and in the translated check.  Served from the arena's
/// memoised per-node metadata — O(1).
pub fn count_ops(expr: &ExprRef) -> usize {
    expr.op_count()
}

/// Collects the set of input byte offsets an expression depends on.
///
/// Code Phage uses this both to filter branches that are not affected by the
/// relevant bytes (Section 3.2) and as the "disjoint support" fast path that
/// avoids solver invocations during translation (Section 3.3).
///
/// The set itself is memoised on the node ([`ExprRef::support`] is the O(1)
/// borrow); this helper materialises it as a `BTreeSet` for callers that want
/// an owned ordered collection.
pub fn input_support(expr: &ExprRef) -> std::collections::BTreeSet<usize> {
    expr.support().iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_ops_counts_operator_nodes() {
        let a = SymExpr::input_byte(0);
        let b = SymExpr::input_byte(1);
        let sum = a.binop(BinOp::Add, b);
        assert_eq!(count_ops(&sum), 1);
        let widened = sum.zext(Width::W32);
        assert_eq!(count_ops(&widened), 2);
    }

    #[test]
    fn support_collects_all_leaves() {
        let e = SymExpr::input_byte(3)
            .zext(Width::W32)
            .binop(BinOp::Mul, SymExpr::input_byte(7).zext(Width::W32));
        let support = input_support(&e);
        assert_eq!(support.into_iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn support_of_constant_is_empty() {
        assert!(input_support(&SymExpr::constant(Width::W32, 5)).is_empty());
    }

    #[test]
    fn memoized_support_matches_btree_view() {
        let e = SymExpr::field("/hdr/len", Width::W16, vec![4, 5])
            .zext(Width::W64)
            .binop(BinOp::Add, SymExpr::input_byte(9).zext(Width::W64));
        assert_eq!(
            input_support(&e).into_iter().collect::<Vec<_>>(),
            e.support().iter().collect::<Vec<_>>()
        );
        assert!(e.support().contains(4));
        assert!(!e.support().contains(6));
    }
}
