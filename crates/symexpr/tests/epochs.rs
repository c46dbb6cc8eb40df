//! Arena epoch invariants: reclaim-then-reuse, memo invalidation across
//! resets, and the debug-build enforcement of the `ExprRef` ownership rule.
//!
//! Every test runs on its own thread (libtest default), so each one sees a
//! pristine thread-local arena.

use cp_symexpr::rewrite;
use cp_symexpr::{bytes, ArenaEpoch, BinOp, ExprArena, ExprBuild, SymExpr, Width};

#[test]
fn reclaim_then_reuse_rebuilds_nodes_and_support() {
    {
        let _epoch = ArenaEpoch::begin();
        let e = SymExpr::input_byte(3)
            .zext(Width::W32)
            .binop(BinOp::Add, SymExpr::input_byte(9).zext(Width::W32));
        assert_eq!(e.support().iter().collect::<Vec<_>>(), vec![3, 9]);
        assert!(ExprArena::node_count() >= 5);
    }
    assert_eq!(ExprArena::node_count(), 0, "epoch end must reclaim");

    // Re-interning after the reset rebuilds fresh nodes with fresh dense ids
    // and correct memoised metadata (the support bitset in particular).
    let again = SymExpr::input_byte(9)
        .zext(Width::W16)
        .binop(BinOp::Mul, SymExpr::constant(Width::W16, 4));
    assert_eq!(again.support().iter().collect::<Vec<_>>(), vec![9]);
    assert!(again.is_tainted());
    assert_eq!(again.width(), Width::W16);
}

#[test]
fn the_epoch_counter_advances_once_per_outermost_scope() {
    let start = ExprArena::epoch();
    {
        let _outer = ArenaEpoch::begin();
        let _inner = ArenaEpoch::begin();
        let _e = SymExpr::input_byte(1);
    }
    assert_eq!(ExprArena::epoch(), start + 1);
    ExprArena::reset();
    assert_eq!(ExprArena::epoch(), start + 2);
}

/// The regression the memo rekeying exists for: intern, simplify (seeding
/// the memo), reset, then intern a *different* expression whose root lands
/// on the same dense id.  An address- or id-keyed memo without an epoch
/// stamp would serve the old entry — here a handle into the reclaimed epoch.
#[test]
fn simplify_memo_cannot_serve_stale_hits_across_a_reset() {
    // Epoch 1: ids 0..=2; the root (id 2) simplifies to `x` (id 0).
    let x = SymExpr::input_byte(1);
    let zero = SymExpr::constant(Width::W8, 0);
    let a = x.binop(BinOp::Add, zero);
    assert_eq!(a.id().index(), 2);
    assert_eq!(rewrite::simplify(&a), x);
    assert!(rewrite::memo_len() > 0);

    ExprArena::reset();

    // Epoch 2: a different structure whose root also gets id 2.  A stale
    // memo hit would return epoch 1's `x` handle; the epoch-stamped memo
    // starts empty instead and simplification runs for real.
    let p = SymExpr::input_byte(2);
    let five = SymExpr::constant(Width::W8, 5);
    let b = p.binop(BinOp::Sub, five);
    assert_eq!(b.id().index(), 2, "test needs the id to collide");
    let simplified = rewrite::simplify(&b);
    assert_eq!(simplified, b, "x - 5 has no rewrite");
    assert_eq!(simplified.support().iter().collect::<Vec<_>>(), vec![2]);
}

#[test]
fn decompose_memo_cannot_serve_stale_hits_across_a_reset() {
    // Epoch 1: id 0 is a 16-bit constant that decomposes into two bytes.
    let c = SymExpr::constant(Width::W16, 0xBEEF);
    assert_eq!(c.id().index(), 0);
    assert_eq!(bytes::decompose(&c).map(|v| v.len()), Some(2));

    ExprArena::reset();

    // Epoch 2: id 0 is now a single input byte.  A stale hit would report
    // the old two-byte constant decomposition.
    let byte = SymExpr::input_byte(7);
    assert_eq!(byte.id().index(), 0, "test needs the id to collide");
    let decomposed = bytes::decompose(&byte).expect("an input byte decomposes");
    assert_eq!(decomposed.len(), 1);
}

#[test]
fn the_simplify_memo_still_caches_within_an_epoch() {
    let e = SymExpr::input_byte(0)
        .zext(Width::W32)
        .binop(BinOp::And, SymExpr::constant(Width::W32, 0xFF));
    let first = rewrite::simplify(&e);
    let len = rewrite::memo_len();
    let second = rewrite::simplify(&e);
    assert_eq!(first, second);
    assert_eq!(rewrite::memo_len(), len, "repeat must be a pure cache hit");
}

#[cfg(debug_assertions)]
mod debug_enforcement {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn dereferencing_across_an_epoch_boundary_panics() {
        let stale = SymExpr::input_byte(1);
        ExprArena::reset();
        let result = catch_unwind(AssertUnwindSafe(|| stale.width()));
        assert!(result.is_err(), "stale deref must panic in debug builds");
    }

    #[test]
    fn dereferencing_on_a_foreign_thread_panics() {
        let here = SymExpr::input_byte(3);
        let crossed = std::thread::spawn(move || {
            // Give the worker its own arena identity, then misuse the
            // handle that crossed over.
            let _own = SymExpr::input_byte(4);
            catch_unwind(AssertUnwindSafe(|| here.width())).is_err()
        })
        .join()
        .expect("worker must not die outside the catch");
        assert!(crossed, "cross-thread deref must panic in debug builds");
    }

    #[test]
    fn dereferencing_on_a_thread_with_no_arena_panics() {
        let here = SymExpr::input_byte(5);
        let crossed =
            std::thread::spawn(move || catch_unwind(AssertUnwindSafe(|| here.id())).is_err())
                .join()
                .expect("worker must not die outside the catch");
        assert!(crossed, "a thread that never interned owns no handles");
    }
}
