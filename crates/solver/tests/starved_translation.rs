//! A conflict-budget-starved miter yields `Unknown`, and translation treats
//! that verdict as a *skipped pair* — deterministically, never a panic and
//! never a spurious binding.

use cp_solver::translate::{Candidate, TranslateError, Translator};
use cp_solver::{Equivalence, SampleSolver, Solver};
use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, Width};

/// The recipient-side big-endian 16-bit read of bytes 0..2, detoured through
/// `(be16 + lo) - lo`.  Semantically equal to the `/hdr/len` field, but the
/// simplifier has no add/sub cancellation rule and the overlapping low byte
/// forces real adder gates into the miter, so proving this pair genuinely
/// spends gate/conflict budget — sampling can refute, never prove, an
/// input-dependent pair.
fn be16_via_add() -> ExprRef {
    let hi = SymExpr::input_byte(0).zext(Width::W16);
    let lo = SymExpr::input_byte(1).zext(Width::W16);
    hi.binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
        .binop(BinOp::Or, lo)
        .binop(BinOp::Add, lo)
        .binop(BinOp::Sub, lo)
}

fn len_field() -> ExprRef {
    SymExpr::field("/hdr/len", Width::W16, vec![0, 1])
}

/// Sampling intact, but zero gates, zero conflicts and a zero exhaustive
/// budget: every miter the ladder would escalate to is abandoned.
fn starved_of_proofs() -> Solver {
    Solver {
        sampler: SampleSolver {
            samples: 8,
            seed: 1,
        },
        ..Solver::starved()
    }
}

#[test]
fn conflict_starved_miter_is_unknown_not_wrong() {
    let solver = starved_of_proofs();
    // The pair is genuinely equivalent; a starved solver must say Unknown —
    // Proved would be unsound to claim and Refuted would be a lie.
    assert_eq!(
        solver.equivalent(&len_field(), &be16_via_add()),
        Equivalence::Unknown
    );
    // Deterministic: the same starved solver gives the same verdict again.
    assert_eq!(
        solver.equivalent(&len_field(), &be16_via_add()),
        Equivalence::Unknown
    );
    // The default budgets prove the same miter, so Unknown above really is
    // budget starvation, not an undecidable pair.
    assert_eq!(
        Solver::default().equivalent(&len_field(), &be16_via_add()),
        Equivalence::Proved
    );
}

#[test]
fn translation_skips_unknown_pairs_and_binds_a_later_candidate() {
    let translator = Translator::new(starved_of_proofs());
    let condition = len_field().binop(BinOp::LtU, SymExpr::constant(Width::W16, 1024));
    // One candidate needs a proof the starved solver cannot deliver; the
    // other is structurally identical to the field and is proved by the
    // syntactic fast path no budget can starve.  `translate_all` — the
    // entry point the transfer engine uses — consults every candidate, so
    // the starved pair is counted as skipped while the provable one binds.
    let candidates = vec![
        Candidate::new("var length", be16_via_add()),
        Candidate::new("var len_copy", len_field()),
    ];
    let translation = translator
        .translate_all(&condition, &candidates)
        .expect("the identical candidate must still bind");
    assert_eq!(translation.fields.len(), 1);
    assert_eq!(translation.fields[0].proved.len(), 1);
    assert_eq!(translation.fields[0].proved[0].source, "var len_copy");
    assert_eq!(
        translation.stats.unknown, 1,
        "the starved pair must be counted as skipped: {:?}",
        translation.stats
    );
}

#[test]
fn translation_with_no_provable_candidate_fails_with_typed_unknown_counts() {
    let translator = Translator::new(starved_of_proofs());
    let condition = len_field().binop(BinOp::LtU, SymExpr::constant(Width::W16, 1024));
    let candidates = vec![Candidate::new("var length", be16_via_add())];
    match translator.translate_all(&condition, &candidates) {
        Err(TranslateError::Unmatched { path, stats }) => {
            assert_eq!(path, "/hdr/len");
            assert_eq!(stats.unknown, 1);
            assert_eq!(stats.proved, 0);
            assert_eq!(stats.refuted, 0);
        }
        other => panic!("expected Unmatched, got {other:?}"),
    }
}
