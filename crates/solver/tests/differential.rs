//! The differential acceptance gate: ≥10k seeded solver-vs-sampler pairs
//! with zero disagreements.
//!
//! `cp_solver::differential::cross_check` decides every pair on a shared
//! `SatSession` as the satisfiability of its miter, audits every `Proved`
//! verdict against an independent sampling stream that compares the two
//! values directly, and re-evaluates every `Refuted` witness; any
//! disagreement is a soundness bug in the bit-blaster, the session state
//! carried between queries, the exhaustive enumerator or the simplifier they
//! all lean on.  The CI `solver-diff` job runs the same harness as a
//! standalone binary with a different fixed seed.

use cp_solver::differential::cross_check;

#[test]
fn ten_thousand_seeded_pairs_with_zero_disagreements() {
    let report = cross_check(0xC0DE_CAFE, 10_000);
    assert!(
        report.is_clean(),
        "solver/sampler disagreements: {:#?}",
        report.disagreements
    );
    assert_eq!(report.pairs, 10_000);
    // The harness must actually exercise both definitive verdicts, at scale.
    assert!(report.proved > 1_000, "{}", report.summary());
    assert!(report.refuted > 3_000, "{}", report.summary());
    println!("{}", report.summary());
}
