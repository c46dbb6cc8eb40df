//! Differential testing of the decision procedure against the sampler.
//!
//! The bit-blaster and the exhaustive enumerator reimplement the semantics
//! of `cp_symexpr::eval` gate by gate; any divergence between the two is a
//! soundness bug.  This module cross-checks them the way the PR 2 arena
//! tests cross-check metadata: a seeded xorshift generator builds random
//! expression pairs (the offline environment has no `proptest`), the solver
//! ladder decides each pair on a shared [`EquivSession`], and every verdict
//! is audited against ground truth:
//!
//! * `Proved` pairs are re-sampled with an independent, larger-budget
//!   [`SampleSolver`] stream — a single refutation of a
//!   "proof" is a disagreement;
//! * `Refuted` witnesses are re-evaluated — a witness on which the two
//!   expressions agree is a disagreement;
//! * `Unknown` is always sound (and counted, so a regression that turns
//!   everything into `Unknown` is visible in the report).
//!
//! Pair construction alternates four modes so every solver stage is
//! exercised: independent random pairs (mostly refuted), simplifier
//! round-trips (structural proofs), algebraic rewrites like commuted or
//! re-associated operands (proofs that need the SAT miter) and near-miss
//! mutations (refutations with needle witnesses).

use crate::incremental::EquivSession;
use crate::{Equivalence, SampleSolver, Solver};
use cp_symexpr::rewrite::simplify;
use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, UnOp, Width};

/// Input bytes the generated expressions range over.
pub const INPUT_BYTES: usize = 6;

/// Deterministic xorshift64* stream (same generator as the arena invariant
/// tests, so failures reproduce from the seed alone).
pub struct Rng(u64);

impl Rng {
    /// Creates a stream; the seed is forced odd so the state never sticks.
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value below `bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

const BIN_OPS: [BinOp; 14] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::DivU,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::ShrU,
    BinOp::ShrS,
    BinOp::LeU,
    BinOp::LtS,
    BinOp::Eq,
    BinOp::Ne,
];

/// Builds a random expression of the given depth over bytes
/// `0..INPUT_BYTES`.  Identical streams build identical structures.
pub fn random_expr(rng: &mut Rng, depth: u32) -> ExprRef {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => SymExpr::input_byte(rng.below(INPUT_BYTES as u64) as usize),
            1 => SymExpr::constant(Width::all()[rng.below(4) as usize], rng.next_u64()),
            _ => {
                let hi = rng.below(INPUT_BYTES as u64 - 1) as usize;
                SymExpr::field(format!("/f/{hi}"), Width::W16, vec![hi, hi + 1])
            }
        };
    }
    match rng.below(3) {
        0 => {
            let width = Width::all()[rng.below(4) as usize];
            let op = BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize];
            let lhs = random_expr(rng, depth - 1).zext(width);
            let rhs = random_expr(rng, depth - 1).zext(width);
            lhs.binop(op, rhs)
        }
        1 => {
            let width = Width::all()[rng.below(4) as usize];
            let arg = random_expr(rng, depth - 1);
            match rng.below(3) {
                0 => arg.zext(width),
                1 => arg.sext(width),
                _ => arg.truncate(width),
            }
        }
        _ => {
            const OPS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::LogicalNot];
            random_expr(rng, depth - 1).unop(OPS[rng.below(3) as usize])
        }
    }
}

/// An equivalence-preserving or near-miss variant of `e`, chosen by the
/// stream.
fn algebraic_twin(rng: &mut Rng, depth: u32) -> (ExprRef, ExprRef) {
    let width = Width::all()[rng.below(4) as usize];
    let x = random_expr(rng, depth).zext(width);
    let y = random_expr(rng, depth).zext(width);
    match rng.below(5) {
        // Commuted operands of a commutative operator.
        0 => {
            const COMM: [BinOp; 5] = [BinOp::Add, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor];
            let op = COMM[rng.below(5) as usize];
            (x.binop(op, y), y.binop(op, x))
        }
        // Re-associated addition.
        1 => {
            let z = random_expr(rng, depth).zext(width);
            (
                x.binop(BinOp::Add, y).binop(BinOp::Add, z),
                x.binop(BinOp::Add, y.binop(BinOp::Add, z)),
            )
        }
        // De Morgan.
        2 => (
            x.binop(BinOp::And, y).unop(UnOp::Not),
            x.unop(UnOp::Not).binop(BinOp::Or, y.unop(UnOp::Not)),
        ),
        // Subtraction as two's-complement addition.
        3 => (
            x.binop(BinOp::Sub, y),
            x.binop(BinOp::Add, y.unop(UnOp::Neg)),
        ),
        // Doubling as a shift.
        _ => (
            x.binop(BinOp::Mul, SymExpr::constant(width, 2)),
            x.binop(BinOp::Shl, SymExpr::constant(width, 1)),
        ),
    }
}

/// A near-miss mutation: the same shape with one leaf or constant nudged.
fn near_miss(rng: &mut Rng, depth: u32) -> (ExprRef, ExprRef) {
    let width = Width::all()[rng.below(4) as usize];
    let x = random_expr(rng, depth).zext(width);
    match rng.below(3) {
        0 => (
            x.binop(BinOp::Add, SymExpr::constant(width, 1)),
            x.binop(BinOp::Add, SymExpr::constant(width, 2)),
        ),
        1 => {
            let a = rng.below(INPUT_BYTES as u64) as usize;
            let b = (a + 1) % INPUT_BYTES;
            (
                x.binop(BinOp::Xor, SymExpr::input_byte(a).zext(width)),
                x.binop(BinOp::Xor, SymExpr::input_byte(b).zext(width)),
            )
        }
        _ => (x, x.unop(UnOp::Not)),
    }
}

/// The audited outcome of one cross-checked run.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Pairs checked.
    pub pairs: u64,
    /// Verdicts per class.
    pub proved: u64,
    /// Refuted verdicts (every witness re-validated).
    pub refuted: u64,
    /// Budget-exhausted verdicts.
    pub unknown: u64,
    /// Human-readable descriptions of solver/sampler disagreements (empty on
    /// a sound solver); capped at ten entries.
    pub disagreements: Vec<String>,
}

impl DiffReport {
    /// Whether the run found no soundness violation.
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} pairs: {} proved, {} refuted, {} unknown, {} disagreements",
            self.pairs,
            self.proved,
            self.refuted,
            self.unknown,
            self.disagreements.len()
        )
    }
}

/// Pairs one session decides before the harness rolls a fresh one — the
/// scale of a real consumer run (one translation's candidate list, one
/// discovery frontier), and the bound on how much AIG/CNF/learned-clause
/// state accumulates under a differential sweep.
const SESSION_SPAN: u64 = 64;

/// Cross-checks `pairs` seeded expression pairs against the solver ladder.
///
/// Queries run on a shared [`EquivSession`] (rolled every `SESSION_SPAN`
/// pairs), so verdicts are produced against a reused AIG/CNF/learned-clause
/// context exactly as translation produces them: any unsound carry-over of
/// state between queries shows up as a disagreement.
///
/// Per-pair budgets are tighter than `Solver::default()`: the harness cares
/// about the *soundness* of verdicts across tens of thousands of pairs, so a
/// hard pair becoming `Unknown` costs coverage, not correctness, and keeps
/// the whole run inside a test-suite time budget.  The reference sampler
/// deliberately uses a different seed and a larger budget than the
/// solver's internal refutation pre-filter, so a `Proved` verdict is audited
/// against environments the solver never looked at.
pub fn cross_check(seed: u64, pairs: u64) -> DiffReport {
    let solver = Solver {
        sampler: SampleSolver::with_samples(48),
        limits: crate::bitblast::BlastLimits {
            max_gates: 20_000,
            max_conflicts: 800,
        },
        exhaustive_budget: 1 << 12,
    };
    let reference = SampleSolver {
        samples: 256,
        ..SampleSolver::with_seed(seed ^ 0xA5A5_A5A5_A5A5_A5A5)
    };
    let mut rng = Rng::new(seed);
    let mut report = DiffReport::default();
    let mut session = EquivSession::new(solver);
    for case in 0..pairs {
        if case > 0 && case % SESSION_SPAN == 0 {
            session = EquivSession::new(solver);
        }
        let (a, b) = match case % 4 {
            0 => (random_expr(&mut rng, 3), random_expr(&mut rng, 3)),
            1 => {
                let e = random_expr(&mut rng, 3);
                (e, simplify(&e))
            }
            2 => algebraic_twin(&mut rng, 2),
            _ => near_miss(&mut rng, 2),
        };
        report.pairs += 1;
        match session.equivalent(&a, &b) {
            Equivalence::Proved => {
                report.proved += 1;
                if let Equivalence::Refuted { witness } = reference.equivalent(&a, &b) {
                    if report.disagreements.len() < 10 {
                        report.disagreements.push(format!(
                            "case {case}: Proved but sampler refuted with {witness:?}: {a} vs {b}"
                        ));
                    }
                }
            }
            Equivalence::Refuted { witness } => {
                report.refuted += 1;
                if !crate::witness_disagrees(&a, &b, &witness) && report.disagreements.len() < 10 {
                    report.disagreements.push(format!(
                        "case {case}: Refuted but witness {witness:?} agrees: {a} vs {b}"
                    ));
                }
            }
            Equivalence::Unknown => report.unknown += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = random_expr(&mut Rng::new(77), 3);
        let b = random_expr(&mut Rng::new(77), 3);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn quick_cross_check_is_clean_and_exercises_all_verdicts() {
        // Spans several session rolls, so verdicts are audited both on
        // fresh contexts and on contexts carrying dozens of queries of
        // learned state.
        let report = cross_check(0xD1FF, 400);
        assert!(report.is_clean(), "{:?}", report.disagreements);
        assert_eq!(report.pairs, 400);
        assert!(report.proved > 50, "too few proofs: {}", report.summary());
        assert!(
            report.refuted > 100,
            "too few refutations: {}",
            report.summary()
        );
    }
}
