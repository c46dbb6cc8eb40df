//! Differential testing of the decision procedure against an independent
//! sampler.
//!
//! The bit-blaster and the exhaustive enumerator reimplement the semantics
//! of `cp_symexpr::eval` gate by gate; any divergence between the two is a
//! soundness bug.  This module cross-checks them the way the arena tests
//! cross-check metadata: a seeded xorshift generator builds random
//! expression pairs (the offline environment has no `proptest`), the solver
//! ladder decides each pair on a shared [`SatSession`], and every verdict
//! is audited against ground truth:
//!
//! * `Proved` pairs are re-sampled by the reference,
//!   [`SampleSolver::equivalent`], on an independent, larger-budget stream
//!   that compares the values of `a` and `b` themselves rather than the
//!   miter the ladder solved — a single refutation of a "proof" is a
//!   disagreement;
//! * `Refuted` witnesses are re-evaluated on both sides — a witness on which
//!   the two expressions agree is a disagreement;
//! * `Unknown` is always sound (and counted, so a regression that turns
//!   everything into `Unknown` is visible in the report).
//!
//! Pair construction alternates four modes so every solver stage is
//! exercised: independent random pairs (mostly refuted), simplifier
//! round-trips (structural proofs), algebraic rewrites like commuted or
//! re-associated operands (proofs that need the SAT miter) and near-miss
//! mutations (refutations with needle witnesses).
//!
//! [`cross_check_sat`] audits the rest of the session protocol the same way
//! — permanent prefix facts, several goals as assumptions, and sessions
//! that degrade when a fact overflows the gate budget — on satisfiability
//! queries shaped like discovery's, range checks and the overflow products
//! behind them included.
//!
//! The reference sampler evaluates on the lane kernel the ladder's
//! sampling and exhaustive rungs run on, so [`cross_check_lanes`] audits
//! that kernel against `cp_symexpr::eval::eval` itself, lane by lane, over
//! the sampler's own stream.

use crate::bitblast::BlastLimits;
use crate::incremental::SatSession;
use crate::lanes::{EnvStream, Lanes, Program};
use crate::{eval_model, Equivalence, SampleSolver, Satisfiability, Solver};
use cp_symexpr::rewrite::simplify;
use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, UnOp, Width};

/// The sorted union of the expressions' supports.
pub(crate) fn union_support(exprs: &[ExprRef]) -> Vec<usize> {
    let mut offsets: Vec<usize> = exprs.iter().flat_map(|e| e.support().iter()).collect();
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

impl SampleSolver {
    /// Tests whether `a` and `b` agree on every sampled byte environment —
    /// the harness's independent reference, which compares the two values
    /// directly and never builds the miter the ladder decides.
    ///
    /// The environments are [`find_model`](Self::find_model)'s stream over
    /// the pair's union support, and the witness is the first environment in
    /// stream order on which the pair disagrees.  Pairs that depend on no
    /// input byte at all are decided by a single evaluation, so the verdict
    /// is `Proved` rather than `Unknown` for them.
    pub fn equivalent(&self, a: &ExprRef, b: &ExprRef) -> Equivalence {
        let offsets = union_support(&[*a, *b]);
        let (program, roots) = Program::compile(&[*a, *b], &offsets);
        let disagreement = |lanes: &Lanes<'_>, n: usize| {
            let (va, vb) = (lanes.row(roots[0]), lanes.row(roots[1]));
            (0..n).find(|&lane| va[lane] != vb[lane])
        };
        match self.first_hit(&program, &offsets, disagreement) {
            Some(witness) => Equivalence::Refuted { witness },
            None if offsets.is_empty() => Equivalence::Proved,
            None => Equivalence::Unknown,
        }
    }
}

/// Evaluates both expressions under the witness environment and reports
/// whether they actually disagree.
fn witness_disagrees(a: &ExprRef, b: &ExprRef, witness: &[(usize, u8)]) -> bool {
    eval_model(a, witness) != eval_model(b, witness)
}

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

/// The audited outcome of one [`cross_check_sat`] run.
#[derive(Debug, Clone, Default)]
pub struct SatReport {
    /// Queries checked.
    pub queries: u64,
    /// `Sat` verdicts (every model re-evaluated against the whole
    /// conjunction).
    pub sat: u64,
    /// `Unsat` verdicts (every one audited by the reference sampler).
    pub unsat: u64,
    /// Budget-exhausted verdicts.
    pub unknown: u64,
    /// Sessions whose prefix overflowed the gate budget, so that each of
    /// their queries was decided on a fresh session.
    pub degraded_sessions: u64,
    /// Disagreements, as in [`DiffReport::disagreements`].
    pub disagreements: Vec<String>,
}

impl SatReport {
    /// Whether the run found no soundness violation.
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} queries: {} sat, {} unsat, {} unknown, {} degraded sessions, {} disagreements",
            self.queries,
            self.sat,
            self.unsat,
            self.unknown,
            self.degraded_sessions,
            self.disagreements.len()
        )
    }
}

/// The audited outcome of one [`cross_check_lanes`] run.
#[derive(Debug, Clone, Default)]
pub struct LaneReport {
    /// Expressions compiled and run.
    pub expressions: u64,
    /// Lane values compared with `eval`'s.
    pub lanes: u64,
    /// Lanes whose value differs from `eval`'s, described as in
    /// [`DiffReport::disagreements`].
    pub mismatches: Vec<String>,
}

impl LaneReport {
    /// Whether every lane matched `eval`.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} expressions: {} lanes, {} mismatches",
            self.expressions,
            self.lanes,
            self.mismatches.len()
        )
    }
}

/// Records a disagreement, keeping the first ten.
fn disagree(disagreements: &mut Vec<String>, describe: impl FnOnce() -> String) {
    if disagreements.len() < 10 {
        disagreements.push(describe());
    }
}

/// Queries one session decides before the harness rolls a fresh one — the
/// scale of a real consumer run (one translation's candidate list, one
/// discovery frontier), and the bound on how much AIG/CNF/learned-clause
/// state accumulates under a differential sweep.
const SESSION_SPAN: u64 = 64;

/// The ladder's budgets under the harness.  They are tighter than
/// `Solver::default()`: the harness cares about the *soundness* of verdicts
/// across tens of thousands of queries, so a hard query becoming `Unknown`
/// costs coverage, not correctness, and keeps the whole run inside a
/// test-suite time budget.
fn harness_solver() -> Solver {
    Solver {
        sampler: SampleSolver::with_samples(48),
        limits: BlastLimits {
            max_gates: 20_000,
            max_conflicts: 800,
        },
        exhaustive_budget: 1 << 12,
    }
}

/// The independent reference sampler: a different seed and a larger budget
/// than the ladder's sampling rung, so a verdict is audited against
/// environments the solver never looked at.
fn reference_sampler(seed: u64) -> SampleSolver {
    SampleSolver {
        samples: 256,
        ..SampleSolver::with_seed(seed ^ 0xA5A5_A5A5_A5A5_A5A5)
    }
}

/// Cross-checks `pairs` seeded expression pairs against the solver ladder.
///
/// Queries run on a shared [`SatSession`] (rolled every `SESSION_SPAN`
/// pairs), so verdicts are produced against a reused AIG/CNF/learned-clause
/// context exactly as translation produces them: any unsound carry-over of
/// state between queries shows up as a disagreement.
pub fn cross_check(seed: u64, pairs: u64) -> DiffReport {
    let solver = harness_solver();
    let reference = reference_sampler(seed);
    let mut rng = Rng::new(seed);
    let mut report = DiffReport::default();
    let mut session = SatSession::new(solver);
    for case in 0..pairs {
        if case > 0 && case % SESSION_SPAN == 0 {
            session = SatSession::new(solver);
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
                    disagree(&mut report.disagreements, || {
                        format!(
                            "case {case}: Proved but sampler refuted with {witness:?}: {a} vs {b}"
                        )
                    });
                }
            }
            Equivalence::Refuted { witness } => {
                report.refuted += 1;
                if !witness_disagrees(&a, &b, &witness) {
                    disagree(&mut report.disagreements, || {
                        format!("case {case}: Refuted but witness {witness:?} agrees: {a} vs {b}")
                    });
                }
            }
            Equivalence::Unknown => report.unknown += 1,
        }
    }
    report
}

/// Cross-checks the lane kernel the sampling and exhaustive rungs run, and
/// that the references above run on, against `cp_symexpr::eval::eval`.
///
/// Each of `expressions` seeded expressions (random expressions and random
/// comparisons, alternately) is compiled over its support and run chunk by
/// chunk over the reference sampler's stream, the stream the sampler itself
/// draws; every lane's value must equal `eval` on that lane's environment.
pub fn cross_check_lanes(seed: u64, expressions: u64) -> LaneReport {
    let sampler = reference_sampler(seed);
    let mut rng = Rng::new(seed);
    let mut report = LaneReport::default();
    for case in 0..expressions {
        let expr = if case % 2 == 0 {
            random_expr(&mut rng, 3)
        } else {
            random_comparison(&mut rng)
        };
        let offsets: Vec<usize> = expr.support().iter().collect();
        let (program, _) = Program::compile(std::slice::from_ref(&expr), &offsets);
        let root = program.root();
        let mut lanes = Lanes::new(&program);
        let mut stream = EnvStream::new(offsets.len(), sampler.seed, sampler.samples);
        report.expressions += 1;
        while let Some(n) = stream.next_chunk(lanes.env_mut()) {
            lanes.run(n);
            for lane in 0..n {
                report.lanes += 1;
                let env = lanes.model(&offsets, lane);
                let (got, want) = (lanes.row(root)[lane], eval_model(&expr, &env));
                if got != want {
                    disagree(&mut report.mismatches, || {
                        format!(
                            "case {case}: lane {lane} read {got}, eval {want} on {env:?}: {expr}"
                        )
                    });
                }
            }
        }
    }
    report
}

/// A random environment over every input byte.
fn random_env(rng: &mut Rng) -> Vec<(usize, u8)> {
    (0..INPUT_BYTES)
        .map(|o| (o, rng.next_u64() as u8))
        .collect()
}

/// A big-endian 16-bit field over two adjacent input bytes, assembled as
/// `read_u16` assembles one.
fn random_field(rng: &mut Rng) -> ExprRef {
    let hi = rng.below(INPUT_BYTES as u64 - 1) as usize;
    SymExpr::input_byte(hi)
        .zext(Width::W16)
        .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
        .binop(BinOp::Or, SymExpr::input_byte(hi + 1).zext(Width::W16))
}

/// A random range check that holds on `anchor`: `field ≤u c` in the shape
/// a not-taken `if (field > c)` records, `Eq(LtU(c, field), 0)`, with `c`
/// at or above the field's value there.
fn range_check_holding_on(rng: &mut Rng, anchor: &[(usize, u8)]) -> ExprRef {
    let field = random_field(rng);
    let value = eval_model(&field, anchor);
    let c = value + rng.below(0x1_0000 - value);
    SymExpr::constant(Width::W16, c)
        .binop(BinOp::LtU, field)
        .binop(BinOp::Eq, SymExpr::constant(Width::W8, 0))
}

/// A random goal in the overflow shape range checks guard: a 32-bit
/// product of two fields exceeding a random constant.
fn product_exceeding(rng: &mut Rng) -> ExprRef {
    let product = random_field(rng)
        .zext(Width::W32)
        .binop(BinOp::Mul, random_field(rng).zext(Width::W32));
    SymExpr::constant(Width::W32, rng.below(1 << 32)).binop(BinOp::LtU, product)
}

/// A random boolean fact that holds on `anchor`: a random expression
/// bounded by, or kept off, its own value there.
fn fact_holding_on(rng: &mut Rng, anchor: &[(usize, u8)]) -> ExprRef {
    let e = random_expr(rng, 2);
    let value = eval_model(&e, anchor);
    let at = |v: u64| SymExpr::constant(e.width(), v);
    match rng.below(3) {
        0 => e.binop(BinOp::LeU, at(value)),
        1 => at(value).binop(BinOp::LeU, e),
        _ => e.binop(BinOp::Ne, at(value.wrapping_add(1))),
    }
}

/// A random comparison of two random expressions at a random width.
pub fn random_comparison(rng: &mut Rng) -> ExprRef {
    const CMPS: [BinOp; 6] = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::LtU,
        BinOp::LeU,
        BinOp::LtS,
        BinOp::LeS,
    ];
    let width = Width::all()[rng.below(4) as usize];
    let op = CMPS[rng.below(CMPS.len() as u64) as usize];
    let lhs = random_expr(rng, 2).zext(width);
    lhs.binop(op, random_expr(rng, 2).zext(width))
}

/// A random goal of one or two boolean conjuncts, each solved as its own
/// assumption: the negation of a prefix fact (unsatisfiable under the
/// prefix), a needle (an expression equal to its value on a random
/// environment, which sampling rarely hits), or random comparisons.
fn random_goal(rng: &mut Rng, prefix: &[ExprRef]) -> Vec<ExprRef> {
    match rng.below(4) {
        0 if !prefix.is_empty() => {
            let fact = prefix[rng.below(prefix.len() as u64) as usize];
            vec![fact.unop(UnOp::LogicalNot)]
        }
        1 => {
            let e = random_expr(rng, 3);
            let value = eval_model(&e, &random_env(rng));
            vec![e.binop(BinOp::Eq, SymExpr::constant(e.width(), value))]
        }
        2 => vec![random_comparison(rng), random_comparison(rng)],
        _ => vec![random_comparison(rng)],
    }
}

/// The reference's hunt for an environment on which every conjunct is
/// non-zero, each conjunct evaluated on its own.
fn reference_model(reference: &SampleSolver, conjuncts: &[ExprRef]) -> Option<Vec<(usize, u8)>> {
    let offsets = union_support(conjuncts);
    let (program, roots) = Program::compile(conjuncts, &offsets);
    reference.first_hit(&program, &offsets, |lanes, n| {
        (0..n).find(|&lane| roots.iter().all(|&root| lanes.row(root)[lane] != 0))
    })
}

/// Cross-checks `queries` seeded satisfiability queries against the solver
/// ladder, driven the way `cp_diode::discover` drives it.
///
/// Every `SESSION_SPAN` queries the harness rolls a fresh [`SatSession`]
/// and asserts up to three random prefix facts and then up to two range
/// checks on 16-bit fields on it with [`SatSession::assert_holds`]; each
/// fact holds on a random *anchor* environment, so the prefix is
/// satisfiable.  Each query then solves a random goal of one or two
/// conjuncts as assumptions over the full conjunction of prefix and goal;
/// one goal in five asks a product of two fields to exceed a constant, the
/// query shape the ladder's bounds rung answers at the corner of the range
/// checks.  Range checks and products draw from a stream of their own, so
/// the other facts and goals are the ones a seed drew before they were
/// added.  Every fourth session gets a 150-gate budget, so a prefix fact
/// with a wide multiplier or divider degrades it and it decides each query
/// on a fresh session, as a discovery session does when a path cone
/// overflows.
///
/// A `Sat` model must make every conjunct non-zero.  An `Unsat` verdict is
/// a disagreement if the anchor satisfies the goal too, or if the reference
/// sampler finds an environment that satisfies the whole conjunction.
pub fn cross_check_sat(seed: u64, queries: u64) -> SatReport {
    let solver = harness_solver();
    let tight = Solver {
        limits: BlastLimits {
            max_gates: 150,
            ..solver.limits
        },
        ..solver
    };
    let reference = reference_sampler(seed);
    let mut rng = Rng::new(seed);
    let mut ranges = Rng::new(seed.rotate_left(32) ^ 0x2A6E);
    let mut report = SatReport::default();
    let mut session = SatSession::new(solver);
    let mut facts = Vec::new();
    let mut checks = Vec::new();
    let mut anchor = Vec::new();
    for case in 0..queries {
        if case % SESSION_SPAN == 0 {
            let roll = case / SESSION_SPAN;
            session = SatSession::new(if roll % 4 == 3 { tight } else { solver });
            anchor = random_env(&mut rng);
            facts = (0..rng.below(4))
                .map(|_| fact_holding_on(&mut rng, &anchor))
                .collect();
            checks = (0..ranges.below(3))
                .map(|_| range_check_holding_on(&mut ranges, &anchor))
                .collect();
            for fact in facts.iter().chain(&checks) {
                session.assert_holds(fact);
            }
            report.degraded_sessions += u64::from(session.is_degraded());
        }
        let mut goal = random_goal(&mut rng, &facts);
        if ranges.below(5) == 0 {
            goal = vec![product_exceeding(&mut ranges)];
        }
        let conjuncts: Vec<ExprRef> = facts.iter().chain(&checks).chain(&goal).copied().collect();
        let full = conjuncts[1..]
            .iter()
            .fold(conjuncts[0], |acc, c| acc.binop(BinOp::And, *c));
        report.queries += 1;
        match session.solve(&full, &goal) {
            Satisfiability::Sat { model } => {
                report.sat += 1;
                if let Some(c) = conjuncts.iter().find(|c| eval_model(c, &model) == 0) {
                    disagree(&mut report.disagreements, || {
                        format!("case {case}: Sat but model {model:?} falsifies {c}")
                    });
                }
            }
            Satisfiability::Unsat => {
                report.unsat += 1;
                let anchored = conjuncts.iter().all(|c| eval_model(c, &anchor) != 0);
                let witness = if anchored {
                    Some(anchor.clone())
                } else {
                    reference_model(&reference, &conjuncts)
                };
                if let Some(witness) = witness {
                    disagree(&mut report.disagreements, || {
                        format!("case {case}: Unsat but {witness:?} satisfies {full}")
                    });
                }
            }
            Satisfiability::Unknown => report.unknown += 1,
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

    #[test]
    fn lane_cross_check_is_clean() {
        let report = cross_check_lanes(0x1A2E, 500);
        assert!(report.is_clean(), "{:#?}", report.mismatches);
        assert_eq!(report.expressions, 500);
        // 4 fills and 256 draws per expression.
        assert_eq!(report.lanes, 500 * 260, "{}", report.summary());
    }

    #[test]
    fn satisfiability_cross_check_is_clean_at_scale() {
        // Nineteen sessions: prefixes asserted permanently, goals of one or
        // two assumptions, and every fourth session degraded or close to it.
        let report = cross_check_sat(0x5A7_5EED, 1_200);
        assert!(report.is_clean(), "{:#?}", report.disagreements);
        assert_eq!(report.queries, 1_200);
        assert!(report.sat > 300, "too few models: {}", report.summary());
        assert!(report.unsat > 100, "too few proofs: {}", report.summary());
        assert!(report.degraded_sessions > 0, "{}", report.summary());
        println!("{}", report.summary());
    }
}
