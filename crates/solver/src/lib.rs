//! # cp-solver
//!
//! Equivalence and satisfiability checking over symbolic expressions, and
//! the translation of donor checks into recipient-namespace expressions built
//! on top of it.
//!
//! During translation (paper Section 3.3) Code Phage must decide whether a
//! candidate recipient expression computes the same value as a donor
//! expression; during discovery it must find an input that makes an overflow
//! goal non-zero.  Both are one question: an equivalence query is the
//! satisfiability of its *miter* `a ≠ b` (Brand, ICCAD 1993).  The crate
//! layers three mechanisms behind one API:
//!
//! * a **disjoint-support fast path** ([`disjoint_support`]) — expressions
//!   over disjoint input byte sets can only be equivalent if they are the
//!   same constant, so most candidate pairs are rejected without any solving;
//! * a **sampling hunt** ([`SampleSolver`]) that evaluates a goal under
//!   deterministic pseudo-random byte environments.  Sampling finds models
//!   (for a miter: witnesses of inequivalence) but can never prove a goal
//!   unsatisfiable; and
//! * a **real decision procedure** — one escalation ladder (see [`Solver`])
//!   from structural simplification through a verdict memo and sampling to
//!   bit-blasting ([`bitblast`] — every operator including division, via a
//!   restoring divider) and, when the circuit exceeds its budget, an
//!   exhaustive enumeration of the (small) input support.  Its verdicts form
//!   the three-point lattices [`Satisfiability`] and [`Equivalence`].
//!
//! The ladder is written once, in [`incremental::SatSession::solve`], over a
//! session that keeps one growing AIG + CNF + learned-clause DB alive across
//! a queue of related queries (translation proving many donor miters against
//! one recipient cone, discovery re-solving one path prefix with a single
//! constraint flipped) and decides each one under a per-query assumption
//! set.  [`Solver::equivalent`] and [`Solver::solve`] are sessions that
//! decide a single query.
//!
//! The [`translate`] module uses the ladder to map the `HachField` leaves of
//! a donor check onto expressions the recipient itself computes, and
//! [`differential`] cross-checks the ladder's verdicts against an independent
//! sampler on seeded randomized queries.

pub mod bitblast;
mod cdcl;
pub mod differential;
pub mod incremental;
pub mod memo;
pub mod translate;

use bitblast::BlastLimits;
use cp_symexpr::eval::{eval, eval_batch};
use cp_symexpr::ExprRef;
use incremental::SatSession;
pub use memo::{memo_stats as solver_memo_stats, reset_memo as reset_solver_memo, MemoStats};

/// The verdict of an equivalence query — a three-point lattice.
///
/// `Refuted` and `Proved` are definitive (a refutation always carries a
/// concrete witness environment); `Unknown` means the query exhausted its
/// budget or met an operator outside the decision procedure's fragment.
/// [`Solver`] decides a pair as the satisfiability of its miter, so these are
/// [`Satisfiability`]'s `Sat`, `Unsat` and `Unknown` under other names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The expressions denote the same value under **every** byte
    /// environment.
    Proved,
    /// A concrete byte environment on which the expressions disagree.
    Refuted {
        /// Input bytes (indexed by offset) witnessing the disagreement.
        witness: Vec<(usize, u8)>,
    },
    /// Neither proved nor refuted within the configured budgets.
    Unknown,
}

impl Equivalence {
    /// Whether the query found no counterexample (`Proved` or `Unknown`).
    pub fn is_consistent(&self) -> bool {
        !matches!(self, Equivalence::Refuted { .. })
    }

    /// Whether the expressions were proved equal on every input.
    pub fn is_proved(&self) -> bool {
        matches!(self, Equivalence::Proved)
    }

    /// Whether a concrete disagreement witness was found.
    pub fn is_refuted(&self) -> bool {
        matches!(self, Equivalence::Refuted { .. })
    }
}

/// The verdict of a satisfiability query ([`Solver::solve`]).
///
/// `Sat` and `Unsat` are definitive; a `Sat` model is always re-validated by
/// evaluation before being returned.  `Unknown` means the query exhausted its
/// budgets or met an operator outside the decision procedure's fragment
/// without the sampling or exhaustive stages finding a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Satisfiability {
    /// A concrete byte environment on which the expression is non-zero.
    /// Bytes outside the model (including support bytes the search left
    /// unconstrained) may take any value the caller likes — zero and the
    /// caller's existing input are both valid completions.
    Sat {
        /// Input bytes (indexed by offset) of the satisfying environment.
        model: Vec<(usize, u8)>,
    },
    /// The expression evaluates to zero under **every** byte environment.
    Unsat,
    /// Neither a model nor a refutation within the configured budgets.
    Unknown,
}

impl Satisfiability {
    /// Whether a satisfying model was found.
    pub fn is_sat(&self) -> bool {
        matches!(self, Satisfiability::Sat { .. })
    }
}

/// Whether two expressions read disjoint sets of input bytes.
///
/// This is the fast path that lets translation skip solver invocations: a
/// donor field and a recipient expression with disjoint support cannot be the
/// same value unless both are constant.  Both support sets come from the
/// arena's memoised per-node metadata, so the predicate never re-walks the
/// expressions.
pub fn disjoint_support(a: &ExprRef, b: &ExprRef) -> bool {
    a.support().is_disjoint(b.support())
}

/// Evaluates `expr` under a sparse byte model (absent offsets read zero).
fn eval_model(expr: &ExprRef, model: &[(usize, u8)]) -> u64 {
    let lookup = |offset: usize| {
        model
            .iter()
            .find(|(o, _)| *o == offset)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    eval(expr, &lookup)
}

/// A sparse byte model used as a sampling environment (absent offsets read
/// zero) — the adapter between the sampler's `(offset, byte)` environments
/// and [`cp_symexpr::eval::eval_batch`].
struct SparseEnv(Vec<(usize, u8)>);

impl cp_symexpr::eval::ByteEnv for SparseEnv {
    fn byte(&self, offset: usize) -> u8 {
        self.0
            .iter()
            .find(|(o, _)| *o == offset)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

/// The sampler's deterministic environment stream, delivered in chunks so
/// batch evaluation amortises the DAG walk without giving up the early exit
/// on the first hit.
///
/// The stream is *identical* to the historical per-environment one — four
/// boundary fills, then the seeded xorshift64* stream, each slot drawn in
/// offset order — so models (the first hit in stream order) are bit-for-bit
/// stable across the batching change.
struct EnvStream {
    offsets: Vec<usize>,
    rng: u64,
    remaining: u32,
    boundary_done: bool,
}

/// Environments evaluated per [`eval_batch`] call: large enough to amortise
/// the walk, small enough that an early witness wastes little evaluation.
const SAMPLE_CHUNK: u32 = 32;

impl EnvStream {
    fn new(offsets: &[usize], seed: u64, samples: u32) -> Self {
        EnvStream {
            offsets: offsets.to_vec(),
            rng: seed | 1,
            remaining: samples,
            boundary_done: false,
        }
    }

    fn next_chunk(&mut self) -> Option<Vec<SparseEnv>> {
        if !self.boundary_done {
            self.boundary_done = true;
            return Some(
                [0x00u8, 0xFF, 0x80, 0x01]
                    .iter()
                    .map(|&fill| SparseEnv(self.offsets.iter().map(|&o| (o, fill)).collect()))
                    .collect(),
            );
        }
        if self.remaining == 0 {
            return None;
        }
        let take = self.remaining.min(SAMPLE_CHUNK);
        self.remaining -= take;
        let chunk = (0..take)
            .map(|_| {
                SparseEnv(
                    self.offsets
                        .iter()
                        .map(|&o| {
                            self.rng ^= self.rng << 13;
                            self.rng ^= self.rng >> 7;
                            self.rng ^= self.rng << 17;
                            let byte = (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
                            (o, byte)
                        })
                        .collect(),
                )
            })
            .collect();
        Some(chunk)
    }
}

/// A sampling hunt for models: the ladder's cheap rung before bit-blasting.
#[derive(Debug, Clone, Copy)]
pub struct SampleSolver {
    /// Number of random byte environments to try.
    pub samples: u32,
    /// Seed of the deterministic sample stream.
    pub seed: u64,
}

impl Default for SampleSolver {
    fn default() -> Self {
        SampleSolver {
            samples: 256,
            seed: 0x5DEECE66D,
        }
    }
}

impl SampleSolver {
    /// Creates a solver with an explicit sample budget.
    pub fn with_samples(samples: u32) -> Self {
        SampleSolver {
            samples,
            ..Self::default()
        }
    }

    /// Creates a solver with an explicit seed (used by the differential
    /// harness so its reference stream never coincides with the one inside
    /// [`Solver`]).
    pub fn with_seed(seed: u64) -> Self {
        SampleSolver {
            seed,
            ..Self::default()
        }
    }

    /// Hunts for a byte environment on which `expr` evaluates non-zero.
    ///
    /// Deterministic: the same seed explores the same environments.  The
    /// first samples are not random — the all-zeros, all-ones, sign-bit and
    /// one fills catch most boundary cases before the pseudo-random stream
    /// starts.  An expression that reads no input byte is decided by a
    /// single evaluation.  Sampling can only ever *find* a model, never
    /// refute satisfiability.
    ///
    /// Environments are evaluated in batches over the shared expression DAG
    /// ([`eval_batch`]): each distinct node is visited once per chunk
    /// instead of once per environment, and the returned model is the first
    /// satisfying environment in stream order.
    pub fn find_model(&self, expr: &ExprRef) -> Option<Vec<(usize, u8)>> {
        let offsets: Vec<usize> = expr.support().iter().collect();
        self.first_hit(&offsets, |chunk| {
            eval_batch(expr, chunk).iter().position(|&v| v != 0)
        })
    }

    /// The first environment of the stream over `offsets` that `hit` picks
    /// out of its chunk.  With no offsets the stream is the one empty
    /// environment, evaluated whatever the budget; otherwise a zero budget
    /// disables sampling entirely, boundary fills included — the contract
    /// [`SolverBudgets::starved`] relies on.
    fn first_hit(
        &self,
        offsets: &[usize],
        mut hit: impl FnMut(&[SparseEnv]) -> Option<usize>,
    ) -> Option<Vec<(usize, u8)>> {
        if offsets.is_empty() {
            return hit(&[SparseEnv(Vec::new())]).map(|_| Vec::new());
        }
        if self.samples == 0 {
            return None;
        }
        let mut stream = EnvStream::new(offsets, self.seed, self.samples);
        while let Some(chunk) = stream.next_chunk() {
            if let Some(i) = hit(&chunk) {
                return Some(chunk.into_iter().nth(i).expect("index within chunk").0);
            }
        }
        None
    }
}

/// The decision procedure's budgets, and its one-query entry points.
///
/// There is one escalation ladder, written once in [`SatSession::solve`];
/// an equivalence query is decided as the satisfiability of its miter
/// ([`SatSession::equivalent`]), and [`Solver::equivalent`] and
/// [`Solver::solve`] run the ladder as a session that decides a single
/// query.  Rungs, cheapest first (every rung is sound, later rungs are
/// progressively more complete):
///
/// 1. **structural** — the goal is
///    [`simplify`](cp_symexpr::rewrite::simplify)d, and a constant decides
///    the query outright (a miter of two handles that simplify to one node
///    folds to constant false);
/// 2. **verdict memo** — the process-wide verdict memo is probed by a
///    positional structural hash of the simplified goal's DAG (one cheap
///    walk, no gate construction): a batch sweep re-proving the same donor
///    check answers repeats in one hash;
/// 3. **sampling** — [`SampleSolver`] hunts for a cheap model (found ones
///    are recorded into the memo); a goal that reads no input byte is
///    decided by its single evaluation;
/// 4. **incremental blast** — the goal is bit-blasted into the session's
///    persistent AIG/CNF/CDCL and decided under assumptions: `Unsat` is a
///    proof, a model is re-validated by evaluation; definitive verdicts are
///    memoized;
/// 5. **exhaustive enumeration** — when the blaster abandons (gate or
///    conflict budget) and the support is small enough that every byte
///    environment fits in [`Solver::exhaustive_budget`] evaluations,
///    enumeration decides the query exactly;
/// 6. otherwise **Unknown**.
#[derive(Debug, Clone, Copy)]
pub struct Solver {
    /// Sampling refuter used as a pre-filter.
    pub sampler: SampleSolver,
    /// Circuit and search budgets for the bit-blasting stage.
    pub limits: BlastLimits,
    /// Maximum number of environment evaluations the exhaustive fallback may
    /// spend (256 per support byte, so the default covers two-byte supports).
    pub exhaustive_budget: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            sampler: SampleSolver::with_samples(64),
            limits: BlastLimits::default(),
            exhaustive_budget: 1 << 16,
        }
    }
}

/// One bundle of every resource knob a [`Solver`] consumes, so callers that
/// budget whole pipeline stages (see `cp_core::budget`) can configure the
/// escalation ladder without naming its internals stage by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBudgets {
    /// Sampling environments tried before escalating.
    pub samples: u32,
    /// Maximum AND gates in a bit-blasted miter.
    pub max_gates: usize,
    /// Maximum CDCL conflicts before the blaster abandons.
    pub max_conflicts: u64,
    /// Maximum evaluations the exhaustive fallback may spend.
    pub exhaustive: u64,
}

impl Default for SolverBudgets {
    fn default() -> Self {
        let solver = Solver::default();
        SolverBudgets {
            samples: solver.sampler.samples,
            max_gates: solver.limits.max_gates,
            max_conflicts: solver.limits.max_conflicts,
            exhaustive: solver.exhaustive_budget,
        }
    }
}

impl SolverBudgets {
    /// A budget with every stage beyond structural comparison starved to
    /// zero — each incomplete stage (sampling, bit-blast, enumeration) gives
    /// up immediately, so any query that structural equality cannot decide
    /// degrades to [`Equivalence::Unknown`] / [`Satisfiability::Unknown`].
    pub fn starved() -> Self {
        SolverBudgets {
            samples: 0,
            max_gates: 0,
            max_conflicts: 0,
            exhaustive: 0,
        }
    }
}

impl Solver {
    /// Builds a solver honouring an externally imposed budget bundle, keeping
    /// the default deterministic sample seed.
    pub fn with_budgets(budgets: SolverBudgets) -> Self {
        Solver::with_seeded_budgets(SampleSolver::default().seed, budgets)
    }

    /// Like [`Solver::with_budgets`] with an explicit sample-stream seed.
    pub fn with_seeded_budgets(seed: u64, budgets: SolverBudgets) -> Self {
        Solver {
            sampler: SampleSolver {
                samples: budgets.samples,
                seed,
            },
            limits: BlastLimits {
                max_gates: budgets.max_gates,
                max_conflicts: budgets.max_conflicts,
            },
            exhaustive_budget: budgets.exhaustive,
        }
    }
}

impl Solver {
    /// Decides whether `a` and `b` denote the same value on every input, as
    /// a one-query [`SatSession::equivalent`].
    ///
    /// Verdicts are over the expressions' `u64` values (narrower expressions
    /// compare zero-extended), matching evaluation.  `Refuted` witnesses are
    /// always re-validated by evaluation before being returned.
    pub fn equivalent(&self, a: &ExprRef, b: &ExprRef) -> Equivalence {
        SatSession::new(*self).equivalent(a, b)
    }

    /// Decides whether `cond` can evaluate non-zero on some input, and
    /// extracts a full input-byte model when it can, as a one-query
    /// [`SatSession`] whose only assumption is `cond` itself.
    pub fn solve(&self, cond: &ExprRef) -> Satisfiability {
        SatSession::new(*self).solve(cond, std::slice::from_ref(cond))
    }

    /// Enumerates every byte environment over the support looking for a
    /// model, when that fits in the budget.
    fn exhaustive_model(&self, original: &ExprRef, cond: &ExprRef) -> Satisfiability {
        let offsets: Vec<usize> = cond.support().iter().collect();
        // k = 8 would need 2^64 evaluations (and 256^8 overflows u64), so
        // only supports of up to seven bytes are even considered.
        let k = offsets.len() as u32;
        if k >= 8 || 256u64.saturating_pow(k) > self.exhaustive_budget {
            return Satisfiability::Unknown;
        }
        let mut env: Vec<(usize, u8)> = offsets.iter().map(|&o| (o, 0)).collect();
        let total = 256u64.pow(k);
        for assignment in 0..total {
            for (i, slot) in env.iter_mut().enumerate() {
                slot.1 = (assignment >> (8 * i)) as u8;
            }
            if eval_model(cond, &env) != 0 && eval_model(original, &env) != 0 {
                return Satisfiability::Sat { model: env };
            }
        }
        Satisfiability::Unsat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::{BinOp, ExprBuild, SymExpr, Width};

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    #[test]
    fn field_leaf_is_proved_equal_to_its_byte_expansion() {
        let raw = be16(4, 5);
        let field = SymExpr::field("/hdr/height", Width::W16, vec![4, 5]);
        // Sampling alone cannot prove; the full solver can.
        assert!(SampleSolver::default()
            .equivalent(&raw, &field)
            .is_consistent());
        assert_eq!(
            Solver::default().equivalent(&raw, &field),
            Equivalence::Proved
        );
    }

    #[test]
    fn different_fields_are_refuted() {
        let a = be16(0, 1);
        let b = be16(2, 3);
        assert!(SampleSolver::default().equivalent(&a, &b).is_refuted());
        assert!(Solver::default().equivalent(&a, &b).is_refuted());
    }

    #[test]
    fn off_by_one_constants_are_refuted_with_witness() {
        let x = SymExpr::input_byte(0).zext(Width::W32);
        let a = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 1));
        let b = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 2));
        match SampleSolver::default().equivalent(&a, &b) {
            Equivalence::Refuted { witness } => assert_eq!(witness.len(), 1),
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_support_fast_path() {
        assert!(disjoint_support(&be16(0, 1), &be16(2, 3)));
        assert!(!disjoint_support(&be16(0, 1), &be16(1, 2)));
    }

    #[test]
    fn boundary_environments_catch_overflow_disagreements() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let plus = x.binop(BinOp::Add, SymExpr::constant(Width::W16, 1));
        let trunc = plus.truncate(Width::W8).zext(Width::W16);
        // Equal below 255, different at 255: refuted by the 0xFF probe,
        // which runs before any of the (here: one) pseudo-random samples.
        let verdict = SampleSolver::with_samples(1).equivalent(&plus, &trunc);
        assert!(verdict.is_refuted());
    }

    #[test]
    fn zero_sample_budget_disables_sampling_entirely() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let plus = x.binop(BinOp::Add, SymExpr::constant(Width::W16, 1));
        let trunc = plus.truncate(Width::W8).zext(Width::W16);
        // The same disagreement the 0xFF probe catches above stays Unknown
        // under a zero budget: starvation suppresses the boundary
        // environments too (the `SolverBudgets::starved` contract).
        let starved = SampleSolver::with_samples(0);
        assert_eq!(starved.equivalent(&plus, &trunc), Equivalence::Unknown);
        assert_eq!(starved.find_model(&x), None);
        // Input-independent pairs are still decided outright.
        let six = SymExpr::constant(Width::W32, 6);
        assert_eq!(starved.equivalent(&six, &six), Equivalence::Proved);
    }

    #[test]
    fn batched_sampling_preserves_the_witness_stream() {
        // The witness is the *first* disagreeing environment in stream
        // order, regardless of how the stream is chunked for batch
        // evaluation: x ≠ x+1 everywhere, so the all-zeros boundary fill
        // wins; x itself is zero there, so the first model for x is the
        // all-ones fill that follows it.
        let x = SymExpr::input_byte(4).zext(Width::W32);
        let plus = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 1));
        match SampleSolver::default().equivalent(&x, &plus) {
            Equivalence::Refuted { witness } => assert_eq!(witness, vec![(4, 0)]),
            other => panic!("expected refutation, got {other:?}"),
        }
        assert_eq!(
            SampleSolver::default().find_model(&x),
            Some(vec![(4, 0xFF)])
        );
    }

    #[test]
    fn sampler_proves_input_independent_pairs() {
        let a =
            SymExpr::constant(Width::W32, 6).binop(BinOp::Mul, SymExpr::constant(Width::W32, 7));
        let b = SymExpr::constant(Width::W32, 42);
        assert_eq!(
            SampleSolver::default().equivalent(&a, &b),
            Equivalence::Proved
        );
        let c = SymExpr::constant(Width::W32, 41);
        assert!(SampleSolver::default().equivalent(&a, &c).is_refuted());
    }

    #[test]
    fn solver_proves_width_adjusted_identities() {
        // zext(x, 64) == x as u64 values.
        let x = be16(2, 3);
        let wide = x.zext(Width::W64);
        assert_eq!(Solver::default().equivalent(&x, &wide), Equivalence::Proved);
    }

    #[test]
    fn solver_decides_division_circuits() {
        // Division blasts through the restoring divider now — no exhaustive
        // fallback, and no Unknown.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let halved = x.binop(BinOp::DivU, SymExpr::constant(Width::W16, 2));
        let shifted = x.binop(BinOp::ShrU, SymExpr::constant(Width::W16, 1));
        assert_eq!(
            Solver::default().equivalent(&halved, &shifted),
            Equivalence::Proved
        );
        let off = halved.binop(BinOp::Add, SymExpr::constant(Width::W16, 1));
        assert!(Solver::default().equivalent(&off, &shifted).is_refuted());
    }

    #[test]
    fn solver_refutes_needle_in_haystack_disagreements() {
        // Disagrees only at x == 255: sampling misses it, SAT finds it.
        let x = SymExpr::input_byte(9).zext(Width::W16);
        let plus = x.binop(BinOp::Add, SymExpr::constant(Width::W16, 1));
        let wrapped = plus.truncate(Width::W8).zext(Width::W16);
        match Solver::default().equivalent(&plus, &wrapped) {
            Equivalence::Refuted { witness } => assert_eq!(witness, vec![(9, 255)]),
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn unknown_when_every_stage_is_exhausted() {
        // An equivalent pair (multiplication reassociates) that sampling
        // cannot refute, that is too large to blast under a starved gate
        // budget, and whose three-byte support exceeds the exhaustive
        // budget: every rung of the ladder runs dry.
        let byte = |i: usize| SymExpr::input_byte(i).zext(Width::W64);
        let a = byte(0)
            .binop(BinOp::Mul, byte(1))
            .binop(BinOp::Mul, byte(2));
        let b = byte(2).binop(BinOp::Mul, byte(1).binop(BinOp::Mul, byte(0)));
        let solver = Solver {
            limits: BlastLimits {
                max_gates: 100,
                ..BlastLimits::default()
            },
            ..Solver::default()
        };
        assert_eq!(solver.equivalent(&a, &b), Equivalence::Unknown);
    }

    #[test]
    fn solve_finds_a_validated_model() {
        let goal = be16(0, 1).binop(BinOp::Eq, SymExpr::constant(Width::W16, 0xCAFE));
        match Solver::default().solve(&goal) {
            Satisfiability::Sat { model } => {
                assert_ne!(eval_model(&goal, &model), 0);
                let mut sorted = model;
                sorted.sort_unstable();
                assert_eq!(sorted, vec![(0, 0xCA), (1, 0xFE)]);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn solve_refutes_contradictions() {
        let x = SymExpr::input_byte(3).zext(Width::W32);
        let small = x.binop(BinOp::LtU, SymExpr::constant(Width::W32, 5));
        let big = SymExpr::constant(Width::W32, 200).binop(BinOp::LtU, x);
        assert_eq!(
            Solver::default().solve(&small.binop(BinOp::And, big)),
            Satisfiability::Unsat
        );
    }

    #[test]
    fn solve_decides_constants_without_search() {
        let t = SymExpr::constant(Width::W8, 1);
        assert_eq!(
            Solver::default().solve(&t),
            Satisfiability::Sat { model: Vec::new() }
        );
        let f = SymExpr::constant(Width::W8, 0);
        assert_eq!(Solver::default().solve(&f), Satisfiability::Unsat);
    }

    #[test]
    fn solve_decides_division_goals() {
        // x / 2 == 7 blasts through the divider circuit; some stage must
        // produce a model (x in 14..=15).
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let goal = x
            .binop(BinOp::DivU, SymExpr::constant(Width::W16, 2))
            .binop(BinOp::Eq, SymExpr::constant(Width::W16, 7));
        match Solver::default().solve(&goal) {
            Satisfiability::Sat { model } => {
                assert_eq!(model.len(), 1);
                assert!(model[0].1 == 14 || model[0].1 == 15);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
        // x / 2 == 200 is unsatisfiable over one byte: CDCL proves it.
        let bad = x
            .binop(BinOp::DivU, SymExpr::constant(Width::W16, 2))
            .binop(BinOp::Eq, SymExpr::constant(Width::W16, 200));
        assert_eq!(Solver::default().solve(&bad), Satisfiability::Unsat);
    }

    #[test]
    fn solve_is_deterministic_per_seed() {
        let goal = be16(4, 5).binop(BinOp::LtU, be16(6, 7));
        let solver = Solver {
            sampler: SampleSolver::with_seed(42),
            ..Solver::default()
        };
        assert_eq!(solver.solve(&goal), solver.solve(&goal));
    }

    #[test]
    fn solve_overflow_goal_produces_an_overflowing_model() {
        // The discovery workload: solve the overflow goal of a 32-bit
        // element-count times element-size product.  Two 16-bit factors
        // alone cannot exceed u32::MAX, so the scaled three-factor form is
        // the satisfiable shape real size computations take.
        let count = be16(0, 1).zext(Width::W32);
        let stride = be16(2, 3).zext(Width::W32);
        let size = count
            .binop(BinOp::Mul, stride)
            .binop(BinOp::Mul, SymExpr::constant(Width::W32, 16));
        let goal = cp_symexpr::overflow_goal(&size).unwrap();
        match Solver::default().solve(&goal) {
            Satisfiability::Sat { model } => {
                let a = eval_model(&count, &model);
                let b = eval_model(&stride, &model);
                assert!(a * b * 16 > u64::from(u32::MAX), "{a} * {b} * 16 must wrap");
            }
            other => panic!("expected Sat, got {other:?}"),
        }
        // And the two-factor form really is unsatisfiable — the goal
        // builder must not claim wraps that cannot happen.
        let two = cp_symexpr::overflow_goal(&count.binop(BinOp::Mul, stride)).unwrap();
        assert_eq!(Solver::default().solve(&two), Satisfiability::Unsat);
    }
}
