//! Assumption-based incremental solving for *queues* of related queries.
//!
//! Both of the paper's solver consumers issue many closely related queries
//! over shared structure: translation proves one miter per donor-field
//! candidate against a single recipient cone (Section 3.3), and discovery
//! re-solves one path prefix per generation with a single constraint flipped
//! (Section 3.1).  Rebuilding the AIG, re-Tseitinizing the CNF and
//! relearning every clause for each query would repeat that shared work;
//! this module keeps all three alive instead.  It is also the only way the
//! crate decides a query by bit-blasting: [`SatSession::solve`] is the
//! crate's one escalation ladder, an equivalence query is the satisfiability
//! of its miter ([`SatSession::equivalent`]), and a one-shot
//! [`Solver::equivalent`] or [`Solver::solve`] is a session that decides a
//! single query, in the manner of MiniSat's incremental interface (Eén &
//! Sörensson, SAT 2003).
//!
//! ## The assumption protocol
//!
//! An [`IncrementalSolver`] owns one growing AIG (structural hashing makes
//! cones shared across queries free), one growing CNF (every gate is encoded
//! exactly once, the session keeps a cursor over the variable space), and one
//! CDCL instance whose learned clauses, VSIDS activities and saved phases
//! survive from query to query.  A query never *asserts* its goal as a
//! clause: each goal root is passed to the CDCL as an **assumption** — a
//! pseudo-decision enqueued before the search proper — so retracting the
//! query is simply not assuming its literal again.  Everything the search
//! learns is implied by the clause database alone, which is what makes
//! carrying the learned clauses into the next query sound.
//!
//! When a query is unsatisfiable, final-conflict analysis returns an **unsat
//! core**: the subset of the assumptions the conflict actually used (as
//! indices into the goal slice).  Permanent facts — discovery's shared path
//! prefix — are asserted as real unit clauses instead via
//! [`SatSession::assert_holds`], so they join the clause database and prune
//! every later query.
//!
//! ## When state resets
//!
//! Never, within a session — that is the point.  Sessions are scoped to one
//! arena epoch (the blasted-bits memo is keyed by arena addresses), so each
//! `translate`/`discover` run builds a fresh session and drops it at the
//! end; the process-wide *verdict* memo in [`crate::memo`] carries
//! whatever is reusable across runs.  Budgets are per query, not per
//! session: the gate ceiling counts gates added since the current query
//! began (see [`crate::bitblast`]'s `begin_query`), and the conflict ceiling
//! counts conflicts within one `solve_under_assumptions` call, so a reused
//! context can never starve a later query with an earlier query's spending.

use std::sync::OnceLock;

use cp_symexpr::rewrite::simplify;
use cp_symexpr::{BinOp, ExprBuild, ExprRef};

use crate::bitblast::{BlastError, BlastLimits, Blaster, Lit, LIT_FALSE, LIT_TRUE};
use crate::cdcl::{Cdcl, SolveResult};
use crate::memo::{BlastOutcome, QueryKey};
use crate::{eval_model, Equivalence, Satisfiability, Solver};

fn queries_counter() -> &'static cp_obs::metrics::Counter {
    static C: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
    C.get_or_init(|| cp_obs::metrics::counter("solver.incremental.queries"))
}

fn reuse_counter() -> &'static cp_obs::metrics::Counter {
    static C: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
    C.get_or_init(|| cp_obs::metrics::counter("solver.incremental.reuse"))
}

fn core_size_gauge() -> &'static cp_obs::metrics::Gauge {
    static G: OnceLock<&'static cp_obs::metrics::Gauge> = OnceLock::new();
    G.get_or_init(|| cp_obs::metrics::gauge("solver.incremental.core_size"))
}

/// The verdict of one incremental query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementalVerdict {
    /// Satisfiable; the model over the query's byte offsets.
    Sat(Vec<(usize, u8)>),
    /// Unsatisfiable under the assumptions; `core` holds the indices (into
    /// the goal slice) of the assumptions the final conflict actually used.
    /// Empty means the permanent clause database is contradictory on its
    /// own, so every later query on this session is unsatisfiable too.
    Unsat { core: Vec<usize> },
    /// Gate or conflict budget exhausted before a verdict.
    Abandoned(&'static str),
}

/// A persistent AIG + CNF + CDCL context deciding many related queries.
///
/// See the module docs for the protocol.  This is the mechanism layer; the
/// consumer-facing ladder (memo, sampling, validation) lives in
/// [`SatSession`].
pub struct IncrementalSolver {
    blaster: Blaster,
    sat: Cdcl,
    /// First AIG variable whose Tseitin clauses are not yet in `sat`.
    encoded: u32,
    limits: BlastLimits,
    queries: u64,
}

impl IncrementalSolver {
    pub fn new(limits: &BlastLimits) -> Self {
        IncrementalSolver {
            blaster: Blaster::new(limits.max_gates),
            // Variable 0 is the reserved constant; the CNF never mentions it
            // (gates fold constant fanins away), so it needs no unit clause.
            sat: Cdcl::new(),
            encoded: 1,
            limits: *limits,
            queries: 0,
        }
    }

    /// Queries decided so far on this context (reuse = `queries() - 1`
    /// of them ran against pre-built state).
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// The CDCL's work tallies over this context's lifetime.
    #[cfg(test)]
    pub(crate) fn cdcl_stats(&self) -> crate::cdcl::CdclStats {
        self.sat.stats
    }

    /// Permanently asserts `expr ≠ 0` as unit clauses in the shared
    /// database.  Returns `Err` if the cone exceeds the per-query gate
    /// budget (the session layer then decides each query on a fresh
    /// session).
    pub fn assert_nonzero(&mut self, expr: &ExprRef) -> Result<(), BlastError> {
        self.blaster.begin_query();
        let root = self.blaster.nonzero_root(expr)?;
        self.blaster
            .encode_new_gates(&mut self.sat, &mut self.encoded);
        if root != LIT_TRUE {
            // LIT_FALSE becomes the unit clause of constant-false, which
            // correctly marks the database unsatisfiable.
            self.sat.add_clause(&[root]);
        }
        Ok(())
    }

    /// Decides whether every goal in `goals` can be non-zero simultaneously
    /// (and under any permanent assertions), each goal as its own assumption
    /// so unsat cores name the conflicting subset.
    pub fn query_nonzero(&mut self, goals: &[ExprRef], offsets: &[usize]) -> IncrementalVerdict {
        self.blaster.begin_query();
        let mut roots = Vec::with_capacity(goals.len());
        for goal in goals {
            match self.blaster.nonzero_root(goal) {
                Ok(root) => roots.push(root),
                Err(BlastError::GateBudget) => return IncrementalVerdict::Abandoned("gate budget"),
            }
        }
        self.solve_roots(&roots, offsets)
    }

    /// Encodes the query's new gates and solves under the given assumption
    /// roots, mapping the CDCL verdict (and its literal core) back to goal
    /// indices.
    fn solve_roots(&mut self, roots: &[Lit], offsets: &[usize]) -> IncrementalVerdict {
        self.queries += 1;
        queries_counter().inc();
        if self.queries > 1 {
            reuse_counter().inc();
        }
        // Constant roots never reach the CDCL: a folded-true goal holds
        // vacuously, a folded-false goal is its own one-assumption core.
        if let Some(idx) = roots.iter().position(|&r| r == LIT_FALSE) {
            core_size_gauge().set(1);
            return IncrementalVerdict::Unsat { core: vec![idx] };
        }
        let mut assumptions: Vec<Lit> = Vec::with_capacity(roots.len());
        for &root in roots {
            if root != LIT_TRUE && !assumptions.contains(&root) {
                assumptions.push(root);
            }
        }
        self.blaster
            .encode_new_gates(&mut self.sat, &mut self.encoded);
        match self
            .sat
            .solve_under_assumptions(&assumptions, self.limits.max_conflicts)
        {
            SolveResult::Sat => {
                IncrementalVerdict::Sat(self.blaster.decode_model(&self.sat, offsets))
            }
            SolveResult::Unsat { core } => {
                core_size_gauge().set(core.len() as u64);
                let indices = core
                    .iter()
                    .filter_map(|lit| roots.iter().position(|r| r == lit))
                    .collect();
                IncrementalVerdict::Unsat { core: indices }
            }
            SolveResult::Budget => IncrementalVerdict::Abandoned("conflict budget"),
        }
    }
}

/// The session's incremental context, built on the first query that reaches
/// the blast rung: structural and memo hits — most of a warm sweep's
/// queries — never allocate a CDCL.
fn context<'a>(
    inc: &'a mut Option<IncrementalSolver>,
    solver: &Solver,
) -> &'a mut IncrementalSolver {
    inc.get_or_insert_with(|| IncrementalSolver::new(&solver.limits))
}

/// The miter of an equivalence query: non-zero exactly where `a` and `b`
/// differ.  Both sides are zero-extended to the wider width, so values
/// compare as zero-extended `u64`s, exactly as evaluation compares them.
pub(crate) fn miter(a: &ExprRef, b: &ExprRef) -> ExprRef {
    let width = a.width().max(b.width());
    a.zext(width).binop(BinOp::Ne, b.zext(width))
}

/// The crate's one escalation ladder — what `cp_diode::discover` drives
/// across a generation frontier, what [`crate::translate::Translator`]
/// drives while proving many donor-field miters against one recipient cone,
/// and what [`Solver::solve`] and [`Solver::equivalent`] run for a single
/// query.
///
/// The rungs are the ones listed on [`Solver`]; the blast rung decides each
/// query against the session's persistent AIG/CNF/CDCL.  Discovery's shared
/// path prefix is asserted *permanently* (real unit clauses that prune every
/// later query); only the per-query constraints — the flipped branch
/// condition and the overflow goal, or an equivalence query's miter — ride
/// in as assumptions.
pub struct SatSession {
    solver: Solver,
    inc: Option<IncrementalSolver>,
    /// A permanent assertion overflowed the gate budget: the shared context
    /// no longer reflects the prefix, so each query is decided on a fresh
    /// session of its own.
    degraded: bool,
}

impl SatSession {
    pub fn new(solver: Solver) -> Self {
        SatSession {
            solver,
            inc: None,
            degraded: false,
        }
    }

    /// Whether a permanent assertion overflowed the gate budget, so that each
    /// query is decided on a fresh session of its own.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Permanently asserts `cond ≠ 0` for every later query on this session.
    pub fn assert_holds(&mut self, cond: &ExprRef) {
        if self.degraded {
            return;
        }
        let inc = context(&mut self.inc, &self.solver);
        if inc.assert_nonzero(&simplify(cond)).is_err() {
            self.degraded = true;
        }
    }

    /// Decides whether `a` and `b` denote the same value on every input, with
    /// the verdict contract of [`Solver::equivalent`]: the ladder solves
    /// their miter `zext(a, w) ≠ zext(b, w)` (`w` the wider width), and
    /// `Unsat` is a proof while a model is a witness on which they disagree.
    /// Meant for sessions with no permanent assertion, as translation's are:
    /// the miter is decided under whatever
    /// [`assert_holds`](Self::assert_holds) added.
    pub fn equivalent(&mut self, a: &ExprRef, b: &ExprRef) -> Equivalence {
        if a == b {
            return Equivalence::Proved;
        }
        let miter = miter(a, b);
        match self.solve(&miter, std::slice::from_ref(&miter)) {
            Satisfiability::Unsat => Equivalence::Proved,
            Satisfiability::Sat { model } => Equivalence::Refuted { witness: model },
            Satisfiability::Unknown => Equivalence::Unknown,
        }
    }

    /// Decides `full`, where `full` must be the conjunction of everything
    /// asserted so far and of `extras` — the session solves the permanent
    /// clauses plus `extras` as assumptions, while `full` drives the stages
    /// that need the whole query as one expression (memo key, sampling,
    /// model validation, support projection, fallbacks).
    pub fn solve(&mut self, full: &ExprRef, extras: &[ExprRef]) -> Satisfiability {
        if self.degraded {
            return SatSession::new(self.solver).solve(full, std::slice::from_ref(full));
        }
        let sc = simplify(full);
        if let Some(value) = sc.as_const() {
            return if value != 0 {
                Satisfiability::Sat { model: Vec::new() }
            } else {
                Satisfiability::Unsat
            };
        }
        // Probe the verdict memo by the goal's expression-DAG key before
        // sampling; a batch sweep re-issues the same discovery goal for
        // scenario after scenario, and a hit skips the whole sampling
        // stream without building a single gate.
        let query = QueryKey::new(&sc);
        match query.probe(&self.solver.limits) {
            Some(BlastOutcome::Unsat) => return Satisfiability::Unsat,
            // Defensive guard: the model must satisfy the *original*
            // condition; otherwise fall through to the full ladder.
            Some(BlastOutcome::Sat(model)) if eval_model(full, &model) != 0 => {
                return Satisfiability::Sat { model };
            }
            _ => {}
        }

        cp_obs::event!(SolverEscalation {
            stage: "sampling".to_string()
        });
        match self.solver.sampler.find_model(&sc) {
            Some(model) if eval_model(full, &model) != 0 => {
                // Record the sampling model so the next identical query
                // probe-hits without sampling.
                query.cache_model(&model);
                return Satisfiability::Sat { model };
            }
            // A goal that reads no input byte was decided by the sampler's
            // single evaluation.
            None if sc.support().is_empty() => return Satisfiability::Unsat,
            _ => {}
        }
        cp_obs::event!(SolverEscalation {
            stage: "incremental".to_string()
        });
        let extras: Vec<ExprRef> = extras.iter().map(simplify).collect();
        match context(&mut self.inc, &self.solver).query_nonzero(&extras, query.offsets()) {
            IncrementalVerdict::Sat(model) => {
                if eval_model(full, &model) != 0 {
                    query.record(&BlastOutcome::Sat(model.clone()));
                    Satisfiability::Sat { model }
                } else {
                    // A model the original condition rejects is a solver
                    // bug, not a satisfying environment.
                    Satisfiability::Unknown
                }
            }
            IncrementalVerdict::Unsat { .. } => {
                query.record(&BlastOutcome::Unsat);
                Satisfiability::Unsat
            }
            IncrementalVerdict::Abandoned(_) => {
                cp_obs::event!(SolverEscalation {
                    stage: "exhaustive".to_string()
                });
                self.solver.exhaustive_model(full, &sc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::eval::eval;
    use cp_symexpr::{BinOp, ExprBuild, SymExpr, Width};

    fn byte(i: usize) -> ExprRef {
        SymExpr::input_byte(i).zext(Width::W16)
    }

    #[test]
    fn related_miters_share_one_context() {
        // One recipient cone, many donor candidates — the translate shape.
        let recipient = byte(0).binop(BinOp::Add, byte(1));
        let mut inc = IncrementalSolver::new(&BlastLimits::default());
        let same = byte(1).binop(BinOp::Add, byte(0));
        assert!(matches!(
            inc.query_nonzero(&[miter(&recipient, &same)], &[0, 1]),
            IncrementalVerdict::Unsat { .. }
        ));
        let off = recipient.binop(BinOp::Add, SymExpr::constant(Width::W16, 1));
        match inc.query_nonzero(&[miter(&recipient, &off)], &[0, 1]) {
            IncrementalVerdict::Sat(_) => {}
            other => panic!("expected Sat, got {other:?}"),
        }
        let doubled = recipient.binop(BinOp::Mul, SymExpr::constant(Width::W16, 2));
        let shifted = recipient.binop(BinOp::Shl, SymExpr::constant(Width::W16, 1));
        assert!(matches!(
            inc.query_nonzero(&[miter(&doubled, &shifted)], &[0, 1]),
            IncrementalVerdict::Unsat { .. }
        ));
        assert_eq!(inc.queries(), 3);
    }

    #[test]
    fn unsat_core_names_only_conflicting_assumptions() {
        let x = byte(3);
        let small = x.binop(BinOp::LtU, SymExpr::constant(Width::W16, 5));
        let big = SymExpr::constant(Width::W16, 200).binop(BinOp::LtU, x);
        let trivial = SymExpr::constant(Width::W16, 1);
        let goals = vec![trivial, small, big];
        let mut inc = IncrementalSolver::new(&BlastLimits::default());
        let core = match inc.query_nonzero(&goals, &[3]) {
            IncrementalVerdict::Unsat { core } => core,
            other => panic!("expected Unsat, got {other:?}"),
        };
        // The core indexes into the goal slice, never names the vacuous
        // constant goal, and must include both conflicting bounds.
        assert!(!core.is_empty());
        assert!(core.iter().all(|&i| i == 1 || i == 2), "core {core:?}");

        // Shrink-on-retry: re-solving just the core still conflicts with a
        // core no larger than before.
        let core_goals: Vec<ExprRef> = core.iter().map(|&i| goals[i]).collect();
        match inc.query_nonzero(&core_goals, &[3]) {
            IncrementalVerdict::Unsat { core: again } => {
                assert!(!again.is_empty());
                assert!(again.len() <= core.len());
            }
            other => panic!("the core alone must still conflict, got {other:?}"),
        }

        // Retraction is one literal flip: dropping either bound turns the
        // same context satisfiable.
        match inc.query_nonzero(&goals[..2], &[3]) {
            IncrementalVerdict::Sat(model) => {
                assert!(eval_model(&goals[1], &model) != 0);
            }
            other => panic!("expected Sat after retraction, got {other:?}"),
        }
    }

    /// Pigeonhole clauses over `holes + 1` pigeons, every clause guarded by
    /// the activation literal `¬s`: the block is unsatisfiable exactly when
    /// `s` is assumed, and blocks over disjoint variables share no learning.
    fn guarded_pigeonhole(holes: u32, var_base: u32, s: Lit) -> Vec<Vec<Lit>> {
        let pos = |p: u32, h: u32| (var_base + p * holes + h) << 1;
        let mut clauses = Vec::new();
        for p in 0..=holes {
            let mut clause = vec![s ^ 1];
            clause.extend((0..holes).map(|h| pos(p, h)));
            clauses.push(clause);
        }
        for h in 0..holes {
            for p in 0..=holes {
                for q in (p + 1)..=holes {
                    clauses.push(vec![s ^ 1, pos(p, h) | 1, pos(q, h) | 1]);
                }
            }
        }
        clauses
    }

    #[test]
    fn conflict_budget_is_per_query_not_cumulative() {
        // Five independent hard blocks in one solver, each activated by its
        // own assumption.  Disjoint variables mean no learning carries over,
        // so every query pays (roughly) the full refutation cost.  The
        // per-query budget is calibrated to ~2x one block's measured cost:
        // each query fits comfortably on its own, but under cumulative
        // accounting five refutations must overrun it.
        let block = |s: Lit| guarded_pigeonhole(6, (s >> 1) + 1, s);
        let standalone_cost = {
            // Smallest power-of-two conflict budget that refutes one block
            // from scratch (fresh solver per probe, so no learning leaks
            // between probes).
            let mut budget = 16u64;
            loop {
                let mut probe = Cdcl::with_clauses(1 + 1 + 7 * 6, &block(1 << 1));
                match probe.solve_under_assumptions(&[1 << 1], budget) {
                    SolveResult::Budget => budget *= 2,
                    SolveResult::Unsat { .. } => break budget,
                    SolveResult::Sat => panic!("pigeonhole block cannot be satisfiable"),
                }
            }
        };
        assert!(
            standalone_cost >= 64,
            "block too easy ({standalone_cost} conflicts) to exercise the budget"
        );
        let budget = standalone_cost * 2;

        let mut sat = Cdcl::new();
        let mut activations = Vec::new();
        let mut var_base = 1u32;
        for _ in 0..5 {
            let s = var_base << 1;
            var_base += 1 + 7 * 6;
            sat.ensure_vars(var_base as usize);
            for clause in block(s) {
                sat.add_clause(&clause);
            }
            activations.push(s);
        }
        for (round, &s) in activations.iter().enumerate() {
            match sat.solve_under_assumptions(&[s], budget) {
                SolveResult::Unsat { core } => assert_eq!(core, vec![s]),
                other => panic!("round {round}: expected Unsat, got {other:?}"),
            }
        }
        // All blocks deactivated: the shared database stays satisfiable.
        assert_eq!(sat.solve_under_assumptions(&[], budget), SolveResult::Sat);
    }

    #[test]
    fn degraded_session_still_decides_queries_over_the_whole_prefix() {
        // A one-byte prefix whose multiplier cone overflows the gate budget:
        // the session cannot assert it, so it degrades, and every later
        // query is decided on a fresh session over `full` — which still
        // carries the prefix.
        let x = byte(5);
        let solver = Solver {
            limits: BlastLimits {
                max_gates: 64,
                ..BlastLimits::default()
            },
            ..Solver::default()
        };
        let mut session = SatSession::new(solver);
        // x * x < 1000 holds exactly for x <= 31.
        let prefix = x
            .binop(BinOp::Mul, x)
            .binop(BinOp::LtU, SymExpr::constant(Width::W16, 1000));
        session.assert_holds(&prefix);
        assert!(session.degraded, "the prefix cone must exceed 64 gates");

        let needle = x.binop(BinOp::Eq, SymExpr::constant(Width::W16, 17));
        let full = prefix.binop(BinOp::And, needle);
        match session.solve(&full, std::slice::from_ref(&needle)) {
            Satisfiability::Sat { model } => {
                assert_ne!(eval_model(&full, &model), 0);
                assert_eq!(model, vec![(5, 17)]);
            }
            other => panic!("expected Sat, got {other:?}"),
        }

        // x > 200 is satisfiable on its own but contradicts the prefix; the
        // fresh session's blast rung overflows too, and the one-byte support
        // leaves the verdict to exhaustive enumeration.
        let big = SymExpr::constant(Width::W16, 200).binop(BinOp::LtU, x);
        let full = prefix.binop(BinOp::And, big);
        let collector = cp_obs::Collector::new();
        let subscription = collector.subscribe();
        let verdict = session.solve(&full, std::slice::from_ref(&big));
        drop(subscription);
        assert_eq!(verdict, Satisfiability::Unsat);
        let stages: Vec<String> = collector
            .take()
            .events
            .into_iter()
            .filter_map(|record| match record.event {
                cp_obs::Event::SolverEscalation { stage, .. } => Some(stage),
                _ => None,
            })
            .collect();
        assert_eq!(stages.last().map(String::as_str), Some("exhaustive"));
    }

    #[test]
    fn sat_session_prefix_prunes_later_queries() {
        let x = byte(5);
        let mut session = SatSession::new(Solver::default());
        let above = SymExpr::constant(Width::W16, 200).binop(BinOp::LtU, x);
        session.assert_holds(&above);
        // Prefix ∧ (x < 5) is contradictory.
        let below = x.binop(BinOp::LtU, SymExpr::constant(Width::W16, 5));
        let full = above.binop(BinOp::And, below);
        assert_eq!(
            session.solve(&full, std::slice::from_ref(&below)),
            Satisfiability::Unsat
        );
        // Prefix ∧ (x < 250) has models, all respecting the prefix.
        let cap = x.binop(BinOp::LtU, SymExpr::constant(Width::W16, 250));
        let full = above.binop(BinOp::And, cap);
        match session.solve(&full, std::slice::from_ref(&cap)) {
            Satisfiability::Sat { model } => {
                assert_ne!(eval_model(&full, &model), 0);
                let value = model
                    .iter()
                    .find(|(o, _)| *o == 5)
                    .map(|&(_, b)| u64::from(b))
                    .unwrap_or(0);
                assert!(
                    (201..250).contains(&value),
                    "model violates prefix: {value}"
                );
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_prefix_yields_empty_cores_forever() {
        let x = byte(7);
        let mut inc = IncrementalSolver::new(&BlastLimits::default());
        let small = x.binop(BinOp::LtU, SymExpr::constant(Width::W16, 5));
        let big = SymExpr::constant(Width::W16, 200).binop(BinOp::LtU, x);
        inc.assert_nonzero(&small).expect("fits budget");
        inc.assert_nonzero(&big).expect("fits budget");
        // The permanent database alone is contradictory: the core over the
        // (innocent) assumptions is empty.
        let harmless = x.binop(BinOp::LtU, SymExpr::constant(Width::W16, 300));
        match inc.query_nonzero(std::slice::from_ref(&harmless), &[7]) {
            IncrementalVerdict::Unsat { core } => assert!(core.is_empty()),
            other => panic!("expected Unsat, got {other:?}"),
        }
        match inc.query_nonzero(&[], &[7]) {
            IncrementalVerdict::Unsat { core } => assert!(core.is_empty()),
            other => panic!("expected Unsat, got {other:?}"),
        }
    }

    #[test]
    fn reuse_metrics_track_query_counts() {
        let before = cp_obs::metrics::counter("solver.incremental.queries").get();
        let reuse_before = cp_obs::metrics::counter("solver.incremental.reuse").get();
        let mut inc = IncrementalSolver::new(&BlastLimits::default());
        let a = byte(0).binop(BinOp::Add, byte(1));
        let b = byte(1).binop(BinOp::Add, byte(0));
        for _ in 0..4 {
            inc.query_nonzero(&[miter(&a, &b)], &[0, 1]);
        }
        let queries = cp_obs::metrics::counter("solver.incremental.queries").get() - before;
        let reused = cp_obs::metrics::counter("solver.incremental.reuse").get() - reuse_before;
        assert_eq!(queries, 4);
        // Other tests may bump the counters concurrently, so assert only
        // this session's contribution: queries 2..4 reused state.
        assert!(reused >= 3);
    }

    #[test]
    fn divider_circuits_work_incrementally() {
        // Division goes through the restoring divider inside a session too,
        // and the strashed divider cone is shared across queries.
        let x = byte(0);
        let mut inc = IncrementalSolver::new(&BlastLimits::default());
        let div = x.binop(BinOp::DivU, SymExpr::constant(Width::W16, 4));
        let shr = x.binop(BinOp::ShrU, SymExpr::constant(Width::W16, 2));
        assert!(matches!(
            inc.query_nonzero(&[miter(&div, &shr)], &[0]),
            IncrementalVerdict::Unsat { .. }
        ));
        let wrong = x.binop(BinOp::ShrU, SymExpr::constant(Width::W16, 3));
        match inc.query_nonzero(&[miter(&div, &wrong)], &[0]) {
            IncrementalVerdict::Sat(witness) => {
                let env = |off: usize| {
                    witness
                        .iter()
                        .find(|(o, _)| *o == off)
                        .map(|&(_, b)| b)
                        .unwrap_or(0)
                };
                assert_ne!(eval(&div, &env), eval(&wrong, &env));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }
}
