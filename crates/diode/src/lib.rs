//! # cp-diode
//!
//! DIODE-style goal-directed discovery of integer overflows at memory
//! allocation sites.
//!
//! DIODE (the error-discovery tool the paper pairs with Code Phage) starts
//! from a *benign* input and steers execution toward an overflow at an
//! input-tainted allocation site.  This crate implements that search:
//!
//! 1. **Target ranking** ([`target_sites`]) — the recorded allocations whose
//!    size the input influences, most-arithmetic first (more arithmetic,
//!    more chances to wrap).  The order is total: ties on operation count
//!    break on allocation order, so discovery is deterministic.
//! 2. **Goal construction** — for each site, the *overflow goal condition*
//!    ([`cp_symexpr::overflow_goal`]): some `Add`/`Sub`/`Mul` in the size
//!    expression wraps at its width — conjoined with the
//!    [`PathConstraint`]s of the branches executed before the site, so a
//!    model follows the same path to the allocation.
//! 3. **Solving** — the conjunction goes to a [`SatSession`], `cp-solver`'s
//!    one ladder; the model is concretized over the current input.  Before
//!    any gate is built, the ladder samples the goal and then evaluates the
//!    corner of its byte bounds, since an overflow behind range checks
//!    (`width ≤ 4095` and the like, then `width * height * depth`) usually
//!    wraps where each field takes its bound.  Goals neither answers go to
//!    the AIG → Tseitin → CDCL stack with input-byte model extraction.  All
//!    of one run's queries share a single incremental context: the site
//!    goals reuse each other's strashed path cones and learned clauses, and
//!    the flip loop asserts its monotone prefix as permanent clauses so each
//!    flipped constraint rides in as a single assumption.
//! 4. **Generational search** ([`discover`]) — when the straight-line goal
//!    is unsatisfiable (or a candidate diverges), the search flips one
//!    unsatisfied path constraint at a time, re-executes, and processes the
//!    resulting trace as the next generation — a bounded generational
//!    search in the SAGE style, not a fuzzer.
//!
//! Every candidate input is validated by actually re-executing the program
//! ([`DiscoverOutcome::Found`] only ever carries an input whose run tripped
//! `VmError::OverflowIntoAllocation`).  `cp_core::Session::discover` wires a
//! recording session into [`discover`].

use cp_solver::incremental::SatSession;
use cp_solver::{SampleSolver, Satisfiability, Solver};
use cp_symexpr::{count_ops, input_support, overflow_goal, BinOp, ExprBuild, ExprRef, SymExpr};
use cp_vm::VmError;
use std::collections::{HashSet, VecDeque};

/// Whether an error is the one DIODE targets: an arithmetic overflow that
/// reached an allocation size.
pub fn is_target_error(error: &VmError) -> bool {
    matches!(error, VmError::OverflowIntoAllocation { .. })
}

/// An allocation site whose size the input influences, ranked for targeting.
#[derive(Debug, Clone)]
pub struct TargetSite<'a> {
    /// The observed allocation.
    pub alloc: &'a ObservedAlloc,
    /// Position of the allocation in the trace's allocation list — the
    /// site's stable identity within one run, and the ranking tie-breaker.
    pub index: usize,
    /// Input byte offsets flowing into the size.
    pub support: Vec<usize>,
    /// Operation count of the size expression (more arithmetic, more chances
    /// to overflow).
    pub ops: usize,
}

/// Extracts the input-influenced allocation sites from a recorded run,
/// most-arithmetic first; ties on operation count rank in allocation order.
///
/// The sort key `(ops descending, allocation index ascending)` is total, so
/// the ranking — and everything downstream of it: discovery order, fig8
/// output — is deterministic across runs.
///
/// Only sites with a tainted size expression appear: a constant-size
/// allocation cannot be driven to overflow by input mutation.
pub fn target_sites(allocs: &[ObservedAlloc]) -> Vec<TargetSite<'_>> {
    let mut sites: Vec<TargetSite<'_>> = allocs
        .iter()
        .enumerate()
        .filter_map(|(index, alloc)| {
            let expr = alloc.size_expr.as_ref()?;
            Some(TargetSite {
                alloc,
                index,
                support: input_support(expr).into_iter().collect(),
                ops: count_ops(expr),
            })
        })
        .collect();
    sites.sort_by_key(|site| (std::cmp::Reverse(site.ops), site.index));
    sites
}

/// One observed conditional branch as a constraint on the executed path.
#[derive(Debug, Clone, Copy)]
pub struct PathConstraint {
    /// The branch's symbolic condition.
    pub expr: ExprRef,
    /// Whether the branch was taken (the VM jumps when the condition is
    /// zero, so `taken` means the condition evaluated to zero).
    pub taken: bool,
}

impl PathConstraint {
    /// The boolean expression asserting the observed direction.
    pub fn holds(&self) -> ExprRef {
        let zero = SymExpr::constant(self.expr.width(), 0);
        if self.taken {
            self.expr.binop(BinOp::Eq, zero)
        } else {
            self.expr.binop(BinOp::Ne, zero)
        }
    }

    /// The boolean expression asserting the *opposite* direction — the
    /// flipped constraint generational search branches on.
    pub fn negated(&self) -> ExprRef {
        let zero = SymExpr::constant(self.expr.width(), 0);
        if self.taken {
            self.expr.binop(BinOp::Ne, zero)
        } else {
            self.expr.binop(BinOp::Eq, zero)
        }
    }
}

/// Conjoins boolean (0/1-valued) conditions; `None` for an empty set.
fn conjoin(conds: impl IntoIterator<Item = ExprRef>) -> Option<ExprRef> {
    let mut iter = conds.into_iter();
    let first = iter.next()?;
    Some(iter.fold(first, |acc, c| acc.binop(BinOp::And, c)))
}

/// What one instrumented execution observed — the slice of a trace the
/// discovery search consumes, with its expressions resolved.
#[derive(Debug)]
pub struct ObservedRun {
    /// The input-dependent conditional branches in execution order, as
    /// constraints on the path (untainted branches constrain nothing).
    pub path: Vec<PathConstraint>,
    /// Heap allocations in execution order.
    pub allocs: Vec<ObservedAlloc>,
    /// The error the run trapped on, if any.
    pub error: Option<VmError>,
}

/// One heap allocation of an [`ObservedRun`].
#[derive(Debug, Clone)]
pub struct ObservedAlloc {
    /// The symbolic size, when it depends on input bytes.
    pub size_expr: Option<ExprRef>,
    /// How many of the run's path constraints precede the allocation: the
    /// prefix that is the path to this site, which goal-directed discovery
    /// conjoins with the overflow goal.
    pub path_before: usize,
}

impl ObservedRun {
    /// The wrapped allocation size, when the run tripped the target error.
    fn tripped(&self) -> Option<u64> {
        match self.error {
            Some(VmError::OverflowIntoAllocation { requested }) => Some(requested),
            _ => None,
        }
    }
}

/// Maximum search depth: how many mutation steps (straight-line
/// concretizations or constraint flips) may separate a candidate from the
/// benign seed input.
pub const MAX_GENERATIONS: usize = 4;

/// Total program executions one search may spend (every candidate is
/// validated by running it, so this is the real cost bound).
pub const MAX_EXECUTIONS: usize = 48;

/// Ranked target sites examined per recorded run.
pub const MAX_SITES_PER_RUN: usize = 4;

/// Path constraints eligible for flipping per recorded run.
pub const MAX_FLIPS_PER_RUN: usize = 16;

/// The solver one discovery search drives.  The search's own limits are
/// [`MAX_GENERATIONS`], [`MAX_EXECUTIONS`], [`MAX_SITES_PER_RUN`] and
/// [`MAX_FLIPS_PER_RUN`].
#[derive(Debug, Clone, Copy)]
pub struct DiscoverConfig {
    /// The satisfiability queries' solver.  Its sampler's seed fixes the
    /// search: the same seed and benign input reproduce the same discovered
    /// error input.  A [`Solver::starved`] solver makes every query come
    /// back `Unknown`, so the search degrades to "no target reachable"
    /// instead of hanging or panicking.
    pub solver: Solver,
}

impl Default for DiscoverConfig {
    fn default() -> Self {
        DiscoverConfig {
            // Discovery has always sampled harder than translation (256
            // environments vs 64): model hunting is its cheapest stage.
            solver: Solver {
                sampler: SampleSolver {
                    samples: 256,
                    seed: 0xD10DE,
                },
                ..Solver::default()
            },
        }
    }
}

impl DiscoverConfig {
    /// The default config with an explicit sampling seed.
    pub fn with_seed(seed: u64) -> Self {
        let mut config = Self::default();
        config.solver.sampler.seed = seed;
        config
    }
}

/// A successful discovery: an input whose re-execution tripped the overflow
/// detector at an allocation site.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The generated error input.
    pub input: Vec<u8>,
    /// The wrapped size the allocator was asked for when the detector fired.
    pub requested: u64,
    /// Search depth of the found input: mutation steps — straight-line goal
    /// concretizations or constraint flips — between the benign seed and it
    /// (a straight-line find from the seed reports 1).
    pub generations: usize,
    /// Program executions spent (including the final validating run).
    pub executions: usize,
    /// Satisfiability queries issued.
    pub solver_queries: usize,
}

/// Search statistics for a run that found no target.
#[derive(Debug, Clone, Default)]
pub struct DiscoverReport {
    /// Program executions spent.
    pub executions: usize,
    /// Ranked target sites whose goals were solved.
    pub sites_examined: usize,
    /// Satisfiability queries issued.
    pub solver_queries: usize,
    /// Whether the search stopped on a budget rather than exhausting its
    /// frontier (`false` means every reachable candidate was refuted — the
    /// clean "no target reachable" verdict).
    pub budget_exhausted: bool,
}

/// The outcome of a discovery search.
#[derive(Debug, Clone)]
pub enum DiscoverOutcome {
    /// An error input was generated and validated by re-execution.
    Found(Discovery),
    /// No input reaching the overflow was found within the budgets.
    NoTargetReachable(DiscoverReport),
}

impl DiscoverOutcome {
    /// The discovery, if one was found.
    pub fn found(&self) -> Option<&Discovery> {
        match self {
            DiscoverOutcome::Found(d) => Some(d),
            DiscoverOutcome::NoTargetReachable(_) => None,
        }
    }
}

/// Overlays a sparse byte model onto `input`, growing it with zeros when the
/// model constrains offsets past the end.
fn concretize(input: &[u8], model: &[(usize, u8)]) -> Vec<u8> {
    let needed = model
        .iter()
        .map(|(o, _)| o + 1)
        .max()
        .unwrap_or(0)
        .max(input.len());
    let mut out = vec![0u8; needed];
    out[..input.len()].copy_from_slice(input);
    for &(offset, byte) in model {
        out[offset] = byte;
    }
    out
}

/// Goal-directed generational search for an overflow-triggering input.
///
/// Starting from `benign`, each frontier input is executed via `run`; its
/// trace's ranked [`target_sites`] get an overflow goal conjoined with the
/// path constraints to the site, solved for an input-byte model, and every
/// model is validated by re-execution.  When the straight-line goals are
/// unsatisfiable the search flips one path constraint at a time to reach new
/// paths (bounded by [`MAX_GENERATIONS`]); candidates that diverge instead
/// of overflowing seed the next generation too.
///
/// Deterministic: frontier order, site ranking, flip order and the solver's
/// seeded sampling stream are all fixed, so the same benign input and seed
/// produce the same discovered input.
pub fn discover(
    benign: &[u8],
    config: &DiscoverConfig,
    mut run: impl FnMut(&[u8]) -> ObservedRun,
) -> DiscoverOutcome {
    let solver = config.solver;
    let mut report = DiscoverReport::default();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    // Frontier entries carry the run that produced them when one already
    // happened (divergent straight-line candidates), so no input is ever
    // executed — or charged against the budget — twice.
    let mut frontier: VecDeque<(Vec<u8>, usize, Option<ObservedRun>)> = VecDeque::new();

    seen.insert(benign.to_vec());
    frontier.push_back((benign.to_vec(), 0, None));

    // Executes one candidate, accounting for the budget; `None` once spent.
    macro_rules! execute {
        ($input:expr) => {{
            if report.executions >= MAX_EXECUTIONS {
                report.budget_exhausted = true;
                None
            } else {
                report.executions += 1;
                Some(run($input))
            }
        }};
    }

    // Frontier order is breadth-first, so generations are non-decreasing;
    // each flip to a deeper generation is an interesting discontinuity.
    let mut traced_generation = None;
    while let Some((input, generation, cached)) = frontier.pop_front() {
        if traced_generation != Some(generation) {
            traced_generation = Some(generation);
            cp_obs::event!(DiscoveryGeneration {
                generation: generation as u64
            });
        }
        let observed = match cached {
            Some(observed) => observed,
            None => {
                let Some(observed) = execute!(&input) else {
                    break;
                };
                observed
            }
        };
        if let Some(requested) = observed.tripped() {
            return DiscoverOutcome::Found(Discovery {
                input,
                requested,
                generations: generation,
                executions: report.executions,
                solver_queries: report.solver_queries,
            });
        }

        let constraints = &observed.path;
        // One incremental context per run: every query below shares one
        // AIG/CNF/CDCL, so path cones blast once and learning carries over.
        // Sessions do not outlive the run — the next run records fresh
        // expressions, and sessions are scoped to one arena epoch.
        let mut session = SatSession::new(solver);

        // Straight-line goals: overflow at a ranked site along this path.
        for site in target_sites(&observed.allocs)
            .into_iter()
            .take(MAX_SITES_PER_RUN)
        {
            let size_expr = site.alloc.size_expr.as_ref().expect("site is tainted");
            let Some(goal) = overflow_goal(size_expr) else {
                continue; // no wrapping-capable arithmetic in the size
            };
            report.sites_examined += 1;
            let path = &constraints[..site.alloc.path_before.min(constraints.len())];
            // Site paths are prefixes of one branch list but sites rank by
            // arithmetic, not path length — so the path conjuncts ride in as
            // assumptions rather than permanent clauses.
            let conjuncts: Vec<ExprRef> = path.iter().map(|c| c.holds()).chain([goal]).collect();
            let cond = conjoin(conjuncts.iter().cloned()).expect("at least the goal");
            report.solver_queries += 1;
            let Satisfiability::Sat { model } = session.solve(&cond, &conjuncts) else {
                continue;
            };
            let candidate = concretize(&input, &model);
            if !seen.insert(candidate.clone()) {
                continue;
            }
            let Some(reran) = execute!(&candidate) else {
                return DiscoverOutcome::NoTargetReachable(report);
            };
            if let Some(requested) = reran.tripped() {
                return DiscoverOutcome::Found(Discovery {
                    input: candidate,
                    requested,
                    generations: generation + 1,
                    executions: report.executions,
                    solver_queries: report.solver_queries,
                });
            }
            // The model followed a different path than predicted (an
            // earlier branch reads the mutated bytes); let the divergent
            // input seed its own generation, reusing the run just paid for.
            if generation + 1 < MAX_GENERATIONS {
                frontier.push_back((candidate, generation + 1, Some(reran)));
            }
        }

        // Generational expansion: flip one unsatisfied path constraint at a
        // time to reach paths the benign input never took.
        if generation + 1 >= MAX_GENERATIONS {
            continue;
        }
        for (i, constraint) in constraints.iter().enumerate().take(MAX_FLIPS_PER_RUN) {
            // Flip i shares the prefix `c_0 ∧ … ∧ c_{i-1}` with every later
            // flip: assert the newly-stable constraint permanently so only
            // the flipped direction rides in as an assumption.
            if i > 0 {
                session.assert_holds(&constraints[i - 1].holds());
            }
            let negated = constraint.negated();
            let prefix = constraints[..i].iter().map(|c| c.holds());
            let cond = conjoin(prefix.chain([negated])).expect("flip condition");
            report.solver_queries += 1;
            let Satisfiability::Sat { model } = session.solve(&cond, &[negated]) else {
                continue;
            };
            let candidate = concretize(&input, &model);
            if seen.insert(candidate.clone()) {
                frontier.push_back((candidate, generation + 1, None));
            }
        }
    }
    DiscoverOutcome::NoTargetReachable(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::{eval::eval, Width};

    fn byte32(offset: usize) -> ExprRef {
        SymExpr::input_byte(offset).zext(Width::W32)
    }

    fn be16_32(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W32)
            .binop(BinOp::Shl, SymExpr::constant(Width::W32, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W32))
    }

    fn alloc(size_expr: Option<ExprRef>) -> ObservedAlloc {
        ObservedAlloc {
            size_expr,
            path_before: 0,
        }
    }

    #[test]
    fn classifies_the_overflow_error() {
        assert!(is_target_error(&VmError::OverflowIntoAllocation {
            requested: 8
        }));
        assert!(!is_target_error(&VmError::DivideByZero {
            function: 0,
            pc: 0
        }));
        assert!(!is_target_error(&VmError::AllocationTooLarge {
            requested: 1 << 40
        }));
    }

    #[test]
    fn ranks_tainted_sites_by_arithmetic_depth() {
        let byte = SymExpr::input_byte(0).zext(Width::W64);
        let shallow = alloc(Some(byte));
        let deep = alloc(Some(
            byte.binop(BinOp::Mul, SymExpr::constant(Width::W64, 4))
                .binop(BinOp::Add, SymExpr::constant(Width::W64, 16)),
        ));
        let constant = alloc(None);
        let allocs = [shallow, deep, constant];
        let sites = target_sites(&allocs);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].index, 1);
        assert_eq!(sites[0].support, vec![0]);
        assert!(sites[0].ops > sites[1].ops);
    }

    #[test]
    fn equal_op_counts_rank_in_allocation_order() {
        // Two sites with identical structure (hence identical op counts)
        // must rank by allocation index — the total order the fig8 report
        // and discovery determinism rely on.
        let a = alloc(Some(byte32(0).binop(BinOp::Mul, byte32(1))));
        let b = alloc(Some(byte32(2).binop(BinOp::Mul, byte32(3))));
        let allocs = [a, b];
        let sites = target_sites(&allocs);
        assert_eq!(sites[0].ops, sites[1].ops);
        assert_eq!(sites[0].index, 0);
        assert_eq!(sites[1].index, 1);
        // And the reversed list ranks the other way round.
        let reversed = [allocs[1].clone(), allocs[0].clone()];
        let sites = target_sites(&reversed);
        assert_eq!(
            sites[0].alloc.size_expr.unwrap().support().iter().min(),
            Some(2)
        );
    }

    #[test]
    fn path_constraints_assert_the_observed_direction() {
        let cond = byte32(0).binop(BinOp::LtU, SymExpr::constant(Width::W32, 10));
        // taken = condition was zero.
        let taken = PathConstraint {
            expr: cond,
            taken: true,
        };
        assert_ne!(eval(&taken.holds(), &[200u8][..]), 0);
        assert_eq!(eval(&taken.holds(), &[3u8][..]), 0);
        let not_taken = PathConstraint {
            expr: cond,
            taken: false,
        };
        assert_ne!(eval(&not_taken.holds(), &[3u8][..]), 0);
        assert_eq!(eval(&not_taken.negated(), &[3u8][..]), 0);
        assert_ne!(eval(&not_taken.negated(), &[200u8][..]), 0);
    }

    #[test]
    fn concretize_overlays_and_grows() {
        assert_eq!(concretize(&[1, 2, 3], &[(1, 9)]), vec![1, 9, 3]);
        assert_eq!(concretize(&[1], &[(3, 7)]), vec![1, 0, 0, 7]);
        assert_eq!(concretize(&[], &[]), Vec::<u8>::new());
    }

    /// A closed-form "program" for the search: byte 0 selects a mode; mode 0
    /// allocates a constant, any other mode allocates
    /// `(count16 * stride16) * 8` at 32 bits (which wraps for large
    /// headers).  Faithful to the VM contract: the error fires *instead of*
    /// the allocation being recorded.
    fn simulated(input: &[u8]) -> ObservedRun {
        let mode = byte32(0);
        let mode_is_zero = mode.binop(BinOp::Eq, SymExpr::constant(Width::W32, 0));
        // JumpIfZero: jumps (taken) when the condition is zero, i.e. when
        // mode != 0 the `if (mode == 0)` body is skipped.
        let taken = eval(&mode_is_zero, input) == 0;
        let branch = PathConstraint {
            expr: mode_is_zero,
            taken,
        };
        if !taken {
            // Constant-size path: nothing to target.
            return ObservedRun {
                path: vec![branch],
                allocs: vec![ObservedAlloc {
                    size_expr: None,
                    path_before: 1,
                }],
                error: None,
            };
        }
        let size_expr = be16_32(1, 2)
            .binop(BinOp::Mul, be16_32(3, 4))
            .binop(BinOp::Mul, SymExpr::constant(Width::W32, 8));
        let count = u64::from(input.get(1).copied().unwrap_or(0)) << 8
            | u64::from(input.get(2).copied().unwrap_or(0));
        let stride = u64::from(input.get(3).copied().unwrap_or(0)) << 8
            | u64::from(input.get(4).copied().unwrap_or(0));
        let exact = count * stride * 8;
        let wrapped = exact & 0xFFFF_FFFF;
        if exact > 0xFFFF_FFFF {
            return ObservedRun {
                path: vec![branch],
                allocs: Vec::new(),
                error: Some(VmError::OverflowIntoAllocation { requested: wrapped }),
            };
        }
        ObservedRun {
            path: vec![branch],
            allocs: vec![ObservedAlloc {
                size_expr: Some(size_expr),
                path_before: 1,
            }],
            error: None,
        }
    }

    #[test]
    fn discovers_an_overflow_behind_a_mode_branch() {
        // The benign input takes the constant-size path: the search must
        // flip the mode branch, re-record, then solve the overflow goal.
        let benign = [0u8, 0, 16, 0, 2];
        let config = DiscoverConfig::default();
        let mut executions = 0usize;
        let outcome = discover(&benign, &config, |input| {
            executions += 1;
            simulated(input)
        });
        let found = outcome.found().expect("overflow must be discovered");
        assert!(found.generations >= 1, "the mode flip is one generation");
        assert_eq!(found.executions, executions);
        let reran = simulated(&found.input);
        assert!(matches!(
            reran.error,
            Some(VmError::OverflowIntoAllocation { .. })
        ));
    }

    #[test]
    fn discovery_is_deterministic_per_seed() {
        let benign = [0u8, 0, 16, 0, 2];
        let config = DiscoverConfig::with_seed(7);
        let one = discover(&benign, &config, simulated);
        let two = discover(&benign, &config, simulated);
        assert_eq!(
            one.found().expect("found").input,
            two.found().expect("found").input
        );
    }

    #[test]
    fn unreachable_goal_reports_cleanly_within_budget() {
        // A single constant-size allocation: no tainted site, nothing to
        // flip toward one.
        let benign = [5u8];
        let config = DiscoverConfig::default();
        let outcome = discover(&benign, &config, |_input| ObservedRun {
            path: Vec::new(),
            allocs: vec![alloc(None)],
            error: None,
        });
        match outcome {
            DiscoverOutcome::NoTargetReachable(report) => {
                assert!(report.executions <= MAX_EXECUTIONS);
                assert!(!report.budget_exhausted);
                assert_eq!(report.sites_examined, 0);
            }
            DiscoverOutcome::Found(d) => panic!("nothing to find: {d:?}"),
        }
    }
}
