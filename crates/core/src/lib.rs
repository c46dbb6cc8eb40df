//! # cp-core
//!
//! The public pipeline façade of the Code Phage reproduction.
//!
//! Every stage of the system — candidate-check discovery, excision, patch
//! insertion, DIODE-style overflow targeting — consumes the same primitive:
//! *observe one execution of one program on one input and query what
//! happened*.  This crate packages that primitive behind two types:
//!
//! * [`Session`] — a builder-configured pipeline run: Phage-C source (or an
//!   already-compiled program), input bytes and resource limits.  No caller
//!   ever wires `frontend → compile → run` by hand.
//! * [`Trace`] — the owned record a session produces: branch events with
//!   their symbolic conditions, statement boundaries, allocations, tainted
//!   variable values, outputs and the termination.  Query helpers filter
//!   branches by input support ([`Trace::branches_influenced_by`]), surface
//!   the detected error ([`Trace::last_error`]) and extract simplified
//!   application-independent candidate checks ([`Trace::checks`]).
//!
//! A session records with one observer, which keeps every symbolic value it
//! is shown — branch conditions, allocation sizes and the in-scope variables
//! it loads at statement boundaries — as an entry of the run's tape.  The
//! trace owns the tape, so an expression is interned only when a query reads
//! it.
//!
//! ```
//! use cp_core::Session;
//!
//! let trace = Session::builder()
//!     .source(
//!         r#"
//!         fn main() -> u32 {
//!             var width: u16 = ((input_byte(0) as u16) << 8) | (input_byte(1) as u16);
//!             if (width > 16384) { exit(1); }
//!             return width as u32;
//!         }
//!         "#,
//!     )
//!     .input(&[0x12, 0x34])
//!     .record()?;
//! assert!(trace.last_error().is_none());
//! assert_eq!(trace.checks().len(), 1);
//! # Ok::<(), cp_core::PipelineError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod budget;
pub mod error;
pub mod faults;
mod record;

use cp_bytecode::{compile, CompileError, CompiledProgram};
use cp_formats::FormatDescriptor;
use cp_lang::{frontend, AnalyzedProgram, LangError};
use cp_patch::Observation;
use cp_solver::translate::Translator;
use cp_solver::Solver;
use cp_symexpr::{rewrite, ExprRef, Tape, TapeRef};
use cp_vm::{run_with_observer, RunConfig, StmtEndEvent, Termination, VmError};
use record::{Capture, Recorder};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

pub use budget::{BudgetExhausted, Budgets, Stage};
pub use cp_diode::{
    DiscoverConfig, DiscoverOutcome, DiscoverReport, Discovery, PathConstraint, TargetSite,
};
pub use cp_patch::{
    FailedAttempt, InsertionSite, TransferError, TransferOutcome, TransferSpec, ValidationReport,
    VarValueRecord, Verdict,
};
pub use cp_solver::translate::{
    Candidate as TranslationCandidate, TranslateError as CheckTranslateError,
    Translation as CheckTranslation,
};
pub use cp_solver::SolverBudgets;
pub use cp_symexpr::{ArenaEpoch, ExprArena};
pub use cp_vm::RunConfig as VmRunConfig;
pub use error::StageError;
pub use record::{AllocRecord, BranchRecord};

/// Errors produced while building a session's program.
///
/// Runtime faults are *not* pipeline errors: a run that traps on
/// divide-by-zero still produces a [`Trace`] (whose
/// [`last_error`](Trace::last_error) reports the fault) because observing
/// erroneous executions is precisely what the donor analysis is for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The Phage-C front end rejected the source.
    Lang(LangError),
    /// The bytecode compiler rejected the analyzed program.
    Compile(CompileError),
    /// The builder was not given a program to run.
    MissingProgram,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Lang(e) => write!(f, "front end: {e}"),
            PipelineError::Compile(e) => write!(f, "{e}"),
            PipelineError::MissingProgram => {
                write!(f, "session has neither source nor a compiled program")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LangError> for PipelineError {
    fn from(e: LangError) -> Self {
        PipelineError::Lang(e)
    }
}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

/// A candidate check extracted from a recorded branch: the paper's
/// application-independent representation of a validation the program
/// performed on its input.
///
/// The simplified condition is materialised lazily: extracting the check
/// list from a long trace costs nothing until a consumer actually asks for a
/// [`condition`](Check::condition), and the result is cached on the check
/// (and memoised per node in the thread's arena) thereafter.
#[derive(Debug, Clone)]
pub struct Check {
    /// Function index of the branch site.
    pub function: usize,
    /// Instruction index of the branch site.
    pub pc: usize,
    /// Direction observed at the site (condition zero → branch taken).
    pub taken: bool,
    /// The symbolic condition exactly as recorded.
    pub raw: ExprRef,
    /// Lazily simplified condition (see [`condition`](Check::condition)).
    simplified: OnceLock<ExprRef>,
}

impl Check {
    /// The condition after `cp_symexpr::rewrite` simplification — the form
    /// whose size the paper reports in Figure 8.
    ///
    /// Simplified on first call, cached afterwards; handles are `Copy`.
    pub fn condition(&self) -> ExprRef {
        *self.simplified.get_or_init(|| rewrite::simplify(&self.raw))
    }

    /// Operation count of the recorded condition (Figure 8 "before") —
    /// served from the arena's memoised node metadata.
    pub fn raw_ops(&self) -> usize {
        self.raw.op_count()
    }

    /// Operation count of the simplified condition (Figure 8 "after").
    pub fn simplified_ops(&self) -> usize {
        self.condition().op_count()
    }

    /// The input byte offsets the check constrains.
    pub fn support(&self) -> Vec<usize> {
        self.condition().support().iter().collect()
    }
}

/// The owned record of one instrumented execution.
///
/// Branch and allocation records, and the captured variable values, hold
/// entries of the run's tape, which the trace owns.  A query that reads one
/// — [`resolve`](Trace::resolve), [`var_values`](Trace::var_values) and
/// every helper built on them — interns it on first read and memoises it
/// per entry, so it is the node that interning each operation as the
/// program ran would have built in this arena epoch, and a trace that
/// nobody queries interns nothing.
#[derive(Debug)]
pub struct Trace {
    /// Conditional branches in execution order, with the tape entries of
    /// their symbolic conditions.
    pub branches: Vec<BranchRecord>,
    /// Statement boundaries (candidate insertion points) in execution order.
    pub stmt_ends: Vec<StmtEndEvent>,
    /// Heap allocations in execution order.
    pub allocs: Vec<AllocRecord>,
    /// Values the program passed to `output`.
    pub outputs: Vec<u64>,
    /// How the run ended.
    pub termination: Termination,
    /// Instructions executed.
    pub steps: u64,
    /// The run's tape, which the records and captures index.
    tape: Tape,
    /// In-scope variable values as captured, unresolved.
    captures: Vec<Capture>,
    /// Lazily resolved variable values (see [`Trace::var_values`]).
    var_values: OnceLock<Vec<VarValueRecord>>,
    /// Lazily built candidate-check list (see [`Trace::checks`]).
    checks: OnceLock<Vec<Check>>,
}

impl Trace {
    /// The node of one of this run's tape entries, interned on first read.
    pub fn resolve(&self, entry: TapeRef) -> ExprRef {
        self.tape.resolve(entry)
    }

    /// Number of entries the run recorded on its tape.
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// Branches whose symbolic condition depends on at least one of the given
    /// input byte offsets — the paper's filter for branches relevant to the
    /// bytes that trigger an error.  Resolves every tainted condition.
    pub fn branches_influenced_by(&self, offsets: &[usize]) -> Vec<&BranchRecord> {
        self.branches
            .iter()
            .filter(|b| {
                b.expr
                    .is_some_and(|e| self.resolve(e).support().contains_any(offsets))
            })
            .collect()
    }

    /// Branches whose condition depends on any input byte.
    pub fn tainted_branches(&self) -> Vec<&BranchRecord> {
        self.branches.iter().filter(|b| b.is_tainted()).collect()
    }

    /// The error the run trapped on, if any.
    pub fn last_error(&self) -> Option<&VmError> {
        self.termination.error()
    }

    /// Candidate checks: one per distinct branch site whose condition the
    /// input influenced, in first-execution order.
    ///
    /// A site executed many times (e.g. a loop bound) contributes the record
    /// of its first execution; later iterations observe the same check with
    /// different loop-carried constants.
    ///
    /// The list is built on first call and cached, resolving each site's
    /// first condition only; each check's simplified application-independent
    /// condition is further deferred until [`Check::condition`] is asked
    /// for, so scanning a long trace for check *sites* never pays for
    /// simplification.
    pub fn checks(&self) -> &[Check] {
        self.checks.get_or_init(|| {
            let mut seen = HashSet::new();
            let mut checks = Vec::new();
            for branch in &self.branches {
                let Some(entry) = branch.expr else { continue };
                if !seen.insert((branch.function, branch.pc)) {
                    continue;
                }
                checks.push(Check {
                    function: branch.function,
                    pc: branch.pc,
                    taken: branch.taken,
                    raw: self.resolve(entry),
                    simplified: OnceLock::new(),
                });
            }
            checks
        })
    }

    /// The executed path as solver constraints: every tainted branch's
    /// condition asserted in its observed direction, in execution order.
    ///
    /// Untainted branches are input-independent and constrain nothing, so
    /// they do not appear.  Together with
    /// [`path_to_alloc`](Trace::path_to_alloc) this is the material
    /// goal-directed discovery conjoins with an overflow goal.
    pub fn path_constraints(&self) -> Vec<PathConstraint> {
        self.constraints(&self.branches)
    }

    /// The path constraints accumulated before the `alloc_index`-th recorded
    /// allocation — the branch decisions a generated input must reproduce to
    /// reach that site.
    pub fn path_to_alloc(&self, alloc_index: usize) -> Vec<PathConstraint> {
        let upto = self
            .allocs
            .get(alloc_index)
            .map(|a| a.branches_before.min(self.branches.len()))
            .unwrap_or(0);
        self.constraints(&self.branches[..upto])
    }

    /// The tainted ones of `branches` as path constraints.
    fn constraints(&self, branches: &[BranchRecord]) -> Vec<PathConstraint> {
        branches
            .iter()
            .filter_map(|b| {
                b.expr.map(|entry| PathConstraint {
                    expr: self.resolve(entry),
                    taken: b.taken,
                })
            })
            .collect()
    }

    /// What goal-directed discovery reads of this run, resolved: its path
    /// constraints, and each allocation's size with the number of
    /// constraints before it.
    fn observed_run(&self) -> cp_diode::ObservedRun {
        // Allocations come in execution order, so each one's branch prefix
        // extends the previous one's.
        let (mut counted, mut tainted) = (0, 0);
        let allocs = self
            .allocs
            .iter()
            .map(|alloc| {
                let upto = alloc.branches_before.min(self.branches.len());
                let new = &self.branches[counted.min(upto)..upto];
                tainted += new.iter().filter(|b| b.is_tainted()).count();
                counted = upto;
                cp_diode::ObservedAlloc {
                    size_expr: alloc.size_expr.map(|e| self.resolve(e)),
                    path_before: tainted,
                }
            })
            .collect();
        cp_diode::ObservedRun {
            path: self.path_constraints(),
            allocs,
            error: self.last_error().cloned(),
        }
    }

    /// Tainted scalar-variable values observed at statement boundaries, in
    /// observation order (empty for stripped programs, which carry no debug
    /// information).
    ///
    /// Resolved on first call and cached.  A value is kept unless the same
    /// variable of the same function was observed holding that node before,
    /// so distinct values of one variable (loop-carried updates) are all
    /// kept and re-observations are not.
    pub fn var_values(&self) -> &[VarValueRecord] {
        self.var_values.get_or_init(|| {
            let mut seen = HashSet::new();
            (self.captures.iter())
                .filter_map(|capture| {
                    let expr = self.resolve(capture.entry);
                    let new = seen.insert((capture.function, capture.frame_offset, expr));
                    new.then(|| VarValueRecord {
                        function: capture.function,
                        invocation: capture.invocation,
                        stmt: capture.stmt,
                        name: capture.name.clone(),
                        width: capture.width,
                        expr,
                    })
                })
                .collect()
        })
    }

    /// The slices of this trace the patch insertion planner consumes:
    /// statement boundaries (whose visit counts rank the sites) and recorded
    /// variable values.
    pub fn observation(&self) -> Observation<'_> {
        Observation {
            stmt_ends: &self.stmt_ends,
            var_values: self.var_values(),
        }
    }
}

/// Builder for a [`Session`].
///
/// Obtained from [`Session::builder`]; finish with [`build`](Self::build) to
/// keep a reusable session, or [`record`](Self::record) to compile and run in
/// one step.
#[derive(Default)]
pub struct SessionBuilder {
    source: Option<String>,
    program: Option<CompiledProgram>,
    input: Vec<u8>,
    budgets: Option<Budgets>,
    strip: bool,
}

impl SessionBuilder {
    /// Sets the Phage-C source to compile and run.
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Runs an already-compiled program instead of source text.
    pub fn program(mut self, program: CompiledProgram) -> Self {
        self.program = Some(program);
        self
    }

    /// Sets the input bytes the program reads through `input_byte`.
    pub fn input(mut self, input: impl AsRef<[u8]>) -> Self {
        self.input = input.as_ref().to_vec();
        self
    }

    /// Installs the session's per-stage resource budgets (see
    /// [`budget::Budgets`]; the default caps a recording at one million
    /// executed instructions).
    ///
    /// The VM step ceiling caps every recording; the solver, discovery,
    /// validation and wall-clock ceilings propagate into
    /// [`Session::discover`] and [`Session::transfer`], and the deadline is
    /// armed when the session is built.
    pub fn budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = Some(budgets);
        self
    }

    /// Strips symbols, statement maps and debug information before running —
    /// the paper's "proprietary donor" scenario.
    pub fn stripped(mut self) -> Self {
        self.strip = true;
        self
    }

    /// Compiles the configured program and returns a reusable [`Session`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if no program was configured or the front
    /// end / compiler rejects the source.
    pub fn build(self) -> Result<Session, PipelineError> {
        let (program, analyzed) = match (self.program, self.source) {
            (Some(program), _) => (program, None),
            (None, Some(source)) => {
                let analyzed = frontend(&source)?;
                let program = compile(&analyzed)?;
                (program, Some(analyzed))
            }
            (None, None) => return Err(PipelineError::MissingProgram),
        };
        let (program, analyzed) = if self.strip {
            // A stripped program has no source-level identity left to patch.
            (program.strip(), None)
        } else {
            (program, analyzed)
        };
        let budgets = self.budgets.unwrap_or_default();
        Ok(Session {
            program,
            analyzed,
            input: self.input,
            config: RunConfig {
                max_steps: budgets.vm_steps,
                ..RunConfig::default()
            },
            budgets,
            deadline: budget::Deadline::starting_now(budgets.deadline),
        })
    }

    /// Compiles and records in one step.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if the program cannot be built; runtime
    /// faults are reported inside the returned [`Trace`], not as errors.
    pub fn record(self) -> Result<Trace, PipelineError> {
        Ok(self.build()?.record())
    }
}

/// A configured pipeline run: one compiled program, one input, one set of
/// limits.
///
/// Sessions are reusable — [`record`](Session::record) can be called many
/// times (e.g. once per input in a corpus via
/// [`record_with_input`](Session::record_with_input)).
pub struct Session {
    program: CompiledProgram,
    analyzed: Option<AnalyzedProgram>,
    input: Vec<u8>,
    config: RunConfig,
    budgets: Budgets,
    deadline: budget::Deadline,
}

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The compiled program the session runs.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The analyzed source program, when the session was built from source
    /// (and not stripped) — the AST a patch applies to.
    pub fn analyzed(&self) -> Option<&AnalyzedProgram> {
        self.analyzed.as_ref()
    }

    /// The per-stage budgets the session honours.
    pub fn budgets(&self) -> &Budgets {
        &self.budgets
    }

    /// Errors if the session's wall-clock deadline has passed, attributing
    /// the exhaustion to `stage`.
    ///
    /// The deadline is checked at stage boundaries (here and inside
    /// [`record_guarded`](Self::record_guarded)), never per instruction, so
    /// the budget layer costs nothing on the execution hot path.
    pub fn check_deadline(&self, stage: Stage) -> Result<(), BudgetExhausted> {
        self.deadline.check(stage)
    }

    /// Runs the full transfer pipeline: offers the donor's `checks` to this
    /// recipient in execution order and returns the first validated patch
    /// (paper Sections 3.3–3.5; see [`cp_patch::transfer`]).  `trace` must
    /// be this session's recording on the spec's error input, so every
    /// candidate site dominates the error; `format` folds each check into
    /// named fields as it is offered.  The session's budgets apply
    /// ([`configure_spec`](Self::configure_spec)), its compiled program is the
    /// unpatched baseline, and the outcome's
    /// [`check`](TransferOutcome::check) indexes `checks`.
    ///
    /// # Errors
    ///
    /// Returns a [`TransferError`] if the session was not built from source
    /// or no check yields a validated patch.
    pub fn transfer(
        &self,
        trace: &Trace,
        checks: &[Check],
        format: &FormatDescriptor,
        spec: TransferSpec<'_>,
    ) -> Result<TransferOutcome, TransferError> {
        let Some(analyzed) = &self.analyzed else {
            return Err(TransferError::MissingSource);
        };
        let folded = checks.iter().map(|check| format.fold(&check.condition()));
        let spec = self.configure_spec(spec);
        cp_patch::transfer(analyzed, &self.program, folded, &trace.observation(), &spec)
    }

    /// Applies the session's budgets (and any armed chaos faults) to a
    /// transfer spec: the solver bundle configures the translation decision
    /// procedure and the recompile ceiling caps validation spend.
    /// [`transfer`](Self::transfer) does this itself.
    pub fn configure_spec<'a>(&self, mut spec: TransferSpec<'a>) -> TransferSpec<'a> {
        let mut solver_budgets = self.budgets.solver;
        if faults::fires(faults::FaultPoint::SolverBudget) {
            solver_budgets = SolverBudgets::starved();
        }
        spec.translator = Translator {
            solver: Solver::with_budgets(solver_budgets),
        };
        spec.max_recompiles = spec.max_recompiles.min(self.budgets.validation_recompiles);
        if faults::fires(faults::FaultPoint::ValidationRecompile) {
            // The first candidate validation trips the budget.
            spec.max_recompiles = 0;
        }
        spec
    }

    /// Goal-directed error discovery (the paper's DIODE companion tool):
    /// starting from `benign`, generates an input that trips the VM's
    /// overflow-into-allocation detector.
    ///
    /// Each frontier input is recorded through the full instrumented
    /// pipeline; the trace's input-tainted allocation sites are ranked
    /// most-arithmetic-first, each site's symbolic overflow goal is
    /// conjoined with the path constraints to the site and handed to the
    /// `cp-solver` satisfiability engine — one incremental session per
    /// frontier run, so related queries share bit-blasted cones and learned
    /// clauses — and every extracted model is validated by re-execution — [`DiscoverOutcome::Found`] only ever
    /// carries an input whose run actually ended in
    /// `VmError::OverflowIntoAllocation`.  When a straight-line goal is
    /// unsatisfiable the search flips one path constraint at a time (a
    /// bounded generational search; see [`cp_diode::discover`]).
    pub fn discover(&mut self, benign: &[u8], config: &DiscoverConfig) -> DiscoverOutcome {
        let _span = cp_obs::span!("discover");
        let mut config = *config;
        config.max_executions = config.max_executions.min(self.budgets.discovery_executions);
        // The session's gate/conflict/exhaustive ceilings apply; the sample
        // count stays the discovery config's own (it is tied to the config's
        // seed stream, not to translation's).
        config.solver_budgets = SolverBudgets {
            samples: config.solver_budgets.samples,
            ..self.budgets.solver
        };
        if faults::fires(faults::FaultPoint::SolverBudget) {
            config.solver_budgets = SolverBudgets::starved();
        }
        cp_diode::discover(benign, &config, |input| {
            self.record_with_input(input).observed_run()
        })
    }

    /// Records one instrumented execution on the configured input.
    pub fn record(&mut self) -> Trace {
        let input = std::mem::take(&mut self.input);
        let trace = self.record_with_input(&input);
        self.input = input;
        trace
    }

    /// Records one instrumented execution, converting resource exhaustion
    /// into the typed [`BudgetExhausted`] outcome.
    ///
    /// Unlike [`record_with_input`](Self::record_with_input) — which treats
    /// every termination as material (crash traces *are* the donor
    /// analysis) — this entry point distinguishes the program's own faults
    /// from the session running out of resources: a step-limit trip, an
    /// expired wall-clock deadline, or an expression arena past its
    /// configured node ceiling (counting the recording's tape entries as
    /// well as interned nodes) all return `Err(BudgetExhausted { stage:
    /// Vm, .. })` with the ceiling that was hit.  Application errors
    /// (overflow, out-of-bounds, divide-by-zero…) still come back as
    /// `Ok(trace)`.
    pub fn record_guarded(&mut self, input: &[u8]) -> Result<Trace, BudgetExhausted> {
        self.deadline.check(Stage::Vm)?;
        let configured = self.config.max_steps;
        if faults::fires(faults::FaultPoint::VmStepLimit) {
            self.config.max_steps = configured.min(faults::VM_STEP_CLAMP);
        }
        let limit = self.config.max_steps;
        let trace = self.record_with_input(input);
        self.config.max_steps = configured;
        if trace.last_error() == Some(&VmError::StepLimitExceeded) {
            return Err(BudgetExhausted {
                stage: Stage::Vm,
                limit,
            }
            .noted());
        }
        let arena_cap = if faults::fires(faults::FaultPoint::ArenaPressure) {
            Some(0)
        } else {
            self.budgets.arena_nodes
        };
        if let Some(cap) = arena_cap {
            // `node_count` reports the current arena *epoch*, so the ceiling
            // bounds one unit of work, not the process lifetime — a worker
            // thread sweeping scenarios under per-scenario epochs never
            // accumulates toward the cap.  The tape's entries count too: they
            // are the recording's expressions, not yet interned.
            let nodes = (ExprArena::node_count() + trace.tape_len()) as u64;
            if nodes > cap {
                return Err(BudgetExhausted {
                    stage: Stage::Vm,
                    limit: cap,
                }
                .noted());
            }
        }
        Ok(trace)
    }

    /// Records one instrumented execution on an explicit input, leaving the
    /// configured input untouched.
    pub fn record_with_input(&mut self, input: &[u8]) -> Trace {
        let _span = cp_obs::span!("record");
        let mut recorder = Recorder::new(&self.program);
        let (result, tape) = run_with_observer(&self.program, input, &self.config, &mut recorder);
        // Feed the always-on registry: total instructions executed and the
        // arena high-water mark.  Handles are cached so each recording pays
        // two relaxed atomic ops, not a registry lookup.
        static VM_STEPS: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
        static ARENA_PEAK: OnceLock<&'static cp_obs::metrics::Gauge> = OnceLock::new();
        VM_STEPS
            .get_or_init(|| cp_obs::metrics::counter("vm.steps"))
            .add(result.steps);
        ARENA_PEAK
            .get_or_init(|| cp_obs::metrics::gauge("arena.peak_nodes"))
            .set_max(ExprArena::node_count() as u64);
        Trace {
            branches: recorder.branches,
            stmt_ends: recorder.stmt_ends,
            allocs: recorder.allocs,
            outputs: result.outputs,
            termination: result.termination,
            steps: result.steps,
            tape,
            captures: recorder.captures,
            var_values: OnceLock::new(),
            checks: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::eval::eval;

    #[test]
    fn builder_without_program_is_an_error() {
        assert_eq!(
            Session::builder().record().unwrap_err(),
            PipelineError::MissingProgram
        );
    }

    #[test]
    fn front_end_errors_surface_as_pipeline_errors() {
        let err = Session::builder()
            .source("fn main( {")
            .record()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Lang(_)));
    }

    #[test]
    fn session_is_reusable_across_inputs() {
        let mut session = Session::builder()
            .source(
                r#"
                fn main() -> u32 {
                    var b: u32 = input_byte(0) as u32;
                    if (b == 0) { exit(1); }
                    return b;
                }
                "#,
            )
            .build()
            .unwrap();
        let bad = session.record_with_input(&[0]);
        let good = session.record_with_input(&[7]);
        assert_eq!(bad.termination, Termination::Exited(1));
        assert_eq!(good.termination, Termination::Returned(7));
    }

    #[test]
    fn stripped_sessions_still_trace_branches() {
        let trace = Session::builder()
            .source(
                r#"
                fn main() -> u32 {
                    var b: u32 = input_byte(0) as u32;
                    if (b < 10) { return 1; }
                    return 0;
                }
                "#,
            )
            .input([3u8])
            .stripped()
            .record()
            .unwrap();
        assert_eq!(trace.tainted_branches().len(), 1);
    }

    #[test]
    fn sessions_move_to_worker_threads() {
        // The worker pool in `cp_corpus::pipeline` builds and runs whole
        // sessions on its own threads; `Session` (and its builder) must
        // therefore be `Send`.
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<SessionBuilder>();
    }

    #[test]
    fn discover_generates_a_validated_overflow_input() {
        let mut session = Session::builder()
            .source(
                r#"
                fn main() -> u32 {
                    var w: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
                    var h: u32 = ((input_byte(2) as u32) << 8) | (input_byte(3) as u32);
                    var size: u32 = (w * h) * 4;
                    var p: u64 = malloc(size as u64);
                    return 0;
                }
                "#,
            )
            .build()
            .unwrap();
        let benign = [0u8, 16, 0, 16];
        let outcome = session.discover(&benign, &DiscoverConfig::default());
        let found = outcome.found().expect("overflow must be discoverable");
        assert_ne!(found.input, benign.to_vec());
        let trace = session.record_with_input(&found.input);
        assert!(matches!(
            trace.last_error(),
            Some(VmError::OverflowIntoAllocation { .. })
        ));
    }

    #[test]
    fn path_accessors_expose_the_branches_before_each_alloc() {
        let mut session = Session::builder()
            .source(
                r#"
                fn main() -> u32 {
                    var early: u64 = malloc(16);
                    var b: u32 = input_byte(0) as u32;
                    if (b < 100) { output(1); }
                    var late: u64 = malloc((b * 2) as u64);
                    return 0;
                }
                "#,
            )
            .build()
            .unwrap();
        let trace = session.record_with_input(&[7]);
        assert_eq!(trace.path_constraints().len(), 1);
        assert!(trace.path_to_alloc(0).is_empty());
        assert_eq!(trace.path_to_alloc(1).len(), 1);
        assert!(trace.path_to_alloc(99).is_empty());
    }

    #[test]
    fn records_tainted_branches_and_statement_boundaries() {
        let trace = Session::builder()
            .source(
                r#"
                fn main() -> u32 {
                    var b: u32 = input_byte(0) as u32;
                    if (b < 10) { return 1; }
                    return 0;
                }
                "#,
            )
            .input([5u8])
            .record()
            .unwrap();
        assert_eq!(trace.branches.len(), 1);
        assert!(trace.branches[0].is_tainted());
        assert_eq!(trace.branches_influenced_by(&[0]).len(), 1);
        assert!(!trace.stmt_ends.is_empty());
    }

    #[test]
    fn records_tainted_allocation_sites() {
        let trace = Session::builder()
            .source(
                r#"
                fn main() -> u32 {
                    var fixed: u64 = malloc(16);
                    var n: u64 = (input_byte(0) as u64) * 4;
                    var sized: u64 = malloc(n);
                    return 0;
                }
                "#,
            )
            .input([3u8])
            .record()
            .unwrap();
        assert_eq!(trace.allocs.len(), 2);
        assert!(!trace.allocs[0].is_tainted());
        assert!(trace.allocs[1].is_tainted());
        assert_eq!(trace.allocs[1].size, 12);
    }

    const SCOPED: &str = r#"
        fn main() -> u32 {
            var w: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
            var untainted: u32 = 7;
            var wider: u64 = w as u64;
            return 0;
        }
    "#;

    #[test]
    fn scope_recorder_captures_tainted_variable_values() {
        let trace = Session::builder()
            .source(SCOPED)
            .input([0x12u8, 0x34])
            .record()
            .unwrap();
        let names: Vec<&str> = trace.var_values().iter().map(|v| v.name.as_str()).collect();
        assert!(names.contains(&"w"), "recorded: {names:?}");
        assert!(names.contains(&"wider"), "recorded: {names:?}");
        assert!(!names.contains(&"untainted"), "recorded: {names:?}");
        let w = trace.var_values().iter().find(|v| v.name == "w").unwrap();
        assert_eq!(w.width, cp_symexpr::Width::W32);
        assert_eq!(eval(&w.expr, &[0x12u8, 0x34][..]), 0x1234);
    }

    #[test]
    fn scope_recorder_is_inert_without_debug_info() {
        let trace = Session::builder()
            .source(SCOPED)
            .input([9u8, 9])
            .stripped()
            .record()
            .unwrap();
        assert!(trace.var_values().is_empty());
    }

    #[test]
    fn recording_interns_nothing_until_variable_values_are_read() {
        let mut session = Session::builder().source(SCOPED).build().unwrap();
        // A thread of its own starts with an empty arena, so the count is
        // this recording's alone.
        std::thread::spawn(move || {
            let _epoch = ArenaEpoch::begin();
            let input = [0x12u8, 0x34];
            let trace = session.record_with_input(&input);
            assert_eq!(ExprArena::node_count(), 0);
            let values: Vec<(&str, u64)> = (trace.observation().var_values.iter())
                .map(|v| (v.name.as_str(), eval(&v.expr, &input[..])))
                .collect();
            assert_eq!(values, [("w", 0x1234), ("wider", 0x1234)]);
            assert!(ExprArena::node_count() > 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn step_limit_is_configurable() {
        let mut session = Session::builder()
            .source("fn main() -> u32 { while (1) { } return 0; }")
            .budgets(Budgets::default().vm_steps(500))
            .build()
            .unwrap();
        assert_eq!(session.budgets().vm_steps, 500);
        let trace = session.record();
        assert_eq!(trace.last_error(), Some(&VmError::StepLimitExceeded));
        assert!(trace.steps <= 501);
    }
}
