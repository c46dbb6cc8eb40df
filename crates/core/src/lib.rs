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
//!   already-compiled program), input bytes, resource limits and optional
//!   extra observers.  No caller ever wires `frontend → compile → run` by
//!   hand.
//! * [`Trace`] — the owned record a session produces: branch events with
//!   their symbolic conditions, statement boundaries, allocations, tainted
//!   variable values, outputs and the termination.  Query helpers filter
//!   branches by input support ([`Trace::branches_influenced_by`]), surface
//!   the detected error ([`Trace::last_error`]) and extract simplified
//!   application-independent candidate checks ([`Trace::checks`]).
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

use cp_bytecode::{compile, CompileError, CompiledProgram};
use cp_formats::FormatDescriptor;
use cp_lang::{frontend, AnalyzedProgram, LangError};
use cp_patch::Observation;
use cp_solver::translate::{Candidate, TranslateError, Translation, Translator};
use cp_solver::Solver;
use cp_symexpr::{rewrite, ExprRef};
use cp_taint::{AllocRecord, BranchRecord, ScopeRecorder, TraceRecorder, VarValueRecord};
use cp_vm::{
    run_with_observer, BranchEvent, MachineState, Observer, RunConfig, StmtEndEvent, Termination,
    Value, VmError,
};
use std::fmt;
use std::sync::OnceLock;

pub use budget::{BudgetExhausted, Budgets, Stage};
pub use cp_diode::{
    DiscoverConfig, DiscoverOutcome, DiscoverReport, Discovery, PathConstraint, TargetSite,
};
pub use cp_patch::{
    FailedAttempt, InsertionSite, TransferError, TransferOutcome, TransferSpec, ValidationReport,
    Verdict,
};
pub use cp_solver::translate::{
    Candidate as TranslationCandidate, TranslateError as CheckTranslateError,
    Translation as CheckTranslation,
};
pub use cp_solver::SolverBudgets;
pub use cp_symexpr::{ArenaEpoch, ExprArena};
pub use cp_taint::TraceRecorder as Recorder;
pub use cp_vm::RunConfig as VmRunConfig;
pub use error::StageError;

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
#[derive(Debug)]
pub struct Trace {
    /// Conditional branches in execution order, with symbolic conditions.
    pub branches: Vec<BranchRecord>,
    /// Statement boundaries (candidate insertion points) in execution order.
    pub stmt_ends: Vec<StmtEndEvent>,
    /// Heap allocations in execution order.
    pub allocs: Vec<AllocRecord>,
    /// Values the program passed to `output`.
    pub outputs: Vec<u64>,
    /// Tainted scalar-variable values observed at statement boundaries
    /// (empty for stripped programs, which carry no debug information).
    pub var_values: Vec<VarValueRecord>,
    /// How the run ended.
    pub termination: Termination,
    /// Instructions executed.
    pub steps: u64,
    /// Lazily built candidate-check list (see [`Trace::checks`]).
    checks: OnceLock<Vec<Check>>,
}

impl Trace {
    /// Branches whose symbolic condition depends on at least one of the given
    /// input byte offsets — the paper's filter for branches relevant to the
    /// bytes that trigger an error.
    pub fn branches_influenced_by(&self, offsets: &[usize]) -> Vec<&BranchRecord> {
        self.branches
            .iter()
            .filter(|b| b.influenced_by(offsets))
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
    /// The list is built on first call and cached; each check's simplified
    /// application-independent condition is further deferred until
    /// [`Check::condition`] is asked for, so scanning a long trace for check
    /// *sites* never pays for simplification.
    pub fn checks(&self) -> &[Check] {
        self.checks.get_or_init(|| {
            let mut seen = std::collections::HashSet::new();
            let mut checks = Vec::new();
            for branch in &self.branches {
                let Some(expr) = &branch.expr else { continue };
                if !seen.insert((branch.function, branch.pc)) {
                    continue;
                }
                checks.push(Check {
                    function: branch.function,
                    pc: branch.pc,
                    taken: branch.taken,
                    raw: *expr,
                    simplified: OnceLock::new(),
                });
            }
            checks
        })
    }

    /// The expressions this trace's program computed, as translation
    /// material for a donor check (paper Section 3.3).
    ///
    /// Ordered from most to least insertable: named variable values first
    /// (what a patch would actually reference), then branch conditions, then
    /// allocation sizes.  Deduplicated by interned node, so a loop that
    /// re-observes the same value contributes one candidate.
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for var in &self.var_values {
            if seen.insert(var.expr) {
                out.push(Candidate::new(format!("var {}", var.name), var.expr));
            }
        }
        for branch in &self.branches {
            if let Some(expr) = &branch.expr {
                if seen.insert(*expr) {
                    out.push(Candidate::new(
                        format!("branch fn#{}@{}", branch.function, branch.pc),
                        *expr,
                    ));
                }
            }
        }
        for (i, alloc) in self.allocs.iter().enumerate() {
            if let Some(expr) = &alloc.size_expr {
                if seen.insert(*expr) {
                    out.push(Candidate::new(format!("alloc #{i} size"), *expr));
                }
            }
        }
        out
    }

    /// The executed path as solver constraints: every tainted branch's
    /// condition asserted in its observed direction, in execution order.
    ///
    /// Untainted branches are input-independent and constrain nothing, so
    /// they do not appear.  Together with
    /// [`path_to_alloc`](Trace::path_to_alloc) this is the material
    /// goal-directed discovery conjoins with an overflow goal.
    pub fn path_constraints(&self) -> Vec<PathConstraint> {
        PathConstraint::from_branches(&self.branches)
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
        PathConstraint::from_branches(&self.branches[..upto])
    }

    /// The slices of this trace the patch insertion planner consumes:
    /// statement boundaries (whose visit counts rank the sites) and recorded
    /// variable values.
    pub fn observation(&self) -> Observation<'_> {
        Observation {
            stmt_ends: &self.stmt_ends,
            var_values: &self.var_values,
        }
    }

    /// Translates a donor check into this trace's (the recipient's)
    /// namespace.
    ///
    /// The donor check's simplified condition is folded over `format` so its
    /// tainted leaves become named fields, then every field is matched
    /// against this trace's [`candidates`](Trace::candidates) — pruned by
    /// disjoint support, decided by the bitvector solver — and substituted
    /// on a `Proved` verdict.  All of one translation's miters run on a
    /// single incremental solver session (the shared recipient cones
    /// bit-blast once; see `cp_solver::incremental`).  See
    /// [`cp_solver::translate`] for the machinery and the returned
    /// [`Translation`]'s solver-effort counters.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] if the folded condition still reads raw
    /// input bytes no field names, or if some field has no provably
    /// equivalent recipient expression.
    pub fn translate_check(
        &self,
        donor: &Check,
        format: &FormatDescriptor,
    ) -> Result<Translation, TranslateError> {
        let folded = format.fold(&donor.condition());
        Translator::default().translate(&folded, &self.candidates())
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
    config: RunConfig,
    budgets: Option<Budgets>,
    strip: bool,
    observers: Vec<Box<dyn Observer + Send>>,
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

    /// Caps the number of executed instructions (default one million).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.config.max_steps = max_steps;
        self
    }

    /// Caps the call depth (default 256).
    pub fn max_call_depth(mut self, depth: usize) -> Self {
        self.config.max_call_depth = depth;
        self
    }

    /// Caps the size of a single heap allocation (default 1 GiB).
    pub fn max_alloc(mut self, bytes: u64) -> Self {
        self.config.max_alloc = bytes;
        self
    }

    /// Installs the session's per-stage resource budgets (see
    /// [`budget::Budgets`]).
    ///
    /// The VM step ceiling applies immediately (a later
    /// [`max_steps`](Self::max_steps) call overrides it); the solver,
    /// discovery, validation and wall-clock ceilings propagate into
    /// [`Session::discover`] and [`Session::transfer`], and the deadline is
    /// armed when the session is built.
    pub fn budgets(mut self, budgets: Budgets) -> Self {
        self.config.max_steps = budgets.vm_steps;
        self.budgets = Some(budgets);
        self
    }

    /// Strips symbols, statement maps and debug information before running —
    /// the paper's "proprietary donor" scenario.
    pub fn stripped(mut self) -> Self {
        self.strip = true;
        self
    }

    /// Registers an additional observer that receives every execution event
    /// alongside the session's own trace recorder.  Observers are `Send` so
    /// a fully configured [`Session`] can move to a worker thread.
    pub fn observer(mut self, observer: Box<dyn Observer + Send>) -> Self {
        self.observers.push(observer);
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
            config: self.config,
            budgets,
            deadline: budget::Deadline::starting_now(budgets.deadline),
            observers: self.observers,
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
    observers: Vec<Box<dyn Observer + Send>>,
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

    /// Runs the full transfer pipeline: translate the donor check into this
    /// recipient's namespace, plan insertion points, lower the guard to
    /// Phage-C and validate candidate patches until one is accepted (paper
    /// Sections 3.3–3.5).
    ///
    /// The recipient is recorded on the spec's error input — everything the
    /// run observes happened *before* the fault, so every candidate site
    /// dominates the error and every recorded variable value is live on the
    /// error path.  `format` folds the donor check's raw byte reads into the
    /// named fields translation works over.
    ///
    /// # Errors
    ///
    /// Returns a [`TransferError`] if the session was not built from source,
    /// translation fails, no insertion site is viable, or every planned
    /// patch fails validation.
    pub fn transfer(
        &mut self,
        donor: &Check,
        format: &FormatDescriptor,
        spec: &TransferSpec<'_>,
    ) -> Result<TransferOutcome, TransferError> {
        if self.analyzed.is_none() {
            return Err(TransferError::MissingSource);
        }
        let spec = self.configure_spec(spec.clone());
        let trace = self.record_with_input(spec.error_input);
        let analyzed = self.analyzed.as_ref().expect("checked above");
        let folded = format.fold(&donor.condition());
        cp_patch::transfer(analyzed, &folded, &trace.observation(), &spec)
    }

    /// Applies the session's budgets (and any armed chaos faults) to a
    /// transfer spec: the solver bundle configures the translation decision
    /// procedure and the recompile ceiling caps validation spend.
    ///
    /// [`transfer`](Self::transfer) does this internally; batch runners that
    /// call `cp_patch::transfer` directly (to reuse one recorded trace
    /// across many donor checks) should pass their spec through here first
    /// so session budgets still apply.
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
            // One recompile covers the baseline; the first candidate
            // validation then trips the budget mid-validation.
            spec.max_recompiles = spec.max_recompiles.min(1);
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
            let trace = self.record_with_input(input);
            cp_diode::ObservedRun {
                error: trace.last_error().cloned(),
                branches: trace.branches,
                allocs: trace.allocs,
            }
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
    /// configured node ceiling all return `Err(BudgetExhausted { stage:
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
            // accumulates toward the cap.
            let nodes = ExprArena::node_count() as u64;
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
        let mut recorder = TraceRecorder::new();
        let mut scopes = ScopeRecorder::new(self.scope_debug());
        let result = {
            let mut fanout = Fanout {
                recorder: &mut recorder,
                scopes: &mut scopes,
                extra: &mut self.observers,
            };
            run_with_observer(&self.program, input, &self.config, &mut fanout)
        };
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
            var_values: scopes.var_values,
            termination: result.termination,
            steps: result.steps,
            checks: OnceLock::new(),
        }
    }

    /// Per-function-index debug records for the scope recorder (`None`
    /// everywhere for stripped programs).
    fn scope_debug(&self) -> Vec<Option<cp_lang::FunctionDebug>> {
        let Some(debug) = &self.program.debug else {
            return vec![None; self.program.functions.len()];
        };
        self.program
            .functions
            .iter()
            .map(|f| {
                f.name
                    .as_deref()
                    .and_then(|name| debug.functions.get(name).cloned())
            })
            .collect()
    }
}

/// Forwards every event to the trace recorder, the scope recorder and the
/// extra observers the caller registered.
struct Fanout<'a> {
    recorder: &'a mut TraceRecorder,
    scopes: &'a mut ScopeRecorder,
    extra: &'a mut [Box<dyn Observer + Send>],
}

impl Observer for Fanout<'_> {
    fn on_branch(&mut self, event: &BranchEvent, state: &MachineState) {
        self.recorder.on_branch(event, state);
        for observer in self.extra.iter_mut() {
            observer.on_branch(event, state);
        }
    }

    fn on_stmt_end(&mut self, event: &StmtEndEvent, state: &MachineState) {
        self.recorder.on_stmt_end(event, state);
        self.scopes.on_stmt_end(event, state);
        for observer in self.extra.iter_mut() {
            observer.on_stmt_end(event, state);
        }
    }

    fn on_alloc(
        &mut self,
        base: u64,
        size: &Value,
        size_expr: Option<&ExprRef>,
        state: &MachineState,
    ) {
        self.recorder.on_alloc(base, size, size_expr, state);
        for observer in self.extra.iter_mut() {
            observer.on_alloc(base, size, size_expr, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn extra_observers_see_the_event_stream() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        #[derive(Default)]
        struct CountBranches(Arc<AtomicUsize>);
        impl Observer for CountBranches {
            fn on_branch(&mut self, _event: &BranchEvent, _state: &MachineState) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let count = Arc::new(AtomicUsize::new(0));
        let trace = Session::builder()
            .source(
                r#"
                fn main() -> u32 {
                    var i: u32 = 0;
                    while (i < 4) { i = i + 1; }
                    return i;
                }
                "#,
            )
            .observer(Box::new(CountBranches(count.clone())))
            .record()
            .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), trace.branches.len());
        assert_eq!(count.load(Ordering::Relaxed), 5);
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
    fn step_limit_is_configurable() {
        let trace = Session::builder()
            .source("fn main() -> u32 { while (1) { } return 0; }")
            .max_steps(500)
            .record()
            .unwrap();
        assert_eq!(trace.last_error(), Some(&VmError::StepLimitExceeded));
        assert!(trace.steps <= 501);
    }
}
