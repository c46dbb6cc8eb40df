//! The end-to-end transfer engine: translate → insert → lower → validate.
//!
//! [`transfer`] is the closing of Code Phage's loop and the one place that
//! offers donor checks to a recipient.  Given the donor's folded checks and
//! one instrumented run of the recipient on the **error input** (so every
//! observed site dominates the fault), it translates each check's fields
//! onto the recipient's variables (keeping *all* proved alternatives), plans
//! insertion points where the bound variables are live with their proved
//! values, lowers the condition to Phage-C source over those variables, and
//! validates each planned patch behaviorally until one is accepted.  A plan
//! that fails validation yields to the next plan, and a check whose plans
//! all fail yields to the next check.

use crate::insert::{plan, ChosenBinding, InsertionSite, Observation, PlannedPatch, VarTable};
use crate::lower::{lower_guard, LowerError, VarRef};
use crate::validate::{validate, Baseline, ValidationReport, Verdict};
use cp_bytecode::CompiledProgram;
use cp_lang::{AnalyzedProgram, Patch, PatchAction};
use cp_solver::translate::{TranslateError, TranslateStats, Translator};
use cp_symexpr::ExprRef;
use cp_vm::RunConfig;
use std::collections::HashMap;
use std::fmt;

/// What to transfer and how to judge the result.
#[derive(Debug, Clone)]
pub struct TransferSpec<'a> {
    /// The patch body when the guard fires.
    pub action: PatchAction,
    /// The input that drives the unpatched recipient into the error.
    pub error_input: &'a [u8],
    /// Benign inputs whose behavior the patch must leave byte-identical.
    pub benign_corpus: &'a [&'a [u8]],
    /// Maximum insertion plans to validate per donor check.
    pub max_attempts: usize,
    /// Maximum validation recompiles, one per candidate patch across every
    /// offered check, before the transfer reports
    /// [`TransferError::RecompileBudget`].
    pub max_recompiles: usize,
    /// Execution limits for validation runs.
    pub config: RunConfig,
    /// The translator (and therefore solver budgets) used to bind donor
    /// fields to recipient expressions.
    pub translator: Translator,
}

impl<'a> TransferSpec<'a> {
    /// A spec with the default exit action, attempt budget and run limits.
    pub fn new(error_input: &'a [u8], benign_corpus: &'a [&'a [u8]]) -> Self {
        TransferSpec {
            action: PatchAction::Exit(1),
            error_input,
            benign_corpus,
            max_attempts: 16,
            max_recompiles: 64,
            config: RunConfig::default(),
            translator: Translator::default(),
        }
    }

    /// Uses the paper's alternate `return 0` strategy instead of exiting.
    pub fn with_action(mut self, action: PatchAction) -> Self {
        self.action = action;
        self
    }
}

/// A rejected insertion plan, kept for diagnostics.
#[derive(Debug, Clone)]
pub struct FailedAttempt {
    /// Where the patch was tried.
    pub site: InsertionSite,
    /// Why validation rejected it.
    pub verdict: Verdict,
}

/// Why a transfer produced no validated patch.
#[derive(Debug, Clone)]
pub enum TransferError {
    /// The recipient has no source-level program to patch (built from an
    /// already-compiled or stripped binary).
    MissingSource,
    /// The donor offered no check to transfer.
    NoChecks,
    /// The donor condition could not be translated into the recipient's
    /// namespace at all.
    Translate(TranslateError),
    /// Translation succeeded but no insertion site has every bound variable
    /// available.
    NoViableSite {
        /// Solver effort spent on the translation.
        stats: TranslateStats,
    },
    /// A guard could not be rendered as Phage-C source.
    Lower(LowerError),
    /// Every planned patch failed validation.
    AllPlansFailed {
        /// The rejected attempts, in the order tried.
        attempts: Vec<FailedAttempt>,
    },
    /// The recompile budget ran out before a candidate validated.
    RecompileBudget {
        /// The configured ceiling ([`TransferSpec::max_recompiles`]).
        limit: usize,
        /// The current check's plans rejected before the budget tripped.
        attempts: Vec<FailedAttempt>,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::MissingSource => {
                write!(f, "recipient has no source-level program to patch")
            }
            TransferError::NoChecks => write!(f, "donor performed no transferable check"),
            TransferError::Translate(e) => write!(f, "translation failed: {e}"),
            TransferError::NoViableSite { stats } => write!(
                f,
                "no insertion site has all bound variables available \
                 ({} fields, {} proved bindings)",
                stats.fields, stats.proved
            ),
            TransferError::Lower(e) => write!(f, "guard lowering failed: {e}"),
            TransferError::AllPlansFailed { attempts } => {
                write!(
                    f,
                    "all {} planned patches failed validation",
                    attempts.len()
                )?;
                if let Some(last) = attempts.last() {
                    write!(f, " (last: {} at {})", last.verdict, last.site)?;
                }
                Ok(())
            }
            TransferError::RecompileBudget { limit, attempts } => write!(
                f,
                "validation recompile budget exhausted (limit {limit}, {} plans tried)",
                attempts.len()
            ),
        }
    }
}

impl std::error::Error for TransferError {}

impl From<TranslateError> for TransferError {
    fn from(e: TranslateError) -> Self {
        TransferError::Translate(e)
    }
}

impl From<LowerError> for TransferError {
    fn from(e: LowerError) -> Self {
        TransferError::Lower(e)
    }
}

/// A validated transfer: the accepted patch and the evidence for it.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// Index, in offer order, of the donor check that validated.
    pub check: usize,
    /// The accepted source-level patch.
    pub patch: Patch,
    /// Where it was inserted.
    pub site: InsertionSite,
    /// The variable chosen for each donor field.
    pub bindings: Vec<ChosenBinding>,
    /// The accepting validation report.
    pub report: ValidationReport,
    /// Solver effort spent translating the accepted check.
    pub stats: TranslateStats,
    /// Validation attempts on the accepted check, the accepted one included.
    pub attempts: usize,
    /// The accepted check's plans rejected before the accepted one.
    pub rejected: Vec<FailedAttempt>,
}

/// Offers the donor's `checks` to the recipient in order and returns the
/// first validated patch; the outcome's attempts, rejections, statistics and
/// bindings are that check's own.
///
/// Each check must be folded over a format descriptor (tainted leaves are
/// named fields); checks are drawn one at a time, so a lazy iterator folds
/// none after the accepted one.  `observation` should come from recording
/// the recipient on the **error input** (`cp_core::Session::transfer`
/// passes exactly that): the planner assumes every observed statement
/// boundary dominates the fault.  `program` is the unpatched recipient
/// compiled from `recipient`; its runs on the validation inputs, recorded
/// once, are the baseline every candidate is judged against.
///
/// # Errors
///
/// [`TransferError::RecompileBudget`] as soon as the call's validation
/// recompiles run out, [`TransferError::NoChecks`] when `checks` is empty,
/// and otherwise the last check's error.
pub fn transfer(
    recipient: &AnalyzedProgram,
    program: &CompiledProgram,
    checks: impl IntoIterator<Item = ExprRef>,
    observation: &Observation<'_>,
    spec: &TransferSpec<'_>,
) -> Result<TransferOutcome, TransferError> {
    let fn_names: Vec<Option<String>> = recipient
        .program
        .functions
        .iter()
        .map(|f| Some(f.name.clone()))
        .collect();
    let table = VarTable::from_observation(observation.var_values, &recipient.debug, &fn_names);
    // Recompiles are the call's unit of validation spend, one per candidate
    // patch of any check: the ceiling turns a pathological plan set into a
    // typed budget error instead of an open-ended recompile loop.
    let mut recompiles_left = spec.max_recompiles;
    let mut baseline: Option<Baseline> = None;

    let mut offer = |check: usize, condition: ExprRef| -> Result<TransferOutcome, TransferError> {
        let translation = spec
            .translator
            .translate_all(&condition, &table.candidates)?;
        let plans = {
            let _span = cp_obs::span!("plan");
            plan(
                &translation,
                &table,
                observation,
                &fn_names,
                spec.max_attempts,
            )
        };
        if plans.is_empty() {
            return Err(TransferError::NoViableSite {
                stats: translation.stats,
            });
        }
        let mut rejected = Vec::new();
        for PlannedPatch { site, bindings } in plans {
            let vars: HashMap<String, VarRef> = bindings
                .iter()
                .map(|b| {
                    let var = VarRef {
                        name: b.var_name.clone(),
                        ty: b.var_ty.clone(),
                    };
                    (b.path.clone(), var)
                })
                .collect();
            let guard = lower_guard(&condition, &vars)?;
            if recompiles_left == 0 {
                return Err(TransferError::RecompileBudget {
                    limit: spec.max_recompiles,
                    attempts: rejected,
                });
            }
            recompiles_left -= 1;
            let patch = Patch {
                function: site.function_name.clone(),
                after_stmt: site.stmt,
                guard,
                action: spec.action,
            };
            // The unpatched recipient behaves the same under every
            // candidate, so it runs on the validation inputs once.
            let baseline = baseline.get_or_insert_with(|| {
                Baseline::record(program, spec.error_input, spec.benign_corpus, &spec.config)
            });
            let report = {
                let _span = cp_obs::span!("validate");
                validate(
                    recipient,
                    baseline,
                    &patch,
                    spec.error_input,
                    spec.benign_corpus,
                    &spec.config,
                )
            };
            if report.verdict.is_validated() {
                return Ok(TransferOutcome {
                    check,
                    patch,
                    site,
                    bindings,
                    report,
                    stats: translation.stats,
                    attempts: rejected.len() + 1,
                    rejected,
                });
            }
            rejected.push(FailedAttempt {
                site,
                verdict: report.verdict,
            });
        }
        Err(TransferError::AllPlansFailed { attempts: rejected })
    };

    let mut last_error = TransferError::NoChecks;
    for (check, condition) in checks.into_iter().enumerate() {
        match offer(check, condition) {
            Ok(outcome) => return Ok(outcome),
            // No later check can validate without a recompile.
            Err(error @ TransferError::RecompileBudget { .. }) => return Err(error),
            Err(error) => last_error = error,
        }
    }
    Err(last_error)
}
