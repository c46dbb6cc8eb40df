//! Patch validation (paper Section 3.5).
//!
//! A candidate patch is accepted only on behavioral evidence: the patched
//! recipient must *recompile* (through the pretty-printer → front end →
//! bytecode path, the same path a shipped source patch would take), the
//! donor-error input must now terminate cleanly with no detector firing,
//! and every input of the benign regression corpus must behave byte-for-byte
//! identically to the unpatched recipient — same termination, same `output`
//! stream.  Anything less rejects the patch and sends the engine to the next
//! insertion plan.

use cp_bytecode::{compile, CompiledProgram};
use cp_lang::pretty::print_program;
use cp_lang::{frontend, AnalyzedProgram, Patch, PatchAction};
use cp_obs::metrics::{counter, Counter};
use cp_vm::{run, RunConfig, RunResult, Termination, VmError};
use std::sync::OnceLock;

/// The observable behavior of one run: how it ended and what it printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputOutcome {
    /// How the run terminated.
    pub termination: Termination,
    /// Values the program passed to `output`, in order.
    pub outputs: Vec<u64>,
}

impl InputOutcome {
    /// The outcome of a plain run of `program` on `input`.
    fn of(program: &CompiledProgram, input: &[u8], config: &RunConfig) -> InputOutcome {
        let result = run(program, input, config);
        // Plain-run work in the always-on registry, next to the recording
        // side's `vm.steps`; handles are cached as there.
        static RUNS: OnceLock<&'static Counter> = OnceLock::new();
        static RUN_STEPS: OnceLock<&'static Counter> = OnceLock::new();
        RUNS.get_or_init(|| counter("validate.runs")).inc();
        RUN_STEPS
            .get_or_init(|| counter("validate.run_steps"))
            .add(result.steps);
        InputOutcome {
            termination: result.termination,
            outputs: result.outputs,
        }
    }
}

/// The unpatched recipient's behavior on every validation input, computed
/// once and reused across all of a transfer's validation attempts (the
/// baseline never changes between candidate patches).
///
/// [`Baseline::record`] runs every input plainly.  [`crate::transfer`] runs
/// only the benign corpus, and takes the error input's outcome from the
/// instrumented recording of the same program on that input that it is
/// handed, whenever that run ended within the validation step limit.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Behavior on the error input (the fault being fixed).
    pub error: InputOutcome,
    /// Behavior on each benign corpus input, in corpus order.
    pub benign: Vec<InputOutcome>,
}

impl Baseline {
    /// Runs the unpatched program on the error input and the benign corpus.
    pub fn record(
        program: &CompiledProgram,
        error_input: &[u8],
        benign_corpus: &[&[u8]],
        config: &RunConfig,
    ) -> Baseline {
        Baseline::with_error(
            InputOutcome::of(program, error_input, config),
            program,
            benign_corpus,
            config,
        )
    }

    /// The baseline [`record`](Self::record) returns, with the error input's
    /// outcome taken from `error_run`, a run of the same program on the error
    /// input, instead of a plain run of its own.  An instrumented run and a
    /// plain one of the same program and input execute the same steps, so
    /// `error_run` stands in for the plain run when it ended within
    /// `config`'s step limit; a run that hit a step limit, or took more steps
    /// than `config` allows, does not, and the error input runs plainly.
    pub(crate) fn with_error_run(
        error_run: &RunResult,
        program: &CompiledProgram,
        error_input: &[u8],
        benign_corpus: &[&[u8]],
        config: &RunConfig,
    ) -> Baseline {
        let within_limit = error_run.steps <= config.max_steps
            && error_run.termination != Termination::Error(VmError::StepLimitExceeded);
        if !within_limit {
            return Baseline::record(program, error_input, benign_corpus, config);
        }
        let error = InputOutcome {
            termination: error_run.termination.clone(),
            outputs: error_run.outputs.clone(),
        };
        Baseline::with_error(error, program, benign_corpus, config)
    }

    /// `error`, and plain runs of `program` on the benign corpus.
    fn with_error(
        error: InputOutcome,
        program: &CompiledProgram,
        benign_corpus: &[&[u8]],
        config: &RunConfig,
    ) -> Baseline {
        Baseline {
            error,
            benign: benign_corpus
                .iter()
                .map(|input| InputOutcome::of(program, input, config))
                .collect(),
        }
    }
}

/// Behavior of one benign corpus input before and after the patch.
#[derive(Debug, Clone)]
pub struct BenignComparison {
    /// Index of the input within the corpus.
    pub index: usize,
    /// Unpatched behavior.
    pub before: InputOutcome,
    /// Patched behavior.
    pub after: InputOutcome,
}

impl BenignComparison {
    /// Whether the patch left this input's behavior byte-identical.
    pub fn identical(&self) -> bool {
        self.before == self.after
    }
}

/// The verdict of one validation attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The patch is accepted: clean recompile, clean error input, unchanged
    /// benign corpus.
    Validated,
    /// The patched source failed to re-analyze or recompile.
    RecompileFailed {
        /// The front-end or compiler diagnostic.
        error: String,
    },
    /// The error input still terminates on a detected error.
    ErrorStillFires {
        /// The surviving error, rendered.
        error: String,
    },
    /// The error input no longer faults but did not terminate the way the
    /// patch action promises (e.g. the guard never executed and the program
    /// returned normally with different behavior, or hit a resource limit).
    ErrorNotIntercepted {
        /// The observed termination, rendered.
        termination: String,
    },
    /// A benign corpus input changed behavior under the patch.
    BenignRegression {
        /// Index of the first regressed input.
        index: usize,
    },
}

impl Verdict {
    /// Whether validation accepted the patch.
    pub fn is_validated(&self) -> bool {
        matches!(self, Verdict::Validated)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Validated => write!(f, "validated"),
            Verdict::RecompileFailed { error } => write!(f, "recompile failed: {error}"),
            Verdict::ErrorStillFires { error } => write!(f, "error persists: {error}"),
            Verdict::ErrorNotIntercepted { termination } => {
                write!(f, "error input not intercepted ({termination})")
            }
            Verdict::BenignRegression { index } => {
                write!(f, "benign input #{index} changed behavior")
            }
        }
    }
}

/// Everything one validation attempt observed.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Unpatched behavior on the error input (the fault being fixed).
    pub error_before: InputOutcome,
    /// Patched behavior on the error input (absent when recompilation
    /// failed).
    pub error_after: Option<InputOutcome>,
    /// Per-benign-input before/after behavior (filled until the first
    /// regression).
    pub benign: Vec<BenignComparison>,
    /// The patched recipient's source, as recompiled (absent when
    /// recompilation failed).
    pub patched_source: Option<String>,
}

/// Applies `patch` to the recipient and validates it behaviorally.
///
/// The patched AST is pretty-printed and re-run through the front end before
/// compiling — validation must exercise the same source-level path a real
/// patch ships through, so a pretty-printer or re-analysis defect fails
/// validation rather than hiding.
pub fn validate(
    recipient: &AnalyzedProgram,
    baseline: &Baseline,
    patch: &Patch,
    error_input: &[u8],
    benign_corpus: &[&[u8]],
    config: &RunConfig,
) -> ValidationReport {
    let error_before = baseline.error.clone();

    // Apply → print → re-analyze → compile: the recompilation half.
    let patched = match patch
        .apply(&recipient.program)
        .map(|ast| print_program(&ast))
        .and_then(|source| frontend(&source).map(|re| (source, re)))
    {
        Ok(pair) => pair,
        Err(error) => {
            return ValidationReport {
                verdict: Verdict::RecompileFailed {
                    error: error.to_string(),
                },
                error_before,
                error_after: None,
                benign: Vec::new(),
                patched_source: None,
            }
        }
    };
    let (patched_source, reanalyzed) = patched;
    let patched_program = match compile(&reanalyzed) {
        Ok(program) => program,
        Err(error) => {
            return ValidationReport {
                verdict: Verdict::RecompileFailed {
                    error: error.to_string(),
                },
                error_before,
                error_after: None,
                benign: Vec::new(),
                patched_source: Some(patched_source),
            }
        }
    };

    // The error input must now be intercepted.
    let error_after = InputOutcome::of(&patched_program, error_input, config);
    let intercepted = match patch.action {
        // The guard must have fired: the run exits with the patch's status.
        PatchAction::Exit(status) => error_after.termination == Termination::Exited(status as u64),
        // The alternate strategy keeps executing; any error-free
        // termination is acceptable.
        PatchAction::ReturnZero => error_after.termination.error().is_none(),
    };
    if !intercepted {
        let verdict = match error_after.termination.error() {
            Some(error) => Verdict::ErrorStillFires {
                error: error.to_string(),
            },
            None => Verdict::ErrorNotIntercepted {
                termination: format!("{:?}", error_after.termination),
            },
        };
        return ValidationReport {
            verdict,
            error_before,
            error_after: Some(error_after),
            benign: Vec::new(),
            patched_source: Some(patched_source),
        };
    }

    // The benign corpus must be untouched.
    let mut benign = Vec::new();
    for (index, input) in benign_corpus.iter().enumerate() {
        let comparison = BenignComparison {
            index,
            before: baseline.benign[index].clone(),
            after: InputOutcome::of(&patched_program, input, config),
        };
        let identical = comparison.identical();
        benign.push(comparison);
        if !identical {
            return ValidationReport {
                verdict: Verdict::BenignRegression { index },
                error_before,
                error_after: Some(error_after),
                benign,
                patched_source: Some(patched_source),
            };
        }
    }

    ValidationReport {
        verdict: Verdict::Validated,
        error_before,
        error_after: Some(error_after),
        benign,
        patched_source: Some(patched_source),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECIPIENT: &str = r#"
        fn main() -> u32 {
            var count: u32 = input_byte(0) as u32;
            var total: u32 = 100;
            var mean: u32 = total / count;
            output(mean as u64);
            return 0;
        }
    "#;

    fn setup(error_input: &[u8], benign_corpus: &[&[u8]]) -> (AnalyzedProgram, Baseline) {
        setup_source(RECIPIENT, error_input, benign_corpus)
    }

    fn setup_source(
        source: &str,
        error_input: &[u8],
        benign_corpus: &[&[u8]],
    ) -> (AnalyzedProgram, Baseline) {
        let analyzed = frontend(source).unwrap();
        let program = compile(&analyzed).unwrap();
        let baseline =
            Baseline::record(&program, error_input, benign_corpus, &RunConfig::default());
        (analyzed, baseline)
    }

    #[test]
    fn a_correct_guard_validates() {
        let [runs, steps] = ["validate.runs", "validate.run_steps"].map(|n| counter(n).get());
        let (analyzed, baseline) = setup(&[0], &[&[4], &[10], &[255]]);
        let patch = Patch::exit("main", 0, "((count == 0) as u8)");
        let report = validate(
            &analyzed,
            &baseline,
            &patch,
            &[0],
            &[&[4], &[10], &[255]],
            &RunConfig::default(),
        );
        assert!(report.verdict.is_validated(), "{:?}", report.verdict);
        assert!(report.error_before.termination.error().is_some());
        assert_eq!(
            report.error_after.unwrap().termination,
            Termination::Exited(1)
        );
        assert_eq!(report.benign.len(), 3);
        assert!(report.patched_source.unwrap().contains("exit(1)"));
        // Four baseline runs and four validation runs, each counted once
        // (other tests may run concurrently, hence at least).
        assert!(counter("validate.runs").get() - runs >= 8);
        assert!(counter("validate.run_steps").get() > steps);
    }

    #[test]
    fn a_guard_that_misses_the_error_is_rejected() {
        let (analyzed, baseline) = setup(&[0], &[&[4]]);
        // Fires on 7, not on 0: the division still traps.
        let patch = Patch::exit("main", 0, "((count == 7) as u8)");
        let report = validate(
            &analyzed,
            &baseline,
            &patch,
            &[0],
            &[&[4]],
            &RunConfig::default(),
        );
        assert!(
            matches!(report.verdict, Verdict::ErrorStillFires { .. }),
            "{:?}",
            report.verdict
        );
    }

    #[test]
    fn an_overbroad_guard_regresses_the_benign_corpus() {
        let (analyzed, baseline) = setup(&[0], &[&[10], &[4]]);
        // Fires on everything below 5 — catches the error but also a benign
        // input.
        let patch = Patch::exit("main", 0, "((count < 5) as u8)");
        let report = validate(
            &analyzed,
            &baseline,
            &patch,
            &[0],
            &[&[10], &[4]],
            &RunConfig::default(),
        );
        assert_eq!(report.verdict, Verdict::BenignRegression { index: 1 });
        assert!(!report.benign[1].identical());
    }

    #[test]
    fn malformed_guards_fail_recompilation() {
        let (analyzed, baseline) = setup(&[0], &[]);
        let patch = Patch::exit("main", 0, "nonexistent_var == 0");
        let report = validate(
            &analyzed,
            &baseline,
            &patch,
            &[0],
            &[],
            &RunConfig::default(),
        );
        assert!(
            matches!(report.verdict, Verdict::RecompileFailed { .. }),
            "{:?}",
            report.verdict
        );
        assert!(report.error_after.is_none());
    }

    #[test]
    fn return_zero_patches_accept_clean_continuation() {
        let source = r#"
            fn main() -> u32 {
                var rate: u32 = input_byte(0) as u32;
                var ms: u32 = 1000 / rate;
                output(ms as u64);
                return 0;
            }
        "#;
        let (analyzed, baseline) = setup_source(source, &[0], &[&[10], &[255]]);
        let patch = Patch {
            function: "main".into(),
            after_stmt: 0,
            guard: "((rate == 0) as u8)".into(),
            action: PatchAction::ReturnZero,
        };
        let report = validate(
            &analyzed,
            &baseline,
            &patch,
            &[0],
            &[&[10], &[255]],
            &RunConfig::default(),
        );
        assert!(report.verdict.is_validated(), "{:?}", report.verdict);
        assert_eq!(
            report.error_after.unwrap().termination,
            Termination::Returned(0)
        );
    }
}
