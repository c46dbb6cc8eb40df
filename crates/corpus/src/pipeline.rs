//! The Figure 8 batch pipeline: every corpus scenario through
//! record → discover → translate → insert → validate.
//!
//! The paper's headline evaluation (Figure 8) runs ten donor→recipient
//! transfer pairs end to end and reports, per pair, the size of the
//! transferred check and whether the patched recipient validates.  This
//! module is that harness for the synthetic corpus: [`run_scenario`] drives
//! one [`Scenario`] through the whole system via `cp_core::Session` and
//! `cp-patch`, and [`figure8`] renders the outcomes as the report table the
//! `fig8` binary prints.
//!
//! A batch sweep must survive its worst scenario.  Every stage failure is a
//! *row*, never an abort: [`run_scenario`] converts stage errors into a
//! typed [`ScenarioStatus`], degrades recoverable failures (discovery that
//! finds nothing falls back to the hand-written error input), and
//! [`run_all`] isolates each scenario behind `catch_unwind` so even a panic
//! becomes a `failed` row in the table.  Resource ceilings come from
//! `cp_core::budget`; the deterministic fault points of `cp_core::faults`
//! let the chaos suite force every one of these paths on demand.
//!
//! Sweeps shard across an own-threads worker pool ([`run_scenarios`],
//! [`SweepOptions`]); each scenario runs inside its own arena epoch so the
//! sweep's expression memory stays flat however many scenarios it covers,
//! and rows come back in scenario order so parallel output is byte-identical
//! to sequential.

use crate::{ErrorClass, Scenario};
use cp_core::faults::{self, FaultPoint};
use cp_core::{
    ArenaEpoch, BudgetExhausted, Budgets, Check, DiscoverConfig, DiscoverOutcome, Discovery,
    Session, Stage, StageError, TransferError, TransferOutcome, TransferSpec,
};
use cp_vm::Termination;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Deliberately unparseable Phage-C, substituted for a scenario's recipient
/// source by [`FaultPoint::FrontendMalformed`].
const MALFORMED_SOURCE: &str = "fn main( { this is not phage-c ]";

/// Why a scenario degraded — the closed, enum-backed set of recoverable
/// stage failures.
///
/// Each variant has a stable machine-readable [`code`](DegradedReason::code)
/// (the string carried by `Degraded` trace events, pinned by
/// `degraded_reason_codes_are_pinned`) and a human rendering (`Display`)
/// carrying the variant's diagnostic numbers.  Adding a variant means adding
/// a code to [`DegradedReason::ALL_CODES`] — the pinning test fails
/// otherwise, which is the point: trace consumers grep by code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// Goal-directed discovery exhausted its search without generating an
    /// error input; the scenario fell back to the hand-written one.
    DiscoveryExhausted {
        /// Program executions the search spent.
        executions: usize,
        /// Tainted allocation sites whose overflow goals were attempted.
        sites: usize,
        /// Solver satisfiability queries issued.
        queries: usize,
        /// Whether the execution budget (rather than the frontier) ran out.
        budget_exhausted: bool,
    },
}

impl DegradedReason {
    /// Every stable reason code, in declaration order.
    pub const ALL_CODES: [&'static str; 1] = ["discovery-exhausted"];

    /// The stable, greppable reason code carried by `Degraded` trace events.
    pub fn code(&self) -> &'static str {
        match self {
            DegradedReason::DiscoveryExhausted { .. } => "discovery-exhausted",
        }
    }
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedReason::DiscoveryExhausted {
                executions,
                sites,
                queries,
                budget_exhausted,
            } => write!(
                f,
                "discovery found no error input ({executions} executions, {sites} sites, \
                 {queries} queries{}); fell back to the hand-written one",
                if *budget_exhausted {
                    ", budget exhausted"
                } else {
                    ""
                },
            ),
        }
    }
}

/// How one scenario's sweep ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Every stage ran inside its budget and the patch validated.
    Ok,
    /// The patch validated, but a recoverable stage failure forced a
    /// fallback (e.g. discovery found nothing and the hand-written error
    /// input was used instead).
    Degraded {
        /// What degraded and how it was recovered.
        reason: DegradedReason,
    },
    /// The scenario produced no validated patch.
    Failed(StageError),
}

impl ScenarioStatus {
    /// The table cell: `ok`, `degraded` or `failed`.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioStatus::Ok => "ok",
            ScenarioStatus::Degraded { .. } => "degraded",
            ScenarioStatus::Failed(_) => "failed",
        }
    }

    /// Whether the sweep may count this row as healthy (`ok` or `degraded`).
    pub fn is_healthy(&self) -> bool {
        !matches!(self, ScenarioStatus::Failed(_))
    }

    /// The typed stage error, for failed rows.
    pub fn error(&self) -> Option<&StageError> {
        match self {
            ScenarioStatus::Failed(error) => Some(error),
            _ => None,
        }
    }
}

/// The result of one scenario's end-to-end run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// How the sweep ended for this scenario.
    pub status: ScenarioStatus,
    /// How the error input was derived, for overflow scenarios: the
    /// goal-directed discovery search that generated it (`None` for the
    /// other error classes, whose inputs stay hand-written, and for
    /// degraded rows that fell back to the hand-written input).
    pub discovery: Option<Discovery>,
    /// The error input the pipeline actually used — discovered for overflow
    /// scenarios, the scenario's hand-written one otherwise.
    pub error_input: Vec<u8>,
    /// How the stripped donor terminated on the error input (its guard must
    /// intercept: a clean exit or a clean return, never a detected error).
    /// `None` when the scenario failed before the donor ever ran.
    pub donor_termination: Option<Termination>,
    /// The error the unpatched recipient trips on, rendered.
    pub recipient_error: String,
    /// Op count of the transferred donor check as recorded (Figure 8
    /// "check size" before simplification), when a check transferred.
    pub raw_ops: Option<usize>,
    /// Op count after simplification.
    pub simplified_ops: Option<usize>,
    /// The validated transfer, or the failure rendered.
    pub result: Result<TransferOutcome, String>,
}

impl ScenarioOutcome {
    /// Whether the scenario produced a validated patch.
    pub fn validated(&self) -> bool {
        self.result.is_ok()
    }

    /// Whether this scenario's error class is the one discovery targets.
    pub fn discoverable(&self) -> bool {
        self.scenario.error_class == ErrorClass::OverflowIntoAllocation
    }
}

/// A scenario that failed before producing a transfer, as a table row.
fn failed(scenario: &Scenario, error: StageError) -> ScenarioOutcome {
    ScenarioOutcome {
        scenario: *scenario,
        status: ScenarioStatus::Failed(error.clone()),
        discovery: None,
        error_input: Vec::new(),
        donor_termination: None,
        recipient_error: "-".into(),
        raw_ops: None,
        simplified_ops: None,
        result: Err(error.to_string()),
    }
}

/// Sweeps one scenario through the full pipeline.
///
/// The stages mirror the paper end to end.  **Discover**: for
/// overflow-into-allocation scenarios the error input is *generated* — the
/// recipient is recorded on the benign input and `Session::discover` steers
/// the solver toward an overflow at the ranked allocation sites; when the
/// search finds nothing inside its budget the scenario *degrades* to the
/// hand-written `error_input` instead of failing.  **Record**: the stripped
/// donor and the recipient run on the (derived) error input through
/// [`Session::record_guarded`], so resource exhaustion surfaces as a typed
/// budget failure rather than a hang.  **Translate/insert/validate**:
/// [`Session::transfer`] offers every candidate check the donor performed,
/// folded over the scenario's format descriptor, in execution order; the
/// first check that yields a *validated* patch wins.
///
/// Never panics by design and never aborts the sweep: every stage failure
/// is reported in the returned outcome's [`status`](ScenarioOutcome::status).
/// (An *injected* chaos panic — [`FaultPoint::ScenarioPanic`] — does unwind,
/// which is exactly what [`run_all`]'s isolation is there to catch.)
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    // The scenario span starts scenario attribution: every stage span and
    // event inside — on this thread — inherits the name.  Wall time and the
    // epoch's arena node count land in the always-on registry, which is
    // where `figure8_with`'s runtime columns read them back from.
    let _span = cp_obs::span!("scenario", scenario = scenario.name);
    let started = Instant::now();
    let outcome = run_scenario_inner(scenario);
    cp_obs::metrics::gauge_with("scenario.wall_ns", scenario.name)
        .set(started.elapsed().as_nanos() as u64);
    // Nodes only accrete within an epoch and `run_scenarios` gives each
    // scenario its own, so the current count *is* the scenario's peak.
    cp_obs::metrics::gauge_with("scenario.arena_nodes", scenario.name)
        .set(cp_core::ExprArena::node_count() as u64);
    outcome
}

fn run_scenario_inner(scenario: &Scenario) -> ScenarioOutcome {
    let _scope = faults::enter_scenario(scenario.name);
    let format = scenario.format();

    let source = if faults::fires(FaultPoint::FrontendMalformed) {
        MALFORMED_SOURCE
    } else {
        scenario.source
    };
    let mut recipient = match Session::builder()
        .source(source)
        .budgets(Budgets::default())
        .build()
    {
        Ok(session) => session,
        Err(error) => return failed(scenario, StageError::frontend(scenario.name, error)),
    };

    // Discover: derive the error input for the overflow class; degrade to
    // the hand-written input when the search exhausts its budget empty.
    let mut degraded: Option<DegradedReason> = None;
    let (error_input, discovery) = if scenario.error_class == ErrorClass::OverflowIntoAllocation {
        match recipient.discover(scenario.benign_input, &DiscoverConfig::default()) {
            DiscoverOutcome::Found(found) => (found.input.clone(), Some(found)),
            DiscoverOutcome::NoTargetReachable(report) => {
                let reason = DegradedReason::DiscoveryExhausted {
                    executions: report.executions,
                    sites: report.sites_examined,
                    queries: report.solver_queries,
                    budget_exhausted: report.budget_exhausted,
                };
                cp_obs::event!(Degraded {
                    reason: reason.code().to_string()
                });
                degraded = Some(reason);
                (scenario.error_input.to_vec(), None)
            }
        }
    } else {
        (scenario.error_input.to_vec(), None)
    };

    if faults::fires(FaultPoint::ScenarioPanic) {
        panic!(
            "injected chaos fault: scenario panic inside {}",
            scenario.name
        );
    }

    let mut donor = match Session::builder()
        .source(scenario.donor_source)
        .stripped()
        .budgets(Budgets::default())
        .build()
    {
        Ok(session) => session,
        Err(error) => return failed(scenario, StageError::frontend(scenario.name, error)),
    };
    let donor_trace = match donor.record_guarded(&error_input) {
        Ok(trace) => trace,
        Err(exhausted) => return failed(scenario, StageError::budget(scenario.name, exhausted)),
    };

    // One instrumented error-input recording serves both the fault report
    // and the insertion planner for every candidate check — the trace is
    // check-independent.
    let crash = match recipient.record_guarded(&error_input) {
        Ok(trace) => trace,
        Err(exhausted) => return failed(scenario, StageError::budget(scenario.name, exhausted)),
    };
    let recipient_error = crash
        .last_error()
        .map(|e| e.to_string())
        .unwrap_or_else(|| "ran cleanly".into());

    let checks = donor_trace.checks();
    let spec =
        TransferSpec::new(&error_input, scenario.benign_corpus).with_action(scenario.patch_action);
    let (status, result) = match recipient.transfer(&crash, checks, &format, spec) {
        Ok(outcome) => {
            let status = match degraded {
                Some(reason) => ScenarioStatus::Degraded { reason },
                None => ScenarioStatus::Ok,
            };
            (status, Ok(outcome))
        }
        Err(error) => {
            let error = match error {
                TransferError::RecompileBudget { limit, .. } => StageError::budget(
                    scenario.name,
                    BudgetExhausted {
                        stage: Stage::Validation,
                        limit: limit as u64,
                    }
                    .noted(),
                ),
                error @ TransferError::AllPlansFailed { .. } => {
                    StageError::validation(scenario.name, error)
                }
                error => StageError::patch(scenario.name, error),
            };
            let result = Err(error.to_string());
            (ScenarioStatus::Failed(error), result)
        }
    };
    let transferred = result.as_ref().ok().map(|outcome| &checks[outcome.check]);
    let raw_ops = transferred.map(Check::raw_ops);
    let simplified_ops = transferred.map(Check::simplified_ops);
    ScenarioOutcome {
        scenario: *scenario,
        status,
        discovery,
        error_input,
        donor_termination: Some(donor_trace.termination),
        recipient_error,
        raw_ops,
        simplified_ops,
        result,
    }
}

/// How a batch sweep distributes scenarios across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads the sweep spawns (clamped to at least one).  Even
    /// `workers == 1` runs on a spawned worker, never the calling thread:
    /// each scenario executes inside its own `ArenaEpoch`, and running it on
    /// the caller would retire expressions the caller may still hold.
    pub workers: usize,
}

impl SweepOptions {
    /// One worker: the scenarios run strictly in order.
    pub fn sequential() -> Self {
        SweepOptions { workers: 1 }
    }

    /// A pool of `workers` threads (clamped to at least one).
    pub fn with_workers(workers: usize) -> Self {
        SweepOptions {
            workers: workers.max(1),
        }
    }

    /// Worker count from the `CP_SWEEP_WORKERS` environment variable,
    /// defaulting to one (sequential) when unset or unparseable.
    pub fn from_env() -> Self {
        let workers = std::env::var("CP_SWEEP_WORKERS")
            .ok()
            .and_then(|raw| raw.parse::<usize>().ok())
            .unwrap_or(1);
        SweepOptions::with_workers(workers)
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions::sequential()
    }
}

/// Sweeps `scenarios` across a pool of worker threads, returning one outcome
/// per scenario **in scenario order** regardless of which worker finished
/// when.
///
/// Each scenario runs inside its own [`ArenaEpoch`], so the expressions it
/// interns are reclaimed the moment its row is produced — a thousand-scenario
/// sweep holds at most `workers` scenarios' worth of arena nodes at any
/// instant instead of accreting all of them.  ([`ScenarioOutcome`] carries no
/// `ExprRef`s, so rows outlive their epochs safely.)  Workers claim
/// scenarios from a shared atomic cursor; a fault armed on the calling
/// thread (the registry is thread-local) is snapshotted and re-armed on
/// every worker so chaos injection follows the work onto the pool.
///
/// Isolation is per scenario, exactly as in the sequential sweep: a panic
/// becomes that scenario's `failed` row and the worker moves on.
pub fn run_scenarios(scenarios: &[Scenario], options: SweepOptions) -> Vec<ScenarioOutcome> {
    // The sweep span is the trace root; workers re-attach the dispatcher's
    // observability context (captured *inside* the span) exactly like the
    // fault snapshot below, so every worker-side scenario span parents here
    // and reports to the dispatcher's collector.
    let _sweep = cp_obs::span!("sweep");
    let obs_context = cp_obs::context();
    let workers = options.workers.max(1).min(scenarios.len().max(1));
    let snapshot = faults::snapshot();
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioOutcome>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _armed = faults::arm_snapshot(&snapshot);
                let _attached = cp_obs::attach(&obs_context);
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(scenario) = scenarios.get(index) else {
                        break;
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _epoch = ArenaEpoch::begin();
                        run_scenario(scenario)
                    }))
                    .unwrap_or_else(|payload| {
                        failed(scenario, StageError::panic(scenario.name, payload.as_ref()))
                    });
                    let mut slot = slots[index]
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    *slot = Some(outcome);
                }
            });
        }
    });

    slots
        .into_iter()
        .zip(scenarios)
        .map(|(slot, scenario)| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or_else(|| {
                    failed(
                        scenario,
                        StageError::panic(scenario.name, &"worker died before storing a row"),
                    )
                })
        })
        .collect()
}

/// Runs every corpus scenario through the pipeline with explicit sweep
/// options; see [`run_scenarios`].
pub fn run_all_with(options: SweepOptions) -> Vec<ScenarioOutcome> {
    run_scenarios(&crate::scenarios(), options)
}

/// Runs every corpus scenario through the pipeline, isolating each behind
/// `catch_unwind`: one poisoned scenario becomes a `failed` row, never a
/// dead sweep.
///
/// Corpus programs failing to build is also just a failed row now — the
/// sweep itself never panics and always returns one outcome per scenario.
/// Worker count comes from `CP_SWEEP_WORKERS` (default: sequential).
pub fn run_all() -> Vec<ScenarioOutcome> {
    run_all_with(SweepOptions::from_env())
}

/// Renders one outcome's `discovered` column: `g<generations>/x<executions>`
/// for a discovery-derived error input, `-` for hand-written ones.
fn discovered_cell(outcome: &ScenarioOutcome) -> String {
    match &outcome.discovery {
        Some(found) => format!("g{}/x{}", found.generations, found.executions),
        None => "-".into(),
    }
}

/// Optional columns for [`figure8_with`].
///
/// The default renders exactly the historic [`figure8`] table — parallel,
/// chaos and batch tests assert that output byte for byte, so anything
/// optional must be off unless asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Figure8Options {
    /// Adds per-scenario `wall-ms` and `arena-nodes` columns, read back from
    /// the `cp-obs` registry gauges (`scenario.wall_ns{name}`,
    /// `scenario.arena_nodes{name}`) the sweep published.  Scenarios the
    /// current process never swept render `-`.
    pub runtime_columns: bool,
}

/// The two runtime cells for `scenario` (leading space included), or header
/// cells when `None`; empty when the columns are off.
fn runtime_cells(options: &Figure8Options, scenario: Option<&str>) -> String {
    use cp_obs::metrics::MetricValue;
    if !options.runtime_columns {
        return String::new();
    }
    let Some(name) = scenario else {
        return format!(" {:>8} {:>11}", "wall-ms", "arena-nodes");
    };
    let gauge = |metric: &str| match cp_obs::metrics::find(&format!("{metric}{{{name}}}")) {
        Some(MetricValue::Gauge(value)) if value > 0 => Some(value),
        _ => None,
    };
    let wall = gauge("scenario.wall_ns")
        .map(|ns| format!("{:.1}", ns as f64 / 1e6))
        .unwrap_or_else(|| "-".into());
    let nodes = gauge("scenario.arena_nodes")
        .map(|n| n.to_string())
        .unwrap_or_else(|| "-".into());
    format!(" {wall:>8} {nodes:>11}")
}

/// Renders the outcomes as the Figure 8 report table.
pub fn figure8(outcomes: &[ScenarioOutcome]) -> String {
    figure8_with(outcomes, &Figure8Options::default())
}

/// Renders the Figure 8 table with explicit column options; with the
/// defaults the output is byte-identical to [`figure8`].
pub fn figure8_with(outcomes: &[ScenarioOutcome], options: &Figure8Options) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<10} {:>10} {:>7} {:>8} {:<16} {:<8} {:>7} {:>6}{} {:<8}  detail\n",
        "scenario",
        "class",
        "discovered",
        "raw-ops",
        "simp-ops",
        "insertion",
        "action",
        "benign",
        "tries",
        runtime_cells(options, None),
        "status"
    ));
    for outcome in outcomes {
        let class = format!("{:?}", outcome.scenario.error_class);
        let ops = |v: Option<usize>| v.map(|n| n.to_string()).unwrap_or_else(|| "-".into());
        let runtime = runtime_cells(options, Some(outcome.scenario.name));
        match &outcome.result {
            Ok(transfer) => {
                let action = match transfer.patch.action {
                    cp_lang::PatchAction::Exit(_) => "exit",
                    cp_lang::PatchAction::ReturnZero => "return0",
                };
                let detail = match &outcome.status {
                    ScenarioStatus::Degraded { reason } => {
                        format!("validated: {} [{reason}]", transfer.patch.render())
                    }
                    _ => format!("validated: {}", transfer.patch.render()),
                };
                out.push_str(&format!(
                    "{:<26} {:<10} {:>10} {:>7} {:>8} {:<16} {:<8} {:>7} {:>6}{} {:<8}  {}\n",
                    outcome.scenario.name,
                    class,
                    discovered_cell(outcome),
                    ops(outcome.raw_ops),
                    ops(outcome.simplified_ops),
                    transfer.site.to_string(),
                    action,
                    transfer.report.benign.len(),
                    transfer.attempts,
                    runtime,
                    outcome.status.label(),
                    detail,
                ));
            }
            Err(failure) => {
                out.push_str(&format!(
                    "{:<26} {:<10} {:>10} {:>7} {:>8} {:<16} {:<8} {:>7} {:>6}{} {:<8}  {}\n",
                    outcome.scenario.name,
                    class,
                    discovered_cell(outcome),
                    ops(outcome.raw_ops),
                    ops(outcome.simplified_ops),
                    "-",
                    "-",
                    0,
                    0,
                    runtime,
                    outcome.status.label(),
                    failure,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_corpus_validates_end_to_end() {
        let outcomes = run_all();
        assert_eq!(outcomes.len(), crate::scenarios().len());
        for outcome in &outcomes {
            // At default budgets nothing degrades and nothing fails…
            assert_eq!(
                outcome.status,
                ScenarioStatus::Ok,
                "{}: {:?}",
                outcome.scenario.name,
                outcome.status
            );
            // …overflow scenarios derived their error input via discovery,
            // without consulting the hand-written one…
            if outcome.discoverable() {
                let found = outcome
                    .discovery
                    .as_ref()
                    .unwrap_or_else(|| panic!("{}: discovery must succeed", outcome.scenario.name));
                assert_eq!(found.input, outcome.error_input);
            } else {
                assert!(outcome.discovery.is_none());
                assert_eq!(outcome.error_input, outcome.scenario.error_input);
            }
            // …the donor's own guard intercepted the error input…
            let donor_termination = outcome
                .donor_termination
                .as_ref()
                .expect("donor ran on every scenario");
            assert!(
                donor_termination.error().is_none(),
                "{}: donor faulted: {:?}",
                outcome.scenario.name,
                outcome.donor_termination
            );
            // …the unpatched recipient faulted…
            assert_ne!(
                outcome.recipient_error, "ran cleanly",
                "{}: recipient must fault",
                outcome.scenario.name
            );
            // …and the transferred patch validated.
            let transfer = outcome
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", outcome.scenario.name));
            assert!(transfer.report.verdict.is_validated());
            assert_eq!(
                transfer.report.benign.len(),
                outcome.scenario.benign_corpus.len(),
                "{}: every benign input must be revalidated",
                outcome.scenario.name
            );
            assert!(transfer.report.benign.iter().all(|b| b.identical()));
            assert_eq!(transfer.patch.action, outcome.scenario.patch_action);
            assert!(outcome.raw_ops >= outcome.simplified_ops);
        }
    }

    #[test]
    fn figure8_reports_every_scenario_as_validated() {
        let outcomes = run_all();
        let table = figure8(&outcomes);
        for scenario in crate::scenarios() {
            assert!(table.contains(scenario.name), "{table}");
        }
        assert_eq!(
            table.matches("validated:").count(),
            crate::scenarios().len(),
            "{table}"
        );
        assert_eq!(
            table.matches(" ok ").count(),
            crate::scenarios().len(),
            "{table}"
        );
        assert!(!table.contains("failed"), "{table}");
        assert!(!table.contains("degraded"), "{table}");
        assert!(table.contains("return0"), "{table}");
    }
}
