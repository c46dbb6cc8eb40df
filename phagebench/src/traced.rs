//! The traced run.
//!
//! [`replay`] drives one scenario through the same stages as
//! `cp_corpus::pipeline::run_scenario`, but calls each layer's public entry
//! point itself and opens a `cp-obs` span around every call.  Nothing inside
//! the program is timed: spans the program opens on its own are dropped, and
//! only the benchmark's spans (names prefixed `bench:`) make up the per-layer
//! table.  Validation is split into its public constituents (`Patch::apply`,
//! `print_program`, `frontend`, `compile`, `cp_vm::run`); [`cross_check`]
//! then asks `cp_patch::validate` itself, outside the scenario's time, and
//! requires the same verdict.

use crate::stats::{quantile, ratio};
use cp_bytecode::{compile, CompiledProgram};
use cp_core::{
    Budgets, DiscoverConfig, DiscoverOutcome, ExprArena, FailedAttempt, Session, Trace,
    TransferError, TransferSpec, Verdict,
};
use cp_corpus::{ErrorClass, Scenario};
use cp_lang::pretty::print_program;
use cp_lang::{frontend, AnalyzedProgram, Patch, PatchAction};
use cp_obs::{Event, TraceData};
use cp_patch::insert::plan;
use cp_patch::{
    lower_guard, validate, Baseline, InputOutcome, Observation, PlannedPatch, VarRef, VarTable,
};
use cp_solver::translate::{TranslateError, TranslateStats};
use cp_symexpr::ExprRef;
use cp_vm::{run, RunConfig, Termination};
use std::collections::{BTreeMap, HashMap};

/// Prefix of the benchmark's own span names.
const PREFIX: &str = "bench:";

/// The layer (repository module) each benchmark span belongs to.
fn layer(span: &str) -> &'static str {
    match span {
        "frontend" => "frontend",
        "compile" => "compile",
        "record" => "record",
        "run" => "run",
        "checks" | "fold" => "symexpr",
        "discover" => "discover",
        "translate" => "solver",
        "plan" | "lower" | "baseline" | "validate" | "apply" | "print" | "validate.api" => "patch",
        _ => "sweep",
    }
}

fn span(name: &'static str) -> cp_obs::Span {
    cp_obs::open_span(name, None)
}

fn timed<T>(name: &'static str, work: impl FnOnce() -> T) -> T {
    let _span = span(name);
    work()
}

/// Work counters the replay reads off each layer's results.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub compile_instructions: u64,
    pub record_steps: u64,
    pub record_branches: u64,
    pub run_steps: u64,
    pub arena_peak_nodes: u64,
    pub discover_attempts: u64,
    pub discover_found: u64,
    pub discover_executions: u64,
    pub discover_generations: u64,
    pub discover_queries: u64,
    pub translate: TranslateStats,
    pub plans: u64,
    pub validate_attempts: u64,
    pub validate_accepted: u64,
    /// `SolverEscalation` events by rung: sampling, incremental, exhaustive.
    pub escalations: [u64; 3],
    /// Nanoseconds spent draining and aggregating the collector.
    pub obs_ns: u64,
}

impl Counts {
    pub fn merge(&mut self, other: &Counts) {
        self.compile_instructions += other.compile_instructions;
        self.record_steps += other.record_steps;
        self.record_branches += other.record_branches;
        self.run_steps += other.run_steps;
        self.arena_peak_nodes = self.arena_peak_nodes.max(other.arena_peak_nodes);
        self.discover_attempts += other.discover_attempts;
        self.discover_found += other.discover_found;
        self.discover_executions += other.discover_executions;
        self.discover_generations += other.discover_generations;
        self.discover_queries += other.discover_queries;
        add_stats(&mut self.translate, &other.translate);
        self.plans += other.plans;
        self.validate_attempts += other.validate_attempts;
        self.validate_accepted += other.validate_accepted;
        for (sum, n) in self.escalations.iter_mut().zip(other.escalations) {
            *sum += n;
        }
        self.obs_ns += other.obs_ns;
    }
}

fn add_stats(sum: &mut TranslateStats, stats: &TranslateStats) {
    sum.fields += stats.fields;
    sum.pairs += stats.pairs;
    sum.pruned_disjoint += stats.pruned_disjoint;
    sum.solver_calls += stats.solver_calls;
    sum.proved += stats.proved;
    sum.refuted += stats.refuted;
    sum.unknown += stats.unknown;
}

/// The validated patch a replay produced.
pub struct Accepted {
    pub site: String,
    pub patch: Patch,
    pub benign_after: Vec<InputOutcome>,
}

/// One validation attempt, kept for [`cross_check`].
struct Attempt {
    patch: Patch,
    verdict: Verdict,
    baseline: Baseline,
}

/// One replayed scenario.
pub struct Replayed {
    pub degraded: bool,
    pub error_input: Vec<u8>,
    pub result: Result<Accepted, String>,
    recipient: AnalyzedProgram,
    config: RunConfig,
    attempts: Vec<Attempt>,
}

fn compile_counted(
    analyzed: &AnalyzedProgram,
    counts: &mut Counts,
) -> Result<CompiledProgram, String> {
    let program = timed("bench:compile", || compile(analyzed)).map_err(|e| e.to_string())?;
    counts.compile_instructions += program
        .functions
        .iter()
        .map(|f| f.code.len() as u64)
        .sum::<u64>();
    Ok(program)
}

fn build_session(
    source: &str,
    stripped: bool,
    counts: &mut Counts,
) -> Result<(AnalyzedProgram, Session), String> {
    let analyzed = timed("bench:frontend", || frontend(source)).map_err(|e| e.to_string())?;
    let program = compile_counted(&analyzed, counts)?;
    let session = timed("bench:session", || {
        let builder = Session::builder()
            .program(program)
            .budgets(Budgets::default());
        if stripped {
            builder.stripped()
        } else {
            builder
        }
        .build()
    })
    .map_err(|e| e.to_string())?;
    Ok((analyzed, session))
}

fn record(session: &mut Session, input: &[u8], counts: &mut Counts) -> Result<Trace, String> {
    let trace =
        timed("bench:record", || session.record_guarded(input)).map_err(|e| e.to_string())?;
    counts.record_steps += trace.steps;
    counts.record_branches += trace.branches.len() as u64;
    Ok(trace)
}

fn run_counted(
    program: &CompiledProgram,
    input: &[u8],
    config: &RunConfig,
    counts: &mut Counts,
) -> InputOutcome {
    let result = timed("bench:run", || run(program, input, config));
    counts.run_steps += result.steps;
    InputOutcome {
        termination: result.termination,
        outputs: result.outputs,
    }
}

/// Replays `scenario` stage by stage, as `run_scenario` runs it.
pub fn replay(scenario: &Scenario, counts: &mut Counts) -> Result<Replayed, String> {
    let _root = span("bench:scenario");
    let (analyzed, mut recipient) = build_session(scenario.source, false, counts)?;

    let mut degraded = false;
    let error_input = if scenario.error_class == ErrorClass::OverflowIntoAllocation {
        counts.discover_attempts += 1;
        let outcome = timed("bench:discover", || {
            recipient.discover(scenario.benign_input, &DiscoverConfig::default())
        });
        match outcome {
            DiscoverOutcome::Found(found) => {
                counts.discover_found += 1;
                counts.discover_executions += found.executions as u64;
                counts.discover_generations += found.generations as u64;
                counts.discover_queries += found.solver_queries as u64;
                found.input
            }
            DiscoverOutcome::NoTargetReachable(report) => {
                counts.discover_executions += report.executions as u64;
                counts.discover_queries += report.solver_queries as u64;
                degraded = true;
                scenario.error_input.to_vec()
            }
        }
    } else {
        scenario.error_input.to_vec()
    };

    let (_, mut donor) = build_session(scenario.donor_source, true, counts)?;
    let donor_trace = record(&mut donor, &error_input, counts)?;
    let crash = record(&mut recipient, &error_input, counts)?;
    let spec = recipient.configure_spec(
        TransferSpec::new(&error_input, scenario.benign_corpus).with_action(scenario.patch_action),
    );
    let format = scenario.format();

    let mut attempts = Vec::new();
    let mut result = Err("donor performed no transferable check".to_string());
    for check in timed("bench:checks", || donor_trace.checks()) {
        let condition = timed("bench:checks", || check.condition());
        let folded = timed("bench:fold", || format.fold(&condition));
        match transfer(
            &analyzed,
            &folded,
            &crash.observation(),
            &spec,
            &mut attempts,
            counts,
        ) {
            Ok(accepted) => {
                result = Ok(accepted);
                break;
            }
            Err(error) => {
                let budget_tripped = matches!(error, TransferError::RecompileBudget { .. });
                result = Err(error.to_string());
                if budget_tripped {
                    break;
                }
            }
        }
    }
    let config = spec.config;
    counts.arena_peak_nodes = counts.arena_peak_nodes.max(ExprArena::node_count() as u64);
    Ok(Replayed {
        degraded,
        error_input,
        result,
        recipient: analyzed,
        config,
        attempts,
    })
}

/// `cp_patch::transfer`, one public call at a time.
fn transfer(
    recipient: &AnalyzedProgram,
    condition: &ExprRef,
    observation: &Observation<'_>,
    spec: &TransferSpec<'_>,
    attempts: &mut Vec<Attempt>,
    counts: &mut Counts,
) -> Result<Accepted, TransferError> {
    let fn_names: Vec<Option<String>> = recipient
        .program
        .functions
        .iter()
        .map(|f| Some(f.name.clone()))
        .collect();
    let table = timed("bench:plan", || {
        VarTable::from_observation(observation.var_values, &recipient.debug, &fn_names)
    });
    let translation = timed("bench:translate", || {
        spec.translator.translate_all(condition, &table.candidates)
    });
    match &translation {
        Ok(translation) => add_stats(&mut counts.translate, &translation.stats),
        Err(TranslateError::Unmatched { stats, .. }) => add_stats(&mut counts.translate, stats),
        Err(TranslateError::UnfoldedBytes { .. }) => {}
    }
    let translation = translation?;
    let plans = timed("bench:plan", || {
        plan(
            &translation,
            &table,
            observation,
            &fn_names,
            spec.max_attempts,
        )
    });
    counts.plans += plans.len() as u64;
    if plans.is_empty() {
        return Err(TransferError::NoViableSite {
            stats: translation.stats,
        });
    }

    let mut recompiles_left = spec.max_recompiles;
    if recompiles_left == 0 {
        return Err(TransferError::RecompileBudget {
            limit: spec.max_recompiles,
            attempts: Vec::new(),
        });
    }
    recompiles_left -= 1;
    let baseline = {
        let _span = span("bench:baseline");
        let program =
            compile_counted(recipient, counts).map_err(|error| TransferError::AllPlansFailed {
                attempts: vec![FailedAttempt {
                    site: plans[0].site.clone(),
                    verdict: Verdict::RecompileFailed { error },
                }],
            })?;
        Baseline {
            error: run_counted(&program, spec.error_input, &spec.config, counts),
            benign: spec
                .benign_corpus
                .iter()
                .map(|input| run_counted(&program, input, &spec.config, counts))
                .collect(),
        }
    };

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
        let guard = timed("bench:lower", || lower_guard(condition, &vars))?;
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
        counts.validate_attempts += 1;
        let (verdict, benign_after) = validate_split(recipient, &baseline, &patch, spec, counts);
        attempts.push(Attempt {
            patch: patch.clone(),
            verdict: verdict.clone(),
            baseline: baseline.clone(),
        });
        if verdict.is_validated() {
            counts.validate_accepted += 1;
            return Ok(Accepted {
                site: site.to_string(),
                patch,
                benign_after,
            });
        }
        rejected.push(FailedAttempt { site, verdict });
    }
    Err(TransferError::AllPlansFailed { attempts: rejected })
}

/// `cp_patch::validate`, split into its public constituents: the same
/// verdict rules, with the recompile and each run timed on their own.
fn validate_split(
    recipient: &AnalyzedProgram,
    baseline: &Baseline,
    patch: &Patch,
    spec: &TransferSpec<'_>,
    counts: &mut Counts,
) -> (Verdict, Vec<InputOutcome>) {
    let _span = span("bench:validate");
    let recompile_failed = |error: String| (Verdict::RecompileFailed { error }, Vec::new());
    let source = match timed("bench:apply", || patch.apply(&recipient.program)) {
        Ok(patched) => timed("bench:print", || print_program(&patched)),
        Err(error) => return recompile_failed(error.to_string()),
    };
    let reanalyzed = match timed("bench:frontend", || frontend(&source)) {
        Ok(reanalyzed) => reanalyzed,
        Err(error) => return recompile_failed(error.to_string()),
    };
    let program = match compile_counted(&reanalyzed, counts) {
        Ok(program) => program,
        Err(error) => return recompile_failed(error),
    };

    let error_after = run_counted(&program, spec.error_input, &spec.config, counts);
    let intercepted = match patch.action {
        PatchAction::Exit(status) => {
            error_after.termination == Termination::Exited(u64::from(status))
        }
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
        return (verdict, Vec::new());
    }

    let mut after = Vec::with_capacity(spec.benign_corpus.len());
    for (index, input) in spec.benign_corpus.iter().enumerate() {
        let outcome = run_counted(&program, input, &spec.config, counts);
        let identical = outcome == baseline.benign[index];
        after.push(outcome);
        if !identical {
            return (Verdict::BenignRegression { index }, after);
        }
    }
    (Verdict::Validated, after)
}

/// Re-runs every validation attempt of `replayed` through `Baseline::record`
/// and `cp_patch::validate` and requires the split's baseline and verdicts.
pub fn cross_check(replayed: &Replayed, scenario: &Scenario) -> Result<(), String> {
    let _span = span("bench:validate.api");
    let program = compile(&replayed.recipient).map_err(|e| e.to_string())?;
    let baseline = Baseline::record(
        &program,
        &replayed.error_input,
        scenario.benign_corpus,
        &replayed.config,
    );
    for attempt in &replayed.attempts {
        if attempt.baseline.error != baseline.error || attempt.baseline.benign != baseline.benign {
            return Err(format!(
                "{}: split baseline differs from Baseline::record",
                scenario.name
            ));
        }
        let report = validate(
            &replayed.recipient,
            &baseline,
            &attempt.patch,
            &replayed.error_input,
            scenario.benign_corpus,
            &replayed.config,
        );
        if report.verdict != attempt.verdict {
            return Err(format!(
                "{}: split verdict `{}` but validate says `{}`",
                scenario.name, attempt.verdict, report.verdict
            ));
        }
    }
    Ok(())
}

/// Durations of one span name.
#[derive(Debug, Default, Clone)]
struct SpanStats {
    durations: Vec<u64>,
    self_ns: u64,
}

/// Per-layer aggregation of the benchmark's spans.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    spans: BTreeMap<&'static str, SpanStats>,
    /// Recompile time inside validation: apply, print, frontend, compile.
    validate_recompile_ns: u64,
    /// Run time inside validation.
    validate_run_ns: u64,
}

impl Layers {
    /// Folds one drained collector into the table, and the solver escalation
    /// events into `counts`.
    pub fn absorb(&mut self, data: TraceData, counts: &mut Counts) {
        let spans: Vec<_> = data
            .spans
            .iter()
            .filter_map(|s| s.name.strip_prefix(PREFIX).map(|name| (name, s)))
            .collect();
        let names: HashMap<u64, &str> = spans.iter().map(|(name, s)| (s.id, *name)).collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for (_, s) in &spans {
            if let Some(parent) = s.parent.filter(|p| names.contains_key(p)) {
                *child_ns.entry(parent).or_default() += s.duration_ns();
            }
        }
        for (name, s) in &spans {
            let duration = s.duration_ns();
            let stats = self.spans.entry(name).or_default();
            stats.durations.push(duration);
            stats.self_ns += duration.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            if s.parent.and_then(|p| names.get(&p)) == Some(&"validate") {
                match *name {
                    "run" => self.validate_run_ns += duration,
                    _ => self.validate_recompile_ns += duration,
                }
            }
        }
        for record in data.events {
            if let Event::SolverEscalation { stage, .. } = record.event {
                match stage.as_str() {
                    "sampling" => counts.escalations[0] += 1,
                    "incremental" => counts.escalations[1] += 1,
                    "exhaustive" => counts.escalations[2] += 1,
                    _ => {}
                }
            }
        }
    }

    pub fn merge(&mut self, other: &Layers) {
        for (name, stats) in &other.spans {
            let sum = self.spans.entry(name).or_default();
            sum.durations.extend_from_slice(&stats.durations);
            sum.self_ns += stats.self_ns;
        }
        self.validate_recompile_ns += other.validate_recompile_ns;
        self.validate_run_ns += other.validate_run_ns;
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.durations.iter().sum())
    }

    fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.durations.len() as u64)
    }

    fn self_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.self_ns)
    }

    /// Replayed scenarios.
    pub fn scenarios(&self) -> u64 {
        self.calls("scenario")
    }

    /// Share of scenario time that falls inside a named layer span.
    pub fn coverage(&self) -> f64 {
        let total = self.total_ns("scenario") as f64;
        ratio(total - self.self_ns("scenario") as f64, total)
    }

    /// Share of scenario time spent (self time) in the named spans.
    pub fn self_share(&self, names: &[&str]) -> f64 {
        let sum: u64 = names.iter().map(|name| self.self_ns(name)).sum();
        ratio(sum as f64, self.total_ns("scenario") as f64)
    }

    /// The per-layer table: count, total, self time, p50 and p95 per span.
    pub fn table(&self) -> String {
        let scenario_ns = self.total_ns("scenario") as f64;
        let mut out = format!(
            "{:<14} {:<9} {:>9} {:>11} {:>11} {:>10} {:>10} {:>7}\n",
            "span", "layer", "count", "total-ms", "self-ms", "p50-us", "p95-us", "self%"
        );
        for (name, stats) in &self.spans {
            let mut sorted: Vec<f64> = stats.durations.iter().map(|&d| d as f64).collect();
            sorted.sort_by(f64::total_cmp);
            out.push_str(&format!(
                "{:<14} {:<9} {:>9} {:>11.3} {:>11.3} {:>10.2} {:>10.2} {:>7.2}\n",
                name,
                layer(name),
                stats.durations.len(),
                sorted.iter().sum::<f64>() / 1e6,
                stats.self_ns as f64 / 1e6,
                quantile(&sorted, 0.50) / 1e3,
                quantile(&sorted, 0.95) / 1e3,
                100.0 * ratio(stats.self_ns as f64, scenario_ns),
            ));
        }
        out
    }

    /// Self-time share per layer, largest first.
    pub fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, stats) in &self.spans {
            if *name != "validate.api" {
                *by_layer.entry(layer(name)).or_default() += stats.self_ns;
            }
        }
        let total = self.total_ns("scenario") as f64;
        let mut shares: Vec<_> = by_layer
            .into_iter()
            .map(|(layer, ns)| (layer, ratio(ns as f64, total)))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    /// Per-scenario (or per-call, where stated) layer metrics.
    pub fn metrics(&self, counts: &Counts) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.scenarios().max(1) as f64;
        let us = |name: &str| self.total_ns(name) as f64 / 1e3 / n;
        let per = |count: u64| count as f64 / n;
        let t = &counts.translate;
        vec![
            ("frontend.us", us("frontend"), "us"),
            ("frontend.calls", per(self.calls("frontend")), "count"),
            ("compile.us", us("compile"), "us"),
            ("compile.calls", per(self.calls("compile")), "count"),
            (
                "compile.instructions",
                per(counts.compile_instructions),
                "count",
            ),
            ("validate.us", us("validate"), "us"),
            (
                "validate.recompile_us",
                self.validate_recompile_ns as f64 / 1e3 / n,
                "us",
            ),
            (
                "validate.run_us",
                self.validate_run_ns as f64 / 1e3 / n,
                "us",
            ),
            ("validate.attempts", per(counts.validate_attempts), "count"),
            (
                "validate.accept_ratio",
                ratio(
                    counts.validate_accepted as f64,
                    counts.validate_attempts as f64,
                ),
                "ratio",
            ),
            (
                "validate.api_us",
                ratio(
                    self.total_ns("validate.api") as f64 / 1e3,
                    self.calls("validate.api") as f64,
                ),
                "us",
            ),
            ("baseline.us", us("baseline"), "us"),
            ("record.us", us("record"), "us"),
            ("record.calls", per(self.calls("record")), "count"),
            ("record.steps", per(counts.record_steps), "count"),
            ("record.branches", per(counts.record_branches), "count"),
            ("run.us", us("run"), "us"),
            ("run.calls", per(self.calls("run")), "count"),
            ("run.steps", per(counts.run_steps), "count"),
            ("arena.peak_nodes", counts.arena_peak_nodes as f64, "count"),
            ("checks.us", us("checks"), "us"),
            ("fold.us", us("fold"), "us"),
            ("discover.us", us("discover"), "us"),
            (
                "discover.executions",
                per(counts.discover_executions),
                "count",
            ),
            (
                "discover.generations",
                per(counts.discover_generations),
                "count",
            ),
            (
                "discover.solver_queries",
                per(counts.discover_queries),
                "count",
            ),
            (
                "discover.found_ratio",
                ratio(
                    counts.discover_found as f64,
                    counts.discover_attempts as f64,
                ),
                "ratio",
            ),
            ("translate.us", us("translate"), "us"),
            ("translate.pairs", per(t.pairs as u64), "count"),
            ("translate.pruned", per(t.pruned_disjoint as u64), "count"),
            (
                "translate.solver_calls",
                per(t.solver_calls as u64),
                "count",
            ),
            (
                "translate.proved_ratio",
                ratio(t.proved as f64, t.solver_calls as f64),
                "ratio",
            ),
            (
                "solver.escalations.sampling",
                per(counts.escalations[0]),
                "count",
            ),
            (
                "solver.escalations.incremental",
                per(counts.escalations[1]),
                "count",
            ),
            (
                "solver.escalations.exhaustive",
                per(counts.escalations[2]),
                "count",
            ),
            ("plan.us", us("plan"), "us"),
            ("plan.plans", per(counts.plans), "count"),
            ("lower.us", us("lower"), "us"),
            ("session.us", us("session"), "us"),
            ("obs.us", counts.obs_ns as f64 / 1e3 / n, "us"),
            ("trace.coverage", self.coverage(), "ratio"),
        ]
    }
}
