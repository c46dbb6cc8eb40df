//! Figure 8 report: every corpus scenario through the full pipeline —
//! record → discover → translate → insert → validate — with the columns the
//! paper reports: how the error input was discovered (generations and
//! executions of the goal-directed search), check size before/after
//! simplification, the chosen insertion point, the patch action, the benign
//! corpus size and the validation verdict (including the accepted patch
//! itself), plus per-scenario wall time and peak arena nodes read back from
//! the `cp-obs` metrics registry.
//!
//! Each row carries a `status` column: `ok`, `degraded` (the patch
//! validated but a recoverable stage failure forced a fallback, e.g.
//! discovery exhausted its budget and the hand-written error input was
//! used) or `failed` (no validated patch; the detail column carries the
//! typed stage error).  The sweep itself never aborts: `run_all` isolates
//! every scenario, so one poisoned scenario is one `failed` row.
//!
//! `--check` exits non-zero unless every scenario validates.  `--discover`
//! additionally requires every overflow-into-allocation scenario to have
//! *derived* its error input via the solver-driven generator (and prints the
//! derived inputs); the CI `discover` job runs both, which gates the
//! end-to-end path and the input generation stage.  `--workers N` shards
//! the sweep across the worker pool (default: sequential, or the
//! `CP_SWEEP_WORKERS` environment variable); rows come back in scenario
//! order either way.
//!
//! Observability flags:
//!
//! - `--json` replaces the human table with one JSONL object per scenario
//!   (`"type":"fig8_row"`) and a closing `"type":"fig8_summary"` line, in
//!   the same dialect as the trace export.
//! - `--trace` subscribes a collector for the sweep and prints the span
//!   tree (with inlined events) after the report.
//! - `--trace-out PATH` writes the full trace — spans, events and a metric
//!   snapshot — as JSONL to `PATH`.

use cp_corpus::pipeline::{
    figure8_with, run_all_with, Figure8Options, ScenarioOutcome, ScenarioStatus, SweepOptions,
};
use cp_obs::export::JsonLine;
use cp_obs::metrics::{self, MetricValue};
use cp_obs::Collector;

/// The per-scenario gauge the sweep published, if this process swept it.
fn scenario_gauge(metric: &str, scenario: &str) -> Option<u64> {
    match metrics::find(&format!("{metric}{{{scenario}}}")) {
        Some(MetricValue::Gauge(value)) if value > 0 => Some(value),
        _ => None,
    }
}

/// One `"type":"fig8_row"` JSONL object mirroring the table row.
fn json_row(outcome: &ScenarioOutcome) -> String {
    let name = outcome.scenario.name;
    let mut line = JsonLine::new()
        .str("type", "fig8_row")
        .str("scenario", name)
        .str("class", &format!("{:?}", outcome.scenario.error_class))
        .str("status", outcome.status.label());
    if let ScenarioStatus::Degraded { reason } = &outcome.status {
        line = line.str("degraded_reason", reason.code());
    }
    if let Some(found) = &outcome.discovery {
        line = line
            .num("discovery_generations", found.generations as u64)
            .num("discovery_executions", found.executions as u64)
            .num("discovery_solver_queries", found.solver_queries as u64);
    }
    line = line
        .opt_num("raw_ops", outcome.raw_ops.map(|n| n as u64))
        .opt_num("simplified_ops", outcome.simplified_ops.map(|n| n as u64));
    match &outcome.result {
        Ok(transfer) => {
            let action = match transfer.patch.action {
                cp_lang::PatchAction::Exit(_) => "exit",
                cp_lang::PatchAction::ReturnZero => "return0",
            };
            line = line
                .str("insertion", &transfer.site.to_string())
                .str("action", action)
                .num("benign", transfer.report.benign.len() as u64)
                .num("tries", transfer.attempts as u64)
                .str("patch", &transfer.patch.render());
        }
        Err(failure) => {
            line = line.str("error", failure);
        }
    }
    line.opt_num("wall_ns", scenario_gauge("scenario.wall_ns", name))
        .opt_num("arena_nodes", scenario_gauge("scenario.arena_nodes", name))
        .finish()
}

fn main() {
    let mut check = false;
    let mut discover = false;
    let mut json = false;
    let mut trace = false;
    let mut trace_out: Option<String> = None;
    let mut options = SweepOptions::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--discover" => discover = true,
            "--json" => json = true,
            "--trace" => trace = true,
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a path"));
            }
            "--workers" => {
                let workers = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--workers needs a positive number");
                options = SweepOptions::with_workers(workers);
            }
            other => {
                eprintln!(
                    "fig8: unknown flag {other} \
                     (known: --check --discover --json --trace --trace-out PATH --workers N)"
                );
                std::process::exit(2);
            }
        }
    }

    let collector = (trace || trace_out.is_some()).then(Collector::new);
    let outcomes = {
        let _sub = collector.as_ref().map(|c| c.subscribe());
        run_all_with(options)
    };
    let trace_data = collector.as_ref().map(|c| c.take());

    if json {
        for outcome in &outcomes {
            println!("{}", json_row(outcome));
        }
    } else {
        let table_options = Figure8Options {
            runtime_columns: true,
        };
        print!("{}", figure8_with(&outcomes, &table_options));
    }

    if let Some(data) = &trace_data {
        if let Some(path) = &trace_out {
            std::fs::write(path, data.to_jsonl_with_metrics())
                .unwrap_or_else(|e| panic!("fig8: writing {path}: {e}"));
        }
        if trace {
            println!("\n{}", data.render_tree().trim_end());
        }
    }

    let mut failed: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.validated())
        .map(|o| o.scenario.name.to_string())
        .collect();
    let degraded = outcomes
        .iter()
        .filter(|o| matches!(o.status, ScenarioStatus::Degraded { .. }))
        .count();

    if discover {
        if !json {
            println!();
        }
        let mut discovered = 0usize;
        let mut regressed = 0usize;
        for outcome in outcomes.iter().filter(|o| o.discoverable()) {
            match &outcome.discovery {
                Some(found) => {
                    discovered += 1;
                    if json {
                        continue;
                    }
                    let hex: Vec<String> = found.input.iter().map(|b| format!("{b:02x}")).collect();
                    println!(
                        "{}: discovered [{}] in {} generation(s), {} execution(s), {} solver quer{}",
                        outcome.scenario.name,
                        hex.join(" "),
                        found.generations,
                        found.executions,
                        found.solver_queries,
                        if found.solver_queries == 1 { "y" } else { "ies" },
                    );
                }
                None => {
                    // Already counted via the !validated() filter above —
                    // a scenario whose discovery fails never validates.
                    regressed += 1;
                    if !json {
                        println!(
                            "{}: error input NOT discovered — generator regressed",
                            outcome.scenario.name
                        );
                    }
                }
            }
        }
        // Coverage only fails on its own when no per-scenario regression
        // explains it: the corpus itself lost its discoverable scenarios.
        if discovered < 2 && regressed == 0 {
            failed.push(format!(
                "discovery coverage ({discovered} scenario(s) derived an input, need >= 2)"
            ));
        }
    }

    if json {
        let summary = JsonLine::new()
            .str("type", "fig8_summary")
            .num("scenarios", outcomes.len() as u64)
            .num("degraded", degraded as u64)
            .num("failed", failed.len() as u64)
            .finish();
        println!("{summary}");
    } else if failed.is_empty() {
        if degraded > 0 {
            println!(
                "\nall {} scenarios validated ({degraded} degraded)",
                outcomes.len()
            );
        } else {
            println!("\nall {} scenarios validated", outcomes.len());
        }
    } else {
        println!(
            "\n{} scenario(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
    }
    if check && !failed.is_empty() {
        std::process::exit(1);
    }
}
