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
//! the sweep across the worker pool (default: one worker); rows come back
//! in scenario order either way.
//!
//! Observability flags:
//!
//! - `--trace` subscribes a collector for the sweep and prints the span
//!   tree (with inlined events) after the report.
//! - `--trace-out PATH` writes the full trace — spans, events and a metric
//!   snapshot — as JSONL to `PATH`.

use cp_corpus::pipeline::{figure8_with, run_all, Figure8Options, ScenarioStatus};
use cp_obs::Collector;

fn main() {
    let mut check = false;
    let mut discover = false;
    let mut trace = false;
    let mut trace_out: Option<String> = None;
    let mut workers = 1;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--discover" => discover = true,
            "--trace" => trace = true,
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a path"));
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--workers needs a positive number");
            }
            other => {
                eprintln!(
                    "fig8: unknown flag {other} \
                     (known: --check --discover --trace --trace-out PATH --workers N)"
                );
                std::process::exit(2);
            }
        }
    }

    let collector = (trace || trace_out.is_some()).then(Collector::new);
    let outcomes = {
        let _sub = collector.as_ref().map(|c| c.subscribe());
        run_all(workers)
    };
    let trace_data = collector.as_ref().map(|c| c.take());

    let table_options = Figure8Options {
        runtime_columns: true,
    };
    print!("{}", figure8_with(&outcomes, &table_options));

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
        println!();
        let mut discovered = 0usize;
        let mut regressed = 0usize;
        for outcome in outcomes.iter().filter(|o| o.discoverable()) {
            match &outcome.discovery {
                Some(found) => {
                    discovered += 1;
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
                    println!(
                        "{}: error input NOT discovered — generator regressed",
                        outcome.scenario.name
                    );
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

    if failed.is_empty() {
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
