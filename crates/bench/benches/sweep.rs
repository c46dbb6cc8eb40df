//! The batch-sweep throughput bench: a 1,000-scenario synthetic corpus
//! through the full record→discover→translate→insert→validate loop, sharded
//! across the worker pool.
//!
//! Beyond wall time this bench is the memory-flatness gate for the arena
//! epochs: it runs several identical batches back to back and asserts the
//! process-wide peak arena node count after the last batch equals the peak
//! after the first — a sweep that accreted expressions across scenarios
//! (the pre-epoch behaviour) grows the peak monotonically and fails here.
//! It also asserts every batch's Figure 8 table is byte-identical, and that
//! a parallel sweep reproduces the sequential table byte for byte.
//!
//! Emitted counters: solver-verdict-memo hits, misses and hit rate, and the
//! peak arena node count.  `solver_memo_misses` and `peak_arena_nodes` are
//! deterministic — misses count distinct circuit families and the peak
//! counts one scenario's epoch — so `bench-compare` gates them tightly; wall
//! time for a 120-scenario quick batch is not comparable to the
//! 1,000-scenario baseline and stays ungated.

use cp_bench::harness::{emit_with, quick_mode, section, Measurement};
use cp_core::ExprArena;
use cp_corpus::pipeline::{figure8, run_scenarios, ScenarioOutcome, SweepOptions};
use cp_corpus::synthetic::synthetic_scenarios;
use std::time::Instant;

/// Nearest-rank `p`-quantile of an ascending-sorted sample set.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn workers() -> usize {
    std::env::var("CP_SWEEP_WORKERS")
        .ok()
        .and_then(|raw| raw.parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        })
}

fn assert_all_healthy(outcomes: &[ScenarioOutcome]) {
    for outcome in outcomes {
        assert!(
            outcome.status.is_healthy(),
            "{}: {:?}",
            outcome.scenario.name,
            outcome.status
        );
    }
}

fn main() {
    let scenario_count = if quick_mode() { 120 } else { 1000 };
    let batches = if quick_mode() { 2 } else { 4 };
    let workers = workers();
    section(&format!(
        "batch sweep: {scenario_count} synthetic scenarios x {batches} batches, {workers} worker(s)"
    ));

    cp_solver::reset_solver_memo();
    let scenarios = synthetic_scenarios(scenario_count);

    let mut tables: Vec<String> = Vec::new();
    let mut peaks: Vec<u64> = Vec::new();
    let mut batch_nanos: Vec<f64> = Vec::new();
    for batch in 0..batches {
        let started = Instant::now();
        let outcomes = run_scenarios(&scenarios, SweepOptions::with_workers(workers));
        let nanos = started.elapsed().as_nanos() as f64;
        assert_all_healthy(&outcomes);
        tables.push(figure8(&outcomes));
        peaks.push(ExprArena::process_peak_nodes());
        batch_nanos.push(nanos);
        println!(
            "batch {batch}: {:>8.1} ms  ({:.1} scenarios/ms)  peak arena nodes {}",
            nanos / 1e6,
            scenario_count as f64 / (nanos / 1e6),
            peaks[batch],
        );
    }

    // Flat memory: the peak is a process-wide high-water mark, so equality
    // between the first and last batch means later batches allocated no more
    // than the first — the epochs reclaimed everything in between.
    assert_eq!(
        peaks.first(),
        peaks.last(),
        "peak arena nodes grew across identical batches — the sweep leaks expressions"
    );
    assert!(
        tables.windows(2).all(|pair| pair[0] == pair[1]),
        "identical batches produced different Figure 8 tables"
    );

    // Parallelism must be invisible in the output: a slice of the sweep run
    // sequentially and with the pool produces byte-identical tables.
    let slice = &scenarios[..scenario_count.min(60)];
    let sequential = figure8(&run_scenarios(slice, SweepOptions::sequential()));
    let parallel = figure8(&run_scenarios(slice, SweepOptions::with_workers(workers)));
    assert_eq!(
        sequential, parallel,
        "the parallel sweep diverged from the sequential one"
    );

    let stats = cp_solver::solver_memo_stats();
    println!(
        "solver verdict memo: {} hits / {} misses ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );

    batch_nanos.sort_by(|a, b| a.total_cmp(b));
    let batch_wall = Measurement {
        name: "sweep/batch_wall".into(),
        iters: batches as u32,
        ns_per_iter: batch_nanos.iter().sum::<f64>() / batch_nanos.len() as f64,
        median_ns: percentile(&batch_nanos, 0.50),
        p95_ns: percentile(&batch_nanos, 0.95),
    };
    println!("{}", batch_wall.report());

    emit_with(
        "sweep",
        &[batch_wall],
        &[
            ("scenarios", scenario_count as f64),
            ("workers", workers as f64),
            ("solver_memo_hits", stats.hits as f64),
            ("solver_memo_misses", stats.misses as f64),
            ("solver_memo_hit_rate", stats.hit_rate()),
            (
                "peak_arena_nodes",
                peaks.last().copied().unwrap_or(0) as f64,
            ),
        ],
    );
}
