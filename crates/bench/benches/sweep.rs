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
//! Emitted counters: the sweep's solver-verdict-memo hits and hit rate, its
//! misses on a pass that cannot race, and the peak arena node count.  The
//! sweep's own misses are not deterministic: two workers can both miss one
//! key before either records it.  So `solver_memo_misses` comes from the
//! twenty distinct variants run once more, sequentially, on an emptied memo
//! — the number of distinct circuit families.  It and `peak_arena_nodes`
//! (one scenario's epoch) are deterministic, so `bench-compare` gates them
//! tightly; wall time for a 120-scenario quick batch is not comparable to
//! the 1,000-scenario baseline and stays ungated.

use cp_bench::harness::{emit_with, quick_mode, section, Measurement};
use cp_core::ExprArena;
use cp_corpus::pipeline::{figure8, run_scenarios, ScenarioOutcome};
use cp_corpus::synthetic::synthetic_scenarios;
use std::time::Instant;

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
        let outcomes = run_scenarios(&scenarios, workers);
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
    let sequential = figure8(&run_scenarios(slice, 1));
    let parallel = figure8(&run_scenarios(slice, workers));
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
    // The distinct variants on one worker and an emptied memo: each circuit
    // family misses exactly once.
    cp_solver::reset_solver_memo();
    let variants = synthetic_scenarios(20);
    assert_all_healthy(&run_scenarios(&variants, 1));
    let distinct_misses = cp_solver::solver_memo_stats().misses;
    println!("solver verdict memo, twenty variants sequentially: {distinct_misses} misses");

    let batch_wall = Measurement::from_samples("sweep/batch_wall", batch_nanos);
    println!("{}", batch_wall.report());

    emit_with(
        "sweep",
        &[batch_wall],
        &[
            ("scenarios", scenario_count as f64),
            ("workers", workers as f64),
            ("solver_memo_hits", stats.hits as f64),
            ("solver_memo_misses", distinct_misses as f64),
            ("solver_memo_hit_rate", stats.hit_rate()),
            (
                "peak_arena_nodes",
                peaks.last().copied().unwrap_or(0) as f64,
            ),
        ],
    );
}
