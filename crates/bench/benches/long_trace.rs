//! Long-trace recording benchmark: a loop-heavy donor recording >10k branch
//! events over a multi-KB input.
//!
//! This is the workload the expression-arena work targets: every loop
//! iteration extends the running `sum` expression by a few nodes, so by the
//! end of the run the trace holds thousands of branch conditions whose trees
//! share almost all of their structure.  Per-branch queries that re-walk
//! those trees (`branches_influenced_by`, `Check::raw_ops`, `support`) are
//! quadratic in the trace length without memoised per-node metadata; with the
//! hash-consed arena they are O(1) lookups.
//!
//! Cases:
//! * `record`          — instrumented execution only
//! * `record+checks`   — record, then extract checks and their size/support
//!   metrics (the tentpole acceptance metric)
//! * `record+influence`— record, then filter branches by input offsets
//! * `full`            — everything a donor analysis touches
//! * `plain`           — `cp_vm::run` on the same input, which builds no
//!   shadow state: the interpreter's own speed, reported per executed
//!   instruction as `plain_ns_per_step`

use cp_bench::harness::{bench, emit_with, section};
use cp_core::{Session, Trace};
use std::hint::black_box;

/// Loop iteration count; each iteration records two tainted branches.
const ITERATIONS: usize = 5120;

/// A checksum-style donor: a tainted loop bound, a running sum over every
/// input byte, a guard branch per iteration and a final allocation guarded by
/// a deep product check.
const SOURCE: &str = r#"
    fn main() -> u32 {
        var limit: u64 = ((input_byte(0) as u64) << 8) | (input_byte(1) as u64);
        var sum: u32 = 0;
        var i: u64 = 0;
        while (i < limit) {
            sum = sum + (input_byte(i + 2) as u32);
            if (sum > 16000000) { exit(1); }
            i = i + 1;
        }
        if (((sum as u64) * limit) > 4000000000) { exit(2); }
        var buf: u64 = malloc((sum as u64) + 16);
        output(sum as u64);
        return 0;
    }
"#;

fn input() -> Vec<u8> {
    let mut bytes = vec![(ITERATIONS >> 8) as u8, (ITERATIONS & 0xFF) as u8];
    bytes.extend((0..ITERATIONS).map(|i| (i % 251) as u8));
    bytes
}

fn session() -> Session {
    Session::builder()
        .source(SOURCE)
        .max_steps(10_000_000)
        .build()
        .expect("long-trace donor compiles")
}

fn query_checks(trace: &Trace) -> (usize, usize, usize) {
    let checks = trace.checks();
    let raw: usize = checks.iter().map(|c| c.raw_ops()).sum();
    let simplified: usize = checks.iter().map(|c| c.simplified_ops()).sum();
    let support: usize = checks.iter().map(|c| c.support().len()).sum();
    (raw, simplified, support)
}

fn query_influence(trace: &Trace) -> usize {
    trace.branches_influenced_by(&[0]).len()
        + trace.branches_influenced_by(&[2, 3, 4]).len()
        + trace.branches_influenced_by(&[ITERATIONS + 1]).len()
        + trace.branches_influenced_by(&[usize::MAX]).len()
}

fn main() {
    section("long trace (loop-heavy donor, >10k recorded branches)");
    let input = input();
    let mut session = session();

    // Sanity-check the workload shape once, outside the timed region.
    let trace = session.record_with_input(&input);
    assert!(trace.last_error().is_none(), "benign input must run clean");
    let tainted = trace.branches.iter().filter(|b| b.is_tainted()).count();
    println!(
        "branches: {} total, {} tainted, input {} bytes",
        trace.branches.len(),
        tainted,
        input.len()
    );
    assert!(trace.branches.len() >= 10_000, "workload must be long");
    drop(trace);

    let mut results = Vec::new();
    results.push(bench("long_trace/record", 1, 5, || {
        session.record_with_input(&input)
    }));
    results.push(bench("long_trace/record+checks", 1, 5, || {
        let trace = session.record_with_input(&input);
        black_box(query_checks(&trace))
    }));
    results.push(bench("long_trace/record+influence", 1, 5, || {
        let trace = session.record_with_input(&input);
        black_box(query_influence(&trace))
    }));
    results.push(bench("long_trace/full", 1, 5, || {
        let trace = session.record_with_input(&input);
        black_box((query_checks(&trace), query_influence(&trace)))
    }));

    // What the IR buys on this loop over the direct compiler: executed
    // instruction counts of the same source through each backend.
    let analyzed = cp_lang::frontend(SOURCE).expect("donor compiles");
    let direct = cp_bytecode::compile_direct(&analyzed).expect("donor compiles");
    let opt = cp_bytecode::compile(&analyzed).expect("donor compiles");
    let config = cp_vm::RunConfig {
        max_steps: 10_000_000,
        ..cp_vm::RunConfig::default()
    };
    let direct_steps = cp_vm::run(&direct, &input, &config).steps;
    let opt_steps = cp_vm::run(&opt, &input, &config).steps;
    println!("executed instructions: {direct_steps} direct, {opt_steps} through the IR");
    assert!(
        opt_steps <= direct_steps,
        "IR code must execute no more instructions than direct code ({opt_steps} > {direct_steps})"
    );
    let plain = bench("long_trace/plain", 10, 200, || {
        cp_vm::run(&opt, black_box(&input), &config)
    });
    let plain_ns_per_step = plain.median_ns / opt_steps as f64;
    results.push(plain);
    for m in &results {
        println!("{}", m.report());
    }
    println!("plain run: {plain_ns_per_step:.2} ns per executed instruction");
    emit_with(
        "long_trace",
        &results,
        &[
            ("executed_steps_direct", direct_steps as f64),
            ("executed_steps_opt", opt_steps as f64),
            ("plain_ns_per_step", plain_ns_per_step),
        ],
    );
}
