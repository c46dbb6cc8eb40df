//! Long-trace recording benchmark: a loop-heavy donor recording >10k branch
//! events over a multi-KB input.
//!
//! Every loop iteration extends the running `sum` by a few tape entries, so
//! by the end of the run the trace holds thousands of branch conditions
//! whose trees share almost all of their structure.  Recording appends
//! entries, the in-scope variable values included, and interns nothing;
//! the trace interns an entry when a query reads it.  `recorded_nodes` is
//! the arena epoch's node count right after one recording — 0, and gated,
//! so a recorder that interns again fails `bench-compare`.  Per-check
//! queries that re-walk the condition trees (`Check::raw_ops`, `support`)
//! resolve each condition once and then read the arena's memoised per-node
//! metadata.
//!
//! Cases:
//! * `record`        — instrumented execution only
//! * `record+checks` — record, then extract checks and their size/support
//!   metrics, which resolves the conditions a donor analysis reads
//! * `plain`         — `cp_vm::run` on the same input, which builds no
//!   shadow state: the interpreter's own speed, reported per executed
//!   instruction as `plain_ns_per_step`
//!
//! The two recording cases are arms of one interleaved comparison, each call
//! in an arena epoch of its own, so neither finds nodes or `simplify`
//! results that an earlier call interned and neither always runs first.

use cp_bench::harness::{bench, emit_with, interleave, section, Measurement};
use cp_core::{ArenaEpoch, Budgets, ExprArena, Session, Trace};
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

fn donor() -> Session {
    Session::builder()
        .source(SOURCE)
        .budgets(Budgets::default().vm_steps(10_000_000))
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

fn main() {
    section("long trace (loop-heavy donor, >10k recorded branches)");
    let input = input();
    let mut session = donor();

    // Sanity-check the workload shape once, outside the timed region, and
    // count what one recording interns in an epoch of its own.
    let epoch = ArenaEpoch::begin();
    let trace = session.record_with_input(&input);
    let recorded_nodes = ExprArena::node_count();
    assert!(trace.last_error().is_none(), "benign input must run clean");
    let tainted = trace.branches.iter().filter(|b| b.is_tainted()).count();
    println!(
        "branches: {} total, {} tainted, input {} bytes",
        trace.branches.len(),
        tainted,
        input.len()
    );
    assert!(trace.branches.len() >= 10_000, "workload must be long");
    println!(
        "recording interned {recorded_nodes} nodes for {} tape entries",
        trace.tape_len()
    );
    drop(trace);
    drop(epoch);

    let mut record = || {
        let _epoch = ArenaEpoch::begin();
        black_box(session.record_with_input(&input));
    };
    let mut reader = donor();
    let mut record_and_read = || {
        let _epoch = ArenaEpoch::begin();
        let trace = reader.record_with_input(&input);
        black_box(query_checks(&trace));
    };
    let samples = interleave(2, 20, &mut [&mut record, &mut record_and_read]);
    let mut results: Vec<Measurement> = ["long_trace/record", "long_trace/record+checks"]
        .iter()
        .zip(samples)
        .map(|(name, samples)| Measurement::from_samples(name, samples))
        .collect();

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
            ("recorded_nodes", recorded_nodes as f64),
        ],
    );
}
