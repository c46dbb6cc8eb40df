//! Measures the overhead of instrumented (taint-shadowed, trace-recorded)
//! execution over a bare run of the same program — the reproduction's
//! equivalent of the paper's Valgrind instrumentation cost.
//!
//! The bare side is `cp_vm::run`, which builds no shadow state, so the
//! ratio is the whole instrumentation cost: shadow expressions, observers
//! and the recorded trace.

use cp_bench::harness::{bench, emit, section};
use cp_bytecode::compile;
use cp_core::Session;
use cp_lang::frontend;
use cp_vm::{run, RunConfig};

fn main() {
    section("taint overhead (bare VM vs recorded Session)");
    let mut results = Vec::new();
    for scenario in cp_corpus::scenarios() {
        let program = compile(&frontend(scenario.source).unwrap()).unwrap();
        let bare = bench(&format!("{}/bare", scenario.name), 10, 200, || {
            run(&program, scenario.benign_input, &RunConfig::default())
        });
        let mut session = Session::builder().program(program.clone()).build().unwrap();
        let recorded = bench(&format!("{}/recorded", scenario.name), 10, 200, || {
            session.record_with_input(scenario.benign_input)
        });
        println!("{}", bare.report());
        println!("{}", recorded.report());
        println!(
            "{:<40} {:>11.2}x",
            format!("{}/overhead", scenario.name),
            recorded.ns_per_iter / bare.ns_per_iter
        );
        results.push(bare);
        results.push(recorded);
    }
    emit("taint_overhead", &results);
}
