//! Compilation benchmark: AST → bytecode through both backends.
//!
//! The IR pipeline (lower → optimize → stackify) replaced direct AST
//! emission as the default compiler, so its wall time is on every
//! `Session::build` and every patch-validation recompile.  This bench times
//! both backends over the corpus scenarios plus a loop-heavy checksum
//! program, and records what the IR buys over the direct compiler as
//! counters: emitted instruction counts of each.

use cp_bench::harness::{bench, emit_with, section};
use cp_bytecode::{compile, compile_direct, CompileError, CompiledProgram};
use cp_lang::{frontend, AnalyzedProgram};

/// The `long_trace` bench's checksum donor — the loop-heavy shape whose
/// per-iteration fallthrough jumps the optimizer elides.
const CHECKSUM: &str = r#"
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

/// Every workload source: the five corpus recipients, their donors, and the
/// checksum program.
fn workload() -> Vec<AnalyzedProgram> {
    let mut sources: Vec<&str> = Vec::new();
    for scenario in cp_corpus::scenarios() {
        sources.push(scenario.source);
        sources.push(scenario.donor_source);
    }
    sources.push(CHECKSUM);
    sources
        .into_iter()
        .map(|s| frontend(s).expect("workload source compiles"))
        .collect()
}

/// Total instruction count `backend` emits across the workload.
fn instructions(
    programs: &[AnalyzedProgram],
    backend: fn(&AnalyzedProgram) -> Result<CompiledProgram, CompileError>,
) -> usize {
    programs
        .iter()
        .map(|p| backend(p).expect("workload compiles").instruction_count())
        .sum()
}

fn main() {
    section("compile (11 programs: corpus pairs + checksum loop)");
    let programs = workload();

    let results = vec![
        bench("compile/direct", 3, 20, || {
            instructions(&programs, compile_direct)
        }),
        bench("compile/ir-opt", 3, 20, || instructions(&programs, compile)),
    ];
    for m in &results {
        println!("{}", m.report());
    }

    let direct = instructions(&programs, compile_direct);
    let opt = instructions(&programs, compile);
    println!("emitted instructions: {direct} direct, {opt} through the IR");
    assert!(
        opt < direct,
        "the IR must emit fewer instructions than the direct compiler ({opt} >= {direct})"
    );
    emit_with(
        "compile",
        &results,
        &[
            ("emitted_instructions_direct", direct as f64),
            ("emitted_instructions_opt", opt as f64),
        ],
    );
}
