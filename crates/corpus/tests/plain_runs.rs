//! Plain runs against instrumented runs.
//!
//! `cp_vm::run` builds no shadow state, while `run_with_observer` builds one
//! for every tainted value.  The two must still return the identical
//! `RunResult` — termination including the pc a detector reports, outputs
//! and executed steps — and the plain run must intern no expression.  The
//! programs are the recipients and donors of the five corpus scenarios and
//! the twenty synthetic variants, each run on its error input and its benign
//! corpus; between them they exercise globals, frames, the heap and all
//! three detectors.  The corpus never reaches the VM's resource limits, so
//! small programs pin those: the step count at every step limit, runaway
//! recursion and a frame larger than the stack.  A `CompiledProgram`'s
//! fields are public, so malformed ones are pinned too: each traps before
//! its first instruction instead of panicking.

use cp_bytecode::{compile, CompiledProgram};
use cp_corpus::synthetic::synthetic_scenarios;
use cp_lang::frontend;
use cp_symexpr::{ArenaEpoch, ExprArena};
use cp_vm::{run, run_with_observer, NullObserver, RunConfig, RunResult, Termination, VmError};
use std::collections::HashSet;
use std::mem::discriminant;

/// Runs `program` plainly and instrumented, requires the two results to be
/// identical, and returns the plain one.
fn run_both(program: &CompiledProgram, input: &[u8], config: &RunConfig) -> RunResult {
    let plain = run(program, input, config);
    let instrumented = run_with_observer(program, input, config, &mut NullObserver);
    assert_eq!(plain, instrumented, "plain and instrumented runs diverged");
    plain
}

fn program(source: &str) -> CompiledProgram {
    compile(&frontend(source).expect("test source analyzes")).expect("test source compiles")
}

#[test]
fn plain_runs_match_instrumented_runs_and_intern_nothing() {
    let config = RunConfig::default();
    let mut detectors = HashSet::new();
    let mut instrumented_nodes = 0;
    let mut scenarios = cp_corpus::scenarios().to_vec();
    scenarios.extend(synthetic_scenarios(20));
    for scenario in &scenarios {
        for source in [scenario.source, scenario.donor_source] {
            let analyzed = frontend(source).expect("corpus source analyzes");
            let program = compile(&analyzed).expect("corpus source compiles");
            let benign = scenario.benign_corpus.iter().copied();
            for input in std::iter::once(scenario.error_input).chain(benign) {
                let _epoch = ArenaEpoch::begin();
                let before = ExprArena::node_count();
                let plain = run(&program, input, &config);
                assert_eq!(
                    ExprArena::node_count(),
                    before,
                    "{}: a plain run interned expressions on {input:?}",
                    scenario.name
                );
                let instrumented = run_with_observer(&program, input, &config, &mut NullObserver);
                instrumented_nodes += ExprArena::node_count() - before;
                assert_eq!(
                    plain, instrumented,
                    "{}: plain and instrumented runs diverged on {input:?}",
                    scenario.name
                );
                if let Some(error) = plain.termination.error() {
                    detectors.insert(discriminant(error));
                }
            }
        }
    }
    assert!(
        instrumented_nodes > 0,
        "the instrumented side built no shadow"
    );
    for error in [
        VmError::OutOfBounds {
            addr: 0,
            len: 0,
            write: false,
        },
        VmError::DivideByZero { function: 0, pc: 0 },
        VmError::OverflowIntoAllocation { requested: 0 },
    ] {
        assert!(
            detectors.contains(&discriminant(&error)),
            "no run fired {error:?}"
        );
    }
}

#[test]
fn every_step_limit_stops_both_runs_at_the_same_step() {
    let program = program(
        r#"
        global total: u32 = 5;
        fn add(a: u32, b: u32) -> u32 { return a + b; }
        fn main() -> u32 {
            var p: ptr<u8> = malloc(4) as ptr<u8>;
            var i: u64 = 0;
            while (i < 3) {
                total = add(total, input_byte(i) as u32);
                p[i] = input_byte(i);
                i = i + 1;
            }
            output(total as u64);
            return total;
        }
        "#,
    );
    let input = [1, 2, 3];
    let full = run_both(&program, &input, &RunConfig::default());
    assert_eq!(full.termination, Termination::Returned(11));
    assert_eq!(full.outputs, vec![11]);
    for max_steps in 0..=full.steps + 1 {
        let config = RunConfig {
            max_steps,
            ..RunConfig::default()
        };
        let result = run_both(&program, &input, &config);
        if max_steps < full.steps {
            assert_eq!(
                result.termination,
                Termination::Error(VmError::StepLimitExceeded),
                "max_steps {max_steps}"
            );
            assert_eq!(result.steps, max_steps + 1, "max_steps {max_steps}");
        } else {
            assert_eq!(result, full, "max_steps {max_steps}");
        }
    }
}

#[test]
fn runaway_recursion_exceeds_the_call_depth_in_both_runs() {
    let program = program(
        r#"
        fn f(n: u32) -> u32 { return f(n + 1); }
        fn main() -> u32 { return f(input_byte(0) as u32); }
        "#,
    );
    let result = run_both(&program, &[7], &RunConfig::default());
    assert_eq!(
        result.termination,
        Termination::Error(VmError::CallDepthExceeded)
    );
}

#[test]
fn a_frame_larger_than_the_stack_overflows_in_both_runs() {
    let mut program = program(
        r#"
        fn f(n: u32) -> u32 { return n; }
        fn main() -> u32 { return f(input_byte(0) as u32); }
        "#,
    );
    let callee = program
        .functions
        .iter_mut()
        .find(|f| f.name.as_deref() == Some("f"))
        .expect("the program has f");
    callee.frame_size = cp_vm::STACK_SIZE as usize + 1;
    let result = run_both(&program, &[7], &RunConfig::default());
    assert_eq!(
        result.termination,
        Termination::Error(VmError::StackOverflow)
    );
}

/// A one-global program to corrupt: `main` returns the global.
fn corruptible() -> CompiledProgram {
    program(
        r#"
        global total: u32 = 5;
        fn main() -> u32 { return total; }
        "#,
    )
}

/// Runs a malformed program both ways and requires it to trap with `error`
/// before its first instruction.
fn assert_traps_at_start(program: &CompiledProgram, error: VmError) {
    let result = run_both(program, &[7], &RunConfig::default());
    assert_eq!(
        result,
        RunResult {
            termination: Termination::Error(error),
            outputs: Vec::new(),
            steps: 0,
        }
    );
}

#[test]
fn an_out_of_range_main_is_invalid_bytecode_in_both_runs() {
    let mut program = corruptible();
    assert_eq!(
        run_both(&program, &[], &RunConfig::default()).termination,
        Termination::Returned(5)
    );
    program.main = program.functions.len();
    let message = format!("bad main function index {}", program.main);
    assert_traps_at_start(&program, VmError::InvalidBytecode(message));
}

#[test]
fn a_main_frame_larger_than_the_stack_overflows_in_both_runs() {
    let mut program = corruptible();
    let main = program.main;
    program.functions[main].frame_size = cp_vm::STACK_SIZE as usize + 1;
    assert_traps_at_start(&program, VmError::StackOverflow);
}

#[test]
fn a_global_initialiser_outside_the_globals_traps_in_both_runs() {
    let mut program = corruptible();
    let offset = program.globals_size;
    program
        .global_inits
        .push((offset, cp_symexpr::Width::W32, 1));
    assert_traps_at_start(
        &program,
        VmError::UnmappedAccess {
            addr: cp_vm::GLOBAL_BASE + offset as u64,
            write: true,
        },
    );
}
