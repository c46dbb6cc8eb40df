//! Plain runs against instrumented runs.
//!
//! `cp_vm::run` builds no shadow state, while `run_with_observer` records a
//! tape entry for every tainted value.  The two must still return the
//! identical `RunResult` — termination including the pc a detector reports,
//! outputs and executed steps — and the plain run must intern no
//! expression.  The
//! programs are the recipients and donors of the five corpus scenarios and
//! the twenty synthetic variants, each run on its error input and its benign
//! corpus; between them they exercise globals, frames, the heap and all
//! three detectors.  The corpus never reaches the VM's resource limits, so
//! small programs pin those: the step count at every step limit, for fused
//! superinstructions as for the instructions they fuse, runaway recursion
//! and a frame larger than the stack.  A `CompiledProgram`'s fields are
//! public, so malformed ones are pinned too: each traps before its first
//! instruction instead of panicking or aborting.

use cp_bytecode::{compile, CompiledFunction, CompiledProgram, Instr, Intrinsic};
use cp_corpus::synthetic::synthetic_scenarios;
use cp_lang::frontend;
use cp_symexpr::{ArenaEpoch, BinOp, CastKind, ExprArena, Width};
use cp_vm::{run, run_with_observer, NullObserver, RunConfig, RunResult, Termination, VmError};
use std::collections::HashSet;
use std::mem::discriminant;

/// Runs `program` plainly and instrumented, requires the two results to be
/// identical, and returns the plain one.
fn run_both(program: &CompiledProgram, input: &[u8], config: &RunConfig) -> RunResult {
    let plain = run(program, input, config);
    let (instrumented, _) = run_with_observer(program, input, config, &mut NullObserver);
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
    let mut instrumented_entries = 0;
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
                let (instrumented, tape) =
                    run_with_observer(&program, input, &config, &mut NullObserver);
                instrumented_entries += tape.len();
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
        instrumented_entries > 0,
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

/// Runs each of `programs` on `input` at every step limit up to one past
/// its full run, plainly and instrumented, and requires every program to
/// return the same result at each limit: a step-limit trap at `max_steps + 1`
/// steps below the full run's steps, and the full run from there on.
/// Returns the full run.
fn assert_stops_at_every_step(programs: &[&CompiledProgram], input: &[u8]) -> RunResult {
    let results = |config: &RunConfig| -> RunResult {
        let result = run_both(programs[0], input, config);
        for program in &programs[1..] {
            assert_eq!(run_both(program, input, config), result, "{config:?}");
        }
        result
    };
    let full = results(&RunConfig::default());
    for max_steps in 0..=full.steps + 1 {
        let result = results(&RunConfig { max_steps });
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
    full
}

/// A hand-assembled `main` that stores `n = input_byte(0)`, outputs `i` for
/// `i` in `0..n`, and then divides `i` by a pushed zero.  Fused, pcs 4 and 8
/// become store-and-ends, 10, 12, 16, 20 and 26 `load_local`s, 14 a
/// compare-and-branch, and 22 and 28 immediates; the loop's back edge jumps
/// to pc 9, the `StmtEnd` that pc 8 fuses, and the division is at pc 29.
fn fusable() -> CompiledProgram {
    let (i, n) = (0, 8);
    let frame_addr = |offset| Instr::FrameAddr { offset };
    let load = Instr::Load { width: Width::W64 };
    let store = Instr::Store { width: Width::W64 };
    let push = |value| Instr::PushConst {
        width: Width::W64,
        value,
    };
    let code = vec![
        frame_addr(n),
        push(0),
        Instr::CallIntrinsic {
            intrinsic: Intrinsic::InputByte,
        },
        Instr::Cast {
            kind: CastKind::ZeroExt,
            from: Width::W8,
            to: Width::W64,
        },
        store.clone(),
        Instr::StmtEnd { stmt: 0 },
        frame_addr(i),
        push(0),
        store.clone(),
        Instr::StmtEnd { stmt: 1 },
        frame_addr(i),
        load.clone(),
        frame_addr(n),
        load.clone(),
        Instr::Binary {
            op: BinOp::LtU,
            width: Width::W64,
        },
        Instr::JumpIfZero { target: 26 },
        frame_addr(i),
        load.clone(),
        Instr::CallIntrinsic {
            intrinsic: Intrinsic::Output,
        },
        frame_addr(i),
        frame_addr(i),
        load.clone(),
        push(1),
        Instr::Binary {
            op: BinOp::Add,
            width: Width::W64,
        },
        store,
        Instr::Jump { target: 9 },
        frame_addr(i),
        load,
        push(0),
        Instr::Binary {
            op: BinOp::DivU,
            width: Width::W64,
        },
        Instr::Return { has_value: true },
    ];
    let stmt_map = vec![None; code.len()];
    CompiledProgram {
        functions: vec![CompiledFunction {
            name: Some("main".into()),
            frame_size: 16,
            params: Vec::new(),
            returns_value: true,
            code,
            stmt_map,
        }],
        main: 0,
        globals_size: 0,
        global_inits: Vec::new(),
        debug: None,
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
    let full = assert_stops_at_every_step(&[&program], &[1, 2, 3]);
    assert_eq!(full.termination, Termination::Returned(11));
    assert_eq!(full.outputs, vec![11]);

    // Fused and unfused, the hand-assembled loop stops at the same step
    // under every limit, and traps at the division's own pc.
    let unfused = fusable();
    let mut fused = unfused.clone();
    cp_bytecode::fuse(&mut fused);
    let code = &fused.functions[0].code;
    let fused_at: Vec<usize> = (0..code.len())
        .filter(|&pc| code[pc] != unfused.functions[0].code[pc])
        .collect();
    assert_eq!(fused_at, [4, 8, 10, 12, 14, 16, 20, 22, 26, 28]);
    assert!(matches!(code[10], Instr::LoadLocal { offset: 0, .. }));
    assert!(matches!(
        code[14],
        Instr::CompareJumpIfZero { target: 26, .. }
    ));
    assert!(matches!(code[22], Instr::BinaryImm { value: 1, .. }));
    assert!(matches!(code[8], Instr::StoreStmtEnd { stmt: 1, .. }));
    let full = assert_stops_at_every_step(&[&fused, &unfused], &[3]);
    assert_eq!(
        full.termination,
        Termination::Error(VmError::DivideByZero {
            function: 0,
            pc: 29
        })
    );
    assert_eq!(full.outputs, vec![0, 1, 2]);
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

#[test]
fn a_global_segment_reaching_the_stack_is_invalid_bytecode_in_both_runs() {
    let gap = (cp_vm::STACK_BASE - cp_vm::GLOBAL_BASE) as usize;
    for size in [usize::MAX, 1 << 40, 2_000_000, gap] {
        let mut program = corruptible();
        program.globals_size = size;
        let message = format!("global segment of {size} bytes reaches the stack");
        assert_traps_at_start(&program, VmError::InvalidBytecode(message));
    }
    // One byte short of the stack, the segment is allocated and runs.
    let mut program = corruptible();
    program.globals_size = gap - 1;
    assert_eq!(
        run_both(&program, &[], &RunConfig::default()).termination,
        Termination::Returned(5)
    );
}
