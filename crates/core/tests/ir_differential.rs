//! Differential testing of the two compilation pipelines.
//!
//! The optimizing `cp-ir` path must agree with the original direct backend
//! on *behavior*: the same `output` stream and the same detector verdict on
//! every input.  Program counters inside error payloads legitimately differ
//! between backends (the instruction streams are different), so faults are
//! compared as verdicts — error class plus backend-independent payload —
//! rather than bit-for-bit.
//!
//! The same loop checks the VM's two run modes on the direct program: a
//! plain `run`, which builds no shadow state, must return exactly what an
//! instrumented `run_with_observer` returns, and intern no expression.
//!
//! The corpus is the deterministic random-program generator shared with the
//! pretty-printer round-trip test: well-typed scalar programs with loops,
//! branches, casts, and division (so divide-by-zero traps are exercised),
//! and no pointers (so behavior cannot depend on frame sizes, which the IR
//! backend legitimately grows for spill slots).

mod common;

use common::Rng;
use cp_bytecode::{compile, compile_direct};
use cp_lang::frontend;
use cp_symexpr::ExprArena;
use cp_vm::{run, run_with_observer, NullObserver, RunConfig, Termination, VmError};

/// A backend-independent description of how a run ended.
fn verdict(termination: &Termination) -> String {
    match termination {
        Termination::Returned(v) => format!("returned {v}"),
        Termination::Exited(v) => format!("exited {v}"),
        Termination::Error(e) => match e {
            // pc/function fields identify instructions, which differ between
            // backends; everything else must match exactly.
            VmError::DivideByZero { .. } => "divide by zero".to_string(),
            VmError::OutOfBounds { addr, len, write } => {
                format!("out of bounds {addr}+{len} write={write}")
            }
            VmError::OverflowIntoAllocation { requested } => {
                format!("overflow into allocation of {requested}")
            }
            other => format!("{other:?}"),
        },
    }
}

#[test]
fn ir_backends_agree_with_the_direct_compiler() {
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    let mut rng = Rng(0xD1FF_E2E4 ^ 0x9E37_79B9_7F4A_7C15);
    for _ in 0..4 {
        inputs.push((0..6).map(|_| rng.next() as u8).collect());
    }

    let config = RunConfig {
        max_steps: 200_000,
        ..RunConfig::default()
    };
    for seed in 1..=60u64 {
        let source = common::program(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let analyzed = frontend(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: generated source rejected: {e}\n{source}"));
        let direct = compile_direct(&analyzed).expect("direct compiles");
        let ir = compile(&analyzed).expect("IR compiles");
        for input in &inputs {
            let nodes = ExprArena::node_count();
            let reference = run(&direct, input, &config);
            assert_eq!(
                ExprArena::node_count(),
                nodes,
                "seed {seed}: a plain run interned expressions"
            );
            assert_eq!(
                run_with_observer(&direct, input, &config, &mut NullObserver),
                reference,
                "seed {seed}: plain and instrumented runs diverged on {input:?}\n{source}"
            );
            let result = run(&ir, input, &config);
            assert_eq!(
                result.outputs, reference.outputs,
                "seed {seed}: IR outputs diverged on {input:?}\n{source}"
            );
            assert_eq!(
                verdict(&result.termination),
                verdict(&reference.termination),
                "seed {seed}: IR verdict diverged on {input:?}\n{source}"
            );
        }
    }
}
