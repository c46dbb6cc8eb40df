//! Semantic idempotence of the pretty-printer round trip.
//!
//! Patch validation recompiles the patched recipient through
//! `frontend(print_program(ast))` — so that path must preserve meaning, not
//! just parse.  This test generates deterministic-random well-typed Phage-C
//! programs (typed expressions over locals and input bytes; `if`, bounded
//! `while`, `output`) and checks for each that:
//!
//! * printing is a fixed point: `print(frontend(print(p)))` equals
//!   `print(p)`,
//! * the debug information (struct layouts, frame layouts, statement
//!   counts) survives the round trip exactly, and
//! * the recompiled program *behaves* identically: same termination, same
//!   `output` stream, on several random inputs.

mod common;

use common::Rng;
use cp_bytecode::compile;
use cp_lang::frontend;
use cp_lang::pretty::print_program;
use cp_vm::{run, RunConfig};

#[test]
fn frontend_print_round_trip_is_semantically_idempotent() {
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    let mut rng = Rng(0xC0DE_FA6E ^ 0x9E37_79B9_7F4A_7C15);
    for _ in 0..4 {
        inputs.push((0..6).map(|_| rng.next() as u8).collect());
    }

    let config = RunConfig { max_steps: 200_000 };
    for seed in 1..=60u64 {
        let source = common::program(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let original = frontend(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: generated source rejected: {e}\n{source}"));
        let printed = print_program(&original.program);
        let reparsed = frontend(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: printed source rejected: {e}\n{printed}"));

        // Printing is a fixed point.
        assert_eq!(
            print_program(&reparsed.program),
            printed,
            "seed {seed}: print is not a fixed point"
        );
        // Debug information survives exactly.
        assert_eq!(
            original.debug, reparsed.debug,
            "seed {seed}: debug info diverged\n{printed}"
        );

        // Behavior survives: same termination, same outputs, on every input.
        let before = compile(&original).expect("original compiles");
        let after = compile(&reparsed).expect("reparsed compiles");
        for input in &inputs {
            let a = run(&before, input, &config);
            let b = run(&after, input, &config);
            assert_eq!(
                a.termination, b.termination,
                "seed {seed}: termination diverged on {input:?}\n{printed}"
            );
            assert_eq!(
                a.outputs, b.outputs,
                "seed {seed}: outputs diverged on {input:?}\n{printed}"
            );
        }
    }
}
