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
//! instrumented `run_with_observer` returns, and intern no expression.  And
//! it checks the direct program against itself after `fuse`, which
//! `compile` applies to what it emits: fused, a program must return the
//! identical result, pcs and steps included, plainly and instrumented, show
//! an observer the identical events and record a tape of the same length.
//!
//! The corpus is the deterministic random-program generator shared with the
//! pretty-printer round-trip test: well-typed scalar programs with loops,
//! branches, casts, and division (so divide-by-zero traps are exercised),
//! and no pointers (so behavior cannot depend on frame sizes, which the IR
//! backend legitimately grows for spill slots).

mod common;

use common::Rng;
use cp_bytecode::{compile, compile_direct, fuse};
use cp_lang::frontend;
use cp_symexpr::{ExprArena, ExprRef, TapeRef};
use cp_vm::{
    run, run_with_observer, BranchEvent, MachineState, Observer, RunConfig, StmtEndEvent,
    Termination, Value, VmError,
};

/// An event an instrumented run showed its observer, its symbolic value
/// resolved.
#[derive(Debug, PartialEq)]
enum Event {
    /// Function, pc, invocation, direction, condition and its expression.
    Branch(usize, usize, u64, bool, Value, Option<ExprRef>),
    StmtEnd(StmtEndEvent),
    /// Base, size and its expression.
    Alloc(u64, Value, Option<ExprRef>),
}

/// Every event of a run, in order.
#[derive(Default)]
struct Events(Vec<Event>);

impl Observer for Events {
    fn on_branch(&mut self, event: &BranchEvent, state: &MachineState) {
        self.0.push(Event::Branch(
            event.function,
            event.pc,
            event.invocation,
            event.taken,
            event.condition,
            event.expr.map(|e| state.resolve(e)),
        ));
    }

    fn on_stmt_end(&mut self, event: &StmtEndEvent, _state: &mut MachineState) {
        self.0.push(Event::StmtEnd(*event));
    }

    fn on_alloc(&mut self, base: u64, size: &Value, expr: Option<TapeRef>, state: &MachineState) {
        self.0
            .push(Event::Alloc(base, *size, expr.map(|e| state.resolve(e))));
    }
}

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

    let config = RunConfig { max_steps: 200_000 };
    for seed in 1..=60u64 {
        let source = common::program(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let analyzed = frontend(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: generated source rejected: {e}\n{source}"));
        let direct = compile_direct(&analyzed).expect("direct compiles");
        let mut fused = direct.clone();
        fuse(&mut fused);
        let ir = compile(&analyzed).expect("IR compiles");
        for input in &inputs {
            let nodes = ExprArena::node_count();
            let reference = run(&direct, input, &config);
            assert_eq!(
                ExprArena::node_count(),
                nodes,
                "seed {seed}: a plain run interned expressions"
            );
            let mut events = Events::default();
            let (instrumented, tape) = run_with_observer(&direct, input, &config, &mut events);
            assert_eq!(
                instrumented, reference,
                "seed {seed}: plain and instrumented runs diverged on {input:?}\n{source}"
            );
            assert_eq!(
                run(&fused, input, &config),
                reference,
                "seed {seed}: fused and unfused plain runs diverged on {input:?}\n{source}"
            );
            let mut fused_events = Events::default();
            let (fused_run, fused_tape) =
                run_with_observer(&fused, input, &config, &mut fused_events);
            assert_eq!(
                fused_run, reference,
                "seed {seed}: fused and unfused instrumented runs diverged on {input:?}\n{source}"
            );
            assert_eq!(
                fused_events.0, events.0,
                "seed {seed}: fused and unfused events diverged on {input:?}\n{source}"
            );
            assert_eq!(fused_tape.len(), tape.len(), "seed {seed}: tape lengths");
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
