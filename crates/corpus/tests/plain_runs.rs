//! Plain runs against instrumented runs.
//!
//! `cp_vm::run` builds no shadow state, while `run_with_observer` builds one
//! for every tainted value.  The two must still return the identical
//! `RunResult` — termination including the pc a detector reports, outputs
//! and executed steps — and the plain run must intern no expression.  The
//! programs are the recipients and donors of the five corpus scenarios and
//! the twenty synthetic variants, each run on its error input and its benign
//! corpus; between them they exercise globals, frames, the heap and all
//! three detectors.

use cp_bytecode::compile;
use cp_corpus::synthetic::synthetic_scenarios;
use cp_lang::frontend;
use cp_symexpr::{ArenaEpoch, ExprArena};
use cp_vm::{run, run_with_observer, NullObserver, RunConfig, VmError};
use std::collections::HashSet;
use std::mem::discriminant;

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
