//! Goal-directed discovery over the corpus: the DIODE stage end to end.
//!
//! These tests pin the contract the `discover` CI job gates: for every
//! overflow scenario the generator derives an error input from the *benign*
//! input alone (the hand-written `error_input` is never consulted), the
//! derived input re-executes to `OverflowIntoAllocation`, the search is
//! deterministic under a fixed seed, and unreachable goals terminate with a
//! clean "no target reachable" verdict inside the budget.

use cp_core::{DiscoverConfig, DiscoverOutcome, Session};
use cp_corpus::{scenarios, ErrorClass};
use cp_diode::MAX_EXECUTIONS;
use cp_solver::Solver;
use cp_vm::VmError;

/// Every overflow scenario derives an error input by discovery, starting
/// from the benign input, and the input actually trips the detector on
/// re-execution.
#[test]
fn overflow_scenarios_derive_their_error_inputs() {
    let overflow: Vec<_> = scenarios()
        .into_iter()
        .filter(|s| s.error_class == ErrorClass::OverflowIntoAllocation)
        .collect();
    assert!(
        overflow.len() >= 2,
        "the corpus must keep at least two discoverable scenarios"
    );
    for scenario in overflow {
        let mut session = Session::builder()
            .source(scenario.source)
            .build()
            .expect("recipient builds");
        let outcome = session.discover(scenario.benign_input, &DiscoverConfig::default());
        let found = outcome
            .found()
            .unwrap_or_else(|| panic!("{}: discovery must find the overflow", scenario.name));

        // The generated input is not the benign seed and was never copied
        // from the hand-written error input.
        assert_ne!(
            found.input.as_slice(),
            scenario.benign_input,
            "{}",
            scenario.name
        );
        assert!(
            found.executions >= 2,
            "every candidate is validated by running"
        );

        // Re-execution is the ground truth: the input trips the detector.
        let trace = session.record_with_input(&found.input);
        match trace.last_error() {
            Some(VmError::OverflowIntoAllocation { requested }) => {
                assert_eq!(*requested, found.requested, "{}", scenario.name);
            }
            other => panic!("{}: expected overflow, got {other:?}", scenario.name),
        }
    }
}

/// The chunk scenario's benign input takes the fixed-size path: reaching the
/// overflow requires flipping the kind branch, so its discovery must take
/// more than one generation.
#[test]
fn chunk_scenario_requires_a_generational_flip() {
    let scenario = cp_corpus::CHUNK_ALLOC;
    let mut session = Session::builder()
        .source(scenario.source)
        .build()
        .expect("recipient builds");
    let outcome = session.discover(scenario.benign_input, &DiscoverConfig::default());
    let found = outcome.found().expect("chunk overflow must be discovered");
    assert!(
        found.generations >= 2,
        "benign takes the fixed-size path; got generation {}",
        found.generations
    );
    // The flip shows up in the input: the kind byte is no longer zero.
    assert_ne!(found.input[0], 0);
}

/// Same benign input + same seed → same discovered error input; the search
/// is a deterministic procedure, not a fuzzer.
#[test]
fn discovery_is_deterministic_under_a_fixed_seed() {
    for scenario in scenarios()
        .into_iter()
        .filter(|s| s.error_class == ErrorClass::OverflowIntoAllocation)
    {
        let mut inputs = Vec::new();
        for _ in 0..2 {
            let mut session = Session::builder()
                .source(scenario.source)
                .build()
                .expect("recipient builds");
            let outcome =
                session.discover(scenario.benign_input, &DiscoverConfig::with_seed(0xFEED));
            inputs.push(
                outcome
                    .found()
                    .unwrap_or_else(|| panic!("{}: discovery must succeed", scenario.name))
                    .input
                    .clone(),
            );
        }
        assert_eq!(inputs[0], inputs[1], "{}", scenario.name);
    }
}

/// A recipient whose only tainted allocation sits behind a saturating guard
/// (plus a constant-size allocation): unguarded, `(w * h) * 8` would wrap at
/// 32 bits, but the guard's path constraint (`w * h <= 2^20` at 64 bits)
/// contradicts the overflow goal — the straight-line query is UNSAT — and
/// flipping the guard exits before any allocation.  Discovery must
/// terminate with the clean "no target reachable" verdict inside its
/// budget, not spin or claim a find.
#[test]
fn unsat_goal_reports_no_target_reachable_within_budget() {
    let source = r#"
        fn main() -> u32 {
            var w: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
            var h: u32 = ((input_byte(2) as u32) << 8) | (input_byte(3) as u32);
            if ((w as u64) * (h as u64) > 1048576) { exit(1); }
            var buf: u64 = malloc(((w * h) * 8) as u64);
            var table: u64 = malloc(256);
            output((w * h) as u64);
            return 0;
        }
    "#;
    let mut session = Session::builder()
        .source(source)
        .build()
        .expect("recipient builds");
    let config = DiscoverConfig::default();
    match session.discover(&[0x00, 0x10, 0x00, 0x10], &config) {
        DiscoverOutcome::NoTargetReachable(report) => {
            assert!(
                report.sites_examined > 0,
                "the tainted site must be examined"
            );
            assert!(
                report.executions <= MAX_EXECUTIONS,
                "terminated within budget: {report:?}"
            );
        }
        DiscoverOutcome::Found(found) => {
            panic!("a guarded w*h <= 2^20 cannot overflow 32 bits: {found:?}")
        }
    }
}

/// The search runs with the solver its caller passed: a starved one decides
/// no goal, so even a scenario whose overflow the default solver finds
/// reports "no target reachable".
#[test]
fn a_starved_discovery_solver_finds_no_target() {
    let scenario = cp_corpus::IMAGE_ALLOC;
    let mut session = Session::builder()
        .source(scenario.source)
        .build()
        .expect("recipient builds");
    assert!(session
        .discover(scenario.benign_input, &DiscoverConfig::default())
        .found()
        .is_some());
    let starved = DiscoverConfig {
        solver: Solver::starved(),
    };
    match session.discover(scenario.benign_input, &starved) {
        DiscoverOutcome::NoTargetReachable(report) => {
            assert!(report.solver_queries > 0, "{report:?}");
        }
        DiscoverOutcome::Found(found) => {
            panic!("a starved solver must find nothing: {found:?}")
        }
    }
}

/// A header whose fields are range-checked against bounds that are not
/// `2^k − 1` before a 32-bit `width * height * depth` allocation.  A random
/// header passes all three checks about once in 47,000 draws, so sampling
/// misses the overflow; it sits where each field takes its bound, and the
/// solver's bounds rung finds it there, in one query and one validating run.
const RANGE_CHECKED: &str = r#"
    fn read_u16(off: u64) -> u16 {
        return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
    }
    fn main() -> u32 {
        var width: u32 = read_u16(0) as u32;
        if (width > 5000) { exit(2); }
        var height: u32 = read_u16(2) as u32;
        if (height > 3000) { exit(2); }
        var depth: u32 = read_u16(4) as u32;
        if (depth > 400) { exit(2); }
        var size: u32 = width * height * depth;
        var pixels: u64 = malloc(size as u64);
        output(size as u64);
        return 0;
    }
"#;

#[test]
fn range_checked_fields_overflow_where_each_takes_its_bound() {
    let benign = [0, 64, 0, 48, 0, 3];
    let mut session = Session::builder()
        .source(RANGE_CHECKED)
        .build()
        .expect("recipient builds");
    let outcome = session.discover(&benign, &DiscoverConfig::default());
    let found = outcome.found().expect("the overflow is discovered");
    assert_eq!(
        (found.generations, found.executions, found.solver_queries),
        (1, 2, 1)
    );
    let field = |i: usize| u16::from_be_bytes([found.input[i], found.input[i + 1]]);
    assert_eq!((field(0), field(2), field(4)), (5000, 3000, 400));
    assert_eq!(
        found.requested,
        (5000u64 * 3000 * 400) & u64::from(u32::MAX)
    );

    let starved = DiscoverConfig {
        solver: Solver::starved(),
    };
    assert!(matches!(
        session.discover(&benign, &starved),
        DiscoverOutcome::NoTargetReachable(_)
    ));
}
