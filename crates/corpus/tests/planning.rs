//! Frequency-aware insertion planning, end to end.
//!
//! The planner ranks candidate insertion sites by how often the recorded run
//! executed them (cp-patch `insert`): a guard at a site executed once costs
//! one check per run, while the same guard inside a hot parse loop executes
//! on every iteration.  This test builds a recipient whose header fields are
//! (re)parsed inside a 200-iteration loop — so the *earliest* viable site
//! sits in the hot loop body — and checks that the planner chooses a
//! post-loop site executed once, and that the patch there validates.
//!
//! The chunk-table tests pin how `cp_patch::transfer` offers a donor's
//! checks: a check whose plans all fail validation yields to the next, the
//! outcome reports the accepted check's index and attempts, and the
//! recompile budget covers the whole call.

use cp_core::{Session, Trace};
use cp_corpus::{Scenario, CHUNK_ALLOC, IMAGE_ALLOC};
use cp_patch::{TransferError, TransferOutcome, TransferSpec};
use cp_symexpr::ExprRef;
use cp_vm::VmError;

/// The IMAGE_ALLOC recipient with its header parse moved into a hot loop:
/// width/height/depth are reassigned (to the same values) 200 times, so the
/// first program point where all three are bound lies inside the loop body.
/// The overflow itself happens once, after the loop.
const HOT_LOOP_RECIPIENT: &str = r#"
    fn read_u16(off: u64) -> u16 {
        return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
    }
    fn main() -> u32 {
        var width: u32 = 0;
        var height: u32 = 0;
        var depth: u32 = 0;
        var i: u32 = 0;
        while (i < 200) {
            width = read_u16(0) as u32;
            height = read_u16(2) as u32;
            depth = read_u16(4) as u32;
            i = i + 1;
        }
        var size: u32 = width * height * depth;
        var pixels: u64 = malloc(size as u64);
        output(size as u64);
        return 0;
    }
"#;

/// The donor's checks, folded in offer order, and the recipient `source`
/// recorded on `scenario`'s error input.
fn record(source: &str, scenario: &Scenario) -> (Session, Trace, Vec<ExprRef>) {
    let mut recipient = Session::builder()
        .source(source)
        .build()
        .expect("recipient builds");
    let crash = recipient.record_with_input(scenario.error_input);
    let donor_trace = Session::builder()
        .source(scenario.donor_source)
        .stripped()
        .input(scenario.error_input)
        .record()
        .expect("donor builds");
    let format = scenario.format();
    let folded = donor_trace
        .checks()
        .iter()
        .map(|check| format.fold(&check.condition()))
        .collect();
    (recipient, crash, folded)
}

fn transfer(
    recipient: &Session,
    crash: &Trace,
    checks: &[ExprRef],
    spec: &TransferSpec<'_>,
) -> Result<TransferOutcome, TransferError> {
    let analyzed = recipient.analyzed().expect("built from source");
    let checks = checks.iter().copied();
    cp_patch::transfer(
        analyzed,
        recipient.program(),
        checks,
        &crash.observation(),
        spec,
    )
}

#[test]
fn planner_moves_the_guard_out_of_the_hot_loop() {
    // The hot-loop recipient still trips the overflow detector at the
    // post-loop allocation; the stripped IMAGE_ALLOC donor supplies the
    // 64-bit size check.
    let (recipient, crash, checks) = record(HOT_LOOP_RECIPIENT, &IMAGE_ALLOC);
    assert!(
        matches!(
            crash.last_error(),
            Some(VmError::OverflowIntoAllocation { .. })
        ),
        "recipient must overflow into the allocation, got {:?}",
        crash.termination
    );

    // The validated guard lands at a post-loop site the run executed
    // exactly once, although the in-loop sites executed earlier.
    let spec = TransferSpec::new(IMAGE_ALLOC.error_input, IMAGE_ALLOC.benign_corpus);
    let ranked = transfer(&recipient, &crash, &checks, &spec)
        .unwrap_or_else(|error| panic!("no donor check transferred: {error}"));
    let visits = crash
        .stmt_ends
        .iter()
        .filter(|e| e.function == ranked.site.function && e.stmt == ranked.site.stmt)
        .count();
    assert_eq!(
        visits, 1,
        "ranked transfer must pick a site executed once, got {}",
        ranked.site
    );
}

#[test]
fn a_check_that_fails_validation_yields_to_the_next() {
    let (recipient, crash, checks) = record(CHUNK_ALLOC.source, &CHUNK_ALLOC);
    let spec = TransferSpec::new(CHUNK_ALLOC.error_input, CHUNK_ALLOC.benign_corpus);

    // The donor's first check (`kind == 0`) reads only the kind byte, which
    // the overflowing allocation does not depend on: offered alone, every
    // one of its planned sites fails validation.
    let alone = transfer(&recipient, &crash, &checks[..1], &spec).expect_err("check 0 fails");
    assert!(
        matches!(&alone, TransferError::AllPlansFailed { attempts } if attempts.len() == 4),
        "{alone:?}"
    );

    // Offered in order, the size check validates at its first site, and the
    // outcome counts that check's attempts only.
    let outcome = transfer(&recipient, &crash, &checks, &spec).expect("check 1 validates");
    assert_eq!((outcome.check, outcome.attempts), (1, 1));
    assert!(outcome.rejected.is_empty());
}

#[test]
fn a_zero_recompile_budget_stops_before_any_validation() {
    let (recipient, crash, checks) = record(CHUNK_ALLOC.source, &CHUNK_ALLOC);
    let spec = TransferSpec {
        max_recompiles: 0,
        ..TransferSpec::new(CHUNK_ALLOC.error_input, CHUNK_ALLOC.benign_corpus)
    };
    let error = transfer(&recipient, &crash, &checks, &spec).expect_err("no budget");
    assert!(
        matches!(&error, TransferError::RecompileBudget { limit: 0, attempts } if attempts.is_empty()),
        "the budget must stop the first validation, got {error:?}"
    );

    let none = transfer(&recipient, &crash, &[], &spec).expect_err("nothing to offer");
    assert!(matches!(none, TransferError::NoChecks));
    assert_eq!(none.to_string(), "donor performed no transferable check");
}
