//! Frequency-aware insertion planning, end to end.
//!
//! The planner ranks candidate insertion sites by how often the recorded run
//! executed them (cp-patch `insert`): a guard at a site executed once costs
//! one check per run, while the same guard inside a hot parse loop executes
//! on every iteration.  This test builds a recipient whose header fields are
//! (re)parsed inside a 200-iteration loop — so the *earliest* viable site
//! sits in the hot loop body — and checks that the planner chooses a
//! post-loop site executed once, and that the patch there validates.

use cp_core::{Session, Trace};
use cp_corpus::IMAGE_ALLOC;
use cp_formats::FormatDescriptor;
use cp_lang::AnalyzedProgram;
use cp_patch::{Observation, TransferOutcome, TransferSpec};
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

/// Runs the donor's checks through the transfer engine in execution order
/// and returns the first validated outcome, exactly as the batch pipeline
/// does.
fn transfer_first(
    donor_trace: &Trace,
    format: &FormatDescriptor,
    analyzed: &AnalyzedProgram,
    obs: &Observation<'_>,
    spec: &TransferSpec<'_>,
) -> TransferOutcome {
    let mut last_failure = String::from("donor performed no transferable check");
    for check in donor_trace.checks() {
        let folded = format.fold(&check.condition());
        match cp_patch::transfer(analyzed, &folded, obs, spec) {
            Ok(outcome) => return outcome,
            Err(error) => last_failure = error.to_string(),
        }
    }
    panic!("no donor check transferred: {last_failure}");
}

#[test]
fn planner_moves_the_guard_out_of_the_hot_loop() {
    let format = IMAGE_ALLOC.format();
    let error_input = IMAGE_ALLOC.error_input;

    // The hot-loop recipient still trips the overflow detector at the
    // post-loop allocation.
    let mut recipient = Session::builder()
        .source(HOT_LOOP_RECIPIENT)
        .build()
        .expect("recipient builds");
    let crash = recipient.record_with_input(error_input);
    assert!(
        matches!(
            crash.last_error(),
            Some(VmError::OverflowIntoAllocation { .. })
        ),
        "recipient must overflow into the allocation, got {:?}",
        crash.termination
    );
    let analyzed = recipient.analyzed().expect("built from source");

    // The stripped IMAGE_ALLOC donor supplies the 64-bit size check.
    let mut donor = Session::builder()
        .source(IMAGE_ALLOC.donor_source)
        .stripped()
        .build()
        .expect("donor builds");
    let donor_trace = donor.record_with_input(error_input);

    let spec = TransferSpec::new(error_input, IMAGE_ALLOC.benign_corpus);

    // The validated guard lands at a post-loop site the run executed
    // exactly once, although the in-loop sites executed earlier.
    let ranked = transfer_first(&donor_trace, &format, analyzed, &crash.observation(), &spec);
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
