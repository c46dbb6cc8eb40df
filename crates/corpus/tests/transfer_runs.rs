//! The plain runs a transfer makes.
//!
//! A transfer judges each candidate patch against the unpatched recipient's
//! behaviour on the error input and the benign corpus.  The recording it is
//! handed is that recipient's own run on the error input, so the baseline
//! takes the error input's outcome from it and runs only the benign corpus:
//! with a benign corpus of three, a transfer that validates its first
//! candidate makes 3 baseline runs and 4 validation runs.  A recording that
//! took more steps than the validation limit allows does not stand in, and
//! the error input runs again.
//!
//! The validation counters are process-wide, so this binary holds the one
//! test that reads them.

use cp_bytecode::CompiledProgram;
use cp_core::{Session, TransferSpec};
use cp_formats::FormatDescriptor;
use cp_obs::metrics::counter;
use cp_patch::InputOutcome;
use cp_vm::{run, RunConfig, Termination, VmError};

/// A recipient shaped like the benchmark's `long-input` workload: a loop sums
/// a body whose length the header gives, then divides by a header field.
const RECIPIENT: &str = r#"
    fn main() -> u32 {
        var rate: u32 = input_byte(0) as u32;
        var len: u64 = ((input_byte(1) as u64) << 8) | (input_byte(2) as u64);
        var sum: u32 = 0;
        var i: u64 = 0;
        while (i < len) {
            sum = sum + (input_byte(i + 3) as u32);
            i = i + 1;
        }
        var mean: u32 = sum / rate;
        output(mean as u64);
        return 0;
    }
"#;

/// The recipient with a check that rejects a zero rate before the loop.
const DONOR: &str = r#"
    fn main() -> u32 {
        var rate: u32 = input_byte(0) as u32;
        if (rate == 0) { exit(1); }
        var len: u64 = ((input_byte(1) as u64) << 8) | (input_byte(2) as u64);
        var sum: u32 = 0;
        var i: u64 = 0;
        while (i < len) {
            sum = sum + (input_byte(i + 3) as u32);
            i = i + 1;
        }
        var mean: u32 = sum / rate;
        output(mean as u64);
        return 0;
    }
"#;

/// A message with header `rate` and a `len`-byte body.
fn message(rate: u8, len: usize) -> Vec<u8> {
    let mut bytes = vec![rate, (len >> 8) as u8, len as u8];
    bytes.extend((0..len).map(|i| (i * 37 % 251) as u8));
    bytes
}

/// `validate.runs` and `validate.run_steps` as they read now.
fn counters() -> [u64; 2] {
    ["validate.runs", "validate.run_steps"].map(|name| counter(name).get())
}

#[test]
fn a_transfer_takes_the_error_input_outcome_from_its_recording() {
    let error_input = message(0, 600);
    let benign: Vec<Vec<u8>> = [7, 19, 250].map(|rate| message(rate, 600)).into();
    let benign: Vec<&[u8]> = benign.iter().map(Vec::as_slice).collect();
    let format = FormatDescriptor::new()
        .field("/sum/rate", vec![0])
        .field("/sum/len", vec![1, 2]);
    let mut recipient = Session::builder()
        .source(RECIPIENT)
        .build()
        .expect("recipient builds");
    let crash = recipient.record_with_input(&error_input);
    assert!(matches!(
        crash.termination,
        Termination::Error(VmError::DivideByZero { .. })
    ));
    let donor = Session::builder()
        .source(DONOR)
        .stripped()
        .input(&error_input)
        .record()
        .expect("donor builds");
    let unpatched = recipient.program().clone();

    // Validated at the first candidate: three benign baseline runs, then the
    // patched error input and the patched benign corpus.
    let [runs, steps] = counters();
    let spec = TransferSpec::new(&error_input, &benign);
    let outcome = recipient
        .transfer(&crash, donor.checks(), &format, spec)
        .expect("the rate check transfers");
    let [runs_after, steps_after] = counters();
    assert_eq!(outcome.attempts, 1);
    let source = outcome
        .report
        .patched_source
        .as_deref()
        .expect("recompiled");
    let analyzed = cp_lang::frontend(source).expect("patched source analyzes");
    let patched = cp_bytecode::compile(&analyzed).expect("patched source compiles");
    // The steps of plain runs of both programs on the benign corpus and of
    // `on_error` on the error input.
    let plain_steps = |config: &RunConfig, on_error: &[&CompiledProgram]| -> u64 {
        let benign_steps: u64 = (benign.iter())
            .map(|input| run(&unpatched, input, config).steps + run(&patched, input, config).steps)
            .sum();
        let error_steps: u64 = (on_error.iter())
            .map(|program| run(program, &error_input, config).steps)
            .sum();
        benign_steps + error_steps
    };
    assert_eq!(runs_after - runs, 7, "3 baseline and 4 validation runs");
    assert_eq!(
        steps_after - steps,
        plain_steps(&RunConfig::default(), &[&patched]),
        "the error input's {} unpatched steps are not run again",
        crash.steps
    );
    assert_eq!(
        outcome.report.error_before,
        InputOutcome {
            termination: crash.termination.clone(),
            outputs: crash.outputs.clone(),
        }
    );

    // A recording longer than the validation limit does not stand in: the
    // error input runs again, and stops at the limit.
    let [runs, steps] = counters();
    let mut spec = TransferSpec::new(&error_input, &benign);
    spec.config.max_steps = crash.steps - 1;
    let limited = spec.config;
    let again = recipient
        .transfer(&crash, donor.checks(), &format, spec)
        .expect("the rate check still transfers");
    let [runs_after, steps_after] = counters();
    assert_eq!(again.patch, outcome.patch);
    assert_eq!(
        again.report.error_before.termination,
        Termination::Error(VmError::StepLimitExceeded)
    );
    assert_eq!(runs_after - runs, 8, "the error input runs again");
    assert_eq!(
        steps_after - steps,
        plain_steps(&limited, &[&unpatched, &patched])
    );
}
