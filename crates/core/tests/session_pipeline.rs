//! End-to-end tests of the `cp-core` pipeline façade.
//!
//! These exercise the whole stack — front end, bytecode compiler,
//! instrumented VM, trace recording and symbolic simplification — through the
//! single public entry point, with no caller-side wiring of
//! `frontend`/`compile`/`run`.

use cp_core::Session;
use cp_formats::FormatDescriptor;
use cp_symexpr::display::paper_format;
use cp_vm::{Termination, VmError};

/// Façade version of the seed `cp-vm` arithmetic end-to-end test.
#[test]
fn session_end_to_end_arithmetic() {
    let trace = Session::builder()
        .source("fn main() -> u32 { return 6 * 7; }")
        .record()
        .expect("pipeline");
    assert_eq!(trace.termination, Termination::Returned(42));
    assert!(trace.branches.is_empty());
}

/// Façade version of the seed `cp-vm` input-parsing end-to-end test.
#[test]
fn session_end_to_end_input_parsing() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var width: u16 = ((input_byte(0) as u16) << 8) | (input_byte(1) as u16);
                output(width as u64);
                return width as u32;
            }
            "#,
        )
        .input([0x12u8, 0x34])
        .record()
        .expect("pipeline");
    assert_eq!(trace.termination, Termination::Returned(0x1234));
    assert_eq!(trace.outputs, vec![0x1234]);
    let width = trace
        .var_values
        .iter()
        .find(|v| v.name == "width")
        .expect("width is tainted");
    assert_eq!(width.expr.support().iter().collect::<Vec<_>>(), vec![0, 1]);
}

#[test]
fn detector_out_of_bounds_heap_access() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var buffer: ptr<u8> = malloc(8) as ptr<u8>;
                var index: u64 = input_byte(0) as u64;
                buffer[index] = 42;
                return 0;
            }
            "#,
        )
        .input([32u8])
        .record()
        .expect("pipeline");
    assert!(matches!(
        trace.last_error(),
        Some(VmError::OutOfBounds { write: true, .. })
    ));
    assert!(trace.termination.is_application_error());
}

#[test]
fn detector_divide_by_zero() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var denom: u32 = input_byte(3) as u32;
                return 1000 / denom;
            }
            "#,
        )
        .input([1u8, 2, 3, 0])
        .record()
        .expect("pipeline");
    assert!(matches!(
        trace.last_error(),
        Some(VmError::DivideByZero { .. })
    ));
}

#[test]
fn detector_overflow_into_allocation_size() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var width: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
                var height: u32 = ((input_byte(2) as u32) << 8) | (input_byte(3) as u32);
                var size: u32 = width * height * 4;
                var pixels: u64 = malloc(size as u64);
                return 0;
            }
            "#,
        )
        .input([0xFF, 0xFF, 0xFF, 0xFF])
        .record()
        .expect("pipeline");
    assert!(matches!(
        trace.last_error(),
        Some(VmError::OverflowIntoAllocation { .. })
    ));
    // The same program with a small header allocates fine.
    let benign = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var width: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
                var height: u32 = ((input_byte(2) as u32) << 8) | (input_byte(3) as u32);
                var size: u32 = width * height * 4;
                var pixels: u64 = malloc(size as u64);
                return 0;
            }
            "#,
        )
        .input([0x00, 0x10, 0x00, 0x10])
        .record()
        .expect("pipeline");
    assert!(benign.last_error().is_none());
}

/// The Figure 5 golden test: a big-endian 16-bit field read, branched on,
/// must appear in the trace as a simplified condition over exactly the two
/// field bytes — and fold to a single `HachField` leaf under a format
/// descriptor.
#[test]
fn golden_big_endian_field_check() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var width: u16 = ((input_byte(0) as u16) << 8) | (input_byte(1) as u16);
                if (width > 16384) { exit(1); }
                output(width as u64);
                return width as u32;
            }
            "#,
        )
        .input([0x12u8, 0x34])
        .record()
        .expect("pipeline");

    assert_eq!(trace.termination, Termination::Returned(0x1234));
    let checks = trace.checks();
    assert_eq!(checks.len(), 1);
    let check = &checks[0];

    // The simplified application-independent condition constrains exactly the
    // two bytes of the width field, and simplification did not grow it.
    assert_eq!(check.support(), vec![0, 1]);
    assert!(check.simplified_ops() <= check.raw_ops());

    // Folding through the format descriptor yields the paper's single-field
    // form: `width > 16384` was compiled as `16384 < width`.
    let format = FormatDescriptor::new().field("/hdr/width", vec![0, 1]);
    let folded = format.fold(&check.condition());
    assert_eq!(
        paper_format(&folded),
        "ULess(8,Constant(16384),HachField(16,'/hdr/width'))"
    );
}

/// `branches_influenced_by` narrows a trace to the branches the error-related
/// bytes influence, as the donor analysis does for the error input.
#[test]
fn branch_filtering_by_input_offsets() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var kind: u32 = input_byte(0) as u32;
                var len: u32 = input_byte(1) as u32;
                if (kind == 3) { output(1); }
                if (len < 64) { output(2); }
                return 0;
            }
            "#,
        )
        .input([3u8, 10])
        .record()
        .expect("pipeline");
    assert_eq!(trace.tainted_branches().len(), 2);
    assert_eq!(trace.branches_influenced_by(&[0]).len(), 1);
    assert_eq!(trace.branches_influenced_by(&[1]).len(), 1);
    assert_eq!(trace.branches_influenced_by(&[0, 1]).len(), 2);
    assert!(trace.branches_influenced_by(&[9]).is_empty());
}

/// A partial overwrite through a byte alias must invalidate the wider shadow:
/// the recorded symbolic condition has to agree with the concrete execution.
/// The same overwrite runs through a heap word, a stack slot and a global,
/// because the VM keeps each segment's shadow separately.
#[test]
fn aliased_partial_overwrite_keeps_shadow_consistent() {
    use cp_symexpr::eval::eval;
    let input = [5u8];
    let sources = [
        r#"
        fn main() -> u32 {
            var pw: ptr<u32> = malloc(4) as ptr<u32>;
            var pb: ptr<u8> = pw as ptr<u8>;
            pw[0] = input_byte(0) as u32;
            pb[1] = 7;
            if (pw[0] > 100) { return 1; }
            return 0;
        }
        "#,
        r#"
        fn main() -> u32 {
            var w: u32 = 0;
            var pb: ptr<u8> = &w as ptr<u8>;
            w = input_byte(0) as u32;
            pb[1] = 7;
            if (w > 100) { return 1; }
            return 0;
        }
        "#,
        r#"
        global w: u32 = 0;
        fn main() -> u32 {
            var pb: ptr<u8> = &w as ptr<u8>;
            w = input_byte(0) as u32;
            pb[1] = 7;
            if (w > 100) { return 1; }
            return 0;
        }
        "#,
    ];
    for source in sources {
        let trace = Session::builder()
            .source(source)
            .input(input)
            .record()
            .expect("pipeline");
        // The word is 0x0705 = 1797 > 100, so the condition is concretely true.
        assert_eq!(trace.termination, Termination::Returned(1), "{source}");
        let branch = &trace.branches[0];
        assert_eq!(branch.condition_value, 1, "{source}");
        // The three untouched bytes keep the condition tainted, and it must
        // evaluate the same way under the actual input; a stale
        // pre-overwrite shadow would evaluate to 0.
        let expr = branch
            .expr
            .as_ref()
            .unwrap_or_else(|| panic!("the condition stays tainted: {source}"));
        assert_eq!(eval(expr, &input[..]), branch.condition_value, "{source}");
    }
}

/// A byte-wide reload of a wider tainted store keeps its taint, so branches
/// on the reloaded byte still show up as candidate checks.
#[test]
fn narrow_reload_of_wide_store_stays_tainted() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var pw: ptr<u32> = malloc(4) as ptr<u32>;
                var pb: ptr<u8> = pw as ptr<u8>;
                pw[0] = input_byte(0) as u32;
                var low: u8 = pb[0];
                if ((low as u32) > 100) { return 1; }
                return 0;
            }
            "#,
        )
        .input([200u8])
        .record()
        .expect("pipeline");
    assert_eq!(trace.termination, Termination::Returned(1));
    assert_eq!(trace.tainted_branches().len(), 1);
    let checks = trace.checks();
    assert_eq!(checks.len(), 1);
    assert_eq!(checks[0].support(), vec![0]);
}

/// Loop conditions appear once per site in `checks()` even when executed many
/// times.
#[test]
fn checks_deduplicate_branch_sites() {
    let trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var n: u64 = input_byte(0) as u64;
                var i: u64 = 0;
                var sum: u32 = 0;
                while (i < n) {
                    sum = sum + 1;
                    i = i + 1;
                }
                return sum;
            }
            "#,
        )
        .input([5u8])
        .record()
        .expect("pipeline");
    // The loop condition executed six times but is one check site.
    assert!(trace.branches.len() > 1);
    assert_eq!(trace.checks().len(), 1);
}

/// A donor check over a named field translates into an expression the
/// recipient itself computes, through `Trace::translate_check`.
#[test]
fn donor_checks_translate_into_recipient_variables() {
    use cp_formats::FormatDescriptor;
    use cp_symexpr::eval::eval;

    // Donor: validates a big-endian 16-bit length field (stripped binary —
    // the donor analysis needs no symbols).
    let donor_trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var len: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
                if (len > 1024) { exit(1); }
                output(len as u64);
                return 0;
            }
            "#,
        )
        .stripped()
        .input([0xFFu8, 0xFF])
        .record()
        .expect("donor builds");
    assert_eq!(donor_trace.termination, Termination::Exited(1));
    let check = &donor_trace.checks()[0];

    // Recipient: reads the same field into its own variable, no validation.
    let recipient_trace = Session::builder()
        .source(
            r#"
            fn main() -> u32 {
                var length: u64 = ((input_byte(0) as u64) << 8) | (input_byte(1) as u64);
                var buffer: u64 = malloc(length);
                return 0;
            }
            "#,
        )
        .input([0x00u8, 0x40])
        .record()
        .expect("recipient builds");
    let candidates = recipient_trace.candidates();
    assert!(
        candidates.iter().any(|c| c.label == "var length"),
        "variable values must be candidates: {:?}",
        candidates
            .iter()
            .map(|c| c.label.clone())
            .collect::<Vec<_>>()
    );

    let format = FormatDescriptor::new().field("/pkt/len", vec![0, 1]);
    let translation = recipient_trace
        .translate_check(check, &format)
        .expect("translates");
    assert_eq!(translation.bindings.len(), 1);
    assert_eq!(translation.bindings[0].path, "/pkt/len");
    assert_eq!(translation.bindings[0].source, "var length");
    // The translated guard discriminates exactly like the donor's.
    assert_ne!(eval(&translation.condition, &[0xFFu8, 0xFF][..]), 0);
    assert_eq!(eval(&translation.condition, &[0x00u8, 0x40][..]), 0);
}
