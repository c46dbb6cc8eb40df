//! # cp-corpus
//!
//! A corpus of Phage-C donor/recipient scenarios.
//!
//! The paper's evaluation runs ten donor→recipient transfer pairs over real
//! image- and sound-parsing applications.  This crate holds the synthetic
//! equivalents.  Each [`Scenario`] is a *pair* of programs over the same
//! input format:
//!
//! * [`source`](Scenario::source) — the unguarded, vulnerable program (the
//!   transfer *recipient*): an input can drive it into one of the three
//!   error classes;
//! * [`donor_source`](Scenario::donor_source) — a program that parses the
//!   same header but **validates** it: the check Code Phage discovers,
//!   excises and transfers.  On the error input the donor exits cleanly
//!   (`exit(1)`) instead of faulting.
//!
//! [`Scenario::format`] gives the dissector's view of the input — the named
//! byte ranges that turn raw-byte checks into `HachField` expressions — so a
//! full record→fold→translate round trip needs nothing beyond this crate.
//! The benchmark harness and the Figure 8 report generator iterate over
//! [`scenarios`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use cp_formats::FormatDescriptor;
use cp_lang::PatchAction;

pub mod pipeline;
pub mod synthetic;

/// Which of the paper's error classes a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Out-of-bounds heap access.
    OutOfBounds,
    /// Division or remainder by zero.
    DivideByZero,
    /// Integer overflow flowing into an allocation size.
    OverflowIntoAllocation,
}

/// One donor/recipient pair: a vulnerable program, a guarded donor over the
/// same input format, and inputs exercising both paths.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Short unique name (used in benchmark output).
    pub name: &'static str,
    /// Phage-C source of the unguarded, vulnerable program — the transfer
    /// recipient.
    pub source: &'static str,
    /// Phage-C source of the guarded donor: same input format, plus the
    /// validation check that makes it exit cleanly on `error_input`.
    pub donor_source: &'static str,
    /// The error class `error_input` triggers in the recipient.
    pub error_class: ErrorClass,
    /// An input that drives the recipient into the error (and the donor into
    /// its check).
    pub error_input: &'static [u8],
    /// An input both programs process successfully.
    pub benign_input: &'static [u8],
    /// The benign regression corpus validation runs: every input here must
    /// behave byte-identically before and after the patch (includes
    /// [`benign_input`](Self::benign_input)).
    pub benign_corpus: &'static [&'static [u8]],
    /// What the transferred guard does when it fires: `exit(1)` for most
    /// scenarios, `return 0` for the paper's Wireshark-style alternate
    /// strategy.
    pub patch_action: PatchAction,
    /// The input format's fields as `(path, big-endian byte offsets)` — what
    /// the dissector reports for this input.
    pub fields: &'static [(&'static str, &'static [usize])],
}

impl Scenario {
    /// The input-format descriptor for this scenario's header.
    pub fn format(&self) -> FormatDescriptor {
        self.fields
            .iter()
            .fold(FormatDescriptor::new(), |fmt, (path, offsets)| {
                fmt.field(*path, offsets.to_vec())
            })
    }
}

/// A recipient that parses a big-endian image header and allocates
/// `width * height * depth` pixel bytes; a large header overflows the 32-bit
/// size computation (the paper's CVE-2004-1288-style overflow-into-malloc
/// recipient).  The donor computes the size at 64 bits and rejects anything
/// that would not fit in 32 — the check to transfer.
pub const IMAGE_ALLOC: Scenario = Scenario {
    name: "image-alloc-overflow",
    source: r#"
        fn read_u16(off: u64) -> u16 {
            return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
        }
        fn main() -> u32 {
            var width: u32 = read_u16(0) as u32;
            var height: u32 = read_u16(2) as u32;
            var depth: u32 = read_u16(4) as u32;
            var size: u32 = width * height * depth;
            var pixels: u64 = malloc(size as u64);
            output(size as u64);
            return 0;
        }
    "#,
    donor_source: r#"
        fn read_u16(off: u64) -> u16 {
            return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
        }
        fn main() -> u32 {
            var width: u64 = read_u16(0) as u64;
            var height: u64 = read_u16(2) as u64;
            var depth: u64 = read_u16(4) as u64;
            var size: u64 = (width * height) * depth;
            if (size > 4294967295) { exit(1); }
            var pixels: u64 = malloc(size);
            output(size);
            return 0;
        }
    "#,
    error_class: ErrorClass::OverflowIntoAllocation,
    error_input: &[0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x04],
    benign_input: &[0x00, 0x10, 0x00, 0x10, 0x00, 0x04],
    benign_corpus: &[
        &[0x00, 0x10, 0x00, 0x10, 0x00, 0x04],
        &[0x00, 0x01, 0x00, 0x02, 0x00, 0x03],
        &[0x00, 0x40, 0x00, 0x40, 0x00, 0x01],
    ],
    patch_action: PatchAction::Exit(1),
    fields: &[
        ("/img/width", &[0, 1]),
        ("/img/height", &[2, 3]),
        ("/img/depth", &[4, 5]),
    ],
};

/// A recipient that indexes a fixed-size palette with an input byte; indices
/// past the palette end walk off the allocation (out-of-bounds read).  The
/// donor bounds-checks the index first.
pub const PALETTE_OOB: Scenario = Scenario {
    name: "palette-oob-read",
    source: r#"
        fn main() -> u32 {
            var palette: ptr<u32> = malloc(64) as ptr<u32>;
            var i: u64 = 0;
            while (i < 16) {
                palette[i] = (i * 17) as u32;
                i = i + 1;
            }
            var index: u64 = input_byte(0) as u64;
            output(palette[index] as u64);
            return 0;
        }
    "#,
    donor_source: r#"
        fn main() -> u32 {
            var palette: ptr<u32> = malloc(64) as ptr<u32>;
            var i: u64 = 0;
            while (i < 16) {
                palette[i] = (i * 17) as u32;
                i = i + 1;
            }
            var index: u64 = input_byte(0) as u64;
            if (index > 15) { exit(1); }
            output(palette[index] as u64);
            return 0;
        }
    "#,
    error_class: ErrorClass::OutOfBounds,
    error_input: &[200],
    benign_input: &[7],
    benign_corpus: &[&[7], &[0], &[15]],
    patch_action: PatchAction::Exit(1),
    fields: &[("/pal/index", &[0])],
};

/// A recipient that averages sample bytes over a count read from the header;
/// a zero count divides by zero (the paper's swfdec/gnash class of errors).
/// The donor rejects empty sample sets before dividing.
pub const SAMPLE_DIV: Scenario = Scenario {
    name: "sample-rate-div",
    source: r#"
        fn main() -> u32 {
            var count: u32 = input_byte(0) as u32;
            var total: u32 = 0;
            var i: u64 = 0;
            while (i < (count as u64)) {
                total = total + (input_byte(i + 1) as u32);
                i = i + 1;
            }
            var mean: u32 = total / count;
            output(mean as u64);
            return mean;
        }
    "#,
    donor_source: r#"
        fn main() -> u32 {
            var count: u32 = input_byte(0) as u32;
            if (count == 0) { exit(1); }
            var total: u32 = 0;
            var i: u64 = 0;
            while (i < (count as u64)) {
                total = total + (input_byte(i + 1) as u32);
                i = i + 1;
            }
            var mean: u32 = total / count;
            output(mean as u64);
            return mean;
        }
    "#,
    error_class: ErrorClass::DivideByZero,
    error_input: &[0],
    benign_input: &[4, 10, 20, 30, 40],
    benign_corpus: &[&[4, 10, 20, 30, 40], &[1, 9], &[2, 4, 6]],
    patch_action: PatchAction::Exit(1),
    fields: &[("/snd/count", &[0])],
};

/// A recipient that scales a frame duration by a header rate; a zero rate
/// divides by zero.  Unlike [`SAMPLE_DIV`], the donor's guard uses the
/// paper's alternate repair strategy (Section 4.5, the Wireshark errors):
/// `return 0` from the processing function instead of exiting, so the
/// application keeps running productively on malformed frames.  The
/// transferred patch therefore uses [`PatchAction::ReturnZero`].
pub const FRAME_RATE_DIV: Scenario = Scenario {
    name: "frame-rate-div-return0",
    source: r#"
        fn main() -> u32 {
            var rate: u32 = input_byte(0) as u32;
            var scale: u32 = input_byte(1) as u32;
            var ms: u32 = 1000 / rate;
            output((ms * scale) as u64);
            return 0;
        }
    "#,
    donor_source: r#"
        fn main() -> u32 {
            var rate: u32 = input_byte(0) as u32;
            var scale: u32 = input_byte(1) as u32;
            if (rate == 0) { return 0; }
            var ms: u32 = 1000 / rate;
            output((ms * scale) as u64);
            return 0;
        }
    "#,
    error_class: ErrorClass::DivideByZero,
    error_input: &[0, 3],
    benign_input: &[10, 3],
    benign_corpus: &[&[10, 3], &[1, 1], &[255, 2]],
    patch_action: PatchAction::ReturnZero,
    fields: &[("/frm/rate", &[0]), ("/frm/scale", &[1])],
};

/// A recipient that parses a chunked container: a `kind` byte selects either
/// a fixed-size header path or a table path allocating
/// `count * stride * 8` bytes at 32 bits — which wraps for large headers
/// (the CVE-2002-0059-style "element count times element size" overflow).
/// The benign input takes the fixed-size path, so DIODE's generational
/// search must *flip* the kind branch before the overflow goal at the table
/// allocation becomes reachable.  The donor computes the table size at 64
/// bits and rejects anything that does not fit in 32 — the check to
/// transfer.
pub const CHUNK_ALLOC: Scenario = Scenario {
    name: "chunk-table-overflow",
    source: r#"
        fn read_u16(off: u64) -> u16 {
            return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
        }
        fn main() -> u32 {
            var kind: u32 = input_byte(0) as u32;
            if (kind == 0) {
                var header: u64 = malloc(64);
                output(0);
                return 0;
            }
            var count: u32 = read_u16(1) as u32;
            var stride: u32 = read_u16(3) as u32;
            var bytes: u32 = (count * stride) * 8;
            var table: u64 = malloc(bytes as u64);
            output(bytes as u64);
            return 0;
        }
    "#,
    donor_source: r#"
        fn read_u16(off: u64) -> u16 {
            return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
        }
        fn main() -> u32 {
            var kind: u64 = input_byte(0) as u64;
            if (kind == 0) {
                var header: u64 = malloc(64);
                output(0);
                return 0;
            }
            var count: u64 = read_u16(1) as u64;
            var stride: u64 = read_u16(3) as u64;
            var bytes: u64 = (count * stride) * 8;
            if (bytes > 4294967295) { exit(1); }
            var table: u64 = malloc(bytes);
            output(bytes);
            return 0;
        }
    "#,
    error_class: ErrorClass::OverflowIntoAllocation,
    error_input: &[0x01, 0xFF, 0xFF, 0xFF, 0xFF],
    benign_input: &[0x00, 0x00, 0x10, 0x00, 0x02],
    benign_corpus: &[
        &[0x00, 0x00, 0x10, 0x00, 0x02],
        &[0x01, 0x00, 0x10, 0x00, 0x02],
        &[0x01, 0x00, 0x40, 0x00, 0x40],
    ],
    patch_action: PatchAction::Exit(1),
    fields: &[
        ("/chk/kind", &[0]),
        ("/chk/count", &[1, 2]),
        ("/chk/stride", &[3, 4]),
    ],
};

/// All donor scenarios, covering every error class and both patch actions.
///
/// Two scenarios ([`IMAGE_ALLOC`], [`CHUNK_ALLOC`]) exercise the overflow
/// class: the pipeline *derives* their error inputs with goal-directed
/// discovery instead of consulting the hand-written ones.
pub fn scenarios() -> [Scenario; 5] {
    [
        IMAGE_ALLOC,
        CHUNK_ALLOC,
        PALETTE_OOB,
        SAMPLE_DIV,
        FRAME_RATE_DIV,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_distinct_and_cover_all_classes() {
        let all = scenarios();
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len());
        for class in [
            ErrorClass::OutOfBounds,
            ErrorClass::DivideByZero,
            ErrorClass::OverflowIntoAllocation,
        ] {
            assert!(all.iter().any(|s| s.error_class == class));
        }
    }

    #[test]
    fn inputs_differ_per_scenario() {
        for s in scenarios() {
            assert_ne!(s.error_input, s.benign_input, "{}", s.name);
        }
    }

    #[test]
    fn every_scenario_has_a_guarded_donor_and_a_format() {
        for s in scenarios() {
            assert_ne!(s.source, s.donor_source, "{}", s.name);
            assert!(!s.fields.is_empty(), "{}", s.name);
            let format = s.format();
            assert_eq!(format.fields.len(), s.fields.len(), "{}", s.name);
        }
    }

    #[test]
    fn benign_corpora_include_the_primary_benign_input() {
        for s in scenarios() {
            assert!(
                s.benign_corpus.contains(&s.benign_input),
                "{}: corpus must include the primary benign input",
                s.name
            );
            assert!(
                !s.benign_corpus.contains(&s.error_input),
                "{}: corpus must not include the error input",
                s.name
            );
        }
    }

    #[test]
    fn both_patch_actions_are_exercised() {
        let all = scenarios();
        assert!(all
            .iter()
            .any(|s| matches!(s.patch_action, PatchAction::Exit(_))));
        assert!(all
            .iter()
            .any(|s| s.patch_action == PatchAction::ReturnZero));
    }
}
