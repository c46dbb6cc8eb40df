//! The independent oracle.
//!
//! Every scenario family has a hand-written expected row: the insertion site,
//! the patch action and the inserted statement, with the family's seeded
//! constant substituted.  Two families add a check in plain Rust of what the
//! program computed: on `guarded-overflow` the discovered input must pass
//! every range check of the recipient and overflow 32 bits, and on
//! `long-input` every patched benign run must print `sum(body) / rate`.
//! None of it is derived from the pipeline's own output.

use cp_corpus::Scenario;
use cp_lang::{Patch, PatchAction};
use cp_patch::InputOutcome;

/// One scenario's expected Figure 8 row.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Insertion site, rendered `function@stmt`.
    pub site: &'static str,
    /// The inserted statement, rendered as `Patch::render` does.
    pub statement: String,
    /// What the guard does when it fires.
    pub action: PatchAction,
    /// The family's plain-Rust check.
    pub extra: Extra,
}

/// A family-specific check beyond the expected row.
#[derive(Debug, Clone, Copy)]
pub enum Extra {
    None,
    /// The error input must pass `width <= bounds[0]`, `height <= bounds[1]`
    /// and `depth <= bounds[2]` and overflow `width * height * depth` at 32
    /// bits.
    RangeChecked {
        bounds: [u64; 3],
    },
    /// Every benign output must be `sum(body) / rate` (header: rate byte,
    /// big-endian 16-bit body length).
    MeanOfBody,
}

/// What the pipeline produced for one scenario, as the oracle sees it.
pub struct Produced<'a> {
    pub degraded: bool,
    pub site: String,
    pub patch: &'a Patch,
    pub error_input: &'a [u8],
    /// The patched recipient's behaviour on each benign input.
    pub benign_after: Vec<&'a InputOutcome>,
    /// Whether validation found every benign input unchanged.
    pub benign_identical: bool,
}

/// Donor guard thresholds of the synthetic overflow variants, by variant.
const THRESHOLDS: [&str; 4] = ["4294967295", "2147483647", "1073741823", "536870911"];

/// The `if` statement guarding a 64-bit product of three 16-bit fields.
pub fn product3_statement(threshold: &str, a: &str, b: &str, c: &str) -> String {
    format!(
        "if ((({threshold} < (((({a} as u16) as u64) * (({b} as u16) as u64)) * (({c} as u16) as u64))) as u8)) {{ exit(1); }}"
    )
}

/// The `if` statement guarding a zero 8-bit divisor field.
pub fn zero_byte_statement(field: &str, action: PatchAction) -> String {
    let body = match action {
        PatchAction::Exit(status) => format!("exit({status});"),
        PatchAction::ReturnZero => "return 0;".to_string(),
    };
    format!("if ((((({field} as u8) as u32) == 0) as u8)) {{ {body} }}")
}

/// The expected row of a synthetic Figure 8 variant, from its name
/// (`syn-<family>-v<variant>#<index>`).
pub fn fig8_row(name: &str) -> Expected {
    let family = name.get(4..7).unwrap_or("");
    let variant = name
        .get(9..10)
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    let threshold = THRESHOLDS.get(variant).copied().unwrap_or("?");
    let (site, statement, action) = match family {
        "img" => (
            "main@2",
            product3_statement(threshold, "width", "height", "depth"),
            PatchAction::Exit(1),
        ),
        "chk" => (
            "main@6",
            format!(
                "if ((({threshold} < ((((count as u16) as u64) * ((stride as u16) as u64)) * 8)) as u8)) {{ exit(1); }}"
            ),
            PatchAction::Exit(1),
        ),
        "pal" => (
            "main@5",
            "if (((15 < ((index as u8) as u64)) as u8)) { exit(1); }".to_string(),
            PatchAction::Exit(1),
        ),
        "snd" => (
            "main@0",
            zero_byte_statement("count", PatchAction::Exit(1)),
            PatchAction::Exit(1),
        ),
        "frm" => (
            "main@0",
            zero_byte_statement("rate", PatchAction::ReturnZero),
            PatchAction::ReturnZero,
        ),
        _ => ("?", format!("unknown scenario family of {name}"), PatchAction::Exit(1)),
    };
    Expected {
        site,
        statement,
        action,
        extra: Extra::None,
    }
}

fn be16(bytes: &[u8], offset: usize) -> Option<u64> {
    Some(u64::from(*bytes.get(offset)?) << 8 | u64::from(*bytes.get(offset + 1)?))
}

/// Checks one produced row against its expected row; `Err` says why not.
pub fn check(
    expected: &Expected,
    scenario: &Scenario,
    produced: &Produced<'_>,
    degraded_fails: bool,
) -> Result<(), String> {
    if degraded_fails && produced.degraded {
        return Err("degraded: discovery fell back to the hand-written input".into());
    }
    if produced.site != expected.site {
        return Err(format!("site {} != {}", produced.site, expected.site));
    }
    if produced.patch.action != expected.action {
        return Err(format!(
            "action {:?} != {:?}",
            produced.patch.action, expected.action
        ));
    }
    let statement = produced.patch.render();
    if statement != expected.statement {
        return Err(format!("patch `{statement}` != `{}`", expected.statement));
    }
    if !produced.benign_identical || produced.benign_after.len() != scenario.benign_corpus.len() {
        return Err("benign corpus not revalidated unchanged".into());
    }
    match expected.extra {
        Extra::None => Ok(()),
        Extra::RangeChecked { bounds } => {
            let input = produced.error_input;
            let fields = [be16(input, 0), be16(input, 2), be16(input, 4)];
            let [Some(w), Some(h), Some(d)] = fields else {
                return Err(format!("error input {input:?} is shorter than the header"));
            };
            if w > bounds[0] || h > bounds[1] || d > bounds[2] {
                return Err(format!(
                    "error input {w}x{h}x{d} fails a range check {bounds:?}"
                ));
            }
            if w * h * d <= u64::from(u32::MAX) {
                return Err(format!("error input {w}x{h}x{d} does not overflow 32 bits"));
            }
            Ok(())
        }
        Extra::MeanOfBody => {
            for (input, after) in scenario.benign_corpus.iter().zip(&produced.benign_after) {
                let rate = u32::from(input[0]);
                let len = be16(input, 1).unwrap_or(0) as usize;
                let sum: u32 = input[3..3 + len].iter().map(|&b| u32::from(b)).sum();
                let want = vec![u64::from(sum / rate)];
                if after.outputs != want || after.termination.error().is_some() {
                    return Err(format!(
                        "patched benign run printed {:?}, expected {want:?}",
                        after.outputs
                    ));
                }
            }
            Ok(())
        }
    }
}
