//! The three workloads: each one is generated from a seed, and each stresses
//! a different layer of the pipeline.
//!
//! The program receives only the generated scenarios.  Generated programs and
//! inputs are leaked into `&'static` data because `cp_corpus::Scenario` holds
//! static slices; a run generates a few hundred small scenarios, a bounded
//! leak.

use crate::oracle::{self, Expected, Extra};
use crate::stats::Rng;
use cp_core::{ArenaEpoch, Budgets, Session};
use cp_corpus::pipeline::run_scenario;
use cp_corpus::synthetic::synthetic_scenarios;
use cp_corpus::{ErrorClass, Scenario};
use cp_lang::PatchAction;

/// `fig8-sweep` scenarios: every one of the twenty synthetic variants twenty
/// times, in a seeded order.
const FIG8_SCENARIOS: usize = 400;
/// Distinct generated pairs of `guarded-overflow`: three of each width shape.
const GUARDED_SCENARIOS: usize = 54;
/// Distinct generated pairs of `long-input`.
const LONG_SCENARIOS: usize = 24;
/// Body lengths of `long-input` span `LONG_MIN..=LONG_MIN * 8` bytes.
const LONG_MIN: f64 = 512.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig8Sweep,
    GuardedOverflow,
    LongInput,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig8Sweep, Kind::GuardedOverflow, Kind::LongInput];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Sweep => "fig8-sweep",
            Kind::GuardedOverflow => "guarded-overflow",
            Kind::LongInput => "long-input",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Closed-loop client threads.
    pub fn threads(self) -> usize {
        match self {
            Kind::Fig8Sweep => 2,
            Kind::GuardedOverflow | Kind::LongInput => 1,
        }
    }

    /// Whether the solver's verdict memo is emptied before every scenario,
    /// modelling a one-shot run on a fresh pair.
    pub fn resets_memo(self) -> bool {
        self == Kind::GuardedOverflow
    }

    /// Whether a `degraded` row (discovery fell back to the hand-written
    /// error input) counts as failed.
    pub fn degraded_fails(self) -> bool {
        self == Kind::GuardedOverflow
    }

    /// The percentile `patch_tail_ms` reports, fixed per workload so that
    /// it does not change with the sample count from run to run.  Each has
    /// at least ten samples beyond it in a 30-second run, and each falls
    /// inside a group of equally costly scenarios rather than at the gap
    /// between two groups, where a pass more or less of one group would
    /// move it by the width of the gap.  `fig8-sweep` could afford p99.9,
    /// but with two client threads on two CPUs that far tail measures when
    /// the operating system preempts a client: its quartiles over ten seeds
    /// spanned 56% of its median.  On `guarded-overflow` the costliest
    /// width shape is 1/18 of the samples and some 25% slower than the
    /// next, so p95 sat on its lower edge; p90 lies among the shapes below.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::Fig8Sweep => 99.0,
            Kind::GuardedOverflow | Kind::LongInput => 90.0,
        }
    }

    /// Span names whose self time the traced run predicts to be the
    /// majority of scenario time.
    pub fn predicted_dominant(self) -> &'static [&'static str] {
        match self {
            Kind::Fig8Sweep => &[
                "frontend", "compile", "validate", "apply", "print", "baseline", "run",
            ],
            Kind::GuardedOverflow => &["discover", "translate"],
            Kind::LongInput => &["record", "run"],
        }
    }
}

/// A generated workload: the scenarios and their expected rows, index for
/// index.
pub struct Workload {
    pub kind: Kind,
    pub scenarios: Vec<Scenario>,
    pub expected: Vec<Expected>,
}

/// Generates the workload for `seed`, builds every scenario's programs once
/// (so a generator defect fails here, not in the timed loop) and, for
/// `fig8-sweep`, warms the solver's verdict memo with one pass over the
/// twenty variants.
pub fn setup(kind: Kind, seed: u64) -> Result<Workload, String> {
    let mut rng = Rng::new(seed);
    let (scenarios, expected) = match kind {
        Kind::Fig8Sweep => fig8_sweep(&mut rng),
        Kind::GuardedOverflow => guarded_overflow(&mut rng),
        Kind::LongInput => long_input(&mut rng),
    };
    for scenario in &scenarios {
        for (source, stripped) in [(scenario.source, false), (scenario.donor_source, true)] {
            let mut builder = Session::builder()
                .source(source)
                .budgets(Budgets::default());
            if stripped {
                builder = builder.stripped();
            }
            builder
                .build()
                .map_err(|e| format!("{}: generated program does not build: {e}", scenario.name))?;
        }
    }
    cp_solver::reset_solver_memo();
    if kind == Kind::Fig8Sweep {
        for variant in synthetic_scenarios(20) {
            let _epoch = ArenaEpoch::begin();
            let outcome = run_scenario(&variant);
            if !outcome.validated() {
                return Err(format!("{}: memo warm-up did not validate", variant.name));
            }
        }
    }
    Ok(Workload {
        kind,
        scenarios,
        expected,
    })
}

fn leak<T>(value: Vec<T>) -> &'static [T] {
    Box::leak(value.into_boxed_slice())
}

fn leak_str(value: String) -> &'static str {
    Box::leak(value.into_boxed_str())
}

fn fig8_sweep(rng: &mut Rng) -> (Vec<Scenario>, Vec<Expected>) {
    let mut scenarios = synthetic_scenarios(FIG8_SCENARIOS);
    rng.shuffle(&mut scenarios);
    let expected = scenarios.iter().map(|s| oracle::fig8_row(s.name)).collect();
    (scenarios, expected)
}

const READ_U16: &str = r#"
    fn read_u16(off: u64) -> u16 {
        return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
    }
"#;

/// An image-header recipient that range-checks each field, as real parsers
/// do, before a 32-bit `width * height * depth` allocation size.
fn guarded_recipient(bounds: [u64; 3]) -> String {
    let [w, h, d] = bounds;
    format!(
        r#"{READ_U16}
    fn main() -> u32 {{
        var width: u32 = read_u16(0) as u32;
        if (width > {w}) {{ exit(2); }}
        var height: u32 = read_u16(2) as u32;
        if (height > {h}) {{ exit(2); }}
        var depth: u32 = read_u16(4) as u32;
        if (depth > {d}) {{ exit(2); }}
        var size: u32 = width * height * depth;
        var pixels: u64 = malloc(size as u64);
        output(size as u64);
        return 0;
    }}
"#
    )
}

/// The donor: the same header at 64 bits, rejecting sizes above `threshold`.
fn guarded_donor(threshold: u64) -> String {
    format!(
        r#"{READ_U16}
    fn main() -> u32 {{
        var width: u64 = read_u16(0) as u64;
        var height: u64 = read_u16(2) as u64;
        var depth: u64 = read_u16(4) as u64;
        var size: u64 = (width * height) * depth;
        if (size > {threshold}) {{ exit(1); }}
        var pixels: u64 = malloc(size);
        output(size);
        return 0;
    }}
"#
    )
}

fn header(w: u64, h: u64, d: u64) -> &'static [u8] {
    leak(
        [w, h, d]
            .iter()
            .flat_map(|&v| [(v >> 8) as u8, v as u8])
            .collect(),
    )
}

/// Image-header pairs whose overflow hides behind range checks.
///
/// Each field is bounded by `2^k - 1`, with widths summing to 33 or 34 bits:
/// the overflow is satisfiable, but a random header passes all three checks
/// about once in 2^14 draws, so discovery's sampling rung rarely finds it and
/// the bit-blasting rung must.  Every seed uses each of the 18 width shapes
/// equally often, in a seeded order with seeded thresholds and benign
/// inputs: the solver's work depends on the shape, so a balanced mix keeps
/// the workload's cost the same from seed to seed.
fn guarded_overflow(rng: &mut Rng) -> (Vec<Scenario>, Vec<Expected>) {
    let mut shapes: Vec<[u64; 3]> = Vec::with_capacity(GUARDED_SCENARIOS);
    for _ in 0..GUARDED_SCENARIOS / 18 {
        for a in 11..=13 {
            for b in 11..=13 {
                for total in 33..=34 {
                    shapes.push([a, b, total - a - b]);
                }
            }
        }
    }
    rng.shuffle(&mut shapes);
    let mut scenarios = Vec::with_capacity(GUARDED_SCENARIOS);
    let mut expected = Vec::with_capacity(GUARDED_SCENARIOS);
    for (index, widths) in shapes.into_iter().enumerate() {
        let bounds = widths.map(|k| (1u64 << k) - 1);
        let [w, h, d] = bounds;
        let threshold = rng.range(1 << 31, u64::from(u32::MAX));
        let benign: Vec<&'static [u8]> = (0..3)
            .map(|_| header(rng.range(1, 64), rng.range(1, 64), rng.range(1, 4)))
            .collect();
        scenarios.push(Scenario {
            name: leak_str(format!("guarded#{index:03}")),
            source: leak_str(guarded_recipient(bounds)),
            donor_source: leak_str(guarded_donor(threshold)),
            error_class: ErrorClass::OverflowIntoAllocation,
            error_input: header(w, h, d),
            benign_input: benign[0],
            benign_corpus: leak(benign),
            patch_action: PatchAction::Exit(1),
            fields: &[
                ("/img/width", &[0, 1]),
                ("/img/height", &[2, 3]),
                ("/img/depth", &[4, 5]),
            ],
        });
        expected.push(Expected {
            site: "main@6",
            statement: oracle::product3_statement(
                &threshold.to_string(),
                "width",
                "height",
                "depth",
            ),
            action: PatchAction::Exit(1),
            extra: Extra::RangeChecked { bounds },
        });
    }
    (scenarios, expected)
}

/// Sums a body whose length the header gives, then divides by a header
/// field: a zero `rate` divides by zero.
const LONG_RECIPIENT: &str = r#"
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

/// The donor rejects a zero rate before it reads the body.
const LONG_DONOR: &str = r#"
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

fn long_message(rng: &mut Rng, rate: u8, len: usize) -> &'static [u8] {
    let mut bytes = vec![rate, (len >> 8) as u8, len as u8];
    bytes.extend((0..len).map(|_| rng.byte()));
    leak(bytes)
}

/// Divide-by-zero pairs over long bodies.  The work grows faster than the
/// body length, so lengths are fixed: the centres of 24 equal strata of a log
/// scale over `512..=4096` bytes, visited in a stride-7 order so that a run
/// that stops part way through the list has still covered the whole range.
/// The seed draws the body bytes, the benign rates and nothing that changes
/// the amount of work.  The benign corpus uses equally long inputs.
fn long_input(rng: &mut Rng) -> (Vec<Scenario>, Vec<Expected>) {
    let mut scenarios = Vec::with_capacity(LONG_SCENARIOS);
    let mut expected = Vec::with_capacity(LONG_SCENARIOS);
    for index in 0..LONG_SCENARIOS {
        let stratum = (((index * 7) % LONG_SCENARIOS) as f64 + 0.5) / LONG_SCENARIOS as f64;
        let len = (LONG_MIN * 8f64.powf(stratum)) as usize;
        let benign: Vec<&'static [u8]> = (0..3)
            .map(|_| {
                let rate = rng.range(1, 255) as u8;
                long_message(rng, rate, len)
            })
            .collect();
        scenarios.push(Scenario {
            name: leak_str(format!("long#{index:03}")),
            source: LONG_RECIPIENT,
            donor_source: LONG_DONOR,
            error_class: ErrorClass::DivideByZero,
            error_input: long_message(rng, 0, len),
            benign_input: benign[0],
            benign_corpus: leak(benign),
            patch_action: PatchAction::Exit(1),
            fields: &[("/sum/rate", &[0]), ("/sum/len", &[1, 2])],
        });
        expected.push(Expected {
            site: "main@0",
            statement: oracle::zero_byte_statement("rate", PatchAction::Exit(1)),
            action: PatchAction::Exit(1),
            extra: Extra::MeanOfBody,
        });
    }
    (scenarios, expected)
}
