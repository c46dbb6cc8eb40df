//! What instrumented recording costs over a plain run, and what the budget
//! layer and a trace subscriber add to it — the reproduction's counterpart
//! of the paper's Valgrind instrumentation cost (Section 3.2).
//!
//! Every corpus scenario runs on its benign input in four arms, each on a
//! session of its own:
//!
//! - `plain`: `cp_vm::run`, which builds no shadow state;
//! - `recorded`: `Session::record_with_input`;
//! - `guarded`: `Session::record_guarded` under `Budgets::default()`;
//! - `traced`: `record_with_input` under a subscribed `Collector`.  The arm
//!   subscribes inside its own timed call, so the subscription's cost is
//!   counted and no other arm runs under it.
//!
//! [`interleave`] runs every arm once per round and rotates which arm goes
//! first, so warm-up and drift fall on all four alike.  Each ratio is taken
//! within a round and the counters are medians over rounds:
//!
//! - `instrumentation_overhead_p50`: recorded / plain, pooled;
//! - `budget_overhead_p50_worst`: guarded / recorded on the scenario where
//!   it is highest;
//! - `trace_overhead_p50`: traced / recorded, pooled.
//!
//! A pooled ratio divides the two arms' times summed over the corpus, so the
//! scenarios that record in a few microseconds cannot dominate it.  Budget
//! checks and span guards run at stage boundaries only, never per
//! instruction, so a full run fails when either of the last two exceeds
//! 1.05x.  Quick mode (two rounds) is a smoke test and enforces neither
//! bound; `bench-compare` gates both counters across changes.

use cp_bench::harness::{emit_with, interleave, percentile, quick_mode, section, Measurement};
use cp_core::Session;
use cp_obs::Collector;
use cp_vm::{run, RunConfig};
use std::hint::black_box;

const ARMS: [&str; 4] = ["plain", "recorded", "guarded", "traced"];
const PLAIN: usize = 0;
const RECORDED: usize = 1;
const GUARDED: usize = 2;
const TRACED: usize = 3;

/// One scenario's samples: per arm, per round.
type Samples = Vec<Vec<f64>>;

/// The median over rounds of arm `num`'s time over arm `den`'s, each summed
/// over `scenarios` within the round.
fn paired_p50(scenarios: &[&Samples], num: usize, den: usize) -> f64 {
    let rounds = scenarios[0][num].len();
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            let total = |arm: usize| scenarios.iter().map(|s| s[arm][round]).sum::<f64>();
            total(num) / total(den)
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    percentile(&ratios, 0.50)
}

fn main() {
    section("recording: plain, recorded, guarded and traced, interleaved");
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut corpus: Vec<Samples> = Vec::new();
    for scenario in cp_corpus::scenarios() {
        let input = scenario.benign_input;
        // A session's budgets default to `Budgets::default()`.
        let session = || {
            Session::builder()
                .source(scenario.source)
                .build()
                .expect("corpus programs build")
        };
        let (plain, mut recorded, mut guarded, mut traced) =
            (session(), session(), session(), session());
        let config = RunConfig::default();
        let collector = Collector::new();
        let samples = interleave(
            10,
            200,
            &mut [
                &mut || {
                    black_box(run(plain.program(), input, &config));
                },
                &mut || {
                    black_box(recorded.record_with_input(input));
                },
                &mut || {
                    black_box(
                        guarded
                            .record_guarded(input)
                            .expect("benign input stays within default budgets"),
                    );
                },
                &mut || {
                    let _subscription = collector.subscribe();
                    black_box(traced.record_with_input(input));
                },
            ],
        );
        drop(collector.take());
        for (arm, arm_samples) in ARMS.iter().zip(&samples) {
            let m =
                Measurement::from_samples(&format!("{arm}/{}", scenario.name), arm_samples.clone());
            println!("{}", m.report());
            measurements.push(m);
        }
        println!(
            "{:<40} recorded/plain {:.3}x  guarded/recorded {:.3}x  traced/recorded {:.3}x",
            scenario.name,
            paired_p50(&[&samples], RECORDED, PLAIN),
            paired_p50(&[&samples], GUARDED, RECORDED),
            paired_p50(&[&samples], TRACED, RECORDED),
        );
        corpus.push(samples);
    }

    let pooled: Vec<&Samples> = corpus.iter().collect();
    let instrumentation = paired_p50(&pooled, RECORDED, PLAIN);
    let budget_worst = corpus
        .iter()
        .map(|samples| paired_p50(&[samples], GUARDED, RECORDED))
        .fold(0.0, f64::max);
    let trace = paired_p50(&pooled, TRACED, RECORDED);
    let counters = [
        ("instrumentation_overhead_p50", instrumentation),
        ("budget_overhead_p50_worst", budget_worst),
        ("trace_overhead_p50", trace),
    ];
    for (name, ratio) in counters {
        println!("{name:<40} {ratio:>11.3}x");
    }
    emit_with("record", &measurements, &counters);

    if !quick_mode() && (budget_worst > 1.05 || trace > 1.05) {
        eprintln!(
            "recording add-ons exceed the 5% p50 overhead bound: budgets {budget_worst:.3}x, tracing {trace:.3}x"
        );
        std::process::exit(1);
    }
}
