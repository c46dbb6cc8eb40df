//! Bench-regression gate: diffs a fresh (quick-mode) bench run against the
//! checked-in `BENCH.json` baseline and fails on large p50 regressions in
//! the gated pipeline stages.
//!
//! Usage:
//!
//! ```text
//! bench-compare --fresh <fresh.json> [--baseline BENCH.json] [--threshold 3.0]
//! ```
//!
//! Only the stages whose wall time the roadmap tracks are gated —
//! **record** (`long_trace/record`, `long_trace/record+checks`), plain runs
//! (`long_trace/plain`), **translate** (`translate/*`) and **transfer**
//! (`transfer/*`) — and only on the median (p50): the fresh run comes from
//! `CP_BENCH_QUICK=1` (one warmup, two rounds), so means and tails are noise
//! while a >3x median blowup reliably indicates a real regression.  Cases
//! present in only one document are reported but never fail the gate (a
//! renamed bench should not mask a regression elsewhere).
//!
//! Dimensionless counters (see `COUNTER_GATED`) are gated with tighter
//! per-counter thresholds: growth in a deterministic work count means a
//! pass stopped firing, and growth in the `record` bench's overhead ratios
//! means an add-on crept into a per-instruction path.
//! A gated counter is only skipped when the fresh run lacks its whole
//! section (a partial run, such as a sweep-only file); a section the fresh
//! run has but a counter missing from it, or from the baseline, fails by
//! name, so renaming or removing a gated counter cannot pass silently.

use cp_bench::json::{parse, Value};

/// A gated case: `(bench section, case-name prefix)`.
const GATED: &[(&str, &str)] = &[
    ("long_trace", "long_trace/record"),
    ("long_trace", "long_trace/plain"),
    ("translate", "translate/"),
    ("patch", "transfer/"),
];

/// Gated dimensionless counters: `(bench section, counter name, max ratio)`.
///
/// Most are deterministic work counts — instruction counts measure what the
/// IR optimizer emits and executes — so the thresholds are tight: a 1.5x
/// growth in emitted or executed instructions means a pass stopped firing
/// (or a lowering change bloated the output), not noise.  The comment on
/// each other entry says what it measures.
const COUNTER_GATED: &[(&str, &str, f64)] = &[
    ("compile", "emitted_instructions_opt", 1.5),
    ("long_trace", "executed_steps_opt", 1.5),
    // Nodes one recording of the long loop interns: none, since recording
    // only appends tape entries and the trace interns what a query reads.
    // The baseline is 0, so any node fails the gate (see `growth`): it
    // means interning crept back into the recorder.
    ("long_trace", "recorded_nodes", 1.5),
    // The budget layer's overhead on recording: the median per-round
    // guarded / recorded ratio of the worst corpus scenario.  The baseline
    // sits at ~1.0x (stage-boundary checks only); a fresh/baseline ratio
    // beyond 1.5x means budget checks crept into a per-instruction path.
    // `benches/record.rs` asserts the <=1.05x absolute bound on full runs.
    ("record", "budget_overhead_p50_worst", 1.5),
    // Solver-verdict-memo misses count the sweep's *distinct* circuit
    // families, which depend on the synthetic variant set rather than the
    // scenario count (quick mode's 120 scenarios already cycle all twenty
    // variants), so growth means structural sharing broke — new circuits
    // per scenario, or a memo that stopped hitting.
    ("sweep", "solver_memo_misses", 1.5),
    // Subscribed tracing's overhead on recording: the median per-round
    // traced / recorded ratio, pooled over the corpus.  Sits at ~1.0x (span
    // guards run at stage boundaries only); `benches/record.rs` asserts the
    // <=1.05x bound on full runs, and 1.5x fresh/baseline growth means a
    // span or event crept into a per-instruction path.
    ("record", "trace_overhead_p50", 1.5),
    // The peak arena node count is the largest *single scenario's* epoch,
    // not the sweep's sum; growth across the baseline means either a
    // scenario got heavier or epochs stopped reclaiming.
    ("sweep", "peak_arena_nodes", 1.5),
    // Incremental-solver wall time on the multi-candidate miter queue (the
    // median of `translate/multi-candidate-incremental`, re-emitted as a
    // counter so it gates even if the case list is reshaped).  A 3x blowup
    // means session reuse stopped paying for itself.
    ("translate", "translate_solver_p50", 3.0),
    // Total satisfiability queries issued across the discovery scenarios.
    // The count is deterministic for a fixed corpus, so growth means the
    // incremental session stopped deduplicating roots or the frontier
    // started re-asking answered queries.
    ("discover", "discover_solver_queries", 1.5),
];

/// Gated counters with a *floor*: `(bench section, counter, min ratio)`.
///
/// These fail when `fresh < min_ratio * baseline` — a shrinking value is the
/// regression.  The incremental reuse rate (queries answered against
/// pre-built solver state / total queries) dropping below 90% of its
/// baseline means cones are being re-blasted per query again.
const COUNTER_GATED_MIN: &[(&str, &str, f64)] = &[("translate", "incremental_reuse_rate", 0.9)];

fn median_cases(doc: &Value, section: &str, prefix: &str) -> Vec<(String, f64)> {
    let Some(Value::Object(entries)) = doc.get(section) else {
        return Vec::new();
    };
    entries
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .filter_map(|(name, case)| {
            case.get("median_ns")
                .and_then(Value::as_number)
                .map(|p50| (name.clone(), p50))
        })
        .collect()
}

/// The `(baseline, fresh)` values of a gated counter, or `None` when there
/// is nothing to compare: the fresh run lacks the counter's whole section
/// (logged, not gated), or the section is there but the counter is missing
/// from either document (recorded in `regressions` by name).
fn counter_values(
    baseline: &Value,
    fresh: &Value,
    section: &str,
    counter: &str,
    regressions: &mut Vec<String>,
) -> Option<(f64, f64)> {
    let Some(fresh_section) = fresh.get(section) else {
        println!("section missing in fresh run (not gated): {section}/{counter}");
        return None;
    };
    let base = baseline
        .get(section)
        .and_then(|s| s.get(counter))
        .and_then(Value::as_number);
    let fresh_value = fresh_section.get(counter).and_then(Value::as_number);
    if let (Some(base), Some(fresh_value)) = (base, fresh_value) {
        return Some((base, fresh_value));
    }
    println!("{section:<12} {counter:<40} MISSING in baseline or fresh run");
    regressions.push(format!("{section}/{counter} (missing)"));
    None
}

/// How many times `base` a fresh value is.  Against a zero baseline any
/// fresh value above zero is infinitely larger, so a counter whose baseline
/// reads 0 still fails its gate when it grows; zero against zero is no
/// change.
fn growth(base: f64, fresh: f64) -> f64 {
    if base > 0.0 {
        fresh / base
    } else if fresh > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench-compare: cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|| panic!("bench-compare: {path} is not valid JSON"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fresh_path = None;
    let mut baseline_path = "BENCH.json".to_string();
    let mut threshold = 3.0f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fresh" => fresh_path = iter.next().cloned(),
            "--baseline" => baseline_path = iter.next().cloned().expect("--baseline needs a path"),
            "--threshold" => {
                threshold = iter
                    .next()
                    .and_then(|t| t.parse().ok())
                    .expect("--threshold needs a number")
            }
            other => panic!("bench-compare: unknown argument {other}"),
        }
    }
    let fresh_path = fresh_path.expect("bench-compare: --fresh <fresh.json> is required");

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for &(section, prefix) in GATED {
        let base_cases = median_cases(&baseline, section, prefix);
        let fresh_cases = median_cases(&fresh, section, prefix);
        for (name, _) in &fresh_cases {
            if !base_cases.iter().any(|(n, _)| n == name) {
                // A brand-new bench before its baseline lands: visible in
                // the log, gated once BENCH.json is refreshed.
                println!("missing in baseline (not gated): {name} [{section}]");
            }
        }
        for (name, base_p50) in &base_cases {
            let Some((_, fresh_p50)) = fresh_cases.iter().find(|(n, _)| n == name) else {
                println!("missing in fresh run (not gated): {name} [{section}]");
                continue;
            };
            compared += 1;
            let ratio = growth(*base_p50, *fresh_p50);
            let verdict = if ratio > threshold { "REGRESSED" } else { "ok" };
            println!(
                "{section:<12} {name:<40} baseline p50 {base_p50:>12.0} ns   fresh p50 {fresh_p50:>12.0} ns   {ratio:>6.2}x  {verdict}"
            );
            if ratio > threshold {
                regressions.push(format!("{section}/{name} ({ratio:.2}x)"));
            }
        }
    }

    for &(section, counter, max_ratio) in COUNTER_GATED {
        let Some((base, fresh_value)) =
            counter_values(&baseline, &fresh, section, counter, &mut regressions)
        else {
            continue;
        };
        compared += 1;
        let ratio = growth(base, fresh_value);
        let verdict = if ratio > max_ratio { "REGRESSED" } else { "ok" };
        println!(
            "{section:<12} {counter:<40} baseline {base:>16.0}      fresh {fresh_value:>16.0}      {ratio:>6.2}x  {verdict}"
        );
        if ratio > max_ratio {
            regressions.push(format!("{section}/{counter} ({ratio:.2}x)"));
        }
    }

    for &(section, counter, min_ratio) in COUNTER_GATED_MIN {
        let Some((base, fresh_value)) =
            counter_values(&baseline, &fresh, section, counter, &mut regressions)
        else {
            continue;
        };
        compared += 1;
        let ratio = growth(base, fresh_value);
        let verdict = if ratio < min_ratio { "REGRESSED" } else { "ok" };
        println!(
            "{section:<12} {counter:<40} baseline {base:>16.3}      fresh {fresh_value:>16.3}      {ratio:>6.2}x  {verdict} (floor {min_ratio:.2}x)"
        );
        if ratio < min_ratio {
            regressions.push(format!(
                "{section}/{counter} ({ratio:.2}x < {min_ratio:.2}x)"
            ));
        }
    }

    if compared == 0 {
        // An empty comparison would pass forever; that is itself a harness
        // regression worth failing on.
        eprintln!("bench-compare: no gated cases found in both documents");
        std::process::exit(1);
    }
    if regressions.is_empty() {
        println!("\n{compared} gated case(s) within their thresholds of the baseline");
    } else {
        eprintln!(
            "\n{} regression(s) beyond threshold: {}",
            regressions.len(),
            regressions.join(", ")
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        parse(text).expect("valid JSON")
    }

    #[test]
    fn a_counter_missing_from_a_present_section_fails() {
        let baseline = doc(r#"{"translate": {"translate_solver_p50": 100}}"#);
        let renamed = doc(r#"{"translate": {"translate_session_p50": 100}}"#);
        let mut regressions = Vec::new();
        let counter = "translate_solver_p50";
        assert_eq!(
            counter_values(&baseline, &renamed, "translate", counter, &mut regressions),
            None
        );
        // Missing from the baseline fails the same way.
        assert_eq!(
            counter_values(&renamed, &baseline, "translate", counter, &mut regressions),
            None
        );
        assert_eq!(
            regressions,
            vec![
                "translate/translate_solver_p50 (missing)",
                "translate/translate_solver_p50 (missing)"
            ]
        );
    }

    #[test]
    fn a_section_absent_from_the_fresh_run_is_skipped() {
        let baseline = doc(r#"{"translate": {"incremental_reuse_rate": 0.875}}"#);
        let sweep_only = doc(r#"{"sweep": {"solver_memo_misses": 11}}"#);
        let mut regressions = Vec::new();
        let counter = "incremental_reuse_rate";
        assert_eq!(
            counter_values(
                &baseline,
                &sweep_only,
                "translate",
                counter,
                &mut regressions
            ),
            None
        );
        assert!(regressions.is_empty());
    }

    #[test]
    fn a_zero_baseline_fails_any_fresh_value_above_zero() {
        assert!(growth(0.0, 1.0) > 1.5, "a counter that was 0 grew");
        assert!(growth(0.0, 0.0) <= 1.5, "a counter that stays 0 passes");
        assert_eq!(growth(15_368.0, 0.0), 0.0);
        assert_eq!(growth(10.0, 15.0), 1.5);
    }

    #[test]
    fn a_counter_present_in_both_documents_is_compared() {
        let baseline = doc(r#"{"sweep": {"solver_memo_misses": 11}}"#);
        let fresh = doc(r#"{"sweep": {"solver_memo_misses": 12}}"#);
        let mut regressions = Vec::new();
        let counter = "solver_memo_misses";
        assert_eq!(
            counter_values(&baseline, &fresh, "sweep", counter, &mut regressions),
            Some((11.0, 12.0))
        );
        assert!(regressions.is_empty());
    }
}
