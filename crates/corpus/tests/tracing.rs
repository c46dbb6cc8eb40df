//! Observability discipline for the sweep: spans nest correctly per worker,
//! attribution never leaks across scenarios, structured events survive
//! panics and budget trips, and tracing is invisible to the report itself.
//!
//! Four properties, mirroring the chaos/parallel suites:
//!
//! 1. **coverage** — every pipeline stage (record, discover, translate,
//!    plan, validate) opens a span, and every span below the sweep root is
//!    attributed to exactly one scenario;
//! 2. **determinism** — per-scenario span *shapes* (names and nesting, the
//!    part that must not depend on scheduling) are identical between a
//!    sequential and a parallel sweep, and scenario spans parent onto the
//!    sweep span even when a worker thread ran them;
//! 3. **flush under failure** — an injected panic or budget trip still
//!    flushes the victim's spans and produces the typed event, attributed
//!    to the victim;
//! 4. **inertness** — subscribing a collector does not change the Figure 8
//!    table.

use cp_corpus::pipeline::{figure8, run_all, DegradedReason, ScenarioStatus};
use cp_obs::{Collector, Event, TraceData};
use std::collections::BTreeMap;

/// Runs a full corpus sweep under a fresh collector.
fn traced_sweep(workers: usize) -> (String, TraceData) {
    let collector = Collector::new();
    let table = {
        let _sub = collector.subscribe();
        figure8(&run_all(workers))
    };
    (table, collector.take())
}

/// Per-scenario span shapes for the whole corpus.
fn shapes(data: &TraceData) -> BTreeMap<&'static str, String> {
    cp_corpus::scenarios()
        .iter()
        .map(|s| (s.name, data.shape_for(s.name)))
        .collect()
}

#[test]
fn every_stage_spans_and_every_span_is_attributed() {
    let (_, data) = traced_sweep(1);

    for stage in ["record", "discover", "translate", "plan", "validate"] {
        assert!(
            data.spans.iter().any(|s| s.name == stage),
            "no {stage} span in the sweep"
        );
    }

    let names: Vec<&str> = cp_corpus::scenarios().iter().map(|s| s.name).collect();
    for span in &data.spans {
        match span.name {
            // The sweep root is the only span allowed to float above
            // scenario attribution.
            "sweep" => assert_eq!(span.scenario, None, "sweep span got attributed"),
            _ => {
                let scenario = span
                    .scenario
                    .as_deref()
                    .unwrap_or_else(|| panic!("{} span has no scenario", span.name));
                assert!(
                    names.contains(&scenario),
                    "{} span attributed to unknown scenario {scenario}",
                    span.name
                );
            }
        }
        assert!(span.end_ns >= span.start_ns, "negative span duration");
    }

    // Each scenario's tree has exactly one root: its `scenario` span.
    for name in names {
        let shape = data.shape_for(name);
        assert!(
            shape.starts_with("scenario\n"),
            "{name}'s tree does not start at its scenario span:\n{shape}"
        );
        assert_eq!(
            shape.lines().filter(|l| !l.starts_with(' ')).count(),
            1,
            "{name} has stray root spans:\n{shape}"
        );
    }
}

#[test]
fn parallel_and_sequential_sweeps_trace_the_same_shapes() {
    let (sequential_table, sequential) = traced_sweep(1);
    let (parallel_table, parallel) = traced_sweep(4);

    // Tracing is inert: the table under a subscriber is the untraced table.
    assert_eq!(sequential_table, figure8(&run_all(1)));
    assert_eq!(sequential_table, parallel_table);

    assert_eq!(
        shapes(&sequential),
        shapes(&parallel),
        "worker scheduling leaked into the span shapes"
    );

    // Workers parent their scenario spans onto the dispatching sweep span.
    for data in [&sequential, &parallel] {
        let sweep = data
            .spans
            .iter()
            .find(|s| s.name == "sweep")
            .expect("a sweep span");
        for span in data.spans.iter().filter(|s| s.name == "scenario") {
            assert_eq!(
                span.parent,
                Some(sweep.id),
                "scenario span for {:?} floated off the sweep",
                span.scenario
            );
        }
    }
}

#[test]
fn an_injected_panic_still_flushes_spans_and_events() {
    use cp_core::faults::{self, FaultPoint};

    let target = cp_corpus::scenarios()[0].name;
    let collector = Collector::new();
    {
        let _sub = collector.subscribe();
        let _fault = faults::arm(FaultPoint::ScenarioPanic, target);
        let outcomes = run_all(1);
        let victim = outcomes
            .iter()
            .find(|o| o.scenario.name == target)
            .expect("target ran");
        assert!(
            matches!(victim.status, ScenarioStatus::Failed(_)),
            "panic fault did not fail the target"
        );
    }
    let data = collector.take();

    // The victim's spans were flushed by the unwind, not lost.
    assert!(
        !data.spans_for(target).is_empty(),
        "panicked scenario lost its spans"
    );

    // Arm and fire both produced events; the firing is attributed to the
    // victim scenario.
    assert!(
        data.events.iter().any(
            |e| matches!(&e.event, Event::FaultArmed { point, target: t }
                if point == "ScenarioPanic" && t == target)
        ),
        "no fault_armed event"
    );
    let fired: Vec<_> = data
        .events
        .iter()
        .filter(|e| matches!(&e.event, Event::FaultFired { point } if point == "ScenarioPanic"))
        .collect();
    assert!(!fired.is_empty(), "no fault_fired event");
    assert!(
        fired.iter().all(|e| e.scenario.as_deref() == Some(target)),
        "fault firing attributed to the wrong scenario"
    );
}

#[test]
fn a_budget_trip_emits_a_typed_event_attributed_to_the_victim() {
    use cp_core::faults::{self, FaultPoint};

    let target = cp_corpus::scenarios()[1].name;
    let collector = Collector::new();
    {
        let _sub = collector.subscribe();
        let _fault = faults::arm(FaultPoint::VmStepLimit, target);
        run_all(1);
    }
    let data = collector.take();

    let trips: Vec<_> = data
        .events
        .iter()
        .filter(|e| matches!(&e.event, Event::BudgetExhausted { stage, .. } if stage == "vm"))
        .collect();
    assert!(
        !trips.is_empty(),
        "no budget_exhausted event for the vm trip"
    );
    assert!(
        trips.iter().any(|e| e.scenario.as_deref() == Some(target)),
        "vm budget trip not attributed to {target}"
    );
}

#[test]
fn degraded_reasons_are_a_closed_enum_with_pinned_codes() {
    // The JSONL consumer contract: these codes are stable identifiers.
    assert_eq!(DegradedReason::ALL_CODES, ["discovery-exhausted"]);

    let reason = DegradedReason::DiscoveryExhausted {
        executions: 12,
        sites: 3,
        queries: 7,
        budget_exhausted: true,
    };
    assert_eq!(reason.code(), "discovery-exhausted");
    assert!(DegradedReason::ALL_CODES.contains(&reason.code()));
    // The rendering the Figure 8 detail column has always used.
    assert_eq!(
        reason.to_string(),
        "discovery found no error input (12 executions, 3 sites, 7 queries, \
         budget exhausted); fell back to the hand-written one"
    );
    let without_budget = DegradedReason::DiscoveryExhausted {
        executions: 1,
        sites: 2,
        queries: 0,
        budget_exhausted: false,
    };
    assert_eq!(
        without_budget.to_string(),
        "discovery found no error input (1 executions, 2 sites, 0 queries); \
         fell back to the hand-written one"
    );
}
