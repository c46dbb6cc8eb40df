//! The chaos suite: every registered fault-injection point, driven through a
//! *full* corpus sweep.
//!
//! For each [`FaultPoint`] the harness arms the fault at one seeded,
//! deterministic target scenario and runs `run_all`.  Three properties must
//! hold every round:
//!
//! 1. **no escaped panics** — the sweep returns one outcome per scenario
//!    (an injected panic included: `catch_unwind` turns it into a row);
//! 2. **typed blast radius** — the target scenario reports `degraded` or
//!    `failed` with the fault's typed reason, never a silent `ok`;
//! 3. **isolation** — every *other* scenario's Figure 8 row is byte-identical
//!    to the unfaulted baseline's, and re-running the target after the fault
//!    disarms restores its baseline row bit for bit.

use cp_core::faults::{self, FaultPoint, ALL_POINTS};
use cp_core::{Stage, StageError};
use cp_corpus::pipeline::{figure8, run_all, run_scenario, ScenarioStatus};

const SCHEDULE_SEED: u64 = 0xC0DE_FA6E;

/// The baseline table's row for one scenario.
fn row<'t>(table: &'t str, scenario: &str) -> &'t str {
    table
        .lines()
        .find(|line| line.starts_with(scenario))
        .unwrap_or_else(|| panic!("no row for {scenario} in:\n{table}"))
}

/// Asserts the target's failure is the one `point` injects.
fn assert_typed_blast(point: FaultPoint, status: &ScenarioStatus) {
    match point {
        FaultPoint::SolverBudget => {
            // A starved solver either strands discovery (degraded fallback)
            // or strands translation (failed); both are typed, neither is ok.
            assert!(
                !matches!(status, ScenarioStatus::Ok),
                "solver starvation went unnoticed: {status:?}"
            );
        }
        FaultPoint::VmStepLimit => {
            let error = status.error().expect("a step-limit trip must fail");
            assert_eq!(error.stage(), Some(Stage::Vm), "{error}");
            assert_eq!(
                error.detail(),
                format!("vm budget exhausted (limit {})", faults::VM_STEP_CLAMP)
            );
        }
        FaultPoint::ArenaPressure => {
            let error = status.error().expect("arena pressure must fail");
            assert_eq!(error.stage(), Some(Stage::Vm), "{error}");
            assert_eq!(error.detail(), "vm budget exhausted (limit 0)");
        }
        FaultPoint::FrontendMalformed => {
            let error = status.error().expect("malformed source must fail");
            assert!(
                matches!(error, StageError::Frontend { .. }),
                "expected a frontend error, got {error:?}"
            );
        }
        FaultPoint::ValidationRecompile => {
            let error = status.error().expect("recompile exhaustion must fail");
            assert_eq!(error.stage(), Some(Stage::Validation), "{error}");
            assert!(
                error.detail().contains("validation budget exhausted"),
                "{error}"
            );
        }
        FaultPoint::ScenarioPanic => {
            let error = status.error().expect("an injected panic must fail");
            assert!(
                matches!(error, StageError::Panic { .. }),
                "expected a caught panic, got {error:?}"
            );
            assert!(error.detail().contains("injected chaos fault"), "{error}");
        }
    }
}

#[test]
fn every_injection_point_survives_a_full_sweep() {
    let names: Vec<&str> = cp_corpus::scenarios().iter().map(|s| s.name).collect();
    let baseline = figure8(&run_all(1));

    for (index, &point) in ALL_POINTS.iter().enumerate() {
        let target = faults::scheduled_target(SCHEDULE_SEED ^ index as u64, &names);
        let faulted_table = {
            let _fault = faults::arm(point, target);
            let outcomes = run_all(1);
            // Property 1: one outcome per scenario, panic or no panic.
            assert_eq!(outcomes.len(), names.len(), "{point:?}: sweep died");

            // Property 2: the target is degraded or failed, with the typed
            // reason the point injects; nobody else changed status.
            for outcome in &outcomes {
                if outcome.scenario.name == target {
                    assert_typed_blast(point, &outcome.status);
                } else {
                    assert_eq!(
                        outcome.status,
                        ScenarioStatus::Ok,
                        "{point:?} at {target} leaked into {}",
                        outcome.scenario.name
                    );
                }
            }
            figure8(&outcomes)
        };

        // Property 3a: every non-target row is byte-identical to baseline.
        for name in names.iter().filter(|&&n| n != target) {
            assert_eq!(
                row(&faulted_table, name),
                row(&baseline, name),
                "{point:?} at {target} perturbed {name}'s row"
            );
        }

        // Property 3b: with the fault disarmed (guard dropped above), the
        // target scenario's row returns to baseline bit for bit.
        let target_scenario = *cp_corpus::scenarios()
            .iter()
            .find(|s| s.name == target)
            .expect("schedule picks real scenarios");
        let recovered = figure8(std::slice::from_ref(&run_scenario(&target_scenario)));
        assert_eq!(
            row(&recovered, target),
            row(&baseline, target),
            "{point:?}: {target} did not recover after disarm"
        );
    }
}

/// The schedule spreads faults across scenarios rather than hammering one.
#[test]
fn the_chaos_schedule_is_deterministic() {
    let names: Vec<&str> = cp_corpus::scenarios().iter().map(|s| s.name).collect();
    for (index, _) in ALL_POINTS.iter().enumerate() {
        let seed = SCHEDULE_SEED ^ index as u64;
        assert_eq!(
            faults::scheduled_target(seed, &names),
            faults::scheduled_target(seed, &names)
        );
    }
}
