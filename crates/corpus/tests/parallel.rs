//! Parallel sweep determinism: sharding scenarios across a worker pool must
//! be invisible in the output.
//!
//! Three properties, mirroring the chaos suite's discipline:
//!
//! 1. **byte identity** — a parallel sweep's Figure 8 table is byte-identical
//!    to the sequential one, for the corpus and for synthetic batches;
//! 2. **concurrency safety** — many threads each running many sweeps all
//!    reproduce the sequential baseline (sessions are `Send`, arenas are
//!    per-thread, the solver memo is shared — none of it may leak between
//!    sweeps);
//! 3. **chaos under parallelism** — a fault armed on the dispatching thread
//!    follows the work onto the pool, hits exactly its target scenario, and
//!    leaves every other row byte-identical.

use cp_core::faults::{self, ALL_POINTS};
use cp_corpus::pipeline::{figure8, run_all, run_scenarios, ScenarioStatus};
use cp_corpus::synthetic::synthetic_scenarios;

const SCHEDULE_SEED: u64 = 0xC0DE_FA6E;

fn row<'t>(table: &'t str, scenario: &str) -> &'t str {
    table
        .lines()
        .find(|line| line.starts_with(scenario))
        .unwrap_or_else(|| panic!("no row for {scenario} in:\n{table}"))
}

#[test]
fn a_parallel_sweep_matches_the_sequential_table_byte_for_byte() {
    let sequential = figure8(&run_all(1));
    let parallel = figure8(&run_all(4));
    assert_eq!(sequential, parallel);
}

#[test]
fn rows_come_back_in_scenario_order_under_concurrency() {
    let scenarios = synthetic_scenarios(24);
    let outcomes = run_scenarios(&scenarios, 5);
    assert_eq!(outcomes.len(), scenarios.len());
    for (outcome, scenario) in outcomes.iter().zip(&scenarios) {
        assert_eq!(outcome.scenario.name, scenario.name);
    }
}

#[test]
fn a_synthetic_batch_is_healthy_and_deterministic() {
    let scenarios = synthetic_scenarios(40);
    let sequential = run_scenarios(&scenarios, 1);
    for outcome in &sequential {
        assert!(
            outcome.status.is_healthy(),
            "{}: {:?}",
            outcome.scenario.name,
            outcome.status
        );
    }
    let parallel = run_scenarios(&scenarios, 4);
    assert_eq!(figure8(&sequential), figure8(&parallel));
}

#[test]
fn concurrent_sweeps_from_many_threads_reproduce_the_baseline() {
    let baseline = figure8(&run_all(1));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let baseline = &baseline;
            scope.spawn(move || {
                for workers in [2, 4] {
                    let table = figure8(&run_all(workers));
                    assert_eq!(&table, baseline, "a concurrent sweep diverged");
                }
            });
        }
    });
}

#[test]
fn chaos_faults_follow_the_work_onto_the_pool() {
    let names: Vec<&str> = cp_corpus::scenarios().iter().map(|s| s.name).collect();
    let baseline = figure8(&run_all(3));

    for (index, &point) in ALL_POINTS.iter().enumerate() {
        let target = faults::scheduled_target(SCHEDULE_SEED ^ index as u64, &names);
        let _fault = faults::arm(point, target);
        let outcomes = run_all(3);
        assert_eq!(outcomes.len(), names.len(), "{point:?}: sweep died");
        let table = figure8(&outcomes);
        for outcome in &outcomes {
            if outcome.scenario.name == target {
                assert!(
                    !matches!(outcome.status, ScenarioStatus::Ok),
                    "{point:?} armed on the dispatcher never fired on the pool"
                );
            } else {
                assert_eq!(
                    outcome.status,
                    ScenarioStatus::Ok,
                    "{point:?} at {target} leaked into {}",
                    outcome.scenario.name
                );
                assert_eq!(
                    row(&table, outcome.scenario.name),
                    row(&baseline, outcome.scenario.name),
                    "{point:?} at {target} perturbed {}'s row",
                    outcome.scenario.name
                );
            }
        }
    }
}
