//! Discovery wall time: `Session::discover` per overflow scenario.
//!
//! Measures the full goal-directed search — instrumented recordings, goal
//! construction, satisfiability queries and the validating re-execution —
//! from the benign seed to the found error input, plus counters for the
//! search effort (executions, generations, solver queries) so BENCH.json
//! tracks search-efficiency regressions alongside wall time.

use cp_bench::harness::{bench, emit_with, section};
use cp_core::{DiscoverConfig, Session};
use cp_corpus::{scenarios, ErrorClass};

fn main() {
    section("discover");
    let mut results = Vec::new();
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut total_queries = 0u64;
    for scenario in scenarios()
        .iter()
        .filter(|s| s.error_class == ErrorClass::OverflowIntoAllocation)
    {
        let mut session = Session::builder()
            .source(scenario.source)
            .build()
            .expect("recipient builds");
        let config = DiscoverConfig::default();

        // Workload assert: the generator must actually find the overflow.
        let outcome = session.discover(scenario.benign_input, &config);
        let found = outcome
            .found()
            .unwrap_or_else(|| panic!("{}: discovery must succeed", scenario.name));
        counters.push((
            format!("executions/{}", scenario.name),
            found.executions as f64,
        ));
        counters.push((
            format!("generations/{}", scenario.name),
            found.generations as f64,
        ));
        counters.push((
            format!("solver-queries/{}", scenario.name),
            found.solver_queries as f64,
        ));
        total_queries += found.solver_queries as u64;

        let m = bench(&format!("discover/{}", scenario.name), 2, 30, || {
            session
                .discover(scenario.benign_input, &config)
                .found()
                .expect("discovers")
                .input
                .clone()
        });
        println!("{}", m.report());
        results.push(m);
    }
    // Aggregate for the bench-compare gate: the discovery frontier must
    // never cost *more* satisfiability queries than its checked-in baseline.
    counters.push(("discover_solver_queries".to_string(), total_queries as f64));
    let counter_refs: Vec<(&str, f64)> = counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    emit_with("discover", &results, &counter_refs);
}
