//! Discovery wall time: `Session::discover` per overflow scenario.
//!
//! Measures the full goal-directed search — instrumented recordings, goal
//! construction, satisfiability queries and the validating re-execution —
//! from the benign seed to the found error input, plus counters for the
//! search effort (executions, generations, solver queries, and the byte
//! environments the solver's sampling rung evaluated) so BENCH.json tracks
//! search-efficiency regressions alongside wall time.
//!
//! The corpus's two overflow scenarios are answered by the solver's
//! sampling rung.  `discover/guarded-header` is the shape sampling misses:
//! range-checked header fields in front of the overflow, which the ladder
//! decides past sampling.

use cp_bench::harness::{bench, emit_with, section};
use cp_core::{DiscoverConfig, Session};
use cp_corpus::{scenarios, ErrorClass};

/// A header parser that range-checks its 16-bit width, height and depth
/// against 4095, 2047 and 2047 (the 12/11/11 shape of phagebench's
/// `guarded-overflow`) before a 32-bit `width * height * depth` allocation.
const GUARDED_HEADER: &str = r#"
    fn read_u16(off: u64) -> u16 {
        return ((input_byte(off) as u16) << 8) | (input_byte(off + 1) as u16);
    }
    fn main() -> u32 {
        var width: u32 = read_u16(0) as u32;
        if (width > 4095) { exit(2); }
        var height: u32 = read_u16(2) as u32;
        if (height > 2047) { exit(2); }
        var depth: u32 = read_u16(4) as u32;
        if (depth > 2047) { exit(2); }
        var size: u32 = width * height * depth;
        var pixels: u64 = malloc(size as u64);
        output(size as u64);
        return 0;
    }
"#;

fn main() {
    section("discover");
    let mut results = Vec::new();
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut total_queries = 0u64;
    let mut total_envs = 0u64;
    let sample_envs = cp_obs::metrics::counter("solver.sample.envs");
    let corpus = scenarios()
        .into_iter()
        .filter(|s| s.error_class == ErrorClass::OverflowIntoAllocation)
        .map(|s| (s.name, s.source, s.benign_input, false));
    // The guarded case empties the verdict memo before each search, as
    // phagebench's `guarded-overflow` does per scenario, so every timed
    // search decides its query instead of reading the first one's verdict.
    let guarded = (
        "guarded-header",
        GUARDED_HEADER,
        &[0, 16, 0, 16, 0, 2][..],
        true,
    );
    for (name, source, benign, cold_memo) in corpus.chain([guarded]) {
        let mut session = Session::builder()
            .source(source)
            .build()
            .expect("recipient builds");
        let config = DiscoverConfig::default();

        // Workload assert: the generator must actually find the overflow.
        // It searches from a cold verdict memo, so its sampled environments
        // do not depend on the cases before it.
        cp_solver::reset_solver_memo();
        let envs_before = sample_envs.get();
        let outcome = session.discover(benign, &config);
        let envs = sample_envs.get() - envs_before;
        let found = outcome
            .found()
            .unwrap_or_else(|| panic!("{name}: discovery must succeed"));
        counters.push((format!("executions/{name}"), found.executions as f64));
        counters.push((format!("generations/{name}"), found.generations as f64));
        counters.push((
            format!("solver-queries/{name}"),
            found.solver_queries as f64,
        ));
        counters.push((format!("sample-envs/{name}"), envs as f64));
        total_queries += found.solver_queries as u64;
        total_envs += envs;

        let m = bench(&format!("discover/{name}"), 2, 30, || {
            if cold_memo {
                cp_solver::reset_solver_memo();
            }
            session
                .discover(benign, &config)
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
    // And the sampling rung must not evaluate more environments: the count
    // is deterministic, so growth means the stream or its early exit moved.
    counters.push(("discover_sample_envs".to_string(), total_envs as f64));
    println!("discover_sample_envs: {total_envs}");
    let counter_refs: Vec<(&str, f64)> = counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    emit_with("discover", &results, &counter_refs);
}
