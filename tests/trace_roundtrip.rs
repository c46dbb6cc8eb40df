//! The trace JSONL that `cp-obs` emits must be readable by the same
//! dependency-free JSON parser (`cp_bench::json`) that reads `BENCH.json` —
//! the two crates share a dialect by construction, and this test is the
//! contract: every line a real traced sweep writes parses back with the
//! fields its type promises.

use cp_bench::json::{parse, Value};
use cp_obs::Collector;

fn str_field<'v>(line: &'v Value, key: &str) -> &'v str {
    match line.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("field {key} is {other:?} in {line:?}"),
    }
}

fn num_field(line: &Value, key: &str) -> f64 {
    line.get(key)
        .and_then(Value::as_number)
        .unwrap_or_else(|| panic!("field {key} missing in {line:?}"))
}

#[test]
fn a_traced_scenario_exports_jsonl_the_bench_parser_reads_back() {
    let collector = Collector::new();
    let scenario = cp_corpus::scenarios()[0];
    {
        let _sub = collector.subscribe();
        let outcome = cp_corpus::pipeline::run_scenario(&scenario);
        assert!(outcome.validated(), "corpus scenario regressed");
    }
    let jsonl = collector.take().to_jsonl_with_metrics();

    let mut spans = 0usize;
    let mut events = 0usize;
    let mut metrics = 0usize;
    for line in jsonl.lines() {
        let value = parse(line)
            .unwrap_or_else(|| panic!("cp_bench::json cannot parse the trace line: {line}"));
        match str_field(&value, "type") {
            "span" => {
                spans += 1;
                assert!(!str_field(&value, "name").is_empty());
                let (start, end) = (num_field(&value, "start_ns"), num_field(&value, "end_ns"));
                assert!(end >= start, "span times inverted: {line}");
                assert_eq!(
                    str_field(&value, "scenario"),
                    scenario.name,
                    "span attributed elsewhere: {line}"
                );
            }
            "event" => {
                events += 1;
                assert!(!str_field(&value, "kind").is_empty());
                num_field(&value, "seq");
            }
            "metric" => {
                metrics += 1;
                assert!(!str_field(&value, "name").is_empty());
                match str_field(&value, "kind") {
                    "counter" | "gauge" => {
                        num_field(&value, "value");
                    }
                    other => panic!("unknown metric kind {other}: {line}"),
                }
            }
            other => panic!("unknown line type {other}: {line}"),
        }
    }

    assert!(spans >= 4, "a full scenario traces all its stages: {jsonl}");
    assert!(events >= 1, "solver escalation events expected: {jsonl}");
    assert!(metrics >= 3, "registry snapshot expected: {jsonl}");
}

#[test]
fn escaped_strings_survive_the_round_trip() {
    let line = cp_obs::export::JsonLine::new()
        .str("type", "probe")
        .str("payload", "quote \" slash \\ newline \n tab \t bell \u{7}")
        .num("n", 42)
        .finish();
    let value = parse(&line).expect("escaped line parses");
    assert_eq!(
        str_field(&value, "payload"),
        "quote \" slash \\ newline \n tab \t bell \u{7}"
    );
    assert_eq!(num_field(&value, "n"), 42.0);
}
