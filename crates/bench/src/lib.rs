//! # cp-bench
//!
//! Benchmark harnesses for the Code Phage pipeline.
//!
//! The build environment has no crates.io access, so instead of criterion the
//! benches under `benches/` are `harness = false` binaries built on the tiny
//! timing harness in [`harness`].  Each bench drives the `cp-core`
//! [`Session`](cp_core::Session) API — the same surface every other consumer
//! uses — so the numbers track the real pipeline cost.
//!
//! Beyond printing a human-readable report, every bench binary emits its
//! measurements to the machine-readable `BENCH.json` at the workspace root via
//! [`harness::emit`], so the performance trajectory is tracked across PRs.
//! Set `CP_BENCH_QUICK=1` to run each case with one warmup and two timed
//! rounds (the CI smoke configuration), and `CP_BENCH_JSON=path` to
//! redirect the results file.

/// A minimal wall-clock timing harness.
pub mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// The result of timing one benchmark case.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// Case name.
        pub name: String,
        /// Iterations measured.
        pub iters: u32,
        /// Mean nanoseconds per iteration.
        pub ns_per_iter: f64,
        /// Median nanoseconds per iteration.
        pub median_ns: f64,
        /// 95th-percentile nanoseconds per iteration.
        pub p95_ns: f64,
    }

    impl Measurement {
        /// Summarises per-iteration samples, in nanoseconds and in any order.
        pub fn from_samples(name: &str, mut samples: Vec<f64>) -> Measurement {
            samples.sort_by(|a, b| a.total_cmp(b));
            Measurement {
                name: name.to_string(),
                iters: samples.len() as u32,
                ns_per_iter: samples.iter().sum::<f64>() / samples.len() as f64,
                median_ns: percentile(&samples, 0.50),
                p95_ns: percentile(&samples, 0.95),
            }
        }

        /// Renders the measurement as one aligned report line.
        pub fn report(&self) -> String {
            format!(
                "{:<40} {:>12.0} ns/iter  median {:>12.0}  p95 {:>12.0}  ({} iters)",
                self.name, self.ns_per_iter, self.median_ns, self.p95_ns, self.iters
            )
        }
    }

    /// Whether the quick (smoke) configuration is active.
    ///
    /// `CP_BENCH_QUICK=1` caps every case at one warmup and two measured
    /// rounds so CI can verify the perf harness end to end without paying
    /// for statistically meaningful numbers.
    pub fn quick_mode() -> bool {
        std::env::var("CP_BENCH_QUICK").map(|v| v != "0" && !v.is_empty()) == Ok(true)
    }

    /// Times `arms` against each other: `warmup` discarded rounds, then
    /// `rounds` timed ones, each running every arm once.
    ///
    /// Round `r` (warmup rounds included) starts with arm `r % k` of the `k`
    /// arms and runs the rest in order, so no arm always runs first and pays
    /// the warm-up or drift that a fixed order would charge to it (Georges et
    /// al., OOPSLA 2007).  Returns each arm's samples in nanoseconds, in
    /// round order, so callers can pair arms round by round.  An arm passes
    /// its result through [`black_box`] itself.  In [`quick_mode`] the
    /// counts are capped at one warmup and two rounds.
    pub fn interleave(warmup: u32, rounds: u32, arms: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
        if quick_mode() {
            time_rounds(warmup.min(1), rounds.clamp(1, 2), arms)
        } else {
            time_rounds(warmup, rounds.max(1), arms)
        }
    }

    pub(crate) fn time_rounds(
        warmup: u32,
        rounds: u32,
        arms: &mut [&mut dyn FnMut()],
    ) -> Vec<Vec<f64>> {
        let k = arms.len();
        let mut samples = vec![Vec::new(); k];
        for round in 0..(warmup + rounds) as usize {
            for offset in 0..k {
                let arm = (round + offset) % k;
                let start = Instant::now();
                arms[arm]();
                let nanos = start.elapsed().as_nanos() as f64;
                if round >= warmup as usize {
                    samples[arm].push(nanos);
                }
            }
        }
        samples
    }

    /// Times `f` alone: the one-arm case of [`interleave`], with the
    /// closure's result passed through [`black_box`] so the work is not
    /// optimised away.
    pub fn bench<T>(name: &str, warmup: u32, iters: u32, mut f: impl FnMut() -> T) -> Measurement {
        let mut arm = || {
            black_box(f());
        };
        let mut samples = interleave(warmup, iters, &mut [&mut arm]);
        Measurement::from_samples(name, samples.pop().expect("one arm, one sample set"))
    }

    /// The `p`-quantile of an ascending-sorted sample set (nearest-rank).
    pub fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Prints a bench header so `cargo bench` output groups by file.
    pub fn section(title: &str) {
        println!("\n== {title} ==");
    }

    /// Path of the machine-readable results file (`BENCH.json` at the
    /// workspace root unless `CP_BENCH_JSON` overrides it).
    pub fn results_path() -> std::path::PathBuf {
        if let Ok(path) = std::env::var("CP_BENCH_JSON") {
            return path.into();
        }
        let manifest = env!("CARGO_MANIFEST_DIR");
        std::path::Path::new(manifest).join("../../BENCH.json")
    }

    /// Merges `measurements` into `BENCH.json` under the `bench` key,
    /// preserving the entries other bench binaries wrote.
    pub fn emit(bench: &str, measurements: &[Measurement]) {
        emit_with(bench, measurements, &[]);
    }

    /// Like [`emit`], with additional dimensionless `counters` (pair counts,
    /// pruning rates, …) recorded alongside the timing entries.
    ///
    /// Failures to read or parse an existing file fall back to a fresh
    /// document; write failures are reported to stderr but never panic, so a
    /// read-only checkout can still run the benches.
    pub fn emit_with(bench: &str, measurements: &[Measurement], counters: &[(&str, f64)]) {
        let path = results_path();
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| crate::json::parse(&text))
            .and_then(crate::json::Value::into_object)
            .unwrap_or_default();
        let mut cases: Vec<(String, crate::json::Value)> = Vec::new();
        for m in measurements {
            let entry = crate::json::Value::Object(vec![
                ("mean_ns".into(), crate::json::Value::Number(m.ns_per_iter)),
                ("median_ns".into(), crate::json::Value::Number(m.median_ns)),
                ("p95_ns".into(), crate::json::Value::Number(m.p95_ns)),
                (
                    "iters".into(),
                    crate::json::Value::Number(f64::from(m.iters)),
                ),
            ]);
            cases.push((m.name.clone(), entry));
        }
        for (name, value) in counters {
            cases.push((name.to_string(), crate::json::Value::Number(*value)));
        }
        doc.retain(|(key, _)| key != bench);
        doc.push((bench.to_string(), crate::json::Value::Object(cases)));
        doc.sort_by(|a, b| a.0.cmp(&b.0));
        let rendered = crate::json::render(&crate::json::Value::Object(doc));
        if let Err(error) = std::fs::write(&path, rendered + "\n") {
            eprintln!("cp-bench: could not write {}: {error}", path.display());
        } else {
            println!("results -> {}", path.display());
        }
    }
}

/// A dependency-free JSON subset: enough to read back and merge the documents
/// [`harness::emit`] writes (objects, arrays, strings, numbers, booleans,
/// null).
pub mod json {
    /// A parsed JSON value.  Objects preserve key order as written.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (always carried as `f64`).
        Number(f64),
        /// A string (no escape sequences beyond `\"`, `\\`, `\n`, `\t`, `\r`,
        /// `\/`, which covers everything this crate emits).
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object as an ordered key/value list.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The object entries, if this value is an object.
        pub fn into_object(self) -> Option<Vec<(String, Value)>> {
            match self {
                Value::Object(entries) => Some(entries),
                _ => None,
            }
        }

        /// Looks up a key in an object value.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_number(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Parses a JSON document; `None` on any syntax error.
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn eat(bytes: &[u8], pos: &mut usize, expected: u8) -> Option<()> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&expected) {
            *pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b'{' => parse_object(bytes, pos),
            b'[' => parse_array(bytes, pos),
            b'"' => parse_string(bytes, pos).map(Value::String),
            b't' => parse_literal(bytes, pos, "true", Value::Bool(true)),
            b'f' => parse_literal(bytes, pos, "false", Value::Bool(false)),
            b'n' => parse_literal(bytes, pos, "null", Value::Null),
            _ => parse_number(bytes, pos),
        }
    }

    fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Option<Value> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Some(value)
        } else {
            None
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Value::Number)
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
        eat(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos)? {
                b'"' => {
                    *pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    *pos += 1;
                    let escaped = match bytes.get(*pos)? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        // `\uXXXX` — the form cp-obs escapes control
                        // characters into (surrogate pairs unsupported, as
                        // neither emitter produces them).
                        b'u' => {
                            let hex = bytes.get(*pos + 1..*pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            *pos += 4;
                            char::from_u32(code)?
                        }
                        _ => return None,
                    };
                    out.push(escaped);
                    *pos += 1;
                }
                _ => {
                    let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                    let ch = rest.chars().next()?;
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        eat(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Some(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos)? {
                b',' => *pos += 1,
                b']' => {
                    *pos += 1;
                    return Some(Value::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        eat(bytes, pos, b'{')?;
        let mut entries = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Some(Value::Object(entries));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            eat(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            entries.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos)? {
                b',' => *pos += 1,
                b'}' => {
                    *pos += 1;
                    return Some(Value::Object(entries));
                }
                _ => return None,
            }
        }
    }

    /// Renders a value as pretty-printed JSON.
    pub fn render(value: &Value) -> String {
        let mut out = String::new();
        write_value(value, 0, &mut out);
        out
    }

    fn write_value(value: &Value, indent: usize, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(item, indent, out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, item)) in entries.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    write_string(key, out);
                    out.push_str(": ");
                    write_value(item, indent + 1, out);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                _ => out.push(ch),
            }
        }
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::harness::{bench, time_rounds};
    use super::json;
    use std::cell::RefCell;

    #[test]
    fn harness_measures_and_reports() {
        let m = bench("noop", 1, 10, || 40 + 2);
        assert!(m.iters <= 10 && m.iters >= 1);
        assert!(m.report().contains("noop"));
        assert!(m.median_ns >= 0.0);
        assert!(m.p95_ns >= m.median_ns);
    }

    #[test]
    fn every_arm_runs_once_per_round_and_leads_in_turn() {
        let calls = RefCell::new(Vec::new());
        let (mut a, mut b, mut c) = (
            || calls.borrow_mut().push(0),
            || calls.borrow_mut().push(1),
            || calls.borrow_mut().push(2),
        );
        let (warmup, rounds) = (2, 7);
        let samples = time_rounds(warmup, rounds, &mut [&mut a, &mut b, &mut c]);
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|arm| arm.len() == rounds as usize));
        let calls = calls.into_inner();
        assert_eq!(calls.len(), 3 * (warmup + rounds) as usize);
        for (round, order) in calls.chunks(3).enumerate() {
            assert_eq!(order[0], round % 3, "round {round} runs {order:?}");
            let mut arms = order.to_vec();
            arms.sort_unstable();
            assert_eq!(arms, [0, 1, 2], "round {round} runs {order:?}");
        }
    }

    #[test]
    fn json_round_trips_bench_documents() {
        let doc = json::Value::Object(vec![
            (
                "long_trace".into(),
                json::Value::Object(vec![(
                    "record".into(),
                    json::Value::Object(vec![
                        ("mean_ns".into(), json::Value::Number(1234.5)),
                        ("iters".into(), json::Value::Number(5.0)),
                    ]),
                )]),
            ),
            ("empty".into(), json::Value::Object(vec![])),
        ]);
        let text = json::render(&doc);
        let parsed = json::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
        let mean = parsed
            .get("long_trace")
            .and_then(|b| b.get("record"))
            .and_then(|c| c.get("mean_ns"))
            .and_then(json::Value::as_number);
        assert_eq!(mean, Some(1234.5));
    }

    #[test]
    fn json_rejects_malformed_documents() {
        assert!(json::parse("{\"a\": }").is_none());
        assert!(json::parse("{\"a\": 1,}").is_none());
        assert!(json::parse("[1, 2").is_none());
        assert!(json::parse("{} trailing").is_none());
    }

    #[test]
    fn json_parses_nested_arrays_and_literals() {
        let v = json::parse("[true, false, null, [1.5, -2], \"a\\nb\"]").expect("parses");
        match v {
            json::Value::Array(items) => {
                assert_eq!(items.len(), 5);
                assert_eq!(items[0], json::Value::Bool(true));
                assert_eq!(items[2], json::Value::Null);
                assert_eq!(items[4], json::Value::String("a\nb".into()));
            }
            _ => panic!("expected array"),
        }
    }
}
