//! Trace export: a JSONL emitter and a human tree renderer for
//! [`TraceData`].
//!
//! One JSON object per line, following the `cp_bench::json` conventions
//! (flat objects, string/number/bool values, no external dependency):
//!
//! ```text
//! {"type":"span","id":3,"parent":2,"name":"record","scenario":"png-width","seq":4,"start_ns":812,"end_ns":90417}
//! {"type":"event","kind":"budget_exhausted","span":3,"scenario":"png-width","seq":5,"stage":"vm","limit":250000}
//! {"type":"metric","name":"solver.memo.hit","kind":"counter","value":118}
//! ```
//!
//! The line builder ([`JsonLine`]) is public so other emitters — fig8's
//! `--json` table rows — produce the same dialect.

use crate::metrics::{self, MetricValue};
use crate::{Event, EventRecord, SpanRecord, TraceData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Builds one flat JSON object as a single line, key by key.
#[derive(Debug, Default)]
pub struct JsonLine {
    buf: String,
}

impl JsonLine {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonLine { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Appends an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field (finite values only; NaN/inf become 0).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends an integer field only when present.
    pub fn opt_num(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(v) => self.num(key, v),
            None => self,
        }
    }

    /// Appends a string field only when present.
    pub fn opt_str(self, key: &str, value: Option<&str>) -> Self {
        match value {
            Some(v) => self.str(key, v),
            None => self,
        }
    }

    /// Closes the object: `{...}` with no trailing newline.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

fn span_line(span: &SpanRecord) -> String {
    JsonLine::new()
        .str("type", "span")
        .num("id", span.id)
        .opt_num("parent", span.parent)
        .str("name", span.name)
        .opt_str("scenario", span.scenario.as_deref())
        .num("seq", span.seq)
        .num("start_ns", span.start_ns)
        .num("end_ns", span.end_ns)
        .finish()
}

fn event_fields(line: JsonLine, event: &Event) -> JsonLine {
    match event {
        Event::BudgetExhausted { stage, limit } => line.str("stage", stage).num("limit", *limit),
        Event::FaultArmed { point, target } => line.str("point", point).str("target", target),
        Event::FaultFired { point } => line.str("point", point),
        Event::Degraded { reason } => line.str("reason", reason),
        Event::SolverEscalation { stage } => line.str("stage", stage),
        Event::DiscoveryGeneration { generation } => line.num("generation", *generation),
    }
}

fn event_line(record: &EventRecord) -> String {
    let line = JsonLine::new()
        .str("type", "event")
        .str("kind", record.event.kind())
        .opt_num("span", record.span)
        .opt_str("scenario", record.scenario.as_deref())
        .num("seq", record.seq);
    event_fields(line, &record.event).finish()
}

fn metric_line(name: &str, value: &MetricValue) -> String {
    let line = JsonLine::new().str("type", "metric").str("name", name);
    match value {
        MetricValue::Counter(v) => line.str("kind", "counter").num("value", *v).finish(),
        MetricValue::Gauge(v) => line.str("kind", "gauge").num("value", *v).finish(),
    }
}

impl TraceData {
    /// The whole trace as JSONL: one span or event object per line, in the
    /// deterministic `(scenario, seq)` order of
    /// [`Collector::take`](crate::Collector::take).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&span_line(span));
            out.push('\n');
        }
        for event in &self.events {
            out.push_str(&event_line(event));
            out.push('\n');
        }
        out
    }

    /// [`to_jsonl`](TraceData::to_jsonl) plus one `"type":"metric"` line per
    /// registered metric — the full export `fig8 --trace-out` writes.
    pub fn to_jsonl_with_metrics(&self) -> String {
        let mut out = self.to_jsonl();
        for (name, value) in metrics::snapshot() {
            out.push_str(&metric_line(&name, &value));
            out.push('\n');
        }
        out
    }

    /// Spans attributed to `scenario`, in seq order.
    pub fn spans_for(&self, scenario: &str) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.scenario.as_deref() == Some(scenario))
            .collect()
    }

    /// The scenario's span tree with timings erased — `name` lines indented
    /// by depth, children in open order.  Two runs of a deterministic sweep
    /// produce identical shapes regardless of worker interleaving, which is
    /// exactly what the parallel-tracing tests compare.
    pub fn shape_for(&self, scenario: &str) -> String {
        let spans = self.spans_for(scenario);
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for span in &spans {
            match span.parent {
                Some(p) if ids.contains(&p) => children.entry(p).or_default().push(span),
                _ => roots.push(span),
            }
        }
        let mut out = String::new();
        fn emit(
            span: &SpanRecord,
            depth: usize,
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
            out: &mut String,
        ) {
            let _ = writeln!(out, "{}{}", "  ".repeat(depth), span.name);
            for child in children.get(&span.id).into_iter().flatten() {
                emit(child, depth + 1, children, out);
            }
        }
        for root in roots {
            emit(root, 0, &children, &mut out);
        }
        out
    }

    /// A human-readable tree of the whole trace: spans indented under their
    /// parents with durations, events inlined under their span.  This is
    /// what `fig8 --trace` prints.
    pub fn render_tree(&self) -> String {
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let ids: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for span in &self.spans {
            match span.parent {
                Some(p) if ids.contains(&p) => children.entry(p).or_default().push(span),
                _ => roots.push(span),
            }
        }
        let mut events_by_span: BTreeMap<u64, Vec<&EventRecord>> = BTreeMap::new();
        let mut orphan_events: Vec<&EventRecord> = Vec::new();
        for event in &self.events {
            match event.span {
                Some(id) if ids.contains(&id) => events_by_span.entry(id).or_default().push(event),
                _ => orphan_events.push(event),
            }
        }
        let mut out = String::new();
        fn describe(event: &Event) -> String {
            match event {
                Event::BudgetExhausted { stage, limit } => {
                    format!("budget_exhausted stage={stage} limit={limit}")
                }
                Event::FaultArmed { point, target } => {
                    format!("fault_armed point={point} target={target}")
                }
                Event::FaultFired { point } => format!("fault_fired point={point}"),
                Event::Degraded { reason } => format!("degraded reason={reason}"),
                Event::SolverEscalation { stage } => format!("solver_escalation stage={stage}"),
                Event::DiscoveryGeneration { generation } => {
                    format!("discovery_generation generation={generation}")
                }
            }
        }
        fn emit(
            span: &SpanRecord,
            depth: usize,
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
            events: &BTreeMap<u64, Vec<&EventRecord>>,
            out: &mut String,
        ) {
            let indent = "  ".repeat(depth);
            let us = span.duration_ns() / 1_000;
            match &span.scenario {
                Some(s) => {
                    let _ = writeln!(out, "{indent}{} [{s}] {us}us", span.name);
                }
                None => {
                    let _ = writeln!(out, "{indent}{} {us}us", span.name);
                }
            }
            for event in events.get(&span.id).into_iter().flatten() {
                let _ = writeln!(out, "{indent}  · {}", describe(&event.event));
            }
            for child in children.get(&span.id).into_iter().flatten() {
                emit(child, depth + 1, children, events, out);
            }
        }
        for root in roots {
            emit(root, 0, &children, &events_by_span, &mut out);
        }
        for event in orphan_events {
            let _ = writeln!(out, "· {}", describe(&event.event));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Collector};

    #[test]
    fn escaping_covers_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_lines_assemble_in_field_order() {
        let line = JsonLine::new()
            .str("type", "row")
            .num("n", 7)
            .bool("ok", true)
            .float("ratio", 1.25)
            .opt_num("absent", None)
            .finish();
        assert_eq!(line, r#"{"type":"row","n":7,"ok":true,"ratio":1.25}"#);
    }

    #[test]
    fn a_trace_exports_spans_events_and_shapes() {
        let collector = Collector::new();
        {
            let _sub = collector.subscribe();
            let _sweep = span!("sweep");
            let _scenario = span!("scenario", scenario = "png");
            let _record = span!("record");
            crate::event!(BudgetExhausted {
                stage: "vm".into(),
                limit: 8
            });
        }
        let data = collector.take();
        let jsonl = data.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4, "three spans and one event");
        assert!(lines[0].starts_with(r#"{"type":"span","id":"#));
        assert!(
            lines[3].contains(r#""kind":"budget_exhausted""#)
                && lines[3].contains(r#""scenario":"png""#)
                && lines[3].contains(r#""stage":"vm""#),
            "event carries scenario and stage: {}",
            lines[3]
        );
        assert_eq!(data.shape_for("png"), "scenario\n  record\n");
        let tree = data.render_tree();
        assert!(tree.contains("sweep "), "root span renders: {tree}");
        assert!(
            tree.contains("· budget_exhausted stage=vm limit=8"),
            "event inlined: {tree}"
        );
        let with_metrics = data.to_jsonl_with_metrics();
        assert!(with_metrics.len() >= jsonl.len());
    }
}
