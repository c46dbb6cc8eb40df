//! Process-wide metrics registry: named counters and gauges over lock-free
//! atomics.
//!
//! Metrics are **always on** — unlike spans and events they need no
//! subscriber, because a relaxed atomic add is cheap enough to pay
//! unconditionally and the interesting consumers (fig8's wall-time and
//! arena-nodes columns, BENCH.json counters) want process-lifetime totals,
//! not per-trace ones.
//!
//! Names are dotted paths (`solver.memo.hit`, `vm.steps`,
//! `arena.peak_nodes`); a label dimension appends in braces
//! (`budget.exhausted{vm}`, `scenario.wall_ns{png-width}`) via
//! [`counter_with`] / [`gauge_with`].  Handles are `&'static` — registration
//! leaks one small allocation per distinct name for the life of the process,
//! so hot paths cache the handle in a `OnceLock` and pay only the atomic op:
//!
//! ```
//! use std::sync::OnceLock;
//! static STEPS: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
//! STEPS.get_or_init(|| cp_obs::metrics::counter("vm.steps")).add(14);
//! assert!(cp_obs::metrics::counter("vm.steps").get() >= 14);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (test and bench isolation).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-written-value (or high-water) measurement.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrites the gauge.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is higher (high-water semantics).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
}

/// A readable copy of one registered metric, keyed by name in
/// [`snapshot`] / [`find`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A [`Counter`] total.
    Counter(u64),
    /// A [`Gauge`] value.
    Gauge(u64),
}

fn registry() -> MutexGuard<'static, HashMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Metric>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Returns (registering on first use) the counter named `name`.
///
/// Panics if `name` is already registered as a different metric type — a
/// programming error, not a runtime condition.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry();
    match reg
        .entry(name.to_owned())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
    {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// Returns the counter `name{label}` — one counter per label value.
pub fn counter_with(name: &str, label: &str) -> &'static Counter {
    counter(&format!("{name}{{{label}}}"))
}

/// Returns (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry();
    match reg
        .entry(name.to_owned())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
    {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// Returns the gauge `name{label}` — one gauge per label value.
pub fn gauge_with(name: &str, label: &str) -> &'static Gauge {
    gauge(&format!("{name}{{{label}}}"))
}

/// Reads `name` without registering it: `None` if nothing ever touched it.
pub fn find(name: &str) -> Option<MetricValue> {
    let reg = registry();
    reg.get(name).map(|m| match m {
        Metric::Counter(c) => MetricValue::Counter(c.get()),
        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
    })
}

/// Every registered metric with its current value, sorted by name.
pub fn snapshot() -> Vec<(String, MetricValue)> {
    let reg = registry();
    let mut out: Vec<(String, MetricValue)> = reg
        .iter()
        .map(|(name, m)| {
            let value = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            };
            (name.clone(), value)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = counter("test.counter.basic");
        c.reset();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(
            find("test.counter.basic"),
            Some(MetricValue::Counter(5)),
            "find reads without registering"
        );
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn registration_is_idempotent_and_type_checked() {
        let a = counter("test.idem");
        let b = counter("test.idem");
        assert!(std::ptr::eq(a, b), "same name, same handle");
        let caught = std::panic::catch_unwind(|| gauge("test.idem"));
        assert!(caught.is_err(), "type mismatch must be loud");
    }

    #[test]
    fn gauges_track_high_water() {
        let g = gauge("test.gauge.hw");
        g.reset();
        g.set(10);
        g.set_max(5);
        assert_eq!(g.get(), 10);
        g.set_max(25);
        assert_eq!(g.get(), 25);
    }

    #[test]
    fn labels_produce_distinct_series() {
        counter_with("test.labeled", "vm").add(2);
        counter_with("test.labeled", "solver").add(3);
        assert_eq!(
            find("test.labeled{vm}"),
            Some(MetricValue::Counter(2)),
            "label lands in the key"
        );
        assert_eq!(find("test.labeled{solver}"), Some(MetricValue::Counter(3)));
        assert_eq!(find("test.labeled{absent}"), None);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        counter("test.sorted.b").inc();
        counter("test.sorted.a").inc();
        let all = snapshot();
        let names: Vec<&str> = all
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test.sorted."))
            .collect();
        assert_eq!(names, vec!["test.sorted.a", "test.sorted.b"]);
    }
}
