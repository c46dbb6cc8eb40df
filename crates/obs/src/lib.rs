//! # cp-obs
//!
//! The observability layer of the Code Phage pipeline: structured span
//! tracing, a process-wide metrics registry, and structured events, with a
//! JSONL exporter and a human tree renderer in [`export`].
//!
//! Every pipeline stage (record, discover, translate, plan, validate) opens
//! a [`span!`] around its work; discontinuities — budget exhaustion, fault
//! injection arming/firing, degradation, solver escalation-ladder
//! transitions, discovery generation flips — are emitted as typed
//! [`Event`]s; and steady-state counters (`solver.memo.hit`, `vm.steps`,
//! `arena.peak_nodes`, …) live in the always-on [`metrics`] registry.
//!
//! ## Subscription model
//!
//! Tracing is **opt-in per thread** and near-zero cost otherwise: with no
//! [`Collector`] subscribed anywhere in the process, opening a span or
//! emitting an event is a single relaxed atomic load.  A subscriber installs
//! thread-locally ([`Collector::subscribe`]), which keeps parallel test
//! threads isolated for free — exactly the design of the fault-injection
//! registry in `cp-core`.  Work that moves to a pool (the `cp-corpus` sweep
//! workers) carries its trace explicitly: the dispatcher captures an
//! [`ObsContext`] ([`context`]) and each worker re-attaches it
//! ([`attach`]), so worker spans parent correctly under the dispatcher's
//! sweep span.
//!
//! ```
//! let collector = cp_obs::Collector::new();
//! {
//!     let _sub = collector.subscribe();
//!     let _sweep = cp_obs::span!("sweep");
//!     let _scenario = cp_obs::span!("record", scenario = "png-width");
//!     cp_obs::event!(DiscoveryGeneration { generation: 1 });
//! }
//! let data = collector.take();
//! assert_eq!(data.spans.len(), 2);
//! // Ordered by (scenario, seq): the scenario-less sweep span sorts first.
//! assert_eq!(data.spans[1].scenario.as_deref(), Some("png-width"));
//! assert_eq!(data.events.len(), 1);
//! ```
//!
//! ## Determinism
//!
//! Collected records are ordered by `(scenario, seq)`: within one scenario
//! all records come from the single worker that swept it, so a
//! deterministic sweep produces the same per-scenario span tree whether it
//! ran sequentially or across a pool.  Span ids and timings vary run to run;
//! names, nesting and per-scenario ordering do not.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod export;
pub mod metrics;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of collector subscriptions currently installed anywhere in the
/// process — the one-load fast path: zero means every span/event call
/// returns immediately.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// One closed span: a named, timed unit of pipeline work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Collector-unique span id (valid as a parent reference only within
    /// the same collector; not stable across runs).
    pub id: u64,
    /// The enclosing span, if any — including a parent on another thread
    /// when the span was opened under an attached [`ObsContext`].
    pub parent: Option<u64>,
    /// Stable span name (`"record"`, `"translate"`, …) — the schema key.
    pub name: &'static str,
    /// The scenario the span is attributed to: its own `scenario =`
    /// attribute, or the innermost enclosing span's.
    pub scenario: Option<String>,
    /// Open-order sequence number within the collector; within one scenario
    /// this is a deterministic ordering.
    pub seq: u64,
    /// Monotonic nanoseconds since the collector was created, at open.
    pub start_ns: u64,
    /// Monotonic nanoseconds since the collector was created, at close.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A structured discontinuity: something a forensic reader of a sweep wants
/// to grep for, with scenario and span attribution attached by the
/// collector.
///
/// Variants carry normalized, machine-stable strings (the `Degraded` reason
/// codes are pinned by `cp-corpus` tests), never free-form prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A stage ran into its configured resource ceiling.
    BudgetExhausted {
        /// The exhausted stage (`"vm"`, `"discovery"`, …).
        stage: String,
        /// The ceiling that was hit, in the stage's own unit.
        limit: u64,
    },
    /// A chaos fault was armed for a target scenario.
    FaultArmed {
        /// The injection point (`"SolverBudget"`, `"ScenarioPanic"`, …).
        point: String,
        /// The scenario the fault waits for.
        target: String,
    },
    /// An armed chaos fault fired.
    FaultFired {
        /// The injection point that fired.
        point: String,
    },
    /// A scenario recovered from a stage failure by falling back.
    Degraded {
        /// The normalized reason code (e.g. `"discovery-exhausted"`).
        reason: String,
    },
    /// The solver escalated to the next rung of its one ladder
    /// (structural → memo → sampling → incremental blast → exhaustive), on a
    /// satisfiability query or on an equivalence query's miter alike.
    SolverEscalation {
        /// The rung being entered (`"sampling"`, `"incremental"`,
        /// `"exhaustive"`).
        stage: String,
    },
    /// Goal-directed discovery advanced to a new generation of flipped
    /// path constraints.
    DiscoveryGeneration {
        /// The generation now being explored (benign input is generation 0).
        generation: u64,
    },
}

impl Event {
    /// The event's stable kind tag, as exported.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::BudgetExhausted { .. } => "budget_exhausted",
            Event::FaultArmed { .. } => "fault_armed",
            Event::FaultFired { .. } => "fault_fired",
            Event::Degraded { .. } => "degraded",
            Event::SolverEscalation { .. } => "solver_escalation",
            Event::DiscoveryGeneration { .. } => "discovery_generation",
        }
    }
}

/// One emitted event with its collector-assigned attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Sequence number in the collector's shared span/event order.
    pub seq: u64,
    /// The innermost open span when the event fired, if any.
    pub span: Option<u64>,
    /// The scenario the event is attributed to (from the enclosing span).
    pub scenario: Option<String>,
    /// The event payload.
    pub event: Event,
}

/// Everything one collector gathered, ordered by `(scenario, seq)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Closed spans.
    pub spans: Vec<SpanRecord>,
    /// Emitted events.
    pub events: Vec<EventRecord>,
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A trace sink: spans and events from every subscribed thread land here.
///
/// Records are pushed on span *close* (so a panic unwinding through a span
/// guard still flushes it) and on event emission; [`take`](Collector::take)
/// drains them in deterministic `(scenario, seq)` order.
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// Creates an empty collector; nothing is recorded until a thread
    /// [`subscribe`](Collector::subscribe)s.
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(0),
                next_seq: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Installs this collector as the calling thread's subscriber; restores
    /// the previous subscriber (if any) when the guard drops.
    pub fn subscribe(&self) -> Subscription {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        let prev = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            let prev = ThreadState {
                collector: tls.collector.take(),
                inherited_parent: tls.inherited_parent.take(),
                inherited_scenario: tls.inherited_scenario.take(),
            };
            tls.collector = Some(self.inner.clone());
            prev
        });
        Subscription { prev }
    }

    /// Drains and returns everything collected so far, ordered by
    /// `(scenario, seq)` (scenario-less records first).
    pub fn take(&self) -> TraceData {
        let mut spans = {
            let mut guard = lock(&self.inner.spans);
            std::mem::take(&mut *guard)
        };
        let mut events = {
            let mut guard = lock(&self.inner.events);
            std::mem::take(&mut *guard)
        };
        spans.sort_by(|a, b| (&a.scenario, a.seq).cmp(&(&b.scenario, b.seq)));
        events.sort_by(|a, b| (&a.scenario, a.seq).cmp(&(&b.scenario, b.seq)));
        TraceData { spans, events }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct ThreadState {
    collector: Option<Arc<Inner>>,
    inherited_parent: Option<u64>,
    inherited_scenario: Option<String>,
}

struct ThreadObs {
    collector: Option<Arc<Inner>>,
    /// Open spans on this thread, innermost last: `(id, effective scenario)`.
    stack: Vec<(u64, Option<String>)>,
    /// Parent for root spans opened on this thread (set by [`attach`]).
    inherited_parent: Option<u64>,
    /// Scenario attribution for records with no enclosing scenario span.
    inherited_scenario: Option<String>,
}

thread_local! {
    static TLS: RefCell<ThreadObs> = const {
        RefCell::new(ThreadObs {
            collector: None,
            stack: Vec::new(),
            inherited_parent: None,
            inherited_scenario: None,
        })
    };
}

/// Uninstalls the thread's subscriber on drop, restoring the previous one.
#[must_use = "the subscriber uninstalls when the guard drops"]
pub struct Subscription {
    prev: ThreadState,
}

impl Drop for Subscription {
    fn drop(&mut self) {
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            tls.collector = self.prev.collector.take();
            tls.inherited_parent = self.prev.inherited_parent.take();
            tls.inherited_scenario = self.prev.inherited_scenario.take();
        });
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether the calling thread has a subscribed collector.
///
/// Use this to gate event-argument construction on hot paths (the
/// [`event!`] macro does it for you); with no subscriber anywhere in the
/// process this is a single relaxed atomic load.
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && TLS.with(|tls| tls.borrow().collector.is_some())
}

/// A snapshot of one thread's trace position, for handing work to a pool.
///
/// Mirrors `cp_core::faults::snapshot`: the sweep dispatcher captures its
/// collector and innermost span with [`context`], and every worker
/// re-attaches the snapshot with [`attach`] so the spans it opens parent
/// under the dispatcher's span.
#[derive(Clone)]
pub struct ObsContext {
    collector: Option<Arc<Inner>>,
    parent: Option<u64>,
    scenario: Option<String>,
}

/// Captures the calling thread's subscriber and innermost open span.
pub fn context() -> ObsContext {
    TLS.with(|tls| {
        let tls = tls.borrow();
        let (parent, scenario) = match tls.stack.last() {
            Some((id, scenario)) => (Some(*id), scenario.clone()),
            None => (tls.inherited_parent, tls.inherited_scenario.clone()),
        };
        ObsContext {
            collector: tls.collector.clone(),
            parent,
            scenario,
        }
    })
}

/// Attaches a captured context to the calling thread: spans opened while the
/// returned guard lives parent under the context's span and report to its
/// collector.  `None` when the context has no collector (tracing was off at
/// capture time), so an untraced sweep costs nothing on the workers.
pub fn attach(ctx: &ObsContext) -> Option<Subscription> {
    let collector = ctx.collector.clone()?;
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let prev = TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        let prev = ThreadState {
            collector: tls.collector.take(),
            inherited_parent: tls.inherited_parent.take(),
            inherited_scenario: tls.inherited_scenario.take(),
        };
        tls.collector = Some(collector);
        tls.inherited_parent = ctx.parent;
        tls.inherited_scenario = ctx.scenario.clone();
        prev
    });
    Some(Subscription { prev })
}

/// An open span; closing (dropping) the guard records it.  Inert — a
/// zero-field drop — when no subscriber is installed.
#[must_use = "the span closes (and records) when the guard drops"]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    collector: Arc<Inner>,
    record: SpanRecord,
}

impl Span {
    /// The span's id, when tracing is live.
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.record.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut live) = self.live.take() else {
            return;
        };
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            // Innermost-first search: guards drop in reverse open order, so
            // this is the last element except under misuse, which is
            // tolerated rather than punished (drop must never panic).
            if let Some(pos) = tls.stack.iter().rposition(|(id, _)| *id == live.record.id) {
                tls.stack.remove(pos);
            }
        });
        live.record.end_ns = live.collector.now_ns();
        lock(&live.collector.spans).push(live.record);
    }
}

/// Opens a span named `name`; see the [`span!`] macro for the usual entry
/// point.  Returns an inert guard when the thread has no subscriber.
pub fn open_span(name: &'static str, scenario: Option<&str>) -> Span {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return Span { live: None };
    }
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        let Some(collector) = tls.collector.clone() else {
            return Span { live: None };
        };
        let (parent, enclosing_scenario) = match tls.stack.last() {
            Some((id, sc)) => (Some(*id), sc.clone()),
            None => (tls.inherited_parent, tls.inherited_scenario.clone()),
        };
        let effective = scenario.map(str::to_owned).or(enclosing_scenario);
        let id = collector.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let seq = collector.next_seq.fetch_add(1, Ordering::Relaxed);
        let start_ns = collector.now_ns();
        tls.stack.push((id, effective.clone()));
        Span {
            live: Some(LiveSpan {
                record: SpanRecord {
                    id,
                    parent,
                    name,
                    scenario: effective,
                    seq,
                    start_ns,
                    end_ns: start_ns,
                },
                collector,
            }),
        }
    })
}

/// Emits a structured event, attributed to the innermost open span and its
/// scenario.  A no-op without a subscriber; prefer the [`event!`] macro,
/// which also skips argument construction in that case.
pub fn emit(event: Event) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    TLS.with(|tls| {
        let tls = tls.borrow();
        let Some(collector) = &tls.collector else {
            return;
        };
        let (span, scenario) = match tls.stack.last() {
            Some((id, sc)) => (Some(*id), sc.clone()),
            None => (tls.inherited_parent, tls.inherited_scenario.clone()),
        };
        let seq = collector.next_seq.fetch_add(1, Ordering::Relaxed);
        lock(&collector.events).push(EventRecord {
            seq,
            span,
            scenario,
            event,
        });
    });
}

/// Opens an RAII span: `span!("record")`, or
/// `span!("scenario", scenario = name)` to start scenario attribution —
/// every span and event inside inherits the scenario.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::open_span($name, None)
    };
    ($name:expr, scenario = $scenario:expr) => {
        $crate::open_span($name, Some($scenario))
    };
}

/// Emits an [`Event`] variant, constructing the payload only when a
/// subscriber is installed: `event!(FaultFired { point: format!("{p:?}") })`.
#[macro_export]
macro_rules! event {
    ($variant:ident { $($body:tt)* }) => {
        if $crate::enabled() {
            $crate::emit($crate::Event::$variant { $($body)* });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_inert_without_a_subscriber() {
        let span = span!("record");
        assert!(span.id().is_none());
        drop(span);
        emit(Event::DiscoveryGeneration { generation: 1 });
    }

    #[test]
    fn spans_nest_and_attribute_scenarios() {
        let collector = Collector::new();
        {
            let _sub = collector.subscribe();
            let sweep = span!("sweep");
            let sweep_id = sweep.id().expect("live");
            {
                let scenario = span!("scenario", scenario = "png");
                assert_eq!(
                    context().parent,
                    scenario.id(),
                    "context captures the innermost span"
                );
                let _record = span!("record");
                event!(DiscoveryGeneration { generation: 2 });
            }
            drop(sweep);
            let _ = sweep_id;
        }
        let data = collector.take();
        assert_eq!(data.spans.len(), 3);
        let by_name = |n: &str| {
            data.spans
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("no span {n}"))
        };
        let sweep = by_name("sweep");
        let scenario = by_name("scenario");
        let record = by_name("record");
        assert_eq!(sweep.parent, None);
        assert_eq!(sweep.scenario, None);
        assert_eq!(scenario.parent, Some(sweep.id));
        assert_eq!(scenario.scenario.as_deref(), Some("png"));
        assert_eq!(record.parent, Some(scenario.id));
        assert_eq!(record.scenario.as_deref(), Some("png"), "inherited");
        assert!(record.end_ns >= record.start_ns);
        let event = &data.events[0];
        assert_eq!(event.span, Some(record.id));
        assert_eq!(event.scenario.as_deref(), Some("png"));
        assert_eq!(event.event.kind(), "discovery_generation");
    }

    #[test]
    fn contexts_parent_worker_spans_under_the_dispatcher() {
        let collector = Collector::new();
        let _sub = collector.subscribe();
        let sweep = span!("sweep");
        let ctx = context();
        std::thread::spawn(move || {
            let _attached = attach(&ctx);
            let _worker = span!("scenario", scenario = "worker-side");
        })
        .join()
        .expect("worker survives");
        let sweep_id = sweep.id();
        drop(sweep);
        let data = collector.take();
        let worker = data
            .spans
            .iter()
            .find(|s| s.name == "scenario")
            .expect("worker span recorded");
        assert_eq!(worker.parent, sweep_id, "parented across the pool");
    }

    #[test]
    fn an_unwind_still_flushes_open_spans_and_events() {
        let collector = Collector::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _sub = collector.subscribe();
            let _span = span!("scenario", scenario = "doomed");
            event!(FaultFired {
                point: "ScenarioPanic".into()
            });
            panic!("injected");
        }));
        assert!(result.is_err());
        let data = collector.take();
        assert_eq!(data.spans.len(), 1, "the span flushed during unwind");
        assert_eq!(data.spans[0].scenario.as_deref(), Some("doomed"));
        assert_eq!(data.events.len(), 1);
        assert!(!enabled(), "the subscription unwound too");
    }

    #[test]
    fn take_orders_by_scenario_then_sequence() {
        let collector = Collector::new();
        {
            let _sub = collector.subscribe();
            let _b = span!("one", scenario = "bbb");
            drop(_b);
            let _a = span!("two", scenario = "aaa");
            drop(_a);
            let _root = span!("root");
        }
        let data = collector.take();
        let order: Vec<(&str, Option<&str>)> = data
            .spans
            .iter()
            .map(|s| (s.name, s.scenario.as_deref()))
            .collect();
        assert_eq!(
            order,
            vec![("root", None), ("two", Some("aaa")), ("one", Some("bbb")),]
        );
    }

    #[test]
    fn subscriptions_nest_and_restore() {
        let outer = Collector::new();
        let inner = Collector::new();
        let _outer_sub = outer.subscribe();
        {
            let _inner_sub = inner.subscribe();
            let _s = span!("inner-span");
        }
        let _s = span!("outer-span");
        drop(_s);
        assert_eq!(inner.take().spans.len(), 1);
        assert_eq!(outer.take().spans.len(), 1);
    }
}
