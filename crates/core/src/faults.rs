//! Deterministic fault injection for robustness testing.
//!
//! A robustness layer is only trustworthy if its failure paths actually run.
//! This module is a tiny, deterministic, thread-local injection registry the
//! chaos suite (`crates/corpus/tests/chaos.rs`) uses to force each failure
//! mode — solver starvation, VM step-limit trips, arena-pressure caps,
//! malformed scenario source, mid-validation recompile failure, and an
//! outright panic — at a *scheduled* scenario of a full corpus sweep, then
//! assert that the sweep survives with exactly one degraded/failed row.
//!
//! Design constraints:
//!
//! * **test-only in spirit, compiled always** — integration tests in other
//!   crates must arm faults, so the registry cannot be `#[cfg(test)]`; the
//!   production cost is one thread-local read at a handful of stage
//!   boundaries, and nothing at all per instruction;
//! * **deterministic** — a fault is armed for one named scenario picked by
//!   [`scheduled_target`]'s seeded hash, never by wall-clock or randomness,
//!   so every chaos run is reproducible bit for bit;
//! * **scoped** — arming returns a [`FaultGuard`]; the fault disarms on drop
//!   (including during an injected panic's unwind), so a poisoned test can
//!   never leak a fault into the next one on the same thread.
//!
//! The registry is thread-local: a fault armed on one thread is invisible to
//! every other, which keeps `cargo test`'s parallel test threads isolated
//! for free.

use std::cell::RefCell;

/// The failure modes the harness can force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Starve every solver stage to zero budget: equivalence and
    /// satisfiability queries degrade to `Unknown`, so discovery finds
    /// nothing and translation proves nothing.
    SolverBudget,
    /// Clamp the VM step ceiling to a handful of instructions so recording
    /// trips `StepLimitExceeded`.
    VmStepLimit,
    /// Pretend the expression arena is over its node ceiling after a
    /// recording.
    ArenaPressure,
    /// Replace the scenario's recipient source with garbage before the
    /// frontend sees it.
    FrontendMalformed,
    /// Clamp the validation recompile budget to zero so it exhausts at the
    /// first candidate patch, before anything validates.
    ValidationRecompile,
    /// Panic outright in the middle of the scenario, exercising the batch
    /// runner's `catch_unwind` isolation.
    ScenarioPanic,
}

/// The step ceiling [`FaultPoint::VmStepLimit`] clamps recording to — small
/// enough that every corpus program trips it (the shortest corpus program
/// needs 14 steps on its error input), while still executing a few real
/// instructions first.
pub const VM_STEP_CLAMP: u64 = 8;

/// Every registered injection point, in a stable order the chaos suite
/// iterates over.
pub const ALL_POINTS: [FaultPoint; 6] = [
    FaultPoint::SolverBudget,
    FaultPoint::VmStepLimit,
    FaultPoint::ArenaPressure,
    FaultPoint::FrontendMalformed,
    FaultPoint::ValidationRecompile,
    FaultPoint::ScenarioPanic,
];

struct Armed {
    point: FaultPoint,
    target: String,
}

thread_local! {
    static ARMED: RefCell<Option<Armed>> = const { RefCell::new(None) };
    static CURRENT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Disarms the fault when dropped.
#[must_use = "the fault disarms when the guard drops"]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.with(|armed| *armed.borrow_mut() = None);
    }
}

/// Marks the scenario the current thread is sweeping; restores the previous
/// marker when dropped (drop runs during unwinds too, so an injected panic
/// cannot leave a stale scenario behind).
pub struct ScenarioScope {
    previous: Option<String>,
}

impl Drop for ScenarioScope {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = self.previous.take());
    }
}

/// Arms `point` to fire whenever the thread is inside the scenario named
/// `target`.  At most one fault is armed per thread; arming replaces any
/// previous one.
pub fn arm(point: FaultPoint, target: &str) -> FaultGuard {
    cp_obs::event!(FaultArmed {
        point: format!("{point:?}"),
        target: target.to_string()
    });
    ARMED.with(|armed| {
        *armed.borrow_mut() = Some(Armed {
            point,
            target: target.into(),
        })
    });
    FaultGuard(())
}

/// Declares that the current thread is now sweeping `scenario`.
pub fn enter_scenario(scenario: &str) -> ScenarioScope {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(scenario.into()));
    ScenarioScope { previous }
}

/// A copy of one thread's armed fault, for re-arming on another thread.
///
/// The registry is thread-local by design (parallel tests stay isolated),
/// but the corpus worker pool runs scenarios on threads the caller never
/// sees — a fault armed on the dispatching thread must follow the work.
/// [`snapshot`] captures the dispatcher's armed state; each worker re-arms
/// it with [`arm_snapshot`] before sweeping.
#[derive(Debug, Clone)]
pub struct FaultSnapshot {
    armed: Option<(FaultPoint, String)>,
}

/// Captures the calling thread's armed fault (if any) so a worker thread can
/// mirror it.
pub fn snapshot() -> FaultSnapshot {
    FaultSnapshot {
        armed: ARMED.with(|armed| armed.borrow().as_ref().map(|a| (a.point, a.target.clone()))),
    }
}

/// Arms the snapshot's fault on the calling thread; a no-op guard when the
/// snapshot is empty.  Dropping the guard disarms, exactly like [`arm`].
pub fn arm_snapshot(snapshot: &FaultSnapshot) -> Option<FaultGuard> {
    snapshot
        .armed
        .as_ref()
        .map(|(point, target)| arm(*point, target))
}

/// Whether `point` is armed for the scenario the thread is currently inside.
///
/// This is the single question every injection point asks; with nothing
/// armed it is one thread-local read.
pub fn fires(point: FaultPoint) -> bool {
    let fired = ARMED.with(|armed| {
        let armed = armed.borrow();
        let Some(armed) = armed.as_ref() else {
            return false;
        };
        armed.point == point
            && CURRENT.with(|current| current.borrow().as_deref() == Some(armed.target.as_str()))
    });
    if fired {
        cp_obs::event!(FaultFired {
            point: format!("{point:?}")
        });
    }
    fired
}

/// The seeded schedule: picks which of `names` a chaos round targets.
///
/// splitmix64 over the seed — deterministic across runs and platforms, and
/// different seeds spread faults across different scenarios.
pub fn scheduled_target<'a>(seed: u64, names: &[&'a str]) -> &'a str {
    assert!(!names.is_empty(), "schedule needs at least one scenario");
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    names[(z % names.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fault_fires_only_inside_its_target_scenario() {
        let _guard = arm(FaultPoint::VmStepLimit, "b");
        {
            let _scope = enter_scenario("a");
            assert!(!fires(FaultPoint::VmStepLimit));
        }
        {
            let _scope = enter_scenario("b");
            assert!(fires(FaultPoint::VmStepLimit));
            assert!(!fires(FaultPoint::SolverBudget));
        }
        assert!(!fires(FaultPoint::VmStepLimit));
    }

    #[test]
    fn dropping_the_guard_disarms() {
        let _scope = enter_scenario("s");
        {
            let _guard = arm(FaultPoint::ScenarioPanic, "s");
            assert!(fires(FaultPoint::ScenarioPanic));
        }
        assert!(!fires(FaultPoint::ScenarioPanic));
    }

    #[test]
    fn scenario_scopes_nest_and_restore() {
        let _guard = arm(FaultPoint::ArenaPressure, "outer");
        let _outer = enter_scenario("outer");
        assert!(fires(FaultPoint::ArenaPressure));
        {
            let _inner = enter_scenario("inner");
            assert!(!fires(FaultPoint::ArenaPressure));
        }
        assert!(fires(FaultPoint::ArenaPressure));
    }

    #[test]
    fn a_snapshot_carries_a_fault_to_another_thread() {
        let _guard = arm(FaultPoint::SolverBudget, "target");
        let snap = snapshot();
        let fired = std::thread::spawn(move || {
            let _armed = arm_snapshot(&snap);
            let _scope = enter_scenario("target");
            fires(FaultPoint::SolverBudget)
        })
        .join()
        .expect("worker survives");
        assert!(fired, "the snapshot must arm the fault on the worker");
    }

    #[test]
    fn an_empty_snapshot_arms_nothing() {
        let snap = snapshot();
        assert!(arm_snapshot(&snap).is_none());
        let _scope = enter_scenario("anything");
        assert!(!fires(FaultPoint::ScenarioPanic));
    }

    #[test]
    fn the_schedule_is_deterministic_and_seed_sensitive() {
        let names = ["a", "b", "c", "d", "e"];
        let first = scheduled_target(7, &names);
        assert_eq!(first, scheduled_target(7, &names));
        let spread: std::collections::HashSet<_> =
            (0..32).map(|seed| scheduled_target(seed, &names)).collect();
        assert!(spread.len() > 1, "schedule must depend on the seed");
    }
}
