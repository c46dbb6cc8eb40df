//! Session-wide resource budgets for a pipeline run.
//!
//! A batch sweep (the `fig8` table, or the roadmap's 1,000-scenario corpus)
//! must never hang or run open-endedly because one scenario misbehaves.
//! [`Budgets`] holds the ceilings a [`Session`](crate::Session) applies to
//! everything it does — VM steps per recording, interned arena nodes per
//! epoch, and an overall wall-clock deadline — and the stages turn
//! exhaustion into the typed [`BudgetExhausted`] outcome instead of a hang,
//! a panic, or an unbounded search.  Each stage's own limits live in the
//! config the caller passes that stage, and nowhere else: the solver and
//! its sampling seed in [`DiscoverConfig`](crate::DiscoverConfig) (with the
//! search limits as `cp_diode`'s `MAX_*` constants), and the translation
//! solver and recompile ceiling in [`TransferSpec`](crate::TransferSpec).
//!
//! The checks are deliberately coarse-grained: each stage consults its
//! ceiling at stage boundaries (the VM's own step counter does the
//! per-instruction work it always did), so the budget layer adds no
//! per-instruction cost on the hot paths — `benches/record.rs` times guarded
//! against plain recording and gates the ratio.

use std::fmt;
use std::time::{Duration, Instant};

/// The pipeline stage a budget or error belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Parsing / semantic analysis of Phage-C source.
    Frontend,
    /// Instrumented execution (recording a trace).
    Vm,
    /// Equivalence / satisfiability queries.
    Solver,
    /// Goal-directed error-input discovery.
    Discovery,
    /// Translation, planning and guard lowering.
    Patch,
    /// Behavioral validation of candidate patches.
    Validation,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::Frontend => "frontend",
            Stage::Vm => "vm",
            Stage::Solver => "solver",
            Stage::Discovery => "discovery",
            Stage::Patch => "patch",
            Stage::Validation => "validation",
        };
        f.write_str(name)
    }
}

/// A stage ran into its configured ceiling.
///
/// `limit` is the ceiling that was hit, in the stage's own unit (VM steps,
/// executions, recompiles, or milliseconds for the deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The stage that exhausted its budget.
    pub stage: Stage,
    /// The configured ceiling, in the stage's unit.
    pub limit: u64,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} budget exhausted (limit {})", self.stage, self.limit)
    }
}

impl std::error::Error for BudgetExhausted {}

impl BudgetExhausted {
    /// Reports the exhaustion to the observability layer — a structured
    /// `BudgetExhausted` event (scenario/span attribution attached by the
    /// subscriber) plus the `budget.exhausted{stage}` counter — and returns
    /// `self`, so every construction site just wraps the error it is about
    /// to return.  Exhaustion is rare by design, so the registry lookup
    /// costs nothing on healthy runs.
    pub fn noted(self) -> Self {
        cp_obs::metrics::counter_with("budget.exhausted", &self.stage.to_string()).inc();
        cp_obs::event!(BudgetExhausted {
            stage: self.stage.to_string(),
            limit: self.limit
        });
        self
    }
}

/// The session-wide ceilings one [`Session`](crate::Session) honours.
///
/// The defaults reproduce the limits the pipeline has always run with, so a
/// session built without an explicit `budgets(..)` call behaves identically
/// to one before the budget layer existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    /// VM instruction ceiling per recorded run (maps to
    /// [`RunConfig::max_steps`](cp_vm::RunConfig)).
    pub vm_steps: u64,
    /// Ceiling on the thread's interned expression-arena nodes *in the
    /// current arena epoch* (the count resets with the epoch, so the cap
    /// bounds one unit of work rather than the process lifetime), checked
    /// after each recording; `None` leaves the arena unobserved.
    pub arena_nodes: Option<u64>,
    /// Wall-clock deadline for the whole session, checked at stage
    /// boundaries; `None` disables the deadline.
    pub deadline: Option<Duration>,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            vm_steps: cp_vm::RunConfig::default().max_steps,
            arena_nodes: None,
            deadline: None,
        }
    }
}

impl Budgets {
    /// Sets the VM instruction ceiling.
    pub fn vm_steps(mut self, steps: u64) -> Self {
        self.vm_steps = steps;
        self
    }

    /// Sets the arena-node ceiling.
    pub fn arena_nodes(mut self, nodes: u64) -> Self {
        self.arena_nodes = Some(nodes);
        self
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A wall-clock deadline armed when the session is built.
///
/// Stages call [`check`](Deadline::check) at their boundaries; an expired
/// deadline reports as `BudgetExhausted { stage, limit: <configured ms> }`.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    expires: Option<Instant>,
    millis: u64,
}

impl Deadline {
    /// Arms the deadline (if any) starting now.  A deadline beyond the
    /// clock's range never fires.
    pub fn starting_now(budget: Option<Duration>) -> Self {
        Deadline {
            expires: budget.and_then(|d| Instant::now().checked_add(d)),
            millis: budget.map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        }
    }

    /// Errors if the deadline has passed, attributing the exhaustion to
    /// `stage`.
    pub fn check(&self, stage: Stage) -> Result<(), BudgetExhausted> {
        match self.expires {
            Some(expires) if Instant::now() >= expires => Err(BudgetExhausted {
                stage,
                limit: self.millis,
            }
            .noted()),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_historic_limits() {
        let budgets = Budgets::default();
        assert_eq!(budgets.vm_steps, 1_000_000);
        assert!(budgets.deadline.is_none());
        assert!(budgets.arena_nodes.is_none());
        // The stage limits that once doubled as budgets, at their homes.
        assert_eq!(cp_diode::MAX_EXECUTIONS, 48);
        let spec = crate::TransferSpec::new(&[], &[]);
        assert_eq!(spec.max_recompiles, 64);
        let solver = spec.translator.solver;
        assert_eq!(solver.sampler.samples, 64);
        assert_eq!(solver.limits.max_gates, 100_000);
        assert_eq!(solver.limits.max_conflicts, 20_000);
        assert_eq!(solver.exhaustive_budget, 1 << 16);
        let discovery = crate::DiscoverConfig::default().solver;
        assert_eq!(discovery.sampler.samples, 256);
        assert_eq!(discovery.sampler.seed, 0xD10DE);
        assert_eq!(discovery.limits.max_gates, solver.limits.max_gates);
        assert_eq!(discovery.limits.max_conflicts, solver.limits.max_conflicts);
        assert_eq!(discovery.exhaustive_budget, solver.exhaustive_budget);
    }

    #[test]
    fn an_unarmed_deadline_never_fires() {
        let deadline = Deadline::starting_now(None);
        assert!(deadline.check(Stage::Vm).is_ok());
    }

    #[test]
    fn a_deadline_beyond_the_clock_never_fires() {
        for budget in [Duration::MAX, Duration::from_secs(u64::MAX / 2)] {
            let deadline = Deadline::starting_now(Some(budget));
            assert!(deadline.check(Stage::Vm).is_ok());
            assert_eq!(deadline.millis, u64::MAX, "the limit saturates");
        }
    }

    #[test]
    fn an_expired_deadline_reports_the_stage_and_limit() {
        let deadline = Deadline::starting_now(Some(Duration::ZERO));
        let err = deadline.check(Stage::Discovery).unwrap_err();
        assert_eq!(err.stage, Stage::Discovery);
        assert_eq!(err.to_string(), "discovery budget exhausted (limit 0)");
    }
}
