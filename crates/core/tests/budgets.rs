//! Budget-layer tests: resource exhaustion surfaces as the typed
//! `BudgetExhausted` outcome — never a hang, never a panic.

use cp_core::{ArenaEpoch, Budgets, ExprArena, Session, Stage, TransferSpec};
use std::time::Duration;

/// A recipient that never terminates on its own: the loop counter wraps
/// around `u64` forever.  Only the VM step ceiling can stop it.
const UNBOUNDED_LOOP: &str = r#"
    fn main() -> u32 {
        var i: u64 = input_byte(0) as u64;
        var sum: u64 = 0;
        while (i < 18446744073709551615) {
            sum = sum + i;
            i = i + 1;
            if (i == 18446744073709551615) { i = 0; }
        }
        return sum as u32;
    }
"#;

#[test]
fn unbounded_loop_exhausts_the_vm_step_budget_instead_of_hanging() {
    let mut session = Session::builder()
        .source(UNBOUNDED_LOOP)
        .budgets(Budgets::default().vm_steps(10_000))
        .build()
        .expect("program builds");
    let exhausted = session
        .record_guarded(&[7u8])
        .expect_err("an unbounded loop must trip the step ceiling");
    assert_eq!(exhausted.stage, Stage::Vm);
    assert_eq!(exhausted.limit, 10_000);
    assert_eq!(exhausted.to_string(), "vm budget exhausted (limit 10000)");
}

#[test]
fn ample_step_budget_leaves_terminating_programs_untouched() {
    let mut session = Session::builder()
        .source("fn main() -> u32 { return 6 * 7; }")
        .budgets(Budgets::default())
        .build()
        .expect("program builds");
    let trace = session.record_guarded(&[]).expect("within budget");
    assert_eq!(trace.termination, cp_vm::Termination::Returned(42));
}

#[test]
fn an_expired_deadline_fails_recording_before_the_vm_starts() {
    let mut session = Session::builder()
        .source("fn main() -> u32 { return 0; }")
        .budgets(Budgets::default().deadline(Duration::ZERO))
        .build()
        .expect("program builds");
    let exhausted = session
        .record_guarded(&[])
        .expect_err("a zero deadline expires before any stage runs");
    assert_eq!(exhausted.stage, Stage::Vm);
    // check_deadline attributes the same expiry to whichever stage asks.
    let at_discovery = session.check_deadline(Stage::Discovery).unwrap_err();
    assert_eq!(at_discovery.stage, Stage::Discovery);
}

#[test]
fn an_arena_ceiling_of_zero_reports_arena_pressure() {
    // A zero ceiling always trips, whatever the epoch has interned so far —
    // which is exactly how the chaos harness models arena pressure.
    let mut session = Session::builder()
        .source("fn main() -> u32 { return input_byte(0) as u32; }")
        .budgets(Budgets::default().arena_nodes(0))
        .build()
        .expect("program builds");
    let exhausted = session
        .record_guarded(&[1u8])
        .expect_err("a zero arena ceiling must trip");
    assert_eq!(exhausted.stage, Stage::Vm);
    assert_eq!(exhausted.limit, 0);
}

#[test]
fn the_arena_ceiling_is_per_epoch_not_per_thread() {
    // A large recording inside a *dropped* epoch must not count against a
    // later epoch's ceiling: the budget bounds one unit of work, not the
    // thread's lifetime.  (Run the probe on a dedicated thread so other
    // tests sharing this thread's arena cannot inflate the count.)
    std::thread::spawn(|| {
        let heavy = r#"
            fn main() -> u32 {
                var a: u32 = input_byte(0) as u32;
                var b: u32 = input_byte(1) as u32;
                var c: u32 = input_byte(2) as u32;
                return (a * b + c) * (a + b * c);
            }
        "#;
        {
            let _epoch = ArenaEpoch::begin();
            let mut session = Session::builder()
                .source(heavy)
                .budgets(Budgets::default())
                .build()
                .expect("program builds");
            let trace = session.record_guarded(&[3, 5, 7]).expect("within budget");
            // The ceiling counts interned nodes and the tape's entries.
            assert!(
                ExprArena::node_count() + trace.tape_len() > 8,
                "the heavy run recorded more than the lean ceiling"
            );
        }
        assert_eq!(ExprArena::node_count(), 0, "the epoch reclaimed its nodes");

        // The lean recording fits a ceiling the heavy one alone would burst.
        let _epoch = ArenaEpoch::begin();
        let mut session = Session::builder()
            .source("fn main() -> u32 { return input_byte(0) as u32; }")
            .budgets(Budgets::default().arena_nodes(8))
            .build()
            .expect("program builds");
        session
            .record_guarded(&[1u8])
            .expect("a fresh epoch starts the count at zero");
    })
    .join()
    .expect("probe thread survives");
}

#[test]
fn session_budgets_are_observable() {
    let budgets = Budgets::default()
        .vm_steps(1234)
        .arena_nodes(5)
        .deadline(Duration::from_secs(6));
    let session = Session::builder()
        .source("fn main() -> u32 { return 0; }")
        .budgets(budgets)
        .build()
        .expect("program builds");
    assert_eq!(session.budgets().vm_steps, 1234);
    assert_eq!(session.budgets().arena_nodes, Some(5));
    assert_eq!(session.budgets().deadline, Some(Duration::from_secs(6)));
}

#[test]
fn configure_spec_keeps_the_callers_translator_and_recompile_ceiling() {
    // With no fault armed the session changes nothing: the spec's own
    // solver and recompile ceiling are the ones the transfer runs with.
    let session = Session::builder()
        .source("fn main() -> u32 { return 0; }")
        .build()
        .expect("program builds");
    let mut spec = TransferSpec::new(&[], &[]);
    spec.translator.solver.sampler.samples = 7;
    spec.max_recompiles = 100;
    let spec = session.configure_spec(spec);
    assert_eq!(spec.translator.solver.sampler.samples, 7);
    assert_eq!(spec.max_recompiles, 100);
}
