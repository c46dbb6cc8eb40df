//! End-to-end donor→recipient translation over every corpus scenario.
//!
//! The full paper pipeline, per scenario:
//!
//! 1. record the **stripped** donor on the error input — its guard check
//!    fires and the donor exits cleanly where the recipient would fault;
//! 2. fold the discovered check over the scenario's format descriptor so it
//!    reads as `HachField` expressions (application-independent form);
//! 3. translate the donor check into the recipient's namespace over the
//!    variable values of the recipient's *error-input* trace (the run that
//!    exposes the vulnerable path), through `VarTable::from_observation` and
//!    `Translator::translate_all` exactly as `cp_patch::transfer` does —
//!    every field must bind with a `Proved` solver verdict;
//! 4. validate the translated condition: it must flag the error input and
//!    accept the benign corpus.

use cp_core::{CheckTranslateError, CheckTranslation, Session, Trace};
use cp_corpus::{scenarios, Scenario};
use cp_patch::VarTable;
use cp_solver::translate::Translator;
use cp_symexpr::display::paper_format;
use cp_symexpr::eval::eval;
use cp_symexpr::ExprRef;
use cp_vm::Termination;

/// Translates a folded donor condition over `trace`'s variable values, as
/// `cp_patch::transfer` does, committing to each field's simplest proved
/// binding.
fn translate(
    recipient: &Session,
    trace: &Trace,
    folded: &ExprRef,
) -> Result<CheckTranslation, CheckTranslateError> {
    let analyzed = recipient
        .analyzed()
        .expect("recipients are built from source");
    let fn_names: Vec<Option<String>> = analyzed
        .program
        .functions
        .iter()
        .map(|f| Some(f.name.clone()))
        .collect();
    let table = VarTable::from_observation(trace.var_values(), &analyzed.debug, &fn_names);
    Translator::default()
        .translate_all(folded, &table.candidates)
        .map(|all| all.first())
}

/// Runs the full transfer pipeline for one scenario and returns the
/// translated condition's rendering for spot checks.
fn transfer(scenario: &Scenario) -> String {
    let format = scenario.format();

    // The recipient actually faults on the error input — the premise of the
    // whole transfer.
    let mut recipient = Session::builder()
        .source(scenario.source)
        .build()
        .unwrap_or_else(|e| panic!("{}: recipient fails to build: {e}", scenario.name));
    let crash = recipient.record_with_input(scenario.error_input);
    assert!(
        crash.last_error().is_some(),
        "{}: recipient must fault on the error input, got {:?}",
        scenario.name,
        crash.termination
    );

    // The stripped donor survives the same input thanks to its check: an
    // `exit(1)` guard exits cleanly, a `return 0` guard (the alternate
    // strategy) finishes normally — either way no detector fires.
    let mut donor = Session::builder()
        .source(scenario.donor_source)
        .stripped()
        .build()
        .unwrap_or_else(|e| panic!("{}: donor fails to build: {e}", scenario.name));
    let donor_trace = donor.record_with_input(scenario.error_input);
    let expected = match scenario.patch_action {
        cp_lang::PatchAction::Exit(status) => Termination::Exited(status as u64),
        cp_lang::PatchAction::ReturnZero => Termination::Returned(0),
    };
    assert_eq!(
        donor_trace.termination, expected,
        "{}: guarded donor must intercept the error input",
        scenario.name
    );

    // The benign input still runs clean, and the error-input trace — the
    // run that walks the vulnerable path — is the namespace the check lands
    // in, exactly as the batch pipeline translates.
    let benign_trace = recipient.record_with_input(scenario.benign_input);
    assert!(
        benign_trace.last_error().is_none(),
        "{}: recipient must process the benign input",
        scenario.name
    );
    assert!(
        !crash.var_values().is_empty(),
        "{}: recipient trace offers no translation candidates",
        scenario.name
    );

    // Discover the donor check that transfers: folds to fields, translates
    // with all-Proved bindings, flags the error input, accepts the benign
    // input.
    let mut rendered = None;
    for check in donor_trace.checks() {
        let folded = format.fold(&check.condition());
        if !paper_format(&folded).contains("HachField") {
            continue;
        }
        let Ok(translation) = translate(&recipient, &crash, &folded) else {
            continue;
        };
        assert!(
            translation.stats.proved >= translation.bindings.len(),
            "{}: every binding must come from a Proved verdict",
            scenario.name
        );
        assert!(
            !translation.bindings.is_empty(),
            "{}: translation bound no fields",
            scenario.name
        );
        let flags_error = eval(&translation.condition, scenario.error_input) != 0;
        let accepts_benign = eval(&translation.condition, scenario.benign_input) == 0;
        if flags_error && accepts_benign {
            // The bindings reference the recipient's own namespace: named
            // variables the debug information put in scope.
            assert!(
                translation
                    .bindings
                    .iter()
                    .all(|b| b.source.starts_with("var ")),
                "{}: expected variable bindings, got {:?}",
                scenario.name,
                translation
                    .bindings
                    .iter()
                    .map(|b| b.source.clone())
                    .collect::<Vec<_>>()
            );
            rendered = Some(paper_format(&translation.condition));
            break;
        }
    }
    rendered.unwrap_or_else(|| {
        panic!(
            "{}: no donor check translated into a discriminating recipient condition",
            scenario.name
        )
    })
}

#[test]
fn image_overflow_check_transfers_into_the_recipient() {
    let rendered = transfer(&cp_corpus::IMAGE_ALLOC);
    // The translated guard still compares the 48-bit product against the
    // 32-bit ceiling, now over recipient expressions (raw input bytes).
    assert!(rendered.contains("4294967295"), "{rendered}");
    assert!(rendered.contains("InputByte"), "{rendered}");
    assert!(!rendered.contains("HachField"), "{rendered}");
}

#[test]
fn palette_bounds_check_transfers_into_the_recipient() {
    let rendered = transfer(&cp_corpus::PALETTE_OOB);
    assert!(rendered.contains("15"), "{rendered}");
    assert!(!rendered.contains("HachField"), "{rendered}");
}

#[test]
fn sample_divzero_check_transfers_into_the_recipient() {
    let rendered = transfer(&cp_corpus::SAMPLE_DIV);
    assert!(!rendered.contains("HachField"), "{rendered}");
}

#[test]
fn every_scenario_transfers_and_prunes_with_disjoint_support() {
    // The aggregate view across the corpus: all three scenarios translate,
    // and the multi-field scenario demonstrates the disjoint-support fast
    // path actually skipping solver calls.
    for scenario in scenarios() {
        transfer(&scenario);
    }

    let format = cp_corpus::IMAGE_ALLOC.format();
    let donor_trace = Session::builder()
        .source(cp_corpus::IMAGE_ALLOC.donor_source)
        .stripped()
        .input(cp_corpus::IMAGE_ALLOC.error_input)
        .record()
        .expect("donor builds");
    let mut recipient = Session::builder()
        .source(cp_corpus::IMAGE_ALLOC.source)
        .build()
        .expect("recipient builds");
    let recipient_trace = recipient.record_with_input(cp_corpus::IMAGE_ALLOC.benign_input);
    let check = &donor_trace.checks()[0];
    let translation = translate(
        &recipient,
        &recipient_trace,
        &format.fold(&check.condition()),
    )
    .expect("translates");
    assert_eq!(translation.bindings.len(), 3);
    assert!(
        translation.stats.pruned_disjoint > 0,
        "three disjoint fields must prune cross pairs: {:?}",
        translation.stats
    );
    assert!(
        translation.stats.solver_calls < translation.stats.pairs,
        "pruning must save solver calls: {:?}",
        translation.stats
    );
}

#[test]
fn donor_checks_fold_to_named_fields() {
    for scenario in scenarios() {
        let format = scenario.format();
        let trace = Session::builder()
            .source(scenario.donor_source)
            .stripped()
            .input(scenario.error_input)
            .record()
            .expect("donor builds");
        let folded_any = trace
            .checks()
            .iter()
            .any(|c| paper_format(&format.fold(&c.condition())).contains("HachField"));
        assert!(
            folded_any,
            "{}: no donor check folds to a HachField expression",
            scenario.name
        );
    }
}
