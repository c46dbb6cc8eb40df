//! Demonstrates the full donor→recipient transfer pipeline on a corpus
//! scenario: record the stripped donor on the error input, fold its guard
//! check over the format descriptor, and translate it into the recipient's
//! namespace with solver-proved field bindings — over the recipient's
//! recorded variable values, as `cp_patch::transfer` does.
//!
//! ```text
//! cargo run --example check_transfer
//! ```

use code_phage::{PipelineError, Session};
use cp_patch::VarTable;
use cp_solver::translate::Translator;
use cp_symexpr::eval::eval;

fn main() -> Result<(), PipelineError> {
    let scenario = cp_corpus::IMAGE_ALLOC;
    let format = scenario.format();

    // Donor analysis works on the stripped binary: no symbols, no debug info.
    let donor = Session::builder()
        .source(scenario.donor_source)
        .stripped()
        .input(scenario.error_input)
        .record()?;
    println!("donor on error input -> {:?}", donor.termination);
    let check = &donor.checks()[0];
    println!("donor check:  {}", check.condition());
    println!("folded check: {}", format.fold(&check.condition()));

    // The recipient faults on the same input...
    let mut recipient = Session::builder().source(scenario.source).build()?;
    let crash = recipient.record_with_input(scenario.error_input);
    println!(
        "recipient on error input -> {}",
        crash
            .last_error()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "ran cleanly".into())
    );

    // ...so translate the donor's guard into the recipient's namespace,
    // using the variable values its benign run computed.
    let benign = recipient.record_with_input(scenario.benign_input);
    let analyzed = recipient.analyzed().expect("built from source");
    let fn_names: Vec<Option<String>> = analyzed
        .program
        .functions
        .iter()
        .map(|f| Some(f.name.clone()))
        .collect();
    let table = VarTable::from_observation(benign.var_values(), &analyzed.debug, &fn_names);
    let translation = Translator::default()
        .translate_all(&format.fold(&check.condition()), &table.candidates)
        .expect("corpus scenario translates")
        .first();
    for binding in &translation.bindings {
        println!(
            "  {} ({} bits) := {}   [{}]",
            binding.path, binding.width, binding.replacement, binding.source
        );
    }
    println!("translated condition: {}", translation.condition);
    println!(
        "stats: {} pairs, {} pruned by disjoint support, {} solver calls ({} proved)",
        translation.stats.pairs,
        translation.stats.pruned_disjoint,
        translation.stats.solver_calls,
        translation.stats.proved
    );
    println!(
        "error input flagged: {}, benign accepted: {}",
        eval(&translation.condition, scenario.error_input) != 0,
        eval(&translation.condition, scenario.benign_input) == 0
    );
    Ok(())
}
