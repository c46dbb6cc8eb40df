//! One scenario end to end: record the donor, discover its check, and
//! transfer it into the recipient as a *validated* source patch —
//! translate → insert → lower → recompile → revalidate.
//!
//! ```text
//! cargo run --example end_to_end
//! ```

use code_phage::{Session, TransferSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = cp_corpus::IMAGE_ALLOC;
    let format = scenario.format();

    // Donor analysis on the stripped binary: record the error input; the
    // donor's guard fires and it exits cleanly where the recipient faults.
    let donor = Session::builder()
        .source(scenario.donor_source)
        .stripped()
        .input(scenario.error_input)
        .record()?;
    println!("donor on error input  -> {:?}", donor.termination);

    // The unpatched recipient faults on the same input.
    let mut recipient = Session::builder().source(scenario.source).build()?;
    let crash = recipient.record_with_input(scenario.error_input);
    println!(
        "recipient             -> {}",
        crash
            .last_error()
            .map(|e| e.to_string())
            .unwrap_or_default()
    );

    // Offer the donor's checks in turn; the first validated patch wins.
    let spec = TransferSpec::new(scenario.error_input, scenario.benign_corpus)
        .with_action(scenario.patch_action);
    let outcome = recipient.transfer(&crash, donor.checks(), &format, spec)?;

    println!("\ninsertion point       -> {}", outcome.site);
    for binding in &outcome.bindings {
        println!(
            "binding               -> {} := var {}",
            binding.path, binding.var_name
        );
    }
    println!("patch                 -> {}", outcome.patch.render());
    println!("verdict               -> {}", outcome.report.verdict);
    let after = outcome.report.error_after.as_ref().expect("validated");
    println!("patched on error      -> {:?}", after.termination);
    println!(
        "benign corpus         -> {} inputs byte-identical",
        outcome.report.benign.len()
    );
    Ok(())
}
