//! The Figure 8 table, pinned.
//!
//! The default `figure8` table carries no runtime columns, so a sequential
//! sweep renders the same text on every run.  These tests compare it with
//! the committed tables under `tests/golden/`: a change that moves a
//! discovered input, a check size, an insertion site, a patch or a `tries`
//! count fails here instead of waiting for someone to compare `fig8` output
//! by eye.  When a change moves a row on purpose, regenerate the file and
//! say why in the change.

use cp_corpus::pipeline::{figure8, run_scenarios, SweepOptions};
use cp_corpus::synthetic::synthetic_scenarios;
use cp_corpus::Scenario;

fn table(scenarios: &[Scenario]) -> String {
    figure8(&run_scenarios(scenarios, SweepOptions::sequential()))
}

#[test]
fn the_corpus_table_is_unchanged() {
    assert_eq!(
        table(&cp_corpus::scenarios()),
        include_str!("golden/figure8_corpus.txt")
    );
}

#[test]
fn the_synthetic_table_is_unchanged() {
    assert_eq!(
        table(&synthetic_scenarios(20)),
        include_str!("golden/figure8_synthetic.txt")
    );
}
