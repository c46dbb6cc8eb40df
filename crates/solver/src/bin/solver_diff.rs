//! Differential smoke runner: cross-checks the decision procedure's
//! equivalence verdicts on seeded random expression pairs, then as many
//! seeded satisfiability queries, against an independent sampler, then the
//! lane kernel that sampler runs on against `cp_symexpr::eval::eval` on as
//! many random expressions, and exits non-zero on any disagreement.  CI
//! invokes this with a fixed seed; developers can sweep seeds locally:
//!
//! ```text
//! cargo run --release -p cp-solver --bin solver-diff -- --pairs 10000 --seed 48879
//! ```
//!
//! Every query runs on a shared `cp_solver::incremental::SatSession`, the
//! one solver ladder, so verdicts produced against reused
//! AIG/CNF/learned-clause state are audited.  The satisfiability line also
//! counts the queries the ladder's bounds rung answered.

use cp_solver::differential::{cross_check, cross_check_lanes, cross_check_sat};

fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("solver-diff: invalid value `{v}` for {flag}");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_flag(&args, "--seed", 0xBEEF);
    let pairs = parse_flag(&args, "--pairs", 10_000);

    let pairs_report = cross_check(seed, pairs);
    println!("solver-diff seed={seed} {}", pairs_report.summary());
    let witnesses = cp_obs::metrics::counter("solver.bounds.witnesses");
    let before = witnesses.get();
    let sat_report = cross_check_sat(seed, pairs);
    println!(
        "solver-diff seed={seed} {}, {} bounds witnesses",
        sat_report.summary(),
        witnesses.get() - before
    );
    let lanes_report = cross_check_lanes(seed, pairs);
    println!("solver-diff seed={seed} {}", lanes_report.summary());
    let disagreements: Vec<&String> = pairs_report
        .disagreements
        .iter()
        .chain(&sat_report.disagreements)
        .chain(&lanes_report.mismatches)
        .collect();
    if !disagreements.is_empty() {
        for d in disagreements {
            eprintln!("DISAGREEMENT: {d}");
        }
        std::process::exit(1);
    }
}
