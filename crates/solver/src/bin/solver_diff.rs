//! Differential smoke runner: cross-checks the decision procedure's
//! equivalence verdicts against an independent sampler on seeded random
//! expression pairs and exits non-zero on any disagreement.  CI invokes this
//! with a fixed seed; developers can sweep seeds locally:
//!
//! ```text
//! cargo run --release -p cp-solver --bin solver-diff -- --pairs 10000 --seed 48879
//! ```
//!
//! Every pair's miter runs on a shared `cp_solver::incremental::SatSession`,
//! the one solver ladder, so verdicts produced against reused
//! AIG/CNF/learned-clause state are audited.

use cp_solver::differential::cross_check;

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

    let report = cross_check(seed, pairs);
    println!("solver-diff seed={seed} {}", report.summary());
    if !report.is_clean() {
        for d in &report.disagreements {
            eprintln!("DISAGREEMENT: {d}");
        }
        std::process::exit(1);
    }
}
