//! Measures donor→recipient check translation: candidate pruning rate
//! (pairs the disjoint-support bitsets reject before any solver call) and
//! the latency of the solver stages behind it.
//!
//! Each corpus scenario's first tainted donor check is translated over the
//! variable values of the recipient's error-input recording, through
//! `VarTable::from_observation` and `Translator::translate_all` — the path
//! `cp_patch::transfer` runs; the timed call is `translate_all`.

use cp_bench::harness::{bench, emit_with, quick_mode, section};
use cp_core::Session;
use cp_patch::VarTable;
use cp_solver::incremental::SatSession;
use cp_solver::translate::Translator;
use cp_solver::{reset_solver_memo, Equivalence, Solver};
use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, Width};

fn main() {
    section("translation (donor checks into recipient namespaces)");

    // Record every scenario's donor (stripped) and recipient on the error
    // input once, and fold the donor check; translation is the measured
    // stage.
    let mut workloads = Vec::new();
    for scenario in cp_corpus::scenarios() {
        let donor = Session::builder()
            .source(scenario.donor_source)
            .stripped()
            .input(scenario.error_input)
            .record()
            .expect("donor compiles");
        let check = donor
            .checks()
            .iter()
            .find(|c| !c.support().is_empty())
            .expect("donor has a tainted check");
        let folded = scenario.format().fold(&check.condition());
        let mut recipient = Session::builder()
            .source(scenario.source)
            .build()
            .expect("recipient compiles");
        let trace = recipient.record_with_input(scenario.error_input);
        let analyzed = recipient.analyzed().expect("built from source");
        let fn_names: Vec<Option<String>> = analyzed
            .program
            .functions
            .iter()
            .map(|f| Some(f.name.clone()))
            .collect();
        let table = VarTable::from_observation(trace.var_values(), &analyzed.debug, &fn_names);
        workloads.push((scenario, folded, table));
    }

    let translator = Translator::default();
    let mut measurements = Vec::new();
    let mut pairs = 0u64;
    let mut pruned = 0u64;
    let mut solver_calls = 0u64;
    let mut proved = 0u64;
    for (scenario, folded, table) in &workloads {
        let translation = translator
            .translate_all(folded, &table.candidates)
            .expect("corpus checks translate");
        pairs += translation.stats.pairs as u64;
        pruned += translation.stats.pruned_disjoint as u64;
        solver_calls += translation.stats.solver_calls as u64;
        proved += translation.stats.proved as u64;
        println!(
            "{:<24} fields {} pairs {:>3} pruned {:>3} solver {:>2} proved {:>2}",
            scenario.name,
            translation.stats.fields,
            translation.stats.pairs,
            translation.stats.pruned_disjoint,
            translation.stats.solver_calls,
            translation.stats.proved,
        );
        let m = bench(&format!("translate/{}", scenario.name), 5, 60, || {
            translator
                .translate_all(folded, &table.candidates)
                .expect("corpus checks translate")
                .fields
                .len()
        });
        println!("{}", m.report());
        measurements.push(m);
    }
    println!(
        "pruning: {pruned}/{pairs} pairs rejected by disjoint support, {solver_calls} solver calls ({proved} proved)"
    );

    // Isolated solver latency: a proof the strashed miter closes instantly,
    // a proof that needs real SAT search, and a sampling refutation.
    section("solver latency");
    let be16 = |hi: usize, lo: usize| {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    };
    let solver = Solver::default();

    let field = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
    let raw = be16(0, 1);
    let structural = bench("solver/prove-field-vs-bytes", 10, 200, || {
        assert!(solver.equivalent(&field, &raw).is_proved());
    });
    println!("{}", structural.report());

    let x = SymExpr::input_byte(2).zext(Width::W16);
    let y = SymExpr::input_byte(3).zext(Width::W16);
    let z = SymExpr::input_byte(4).zext(Width::W16);
    let assoc_l = x.binop(BinOp::Add, y).binop(BinOp::Add, z);
    let assoc_r = x.binop(BinOp::Add, y.binop(BinOp::Add, z));
    let sat_proof = bench("solver/prove-reassociated-add", 5, 60, || {
        assert!(solver.equivalent(&assoc_l, &assoc_r).is_proved());
    });
    println!("{}", sat_proof.report());

    let refuted = bench("solver/refute-disjoint-bytes", 10, 200, || {
        assert!(matches!(
            solver.equivalent(&be16(0, 1), &be16(2, 3)),
            Equivalence::Refuted { .. }
        ));
    });
    println!("{}", refuted.report());

    measurements.extend([structural, sat_proof, refuted]);

    // The translate shape at solver granularity: one big recipient cone, a
    // queue of candidate spellings that are all provably equal to it.  The
    // from-scratch path re-blasts the shared cone for every candidate; the
    // incremental session blasts it once (structural hashing makes repeat
    // cones free) and decides each miter against the same context.  The
    // verdict memo is reset inside both closures so every iteration measures
    // solving, not memo hits (this is a standalone bench process — nothing
    // else observes the memo).
    section("incremental session (multi-candidate miter queue)");
    let byte64 = |i: usize| SymExpr::input_byte(i).zext(Width::W64);
    let mut mix = SymExpr::constant(Width::W64, 0x9E37_79B9_7F4A_7C15);
    for i in 0..6 {
        let scattered = mix.binop(BinOp::Shl, SymExpr::constant(Width::W64, 13));
        let folded = mix.binop(BinOp::ShrU, SymExpr::constant(Width::W64, 7));
        mix = mix
            .binop(BinOp::Add, scattered)
            .binop(BinOp::Xor, folded.binop(BinOp::Add, byte64(i)));
    }
    let a = byte64(1);
    let b = byte64(4);
    let recipient = mix.binop(BinOp::Add, a).binop(BinOp::Add, b);
    // Commuted and re-associated spellings of `mix + a + b`: distinct
    // expression trees (so no stage short-circuits on handle equality), all
    // sharing the mixing cone.
    let candidates: Vec<ExprRef> = vec![
        a.binop(BinOp::Add, mix).binop(BinOp::Add, b),
        b.binop(BinOp::Add, mix.binop(BinOp::Add, a)),
        mix.binop(BinOp::Add, a.binop(BinOp::Add, b)),
        a.binop(BinOp::Add, b).binop(BinOp::Add, mix),
        mix.binop(BinOp::Add, b).binop(BinOp::Add, a),
        a.binop(BinOp::Add, mix.binop(BinOp::Add, b)),
        b.binop(BinOp::Add, a).binop(BinOp::Add, mix),
        b.binop(BinOp::Add, a.binop(BinOp::Add, mix)),
    ];

    let scratch = bench("translate/multi-candidate-scratch", 2, 15, || {
        reset_solver_memo();
        let solver = Solver::default();
        candidates
            .iter()
            .filter(|c| solver.equivalent(&recipient, c).is_proved())
            .count()
    });
    println!("{}", scratch.report());

    let queries_before = cp_obs::metrics::counter("solver.incremental.queries").get();
    let reuse_before = cp_obs::metrics::counter("solver.incremental.reuse").get();
    let incremental = bench("translate/multi-candidate-incremental", 2, 15, || {
        reset_solver_memo();
        let mut session = SatSession::new(Solver::default());
        candidates
            .iter()
            .filter(|c| session.equivalent(&recipient, c).is_proved())
            .count()
    });
    println!("{}", incremental.report());
    let inc_queries = cp_obs::metrics::counter("solver.incremental.queries").get() - queries_before;
    let inc_reuse = cp_obs::metrics::counter("solver.incremental.reuse").get() - reuse_before;
    let reuse_rate = if inc_queries == 0 {
        0.0
    } else {
        inc_reuse as f64 / inc_queries as f64
    };
    println!(
        "incremental reuse: {inc_reuse}/{inc_queries} queries ran against pre-built state ({reuse_rate:.3})"
    );
    if !quick_mode() {
        // The acceptance bar for the incremental solver core: reusing the
        // recipient cone must beat re-blasting it per candidate by >= 20%.
        assert!(
            incremental.median_ns <= scratch.median_ns * 0.8,
            "incremental session slower than required: {:.0} ns vs scratch {:.0} ns",
            incremental.median_ns,
            scratch.median_ns,
        );
    }
    measurements.push(scratch.clone());
    measurements.push(incremental.clone());

    let rate = if pairs == 0 {
        0.0
    } else {
        pruned as f64 / pairs as f64
    };
    emit_with(
        "translate",
        &measurements,
        &[
            ("pairs", pairs as f64),
            ("pruned_disjoint", pruned as f64),
            ("solver_calls", solver_calls as f64),
            ("proved", proved as f64),
            ("pruning_rate", rate),
            ("translate_solver_p50", incremental.median_ns),
            ("translate_scratch_p50", scratch.median_ns),
            ("incremental_reuse_rate", reuse_rate),
        ],
    );
}
