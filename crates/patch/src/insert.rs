//! Insertion-point selection (paper Section 3.4).
//!
//! A patch must be inserted at a program point where every variable the
//! translated check references is in scope *and holds the value the solver
//! proved equivalent to the donor field*.  The recipient's instrumented run
//! supplies both ingredients: statement-boundary events enumerate the
//! candidate points in first-execution order, and its [`VarValueRecord`]s
//! say which variable held which symbolic value at which point.
//!
//! [`plan`] intersects the two: for each candidate site it tries to choose,
//! for every donor field, a proved binding whose variable is available at
//! that site — available meaning the *most recent* recorded value of that
//! variable at or before the site is the proved expression, so a later
//! reassignment invalidates earlier bindings.  Every complete choice becomes
//! a [`PlannedPatch`]; the validation engine then arbitrates among plans by
//! actually recompiling and running.
//!
//! Sites are ranked by how often the recorded run executed them: a guard at
//! a site executed once costs one check per run, while the same guard inside
//! a 10k-iteration parse loop costs 10k — so among viable sites the planner
//! prefers the site with the fewest visits, breaking ties by first-execution
//! order (the paper's earliest-dominating preference, which rejects the
//! input before the error can propagate).  A site's visit count is exactly
//! how many times a guard placed there would have run.

use cp_lang::{DebugInfo, Type};
use cp_solver::translate::{Candidate, MultiTranslation};
use cp_symexpr::{ExprRef, Width};
use cp_vm::StmtEndEvent;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One candidate insertion point: "after statement `stmt` of function
/// `function`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertionSite {
    /// Function index in the compiled recipient.
    pub function: usize,
    /// Function name (patches are source-level).
    pub function_name: String,
    /// Statement (program point) id the guard is inserted after.
    pub stmt: usize,
    /// Rank in first-execution order among the run's distinct sites.
    pub order: usize,
}

impl std::fmt::Display for InsertionSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.function_name, self.stmt)
    }
}

/// The variable chosen to carry one donor field at a site.
#[derive(Debug, Clone)]
pub struct ChosenBinding {
    /// The donor field's path.
    pub path: String,
    /// The chosen recipient variable.
    pub var_name: String,
    /// The variable's declared type.
    pub var_ty: Type,
    /// Which proved alternative was chosen (index into
    /// `MultiTranslation::fields[i].proved`).
    pub choice: usize,
}

/// A complete insertion plan: a site plus one chosen binding per field.
///
/// The per-field proved-alternative indices (for
/// [`MultiTranslation::condition_with`]) are `bindings[i].choice`.
#[derive(Debug, Clone)]
pub struct PlannedPatch {
    /// Where to insert.
    pub site: InsertionSite,
    /// Per-field variable choices, in the translation's field order.
    pub bindings: Vec<ChosenBinding>,
}

/// One variable observation that can host a candidate expression.
#[derive(Debug, Clone)]
pub struct VarSite {
    /// Function index of the observation.
    pub function: usize,
    /// Statement id at which the value was recorded.
    pub stmt: usize,
    /// Variable name.
    pub name: String,
    /// Declared type (from debug information).
    pub ty: Type,
}

/// A scalar variable's tainted value at a statement boundary: the
/// recipient-side namespace the paper's translation targets ("the debug
/// information gives the variables in scope", Section 3.3).
#[derive(Debug, Clone)]
pub struct VarValueRecord {
    /// Function index of the statement.
    pub function: usize,
    /// Invocation id of the executing frame — distinguishes the value
    /// timelines of separate calls (and lets consumers reason per call
    /// rather than conflating every execution of a statement site).
    pub invocation: u64,
    /// Statement (program point) id after which the value was observed.
    pub stmt: usize,
    /// Source-level variable name (from debug info).
    pub name: String,
    /// Width of the variable's scalar type.
    pub width: Width,
    /// Symbolic expression of the value the variable held.
    pub expr: ExprRef,
}

/// The recipient-side observations the planner consumes — borrowed slices of
/// what `cp_core::Trace` records.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// Statement boundaries in execution order.
    pub stmt_ends: &'a [StmtEndEvent],
    /// Tainted variable values at statement boundaries.
    pub var_values: &'a [VarValueRecord],
}

/// Translation material extracted from the observation: deduplicated
/// variable-value expressions (as solver [`Candidate`]s) plus, per
/// candidate, every variable observation holding that expression.
#[derive(Debug, Default)]
pub struct VarTable {
    /// One candidate per distinct recorded expression.
    pub candidates: Vec<Candidate>,
    /// `hosts[i]` lists the variable observations whose value is
    /// `candidates[i].expr`.
    pub hosts: Vec<Vec<VarSite>>,
    /// Per (function, variable) value history in observation order, for the
    /// availability check.
    history: HashMap<(usize, String), Vec<HistoryEntry>>,
}

/// One recorded value of a variable: which invocation observed it, at which
/// statement, and what it was.
#[derive(Debug, Clone, Copy)]
struct HistoryEntry {
    invocation: u64,
    stmt: usize,
    expr: ExprRef,
}

impl VarTable {
    /// Builds the table from recorded variable values; `fn_names[i]` is the
    /// name of compiled function `i` and `debug` supplies declared types.
    ///
    /// Observations whose function or variable lacks debug information are
    /// skipped (they could not be referenced from a source patch anyway).
    pub fn from_observation(
        var_values: &[VarValueRecord],
        debug: &DebugInfo,
        fn_names: &[Option<String>],
    ) -> VarTable {
        let mut table = VarTable::default();
        let mut by_expr: HashMap<ExprRef, usize> = HashMap::new();
        for record in var_values {
            let Some(Some(fn_name)) = fn_names.get(record.function) else {
                continue;
            };
            let Some(var) = debug
                .functions
                .get(fn_name)
                .and_then(|f| f.var(&record.name))
            else {
                continue;
            };
            let site = VarSite {
                function: record.function,
                stmt: record.stmt,
                name: record.name.clone(),
                ty: var.ty.clone(),
            };
            let index = *by_expr.entry(record.expr).or_insert_with(|| {
                table
                    .candidates
                    .push(Candidate::new(format!("var {}", record.name), record.expr));
                table.hosts.push(Vec::new());
                table.candidates.len() - 1
            });
            table.hosts[index].push(site);
            table
                .history
                .entry((record.function, record.name.clone()))
                .or_default()
                .push(HistoryEntry {
                    invocation: record.invocation,
                    stmt: record.stmt,
                    expr: record.expr,
                });
        }
        table
    }

    /// Whether variable `name` of function `function` holds `expr` at the
    /// point just after statement `stmt` — in **every** observed execution
    /// reaching that point, since the inserted guard runs on all of them.
    ///
    /// Timelines are kept per invocation (two calls of the same function
    /// must not shadow each other's values): within each invocation, the
    /// latest recorded value at or before `stmt` must be `expr`, and at
    /// least one invocation must positively record it.  Multiple differing
    /// values recorded at the same latest statement (a loop-carried
    /// reassignment at one site) count as a contradiction — conservative;
    /// behavioral validation is the final arbiter anyway.
    fn available(&self, function: usize, name: &str, expr: ExprRef, stmt: usize) -> bool {
        let Some(entries) = self.history.get(&(function, name.to_string())) else {
            return false;
        };
        let mut latest_per_invocation: HashMap<u64, usize> = HashMap::new();
        for entry in entries.iter() {
            if entry.stmt <= stmt {
                let latest = latest_per_invocation
                    .entry(entry.invocation)
                    .or_insert(entry.stmt);
                *latest = (*latest).max(entry.stmt);
            }
        }
        if latest_per_invocation.is_empty() {
            return false;
        }
        entries.iter().all(|entry| {
            latest_per_invocation
                .get(&entry.invocation)
                .is_none_or(|&latest| entry.stmt != latest || entry.expr == expr)
        })
    }
}

/// Enumerates the run's distinct insertion sites in first-execution order,
/// each with the number of times the run executed it.
fn enumerate_sites(
    obs: &Observation<'_>,
    fn_names: &[Option<String>],
) -> Vec<(InsertionSite, u64)> {
    let mut index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut sites: Vec<(InsertionSite, u64)> = Vec::new();
    for event in obs.stmt_ends {
        let Some(Some(name)) = fn_names.get(event.function) else {
            continue;
        };
        match index.entry((event.function, event.stmt)) {
            Entry::Occupied(seen) => sites[*seen.get()].1 += 1,
            Entry::Vacant(slot) => {
                slot.insert(sites.len());
                let site = InsertionSite {
                    function: event.function,
                    function_name: name.clone(),
                    stmt: event.stmt,
                    order: sites.len(),
                };
                sites.push((site, 1));
            }
        }
    }
    sites
}

/// Produces insertion plans, best first.
///
/// A site is viable when every donor field has at least one proved binding
/// whose variable is available there; among a field's viable bindings the
/// first (smallest replacement, by the translator's ordering) is chosen.
/// Sites are ranked by visit count (fewest first), ties broken by
/// first-execution order — the earliest dominating site, which rejects the
/// input before the error propagates.  At most `max_plans` plans are
/// returned.
pub fn plan(
    translation: &MultiTranslation,
    table: &VarTable,
    obs: &Observation<'_>,
    fn_names: &[Option<String>],
    max_plans: usize,
) -> Vec<PlannedPatch> {
    let mut sites = enumerate_sites(obs, fn_names);
    sites.sort_by_key(|(site, visits)| (*visits, site.order));
    let mut plans = Vec::new();
    for (site, _) in sites {
        let mut bindings = Vec::with_capacity(translation.fields.len());
        for field in &translation.fields {
            let found = field.proved.iter().enumerate().find_map(|(bi, binding)| {
                table.hosts[binding.candidate]
                    .iter()
                    .find(|host| {
                        host.function == site.function
                            && host.stmt <= site.stmt
                            && table.available(
                                host.function,
                                &host.name,
                                table.candidates[binding.candidate].expr,
                                site.stmt,
                            )
                    })
                    .map(|host| (bi, host))
            });
            let Some((bi, host)) = found else {
                bindings.clear();
                break;
            };
            bindings.push(ChosenBinding {
                path: field.path.clone(),
                var_name: host.name.clone(),
                var_ty: host.ty.clone(),
                choice: bi,
            });
        }
        if bindings.len() == translation.fields.len() {
            plans.push(PlannedPatch { site, bindings });
            if plans.len() >= max_plans {
                break;
            }
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_solver::translate::Translator;
    use cp_symexpr::{BinOp, ExprBuild, SymExpr, Width};

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    fn debug_with_vars(vars: &[(&str, Type)]) -> DebugInfo {
        let mut debug = DebugInfo::default();
        debug.functions.insert(
            "main".into(),
            cp_lang::FunctionDebug {
                name: "main".into(),
                frame_size: 8 * vars.len(),
                vars: vars
                    .iter()
                    .enumerate()
                    .map(|(i, (name, ty))| cp_lang::VarDebug {
                        name: name.to_string(),
                        ty: ty.clone(),
                        frame_offset: 8 * i,
                        decl_stmt: Some(i),
                    })
                    .collect(),
                num_params: 0,
                num_statements: vars.len() + 1,
            },
        );
        debug
    }

    fn record(stmt: usize, name: &str, expr: ExprRef) -> VarValueRecord {
        record_in(0, stmt, name, expr)
    }

    fn record_in(invocation: u64, stmt: usize, name: &str, expr: ExprRef) -> VarValueRecord {
        VarValueRecord {
            function: 0,
            invocation,
            stmt,
            name: name.into(),
            width: expr.width(),
            expr,
        }
    }

    fn stmt_end(stmt: usize) -> StmtEndEvent {
        StmtEndEvent {
            function: 0,
            invocation: 0,
            stmt,
        }
    }

    /// Translates `/hdr/w <= 5`, whose field is input bytes 0..1, against
    /// the table's candidates.
    fn single_field_translation(table: &VarTable) -> MultiTranslation {
        let f = SymExpr::field("/hdr/w", Width::W16, vec![0, 1]);
        let cond = f.binop(BinOp::LeU, SymExpr::constant(Width::W16, 5));
        Translator::default()
            .translate_all(&cond, &table.candidates)
            .expect("translates")
    }

    #[test]
    fn plans_the_earliest_site_where_all_fields_are_available() {
        let w = be16(0, 1);
        let h = be16(2, 3);
        let debug = debug_with_vars(&[("w", Type::U16), ("h", Type::U16)]);
        let fn_names = vec![Some("main".to_string())];
        let values = vec![record(0, "w", w), record(1, "h", h)];
        let ends = vec![stmt_end(0), stmt_end(1), stmt_end(2)];
        let obs = Observation {
            stmt_ends: &ends,
            var_values: &values,
        };
        let table = VarTable::from_observation(&values, &debug, &fn_names);

        let wf = SymExpr::field("/hdr/w", Width::W16, vec![0, 1]);
        let hf = SymExpr::field("/hdr/h", Width::W16, vec![2, 3]);
        let cond = wf
            .zext(Width::W32)
            .binop(BinOp::Mul, hf.zext(Width::W32))
            .binop(BinOp::LeU, SymExpr::constant(Width::W32, 100));
        let translation = Translator::default()
            .translate_all(&cond, &table.candidates)
            .expect("translates");

        let plans = plan(&translation, &table, &obs, &fn_names, 8);
        assert!(!plans.is_empty());
        // Site 0 has only `w`; the earliest complete site is after stmt 1.
        assert_eq!(plans[0].site.stmt, 1);
        assert_eq!(plans[0].bindings.len(), 2);
        assert_eq!(plans[0].bindings[0].var_name, "w");
        assert_eq!(plans[0].bindings[1].var_name, "h");
        // The later site is also planned, ranked after.
        assert!(plans.iter().any(|p| p.site.stmt == 2));
    }

    #[test]
    fn reassigned_variables_shadow_their_earlier_values() {
        let first = be16(0, 1);
        let second = be16(2, 3);
        let debug = debug_with_vars(&[("v", Type::U16)]);
        let fn_names = vec![Some("main".to_string())];
        // `v` holds bytes 0..1 at stmt 0, then is overwritten at stmt 1.
        let values = vec![record(0, "v", first), record(1, "v", second)];
        let ends = vec![stmt_end(0), stmt_end(1), stmt_end(2)];
        let obs = Observation {
            stmt_ends: &ends,
            var_values: &values,
        };
        let table = VarTable::from_observation(&values, &debug, &fn_names);
        let translation = single_field_translation(&table);
        let plans = plan(&translation, &table, &obs, &fn_names, 8);
        // Only the site where `v` still holds the proved value is viable.
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].site.stmt, 0);
    }

    #[test]
    fn other_invocations_holding_other_values_block_availability() {
        // The same function runs twice; `v` holds the proved value at stmt 0
        // only in the first invocation.  The guard would execute in *both*
        // invocations, so the site must not be considered viable.
        let proved = be16(0, 1);
        let other = be16(2, 3);
        let debug = debug_with_vars(&[("v", Type::U16)]);
        let fn_names = vec![Some("main".to_string())];
        let values = vec![record_in(1, 0, "v", proved), record_in(2, 0, "v", other)];
        let ends = vec![stmt_end(0)];
        let obs = Observation {
            stmt_ends: &ends,
            var_values: &values,
        };
        let table = VarTable::from_observation(&values, &debug, &fn_names);
        let translation = single_field_translation(&table);
        assert!(plan(&translation, &table, &obs, &fn_names, 8).is_empty());

        // With a consistent second invocation the site is viable again.
        let consistent = vec![record_in(1, 0, "v", proved), record_in(2, 1, "v", other)];
        let table = VarTable::from_observation(&consistent, &debug, &fn_names);
        let obs = Observation {
            stmt_ends: &ends,
            var_values: &consistent,
        };
        let translation = single_field_translation(&table);
        assert_eq!(plan(&translation, &table, &obs, &fn_names, 8).len(), 1);
    }

    #[test]
    fn profile_ranks_cold_sites_before_hot_ones() {
        // One variable, viable at two sites: stmt 0 runs ten times (a loop),
        // stmt 1 once.  The planner puts the cold site first, although the
        // hot one executed earlier.
        let debug = debug_with_vars(&[("v", Type::U16)]);
        let fn_names = vec![Some("main".to_string())];
        let values = vec![record(0, "v", be16(0, 1))];
        let mut ends = vec![stmt_end(0); 10];
        ends.push(stmt_end(1));
        let obs = Observation {
            stmt_ends: &ends,
            var_values: &values,
        };
        let table = VarTable::from_observation(&values, &debug, &fn_names);
        let plans = plan(
            &single_field_translation(&table),
            &table,
            &obs,
            &fn_names,
            8,
        );
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].site.stmt, 1, "cold site ranks first");
        assert_eq!(plans[1].site.stmt, 0);
    }

    #[test]
    fn a_run_stopped_inside_a_loop_body_ranks_the_later_statement_colder() {
        // The loop body is stmt 0 then stmt 1, and the run trapped after the
        // third pass through stmt 0: a guard after stmt 1 would have run
        // twice, one after stmt 0 three times.  Counting visits per statement
        // ranks stmt 1 first even though both share one block.
        let debug = debug_with_vars(&[("v", Type::U16)]);
        let fn_names = vec![Some("main".to_string())];
        let values = vec![record(0, "v", be16(0, 1))];
        let ends = vec![
            stmt_end(0),
            stmt_end(1),
            stmt_end(0),
            stmt_end(1),
            stmt_end(0),
        ];
        let obs = Observation {
            stmt_ends: &ends,
            var_values: &values,
        };
        let table = VarTable::from_observation(&values, &debug, &fn_names);
        let plans = plan(
            &single_field_translation(&table),
            &table,
            &obs,
            &fn_names,
            8,
        );
        let ranked: Vec<usize> = plans.iter().map(|p| p.site.stmt).collect();
        assert_eq!(ranked, vec![1, 0]);
    }

    #[test]
    fn multiple_proved_bindings_are_scored_by_availability() {
        // Two variables provably equal to the field; only the second is
        // still live at the later sites.
        let value = be16(0, 1);
        let debug = debug_with_vars(&[("a", Type::U16), ("b", Type::U16)]);
        let fn_names = vec![Some("main".to_string())];
        let other = be16(4, 5);
        let values = vec![
            record(0, "a", value),
            record(1, "b", value),
            // `a` gets clobbered after stmt 1.
            record(2, "a", other),
        ];
        let ends = vec![stmt_end(0), stmt_end(1), stmt_end(2), stmt_end(3)];
        let obs = Observation {
            stmt_ends: &ends,
            var_values: &values,
        };
        let table = VarTable::from_observation(&values, &debug, &fn_names);
        let translation = single_field_translation(&table);
        let plans = plan(&translation, &table, &obs, &fn_names, 8);
        // Earliest plan uses `a` right away…
        assert_eq!(plans[0].site.stmt, 0);
        assert_eq!(plans[0].bindings[0].var_name, "a");
        // …and at the site after the clobber, the planner switches to `b`.
        let late = plans
            .iter()
            .find(|p| p.site.stmt >= 2)
            .expect("late site is still viable through `b`");
        assert_eq!(late.bindings[0].var_name, "b");
    }
}
