//! # cp-taint
//!
//! Higher-level taint analyses built on the `cp-vm` [`Observer`] surface.
//!
//! The paper's donor analysis (Section 3.2) is an instrumentation pass that
//! watches an execution and records, in application-independent form, the
//! conditional branches the input influenced, which statements completed
//! (candidate insertion points) and which allocations were performed.
//! [`TraceRecorder`] is that pass: an observer that turns the VM's event
//! stream into owned records which `cp-core` packages into its `Trace`
//! value.  Its branch and allocation records keep the run's tape entries, so
//! recording interns nothing; whoever owns the tape resolves an entry when it
//! reads one.  [`ScopeRecorder`] adds the recipient side: the tainted values
//! of the variables in scope at each statement boundary, which it interns at
//! once, so that it can deduplicate them by node.

use cp_lang::{FunctionDebug, Type};
use cp_symexpr::{ExprRef, TapeRef, Width};
use cp_vm::{BranchEvent, MachineState, Observer, StmtEndEvent, Value};
use std::collections::{HashMap, HashSet};

/// An owned record of one executed conditional branch.
#[derive(Debug, Clone)]
pub struct BranchRecord {
    /// Function index of the branch instruction.
    pub function: usize,
    /// Instruction index of the branch instruction.
    pub pc: usize,
    /// Invocation id of the executing frame.
    pub invocation: u64,
    /// Whether the branch was taken (condition was zero and control jumped).
    pub taken: bool,
    /// Concrete condition value.
    pub condition_value: u64,
    /// Width of the condition value.
    pub condition_width: Width,
    /// Tape entry of the symbolic condition, when it depends on input bytes.
    pub expr: Option<TapeRef>,
}

impl BranchRecord {
    /// Whether the condition depends on any input byte.
    pub fn is_tainted(&self) -> bool {
        self.expr.is_some()
    }
}

/// An owned record of one heap allocation.
#[derive(Debug, Clone)]
pub struct AllocRecord {
    /// Base address of the allocation.
    pub base: u64,
    /// Requested size in bytes.
    pub size: u64,
    /// Tape entry of the symbolic size, when it depends on input bytes.
    pub size_expr: Option<TapeRef>,
    /// Number of conditional branches observed before this allocation —
    /// the prefix of the branch list that is the path to this site, which
    /// goal-directed discovery conjoins with the overflow goal.
    pub branches_before: usize,
}

impl AllocRecord {
    /// Whether the allocation size depends on input bytes — the sites the
    /// DIODE analysis targets.
    pub fn is_tainted(&self) -> bool {
        self.size_expr.is_some()
    }
}

/// An observer that records the full event stream of an instrumented run.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    /// Conditional branches in execution order.
    pub branches: Vec<BranchRecord>,
    /// Statement boundaries in execution order.
    pub stmt_ends: Vec<StmtEndEvent>,
    /// Heap allocations in execution order.
    pub allocs: Vec<AllocRecord>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for TraceRecorder {
    fn on_branch(&mut self, event: &BranchEvent, _state: &MachineState) {
        self.branches.push(BranchRecord {
            function: event.function,
            pc: event.pc,
            invocation: event.invocation,
            taken: event.taken,
            condition_value: event.condition.raw,
            condition_width: event.condition.width,
            expr: event.expr,
        });
    }

    fn on_stmt_end(&mut self, event: &StmtEndEvent, _state: &MachineState) {
        self.stmt_ends.push(*event);
    }

    fn on_alloc(
        &mut self,
        base: u64,
        size: &Value,
        size_expr: Option<TapeRef>,
        _state: &MachineState,
    ) {
        self.allocs.push(AllocRecord {
            base,
            size: size.raw,
            size_expr,
            branches_before: self.branches.len(),
        });
    }
}

/// An owned record of a scalar variable's tainted value at a statement
/// boundary: the recipient-side namespace the paper's translation targets
/// ("the debug information gives the variables in scope", Section 3.3).
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

/// An observer that records, at every statement boundary, the symbolic
/// shadows of the scalar variables in scope.
///
/// Driven by debug information (so it naturally records nothing for stripped
/// donors): for each statement-end event it walks the executing function's
/// variables declared at or before that statement, loads their shadow from
/// the frame — interned at once, through the run's tape — and keeps every
/// tainted value it has not seen at that site before.  Distinct values of
/// the same variable (loop-carried updates) are all recorded; identical
/// re-observations are deduplicated through the arena's pointer equality,
/// so tight loops cost one hash probe per variable per statement, for the
/// first [`MAX_VISITS_PER_STMT`](Self::MAX_VISITS_PER_STMT) executions of
/// each statement.
#[derive(Debug, Default)]
pub struct ScopeRecorder {
    /// Debug records by function index (`None` where debug info is absent).
    functions: Vec<Option<FunctionDebug>>,
    /// Recorded variable values in observation order.
    pub var_values: Vec<VarValueRecord>,
    /// Deduplication: (function, frame offset, value expression).
    seen: HashSet<(usize, usize, ExprRef)>,
    /// Executions observed per statement site, to apply
    /// [`MAX_VISITS_PER_STMT`](Self::MAX_VISITS_PER_STMT).
    visits: HashMap<(usize, usize), u32>,
}

impl ScopeRecorder {
    /// Scope capture stops after this many executions of the same statement
    /// site.  Parse-stage variable values — the material translation binds
    /// fields to — appear in a statement's first executions; without the cap
    /// a hot loop would pay a shadow reconstruction per in-scope variable on
    /// every iteration (measured at +58% on the 10k-branch recording bench),
    /// for loop-carried values of rapidly diminishing relevance.
    pub const MAX_VISITS_PER_STMT: u32 = 4;

    /// Creates a recorder from per-function-index debug records.
    pub fn new(functions: Vec<Option<FunctionDebug>>) -> Self {
        ScopeRecorder {
            functions,
            ..Self::default()
        }
    }

    /// The width of a scalar type; `None` for pointers and structs (whose
    /// values are addresses or aggregates, not translation material).
    fn scalar_width(ty: &Type) -> Option<Width> {
        match ty {
            Type::U8 | Type::I8 => Some(Width::W8),
            Type::U16 | Type::I16 => Some(Width::W16),
            Type::U32 | Type::I32 => Some(Width::W32),
            Type::U64 | Type::I64 => Some(Width::W64),
            Type::Ptr(_) | Type::Struct(_) => None,
        }
    }
}

impl Observer for ScopeRecorder {
    fn on_stmt_end(&mut self, event: &StmtEndEvent, state: &MachineState) {
        let Some(Some(debug)) = self.functions.get(event.function) else {
            return;
        };
        let visits = self.visits.entry((event.function, event.stmt)).or_insert(0);
        if *visits >= Self::MAX_VISITS_PER_STMT {
            return;
        }
        *visits += 1;
        let frame = state.current_frame();
        for var in debug.vars_in_scope_after(event.stmt) {
            let Some(width) = Self::scalar_width(&var.ty) else {
                continue;
            };
            let addr = frame.frame_base + var.frame_offset as u64;
            let Some(expr) = state.load_shadow(addr, width) else {
                continue;
            };
            if !expr.is_tainted() {
                continue;
            }
            if self.seen.insert((event.function, var.frame_offset, expr)) {
                self.var_values.push(VarValueRecord {
                    function: event.function,
                    invocation: event.invocation,
                    stmt: event.stmt,
                    name: var.name.clone(),
                    width,
                    expr,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_bytecode::compile;
    use cp_lang::frontend;
    use cp_symexpr::Tape;
    use cp_vm::{run_with_observer, RunConfig};

    fn record(source: &str, input: &[u8]) -> (TraceRecorder, Tape) {
        let program = compile(&frontend(source).unwrap()).unwrap();
        let mut recorder = TraceRecorder::new();
        let (_, tape) = run_with_observer(&program, input, &RunConfig::default(), &mut recorder);
        (recorder, tape)
    }

    /// Whether `branch`'s condition depends on at least one of `offsets`.
    fn influenced_by(tape: &Tape, branch: &BranchRecord, offsets: &[usize]) -> bool {
        branch
            .expr
            .is_some_and(|e| tape.resolve(e).support().contains_any(offsets))
    }

    #[test]
    fn records_tainted_branches_and_statement_boundaries() {
        let (recorder, tape) = record(
            r#"
            fn main() -> u32 {
                var b: u32 = input_byte(0) as u32;
                if (b < 10) { return 1; }
                return 0;
            }
            "#,
            &[5],
        );
        assert_eq!(recorder.branches.len(), 1);
        assert!(recorder.branches[0].is_tainted());
        assert!(influenced_by(&tape, &recorder.branches[0], &[0]));
        assert!(!recorder.stmt_ends.is_empty());
    }

    #[test]
    fn influenced_by_filters_on_support() {
        let (recorder, tape) = record(
            r#"
            fn main() -> u32 {
                var a: u32 = input_byte(0) as u32;
                var b: u32 = input_byte(5) as u32;
                if (a < 10) { output(1); }
                if (b < 10) { output(2); }
                return 0;
            }
            "#,
            &[1, 0, 0, 0, 0, 2],
        );
        let on_zero: Vec<_> = recorder
            .branches
            .iter()
            .filter(|b| influenced_by(&tape, b, &[0]))
            .collect();
        assert_eq!(on_zero.len(), 1);
        let on_five: Vec<_> = recorder
            .branches
            .iter()
            .filter(|b| influenced_by(&tape, b, &[5]))
            .collect();
        assert_eq!(on_five.len(), 1);
        assert_ne!(on_zero[0].pc, on_five[0].pc);
    }

    #[test]
    fn scope_recorder_captures_tainted_variable_values() {
        let program = compile(
            &frontend(
                r#"
                fn main() -> u32 {
                    var w: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
                    var untainted: u32 = 7;
                    var wider: u64 = w as u64;
                    return 0;
                }
                "#,
            )
            .unwrap(),
        )
        .unwrap();
        let debug = program.debug.clone().expect("unstripped");
        let functions = program
            .functions
            .iter()
            .map(|f| {
                f.name
                    .as_deref()
                    .and_then(|name| debug.functions.get(name).cloned())
            })
            .collect();
        let mut scopes = ScopeRecorder::new(functions);
        run_with_observer(&program, &[0x12, 0x34], &RunConfig::default(), &mut scopes);
        let names: Vec<&str> = scopes.var_values.iter().map(|v| v.name.as_str()).collect();
        assert!(names.contains(&"w"), "recorded: {names:?}");
        assert!(names.contains(&"wider"), "recorded: {names:?}");
        assert!(!names.contains(&"untainted"), "recorded: {names:?}");
        let w = scopes.var_values.iter().find(|v| v.name == "w").unwrap();
        assert_eq!(w.width, Width::W32);
        assert_eq!(cp_symexpr::eval::eval(&w.expr, &[0x12u8, 0x34][..]), 0x1234);
    }

    #[test]
    fn scope_recorder_is_inert_without_debug_info() {
        let program = compile(
            &frontend(
                r#"
                fn main() -> u32 {
                    var w: u32 = input_byte(0) as u32;
                    return w;
                }
                "#,
            )
            .unwrap(),
        )
        .unwrap()
        .strip();
        let mut scopes = ScopeRecorder::new(vec![None; program.functions.len()]);
        run_with_observer(&program, &[9], &RunConfig::default(), &mut scopes);
        assert!(scopes.var_values.is_empty());
    }

    #[test]
    fn alloc_records_carry_their_path_position() {
        let (recorder, _) = record(
            r#"
            fn main() -> u32 {
                var early: u64 = malloc(8);
                var b: u32 = input_byte(0) as u32;
                if (b < 10) { output(1); }
                var late: u64 = malloc((b * 2) as u64);
                return 0;
            }
            "#,
            &[3],
        );
        assert_eq!(recorder.allocs.len(), 2);
        assert_eq!(recorder.allocs[0].branches_before, 0);
        assert_eq!(recorder.allocs[1].branches_before, 1);
    }

    #[test]
    fn records_tainted_allocation_sites() {
        let (recorder, _) = record(
            r#"
            fn main() -> u32 {
                var fixed: u64 = malloc(16);
                var n: u64 = (input_byte(0) as u64) * 4;
                var sized: u64 = malloc(n);
                return 0;
            }
            "#,
            &[3],
        );
        assert_eq!(recorder.allocs.len(), 2);
        assert!(!recorder.allocs[0].is_tainted());
        assert!(recorder.allocs[1].is_tainted());
        assert_eq!(recorder.allocs[1].size, 12);
    }
}
