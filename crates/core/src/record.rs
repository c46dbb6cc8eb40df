//! The observer a [`Session`](crate::Session) records with: the paper's
//! instrumentation pass (Section 3.2), which watches one execution and keeps
//! the conditional branches the input influenced, the statements that
//! completed (candidate insertion points) and the allocations performed,
//! plus the recipient side of translation (Section 3.3): the values of the
//! scalar variables in scope at each statement boundary, which the debug
//! information names.
//!
//! Every symbolic value the recorder keeps is an entry of the run's tape, so
//! recording interns nothing; the [`Trace`](crate::Trace) that owns the tape
//! resolves an entry when a query reads it.

use cp_bytecode::CompiledProgram;
use cp_lang::{FunctionDebug, Type};
use cp_symexpr::{TapeRef, Width};
use cp_vm::{BranchEvent, MachineState, Observer, StmtEndEvent, Value};
use std::collections::HashSet;

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

/// A tainted scalar variable's value at a statement boundary, as the
/// recorder captured it: the tape entry a load of the variable returned.
#[derive(Debug)]
pub(crate) struct Capture {
    pub(crate) function: usize,
    pub(crate) invocation: u64,
    pub(crate) stmt: usize,
    /// The variable's frame offset, which identifies it within its function.
    pub(crate) frame_offset: usize,
    pub(crate) name: String,
    pub(crate) width: Width,
    pub(crate) entry: TapeRef,
}

/// Scope capture stops after this many executions of the same statement
/// site.  Parse-stage variable values — the material translation binds
/// fields to — appear in a statement's first executions; without the cap a
/// hot loop would read every in-scope variable on every iteration, for
/// loop-carried values of rapidly diminishing relevance.
const MAX_VISITS_PER_STMT: u32 = 4;

/// Records branches, statement boundaries and allocations, and at every
/// statement boundary the tainted scalar variables in scope.
///
/// Variable capture is driven by debug information, so it records nothing
/// for stripped programs.  For each of the first [`MAX_VISITS_PER_STMT`]
/// executions of a statement it loads every scalar variable declared at or
/// before it and keeps the tape entry unless the variable was captured with
/// that entry before; the trace removes the remaining duplicates, distinct
/// entries of the same node, when it resolves them.
pub(crate) struct Recorder<'p> {
    /// Debug records by function index, borrowed from the program; empty
    /// when the program carries none.
    functions: Vec<Option<&'p FunctionDebug>>,
    pub(crate) branches: Vec<BranchRecord>,
    pub(crate) stmt_ends: Vec<StmtEndEvent>,
    pub(crate) allocs: Vec<AllocRecord>,
    pub(crate) captures: Vec<Capture>,
    /// Captured `(function, frame offset, entry)` triples.
    seen: HashSet<(usize, usize, TapeRef)>,
    /// Executions observed per statement site, by function and then by
    /// statement; each function's counts grow on demand.
    visits: Vec<Vec<u32>>,
}

impl<'p> Recorder<'p> {
    /// A recorder for runs of `program`.
    pub(crate) fn new(program: &'p CompiledProgram) -> Self {
        let functions = match &program.debug {
            Some(debug) => (program.functions.iter())
                .map(|f| f.name.as_deref().and_then(|name| debug.functions.get(name)))
                .collect(),
            None => Vec::new(),
        };
        Recorder {
            visits: vec![Vec::new(); functions.len()],
            functions,
            branches: Vec::new(),
            stmt_ends: Vec::new(),
            allocs: Vec::new(),
            captures: Vec::new(),
            seen: HashSet::new(),
        }
    }
}

/// The width of a scalar type; `None` for pointers and structs (whose values
/// are addresses or aggregates, not translation material).
fn scalar_width(ty: &Type) -> Option<Width> {
    match ty {
        Type::U8 | Type::I8 => Some(Width::W8),
        Type::U16 | Type::I16 => Some(Width::W16),
        Type::U32 | Type::I32 => Some(Width::W32),
        Type::U64 | Type::I64 => Some(Width::W64),
        Type::Ptr(_) | Type::Struct(_) => None,
    }
}

impl Observer for Recorder<'_> {
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

    fn on_stmt_end(&mut self, event: &StmtEndEvent, state: &mut MachineState) {
        self.stmt_ends.push(*event);
        let Some(&Some(debug)) = self.functions.get(event.function) else {
            return;
        };
        // Compiled statement ids lie below the function's statement count;
        // a hand-built program's id beyond it names no source statement.
        if event.stmt >= debug.num_statements {
            return;
        }
        let visits = &mut self.visits[event.function];
        if visits.len() <= event.stmt {
            visits.resize(event.stmt + 1, 0);
        }
        if visits[event.stmt] >= MAX_VISITS_PER_STMT {
            return;
        }
        visits[event.stmt] += 1;
        let frame_base = state.current_frame().frame_base;
        for var in debug.vars_in_scope_after(event.stmt) {
            let Some(width) = scalar_width(&var.ty) else {
                continue;
            };
            let addr = frame_base + var.frame_offset as u64;
            let Some(entry) = state.load_entry(addr, width) else {
                continue;
            };
            if self.seen.insert((event.function, var.frame_offset, entry)) {
                self.captures.push(Capture {
                    function: event.function,
                    invocation: event.invocation,
                    stmt: event.stmt,
                    frame_offset: var.frame_offset,
                    name: var.name.clone(),
                    width,
                    entry,
                });
            }
        }
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
