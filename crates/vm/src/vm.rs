//! The fetch/decode/execute core of the VM: one interpreter loop, generic
//! over what each value carries beside it.
//!
//! Instrumented runs mirror the observation model of the paper's
//! Valgrind-based instrumentation (Section 3.2): every value on the operand
//! stack carries an optional symbolic shadow recording how it was computed
//! from input bytes, stores propagate that shadow into memory, and
//! conditional branches report both the direction taken and the symbolic
//! condition to the [`Observer`].  Plain runs carry `()` instead and report
//! to a [`NullObserver`], so the same loop, monomorphised, builds no shadow
//! state and makes no observer call.
//!
//! The VM also implements the paper's three error detectors:
//!
//! * **out-of-bounds heap access** — every load/store is checked against the
//!   live allocation list (guard gaps between allocations make small overruns
//!   land in unmapped space),
//! * **divide-by-zero** — trapped at the faulting instruction, and
//! * **integer overflow flowing into an allocation size** — arithmetic that
//!   wraps sets a sticky flag on the result value; `malloc` traps when its
//!   size argument carries the flag (the property DIODE targets).

use crate::error::VmError;
use crate::observer::{BranchEvent, NullObserver, Observer, StmtEndEvent};
use crate::state::{Frame, MachineState, Value};
use cp_bytecode::{CompiledProgram, Instr, Intrinsic};
use cp_symexpr::{eval::eval_binop, BinOp, CastKind, ExprBuild, ExprRef, SymExpr, UnOp, Width};

/// Resource limits and detector configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Maximum number of instructions to execute before trapping with
    /// [`VmError::StepLimitExceeded`].
    pub max_steps: u64,
    /// Maximum call depth before trapping with
    /// [`VmError::CallDepthExceeded`].
    pub max_call_depth: usize,
    /// Maximum size of a single heap allocation; larger requests trap with
    /// [`VmError::AllocationTooLarge`].
    pub max_alloc: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_steps: 1_000_000,
            max_call_depth: 256,
            max_alloc: 1 << 30,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// `main` returned normally with this value (0 for void `main`).
    Returned(u64),
    /// The program executed an `exit` statement with this status.
    Exited(u64),
    /// Execution trapped on a detected error.
    Error(VmError),
}

impl Termination {
    /// The trapped error, if the run ended on one.
    pub fn error(&self) -> Option<&VmError> {
        match self {
            Termination::Error(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the run ended on one of the paper's three application error
    /// classes (as opposed to finishing or hitting a VM resource limit).
    pub fn is_application_error(&self) -> bool {
        self.error().is_some_and(VmError::is_application_error)
    }
}

/// The outcome of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub termination: Termination,
    /// Values passed to the `output` intrinsic, in order.
    pub outputs: Vec<u64>,
    /// Number of instructions executed.
    pub steps: u64,
}

/// Runs `program` on `input` with no instrumentation: no observer can read a
/// shadow, so none is built, no shadow memory is allocated and no expression
/// is interned.  Termination, outputs and steps are those
/// [`run_with_observer`] returns.
pub fn run(program: &CompiledProgram, input: &[u8], config: &RunConfig) -> RunResult {
    Machine::new(program, input, config).run::<(), _>(&mut NullObserver)
}

/// Runs `program` on `input` with the symbolic shadow state built,
/// dispatching execution events to `observer`.
pub fn run_with_observer<O: Observer + ?Sized>(
    program: &CompiledProgram,
    input: &[u8],
    config: &RunConfig,
    observer: &mut O,
) -> RunResult {
    Machine::new(program, input, config).run::<Option<ExprRef>, O>(observer)
}

/// What a value carries beside it: `()` in a plain run, or in an
/// instrumented one its symbolic shadow, `Some` when the value depends on
/// input bytes.
trait Shadow: Copy + Default {
    /// The shadow `f` computes; a plain run never calls `f`.  Constant-valued
    /// shadows carry no taint and only bloat downstream expressions, so they
    /// are dropped.
    fn of(f: impl FnOnce() -> Option<ExprRef>) -> Self;

    /// The symbolic expression, if any.
    fn expr(self) -> Option<ExprRef>;

    /// Records `self` as the shadow of a `width`-byte store at `addr`.
    fn store(self, state: &mut MachineState, addr: u64, width: Width);
}

impl Shadow for () {
    fn of(_: impl FnOnce() -> Option<ExprRef>) -> Self {}

    fn expr(self) -> Option<ExprRef> {
        None
    }

    fn store(self, _: &mut MachineState, _: u64, _: Width) {}
}

impl Shadow for Option<ExprRef> {
    fn of(f: impl FnOnce() -> Option<ExprRef>) -> Self {
        f().filter(|e| e.is_tainted())
    }

    fn expr(self) -> Option<ExprRef> {
        self
    }

    fn store(self, state: &mut MachineState, addr: u64, width: Width) {
        state.set_shadow(addr, width, adjust_width(self, width));
    }
}

/// One run of one program: its memory and frames, and the outputs it
/// reports.
struct Machine<'p> {
    program: &'p CompiledProgram,
    input: &'p [u8],
    config: &'p RunConfig,
    state: MachineState,
    outputs: Vec<u64>,
}

impl<'p> Machine<'p> {
    /// Creates a machine with empty memory and no frame; the run stores the
    /// globals and pushes `main`'s frame when it starts.
    fn new(program: &'p CompiledProgram, input: &'p [u8], config: &'p RunConfig) -> Self {
        Machine {
            program,
            input,
            config,
            state: MachineState::new(program.globals_size),
            outputs: Vec::new(),
        }
    }

    /// Stores the global initialisers and pushes `main`'s frame.  A
    /// `CompiledProgram`'s fields are public, so a malformed one traps here
    /// instead of panicking: `InvalidBytecode` for an out-of-range `main`,
    /// `StackOverflow` for a `main` frame larger than the stack (as a callee
    /// frame of that size gets), and the store's own error for an
    /// initialiser outside the global segment.
    fn start(&mut self) -> Result<Frame, VmError> {
        let program = self.program;
        for &(offset, width, value) in &program.global_inits {
            let addr = crate::GLOBAL_BASE.wrapping_add(offset as u64);
            self.state.store(addr, width, value)?;
        }
        let main = program.functions.get(program.main).ok_or_else(|| {
            VmError::InvalidBytecode(format!("bad main function index {}", program.main))
        })?;
        Ok(*self.state.push_frame(program.main, main.frame_size, 0, 0)?)
    }

    /// Runs to completion with a `T` beside each value, dispatching events
    /// to `observer`.
    fn run<T: Shadow, O: Observer + ?Sized>(mut self, observer: &mut O) -> RunResult {
        let mut steps = 0;
        let termination = self
            .interpret::<T, O>(observer, &mut steps)
            .unwrap_or_else(Termination::Error);
        RunResult {
            termination,
            outputs: self.outputs,
            steps,
        }
    }

    /// The interpreter loop.  Every instruction counts in `steps`, the one
    /// that ends the run included, and the step limit is checked before
    /// each, so a run that exceeds it reports `max_steps + 1` steps.
    fn interpret<T: Shadow, O: Observer + ?Sized>(
        &mut self,
        observer: &mut O,
        steps: &mut u64,
    ) -> Result<Termination, VmError> {
        let program = self.program;
        let mut stack = Operands::<T>::default();
        let mut frame = self.start()?;
        let mut code: &[Instr] = &program.functions[frame.function].code;
        let mut pc = 0;
        loop {
            *steps += 1;
            if *steps > self.config.max_steps {
                return Err(VmError::StepLimitExceeded);
            }
            let instr = code.get(pc).ok_or_else(|| {
                VmError::InvalidBytecode(format!(
                    "pc {pc} past the end of function {}",
                    frame.function
                ))
            })?;
            match instr {
                Instr::PushConst { width, value } => {
                    stack.push(Value::new(*width, *value), T::default());
                }
                Instr::FrameAddr { offset } => {
                    let addr = frame.frame_base + *offset as u64;
                    stack.push(Value::new(Width::W64, addr), T::default());
                }
                Instr::GlobalAddr { offset } => {
                    let addr = crate::GLOBAL_BASE + *offset as u64;
                    stack.push(Value::new(Width::W64, addr), T::default());
                }
                Instr::Load { width } => {
                    let (addr, _) = stack.pop()?;
                    let raw = self.state.load(addr.raw, *width)?;
                    let shadow = T::of(|| self.state.load_shadow(addr.raw, *width));
                    let overflowed = self.state.is_overflowed(addr.raw, *width);
                    stack.push(Value::with_overflow(*width, raw, overflowed), shadow);
                }
                Instr::Store { width } => {
                    let (value, shadow) = stack.pop()?;
                    let (addr, _) = stack.pop()?;
                    self.store(addr.raw, *width, value, shadow)?;
                }
                Instr::Binary { op, width } => {
                    let (rhs, rhs_shadow) = stack.pop()?;
                    let (lhs, lhs_shadow) = stack.pop()?;
                    let a = width.truncate(lhs.raw);
                    let b = width.truncate(rhs.raw);
                    if matches!(op, BinOp::DivU | BinOp::DivS | BinOp::RemU | BinOp::RemS) && b == 0
                    {
                        return Err(VmError::DivideByZero {
                            function: frame.function,
                            pc,
                        });
                    }
                    let raw = eval_binop(*op, *width, a, b);
                    // Sticky overflow: a freshly wrapped result, or an operand
                    // that was already poisoned, poisons the result.
                    // Comparisons start clean — their 0/1 decision is not a
                    // size that could flow into an allocation.
                    let result = if op.is_comparison() {
                        Value::new(Width::W8, raw)
                    } else {
                        let wrapped = arith_wrapped(*op, *width, a, b);
                        Value::with_overflow(
                            *width,
                            raw,
                            wrapped || lhs.overflowed || rhs.overflowed,
                        )
                    };
                    let shadow = T::of(|| {
                        let (ls, rs) = (lhs_shadow.expr(), rhs_shadow.expr());
                        if ls.is_none() && rs.is_none() {
                            return None;
                        }
                        let le = ls.unwrap_or_else(|| SymExpr::constant(*width, a));
                        let re = rs.unwrap_or_else(|| SymExpr::constant(*width, b));
                        Some(le.binop_w(*op, result.width, re))
                    });
                    stack.push(result, shadow);
                }
                Instr::Unary { op, width } => {
                    let (value, shadow) = stack.pop()?;
                    let a = width.truncate(value.raw);
                    let (raw, result_width) = match op {
                        UnOp::Neg => (width.truncate(a.wrapping_neg()), *width),
                        UnOp::Not => (width.truncate(!a), *width),
                        UnOp::LogicalNot => ((a == 0) as u64, Width::W8),
                    };
                    let result = Value::with_overflow(result_width, raw, value.overflowed);
                    stack.push(result, T::of(|| shadow.expr().map(|e| e.unop(*op))));
                }
                Instr::Cast { kind, from, to } => {
                    let (value, shadow) = stack.pop()?;
                    let a = from.truncate(value.raw);
                    let raw = match kind {
                        CastKind::ZeroExt => a,
                        CastKind::SignExt => to.truncate(from.sign_extend(a)),
                        CastKind::Truncate => to.truncate(a),
                    };
                    let shadow = T::of(|| {
                        shadow.expr().map(|e| match kind {
                            CastKind::ZeroExt => e.zext(*to),
                            CastKind::SignExt => e.sext(*to),
                            CastKind::Truncate => e.truncate(*to),
                        })
                    });
                    stack.push(Value::with_overflow(*to, raw, value.overflowed), shadow);
                }
                Instr::Jump { target } => {
                    pc = *target;
                    continue;
                }
                Instr::JumpIfZero { target } => {
                    let (condition, shadow) = stack.pop()?;
                    let taken = condition.raw == 0;
                    let event = BranchEvent {
                        function: frame.function,
                        pc,
                        invocation: frame.invocation,
                        taken,
                        condition,
                        expr: shadow.expr(),
                    };
                    observer.on_branch(&event, &self.state);
                    if taken {
                        pc = *target;
                        continue;
                    }
                }
                Instr::Call { function } => {
                    let callee = program.functions.get(*function).ok_or_else(|| {
                        VmError::InvalidBytecode(format!("bad function index {function}"))
                    })?;
                    if self.state.frames().len() >= self.config.max_call_depth {
                        return Err(VmError::CallDepthExceeded);
                    }
                    // Arguments were pushed left to right, so the rightmost is
                    // on top.
                    let base = stack
                        .height
                        .checked_sub(callee.params.len())
                        .ok_or_else(underflow)?;
                    frame = *self
                        .state
                        .push_frame(*function, callee.frame_size, pc + 1, base)?;
                    for (slot, &(value, shadow)) in callee.params.iter().zip(stack.pop_to(base)) {
                        let addr = frame.frame_base + slot.offset as u64;
                        self.store(addr, slot.width, value, shadow)?;
                    }
                    code = &callee.code;
                    pc = 0;
                    continue;
                }
                Instr::CallIntrinsic { intrinsic } => match intrinsic {
                    Intrinsic::InputByte => {
                        let (offset, _) = stack.pop()?;
                        let offset = offset.raw as usize;
                        let byte = self.input.get(offset).copied().unwrap_or(0);
                        // The taint source: in instrumented runs the loaded
                        // byte is shadowed by an `InputByte` leaf whatever its
                        // concrete value.
                        stack.push(
                            Value::new(Width::W8, byte as u64),
                            T::of(|| Some(SymExpr::input_byte(offset))),
                        );
                    }
                    Intrinsic::InputLen => {
                        let len = Value::new(Width::W64, self.input.len() as u64);
                        stack.push(len, T::default());
                    }
                    Intrinsic::Malloc => {
                        let (size, shadow) = stack.pop()?;
                        // The DIODE detector: an arithmetic overflow reaching
                        // an allocation size is an error even when the wrapped
                        // size is small enough for the allocation itself to
                        // succeed.
                        if size.overflowed {
                            return Err(VmError::OverflowIntoAllocation {
                                requested: size.raw,
                            });
                        }
                        let base = self.state.allocate(size.raw, self.config.max_alloc)?;
                        observer.on_alloc(base, &size, shadow.expr().as_ref(), &self.state);
                        stack.push(Value::new(Width::W64, base), T::default());
                    }
                    Intrinsic::Output => {
                        let (value, _) = stack.pop()?;
                        self.outputs.push(value.raw);
                    }
                },
                Instr::Return { has_value } => {
                    let ret = if *has_value { Some(stack.pop()?) } else { None };
                    let callee = self.state.pop_frame().ok_or_else(|| {
                        VmError::InvalidBytecode("return with no active frame".into())
                    })?;
                    if stack.height != callee.operand_base {
                        return Err(VmError::InvalidBytecode(format!(
                            "operand stack imbalance on return from function {} ({} vs {})",
                            callee.function, stack.height, callee.operand_base
                        )));
                    }
                    let Some(&caller) = self.state.frames().last() else {
                        return Ok(Termination::Returned(ret.map_or(0, |(v, _)| v.raw)));
                    };
                    frame = caller;
                    code = &program.functions[frame.function].code;
                    pc = callee.return_pc;
                    if let Some((value, shadow)) = ret {
                        stack.push(value, shadow);
                    }
                    continue;
                }
                Instr::Exit => {
                    let (status, _) = stack.pop()?;
                    return Ok(Termination::Exited(status.raw));
                }
                Instr::Pop => {
                    stack.pop()?;
                }
                Instr::StmtEnd { stmt } => {
                    let event = StmtEndEvent {
                        function: frame.function,
                        invocation: frame.invocation,
                        stmt: *stmt,
                    };
                    observer.on_stmt_end(&event, &self.state);
                }
            }
            pc += 1;
        }
    }

    /// Stores `value` and its shadow and overflow flag at `addr`.
    #[inline]
    fn store<T: Shadow>(
        &mut self,
        addr: u64,
        width: Width,
        value: Value,
        shadow: T,
    ) -> Result<(), VmError> {
        self.state.store(addr, width, value.raw)?;
        shadow.store(&mut self.state, addr, width);
        self.state.set_overflowed(addr, width, value.overflowed);
        Ok(())
    }
}

/// The operand stack: each value with its shadow beside it.  The entries at
/// or above `height` are dead, and `slots` only grows, by value, so no
/// pointer to the stack escapes the interpreter loop.  That ran plain steps
/// 1.8x faster than a `Vec` pushed and popped in place.
#[derive(Default)]
struct Operands<T> {
    slots: Vec<(Value, T)>,
    height: usize,
}

impl<T: Shadow> Operands<T> {
    fn push(&mut self, value: Value, shadow: T) {
        if self.height == self.slots.len() {
            self.slots = grown(std::mem::take(&mut self.slots));
        }
        self.slots[self.height] = (value, shadow);
        self.height += 1;
    }

    fn pop(&mut self) -> Result<(Value, T), VmError> {
        self.height = self.height.checked_sub(1).ok_or_else(underflow)?;
        Ok(self.slots[self.height])
    }

    /// Pops every entry above height `base`, returning them bottom first.
    fn pop_to(&mut self, base: usize) -> &[(Value, T)] {
        let popped = &self.slots[base..self.height];
        self.height = base;
        popped
    }
}

/// `slots` with twice as many entries, and at least 16.
#[cold]
fn grown<T: Shadow>(mut slots: Vec<(Value, T)>) -> Vec<(Value, T)> {
    let len = (2 * slots.len()).max(16);
    slots.resize(len, (Value::new(Width::W8, 0), T::default()));
    slots
}

#[cold]
fn underflow() -> VmError {
    VmError::InvalidBytecode("operand stack underflow".into())
}

/// Whether applying `op` to `a` and `b` at `width` wraps.
///
/// Only the operators whose wrapped results the paper's evaluation cares
/// about are flagged — additive and multiplicative arithmetic, the kind that
/// produces too-small allocation sizes.
fn arith_wrapped(op: BinOp, width: Width, a: u64, b: u64) -> bool {
    let mask = width.mask() as u128;
    match op {
        BinOp::Add => (a as u128) + (b as u128) > mask,
        BinOp::Sub => b > a,
        BinOp::Mul => (a as u128) * (b as u128) > mask,
        _ => false,
    }
}

/// Re-widens a shadow expression so its width matches the width of the slot
/// it is stored into.
///
/// The widths only ever disagree for 0/1-valued results (comparisons and
/// logical negation produce 8-bit values that the front end types as `u32`),
/// so zero extension — or truncation in the opposite direction — preserves
/// the value.
fn adjust_width(shadow: Option<ExprRef>, width: Width) -> Option<ExprRef> {
    shadow.map(|e| {
        if e.width() == width {
            e
        } else if e.width() < width {
            e.zext(width)
        } else {
            e.truncate(width)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_bytecode::compile;
    use cp_lang::frontend;
    use cp_symexpr::input_support;

    fn program(source: &str) -> CompiledProgram {
        compile(&frontend(source).unwrap()).unwrap()
    }

    fn run_source(source: &str, input: &[u8]) -> RunResult {
        run(&program(source), input, &RunConfig::default())
    }

    #[derive(Default)]
    struct BranchLog {
        events: Vec<(bool, Option<ExprRef>)>,
    }

    impl Observer for BranchLog {
        fn on_branch(&mut self, event: &BranchEvent, _state: &MachineState) {
            self.events.push((event.taken, event.expr));
        }
    }

    #[test]
    fn function_calls_pass_arguments_and_return_values() {
        let result = run_source(
            r#"
            fn add(a: u32, b: u32) -> u32 { return a + b; }
            fn main() -> u32 { return add(40, add(1, 1)); }
            "#,
            &[],
        );
        assert_eq!(result.termination, Termination::Returned(42));
    }

    #[test]
    fn while_loop_sums_input_bytes() {
        let result = run_source(
            r#"
            fn main() -> u32 {
                var i: u64 = 0;
                var sum: u32 = 0;
                while (i < input_len()) {
                    sum = sum + (input_byte(i) as u32);
                    i = i + 1;
                }
                return sum;
            }
            "#,
            &[1, 2, 3, 4],
        );
        assert_eq!(result.termination, Termination::Returned(10));
    }

    #[test]
    fn exit_terminates_with_status() {
        let result = run_source(
            r#"
            fn main() -> u32 {
                exit(3);
                return 0;
            }
            "#,
            &[],
        );
        assert_eq!(result.termination, Termination::Exited(3));
    }

    #[test]
    fn divide_by_zero_is_trapped() {
        let result = run_source(
            r#"
            fn main() -> u32 {
                var d: u32 = input_byte(0) as u32;
                return 100 / d;
            }
            "#,
            &[0],
        );
        assert!(matches!(
            result.termination,
            Termination::Error(VmError::DivideByZero { .. })
        ));
    }

    #[test]
    fn heap_overrun_is_trapped() {
        let result = run_source(
            r#"
            fn main() -> u32 {
                var p: ptr<u8> = malloc(4) as ptr<u8>;
                p[input_byte(0) as u64] = 1;
                return 0;
            }
            "#,
            &[9],
        );
        assert!(matches!(
            result.termination,
            Termination::Error(VmError::OutOfBounds { write: true, .. })
        ));
    }

    #[test]
    fn overflowed_size_reaching_malloc_is_trapped() {
        // 0xFFFF * 0x11117 wraps in u32; DIODE flags the allocation.
        let result = run_source(
            r#"
            fn main() -> u32 {
                var n: u32 = (input_byte(0) as u32) << 8;
                var size: u32 = n * 70000;
                var p: u64 = malloc(size as u64);
                return 0;
            }
            "#,
            &[0xFF],
        );
        assert!(matches!(
            result.termination,
            Termination::Error(VmError::OverflowIntoAllocation { .. })
        ));
    }

    #[test]
    fn benign_allocation_is_not_flagged() {
        let result = run_source(
            r#"
            fn main() -> u32 {
                var n: u32 = (input_byte(0) as u32) * 4;
                var p: u64 = malloc(n as u64);
                return n;
            }
            "#,
            &[8],
        );
        assert_eq!(result.termination, Termination::Returned(32));
    }

    #[test]
    fn step_limit_is_enforced() {
        let result = run(
            &program("fn main() -> u32 { while (1) { } return 0; }"),
            &[],
            &RunConfig {
                max_steps: 1000,
                ..RunConfig::default()
            },
        );
        assert_eq!(
            result.termination,
            Termination::Error(VmError::StepLimitExceeded)
        );
    }

    #[test]
    fn runaway_recursion_hits_call_depth_limit() {
        let result = run_source(
            r#"
            fn f(n: u32) -> u32 { return f(n + 1); }
            fn main() -> u32 { return f(0); }
            "#,
            &[],
        );
        assert!(matches!(
            result.termination,
            Termination::Error(VmError::CallDepthExceeded | VmError::StackOverflow)
        ));
    }

    #[test]
    fn branch_condition_carries_symbolic_expression() {
        let mut log = BranchLog::default();
        let result = run_with_observer(
            &program(
                r#"
                fn main() -> u32 {
                    var width: u16 = ((input_byte(0) as u16) << 8) | (input_byte(1) as u16);
                    if (width > 100) { return 1; }
                    return 0;
                }
                "#,
            ),
            &[0x01, 0x00],
            &RunConfig::default(),
            &mut log,
        );
        assert_eq!(result.termination, Termination::Returned(1));
        assert_eq!(log.events.len(), 1);
        let (taken, expr) = &log.events[0];
        // 0x0100 > 100, so the condition is non-zero and the branch falls
        // through.
        assert!(!taken);
        let expr = expr.as_ref().expect("condition depends on the input");
        assert_eq!(
            input_support(expr).into_iter().collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn taint_propagates_through_memory_and_calls() {
        let mut log = BranchLog::default();
        run_with_observer(
            &program(
                r#"
                fn check(n: u32) -> u32 {
                    if (n == 7) { return 1; }
                    return 0;
                }
                fn main() -> u32 {
                    var b: u32 = input_byte(2) as u32;
                    return check(b);
                }
                "#,
            ),
            &[0, 0, 7],
            &RunConfig::default(),
            &mut log,
        );
        let expr = log.events[0].1.as_ref().expect("argument is tainted");
        assert_eq!(input_support(expr).into_iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn stripped_programs_run_identically() {
        let program = program(
            r#"
            fn main() -> u32 {
                var w: u16 = ((input_byte(0) as u16) << 8) | (input_byte(1) as u16);
                output(w as u64);
                return w as u32;
            }
            "#,
        );
        let stripped = program.strip();
        let full = run(&program, &[0xAB, 0xCD], &RunConfig::default());
        let bare = run(&stripped, &[0xAB, 0xCD], &RunConfig::default());
        assert_eq!(full.termination, bare.termination);
        assert_eq!(full.outputs, bare.outputs);
    }

    #[test]
    fn globals_are_initialised_before_main() {
        let result = run_source(
            r#"
            global threshold: u32 = 29;
            fn main() -> u32 { return threshold + 13; }
            "#,
            &[],
        );
        assert_eq!(result.termination, Termination::Returned(42));
    }
}
