//! The fetch/decode/execute core of the instrumented VM.
//!
//! Execution mirrors the observation model of the paper's Valgrind-based
//! instrumentation (Section 3.2): every value on the operand stack carries an
//! optional symbolic shadow recording how it was computed from input bytes,
//! stores propagate that shadow into memory, and conditional branches report
//! both the direction taken and the symbolic condition to the [`Observer`].
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
use crate::state::{MachineState, Value};
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
    let mut vm = Vm::new(program, input, *config);
    vm.taint = false;
    vm.run(&mut NullObserver)
}

/// Runs `program` on `input` with the symbolic shadow state built,
/// dispatching execution events to `observer`.
pub fn run_with_observer(
    program: &CompiledProgram,
    input: &[u8],
    config: &RunConfig,
    observer: &mut dyn Observer,
) -> RunResult {
    let mut vm = Vm::new(program, input, *config);
    vm.run(observer)
}

/// What a single executed instruction asked the driver loop to do.
enum Control {
    /// Fall through to the next instruction.
    Next,
    /// Jump to an instruction index within the current function.
    Goto(usize),
    /// Control already updated (call/return adjusted function and pc).
    Transferred,
    /// The program terminated.
    Done(Termination),
}

/// An instrumented virtual machine executing one program on one input.
///
/// [`run`] / [`run_with_observer`] cover the common case; the struct is public
/// so that analyses needing finer control (single-stepping) can drive
/// execution themselves via [`Vm::step`].  [`Vm::new`] builds the shadow state.
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p CompiledProgram,
    input: &'p [u8],
    config: RunConfig,
    state: MachineState,
    function: usize,
    pc: usize,
    termination: Option<Termination>,
    /// Whether input bytes enter as symbolic leaves; off only in [`run`].
    taint: bool,
}

impl<'p> Vm<'p> {
    /// Creates a VM with globals initialised and a frame pushed for `main`.
    ///
    /// # Panics
    ///
    /// Panics if the program's `main` index is out of range (malformed
    /// programs cannot be produced by the `cp-bytecode` compiler).
    pub fn new(program: &'p CompiledProgram, input: &'p [u8], config: RunConfig) -> Self {
        let mut state = MachineState::new(program.globals_size);
        for &(offset, width, value) in &program.global_inits {
            state
                .store(crate::GLOBAL_BASE + offset as u64, width, value)
                .expect("global initialiser inside the global segment");
        }
        let main = &program.functions[program.main];
        state
            .push_frame(program.main, main.frame_size, 0)
            .expect("fresh stack cannot overflow on the first frame");
        Vm {
            program,
            input,
            config,
            state,
            function: program.main,
            pc: 0,
            termination: None,
            taint: true,
        }
    }

    /// The machine state (memory, shadow, frames) at the current point.
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// The termination value once the run has ended.
    pub fn termination(&self) -> Option<&Termination> {
        self.termination.as_ref()
    }

    /// Runs to completion, dispatching events to `observer`.
    pub fn run(&mut self, observer: &mut dyn Observer) -> RunResult {
        while self.termination.is_none() {
            self.step(observer);
        }
        RunResult {
            termination: self.termination.clone().expect("loop exited on Some"),
            outputs: self.state.outputs.clone(),
            steps: self.state.steps,
        }
    }

    /// Executes one instruction.  Returns the termination value once the run
    /// has ended (and on every later call).
    pub fn step(&mut self, observer: &mut dyn Observer) -> Option<Termination> {
        if self.termination.is_some() {
            return self.termination.clone();
        }
        self.state.steps += 1;
        if self.state.steps > self.config.max_steps {
            self.termination = Some(Termination::Error(VmError::StepLimitExceeded));
            return self.termination.clone();
        }
        match self.execute_current(observer) {
            Ok(Control::Next) => self.pc += 1,
            Ok(Control::Goto(target)) => self.pc = target,
            Ok(Control::Transferred) => {}
            Ok(Control::Done(t)) => self.termination = Some(t),
            Err(e) => self.termination = Some(Termination::Error(e)),
        }
        self.termination.clone()
    }

    fn execute_current(&mut self, observer: &mut dyn Observer) -> Result<Control, VmError> {
        let code = &self.program.functions[self.function].code;
        let instr = code.get(self.pc).ok_or_else(|| {
            VmError::InvalidBytecode(format!(
                "pc {} past the end of function {}",
                self.pc, self.function
            ))
        })?;
        match instr.clone() {
            Instr::PushConst { width, value } => {
                self.push(Value::new(width, value), None);
                Ok(Control::Next)
            }
            Instr::FrameAddr { offset } => {
                let base = self.state.current_frame().frame_base;
                self.push(Value::new(Width::W64, base + offset as u64), None);
                Ok(Control::Next)
            }
            Instr::GlobalAddr { offset } => {
                let addr = crate::GLOBAL_BASE + offset as u64;
                self.push(Value::new(Width::W64, addr), None);
                Ok(Control::Next)
            }
            Instr::Load { width } => {
                let (addr, _) = self.pop()?;
                let raw = self.state.load(addr.raw, width)?;
                let shadow = self.state.load_shadow(addr.raw, width);
                let overflowed = self.state.is_overflowed(addr.raw, width);
                self.push(Value::with_overflow(width, raw, overflowed), shadow);
                Ok(Control::Next)
            }
            Instr::Store { width } => {
                let (value, shadow) = self.pop()?;
                let (addr, _) = self.pop()?;
                self.state.store(addr.raw, width, value.raw)?;
                self.state
                    .set_shadow(addr.raw, width, adjust_width(shadow, width));
                self.state.set_overflowed(addr.raw, width, value.overflowed);
                Ok(Control::Next)
            }
            Instr::Binary { op, width } => {
                self.exec_binary(op, width)?;
                Ok(Control::Next)
            }
            Instr::Unary { op, width } => {
                self.exec_unary(op, width)?;
                Ok(Control::Next)
            }
            Instr::Cast { kind, from, to } => {
                self.exec_cast(kind, from, to)?;
                Ok(Control::Next)
            }
            Instr::Jump { target } => Ok(Control::Goto(target)),
            Instr::JumpIfZero { target } => {
                let (condition, shadow) = self.pop()?;
                let taken = condition.is_zero();
                let event = BranchEvent {
                    function: self.function,
                    pc: self.pc,
                    invocation: self.state.current_frame().invocation,
                    taken,
                    condition,
                    expr: shadow,
                };
                observer.on_branch(&event, &self.state);
                if taken {
                    Ok(Control::Goto(target))
                } else {
                    Ok(Control::Next)
                }
            }
            Instr::Call { function } => {
                self.exec_call(function)?;
                Ok(Control::Transferred)
            }
            Instr::CallIntrinsic { intrinsic } => {
                self.exec_intrinsic(intrinsic, observer)?;
                Ok(Control::Next)
            }
            Instr::Return { has_value } => self.exec_return(has_value),
            Instr::Exit => {
                let (status, _) = self.pop()?;
                Ok(Control::Done(Termination::Exited(status.raw)))
            }
            Instr::Pop => {
                self.pop()?;
                Ok(Control::Next)
            }
            Instr::StmtEnd { stmt } => {
                let event = StmtEndEvent {
                    function: self.function,
                    invocation: self.state.current_frame().invocation,
                    stmt,
                };
                observer.on_stmt_end(&event, &self.state);
                Ok(Control::Next)
            }
        }
    }

    fn exec_binary(&mut self, op: BinOp, width: Width) -> Result<(), VmError> {
        let (rhs, rhs_shadow) = self.pop()?;
        let (lhs, lhs_shadow) = self.pop()?;
        let a = width.truncate(lhs.raw);
        let b = width.truncate(rhs.raw);
        if matches!(op, BinOp::DivU | BinOp::DivS | BinOp::RemU | BinOp::RemS) && b == 0 {
            return Err(VmError::DivideByZero {
                function: self.function,
                pc: self.pc,
            });
        }
        let raw = eval_binop(op, width, a, b);
        // Sticky overflow: a freshly wrapped result, or an operand that was
        // already poisoned, poisons the result.  Comparisons start clean —
        // their 0/1 decision is not a size that could flow into an allocation.
        let result = if op.is_comparison() {
            Value::new(Width::W8, raw)
        } else {
            let wrapped = arith_wrapped(op, width, a, b);
            Value::with_overflow(width, raw, wrapped || lhs.overflowed || rhs.overflowed)
        };
        let shadow = match (lhs_shadow, rhs_shadow) {
            (None, None) => None,
            (ls, rs) => {
                let le = ls.unwrap_or_else(|| SymExpr::constant(width, a));
                let re = rs.unwrap_or_else(|| SymExpr::constant(width, b));
                Some(le.binop_w(op, result.width, re))
            }
        };
        self.push(result, shadow);
        Ok(())
    }

    fn exec_unary(&mut self, op: UnOp, width: Width) -> Result<(), VmError> {
        let (value, shadow) = self.pop()?;
        let a = width.truncate(value.raw);
        let (raw, result_width) = match op {
            UnOp::Neg => (width.truncate(a.wrapping_neg()), width),
            UnOp::Not => (width.truncate(!a), width),
            UnOp::LogicalNot => ((a == 0) as u64, Width::W8),
        };
        let result = Value::with_overflow(result_width, raw, value.overflowed);
        self.push(result, shadow.map(|e| e.unop(op)));
        Ok(())
    }

    fn exec_cast(&mut self, kind: CastKind, from: Width, to: Width) -> Result<(), VmError> {
        let (value, shadow) = self.pop()?;
        let a = from.truncate(value.raw);
        let raw = match kind {
            CastKind::ZeroExt => a,
            CastKind::SignExt => to.truncate(from.sign_extend(a)),
            CastKind::Truncate => to.truncate(a),
        };
        let shadow = shadow.map(|e| match kind {
            CastKind::ZeroExt => e.zext(to),
            CastKind::SignExt => e.sext(to),
            CastKind::Truncate => e.truncate(to),
        });
        self.push(Value::with_overflow(to, raw, value.overflowed), shadow);
        Ok(())
    }

    fn exec_call(&mut self, function: usize) -> Result<(), VmError> {
        let callee =
            self.program.functions.get(function).ok_or_else(|| {
                VmError::InvalidBytecode(format!("bad function index {function}"))
            })?;
        if self.state.frames.len() >= self.config.max_call_depth {
            return Err(VmError::CallDepthExceeded);
        }
        // Arguments were pushed left to right, so the rightmost is on top.
        let mut args = Vec::with_capacity(callee.params.len());
        for _ in 0..callee.params.len() {
            args.push(self.pop()?);
        }
        args.reverse();
        let return_pc = self.pc + 1;
        let frame = self
            .state
            .push_frame(function, callee.frame_size, return_pc)?;
        let frame_base = frame.frame_base;
        for (slot, (value, shadow)) in callee.params.iter().zip(args) {
            let addr = frame_base + slot.offset as u64;
            self.state.store(addr, slot.width, value.raw)?;
            self.state
                .set_shadow(addr, slot.width, adjust_width(shadow, slot.width));
            self.state
                .set_overflowed(addr, slot.width, value.overflowed);
        }
        self.function = function;
        self.pc = 0;
        Ok(())
    }

    fn exec_return(&mut self, has_value: bool) -> Result<Control, VmError> {
        let ret = if has_value { Some(self.pop()?) } else { None };
        let frame = self
            .state
            .pop_frame()
            .ok_or_else(|| VmError::InvalidBytecode("return with no active frame".into()))?;
        if self.state.operands.len() != frame.operand_base {
            return Err(VmError::InvalidBytecode(format!(
                "operand stack imbalance on return from function {} ({} vs {})",
                frame.function,
                self.state.operands.len(),
                frame.operand_base
            )));
        }
        if self.state.frames.is_empty() {
            let value = ret.map(|(v, _)| v.raw).unwrap_or(0);
            return Ok(Control::Done(Termination::Returned(value)));
        }
        self.function = self.state.current_frame().function;
        self.pc = frame.return_pc;
        if let Some((value, shadow)) = ret {
            self.push(value, shadow);
        }
        Ok(Control::Transferred)
    }

    fn exec_intrinsic(
        &mut self,
        intrinsic: Intrinsic,
        observer: &mut dyn Observer,
    ) -> Result<(), VmError> {
        match intrinsic {
            Intrinsic::InputByte => {
                let (offset, _) = self.pop()?;
                let byte = self.input.get(offset.raw as usize).copied().unwrap_or(0);
                // The taint source: in instrumented runs the loaded byte is
                // shadowed by an `InputByte` leaf whatever its concrete value.
                self.push(
                    Value::new(Width::W8, byte as u64),
                    self.taint.then(|| SymExpr::input_byte(offset.raw as usize)),
                );
                Ok(())
            }
            Intrinsic::InputLen => {
                self.push(Value::new(Width::W64, self.input.len() as u64), None);
                Ok(())
            }
            Intrinsic::Malloc => {
                let (size, size_shadow) = self.pop()?;
                // The DIODE detector: an arithmetic overflow reaching an
                // allocation size is an error even when the wrapped size is
                // small enough for the allocation itself to succeed.
                if size.overflowed {
                    return Err(VmError::OverflowIntoAllocation {
                        requested: size.raw,
                    });
                }
                let base = self.state.allocate(size.raw, self.config.max_alloc)?;
                observer.on_alloc(base, &size, size_shadow.as_ref(), &self.state);
                self.push(Value::new(Width::W64, base), None);
                Ok(())
            }
            Intrinsic::Output => {
                let (value, _) = self.pop()?;
                self.state.outputs.push(value.raw);
                Ok(())
            }
        }
    }

    fn push(&mut self, value: Value, shadow: Option<ExprRef>) {
        // Constant-valued shadows carry no taint and only bloat downstream
        // expressions; drop them eagerly.
        let shadow = shadow.filter(|e| e.is_tainted());
        self.state.operands.push(value);
        self.state.operand_shadow.push(shadow);
    }

    fn pop(&mut self) -> Result<(Value, Option<ExprRef>), VmError> {
        let value = self
            .state
            .operands
            .pop()
            .ok_or_else(|| VmError::InvalidBytecode("operand stack underflow".into()))?;
        let shadow = self
            .state
            .operand_shadow
            .pop()
            .ok_or_else(|| VmError::InvalidBytecode("shadow stack underflow".into()))?;
        Ok((value, shadow))
    }
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
