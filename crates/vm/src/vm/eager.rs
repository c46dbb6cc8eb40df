//! The eager recorder the tape replaced, kept as the reference that
//! [`tests::tape_entries_resolve_to_the_eager_recorders_nodes`] compares the
//! tape against: every tainted value carries its interned expression, and
//! memory covers hold expressions, built exactly as instrumented runs built
//! them before they recorded a tape.
//!
//! [`Lockstep`] carries both shadows beside each value, so one execution
//! drives the tape and the eager recorder alike; the events show observers
//! the tape entry, and the eager expression waits in [`EAGER`] for the test's
//! observer to collect.

use super::{Machine, RunConfig, RunResult, Shadow};
use crate::observer::Observer;
use crate::state::{MachineState, ShadowMemory};
use cp_bytecode::CompiledProgram;
use cp_symexpr::bytes::{recompose, ByteVal};
use cp_symexpr::{BinOp, CastKind, ExprBuild, ExprRef, SymExpr, Tape, TapeRef, UnOp, Width};
use std::cell::RefCell;

/// The eager half's state for the run on this thread.
struct Eager {
    /// Memory covers holding interned expressions.
    covers: ShadowMemory<ExprRef>,
    /// The expression of the last value an event showed its observer.
    shown: Option<ExprRef>,
}

thread_local! {
    static EAGER: RefCell<Option<Eager>> = const { RefCell::new(None) };
}

fn with_eager<R>(f: impl FnOnce(&mut Eager) -> R) -> R {
    EAGER.with(|eager| f(eager.borrow_mut().as_mut().expect("a lockstep run is live")))
}

/// Byte `offset` (little-endian) of a `width`-bit entry's expression.
fn expr_byte_of(width: Width, expr: ExprRef, offset: u64) -> ExprRef {
    let byte = if offset == 0 {
        expr
    } else {
        expr.binop(BinOp::ShrU, SymExpr::constant(width, 8 * offset))
    };
    byte.truncate(Width::W8)
}

/// The eager shadow `f` computes.  Constant-valued shadows carry no taint
/// and only bloat downstream expressions, so they are dropped.
fn of(f: impl FnOnce() -> Option<ExprRef>) -> Option<ExprRef> {
    f().filter(|e| e.is_tainted())
}

/// The eager shadow of a `width`-byte load at `addr`, reconstructed
/// byte-accurately from the eager covers.
fn eager_load(
    covers: &ShadowMemory<ExprRef>,
    state: &MachineState,
    addr: u64,
    width: Width,
) -> Option<ExprRef> {
    if let Some(expr) = covers.exact(addr, width) {
        return Some(expr);
    }
    if covers.is_clean(addr, width) {
        return None;
    }
    let end = addr + width.bytes() as u64;
    let bytes: Vec<ByteVal> = (addr..end)
        .map(|byte_addr| match covers.entry(byte_addr) {
            Some((start, w, e)) => ByteVal::Sym(expr_byte_of(w, e, byte_addr - start)),
            None => ByteVal::Known(state.load(byte_addr, Width::W8).unwrap_or(0) as u8),
        })
        .collect();
    Some(recompose(&bytes, width))
}

/// Re-widens a shadow expression so its width matches the width of the slot
/// it is stored into.
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

/// The tape entry and the eager expression of one value.
type Lockstep = (Option<TapeRef>, Option<ExprRef>);

impl Shadow for Lockstep {
    fn input_byte(state: &mut MachineState, offset: usize) -> Self {
        (
            Shadow::input_byte(state, offset),
            of(|| Some(SymExpr::input_byte(offset))),
        )
    }

    fn binary(
        state: &mut MachineState,
        op: BinOp,
        width: Width,
        result: Width,
        (lhs, a): (Self, u64),
        (rhs, b): (Self, u64),
    ) -> Self {
        let recorded = Shadow::binary(state, op, width, result, (lhs.0, a), (rhs.0, b));
        let eager = of(|| {
            let (ls, rs) = (lhs.1, rhs.1);
            if ls.is_none() && rs.is_none() {
                return None;
            }
            let le = ls.unwrap_or_else(|| SymExpr::constant(width, a));
            let re = rs.unwrap_or_else(|| SymExpr::constant(width, b));
            Some(le.binop_w(op, result, re))
        });
        (recorded, eager)
    }

    fn unary(state: &mut MachineState, op: UnOp, arg: Self) -> Self {
        (
            Shadow::unary(state, op, arg.0),
            of(|| arg.1.map(|e| e.unop(op))),
        )
    }

    fn cast(state: &mut MachineState, kind: CastKind, to: Width, arg: Self) -> Self {
        let eager = of(|| {
            arg.1.map(|e| match kind {
                CastKind::ZeroExt => e.zext(to),
                CastKind::SignExt => e.sext(to),
                CastKind::Truncate => e.truncate(to),
            })
        });
        (Shadow::cast(state, kind, to, arg.0), eager)
    }

    fn load(state: &mut MachineState, addr: u64, width: Width) -> Self {
        let recorded = Shadow::load(state, addr, width);
        let eager = of(|| with_eager(|eager| eager_load(&eager.covers, state, addr, width)));
        (recorded, eager)
    }

    fn store(self, state: &mut MachineState, addr: u64, width: Width) {
        self.0.store(state, addr, width);
        let expr = adjust_width(self.1, width);
        with_eager(|eager| eager.covers.store(addr, width, expr, expr_byte_of));
    }

    fn entry(self) -> Option<TapeRef> {
        with_eager(|eager| eager.shown = self.1);
        self.0
    }
}

/// Runs `program` on `input` recording the tape and the eager shadows in
/// lockstep; an observer collects each event's eager expression with
/// [`shown`] and reads eager variable values with [`eager_variable`].
fn record_both<O: Observer>(
    program: &CompiledProgram,
    input: &[u8],
    config: &RunConfig,
    observer: &mut O,
) -> (RunResult, Tape) {
    EAGER.with(|eager| {
        *eager.borrow_mut() = Some(Eager {
            covers: ShadowMemory::new(program.globals_size),
            shown: None,
        });
    });
    let recorded = Machine::new(program, input, config).run::<Lockstep, O>(observer);
    EAGER.with(|eager| eager.borrow_mut().take());
    recorded
}

/// The eager expression of the value the current event shows.
fn shown() -> Option<ExprRef> {
    with_eager(|eager| eager.shown)
}

/// The eager shadow of a `width`-byte variable at `addr`, as eager
/// recording read in-scope variables.
fn eager_variable(state: &MachineState, addr: u64, width: Width) -> Option<ExprRef> {
    with_eager(|eager| eager_load(&eager.covers, state, addr, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{BranchEvent, StmtEndEvent};
    use crate::state::Value;
    use cp_bytecode::compile;
    use cp_lang::{frontend, FunctionDebug, Type};
    use cp_symexpr::ArenaEpoch;

    /// Logs every branch condition, allocation size and in-scope scalar
    /// variable value of a lockstep run both ways: the tape entry the run
    /// recorded, resolved after the run as a trace resolves it, and the
    /// expression the eager recorder interned.
    struct Differential {
        functions: Vec<Option<FunctionDebug>>,
        reads: Vec<(String, Option<TapeRef>, Option<ExprRef>)>,
    }

    impl Observer for Differential {
        fn on_branch(&mut self, event: &BranchEvent, _state: &MachineState) {
            let site = format!("branch fn#{}@{}", event.function, event.pc);
            self.reads.push((site, event.expr, shown()));
        }

        fn on_alloc(
            &mut self,
            base: u64,
            _size: &Value,
            size_expr: Option<TapeRef>,
            _state: &MachineState,
        ) {
            let site = format!("alloc at {base:#x}");
            self.reads.push((site, size_expr, shown()));
        }

        fn on_stmt_end(&mut self, event: &StmtEndEvent, state: &mut MachineState) {
            let Some(Some(debug)) = self.functions.get(event.function) else {
                return;
            };
            let frame_base = state.current_frame().frame_base;
            for var in debug.vars_in_scope_after(event.stmt) {
                let width = match var.ty {
                    Type::U8 | Type::I8 => Width::W8,
                    Type::U16 | Type::I16 => Width::W16,
                    Type::U32 | Type::I32 => Width::W32,
                    Type::U64 | Type::I64 => Width::W64,
                    Type::Ptr(_) | Type::Struct(_) => continue,
                };
                let addr = frame_base + var.frame_offset as u64;
                let site = format!(
                    "var {} after fn#{} stmt {}",
                    var.name, event.function, event.stmt
                );
                let entry = state.load_entry(addr, width);
                self.reads
                    .push((site, entry, eager_variable(state, addr, width)));
            }
        }
    }

    /// Records `source` on each input both ways and requires every value
    /// read to be the same node, or absent both ways; returns how many
    /// values were tainted.
    fn compare(name: &str, source: &str, inputs: &[&[u8]]) -> usize {
        let program = compile(&frontend(source).expect("source parses")).expect("source compiles");
        let debug = program.debug.as_ref().expect("unstripped");
        let functions: Vec<Option<FunctionDebug>> = program
            .functions
            .iter()
            .map(|f| {
                f.name
                    .as_deref()
                    .and_then(|n| debug.functions.get(n).cloned())
            })
            .collect();
        let config = RunConfig::default();
        let mut tainted = 0;
        for input in inputs {
            let _epoch = ArenaEpoch::begin();
            let mut differential = Differential {
                functions: functions.clone(),
                reads: Vec::new(),
            };
            let (result, tape) = record_both(&program, input, &config, &mut differential);
            assert_ne!(
                result.termination.error(),
                Some(&crate::VmError::StepLimitExceeded),
                "{name}"
            );
            for (site, entry, eager) in differential.reads {
                let recorded = entry.map(|e| tape.resolve(e));
                assert_eq!(
                    recorded,
                    eager,
                    "{name} on {} input bytes: {site}",
                    input.len()
                );
                tainted += usize::from(recorded.is_some());
            }
        }
        tainted
    }

    /// The `long-input` shape: a header field bounds a loop that sums the
    /// body, then the sum is divided by another header field.
    const LONG_LOOP: &str = r#"
        fn main() -> u32 {
            var rate: u32 = input_byte(0) as u32;
            var len: u64 = ((input_byte(1) as u64) << 8) | (input_byte(2) as u64);
            var sum: u32 = 0;
            var i: u64 = 0;
            while (i < len) {
                sum = sum + (input_byte(i + 3) as u32);
                i = i + 1;
            }
            var mean: u32 = sum / rate;
            output(mean as u64);
            return 0;
        }
    "#;

    /// Every shadow path the corpus leaves out: truncation, sign extension,
    /// the unary operators, comparisons stored into wider slots, tainted
    /// call arguments, and narrow and partial loads of wider stores, with
    /// tainted and untainted bytes overwritten, through heap, stack and
    /// global aliases.
    const SHADOW_PATHS: &str = r#"
        global g: u32 = 0;
        fn mix(a: u32, b: u8) -> u32 {
            return (a ^ (b as u32)) + 1;
        }
        fn main() -> u32 {
            var w: u32 = ((input_byte(0) as u32) << 8) | (input_byte(1) as u32);
            var low: u8 = w as u8;
            var neg: u32 = -w;
            var inv: u32 = ~w;
            var flag: u32 = (w > 100) as u32;
            var not: u32 = (!(w == 0)) as u32;
            var wide: i64 = (input_byte(2) as i8) as i64;
            var p: ptr<u32> = malloc(8) as ptr<u32>;
            var pb: ptr<u8> = p as ptr<u8>;
            var ph: ptr<u16> = p as ptr<u16>;
            p[0] = w * 65599;
            pb[1] = low;
            pb[3] = 7;
            var back: u32 = p[0];
            var mixed: u32 = 16909060;
            var mb: ptr<u8> = &mixed as ptr<u8>;
            mb[0] = low;
            var half: u16 = ph[1];
            g = w * 3;
            var gb: ptr<u8> = &g as ptr<u8>;
            var b2: u8 = gb[2];
            var local: u32 = neg + inv;
            var lb: ptr<u8> = &local as ptr<u8>;
            lb[0] = b2;
            if (mix(back, b2) > mixed) { output(1); }
            if ((local + flag + not + (half as u32)) < ((wide as u64) as u32)) { output(2); }
            var buf: u64 = malloc((low as u64) + 1);
            return 0;
        }
    "#;

    fn long_message(rate: u8, len: usize) -> Vec<u8> {
        let mut bytes = vec![rate, (len >> 8) as u8, len as u8];
        bytes.extend((0..len).map(|i| (i * 37 % 251) as u8));
        bytes
    }

    #[test]
    fn tape_entries_resolve_to_the_eager_recorders_nodes() {
        let mut scenarios = cp_corpus::scenarios().to_vec();
        scenarios.extend(cp_corpus::synthetic::synthetic_scenarios(20));
        let mut tainted = 0;
        for scenario in &scenarios {
            let mut inputs = vec![scenario.error_input];
            inputs.extend(scenario.benign_corpus.iter().copied());
            tainted += compare(scenario.name, scenario.source, &inputs);
            tainted += compare(scenario.name, scenario.donor_source, &inputs);
        }
        let (error, benign) = (long_message(0, 600), long_message(9, 600));
        tainted += compare("long loop", LONG_LOOP, &[&error, &benign]);
        let inputs: [&[u8]; 3] = [&[0x12, 0x34, 0x85], &[0, 0, 0], &[0xFF, 0xFF, 0x7F]];
        tainted += compare("shadow paths", SHADOW_PATHS, &inputs);
        assert!(tainted > 1_000, "only {tainted} tainted values compared");
    }
}
