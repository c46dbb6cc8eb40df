//! A CFG-based three-address mid-level IR for Phage-C.
//!
//! `cp-bytecode` used to lower the AST straight to a linear instruction
//! stream; this crate inserts a mid-level stage between the two: [`lower()`]
//! turns an analyzed program into a control-flow graph of basic blocks over
//! virtual registers ("temps"), [`optimize`] runs a pipeline of classic
//! passes over the CFG, and the bytecode backend emits a stack-machine
//! instruction stream from the optimized graph.
//!
//! # Detector preservation
//!
//! The error detectors — sticky per-value overflow, out-of-bounds access,
//! divide-by-zero — are the product, so every pass must preserve them
//! exactly.  The rules the passes obey:
//!
//! - Constant folding never folds an `Add`/`Sub`/`Mul` whose concrete result
//!   wraps (the VM would have set the sticky overflow flag), and never folds
//!   a `Div`/`Rem` whose divisor is zero (the VM would have trapped).
//! - CSE never merges `Add`/`Sub`/`Mul`/`Div`/`Rem` at all, and only merges
//!   a `Load` with an earlier identical one when no store or call intervenes
//!   (same address, same memory generation ⇒ same value, same overflow
//!   flag, same taint shadow).
//! - Dead-code elimination may delete a *provably dead* wrapping op — a
//!   per-value overflow flag on a value nothing reads can never reach an
//!   allocation — but never deletes a `Div`/`Rem` (divide-by-zero traps even
//!   when the quotient is unused) or a `Load` (out-of-bounds traps even when
//!   the loaded value is unused).
//! - Jump threading only retargets unconditional jumps and folds branches
//!   whose condition is a compile-time constant; a branch on a runtime value
//!   is a potential check site and is never removed.

pub mod lower;
pub mod opt;

pub use lower::{lower, LowerError};
pub use opt::optimize;

use cp_symexpr::{BinOp, CastKind, UnOp, Width};

/// A virtual register.  Temps are function-scoped SSA-style names: each is
/// defined exactly once; temps defined in one block may be referenced from
/// another (the backend spills such temps to frame slots).
pub type Temp = u32;

/// Index of a basic block within its function.
pub type BlockId = usize;

/// Intrinsic operations the language exposes as calls.  Mirrored by the
/// bytecode's intrinsic set; kept separate so the IR does not depend on the
/// backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// `input_byte(offset) -> u8`
    InputByte,
    /// `input_len() -> u64`
    InputLen,
    /// `malloc(size) -> u64`
    Malloc,
    /// `output(value)`
    Output,
}

impl Intrinsic {
    /// Maps a call target name to an intrinsic, if it is one.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        match name {
            "input_byte" => Some(Intrinsic::InputByte),
            "input_len" => Some(Intrinsic::InputLen),
            "malloc" => Some(Intrinsic::Malloc),
            "output" => Some(Intrinsic::Output),
            _ => None,
        }
    }

    /// Whether the intrinsic produces a value.
    pub fn has_result(self) -> bool {
        !matches!(self, Intrinsic::Output)
    }

    /// Runtime width of the produced value.
    pub fn result_width(self) -> Option<Width> {
        match self {
            Intrinsic::InputByte => Some(Width::W8),
            Intrinsic::InputLen | Intrinsic::Malloc => Some(Width::W64),
            Intrinsic::Output => None,
        }
    }
}

/// One three-address operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstKind {
    /// `dst = value` (already truncated to `width`).
    Const { dst: Temp, width: Width, value: u64 },
    /// `dst = src` — introduced by CSE, removed by copy propagation + DCE.
    Copy { dst: Temp, src: Temp },
    /// `dst = &frame[offset]` (a 64-bit address).
    FrameAddr { dst: Temp, offset: usize },
    /// `dst = &globals[offset]`.
    GlobalAddr { dst: Temp, offset: usize },
    /// `dst = *(addr)` at `width`.  May trap out-of-bounds: never dead-coded.
    Load { dst: Temp, addr: Temp, width: Width },
    /// `*(addr) = value` at `width`.
    Store {
        addr: Temp,
        value: Temp,
        width: Width,
    },
    /// `dst = lhs op rhs` at `width`.
    Binary {
        dst: Temp,
        op: BinOp,
        width: Width,
        lhs: Temp,
        rhs: Temp,
    },
    /// `dst = op src` at `width`.
    Unary {
        dst: Temp,
        op: UnOp,
        width: Width,
        src: Temp,
    },
    /// `dst = cast(src)`.
    Cast {
        dst: Temp,
        kind: CastKind,
        from: Width,
        to: Width,
        src: Temp,
    },
    /// `dst = functions[function](args…)`.
    Call {
        dst: Option<Temp>,
        function: usize,
        args: Vec<Temp>,
    },
    /// `dst = intrinsic(args…)`.
    CallIntrinsic {
        dst: Option<Temp>,
        intrinsic: Intrinsic,
        args: Vec<Temp>,
    },
    /// Statement boundary marker — the taint recorder's variable-capture
    /// hook.  Never moved or removed.
    StmtEnd { stmt: usize },
}

impl InstKind {
    /// The temp this instruction defines, if any.
    pub fn dst(&self) -> Option<Temp> {
        match self {
            InstKind::Const { dst, .. }
            | InstKind::Copy { dst, .. }
            | InstKind::FrameAddr { dst, .. }
            | InstKind::GlobalAddr { dst, .. }
            | InstKind::Load { dst, .. }
            | InstKind::Binary { dst, .. }
            | InstKind::Unary { dst, .. }
            | InstKind::Cast { dst, .. } => Some(*dst),
            InstKind::Call { dst, .. } | InstKind::CallIntrinsic { dst, .. } => *dst,
            InstKind::Store { .. } | InstKind::StmtEnd { .. } => None,
        }
    }

    /// The temps this instruction reads, in evaluation (push) order.
    pub fn operands(&self) -> Vec<Temp> {
        match self {
            InstKind::Const { .. }
            | InstKind::FrameAddr { .. }
            | InstKind::GlobalAddr { .. }
            | InstKind::StmtEnd { .. } => Vec::new(),
            InstKind::Copy { src, .. } => vec![*src],
            InstKind::Load { addr, .. } => vec![*addr],
            InstKind::Store { addr, value, .. } => vec![*addr, *value],
            InstKind::Binary { lhs, rhs, .. } => vec![*lhs, *rhs],
            InstKind::Unary { src, .. } | InstKind::Cast { src, .. } => vec![*src],
            InstKind::Call { args, .. } | InstKind::CallIntrinsic { args, .. } => args.clone(),
        }
    }

    /// Rewrites every operand through `f` (used by copy propagation).
    pub fn map_operands(&mut self, mut f: impl FnMut(Temp) -> Temp) {
        match self {
            InstKind::Const { .. }
            | InstKind::FrameAddr { .. }
            | InstKind::GlobalAddr { .. }
            | InstKind::StmtEnd { .. } => {}
            InstKind::Copy { src, .. } => *src = f(*src),
            InstKind::Load { addr, .. } => *addr = f(*addr),
            InstKind::Store { addr, value, .. } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            InstKind::Binary { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::Unary { src, .. } | InstKind::Cast { src, .. } => *src = f(*src),
            InstKind::Call { args, .. } | InstKind::CallIntrinsic { args, .. } => {
                for arg in args {
                    *arg = f(*arg);
                }
            }
        }
    }
}

/// An instruction with its source-statement attribution (for `stmt_map`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    /// The operation.
    pub kind: InstKind,
    /// The statement this instruction belongs to, if any.
    pub stmt: Option<usize>,
}

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional transfer.
    Jump(BlockId),
    /// Two-way branch: to `if_zero` when `cond` is zero, to `fallthrough`
    /// otherwise.  This is a potential check site — the VM fires a branch
    /// event here — so passes never delete one with a runtime condition.
    Branch {
        cond: Temp,
        if_zero: BlockId,
        fallthrough: BlockId,
    },
    /// Return from the function, optionally with a value.
    Return { value: Option<Temp> },
    /// Terminate the program with a status code.
    Exit { status: Temp },
}

impl Terminator {
    /// The temp the terminator consumes, if any.
    pub fn operand(&self) -> Option<Temp> {
        match self {
            Terminator::Jump(_) | Terminator::Return { value: None } => None,
            Terminator::Branch { cond, .. } => Some(*cond),
            Terminator::Return { value: Some(t) } => Some(*t),
            Terminator::Exit { status } => Some(*status),
        }
    }

    /// Successor block ids, in emission order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                if_zero,
                fallthrough,
                ..
            } => vec![*fallthrough, *if_zero],
            Terminator::Return { .. } | Terminator::Exit { .. } => Vec::new(),
        }
    }

    /// Rewrites every successor through `f` (used by jump threading).
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(t) => *t = f(*t),
            Terminator::Branch {
                if_zero,
                fallthrough,
                ..
            } => {
                *if_zero = f(*if_zero);
                *fallthrough = f(*fallthrough);
            }
            Terminator::Return { .. } | Terminator::Exit { .. } => {}
        }
    }
}

/// One basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block body.
    pub insts: Vec<Inst>,
    /// How the block ends.
    pub term: Terminator,
    /// Statement attribution of the terminator.
    pub term_stmt: Option<usize>,
}

/// A frame slot a parameter is copied into on call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrParam {
    /// Byte offset within the frame.
    pub offset: usize,
    /// Width of the parameter.
    pub width: Width,
}

/// One lowered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrFunction {
    /// Source name.
    pub name: String,
    /// Frame size in bytes: the source locals (matching the debug layout)
    /// plus any slots lowering allocated for values that must cross basic
    /// blocks (short-circuit results).  The backend may grow it further for
    /// emission spills.
    pub frame_size: usize,
    /// Parameter slots, in declaration order.
    pub params: Vec<IrParam>,
    /// Whether the function returns a value, and at what width.
    pub ret_width: Option<Width>,
    /// The CFG; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Static width of each temp, indexed by temp id.  This is the width a
    /// spill of the temp stores and reloads at; it always equals the runtime
    /// width of the value the defining instruction produces.
    pub temp_widths: Vec<Width>,
}

impl IrFunction {
    /// Static width of `temp`.
    pub fn width(&self, temp: Temp) -> Width {
        self.temp_widths[temp as usize]
    }

    /// Number of instructions across all blocks (terminators excluded).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Use count of every temp across all blocks and terminators.
    pub fn use_counts(&self) -> Vec<usize> {
        let mut uses = vec![0usize; self.temp_widths.len()];
        for block in &self.blocks {
            for inst in &block.insts {
                for t in inst.kind.operands() {
                    uses[t as usize] += 1;
                }
            }
            if let Some(t) = block.term.operand() {
                uses[t as usize] += 1;
            }
        }
        uses
    }

    /// Defining block of every temp (`None` for never-defined ids).
    pub fn def_blocks(&self) -> Vec<Option<BlockId>> {
        let mut defs = vec![None; self.temp_widths.len()];
        for (id, block) in self.blocks.iter().enumerate() {
            for inst in &block.insts {
                if let Some(d) = inst.kind.dst() {
                    defs[d as usize] = Some(id);
                }
            }
        }
        defs
    }
}

/// A whole lowered program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrProgram {
    /// Functions in source order (indices match call targets).
    pub functions: Vec<IrFunction>,
    /// Index of `main`.
    pub main: usize,
    /// Size of the global segment in bytes.
    pub globals_size: usize,
    /// Initial global values: `(offset, width, value)`.
    pub global_inits: Vec<(usize, Width, u64)>,
}

impl IrProgram {
    /// Total instruction count across all functions (terminators excluded).
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }
}
