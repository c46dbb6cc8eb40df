//! The tape an instrumented run records its tainted operations on.
//!
//! Interning every input-derived intermediate as the program runs costs a
//! hash probe, a metadata computation and a support-set union per operation,
//! and the pipeline reads only a few of those nodes: branch conditions,
//! allocation sizes and the variables in scope.  An instrumented run instead
//! appends one entry per tainted operation to a [`Tape`]: the [`SymExpr`]
//! node's shape, with earlier entries or constants as its children.  An
//! append hashes nothing and computes no metadata.  This is the Wengert list
//! of operator-overloading automatic differentiation (Griewank & Walther,
//! *Evaluating Derivatives*, 2008); TaintPipe (Ming et al., USENIX Security
//! 2015) likewise logs cheaply at run time and builds symbolic taint
//! afterwards.
//!
//! [`Tape::resolve`] interns an entry, and the entries it reaches, the first
//! time it is read, and memoises the node per entry.  Interning is canonical
//! within an arena epoch, so a resolved entry is the very node that interning
//! each operation as it ran would have built in that epoch.  The builders
//! follow [`ExprBuild`](crate::ExprBuild)'s rules — a cast to the width a
//! value already has is the value itself, and a comparison or a logical
//! negation is byte-wide — so that equality holds entry for entry.
//!
//! Every entry depends on at least one input byte: leaves are input bytes,
//! and each other entry has an entry among its children.  A resolved entry
//! is therefore always tainted.

use crate::expr::{ExprRef, SymExpr};
use crate::op::{BinOp, CastKind, UnOp};
use crate::width::Width;
use std::cell::RefCell;

/// The handle of one [`Tape`] entry: its position on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TapeRef(u32);

impl TapeRef {
    /// The entry's position on its tape.
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A child of a tape entry: an earlier entry, or a constant of a width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// An earlier entry of the same tape.
    Entry(TapeRef),
    /// A constant, truncated to its width when resolved.
    Const(Width, u64),
}

/// One recorded operation: a [`SymExpr`] shape over tape operands.
#[derive(Debug, Clone, Copy)]
enum Entry {
    InputByte(usize),
    Unary {
        op: UnOp,
        width: Width,
        arg: TapeRef,
    },
    Binary {
        op: BinOp,
        width: Width,
        lhs: Operand,
        rhs: Operand,
    },
    Cast {
        kind: CastKind,
        width: Width,
        arg: TapeRef,
    },
}

/// The operations of one instrumented run, in execution order, with the
/// node each entry resolved to once read.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    entries: Vec<Entry>,
    /// The interned node of each entry read so far; grows on demand up to
    /// the highest entry read.
    resolved: RefCell<Vec<Option<ExprRef>>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The width of the value entry `r` denotes.
    #[inline]
    pub fn width(&self, r: TapeRef) -> Width {
        match self.entries[r.index()] {
            Entry::InputByte(_) => Width::W8,
            Entry::Unary { width, .. }
            | Entry::Binary { width, .. }
            | Entry::Cast { width, .. } => width,
        }
    }

    #[inline]
    fn push(&mut self, entry: Entry) -> TapeRef {
        let len = self.entries.len();
        let r = TapeRef(u32::try_from(len).expect("tape exhausted u32 indices"));
        if len == self.entries.capacity() {
            // Start at 64 entries rather than four.
            self.entries.reserve(len.max(64));
        }
        self.entries.push(entry);
        r
    }

    /// Records input byte `offset`, as [`SymExpr::input_byte`] builds it.
    #[inline]
    pub fn input_byte(&mut self, offset: usize) -> TapeRef {
        self.push(Entry::InputByte(offset))
    }

    /// Records `op` with result width `width`, as [`SymExpr::binary`] builds
    /// it.  At least one operand should be an entry: a tape records only
    /// input-derived values.
    #[inline]
    pub fn binary(&mut self, op: BinOp, width: Width, lhs: Operand, rhs: Operand) -> TapeRef {
        self.push(Entry::Binary {
            op,
            width,
            lhs,
            rhs,
        })
    }

    /// Records `lhs op rhs` at `lhs`'s width (a byte for comparisons), as
    /// [`ExprBuild::binop`](crate::ExprBuild::binop) builds it.
    #[inline]
    pub fn binop(&mut self, op: BinOp, lhs: TapeRef, rhs: Operand) -> TapeRef {
        let width = if op.is_comparison() {
            Width::W8
        } else {
            self.width(lhs)
        };
        self.binary(op, width, Operand::Entry(lhs), rhs)
    }

    /// Records `op arg` at `arg`'s width (a byte for logical negation), as
    /// [`ExprBuild::unop`](crate::ExprBuild::unop) builds it.
    #[inline]
    pub fn unop(&mut self, op: UnOp, arg: TapeRef) -> TapeRef {
        let width = if op == UnOp::LogicalNot {
            Width::W8
        } else {
            self.width(arg)
        };
        self.push(Entry::Unary { op, width, arg })
    }

    /// Records a cast of `arg` to `width`, or returns `arg` when it already
    /// has that width, as [`ExprBuild`](crate::ExprBuild)'s `zext`, `sext`
    /// and `truncate` do.
    #[inline]
    pub fn cast(&mut self, kind: CastKind, width: Width, arg: TapeRef) -> TapeRef {
        if self.width(arg) == width {
            return arg;
        }
        self.push(Entry::Cast { kind, width, arg })
    }

    /// The interned node of entry `r`.
    ///
    /// Interns `r` and every entry it reaches that was not read before,
    /// children first with an explicit work stack, so a loop-carried chain
    /// of any depth resolves without deep recursion.  The nodes belong to the
    /// calling thread's current arena epoch, under [`ExprRef`]'s ownership
    /// rule; a tape must not be read after the epoch it was recorded in.
    pub fn resolve(&self, r: TapeRef) -> ExprRef {
        let mut resolved = self.resolved.borrow_mut();
        if resolved.len() <= r.index() {
            // Children precede their parents, so this covers all of them.
            resolved.resize(self.entries.len(), None);
        }
        if let Some(node) = resolved[r.index()] {
            return node;
        }
        // Entries waiting for a child; empty (and unallocated) whenever the
        // children were read before, as they are for a tape read in order.
        let mut waiting = Vec::new();
        let mut top = r;
        loop {
            let entry = self.entries[top.index()];
            if let Some(child) = children(&entry).find(|c| resolved[c.index()].is_none()) {
                waiting.push(top);
                top = child;
                continue;
            }
            let node = |child: TapeRef| resolved[child.index()].expect("children resolve first");
            let operand = |operand: Operand| match operand {
                Operand::Entry(child) => node(child),
                Operand::Const(width, value) => SymExpr::constant(width, value),
            };
            let expr = match entry {
                Entry::InputByte(offset) => SymExpr::input_byte(offset),
                Entry::Unary { op, width, arg } => SymExpr::unary(op, width, node(arg)),
                Entry::Binary {
                    op,
                    width,
                    lhs,
                    rhs,
                } => SymExpr::binary(op, width, operand(lhs), operand(rhs)),
                Entry::Cast { kind, width, arg } => SymExpr::cast(kind, width, node(arg)),
            };
            resolved[top.index()] = Some(expr);
            match waiting.pop() {
                Some(parent) => top = parent,
                None => return expr,
            }
        }
    }
}

/// The entries `entry` reads, in order.
fn children(entry: &Entry) -> impl Iterator<Item = TapeRef> {
    let (a, b) = match *entry {
        Entry::InputByte(_) => (None, None),
        Entry::Unary { arg, .. } | Entry::Cast { arg, .. } => (Some(arg), None),
        Entry::Binary { lhs, rhs, .. } => {
            let entry = |operand| match operand {
                Operand::Entry(child) => Some(child),
                Operand::Const(..) => None,
            };
            (entry(lhs), entry(rhs))
        }
    };
    a.into_iter().chain(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExprArena;
    use crate::expr::ExprBuild;

    #[test]
    fn a_resolved_entry_is_the_node_eager_building_interns() {
        let mut tape = Tape::new();
        let byte = tape.input_byte(3);
        let wide = tape.cast(CastKind::ZeroExt, Width::W32, byte);
        let scaled = tape.binop(BinOp::Mul, wide, Operand::Const(Width::W32, 4));
        let cmp = tape.binary(
            BinOp::LtU,
            Width::W8,
            Operand::Const(Width::W32, 0x1_0000_0010),
            Operand::Entry(scaled),
        );
        let not = tape.unop(UnOp::LogicalNot, cmp);

        let eager_scaled = SymExpr::input_byte(3)
            .zext(Width::W32)
            .binop(BinOp::Mul, SymExpr::constant(Width::W32, 4));
        let eager_cmp = SymExpr::constant(Width::W32, 0x10).binop(BinOp::LtU, eager_scaled);
        assert_eq!(tape.resolve(not), eager_cmp.unop(UnOp::LogicalNot));
        assert_eq!(tape.resolve(scaled), eager_scaled);
        assert_eq!(tape.width(cmp), Width::W8);
    }

    #[test]
    fn a_cast_to_the_same_width_records_nothing() {
        let mut tape = Tape::new();
        let byte = tape.input_byte(0);
        assert_eq!(tape.cast(CastKind::Truncate, Width::W8, byte), byte);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn recording_interns_nothing_and_reading_interns_only_what_is_reached() {
        let _epoch = crate::ArenaEpoch::begin();
        ExprArena::reset();
        let mut tape = Tape::new();
        let mut sum = tape.input_byte(0);
        for offset in 1..100 {
            let byte = tape.input_byte(offset);
            sum = tape.binop(BinOp::Add, sum, Operand::Entry(byte));
        }
        let first = tape.binop(BinOp::Add, TapeRef(0), Operand::Entry(TapeRef(1)));
        assert_eq!(ExprArena::node_count(), 0, "appending interns nothing");
        tape.resolve(first);
        assert_eq!(ExprArena::node_count(), 3, "two leaves and their sum");
        // The chain's first sum is the same node; the rest are new.
        tape.resolve(sum);
        assert_eq!(ExprArena::node_count(), 3 + 2 * 98);
    }

    #[test]
    fn deep_chains_resolve_without_recursion() {
        let mut tape = Tape::new();
        let mut acc = tape.input_byte(0);
        for _ in 0..100_000 {
            acc = tape.binop(BinOp::Add, acc, Operand::Const(Width::W8, 1));
        }
        assert_eq!(tape.resolve(acc).op_count(), 100_000);
    }
}
