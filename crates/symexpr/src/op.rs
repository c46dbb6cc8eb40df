//! Operators appearing in symbolic expressions.
//!
//! The operator vocabulary matches what the Code Phage instrumentation
//! observes in the donor binary: integer arithmetic, bitwise logic, shifts,
//! comparisons (which produce a 0/1 value, as in the underlying machine code)
//! and the width-changing casts the paper writes as `ToSize` / `Shrink`.

use std::fmt;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Logical negation: `1` if the operand is zero, `0` otherwise.
    LogicalNot,
}

impl UnOp {
    /// Every unary operator, in declaration order (`ALL[op as usize] == op`).
    pub const ALL: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::LogicalNot];

    /// Human-readable mnemonic used in the paper-style rendering.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "Neg",
            UnOp::Not => "BvNot",
            UnOp::LogicalNot => "LNot",
        }
    }

    /// C-like operator token for patch generation.
    pub fn c_token(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
            UnOp::LogicalNot => "!",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (division by zero evaluates to all-ones, as most
    /// solvers define it; the VM traps before this can be observed).
    DivU,
    /// Signed division.
    DivS,
    /// Unsigned remainder.
    RemU,
    /// Signed remainder.
    RemS,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Logical (unsigned) right shift.
    ShrU,
    /// Arithmetic (signed) right shift.
    ShrS,
    /// Equality comparison (result 0/1).
    Eq,
    /// Inequality comparison (result 0/1).
    Ne,
    /// Unsigned less-than (result 0/1).
    LtU,
    /// Unsigned less-or-equal (result 0/1).
    LeU,
    /// Signed less-than (result 0/1).
    LtS,
    /// Signed less-or-equal (result 0/1).
    LeS,
}

impl BinOp {
    /// Every binary operator, in declaration order (`ALL[op as usize] ==
    /// op`).
    pub const ALL: [BinOp; 19] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::DivU,
        BinOp::DivS,
        BinOp::RemU,
        BinOp::RemS,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::ShrU,
        BinOp::ShrS,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::LtU,
        BinOp::LeU,
        BinOp::LtS,
        BinOp::LeS,
    ];

    /// Whether the operator is commutative (used for canonical ordering).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        )
    }

    /// Whether the operator produces a 0/1 comparison result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::LtU | BinOp::LeU | BinOp::LtS | BinOp::LeS
        )
    }

    /// Human-readable mnemonic used in the paper-style rendering.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "Add",
            BinOp::Sub => "Sub",
            BinOp::Mul => "Mul",
            BinOp::DivU => "Div",
            BinOp::DivS => "SDiv",
            BinOp::RemU => "Rem",
            BinOp::RemS => "SRem",
            BinOp::And => "BvAnd",
            BinOp::Or => "BvOr",
            BinOp::Xor => "BvXor",
            BinOp::Shl => "Shl",
            BinOp::ShrU => "UShr",
            BinOp::ShrS => "SShr",
            BinOp::Eq => "Equal",
            BinOp::Ne => "NotEqual",
            BinOp::LtU => "ULess",
            BinOp::LeU => "ULessEqual",
            BinOp::LtS => "SLess",
            BinOp::LeS => "SLessEqual",
        }
    }

    /// C-like operator token for patch generation.  Signedness of division,
    /// shifts and comparisons is conveyed by casts emitted around operands.
    pub fn c_token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::DivU | BinOp::DivS => "/",
            BinOp::RemU | BinOp::RemS => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::ShrU | BinOp::ShrS => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LtU | BinOp::LtS => "<",
            BinOp::LeU | BinOp::LeS => "<=",
        }
    }
}

/// Width-changing casts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CastKind {
    /// Zero extension to a wider type (the paper's `ToSize` on unsigned data).
    ZeroExt,
    /// Sign extension to a wider type.
    SignExt,
    /// Truncation to a narrower type (the paper's `Shrink`).
    Truncate,
}

impl CastKind {
    /// Every cast, in declaration order (`ALL[kind as usize] == kind`).
    pub const ALL: [CastKind; 3] = [CastKind::ZeroExt, CastKind::SignExt, CastKind::Truncate];

    /// Human-readable mnemonic used in the paper-style rendering.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::ZeroExt => "ToSize",
            CastKind::SignExt => "SignExtend",
            CastKind::Truncate => "Shrink",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for CastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity_classification() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(!BinOp::LeU.is_commutative());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::LeU.is_comparison());
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn operator_tables_are_indexed_by_discriminant() {
        // The solver's memo key records operators by discriminant and its
        // lane kernel decodes them through these tables.
        assert!(UnOp::ALL
            .iter()
            .enumerate()
            .all(|(i, &op)| op as usize == i));
        assert!(BinOp::ALL
            .iter()
            .enumerate()
            .all(|(i, &op)| op as usize == i));
        assert!(CastKind::ALL
            .iter()
            .enumerate()
            .all(|(i, &kind)| kind as usize == i));
    }

    #[test]
    fn mnemonics_follow_paper_vocabulary() {
        assert_eq!(BinOp::LeU.mnemonic(), "ULessEqual");
        assert_eq!(BinOp::ShrS.mnemonic(), "SShr");
        assert_eq!(CastKind::Truncate.mnemonic(), "Shrink");
        assert_eq!(CastKind::ZeroExt.mnemonic(), "ToSize");
    }
}
