//! Byte-level decomposition of symbolic expressions.
//!
//! The Figure 5 rewrite rules of the paper simplify expressions produced by
//! bit-manipulation operations (shifts, masks, ors) that extract, align or
//! combine bytes — most prominently the endianness conversions applications
//! perform while parsing input headers.  The rules are stated in the paper for
//! 16-bit operands built from two independent 8-bit bytes (`E ≡ [b1, b2]`) and
//! the text notes that CP implements "similar rules for other combinations of
//! operand sizes".
//!
//! We implement the generalisation directly: [`decompose`] recognises when an
//! expression is, byte for byte, a concatenation of independent 8-bit values
//! and known constant bytes, and [`recompose`] rebuilds the smallest expression
//! denoting a given byte vector.  Shifting by multiples of eight, masking with
//! byte masks, or-ing disjoint bytes, zero extension and truncation all become
//! simple vector operations, which is exactly what disentangles adjacent input
//! fields read into the same machine word.
//!
//! Decomposition results are memoised per interned node (a byte vector is at
//! most eight entries, so caching is cheap): the simplifier probes
//! `decompose` at every combined node, and without the memo that re-walks
//! shared subtrees into a quadratic pass over long traces.

use crate::expr::{ExprBuild, ExprRef, SymExpr};
use crate::op::{BinOp, CastKind};
use crate::width::Width;
use std::cell::RefCell;
use std::collections::HashMap;

/// One byte of a decomposed value, least-significant byte first in a
/// [`ByteVector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByteVal {
    /// A byte whose value is a known constant.
    Known(u8),
    /// Input byte `offset`: the [`SymExpr::InputByte`] leaf, named without
    /// interning it.  Every symbolic byte [`decompose`] finds is one.
    Input(usize),
    /// A byte equal to an 8-bit symbolic expression.
    Sym(ExprRef),
}

impl ByteVal {
    /// Whether the byte is the constant zero.
    pub fn is_zero(&self) -> bool {
        matches!(self, ByteVal::Known(0))
    }
}

/// A value decomposed into bytes, least significant first.
pub type ByteVector = Vec<ByteVal>;

/// The decomposition memo for one arena generation — keyed by the dense node
/// id and stamped with the arena identity, so an arena reset (which may
/// recycle both addresses and ids) can never serve a stale entry.
#[derive(Default)]
struct Memo {
    stamp: crate::arena::memo::Stamp,
    map: HashMap<u32, Option<ByteVector>>,
}

thread_local! {
    /// Per-thread memo: node id → decomposition (or proof that none
    /// exists), scoped to one arena epoch.
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
}

/// Attempts to decompose `expr` into independent bytes.
///
/// Returns `None` if the expression mixes bytes in a way that cannot be
/// tracked at byte granularity (e.g. through addition or multiplication of
/// symbolic operands), mirroring the paper's restriction that the rules only
/// apply when the operand is a concatenation of independent bytes.
pub fn decompose(expr: &ExprRef) -> Option<ByteVector> {
    let key = expr.id().index();
    let hit = MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        crate::arena::memo::roll(&mut memo.stamp, &mut memo.map);
        memo.map.get(&key).cloned()
    });
    if let Some(hit) = hit {
        return hit;
    }
    let result = decompose_node(expr);
    MEMO.with(|memo| {
        let memo = &mut *memo.borrow_mut();
        crate::arena::memo::roll(&mut memo.stamp, &mut memo.map);
        memo.map.insert(key, result.clone());
    });
    result
}

fn decompose_node(expr: &ExprRef) -> Option<ByteVector> {
    match expr.as_ref() {
        SymExpr::Const { width, value } => {
            let mut out = Vec::with_capacity(width.bytes());
            for i in 0..width.bytes() {
                out.push(ByteVal::Known(((value >> (8 * i)) & 0xFF) as u8));
            }
            Some(out)
        }
        SymExpr::InputByte { offset } => Some(vec![ByteVal::Input(*offset)]),
        SymExpr::Field { width, offsets, .. } => {
            // Fields are big-endian: the last offset is the least significant
            // byte.  Only decompose when the field covers exactly its width.
            if offsets.len() != width.bytes() {
                return None;
            }
            Some(
                offsets
                    .iter()
                    .rev()
                    .map(|&off| ByteVal::Input(off))
                    .collect(),
            )
        }
        SymExpr::Cast { kind, width, arg } => {
            let mut inner = decompose(arg)?;
            match kind {
                CastKind::ZeroExt | CastKind::Truncate => Some(pad(inner, width.bytes())),
                CastKind::SignExt => {
                    // Only safe when the top byte is a known constant whose
                    // sign bit determines the extension.
                    match inner.last() {
                        Some(ByteVal::Known(b)) => {
                            let fill = if b & 0x80 != 0 { 0xFF } else { 0x00 };
                            while inner.len() < width.bytes() {
                                inner.push(ByteVal::Known(fill));
                            }
                            inner.truncate(width.bytes());
                            Some(inner)
                        }
                        _ => None,
                    }
                }
            }
        }
        SymExpr::Binary {
            op,
            width,
            lhs,
            rhs,
        } => match op {
            BinOp::Or | BinOp::Xor | BinOp::Add => {
                // Or / xor / add of byte-disjoint values behaves as a
                // concatenation: whenever at least one side of each byte is a
                // known zero there can be no carries or overlaps.
                let a = pad(decompose(lhs)?, width.bytes());
                let b = pad(decompose(rhs)?, width.bytes());
                let mut out = Vec::with_capacity(width.bytes());
                for (x, y) in a.into_iter().zip(b) {
                    out.push(match (x, y) {
                        (ByteVal::Known(p), ByteVal::Known(q)) => match op {
                            BinOp::Or => ByteVal::Known(p | q),
                            BinOp::Xor => ByteVal::Known(p ^ q),
                            _ => {
                                if p == 0 {
                                    ByteVal::Known(q)
                                } else if q == 0 {
                                    ByteVal::Known(p)
                                } else {
                                    return None;
                                }
                            }
                        },
                        (ByteVal::Known(0), other) | (other, ByteVal::Known(0)) => other,
                        _ => return None,
                    });
                }
                Some(out)
            }
            BinOp::Shl => {
                let amount = rhs.as_const()?;
                if amount % 8 != 0 {
                    return None;
                }
                let shift_bytes = (amount / 8) as usize;
                let inner = pad(decompose(lhs)?, width.bytes());
                let mut out = vec![ByteVal::Known(0); shift_bytes.min(width.bytes())];
                for byte in inner
                    .into_iter()
                    .take(width.bytes().saturating_sub(shift_bytes))
                {
                    out.push(byte);
                }
                out.truncate(width.bytes());
                Some(pad(out, width.bytes()))
            }
            BinOp::ShrU => {
                let amount = rhs.as_const()?;
                if amount % 8 != 0 {
                    return None;
                }
                let shift_bytes = (amount / 8) as usize;
                let inner = pad(decompose(lhs)?, width.bytes());
                let out: ByteVector = inner.into_iter().skip(shift_bytes).collect();
                Some(pad(out, width.bytes()))
            }
            BinOp::And => {
                let (value_side, mask) = if let Some(m) = rhs.as_const() {
                    (lhs, m)
                } else if let Some(m) = lhs.as_const() {
                    (rhs, m)
                } else {
                    return None;
                };
                if !is_byte_mask(mask, *width) {
                    return None;
                }
                let inner = pad(decompose(value_side)?, width.bytes());
                let mut out = Vec::with_capacity(width.bytes());
                for (i, byte) in inner.into_iter().enumerate() {
                    let mask_byte = ((mask >> (8 * i)) & 0xFF) as u8;
                    out.push(if mask_byte == 0xFF {
                        byte
                    } else {
                        ByteVal::Known(0)
                    });
                }
                Some(out)
            }
            _ => None,
        },
        SymExpr::Unary { .. } => None,
    }
}

fn pad(mut bytes: ByteVector, len: usize) -> ByteVector {
    while bytes.len() < len {
        bytes.push(ByteVal::Known(0));
    }
    bytes.truncate(len);
    bytes
}

/// Whether every byte of `mask` (at `width`) is either `0x00` or `0xFF`.
pub fn is_byte_mask(mask: u64, width: Width) -> bool {
    (0..width.bytes()).all(|i| {
        let b = (mask >> (8 * i)) & 0xFF;
        b == 0 || b == 0xFF
    })
}

/// Rebuilds the smallest expression denoting `bytes` at width `width`.
pub fn recompose(bytes: &[ByteVal], width: Width) -> ExprRef {
    debug_assert_eq!(bytes.len(), width.bytes());
    let mut constant: u64 = 0;
    let mut symbolic: Vec<(usize, ExprRef)> = Vec::new();
    for (i, byte) in bytes.iter().enumerate() {
        match byte {
            ByteVal::Known(b) => constant |= (*b as u64) << (8 * i),
            ByteVal::Input(offset) => symbolic.push((i, SymExpr::input_byte(*offset))),
            ByteVal::Sym(e) => symbolic.push((i, *e)),
        }
    }
    let mut acc: Option<ExprRef> = None;
    for (pos, e) in symbolic {
        let widened = e.zext(width);
        let shifted = if pos == 0 {
            widened
        } else {
            widened.binop(BinOp::Shl, SymExpr::constant(width, (8 * pos) as u64))
        };
        acc = Some(match acc {
            None => shifted,
            Some(prev) => prev.binop(BinOp::Or, shifted),
        });
    }
    match acc {
        None => SymExpr::constant(width, constant),
        Some(e) if constant == 0 => e,
        Some(e) => e.binop(BinOp::Or, SymExpr::constant(width, constant)),
    }
}

/// The operation count of [`recompose`]`(bytes, width)`, computed without
/// interning anything: a caller that keeps the recomposition only when it is
/// smaller decides first.
pub(crate) fn recomposed_ops(bytes: &[ByteVal], width: Width) -> usize {
    let mut ops = 0usize;
    let mut symbolic = 0usize;
    let mut constant = false;
    for (pos, byte) in bytes.iter().enumerate() {
        let (inner, byte_width) = match byte {
            ByteVal::Known(b) => {
                constant |= *b != 0;
                continue;
            }
            ByteVal::Input(_) => (0, Width::W8),
            ByteVal::Sym(e) => (e.op_count(), e.width()),
        };
        // The byte, its zero extension and its shift into place.
        ops = ops
            .saturating_add(inner)
            .saturating_add(usize::from(byte_width != width))
            .saturating_add(usize::from(pos != 0));
        symbolic += 1;
    }
    // One `or` joins each further symbolic byte, and one the constant.
    ops.saturating_add(symbolic.saturating_sub(1))
        .saturating_add(usize::from(constant && symbolic > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;

    fn be16(hi_off: usize, lo_off: usize) -> ExprRef {
        let hi = SymExpr::input_byte(hi_off).zext(Width::W16);
        let lo = SymExpr::input_byte(lo_off).zext(Width::W16);
        hi.binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, lo)
    }

    #[test]
    fn decomposes_big_endian_concatenation() {
        let e = be16(0, 1);
        let bytes = decompose(&e).expect("decomposable");
        assert_eq!(bytes.len(), 2);
        assert_eq!(bytes[0], ByteVal::Input(1));
        assert_eq!(bytes[1], ByteVal::Input(0));
    }

    #[test]
    fn low_byte_mask_selects_low_byte() {
        // Fig. 5 rule 1 analogue: And([b1,b2], 0xFF) == zext(b2).
        let e = be16(0, 1).binop(BinOp::And, SymExpr::constant(Width::W16, 0xFF));
        let bytes = decompose(&e).unwrap();
        assert_eq!(bytes[0], ByteVal::Input(1));
        assert!(bytes[1].is_zero());
    }

    #[test]
    fn high_byte_shift_selects_high_byte() {
        // Fig. 5 rule 2 analogue: Shr([b1,b2], 8) == zext(b1).
        let e = be16(4, 5).binop(BinOp::ShrU, SymExpr::constant(Width::W16, 8));
        let bytes = decompose(&e).unwrap();
        assert_eq!(bytes[0], ByteVal::Input(4));
        assert!(bytes[1].is_zero());
    }

    #[test]
    fn or_into_vacated_position_rebuilds_pair() {
        // Fig. 5 rules 3/4 analogue: BvOr(zext(b1) << 8, Shr([b2,b3],8)) == [b2, b1].
        let shifted = SymExpr::input_byte(9)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8));
        let survivor = be16(2, 3).binop(BinOp::ShrU, SymExpr::constant(Width::W16, 8));
        let combined = shifted.binop(BinOp::Or, survivor);
        let bytes = decompose(&combined).unwrap();
        assert_eq!(bytes[0], ByteVal::Input(2));
        assert_eq!(bytes[1], ByteVal::Input(9));
    }

    #[test]
    fn multiplication_does_not_decompose() {
        let a = SymExpr::input_byte(0).zext(Width::W16);
        let b = SymExpr::input_byte(1).zext(Width::W16);
        assert!(decompose(&a.binop(BinOp::Mul, b)).is_none());
    }

    #[test]
    fn overlapping_or_does_not_decompose() {
        let a = SymExpr::input_byte(0).zext(Width::W16);
        let b = SymExpr::input_byte(1).zext(Width::W16);
        assert!(decompose(&a.binop(BinOp::Or, b)).is_none());
    }

    #[test]
    fn negative_results_are_memoised_too() {
        let a = SymExpr::input_byte(0).zext(Width::W16);
        let b = SymExpr::input_byte(1).zext(Width::W16);
        let product = a.binop(BinOp::Mul, b);
        assert!(decompose(&product).is_none());
        // The second query must come from the memo (same answer either way;
        // this asserts the cached negative is returned, not recomputed as
        // something else).
        assert!(decompose(&product).is_none());
    }

    #[test]
    fn recompose_preserves_semantics() {
        let e = be16(0, 1)
            .binop(BinOp::And, SymExpr::constant(Width::W16, 0xFF00))
            .binop(BinOp::ShrU, SymExpr::constant(Width::W16, 8));
        let bytes = decompose(&e).unwrap();
        let rebuilt = recompose(&bytes, Width::W16);
        let input = vec![0xABu8, 0xCD];
        assert_eq!(eval(&e, &input), eval(&rebuilt, &input));
        assert_eq!(eval(&rebuilt, &input), 0xAB);
    }

    #[test]
    fn recomposed_ops_counts_what_recompose_builds() {
        let wide = be16(0, 1).binop(BinOp::Mul, be16(2, 3));
        let narrow = wide.truncate(Width::W8);
        let vectors = [
            (vec![ByteVal::Known(7), ByteVal::Known(0)], Width::W16),
            (vec![ByteVal::Input(3), ByteVal::Known(0)], Width::W16),
            (vec![ByteVal::Input(3)], Width::W8),
            (vec![ByteVal::Known(1), ByteVal::Input(3)], Width::W16),
            (
                vec![
                    ByteVal::Input(0),
                    ByteVal::Sym(narrow),
                    ByteVal::Known(0x80),
                    ByteVal::Input(9),
                ],
                Width::W32,
            ),
        ];
        for (bytes, width) in vectors {
            let ops = recomposed_ops(&bytes, width);
            assert_eq!(ops, recompose(&bytes, width).op_count(), "{bytes:?}");
        }
    }

    #[test]
    fn byte_mask_detection() {
        assert!(is_byte_mask(0xFF00, Width::W16));
        assert!(is_byte_mask(0x00FF_FF00, Width::W32));
        assert!(!is_byte_mask(0x0FF0, Width::W16));
    }

    #[test]
    fn zero_extension_pads_with_known_zero() {
        let e = be16(0, 1).zext(Width::W32);
        let bytes = decompose(&e).unwrap();
        assert_eq!(bytes.len(), 4);
        assert!(bytes[2].is_zero());
        assert!(bytes[3].is_zero());
    }
}
