//! # cp-formats
//!
//! Input-format descriptors and byte-to-field folding.
//!
//! The paper runs the Hachoir dissector over the error-triggering input to
//! name the byte ranges the input format defines (Section 3.2): a check over
//! raw bytes like `(b4 << 8) | b5` becomes a check over the named field
//! `HachField(16, '/start_frame/content/height')`.  This crate provides the
//! same mapping for the synthetic formats of this reproduction: a
//! [`FormatDescriptor`] lists the fields of a format, and [`fold_fields`]
//! rewrites a symbolic expression so that any subexpression equal to the
//! big-endian concatenation of one field's bytes becomes a single
//! [`SymExpr::Field`] leaf.

use cp_symexpr::bytes::{decompose, ByteVal};
use cp_symexpr::{walk, ExprBuild, ExprRef, SymExpr, Width};

/// One named field of an input format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Hierarchical field path, e.g. `/sof/height`.
    pub path: String,
    /// Width of the field value.
    pub width: Width,
    /// Input byte offsets covered by the field, most significant first
    /// (fields are big-endian, as in the synthetic formats).
    pub offsets: Vec<usize>,
}

impl FieldSpec {
    /// Creates a field spec; the width is derived from the offset count.
    ///
    /// # Panics
    ///
    /// Panics if the offset count is not 1, 2, 4 or 8 bytes.
    pub fn new(path: impl Into<String>, offsets: Vec<usize>) -> Self {
        let width = Width::from_bytes(offsets.len()).expect("field sizes are 1, 2, 4 or 8 bytes");
        FieldSpec {
            path: path.into(),
            width,
            offsets,
        }
    }
}

/// A format descriptor: the fields a dissector reports for one input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FormatDescriptor {
    /// The fields of the format, in file order.
    pub fields: Vec<FieldSpec>,
}

impl FormatDescriptor {
    /// Creates an empty descriptor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field covering the given big-endian byte offsets.
    pub fn field(mut self, path: impl Into<String>, offsets: Vec<usize>) -> Self {
        self.fields.push(FieldSpec::new(path, offsets));
        self
    }

    /// The field covering exactly the given offsets, if any.
    pub fn field_for(&self, offsets: &[usize]) -> Option<&FieldSpec> {
        self.fields.iter().find(|f| f.offsets == offsets)
    }

    /// Folds raw input-byte subexpressions of `expr` into named field leaves.
    pub fn fold(&self, expr: &ExprRef) -> ExprRef {
        fold_fields(expr, self)
    }
}

/// Rewrites `expr`, replacing every subexpression that is byte-for-byte the
/// big-endian concatenation of one field of `format` (possibly zero-padded
/// above) with a [`SymExpr::Field`] leaf, zero-extended to the width of the
/// replaced subexpression.
///
/// Iterative bottom-up pass (via [`cp_symexpr::walk::rebuild`], memoised per
/// interned node): the widest match wins exactly as in the old top-down
/// recursion — folding a child never defeats a parent match, because
/// `decompose` expands field leaves back into their input bytes — and
/// loop-carried expressions hundreds of thousands of nodes deep fold without
/// overflowing the call stack.
pub fn fold_fields(expr: &ExprRef, format: &FormatDescriptor) -> ExprRef {
    walk::rebuild(
        expr,
        |_| None,
        |rebuilt| match_field(&rebuilt, format).unwrap_or(rebuilt),
    )
}

/// If `expr` denotes exactly one field of `format` (its low bytes are the
/// field's bytes in little-endian position and every byte above is a constant
/// zero), returns the field leaf at the expression's width.
fn match_field(expr: &ExprRef, format: &FormatDescriptor) -> Option<ExprRef> {
    let bytes = decompose(expr)?;
    for spec in &format.fields {
        if matches_spec(&bytes, spec) {
            let leaf = SymExpr::field(spec.path.clone(), spec.width, spec.offsets.clone());
            return Some(leaf.zext(expr.width()));
        }
    }
    None
}

fn matches_spec(bytes: &[ByteVal], spec: &FieldSpec) -> bool {
    let n = spec.offsets.len();
    if bytes.len() < n {
        return false;
    }
    // Byte vectors are least-significant first; field offsets are most
    // significant first.
    for (i, byte) in bytes[..n].iter().enumerate() {
        let expected = spec.offsets[n - 1 - i];
        if *byte != ByteVal::Input(expected) {
            return false;
        }
    }
    bytes[n..].iter().all(|b| b.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::display::paper_format;
    use cp_symexpr::{eval::eval, BinOp};

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    fn header() -> FormatDescriptor {
        FormatDescriptor::new()
            .field("/hdr/width", vec![0, 1])
            .field("/hdr/height", vec![2, 3])
    }

    #[test]
    fn folds_big_endian_reads_into_field_leaves() {
        let expr = be16(0, 1).binop(BinOp::LeU, SymExpr::constant(Width::W16, 16384));
        let folded = header().fold(&expr);
        assert_eq!(
            paper_format(&folded),
            "ULessEqual(8,HachField(16,'/hdr/width'),Constant(16384))"
        );
    }

    #[test]
    fn folding_preserves_value() {
        let expr = be16(2, 3)
            .zext(Width::W64)
            .binop(BinOp::Mul, be16(0, 1).zext(Width::W64));
        let folded = header().fold(&expr);
        for input in [[0x01u8, 0x02, 0x03, 0x04], [0xFF, 0xFF, 0x00, 0x10]] {
            assert_eq!(eval(&expr, &input[..]), eval(&folded, &input[..]));
        }
    }

    #[test]
    fn unrelated_bytes_are_left_alone() {
        let expr = be16(4, 5);
        let folded = header().fold(&expr);
        assert_eq!(paper_format(&expr), paper_format(&folded));
    }

    #[test]
    fn partial_field_reads_do_not_fold() {
        // Only the low byte of /hdr/width — not the whole field.
        let expr: ExprRef = SymExpr::input_byte(1).zext(Width::W16);
        let folded = header().fold(&expr);
        assert!(paper_format(&folded).contains("InputByte(1)"));
    }

    #[test]
    fn deep_chains_fold_without_stack_overflow() {
        // 100k nested adds above a foldable field read would overflow a
        // recursive folding pass (and the decompose probes it makes).
        let mut e = be16(0, 1).zext(Width::W64);
        for _ in 0..100_000u32 {
            e = e.binop(BinOp::Add, SymExpr::constant(Width::W64, 3));
        }
        let folded = header().fold(&e);
        let rendered = paper_format(&folded);
        assert!(rendered.contains("HachField(16,'/hdr/width')"));
        let input = vec![0x01u8, 0x10];
        assert_eq!(eval(&e, &input), eval(&folded, &input));
    }

    #[test]
    fn field_lookup_by_offsets() {
        let format = header();
        assert_eq!(format.field_for(&[0, 1]).unwrap().path, "/hdr/width");
        assert!(format.field_for(&[1, 2]).is_none());
    }
}
