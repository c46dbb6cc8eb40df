//! The ladder's bounds rung: a bound-guided witness for goals whose
//! conjuncts cap byte assemblies from above.
//!
//! A parser's range check `if (width > 4095) exit(…)` reaches discovery as
//! the path fact `Eq(LtU(4095, width), 0)` over a field the program
//! assembled from input bytes.  The blast rung sees such a fact only as a
//! comparator circuit, so the CDCL has to learn that the field's high bits
//! are zero before it can look for an overflow.  An overflow goal behind
//! range checks is, however, usually satisfied where every bounded field
//! takes its maximum: the corner of the box its bounds describe.  This rung
//! evaluates that one corner before any gate is built, the word-level
//! reasoning STP applies before bit-blasting (Ganesh & Dill, CAV 2007).
//!
//! The rung reads each top-level `And` conjunct of the simplified goal that
//! bounds a byte assembly `x` from above:
//!
//! * `LeU(x, c)`;
//! * `LtU(x, c)`, read as `x ≤ c − 1`;
//! * `Eq(LtU(c, x), 0)`, which a not-taken `if (x > c)` records.
//!
//! `x` places distinct input bytes at distinct multiples of 8 bits through
//! zero-extensions, constant left shifts and `Or`s, as `read_u16` does.
//! Each bounded `x` takes the largest value `≤ c` it can hold; each byte
//! keeps the smallest value any bound asks of it, and a byte no bound
//! mentions reads `0xFF`.  The corner is only a candidate: the whole goal is
//! evaluated on it, so the rung answers `Sat` or nothing, never `Unsat`, and
//! a corner that fails the goal falls through to bit-blasting.

use std::sync::OnceLock;

use cp_symexpr::{BinOp, CastKind, ExprRef, SymExpr};

use crate::eval_model;

fn witnesses_counter() -> &'static cp_obs::metrics::Counter {
    static C: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
    C.get_or_init(|| cp_obs::metrics::counter("solver.bounds.witnesses"))
}

/// The corner of `goal`'s byte bounds when it satisfies `full`, the
/// unsimplified query every rung's model is validated against.
///
/// `offsets` is `goal`'s sorted support; the model assigns every one of
/// them.  `None` when no conjunct bounds a byte assembly (nothing is
/// evaluated then) or when the corner falsifies `full`.
pub(crate) fn witness(
    goal: &ExprRef,
    full: &ExprRef,
    offsets: &[usize],
) -> Option<Vec<(usize, u8)>> {
    let model = corner(goal, offsets)?;
    cp_obs::event!(SolverEscalation {
        stage: "bounds".to_string()
    });
    if eval_model(full, &model) == 0 {
        return None;
    }
    witnesses_counter().inc();
    Some(model)
}

/// The environment over `offsets` that gives every bounded byte assembly of
/// `goal` its largest value within bounds and every other byte `0xFF`, or
/// `None` when no conjunct bounds a byte assembly.
fn corner(goal: &ExprRef, offsets: &[usize]) -> Option<Vec<(usize, u8)>> {
    let mut model: Vec<(usize, u8)> = offsets.iter().map(|&o| (o, 0xFF)).collect();
    let mut bounded = false;
    let mut conjuncts = vec![*goal];
    while let Some(conjunct) = conjuncts.pop() {
        if let SymExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
            ..
        } = conjunct.as_ref()
        {
            conjuncts.extend([*lhs, *rhs]);
            continue;
        }
        let Some((x, c)) = upper_bound(&conjunct) else {
            continue;
        };
        let Some(bytes) = assembly(&x) else {
            continue;
        };
        let mask = bytes.iter().fold(0, |m, &(_, at)| m | (0xFF << at));
        let value = largest_within(mask, c);
        for (offset, at) in bytes {
            // `x` is part of `goal`, so its bytes are in `goal`'s support.
            let slot = model
                .iter_mut()
                .find(|(o, _)| *o == offset)
                .expect("a conjunct's bytes are in the goal's support");
            slot.1 = slot.1.min((value >> at) as u8);
        }
        bounded = true;
    }
    bounded.then_some(model)
}

/// The upper bound `x ≤ c` a conjunct states, if it has one of the three
/// shapes the module docs list.
fn upper_bound(conjunct: &ExprRef) -> Option<(ExprRef, u64)> {
    let SymExpr::Binary { op, lhs, rhs, .. } = conjunct.as_ref() else {
        return None;
    };
    let c = rhs.as_const()?;
    match op {
        BinOp::LeU => Some((*lhs, c)),
        BinOp::LtU => Some((*lhs, c.checked_sub(1)?)),
        BinOp::Eq if c == 0 => match lhs.as_ref() {
            SymExpr::Binary {
                op: BinOp::LtU,
                lhs: bound,
                rhs: x,
                ..
            } => Some((*x, bound.as_const()?)),
            _ => None,
        },
        _ => None,
    }
}

/// The input bytes a byte assembly places, as `(offset, bit position)`
/// pairs, or `None` when `x` is not one.
///
/// Each byte must land whole inside the width of every node on its way up,
/// so a byte a narrow shift pushes out is a rejection, not a silent zero;
/// positions are distinct, so an assembly holds at most eight bytes.
fn assembly(x: &ExprRef) -> Option<Vec<(usize, u32)>> {
    let mut bytes: Vec<(usize, u32)> = Vec::new();
    // (node, position of its bit 0 in `x`, end of the bits that survive
    // every enclosing node's width)
    let mut stack = vec![(*x, 0u32, x.width().bits())];
    while let Some((e, at, end)) = stack.pop() {
        let end = end.min(at + e.width().bits());
        if at >= end {
            return None;
        }
        match e.as_ref() {
            SymExpr::InputByte { offset } => {
                if at + 8 > end || bytes.iter().any(|&(o, p)| o == *offset || p == at) {
                    return None;
                }
                bytes.push((*offset, at));
            }
            SymExpr::Cast {
                kind: CastKind::ZeroExt,
                arg,
                ..
            } => stack.push((*arg, at, end)),
            SymExpr::Binary {
                op: BinOp::Shl,
                lhs,
                rhs,
                ..
            } => {
                let k = rhs.as_const().filter(|k| k % 8 == 0 && *k < 64)?;
                stack.push((*lhs, at + k as u32, end));
            }
            SymExpr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
                ..
            } => stack.extend([(*lhs, at, end), (*rhs, at, end)]),
            _ => return None,
        }
    }
    Some(bytes)
}

/// The largest value at most `c` whose set bits all lie in `mask`: `c`'s
/// bits from the top down while they fit the mask, then, below the first
/// bit of `c` the mask cannot hold, every bit of the mask.
fn largest_within(mask: u64, c: u64) -> u64 {
    let mut value = 0;
    for bit in (0..64).rev().map(|i| 1u64 << i) {
        if c & bit == 0 {
            continue;
        }
        if mask & bit == 0 {
            return value | (mask & (bit - 1));
        }
        value |= bit;
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SampleSolver, Satisfiability, Solver};
    use cp_symexpr::{overflow_goal, ExprBuild, Width};

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    /// What a not-taken `if (x > c)` records.
    fn at_most(x: ExprRef, c: u64) -> ExprRef {
        SymExpr::constant(x.width(), c)
            .binop(BinOp::LtU, x)
            .binop(BinOp::Eq, SymExpr::constant(Width::W8, 0))
    }

    /// The guarded-overflow query for field widths `k`: each 16-bit field
    /// range-checked against `2^k − 1` at 32 bits, then the overflow goal of
    /// the 32-bit product `width * height * depth`.
    fn guarded_query(k: [u32; 3]) -> ExprRef {
        let fields: Vec<ExprRef> = (0..3)
            .map(|i| be16(2 * i, 2 * i + 1).zext(Width::W32))
            .collect();
        let size = fields[0]
            .binop(BinOp::Mul, fields[1])
            .binop(BinOp::Mul, fields[2]);
        fields
            .iter()
            .zip(k)
            .map(|(f, k)| at_most(*f, (1 << k) - 1))
            .fold(
                overflow_goal(&size).expect("the product can wrap"),
                |acc, fact| fact.binop(BinOp::And, acc),
            )
    }

    /// The query's verdict and the rungs it escalated to, in order.
    fn solve_traced(solver: Solver, query: &ExprRef) -> (Satisfiability, Vec<String>) {
        let collector = cp_obs::Collector::new();
        let subscription = collector.subscribe();
        let verdict = solver.solve(query);
        drop(subscription);
        let stages = collector
            .take()
            .events
            .into_iter()
            .filter_map(|record| match record.event {
                cp_obs::Event::SolverEscalation { stage } => Some(stage),
                _ => None,
            })
            .collect();
        (verdict, stages)
    }

    #[test]
    fn guarded_query_is_sat_at_the_corner_without_blasting() {
        let (verdict, stages) = solve_traced(Solver::default(), &guarded_query([12, 11, 11]));
        // 4095 * 2047 * 2047 wraps at 32 bits; no incremental context was
        // built, since the blast rung was never entered.
        assert_eq!(stages, ["sampling", "bounds"]);
        assert_eq!(
            verdict,
            Satisfiability::Sat {
                model: vec![
                    (0, 0x0F),
                    (1, 0xFF),
                    (2, 0x07),
                    (3, 0xFF),
                    (4, 0x07),
                    (5, 0xFF)
                ]
            }
        );
    }

    #[test]
    fn a_corner_that_cannot_wrap_falls_through_to_the_blast_rung() {
        // 1023 * 2047 * 2047 < 2^32: the corner fails the goal, and the
        // blast rung proves that nothing inside the bounds wraps.
        let (verdict, stages) = solve_traced(Solver::default(), &guarded_query([10, 11, 11]));
        assert_eq!(stages, ["sampling", "bounds", "incremental"]);
        assert_eq!(verdict, Satisfiability::Unsat);
    }

    #[test]
    fn a_starved_sampler_skips_the_corner() {
        let (verdict, stages) = solve_traced(Solver::starved(), &guarded_query([12, 11, 11]));
        assert_eq!(verdict, Satisfiability::Unknown);
        assert!(!stages.iter().any(|s| s == "bounds"), "{stages:?}");
        // Any sampling budget at all lets the corner answer.  (Another
        // shape: the verdict memo is process-wide, and a `Sat` recorded
        // here would answer the 12/11/11 query of the test above.)
        let one = Solver {
            sampler: SampleSolver::with_samples(1),
            ..Solver::default()
        };
        assert!(one.solve(&guarded_query([13, 11, 10])).is_sat());
    }

    #[test]
    fn each_bound_shape_puts_the_field_at_its_bound() {
        let x = be16(0, 1);
        let c = |v: u64| SymExpr::constant(Width::W16, v);
        for bound in [
            x.binop(BinOp::LeU, c(16384)),
            x.binop(BinOp::LtU, c(16385)),
            at_most(x, 16384),
        ] {
            assert_eq!(corner(&bound, &[0, 1]), Some(vec![(0, 0x40), (1, 0x00)]));
        }
        // Through the ladder: sampling's fills and stream miss the single
        // value 16384, the corner hits it.
        let exact = x
            .binop(BinOp::LeU, c(16384))
            .binop(BinOp::And, c(16384).binop(BinOp::LeU, x));
        assert_eq!(
            Solver::default().solve(&exact),
            Satisfiability::Sat {
                model: vec![(0, 0x40), (1, 0x00)]
            }
        );
    }

    #[test]
    fn bytes_take_the_smallest_value_any_bound_asks() {
        // Byte 1 is the low byte of one field and the high byte of the
        // other; byte 3 is bounded by nothing and reads 0xFF.
        let goal = be16(0, 1)
            .binop(BinOp::LeU, SymExpr::constant(Width::W16, 0x12FF))
            .binop(
                BinOp::And,
                be16(1, 2).binop(BinOp::LeU, SymExpr::constant(Width::W16, 0x3456)),
            )
            .binop(
                BinOp::And,
                SymExpr::input_byte(3).binop(BinOp::Ne, SymExpr::constant(Width::W8, 7)),
            );
        assert_eq!(
            corner(&goal, &[0, 1, 2, 3]),
            Some(vec![(0, 0x12), (1, 0x34), (2, 0x56), (3, 0xFF)])
        );
    }

    #[test]
    fn values_skip_the_bits_an_assembly_cannot_hold() {
        // Byte 0 at bits 16..24 and byte 1 at bits 0..8 of a 32-bit value:
        // under 0x01_2345, byte 0 keeps 0x01, bits 8..16 would need 0x23,
        // which the assembly cannot hold, so byte 1 rises to 0xFF.
        let x = SymExpr::input_byte(0)
            .zext(Width::W32)
            .binop(BinOp::Shl, SymExpr::constant(Width::W32, 16))
            .binop(BinOp::Or, SymExpr::input_byte(1).zext(Width::W32));
        let bound = x.binop(BinOp::LeU, SymExpr::constant(Width::W32, 0x01_2345));
        assert_eq!(corner(&bound, &[0, 1]), Some(vec![(0, 0x01), (1, 0xFF)]));
        assert_eq!(largest_within(0xFF_00FF, 0x01_2345), 0x01_00FF);
        assert_eq!(largest_within(0xFFFF, 0x1_0000), 0xFFFF);
        assert_eq!(largest_within(0xFF00, 0xFF), 0);
    }

    #[test]
    fn only_byte_assemblies_are_bounded() {
        let byte = |i: usize| SymExpr::input_byte(i).zext(Width::W16);
        let c = SymExpr::constant(Width::W16, 100);
        for x in [
            // A byte shifted out of its 16-bit node.
            byte(0).binop(BinOp::Shl, SymExpr::constant(Width::W16, 16)),
            // A shift that is not a whole number of bytes.
            byte(0).binop(BinOp::Shl, SymExpr::constant(Width::W16, 4)),
            // One byte placed twice.
            be16(0, 0),
            // Two bytes in one slot.
            byte(0).binop(BinOp::Or, byte(1)),
            // Arithmetic, not placement.
            byte(0).binop(BinOp::Add, byte(1)),
        ] {
            assert_eq!(corner(&x.binop(BinOp::LeU, c), &[0, 1]), None, "{x}");
        }
        // A lower bound bounds nothing from above.
        assert_eq!(corner(&c.binop(BinOp::LeU, be16(0, 1)), &[0, 1]), None);
    }
}
