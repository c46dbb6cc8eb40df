//! The lane kernel: a query compiled once and evaluated over up to
//! [`LANES`] byte environments per pass.
//!
//! The sampling rung evaluates one goal under hundreds of byte environments
//! and stops at the first that satisfies it; the exhaustive rung does the
//! same over every environment of a small support.  A [`Program`] is the
//! goal as a straight-line program over its support's positions: one op per
//! distinct DAG node, children before parents.  It is decoded from the
//! positional encoding the verdict memo keys the query by ([`crate::memo`]),
//! so a query that misses the memo walks its DAG once.  [`Lanes`] runs a
//! program over one chunk of environments: each op matches its operator
//! once and then fills a row of values, one per environment, with the
//! evaluator's own operator functions (`cp_symexpr::eval::{eval_unop,
//! eval_cast, eval_binary}`), so every lane holds exactly what
//! `cp_symexpr::eval::eval` computes on that lane's environment.  This is
//! vector-at-a-time execution (Boncz, Zukowski & Nes, MonetDB/X100, CIDR
//! 2005): dispatch is paid once per op and chunk, not once per op and value.
//!
//! A chunk's input bytes are one buffer, slot-major: the byte at support
//! position `s` of environment `l` is at `s * LANES + l`.  [`EnvStream`]
//! writes the sampler's stream into it.  The buffers live as long as the
//! query; nothing is kept across queries.

use cp_symexpr::eval::{eval_binary, eval_cast, eval_unop};
use cp_symexpr::{BinOp, CastKind, ExprRef, UnOp, Width};

use crate::memo::{self, tag};

/// Environments per chunk: enough to amortise each op's dispatch, few
/// enough that a model early in the stream wastes little evaluation.
pub(crate) const LANES: usize = 32;

/// One node of a [`Program`]; child operands are op indices.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A constant, already truncated; its row is written once per query.
    Const(u64),
    /// The input byte at a support position.
    Byte(u32),
    /// A big-endian field over `len` support positions in
    /// [`Program::fields`], starting at `first`.
    Field {
        width: Width,
        first: u32,
        len: u32,
    },
    Unary {
        op: UnOp,
        width: Width,
        arg: u32,
    },
    Cast {
        kind: CastKind,
        from: Width,
        width: Width,
        arg: u32,
    },
    Binary {
        op: BinOp,
        width: Width,
        lhs_width: Width,
        lhs: u32,
        rhs: u32,
    },
}

/// A query compiled for the lane kernel.
pub(crate) struct Program {
    ops: Vec<Op>,
    /// The support positions of every `Field`, most significant first.
    fields: Vec<u32>,
    /// Support positions, the slots of a chunk's byte buffer.
    slots: usize,
}

impl Program {
    /// Compiles `roots` over `offsets`, which must hold every byte they
    /// read: the program, and each root's op.
    pub(crate) fn compile(roots: &[ExprRef], offsets: &[usize]) -> (Program, Vec<usize>) {
        let (words, ids) = memo::encode(roots, offsets);
        (Program::decode(&words), ids)
    }

    /// Decodes a positional encoding (see [`memo::tag`]): one op per
    /// record, in record order, so a record's index is its op's.
    pub(crate) fn decode(words: &[u64]) -> Program {
        let width = |bits: u64| Width::from_bits(bits as u32).expect("a recorded node width");
        let mut program = Program {
            ops: Vec::new(),
            fields: Vec::new(),
            slots: words[0] as usize,
        };
        let mut widths: Vec<Width> = Vec::new();
        let mut at = 1;
        while at < words.len() {
            let record = &words[at..];
            let (op, node_width, len) = match record[0] {
                tag::CONST => (Op::Const(record[2]), width(record[1]), 3),
                tag::BYTE => (Op::Byte(record[1] as u32), Width::W8, 2),
                tag::FIELD => {
                    let n = record[2] as usize;
                    let first = program.fields.len() as u32;
                    program
                        .fields
                        .extend(record[3..3 + n].iter().map(|&p| p as u32));
                    let w = width(record[1]);
                    let op = Op::Field {
                        width: w,
                        first,
                        len: n as u32,
                    };
                    (op, w, 3 + n)
                }
                tag::UNARY => {
                    let w = width(record[2]);
                    let op = Op::Unary {
                        op: UnOp::ALL[record[1] as usize],
                        width: w,
                        arg: record[3] as u32,
                    };
                    (op, w, 4)
                }
                tag::CAST => {
                    let w = width(record[2]);
                    let op = Op::Cast {
                        kind: CastKind::ALL[record[1] as usize],
                        from: widths[record[3] as usize],
                        width: w,
                        arg: record[3] as u32,
                    };
                    (op, w, 4)
                }
                tag::BINARY => {
                    let w = width(record[2]);
                    let op = Op::Binary {
                        op: BinOp::ALL[record[1] as usize],
                        width: w,
                        lhs_width: widths[record[3] as usize],
                        lhs: record[3] as u32,
                        rhs: record[4] as u32,
                    };
                    (op, w, 5)
                }
                other => unreachable!("no record has tag {other}"),
            };
            program.ops.push(op);
            widths.push(node_width);
            at += len;
        }
        program
    }

    /// The last op: the goal of a program decoded from a query key.
    pub(crate) fn root(&self) -> usize {
        self.ops.len() - 1
    }
}

/// A program's buffers for one query: a chunk's input bytes and one row of
/// lane values per op.
pub(crate) struct Lanes<'p> {
    program: &'p Program,
    /// Slot-major input bytes (see the module docs).
    env: Vec<u8>,
    rows: Vec<[u64; LANES]>,
}

impl<'p> Lanes<'p> {
    pub(crate) fn new(program: &'p Program) -> Self {
        let rows = program
            .ops
            .iter()
            .map(|op| match *op {
                Op::Const(value) => [value; LANES],
                _ => [0; LANES],
            })
            .collect();
        Lanes {
            program,
            env: vec![0; program.slots * LANES],
            rows,
        }
    }

    /// The chunk's input bytes, for the caller to fill: position `s` of
    /// environment `l` is at `s * LANES + l`.
    pub(crate) fn env_mut(&mut self) -> &mut [u8] {
        &mut self.env
    }

    /// Evaluates every op on environments `0..lanes` of the chunk.
    pub(crate) fn run(&mut self, lanes: usize) {
        let program = self.program;
        let env = &self.env;
        let column = |slot: u32| &env[slot as usize * LANES..][..lanes];
        for (i, &op) in program.ops.iter().enumerate() {
            let (done, rest) = self.rows.split_at_mut(i);
            let out = &mut rest[0][..lanes];
            let row = |op: u32| &done[op as usize][..lanes];
            match op {
                Op::Const(_) => {}
                Op::Byte(slot) => {
                    for (o, &b) in out.iter_mut().zip(column(slot)) {
                        *o = u64::from(b);
                    }
                }
                Op::Field { width, first, len } => {
                    out.fill(0);
                    for &slot in &program.fields[first as usize..][..len as usize] {
                        for (o, &b) in out.iter_mut().zip(column(slot)) {
                            *o = (*o << 8) | u64::from(b);
                        }
                    }
                    for o in out.iter_mut() {
                        *o = width.truncate(*o);
                    }
                }
                Op::Unary { op, width, arg } => unary(op, width, out, row(arg)),
                Op::Cast {
                    kind,
                    from,
                    width,
                    arg,
                } => cast(kind, from, width, out, row(arg)),
                Op::Binary {
                    op,
                    width,
                    lhs_width,
                    lhs,
                    rhs,
                } => binary(op, width, lhs_width, out, row(lhs), row(rhs)),
            }
        }
    }

    /// The values of `op` on the last chunk, one per environment.
    pub(crate) fn row(&self, op: usize) -> &[u64; LANES] {
        &self.rows[op]
    }

    /// Environment `lane` of the chunk as a model over `offsets`, the
    /// support the program was compiled over.
    pub(crate) fn model(&self, offsets: &[usize], lane: usize) -> Vec<(usize, u8)> {
        offsets
            .iter()
            .enumerate()
            .map(|(slot, &offset)| (offset, self.env[slot * LANES + lane]))
            .collect()
    }
}

/// Matches `$op` once and runs `$body` with the matched operator bound to
/// the constant `OP`, so each arm's lane loop is compiled for one operator.
macro_rules! per_operator {
    ($op:expr, $ty:ident, [$($variant:ident),*], $body:expr) => {
        match $op {
            $($ty::$variant => {
                const OP: $ty = $ty::$variant;
                $body
            })*
        }
    };
}

fn map1(out: &mut [u64], a: &[u64], f: impl Fn(u64) -> u64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

fn map2(out: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

fn unary(op: UnOp, width: Width, out: &mut [u64], a: &[u64]) {
    per_operator!(
        op,
        UnOp,
        [Neg, Not, LogicalNot],
        map1(out, a, |x| eval_unop(OP, width, x))
    )
}

fn cast(kind: CastKind, from: Width, width: Width, out: &mut [u64], a: &[u64]) {
    per_operator!(
        kind,
        CastKind,
        [ZeroExt, SignExt, Truncate],
        map1(out, a, |x| eval_cast(OP, from, width, x))
    )
}

fn binary(op: BinOp, width: Width, lhs: Width, out: &mut [u64], a: &[u64], b: &[u64]) {
    per_operator!(
        op,
        BinOp,
        [
            Add, Sub, Mul, DivU, DivS, RemU, RemS, And, Or, Xor, Shl, ShrU, ShrS, Eq, Ne, LtU, LeU,
            LtS, LeS
        ],
        map2(out, a, b, |x, y| eval_binary(OP, width, lhs, x, y))
    )
}

/// The boundary fills that open the sampler's stream: all zeros, all ones,
/// every sign bit, every low bit.
const FILLS: [u8; 4] = [0x00, 0xFF, 0x80, 0x01];

/// The sampler's deterministic environment stream over a support of
/// `slots` bytes, written chunk by chunk into a [`Lanes`] byte buffer.
///
/// The stream is the four [`FILLS`], each byte of an environment the same,
/// then `samples` environments drawn from xorshift64* seeded with
/// `seed | 1`, one environment after another and each environment's bytes
/// in support order.  The first chunk holds the fills, every later one up
/// to [`LANES`] drawn environments.
pub(crate) struct EnvStream {
    slots: usize,
    rng: u64,
    remaining: u32,
    filled: bool,
}

impl EnvStream {
    pub(crate) fn new(slots: usize, seed: u64, samples: u32) -> Self {
        EnvStream {
            slots,
            rng: seed | 1,
            remaining: samples,
            filled: false,
        }
    }

    /// Writes the next chunk into `env`, laid out as [`Lanes::env_mut`]
    /// lays it out, and returns its number of environments; `None` once the
    /// stream is spent.
    pub(crate) fn next_chunk(&mut self, env: &mut [u8]) -> Option<usize> {
        if !self.filled {
            self.filled = true;
            for column in env.chunks_exact_mut(LANES) {
                column[..FILLS.len()].copy_from_slice(&FILLS);
            }
            return Some(FILLS.len());
        }
        if self.remaining == 0 {
            return None;
        }
        let take = self.remaining.min(LANES as u32) as usize;
        self.remaining -= take as u32;
        for lane in 0..take {
            for slot in 0..self.slots {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                env[slot * LANES + lane] =
                    (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
            }
        }
        Some(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::{random_comparison, random_expr, union_support, Rng, INPUT_BYTES};
    use cp_symexpr::eval::eval;
    use cp_symexpr::{ExprBuild, SymExpr};

    /// Compiles `exprs` as one program, runs it over `envs` (byte vectors
    /// indexed by offset) in chunks of `chunk` environments, and requires
    /// every root's value in every lane to equal `eval` on that lane's
    /// environment.
    fn assert_lanes_match_eval(exprs: &[ExprRef], envs: &[Vec<u8>], chunk: usize) {
        let offsets = union_support(exprs);
        let (program, roots) = Program::compile(exprs, &offsets);
        let mut lanes = Lanes::new(&program);
        for batch in envs.chunks(chunk) {
            let env = lanes.env_mut();
            for (lane, bytes) in batch.iter().enumerate() {
                for (slot, &offset) in offsets.iter().enumerate() {
                    env[slot * LANES + lane] = bytes.get(offset).copied().unwrap_or(0);
                }
            }
            lanes.run(batch.len());
            for (expr, &root) in exprs.iter().zip(&roots) {
                for (lane, bytes) in batch.iter().enumerate() {
                    assert_eq!(
                        lanes.row(root)[lane],
                        eval(expr, bytes),
                        "{expr} on {bytes:?} (lane {lane} of a {}-lane chunk)",
                        batch.len()
                    );
                }
            }
        }
    }

    fn assert_all_chunkings(exprs: &[ExprRef], envs: &[Vec<u8>]) {
        for chunk in [LANES, 4, 17] {
            assert_lanes_match_eval(exprs, envs, chunk);
        }
    }

    /// Byte values at the edges of every width: zero, one, shift amounts
    /// around 8, 16, 32 and 64, and the sign boundaries.
    const EDGES: [u8; 17] = [
        0, 1, 2, 7, 8, 15, 16, 31, 32, 63, 64, 65, 0x7F, 0x80, 0x81, 0xFE, 0xFF,
    ];

    /// Every pair of edge values in bytes 0 and 1, byte 2 their xor.
    fn edge_envs() -> Vec<Vec<u8>> {
        EDGES
            .iter()
            .flat_map(|&a| EDGES.iter().map(move |&b| vec![a, b, a ^ b]))
            .collect()
    }

    #[test]
    fn random_expressions_match_eval_in_every_lane() {
        let mut rng = Rng::new(0x1A4E5);
        let mut envs: Vec<Vec<u8>> = [0x00u8, 0xFF, 0x80, 0x01]
            .iter()
            .map(|&fill| vec![fill; INPUT_BYTES])
            .collect();
        envs.extend((0..64).map(|_| (0..INPUT_BYTES).map(|_| rng.next_u64() as u8).collect()));
        for case in 0..2_000 {
            let expr = if case % 2 == 0 {
                random_expr(&mut rng, 3)
            } else {
                random_comparison(&mut rng)
            };
            assert_all_chunkings(&[expr], &envs);
        }
    }

    #[test]
    fn every_binary_operator_matches_eval_at_every_width() {
        let envs = edge_envs();
        let byte = SymExpr::input_byte;
        for width in Width::all() {
            let bits = u64::from(width.bits());
            let c = |v: u64| SymExpr::constant(width, v);
            // -1 when byte 0 is 0xFF; byte 1 as a divisor or shift amount
            // (0, the width and beyond); INT_MIN when byte 0 is 0x80.
            let signed = byte(0).sext(width);
            let unsigned = byte(1).zext(width);
            let int_min = byte(0).zext(width).binop(BinOp::Shl, c(bits - 8));
            let minus_one = byte(1).sext(width);
            let pairs = [
                (signed, unsigned),
                (unsigned, signed),
                (int_min, minus_one),
                (minus_one, int_min),
                (signed, c(0)),
                (int_min, c(width.mask())),
                (signed, c(bits)),
                (signed, c(bits + 1)),
                (unsigned, c(63)),
                (c(1 << (bits - 1)), c(width.mask())),
                (c(5), c(0)),
            ];
            for op in BinOp::ALL {
                let mut exprs: Vec<ExprRef> =
                    pairs.iter().map(|(lhs, rhs)| lhs.binop(op, *rhs)).collect();
                // Nodes narrower than their operands compute at their own
                // width; comparisons keep their operands' width.
                for narrow in Width::all().into_iter().filter(|&w| w < width) {
                    exprs.push(signed.binop_w(op, narrow, int_min));
                }
                assert_all_chunkings(&exprs, &envs);
            }
        }
    }

    #[test]
    fn every_unary_operator_and_cast_matches_eval() {
        let envs = edge_envs();
        for from in Width::all() {
            let operands = [
                SymExpr::input_byte(0).sext(from),
                SymExpr::input_byte(1).zext(from),
                SymExpr::constant(from, 1 << (from.bits() - 1)),
                SymExpr::constant(from, 0),
            ];
            let mut exprs = Vec::new();
            for arg in operands {
                exprs.extend(UnOp::ALL.map(|op| arg.unop(op)));
                for to in Width::all() {
                    exprs.extend(CastKind::ALL.map(|kind| SymExpr::cast(kind, to, arg)));
                }
            }
            assert_all_chunkings(&exprs, &envs);
        }
    }

    #[test]
    fn field_leaves_match_eval() {
        let field = |width: Width, offsets: &[usize]| SymExpr::field("/f", width, offsets.to_vec());
        let exprs = [
            field(Width::W16, &[0, 1]),
            field(Width::W32, &[2, 0, 1]),
            // Wider than the field's width: the high bytes truncate away.
            field(Width::W8, &[1, 0]),
            // Nine bytes: the first shifts out of 64 bits.
            field(Width::W64, &[0, 1, 2, 0, 1, 2, 0, 1, 2]),
            field(Width::W16, &[1, 2])
                .binop(BinOp::DivU, SymExpr::constant(Width::W16, 3))
                .binop(BinOp::LtS, field(Width::W16, &[0, 1])),
        ];
        assert_all_chunkings(&exprs, &edge_envs());
    }

    #[test]
    fn constant_only_goals_match_eval() {
        let c = SymExpr::constant;
        let exprs = [
            c(Width::W32, 6).binop(BinOp::Mul, c(Width::W32, 7)),
            c(Width::W32, 6)
                .binop(BinOp::Mul, c(Width::W32, 7))
                .binop(BinOp::Eq, c(Width::W32, 42)),
            c(Width::W8, 0x80).binop(BinOp::DivS, c(Width::W8, 0xFF)),
            c(Width::W16, 9).binop(BinOp::RemU, c(Width::W16, 0)),
            c(Width::W64, 0).unop(UnOp::LogicalNot),
        ];
        assert_all_chunkings(&exprs, &[Vec::new(), Vec::new(), Vec::new()]);
    }

    #[test]
    fn shared_subterms_are_one_op() {
        // (b0 * b1) + b2 feeds both sides, and both roots share one program.
        let b = |i: usize| SymExpr::input_byte(i).zext(Width::W32);
        let shared = b(0).binop(BinOp::Mul, b(1)).binop(BinOp::Add, b(2));
        let lhs = shared.binop(BinOp::DivS, SymExpr::constant(Width::W32, 3));
        let rhs = shared
            .unop(UnOp::Not)
            .binop(BinOp::ShrU, SymExpr::constant(Width::W32, 2));
        let root = lhs
            .binop(BinOp::LtS, rhs)
            .zext(Width::W64)
            .binop(BinOp::Add, shared.truncate(Width::W8).zext(Width::W64));
        let (program, roots) = Program::compile(&[root, shared], &[0, 1, 2]);
        // Three bytes, their casts, the product and sum, two constants,
        // both sides and the root's five nodes: one op each.
        assert_eq!(program.ops.len(), 18);
        assert_eq!(roots, vec![17, 7]);
        assert_all_chunkings(&[root, shared], &edge_envs());
    }
}
