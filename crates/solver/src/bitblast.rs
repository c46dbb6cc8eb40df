//! Word-level bit-blasting: symbolic expressions → AIG → CNF → DPLL.
//!
//! This is the refutation-complete half of the solver: an equivalence query
//! over two expressions becomes a *miter* — a single circuit asserting that
//! the two values differ in at least one bit.  If the miter is unsatisfiable
//! the expressions are equal on **every** input (a proof, not a sampling
//! verdict); if it is satisfiable the model decodes into a concrete witness
//! environment on which they disagree.
//!
//! The pipeline is deliberately dependency-free and sized for the ≤64-bit,
//! small-support expressions this corpus produces:
//!
//! * **AIG construction** ([`Blaster`]) — every expression node becomes a
//!   vector of and-inverter literals, least-significant bit first, with
//!   structural hashing.  Because `cp-symexpr` hash-conses expressions, two
//!   structurally similar operands share gates, and the common case of a
//!   simplifier-rewritten expression against its original collapses the miter
//!   to constant false before any SAT search happens.
//! * **Tseitin CNF**, appended gate by gate as the graph grows, into the
//!   crate's incremental CDCL solver (`cdcl.rs`).
//!
//! Division and remainder (all four signedness variants) are blasted with a
//! restoring-divider circuit — one trial subtraction per result bit —
//! mirroring `cp_symexpr::eval`'s semantics exactly (division by zero yields
//! all-ones, remainder by zero the dividend, `INT_MIN / -1` wraps).  Wide
//! divider miters can exceed the gate budget, in which case the solver
//! ladder still falls back to exhaustive enumeration.
//!
//! Everything here is used *incrementally*: the [`crate::incremental`]
//! module keeps one graph and one CDCL alive across a session's queries
//! and builds the session API — the solver's only blast rung — on top.
//! The module also owns the process-wide verdict memo the ladder probes
//! before blasting anything.

use cp_symexpr::{BinOp, CastKind, ExprRef, SymExpr, UnOp};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::cdcl::Cdcl;

/// An AIG literal: `var << 1 | negated`.  Literal 0 is constant false,
/// literal 1 constant true (variable 0 is reserved for the constant).
pub type Lit = u32;

/// Constant-false literal.
pub const LIT_FALSE: Lit = 0;
/// Constant-true literal.
pub const LIT_TRUE: Lit = 1;

#[inline]
pub(crate) fn negate(lit: Lit) -> Lit {
    lit ^ 1
}

#[inline]
pub(crate) fn var_of(lit: Lit) -> u32 {
    lit >> 1
}

/// Why a blasting attempt was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlastError {
    /// The circuit exceeded the gate budget.
    GateBudget,
}

/// Resource limits for one equivalence query.
#[derive(Debug, Clone, Copy)]
pub struct BlastLimits {
    /// Maximum number of AND gates in the miter.
    pub max_gates: usize,
    /// Maximum DPLL conflicts before giving up.
    pub max_conflicts: u64,
}

impl Default for BlastLimits {
    fn default() -> Self {
        BlastLimits {
            max_gates: 100_000,
            max_conflicts: 20_000,
        }
    }
}

/// A definitive verdict on a blasted query, as the verdict memo records
/// and serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BlastOutcome {
    /// The query's circuit is unsatisfiable (for a miter: the expressions
    /// agree on every input).
    Unsat,
    /// A satisfying model over the query's input bytes.
    Sat(Vec<(usize, u8)>),
}

/// An and-inverter graph with structural hashing and constant folding.
///
/// Inputs and gates share one variable space: variable 0 is the reserved
/// constant, and every later variable is either an *input* (one bit of an
/// environment byte) or an AND gate over two earlier literals.  The two can
/// interleave — an incremental session grows both on demand across queries —
/// so the graph is node-indexed rather than split at a fixed input boundary.
struct Aig {
    /// Variable `v` (`v >= 1`) is `nodes[v - 1]`: `None` for an input
    /// variable, `Some((a, b))` for the AND of two earlier literals.
    nodes: Vec<Option<(Lit, Lit)>>,
    /// Count of gate (`Some`) nodes.
    gates: usize,
    /// Gate count snapshotted when the current query began: the budget below
    /// bounds `gates - gate_floor`, so a reused graph charges each query only
    /// for the gates *it* adds, never for state carried over (see
    /// `begin_query`).
    gate_floor: usize,
    strash: HashMap<(Lit, Lit), Lit>,
    max_gates: usize,
}

impl Aig {
    fn new(max_gates: usize) -> Self {
        Aig {
            nodes: Vec::new(),
            gates: 0,
            gate_floor: 0,
            strash: HashMap::new(),
            max_gates,
        }
    }

    fn n_vars(&self) -> usize {
        self.nodes.len() + 1
    }

    fn new_input(&mut self) -> u32 {
        self.nodes.push(None);
        self.nodes.len() as u32
    }

    /// Starts a fresh query: gates built from here on count against
    /// `max_gates`, while everything already in the graph is free to reuse.
    fn begin_query(&mut self) {
        self.gate_floor = self.gates;
    }

    fn and(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastError> {
        if a == LIT_FALSE || b == LIT_FALSE || a == negate(b) {
            return Ok(LIT_FALSE);
        }
        if a == LIT_TRUE || a == b {
            return Ok(b);
        }
        if b == LIT_TRUE {
            return Ok(a);
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&lit) = self.strash.get(&key) {
            return Ok(lit);
        }
        if self.gates - self.gate_floor >= self.max_gates {
            return Err(BlastError::GateBudget);
        }
        self.nodes.push(Some(key));
        self.gates += 1;
        let lit = (self.nodes.len() as u32) << 1;
        self.strash.insert(key, lit);
        Ok(lit)
    }

    fn or(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastError> {
        Ok(negate(self.and(negate(a), negate(b))?))
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Result<Lit, BlastError> {
        let l = self.and(a, negate(b))?;
        let r = self.and(negate(a), b)?;
        self.or(l, r)
    }

    /// `if s { t } else { e }`.
    fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Result<Lit, BlastError> {
        let then_branch = self.and(s, t)?;
        let else_branch = self.and(negate(s), e)?;
        self.or(then_branch, else_branch)
    }
}

fn const_bits(n: usize, value: u64) -> Vec<Lit> {
    (0..n)
        .map(|i| {
            if i < 64 && (value >> i) & 1 != 0 {
                LIT_TRUE
            } else {
                LIT_FALSE
            }
        })
        .collect()
}

/// Zero-extends or truncates a bit vector to `n` bits — the blasted analogue
/// of `Width::truncate` on a `u64` value.
fn resize_zero(bits: &[Lit], n: usize) -> Vec<Lit> {
    let mut out = Vec::with_capacity(n);
    out.extend(bits.iter().take(n).copied());
    out.resize(n, LIT_FALSE);
    out
}

fn invert(bits: &[Lit]) -> Vec<Lit> {
    bits.iter().map(|&b| negate(b)).collect()
}

/// Bit-blasts expressions into a shared AIG.
///
/// An incremental session ([`crate::incremental`]) keeps one alive across
/// its queries so structurally shared cones keep their gates (and the CDCL
/// built on top keeps its learned clauses).  `begin_query` resets the
/// per-query gate budget without discarding anything already built.
pub(crate) struct Blaster {
    aig: Aig,
    /// Input byte offset → first of its eight consecutive input variables.
    offset_var: HashMap<usize, u32>,
    /// Expression memo key → blasted bits at the expression's own width.
    memo: HashMap<usize, Vec<Lit>>,
}

impl Blaster {
    /// An empty graph; input variables are allocated on demand, eight per
    /// byte offset, as expressions mention them.
    pub(crate) fn new(max_gates: usize) -> Self {
        Blaster {
            aig: Aig::new(max_gates),
            offset_var: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// Starts a fresh query against the shared graph: everything already
    /// built stays reusable for free, and only gates added from here on
    /// count against the gate budget.
    pub(crate) fn begin_query(&mut self) {
        self.aig.begin_query();
    }

    /// First of the eight input variables for `offset`, allocating them on
    /// first use.
    fn input_base(&mut self, offset: usize) -> u32 {
        if let Some(&base) = self.offset_var.get(&offset) {
            return base;
        }
        let base = self.aig.new_input();
        for _ in 1..8 {
            self.aig.new_input();
        }
        self.offset_var.insert(offset, base);
        base
    }

    fn input_bits(&mut self, offset: usize) -> Vec<Lit> {
        let base = self.input_base(offset);
        (0..8).map(|i| (base + i) << 1).collect()
    }

    /// Root literal of the equivalence miter `a ≠ b` (both values
    /// zero-extended to a common width, exactly as the sampling comparison
    /// treats `eval` results).
    pub(crate) fn equiv_root(&mut self, a: &ExprRef, b: &ExprRef) -> Result<Lit, BlastError> {
        let va = self.blast(a)?;
        let vb = self.blast(b)?;
        let n = va.len().max(vb.len());
        let va = resize_zero(&va, n);
        let vb = resize_zero(&vb, n);
        let mut diff = LIT_FALSE;
        for (&x, &y) in va.iter().zip(&vb) {
            let bit = self.aig.xor(x, y)?;
            diff = self.aig.or(diff, bit)?;
        }
        Ok(diff)
    }

    /// Root literal asserting `expr ≠ 0`.
    pub(crate) fn nonzero_root(&mut self, expr: &ExprRef) -> Result<Lit, BlastError> {
        let bits = self.blast(expr)?;
        self.or_reduce(&bits)
    }

    /// Appends the Tseitin clauses of every gate not yet encoded into `sat`,
    /// growing its variable space first; `encoded` is the caller's cursor
    /// (first variable not yet encoded), advanced to the new frontier.
    ///
    /// This encodes the *whole* graph, not one query's cone — the clauses
    /// are definitional truths about the circuit, so clauses for gates
    /// outside any particular query's cone are sound, and a session keeps one
    /// growing CNF instead of re-walking cones.
    ///
    /// The gates and clauses encoded are published to the `aig.gates` and
    /// `cnf.clauses` registry counters once per call.
    pub(crate) fn encode_new_gates(&self, sat: &mut Cdcl, encoded: &mut u32) {
        let n_vars = self.aig.n_vars() as u32;
        sat.ensure_vars(n_vars as usize);
        let start = (*encoded).max(1);
        let mut gates = 0u64;
        for var in start..n_vars {
            let Some((a, b)) = self.aig.nodes[(var - 1) as usize] else {
                continue;
            };
            let g = var << 1;
            sat.add_clause(&[negate(g), a]);
            sat.add_clause(&[negate(g), b]);
            sat.add_clause(&[g, negate(a), negate(b)]);
            gates += 1;
        }
        *encoded = n_vars;
        static GATES: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
        static CLAUSES: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
        GATES
            .get_or_init(|| cp_obs::metrics::counter("aig.gates"))
            .add(gates);
        CLAUSES
            .get_or_init(|| cp_obs::metrics::counter("cnf.clauses"))
            .add(3 * gates);
    }

    /// Projects a CDCL model onto `offsets`.  Offsets the graph never
    /// mentioned (or whose variables the search left unassigned) decode as
    /// zero — a valid completion of any partial model.
    pub(crate) fn decode_model(&self, sat: &Cdcl, offsets: &[usize]) -> Vec<(usize, u8)> {
        offsets
            .iter()
            .map(|&off| {
                let byte = match self.offset_var.get(&off) {
                    Some(&base) => {
                        let mut byte = 0u8;
                        for i in 0..8u32 {
                            if sat.value(base + i) {
                                byte |= 1 << i;
                            }
                        }
                        byte
                    }
                    None => 0,
                };
                (off, byte)
            })
            .collect()
    }

    /// `a + b + cin`, returning the sum and the carry out.
    fn add(&mut self, a: &[Lit], b: &[Lit], cin: Lit) -> Result<(Vec<Lit>, Lit), BlastError> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.aig.xor(x, y)?;
            sum.push(self.aig.xor(xy, carry)?);
            let gen = self.aig.and(x, y)?;
            let prop = self.aig.and(xy, carry)?;
            carry = self.aig.or(gen, prop)?;
        }
        Ok((sum, carry))
    }

    fn mul(&mut self, a: &[Lit], b: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        let n = a.len();
        let mut acc = vec![LIT_FALSE; n];
        for i in 0..n {
            if b[i] == LIT_FALSE {
                continue;
            }
            let mut pp = vec![LIT_FALSE; n];
            for j in 0..n - i {
                pp[i + j] = self.aig.and(a[j], b[i])?;
            }
            acc = self.add(&acc, &pp, LIT_FALSE)?.0;
        }
        Ok(acc)
    }

    fn or_reduce(&mut self, bits: &[Lit]) -> Result<Lit, BlastError> {
        let mut acc = LIT_FALSE;
        for &b in bits {
            acc = self.aig.or(acc, b)?;
        }
        Ok(acc)
    }

    /// Per-bit `if s { t } else { e }` over two equal-width vectors.
    fn mux_vec(&mut self, s: Lit, t: &[Lit], e: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        debug_assert_eq!(t.len(), e.len());
        t.iter()
            .zip(e)
            .map(|(&x, &y)| self.aig.mux(s, x, y))
            .collect()
    }

    /// Two's-complement negation.
    fn neg(&mut self, a: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        let inverted = invert(a);
        let zero = vec![LIT_FALSE; a.len()];
        Ok(self.add(&inverted, &zero, LIT_TRUE)?.0)
    }

    /// Restoring divider: unsigned quotient and remainder, MSB first, one
    /// trial subtraction per bit over an `n + 1`-bit remainder register (the
    /// extra bit keeps the shift-in from overflowing).  The subtraction's
    /// carry-out means "no borrow" and doubles as the quotient bit and the
    /// keep/restore select.
    ///
    /// Division by zero needs no special casing: every trial subtraction
    /// against zero succeeds, so the quotient comes out all-ones and the
    /// remainder register re-accumulates the dividend — exactly
    /// `cp_symexpr::eval`'s `x / 0 = MAX`, `x % 0 = x` semantics.
    fn udivrem(&mut self, a: &[Lit], b: &[Lit]) -> Result<(Vec<Lit>, Vec<Lit>), BlastError> {
        let n = a.len();
        debug_assert_eq!(b.len(), n);
        let mut b_ext = b.to_vec();
        b_ext.push(LIT_FALSE);
        let not_b = invert(&b_ext);
        let mut r = vec![LIT_FALSE; n + 1];
        let mut q = vec![LIT_FALSE; n];
        for i in (0..n).rev() {
            // r' = (r << 1) | a[i]; r < 2^n here, so bit n of r is always
            // zero and dropping it cannot lose information.
            let mut shifted = Vec::with_capacity(n + 1);
            shifted.push(a[i]);
            shifted.extend_from_slice(&r[..n]);
            let (diff, no_borrow) = self.add(&shifted, &not_b, LIT_TRUE)?;
            q[i] = no_borrow;
            r = self.mux_vec(no_borrow, &diff, &shifted)?;
        }
        r.truncate(n);
        Ok((q, r))
    }

    /// All four division/remainder variants on top of the restoring divider,
    /// mirroring `cp_symexpr::eval_binop` bit for bit: signed variants
    /// divide magnitudes and re-sign (quotient by `sign(a) ^ sign(b)`,
    /// remainder by the dividend's sign, so `INT_MIN / -1` wraps back to
    /// `INT_MIN` and `INT_MIN % -1` is zero), and signed division by zero is
    /// muxed to all-ones (the unsigned variants and signed remainder get
    /// their zero-divisor semantics from the divider structurally).
    fn divrem(&mut self, op: BinOp, a: &[Lit], b: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        match op {
            BinOp::DivU => Ok(self.udivrem(a, b)?.0),
            BinOp::RemU => Ok(self.udivrem(a, b)?.1),
            BinOp::DivS | BinOp::RemS => {
                let n = a.len();
                let (sa, sb) = (a[n - 1], b[n - 1]);
                let neg_a = self.neg(a)?;
                let abs_a = self.mux_vec(sa, &neg_a, a)?;
                let neg_b = self.neg(b)?;
                let abs_b = self.mux_vec(sb, &neg_b, b)?;
                let (q, r) = self.udivrem(&abs_a, &abs_b)?;
                if matches!(op, BinOp::RemS) {
                    let neg_r = self.neg(&r)?;
                    return self.mux_vec(sa, &neg_r, &r);
                }
                let neg_q = self.neg(&q)?;
                let sign_diff = self.aig.xor(sa, sb)?;
                let signed_q = self.mux_vec(sign_diff, &neg_q, &q)?;
                let b_zero = negate(self.or_reduce(b)?);
                let ones = vec![LIT_TRUE; n];
                self.mux_vec(b_zero, &ones, &signed_q)
            }
            _ => unreachable!("divrem called on a non-division operator"),
        }
    }

    /// Unsigned `a < b`: no carry out of `a + ¬b + 1`.
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Result<Lit, BlastError> {
        let nb = invert(b);
        let (_, carry) = self.add(a, &nb, LIT_TRUE)?;
        Ok(negate(carry))
    }

    /// Signed `a < b`: on differing signs the negative side is smaller,
    /// otherwise the unsigned comparison decides.
    fn slt(&mut self, a: &[Lit], b: &[Lit]) -> Result<Lit, BlastError> {
        let (sa, sb) = (a[a.len() - 1], b[b.len() - 1]);
        let unsigned = self.ult(a, b)?;
        let diff_sign = self.aig.xor(sa, sb)?;
        self.aig.mux(diff_sign, sa, unsigned)
    }

    fn equal(&mut self, a: &[Lit], b: &[Lit]) -> Result<Lit, BlastError> {
        let mut acc = LIT_TRUE;
        for (&x, &y) in a.iter().zip(b) {
            let same = negate(self.aig.xor(x, y)?);
            acc = self.aig.and(acc, same)?;
        }
        Ok(acc)
    }

    /// Barrel shifter matching `eval`'s semantics: shift amounts at or above
    /// the operand width produce zero (`Shl`/`ShrU`) or the replicated sign
    /// (`ShrS`).  Constant shift amounts fold to wires for free through the
    /// AIG's constant propagation.
    fn shift(&mut self, op: BinOp, a: &[Lit], b: &[Lit]) -> Result<Vec<Lit>, BlastError> {
        let n = a.len();
        let stages = n.trailing_zeros() as usize;
        let fill = match op {
            BinOp::ShrS => a[n - 1],
            _ => LIT_FALSE,
        };
        let mut cur = a.to_vec();
        for (s, &sel) in b.iter().enumerate().take(stages) {
            let k = 1usize << s;
            let mut next = Vec::with_capacity(n);
            for i in 0..n {
                let shifted = match op {
                    BinOp::Shl => {
                        if i >= k {
                            cur[i - k]
                        } else {
                            LIT_FALSE
                        }
                    }
                    _ => {
                        if i + k < n {
                            cur[i + k]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.aig.mux(sel, shifted, cur[i])?);
            }
            cur = next;
        }
        let oob = self.or_reduce(&b[stages..])?;
        for bit in cur.iter_mut() {
            *bit = self.aig.mux(oob, fill, *bit)?;
        }
        Ok(cur)
    }

    /// Blasts `root` (iterative post-order, memoised per interned node).
    fn blast(&mut self, root: &ExprRef) -> Result<Vec<Lit>, BlastError> {
        let mut stack: Vec<(ExprRef, bool)> = vec![(*root, false)];
        while let Some((e, ready)) = stack.pop() {
            if self.memo.contains_key(&e.memo_key()) {
                continue;
            }
            if ready {
                let bits = self.blast_node(&e)?;
                self.memo.insert(e.memo_key(), bits);
                continue;
            }
            match e.as_ref() {
                SymExpr::Const { .. } | SymExpr::InputByte { .. } | SymExpr::Field { .. } => {
                    let bits = self.blast_node(&e)?;
                    self.memo.insert(e.memo_key(), bits);
                }
                SymExpr::Unary { arg, .. } | SymExpr::Cast { arg, .. } => {
                    stack.push((e, true));
                    stack.push((*arg, false));
                }
                SymExpr::Binary { lhs, rhs, .. } => {
                    stack.push((e, true));
                    stack.push((*lhs, false));
                    stack.push((*rhs, false));
                }
            }
        }
        Ok(self.memo[&root.memo_key()].clone())
    }

    /// Blasts one node whose children are already memoised, mirroring the
    /// operand-width rules of `cp_symexpr::eval` exactly.
    fn blast_node(&mut self, e: &ExprRef) -> Result<Vec<Lit>, BlastError> {
        let node_bits = e.width().bits() as usize;
        match e.as_ref() {
            SymExpr::Const { width, value } => Ok(const_bits(node_bits, width.truncate(*value))),
            SymExpr::InputByte { offset } => Ok(self.input_bits(*offset)),
            SymExpr::Field { offsets, .. } => {
                // v = fold(v << 8 | byte) over offsets, then truncate.
                let mut v = vec![LIT_FALSE; 64];
                for &off in offsets {
                    let mut next = self.input_bits(off);
                    next.extend_from_slice(&v[..56]);
                    v = next;
                }
                Ok(resize_zero(&v, node_bits))
            }
            SymExpr::Unary { op, arg, .. } => {
                let arg_bits = self.memo[&arg.memo_key()].clone();
                match op {
                    UnOp::Neg => {
                        let a = invert(&resize_zero(&arg_bits, node_bits));
                        let zero = vec![LIT_FALSE; node_bits];
                        Ok(self.add(&a, &zero, LIT_TRUE)?.0)
                    }
                    // `!a` on the untruncated u64 sets every bit above the
                    // operand width; inverting the zero-extension models that.
                    UnOp::Not => Ok(invert(&resize_zero(&arg_bits, node_bits))),
                    UnOp::LogicalNot => {
                        let any = self.or_reduce(&arg_bits)?;
                        let mut out = vec![LIT_FALSE; node_bits];
                        out[0] = negate(any);
                        Ok(out)
                    }
                }
            }
            SymExpr::Cast { kind, width, arg } => {
                let arg_bits = self.memo[&arg.memo_key()].clone();
                match kind {
                    CastKind::ZeroExt | CastKind::Truncate => Ok(resize_zero(&arg_bits, node_bits)),
                    CastKind::SignExt => {
                        if width.bits() as usize <= arg_bits.len() {
                            Ok(resize_zero(&arg_bits, node_bits))
                        } else {
                            let sign = arg_bits[arg_bits.len() - 1];
                            let mut out = arg_bits;
                            out.resize(node_bits, sign);
                            Ok(out)
                        }
                    }
                }
            }
            SymExpr::Binary { op, lhs, rhs, .. } => {
                let ow = if op.is_comparison() {
                    lhs.width().bits() as usize
                } else {
                    node_bits
                };
                let a = resize_zero(&self.memo[&lhs.memo_key()].clone(), ow);
                let b = resize_zero(&self.memo[&rhs.memo_key()].clone(), ow);
                let result = match op {
                    BinOp::Add => self.add(&a, &b, LIT_FALSE)?.0,
                    BinOp::Sub => {
                        let nb = invert(&b);
                        self.add(&a, &nb, LIT_TRUE)?.0
                    }
                    BinOp::Mul => self.mul(&a, &b)?,
                    BinOp::DivU | BinOp::DivS | BinOp::RemU | BinOp::RemS => {
                        self.divrem(*op, &a, &b)?
                    }
                    BinOp::And => {
                        let mut out = Vec::with_capacity(ow);
                        for (&x, &y) in a.iter().zip(&b) {
                            out.push(self.aig.and(x, y)?);
                        }
                        out
                    }
                    BinOp::Or => {
                        let mut out = Vec::with_capacity(ow);
                        for (&x, &y) in a.iter().zip(&b) {
                            out.push(self.aig.or(x, y)?);
                        }
                        out
                    }
                    BinOp::Xor => {
                        let mut out = Vec::with_capacity(ow);
                        for (&x, &y) in a.iter().zip(&b) {
                            out.push(self.aig.xor(x, y)?);
                        }
                        out
                    }
                    BinOp::Shl | BinOp::ShrU | BinOp::ShrS => self.shift(*op, &a, &b)?,
                    BinOp::Eq => vec![self.equal(&a, &b)?],
                    BinOp::Ne => vec![negate(self.equal(&a, &b)?)],
                    BinOp::LtU => vec![self.ult(&a, &b)?],
                    BinOp::LeU => vec![negate(self.ult(&b, &a)?)],
                    BinOp::LtS => vec![self.slt(&a, &b)?],
                    BinOp::LeS => vec![negate(self.slt(&b, &a)?)],
                };
                Ok(resize_zero(&result, node_bits))
            }
        }
    }
}

/// A definitive verdict in the process-wide memo, stored positionally:
/// `Sat` holds one byte per input *position* (the i-th entry is the value
/// of the i-th offset in the query's sorted support), so a hit can be
/// re-projected onto a different caller's byte offsets.
#[derive(Debug, Clone)]
enum CachedVerdict {
    Unsat,
    Sat(Vec<u8>),
}

/// Hit/miss counters for the process-wide verdict memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that went to the decision procedure.
    pub misses: u64,
}

impl MemoStats {
    /// Fraction of decided queries served from the memo (0.0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Entry cap for the verdict memo; reaching it clears the table (the
/// simplest O(1) eviction — a corpus sweep's working set is far smaller).
const VERDICT_MEMO_CAP: usize = 1 << 16;

static VERDICT_MEMO: OnceLock<Mutex<HashMap<(u64, u64), CachedVerdict>>> = OnceLock::new();

fn verdict_memo() -> &'static Mutex<HashMap<(u64, u64), CachedVerdict>> {
    VERDICT_MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The memo counters live in the `cp-obs` registry (`solver.memo.hit` /
/// `solver.memo.miss`), so trace exports and BENCH.json read the same
/// numbers [`memo_stats`] reports; the handles are cached so the hot probe
/// path pays one relaxed atomic add, exactly as the old private statics did.
fn memo_hit_counter() -> &'static cp_obs::metrics::Counter {
    static HITS: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
    HITS.get_or_init(|| cp_obs::metrics::counter("solver.memo.hit"))
}

fn memo_miss_counter() -> &'static cp_obs::metrics::Counter {
    static MISSES: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
    MISSES.get_or_init(|| cp_obs::metrics::counter("solver.memo.miss"))
}

/// Process-wide memo counters (shared by every thread's queries).
pub fn memo_stats() -> MemoStats {
    MemoStats {
        hits: memo_hit_counter().get(),
        misses: memo_miss_counter().get(),
    }
}

/// Empties the verdict memo and zeroes its counters — for benchmarks and
/// tests that need a cold start.
pub fn reset_memo() {
    let mut memo = verdict_memo().lock().unwrap_or_else(|p| p.into_inner());
    memo.clear();
    memo_hit_counter().reset();
    memo_miss_counter().reset();
}

/// Positional structural hasher for query expression DAGs — the verdict-memo
/// key, computed in one DAG walk with **no gate construction**.
///
/// The walk assigns each distinct node a dense first-visit id and mixes one
/// record per node (a tag, the width, the operator, child ids) into two
/// independent 64-bit FNV-style streams for a 128-bit key.  `InputByte`
/// leaves (and `Field` byte offsets) are hashed as the *rank* of the offset
/// in the query's sorted support, so the key describes a function of input
/// positions and a donor check re-proved at different byte offsets still
/// hits.  `Field` paths are excluded: the blasted function depends only on
/// the byte decomposition, never on the label.
///
/// Equal keys mean positionally identical expression structure — strictly
/// finer than the strashed-circuit equality an AIG hash would give, so a
/// few cross-expression hits are lost, but the probe costs a walk of the
/// (already simplified, hash-consed) DAG instead of a full miter build.
/// That is what lets the escalation ladder consult the memo before paying
/// for any AIG construction.
struct ExprHasher {
    h: [u64; 2],
    /// Node memo key → dense first-visit id.  Node addresses are only
    /// unique while the query holds its expressions alive, which a hasher
    /// local to one query call trivially satisfies.
    ids: HashMap<usize, u64>,
    /// Input byte offset → rank in the query's sorted support.
    rank: HashMap<usize, u64>,
}

impl ExprHasher {
    fn new(offsets: &[usize]) -> Self {
        let rank = offsets
            .iter()
            .enumerate()
            .map(|(i, &off)| (off, i as u64))
            .collect();
        let mut hasher = ExprHasher {
            h: [0xCBF2_9CE4_8422_2325, 0x9E37_79B9_7F4A_7C15],
            ids: HashMap::new(),
            rank,
        };
        hasher.mix(offsets.len() as u64);
        hasher
    }

    fn mix(&mut self, v: u64) {
        for h in self.h.iter_mut() {
            *h ^= v;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            *h ^= *h >> 29;
        }
    }

    /// The positional encoding of a byte offset.  Offsets outside the
    /// support cannot produce false hits (both sides of any colliding pair
    /// would need the same out-of-support offset), so falling back to the
    /// raw offset only costs precision, never soundness.
    fn position(&self, offset: usize) -> u64 {
        self.rank.get(&offset).copied().unwrap_or(offset as u64)
    }

    /// Walks `root`'s DAG iteratively in post-order, mixing one record per
    /// *new* node, and returns the root's id.
    fn visit(&mut self, root: &ExprRef) -> u64 {
        let mut stack: Vec<(ExprRef, bool)> = vec![(*root, false)];
        while let Some((e, ready)) = stack.pop() {
            if self.ids.contains_key(&e.memo_key()) {
                continue;
            }
            if ready {
                self.record(&e);
                continue;
            }
            match e.as_ref() {
                SymExpr::Const { .. } | SymExpr::InputByte { .. } | SymExpr::Field { .. } => {
                    self.record(&e);
                }
                SymExpr::Unary { arg, .. } | SymExpr::Cast { arg, .. } => {
                    stack.push((e, true));
                    stack.push((*arg, false));
                }
                SymExpr::Binary { lhs, rhs, .. } => {
                    stack.push((e, true));
                    stack.push((*lhs, false));
                    stack.push((*rhs, false));
                }
            }
        }
        self.ids[&root.memo_key()]
    }

    /// Mixes one node whose children are already recorded and assigns its id.
    fn record(&mut self, e: &ExprRef) {
        match e.as_ref() {
            SymExpr::Const { width, value } => {
                let value = width.truncate(*value);
                self.mix(1);
                self.mix(width.bits() as u64);
                self.mix(value);
            }
            SymExpr::InputByte { offset } => {
                let position = self.position(*offset);
                self.mix(2);
                self.mix(position);
            }
            SymExpr::Field { width, offsets, .. } => {
                self.mix(3);
                self.mix(width.bits() as u64);
                self.mix(offsets.len() as u64);
                for &off in offsets {
                    let position = self.position(off);
                    self.mix(position);
                }
            }
            SymExpr::Unary { op, width, arg } => {
                let child = self.ids[&arg.memo_key()];
                self.mix(4);
                self.mix(*op as u64);
                self.mix(width.bits() as u64);
                self.mix(child);
            }
            SymExpr::Cast { kind, width, arg } => {
                let child = self.ids[&arg.memo_key()];
                self.mix(5);
                self.mix(*kind as u64);
                self.mix(width.bits() as u64);
                self.mix(child);
            }
            SymExpr::Binary {
                op,
                width,
                lhs,
                rhs,
            } => {
                let left = self.ids[&lhs.memo_key()];
                let right = self.ids[&rhs.memo_key()];
                self.mix(6);
                self.mix(*op as u64);
                self.mix(width.bits() as u64);
                self.mix(left);
                self.mix(right);
            }
        }
        self.ids.insert(e.memo_key(), self.ids.len() as u64);
    }

    fn digest(&self) -> (u64, u64) {
        (self.h[0], self.h[1])
    }
}

/// Inserts a definitive verdict, clearing the table first when it is full.
fn memo_insert(key: (u64, u64), verdict: CachedVerdict) {
    let mut memo = verdict_memo().lock().unwrap_or_else(|p| p.into_inner());
    if memo.len() >= VERDICT_MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, verdict);
}

/// A query's memo identity: the positional structural key of its expression
/// DAG plus the sorted support it was computed over (cached `Sat` models are
/// positional and decode against that support).
///
/// Computing a `QueryKey` walks the expression DAG once and builds **no
/// gates**, so the escalation ladder probes the memo before any AIG exists;
/// the circuit is only built on misses that sampling cannot resolve.
///
/// Only *definitive* outcomes enter the memo: `Unsat` and `Sat` are
/// budget-independent truths about the query, while an abandoned query
/// depends on the caller's budgets and must stay re-decidable (a starved chaos
/// run must not poison — or be rescued by — a healthy one).
pub(crate) struct QueryKey {
    key: (u64, u64),
    offsets: Vec<usize>,
}

/// Keys the equivalence query `a ≟ b` over the pair's union support.  Both
/// DAGs are walked by one hasher, so subexpressions shared between the two
/// sides are recorded once — mirroring how the blaster would share their
/// gates.
pub(crate) fn key_equiv(a: &ExprRef, b: &ExprRef) -> QueryKey {
    let mut offsets: Vec<usize> = a.support().iter().chain(b.support().iter()).collect();
    offsets.sort_unstable();
    offsets.dedup();
    let mut hasher = ExprHasher::new(&offsets);
    hasher.mix(1); // query tag: equivalence miter
    let left = hasher.visit(a);
    let right = hasher.visit(b);
    hasher.mix(left);
    hasher.mix(right);
    QueryKey {
        key: hasher.digest(),
        offsets,
    }
}

/// Keys the satisfiability query `expr ≠ 0` over the expression's support.
pub(crate) fn key_nonzero(expr: &ExprRef) -> QueryKey {
    let offsets: Vec<usize> = expr.support().iter().collect();
    let mut hasher = ExprHasher::new(&offsets);
    hasher.mix(2); // query tag: non-zero satisfiability
    let root = hasher.visit(expr);
    hasher.mix(root);
    QueryKey {
        key: hasher.digest(),
        offsets,
    }
}

impl QueryKey {
    /// Probes the verdict memo, counting one hit or one miss; `None` on a
    /// miss.  A cached `Sat` is re-projected onto this query's byte
    /// offsets, which is what lets a donor check re-proved at different
    /// offsets hit.
    ///
    /// A zero gate budget bypasses the memo entirely (neither hit nor miss
    /// is counted): [`super::SolverBudgets::starved`] must behave
    /// identically on a hot and a cold memo, because chaos-starved
    /// scenarios are asserted to fail even when a healthy sweep already
    /// decided their queries.
    pub(crate) fn probe(&self, limits: &BlastLimits) -> Option<BlastOutcome> {
        if limits.max_gates == 0 {
            return None;
        }
        let memo = verdict_memo().lock().unwrap_or_else(|p| p.into_inner());
        match memo.get(&self.key) {
            Some(hit) => {
                memo_hit_counter().inc();
                Some(match hit {
                    CachedVerdict::Unsat => BlastOutcome::Unsat,
                    CachedVerdict::Sat(bytes) => BlastOutcome::Sat(
                        self.offsets
                            .iter()
                            .copied()
                            .zip(bytes.iter().copied())
                            .collect(),
                    ),
                })
            }
            None => {
                memo_miss_counter().inc();
                None
            }
        }
    }

    /// Records a model the ladder's *sampling* stage found, so the next
    /// identical query probe-hits without sampling.  (Sampling is
    /// deterministic and positional — the seeded stream assigns the same
    /// byte sequence to the same support positions — so the cached model is
    /// exactly what any same-key query's own sampling would produce.)
    pub(crate) fn cache_model(&self, model: &[(usize, u8)]) {
        let bytes: Vec<u8> = self
            .offsets
            .iter()
            .map(|off| {
                model
                    .iter()
                    .find(|(o, _)| o == off)
                    .map(|&(_, b)| b)
                    .unwrap_or(0)
            })
            .collect();
        memo_insert(self.key, CachedVerdict::Sat(bytes));
    }

    /// The query's sorted support — the byte offsets cached models are
    /// positional over.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Records a decision-procedure outcome.  Session models are decoded
    /// in `offsets` order, which *is* the positional order the memo stores.
    pub(crate) fn record(&self, outcome: &BlastOutcome) {
        match outcome {
            BlastOutcome::Unsat => memo_insert(self.key, CachedVerdict::Unsat),
            BlastOutcome::Sat(model) => memo_insert(
                self.key,
                CachedVerdict::Sat(model.iter().map(|&(_, b)| b).collect()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{IncrementalSolver, IncrementalVerdict};
    use crate::{Equivalence, Satisfiability, Solver, SolverBudgets};
    use cp_symexpr::eval::eval;
    use cp_symexpr::{ExprBuild, SymExpr, Width};

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    fn assert_witness_disagrees(a: &ExprRef, b: &ExprRef, witness: &[(usize, u8)]) {
        let lookup = |offset: usize| {
            witness
                .iter()
                .find(|(o, _)| *o == offset)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_ne!(eval(a, &lookup), eval(b, &lookup), "witness must disagree");
    }

    /// Decides `a ≟ b` on a fresh incremental context: the blaster and the
    /// CDCL alone, with no memo or sampling in front.
    fn decide_equiv(a: &ExprRef, b: &ExprRef, limits: &BlastLimits) -> IncrementalVerdict {
        IncrementalSolver::new(limits).query_equiv(a, b, key_equiv(a, b).offsets())
    }

    /// Decides `expr ≠ 0` the same way, under the default limits.
    fn decide_nonzero(expr: &ExprRef) -> IncrementalVerdict {
        IncrementalSolver::new(&BlastLimits::default())
            .query_nonzero(std::slice::from_ref(expr), key_nonzero(expr).offsets())
    }

    /// The miter `a ≠ b` must be unsatisfiable: a proof of equivalence.
    fn assert_proved(a: &ExprRef, b: &ExprRef) {
        let verdict = decide_equiv(a, b, &BlastLimits::default());
        assert!(
            matches!(verdict, IncrementalVerdict::Unsat { .. }),
            "expected a proof, got {verdict:?}"
        );
    }

    /// The miter `a ≠ b` must have a model, and it must be a real witness.
    fn assert_refuted(a: &ExprRef, b: &ExprRef) {
        match decide_equiv(a, b, &BlastLimits::default()) {
            IncrementalVerdict::Sat(witness) => assert_witness_disagrees(a, b, &witness),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn field_equals_its_byte_concatenation() {
        let raw = be16(4, 5);
        let field = SymExpr::field("/hdr/height", Width::W16, vec![4, 5]);
        assert_proved(&raw, &field);
    }

    #[test]
    fn distinct_bytes_yield_a_real_witness() {
        assert_refuted(&be16(0, 1), &be16(2, 3));
    }

    #[test]
    fn addition_commutes() {
        let x = SymExpr::input_byte(0).zext(Width::W32);
        let y = SymExpr::input_byte(1).zext(Width::W32);
        assert_proved(&x.binop(BinOp::Add, y), &y.binop(BinOp::Add, x));
    }

    #[test]
    fn addition_associates() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let y = SymExpr::input_byte(1).zext(Width::W16);
        let z = SymExpr::input_byte(2).zext(Width::W16);
        let left = x.binop(BinOp::Add, y).binop(BinOp::Add, z);
        let right = x.binop(BinOp::Add, y.binop(BinOp::Add, z));
        assert_proved(&left, &right);
    }

    #[test]
    fn off_by_one_is_satisfiable_with_verified_witness() {
        let x = SymExpr::input_byte(3).zext(Width::W32);
        let a = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 1));
        let b = x.binop(BinOp::Add, SymExpr::constant(Width::W32, 2));
        assert_refuted(&a, &b);
    }

    #[test]
    fn truncated_increment_differs_exactly_at_wraparound() {
        // x + 1 at 16 bits vs (x + 1) truncated through 8 bits: they differ
        // only at x == 255 — a needle sampling rarely finds but SAT must.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let plus = x.binop(BinOp::Add, SymExpr::constant(Width::W16, 1));
        let wrapped = plus.truncate(Width::W8).zext(Width::W16);
        assert_eq!(
            decide_equiv(&plus, &wrapped, &BlastLimits::default()),
            IncrementalVerdict::Sat(vec![(0, 255)])
        );
    }

    #[test]
    fn demorgan_holds() {
        let x = SymExpr::input_byte(0);
        let y = SymExpr::input_byte(1);
        let lhs = x.binop(BinOp::And, y).unop(UnOp::Not);
        let rhs = x.unop(UnOp::Not).binop(BinOp::Or, y.unop(UnOp::Not));
        assert_proved(&lhs, &rhs);
    }

    #[test]
    fn multiply_by_two_equals_shift() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let double = x.binop(BinOp::Mul, SymExpr::constant(Width::W16, 2));
        let shifted = x.binop(BinOp::Shl, SymExpr::constant(Width::W16, 1));
        assert_proved(&double, &shifted);
    }

    #[test]
    fn dynamic_shift_matches_eval_for_every_amount() {
        // x >> s (symbolic s) vs eval on all 256*256 inputs would be the
        // exhaustive check; here the miter against a wrong variant must be SAT
        // and the witness must be genuine.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let s = SymExpr::input_byte(1).zext(Width::W16);
        assert_refuted(&x.binop(BinOp::ShrU, s), &x.binop(BinOp::Shl, s));
    }

    #[test]
    fn signed_shift_replicates_the_sign_for_large_amounts() {
        let x = SymExpr::input_byte(0);
        let big = x.binop(BinOp::ShrS, SymExpr::constant(Width::W8, 200));
        // For every x: result is 0xFF if the sign bit is set, else 0.
        let expected = x
            .binop(BinOp::LtS, SymExpr::constant(Width::W8, 0))
            .binop(BinOp::Mul, SymExpr::constant(Width::W8, 0xFF));
        assert_proved(&big, &expected);
    }

    #[test]
    fn division_is_decided_by_the_divider_circuit() {
        // x / 2 == x >> 1 for unsigned x: a real UNSAT proof over the
        // restoring divider, not a fallback.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let div2 = x.binop(BinOp::DivU, SymExpr::constant(Width::W16, 2));
        let shr = x.binop(BinOp::ShrU, SymExpr::constant(Width::W16, 1));
        assert_proved(&div2, &shr);
        // …while x / 3 disagrees with x >> 1 somewhere, with a genuine
        // witness.
        let div3 = x.binop(BinOp::DivU, SymExpr::constant(Width::W16, 3));
        assert_refuted(&div3, &shr);
    }

    #[test]
    fn division_by_zero_matches_eval_semantics() {
        // eval defines x / 0 = MAX and x % 0 = x; the divider must agree on
        // every input.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let zero = SymExpr::constant(Width::W16, 0);
        let div = x.binop(BinOp::DivU, zero);
        assert_proved(&div, &SymExpr::constant(Width::W16, 0xFFFF));
        assert_proved(&x.binop(BinOp::RemU, zero), &x);
    }

    #[test]
    fn signed_division_by_minus_one_negates_including_int_min() {
        // At 8 bits, x / -1 is two's-complement negation for *every* x:
        // INT_MIN / -1 wraps back to INT_MIN exactly as Neg(INT_MIN) does.
        let x = SymExpr::input_byte(0);
        let div = x.binop(BinOp::DivS, SymExpr::constant(Width::W8, 0xFF));
        assert_proved(&div, &x.unop(UnOp::Neg));
    }

    /// Evaluates a blasted bit vector under a concrete environment by
    /// walking the AIG in variable order (topological by construction).
    fn simulate(blaster: &Blaster, bits: &[Lit], env: &[u8]) -> u64 {
        let n = blaster.aig.n_vars();
        let mut input_of: Vec<Option<(usize, u32)>> = vec![None; n];
        for (&off, &base) in &blaster.offset_var {
            for i in 0..8u32 {
                input_of[(base + i) as usize] = Some((off, i));
            }
        }
        let lit_value = |values: &[bool], lit: Lit| values[var_of(lit) as usize] ^ (lit & 1 == 1);
        let mut values = vec![false; n];
        for v in 1..n {
            values[v] = match blaster.aig.nodes[v - 1] {
                None => {
                    let (off, bit) = input_of[v].expect("input variable maps to an offset bit");
                    (env[off] >> bit) & 1 == 1
                }
                Some((a, b)) => lit_value(&values, a) && lit_value(&values, b),
            };
        }
        bits.iter().enumerate().fold(0u64, |acc, (i, &lit)| {
            acc | (u64::from(lit_value(&values, lit)) << i)
        })
    }

    #[test]
    fn division_circuits_match_eval_on_a_seeded_sweep() {
        // All four division variants at every width against the reference
        // evaluator: forced corners (INT_MIN / -1, divide-by-zero, ±1
        // divisors) plus a seeded random sweep, >10k samples in total.
        let ops = [BinOp::DivU, BinOp::DivS, BinOp::RemU, BinOp::RemS];
        let widths = [Width::W8, Width::W16, Width::W32, Width::W64];
        let mut rng = 0xD1D0_5EEDu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut checked = 0usize;
        for &width in &widths {
            let nbytes = width.bits() as usize / 8;
            // Field folds most-significant-first, so byte 0 is the top byte.
            let a = SymExpr::field("/a", width, (0..nbytes).collect());
            let b = SymExpr::field("/b", width, (nbytes..2 * nbytes).collect());
            for &op in &ops {
                let expr = a.binop(op, b);
                let mut blaster = Blaster::new(400_000);
                let bits = blaster.blast(&expr).expect("division blasts within budget");
                let mut cases: Vec<Vec<u8>> = Vec::new();
                // INT_MIN / -1 (the signed wraparound), x / 0, INT_MIN / 1,
                // -1 / -1, 0 / random.
                let int_min = |bytes: &mut [u8]| bytes[0] = 0x80;
                let mut case = vec![0u8; 2 * nbytes];
                int_min(&mut case);
                case[nbytes..].fill(0xFF);
                cases.push(case.clone());
                case[nbytes..].fill(0);
                cases.push(case.clone()); // INT_MIN / 0
                case[2 * nbytes - 1] = 1;
                cases.push(case.clone()); // INT_MIN / 1
                let mut case = vec![0xFFu8; 2 * nbytes];
                cases.push(case.clone()); // -1 / -1
                case[..nbytes].fill(0);
                cases.push(case.clone()); // 0 / -1
                while cases.len() < 640 {
                    let mut case: Vec<u8> = (0..2 * nbytes).map(|_| next() as u8).collect();
                    // Bias a slice of the sweep toward small divisors so
                    // quotient carry chains get exercised, and toward zero
                    // divisors so the guard path does.
                    match cases.len() % 8 {
                        0 => {
                            case[nbytes..].fill(0);
                            case[2 * nbytes - 1] = (next() % 5) as u8;
                        }
                        1 => case[nbytes..].fill(0),
                        _ => {}
                    }
                    cases.push(case);
                }
                for case in &cases {
                    let got = simulate(&blaster, &bits, case);
                    let want = eval(&expr, &case[..]);
                    assert_eq!(
                        got, want,
                        "{op:?} at {width:?} disagrees with eval on {case:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 10_000, "sweep too small: {checked}");
    }

    #[test]
    fn gate_budget_charges_each_query_only_its_own_gates() {
        // Regression for cumulative budget accounting: on a reused graph the
        // second query must not be charged for the first query's gates.
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let y = SymExpr::input_byte(1).zext(Width::W16);
        let sum = x.binop(BinOp::Add, y);
        let prod = x.binop(BinOp::Mul, y);
        // How many gates the product needs on its own.
        let mut probe = Blaster::new(usize::MAX);
        probe.blast(&prod).expect("unbounded blast");
        let prod_gates = probe.aig.gates;
        // A shared graph whose budget fits exactly one product: after the
        // adder query consumed part of the graph, the product query must
        // still blast — `begin_query` resets the per-query floor.
        let mut shared = Blaster::new(prod_gates);
        shared.begin_query();
        shared.blast(&sum).expect("the adder fits the budget alone");
        assert!(shared.aig.gates > 0);
        shared.begin_query();
        shared
            .blast(&prod)
            .expect("per-query budget: prior gates must not count");
    }

    #[test]
    fn adder_reassociation_miter_stays_tractable() {
        // Two differently associated 4-term sums: structurally disjoint
        // circuits whose equivalence needs real carry-chain reasoning (the
        // hardest instance of this family the learner proves in well under
        // a second; 5+ terms need XOR-aware reasoning no CDCL alone has).
        let bytes: Vec<ExprRef> = (0..4)
            .map(|i| SymExpr::input_byte(i).zext(Width::W16))
            .collect();
        let left = bytes[1..]
            .iter()
            .fold(bytes[0], |acc, b| acc.binop(BinOp::Add, *b));
        let right = bytes[..3]
            .iter()
            .rev()
            .fold(bytes[3], |acc, b| acc.binop(BinOp::Add, *b));
        assert_proved(&left, &right);
    }

    #[test]
    fn nonzero_finds_a_model_for_a_narrow_equality() {
        // hdr16 == 0xBEEF has exactly one model over two bytes.
        let raw = be16(0, 1);
        let goal = raw.binop(BinOp::Eq, SymExpr::constant(Width::W16, 0xBEEF));
        match decide_nonzero(&goal) {
            IncrementalVerdict::Sat(model) => {
                let mut sorted = model.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![(0, 0xBE), (1, 0xEF)]);
                let lookup = |off: usize| sorted.iter().find(|(o, _)| *o == off).unwrap().1;
                assert_ne!(eval(&goal, &lookup), 0);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn nonzero_refutes_contradictions() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let lt = x.binop(BinOp::LtU, SymExpr::constant(Width::W16, 4));
        let ge = SymExpr::constant(Width::W16, 9).binop(BinOp::LeU, x);
        let both = lt.binop(BinOp::And, ge);
        assert!(matches!(
            decide_nonzero(&both),
            IncrementalVerdict::Unsat { .. }
        ));
    }

    #[test]
    fn nonzero_constant_true_satisfies_trivially() {
        let one = SymExpr::constant(Width::W8, 1);
        assert!(matches!(decide_nonzero(&one), IncrementalVerdict::Sat(_)));
        let zero = SymExpr::constant(Width::W8, 0);
        assert!(matches!(
            decide_nonzero(&zero),
            IncrementalVerdict::Unsat { .. }
        ));
    }

    #[test]
    fn nonzero_decides_division_goals() {
        let x = SymExpr::input_byte(0).zext(Width::W16);
        let y = SymExpr::input_byte(1).zext(Width::W16);
        // x / y can be nonzero (e.g. 2 / 1), and any witness must really
        // make it so.
        let quotient = x.binop(BinOp::DivU, y);
        match decide_nonzero(&quotient) {
            IncrementalVerdict::Sat(witness) => {
                let mut env = [0u8; 2];
                for &(off, byte) in &witness {
                    env[off] = byte;
                }
                assert_ne!(eval(&quotient, &env[..]), 0, "bogus witness {witness:?}");
            }
            other => panic!("expected Sat, got {other:?}"),
        }
        // …but x % 2 never equals 3.
        let two = SymExpr::constant(Width::W16, 2);
        let three = SymExpr::constant(Width::W16, 3);
        let impossible = x.binop(BinOp::RemU, two).binop(BinOp::Eq, three);
        assert!(matches!(
            decide_nonzero(&impossible),
            IncrementalVerdict::Unsat { .. }
        ));
    }

    #[test]
    fn gate_budget_abandons_instead_of_hanging() {
        let x = SymExpr::input_byte(0).zext(Width::W64);
        let y = SymExpr::input_byte(1).zext(Width::W64);
        let a = x.binop(BinOp::Mul, y).binop(BinOp::Mul, x);
        let b = y.binop(BinOp::Mul, x).binop(BinOp::Mul, x);
        let limits = BlastLimits {
            max_gates: 100,
            max_conflicts: 10,
        };
        assert_eq!(
            decide_equiv(&a, &b, &limits),
            IncrementalVerdict::Abandoned("gate budget")
        );
    }

    // The verdict-memo tests go through the full ladder and use delta-based
    // assertions on the global counters: other tests run concurrently in
    // this process and bump them too, so the tests assert their own
    // contribution, never totals.

    #[test]
    fn a_repeated_query_is_a_memo_hit() {
        let e = SymExpr::input_byte(2001)
            .zext(Width::W32)
            .binop(BinOp::Mul, SymExpr::constant(Width::W32, 3))
            .binop(BinOp::Eq, SymExpr::constant(Width::W32, 6));
        let first = Solver::default().solve(&e);
        assert!(first.is_sat(), "{first:?}");
        let before = memo_stats();
        let second = Solver::default().solve(&e);
        assert_eq!(first, second, "a hit must reproduce the verdict exactly");
        assert!(
            memo_stats().hits > before.hits,
            "an identical circuit must be served from the memo"
        );
    }

    #[test]
    fn a_hit_reprojects_the_witness_onto_new_offsets() {
        // Same boolean function of input *positions*, different byte
        // offsets: the second query must hit and decode the cached model
        // against its own offsets.
        let at = |offset: usize| {
            SymExpr::input_byte(offset)
                .zext(Width::W16)
                .binop(BinOp::Eq, SymExpr::constant(Width::W16, 77))
        };
        assert_eq!(
            Solver::default().solve(&at(3001)),
            Satisfiability::Sat {
                model: vec![(3001, 77)]
            }
        );
        let before = memo_stats();
        assert_eq!(
            Solver::default().solve(&at(3002)),
            Satisfiability::Sat {
                model: vec![(3002, 77)]
            },
            "the cached positional model must decode at the new offset"
        );
        assert!(
            memo_stats().hits > before.hits,
            "offsets must not enter the circuit key"
        );
    }

    #[test]
    fn abandoned_verdicts_are_not_cached() {
        // An associativity miter — (x+y)+z vs x+(y+z) — builds *different*
        // gates (strashing cannot collapse it) and its UNSAT proof needs
        // real CDCL search: with a zero conflict budget it abandons (and the
        // three-byte support is too large to enumerate), and that non-verdict
        // must not poison the memo — a later, properly budgeted run must
        // decide it for real.
        let x = SymExpr::input_byte(4001).zext(Width::W16);
        let y = SymExpr::input_byte(4002).zext(Width::W16);
        let z = SymExpr::input_byte(4003).zext(Width::W16);
        let a = x.binop(BinOp::Add, y).binop(BinOp::Add, z);
        let b = x.binop(BinOp::Add, y.binop(BinOp::Add, z));
        let starved = Solver::with_budgets(SolverBudgets {
            max_conflicts: 0,
            ..SolverBudgets::default()
        });
        assert_eq!(starved.equivalent(&a, &b), Equivalence::Unknown);
        let before = memo_stats();
        assert_eq!(
            Solver::default().equivalent(&a, &b),
            Equivalence::Proved,
            "addition associates"
        );
        assert!(
            memo_stats().misses > before.misses,
            "the abandoned attempt must not have seeded the memo"
        );
    }
}
