//! The process-wide verdict memo the solver ladder probes before blasting
//! anything.
//!
//! A query is keyed by a positional structural hash of its simplified goal's
//! DAG (`QueryKey`), computed in one walk with no gate construction, so a
//! batch sweep re-deciding the same query answers it before any sampling or
//! AIG construction.  Only definitive verdicts enter.  The crate root
//! re-exports [`memo_stats`] and [`reset_memo`] as `solver_memo_stats` and
//! `reset_solver_memo`.

use cp_symexpr::{ExprRef, SymExpr};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::bitblast::BlastLimits;

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

impl QueryKey {
    /// Keys the satisfiability query `goal ≠ 0` over the goal's support.
    pub(crate) fn new(goal: &ExprRef) -> Self {
        let offsets: Vec<usize> = goal.support().iter().collect();
        let mut hasher = ExprHasher::new(&offsets);
        let root = hasher.visit(goal);
        hasher.mix(root);
        QueryKey {
            key: hasher.digest(),
            offsets,
        }
    }

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
    use crate::{Equivalence, Satisfiability, Solver, SolverBudgets};
    use cp_symexpr::{BinOp, ExprBuild, SymExpr, Width};

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
