//! Donor→recipient check translation (paper Section 3.3).
//!
//! A donor check arrives in application-independent form: a symbolic
//! condition whose tainted leaves are `HachField`s — named input-format
//! fields resolved by the dissector.  To insert the check into a recipient,
//! every field must be re-expressed in the *recipient's* namespace: an
//! expression the recipient itself computes (a local variable's recorded
//! shadow, a branch condition operand, an allocation size) that provably
//! denotes the same value as the field.
//!
//! [`Translator`] performs that mapping.  For each donor field it scans the
//! recipient's [`Candidate`] expressions, prunes candidates whose input
//! support is disjoint from the field's bytes (the
//! [`disjoint_support`] fast path — most pairs die
//! here without a solver call), and proves value equivalence for the
//! survivors.  All of one translation's queries run on a single
//! [`SatSession`]: every field/candidate miter shares the recipient cone, so
//! the session bit-blasts it once and decides each pair under an assumption
//! against the same learned-clause database.  Only a
//! [`Equivalence::Proved`] verdict binds a field; `Unknown` is never good
//! enough to rewrite a check that will guard a recipient in production.  The
//! bound replacements are then substituted into the donor condition,
//! width-adjusted so the surrounding operators still type-check, and the
//! result simplified.

use crate::incremental::SatSession;
use crate::{disjoint_support, Equivalence, Solver};
use cp_symexpr::rewrite::simplify;
use cp_symexpr::{walk, ExprBuild, ExprRef, SymExpr, Width};
use std::collections::HashMap;
use std::fmt;

/// One expression the recipient computes, available as translation material.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Where the expression came from (e.g. `var width`, `branch main@12`).
    pub label: String,
    /// The recipient-side expression.
    pub expr: ExprRef,
}

impl Candidate {
    /// Creates a candidate.
    pub fn new(label: impl Into<String>, expr: ExprRef) -> Self {
        Candidate {
            label: label.into(),
            expr,
        }
    }
}

/// One donor field successfully mapped onto a recipient expression.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The donor field's hierarchical path.
    pub path: String,
    /// The donor field's width.
    pub width: Width,
    /// The recipient expression, width-adjusted to the field's width.
    pub replacement: ExprRef,
    /// Label of the candidate the replacement came from.
    pub source: String,
    /// Index of that candidate in the caller's candidate slice, so downstream
    /// passes (insertion-point scoring in `cp-patch`) can recover the
    /// candidate's provenance without parsing the label.
    pub candidate: usize,
}

/// Counters describing how a translation spent its effort — the paper's
/// "most pairs are rejected before the solver" observation, measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslateStats {
    /// Distinct donor fields translated.
    pub fields: usize,
    /// Field × candidate pairs considered.
    pub pairs: usize,
    /// Pairs rejected by the disjoint-support fast path (no solver call).
    pub pruned_disjoint: usize,
    /// Pairs that reached the solver.
    pub solver_calls: usize,
    /// Solver verdicts that proved equivalence.
    pub proved: usize,
    /// Solver verdicts that refuted equivalence.
    pub refuted: usize,
    /// Solver verdicts that ran out of budget.
    pub unknown: usize,
}

impl TranslateStats {
    /// Mirrors the counters onto the process-wide `cp-obs` registry under
    /// `solver.translate.*`, so sweeps accumulate translation effort across
    /// scenarios without any per-call-site plumbing.  Called once per
    /// translation (success or failure), so registry lookups stay off the
    /// per-pair hot path.
    fn publish(&self) {
        use cp_obs::metrics::counter;
        use std::sync::OnceLock;
        static HANDLES: OnceLock<[&'static cp_obs::metrics::Counter; 7]> = OnceLock::new();
        let [fields, pairs, pruned, calls, proved, refuted, unknown] = HANDLES.get_or_init(|| {
            [
                counter("solver.translate.fields"),
                counter("solver.translate.pairs"),
                counter("solver.translate.pruned_disjoint"),
                counter("solver.translate.solver_calls"),
                counter("solver.translate.proved"),
                counter("solver.translate.refuted"),
                counter("solver.translate.unknown"),
            ]
        });
        fields.add(self.fields as u64);
        pairs.add(self.pairs as u64);
        pruned.add(self.pruned_disjoint as u64);
        calls.add(self.solver_calls as u64);
        proved.add(self.proved as u64);
        refuted.add(self.refuted as u64);
        unknown.add(self.unknown as u64);
    }
}

/// A donor check re-expressed in the recipient's namespace.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The translated, simplified condition.
    pub condition: ExprRef,
    /// How each donor field was mapped.
    pub bindings: Vec<Binding>,
    /// Solver-effort counters.
    pub stats: TranslateStats,
}

/// Every Proved binding discovered for one donor field, simplest replacement
/// first.
///
/// Where [`Translator::translate`] commits to the first proof it finds,
/// [`Translator::translate_all`] keeps the whole proved set so a downstream
/// pass can pick the binding that is actually *available* at a patch
/// insertion point (the paper's insertion-point constraint, Section 3.4).
#[derive(Debug, Clone)]
pub struct FieldAlternatives {
    /// The donor field's hierarchical path.
    pub path: String,
    /// The donor field's width.
    pub width: Width,
    /// The interned field leaf (substitution key).
    pub leaf: ExprRef,
    /// All candidates proved equivalent to the field, by ascending
    /// replacement size.
    pub proved: Vec<Binding>,
}

/// A donor check with the full set of proved bindings per field.
#[derive(Debug, Clone)]
pub struct MultiTranslation {
    /// The folded donor condition the fields were collected from.
    pub condition: ExprRef,
    /// Per-field proved alternatives, in the condition's left-to-right field
    /// order.
    pub fields: Vec<FieldAlternatives>,
    /// Solver-effort counters (all pairs are solved, not just until the
    /// first proof).
    pub stats: TranslateStats,
}

impl MultiTranslation {
    /// Substitutes one chosen binding per field (`choice[i]` indexes
    /// `fields[i].proved`) into the donor condition and simplifies.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is shorter than `fields` or any index is out of
    /// range.
    pub fn condition_with(&self, choice: &[usize]) -> ExprRef {
        let map: HashMap<usize, ExprRef> = self
            .fields
            .iter()
            .zip(choice)
            .map(|(field, &pick)| (field.leaf.memo_key(), field.proved[pick].replacement))
            .collect();
        simplify(&substitute(&self.condition, &map))
    }

    /// The translation that commits to the simplest proved binding of every
    /// field — what [`Translator::translate`] would have produced had it
    /// solved all pairs.
    pub fn first(&self) -> Translation {
        let choice = vec![0; self.fields.len()];
        Translation {
            condition: self.condition_with(&choice),
            bindings: self
                .fields
                .iter()
                .map(|field| field.proved[0].clone())
                .collect(),
            stats: self.stats,
        }
    }
}

/// Why a donor check could not be translated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The donor condition still contains raw input-byte leaves the format
    /// descriptor did not name; translation requires fully dissected checks.
    UnfoldedBytes {
        /// The offsets of the unfolded reads.
        offsets: Vec<usize>,
    },
    /// No recipient candidate was proved equivalent to this field.
    Unmatched {
        /// The field path that found no home.
        path: String,
        /// Effort spent before giving up (for diagnostics).
        stats: TranslateStats,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnfoldedBytes { offsets } => write!(
                f,
                "donor check reads input bytes {offsets:?} that no format field names"
            ),
            TranslateError::Unmatched { path, stats } => write!(
                f,
                "no recipient expression proved equivalent to field `{path}` \
                 ({} candidates, {} pruned, {} solved: {} refuted, {} unknown)",
                stats.pairs,
                stats.pruned_disjoint,
                stats.solver_calls,
                stats.refuted,
                stats.unknown
            ),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Maps donor checks into recipient namespaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct Translator {
    /// The equivalence decision procedure used for field/candidate pairs.
    pub solver: Solver,
}

impl Translator {
    /// Creates a translator around an explicitly configured solver.
    pub fn new(solver: Solver) -> Self {
        Translator { solver }
    }

    /// Translates a folded donor condition into the recipient's namespace.
    ///
    /// `condition` must be fully folded (every tainted leaf a
    /// [`SymExpr::Field`]); `candidates` are the recipient's recorded
    /// expressions.  Every distinct field must bind to a candidate with a
    /// [`Equivalence::Proved`] verdict, otherwise translation fails.
    pub fn translate(
        &self,
        condition: &ExprRef,
        candidates: &[Candidate],
    ) -> Result<Translation, TranslateError> {
        let _span = cp_obs::span!("translate");
        let (fields, raw_bytes) = collect_leaves(condition);
        if !raw_bytes.is_empty() {
            return Err(TranslateError::UnfoldedBytes { offsets: raw_bytes });
        }

        // Simplest replacements first: a bare variable read beats a
        // recomposed branch operand of the same value.
        let ordered = by_ascending_size(candidates);

        let mut stats = TranslateStats {
            fields: fields.len(),
            ..TranslateStats::default()
        };
        let mut bindings = Vec::with_capacity(fields.len());
        let mut map: HashMap<usize, ExprRef> = HashMap::new();
        // One incremental context for the whole check: every miter shares
        // the recipient-side cones, each query is one assumption.
        let mut session = SatSession::new(self.solver);
        for field in &fields {
            let (path, width) = field_parts(field);
            let mut bound = None;
            for &(index, candidate) in &ordered {
                stats.pairs += 1;
                if disjoint_support(field, &candidate.expr) {
                    stats.pruned_disjoint += 1;
                    continue;
                }
                stats.solver_calls += 1;
                match session.equivalent(field, &candidate.expr) {
                    Equivalence::Proved => {
                        stats.proved += 1;
                        bound = Some(make_binding(&path, width, index, candidate));
                        break;
                    }
                    Equivalence::Refuted { .. } => stats.refuted += 1,
                    Equivalence::Unknown => stats.unknown += 1,
                }
            }
            let Some(binding) = bound else {
                stats.publish();
                return Err(TranslateError::Unmatched { path, stats });
            };
            map.insert(field.memo_key(), binding.replacement);
            bindings.push(binding);
        }

        let condition = simplify(&substitute(condition, &map));
        stats.publish();
        Ok(Translation {
            condition,
            bindings,
            stats,
        })
    }

    /// Like [`translate`](Self::translate), but keeps **every** proved
    /// candidate per field instead of committing to the first.
    ///
    /// This is the entry point for patch insertion: a field may be provably
    /// equal to several recipient variables, and only some of them are in
    /// scope (with the proved value) at a viable insertion point, so the
    /// choice among proofs belongs to the insertion-point planner, not the
    /// translator.  Costs more solver calls than `translate` since every
    /// surviving pair is decided.
    ///
    /// # Errors
    ///
    /// Same failure conditions as [`translate`](Self::translate): unfolded
    /// raw bytes, or a field with no proved candidate at all.
    pub fn translate_all(
        &self,
        condition: &ExprRef,
        candidates: &[Candidate],
    ) -> Result<MultiTranslation, TranslateError> {
        let _span = cp_obs::span!("translate");
        let (fields, raw_bytes) = collect_leaves(condition);
        if !raw_bytes.is_empty() {
            return Err(TranslateError::UnfoldedBytes { offsets: raw_bytes });
        }

        let ordered = by_ascending_size(candidates);
        let mut stats = TranslateStats {
            fields: fields.len(),
            ..TranslateStats::default()
        };
        let mut out = Vec::with_capacity(fields.len());
        let mut session = SatSession::new(self.solver);
        for field in &fields {
            let (path, width) = field_parts(field);
            let mut proved = Vec::new();
            for &(index, candidate) in &ordered {
                stats.pairs += 1;
                if disjoint_support(field, &candidate.expr) {
                    stats.pruned_disjoint += 1;
                    continue;
                }
                stats.solver_calls += 1;
                match session.equivalent(field, &candidate.expr) {
                    Equivalence::Proved => {
                        stats.proved += 1;
                        proved.push(make_binding(&path, width, index, candidate));
                    }
                    Equivalence::Refuted { .. } => stats.refuted += 1,
                    Equivalence::Unknown => stats.unknown += 1,
                }
            }
            if proved.is_empty() {
                stats.publish();
                return Err(TranslateError::Unmatched { path, stats });
            }
            out.push(FieldAlternatives {
                path,
                width,
                leaf: *field,
                proved,
            });
        }
        stats.publish();
        Ok(MultiTranslation {
            condition: *condition,
            fields: out,
            stats,
        })
    }
}

/// Candidates paired with their original index, smallest expression first.
fn by_ascending_size(candidates: &[Candidate]) -> Vec<(usize, &Candidate)> {
    let mut ordered: Vec<(usize, &Candidate)> = candidates.iter().enumerate().collect();
    ordered.sort_by_key(|(_, c)| c.expr.op_count());
    ordered
}

/// The path and width of a field leaf.
fn field_parts(field: &ExprRef) -> (String, Width) {
    match field.as_ref() {
        SymExpr::Field { path, width, .. } => (path.clone(), *width),
        _ => unreachable!("collect_leaves only returns field leaves"),
    }
}

/// Builds a binding whose replacement is the candidate expression
/// width-adjusted to the field's width.
///
/// The solver proved value equality as u64s; adjusting the width keeps the
/// donor condition type-correct around the replacement (value-preserving both
/// ways, since the common value fits the field's width).
fn make_binding(path: &str, width: Width, index: usize, candidate: &Candidate) -> Binding {
    let replacement = if candidate.expr.width() > width {
        candidate.expr.truncate(width)
    } else {
        candidate.expr.zext(width)
    };
    Binding {
        path: path.to_string(),
        width,
        replacement,
        source: candidate.label.clone(),
        candidate: index,
    }
}

/// Collects the distinct field leaves and raw tainted byte offsets of an
/// expression (iterative, DAG-deduplicated).
fn collect_leaves(root: &ExprRef) -> (Vec<ExprRef>, Vec<usize>) {
    let mut fields = Vec::new();
    let mut raw = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![*root];
    while let Some(e) = stack.pop() {
        if !seen.insert(e.memo_key()) {
            continue;
        }
        match e.as_ref() {
            SymExpr::Const { .. } => {}
            SymExpr::InputByte { offset } => raw.push(*offset),
            SymExpr::Field { .. } => fields.push(e),
            SymExpr::Unary { arg, .. } | SymExpr::Cast { arg, .. } => stack.push(*arg),
            SymExpr::Binary { lhs, rhs, .. } => {
                // Left child on top: fields surface in left-to-right source
                // order, which keeps binding lists deterministic and readable.
                stack.push(*rhs);
                stack.push(*lhs);
            }
        }
    }
    raw.sort_unstable();
    raw.dedup();
    (fields, raw)
}

/// Rebuilds `root` with every mapped leaf replaced (iterative post-order
/// via [`walk::rebuild`], memoised per node so shared subtrees are rebuilt
/// once).
fn substitute(root: &ExprRef, map: &HashMap<usize, ExprRef>) -> ExprRef {
    walk::rebuild(root, |e| map.get(&e.memo_key()).copied(), |rebuilt| rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::eval::eval;
    use cp_symexpr::BinOp;

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    /// Donor check: `/hdr/width * /hdr/height <= 2^20`.
    fn donor_check() -> ExprRef {
        let width = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
        let height = SymExpr::field("/hdr/height", Width::W16, vec![2, 3]);
        width
            .zext(Width::W64)
            .binop(BinOp::Mul, height.zext(Width::W64))
            .binop(BinOp::LeU, SymExpr::constant(Width::W64, 1 << 20))
    }

    #[test]
    fn binds_fields_to_equivalent_recipient_expressions() {
        let candidates = vec![
            Candidate::new("var w", be16(0, 1).zext(Width::W32)),
            Candidate::new("var h", be16(2, 3).zext(Width::W32)),
            Candidate::new("var unrelated", be16(6, 7)),
        ];
        let check = donor_check();
        let t = Translator::default()
            .translate(&check, &candidates)
            .expect("translates");
        assert_eq!(t.bindings.len(), 2);
        assert_eq!(t.bindings[0].source, "var w");
        assert_eq!(t.bindings[1].source, "var h");
        assert_eq!(t.stats.proved, 2);
        // The unrelated candidate never reaches the solver.
        assert!(t.stats.pruned_disjoint >= 2);
        // The translated condition decides exactly like the donor's.
        for input in [
            [0u8, 16, 0, 16, 0, 0, 0, 0],
            [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0],
            [0x04, 0x00, 0x04, 0x00, 0, 0, 0, 0],
        ] {
            assert_eq!(eval(&check, &input[..]), eval(&t.condition, &input[..]));
        }
    }

    #[test]
    fn near_miss_candidates_are_refuted_not_bound() {
        // A candidate over the right bytes but the wrong endianness must be
        // rejected by the solver, not accepted by support overlap.
        let candidates = vec![
            Candidate::new("var swapped", be16(1, 0).zext(Width::W32)),
            Candidate::new("var w", be16(0, 1).zext(Width::W32)),
        ];
        let width = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
        let check = width.binop(BinOp::LeU, SymExpr::constant(Width::W16, 100));
        let t = Translator::default()
            .translate(&check, &candidates)
            .expect("translates via the correct candidate");
        assert_eq!(t.bindings[0].source, "var w");
        assert!(t.stats.refuted >= 1);
    }

    #[test]
    fn unmatched_fields_fail_with_diagnostics() {
        let candidates = vec![Candidate::new("var h", be16(2, 3))];
        let width = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
        let check = width.binop(BinOp::LeU, SymExpr::constant(Width::W16, 100));
        match Translator::default().translate(&check, &candidates) {
            Err(TranslateError::Unmatched { path, stats }) => {
                assert_eq!(path, "/hdr/width");
                assert_eq!(stats.pruned_disjoint, 1);
                assert_eq!(stats.solver_calls, 0);
            }
            other => panic!("expected Unmatched, got {other:?}"),
        }
    }

    #[test]
    fn unfolded_byte_reads_are_rejected() {
        let check = SymExpr::input_byte(5)
            .zext(Width::W16)
            .binop(BinOp::LeU, SymExpr::constant(Width::W16, 9));
        match Translator::default().translate(&check, &[]) {
            Err(TranslateError::UnfoldedBytes { offsets }) => assert_eq!(offsets, vec![5]),
            other => panic!("expected UnfoldedBytes, got {other:?}"),
        }
    }

    #[test]
    fn field_free_conditions_translate_to_themselves() {
        let check = SymExpr::constant(Width::W8, 1);
        let t = Translator::default().translate(&check, &[]).expect("ok");
        assert!(t.bindings.is_empty());
        assert_eq!(t.condition.as_const(), Some(1));
    }

    #[test]
    fn translate_all_keeps_every_proved_candidate() {
        let clean = be16(0, 1);
        let clunky = clean
            .binop(BinOp::Add, SymExpr::constant(Width::W16, 7))
            .binop(BinOp::Sub, SymExpr::constant(Width::W16, 7));
        let candidates = vec![
            Candidate::new("var clunky", clunky),
            Candidate::new("var clean", clean),
            Candidate::new("var unrelated", be16(6, 7)),
        ];
        let width = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
        let check = width.binop(BinOp::LeU, SymExpr::constant(Width::W16, 3));
        let multi = Translator::default()
            .translate_all(&check, &candidates)
            .expect("translates");
        assert_eq!(multi.fields.len(), 1);
        let alts = &multi.fields[0];
        assert_eq!(alts.path, "/hdr/width");
        // Both equivalent candidates are kept, simplest first, with their
        // original candidate indices preserved.
        assert_eq!(alts.proved.len(), 2);
        assert_eq!(alts.proved[0].source, "var clean");
        assert_eq!(alts.proved[0].candidate, 1);
        assert_eq!(alts.proved[1].source, "var clunky");
        assert_eq!(alts.proved[1].candidate, 0);
        // Every choice yields a condition that decides identically.
        let c0 = multi.condition_with(&[0]);
        let c1 = multi.condition_with(&[1]);
        for input in [[0u8, 2], [0, 3], [0, 4], [0xFF, 0xFF]] {
            assert_eq!(eval(&c0, &input[..]), eval(&c1, &input[..]));
        }
        // `first()` agrees with the early-exit translator.
        let single = Translator::default()
            .translate(&check, &candidates)
            .expect("translates");
        assert_eq!(multi.first().condition, single.condition);
        assert_eq!(multi.first().bindings[0].source, single.bindings[0].source);
    }

    #[test]
    fn translate_all_fails_when_a_field_has_no_proof() {
        let candidates = vec![Candidate::new("var h", be16(2, 3))];
        let width = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
        let check = width.binop(BinOp::LeU, SymExpr::constant(Width::W16, 100));
        assert!(matches!(
            Translator::default().translate_all(&check, &candidates),
            Err(TranslateError::Unmatched { .. })
        ));
    }

    #[test]
    fn prefers_the_simplest_proved_candidate() {
        let simple = be16(0, 1);
        let padded = simple
            .binop(BinOp::Add, SymExpr::constant(Width::W16, 7))
            .binop(BinOp::Sub, SymExpr::constant(Width::W16, 7));
        let candidates = vec![
            Candidate::new("var clunky", padded),
            Candidate::new("var clean", simple),
        ];
        let width = SymExpr::field("/hdr/width", Width::W16, vec![0, 1]);
        let check = width.binop(BinOp::LeU, SymExpr::constant(Width::W16, 3));
        let t = Translator::default()
            .translate(&check, &candidates)
            .expect("translates");
        assert_eq!(t.bindings[0].source, "var clean");
    }
}
