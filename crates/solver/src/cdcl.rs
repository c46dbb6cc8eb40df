//! The SAT back end: a small incremental CDCL solver over the CNF that
//! [`crate::bitblast`] encodes.
//!
//! Two-watched-literal unit propagation, first-UIP clause learning with
//! non-chronological backjumping, VSIDS-style activities and phase saving,
//! budgeted by a conflict limit so pathological miters (e.g. wide
//! multiplier equivalences) abandon to `Unknown` instead of hanging.
//!
//! The bookkeeping is MiniSat's (Eén & Sörensson, SAT 2003):
//!
//! * **Decision order** — an indexed binary max-heap over variables keyed by
//!   `(activity, var)`, one slot per variable ([`VarOrder`]).  A bump sifts
//!   the variable up in place, backtracking re-inserts only variables the
//!   heap no longer holds, and `decide` drops assigned variables as they
//!   surface.  Clauses added between solves mark the heap dirty, and the
//!   next solve restores it with one O(n) heapify.
//! * **Clause arena** — every clause's literals live back to back in one
//!   `Vec`, and a clause is a small header (offset, length, learning
//!   metadata), so adding a clause allocates nothing of its own.  Database
//!   reduction tombstones clauses and compacts the arena once deleted
//!   literals make up half of it; a clause that is some assignment's reason
//!   is recognised in O(1), because it implied its first literal.
//! * **Buffer reuse** — a dropped solver leaves its clause headers, arena
//!   and watch lists, emptied but with their capacity, to the next solver
//!   created on the same thread ([`Spare`]).  A one-shot session builds
//!   and drops a clause database of a few MB; freed each time, it lets the
//!   allocator hand the heap's top back to the kernel and fault it in again
//!   on the next session, as often or as rarely as the placement of
//!   unrelated allocations happens to decide.
//!
//! Everything here is used *incrementally*: clauses are added between
//! [`Cdcl::solve_under_assumptions`] calls, which keep the learned-clause
//! database and VSIDS activities alive across queries and return an unsat
//! core over the assumption literals on failure.  The [`crate::incremental`]
//! module builds the session API on top.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::bitblast::{negate, var_of, Lit, LIT_FALSE};

/// One clause's header; its literals live in [`Cdcl::lits`].
struct Clause {
    /// Offset of the clause's first literal in the arena; slots 0 and 1 are
    /// the watched pair.
    start: u32,
    /// Literal count (zero once deleted).
    len: u32,
    /// Whether the clause was learned (only learned clauses are deletable).
    learnt: bool,
    /// Bump-on-use activity driving clause-database reduction.
    activity: f64,
    /// Literal-block distance (number of distinct decision levels) at the
    /// time of learning; `lbd <= 2` marks a *glue* clause that reduction
    /// always keeps.
    lbd: u32,
    /// Tombstone set by [`Cdcl::reduce_db`]; watch lists drop deleted
    /// entries lazily during propagation.
    deleted: bool,
}

impl Clause {
    fn range(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// How one `solve_under_assumptions` call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SolveResult {
    /// Satisfiable under the assumptions; the model is readable via
    /// [`Cdcl::value`] until the next call mutates the solver.
    Sat,
    /// Unsatisfiable under the assumptions.  `core` is the subset of the
    /// assumption literals the final conflict actually used (empty when the
    /// clause database is unsatisfiable on its own) — retracting any
    /// superset of the core is guaranteed to change nothing.
    Unsat { core: Vec<Lit> },
    /// The conflict budget ran out before a verdict.
    Budget,
}

/// Work one [`Cdcl`] instance has done over its lifetime.  The same tallies
/// reach the `cdcl.*` registry counters, published once per
/// [`Cdcl::solve_under_assumptions`] call; a test that needs exact numbers
/// reads them here, because other threads bump the registry concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CdclStats {
    /// Conflicts met by propagation, including a final root-level one.
    pub(crate) conflicts: u64,
    /// Branching decisions (assumptions are not counted).
    pub(crate) decisions: u64,
    /// Trail literals whose watch lists were propagated.
    pub(crate) propagations: u64,
}

/// Slot marker for a variable that is not in the [`VarOrder`] heap.
const ABSENT: u32 = u32::MAX;

/// The decision order: an indexed binary max-heap of candidate decision
/// variables, keyed by `(activity, var)` (MiniSat's `order_heap`).  Each
/// variable has at most one slot, and `slot` maps a variable to it, so a
/// bump sifts the variable up in place.  The key is a strict total order,
/// so the variable `pop` returns depends only on which variables are in the
/// heap and on their activities, never on the heap's internal layout.
///
/// Clauses added between solves raise many activities at once; they mark
/// the heap `dirty` instead of sifting each variable, and the next solve
/// restores the heap property with one O(n) [`VarOrder::heapify`].
#[derive(Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Variable → index into `heap`, or [`ABSENT`].
    slot: Vec<u32>,
    /// Keys changed without sifting; `heapify` must run before the next pop.
    dirty: bool,
}

/// Whether `a` comes before `b` in the decision order.
fn ranks_above(activity: &[f64], a: u32, b: u32) -> bool {
    activity[a as usize]
        .total_cmp(&activity[b as usize])
        .then(a.cmp(&b))
        .is_gt()
}

impl VarOrder {
    fn grow(&mut self, n_vars: usize) {
        self.slot.resize(n_vars, ABSENT);
    }

    fn contains(&self, var: u32) -> bool {
        self.slot[var as usize] != ABSENT
    }

    /// Adds `var` if it is absent.
    fn insert(&mut self, var: u32, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        self.slot[var as usize] = self.heap.len() as u32;
        self.heap.push(var);
        if !self.dirty {
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores `var`'s position after its activity grew.
    fn raised(&mut self, var: u32, activity: &[f64]) {
        if self.contains(var) && !self.dirty {
            self.sift_up(self.slot[var as usize] as usize, activity);
        }
    }

    /// Removes and returns the highest-ranked variable.
    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        debug_assert!(!self.dirty, "heapify before popping");
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        self.slot[top as usize] = ABSENT;
        if last != top {
            self.heap[0] = last;
            self.slot[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Rebuilds the heap property over every slot (Floyd's O(n) heapify).
    fn heapify(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
        self.dirty = false;
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let var = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !ranks_above(activity, var, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.slot[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = var;
        self.slot[var as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let var = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && ranks_above(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !ranks_above(activity, self.heap[child], var) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.slot[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = var;
        self.slot[var as usize] = i as u32;
    }
}

/// A small conflict-driven clause-learning (CDCL) SAT solver: two watched
/// literals, first-UIP conflict analysis with non-chronological backjumping,
/// VSIDS-style variable activities, phase saving, activity-based clause
/// database reduction (glue clauses are exempt) and Luby restarts.  Clause
/// learning is what makes adder/shifter equivalence miters tractable — a
/// plain DPLL re-derives the same carry-chain conflicts exponentially often
/// — and reduction plus restarts are what keep the learned database and the
/// search from degrading on miters in the 100k-gate range.
///
/// The solver is *incremental*: [`Cdcl::add_clause`] and [`Cdcl::ensure_vars`]
/// grow the problem between [`Cdcl::solve_under_assumptions`] calls, and
/// everything learned — clauses, activities, saved phases — survives into
/// the next call.  Assumptions are enqueued as pseudo-decisions on the first
/// decision levels, so retracting a query is simply not assuming its literal
/// again; nothing learned depends on an assumption being true (learned
/// clauses are implied by the clause database alone).
pub(crate) struct Cdcl {
    /// Problem clauses followed by learned clauses.
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back (the clause arena).
    lits: Vec<Lit>,
    /// Arena literals owned by deleted clauses, reclaimed by
    /// [`Cdcl::collect_garbage`].
    wasted: usize,
    /// Literal → indices of clauses watching it.
    watches: Vec<Vec<u32>>,
    /// Variable assignment: -1 unassigned, 0 false, 1 true.
    assign: Vec<i8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`None` for decisions, assumptions
    /// and level-0 units; cleared when the variable is unassigned).
    reason: Vec<Option<u32>>,
    /// Assigned literals in assignment order.
    trail: Vec<Lit>,
    /// Trail length at each decision.
    trail_lim: Vec<usize>,
    prop_head: usize,
    /// VSIDS activity per variable, with the current bump increment.
    activity: Vec<f64>,
    var_inc: f64,
    /// Candidate decision variables by activity.  It may still hold
    /// assigned variables; `decide` drops them as they surface.
    order: VarOrder,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Scratch marker per variable for conflict analysis (cleared after
    /// every analysis, never reallocated).
    seen: Vec<bool>,
    /// Clause-activity bump increment (decayed like `var_inc`).
    cla_inc: f64,
    /// Live learned clauses (attached, not deleted).
    num_learnts: usize,
    /// Learned-clause count that triggers the next database reduction;
    /// grows geometrically after each reduction.
    max_learnts: usize,
    /// Completed restarts (also the index into the Luby sequence).
    restarts: u64,
    /// Database reductions performed.
    reduces: u64,
    unsat: bool,
    pub(crate) stats: CdclStats,
}

/// The clause database's allocations, emptied, passed from a dropped
/// [`Cdcl`] to the next one created on the same thread.  Watch lists keep
/// their own capacity too, so `watches` may be longer than two per variable;
/// the extra lists are empty and never indexed.
#[derive(Default)]
struct Spare {
    clauses: Vec<Clause>,
    lits: Vec<Lit>,
    watches: Vec<Vec<u32>>,
}

/// Largest clause arena, in literals, whose allocations a dropped solver
/// leaves behind: 2^18 covers a database of some 37k gates (about 10 MB
/// with its headers and watch lists), so a thread that once decided a
/// larger miter does not keep its memory.
const SPARE_MAX_LITS: usize = 1 << 18;

thread_local! {
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

impl Drop for Cdcl {
    fn drop(&mut self) {
        if self.lits.capacity() > SPARE_MAX_LITS {
            return;
        }
        let mut spare = Spare {
            clauses: std::mem::take(&mut self.clauses),
            lits: std::mem::take(&mut self.lits),
            watches: std::mem::take(&mut self.watches),
        };
        spare.clauses.clear();
        spare.lits.clear();
        spare.watches.iter_mut().for_each(Vec::clear);
        // During thread teardown the slot may be gone; the memory is then
        // simply freed.
        let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
    }
}

/// The `i`-th term of the Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …),
/// 1-indexed, as a power of two to multiply the base restart interval by.
fn luby(mut i: u64) -> u64 {
    // Find the smallest complete subsequence (length 2^k - 1) containing i,
    // then recurse into it; the last element of a subsequence is 2^(k-1).
    loop {
        let mut size = 1u64;
        while size.saturating_mul(2) < i {
            size = size * 2 + 1;
        }
        if i == size {
            return size.div_ceil(2);
        }
        i -= size;
    }
}

impl Cdcl {
    /// An empty solver over the reserved constant variable alone; callers
    /// grow it with [`Cdcl::ensure_vars`] and [`Cdcl::add_clause`].  It
    /// fills the [`Spare`] allocations the thread's last solver left, if any.
    pub(crate) fn new() -> Self {
        let mut order = VarOrder::default();
        order.grow(1);
        let Spare {
            clauses,
            lits,
            mut watches,
        } = SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        if watches.len() < 2 {
            watches.resize(2, Vec::new());
        }
        Cdcl {
            clauses,
            lits,
            wasted: 0,
            watches,
            // Variable 0 is the constant-false reserved variable.
            assign: vec![0],
            level: vec![0],
            reason: vec![None],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0],
            var_inc: 1.0,
            order,
            phase: vec![false],
            seen: vec![false],
            cla_inc: 1.0,
            num_learnts: 0,
            // Reduction threshold, grown geometrically after every reduction.
            max_learnts: 512,
            restarts: 0,
            reduces: 0,
            unsat: false,
            stats: CdclStats::default(),
        }
    }

    /// A solver over `n_vars` variables holding `clauses`.
    #[cfg(test)]
    pub(crate) fn with_clauses(n_vars: usize, clauses: &[Vec<Lit>]) -> Self {
        let mut sat = Cdcl::new();
        sat.ensure_vars(n_vars);
        for clause in clauses {
            sat.add_clause(clause);
        }
        sat
    }

    /// Grows the variable space to `n_vars` (no-op when already that large).
    /// New variables start unassigned with zero activity, outside the
    /// decision order until a clause mentions them.
    pub(crate) fn ensure_vars(&mut self, n_vars: usize) {
        if n_vars <= self.assign.len() {
            return;
        }
        if self.watches.len() < 2 * n_vars {
            self.watches.resize(2 * n_vars, Vec::new());
        }
        self.assign.resize(n_vars, -1);
        self.level.resize(n_vars, 0);
        self.reason.resize(n_vars, None);
        self.activity.resize(n_vars, 0.0);
        self.order.grow(n_vars);
        self.phase.resize(n_vars, false);
        self.seen.resize(n_vars, false);
    }

    /// Adds a permanent clause between solve calls, backtracking to the root
    /// level first (assignments from a previous query's assumptions must not
    /// leak into the clause's unit test).
    ///
    /// As in MiniSat's `addClause`, the clause is simplified against the
    /// root-level assignment: a satisfied clause is dropped and false
    /// literals are removed, so a clause never watches a literal that is
    /// already false, and one left with a single literal is enqueued as a
    /// root-level unit.  Multi-literal clauses bump their variables'
    /// activities and phases so the new variables become decidable; the
    /// decision order is re-sifted once, when the next solve starts.
    pub(crate) fn add_clause(&mut self, clause: &[Lit]) {
        self.backtrack(0);
        if clause
            .iter()
            .all(|&lit| Self::lit_val(&self.assign, lit) == -1)
        {
            self.add_open_clause(clause);
        } else if clause
            .iter()
            .all(|&lit| Self::lit_val(&self.assign, lit) != 1)
        {
            let open: Vec<Lit> = clause
                .iter()
                .copied()
                .filter(|&lit| Self::lit_val(&self.assign, lit) == -1)
                .collect();
            self.add_open_clause(&open);
        }
    }

    /// Adds a clause none of whose literals is assigned.
    fn add_open_clause(&mut self, clause: &[Lit]) {
        match clause.len() {
            0 => self.unsat = true,
            1 => {
                let ok = self.enqueue(clause[0], None);
                debug_assert!(ok, "an open literal is unassigned");
            }
            _ => {
                self.order.dirty = true;
                for &lit in clause {
                    let v = var_of(lit);
                    self.activity[v as usize] += 1.0;
                    self.phase[v as usize] = lit & 1 != 0;
                    self.order.insert(v, &self.activity);
                }
                self.attach(clause, false);
            }
        }
    }

    fn attach(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0] as usize].push(idx);
        self.watches[lits[1] as usize].push(idx);
        if learnt {
            self.num_learnts += 1;
        }
        let start = u32::try_from(self.lits.len()).expect("clause arena fits u32 offsets");
        self.lits.extend_from_slice(lits);
        self.clauses.push(Clause {
            start,
            len: lits.len() as u32,
            learnt,
            activity: if learnt { self.cla_inc } else { 0.0 },
            lbd: 0,
            deleted: false,
        });
        idx
    }

    /// Bumps a clause's activity (rescaling all activities on overflow).
    fn bump_clause(&mut self, ci: u32) {
        let clause = &mut self.clauses[ci as usize];
        clause.activity += self.cla_inc;
        if clause.activity > 1e20 {
            for c in self.clauses.iter_mut() {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    pub(crate) fn value(&self, var: u32) -> bool {
        self.assign[var as usize] == 1
    }

    fn lit_val(assign: &[i8], lit: Lit) -> i8 {
        match assign[var_of(lit) as usize] {
            -1 => -1,
            v => {
                if lit & 1 == 0 {
                    v
                } else {
                    1 - v
                }
            }
        }
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn bump(&mut self, var: u32) {
        let act = &mut self.activity[var as usize];
        *act += self.var_inc;
        if *act > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Uniform scaling keeps the order, except where rounding makes
            // two keys equal; re-heapify so ties fall back to the variable.
            self.order.heapify(&self.activity);
        } else {
            self.order.raised(var, &self.activity);
        }
    }

    /// Makes `lit` true; false if it is already false (conflict).
    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) -> bool {
        match Self::lit_val(&self.assign, lit) {
            0 => false,
            1 => true,
            _ => {
                let v = var_of(lit) as usize;
                self.assign[v] = i8::from(lit & 1 == 0);
                self.level[v] = self.current_level();
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        let head = self.prop_head;
        let mut conflict = None;
        while conflict.is_none() && self.prop_head < self.trail.len() {
            let falsified = negate(self.trail[self.prop_head]);
            self.prop_head += 1;
            let mut watchers = std::mem::take(&mut self.watches[falsified as usize]);
            let mut keep = 0;
            'watchers: for w in 0..watchers.len() {
                let ci = watchers[w];
                let clause = &self.clauses[ci as usize];
                if clause.deleted {
                    // Reduced away; drop the stale watch entry.
                    continue;
                }
                let lits = &mut self.lits[clause.range()];
                // Normalise: the falsified literal sits at slot 1.
                if lits[0] == falsified {
                    lits.swap(0, 1);
                }
                let other = lits[0];
                if Self::lit_val(&self.assign, other) == 1 {
                    watchers[keep] = ci;
                    keep += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                for k in 2..lits.len() {
                    if Self::lit_val(&self.assign, lits[k]) != 0 {
                        lits.swap(1, k);
                        self.watches[lits[1] as usize].push(ci);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                watchers[keep] = ci;
                keep += 1;
                if !self.enqueue(other, Some(ci)) {
                    for j in w + 1..watchers.len() {
                        watchers[keep] = watchers[j];
                        keep += 1;
                    }
                    conflict = Some(ci);
                    break;
                }
            }
            watchers.truncate(keep);
            debug_assert!(self.watches[falsified as usize].is_empty());
            self.watches[falsified as usize] = watchers;
        }
        self.stats.propagations += (self.prop_head - head) as u64;
        conflict
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first), the level to backjump to, and the learned clause's
    /// literal-block distance.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32, u32) {
        let current = self.current_level();
        let mut learned: Vec<Lit> = vec![LIT_FALSE]; // slot 0 = UIP, patched below
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = conflict;
        let mut idx = self.trail.len();
        loop {
            if self.clauses[ci as usize].learnt {
                self.bump_clause(ci);
            }
            for qi in self.clauses[ci as usize].range() {
                let q = self.lits[qi];
                if Some(q) == p {
                    continue;
                }
                let v = var_of(q);
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    if self.level[v as usize] >= current {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal of the
            // current level.
            loop {
                idx -= 1;
                if self.seen[var_of(self.trail[idx]) as usize] {
                    break;
                }
            }
            let lit_p = self.trail[idx];
            let v = var_of(lit_p);
            self.seen[v as usize] = false;
            self.bump(v);
            counter -= 1;
            if counter == 0 {
                learned[0] = negate(lit_p);
                break;
            }
            ci = self.reason[v as usize].expect("implied literal has a reason");
            p = Some(lit_p);
        }
        for &q in learned.iter().skip(1) {
            let v = var_of(q);
            self.seen[v as usize] = false;
            self.bump(v);
        }
        // Backjump to the second-highest level in the clause; position that
        // literal at slot 1 so it is watched.
        let mut backjump = 0;
        for i in 1..learned.len() {
            let lvl = self.level[var_of(learned[i]) as usize];
            if lvl > backjump {
                backjump = lvl;
                learned.swap(1, i);
            }
        }
        // Literal-block distance: distinct decision levels in the clause
        // (small LBD = "glue" connecting few levels, empirically the clauses
        // worth keeping forever).
        let mut levels: Vec<u32> = learned
            .iter()
            .map(|&q| self.level[var_of(q) as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        (learned, backjump, levels.len() as u32)
    }

    /// Whether clause `ci` is the reason some assignment rests on.  A reason
    /// clause implied its first literal, which stays in slot 0 while the
    /// implication stands, and reasons are cleared on unassignment.
    fn locked(&self, ci: u32) -> bool {
        let first = self.lits[self.clauses[ci as usize].start as usize];
        self.reason[var_of(first) as usize] == Some(ci)
    }

    /// Deletes the less useful half of the learned clauses: keeps glue
    /// clauses (`lbd <= 2`), clauses currently acting as a propagation
    /// reason, and the higher-activity half of the rest.  Deletion is a
    /// tombstone; watch lists drop stale entries lazily in `propagate`, and
    /// the arena is compacted once deleted literals make up half of it.
    fn reduce_db(&mut self) {
        let mut deletable: Vec<(u32, f64)> = (0..self.clauses.len() as u32)
            .filter(|&ci| {
                let c = &self.clauses[ci as usize];
                c.learnt && !c.deleted && c.lbd > 2 && !self.locked(ci)
            })
            .map(|ci| (ci, self.clauses[ci as usize].activity))
            .collect();
        deletable.sort_by(|a, b| a.1.total_cmp(&b.1));
        for &(ci, _) in deletable.iter().take(deletable.len() / 2) {
            let clause = &mut self.clauses[ci as usize];
            clause.deleted = true;
            self.wasted += clause.len as usize;
            clause.len = 0;
            self.num_learnts -= 1;
        }
        if 2 * self.wasted > self.lits.len() {
            self.collect_garbage();
        }
        self.reduces += 1;
        // Let the database grow before the next reduction.
        self.max_learnts += self.max_learnts / 2;
    }

    /// Compacts the clause arena, dropping deleted clauses' literals; clause
    /// indices and literal order are unchanged.
    fn collect_garbage(&mut self) {
        let mut lits = Vec::with_capacity(self.lits.len() - self.wasted);
        for clause in self.clauses.iter_mut().filter(|c| !c.deleted) {
            let start = lits.len() as u32;
            lits.extend_from_slice(&self.lits[clause.range()]);
            clause.start = start;
        }
        self.lits = lits;
        self.wasted = 0;
    }

    fn backtrack(&mut self, to_level: u32) {
        if self.current_level() > to_level {
            let lim = self.trail_lim[to_level as usize];
            self.trail_lim.truncate(to_level as usize);
            for lit in self.trail.drain(lim..) {
                let v = var_of(lit) as usize;
                self.phase[v] = lit & 1 != 0;
                self.assign[v] = -1;
                self.reason[v] = None;
                self.order.insert(v as u32, &self.activity);
            }
            // Everything left on the trail was propagated before the first
            // popped decision.  Without a pop the head stays put, so root
            // units added between solves still get propagated.
            self.prop_head = self.trail.len();
        }
    }

    /// Picks the unassigned variable with the highest activity.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize] == -1 {
                return Some((v << 1) | u32::from(self.phase[v as usize]));
            }
        }
        None
    }

    /// Runs the search with `assumptions` enqueued as pseudo-decisions on
    /// the first decision levels (in order, one level each).  The conflict
    /// budget is *per call* — a reused solver charges each query only its
    /// own conflicts.
    ///
    /// Everything learned during the call is implied by the clause database
    /// alone (assumptions enter as decisions, never as clauses), so it
    /// soundly carries over to later calls under different assumptions.
    ///
    /// The call's conflicts, decisions and propagations are added to
    /// [`Cdcl::stats`] and published to the registry once, on return.
    pub(crate) fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> SolveResult {
        let before = self.stats;
        let result = self.search(assumptions, max_conflicts);
        static CONFLICTS: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
        static DECISIONS: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
        static PROPAGATIONS: OnceLock<&'static cp_obs::metrics::Counter> = OnceLock::new();
        CONFLICTS
            .get_or_init(|| cp_obs::metrics::counter("cdcl.conflicts"))
            .add(self.stats.conflicts - before.conflicts);
        DECISIONS
            .get_or_init(|| cp_obs::metrics::counter("cdcl.decisions"))
            .add(self.stats.decisions - before.decisions);
        PROPAGATIONS
            .get_or_init(|| cp_obs::metrics::counter("cdcl.propagations"))
            .add(self.stats.propagations - before.propagations);
        result
    }

    fn search(&mut self, assumptions: &[Lit], max_conflicts: u64) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat { core: Vec::new() };
        }
        self.backtrack(0);
        if self.order.dirty {
            self.order.heapify(&self.activity);
        }
        /// Conflicts the first Luby interval allows before restarting.
        const RESTART_BASE: u64 = 128;
        let mut conflicts = 0u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.current_level() == 0 {
                    // Conflict below every assumption: the clause database
                    // itself is unsatisfiable, permanently.
                    self.unsat = true;
                    return SolveResult::Unsat { core: Vec::new() };
                }
                conflicts += 1;
                conflicts_since_restart += 1;
                if conflicts > max_conflicts {
                    return SolveResult::Budget;
                }
                let (learned, backjump, lbd) = self.analyze(conflict);
                self.backtrack(backjump);
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                let assert_lit = learned[0];
                let reason = if learned.len() >= 2 {
                    let ci = self.attach(&learned, true);
                    self.clauses[ci as usize].lbd = lbd;
                    Some(ci)
                } else {
                    None
                };
                let ok = self.enqueue(assert_lit, reason);
                debug_assert!(ok, "asserting literal must be unassigned after backjump");
                if self.num_learnts > self.max_learnts {
                    self.reduce_db();
                }
            } else if conflicts_since_restart >= luby(self.restarts + 1) * RESTART_BASE {
                // Luby restart: abandon the current assignment prefix (phase
                // saving and the learned clauses preserve the progress; the
                // assumption levels are re-established by the branch below).
                self.restarts += 1;
                conflicts_since_restart = 0;
                self.backtrack(0);
            } else if (self.current_level() as usize) < assumptions.len() {
                // (Re-)establish the next assumption as a pseudo-decision.
                let lit = assumptions[self.current_level() as usize];
                match Self::lit_val(&self.assign, lit) {
                    1 => {
                        // Already implied: push an empty level so assumption
                        // `i` still owns decision level `i + 1`.
                        self.trail_lim.push(self.trail.len());
                    }
                    0 => {
                        let core = self.analyze_final(lit);
                        return SolveResult::Unsat { core };
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(lit, None);
                        debug_assert!(ok, "assumption variable was unassigned");
                    }
                }
            } else {
                let Some(decision) = self.decide() else {
                    return SolveResult::Sat;
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let ok = self.enqueue(decision, None);
                debug_assert!(ok, "decision variable was unassigned");
            }
        }
    }

    /// Final-conflict analysis: called when assumption `failed` is already
    /// false under the current (assumption-only) prefix.  Walks the trail
    /// backwards from the first decision level, expanding reason clauses,
    /// and collects the reason-less literals — while assumptions are still
    /// being established those are exactly the assumption pseudo-decisions —
    /// into the unsat core, which always includes `failed` itself.
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        let fv = var_of(failed) as usize;
        if self.level[fv] == 0 || self.trail_lim.is_empty() {
            // ¬failed holds at the root level: no assumptions involved.
            return core;
        }
        self.seen[fv] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = var_of(lit) as usize;
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                None => {
                    debug_assert!(self.level[v] > 0, "level-0 literals are never marked");
                    // An assumption (for `failed`'s own variable this is the
                    // complementary-assumptions case, and `lit` = ¬failed is
                    // itself one of the assumptions).
                    core.push(lit);
                }
                Some(ci) => {
                    for qi in self.clauses[ci as usize].range() {
                        let q = self.lits[qi];
                        let qv = var_of(q) as usize;
                        // The clause contains the literal it implied; marking
                        // it again would leak scratch state past the walk.
                        if qv != v && self.level[qv] > 0 {
                            self.seen[qv] = true;
                        }
                    }
                }
            }
        }
        self.seen[fv] = false;
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::BlastLimits;
    use crate::incremental::{IncrementalSolver, IncrementalVerdict};
    use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, Width};

    fn be16(hi: usize, lo: usize) -> ExprRef {
        SymExpr::input_byte(hi)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(lo).zext(Width::W16))
    }

    #[test]
    fn assumptions_solve_and_cores_stay_within_assumptions() {
        let lit = |v: u32, neg: bool| (v << 1) | u32::from(neg);
        // (a ∨ b) ∧ (¬a ∨ c): assuming ¬b forces a, which forces c.
        let clauses = vec![
            vec![lit(1, false), lit(2, false)],
            vec![lit(1, true), lit(3, false)],
        ];
        let mut sat = Cdcl::with_clauses(4, &clauses);
        assert_eq!(sat.solve_under_assumptions(&[], 1000), SolveResult::Sat);
        assert_eq!(
            sat.solve_under_assumptions(&[lit(2, true)], 1000),
            SolveResult::Sat
        );
        assert!(sat.value(1), "assuming ¬b must force a");
        assert!(sat.value(3), "…which must force c");
        // Contradictory assumptions: ¬b propagates c, conflicting with ¬c.
        let assumptions = [lit(2, true), lit(3, true)];
        let core = match sat.solve_under_assumptions(&assumptions, 1000) {
            SolveResult::Unsat { core } => core,
            other => panic!("expected Unsat, got {other:?}"),
        };
        assert!(!core.is_empty());
        for l in &core {
            assert!(
                assumptions.contains(l),
                "core must only name assumption literals: {core:?}"
            );
        }
        // Retrying under the core alone still conflicts with a core no
        // larger than the first (shrink-on-retry never grows).
        match sat.solve_under_assumptions(&core, 1000) {
            SolveResult::Unsat { core: again } => {
                assert!(again.len() <= core.len());
                assert!(again.iter().all(|l| core.contains(l)));
            }
            other => panic!("the core must still conflict, got {other:?}"),
        }
        // The solver state survives: satisfiable again once retracted.
        assert_eq!(sat.solve_under_assumptions(&[], 1000), SolveResult::Sat);
    }

    #[test]
    fn clauses_added_between_queries_constrain_later_ones() {
        let lit = |v: u32, neg: bool| (v << 1) | u32::from(neg);
        let mut sat = Cdcl::with_clauses(3, &[vec![lit(1, false), lit(2, false)]]);
        assert_eq!(
            sat.solve_under_assumptions(&[lit(1, true)], 1000),
            SolveResult::Sat
        );
        sat.add_clause(&[lit(2, true), lit(1, false)]);
        // Now a ∨ b and (¬b ∨ a) force a under assumption ¬a → unsat, and
        // the core is the single assumption.
        match sat.solve_under_assumptions(&[lit(1, true)], 1000) {
            SolveResult::Unsat { core } => assert_eq!(core, vec![lit(1, true)]),
            other => panic!("expected Unsat, got {other:?}"),
        }
        // A permanent empty-handed contradiction yields the empty core.
        sat.add_clause(&[lit(1, false)]);
        sat.add_clause(&[lit(1, true)]);
        match sat.solve_under_assumptions(&[], 1000) {
            SolveResult::Unsat { core } => assert!(core.is_empty()),
            other => panic!("expected Unsat, got {other:?}"),
        }
    }

    /// Decides one guarded-overflow-shaped query on a fresh context: three
    /// big-endian 16-bit fields, each bounded by `2^k - 1`, and the overflow
    /// goal of their 32-bit product, every conjunct an assumption (the
    /// shape discovery hands the solver).  Returns the model and the CDCL's
    /// work.
    fn guarded_query(widths: [u32; 3]) -> (Vec<(usize, u8)>, CdclStats) {
        let fields: Vec<ExprRef> = (0..3)
            .map(|i| be16(2 * i, 2 * i + 1).zext(Width::W32))
            .collect();
        let mut conjuncts: Vec<ExprRef> = fields
            .iter()
            .zip(widths)
            .map(|(f, k)| f.binop(BinOp::LeU, SymExpr::constant(Width::W32, (1 << k) - 1)))
            .collect();
        let size = fields[0]
            .binop(BinOp::Mul, fields[1])
            .binop(BinOp::Mul, fields[2]);
        conjuncts.push(cp_symexpr::overflow_goal(&size).expect("the product can wrap"));
        let conjuncts: Vec<ExprRef> = conjuncts
            .iter()
            .map(cp_symexpr::rewrite::simplify)
            .collect();
        let mut inc = IncrementalSolver::new(&BlastLimits::default());
        match inc.query_nonzero(&conjuncts, &[0, 1, 2, 3, 4, 5]) {
            IncrementalVerdict::Sat(model) => (model, inc.cdcl_stats()),
            other => panic!("{widths:?}: expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn guarded_overflow_queries_follow_a_pinned_trajectory() {
        // The exact search on discovery's dominant query shape.  A change
        // that alters decisions, watch order or learning moves these numbers
        // and must say why; bookkeeping-only changes must leave them alone.
        let stats = |conflicts, decisions, propagations| CdclStats {
            conflicts,
            decisions,
            propagations,
        };
        let pinned = [
            ([11, 11, 11], [7, 255, 7, 253, 5, 0], stats(49, 744, 41_386)),
            (
                [13, 13, 8],
                [31, 223, 31, 208, 0, 65],
                stats(107, 735, 65_813),
            ),
            (
                [12, 11, 11],
                [15, 254, 7, 253, 3, 0],
                stats(61, 799, 50_189),
            ),
        ];
        let registry = || {
            let read = |name| cp_obs::metrics::counter(name).get();
            stats(
                read("cdcl.conflicts"),
                read("cdcl.decisions"),
                read("cdcl.propagations"),
            )
        };
        let before = registry();
        let mut total = CdclStats::default();
        for (widths, bytes, work) in pinned {
            let (model, got) = guarded_query(widths);
            let env: Vec<u8> = model.iter().map(|&(_, b)| b).collect();
            assert_eq!((env.as_slice(), got), (&bytes[..], work), "{widths:?}");
            total.conflicts += got.conflicts;
            total.decisions += got.decisions;
            total.propagations += got.propagations;
        }
        // Every call published its work; concurrent tests may add more.
        let after = registry();
        assert!(after.conflicts - before.conflicts >= total.conflicts);
        assert!(after.decisions - before.decisions >= total.decisions);
        assert!(after.propagations - before.propagations >= total.propagations);
    }

    #[test]
    fn a_solver_fills_the_clause_store_its_predecessor_left() {
        // A thread of its own, so the first solver starts from nothing.
        std::thread::spawn(|| {
            let spare = || {
                SPARE
                    .with(Cell::take)
                    .expect("a dropped solver leaves its store")
            };
            let first = guarded_query([12, 11, 11]);
            let left = spare();
            assert!(left.clauses.is_empty() && left.lits.is_empty());
            assert!(left.watches.iter().all(Vec::is_empty));
            let arena = left.lits.as_ptr();
            SPARE.with(|slot| slot.set(Some(left)));
            // The same query on the recycled store: the same search and
            // model, in the same arena allocation.
            assert_eq!(guarded_query([12, 11, 11]), first);
            assert_eq!(spare().lits.as_ptr(), arena);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn decision_order_pops_the_argmax_of_activity_then_var() {
        // A seeded mix of inserts, bumps, clauses added between solves
        // (lazy re-sift) and pops, with one forced activity rescale midway:
        // every pop must be the brute-force maximum of (activity, var) over
        // the variables a reference model says are in the heap.
        let n_vars = 48usize;
        let mut sat = Cdcl::new();
        sat.ensure_vars(n_vars);
        let mut in_heap = vec![false; n_vars];
        let mut rng = 0x0DEC_1DE5_0F0F_1234u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut pops = 0;
        for step in 0..6000 {
            let v = 1 + (next() % (n_vars as u64 - 1)) as u32;
            if step == 3000 {
                sat.var_inc = 2e100;
                sat.bump(v);
                assert_eq!(sat.var_inc, 2.0, "the bump must rescale");
                continue;
            }
            match next() % 8 {
                0..=2 => {
                    sat.order.insert(v, &sat.activity);
                    in_heap[v as usize] = true;
                }
                3 | 4 => sat.bump(v),
                5 => {
                    let w = 1 + (next() % (n_vars as u64 - 1)) as u32;
                    sat.add_clause(&[v << 1, (w << 1) | 1]);
                    in_heap[v as usize] = true;
                    in_heap[w as usize] = true;
                    sat.order.heapify(&sat.activity);
                }
                _ => {
                    let want =
                        (1..n_vars as u32)
                            .filter(|&u| in_heap[u as usize])
                            .max_by(|&a, &b| {
                                let (x, y) = (sat.activity[a as usize], sat.activity[b as usize]);
                                x.total_cmp(&y).then(a.cmp(&b))
                            });
                    assert_eq!(sat.order.pop(&sat.activity), want, "step {step}");
                    if let Some(u) = want {
                        in_heap[u as usize] = false;
                    }
                    pops += 1;
                }
            }
        }
        assert!(pops > 1000);
    }

    #[test]
    fn root_level_units_propagate_before_the_assumptions() {
        // a, and ¬a ∨ b: b holds at the root, so assuming ¬b fails at once
        // with the one-literal core, without a single conflict — whichever
        // order the two clauses arrive in.
        let lit = |v: u32, neg: bool| (v << 1) | u32::from(neg);
        let unit = vec![lit(1, false)];
        let implication = vec![lit(1, true), lit(2, false)];
        for clauses in [[unit.clone(), implication.clone()], [implication, unit]] {
            let mut sat = Cdcl::with_clauses(3, &clauses);
            assert_eq!(
                sat.solve_under_assumptions(&[lit(2, true)], 1000),
                SolveResult::Unsat {
                    core: vec![lit(2, true)]
                }
            );
            assert_eq!(sat.stats.conflicts, 0, "{clauses:?}");
        }
    }

    #[test]
    fn clauses_added_after_a_solve_are_simplified_at_the_root() {
        let lit = |v: u32, neg: bool| (v << 1) | u32::from(neg);
        let mut sat = Cdcl::with_clauses(5, &[vec![lit(1, false)]]);
        assert_eq!(sat.solve_under_assumptions(&[], 1000), SolveResult::Sat);
        // With a fixed true, ¬a ∨ b ∨ c is b ∨ c, and a ∨ d holds already.
        sat.add_clause(&[lit(1, true), lit(2, false), lit(3, false)]);
        sat.add_clause(&[lit(1, false), lit(4, false)]);
        // Assuming ¬c propagates b, so the assumption ¬b fails without a
        // conflict; a watch left on the false ¬a would miss that.
        match sat.solve_under_assumptions(&[lit(3, true), lit(2, true)], 1000) {
            SolveResult::Unsat { mut core } => {
                core.sort_unstable();
                assert_eq!(core, vec![lit(2, true), lit(3, true)]);
            }
            other => panic!("expected Unsat, got {other:?}"),
        }
        assert_eq!(sat.stats.conflicts, 0);
    }

    #[test]
    fn luby_sequence_matches_the_literature() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, expected);
    }

    /// CNF of the pigeonhole principle PHP(pigeons, holes): every pigeon
    /// sits in a hole, no hole holds two pigeons.  Unsatisfiable whenever
    /// `pigeons > holes`, and exponentially hard for resolution — a dense
    /// conflict generator that drives clause learning, database reduction
    /// and restarts far harder than the corpus miters do.
    fn pigeonhole(pigeons: usize, holes: usize) -> (usize, Vec<Vec<Lit>>) {
        // Variable 0 is the solver's reserved constant; p(i,j) starts at 1.
        let var = |i: usize, j: usize| (1 + i * holes + j) as u32;
        let mut clauses = Vec::new();
        for i in 0..pigeons {
            clauses.push((0..holes).map(|j| var(i, j) << 1).collect());
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in a + 1..pigeons {
                    clauses.push(vec![(var(a, j) << 1) | 1, (var(b, j) << 1) | 1]);
                }
            }
        }
        (1 + pigeons * holes, clauses)
    }

    #[test]
    fn cdcl_refutes_pigeonhole_with_reduction_and_restarts() {
        let (n_vars, clauses) = pigeonhole(8, 7);
        let mut sat = Cdcl::with_clauses(n_vars, &clauses);
        assert_eq!(
            sat.solve_under_assumptions(&[], 2_000_000),
            SolveResult::Unsat { core: Vec::new() }
        );
        assert!(sat.restarts > 0, "expected Luby restarts to fire");
        assert!(
            sat.reduces > 0,
            "expected clause-database reductions to fire"
        );
        // Reduction keeps the live learned set bounded by the (grown)
        // threshold instead of accumulating one clause per conflict.
        assert!(sat.num_learnts <= sat.max_learnts + 1);
    }

    #[test]
    fn cdcl_finds_planted_models_across_restarts() {
        // Random 3-CNF with a planted solution: every clause is forced to
        // contain at least one literal the hidden assignment satisfies, so
        // the instance is guaranteed satisfiable while still conflict-rich.
        let n_vars = 150usize;
        let mut rng = 0x1234_5678_9ABC_DEF1u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let planted: Vec<bool> = (0..=n_vars).map(|_| next() & 1 != 0).collect();
        let mut clauses = Vec::new();
        for _ in 0..600 {
            let mut vars = Vec::new();
            while vars.len() < 3 {
                let v = 1 + (next() as usize % n_vars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let mut lits: Vec<Lit> = vars
                .iter()
                .map(|&v| ((v as u32) << 1) | u32::from(next() & 1 != 0))
                .collect();
            // Force one literal to agree with the planted assignment.
            let fix = (next() as usize) % 3;
            lits[fix] = ((vars[fix] as u32) << 1) | u32::from(!planted[vars[fix]]);
            clauses.push(lits);
        }
        let mut sat = Cdcl::with_clauses(n_vars + 1, &clauses);
        assert_eq!(
            sat.solve_under_assumptions(&[], 2_000_000),
            SolveResult::Sat
        );
        for clause in &clauses {
            assert!(
                clause
                    .iter()
                    .any(|&lit| sat.value(var_of(lit)) == (lit & 1 == 0)),
                "model must satisfy every clause"
            );
        }
    }
}
