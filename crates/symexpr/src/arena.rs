//! The hash-consed, epoch-scoped expression arena.
//!
//! The expressions the pipeline reads — recorded conditions and variable
//! values resolved from a run's [`Tape`](crate::Tape), and everything the
//! simplifier, folder and solver build from them — share subexpressions (a
//! parsed header field, a running checksum) across thousands of nodes.  The
//! arena deduplicates those nodes: every [`SymExpr`] is *interned* — looked up
//! structurally and allocated exactly once per thread — and handed back as a
//! [`ExprRef`], a `Copy` handle carrying a stable [`ExprId`].
//!
//! # Invariants
//!
//! * **Canonical**: within one thread and epoch, structurally equal
//!   expressions intern to the same node, so `ExprRef` equality (a pointer
//!   compare) *is* structural equality, and `Const` values are truncated to
//!   their width before interning.
//! * **Immutable, epoch-scoped**: nodes live until the thread's arena is
//!   reset ([`ExprArena::reset`], or an [`ArenaEpoch`] guard dropping), at
//!   which point every outstanding handle is invalid.  Debug builds stamp
//!   each node with its `(arena, epoch)` identity and panic on any
//!   dereference of a stale handle; release builds free the retired nodes
//!   outright.  A process that never resets keeps the old immortal
//!   behaviour, bounded by the number of *distinct* expressions it builds.
//! * **Memoised metadata**: width, taintedness, node/op counts and the
//!   input-support byte-offset bitset are computed once at intern time from
//!   the children's metadata (O(1) per intern), so the classic O(tree) walks
//!   (`count_ops`, `input_support`, `branches_influenced_by`, the solver's
//!   disjoint-support fast path) become O(1) lookups.
//!
//! # Ownership rule
//!
//! Interning is per thread: two threads interning the same structure get
//! distinct nodes.  An `ExprRef` is only meaningful **on the thread that
//! interned it, during the epoch that interned it** — it must not be
//! dereferenced after the arena resets, and it must not be dereferenced from
//! another thread (the dense ids would silently index the wrong arena).
//! Debug builds turn both misuses into a panic.  Run one pipeline per thread
//! and scope each unit of work in an [`ArenaEpoch`] — the `cp-core`
//! `Session` API and the `cp-corpus` worker pool already work that way.

use crate::expr::{ExprRef, SymExpr};
use crate::support::SupportSet;
use crate::width::Width;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The stable per-thread identity of an interned expression node.
///
/// Ids are dense (`0..ExprArena::node_count()`) and assigned in intern
/// order, restarting from zero at every epoch.  They identify a node *within
/// one thread's arena during one epoch*; the thread-local memo tables
/// (simplification, byte decomposition) therefore key their caches by
/// `(arena identity, ExprId)` and drop every entry when the epoch rolls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub(crate) u32);

impl ExprId {
    /// The dense index of the node within its thread's arena.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// The `(arena, epoch)` pair naming one generation of one thread's arena.
///
/// Arena numbers are process-unique (allocated from a global counter, never
/// reused), so an identity mismatch detects both hazards: a handle that
/// outlived its epoch and a handle that crossed threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArenaIdentity {
    /// Process-unique number of the owning thread's arena (0 = no arena yet).
    pub arena: u64,
    /// Reset generation within that arena.
    pub epoch: u32,
}

/// Metadata memoised on every node at intern time.
#[derive(Debug)]
pub(crate) struct Meta {
    /// Result width of the node.
    pub width: Width,
    /// Whether any leaf is an input byte or field.
    pub tainted: bool,
    /// Nodes in the expression *tree* (with sharing multiplied out), saturating.
    pub node_count: u64,
    /// Operator nodes in the expression tree, saturating.
    pub op_count: u64,
    /// Input byte offsets the expression depends on.  Shared via [`Arc`] so
    /// unary/cast chains reuse their child's set instead of copying it.
    pub support: Arc<SupportSet>,
}

/// One interned node: the structural expression plus its memoised metadata.
#[derive(Debug)]
pub(crate) struct Node {
    pub id: ExprId,
    /// Identity of the arena generation that interned this node; debug
    /// builds check it on every dereference (see [`ExprRef`]'s ownership
    /// rule), release builds carry it unread.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub stamp: ArenaIdentity,
    pub expr: SymExpr,
    pub meta: Meta,
}

/// Arena numbers start at 1 so the default [`ArenaIdentity`] (`arena: 0`,
/// meaning "this thread has not interned anything yet") never matches a real
/// node's stamp.
static NEXT_ARENA: AtomicU64 = AtomicU64::new(1);

/// High-water mark of per-epoch live node counts, across every arena the
/// process has retired so far (folded with live counts on demand by
/// [`ExprArena::process_peak_nodes`]).
static PROCESS_PEAK: AtomicU64 = AtomicU64::new(0);

struct ArenaState {
    /// This arena generation's identity; `epoch` bumps at every reset.
    identity: ArenaIdentity,
    /// Nesting depth of live [`ArenaEpoch`] guards; only the outermost
    /// guard's drop retires the arena.
    epoch_depth: u32,
    /// Structural lookup: children inside the key compare by node pointer,
    /// which is exactly hash-consing (children are already canonical).
    map: HashMap<SymExpr, ExprRef>,
    /// Dense id → node handle.
    nodes: Vec<ExprRef>,
}

impl ArenaState {
    fn new() -> ArenaState {
        let identity = ArenaIdentity {
            arena: NEXT_ARENA.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
        };
        IDENTITY.with(|cell| cell.set(identity));
        ArenaState {
            identity,
            epoch_depth: 0,
            map: HashMap::new(),
            nodes: Vec::new(),
        }
    }

    /// Ends the current epoch: records the high-water mark, drops every
    /// interned node, and bumps the epoch so stale handles are detectable.
    fn retire(&mut self) {
        PROCESS_PEAK.fetch_max(self.nodes.len() as u64, Ordering::Relaxed);
        self.map.clear();
        let retired = std::mem::take(&mut self.nodes);
        free_nodes(retired);
        self.identity.epoch = self.identity.epoch.wrapping_add(1);
        IDENTITY.with(|cell| cell.set(self.identity));
    }
}

impl Drop for ArenaState {
    fn drop(&mut self) {
        // Thread exit reclaims the final epoch.  `IDENTITY` may already be
        // torn down here, so this does not go through `retire`.
        PROCESS_PEAK.fetch_max(self.nodes.len() as u64, Ordering::Relaxed);
        free_nodes(std::mem::take(&mut self.nodes));
    }
}

/// Frees retired nodes in release builds.  Debug builds keep them leaked as
/// a graveyard: a stale handle then still points at valid memory, so the
/// epoch-stamp check in `ExprRef` can fail with a clean panic instead of a
/// use-after-free.
fn free_nodes(retired: Vec<ExprRef>) {
    if cfg!(debug_assertions) {
        std::mem::forget(retired);
        return;
    }
    for handle in retired {
        // SAFETY: every node was allocated by `Box::leak` in `intern` and is
        // owned solely by this arena; per the documented ownership rule no
        // handle may be dereferenced after its epoch ends, so nothing reads
        // the node after this.
        unsafe { drop(Box::from_raw(handle.node as *const Node as *mut Node)) };
    }
}

thread_local! {
    static ARENA: RefCell<ArenaState> = RefCell::new(ArenaState::new());
    /// Mirror of the owning arena's identity, readable without borrowing the
    /// arena (dereference checks run while `ARENA` is mutably borrowed
    /// during interning).
    static IDENTITY: Cell<ArenaIdentity> = const { Cell::new(ArenaIdentity { arena: 0, epoch: 0 }) };
}

/// The calling thread's current arena identity.  `(0, 0)` until the thread
/// interns its first node, which never matches any real node's stamp.
pub(crate) fn current_identity() -> ArenaIdentity {
    IDENTITY.with(Cell::get)
}

/// Support for epoch-scoped thread-local memo tables (the simplify and
/// decompose caches): each table carries a [`Stamp`] of the arena identity
/// its entries were computed under, and [`roll`] clears the table the first
/// time it is touched after the identity moves (epoch reset or first use).
pub(crate) mod memo {
    use super::{current_identity, ArenaIdentity};
    use std::collections::HashMap;

    /// The arena identity a memo table's entries belong to (`None` until
    /// first use).
    #[derive(Debug, Default, Clone, Copy)]
    pub(crate) struct Stamp(Option<ArenaIdentity>);

    /// Drops every entry of `map` when the calling thread's arena identity
    /// differs from `stamp`, then re-stamps.  Keys from a previous epoch can
    /// therefore never alias entries of the current one.
    pub(crate) fn roll<K, V>(stamp: &mut Stamp, map: &mut HashMap<K, V>) {
        let now = current_identity();
        if stamp.0 != Some(now) {
            map.clear();
            stamp.0 = Some(now);
        }
    }
}

/// Handle to the calling thread's expression arena.
///
/// The arena itself is thread-local state; this zero-sized type namespaces
/// the operations on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprArena;

impl ExprArena {
    /// Interns `expr`, returning the canonical handle for its structure.
    ///
    /// Children of `expr` must already be interned handles (they always are:
    /// `ExprRef` is the only way to hold a child).  `Const` values are
    /// truncated to their width so equal constants are equal nodes.
    pub fn intern(expr: SymExpr) -> ExprRef {
        let expr = match expr {
            SymExpr::Const { width, value } => SymExpr::Const {
                width,
                value: width.truncate(value),
            },
            other => other,
        };
        ARENA.with(|cell| {
            let mut arena = cell.borrow_mut();
            if let Some(&found) = arena.map.get(&expr) {
                return found;
            }
            let id = u32::try_from(arena.nodes.len()).expect("expression arena exhausted u32 ids");
            let meta = compute_meta(&expr);
            let node: &'static Node = Box::leak(Box::new(Node {
                id: ExprId(id),
                stamp: arena.identity,
                expr: expr.clone(),
                meta,
            }));
            let handle = ExprRef { node };
            arena.map.insert(expr, handle);
            arena.nodes.push(handle);
            handle
        })
    }

    /// Number of distinct nodes interned by this thread *in the current
    /// epoch* (budget caps therefore count per epoch, not per process).
    pub fn node_count() -> usize {
        ARENA.with(|cell| cell.borrow().nodes.len())
    }

    /// The node with the given id, if this thread's current epoch has
    /// interned that many.
    pub fn lookup(id: ExprId) -> Option<ExprRef> {
        ARENA.with(|cell| cell.borrow().nodes.get(id.0 as usize).copied())
    }

    /// The calling thread's arena epoch: bumps by one at every reset.
    pub fn epoch() -> u32 {
        ARENA.with(|cell| cell.borrow().identity.epoch)
    }

    /// Resets the calling thread's arena immediately: reclaims every
    /// interned node and invalidates every outstanding `ExprRef` (and the
    /// thread-local simplify/decompose memos keyed on them).
    ///
    /// Prefer scoping work in an [`ArenaEpoch`] guard; `reset` is the
    /// low-level escape hatch and ignores any live guards (their eventual
    /// drops reset again, which is harmless).
    pub fn reset() {
        ARENA.with(|cell| cell.borrow_mut().retire());
    }

    /// High-water mark of per-epoch live node counts across the whole
    /// process (every retired epoch on every thread, folded with the calling
    /// thread's current count).  Flat across identical batches — the
    /// batch-sweep benchmark asserts exactly that.
    pub fn process_peak_nodes() -> u64 {
        let live = ARENA.with(|cell| cell.borrow().nodes.len() as u64);
        PROCESS_PEAK.fetch_max(live, Ordering::Relaxed).max(live)
    }
}

/// RAII scope for one unit of pipeline work: while the guard is alive the
/// thread's arena accumulates nodes as usual; when the (outermost) guard
/// drops, the arena resets — nodes, hash-cons table and dependent memos are
/// reclaimed, and every `ExprRef` created during the epoch is invalidated.
///
/// Guards nest: only the outermost drop resets, so a helper that scopes its
/// own epoch composes with a caller that already did.  The guard is
/// deliberately `!Send` — it must drop on the thread that began it.
///
/// ```
/// use cp_symexpr::{ArenaEpoch, ExprArena, SymExpr};
///
/// let before = ExprArena::epoch();
/// {
///     let _epoch = ArenaEpoch::begin();
///     let _e = SymExpr::input_byte(3);
///     assert!(ExprArena::node_count() >= 1);
/// } // `_e` is invalid from here on
/// assert_eq!(ExprArena::epoch(), before + 1);
/// assert_eq!(ExprArena::node_count(), 0);
/// ```
#[must_use = "the arena resets when the epoch guard drops"]
#[derive(Debug)]
pub struct ArenaEpoch {
    /// `!Send`: the guard must drop on the thread whose arena it scopes.
    _not_send: PhantomData<*const ()>,
}

impl ArenaEpoch {
    /// Opens an epoch scope on the calling thread's arena.
    pub fn begin() -> ArenaEpoch {
        ARENA.with(|cell| {
            let mut arena = cell.borrow_mut();
            arena.epoch_depth += 1;
        });
        ArenaEpoch {
            _not_send: PhantomData,
        }
    }
}

impl Drop for ArenaEpoch {
    fn drop(&mut self) {
        ARENA.with(|cell| {
            let mut arena = cell.borrow_mut();
            arena.epoch_depth = arena.epoch_depth.saturating_sub(1);
            if arena.epoch_depth == 0 {
                arena.retire();
            }
        });
    }
}

/// Computes a node's metadata from its (already-interned) children — O(1)
/// plus the support union.
fn compute_meta(expr: &SymExpr) -> Meta {
    match expr {
        SymExpr::Const { width, .. } => Meta {
            width: *width,
            tainted: false,
            node_count: 1,
            op_count: 0,
            support: Arc::new(SupportSet::empty()),
        },
        SymExpr::InputByte { offset } => Meta {
            width: Width::W8,
            tainted: true,
            node_count: 1,
            op_count: 0,
            support: Arc::new(SupportSet::singleton(*offset)),
        },
        SymExpr::Field { width, offsets, .. } => Meta {
            width: *width,
            tainted: true,
            node_count: 1,
            op_count: 0,
            support: Arc::new(SupportSet::from_offsets(offsets.iter().copied())),
        },
        SymExpr::Unary { width, arg, .. } | SymExpr::Cast { width, arg, .. } => Meta {
            width: *width,
            tainted: arg.is_tainted(),
            node_count: arg.meta().node_count.saturating_add(1),
            op_count: arg.meta().op_count.saturating_add(1),
            support: Arc::clone(&arg.meta().support),
        },
        SymExpr::Binary {
            width, lhs, rhs, ..
        } => Meta {
            width: *width,
            tainted: lhs.is_tainted() || rhs.is_tainted(),
            node_count: lhs
                .meta()
                .node_count
                .saturating_add(rhs.meta().node_count)
                .saturating_add(1),
            op_count: lhs
                .meta()
                .op_count
                .saturating_add(rhs.meta().op_count)
                .saturating_add(1),
            support: union_support(lhs, rhs),
        },
    }
}

/// The union of two children's support sets, reusing a child's [`Arc`] when
/// the other side contributes nothing new.
fn union_support(lhs: &ExprRef, rhs: &ExprRef) -> Arc<SupportSet> {
    let (a, b) = (&lhs.meta().support, &rhs.meta().support);
    if b.is_empty() || Arc::ptr_eq(a, b) {
        return Arc::clone(a);
    }
    if a.is_empty() {
        return Arc::clone(b);
    }
    Arc::new(SupportSet::union(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprBuild;
    use crate::op::BinOp;

    #[test]
    fn structurally_equal_expressions_share_one_node() {
        let before = ExprArena::node_count();
        let a = SymExpr::input_byte(1234)
            .zext(Width::W32)
            .binop(BinOp::Add, SymExpr::constant(Width::W32, 7));
        let b = SymExpr::input_byte(1234)
            .zext(Width::W32)
            .binop(BinOp::Add, SymExpr::constant(Width::W32, 7));
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        // Rebuilding interned nothing new.
        let after = ExprArena::node_count();
        let c = SymExpr::input_byte(1234)
            .zext(Width::W32)
            .binop(BinOp::Add, SymExpr::constant(Width::W32, 7));
        assert_eq!(ExprArena::node_count(), after);
        assert_eq!(c, a);
        assert!(after > before);
    }

    #[test]
    fn constants_are_canonicalised_before_interning() {
        let a = SymExpr::constant(Width::W8, 0x1FF);
        let b = SymExpr::constant(Width::W8, 0xFF);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn lookup_round_trips_ids() {
        let e = SymExpr::input_byte(77);
        assert_eq!(ExprArena::lookup(e.id()), Some(e));
        assert!(ExprArena::lookup(ExprId(u32::MAX)).is_none());
    }

    #[test]
    fn metadata_is_computed_at_intern_time() {
        let e = SymExpr::input_byte(3)
            .zext(Width::W16)
            .binop(BinOp::Mul, SymExpr::input_byte(9).zext(Width::W16));
        assert!(e.is_tainted());
        assert_eq!(e.node_count(), 5);
        assert_eq!(e.op_count(), 3);
        assert_eq!(e.support().iter().collect::<Vec<_>>(), vec![3, 9]);
    }

    #[test]
    fn unary_chains_share_their_childs_support() {
        let base = SymExpr::input_byte(5).zext(Width::W64);
        let deep = base.binop(BinOp::Shl, SymExpr::constant(Width::W64, 8));
        assert!(Arc::ptr_eq(&base.meta().support, &deep.meta().support));
    }

    #[test]
    fn handles_are_send_and_sync() {
        // The types stay `Send + Sync` (moving a handle is fine; the
        // ownership rule governs *dereferencing*, checked in debug builds).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExprRef>();
        assert_send_sync::<SymExpr>();
    }

    #[test]
    fn an_epoch_reclaims_and_renumbers() {
        let _epoch = ArenaEpoch::begin();
        let a = SymExpr::input_byte(11);
        let first_count = ExprArena::node_count();
        assert!(first_count >= 1);
        let before = ExprArena::epoch();
        drop(_epoch);
        assert_eq!(ExprArena::epoch(), before + 1);
        assert_eq!(ExprArena::node_count(), 0);
        // Re-interning starts dense ids from zero again.
        let b = SymExpr::input_byte(11);
        assert_eq!(b.id().index(), 0);
        let _ = a; // stale handle may be moved/dropped, just not dereferenced
    }

    #[test]
    fn nested_epochs_reset_only_at_the_outermost_drop() {
        // Start from an empty arena so the count below is exact even when
        // tests share one thread (`--test-threads=1`).
        ExprArena::reset();
        let outer = ArenaEpoch::begin();
        let _e1 = SymExpr::input_byte(1);
        {
            let _inner = ArenaEpoch::begin();
            let _e2 = SymExpr::input_byte(2);
        }
        // The inner guard dropped but the outer is alive: nothing reclaimed.
        assert_eq!(ExprArena::node_count(), 2);
        drop(outer);
        assert_eq!(ExprArena::node_count(), 0);
    }
}
