//! The IR pass pipeline: constant folding, local CSE, copy propagation,
//! dead-code elimination, jump threading.
//!
//! Every pass is detector-preserving (see the crate docs for the exact
//! rules) and deterministic: no pass iterates a hash map in an order that
//! reaches the output.

use crate::{Block, BlockId, InstKind, IrFunction, IrProgram, Temp, Terminator};
use cp_symexpr::eval::eval_binop;
use cp_symexpr::{BinOp, CastKind, UnOp, Width};
use std::collections::HashMap;

/// Runs the full pipeline over every function.
pub fn optimize(mut program: IrProgram) -> IrProgram {
    for function in &mut program.functions {
        optimize_function(function);
    }
    program
}

/// Runs the full pipeline over one function.
pub fn optimize_function(function: &mut IrFunction) {
    const_fold(function);
    local_cse(function);
    copy_prop(function);
    // CSE rewrites feed the folder new constants (via propagated copies).
    const_fold(function);
    dce(function);
    jump_thread(function);
    // Threading drops condition uses (equal-target branches) and whole
    // blocks; sweep what became dead.
    dce(function);
}

/// Whether a concrete `Add`/`Sub`/`Mul` at `width` wraps — the VM's sticky
/// overflow predicate, mirrored exactly (`a` and `b` already truncated).
fn wraps(op: BinOp, width: Width, a: u64, b: u64) -> bool {
    let mask = width.mask() as u128;
    match op {
        BinOp::Add => (a as u128) + (b as u128) > mask,
        BinOp::Sub => b > a,
        BinOp::Mul => (a as u128) * (b as u128) > mask,
        _ => false,
    }
}

/// Constant folding, per block.
///
/// A temp is known constant only when its defining `Const` sits in the same
/// block (temps crossing blocks travel through memory and are left alone).
/// Folds that the detectors could observe are refused: a wrapping
/// `Add`/`Sub`/`Mul` keeps its instruction (the VM must set the sticky
/// overflow flag on the value), and a `Div`/`Rem` by constant zero keeps its
/// instruction (the VM must trap).  A `Branch` whose condition folds becomes
/// a `Jump` — constant conditions carry no taint, so no check site is lost.
pub fn const_fold(function: &mut IrFunction) {
    for block in &mut function.blocks {
        let mut env: HashMap<Temp, (Width, u64)> = HashMap::new();
        for inst in &mut block.insts {
            match inst.kind {
                InstKind::Const { dst, width, value } => {
                    env.insert(dst, (width, value));
                }
                InstKind::Copy { dst, src } => {
                    if let Some(&known) = env.get(&src) {
                        env.insert(dst, known);
                        inst.kind = InstKind::Const {
                            dst,
                            width: known.0,
                            value: known.1,
                        };
                    }
                }
                InstKind::Binary {
                    dst,
                    op,
                    width,
                    lhs,
                    rhs,
                } => {
                    let (Some(&(_, lv)), Some(&(_, rv))) = (env.get(&lhs), env.get(&rhs)) else {
                        continue;
                    };
                    let a = width.truncate(lv);
                    let b = width.truncate(rv);
                    if matches!(op, BinOp::DivU | BinOp::DivS | BinOp::RemU | BinOp::RemS) && b == 0
                    {
                        continue; // must trap at runtime
                    }
                    if wraps(op, width, a, b) {
                        continue; // must set the sticky overflow flag
                    }
                    let value = eval_binop(op, width, a, b);
                    let result_width = if op.is_comparison() { Width::W8 } else { width };
                    env.insert(dst, (result_width, value));
                    inst.kind = InstKind::Const {
                        dst,
                        width: result_width,
                        value,
                    };
                }
                InstKind::Unary {
                    dst,
                    op,
                    width,
                    src,
                } => {
                    let Some(&(_, sv)) = env.get(&src) else {
                        continue;
                    };
                    let a = width.truncate(sv);
                    let (value, result_width) = match op {
                        UnOp::Neg => (width.truncate(a.wrapping_neg()), width),
                        UnOp::Not => (width.truncate(!a), width),
                        UnOp::LogicalNot => ((a == 0) as u64, Width::W8),
                    };
                    env.insert(dst, (result_width, value));
                    inst.kind = InstKind::Const {
                        dst,
                        width: result_width,
                        value,
                    };
                }
                InstKind::Cast {
                    dst,
                    kind,
                    from,
                    to,
                    src,
                } => {
                    let Some(&(_, sv)) = env.get(&src) else {
                        continue;
                    };
                    let a = from.truncate(sv);
                    let value = match kind {
                        CastKind::ZeroExt => a,
                        CastKind::SignExt => to.truncate(from.sign_extend(a)),
                        CastKind::Truncate => to.truncate(a),
                    };
                    env.insert(dst, (to, value));
                    inst.kind = InstKind::Const {
                        dst,
                        width: to,
                        value,
                    };
                }
                _ => {}
            }
        }
        if let Terminator::Branch {
            cond,
            if_zero,
            fallthrough,
        } = block.term
        {
            if let Some(&(_, value)) = env.get(&cond) {
                block.term = Terminator::Jump(if value == 0 { if_zero } else { fallthrough });
            }
        }
    }
}

/// Key identifying a recomputable value for local value numbering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum VnKey {
    Frame(usize),
    Global(usize),
    Const(Width, u64),
    Cast(CastKind, Width, Width, Temp),
    Unary(UnOp, Width, Temp),
    Binary(BinOp, Width, Temp, Temp),
    Load(Width, Temp, u64),
}

/// On a stack machine a shared subexpression must be spilled to a frame slot
/// and reloaded, which costs about this many extra instructions; smaller
/// subtrees are cheaper to recompute than to share.
const CSE_MIN_COST: usize = 5;

/// Local (per-block) common-subexpression elimination.
///
/// Refusals, in order of importance:
/// - `Add`/`Sub`/`Mul` are never merged: the sticky overflow flag makes two
///   textually identical arithmetic ops semantically distinct observations.
///   `Div`/`Rem` are never merged either (trap sites).
/// - Values never merge across blocks — value numbering resets at block
///   entry, so ops on either side of any branch stay separate.
/// - A `Load` only merges with an identical one in the same memory
///   generation (no `Store` or `Call` between them).
/// - Subtrees cheaper than `CSE_MIN_COST` are recomputed, not shared.
pub fn local_cse(function: &mut IrFunction) {
    for block in &mut function.blocks {
        // Cost of the value tree rooted at each temp, within this block.
        let mut cost: HashMap<Temp, usize> = HashMap::new();
        let mut available: HashMap<VnKey, Temp> = HashMap::new();
        // dst of a replaced inst → the representative temp it copies.
        let mut resolved: HashMap<Temp, Temp> = HashMap::new();
        let resolve =
            |resolved: &HashMap<Temp, Temp>, t: Temp| -> Temp { *resolved.get(&t).unwrap_or(&t) };
        let mut generation: u64 = 0;
        for inst in &mut block.insts {
            let operand_cost: usize = inst
                .kind
                .operands()
                .iter()
                .map(|t| cost.get(t).copied().unwrap_or(1))
                .sum();
            let key = match inst.kind {
                InstKind::FrameAddr { offset, .. } => Some(VnKey::Frame(offset)),
                InstKind::GlobalAddr { offset, .. } => Some(VnKey::Global(offset)),
                InstKind::Const { width, value, .. } => Some(VnKey::Const(width, value)),
                InstKind::Cast {
                    kind,
                    from,
                    to,
                    src,
                    ..
                } => Some(VnKey::Cast(kind, from, to, resolve(&resolved, src))),
                InstKind::Unary { op, width, src, .. } => {
                    Some(VnKey::Unary(op, width, resolve(&resolved, src)))
                }
                InstKind::Binary {
                    op,
                    width,
                    lhs,
                    rhs,
                    ..
                } if !matches!(
                    op,
                    BinOp::Add
                        | BinOp::Sub
                        | BinOp::Mul
                        | BinOp::DivU
                        | BinOp::DivS
                        | BinOp::RemU
                        | BinOp::RemS
                ) =>
                {
                    Some(VnKey::Binary(
                        op,
                        width,
                        resolve(&resolved, lhs),
                        resolve(&resolved, rhs),
                    ))
                }
                InstKind::Load { addr, width, .. } => {
                    Some(VnKey::Load(width, resolve(&resolved, addr), generation))
                }
                _ => None,
            };
            match inst.kind {
                InstKind::Store { .. } | InstKind::Call { .. } => generation += 1,
                _ => {}
            }
            let Some(dst) = inst.kind.dst() else { continue };
            let own_cost = 1 + operand_cost;
            cost.insert(dst, own_cost);
            let Some(key) = key else { continue };
            match available.get(&key) {
                Some(&rep) => {
                    // Always record the canonical name, so enclosing
                    // subtrees built from cheap duplicated leaves still
                    // match — but only rewrite when recomputing costs more
                    // than a spill/reload pair would.
                    resolved.insert(dst, rep);
                    if own_cost >= CSE_MIN_COST {
                        cost.insert(dst, cost.get(&rep).copied().unwrap_or(1));
                        inst.kind = InstKind::Copy { dst, src: rep };
                    }
                }
                None => {
                    available.insert(key, dst);
                }
            }
        }
    }
}

/// Copy propagation: rewrites uses of `Copy` destinations to their sources,
/// per block, leaving the (now dead) copies for DCE.
pub fn copy_prop(function: &mut IrFunction) {
    for block in &mut function.blocks {
        let mut forward: HashMap<Temp, Temp> = HashMap::new();
        for inst in &mut block.insts {
            inst.kind.map_operands(|t| *forward.get(&t).unwrap_or(&t));
            if let InstKind::Copy { dst, src } = inst.kind {
                // `src` was already rewritten, so chains collapse.
                forward.insert(dst, src);
            }
        }
        if let Some(t) = block.term.operand() {
            let resolved = *forward.get(&t).unwrap_or(&t);
            match &mut block.term {
                Terminator::Branch { cond, .. } => *cond = resolved,
                Terminator::Return { value: Some(v) } => *v = resolved,
                Terminator::Exit { status } => *status = resolved,
                _ => {}
            }
        }
    }
}

/// Whether DCE may delete this instruction once its result is unused.
///
/// `Load` stays (out-of-bounds trap), `Div`/`Rem` stay (divide-by-zero
/// trap), calls and stores stay (side effects), `StmtEnd` stays (recorder
/// hook).  A dead `Add`/`Sub`/`Mul` *is* removable: overflow is a per-value
/// sticky flag, and a flag on a value nothing consumes can never reach an
/// allocation site.
fn removable(kind: &InstKind) -> bool {
    match kind {
        InstKind::Const { .. }
        | InstKind::Copy { .. }
        | InstKind::FrameAddr { .. }
        | InstKind::GlobalAddr { .. }
        | InstKind::Cast { .. }
        | InstKind::Unary { .. } => true,
        InstKind::Binary { op, .. } => {
            !matches!(op, BinOp::DivU | BinOp::DivS | BinOp::RemU | BinOp::RemS)
        }
        InstKind::Load { .. }
        | InstKind::Store { .. }
        | InstKind::Call { .. }
        | InstKind::CallIntrinsic { .. }
        | InstKind::StmtEnd { .. } => false,
    }
}

/// Dead-code elimination: deletes side-effect-free instructions whose result
/// no instruction or terminator reads, iterating until a fixed point.
pub fn dce(function: &mut IrFunction) {
    let mut uses = function.use_counts();
    loop {
        let mut changed = false;
        for block in &mut function.blocks {
            block.insts.retain(|inst| {
                let dead = matches!(inst.kind.dst(), Some(d) if uses[d as usize] == 0)
                    && removable(&inst.kind);
                if dead {
                    for t in inst.kind.operands() {
                        uses[t as usize] -= 1;
                    }
                    changed = true;
                }
                !dead
            });
        }
        if !changed {
            break;
        }
    }
}

/// Jump threading and CFG cleanup:
/// - retargets jumps and branches through empty forwarding blocks,
/// - collapses branches whose arms coincide into jumps,
/// - deletes unreachable blocks,
/// - merges a block into its unique jump predecessor.
///
/// Only unconditional control flow is touched; a conditional branch on a
/// runtime value is a potential check site and always survives.
pub fn jump_thread(function: &mut IrFunction) {
    // Resolve chains of empty `Jump` blocks (bounded to tolerate cycles).
    let resolve = |blocks: &[Block], mut target: BlockId| -> BlockId {
        for _ in 0..blocks.len() {
            let block = &blocks[target];
            match block.term {
                Terminator::Jump(next) if block.insts.is_empty() && next != target => {
                    target = next;
                }
                _ => break,
            }
        }
        target
    };
    for id in 0..function.blocks.len() {
        let mut term = function.blocks[id].term.clone();
        term.map_targets(|t| resolve(&function.blocks, t));
        if let Terminator::Branch {
            if_zero,
            fallthrough,
            ..
        } = term
        {
            if if_zero == fallthrough {
                // Both arms agree: the condition no longer decides anything.
                // (Its computation stays unless DCE proves it dead.)
                term = Terminator::Jump(if_zero);
            }
        }
        function.blocks[id].term = term;
    }

    // Drop unreachable blocks and renumber.
    let mut reachable = vec![false; function.blocks.len()];
    let mut stack = vec![0usize];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut reachable[id], true) {
            continue;
        }
        stack.extend(function.blocks[id].term.successors());
    }
    let mut remap = vec![usize::MAX; function.blocks.len()];
    let mut kept = 0usize;
    for (id, live) in reachable.iter().enumerate() {
        if *live {
            remap[id] = kept;
            kept += 1;
        }
    }
    let mut index = 0usize;
    function.blocks.retain(|_| {
        let keep = reachable[index];
        index += 1;
        keep
    });
    for block in &mut function.blocks {
        block.term.map_targets(|t| remap[t]);
    }

    // Merge `a: …; jump b` with `b` when `a` is b's only predecessor.
    loop {
        let mut preds = vec![0usize; function.blocks.len()];
        for block in &function.blocks {
            for succ in block.term.successors() {
                preds[succ] += 1;
            }
        }
        let mut merged = None;
        for id in 0..function.blocks.len() {
            if let Terminator::Jump(target) = function.blocks[id].term {
                if target != id && target != 0 && preds[target] == 1 {
                    merged = Some((id, target));
                    break;
                }
            }
        }
        let Some((id, target)) = merged else { break };
        let mut tail = std::mem::replace(
            &mut function.blocks[target],
            Block {
                insts: Vec::new(),
                term: Terminator::Jump(target),
                term_stmt: None,
            },
        );
        let head = &mut function.blocks[id];
        head.insts.append(&mut tail.insts);
        head.term = tail.term;
        head.term_stmt = tail.term_stmt;
        // `target` now only jumps to itself and is unreachable; a retain
        // pass below would renumber, but simply leaving it is wrong (it
        // self-loops).  Re-run the reachability sweep.
        let mut reachable = vec![false; function.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b], true) {
                continue;
            }
            stack.extend(function.blocks[b].term.successors());
        }
        let mut remap = vec![usize::MAX; function.blocks.len()];
        let mut kept = 0usize;
        for (b, live) in reachable.iter().enumerate() {
            if *live {
                remap[b] = kept;
                kept += 1;
            }
        }
        let mut index = 0usize;
        function.blocks.retain(|_| {
            let keep = reachable[index];
            index += 1;
            keep
        });
        for block in &mut function.blocks {
            block.term.map_targets(|t| remap[t]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Inst, IrParam};

    /// Hand-written CFG scaffolding for the pass tests.
    struct Builder {
        function: IrFunction,
        cur: BlockId,
    }

    impl Builder {
        fn new() -> Builder {
            Builder {
                function: IrFunction {
                    name: "test".into(),
                    frame_size: 64,
                    params: Vec::<IrParam>::new(),
                    ret_width: Some(Width::W32),
                    blocks: vec![Block {
                        insts: Vec::new(),
                        term: Terminator::Return { value: None },
                        term_stmt: None,
                    }],
                    temp_widths: Vec::new(),
                },
                cur: 0,
            }
        }

        fn temp(&mut self, width: Width) -> Temp {
            self.function.temp_widths.push(width);
            (self.function.temp_widths.len() - 1) as Temp
        }

        fn push(&mut self, kind: InstKind) {
            self.function.blocks[self.cur]
                .insts
                .push(Inst { kind, stmt: None });
        }

        fn konst(&mut self, width: Width, value: u64) -> Temp {
            let dst = self.temp(width);
            self.push(InstKind::Const { dst, width, value });
            dst
        }

        fn binary(&mut self, op: BinOp, width: Width, lhs: Temp, rhs: Temp) -> Temp {
            let dst = self.temp(if op.is_comparison() { Width::W8 } else { width });
            self.push(InstKind::Binary {
                dst,
                op,
                width,
                lhs,
                rhs,
            });
            dst
        }

        fn block(&mut self) -> BlockId {
            self.function.blocks.push(Block {
                insts: Vec::new(),
                term: Terminator::Return { value: None },
                term_stmt: None,
            });
            self.function.blocks.len() - 1
        }

        fn terminate(&mut self, term: Terminator) {
            self.function.blocks[self.cur].term = term;
        }

        fn output(&mut self, value: Temp) {
            self.push(InstKind::CallIntrinsic {
                dst: None,
                intrinsic: crate::Intrinsic::Output,
                args: vec![value],
            });
        }

        fn count(&self, pred: impl Fn(&InstKind) -> bool) -> usize {
            self.function
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| pred(&i.kind))
                .count()
        }
    }

    #[test]
    fn const_fold_fires_on_clean_arithmetic() {
        let mut b = Builder::new();
        let x = b.konst(Width::W32, 6);
        let y = b.konst(Width::W32, 7);
        let p = b.binary(BinOp::Mul, Width::W32, x, y);
        b.output(p);
        const_fold(&mut b.function);
        dce(&mut b.function);
        assert_eq!(b.count(|k| matches!(k, InstKind::Binary { .. })), 0);
        assert!(b.function.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Const { value: 42, .. })));
    }

    #[test]
    fn const_fold_refuses_wrapping_mul_and_zero_divisor() {
        let mut b = Builder::new();
        // 0x1_0000 * 0x1_0000 wraps at 32 bits: the VM would set the sticky
        // overflow flag, so the instruction must survive.
        let big = b.konst(Width::W32, 0x1_0000);
        let wrapped = b.binary(BinOp::Mul, Width::W32, big, big);
        b.output(wrapped);
        // 5 / 0 traps: the instruction must survive.
        let five = b.konst(Width::W32, 5);
        let zero = b.konst(Width::W32, 0);
        let quot = b.binary(BinOp::DivU, Width::W32, five, zero);
        b.output(quot);
        const_fold(&mut b.function);
        assert_eq!(b.count(|k| matches!(k, InstKind::Binary { .. })), 2);
    }

    #[test]
    fn const_fold_turns_constant_branch_into_jump() {
        let mut b = Builder::new();
        let c = b.konst(Width::W32, 1);
        let t1 = b.block();
        let t2 = b.block();
        b.terminate(Terminator::Branch {
            cond: c,
            if_zero: t2,
            fallthrough: t1,
        });
        const_fold(&mut b.function);
        assert_eq!(b.function.blocks[0].term, Terminator::Jump(t1));
    }

    #[test]
    fn cse_merges_an_expensive_pure_subtree() {
        let mut b = Builder::new();
        // ((x >> 8) & 255) twice, from the same load — cost exceeds the
        // spill threshold, and shifts/masks carry no overflow flag.
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let x = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: x,
            addr,
            width: Width::W32,
        });
        let eight1 = b.konst(Width::W32, 8);
        let sh1 = b.binary(BinOp::ShrU, Width::W32, x, eight1);
        let mask1 = b.konst(Width::W32, 255);
        let v1 = b.binary(BinOp::And, Width::W32, sh1, mask1);
        b.output(v1);
        let eight2 = b.konst(Width::W32, 8);
        let sh2 = b.binary(BinOp::ShrU, Width::W32, x, eight2);
        let mask2 = b.konst(Width::W32, 255);
        let v2 = b.binary(BinOp::And, Width::W32, sh2, mask2);
        b.output(v2);
        local_cse(&mut b.function);
        copy_prop(&mut b.function);
        dce(&mut b.function);
        // The second shift+mask collapsed onto the first.
        assert_eq!(
            b.count(|k| matches!(k, InstKind::Binary { op: BinOp::And, .. })),
            1
        );
        assert_eq!(
            b.count(|k| matches!(
                k,
                InstKind::Binary {
                    op: BinOp::ShrU,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn cse_refuses_overflowing_mul_even_within_a_block() {
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let x = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: x,
            addr,
            width: Width::W32,
        });
        let m1 = b.binary(BinOp::Mul, Width::W32, x, x);
        b.output(m1);
        let m2 = b.binary(BinOp::Mul, Width::W32, x, x);
        b.output(m2);
        local_cse(&mut b.function);
        assert_eq!(
            b.count(|k| matches!(k, InstKind::Binary { op: BinOp::Mul, .. })),
            2
        );
    }

    #[test]
    fn cse_refuses_to_merge_across_a_branch() {
        // Two identical overflowing `Mul`s in *different* blocks: the branch
        // between them may reset what the sticky flag would have observed
        // (a store clearing the poisoned slot), so value numbering must not
        // cross the block boundary.
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let x = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: x,
            addr,
            width: Width::W32,
        });
        let sh = {
            let eight = b.konst(Width::W32, 8);
            let sh = b.binary(BinOp::ShrU, Width::W32, x, eight);
            let mask = b.konst(Width::W32, 255);
            b.binary(BinOp::And, Width::W32, sh, mask)
        };
        b.output(sh);
        let other = b.block();
        b.terminate(Terminator::Branch {
            cond: sh,
            if_zero: other,
            fallthrough: other,
        });
        b.cur = other;
        // Same (expensive) subtree again, in the next block: must be
        // recomputed, not forwarded.
        let addr2 = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr2,
            offset: 0,
        });
        let x2 = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: x2,
            addr: addr2,
            width: Width::W32,
        });
        let eight2 = b.konst(Width::W32, 8);
        let sh2 = b.binary(BinOp::ShrU, Width::W32, x2, eight2);
        let mask2 = b.konst(Width::W32, 255);
        let v2 = b.binary(BinOp::And, Width::W32, sh2, mask2);
        b.output(v2);
        local_cse(&mut b.function);
        assert_eq!(
            b.count(|k| matches!(k, InstKind::Binary { op: BinOp::And, .. })),
            2
        );
        assert_eq!(b.count(|k| matches!(k, InstKind::Copy { .. })), 0);
    }

    #[test]
    fn cse_respects_memory_generations() {
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        // Two identical (cheap) loads with a store in between must both
        // survive; make them part of expensive subtrees so only the
        // generation rule can refuse the merge.
        let l1 = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: l1,
            addr,
            width: Width::W32,
        });
        let k1 = b.konst(Width::W32, 3);
        let e1 = b.binary(BinOp::Xor, Width::W32, l1, k1);
        let e1b = b.binary(BinOp::Or, Width::W32, e1, k1);
        let e1c = b.binary(BinOp::And, Width::W32, e1b, k1);
        b.output(e1c);
        let stored = b.konst(Width::W32, 9);
        b.push(InstKind::Store {
            addr,
            value: stored,
            width: Width::W32,
        });
        let l2 = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: l2,
            addr,
            width: Width::W32,
        });
        let k2 = b.konst(Width::W32, 3);
        let e2 = b.binary(BinOp::Xor, Width::W32, l2, k2);
        let e2b = b.binary(BinOp::Or, Width::W32, e2, k2);
        let e2c = b.binary(BinOp::And, Width::W32, e2b, k2);
        b.output(e2c);
        local_cse(&mut b.function);
        copy_prop(&mut b.function);
        dce(&mut b.function);
        // The load after the store reads a different value: nothing from the
        // second subtree may forward to the first.
        assert_eq!(b.count(|k| matches!(k, InstKind::Load { .. })), 2);
        assert_eq!(
            b.count(|k| matches!(k, InstKind::Binary { op: BinOp::Xor, .. })),
            2
        );
    }

    #[test]
    fn copy_prop_collapses_chains() {
        let mut b = Builder::new();
        let x = b.konst(Width::W32, 7);
        let y = b.temp(Width::W32);
        b.push(InstKind::Copy { dst: y, src: x });
        let z = b.temp(Width::W32);
        b.push(InstKind::Copy { dst: z, src: y });
        b.output(z);
        copy_prop(&mut b.function);
        dce(&mut b.function);
        assert_eq!(b.count(|k| matches!(k, InstKind::Copy { .. })), 0);
        let last = b.function.blocks[0].insts.last().unwrap();
        assert!(
            matches!(last.kind, InstKind::CallIntrinsic { ref args, .. } if args == &vec![x]),
            "{last:?}"
        );
    }

    #[test]
    fn copy_prop_stops_at_block_boundaries() {
        let mut b = Builder::new();
        let x = b.konst(Width::W32, 7);
        let y = b.temp(Width::W32);
        b.push(InstKind::Copy { dst: y, src: x });
        let next = b.block();
        b.terminate(Terminator::Jump(next));
        b.cur = next;
        b.output(y);
        copy_prop(&mut b.function);
        // The use in the next block keeps naming the copy.
        let last = b.function.blocks[next].insts.last().unwrap();
        assert!(matches!(last.kind, InstKind::CallIntrinsic { ref args, .. } if args == &vec![y]));
    }

    #[test]
    fn dce_removes_dead_wrapping_mul_but_keeps_div_and_load() {
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let x = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: x,
            addr,
            width: Width::W32,
        });
        // Dead Mul: removable — the sticky flag on a value nothing reads
        // cannot reach an allocation.
        b.binary(BinOp::Mul, Width::W32, x, x);
        // Dead Div: NOT removable — it traps when x is zero.
        b.binary(BinOp::DivU, Width::W32, x, x);
        dce(&mut b.function);
        assert_eq!(
            b.count(|k| matches!(k, InstKind::Binary { op: BinOp::Mul, .. })),
            0
        );
        assert_eq!(
            b.count(|k| matches!(
                k,
                InstKind::Binary {
                    op: BinOp::DivU,
                    ..
                }
            )),
            1
        );
        // The load feeding the div (and the dead-mul) survives too.
        assert_eq!(b.count(|k| matches!(k, InstKind::Load { .. })), 1);
    }

    #[test]
    fn dce_sweeps_transitively() {
        let mut b = Builder::new();
        let x = b.konst(Width::W32, 1);
        let y = b.konst(Width::W32, 2);
        b.binary(BinOp::And, Width::W32, x, y);
        dce(&mut b.function);
        assert!(b.function.blocks[0].insts.is_empty());
    }

    #[test]
    fn jump_threading_skips_empty_blocks_and_merges() {
        let mut b = Builder::new();
        let hop = b.block();
        let tail = b.block();
        b.terminate(Terminator::Jump(hop));
        b.cur = hop;
        b.terminate(Terminator::Jump(tail));
        b.cur = tail;
        let v = b.konst(Width::W32, 3);
        b.terminate(Terminator::Return { value: Some(v) });
        jump_thread(&mut b.function);
        // Everything collapses into the entry block.
        assert_eq!(b.function.blocks.len(), 1);
        assert_eq!(
            b.function.blocks[0].term,
            Terminator::Return { value: Some(v) }
        );
        assert_eq!(b.function.blocks[0].insts.len(), 1);
    }

    #[test]
    fn jump_threading_collapses_equal_arm_branches_only() {
        let mut b = Builder::new();
        let addr = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr,
            offset: 0,
        });
        let c = b.temp(Width::W32);
        b.push(InstKind::Load {
            dst: c,
            addr,
            width: Width::W32,
        });
        let same = b.block();
        b.terminate(Terminator::Branch {
            cond: c,
            if_zero: same,
            fallthrough: same,
        });
        b.cur = same;
        let real = b.block();
        let other = b.block();
        let c2 = b.temp(Width::W32);
        let addr2 = b.temp(Width::W64);
        b.push(InstKind::FrameAddr {
            dst: addr2,
            offset: 8,
        });
        b.push(InstKind::Load {
            dst: c2,
            addr: addr2,
            width: Width::W32,
        });
        b.terminate(Terminator::Branch {
            cond: c2,
            if_zero: other,
            fallthrough: real,
        });
        jump_thread(&mut b.function);
        let branches = b
            .function
            .blocks
            .iter()
            .filter(|bl| matches!(bl.term, Terminator::Branch { .. }))
            .count();
        // The equal-arm branch is gone; the genuine two-way branch survives
        // (it is a potential check site).
        assert_eq!(branches, 1);
    }

    #[test]
    fn jump_threading_drops_unreachable_blocks() {
        let mut b = Builder::new();
        let live = b.block();
        let dead = b.block();
        b.terminate(Terminator::Jump(live));
        b.cur = live;
        let v = b.konst(Width::W32, 0);
        b.terminate(Terminator::Return { value: Some(v) });
        b.cur = dead;
        let w = b.konst(Width::W32, 9);
        b.terminate(Terminator::Exit { status: w });
        jump_thread(&mut b.function);
        assert!(b
            .function
            .blocks
            .iter()
            .all(|bl| !matches!(bl.term, Terminator::Exit { .. })));
    }
}
