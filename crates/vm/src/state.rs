//! Machine state: memory segments, shadow (symbolic) state, frames and heap.
//!
//! The shadow is byte-granular: every memory byte has one cover, either
//! clean or part of one stored value's symbolic expression, kept beside the
//! byte's segment.  It is created by the first store of a value that carries
//! an expression, so plain runs, whose values never do, allocate none.

use crate::error::VmError;
use crate::{GLOBAL_BASE, HEAP_BASE, HEAP_GUARD, STACK_BASE, STACK_SIZE};
use cp_symexpr::bytes::{recompose, ByteVal};
use cp_symexpr::{BinOp, ExprBuild, ExprRef, SymExpr, Width};
use std::collections::HashMap;

/// A concrete runtime value on the operand stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Value {
    /// The raw bits, truncated to `width`.
    pub raw: u64,
    /// Nominal width of the value.
    pub width: Width,
    /// Sticky flag: the value was produced by (or derived from) an arithmetic
    /// operation that wrapped.  The allocator checks this flag to detect the
    /// paper's "integer overflow at a memory allocation site" errors.
    pub overflowed: bool,
}

impl Value {
    /// Creates a value without the overflow flag.
    pub fn new(width: Width, raw: u64) -> Self {
        Value {
            raw: width.truncate(raw),
            width,
            overflowed: false,
        }
    }

    /// Creates a value with an explicit overflow flag.
    pub fn with_overflow(width: Width, raw: u64, overflowed: bool) -> Self {
        Value {
            raw: width.truncate(raw),
            width,
            overflowed,
        }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }
}

/// One live heap allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Base address.
    pub base: u64,
    /// Size in bytes actually granted to the program.
    pub size: u64,
}

impl Allocation {
    /// Whether the range `[addr, addr + len)` lies entirely inside the
    /// allocation.
    pub fn contains_range(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr.saturating_add(len as u64) <= self.base + self.size
    }
}

/// One activation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Index of the executing function.
    pub function: usize,
    /// Unique invocation id (monotonically increasing across the run).
    pub invocation: u64,
    /// Base address of the frame within the stack segment.
    pub frame_base: u64,
    /// Saved program counter of the caller (the instruction to resume after
    /// the call instruction).
    pub return_pc: usize,
    /// Height of the operand stack when the frame was entered (used to detect
    /// malformed bytecode on return).
    pub operand_base: usize,
}

/// Where an access lands: at an offset into the global or the stack segment,
/// or in the heap.
enum Segment {
    Globals(usize),
    Stack(usize),
    Heap,
}

/// The shadow state of one memory byte.  A stored value with a symbolic
/// shadow is one entry: its first byte holds the width and expression, and
/// each later byte holds its distance from the first.
#[derive(Debug, Clone, Copy)]
enum Cover {
    /// The byte holds no input-derived value.
    Clean,
    /// The first byte of a `width`-byte entry.
    Start(Width, ExprRef),
    /// This many bytes into the entry that starts that many bytes earlier.
    Inside(u8),
}

/// Byte-granular symbolic shadow memory, in the manner of libdft (Kemerlis
/// et al., VEE 2012): one [`Cover`] per byte, so finding the entry behind a
/// byte takes at most two reads.  Global covers are a flat vector over the
/// whole global segment; stack covers a flat vector up to the highest byte a
/// tainted store reached, clean above it; heap covers are keyed by address,
/// and a byte without a key is clean.
#[derive(Debug, Clone)]
struct ShadowMemory {
    globals: Vec<Cover>,
    stack: Vec<Cover>,
    heap: HashMap<u64, Cover>,
}

impl ShadowMemory {
    fn new(globals_size: usize) -> Self {
        ShadowMemory {
            globals: vec![Cover::Clean; globals_size],
            stack: Vec::new(),
            heap: HashMap::new(),
        }
    }

    /// The segment holding the byte at `addr`, classified by address alone,
    /// the way [`MachineState::check_access`] classifies an in-bounds access.
    fn segment(&self, addr: u64) -> Segment {
        let global = addr.wrapping_sub(GLOBAL_BASE);
        if global < self.globals.len() as u64 {
            return Segment::Globals(global as usize);
        }
        let stack = addr.wrapping_sub(STACK_BASE);
        if stack < STACK_SIZE {
            return Segment::Stack(stack as usize);
        }
        Segment::Heap
    }

    fn get(&self, addr: u64) -> Cover {
        match self.segment(addr) {
            Segment::Globals(at) => self.globals[at],
            Segment::Stack(at) => self.stack.get(at).copied().unwrap_or(Cover::Clean),
            Segment::Heap => self.heap.get(&addr).copied().unwrap_or(Cover::Clean),
        }
    }

    fn set(&mut self, addr: u64, cover: Cover) {
        let clean = matches!(cover, Cover::Clean);
        match self.segment(addr) {
            Segment::Globals(at) => self.globals[at] = cover,
            // Bytes above the stack covers' end already read as clean.
            Segment::Stack(at) if at >= self.stack.len() && clean => {}
            Segment::Stack(at) => {
                if at >= self.stack.len() {
                    self.stack.resize(at + 1, Cover::Clean);
                }
                self.stack[at] = cover;
            }
            Segment::Heap if clean => {
                self.heap.remove(&addr);
            }
            Segment::Heap => {
                self.heap.insert(addr, cover);
            }
        }
    }

    /// The start address, width and expression of the entry covering the
    /// byte at `addr`.
    fn entry(&self, addr: u64) -> Option<(u64, Width, ExprRef)> {
        match self.get(addr) {
            Cover::Clean => None,
            Cover::Start(width, expr) => Some((addr, width, expr)),
            Cover::Inside(k) => {
                let start = addr - u64::from(k);
                match self.get(start) {
                    Cover::Start(width, expr) => Some((start, width, expr)),
                    _ => unreachable!("an inside cover follows its entry's first byte"),
                }
            }
        }
    }

    /// The 8-bit expression describing the single byte at `addr`, extracted
    /// from the entry that covers it.
    fn byte(&self, addr: u64) -> Option<ExprRef> {
        let (start, width, expr) = self.entry(addr)?;
        Some(byte_of(width, expr, addr - start))
    }
}

/// Byte `offset` (little-endian) of a `width`-bit entry's expression.
fn byte_of(width: Width, expr: ExprRef, offset: u64) -> ExprRef {
    let byte = if offset == 0 {
        expr
    } else {
        expr.binop(BinOp::ShrU, SymExpr::constant(width, 8 * offset))
    };
    byte.truncate(Width::W8)
}

/// The complete mutable state of a running VM.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// The global segment, one byte per address from [`GLOBAL_BASE`].
    globals: Vec<u8>,
    /// The stack segment from [`STACK_BASE`] up to the highest byte ever
    /// written; bytes above it read as zero.  Popping a frame clears nothing.
    stack: Vec<u8>,
    /// Written heap bytes, keyed by address, so an allocation costs nothing
    /// until it is written; unwritten bytes read as zero.
    heap: HashMap<u64, u8>,
    /// Symbolic shadow of stored values, one cover per byte.  Created by the
    /// first tainted store, so a run whose values never carry a shadow (every
    /// plain [`crate::run`]) allocates none.
    shadow: Option<ShadowMemory>,
    /// Addresses holding values whose computation overflowed.
    pub overflowed_addrs: std::collections::HashSet<u64>,
    /// Live heap allocations, sorted by base address.
    pub allocations: Vec<Allocation>,
    /// Next free heap address.
    pub heap_top: u64,
    /// Next free stack address.
    pub stack_top: u64,
    /// Call stack.
    pub frames: Vec<Frame>,
    /// Operand stack (concrete values).
    pub operands: Vec<Value>,
    /// Operand stack (symbolic shadows, parallel to `operands`).
    pub operand_shadow: Vec<Option<ExprRef>>,
    /// Values passed to the `output` intrinsic, in order.
    pub outputs: Vec<u64>,
    /// Executed instruction count.
    pub steps: u64,
    /// Monotonic counter used to assign invocation ids.
    pub next_invocation: u64,
}

impl MachineState {
    /// Creates a fresh machine state for a program with the given global
    /// segment size.
    pub fn new(globals_size: usize) -> Self {
        MachineState {
            globals: vec![0; globals_size],
            stack: Vec::new(),
            heap: HashMap::new(),
            shadow: None,
            overflowed_addrs: std::collections::HashSet::new(),
            allocations: Vec::new(),
            heap_top: HEAP_BASE,
            stack_top: STACK_BASE,
            frames: Vec::new(),
            operands: Vec::new(),
            operand_shadow: Vec::new(),
            outputs: Vec::new(),
            steps: 0,
            next_invocation: 0,
        }
    }

    /// The currently executing frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    pub fn current_frame(&self) -> &Frame {
        self.frames.last().expect("no active frame")
    }

    /// Classifies an access of `len` bytes at `addr` and checks that it is
    /// valid.
    fn check_access(&self, addr: u64, len: usize, write: bool) -> Result<Segment, VmError> {
        let end = addr.saturating_add(len as u64);
        if addr >= GLOBAL_BASE && end <= GLOBAL_BASE + self.globals.len() as u64 {
            return Ok(Segment::Globals((addr - GLOBAL_BASE) as usize));
        }
        if addr >= STACK_BASE && end <= STACK_BASE + STACK_SIZE {
            return Ok(Segment::Stack((addr - STACK_BASE) as usize));
        }
        if addr >= HEAP_BASE {
            if self.allocations.iter().any(|a| a.contains_range(addr, len)) {
                return Ok(Segment::Heap);
            }
            return Err(VmError::OutOfBounds { addr, len, write });
        }
        Err(VmError::UnmappedAccess { addr, write })
    }

    /// Stores a little-endian value.
    ///
    /// # Errors
    ///
    /// Returns the out-of-bounds / unmapped error for invalid addresses.
    pub fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), VmError> {
        let len = width.bytes();
        let bytes = &value.to_le_bytes()[..len];
        match self.check_access(addr, len, true)? {
            Segment::Globals(at) => self.globals[at..at + len].copy_from_slice(bytes),
            Segment::Stack(at) => {
                if self.stack.len() < at + len {
                    self.stack.resize(at + len, 0);
                }
                self.stack[at..at + len].copy_from_slice(bytes);
            }
            Segment::Heap => {
                for (i, &byte) in bytes.iter().enumerate() {
                    self.heap.insert(addr + i as u64, byte);
                }
            }
        }
        Ok(())
    }

    /// Loads a little-endian value (unwritten bytes read as zero).
    ///
    /// # Errors
    ///
    /// Returns the out-of-bounds / unmapped error for invalid addresses.
    pub fn load(&self, addr: u64, width: Width) -> Result<u64, VmError> {
        let len = width.bytes();
        let mut bytes = [0u8; 8];
        match self.check_access(addr, len, false)? {
            Segment::Globals(at) => bytes[..len].copy_from_slice(&self.globals[at..at + len]),
            Segment::Stack(at) => {
                let end = (at + len).min(self.stack.len());
                if at < end {
                    bytes[..end - at].copy_from_slice(&self.stack[at..end]);
                }
            }
            Segment::Heap => {
                for (i, byte) in bytes[..len].iter_mut().enumerate() {
                    *byte = self.heap.get(&(addr + i as u64)).copied().unwrap_or(0);
                }
            }
        }
        Ok(u64::from_le_bytes(bytes))
    }

    /// Records the symbolic shadow of a stored value (or clears it).
    ///
    /// Every shadow entry overlapping `[addr, addr + width)` is invalidated
    /// first: a store overwrites those bytes, so a wider entry recorded
    /// earlier would otherwise keep describing memory that no longer holds
    /// its value.  Bytes of an invalidated entry that the store does *not*
    /// overwrite keep their taint as byte-wide entries, so partial aliased
    /// overwrites neither leave stale expressions nor drop taint.
    ///
    /// The first call with an expression creates the shadow memory; until
    /// then a call that clears returns at once.
    pub fn set_shadow(&mut self, addr: u64, width: Width, expr: Option<ExprRef>) {
        if self.shadow.is_none() && expr.is_none() {
            return;
        }
        let globals_size = self.globals.len();
        let shadow = self
            .shadow
            .get_or_insert_with(|| ShadowMemory::new(globals_size));
        let end = addr + width.bytes() as u64;
        // Walking the stored bytes meets every overlapping entry at its first
        // byte in the range, so entries are evicted in ascending start order,
        // which fixes the order their surviving bytes' expressions are
        // interned in.
        let mut at = addr;
        while at < end {
            let Some((start, w, e)) = shadow.entry(at) else {
                at += 1;
                continue;
            };
            let entry_end = start + w.bytes() as u64;
            for byte_addr in start..entry_end {
                let cover = if (addr..end).contains(&byte_addr) {
                    Cover::Clean
                } else {
                    Cover::Start(Width::W8, byte_of(w, e, byte_addr - start))
                };
                shadow.set(byte_addr, cover);
            }
            at = entry_end;
        }
        if let Some(expr) = expr {
            shadow.set(addr, Cover::Start(width, expr));
            for k in 1..width.bytes() as u8 {
                shadow.set(addr + u64::from(k), Cover::Inside(k));
            }
        }
    }

    /// The symbolic shadow of a `width`-byte load at `addr`, reconstructed
    /// byte-accurately.
    ///
    /// A load that exactly matches a recorded store reuses its expression;
    /// otherwise the result is recomposed from the per-byte shadows of every
    /// covering entry, with untainted bytes contributed as the constants
    /// currently in memory.  Returns `None` when no loaded byte is tainted.
    pub fn load_shadow(&self, addr: u64, width: Width) -> Option<ExprRef> {
        let shadow = self.shadow.as_ref()?;
        if let Cover::Start(w, expr) = shadow.get(addr) {
            if w == width {
                return Some(expr);
            }
        }
        let end = addr + width.bytes() as u64;
        if (addr..end).all(|byte_addr| matches!(shadow.get(byte_addr), Cover::Clean)) {
            return None;
        }
        let bytes: Vec<ByteVal> = (addr..end)
            .map(|byte_addr| match shadow.byte(byte_addr) {
                Some(expr) => ByteVal::Sym(expr),
                // An unmapped byte was never written, so it reads 0 too.
                None => ByteVal::Known(self.load(byte_addr, Width::W8).unwrap_or(0) as u8),
            })
            .collect();
        Some(recompose(&bytes, width))
    }

    /// Marks or clears the overflow flag for a stored value.
    pub fn set_overflowed(&mut self, addr: u64, width: Width, overflowed: bool) {
        if !overflowed && self.overflowed_addrs.is_empty() {
            return;
        }
        for i in 0..width.bytes() {
            if overflowed {
                self.overflowed_addrs.insert(addr + i as u64);
            } else {
                self.overflowed_addrs.remove(&(addr + i as u64));
            }
        }
    }

    /// Whether any byte of `[addr, addr+width)` holds an overflowed value.
    pub fn is_overflowed(&self, addr: u64, width: Width) -> bool {
        !self.overflowed_addrs.is_empty()
            && (0..width.bytes()).any(|i| self.overflowed_addrs.contains(&(addr + i as u64)))
    }

    /// Performs a heap allocation of `size` bytes and returns its base
    /// address.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::AllocationTooLarge`] when `size` exceeds `max_size`.
    pub fn allocate(&mut self, size: u64, max_size: u64) -> Result<u64, VmError> {
        if size > max_size {
            return Err(VmError::AllocationTooLarge { requested: size });
        }
        let base = self.heap_top;
        self.heap_top = self
            .heap_top
            .saturating_add(size.max(1))
            .saturating_add(HEAP_GUARD);
        self.allocations.push(Allocation { base, size });
        Ok(base)
    }

    /// Pushes a frame for `function` and returns its base address.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::StackOverflow`] if the stack segment is exhausted.
    pub fn push_frame(
        &mut self,
        function: usize,
        frame_size: usize,
        return_pc: usize,
    ) -> Result<&Frame, VmError> {
        if self.stack_top + frame_size as u64 > STACK_BASE + STACK_SIZE {
            return Err(VmError::StackOverflow);
        }
        let frame_base = self.stack_top;
        self.stack_top += frame_size as u64;
        let invocation = self.next_invocation;
        self.next_invocation += 1;
        self.frames.push(Frame {
            function,
            invocation,
            frame_base,
            return_pc,
            operand_base: self.operands.len(),
        });
        Ok(self.frames.last().expect("frame just pushed"))
    }

    /// Pops the current frame, releasing its stack space.
    pub fn pop_frame(&mut self) -> Option<Frame> {
        let frame = self.frames.pop()?;
        self.stack_top = frame.frame_base;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_symexpr::SymExpr;

    #[test]
    fn store_and_load_round_trip_little_endian() {
        let mut state = MachineState::new(16);
        state.store(GLOBAL_BASE, Width::W32, 0xAABBCCDD).unwrap();
        assert_eq!(state.load(GLOBAL_BASE, Width::W32).unwrap(), 0xAABBCCDD);
        assert_eq!(state.load(GLOBAL_BASE, Width::W8).unwrap(), 0xDD);
        assert_eq!(state.load(GLOBAL_BASE + 3, Width::W8).unwrap(), 0xAA);
    }

    #[test]
    fn global_access_outside_segment_is_unmapped() {
        let mut state = MachineState::new(4);
        assert!(state.store(GLOBAL_BASE + 8, Width::W8, 1).is_err());
        assert!(state.store(0, Width::W8, 1).is_err());
        // A store straddling the segment's end fails whole: no byte lands.
        state.store(GLOBAL_BASE, Width::W32, 0x1122_3344).unwrap();
        let straddle = state.store(GLOBAL_BASE + 2, Width::W32, u64::MAX);
        assert!(matches!(
            straddle,
            Err(VmError::UnmappedAccess { write: true, .. })
        ));
        assert_eq!(state.load(GLOBAL_BASE, Width::W32), Ok(0x1122_3344));
    }

    #[test]
    fn unwritten_bytes_read_zero_in_every_segment() {
        let mut state = MachineState::new(8);
        let frame = state.push_frame(0, 16, 0).unwrap().frame_base;
        let heap = state.allocate(16, u64::MAX).unwrap();
        state.store(frame + 8, Width::W8, 0xFF).unwrap();
        for addr in [GLOBAL_BASE, frame, STACK_BASE + STACK_SIZE - 8, heap] {
            assert_eq!(state.load(addr, Width::W64), Ok(0), "{addr:#x}");
        }
    }

    #[test]
    fn a_huge_allocation_costs_only_the_bytes_written() {
        let mut state = MachineState::new(0);
        let size = 256 << 20;
        let base = state.allocate(size, size).unwrap();
        state.store(base + size - 1, Width::W8, 0xAB).unwrap();
        assert_eq!(state.load(base + size - 1, Width::W8), Ok(0xAB));
        assert_eq!(state.heap.len(), 1);
    }

    #[test]
    fn heap_bounds_are_enforced() {
        let mut state = MachineState::new(0);
        let base = state.allocate(8, u64::MAX).unwrap();
        state.store(base, Width::W64, 42).unwrap();
        let err = state.store(base + 8, Width::W8, 1).unwrap_err();
        assert!(matches!(err, VmError::OutOfBounds { .. }));
        let err = state.load(base + 9, Width::W8).unwrap_err();
        assert!(matches!(err, VmError::OutOfBounds { write: false, .. }));
    }

    #[test]
    fn allocations_are_separated_by_guard_gaps() {
        let mut state = MachineState::new(0);
        let a = state.allocate(4, u64::MAX).unwrap();
        let b = state.allocate(4, u64::MAX).unwrap();
        assert!(b >= a + 4 + HEAP_GUARD);
    }

    #[test]
    fn allocation_size_cap() {
        let mut state = MachineState::new(0);
        assert!(matches!(
            state.allocate(1 << 40, 1 << 30),
            Err(VmError::AllocationTooLarge { .. })
        ));
    }

    #[test]
    fn overflow_flags_track_addresses() {
        let mut state = MachineState::new(16);
        state.set_overflowed(GLOBAL_BASE, Width::W32, true);
        assert!(state.is_overflowed(GLOBAL_BASE + 2, Width::W8));
        assert!(!state.is_overflowed(GLOBAL_BASE + 4, Width::W8));
        state.set_overflowed(GLOBAL_BASE, Width::W32, false);
        assert!(!state.is_overflowed(GLOBAL_BASE, Width::W32));
    }

    #[test]
    fn frames_allocate_and_release_stack_space() {
        let mut state = MachineState::new(0);
        let base1 = {
            let f = state.push_frame(0, 32, 0).unwrap();
            f.frame_base
        };
        let base2 = {
            let f = state.push_frame(1, 16, 5).unwrap();
            f.frame_base
        };
        assert_eq!(base2, base1 + 32);
        state
            .store(base2, Width::W64, 0x0123_4567_89AB_CDEF)
            .unwrap();
        state.pop_frame();
        let base3 = state.push_frame(2, 8, 0).unwrap().frame_base;
        assert_eq!(base3, base2);
        // Popping clears nothing: the new frame sees the old frame's bytes.
        assert_eq!(state.load(base3, Width::W64), Ok(0x0123_4567_89AB_CDEF));
    }

    /// A state with `len` writable bytes at each of three addresses: the
    /// global segment's base, a pushed frame and a heap allocation.  The three
    /// segments keep their shadow covers differently.
    fn state_with_segments(len: usize) -> (MachineState, [u64; 3]) {
        let mut state = MachineState::new(len);
        let frame = state.push_frame(0, len, 0).unwrap().frame_base;
        let heap = state.allocate(len as u64, u64::MAX).unwrap();
        (state, [GLOBAL_BASE, frame, heap])
    }

    #[test]
    fn overlapping_store_invalidates_stale_wider_shadow() {
        use cp_symexpr::eval::eval;
        let (mut state, bases) = state_with_segments(16);
        // A tainted 32-bit store, then an untainted byte store into its
        // second byte: the stale 4-byte expression must not survive, but the
        // three untouched bytes keep their taint.
        let input = [5u8];
        for base in bases {
            state.store(base, Width::W32, 5).unwrap();
            state.set_shadow(
                base,
                Width::W32,
                Some(SymExpr::input_byte(0).zext(Width::W32)),
            );
            state.store(base + 1, Width::W8, 7).unwrap();
            state.set_shadow(base + 1, Width::W8, None);
            // Memory now holds 0x0705; the reconstructed shadow must agree.
            let concrete = state.load(base, Width::W32).unwrap();
            assert_eq!(concrete, 0x0705, "{base:#x}");
            let expr = state
                .load_shadow(base, Width::W32)
                .expect("untouched bytes stay tainted");
            assert_eq!(eval(&expr, &input[..]), concrete, "{base:#x}");
        }
    }

    #[test]
    fn narrow_load_extracts_byte_of_wider_shadow() {
        use cp_symexpr::eval::eval;
        let (mut state, bases) = state_with_segments(16);
        // Store a tainted 16-bit value (b0 << 8 | b1 little-endian layout:
        // byte 0 holds b1's position).  Loading one byte must keep taint.
        let expr = SymExpr::input_byte(0)
            .zext(Width::W16)
            .binop(BinOp::Shl, SymExpr::constant(Width::W16, 8))
            .binop(BinOp::Or, SymExpr::input_byte(1).zext(Width::W16));
        let input = [0x12u8, 0x34];
        for base in bases {
            state.store(base, Width::W16, 0x1234).unwrap();
            state.set_shadow(base, Width::W16, Some(expr));
            let low = state
                .load_shadow(base, Width::W8)
                .expect("low byte stays tainted");
            let high = state
                .load_shadow(base + 1, Width::W8)
                .expect("high byte stays tainted");
            assert_eq!(eval(&low, &input[..]), 0x34, "{base:#x}");
            assert_eq!(eval(&high, &input[..]), 0x12, "{base:#x}");
        }
    }

    #[test]
    fn wide_load_recomposes_tainted_and_concrete_bytes() {
        use cp_symexpr::eval::eval;
        use cp_symexpr::input_support;
        let (mut state, bases) = state_with_segments(16);
        // Byte 0 is symbolic, byte 1 is the concrete 0x00 from memory.
        let input = [0u8, 0, 0, 0, 0, 0x42];
        for base in bases {
            state.store(base, Width::W16, 0x0007).unwrap();
            state.set_shadow(base, Width::W8, Some(SymExpr::input_byte(5)));
            let expr = state
                .load_shadow(base, Width::W16)
                .expect("one tainted byte taints the word");
            assert_eq!(eval(&expr, &input[..]), 0x42, "{base:#x}");
            assert_eq!(
                input_support(&expr).into_iter().collect::<Vec<_>>(),
                vec![5],
                "{base:#x}"
            );
        }
    }

    /// The start-keyed shadow map that byte covers replaced, kept as the
    /// reference [`byte_covers_match_the_start_keyed_reference`] compares
    /// against: entries keyed by their first byte's address, probed over the
    /// eight starts that can cover a byte.
    #[derive(Default)]
    struct StartKeyed {
        entries: HashMap<u64, (Width, ExprRef)>,
    }

    impl StartKeyed {
        fn set_shadow(&mut self, addr: u64, width: Width, expr: Option<ExprRef>) {
            if self.entries.is_empty() && expr.is_none() {
                return;
            }
            let end = addr + width.bytes() as u64;
            // Entries start at most 7 bytes before `addr` (the widest value
            // is 8 bytes), and any entry starting inside the range overlaps.
            let mut evicted: Vec<(u64, Width, ExprRef)> = Vec::new();
            for start in addr.saturating_sub(7)..end {
                if start >= addr {
                    if let Some((w, e)) = self.entries.remove(&start) {
                        evicted.push((start, w, e));
                    }
                    continue;
                }
                if let Some((w, _)) = self.entries.get(&start) {
                    if start + w.bytes() as u64 > addr {
                        let (w, e) = self.entries.remove(&start).expect("entry just probed");
                        evicted.push((start, w, e));
                    }
                }
            }
            // Re-shadow the surviving bytes of evicted entries, byte by byte.
            for (start, w, e) in evicted {
                for offset in 0..w.bytes() as u64 {
                    let byte_addr = start + offset;
                    if (addr..end).contains(&byte_addr) {
                        continue;
                    }
                    let byte = if offset == 0 {
                        e
                    } else {
                        e.binop(BinOp::ShrU, SymExpr::constant(w, 8 * offset))
                    };
                    self.entries
                        .insert(byte_addr, (Width::W8, byte.truncate(Width::W8)));
                }
            }
            if let Some(expr) = expr {
                self.entries.insert(addr, (width, expr));
            }
        }

        fn shadow_byte(&self, addr: u64) -> Option<ExprRef> {
            for start in addr.saturating_sub(7)..=addr {
                let Some((width, expr)) = self.entries.get(&start) else {
                    continue;
                };
                if start + width.bytes() as u64 <= addr {
                    continue;
                }
                let offset = addr - start;
                let byte = if offset == 0 {
                    *expr
                } else {
                    expr.binop(BinOp::ShrU, SymExpr::constant(*width, 8 * offset))
                };
                return Some(byte.truncate(Width::W8));
            }
            None
        }

        /// `memory` supplies the concrete value of every untainted byte.
        fn load_shadow(&self, memory: &MachineState, addr: u64, width: Width) -> Option<ExprRef> {
            if self.entries.is_empty() {
                return None;
            }
            if let Some((w, expr)) = self.entries.get(&addr) {
                if *w == width {
                    return Some(*expr);
                }
            }
            let mut bytes = Vec::with_capacity(width.bytes());
            let mut tainted = false;
            for i in 0..width.bytes() {
                let byte_addr = addr + i as u64;
                match self.shadow_byte(byte_addr) {
                    Some(expr) => {
                        tainted = true;
                        bytes.push(ByteVal::Sym(expr));
                    }
                    None => {
                        let concrete = memory.load(byte_addr, Width::W8).unwrap_or(0);
                        bytes.push(ByteVal::Known(concrete as u8));
                    }
                }
            }
            if tainted {
                Some(recompose(&bytes, width))
            } else {
                None
            }
        }
    }

    #[test]
    fn byte_covers_match_the_start_keyed_reference() {
        use cp_symexpr::eval::eval;
        const WINDOW: u64 = 16;
        const WIDTHS: [Width; 4] = [Width::W8, Width::W16, Width::W32, Width::W64];
        let input: Vec<u8> = (0..8u8).map(|i| i.wrapping_mul(73) ^ 0xA5).collect();
        let (mut state, bases) = state_with_segments(WINDOW as usize);
        let mut reference = StartKeyed::default();
        // SplitMix64 over a fixed seed.
        let mut seed = 0x5EED_u64;
        let mut next = |bound: u64| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for step in 0..800 {
            let base = bases[next(3) as usize];
            let width = WIDTHS[next(4) as usize];
            let addr = base + next(WINDOW - width.bytes() as u64 + 1);
            // Two stores in three carry an expression whose every byte
            // depends on the input, so partial overwrites leave tainted bytes.
            let (value, expr) = if next(3) < 2 {
                let expr = SymExpr::input_byte(next(8) as usize)
                    .zext(width)
                    .binop(BinOp::Mul, SymExpr::constant(width, 0x0101_0101_0101_0101))
                    .binop(
                        BinOp::Xor,
                        SymExpr::input_byte(next(8) as usize).zext(width),
                    );
                (eval(&expr, &input[..]), Some(expr))
            } else {
                (next(u64::MAX), None)
            };
            state.store(addr, width, value).unwrap();
            state.set_shadow(addr, width, expr);
            reference.set_shadow(addr, width, expr);
            for offset in 0..WINDOW {
                for width in WIDTHS {
                    if offset + width.bytes() as u64 > WINDOW {
                        continue;
                    }
                    let at = base + offset;
                    let shadow = state.load_shadow(at, width);
                    assert_eq!(
                        shadow,
                        reference.load_shadow(&state, at, width),
                        "step {step}: {width:?} load at {at:#x}"
                    );
                    if let Some(expr) = shadow {
                        assert_eq!(
                            eval(&expr, &input[..]),
                            state.load(at, width).unwrap(),
                            "step {step}: {width:?} load at {at:#x}"
                        );
                    }
                }
            }
        }
    }
}
