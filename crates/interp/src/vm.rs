//! The interpreter proper.
//!
//! A [`Vm`] lowers each function once, on its first call, into a flat
//! array of ops (a `Code`). Every operand is a slot of the
//! function's frame, resolved ahead of time: instruction results,
//! arguments and constants all live in one register window, so executing
//! an operand is an index, not a `Value` match. Gep strides, cycle costs
//! and external callees are resolved at lowering too, and a block's phis
//! become parallel moves on each CFG edge into it.
//!
//! A register is an 8-byte payload and a one-byte tag (unset, int, f64,
//! ptr, vec); a vector's lanes sit in a side array. Frames share one
//! register stack, and an IR call pushes its caller on an explicit frame
//! stack inside the one interpreter loop, bounded by the stack region's
//! size, so IR recursion never recurses natively.

use crate::machine::{CompilerProfile, MachineConfig};
use splendid_ir::eval::{self, EvalError};
use splendid_ir::{
    BinOp, BlockId, Callee, CastOp, FPred, FuncId, Function, GlobalId, GlobalInit, IPred, InstId,
    InstKind, Module, ReduceOp, Symbol, Type, Value, VecTy,
};
use splendid_parallel::runtime::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A SIMD register: raw lane bits plus the vector type that interprets
/// them. Lanes beyond `ty.lanes` are always zero, so derived equality is
/// well-defined, and float lanes compare by bit pattern (the determinism
/// contract the difftest oracle relies on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VecVal {
    /// Lane payloads, little-lane-first; unused high lanes are zero.
    pub bits: [u64; 8],
    /// The vector type these bits carry.
    pub ty: VecTy,
}

impl VecVal {
    /// All-zero-lane vector of the given type.
    pub fn zero(ty: VecTy) -> VecVal {
        VecVal { bits: [0; 8], ty }
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.ty.lanes as usize
    }

    /// Lane `i` as a float (bit reinterpretation).
    pub fn lane_f64(&self, i: usize) -> f64 {
        f64::from_bits(self.bits[i])
    }

    /// Lane `i` as a sign-extended integer.
    pub fn lane_i64(&self, i: usize) -> i64 {
        self.bits[i] as i64
    }

    /// Set lane `i` from a float.
    pub fn set_f64(&mut self, i: usize, x: f64) {
        self.bits[i] = x.to_bits();
    }

    /// Set lane `i` from an integer.
    pub fn set_i64(&mut self, i: usize, x: i64) {
        self.bits[i] = x as u64;
    }

    /// Lane `i` as an [`RtVal`] of the element type.
    pub fn lane(&self, i: usize) -> RtVal {
        if self.ty.elem.is_float() {
            RtVal::F64(self.lane_f64(i))
        } else {
            RtVal::Int(self.lane_i64(i))
        }
    }

    /// Store an [`RtVal`] into lane `i`, checking the element type.
    pub fn set_lane(&mut self, i: usize, v: RtVal) -> Result<(), ExecError> {
        if self.ty.elem.is_float() {
            self.set_f64(i, v.as_f64()?);
        } else {
            self.set_i64(i, v.as_int()?);
        }
        Ok(())
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Any integer (i1..i64), stored sign-extended.
    Int(i64),
    /// A double.
    F64(f64),
    /// A memory address.
    Ptr(u64),
    /// A SIMD register.
    Vec(VecVal),
}

impl RtVal {
    /// Integer payload or error.
    pub fn as_int(self) -> Result<i64, ExecError> {
        match self {
            RtVal::Int(v) => Ok(v),
            other => Err(ExecError(format!("expected int, got {other:?}"))),
        }
    }

    /// Float payload or error.
    pub fn as_f64(self) -> Result<f64, ExecError> {
        match self {
            RtVal::F64(v) => Ok(v),
            other => Err(ExecError(format!("expected f64, got {other:?}"))),
        }
    }

    /// Pointer payload or error.
    pub fn as_ptr(self) -> Result<u64, ExecError> {
        match self {
            RtVal::Ptr(p) => Ok(p),
            other => Err(ExecError(format!("expected ptr, got {other:?}"))),
        }
    }

    /// Vector payload or error.
    pub fn as_vec(self) -> Result<VecVal, ExecError> {
        match self {
            RtVal::Vec(v) => Ok(v),
            other => Err(ExecError(format!("expected vector, got {other:?}"))),
        }
    }
}

/// Execution error (bad memory, fuel exhaustion, malformed IR, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> ExecError {
        ExecError(e.to_string())
    }
}

const STACK_BASE: u64 = 0x1000;
const STACK_SIZE: u64 = 8 << 20;
/// First address past the stack region; the globals start here.
const STACK_TOP: u64 = STACK_BASE + STACK_SIZE;

/// The address space: accesses below 8 fail, the stack region runs from
/// [`STACK_BASE`] for [`STACK_SIZE`] bytes, and the globals follow it,
/// each 8-byte aligned.
struct Memory {
    /// Bytes `[0, low.len())`: the null page and the stack up to its
    /// high-water mark. The rest of the stack region has never been
    /// written and reads as zero; a store there zero-extends `low`.
    low: Vec<u8>,
    /// Bytes `[STACK_TOP, STACK_TOP + globals.len())`.
    globals: Vec<u8>,
}

impl Memory {
    /// The part that would back `addr` and the offset into it (the
    /// globals from [`STACK_TOP`] on, else the stack).
    #[inline(always)]
    fn part(&self, addr: u64) -> (&[u8], u64) {
        match addr.checked_sub(STACK_TOP) {
            Some(off) => (&self.globals, off),
            None => (&self.low, addr),
        }
    }

    #[inline(always)]
    fn read<const N: usize>(&self, addr: u64) -> Result<[u8; N], ExecError> {
        let (part, off) = self.part(addr);
        let bytes = usize::try_from(off).ok().and_then(|off| part.get(off..));
        match bytes.and_then(|b| b.first_chunk::<N>()) {
            Some(b) if addr >= 8 => Ok(*b),
            _ => self.read_unbacked(addr),
        }
    }

    #[inline(always)]
    fn write<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Result<(), ExecError> {
        let (part, off) = match addr.checked_sub(STACK_TOP) {
            Some(off) => (&mut self.globals, off),
            None => (&mut self.low, addr),
        };
        let backed = usize::try_from(off)
            .ok()
            .and_then(|off| part.get_mut(off..));
        match backed.and_then(|b| b.first_chunk_mut::<N>()) {
            Some(b) if addr >= 8 => {
                *b = bytes;
                Ok(())
            }
            _ => self.write_unbacked(addr, bytes),
        }
    }

    /// Bounds check of the whole address space.
    fn check(&self, addr: u64, size: u64) -> Result<(), ExecError> {
        let end = addr
            .checked_add(size)
            .ok_or_else(|| ExecError("address overflow".into()))?;
        if addr < 8 || end > STACK_TOP + self.globals.len() as u64 {
            return Err(ExecError(format!(
                "out-of-bounds access at {addr:#x} (+{size})"
            )));
        }
        Ok(())
    }

    /// An access that is out of bounds, above the stack's high-water
    /// mark, or straddles the stack's end and the first global.
    #[cold]
    fn read_unbacked<const N: usize>(&self, addr: u64) -> Result<[u8; N], ExecError> {
        self.check(addr, N as u64)?;
        let mut out = [0u8; N];
        for (a, b) in (addr..).zip(&mut out) {
            *b = match a.checked_sub(STACK_TOP) {
                Some(off) => self.globals[off as usize],
                None => self.low.get(a as usize).copied().unwrap_or(0),
            };
        }
        Ok(out)
    }

    #[cold]
    fn write_unbacked<const N: usize>(
        &mut self,
        addr: u64,
        bytes: [u8; N],
    ) -> Result<(), ExecError> {
        self.check(addr, N as u64)?;
        let low_end = (addr + N as u64).min(STACK_TOP) as usize;
        if addr < STACK_TOP && low_end > self.low.len() {
            self.low.resize(low_end, 0);
        }
        for (a, b) in (addr..).zip(bytes) {
            match a.checked_sub(STACK_TOP) {
                Some(off) => self.globals[off as usize] = b,
                None => self.low[a as usize] = b,
            }
        }
        Ok(())
    }

    /// Zero `[base, end)` of the stack region, backing it if needed.
    fn zero_stack(&mut self, base: u64, end: u64) {
        let (base, end) = (base as usize, end as usize);
        let backed = self.low.len();
        self.low[base.min(backed)..end.min(backed)].fill(0);
        if end > backed {
            self.low.resize(end, 0);
        }
    }

    fn load_u64(&self, addr: u64) -> Result<u64, ExecError> {
        self.read(addr).map(u64::from_le_bytes)
    }

    fn store_u64(&mut self, addr: u64, v: u64) -> Result<(), ExecError> {
        self.write(addr, v.to_le_bytes())
    }
}

/// Frame-slot index, relative to the frame's base on the register stack.
type Slot = u32;

/// What a register holds. Its payload's meaning follows from the tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    Unset,
    Int,
    F64,
    Ptr,
    /// The payload is the register's own index on the register stack,
    /// which is also where its lanes sit in `Vm::lanes`.
    Vec,
}

/// One register: an 8-byte payload and the tag saying what it holds.
#[derive(Clone, Copy, Debug)]
struct Reg {
    bits: u64,
    tag: Tag,
}

impl Reg {
    const UNSET: Reg = Reg {
        bits: 0,
        tag: Tag::Unset,
    };

    /// The register of a scalar (vectors live in the lane array).
    fn scalar(v: RtVal) -> Reg {
        let (tag, bits) = match v {
            RtVal::Int(x) => (Tag::Int, x as u64),
            RtVal::F64(x) => (Tag::F64, x.to_bits()),
            RtVal::Ptr(p) => (Tag::Ptr, p),
            RtVal::Vec(_) => unreachable!("vectors are stored through Vm::put_vec"),
        };
        Reg { bits, tag }
    }
}

/// No slot: a `ret void`, or a phi with no incoming value on an edge.
const NO_SLOT: Slot = Slot::MAX;

/// One lowered operation: what it does, where its result goes and the
/// cycles it charges. Half a cache line: sizes and the externals' data
/// are narrowed or kept beside the ops so that [`Kind`] stays 16 bytes.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    /// The result's slot (an op without a result never writes it).
    dst: Slot,
    cost: u64,
}

impl Op {
    fn fail(failure: Failure) -> Op {
        Op {
            kind: Kind::Fail(failure),
            dst: NO_SLOT,
            cost: 0,
        }
    }
}

/// What an op does. Operands are frame slots.
#[derive(Clone, Copy, Debug)]
enum Kind {
    IntBin {
        op: BinOp,
        ty: Type,
        a: Slot,
        b: Slot,
    },
    FloatBin {
        op: BinOp,
        a: Slot,
        b: Slot,
    },
    VecBin {
        op: BinOp,
        vt: VecTy,
        a: Slot,
        b: Slot,
    },
    ICmp {
        pred: IPred,
        a: Slot,
        b: Slot,
    },
    FCmp {
        pred: FPred,
        a: Slot,
        b: Slot,
    },
    /// A size past `u32::MAX` is kept as `u32::MAX`: it overflows the
    /// stack either way.
    Alloca {
        size: u32,
    },
    /// An 8-byte scalar load (`f64`, `ptr`, `i64`) of a `tag` value.
    LoadWord {
        tag: Tag,
        ptr: Slot,
    },
    /// Any other load: `i32`, `i8`, `i1` or a vector.
    Load {
        ty: Type,
        ptr: Slot,
        size: u32,
    },
    /// An 8-byte scalar store of a `ty` value, which must be tagged `tag`.
    StoreWord {
        ty: Type,
        tag: Tag,
        val: Slot,
        ptr: Slot,
    },
    /// Any other store: `i32`, `i8`, `i1`, a vector, or a void operand.
    Store {
        ty: Type,
        val: Slot,
        ptr: Slot,
        size: u32,
    },
    /// Indices and strides are `Code::geps[first..first + len]`.
    Gep {
        ptr: Slot,
        first: u32,
        len: u32,
    },
    Bitcast {
        src: Slot,
    },
    SiToFp {
        src: Slot,
    },
    FpToSi {
        ty: Type,
        src: Slot,
    },
    IntCast {
        op: CastOp,
        from: Type,
        to: Type,
        src: Slot,
    },
    VecCast {
        op: CastOp,
        vt: VecTy,
        src: Slot,
    },
    Select {
        cond: Slot,
        then_val: Slot,
        else_val: Slot,
    },
    /// Arguments are `Code::lists[first..first + len]`.
    Call {
        callee: FuncId,
        first: u32,
        len: u32,
    },
    /// The callee is `Code::externals[ext]`.
    External {
        ext: u32,
        first: u32,
        len: u32,
    },
    Splat {
        vt: VecTy,
        src: Slot,
    },
    ExtractLane {
        lane: u8,
        vec: Slot,
    },
    InsertLane {
        lane: u8,
        vec: Slot,
        val: Slot,
    },
    /// Charges `cost * lanes / 2`.
    Reduce {
        op: ReduceOp,
        acc: Slot,
        vec: Slot,
    },
    Br {
        edge: u32,
    },
    CondBr {
        cond: Slot,
        then_edge: u32,
        else_edge: u32,
    },
    Ret {
        val: Slot,
    },
    Fail(Failure),
}

const _: () = assert!(std::mem::size_of::<Op>() == 32);

/// An external callee, resolved from its name at lowering.
#[derive(Clone, Copy, Debug)]
enum External {
    Math(&'static str, fn(f64) -> f64),
    Pow,
    /// The outlined region, if the first operand names a function.
    Fork(Option<FuncId>),
    StaticInit,
    StaticFini,
    Barrier,
    /// The decompiler's pragma and simd markers are metadata; executing
    /// a detransformed (pre-emission) module treats them as free.
    Marker,
    Unknown(Symbol),
}

impl External {
    fn resolve(module: &Module, name: Symbol, first_arg: Option<Value>) -> External {
        match module.name_of(name) {
            "exp" => External::Math("exp", f64::exp),
            "sqrt" => External::Math("sqrt", f64::sqrt),
            "fabs" => External::Math("fabs", f64::abs),
            "log" => External::Math("log", f64::ln),
            "sin" => External::Math("sin", f64::sin),
            "cos" => External::Math("cos", f64::cos),
            "floor" => External::Math("floor", f64::floor),
            "pow" => External::Pow,
            KMPC_FORK_CALL | GOMP_PARALLEL => External::Fork(match first_arg {
                Some(Value::Function(region)) => Some(region),
                _ => None,
            }),
            KMPC_FOR_STATIC_INIT | GOMP_LOOP_STATIC_BOUNDS => External::StaticInit,
            KMPC_FOR_STATIC_FINI => External::StaticFini,
            KMPC_BARRIER | GOMP_BARRIER => External::Barrier,
            "splendid.omp.mark" | "splendid.simd.mark" => External::Marker,
            _ => External::Unknown(name),
        }
    }

    /// Cycles the call charges.
    fn cost(self, config: &MachineConfig) -> u64 {
        match self {
            External::Math(..) | External::Pow => config.profile.mathfn_cost,
            External::StaticInit | External::StaticFini => config.sched_overhead,
            External::Barrier => config.barrier_overhead,
            External::Fork(_) | External::Marker | External::Unknown(_) => 0,
        }
    }
}

/// An op that stops execution.
#[derive(Clone, Copy, Debug)]
enum Failure {
    Unreachable,
    FellThrough(BlockId),
    PhiInEntry,
    SplatToScalar,
    /// IR the verifier rejects and the interpreter cannot run at all.
    MissingBlock,
    VoidLoad,
    VoidStore,
    ExtraGepIndex,
}

/// A CFG edge: where it lands and the phi moves it performs.
#[derive(Clone, Copy, Debug)]
struct Edge {
    pc: u32,
    from: BlockId,
    /// Moves are `Code::moves[first..first + len]`.
    first: u32,
    len: u32,
}

/// One phi of the edge's target: `dst` takes `src`'s value, or the edge
/// has no incoming value for it if `src` is [`NO_SLOT`].
#[derive(Clone, Copy, Debug)]
struct Move {
    dst: Slot,
    src: Slot,
}

/// A function lowered for one VM.
///
/// Frame layout: slot `i` holds instruction `i`'s result, the parameters
/// follow, then the constants, then operands that name nothing (an
/// out-of-range argument or instruction). Only instruction slots are
/// ever written.
#[derive(Debug)]
struct Code {
    ops: Vec<Op>,
    entry: u32,
    /// Initial frame: scalar constants set, every other slot unset.
    frame: Vec<Reg>,
    /// The vector constants (typed-zero `undef`s), set on frame entry.
    vec_consts: Vec<(Slot, VecVal)>,
    /// Number of instruction slots; the parameters start here.
    insts: u32,
    /// The dangling operands, by slot.
    dangling: Vec<(Slot, Value)>,
    edges: Vec<Edge>,
    moves: Vec<Move>,
    /// Call and external argument slots.
    lists: Vec<Slot>,
    /// Gep index slots and their byte strides.
    geps: Vec<(Slot, i64)>,
    externals: Vec<External>,
}

impl Code {
    /// The error for reading slot `s` before it was written.
    #[cold]
    #[inline(never)]
    fn unset(&self, s: Slot) -> ExecError {
        if s < self.insts {
            return ExecError(format!("use of unset value {}", InstId(s)));
        }
        match self.dangling.iter().find(|(d, _)| *d == s) {
            Some((_, Value::Arg(a))) => ExecError(format!("argument ${a} out of range")),
            Some((_, v)) => panic!("operand {v:?} names nothing in this function"),
            None => unreachable!("slot {s} is always set"),
        }
    }
}

/// Lowers one function into [`Code`].
struct Lowering<'a> {
    module: &'a Module,
    f: &'a Function,
    global_base: &'a [u64],
    config: &'a MachineConfig,
    code: Code,
    slots: HashMap<Value, Slot>,
    /// Target block of each edge, for patching `Edge::pc`.
    edge_targets: Vec<BlockId>,
}

impl<'a> Lowering<'a> {
    fn lower(module: &Module, fid: FuncId, global_base: &[u64], config: &MachineConfig) -> Code {
        let f = module.func(fid);
        let insts = f.insts.len() as u32;
        let frame = vec![Reg::UNSET; f.insts.len() + f.params.len()];
        let mut l = Lowering {
            module,
            f,
            global_base,
            config,
            code: Code {
                ops: Vec::new(),
                entry: 0,
                frame,
                vec_consts: Vec::new(),
                insts,
                dangling: Vec::new(),
                edges: Vec::new(),
                moves: Vec::new(),
                lists: Vec::new(),
                geps: Vec::new(),
                externals: Vec::new(),
            },
            slots: HashMap::new(),
            edge_targets: Vec::new(),
        };
        let mut block_pc = Vec::with_capacity(f.blocks.len());
        for b in f.block_ids() {
            block_pc.push(l.code.ops.len() as u32);
            l.block(b);
        }
        let malformed = l.code.ops.len() as u32;
        l.code.ops.push(Op::fail(Failure::MissingBlock));
        let pc_of = |b: BlockId| block_pc.get(b.index()).copied().unwrap_or(malformed);
        for (e, to) in l.code.edges.iter_mut().zip(&l.edge_targets) {
            e.pc = pc_of(*to);
        }
        l.code.entry = if l.leading_phis(f.entry).next().is_some() {
            l.code.ops.push(Op::fail(Failure::PhiInEntry));
            l.code.ops.len() as u32 - 1
        } else {
            pc_of(f.entry)
        };
        l.code
    }

    /// The phis a block starts with: the ones its entry evaluates.
    fn leading_phis(&self, b: BlockId) -> impl Iterator<Item = (InstId, &'a [(BlockId, Value)])> {
        let f = self.f;
        let insts = f.blocks.get(b.index()).map_or(&[][..], |bl| &bl.insts[..]);
        insts.iter().map_while(move |&i| match &f.inst(i).kind {
            InstKind::Phi { incomings } => Some((i, &incomings[..])),
            _ => None,
        })
    }

    /// Lower a block's instructions up to its first terminator; phis
    /// become moves on the edges into it.
    fn block(&mut self, b: BlockId) {
        let f = self.f;
        for &i in &f.block(b).insts {
            let terminator = f.inst(i).kind.is_terminator();
            self.inst(b, i);
            if terminator {
                return;
            }
        }
        self.code.ops.push(Op::fail(Failure::FellThrough(b)));
    }

    /// The slot holding `v`.
    fn slot(&mut self, v: Value) -> Slot {
        let insts = self.code.insts;
        match v {
            Value::Inst(i) if i.0 < insts => return i.0,
            Value::Arg(a) if (a as usize) < self.f.params.len() => return insts + a,
            _ => {}
        }
        if let Some(&s) = self.slots.get(&v) {
            return s;
        }
        let s = self.code.frame.len() as Slot;
        let init = match v {
            Value::ConstInt { val, .. } => Some(RtVal::Int(val)),
            Value::ConstF64(bits) => Some(RtVal::F64(f64::from_bits(bits))),
            Value::Global(g) => self.global_base.get(g.index()).map(|&a| RtVal::Ptr(a)),
            Value::Function(f) => Some(RtVal::Int(f.0 as i64)), // function token
            Value::Undef(ty) => Some(match ty {
                Type::F64 => RtVal::F64(0.0),
                Type::Ptr => RtVal::Ptr(0),
                Type::Vec(v) => RtVal::Vec(VecVal::zero(v)),
                _ => RtVal::Int(0),
            }),
            Value::Inst(_) | Value::Arg(_) => None,
        };
        let reg = match init {
            Some(RtVal::Vec(x)) => {
                self.code.vec_consts.push((s, x));
                Reg::UNSET
            }
            Some(v) => Reg::scalar(v),
            None => {
                self.code.dangling.push((s, v));
                Reg::UNSET
            }
        };
        self.code.frame.push(reg);
        self.slots.insert(v, s);
        s
    }

    /// The static type of `v`, or `Void` for an operand that names
    /// nothing (executing it fails before its type matters).
    fn type_of(&self, v: Value) -> Type {
        match v {
            Value::Inst(i) if i.index() >= self.f.insts.len() => Type::Void,
            Value::Arg(a) if a as usize >= self.f.params.len() => Type::Void,
            v => self.f.value_type(v),
        }
    }

    fn list(&mut self, vals: &[Value]) -> (u32, u32) {
        let first = self.code.lists.len() as u32;
        for &v in vals {
            let s = self.slot(v);
            self.code.lists.push(s);
        }
        (first, vals.len() as u32)
    }

    fn edge(&mut self, from: BlockId, to: BlockId) -> u32 {
        let first = self.code.moves.len() as u32;
        let phis: Vec<_> = self.leading_phis(to).collect();
        for (phi, incomings) in phis {
            let src = match incomings.iter().find(|(b, _)| *b == from) {
                Some(&(_, v)) => self.slot(v),
                None => NO_SLOT,
            };
            self.code.moves.push(Move { dst: phi.0, src });
        }
        let len = self.code.moves.len() as u32 - first;
        self.code.edges.push(Edge {
            pc: 0,
            from,
            first,
            len,
        });
        self.edge_targets.push(to);
        self.code.edges.len() as u32 - 1
    }

    fn inst(&mut self, b: BlockId, i: InstId) {
        let prof = self.config.profile;
        let inst = self.f.inst(i);
        let (kind, cost) = match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                let (a, b) = (self.slot(*lhs), self.slot(*rhs));
                let fdiv = *op == BinOp::FDiv;
                match inst.ty {
                    Type::Vec(vt) => {
                        let cost = if fdiv {
                            prof.fdiv_cost
                        } else {
                            prof.vec_op_cost
                        };
                        (Kind::VecBin { op: *op, vt, a, b }, cost)
                    }
                    _ if op.is_float() => {
                        let cost = if fdiv { prof.fdiv_cost } else { prof.flop_cost };
                        (Kind::FloatBin { op: *op, a, b }, cost)
                    }
                    ty => (Kind::IntBin { op: *op, ty, a, b }, prof.int_cost),
                }
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let (a, b) = (self.slot(*lhs), self.slot(*rhs));
                (Kind::ICmp { pred: *pred, a, b }, prof.int_cost)
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                let (a, b) = (self.slot(*lhs), self.slot(*rhs));
                (Kind::FCmp { pred: *pred, a, b }, prof.flop_cost)
            }
            InstKind::Alloca { mem } => {
                let size = ((mem.size_bytes() + 7) & !7).min(u32::MAX.into()) as u32;
                (Kind::Alloca { size }, prof.int_cost)
            }
            InstKind::Load { ptr } => match inst.ty {
                Type::Void => (Kind::Fail(Failure::VoidLoad), 0),
                ty => {
                    let (ptr, size) = (self.slot(*ptr), ty.size_bytes() as u32);
                    let load = match word_tag(ty) {
                        Some(tag) => Kind::LoadWord { tag, ptr },
                        None => Kind::Load { ty, ptr, size },
                    };
                    (load, mem_cost(prof, ty))
                }
            },
            InstKind::Store { val, ptr } => match self.type_of(*val) {
                // A void instruction's slot is never set, so storing one
                // fails when its operand is read.
                Type::Void if !matches!(val, Value::Inst(_) | Value::Arg(_)) => {
                    (Kind::Fail(Failure::VoidStore), 0)
                }
                ty => {
                    let (ptr, val) = (self.slot(*ptr), self.slot(*val));
                    let size = if ty == Type::Void {
                        0
                    } else {
                        ty.size_bytes() as u32
                    };
                    let store = match word_tag(ty) {
                        Some(tag) => Kind::StoreWord { ty, tag, val, ptr },
                        None => Kind::Store { ty, val, ptr, size },
                    };
                    (store, mem_cost(prof, ty))
                }
            },
            InstKind::Gep {
                elem,
                base,
                indices,
            } => {
                let strides = elem.gep_strides();
                if indices.len() > strides.len() {
                    (Kind::Fail(Failure::ExtraGepIndex), 0)
                } else {
                    let first = self.code.geps.len() as u32;
                    for (idx, stride) in indices.iter().zip(strides) {
                        let s = self.slot(*idx);
                        self.code.geps.push((s, stride as i64));
                    }
                    let (ptr, len) = (self.slot(*base), indices.len() as u32);
                    (Kind::Gep { ptr, first, len }, prof.int_cost)
                }
            }
            InstKind::Cast { op, val } => {
                let src = self.slot(*val);
                let kind = match (inst.ty, op) {
                    (Type::Vec(vt), _) => Kind::VecCast { op: *op, vt, src },
                    (_, CastOp::Bitcast) => Kind::Bitcast { src },
                    (_, CastOp::SiToFp) => Kind::SiToFp { src },
                    (ty, CastOp::FpToSi) => Kind::FpToSi { ty, src },
                    (to, CastOp::Sext | CastOp::Zext | CastOp::Trunc) => {
                        let from = self.type_of(*val);
                        Kind::IntCast {
                            op: *op,
                            from,
                            to,
                            src,
                        }
                    }
                };
                let vector = inst.ty.is_vector();
                (
                    kind,
                    if vector {
                        prof.vec_op_cost
                    } else {
                        prof.int_cost
                    },
                )
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                let cond = self.slot(*cond);
                let (then_val, else_val) = (self.slot(*then_val), self.slot(*else_val));
                let select = Kind::Select {
                    cond,
                    then_val,
                    else_val,
                };
                (select, prof.int_cost)
            }
            InstKind::Call { callee, args } => {
                let (first, len) = self.list(args);
                match callee {
                    Callee::Func(callee) => {
                        let callee = *callee;
                        (Kind::Call { callee, first, len }, prof.call_cost)
                    }
                    Callee::External(name) => {
                        let ext = External::resolve(self.module, *name, args.first().copied());
                        let cost = ext.cost(self.config);
                        self.code.externals.push(ext);
                        let ext = self.code.externals.len() as u32 - 1;
                        (Kind::External { ext, first, len }, cost)
                    }
                }
            }
            InstKind::Splat { val } => match inst.ty.vec_ty() {
                Some(vt) => {
                    let src = self.slot(*val);
                    (Kind::Splat { vt, src }, prof.vec_shuffle_cost)
                }
                None => (Kind::Fail(Failure::SplatToScalar), 0),
            },
            InstKind::ExtractLane { vec, lane } => {
                let vec = self.slot(*vec);
                (
                    Kind::ExtractLane { lane: *lane, vec },
                    prof.vec_shuffle_cost,
                )
            }
            InstKind::InsertLane { vec, val, lane } => {
                let (vec, val) = (self.slot(*vec), self.slot(*val));
                let insert = Kind::InsertLane {
                    lane: *lane,
                    vec,
                    val,
                };
                (insert, prof.vec_shuffle_cost)
            }
            InstKind::Reduce { op, acc, vec } => {
                let (acc, vec) = (self.slot(*acc), self.slot(*vec));
                (Kind::Reduce { op: *op, acc, vec }, prof.vec_shuffle_cost)
            }
            InstKind::Br { target } => {
                let edge = self.edge(b, *target);
                (Kind::Br { edge }, prof.branch_cost)
            }
            InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let cond = self.slot(*cond);
                let then_edge = self.edge(b, *then_bb);
                let else_edge = self.edge(b, *else_bb);
                let br = Kind::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                };
                (br, prof.branch_cost)
            }
            InstKind::Ret { val } => {
                let val = val.map_or(NO_SLOT, |v| self.slot(v));
                (Kind::Ret { val }, 0)
            }
            InstKind::Unreachable => (Kind::Fail(Failure::Unreachable), 0),
            // Phis are edge moves; debug intrinsics are free.
            InstKind::Phi { .. } | InstKind::DbgValue { .. } | InstKind::Nop => return,
        };
        self.code.ops.push(Op {
            kind,
            dst: i.0,
            cost,
        });
    }
}

/// The tag of an 8-byte scalar type's values.
fn word_tag(ty: Type) -> Option<Tag> {
    match ty {
        Type::F64 => Some(Tag::F64),
        Type::Ptr => Some(Tag::Ptr),
        Type::I64 => Some(Tag::Int),
        _ => None,
    }
}

fn malformed(what: &str) -> ! {
    panic!("malformed IR: {what}")
}

fn mem_cost(prof: CompilerProfile, ty: Type) -> u64 {
    if ty.is_vector() {
        prof.vec_mem_cost
    } else {
        prof.mem_cost
    }
}

/// A caller suspended by a call on the frame stack.
#[derive(Debug)]
struct Caller {
    code: Arc<Code>,
    /// The caller's next op.
    pc: usize,
    fp: usize,
    /// The caller's slot for the callee's result.
    dst: Slot,
    /// The stack pointer on entry to the callee, restored when it returns.
    sp: u64,
}

/// What every op charges: cycles, memory traffic and fuel.
#[derive(Clone, Copy, Debug)]
struct Meter {
    /// Cycle accumulator (cost model).
    cycles: u64,
    /// Bytes moved by loads/stores (for the bandwidth ceiling).
    bytes: u64,
    /// Remaining fuel: every op charged takes one unit.
    fuel: u64,
    /// Ops charged once the fuel was gone, each failing.
    overdrawn: u64,
}

impl Meter {
    #[inline(always)]
    fn tick(&mut self, cost: u64) -> Result<(), ExecError> {
        self.cycles += cost;
        if self.fuel == 0 {
            self.overdrawn += 1;
            return Err(ExecError("fuel exhausted".into()));
        }
        self.fuel -= 1;
        Ok(())
    }
}

/// The virtual machine: module + flat memory + cost counters.
pub struct Vm<'m> {
    module: &'m Module,
    config: MachineConfig,
    mem: Memory,
    /// Stack bump pointer.
    sp: u64,
    /// Base address of each global, indexed by [`GlobalId`].
    global_base: Vec<u64>,
    /// Each function's lowered code, by [`FuncId`], once it was called.
    code: Vec<Option<Arc<Code>>>,
    /// Every active frame's registers, innermost last.
    regs: Vec<Reg>,
    /// The lanes of a vector register, at the register's own index;
    /// grown on the first vector stored that high, cut back with the
    /// register stack when a frame is popped.
    lanes: Vec<VecVal>,
    /// Every suspended caller, innermost last.
    callers: Vec<Caller>,
    /// Phi values of the edge being taken, reused across edges.
    phis: Phis,
    /// Argument values of the external call being made.
    ext_args: Vec<RtVal>,
    meter: Meter,
    /// Whether we are inside a parallel region (nested forks are an error).
    in_parallel: bool,
}

impl<'m> Vm<'m> {
    /// Create a VM for `module`: allocates and initializes globals. No
    /// function is lowered until it is called.
    pub fn new(module: &'m Module, config: MachineConfig) -> Vm<'m> {
        let mut global_base = Vec::with_capacity(module.globals.len());
        let mut top = STACK_TOP;
        for g in &module.globals {
            global_base.push(top);
            top += (g.mem.size_bytes() + 7) & !7;
        }
        let mut globals = vec![0u8; (top - STACK_TOP) as usize];
        for (g, &base) in module.globals.iter().zip(&global_base) {
            if let GlobalInit::SplatF64(x) = g.init {
                let off = (base - STACK_TOP) as usize;
                let words = globals[off..].chunks_exact_mut(8);
                for w in words.take(g.mem.num_elems() as usize) {
                    w.copy_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
        let fuel = config.fuel;
        Vm {
            module,
            config,
            mem: Memory {
                low: Vec::new(),
                globals,
            },
            sp: STACK_BASE,
            global_base,
            code: vec![None; module.functions.len()],
            regs: Vec::new(),
            lanes: Vec::new(),
            callers: Vec::new(),
            phis: Phis::default(),
            ext_args: Vec::new(),
            meter: Meter {
                cycles: 0,
                bytes: 0,
                fuel,
                overdrawn: 0,
            },
            in_parallel: false,
        }
    }

    /// Accumulated cycle count.
    pub fn cycles(&self) -> u64 {
        self.meter.cycles
    }

    /// Number of instructions interpreted.
    pub fn insts_executed(&self) -> u64 {
        self.config.fuel - self.meter.fuel + self.meter.overdrawn
    }

    /// The global named `name`. Of two globals with one name the later
    /// wins, as it does for `@name` in the IR parser.
    fn global_id(&self, name: &str) -> Result<GlobalId, ExecError> {
        let sym = self.module.symbols.lookup(name);
        self.module
            .globals
            .iter()
            .rposition(|g| Some(g.name) == sym)
            .map(|i| GlobalId(i as u32))
            .ok_or_else(|| ExecError(format!("unknown global '{name}'")))
    }

    /// Base address of a global.
    pub fn global_addr(&self, name: &str) -> Result<u64, ExecError> {
        Ok(self.global_base[self.global_id(name)?.index()])
    }

    /// Read the `idx`-th f64 element of a global array.
    pub fn read_global_f64(&self, name: &str, idx: u64) -> Result<f64, ExecError> {
        let base = self.global_addr(name)?;
        Ok(f64::from_bits(self.mem.load_u64(base + idx * 8)?))
    }

    /// Overwrite the `idx`-th f64 element of a global array.
    pub fn write_global_f64(&mut self, name: &str, idx: u64, value: f64) -> Result<(), ExecError> {
        let base = self.global_addr(name)?;
        self.mem.store_u64(base + idx * 8, value.to_bits())
    }

    /// Fill `out` with the 8-byte words from global `g`'s address on:
    /// `out[k]` holds the bits `read_global_f64` reads for element `k`.
    /// On failure, the index of the first unreadable word and its error.
    pub fn read_global_words(
        &self,
        g: GlobalId,
        out: &mut [u64],
    ) -> Result<(), (usize, ExecError)> {
        let base = self.global_base[g.index()];
        let off = (base - STACK_TOP) as usize;
        match self.mem.globals.get(off..off + 8 * out.len()) {
            Some(bytes) => {
                for (w, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                    *w = u64::from_le_bytes(b.try_into().unwrap_or([0; 8]));
                }
            }
            None => {
                for (k, w) in out.iter_mut().enumerate() {
                    *w = self.mem.load_u64(base + k as u64 * 8).map_err(|e| (k, e))?;
                }
            }
        }
        Ok(())
    }

    /// Write `words` from global `g`'s address on, as `write_global_f64`
    /// writes element `k` for `words[k]`, stopping at the first failure.
    ///
    /// The translation validator uses this to drive both the source VM
    /// and the re-lowered VM into the same seeded initial state before a
    /// lockstep probe run.
    pub fn write_global_words(&mut self, g: GlobalId, words: &[u64]) -> Result<(), ExecError> {
        let base = self.global_base[g.index()];
        let off = (base - STACK_TOP) as usize;
        match self.mem.globals.get_mut(off..off + 8 * words.len()) {
            Some(bytes) => {
                for (b, w) in bytes.chunks_exact_mut(8).zip(words) {
                    b.copy_from_slice(&w.to_le_bytes());
                }
            }
            None => {
                for (k, w) in words.iter().enumerate() {
                    self.mem.store_u64(base + k as u64 * 8, *w)?;
                }
            }
        }
        Ok(())
    }

    /// Order-independent-ish checksum over every f64 element of a global:
    /// `Σ value_k * (k mod 31 + 1)` — position-sensitive so swapped
    /// elements are detected.
    pub fn checksum_global(&self, name: &str) -> Result<f64, ExecError> {
        self.checksum(self.global_id(name)?)
    }

    fn checksum(&self, g: GlobalId) -> Result<f64, ExecError> {
        let base = self.global_base[g.index()];
        let mut sum = 0.0;
        for k in 0..self.module.globals[g.index()].mem.num_elems() {
            let v = f64::from_bits(self.mem.load_u64(base + k * 8)?);
            sum += v * ((k % 31) as f64 + 1.0);
        }
        Ok(sum)
    }

    /// Checksum over every global in the module.
    pub fn checksum_all(&self) -> Result<f64, ExecError> {
        let mut sum = 0.0;
        for g in 0..self.module.globals.len() {
            sum += self.checksum(GlobalId(g as u32))?;
        }
        Ok(sum)
    }

    /// Call a function by name.
    pub fn call_by_name(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, ExecError> {
        let fid = self
            .module
            .func_by_name(name)
            .ok_or_else(|| ExecError(format!("unknown function '{name}'")))?;
        self.call(fid, args)
    }

    /// Call a function by id.
    pub fn call(&mut self, fid: FuncId, args: &[RtVal]) -> Result<Option<RtVal>, ExecError> {
        self.invoke(fid, args)
    }

    /// `fid`'s code, lowered on its first call.
    fn code(&mut self, fid: FuncId) -> Arc<Code> {
        let (module, globals, config) = (self.module, &self.global_base, &self.config);
        self.code[fid.index()]
            .get_or_insert_with(|| Arc::new(Lowering::lower(module, fid, globals, config)))
            .clone()
    }

    /// Run `fid` on `args` in a new frame, then pop everything the run
    /// pushed, whether it returned or failed.
    fn invoke(&mut self, fid: FuncId, args: &[RtVal]) -> Result<Option<RtVal>, ExecError> {
        let (fp, base, sp) = (self.regs.len(), self.callers.len(), self.sp);
        let result = self.enter(fid, args.len()).and_then(|code| {
            let params = fp + code.insts as usize;
            for (k, &v) in args.iter().enumerate() {
                put(&mut self.regs, &mut self.lanes, params + k, v);
            }
            self.run(code, fp, base)
        });
        self.callers.truncate(base);
        self.regs.truncate(fp);
        self.lanes.truncate(fp);
        self.sp = sp;
        result
    }

    /// Push `fid`'s frame template on the register stack, for a call with
    /// `args` arguments. The register stack with the callee's frame, the
    /// lanes of the vector registers below it and the frame stack together
    /// may hold as many bytes as the stack region, so unbounded IR
    /// recursion ends in `stack overflow` as a too-deep chain of allocas
    /// does.
    fn enter(&mut self, fid: FuncId, args: usize) -> Result<Arc<Code>, ExecError> {
        let f = self.module.func(fid);
        if f.params.len() != args {
            return Err(ExecError(format!(
                "call to @{} with {} args, expected {}",
                self.module.name_of(f.name),
                args,
                f.params.len()
            )));
        }
        let code = self.code(fid);
        let fp = self.regs.len();
        let bytes = (fp + code.frame.len()) * std::mem::size_of::<Reg>()
            + self.lanes.len() * std::mem::size_of::<VecVal>()
            + self.callers.len() * std::mem::size_of::<Caller>();
        if bytes as u64 > STACK_SIZE {
            return Err(ExecError("stack overflow".into()));
        }
        self.regs.extend_from_slice(&code.frame);
        for &(s, v) in &code.vec_consts {
            put_vec(&mut self.regs, &mut self.lanes, fp + s as usize, v);
        }
        Ok(code)
    }

    /// Execute `code` in the frame at `fp` from its entry, until the
    /// frame stack is back at `base` callers and the function returns. A
    /// call pushes its caller on the frame stack and a return pops it, so
    /// IR recursion never recurses natively.
    fn run(
        &mut self,
        mut code: Arc<Code>,
        mut fp: usize,
        base: usize,
    ) -> Result<Option<RtVal>, ExecError> {
        let mut pc = code.entry as usize;
        loop {
            let (op, next) = self.exec(&code, pc, fp)?;
            pc = next;
            match op.kind {
                Kind::Call { callee, first, len } => {
                    let args = &code.lists[first as usize..(first + len) as usize];
                    for &s in args {
                        reg(&code, &self.regs, fp, s)?;
                    }
                    self.meter.tick(op.cost)?;
                    let callee_fp = self.regs.len();
                    let callee = self.enter(callee, args.len())?;
                    let params = callee_fp + callee.insts as usize;
                    for (k, &s) in args.iter().enumerate() {
                        let r = self.regs[fp + s as usize];
                        copy(&mut self.regs, &mut self.lanes, r, params + k);
                    }
                    let entry = callee.entry as usize;
                    self.callers.push(Caller {
                        code: std::mem::replace(&mut code, callee),
                        pc,
                        fp,
                        dst: op.dst,
                        sp: self.sp,
                    });
                    (pc, fp) = (entry, callee_fp);
                }
                Kind::External { ext, first, len } => {
                    let mut vals = std::mem::take(&mut self.ext_args);
                    vals.clear();
                    for &s in &code.lists[first as usize..(first + len) as usize] {
                        vals.push(get(&code, &self.regs, &self.lanes, fp, s)?);
                    }
                    let r = self.external(code.externals[ext as usize], &mut vals, op.cost);
                    self.ext_args = vals;
                    if let Some(v) = r? {
                        put(&mut self.regs, &mut self.lanes, fp + op.dst as usize, v);
                    }
                }
                Kind::Ret { val } => {
                    let r = match val {
                        NO_SLOT => Reg::UNSET,
                        v => reg(&code, &self.regs, fp, v)?,
                    };
                    if self.callers.len() == base {
                        return Ok((val != NO_SLOT).then(|| value(&self.lanes, r)));
                    }
                    let Some(caller) = self.callers.pop() else {
                        unreachable!("a frame above the base has a caller")
                    };
                    let at = caller.fp + caller.dst as usize;
                    copy(&mut self.regs, &mut self.lanes, r, at);
                    self.regs.truncate(fp);
                    self.lanes.truncate(fp);
                    self.sp = caller.sp;
                    (code, pc, fp) = (caller.code, caller.pc, caller.fp);
                }
                _ => unreachable!("only calls, externals and returns leave a frame"),
            }
        }
    }

    /// Execute `code`'s ops from `pc` in the frame at `fp` up to one that
    /// leaves the frame: a call, an external call or a return. Returns
    /// that op, not yet executed, and the pc after it.
    fn exec(&mut self, code: &Code, pc: usize, fp: usize) -> Result<(Op, usize), ExecError> {
        let mut x = Exec {
            code,
            fp,
            regs: &mut self.regs,
            lanes: &mut self.lanes,
            mem: &mut self.mem,
            phis: &mut self.phis,
            meter: self.meter,
            sp: self.sp,
        };
        let result = x.run(pc);
        (self.meter, self.sp) = (x.meter, x.sp);
        result
    }

    fn external(
        &mut self,
        ext: External,
        vals: &mut [RtVal],
        cost: u64,
    ) -> Result<Option<RtVal>, ExecError> {
        match ext {
            External::Math(name, f) => {
                let x = vals
                    .first()
                    .ok_or_else(|| ExecError(format!("{name} needs an argument")))?
                    .as_f64()?;
                let r = f(x);
                self.meter.tick(cost)?;
                Ok(Some(RtVal::F64(r)))
            }
            External::Pow => {
                let [x, y] = vals[..] else {
                    return Err(ExecError(format!(
                        "pow needs two arguments, got {}",
                        vals.len()
                    )));
                };
                let (x, y) = (x.as_f64()?, y.as_f64()?);
                self.meter.tick(cost)?;
                Ok(Some(RtVal::F64(x.powf(y))))
            }
            External::Fork(region) => {
                self.exec_fork(region, vals)?;
                Ok(None)
            }
            External::StaticInit => {
                self.exec_static_init(vals, cost)?;
                Ok(None)
            }
            External::StaticFini | External::Barrier => {
                self.meter.tick(cost)?;
                Ok(None)
            }
            External::Marker => Ok(None),
            External::Unknown(name) => Err(ExecError(format!(
                "call to unknown external '{}'",
                self.module.name_of(name)
            ))),
        }
    }

    /// Execute a fork: run the outlined region once per logical core,
    /// sequentially (DOALL regions are race-free, so sequential thread
    /// execution is observationally equivalent), charging
    /// `fork_overhead + max(per-thread cycles)` bounded below by the memory
    /// bandwidth ceiling. `vals` are the call's operands, the region's
    /// token first; each thread gets its id in its place.
    fn exec_fork(&mut self, region: Option<FuncId>, vals: &mut [RtVal]) -> Result<(), ExecError> {
        if self.in_parallel {
            return Err(ExecError(
                "nested parallel regions are not supported".into(),
            ));
        }
        let Some(region) = region else {
            return Err(ExecError(
                "fork call must take a function as first operand".into(),
            ));
        };
        let cores = self.config.cores.max(1);
        let saved_cycles = self.meter.cycles;
        let saved_bytes = self.meter.bytes;
        let mut max_thread = 0u64;
        let mut region_bytes = 0u64;
        self.in_parallel = true;
        for tid in 0..cores {
            self.meter.cycles = 0;
            self.meter.bytes = 0;
            vals[0] = RtVal::Int(tid as i64);
            if let Err(e) = self.invoke(region, vals) {
                self.in_parallel = false;
                return Err(e);
            }
            max_thread = max_thread.max(self.meter.cycles);
            region_bytes += self.meter.bytes;
        }
        self.in_parallel = false;
        let bandwidth_floor = (region_bytes as f64 / self.config.mem_bandwidth) as u64;
        let region_time = max_thread.max(bandwidth_floor) + self.config.fork_overhead;
        self.meter.cycles = saved_cycles + region_time;
        self.meter.bytes = saved_bytes + region_bytes;
        Ok(())
    }

    /// `(tid, p_lb, p_ub, step, chunk, orig_lb, orig_ub_incl)`: write this
    /// thread's static chunk into `p_lb`/`p_ub` (inclusive bounds).
    fn exec_static_init(&mut self, vals: &[RtVal], cost: u64) -> Result<(), ExecError> {
        if vals.len() != 7 {
            return Err(ExecError(format!(
                "static init expects 7 operands, got {}",
                vals.len()
            )));
        }
        let tid = vals[0].as_int()?;
        let p_lb = vals[1].as_ptr()?;
        let p_ub = vals[2].as_ptr()?;
        let step = vals[3].as_int()?;
        let _chunk = vals[4].as_int()?;
        let orig_lb = vals[5].as_int()?;
        let orig_ub = vals[6].as_int()?;
        if step <= 0 {
            return Err(ExecError("static init requires a positive step".into()));
        }
        let cores = self.config.cores.max(1) as i64;
        let n_iters = if orig_ub < orig_lb {
            0
        } else {
            (orig_ub - orig_lb) / step + 1
        };
        let per = (n_iters + cores - 1) / cores; // ceil
        let my_first = tid * per;
        let my_last = ((tid + 1) * per - 1).min(n_iters - 1);
        let (lb, ub) = if n_iters == 0 || my_first >= n_iters {
            // Empty range: lb > ub.
            (orig_lb + 1, orig_lb)
        } else {
            (orig_lb + my_first * step, orig_lb + my_last * step)
        };
        self.mem.store_u64(p_lb, lb as u64)?;
        self.mem.store_u64(p_ub, ub as u64)?;
        self.meter.tick(cost)?;
        Ok(())
    }
}

/// Phi values of the edge being taken: registers, with a vector's lanes
/// copied out to `lanes` and its payload indexing them.
#[derive(Default)]
struct Phis {
    regs: Vec<Reg>,
    lanes: Vec<VecVal>,
}

/// The register at absolute index `fp + s`, which must be set.
#[inline(always)]
fn reg(code: &Code, regs: &[Reg], fp: usize, s: Slot) -> Result<Reg, ExecError> {
    let r = regs[fp + s as usize];
    if r.tag == Tag::Unset {
        return Err(code.unset(s));
    }
    Ok(r)
}

/// The value a set register holds.
#[inline(always)]
fn value(lanes: &[VecVal], r: Reg) -> RtVal {
    match r.tag {
        Tag::Int => RtVal::Int(r.bits as i64),
        Tag::F64 => RtVal::F64(f64::from_bits(r.bits)),
        Tag::Ptr => RtVal::Ptr(r.bits),
        Tag::Vec => RtVal::Vec(lanes[r.bits as usize]),
        Tag::Unset => unreachable!("an unset register holds no value"),
    }
}

#[inline(always)]
fn get(
    code: &Code,
    regs: &[Reg],
    lanes: &[VecVal],
    fp: usize,
    s: Slot,
) -> Result<RtVal, ExecError> {
    reg(code, regs, fp, s).map(|r| value(lanes, r))
}

/// Store `v` in the register at absolute index `at`.
fn put(regs: &mut [Reg], lanes: &mut Vec<VecVal>, at: usize, v: RtVal) {
    match v {
        RtVal::Vec(x) => put_vec(regs, lanes, at, x),
        v => regs[at] = Reg::scalar(v),
    }
}

fn put_vec(regs: &mut [Reg], lanes: &mut Vec<VecVal>, at: usize, v: VecVal) {
    if lanes.len() <= at {
        lanes.resize(at + 1, v);
    }
    lanes[at] = v;
    regs[at] = Reg {
        bits: at as u64,
        tag: Tag::Vec,
    };
}

/// Copy the value `r` into the register at `at`, a vector's lanes
/// included.
#[inline(always)]
fn copy(regs: &mut [Reg], lanes: &mut Vec<VecVal>, r: Reg, at: usize) {
    if r.tag == Tag::Vec {
        put_vec(regs, lanes, at, lanes[r.bits as usize]);
    } else {
        regs[at] = r;
    }
}

/// What one frame's ops touch, borrowed apart from the rest of the VM:
/// the registers as a slice, the lanes, memory and phi scratch, and the
/// meter and stack pointer by value, written back when the ops stop.
struct Exec<'a> {
    code: &'a Code,
    fp: usize,
    regs: &'a mut [Reg],
    lanes: &'a mut Vec<VecVal>,
    mem: &'a mut Memory,
    phis: &'a mut Phis,
    meter: Meter,
    sp: u64,
}

impl Exec<'_> {
    #[inline(always)]
    fn tick(&mut self, cost: u64) -> Result<(), ExecError> {
        self.meter.tick(cost)
    }

    #[inline(always)]
    fn reg(&self, s: Slot) -> Result<Reg, ExecError> {
        reg(self.code, self.regs, self.fp, s)
    }

    #[inline(always)]
    fn get(&self, s: Slot) -> Result<RtVal, ExecError> {
        get(self.code, self.regs, self.lanes, self.fp, s)
    }

    #[inline(always)]
    fn set(&mut self, s: Slot, tag: Tag, bits: u64) {
        self.regs[self.fp + s as usize] = Reg { bits, tag };
    }

    #[inline(always)]
    fn put(&mut self, s: Slot, v: RtVal) {
        put(self.regs, self.lanes, self.fp + s as usize, v);
    }

    #[inline(always)]
    fn put_vec(&mut self, s: Slot, v: VecVal) {
        put_vec(self.regs, self.lanes, self.fp + s as usize, v);
    }

    #[inline(always)]
    fn copy(&mut self, r: Reg, s: Slot) {
        copy(self.regs, self.lanes, r, self.fp + s as usize);
    }

    /// Slot `s`'s payload if its tag is `tag`; else the unset-value
    /// error or the error of a value of another kind.
    #[inline(always)]
    fn read(&self, s: Slot, tag: Tag) -> Result<u64, ExecError> {
        let r = self.regs[self.fp + s as usize];
        if r.tag == tag {
            return Ok(r.bits);
        }
        Err(read_error(
            self.code,
            self.regs,
            self.lanes,
            self.fp,
            &[s],
            tag,
        ))
    }

    #[inline(always)]
    fn int(&self, s: Slot) -> Result<i64, ExecError> {
        self.read(s, Tag::Int).map(|x| x as i64)
    }

    #[inline(always)]
    fn float(&self, s: Slot) -> Result<f64, ExecError> {
        self.read(s, Tag::F64).map(f64::from_bits)
    }

    #[inline(always)]
    fn ptr(&self, s: Slot) -> Result<u64, ExecError> {
        self.read(s, Tag::Ptr)
    }

    /// Both operands' payloads, read like [`Exec::read`]: both are read
    /// before either's kind is checked.
    #[inline(always)]
    fn pair(&self, a: Slot, b: Slot, tag: Tag) -> Result<(u64, u64), ExecError> {
        let (x, y) = (
            self.regs[self.fp + a as usize],
            self.regs[self.fp + b as usize],
        );
        if x.tag == tag && y.tag == tag {
            return Ok((x.bits, y.bits));
        }
        Err(read_error(
            self.code,
            self.regs,
            self.lanes,
            self.fp,
            &[a, b],
            tag,
        ))
    }

    /// `icmp`'s operands: two integers, or two pointers compared as
    /// integers.
    #[inline(always)]
    fn compared(&self, a: Slot, b: Slot) -> Result<(u64, u64), ExecError> {
        let (x, y) = (
            self.regs[self.fp + a as usize],
            self.regs[self.fp + b as usize],
        );
        if x.tag == y.tag && matches!(x.tag, Tag::Int | Tag::Ptr) {
            return Ok((x.bits, y.bits));
        }
        Err(read_error(
            self.code,
            self.regs,
            self.lanes,
            self.fp,
            &[a, b],
            Tag::Int,
        ))
    }

    /// The payload of `r`, a set register, if it holds a `tag`; else the
    /// error of a value of another kind.
    #[inline(always)]
    fn payload(&self, r: Reg, tag: Tag) -> Result<u64, ExecError> {
        if r.tag == tag {
            return Ok(r.bits);
        }
        Err(kind_error(&[value(self.lanes, r)], tag))
    }

    /// Take edge `e`: evaluate every phi of its target, then assign them,
    /// one cycle each. Returns the target's first op.
    #[inline(always)]
    fn take_edge(&mut self, e: u32) -> Result<usize, ExecError> {
        let edge = self.code.edges[e as usize];
        let moves = &self.code.moves[edge.first as usize..(edge.first + edge.len) as usize];
        if let [m] = moves {
            let r = self.phi_source(edge, *m)?;
            self.copy(r, m.dst);
            self.tick(1)?;
        } else if !moves.is_empty() {
            self.phis.regs.clear();
            self.phis.lanes.clear();
            for &m in moves {
                let mut r = self.phi_source(edge, m)?;
                if r.tag == Tag::Vec {
                    self.phis.lanes.push(self.lanes[r.bits as usize]);
                    r.bits = self.phis.lanes.len() as u64 - 1;
                }
                self.phis.regs.push(r);
            }
            for (k, m) in moves.iter().enumerate() {
                let r = self.phis.regs[k];
                if r.tag == Tag::Vec {
                    self.put_vec(m.dst, self.phis.lanes[r.bits as usize]);
                } else {
                    self.regs[self.fp + m.dst as usize] = r;
                }
                self.tick(1)?;
            }
        }
        Ok(edge.pc as usize)
    }

    #[inline(always)]
    fn phi_source(&self, edge: Edge, m: Move) -> Result<Reg, ExecError> {
        if m.src == NO_SLOT {
            return Err(ExecError(format!(
                "phi {} missing incoming for {}",
                InstId(m.dst),
                edge.from
            )));
        }
        self.reg(m.src)
    }

    /// Execute ops from `pc` up to one that leaves the frame: a call, an
    /// external call or a return. Returns that op, not yet executed, and
    /// the pc after it.
    fn run(&mut self, mut pc: usize) -> Result<(Op, usize), ExecError> {
        let code = self.code;
        loop {
            let op = &code.ops[pc];
            let (dst, cost) = (op.dst, op.cost);
            pc += 1;
            match op.kind {
                Kind::IntBin { op, ty, a, b } => {
                    let (x, y) = self.pair(a, b, Tag::Int)?;
                    let r = eval::int_bin(op, x as i64, y as i64, ty)?;
                    self.tick(cost)?;
                    self.set(dst, Tag::Int, r as u64);
                }
                Kind::FloatBin { op, a, b } => {
                    let (x, y) = self.pair(a, b, Tag::F64)?;
                    let r = eval::float_bin(op, f64::from_bits(x), f64::from_bits(y))?;
                    self.tick(cost)?;
                    self.set(dst, Tag::F64, r.to_bits());
                }
                Kind::VecBin { op, vt, a, b } => {
                    let (x, y) = (self.get(a)?, self.get(b)?);
                    let r = vec_bin(op, vt, x.as_vec()?, y.as_vec()?)?;
                    self.tick(cost)?;
                    self.put_vec(dst, r);
                }
                Kind::ICmp { pred, a, b } => {
                    let (x, y) = self.compared(a, b)?;
                    self.tick(cost)?;
                    self.set(dst, Tag::Int, eval::icmp(pred, x as i64, y as i64) as u64);
                }
                Kind::FCmp { pred, a, b } => {
                    let x = self.float(a)?;
                    let y = self.float(b)?;
                    self.tick(cost)?;
                    self.set(dst, Tag::Int, eval::fcmp(pred, x, y) as u64);
                }
                Kind::Alloca { size } => {
                    let addr = self.sp;
                    self.sp += u64::from(size);
                    if self.sp >= STACK_TOP {
                        return Err(ExecError("stack overflow".into()));
                    }
                    // Fresh allocas read as zero.
                    self.mem.zero_stack(addr, self.sp);
                    self.tick(cost)?;
                    self.set(dst, Tag::Ptr, addr);
                }
                Kind::LoadWord { tag, ptr } => {
                    let addr = self.ptr(ptr)?;
                    self.meter.bytes += 8;
                    self.tick(cost)?;
                    let bits = self.mem.load_u64(addr)?;
                    self.set(dst, tag, bits);
                }
                Kind::StoreWord { ty, tag, val, ptr } => {
                    let addr = self.ptr(ptr)?;
                    let r = self.reg(val)?;
                    self.meter.bytes += 8;
                    self.tick(cost)?;
                    if r.tag != tag {
                        return Err(store_error(ty, value(self.lanes, r)));
                    }
                    self.mem.store_u64(addr, r.bits)?;
                }
                Kind::Load { ty, ptr, size } => {
                    let addr = self.ptr(ptr)?;
                    self.meter.bytes += u64::from(size);
                    self.tick(cost)?;
                    let mem = &self.mem;
                    let (tag, bits) = match ty {
                        Type::I32 => {
                            let x = u32::from_le_bytes(mem.read(addr)?);
                            (Tag::Int, x as i32 as i64 as u64)
                        }
                        Type::I8 | Type::I1 => (Tag::Int, mem.read::<1>(addr)?[0] as i8 as u64),
                        Type::Vec(vt) => {
                            let mut r = VecVal::zero(vt);
                            for i in 0..r.lanes() {
                                r.bits[i] = mem.load_u64(addr + 8 * i as u64)?;
                            }
                            self.put_vec(dst, r);
                            continue;
                        }
                        Type::F64 | Type::Ptr | Type::I64 | Type::Void => {
                            unreachable!("8-byte scalar loads are `LoadWord`, void loads a failure")
                        }
                    };
                    self.set(dst, tag, bits);
                }
                Kind::Store { ty, val, ptr, size } => {
                    let addr = self.ptr(ptr)?;
                    let r = self.reg(val)?;
                    self.meter.bytes += u64::from(size);
                    self.tick(cost)?;
                    let mem = &mut self.mem;
                    match (ty, r.tag) {
                        (Type::Vec(_), Tag::Vec) => {
                            let x = &self.lanes[r.bits as usize];
                            for i in 0..x.lanes() {
                                mem.store_u64(addr + 8 * i as u64, x.bits[i])?;
                            }
                        }
                        (Type::I32, Tag::Int) => mem.write(addr, (r.bits as u32).to_le_bytes())?,
                        (Type::I8 | Type::I1, Tag::Int) => mem.write(addr, [r.bits as u8])?,
                        (t, _) => return Err(store_error(t, value(self.lanes, r))),
                    }
                }
                Kind::Gep { ptr, first, len } => {
                    let mut addr = self.ptr(ptr)?;
                    for &(s, stride) in &self.code.geps[first as usize..(first + len) as usize] {
                        let i = self.int(s)?;
                        addr = addr.wrapping_add(stride.wrapping_mul(i) as u64);
                    }
                    self.tick(cost)?;
                    self.set(dst, Tag::Ptr, addr);
                }
                Kind::Bitcast { src } => {
                    let r = self.reg(src)?;
                    self.tick(cost)?;
                    self.copy(r, dst);
                }
                Kind::SiToFp { src } => {
                    let v = self.reg(src)?;
                    self.tick(cost)?;
                    let r = eval::int_to_float(self.payload(v, Tag::Int)? as i64);
                    self.set(dst, Tag::F64, r.to_bits());
                }
                Kind::FpToSi { ty, src } => {
                    let v = self.reg(src)?;
                    self.tick(cost)?;
                    let x = f64::from_bits(self.payload(v, Tag::F64)?);
                    let r = eval::float_to_int(x, ty);
                    self.set(dst, Tag::Int, r as u64);
                }
                Kind::IntCast { op, from, to, src } => {
                    let v = self.reg(src)?;
                    self.tick(cost)?;
                    let x = self.payload(v, Tag::Int)? as i64;
                    let r = eval::int_cast(op, x, from, to);
                    self.set(dst, Tag::Int, r as u64);
                }
                Kind::VecCast { op, vt, src } => {
                    let r = vec_cast(op, vt, self.get(src)?.as_vec()?)?;
                    self.tick(cost)?;
                    self.put_vec(dst, r);
                }
                Kind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    let c = self.int(cond)?;
                    let r = self.reg(if c != 0 { then_val } else { else_val })?;
                    self.tick(cost)?;
                    self.copy(r, dst);
                }
                Kind::Splat { vt, src } => {
                    let v = self.get(src)?;
                    let mut r = VecVal::zero(vt);
                    for i in 0..r.lanes() {
                        r.set_lane(i, v)?;
                    }
                    self.tick(cost)?;
                    self.put_vec(dst, r);
                }
                Kind::ExtractLane { lane, vec } => {
                    let v = self.get(vec)?.as_vec()?;
                    if lane as usize >= v.lanes() {
                        return Err(ExecError(format!("lane {lane} out of range")));
                    }
                    self.tick(cost)?;
                    self.put(dst, v.lane(lane as usize));
                }
                Kind::InsertLane { lane, vec, val } => {
                    let mut v = self.get(vec)?.as_vec()?;
                    if lane as usize >= v.lanes() {
                        return Err(ExecError(format!("lane {lane} out of range")));
                    }
                    let x = self.get(val)?;
                    v.set_lane(lane as usize, x)?;
                    self.tick(cost)?;
                    self.put_vec(dst, v);
                }
                Kind::Reduce { op, acc, vec } => {
                    let v = self.get(vec)?.as_vec()?;
                    let a = self.get(acc)?;
                    let r = reduce(op, a, v)?;
                    self.tick(cost * v.lanes() as u64 / 2)?;
                    self.put(dst, r);
                }
                Kind::Br { edge } => {
                    self.tick(cost)?;
                    pc = self.take_edge(edge)?;
                }
                Kind::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                } => {
                    self.tick(cost)?;
                    let c = self.int(cond)?;
                    let edge = if c != 0 { then_edge } else { else_edge };
                    pc = self.take_edge(edge)?;
                }
                Kind::Call { .. } | Kind::External { .. } | Kind::Ret { .. } => {
                    return Ok((*op, pc));
                }
                Kind::Fail(failure) => {
                    return Err(ExecError(match failure {
                        Failure::Unreachable => "reached unreachable".into(),
                        Failure::FellThrough(b) => format!("block {b} fell through"),
                        Failure::PhiInEntry => "phi in entry block has no predecessor".into(),
                        Failure::SplatToScalar => "splat to non-vector".into(),
                        Failure::MissingBlock => malformed("branch to a block that does not exist"),
                        Failure::VoidLoad => malformed("load of void"),
                        Failure::VoidStore => malformed("store of void"),
                        Failure::ExtraGepIndex => malformed("more gep indices than strides"),
                    }))
                }
            }
        }
    }
}

/// The error of reading `slots` (one or two) as values of kind `tag`,
/// once a tag check failed: the first unset one's, else the first of
/// another kind's.
#[cold]
#[inline(never)]
fn read_error(
    code: &Code,
    regs: &[Reg],
    lanes: &[VecVal],
    fp: usize,
    slots: &[Slot],
    tag: Tag,
) -> ExecError {
    let mut vals = Vec::with_capacity(slots.len());
    for &s in slots {
        match get(code, regs, lanes, fp, s) {
            Ok(v) => vals.push(v),
            Err(e) => return e,
        }
    }
    kind_error(&vals, tag)
}

/// The error of the first of `vals` that is not of kind `tag`.
#[cold]
#[inline(never)]
fn kind_error(vals: &[RtVal], tag: Tag) -> ExecError {
    let checked = vals.iter().try_for_each(|v| match tag {
        Tag::Int => v.as_int().map(drop),
        Tag::F64 => v.as_f64().map(drop),
        Tag::Ptr => v.as_ptr().map(drop),
        Tag::Vec | Tag::Unset => v.as_vec().map(drop),
    });
    match checked {
        Err(e) => e,
        Ok(()) => unreachable!("a value that failed its tag check is of another kind"),
    }
}

/// The error of storing `v` as a `ty` value.
#[cold]
#[inline(never)]
fn store_error(ty: Type, v: RtVal) -> ExecError {
    ExecError(format!("store type mismatch: {ty} vs {v:?}"))
}

/// Lane-wise `x op y`; the opcode's kind must match the lanes'.
fn vec_bin(op: BinOp, vt: VecTy, x: VecVal, y: VecVal) -> Result<VecVal, ExecError> {
    if vt.elem.is_float() != op.is_float() {
        let (opk, veck) = if op.is_float() {
            ("float", "int")
        } else {
            ("int", "float")
        };
        return Err(ExecError(format!(
            "{opk} opcode {} on {veck} vector",
            op.name()
        )));
    }
    let mut r = VecVal::zero(vt);
    for i in 0..r.lanes() {
        r.bits[i] = if vt.elem.is_float() {
            eval::float_bin(op, x.lane_f64(i), y.lane_f64(i))?.to_bits()
        } else {
            eval::int_bin(op, x.lane_i64(i), y.lane_i64(i), Type::I64)? as u64
        };
    }
    Ok(r)
}

fn vec_cast(op: CastOp, vt: VecTy, src: VecVal) -> Result<VecVal, ExecError> {
    let mut r = VecVal::zero(vt);
    match op {
        CastOp::SiToFp => {
            for i in 0..r.lanes() {
                r.set_f64(i, eval::int_to_float(src.lane_i64(i)));
            }
        }
        CastOp::FpToSi => {
            for i in 0..r.lanes() {
                r.set_i64(i, eval::float_to_int(src.lane_f64(i), Type::I64));
            }
        }
        other => {
            return Err(ExecError(format!(
                "unsupported vector cast {}",
                other.name()
            )))
        }
    }
    Ok(r)
}

/// Ordered fold, lane 0 first; min/max follow the scalar compare+select
/// idiom exactly so devectorized loops are bit-identical.
fn reduce(op: ReduceOp, acc: RtVal, v: VecVal) -> Result<RtVal, ExecError> {
    Ok(if v.ty.elem.is_float() {
        let mut acc = acc.as_f64()?;
        for i in 0..v.lanes() {
            let x = v.lane_f64(i);
            acc = match op {
                ReduceOp::Add => eval::float_bin(BinOp::FAdd, acc, x)?,
                ReduceOp::Min if eval::fcmp(FPred::Olt, x, acc) => x,
                ReduceOp::Max if eval::fcmp(FPred::Ogt, x, acc) => x,
                ReduceOp::Min | ReduceOp::Max => acc,
            };
        }
        RtVal::F64(acc)
    } else {
        let mut acc = acc.as_int()?;
        for i in 0..v.lanes() {
            let x = v.lane_i64(i);
            acc = match op {
                ReduceOp::Add => eval::int_bin(BinOp::Add, acc, x, Type::I64)?,
                ReduceOp::Min if eval::icmp(IPred::Slt, x, acc) => x,
                ReduceOp::Max if eval::icmp(IPred::Sgt, x, acc) => x,
                ReduceOp::Min | ReduceOp::Max => acc,
            };
        }
        RtVal::Int(acc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CompilerProfile, MachineConfig};
    use splendid_cfront::{lower_program, parse_program, LowerOptions, OmpRuntime};
    use splendid_ir::VecElem;
    use splendid_transforms::{optimize_module, O2Options};

    fn compile(src: &str) -> Module {
        let prog = parse_program(src).unwrap();
        lower_program(&prog, "t", &LowerOptions::default()).unwrap()
    }

    fn compile_rt(src: &str, rt: OmpRuntime) -> Module {
        let prog = parse_program(src).unwrap();
        lower_program(&prog, "t", &LowerOptions { runtime: rt }).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let m = compile("double f(double x) { return x * 2.0 + 1.0; }");
        let mut vm = Vm::new(&m, MachineConfig::default());
        let r = vm.call_by_name("f", &[RtVal::F64(3.0)]).unwrap();
        assert_eq!(r, Some(RtVal::F64(7.0)));
        assert!(vm.cycles() > 0);
    }

    #[test]
    fn loops_and_arrays() {
        let m = compile(
            "#define N 10\ndouble A[10];\nvoid k() { int i; for (i = 0; i < N; i++) { A[i] = i * 2; } }",
        );
        let mut vm = Vm::new(&m, MachineConfig::default());
        vm.call_by_name("k", &[]).unwrap();
        for i in 0..10 {
            assert_eq!(vm.read_global_f64("A", i).unwrap(), (i * 2) as f64);
        }
    }

    #[test]
    fn optimized_code_computes_same_result() {
        let src = "#define N 64\ndouble A[64];\ndouble B[64];\nvoid k() { int i; for (i = 1; i < N - 1; i++) { B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0; } }\nvoid init() { int i; for (i = 0; i < N; i++) { A[i] = i * 0.5; } }";
        let m0 = compile(src);
        let mut m1 = m0.clone();
        optimize_module(&mut m1, &O2Options::default());
        let run = |m: &Module| -> f64 {
            let mut vm = Vm::new(m, MachineConfig::default());
            vm.call_by_name("init", &[]).unwrap();
            vm.call_by_name("k", &[]).unwrap();
            vm.checksum_global("B").unwrap()
        };
        let c0 = run(&m0);
        let c1 = run(&m1);
        assert_eq!(c0, c1, "O2 must preserve semantics");
        assert_ne!(c0, 0.0);
    }

    #[test]
    fn optimization_reduces_cycles() {
        let src = "#define N 64\ndouble A[64];\nvoid k() { int i; for (i = 0; i < N; i++) { A[i] = i; } }";
        let m0 = compile(src);
        let mut m1 = m0.clone();
        optimize_module(&mut m1, &O2Options::default());
        let cycles = |m: &Module| {
            let mut vm = Vm::new(m, MachineConfig::default());
            vm.call_by_name("k", &[]).unwrap();
            vm.cycles()
        };
        assert!(
            cycles(&m1) < cycles(&m0),
            "O2 ({}) should beat O0 ({})",
            cycles(&m1),
            cycles(&m0)
        );
    }

    const OMP_SRC: &str = r#"
#define N 1024
double A[1024];
double B[1024];
void init() { int i; for (i = 0; i < N; i++) { A[i] = i * 0.25; } }
void k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (int i = 0; i < N; i++) {
      B[i] = A[i] * 3.0 + 1.0;
    }
  }
}
"#;

    #[test]
    fn openmp_region_executes_correctly() {
        for rt in [OmpRuntime::LibOmp, OmpRuntime::LibGomp] {
            let m = compile_rt(OMP_SRC, rt);
            let mut vm = Vm::new(&m, MachineConfig::default());
            vm.call_by_name("init", &[]).unwrap();
            vm.call_by_name("k", &[]).unwrap();
            for i in [0u64, 1, 511, 1023] {
                assert_eq!(
                    vm.read_global_f64("B", i).unwrap(),
                    i as f64 * 0.25 * 3.0 + 1.0,
                    "runtime {rt:?}, element {i}"
                );
            }
        }
    }

    #[test]
    fn parallel_beats_sequential_in_cycles() {
        let seq_src = r#"
#define N 4096
double A[4096];
double B[4096];
void k() {
  int i;
  for (i = 0; i < N; i++) {
    B[i] = exp(A[i]) * 3.0 + exp(A[i] * 0.5);
  }
}
"#;
        let par_src = r#"
#define N 4096
double A[4096];
double B[4096];
void k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (int i = 0; i < N; i++) {
      B[i] = exp(A[i]) * 3.0 + exp(A[i] * 0.5);
    }
  }
}
"#;
        let cycles = |src: &str| {
            let mut m = compile(src);
            optimize_module(&mut m, &O2Options::default());
            let mut vm = Vm::new(&m, MachineConfig::default());
            vm.call_by_name("k", &[]).unwrap();
            vm.cycles()
        };
        let s = cycles(seq_src);
        let p = cycles(par_src);
        let speedup = s as f64 / p as f64;
        assert!(
            speedup > 5.0 && speedup <= 28.0,
            "expected substantial speedup on 28 cores, got {speedup:.2} ({s} vs {p})"
        );
    }

    #[test]
    fn bandwidth_ceiling_limits_streaming_speedup() {
        // Pure copy: almost no compute, all memory traffic.
        let par_src = r#"
#define N 8192
double A[8192];
double B[8192];
void k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (int i = 0; i < N; i++) {
      B[i] = A[i];
    }
  }
}
"#;
        let seq_src = r#"
#define N 8192
double A[8192];
double B[8192];
void k() {
  int i;
  for (i = 0; i < N; i++) {
    B[i] = A[i];
  }
}
"#;
        let cycles = |src: &str| {
            let mut m = compile(src);
            optimize_module(&mut m, &O2Options::default());
            let mut vm = Vm::new(&m, MachineConfig::default());
            vm.call_by_name("k", &[]).unwrap();
            vm.cycles()
        };
        let speedup = cycles(seq_src) as f64 / cycles(par_src) as f64;
        assert!(
            speedup < 15.0,
            "streaming copy must not scale linearly, got {speedup:.2}"
        );
    }

    #[test]
    fn static_chunks_partition_exactly() {
        // Write tid+1 into each element; afterwards every element must be
        // written exactly once (no gaps, no overlaps).
        let src = r#"
#define N 100
double A[100];
void k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (int i = 0; i < N; i++) {
      A[i] = A[i] + 1.0;
    }
  }
}
"#;
        let m = compile(src);
        let mut vm = Vm::new(&m, MachineConfig::default());
        vm.call_by_name("k", &[]).unwrap();
        for i in 0..100 {
            assert_eq!(vm.read_global_f64("A", i).unwrap(), 1.0, "element {i}");
        }
    }

    #[test]
    fn math_externals() {
        let m = compile("double f(double x) { return sqrt(x) + fabs(0.0 - 2.0) + pow(2.0, 3.0); }");
        let mut vm = Vm::new(&m, MachineConfig::default());
        let r = vm.call_by_name("f", &[RtVal::F64(9.0)]).unwrap();
        assert_eq!(r, Some(RtVal::F64(3.0 + 2.0 + 8.0)));
    }

    #[test]
    fn external_with_too_few_arguments_is_an_error() {
        let src = r#"
module "t"
func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = call f64 ext "pow"($0)
  ret %0
}
"#;
        let m = splendid_ir::parser::parse_module(src).unwrap();
        splendid_ir::verify::verify_module(&m).unwrap();
        let mut vm = Vm::new(&m, MachineConfig::default());
        let e = vm.call_by_name("f", &[RtVal::F64(2.0)]).unwrap_err();
        assert_eq!(e.0, "pow needs two arguments, got 1");
    }

    #[test]
    fn phis_of_a_block_take_their_values_in_parallel() {
        // Each trip round the loop swaps %0 and %1; assigned one after the
        // other, both would end up equal.
        let src = r#"
module "swap"
func @f($0:n i64) -> i64 {
bb0 entry:
  br bb1
bb1 loop:
  %0 = phi i64 [bb0: i64 1] [bb1: %1]
  %1 = phi i64 [bb0: i64 2] [bb1: %0]
  %2 = phi i64 [bb0: i64 0] [bb1: %3]
  %3 = add i64 %2, i64 1
  %4 = icmp slt %3, $0
  condbr %4, bb1, bb2
bb2 exit:
  %5 = mul i64 %0, i64 10
  %6 = add i64 %5, %1
  ret %6
}
"#;
        let m = splendid_ir::parser::parse_module(src).unwrap();
        splendid_ir::verify::verify_module(&m).unwrap();
        let mut vm = Vm::new(&m, MachineConfig::default());
        let r = vm.call_by_name("f", &[RtVal::Int(4)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(21)));
    }

    /// Vector values in every place a register can hand them on: phi
    /// moves that swap two vectors, a phi and a select whose sources are
    /// written again while they are live, a call's argument and result,
    /// and lane inserts whose source is read again afterwards.
    const VECTOR_REGS: &str = r#"
module "vregs"

func @swap($0:n i64) -> v4f64 {
bb0 entry:
  %0 = splat v4f64 f64 1.5
  %1 = insertlane v4f64 %0, f64 -2.25, 2
  %2 = splat v4f64 f64 0.125
  br bb1
bb1 loop:
  %3 = phi v4f64 [bb0: %1] [bb1: %4]
  %4 = phi v4f64 [bb0: %2] [bb1: %3]
  %5 = phi i64 [bb0: i64 0] [bb1: %6]
  %6 = add i64 %5, i64 1
  %7 = icmp slt %6, $0
  condbr %7, bb1, bb2
bb2 exit:
  %8 = fsub v4f64 %3, %4
  ret %8
}

func @grow($0:c i64) -> v4f64 {
bb0 entry:
  %0 = splat v4f64 f64 1.0
  %1 = icmp ne $0, i64 0
  br bb1
bb1 loop:
  %2 = phi v4f64 [bb0: %0] [bb1: %4]
  %3 = fadd v4f64 %2, %2
  %4 = select v4f64 %1, %3, %2
  %5 = extractlane f64 %3, 0
  %6 = fcmp olt %5, f64 10.0
  condbr %6, bb1, bb2
bb2 exit:
  %7 = fsub v4f64 %3, %2
  ret %7
}

func @twice($0:v v4f64) -> v4f64 {
bb0 entry:
  %0 = fadd v4f64 $0, $0
  ret %0
}

func @call($0:x f64) -> v4f64 {
bb0 entry:
  %0 = splat v4f64 $0
  %1 = insertlane v4f64 %0, f64 3.0, 0
  %2 = call v4f64 @twice(%1)
  %3 = call v4f64 @twice(%0)
  %4 = fsub v4f64 %2, %1
  %5 = fadd v4f64 %4, %2
  %6 = fsub v4f64 %5, %3
  ret %6
}

func @pick($0:c i64) -> v4f64 {
bb0 entry:
  %0 = splat v4f64 f64 1.0
  %1 = splat v4f64 f64 -4.0
  %2 = icmp ne $0, i64 0
  %3 = select v4f64 %2, %0, %1
  %4 = fadd v4f64 %3, %0
  ret %4
}

func @lanes($0:x f64) -> v4f64 {
bb0 entry:
  %0 = splat v4f64 $0
  %1 = insertlane v4f64 %0, f64 7.0, 2
  %2 = extractlane f64 %1, 2
  %3 = extractlane f64 %0, 2
  %4 = fadd f64 %2, %3
  %5 = insertlane v4f64 %1, %4, 0
  %6 = fsub v4f64 %5, %0
  ret %6
}
"#;

    #[test]
    fn vector_registers_keep_their_own_lanes() {
        let m = splendid_ir::parser::parse_module(VECTOR_REGS).unwrap();
        splendid_ir::verify::verify_module(&m).unwrap();
        let mut vm = Vm::new(&m, MachineConfig::default());
        let mut lanes = |f: &str, arg: RtVal| match vm.call_by_name(f, &[arg]) {
            Ok(Some(RtVal::Vec(v))) => {
                assert_eq!(v.ty, VecTy::new(VecElem::F64, 4), "{f}");
                v.bits.map(f64::from_bits)
            }
            other => panic!("{f}: {other:?}"),
        };
        let b_minus_a = [-1.375, -1.375, 2.375, -1.375];
        let pad = |v: [f64; 4]| [v[0], v[1], v[2], v[3], 0.0, 0.0, 0.0, 0.0];
        // One swap leaves the phis exchanged, two swaps restore them.
        assert_eq!(lanes("swap", RtVal::Int(2)), pad(b_minus_a));
        assert_eq!(lanes("swap", RtVal::Int(3)), pad(b_minus_a.map(|x| -x)));
        // 1, 2, 4, 8 on entry to the loop; the last trip doubles 8.
        assert_eq!(lanes("grow", RtVal::Int(1)), pad([8.0; 4]));
        // 2v - v + 2v - 2w: v survives the call, and its result the
        // next call.
        assert_eq!(lanes("call", RtVal::F64(0.5)), pad([8.0, 0.5, 0.5, 0.5]));
        assert_eq!(lanes("pick", RtVal::Int(1)), pad([2.0; 4]));
        assert_eq!(lanes("pick", RtVal::Int(0)), pad([-3.0; 4]));
        assert_eq!(lanes("lanes", RtVal::F64(0.25)), pad([7.0, 0.0, 6.75, 0.0]));
        let v = VecVal {
            bits: pad([1.0, -2.0, 0.5, 8.0]).map(f64::to_bits),
            ty: VecTy::new(VecElem::F64, 4),
        };
        let twice = pad([2.0, -4.0, 1.0, 16.0]).map(f64::to_bits);
        match vm.call_by_name("twice", &[RtVal::Vec(v)]) {
            Ok(Some(RtVal::Vec(r))) => assert_eq!(r.bits, twice),
            other => panic!("twice: {other:?}"),
        }
    }

    /// A self-call of one argument, `ty` (`i64` or `v4f64`).
    fn self_call(ty: &str) -> Module {
        let src = format!(
            "module \"down\"\n\nfunc @down($0:x {ty}) -> {ty} {{\nbb0 entry:\n  \
             %0 = call {ty} @down($0)\n  ret %0\n}}\n"
        );
        splendid_ir::parser::parse_module(&src).unwrap()
    }

    /// Levels of `@down` run before a call overflows the stack.
    fn overflow_depth(vm: &mut Vm, arg: RtVal) -> u64 {
        let before = vm.insts_executed();
        let e = vm.call_by_name("down", &[arg]).unwrap_err();
        assert_eq!(e.0, "stack overflow");
        vm.insts_executed() - before
    }

    #[test]
    fn vector_lanes_count_against_the_stack_region() {
        let (scalar, vector) = (self_call("i64"), self_call("v4f64"));
        let mut vm = Vm::new(&scalar, MachineConfig::default());
        let shallow = overflow_depth(&mut vm, RtVal::Int(1));
        let mut vm = Vm::new(&vector, MachineConfig::default());
        let v = RtVal::Vec(VecVal::zero(VecTy::new(VecElem::F64, 4)));
        let deep = overflow_depth(&mut vm, v);
        // A level holds three 16-byte registers and a 40-byte caller; a
        // vector's level adds 72 bytes of lanes per register it reaches.
        assert_eq!(shallow, 95_326);
        assert!(deep < shallow / 3, "{deep} vector levels, {shallow} scalar");
        // Popping the frames pops their lanes, so a second run on the same
        // VM goes as deep.
        assert_eq!(overflow_depth(&mut vm, v), deep);
    }

    #[test]
    fn gcc_and_clang_profiles_give_different_cycles() {
        let src = "#define N 256\ndouble A[256];\nvoid k() { int i; for (i = 0; i < N; i++) { A[i] = A[i] * 1.5 + 2.0; } }";
        let mut m = compile(src);
        optimize_module(&mut m, &O2Options::default());
        let cycles = |prof: CompilerProfile| {
            let mut vm = Vm::new(&m, MachineConfig::xeon_28core(prof));
            vm.call_by_name("k", &[]).unwrap();
            vm.cycles()
        };
        assert_ne!(
            cycles(CompilerProfile::clang()),
            cycles(CompilerProfile::gcc())
        );
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let src = "void k() { int i = 0; while (i < 1000000) { i = i + 1; } }";
        let m = compile(src);
        let cfg = MachineConfig {
            fuel: 1000,
            ..Default::default()
        };
        let mut vm = Vm::new(&m, cfg);
        let e = vm.call_by_name("k", &[]).unwrap_err();
        assert!(e.0.contains("fuel"), "{e}");
    }

    #[test]
    fn oob_detected() {
        let src = "double A[4];\nvoid k() { int i; for (i = 0; i < 100; i++) { A[i] = 1.0; } }";
        let m = compile(src);
        let mut vm = Vm::new(&m, MachineConfig::default());
        // A is the last global; indexing past it runs off memory.
        let e = vm.call_by_name("k", &[]).unwrap_err();
        assert!(e.0.contains("out-of-bounds"), "{e}");
    }

    #[test]
    fn recursion_and_calls() {
        let src = r#"
long fact(long n) {
  if (n <= 1) {
    return 1;
  }
  return n * fact(n - 1);
}
"#;
        let m = compile(src);
        let mut vm = Vm::new(&m, MachineConfig::default());
        let r = vm.call_by_name("fact", &[RtVal::Int(10)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(3628800)));
    }
}
