//! The interpreter proper.

use crate::machine::MachineConfig;
use splendid_ir::eval::{self, EvalError};
use splendid_ir::{
    BinOp, BlockId, Callee, CastOp, FPred, FuncId, GlobalInit, IPred, InstId, InstKind, Module,
    ReduceOp, Type, Value, VecTy,
};
use splendid_parallel::runtime::*;

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

/// The virtual machine: module + flat memory + cost counters.
pub struct Vm<'m> {
    module: &'m Module,
    config: MachineConfig,
    mem: Vec<u8>,
    /// Stack bump pointer.
    sp: u64,
    /// Base address of each global, indexed by [`splendid_ir::GlobalId`].
    global_base: Vec<u64>,
    /// Phi values of the block being entered, reused across block entries.
    phi_scratch: Vec<(InstId, RtVal)>,
    /// Cycle accumulator (cost model).
    cycles: u64,
    /// Bytes moved by loads/stores (for the bandwidth ceiling).
    bytes: u64,
    /// Instructions interpreted.
    insts_executed: u64,
    /// Remaining fuel.
    fuel: u64,
    /// Whether we are inside a parallel region (nested forks are an error).
    in_parallel: bool,
}

struct Frame {
    values: Vec<Option<RtVal>>,
    args: Vec<RtVal>,
    sp_on_entry: u64,
}

impl<'m> Vm<'m> {
    /// Create a VM for `module`: allocates and initializes globals.
    pub fn new(module: &'m Module, config: MachineConfig) -> Vm<'m> {
        let mut mem = vec![0u8; (STACK_BASE + STACK_SIZE) as usize];
        let mut global_base = Vec::with_capacity(module.globals.len());
        let mut top = STACK_BASE + STACK_SIZE;
        for g in &module.globals {
            let size = g.mem.size_bytes();
            let base = top;
            top += (size + 7) & !7;
            mem.resize(top as usize, 0);
            match g.init {
                GlobalInit::Zero => {}
                GlobalInit::SplatF64(x) => {
                    let bits = x.to_bits().to_le_bytes();
                    for k in 0..g.mem.num_elems() {
                        let off = (base + k * 8) as usize;
                        mem[off..off + 8].copy_from_slice(&bits);
                    }
                }
            }
            global_base.push(base);
        }
        let fuel = config.fuel;
        Vm {
            module,
            config,
            mem,
            sp: STACK_BASE,
            global_base,
            phi_scratch: Vec::new(),
            cycles: 0,
            bytes: 0,
            insts_executed: 0,
            fuel,
            in_parallel: false,
        }
    }

    /// Accumulated cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of instructions interpreted.
    pub fn insts_executed(&self) -> u64 {
        self.insts_executed
    }

    /// Base address of a global. Of two globals with one name the later
    /// wins, as it does for `@name` in the IR parser.
    pub fn global_addr(&self, name: &str) -> Result<u64, ExecError> {
        let sym = self.module.symbols.lookup(name);
        self.module
            .globals
            .iter()
            .rposition(|g| Some(g.name) == sym)
            .map(|i| self.global_base[i])
            .ok_or_else(|| ExecError(format!("unknown global '{name}'")))
    }

    /// Read the `idx`-th f64 element of a global array.
    pub fn read_global_f64(&self, name: &str, idx: u64) -> Result<f64, ExecError> {
        let base = self.global_addr(name)?;
        let addr = base + idx * 8;
        Ok(f64::from_bits(self.load_u64(addr)?))
    }

    /// Overwrite the `idx`-th f64 element of a global array.
    ///
    /// The translation validator uses this to drive both the source VM
    /// and the re-lowered VM into the same seeded initial state before a
    /// lockstep probe run.
    pub fn write_global_f64(&mut self, name: &str, idx: u64, value: f64) -> Result<(), ExecError> {
        let base = self.global_addr(name)?;
        let addr = base + idx * 8;
        self.store_u64(addr, value.to_bits())
    }

    /// Order-independent-ish checksum over every f64 element of a global:
    /// `Σ value_k * (k mod 31 + 1)` — position-sensitive so swapped
    /// elements are detected.
    pub fn checksum_global(&self, name: &str) -> Result<f64, ExecError> {
        let g = self
            .module
            .globals
            .iter()
            .find(|g| self.module.name_of(g.name) == name)
            .ok_or_else(|| ExecError(format!("unknown global '{name}'")))?;
        let n = g.mem.num_elems();
        let mut sum = 0.0;
        for k in 0..n {
            let v = self.read_global_f64(name, k)?;
            sum += v * ((k % 31) as f64 + 1.0);
        }
        Ok(sum)
    }

    /// Checksum over every global in the module.
    pub fn checksum_all(&self) -> Result<f64, ExecError> {
        let mut sum = 0.0;
        for g in &self.module.globals {
            sum += self.checksum_global(self.module.name_of(g.name))?;
        }
        Ok(sum)
    }

    /// Call a function by name.
    pub fn call_by_name(&mut self, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, ExecError> {
        let fid = self
            .module
            .func_by_name(name)
            .ok_or_else(|| ExecError(format!("unknown function '{name}'")))?;
        self.call(fid, args.to_vec())
    }

    /// Call a function by id.
    pub fn call(&mut self, fid: FuncId, args: Vec<RtVal>) -> Result<Option<RtVal>, ExecError> {
        let f = self.module.func(fid);
        if f.params.len() != args.len() {
            return Err(ExecError(format!(
                "call to @{} with {} args, expected {}",
                f.name,
                args.len(),
                f.params.len()
            )));
        }
        let mut frame = Frame {
            values: vec![None; f.insts.len()],
            args,
            sp_on_entry: self.sp,
        };
        let result = self.run_frame(fid, &mut frame);
        self.sp = frame.sp_on_entry;
        result
    }

    fn run_frame(&mut self, fid: FuncId, frame: &mut Frame) -> Result<Option<RtVal>, ExecError> {
        let f = self.module.func(fid);
        let mut cur = f.entry;
        let mut prev: Option<BlockId> = None;
        loop {
            // Phi nodes first, evaluated atomically.
            let block = f.block(cur);
            let mut phi_updates = std::mem::take(&mut self.phi_scratch);
            phi_updates.clear();
            for &i in &block.insts {
                if let InstKind::Phi { incomings } = &f.inst(i).kind {
                    let p = prev
                        .ok_or_else(|| ExecError("phi in entry block has no predecessor".into()))?;
                    let (_, v) = incomings
                        .iter()
                        .find(|(b, _)| *b == p)
                        .ok_or_else(|| ExecError(format!("phi {i} missing incoming for {p}")))?;
                    phi_updates.push((i, self.eval(frame, *v)?));
                } else {
                    break;
                }
            }
            for &(i, v) in &phi_updates {
                frame.values[i.index()] = Some(v);
                self.tick(1)?;
            }
            self.phi_scratch = phi_updates;

            // Remaining instructions.
            let mut next_block: Option<BlockId> = None;
            for &i in &block.insts {
                let inst = f.inst(i);
                if matches!(inst.kind, InstKind::Phi { .. }) {
                    continue;
                }
                match &inst.kind {
                    InstKind::Br { target } => {
                        self.charge_branch()?;
                        next_block = Some(*target);
                    }
                    InstKind::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        self.charge_branch()?;
                        let c = self.eval(frame, *cond)?.as_int()?;
                        next_block = Some(if c != 0 { *then_bb } else { *else_bb });
                    }
                    InstKind::Ret { val } => {
                        let r = match val {
                            Some(v) => Some(self.eval(frame, *v)?),
                            None => None,
                        };
                        return Ok(r);
                    }
                    InstKind::Unreachable => return Err(ExecError("reached unreachable".into())),
                    _ => {
                        let v = self.exec_inst(fid, frame, i)?;
                        frame.values[i.index()] = v;
                    }
                }
                if next_block.is_some() {
                    break;
                }
            }
            match next_block {
                Some(nb) => {
                    prev = Some(cur);
                    cur = nb;
                }
                None => return Err(ExecError(format!("block {cur} fell through"))),
            }
        }
    }

    fn tick(&mut self, cost: u64) -> Result<(), ExecError> {
        self.cycles += cost;
        self.insts_executed += 1;
        if self.fuel == 0 {
            return Err(ExecError("fuel exhausted".into()));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn charge_branch(&mut self) -> Result<(), ExecError> {
        let c = self.config.profile.branch_cost;
        self.tick(c)
    }

    fn eval(&self, frame: &Frame, v: Value) -> Result<RtVal, ExecError> {
        Ok(match v {
            Value::Inst(i) => frame.values[i.index()]
                .ok_or_else(|| ExecError(format!("use of unset value {i}")))?,
            Value::Arg(a) => *frame
                .args
                .get(a as usize)
                .ok_or_else(|| ExecError(format!("argument ${a} out of range")))?,
            Value::ConstInt { val, .. } => RtVal::Int(val),
            Value::ConstF64(bits) => RtVal::F64(f64::from_bits(bits)),
            Value::Global(g) => RtVal::Ptr(self.global_base[g.index()]),
            Value::Function(f) => RtVal::Int(f.0 as i64), // function token
            Value::Undef(ty) => match ty {
                Type::F64 => RtVal::F64(0.0),
                Type::Ptr => RtVal::Ptr(0),
                Type::Vec(v) => RtVal::Vec(VecVal::zero(v)),
                _ => RtVal::Int(0),
            },
        })
    }

    fn exec_inst(
        &mut self,
        fid: FuncId,
        frame: &mut Frame,
        id: InstId,
    ) -> Result<Option<RtVal>, ExecError> {
        let f = self.module.func(fid);
        let inst = f.inst(id);
        let prof = self.config.profile;
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                let a = self.eval(frame, *lhs)?;
                let b = self.eval(frame, *rhs)?;
                if let Type::Vec(vt) = inst.ty {
                    let (va, vb) = (a.as_vec()?, b.as_vec()?);
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
                            eval::float_bin(*op, va.lane_f64(i), vb.lane_f64(i))?.to_bits()
                        } else {
                            eval::int_bin(*op, va.lane_i64(i), vb.lane_i64(i), Type::I64)? as u64
                        };
                    }
                    let cost = if *op == BinOp::FDiv {
                        prof.fdiv_cost
                    } else {
                        prof.vec_op_cost
                    };
                    self.tick(cost)?;
                    return Ok(Some(RtVal::Vec(r)));
                }
                let (cost, r) = if op.is_float() {
                    let cost = if *op == BinOp::FDiv {
                        prof.fdiv_cost
                    } else {
                        prof.flop_cost
                    };
                    let r = eval::float_bin(*op, a.as_f64()?, b.as_f64()?)?;
                    (cost, RtVal::F64(r))
                } else {
                    let r = eval::int_bin(*op, a.as_int()?, b.as_int()?, inst.ty)?;
                    (prof.int_cost, RtVal::Int(r))
                };
                self.tick(cost)?;
                Ok(Some(r))
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let a = self.eval(frame, *lhs)?;
                let b = self.eval(frame, *rhs)?;
                let (x, y) = match (a, b) {
                    (RtVal::Ptr(p), RtVal::Ptr(q)) => (p as i64, q as i64),
                    _ => (a.as_int()?, b.as_int()?),
                };
                self.tick(prof.int_cost)?;
                Ok(Some(RtVal::Int(eval::icmp(*pred, x, y) as i64)))
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                let a = self.eval(frame, *lhs)?.as_f64()?;
                let b = self.eval(frame, *rhs)?.as_f64()?;
                self.tick(prof.flop_cost)?;
                Ok(Some(RtVal::Int(eval::fcmp(*pred, a, b) as i64)))
            }
            InstKind::Alloca { mem } => {
                let size = (mem.size_bytes() + 7) & !7;
                let base = self.sp;
                self.sp += size;
                if self.sp >= STACK_BASE + STACK_SIZE {
                    return Err(ExecError("stack overflow".into()));
                }
                // Zero the slot (fresh allocas read as zero).
                for b in &mut self.mem[base as usize..(base + size) as usize] {
                    *b = 0;
                }
                self.tick(prof.int_cost)?;
                Ok(Some(RtVal::Ptr(base)))
            }
            InstKind::Load { ptr } => {
                let addr = self.eval(frame, *ptr)?.as_ptr()?;
                let size = inst.ty.size_bytes();
                self.bytes += size;
                let cost = if inst.ty.is_vector() {
                    prof.vec_mem_cost
                } else {
                    prof.mem_cost
                };
                self.tick(cost)?;
                let v = match inst.ty {
                    Type::F64 => RtVal::F64(f64::from_bits(self.load_u64(addr)?)),
                    Type::Ptr => RtVal::Ptr(self.load_u64(addr)?),
                    Type::I64 => RtVal::Int(self.load_u64(addr)? as i64),
                    Type::I32 => RtVal::Int(self.load_u32(addr)? as i32 as i64),
                    Type::I8 | Type::I1 => RtVal::Int(self.load_u8(addr)? as i8 as i64),
                    Type::Vec(vt) => {
                        let mut r = VecVal::zero(vt);
                        for i in 0..r.lanes() {
                            r.bits[i] = self.load_u64(addr + 8 * i as u64)?;
                        }
                        RtVal::Vec(r)
                    }
                    Type::Void => return Err(ExecError("load of void".into())),
                };
                Ok(Some(v))
            }
            InstKind::Store { val, ptr } => {
                let addr = self.eval(frame, *ptr)?.as_ptr()?;
                let v = self.eval(frame, *val)?;
                let ty = f.value_type(*val);
                self.bytes += ty.size_bytes();
                let cost = if ty.is_vector() {
                    prof.vec_mem_cost
                } else {
                    prof.mem_cost
                };
                self.tick(cost)?;
                match (ty, v) {
                    (Type::Vec(_), RtVal::Vec(x)) => {
                        for i in 0..x.lanes() {
                            self.store_u64(addr + 8 * i as u64, x.bits[i])?;
                        }
                    }
                    (Type::F64, RtVal::F64(x)) => self.store_u64(addr, x.to_bits())?,
                    (Type::Ptr, RtVal::Ptr(p)) => self.store_u64(addr, p)?,
                    (Type::I64, RtVal::Int(x)) => self.store_u64(addr, x as u64)?,
                    (Type::I32, RtVal::Int(x)) => self.store_u32(addr, x as u32)?,
                    (Type::I8 | Type::I1, RtVal::Int(x)) => self.store_u8(addr, x as u8)?,
                    (t, v) => return Err(ExecError(format!("store type mismatch: {t} vs {v:?}"))),
                }
                Ok(None)
            }
            InstKind::Gep {
                elem,
                base,
                indices,
            } => {
                let mut addr = self.eval(frame, *base)?.as_ptr()?;
                let strides = elem.gep_strides();
                for (k, idx) in indices.iter().enumerate() {
                    let i = self.eval(frame, *idx)?.as_int()?;
                    addr = addr.wrapping_add((strides[k] as i64).wrapping_mul(i) as u64);
                }
                self.tick(prof.int_cost)?;
                Ok(Some(RtVal::Ptr(addr)))
            }
            InstKind::Cast { op, val } => {
                let v = self.eval(frame, *val)?;
                if let Type::Vec(vt) = inst.ty {
                    let src = v.as_vec()?;
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
                    self.tick(prof.vec_op_cost)?;
                    return Ok(Some(RtVal::Vec(r)));
                }
                self.tick(prof.int_cost)?;
                let r = match op {
                    CastOp::Bitcast => v,
                    CastOp::SiToFp => RtVal::F64(eval::int_to_float(v.as_int()?)),
                    CastOp::FpToSi => RtVal::Int(eval::float_to_int(v.as_f64()?, inst.ty)),
                    CastOp::Sext | CastOp::Zext | CastOp::Trunc => {
                        let from = f.value_type(*val);
                        RtVal::Int(eval::int_cast(*op, v.as_int()?, from, inst.ty))
                    }
                };
                Ok(Some(r))
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                let c = self.eval(frame, *cond)?.as_int()?;
                let r = if c != 0 {
                    self.eval(frame, *then_val)?
                } else {
                    self.eval(frame, *else_val)?
                };
                self.tick(prof.int_cost)?;
                Ok(Some(r))
            }
            InstKind::Call { callee, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(frame, *a)?);
                }
                match callee {
                    Callee::Func(cid) => {
                        self.tick(prof.call_cost)?;
                        Ok(self.call(*cid, vals)?)
                    }
                    Callee::External(name) => {
                        let nm = self.module.name_of(*name);
                        self.call_external(f, nm, args, vals)
                    }
                }
            }
            InstKind::Splat { val } => {
                let ty = inst
                    .ty
                    .vec_ty()
                    .ok_or_else(|| ExecError("splat to non-vector".into()))?;
                let v = self.eval(frame, *val)?;
                let mut r = VecVal::zero(ty);
                for i in 0..r.lanes() {
                    r.set_lane(i, v)?;
                }
                self.tick(prof.vec_shuffle_cost)?;
                Ok(Some(RtVal::Vec(r)))
            }
            InstKind::ExtractLane { vec, lane } => {
                let v = self.eval(frame, *vec)?.as_vec()?;
                if *lane as usize >= v.lanes() {
                    return Err(ExecError(format!("lane {lane} out of range")));
                }
                self.tick(prof.vec_shuffle_cost)?;
                Ok(Some(v.lane(*lane as usize)))
            }
            InstKind::InsertLane { vec, val, lane } => {
                let mut v = self.eval(frame, *vec)?.as_vec()?;
                if *lane as usize >= v.lanes() {
                    return Err(ExecError(format!("lane {lane} out of range")));
                }
                let x = self.eval(frame, *val)?;
                v.set_lane(*lane as usize, x)?;
                self.tick(prof.vec_shuffle_cost)?;
                Ok(Some(RtVal::Vec(v)))
            }
            InstKind::Reduce { op, acc, vec } => {
                let v = self.eval(frame, *vec)?.as_vec()?;
                let a = self.eval(frame, *acc)?;
                // Ordered fold, lane 0 first; min/max follow the scalar
                // compare+select idiom exactly so devectorized loops are
                // bit-identical.
                let r = if v.ty.elem.is_float() {
                    let mut acc = a.as_f64()?;
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
                    let mut acc = a.as_int()?;
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
                };
                self.tick(prof.vec_shuffle_cost * v.lanes() as u64 / 2)?;
                Ok(Some(r))
            }
            InstKind::DbgValue { .. } | InstKind::Nop => {
                // Debug intrinsics are free.
                Ok(None)
            }
            InstKind::Phi { .. }
            | InstKind::Br { .. }
            | InstKind::CondBr { .. }
            | InstKind::Ret { .. }
            | InstKind::Unreachable => unreachable!("handled by run_frame"),
        }
    }

    fn call_external(
        &mut self,
        f: &splendid_ir::Function,
        name: &str,
        arg_values: &[Value],
        vals: Vec<RtVal>,
    ) -> Result<Option<RtVal>, ExecError> {
        let prof = self.config.profile;
        match name {
            "exp" | "sqrt" | "fabs" | "log" | "sin" | "cos" | "floor" => {
                let x = vals
                    .first()
                    .ok_or_else(|| ExecError(format!("{name} needs an argument")))?
                    .as_f64()?;
                let r = match name {
                    "exp" => x.exp(),
                    "sqrt" => x.sqrt(),
                    "fabs" => x.abs(),
                    "log" => x.ln(),
                    "sin" => x.sin(),
                    "cos" => x.cos(),
                    "floor" => x.floor(),
                    _ => unreachable!(),
                };
                self.tick(prof.mathfn_cost)?;
                Ok(Some(RtVal::F64(r)))
            }
            "pow" => {
                let [x, y] = vals[..] else {
                    return Err(ExecError(format!(
                        "pow needs two arguments, got {}",
                        vals.len()
                    )));
                };
                let (x, y) = (x.as_f64()?, y.as_f64()?);
                self.tick(prof.mathfn_cost)?;
                Ok(Some(RtVal::F64(x.powf(y))))
            }
            KMPC_FORK_CALL | GOMP_PARALLEL => {
                self.exec_fork(f, arg_values, vals)?;
                Ok(None)
            }
            KMPC_FOR_STATIC_INIT | GOMP_LOOP_STATIC_BOUNDS => {
                self.exec_static_init(vals)?;
                Ok(None)
            }
            KMPC_FOR_STATIC_FINI => {
                self.tick(self.config.sched_overhead)?;
                Ok(None)
            }
            KMPC_BARRIER | GOMP_BARRIER => {
                self.tick(self.config.barrier_overhead)?;
                Ok(None)
            }
            // The decompiler's pragma and simd markers are metadata;
            // executing a detransformed (pre-emission) module treats
            // them as free.
            "splendid.omp.mark" | "splendid.simd.mark" => Ok(None),
            other => Err(ExecError(format!("call to unknown external '{other}'"))),
        }
    }

    /// Execute a fork: run the outlined region once per logical core,
    /// sequentially (DOALL regions are race-free, so sequential thread
    /// execution is observationally equivalent), charging
    /// `fork_overhead + max(per-thread cycles)` bounded below by the memory
    /// bandwidth ceiling.
    fn exec_fork(
        &mut self,
        _f: &splendid_ir::Function,
        arg_values: &[Value],
        vals: Vec<RtVal>,
    ) -> Result<(), ExecError> {
        if self.in_parallel {
            return Err(ExecError(
                "nested parallel regions are not supported".into(),
            ));
        }
        let Some(Value::Function(region)) = arg_values.first().copied() else {
            return Err(ExecError(
                "fork call must take a function as first operand".into(),
            ));
        };
        let region_args: Vec<RtVal> = vals[1..].to_vec();
        let cores = self.config.cores.max(1);
        let saved_cycles = self.cycles;
        let saved_bytes = self.bytes;
        let mut max_thread = 0u64;
        let mut region_bytes = 0u64;
        self.in_parallel = true;
        for tid in 0..cores {
            self.cycles = 0;
            self.bytes = 0;
            let mut args = vec![RtVal::Int(tid as i64)];
            args.extend(region_args.iter().copied());
            let r = self.call(region, args);
            if let Err(e) = r {
                self.in_parallel = false;
                return Err(e);
            }
            max_thread = max_thread.max(self.cycles);
            region_bytes += self.bytes;
        }
        self.in_parallel = false;
        let bandwidth_floor = (region_bytes as f64 / self.config.mem_bandwidth) as u64;
        let region_time = max_thread.max(bandwidth_floor) + self.config.fork_overhead;
        self.cycles = saved_cycles + region_time;
        self.bytes = saved_bytes + region_bytes;
        Ok(())
    }

    /// `(tid, p_lb, p_ub, step, chunk, orig_lb, orig_ub_incl)`: write this
    /// thread's static chunk into `p_lb`/`p_ub` (inclusive bounds).
    fn exec_static_init(&mut self, vals: Vec<RtVal>) -> Result<(), ExecError> {
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
        self.store_u64(p_lb, lb as u64)?;
        self.store_u64(p_ub, ub as u64)?;
        self.tick(self.config.sched_overhead)?;
        Ok(())
    }

    // ---- raw memory -----------------------------------------------------

    fn check(&self, addr: u64, size: u64) -> Result<usize, ExecError> {
        let end = addr
            .checked_add(size)
            .ok_or_else(|| ExecError("address overflow".into()))?;
        if addr < 8 || end > self.mem.len() as u64 {
            return Err(ExecError(format!(
                "out-of-bounds access at {addr:#x} (+{size})"
            )));
        }
        Ok(addr as usize)
    }

    fn load_u64(&self, addr: u64) -> Result<u64, ExecError> {
        let a = self.check(addr, 8)?;
        Ok(u64::from_le_bytes(self.mem[a..a + 8].try_into().unwrap()))
    }

    fn load_u32(&self, addr: u64) -> Result<u32, ExecError> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()))
    }

    fn load_u8(&self, addr: u64) -> Result<u8, ExecError> {
        let a = self.check(addr, 1)?;
        Ok(self.mem[a])
    }

    fn store_u64(&mut self, addr: u64, v: u64) -> Result<(), ExecError> {
        let a = self.check(addr, 8)?;
        self.mem[a..a + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn store_u32(&mut self, addr: u64, v: u32) -> Result<(), ExecError> {
        let a = self.check(addr, 4)?;
        self.mem[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn store_u8(&mut self, addr: u64, v: u8) -> Result<(), ExecError> {
        let a = self.check(addr, 1)?;
        self.mem[a] = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CompilerProfile, MachineConfig};
    use splendid_cfront::{lower_program, parse_program, LowerOptions, OmpRuntime};
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
