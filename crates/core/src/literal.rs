//! Literal fidelity tier: statement-per-instruction C emission.
//!
//! The bottom rung of the fidelity ladder (see `pipeline`). Every
//! result-bearing instruction becomes one C assignment to a numbered
//! variable, every basic block becomes a label, and every branch becomes
//! a `goto` — no loop reconstruction, no expression folding, no name
//! recovery. The output is ugly but mechanically derived from the IR,
//! which is what makes it *always available*: when the natural and
//! structured tiers fail (or are sabotaged by a fault plan), this tier
//! still emits semantics-preserving, recompilable C.
//!
//! Phi nodes are resolved with two-phase parallel copies on each
//! incoming edge (`t = src; ...; dst = t;`), which is immune to the
//! classic swap/lost-copy hazards. Gep address computations are never
//! materialized; they fold into `A[i][j]` index expressions at each use,
//! mirroring the structurer's lvalue rules.

use crate::cmap::{self, ctype_of};
use crate::detransform::decode_marker;
use crate::devectorize::decode_simd_marker;
use crate::error::{SplendidError, Stage};
use splendid_cfront::ast::{CBinOp, CExpr, CFunc, CStmt, CType};
use splendid_ir::{
    BinOp, BlockId, Callee, CastOp, Function, InstId, InstKind, MemType, Module, ReduceOp, Type,
    Value,
};
use std::collections::{HashMap, HashSet};

/// Result of literal-tier emission for one function.
#[derive(Debug, Clone)]
pub struct LiteralFunc {
    /// The emitted C function.
    pub cfunc: CFunc,
    /// `goto` statements emitted (every branch is one).
    pub gotos: usize,
    /// Local variables declared.
    pub vars: usize,
}

fn scalar_ctype(t: Type) -> CType {
    match t {
        Type::F64 => CType::Double,
        _ => CType::Long,
    }
}

/// Phi copies scheduled on one CFG edge: (dst, temp, incoming value).
type EdgeCopies = HashMap<(BlockId, BlockId), Vec<(String, String, Value)>>;

struct LiteralEmitter<'a> {
    module: &'a Module,
    f: &'a Function,
    /// Variable name per result-bearing instruction (None for folded or
    /// skipped instructions).
    names: Vec<Option<String>>,
    /// Per-edge phi copies: (pred, succ) -> [(dst, temp, incoming)].
    edge_copies: EdgeCopies,
    gotos: usize,
}

fn err(module: &Module, f: &Function, msg: impl Into<String>) -> SplendidError {
    SplendidError::fatal(Stage::Emit, msg).in_function(module.name_of(f.name))
}

/// Emit `f` at the literal tier.
pub fn emit_literal(module: &Module, f: &Function) -> Result<LiteralFunc, SplendidError> {
    let owners = f.inst_blocks();

    // Reject out-of-arena or unplaced operand references up front so the
    // body emitters below can index freely.
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            if i.index() >= f.insts.len() {
                return Err(err(
                    module,
                    f,
                    format!("block references out-of-arena inst %{}", i.0),
                ));
            }
            let mut bad = None;
            f.inst(i).kind.for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    if d.index() >= f.insts.len() {
                        bad = Some(format!("operand references out-of-arena inst %{}", d.0));
                    } else if owners[d.index()].is_none() {
                        bad = Some(format!("operand references unplaced inst %{}", d.0));
                    }
                }
            });
            if let Some(msg) = bad {
                return Err(err(module, f, msg));
            }
            let mut bad_target = None;
            for s in f.inst(i).kind.successors() {
                if s.index() >= f.blocks.len() {
                    bad_target = Some(format!("branch targets missing block bb{}", s.0));
                }
            }
            if let Some(msg) = bad_target {
                return Err(err(module, f, msg));
            }
        }
    }

    // Pick a variable prefix that cannot collide with params, globals,
    // or function names ("v12" is someone's parameter surprisingly often
    // in register-named modules).
    let mut taken: HashSet<&str> = f.params.iter().map(|p| module.name_of(p.name)).collect();
    taken.extend(module.globals.iter().map(|g| module.name_of(g.name)));
    taken.extend(module.functions.iter().map(|g| module.name_of(g.name)));
    let collides = |prefix: &str| {
        taken.iter().any(|t| {
            t.strip_prefix(prefix)
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        })
    };
    let (vp, tp) = [("v", "t"), ("lv", "lt"), ("zv", "zt")]
        .into_iter()
        .find(|(v, t)| !collides(v) && !collides(t))
        .unwrap_or(("zzv", "zzt"));

    let mut names: Vec<Option<String>> = vec![None; f.insts.len()];
    let mut temps = HashMap::new();
    let mut decls: Vec<CStmt> = Vec::new();
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            let inst = f.inst(i);
            if decode_marker(&module.symbols, &inst.kind).is_some()
                || decode_simd_marker(&module.symbols, &inst.kind).is_some()
            {
                continue;
            }
            match &inst.kind {
                InstKind::Alloca { mem } => {
                    let name = format!("{vp}{}", i.0);
                    let ty = match mem {
                        MemType::Scalar(t) => scalar_ctype(*t),
                        MemType::Array { elem, dims } => CType::Array(
                            Box::new(scalar_ctype(*elem)),
                            dims.iter().map(|&d| d as usize).collect(),
                        ),
                    };
                    decls.push(CStmt::Decl {
                        name: name.clone(),
                        ty,
                        init: None,
                    });
                    names[i.index()] = Some(name);
                }
                InstKind::Gep { .. } => {} // folded at each use
                // Vector values become one scalar variable per lane
                // (`v7_0 .. v7_3`): the lane-explicit bottom rung for IR
                // the devectorizer did not recognize.
                _ if inst.ty.is_vector() => {
                    if matches!(inst.kind, InstKind::Phi { .. }) {
                        return Err(err(
                            module,
                            f,
                            format!("vector phi %{} has no literal form", i.0),
                        ));
                    }
                    let name = format!("{vp}{}", i.0);
                    let (lanes, lane_ty) = match inst.ty.vec_ty() {
                        Some(vt) if vt.elem.is_float() => (vt.lanes, CType::Double),
                        Some(vt) => (vt.lanes, CType::Long),
                        None => unreachable!("is_vector implies vec_ty"),
                    };
                    for l in 0..lanes {
                        decls.push(CStmt::Decl {
                            name: format!("{name}_{l}"),
                            ty: lane_ty.clone(),
                            init: None,
                        });
                    }
                    names[i.index()] = Some(name);
                }
                _ if inst.has_result() => {
                    let name = format!("{vp}{}", i.0);
                    decls.push(CStmt::Decl {
                        name: name.clone(),
                        ty: ctype_of(inst.ty),
                        init: None,
                    });
                    names[i.index()] = Some(name.clone());
                    if matches!(inst.kind, InstKind::Phi { .. }) {
                        let t = format!("{tp}{}", i.0);
                        decls.push(CStmt::Decl {
                            name: t.clone(),
                            ty: ctype_of(inst.ty),
                            init: None,
                        });
                        temps.insert(i, t);
                    }
                }
                _ => {}
            }
        }
    }
    let vars = decls.len();

    // Phi copies, grouped per incoming edge.
    let mut edge_copies: EdgeCopies = HashMap::new();
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            if let InstKind::Phi { incomings } = &f.inst(i).kind {
                let dst = match &names[i.index()] {
                    Some(n) => n.clone(),
                    None => return Err(err(module, f, format!("void phi %{}", i.0))),
                };
                let tmp = temps
                    .get(&i)
                    .cloned()
                    .unwrap_or_else(|| format!("{tp}{}", i.0));
                for (pred, val) in incomings {
                    edge_copies.entry((*pred, bb)).or_default().push((
                        dst.clone(),
                        tmp.clone(),
                        *val,
                    ));
                }
            }
        }
    }

    let mut em = LiteralEmitter {
        module,
        f,
        names,
        edge_copies,
        gotos: 0,
    };

    let mut body = decls;
    body.push(CStmt::Goto(format!("L{}", f.entry.0)));
    em.gotos += 1;
    for bb in f.block_ids() {
        body.push(CStmt::Label(format!("L{}", bb.0)));
        em.emit_block(bb, &mut body)?;
    }

    let cfunc = CFunc {
        name: module.name_of(f.name).to_string(),
        ret: ctype_of(f.ret_ty),
        params: f
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let pname = module.name_of(p.name);
                let name = if pname.is_empty() {
                    format!("{vp}arg{i}")
                } else {
                    pname.to_string()
                };
                (name, ctype_of(p.ty))
            })
            .collect(),
        body,
    };
    Ok(LiteralFunc {
        cfunc,
        gotos: em.gotos,
        vars,
    })
}

impl<'a> LiteralEmitter<'a> {
    fn name_of(&self, id: InstId) -> Result<String, SplendidError> {
        self.names[id.index()].clone().ok_or_else(|| {
            err(
                self.module,
                self.f,
                format!("no variable for inst %{}", id.0),
            )
        })
    }

    /// The C expression for a value used as an operand. Instruction
    /// results read their variable; geps fold into index expressions.
    fn operand(&self, v: Value) -> Result<CExpr, SplendidError> {
        match v {
            Value::ConstInt { val, .. } => Ok(CExpr::Int(val)),
            Value::ConstF64(bits) => Ok(CExpr::Float(f64::from_bits(bits))),
            Value::Arg(a) => {
                let p = self.f.params.get(a as usize).ok_or_else(|| {
                    err(
                        self.module,
                        self.f,
                        format!("operand references missing arg {a}"),
                    )
                })?;
                Ok(CExpr::ident(self.module.name_of(p.name)))
            }
            Value::Global(g) => {
                let glob = self.module.globals.get(g.index()).ok_or_else(|| {
                    err(
                        self.module,
                        self.f,
                        format!("missing global @{}", g.index()),
                    )
                })?;
                Ok(CExpr::ident(self.module.name_of(glob.name)))
            }
            Value::Function(fid) => {
                let func = self.module.functions.get(fid.index()).ok_or_else(|| {
                    err(
                        self.module,
                        self.f,
                        format!("missing function #{}", fid.index()),
                    )
                })?;
                Ok(CExpr::ident(self.module.name_of(func.name)))
            }
            Value::Undef(t) => Ok(match t {
                Type::F64 => CExpr::Float(0.0),
                _ => CExpr::Int(0),
            }),
            Value::Inst(id) => match &self.f.inst(id).kind {
                // An address used as a plain value prints as the indexed
                // element it denotes, mirroring the structurer.
                InstKind::Gep { .. } => self.lvalue(v),
                _ => Ok(CExpr::ident(self.name_of(id)?)),
            },
        }
    }

    /// The C lvalue an address computes: `A[i][j]`, `p[0]`, `x`.
    fn lvalue(&self, addr: Value) -> Result<CExpr, SplendidError> {
        match addr {
            Value::Global(_) => self.operand(addr),
            Value::Arg(_) => Ok(CExpr::Index {
                base: Box::new(self.operand(addr)?),
                indices: vec![CExpr::Int(0)],
            }),
            Value::Inst(id) => match &self.f.inst(id).kind {
                InstKind::Gep {
                    elem,
                    base,
                    indices,
                } => {
                    let base_expr = match base {
                        Value::Inst(b)
                            if matches!(self.f.inst(*b).kind, InstKind::Alloca { .. }) =>
                        {
                            CExpr::ident(self.name_of(*b)?)
                        }
                        other => self.operand(*other)?,
                    };
                    let mut idx = indices
                        .iter()
                        .map(|i| self.operand(*i))
                        .collect::<Result<Vec<_>, _>>()?;
                    if matches!(elem, MemType::Array { .. }) && idx.first() == Some(&CExpr::Int(0))
                    {
                        idx.remove(0);
                    }
                    if idx.is_empty() {
                        idx.push(CExpr::Int(0));
                    }
                    Ok(CExpr::Index {
                        base: Box::new(base_expr),
                        indices: idx,
                    })
                }
                InstKind::Alloca { mem } => {
                    let name = CExpr::ident(self.name_of(id)?);
                    Ok(match mem {
                        // A scalar alloca *is* the C variable.
                        MemType::Scalar(_) => name,
                        MemType::Array { .. } => CExpr::Index {
                            base: Box::new(name),
                            indices: vec![CExpr::Int(0)],
                        },
                    })
                }
                _ => Ok(CExpr::Index {
                    base: Box::new(self.operand(addr)?),
                    indices: vec![CExpr::Int(0)],
                }),
            },
            other => Ok(CExpr::Index {
                base: Box::new(self.operand(other)?),
                indices: vec![CExpr::Int(0)],
            }),
        }
    }

    /// True when a value is vector-typed (lane-split in this tier).
    fn is_vector_value(&self, v: Value) -> bool {
        match v {
            Value::Inst(id) => self.f.inst(id).ty.is_vector(),
            Value::Undef(t) => t.is_vector(),
            _ => false,
        }
    }

    /// Lane count of a vector-typed value.
    fn lanes_of(&self, v: Value) -> Result<u8, SplendidError> {
        let lanes = match v {
            Value::Inst(id) => self.f.inst(id).ty.lanes(),
            Value::Undef(t) => t.lanes(),
            _ => None,
        };
        lanes.ok_or_else(|| {
            err(
                self.module,
                self.f,
                format!("expected a vector value, got {v:?}"),
            )
        })
    }

    /// The per-lane variable of a vector-valued instruction.
    fn lane_name(&self, id: InstId, lane: u8) -> Result<String, SplendidError> {
        Ok(format!("{}_{lane}", self.name_of(id)?))
    }

    /// The C expression for one lane of a vector operand.
    fn lane_operand(&self, v: Value, lane: u8) -> Result<CExpr, SplendidError> {
        match v {
            Value::Inst(id) if self.f.inst(id).ty.is_vector() => {
                Ok(CExpr::ident(self.lane_name(id, lane)?))
            }
            Value::Undef(t) if t.is_vector() => Ok(match t.vec_ty() {
                Some(vt) if vt.elem.is_float() => CExpr::Float(0.0),
                _ => CExpr::Int(0),
            }),
            other => Err(err(
                self.module,
                self.f,
                format!("non-vector operand {other:?} in a vector context"),
            )),
        }
    }

    /// The element lvalue `lane` steps past a wide access's address:
    /// `A[i]` -> `A[i + lane]`.
    fn lane_lvalue(&self, ptr: Value, lane: u8) -> Result<CExpr, SplendidError> {
        let base = self.lvalue(ptr)?;
        if lane == 0 {
            return Ok(base);
        }
        match base {
            CExpr::Index { base, mut indices } => {
                if let Some(last) = indices.last_mut() {
                    *last = CExpr::bin(CBinOp::Add, last.clone(), CExpr::Int(lane as i64));
                }
                Ok(CExpr::Index { base, indices })
            }
            other => Err(err(
                self.module,
                self.f,
                format!("wide access through non-indexable address {other:?}"),
            )),
        }
    }

    fn rvalue(&self, id: InstId) -> Result<CExpr, SplendidError> {
        let inst = self.f.inst(id);
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => Ok(CExpr::bin(
                cmap::binop(*op, inst.ty),
                self.operand(*lhs)?,
                self.operand(*rhs)?,
            )),
            InstKind::ICmp { pred, lhs, rhs } => Ok(CExpr::bin(
                cmap::ipred(*pred),
                self.operand(*lhs)?,
                self.operand(*rhs)?,
            )),
            InstKind::FCmp { pred, lhs, rhs } => Ok(CExpr::bin(
                cmap::fpred(*pred),
                self.operand(*lhs)?,
                self.operand(*rhs)?,
            )),
            InstKind::Load { ptr } => self.lvalue(*ptr),
            InstKind::Cast { op, val } => Ok(cmap::cast(*op, self.operand(*val)?)),
            InstKind::Call { callee, args } => {
                let name = match callee {
                    Callee::Func(fid) => {
                        let callee_fn =
                            self.module.functions.get(fid.index()).ok_or_else(|| {
                                err(
                                    self.module,
                                    self.f,
                                    format!("call to missing function #{}", fid.index()),
                                )
                            })?;
                        self.module.name_of(callee_fn.name).to_string()
                    }
                    Callee::External(n) => self.module.name_of(*n).to_string(),
                };
                Ok(CExpr::Call {
                    name,
                    args: args
                        .iter()
                        .map(|a| self.operand(*a))
                        .collect::<Result<Vec<_>, _>>()?,
                })
            }
            other => Err(err(
                self.module,
                self.f,
                format!("no literal expression for {other:?}"),
            )),
        }
    }

    fn assign(&self, name: String, rhs: CExpr) -> CStmt {
        CStmt::Expr(CExpr::Assign {
            lhs: Box::new(CExpr::Ident(name)),
            op: None,
            rhs: Box::new(rhs),
        })
    }

    /// Phi parallel copies for the edge `from -> to`, then `goto L<to>`.
    fn emit_edge(&mut self, from: BlockId, to: BlockId) -> Result<Vec<CStmt>, SplendidError> {
        let mut out = Vec::new();
        if let Some(copies) = self.edge_copies.get(&(from, to)).cloned() {
            for (_, tmp, val) in &copies {
                let rhs = self.operand(*val)?;
                out.push(self.assign(tmp.clone(), rhs));
            }
            for (dst, tmp, _) in &copies {
                out.push(self.assign(dst.clone(), CExpr::ident(tmp.clone())));
            }
        }
        out.push(CStmt::Goto(format!("L{}", to.0)));
        self.gotos += 1;
        Ok(out)
    }

    fn emit_block(&mut self, bb: BlockId, out: &mut Vec<CStmt>) -> Result<(), SplendidError> {
        for &i in &self.f.block(bb).insts.clone() {
            let inst = self.f.inst(i);
            if decode_marker(&self.module.symbols, &inst.kind).is_some()
                || decode_simd_marker(&self.module.symbols, &inst.kind).is_some()
            {
                continue;
            }
            match &inst.kind {
                InstKind::DbgValue { .. }
                | InstKind::Nop
                | InstKind::Phi { .. }
                | InstKind::Alloca { .. }
                | InstKind::Gep { .. } => {}
                InstKind::Splat { val } => {
                    let e = self.operand(*val)?;
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        out.push(self.assign(self.lane_name(i, l)?, e.clone()));
                    }
                }
                InstKind::ExtractLane { vec, lane } => {
                    let rhs = self.lane_operand(*vec, *lane)?;
                    let name = self.name_of(i)?;
                    out.push(self.assign(name, rhs));
                }
                InstKind::InsertLane { vec, val, lane } => {
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        let rhs = if l == *lane {
                            self.operand(*val)?
                        } else {
                            self.lane_operand(*vec, l)?
                        };
                        out.push(self.assign(self.lane_name(i, l)?, rhs));
                    }
                }
                InstKind::Reduce { op, acc, vec } => {
                    // Ordered left-to-right fold, matching the
                    // interpreter's (and the scalar loop's) semantics.
                    let name = self.name_of(i)?;
                    out.push(self.assign(name.clone(), self.operand(*acc)?));
                    for l in 0..self.lanes_of(*vec)? {
                        let lane = self.lane_operand(*vec, l)?;
                        match op {
                            ReduceOp::Add => out.push(self.assign(
                                name.clone(),
                                CExpr::bin(CBinOp::Add, CExpr::ident(name.clone()), lane),
                            )),
                            ReduceOp::Min | ReduceOp::Max => {
                                let cmp = if *op == ReduceOp::Min {
                                    CBinOp::Lt
                                } else {
                                    CBinOp::Gt
                                };
                                out.push(CStmt::If {
                                    cond: CExpr::bin(cmp, lane.clone(), CExpr::ident(name.clone())),
                                    then_body: vec![self.assign(name.clone(), lane)],
                                    else_body: vec![],
                                });
                            }
                        }
                    }
                }
                InstKind::Load { ptr } if inst.ty.is_vector() => {
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        let rhs = self.lane_lvalue(*ptr, l)?;
                        out.push(self.assign(self.lane_name(i, l)?, rhs));
                    }
                }
                InstKind::Store { val, ptr } if self.is_vector_value(*val) => {
                    for l in 0..self.lanes_of(*val)? {
                        let lhs = self.lane_lvalue(*ptr, l)?;
                        let rhs = self.lane_operand(*val, l)?;
                        out.push(CStmt::Expr(CExpr::Assign {
                            lhs: Box::new(lhs),
                            op: None,
                            rhs: Box::new(rhs),
                        }));
                    }
                }
                InstKind::Bin { op, lhs, rhs } if inst.ty.is_vector() => {
                    let cop = match op {
                        BinOp::Add | BinOp::FAdd => CBinOp::Add,
                        BinOp::Sub | BinOp::FSub => CBinOp::Sub,
                        BinOp::Mul | BinOp::FMul => CBinOp::Mul,
                        BinOp::SDiv | BinOp::FDiv => CBinOp::Div,
                        BinOp::SRem => CBinOp::Rem,
                        BinOp::And => CBinOp::BAnd,
                        BinOp::Or => CBinOp::BOr,
                        BinOp::Xor => CBinOp::BXor,
                        BinOp::Shl => CBinOp::Shl,
                        BinOp::AShr => CBinOp::Shr,
                    };
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        let e = CExpr::bin(
                            cop,
                            self.lane_operand(*lhs, l)?,
                            self.lane_operand(*rhs, l)?,
                        );
                        out.push(self.assign(self.lane_name(i, l)?, e));
                    }
                }
                InstKind::Cast { op, val } if inst.ty.is_vector() => {
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        let e = self.lane_operand(*val, l)?;
                        let e = match op {
                            CastOp::SiToFp => CExpr::Cast {
                                ty: CType::Double,
                                expr: Box::new(e),
                            },
                            CastOp::FpToSi => CExpr::Cast {
                                ty: CType::Long,
                                expr: Box::new(e),
                            },
                            _ => e,
                        };
                        out.push(self.assign(self.lane_name(i, l)?, e));
                    }
                }
                InstKind::Store { val, ptr } => {
                    let lhs = self.lvalue(*ptr)?;
                    let rhs = self.operand(*val)?;
                    out.push(CStmt::Expr(CExpr::Assign {
                        lhs: Box::new(lhs),
                        op: None,
                        rhs: Box::new(rhs),
                    }));
                }
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    let name = self.name_of(i)?;
                    let c = self.operand(*cond)?;
                    let t = self.operand(*then_val)?;
                    let e = self.operand(*else_val)?;
                    out.push(CStmt::If {
                        cond: c,
                        then_body: vec![self.assign(name.clone(), t)],
                        else_body: vec![self.assign(name, e)],
                    });
                }
                InstKind::Br { target } => {
                    let stmts = self.emit_edge(bb, *target)?;
                    out.extend(stmts);
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.operand(*cond)?;
                    let then_body = self.emit_edge(bb, *then_bb)?;
                    let else_body = self.emit_edge(bb, *else_bb)?;
                    out.push(CStmt::If {
                        cond: c,
                        then_body,
                        else_body,
                    });
                }
                InstKind::Ret { val } => {
                    let v = val.map(|v| self.operand(v)).transpose()?;
                    out.push(CStmt::Return(v));
                }
                InstKind::Unreachable => {
                    out.push(CStmt::Return(match self.f.ret_ty {
                        Type::Void => None,
                        Type::F64 => Some(CExpr::Float(0.0)),
                        _ => Some(CExpr::Int(0)),
                    }));
                }
                InstKind::Call { .. } if !inst.has_result() => {
                    out.push(CStmt::Expr(self.rvalue(i)?));
                }
                _ if inst.has_result() => {
                    let name = self.name_of(i)?;
                    let rhs = self.rvalue(i)?;
                    out.push(self.assign(name, rhs));
                }
                other => {
                    return Err(err(
                        self.module,
                        self.f,
                        format!("no literal statement for {other:?}"),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::{IPred, Inst};

    fn simple_loop_module() -> Module {
        // long f(long n) { s = 0; for (i = 0; i < n; i++) s += i; return s; }
        // built directly in (rotated) IR with a phi cycle.
        let mut m = Module::new("lit");
        let mut f = Function::new(&mut m.symbols, "f", &[("n", Type::I64)], Type::I64);
        let entry = f.entry;
        let header = {
            let n = m.symbols.intern("header");
            f.add_block(n)
        };
        let exit = {
            let n = m.symbols.intern("exit");
            f.add_block(n)
        };
        use InstKind::*;
        let guard = f.append_inst(
            entry,
            Inst::new(
                ICmp {
                    pred: IPred::Sgt,
                    lhs: Value::Arg(0),
                    rhs: Value::i64(0),
                },
                Type::I1,
            ),
        );
        f.append_inst(
            entry,
            Inst::new(
                CondBr {
                    cond: Value::Inst(guard),
                    then_bb: header,
                    else_bb: exit,
                },
                Type::Void,
            ),
        );
        // header: i = phi [entry: 0] [header: i+1]; s = phi [entry: 0] [header: s+i]
        let i_phi = f.append_inst(
            header,
            Inst::new(
                Phi {
                    incomings: vec![(entry, Value::i64(0))],
                },
                Type::I64,
            ),
        );
        let s_phi = f.append_inst(
            header,
            Inst::new(
                Phi {
                    incomings: vec![(entry, Value::i64(0))],
                },
                Type::I64,
            ),
        );
        let s_next = f.append_inst(
            header,
            Inst::new(
                Bin {
                    op: BinOp::Add,
                    lhs: Value::Inst(s_phi),
                    rhs: Value::Inst(i_phi),
                },
                Type::I64,
            ),
        );
        let i_next = f.append_inst(
            header,
            Inst::new(
                Bin {
                    op: BinOp::Add,
                    lhs: Value::Inst(i_phi),
                    rhs: Value::i64(1),
                },
                Type::I64,
            ),
        );
        let cmp = f.append_inst(
            header,
            Inst::new(
                ICmp {
                    pred: IPred::Slt,
                    lhs: Value::Inst(i_next),
                    rhs: Value::Arg(0),
                },
                Type::I1,
            ),
        );
        f.append_inst(
            header,
            Inst::new(
                CondBr {
                    cond: Value::Inst(cmp),
                    then_bb: header,
                    else_bb: exit,
                },
                Type::Void,
            ),
        );
        if let Phi { incomings } = &mut f.insts[i_phi.index()].kind {
            incomings.push((header, Value::Inst(i_next)));
        }
        if let Phi { incomings } = &mut f.insts[s_phi.index()].kind {
            incomings.push((header, Value::Inst(s_next)));
        }
        // exit: r = phi [entry: 0] [header: s_next]; ret r
        let r_phi = f.append_inst(
            exit,
            Inst::new(
                Phi {
                    incomings: vec![(entry, Value::i64(0)), (header, Value::Inst(s_next))],
                },
                Type::I64,
            ),
        );
        f.append_inst(
            exit,
            Inst::new(
                Ret {
                    val: Some(Value::Inst(r_phi)),
                },
                Type::I64,
            ),
        );
        m.push_function(f);
        m
    }

    #[test]
    fn emits_labels_gotos_and_phi_copies() {
        let m = simple_loop_module();
        let lit = emit_literal(&m, m.func(m.func_ids().next().unwrap())).unwrap();
        let src = splendid_cfront::ast::print_func(&lit.cfunc);
        assert!(src.contains("goto L0;"), "{src}");
        assert!(src.contains("L1:"), "{src}");
        assert!(lit.gotos >= 4, "every edge is a goto: {src}");
        assert!(lit.vars >= 6, "phi temps and results declared: {src}");
    }

    #[test]
    fn literal_output_recompiles_to_equivalent_ir() {
        use splendid_cfront::{lower_program, parse_program, LowerOptions};
        use splendid_interp::{MachineConfig, RtVal, Vm};
        let m = simple_loop_module();
        let lit = emit_literal(&m, m.func(m.func_ids().next().unwrap())).unwrap();
        let src = splendid_cfront::ast::print_func(&lit.cfunc);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("recompile parse: {e}\n{src}"));
        let m2 = lower_program(&prog, "relit", &LowerOptions::default())
            .unwrap_or_else(|e| panic!("recompile lower: {e}\n{src}"));
        // sum 0..n for n=10 is 45 — interpret the recompiled module.
        let mut vm = Vm::new(&m2, MachineConfig::default());
        let got = vm.call_by_name("f", &[RtVal::Int(10)]).unwrap();
        assert!(matches!(got, Some(RtVal::Int(45))), "{got:?}\n{src}");
    }

    #[test]
    fn rejects_out_of_arena_operands() {
        let mut m = Module::new("bad");
        let mut f = Function::new(&mut m.symbols, "boom", &[], Type::I64);
        let entry = f.entry;
        f.append_inst(
            entry,
            Inst::new(
                InstKind::Ret {
                    val: Some(Value::Inst(InstId(4242))),
                },
                Type::I64,
            ),
        );
        m.push_function(f);
        let e = emit_literal(&m, m.func(m.func_ids().next().unwrap())).unwrap_err();
        assert_eq!(e.stage, Stage::Emit);
        assert!(e.message.contains("out-of-arena"), "{e}");
    }
}
