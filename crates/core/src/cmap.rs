//! The IR → C vocabulary every emitter shares: operators, casts,
//! declared types, and the value translator that turns operands,
//! addresses and instruction results into C expressions. The structured
//! and literal tiers, the module-level global declarations and the
//! baselines must agree on these, so each mapping is defined once, here.

use splendid_cfront::ast::{CBinOp, CExpr, CStmt, CType};
use splendid_ir::{
    BinOp, BlockId, Callee, CastOp, FPred, Function, IPred, InstId, InstKind, MemType, Module,
    Type, Value,
};

/// C operator for IR binary `op` producing a value of type `ty`: `and`
/// and `or` on `i1` are the logical operators.
pub(crate) fn binop(op: BinOp, ty: Type) -> CBinOp {
    match op {
        BinOp::Add | BinOp::FAdd => CBinOp::Add,
        BinOp::Sub | BinOp::FSub => CBinOp::Sub,
        BinOp::Mul | BinOp::FMul => CBinOp::Mul,
        BinOp::SDiv | BinOp::FDiv => CBinOp::Div,
        BinOp::SRem => CBinOp::Rem,
        BinOp::And if ty == Type::I1 => CBinOp::LAnd,
        BinOp::And => CBinOp::BAnd,
        BinOp::Or if ty == Type::I1 => CBinOp::LOr,
        BinOp::Or => CBinOp::BOr,
        BinOp::Xor => CBinOp::BXor,
        BinOp::Shl => CBinOp::Shl,
        BinOp::AShr => CBinOp::Shr,
    }
}

/// C comparison for an integer predicate.
pub(crate) fn ipred(pred: IPred) -> CBinOp {
    match pred {
        IPred::Eq => CBinOp::Eq,
        IPred::Ne => CBinOp::Ne,
        IPred::Slt => CBinOp::Lt,
        IPred::Sle => CBinOp::Le,
        IPred::Sgt => CBinOp::Gt,
        IPred::Sge => CBinOp::Ge,
    }
}

/// C comparison for an ordered float predicate.
pub(crate) fn fpred(pred: FPred) -> CBinOp {
    match pred {
        FPred::Oeq => CBinOp::Eq,
        FPred::One => CBinOp::Ne,
        FPred::Olt => CBinOp::Lt,
        FPred::Ole => CBinOp::Le,
        FPred::Ogt => CBinOp::Gt,
        FPred::Oge => CBinOp::Ge,
    }
}

/// `e` converted by IR cast `op`. Width-only conversions are invisible in
/// the 64-bit C subset.
pub(crate) fn cast(op: CastOp, e: CExpr) -> CExpr {
    let ty = match op {
        CastOp::SiToFp => CType::Double,
        CastOp::FpToSi => CType::Long,
        _ => return e,
    };
    CExpr::Cast {
        ty,
        expr: Box::new(e),
    }
}

/// C scalar type used when declaring a value of IR type `t`.
pub(crate) fn ctype_of(t: Type) -> CType {
    match t {
        Type::Void => CType::Void,
        Type::F64 => CType::Double,
        Type::Ptr => CType::Ptr(Box::new(CType::Double)),
        Type::I1 => CType::Int,
        _ => CType::Long,
    }
}

/// C type of a global or local of memory type `mem`.
pub fn ctype_of_mem(mem: &MemType) -> CType {
    let scalar = |t: Type| match t {
        Type::F64 => CType::Double,
        Type::Ptr => CType::Ptr(Box::new(CType::Double)),
        _ => CType::Long,
    };
    match mem {
        MemType::Scalar(t) => scalar(*t),
        MemType::Array { elem, dims } => CType::Array(
            Box::new(scalar(*elem)),
            dims.iter().map(|d| *d as usize).collect(),
        ),
    }
}

/// `lhs = rhs;`
pub(crate) fn assign(lhs: CExpr, rhs: CExpr) -> CStmt {
    CStmt::Expr(CExpr::Assign {
        lhs: Box::new(lhs),
        op: None,
        rhs: Box::new(rhs),
    })
}

/// Reject every reference the [`Translator`] and the structurer's
/// analyses would index out of range: arguments, globals, functions,
/// instructions and blocks, and uses of instructions placed in no block.
/// Every emitter runs this once, up front, so the rules below index
/// freely.
pub(crate) fn check_refs(module: &Module, f: &Function) -> Result<(), String> {
    let mut placed = vec![false; f.insts.len()];
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            *placed
                .get_mut(i.index())
                .ok_or_else(|| format!("block references out-of-arena inst %{}", i.0))? = true;
        }
    }
    let bad_value = |v: Value| match v {
        Value::Arg(a) if a as usize >= f.params.len() => {
            Some(format!("operand references missing arg {a}"))
        }
        Value::Global(g) if g.index() >= module.globals.len() => {
            Some(format!("missing global @{}", g.index()))
        }
        Value::Function(fid) if fid.index() >= module.functions.len() => {
            Some(format!("missing function #{}", fid.index()))
        }
        Value::Inst(d) if d.index() >= f.insts.len() => {
            Some(format!("operand references out-of-arena inst %{}", d.0))
        }
        Value::Inst(d) if !placed[d.index()] => {
            Some(format!("operand references unplaced inst %{}", d.0))
        }
        _ => None,
    };
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            let kind = &f.inst(i).kind;
            let mut bad = None;
            kind.for_each_operand(|v| bad = bad.take().or_else(|| bad_value(v)));
            let missing_block = |b: &BlockId| b.index() >= f.blocks.len();
            match kind {
                InstKind::Call {
                    callee: Callee::Func(fid),
                    ..
                } if fid.index() >= module.functions.len() => {
                    bad = Some(format!("call to missing function #{}", fid.index()));
                }
                InstKind::Phi { incomings } => {
                    if let Some((b, _)) = incomings.iter().find(|(b, _)| missing_block(b)) {
                        bad = Some(format!("phi names missing block bb{}", b.0));
                    }
                }
                _ => {}
            }
            if let Some(b) = kind.successors().iter().find(|b| missing_block(b)) {
                bad = Some(format!("branch targets missing block bb{}", b.0));
            }
            if let Some(msg) = bad {
                return Err(msg);
            }
        }
    }
    Ok(())
}

/// How an instruction result reads where it is used.
pub(crate) enum Operand {
    /// The variable the emitter declared for it.
    Var(String),
    /// The instruction's own expression, folded into the use.
    Inline,
}

/// The IR → C value translator of one function, shared by every
/// fidelity tier. The `hook` decides, for each instruction result used
/// as an operand, whether it reads a variable or inlines; everything else
/// follows one set of rules:
///
/// - a scalar alloca is the C variable itself, not `v[0]`;
/// - an `undef` is a typed zero (`0.0` for `f64`);
/// - a gep folds into the indexed element it denotes, `A[i][j]`;
/// - a `select` is never an expression (see [`Translator::select`]).
///
/// Locals and globals are declared [`ctype_of_mem`], and callers run
/// [`check_refs`] first.
pub(crate) struct Translator<'a, H> {
    pub(crate) module: &'a Module,
    pub(crate) f: &'a Function,
    pub(crate) hook: H,
}

impl<H: Fn(InstId) -> Result<Operand, String>> Translator<'_, H> {
    /// `v` as a C operand.
    pub(crate) fn value(&self, v: Value) -> Result<CExpr, String> {
        let m = self.module;
        Ok(match v {
            Value::ConstInt { val, .. } => CExpr::Int(val),
            Value::ConstF64(bits) => CExpr::Float(f64::from_bits(bits)),
            Value::Undef(Type::F64) => CExpr::Float(0.0),
            Value::Undef(_) => CExpr::Int(0),
            Value::Arg(a) => CExpr::ident(m.name_of(self.f.params[a as usize].name)),
            Value::Global(g) => CExpr::ident(m.name_of(m.globals[g.index()].name)),
            Value::Function(fid) => CExpr::ident(m.name_of(m.functions[fid.index()].name)),
            Value::Inst(id) => match (self.hook)(id)? {
                Operand::Var(name) => CExpr::Ident(name),
                Operand::Inline => self.expr(id)?,
            },
        })
    }

    /// The C lvalue the address `addr` denotes: `A[i][j]`, `p[0]`, `x`.
    pub(crate) fn lvalue(&self, addr: Value) -> Result<CExpr, String> {
        let (base, indices) = match addr {
            Value::Global(_) => return self.value(addr),
            Value::Inst(id) => match &self.f.inst(id).kind {
                InstKind::Alloca {
                    mem: MemType::Scalar(_),
                } => return self.value(addr),
                InstKind::Gep {
                    elem,
                    base,
                    indices,
                } => {
                    let base = self.value(*base)?;
                    let mut idx = indices
                        .iter()
                        .map(|i| self.value(*i))
                        .collect::<Result<Vec<_>, _>>()?;
                    // An array gep's first index steps over whole arrays
                    // (almost always by 0): drop it when zero.
                    if matches!(elem, MemType::Array { .. }) && idx.first() == Some(&CExpr::Int(0))
                    {
                        idx.remove(0);
                    }
                    if idx.is_empty() {
                        idx.push(CExpr::Int(0));
                    }
                    (base, idx)
                }
                _ => (self.value(addr)?, vec![CExpr::Int(0)]),
            },
            _ => (self.value(addr)?, vec![CExpr::Int(0)]),
        };
        Ok(CExpr::Index {
            base: Box::new(base),
            indices,
        })
    }

    /// The expression instruction `id` computes.
    pub(crate) fn expr(&self, id: InstId) -> Result<CExpr, String> {
        let inst = self.f.inst(id);
        Ok(match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                CExpr::bin(binop(*op, inst.ty), self.value(*lhs)?, self.value(*rhs)?)
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                CExpr::bin(ipred(*pred), self.value(*lhs)?, self.value(*rhs)?)
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                CExpr::bin(fpred(*pred), self.value(*lhs)?, self.value(*rhs)?)
            }
            InstKind::Load { ptr } => self.lvalue(*ptr)?,
            InstKind::Gep { .. } => self.lvalue(Value::Inst(id))?,
            InstKind::Cast { op, val } => cast(*op, self.value(*val)?),
            InstKind::Call { callee, args } => CExpr::Call {
                name: match callee {
                    Callee::Func(fid) => {
                        self.module.name_of(self.module.functions[fid.index()].name)
                    }
                    Callee::External(n) => self.module.name_of(*n),
                }
                .to_string(),
                args: args
                    .iter()
                    .map(|a| self.value(*a))
                    .collect::<Result<_, _>>()?,
            },
            other => return Err(format!("no expression for {other:?}")),
        })
    }

    /// A `select` stored into the variable `dst`, as control flow:
    /// `if (c) { dst = a; } else { dst = b; }`. C has a ternary, but the
    /// recompiling front end does not, and if-converted code reads better
    /// as the branch it came from.
    pub(crate) fn select(
        &self,
        dst: &str,
        cond: Value,
        then_val: Value,
        else_val: Value,
    ) -> Result<CStmt, String> {
        Ok(CStmt::If {
            cond: self.value(cond)?,
            then_body: vec![assign(CExpr::ident(dst), self.value(then_val)?)],
            else_body: vec![assign(CExpr::ident(dst), self.value(else_val)?)],
        })
    }
}
