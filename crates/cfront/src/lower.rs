//! Lowering from the C AST to SPLENDID IR.
//!
//! The output mirrors what clang emits at `-O0`: every local variable
//! (including parameters) lives in an alloca annotated with a
//! `dbg.declare`-style intrinsic, control flow is lowered to canonical
//! top-tested loops, and `int` is 32-bit with sign extensions at indexing —
//! so the `-O2` pipeline in `splendid-transforms` produces exactly the SSA
//! and rotation artifacts the decompiler must undo.

use crate::ast::*;
use crate::sema::{check_program, known_external};
use splendid_ir::{
    BinOp, BlockId, Callee, CastOp, FPred, FuncId, GlobalInit, IPred, Inst, InstKind, MemType,
    Module, Param, Type, Value,
};
use std::collections::HashMap;

/// Which OpenMP runtime library pragmas lower to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmpRuntime {
    /// LLVM/OpenMP style: `__kmpc_fork_call`, `__kmpc_for_static_init_8`,
    /// `__kmpc_for_static_fini`, `__kmpc_barrier` (what Clang links).
    LibOmp,
    /// GNU style: `GOMP_parallel`, `GOMP_loop_static_bounds`,
    /// `GOMP_barrier` (what GCC links).
    LibGomp,
}

impl OmpRuntime {
    /// Symbol of the fork entry point.
    pub fn fork_symbol(self) -> &'static str {
        match self {
            OmpRuntime::LibOmp => "__kmpc_fork_call",
            OmpRuntime::LibGomp => "GOMP_parallel",
        }
    }

    /// Symbol of the static-loop bounds initializer.
    pub fn static_init_symbol(self) -> &'static str {
        match self {
            OmpRuntime::LibOmp => "__kmpc_for_static_init_8",
            OmpRuntime::LibGomp => "GOMP_loop_static_bounds",
        }
    }

    /// Symbol of the static-loop finalizer (`None` when the runtime has
    /// none).
    pub fn static_fini_symbol(self) -> Option<&'static str> {
        match self {
            OmpRuntime::LibOmp => Some("__kmpc_for_static_fini"),
            OmpRuntime::LibGomp => None,
        }
    }

    /// Symbol of the barrier.
    pub fn barrier_symbol(self) -> &'static str {
        match self {
            OmpRuntime::LibOmp => "__kmpc_barrier",
            OmpRuntime::LibGomp => "GOMP_barrier",
        }
    }
}

/// Options for [`lower_program`].
#[derive(Debug, Clone)]
pub struct LowerOptions {
    /// Runtime flavor for OpenMP constructs.
    pub runtime: OmpRuntime,
}

impl Default for LowerOptions {
    fn default() -> LowerOptions {
        LowerOptions {
            runtime: OmpRuntime::LibOmp,
        }
    }
}

/// Lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering error: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

pub(crate) type LResult<T> = Result<T, LowerError>;

pub(crate) fn err<T>(msg: impl Into<String>) -> LResult<T> {
    Err(LowerError(msg.into()))
}

/// Scalar IR type of a C type.
///
/// `int` maps to `i64` (an LP64-style shortcut, documented in DESIGN.md):
/// keeping every integer 64-bit means induction variables have a single
/// width across the frontend, the parallelizer, and the decompiler, at the
/// cost of not modeling `i32`-to-`i64` sign extensions at indexing.
pub fn scalar_type(ty: &CType) -> Type {
    match ty {
        CType::Void => Type::Void,
        CType::Int | CType::Long | CType::UInt64 => Type::I64,
        CType::Double => Type::F64,
        CType::Ptr(_) | CType::Array(..) => Type::Ptr,
    }
}

/// Memory shape of a C type.
pub fn mem_type(ty: &CType) -> MemType {
    match ty {
        CType::Array(elem, dims) => MemType::Array {
            elem: scalar_type(elem),
            dims: dims.iter().map(|d| *d as u64).collect(),
        },
        other => MemType::Scalar(scalar_type(other)),
    }
}

/// A local variable slot.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// Pointer to the storage (an alloca).
    pub ptr: Value,
    /// Declared C type.
    pub cty: CType,
}

/// Per-function lowering state.
pub(crate) struct FuncLowerer<'m> {
    pub module: &'m mut Module,
    pub func: splendid_ir::Function,
    pub cur: BlockId,
    /// Lexically scoped variable slots.
    pub scopes: Vec<HashMap<String, Slot>>,
    /// `#define` constants.
    pub defines: HashMap<String, i64>,
    /// Global name -> (id, type).
    pub globals: HashMap<String, (splendid_ir::GlobalId, CType)>,
    /// Function name -> (id, ret, param types).
    pub funcs: HashMap<String, (FuncId, CType, Vec<CType>)>,
    /// Debug scope name (original C function).
    pub di_scope: String,
    /// Runtime flavor.
    pub runtime: OmpRuntime,
    /// Value of the `tid` parameter when lowering inside an outlined
    /// parallel region.
    pub tid: Option<Value>,
    /// Counter for outlined-region names, shared via the parent.
    pub region_counter: usize,
    /// Source line bookkeeping (approximate: statement index).
    pub next_line: u32,
    /// goto/label targets: name -> (block, defined yet?). Blocks are
    /// created lazily on the first reference, whether goto or label.
    pub labels: HashMap<String, (BlockId, bool)>,
}

impl<'m> FuncLowerer<'m> {
    pub(crate) fn push(&mut self, inst: Inst) -> Value {
        let id = self.func.append_inst(self.cur, inst);
        Value::Inst(id)
    }

    /// Intern a name in the destination module's symbol table.
    pub(crate) fn sym(&mut self, name: &str) -> splendid_ir::Symbol {
        self.module.intern(name)
    }

    /// Add a block whose name is interned in the module's table.
    pub(crate) fn add_block(&mut self, name: &str) -> BlockId {
        let s = self.module.intern(name);
        self.func.add_block(s)
    }

    pub(crate) fn push_simple(&mut self, kind: InstKind, ty: Type) -> Value {
        self.push(Inst::new(kind, ty))
    }

    pub(crate) fn terminated(&self) -> bool {
        self.func.terminator(self.cur).is_some()
    }

    /// Block for a goto/label target, created on first reference.
    pub(crate) fn label_block(&mut self, name: &str) -> BlockId {
        if let Some((bb, _)) = self.labels.get(name) {
            return *bb;
        }
        let bb = self.add_block(&format!("label.{name}"));
        self.labels.insert(name.to_string(), (bb, false));
        bb
    }

    /// After the body is lowered, every referenced label must have been
    /// defined (otherwise its block would be empty and unterminated).
    pub(crate) fn check_labels(&self) -> LResult<()> {
        for (name, (_, defined)) in &self.labels {
            if !defined {
                return err(format!("goto to undefined label '{name}'"));
            }
        }
        Ok(())
    }

    pub(crate) fn lookup(&self, name: &str) -> Option<&Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Declare a local variable backed by an alloca with a dbg.declare.
    pub(crate) fn declare_local(&mut self, name: &str, cty: CType) -> Slot {
        let mem = mem_type(&cty);
        let addr = self.sym(&format!("{name}.addr"));
        let ptr = self.push(Inst::named(InstKind::Alloca { mem }, Type::Ptr, addr));
        let var = self.module.intern_di_var(name, &self.di_scope);
        self.push_simple(InstKind::DbgValue { val: ptr, var }, Type::Void);
        let slot = Slot { ptr, cty };
        self.scopes
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), slot.clone());
        slot
    }

    // ---- conversions ---------------------------------------------------

    /// Convert `v` of C type `from` to C type `to`.
    pub(crate) fn convert(&mut self, v: Value, from: &CType, to: &CType) -> LResult<Value> {
        if from == to {
            return Ok(v);
        }
        let (ft, tt) = (scalar_type(from), scalar_type(to));
        if ft == tt {
            return Ok(v); // e.g. long <-> uint64_t
        }
        match (ft, tt) {
            (Type::I32, Type::I64) => Ok(self.push_simple(
                InstKind::Cast {
                    op: CastOp::Sext,
                    val: v,
                },
                Type::I64,
            )),
            (Type::I64, Type::I32) => Ok(self.push_simple(
                InstKind::Cast {
                    op: CastOp::Trunc,
                    val: v,
                },
                Type::I32,
            )),
            (Type::I32 | Type::I64, Type::F64) => Ok(self.push_simple(
                InstKind::Cast {
                    op: CastOp::SiToFp,
                    val: v,
                },
                Type::F64,
            )),
            (Type::F64, Type::I32 | Type::I64) => Ok(self.push_simple(
                InstKind::Cast {
                    op: CastOp::FpToSi,
                    val: v,
                },
                tt,
            )),
            (Type::Ptr, Type::Ptr) => Ok(v),
            (a, b) => err(format!("unsupported conversion {a} -> {b}")),
        }
    }

    fn widen_to_i64(&mut self, v: Value, from: &CType) -> LResult<Value> {
        self.convert(v, from, &CType::Long)
    }

    // ---- expressions ----------------------------------------------------

    /// Lower an rvalue expression; returns the value and its C type.
    pub(crate) fn lower_expr(&mut self, e: &CExpr) -> LResult<(Value, CType)> {
        match e {
            CExpr::Int(v) => Ok((Value::i64(*v), CType::Int)),
            CExpr::Float(v) => Ok((Value::f64(*v), CType::Double)),
            CExpr::Ident(name) => {
                if name == "M_PI" {
                    return Ok((Value::f64(std::f64::consts::PI), CType::Double));
                }
                if let Some(&v) = self.defines.get(name) {
                    return Ok((Value::i64(v), CType::Long));
                }
                if let Some(slot) = self.lookup(name).cloned() {
                    return match &slot.cty {
                        CType::Array(..) => Ok((slot.ptr, slot.cty.clone())),
                        cty => {
                            let ty = scalar_type(cty);
                            let nm = self.sym(name);
                            let v =
                                self.push(Inst::named(InstKind::Load { ptr: slot.ptr }, ty, nm));
                            Ok((v, cty.clone()))
                        }
                    };
                }
                if let Some((gid, cty)) = self.globals.get(name).cloned() {
                    return match &cty {
                        CType::Array(..) => Ok((Value::Global(gid), cty)),
                        scalar => {
                            let ty = scalar_type(scalar);
                            let nm = self.sym(name);
                            let v = self.push(Inst::named(
                                InstKind::Load {
                                    ptr: Value::Global(gid),
                                },
                                ty,
                                nm,
                            ));
                            Ok((v, cty.clone()))
                        }
                    };
                }
                err(format!("unknown identifier '{name}'"))
            }
            CExpr::Index { .. } => {
                let (ptr, elem) = self.lower_lvalue(e)?;
                let ty = scalar_type(&elem);
                let v = self.push_simple(InstKind::Load { ptr }, ty);
                Ok((v, elem))
            }
            CExpr::Call { name, args } => self.lower_call(name, args),
            CExpr::Unary { op, expr } => {
                let (v, cty) = self.lower_expr(expr)?;
                match op {
                    CUnOp::Neg => {
                        if cty.is_float() {
                            let z = Value::f64(0.0);
                            let r = self.push_simple(
                                InstKind::Bin {
                                    op: BinOp::FSub,
                                    lhs: z,
                                    rhs: v,
                                },
                                Type::F64,
                            );
                            Ok((r, CType::Double))
                        } else {
                            let ty = scalar_type(&cty);
                            let z = Value::ConstInt { ty, val: 0 };
                            let r = self.push_simple(
                                InstKind::Bin {
                                    op: BinOp::Sub,
                                    lhs: z,
                                    rhs: v,
                                },
                                ty,
                            );
                            Ok((r, cty))
                        }
                    }
                    CUnOp::Not => {
                        let b = self.truthy(v, &cty)?;
                        let r = self.push_simple(
                            InstKind::Bin {
                                op: BinOp::Xor,
                                lhs: b,
                                rhs: Value::bool(true),
                            },
                            Type::I1,
                        );
                        // `!x` in C is int; internally keep i1 and widen on
                        // demand.
                        Ok((r, CType::Int))
                    }
                }
            }
            CExpr::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            CExpr::Cast { ty, expr } => {
                let (v, from) = self.lower_expr(expr)?;
                let r = self.convert(v, &from, ty)?;
                Ok((r, ty.clone()))
            }
            CExpr::Assign { lhs, op, rhs } => {
                let value = self.lower_assign(lhs, *op, rhs)?;
                Ok(value)
            }
        }
    }

    fn lower_assign(
        &mut self,
        lhs: &CExpr,
        op: Option<CBinOp>,
        rhs: &CExpr,
    ) -> LResult<(Value, CType)> {
        let (ptr, target_ty) = self.lower_lvalue(lhs)?;
        let full_rhs;
        let rhs_eval = match op {
            None => rhs,
            Some(o) => {
                // Desugar `lhs op= rhs` into `lhs = lhs op rhs`.
                full_rhs = CExpr::bin(o, lhs.clone(), rhs.clone());
                &full_rhs
            }
        };
        let (v, vty) = self.lower_expr(rhs_eval)?;
        let stored = self.convert(v, &vty, &target_ty)?;
        self.push_simple(InstKind::Store { val: stored, ptr }, Type::Void);
        // Keep the dbg association alive for scalar locals: the paper's
        // metadata comes from dbg.value after each store (via mem2reg).
        Ok((stored, target_ty))
    }

    /// Lower an lvalue to (address, element C type).
    pub(crate) fn lower_lvalue(&mut self, e: &CExpr) -> LResult<(Value, CType)> {
        match e {
            CExpr::Ident(name) => {
                if let Some(slot) = self.lookup(name).cloned() {
                    if matches!(slot.cty, CType::Array(..)) {
                        return err(format!("cannot assign to array '{name}'"));
                    }
                    return Ok((slot.ptr, slot.cty));
                }
                if let Some((gid, cty)) = self.globals.get(name).cloned() {
                    if matches!(cty, CType::Array(..)) {
                        return err(format!("cannot assign to array '{name}'"));
                    }
                    return Ok((Value::Global(gid), cty));
                }
                err(format!("unknown identifier '{name}'"))
            }
            CExpr::Index { base, indices } => {
                // Resolve the base object.
                let (base_ptr, base_ty) = match base.as_ref() {
                    CExpr::Ident(name) => {
                        if let Some(slot) = self.lookup(name).cloned() {
                            match &slot.cty {
                                CType::Array(..) => (slot.ptr, slot.cty.clone()),
                                CType::Ptr(_) => {
                                    // Load the pointer value from its slot.
                                    let nm = self.sym(name);
                                    let p = self.push(Inst::named(
                                        InstKind::Load { ptr: slot.ptr },
                                        Type::Ptr,
                                        nm,
                                    ));
                                    (p, slot.cty.clone())
                                }
                                other => {
                                    return err(format!(
                                        "cannot index scalar '{name}' of type {other:?}"
                                    ))
                                }
                            }
                        } else if let Some((gid, cty)) = self.globals.get(name).cloned() {
                            (Value::Global(gid), cty)
                        } else {
                            return err(format!("unknown identifier '{name}'"));
                        }
                    }
                    other => {
                        let (v, cty) = self.lower_expr(other)?;
                        (v, cty)
                    }
                };
                match base_ty {
                    CType::Array(elem, dims) => {
                        if indices.len() != dims.len() {
                            return err("subscript count does not match array rank");
                        }
                        let mut idx_vals = vec![Value::i64(0)];
                        for i in indices {
                            let (v, ity) = self.lower_expr(i)?;
                            idx_vals.push(self.widen_to_i64(v, &ity)?);
                        }
                        let mt = MemType::Array {
                            elem: scalar_type(&elem),
                            dims: dims.iter().map(|d| *d as u64).collect(),
                        };
                        let p = self.push_simple(
                            InstKind::Gep {
                                elem: mt,
                                base: base_ptr,
                                indices: idx_vals,
                            },
                            Type::Ptr,
                        );
                        Ok((p, (*elem).clone()))
                    }
                    CType::Ptr(elem) => {
                        if indices.len() != 1 {
                            return err("pointer indexing must be one-dimensional");
                        }
                        let (v, ity) = self.lower_expr(&indices[0])?;
                        let idx = self.widen_to_i64(v, &ity)?;
                        let p = self.push_simple(
                            InstKind::Gep {
                                elem: MemType::Scalar(scalar_type(&elem)),
                                base: base_ptr,
                                indices: vec![idx],
                            },
                            Type::Ptr,
                        );
                        Ok((p, (*elem).clone()))
                    }
                    other => err(format!("cannot index value of type {other:?}")),
                }
            }
            other => err(format!("not an lvalue: {}", other.print())),
        }
    }

    fn lower_call(&mut self, name: &str, args: &[CExpr]) -> LResult<(Value, CType)> {
        if known_external(name).is_some() {
            let mut vals = Vec::new();
            for a in args {
                let (v, t) = self.lower_expr(a)?;
                vals.push(self.convert(v, &t, &CType::Double)?);
            }
            let callee = Callee::External(self.sym(name));
            let r = self.push_simple(InstKind::Call { callee, args: vals }, Type::F64);
            return Ok((r, CType::Double));
        }
        let (fid, ret, param_tys) = self
            .funcs
            .get(name)
            .cloned()
            .ok_or_else(|| LowerError(format!("call to unknown function '{name}'")))?;
        let mut vals = Vec::new();
        for (a, pt) in args.iter().zip(&param_tys) {
            let (v, t) = self.lower_expr(a)?;
            vals.push(self.convert(v, &t, pt)?);
        }
        let r = self.push_simple(
            InstKind::Call {
                callee: Callee::Func(fid),
                args: vals,
            },
            scalar_type(&ret),
        );
        Ok((r, ret))
    }

    /// Coerce to an `i1` truth value.
    pub(crate) fn truthy(&mut self, v: Value, cty: &CType) -> LResult<Value> {
        match scalar_type(cty) {
            Type::I1 => Ok(v),
            Type::I32 | Type::I64 => {
                let ty = scalar_type(cty);
                Ok(self.push_simple(
                    InstKind::ICmp {
                        pred: IPred::Ne,
                        lhs: v,
                        rhs: Value::ConstInt { ty, val: 0 },
                    },
                    Type::I1,
                ))
            }
            Type::F64 => Ok(self.push_simple(
                InstKind::FCmp {
                    pred: FPred::One,
                    lhs: v,
                    rhs: Value::f64(0.0),
                },
                Type::I1,
            )),
            other => err(format!("cannot use {other} as a condition")),
        }
    }

    /// C type used for i1-producing expressions: internally we thread i1,
    /// tagged as `Int`.
    fn lower_binary(&mut self, op: CBinOp, lhs: &CExpr, rhs: &CExpr) -> LResult<(Value, CType)> {
        use CBinOp::*;
        match op {
            LAnd | LOr | BAnd | BOr | BXor if self.is_boolish(lhs) || self.is_boolish(rhs) => {
                // Non-short-circuit boolean combination on i1, matching the
                // `|`/`&` chains Polly emits for runtime checks (Fig. 2).
                let (lv, lt) = self.lower_expr(lhs)?;
                let lb = self.truthy_if_needed(lv, &lt, lhs)?;
                let (rv, rt) = self.lower_expr(rhs)?;
                let rb = self.truthy_if_needed(rv, &rt, rhs)?;
                let o = match op {
                    LAnd | BAnd => BinOp::And,
                    LOr | BOr => BinOp::Or,
                    BXor => BinOp::Xor,
                    _ => unreachable!(),
                };
                let r = self.push_simple(
                    InstKind::Bin {
                        op: o,
                        lhs: lb,
                        rhs: rb,
                    },
                    Type::I1,
                );
                return Ok((r, CType::Int));
            }
            _ => {}
        }

        let (lv, lt) = self.lower_expr(lhs)?;
        let (rv, rt) = self.lower_expr(rhs)?;
        let float = lt.is_float() || rt.is_float();
        if float {
            let a = self.convert(lv, &lt, &CType::Double)?;
            let b = self.convert(rv, &rt, &CType::Double)?;
            let bin = |o: BinOp| InstKind::Bin {
                op: o,
                lhs: a,
                rhs: b,
            };
            let (kind, ty, cty) = match op {
                Add => (bin(BinOp::FAdd), Type::F64, CType::Double),
                Sub => (bin(BinOp::FSub), Type::F64, CType::Double),
                Mul => (bin(BinOp::FMul), Type::F64, CType::Double),
                Div => (bin(BinOp::FDiv), Type::F64, CType::Double),
                Lt => (
                    InstKind::FCmp {
                        pred: FPred::Olt,
                        lhs: a,
                        rhs: b,
                    },
                    Type::I1,
                    CType::Int,
                ),
                Le => (
                    InstKind::FCmp {
                        pred: FPred::Ole,
                        lhs: a,
                        rhs: b,
                    },
                    Type::I1,
                    CType::Int,
                ),
                Gt => (
                    InstKind::FCmp {
                        pred: FPred::Ogt,
                        lhs: a,
                        rhs: b,
                    },
                    Type::I1,
                    CType::Int,
                ),
                Ge => (
                    InstKind::FCmp {
                        pred: FPred::Oge,
                        lhs: a,
                        rhs: b,
                    },
                    Type::I1,
                    CType::Int,
                ),
                Eq => (
                    InstKind::FCmp {
                        pred: FPred::Oeq,
                        lhs: a,
                        rhs: b,
                    },
                    Type::I1,
                    CType::Int,
                ),
                Ne => (
                    InstKind::FCmp {
                        pred: FPred::One,
                        lhs: a,
                        rhs: b,
                    },
                    Type::I1,
                    CType::Int,
                ),
                other => return err(format!("operator {other:?} not supported on double")),
            };
            let r = self.push_simple(kind, ty);
            return Ok((r, cty));
        }

        // Integer: unify widths (int32 + int64 -> int64). Pointers compare
        // directly.
        let unified = if scalar_type(&lt) == Type::Ptr || scalar_type(&rt) == Type::Ptr {
            CType::Ptr(Box::new(CType::Double))
        } else if scalar_type(&lt) == Type::I64 || scalar_type(&rt) == Type::I64 {
            CType::Long
        } else {
            CType::Int
        };
        let a = if scalar_type(&unified) == Type::Ptr {
            lv
        } else {
            self.convert(lv, &lt, &unified)?
        };
        let b = if scalar_type(&unified) == Type::Ptr {
            rv
        } else {
            self.convert(rv, &rt, &unified)?
        };
        let ty = scalar_type(&unified);
        let bin = |o: BinOp| InstKind::Bin {
            op: o,
            lhs: a,
            rhs: b,
        };
        let cmp = |p: IPred| InstKind::ICmp {
            pred: p,
            lhs: a,
            rhs: b,
        };
        let (kind, rty, cty) = match op {
            Add => (bin(BinOp::Add), ty, unified.clone()),
            Sub => (bin(BinOp::Sub), ty, unified.clone()),
            Mul => (bin(BinOp::Mul), ty, unified.clone()),
            Div => (bin(BinOp::SDiv), ty, unified.clone()),
            Rem => (bin(BinOp::SRem), ty, unified.clone()),
            Shl => (bin(BinOp::Shl), ty, unified.clone()),
            Shr => (bin(BinOp::AShr), ty, unified.clone()),
            BAnd | LAnd => (bin(BinOp::And), ty, unified.clone()),
            BOr | LOr => (bin(BinOp::Or), ty, unified.clone()),
            BXor => (bin(BinOp::Xor), ty, unified.clone()),
            Lt => (cmp(IPred::Slt), Type::I1, CType::Int),
            Le => (cmp(IPred::Sle), Type::I1, CType::Int),
            Gt => (cmp(IPred::Sgt), Type::I1, CType::Int),
            Ge => (cmp(IPred::Sge), Type::I1, CType::Int),
            Eq => (cmp(IPred::Eq), Type::I1, CType::Int),
            Ne => (cmp(IPred::Ne), Type::I1, CType::Int),
        };
        let r = self.push_simple(kind, rty);
        Ok((r, cty))
    }

    /// Whether an expression syntactically produces a truth value.
    fn is_boolish(&self, e: &CExpr) -> bool {
        matches!(
            e,
            CExpr::Binary {
                op: CBinOp::Lt
                    | CBinOp::Le
                    | CBinOp::Gt
                    | CBinOp::Ge
                    | CBinOp::Eq
                    | CBinOp::Ne
                    | CBinOp::LAnd
                    | CBinOp::LOr,
                ..
            } | CExpr::Unary { op: CUnOp::Not, .. }
        )
    }

    fn truthy_if_needed(&mut self, v: Value, cty: &CType, src: &CExpr) -> LResult<Value> {
        if self.is_boolish(src) {
            // Already i1 from lowering.
            Ok(v)
        } else {
            self.truthy(v, cty)
        }
    }

    /// Lower a condition expression directly to `i1`.
    pub(crate) fn lower_cond(&mut self, e: &CExpr) -> LResult<Value> {
        let (v, cty) = self.lower_expr(e)?;
        self.truthy_if_needed(v, &cty, e)
    }

    // ---- statements -----------------------------------------------------

    pub(crate) fn lower_stmts(&mut self, stmts: &[CStmt]) -> LResult<()> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            if self.terminated() && !matches!(s, CStmt::Label(_)) {
                continue; // unreachable until the next label, if any
            }
            self.lower_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    pub(crate) fn lower_stmt(&mut self, stmt: &CStmt) -> LResult<()> {
        self.next_line += 1;
        match stmt {
            CStmt::Decl { name, ty, init } => {
                let slot = self.declare_local(name, ty.clone());
                if let Some(e) = init {
                    let (v, vty) = self.lower_expr(e)?;
                    let stored = self.convert(v, &vty, ty)?;
                    self.push_simple(
                        InstKind::Store {
                            val: stored,
                            ptr: slot.ptr,
                        },
                        Type::Void,
                    );
                }
                Ok(())
            }
            CStmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            CStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.lower_cond(cond)?;
                let then_bb = self.add_block("if.then");
                let else_bb = if else_body.is_empty() {
                    None
                } else {
                    Some(self.add_block("if.else"))
                };
                let join = self.add_block("if.end");
                self.push_simple(
                    InstKind::CondBr {
                        cond: c,
                        then_bb,
                        else_bb: else_bb.unwrap_or(join),
                    },
                    Type::Void,
                );
                self.cur = then_bb;
                self.lower_stmts(then_body)?;
                if !self.terminated() {
                    self.push_simple(InstKind::Br { target: join }, Type::Void);
                }
                if let Some(eb) = else_bb {
                    self.cur = eb;
                    self.lower_stmts(else_body)?;
                    if !self.terminated() {
                        self.push_simple(InstKind::Br { target: join }, Type::Void);
                    }
                }
                self.cur = join;
                Ok(())
            }
            CStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.lower_stmt(i)?;
                }
                let header = self.add_block("for.cond");
                let body_bb = self.add_block("for.body");
                let latch = self.add_block("for.inc");
                let exit = self.add_block("for.end");
                self.push_simple(InstKind::Br { target: header }, Type::Void);
                self.cur = header;
                match cond {
                    Some(c) => {
                        let cv = self.lower_cond(c)?;
                        self.push_simple(
                            InstKind::CondBr {
                                cond: cv,
                                then_bb: body_bb,
                                else_bb: exit,
                            },
                            Type::Void,
                        );
                    }
                    None => {
                        self.push_simple(InstKind::Br { target: body_bb }, Type::Void);
                    }
                }
                self.cur = body_bb;
                self.lower_stmts(body)?;
                if !self.terminated() {
                    self.push_simple(InstKind::Br { target: latch }, Type::Void);
                }
                self.cur = latch;
                if let Some(s) = step {
                    self.lower_expr(s)?;
                }
                self.push_simple(InstKind::Br { target: header }, Type::Void);
                self.cur = exit;
                self.scopes.pop();
                Ok(())
            }
            CStmt::While { cond, body } => {
                let header = self.add_block("while.cond");
                let body_bb = self.add_block("while.body");
                let exit = self.add_block("while.end");
                self.push_simple(InstKind::Br { target: header }, Type::Void);
                self.cur = header;
                let cv = self.lower_cond(cond)?;
                self.push_simple(
                    InstKind::CondBr {
                        cond: cv,
                        then_bb: body_bb,
                        else_bb: exit,
                    },
                    Type::Void,
                );
                self.cur = body_bb;
                self.lower_stmts(body)?;
                if !self.terminated() {
                    self.push_simple(InstKind::Br { target: header }, Type::Void);
                }
                self.cur = exit;
                Ok(())
            }
            CStmt::DoWhile { body, cond } => {
                let body_bb = self.add_block("do.body");
                let exit = self.add_block("do.end");
                self.push_simple(InstKind::Br { target: body_bb }, Type::Void);
                self.cur = body_bb;
                self.lower_stmts(body)?;
                if !self.terminated() {
                    let cv = self.lower_cond(cond)?;
                    self.push_simple(
                        InstKind::CondBr {
                            cond: cv,
                            then_bb: body_bb,
                            else_bb: exit,
                        },
                        Type::Void,
                    );
                }
                self.cur = exit;
                Ok(())
            }
            CStmt::Return(val) => {
                let v = match val {
                    Some(e) => {
                        let (v, t) = self.lower_expr(e)?;
                        let ret_cty = ret_ctype_of(&self.func.ret_ty);
                        Some(self.convert(v, &t, &ret_cty)?)
                    }
                    None => None,
                };
                self.push_simple(InstKind::Ret { val: v }, Type::Void);
                Ok(())
            }
            CStmt::Block(b) => self.lower_stmts(b),
            CStmt::OmpParallel { clauses, body } => self.lower_omp_parallel(clauses, body),
            CStmt::OmpFor { clauses, loop_stmt } => self.lower_omp_for(clauses, loop_stmt),
            CStmt::OmpParallelFor { clauses, loop_stmt } => {
                let mut for_clauses = clauses.clone();
                for_clauses.nowait = false; // implicit barrier at region end
                let region = vec![CStmt::OmpFor {
                    clauses: for_clauses,
                    loop_stmt: loop_stmt.clone(),
                }];
                let par_clauses = OmpClauses {
                    private: clauses.private.clone(),
                    ..Default::default()
                };
                self.lower_omp_parallel(&par_clauses, &region)
            }
            // `simd` is a vectorization hint, not a work-sharing
            // construct: the loop lowers sequentially and the checksum
            // semantics are identical to the plain loop (the vector IR's
            // reductions are ordered, so even float results agree).
            CStmt::OmpSimd { loop_stmt, .. } => self.lower_stmt(loop_stmt),
            CStmt::OmpBarrier => self.lower_omp_barrier(),
            CStmt::Goto(label) => {
                let bb = self.label_block(label);
                self.push_simple(InstKind::Br { target: bb }, Type::Void);
                Ok(())
            }
            CStmt::Label(name) => {
                let bb = self.label_block(name);
                match self.labels.get_mut(name) {
                    Some((_, defined)) if *defined => {
                        return err(format!("duplicate label '{name}'"));
                    }
                    Some((_, defined)) => *defined = true,
                    None => unreachable!("label_block always registers the label"),
                }
                if !self.terminated() {
                    self.push_simple(InstKind::Br { target: bb }, Type::Void);
                }
                self.cur = bb;
                Ok(())
            }
        }
    }
}

fn ret_ctype_of(ty: &Type) -> CType {
    match ty {
        Type::I32 => CType::Int,
        Type::I64 => CType::Long,
        Type::F64 => CType::Double,
        _ => CType::Void,
    }
}

/// Lower a whole program to an IR module.
pub fn lower_program(
    prog: &CProgram,
    module_name: &str,
    opts: &LowerOptions,
) -> Result<Module, LowerError> {
    check_program(prog).map_err(|e| LowerError(e.0))?;
    let mut module = Module::new(module_name);
    let mut globals = HashMap::new();
    for (name, cty) in &prog.globals {
        let gid = module.push_global_named(name, mem_type(cty), GlobalInit::Zero);
        globals.insert(name.clone(), (gid, cty.clone()));
    }
    // Pre-register functions for forward references.
    let mut funcs = HashMap::new();
    for (i, f) in prog.functions.iter().enumerate() {
        funcs.insert(
            f.name.clone(),
            (
                FuncId(i as u32),
                f.ret.clone(),
                f.params.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>(),
            ),
        );
    }
    let defines: HashMap<String, i64> = prog.defines.iter().cloned().collect();

    // Reserve slots so function ids match the pre-registration order even
    // though outlined regions get appended during lowering.
    for f in &prog.functions {
        let params: Vec<Param> = f
            .params
            .iter()
            .map(|(n, t)| Param {
                name: module.intern(n),
                ty: scalar_type(t),
            })
            .collect();
        let func = splendid_ir::Function {
            name: module.intern(&f.name),
            params,
            ret_ty: scalar_type(&f.ret),
            blocks: Vec::new(),
            insts: Vec::new(),
            entry: BlockId(0),
            is_outlined: false,
        };
        module.push_function(func);
    }

    for (i, f) in prog.functions.iter().enumerate() {
        let mut func = module.functions[i].clone();
        // Fresh body (the reserved slot was empty).
        func.blocks = vec![splendid_ir::Block {
            name: module.intern("entry"),
            insts: Vec::new(),
        }];
        func.insts.clear();
        func.entry = BlockId(0);
        let mut fl = FuncLowerer {
            module: &mut module,
            func,
            cur: BlockId(0),
            scopes: vec![HashMap::new()],
            defines: defines.clone(),
            globals: globals.clone(),
            funcs: funcs.clone(),
            di_scope: f.name.clone(),
            runtime: opts.runtime,
            tid: None,
            region_counter: 0,
            next_line: 0,
            labels: HashMap::new(),
        };
        // Copy parameters into allocas (clang -O0 style).
        for (pi, (pname, pty)) in f.params.iter().enumerate() {
            let slot = fl.declare_local(pname, pty.clone());
            fl.push_simple(
                InstKind::Store {
                    val: Value::Arg(pi as u32),
                    ptr: slot.ptr,
                },
                Type::Void,
            );
        }
        fl.lower_stmts(&f.body)?;
        fl.check_labels()?;
        if !fl.terminated() {
            // A join block with no predecessors (e.g. after an if/else in
            // which both arms return) is unreachable, not a fall-off.
            let cur = fl.cur;
            let unreachable_join =
                cur != fl.func.entry && fl.func.predecessors()[cur.index()].is_empty();
            if unreachable_join {
                fl.push_simple(InstKind::Unreachable, Type::Void);
            } else if f.ret == CType::Void {
                fl.push_simple(InstKind::Ret { val: None }, Type::Void);
            } else {
                return err(format!("function '{}' can fall off the end", f.name));
            }
        }
        let done = fl.func;
        module.functions[i] = done;
    }
    splendid_ir::verify::verify_module(&module)
        .map_err(|e| LowerError(format!("internal: lowered module fails verification: {e}")))?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn lower(src: &str) -> Module {
        let prog = parse_program(src).unwrap();
        lower_program(&prog, "test", &LowerOptions::default()).unwrap()
    }

    #[test]
    fn lowers_scalar_arithmetic() {
        let m = lower("double f(double x) { double y = x * 2.0 + 1.0; return y; }");
        let f = &m.functions[0];
        assert_eq!(f.ret_ty, Type::F64);
        // Allocas for x and y exist with dbg declares.
        let allocas = f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Alloca { .. }))
            .count();
        assert_eq!(allocas, 2);
    }

    #[test]
    fn lowers_loop_and_arrays() {
        let m = lower(
            "#define N 8\ndouble A[8];\nvoid f() { int i; for (i = 0; i < N; i++) { A[i] = 1.0; } }",
        );
        let f = &m.functions[0];
        // Loop blocks present.
        let names: Vec<&str> = f.blocks.iter().map(|b| m.name_of(b.name)).collect();
        assert!(names.contains(&"for.cond"));
        assert!(names.contains(&"for.body"));
        assert!(names.contains(&"for.inc"));
        // gep through the array type.
        assert!(f.insts.iter().any(|i| matches!(
            &i.kind,
            InstKind::Gep { elem: MemType::Array { dims, .. }, .. } if dims == &vec![8]
        )));
    }

    #[test]
    fn int_indexing_needs_no_cast() {
        // `int` is lowered as i64 (LP64 shortcut), so indexing emits no
        // sign extension.
        let m = lower("double A[4];\nvoid f(int i) { A[i] = 0.0; }");
        let f = &m.functions[0];
        assert!(!f.insts.iter().any(|i| matches!(
            i.kind,
            InstKind::Cast {
                op: CastOp::Sext,
                ..
            }
        )));
    }

    #[test]
    fn pointer_param_indexing() {
        let m = lower("void f(double* A, int i) { A[i] = A[i] + 1.0; }");
        let f = &m.functions[0];
        assert!(f.insts.iter().any(|i| matches!(
            &i.kind,
            InstKind::Gep {
                elem: MemType::Scalar(Type::F64),
                ..
            }
        )));
    }

    #[test]
    fn internal_and_external_calls() {
        let m = lower("double g(double x) { return x; }\nvoid f() { double y = g(exp(1.0)); }");
        let f = &m.functions[1];
        let mut saw_ext = false;
        let mut saw_int = false;
        for i in &f.insts {
            match &i.kind {
                InstKind::Call {
                    callee: Callee::External(n),
                    ..
                } if m.name_of(*n) == "exp" => saw_ext = true,
                InstKind::Call {
                    callee: Callee::Func(_),
                    ..
                } => saw_int = true,
                _ => {}
            }
        }
        assert!(saw_ext && saw_int);
    }

    #[test]
    fn if_else_and_conditions() {
        let m = lower("int f(int a) { if (a > 3) { return 1; } else { return 2; } }");
        let f = &m.functions[0];
        assert!(f.blocks.iter().any(|b| m.name_of(b.name) == "if.then"));
        assert!(f.blocks.iter().any(|b| m.name_of(b.name) == "if.else"));
    }

    #[test]
    fn do_while_lowering() {
        let m = lower("void f(int n) { int i = 0; do { i += 1; } while (i < n); }");
        let f = &m.functions[0];
        assert!(f.blocks.iter().any(|b| m.name_of(b.name) == "do.body"));
    }

    #[test]
    fn truthiness_of_ints() {
        // `while (n)` must lower an Ne-0 comparison.
        let m = lower("void f(int n) { while (n) { n -= 1; } }");
        let f = &m.functions[0];
        assert!(f.insts.iter().any(|i| matches!(
            i.kind,
            InstKind::ICmp {
                pred: IPred::Ne,
                ..
            }
        )));
    }

    #[test]
    fn noncircuit_boolean_combination() {
        let m = lower("void f(int a, int b) { if (a < 1 && b > 2) { a = 0; } }");
        let f = &m.functions[0];
        assert!(f
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Bin { op: BinOp::And, .. } if i.ty == Type::I1)));
    }

    #[test]
    fn m_pi_lowered_as_constant() {
        let m = lower("void f(double* A) { A[0] = M_PI; }");
        let f = &m.functions[0];
        let has_pi = f.insts.iter().any(|i| {
            let mut found = false;
            i.kind.for_each_operand(|v| {
                if v.as_f64() == Some(std::f64::consts::PI) {
                    found = true;
                }
            });
            found
        });
        assert!(has_pi);
    }

    #[test]
    fn compound_assignment() {
        let m = lower("void f(double* A, int i) { A[i] += 2.0; }");
        let f = &m.functions[0];
        assert!(f.insts.iter().any(|i| matches!(
            i.kind,
            InstKind::Bin {
                op: BinOp::FAdd,
                ..
            }
        )));
    }

    #[test]
    fn rejects_fall_off_nonvoid() {
        let prog = parse_program("int f() { int x = 1; }").unwrap();
        let e = lower_program(&prog, "t", &LowerOptions::default()).unwrap_err();
        assert!(e.0.contains("fall off"), "{e}");
    }

    #[test]
    fn lowered_module_verifies_and_optimizes() {
        // End-to-end sanity: lower then print for round-trip parse.
        let m = lower(
            "#define N 16\ndouble A[16];\ndouble B[16];\nvoid k() { int i; for (i = 1; i < N - 1; i++) { B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0; } }",
        );
        let text = splendid_ir::printer::module_str(&m);
        let m2 = splendid_ir::parser::parse_module(&text).unwrap();
        splendid_ir::verify::verify_module(&m2).unwrap();
    }
}
