//! The IR → C vocabulary every emitter shares: operators, casts and
//! declared types. The structured and literal tiers, the module-level
//! global declarations and the baselines must agree on these, so each
//! mapping is defined once, here.

use splendid_cfront::ast::{CBinOp, CExpr, CType};
use splendid_ir::{BinOp, CastOp, FPred, IPred, MemType, Type};

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

/// C type of a global of memory type `mem`.
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
