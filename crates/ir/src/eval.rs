//! What each operation computes: the one definition of the integer and
//! float binary operators, the two comparisons and the casts.
//!
//! The interpreter (`splendid-interp`) applies these to runtime values and
//! the constant folder (`splendid-transforms`) to constant operands, so an
//! `-O0` run and an `-O2` fold cannot disagree about a result. Values use
//! the interpreter's representation: an integer of any width lives in an
//! `i64`, sign-extended from its width, with `i1` kept as 0/1; a double is
//! an `f64`. Every function is `#[inline]` because the workspace builds
//! without LTO and the interpreter calls them once per executed
//! instruction.

use crate::{BinOp, CastOp, FPred, IPred, Type};

/// An operation whose result is not defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// `sdiv` by zero.
    DivisionByZero,
    /// `srem` by zero.
    RemainderByZero,
    /// A float opcode given integers, or an integer opcode given doubles.
    WrongKind(BinOp),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::DivisionByZero => f.write_str("division by zero"),
            EvalError::RemainderByZero => f.write_str("remainder by zero"),
            EvalError::WrongKind(op) => write!(f, "opcode {} on the wrong operand kind", op.name()),
        }
    }
}

impl std::error::Error for EvalError {}

/// `v` sign-truncated to the width of integer type `ty`; `i1` becomes 0/1
/// so a boolean has one representation. Non-integer types leave `v` as is.
#[inline]
pub fn truncate(v: i64, ty: Type) -> i64 {
    match ty.int_bits() {
        Some(64) | None => v,
        Some(1) => v & 1,
        Some(bits) => {
            let shift = 64 - bits;
            (v << shift) >> shift
        }
    }
}

/// Integer `a op b` at result type `ty`: two's-complement wrapping, then
/// [`truncate`]d to `ty`.
#[inline]
pub fn int_bin(op: BinOp, a: i64, b: i64, ty: Type) -> Result<i64, EvalError> {
    let raw = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv if b == 0 => return Err(EvalError::DivisionByZero),
        BinOp::SDiv => a.wrapping_div(b),
        BinOp::SRem if b == 0 => return Err(EvalError::RemainderByZero),
        BinOp::SRem => a.wrapping_rem(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::AShr => a.wrapping_shr(b as u32),
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
            return Err(EvalError::WrongKind(op))
        }
    };
    Ok(truncate(raw, ty))
}

/// Float `a op b` (IEEE-754 double, so division by zero is an infinity or
/// NaN, not an error).
#[inline]
pub fn float_bin(op: BinOp, a: f64, b: f64) -> Result<f64, EvalError> {
    match op {
        BinOp::FAdd => Ok(a + b),
        BinOp::FSub => Ok(a - b),
        BinOp::FMul => Ok(a * b),
        BinOp::FDiv => Ok(a / b),
        _ => Err(EvalError::WrongKind(op)),
    }
}

/// Signed integer comparison `a pred b`.
#[inline]
pub fn icmp(pred: IPred, a: i64, b: i64) -> bool {
    match pred {
        IPred::Eq => a == b,
        IPred::Ne => a != b,
        IPred::Slt => a < b,
        IPred::Sle => a <= b,
        IPred::Sgt => a > b,
        IPred::Sge => a >= b,
    }
}

/// Ordered float comparison `a pred b`: false whenever either side is
/// NaN, except `one`, which is `!(a == b)` and so true.
#[inline]
pub fn fcmp(pred: FPred, a: f64, b: f64) -> bool {
    match pred {
        FPred::Oeq => a == b,
        FPred::One => a != b,
        FPred::Olt => a < b,
        FPred::Ole => a <= b,
        FPred::Ogt => a > b,
        FPred::Oge => a >= b,
    }
}

/// Integer `v` of type `from` cast to integer type `to`. `zext` first
/// clears the bits above `from`'s width; `sext`, `trunc` and an integer
/// `bitcast` keep the value. The result is [`truncate`]d to `to`. (`i1`
/// is 0/1, so `sext` of true is 1.)
#[inline]
pub fn int_cast(op: CastOp, v: i64, from: Type, to: Type) -> i64 {
    let v = match (op, from.int_bits()) {
        (CastOp::Zext, Some(bits)) if bits < 64 => v & ((1i64 << bits) - 1),
        _ => v,
    };
    truncate(v, to)
}

/// `sitofp`: the double nearest to `v`.
#[inline]
pub fn int_to_float(v: i64) -> f64 {
    v as f64
}

/// `fptosi` to integer type `to`: toward zero, saturating at the `i64`
/// range (NaN gives 0), then [`truncate`]d to `to`.
#[inline]
pub fn float_to_int(v: f64, to: Type) -> i64 {
    truncate(v as i64, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_semantics() {
        assert_eq!(truncate(0x1_0000_0001, Type::I32), 1);
        assert_eq!(truncate(255, Type::I8), -1);
        assert_eq!(truncate(1, Type::I1), 1);
        assert_eq!(truncate(2, Type::I1), 0);
        assert_eq!(truncate(i64::MAX, Type::I64), i64::MAX);
    }

    #[test]
    fn sub_word_results_wrap_at_their_width() {
        assert_eq!(
            int_bin(BinOp::Add, i32::MAX as i64, 1, Type::I32),
            Ok(i32::MIN as i64)
        );
        assert_eq!(int_bin(BinOp::Mul, 65536, 65536, Type::I32), Ok(0));
        assert_eq!(int_bin(BinOp::Shl, 1, 31, Type::I32), Ok(i32::MIN as i64));
        assert_eq!(int_bin(BinOp::Sub, 0, 1, Type::I1), Ok(1));
        assert_eq!(int_cast(CastOp::Zext, -1, Type::I8, Type::I64), 255);
        assert_eq!(int_cast(CastOp::Trunc, 1, Type::I64, Type::I1), 1);
        assert_eq!(float_to_int(3e9, Type::I32), 3_000_000_000i64 as i32 as i64);
    }

    #[test]
    fn undefined_results_are_errors() {
        assert_eq!(
            int_bin(BinOp::SDiv, 1, 0, Type::I64),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            int_bin(BinOp::SRem, 1, 0, Type::I8),
            Err(EvalError::RemainderByZero)
        );
        assert_eq!(int_bin(BinOp::SDiv, i64::MIN, -1, Type::I64), Ok(i64::MIN));
        assert_eq!(
            int_bin(BinOp::FAdd, 1, 2, Type::I64),
            Err(EvalError::WrongKind(BinOp::FAdd))
        );
        assert_eq!(
            float_bin(BinOp::Add, 1.0, 2.0),
            Err(EvalError::WrongKind(BinOp::Add))
        );
        assert_eq!(float_bin(BinOp::FDiv, 1.0, 0.0), Ok(f64::INFINITY));
    }
}
