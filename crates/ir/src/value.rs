//! SSA values: instruction results, arguments, constants, globals, and
//! function references.

use crate::{FuncId, GlobalId, InstId, Type};

/// An SSA value.
///
/// `Value` is small and `Copy`; float constants store raw IEEE-754 bits so
/// the type can implement `Eq` and `Hash` (NaN payloads compare bitwise).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// Result of an instruction in the current function.
    Inst(InstId),
    /// The n-th parameter of the current function.
    Arg(u32),
    /// Integer constant of the given type (stored sign-extended).
    ConstInt {
        /// Result type of the constant; must be an integer type.
        ty: Type,
        /// Constant payload, sign-extended to 64 bits.
        val: i64,
    },
    /// `f64` constant, stored as raw bits.
    ConstF64(u64),
    /// Address of a module global.
    Global(GlobalId),
    /// Address of a module function (used e.g. as the outlined-region
    /// argument of `__kmpc_fork_call`).
    Function(FuncId),
    /// Undefined value of the given type.
    Undef(Type),
}

impl Value {
    /// Integer constant of type `i64`.
    pub fn i64(val: i64) -> Value {
        Value::ConstInt { ty: Type::I64, val }
    }

    /// Integer constant of type `i32`.
    pub fn i32(val: i32) -> Value {
        Value::ConstInt {
            ty: Type::I32,
            val: val as i64,
        }
    }

    /// Boolean constant of type `i1`.
    pub fn bool(b: bool) -> Value {
        Value::ConstInt {
            ty: Type::I1,
            val: b as i64,
        }
    }

    /// Float constant of type `f64`.
    pub fn f64(x: f64) -> Value {
        Value::ConstF64(x.to_bits())
    }

    /// The float payload of a `ConstF64`, if this is one.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::ConstF64(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// The integer payload of a `ConstInt`, if this is one.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::ConstInt { val, .. } => Some(val),
            _ => None,
        }
    }

    /// The instruction id, if this value is an instruction result.
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Value::Inst(id) => Some(id),
            _ => None,
        }
    }

    /// Whether this value is a compile-time constant.
    pub fn is_const(self) -> bool {
        matches!(
            self,
            Value::ConstInt { .. } | Value::ConstF64(_) | Value::Undef(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Value::i64(5).as_int(), Some(5));
        assert_eq!(Value::i32(-7).as_int(), Some(-7));
        assert_eq!(Value::bool(true).as_int(), Some(1));
        assert_eq!(Value::f64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::i64(5).as_f64(), None);
        assert_eq!(Value::f64(1.5).as_int(), None);
    }

    #[test]
    fn const_predicate() {
        assert!(Value::i64(0).is_const());
        assert!(Value::f64(0.0).is_const());
        assert!(Value::Undef(Type::I64).is_const());
        assert!(!Value::Arg(0).is_const());
        assert!(!Value::Inst(InstId(3)).is_const());
        assert!(!Value::Global(GlobalId(0)).is_const());
    }

    #[test]
    fn float_bits_equality() {
        // Eq must be bitwise so values can live in hash maps.
        assert_eq!(Value::f64(2.0), Value::f64(2.0));
        assert_ne!(Value::f64(2.0), Value::f64(-2.0));
        // NaN equals itself bitwise.
        assert_eq!(Value::f64(f64::NAN), Value::f64(f64::NAN));
    }

    #[test]
    fn as_inst() {
        assert_eq!(Value::Inst(InstId(9)).as_inst(), Some(InstId(9)));
        assert_eq!(Value::Arg(0).as_inst(), None);
    }
}
