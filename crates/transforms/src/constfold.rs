//! Constant folding and algebraic simplification.

use splendid_ir::{eval, BinOp, CastOp, Function, InstId, InstKind, Type, Value};

/// Fold constants and algebraic identities until a fixpoint. Returns the
/// number of instructions folded.
pub fn fold_constants(f: &mut Function) -> usize {
    let mut folded = 0;
    loop {
        let mut changed = false;
        for idx in 0..f.insts.len() {
            let id = InstId(idx as u32);
            if matches!(f.inst(id).kind, InstKind::Nop) {
                continue;
            }
            if let Some(v) = fold_inst(f, id) {
                f.replace_all_uses(Value::Inst(id), v);
                f.delete_inst(id);
                folded += 1;
                changed = true;
            }
        }
        if !changed {
            return folded;
        }
    }
}

/// The folded value of instruction `id`, if it can be computed or
/// simplified away. Constant operands are evaluated by
/// [`splendid_ir::eval`], the same definitions the interpreter runs.
pub fn fold_inst(f: &Function, id: InstId) -> Option<Value> {
    let inst = f.inst(id);
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => fold_bin(*op, *lhs, *rhs, inst.ty),
        InstKind::ICmp { pred, lhs, rhs } => {
            Some(Value::bool(eval::icmp(*pred, lhs.as_int()?, rhs.as_int()?)))
        }
        InstKind::FCmp { pred, lhs, rhs } => {
            Some(Value::bool(eval::fcmp(*pred, lhs.as_f64()?, rhs.as_f64()?)))
        }
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => match cond.as_int() {
            Some(1) => Some(*then_val),
            Some(0) => Some(*else_val),
            _ => (then_val == else_val).then_some(*then_val),
        },
        InstKind::Cast { op, val } => fold_cast(*op, *val, inst.ty),
        _ => None,
    }
}

fn fold_bin(op: BinOp, lhs: Value, rhs: Value, ty: Type) -> Option<Value> {
    // Full constant folding; an undefined result (division by zero) is
    // left for the program to hit at run time.
    if let (Some(a), Some(b)) = (lhs.as_int(), rhs.as_int()) {
        let val = eval::int_bin(op, a, b, ty).ok()?;
        return Some(Value::ConstInt { ty, val });
    }
    if let (Some(a), Some(b)) = (lhs.as_f64(), rhs.as_f64()) {
        return eval::float_bin(op, a, b).ok().map(Value::f64);
    }
    // Algebraic identities (integer only; float identities would change
    // NaN/sign semantics).
    let zero = Value::ConstInt { ty, val: 0 };
    let one = Value::ConstInt { ty, val: 1 };
    match op {
        BinOp::Add => {
            if rhs == zero {
                return Some(lhs);
            }
            if lhs == zero {
                return Some(rhs);
            }
        }
        BinOp::Sub => {
            if rhs == zero {
                return Some(lhs);
            }
            if lhs == rhs {
                return Some(zero);
            }
        }
        BinOp::Mul => {
            if rhs == one {
                return Some(lhs);
            }
            if lhs == one {
                return Some(rhs);
            }
            if rhs == zero || lhs == zero {
                return Some(zero);
            }
        }
        BinOp::SDiv if rhs == one => {
            return Some(lhs);
        }
        BinOp::And if lhs == rhs => {
            return Some(lhs);
        }
        BinOp::Or => {
            if lhs == rhs {
                return Some(lhs);
            }
            if rhs == zero {
                return Some(lhs);
            }
            if lhs == zero {
                return Some(rhs);
            }
        }
        BinOp::Xor if lhs == rhs => {
            return Some(zero);
        }
        BinOp::Shl | BinOp::AShr if rhs == zero => {
            return Some(lhs);
        }
        _ => {}
    }
    None
}

fn fold_cast(op: CastOp, val: Value, to: Type) -> Option<Value> {
    let val = match (op, val) {
        // Reinterpreting a pointer-sized value leaves nothing to fold.
        (CastOp::Bitcast, _) => return None,
        (CastOp::SiToFp, _) => return Some(Value::f64(eval::int_to_float(val.as_int()?))),
        (CastOp::FpToSi, _) => eval::float_to_int(val.as_f64()?, to),
        (_, Value::ConstInt { ty: from, val }) => eval::int_cast(op, val, from, to),
        _ => return None,
    };
    Some(Value::ConstInt { ty: to, val })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::builder::FuncBuilder;
    use splendid_ir::{IPred, Module};

    #[test]
    fn folds_arithmetic_chain() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::I64);
        let a = b.bin(BinOp::Add, Type::I64, Value::i64(2), Value::i64(3), "");
        let c = b.bin(BinOp::Mul, Type::I64, a, Value::i64(4), "");
        b.ret(Some(c));
        let mut f = b.into_func();
        let n = fold_constants(&mut f);
        assert_eq!(n, 2);
        let ret = f
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Ret { val } => val,
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, Value::i64(20));
        splendid_ir::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn identities() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[("x", Type::I64)], Type::I64);
        let x = b.arg(0);
        let a = b.bin(BinOp::Add, Type::I64, x, Value::i64(0), "");
        let m = b.bin(BinOp::Mul, Type::I64, a, Value::i64(1), "");
        let s = b.bin(BinOp::Sub, Type::I64, m, Value::i64(0), "");
        b.ret(Some(s));
        let mut f = b.into_func();
        fold_constants(&mut f);
        let ret = f
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Ret { val } => val,
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, x);
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::I64);
        let d = b.bin(BinOp::SDiv, Type::I64, Value::i64(1), Value::i64(0), "");
        b.ret(Some(d));
        let mut f = b.into_func();
        assert_eq!(fold_constants(&mut f), 0);
    }

    #[test]
    fn float_folding() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::F64);
        let a = b.bin(BinOp::FMul, Type::F64, Value::f64(2.0), Value::f64(3.5), "");
        b.ret(Some(a));
        let mut f = b.into_func();
        fold_constants(&mut f);
        let ret = f
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Ret { val } => val,
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, Value::f64(7.0));
    }

    #[test]
    fn cmp_and_select_fold() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::I64);
        let c = b.icmp(IPred::Slt, Value::i64(1), Value::i64(2), "");
        let s = b.select(c, Value::i64(10), Value::i64(20), Type::I64, "");
        b.ret(Some(s));
        let mut f = b.into_func();
        fold_constants(&mut f);
        let ret = f
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Ret { val } => val,
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, Value::i64(10));
    }

    #[test]
    fn casts_fold() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::F64);
        let w = b.cast(CastOp::Sext, Value::i32(-5), Type::I64, "");
        let x = b.cast(CastOp::SiToFp, w, Type::F64, "");
        b.ret(Some(x));
        let mut f = b.into_func();
        fold_constants(&mut f);
        let ret = f
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Ret { val } => val,
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, Value::f64(-5.0));
    }

    #[test]
    fn float_identities_not_applied() {
        // x + 0.0 must not fold (x could be -0.0).
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[("x", Type::F64)], Type::F64);
        let a = b.bin(BinOp::FAdd, Type::F64, b.arg(0), Value::f64(0.0), "");
        b.ret(Some(a));
        let mut f = b.into_func();
        assert_eq!(fold_constants(&mut f), 0);
    }
}
