//! The interpreter and the constant folder agree on every operation: for
//! each binary operator, comparison and cast, running `op ty $0, $1` in
//! the VM gives exactly the constant `fold_constants` turns the same
//! instruction with constant operands into. An undefined result (division
//! by zero) must be an execution error on one side and left unfolded on
//! the other.

use splendid_interp::{MachineConfig, RtVal, Vm};
use splendid_ir::builder::FuncBuilder;
use splendid_ir::{BinOp, CastOp, FPred, IPred, InstKind, Module, Type, Value};
use splendid_transforms::constfold::fold_constants;

const INT_TYPES: [Type; 4] = [Type::I1, Type::I8, Type::I32, Type::I64];

/// Builds the instruction under test from its operands.
type Make = dyn Fn(&mut FuncBuilder, &[Value]) -> Value;

/// Those of {0, 1, -1, 31, 63, 65536, MIN, MAX} that are values of `ty`
/// (`i1` is 0 or 1).
fn int_operands(ty: Type) -> Vec<Value> {
    let (min, max) = match ty.int_bits().unwrap() {
        1 => (0, 1),
        bits => (i64::MIN >> (64 - bits), i64::MAX >> (64 - bits)),
    };
    let mut vals = vec![0, 1, -1, 31, 63, 65536, min, max];
    vals.retain(|v| (min..=max).contains(v));
    vals.sort_unstable();
    vals.dedup();
    vals.into_iter()
        .map(|val| Value::ConstInt { ty, val })
        .collect()
}

fn float_operands() -> Vec<Value> {
    [
        0.0,
        -0.0,
        1.0,
        -2.5,
        31.75,
        3e9,
        -1e19,
        f64::INFINITY,
        f64::NAN,
    ]
    .iter()
    .map(|&x| Value::f64(x))
    .collect()
}

fn pairs(xs: &[Value]) -> Vec<Vec<Value>> {
    xs.iter()
        .flat_map(|&a| xs.iter().map(move |&b| vec![a, b]))
        .collect()
}

fn singles(xs: &[Value]) -> Vec<Vec<Value>> {
    xs.iter().map(|&a| vec![a]).collect()
}

/// The constant an instruction computes, as the VM produced it.
fn run_value(r: RtVal, ty: Type) -> Value {
    match r {
        RtVal::Int(val) => Value::ConstInt { ty, val },
        RtVal::F64(x) => Value::f64(x),
        other => panic!("non-scalar result {other:?}"),
    }
}

fn rt_arg(v: Value) -> RtVal {
    match v {
        Value::ConstInt { val, .. } => RtVal::Int(val),
        Value::ConstF64(bits) => RtVal::F64(f64::from_bits(bits)),
        other => panic!("non-constant operand {other:?}"),
    }
}

/// What `fold_constants` returns the instruction as, or `None` if it left
/// the instruction in place.
fn folded(make: &Make, operands: &[Value], ret: Type) -> Option<Value> {
    let mut m = Module::new("fold");
    let mut b = FuncBuilder::new(&mut m, "f", &[], ret);
    let r = make(&mut b, operands);
    b.ret(Some(r));
    let mut f = b.into_func();
    fold_constants(&mut f);
    f.insts.iter().find_map(|i| match i.kind {
        InstKind::Ret { val: Some(v) } if v.is_const() => Some(v),
        _ => None,
    })
}

/// Runs `make` over every operand tuple in `inputs` both ways and returns
/// each disagreement.
fn check(
    label: &str,
    params: &[Type],
    ret: Type,
    make: &Make,
    inputs: &[Vec<Value>],
) -> Vec<String> {
    let mut m = Module::new("run");
    let named: Vec<(&str, Type)> = params.iter().map(|&t| ("p", t)).collect();
    let mut b = FuncBuilder::new(&mut m, "f", &named, ret);
    let args: Vec<Value> = (0..params.len() as u32).map(|i| b.arg(i)).collect();
    let r = make(&mut b, &args);
    b.ret(Some(r));
    b.finish();
    let mut vm = Vm::new(&m, MachineConfig::default());
    let mut bad = Vec::new();
    for operands in inputs {
        let rt: Vec<RtVal> = operands.iter().map(|&v| rt_arg(v)).collect();
        let run = match vm.call_by_name("f", &rt) {
            Ok(Some(r)) => Some(run_value(r, ret)),
            Ok(None) => panic!("{label}: no result"),
            Err(_) => None,
        };
        let fold = folded(make, operands, ret);
        if run != fold {
            bad.push(format!(
                "{label} {operands:?}: interpreter {run:?}, constant folder {fold:?}"
            ));
        }
    }
    bad
}

fn assert_agree(bad: Vec<String>) {
    assert!(
        bad.is_empty(),
        "{} disagreements, first ones:\n{}",
        bad.len(),
        bad[..bad.len().min(20)].join("\n")
    );
}

#[test]
fn binary_operators_agree() {
    use BinOp::*;
    let mut bad = Vec::new();
    for ty in INT_TYPES {
        let inputs = pairs(&int_operands(ty));
        for op in [Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr] {
            let make = move |b: &mut FuncBuilder, v: &[Value]| b.bin(op, ty, v[0], v[1], "");
            let label = format!("{} {ty}", op.name());
            bad.extend(check(&label, &[ty, ty], ty, &make, &inputs));
        }
    }
    let inputs = pairs(&float_operands());
    for op in [FAdd, FSub, FMul, FDiv] {
        let make = move |b: &mut FuncBuilder, v: &[Value]| b.bin(op, Type::F64, v[0], v[1], "");
        let label = format!("{} f64", op.name());
        bad.extend(check(&label, &[Type::F64; 2], Type::F64, &make, &inputs));
    }
    assert_agree(bad);
}

#[test]
fn comparisons_agree() {
    use IPred::*;
    let mut bad = Vec::new();
    for ty in INT_TYPES {
        let inputs = pairs(&int_operands(ty));
        for pred in [Eq, Ne, Slt, Sle, Sgt, Sge] {
            let make = move |b: &mut FuncBuilder, v: &[Value]| b.icmp(pred, v[0], v[1], "");
            let label = format!("icmp {} {ty}", pred.name());
            bad.extend(check(&label, &[ty, ty], Type::I1, &make, &inputs));
        }
    }
    let inputs = pairs(&float_operands());
    for pred in [
        FPred::Oeq,
        FPred::One,
        FPred::Olt,
        FPred::Ole,
        FPred::Ogt,
        FPred::Oge,
    ] {
        let make = move |b: &mut FuncBuilder, v: &[Value]| b.fcmp(pred, v[0], v[1], "");
        let label = format!("fcmp {}", pred.name());
        bad.extend(check(&label, &[Type::F64; 2], Type::I1, &make, &inputs));
    }
    assert_agree(bad);
}

#[test]
fn casts_agree() {
    let mut bad = Vec::new();
    let mut cast = |op: CastOp, from: Type, to: Type, inputs: &[Vec<Value>]| {
        let make = move |b: &mut FuncBuilder, v: &[Value]| b.cast(op, v[0], to, "");
        let label = format!("{} {from} to {to}", op.name());
        bad.extend(check(&label, &[from], to, &make, inputs));
    };
    for (i, &from) in INT_TYPES.iter().enumerate() {
        let inputs = singles(&int_operands(from));
        for &to in &INT_TYPES[i + 1..] {
            cast(CastOp::Sext, from, to, &inputs);
            cast(CastOp::Zext, from, to, &inputs);
        }
        for &to in &INT_TYPES[..i] {
            cast(CastOp::Trunc, from, to, &inputs);
        }
        cast(CastOp::SiToFp, from, Type::F64, &inputs);
    }
    let inputs = singles(&float_operands());
    for to in INT_TYPES {
        cast(CastOp::FpToSi, Type::F64, to, &inputs);
    }
    assert_agree(bad);
}
