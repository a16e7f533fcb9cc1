//! Property test: printing and re-parsing seeded random modules is the
//! identity (up to dense id renumbering, which the builder already
//! guarantees).

use splendid_ir::builder::FuncBuilder;
use splendid_ir::rng::Rng;
use splendid_ir::{
    parser::parse_module, printer::module_str, BinOp, IPred, MemType, Module, Type, Value,
};

#[derive(Debug, Clone)]
enum Op {
    Int(BinOp, i64),
    Float(f64),
    Cmp(IPred, i64),
    Mem,
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.below(4) {
        0 => {
            let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Xor]);
            Op::Int(op, i64::from(rng.next_u64() as i32))
        }
        1 => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break Op::Float(x);
            }
        },
        2 => {
            let pred = *rng.pick(&[IPred::Slt, IPred::Eq, IPred::Sge]);
            Op::Cmp(pred, i64::from(rng.next_u64() as i16))
        }
        _ => Op::Mem,
    }
}

fn build(ops: &[Op]) -> Module {
    let mut m = Module::new("prop");
    let var = m.intern_di_var("x", "f");
    let mut b = FuncBuilder::new(&mut m, "f", &[("a", Type::I64)], Type::I64);
    let slot = b.alloca(MemType::array1(Type::F64, 8), "buf");
    let mut acc = b.arg(0);
    let mut facc = Value::f64(1.0);
    for op in ops {
        match op {
            Op::Int(o, c) => acc = b.bin(*o, Type::I64, acc, Value::i64(*c), ""),
            Op::Float(x) => facc = b.bin(BinOp::FAdd, Type::F64, facc, Value::f64(*x), ""),
            Op::Cmp(p, c) => {
                let cond = b.icmp(*p, acc, Value::i64(*c), "");
                acc = b.select(cond, acc, Value::i64(0), Type::I64, "");
                b.dbg_value(acc, var);
            }
            Op::Mem => {
                let p = b.gep(
                    MemType::array1(Type::F64, 8),
                    slot,
                    vec![Value::i64(0), Value::i64(3)],
                    "",
                );
                b.store(facc, p);
                facc = b.load(Type::F64, p, "");
            }
        }
    }
    b.ret(Some(acc));
    b.finish();
    m
}

#[test]
fn print_parse_roundtrip() {
    for case in 0..128 {
        let mut rng = Rng::for_case(0x2047, case);
        let ops: Vec<Op> = (0..rng.below(24)).map(|_| random_op(&mut rng)).collect();
        let m = build(&ops);
        splendid_ir::verify::verify_module(&m).unwrap();
        let text = module_str(&m);
        let m2 = parse_module(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(m, m2, "case {case}: round-trip mismatch:\n{text}");
        // And the round-trip is a fixpoint.
        assert_eq!(text, module_str(&m2), "case {case}");
    }
}
