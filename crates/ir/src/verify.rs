//! IR verifier: structural, SSA-dominance, and type checks.

use crate::{BinOp, BlockId, Callee, Function, InstId, InstKind, Module, Type, Value};
use std::collections::{HashMap, HashSet};

/// A verifier failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error occurred (empty for module-level errors).
    pub func: String,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.func.is_empty() {
            write!(f, "verify error: {}", self.msg)
        } else {
            write!(f, "verify error in @{}: {}", self.func, self.msg)
        }
    }
}

impl std::error::Error for VerifyError {}

fn err<T>(func: &str, msg: impl Into<String>) -> Result<T, VerifyError> {
    Err(VerifyError {
        func: func.into(),
        msg: msg.into(),
    })
}

/// Verify every function in the module, and that no two globals or
/// functions share a name: the parser, the interpreter and the emitted C
/// resolve a name to one definition, and would disagree on which.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    let mut seen = HashSet::new();
    let names = module.globals.iter().map(|g| (g.name, "global"));
    for (name, what) in names.chain(module.functions.iter().map(|f| (f.name, "function"))) {
        if !seen.insert(name) {
            return err(
                "",
                format!("duplicate {what} name @{}", module.name_of(name)),
            );
        }
    }
    for (i, f) in module.functions.iter().enumerate() {
        let fname = module.name_of(f.name);
        verify_function(f).map_err(|mut e| {
            e.func = format!("{} (fn{})", fname, i);
            e
        })?;
        // Check call arities against module functions.
        for inst in &f.insts {
            if let InstKind::Call {
                callee: Callee::Func(fid),
                args,
            } = &inst.kind
            {
                if fid.index() >= module.functions.len() {
                    return err(fname, format!("call to out-of-range {fid}"));
                }
                let callee = &module.functions[fid.index()];
                if callee.params.len() != args.len() {
                    return err(
                        fname,
                        format!(
                            "call to @{} passes {} args, expects {}",
                            module.name_of(callee.name),
                            args.len(),
                            callee.params.len()
                        ),
                    );
                }
            }
        }
    }
    Ok(())
}

/// Verify a single function: block structure, terminators, operand
/// definedness, SSA dominance, phi/CFG consistency, and basic typing.
///
/// Function names are interned symbols that only the owning module can
/// resolve, so errors from this entry point carry an empty function name;
/// [`verify_module`] fills in the resolved name.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    let name = "";
    if f.blocks.is_empty() {
        return err(name, "function has no blocks");
    }
    if f.entry.index() >= f.blocks.len() {
        return err(name, "entry block out of range");
    }

    // Each placed instruction appears exactly once; blocks end with exactly
    // one terminator.
    let mut placed: HashMap<InstId, BlockId> = HashMap::new();
    for bb in f.block_ids() {
        let block = f.block(bb);
        if block.insts.is_empty() {
            return err(name, format!("block {bb} is empty"));
        }
        for (pos, &i) in block.insts.iter().enumerate() {
            if i.index() >= f.insts.len() {
                return err(name, format!("block {bb} references out-of-range {i}"));
            }
            if placed.insert(i, bb).is_some() {
                return err(name, format!("{i} placed more than once"));
            }
            let inst = f.inst(i);
            if matches!(inst.kind, InstKind::Nop) {
                return err(name, format!("{i} is a nop but still placed in {bb}"));
            }
            let is_last = pos + 1 == block.insts.len();
            if inst.kind.is_terminator() != is_last {
                return err(
                    name,
                    format!(
                        "{i} in {bb}: terminator placement wrong (is_terminator={}, last={})",
                        inst.kind.is_terminator(),
                        is_last
                    ),
                );
            }
            // Branch targets in range.
            for s in inst.kind.successors() {
                if s.index() >= f.blocks.len() {
                    return err(name, format!("{i} branches to out-of-range {s}"));
                }
            }
        }
    }

    // Phis must be a prefix of their block and match CFG predecessors.
    let preds = f.predecessors();
    for bb in f.block_ids() {
        let block = f.block(bb);
        let mut seen_non_phi = false;
        for &i in &block.insts {
            let is_phi = matches!(f.inst(i).kind, InstKind::Phi { .. });
            if is_phi && seen_non_phi {
                return err(name, format!("{i}: phi not at start of {bb}"));
            }
            if !is_phi {
                seen_non_phi = true;
            }
            if let InstKind::Phi { incomings } = &f.inst(i).kind {
                let mut inc_blocks: Vec<BlockId> = incomings.iter().map(|(b, _)| *b).collect();
                inc_blocks.sort();
                inc_blocks.dedup();
                if inc_blocks.len() != incomings.len() {
                    return err(name, format!("{i}: duplicate phi predecessor"));
                }
                let mut expected = preds[bb.index()].clone();
                expected.sort();
                if inc_blocks != expected {
                    return err(
                        name,
                        format!(
                            "{i}: phi predecessors {inc_blocks:?} do not match CFG preds {expected:?} of {bb}"
                        ),
                    );
                }
            }
        }
    }

    // Operand definedness + dominance, via RPO dataflow over defined sets.
    // (A simple iterative analysis; function sizes here are modest.)
    let rpo = f.reverse_post_order();
    let reachable: HashSet<BlockId> = rpo.iter().copied().collect();
    let nblocks = f.blocks.len();
    // in_defs[b] = set of InstIds guaranteed defined on entry to b.
    let mut in_defs: Vec<Option<HashSet<InstId>>> = vec![None; nblocks];
    in_defs[f.entry.index()] = Some(HashSet::new());
    let mut changed = true;
    while changed {
        changed = false;
        for &bb in &rpo {
            let Some(entry_defs) = in_defs[bb.index()].clone() else {
                continue;
            };
            let mut defs = entry_defs;
            for &i in &f.block(bb).insts {
                if f.inst(i).has_result() {
                    defs.insert(i);
                }
            }
            for s in f.successors(bb) {
                match &mut in_defs[s.index()] {
                    Some(existing) => {
                        let before = existing.len();
                        existing.retain(|d| defs.contains(d));
                        if existing.len() != before {
                            changed = true;
                        }
                    }
                    None => {
                        in_defs[s.index()] = Some(defs.clone());
                        changed = true;
                    }
                }
            }
        }
    }

    for &bb in &rpo {
        let mut defs = in_defs[bb.index()].clone().unwrap_or_default();
        for &i in &f.block(bb).insts {
            let inst = f.inst(i);
            let check_operand = |v: Value, defs: &HashSet<InstId>| -> Result<(), VerifyError> {
                match v {
                    Value::Inst(d) => {
                        if d.index() >= f.insts.len() {
                            return err(name, format!("{i} uses out-of-range {d}"));
                        }
                        if matches!(f.inst(d).kind, InstKind::Nop) {
                            return err(name, format!("{i} uses deleted {d}"));
                        }
                        if !f.inst(d).has_result() {
                            return err(name, format!("{i} uses void result of {d}"));
                        }
                        if !defs.contains(&d) {
                            return err(name, format!("{i} uses {d} which does not dominate it"));
                        }
                        Ok(())
                    }
                    Value::Arg(a) => {
                        if (a as usize) < f.params.len() {
                            Ok(())
                        } else {
                            err(name, format!("{i} uses out-of-range argument ${a}"))
                        }
                    }
                    _ => Ok(()),
                }
            };
            if let InstKind::Phi { incomings } = &inst.kind {
                // Phi operands must be defined at the end of each incoming
                // block, not at the phi itself.
                for (pred, v) in incomings {
                    if !reachable.contains(pred) {
                        continue;
                    }
                    let mut pred_defs = in_defs[pred.index()].clone().unwrap_or_default();
                    for &pi in &f.block(*pred).insts {
                        if f.inst(pi).has_result() {
                            pred_defs.insert(pi);
                        }
                    }
                    check_operand(*v, &pred_defs)?;
                }
            } else {
                let mut result = Ok(());
                inst.kind.for_each_operand(|v| {
                    if result.is_ok() {
                        result = check_operand(v, &defs);
                    }
                });
                result?;
            }
            if inst.has_result() {
                defs.insert(i);
            }
            verify_types(f, i)?;
        }
    }
    Ok(())
}

fn verify_types(f: &Function, i: InstId) -> Result<(), VerifyError> {
    let name = "";
    let inst = f.inst(i);
    let vt = |v: Value| f.value_type(v);
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            if vt(*lhs) != inst.ty || vt(*rhs) != inst.ty {
                // Pointer arithmetic via add is disallowed; geps only.
                return err(
                    name,
                    format!(
                        "{i}: bin operand types {}/{} do not match result {}",
                        vt(*lhs),
                        vt(*rhs),
                        inst.ty
                    ),
                );
            }
            let float = matches!(op, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv);
            if float != inst.ty.arith_is_float() {
                return err(name, format!("{i}: opcode/type float mismatch"));
            }
        }
        InstKind::ICmp { lhs, rhs, .. } => {
            let (lt, rt) = (vt(*lhs), vt(*rhs));
            if lt != rt {
                return err(name, format!("{i}: icmp operand types {lt} vs {rt}"));
            }
            if !(lt.is_int() || lt == Type::Ptr) {
                return err(name, format!("{i}: icmp on non-integer {lt}"));
            }
            if inst.ty != Type::I1 {
                return err(name, format!("{i}: icmp result must be i1"));
            }
        }
        InstKind::FCmp { lhs, rhs, .. } => {
            if vt(*lhs) != Type::F64 || vt(*rhs) != Type::F64 {
                return err(name, format!("{i}: fcmp on non-float"));
            }
            if inst.ty != Type::I1 {
                return err(name, format!("{i}: fcmp result must be i1"));
            }
        }
        InstKind::Alloca { .. } | InstKind::Gep { .. } => {
            if inst.ty != Type::Ptr {
                return err(name, format!("{i}: address result must be ptr"));
            }
            if let InstKind::Gep {
                base,
                indices,
                elem,
            } = &inst.kind
            {
                if vt(*base) != Type::Ptr {
                    return err(name, format!("{i}: gep base must be ptr"));
                }
                for idx in indices {
                    if !vt(*idx).is_int() {
                        return err(name, format!("{i}: gep index must be int"));
                    }
                }
                if indices.len() > elem.gep_strides().len() {
                    return err(name, format!("{i}: too many gep indices"));
                }
            }
        }
        InstKind::Load { ptr } => {
            if vt(*ptr) != Type::Ptr {
                return err(name, format!("{i}: load from non-pointer"));
            }
            if inst.ty == Type::Void {
                return err(name, format!("{i}: load must produce a value"));
            }
        }
        InstKind::Store { ptr, val } => {
            if vt(*ptr) != Type::Ptr {
                return err(name, format!("{i}: store to non-pointer"));
            }
            if vt(*val) == Type::Void {
                return err(name, format!("{i}: cannot store void"));
            }
        }
        InstKind::Phi { incomings } => {
            for (_, v) in incomings {
                if vt(*v) != inst.ty {
                    return err(
                        name,
                        format!("{i}: phi incoming type {} != {}", vt(*v), inst.ty),
                    );
                }
            }
        }
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => {
            if vt(*cond) != Type::I1 {
                return err(name, format!("{i}: select condition must be i1"));
            }
            if vt(*then_val) != inst.ty || vt(*else_val) != inst.ty {
                return err(name, format!("{i}: select arm types mismatch"));
            }
        }
        InstKind::Splat { val } => {
            let Some(lane_ty) = inst.ty.lane_type() else {
                return err(name, format!("{i}: splat result must be a vector"));
            };
            if vt(*val) != lane_ty {
                return err(
                    name,
                    format!("{i}: splat operand {} != lane type {lane_ty}", vt(*val)),
                );
            }
        }
        InstKind::ExtractLane { vec, lane } => {
            let vty = vt(*vec);
            let Some(v) = vty.vec_ty() else {
                return err(name, format!("{i}: extractlane from non-vector {vty}"));
            };
            if inst.ty != v.elem.scalar() {
                return err(name, format!("{i}: extractlane result must be lane type"));
            }
            if *lane >= v.lanes {
                return err(name, format!("{i}: lane {lane} out of range"));
            }
        }
        InstKind::InsertLane { vec, val, lane } => {
            let Some(v) = inst.ty.vec_ty() else {
                return err(name, format!("{i}: insertlane result must be a vector"));
            };
            if vt(*vec) != inst.ty {
                return err(
                    name,
                    format!("{i}: insertlane vector operand type mismatch"),
                );
            }
            if vt(*val) != v.elem.scalar() {
                return err(name, format!("{i}: insertlane value must be lane type"));
            }
            if *lane >= v.lanes {
                return err(name, format!("{i}: lane {lane} out of range"));
            }
        }
        InstKind::Reduce { acc, vec, .. } => {
            let vty = vt(*vec);
            let Some(v) = vty.vec_ty() else {
                return err(name, format!("{i}: reduce of non-vector {vty}"));
            };
            if inst.ty != v.elem.scalar() {
                return err(name, format!("{i}: reduce result must be lane type"));
            }
            if vt(*acc) != v.elem.scalar() {
                return err(name, format!("{i}: reduce accumulator must be lane type"));
            }
        }
        InstKind::Cast { op, val } if inst.ty.is_vector() || vt(*val).is_vector() => {
            let (src, dst) = (vt(*val).vec_ty(), inst.ty.vec_ty());
            let (Some(src), Some(dst)) = (src, dst) else {
                return err(name, format!("{i}: cast mixes vector and scalar"));
            };
            if src.lanes != dst.lanes {
                return err(name, format!("{i}: cast changes lane count"));
            }
            let ok = match op {
                crate::CastOp::SiToFp => !src.elem.is_float() && dst.elem.is_float(),
                crate::CastOp::FpToSi => src.elem.is_float() && !dst.elem.is_float(),
                _ => false,
            };
            if !ok {
                return err(name, format!("{i}: unsupported vector cast {}", op.name()));
            }
        }
        InstKind::Cast { op, val } => {
            let (from, to) = (vt(*val), inst.ty);
            let ok = match op {
                crate::CastOp::Trunc | crate::CastOp::Sext | crate::CastOp::Zext => {
                    from.is_int() && to.is_int()
                }
                crate::CastOp::SiToFp => from.is_int() && to == Type::F64,
                crate::CastOp::FpToSi => from == Type::F64 && to.is_int(),
                crate::CastOp::Bitcast => true,
            };
            if !ok {
                return err(name, format!("{i}: cast {} from {from} to {to}", op.name()));
            }
        }
        InstKind::CondBr { cond, .. } if vt(*cond) != Type::I1 => {
            return err(name, format!("{i}: condbr condition must be i1"));
        }
        InstKind::Ret { val } => match (val, f.ret_ty) {
            (None, Type::Void) => {}
            (Some(v), t) if vt(*v) == t => {}
            _ => return err(name, format!("{i}: return type mismatch")),
        },
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::{Inst, Module};

    #[test]
    fn accepts_valid_function() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[("x", Type::I64)], Type::I64);
        let s = b.bin(BinOp::Add, Type::I64, b.arg(0), Value::i64(1), "");
        b.ret(Some(s));
        verify_function(&b.into_func()).unwrap();
    }

    #[test]
    fn rejects_duplicate_global_and_function_names() {
        // The parser binds `@A` to the later global, but a by-name lookup
        // finds the earlier one.
        let text = "module \"dup\"
global @A : [2 x f64] = zero
global @A : [4 x f64] = splat 1.5

func @f() -> f64 {
bb0 entry:
  %0 = gep [4 x f64], @A, i64 0, i64 1
  %1 = load f64, %0
  ret %1
}
";
        let m = crate::parser::parse_module(text).unwrap();
        let e = verify_module(&m).unwrap_err();
        assert_eq!(e.msg, "duplicate global name @A", "{e}");

        let twice = "module \"dupf\"
func @f() -> i64 {
bb0 entry:
  ret i64 1
}

func @f() -> i64 {
bb0 entry:
  ret i64 2
}
";
        let m = crate::parser::parse_module(twice).unwrap();
        let e = verify_module(&m).unwrap_err();
        assert_eq!(e.msg, "duplicate function name @f", "{e}");
    }

    #[test]
    fn rejects_ill_typed_scalar_casts() {
        // Verified, the first one ran and failed in the interpreter with
        // `expected int, got F64(..)`.
        for (cast, msg) in [
            ("trunc $0 to i64", "cast trunc from f64 to i64"),
            ("sext $0 to i64", "cast sext from f64 to i64"),
            ("fptosi $1 to i64", "cast fptosi from i64 to i64"),
            ("sitofp $0 to f64", "cast sitofp from f64 to f64"),
            ("sitofp $1 to i32", "cast sitofp from i64 to i32"),
        ] {
            let text = format!(
                "module \"casts\"\n\nfunc @f($0:x f64, $1:n i64) -> i64 {{\nbb0 entry:\n  %0 = cast {cast}\n  ret i64 0\n}}\n"
            );
            let m = crate::parser::parse_module(&text).unwrap();
            let e = verify_module(&m).unwrap_err();
            assert!(e.msg.ends_with(msg), "{cast}: {e}");
        }
        let ok = "module \"casts\"\n\nfunc @f($0:x f64, $1:n i64) -> i64 {\nbb0 entry:\n  %0 = cast trunc $1 to i32\n  %1 = cast sitofp %0 to f64\n  %2 = cast fptosi %1 to i64\n  %3 = cast bitcast $0 to i64\n  ret %2\n}\n";
        verify_module(&crate::parser::parse_module(ok).unwrap()).unwrap();
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        b.bin(BinOp::Add, Type::I64, Value::i64(1), Value::i64(2), "");
        let e = verify_function(&b.into_func()).unwrap_err();
        assert!(e.msg.contains("terminator"), "{e}");
    }

    #[test]
    fn rejects_use_before_def() {
        // entry: condbr c, a, b ; a: %x = add ; b: use %x  (no dominance)
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[("c", Type::I1)], Type::Void);
        let a = b.new_block("a");
        let bb = b.new_block("b");
        b.cond_br(b.arg(0), a, bb);
        b.switch_to(a);
        let x = b.bin(BinOp::Add, Type::I64, Value::i64(1), Value::i64(2), "x");
        b.ret(None);
        b.switch_to(bb);
        let y = b.bin(BinOp::Add, Type::I64, x, Value::i64(1), "y");
        let _ = y;
        b.ret(None);
        let e = verify_function(&b.into_func()).unwrap_err();
        assert!(e.msg.contains("dominate"), "{e}");
    }

    #[test]
    fn rejects_phi_pred_mismatch() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        let next = b.new_block("next");
        b.br(next);
        b.switch_to(next);
        // Phi claims a predecessor that is not a CFG pred.
        b.phi(Type::I64, vec![(next, Value::i64(0))], "p");
        b.ret(None);
        let e = verify_function(&b.into_func()).unwrap_err();
        assert!(e.msg.contains("phi predecessors"), "{e}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        b.bin(BinOp::Add, Type::I64, Value::i64(1), Value::f64(1.0), "");
        b.ret(None);
        let e = verify_function(&b.into_func()).unwrap_err();
        assert!(e.msg.contains("bin operand types"), "{e}");
    }

    #[test]
    fn rejects_float_opcode_on_int() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        b.bin(BinOp::FAdd, Type::I64, Value::i64(1), Value::i64(2), "");
        b.ret(None);
        let e = verify_function(&b.into_func()).unwrap_err();
        assert!(e.msg.contains("float mismatch"), "{e}");
    }

    #[test]
    fn rejects_bad_ret_type() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::I64);
        b.ret(Some(Value::f64(0.0)));
        let e = verify_function(&b.into_func()).unwrap_err();
        assert!(e.msg.contains("return type"), "{e}");
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = Module::new("m");
        let mut callee = FuncBuilder::new(&mut m, "g", &[("x", Type::I64)], Type::Void);
        callee.ret(None);
        let gid = callee.finish();
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        b.call(crate::Callee::Func(gid), vec![], Type::Void, "");
        b.ret(None);
        b.finish();
        let e = verify_module(&m).unwrap_err();
        assert!(e.msg.contains("passes 0 args"), "{e}");
        assert!(e.func.contains('f'), "{e}");
    }

    #[test]
    fn loop_phi_back_edge_accepted() {
        // Built in builder tests too, but assert here the dominance logic
        // accepts a value defined in the loop body used by the header phi.
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[("n", Type::I64)], Type::Void);
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let entry = b.current_block();
        b.br(header);
        b.switch_to(header);
        let iv = b.phi(Type::I64, vec![(entry, Value::i64(0))], "i");
        let c = b.icmp(crate::IPred::Slt, iv, b.arg(0), "");
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let next = b.bin(BinOp::Add, Type::I64, iv, Value::i64(1), "");
        if let Value::Inst(p) = iv {
            if let InstKind::Phi { incomings } = &mut b.func_mut().inst_mut(p).kind {
                incomings.push((body, next));
            }
        }
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        verify_function(&b.into_func()).unwrap();
    }

    #[test]
    fn rejects_empty_block() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        b.new_block("empty");
        b.ret(None);
        let e = verify_function(&b.into_func()).unwrap_err();
        assert!(e.msg.contains("empty"), "{e}");
    }

    #[test]
    fn nop_placed_rejected() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        b.ret(None);
        let mut f = b.into_func();
        let nop = f.add_inst(Inst::new(InstKind::Nop, Type::Void));
        f.block_mut(f.entry).insts.insert(0, nop);
        let e = verify_function(&f).unwrap_err();
        assert!(e.msg.contains("nop"), "{e}");
    }
}
