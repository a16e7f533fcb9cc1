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
//! materialized; they fold into `A[i][j]` index expressions at each use.
//! Operands, addresses and expressions come from the same translator in
//! `cmap` that the structurer uses.

use crate::cmap::{self, assign, ctype_of, ctype_of_mem, Operand, Translator};
use crate::detransform::decode_marker;
use crate::devectorize::decode_simd_marker;
use crate::error::{SplendidError, Stage};
use splendid_cfront::ast::{CBinOp, CExpr, CFunc, CStmt};
use splendid_ir::{BlockId, Function, InstId, InstKind, Module, ReduceOp, Type, Value};
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

/// Emit `f` at the literal tier.
pub fn emit_literal(module: &Module, f: &Function) -> Result<LiteralFunc, SplendidError> {
    let err =
        |msg: String| SplendidError::fatal(Stage::Emit, msg).in_function(module.name_of(f.name));
    cmap::check_refs(module, f).map_err(err)?;

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
    let decl = |name: String, ty| CStmt::Decl {
        name,
        ty,
        init: None,
    };
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            let inst = f.inst(i);
            if decode_marker(&module.symbols, &inst.kind).is_some()
                || decode_simd_marker(&module.symbols, &inst.kind).is_some()
            {
                continue;
            }
            if !inst.has_result() || matches!(inst.kind, InstKind::Gep { .. }) {
                continue; // geps fold at each use
            }
            let name = format!("{vp}{}", i.0);
            let is_phi = matches!(inst.kind, InstKind::Phi { .. });
            match (&inst.kind, inst.ty.vec_ty()) {
                (InstKind::Alloca { mem }, _) => decls.push(decl(name.clone(), ctype_of_mem(mem))),
                (_, Some(_)) if is_phi => {
                    return Err(err(format!("vector phi %{} has no literal form", i.0)));
                }
                // Vector values become one scalar variable per lane
                // (`v7_0 .. v7_3`): the lane-explicit bottom rung for IR
                // the devectorizer did not recognize.
                (_, Some(vt)) => {
                    let lane_ty = ctype_of(if vt.elem.is_float() {
                        Type::F64
                    } else {
                        Type::I64
                    });
                    for l in 0..vt.lanes {
                        decls.push(decl(format!("{name}_{l}"), lane_ty.clone()));
                    }
                }
                (_, None) => {
                    decls.push(decl(name.clone(), ctype_of(inst.ty)));
                    if is_phi {
                        let t = format!("{tp}{}", i.0);
                        decls.push(decl(t.clone(), ctype_of(inst.ty)));
                        temps.insert(i, t);
                    }
                }
            }
            names[i.index()] = Some(name);
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
                    None => return Err(err(format!("void phi %{}", i.0))),
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
        em.emit_block(bb, &mut body).map_err(err)?;
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
    fn name_of(&self, id: InstId) -> Result<String, String> {
        self.names[id.index()]
            .clone()
            .ok_or_else(|| format!("no variable for inst %{}", id.0))
    }

    /// The shared translator: instruction results read their variable;
    /// only geps fold into their uses, as index expressions.
    fn tr(&self) -> Translator<'a, impl Fn(InstId) -> Result<Operand, String> + '_> {
        Translator {
            module: self.module,
            f: self.f,
            hook: |id: InstId| match self.f.inst(id).kind {
                InstKind::Gep { .. } => Ok(Operand::Inline),
                _ => self.name_of(id).map(Operand::Var),
            },
        }
    }

    /// Lane count of a vector-typed value.
    fn lanes_of(&self, v: Value) -> Result<u8, String> {
        let lanes = match v {
            Value::Inst(id) => self.f.inst(id).ty.lanes(),
            Value::Undef(t) => t.lanes(),
            _ => None,
        };
        lanes.ok_or_else(|| format!("expected a vector value, got {v:?}"))
    }

    /// The per-lane variable of a vector-valued instruction.
    fn lane_name(&self, id: InstId, lane: u8) -> Result<String, String> {
        Ok(format!("{}_{lane}", self.name_of(id)?))
    }

    /// The C expression for one lane of a vector operand.
    fn lane_operand(&self, v: Value, lane: u8) -> Result<CExpr, String> {
        match v {
            Value::Inst(id) if self.f.inst(id).ty.is_vector() => {
                Ok(CExpr::ident(self.lane_name(id, lane)?))
            }
            Value::Undef(t) if t.is_vector() => Ok(match t.vec_ty() {
                Some(vt) if vt.elem.is_float() => CExpr::Float(0.0),
                _ => CExpr::Int(0),
            }),
            other => Err(format!("non-vector operand {other:?} in a vector context")),
        }
    }

    /// The element lvalue `lane` steps past a wide access's address:
    /// `A[i]` -> `A[i + lane]`.
    fn lane_lvalue(&self, ptr: Value, lane: u8) -> Result<CExpr, String> {
        let base = self.tr().lvalue(ptr)?;
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
            other => Err(format!(
                "wide access through non-indexable address {other:?}"
            )),
        }
    }

    /// Phi parallel copies for the edge `from -> to`, then `goto L<to>`.
    fn emit_edge(&mut self, from: BlockId, to: BlockId) -> Result<Vec<CStmt>, String> {
        let mut out = Vec::new();
        if let Some(copies) = self.edge_copies.get(&(from, to)) {
            for (_, tmp, val) in copies {
                out.push(assign(CExpr::ident(tmp), self.tr().value(*val)?));
            }
            for (dst, tmp, _) in copies {
                out.push(assign(CExpr::ident(dst), CExpr::ident(tmp)));
            }
        }
        out.push(CStmt::Goto(format!("L{}", to.0)));
        self.gotos += 1;
        Ok(out)
    }

    fn emit_block(&mut self, bb: BlockId, out: &mut Vec<CStmt>) -> Result<(), String> {
        let f = self.f;
        for &i in &f.block(bb).insts {
            let inst = f.inst(i);
            if decode_marker(&self.module.symbols, &inst.kind).is_some()
                || decode_simd_marker(&self.module.symbols, &inst.kind).is_some()
            {
                continue;
            }
            let lane_var = |l| self.lane_name(i, l).map(CExpr::Ident);
            match &inst.kind {
                InstKind::DbgValue { .. }
                | InstKind::Nop
                | InstKind::Phi { .. }
                | InstKind::Alloca { .. }
                | InstKind::Gep { .. } => {}
                InstKind::Splat { val } => {
                    let e = self.tr().value(*val)?;
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        out.push(assign(lane_var(l)?, e.clone()));
                    }
                }
                InstKind::ExtractLane { vec, lane } => {
                    let rhs = self.lane_operand(*vec, *lane)?;
                    out.push(assign(CExpr::Ident(self.name_of(i)?), rhs));
                }
                InstKind::InsertLane { vec, val, lane } => {
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        let rhs = if l == *lane {
                            self.tr().value(*val)?
                        } else {
                            self.lane_operand(*vec, l)?
                        };
                        out.push(assign(lane_var(l)?, rhs));
                    }
                }
                InstKind::Reduce { op, acc, vec } => {
                    // Ordered left-to-right fold, matching the
                    // interpreter's (and the scalar loop's) semantics.
                    let var = CExpr::Ident(self.name_of(i)?);
                    out.push(assign(var.clone(), self.tr().value(*acc)?));
                    for l in 0..self.lanes_of(*vec)? {
                        let lane = self.lane_operand(*vec, l)?;
                        out.push(match op {
                            ReduceOp::Add => {
                                assign(var.clone(), CExpr::bin(CBinOp::Add, var.clone(), lane))
                            }
                            ReduceOp::Min | ReduceOp::Max => CStmt::If {
                                cond: CExpr::bin(
                                    if *op == ReduceOp::Min {
                                        CBinOp::Lt
                                    } else {
                                        CBinOp::Gt
                                    },
                                    lane.clone(),
                                    var.clone(),
                                ),
                                then_body: vec![assign(var.clone(), lane)],
                                else_body: vec![],
                            },
                        });
                    }
                }
                InstKind::Load { ptr } if inst.ty.is_vector() => {
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        out.push(assign(lane_var(l)?, self.lane_lvalue(*ptr, l)?));
                    }
                }
                InstKind::Store { val, ptr } if self.lanes_of(*val).is_ok() => {
                    for l in 0..self.lanes_of(*val)? {
                        let lhs = self.lane_lvalue(*ptr, l)?;
                        out.push(assign(lhs, self.lane_operand(*val, l)?));
                    }
                }
                InstKind::Bin { op, lhs, rhs } if inst.ty.is_vector() => {
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        let e = CExpr::bin(
                            cmap::binop(*op, inst.ty),
                            self.lane_operand(*lhs, l)?,
                            self.lane_operand(*rhs, l)?,
                        );
                        out.push(assign(lane_var(l)?, e));
                    }
                }
                InstKind::Cast { op, val } if inst.ty.is_vector() => {
                    for l in 0..self.lanes_of(Value::Inst(i))? {
                        let e = cmap::cast(*op, self.lane_operand(*val, l)?);
                        out.push(assign(lane_var(l)?, e));
                    }
                }
                InstKind::Store { val, ptr } => {
                    out.push(assign(self.tr().lvalue(*ptr)?, self.tr().value(*val)?));
                }
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    let name = self.name_of(i)?;
                    out.push(self.tr().select(&name, *cond, *then_val, *else_val)?);
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
                    let c = self.tr().value(*cond)?;
                    let then_body = self.emit_edge(bb, *then_bb)?;
                    let else_body = self.emit_edge(bb, *else_bb)?;
                    out.push(CStmt::If {
                        cond: c,
                        then_body,
                        else_body,
                    });
                }
                InstKind::Ret { val } => {
                    let v = val.map(|v| self.tr().value(v)).transpose()?;
                    out.push(CStmt::Return(v));
                }
                InstKind::Unreachable => {
                    out.push(CStmt::Return(match f.ret_ty {
                        Type::Void => None,
                        Type::F64 => Some(CExpr::Float(0.0)),
                        _ => Some(CExpr::Int(0)),
                    }));
                }
                InstKind::Call { .. } if !inst.has_result() => {
                    out.push(CStmt::Expr(self.tr().expr(i)?));
                }
                _ if inst.has_result() => {
                    out.push(assign(CExpr::Ident(self.name_of(i)?), self.tr().expr(i)?));
                }
                other => return Err(format!("no literal statement for {other:?}")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::{BinOp, IPred, Inst};

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
