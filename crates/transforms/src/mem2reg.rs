//! SSA construction: promote scalar allocas to SSA values.
//!
//! This is the pass that creates the phi webs and virtual-register soup the
//! paper's §2.3 describes: one source variable becomes many SSA values.
//! Debug information is preserved the way LLVM preserves it: an alloca's
//! `dbg.declare`-style [`InstKind::DbgValue`] (whose operand is the alloca
//! pointer) is rewritten into `dbg.value` intrinsics at every store and at
//! every inserted phi, so the decompiler's Metadata Interpreter can later
//! relate SSA values back to source variables.

use splendid_analysis::domtree::DomTree;
use splendid_ir::{BlockId, Function, Inst, InstId, InstKind, MemType, Symbol, Type, Value, VarId};
use std::collections::{HashMap, HashSet};

/// Statistics returned by [`promote_allocas`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Mem2RegStats {
    /// Number of allocas promoted to SSA.
    pub promoted: usize,
    /// Number of phi instructions inserted.
    pub phis_inserted: usize,
}

struct AllocaInfo {
    id: InstId,
    ty: Type,
    var: Option<VarId>,
    name: Option<Symbol>,
}

/// Promote every promotable scalar alloca in `f` to SSA form.
///
/// An alloca is promotable when it allocates a scalar and is only used as
/// the pointer operand of loads and stores (plus `dbg` intrinsics).
pub fn promote_allocas(f: &mut Function) -> Mem2RegStats {
    let mut stats = Mem2RegStats::default();
    let candidates = find_promotable(f);
    if candidates.is_empty() {
        return stats;
    }
    let dt = DomTree::compute(f);

    // Map alloca inst -> dense index.
    let index_of: HashMap<InstId, usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, a)| (a.id, i))
        .collect();

    // Blocks containing stores, per alloca.
    let mut def_blocks: Vec<HashSet<BlockId>> = vec![HashSet::new(); candidates.len()];
    for bb in f.block_ids() {
        for &i in &f.block(bb).insts {
            if let InstKind::Store { ptr, .. } = f.inst(i).kind {
                if let Some(&a) = ptr.as_inst().and_then(|p| index_of.get(&p)) {
                    def_blocks[a].insert(bb);
                }
            }
        }
    }

    // Dominance frontiers.
    let df = dominance_frontiers(f, &dt);

    // Phi placement via iterated dominance frontier.
    // phi_for[(block, alloca_idx)] -> phi inst id.
    let mut phi_for: HashMap<(BlockId, usize), InstId> = HashMap::new();
    for (ai, info) in candidates.iter().enumerate() {
        let mut work: Vec<BlockId> = def_blocks[ai].iter().copied().collect();
        // The set iterates in a per-process random order; phis take their
        // InstIds in worklist order, so sort for the same IR every run.
        work.sort_unstable();
        let mut has_phi: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &frontier in df.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
                if has_phi.insert(frontier) {
                    let mut phi = Inst::new(
                        InstKind::Phi {
                            incomings: Vec::new(),
                        },
                        info.ty,
                    );
                    phi.name = info.name;
                    let id = f.add_inst(phi);
                    f.block_mut(frontier).insts.insert(0, id);
                    phi_for.insert((frontier, ai), id);
                    stats.phis_inserted += 1;
                    if !def_blocks[ai].contains(&frontier) {
                        work.push(frontier);
                    }
                }
            }
        }
    }

    // Rename along the dominator tree.
    let children = dt.children();
    let mut cur: Vec<Value> = candidates.iter().map(|a| Value::Undef(a.ty)).collect();
    let mut to_delete: Vec<InstId> = Vec::new();
    rename_block(
        f,
        f.entry,
        &children,
        &index_of,
        &candidates,
        &phi_for,
        &mut cur,
        &mut to_delete,
    );

    for id in to_delete {
        f.delete_inst(id);
    }
    for info in &candidates {
        f.delete_inst(info.id);
    }
    stats.promoted = candidates.len();
    stats
}

fn find_promotable(f: &Function) -> Vec<AllocaInfo> {
    let mut infos: Vec<AllocaInfo> = Vec::new();
    let mut disqualified: HashSet<InstId> = HashSet::new();
    let placed = f.inst_blocks();
    for (idx, inst) in f.insts.iter().enumerate() {
        let id = InstId(idx as u32);
        if placed[idx].is_none() {
            continue;
        }
        if let InstKind::Alloca {
            mem: MemType::Scalar(ty),
        } = &inst.kind
        {
            infos.push(AllocaInfo {
                id,
                ty: *ty,
                var: None,
                name: inst.name,
            });
        }
    }
    let index_of: HashMap<InstId, usize> =
        infos.iter().enumerate().map(|(i, a)| (a.id, i)).collect();
    for (idx, inst) in f.insts.iter().enumerate() {
        if placed[idx].is_none() {
            continue;
        }
        match &inst.kind {
            InstKind::Load { ptr } => {
                // Pointer use as load address is fine.
                let _ = ptr;
            }
            InstKind::Store { val, ptr } => {
                // Storing the alloca's own address disqualifies it.
                if let Some(a) = val.as_inst().and_then(|v| index_of.get(&v)) {
                    disqualified.insert(infos[*a].id);
                }
                let _ = ptr;
            }
            InstKind::DbgValue { val, var } => {
                // A dbg intrinsic on the alloca pointer acts as a
                // dbg.declare: record the variable.
                if let Some(&a) = val.as_inst().and_then(|v| index_of.get(&v)) {
                    infos[a].var = Some(*var);
                }
            }
            other => {
                // Any other use of the alloca pointer disqualifies it.
                other.for_each_operand(|v| {
                    if let Some(&a) = v.as_inst().and_then(|x| index_of.get(&x)) {
                        disqualified.insert(infos[a].id);
                    }
                });
            }
        }
    }
    infos.retain(|i| !disqualified.contains(&i.id));
    infos
}

/// Dominance frontiers per block (Cooper–Harvey–Kennedy).
pub fn dominance_frontiers(f: &Function, dt: &DomTree) -> HashMap<BlockId, Vec<BlockId>> {
    let mut df: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    let preds = f.predecessors();
    for &b in dt.rpo() {
        let ps: Vec<BlockId> = preds[b.index()]
            .iter()
            .copied()
            .filter(|p| dt.is_reachable(*p))
            .collect();
        if ps.len() < 2 {
            continue;
        }
        let idom_b = dt.idom(b);
        for p in ps {
            let mut runner = Some(p);
            while let Some(r) = runner {
                if Some(r) == idom_b {
                    break;
                }
                let entry = df.entry(r).or_default();
                if !entry.contains(&b) {
                    entry.push(b);
                }
                runner = dt.idom(r);
            }
        }
    }
    df
}

#[allow(clippy::too_many_arguments)]
fn rename_block(
    f: &mut Function,
    bb: BlockId,
    children: &HashMap<BlockId, Vec<BlockId>>,
    index_of: &HashMap<InstId, usize>,
    infos: &[AllocaInfo],
    phi_for: &HashMap<(BlockId, usize), InstId>,
    cur: &mut Vec<Value>,
    to_delete: &mut Vec<InstId>,
) {
    let snapshot = cur.clone();

    // Update current defs from this block's phis and body.
    let insts: Vec<InstId> = f.block(bb).insts.clone();
    for &i in &insts {
        // Inserted phi for an alloca?
        if let Some(ai) = infos
            .iter()
            .enumerate()
            .find(|(idx, _)| phi_for.get(&(bb, *idx)) == Some(&i))
            .map(|(idx, _)| idx)
        {
            cur[ai] = Value::Inst(i);
            // Materialize a dbg.value right after the phi prefix if the
            // variable is known.
            if let Some(var) = infos[ai].var {
                insert_dbg_after_phis(f, bb, Value::Inst(i), var);
            }
            continue;
        }
        match f.inst(i).kind.clone() {
            InstKind::Load { ptr } => {
                if let Some(&ai) = ptr.as_inst().and_then(|p| index_of.get(&p)) {
                    f.replace_all_uses(Value::Inst(i), cur[ai]);
                    to_delete.push(i);
                }
            }
            InstKind::Store { val, ptr } => {
                if let Some(&ai) = ptr.as_inst().and_then(|p| index_of.get(&p)) {
                    cur[ai] = val;
                    // Rewrite the store into a dbg.value in place, keeping
                    // the variable association alive (LLVM's
                    // LowerDbgDeclare does the same).
                    if let Some(var) = infos[ai].var {
                        let inst = f.inst_mut(i);
                        inst.kind = InstKind::DbgValue { val, var };
                        inst.ty = Type::Void;
                    } else {
                        to_delete.push(i);
                    }
                }
            }
            InstKind::DbgValue { val, .. }
                // The dbg.declare on the alloca pointer itself is dropped.
                if val
                    .as_inst()
                    .map(|v| index_of.contains_key(&v))
                    .unwrap_or(false)
                => {
                    to_delete.push(i);
                }
            _ => {}
        }
    }

    // Fill successor phis.
    for s in f.successors(bb) {
        for (ai, _) in infos.iter().enumerate() {
            if let Some(&phi) = phi_for.get(&(s, ai)) {
                if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
                    incomings.push((bb, cur[ai]));
                }
            }
        }
    }

    // Recurse into dominator-tree children.
    if let Some(kids) = children.get(&bb) {
        for &k in kids.clone().iter() {
            rename_block(f, k, children, index_of, infos, phi_for, cur, to_delete);
        }
    }

    *cur = snapshot;
}

fn insert_dbg_after_phis(f: &mut Function, bb: BlockId, val: Value, var: VarId) {
    let pos = f
        .block(bb)
        .insts
        .iter()
        .position(|&i| !matches!(f.inst(i).kind, InstKind::Phi { .. }))
        .unwrap_or(f.block(bb).insts.len());
    let id = f.add_inst(Inst::new(InstKind::DbgValue { val, var }, Type::Void));
    f.block_mut(bb).insts.insert(pos, id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::builder::FuncBuilder;
    use splendid_ir::{BinOp, IPred, Module};

    /// x = 1; if (c) x = 2; return x;
    fn branchy() -> (Module, Function) {
        let mut m = Module::new("t");
        let var = m.intern_di_var("x", "f");
        let mut b = FuncBuilder::new(&mut m, "f", &[("c", Type::I1)], Type::I64);
        let then_b = b.new_block("then");
        let join = b.new_block("join");
        let x = b.alloca(MemType::Scalar(Type::I64), "x.addr");
        b.dbg_value(x, var); // dbg.declare
        b.store(Value::i64(1), x);
        b.cond_br(b.arg(0), then_b, join);
        b.switch_to(then_b);
        b.store(Value::i64(2), x);
        b.br(join);
        b.switch_to(join);
        let v = b.load(Type::I64, x, "");
        b.ret(Some(v));
        let f = b.into_func();
        (m, f)
    }

    #[test]
    fn promotes_branchy_variable() {
        let (_m, mut f) = branchy();
        let stats = promote_allocas(&mut f);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.phis_inserted, 1);
        splendid_ir::verify::verify_function(&f).unwrap();
        // No loads or stores remain.
        for inst in &f.insts {
            assert!(!matches!(
                inst.kind,
                InstKind::Load { .. } | InstKind::Store { .. }
            ));
        }
        // A phi with incomings 1 and 2 feeds the return.
        let phi = f
            .insts
            .iter()
            .find_map(|i| match &i.kind {
                InstKind::Phi { incomings } => Some(incomings.clone()),
                _ => None,
            })
            .expect("phi");
        let mut vals: Vec<i64> = phi.iter().filter_map(|(_, v)| v.as_int()).collect();
        vals.sort();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn dbg_values_track_stores_and_phis() {
        let (_m, mut f) = branchy();
        promote_allocas(&mut f);
        let dbg_count = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).kind, InstKind::DbgValue { .. }))
            .count();
        // Two stores rewritten + one phi annotated.
        assert_eq!(dbg_count, 3);
    }

    #[test]
    fn straight_line_no_phi() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::I64);
        let x = b.alloca(MemType::Scalar(Type::I64), "x");
        b.store(Value::i64(5), x);
        let v = b.load(Type::I64, x, "");
        let w = b.bin(BinOp::Add, Type::I64, v, Value::i64(1), "");
        b.store(w, x);
        let v2 = b.load(Type::I64, x, "");
        b.ret(Some(v2));
        let mut f = b.into_func();
        let stats = promote_allocas(&mut f);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.phis_inserted, 0);
        splendid_ir::verify::verify_function(&f).unwrap();
        // ret now returns the add directly.
        let ret = f
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Ret { val } => val,
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, w);
    }

    #[test]
    fn loop_variable_gets_header_phi() {
        // i = 0; while (i < n) i = i + 1; return i;
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[("n", Type::I64)], Type::I64);
        let header = b.new_block("header");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let i_slot = b.alloca(MemType::Scalar(Type::I64), "i");
        b.store(Value::i64(0), i_slot);
        b.br(header);
        b.switch_to(header);
        let iv = b.load(Type::I64, i_slot, "");
        let c = b.icmp(IPred::Slt, iv, b.arg(0), "");
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let iv2 = b.load(Type::I64, i_slot, "");
        let nx = b.bin(BinOp::Add, Type::I64, iv2, Value::i64(1), "");
        b.store(nx, i_slot);
        b.br(header);
        b.switch_to(exit);
        let fin = b.load(Type::I64, i_slot, "");
        b.ret(Some(fin));
        let mut f = b.into_func();
        let stats = promote_allocas(&mut f);
        assert_eq!(stats.promoted, 1);
        assert!(stats.phis_inserted >= 1);
        splendid_ir::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn array_alloca_not_promoted() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::Void);
        let a = b.alloca(MemType::array1(Type::F64, 4), "buf");
        let p = b.gep(
            MemType::array1(Type::F64, 4),
            a,
            vec![Value::i64(0), Value::i64(0)],
            "",
        );
        b.store(Value::f64(1.0), p);
        b.ret(None);
        let mut f = b.into_func();
        let stats = promote_allocas(&mut f);
        assert_eq!(stats.promoted, 0);
        splendid_ir::verify::verify_function(&f).unwrap();
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        // The alloca's address is stored somewhere: not promotable.
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[("sink", Type::Ptr)], Type::Void);
        let a = b.alloca(MemType::Scalar(Type::I64), "x");
        b.store(a, b.arg(0));
        b.store(Value::i64(1), a);
        b.ret(None);
        let mut f = b.into_func();
        let stats = promote_allocas(&mut f);
        assert_eq!(stats.promoted, 0);
    }

    #[test]
    fn uninitialized_load_becomes_undef() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "f", &[], Type::I64);
        let a = b.alloca(MemType::Scalar(Type::I64), "x");
        let v = b.load(Type::I64, a, "");
        b.ret(Some(v));
        let mut f = b.into_func();
        promote_allocas(&mut f);
        let ret = f
            .insts
            .iter()
            .find_map(|i| match i.kind {
                InstKind::Ret { val } => val,
                _ => None,
            })
            .unwrap();
        assert_eq!(ret, Value::Undef(Type::I64));
    }
}
