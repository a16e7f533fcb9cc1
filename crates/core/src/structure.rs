//! Natural control-flow generation: IR → C statements.
//!
//! Includes the **Loop-Rotate Detransformer** (paper §4.2): a rotated
//! (bottom-tested, guarded) counted loop is rebuilt as a canonical `for`
//! loop, and the guard check is removed when it is provably equivalent to
//! the `for` loop's initial exit test. Expression reconstruction folds
//! single-use pure values into compound expressions (so `B[i] = (A[i-1] +
//! A[i] + A[i+1]) / 3.0;` comes back as one line), while multi-use values
//! and loop-carried variables materialize as named C variables using the
//! names chosen by [`crate::naming`].

use crate::cmap::{self, ctype_of};
use crate::detransform::{decode_marker, MarkerInfo};
use crate::devectorize::{decode_simd_marker, SimdMarkerInfo};
use crate::error::{SplendidError, Stage};
use crate::naming::{NameOrigin, Naming};
use splendid_analysis::domtree::{ipostdoms, DomTree};
use splendid_analysis::indvar::{recognize_counted_loop, CountedLoop};
use splendid_analysis::loops::{LoopId, LoopInfo};
use splendid_cfront::ast::*;
use splendid_ir::{BlockId, Callee, Function, InstId, InstKind, Module, Value};
use std::collections::{HashMap, HashSet};

/// Options controlling the structurer (wired to the paper's variants and
/// the ablation benches).
#[derive(Debug, Clone)]
pub struct StructureOptions {
    /// De-transform rotated loops into `for` loops.
    pub detransform_rotation: bool,
    /// Remove guard checks proven equivalent to the initial exit test.
    pub guard_elimination: bool,
    /// Emit OpenMP pragmas from region markers.
    pub emit_pragmas: bool,
    /// Fold single-use pure values into compound expressions.
    pub inline_expressions: bool,
    /// Hoist every local declaration to the top of the function body,
    /// leaving plain assignments at the original sites. SSA dominance
    /// does not imply C block scoping, so a value first materialized
    /// inside braces can be live past them; hoisting makes the emitted C
    /// immune to that entire hazard class. The degraded fidelity tiers
    /// set this for safety; the natural tier keeps scoped declarations
    /// for readability.
    pub hoist_decls: bool,
}

impl Default for StructureOptions {
    fn default() -> StructureOptions {
        StructureOptions {
            detransform_rotation: true,
            guard_elimination: true,
            emit_pragmas: true,
            inline_expressions: true,
            hoist_decls: false,
        }
    }
}

/// Result of structuring one function.
#[derive(Debug, Clone)]
pub struct StructuredFunc {
    /// The reconstructed C function.
    pub cfunc: CFunc,
    /// Distinct local variables with their name origin (Figure-8 metric).
    pub variables: Vec<(String, NameOrigin)>,
    /// Number of `goto` statements the structurer had to emit.
    pub gotos: usize,
}

struct Structurer<'a> {
    module: &'a Module,
    f: &'a Function,
    naming: &'a Naming,
    opts: &'a StructureOptions,
    li: LoopInfo,
    ipdom: Vec<Option<BlockId>>,
    owners: Vec<Option<BlockId>>,
    /// Position of each instruction within its block.
    pos_in_block: HashMap<InstId, usize>,
    use_counts: HashMap<InstId, usize>,
    counted: HashMap<BlockId, (LoopId, CountedLoop)>,
    /// Instructions absorbed into structured constructs (for-headers,
    /// conditions) — never emitted as statements.
    absorbed: HashSet<InstId>,
    /// Instructions materialized as named variables.
    materialized: HashSet<InstId>,
    declared: HashSet<String>,
    /// Declarations deferred to the function top under
    /// `StructureOptions::hoist_decls` (name, type), in first-seen order.
    hoisted: Vec<(String, CType)>,
    var_origins: HashMap<String, NameOrigin>,
    visited: HashSet<BlockId>,
    need_label: HashSet<BlockId>,
    gotos: usize,
    pending_pragma: Option<MarkerInfo>,
    pending_simd: Option<SimdMarkerInfo>,
    /// First structural defect encountered (IR shape the expression
    /// reconstructor has no rule for). Recorded instead of panicking;
    /// turns the whole structuring attempt into a recoverable error so
    /// the fidelity ladder can degrade the function.
    diag: std::cell::RefCell<Option<String>>,
}

/// Structure one function into a C function definition.
pub fn structure_function(
    module: &Module,
    f: &Function,
    naming: &Naming,
    opts: &StructureOptions,
) -> Result<StructuredFunc, SplendidError> {
    let dt = DomTree::compute(f);
    let li = LoopInfo::compute(f, &dt);
    let ipdom = ipostdoms(f);
    let owners = f.inst_blocks();

    let mut pos_in_block = HashMap::new();
    for bb in f.block_ids() {
        for (k, &i) in f.block(bb).insts.iter().enumerate() {
            pos_in_block.insert(i, k);
        }
    }
    let mut use_counts: HashMap<InstId, usize> = HashMap::new();
    for (idx, inst) in f.insts.iter().enumerate() {
        if owners[idx].is_none() || matches!(inst.kind, InstKind::DbgValue { .. }) {
            continue;
        }
        inst.kind.for_each_operand(|v| {
            if let Value::Inst(d) = v {
                *use_counts.entry(d).or_insert(0) += 1;
            }
        });
    }
    // Counted loops indexed by header.
    let mut counted = HashMap::new();
    for lid in li.ids() {
        if let Some(cl) = recognize_counted_loop(f, &li, lid) {
            counted.insert(li.get(lid).header, (lid, cl));
        }
    }

    let mut s = Structurer {
        module,
        f,
        naming,
        opts,
        li,
        ipdom,
        owners,
        pos_in_block,
        use_counts,
        counted,
        absorbed: HashSet::new(),
        materialized: HashSet::new(),
        declared: HashSet::new(),
        hoisted: Vec::new(),
        var_origins: HashMap::new(),
        visited: HashSet::new(),
        need_label: HashSet::new(),
        gotos: 0,
        pending_pragma: None,
        pending_simd: None,
        diag: std::cell::RefCell::new(None),
    };

    let mut body = Vec::new();
    s.emit_region(f.entry, None, None, &mut body);
    // Insert labels where gotos landed.
    if !s.need_label.is_empty() {
        // Labels are emitted inline during the walk; nothing to patch here
        // because emit_region pushes Label stmts on first visit of labeled
        // blocks. (Gotos to already-emitted blocks would need relocation;
        // we only ever goto forward in practice.)
    }

    if !s.hoisted.is_empty() {
        let decls: Vec<CStmt> = std::mem::take(&mut s.hoisted)
            .into_iter()
            .map(|(name, ty)| CStmt::Decl {
                name,
                ty,
                init: None,
            })
            .collect();
        body.splice(0..0, decls);
    }

    let params: Vec<(String, CType)> = f
        .params
        .iter()
        .map(|p| (module.name_of(p.name).to_string(), ctype_of(p.ty)))
        .collect();
    let mut variables: Vec<(String, NameOrigin)> =
        s.var_origins.iter().map(|(n, o)| (n.clone(), *o)).collect();
    variables.sort();
    if let Some(msg) = s.diag.borrow().clone() {
        return Err(
            SplendidError::recoverable(Stage::Structure, msg).in_function(module.name_of(f.name))
        );
    }
    Ok(StructuredFunc {
        cfunc: CFunc {
            name: module.name_of(f.name).to_string(),
            ret: ctype_of(f.ret_ty),
            params,
            body,
        },
        variables,
        gotos: s.gotos,
    })
}

/// Context while emitting inside a loop body.
#[derive(Clone, Copy, PartialEq, Eq)]
struct LoopCtx {
    header: BlockId,
    latch_test: Option<InstId>,
    exit: Option<BlockId>,
}

impl<'a> Structurer<'a> {
    // ---- expressions -----------------------------------------------------

    /// Record a structural defect (first one wins) instead of panicking.
    fn note(&self, msg: impl Into<String>) {
        let mut d = self.diag.borrow_mut();
        if d.is_none() {
            *d = Some(msg.into());
        }
    }

    fn name_of(&self, id: InstId) -> String {
        self.naming
            .name_of(id)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("v{}", id.0))
    }

    /// Whether `id` can be folded into its (single) use.
    fn inlinable(&self, id: InstId) -> bool {
        if !self.opts.inline_expressions {
            // Geps must still fold (there is no address-of in the AST).
            return matches!(self.f.inst(id).kind, InstKind::Gep { .. });
        }
        if self.absorbed.contains(&id) {
            return true; // absorbed IV increments/conditions fold freely
        }
        let inst = self.f.inst(id);
        match inst.kind {
            InstKind::Gep { .. } => return true, // always folded into Index
            InstKind::Phi { .. }
            | InstKind::Call { .. }
            | InstKind::Alloca { .. }
            | InstKind::Store { .. } => return false,
            _ => {}
        }
        if self.use_counts.get(&id).copied().unwrap_or(0) != 1 {
            return false;
        }
        // The single use must be later in the same block, with no pinning
        // instruction (store or call) in between when the value is a load.
        let def_bb = match self.owners[id.index()] {
            Some(b) => b,
            None => return false,
        };
        let def_pos = self.pos_in_block[&id];
        let mut user: Option<InstId> = None;
        for (uidx, uinst) in self.f.insts.iter().enumerate() {
            if self.owners[uidx].is_none() || matches!(uinst.kind, InstKind::DbgValue { .. }) {
                continue;
            }
            let mut uses_it = false;
            uinst.kind.for_each_operand(|v| {
                if v == Value::Inst(id) {
                    uses_it = true;
                }
            });
            if uses_it {
                user = Some(InstId(uidx as u32));
                break;
            }
        }
        let Some(user) = user else { return false };
        if self.owners[user.index()] != Some(def_bb) {
            return false;
        }
        let use_pos = self.pos_in_block[&user];
        if use_pos <= def_pos {
            return false;
        }
        if matches!(inst.kind, InstKind::Load { .. }) {
            for k in def_pos + 1..use_pos {
                let between = self.f.block(def_bb).insts[k];
                if matches!(
                    self.f.inst(between).kind,
                    InstKind::Store { .. } | InstKind::Call { .. }
                ) {
                    return false;
                }
            }
        }
        true
    }

    fn expr_of_value(&self, v: Value) -> CExpr {
        match v {
            Value::ConstInt { val, .. } => CExpr::Int(val),
            Value::ConstF64(bits) => CExpr::Float(f64::from_bits(bits)),
            Value::Arg(a) => CExpr::ident(self.module.name_of(self.f.params[a as usize].name)),
            Value::Global(g) => {
                CExpr::ident(self.module.name_of(self.module.globals[g.index()].name))
            }
            Value::Function(fid) => {
                CExpr::ident(self.module.name_of(self.module.functions[fid.index()].name))
            }
            Value::Undef(_) => CExpr::Int(0),
            Value::Inst(id) => {
                if self.materialized.contains(&id) || !self.inlinable(id) {
                    CExpr::ident(self.name_of(id))
                } else {
                    self.expr_of_inst(id)
                }
            }
        }
    }

    fn expr_of_inst(&self, id: InstId) -> CExpr {
        let inst = self.f.inst(id);
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => CExpr::bin(
                cmap::binop(*op, inst.ty),
                self.expr_of_value(*lhs),
                self.expr_of_value(*rhs),
            ),
            InstKind::ICmp { pred, lhs, rhs } => CExpr::bin(
                cmap::ipred(*pred),
                self.expr_of_value(*lhs),
                self.expr_of_value(*rhs),
            ),
            InstKind::FCmp { pred, lhs, rhs } => CExpr::bin(
                cmap::fpred(*pred),
                self.expr_of_value(*lhs),
                self.expr_of_value(*rhs),
            ),
            InstKind::Load { ptr } => self.lvalue_of(*ptr),
            InstKind::Gep { .. } => self.lvalue_of(Value::Inst(id)),
            InstKind::Cast { op, val } => cmap::cast(*op, self.expr_of_value(*val)),
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                // The subset has no ternary; encode as arithmetic select is
                // ugly — use a call-like helper only if ever needed. Our
                // pipelines do not produce selects that reach emission, but
                // fall back to a conditional expression via (cond ? a : b)
                // printed as a call.
                CExpr::Call {
                    name: "__select".into(),
                    args: vec![
                        self.expr_of_value(*cond),
                        self.expr_of_value(*then_val),
                        self.expr_of_value(*else_val),
                    ],
                }
            }
            InstKind::Call { callee, args } => {
                let name = match callee {
                    Callee::Func(fid) => self
                        .module
                        .name_of(self.module.functions[fid.index()].name)
                        .to_string(),
                    Callee::External(n) => self.module.name_of(*n).to_string(),
                };
                CExpr::Call {
                    name,
                    args: args.iter().map(|a| self.expr_of_value(*a)).collect(),
                }
            }
            InstKind::Phi { .. } => CExpr::ident(self.name_of(id)),
            other => {
                self.note(format!("no expression for {other:?}"));
                CExpr::Int(0)
            }
        }
    }

    /// Build the C lvalue an address computes: `A[i][j]`, `p[i]`, `x`.
    fn lvalue_of(&self, addr: Value) -> CExpr {
        match addr {
            Value::Global(g) => {
                let glob = &self.module.globals[g.index()];
                CExpr::ident(self.module.name_of(glob.name))
            }
            Value::Arg(a) => CExpr::Index {
                base: Box::new(CExpr::ident(
                    self.module.name_of(self.f.params[a as usize].name),
                )),
                indices: vec![CExpr::Int(0)],
            },
            Value::Inst(id) => match &self.f.inst(id).kind {
                InstKind::Gep {
                    elem,
                    base,
                    indices,
                } => {
                    let base_expr = match base {
                        Value::Global(g) => {
                            CExpr::ident(self.module.name_of(self.module.globals[g.index()].name))
                        }
                        Value::Arg(a) => {
                            CExpr::ident(self.module.name_of(self.f.params[*a as usize].name))
                        }
                        Value::Inst(b) => {
                            if matches!(self.f.inst(*b).kind, InstKind::Alloca { .. }) {
                                CExpr::ident(self.name_of(*b))
                            } else {
                                self.expr_of_value(*base)
                            }
                        }
                        other => self.expr_of_value(*other),
                    };
                    // For array geps the first index is the object index
                    // (almost always 0): drop it when zero.
                    let mut idx: Vec<CExpr> =
                        indices.iter().map(|i| self.expr_of_value(*i)).collect();
                    if matches!(elem, splendid_ir::MemType::Array { .. })
                        && idx.first() == Some(&CExpr::Int(0))
                    {
                        idx.remove(0);
                    }
                    if idx.is_empty() {
                        idx.push(CExpr::Int(0));
                    }
                    CExpr::Index {
                        base: Box::new(base_expr),
                        indices: idx,
                    }
                }
                _ => CExpr::Index {
                    base: Box::new(self.expr_of_value(addr)),
                    indices: vec![CExpr::Int(0)],
                },
            },
            other => CExpr::Index {
                base: Box::new(self.expr_of_value(other)),
                indices: vec![CExpr::Int(0)],
            },
        }
    }

    // ---- statements -------------------------------------------------------

    /// Emit a declaration for a name seen for the first time — in place,
    /// or (under `hoist_decls`) as a function-top declaration plus an
    /// in-place assignment when there is an initializer.
    fn declare(&mut self, name: String, ty: CType, init: Option<CExpr>, out: &mut Vec<CStmt>) {
        if self.opts.hoist_decls {
            self.hoisted.push((name.clone(), ty));
            if let Some(e) = init {
                out.push(CStmt::Expr(CExpr::Assign {
                    lhs: Box::new(CExpr::ident(name)),
                    op: None,
                    rhs: Box::new(e),
                }));
            }
        } else {
            out.push(CStmt::Decl { name, ty, init });
        }
    }

    /// Emit a materialized definition: `ty name = expr;` or `name = expr;`.
    fn materialize(&mut self, id: InstId, out: &mut Vec<CStmt>) {
        let name = self.name_of(id);
        let expr = self.expr_of_inst(id);
        self.materialized.insert(id);
        let origin = self
            .naming
            .names
            .get(&id)
            .map(|(_, o)| *o)
            .unwrap_or(NameOrigin::Register);
        self.var_origins.entry(name.clone()).or_insert(origin);
        if self.declared.insert(name.clone()) {
            let ty = ctype_of(self.f.inst(id).ty);
            self.declare(name, ty, Some(expr), out);
        } else {
            out.push(CStmt::Expr(CExpr::Assign {
                lhs: Box::new(CExpr::Ident(name)),
                op: None,
                rhs: Box::new(expr),
            }));
        }
    }

    /// Emit the non-terminator statements of one block.
    fn emit_block_stmts(&mut self, bb: BlockId, out: &mut Vec<CStmt>) {
        for &i in &self.f.block(bb).insts.clone() {
            let inst = self.f.inst(i);
            if inst.kind.is_terminator()
                || self.absorbed.contains(&i)
                || matches!(
                    inst.kind,
                    InstKind::DbgValue { .. } | InstKind::Nop | InstKind::Phi { .. }
                )
            {
                continue;
            }
            if let Some(info) = decode_marker(&self.module.symbols, &inst.kind) {
                if self.opts.emit_pragmas {
                    self.pending_pragma = Some(info);
                }
                continue;
            }
            if let Some(info) = decode_simd_marker(&self.module.symbols, &inst.kind) {
                // Markers never print; without pragma emission the
                // devectorized loop stays a plain `for`.
                if self.opts.emit_pragmas {
                    self.pending_simd = Some(info);
                }
                continue;
            }
            match &inst.kind {
                InstKind::Store { val, ptr } => {
                    let lhs = self.lvalue_of(*ptr);
                    let rhs = self.expr_of_value(*val);
                    out.push(CStmt::Expr(CExpr::Assign {
                        lhs: Box::new(lhs),
                        op: None,
                        rhs: Box::new(rhs),
                    }));
                }
                InstKind::Call { .. } => {
                    if inst.has_result() && self.use_counts.get(&i).copied().unwrap_or(0) > 0 {
                        self.materialize(i, out);
                    } else {
                        let e = self.expr_of_inst(i);
                        out.push(CStmt::Expr(e));
                    }
                }
                InstKind::Alloca { mem } => {
                    // Local (array) storage: declare it.
                    let name = self.name_of(i);
                    self.materialized.insert(i);
                    self.var_origins
                        .entry(name.clone())
                        .or_insert(NameOrigin::Register);
                    let ty = match mem {
                        splendid_ir::MemType::Array { elem, dims } => CType::Array(
                            Box::new(ctype_of(*elem)),
                            dims.iter().map(|d| *d as usize).collect(),
                        ),
                        splendid_ir::MemType::Scalar(t) => ctype_of(*t),
                    };
                    if self.declared.insert(name.clone()) {
                        self.declare(name, ty, None, out);
                    }
                }
                _ => {
                    // Pure value: emit only when not folded into a use.
                    if !self.inlinable(i) && self.use_counts.get(&i).copied().unwrap_or(0) > 0 {
                        self.materialize(i, out);
                    }
                }
            }
        }
    }

    /// Emit statements starting at `bb` until reaching `stop` (exclusive),
    /// within optional loop context `ctx`.
    fn emit_region(
        &mut self,
        mut bb: BlockId,
        stop: Option<BlockId>,
        ctx: Option<LoopCtx>,
        out: &mut Vec<CStmt>,
    ) {
        loop {
            if Some(bb) == stop {
                return;
            }
            if let Some(c) = ctx {
                if bb == c.header && self.visited.contains(&bb) {
                    return; // back edge: implicit continue
                }
            }
            if self.visited.contains(&bb) {
                // Irreducible or unstructured flow: fall back to goto.
                self.gotos += 1;
                self.need_label.insert(bb);
                out.push(CStmt::Goto(format!("bb{}", bb.0)));
                return;
            }

            // A loop header that is not the current context's header starts
            // a nested (or first) loop.
            if let Some(lid) = self.li.loop_of(bb) {
                let is_new_loop =
                    self.li.get(lid).header == bb && ctx.map(|c| c.header != bb).unwrap_or(true);
                if is_new_loop {
                    let next = self.emit_loop(lid, out);
                    match next {
                        Some(n) => {
                            bb = n;
                            continue;
                        }
                        None => return,
                    }
                }
            }

            self.visited.insert(bb);
            if self.need_label.contains(&bb) {
                out.push(CStmt::Label(format!("bb{}", bb.0)));
            }
            self.emit_block_stmts(bb, out);

            let Some(term) = self.f.terminator(bb) else {
                return;
            };
            match self.f.inst(term).kind.clone() {
                InstKind::Br { target } => {
                    bb = target;
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    // The enclosing loop construct's own test (absorbed by
                    // the loop emitter): for bottom-tested loops this is
                    // the back edge (end of body); for top-tested loops
                    // continue into the in-loop side and ignore the exit.
                    if let Some(c) = ctx {
                        if cond.as_inst() == c.latch_test {
                            let continue_to = [then_bb, else_bb]
                                .into_iter()
                                .find(|t| Some(*t) != c.exit && *t != c.header);
                            match continue_to {
                                Some(t) => {
                                    bb = t;
                                    continue;
                                }
                                None => return,
                            }
                        }
                    }
                    // Guarded rotated loop? (Loop-Rotate Detransformer.)
                    if let Some(next) = self.try_emit_guarded_loop(bb, cond, then_bb, else_bb, out)
                    {
                        match next {
                            Some(n) => {
                                bb = n;
                                continue;
                            }
                            None => return,
                        }
                    }
                    // Plain if/else via the immediate post-dominator.
                    let join = self.ipdom[bb.index()];
                    let cond_expr = self.expr_of_value(cond);
                    let mut then_body = Vec::new();
                    let mut else_body = Vec::new();
                    if Some(then_bb) != join {
                        self.emit_region(then_bb, join, ctx, &mut then_body);
                    }
                    if Some(else_bb) != join {
                        self.emit_region(else_bb, join, ctx, &mut else_body);
                    }
                    out.push(CStmt::If {
                        cond: cond_expr,
                        then_body,
                        else_body,
                    });
                    match join {
                        Some(j) => bb = j,
                        None => return,
                    }
                }
                InstKind::Ret { val } => {
                    out.push(CStmt::Return(val.map(|v| self.expr_of_value(v))));
                    return;
                }
                InstKind::Unreachable => return,
                _ => return,
            }
        }
    }

    /// If `bb`'s conditional branch is the guard of a rotated counted loop,
    /// emit the de-rotated `for` (or guarded do-while when proof fails /
    /// disabled) and return `Some(continuation)`.
    fn try_emit_guarded_loop(
        &mut self,
        _bb: BlockId,
        cond: Value,
        then_bb: BlockId,
        else_bb: BlockId,
        out: &mut Vec<CStmt>,
    ) -> Option<Option<BlockId>> {
        if !self.opts.detransform_rotation {
            return None;
        }
        // One side enters a bottom-tested counted loop header; the other is
        // its exit.
        let (header, exit, loop_on_true) = if let Some((lid, _)) = self.counted.get(&then_bb) {
            let l = self.li.get(*lid);
            if l.header == then_bb && l.exits.contains(&else_bb) {
                (then_bb, else_bb, true)
            } else {
                return None;
            }
        } else if let Some((lid, _)) = self.counted.get(&else_bb) {
            let l = self.li.get(*lid);
            if l.header == else_bb && l.exits.contains(&then_bb) {
                (else_bb, then_bb, false)
            } else {
                return None;
            }
        } else {
            return None;
        };
        let (lid, cl) = self.counted[&header].clone();
        if !cl.bottom_tested {
            return None;
        }
        // The guard must compare the loop's initial value against its
        // bound with the matching predicate.
        let guard_ok = self.guard_equivalent(cond, &cl, loop_on_true);
        if guard_ok && self.opts.guard_elimination {
            if let Value::Inst(g) = cond {
                self.absorbed.insert(g);
            }
            self.emit_counted_loop(lid, &cl, out);
            Some(Some(exit))
        } else {
            // Keep the guard as an `if` around the do-while form.
            let cond_expr = self.expr_of_value(cond);
            let mut inner = Vec::new();
            self.emit_do_while(lid, &cl, &mut inner);
            let (then_body, else_body) = if loop_on_true {
                (inner, Vec::new())
            } else {
                (Vec::new(), inner)
            };
            out.push(CStmt::If {
                cond: cond_expr,
                then_body,
                else_body,
            });
            Some(Some(exit))
        }
    }

    /// Prove the guard equivalent to the initial exit condition of the
    /// transformed `for` loop: structurally, the guard must compare
    /// `cl.init` with `cl.bound` such that entering the loop corresponds to
    /// `init <continue-pred> bound`.
    fn guard_equivalent(&self, cond: Value, cl: &CountedLoop, loop_on_true: bool) -> bool {
        let Some(g) = cond.as_inst() else {
            return false;
        };
        let InstKind::ICmp { pred, lhs, rhs } = self.f.inst(g).kind else {
            return false;
        };
        // Normalize so init is on the left.
        let (pred, a, b) = if lhs == cl.init {
            (pred, lhs, rhs)
        } else if rhs == cl.init {
            (pred.swapped(), rhs, lhs)
        } else {
            return false;
        };
        if a != cl.init || b != cl.bound {
            return false;
        }
        // Entering the loop must mean `init cont_pred bound`.
        let cont_pred = if cl.continue_on_true {
            cl.pred
        } else {
            cl.pred.negated()
        };
        let enter_pred = if loop_on_true { pred } else { pred.negated() };
        enter_pred == cont_pred
    }

    /// Emit the canonical `for` reconstruction of a counted loop, wrapping
    /// it in pending OpenMP pragmas if any.
    fn emit_counted_loop(&mut self, lid: LoopId, cl: &CountedLoop, out: &mut Vec<CStmt>) {
        // The pragma pending at loop entry belongs to THIS loop; take it
        // now so inner loops cannot steal it during body emission.
        let pragma = self.pending_pragma.take();
        let simd = self.pending_simd.take();
        let l = self.li.get(lid).clone();
        // Absorb the loop plumbing.
        self.absorbed.insert(cl.iv);
        self.absorbed.insert(cl.next);
        self.absorbed.insert(cl.cmp);

        let iv_name = self.name_of(cl.iv);
        let iv_origin = self
            .naming
            .names
            .get(&cl.iv)
            .map(|(_, o)| *o)
            .unwrap_or(NameOrigin::Register);
        self.var_origins.entry(iv_name.clone()).or_insert(iv_origin);
        self.materialized.insert(cl.iv);
        // `iv.next` reads inside the body print as `iv + step`.
        self.materialized.remove(&cl.next);

        // Loop-carried (non-IV) phis materialize as variables around the
        // loop.
        let mut pre_stmts = Vec::new();
        let mut latch_assigns: Vec<(InstId, Value)> = Vec::new();
        for &i in &self.f.block(l.header).insts.clone() {
            if let InstKind::Phi { incomings } = self.f.inst(i).kind.clone() {
                if i == cl.iv {
                    continue;
                }
                let name = self.name_of(i);
                let origin = self
                    .naming
                    .names
                    .get(&i)
                    .map(|(_, o)| *o)
                    .unwrap_or(NameOrigin::Register);
                self.var_origins.entry(name.clone()).or_insert(origin);
                self.materialized.insert(i);
                for (from, v) in incomings {
                    if l.contains(from) {
                        latch_assigns.push((i, v));
                    } else {
                        let init = self.expr_of_value(v);
                        if self.declared.insert(name.clone()) {
                            let ty = ctype_of(self.f.inst(i).ty);
                            self.declare(name.clone(), ty, Some(init), &mut pre_stmts);
                        } else {
                            pre_stmts.push(CStmt::Expr(CExpr::Assign {
                                lhs: Box::new(CExpr::ident(name.clone())),
                                op: None,
                                rhs: Box::new(init),
                            }));
                        }
                    }
                }
            } else {
                break;
            }
        }
        out.extend(pre_stmts);

        // The for-header pieces.
        let cont_pred = if cl.continue_on_true {
            cl.pred
        } else {
            cl.pred.negated()
        };
        let cmp_op = cmap::ipred(cont_pred);
        let init_expr = self.expr_of_value(cl.init);
        let bound_expr = self.expr_of_value(cl.bound);
        let declare_in_header = !self.declared.contains(&iv_name);
        let init_stmt: CStmt = if declare_in_header && !self.opts.hoist_decls {
            CStmt::Decl {
                name: iv_name.clone(),
                ty: CType::UInt64,
                init: Some(init_expr),
            }
        } else {
            if declare_in_header {
                // Hoisted mode: the declaration goes to the function top;
                // the header keeps a plain assignment.
                self.declared.insert(iv_name.clone());
                self.hoisted.push((iv_name.clone(), CType::UInt64));
            }
            CStmt::Expr(CExpr::Assign {
                lhs: Box::new(CExpr::ident(iv_name.clone())),
                op: None,
                rhs: Box::new(init_expr),
            })
        };
        let cond_expr = CExpr::bin(cmp_op, CExpr::ident(iv_name.clone()), bound_expr);
        let step_expr = CExpr::Assign {
            lhs: Box::new(CExpr::ident(iv_name.clone())),
            op: None,
            rhs: Box::new(CExpr::bin(
                if cl.step >= 0 {
                    CBinOp::Add
                } else {
                    CBinOp::Sub
                },
                CExpr::ident(iv_name.clone()),
                CExpr::Int(cl.step.abs()),
            )),
        };

        // Body: a general region walk starting at the header (the walk
        // handles nested guarded loops, if/else, and the back-edge test).
        let ctx = LoopCtx {
            header: l.header,
            latch_test: Some(cl.cmp),
            exit: l.exits.first().copied(),
        };
        let mut body = Vec::new();
        self.emit_region(l.header, None, Some(ctx), &mut body);
        // Loop-carried variable updates at the end of the body.
        for (phi, v) in latch_assigns {
            let name = self.name_of(phi);
            let rhs = self.expr_of_value(v);
            // Skip the self-update when the value already materialized
            // under the same name (web-shared naming).
            if rhs == CExpr::ident(name.clone()) {
                continue;
            }
            if let Value::Inst(d) = v {
                if self.materialized.contains(&d) && self.name_of(d) == name {
                    continue;
                }
            }
            body.push(CStmt::Expr(CExpr::Assign {
                lhs: Box::new(CExpr::ident(name)),
                op: None,
                rhs: Box::new(rhs),
            }));
        }

        let for_stmt = CStmt::For {
            init: Some(Box::new(init_stmt)),
            cond: Some(cond_expr),
            step: Some(step_expr),
            body,
        };
        self.wrap_with_pragma(for_stmt, pragma, simd, out);
        // Mark all loop blocks visited.
        for b in l.blocks {
            self.visited.insert(b);
        }
    }

    /// Emit a do-while form of a counted loop (guard-elimination ablation
    /// path and non-detransformed mode).
    ///
    /// Mirrors `emit_counted_loop`: the IV phi, its increment, and the
    /// latch compare are absorbed; the increment becomes an explicit
    /// `iv = iv ± step` at the end of the body (after loop-carried phi
    /// updates), and the continue test is rebuilt against the updated IV.
    /// Declaring the increment inside the body — as a naive emission
    /// would — puts the `while` condition out of scope in C even though
    /// SSA dominance holds; the fault campaign caught exactly that.
    fn emit_do_while(&mut self, lid: LoopId, cl: &CountedLoop, out: &mut Vec<CStmt>) {
        let l = self.li.get(lid).clone();
        // Absorb the loop plumbing.
        self.absorbed.insert(cl.iv);
        self.absorbed.insert(cl.next);
        self.absorbed.insert(cl.cmp);

        let iv_name = self.name_of(cl.iv);
        let iv_origin = self
            .naming
            .names
            .get(&cl.iv)
            .map(|(_, o)| *o)
            .unwrap_or(NameOrigin::Register);
        self.var_origins.entry(iv_name.clone()).or_insert(iv_origin);
        self.materialized.insert(cl.iv);
        // `iv.next` reads inside the body print as `iv + step`.
        self.materialized.remove(&cl.next);

        // Loop-carried (non-IV) phis materialize as variables around the
        // loop, exactly as in the `for` reconstruction.
        let mut pre_stmts = Vec::new();
        let mut latch_assigns: Vec<(InstId, Value)> = Vec::new();
        for &i in &self.f.block(l.header).insts.clone() {
            if let InstKind::Phi { incomings } = self.f.inst(i).kind.clone() {
                if i == cl.iv {
                    continue;
                }
                let name = self.name_of(i);
                let origin = self
                    .naming
                    .names
                    .get(&i)
                    .map(|(_, o)| *o)
                    .unwrap_or(NameOrigin::Register);
                self.var_origins.entry(name.clone()).or_insert(origin);
                self.materialized.insert(i);
                for (from, v) in incomings {
                    if l.contains(from) {
                        latch_assigns.push((i, v));
                    } else {
                        let init = self.expr_of_value(v);
                        if self.declared.insert(name.clone()) {
                            let ty = ctype_of(self.f.inst(i).ty);
                            self.declare(name.clone(), ty, Some(init), &mut pre_stmts);
                        } else {
                            pre_stmts.push(CStmt::Expr(CExpr::Assign {
                                lhs: Box::new(CExpr::ident(name.clone())),
                                op: None,
                                rhs: Box::new(init),
                            }));
                        }
                    }
                }
            } else {
                break;
            }
        }
        out.extend(pre_stmts);

        // Initialize the IV before the loop.
        let init = self.expr_of_value(cl.init);
        if self.declared.insert(iv_name.clone()) {
            self.declare(iv_name.clone(), CType::UInt64, Some(init), out);
        } else {
            out.push(CStmt::Expr(CExpr::Assign {
                lhs: Box::new(CExpr::ident(iv_name.clone())),
                op: None,
                rhs: Box::new(init),
            }));
        }

        let ctx = LoopCtx {
            header: l.header,
            latch_test: Some(cl.cmp),
            exit: l.exits.first().copied(),
        };
        let mut body = Vec::new();
        self.emit_region(l.header, None, Some(ctx), &mut body);
        // Loop-carried variable updates at the end of the body (before the
        // IV step, which they may read).
        for (phi, v) in latch_assigns {
            let name = self.name_of(phi);
            let rhs = self.expr_of_value(v);
            if rhs == CExpr::ident(name.clone()) {
                continue;
            }
            if let Value::Inst(d) = v {
                if self.materialized.contains(&d) && self.name_of(d) == name {
                    continue;
                }
            }
            body.push(CStmt::Expr(CExpr::Assign {
                lhs: Box::new(CExpr::ident(name)),
                op: None,
                rhs: Box::new(rhs),
            }));
        }
        // The explicit IV step closes the body.
        body.push(CStmt::Expr(CExpr::Assign {
            lhs: Box::new(CExpr::ident(iv_name.clone())),
            op: None,
            rhs: Box::new(CExpr::bin(
                if cl.step >= 0 {
                    CBinOp::Add
                } else {
                    CBinOp::Sub
                },
                CExpr::ident(iv_name.clone()),
                CExpr::Int(cl.step.abs()),
            )),
        }));

        // Continue test against the updated IV. After the step, `iv` holds
        // what the latch compare called `next`; when the compare tested the
        // pre-increment value instead, undo the step in the test.
        let cont_pred = if cl.continue_on_true {
            cl.pred
        } else {
            cl.pred.negated()
        };
        let cmp_op = cmap::ipred(cont_pred);
        let tested = if cl.cmp_uses_next {
            CExpr::ident(iv_name.clone())
        } else {
            CExpr::bin(
                if cl.step >= 0 {
                    CBinOp::Sub
                } else {
                    CBinOp::Add
                },
                CExpr::ident(iv_name.clone()),
                CExpr::Int(cl.step.abs()),
            )
        };
        let cond = CExpr::bin(cmp_op, tested, self.expr_of_value(cl.bound));
        out.push(CStmt::DoWhile { body, cond });
        for b in l.blocks {
            self.visited.insert(b);
        }
    }

    /// Emit a loop whose header is reached without a recognizable guard:
    /// counted top-tested -> `for`; otherwise do-while/while fallback.
    /// Returns the continuation block.
    fn emit_loop(&mut self, lid: LoopId, out: &mut Vec<CStmt>) -> Option<BlockId> {
        let l = self.li.get(lid).clone();
        let exit = l.exits.first().copied();
        if let Some((_, cl)) = self.counted.get(&l.header).cloned() {
            if cl.bottom_tested && self.opts.detransform_rotation {
                // Rotated loop entered without a guard: the compiler proved
                // it non-empty; the for form is equivalent and natural.
                self.emit_counted_loop(lid, &cl, out);
                return exit;
            }
            if cl.bottom_tested {
                self.emit_do_while(lid, &cl, out);
                return exit;
            }
            // Top-tested counted loop (rotation did not fire).
            self.emit_counted_loop_top_tested(lid, &cl, out);
            return exit;
        }
        // Not counted: structure as a while(1)-free goto fallback.
        self.emit_unstructured_loop(lid, out);
        exit
    }

    fn emit_counted_loop_top_tested(
        &mut self,
        lid: LoopId,
        cl: &CountedLoop,
        out: &mut Vec<CStmt>,
    ) {
        // The header holds phi + cmp + condbr; the body hangs off it. The
        // canonical-for emission already handles exactly this shape.
        self.emit_counted_loop(lid, cl, out);
    }

    fn emit_unstructured_loop(&mut self, lid: LoopId, out: &mut Vec<CStmt>) {
        // Fallback: label + blocks + conditional gotos. Correct for any
        // shape; used only when loop recognition fails.
        let l = self.li.get(lid).clone();
        self.gotos += 1;
        self.need_label.insert(l.header);
        out.push(CStmt::Label(format!("bb{}", l.header.0)));
        let header = l.header;
        self.visited.insert(header);
        self.emit_block_stmts(header, out);
        if let Some(term) = self.f.terminator(header) {
            match self.f.inst(term).kind.clone() {
                InstKind::Br { target } => {
                    out.push(CStmt::Goto(format!("bb{}", target.0)));
                    self.need_label.insert(target);
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.expr_of_value(cond);
                    out.push(CStmt::If {
                        cond: c,
                        then_body: vec![CStmt::Goto(format!("bb{}", then_bb.0))],
                        else_body: vec![CStmt::Goto(format!("bb{}", else_bb.0))],
                    });
                    self.need_label.insert(then_bb);
                    self.need_label.insert(else_bb);
                    self.gotos += 2;
                }
                _ => {}
            }
        }
        for b in l.blocks {
            if !self.visited.contains(&b) {
                self.visited.insert(b);
                out.push(CStmt::Label(format!("bb{}", b.0)));
                self.emit_block_stmts(b, out);
            }
        }
    }

    /// Wrap a loop statement in `#pragma omp parallel { #pragma omp for }`
    /// or `#pragma omp simd` when a marker was pending at loop entry.
    fn wrap_with_pragma(
        &mut self,
        loop_stmt: CStmt,
        pragma: Option<MarkerInfo>,
        simd: Option<SimdMarkerInfo>,
        out: &mut Vec<CStmt>,
    ) {
        match pragma {
            Some(info) if self.opts.emit_pragmas => {
                let clauses = crate::pragma::clauses_for(info);
                out.push(CStmt::OmpParallel {
                    clauses: OmpClauses::default(),
                    body: vec![CStmt::OmpFor {
                        clauses,
                        loop_stmt: Box::new(loop_stmt),
                    }],
                });
            }
            // A work-sharing pragma and a simd marker never land on the
            // same loop (the vectorize route runs on sequential modules),
            // so the simd wrap only applies when no omp pragma did.
            _ => match simd {
                Some(info) if self.opts.emit_pragmas => {
                    let mut clauses = OmpClauses::default();
                    for &(op, phi) in &info.reductions {
                        clauses
                            .reduction
                            .push((op.clause_name().to_string(), self.name_of(phi)));
                    }
                    out.push(CStmt::OmpSimd {
                        clauses,
                        loop_stmt: Box::new(loop_stmt),
                    });
                }
                _ => out.push(loop_stmt),
            },
        }
    }
}
