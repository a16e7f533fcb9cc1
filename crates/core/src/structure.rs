//! Natural control-flow generation: IR → C statements.
//!
//! Includes the **Loop-Rotate Detransformer** (paper §4.2): a rotated
//! (bottom-tested, guarded) counted loop is rebuilt as a canonical `for`
//! loop, and the guard check is removed when it is provably equivalent to
//! the `for` loop's initial exit test. Expressions come from the shared
//! [`crate::cmap`] translator, whose hook here folds single-use pure
//! values into compound expressions (so `B[i] = (A[i-1] + A[i] +
//! A[i+1]) / 3.0;` comes back as one line), while multi-use values,
//! selects and loop-carried variables materialize as named C variables
//! using the names chosen by [`crate::naming`].

use crate::cmap::{self, assign, ctype_of, Operand, Translator};
use crate::detransform::{decode_marker, MarkerInfo};
use crate::devectorize::{decode_simd_marker, SimdMarkerInfo};
use crate::error::{SplendidError, Stage};
use crate::naming::{NameOrigin, Naming};
use splendid_analysis::domtree::{ipostdoms, DomTree};
use splendid_analysis::indvar::{recognize_counted_loop, CountedLoop};
use splendid_analysis::loops::{Loop, LoopId, LoopInfo};
use splendid_cfront::ast::*;
use splendid_ir::{BlockId, Function, InstId, InstKind, Module, Value};
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
    /// Per value: how many operands of placed instructions read it, and
    /// the last instruction that does (the only one when the count is 1).
    uses: HashMap<InstId, (usize, InstId)>,
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
    /// First structural defect encountered (IR shape the translator has
    /// no rule for). Recorded instead of panicking;
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
    let name = module.name_of(f.name);
    let error = |msg| SplendidError::recoverable(Stage::Structure, msg).in_function(name);
    cmap::check_refs(module, f).map_err(error)?;
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
    let mut uses: HashMap<InstId, (usize, InstId)> = HashMap::new();
    for (idx, inst) in f.insts.iter().enumerate() {
        if owners[idx].is_none() || matches!(inst.kind, InstKind::DbgValue { .. }) {
            continue;
        }
        let user = InstId(idx as u32);
        inst.kind.for_each_operand(|v| {
            if let Value::Inst(d) = v {
                let e = uses.entry(d).or_insert((0, user));
                *e = (e.0 + 1, user);
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
        uses,
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
    if let Some(msg) = s.diag.take() {
        return Err(error(msg));
    }
    Ok(StructuredFunc {
        cfunc: CFunc {
            name: name.to_string(),
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

    /// Where `id`'s variable name came from (Figure-8 metric).
    fn origin(&self, id: InstId) -> NameOrigin {
        self.naming
            .names
            .get(&id)
            .map(|(_, o)| *o)
            .unwrap_or(NameOrigin::Register)
    }

    /// Record `id`'s variable and the origin of its name.
    fn note_var(&mut self, id: InstId) -> String {
        let name = self.name_of(id);
        let origin = self.origin(id);
        self.var_origins.entry(name.clone()).or_insert(origin);
        self.materialized.insert(id);
        name
    }

    fn use_count(&self, id: InstId) -> usize {
        self.uses.get(&id).map_or(0, |u| u.0)
    }

    /// Whether `id` can be folded into its (single) use.
    fn inlinable(&self, id: InstId) -> bool {
        let inst = self.f.inst(id);
        if !self.opts.inline_expressions {
            // Geps must still fold (there is no address-of in the AST).
            return matches!(inst.kind, InstKind::Gep { .. });
        }
        match inst.kind {
            InstKind::Gep { .. } => return true, // always folded into Index
            InstKind::Phi { .. }
            | InstKind::Select { .. }
            | InstKind::Call { .. }
            | InstKind::Alloca { .. }
            | InstKind::Store { .. } => return false,
            _ => {}
        }
        if self.absorbed.contains(&id) {
            return true; // absorbed IV increments/conditions fold freely
        }
        // The single use must be later in the same block, with no pinning
        // instruction (store or call) in between when the value is a load.
        let Some(&(1, user)) = self.uses.get(&id) else {
            return false;
        };
        let Some(def_bb) = self.owners[id.index()] else {
            return false;
        };
        if self.owners[user.index()] != Some(def_bb) {
            return false;
        }
        let def_pos = self.pos_in_block[&id];
        let use_pos = self.pos_in_block[&user];
        if use_pos <= def_pos {
            return false;
        }
        if matches!(inst.kind, InstKind::Load { .. }) {
            for &between in &self.f.block(def_bb).insts[def_pos + 1..use_pos] {
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

    /// The shared translator: a value reads its variable once
    /// materialized or when it cannot fold into its use, and inlines
    /// otherwise.
    fn tr(&self) -> Translator<'a, impl Fn(InstId) -> Result<Operand, String> + '_> {
        Translator {
            module: self.module,
            f: self.f,
            hook: |id: InstId| {
                Ok(if self.materialized.contains(&id) || !self.inlinable(id) {
                    Operand::Var(self.name_of(id))
                } else {
                    Operand::Inline
                })
            },
        }
    }

    /// A translated expression; a translator error becomes the
    /// function's structural defect.
    fn noted(&self, r: Result<CExpr, String>) -> CExpr {
        r.unwrap_or_else(|msg| {
            self.note(msg);
            CExpr::Int(0)
        })
    }

    // ---- statements -------------------------------------------------------

    /// Define the variable `name`: declare it on first sight — in place,
    /// or (under `hoist_decls`) at the function top plus an in-place
    /// assignment of `init` — and assign `init` on every later sight.
    fn define(&mut self, name: String, ty: CType, init: Option<CExpr>, out: &mut Vec<CStmt>) {
        let first = self.declared.insert(name.clone());
        if first && !self.opts.hoist_decls {
            out.push(CStmt::Decl { name, ty, init });
            return;
        }
        if first {
            self.hoisted.push((name.clone(), ty));
        }
        if let Some(e) = init {
            out.push(assign(CExpr::Ident(name), e));
        }
    }

    /// Emit a materialized definition: `ty name = expr;` or `name = expr;`.
    /// A select is never an expression: its variable is declared, then
    /// assigned in both arms of an `if`.
    fn materialize(&mut self, id: InstId, out: &mut Vec<CStmt>) {
        let inst = self.f.inst(id);
        let ty = ctype_of(inst.ty);
        let name = self.note_var(id);
        if let InstKind::Select {
            cond,
            then_val,
            else_val,
        } = inst.kind
        {
            let stmt = self.tr().select(&name, cond, then_val, else_val);
            self.define(name, ty, None, out);
            match stmt {
                Ok(s) => out.push(s),
                Err(msg) => self.note(msg),
            }
        } else {
            let expr = self.noted(self.tr().expr(id));
            self.define(name, ty, Some(expr), out);
        }
    }

    /// Emit the non-terminator statements of one block.
    fn emit_block_stmts(&mut self, bb: BlockId, out: &mut Vec<CStmt>) {
        let f = self.f;
        for &i in &f.block(bb).insts {
            let inst = f.inst(i);
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
                    let lhs = self.noted(self.tr().lvalue(*ptr));
                    let rhs = self.noted(self.tr().value(*val));
                    out.push(assign(lhs, rhs));
                }
                InstKind::Call { .. } => {
                    if inst.has_result() && self.use_count(i) > 0 {
                        self.materialize(i, out);
                    } else {
                        let e = self.noted(self.tr().expr(i));
                        out.push(CStmt::Expr(e));
                    }
                }
                InstKind::Alloca { mem } => {
                    // Local storage: declare it.
                    let name = self.name_of(i);
                    self.materialized.insert(i);
                    self.var_origins
                        .entry(name.clone())
                        .or_insert(NameOrigin::Register);
                    self.define(name, cmap::ctype_of_mem(mem), None, out);
                }
                _ => {
                    // Pure value: emit only when not folded into a use.
                    if !self.inlinable(i) && self.use_count(i) > 0 {
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
                    let cond_expr = self.noted(self.tr().value(cond));
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
                    out.push(CStmt::Return(val.map(|v| self.noted(self.tr().value(v)))));
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
            let cond_expr = self.noted(self.tr().value(cond));
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

    /// The loop prologue both counted-loop forms share. Absorbs the IV
    /// phi, its increment and the latch compare (`iv.next` reads inside
    /// the body print as `iv + step`), and materializes loop-carried
    /// (non-IV) header phis as variables initialized before the loop.
    /// Returns the IV's name and the carried phis' in-loop incomings.
    fn loop_prologue(
        &mut self,
        l: &Loop,
        cl: &CountedLoop,
        out: &mut Vec<CStmt>,
    ) -> (String, Vec<(InstId, Value)>) {
        self.absorbed.insert(cl.iv);
        self.absorbed.insert(cl.next);
        self.absorbed.insert(cl.cmp);
        let iv_name = self.note_var(cl.iv);
        self.materialized.remove(&cl.next);

        let f = self.f;
        let mut latch_assigns = Vec::new();
        for &i in &f.block(l.header).insts {
            let InstKind::Phi { incomings } = &f.inst(i).kind else {
                break;
            };
            if i == cl.iv {
                continue;
            }
            let name = self.note_var(i);
            for &(from, v) in incomings {
                if l.contains(from) {
                    latch_assigns.push((i, v));
                } else {
                    let init = self.noted(self.tr().value(v));
                    self.define(name.clone(), ctype_of(f.inst(i).ty), Some(init), out);
                }
            }
        }
        (iv_name, latch_assigns)
    }

    /// Loop-carried variable updates at the end of a loop body. A
    /// self-update is skipped when the value already materialized under
    /// the same name (web-shared naming).
    fn latch_updates(&mut self, latch_assigns: Vec<(InstId, Value)>, body: &mut Vec<CStmt>) {
        for (phi, v) in latch_assigns {
            let name = self.name_of(phi);
            let rhs = self.noted(self.tr().value(v));
            if rhs == CExpr::ident(name.clone()) {
                continue;
            }
            if let Value::Inst(d) = v {
                if self.materialized.contains(&d) && self.name_of(d) == name {
                    continue;
                }
            }
            body.push(assign(CExpr::Ident(name), rhs));
        }
    }

    /// Emit the canonical `for` reconstruction of a counted loop, wrapping
    /// it in pending OpenMP pragmas if any.
    fn emit_counted_loop(&mut self, lid: LoopId, cl: &CountedLoop, out: &mut Vec<CStmt>) {
        // The pragma pending at loop entry belongs to THIS loop; take it
        // now so inner loops cannot steal it during body emission.
        let pragma = self.pending_pragma.take();
        let simd = self.pending_simd.take();
        let l = self.li.get(lid).clone();
        let (iv_name, latch_assigns) = self.loop_prologue(&l, cl, out);

        // The for-header pieces.
        let init_expr = self.noted(self.tr().value(cl.init));
        let bound_expr = self.noted(self.tr().value(cl.bound));
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
            assign(CExpr::ident(iv_name.clone()), init_expr)
        };
        let cond_expr = CExpr::bin(
            cmap::ipred(continue_pred(cl)),
            CExpr::ident(iv_name.clone()),
            bound_expr,
        );
        let step_expr = CExpr::Assign {
            lhs: Box::new(CExpr::ident(iv_name.clone())),
            op: None,
            rhs: Box::new(offset(&iv_name, cl.step)),
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
        self.latch_updates(latch_assigns, &mut body);

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
        let (iv_name, latch_assigns) = self.loop_prologue(&l, cl, out);

        // Initialize the IV before the loop.
        let init = self.noted(self.tr().value(cl.init));
        self.define(iv_name.clone(), CType::UInt64, Some(init), out);

        let ctx = LoopCtx {
            header: l.header,
            latch_test: Some(cl.cmp),
            exit: l.exits.first().copied(),
        };
        let mut body = Vec::new();
        self.emit_region(l.header, None, Some(ctx), &mut body);
        // Loop-carried updates come before the IV step, which they may
        // read; the explicit IV step closes the body.
        self.latch_updates(latch_assigns, &mut body);
        body.push(assign(
            CExpr::ident(iv_name.clone()),
            offset(&iv_name, cl.step),
        ));

        // Continue test against the updated IV. After the step, `iv` holds
        // what the latch compare called `next`; when the compare tested the
        // pre-increment value instead, undo the step in the test.
        let tested = if cl.cmp_uses_next {
            CExpr::ident(iv_name)
        } else {
            offset(&iv_name, -cl.step)
        };
        let bound = self.noted(self.tr().value(cl.bound));
        let cond = CExpr::bin(cmap::ipred(continue_pred(cl)), tested, bound);
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
            if cl.bottom_tested && !self.opts.detransform_rotation {
                self.emit_do_while(lid, &cl, out);
            } else {
                // A top-tested header holds phi + cmp + condbr with the
                // body hanging off it; a rotated loop entered without a
                // guard was proven non-empty. Both read as a `for`.
                self.emit_counted_loop(lid, &cl, out);
            }
            return exit;
        }
        // Not counted: structure as a while(1)-free goto fallback.
        self.emit_unstructured_loop(lid, out);
        exit
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
                    let c = self.noted(self.tr().value(cond));
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

/// The predicate under which a counted loop keeps iterating.
fn continue_pred(cl: &CountedLoop) -> splendid_ir::IPred {
    if cl.continue_on_true {
        cl.pred
    } else {
        cl.pred.negated()
    }
}

/// `iv + step`, or `iv - |step|` for a negative step.
fn offset(iv: &str, step: i64) -> CExpr {
    let op = if step >= 0 { CBinOp::Add } else { CBinOp::Sub };
    CExpr::bin(op, CExpr::ident(iv), CExpr::Int(step.abs()))
}
