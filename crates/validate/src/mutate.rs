//! Seeded AST-level mutator for decompiled C.
//!
//! The mutation-kill suite (`tests/mutants.rs`) corrupts decompiled
//! output *before* re-lowering and asserts the validator rejects every
//! corrupted program. Mutating the AST (parse → mutate → print) rather
//! than the byte stream keeps every mutant syntactically valid, so a
//! kill always means "the checker observed wrong behavior", never "the
//! mutant didn't parse by accident".
//!
//! Mutation sites are enumerated deterministically by a fixed preorder
//! walk: [`mutation_sites`] counts them and [`apply_mutation`] fires
//! exactly one by index, so `(program, site)` is a complete, replayable
//! mutant identifier. Four classical mutation operators are implemented:
//!
//! * **operator flip** — `+`↔`-`, `*`→`+`, `/`→`*`, `<`↔`<=`, `>`↔`>=`,
//!   `==`↔`!=`, `&&`↔`||` (also on compound assignments);
//! * **off-by-one** — a comparison loop bound's right-hand side gets
//!   `+ 1`;
//! * **branch swap** — `if`/`else` arms are exchanged;
//! * **statement drop** — an expression statement (assignment or call)
//!   is deleted.

use splendid_cfront::{CBinOp, CExpr, CProgram, CStmt};

/// Number of mutation sites in `prog` under the fixed traversal order.
pub fn mutation_sites(prog: &CProgram) -> usize {
    let mut work = prog.clone();
    let mut m = Mutator::counting();
    m.run(&mut work);
    m.next
}

/// Apply the mutation at `site` (from `0..mutation_sites(prog)`).
/// Returns the mutated program and a human-readable description, or
/// `None` when `site` is out of range.
pub fn apply_mutation(prog: &CProgram, site: usize) -> Option<(CProgram, String)> {
    let mut work = prog.clone();
    let mut m = Mutator::firing(site);
    m.run(&mut work);
    m.applied.map(|desc| (work, desc))
}

struct Mutator {
    /// Next site index to assign.
    next: usize,
    /// The site that fires (usize::MAX in counting mode).
    target: usize,
    /// Description of the applied mutation, once fired.
    applied: Option<String>,
    /// Function currently being walked (for descriptions).
    current_fn: String,
}

impl Mutator {
    fn counting() -> Mutator {
        Mutator {
            next: 0,
            target: usize::MAX,
            applied: None,
            current_fn: String::new(),
        }
    }

    fn firing(target: usize) -> Mutator {
        Mutator {
            next: 0,
            target,
            applied: None,
            current_fn: String::new(),
        }
    }

    /// Assign the next site index; true iff this is the firing site.
    /// (After a site fires, later indices keep incrementing but can
    /// never fire again, so counting and firing runs agree on every
    /// index up to and including the fired one.)
    fn site(&mut self) -> bool {
        let fire = self.next == self.target;
        self.next += 1;
        fire
    }

    fn fired(&mut self, desc: String) {
        self.applied = Some(format!("{} in {}", desc, self.current_fn));
    }

    fn run(&mut self, prog: &mut CProgram) {
        for f in &mut prog.functions {
            self.current_fn = f.name.clone();
            self.visit_stmts(&mut f.body);
        }
    }

    fn visit_stmts(&mut self, stmts: &mut Vec<CStmt>) {
        let mut i = 0;
        while i < stmts.len() {
            if matches!(stmts[i], CStmt::Expr(_)) && self.site() {
                let dropped = match &stmts[i] {
                    CStmt::Expr(e) => e.print(),
                    _ => unreachable!(),
                };
                self.fired(format!("drop statement `{dropped}`"));
                stmts.remove(i);
                continue;
            }
            self.visit_stmt(&mut stmts[i]);
            i += 1;
        }
    }

    fn visit_stmt(&mut self, stmt: &mut CStmt) {
        match stmt {
            CStmt::Decl { init, .. } => {
                if let Some(e) = init {
                    self.visit_expr(e);
                }
            }
            CStmt::Expr(e) => self.visit_expr(e),
            CStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if !else_body.is_empty() && then_body != else_body && self.site() {
                    self.fired(format!("swap branches of `if ({})`", cond.print()));
                    std::mem::swap(then_body, else_body);
                }
                self.visit_expr(cond);
                self.visit_stmts(then_body);
                self.visit_stmts(else_body);
            }
            CStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(CExpr::Binary { op, rhs, .. }) = cond {
                    if matches!(op, CBinOp::Lt | CBinOp::Le | CBinOp::Gt | CBinOp::Ge)
                        && self.site()
                    {
                        self.fired(format!("off-by-one loop bound `{}`", rhs.print()));
                        let old = std::mem::replace(rhs.as_mut(), CExpr::Int(0));
                        *rhs.as_mut() = CExpr::bin(CBinOp::Add, old, CExpr::Int(1));
                    }
                }
                if let Some(s) = init {
                    self.visit_stmt(s);
                }
                if let Some(c) = cond {
                    self.visit_expr(c);
                }
                if let Some(s) = step {
                    self.visit_expr(s);
                }
                self.visit_stmts(body);
            }
            CStmt::While { cond, body } => {
                self.visit_expr(cond);
                self.visit_stmts(body);
            }
            CStmt::DoWhile { body, cond } => {
                self.visit_stmts(body);
                self.visit_expr(cond);
            }
            CStmt::Return(Some(e)) => self.visit_expr(e),
            CStmt::Block(b) => self.visit_stmts(b),
            CStmt::OmpParallel { body, .. } => self.visit_stmts(body),
            CStmt::OmpFor { loop_stmt, .. }
            | CStmt::OmpParallelFor { loop_stmt, .. }
            | CStmt::OmpSimd { loop_stmt, .. } => self.visit_stmt(loop_stmt),
            CStmt::Return(None) | CStmt::OmpBarrier | CStmt::Goto(_) | CStmt::Label(_) => {}
        }
    }

    fn visit_expr(&mut self, expr: &mut CExpr) {
        match expr {
            CExpr::Binary { op, lhs, rhs } => {
                if let Some(flipped) = flip(*op) {
                    if self.site() {
                        self.fired(format!("flip `{}` to `{}`", op.symbol(), flipped.symbol()));
                        *op = flipped;
                    }
                }
                self.visit_expr(lhs);
                self.visit_expr(rhs);
            }
            CExpr::Unary { expr, .. } | CExpr::Cast { expr, .. } => self.visit_expr(expr),
            CExpr::Index { base, indices } => {
                self.visit_expr(base);
                for i in indices {
                    self.visit_expr(i);
                }
            }
            CExpr::Call { args, .. } => {
                for a in args {
                    self.visit_expr(a);
                }
            }
            CExpr::Assign { lhs, op, rhs } => {
                if let Some(o) = op {
                    if let Some(flipped) = flip(*o) {
                        if self.site() {
                            self.fired(format!(
                                "flip `{}=` to `{}=`",
                                o.symbol(),
                                flipped.symbol()
                            ));
                            *op = Some(flipped);
                        }
                    }
                }
                self.visit_expr(lhs);
                self.visit_expr(rhs);
            }
            CExpr::Int(_) | CExpr::Float(_) | CExpr::Ident(_) => {}
        }
    }
}

/// The operator-flip table. Only semantically meaningful flips within
/// the same type family; `None` means this operator has no flip site.
fn flip(op: CBinOp) -> Option<CBinOp> {
    match op {
        CBinOp::Add => Some(CBinOp::Sub),
        CBinOp::Sub => Some(CBinOp::Add),
        CBinOp::Mul => Some(CBinOp::Add),
        CBinOp::Div => Some(CBinOp::Mul),
        CBinOp::Lt => Some(CBinOp::Le),
        CBinOp::Le => Some(CBinOp::Lt),
        CBinOp::Gt => Some(CBinOp::Ge),
        CBinOp::Ge => Some(CBinOp::Gt),
        CBinOp::Eq => Some(CBinOp::Ne),
        CBinOp::Ne => Some(CBinOp::Eq),
        CBinOp::LAnd => Some(CBinOp::LOr),
        CBinOp::LOr => Some(CBinOp::LAnd),
        CBinOp::Rem | CBinOp::BAnd | CBinOp::BOr | CBinOp::BXor | CBinOp::Shl | CBinOp::Shr => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_cfront::{parse_program, print_program};

    const SRC: &str = r#"
double A[8];
void kernel(int n) {
  int i;
  for (i = 0; i < n; i++) {
    if (i == 3) {
      A[i] = A[i] * 2.0;
    } else {
      A[i] = A[i] + 1.0;
    }
  }
}
"#;

    #[test]
    fn sites_are_enumerable_and_in_range() {
        let prog = parse_program(SRC).unwrap();
        let n = mutation_sites(&prog);
        // At least: == flip, < flip, off-by-one, branch swap, two drops,
        // a * flip, a + flip.
        assert!(n >= 8, "only {n} sites");
        for site in 0..n {
            let (mutant, desc) = apply_mutation(&prog, site)
                .unwrap_or_else(|| panic!("site {site} of {n} did not fire"));
            assert_ne!(mutant, prog, "site {site} ({desc}) changed nothing");
        }
        assert!(apply_mutation(&prog, n).is_none());
    }

    #[test]
    fn mutants_reprint_and_reparse() {
        let prog = parse_program(SRC).unwrap();
        for site in 0..mutation_sites(&prog) {
            let (mutant, desc) = apply_mutation(&prog, site).unwrap();
            let printed = print_program(&mutant);
            parse_program(&printed)
                .unwrap_or_else(|e| panic!("site {site} ({desc}) printed unparsable C: {e}"));
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let prog = parse_program(SRC).unwrap();
        let n = mutation_sites(&prog);
        assert_eq!(n, mutation_sites(&prog));
        for site in 0..n {
            let a = apply_mutation(&prog, site).unwrap();
            let b = apply_mutation(&prog, site).unwrap();
            assert_eq!(print_program(&a.0), print_program(&b.0));
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn descriptions_name_the_function() {
        let prog = parse_program(SRC).unwrap();
        for site in 0..mutation_sites(&prog) {
            let (_, desc) = apply_mutation(&prog, site).unwrap();
            assert!(desc.contains("in kernel"), "{desc}");
        }
    }
}
