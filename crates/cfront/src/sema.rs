//! Lightweight semantic checks run before lowering: undeclared
//! identifiers, lvalue shape, subscript arity, and known-callee arity.

use crate::ast::*;
use std::collections::HashMap;

/// Semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaError(pub String);

impl std::fmt::Display for SemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "semantic error: {}", self.0)
    }
}

impl std::error::Error for SemaError {}

/// Math externals available without declaration, with their arity.
pub fn known_external(name: &str) -> Option<usize> {
    Some(match name {
        "exp" | "sqrt" | "fabs" | "log" | "sin" | "cos" | "floor" => 1,
        "pow" => 2,
        _ => return None,
    })
}

struct Scope<'a> {
    vars: Vec<HashMap<String, CType>>,
    prog: &'a CProgram,
}

impl<'a> Scope<'a> {
    fn lookup(&self, name: &str) -> Option<&CType> {
        for frame in self.vars.iter().rev() {
            if let Some(t) = frame.get(name) {
                return Some(t);
            }
        }
        self.prog
            .globals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    fn is_define(&self, name: &str) -> bool {
        name == "M_PI" || self.prog.defines.iter().any(|(n, _)| n == name)
    }
}

/// Check a whole program.
pub fn check_program(prog: &CProgram) -> Result<(), SemaError> {
    for f in &prog.functions {
        let mut scope = Scope {
            vars: vec![HashMap::new()],
            prog,
        };
        for (n, t) in &f.params {
            scope.vars[0].insert(n.clone(), t.clone());
        }
        check_stmts(&f.body, &mut scope, prog, f)?;
    }
    Ok(())
}

fn check_stmts(
    stmts: &[CStmt],
    scope: &mut Scope,
    prog: &CProgram,
    f: &CFunc,
) -> Result<(), SemaError> {
    scope.vars.push(HashMap::new());
    for s in stmts {
        check_stmt(s, scope, prog, f)?;
    }
    scope.vars.pop();
    Ok(())
}

fn check_stmt(
    stmt: &CStmt,
    scope: &mut Scope,
    prog: &CProgram,
    f: &CFunc,
) -> Result<(), SemaError> {
    match stmt {
        CStmt::Decl { name, ty, init } => {
            if let Some(e) = init {
                check_expr(e, scope, prog)?;
            }
            scope
                .vars
                .last_mut()
                .expect("scope")
                .insert(name.clone(), ty.clone());
            Ok(())
        }
        CStmt::Expr(e) => check_expr(e, scope, prog),
        CStmt::If {
            cond,
            then_body,
            else_body,
        } => {
            check_expr(cond, scope, prog)?;
            check_stmts(then_body, scope, prog, f)?;
            check_stmts(else_body, scope, prog, f)
        }
        CStmt::For {
            init,
            cond,
            step,
            body,
        } => {
            scope.vars.push(HashMap::new());
            if let Some(i) = init {
                check_stmt(i, scope, prog, f)?;
            }
            if let Some(c) = cond {
                check_expr(c, scope, prog)?;
            }
            if let Some(s) = step {
                check_expr(s, scope, prog)?;
            }
            check_stmts(body, scope, prog, f)?;
            scope.vars.pop();
            Ok(())
        }
        CStmt::While { cond, body } => {
            check_expr(cond, scope, prog)?;
            check_stmts(body, scope, prog, f)
        }
        CStmt::DoWhile { body, cond } => {
            check_stmts(body, scope, prog, f)?;
            check_expr(cond, scope, prog)
        }
        CStmt::Return(Some(e)) => {
            if f.ret == CType::Void {
                return Err(SemaError(format!(
                    "function {} returns a value but is void",
                    f.name
                )));
            }
            check_expr(e, scope, prog)
        }
        CStmt::Return(None) => {
            if f.ret != CType::Void {
                return Err(SemaError(format!(
                    "function {} must return a value",
                    f.name
                )));
            }
            Ok(())
        }
        CStmt::Block(b) => check_stmts(b, scope, prog, f),
        CStmt::OmpParallel { body, .. } => check_stmts(body, scope, prog, f),
        CStmt::OmpFor { loop_stmt, .. }
        | CStmt::OmpParallelFor { loop_stmt, .. }
        | CStmt::OmpSimd { loop_stmt, .. } => {
            if !matches!(**loop_stmt, CStmt::For { .. }) {
                return Err(SemaError("omp for/simd must apply to a for loop".into()));
            }
            check_stmt(loop_stmt, scope, prog, f)
        }
        CStmt::OmpBarrier | CStmt::Goto(_) | CStmt::Label(_) => Ok(()),
    }
}

fn check_expr(e: &CExpr, scope: &Scope, prog: &CProgram) -> Result<(), SemaError> {
    match e {
        CExpr::Int(_) | CExpr::Float(_) => Ok(()),
        CExpr::Ident(name) => {
            if scope.lookup(name).is_some() || scope.is_define(name) {
                Ok(())
            } else {
                Err(SemaError(format!("use of undeclared identifier '{name}'")))
            }
        }
        CExpr::Index { base, indices } => {
            check_expr(base, scope, prog)?;
            for i in indices {
                check_expr(i, scope, prog)?;
            }
            // Subscript arity check for direct identifier bases.
            if let CExpr::Ident(name) = base.as_ref() {
                match scope.lookup(name) {
                    Some(CType::Array(_, dims)) if dims.len() != indices.len() => {
                        return Err(SemaError(format!(
                            "'{name}' has {} dimensions but {} subscripts",
                            dims.len(),
                            indices.len()
                        )));
                    }
                    Some(CType::Ptr(_)) if indices.len() != 1 => {
                        return Err(SemaError(format!(
                            "pointer '{name}' supports single subscripts only"
                        )));
                    }
                    Some(_) | None => {}
                }
            }
            Ok(())
        }
        CExpr::Call { name, args } => {
            for a in args {
                check_expr(a, scope, prog)?;
            }
            if let Some(arity) = known_external(name) {
                if args.len() != arity {
                    return Err(SemaError(format!(
                        "'{name}' expects {arity} argument(s), got {}",
                        args.len()
                    )));
                }
                return Ok(());
            }
            match prog.functions.iter().find(|f| &f.name == name) {
                Some(f) if f.params.len() == args.len() => Ok(()),
                Some(f) => Err(SemaError(format!(
                    "'{name}' expects {} argument(s), got {}",
                    f.params.len(),
                    args.len()
                ))),
                None => Err(SemaError(format!("call to unknown function '{name}'"))),
            }
        }
        CExpr::Unary { expr, .. } => check_expr(expr, scope, prog),
        CExpr::Binary { lhs, rhs, .. } => {
            check_expr(lhs, scope, prog)?;
            check_expr(rhs, scope, prog)
        }
        CExpr::Cast { expr, .. } => check_expr(expr, scope, prog),
        CExpr::Assign { lhs, rhs, .. } => {
            if !matches!(lhs.as_ref(), CExpr::Ident(_) | CExpr::Index { .. }) {
                return Err(SemaError(format!(
                    "assignment target is not an lvalue: {}",
                    lhs.print()
                )));
            }
            check_expr(lhs, scope, prog)?;
            check_expr(rhs, scope, prog)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<(), SemaError> {
        check_program(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_valid_program() {
        check(
            "#define N 10\ndouble A[10];\nvoid f(double x) { int i; for (i = 0; i < N; i++) { A[i] = exp(x); } }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_undeclared() {
        let e = check("void f() { x = 1; }").unwrap_err();
        assert!(e.0.contains("undeclared"), "{e}");
    }

    #[test]
    fn rejects_bad_subscript_arity() {
        let e = check("double A[4][4];\nvoid f() { A[1] = 0.0; }").unwrap_err();
        assert!(e.0.contains("subscripts"), "{e}");
    }

    #[test]
    fn rejects_unknown_call() {
        let e = check("void f() { frob(); }").unwrap_err();
        assert!(e.0.contains("unknown function"), "{e}");
    }

    #[test]
    fn rejects_wrong_arity_external() {
        let e = check("void f(double x) { x = exp(x, x); }").unwrap_err();
        assert!(e.0.contains("expects 1"), "{e}");
    }

    #[test]
    fn rejects_non_lvalue_assign() {
        let e = check("void f(int a) { (a + 1) = 2; }").unwrap_err();
        assert!(e.0.contains("lvalue"), "{e}");
    }

    #[test]
    fn rejects_void_return_mismatch() {
        let e = check("void f() { return 1; }").unwrap_err();
        assert!(e.0.contains("void"), "{e}");
        let e2 = check("int f() { return; }").unwrap_err();
        assert!(e2.0.contains("must return"), "{e2}");
    }

    #[test]
    fn scopes_nest_and_pop() {
        // j is declared in the for scope; not visible after.
        let e = check("void f() { for (int j = 0; j < 2; j++) { } j = 1; }").unwrap_err();
        assert!(e.0.contains("undeclared"), "{e}");
    }

    #[test]
    fn m_pi_is_builtin() {
        check("void f(double x) { x = M_PI; }").unwrap();
    }

    #[test]
    fn internal_call_checked() {
        check("void g(int a) { }\nvoid f() { g(1); }").unwrap();
        let e = check("void g(int a) { }\nvoid f() { g(); }").unwrap_err();
        assert!(e.0.contains("expects 1"), "{e}");
    }
}
