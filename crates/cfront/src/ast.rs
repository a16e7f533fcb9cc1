//! C abstract syntax tree and pretty printer.
//!
//! The AST is shared three ways: the parser produces it from source, the
//! decompiler constructs it programmatically, and the pretty printer turns
//! it back into compilable C. The printer's output re-parses with
//! [`crate::parser`], which is what makes SPLENDID's output recompilable.

use std::fmt::Write;

/// C types in the supported subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CType {
    /// `void`.
    Void,
    /// `int` (32-bit).
    Int,
    /// `long` (64-bit).
    Long,
    /// `uint64_t` — the type SPLENDID emits for reconstructed induction
    /// variables, as in the paper's examples.
    UInt64,
    /// `double`.
    Double,
    /// Pointer.
    Ptr(Box<CType>),
    /// Multi-dimensional array with constant extents.
    Array(Box<CType>, Vec<usize>),
}

impl CType {
    /// Render the declaration of `name` with this type (C declarator
    /// syntax, e.g. `double A[10][20]`).
    pub fn decl(&self, name: &str) -> String {
        match self {
            CType::Array(elem, dims) => {
                let mut s = format!("{} {}", elem.base_name(), name);
                for d in dims {
                    write!(s, "[{d}]").unwrap();
                }
                s
            }
            CType::Ptr(inner) => format!("{}* {}", inner.base_name(), name),
            other => format!("{} {}", other.base_name(), name),
        }
    }

    /// The scalar/base type name.
    pub fn base_name(&self) -> String {
        match self {
            CType::Void => "void".into(),
            CType::Int => "int".into(),
            CType::Long => "long".into(),
            CType::UInt64 => "uint64_t".into(),
            CType::Double => "double".into(),
            CType::Ptr(inner) => format!("{}*", inner.base_name()),
            CType::Array(elem, _) => elem.base_name(),
        }
    }

    /// Whether values of this type are floating point.
    pub fn is_float(&self) -> bool {
        matches!(self, CType::Double)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
    /// `&`
    BAnd,
    /// `|`
    BOr,
    /// `^`
    BXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl CBinOp {
    /// C operator spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CBinOp::Add => "+",
            CBinOp::Sub => "-",
            CBinOp::Mul => "*",
            CBinOp::Div => "/",
            CBinOp::Rem => "%",
            CBinOp::Lt => "<",
            CBinOp::Le => "<=",
            CBinOp::Gt => ">",
            CBinOp::Ge => ">=",
            CBinOp::Eq => "==",
            CBinOp::Ne => "!=",
            CBinOp::LAnd => "&&",
            CBinOp::LOr => "||",
            CBinOp::BAnd => "&",
            CBinOp::BOr => "|",
            CBinOp::BXor => "^",
            CBinOp::Shl => "<<",
            CBinOp::Shr => ">>",
        }
    }

    /// Binding strength for the printer (higher binds tighter) and parser.
    pub fn precedence(self) -> u8 {
        match self {
            CBinOp::Mul | CBinOp::Div | CBinOp::Rem => 10,
            CBinOp::Add | CBinOp::Sub => 9,
            CBinOp::Shl | CBinOp::Shr => 8,
            CBinOp::Lt | CBinOp::Le | CBinOp::Gt | CBinOp::Ge => 7,
            CBinOp::Eq | CBinOp::Ne => 6,
            CBinOp::BAnd => 5,
            CBinOp::BXor => 4,
            CBinOp::BOr => 3,
            CBinOp::LAnd => 2,
            CBinOp::LOr => 1,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CUnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// Variable reference.
    Ident(String),
    /// Array subscript chain `base[i][j]`.
    Index {
        /// Array being indexed (identifier or pointer expression).
        base: Box<CExpr>,
        /// One expression per subscript.
        indices: Vec<CExpr>,
    },
    /// Function call.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: CUnOp,
        /// Operand.
        expr: Box<CExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: CBinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// C cast `(ty)expr`.
    Cast {
        /// Destination type.
        ty: CType,
        /// Operand.
        expr: Box<CExpr>,
    },
    /// Assignment as an expression; `op` is `Some` for compound forms
    /// (`+=` etc.).
    Assign {
        /// Assignee (identifier or subscript).
        lhs: Box<CExpr>,
        /// Compound operator, if any.
        op: Option<CBinOp>,
        /// Value.
        rhs: Box<CExpr>,
    },
}

impl CExpr {
    /// Convenience identifier constructor.
    pub fn ident(s: impl Into<String>) -> CExpr {
        CExpr::Ident(s.into())
    }

    /// Convenience binary constructor.
    pub fn bin(op: CBinOp, lhs: CExpr, rhs: CExpr) -> CExpr {
        CExpr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            CExpr::Assign { .. } => 0,
            CExpr::Binary { op, .. } => op.precedence(),
            CExpr::Unary { .. } | CExpr::Cast { .. } => 11,
            _ => 12,
        }
    }

    /// Render with minimal parentheses.
    pub fn print(&self) -> String {
        match self {
            CExpr::Int(v) => v.to_string(),
            CExpr::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            CExpr::Ident(s) => s.clone(),
            CExpr::Index { base, indices } => {
                let mut s = if base.precedence() < 12 {
                    format!("({})", base.print())
                } else {
                    base.print()
                };
                for i in indices {
                    write!(s, "[{}]", i.print()).unwrap();
                }
                s
            }
            CExpr::Call { name, args } => {
                let args: Vec<String> = args.iter().map(|a| a.print()).collect();
                format!("{name}({})", args.join(", "))
            }
            CExpr::Unary { op, expr } => {
                let sym = match op {
                    CUnOp::Neg => "-",
                    CUnOp::Not => "!",
                };
                if expr.precedence() < 11 {
                    format!("{sym}({})", expr.print())
                } else {
                    format!("{sym}{}", expr.print())
                }
            }
            CExpr::Binary { op, lhs, rhs } => {
                let p = op.precedence();
                let l = if lhs.precedence() < p {
                    format!("({})", lhs.print())
                } else {
                    lhs.print()
                };
                // Right side needs parens at equal precedence too (left
                // associativity).
                let r = if rhs.precedence() <= p {
                    format!("({})", rhs.print())
                } else {
                    rhs.print()
                };
                format!("{l} {} {r}", op.symbol())
            }
            CExpr::Cast { ty, expr } => {
                if expr.precedence() < 11 {
                    format!("({})({})", ty.base_name(), expr.print())
                } else {
                    format!("({}){}", ty.base_name(), expr.print())
                }
            }
            CExpr::Assign { lhs, op, rhs } => {
                let sym = match op {
                    Some(o) => format!("{}=", o.symbol()),
                    None => "=".to_string(),
                };
                format!("{} {sym} {}", lhs.print(), rhs.print())
            }
        }
    }
}

/// OpenMP schedule kinds supported by the prototype (paper §7: static
/// scheduling only, as required for Polly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// `schedule(static)`.
    #[default]
    Static,
    /// `schedule(static, chunk)`.
    StaticChunk(u32),
}

/// Clauses of an OpenMP directive.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OmpClauses {
    /// Loop schedule.
    pub schedule: Option<Schedule>,
    /// `nowait` present.
    pub nowait: bool,
    /// `private(...)` variables.
    pub private: Vec<String>,
    /// `reduction(op:var)` clauses, one `(op, var)` pair each.
    pub reduction: Vec<(String, String)>,
}

impl OmpClauses {
    fn print(&self) -> String {
        let mut s = String::new();
        if let Some(sch) = self.schedule {
            match sch {
                Schedule::Static => s.push_str(" schedule(static)"),
                Schedule::StaticChunk(c) => write!(s, " schedule(static, {c})").unwrap(),
            }
        }
        if self.nowait {
            s.push_str(" nowait");
        }
        if !self.private.is_empty() {
            write!(s, " private({})", self.private.join(", ")).unwrap();
        }
        for (op, var) in &self.reduction {
            write!(s, " reduction({op}:{var})").unwrap();
        }
        s
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum CStmt {
    /// Local declaration with optional initializer.
    Decl {
        /// Variable name.
        name: String,
        /// Type.
        ty: CType,
        /// Initializer.
        init: Option<CExpr>,
    },
    /// Expression statement (assignments, calls).
    Expr(CExpr),
    /// `if`/`else`.
    If {
        /// Condition.
        cond: CExpr,
        /// Then branch.
        then_body: Vec<CStmt>,
        /// Else branch (empty for no else).
        else_body: Vec<CStmt>,
    },
    /// Canonical `for` loop.
    For {
        /// Init statement (declaration or assignment).
        init: Option<Box<CStmt>>,
        /// Continue condition.
        cond: Option<CExpr>,
        /// Step expression.
        step: Option<CExpr>,
        /// Body.
        body: Vec<CStmt>,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: CExpr,
        /// Body.
        body: Vec<CStmt>,
    },
    /// `do { } while (cond);` loop — what naive decompilation of rotated
    /// loops produces.
    DoWhile {
        /// Body.
        body: Vec<CStmt>,
        /// Condition.
        cond: CExpr,
    },
    /// `return`.
    Return(Option<CExpr>),
    /// Braced block.
    Block(Vec<CStmt>),
    /// `#pragma omp parallel { ... }`.
    OmpParallel {
        /// Clauses.
        clauses: OmpClauses,
        /// Region body.
        body: Vec<CStmt>,
    },
    /// `#pragma omp for ...` applied to a `for` loop.
    OmpFor {
        /// Clauses.
        clauses: OmpClauses,
        /// The loop (must be `CStmt::For`).
        loop_stmt: Box<CStmt>,
    },
    /// Combined `#pragma omp parallel for ...`.
    OmpParallelFor {
        /// Clauses.
        clauses: OmpClauses,
        /// The loop (must be `CStmt::For`).
        loop_stmt: Box<CStmt>,
    },
    /// `#pragma omp simd ...` applied to a `for` loop. A vectorization
    /// hint: lowering treats the loop as sequential (lane order is
    /// preserved by the ordered-reduction semantics of the vector IR),
    /// so round-trips through the interpreter stay bit-exact.
    OmpSimd {
        /// Clauses (`reduction(...)` in practice).
        clauses: OmpClauses,
        /// The loop (must be `CStmt::For`).
        loop_stmt: Box<CStmt>,
    },
    /// `#pragma omp barrier`.
    OmpBarrier,
    /// `goto label;` (baseline decompilers only).
    Goto(String),
    /// `label:` (baseline decompilers only).
    Label(String),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CFunc {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameters.
    pub params: Vec<(String, CType)>,
    /// Body statements.
    pub body: Vec<CStmt>,
}

/// A translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CProgram {
    /// `#define` constants, in order.
    pub defines: Vec<(String, i64)>,
    /// Global array/scalar definitions.
    pub globals: Vec<(String, CType)>,
    /// Functions.
    pub functions: Vec<CFunc>,
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_stmts(out: &mut String, stmts: &[CStmt], level: usize) {
    for s in stmts {
        print_stmt(out, s, level);
    }
}

fn print_block(out: &mut String, stmts: &[CStmt], level: usize) {
    out.push_str(" {\n");
    print_stmts(out, stmts, level + 1);
    indent(out, level);
    out.push_str("}\n");
}

fn print_stmt(out: &mut String, stmt: &CStmt, level: usize) {
    match stmt {
        CStmt::Label(name) => {
            writeln!(out, "{name}:").unwrap();
            return;
        }
        _ => indent(out, level),
    }
    match stmt {
        CStmt::Decl { name, ty, init } => {
            match init {
                Some(e) => writeln!(out, "{} = {};", ty.decl(name), e.print()).unwrap(),
                None => writeln!(out, "{};", ty.decl(name)).unwrap(),
            };
        }
        CStmt::Expr(e) => writeln!(out, "{};", e.print()).unwrap(),
        CStmt::If {
            cond,
            then_body,
            else_body,
        } => {
            write!(out, "if ({})", cond.print()).unwrap();
            out.push_str(" {\n");
            print_stmts(out, then_body, level + 1);
            indent(out, level);
            out.push('}');
            if else_body.is_empty() {
                out.push('\n');
            } else {
                out.push_str(" else {\n");
                print_stmts(out, else_body, level + 1);
                indent(out, level);
                out.push_str("}\n");
            }
        }
        CStmt::For {
            init,
            cond,
            step,
            body,
        } => {
            let init_s = match init {
                Some(s) => print_stmt_inline(s),
                None => String::new(),
            };
            let cond_s = cond.as_ref().map(|c| c.print()).unwrap_or_default();
            let step_s = step.as_ref().map(|s| s.print()).unwrap_or_default();
            write!(out, "for ({init_s}; {cond_s}; {step_s})").unwrap();
            print_block(out, body, level);
        }
        CStmt::While { cond, body } => {
            write!(out, "while ({})", cond.print()).unwrap();
            print_block(out, body, level);
        }
        CStmt::DoWhile { body, cond } => {
            out.push_str("do {\n");
            print_stmts(out, body, level + 1);
            indent(out, level);
            writeln!(out, "}} while ({});", cond.print()).unwrap();
        }
        CStmt::Return(Some(e)) => writeln!(out, "return {};", e.print()).unwrap(),
        CStmt::Return(None) => writeln!(out, "return;").unwrap(),
        CStmt::Block(stmts) => {
            out.push_str("{\n");
            print_stmts(out, stmts, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        CStmt::OmpParallel { clauses, body } => {
            writeln!(out, "#pragma omp parallel{}", clauses.print()).unwrap();
            indent(out, level);
            out.push('{');
            out.push('\n');
            print_stmts(out, body, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        CStmt::OmpFor { clauses, loop_stmt } => {
            writeln!(out, "#pragma omp for{}", clauses.print()).unwrap();
            print_stmt(out, loop_stmt, level);
        }
        CStmt::OmpParallelFor { clauses, loop_stmt } => {
            writeln!(out, "#pragma omp parallel for{}", clauses.print()).unwrap();
            print_stmt(out, loop_stmt, level);
        }
        CStmt::OmpSimd { clauses, loop_stmt } => {
            writeln!(out, "#pragma omp simd{}", clauses.print()).unwrap();
            print_stmt(out, loop_stmt, level);
        }
        CStmt::OmpBarrier => writeln!(out, "#pragma omp barrier").unwrap(),
        CStmt::Goto(l) => writeln!(out, "goto {l};").unwrap(),
        CStmt::Label(_) => unreachable!("handled above"),
    }
}

/// A statement rendered without trailing `;\n`, for `for` headers.
fn print_stmt_inline(stmt: &CStmt) -> String {
    match stmt {
        CStmt::Decl { name, ty, init } => match init {
            Some(e) => format!("{} = {}", ty.decl(name), e.print()),
            None => ty.decl(name),
        },
        CStmt::Expr(e) => e.print(),
        _ => panic!("unsupported statement in for header"),
    }
}

/// Render a function definition.
pub fn print_func(f: &CFunc) -> String {
    let mut out = String::new();
    let params: Vec<String> = f.params.iter().map(|(n, t)| t.decl(n)).collect();
    write!(
        out,
        "{} {}({})",
        f.ret.base_name(),
        f.name,
        params.join(", ")
    )
    .unwrap();
    out.push_str(" {\n");
    print_stmts(&mut out, &f.body, 1);
    out.push_str("}\n");
    out
}

/// Render a whole translation unit.
pub fn print_program(p: &CProgram) -> String {
    let mut out = String::new();
    for (name, v) in &p.defines {
        writeln!(out, "#define {name} {v}").unwrap();
    }
    if !p.defines.is_empty() {
        out.push('\n');
    }
    for (name, ty) in &p.globals {
        writeln!(out, "{};", ty.decl(name)).unwrap();
    }
    if !p.globals.is_empty() {
        out.push('\n');
    }
    for (i, f) in p.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&print_func(f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_printing_with_precedence() {
        // (a + b) * c needs parens; a + b * c does not.
        let e = CExpr::bin(
            CBinOp::Mul,
            CExpr::bin(CBinOp::Add, CExpr::ident("a"), CExpr::ident("b")),
            CExpr::ident("c"),
        );
        assert_eq!(e.print(), "(a + b) * c");
        let e2 = CExpr::bin(
            CBinOp::Add,
            CExpr::ident("a"),
            CExpr::bin(CBinOp::Mul, CExpr::ident("b"), CExpr::ident("c")),
        );
        assert_eq!(e2.print(), "a + b * c");
    }

    #[test]
    fn right_assoc_parens() {
        // a - (b - c) keeps parens.
        let e = CExpr::bin(
            CBinOp::Sub,
            CExpr::ident("a"),
            CExpr::bin(CBinOp::Sub, CExpr::ident("b"), CExpr::ident("c")),
        );
        assert_eq!(e.print(), "a - (b - c)");
    }

    #[test]
    fn index_and_call() {
        let e = CExpr::Index {
            base: Box::new(CExpr::ident("A")),
            indices: vec![
                CExpr::bin(CBinOp::Sub, CExpr::ident("i"), CExpr::Int(1)),
                CExpr::ident("j"),
            ],
        };
        assert_eq!(e.print(), "A[i - 1][j]");
        let c = CExpr::Call {
            name: "exp".into(),
            args: vec![e],
        };
        assert_eq!(c.print(), "exp(A[i - 1][j])");
    }

    #[test]
    fn float_literals_keep_decimal_point() {
        assert_eq!(CExpr::Float(3.0).print(), "3.0");
        assert_eq!(CExpr::Float(0.5).print(), "0.5");
        assert_eq!(
            CExpr::Float(std::f64::consts::PI).print(),
            "3.141592653589793"
        );
    }

    #[test]
    fn type_declarations() {
        assert_eq!(
            CType::Array(Box::new(CType::Double), vec![10, 20]).decl("A"),
            "double A[10][20]"
        );
        assert_eq!(CType::Ptr(Box::new(CType::Double)).decl("p"), "double* p");
        assert_eq!(CType::UInt64.decl("i"), "uint64_t i");
    }

    #[test]
    fn prints_for_loop_with_pragma() {
        let loop_stmt = CStmt::For {
            init: Some(Box::new(CStmt::Decl {
                name: "i".into(),
                ty: CType::UInt64,
                init: Some(CExpr::Int(0)),
            })),
            cond: Some(CExpr::bin(CBinOp::Le, CExpr::ident("i"), CExpr::Int(998))),
            step: Some(CExpr::Assign {
                lhs: Box::new(CExpr::ident("i")),
                op: None,
                rhs: Box::new(CExpr::bin(CBinOp::Add, CExpr::ident("i"), CExpr::Int(1))),
            }),
            body: vec![CStmt::Expr(CExpr::Assign {
                lhs: Box::new(CExpr::Index {
                    base: Box::new(CExpr::ident("B")),
                    indices: vec![CExpr::ident("i")],
                }),
                op: None,
                rhs: Box::new(CExpr::ident("x")),
            })],
        };
        let s = CStmt::OmpFor {
            clauses: OmpClauses {
                schedule: Some(Schedule::Static),
                nowait: true,
                ..OmpClauses::default()
            },
            loop_stmt: Box::new(loop_stmt),
        };
        let mut out = String::new();
        print_stmt(&mut out, &s, 0);
        assert!(out.contains("#pragma omp for schedule(static) nowait"));
        assert!(out.contains("for (uint64_t i = 0; i <= 998; i = i + 1) {"));
        assert!(out.contains("B[i] = x;"));
    }

    #[test]
    fn prints_parallel_region() {
        let s = CStmt::OmpParallel {
            clauses: OmpClauses::default(),
            body: vec![CStmt::OmpBarrier],
        };
        let mut out = String::new();
        print_stmt(&mut out, &s, 1);
        assert!(out.contains("#pragma omp parallel\n"));
        assert!(out.contains("#pragma omp barrier"));
    }

    #[test]
    fn prints_program() {
        let p = CProgram {
            defines: vec![("N".into(), 100)],
            globals: vec![("A".into(), CType::Array(Box::new(CType::Double), vec![100]))],
            functions: vec![CFunc {
                name: "zero".into(),
                ret: CType::Void,
                params: vec![],
                body: vec![CStmt::Return(None)],
            }],
        };
        let s = print_program(&p);
        assert!(s.contains("#define N 100"));
        assert!(s.contains("double A[100];"));
        assert!(s.contains("void zero() {"));
        assert!(s.contains("return;"));
    }

    #[test]
    fn do_while_prints() {
        let s = CStmt::DoWhile {
            body: vec![CStmt::Expr(CExpr::Assign {
                lhs: Box::new(CExpr::ident("i")),
                op: Some(CBinOp::Add),
                rhs: Box::new(CExpr::Int(1)),
            })],
            cond: CExpr::bin(CBinOp::Lt, CExpr::ident("i"), CExpr::ident("n")),
        };
        let mut out = String::new();
        print_stmt(&mut out, &s, 0);
        assert_eq!(out, "do {\n  i += 1;\n} while (i < n);\n");
    }
}
