//! Recursive-descent parser for the supported C subset (with OpenMP
//! pragmas). Parses both hand-written PolyBench kernels and the pretty
//! printer's own output.

use crate::ast::*;
use crate::token::{lex, CToken};

/// Parse error with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CParseError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for CParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CParseError {}

type Result<T> = std::result::Result<T, CParseError>;

/// How deep statements and expressions may nest, counted as statements
/// inside statements, prefix operators and casts, parenthesized and
/// bracketed subexpressions, chained assignments, and the binary and
/// postfix operators folded over an operand (`x - x - x` nests its first
/// `x` two levels below the statement's operand). The parser, the checker
/// and the lowering each recurse once per level, so past this depth a
/// program is a parse error rather than a thread's stack overflow.
pub const MAX_NESTING: usize = 128;

struct Parser {
    toks: Vec<(CToken, usize)>,
    pos: usize,
    defines: Vec<(String, i64)>,
    /// Levels of nesting open at `pos`.
    depth: usize,
    /// The deepest level the operand being parsed reaches, counting the
    /// operators folded over it so far.
    peak: usize,
}

const TYPE_KEYWORDS: &[&str] = &["void", "int", "long", "uint64_t", "double"];

/// Whether evaluating `e` can change state: it assigns or calls.
fn has_side_effect(e: &CExpr) -> bool {
    match e {
        CExpr::Int(_) | CExpr::Float(_) | CExpr::Ident(_) => false,
        CExpr::Assign { .. } | CExpr::Call { .. } => true,
        CExpr::Index { base, indices } => {
            has_side_effect(base) || indices.iter().any(has_side_effect)
        }
        CExpr::Unary { expr, .. } | CExpr::Cast { expr, .. } => has_side_effect(expr),
        CExpr::Binary { lhs, rhs, .. } => has_side_effect(lhs) || has_side_effect(rhs),
    }
}

impl Parser {
    fn line(&self) -> usize {
        // Report the line of the last consumed token: errors are detected
        // just after consuming the offending token.
        let idx = self
            .pos
            .saturating_sub(1)
            .min(self.toks.len().saturating_sub(1));
        self.toks.get(idx).map(|(_, l)| *l).unwrap_or(0)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(CParseError {
            line: self.line(),
            msg: msg.into(),
        })
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Wrap the operand parsed so far in one more node, which puts all of
    /// it one level deeper, failing past [`MAX_NESTING`]. Operators folded
    /// in a loop do not recurse in the parser, so this counts them.
    fn fold(&mut self) -> Result<()> {
        if self.peak >= MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.peak += 1;
        Ok(())
    }

    fn peek(&self) -> Option<&CToken> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&CToken> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<CToken> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(CToken::Punct(q)) if q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected '{p}', got {:?}", self.peek()))
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(CToken::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Some(CToken::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, got {other:?}")),
        }
    }

    fn at_type_keyword(&self) -> bool {
        matches!(self.peek(), Some(CToken::Ident(s)) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    fn define_value(&self, name: &str) -> Option<i64> {
        self.defines
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn parse_base_type(&mut self) -> Result<CType> {
        let name = self.expect_ident()?;
        let mut ty = match name.as_str() {
            "void" => CType::Void,
            "int" => CType::Int,
            "long" => CType::Long,
            "uint64_t" => CType::UInt64,
            "double" => CType::Double,
            other => return self.err(format!("unknown type '{other}'")),
        };
        while self.eat_punct("*") {
            // `restrict` after `*` is accepted and ignored.
            ty = CType::Ptr(Box::new(ty));
            self.eat_ident("restrict");
        }
        Ok(ty)
    }

    /// Parse `[N][M]...` dims after a declarator name; dims may be integer
    /// literals or `#define`d names.
    fn parse_dims(&mut self) -> Result<Vec<usize>> {
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            let d = match self.next() {
                Some(CToken::Int(v)) if v > 0 => v as usize,
                Some(CToken::Ident(name)) => match self.define_value(&name) {
                    Some(v) if v > 0 => v as usize,
                    _ => {
                        return self.err(format!(
                            "array dimension '{name}' is not a positive #define"
                        ))
                    }
                },
                other => return self.err(format!("bad array dimension {other:?}")),
            };
            dims.push(d);
            self.expect_punct("]")?;
        }
        Ok(dims)
    }

    fn with_dims(base: CType, dims: Vec<usize>) -> CType {
        if dims.is_empty() {
            base
        } else {
            CType::Array(Box::new(base), dims)
        }
    }

    // ---- expressions -------------------------------------------------

    fn parse_expr(&mut self) -> Result<CExpr> {
        self.parse_assignment()
    }

    fn parse_assignment(&mut self) -> Result<CExpr> {
        let lhs = self.parse_binary(0)?;
        let compound = |p: &str| -> Option<CBinOp> {
            Some(match p {
                "+=" => CBinOp::Add,
                "-=" => CBinOp::Sub,
                "*=" => CBinOp::Mul,
                "/=" => CBinOp::Div,
                _ => return None,
            })
        };
        match self.peek() {
            Some(CToken::Punct(p)) if p == "=" => {
                self.pos += 1;
                let rhs = self.nested(Self::parse_assignment)?;
                Ok(CExpr::Assign {
                    lhs: Box::new(lhs),
                    op: None,
                    rhs: Box::new(rhs),
                })
            }
            Some(CToken::Punct(p)) if compound(p).is_some() => {
                let op = compound(p);
                self.pos += 1;
                let rhs = self.nested(Self::parse_assignment)?;
                Ok(CExpr::Assign {
                    lhs: Box::new(lhs),
                    op,
                    rhs: Box::new(rhs),
                })
            }
            _ => Ok(lhs),
        }
    }

    fn binop_of(p: &str) -> Option<CBinOp> {
        Some(match p {
            "+" => CBinOp::Add,
            "-" => CBinOp::Sub,
            "*" => CBinOp::Mul,
            "/" => CBinOp::Div,
            "%" => CBinOp::Rem,
            "<" => CBinOp::Lt,
            "<=" => CBinOp::Le,
            ">" => CBinOp::Gt,
            ">=" => CBinOp::Ge,
            "==" => CBinOp::Eq,
            "!=" => CBinOp::Ne,
            "&&" => CBinOp::LAnd,
            "||" => CBinOp::LOr,
            "&" => CBinOp::BAnd,
            "|" => CBinOp::BOr,
            "^" => CBinOp::BXor,
            "<<" => CBinOp::Shl,
            ">>" => CBinOp::Shr,
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<CExpr> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut lhs = self.parse_unary()?;
        while let Some(op) = self
            .peek()
            .and_then(|t| match t {
                CToken::Punct(p) => Self::binop_of(p),
                _ => None,
            })
            .filter(|op| op.precedence() >= min_prec)
        {
            self.pos += 1;
            // Leaves `peak` at the deeper of `lhs` and `rhs`.
            let rhs = self.parse_binary(op.precedence() + 1)?;
            self.fold()?;
            lhs = CExpr::bin(op, lhs, rhs);
        }
        self.peak = self.peak.max(outer);
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<CExpr> {
        self.nested(Self::parse_unary_inner)
    }

    fn parse_unary_inner(&mut self) -> Result<CExpr> {
        if self.eat_punct("-") {
            let e = self.parse_unary()?;
            // Fold literal negation for natural output.
            return Ok(match e {
                CExpr::Int(v) => CExpr::Int(-v),
                CExpr::Float(v) => CExpr::Float(-v),
                other => CExpr::Unary {
                    op: CUnOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat_punct("!") {
            let e = self.parse_unary()?;
            return Ok(CExpr::Unary {
                op: CUnOp::Not,
                expr: Box::new(e),
            });
        }
        for (punct, op) in [("++", CBinOp::Add), ("--", CBinOp::Sub)] {
            if self.eat_punct(punct) {
                // ++i  =>  i = i + 1, which nests `i` one level below the
                // operand's own.
                let e = self.parse_unary()?;
                self.fold()?;
                return self.step(punct, op, e);
            }
        }
        // Cast: '(' type-keyword ... ')'
        if matches!(self.peek(), Some(CToken::Punct(p)) if p == "(") {
            if let Some(CToken::Ident(s)) = self.peek2() {
                if TYPE_KEYWORDS.contains(&s.as_str()) {
                    self.expect_punct("(")?;
                    let ty = self.parse_base_type()?;
                    self.expect_punct(")")?;
                    let e = self.parse_unary()?;
                    return Ok(CExpr::Cast {
                        ty,
                        expr: Box::new(e),
                    });
                }
            }
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<CExpr> {
        let mut e = self.parse_primary()?;
        loop {
            if matches!(self.peek(), Some(CToken::Punct(p)) if p == "[") {
                let mut indices = Vec::new();
                while self.eat_punct("[") {
                    indices.push(self.parse_expr()?);
                    self.expect_punct("]")?;
                }
                self.fold()?;
                e = CExpr::Index {
                    base: Box::new(e),
                    indices,
                };
            } else if let Some((punct, op)) = [("++", CBinOp::Add), ("--", CBinOp::Sub)]
                .into_iter()
                .find(|(punct, _)| self.eat_punct(punct))
            {
                // i++ => i = i + 1 (value unused in our subset), two
                // levels above `i`.
                self.fold()?;
                self.fold()?;
                e = self.step(punct, op, e)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// Desugar `++e`/`e++` (`op` = `Add`) or `--e`/`e--` (`Sub`) into
    /// `e = e op 1`. The operand must be a variable or an array element
    /// whose base and subscripts have no side effect: C forbids any other
    /// operand, and the desugaring evaluates `e` twice, so a side effect
    /// would run twice (and nested `-- -- x` would double the tree per
    /// operator).
    fn step(&self, punct: &str, op: CBinOp, e: CExpr) -> Result<CExpr> {
        let assignable = match &e {
            CExpr::Ident(_) => true,
            CExpr::Index { base, indices } => {
                !has_side_effect(base) && !indices.iter().any(has_side_effect)
            }
            _ => false,
        };
        if !assignable {
            return self.err(format!(
                "operand of `{punct}` must be a variable or an array element \
                 without side effects"
            ));
        }
        Ok(CExpr::Assign {
            lhs: Box::new(e.clone()),
            op: None,
            rhs: Box::new(CExpr::bin(op, e, CExpr::Int(1))),
        })
    }

    fn parse_primary(&mut self) -> Result<CExpr> {
        match self.next() {
            Some(CToken::Int(v)) => Ok(CExpr::Int(v)),
            Some(CToken::Float(v)) => Ok(CExpr::Float(v)),
            Some(CToken::Ident(name)) => {
                if matches!(self.peek(), Some(CToken::Punct(p)) if p == "(") {
                    self.expect_punct("(")?;
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok(CExpr::Call { name, args })
                } else {
                    Ok(CExpr::Ident(name))
                }
            }
            Some(CToken::Punct(p)) if p == "(" => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => self.err(format!("expected expression, got {other:?}")),
        }
    }

    // ---- statements ---------------------------------------------------

    fn parse_block(&mut self) -> Result<Vec<CStmt>> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            if self.peek().is_none() {
                return self.err("unterminated block");
            }
            out.push(self.parse_stmt()?);
        }
        Ok(out)
    }

    fn parse_stmt(&mut self) -> Result<CStmt> {
        self.nested(Self::parse_stmt_inner)
    }

    fn parse_stmt_inner(&mut self) -> Result<CStmt> {
        // Pragmas.
        if let Some(CToken::Pragma(_)) = self.peek() {
            return self.parse_pragma_stmt();
        }
        if matches!(self.peek(), Some(CToken::Punct(p)) if p == "{") {
            return Ok(CStmt::Block(self.parse_block()?));
        }
        if self.at_type_keyword() {
            let stmt = self.parse_decl_stmt()?;
            self.expect_punct(";")?;
            return Ok(stmt);
        }
        match self.peek() {
            Some(CToken::Ident(kw)) if kw == "if" => {
                self.pos += 1;
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                let then_body = self.parse_stmt_or_block()?;
                let else_body = if self.eat_ident("else") {
                    self.parse_stmt_or_block()?
                } else {
                    Vec::new()
                };
                Ok(CStmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            Some(CToken::Ident(kw)) if kw == "for" => self.parse_for(),
            Some(CToken::Ident(kw)) if kw == "while" => {
                self.pos += 1;
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                let body = self.parse_stmt_or_block()?;
                Ok(CStmt::While { cond, body })
            }
            Some(CToken::Ident(kw)) if kw == "do" => {
                self.pos += 1;
                let body = self.parse_stmt_or_block()?;
                if !self.eat_ident("while") {
                    return self.err("expected 'while' after do-body");
                }
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                Ok(CStmt::DoWhile { body, cond })
            }
            Some(CToken::Ident(kw)) if kw == "return" => {
                self.pos += 1;
                if self.eat_punct(";") {
                    Ok(CStmt::Return(None))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(";")?;
                    Ok(CStmt::Return(Some(e)))
                }
            }
            Some(CToken::Ident(kw)) if kw == "goto" => {
                self.pos += 1;
                let label = self.expect_ident()?;
                self.expect_punct(";")?;
                Ok(CStmt::Goto(label))
            }
            // Label: ident ':'
            Some(CToken::Ident(_)) if matches!(self.peek2(), Some(CToken::Punct(p)) if p == ":") => {
                let name = self.expect_ident()?;
                self.expect_punct(":")?;
                Ok(CStmt::Label(name))
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(";")?;
                Ok(CStmt::Expr(e))
            }
        }
    }

    fn parse_stmt_or_block(&mut self) -> Result<Vec<CStmt>> {
        if matches!(self.peek(), Some(CToken::Punct(p)) if p == "{") {
            self.parse_block()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    /// Declaration without the trailing `;` (shared with for-init).
    fn parse_decl_stmt(&mut self) -> Result<CStmt> {
        let base = self.parse_base_type()?;
        let name = self.expect_ident()?;
        let dims = self.parse_dims()?;
        let ty = Self::with_dims(base, dims);
        let init = if self.eat_punct("=") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(CStmt::Decl { name, ty, init })
    }

    fn parse_for(&mut self) -> Result<CStmt> {
        self.pos += 1; // 'for'
        self.expect_punct("(")?;
        let init = if self.eat_punct(";") {
            None
        } else if self.at_type_keyword() {
            let d = self.parse_decl_stmt()?;
            self.expect_punct(";")?;
            Some(Box::new(d))
        } else {
            let e = self.parse_expr()?;
            self.expect_punct(";")?;
            Some(Box::new(CStmt::Expr(e)))
        };
        let cond = if self.eat_punct(";") {
            None
        } else {
            let c = self.parse_expr()?;
            self.expect_punct(";")?;
            Some(c)
        };
        let step = if matches!(self.peek(), Some(CToken::Punct(p)) if p == ")") {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect_punct(")")?;
        let body = self.parse_stmt_or_block()?;
        Ok(CStmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn parse_pragma_stmt(&mut self) -> Result<CStmt> {
        let Some(CToken::Pragma(text)) = self.next() else {
            return self.err("expected pragma");
        };
        let words: Vec<&str> = text.split_whitespace().collect();
        if words.first() != Some(&"omp") {
            return self.err(format!("unsupported pragma '{text}'"));
        }
        let (kind, clause_words): (&str, &[&str]) = match words.get(1) {
            Some(&"parallel") if words.get(2) == Some(&"for") => ("parallel for", &words[3..]),
            Some(&"parallel") => ("parallel", &words[2..]),
            Some(&"for") => ("for", &words[2..]),
            Some(&"simd") => ("simd", &words[2..]),
            Some(&"barrier") => return Ok(CStmt::OmpBarrier),
            other => return self.err(format!("unsupported omp directive {other:?}")),
        };
        let clauses = Self::parse_clauses(clause_words).map_err(|m| CParseError {
            line: self.line(),
            msg: m,
        })?;
        match kind {
            "parallel" => {
                let body = self.parse_stmt_or_block()?;
                Ok(CStmt::OmpParallel { clauses, body })
            }
            "for" => {
                let inner = self.parse_stmt()?;
                if !matches!(inner, CStmt::For { .. }) {
                    return self.err("#pragma omp for must precede a for loop");
                }
                Ok(CStmt::OmpFor {
                    clauses,
                    loop_stmt: Box::new(inner),
                })
            }
            "parallel for" => {
                let inner = self.parse_stmt()?;
                if !matches!(inner, CStmt::For { .. }) {
                    return self.err("#pragma omp parallel for must precede a for loop");
                }
                Ok(CStmt::OmpParallelFor {
                    clauses,
                    loop_stmt: Box::new(inner),
                })
            }
            "simd" => {
                let inner = self.parse_stmt()?;
                if !matches!(inner, CStmt::For { .. }) {
                    return self.err("#pragma omp simd must precede a for loop");
                }
                Ok(CStmt::OmpSimd {
                    clauses,
                    loop_stmt: Box::new(inner),
                })
            }
            _ => unreachable!(),
        }
    }

    fn parse_clauses(words: &[&str]) -> std::result::Result<OmpClauses, String> {
        let mut clauses = OmpClauses::default();
        // Clauses may contain spaces inside parens, e.g. `schedule(static,
        // 4)` — rejoin and re-split on close parens.
        let joined = words.join(" ");
        let mut rest = joined.trim();
        while !rest.is_empty() {
            if let Some(r) = rest.strip_prefix("nowait") {
                clauses.nowait = true;
                rest = r.trim_start();
            } else if let Some(r) = rest.strip_prefix("schedule(") {
                let close = r.find(')').ok_or("unclosed schedule clause")?;
                let inner = &r[..close];
                let parts: Vec<&str> = inner.split(',').map(|s| s.trim()).collect();
                match parts.as_slice() {
                    ["static"] => clauses.schedule = Some(Schedule::Static),
                    ["static", chunk] => {
                        let c: u32 = chunk.parse().map_err(|e| format!("bad chunk size: {e}"))?;
                        clauses.schedule = Some(Schedule::StaticChunk(c));
                    }
                    other => return Err(format!("unsupported schedule {other:?}")),
                }
                rest = r[close + 1..].trim_start();
            } else if let Some(r) = rest.strip_prefix("reduction(") {
                let close = r.find(')').ok_or("unclosed reduction clause")?;
                let inner = &r[..close];
                let (op, vars) = inner
                    .split_once(':')
                    .ok_or("reduction clause needs 'op:var'")?;
                let op = op.trim();
                if !matches!(op, "+" | "min" | "max") {
                    return Err(format!("unsupported reduction operator '{op}'"));
                }
                for var in vars.split(',').map(|s| s.trim()).filter(|s| !s.is_empty()) {
                    clauses.reduction.push((op.to_string(), var.to_string()));
                }
                rest = r[close + 1..].trim_start();
            } else if let Some(r) = rest.strip_prefix("private(") {
                let close = r.find(')').ok_or("unclosed private clause")?;
                clauses.private = r[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                rest = r[close + 1..].trim_start();
            } else {
                return Err(format!("unsupported clause near '{rest}'"));
            }
        }
        Ok(clauses)
    }

    // ---- top level ------------------------------------------------------

    fn parse_program(&mut self) -> Result<CProgram> {
        let mut prog = CProgram::default();
        while let Some(tok) = self.peek().cloned() {
            match tok {
                CToken::Define(name, v) => {
                    self.pos += 1;
                    self.defines.push((name.clone(), v));
                    prog.defines.push((name, v));
                }
                CToken::Pragma(_) => {
                    return self.err("pragma outside a function body");
                }
                _ => {
                    let base = self.parse_base_type()?;
                    let name = self.expect_ident()?;
                    if matches!(self.peek(), Some(CToken::Punct(p)) if p == "(") {
                        // Function definition.
                        self.expect_punct("(")?;
                        let mut params = Vec::new();
                        if !self.eat_punct(")") {
                            loop {
                                let pty = self.parse_base_type()?;
                                let pname = self.expect_ident()?;
                                let dims = self.parse_dims()?;
                                params.push((pname, Self::with_dims(pty, dims)));
                                if self.eat_punct(")") {
                                    break;
                                }
                                self.expect_punct(",")?;
                            }
                        }
                        let body = self.parse_block()?;
                        prog.functions.push(CFunc {
                            name,
                            ret: base,
                            params,
                            body,
                        });
                    } else {
                        // Global declaration.
                        let dims = self.parse_dims()?;
                        self.expect_punct(";")?;
                        prog.globals.push((name, Self::with_dims(base, dims)));
                    }
                }
            }
        }
        Ok(prog)
    }
}

/// Parse a translation unit.
pub fn parse_program(src: &str) -> Result<CProgram> {
    let toks = lex(src).map_err(|e| CParseError {
        line: e.line,
        msg: e.msg,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        defines: Vec::new(),
        depth: 0,
        peak: 0,
    };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::print_program;
    use crate::lower::{lower_program, LowerOptions};

    const JACOBI: &str = r#"
#define N 1000

double A[1000];
double B[1000];

void kernel() {
  int i;
  for (i = 1; i < N - 1; i++) {
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  }
}
"#;

    #[test]
    fn parses_jacobi_kernel() {
        let p = parse_program(JACOBI).unwrap();
        assert_eq!(p.defines, vec![("N".into(), 1000)]);
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "kernel");
        assert!(matches!(f.body[1], CStmt::For { .. }));
    }

    #[test]
    fn round_trips_through_printer() {
        let p = parse_program(JACOBI).unwrap();
        let printed = print_program(&p);
        let p2 = parse_program(&printed).unwrap();
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printer output must be stable");
    }

    #[test]
    fn parses_openmp_constructs() {
        let src = r#"
double A[100];
void k(double alpha) {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (uint64_t i = 0; i <= 98; i = i + 1) {
      A[i+1] = A[i+1] * alpha;
    }
  }
  #pragma omp parallel for schedule(static, 4) private(j)
  for (int j = 0; j < 100; j++) {
    A[j] = 0.0;
  }
  #pragma omp barrier
}
"#;
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        let CStmt::OmpParallel { clauses, body } = &f.body[0] else {
            panic!("expected parallel, got {:?}", f.body[0]);
        };
        assert!(!clauses.nowait);
        let CStmt::OmpFor { clauses: fc, .. } = &body[0] else {
            panic!("expected omp for")
        };
        assert!(fc.nowait);
        assert_eq!(fc.schedule, Some(Schedule::Static));
        let CStmt::OmpParallelFor { clauses: pf, .. } = &f.body[1] else {
            panic!("expected parallel for")
        };
        assert_eq!(pf.schedule, Some(Schedule::StaticChunk(4)));
        assert_eq!(pf.private, vec!["j".to_string()]);
        assert!(matches!(f.body[2], CStmt::OmpBarrier));
        // And the whole thing round-trips.
        let printed = print_program(&p);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(print_program(&p2), printed);
    }

    #[test]
    fn parses_control_flow_zoo() {
        let src = r#"
void f(int n) {
  int i = 0;
  while (i < n) {
    i += 2;
  }
  do {
    i--;
  } while (i > 0);
  if (i == 0) {
    i = 1;
  } else {
    i = 2;
  }
  for (;;) {
    return;
  }
}
"#;
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        assert!(matches!(f.body[1], CStmt::While { .. }));
        assert!(matches!(f.body[2], CStmt::DoWhile { .. }));
        assert!(matches!(f.body[3], CStmt::If { .. }));
        let CStmt::For {
            init, cond, step, ..
        } = &f.body[4]
        else {
            panic!()
        };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }

    #[test]
    fn parses_casts_calls_and_math() {
        let src = r#"
void f(double x) {
  double y = (double)3 * exp(x) + sqrt(x) / 2.0;
  double z = -y;
  int k = (int)z % 7;
}
"#;
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn parses_increment_forms() {
        let src = "void f() { int i = 0; i++; ++i; i--; --i; }";
        let p = parse_program(src).unwrap();
        // All four forms desugar to assignments.
        let assigns = p.functions[0]
            .body
            .iter()
            .filter(|s| matches!(s, CStmt::Expr(CExpr::Assign { .. })))
            .count();
        assert_eq!(assigns, 4);
    }

    #[test]
    fn increments_of_non_lvalues_or_side_effects_are_parse_errors() {
        // 24 minus signs are `-- -- ... x`: a decrement of a decrement,
        // which C forbids.
        let e = parse_program(&nested_return("-", "", 24)).unwrap_err();
        assert_eq!(
            e.msg,
            "operand of `--` must be a variable or an array element without side effects"
        );
        for src in [
            "void f() { int i; double a[4]; a[i++]++; }",
            "void f() { int i; double a[4]; ++a[i = 1]; }",
            "void f() { int i; i++ ++; }",
        ] {
            let e = parse_program(src).unwrap_err();
            assert!(e.msg.starts_with("operand of `++`"), "{src}: {}", e.msg);
        }
        // Variables and plain array elements still step.
        parse_program("void f() { int i; double a[4]; a[i + 1]++; --a[i]; i--; }").unwrap();
    }

    #[test]
    fn parses_goto_and_labels() {
        let src = "void f() { goto out; out: return; }";
        let p = parse_program(src).unwrap();
        assert!(matches!(p.functions[0].body[0], CStmt::Goto(_)));
        assert!(matches!(p.functions[0].body[1], CStmt::Label(_)));
    }

    #[test]
    fn error_carries_line() {
        let err = parse_program("void f() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn define_usable_as_dimension() {
        let src = "#define M 16\ndouble A[M][M];\nvoid f() {}";
        let p = parse_program(src).unwrap();
        assert_eq!(
            p.globals[0].1,
            CType::Array(Box::new(CType::Double), vec![16, 16])
        );
    }

    /// `double f(double x) { return <open * levels>x<close * levels>; }`
    fn nested_return(open: &str, close: &str, levels: usize) -> String {
        let (open, close) = (open.repeat(levels), close.repeat(levels));
        format!("double f(double x) {{ return {open}x{close}; }}")
    }

    /// `return ((x - x - x) - x - x) - x - x;` for `groups` = 2 and
    /// `terms` = 2: each chain is short, but each folds over the last.
    fn nested_chains(groups: usize, terms: usize) -> String {
        let (open, chain) = ("(".repeat(groups), " - x".repeat(terms));
        let close = format!("{chain})").repeat(groups);
        format!("double f(double x) {{ return {open}x{close}{chain}; }}")
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error_on_a_worker_sized_stack() {
        // The body's statement and `return`'s operand take one level each.
        let deepest = MAX_NESTING - 2;
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let too_deep = [
                    nested_return("(", ")", 10_000),
                    nested_return("-", "", 100_000),
                    nested_return("", " - x", 100_000),
                    nested_chains(20, 20),
                    nested_return("(", ")", deepest + 1),
                    nested_return("- ", "", deepest + 1),
                    nested_return("", " - x", deepest + 1),
                ];
                for src in too_deep {
                    let e = parse_program(&src).unwrap_err();
                    assert_eq!(e.msg, format!("nesting deeper than {MAX_NESTING} levels"));
                }
                for src in [
                    nested_return("(", ")", deepest),
                    nested_return("- ", "", deepest),
                    nested_return("", " - x", deepest),
                ] {
                    let prog = parse_program(&src).unwrap();
                    lower_program(&prog, "t", &LowerOptions::default()).unwrap();
                }
            });
        run.unwrap().join().unwrap();
    }

    #[test]
    fn pointer_params_with_restrict() {
        let src = "void f(double* restrict A, double* B) { A[0] = B[0]; }";
        let p = parse_program(src).unwrap();
        assert_eq!(
            p.functions[0].params[0].1,
            CType::Ptr(Box::new(CType::Double))
        );
    }
}
