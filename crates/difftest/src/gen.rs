//! Seeded program generator.
//!
//! Emits well-typed programs in the cfront C subset that cover the
//! constructs the decompiler must undo: nested and downward (rotated
//! after `-O2`) counted loops, `while` counters, guarded stores,
//! accumulator reductions (phi-heavy control flow after mem2reg), GEP
//! chains over 2-D arrays, int/float mixed arithmetic, helper-function
//! calls, parallelizable affine kernels, and loops with genuine
//! loop-carried dependences the parallelizer must refuse.
//!
//! Every array access is in bounds *by construction*: loop ranges are
//! drawn inside the smallest array dimension, and subscript offsets are
//! clamped to the slack between the loop range and the dimension being
//! indexed.
//!
//! Values stay finite *by construction* too. Division only ever has a
//! nonzero constant divisor, and every expression carries a coefficient
//! budget: the sum of coefficients over array/scalar reads never exceeds
//! the budget (reads are damped by a small constant when the budget runs
//! low, multiplication always has a constant operand, and accumulating
//! stores get value-free right-hand sides). A store executed T times can
//! therefore grow a value at most linearly in T, never geometrically, so
//! no route can reach Inf — and without Inf there is no NaN, keeping
//! checksums exactly comparable across routes.

use crate::prog::{Array, BinOp, Cond, Expr, Helper, Index, Stmt, TestProgram};
use splendid_ir::rng::Rng;

/// Floating constants the generator draws from (all exactly
/// representable; divisors nonzero).
const FLOATS: &[f64] = &[0.25, 0.5, 0.75, 1.5, 2.0, 2.5, 3.0];

/// Damping factors (< 1): used to scale reads down when the coefficient
/// budget is tight, and as safe multipliers for self-referencing values.
const DAMPS: &[f64] = &[0.25, 0.5, 0.75];

/// Generator tuning knobs (fixed defaults keep CI-size cases small).
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum loop-nest depth.
    pub max_depth: usize,
    /// Maximum top-level constructs in `kernel`.
    pub max_top_items: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_depth: 3,
            max_top_items: 3,
        }
    }
}

struct Gen<'r> {
    rng: &'r mut Rng,
    cfg: GenConfig,
    arrays: Vec<Array>,
    helpers: Vec<Helper>,
    /// Coefficient gain of each helper: an upper bound on how much a call
    /// can amplify its arguments (used to split the caller's budget).
    helper_gains: Vec<f64>,
    loop_vars: Vec<String>,
    while_vars: Vec<String>,
    next_scalar: usize,
    /// Smallest dimension across all arrays: the loop-bound space.
    min_dim: usize,
}

/// Active loop variables with their (inclusive lo, exclusive hi) ranges.
type Active = Vec<(String, i64, i64)>;

/// Generate the deterministic test program for `(seed, case index)`.
pub fn generate(seed: u64, case: u64, cfg: &GenConfig) -> TestProgram {
    let mut rng = Rng::for_case(seed, case);
    let mut g = Gen::new(&mut rng, cfg.clone());
    g.program()
}

impl<'r> Gen<'r> {
    fn new(rng: &'r mut Rng, cfg: GenConfig) -> Gen<'r> {
        Gen {
            rng,
            cfg,
            arrays: Vec::new(),
            helpers: Vec::new(),
            helper_gains: Vec::new(),
            loop_vars: Vec::new(),
            while_vars: Vec::new(),
            next_scalar: 0,
            min_dim: 0,
        }
    }

    fn program(&mut self) -> TestProgram {
        // Arrays: 1-3, doubles, 1-D or (sometimes) 2-D.
        let count = self.rng.range_i64(1, 3) as usize;
        for n in 0..count {
            let name = ["A", "B", "C"][n].to_string();
            let dims = if self.rng.chance(1, 3) {
                let d0 = self.rng.range_i64(4, 8) as usize;
                let d1 = self.rng.range_i64(4, 8) as usize;
                vec![d0, d1]
            } else {
                vec![self.rng.range_i64(6, 14) as usize]
            };
            self.arrays.push(Array { name, dims });
        }
        self.min_dim = self
            .arrays
            .iter()
            .flat_map(|a| a.dims.iter().copied())
            .min()
            .unwrap_or(4);

        // Helpers: 0-2 pure functions over doubles.
        let helpers = self.rng.range_i64(0, 2) as usize;
        for n in 0..helpers {
            let h = self.helper(n);
            self.helpers.push(h);
        }

        // Kernel: 1..=max_top_items constructs.
        let items = self.rng.range_i64(1, self.cfg.max_top_items as i64) as usize;
        let mut kernel = Vec::new();
        for _ in 0..items {
            let mut active = Active::new();
            kernel.extend(self.top_item(&mut active));
        }
        TestProgram {
            arrays: self.arrays.clone(),
            helpers: self.helpers.clone(),
            loop_vars: self.loop_vars.clone(),
            while_vars: self.while_vars.clone(),
            kernel,
        }
    }

    fn helper(&mut self, n: usize) -> Helper {
        let params: Vec<String> = (0..self.rng.range_i64(1, 2))
            .map(|p| format!("p{p}"))
            .collect();
        // Body: affine mix of the params and a constant; the gain is the
        // sum of the parameter coefficients.
        let scale = *self.rng.pick(FLOATS);
        let mut gain = scale;
        let mut body = Expr::Bin {
            op: BinOp::Mul,
            lhs: Box::new(Expr::Var(params[0].clone())),
            rhs: Box::new(Expr::Const(scale)),
        };
        for p in params.iter().skip(1) {
            gain += 1.0;
            body = Expr::Bin {
                op: *self.rng.pick(&[BinOp::Add, BinOp::Sub]),
                lhs: Box::new(body),
                rhs: Box::new(Expr::Var(p.clone())),
            };
        }
        if self.rng.chance(1, 2) {
            body = Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(body),
                rhs: Box::new(Expr::Const(*self.rng.pick(FLOATS))),
            };
        }
        self.helper_gains.push(gain.max(1.0));
        Helper {
            name: format!("f{n}"),
            params,
            body,
        }
    }

    fn fresh_loop_var(&mut self) -> String {
        let name = ["i", "j", "k", "m", "n2", "q"][self.loop_vars.len() % 6].to_string();
        let name = if self.loop_vars.contains(&name) {
            format!("{name}{}", self.loop_vars.len())
        } else {
            name
        };
        self.loop_vars.push(name.clone());
        name
    }

    fn fresh_while_var(&mut self) -> String {
        let name = format!("w{}", self.while_vars.len());
        self.while_vars.push(name.clone());
        name
    }

    fn fresh_scalar(&mut self) -> String {
        let name = format!("s{}", self.next_scalar);
        self.next_scalar += 1;
        name
    }

    /// One top-level construct.
    fn top_item(&mut self, active: &mut Active) -> Vec<Stmt> {
        match self.rng.below(10) {
            // Affine loop nest (the parallelizable workhorse).
            0..=3 => vec![self.loop_nest(active, 1, false)],
            // Downward loop (rotated + reversed control flow).
            4 => vec![self.loop_nest(active, 1, true)],
            // Accumulator reduction into a scalar, then a store.
            5..=6 => self.reduction(active),
            // While-counter loop.
            7 => vec![self.while_loop(active)],
            // Loop-carried dependence: must stay sequential.
            8 => vec![self.prefix_dependence()],
            // Straight-line stores at constant subscripts.
            _ => self.plain_stores(active),
        }
    }

    /// A (possibly nested) counted loop over in-bounds ranges.
    fn loop_nest(&mut self, active: &mut Active, depth: usize, down: bool) -> Stmt {
        let var = self.fresh_loop_var();
        let lo = if self.rng.chance(1, 4) { 1 } else { 0 };
        let hi = self.rng.range_i64(lo + 2, self.min_dim as i64);
        active.push((var.clone(), lo, hi));
        let mut body = Vec::new();
        let nest_deeper = depth < self.cfg.max_depth && self.rng.chance(2, 3);
        if nest_deeper {
            body.push(self.loop_nest(active, depth + 1, false));
            // Sometimes a statement after the inner loop (imperfect nest).
            if self.rng.chance(1, 3) {
                body.push(self.store(active));
            }
        } else {
            let stmts = self.rng.range_i64(1, 3);
            for _ in 0..stmts {
                body.push(self.body_stmt(active));
            }
        }
        active.pop();
        Stmt::For {
            var,
            lo,
            hi,
            down,
            body,
        }
    }

    /// One statement inside a loop body: a store, a guarded store, or a
    /// local temporary feeding a store.
    fn body_stmt(&mut self, active: &mut Active) -> Stmt {
        match self.rng.below(6) {
            0 => self.guarded(active),
            1 => {
                // A block-scoped temporary feeding a store, wrapped in an
                // always-true guard so the declaration's scope is a block.
                let name = self.fresh_scalar();
                let init = self.expr(active, 2, 1.0);
                let array = self.pick_array();
                let idx = self.in_bounds_idx(array, active);
                // `s + c` or `s * damp`: either keeps the coefficient of
                // the temporary at most 1, so the store cannot compound.
                let rhs = if self.rng.chance(1, 2) {
                    Expr::Bin {
                        op: BinOp::Add,
                        lhs: Box::new(Expr::Var(name.clone())),
                        rhs: Box::new(Expr::Const(*self.rng.pick(FLOATS))),
                    }
                } else {
                    Expr::Bin {
                        op: BinOp::Mul,
                        lhs: Box::new(Expr::Var(name.clone())),
                        rhs: Box::new(Expr::Const(*self.rng.pick(DAMPS))),
                    }
                };
                Stmt::If {
                    cond: Cond::Lt {
                        var: active
                            .last()
                            .map(|(v, ..)| v.clone())
                            .unwrap_or_else(|| "0".into()),
                        bound: self.min_dim as i64 + 1,
                    },
                    then_body: vec![
                        Stmt::DeclScalar { name, init },
                        Stmt::Store {
                            array,
                            idx,
                            accumulate: false,
                            rhs,
                        },
                    ],
                    else_body: Vec::new(),
                }
            }
            _ => self.store(active),
        }
    }

    /// `if (guard) { store } [else { store }]` on the innermost variable.
    fn guarded(&mut self, active: &mut Active) -> Stmt {
        let var = active
            .last()
            .map(|(v, ..)| v.clone())
            .unwrap_or_else(|| "0".into());
        let cond = if self.rng.chance(1, 2) {
            Cond::ModEq {
                var,
                modulus: self.rng.range_i64(2, 4),
            }
        } else {
            let hi = active.last().map(|&(_, _, h)| h).unwrap_or(2);
            Cond::Lt {
                var,
                bound: self.rng.range_i64(1, hi),
            }
        };
        let then_body = vec![self.store(active)];
        let else_body = if self.rng.chance(1, 2) {
            vec![self.store(active)]
        } else {
            Vec::new()
        };
        Stmt::If {
            cond,
            then_body,
            else_body,
        }
    }

    /// Scalar reduction: declare, accumulate over a loop, store the total.
    fn reduction(&mut self, active: &mut Active) -> Vec<Stmt> {
        let name = self.fresh_scalar();
        let decl = Stmt::DeclScalar {
            name: name.clone(),
            init: Expr::Const(0.0),
        };
        let var = self.fresh_loop_var();
        let hi = self.rng.range_i64(2, self.min_dim as i64);
        active.push((var.clone(), 0, hi));
        // The accumulation body must not read the accumulator itself
        // (that would compound geometrically), so `name` is deliberately
        // not visible to the expression generator.
        let body = vec![Stmt::AssignScalar {
            name: name.clone(),
            accumulate: true,
            rhs: self.expr(active, 2, 1.0),
        }];
        active.pop();
        let loop_stmt = Stmt::For {
            var,
            lo: 0,
            hi,
            down: false,
            body,
        };
        let array = self.pick_array();
        let sink = Stmt::Store {
            array,
            idx: self.const_idx(array),
            accumulate: self.rng.chance(1, 2),
            rhs: Expr::Var(name),
        };
        vec![decl, loop_stmt, sink]
    }

    /// `w = 0; while (w < bound) { stores; w++ }`.
    fn while_loop(&mut self, active: &mut Active) -> Stmt {
        let var = self.fresh_while_var();
        let bound = self.rng.range_i64(2, self.min_dim as i64);
        active.push((var.clone(), 0, bound));
        let stmts = self.rng.range_i64(1, 2);
        let body: Vec<Stmt> = (0..stmts).map(|_| self.store(active)).collect();
        active.pop();
        Stmt::While { var, bound, body }
    }

    /// `for (v = 1; v < hi; v++) A[v] = A[v-1] op e;` — a true loop-carried
    /// dependence the parallelizer must leave sequential. On a 2-D array
    /// the recurrence runs along the last dimension of a fixed row.
    fn prefix_dependence(&mut self) -> Stmt {
        let array = self.pick_1d_array();
        let dims = self.arrays[array].dims.clone();
        let var = self.fresh_loop_var();
        let last = *dims.last().expect("arrays have at least one dim");
        let hi = self.rng.range_i64(3, last as i64);
        let lead: Vec<Index> = dims[..dims.len() - 1]
            .iter()
            .map(|&d| Index::Const(self.rng.range_i64(0, d as i64 - 1)))
            .collect();
        let mut store_idx = lead.clone();
        store_idx.push(Index::Var {
            var: var.clone(),
            offset: 0,
        });
        let mut read_idx = lead;
        read_idx.push(Index::Var {
            var: var.clone(),
            offset: -1,
        });
        let op = *self.rng.pick(&[BinOp::Add, BinOp::Mul]);
        let body = vec![Stmt::Store {
            array,
            idx: store_idx,
            accumulate: false,
            rhs: Expr::Bin {
                op,
                lhs: Box::new(Expr::Read {
                    array,
                    idx: read_idx,
                }),
                rhs: Box::new(Expr::Const(*self.rng.pick(&[0.5, 0.25, 1.5]))),
            },
        }];
        Stmt::For {
            var,
            lo: 1,
            hi,
            down: false,
            body,
        }
    }

    /// A couple of stores at constant subscripts.
    fn plain_stores(&mut self, active: &mut Active) -> Vec<Stmt> {
        let n = self.rng.range_i64(1, 2);
        (0..n)
            .map(|_| {
                let array = self.pick_array();
                Stmt::Store {
                    array,
                    idx: self.const_idx(array),
                    accumulate: false,
                    rhs: self.expr(active, 2, 1.0),
                }
            })
            .collect()
    }

    /// A store with in-bounds subscripts derived from the active loops.
    /// Accumulating stores get a value-free right-hand side: `+=` adds an
    /// implicit coefficient of 1 on the destination, so any read in the
    /// rhs would push the total past 1 and compound across trips.
    fn store(&mut self, active: &mut Active) -> Stmt {
        let array = self.pick_array();
        let idx = self.in_bounds_idx(array, active);
        let accumulate = self.rng.chance(1, 4);
        let weight = if accumulate { 0.0 } else { 1.0 };
        Stmt::Store {
            array,
            idx,
            accumulate,
            rhs: self.expr(active, 3, weight),
        }
    }

    fn pick_array(&mut self) -> usize {
        self.rng.below(self.arrays.len() as u64) as usize
    }

    /// Prefer a 1-D array; when every array is 2-D the caller must pin the
    /// leading subscripts itself.
    fn pick_1d_array(&mut self) -> usize {
        let one_d: Vec<usize> = (0..self.arrays.len())
            .filter(|&a| self.arrays[a].dims.len() == 1)
            .collect();
        if one_d.is_empty() {
            0
        } else {
            *self.rng.pick(&one_d)
        }
    }

    /// Constant, in-bounds subscripts for `array`.
    fn const_idx(&mut self, array: usize) -> Vec<Index> {
        let dims = self.arrays[array].dims.clone();
        dims.iter()
            .map(|&d| Index::Const(self.rng.range_i64(0, d as i64 - 1)))
            .collect()
    }

    /// In-bounds subscripts for `array` using active loop variables where
    /// possible (affine `var + offset` forms), constants otherwise.
    fn in_bounds_idx(&mut self, array: usize, active: &Active) -> Vec<Index> {
        let dims = self.arrays[array].dims.clone();
        let mut used: Vec<usize> = Vec::new();
        dims.iter()
            .enumerate()
            .map(|(pos, &d)| {
                // Prefer a distinct loop var per dimension; innermost last.
                let candidate = active
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(ai, _)| !used.contains(ai));
                match candidate {
                    Some((ai, (var, lo, hi))) if *hi <= d as i64 => {
                        used.push(ai);
                        let min_off = -*lo;
                        let max_off = d as i64 - *hi;
                        let off = self
                            .rng
                            .range_i64(min_off.max(-2), max_off.min(2).max(min_off.max(-2)));
                        let _ = pos;
                        Index::Var {
                            var: var.clone(),
                            offset: off,
                        }
                    }
                    _ => Index::Const(self.rng.range_i64(0, d as i64 - 1)),
                }
            })
            .collect()
    }

    /// A double-valued expression; `depth` bounds recursion, `weight` is
    /// the remaining coefficient budget over array reads. Every returned
    /// expression's value is bounded by `weight * V + K` where `V` is the
    /// current maximum array magnitude and `K` a small constant, so a
    /// caller that keeps `weight <= 1` cannot build a compounding store.
    fn expr(&mut self, active: &Active, depth: usize, weight: f64) -> Expr {
        if depth == 0 {
            return self.leaf(active, weight);
        }
        match self.rng.below(8) {
            0..=2 => {
                let op = match self.rng.below(8) {
                    0..=3 => BinOp::Add,
                    4..=5 => BinOp::Mul,
                    6 => BinOp::Sub,
                    _ => BinOp::Div,
                };
                match op {
                    // Addition splits the budget across the operands.
                    BinOp::Add | BinOp::Sub => Expr::Bin {
                        op,
                        lhs: Box::new(self.expr(active, depth - 1, weight * 0.5)),
                        rhs: Box::new(self.expr(active, depth - 1, weight * 0.5)),
                    },
                    // Multiplication always has a constant operand; the
                    // value operand's budget scales inversely with it.
                    BinOp::Mul => {
                        let c = *self.rng.pick(FLOATS);
                        Expr::Bin {
                            op,
                            lhs: Box::new(self.expr(active, depth - 1, (weight / c).min(1.0))),
                            rhs: Box::new(Expr::Const(c)),
                        }
                    }
                    // Nonzero constant divisor only; dividing buys budget.
                    BinOp::Div => {
                        let c = *self.rng.pick(&[2.0, 4.0, 8.0, 1.5]);
                        Expr::Bin {
                            op,
                            lhs: Box::new(self.expr(active, depth - 1, (weight * c).min(1.0))),
                            rhs: Box::new(Expr::Const(c)),
                        }
                    }
                }
            }
            3 if !self.helpers.is_empty() => {
                let helper = self.rng.below(self.helpers.len() as u64) as usize;
                let arity = self.helpers[helper].params.len();
                let arg_weight = (weight / self.helper_gains[helper]).min(1.0);
                let args = (0..arity)
                    .map(|_| self.expr(active, depth - 1, arg_weight))
                    .collect();
                Expr::Call { helper, args }
            }
            _ => self.leaf(active, weight),
        }
    }

    fn leaf(&mut self, active: &Active, weight: f64) -> Expr {
        match self.rng.below(6) {
            0 => Expr::Const(*self.rng.pick(FLOATS)),
            1 if !active.is_empty() => {
                let (var, ..) = self.rng.pick(active).clone();
                Expr::IntVar(var)
            }
            2 if !active.is_empty() => {
                let (var, ..) = self.rng.pick(active).clone();
                Expr::IntAffine {
                    var,
                    scale: self.rng.range_i64(1, 3),
                    bias: self.rng.range_i64(-2, 2),
                }
            }
            _ => {
                // A read costs coefficient 1; damp it when the budget is
                // tighter, and degrade to a constant when even the
                // smallest damping factor does not fit.
                let damp = DAMPS.iter().rev().find(|&&d| d <= weight).copied();
                if weight >= 1.0 {
                    let array = self.pick_array();
                    let idx = self.in_bounds_idx(array, active);
                    Expr::Read { array, idx }
                } else if let Some(d) = damp {
                    let array = self.pick_array();
                    let idx = self.in_bounds_idx(array, active);
                    Expr::Bin {
                        op: BinOp::Mul,
                        lhs: Box::new(Expr::Read { array, idx }),
                        rhs: Box::new(Expr::Const(d)),
                    }
                } else {
                    Expr::Const(*self.rng.pick(FLOATS))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for case in 0..20 {
            let a = generate(0xDEAD_BEEF, case, &cfg);
            let b = generate(0xDEAD_BEEF, case, &cfg);
            assert_eq!(a, b, "case {case} not deterministic");
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn different_cases_differ() {
        let cfg = GenConfig::default();
        let a = generate(1, 0, &cfg).render();
        let b = generate(1, 1, &cfg).render();
        assert_ne!(a, b);
    }

    #[test]
    fn every_generated_program_parses() {
        let cfg = GenConfig::default();
        for case in 0..200 {
            let p = generate(0x5EED, case, &cfg);
            let src = p.render();
            splendid_cfront::parse_program(&src)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        }
    }

    #[test]
    fn grammar_reaches_all_constructs() {
        let cfg = GenConfig::default();
        let mut saw = [false; 6]; // nest≥2, down, while, if, call, 2-D
        for case in 0..300 {
            let src = generate(7, case, &cfg).render();
            let nested = src
                .lines()
                .any(|l| l.starts_with("      for") || l.starts_with("      while"));
            saw[0] |= nested;
            saw[1] |= src.contains("--) {");
            saw[2] |= src.contains("while (");
            saw[3] |= src.contains("if (");
            saw[4] |= src.contains("f0(");
            saw[5] |= src.contains("][");
            if saw.iter().all(|&s| s) {
                return;
            }
        }
        panic!("constructs not all reachable in 300 cases: {saw:?}");
    }
}
