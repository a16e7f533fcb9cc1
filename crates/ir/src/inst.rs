//! Instructions and opcodes.

use crate::{BlockId, FuncId, MemType, Symbol, Type, Value, VarId};

/// Integer and floating-point binary opcodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Signed integer division.
    SDiv,
    /// Signed integer remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Arithmetic shift right.
    AShr,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
}

impl BinOp {
    /// Mnemonic used by the textual format.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }

    /// Parse a mnemonic produced by [`BinOp::name`].
    pub fn from_name(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "sdiv" => BinOp::SDiv,
            "srem" => BinOp::SRem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "ashr" => BinOp::AShr,
            "fadd" => BinOp::FAdd,
            "fsub" => BinOp::FSub,
            "fmul" => BinOp::FMul,
            "fdiv" => BinOp::FDiv,
            _ => return None,
        })
    }

    /// Whether the opcode operates on floats.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Whether the opcode is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }
}

/// Signed integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
}

impl IPred {
    /// Mnemonic used by the textual format.
    pub fn name(self) -> &'static str {
        match self {
            IPred::Eq => "eq",
            IPred::Ne => "ne",
            IPred::Slt => "slt",
            IPred::Sle => "sle",
            IPred::Sgt => "sgt",
            IPred::Sge => "sge",
        }
    }

    /// Parse a mnemonic produced by [`IPred::name`].
    pub fn from_name(s: &str) -> Option<IPred> {
        Some(match s {
            "eq" => IPred::Eq,
            "ne" => IPred::Ne,
            "slt" => IPred::Slt,
            "sle" => IPred::Sle,
            "sgt" => IPred::Sgt,
            "sge" => IPred::Sge,
            _ => return None,
        })
    }

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> IPred {
        match self {
            IPred::Eq => IPred::Eq,
            IPred::Ne => IPred::Ne,
            IPred::Slt => IPred::Sgt,
            IPred::Sle => IPred::Sge,
            IPred::Sgt => IPred::Slt,
            IPred::Sge => IPred::Sle,
        }
    }

    /// Logical negation of the predicate (`!(a < b)` ⇔ `a >= b`).
    pub fn negated(self) -> IPred {
        match self {
            IPred::Eq => IPred::Ne,
            IPred::Ne => IPred::Eq,
            IPred::Slt => IPred::Sge,
            IPred::Sle => IPred::Sgt,
            IPred::Sgt => IPred::Sle,
            IPred::Sge => IPred::Slt,
        }
    }
}

/// Floating-point comparison predicates (ordered forms only).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FPred {
    /// Ordered equal.
    Oeq,
    /// Ordered not equal.
    One,
    /// Ordered less than.
    Olt,
    /// Ordered less or equal.
    Ole,
    /// Ordered greater than.
    Ogt,
    /// Ordered greater or equal.
    Oge,
}

impl FPred {
    /// Mnemonic used by the textual format.
    pub fn name(self) -> &'static str {
        match self {
            FPred::Oeq => "oeq",
            FPred::One => "one",
            FPred::Olt => "olt",
            FPred::Ole => "ole",
            FPred::Ogt => "ogt",
            FPred::Oge => "oge",
        }
    }

    /// Parse a mnemonic produced by [`FPred::name`].
    pub fn from_name(s: &str) -> Option<FPred> {
        Some(match s {
            "oeq" => FPred::Oeq,
            "one" => FPred::One,
            "olt" => FPred::Olt,
            "ole" => FPred::Ole,
            "ogt" => FPred::Ogt,
            "oge" => FPred::Oge,
            _ => return None,
        })
    }
}

/// Conversion opcodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastOp {
    /// Sign-extend an integer to a wider integer type.
    Sext,
    /// Zero-extend an integer to a wider integer type.
    Zext,
    /// Truncate an integer to a narrower integer type.
    Trunc,
    /// Signed integer to float.
    SiToFp,
    /// Float to signed integer (truncating).
    FpToSi,
    /// Reinterpret between pointer-sized values.
    Bitcast,
}

impl CastOp {
    /// Mnemonic used by the textual format.
    pub fn name(self) -> &'static str {
        match self {
            CastOp::Sext => "sext",
            CastOp::Zext => "zext",
            CastOp::Trunc => "trunc",
            CastOp::SiToFp => "sitofp",
            CastOp::FpToSi => "fptosi",
            CastOp::Bitcast => "bitcast",
        }
    }

    /// Parse a mnemonic produced by [`CastOp::name`].
    pub fn from_name(s: &str) -> Option<CastOp> {
        Some(match s {
            "sext" => CastOp::Sext,
            "zext" => CastOp::Zext,
            "trunc" => CastOp::Trunc,
            "sitofp" => CastOp::SiToFp,
            "fptosi" => CastOp::FpToSi,
            "bitcast" => CastOp::Bitcast,
            _ => return None,
        })
    }
}

/// Horizontal reduction operators for [`InstKind::Reduce`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReduceOp {
    /// Sum of lanes (wrapping for integers, IEEE for floats).
    Add,
    /// Minimum of lanes (`if lane < acc { lane } else { acc }` semantics,
    /// matching the scalar compare+select idiom the vectorizer recognizes).
    Min,
    /// Maximum of lanes (`if lane > acc { lane } else { acc }` semantics).
    Max,
}

impl ReduceOp {
    /// Mnemonic used by the textual format.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Add => "add",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }

    /// Parse a mnemonic produced by [`ReduceOp::name`].
    pub fn from_name(s: &str) -> Option<ReduceOp> {
        Some(match s {
            "add" => ReduceOp::Add,
            "min" => ReduceOp::Min,
            "max" => ReduceOp::Max,
            _ => return None,
        })
    }

    /// The C-level `reduction(...)` clause operator for this reduction.
    pub fn clause_name(self) -> &'static str {
        match self {
            ReduceOp::Add => "+",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }
}

/// Callee of a [`InstKind::Call`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Callee {
    /// Direct call to a function in the same module.
    Func(FuncId),
    /// External symbol (libm math functions, OpenMP runtime entry points
    /// such as `__kmpc_fork_call` and `GOMP_parallel`, `malloc`, ...),
    /// interned in the owning module's symbol table.
    External(Symbol),
}

impl Callee {
    /// External symbol, if this is an external callee. Resolve through the
    /// owning module's symbol table.
    pub fn external_name(&self) -> Option<Symbol> {
        match self {
            Callee::External(s) => Some(*s),
            Callee::Func(_) => None,
        }
    }
}

/// Instruction payload.
#[derive(Clone, PartialEq, Debug)]
pub enum InstKind {
    /// Binary arithmetic / bitwise operation.
    Bin {
        /// Opcode.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Signed integer (or pointer) comparison producing `i1`.
    ICmp {
        /// Predicate.
        pred: IPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Ordered float comparison producing `i1`.
    FCmp {
        /// Predicate.
        pred: FPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Stack allocation of a memory object; result is `ptr`.
    Alloca {
        /// Shape of the allocated object.
        mem: MemType,
    },
    /// Load a scalar from a pointer; result type is the instruction type.
    Load {
        /// Address operand.
        ptr: Value,
    },
    /// Store a scalar to a pointer.
    Store {
        /// Value to store.
        val: Value,
        /// Address operand.
        ptr: Value,
    },
    /// Address arithmetic through a memory shape, LLVM `getelementptr`.
    Gep {
        /// Shape indexed through (strides derive from this).
        elem: MemType,
        /// Base pointer.
        base: Value,
        /// Indices, one per stride of [`MemType::gep_strides`]; may be
        /// fewer, in which case trailing strides are unused.
        indices: Vec<Value>,
    },
    /// Function call; result type is the instruction type (`Void` if none).
    Call {
        /// Callee.
        callee: Callee,
        /// Argument values.
        args: Vec<Value>,
    },
    /// SSA phi node.
    Phi {
        /// `(predecessor block, incoming value)` pairs.
        incomings: Vec<(BlockId, Value)>,
    },
    /// Type conversion.
    Cast {
        /// Conversion opcode.
        op: CastOp,
        /// Operand; the destination type is the instruction type.
        val: Value,
    },
    /// Ternary select `cond ? t : f`.
    Select {
        /// `i1` condition.
        cond: Value,
        /// Value if true.
        then_val: Value,
        /// Value if false.
        else_val: Value,
    },
    /// Broadcast a scalar into every lane of a vector; the instruction type
    /// is the vector type.
    Splat {
        /// Scalar value to broadcast; its type must be the lane type.
        val: Value,
    },
    /// Read one lane of a vector; the instruction type is the lane type.
    /// The lane index is an immediate, not a value operand.
    ExtractLane {
        /// Vector operand.
        vec: Value,
        /// Immediate lane index, `< lanes`.
        lane: u8,
    },
    /// Replace one lane of a vector; the instruction type is the vector
    /// type. The lane index is an immediate, not a value operand.
    InsertLane {
        /// Vector operand providing the other lanes.
        vec: Value,
        /// Scalar value written into the lane; must be the lane type.
        val: Value,
        /// Immediate lane index, `< lanes`.
        lane: u8,
    },
    /// Ordered horizontal reduction folding an accumulator across the lanes
    /// of a vector, lane 0 first: `acc ⊕ l0 ⊕ l1 ⊕ ...` evaluated left to
    /// right. The instruction type is the scalar lane type. The explicit
    /// accumulator makes in-loop reductions bit-exact against the scalar
    /// loop (no reassociation), which is what lets difftest compare
    /// vectorized and scalar runs for equality.
    Reduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Scalar accumulator (start value); must be the lane type.
        acc: Value,
        /// Vector operand.
        vec: Value,
    },
    /// Unconditional branch (terminator).
    Br {
        /// Destination block.
        target: BlockId,
    },
    /// Conditional branch (terminator).
    CondBr {
        /// `i1` condition.
        cond: Value,
        /// Destination when true.
        then_bb: BlockId,
        /// Destination when false.
        else_bb: BlockId,
    },
    /// Function return (terminator).
    Ret {
        /// Returned value, or `None` for `ret void`.
        val: Option<Value>,
    },
    /// Unreachable terminator.
    Unreachable,
    /// `llvm.dbg.value`-style debug intrinsic relating `val` to source
    /// variable `var` from this point on.
    DbgValue {
        /// SSA value carrying the variable's content.
        val: Value,
        /// Source variable being described.
        var: VarId,
    },
    /// Deleted instruction; never appears in a block's instruction list of
    /// a verified function.
    Nop,
}

impl InstKind {
    /// Whether this is a block terminator.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Br { .. }
                | InstKind::CondBr { .. }
                | InstKind::Ret { .. }
                | InstKind::Unreachable
        )
    }

    /// Whether the instruction may read or write memory or have other side
    /// effects (calls conservatively do).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            InstKind::Store { .. }
                | InstKind::Call { .. }
                | InstKind::Br { .. }
                | InstKind::CondBr { .. }
                | InstKind::Ret { .. }
                | InstKind::Unreachable
                | InstKind::DbgValue { .. }
        )
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            InstKind::Br { target } => vec![*target],
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => {
                vec![*then_bb, *else_bb]
            }
            _ => Vec::new(),
        }
    }

    /// Visit every value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Alloca { .. } | InstKind::Nop | InstKind::Unreachable => {}
            InstKind::Load { ptr } => f(*ptr),
            InstKind::Store { val, ptr } => {
                f(*val);
                f(*ptr);
            }
            InstKind::Gep { base, indices, .. } => {
                f(*base);
                for i in indices {
                    f(*i);
                }
            }
            InstKind::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    f(*v);
                }
            }
            InstKind::Cast { val, .. } => f(*val),
            InstKind::Splat { val } => f(*val),
            InstKind::ExtractLane { vec, .. } => f(*vec),
            InstKind::InsertLane { vec, val, .. } => {
                f(*vec);
                f(*val);
            }
            InstKind::Reduce { acc, vec, .. } => {
                f(*acc);
                f(*vec);
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                f(*cond);
                f(*then_val);
                f(*else_val);
            }
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => f(*cond),
            InstKind::Ret { val } => {
                if let Some(v) = val {
                    f(*v);
                }
            }
            InstKind::DbgValue { val, .. } => f(*val),
        }
    }

    /// Visit every value operand mutably (used for use-replacement).
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Alloca { .. } | InstKind::Nop | InstKind::Unreachable => {}
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { val, ptr } => {
                f(val);
                f(ptr);
            }
            InstKind::Gep { base, indices, .. } => {
                f(base);
                for i in indices {
                    f(i);
                }
            }
            InstKind::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    f(v);
                }
            }
            InstKind::Cast { val, .. } => f(val),
            InstKind::Splat { val } => f(val),
            InstKind::ExtractLane { vec, .. } => f(vec),
            InstKind::InsertLane { vec, val, .. } => {
                f(vec);
                f(val);
            }
            InstKind::Reduce { acc, vec, .. } => {
                f(acc);
                f(vec);
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                f(cond);
                f(then_val);
                f(else_val);
            }
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => f(cond),
            InstKind::Ret { val } => {
                if let Some(v) = val {
                    f(v);
                }
            }
            InstKind::DbgValue { val, .. } => f(val),
        }
    }
}

/// An instruction: payload, result type, optional register-name hint, and an
/// optional source line for debug locations.
#[derive(Clone, PartialEq, Debug)]
pub struct Inst {
    /// Payload.
    pub kind: InstKind,
    /// Result type; `Void` for instructions without a result.
    pub ty: Type,
    /// Optional register-name hint carried from the source or synthesized
    /// by passes (e.g. `indvar`, `iv.next`). Purely cosmetic; interned.
    pub name: Option<Symbol>,
    /// Source line this instruction originates from, when known.
    pub dbg_line: Option<u32>,
}

impl Inst {
    /// New instruction with no name hint or debug location.
    pub fn new(kind: InstKind, ty: Type) -> Inst {
        Inst {
            kind,
            ty,
            name: None,
            dbg_line: None,
        }
    }

    /// New instruction with an interned register-name hint.
    pub fn named(kind: InstKind, ty: Type, name: Symbol) -> Inst {
        Inst {
            kind,
            ty,
            name: Some(name),
            dbg_line: None,
        }
    }

    /// Whether this instruction produces a result value.
    pub fn has_result(&self) -> bool {
        self.ty != Type::Void
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_name_round_trip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::SDiv,
            BinOp::SRem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::AShr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
        ] {
            assert_eq!(BinOp::from_name(op.name()), Some(op));
        }
    }

    #[test]
    fn ipred_round_trip_and_algebra() {
        for p in [
            IPred::Eq,
            IPred::Ne,
            IPred::Slt,
            IPred::Sle,
            IPred::Sgt,
            IPred::Sge,
        ] {
            assert_eq!(IPred::from_name(p.name()), Some(p));
            assert_eq!(p.swapped().swapped(), p);
            assert_eq!(p.negated().negated(), p);
        }
        assert_eq!(IPred::Slt.swapped(), IPred::Sgt);
        assert_eq!(IPred::Slt.negated(), IPred::Sge);
    }

    #[test]
    fn fpred_cast_round_trip() {
        for p in [
            FPred::Oeq,
            FPred::One,
            FPred::Olt,
            FPred::Ole,
            FPred::Ogt,
            FPred::Oge,
        ] {
            assert_eq!(FPred::from_name(p.name()), Some(p));
        }
        for c in [
            CastOp::Sext,
            CastOp::Zext,
            CastOp::Trunc,
            CastOp::SiToFp,
            CastOp::FpToSi,
            CastOp::Bitcast,
        ] {
            assert_eq!(CastOp::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn terminators_and_successors() {
        let br = InstKind::Br { target: BlockId(2) };
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(2)]);
        let cb = InstKind::CondBr {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(3),
        };
        assert_eq!(cb.successors(), vec![BlockId(1), BlockId(3)]);
        assert!(InstKind::Ret { val: None }.is_terminator());
        assert!(InstKind::Unreachable.is_terminator());
        assert!(!InstKind::Load { ptr: Value::Arg(0) }.is_terminator());
    }

    #[test]
    fn operand_iteration() {
        let k = InstKind::Select {
            cond: Value::Arg(0),
            then_val: Value::i64(1),
            else_val: Value::i64(2),
        };
        let mut seen = Vec::new();
        k.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::Arg(0), Value::i64(1), Value::i64(2)]);
    }

    #[test]
    fn operand_mutation() {
        let mut k = InstKind::Bin {
            op: BinOp::Add,
            lhs: Value::Arg(0),
            rhs: Value::Arg(0),
        };
        k.for_each_operand_mut(|v| {
            if *v == Value::Arg(0) {
                *v = Value::i64(7);
            }
        });
        let mut seen = Vec::new();
        k.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::i64(7), Value::i64(7)]);
    }

    #[test]
    fn side_effects() {
        assert!(InstKind::Store {
            val: Value::i64(0),
            ptr: Value::Arg(0)
        }
        .has_side_effects());
        assert!(InstKind::Call {
            callee: Callee::External(Symbol(0)),
            args: vec![]
        }
        .has_side_effects());
        assert!(!InstKind::Bin {
            op: BinOp::Add,
            lhs: Value::i64(0),
            rhs: Value::i64(1)
        }
        .has_side_effects());
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::SDiv.is_commutative());
        assert!(BinOp::FMul.is_commutative());
    }
}
