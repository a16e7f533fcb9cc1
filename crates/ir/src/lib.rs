//! A typed SSA intermediate representation modeled on LLVM-IR.
//!
//! This crate is the foundation of the SPLENDID (ASPLOS'23) reproduction. It
//! provides the subset of LLVM-IR that the paper's decompiler consumes and
//! that the compiler substrate (optimizer, parallelizer, C frontend) produces:
//!
//! * scalar types (`i1`..`i64`, `f64`, opaque pointers) and array memory
//!   types for allocas and globals ([`Type`], [`MemType`]);
//! * SSA instructions including `phi`, `getelementptr`, `alloca`/`load`/
//!   `store`, integer and float arithmetic and comparisons, calls (direct,
//!   external, and indirect-through-constant used by the OpenMP runtime fork
//!   call), and block terminators ([`InstKind`]);
//! * debug metadata in the style of `llvm.dbg.value`: an [`InstKind::DbgValue`]
//!   pseudo-instruction relating an SSA value to a source-level variable
//!   ([`DiVariable`]), which SPLENDID's variable-renaming algorithms
//!   (Algorithms 1 and 2 in the paper) consume;
//! * a [`builder::FuncBuilder`] for convenient construction, a textual
//!   [`printer`] and [`parser`] with round-trip guarantees, and a
//!   [`verify`] module enforcing SSA dominance and type rules;
//! * [`eval`], the one definition of what each binary operator, comparison
//!   and cast computes, shared by the interpreter and the constant folder.
//!
//! All identifiers (function, block, parameter, global, and value names)
//! are interned into a per-module [`SymbolTable`] and carried as 4-byte
//! [`Symbol`] handles, keeping the IR allocation-free on the hot paths.
//!
//! # Example
//!
//! ```
//! use splendid_ir::{Module, Type, builder::FuncBuilder, BinOp};
//!
//! let mut module = Module::new("demo");
//! let mut b = FuncBuilder::new(&mut module, "add1", &[("x", Type::I64)], Type::I64);
//! let x = b.arg(0);
//! let one = b.const_i64(1);
//! let sum = b.bin(BinOp::Add, Type::I64, x, one, "sum");
//! b.ret(Some(sum));
//! b.finish();
//! splendid_ir::verify::verify_module(&module).unwrap();
//! ```

pub mod builder;
pub mod eval;
pub mod hash;
pub mod inst;
pub mod intern;
pub mod module;
pub mod parser;
pub mod printer;
pub mod rng;
pub mod span;
pub mod types;
pub mod value;
pub mod verify;

pub use inst::{BinOp, Callee, CastOp, FPred, IPred, Inst, InstKind, ReduceOp};
pub use intern::{Symbol, SymbolTable};
pub use module::{Block, DiVariable, Function, Global, GlobalInit, Module, Param};
pub use span::{scan_spans, scan_spans_into, ByteSpan, FuncSpan, ModuleSpans};
pub use types::{MemType, Type, VecElem, VecTy};
pub use value::Value;

/// Identifier of a function within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FuncId(pub u32);

/// Identifier of a basic block within a [`Function`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub u32);

/// Identifier of an instruction within a [`Function`]'s instruction arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct InstId(pub u32);

/// Identifier of a global variable within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GlobalId(pub u32);

/// Identifier of a debug-info source variable within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl FuncId {
    /// Index into the module function arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BlockId {
    /// Index into the function block arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl InstId {
    /// Index into the function instruction arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl GlobalId {
    /// Index into the module global arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl VarId {
    /// Index into the module debug-variable arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fn{}", self.0)
    }
}
impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}
impl std::fmt::Display for InstId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}
