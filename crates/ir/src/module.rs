//! Modules, functions, basic blocks, globals, and debug variables.
//!
//! All identifiers are interned into the owning module's [`SymbolTable`]
//! and carried as [`Symbol`] handles; resolve them through
//! [`Module::name_of`]. Instructions and blocks live in typed arenas and
//! reference each other by index handles, so the whole IR is a handful of
//! flat vectors with no per-node heap strings.

use crate::{
    BlockId, FuncId, Inst, InstId, InstKind, MemType, Symbol, SymbolTable, Type, Value, VarId,
};
use std::collections::HashMap;

/// A function parameter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Param {
    /// Source-level name of the parameter (interned).
    pub name: Symbol,
    /// Scalar type of the parameter.
    pub ty: Type,
}

/// A basic block: a label plus an ordered list of instructions ending in a
/// terminator.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    /// Label, unique within the function (interned).
    pub name: Symbol,
    /// Instruction ids in execution order. The last one is the terminator
    /// in a verified function.
    pub insts: Vec<InstId>,
}

/// A function: parameters, return type, and arenas of blocks and
/// instructions.
///
/// Instructions live in a per-function arena ([`Function::insts`]) and blocks
/// reference them by id, so passes can splice, delete (via
/// [`InstKind::Nop`]), and move instructions without invalidating ids.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Symbol name (interned in the owning module).
    pub name: Symbol,
    /// Parameters.
    pub params: Vec<Param>,
    /// Return type.
    pub ret_ty: Type,
    /// Block arena, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Instruction arena, indexed by [`InstId`].
    pub insts: Vec<Inst>,
    /// Entry block.
    pub entry: BlockId,
    /// Whether this function is an outlined OpenMP parallel region (set by
    /// the parallelizer; consumed by the decompiler and interpreter).
    pub is_outlined: bool,
}

impl Function {
    /// Create an empty function with a fresh entry block named `"entry"`,
    /// interning the name and parameter names into `symbols`.
    pub fn new(
        symbols: &mut SymbolTable,
        name: &str,
        params: &[(&str, Type)],
        ret_ty: Type,
    ) -> Function {
        let params = params
            .iter()
            .map(|(n, t)| Param {
                name: symbols.intern(n),
                ty: *t,
            })
            .collect();
        Function {
            name: symbols.intern(name),
            params,
            ret_ty,
            blocks: vec![Block {
                name: symbols.intern("entry"),
                insts: Vec::new(),
            }],
            insts: Vec::new(),
            entry: BlockId(0),
            is_outlined: false,
        }
    }

    /// Immutable access to an instruction.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Allocate a new empty block with the given (already interned) label.
    pub fn add_block(&mut self, name: Symbol) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            name,
            insts: Vec::new(),
        });
        id
    }

    /// Allocate an instruction in the arena without placing it in a block.
    pub fn add_inst(&mut self, inst: Inst) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        id
    }

    /// Allocate an instruction and append it to `block`.
    pub fn append_inst(&mut self, block: BlockId, inst: Inst) -> InstId {
        let id = self.add_inst(inst);
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// All block ids in arena order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// The terminator instruction of a block, if the block is non-empty and
    /// ends in one.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = *self.block(block).insts.last()?;
        self.inst(last).kind.is_terminator().then_some(last)
    }

    /// Successor blocks of `block` (empty if it lacks a branch terminator).
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block) {
            Some(t) => self.inst(t).kind.successors(),
            None => Vec::new(),
        }
    }

    /// Compute predecessors for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.successors(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Scalar type of a value in the context of this function.
    pub fn value_type(&self, v: Value) -> Type {
        match v {
            Value::Inst(id) => self.inst(id).ty,
            Value::Arg(i) => self.params[i as usize].ty,
            Value::ConstInt { ty, .. } => ty,
            Value::ConstF64(_) => Type::F64,
            Value::Global(_) | Value::Function(_) => Type::Ptr,
            Value::Undef(ty) => ty,
        }
    }

    /// Replace every use of `from` with `to` across all instructions.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        for inst in &mut self.insts {
            inst.kind.for_each_operand_mut(|v| {
                if *v == from {
                    *v = to;
                }
            });
        }
    }

    /// Delete an instruction: mark it [`InstKind::Nop`] and remove it from
    /// whichever block holds it. Uses of its result become invalid; callers
    /// must have rewritten them first.
    pub fn delete_inst(&mut self, id: InstId) {
        self.insts[id.index()].kind = InstKind::Nop;
        self.insts[id.index()].ty = Type::Void;
        for block in &mut self.blocks {
            block.insts.retain(|&i| i != id);
        }
    }

    /// Blocks in reverse post-order from the entry (unreachable blocks are
    /// excluded).
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack of (block, next-successor).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.successors(b);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// The block containing each instruction (index by [`InstId`]);
    /// `None` for instructions not placed in any block.
    pub fn inst_blocks(&self) -> Vec<Option<BlockId>> {
        let mut owner = vec![None; self.insts.len()];
        for b in self.block_ids() {
            for &i in &self.block(b).insts {
                owner[i.index()] = Some(b);
            }
        }
        owner
    }

    /// Number of instructions currently placed in blocks.
    pub fn live_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// Initializer for a global.
#[derive(Clone, PartialEq, Debug)]
pub enum GlobalInit {
    /// Zero-initialized.
    Zero,
    /// All `f64` elements set to the given value.
    SplatF64(f64),
}

/// A module-level global memory object.
#[derive(Clone, PartialEq, Debug)]
pub struct Global {
    /// Symbol name (interned).
    pub name: Symbol,
    /// Shape of the object.
    pub mem: MemType,
    /// Initializer.
    pub init: GlobalInit,
}

/// A source-level variable described by debug metadata, the analogue of
/// LLVM's `DILocalVariable`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DiVariable {
    /// Source name (`"i"`, `"A"`, ...), interned.
    pub name: Symbol,
    /// Name of the function whose scope declared the variable (interned).
    pub scope: Symbol,
}

/// A translation unit: functions, globals, debug variables, and the symbol
/// table that owns every identifier in them.
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name (source file stem).
    pub name: String,
    /// Interned identifiers for everything in this module.
    pub symbols: SymbolTable,
    /// Function arena, indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// Global arena, indexed by [`crate::GlobalId`].
    pub globals: Vec<Global>,
    /// Debug-variable arena, indexed by [`VarId`].
    pub di_vars: Vec<DiVariable>,
}

impl Module {
    /// New empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            symbols: SymbolTable::new(),
            functions: Vec::new(),
            globals: Vec::new(),
            di_vars: Vec::new(),
        }
    }

    /// Intern an identifier into this module's symbol table.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.symbols.intern(s)
    }

    /// Resolve an interned identifier.
    pub fn name_of(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }

    /// Append a function, returning its id.
    pub fn push_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Append a global, returning its id.
    pub fn push_global(&mut self, g: Global) -> crate::GlobalId {
        let id = crate::GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Append a global by name, interning the name.
    pub fn push_global_named(
        &mut self,
        name: &str,
        mem: MemType,
        init: GlobalInit,
    ) -> crate::GlobalId {
        let name = self.symbols.intern(name);
        self.push_global(Global { name, mem, init })
    }

    /// Intern a debug variable (deduplicated on `(name, scope)`).
    pub fn intern_di_var(&mut self, name: &str, scope: &str) -> VarId {
        let name = self.symbols.intern(name);
        let scope = self.symbols.intern(scope);
        if let Some(i) = self
            .di_vars
            .iter()
            .position(|v| v.name == name && v.scope == scope)
        {
            return VarId(i as u32);
        }
        let id = VarId(self.di_vars.len() as u32);
        self.di_vars.push(DiVariable { name, scope });
        id
    }

    /// Immutable access to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Find a function by symbol name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        let sym = self.symbols.lookup(name)?;
        self.functions
            .iter()
            .position(|f| f.name == sym)
            .map(|i| FuncId(i as u32))
    }

    /// Find a global by symbol name.
    pub fn global_by_name(&self, name: &str) -> Option<crate::GlobalId> {
        let sym = self.symbols.lookup(name)?;
        self.globals
            .iter()
            .position(|g| g.name == sym)
            .map(|i| crate::GlobalId(i as u32))
    }

    /// Map from function name to id for bulk lookups.
    pub fn func_names(&self) -> HashMap<&str, FuncId> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (self.symbols.resolve(f.name), FuncId(i as u32)))
            .collect()
    }

    /// All function ids in arena order.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId)
    }
}

/// Module equality is *semantic*: identifiers are compared by resolved
/// string, not by raw [`Symbol`] id, so two modules that intern the same
/// names in different orders still compare equal. (Derived equality on
/// [`Function`] et al. compares raw symbols and is only meaningful within
/// one module.)
impl PartialEq for Module {
    fn eq(&self, other: &Module) -> bool {
        self.name == other.name
            && self.globals.len() == other.globals.len()
            && self.di_vars.len() == other.di_vars.len()
            && self.functions.len() == other.functions.len()
            && self.globals.iter().zip(&other.globals).all(|(a, b)| {
                self.name_of(a.name) == other.name_of(b.name) && a.mem == b.mem && a.init == b.init
            })
            && self.di_vars.iter().zip(&other.di_vars).all(|(a, b)| {
                self.name_of(a.name) == other.name_of(b.name)
                    && self.name_of(a.scope) == other.name_of(b.scope)
            })
            && self
                .functions
                .iter()
                .zip(&other.functions)
                .all(|(a, b)| func_eq(self, a, other, b))
    }
}

fn func_eq(am: &Module, a: &Function, bm: &Module, b: &Function) -> bool {
    am.name_of(a.name) == bm.name_of(b.name)
        && a.ret_ty == b.ret_ty
        && a.entry == b.entry
        && a.is_outlined == b.is_outlined
        && a.params.len() == b.params.len()
        && a.params
            .iter()
            .zip(&b.params)
            .all(|(p, q)| p.ty == q.ty && am.name_of(p.name) == bm.name_of(q.name))
        && a.blocks.len() == b.blocks.len()
        && a.blocks
            .iter()
            .zip(&b.blocks)
            .all(|(p, q)| p.insts == q.insts && am.name_of(p.name) == bm.name_of(q.name))
        && a.insts.len() == b.insts.len()
        && a.insts
            .iter()
            .zip(&b.insts)
            .all(|(p, q)| inst_eq(am, p, bm, q))
}

fn inst_eq(am: &Module, a: &Inst, bm: &Module, b: &Inst) -> bool {
    let names_eq = match (a.name, b.name) {
        (Some(x), Some(y)) => am.name_of(x) == bm.name_of(y),
        (None, None) => true,
        _ => false,
    };
    a.ty == b.ty && a.dbg_line == b.dbg_line && names_eq && kind_eq(am, &a.kind, bm, &b.kind)
}

fn kind_eq(am: &Module, a: &InstKind, bm: &Module, b: &InstKind) -> bool {
    use crate::Callee;
    match (a, b) {
        (
            InstKind::Call {
                callee: ca,
                args: aa,
            },
            InstKind::Call {
                callee: cb,
                args: ab,
            },
        ) => {
            aa == ab
                && match (ca, cb) {
                    (Callee::Func(x), Callee::Func(y)) => x == y,
                    (Callee::External(x), Callee::External(y)) => am.name_of(*x) == bm.name_of(*y),
                    _ => false,
                }
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, GlobalId, Inst, InstKind};

    fn linear_module() -> (Module, FuncId) {
        // entry: v0 = add a, 1 ; ret v0
        let mut m = Module::new("m");
        let mut f = Function::new(&mut m.symbols, "f", &[("a", Type::I64)], Type::I64);
        let v0 = f.append_inst(
            f.entry,
            Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Arg(0),
                    rhs: Value::i64(1),
                },
                Type::I64,
            ),
        );
        f.append_inst(
            f.entry,
            Inst::new(
                InstKind::Ret {
                    val: Some(Value::Inst(v0)),
                },
                Type::Void,
            ),
        );
        let id = m.push_function(f);
        (m, id)
    }

    #[test]
    fn append_and_terminator() {
        let (m, id) = linear_module();
        let f = m.func(id);
        assert_eq!(f.live_inst_count(), 2);
        let t = f.terminator(f.entry).unwrap();
        assert!(f.inst(t).kind.is_terminator());
        assert_eq!(m.name_of(f.name), "f");
        assert_eq!(m.name_of(f.params[0].name), "a");
    }

    #[test]
    fn value_types() {
        let (m, id) = linear_module();
        let f = m.func(id);
        assert_eq!(f.value_type(Value::Arg(0)), Type::I64);
        assert_eq!(f.value_type(Value::Inst(InstId(0))), Type::I64);
        assert_eq!(f.value_type(Value::f64(0.0)), Type::F64);
        assert_eq!(f.value_type(Value::Global(GlobalId(0))), Type::Ptr);
    }

    #[test]
    fn replace_uses() {
        let (mut m, id) = linear_module();
        let f = m.func_mut(id);
        f.replace_all_uses(Value::Arg(0), Value::i64(10));
        let mut ops = Vec::new();
        f.inst(InstId(0)).kind.for_each_operand(|v| ops.push(v));
        assert_eq!(ops, vec![Value::i64(10), Value::i64(1)]);
    }

    #[test]
    fn delete_inst_removes_from_block() {
        let (mut m, id) = linear_module();
        let f = m.func_mut(id);
        f.delete_inst(InstId(0));
        assert_eq!(f.live_inst_count(), 1);
        assert!(matches!(f.inst(InstId(0)).kind, InstKind::Nop));
    }

    #[test]
    fn rpo_diamond() {
        //     e
        //    / \
        //   a   b
        //    \ /
        //     x
        let mut syms = SymbolTable::new();
        let mut f = Function::new(&mut syms, "g", &[], Type::Void);
        let a = f.add_block(syms.intern("a"));
        let b = f.add_block(syms.intern("b"));
        let x = f.add_block(syms.intern("x"));
        f.append_inst(
            f.entry,
            Inst::new(
                InstKind::CondBr {
                    cond: Value::bool(true),
                    then_bb: a,
                    else_bb: b,
                },
                Type::Void,
            ),
        );
        f.append_inst(a, Inst::new(InstKind::Br { target: x }, Type::Void));
        f.append_inst(b, Inst::new(InstKind::Br { target: x }, Type::Void));
        f.append_inst(x, Inst::new(InstKind::Ret { val: None }, Type::Void));
        let rpo = f.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(*rpo.last().unwrap(), x);
        let preds = f.predecessors();
        assert_eq!(preds[x.index()].len(), 2);
    }

    #[test]
    fn rpo_excludes_unreachable() {
        let mut syms = SymbolTable::new();
        let mut f = Function::new(&mut syms, "g", &[], Type::Void);
        let dead = f.add_block(syms.intern("dead"));
        f.append_inst(f.entry, Inst::new(InstKind::Ret { val: None }, Type::Void));
        f.append_inst(dead, Inst::new(InstKind::Ret { val: None }, Type::Void));
        let rpo = f.reverse_post_order();
        assert_eq!(rpo, vec![f.entry]);
    }

    #[test]
    fn module_lookup() {
        let (mut m, id) = linear_module();
        assert_eq!(m.func_by_name("f"), Some(id));
        assert_eq!(m.func_by_name("nope"), None);
        let g = m.push_global_named("A", MemType::array1(Type::F64, 4), GlobalInit::Zero);
        assert_eq!(m.global_by_name("A"), Some(g));
    }

    #[test]
    fn di_var_interning() {
        let mut m = Module::new("m");
        let a = m.intern_di_var("i", "f");
        let b = m.intern_di_var("i", "f");
        let c = m.intern_di_var("i", "g");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.di_vars.len(), 2);
    }

    #[test]
    fn inst_blocks_ownership() {
        let (m, id) = linear_module();
        let owners = m.func(id).inst_blocks();
        assert_eq!(owners[0], Some(m.func(id).entry));
        assert_eq!(owners[1], Some(m.func(id).entry));
    }

    #[test]
    fn semantic_equality_ignores_intern_order() {
        // Build two modules with the same content but different intern
        // order: equality must hold because names are compared resolved.
        let build = |warm: &[&str]| {
            let mut m = Module::new("m");
            for w in warm {
                m.intern(w);
            }
            let mut f = Function::new(&mut m.symbols, "f", &[("a", Type::I64)], Type::I64);
            f.append_inst(f.entry, Inst::new(InstKind::Ret { val: None }, Type::Void));
            f.ret_ty = Type::Void;
            m.push_function(f);
            m
        };
        let a = build(&[]);
        let b = build(&["zzz", "a", "f"]);
        assert_ne!(a.functions[0].name, b.functions[0].name);
        assert_eq!(a, b);
        let c = build(&[]);
        assert_eq!(a, c);
    }
}
