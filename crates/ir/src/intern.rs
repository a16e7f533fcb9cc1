//! String interning: [`Symbol`] handles backed by a per-module
//! [`SymbolTable`].
//!
//! Every identifier in the IR — function, block, parameter, global, and
//! value names — is interned into the owning module's table and carried as
//! a 4-byte [`Symbol`] instead of a heap `String`. Interning makes name
//! comparison an integer compare, shrinks the IR working set, and removes
//! per-identifier allocations from the parse and print hot paths.
//!
//! The table is a single contiguous byte arena plus a span list; lookup
//! uses an open-addressing index over [`crate::hash::fnv64`].
//! Symbols are stable for the lifetime of the table and assigned densely in
//! first-intern order, so re-parsing identical text yields identical
//! symbols.

use crate::hash::fnv64;

/// Interned string handle, valid within the [`SymbolTable`] that produced
/// it. Equality of symbols from the *same* table is equality of strings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Index into the owning table's span list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// Deduplicating string arena. All interned bytes live in one contiguous
/// buffer; each [`Symbol`] indexes a `(start, len)` span.
#[derive(Clone, Debug)]
pub struct SymbolTable {
    /// Contiguous UTF-8 bytes of every distinct interned string.
    bytes: String,
    /// Per-symbol `(start, len)` spans into `bytes`.
    spans: Vec<(u32, u32)>,
    /// Open-addressing hash index: slot holds `symbol_index + 1`, 0 = empty.
    /// Rebuilt on growth; not part of equality.
    slots: Vec<u32>,
}

impl Default for SymbolTable {
    fn default() -> SymbolTable {
        SymbolTable::new()
    }
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> SymbolTable {
        SymbolTable {
            bytes: String::new(),
            spans: Vec::new(),
            slots: vec![0; 16],
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Resolve a symbol to its string. Panics on a symbol from another
    /// table whose index is out of range.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let (start, len) = self.spans[sym.index()];
        &self.bytes[start as usize..(start + len) as usize]
    }

    fn span_str(&self, idx: usize) -> &str {
        let (start, len) = self.spans[idx];
        &self.bytes[start as usize..(start + len) as usize]
    }

    /// Intern a string, returning its stable symbol. Repeated interning of
    /// equal strings returns the same symbol and allocates nothing.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = fnv64(s.as_bytes());
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                break;
            }
            let idx = (slot - 1) as usize;
            if self.span_str(idx) == s {
                return Symbol(idx as u32);
            }
            i = (i + 1) & mask;
        }
        // New entry.
        let idx = self.spans.len();
        let start = self.bytes.len() as u32;
        self.bytes.push_str(s);
        self.spans.push((start, s.len() as u32));
        self.slots[i] = (idx + 1) as u32;
        if self.spans.len() * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        Symbol(idx as u32)
    }

    /// Look up a string without interning it.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        let hash = fnv64(s.as_bytes());
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            let idx = (slot - 1) as usize;
            if self.span_str(idx) == s {
                return Some(Symbol(idx as u32));
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![0u32; new_len];
        for idx in 0..self.spans.len() {
            let hash = fnv64(self.span_str(idx).as_bytes());
            let mut i = (hash as usize) & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = (idx + 1) as u32;
        }
        self.slots = slots;
    }

    /// Iterate `(symbol, string)` pairs in intern order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.spans.len()).map(|i| (Symbol(i as u32), self.span_str(i)))
    }
}

/// Tables are equal when they hold the same strings in the same intern
/// order (the hash index is derived state and ignored).
impl PartialEq for SymbolTable {
    fn eq(&self, other: &SymbolTable) -> bool {
        self.bytes == other.bytes && self.spans == other.spans
    }
}

impl Eq for SymbolTable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_resolves() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_without_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("x"), None);
        let x = t.intern("x");
        assert_eq!(t.lookup("x"), Some(x));
        assert_eq!(t.lookup("y"), None);
    }

    #[test]
    fn empty_string_is_a_symbol() {
        let mut t = SymbolTable::new();
        let e = t.intern("");
        assert_eq!(t.resolve(e), "");
        assert_eq!(t.intern(""), e);
    }

    #[test]
    fn symbols_dense_in_intern_order() {
        let mut t = SymbolTable::new();
        for (i, s) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(t.intern(s), Symbol(i as u32));
        }
    }

    #[test]
    fn survives_growth() {
        let mut t = SymbolTable::new();
        let mut syms = Vec::new();
        for i in 0..500 {
            syms.push((t.intern(&format!("name_{i}")), format!("name_{i}")));
        }
        for (sym, s) in &syms {
            assert_eq!(t.resolve(*sym), s.as_str());
            assert_eq!(t.lookup(s), Some(*sym));
        }
        // Re-interning after growth still dedups.
        for (sym, s) in &syms {
            assert_eq!(t.intern(s), *sym);
        }
    }

    #[test]
    fn equality_ignores_index_state() {
        let mut a = SymbolTable::new();
        let mut b = SymbolTable::new();
        for s in ["x", "y", "z"] {
            a.intern(s);
            b.intern(s);
        }
        // Force different slot layouts by growing one table past the other.
        for i in 0..100 {
            a.intern(&format!("extra{i}"));
        }
        assert_ne!(a, b);
        for i in 0..100 {
            b.intern(&format!("extra{i}"));
        }
        assert_eq!(a, b);
    }

    /// Seeded stress test: symbols stay collision-free and stable across
    /// re-interning in a shuffled order, mimicking re-parses of edited
    /// modules.
    #[test]
    fn seeded_stress_stability() {
        let mut rng = crate::rng::Rng::from_state(0x5EED_0BAD);
        let mut t = SymbolTable::new();
        let mut names: Vec<String> = Vec::new();
        for _ in 0..2000 {
            let r = rng.next_u64();
            let name = match r % 4 {
                0 => format!("v{}", r % 97),
                1 => format!("block.{}", r % 53),
                2 => format!("fn_{}", r % 31),
                _ => format!("g{:x}", r % 211),
            };
            names.push(name);
        }
        let symbols: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        // Distinct names got distinct symbols; equal names share one.
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                assert_eq!(a == b, symbols[i] == symbols[j], "{a} vs {b}");
            }
        }
        // Re-intern in reverse order: every symbol is stable.
        for (name, sym) in names.iter().zip(&symbols).rev() {
            assert_eq!(t.intern(name), *sym);
        }
        for (name, sym) in names.iter().zip(&symbols) {
            assert_eq!(t.resolve(*sym), name.as_str());
        }
    }
}
