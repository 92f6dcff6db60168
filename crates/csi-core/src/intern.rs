//! String interning for the HDFS namespace.
//!
//! A namespace holds many entities whose names repeat heavily (file
//! components like `part-00001.orc`, owner strings). Storing each
//! occurrence as its own `String` costs an allocation per occurrence per
//! operation — `minihdfs` is the one user. A [`NameTable`] interns every
//! distinct name once and hands out copyable u32 [`Sym`] handles; hot
//! paths then run on symbol comparisons with zero per-operation string
//! clones.
//!
//! Determinism: a symbol's numeric value is the first-occurrence order of
//! its name, a pure function of the operation history. Substrates must
//! never derive anything observable (listings, reports, errors) from
//! symbol *values* — only from the resolved strings — which is what lets
//! deployment pools rebuild their tables in canonical namespace order
//! without changing any output.

use std::collections::HashMap;

/// An interned name: a handle into a [`NameTable`].
///
/// `Sym` ordering is *intern order*, not name order — callers that need
/// name order must resolve and compare strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A u32 symbol table: each distinct string is stored once.
///
/// The reverse index is a hash map used for **lookups only** — nothing may
/// iterate it, since hash iteration order is nondeterministic.
#[derive(Debug, Default, Clone)]
pub struct NameTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// Interns `name`, allocating only on first sight.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&id) = self.index.get(name) {
            return Sym(id);
        }
        let id = u32::try_from(self.names.len()).expect("name table overflow");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        Sym(id)
    }

    /// Looks up an already-interned name without allocating.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied().map(Sym)
    }

    /// Resolves a symbol back to its name.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this table (or was invalidated
    /// by a [`NameTable::clear`]).
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Drops every interned name. All outstanding [`Sym`]s are invalidated;
    /// callers must re-intern anything they still reference.
    pub fn clear(&mut self) {
        self.names.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_order_stable() {
        let mut t = NameTable::new();
        let a = t.intern("warehouse");
        let b = t.intern("part-00001.orc");
        assert_ne!(a, b);
        assert_eq!(t.intern("warehouse"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "warehouse");
        assert_eq!(t.resolve(b), "part-00001.orc");
        assert_eq!(t.lookup("warehouse"), Some(a));
        assert_eq!(t.lookup("nope"), None);
    }

    #[test]
    fn clear_invalidates_and_reuses_ids() {
        let mut t = NameTable::new();
        let a = t.intern("x");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup("x"), None);
        // Re-interning after a clear restarts id assignment — the property
        // canonical rebuilds rely on for history-independent layouts.
        let b = t.intern("y");
        assert_eq!(a.index(), b.index());
    }
}
