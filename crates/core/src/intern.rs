//! String interning.
//!
//! Hot paths in this repository never want to hash or allocate a `String`
//! per event. The telemetry store (PR 3) interns metric scopes; the trace
//! pipeline interns span identity (endpoint names shared across deployed
//! versions). Both use this interner: names are interned once into dense
//! [`Sym`]s at deployment or strategy start, and the per-event paths carry
//! the symbols. An interner has one owner: interning takes `&mut self`,
//! and lookups by name or symbol take `&self`.

use std::collections::HashMap;
use std::sync::Arc;

/// An interned name. Dense, copyable, and stable for the lifetime of the
/// [`Interner`] that issued it — the hot-path replacement for strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The dense index backing this symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from its dense index. Only meaningful for
    /// indices previously issued by the interner being queried.
    pub fn from_index(index: usize) -> Sym {
        Sym(u32::try_from(index).expect("symbol space exhausted"))
    }
}

/// String → [`Sym`] interner.
#[derive(Debug, Default)]
pub struct Interner {
    by_name: HashMap<Arc<str>, Sym>,
    /// Names in interning order: `names[sym.index()]`.
    names: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Looks up an already-interned name without ever interning.
    pub fn resolve(&self, name: &str) -> Option<Sym> {
        self.by_name.get(name).copied()
    }

    /// Interns a name, returning its stable symbol. Idempotent.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(id) = self.resolve(name) {
            return id;
        }
        let id = Sym::from_index(self.names.len());
        let name: Arc<str> = name.into();
        self.names.push(name.clone());
        self.by_name.insert(name, id);
        id
    }

    /// The name behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics when the symbol was not issued by this interner.
    pub fn name(&self, sym: Sym) -> Arc<str> {
        self.names[sym.index()].clone()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.resolve("ghost").is_none());
        let a = i.intern("real");
        assert_eq!(i.resolve("real"), Some(a));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn names_round_trip() {
        let mut i = Interner::new();
        let a = i.intern("svc@1.0.0");
        assert_eq!(&*i.name(a), "svc@1.0.0");
        assert_eq!(Sym::from_index(a.index()), a);
    }

    #[test]
    fn two_interners_do_not_share_symbols() {
        let mut x = Interner::new();
        let mut y = Interner::new();
        x.intern("only-x");
        assert!(y.resolve("only-x").is_none());
        assert_eq!(y.intern("only-y").index(), 0);
        assert!(x.resolve("only-y").is_none());
    }
}
