//! Interned event symbols and alphabets.
//!
//! Every automaton and regular expression in this crate works over a dense
//! space of [`Symbol`] identifiers that are interned into an [`Alphabet`].
//! In the Shelley setting a symbol is an *event*: either an operation name of
//! a base class (`"test"`, `"open"`) or a qualified call on a subsystem
//! instance (`"a.open"`, `"b.test"`).

use std::collections::HashMap;
use std::fmt;

/// An interned event name.
///
/// Symbols are cheap to copy and compare; the human-readable name lives in
/// the [`Alphabet`] that produced the symbol.
///
/// # Examples
///
/// ```
/// use shelley_regular::Alphabet;
///
/// let mut ab = Alphabet::new();
/// let open = ab.intern("a.open");
/// assert_eq!(ab.name(open), "a.open");
/// assert_eq!(ab.intern("a.open"), open);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the dense index of this symbol within its alphabet.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a symbol from a dense index.
    ///
    /// Callers must only use indices previously produced by the owning
    /// [`Alphabet`]; using a foreign index yields a symbol whose name lookup
    /// will panic.
    pub fn from_index(index: usize) -> Self {
        Symbol(u32::try_from(index).expect("alphabet larger than u32::MAX"))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Symbols serialize as their dense index, so a persisted word is only
/// meaningful alongside the alphabet (or event list) it was interned in.
impl serde::Serialize for Symbol {
    fn serialize(&self, w: &mut serde::json::Writer) {
        w.u64(u64::from(self.0));
    }
}

impl serde::Deserialize for Symbol {
    fn deserialize(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::Error> {
        let n = <u32 as serde::Deserialize>::deserialize(r)
            .map_err(|_| serde::Error::new("expected symbol index"))?;
        Ok(Symbol(n))
    }
}

/// A finite set of named event symbols.
///
/// The alphabet owns the mapping between names and dense [`Symbol`] ids. All
/// automata constructed from the same alphabet are compatible and can be
/// combined with product constructions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Alphabet {
    names: Vec<String>,
    by_name: HashMap<String, Symbol>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty alphabet with room for `n` names.
    pub fn with_capacity(n: usize) -> Self {
        Alphabet {
            names: Vec::with_capacity(n),
            by_name: HashMap::with_capacity(n),
        }
    }

    /// Creates an alphabet containing the given names, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use shelley_regular::Alphabet;
    /// let ab = Alphabet::from_names(["a", "b", "c"]);
    /// assert_eq!(ab.len(), 3);
    /// ```
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ab = Self::new();
        for n in names {
            ab.intern(n.as_ref());
        }
        ab
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = Symbol::from_index(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` was not produced by this alphabet.
    pub fn name(&self, symbol: Symbol) -> &str {
        &self.names[symbol.index()]
    }

    /// Number of symbols in the alphabet.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all symbols in dense order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len()).map(Symbol::from_index)
    }

    /// Iterates over `(symbol, name)` pairs in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol::from_index(i), n.as_str()))
    }

    /// Renders a word as a comma-separated list of names.
    ///
    /// # Examples
    ///
    /// ```
    /// use shelley_regular::Alphabet;
    /// let mut ab = Alphabet::new();
    /// let a = ab.intern("a.test");
    /// let b = ab.intern("a.open");
    /// assert_eq!(ab.render_word(&[a, b]), "a.test, a.open");
    /// ```
    pub fn render_word(&self, word: &[Symbol]) -> String {
        word.iter()
            .map(|&s| self.name(s))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A finite word over an alphabet.
pub type Word = Vec<Symbol>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut ab = Alphabet::new();
        let a1 = ab.intern("x");
        let a2 = ab.intern("x");
        assert_eq!(a1, a2);
        assert_eq!(ab.len(), 1);
    }

    #[test]
    fn lookup_finds_interned_names_only() {
        let mut ab = Alphabet::new();
        let s = ab.intern("open");
        assert_eq!(ab.lookup("open"), Some(s));
        assert_eq!(ab.lookup("close"), None);
    }

    #[test]
    fn symbols_iterate_in_dense_order() {
        let ab = Alphabet::from_names(["a", "b", "c"]);
        let names: Vec<&str> = ab.symbols().map(|s| ab.name(s)).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn render_word_empty() {
        let ab = Alphabet::new();
        assert_eq!(ab.render_word(&[]), "");
    }
}
