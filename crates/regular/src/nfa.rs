//! Nondeterministic finite automata with ε-transitions.
//!
//! NFAs are the glue representation of the pipeline: inferred behaviors
//! (regular expressions) compile to NFAs via Thompson's construction, class
//! specifications compile to NFAs directly from their dependency graphs, and
//! composite-class *integration automata* are assembled with [`NfaBuilder`]
//! by inlining behavior fragments between specification states.

use crate::compiled::CompiledNfa;
use crate::regex::Regex;
use crate::symbol::{Alphabet, Symbol};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Index of an automaton state.
pub type StateId = usize;

/// An NFA edge label: either an ε-transition or an event symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Silent transition.
    Eps,
    /// Transition consuming one event.
    Sym(Symbol),
}

/// A nondeterministic finite automaton over an [`Alphabet`].
///
/// # Examples
///
/// ```
/// use shelley_regular::{Alphabet, Regex, Nfa};
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let a = ab.intern("a");
/// let r = Regex::star(Regex::sym(a));
/// let nfa = Nfa::from_regex(&r, Arc::new(ab));
/// assert!(nfa.accepts(&[]));
/// assert!(nfa.accepts(&[a, a]));
/// ```
#[derive(Debug, Clone)]
pub struct Nfa {
    alphabet: Arc<Alphabet>,
    edges: Vec<Vec<(Label, StateId)>>,
    start: StateId,
    accepting: Vec<bool>,
}

impl Nfa {
    /// Starts building an NFA over `alphabet`.
    pub fn builder(alphabet: Arc<Alphabet>) -> NfaBuilder {
        NfaBuilder {
            alphabet,
            edges: Vec::new(),
            start: None,
            accepting: Vec::new(),
        }
    }

    /// Compiles `regex` to an NFA with Thompson's construction.
    pub fn from_regex(regex: &Regex, alphabet: Arc<Alphabet>) -> Nfa {
        let mut b = Nfa::builder(alphabet);
        let entry = b.add_state();
        b.set_start(entry);
        let exit = b.add_regex(entry, regex);
        b.mark_accepting(exit);
        b.build()
    }

    /// The automaton's alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.edges.len()
    }

    /// Number of edges (including ε-edges).
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// Outgoing edges of `state`.
    pub fn edges_from(&self, state: StateId) -> &[(Label, StateId)] {
        &self.edges[state]
    }

    /// Decides `word ∈ L(self)` by stepping the [`CompiledNfa`]'s bitset
    /// subsets.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let compiled = CompiledNfa::compile(self);
        let mut current = compiled.start_set();
        let mut scratch = compiled.empty_set();
        for &s in word {
            compiled.step_into(&current, s, &mut scratch);
            if scratch.is_empty() {
                return false;
            }
            std::mem::swap(&mut current, &mut scratch);
        }
        compiled.is_accepting(&current)
    }

    /// Returns a copy where every edge labeled with a symbol in `erased` is
    /// turned into an ε-edge.
    ///
    /// This implements projection: erasing the symbols outside a subsystem's
    /// alphabet yields an NFA for the projected language (which stays over
    /// the same alphabet object).
    pub fn erase_symbols(&self, erased: &BTreeSet<Symbol>) -> Nfa {
        let mut out = self.clone();
        for edges in &mut out.edges {
            for (label, _) in edges.iter_mut() {
                if let Label::Sym(s) = *label {
                    if erased.contains(&s) {
                        *label = Label::Eps;
                    }
                }
            }
        }
        out
    }
}

/// Incremental NFA constructor returned by [`Nfa::builder`].
#[derive(Debug)]
pub struct NfaBuilder {
    alphabet: Arc<Alphabet>,
    edges: Vec<Vec<(Label, StateId)>>,
    start: Option<StateId>,
    accepting: Vec<bool>,
}

impl NfaBuilder {
    /// Adds a fresh, non-accepting state.
    pub fn add_state(&mut self) -> StateId {
        self.edges.push(Vec::new());
        self.accepting.push(false);
        self.edges.len() - 1
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, from: StateId, label: Label, to: StateId) {
        self.edges[from].push((label, to));
    }

    /// Sets the start state.
    pub fn set_start(&mut self, state: StateId) {
        self.start = Some(state);
    }

    /// Marks `state` accepting.
    pub fn mark_accepting(&mut self, state: StateId) {
        self.accepting[state] = true;
    }

    /// Inlines a Thompson fragment for `regex` starting at `entry`, returning
    /// the fragment's exit state.
    ///
    /// This is how integration automata splice method behaviors between
    /// specification states: the caller owns `entry` and connects the
    /// returned exit wherever the surrounding structure requires.
    pub fn add_regex(&mut self, entry: StateId, regex: &Regex) -> StateId {
        match regex {
            Regex::Empty => {
                // A dead end: fresh exit with no path from entry.
                self.add_state()
            }
            Regex::Epsilon => entry,
            Regex::Sym(s) => {
                let exit = self.add_state();
                self.add_edge(entry, Label::Sym(*s), exit);
                exit
            }
            Regex::Concat(a, b) => {
                let mid = self.add_regex(entry, a);
                self.add_regex(mid, b)
            }
            Regex::Union(a, b) => {
                let exit = self.add_state();
                let ea = self.add_regex(entry, a);
                self.add_edge(ea, Label::Eps, exit);
                let eb = self.add_regex(entry, b);
                self.add_edge(eb, Label::Eps, exit);
                exit
            }
            Regex::Star(a) => {
                let hub = self.add_state();
                self.add_edge(entry, Label::Eps, hub);
                let back = self.add_regex(hub, a);
                self.add_edge(back, Label::Eps, hub);
                hub
            }
        }
    }

    /// Finalizes the automaton.
    ///
    /// # Panics
    ///
    /// Panics if no start state was set.
    pub fn build(self) -> Nfa {
        Nfa {
            alphabet: self.alphabet,
            edges: self.edges,
            start: self.start.expect("NFA start state not set"),
            accepting: self.accepting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab3() -> (Arc<Alphabet>, Symbol, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        (Arc::new(ab), a, b, c)
    }

    #[test]
    fn thompson_agrees_with_derivatives_on_samples() {
        let (ab, a, b, c) = ab3();
        let r = Regex::union(
            Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b))),
            Regex::concat(Regex::sym(c), Regex::star(Regex::sym(a))),
        );
        let nfa = Nfa::from_regex(&r, ab);
        let words: Vec<Vec<Symbol>> = vec![
            vec![],
            vec![a],
            vec![a, b],
            vec![a, b, a, b],
            vec![c],
            vec![c, a, a],
            vec![b],
            vec![c, b],
        ];
        for w in words {
            assert_eq!(nfa.accepts(&w), r.matches(&w), "word {:?}", w);
        }
    }

    #[test]
    fn empty_regex_yields_empty_language() {
        let (ab, a, _, _) = ab3();
        let nfa = Nfa::from_regex(&Regex::empty(), ab);
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&[a]));
    }

    #[test]
    fn erase_symbols_projects() {
        let (ab, a, b, _) = ab3();
        // a·b·a with b erased accepts a·a.
        let r = Regex::word(&[a, b, a]);
        let nfa = Nfa::from_regex(&r, ab);
        let projected = nfa.erase_symbols(&BTreeSet::from([b]));
        assert!(projected.accepts(&[a, a]));
        assert!(!projected.accepts(&[a, b, a]));
    }

    #[test]
    fn builder_spec_style_graph() {
        // start --a--> s1 --b--> s2(accepting), with loop s1 --a--> s1.
        let (ab, a, b, _) = ab3();
        let mut builder = Nfa::builder(ab);
        let start = builder.add_state();
        let s1 = builder.add_state();
        let s2 = builder.add_state();
        builder.set_start(start);
        builder.add_edge(start, Label::Sym(a), s1);
        builder.add_edge(s1, Label::Sym(a), s1);
        builder.add_edge(s1, Label::Sym(b), s2);
        builder.mark_accepting(s2);
        let nfa = builder.build();
        assert!(nfa.accepts(&[a, b]));
        assert!(nfa.accepts(&[a, a, a, b]));
        assert!(!nfa.accepts(&[b]));
        assert!(!nfa.accepts(&[a]));
    }
}
