//! Deterministic finite automata (complete by construction).
//!
//! A [`Dfa`] is the table form of a language: one flat row-major `u32`
//! transition table plus an accepting [`StateSet`]. It is what export
//! (diagrams, NuSMV, statistics), [minimization](Dfa::minimize),
//! [enumeration](Dfa::enumerate_words) and the typestate dataflow read.
//! Determinization, emptiness and inclusion have one engine each, the lazy
//! views of [`crate::lang`]: [`Dfa::from_nfa`] materializes an
//! [`NfaView`], and [`Dfa::subset_of`] searches their difference
//! [`Product`](lang::Product).

use crate::lang::{self, NfaView};
use crate::nfa::{Nfa, StateId};
use crate::stateset::StateSet;
use crate::symbol::{Alphabet, Symbol, Word};
use std::collections::VecDeque;
use std::sync::Arc;

/// A complete deterministic finite automaton.
///
/// Every state has exactly one successor per alphabet symbol (a rejecting
/// sink completes partial transition functions).
///
/// # Examples
///
/// ```
/// use shelley_regular::{Alphabet, Regex, Nfa, Dfa};
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let a = ab.intern("a");
/// let b = ab.intern("b");
/// let nfa = Nfa::from_regex(&Regex::word(&[a, b]), Arc::new(ab));
/// let dfa = Dfa::from_nfa(&nfa);
/// assert!(dfa.accepts(&[a, b]));
/// assert!(!dfa.accepts(&[b, a]));
/// ```
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet: Arc<Alphabet>,
    nstates: usize,
    /// The row width, `alphabet.len()`, kept inline for the stepping hot
    /// path.
    nsyms: usize,
    start: StateId,
    /// `table[q * nsyms + s]` is the successor of state `q` on symbol
    /// index `s`: one flat row-major array, one row per state.
    table: Box<[u32]>,
    accepting: StateSet,
}

/// Narrows a state id to the table's `u32` cell type.
pub(crate) fn cell(q: StateId) -> u32 {
    u32::try_from(q).expect("DFA state id exceeds u32")
}

impl Dfa {
    /// Assembles the automaton from a filled row-major table. Every
    /// constructor funnels through here.
    pub(crate) fn assemble(
        alphabet: Arc<Alphabet>,
        table: Vec<u32>,
        start: StateId,
        accepting: &[bool],
    ) -> Dfa {
        let (nstates, nsyms) = (accepting.len(), alphabet.len());
        debug_assert_eq!(table.len(), nstates * nsyms);
        let mut acc = StateSet::new(nstates);
        for (q, &is_acc) in accepting.iter().enumerate() {
            if is_acc {
                acc.insert(q);
            }
        }
        Dfa {
            alphabet,
            nstates,
            nsyms,
            start,
            table: table.into_boxed_slice(),
            accepting: acc,
        }
    }

    /// Determinizes `nfa` by subset construction: the
    /// [`materialize`](lang::materialize)d [`NfaView`].
    ///
    /// State numbering is BFS discovery order with symbols scanned in dense
    /// index order; DOT, NuSMV, statistics and the goldens all read it.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        lang::materialize(&NfaView::new(nfa))
    }

    /// The automaton's alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.nstates
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `state` accepts (bitset probe).
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting.contains(state)
    }

    /// The successor of `state` on `symbol` (one flat-table load).
    #[inline]
    pub fn step(&self, state: StateId, symbol: Symbol) -> StateId {
        self.table[state * self.nsyms + symbol.index()] as StateId
    }

    /// The full successor row of `state`, one `u32` per symbol index.
    ///
    /// Hot loops (BFS searches, dead-state predecessor scans) iterate this
    /// slice instead of re-indexing per symbol.
    #[inline]
    pub fn row(&self, state: StateId) -> &[u32] {
        &self.table[state * self.nsyms..(state + 1) * self.nsyms]
    }

    /// The accepting states as a [`StateSet`] sized to this automaton.
    pub fn accepting_set(&self) -> StateSet {
        self.accepting.clone()
    }

    /// Runs the automaton on `word` from the start state.
    pub fn run(&self, word: &[Symbol]) -> StateId {
        word.iter().fold(self.start, |q, &s| self.step(q, s))
    }

    /// Decides `word ∈ L(self)`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.is_accepting(self.run(word))
    }

    /// The complement automaton (accepting exactly the rejected words).
    pub fn complement(&self) -> Dfa {
        let accepting: Vec<bool> = (0..self.nstates).map(|q| !self.is_accepting(q)).collect();
        Dfa::assemble(
            self.alphabet.clone(),
            self.table.to_vec(),
            self.start,
            &accepting,
        )
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        lang::shortest_accepted(self).is_none()
    }

    /// Finds a shortest word driving the start state to `target`, if any
    /// (breadth-first in symbol order, so the witness is deterministic).
    pub fn shortest_word_to(&self, target: StateId) -> Option<Word> {
        let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; self.nstates];
        let mut visited = vec![false; self.nstates];
        let mut queue = VecDeque::from([self.start]);
        visited[self.start] = true;
        while let Some(q) = queue.pop_front() {
            if q == target {
                let mut word = Vec::new();
                let mut cur = q;
                while let Some((prev, sym)) = parent[cur] {
                    word.push(sym);
                    cur = prev;
                }
                word.reverse();
                return Some(word);
            }
            for (sym_idx, &dst) in self.row(q).iter().enumerate() {
                let dst = dst as StateId;
                if !visited[dst] {
                    visited[dst] = true;
                    parent[dst] = Some((q, Symbol::from_index(sym_idx)));
                    queue.push_back(dst);
                }
            }
        }
        None
    }

    /// Checks `L(self) ⊆ L(other)`; on failure returns a shortest word in
    /// the difference.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn subset_of(&self, other: &Dfa) -> Result<(), Word> {
        lang::subset_of(self, other)
    }

    /// Checks language equivalence; on failure returns a shortest
    /// distinguishing word.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn equivalent(&self, other: &Dfa) -> Result<(), Word> {
        self.subset_of(other)?;
        other.subset_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn ab2() -> (Arc<Alphabet>, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        (Arc::new(ab), a, b)
    }

    fn dfa_of(r: &Regex, ab: Arc<Alphabet>) -> Dfa {
        Dfa::from_nfa(&Nfa::from_regex(r, ab))
    }

    #[test]
    fn subset_construction_numbers_states_in_bfs_discovery_order() {
        // (a·b)*·c over {a, b, c}. Thompson gives entry e, hub h, x1 after
        // a, x2 after b (ε back to h) and x3 after c. The closed subsets,
        // in the order a BFS scanning a, b, c discovers them:
        //   0 {e, h}   1 {x1}   2 ∅ (sink)   3 {x3} accepting   4 {x2, h}
        // State 4 is language-equivalent to 0 but a different subset, so
        // the table pins subset identity, not just the language.
        let ab = Arc::new(Alphabet::from_names(["a", "b", "c"]));
        let [a, b, c] = [0, 1, 2].map(Symbol::from_index);
        let ab_star = Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b)));
        let dfa = dfa_of(&Regex::concat(ab_star, Regex::sym(c)), ab);
        let rows: Vec<&[u32]> = (0..dfa.num_states()).map(|q| dfa.row(q)).collect();
        let expected: [&[u32]; 5] = [&[1, 2, 3], &[2, 4, 2], &[2, 2, 2], &[2, 2, 2], &[1, 2, 3]];
        assert_eq!(rows, expected);
        assert_eq!(dfa.start(), 0);
        assert_eq!(dfa.accepting_set().iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn subset_construction_preserves_language() {
        let (ab, a, b) = ab2();
        let r = Regex::union(
            Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b))),
            Regex::sym(b),
        );
        let dfa = dfa_of(&r, ab);
        for w in [
            vec![],
            vec![a],
            vec![b],
            vec![a, b],
            vec![a, b, a, b],
            vec![b, b],
            vec![a, a],
        ] {
            assert_eq!(dfa.accepts(&w), r.matches(&w), "word {:?}", w);
        }
    }

    #[test]
    fn shortest_word_to_reaches_every_state() {
        let (ab, a, b) = ab2();
        let r = Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b)));
        let dfa = dfa_of(&r, ab);
        for q in 0..dfa.num_states() {
            let word = dfa
                .shortest_word_to(q)
                .expect("complete DFA: all reachable");
            assert_eq!(dfa.run(&word), q);
        }
        assert_eq!(dfa.shortest_word_to(dfa.start()), Some(vec![]));
    }

    #[test]
    fn complement_flips_membership() {
        let (ab, a, b) = ab2();
        let r = Regex::star(Regex::sym(a));
        let dfa = dfa_of(&r, ab);
        let comp = dfa.complement();
        assert!(dfa.accepts(&[a, a]));
        assert!(!comp.accepts(&[a, a]));
        assert!(!dfa.accepts(&[b]));
        assert!(comp.accepts(&[b]));
    }

    #[test]
    fn emptiness() {
        let (ab, a, b) = ab2();
        let r = Regex::union(Regex::word(&[a, b, a]), Regex::word(&[b, b]));
        assert!(!dfa_of(&r, ab.clone()).is_empty());
        assert!(dfa_of(&Regex::empty(), ab).is_empty());
    }

    #[test]
    fn subset_and_equivalence() {
        let (ab, a, _) = ab2();
        // a ⊆ a* but not conversely.
        let small = dfa_of(&Regex::sym(a), ab.clone());
        let big = dfa_of(&Regex::star(Regex::sym(a)), ab.clone());
        assert!(small.subset_of(&big).is_ok());
        let counter = big.subset_of(&small).unwrap_err();
        assert!(counter.is_empty() || counter.len() >= 2);
        // (a·a)* + a·(a·a)* ≡ a*.
        let even = Regex::star(Regex::word(&[a, a]));
        let odd = Regex::concat(Regex::sym(a), even.clone());
        let all = dfa_of(&Regex::union(even, odd), ab.clone());
        assert!(all.equivalent(&big).is_ok());
    }
}
