//! Deterministic finite automata (complete by construction).
//!
//! DFAs are obtained from [`Nfa`]s by subset construction and support the
//! boolean algebra needed for verification: complement, product
//! (intersection/union), emptiness with shortest witnesses, inclusion, and
//! equivalence.

use crate::compiled::CompiledNfa;
use crate::nfa::{Nfa, StateId};
use crate::stateset::StateSet;
use crate::symbol::{Alphabet, Symbol, Word};
use std::collections::{HashMap, VecDeque};
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

    /// Determinizes `nfa` by subset construction.
    ///
    /// Compiles the NFA's ε-closures and successor tables once, then runs
    /// the construction on [`StateSet`] bitset subsets (see
    /// [`Dfa::from_compiled`]). State numbering is BFS discovery order with
    /// symbols scanned in dense index order — identical to materializing an
    /// [`NfaView`](crate::lang::NfaView); the property suite pins the two
    /// byte-for-byte.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        Dfa::from_compiled(&CompiledNfa::compile(nfa))
    }

    /// Subset construction over an already-[compiled](CompiledNfa::compile)
    /// NFA.
    ///
    /// The interning index is keyed by [`StateSet`] (hash over raw bitset
    /// blocks); each step unions precomputed ε-closures into a scratch set,
    /// so the hot loop allocates only when a genuinely new subset is
    /// discovered and needs to be retained as a key.
    pub fn from_compiled(compiled: &CompiledNfa) -> Dfa {
        let alphabet = compiled.alphabet().clone();
        let nsyms = alphabet.len();

        let mut index: HashMap<StateSet, StateId> = HashMap::new();
        let mut table: Vec<u32> = vec![u32::MAX; nsyms];
        let mut accepting: Vec<bool> = Vec::new();
        let mut sets: Vec<StateSet> = Vec::new();

        let start_set = compiled.start_set();
        index.insert(start_set.clone(), 0);
        accepting.push(compiled.is_accepting(&start_set));
        sets.push(start_set);

        let mut scratch = compiled.empty_set();
        let mut queue = VecDeque::from([0usize]);
        while let Some(q) = queue.pop_front() {
            for sym_idx in 0..nsyms {
                let sym = Symbol::from_index(sym_idx);
                // `sets` only grows, so the clone-free borrow dance: step
                // from the stored subset into the scratch set, then intern.
                compiled.step_into(&sets[q], sym, &mut scratch);
                let dst = match index.get(&scratch) {
                    Some(&d) => d,
                    None => {
                        let d = sets.len();
                        table.resize(table.len() + nsyms, u32::MAX);
                        accepting.push(compiled.is_accepting(&scratch));
                        index.insert(scratch.clone(), d);
                        sets.push(scratch.clone());
                        queue.push_back(d);
                        d
                    }
                };
                table[q * nsyms + sym_idx] = cell(dst);
            }
        }
        Dfa::assemble(alphabet, table, 0, &accepting)
    }

    /// Builds a DFA from a nested table (`table[q][s]` is the successor of
    /// `q` on symbol index `s`), flattening it into rows.
    ///
    /// # Panics
    ///
    /// Panics if the table is ragged, references out-of-range states, or the
    /// accepting vector length mismatches.
    pub fn from_parts(
        alphabet: Arc<Alphabet>,
        table: Vec<Vec<StateId>>,
        start: StateId,
        accepting: Vec<bool>,
    ) -> Dfa {
        let n = table.len();
        assert_eq!(accepting.len(), n, "accepting vector length mismatch");
        assert!(start < n, "start state out of range");
        let mut flat = Vec::with_capacity(n * alphabet.len());
        for row in &table {
            assert_eq!(row.len(), alphabet.len(), "ragged transition table");
            for &dst in row {
                assert!(dst < n, "transition target out of range");
                flat.push(cell(dst));
            }
        }
        Dfa::assemble(alphabet, flat, start, &accepting)
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

    /// The image of a state *set* under `symbol`: `{ δ(q, symbol) | q ∈ set }`.
    ///
    /// This is the transfer function of automaton-valued dataflow analyses,
    /// where the abstract value at a program point is the set of DFA states
    /// reachable along some path.
    pub fn step_set(&self, set: &StateSet, symbol: Symbol) -> StateSet {
        let mut out = StateSet::new(self.num_states());
        for q in set {
            out.insert(self.step(q, symbol));
        }
        out
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

    /// Product automaton accepting the intersection of both languages.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// Product automaton accepting the union of both languages.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    /// Product automaton accepting `L(self) \ L(other)`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && !b)
    }

    fn product(&self, other: &Dfa, combine: impl Fn(bool, bool) -> bool) -> Dfa {
        assert_eq!(
            **self.alphabet(),
            **other.alphabet(),
            "product of DFAs over different alphabets"
        );
        let nsyms = self.alphabet.len();
        let start_pair = (self.start, other.start);
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::from([(start_pair, 0)]);
        let mut table: Vec<u32> = vec![u32::MAX; nsyms];
        let mut accepting = vec![combine(
            self.is_accepting(start_pair.0),
            other.is_accepting(start_pair.1),
        )];
        let mut pairs = vec![start_pair];
        let mut queue = VecDeque::from([0usize]);
        while let Some(q) = queue.pop_front() {
            let (qa, qb) = pairs[q];
            let (row_a, row_b) = (self.row(qa), other.row(qb));
            for sym_idx in 0..nsyms {
                let pair = (row_a[sym_idx] as StateId, row_b[sym_idx] as StateId);
                let dst = *index.entry(pair).or_insert_with(|| {
                    let d = pairs.len();
                    table.resize(table.len() + nsyms, u32::MAX);
                    accepting.push(combine(
                        self.is_accepting(pair.0),
                        other.is_accepting(pair.1),
                    ));
                    pairs.push(pair);
                    queue.push_back(d);
                    d
                });
                table[q * nsyms + sym_idx] = cell(dst);
            }
        }
        Dfa::assemble(self.alphabet.clone(), table, 0, &accepting)
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// Finds a shortest accepted word, if any.
    pub fn shortest_accepted(&self) -> Option<Word> {
        let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; self.nstates];
        let mut visited = vec![false; self.nstates];
        let mut queue = VecDeque::from([self.start]);
        visited[self.start] = true;
        while let Some(q) = queue.pop_front() {
            if self.is_accepting(q) {
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
        match self.difference(other).shortest_accepted() {
            None => Ok(()),
            Some(w) => Err(w),
        }
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
    fn accepting_set_and_step_set() {
        let (ab, a, b) = ab2();
        // (a·b)*: accepting states are exactly where a word of even ab-pairs
        // ends; stepping the full reachable set on `a` lands where `a` leads.
        let r = Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b)));
        let dfa = dfa_of(&r, ab);
        let acc = dfa.accepting_set();
        assert!(acc.contains(dfa.start()));
        let mut all = StateSet::new(dfa.num_states());
        for q in 0..dfa.num_states() {
            all.insert(q);
        }
        let on_a = dfa.step_set(&all, a);
        for q in &on_a {
            assert!((0..dfa.num_states()).any(|p| dfa.step(p, a) == q));
        }
        // Stepping the start set along the accepted word a·b returns to an
        // accepting state.
        let mut start = StateSet::new(dfa.num_states());
        start.insert(dfa.start());
        let after = dfa.step_set(&dfa.step_set(&start, a), b);
        assert!(after.is_subset_of(&acc));
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
    fn intersection_and_union() {
        let (ab, a, b) = ab2();
        // L1 = words starting with a; L2 = words ending with b.
        let sigma_star = Regex::star(Regex::union(Regex::sym(a), Regex::sym(b)));
        let l1 = dfa_of(
            &Regex::concat(Regex::sym(a), sigma_star.clone()),
            ab.clone(),
        );
        let l2 = dfa_of(&Regex::concat(sigma_star, Regex::sym(b)), ab.clone());
        let both = l1.intersect(&l2);
        assert!(both.accepts(&[a, b]));
        assert!(both.accepts(&[a, a, b]));
        assert!(!both.accepts(&[a]));
        assert!(!both.accepts(&[b, b]));
        let either = l1.union(&l2);
        assert!(either.accepts(&[a]));
        assert!(either.accepts(&[b, b]));
        assert!(!either.accepts(&[b, a]));
    }

    #[test]
    fn emptiness_and_shortest_witness() {
        let (ab, a, b) = ab2();
        let r = Regex::union(Regex::word(&[a, b, a]), Regex::word(&[b, b]));
        let dfa = dfa_of(&r, ab.clone());
        assert!(!dfa.is_empty());
        assert_eq!(dfa.shortest_accepted(), Some(vec![b, b]));
        let nothing = dfa_of(&Regex::empty(), ab);
        assert!(nothing.is_empty());
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

    #[test]
    fn from_parts_flattens_the_nested_table() {
        let (ab, a, b) = ab2();
        // 0 -a-> 1, 0 -b-> 0, 1 -*-> 1; state 1 accepts: "contains an a".
        let dfa = Dfa::from_parts(ab, vec![vec![1, 0], vec![1, 1]], 0, vec![false, true]);
        assert_eq!(dfa.row(0), &[1, 0]);
        assert_eq!(dfa.row(1), &[1, 1]);
        assert!(dfa.accepts(&[b, a, b]));
        assert!(!dfa.accepts(&[b, b]));
    }

    #[test]
    #[should_panic(expected = "ragged transition table")]
    fn from_parts_rejects_a_ragged_table() {
        let (ab, _, _) = ab2();
        let _ = Dfa::from_parts(ab, vec![vec![0]], 0, vec![false]);
    }

    #[test]
    #[should_panic(expected = "transition target out of range")]
    fn from_parts_rejects_an_out_of_range_target() {
        let (ab, _, _) = ab2();
        let _ = Dfa::from_parts(ab, vec![vec![0, 1]], 0, vec![false]);
    }

    #[test]
    #[should_panic(expected = "different alphabets")]
    fn product_requires_same_alphabet() {
        let (ab1, a, _) = ab2();
        let mut other = Alphabet::new();
        other.intern("x");
        let d1 = dfa_of(&Regex::sym(a), ab1);
        let d2 = dfa_of(&Regex::empty(), Arc::new(other));
        let _ = d1.intersect(&d2);
    }
}
