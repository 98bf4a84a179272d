//! Lazy language views: on-the-fly automata combinators.
//!
//! Every check in the verification stack reduces to a reachability search
//! over some product automaton, and building that product eagerly would
//! force the *whole* automaton into existence first — subset construction
//! and monitor compilation are exponential in the worst case even when the
//! reachable product is tiny. This module is the one engine for those
//! language operations: a [`Lang`] trait describing a complete
//! deterministic transition system by `start`/`step`/`is_accepting` over a
//! hashable state type, combinators that compose views without
//! materializing them ([`Product`], [`Complement`]), and generic algorithms
//! ([`shortest_accepted`], [`subset_of`], [`materialize`]) that explore
//! **only the reachable states**, memoizing them by hash.
//!
//! The searches use one traversal order (FIFO queue, symbols in dense index
//! order, acceptance tested at dequeue), so a witness is the shortlex-least
//! shortest word and a materialized automaton is numbered in BFS discovery
//! order. The property suite judges every view by Brzozowski membership
//! ([`Regex::matches`](crate::Regex::matches)), which shares no automaton
//! code with this module.
//!
//! Use [`materialize`] only where a whole table is needed (diagrams,
//! NuSMV models, statistics, [`Dfa::from_nfa`]): it costs the full
//! reachable state space.
//!
//! # Examples
//!
//! ```
//! use shelley_regular::lang::{self, Complement, NfaView, Product};
//! use shelley_regular::{Alphabet, Nfa, Regex};
//! use std::sync::Arc;
//!
//! let mut ab = Alphabet::new();
//! let a = ab.intern("a");
//! let b = ab.intern("b");
//! let ab = Arc::new(ab);
//! let spec = Nfa::from_regex(&Regex::word(&[a, b]), ab.clone());
//! let behavior = Nfa::from_regex(&Regex::word(&[a]), ab);
//! // Is L(behavior) ⊆ L(spec)? Searched lazily — no subset construction.
//! let witness = lang::subset_of(&NfaView::new(&behavior), &NfaView::new(&spec));
//! assert_eq!(witness.unwrap_err(), vec![a]);
//! # let _ = (Complement::new(NfaView::new(&spec)), Product::intersection(NfaView::new(&spec), NfaView::new(&spec)));
//! ```

use crate::compiled::CompiledNfa;
use crate::dfa::{cell, Dfa};
use crate::nfa::{Nfa, StateId};
use crate::stateset::StateSet;
use crate::symbol::{Alphabet, Symbol, Word};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

/// A complete deterministic language view.
///
/// Implementors describe a transition system *lazily*: states are produced
/// on demand by [`step`](Lang::step) and are never enumerated up front. The
/// view must be **complete** (every state has a successor on every alphabet
/// symbol — use a rejecting sink for partial functions) and
/// **deterministic**; both properties make [`Complement`] a sound
/// combinator, exactly as for [`Dfa`].
///
/// States must be hashable so the generic algorithms can memoize visited
/// states without materializing the automaton.
pub trait Lang {
    /// The state representation (interned DFA ids, NFA subsets, formulas…).
    type State: Clone + Eq + Hash;

    /// The alphabet the language is over.
    fn alphabet(&self) -> &Arc<Alphabet>;

    /// The initial state.
    fn start(&self) -> Self::State;

    /// The unique successor of `state` on `symbol`.
    fn step(&self, state: &Self::State, symbol: Symbol) -> Self::State;

    /// Writes the successor of `state` on `symbol` into `out`, reusing
    /// `out`'s storage where the representation allows.
    ///
    /// The default clones through [`step`](Lang::step). Views whose states
    /// own heap storage ([`NfaView`]'s bitsets, products and complements
    /// of such) override or forward it so the generic searches
    /// ([`shortest_accepted`], [`materialize`], the antichain engine in
    /// [`crate::antichain`]) allocate only when a genuinely new state must
    /// be retained — the same discipline as [`CompiledNfa::step_into`].
    fn step_into(&self, state: &Self::State, symbol: Symbol, out: &mut Self::State) {
        *out = self.step(state, symbol);
    }

    /// Whether `state` accepts.
    fn is_accepting(&self, state: &Self::State) -> bool;

    /// Whether every word accepted from `cand` is also accepted from
    /// `kept`: a sound, possibly incomplete test of `L(cand) ⊆ L(kept)`.
    ///
    /// The inclusion search in [`crate::antichain`] discards a newly
    /// discovered pair when a pair it already kept at the same model state
    /// covers it. That is sound for any test with this contract: residual
    /// languages are monotone under one step (`L(cand) ⊆ L(kept)` implies
    /// `e⁻¹L(cand) ⊆ e⁻¹L(kept)` for every symbol `e`), so whatever
    /// continuation reaches acceptance from the discarded pair reaches it
    /// from the kept one. The default is `kept == cand`, plain
    /// deduplication; views with an ordered state space override it.
    fn covers(&self, kept: &Self::State, cand: &Self::State) -> bool {
        kept == cand
    }
}

/// A reference to a view is itself a view (lets combinators borrow).
impl<L: Lang + ?Sized> Lang for &L {
    type State = L::State;

    fn alphabet(&self) -> &Arc<Alphabet> {
        (**self).alphabet()
    }

    fn start(&self) -> Self::State {
        (**self).start()
    }

    fn step(&self, state: &Self::State, symbol: Symbol) -> Self::State {
        (**self).step(state, symbol)
    }

    fn step_into(&self, state: &Self::State, symbol: Symbol, out: &mut Self::State) {
        (**self).step_into(state, symbol, out);
    }

    fn is_accepting(&self, state: &Self::State) -> bool {
        (**self).is_accepting(state)
    }

    fn covers(&self, kept: &Self::State, cand: &Self::State) -> bool {
        (**self).covers(kept, cand)
    }
}

/// A DFA table is trivially a view: states are its interned ids.
impl Lang for Dfa {
    type State = StateId;

    fn alphabet(&self) -> &Arc<Alphabet> {
        Dfa::alphabet(self)
    }

    fn start(&self) -> StateId {
        Dfa::start(self)
    }

    fn step(&self, state: &StateId, symbol: Symbol) -> StateId {
        Dfa::step(self, *state, symbol)
    }

    fn is_accepting(&self, state: &StateId) -> bool {
        Dfa::is_accepting(self, *state)
    }
}

/// On-the-fly determinization of an [`Nfa`], on the bitset engine.
///
/// States are ε-closed subsets of NFA states as [`StateSet`] bitsets;
/// [`step`](Lang::step) performs one symbol move plus ε-closure by unioning
/// the [`CompiledNfa`]'s precomputed per-state closures — no `BTreeSet`
/// allocation, no ε-edge walk. No subset construction happens up front:
/// only the subsets actually reached by a search are ever built;
/// [`materialize`] enumerates all of them, and is how [`Dfa::from_nfa`]
/// determinizes.
///
/// Construction compiles the NFA once (ε-closures + CSR successor table);
/// the view is cheap to clone afterwards.
#[derive(Debug, Clone)]
pub struct NfaView<'a> {
    nfa: &'a Nfa,
    compiled: Arc<CompiledNfa>,
}

impl<'a> NfaView<'a> {
    /// Wraps `nfa`, compiling its ε-closure and successor tables once.
    pub fn new(nfa: &'a Nfa) -> Self {
        NfaView {
            nfa,
            compiled: Arc::new(CompiledNfa::compile(nfa)),
        }
    }

    /// The underlying NFA.
    pub fn nfa(&self) -> &'a Nfa {
        self.nfa
    }

    /// The compiled tables the view steps over.
    pub fn compiled(&self) -> &CompiledNfa {
        &self.compiled
    }
}

impl Lang for NfaView<'_> {
    type State = StateSet;

    fn alphabet(&self) -> &Arc<Alphabet> {
        self.nfa.alphabet()
    }

    fn start(&self) -> Self::State {
        self.compiled.start_set()
    }

    fn step(&self, state: &Self::State, symbol: Symbol) -> Self::State {
        self.compiled.step(state, symbol)
    }

    fn step_into(&self, state: &Self::State, symbol: Symbol, out: &mut Self::State) {
        self.compiled.step_into(state, symbol, out);
    }

    fn is_accepting(&self, state: &Self::State) -> bool {
        self.compiled.is_accepting(state)
    }

    /// A subset accepts a subset of the words: `cand ⊆ kept`.
    fn covers(&self, kept: &Self::State, cand: &Self::State) -> bool {
        cand.is_subset_of(kept)
    }
}

/// How a [`Product`] combines the acceptance of its two factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoolOp {
    And,
    Or,
    Diff,
}

/// The lazy product of two views; states are pairs explored on demand.
#[derive(Debug, Clone)]
pub struct Product<A, B> {
    a: A,
    b: B,
    op: BoolOp,
}

impl<A: Lang, B: Lang> Product<A, B> {
    fn new(a: A, b: B, op: BoolOp) -> Self {
        assert_eq!(
            **a.alphabet(),
            **b.alphabet(),
            "product of language views over different alphabets"
        );
        Product { a, b, op }
    }

    /// `L(a) ∩ L(b)`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn intersection(a: A, b: B) -> Self {
        Product::new(a, b, BoolOp::And)
    }

    /// `L(a) ∪ L(b)`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn union(a: A, b: B) -> Self {
        Product::new(a, b, BoolOp::Or)
    }

    /// `L(a) \ L(b)`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ.
    pub fn difference(a: A, b: B) -> Self {
        Product::new(a, b, BoolOp::Diff)
    }
}

impl<A: Lang, B: Lang> Lang for Product<A, B> {
    type State = (A::State, B::State);

    fn alphabet(&self) -> &Arc<Alphabet> {
        self.a.alphabet()
    }

    fn start(&self) -> Self::State {
        (self.a.start(), self.b.start())
    }

    fn step(&self, state: &Self::State, symbol: Symbol) -> Self::State {
        (self.a.step(&state.0, symbol), self.b.step(&state.1, symbol))
    }

    fn step_into(&self, state: &Self::State, symbol: Symbol, out: &mut Self::State) {
        self.a.step_into(&state.0, symbol, &mut out.0);
        self.b.step_into(&state.1, symbol, &mut out.1);
    }

    fn is_accepting(&self, state: &Self::State) -> bool {
        let (qa, qb) = (self.a.is_accepting(&state.0), self.b.is_accepting(&state.1));
        match self.op {
            BoolOp::And => qa && qb,
            BoolOp::Or => qa || qb,
            BoolOp::Diff => qa && !qb,
        }
    }
}

/// The complement view: flips acceptance.
///
/// Sound because every [`Lang`] is complete and deterministic by contract —
/// the same argument that makes [`Dfa::complement`] a one-liner.
#[derive(Debug, Clone)]
pub struct Complement<L> {
    inner: L,
}

impl<L: Lang> Complement<L> {
    /// Wraps `inner`, accepting exactly the words it rejects.
    pub fn new(inner: L) -> Self {
        Complement { inner }
    }
}

impl<L: Lang> Lang for Complement<L> {
    type State = L::State;

    fn alphabet(&self) -> &Arc<Alphabet> {
        self.inner.alphabet()
    }

    fn start(&self) -> Self::State {
        self.inner.start()
    }

    fn step(&self, state: &Self::State, symbol: Symbol) -> Self::State {
        self.inner.step(state, symbol)
    }

    fn step_into(&self, state: &Self::State, symbol: Symbol, out: &mut Self::State) {
        self.inner.step_into(state, symbol, out);
    }

    fn is_accepting(&self, state: &Self::State) -> bool {
        !self.inner.is_accepting(state)
    }

    /// Complement reverses inclusion.
    fn covers(&self, kept: &Self::State, cand: &Self::State) -> bool {
        self.inner.covers(cand, kept)
    }
}

/// Finds a shortest accepted word by lazy BFS, if the language is nonempty.
///
/// Explores only reachable states, memoized by hash: a FIFO queue,
/// successors expanded in dense symbol order, acceptance tested at dequeue,
/// so the witness is the shortlex-least shortest word.
pub fn shortest_accepted<L: Lang>(lang: &L) -> Option<Word> {
    let nsyms = lang.alphabet().len();
    let mut index: HashMap<L::State, usize> = HashMap::new();
    let mut states: Vec<L::State> = Vec::new();
    let mut parent: Vec<Option<(usize, Symbol)>> = Vec::new();
    let start = lang.start();
    index.insert(start.clone(), 0);
    states.push(start);
    parent.push(None);
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    // One scratch successor reused across every step: the search allocates
    // only when a genuinely new state must be interned (see
    // [`Lang::step_into`]).
    let mut scratch = lang.start();
    while let Some(q) = queue.pop_front() {
        if lang.is_accepting(&states[q]) {
            let mut word = Vec::new();
            let mut cur = q;
            while let Some((prev, sym)) = parent[cur] {
                word.push(sym);
                cur = prev;
            }
            word.reverse();
            return Some(word);
        }
        for sym_idx in 0..nsyms {
            let sym = Symbol::from_index(sym_idx);
            lang.step_into(&states[q], sym, &mut scratch);
            if !index.contains_key(&scratch) {
                let id = states.len();
                index.insert(scratch.clone(), id);
                states.push(scratch.clone());
                parent.push(Some((q, sym)));
                queue.push_back(id);
            }
        }
    }
    None
}

/// Checks `L(a) ⊆ L(b)` lazily; on failure returns the shortlex-least
/// shortest word in the difference.
///
/// It distinguishes every reachable product state, exponential when `b` is
/// a blowing-up [`NfaView`]; the verification checks run the pruned search
/// of [`crate::antichain`] instead.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn subset_of<A: Lang, B: Lang>(a: &A, b: &B) -> Result<(), Word> {
    match shortest_accepted(&Product::difference(a, b)) {
        None => Ok(()),
        Some(w) => Err(w),
    }
}

/// Materializes a view into a [`Dfa`] table, for diagram, NuSMV, and
/// statistics export.
///
/// States are numbered in BFS discovery order with symbols scanned in dense
/// index order; materializing an [`NfaView`] is [`Dfa::from_nfa`].
///
/// The reachable state space must be finite (true for every view in this
/// workspace: NFA subsets, DFA ids, product pairs, and canonicalized LTLf
/// progression formulas are all finitely many).
pub fn materialize<L: Lang>(lang: &L) -> Dfa {
    let alphabet = lang.alphabet().clone();
    let nsyms = alphabet.len();
    let mut index: HashMap<L::State, usize> = HashMap::new();
    let mut states: Vec<L::State> = Vec::new();
    let mut table: Vec<u32> = vec![u32::MAX; nsyms];

    let start = lang.start();
    index.insert(start.clone(), 0);
    let mut accepting = vec![lang.is_accepting(&start)];
    states.push(start);

    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    // Scratch successor reused across steps, as in [`shortest_accepted`]:
    // allocation happens only at interning.
    let mut scratch = lang.start();
    while let Some(q) = queue.pop_front() {
        for sym_idx in 0..nsyms {
            let sym = Symbol::from_index(sym_idx);
            lang.step_into(&states[q], sym, &mut scratch);
            let dst = match index.get(&scratch) {
                Some(&d) => d,
                None => {
                    let d = states.len();
                    index.insert(scratch.clone(), d);
                    accepting.push(lang.is_accepting(&scratch));
                    states.push(scratch.clone());
                    table.resize(table.len() + nsyms, u32::MAX);
                    queue.push_back(d);
                    d
                }
            };
            table[q * nsyms + sym_idx] = cell(dst);
        }
    }
    Dfa::assemble(alphabet, table, 0, &accepting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use std::sync::Arc;

    fn compile(pattern: &str) -> (Nfa, Arc<Alphabet>) {
        let mut ab = Alphabet::new();
        let re = parse_regex(pattern, &mut ab).unwrap();
        let ab = Arc::new(ab);
        (Nfa::from_regex(&re, ab.clone()), ab)
    }

    #[test]
    fn subset_of_returns_a_shortest_difference_word() {
        let mut ab = Alphabet::new();
        let small = parse_regex("a ; b", &mut ab).unwrap();
        let big = parse_regex("(a ; b) + (a ; c)", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let c = ab.lookup("c").unwrap();
        let a = ab.lookup("a").unwrap();
        let ns = Nfa::from_regex(&small, ab.clone());
        let nb = Nfa::from_regex(&big, ab);
        assert_eq!(subset_of(&NfaView::new(&ns), &NfaView::new(&nb)), Ok(()));
        assert_eq!(
            subset_of(&NfaView::new(&nb), &NfaView::new(&ns)),
            Err(vec![a, c])
        );
    }

    #[test]
    #[should_panic(expected = "different alphabets")]
    fn mismatched_alphabets_panic_in_product() {
        let (n1, _) = compile("a");
        let (n2, _) = compile("a ; b");
        let _ = Product::intersection(NfaView::new(&n1), NfaView::new(&n2));
    }

    #[test]
    fn empty_alphabet_views_work() {
        let ab = Arc::new(Alphabet::new());
        let nfa = Nfa::from_regex(&crate::regex::Regex::Epsilon, ab);
        let view = NfaView::new(&nfa);
        assert_eq!(shortest_accepted(&view), Some(vec![]));
        let dfa = materialize(&view);
        assert!(dfa.accepts(&[]));
        assert_eq!(shortest_accepted(&Complement::new(&view)), None);
    }
}
