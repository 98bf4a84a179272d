//! LTLf monitors via progression quotienting, on an interned kernel.
//!
//! A monitor state is a formula the rest of the trace must satisfy; the
//! transition on event `e` is [`progress`](crate::progress) and a state
//! accepts iff [`accepts_empty`](crate::accepts_empty) holds. Progression
//! rebuilds boolean structure around the *closure literals* of the
//! original formula — its `U`/`R`/`X`/`X[!]`/atom subterms, plus the
//! position tests `empty` and `nonempty` — and two semantically equal
//! states can differ syntactically, so every state is put in disjunctive
//! normal form over those literals, with complementary or mutually
//! exclusive clauses dropped (two distinct atoms, an atom and its
//! negation, an atom and `empty`, `empty` and `nonempty`) and clauses
//! that contain another clause absorbed. Literals belong to the finite
//! closure, so there are finitely many such DNFs and the quotient is
//! finite.
//!
//! [`MonitorView`] keeps that quotient *interned*. The formula is compiled
//! once into a table of hash-consed boolean nodes and literals; a clause
//! is a bitmask over literal ids (one `u64` word per 64 literals); a
//! state is its sorted clause list, hash-consed to a dense `u32` id. A
//! step progresses each clause literal by literal on the masks and is
//! memoized per state and *event class*: the formula's atoms each form a
//! class and every other event shares one, since progression only tests
//! an event for equality with an atom. The view therefore hands the
//! searches of [`shelley_regular::lang`] and
//! [`shelley_regular::antichain`] a `Copy` state, and explores only the
//! states its model actually reaches. The progression functions of
//! [`crate::semantics`] stay as the independent oracle the tests judge
//! the kernel by.
//!
//! The monitor accepts exactly the finite traces satisfying the formula,
//! so model checking `L(M) ⊆ L(φ)` reduces to emptiness of
//! `L(M) ∩ L(¬φ)` — the paper's future-work observation that Shelley can
//! work directly with regular languages instead of encoding into
//! ω-regular NuSMV models. Compiling the full DFA up front ([`to_dfa`],
//! worst-case exponential in the alphabet) survives as the
//! [`materialize`](MonitorView::materialize) escape hatch for export and
//! as the oracle in differential tests.

use crate::syntax::Formula;
use shelley_regular::lang::{self, Lang};
use shelley_regular::{Alphabet, Dfa, Symbol};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// "No entry": an unset memo slot, an empty index bucket.
const NONE: u32 = u32::MAX;
/// Node ids of the constants.
const TRUE: u32 = 0;
const FALSE: u32 = 1;
/// Literal ids of the position tests every closure holds.
const EMPTY: u32 = 0;
const NONEMPTY: u32 = 1;

/// A boolean node of the compiled formula. Children are node ids, listed
/// sorted in `Closure::kids[start..start + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    True,
    False,
    Lit(u32),
    And(u32, u32),
    Or(u32, u32),
}

/// A closure literal; operands are node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lit {
    Empty,
    Nonempty,
    Atom(Symbol),
    NotAtom(Symbol),
    Next(u32),
    WeakNext(u32),
    Until(u32, u32),
    Release(u32, u32),
}

impl Lit {
    /// Whether the literal holds on the empty trace
    /// ([`accepts_empty`](crate::accepts_empty) on literals).
    fn nullable(self) -> bool {
        matches!(
            self,
            Lit::Empty | Lit::NotAtom(_) | Lit::WeakNext(_) | Lit::Release(..)
        )
    }
}

/// The compiled formula: hash-consed nodes and closure literals, so two
/// structurally equal subterms get one id.
///
/// Events fall into *classes* that progression cannot tell apart: class
/// `l + 1` for the atom of literal `l`, the first literal naming it, and
/// class `0` for every event no atom names.
#[derive(Debug, Clone)]
struct Closure {
    nodes: Vec<Node>,
    kids: Vec<u32>,
    lits: Vec<Lit>,
    /// `u64` words per clause mask.
    width: usize,
    root: u32,
}

impl Closure {
    /// Compiles `formula`; `scratch` is cleared and used as a stack.
    fn compile(formula: &Formula, scratch: &mut Vec<u64>) -> Closure {
        let size = formula.size();
        let mut closure = Closure {
            nodes: Vec::with_capacity(size + 2),
            kids: Vec::with_capacity(size),
            lits: Vec::with_capacity(size + 2),
            width: 1,
            root: TRUE,
        };
        closure.nodes.extend([Node::True, Node::False]);
        closure.lits.extend([Lit::Empty, Lit::Nonempty]);
        scratch.clear();
        closure.root = closure.node(formula, scratch);
        closure.width = closure.lits.len().div_ceil(64);
        closure
    }

    /// The id of `f`'s node, compiling it on first sight; `stack` holds
    /// the children of the `∧`/`∨` nodes in progress.
    fn node(&mut self, f: &Formula, stack: &mut Vec<u64>) -> u32 {
        let lit = match f {
            Formula::True => return TRUE,
            Formula::False => return FALSE,
            Formula::And(items) | Formula::Or(items) => {
                let mark = stack.len();
                for item in items {
                    let id = self.node(item, stack);
                    stack.push(u64::from(id));
                }
                stack[mark..].sort_unstable();
                let is_and = matches!(f, Formula::And(_));
                let kids = &stack[mark..];
                let same = |s: u32, len: u32| {
                    self.kid_slice(s, len)
                        .iter()
                        .map(|&k| u64::from(k))
                        .eq(kids.iter().copied())
                };
                let found = self.nodes.iter().position(|&n| match n {
                    Node::And(s, len) => is_and && same(s, len),
                    Node::Or(s, len) => !is_and && same(s, len),
                    _ => false,
                });
                let id = match found {
                    Some(id) => id as u32,
                    None => {
                        let (s, len) = (self.kids.len() as u32, kids.len() as u32);
                        self.kids.extend(kids.iter().map(|&k| k as u32));
                        self.push_node(if is_and {
                            Node::And(s, len)
                        } else {
                            Node::Or(s, len)
                        })
                    }
                };
                stack.truncate(mark);
                return id;
            }
            Formula::Empty => Lit::Empty,
            Formula::Nonempty => Lit::Nonempty,
            Formula::Atom(s) => Lit::Atom(*s),
            Formula::NotAtom(s) => Lit::NotAtom(*s),
            Formula::Next(g) => Lit::Next(self.node(g, stack)),
            Formula::WeakNext(g) => Lit::WeakNext(self.node(g, stack)),
            Formula::Until(a, b) => Lit::Until(self.node(a, stack), self.node(b, stack)),
            Formula::Release(a, b) => Lit::Release(self.node(a, stack), self.node(b, stack)),
        };
        let l = match self.lits.iter().position(|&x| x == lit) {
            Some(l) => l as u32,
            None => {
                self.lits.push(lit);
                self.lits.len() as u32 - 1
            }
        };
        match self.nodes.iter().position(|&n| n == Node::Lit(l)) {
            Some(id) => id as u32,
            None => self.push_node(Node::Lit(l)),
        }
    }

    fn push_node(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    fn kid_slice(&self, start: u32, len: u32) -> &[u32] {
        &self.kids[start as usize..(start + len) as usize]
    }

    /// The number of event classes.
    fn classes(&self) -> usize {
        self.lits.len() + 1
    }

    /// The event class of `symbol`.
    fn class(&self, symbol: Symbol) -> u32 {
        self.lits
            .iter()
            .position(|&l| l == Lit::Atom(symbol) || l == Lit::NotAtom(symbol))
            .map_or(0, |l| l as u32 + 1)
    }

    /// Whether the atom `s` holds on an event of class `class`.
    fn atom_holds(&self, s: Symbol, class: u32) -> bool {
        class != 0 && self.class(s) == class
    }

    /// Appends to `work` the canonical DNF of node `node` as it stands
    /// (`event` `None`), or progressed through one event of class `event`.
    fn dnf(&self, node: u32, event: Option<u32>, work: &mut Vec<u64>) {
        match self.nodes[node as usize] {
            Node::True => self.push_clause(work, None),
            Node::False => {}
            Node::Lit(l) => match event {
                None => self.push_clause(work, Some(l)),
                Some(class) => self.progress_lit(l, class, work),
            },
            Node::Or(s, len) => {
                let start = work.len();
                for &kid in self.kid_slice(s, len) {
                    self.dnf(kid, event, work);
                }
                self.normalize(work, start);
            }
            Node::And(s, len) => {
                let start = work.len();
                self.push_clause(work, None);
                for &kid in self.kid_slice(s, len) {
                    let mid = work.len();
                    self.dnf(kid, event, work);
                    self.product(work, start, mid);
                }
            }
        }
    }

    /// Appends to `work` the canonical DNF of literal `l` progressed
    /// through one event of class `class` (mirrors
    /// [`progress`](crate::progress) on literals).
    fn progress_lit(&self, l: u32, class: u32, work: &mut Vec<u64>) {
        match self.lits[l as usize] {
            Lit::Empty => {}
            Lit::Nonempty => self.push_clause(work, None),
            Lit::Atom(s) => {
                if self.atom_holds(s, class) {
                    self.push_clause(work, None);
                }
            }
            Lit::NotAtom(s) => {
                if !self.atom_holds(s, class) {
                    self.push_clause(work, None);
                }
            }
            // X g → nonempty ∧ g.
            Lit::Next(g) => {
                let start = work.len();
                self.push_clause(work, Some(NONEMPTY));
                let mid = work.len();
                self.dnf(g, None, work);
                self.product(work, start, mid);
            }
            // X[!] g → empty ∨ g.
            Lit::WeakNext(g) => {
                let start = work.len();
                self.push_clause(work, Some(EMPTY));
                self.dnf(g, None, work);
                self.normalize(work, start);
            }
            // a U b → progress(b) ∨ (progress(a) ∧ (a U b)).
            Lit::Until(a, b) => {
                let start = work.len();
                self.dnf(b, Some(class), work);
                let mid = work.len();
                self.push_clause(work, Some(l));
                let tail = work.len();
                self.dnf(a, Some(class), work);
                self.product(work, mid, tail);
                self.normalize(work, start);
            }
            // a R b → progress(b) ∧ (progress(a) ∨ (a R b)).
            Lit::Release(a, b) => {
                let start = work.len();
                self.dnf(b, Some(class), work);
                let mid = work.len();
                self.push_clause(work, Some(l));
                self.dnf(a, Some(class), work);
                self.normalize(work, mid);
                self.product(work, start, mid);
            }
        }
    }

    /// Pushes the clause `{l}` (or the empty clause, `true`).
    fn push_clause(&self, work: &mut Vec<u64>, l: Option<u32>) {
        let base = work.len();
        work.resize(base + self.width, 0);
        if let Some(l) = l {
            work[base + l as usize / 64] |= 1 << (l % 64);
        }
    }

    /// Replaces the two DNFs `work[start..mid]` and `work[mid..]` by the
    /// canonical DNF of their conjunction.
    fn product(&self, work: &mut Vec<u64>, start: usize, mid: usize) {
        let (w, end) = (self.width, work.len());
        for a in (start..mid).step_by(w) {
            for b in (mid..end).step_by(w) {
                let base = work.len();
                for k in 0..w {
                    let word = work[a + k] | work[b + k];
                    work.push(word);
                }
                if !self.consistent(&work[base..]) {
                    work.truncate(base);
                }
            }
        }
        work.copy_within(end.., start);
        work.truncate(start + (work.len() - end));
        self.normalize(work, start);
    }

    /// Whether a clause can hold at all: it holds at most one atom, no
    /// atom beside its negation or beside `empty`, and not both `empty`
    /// and `nonempty`.
    fn consistent(&self, clause: &[u64]) -> bool {
        let has = |l: u32| clause[l as usize / 64] & (1 << (l % 64)) != 0;
        if has(EMPTY) && has(NONEMPTY) {
            return false;
        }
        let mut atom = None;
        for l in bits(clause) {
            if let Lit::Atom(s) = self.lits[l as usize] {
                if atom.is_some() {
                    return false;
                }
                atom = Some(s);
            }
        }
        let Some(s) = atom else { return true };
        !has(EMPTY) && !bits(clause).any(|l| self.lits[l as usize] == Lit::NotAtom(s))
    }

    /// Puts the clauses `work[start..]` in canonical form: duplicates and
    /// clauses containing another clause dropped, the rest sorted.
    fn normalize(&self, work: &mut Vec<u64>, start: usize) {
        let (w, end) = (self.width, work.len());
        for c in (start..end).step_by(w) {
            let absorbed = (start..end).step_by(w).any(|d| {
                d != c
                    && subset(&work[d..d + w], &work[c..c + w])
                    && (d < c || work[d..d + w] != work[c..c + w])
            });
            if !absorbed {
                work.extend_from_within(c..c + w);
            }
        }
        work.copy_within(end.., start);
        work.truncate(start + (work.len() - end));
        sort_clauses(&mut work[start..], w);
    }
}

/// The literal ids set in a clause mask.
fn bits(clause: &[u64]) -> impl Iterator<Item = u32> + '_ {
    clause.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                i as u32 * 64 + bit
            })
        })
    })
}

/// Whether clause `a`'s literals are all in clause `b`.
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

/// Sorts the `width`-word clauses of `clauses` lexicographically.
fn sort_clauses(clauses: &mut [u64], width: usize) {
    if width == 1 {
        clauses.sort_unstable();
        return;
    }
    let n = clauses.len() / width;
    for i in 1..n {
        let mut j = i;
        while j > 0 && clauses[(j - 1) * width..j * width] > clauses[j * width..(j + 1) * width] {
            for k in 0..width {
                clauses.swap((j - 1) * width + k, j * width + k);
            }
            j -= 1;
        }
    }
}

/// The states a view has reached, interned, with their memoized steps.
///
/// A state's id is the offset of its record in `words`: a header (its
/// clause count, shifted left once, and whether it accepts in the low
/// bit), one successor slot per event class (`NONE` until first asked),
/// then its clause words. The start state is the first record, at `0`.
#[derive(Debug, Clone, Default)]
struct States {
    words: Vec<u64>,
    /// How many states are interned.
    count: usize,
    /// Open-addressing hash index over the state ids (`NONE` is a free
    /// bucket), built once there are [`LINEAR`] states: fewer are looked
    /// up by a scan. Its length is zero or a power of two.
    index: Vec<u32>,
    /// Scratch clause words for the DNF in progress.
    work: Vec<u64>,
}

/// The state count up to which [`States`] needs no hash index.
const LINEAR: usize = 8;

impl States {
    fn clause_count(&self, state: u32) -> usize {
        (self.words[state as usize] >> 1) as usize
    }

    fn accepting(&self, state: u32) -> bool {
        self.words[state as usize] & 1 != 0
    }

    /// Where `state`'s clause words sit in `words`.
    fn clause_range(&self, state: u32, closure: &Closure) -> Range<usize> {
        let start = state as usize + 1 + closure.classes();
        start..start + self.clause_count(state) * closure.width
    }

    fn clauses(&self, state: u32, closure: &Closure) -> &[u64] {
        &self.words[self.clause_range(state, closure)]
    }

    /// The id of the record after `state`'s.
    fn next_record(&self, state: u32, closure: &Closure) -> u32 {
        state + (1 + closure.classes() + self.clause_count(state) * closure.width) as u32
    }

    /// The id of the canonical DNF in `work`, interning it on first sight.
    fn intern(&mut self, closure: &Closure) -> u32 {
        let mut bucket = 0;
        if self.count < LINEAR {
            let mut id = 0;
            for _ in 0..self.count {
                if self.clauses(id, closure) == self.work.as_slice() {
                    return id;
                }
                id = self.next_record(id, closure);
            }
        } else {
            if self.index.len() < 2 * (self.count + 1) {
                self.grow_index(closure);
            }
            let mask = self.index.len() - 1;
            bucket = hash_words(&self.work) as usize & mask;
            loop {
                match self.index[bucket] {
                    NONE => break,
                    id if self.clauses(id, closure) == self.work.as_slice() => return id,
                    _ => bucket = (bucket + 1) & mask,
                }
            }
        }
        let id = self.words.len() as u32;
        let accepting = self
            .work
            .chunks(closure.width)
            .any(|clause| bits(clause).all(|l| closure.lits[l as usize].nullable()));
        let clauses = (self.work.len() / closure.width) as u64;
        self.words.push(clauses << 1 | u64::from(accepting));
        self.words
            .resize(self.words.len() + closure.classes(), u64::from(NONE));
        self.words.extend_from_slice(&self.work);
        self.count += 1;
        if !self.index.is_empty() {
            self.index[bucket] = id;
        }
        id
    }

    fn grow_index(&mut self, closure: &Closure) {
        let len = (self.index.len() * 2).max(4 * LINEAR);
        self.index.clear();
        self.index.resize(len, NONE);
        let mut id = 0;
        for _ in 0..self.count {
            let mut bucket = hash_words(self.clauses(id, closure)) as usize & (len - 1);
            while self.index[bucket] != NONE {
                bucket = (bucket + 1) & (len - 1);
            }
            self.index[bucket] = id;
            id = self.next_record(id, closure);
        }
    }
}

/// A multiplicative hash of a clause list, its length included.
fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(words.len() as u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// A lazy LTLf monitor: the formula's language as a [`Lang`] view.
///
/// A state is a formula the rest of the trace must satisfy, kept as a
/// canonical DNF over the formula's closure literals (its
/// `U`/`R`/`X`/`X[!]`/atom subterms, plus `empty` and `nonempty`): clauses
/// are literal bitmasks, contradictory clauses are dropped and clauses
/// containing another are absorbed. States are interned to `u32` ids,
/// numbered in the order the view first reaches them; the start state is
/// `0`. Stepping progresses a state's clauses by one event on their
/// masks, once per state and event class (the formula's atoms each form a
/// class, and every event it never names shares one) — later steps are a
/// table lookup. Nothing beyond the compiled formula is built up front: a
/// check that only drives the monitor along its model's reachable traces
/// touches only those states, while the full monitor DFA can be
/// exponential in the alphabet.
///
/// The tables sit behind a [`RefCell`]: a view is driven by one search on
/// one thread, and state ids are meaningful only to the view that made
/// them.
///
/// [`materialize`](Self::materialize) (or the [`to_dfa`] wrapper) builds
/// the complete DFA when an export actually needs it.
///
/// # Examples
///
/// ```
/// use shelley_ltlf::{parse_formula, MonitorView};
/// use shelley_regular::lang::Lang;
/// use shelley_regular::Alphabet;
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let f = parse_formula("G !fail", &mut ab)?;
/// let fail = ab.lookup("fail").unwrap();
/// let view = MonitorView::new(&f, Arc::new(ab));
/// let mut state = view.start();
/// assert!(view.is_accepting(&state));
/// state = view.step(&state, fail);
/// assert!(!view.is_accepting(&state));
/// # Ok::<(), shelley_ltlf::ParseFormulaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MonitorView {
    alphabet: Arc<Alphabet>,
    closure: Closure,
    states: RefCell<States>,
}

impl MonitorView {
    /// A lazy monitor for `formula` over `alphabet`.
    ///
    /// Events mentioned by the formula but absent from `alphabet` are
    /// impossible; callers should intern the formula's atoms into the
    /// alphabet first (the claim parser does this automatically).
    pub fn new(formula: &Formula, alphabet: Arc<Alphabet>) -> Self {
        let mut states = States::default();
        let closure = Closure::compile(formula, &mut states.work);
        // Room for a few states before the first regrowth.
        states
            .words
            .reserve(LINEAR * (1 + closure.classes() + 2 * closure.width));
        states.work.clear();
        closure.dnf(closure.root, None, &mut states.work);
        states.intern(&closure);
        MonitorView {
            alphabet,
            closure,
            states: RefCell::new(states),
        }
    }

    /// Compiles the complete monitor DFA (the eager escape hatch).
    pub fn materialize(&self) -> Dfa {
        lang::materialize(self)
    }
}

impl Lang for MonitorView {
    type State = u32;

    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    fn start(&self) -> u32 {
        0
    }

    fn step(&self, &state: &u32, symbol: Symbol) -> u32 {
        let closure = &self.closure;
        let class = closure.class(symbol);
        let slot = state as usize + 1 + class as usize;
        let mut states = self.states.borrow_mut();
        let memo = states.words[slot];
        if memo != u64::from(NONE) {
            return memo as u32;
        }
        let range = states.clause_range(state, closure);
        let States { words, work, .. } = &mut *states;
        work.clear();
        // Each clause progresses to the conjunction of its literals'
        // progressions; the state progresses to their disjunction.
        for clause in words[range].chunks(closure.width) {
            let base = work.len();
            closure.push_clause(work, None);
            for l in bits(clause) {
                let mid = work.len();
                closure.progress_lit(l, class, work);
                closure.product(work, base, mid);
                if work.len() == base {
                    break;
                }
            }
        }
        closure.normalize(work, 0);
        let next = states.intern(closure);
        states.words[slot] = u64::from(next);
        next
    }

    fn is_accepting(&self, &state: &u32) -> bool {
        self.states.borrow().accepting(state)
    }

    /// `cand` implies `kept` when every clause of `cand` contains some
    /// clause of `kept`.
    fn covers(&self, &kept: &u32, &cand: &u32) -> bool {
        if kept == cand {
            return true;
        }
        let states = self.states.borrow();
        let closure = &self.closure;
        let w = closure.width;
        let kept = states.clauses(kept, closure);
        states
            .clauses(cand, closure)
            .chunks(w)
            .all(|c| kept.chunks(w).any(|k| subset(k, c)))
    }
}

/// Compiles `formula` into a complete DFA over `alphabet` accepting exactly
/// the satisfying traces.
///
/// This is [`MonitorView::materialize`] — worst-case exponential in the
/// alphabet. Checks should drive the [`MonitorView`] lazily instead; the
/// DFA form exists for export (diagrams, NuSMV) and differential testing.
///
/// # Examples
///
/// ```
/// use shelley_ltlf::{parse_formula, to_dfa};
/// use shelley_regular::Alphabet;
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let f = parse_formula("(!a.open) W b.open", &mut ab)?;
/// let a_open = ab.lookup("a.open").unwrap();
/// let b_open = ab.lookup("b.open").unwrap();
/// let dfa = to_dfa(&f, Arc::new(ab));
/// assert!(dfa.accepts(&[]));
/// assert!(dfa.accepts(&[b_open, a_open]));
/// assert!(!dfa.accepts(&[a_open]));
/// # Ok::<(), shelley_ltlf::ParseFormulaError>(())
/// ```
pub fn to_dfa(formula: &Formula, alphabet: Arc<Alphabet>) -> Dfa {
    MonitorView::new(formula, alphabet).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::eval;

    fn setup() -> (Arc<Alphabet>, Symbol, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        (Arc::new(ab), a, b, c)
    }

    /// The state `view` reaches on `word`.
    fn run(view: &MonitorView, word: &[Symbol]) -> u32 {
        word.iter().fold(view.start(), |q, &s| view.step(&q, s))
    }

    #[test]
    fn dfa_agrees_with_eval_on_samples() {
        let (ab, a, b, c) = setup();
        let formulas = [
            Formula::globally(Formula::NotAtom(a)),
            Formula::eventually(Formula::atom(b)),
            Formula::weak_until(Formula::NotAtom(a), Formula::atom(b)),
            Formula::until(
                Formula::or(Formula::atom(a), Formula::atom(c)),
                Formula::atom(b),
            ),
            Formula::next(Formula::atom(c)),
            Formula::and(
                Formula::eventually(Formula::atom(a)),
                Formula::globally(Formula::NotAtom(b)),
            ),
        ];
        let words: Vec<Vec<Symbol>> = vec![
            vec![],
            vec![a],
            vec![b],
            vec![c],
            vec![a, b],
            vec![b, a],
            vec![c, b, a],
            vec![a, a, b, c],
            vec![c, c, c],
        ];
        for f in &formulas {
            let dfa = to_dfa(f, ab.clone());
            for w in &words {
                assert_eq!(dfa.accepts(w), eval(f, w), "formula {f:?} word {w:?}");
            }
        }
    }

    #[test]
    fn monitor_of_negation_is_complement() {
        let (ab, a, b, _) = setup();
        let f = Formula::weak_until(Formula::NotAtom(a), Formula::atom(b));
        let pos = to_dfa(&f, ab.clone());
        let neg = to_dfa(&f.negate(), ab.clone());
        assert!(pos.equivalent(&neg.complement()).is_ok());
    }

    #[test]
    fn automaton_is_small_for_simple_claims() {
        let (ab, a, b, _) = setup();
        let f = Formula::weak_until(Formula::NotAtom(a), Formula::atom(b));
        let dfa = to_dfa(&f, ab).minimize();
        // !a W b has a 3-state minimal monitor (waiting / satisfied / failed).
        assert!(dfa.num_states() <= 3, "{} states", dfa.num_states());
    }

    #[test]
    fn view_agrees_with_materialized_dfa() {
        let (ab, a, b, c) = setup();
        let f = Formula::until(
            Formula::or(Formula::atom(a), Formula::atom(c)),
            Formula::atom(b),
        );
        let view = MonitorView::new(&f, ab.clone());
        let dfa = view.materialize();
        for w in [
            vec![],
            vec![a],
            vec![a, b],
            vec![c, b],
            vec![b, a],
            vec![a, c, b],
        ] {
            let state = run(&view, &w);
            assert_eq!(view.is_accepting(&state), dfa.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn equal_progressions_intern_to_one_state() {
        // F a ∧ F b: after `a b` and after `b a` only `true` is left, and
        // events the formula never names all step alike.
        let (ab, a, b, c) = setup();
        let f = Formula::and(
            Formula::eventually(Formula::atom(a)),
            Formula::eventually(Formula::atom(b)),
        );
        let view = MonitorView::new(&f, ab);
        assert_eq!(run(&view, &[a, b]), run(&view, &[b, a]));
        assert_eq!(run(&view, &[a, b]), run(&view, &[a, c, b, c]));
        assert_eq!(run(&view, &[c]), view.start());
        // start, after a, after b, true: nothing else is reachable.
        assert_eq!(view.materialize().num_states(), 4);
    }

    #[test]
    fn covering_states_accept_more() {
        // Within one view of G !c ∧ F a ∧ F b: each event the formula
        // waits for drops a conjunct, and `c` kills every clause.
        let (ab, a, b, c) = setup();
        let fa = Formula::eventually(Formula::atom(a));
        let fb = Formula::eventually(Formula::atom(b));
        let both = Formula::and(fa.clone(), fb.clone());
        let f = Formula::and(Formula::globally(Formula::NotAtom(c)), both);
        let view = MonitorView::new(&f, ab);
        let start = view.start();
        let after_a = run(&view, &[a]);
        let after_ab = run(&view, &[a, b]);
        let dead = run(&view, &[c]);
        // G !c ∧ F a ∧ F b implies G !c ∧ F b, which implies G !c.
        assert!(view.covers(&after_a, &start));
        assert!(view.covers(&after_ab, &after_a));
        assert!(view.covers(&after_ab, &start));
        assert!(!view.covers(&start, &after_a));
        assert!(!view.covers(&after_a, &after_ab));
        // `false` is covered by everything and covers nothing else.
        assert!(!view.is_accepting(&dead));
        assert!(view.covers(&start, &dead));
        assert!(!view.covers(&dead, &start));
    }

    #[test]
    fn covers_is_sound_on_words() {
        let (ab, a, b, c) = setup();
        let f = Formula::or(
            Formula::and(
                Formula::eventually(Formula::atom(a)),
                Formula::globally(Formula::NotAtom(b)),
            ),
            Formula::until(Formula::NotAtom(c), Formula::next(Formula::atom(b))),
        );
        let view = MonitorView::new(&f, ab);
        let mut words = vec![Vec::new()];
        for len in 1..=3 {
            let longer: Vec<Vec<Symbol>> = words
                .iter()
                .filter(|w| w.len() == len - 1)
                .flat_map(|w| {
                    [a, b, c].map(|s| {
                        let mut next = w.clone();
                        next.push(s);
                        next
                    })
                })
                .collect();
            words.extend(longer);
        }
        let states: Vec<u32> = words.iter().map(|w| run(&view, w)).collect();
        for &kept in &states {
            for &cand in &states {
                if view.covers(&kept, &cand) {
                    for w in &words {
                        let accepts = |q: u32| view.is_accepting(&run_from(&view, q, w));
                        assert!(!accepts(cand) || accepts(kept), "{kept} covers {cand}");
                    }
                }
            }
        }
    }

    fn run_from(view: &MonitorView, q: u32, word: &[Symbol]) -> u32 {
        word.iter().fold(q, |q, &s| view.step(&q, s))
    }

    #[test]
    fn closures_past_64_literals_take_wider_masks() {
        // X⁷⁰ a ∧ F b: seventy `X` literals, so clauses span two words.
        let (ab, a, b, c) = setup();
        let deep = (0..70).fold(Formula::atom(a), |f, _| Formula::next(f));
        let f = Formula::and(deep, Formula::eventually(Formula::atom(b)));
        let view = MonitorView::new(&f, ab);
        assert!(
            view.closure.width >= 2,
            "{} literals",
            view.closure.lits.len()
        );
        let padded = |pad: usize, last: Symbol| {
            let mut word = vec![c; pad];
            word[3] = b;
            word.push(last);
            word
        };
        for word in [
            vec![],
            vec![b],
            padded(70, a),
            padded(70, c),
            padded(69, a),
            padded(71, a),
        ] {
            let state = run(&view, &word);
            assert_eq!(view.is_accepting(&state), eval(&f, &word), "{word:?}");
        }
    }

    #[test]
    fn true_and_false_monitors() {
        let (ab, a, _, _) = setup();
        let all = to_dfa(&Formula::tt(), ab.clone());
        assert!(all.accepts(&[]));
        assert!(all.accepts(&[a, a]));
        let none = to_dfa(&Formula::ff(), ab);
        assert!(none.is_empty());
    }
}
