//! A compiled form of an [`Nfa`] for allocation-free subset stepping.
//!
//! Every determinizing traversal — the lazy
//! [`NfaView`](crate::lang::NfaView), and so
//! [`Dfa::from_nfa`](crate::Dfa::from_nfa), and the joint product searches
//! driving spec monitors — repeats the same two computations in its hot
//! loop: ε-closure of the states just reached, and the symbol successors of
//! every state in the current subset. [`CompiledNfa`] hoists both out of
//! the loop, once per automaton:
//!
//! * the **ε-closure of each state** as a [`StateSet`] bitset, so closing a
//!   freshly-stepped subset is a union of precomputed blocks instead of a
//!   worklist walk over ε-edges;
//! * the **symbol successors of each `(state, symbol)` pair** in one flat
//!   CSR-style table (`offsets` into a shared `targets` array), so stepping
//!   never filters a state's mixed edge list by label.
//!
//! [`step_into`](CompiledNfa::step_into) then performs a whole
//! symbol-move-plus-closure into a caller-provided scratch set without
//! allocating.

use crate::nfa::{Label, Nfa, StateId};
use crate::stateset::StateSet;
use crate::symbol::{Alphabet, Symbol};
use std::sync::Arc;

/// Precomputed ε-closures and per-symbol successor tables of an [`Nfa`].
///
/// # Examples
///
/// ```
/// use shelley_regular::{Alphabet, CompiledNfa, Nfa, Regex};
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let a = ab.intern("a");
/// let nfa = Nfa::from_regex(&Regex::star(Regex::sym(a)), Arc::new(ab));
/// let compiled = CompiledNfa::compile(&nfa);
/// let mut current = compiled.start_set();
/// let mut scratch = compiled.empty_set();
/// compiled.step_into(&current, a, &mut scratch);
/// std::mem::swap(&mut current, &mut scratch);
/// assert!(compiled.is_accepting(&current));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledNfa {
    alphabet: Arc<Alphabet>,
    nstates: usize,
    start: StateId,
    /// `closure[q]` = ε-closure of `{q}` (always contains `q`).
    closure: Vec<StateSet>,
    /// CSR row offsets: the symbol successors of `(q, s)` are
    /// `targets[offsets[q * nsyms + s] .. offsets[q * nsyms + s + 1]]`.
    offsets: Vec<u32>,
    /// Flat successor array indexed through `offsets`.
    targets: Vec<u32>,
    /// Accepting states as a bitset (acceptance of a subset is one
    /// block-wise intersection test).
    accepting: StateSet,
}

impl CompiledNfa {
    /// Compiles `nfa`: one ε-closure per state plus the CSR successor table.
    pub fn compile(nfa: &Nfa) -> CompiledNfa {
        let nstates = nfa.num_states();
        let nsyms = nfa.alphabet().len();

        // Per-state ε-closure by worklist, reusing each predecessor's
        // already-computed closure is unsound under cycles, so close each
        // state independently (still linear in practice: Thompson NFAs have
        // out-degree ≤ 2).
        let mut closure = Vec::with_capacity(nstates);
        let mut stack: Vec<StateId> = Vec::new();
        for q in 0..nstates {
            let mut set = StateSet::new(nstates);
            set.insert(q);
            stack.push(q);
            while let Some(p) = stack.pop() {
                for &(label, dst) in nfa.edges_from(p) {
                    if label == Label::Eps && set.insert(dst) {
                        stack.push(dst);
                    }
                }
            }
            closure.push(set);
        }

        // CSR: count, prefix-sum, fill.
        let mut counts = vec![0u32; nstates * nsyms + 1];
        for q in 0..nstates {
            for &(label, _) in nfa.edges_from(q) {
                if let Label::Sym(s) = label {
                    counts[q * nsyms + s.index() + 1] += 1;
                }
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        for q in 0..nstates {
            for &(label, dst) in nfa.edges_from(q) {
                if let Label::Sym(s) = label {
                    let at = &mut cursor[q * nsyms + s.index()];
                    targets[*at as usize] = u32::try_from(dst).expect("NFA larger than u32::MAX");
                    *at += 1;
                }
            }
        }

        let mut accepting = StateSet::new(nstates);
        for q in 0..nstates {
            if nfa.is_accepting(q) {
                accepting.insert(q);
            }
        }

        CompiledNfa {
            alphabet: nfa.alphabet().clone(),
            nstates,
            start: nfa.start(),
            closure,
            offsets,
            targets,
            accepting,
        }
    }

    /// The automaton's alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of NFA states (the capacity of every [`StateSet`] here).
    pub fn num_states(&self) -> usize {
        self.nstates
    }

    /// A fresh empty set sized to this automaton, for use as scratch space
    /// with [`step_into`](Self::step_into).
    pub fn empty_set(&self) -> StateSet {
        StateSet::new(self.nstates)
    }

    /// The ε-closed start subset (the initial state of determinization).
    pub fn start_set(&self) -> StateSet {
        self.closure[self.start].clone()
    }

    /// The symbol successors of `(state, symbol)` from the CSR table.
    pub fn successors(&self, state: StateId, symbol: Symbol) -> &[u32] {
        let row = state * self.alphabet.len() + symbol.index();
        &self.targets[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// One determinized step, allocation-free: `out` becomes the ε-closure
    /// of the `symbol`-successors of `current`.
    ///
    /// `out` is cleared first; callers keep two sets and swap them to stream
    /// a word through the automaton without touching the allocator.
    pub fn step_into(&self, current: &StateSet, symbol: Symbol, out: &mut StateSet) {
        out.clear();
        for q in current {
            for &dst in self.successors(q, symbol) {
                out.union_with(&self.closure[dst as usize]);
            }
        }
    }

    /// [`step_into`](Self::step_into) allocating a fresh result set.
    pub fn step(&self, current: &StateSet, symbol: Symbol) -> StateSet {
        let mut out = self.empty_set();
        for q in current {
            for &dst in self.successors(q, symbol) {
                out.union_with(&self.closure[dst as usize]);
            }
        }
        out
    }

    /// Whether the subset contains an accepting NFA state.
    pub fn is_accepting(&self, subset: &StateSet) -> bool {
        self.accepting.intersects(subset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn compile3(r: &Regex) -> CompiledNfa {
        let ab = Arc::new(Alphabet::from_names(["a", "b", "c"]));
        CompiledNfa::compile(&Nfa::from_regex(r, ab))
    }

    /// Every word over `{a, b, c}` of length at most `max_len`.
    fn words_up_to(max_len: usize) -> Vec<Vec<Symbol>> {
        let mut all = vec![Vec::new()];
        let mut layer = vec![Vec::new()];
        for _ in 0..max_len {
            layer = layer
                .iter()
                .flat_map(|w: &Vec<Symbol>| {
                    (0..3).map(move |i| {
                        let mut next = w.clone();
                        next.push(Symbol::from_index(i));
                        next
                    })
                })
                .collect();
            all.extend(layer.iter().cloned());
        }
        all
    }

    /// Streams `word` through the closed-subset stepping from the start set.
    fn run(compiled: &CompiledNfa, word: &[Symbol]) -> StateSet {
        let mut current = compiled.start_set();
        let mut scratch = compiled.empty_set();
        for &sym in word {
            compiled.step_into(&current, sym, &mut scratch);
            std::mem::swap(&mut current, &mut scratch);
        }
        current
    }

    #[test]
    fn closed_subset_stepping_decides_regex_membership() {
        // ε-heavy shapes: nested stars and unions are where a missing
        // closure edge changes membership.
        let a = Symbol::from_index(0);
        let b = Symbol::from_index(1);
        let c = Symbol::from_index(2);
        let exprs = [
            Regex::star(Regex::union(
                Regex::word(&[a, b]),
                Regex::star(Regex::sym(b)),
            )),
            Regex::union(
                Regex::concat(Regex::star(Regex::sym(a)), Regex::word(&[b, c])),
                Regex::star(Regex::word(&[a, b])),
            ),
            Regex::star(Regex::star(Regex::epsilon())),
        ];
        for r in &exprs {
            let compiled = compile3(r);
            for w in words_up_to(5) {
                let reached = run(&compiled, &w);
                assert_eq!(
                    compiled.is_accepting(&reached),
                    r.matches(&w),
                    "{r:?} on {w:?}"
                );
            }
        }
    }

    #[test]
    fn step_allocates_what_step_into_writes() {
        let a = Symbol::from_index(0);
        let b = Symbol::from_index(1);
        let compiled = compile3(&Regex::star(Regex::union(
            Regex::sym(a),
            Regex::word(&[a, b]),
        )));
        let mut current = compiled.start_set();
        for sym in [a, b, a, a, b] {
            let mut out = compiled.empty_set();
            compiled.step_into(&current, sym, &mut out);
            assert_eq!(compiled.step(&current, sym), out);
            current = out;
        }
    }

    #[test]
    fn empty_alphabet_compiles() {
        let ab = Arc::new(Alphabet::new());
        let nfa = Nfa::from_regex(&Regex::Epsilon, ab);
        let compiled = CompiledNfa::compile(&nfa);
        assert!(compiled.is_accepting(&compiled.start_set()));
    }
}
