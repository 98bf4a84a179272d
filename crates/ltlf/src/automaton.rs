//! LTLf monitors via progression quotienting.
//!
//! States are normalized formulas; the transition on event `e` is
//! [`progress`](crate::progress); a state accepts iff
//! [`accepts_empty`](crate::accepts_empty). ACI normalization of `∧`/`∨`
//! (see [`Formula`]) keeps the reachable state space finite.
//!
//! The monitor accepts exactly the finite traces satisfying the formula, so
//! model checking `L(M) ⊆ L(φ)` reduces to emptiness of `L(M) ∩ L(¬φ)` —
//! the paper's future-work observation that Shelley can work directly with
//! regular languages instead of encoding into ω-regular NuSMV models.
//!
//! Since the language-view refactor the monitor is primarily a *lazy* view:
//! [`MonitorView`] implements [`Lang`] directly by progression, so checks
//! explore only the formula states their model actually reaches. Compiling
//! the full DFA up front ([`to_dfa`], worst-case exponential in the
//! alphabet) survives as the [`materialize`](MonitorView::materialize)
//! escape hatch for export and as the oracle in differential tests.

use crate::semantics::{accepts_empty, progress};
use crate::syntax::Formula;
use shelley_regular::lang::{self, Lang};
use shelley_regular::{Alphabet, Dfa, Symbol};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Canonicalizes a progression state.
///
/// Progression rebuilds boolean structure around the temporal *closure*
/// formulas (the `U`/`R`/`X` subterms of the original claim), and two
/// semantically equal states can differ syntactically — left alone, the
/// state space would grow without bound. Converting every state to DNF
/// over closure literals (with absorption and complementary-literal
/// pruning) makes equality semantic enough for the quotient to stay
/// finite: literals always belong to the finite closure of the original
/// formula, so there are finitely many DNFs.
///
/// DNF conversion is exponential in the worst case, which is acceptable at
/// claim size (a few operators).
fn canonicalize(f: Formula) -> Formula {
    match &f {
        Formula::And(_) | Formula::Or(_) => {}
        _ => return f,
    }
    let clauses = dnf(&f);
    // Absorption: drop clauses that are supersets of another clause.
    let mut kept: Vec<&BTreeSet<Formula>> = Vec::new();
    for c in &clauses {
        if !clauses.iter().any(|d| d != c && d.is_subset(c)) {
            kept.push(c);
        }
    }
    Formula::or_all(
        kept.into_iter()
            .map(|c| Formula::and_all(c.iter().cloned())),
    )
}

/// DNF over non-boolean literals. Clauses with complementary or mutually
/// exclusive (distinct `Atom`) literals are dropped.
fn dnf(f: &Formula) -> BTreeSet<BTreeSet<Formula>> {
    match f {
        Formula::Or(items) => items.iter().flat_map(dnf).collect(),
        Formula::And(items) => {
            let mut acc: BTreeSet<BTreeSet<Formula>> = BTreeSet::from([BTreeSet::new()]);
            for item in items {
                let item_dnf = dnf(item);
                let mut next = BTreeSet::new();
                for clause in &acc {
                    for extra in &item_dnf {
                        let mut merged = clause.clone();
                        merged.extend(extra.iter().cloned());
                        if clause_consistent(&merged) {
                            next.insert(merged);
                        }
                    }
                }
                acc = next;
            }
            acc
        }
        lit => BTreeSet::from([BTreeSet::from([lit.clone()])]),
    }
}

/// Cheap unsatisfiability filter for a conjunction of literals.
fn clause_consistent(clause: &BTreeSet<Formula>) -> bool {
    let mut atom: Option<Symbol> = None;
    for lit in clause {
        match lit {
            // Two distinct event atoms can never hold at the same position.
            Formula::Atom(s) => {
                if let Some(prev) = atom {
                    if prev != *s {
                        return false;
                    }
                }
                atom = Some(*s);
            }
            Formula::NotAtom(s) if clause.contains(&Formula::Atom(*s)) => {
                return false;
            }
            Formula::Empty if clause.contains(&Formula::Nonempty) => {
                return false;
            }
            _ => {}
        }
    }
    if let Some(a) = atom {
        if clause.contains(&Formula::NotAtom(a)) || clause.contains(&Formula::Empty) {
            return false;
        }
    }
    true
}

/// A lazy LTLf monitor: the formula's language as a [`Lang`] view.
///
/// States *are* canonicalized formulas; stepping progresses the formula by
/// one event and re-canonicalizes. Nothing is compiled up front — a check
/// that only drives the monitor along its model's reachable traces touches
/// only those formula states, while the full monitor DFA can be exponential
/// in the alphabet.
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
    start: Formula,
    alphabet: Arc<Alphabet>,
}

impl MonitorView {
    /// A lazy monitor for `formula` over `alphabet`.
    ///
    /// Events mentioned by the formula but absent from `alphabet` are
    /// impossible; callers should intern the formula's atoms into the
    /// alphabet first (the claim parser does this automatically).
    pub fn new(formula: &Formula, alphabet: Arc<Alphabet>) -> Self {
        MonitorView {
            start: canonicalize(formula.clone()),
            alphabet,
        }
    }

    /// Compiles the complete monitor DFA (the eager escape hatch).
    pub fn materialize(&self) -> Dfa {
        lang::materialize(self)
    }
}

impl Lang for MonitorView {
    type State = Formula;

    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    fn start(&self) -> Formula {
        self.start.clone()
    }

    fn step(&self, state: &Formula, symbol: Symbol) -> Formula {
        canonicalize(progress(state, symbol))
    }

    fn is_accepting(&self, state: &Formula) -> bool {
        accepts_empty(state)
    }

    /// States are canonical DNFs: `cand` implies `kept` when every clause
    /// of `cand` contains (as a set of literals) some clause of `kept`.
    fn covers(&self, kept: &Formula, cand: &Formula) -> bool {
        kept == cand
            || clauses(cand).all(|c| clauses(kept).any(|k| literals(k).all(|l| has_literal(c, l))))
    }
}

/// The parts of an n-ary connective: its operands, or the formula itself.
enum Parts<'a> {
    Many(std::collections::btree_set::Iter<'a, Formula>),
    One(Option<&'a Formula>),
}

impl<'a> Iterator for Parts<'a> {
    type Item = &'a Formula;

    fn next(&mut self) -> Option<&'a Formula> {
        match self {
            Parts::Many(iter) => iter.next(),
            Parts::One(item) => item.take(),
        }
    }
}

/// The clauses of a canonical DNF (`false` has none).
fn clauses(f: &Formula) -> Parts<'_> {
    match f {
        Formula::False => Parts::One(None),
        Formula::Or(items) => Parts::Many(items.iter()),
        clause => Parts::One(Some(clause)),
    }
}

/// The literals of a DNF clause (`true` has none).
fn literals(clause: &Formula) -> Parts<'_> {
    match clause {
        Formula::True => Parts::One(None),
        Formula::And(items) => Parts::Many(items.iter()),
        literal => Parts::One(Some(literal)),
    }
}

/// Whether the DNF clause `clause` has `literal` among its literals.
fn has_literal(clause: &Formula, literal: &Formula) -> bool {
    match clause {
        Formula::And(items) => items.contains(literal),
        other => other == literal,
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
            let mut state = view.start();
            for &s in &w {
                state = view.step(&state, s);
            }
            assert_eq!(view.is_accepting(&state), dfa.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn covering_states_accept_more() {
        let (ab, a, b, c) = setup();
        let view = MonitorView::new(&Formula::tt(), ab.clone());
        let fa = Formula::eventually(Formula::atom(a));
        let fb = Formula::eventually(Formula::atom(b));
        let fc = Formula::eventually(Formula::atom(c));
        let both = MonitorView::new(&Formula::and(fa.clone(), fb.clone()), ab.clone()).start();
        let one = MonitorView::new(&fa, ab.clone()).start();
        let either = MonitorView::new(&Formula::or(fa.clone(), fc.clone()), ab.clone()).start();
        // F a ∧ F b implies F a, which implies F a ∨ F c; never the reverse.
        assert!(view.covers(&one, &both));
        assert!(!view.covers(&both, &one));
        assert!(view.covers(&either, &one));
        assert!(view.covers(&either, &both));
        assert!(!view.covers(&one, &either));
        // `true` covers everything and `false` is covered by everything.
        assert!(view.covers(&Formula::tt(), &both));
        assert!(view.covers(&both, &Formula::ff()));
        assert!(!view.covers(&Formula::ff(), &both));
        // Sound on words: whatever `both` accepts, `either` accepts.
        let dfa_both = to_dfa(&Formula::and(fa.clone(), fb), ab.clone());
        let dfa_either = to_dfa(&Formula::or(fa, fc), ab);
        assert!(dfa_both.subset_of(&dfa_either).is_ok());
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
