//! Property tests for LTLf: progression vs direct evaluation vs the
//! compiled monitor DFA, negation as complement, and operator laws.

use proptest::prelude::*;
use shelley_ltlf::{accepts_empty, eval, eval_direct, progress, to_dfa, Formula};
use shelley_regular::{Alphabet, Symbol};
use std::sync::Arc;

const NSYMS: usize = 3;

fn alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names(["a", "b", "c"]))
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::tt()),
        Just(Formula::ff()),
        (0..NSYMS).prop_map(|i| Formula::atom(Symbol::from_index(i))),
        (0..NSYMS).prop_map(|i| Formula::NotAtom(Symbol::from_index(i))),
    ];
    // Progression-quotient monitors are exponential in the worst case, so
    // the generator stays at claim-like sizes (the paper's claims have
    // 2-4 operators).
    leaf.prop_recursive(3, 14, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            inner.clone().prop_map(Formula::next),
            inner.clone().prop_map(Formula::weak_next),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(Formula::globally),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::until(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::release(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::weak_until(a, b)),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec((0..NSYMS).prop_map(Symbol::from_index), 0..7)
}

proptest! {
    /// Progression-based and direct evaluation agree.
    #[test]
    fn eval_implementations_agree(f in arb_formula(), w in arb_word()) {
        prop_assert_eq!(eval(&f, &w), eval_direct(&f, &w));
    }

    /// The compiled monitor accepts exactly the satisfying traces.
    #[test]
    fn monitor_agrees_with_eval(f in arb_formula(), w in arb_word()) {
        let dfa = to_dfa(&f, alphabet());
        prop_assert_eq!(dfa.accepts(&w), eval(&f, &w));
    }

    /// Negation is a true language complement (including the empty trace).
    #[test]
    fn negation_is_complement(f in arb_formula(), w in arb_word()) {
        prop_assert_eq!(eval(&f.negate(), &w), !eval(&f, &w));
    }

    /// Negation is involutive.
    #[test]
    fn negation_involutive(f in arb_formula(), w in arb_word()) {
        prop_assert_eq!(eval(&f.negate().negate(), &w), eval(&f, &w));
    }

    /// The fundamental progression equation: e·w ⊨ φ ⇔ w ⊨ progress(φ, e).
    #[test]
    fn progression_equation(
        f in arb_formula(),
        e in (0..NSYMS).prop_map(Symbol::from_index),
        w in arb_word()
    ) {
        let mut ew = vec![e];
        ew.extend_from_slice(&w);
        prop_assert_eq!(eval(&f, &ew), eval(&progress(&f, e), &w));
    }

    /// ε ⊨ φ ⇔ accepts_empty(φ).
    #[test]
    fn empty_trace_base_case(f in arb_formula()) {
        prop_assert_eq!(eval(&f, &[]), accepts_empty(&f));
    }

    /// Expansion law: φ U ψ ≡ ψ ∨ (φ ∧ X(φ U ψ)) — at real positions only:
    /// on the empty trace U is false by definition while ψ may hold
    /// vacuously, so the law is stated for nonempty traces.
    #[test]
    fn until_expansion(f in arb_formula(), g in arb_formula(), w in arb_word()) {
        prop_assume!(!w.is_empty());
        let u = Formula::until(f.clone(), g.clone());
        let expanded = Formula::or(
            g,
            Formula::and(f, Formula::next(u.clone())),
        );
        prop_assert_eq!(eval(&u, &w), eval(&expanded, &w));
    }

    /// Expansion law: φ R ψ ≡ ψ ∧ (φ ∨ X[!](φ R ψ)) — nonempty traces
    /// only, dually to `until_expansion`.
    #[test]
    fn release_expansion(f in arb_formula(), g in arb_formula(), w in arb_word()) {
        prop_assume!(!w.is_empty());
        let r = Formula::release(f.clone(), g.clone());
        let expanded = Formula::and(
            g,
            Formula::or(f, Formula::weak_next(r.clone())),
        );
        prop_assert_eq!(eval(&r, &w), eval(&expanded, &w));
    }

    /// The paper's definition: φ W ψ ≡ (φ U ψ) ∨ G φ.
    #[test]
    fn weak_until_definition(f in arb_formula(), g in arb_formula(), w in arb_word()) {
        let w_formula = Formula::weak_until(f.clone(), g.clone());
        let manual = Formula::or(
            Formula::until(f.clone(), g),
            Formula::globally(f),
        );
        prop_assert_eq!(eval(&w_formula, &w), eval(&manual, &w));
    }

    /// Monitor DFAs stay small after minimization (sanity bound: the
    /// progression-state space of our bounded-depth formulas).
    #[test]
    fn monitors_minimize(f in arb_formula()) {
        let dfa = to_dfa(&f, alphabet());
        let min = dfa.minimize();
        prop_assert!(min.num_states() <= dfa.num_states());
        prop_assert!(min.equivalent(&dfa).is_ok());
    }
}

proptest! {
    /// Stepping the lazy [`MonitorView`] by progression agrees with direct
    /// evaluation at every prefix of the word.
    #[test]
    fn monitor_view_tracks_eval(f in arb_formula(), w in arb_word()) {
        use shelley_ltlf::MonitorView;
        use shelley_regular::lang::Lang;
        let view = MonitorView::new(&f, alphabet());
        let mut state = view.start();
        let mut prefix = Vec::new();
        prop_assert_eq!(view.is_accepting(&state), eval(&f, &prefix));
        for &e in &w {
            state = view.step(&state, e);
            prefix.push(e);
            prop_assert_eq!(view.is_accepting(&state), eval(&f, &prefix));
        }
    }

    /// The materialized lazy monitor view accepts exactly the traces
    /// that satisfy the formula, judged by the trace semantics: every
    /// word of length <= 4 and a random word of length <= 6.
    #[test]
    fn monitor_view_materializes_to_the_satisfying_traces(f in arb_formula(), w in arb_word()) {
        use shelley_ltlf::MonitorView;
        let dfa = MonitorView::new(&f, alphabet()).materialize();
        let mut words = vec![Vec::new()];
        for len in 1..=4 {
            let longer: Vec<Vec<Symbol>> = words
                .iter()
                .filter(|word| word.len() == len - 1)
                .flat_map(|word| {
                    (0..NSYMS).map(move |i| {
                        let mut next = word.clone();
                        next.push(Symbol::from_index(i));
                        next
                    })
                })
                .collect();
            words.extend(longer);
        }
        words.push(w);
        for word in &words {
            prop_assert_eq!(dfa.accepts(word), eval(&f, word), "{:?}", word);
        }
    }

    /// The lazy claim check and the eager compile-then-search oracle
    /// return byte-identical outcomes (including the counterexample
    /// trace) on generated formulas and regular models.
    #[test]
    fn lazy_claim_check_matches_eager_oracle(
        f in arb_formula(),
        w1 in arb_word(),
        w2 in arb_word()
    ) {
        use shelley_ltlf::{check_claim, ClaimOutcome};
        use shelley_regular::antichain::joint_search;
        use shelley_regular::{Nfa, Regex};
        use std::collections::BTreeSet;
        let ab = alphabet();
        // A small model: the union of two concrete traces.
        let model_re = Regex::union(Regex::word(&w1), Regex::word(&w2));
        let model = Nfa::from_regex(&model_re, ab.clone());
        let markers = BTreeSet::new();

        let eager_bad = to_dfa(&f.negate(), ab.clone());
        let eager = match joint_search(&model, &eager_bad, &markers).witness {
            None => ClaimOutcome::Holds,
            Some(counterexample) => ClaimOutcome::Violated { counterexample },
        };
        prop_assert_eq!(check_claim(&model, &f, &markers), eager);
    }

    /// Claim checks agree with the trace semantics: the model is the two
    /// words `{w1, w2}`, so the claim holds exactly when `eval` accepts
    /// both, and a counterexample is one of them that `eval` rejects.
    #[test]
    fn claim_checks_agree_with_the_trace_semantics(
        f in arb_formula(),
        w1 in arb_word(),
        w2 in arb_word()
    ) {
        use shelley_ltlf::{check_claim, ClaimOutcome};
        use shelley_regular::{Nfa, Regex};
        use std::collections::BTreeSet;
        let ab = alphabet();
        let model_re = Regex::union(Regex::word(&w1), Regex::word(&w2));
        let model = Nfa::from_regex(&model_re, ab);
        match check_claim(&model, &f, &BTreeSet::new()) {
            ClaimOutcome::Holds => prop_assert!(eval(&f, &w1) && eval(&f, &w2)),
            ClaimOutcome::Violated { counterexample } => {
                prop_assert!(counterexample == w1 || counterexample == w2);
                prop_assert!(!eval(&f, &counterexample));
            }
        }
    }

    /// Simplification preserves the language exactly.
    #[test]
    fn simplify_preserves_semantics(f in arb_formula(), w in arb_word()) {
        let s = shelley_ltlf::simplify(&f);
        prop_assert_eq!(eval(&f, &w), eval(&s, &w));
    }

    /// Simplification is idempotent.
    #[test]
    fn simplify_idempotent(f in arb_formula()) {
        let s1 = shelley_ltlf::simplify(&f);
        let s2 = shelley_ltlf::simplify(&s1);
        prop_assert_eq!(s1, s2);
    }
}

/// Every word over the alphabet of length at most `n`, shortest first.
fn words_up_to(n: usize) -> Vec<Vec<Symbol>> {
    let mut words = vec![Vec::new()];
    let mut start = 0;
    for _ in 0..n {
        let end = words.len();
        for i in start..end {
            for s in 0..NSYMS {
                let mut next = words[i].clone();
                next.push(Symbol::from_index(s));
                words.push(next);
            }
        }
        start = end;
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The interned monitor against the trace semantics, on every word of
    /// length <= 5: the state each word reaches accepts exactly when the
    /// word satisfies the formula (and the negation monitor exactly when
    /// it does not), the materialized DFA accepts exactly the satisfying
    /// words, and `covers` is sound — when the state after `p` covers the
    /// state after `q`, every continuation `u` that satisfies after `q`
    /// satisfies after `p`.
    #[test]
    fn interned_monitor_agrees_with_the_trace_semantics(f in arb_formula()) {
        use shelley_ltlf::MonitorView;
        use shelley_regular::lang::Lang;
        use std::collections::HashMap;
        let words = words_up_to(5);
        let holds: HashMap<&[Symbol], bool> =
            words.iter().map(|w| (w.as_slice(), eval(&f, w))).collect();
        let view = MonitorView::new(&f, alphabet());
        let negation = MonitorView::new(&f.negate(), alphabet());
        let run = |view: &MonitorView, word: &[Symbol]| {
            word.iter().fold(view.start(), |q, &s| view.step(&q, s))
        };
        for w in &words {
            prop_assert_eq!(view.is_accepting(&run(&view, w)), holds[w.as_slice()], "{:?}", w);
            prop_assert_eq!(negation.is_accepting(&run(&negation, w)), !holds[w.as_slice()]);
        }
        let dfa = view.materialize();
        for w in &words {
            prop_assert_eq!(dfa.accepts(w), holds[w.as_slice()], "{:?}", w);
        }
        let prefixes = words_up_to(2);
        let suffixes = words_up_to(3);
        for p in &prefixes {
            for q in &prefixes {
                if !view.covers(&run(&view, p), &run(&view, q)) {
                    continue;
                }
                for u in &suffixes {
                    let after = |prefix: &[Symbol]| holds[[prefix, u.as_slice()].concat().as_slice()];
                    prop_assert!(!after(q) || after(p), "{:?} covers {:?} but not on {:?}", p, q, u);
                }
            }
        }
    }
}
