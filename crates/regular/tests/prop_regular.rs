//! Property-based tests for the regular-language toolkit.
//!
//! The key invariant: every representation of a language (regex via
//! derivatives, Thompson NFA, subset-construction DFA, minimized DFA, the
//! lazy views) must agree with Brzozowski membership ([`Regex::matches`]),
//! which shares no automaton code with them.

use proptest::prelude::*;
use shelley_regular::lang::{self, Complement, Lang, NfaView, Product};
use shelley_regular::{Alphabet, Dfa, Nfa, Regex, Symbol, Word};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

const NSYMS: usize = 3;

fn alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names(["a", "b", "c"]))
}

fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::empty()),
        Just(Regex::epsilon()),
        (0..NSYMS).prop_map(|i| Regex::sym(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(5, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::union(a, b)),
            inner.prop_map(Regex::star),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec((0..NSYMS).prop_map(Symbol::from_index), 0..8)
}

/// Every word over the three-symbol alphabet of length at most `max_len`,
/// in shortlex order.
fn words_up_to(max_len: usize) -> Vec<Vec<Symbol>> {
    let mut all = vec![Vec::new()];
    let mut layer: Vec<Vec<Symbol>> = vec![Vec::new()];
    for _ in 0..max_len {
        layer = layer
            .iter()
            .flat_map(|w| {
                (0..NSYMS).map(move |i| {
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

/// Whether some word leads `p` and `q` to states of different acceptance:
/// a breadth-first search over the pairs reachable from `(p, q)`.
fn distinguishable(dfa: &Dfa, p: usize, q: usize) -> bool {
    let mut seen = HashSet::from([(p, q)]);
    let mut queue = VecDeque::from([(p, q)]);
    while let Some((x, y)) = queue.pop_front() {
        if dfa.is_accepting(x) != dfa.is_accepting(y) {
            return true;
        }
        for s in dfa.alphabet().symbols() {
            let next = (dfa.step(x, s), dfa.step(y, s));
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    false
}

proptest! {
    /// Derivative-based membership agrees with the NFA and DFA pipelines.
    #[test]
    fn representations_agree(r in arb_regex(), w in arb_word()) {
        let ab = alphabet();
        let expected = r.matches(&w);
        let nfa = Nfa::from_regex(&r, ab.clone());
        prop_assert_eq!(nfa.accepts(&w), expected);
        let dfa = Dfa::from_nfa(&nfa);
        prop_assert_eq!(dfa.accepts(&w), expected);
        let min = dfa.minimize();
        prop_assert_eq!(min.accepts(&w), expected);
    }

    /// Hopcroft's output accepts the input DFA's language and is minimal,
    /// judged by an oracle that shares no code with the refinement: every
    /// state is reachable, every pair of states is told apart by some word
    /// (a breadth-first search over state pairs), and the language is the
    /// regex's on every word up to length 6.
    #[test]
    fn minimizers_agree(r in arb_regex()) {
        let ab = alphabet();
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab.clone()));
        let min = dfa.minimize();
        prop_assert!(min.equivalent(&dfa).is_ok());
        let n = min.num_states();

        let mut seen = vec![false; n];
        seen[min.start()] = true;
        let mut queue = VecDeque::from([min.start()]);
        while let Some(q) = queue.pop_front() {
            for s in ab.symbols() {
                let d = min.step(q, s);
                if !seen[d] {
                    seen[d] = true;
                    queue.push_back(d);
                }
            }
        }
        prop_assert!(seen.iter().all(|&reached| reached), "unreachable state in {:?}", min);

        for p in 0..n {
            for q in p + 1..n {
                prop_assert!(distinguishable(&min, p, q), "states {} and {} are equivalent", p, q);
            }
        }

        for w in words_up_to(6) {
            prop_assert_eq!(min.accepts(&w), r.matches(&w), "word {:?}", w);
        }
    }

    /// Minimizing twice is a fixpoint (state count stabilizes).
    #[test]
    fn minimize_is_idempotent(r in arb_regex()) {
        let ab = alphabet();
        let m1 = Dfa::from_nfa(&Nfa::from_regex(&r, ab)).minimize();
        let m2 = m1.minimize();
        prop_assert_eq!(m1.num_states(), m2.num_states());
    }

    /// Concatenation of languages corresponds to splitting the word.
    #[test]
    fn concat_splits(r1 in arb_regex(), r2 in arb_regex(), w in arb_word()) {
        let cat = Regex::concat(r1.clone(), r2.clone());
        let direct = cat.matches(&w);
        let split = (0..=w.len())
            .any(|i| r1.matches(&w[..i]) && r2.matches(&w[i..]));
        prop_assert_eq!(direct, split);
    }

    /// Union behaves pointwise.
    #[test]
    fn union_pointwise(r1 in arb_regex(), r2 in arb_regex(), w in arb_word()) {
        let u = Regex::union(r1.clone(), r2.clone());
        prop_assert_eq!(u.matches(&w), r1.matches(&w) || r2.matches(&w));
    }

    /// Star absorbs repetition: if w ∈ L(r*) and v ∈ L(r*) then wv ∈ L(r*).
    #[test]
    fn star_is_closed_under_concat(
        r in arb_regex(),
        w in arb_word(),
        v in arb_word()
    ) {
        let star = Regex::star(r);
        if star.matches(&w) && star.matches(&v) {
            let mut wv = w.clone();
            wv.extend_from_slice(&v);
            prop_assert!(star.matches(&wv));
        }
    }

    /// Enumerated words are all members; membership of enumerated words is
    /// complete up to the bound.
    #[test]
    fn enumeration_sound_and_complete(r in arb_regex()) {
        let ab = alphabet();
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab));
        let words = dfa.enumerate_words(4, 2000);
        for w in &words {
            prop_assert!(r.matches(w), "enumerated non-member {:?}", w);
        }
        // Cross-check counts (only when the enumeration wasn't truncated).
        if words.len() < 2000 {
            let counts = dfa.count_words_by_length(4);
            let total: u64 = counts.iter().sum();
            prop_assert_eq!(total, words.len() as u64);
        }
    }

    /// `subset_of` counterexamples are genuine.
    #[test]
    fn subset_counterexamples_are_real(r1 in arb_regex(), r2 in arb_regex()) {
        let ab = alphabet();
        let d1 = Dfa::from_nfa(&Nfa::from_regex(&r1, ab.clone()));
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&r2, ab));
        match d1.subset_of(&d2) {
            Ok(()) => {
                // Spot-check on enumerated words of d1.
                for w in d1.enumerate_words(3, 50) {
                    prop_assert!(d2.accepts(&w));
                }
            }
            Err(w) => {
                prop_assert!(d1.accepts(&w));
                prop_assert!(!d2.accepts(&w));
            }
        }
    }

    /// Erasing all symbols of a word-regex leaves only ε.
    #[test]
    fn erase_everything_gives_epsilon(w in arb_word()) {
        let ab = alphabet();
        let r = Regex::word(&w);
        let nfa = Nfa::from_regex(&r, ab.clone());
        let all: std::collections::BTreeSet<Symbol> = ab.symbols().collect();
        let erased = nfa.erase_symbols(&all);
        prop_assert!(erased.accepts(&[]));
    }
}

/// One mutation of a [`shelley_regular::StateSet`] under test against its
/// `BTreeSet<usize>` model.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    UnionPrepared(Vec<usize>),
    IntersectPrepared(Vec<usize>),
    DifferencePrepared(Vec<usize>),
    Clear,
}

fn arb_set_op(capacity: usize) -> impl Strategy<Value = SetOp> {
    prop_oneof![
        4 => (0..capacity).prop_map(SetOp::Insert),
        2 => proptest::collection::vec(0..capacity, 0..8).prop_map(SetOp::UnionPrepared),
        2 => proptest::collection::vec(0..capacity, 0..8).prop_map(SetOp::IntersectPrepared),
        2 => proptest::collection::vec(0..capacity, 0..8).prop_map(SetOp::DifferencePrepared),
        1 => Just(SetOp::Clear),
    ]
}

fn hash_of(value: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    /// `StateSet` agrees with a `BTreeSet<usize>` model under every
    /// interleaving of insert/union/clear: same membership, same ascending
    /// iteration order, same emptiness and length, and Eq/Hash consistent
    /// with set equality.
    #[test]
    fn stateset_matches_btreeset_model(
        capacity in 1usize..200,
        ops in proptest::collection::vec(arb_set_op(199), 0..40)
    ) {
        use shelley_regular::StateSet;
        use std::collections::BTreeSet;
        let mut set = StateSet::new(capacity);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Insert(q) => {
                    let q = q % capacity;
                    prop_assert_eq!(set.insert(q), model.insert(q));
                }
                SetOp::UnionPrepared(items) => {
                    let mut other = StateSet::new(capacity);
                    for q in items {
                        let q = q % capacity;
                        other.insert(q);
                        model.insert(q);
                    }
                    prop_assert_eq!(
                        set.intersects(&other),
                        other.iter().any(|q| set.contains(q))
                    );
                    set.union_with(&other);
                }
                SetOp::IntersectPrepared(items) => {
                    let mut other = StateSet::new(capacity);
                    let mut other_model: BTreeSet<usize> = BTreeSet::new();
                    for q in items {
                        let q = q % capacity;
                        other.insert(q);
                        other_model.insert(q);
                    }
                    set.intersect_with(&other);
                    model = model.intersection(&other_model).copied().collect();
                }
                SetOp::DifferencePrepared(items) => {
                    let mut other = StateSet::new(capacity);
                    let mut other_model: BTreeSet<usize> = BTreeSet::new();
                    for q in items {
                        let q = q % capacity;
                        other.insert(q);
                        other_model.insert(q);
                    }
                    set.difference_with(&other);
                    model = model.difference(&other_model).copied().collect();
                }
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            // Iteration order, length, membership, emptiness.
            let elements: Vec<usize> = set.iter().collect();
            let expected: Vec<usize> = model.iter().copied().collect();
            prop_assert_eq!(&elements, &expected);
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            for q in 0..capacity {
                prop_assert_eq!(set.contains(q), model.contains(&q));
            }
            // Eq/Hash consistency: rebuilding the same contents in a
            // different order yields an equal set with an equal hash.
            let mut rebuilt = StateSet::new(capacity);
            for &q in model.iter().rev() {
                rebuilt.insert(q);
            }
            prop_assert_eq!(&rebuilt, &set);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&set));
        }
    }
}

/// Words up to this length judge each view's shortest word; the
/// materialized table is judged on words one shorter.
const BOUND: usize = 5;

/// Checks one view against its membership predicate `member`, given in
/// shortlex order over `words` (every word of length ≤ [`BOUND`]):
/// [`lang::shortest_accepted`] is the first member, and the
/// [`lang::materialize`]d table accepts exactly the members of length
/// ≤ `BOUND - 1`.
fn assert_view_agrees<L: Lang>(
    view: &L,
    words: &[Word],
    member: &[bool],
    what: &str,
) -> Result<(), TestCaseError> {
    let first = words
        .iter()
        .zip(member)
        .find(|(_, &m)| m)
        .map(|(w, _)| w.clone());
    match lang::shortest_accepted(view) {
        // Longer than the enumeration: no member may be shorter.
        Some(w) if w.len() > BOUND => {
            prop_assert_eq!(first, None, "{}: missed a shorter word", what)
        }
        found => prop_assert_eq!(found, first, "{}: shortest word", what),
    }
    let dfa = lang::materialize(view);
    for (w, &m) in words.iter().zip(member).filter(|(w, _)| w.len() < BOUND) {
        prop_assert_eq!(dfa.accepts(w), m, "{}: materialized table on {:?}", what, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every view and combinator is judged by Brzozowski membership: the
    /// subset view, its complement, and the three products of two random
    /// regexes.
    #[test]
    fn views_agree_with_membership(r1 in arb_regex(), r2 in arb_regex()) {
        let ab = alphabet();
        let n1 = Nfa::from_regex(&r1, ab.clone());
        let n2 = Nfa::from_regex(&r2, ab);
        let (v1, v2) = (NfaView::new(&n1), NfaView::new(&n2));
        let words = words_up_to(BOUND);
        let in1: Vec<bool> = words.iter().map(|w| r1.matches(w)).collect();
        let in2: Vec<bool> = words.iter().map(|w| r2.matches(w)).collect();
        let judge = |f: fn(bool, bool) -> bool| -> Vec<bool> {
            in1.iter().zip(&in2).map(|(&x, &y)| f(x, y)).collect()
        };
        assert_view_agrees(&v1, &words, &in1, "NfaView")?;
        let complement = Complement::new(&v1);
        assert_view_agrees(&complement, &words, &judge(|x, _| !x), "complement")?;
        let and = Product::intersection(&v1, &v2);
        assert_view_agrees(&and, &words, &judge(|x, y| x && y), "intersection")?;
        let or = Product::union(&v1, &v2);
        assert_view_agrees(&or, &words, &judge(|x, y| x || y), "union")?;
        let diff = Product::difference(&v1, &v2);
        assert_view_agrees(&diff, &words, &judge(|x, y| x && !y), "difference")?;
    }
}

proptest! {
    /// State elimination recovers the same language.
    #[test]
    fn to_regex_roundtrip(r in arb_regex()) {
        let ab = alphabet();
        let nfa = Nfa::from_regex(&r, ab.clone());
        let recovered = nfa.to_regex();
        let d1 = Dfa::from_nfa(&nfa);
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&recovered, ab));
        prop_assert!(d1.equivalent(&d2).is_ok());
    }

    /// DFA-to-regex after minimization also recovers the language.
    #[test]
    fn dfa_to_regex_roundtrip(r in arb_regex()) {
        let ab = alphabet();
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab.clone())).minimize();
        let back = dfa.to_regex();
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&back, ab));
        prop_assert!(dfa.equivalent(&d2).is_ok());
    }
}
