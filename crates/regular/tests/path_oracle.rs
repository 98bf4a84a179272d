//! The inclusion search against an independent witness oracle.
//!
//! [`Nfa::least_path_word`] enumerates the model's paths by brute force in
//! the search's order (fewest symbols, then NFA edge order) and judges each
//! word with Brzozowski membership ([`Regex::matches`]) — no automaton
//! product, no monitor, no pruning. The search must return exactly its
//! word: for subsystem usage (the complemented subset view, pruned by `⊇`),
//! for plain joint words (the subset view, pruned by `⊆`), and for an eager
//! DFA monitor, which covers only equal states and so runs the search
//! unpruned.

use proptest::prelude::*;
use shelley_regular::antichain::joint_search;
use shelley_regular::lang::{Complement, NfaView};
use shelley_regular::ops::strip_markers;
use shelley_regular::{parse_regex, Alphabet, Dfa, Nfa, Regex, Symbol, Word};
use std::collections::BTreeSet;
use std::sync::Arc;

const NSYMS: usize = 3;

/// Witnesses are compared exactly up to this many symbols (markers
/// included); past it the oracle only confirms there is no shorter one.
const BOUND: usize = 6;

fn alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names(["a", "b", "c"]))
}

/// Asserts that `found` is the oracle's answer for `model` under `pred`.
fn assert_oracle(
    found: Option<Word>,
    model: &Nfa,
    pred: impl FnMut(&[Symbol]) -> bool,
    what: &str,
) {
    let oracle = model.least_path_word(BOUND, pred);
    match &found {
        Some(w) if w.len() > BOUND => assert_eq!(oracle, None, "{what}: missed a shorter witness"),
        _ => assert_eq!(found, oracle, "{what}"),
    }
}

/// Runs the usage and the joint search of `model` against `spec` on every
/// monitor shape and checks each against the oracle; returns how many
/// usage violations were compared.
fn check_pair(r1: &Regex, r2: &Regex, markers: &BTreeSet<Symbol>) -> usize {
    let ab = alphabet();
    let model = Nfa::from_regex(r1, ab.clone());
    let spec = Nfa::from_regex(r2, ab);
    let in_spec = |w: &[Symbol]| r2.matches(&strip_markers(w, markers));
    let what = format!("model {r1:?}, spec {r2:?}, markers {markers:?}");

    let usage = joint_search(&model, &Complement::new(NfaView::new(&spec)), markers);
    let unpruned = joint_search(&model, &Dfa::from_nfa(&spec).complement(), markers);
    assert_eq!(
        usage.witness, unpruned.witness,
        "pruning changed the witness: {what}"
    );
    assert_oracle(usage.witness.clone(), &model, |w| !in_spec(w), &what);

    let joint = joint_search(&model, &NfaView::new(&spec), markers);
    assert_oracle(joint.witness, &model, in_spec, &what);
    usize::from(usage.witness.is_some())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Random regex pairs, with no marker or one of the three symbols as
    /// a marker.
    #[test]
    fn witnesses_equal_the_oracle(r1 in arb_regex(), r2 in arb_regex(), marker in 0..NSYMS + 1) {
        let markers: BTreeSet<Symbol> =
            (marker < NSYMS).then(|| Symbol::from_index(marker)).into_iter().collect();
        check_pair(&r1, &r2, &markers);
    }
}

/// A 64-bit linear congruential generator (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random regex deeper than the proptest strategy's, with ε leaves: the
/// NFAs get states with several ε-edges, which is where the edge order of
/// the 0-1 search matters most.
fn deep_regex(rng: &mut Lcg, depth: u32) -> Regex {
    if depth == 0 || rng.below(5) == 0 {
        return match rng.below(9) {
            0 => Regex::empty(),
            1 | 2 => Regex::epsilon(),
            i => Regex::sym(Symbol::from_index((i % 3) as usize)),
        };
    }
    let left = deep_regex(rng, depth - 1);
    match rng.below(3) {
        0 => Regex::concat(left, deep_regex(rng, depth - 1)),
        1 => Regex::union(left, deep_regex(rng, depth - 1)),
        _ => Regex::star(left),
    }
}

#[test]
fn deep_random_pairs_equal_the_oracle() {
    let mut rng = Lcg(0x5eed_0003);
    let mut violations = 0;
    const PAIRS: usize = 1500;
    for _ in 0..PAIRS {
        let r1 = deep_regex(&mut rng, 6);
        let r2 = deep_regex(&mut rng, 5);
        let marker = rng.below(NSYMS as u64 + 1) as usize;
        let markers: BTreeSet<Symbol> = (marker < NSYMS)
            .then(|| Symbol::from_index(marker))
            .into_iter()
            .collect();
        violations += check_pair(&r1, &r2, &markers);
    }
    assert!(
        violations > PAIRS / 4,
        "too few violations to compare: {violations}/{PAIRS}"
    );
}

#[test]
fn edge_order_decides_between_equally_short_witnesses() {
    // `c + a`: the `c` edge is added first, so `c` is the witness even
    // though `a` is interned first.
    let mut ab = Alphabet::new();
    ab.intern("a");
    let model = parse_regex("c + a", &mut ab).unwrap();
    let ab = Arc::new(ab);
    let model_nfa = Nfa::from_regex(&model, ab.clone());
    let void = Nfa::from_regex(&Regex::Empty, ab.clone());
    let found = joint_search(
        &model_nfa,
        &Complement::new(NfaView::new(&void)),
        &BTreeSet::new(),
    );
    assert_eq!(ab.render_word(&found.witness.clone().unwrap()), "c");
    assert_eq!(model_nfa.least_path_word(BOUND, |_| true), found.witness);
}

#[test]
fn later_epsilon_edges_are_searched_first() {
    // `(a* ; c) + (b* ; b)`: the start state's two ε-edges lead to the two
    // stars' hubs; the 0-1 search pushes both at the front, so the second
    // one is expanded first and `b` is found before `c`.
    let mut ab = Alphabet::new();
    let model = parse_regex("(a* ; c) + (b* ; b)", &mut ab).unwrap();
    let ab = Arc::new(ab);
    let model = Nfa::from_regex(&model, ab.clone());
    let void = Nfa::from_regex(&Regex::Empty, ab.clone());
    let found = joint_search(
        &model,
        &Complement::new(NfaView::new(&void)),
        &BTreeSet::new(),
    );
    let oracle = model.least_path_word(BOUND, |_| true);
    assert_eq!(found.witness, oracle);
    assert_eq!(ab.render_word(&oracle.unwrap()), "b");
}
