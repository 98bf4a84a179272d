//! The differential claim harness: the claim check runs on random
//! system/claim pairs and must agree with two oracles that share no
//! automaton code with it — the paper's trace semantics ([`eval`]) and a
//! brute-force path enumeration ([`Nfa::least_path_word`]).
//!
//! Every verdict and witness must equal the enumeration's least violating
//! path (fewest symbols, then NFA edge order), judged by [`eval`] on its
//! marker-free projection; every witness must be matched by the model's
//! regex ([`Regex::matches`], Brzozowski derivatives) and violate the
//! claim; and every `Holds` verdict is confirmed by brute force: each word
//! of length at most [`BRUTE_FORCE_LEN`] that the regex matches satisfies
//! the claim.
//!
//! The generator is a hand-rolled LCG so the suite is deterministic
//! across platforms and needs no dev-dependency beyond the crates under
//! test.

use shelley_ltlf::{check_claim, eval, parse_formula, ClaimOutcome, Formula};
use shelley_regular::ops::strip_markers;
use shelley_regular::{parse_regex, Alphabet, Nfa, Regex, Symbol, Word};
use std::collections::BTreeSet;
use std::sync::Arc;

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

const SYMBOLS: [&str; 3] = ["a", "b", "c"];

/// A random regular expression in the `parse_regex` surface syntax.
fn random_regex(rng: &mut Lcg, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        // Leaves are single symbols, with an occasional `void` to hit
        // empty-language corners (the parser constant-folds it away in
        // most positions, which is fine — some survive).
        return match rng.below(8) {
            0 => "void".to_owned(),
            i => SYMBOLS[(i % 3) as usize].to_owned(),
        };
    }
    let left = random_regex(rng, depth - 1);
    let right = random_regex(rng, depth - 1);
    match rng.below(4) {
        0 => format!("({left} ; {right})"),
        1 => format!("({left} + {right})"),
        2 => format!("({left})*"),
        _ => format!("(({left} + {right}))*"),
    }
}

/// A random LTLf claim in the `parse_formula` surface syntax.
fn random_formula(rng: &mut Lcg, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return SYMBOLS[rng.below(3) as usize].to_owned();
    }
    let left = random_formula(rng, depth - 1);
    let right = random_formula(rng, depth - 1);
    match rng.below(9) {
        0 => format!("(! {left})"),
        1 => format!("(G {left})"),
        2 => format!("(F {left})"),
        3 => format!("(X {left})"),
        4 => format!("({left} & {right})"),
        5 => format!("({left} | {right})"),
        6 => format!("({left} U {right})"),
        7 => format!("({left} W {right})"),
        _ => format!("({left} -> {right})"),
    }
}

/// Words up to this length are enumerated to confirm `Holds` verdicts.
const BRUTE_FORCE_LEN: usize = 5;

/// One random pair: a model (as a regex and its NFA) and a claim over a
/// shared 3-symbol alphabet.
fn random_pair(rng: &mut Lcg) -> (Regex, Nfa, Formula) {
    let mut ab = Alphabet::new();
    for name in SYMBOLS {
        ab.intern(name);
    }
    let formula_depth = 1 + (rng.below(3) as u32);
    let formula_text = random_formula(rng, formula_depth);
    let regex_depth = 1 + (rng.below(3) as u32);
    let regex_text = random_regex(rng, regex_depth);
    let claim = parse_formula(&formula_text, &mut ab).expect("generated formulas parse");
    let regex = parse_regex(&regex_text, &mut ab).expect("generated regexes parse");
    let nfa = Nfa::from_regex(&regex, Arc::new(ab));
    (regex, nfa, claim)
}

/// Every word over `{a, b, c}` of length at most [`BRUTE_FORCE_LEN`].
fn short_words() -> Vec<Word> {
    let mut all = vec![Vec::new()];
    let mut layer: Vec<Word> = vec![Vec::new()];
    for _ in 0..BRUTE_FORCE_LEN {
        layer = layer
            .iter()
            .flat_map(|w| {
                (0..SYMBOLS.len()).map(move |i| {
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

/// Witnesses are compared with the path enumeration word for word up to
/// this many symbols (markers included).
const ORACLE_LEN: usize = 6;

/// Checks one pair's outcome against the oracles; returns whether the
/// claim was violated. The claim observes only the marker-free projection
/// of each model word.
fn check_against_oracle(
    case: usize,
    regex: &Regex,
    model: &Nfa,
    claim: &Formula,
    markers: &BTreeSet<Symbol>,
    words: &[Word],
) -> bool {
    let outcome = check_claim(model, claim, markers);
    let satisfies = |w: &[Symbol]| eval(claim, &strip_markers(w, markers));
    let least = model.least_path_word(ORACLE_LEN, |w| !satisfies(w));
    match outcome {
        ClaimOutcome::Holds => {
            assert_eq!(
                least, None,
                "case {case}: Holds, but the oracle found a violation"
            );
            for w in words {
                assert!(
                    !regex.matches(w) || satisfies(w),
                    "case {case}: Holds, but the model word {w:?} violates the claim"
                );
            }
            false
        }
        ClaimOutcome::Violated { counterexample } => {
            assert!(
                regex.matches(&counterexample),
                "case {case}: witness not in the model"
            );
            assert!(
                !satisfies(&counterexample),
                "case {case}: witness satisfies"
            );
            if counterexample.len() <= ORACLE_LEN {
                assert_eq!(
                    Some(counterexample),
                    least,
                    "case {case}: witness differs from the least violating path"
                );
            } else {
                assert_eq!(least, None, "case {case}: missed a shorter witness");
            }
            true
        }
    }
}

#[test]
fn claim_checks_agree_with_the_trace_semantics_and_the_path_oracle() {
    let markers = BTreeSet::new();
    let words = short_words();
    let mut rng = Lcg(0x5eed_0001);
    let mut violations = 0usize;
    const PAIRS: usize = 1500;
    for case in 0..PAIRS {
        let (regex, model, claim) = random_pair(&mut rng);
        if check_against_oracle(case, &regex, &model, &claim, &markers, &words) {
            violations += 1;
        }
    }
    // The generator must exercise both verdicts substantially, or the
    // agreement above is vacuous.
    assert!(
        violations > PAIRS / 10 && violations < PAIRS * 9 / 10,
        "unbalanced generator: {violations}/{PAIRS} violations"
    );
}

#[test]
fn claim_checks_agree_with_markers_in_the_model() {
    // Markers cost one step like any event; the claim judges each word's
    // marker-free projection.
    let words = short_words();
    let mut rng = Lcg(0x5eed_0002);
    for case in 0..300 {
        let (regex, model, claim) = random_pair(&mut rng);
        // Promote one symbol to a marker: the claim never observes it.
        let marker = model
            .alphabet()
            .lookup(SYMBOLS[rng.below(3) as usize])
            .unwrap();
        let markers = BTreeSet::from([marker]);
        check_against_oracle(case, &regex, &model, &claim, &markers, &words);
    }
}

#[test]
fn equally_short_witnesses_follow_nfa_edge_order() {
    // Model `c + a`, claim `G !a & G !c`: both one-symbol words violate;
    // the `c` edge comes first, although `a` is interned first.
    let mut ab = Alphabet::new();
    for name in SYMBOLS {
        ab.intern(name);
    }
    let claim = parse_formula("G !a & G !c", &mut ab).unwrap();
    let regex = parse_regex("c + a", &mut ab).unwrap();
    let ab = Arc::new(ab);
    let model = Nfa::from_regex(&regex, ab.clone());
    match check_claim(&model, &claim, &BTreeSet::new()) {
        ClaimOutcome::Violated { counterexample } => {
            assert_eq!(ab.render_word(&counterexample), "c");
        }
        ClaimOutcome::Holds => panic!("the claim is violated"),
    }
    check_against_oracle(0, &regex, &model, &claim, &BTreeSet::new(), &short_words());
}
