//! Executable counterparts of the paper's metatheory.
//!
//! * **Theorem 1 (Soundness):** if `l ∈ L(p)` then `l ∈ infer(p)`.
//! * **Theorem 2 (Completeness):** if `l ∈ infer(p)` then `l ∈ L(p)`.
//! * **Corollary 1 (Regularity):** `L(p)` is a regular language.
//!
//! The paper proves these in Coq; here they are checked executably on
//! (a) an exhaustive space of small programs and (b) a randomized space of
//! larger programs, with the trace semantics (`TraceChecker`,
//! `enumerate_traces`) on one side and behavior inference (`infer`,
//! compiled to automata) on the other. The two sides are implemented
//! independently, so agreement is strong evidence of faithfulness.

use proptest::prelude::*;
use shelley_ir::{
    denote, denote_exits, enumerate_traces, infer, live_exits, EnumConfig, Program, Status,
    TraceChecker,
};
use shelley_regular::{Alphabet, Dfa, Nfa, Regex, Symbol};
use std::sync::Arc;

const NSYMS: usize = 3;

fn alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names(["a", "b", "c"]))
}

fn arb_program() -> impl Strategy<Value = Program> {
    let leaf = prop_oneof![
        3 => (0..NSYMS).prop_map(|i| Program::call(Symbol::from_index(i))),
        1 => Just(Program::skip()),
        1 => (0..1000usize).prop_map(Program::ret),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Program::seq(a, b)),
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Program::if_(a, b)),
            1 => inner.prop_map(Program::loop_),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec((0..NSYMS).prop_map(Symbol::from_index), 0..6)
}

proptest! {
    /// Theorem 1 on enumerated semantic traces.
    #[test]
    fn soundness(p in arb_program()) {
        let behavior = infer(&p);
        let cfg = EnumConfig { max_len: 5, max_iters: 3, max_traces: 2000 };
        for (_, trace) in enumerate_traces(&p, cfg) {
            prop_assert!(
                behavior.matches(&trace),
                "trace {:?} derivable but not inferred",
                trace
            );
        }
    }

    /// Theorem 2 on enumerated words of the inferred behavior.
    #[test]
    fn completeness(p in arb_program()) {
        let ab = alphabet();
        let behavior = infer(&p);
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&behavior, ab));
        let checker = TraceChecker::new(&p);
        for word in dfa.enumerate_words(5, 500) {
            prop_assert!(
                checker.in_language(&word),
                "word {:?} inferred but not derivable",
                word
            );
        }
    }

    /// Both directions at once on arbitrary words: membership in L(p)
    /// coincides with membership in infer(p).
    #[test]
    fn correctness_pointwise(p in arb_program(), w in arb_word()) {
        let checker = TraceChecker::new(&p);
        let behavior = infer(&p);
        prop_assert_eq!(checker.in_language(&w), behavior.matches(&w));
    }

    /// The status split agrees with the two components of ⟦p⟧: ongoing
    /// traces are matched by r, returned traces by some element of s.
    #[test]
    fn status_split(p in arb_program(), w in arb_word()) {
        let checker = TraceChecker::new(&p);
        let (r, s) = denote(&p);
        prop_assert_eq!(
            checker.derivable(Status::Ongoing, &w),
            r.matches(&w),
            "ongoing component disagrees"
        );
        prop_assert_eq!(
            checker.derivable(Status::Returned, &w),
            s.iter().any(|ri| ri.matches(&w)),
            "returned component disagrees"
        );
    }

    /// Corollary 1: the behavior compiles to a DFA whose language agrees
    /// with the semantics (regularity, witnessed constructively).
    #[test]
    fn regularity(p in arb_program(), w in arb_word()) {
        let ab = alphabet();
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&infer(&p), ab)).minimize();
        let checker = TraceChecker::new(&p);
        prop_assert_eq!(dfa.accepts(&w), checker.in_language(&w));
    }

    /// The exit-tagged denotation refines the paper's: the union of its
    /// returned behaviors equals the returned component of ⟦p⟧.
    #[test]
    fn exit_tagging_refines_denotation(p in arb_program(), w in arb_word()) {
        let (r_plain, s_plain) = denote(&p);
        let (r_tagged, s_tagged) = denote_exits(&p);
        prop_assert_eq!(r_plain.matches(&w), r_tagged.matches(&w));
        let plain_any = s_plain.iter().any(|ri| ri.matches(&w));
        let tagged_any = s_tagged.iter().any(|(_, ri)| ri.matches(&w));
        prop_assert_eq!(plain_any, tagged_any);
    }
}

/// Programs whose returns share a few exit ids, as a lowered `try` body
/// (lowered more than once) makes them share.
fn arb_program_shared_exits() -> impl Strategy<Value = Program> {
    let leaf = prop_oneof![
        2 => (0..NSYMS).prop_map(|i| Program::call(Symbol::from_index(i))),
        1 => Just(Program::skip()),
        2 => (0..4usize).prop_map(Program::ret),
    ];
    leaf.prop_recursive(5, 32, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Program::seq(a, b)),
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Program::if_(a, b)),
            1 => inner.prop_map(Program::loop_),
        ]
    })
}

/// The exits whose tagged behavior is nonempty, ascending: the oracle of
/// [`live_exits`].
fn nonempty_tagged_exits(p: &Program) -> Vec<usize> {
    let (_, tagged) = denote_exits(p);
    let mut live: Vec<usize> = tagged
        .iter()
        .filter(|(_, r)| !r.is_empty_language())
        .map(|&(e, _)| e)
        .collect();
    live.sort_unstable();
    live.dedup();
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reachability walk finds exactly the exits whose tagged regular
    /// expression is nonempty.
    #[test]
    fn live_exits_match_the_nonempty_tagged_exits(
        p in prop_oneof![arb_program(), arb_program_shared_exits()],
    ) {
        prop_assert_eq!(live_exits(&p), nonempty_tagged_exits(&p));
    }
}

/// Exhaustive check over every program of a small shape grammar: all
/// programs with at most 3 internal nodes over 2 symbols.
#[test]
fn exhaustive_small_programs() {
    let mut ab = Alphabet::new();
    let a = ab.intern("a");
    let b = ab.intern("b");
    let atoms = vec![
        Program::call(a),
        Program::call(b),
        Program::skip(),
        Program::ret(0),
    ];
    // Depth-2 combinations.
    let mut programs: Vec<Program> = atoms.clone();
    for x in &atoms {
        programs.push(Program::loop_(x.clone()));
        for y in &atoms {
            programs.push(Program::seq(x.clone(), y.clone()));
            programs.push(Program::if_(x.clone(), y.clone()));
        }
    }
    // One more layer over a sampled subset to keep the space tractable.
    let level2: Vec<Program> = programs.clone();
    for (i, x) in level2.iter().enumerate() {
        programs.push(Program::loop_(x.clone()));
        for y in level2.iter().skip(i % 7).step_by(7) {
            programs.push(Program::seq(x.clone(), y.clone()));
            programs.push(Program::if_(x.clone(), y.clone()));
        }
    }

    let words: Vec<Vec<Symbol>> = {
        let syms = [a, b];
        let mut ws: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..4 {
            let prev = ws.clone();
            for w in prev {
                if w.len() == ws.last().map_or(0, Vec::len) {
                    // grow only max-length words (breadth-first growth)
                }
                for &s in &syms {
                    let mut w2 = w.clone();
                    w2.push(s);
                    if w2.len() <= 4 && !ws.contains(&w2) {
                        ws.push(w2);
                    }
                }
            }
        }
        ws
    };

    for p in &programs {
        let checker = TraceChecker::new(p);
        let behavior = infer(p);
        for w in &words {
            assert_eq!(
                checker.in_language(w),
                behavior.matches(w),
                "program {:?} word {:?}",
                p,
                w
            );
        }
    }
}

/// The paper's Example 3, end to end, including the printed form.
#[test]
fn example3_exact() {
    let mut ab = Alphabet::new();
    let a = ab.intern("a");
    let b = ab.intern("b");
    let c = ab.intern("c");
    let p = Program::loop_(Program::seq(
        Program::call(a),
        Program::if_(
            Program::seq(Program::call(b), Program::ret(0)),
            Program::call(c),
        ),
    ));
    let (r, s) = denote(&p);
    // Paper: ((a·((b·∅)+c))*, {(a·((b·∅)+c))*·a·b}); our smart constructors
    // reduce b·∅ to ∅ and ∅+c to c.
    assert_eq!(r.display(&ab).to_string(), "(a · c)*");
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].display(&ab).to_string(), "(a · c)* · a · b");

    // Language equality with the unsimplified paper term.
    let paper_ongoing = Regex::Star(std::sync::Arc::new(Regex::Concat(
        std::sync::Arc::new(Regex::Sym(a)),
        std::sync::Arc::new(Regex::Union(
            std::sync::Arc::new(Regex::Concat(
                std::sync::Arc::new(Regex::Sym(b)),
                std::sync::Arc::new(Regex::Empty),
            )),
            std::sync::Arc::new(Regex::Sym(c)),
        )),
    )));
    let ab_rc = Arc::new(ab);
    let ours = Dfa::from_nfa(&Nfa::from_regex(&r, ab_rc.clone()));
    let papers = Dfa::from_nfa(&Nfa::from_regex(&paper_ongoing, ab_rc));
    assert!(ours.equivalent(&papers).is_ok());
}
