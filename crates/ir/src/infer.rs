//! Behavior inference (Fig. 4, *Behavior inference*).
//!
//! `⟦p⟧ = (r, s)` maps a program to a regular expression `r` of its ongoing
//! behavior plus a set `s` of returned behaviors; `infer(p)` merges them.
//! Theorem 1/2 of the paper state `l ∈ L(p) ⇔ l ∈ infer(p)` — both
//! directions are exercised by this crate's property tests against the
//! executable trace semantics.
//!
//! Besides the paper-faithful [`denote`]/[`infer`], this module provides
//! [`denote_exits`], which tags every returned behavior with the
//! [`ExitId`](crate::ExitId) of the `return` that produced it. Shelley's
//! model construction (§3.1) needs that association: each return site
//! declares its own set of next operations.

use crate::program::{ExitId, Program};
use shelley_regular::Regex;

/// The denotation `⟦p⟧ = (r, s)`: ongoing behavior and the set of returned
/// behaviors.
///
/// # Examples
///
/// Example 3 of the paper:
///
/// ```
/// use shelley_ir::{denote, Program};
/// use shelley_regular::{Alphabet, Regex};
///
/// let mut ab = Alphabet::new();
/// let (a, b, c) = (ab.intern("a"), ab.intern("b"), ab.intern("c"));
/// let p = Program::loop_(Program::seq(
///     Program::call(a),
///     Program::if_(
///         Program::seq(Program::call(b), Program::ret(0)),
///         Program::call(c),
///     ),
/// ));
/// let (ongoing, returned) = denote(&p);
/// // Ongoing component: (a·(b·∅ + c))*  — simplified to (a·c)* by the
/// // smart constructors since b·∅ = ∅ and ∅+c = c.
/// assert!(ongoing.matches(&[a, c, a, c]));
/// assert!(!ongoing.matches(&[a, b]));
/// // Returned component: (a·(b·∅ + c))*·a·b.
/// assert_eq!(returned.len(), 1);
/// assert!(returned[0].matches(&[a, c, a, b]));
/// ```
pub fn denote(p: &Program) -> (Regex, Vec<Regex>) {
    let (r, s) = denote_exits(p);
    let mut returned: Vec<Regex> = Vec::new();
    for (_, b) in s {
        // Set semantics: deduplicate structurally-equal behaviors.
        if !returned.contains(&b) {
            returned.push(b);
        }
    }
    (r, returned)
}

/// The denotation with returned behaviors tagged by their return site.
///
/// Every `(exit, r)` pair gives the behavior of runs that end at the
/// `return` with id `exit`. Exit ids are unique per `return` node, so each
/// appears at most once.
pub fn denote_exits(p: &Program) -> (Regex, Vec<(ExitId, Regex)>) {
    match p {
        // ⟦f()⟧ = (f, ∅)
        Program::Call(f) => (Regex::sym(*f), Vec::new()),
        // ⟦skip⟧ = (ε, ∅)
        Program::Skip => (Regex::epsilon(), Vec::new()),
        // ⟦return⟧ = (∅, {ε})
        Program::Return(e) => (Regex::empty(), vec![(*e, Regex::epsilon())]),
        // ⟦p1;p2⟧ = (r1·r2, {r1·r | r ∈ s2} ∪ s1)
        Program::Seq(p1, p2) => {
            let (r1, s1) = denote_exits(p1);
            let (r2, s2) = denote_exits(p2);
            let mut s: Vec<(ExitId, Regex)> = s2
                .into_iter()
                .map(|(e, r)| (e, Regex::concat(r1.clone(), r)))
                .collect();
            s.extend(s1);
            (Regex::concat(r1, r2), s)
        }
        // ⟦if(*){p1}else{p2}⟧ = (r1+r2, s1 ∪ s2)
        Program::If(p1, p2) => {
            let (r1, s1) = denote_exits(p1);
            let (r2, s2) = denote_exits(p2);
            let mut s = s1;
            s.extend(s2);
            (Regex::union(r1, r2), s)
        }
        // ⟦loop(*){p1}⟧ = (r1*, {r1*·r | r ∈ s1})
        Program::Loop(p1) => {
            let (r1, s1) = denote_exits(p1);
            let star = Regex::star(r1);
            let s = s1
                .into_iter()
                .map(|(e, r)| (e, Regex::concat(star.clone(), r)))
                .collect();
            (star, s)
        }
    }
}

/// The return sites some run of `p` reaches, ascending and without
/// repeats: exactly the exits whose tagged behavior in [`denote_exits`] is
/// nonempty, found by one walk that builds no regular expression.
///
/// The walk tracks whether a run entering a subprogram can complete it
/// normally: a sequence enters its second part only then, a choice
/// completes if either arm does, and a loop always completes (it may run
/// zero times).
///
/// # Examples
///
/// ```
/// use shelley_ir::{live_exits, Program};
/// use shelley_regular::Alphabet;
///
/// let mut ab = Alphabet::new();
/// let a = ab.intern("a");
/// // `if(*){ return₀ } else { a() }; return₁; return₂` — the last
/// // return follows one that always leaves.
/// let p = Program::seq_all([
///     Program::if_(Program::ret(0), Program::call(a)),
///     Program::ret(1),
///     Program::ret(2),
/// ]);
/// assert_eq!(live_exits(&p), [0, 1]);
/// ```
pub fn live_exits(p: &Program) -> Vec<ExitId> {
    let mut live = Vec::new();
    reach(p, &mut live);
    live.sort_unstable();
    live.dedup();
    live
}

/// Records in `live` the returns a run entering `p` reaches, and returns
/// whether such a run can complete `p` normally.
fn reach(p: &Program, live: &mut Vec<ExitId>) -> bool {
    match p {
        Program::Call(_) | Program::Skip => true,
        Program::Return(e) => {
            live.push(*e);
            false
        }
        Program::Seq(p1, p2) => reach(p1, live) && reach(p2, live),
        Program::If(p1, p2) => {
            let first = reach(p1, live);
            reach(p2, live) || first
        }
        Program::Loop(body) => {
            reach(body, live);
            true
        }
    }
}

/// `infer(p) = r + r'₁ + ⋯ + r'ₙ` where `⟦p⟧ = (r, {r'₁, …, r'ₙ})`.
///
/// By Theorems 1 and 2 of the paper, `L(infer(p)) = L(p)` — the behavior of
/// a program is a regular language (Corollary 1).
///
/// # Examples
///
/// ```
/// use shelley_ir::{infer, Program, Status, TraceChecker};
/// use shelley_regular::Alphabet;
///
/// let mut ab = Alphabet::new();
/// let f = ab.intern("f");
/// let p = Program::seq(Program::call(f), Program::ret(0));
/// let behavior = infer(&p);
/// assert!(behavior.matches(&[f]));
/// assert!(!behavior.matches(&[f, f]));
/// ```
pub fn infer(p: &Program) -> Regex {
    let (r, s) = denote(p);
    Regex::union_all(std::iter::once(r).chain(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{enumerate_traces, EnumConfig, Status, TraceChecker};
    use shelley_regular::{Alphabet, Symbol};

    fn example_program() -> (Alphabet, Symbol, Symbol, Symbol, Program) {
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
        (ab, a, b, c, p)
    }

    #[test]
    fn example3_denotation_shape() {
        let (ab, a, b, c, p) = example_program();
        let (r, s) = denote(&p);
        // With smart constructors, (a·(b·∅+c))* simplifies to (a·c)*.
        assert_eq!(r.display(&ab).to_string(), "(a · c)*");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].display(&ab).to_string(), "(a · c)* · a · b");
        let _ = (a, b, c);
    }

    #[test]
    fn atoms_denotation() {
        let mut ab = Alphabet::new();
        let f = ab.intern("f");
        assert_eq!(denote(&Program::call(f)), (Regex::sym(f), vec![]));
        assert_eq!(denote(&Program::skip()), (Regex::epsilon(), vec![]));
        assert_eq!(
            denote(&Program::ret(3)),
            (Regex::empty(), vec![Regex::epsilon()])
        );
    }

    #[test]
    fn seq_early_return_kept() {
        let mut ab = Alphabet::new();
        let f = ab.intern("f");
        let g = ab.intern("g");
        // if(*){ f(); return } else { skip }; g()
        let p = Program::seq(
            Program::if_(
                Program::seq(Program::call(f), Program::ret(0)),
                Program::skip(),
            ),
            Program::call(g),
        );
        let behavior = infer(&p);
        assert!(behavior.matches(&[f])); // early return path
        assert!(behavior.matches(&[g])); // skip path, ongoing
        assert!(!behavior.matches(&[f, g])); // nothing follows a return
    }

    #[test]
    fn exit_tags_are_preserved_and_unique() {
        let mut ab = Alphabet::new();
        let f = ab.intern("f");
        // loop with exit 1 inside, then exit 2 at the end.
        let p = Program::seq(
            Program::loop_(Program::if_(
                Program::seq(Program::call(f), Program::ret(1)),
                Program::skip(),
            )),
            Program::ret(2),
        );
        let (_, exits) = denote_exits(&p);
        let mut ids: Vec<ExitId> = exits.iter().map(|(e, _)| *e).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        for (e, r) in &exits {
            match e {
                1 => assert!(r.matches(&[f])),
                2 => assert!(r.matches(&[])),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn theorem1_on_bounded_enumeration() {
        let (_, _, _, _, p) = example_program();
        let behavior = infer(&p);
        for (_, trace) in enumerate_traces(&p, EnumConfig::default()) {
            assert!(behavior.matches(&trace), "soundness fails on {trace:?}");
        }
    }

    #[test]
    fn theorem2_on_enumerated_words() {
        use shelley_regular::{Dfa, Nfa};
        use std::sync::Arc;
        let (ab, _, _, _, p) = example_program();
        let behavior = infer(&p);
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&behavior, Arc::new(ab)));
        let checker = TraceChecker::new(&p);
        for word in dfa.enumerate_words(6, 500) {
            assert!(checker.in_language(&word), "completeness fails on {word:?}");
        }
    }

    #[test]
    fn statuses_split_between_components() {
        let (_, a, b, c, p) = example_program();
        let (r, s) = denote(&p);
        let checker = TraceChecker::new(&p);
        // Ongoing traces live in r.
        assert!(r.matches(&[a, c]));
        assert!(checker.derivable(Status::Ongoing, &[a, c]));
        // Returned traces live in s.
        assert!(s[0].matches(&[a, b]));
        assert!(checker.derivable(Status::Returned, &[a, b]));
        // And not vice versa.
        assert!(!r.matches(&[a, b]));
        assert!(!s[0].matches(&[a, c]));
    }
}
