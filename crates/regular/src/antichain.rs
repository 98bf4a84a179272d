//! The inclusion search: one antichain-pruned joint search for `L(M) ⊆ L(B)`.
//!
//! Both of Shelley's specification errors ask whether every word of a model
//! NFA `M` (an integration automaton, or a base class's specification) lies
//! in a language `B`. [`joint_search`] answers by looking for a word of `M`
//! whose marker-erased projection a *monitor* of the complement of `B`
//! accepts: the [`Complement`](crate::lang::Complement) of the spec's
//! [`NfaView`](crate::lang::NfaView) for subsystem usage, the progression
//! monitor of `¬φ` for a temporal claim. The word it returns, markers
//! included, is the counterexample the error message prints.
//!
//! The traversal is a 0-1 breadth-first search over `(NFA state, monitor
//! state)` pairs: edges in NFA edge order, a FIFO deque, ε-edges pushed at
//! the front with cost 0, symbol and marker edges pushed at the back with
//! cost 1. Marker edges advance the NFA only.
//!
//! # Pruning
//!
//! Following the antichains of De Wulf, Doyen, Henzinger and Raskin
//! (CAV 2006), a newly discovered pair `(q, s)` is discarded when a pair
//! `(q, k)` the search already kept covers it ([`Lang::covers`]): every
//! continuation the monitor accepts from `s` it also accepts from `k`, so
//! any violation reachable from `(q, s)` is reachable from `(q, k)` by the
//! same remaining path. Complemented subset views cover by `⊇` on spec
//! macrostates — a smaller macrostate rejects more — which keeps the spec
//! side polynomial on families whose determinization is exponential; LTLf
//! monitors cover by conjunct containment. Views with no order cover only
//! equal states, and the search is then the plain deduplicating one.
//!
//! # Witness
//!
//! Pruning happens only when a pair is pushed, and only against pairs kept
//! earlier; nothing is skipped when it is popped. Unpruned, the search
//! returns the word of the least violating path in the order
//! [`Nfa::least_path_word`] enumerates (fewest symbols, then NFA edge
//! order). Pruning never removes a prefix of that path: the kept pair that
//! would cover it was discovered along a path that precedes the prefix,
//! and that path followed by the rest of the least one would be a smaller
//! violating path. So the pruned search reports the same counterexample as
//! the unpruned one; the oracle suites check this word for word.

use crate::lang::Lang;
use crate::nfa::{Label, Nfa, StateId};
use crate::symbol::{Alphabet, Symbol, Word};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Search counters of one inclusion check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InclusionStats {
    /// Pairs the search kept (discovered and not covered).
    pub frontier: usize,
    /// Discovered pairs discarded because a kept pair with a different
    /// monitor state covered them (exact re-discoveries are not counted).
    pub pruned: usize,
}

impl InclusionStats {
    /// Adds `other`'s counters to these.
    pub fn absorb(&mut self, other: InclusionStats) {
        self.frontier += other.frontier;
        self.pruned += other.pruned;
    }
}

/// The outcome of a [`joint_search`]: the witness, if any, and the
/// search's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointSearch {
    /// The least word (markers included) that `nfa` accepts and whose
    /// marker-erased projection the monitor accepts; `None` when there is
    /// none.
    pub witness: Option<Word>,
    /// Kept and pruned pair counts.
    pub stats: InclusionStats,
}

/// Searches for a word accepted by `nfa` whose projection without the
/// symbols in `markers` is accepted by `monitor` (see the
/// [module docs](self) for the order and the pruning).
///
/// To check `π(L(nfa)) ⊆ L(spec)`, pass the complement of `spec` as the
/// monitor: a witness is a violation.
///
/// # Panics
///
/// Panics if the automata are over different alphabets, or if `markers`
/// contains a symbol outside the shared alphabet (a symbol interned into
/// some other [`Alphabet`]).
pub fn joint_search<L: Lang>(nfa: &Nfa, monitor: &L, markers: &BTreeSet<Symbol>) -> JointSearch {
    // Callers share one `Arc`; comparing the names is the fallback.
    assert!(
        Arc::ptr_eq(nfa.alphabet(), monitor.alphabet()) || **nfa.alphabet() == **monitor.alphabet(),
        "joint search over different alphabets"
    );
    assert_markers_in_alphabet(markers, nfa.alphabet());
    let mut stats = InclusionStats::default();

    // Kept pairs in discovery order. The pairs kept at one NFA state form
    // the antichain a candidate is tested against, as a list threaded
    // through `pairs` from `newest`.
    let cap = nfa.num_states();
    let mut pairs: Vec<Pair<L::State>> = Vec::with_capacity(cap);
    let mut newest: Vec<u32> = vec![NONE; cap];
    pairs.push(Pair {
        q: nfa.start(),
        state: monitor.start(),
        parent: NONE,
        symbol: None,
        older: NONE,
    });
    newest[nfa.start()] = 0;

    let mut deque: VecDeque<u32> = VecDeque::with_capacity(cap);
    deque.push_back(0);
    // One scratch successor reused across steps: a monitor state is
    // cloned only when a new pair is kept.
    let mut scratch = monitor.start();
    while let Some(idx) = deque.pop_front() {
        let i = idx as usize;
        let q = pairs[i].q;
        if nfa.is_accepting(q) && monitor.is_accepting(&pairs[i].state) {
            stats.frontier = pairs.len();
            return JointSearch {
                witness: Some(spell(&pairs, idx)),
                stats,
            };
        }
        for &(label, dst) in nfa.edges_from(q) {
            let (consumed, stepped) = match label {
                Label::Eps => (None, false),
                Label::Sym(s) if markers.contains(&s) => (Some(s), false),
                Label::Sym(s) => {
                    monitor.step_into(&pairs[i].state, s, &mut scratch);
                    (Some(s), true)
                }
            };
            let cand = if stepped { &scratch } else { &pairs[i].state };
            let mut cover = None;
            let mut k = newest[dst];
            while k != NONE {
                if monitor.covers(&pairs[k as usize].state, cand) {
                    cover = Some(k as usize);
                    break;
                }
                k = pairs[k as usize].older;
            }
            match cover {
                Some(k) => stats.pruned += usize::from(pairs[k].state != *cand),
                None => {
                    let owned = cand.clone();
                    let id = pairs.len() as u32;
                    // Whatever a kept pair covered by the new one would
                    // discard, the new one discards too (covering is
                    // inclusion, which is transitive): the list stays an
                    // antichain.
                    let mut link = newest[dst];
                    let mut prev: Option<usize> = None;
                    while link != NONE {
                        let next = pairs[link as usize].older;
                        if monitor.covers(&owned, &pairs[link as usize].state) {
                            match prev {
                                None => newest[dst] = next,
                                Some(p) => pairs[p].older = next,
                            }
                        } else {
                            prev = Some(link as usize);
                        }
                        link = next;
                    }
                    pairs.push(Pair {
                        q: dst,
                        state: owned,
                        parent: idx,
                        symbol: consumed,
                        older: newest[dst],
                    });
                    newest[dst] = id;
                    if label == Label::Eps {
                        deque.push_front(id);
                    } else {
                        deque.push_back(id);
                    }
                }
            }
        }
    }
    stats.frontier = pairs.len();
    JointSearch {
        witness: None,
        stats,
    }
}

/// "No pair": the end of a kept list, the start pair's parent.
const NONE: u32 = u32::MAX;

/// One kept pair of a [`joint_search`].
struct Pair<S> {
    /// The NFA state.
    q: StateId,
    /// The monitor state.
    state: S,
    /// The pair it was reached from (`NONE` for the start pair).
    parent: u32,
    /// The symbol consumed on the way (`None` for an ε-edge).
    symbol: Option<Symbol>,
    /// The next older pair kept at `q` (`NONE` at the end of the list).
    older: u32,
}

/// Panics unless every symbol in `markers` belongs to `alphabet`:
/// out-of-alphabet markers are always a caller bug (a symbol interned into
/// a *different* alphabet), never a soft condition.
fn assert_markers_in_alphabet(markers: &BTreeSet<Symbol>, alphabet: &Alphabet) {
    for &m in markers {
        assert!(
            m.index() < alphabet.len(),
            "marker symbol #{} is outside the shared alphabet ({} symbols)",
            m.index(),
            alphabet.len()
        );
    }
}

fn spell<S>(pairs: &[Pair<S>], mut idx: u32) -> Word {
    let mut word = Vec::new();
    while idx != 0 {
        let pair = &pairs[idx as usize];
        word.extend(pair.symbol);
        idx = pair.parent;
    }
    word.reverse();
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::Dfa;
    use crate::lang::{Complement, NfaView};
    use crate::ops::strip_markers;
    use crate::parser::parse_regex;
    use crate::regex::Regex;
    use std::sync::Arc;

    /// `π(L(model)) ⊆ L(spec)` through the search, as usage checks run it.
    fn violation(model: &Nfa, spec: &Nfa, markers: &BTreeSet<Symbol>) -> JointSearch {
        joint_search(model, &Complement::new(NfaView::new(spec)), markers)
    }

    #[test]
    fn witnesses_keep_markers_in_place() {
        // NFA language: m·a·m·b. Monitor accepts exactly a·b.
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(&Regex::word(&[m, a, m, b]), ab.clone());
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&Regex::word(&[a, b]), ab));
        let markers = BTreeSet::from([m]);
        let w = joint_search(&nfa, &monitor, &markers).witness.unwrap();
        assert_eq!(w, vec![m, a, m, b]);
        assert_eq!(strip_markers(&w, &markers), vec![a, b]);
    }

    #[test]
    fn detects_a_violation_and_passes_conforming_behaviour() {
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([m]);
        let spec = Nfa::from_regex(&Regex::word(&[a, b]), ab.clone());
        let bad = Nfa::from_regex(&Regex::word(&[m, a]), ab.clone());
        assert_eq!(violation(&bad, &spec, &markers).witness, Some(vec![m, a]));
        let good = Nfa::from_regex(&Regex::word(&[m, a, b]), ab);
        assert_eq!(violation(&good, &spec, &markers).witness, None);
    }

    #[test]
    fn witnesses_follow_nfa_edge_order_not_symbol_order() {
        // `c + a`: both words have one symbol; `c`'s edge comes first.
        let mut ab = Alphabet::new();
        let model = parse_regex("c + a", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&model, ab.clone());
        let void = Nfa::from_regex(&Regex::Empty, ab.clone());
        let w = violation(&model, &void, &BTreeSet::new()).witness.unwrap();
        assert_eq!(ab.render_word(&w), "c");
    }

    #[test]
    fn finds_the_fewest_symbols_first() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(
            &Regex::union(Regex::word(&[a, a, a]), Regex::sym(b)),
            ab.clone(),
        );
        let sigma = Regex::star(Regex::union(Regex::sym(a), Regex::sym(b)));
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&sigma, ab));
        let w = joint_search(&nfa, &monitor, &BTreeSet::new()).witness;
        assert_eq!(w, Some(vec![b]));
    }

    #[test]
    fn lazy_and_eager_monitors_give_one_witness() {
        // An eager DFA monitor covers only equal states, the lazy subset
        // view covers by ⊇: the witness is the same word.
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([m]);
        let model = Nfa::from_regex(
            &Regex::union(Regex::word(&[m, a, b]), Regex::word(&[m, b, a])),
            ab.clone(),
        );
        let spec = Nfa::from_regex(&Regex::word(&[a, b]), ab);
        let eager = joint_search(&model, &Dfa::from_nfa(&spec).complement(), &markers);
        let lazy = violation(&model, &spec, &markers);
        assert_eq!(eager.witness, lazy.witness);
        assert_eq!(lazy.witness, Some(vec![m, b, a]));
    }

    #[test]
    fn marker_only_traces_need_an_empty_accepting_spec() {
        // The model's only word is pure markers: m·m. Its projection is ε,
        // so inclusion holds iff the spec accepts ε.
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([m]);
        let model = Nfa::from_regex(&Regex::word(&[m, m]), ab.clone());
        let strict = Nfa::from_regex(&Regex::sym(a), ab.clone());
        assert_eq!(
            violation(&model, &strict, &markers).witness,
            Some(vec![m, m])
        );
        let lenient = Nfa::from_regex(&Regex::star(Regex::sym(a)), ab);
        assert_eq!(violation(&model, &lenient, &markers).witness, None);
    }

    #[test]
    fn prunes_subsumed_macrostates_on_the_blowup_family() {
        // Spec Σ*·a·Σ^(n-1): determinization distinguishes 2^n macrostates;
        // the model a·(b+a)^(n-1) is included. The unpruned search (an
        // eager monitor covers only equal states) drains the exponential
        // product; the antichain keeps a frontier far below it. Each `b`
        // edge comes before its `a` edge, so the smaller macrostate is
        // kept first and covers the larger one discovered after it.
        let n = 8;
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let sigma = Regex::union(Regex::sym(a), Regex::sym(b));
        let mut spec = Regex::concat(Regex::star(sigma.clone()), Regex::sym(a));
        let mut model = Regex::sym(a);
        for _ in 0..n - 1 {
            spec = Regex::concat(spec, sigma.clone());
            model = Regex::concat(model, Regex::union(Regex::sym(b), Regex::sym(a)));
        }
        let spec = Nfa::from_regex(&spec, ab.clone());
        let model = Nfa::from_regex(&model, ab);
        let none = BTreeSet::new();
        let pruned = violation(&model, &spec, &none);
        assert_eq!(pruned.witness, None);
        assert!(pruned.stats.pruned > 0, "no pruning on the blowup family");
        let exhaustive = joint_search(&model, &Dfa::from_nfa(&spec).complement(), &none);
        assert_eq!(exhaustive.witness, None);
        assert_eq!(exhaustive.stats.pruned, 0);
        assert!(
            pruned.stats.frontier * 4 < exhaustive.stats.frontier,
            "frontier {} vs exhaustive {}",
            pruned.stats.frontier,
            exhaustive.stats.frontier
        );
    }

    #[test]
    fn empty_alphabet_search() {
        // Over an empty alphabet the only word is ε.
        let ab = Arc::new(Alphabet::new());
        let eps = Nfa::from_regex(&Regex::Epsilon, ab.clone());
        let void = Nfa::from_regex(&Regex::Empty, ab);
        let none = BTreeSet::new();
        let accept_eps = Dfa::from_nfa(&eps);
        assert_eq!(joint_search(&eps, &accept_eps, &none).witness, Some(vec![]));
        assert_eq!(joint_search(&void, &accept_eps, &none).witness, None);
        assert_eq!(violation(&void, &eps, &none).witness, None);
        assert_eq!(violation(&eps, &void, &none).witness, Some(vec![]));
    }

    #[test]
    fn counters_count_kept_pairs() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(&Regex::word(&[a, b]), ab.clone());
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&Regex::word(&[a, b]), ab));
        let search = joint_search(&nfa, &monitor, &BTreeSet::new());
        assert_eq!(search.witness, Some(vec![a, b]));
        assert_eq!(search.stats.frontier, 3);
    }

    #[test]
    #[should_panic(expected = "outside the shared alphabet")]
    fn markers_must_belong_to_the_alphabet() {
        // A marker interned into a *different* alphabet is a caller bug:
        // the search panics instead of silently never matching it.
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(&Regex::sym(a), ab);
        let foreign = Symbol::from_index(99);
        let _ = joint_search(&nfa, &Dfa::from_nfa(&nfa), &BTreeSet::from([foreign]));
    }

    #[test]
    #[should_panic(expected = "different alphabets")]
    fn rejects_mismatched_alphabets() {
        let mut ab1 = Alphabet::new();
        let a = ab1.intern("a");
        let nfa = Nfa::from_regex(&Regex::sym(a), Arc::new(ab1));
        let mut ab2 = Alphabet::new();
        let b = ab2.intern("b");
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&Regex::sym(b), Arc::new(ab2)));
        let _ = joint_search(&nfa, &monitor, &BTreeSet::new());
    }

    #[test]
    fn stats_absorb_sums() {
        let mut total = InclusionStats::default();
        total.absorb(InclusionStats {
            frontier: 3,
            pruned: 1,
        });
        total.absorb(InclusionStats {
            frontier: 2,
            pruned: 4,
        });
        assert_eq!(
            total,
            InclusionStats {
                frontier: 5,
                pruned: 5,
            }
        );
    }
}
