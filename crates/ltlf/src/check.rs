//! Model checking a regular model against an LTLf claim.
//!
//! A *model* is any automaton whose language is the set of complete event
//! traces a system can produce (in Shelley, the integration automaton of a
//! composite class). A claim `φ` holds iff every model trace satisfies it:
//! `L(M) ⊆ L(φ)`, decided by the inclusion search of
//! [`shelley_regular::antichain`] with the `¬φ` monitor as the complement.
//!
//! The monitor is driven **lazily** through its [`MonitorView`]: only the
//! formula states reachable along the model's traces are ever progressed,
//! and a state is discarded when a kept one at the same model state is
//! implied by it (conjunct containment), so an adversarial claim with an
//! exponential monitor DFA costs only what the antichain keeps.

use crate::automaton::MonitorView;
use crate::syntax::Formula;
use shelley_regular::antichain::{joint_search, InclusionStats};
use shelley_regular::{Nfa, Symbol, Word};
use std::collections::BTreeSet;

/// The result of checking one claim against a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// Every model trace satisfies the claim.
    Holds,
    /// Some model trace violates the claim; a shortest one is returned
    /// (marker symbols preserved where the model interleaves them).
    Violated {
        /// A shortest violating trace.
        counterexample: Word,
    },
}

impl ClaimOutcome {
    /// Whether the claim holds.
    pub fn holds(&self) -> bool {
        matches!(self, ClaimOutcome::Holds)
    }
}

/// Checks `L(model) ⊆ L(claim)`, ignoring the symbols in `markers` (they
/// advance the model but are invisible to the claim).
///
/// # Panics
///
/// Panics if `model`'s alphabet differs from the alphabet the claim monitor
/// is built over (they must share one `Alphabet`).
pub fn check_claim(model: &Nfa, claim: &Formula, markers: &BTreeSet<Symbol>) -> ClaimOutcome {
    check_claim_counted(model, claim, markers).0
}

/// [`check_claim`] plus the inclusion search's kept and pruned pair
/// counts.
///
/// # Panics
///
/// Same contract as [`check_claim`].
pub fn check_claim_counted(
    model: &Nfa,
    claim: &Formula,
    markers: &BTreeSet<Symbol>,
) -> (ClaimOutcome, InclusionStats) {
    let bad = MonitorView::new(&claim.negate(), model.alphabet().clone());
    let search = joint_search(model, &bad, markers);
    let outcome = match search.witness {
        None => ClaimOutcome::Holds,
        Some(counterexample) => ClaimOutcome::Violated { counterexample },
    };
    (outcome, search.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use crate::semantics::eval;
    use shelley_regular::{parse_regex, Alphabet};
    use std::sync::Arc;

    #[test]
    fn claim_holds_on_conforming_model() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        // Model: b.open then a.open (conforming).
        let model_re = parse_regex("b.open ; a.open", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&model_re, ab);
        assert!(check_claim(&model, &claim, &BTreeSet::new()).holds());
    }

    #[test]
    fn claim_violated_with_shortest_counterexample() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        // Model: either the long conforming trace or a short violating one.
        let model_re = parse_regex("(b.open ; a.open) + (a.test ; a.open)", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&model_re, ab.clone());
        match check_claim(&model, &claim, &BTreeSet::new()) {
            ClaimOutcome::Violated { counterexample } => {
                assert_eq!(ab.render_word(&counterexample), "a.test, a.open");
                assert!(!eval(&claim, &counterexample));
            }
            ClaimOutcome::Holds => panic!("claim should be violated"),
        }
    }

    #[test]
    fn markers_are_invisible_to_the_claim() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("G !fail", &mut ab).unwrap();
        // Model with an interleaved marker `op` that must not confuse the
        // monitor: op ; ok is fine, op ; fail is not.
        let ok_model = parse_regex("op ; ok", &mut ab).unwrap();
        let bad_model = parse_regex("op ; fail", &mut ab).unwrap();
        let op = ab.lookup("op").unwrap();
        let fail = ab.lookup("fail").unwrap();
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([op]);
        assert!(check_claim(&Nfa::from_regex(&ok_model, ab.clone()), &claim, &markers).holds());
        match check_claim(&Nfa::from_regex(&bad_model, ab), &claim, &markers) {
            ClaimOutcome::Violated { counterexample } => {
                // Marker preserved in the reported trace.
                assert_eq!(counterexample, vec![op, fail]);
            }
            ClaimOutcome::Holds => panic!("should be violated"),
        }
    }

    #[test]
    fn empty_model_satisfies_everything() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("F done", &mut ab).unwrap();
        let empty = parse_regex("void", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&empty, ab);
        assert!(check_claim(&model, &claim, &BTreeSet::new()).holds());
    }

    #[test]
    fn lazy_check_matches_eager_oracle() {
        // The eager oracle: compile the ¬φ monitor DFA up front (whose
        // states cover only themselves, so the search runs unpruned), then
        // run the same searches. Counterexamples must be byte-identical.
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        let model_re =
            parse_regex("(b.open ; a.open) + (a.test ; a.open) + a.open", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&model_re, ab.clone());
        let eager_bad = crate::automaton::to_dfa(&claim.negate(), ab.clone());
        let eager = match joint_search(&model, &eager_bad, &BTreeSet::new()).witness {
            None => ClaimOutcome::Holds,
            Some(counterexample) => ClaimOutcome::Violated { counterexample },
        };
        assert_eq!(check_claim(&model, &claim, &BTreeSet::new()), eager);
    }
}
