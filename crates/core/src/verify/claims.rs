//! Temporal-claim verification (§2.2, *Checking temporal requirements*).
//!
//! Every `@claim("φ")` of a class must hold on every complete trace the
//! system can produce. On violation, Shelley reports the paper's error:
//!
//! ```text
//! Error in specification: FAIL TO MEET REQUIREMENT
//! Formula: (!a.open) W b.open
//! Counter example: a.test, a.open, b.open, b.test, b.open, a.close, b.close
//! ```

use crate::annotations::Claim;
use crate::backend::Backend;
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::integration::Integration;
use crate::spec::{intern_spec_events, spec_automaton};
use crate::system::{System, SystemKind};
use shelley_ltlf::{
    check_claim, parse_formula, parse_formula_over, ClaimOutcome, ParseFormulaError,
};
use shelley_regular::ops::strip_markers;
use shelley_regular::{Alphabet, Nfa, Word};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The paper's `FAIL TO MEET REQUIREMENT` verification failure.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ClaimViolation {
    /// The claim's formula text as written in the source.
    pub formula: String,
    /// A shortest violating event trace (markers stripped).
    pub counterexample: Word,
    /// The counterexample rendered with event names.
    pub counterexample_text: String,
}

impl ClaimViolation {
    /// Renders the full error block exactly as the paper prints it.
    pub fn render(&self) -> String {
        format!(
            "Error in specification: FAIL TO MEET REQUIREMENT\nFormula: {}\nCounter example: {}\n",
            self.formula, self.counterexample_text
        )
    }
}

/// Checks every claim of `system`. For composite systems the model is the
/// integration automaton (markers invisible to the claim); for base systems
/// it is the specification automaton over unqualified operation events.
///
/// Claims that fail to parse are reported in `diagnostics` and skipped.
pub fn claim_violations(
    system: &System,
    integration: Option<&Integration>,
    diagnostics: &mut Diagnostics,
) -> Vec<ClaimViolation> {
    let mut violations = Vec::new();
    if system.claims.is_empty() {
        return violations;
    }
    // Model + marker set + alphabet, by system kind. A composite's model
    // is borrowed from its integration.
    let base_model;
    let (model, markers): (&Nfa, &BTreeSet<shelley_regular::Symbol>) = match &system.kind {
        SystemKind::Composite(_) => {
            let integration = integration.expect("integration built for composites");
            (&integration.nfa, &integration.markers)
        }
        SystemKind::Base => {
            // Claims over a base class speak its own operation names. The
            // alphabet must also contain any claim-only atoms, so parse
            // claims against a fresh alphabet first.
            let mut ab = Alphabet::new();
            intern_spec_events(&system.spec, None, &mut ab);
            for claim in &system.claims {
                // Interning atoms may grow the alphabet; parse errors are
                // reported in the main loop below.
                let _ = parse_formula(&claim.formula, &mut ab);
            }
            base_model = (
                spec_automaton(&system.spec, None, Arc::new(ab)),
                BTreeSet::new(),
            );
            (base_model.0.nfa(), &base_model.1)
        }
    };

    for claim in &system.claims {
        let violation = check_one_claim(system, model, markers, claim, diagnostics);
        violations.extend(violation);
    }
    violations
}

/// [`claim_violations`] with an ignored backend argument, for callers that
/// still pass one; deleted with [`Backend`](crate::backend::Backend).
#[doc(hidden)]
pub fn check_claims(
    system: &System,
    integration: Option<&Integration>,
    _backend: Backend,
    diagnostics: &mut Diagnostics,
) -> Vec<ClaimViolation> {
    claim_violations(system, integration, diagnostics)
}

fn check_one_claim(
    system: &System,
    model: &Nfa,
    markers: &BTreeSet<shelley_regular::Symbol>,
    claim: &Claim,
    diagnostics: &mut Diagnostics,
) -> Option<ClaimViolation> {
    let bad_parse = |e: ParseFormulaError| {
        Diagnostic::error(
            codes::BAD_CLAIM,
            format!("claim on `{}` failed to parse: {e}", system.name),
        )
        .with_span(claim.span)
    };
    // Events are looked up in the model's alphabet. Only a claim naming
    // an event the model lacks pays for a copy of the alphabet to intern
    // it into, and for the model rebuilt over that copy: symbol ids are
    // preserved because interning is append-only.
    let rebuilt;
    let (formula, model) = match parse_formula_over(&claim.formula, model.alphabet()) {
        Ok(Some(formula)) => (formula, model),
        Ok(None) => {
            let mut extended = (**model.alphabet()).clone();
            let formula = match parse_formula(&claim.formula, &mut extended) {
                Ok(formula) => formula,
                Err(e) => {
                    diagnostics.push(bad_parse(e));
                    return None;
                }
            };
            // The claim mentions events the system can never produce.
            // They can only make atoms false, which is well-defined, but
            // it usually signals a typo — warn and continue with the
            // extended alphabet.
            let unknown: Vec<&str> = extended
                .iter()
                .skip(model.alphabet().len())
                .map(|(_, n)| n)
                .collect();
            diagnostics.push(
                Diagnostic::warning(
                    codes::BAD_CLAIM,
                    format!(
                        "claim on `{}` mentions events the system never emits: {}",
                        system.name,
                        unknown.join(", ")
                    ),
                )
                .with_span(claim.span),
            );
            rebuilt = rebuild_over(model, Arc::new(extended));
            (formula, &rebuilt)
        }
        Err(e) => {
            diagnostics.push(bad_parse(e));
            return None;
        }
    };
    match check_claim(model, &formula, markers) {
        ClaimOutcome::Holds => None,
        ClaimOutcome::Violated { counterexample } => {
            let events = strip_markers(&counterexample, markers);
            let counterexample_text = model.alphabet().render_word(&events);
            Some(ClaimViolation {
                formula: claim.formula.clone(),
                counterexample: events,
                counterexample_text,
            })
        }
    }
}

/// Copies an NFA onto a larger alphabet that extends the original (same
/// symbol ids for existing names).
fn rebuild_over(nfa: &Nfa, alphabet: Arc<Alphabet>) -> Nfa {
    let mut b = Nfa::builder(alphabet);
    for _ in 0..nfa.num_states() {
        b.add_state();
    }
    b.set_start(nfa.start());
    for q in 0..nfa.num_states() {
        if nfa.is_accepting(q) {
            b.mark_accepting(q);
        }
        for &(label, dst) in nfa.edges_from(q) {
            b.add_edge(q, label, dst);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integration::build_integration;
    use crate::system::build_systems;
    use micropython_parser::parse_module;
    use shelley_ltlf::eval;

    const VALVE: &str = r#"
@sys
class Valve:
    @op_initial
    def test(self):
        if ok:
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]
"#;

    fn check(src: &str, class: &str) -> (Vec<ClaimViolation>, Diagnostics) {
        let m = parse_module(src).unwrap();
        let (systems, diags) = build_systems(&m);
        assert!(!diags.has_errors(), "{:?}", diags);
        let sys = systems.get(class).unwrap();
        let integration = sys.is_composite().then(|| build_integration(sys));
        let mut d = Diagnostics::new();
        let v = claim_violations(sys, integration.as_ref(), &mut d);
        (v, d)
    }

    #[test]
    fn badsector_claim_fails_like_the_paper() {
        let src = format!(
            r#"{VALVE}
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                self.a.close()
                return []
"#
        );
        let (violations, diags) = check(&src, "BadSector");
        assert!(diags.is_empty(), "{:?}", diags);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.formula, "(!a.open) W b.open");
        // The shortest violation: a.test then a.open (a.open before any
        // b.open). The counterexample genuinely violates the formula.
        assert_eq!(v.counterexample_text, "a.test, a.open");
        let rendered = v.render();
        assert!(rendered.starts_with("Error in specification: FAIL TO MEET REQUIREMENT"));
        assert!(rendered.contains("Formula: (!a.open) W b.open"));
        assert!(rendered.contains("Counter example: a.test, a.open"));
        // Cross-check against the LTLf evaluator.
        let mut ab = Alphabet::new();
        let f = parse_formula(&v.formula, &mut ab).unwrap();
        let trace: Vec<_> = v
            .counterexample_text
            .split(", ")
            .map(|n| ab.intern(n))
            .collect();
        assert!(!eval(&f, &trace));
    }

    #[test]
    fn the_paper_violation_is_the_least_violating_path() {
        let src = format!(
            r#"{VALVE}
@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                self.a.close()
                return []
"#
        );
        let m = parse_module(&src).unwrap();
        let (systems, _) = build_systems(&m);
        let sys = systems.get("BadSector").unwrap();
        let integration = build_integration(sys);
        let (violations, diags) = check(&src, "BadSector");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(violations.len(), 1);
        // The reported trace is the least violating path of the
        // integration automaton, found by brute-force enumeration and
        // judged by the LTLf trace semantics on its marker-free words.
        let mut ab = (**integration.nfa.alphabet()).clone();
        let f = parse_formula(&violations[0].formula, &mut ab).unwrap();
        let least = integration
            .nfa
            .least_path_word(6, |w| !eval(&f, &strip_markers(w, &integration.markers)))
            .expect("a violating path of at most six events");
        let least = strip_markers(&least, &integration.markers);
        assert_eq!(violations[0].counterexample, least);
        assert_eq!(violations[0].counterexample_text, "a.test, a.open");
        // The retired backend argument changes nothing.
        for backend in [Backend::Auto, Backend::Explicit, Backend::Symbolic] {
            let mut d = Diagnostics::new();
            let again = check_claims(sys, Some(&integration), backend, &mut d);
            assert_eq!(again, violations, "{backend:?}");
        }
    }

    #[test]
    fn satisfied_claim_passes() {
        let src = format!(
            r#"{VALVE}
@claim("(!a.open) W a.test")
@sys(["a"])
class Careful:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def cycle(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#
        );
        let (violations, diags) = check(&src, "Careful");
        assert!(violations.is_empty());
        assert!(diags.is_empty(), "{:?}", diags);
    }

    #[test]
    fn base_class_claims_check_the_spec() {
        // On the Valve spec itself: open is always preceded by test.
        let src = VALVE.replace(
            "@sys\nclass Valve:",
            "@claim(\"(!open) W test\")\n@sys\nclass Valve:",
        );
        let (violations, diags) = check(&src, "Valve");
        assert!(violations.is_empty(), "{violations:?}");
        assert!(diags.is_empty());
        // A false claim on the spec: valves are never cleaned — fails.
        let src2 = VALVE.replace(
            "@sys\nclass Valve:",
            "@claim(\"G !clean\")\n@sys\nclass Valve:",
        );
        let (violations, _) = check(&src2, "Valve");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].counterexample_text, "test, clean");
    }

    #[test]
    fn malformed_claim_reported() {
        let src = format!(
            r#"{VALVE}
@claim("(!a.open W")
@sys(["a"])
class Broken:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def cycle(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#
        );
        let (violations, diags) = check(&src, "Broken");
        assert!(violations.is_empty());
        assert_eq!(diags.by_code(codes::BAD_CLAIM).count(), 1);
    }

    #[test]
    fn unknown_event_in_claim_warned() {
        let src = format!(
            r#"{VALVE}
@claim("G !a.explode")
@sys(["a"])
class Typo:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def cycle(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#
        );
        let (violations, diags) = check(&src, "Typo");
        // The claim holds vacuously (the event never occurs), with a typo
        // warning.
        assert!(violations.is_empty());
        assert_eq!(diags.by_code(codes::BAD_CLAIM).count(), 1);
        assert!(!diags.has_errors());
    }
}
