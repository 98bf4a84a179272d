//! Claim golden suite over the `examples_py` corpus: every claim verdict
//! and witness must equal the least violating path that a brute-force
//! enumeration ([`Nfa::least_path_word`]) finds and the LTLf trace
//! semantics ([`eval`]) judges, on **every class** of every example, not
//! just on the classes that declare claims.
//!
//! Two layers:
//!
//! * the declared `@claim`s of each example, through
//!   [`claim_violations`] on the integration automaton with its markers;
//! * every class's model — the spec automaton for base classes, the
//!   marker-erased integration automaton for composites — probed with a
//!   synthesized battery of claims over its own alphabet.

use shelley_core::spec::{intern_spec_events, spec_automaton};
use shelley_core::{
    build_integration, claim_violations, Checker, Diagnostics, ProjectFile, SystemKind,
};
use shelley_ltlf::{check_claim, eval, parse_formula, ClaimOutcome};
use shelley_regular::ops::strip_markers;
use shelley_regular::{Nfa, Word};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Witnesses are compared with the enumeration up to this many events.
const ORACLE_LEN: usize = 8;

const EXAMPLES: [&str; 3] = ["greenhouse.py", "paper.py", "sector.py"];

fn example_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples_py")
        .join(name)
}

fn check_example(name: &str) -> shelley_core::Checked {
    let text = std::fs::read_to_string(example_path(name)).unwrap();
    let files = [ProjectFile::new(name, &text)];
    Checker::new().check_files(&files).unwrap()
}

/// Every class's claim model with markers projected out (as ε-edges).
fn class_models(checked: &shelley_core::Checked) -> Vec<(String, Nfa)> {
    let mut models = Vec::new();
    for system in checked.systems.iter() {
        let model = match &system.kind {
            SystemKind::Composite(_) => {
                let integration = build_integration(system);
                integration.nfa.erase_symbols(&integration.markers)
            }
            SystemKind::Base => {
                let mut ab = shelley_regular::Alphabet::new();
                intern_spec_events(&system.spec, None, &mut ab);
                spec_automaton(&system.spec, None, Arc::new(ab))
                    .nfa()
                    .clone()
            }
        };
        models.push((system.name.clone(), model));
    }
    models
}

/// Asserts that `found` is the least path of `model` (within
/// [`ORACLE_LEN`]) whose marker-free word violates `claim_text`.
fn assert_least_violation(
    model: &Nfa,
    markers: &BTreeSet<shelley_regular::Symbol>,
    claim_text: &str,
    found: Option<Word>,
    what: &str,
) {
    let mut ab = (**model.alphabet()).clone();
    let claim = parse_formula(claim_text, &mut ab).expect("claims parse");
    let least = model
        .least_path_word(ORACLE_LEN, |w| !eval(&claim, &strip_markers(w, markers)))
        .map(|w| strip_markers(&w, markers));
    match &found {
        Some(w) if w.len() > ORACLE_LEN => assert_eq!(least, None, "{what}: `{claim_text}`"),
        _ => assert_eq!(found, least, "{what}: `{claim_text}`"),
    }
}

#[test]
fn declared_claims_equal_the_path_oracle_on_every_example() {
    let mut claims = 0;
    for example in EXAMPLES {
        let checked = check_example(example);
        for system in checked.systems.iter().filter(|s| s.is_composite()) {
            let integration = build_integration(system);
            let mut diagnostics = Diagnostics::default();
            let violations = claim_violations(system, Some(&integration), &mut diagnostics);
            for claim in &system.claims {
                claims += 1;
                let found = violations
                    .iter()
                    .find(|v| v.formula == claim.formula)
                    .map(|v| v.counterexample.clone());
                let what = format!("{example}/{}", system.name);
                assert_least_violation(
                    &integration.nfa,
                    &integration.markers,
                    &claim.formula,
                    found,
                    &what,
                );
            }
        }
        // The corpus exercises both verdicts: paper.py's BadSector claim is
        // the paper's violation, greenhouse.py's two claims hold.
        let failed = !checked.report.claim_violations.is_empty();
        assert_eq!(failed, example == "paper.py", "{example}");
    }
    assert_eq!(claims, 3, "every declared claim is covered");
}

#[test]
fn battery_claims_equal_the_path_oracle_on_every_class() {
    let no_markers = BTreeSet::new();
    let mut classes = 0;
    let mut violated = 0;
    for example in EXAMPLES {
        let checked = check_example(example);
        for (class, model) in class_models(&checked) {
            classes += 1;
            let names: Vec<String> = model
                .alphabet()
                .iter()
                .map(|(_, name)| name.to_owned())
                .collect();
            let mut battery: Vec<String> = Vec::new();
            for n in &names {
                battery.push(format!("F {n}"));
                battery.push(format!("G (! {n})"));
            }
            for pair in names.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                battery.push(format!("({a} U {b})"));
                battery.push(format!("(! {a}) W {b}"));
                battery.push(format!("G ({a} -> X {b})"));
            }
            for text in battery {
                let mut ab = (**model.alphabet()).clone();
                let claim = parse_formula(&text, &mut ab).expect("battery formulas parse");
                let found = match check_claim(&model, &claim, &no_markers) {
                    ClaimOutcome::Holds => None,
                    ClaimOutcome::Violated { counterexample } => {
                        violated += 1;
                        assert!(
                            model.accepts(&counterexample),
                            "{example}/{class}: `{text}`"
                        );
                        Some(counterexample)
                    }
                };
                assert_least_violation(
                    &model,
                    &no_markers,
                    &text,
                    found,
                    &format!("{example}/{class}"),
                );
            }
        }
    }
    assert_eq!(classes, 9, "every examples_py class is covered");
    assert!(violated > 0, "the battery must produce violations");
}
