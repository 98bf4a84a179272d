//! Backend golden suite over the `examples_py` corpus: the SMV evaluator
//! (and the symbolic BDD engine) must agree with the explicit checker on
//! **every class** of every example, not just on the classes that declare
//! claims.
//!
//! Two layers:
//!
//! * the declared `@claim`s of each example are decided under all four
//!   backend selections through [`check_claims`], with identical verdicts;
//! * every class's model — the spec automaton for base classes, the
//!   marker-erased integration automaton for composites — is probed with a
//!   synthesized battery of claims over its own alphabet, and the three
//!   engines are held verdict- and witness-length-identical.

use shelley_core::spec::{intern_spec_events, spec_automaton};
use shelley_core::{check_claims, Backend, Checker, Diagnostics, ProjectFile, SystemKind};
use shelley_ltlf::{check_claim, eval, parse_formula, ClaimOutcome};
use shelley_regular::{Nfa, Symbol};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

/// Every class's claim model with markers projected out, so the three
/// engines see the same visible language.
fn class_models(checked: &shelley_core::Checked) -> Vec<(String, Nfa)> {
    let mut models = Vec::new();
    for system in checked.systems.iter() {
        let model = match &system.kind {
            SystemKind::Composite(_) => {
                let (_, integration) = checked
                    .integrations
                    .iter()
                    .find(|(n, _)| n == &system.name)
                    .expect("composites that verify have an integration");
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

/// Decides `claim` on `model` through the emitted SMV encoding.
fn smv_check(model: &Nfa, claim: &shelley_ltlf::Formula) -> ClaimOutcome {
    let smv = shelley_smv::nfa_to_smv(model, "golden", std::slice::from_ref(claim));
    let outcome = shelley_smv::eval_spec(&smv, &smv.ltlspecs[1]).expect("emitted specs evaluate");
    if outcome.holds {
        return ClaimOutcome::Holds;
    }
    let mut by_smv_name: BTreeMap<String, Symbol> = BTreeMap::new();
    for (symbol, name) in model.alphabet().iter() {
        by_smv_name
            .entry(shelley_smv::sanitize(name))
            .or_insert(symbol);
    }
    let counterexample = outcome
        .counterexample
        .expect("violations carry a witness")
        .iter()
        .map(|n| by_smv_name[n])
        .collect();
    ClaimOutcome::Violated { counterexample }
}

#[test]
fn declared_claims_agree_across_backends_on_every_example() {
    for example in EXAMPLES {
        let checked = check_example(example);
        for system in checked.systems.iter() {
            let integration = checked
                .integrations
                .iter()
                .find(|(n, _)| n == &system.name)
                .map(|(_, i)| &**i);
            let reference: Vec<String> = {
                let mut diagnostics = Diagnostics::default();
                check_claims(system, integration, Backend::Explicit, &mut diagnostics)
                    .into_iter()
                    .map(|v| v.formula)
                    .collect()
            };
            for backend in [Backend::Auto, Backend::Symbolic, Backend::Smv] {
                let mut diagnostics = Diagnostics::default();
                let violated: Vec<String> =
                    check_claims(system, integration, backend, &mut diagnostics)
                        .into_iter()
                        .map(|v| v.formula)
                        .collect();
                assert_eq!(
                    violated, reference,
                    "{example}/{}: {backend} disagrees with the explicit engine",
                    system.name
                );
            }
        }
        // The corpus exercises both verdicts: paper.py's BadSector claim is
        // the paper's violation, greenhouse.py's two claims hold.
        let failed = !checked.report.claim_violations.is_empty();
        assert_eq!(failed, example == "paper.py", "{example}");
    }
}

#[test]
fn smv_evaluator_matches_the_explicit_checker_on_every_class() {
    let no_markers = BTreeSet::new();
    let mut classes = 0;
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
                let explicit = check_claim(&model, &claim, &no_markers);
                let symbolic = shelley_symbolic::check_claim(&model, &claim, &no_markers);
                let smv = smv_check(&model, &claim);
                match (&explicit, &symbolic, &smv) {
                    (ClaimOutcome::Holds, ClaimOutcome::Holds, ClaimOutcome::Holds) => {}
                    (
                        ClaimOutcome::Violated { counterexample: e },
                        ClaimOutcome::Violated { counterexample: s },
                        ClaimOutcome::Violated { counterexample: v },
                    ) => {
                        assert_eq!(e.len(), s.len(), "{example}/{class}: `{text}`");
                        assert_eq!(e.len(), v.len(), "{example}/{class}: `{text}`");
                        for (engine, word) in [("explicit", e), ("symbolic", s), ("smv", v)] {
                            assert!(
                                model.accepts(word),
                                "{example}/{class}: {engine} witness for `{text}` rejected"
                            );
                            assert!(
                                !eval(&claim, word),
                                "{example}/{class}: {engine} witness for `{text}` satisfies"
                            );
                        }
                    }
                    _ => panic!(
                        "{example}/{class}: verdicts differ on `{text}`\n  explicit: \
                         {explicit:?}\n  symbolic: {symbolic:?}\n  smv: {smv:?}"
                    ),
                }
            }
        }
    }
    assert_eq!(classes, 9, "every examples_py class is covered");
}
