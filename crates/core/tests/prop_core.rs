//! Property tests over randomly generated specifications and composites.
//!
//! The invariants: every word of a spec automaton is a legal usage
//! (starts initial, follows next-sets, ends final); conforming generated
//! composites always verify; and mutations that break the protocol are
//! always caught.

use proptest::prelude::*;
use shelley_core::annotations::OpKind;
use shelley_core::spec::{intern_spec_events, spec_automaton, ClassSpec, ExitSpec, OperationSpec};
use shelley_core::{build_integration, Checker};
use shelley_regular::{Alphabet, Dfa};
use std::fmt::Write as _;
use std::sync::Arc;

/// A random, *structurally sane* spec: `n` operations, each with 1–2 exits
/// whose next-sets reference defined operations; op 0 is initial, the last
/// op is final.
fn arb_spec() -> impl Strategy<Value = ClassSpec> {
    (2usize..6)
        .prop_flat_map(|n| {
            let exits = proptest::collection::vec(proptest::collection::vec(0..n, 0..3), n);
            (Just(n), exits)
        })
        .prop_map(|(n, exit_targets)| {
            let operations = (0..n)
                .map(|i| {
                    let kind = if i == 0 && i == n - 1 {
                        OpKind::InitialFinal
                    } else if i == 0 {
                        OpKind::Initial
                    } else if i == n - 1 {
                        OpKind::Final
                    } else {
                        OpKind::Middle
                    };
                    let next: Vec<String> =
                        exit_targets[i].iter().map(|&t| format!("op{t}")).collect();
                    OperationSpec {
                        name: format!("op{i}"),
                        kind,
                        exits: vec![ExitSpec {
                            next,
                            span: None,
                            implicit: false,
                        }],
                        span: None,
                    }
                })
                .collect();
            ClassSpec {
                name: "Gen".into(),
                operations,
            }
        })
}

proptest! {
    /// Every accepted word of the spec automaton is a legal usage: first
    /// operation initial, consecutive operations allowed by some exit of
    /// the predecessor, last operation final.
    #[test]
    fn spec_words_are_legal_usages(spec in arb_spec()) {
        let mut ab = Alphabet::new();
        intern_spec_events(&spec, None, &mut ab);
        let ab = Arc::new(ab);
        let auto = spec_automaton(&spec, None, ab.clone());
        let dfa = Dfa::from_nfa(auto.nfa());
        for word in dfa.enumerate_words(5, 200) {
            if word.is_empty() {
                continue; // zero usage always legal
            }
            let names: Vec<&str> = word.iter().map(|&s| ab.name(s)).collect();
            // First must be initial.
            let first = spec.operation(names[0]).expect("known op");
            prop_assert!(first.kind.is_initial(), "{names:?}");
            // Each step allowed by some exit of the previous op.
            for pair in names.windows(2) {
                let prev = spec.operation(pair[0]).expect("known");
                let allowed = prev
                    .exits
                    .iter()
                    .any(|e| e.next.iter().any(|n| n == pair[1]));
                prop_assert!(allowed, "{:?} then {:?}", pair[0], pair[1]);
            }
            // Last must be final.
            let last = spec.operation(names[names.len() - 1]).expect("known");
            prop_assert!(last.kind.is_final(), "{names:?}");
        }
    }

    /// A composite that walks any DFA-accepted word of its subsystem's spec
    /// verifies successfully.
    #[test]
    fn conforming_composites_verify(spec in arb_spec()) {
        let mut ab = Alphabet::new();
        intern_spec_events(&spec, None, &mut ab);
        let auto = spec_automaton(&spec, None, Arc::new(ab.clone()));
        let dfa = Dfa::from_nfa(auto.nfa());
        // Pick a short nonempty accepted usage, if any.
        let Some(word) = dfa
            .enumerate_words(4, 50)
            .into_iter()
            .find(|w| !w.is_empty())
        else {
            return Ok(());
        };
        let usage: Vec<String> = word
            .iter()
            .map(|&s| format!("        self.x.{}()", ab.name(s)))
            .collect();

        let mut src = String::new();
        let _ = writeln!(src, "{}", render_spec_class(&spec));
        let _ = writeln!(src, "@sys([\"x\"])");
        let _ = writeln!(src, "class User:");
        let _ = writeln!(src, "    def __init__(self):");
        let _ = writeln!(src, "        self.x = Gen()");
        let _ = writeln!(src);
        let _ = writeln!(src, "    @op_initial_final");
        let _ = writeln!(src, "    def run(self):");
        for line in &usage {
            let _ = writeln!(src, "{line}");
        }
        let _ = writeln!(src, "        return []");

        let checked = Checker::new().check_source(&src).expect("generated source parses");
        prop_assert!(
            checked.report.usage_violations.is_empty(),
            "usage {:?} rejected:\n{}",
            word,
            checked.report.render(None)
        );
    }

    /// Truncating a conforming usage to end on a non-final operation is
    /// always caught.
    #[test]
    fn truncated_usages_are_caught(spec in arb_spec()) {
        let mut ab = Alphabet::new();
        intern_spec_events(&spec, None, &mut ab);
        let auto = spec_automaton(&spec, None, Arc::new(ab.clone()));
        let dfa = Dfa::from_nfa(auto.nfa());
        // Find an accepted word with a strict prefix ending on a non-final
        // operation.
        let words = dfa.enumerate_words(4, 100);
        let target = words.iter().find_map(|w| {
            (1..w.len()).rev().find_map(|k| {
                let prefix = &w[..k];
                let last = ab.name(prefix[prefix.len() - 1]);
                let op = spec.operation(last).expect("known");
                (!op.kind.is_final()).then(|| prefix.to_vec())
            })
        });
        let Some(prefix) = target else { return Ok(()); };

        let mut src = String::new();
        let _ = writeln!(src, "{}", render_spec_class(&spec));
        let _ = writeln!(src, "@sys([\"x\"])");
        let _ = writeln!(src, "class User:");
        let _ = writeln!(src, "    def __init__(self):");
        let _ = writeln!(src, "        self.x = Gen()");
        let _ = writeln!(src);
        let _ = writeln!(src, "    @op_initial_final");
        let _ = writeln!(src, "    def run(self):");
        for &s in &prefix {
            let _ = writeln!(src, "        self.x.{}()", ab.name(s));
        }
        let _ = writeln!(src, "        return []");

        let checked = Checker::new().check_source(&src).expect("generated source parses");
        prop_assert!(
            !checked.report.usage_violations.is_empty(),
            "truncated usage {:?} was not caught",
            prefix
        );
    }

    /// The usage counterexample is the least violating path of the
    /// integration automaton: a brute-force path enumeration, judging each
    /// projected word by Brzozowski membership in the spec's regex (state
    /// elimination, no subset construction), finds the same word as the
    /// inclusion search over the lazy spec view (pruned) and over the
    /// determinized spec (unpruned), and the pipeline reports it.
    #[test]
    fn usage_witness_is_the_least_violating_path(
        spec in arb_spec(),
        calls in proptest::collection::vec(0usize..6, 0..5)
    ) {
        use shelley_core::spec::spec_automaton as build_auto;
        use shelley_regular::antichain::joint_search;
        use shelley_regular::lang::Complement;
        use shelley_regular::ops::strip_markers;
        use std::collections::BTreeSet;
        // An arbitrary call sequence over the spec's operations: it may be
        // a legal usage, an ordering violation, or an incomplete trace.
        let n = spec.operations.len();
        let mut src = String::new();
        let _ = writeln!(src, "{}", render_spec_class(&spec));
        let _ = writeln!(src, "@sys([\"x\"])");
        let _ = writeln!(src, "class User:");
        let _ = writeln!(src, "    def __init__(self):");
        let _ = writeln!(src, "        self.x = Gen()");
        let _ = writeln!(src, "    @op_initial_final");
        let _ = writeln!(src, "    def run(self):");
        for &c in &calls {
            let _ = writeln!(src, "        self.x.op{}()", c % n);
        }
        let _ = writeln!(src, "        return []");

        let checked = Checker::new().check_source(&src).expect("parses");
        let user = checked.systems.get("User").expect("built");
        let integration = build_integration(user);
        let alphabet = integration.nfa.alphabet().clone();
        let gen = checked.systems.get("Gen").expect("built");
        let auto = build_auto(&gen.spec, Some("x"), alphabet.clone());
        let sub_events: BTreeSet<_> = gen
            .spec
            .operations
            .iter()
            .filter_map(|op| alphabet.lookup(&format!("x.{}", op.name)))
            .collect();
        let invisible: BTreeSet<_> = alphabet
            .symbols()
            .filter(|s| !sub_events.contains(s))
            .collect();

        let pruned =
            joint_search(&integration.nfa, &Complement::new(auto.view()), &invisible).witness;
        let complement = Dfa::from_nfa(auto.nfa()).complement();
        let unpruned = joint_search(&integration.nfa, &complement, &invisible).witness;
        prop_assert_eq!(&pruned, &unpruned, "pruning changed the witness on:\n{}", src);
        let spec_regex = auto.nfa().to_regex();
        let least = integration
            .nfa
            .least_path_word(8, |w| !spec_regex.matches(&strip_markers(w, &invisible)));
        match &pruned {
            Some(w) if w.len() > 8 => prop_assert_eq!(&least, &None, "on:\n{}", src),
            _ => prop_assert_eq!(&pruned, &least, "witness is not the least path on:\n{}", src),
        }
        // The pipeline reports exactly this verdict and counterexample.
        prop_assert_eq!(
            checked.report.usage_violations.first().map(|(_, v)| &v.counterexample),
            pruned.as_ref(),
            "report disagrees with the search on:\n{}",
            src
        );
    }

    /// The integration automaton of a conforming single-call composite
    /// accepts exactly marker-then-events words.
    #[test]
    fn integration_words_start_with_markers(spec in arb_spec()) {
        let mut ab = Alphabet::new();
        intern_spec_events(&spec, None, &mut ab);
        let auto = spec_automaton(&spec, None, Arc::new(ab.clone()));
        let dfa = Dfa::from_nfa(auto.nfa());
        let Some(word) = dfa
            .enumerate_words(3, 50)
            .into_iter()
            .find(|w| !w.is_empty())
        else {
            return Ok(());
        };
        let mut src = String::new();
        let _ = writeln!(src, "{}", render_spec_class(&spec));
        let _ = writeln!(src, "@sys([\"x\"])");
        let _ = writeln!(src, "class User:");
        let _ = writeln!(src, "    def __init__(self):");
        let _ = writeln!(src, "        self.x = Gen()");
        let _ = writeln!(src, "    @op_initial_final");
        let _ = writeln!(src, "    def run(self):");
        for &s in &word {
            let _ = writeln!(src, "        self.x.{}()", ab.name(s));
        }
        let _ = writeln!(src, "        return []");
        let checked = Checker::new().check_source(&src).expect("parses");
        let user = checked.systems.get("User").expect("built");
        let integration = build_integration(user);
        let idfa = Dfa::from_nfa(&integration.nfa);
        for w in idfa.enumerate_words(4, 100) {
            if let Some(&first) = w.first() {
                prop_assert!(
                    integration.markers.contains(&first),
                    "integration word {:?} does not start with a marker",
                    w
                );
            }
        }
    }
}

/// Renders a [`ClassSpec`] back to annotated MicroPython source.
fn render_spec_class(spec: &ClassSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "@sys");
    let _ = writeln!(out, "class {}:", spec.name);
    for op in &spec.operations {
        let dec = match (op.kind.is_initial(), op.kind.is_final()) {
            (true, true) => "@op_initial_final",
            (true, false) => "@op_initial",
            (false, true) => "@op_final",
            (false, false) => "@op",
        };
        let _ = writeln!(out, "    {dec}");
        let _ = writeln!(out, "    def {}(self):", op.name);
        for exit in &op.exits {
            let items: Vec<String> = exit.next.iter().map(|n| format!("\"{n}\"")).collect();
            let _ = writeln!(out, "        return [{}]", items.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}
