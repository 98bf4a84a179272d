//! End-to-end assertions for every artifact of the paper: listings,
//! figures, tables, examples, theorems, and both error messages.

use shelley::core::extract::dependency::{DepNode, DependencyGraph};
use shelley::core::{build_integration, spec_diagram, Checker};
use shelley::ir::{denote, infer, Program, Status, TraceChecker};
use shelley::regular::{Alphabet, Dfa, Nfa};
use std::sync::Arc;

/// Listings 2.1 and 2.2 verbatim (modulo the `clean` field/method name
/// clash in the paper's Listing 2.1, renamed to `clean_pin` as any real
/// Python program must).
const PAPER: &str = r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean_pin = Pin(28, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean_pin.on()
        return ["test"]

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
                print("a failed")
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
                print("b failed")
                self.a.close()
                return []
"#;

#[test]
fn table1_all_annotations_accepted() {
    // Every annotation of Table 1 in one module.
    let src = r#"
@claim("G !x.boom")
@sys(["x"])
class Composite:
    def __init__(self):
        self.x = Base()

    @op_initial
    def a(self):
        self.x.go()
        return ["b"]

    @op
    def b(self):
        return ["c", "d"]

    @op_final
    def c(self):
        return []

    @op_initial_final
    def d(self):
        return []

@sys
class Base:
    @op_initial_final
    def go(self):
        return []
"#;
    let checked = Checker::new().check_source(src).unwrap();
    assert!(checked.report.passed(), "{}", checked.report.render(None));
    let composite = checked.systems.get("Composite").unwrap();
    assert!(composite.is_composite());
    assert_eq!(composite.claims.len(), 1);
    let spec = &composite.spec;
    assert!(spec.operation("a").unwrap().kind.is_initial());
    assert!(!spec.operation("a").unwrap().kind.is_final());
    assert!(!spec.operation("b").unwrap().kind.is_initial());
    assert!(spec.operation("c").unwrap().kind.is_final());
    let d = spec.operation("d").unwrap();
    assert!(d.kind.is_initial() && d.kind.is_final());
}

#[test]
fn table2_return_forms_all_extract() {
    let src = r#"
@sys
class Forms:
    @op_initial
    def start(self):
        return ["single"]

    @op
    def single(self):
        return ["multi"]

    @op
    def multi(self):
        if x:
            return ["single", "valued_int"]
        else:
            return ["valued_int"]

    @op
    def valued_int(self):
        return ["valued_bool"], 2

    @op
    def valued_bool(self):
        return ["multi_valued"], True

    @op_final
    def multi_valued(self):
        return ["single", "multi"], 2
"#;
    let checked = Checker::new().check_source(src).unwrap();
    assert!(
        !checked.report.diagnostics.has_errors(),
        "{}",
        checked.report.render(None)
    );
    let spec = &checked.systems.get("Forms").unwrap().spec;
    assert_eq!(
        spec.operation("single").unwrap().exits[0].next,
        vec!["multi"]
    );
    assert_eq!(
        spec.operation("multi").unwrap().exits[0].next,
        vec!["single", "valued_int"]
    );
    assert_eq!(
        spec.operation("valued_int").unwrap().exits[0].next,
        vec!["valued_bool"]
    );
    assert_eq!(
        spec.operation("valued_bool").unwrap().exits[0].next,
        vec!["multi_valued"]
    );
    assert_eq!(
        spec.operation("multi_valued").unwrap().exits[0].next,
        vec!["single", "multi"]
    );
}

#[test]
fn figure1_valve_diagram_structure() {
    let checked = Checker::new().check_source(PAPER).unwrap();
    let dot = spec_diagram(&checked.systems.get("Valve").unwrap().spec);
    for needle in [
        "__start -> \"test\"",
        "\"test\" -> \"open\"",
        "\"test\" -> \"clean\"",
        "\"open\" -> \"close\"",
        "\"close\" -> \"test\"",
        "\"clean\" -> \"test\"",
        "\"close\" [shape=doublecircle]",
        "\"clean\" [shape=doublecircle]",
    ] {
        assert!(dot.contains(needle), "figure 1 misses {needle}");
    }
    // Exactly the five operation transitions plus the start edge.
    assert_eq!(dot.matches("->").count(), 6);
}

#[test]
fn figure2_error_message_exact() {
    let checked = Checker::new().check_source(PAPER).unwrap();
    let (class, v) = &checked.report.usage_violations[0];
    assert_eq!(class, "BadSector");
    assert_eq!(
        v.render(),
        "Error in specification: INVALID SUBSYSTEM USAGE\n\
         Counter example: open_a, a.test, a.open\n\
         Subsystems errors:\n\
        \x20 * Valve 'a': test, >open< (not final)\n"
    );
}

#[test]
fn claim_error_message_exact_shape() {
    let checked = Checker::new().check_source(PAPER).unwrap();
    let (_, v) = &checked.report.claim_violations[0];
    let rendered = v.render();
    let mut lines = rendered.lines();
    assert_eq!(
        lines.next().unwrap(),
        "Error in specification: FAIL TO MEET REQUIREMENT"
    );
    assert_eq!(lines.next().unwrap(), "Formula: (!a.open) W b.open");
    let counter = lines.next().unwrap();
    assert!(counter.starts_with("Counter example: "));
    // The counterexample must genuinely violate the claim.
    let mut ab = Alphabet::new();
    let f = shelley::ltlf::parse_formula(&v.formula, &mut ab).unwrap();
    let trace: Vec<_> = counter
        .trim_start_matches("Counter example: ")
        .split(", ")
        .map(|n| ab.intern(n))
        .collect();
    assert!(!shelley::ltlf::eval(&f, &trace));
    // The paper's own counterexample is also in the model: the full run
    // a.test, a.open, b.test, b.open, a.close, b.close violates the claim.
    let checked2 = Checker::new().check_source(PAPER).unwrap();
    let bs = checked2.systems.get("BadSector").unwrap();
    let integration = build_integration(bs);
    let s = |n: &str| integration.nfa.alphabet().lookup(n).unwrap();
    let full = [
        s("open_a"),
        s("a.test"),
        s("a.open"),
        s("open_b"),
        s("b.test"),
        s("b.open"),
        s("a.close"),
        s("b.close"),
    ];
    assert!(integration.nfa.accepts(&full));
    let events: Vec<_> = shelley::regular::ops::strip_markers(full.as_ref(), &integration.markers);
    let mut ab2 = (**integration.nfa.alphabet()).clone();
    let f2 = shelley::ltlf::parse_formula("(!a.open) W b.open", &mut ab2).unwrap();
    assert!(!shelley::ltlf::eval(&f2, &events));
}

#[test]
fn figure3_sector_dependency_graph() {
    let src = r#"
@sys
class Sector:
    @op_initial
    def open_a(self):
        if which:
            return ["close_a", "open_b"]
        else:
            return ["clean_a"]

    @op
    def clean_a(self):
        return ["open_a"]

    @op
    def close_a(self):
        return ["open_a"]

    @op_final
    def open_b(self):
        if which:
            return []
        else:
            return []
"#;
    let checked = Checker::new().check_source(src).unwrap();
    let spec = &checked.systems.get("Sector").unwrap().spec;
    let g = DependencyGraph::from_spec(spec);
    // §3.1: "we have 4 methods ... so there are 4 entry nodes"; open_a has
    // 2 returns → exit nodes (A) and (B).
    assert_eq!(g.entry_count(), 4);
    assert_eq!(g.exit_count(), 6);
    // Exit (A) links to close_a and open_b; exit (B) to clean_a.
    let exit_a = g
        .nodes
        .iter()
        .position(|n| *n == DepNode::Exit("open_a".into(), 0))
        .unwrap();
    let succ_a: Vec<&DepNode> = g.successors(exit_a).map(|i| &g.nodes[i]).collect();
    assert!(succ_a.contains(&&DepNode::Entry("close_a".into())));
    assert!(succ_a.contains(&&DepNode::Entry("open_b".into())));
    let exit_b = g
        .nodes
        .iter()
        .position(|n| *n == DepNode::Exit("open_a".into(), 1))
        .unwrap();
    let succ_b: Vec<&DepNode> = g.successors(exit_b).map(|i| &g.nodes[i]).collect();
    assert_eq!(succ_b, vec![&DepNode::Entry("clean_a".into())]);
}

#[test]
fn figure4_examples_1_2_3() {
    let mut ab = Alphabet::new();
    let (a, b, c) = (ab.intern("a"), ab.intern("b"), ab.intern("c"));
    let p = Program::loop_(Program::seq(
        Program::call(a),
        Program::if_(
            Program::seq(Program::call(b), Program::ret(0)),
            Program::call(c),
        ),
    ));
    let checker = TraceChecker::new(&p);
    // Example 1.
    assert!(checker.derivable(Status::Ongoing, &[a, c, a, c]));
    // Example 2.
    assert!(checker.derivable(Status::Returned, &[a, c, a, b]));
    // Example 3: ⟦p⟧ = ((a·(b·∅+c))*, {(a·(b·∅+c))*·a·b}).
    let (r, s) = denote(&p);
    assert_eq!(r.display(&ab).to_string(), "(a · c)*");
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].display(&ab).to_string(), "(a · c)* · a · b");
}

#[test]
fn theorems_on_the_extracted_badsector_behaviors() {
    // The theorems applied to behaviors extracted from real MicroPython:
    // for each operation of BadSector, the semantics and the inference
    // agree on every word up to length 6.
    let checked = Checker::new().check_source(PAPER).unwrap();
    let bs = checked.systems.get("BadSector").unwrap();
    let info = bs.composite().unwrap();
    for (name, lowered) in info.methods.iter() {
        let behavior = infer(&lowered.program);
        let checker = TraceChecker::new(&lowered.program);
        let dfa = Dfa::from_nfa(&Nfa::from_regex(
            &behavior,
            Arc::new((*info.alphabet).clone()),
        ));
        for w in dfa.enumerate_words(6, 300) {
            assert!(checker.in_language(&w), "{name}: {w:?}");
        }
        // And conversely on the semantic enumeration.
        let traces = shelley::ir::enumerate_traces(&lowered.program, Default::default());
        for (_, l) in traces {
            assert!(behavior.matches(&l), "{name}: {l:?}");
        }
    }
}

#[test]
fn matching_exit_points_check() {
    // §3 step 3: dropping the clean case must be flagged.
    let partial = PAPER.replace(
        r#"            case ["clean"]:
                self.b.clean()
                print("b failed")
                self.a.close()
                return []"#,
        "",
    );
    let checked = Checker::new().check_source(&partial).unwrap();
    assert!(checked
        .report
        .diagnostics
        .by_code(shelley::core::codes::NON_EXHAUSTIVE_MATCH)
        .next()
        .is_some());
}

#[test]
fn smv_translation_of_the_valve_spec_validates() {
    let checked = Checker::new().check_source(PAPER).unwrap();
    let valve = checked.systems.get("Valve").unwrap();
    let mut ab = Alphabet::new();
    shelley::core::spec::intern_spec_events(&valve.spec, None, &mut ab);
    let auto = shelley::core::spec::spec_automaton(&valve.spec, None, Arc::new(ab));
    let dfa = Dfa::from_nfa(auto.nfa()).minimize();
    let model = shelley::smv::nfa_to_smv(auto.nfa(), "Valve", &[]);
    let report = shelley::smv::validate_model(&model, &dfa, 6);
    assert!(report.passed(), "{:?}", report.mismatches);
    assert!(model.to_smv().contains("MODULE main"));
}
