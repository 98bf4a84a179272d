//! Subsystem usage verification (§2.2).
//!
//! For every subsystem instance `x` of a composite class, the projection of
//! the integration language onto `x`'s events must be included in the
//! language of complete usages of `x`'s class specification. On violation,
//! Shelley reports the paper's error:
//!
//! ```text
//! Error in specification: INVALID SUBSYSTEM USAGE
//! Counter example: open_a, a.test, a.open
//! Subsystems errors:
//!   * Valve 'a': test, >open< (not final)
//! ```

use crate::integration::Integration;
use crate::spec::{lookup_qualified, spec_automaton, ClassSpec};
use crate::system::{Subsystem, System, SystemSet};
use shelley_regular::antichain::{joint_search, InclusionStats};
use shelley_regular::lang::Complement;
use shelley_regular::{Dfa, Symbol, Word};
use std::collections::{BTreeMap, BTreeSet};

/// One subsystem's explanation of why a trace is invalid.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SubsystemError {
    /// The subsystem's class name (`Valve`).
    pub class_name: String,
    /// The field name (`a`).
    pub field: String,
    /// The projected trace as unqualified operation names.
    pub trace: Vec<String>,
    /// Index of the offending position in `trace` (the last position when
    /// the trace is merely incomplete).
    pub failing_index: usize,
    /// Why that position fails.
    pub reason: FailureReason,
}

/// Why a projected trace is not a valid complete usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FailureReason {
    /// The trace ends here but the operation is not final.
    NotFinal,
    /// The operation is not allowed at this point (ordering violation).
    NotAllowed,
    /// The first operation is not initial.
    NotInitial,
}

impl SubsystemError {
    /// Renders the paper's one-line explanation:
    /// `Valve 'a': test, >open< (not final)`.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (i, op) in self.trace.iter().enumerate() {
            if i == self.failing_index {
                parts.push(format!(">{op}<"));
            } else {
                parts.push(op.clone());
            }
        }
        let reason = match self.reason {
            FailureReason::NotFinal => "not final",
            FailureReason::NotAllowed => "not allowed",
            FailureReason::NotInitial => "not initial",
        };
        format!(
            "{} '{}': {} ({})",
            self.class_name,
            self.field,
            parts.join(", "),
            reason
        )
    }
}

/// The paper's `INVALID SUBSYSTEM USAGE` verification failure.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UsageViolation {
    /// The shortest offending integration word, markers included.
    pub counterexample: Word,
    /// The counterexample rendered with event names
    /// (`open_a, a.test, a.open`).
    pub counterexample_text: String,
    /// Per-subsystem explanations (every subsystem whose projection of the
    /// counterexample is invalid).
    pub subsystem_errors: Vec<SubsystemError>,
}

impl UsageViolation {
    /// Renders the full error block exactly as the paper prints it.
    pub fn render(&self) -> String {
        let mut out = String::from("Error in specification: INVALID SUBSYSTEM USAGE\n");
        out.push_str(&format!("Counter example: {}\n", self.counterexample_text));
        out.push_str("Subsystems errors:\n");
        for e in &self.subsystem_errors {
            out.push_str(&format!("  * {}\n", e.render()));
        }
        out
    }
}

/// Checks every subsystem of `system` against its class specification.
///
/// Returns `Ok(())` when all projections are included, otherwise the first
/// (shortest) violation found, checking subsystems in declaration order.
///
/// Fields in `proven` were established protocol-conforming by the
/// typestate analysis ([`crate::dataflow::typestate`]): their inclusion
/// check is guaranteed to pass and is skipped — the verification fast
/// path. Pass an empty set to check everything.
pub fn check_usage(
    system: &System,
    systems: &SystemSet,
    integration: &Integration,
    proven: &BTreeSet<String>,
) -> Result<(), UsageViolation> {
    check_usage_counted(system, systems, integration, proven).0
}

/// [`check_usage`] plus the inclusion-search counters summed over every
/// subsystem checked.
///
/// Each inclusion runs on the one inclusion search
/// ([`shelley_regular::antichain::joint_search`]) against the complement of
/// the subsystem's lazily determinized spec: a pair is discarded when a
/// kept pair at the same integration state has a ⊆-smaller spec
/// macrostate, so conforming code never pays full determinization, and the
/// witness it returns is the reported counterexample.
pub fn check_usage_counted(
    system: &System,
    systems: &SystemSet,
    integration: &Integration,
    proven: &BTreeSet<String>,
) -> (Result<(), UsageViolation>, InclusionStats) {
    let mut search = InclusionStats::default();
    let Some(info) = system.composite() else {
        return (Ok(()), search);
    };
    let alphabet = integration.nfa.alphabet().clone();

    let mut best: Option<(Word, &Subsystem, &ClassSpec)> = None;
    let mut buf = String::new();
    for sub in &info.subsystems {
        if proven.contains(&sub.field) {
            continue;
        }
        let Some(sub_system) = systems.get(&sub.class_name) else {
            continue;
        };
        let spec = &sub_system.spec;
        // The spec automaton of this instance over the global alphabet,
        // driven as a lazy view: the inclusion check below determinizes
        // only the spec subsets the integration language actually reaches,
        // and the antichain prunes the ⊆-subsumed ones among those.
        let auto = spec_automaton(spec, Some(&sub.field), alphabet.clone());
        // Everything that is not an event of this subsystem is invisible.
        let sub_events: BTreeSet<Symbol> = spec
            .operations
            .iter()
            .filter_map(|op| lookup_qualified(&alphabet, Some(&sub.field), &op.name, &mut buf))
            .collect();
        let invisible: BTreeSet<Symbol> = alphabet
            .symbols()
            .filter(|s| !sub_events.contains(s))
            .collect();
        let found = joint_search(&integration.nfa, &Complement::new(auto.view()), &invisible);
        search.absorb(found.stats);
        if let Some(word) = found.witness {
            let better = match &best {
                None => true,
                Some((w, _, _)) => word.len() < w.len(),
            };
            if better {
                best = Some((word, sub, spec));
            }
        }
    }

    let Some((word, _, _)) = &best else {
        return (Ok(()), search);
    };

    // Explain the counterexample for every subsystem whose projection is
    // invalid (the paper lists "Subsystems errors" plural). The simulation
    // artifacts (unqualified alphabet + materialized spec DFA + dead-state
    // classification) are built once per distinct class and shared across
    // the error loop.
    let mut sims: BTreeMap<&str, SpecSim> = BTreeMap::new();
    let mut subsystem_errors = Vec::new();
    for sub in &info.subsystems {
        let Some(sub_system) = systems.get(&sub.class_name) else {
            continue;
        };
        let sim = sims
            .entry(sub.class_name.as_str())
            .or_insert_with(|| SpecSim::new(&sub_system.spec));
        if let Some(err) = explain_projection(word, sub, &sub_system.spec, integration, sim) {
            subsystem_errors.push(err);
        }
    }

    let counterexample_text = alphabet.render_word(word);
    (
        Err(UsageViolation {
            counterexample: word.clone(),
            counterexample_text,
            subsystem_errors,
        }),
        search,
    )
}

/// The per-class simulation artifacts [`explain_projection`] walks: the
/// unqualified spec alphabet, the materialized spec DFA, and its dead-state
/// classification. Built once per distinct subsystem class and reused
/// across the error loop — multiple fields of the same class (and multiple
/// errors of one violation) share one materialization.
struct SpecSim {
    ab: shelley_regular::Alphabet,
    dfa: Dfa,
    dead: Vec<bool>,
}

impl SpecSim {
    fn new(spec: &ClassSpec) -> SpecSim {
        // Dead-state classification needs the whole (tiny, per-class)
        // automaton, so this diagnostic-only path materializes the spec
        // view.
        let mut ab = shelley_regular::Alphabet::new();
        crate::spec::intern_spec_events(spec, None, &mut ab);
        let auto = spec_automaton(spec, None, std::sync::Arc::new(ab.clone()));
        let dfa = auto.materialize();
        let dead = dfa.dead_states();
        SpecSim { ab, dfa, dead }
    }
}

/// Walks `x`'s projection of `word` through `spec` and explains the first
/// failure, if any.
fn explain_projection(
    word: &Word,
    sub: &Subsystem,
    spec: &ClassSpec,
    integration: &Integration,
    sim: &SpecSim,
) -> Option<SubsystemError> {
    let alphabet = integration.nfa.alphabet();
    // Map each event symbol of this subsystem to its operation name.
    let mut op_of: BTreeMap<Symbol, String> = BTreeMap::new();
    for op in &spec.operations {
        if let Some(sym) = alphabet.lookup(&format!("{}.{}", sub.field, op.name)) {
            op_of.insert(sym, op.name.clone());
        }
    }
    let projected: Vec<&String> = word.iter().filter_map(|s| op_of.get(s)).collect();
    if projected.is_empty() {
        return None;
    }
    let trace: Vec<String> = projected.iter().map(|s| (*s).clone()).collect();

    // Simulate the unqualified spec automaton step by step over the
    // prebuilt per-class artifacts.
    let SpecSim { ab, dfa, dead } = sim;
    let mut state = dfa.start();
    for (i, op_name) in trace.iter().enumerate() {
        let sym = ab.lookup(op_name).expect("spec op interned");
        let next = dfa.step(state, sym);
        if dead[next] {
            let reason = if i == 0 {
                FailureReason::NotInitial
            } else {
                FailureReason::NotAllowed
            };
            return Some(SubsystemError {
                class_name: spec.name.clone(),
                field: sub.field.clone(),
                trace,
                failing_index: i,
                reason,
            });
        }
        state = next;
    }
    if !dfa.is_accepting(state) {
        let failing_index = trace.len() - 1;
        return Some(SubsystemError {
            class_name: spec.name.clone(),
            field: sub.field.clone(),
            trace,
            failing_index,
            reason: FailureReason::NotFinal,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integration::build_integration;
    use crate::system::build_systems;
    use micropython_parser::parse_module;

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

    fn verify(src: &str, class: &str) -> Result<(), UsageViolation> {
        let m = parse_module(src).unwrap();
        let (systems, diags) = build_systems(&m);
        assert!(!diags.has_errors(), "{:?}", diags);
        let sys = systems.get(class).unwrap();
        let integration = build_integration(sys);
        check_usage(sys, &systems, &integration, &BTreeSet::new())
    }

    #[test]
    fn badsector_reproduces_paper_error() {
        let src = format!(
            r#"{VALVE}
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
"#
        );
        let violation = verify(&src, "BadSector").unwrap_err();
        // The paper's exact counterexample and subsystem explanation.
        assert_eq!(violation.counterexample_text, "open_a, a.test, a.open");
        assert_eq!(violation.subsystem_errors.len(), 1);
        assert_eq!(
            violation.subsystem_errors[0].render(),
            "Valve 'a': test, >open< (not final)"
        );
        let rendered = violation.render();
        assert!(rendered.starts_with("Error in specification: INVALID SUBSYSTEM USAGE"));
        assert!(rendered.contains("Counter example: open_a, a.test, a.open"));
        assert!(rendered.contains("  * Valve 'a': test, >open< (not final)"));
    }

    #[test]
    fn good_sector_passes() {
        let src = format!(
            r#"{VALVE}
@sys(["a"])
class GoodSector:
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
        assert!(verify(&src, "GoodSector").is_ok());
    }

    #[test]
    fn wrong_order_explained_as_not_allowed() {
        let src = format!(
            r#"{VALVE}
@sys(["a"])
class Hasty:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def slam(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.clean()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#
        );
        let violation = verify(&src, "Hasty").unwrap_err();
        let err = &violation.subsystem_errors[0];
        assert_eq!(err.reason, FailureReason::NotAllowed);
        assert_eq!(err.trace, vec!["test", "open", "clean"]);
        assert_eq!(err.failing_index, 2);
        assert!(err.render().contains(">clean<"));
    }

    #[test]
    fn not_initial_explained() {
        let src = format!(
            r#"{VALVE}
@sys(["a"])
class Rude:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def barge(self):
        self.a.open()
        self.a.close()
        return []
"#
        );
        let violation = verify(&src, "Rude").unwrap_err();
        let err = &violation.subsystem_errors[0];
        assert_eq!(err.reason, FailureReason::NotInitial);
        assert_eq!(err.failing_index, 0);
    }

    #[test]
    fn multiple_subsystems_only_faulty_one_reported() {
        let src = format!(
            r#"{VALVE}
@sys(["a", "b"])
class Mixed:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def run(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return ["poke_b"]
            case ["clean"]:
                self.a.clean()
                return []

    @op_final
    def poke_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                return []
            case ["clean"]:
                self.b.clean()
                return []
"#
        );
        let violation = verify(&src, "Mixed").unwrap_err();
        // Only b is misused (left open); the error mentions b, not a.
        assert!(violation.subsystem_errors.iter().all(|e| e.field == "b"));
    }
}
