//! System statistics: the quantitative summary of an extracted model.
//!
//! Used by the CLI's `stats` subcommand and the benchmark harness to report
//! the sizes the verification passes operate on (Shelley's design goal —
//! §2's "to make our analysis scalable" — is visible in these numbers: the
//! model is an automaton over operations, not program states).

use crate::integration::build_integration;
use crate::spec::{intern_spec_events, spec_automaton, ClassSpec};
use crate::system::System;
use shelley_ir::{denote_exits, infer};
use shelley_regular::Alphabet;
use std::fmt;
use std::sync::Arc;

/// Quantitative summary of one system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// The class name.
    pub name: String,
    /// Whether the system is composite.
    pub composite: bool,
    /// Number of operations.
    pub operations: usize,
    /// Total exit points across operations.
    pub exits: usize,
    /// Number of initial operations.
    pub initial_ops: usize,
    /// Number of final operations.
    pub final_ops: usize,
    /// Spec-automaton states (exit-point automaton).
    pub spec_states: usize,
    /// Minimal-DFA states of the spec language.
    pub spec_min_dfa_states: usize,
    /// Composite only: subsystem count.
    pub subsystems: usize,
    /// Composite only: integration-NFA states.
    pub integration_states: usize,
    /// Composite only: integration alphabet size (markers + events).
    pub alphabet_size: usize,
    /// Composite only: total inferred-behavior regex nodes across ops.
    pub behavior_nodes: usize,
    /// Number of claims.
    pub claims: usize,
}

impl fmt::Display for SystemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({})",
            self.name,
            if self.composite { "composite" } else { "base" }
        )?;
        writeln!(
            f,
            "  operations: {} ({} initial, {} final), exit points: {}",
            self.operations, self.initial_ops, self.final_ops, self.exits
        )?;
        writeln!(
            f,
            "  spec automaton: {} states (minimal DFA: {})",
            self.spec_states, self.spec_min_dfa_states
        )?;
        if self.composite {
            writeln!(
                f,
                "  subsystems: {}, integration NFA: {} states, alphabet: {}",
                self.subsystems, self.integration_states, self.alphabet_size
            )?;
            writeln!(
                f,
                "  inferred behavior size: {} regex nodes",
                self.behavior_nodes
            )?;
        }
        write!(f, "  claims: {}", self.claims)
    }
}

/// Computes the statistics of a system.
///
/// Determinizing and minimizing the spec language is export-grade work, so
/// it runs through [`SpecAutomaton::materialize`](crate::spec::SpecAutomaton::materialize);
/// repeated callers should go through
/// [`Workspace::class_stats`](crate::workspace::Workspace::class_stats),
/// which caches the result per class fingerprint.
pub fn system_stats(system: &System) -> SystemStats {
    let spec: &ClassSpec = &system.spec;
    let mut ab = Alphabet::new();
    intern_spec_events(spec, None, &mut ab);
    let auto = spec_automaton(spec, None, Arc::new(ab));
    let spec_states = auto.nfa().num_states();
    let spec_min_dfa_states = auto.materialize().minimize().num_states();

    let (composite, subsystems, integration_states, alphabet_size, behavior_nodes) = match system
        .composite()
    {
        None => (false, 0, 0, 0, 0),
        Some(info) => {
            let integration = build_integration(system);
            let behavior_nodes = info
                .methods
                .iter()
                .map(|(_, m)| {
                    let (_, exits) = denote_exits(&m.program);
                    exits.iter().map(|(_, r)| r.size()).sum::<usize>() + infer(&m.program).size()
                })
                .sum();
            (
                true,
                info.subsystems.len(),
                integration.nfa.num_states(),
                info.alphabet.len(),
                behavior_nodes,
            )
        }
    };

    SystemStats {
        name: system.name.clone(),
        composite,
        operations: spec.operations.len(),
        exits: spec.operations.iter().map(|o| o.exits.len()).sum(),
        initial_ops: spec
            .operations
            .iter()
            .filter(|o| o.kind.is_initial())
            .count(),
        final_ops: spec.operations.iter().filter(|o| o.kind.is_final()).count(),
        spec_states,
        spec_min_dfa_states,
        subsystems,
        integration_states,
        alphabet_size,
        behavior_nodes,
        claims: system.claims.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;

    const SRC: &str = r#"
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

@claim("(!a.open) W a.test")
@sys(["a"])
class Sector:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def water(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#;

    #[test]
    fn valve_stats() {
        let checked = Checker::new().check_source(SRC).unwrap();
        let stats = system_stats(checked.systems.get("Valve").unwrap());
        assert!(!stats.composite);
        assert_eq!(stats.operations, 4);
        assert_eq!(stats.exits, 5);
        assert_eq!(stats.initial_ops, 1);
        assert_eq!(stats.final_ops, 2);
        assert_eq!(stats.spec_states, 6); // start + 5 exits
        assert!(stats.spec_min_dfa_states <= stats.spec_states + 1);
        assert_eq!(stats.claims, 0);
    }

    #[test]
    fn sector_stats() {
        let checked = Checker::new().check_source(SRC).unwrap();
        let stats = system_stats(checked.systems.get("Sector").unwrap());
        assert!(stats.composite);
        assert_eq!(stats.operations, 1);
        assert_eq!(stats.subsystems, 1);
        assert_eq!(stats.claims, 1);
        assert!(stats.integration_states > 0);
        assert!(stats.behavior_nodes > 0);
        // Alphabet: marker `water` + 4 valve events + claim atoms (already
        // valve events).
        assert_eq!(stats.alphabet_size, 5);
    }

    #[test]
    fn display_is_readable() {
        let checked = Checker::new().check_source(SRC).unwrap();
        let stats = system_stats(checked.systems.get("Sector").unwrap());
        let text = stats.to_string();
        assert!(text.contains("Sector (composite)"));
        assert!(text.contains("subsystems: 1"));
        assert!(text.contains("claims: 1"));
    }
}
