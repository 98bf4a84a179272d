//! Graphviz DOT rendering for automata.
//!
//! Shelley's behavior diagrams (Figures 1–3 of the paper) are produced by
//! rendering specification automata with these helpers.

use crate::dfa::Dfa;
use crate::nfa::{Label, Nfa};
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Nfa {
    /// Renders the automaton as a Graphviz digraph named `name`.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", escape(name));
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle];");
        let _ = writeln!(out, "  __start [shape=point];");
        let _ = writeln!(out, "  __start -> q{};", self.start());
        for q in 0..self.num_states() {
            if self.is_accepting(q) {
                let _ = writeln!(out, "  q{q} [shape=doublecircle];");
            }
        }
        for q in 0..self.num_states() {
            for &(label, dst) in self.edges_from(q) {
                let text = match label {
                    Label::Eps => "ε".to_string(),
                    Label::Sym(s) => escape(self.alphabet().name(s)),
                };
                let _ = writeln!(out, "  q{q} -> q{dst} [label=\"{text}\"];");
            }
        }
        out.push_str("}\n");
        out
    }
}

impl Dfa {
    /// Renders the automaton as a Graphviz digraph named `name`.
    ///
    /// Transitions into a dead rejecting sink are omitted for readability.
    pub fn to_dot(&self, name: &str) -> String {
        let dead = self.dead_states();
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", escape(name));
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle];");
        let _ = writeln!(out, "  __start [shape=point];");
        let _ = writeln!(out, "  __start -> q{};", self.start());
        for (q, _) in dead.iter().enumerate().filter(|(_, &d)| !d) {
            if self.is_accepting(q) {
                let _ = writeln!(out, "  q{q} [shape=doublecircle];");
            }
        }
        for q in 0..self.num_states() {
            if dead[q] {
                continue;
            }
            for (sym, name) in self.alphabet().iter() {
                let dst = self.step(q, sym);
                if dead[dst] {
                    continue;
                }
                let _ = writeln!(out, "  q{q} -> q{dst} [label=\"{}\"];", escape(name));
            }
        }
        out.push_str("}\n");
        out
    }

    /// States from which no accepting state is reachable.
    pub fn dead_states(&self) -> Vec<bool> {
        // Backwards reachability from accepting states; the predecessor
        // scan walks the dense successor rows, one contiguous slice per
        // state.
        let n = self.num_states();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for q in 0..n {
            for &dst in self.row(q) {
                preds[dst as usize].push(q);
            }
        }
        let mut live = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&q| self.is_accepting(q)).collect();
        for &q in &stack {
            live[q] = true;
        }
        while let Some(q) = stack.pop() {
            for &p in &preds[q] {
                if !live[p] {
                    live[p] = true;
                    stack.push(p);
                }
            }
        }
        live.iter().map(|&l| !l).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use crate::symbol::Alphabet;
    use std::sync::Arc;

    #[test]
    fn nfa_dot_contains_states_and_labels() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a.open");
        let nfa = Nfa::from_regex(&Regex::sym(a), Arc::new(ab));
        let dot = nfa.to_dot("valve");
        assert!(dot.starts_with("digraph \"valve\""));
        assert!(dot.contains("a.open"));
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn dfa_dot_omits_dead_sink() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let nfa = Nfa::from_regex(&Regex::sym(a), Arc::new(ab));
        let dfa = Dfa::from_nfa(&nfa);
        let dot = dfa.to_dot("d");
        // Only one real edge (on a); the b-edge into the sink is hidden.
        assert_eq!(dot.matches("->").count(), 2); // __start edge + a edge
        let _ = b;
    }

    #[test]
    fn dead_states_detects_sink() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let nfa = Nfa::from_regex(&Regex::sym(a), Arc::new(ab));
        let dfa = Dfa::from_nfa(&nfa);
        let dead = dfa.dead_states();
        assert_eq!(dead.iter().filter(|&&d| d).count(), 1);
    }
}
