//! Class specifications: the operation model of a `@sys` class.
//!
//! A specification is the data of §3.1's method-dependency graph: a set of
//! operations, which of them are initial/final, and — per *exit point*
//! (return site) — the set of operations allowed next. Compiling the
//! specification yields an NFA whose states are exit points; its language
//! is the set of **complete usages** of the class (starting at an initial
//! operation, ending at a final one; the empty usage is always legal).

use crate::annotations::OpKind;
use micropython_parser::Span;
use shelley_regular::lang::{self, NfaView};
use shelley_regular::{Alphabet, Dfa, Label, Nfa, StateId, Symbol};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One exit point (return site) of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitSpec {
    /// Names of the operations that may be invoked next (`return ["close"]`
    /// → `["close"]`; `return []` → empty).
    pub next: Vec<String>,
    /// Where the `return` was written (absent for implicit returns).
    pub span: Option<Span>,
    /// Whether this exit was synthesized for a body that can fall off the
    /// end without a `return`.
    pub implicit: bool,
}

/// One operation (an `@op*`-annotated method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationSpec {
    /// The method name.
    pub name: String,
    /// Initial/final/middle (Table 1).
    pub kind: OpKind,
    /// Exit points in source order.
    pub exits: Vec<ExitSpec>,
    /// Where the method was declared.
    pub span: Option<Span>,
}

/// The specification (operation model) of a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSpec {
    /// The class name.
    pub name: String,
    /// Operations in declaration order.
    pub operations: Vec<OperationSpec>,
}

impl ClassSpec {
    /// Finds an operation by name.
    pub fn operation(&self, name: &str) -> Option<&OperationSpec> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Names of the initial operations.
    pub fn initial_ops(&self) -> impl Iterator<Item = &OperationSpec> {
        self.operations.iter().filter(|o| o.kind.is_initial())
    }

    /// The distinct next-sets of an operation's exits — the "exit classes"
    /// a caller must scrutinize with `match` (§2.2, *Matching exit
    /// points*).
    pub fn exit_next_sets(&self, op: &str) -> Vec<BTreeSet<String>> {
        let Some(op) = self.operation(op) else {
            return Vec::new();
        };
        let mut seen: Vec<BTreeSet<String>> = Vec::new();
        for exit in &op.exits {
            let set: BTreeSet<String> = exit.next.iter().cloned().collect();
            if !seen.contains(&set) {
                seen.push(set);
            }
        }
        seen
    }
}

/// The exit-point automaton of a specification, with the bookkeeping
/// needed to explain runs (which state is which exit).
#[derive(Debug, Clone)]
pub struct SpecAutomaton {
    nfa: Nfa,
    /// `(operation index, exit index)` of exit state `q` at `q - 1`: the
    /// exit states follow the start state, operation by operation.
    exit_info: Vec<(usize, usize)>,
    start: StateId,
}

impl SpecAutomaton {
    /// The underlying NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The start state (no operation invoked yet).
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Which `(operation, exit)` a state represents, if it is an exit state.
    pub fn exit_at(&self, state: StateId) -> Option<(usize, usize)> {
        self.exit_info.get(state.checked_sub(1)?).copied()
    }

    /// The spec language as a lazy [`Lang`](shelley_regular::lang::Lang)
    /// view — what verification drives; no subset construction happens.
    pub fn view(&self) -> NfaView<'_> {
        NfaView::new(&self.nfa)
    }

    /// Determinizes the spec language for export (diagrams, NuSMV,
    /// statistics) through the shared materialization helper.
    ///
    /// Checks never need this: they explore [`view`](Self::view) lazily.
    pub fn materialize(&self) -> Dfa {
        lang::materialize(&self.view())
    }
}

/// Compiles `spec` into its exit-point automaton over `alphabet`.
///
/// Event symbols are the operation names, optionally qualified with
/// `prefix.` (so the `Valve` spec of field `a` speaks `a.test`, `a.open`,
/// …). All operation symbols are interned into `alphabet` by
/// [`intern_spec_events`] before this is called.
///
/// States: one start state plus one state per exit point. Transitions:
/// `start --op--> exit(op, i)` for every initial `op` and each of its
/// exits; `exit(e) --op'--> exit(op', j)` whenever `op' ∈ next(e)`.
/// Accepting: the start state (empty usage) and every exit of a final
/// operation.
pub fn spec_automaton(
    spec: &ClassSpec,
    prefix: Option<&str>,
    alphabet: Arc<Alphabet>,
) -> SpecAutomaton {
    // Each operation's symbol, looked up once.
    let mut buf = String::new();
    let syms: Vec<Symbol> = spec
        .operations
        .iter()
        .map(|op| {
            lookup_qualified(&alphabet, prefix, &op.name, &mut buf)
                .unwrap_or_else(|| panic!("operation symbol `{buf}` not interned"))
        })
        .collect();

    let mut b = Nfa::builder(alphabet.clone());
    let start = b.add_state();
    b.set_start(start);
    b.mark_accepting(start);

    // Allocate exit states: operation `oi`'s exit `ei` is state
    // `first_exit[oi] + ei`.
    let mut first_exit = Vec::with_capacity(spec.operations.len());
    let mut exit_info = Vec::new();
    for (oi, op) in spec.operations.iter().enumerate() {
        first_exit.push(start + 1 + exit_info.len());
        for ei in 0..op.exits.len() {
            let s = b.add_state();
            exit_info.push((oi, ei));
            if op.kind.is_final() {
                b.mark_accepting(s);
            }
        }
    }
    let exits = |oi: usize| first_exit[oi]..first_exit[oi] + spec.operations[oi].exits.len();

    // start --op--> exits of initial ops.
    for (oi, op) in spec.operations.iter().enumerate() {
        if op.kind.is_initial() {
            for dst in exits(oi) {
                b.add_edge(start, Label::Sym(syms[oi]), dst);
            }
        }
    }

    // exit --op'--> exits of op' for each op' in next(exit).
    for (oi, op) in spec.operations.iter().enumerate() {
        for (ei, exit) in op.exits.iter().enumerate() {
            let from = first_exit[oi] + ei;
            for next_name in &exit.next {
                let Some(ni) = spec.operations.iter().rposition(|o| o.name == *next_name) else {
                    // Undefined next-operations are reported by validation;
                    // the automaton simply omits the edge.
                    continue;
                };
                for dst in exits(ni) {
                    b.add_edge(from, Label::Sym(syms[ni]), dst);
                }
            }
        }
    }

    SpecAutomaton {
        nfa: b.build(),
        exit_info,
        start,
    }
}

/// The exit-point automaton of [`spec_automaton`] as index arrays, for
/// walks that need its shape but no alphabet: state 0 is the start and
/// state `1 + x` the `x`-th exit in operation order, as in
/// [`SpecAutomaton`], and an edge into an exit of operation `oi` invokes
/// `oi`. A next-operation name resolves to the last operation of that
/// name, and an undefined one adds no edge, as in [`spec_automaton`].
#[derive(Debug)]
pub(crate) struct ExitGraph<'s> {
    spec: &'s ClassSpec,
    /// Operation `oi`'s exits are `first[oi]..first[oi + 1]`.
    first: Vec<usize>,
    /// The operation of each exit.
    owner: Vec<usize>,
    /// Exit `x` names the operations `next[next_start[x]..next_start[x + 1]]`.
    next_start: Vec<usize>,
    next: Vec<usize>,
}

impl<'s> ExitGraph<'s> {
    /// Resolves the next-operation names of `spec` once.
    pub(crate) fn new(spec: &'s ClassSpec) -> ExitGraph<'s> {
        let mut first = Vec::with_capacity(spec.operations.len() + 1);
        let mut owner = Vec::new();
        for (oi, op) in spec.operations.iter().enumerate() {
            first.push(owner.len());
            owner.extend(std::iter::repeat_n(oi, op.exits.len()));
        }
        first.push(owner.len());
        let mut next_start = Vec::with_capacity(owner.len() + 1);
        let mut next = Vec::new();
        for exit in spec.operations.iter().flat_map(|op| &op.exits) {
            next_start.push(next.len());
            next.extend(
                exit.next
                    .iter()
                    .filter_map(|name| spec.operations.iter().rposition(|o| o.name == *name)),
            );
        }
        next_start.push(next.len());
        ExitGraph {
            spec,
            first,
            owner,
            next_start,
            next,
        }
    }

    /// Number of states: the start plus one per exit.
    pub(crate) fn num_states(&self) -> usize {
        1 + self.owner.len()
    }

    /// Which `(operation, exit)` a state represents, if it is an exit
    /// state.
    pub(crate) fn exit_at(&self, state: usize) -> Option<(usize, usize)> {
        let x = state.checked_sub(1)?;
        let oi = self.owner[x];
        Some((oi, x - self.first[oi]))
    }

    /// The state of exit `ei` of operation `oi`.
    pub(crate) fn state(&self, oi: usize, ei: usize) -> usize {
        1 + self.first[oi] + ei
    }

    /// Whether a state accepts: the start, and the exits of final
    /// operations.
    pub(crate) fn is_accepting(&self, state: usize) -> bool {
        self.exit_at(state)
            .is_none_or(|(oi, _)| self.spec.operations[oi].kind.is_final())
    }

    /// Calls `visit(oi, dst)` for every edge out of `state`, in the edge
    /// order of [`spec_automaton`]: `oi` is the operation invoked and
    /// `dst` one of its exits.
    pub(crate) fn for_each_edge(&self, state: usize, mut visit: impl FnMut(usize, usize)) {
        let mut into = |oi: usize| {
            for x in self.first[oi]..self.first[oi + 1] {
                visit(oi, 1 + x);
            }
        };
        match state.checked_sub(1) {
            None => {
                for (oi, op) in self.spec.operations.iter().enumerate() {
                    if op.kind.is_initial() {
                        into(oi);
                    }
                }
            }
            Some(x) => {
                for &ni in &self.next[self.next_start[x]..self.next_start[x + 1]] {
                    into(ni);
                }
            }
        }
    }

    /// The states reachable from the start.
    pub(crate) fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(q) = stack.pop() {
            self.for_each_edge(q, |_, dst| {
                if !seen[dst] {
                    seen[dst] = true;
                    stack.push(dst);
                }
            });
        }
        seen
    }

    /// The states from which an accepting state is reachable.
    pub(crate) fn coreachable(&self) -> Vec<bool> {
        let mut co: Vec<bool> = (0..self.num_states())
            .map(|q| self.is_accepting(q))
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for q in 0..co.len() {
                if !co[q] {
                    let mut live = false;
                    self.for_each_edge(q, |_, dst| live |= co[dst]);
                    co[q] = live;
                    changed |= live;
                }
            }
        }
        co
    }
}

/// Interns every operation symbol of `spec` (qualified with `prefix.` if
/// given) into `alphabet`.
pub fn intern_spec_events(spec: &ClassSpec, prefix: Option<&str>, alphabet: &mut Alphabet) {
    for op in &spec.operations {
        alphabet.intern(&qualify(prefix, &op.name));
    }
}

/// The symbol of operation `name` qualified with `prefix.`, if `alphabet`
/// holds it; the qualified name is spelled in `buf`.
pub(crate) fn lookup_qualified(
    alphabet: &Alphabet,
    prefix: Option<&str>,
    name: &str,
    buf: &mut String,
) -> Option<Symbol> {
    buf.clear();
    if let Some(p) = prefix {
        buf.push_str(p);
        buf.push('.');
    }
    buf.push_str(name);
    alphabet.lookup(buf)
}

/// Qualifies an operation name with an instance prefix (`a` + `open` →
/// `a.open`).
pub fn qualify(prefix: Option<&str>, name: &str) -> String {
    match prefix {
        Some(p) => format!("{p}.{name}"),
        None => name.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Valve specification of Listing 2.1.
    pub(crate) fn valve_spec() -> ClassSpec {
        ClassSpec {
            name: "Valve".into(),
            operations: vec![
                OperationSpec {
                    name: "test".into(),
                    kind: OpKind::Initial,
                    exits: vec![
                        ExitSpec {
                            next: vec!["open".into()],
                            span: None,
                            implicit: false,
                        },
                        ExitSpec {
                            next: vec!["clean".into()],
                            span: None,
                            implicit: false,
                        },
                    ],
                    span: None,
                },
                OperationSpec {
                    name: "open".into(),
                    kind: OpKind::Middle,
                    exits: vec![ExitSpec {
                        next: vec!["close".into()],
                        span: None,
                        implicit: false,
                    }],
                    span: None,
                },
                OperationSpec {
                    name: "close".into(),
                    kind: OpKind::Final,
                    exits: vec![ExitSpec {
                        next: vec!["test".into()],
                        span: None,
                        implicit: false,
                    }],
                    span: None,
                },
                OperationSpec {
                    name: "clean".into(),
                    kind: OpKind::Final,
                    exits: vec![ExitSpec {
                        next: vec!["test".into()],
                        span: None,
                        implicit: false,
                    }],
                    span: None,
                },
            ],
        }
    }

    fn valve_automaton(prefix: Option<&str>) -> (Arc<Alphabet>, SpecAutomaton) {
        let spec = valve_spec();
        let mut ab = Alphabet::new();
        intern_spec_events(&spec, prefix, &mut ab);
        let ab = Arc::new(ab);
        let auto = spec_automaton(&spec, prefix, ab.clone());
        (ab, auto)
    }

    /// [`ExitGraph`] walks exactly the states, acceptance and edges of
    /// [`spec_automaton`], in its edge order: on the valve, and on a spec
    /// with a repeated and an undefined next name, a redefined operation
    /// (next names resolve to the last one) and an operation without
    /// exits.
    #[test]
    fn exit_graph_mirrors_the_spec_automaton() {
        let op = |name: &str, kind, exits: &[&[&str]]| OperationSpec {
            name: name.into(),
            kind,
            exits: exits
                .iter()
                .map(|next| ExitSpec {
                    next: next.iter().map(|n| n.to_string()).collect(),
                    span: None,
                    implicit: false,
                })
                .collect(),
            span: None,
        };
        let odd = ClassSpec {
            name: "Odd".into(),
            operations: vec![
                op("a", OpKind::Initial, &[&["b", "b", "gone"], &["a"]]),
                op("b", OpKind::Middle, &[&["c"]]),
                op("b", OpKind::Final, &[&[], &["a", "c"]]),
                op("c", OpKind::InitialFinal, &[]),
            ],
        };
        for spec in [valve_spec(), odd] {
            let mut ab = Alphabet::new();
            intern_spec_events(&spec, None, &mut ab);
            let auto = spec_automaton(&spec, None, Arc::new(ab));
            let (nfa, graph) = (auto.nfa(), ExitGraph::new(&spec));
            assert_eq!(graph.num_states(), nfa.num_states());
            for q in 0..nfa.num_states() {
                assert_eq!(graph.exit_at(q), auto.exit_at(q), "{} state {q}", spec.name);
                assert_eq!(graph.is_accepting(q), nfa.is_accepting(q));
                let mut edges = Vec::new();
                graph.for_each_edge(q, |oi, dst| {
                    let name = &spec.operations[oi].name;
                    edges.push((Label::Sym(nfa.alphabet().lookup(name).unwrap()), dst));
                });
                assert_eq!(edges, nfa.edges_from(q), "{} state {q}", spec.name);
            }
        }
    }

    #[test]
    fn valve_accepts_paper_usages() {
        let (ab, auto) = valve_automaton(None);
        let s = |n: &str| ab.lookup(n).unwrap();
        let nfa = auto.nfa();
        // Empty usage is legal.
        assert!(nfa.accepts(&[]));
        // test → open → close.
        assert!(nfa.accepts(&[s("test"), s("open"), s("close")]));
        // test → clean.
        assert!(nfa.accepts(&[s("test"), s("clean")]));
        // Repeat cycles: close returns ["test"].
        assert!(nfa.accepts(&[s("test"), s("open"), s("close"), s("test"), s("clean")]));
    }

    #[test]
    fn valve_rejects_bad_usages() {
        let (ab, auto) = valve_automaton(None);
        let s = |n: &str| ab.lookup(n).unwrap();
        let nfa = auto.nfa();
        // The BadSector failure: test → open is incomplete (open not final).
        assert!(!nfa.accepts(&[s("test"), s("open")]));
        // Cannot start with open (not initial).
        assert!(!nfa.accepts(&[s("open"), s("close")]));
        // Cannot clean after open.
        assert!(!nfa.accepts(&[s("test"), s("open"), s("clean")]));
        // Only test alone is incomplete too.
        assert!(!nfa.accepts(&[s("test")]));
    }

    #[test]
    fn qualified_automaton_speaks_prefixed_events() {
        let (ab, auto) = valve_automaton(Some("a"));
        let s = |n: &str| ab.lookup(n).unwrap();
        assert!(auto.nfa().accepts(&[s("a.test"), s("a.clean")]));
        assert!(ab.lookup("test").is_none());
    }

    #[test]
    fn exit_states_are_tracked() {
        let (_, auto) = valve_automaton(None);
        // 5 exits total (test has 2, the other three 1 each) + start.
        assert_eq!(auto.nfa().num_states(), 6);
        let exits: Vec<(usize, usize)> = (0..auto.nfa().num_states())
            .filter_map(|q| auto.exit_at(q))
            .collect();
        assert_eq!(exits.len(), 5);
        assert!(auto.exit_at(auto.start()).is_none());
    }

    #[test]
    fn exit_next_sets_deduplicate() {
        let spec = valve_spec();
        let sets = spec.exit_next_sets("test");
        assert_eq!(sets.len(), 2);
        assert!(sets.contains(&BTreeSet::from(["open".to_string()])));
        assert!(sets.contains(&BTreeSet::from(["clean".to_string()])));
        assert_eq!(spec.exit_next_sets("close").len(), 1);
        assert!(spec.exit_next_sets("missing").is_empty());
    }

    #[test]
    fn spec_language_is_regular_and_deterministic_after_compilation() {
        let (_, auto) = valve_automaton(None);
        let dfa = auto.materialize().minimize();
        assert!(dfa.num_states() >= 3);
        // Deterministic check agrees with the NFA on enumerated words.
        for w in dfa.enumerate_words(5, 200) {
            assert!(auto.nfa().accepts(&w));
        }
    }
}
