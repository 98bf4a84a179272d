//! Automaton-typestate analysis of composite classes.
//!
//! For each subsystem field `f` of a composite class, the abstract value at
//! a program point is a [`Fact`]: the set of states the dependency's spec
//! DFA may be in, plus an `unknown` bit that records every source of
//! imprecision (calls the extraction cannot replay exactly, unknown
//! operations, recursive or `break`/`continue`-carrying helpers). Transfer
//! functions step the DFA per `self.f.m()` call; sibling `self.m()` calls
//! apply interprocedural *summaries* — state-transformer tables computed
//! bottom-up over the self-call graph, with a sound all-`unknown` fallback
//! on recursion.
//!
//! Soundness contract: whenever a fact has `unknown == false`, its state
//! set is a superset of the dependency states reachable at that point along
//! the §3.2 lowering's paths (the paths verification enumerates). The CFG
//! minus its phantom `match` fall-through edges over-approximates those
//! paths, *except* around `break`/`continue` — the lowering treats loop
//! jumps as `skip` while the graph jumps — so any method containing a loop
//! jump degrades wholesale to `unknown`. On that contract ride three
//! results:
//!
//! * **definite violations** (every possibly-live dependency state is
//!   driven into the dead sink on a path that can still complete an
//!   accepted usage) are true positives of full verification;
//! * **possible violations** flag the remaining some-state-dies calls;
//! * the **fast path**: when every accepting state of the composite's own
//!   exit-point automaton carries a fact with `unknown == false` whose
//!   states are all accepting in the dependency DFA, the projected-subset
//!   check of [`crate::verify`] is guaranteed to pass and can be skipped.

use crate::dataflow::{solve, Analysis};
use crate::extract::cfg::{CallTarget, Cfg, NodeId};
use crate::spec::{intern_spec_events, spec_automaton, OperationSpec};
use crate::system::{System, SystemSet};
use micropython_parser::ast::{ClassDef, Stmt};
use micropython_parser::Span;
use shelley_regular::{Alphabet, Dfa, Label, StateSet, Word};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Abstract value at a program point: the possible dependency-DFA states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// States the dependency automaton may be in.
    pub states: StateSet,
    /// Whether paths the analysis could not track exactly also reach this
    /// point — a semantic ⊤ component: when set, *any* dependency state is
    /// additionally possible, so definite conclusions are off the table.
    pub unknown: bool,
}

impl Fact {
    fn bottom(nstates: usize) -> Fact {
        Fact {
            states: StateSet::new(nstates),
            unknown: false,
        }
    }

    fn top_unknown(nstates: usize) -> Fact {
        Fact {
            states: StateSet::new(nstates),
            unknown: true,
        }
    }

    fn singleton(nstates: usize, state: usize) -> Fact {
        let mut states = StateSet::new(nstates);
        states.insert(state);
        Fact {
            states,
            unknown: false,
        }
    }

    /// Joins `other` in, returning whether `self` grew.
    fn join_from(&mut self, other: &Fact) -> bool {
        let grew = !other.states.is_subset_of(&self.states) || (other.unknown && !self.unknown);
        self.states.union_with(&other.states);
        self.unknown |= other.unknown;
        grew
    }

    fn is_bottom(&self) -> bool {
        self.states.is_empty() && !self.unknown
    }
}

/// Interprocedural summary of one method with respect to one field: how an
/// entry dependency-state `d` is transformed by executing the method.
struct Summary {
    /// `whole[d]`: fact at the method's exit when entered in state `d`
    /// (used by sibling-call transfer).
    whole: Vec<Fact>,
    /// `per_exit[ei][d]`: fact when leaving through the operation's spec
    /// exit `ei` (empty for helper methods, which have no spec exits).
    per_exit: Vec<Vec<Fact>>,
}

impl Summary {
    fn all_unknown(nstates: usize, nexits: usize) -> Summary {
        Summary {
            whole: vec![Fact::top_unknown(nstates); nstates],
            per_exit: vec![vec![Fact::top_unknown(nstates); nstates]; nexits],
        }
    }
}

/// The intraprocedural analysis for one (method, field, entry-fact)
/// configuration.
struct FieldAnalysis<'a> {
    dfa: &'a Dfa,
    field: &'a str,
    summaries: &'a BTreeMap<String, Summary>,
    entry: Fact,
}

impl FieldAnalysis<'_> {
    fn relevant(&self, target: &CallTarget) -> bool {
        match target {
            CallTarget::Subsystem { field, .. } => field == self.field,
            CallTarget::SelfMethod { .. } => true,
        }
    }

    /// Applies one call to `cur` in place.
    fn apply(&self, target: &CallTarget, cur: &mut Fact) {
        match target {
            CallTarget::Subsystem { field, method } if field == self.field => {
                match self.dfa.alphabet().lookup(method) {
                    Some(sym) => cur.states = self.dfa.step_set(&cur.states, sym),
                    // An operation the dependency spec does not know;
                    // invocation checking reports it, we lose the trail.
                    None => {
                        cur.states.clear();
                        cur.unknown = true;
                    }
                }
            }
            CallTarget::Subsystem { .. } => {}
            CallTarget::SelfMethod { method } => match self.summaries.get(method) {
                Some(summary) => {
                    // The lowering skips sibling calls, so the identity
                    // part keeps verification's states; the summary part
                    // adds the callee's runtime effect on the field.
                    let mut add = Fact::bottom(self.dfa.num_states());
                    for d in cur.states.iter() {
                        add.join_from(&summary.whole[d]);
                    }
                    cur.join_from(&add);
                }
                None => {
                    cur.states.clear();
                    cur.unknown = true;
                }
            },
        }
    }
}

impl Analysis for FieldAnalysis<'_> {
    type Fact = Fact;

    fn bottom(&self, _cfg: &Cfg) -> Fact {
        Fact::bottom(self.dfa.num_states())
    }

    fn boundary(&self, _cfg: &Cfg) -> Fact {
        self.entry.clone()
    }

    fn join(&self, into: &mut Fact, from: &Fact) -> bool {
        into.join_from(from)
    }

    fn keep_edge(&self, cfg: &Cfg, from: NodeId, index: usize, _to: NodeId) -> bool {
        !cfg.edge_is_phantom(from, index)
    }

    fn transfer(&self, cfg: &Cfg, node: NodeId, fact: &Fact) -> Fact {
        let n = cfg.node(node);
        if n.calls.is_empty() {
            return fact.clone();
        }
        if n.calls_inexact && n.calls.iter().any(|c| self.relevant(&c.target)) {
            return Fact::top_unknown(self.dfa.num_states());
        }
        let mut cur = fact.clone();
        for call in &n.calls {
            self.apply(&call.target, &mut cur);
        }
        cur
    }
}

/// One protocol-violation finding.
#[derive(Debug, Clone)]
pub struct TypestateFinding {
    /// `true` for a definite violation (every tracked live state dies on a
    /// completing path), `false` for a possible one.
    pub definite: bool,
    /// The subsystem field.
    pub field: String,
    /// The dependency class backing the field.
    pub dep_class: String,
    /// The operation method containing the offending call.
    pub op: String,
    /// The dependency operation invoked.
    pub called: String,
    /// The call expression's span.
    pub span: Span,
    /// For definite violations: a rendered shortest dependency trace
    /// ending in the offending call.
    pub witness: Option<String>,
}

/// The analysis products for one composite class.
#[derive(Debug, Clone, Default)]
pub struct TypestateReport {
    /// Violations, in (field, operation, program-point) order.
    pub findings: Vec<TypestateFinding>,
    /// Fields whose usage is *proven* protocol-conforming: the
    /// projected-subset verification for them must pass and may be
    /// skipped.
    pub proven: BTreeSet<String>,
    /// Per field: the dependency operations some reachable statement
    /// invokes on it (dead-operation lint input).
    pub invoked: BTreeMap<String, BTreeSet<String>>,
    /// Per field: the dependency class name.
    pub deps: BTreeMap<String, String>,
}

/// Recursively scans for `break`/`continue` — the one construct where the
/// graph's paths under-approximate the lowering's (§3.2 lowers loop jumps
/// to `skip`), so affected methods must degrade to `unknown`.
fn has_loop_jump(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Break(_) | Stmt::Continue(_) => true,
        Stmt::If(i) => {
            i.branches.iter().any(|(_, b)| has_loop_jump(b))
                || i.orelse.as_deref().is_some_and(has_loop_jump)
        }
        Stmt::Match(m) => m.cases.iter().any(|c| has_loop_jump(&c.body)),
        Stmt::While(w) => has_loop_jump(&w.body),
        Stmt::For(f) => has_loop_jump(&f.body),
        _ => false,
    })
}

/// Collects the spans of every `return` statement (including
/// lowering-dead ones, which must not be mistaken for implicit exits).
fn return_spans(body: &[Stmt], out: &mut BTreeSet<Span>) {
    for s in body {
        match s {
            Stmt::Return(r) => {
                out.insert(r.span);
            }
            Stmt::If(i) => {
                for (_, b) in &i.branches {
                    return_spans(b, out);
                }
                if let Some(e) = &i.orelse {
                    return_spans(e, out);
                }
            }
            Stmt::Match(m) => {
                for c in &m.cases {
                    return_spans(&c.body, out);
                }
            }
            Stmt::While(w) => return_spans(&w.body, out),
            Stmt::For(f) => return_spans(&f.body, out),
            _ => {}
        }
    }
}

/// Classifies a kept predecessor of EXIT as a spec exit index, via the
/// return-statement span (explicit exits) or the implicit exit.
fn exit_index(
    node_span: Option<Span>,
    ret_spans: &BTreeSet<Span>,
    span_to_exit: &BTreeMap<Span, usize>,
    implicit: Option<usize>,
) -> Option<usize> {
    match node_span {
        Some(sp) if ret_spans.contains(&sp) => span_to_exit.get(&sp).copied(),
        _ => implicit,
    }
}

/// Per-class analysis state shared across fields.
struct ClassAnalysis<'a> {
    system: &'a System,
    cfgs: BTreeMap<String, Cfg>,
    loop_jump: BTreeSet<String>,
    cyclic: BTreeSet<String>,
    ret_spans: BTreeMap<String, BTreeSet<Span>>,
}

impl<'a> ClassAnalysis<'a> {
    fn new(class: &'a ClassDef, system: &'a System) -> Option<ClassAnalysis<'a>> {
        let info = system.composite()?;
        let universe: BTreeSet<String> = info.subsystems.iter().map(|s| s.field.clone()).collect();
        let mut cfgs = BTreeMap::new();
        let mut loop_jump = BTreeSet::new();
        let mut ret_spans = BTreeMap::new();
        for func in class.methods() {
            let name = func.name.node.clone();
            cfgs.insert(name.clone(), Cfg::of_body(&func.body, &universe));
            if has_loop_jump(&func.body) {
                loop_jump.insert(name.clone());
            }
            let mut spans = BTreeSet::new();
            return_spans(&func.body, &mut spans);
            ret_spans.insert(name, spans);
        }

        // Self-call graph over existing methods; anything on a cycle gets
        // the all-unknown summary.
        let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, cfg) in &cfgs {
            let set = callees.entry(name).or_default();
            for (_, node) in cfg.nodes() {
                for call in &node.calls {
                    if let CallTarget::SelfMethod { method } = &call.target {
                        if let Some((k, _)) = cfgs.get_key_value(method.as_str()) {
                            set.insert(k);
                        }
                    }
                }
            }
        }
        let mut cyclic = BTreeSet::new();
        for &m in callees.keys() {
            // m is cyclic iff m is reachable from one of its callees.
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack: Vec<&str> = callees[m].iter().copied().collect();
            let mut on_cycle = false;
            while let Some(q) = stack.pop() {
                if q == m {
                    on_cycle = true;
                    break;
                }
                if seen.insert(q) {
                    stack.extend(callees.get(q).into_iter().flatten().copied());
                }
            }
            if on_cycle {
                cyclic.insert(m.to_string());
            }
        }

        Some(ClassAnalysis {
            system,
            cfgs,
            loop_jump,
            cyclic,
            ret_spans,
        })
    }

    fn op_spec(&self, name: &str) -> Option<&OperationSpec> {
        self.system.spec.operation(name)
    }

    /// Computes every method's summary for `field`, bottom-up over the
    /// self-call graph.
    fn summaries(&self, field: &str, dfa: &Dfa) -> BTreeMap<String, Summary> {
        let nstates = dfa.num_states();
        let mut done: BTreeMap<String, Summary> = BTreeMap::new();
        let n_exits = |name: &str| self.op_spec(name).map(|op| op.exits.len()).unwrap_or(0);
        // Seed the forced-unknown methods.
        for name in self.cfgs.keys() {
            if self.cyclic.contains(name) || self.loop_jump.contains(name) {
                done.insert(name.clone(), Summary::all_unknown(nstates, n_exits(name)));
            }
        }
        // The remainder is acyclic: each round resolves every method whose
        // existing callees are all resolved, so ≤ |methods| rounds suffice.
        loop {
            let mut progressed = false;
            for (name, cfg) in &self.cfgs {
                if done.contains_key(name) {
                    continue;
                }
                let ready = cfg.nodes().all(|(_, node)| {
                    node.calls.iter().all(|c| match &c.target {
                        CallTarget::SelfMethod { method } => {
                            !self.cfgs.contains_key(method) || done.contains_key(method)
                        }
                        CallTarget::Subsystem { .. } => true,
                    })
                });
                if !ready {
                    continue;
                }
                let summary = self.method_summary(name, cfg, field, dfa, &done);
                done.insert(name.clone(), summary);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        done
    }

    fn method_summary(
        &self,
        name: &str,
        cfg: &Cfg,
        field: &str,
        dfa: &Dfa,
        done: &BTreeMap<String, Summary>,
    ) -> Summary {
        let nstates = dfa.num_states();
        let op = self.op_spec(name);
        let n_exits = op.map(|o| o.exits.len()).unwrap_or(0);
        let span_to_exit: BTreeMap<Span, usize> = op
            .map(|o| {
                o.exits
                    .iter()
                    .enumerate()
                    .filter_map(|(ei, e)| e.span.map(|sp| (sp, ei)))
                    .collect()
            })
            .unwrap_or_default();
        let implicit = op.and_then(|o| o.exits.iter().position(|e| e.implicit));
        let ret_spans = &self.ret_spans[name];

        let mut whole = Vec::with_capacity(nstates);
        let mut per_exit = vec![vec![Fact::bottom(nstates); nstates]; n_exits];
        // Transfers distribute over ∪, so solving once per entry state and
        // unioning is exact for any entry set. `d` is a DFA state id, used
        // both as the singleton entry and the summary-table column.
        #[allow(clippy::needless_range_loop)]
        for d in 0..nstates {
            let analysis = FieldAnalysis {
                dfa,
                field,
                summaries: done,
                entry: Fact::singleton(nstates, d),
            };
            let solution = solve(&analysis, cfg);
            whole.push(solution.input[cfg.exit()].clone());
            if op.is_some() {
                for (from, node) in cfg.nodes() {
                    for (i, &to) in cfg.successors(from).iter().enumerate() {
                        if to != cfg.exit() || cfg.edge_is_phantom(from, i) {
                            continue;
                        }
                        if let Some(ei) = exit_index(node.span, ret_spans, &span_to_exit, implicit)
                        {
                            per_exit[ei][d].join_from(&solution.output[from]);
                        }
                    }
                }
            }
        }
        Summary { whole, per_exit }
    }
}

#[cfg(test)]
thread_local! {
    /// Composite classes [`analyze_class`] analysed on this thread: the
    /// counter behind the one-analysis-per-class work gate.
    static ANALYSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many composite classes [`analyze_class`] has analysed on the
/// calling thread so far.
#[cfg(test)]
pub(crate) fn analyses_run() -> usize {
    ANALYSES.with(std::cell::Cell::get)
}

/// Runs the typestate analysis on a composite class. Returns `None` for
/// base classes (nothing to analyze).
pub fn analyze_class(
    class: &ClassDef,
    system: &System,
    systems: &SystemSet,
) -> Option<TypestateReport> {
    let info = system.composite()?;
    #[cfg(test)]
    ANALYSES.with(|n| n.set(n.get() + 1));
    let analysis = ClassAnalysis::new(class, system)?;
    let mut report = TypestateReport::default();

    // Reachable dependency invocations (dead-operation lint input) —
    // plain graph reachability; phantom edges only add coverage, which is
    // the conservative direction for a "never invoked" warning.
    for sub in &info.subsystems {
        report.invoked.entry(sub.field.clone()).or_default();
        report
            .deps
            .insert(sub.field.clone(), sub.class_name.clone());
    }
    for cfg in analysis.cfgs.values() {
        let mut reached = vec![false; cfg.num_nodes()];
        let mut stack = vec![cfg.entry()];
        reached[cfg.entry()] = true;
        while let Some(q) = stack.pop() {
            for &next in cfg.successors(q) {
                if !reached[next] {
                    reached[next] = true;
                    stack.push(next);
                }
            }
        }
        for (id, node) in cfg.nodes() {
            if !reached[id] {
                continue;
            }
            for call in &node.calls {
                if let CallTarget::Subsystem { field, method } = &call.target {
                    if let Some(set) = report.invoked.get_mut(field) {
                        set.insert(method.clone());
                    }
                }
            }
        }
    }

    // The composite's own exit-point automaton drives the interprocedural
    // phase: abstract dependency states propagate along its edges through
    // the per-exit summaries of each operation.
    let spec_auto = spec_automaton(&system.spec, None, info.alphabet.clone());
    let nfa = spec_auto.nfa();
    let nspec = nfa.num_states();

    // Forward graph reachability and co-reachability to acceptance over
    // the spec automaton (it has no ε edges).
    let mut fwd = vec![false; nspec];
    let mut stack = vec![spec_auto.start()];
    fwd[spec_auto.start()] = true;
    while let Some(q) = stack.pop() {
        for &(_, dst) in nfa.edges_from(q) {
            if !fwd[dst] {
                fwd[dst] = true;
                stack.push(dst);
            }
        }
    }
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); nspec];
    for q in 0..nspec {
        for &(_, dst) in nfa.edges_from(q) {
            rev[dst].push(q);
        }
    }
    let mut co = vec![false; nspec];
    let mut stack: Vec<usize> = (0..nspec).filter(|&q| nfa.is_accepting(q)).collect();
    for &q in &stack {
        co[q] = true;
    }
    while let Some(q) = stack.pop() {
        for &p in &rev[q] {
            if !co[p] {
                co[p] = true;
                stack.push(p);
            }
        }
    }
    // Per operation: the spec exits that can still complete an accepted
    // usage.
    let mut live_exits: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (q, &coreachable) in co.iter().enumerate().take(nspec) {
        if let Some((oi, ei)) = spec_auto.exit_at(q) {
            if coreachable {
                live_exits.entry(oi).or_default().insert(ei);
            }
        }
    }

    for sub in &info.subsystems {
        let Some(dep) = systems.get(&sub.class_name) else {
            continue;
        };
        // The dependency's spec DFA over its own (unqualified) alphabet.
        let mut dep_alpha = Alphabet::new();
        intern_spec_events(&dep.spec, None, &mut dep_alpha);
        let dfa = spec_automaton(&dep.spec, None, Arc::new(dep_alpha)).materialize();
        let nstates = dfa.num_states();
        let dead = dfa.dead_states();
        let accepting = dfa.accepting_set();

        let summaries = analysis.summaries(&sub.field, &dfa);

        // Fixpoint of abstract dependency states over the spec automaton.
        let mut abs = vec![Fact::bottom(nstates); nspec];
        abs[spec_auto.start()] = Fact::singleton(nstates, dfa.start());
        let mut queue = VecDeque::from([spec_auto.start()]);
        let mut queued = vec![false; nspec];
        queued[spec_auto.start()] = true;
        while let Some(q) = queue.pop_front() {
            queued[q] = false;
            let src = abs[q].clone();
            if src.is_bottom() {
                continue;
            }
            for &(label, dst) in nfa.edges_from(q) {
                debug_assert!(matches!(label, Label::Sym(_)));
                let Some((oi, ei)) = spec_auto.exit_at(dst) else {
                    continue;
                };
                let op_name = &system.spec.operations[oi].name;
                let mut res = Fact {
                    states: StateSet::new(nstates),
                    unknown: src.unknown,
                };
                match summaries.get(op_name) {
                    Some(summary) => {
                        for d in src.states.iter() {
                            res.join_from(&summary.per_exit[ei][d]);
                        }
                    }
                    None => res.unknown = true,
                }
                if abs[dst].join_from(&res) && !queued[dst] {
                    queued[dst] = true;
                    queue.push_back(dst);
                }
            }
        }

        // Entry fact of each operation: join over spec states with an
        // edge invoking it.
        let mut entry: BTreeMap<usize, Fact> = BTreeMap::new();
        for (q, fact) in abs.iter().enumerate().take(nspec) {
            if fact.is_bottom() {
                continue;
            }
            for &(_, dst) in nfa.edges_from(q) {
                if let Some((oi, _)) = spec_auto.exit_at(dst) {
                    entry
                        .entry(oi)
                        .or_insert_with(|| Fact::bottom(nstates))
                        .join_from(fact);
                }
            }
        }

        // Fast path: every reachable accepted usage leaves the dependency
        // in an accepting state, with nothing untracked — the projected
        // subset check cannot fail.
        let proven = (0..nspec)
            .filter(|&q| fwd[q] && nfa.is_accepting(q))
            .all(|q| !abs[q].unknown && abs[q].states.is_subset_of(&accepting));
        if proven {
            report.proven.insert(sub.field.clone());
        }

        // Findings: walk each operation body under its entry fact.
        for (oi, op) in system.spec.operations.iter().enumerate() {
            let Some(entry_fact) = entry.get(&oi) else {
                continue;
            };
            if analysis.cyclic.contains(&op.name) || analysis.loop_jump.contains(&op.name) {
                continue;
            }
            let Some(cfg) = analysis.cfgs.get(&op.name) else {
                continue;
            };
            let field_analysis = FieldAnalysis {
                dfa: &dfa,
                field: &sub.field,
                summaries: &summaries,
                entry: entry_fact.clone(),
            };
            let solution = solve(&field_analysis, cfg);

            // Nodes that can still reach a live spec exit along kept
            // edges — a definite violation must sit on a completing path.
            let op_live = live_exits.get(&oi);
            let span_to_exit: BTreeMap<Span, usize> = op
                .exits
                .iter()
                .enumerate()
                .filter_map(|(ei, e)| e.span.map(|sp| (sp, ei)))
                .collect();
            let implicit = op.exits.iter().position(|e| e.implicit);
            let ret_spans = &analysis.ret_spans[&op.name];
            let mut can_complete = vec![false; cfg.num_nodes()];
            let mut kept_rev: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.num_nodes()];
            let mut seeds = Vec::new();
            for (from, node) in cfg.nodes() {
                for (i, &to) in cfg.successors(from).iter().enumerate() {
                    if cfg.edge_is_phantom(from, i) {
                        continue;
                    }
                    kept_rev[to].push(from);
                    if to == cfg.exit() {
                        let ei = exit_index(node.span, ret_spans, &span_to_exit, implicit);
                        if let (Some(ei), Some(live)) = (ei, op_live) {
                            if live.contains(&ei) {
                                seeds.push(from);
                            }
                        }
                    }
                }
            }
            let mut stack = Vec::new();
            for s in seeds {
                if !can_complete[s] {
                    can_complete[s] = true;
                    stack.push(s);
                }
            }
            while let Some(q) = stack.pop() {
                for &p in &kept_rev[q] {
                    if !can_complete[p] {
                        can_complete[p] = true;
                        stack.push(p);
                    }
                }
            }

            for (id, node) in cfg.nodes() {
                if node.calls.is_empty() {
                    continue;
                }
                if node.calls_inexact
                    && node
                        .calls
                        .iter()
                        .any(|c| field_analysis.relevant(&c.target))
                {
                    continue;
                }
                let mut cur = solution.input[id].clone();
                for call in &node.calls {
                    if let CallTarget::Subsystem { field, method } = &call.target {
                        if field == &sub.field {
                            if let Some(sym) = dfa.alphabet().lookup(method) {
                                let live: Vec<usize> =
                                    cur.states.iter().filter(|&q| !dead[q]).collect();
                                let dies = |&q: &usize| dead[dfa.step(q, sym)];
                                if !live.is_empty() {
                                    let all_dead = live.iter().all(dies);
                                    let any_dead = live.iter().any(dies);
                                    if all_dead && !cur.unknown && can_complete[id] {
                                        let mut best: Option<Word> = None;
                                        for &q in &live {
                                            if let Some(w) = dfa.shortest_word_to(q) {
                                                if best.as_ref().is_none_or(|b| w.len() < b.len()) {
                                                    best = Some(w);
                                                }
                                            }
                                        }
                                        let witness = best.map(|mut w| {
                                            w.push(sym);
                                            dfa.alphabet().render_word(&w)
                                        });
                                        report.findings.push(TypestateFinding {
                                            definite: true,
                                            field: sub.field.clone(),
                                            dep_class: sub.class_name.clone(),
                                            op: op.name.clone(),
                                            called: method.clone(),
                                            span: call.span,
                                            witness,
                                        });
                                    } else if any_dead {
                                        report.findings.push(TypestateFinding {
                                            definite: false,
                                            field: sub.field.clone(),
                                            dep_class: sub.class_name.clone(),
                                            op: op.name.clone(),
                                            called: method.clone(),
                                            span: call.span,
                                            witness: None,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    field_analysis.apply(&call.target, &mut cur);
                }
            }
        }
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::build_systems;
    use micropython_parser::parse_module;

    fn analyze(src: &str, class_name: &str) -> TypestateReport {
        let module = parse_module(src).unwrap();
        let (systems, _) = build_systems(&module);
        let class = module
            .classes()
            .find(|c| c.name.node == class_name)
            .unwrap();
        let system = systems.get(class_name).unwrap();
        analyze_class(class, system, &systems).unwrap()
    }

    const VALVE: &str = "\
@sys
class Valve:
    @op_initial
    def test(self):
        return [\"open\", \"clean\"]

    @op
    def open(self):
        return [\"close\"]

    @op_final
    def close(self):
        return []

    @op_final
    def clean(self):
        return []
";

    #[test]
    fn conforming_class_is_proven_and_silent() {
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.test()
        self.a.open()
        self.a.close()
        return []
"
        );
        let report = analyze(&src, "App");
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.proven.contains("a"));
        assert_eq!(
            report.invoked["a"],
            ["test", "open", "close"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        );
    }

    #[test]
    fn definite_violation_with_witness() {
        // `open` twice in a row: after test·open the spec allows only
        // close, so the second open dies from every live state.
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.test()
        self.a.open()
        self.a.open()
        self.a.close()
        return []
"
        );
        let report = analyze(&src, "App");
        let definite: Vec<_> = report.findings.iter().filter(|f| f.definite).collect();
        assert_eq!(definite.len(), 1, "{:?}", report.findings);
        assert_eq!(definite[0].called, "open");
        assert_eq!(definite[0].witness.as_deref(), Some("test, open, open"));
        assert!(!report.proven.contains("a"));
    }

    #[test]
    fn branch_divergence_is_possible_not_definite() {
        // One branch leaves the valve open, the other closed; the final
        // close dies only on the already-closed branch.
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.test()
        self.a.open()
        if hot:
            self.a.close()
        self.a.close()
        return []
"
        );
        let report = analyze(&src, "App");
        assert!(report.findings.iter().all(|f| !f.definite));
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].called, "close");
        assert!(!report.proven.contains("a"));
    }

    #[test]
    fn helper_summaries_flow_through_self_calls() {
        // The helper performs test·open; the op then closes — conforming,
        // but only visible interprocedurally. Helpers are invisible to the
        // lowering, so the field stays unproven (identity part keeps the
        // start state live) yet must produce no definite findings.
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    def warm_up(self):
        self.a.test()
        self.a.open()

    @op_initial_final
    def run(self):
        self.warm_up()
        self.a.close()
        return []
"
        );
        let report = analyze(&src, "App");
        assert!(
            report.findings.iter().all(|f| !f.definite),
            "{:?}",
            report.findings
        );
        assert!(report.invoked["a"].contains("open"));
    }

    #[test]
    fn recursion_degrades_to_unknown_without_findings() {
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    def spin(self):
        self.a.open()
        self.spin()

    @op_initial_final
    def run(self):
        self.spin()
        self.a.close()
        return []
"
        );
        let report = analyze(&src, "App");
        assert!(
            report.findings.iter().all(|f| !f.definite),
            "{:?}",
            report.findings
        );
        assert!(!report.proven.contains("a"));
    }

    #[test]
    fn dead_operation_reported_via_invoked_sets() {
        let src = format!(
            "{VALVE}
@sys([\"a\"])
class App:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.test()
        self.a.clean()
        return []
"
        );
        let report = analyze(&src, "App");
        assert!(!report.invoked["a"].contains("open"));
        assert!(!report.invoked["a"].contains("close"));
        assert!(report.invoked["a"].contains("test"));
    }
}
