//! Automaton-typestate analysis of composite classes.
//!
//! For each subsystem field `f` of a composite class, the abstract value at
//! a program point is a *relation*: for every state `e` of the
//! dependency's spec DFA, the states the DFA may be in now if the method
//! was entered in `e`, plus an `unknown` bit per `e` that records every
//! source of imprecision (calls the extraction cannot replay exactly,
//! unknown operations, recursive or `break`/`continue`-carrying helpers),
//! all stored as the bits of one [`StateSet`] of `(e, state)` pairs.
//! Transfer functions step every row of the DFA per `self.f.m()` call;
//! sibling `self.m()` calls compose with the callee's interprocedural
//! *summary* — its exit relation, computed bottom-up over the self-call
//! graph, with a sound all-`unknown` fallback on recursion.
//!
//! One forward [`solve`] per (method, field) computes a method's summary
//! for all entry states at once: the transfers act on each row alone, so
//! row `e` of the solution is what solving from the single entry state `e`
//! gives (the functional approach of IFDS, Reps–Horwitz–Sagiv, POPL 1995).
//! The transfers also distribute over joins, so the fact an operation has
//! under an entry fact `(E, u)` is read off the same solution — the union
//! of the rows in `E`, their `unknown` bits, and `u` wherever the flow
//! reaches. Summaries exist only for operations and for methods some
//! method self-calls; nothing else is ever asked for one.
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

use crate::dataflow::{solve, Analysis, Solution};
use crate::extract::cfg::{CallTarget, Cfg, NodeId};
use crate::spec::{intern_spec_events, spec_automaton, ClassSpec, OperationSpec};
use crate::system::{System, SystemSet};
use micropython_parser::ast::{ClassDef, Stmt};
use micropython_parser::Span;
use shelley_regular::{Alphabet, Dfa, Label, StateSet, Word};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A relation over the states of an `n`-state dependency DFA: the pairs
/// `(e, q)` — "entered in state `e`, possibly in state `q` now" — and the
/// entry states `e` whose row is imprecise (`unknown`), as the bits of
/// one [`StateSet`]: pair `(e, q)` is bit `e·n + q`, and the `unknown`
/// bit of row `e` is bit `rows·n + e`. A method's relation has `n` rows;
/// a plain fact — one state set and one `unknown` bit — is a one-row
/// relation.
#[derive(Debug, Clone)]
struct Relation {
    n: usize,
    rows: usize,
    bits: StateSet,
}

impl Relation {
    /// ⊥ with `rows` rows: no pair, nothing unknown.
    fn empty(n: usize, rows: usize) -> Relation {
        Relation {
            n,
            rows,
            bits: StateSet::new(rows * (n + 1)),
        }
    }

    /// The relation of the method entry: row `e` is `{e}`.
    fn identity(n: usize) -> Relation {
        let mut rel = Relation::empty(n, n);
        for e in 0..n {
            rel.bits.insert(e * n + e);
        }
        rel
    }

    fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The states of row `e`, ascending.
    fn row(&self, e: usize) -> impl Iterator<Item = usize> + '_ {
        let range = e * self.n..(e + 1) * self.n;
        self.bits
            .iter()
            .skip_while(move |i| *i < range.start)
            .take_while(move |i| *i < range.end)
            .map(move |i| i - e * self.n)
    }

    fn unknown(&self, e: usize) -> bool {
        self.bits.contains(self.rows * self.n + e)
    }

    fn set_unknown(&mut self, e: usize) {
        self.bits.insert(self.rows * self.n + e);
    }

    /// Joins `other` in, returning whether `self` grew.
    fn join_from(&mut self, other: &Relation) -> bool {
        let grew = !other.bits.is_subset_of(&self.bits);
        self.bits.union_with(&other.bits);
        grew
    }

    /// Sets every row to `(∅, unknown)` — bottom rows too, as solving
    /// from each entry state alone would.
    fn make_unknown(&mut self) {
        self.bits.clear();
        for e in 0..self.rows {
            self.set_unknown(e);
        }
    }

    /// Joins into row `e` every row of `rel` whose entry state is in
    /// `by`, `unknown` bits included.
    fn join_rows(&mut self, e: usize, rel: &Relation, by: impl Iterator<Item = usize>) {
        for d in by {
            for q in rel.row(d) {
                self.bits.insert(e * self.n + q);
            }
            if rel.unknown(d) {
                self.set_unknown(e);
            }
        }
    }
}

/// The one-row fact flowing into node `id` of a method entered under the
/// one-row fact `entry`, read off the method's relational solution: the
/// rows of the states in `entry`, and `entry`'s `unknown` bit wherever
/// the flow reaches (the transfers distribute over joins, and none of
/// them clears `unknown`).
fn fact_at(solution: &Solution<Relation>, id: NodeId, entry: &Relation) -> Relation {
    let mut fact = Relation::empty(entry.n, 1);
    fact.join_rows(0, &solution.input[id], entry.row(0));
    if entry.unknown(0) && solution.reached[id] {
        fact.set_unknown(0);
    }
    fact
}

/// Interprocedural summary of one method with respect to one field: its
/// effect as a relation from entry to exit dependency states.
struct Summary {
    /// The relation at the method's exit (sibling-call transfer).
    whole: Relation,
    /// `per_exit[ei]`: the relation when leaving through the operation's
    /// spec exit `ei` (empty for helper methods, which have no spec exits).
    per_exit: Vec<Relation>,
}

impl Summary {
    fn all_unknown(n: usize, nexits: usize) -> Summary {
        let mut whole = Relation::empty(n, n);
        whole.make_unknown();
        Summary {
            per_exit: vec![whole.clone(); nexits],
            whole,
        }
    }
}

/// The relational analysis of method bodies with respect to one field.
struct MethodFlow<'a> {
    dfa: &'a Dfa,
    field: &'a str,
    summaries: &'a BTreeMap<&'a str, Summary>,
}

impl MethodFlow<'_> {
    fn relevant(&self, target: &CallTarget) -> bool {
        match target {
            CallTarget::Subsystem { field, .. } => field == self.field,
            CallTarget::SelfMethod { .. } => true,
        }
    }

    /// Applies one call to every row of `rel` in place.
    fn apply(&self, target: &CallTarget, rel: &mut Relation) {
        match target {
            CallTarget::Subsystem { field, method } if field == self.field => {
                match self.dfa.alphabet().lookup(method) {
                    Some(sym) => {
                        // Each pair steps; the `unknown` bits past the
                        // pairs stay.
                        let mut image = Relation::empty(rel.n, rel.rows);
                        for i in &rel.bits {
                            let (e, q) = (i / rel.n, i % rel.n);
                            let i = if e < rel.rows {
                                e * rel.n + self.dfa.step(q, sym)
                            } else {
                                i
                            };
                            image.bits.insert(i);
                        }
                        *rel = image;
                    }
                    // An operation the dependency spec does not know;
                    // invocation checking reports it, we lose the trail.
                    None => rel.make_unknown(),
                }
            }
            CallTarget::Subsystem { .. } => {}
            CallTarget::SelfMethod { method } => match self.summaries.get(method.as_str()) {
                Some(summary) => {
                    // The lowering skips sibling calls, so the identity
                    // part keeps verification's states; the composed
                    // part adds the callee's runtime effect on the field.
                    let before = rel.clone();
                    for e in 0..rel.rows {
                        rel.join_rows(e, &summary.whole, before.row(e));
                    }
                }
                None => rel.make_unknown(),
            },
        }
    }
}

impl Analysis for MethodFlow<'_> {
    type Fact = Relation;

    fn bottom(&self, _cfg: &Cfg) -> Relation {
        Relation::empty(self.dfa.num_states(), self.dfa.num_states())
    }

    fn boundary(&self, _cfg: &Cfg) -> Relation {
        Relation::identity(self.dfa.num_states())
    }

    fn join(&self, into: &mut Relation, from: &Relation) -> bool {
        into.join_from(from)
    }

    fn keep_edge(&self, cfg: &Cfg, from: NodeId, index: usize, _to: NodeId) -> bool {
        !cfg.edge_is_phantom(from, index)
    }

    fn transfer(&self, cfg: &Cfg, node: NodeId, rel: &Relation) -> Relation {
        let n = cfg.node(node);
        let mut out = rel.clone();
        if n.calls_inexact && n.calls.iter().any(|c| self.relevant(&c.target)) {
            out.make_unknown();
        } else {
            for call in &n.calls {
                self.apply(&call.target, &mut out);
            }
        }
        out
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

/// Per-class analysis state shared across fields.
struct ClassAnalysis<'a> {
    system: &'a System,
    /// The graph of each method name's last definition.
    cfgs: BTreeMap<&'a str, &'a Cfg>,
    loop_jump: BTreeSet<&'a str>,
    cyclic: BTreeSet<&'a str>,
    ret_spans: BTreeMap<&'a str, BTreeSet<Span>>,
    /// The methods that get a summary: the operations and every method
    /// some method self-calls.
    summarized: BTreeSet<&'a str>,
}

/// The products of one field's solves: every summarized method's summary,
/// and each solved operation's relational solution (the findings input).
struct FieldFlow<'a> {
    summaries: BTreeMap<&'a str, Summary>,
    solutions: BTreeMap<&'a str, Solution<Relation>>,
}

impl<'a> ClassAnalysis<'a> {
    /// `cfgs` holds one graph per method of `class`, in
    /// [`ClassDef::methods`] order.
    fn new(class: &'a ClassDef, system: &'a System, cfgs: &'a [Cfg]) -> ClassAnalysis<'a> {
        let mut by_name = BTreeMap::new();
        let mut loop_jump = BTreeSet::new();
        let mut ret_spans = BTreeMap::new();
        for (func, cfg) in class.methods().zip(cfgs) {
            let name = func.name.node.as_str();
            // A redefined name binds its last definition: its graph, its
            // loop jumps and its return spans all replace the earlier ones.
            by_name.insert(name, cfg);
            if has_loop_jump(&func.body) {
                loop_jump.insert(name);
            } else {
                loop_jump.remove(name);
            }
            let mut spans = BTreeSet::new();
            return_spans(&func.body, &mut spans);
            ret_spans.insert(name, spans);
        }
        let cfgs = by_name;

        // Self-call graph over existing methods; anything on a cycle gets
        // the all-unknown summary.
        let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (&name, cfg) in &cfgs {
            let set = callees.entry(name).or_default();
            for (_, node) in cfg.nodes() {
                for call in &node.calls {
                    if let CallTarget::SelfMethod { method } = &call.target {
                        if let Some((&k, _)) = cfgs.get_key_value(method.as_str()) {
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
                cyclic.insert(m);
            }
        }
        let summarized = cfgs
            .keys()
            .copied()
            .filter(|&name| system.spec.operation(name).is_some())
            .chain(callees.values().flatten().copied())
            .collect();

        ClassAnalysis {
            system,
            cfgs,
            loop_jump,
            cyclic,
            ret_spans,
            summarized,
        }
    }

    fn op_spec(&self, name: &str) -> Option<&OperationSpec> {
        self.system.spec.operation(name)
    }

    /// The kept edges into EXIT of method `name`'s graph, each with the
    /// exit of `op` it leaves through: a `return` the exit its span
    /// declares, falling off the end the implicit exit.
    fn exit_edges(&self, name: &str, op: &OperationSpec) -> Vec<(NodeId, usize)> {
        let cfg = self.cfgs[name];
        let ret_spans = &self.ret_spans[name];
        let span_to_exit: BTreeMap<Span, usize> = op
            .exits
            .iter()
            .enumerate()
            .filter_map(|(ei, e)| e.span.map(|sp| (sp, ei)))
            .collect();
        let implicit = op.exits.iter().position(|e| e.implicit);
        let mut edges = Vec::new();
        for (from, node) in cfg.nodes() {
            for (i, &to) in cfg.successors(from).iter().enumerate() {
                if to != cfg.exit() || cfg.edge_is_phantom(from, i) {
                    continue;
                }
                let exit = match node.span {
                    Some(sp) if ret_spans.contains(&sp) => span_to_exit.get(&sp).copied(),
                    _ => implicit,
                };
                edges.extend(exit.map(|ei| (from, ei)));
            }
        }
        edges
    }

    /// Computes the summaries for `field`, bottom-up over the self-call
    /// graph: one solve per summarized method that is not forced to
    /// `unknown`.
    fn field_flow(&self, field: &str, dfa: &Dfa) -> FieldFlow<'a> {
        let nstates = dfa.num_states();
        let mut flow = FieldFlow {
            summaries: BTreeMap::new(),
            solutions: BTreeMap::new(),
        };
        let n_exits = |name: &str| self.op_spec(name).map_or(0, |op| op.exits.len());
        // Seed the forced-unknown methods.
        for &name in &self.summarized {
            if self.cyclic.contains(name) || self.loop_jump.contains(name) {
                let summary = Summary::all_unknown(nstates, n_exits(name));
                flow.summaries.insert(name, summary);
            }
        }
        // The remainder is acyclic: each round resolves every method whose
        // existing callees are all resolved, so ≤ |methods| rounds suffice.
        loop {
            let mut progressed = false;
            for &name in &self.summarized {
                if flow.summaries.contains_key(name) {
                    continue;
                }
                let cfg = self.cfgs[name];
                let ready = cfg.nodes().all(|(_, node)| {
                    node.calls.iter().all(|c| match &c.target {
                        CallTarget::SelfMethod { method } => {
                            !self.cfgs.contains_key(method.as_str())
                                || flow.summaries.contains_key(method.as_str())
                        }
                        CallTarget::Subsystem { .. } => true,
                    })
                });
                if !ready {
                    continue;
                }
                let method_flow = MethodFlow {
                    dfa,
                    field,
                    summaries: &flow.summaries,
                };
                let solution = solve(&method_flow, cfg);
                let summary = self.summary_of(name, cfg, nstates, &solution);
                flow.summaries.insert(name, summary);
                if self.op_spec(name).is_some() {
                    flow.solutions.insert(name, solution);
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        flow
    }

    /// Reads a method's summary off its relational solution.
    fn summary_of(
        &self,
        name: &str,
        cfg: &Cfg,
        nstates: usize,
        solution: &Solution<Relation>,
    ) -> Summary {
        let whole = solution.input[cfg.exit()].clone();
        let Some(op) = self.op_spec(name) else {
            return Summary {
                whole,
                per_exit: Vec::new(),
            };
        };
        let mut per_exit = vec![Relation::empty(nstates, nstates); op.exits.len()];
        for (from, ei) in self.exit_edges(name, op) {
            per_exit[ei].join_from(&solution.output[from]);
        }
        Summary { whole, per_exit }
    }
}

#[cfg(test)]
thread_local! {
    /// Composite classes [`analyze_class`] analysed on this thread: the
    /// counter behind the one-analysis-per-class work gate.
    static ANALYSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Dependency DFAs [`dependency_dfa`] built on this thread: the
    /// counter behind the one-DFA-per-spec work gate.
    static DFAS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many composite classes [`analyze_class`] has analysed on the
/// calling thread so far.
#[cfg(test)]
pub(crate) fn analyses_run() -> usize {
    ANALYSES.with(std::cell::Cell::get)
}

/// How many dependency DFAs [`dependency_dfa`] has built on the calling
/// thread so far.
#[cfg(test)]
pub(crate) fn dfas_built() -> usize {
    DFAS.with(std::cell::Cell::get)
}

/// The DFA the analysis steps for a subsystem of class `spec`: its spec
/// automaton over its own (unqualified) alphabet, materialized. A pure
/// function of `spec`, so callers may build it once per spec and share it.
pub(crate) fn dependency_dfa(spec: &ClassSpec) -> Dfa {
    #[cfg(test)]
    DFAS.with(|n| n.set(n.get() + 1));
    let mut alphabet = Alphabet::new();
    intern_spec_events(spec, None, &mut alphabet);
    spec_automaton(spec, None, Arc::new(alphabet)).materialize()
}

/// Runs the typestate analysis on a composite class. Returns `None` for
/// base classes (nothing to analyze).
pub fn analyze_class(
    class: &ClassDef,
    system: &System,
    systems: &SystemSet,
) -> Option<TypestateReport> {
    system.composite()?;
    let cfgs = Cfg::of_methods(class, &system.subsystem_fields());
    analyze(class, system, systems, &cfgs, &|dep: &System| {
        Arc::new(dependency_dfa(&dep.spec))
    })
}

/// [`analyze_class`] over graphs and dependency DFAs the caller already
/// has: `cfgs` holds one graph per method of `class` in
/// [`ClassDef::methods`] order, tracking the subsystem fields, and
/// `dfa_of(dep)` is [`dependency_dfa`] of `dep`'s spec.
pub(crate) fn analyze(
    class: &ClassDef,
    system: &System,
    systems: &SystemSet,
    cfgs: &[Cfg],
    dfa_of: &dyn Fn(&System) -> Arc<Dfa>,
) -> Option<TypestateReport> {
    let info = system.composite()?;
    #[cfg(test)]
    ANALYSES.with(|n| n.set(n.get() + 1));
    let analysis = ClassAnalysis::new(class, system, cfgs);
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
        let reached = cfg.reachable();
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
        let dfa = dfa_of(dep);
        let nstates = dfa.num_states();
        let dead = dfa.dead_states();
        let accepting = dfa.accepting_set();

        let FieldFlow {
            summaries,
            solutions,
        } = analysis.field_flow(&sub.field, &dfa);

        // Fixpoint of abstract dependency states over the spec automaton.
        let mut abs = vec![Relation::empty(nstates, 1); nspec];
        abs[spec_auto.start()].bits.insert(dfa.start());
        let mut queue = VecDeque::from([spec_auto.start()]);
        let mut queued = vec![false; nspec];
        queued[spec_auto.start()] = true;
        while let Some(q) = queue.pop_front() {
            queued[q] = false;
            let src = abs[q].clone();
            if src.is_empty() {
                continue;
            }
            for &(label, dst) in nfa.edges_from(q) {
                debug_assert!(matches!(label, Label::Sym(_)));
                let Some((oi, ei)) = spec_auto.exit_at(dst) else {
                    continue;
                };
                let op_name = system.spec.operations[oi].name.as_str();
                let mut res = Relation::empty(nstates, 1);
                match summaries.get(op_name) {
                    Some(summary) => res.join_rows(0, &summary.per_exit[ei], src.row(0)),
                    None => res.set_unknown(0),
                }
                if src.unknown(0) {
                    res.set_unknown(0);
                }
                if abs[dst].join_from(&res) && !queued[dst] {
                    queued[dst] = true;
                    queue.push_back(dst);
                }
            }
        }

        // Entry fact of each operation: join over spec states with an
        // edge invoking it.
        let mut entry: BTreeMap<usize, Relation> = BTreeMap::new();
        for (q, fact) in abs.iter().enumerate().take(nspec) {
            if fact.is_empty() {
                continue;
            }
            for &(_, dst) in nfa.edges_from(q) {
                if let Some((oi, _)) = spec_auto.exit_at(dst) {
                    entry
                        .entry(oi)
                        .or_insert_with(|| Relation::empty(nstates, 1))
                        .join_from(fact);
                }
            }
        }

        // Fast path: every reachable accepted usage leaves the dependency
        // in an accepting state, with nothing untracked — the projected
        // subset check cannot fail.
        let proven = (0..nspec)
            .filter(|&q| fwd[q] && nfa.is_accepting(q))
            .all(|q| !abs[q].unknown(0) && abs[q].row(0).all(|state| accepting.contains(state)));
        if proven {
            report.proven.insert(sub.field.clone());
        }

        // Findings: walk each operation body under its entry fact, read
        // off the operation's relational solution.
        let flow = MethodFlow {
            dfa: &dfa,
            field: &sub.field,
            summaries: &summaries,
        };
        for (oi, op) in system.spec.operations.iter().enumerate() {
            let Some(entry_fact) = entry.get(&oi) else {
                continue;
            };
            // Forced-unknown operations have no solution and no findings.
            let Some(solution) = solutions.get(op.name.as_str()) else {
                continue;
            };
            let cfg = analysis.cfgs[op.name.as_str()];

            // Nodes that can still reach a live spec exit along kept
            // edges — a definite violation must sit on a completing path.
            let op_live = live_exits.get(&oi);
            let mut can_complete = vec![false; cfg.num_nodes()];
            let mut kept_rev: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.num_nodes()];
            for from in 0..cfg.num_nodes() {
                for (i, &to) in cfg.successors(from).iter().enumerate() {
                    if !cfg.edge_is_phantom(from, i) {
                        kept_rev[to].push(from);
                    }
                }
            }
            let seeds = analysis
                .exit_edges(&op.name, op)
                .into_iter()
                .filter(|&(_, ei)| op_live.is_some_and(|live| live.contains(&ei)))
                .map(|(from, _)| from);
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
                if node.calls_inexact && node.calls.iter().any(|c| flow.relevant(&c.target)) {
                    continue;
                }
                let mut cur = fact_at(solution, id, entry_fact);
                for call in &node.calls {
                    if let CallTarget::Subsystem { field, method } = &call.target {
                        if field == &sub.field {
                            if let Some(sym) = dfa.alphabet().lookup(method) {
                                let live: Vec<usize> = cur.row(0).filter(|&q| !dead[q]).collect();
                                let dies = |&q: &usize| dead[dfa.step(q, sym)];
                                if !live.is_empty() {
                                    let all_dead = live.iter().all(dies);
                                    let any_dead = live.iter().any(dies);
                                    if all_dead && !cur.unknown(0) && can_complete[id] {
                                        let mut best: Option<Word> = None;
                                        for &q in &live {
                                            if let Some(word) = dfa.shortest_word_to(q) {
                                                if best
                                                    .as_ref()
                                                    .is_none_or(|b| word.len() < b.len())
                                                {
                                                    best = Some(word);
                                                }
                                            }
                                        }
                                        let witness = best.map(|mut word| {
                                            word.push(sym);
                                            dfa.alphabet().render_word(&word)
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
                    flow.apply(&call.target, &mut cur);
                }
            }
        }
    }
    Some(report)
}

/// The definition of a summary, for the relational solve to be held
/// against: one solve per (method, field, entry fact) over plain facts —
/// a state set and an `unknown` bit — exactly what the relational rows
/// and the findings walk must reproduce.
#[cfg(test)]
pub(crate) mod per_state {
    use super::*;

    /// A plain fact: the possible dependency states, and `unknown`.
    type Plain = (BTreeSet<usize>, bool);

    /// The per-state analysis of one method body for one field. Sibling
    /// calls apply `callees[m][d]`, the fact `m` exits with when entered
    /// in state `d`.
    struct PerState<'a> {
        dfa: &'a Dfa,
        field: &'a str,
        callees: &'a BTreeMap<&'a str, Vec<Plain>>,
        entry: Plain,
    }

    impl PerState<'_> {
        fn apply(&self, target: &CallTarget, (states, unknown): &mut Plain) {
            let lost = |states: &mut BTreeSet<usize>, unknown: &mut bool| {
                states.clear();
                *unknown = true;
            };
            match target {
                CallTarget::Subsystem { field, method } if field == self.field => {
                    match self.dfa.alphabet().lookup(method) {
                        Some(sym) => {
                            *states = states.iter().map(|&q| self.dfa.step(q, sym)).collect()
                        }
                        None => lost(states, unknown),
                    }
                }
                CallTarget::Subsystem { .. } => {}
                CallTarget::SelfMethod { method } => match self.callees.get(method.as_str()) {
                    Some(whole) => {
                        let before: Vec<usize> = states.iter().copied().collect();
                        for d in before {
                            states.extend(whole[d].0.iter().copied());
                            *unknown |= whole[d].1;
                        }
                    }
                    None => lost(states, unknown),
                },
            }
        }
    }

    impl Analysis for PerState<'_> {
        type Fact = Plain;

        fn bottom(&self, _cfg: &Cfg) -> Plain {
            (BTreeSet::new(), false)
        }

        fn boundary(&self, _cfg: &Cfg) -> Plain {
            self.entry.clone()
        }

        fn join(&self, into: &mut Plain, from: &Plain) -> bool {
            let before = (into.0.len(), into.1);
            into.0.extend(from.0.iter().copied());
            into.1 |= from.1;
            before != (into.0.len(), into.1)
        }

        fn keep_edge(&self, cfg: &Cfg, from: NodeId, index: usize, _to: NodeId) -> bool {
            !cfg.edge_is_phantom(from, index)
        }

        fn transfer(&self, cfg: &Cfg, node: NodeId, fact: &Plain) -> Plain {
            let n = cfg.node(node);
            let relevant = |t: &CallTarget| match t {
                CallTarget::Subsystem { field, .. } => field == self.field,
                CallTarget::SelfMethod { .. } => true,
            };
            if n.calls_inexact && n.calls.iter().any(|c| relevant(&c.target)) {
                return (BTreeSet::new(), true);
            }
            let mut out = fact.clone();
            for call in &n.calls {
                self.apply(&call.target, &mut out);
            }
            out
        }
    }

    /// Row `e` of a relation as a plain fact.
    fn plain(rel: &Relation, e: usize) -> Plain {
        (rel.row(e).collect(), rel.unknown(e))
    }

    /// Holds every summary and every operation's findings input of the
    /// relational analysis of `class` against per-state solves: for each
    /// field and summarized method, row `d` of the exit and per-exit
    /// relations equals the solve from state `d` alone (given the
    /// callees' summaries, so all of them match by induction); and for
    /// each solved operation and a spread of entry facts `(E, u)` — every
    /// singleton, all states, `(∅, unknown)`, and the start state with
    /// `unknown` — the fact the findings walk reads at each node equals
    /// the solve from `(E, u)`. Returns the number of solves compared.
    pub(crate) fn assert_matches(class: &ClassDef, system: &System, systems: &SystemSet) -> usize {
        let Some(info) = system.composite() else {
            return 0;
        };
        let cfgs = Cfg::of_methods(class, &system.subsystem_fields());
        let analysis = ClassAnalysis::new(class, system, &cfgs);
        let mut compared = 0;
        for sub in &info.subsystems {
            let Some(dep) = systems.get(&sub.class_name) else {
                continue;
            };
            let dfa = dependency_dfa(&dep.spec);
            let nstates = dfa.num_states();
            let flow = analysis.field_flow(&sub.field, &dfa);
            let callees: BTreeMap<&str, Vec<Plain>> = flow
                .summaries
                .iter()
                .map(|(&name, s)| (name, (0..nstates).map(|d| plain(&s.whole, d)).collect()))
                .collect();
            let solve_from = |cfg: &Cfg, entry: Plain| {
                let per_state = PerState {
                    dfa: &dfa,
                    field: &sub.field,
                    callees: &callees,
                    entry,
                };
                solve(&per_state, cfg)
            };
            for (&name, summary) in &flow.summaries {
                let cfg = analysis.cfgs[name];
                let forced = analysis.cyclic.contains(name) || analysis.loop_jump.contains(name);
                for d in 0..nstates {
                    let whole = plain(&summary.whole, d);
                    let per_exit: Vec<Plain> =
                        summary.per_exit.iter().map(|rel| plain(rel, d)).collect();
                    if forced {
                        assert_eq!(whole, (BTreeSet::new(), true), "`{name}` is all unknown");
                        assert!(per_exit.iter().all(|f| *f == (BTreeSet::new(), true)));
                        continue;
                    }
                    let solution = solve_from(cfg, ([d].into(), false));
                    compared += 1;
                    assert_eq!(
                        whole,
                        solution.input[cfg.exit()],
                        "`{name}`.{} from {d}",
                        sub.field
                    );
                    let Some(op) = analysis.op_spec(name) else {
                        continue;
                    };
                    let mut expected = vec![(BTreeSet::new(), false); op.exits.len()];
                    for (from, ei) in analysis.exit_edges(name, op) {
                        let (states, unknown) = &solution.output[from];
                        expected[ei].0.extend(states.iter().copied());
                        expected[ei].1 |= unknown;
                    }
                    assert_eq!(
                        per_exit, expected,
                        "`{name}`.{} per exit from {d}",
                        sub.field
                    );
                }
            }
            for (&name, relational) in &flow.solutions {
                let cfg = analysis.cfgs[name];
                let all: BTreeSet<usize> = (0..nstates).collect();
                let mut entries: Vec<Plain> = (0..nstates).map(|d| ([d].into(), false)).collect();
                entries.push((all, false));
                entries.push((BTreeSet::new(), true));
                entries.push(([dfa.start()].into(), true));
                for entry in entries {
                    let solution = solve_from(cfg, entry.clone());
                    compared += 1;
                    let mut fact = Relation::empty(nstates, 1);
                    for &d in &entry.0 {
                        fact.bits.insert(d);
                    }
                    if entry.1 {
                        fact.set_unknown(0);
                    }
                    for id in 0..cfg.num_nodes() {
                        assert_eq!(
                            plain(&fact_at(relational, id, &fact), 0),
                            solution.input[id],
                            "`{name}`.{} node {id} under {entry:?}",
                            sub.field
                        );
                    }
                }
            }
        }
        compared
    }
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

    /// A dependency whose DFA has more than 64 states spans several words
    /// per row: a 70-step chain `op0 · op1 · … · op69` that may restart
    /// from `op34`.
    fn long_protocol() -> String {
        let mut src = String::from("@sys\nclass Long:\n");
        for i in 0..70 {
            let (dec, next) = match i {
                0 => ("@op_initial", "[\"op1\"]".to_string()),
                34 => ("@op", "[\"op35\", \"op0\"]".to_string()),
                69 => ("@op_final", "[]".to_string()),
                _ => ("@op", format!("[\"op{}\"]", i + 1)),
            };
            src.push_str(&format!(
                "    {dec}\n    def op{i}(self):\n        return {next}\n\n"
            ));
        }
        src
    }

    #[test]
    fn relational_rows_span_words_beyond_64_states() {
        let calls = |range: std::ops::Range<usize>, indent: &str| -> String {
            range.map(|i| format!("{indent}self.x.op{i}()\n")).collect()
        };
        let src = format!(
            "{}@sys([\"x\"])\nclass User:\n    def __init__(self):\n        self.x = Long()\n\n    \
             def warm(self):\n{}\n    @op_initial_final\n    def run(self):\n        self.warm()\n\
             {}        if cond:\n{}        while cond:\n            self.x.op0()\n\
             {}        return []\n",
            long_protocol(),
            calls(0..30, "        "),
            calls(30..35, "        "),
            calls(0..35, "            "),
            calls(35..70, "        "),
        );
        let module = parse_module(&src).unwrap();
        let (systems, _) = build_systems(&module);
        let long = systems.get("Long").unwrap();
        assert!(dependency_dfa(&long.spec).num_states() > 64);
        let class = module.class("User").unwrap();
        let user = systems.get("User").unwrap();
        assert!(per_state::assert_matches(class, user, &systems) > 64);
        // The helper's effect joins the state the lowering keeps (the
        // start), where `op30` dies; the loop's `op0` dies after a first
        // `op0`, and `op35` after the loop. Each only on some path.
        let report = analyze_class(class, user, &systems).unwrap();
        let called: Vec<(&str, bool)> = report
            .findings
            .iter()
            .map(|f| (f.called.as_str(), f.definite))
            .collect();
        assert_eq!(called, [("op30", false), ("op0", false), ("op35", false)]);
        assert!(report.proven.is_empty());
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
