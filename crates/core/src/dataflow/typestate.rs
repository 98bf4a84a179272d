//! Automaton-typestate analysis of composite classes.
//!
//! For each subsystem field `f` of a composite class, the abstract value at
//! a program point is a *relation*: for every state `e` of the
//! dependency's spec DFA, the states the DFA may be in now if the method
//! was entered in `e`, plus an `unknown` bit per `e` that records every
//! source of imprecision (calls the extraction cannot replay exactly,
//! unknown operations, recursive or `break`/`continue`/`raise`-carrying
//! helpers), all stored as the bits of one bitset of `(e, state)` pairs,
//! kept inline while it fits one word. Transfer functions step every row of the DFA
//! per `self.f.m()` call; sibling `self.m()` calls compose with the
//! callee's interprocedural *summary* — its exit relation, computed
//! bottom-up over the self-call graph, with a sound all-`unknown` fallback
//! on recursion.
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
//! The analysis runs on the ids of [`crate::extract::cfg`]: methods,
//! summaries and solutions are indexed by [`MethodId`], and every
//! `self.f.m()` pair is resolved to its dependency-DFA symbol once per
//! class. Names come back only in the public [`TypestateReport`] and in
//! the diagnostics the lint renders.
//!
//! Soundness contract: whenever a fact has `unknown == false`, its state
//! set is a superset of the dependency states reachable at that point along
//! the §3.2 lowering's paths (the paths verification enumerates). The CFG
//! minus its phantom `match` fall-through edges over-approximates those
//! paths, *except* around `break`/`continue` — the lowering treats loop
//! jumps as `skip` while the graph jumps — and around `raise`, which the
//! graph leaves the method at while the lowering falls through it (until
//! exceptions are modeled). So any method whose graph holds a loop jump or
//! a `raise`, at any depth (`with` and `try` blocks included), degrades
//! wholesale to `unknown`. Every `return` node of the graph leaves through
//! the spec exit its span declares. On that contract ride three results:
//!
//! * **definite violations** (every possibly-live dependency state is
//!   driven into the dead sink on a path that can still complete an
//!   accepted usage) are true positives of full verification;
//! * **possible violations** flag the remaining some-state-dies calls;
//! * the **fast path**: when every accepting state of the composite's own
//!   exit-point automaton carries a fact with `unknown == false` whose
//!   states are all accepting in the dependency DFA, the projected-subset
//!   check of [`crate::verify`] is guaranteed to pass and can be skipped.

use crate::bits::{Bits, Ones};
use crate::dataflow::{solve, Analysis, Solution};
use crate::extract::cfg::{
    CallTarget, Cfg, ClassCfgs, ClassIds, FieldId, MethodId, NodeId, NodeKind, OpId,
};
use crate::spec::{intern_spec_events, spec_automaton, ClassSpec, ExitGraph, OperationSpec};
use crate::system::{System, SystemSet};
use micropython_parser::ast::ClassDef;
use micropython_parser::Span;
use shelley_regular::{Alphabet, Dfa, Symbol, Word};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A relation over the states of an `n`-state dependency DFA: the pairs
/// `(e, q)` — "entered in state `e`, possibly in state `q` now" — and the
/// entry states `e` whose row is imprecise (`unknown`), as the bits of
/// one [`Bits`] set: pair `(e, q)` is bit `e·n + q`, and the `unknown`
/// bit of row `e` is bit `rows·n + e`. A method's relation has `n` rows;
/// a plain fact — one state set and one `unknown` bit — is a one-row
/// relation. While `rows·(n + 1) ≤ 64` the bits live inline.
#[derive(Debug, Clone)]
struct Relation {
    n: usize,
    rows: usize,
    bits: Bits,
}

impl Relation {
    /// ⊥ with `rows` rows: no pair, nothing unknown.
    fn empty(n: usize, rows: usize) -> Relation {
        Relation {
            n,
            rows,
            bits: Bits::new(rows * (n + 1)),
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
        let first = e * self.n;
        self.pairs(first..first + self.n).map(move |i| i - first)
    }

    fn pairs(&self, range: std::ops::Range<usize>) -> Ones<'_> {
        self.bits.ones(range)
    }

    fn unknown(&self, e: usize) -> bool {
        self.bits.contains(self.rows * self.n + e)
    }

    fn set_unknown(&mut self, e: usize) {
        self.bits.insert(self.rows * self.n + e);
    }

    /// Joins `other` in, returning whether `self` grew.
    fn join_from(&mut self, other: &Relation) -> bool {
        self.bits.union_with(&other.bits)
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

    /// Steps every pair on `sym`; the `unknown` bits past the pairs stay.
    fn step(&mut self, dfa: &Dfa, sym: Symbol) {
        let pairs = self.rows * self.n;
        let mut image = Bits::new(self.rows * (self.n + 1));
        for i in self.pairs(0..pairs) {
            let (e, q) = (i / self.n, i % self.n);
            image.insert(e * self.n + dfa.step(q, sym));
        }
        for i in self.pairs(pairs..pairs + self.rows) {
            image.insert(i);
        }
        self.bits = image;
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
    field: FieldId,
    /// Per operation pair on `field`: its symbol in `dfa`, or `None` when
    /// the dependency has no such operation.
    syms: &'a [Option<Symbol>],
    /// Per method: its summary, once computed.
    summaries: &'a [Option<Summary>],
}

impl MethodFlow<'_> {
    fn relevant(&self, target: &CallTarget) -> bool {
        match *target {
            CallTarget::Subsystem { field, .. } => field == self.field,
            CallTarget::SelfMethod { .. } => true,
        }
    }

    /// The pair and dependency symbol of a call on this field to an
    /// operation the dependency knows.
    fn resolved(&self, target: &CallTarget) -> Option<(OpId, Symbol)> {
        match *target {
            CallTarget::Subsystem { field, op } if field == self.field => {
                self.syms[op as usize].map(|sym| (op, sym))
            }
            _ => None,
        }
    }

    /// Applies one call to every row of `rel` in place.
    fn apply(&self, target: &CallTarget, rel: &mut Relation) {
        match *target {
            CallTarget::Subsystem { field, op } if field == self.field => {
                match self.syms[op as usize] {
                    Some(sym) => rel.step(self.dfa, sym),
                    // An operation the dependency spec does not know;
                    // invocation checking reports it, we lose the trail.
                    None => rel.make_unknown(),
                }
            }
            CallTarget::Subsystem { .. } => {}
            CallTarget::SelfMethod { method } => {
                match method.and_then(|m| self.summaries[m as usize].as_ref()) {
                    Some(summary) => {
                        // The lowering skips sibling calls, so the identity
                        // part keeps verification's states; the composed
                        // part adds the callee's runtime effect on the
                        // field.
                        let before = rel.clone();
                        for e in 0..rel.rows {
                            rel.join_rows(e, &summary.whole, before.row(e));
                        }
                    }
                    None => rel.make_unknown(),
                }
            }
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
            for call in n.calls {
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

/// One finding by id: what [`ClassTypestate`] holds until a diagnostic
/// or a [`TypestateFinding`] is written.
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    pub(crate) definite: bool,
    /// Index of the subsystem in the composite's `subsystems`.
    pub(crate) sub: usize,
    /// Index of the operation in the composite's spec.
    pub(crate) operation: usize,
    /// The (field, called name) pair.
    pub(crate) op: OpId,
    pub(crate) span: Span,
    pub(crate) witness: Option<String>,
}

/// The analysis products of one composite class, by id: the findings,
/// the proven subsystems, and the invoked operation pairs.
#[derive(Debug, Clone)]
pub(crate) struct ClassTypestate {
    /// Violations, in (subsystem, operation, program-point) order.
    pub(crate) findings: Vec<Finding>,
    /// Per subsystem: proven protocol-conforming.
    pub(crate) proven: Vec<bool>,
    /// Per operation pair: some reachable statement of a method's last
    /// definition invokes it.
    pub(crate) invoked: Vec<bool>,
}

impl ClassTypestate {
    /// The names of the proven subsystem fields.
    pub(crate) fn proven_fields(&self, system: &System) -> BTreeSet<String> {
        let subs = system.composite().map_or(&[][..], |info| &info.subsystems);
        subs.iter()
            .zip(&self.proven)
            .filter(|(_, &proven)| proven)
            .map(|(sub, _)| sub.field.clone())
            .collect()
    }

    /// Whether some reachable statement invokes `name` on `field`.
    pub(crate) fn invokes(&self, ids: &ClassIds<'_>, field: FieldId, name: &str) -> bool {
        ids.op_id(field, name)
            .is_some_and(|op| self.invoked[op as usize])
    }

    /// The public report, by name.
    fn into_report(self, ids: &ClassIds<'_>, system: &System) -> TypestateReport {
        let mut report = TypestateReport {
            proven: self.proven_fields(system),
            ..TypestateReport::default()
        };
        let subs = system.composite().map_or(&[][..], |info| &info.subsystems);
        for sub in subs {
            report.invoked.entry(sub.field.clone()).or_default();
            report
                .deps
                .insert(sub.field.clone(), sub.class_name.clone());
        }
        for op in (0..ids.num_ops()).filter(|&op| self.invoked[op]) {
            let (field, name) = ids.op(op as OpId);
            if let Some(set) = report.invoked.get_mut(ids.field_name(field)) {
                set.insert(name.to_owned());
            }
        }
        report.findings = self
            .findings
            .into_iter()
            .map(|f| TypestateFinding {
                definite: f.definite,
                field: subs[f.sub].field.clone(),
                dep_class: subs[f.sub].class_name.clone(),
                op: system.spec.operations[f.operation].name.clone(),
                called: ids.op(f.op).1.to_owned(),
                span: f.span,
                witness: f.witness,
            })
            .collect();
        report
    }
}

/// Per-class analysis state shared across fields, indexed by method.
struct ClassAnalysis<'c, 'a> {
    system: &'c System,
    cfgs: &'c ClassCfgs<'a>,
    /// Per method: the first spec operation of its name, if any.
    op_of: Vec<Option<usize>>,
    /// Per method: its summary is all `unknown` (it is on a self-call
    /// cycle, or its graph holds a loop jump or a `raise`).
    forced: Vec<bool>,
    /// Per method: it gets a summary — the operations and every method
    /// some method self-calls.
    summarized: Vec<bool>,
    /// Method `m` self-calls `callees[callee_start[m]..callee_start[m + 1]]`.
    callee_start: Vec<usize>,
    callees: Vec<MethodId>,
}

/// The products of one field's solves, by method: every summarized
/// method's summary, and each solved operation's relational solution (the
/// findings input).
struct FieldFlow {
    summaries: Vec<Option<Summary>>,
    solutions: Vec<Option<Solution<Relation>>>,
}

impl<'c, 'a> ClassAnalysis<'c, 'a> {
    fn new(system: &'c System, cfgs: &'c ClassCfgs<'a>) -> ClassAnalysis<'c, 'a> {
        let ids = &cfgs.ids;
        let methods = ids.num_methods();
        let mut analysis = ClassAnalysis {
            system,
            cfgs,
            op_of: Vec::with_capacity(methods),
            forced: vec![false; methods],
            summarized: vec![false; methods],
            callee_start: Vec::with_capacity(methods + 1),
            callees: Vec::new(),
        };
        for m in 0..methods {
            let cfg = cfgs.graph(m as MethodId);
            let first = analysis.callees.len();
            analysis.callee_start.push(first);
            for (_, node) in cfg.nodes() {
                analysis.forced[m] |= matches!(node.kind, NodeKind::LoopJump | NodeKind::Raise);
                for call in node.calls {
                    if let CallTarget::SelfMethod { method: Some(c) } = call.target {
                        if !analysis.callees[first..].contains(&c) {
                            analysis.callees.push(c);
                        }
                    }
                }
            }
            let name = ids.method_name(m as MethodId);
            let op = system.spec.operations.iter().position(|op| op.name == name);
            analysis.summarized[m] = op.is_some();
            analysis.op_of.push(op);
        }
        analysis.callee_start.push(analysis.callees.len());
        for &c in &analysis.callees {
            analysis.summarized[c as usize] = true;
        }
        // Self-call cycles: `m` is on one iff it is reachable from one of
        // its callees. Anything on a cycle gets the all-unknown summary.
        if !analysis.callees.is_empty() {
            let mut seen = vec![false; methods];
            let mut stack = Vec::new();
            for m in 0..methods {
                seen.fill(false);
                stack.clear();
                stack.extend_from_slice(analysis.callees_of(m));
                while let Some(q) = stack.pop() {
                    let q = q as usize;
                    if q == m {
                        analysis.forced[m] = true;
                        break;
                    }
                    if !seen[q] {
                        seen[q] = true;
                        stack.extend_from_slice(analysis.callees_of(q));
                    }
                }
            }
        }
        analysis
    }

    fn callees_of(&self, m: usize) -> &[MethodId] {
        &self.callees[self.callee_start[m]..self.callee_start[m + 1]]
    }

    fn op_spec(&self, m: usize) -> Option<&'c OperationSpec> {
        self.op_of[m].map(|oi| &self.system.spec.operations[oi])
    }

    /// Calls `visit(from, ei)` for each kept edge into EXIT of `cfg`,
    /// with the exit of `op` it leaves through: a `return` the exit its
    /// span declares, any other node the implicit exit.
    fn for_each_exit_edge(cfg: &Cfg, op: &OperationSpec, mut visit: impl FnMut(NodeId, usize)) {
        let implicit = op.exits.iter().position(|e| e.implicit);
        for (from, node) in cfg.nodes() {
            for (i, &to) in cfg.successors(from).iter().enumerate() {
                if to != cfg.exit() || cfg.edge_is_phantom(from, i) {
                    continue;
                }
                let exit = match node.kind {
                    NodeKind::Return => op.exits.iter().rposition(|e| e.span == node.span),
                    _ => implicit,
                };
                if let Some(ei) = exit {
                    visit(from, ei);
                }
            }
        }
    }

    /// Computes the summaries for `field`, bottom-up over the self-call
    /// graph: one solve per summarized method that is not forced to
    /// `unknown`.
    fn field_flow(&self, field: FieldId, dfa: &Dfa, syms: &[Option<Symbol>]) -> FieldFlow {
        let nstates = dfa.num_states();
        let methods = self.op_of.len();
        let mut flow = FieldFlow {
            summaries: (0..methods).map(|_| None).collect(),
            solutions: (0..methods).map(|_| None).collect(),
        };
        let n_exits = |m: usize| self.op_spec(m).map_or(0, |op| op.exits.len());
        // Seed the forced-unknown methods.
        for m in 0..methods {
            if self.summarized[m] && self.forced[m] {
                flow.summaries[m] = Some(Summary::all_unknown(nstates, n_exits(m)));
            }
        }
        // The remainder is acyclic: each round resolves every method whose
        // callees are all resolved, so ≤ |methods| rounds suffice.
        loop {
            let mut progressed = false;
            for m in 0..methods {
                if !self.summarized[m] || flow.summaries[m].is_some() {
                    continue;
                }
                let ready = self
                    .callees_of(m)
                    .iter()
                    .all(|&c| flow.summaries[c as usize].is_some());
                if !ready {
                    continue;
                }
                let cfg = self.cfgs.graph(m as MethodId);
                let method_flow = MethodFlow {
                    dfa,
                    field,
                    syms,
                    summaries: &flow.summaries,
                };
                let solution = solve(&method_flow, cfg);
                flow.summaries[m] = Some(self.summary_of(m, cfg, nstates, &solution));
                if self.op_of[m].is_some() {
                    flow.solutions[m] = Some(solution);
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
        m: usize,
        cfg: &Cfg,
        nstates: usize,
        solution: &Solution<Relation>,
    ) -> Summary {
        let whole = solution.input[cfg.exit()].clone();
        let Some(op) = self.op_spec(m) else {
            return Summary {
                whole,
                per_exit: Vec::new(),
            };
        };
        let mut per_exit = vec![Relation::empty(nstates, nstates); op.exits.len()];
        Self::for_each_exit_edge(cfg, op, |from, ei| {
            per_exit[ei].join_from(&solution.output[from]);
        });
        Summary { whole, per_exit }
    }
}

/// The symbols in `dfa` of the operation pairs on `field`, written into
/// `syms` (indexed by [`OpId`]; other fields' entries are left alone).
fn resolve_ops(ids: &ClassIds<'_>, field: FieldId, dfa: &Dfa, syms: &mut [Option<Symbol>]) {
    for (op, sym) in syms.iter_mut().enumerate() {
        let (f, name) = ids.op(op as OpId);
        if f == field {
            *sym = dfa.alphabet().lookup(name);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Composite classes analysed on this thread: the counter behind the
    /// one-analysis-per-class work gate.
    static ANALYSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Dependency DFAs [`dependency_dfa`] built on this thread: the
    /// counter behind the one-DFA-per-spec work gate.
    static DFAS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many composite classes have been analysed on the calling thread
/// so far.
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
    let mut alphabet = Alphabet::with_capacity(spec.operations.len());
    intern_spec_events(spec, None, &mut alphabet);
    spec_automaton(spec, None, Arc::new(alphabet)).materialize()
}

/// A dependency's DFA ([`dependency_dfa`]) with its dead states, those
/// from which it can no longer accept: what the analysis reads of a
/// subsystem's class for every composite that instantiates it, so a
/// caller that shares it builds both once per spec.
#[derive(Debug)]
pub(crate) struct DependencyDfa {
    pub(crate) dfa: Dfa,
    pub(crate) dead: Box<[bool]>,
}

impl DependencyDfa {
    /// Builds the DFA of `spec` and classifies its states.
    pub(crate) fn of(spec: &ClassSpec) -> DependencyDfa {
        let dfa = dependency_dfa(spec);
        DependencyDfa {
            dead: dfa.dead_states().into_boxed_slice(),
            dfa,
        }
    }
}

/// Runs the typestate analysis on a composite class. Returns `None` for
/// base classes (nothing to analyze).
pub fn analyze_class(
    class: &ClassDef,
    system: &System,
    systems: &SystemSet,
) -> Option<TypestateReport> {
    system.composite()?;
    let cfgs = ClassCfgs::build(class, system.subsystem_fields());
    analyze(system, systems, &cfgs, &|dep: &System| {
        Arc::new(DependencyDfa::of(&dep.spec))
    })
    .map(|result| result.into_report(&cfgs.ids, system))
}

/// [`analyze_class`] by id, over graphs and dependency DFAs the caller
/// already has: `cfgs` holds the class's graphs tracking its subsystem
/// fields, and `dfa_of(dep)` is [`DependencyDfa::of`] `dep`'s spec.
pub(crate) fn analyze(
    system: &System,
    systems: &SystemSet,
    cfgs: &ClassCfgs<'_>,
    dfa_of: &dyn Fn(&System) -> Arc<DependencyDfa>,
) -> Option<ClassTypestate> {
    let info = system.composite()?;
    #[cfg(test)]
    ANALYSES.with(|n| n.set(n.get() + 1));
    let ids = &cfgs.ids;
    let analysis = ClassAnalysis::new(system, cfgs);
    let mut result = ClassTypestate {
        findings: Vec::new(),
        proven: vec![false; info.subsystems.len()],
        invoked: vec![false; ids.num_ops()],
    };

    // Reachable dependency invocations (dead-operation lint input) —
    // plain graph reachability; phantom edges only add coverage, which is
    // the conservative direction for a "never invoked" warning.
    for m in 0..ids.num_methods() {
        let cfg = cfgs.graph(m as MethodId);
        let reached = cfg.reachable();
        for (id, node) in cfg.nodes() {
            if !reached[id] {
                continue;
            }
            for call in node.calls {
                if let CallTarget::Subsystem { op, .. } = call.target {
                    result.invoked[op as usize] = true;
                }
            }
        }
    }

    // The composite's own exit-point automaton drives the interprocedural
    // phase: abstract dependency states propagate along its edges through
    // the per-exit summaries of each operation.
    let spec = &system.spec;
    let graph = ExitGraph::new(spec);
    let nspec = graph.num_states();
    // Forward reachability and co-reachability to acceptance: an exit
    // state can still complete an accepted usage iff it is co-reachable.
    let fwd = graph.reachable();
    let co = graph.coreachable();
    // The method of each operation.
    let method_of: Vec<Option<MethodId>> = spec
        .operations
        .iter()
        .map(|op| ids.method(&op.name))
        .collect();
    let mut syms: Vec<Option<Symbol>> = vec![None; ids.num_ops()];

    for (si, sub) in info.subsystems.iter().enumerate() {
        let Some(dep) = systems.get(&sub.class_name) else {
            continue;
        };
        let Some(field) = ids.field(&sub.field) else {
            continue;
        };
        let dependency = dfa_of(dep);
        let (dfa, dead) = (&dependency.dfa, &dependency.dead);
        let nstates = dfa.num_states();
        resolve_ops(ids, field, dfa, &mut syms);

        let FieldFlow {
            summaries,
            solutions,
        } = analysis.field_flow(field, dfa, &syms);
        let summary_of = |oi: usize| method_of[oi].and_then(|m| summaries[m as usize].as_ref());

        // Fixpoint of abstract dependency states over the spec automaton.
        let mut abs = vec![Relation::empty(nstates, 1); nspec];
        abs[0].bits.insert(dfa.start());
        let mut queue = VecDeque::from([0]);
        let mut queued = vec![false; nspec];
        queued[0] = true;
        while let Some(q) = queue.pop_front() {
            queued[q] = false;
            let src = abs[q].clone();
            if src.is_empty() {
                continue;
            }
            graph.for_each_edge(q, |_, dst| {
                let (oi, ei) = graph.exit_at(dst).expect("edges enter exit states");
                let mut res = Relation::empty(nstates, 1);
                // A redefined operation's summary has the exits of the
                // first operation of its name: another definition's exit
                // may have no relation there.
                match summary_of(oi).and_then(|summary| summary.per_exit.get(ei)) {
                    Some(per_exit) => res.join_rows(0, per_exit, src.row(0)),
                    None => res.set_unknown(0),
                }
                if src.unknown(0) {
                    res.set_unknown(0);
                }
                if abs[dst].join_from(&res) && !queued[dst] {
                    queued[dst] = true;
                    queue.push_back(dst);
                }
            });
        }

        // Entry fact of each operation: join over spec states with an
        // edge invoking it.
        let mut entry: Vec<Option<Relation>> = vec![None; spec.operations.len()];
        for (q, fact) in abs.iter().enumerate() {
            if fact.is_empty() {
                continue;
            }
            graph.for_each_edge(q, |oi, _| {
                entry[oi]
                    .get_or_insert_with(|| Relation::empty(nstates, 1))
                    .join_from(fact);
            });
        }

        // Fast path: every reachable accepted usage leaves the dependency
        // in an accepting state, with nothing untracked — the projected
        // subset check cannot fail.
        result.proven[si] = (0..nspec)
            .filter(|&q| fwd[q] && graph.is_accepting(q))
            .all(|q| !abs[q].unknown(0) && abs[q].row(0).all(|state| dfa.is_accepting(state)));

        // Findings: walk each operation body under its entry fact, read
        // off the operation's relational solution.
        let flow = MethodFlow {
            dfa,
            field,
            syms: &syms,
            summaries: &summaries,
        };
        for (oi, op) in spec.operations.iter().enumerate() {
            let Some(entry_fact) = &entry[oi] else {
                continue;
            };
            let Some(m) = method_of[oi] else {
                continue;
            };
            // Forced-unknown operations have no solution and no findings.
            let Some(solution) = &solutions[m as usize] else {
                continue;
            };
            let cfg = cfgs.graph(m);
            // Nodes that can still reach a live spec exit along kept
            // edges — a definite violation must sit on a completing path.
            // Computed the first time a definite candidate needs it.
            let mut can_complete: Option<Vec<bool>> = None;

            for (id, node) in cfg.nodes() {
                if node.calls.is_empty() {
                    continue;
                }
                if node.calls_inexact && node.calls.iter().any(|c| flow.relevant(&c.target)) {
                    continue;
                }
                let mut cur = fact_at(solution, id, entry_fact);
                for call in node.calls {
                    if let Some((pair, sym)) = flow.resolved(&call.target) {
                        let live = || cur.row(0).filter(|&q| !dead[q]);
                        let dies = |q: usize| dead[dfa.step(q, sym)];
                        if live().any(dies) {
                            let definite = live().all(dies)
                                && !cur.unknown(0)
                                && can_complete.get_or_insert_with(|| {
                                    completing_nodes(cfg, op, |ei| co[graph.state(oi, ei)])
                                })[id];
                            result.findings.push(Finding {
                                definite,
                                sub: si,
                                operation: oi,
                                op: pair,
                                span: call.span,
                                witness: definite.then(|| witness(dfa, live(), sym)).flatten(),
                            });
                        }
                    }
                    flow.apply(&call.target, &mut cur);
                }
            }
        }
    }
    Some(result)
}

/// A shortest dependency trace into one of the `live` states (the first
/// such state wins a tie), then `sym`: the rendered witness of a definite
/// violation.
fn witness(dfa: &Dfa, live: impl Iterator<Item = usize>, sym: Symbol) -> Option<String> {
    let mut best: Option<Word> = None;
    for q in live {
        if let Some(word) = dfa.shortest_word_to(q) {
            if best.as_ref().is_none_or(|b| word.len() < b.len()) {
                best = Some(word);
            }
        }
    }
    best.map(|mut word| {
        word.push(sym);
        dfa.alphabet().render_word(&word)
    })
}

/// The nodes of `cfg` from which a kept path reaches an edge into EXIT
/// that leaves `op` through an exit `live(ei)` accepts.
fn completing_nodes(cfg: &Cfg, op: &OperationSpec, live: impl Fn(usize) -> bool) -> Vec<bool> {
    let mut can = vec![false; cfg.num_nodes()];
    ClassAnalysis::for_each_exit_edge(cfg, op, |from, ei| can[from] |= live(ei));
    let mut changed = true;
    while changed {
        changed = false;
        for from in 0..cfg.num_nodes() {
            if can[from] {
                continue;
            }
            let succs = cfg.successors(from).iter().enumerate();
            let reaches = succs
                .filter(|&(i, _)| !cfg.edge_is_phantom(from, i))
                .any(|(_, &to)| can[to]);
            if reaches {
                can[from] = true;
                changed = true;
            }
        }
    }
    can
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
    /// calls apply `callees[m][d]`, the fact method `m` exits with when
    /// entered in state `d`.
    struct PerState<'a> {
        dfa: &'a Dfa,
        field: FieldId,
        syms: &'a [Option<Symbol>],
        callees: &'a [Option<Vec<Plain>>],
        entry: Plain,
    }

    impl PerState<'_> {
        fn apply(&self, target: &CallTarget, (states, unknown): &mut Plain) {
            let lost = |states: &mut BTreeSet<usize>, unknown: &mut bool| {
                states.clear();
                *unknown = true;
            };
            match *target {
                CallTarget::Subsystem { field, op } if field == self.field => {
                    match self.syms[op as usize] {
                        Some(sym) => {
                            *states = states.iter().map(|&q| self.dfa.step(q, sym)).collect()
                        }
                        None => lost(states, unknown),
                    }
                }
                CallTarget::Subsystem { .. } => {}
                CallTarget::SelfMethod { method } => {
                    match method.and_then(|m| self.callees[m as usize].as_ref()) {
                        Some(whole) => {
                            let before: Vec<usize> = states.iter().copied().collect();
                            for d in before {
                                states.extend(whole[d].0.iter().copied());
                                *unknown |= whole[d].1;
                            }
                        }
                        None => lost(states, unknown),
                    }
                }
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
            let relevant = |t: &CallTarget| match *t {
                CallTarget::Subsystem { field, .. } => field == self.field,
                CallTarget::SelfMethod { .. } => true,
            };
            if n.calls_inexact && n.calls.iter().any(|c| relevant(&c.target)) {
                return (BTreeSet::new(), true);
            }
            let mut out = fact.clone();
            for call in n.calls {
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
        let cfgs = ClassCfgs::build(class, system.subsystem_fields());
        let ids = &cfgs.ids;
        let analysis = ClassAnalysis::new(system, &cfgs);
        let mut syms = vec![None; ids.num_ops()];
        let mut compared = 0;
        for sub in &info.subsystems {
            let Some(dep) = systems.get(&sub.class_name) else {
                continue;
            };
            let field = ids.field(&sub.field).expect("subsystem fields are tracked");
            let dfa = dependency_dfa(&dep.spec);
            let nstates = dfa.num_states();
            resolve_ops(ids, field, &dfa, &mut syms);
            let flow = analysis.field_flow(field, &dfa, &syms);
            let callees: Vec<Option<Vec<Plain>>> = flow
                .summaries
                .iter()
                .map(|s| {
                    s.as_ref()
                        .map(|s| (0..nstates).map(|d| plain(&s.whole, d)).collect())
                })
                .collect();
            let solve_from = |cfg: &Cfg, entry: Plain| {
                let per_state = PerState {
                    dfa: &dfa,
                    field,
                    syms: &syms,
                    callees: &callees,
                    entry,
                };
                solve(&per_state, cfg)
            };
            for (m, summary) in flow.summaries.iter().enumerate() {
                let Some(summary) = summary else {
                    continue;
                };
                let name = ids.method_name(m as MethodId);
                let cfg = cfgs.graph(m as MethodId);
                for d in 0..nstates {
                    let whole = plain(&summary.whole, d);
                    let per_exit: Vec<Plain> =
                        summary.per_exit.iter().map(|rel| plain(rel, d)).collect();
                    if analysis.forced[m] {
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
                    let Some(op) = analysis.op_spec(m) else {
                        continue;
                    };
                    let mut expected = vec![(BTreeSet::new(), false); op.exits.len()];
                    ClassAnalysis::for_each_exit_edge(cfg, op, |from, ei| {
                        let (states, unknown) = &solution.output[from];
                        expected[ei].0.extend(states.iter().copied());
                        expected[ei].1 |= unknown;
                    });
                    assert_eq!(
                        per_exit, expected,
                        "`{name}`.{} per exit from {d}",
                        sub.field
                    );
                }
            }
            for (m, relational) in flow.solutions.iter().enumerate() {
                let Some(relational) = relational else {
                    continue;
                };
                let name = ids.method_name(m as MethodId);
                let cfg = cfgs.graph(m as MethodId);
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

    /// An operation redefined with more exits than its first definition:
    /// the summary has the first definition's exits, so the later
    /// operation's extra exit has no relation and reads as unknown.
    #[test]
    fn redefined_operation_with_more_exits_is_unknown_not_a_panic() {
        let src = "\
@sys
class V:
    @op_initial_final
    def a(self):
        return []

@sys([\"v\"])
class U:
    def __init__(self):
        self.v = V()

    @op_initial_final
    def run(self):
        self.v.a()
        return []

    @op_initial_final
    def run(self):
        if x:
            return [\"run\"]
        self.v.a()
        return []
";
        let report = analyze(src, "U");
        assert!(!report.proven.contains("v"));
        let checked = crate::checker::Checker::new().check_source(src).unwrap();
        assert!(checked.report.passed());
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
