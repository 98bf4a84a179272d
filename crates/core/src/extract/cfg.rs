//! A control-flow graph over MicroPython method bodies.
//!
//! The lowering of §3.2 erases control flow into regular expressions,
//! which is what verification needs — but flow-sensitive *lints* need the
//! statement-level graph back: which statements can execute at all
//! (`W009`), and which subsystem fields are definitely assigned when a
//! statement runs (`E008`/`W010`). This module builds that graph.
//!
//! Shape: one node per statement plus synthetic `Entry`/`Exit` nodes.
//! `return` edges into `Exit`; `break` edges to the statement after the
//! loop; `continue` edges back to the loop head; `if`/`match` fan out per
//! arm; `while`/`for` have a back edge from the body end to the head and a
//! zero-iteration edge past the loop. A `match` without a catch-all arm
//! keeps a fall-through edge (Python falls through when no case matches).
//!
//! Each node also records which subsystem fields the statement *reads*
//! (`self.f` anywhere but a plain assignment target) and *writes* (a plain
//! `self.f = ...`), so definite-assignment dataflow runs directly on the
//! graph.

use micropython_parser::ast::{ClassDef, Expr, ExprKind, Stmt};
use micropython_parser::Span;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a node in a [`Cfg`].
pub type NodeId = usize;

/// What a node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The unique entry node.
    Entry,
    /// The unique exit node (targets of `return` and of falling off the
    /// end of the body).
    Exit,
    /// One source statement.
    Stmt,
}

/// One node of the graph.
#[derive(Debug, Clone)]
pub struct CfgNode {
    /// Entry, exit, or statement.
    pub kind: NodeKind,
    /// The statement's span (`None` for entry/exit).
    pub span: Option<Span>,
    /// Constrained fields this statement reads, with the read's span, in
    /// evaluation order. For `self.a = expr`, reads inside `expr` are
    /// recorded but the target itself is not.
    pub reads: Vec<(String, Span)>,
    /// Constrained fields this statement writes (`self.a = ...`).
    pub writes: Vec<String>,
    /// Method calls this statement performs, in evaluation order
    /// (arguments before the call itself, mirroring the lowering). Only
    /// calls the analyses can interpret are recorded: `self.f.m()` on a
    /// constrained field `f` and sibling `self.m()` calls.
    pub calls: Vec<CallEvent>,
    /// Whether `calls` diverges from the lowering of §3.2 at this node: an
    /// `if` head carries calls from conditions past the first (the lowering
    /// evaluates only a prefix of the conditions per arm), or a `for` head
    /// carries calls in its iterable (the lowering evaluates it once while
    /// the graph's back edge re-executes the head). Trace-sensitive
    /// analyses must treat such a node as unknown rather than replay
    /// `calls`.
    pub calls_inexact: bool,
}

/// One interpreted call inside a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEvent {
    /// What is being called.
    pub target: CallTarget,
    /// The call expression's span.
    pub span: Span,
}

/// The callee of a [`CallEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `self.field.method()` where `field` is constrained.
    Subsystem {
        /// The subsystem field.
        field: String,
        /// The method invoked on it.
        method: String,
    },
    /// `self.method()` — a sibling method of the same class.
    SelfMethod {
        /// The method invoked on `self`.
        method: String,
    },
}

/// A method body's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    nodes: Vec<CfgNode>,
    succs: Vec<Vec<NodeId>>,
    entry: NodeId,
    exit: NodeId,
    dead: Vec<Span>,
    /// Per `match` head without a catch-all arm: the successor index at
    /// which its fall-through edges begin (everything before it enters a
    /// case arm). The lowering of §3.2 has no fall-through arm, so these
    /// edges are *phantom* with respect to the verified model.
    phantom_from: BTreeMap<NodeId, usize>,
}

#[cfg(test)]
thread_local! {
    /// Graphs [`Cfg::of_body`] built on this thread: the counter behind
    /// the one-graph-per-method work gate.
    static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many graphs [`Cfg::of_body`] has built on the calling thread so
/// far.
#[cfg(test)]
pub(crate) fn cfgs_built() -> usize {
    BUILT.with(std::cell::Cell::get)
}

impl Cfg {
    /// Builds the graph of `body`, tracking reads/writes of `fields`.
    /// Pass an empty set when only reachability matters.
    pub fn of_body(body: &[Stmt], fields: &BTreeSet<String>) -> Cfg {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        let mut b = Builder {
            nodes: vec![
                CfgNode {
                    kind: NodeKind::Entry,
                    span: None,
                    reads: Vec::new(),
                    writes: Vec::new(),
                    calls: Vec::new(),
                    calls_inexact: false,
                },
                CfgNode {
                    kind: NodeKind::Exit,
                    span: None,
                    reads: Vec::new(),
                    writes: Vec::new(),
                    calls: Vec::new(),
                    calls_inexact: false,
                },
            ],
            succs: vec![Vec::new(), Vec::new()],
            fields,
            loops: Vec::new(),
            dead: Vec::new(),
            phantom_from: BTreeMap::new(),
        };
        let ends = b.block(body, vec![ENTRY]);
        for end in ends {
            b.edge(end, EXIT);
        }
        Cfg {
            nodes: b.nodes,
            succs: b.succs,
            entry: ENTRY,
            exit: EXIT,
            dead: b.dead,
            phantom_from: b.phantom_from,
        }
    }

    /// One graph per method of `class`, in [`ClassDef::methods`] order
    /// (a redefined name keeps every definition), tracking `fields`.
    /// The dead statements of a graph do not depend on `fields`.
    pub(crate) fn of_methods(class: &ClassDef, fields: &BTreeSet<String>) -> Vec<Cfg> {
        class
            .methods()
            .map(|func| Cfg::of_body(&func.body, fields))
            .collect()
    }

    /// The entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of nodes (statements + 2).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &CfgNode {
        &self.nodes[id]
    }

    /// Successor edges of a node.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id]
    }

    /// Whether the `index`-th successor edge of `from` is a `match`
    /// fall-through edge absent from the lowering of §3.2 (which has no
    /// fall-through arm). Reachability lints keep these edges; analyses
    /// aligned with the verified model must not propagate along them.
    pub fn edge_is_phantom(&self, from: NodeId, index: usize) -> bool {
        self.phantom_from.get(&from).is_some_and(|&k| index >= k)
    }

    /// All nodes, in source order (entry first, exit second).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &CfgNode)> {
        self.nodes.iter().enumerate()
    }

    /// Predecessor lists, indexed by node.
    pub fn predecessors(&self) -> Vec<Vec<NodeId>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (from, succs) in self.succs.iter().enumerate() {
            for &to in succs {
                preds[to].push(from);
            }
        }
        preds
    }

    /// Which nodes can execute, by forward reachability from entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(q) = stack.pop() {
            for &next in &self.succs[q] {
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        seen
    }

    /// Spans of dead statements: the *first* statement of every region that
    /// can never execute (the rest of the region is suppressed to avoid
    /// cascading reports), in source order.
    pub fn dead_code(&self) -> &[Span] {
        &self.dead
    }
}

const ENTRY: NodeId = 0;
const EXIT: NodeId = 1;

struct Builder<'a> {
    nodes: Vec<CfgNode>,
    succs: Vec<Vec<NodeId>>,
    fields: &'a BTreeSet<String>,
    /// Stack of enclosing loops: `(head, collected break nodes)`.
    loops: Vec<(NodeId, Vec<NodeId>)>,
    dead: Vec<Span>,
    phantom_from: BTreeMap<NodeId, usize>,
}

impl Builder<'_> {
    fn edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    fn stmt_node(&mut self, stmt: &Stmt, preds: &[NodeId]) -> NodeId {
        let mut node = CfgNode {
            kind: NodeKind::Stmt,
            span: Some(stmt.span()),
            reads: Vec::new(),
            writes: Vec::new(),
            calls: Vec::new(),
            calls_inexact: false,
        };
        record_accesses(stmt, self.fields, &mut node);
        record_calls(stmt, self.fields, &mut node);
        let id = self.nodes.len();
        self.nodes.push(node);
        self.succs.push(Vec::new());
        for &p in preds {
            self.edge(p, id);
        }
        id
    }

    /// Threads a statement list: each statement's node gets edges from the
    /// current predecessor frontier; the returned frontier is where control
    /// can be after the whole block.
    fn block(&mut self, stmts: &[Stmt], mut preds: Vec<NodeId>) -> Vec<NodeId> {
        let mut live = true;
        for stmt in stmts {
            if preds.is_empty() && live {
                // First statement of a dead region; descendants and later
                // siblings stay unreported.
                self.dead.push(stmt.span());
                live = false;
            }
            let node = self.stmt_node(stmt, &preds);
            preds = match stmt {
                Stmt::Return(_) => {
                    self.edge(node, EXIT);
                    Vec::new()
                }
                Stmt::Break(_) => {
                    if let Some((_, breaks)) = self.loops.last_mut() {
                        breaks.push(node);
                    }
                    Vec::new()
                }
                Stmt::Continue(_) => {
                    if let Some(&(head, _)) = self.loops.last() {
                        self.edge(node, head);
                    }
                    Vec::new()
                }
                Stmt::If(ifs) => {
                    let mut ends = Vec::new();
                    for (_, body) in &ifs.branches {
                        ends.extend(self.block(body, vec![node]));
                    }
                    match &ifs.orelse {
                        Some(body) => ends.extend(self.block(body, vec![node])),
                        // No else: the condition may be false.
                        None => ends.push(node),
                    }
                    ends
                }
                Stmt::Match(ms) => {
                    let mut ends = Vec::new();
                    let mut has_catch_all = false;
                    for case in &ms.cases {
                        has_catch_all |= matches!(
                            case.pattern,
                            micropython_parser::ast::Pattern::Wildcard(_)
                                | micropython_parser::ast::Pattern::Capture(_)
                        );
                        ends.extend(self.block(&case.body, vec![node]));
                    }
                    if !has_catch_all {
                        // No case may match: Python falls through. Edges the
                        // frontier adds from here on bypass every arm, which
                        // the lowering cannot do — mark where they start.
                        self.phantom_from.insert(node, self.succs[node].len());
                        ends.push(node);
                    }
                    ends
                }
                Stmt::While(ws) => {
                    self.loops.push((node, Vec::new()));
                    let body_ends = self.block(&ws.body, vec![node]);
                    for end in body_ends {
                        self.edge(end, node);
                    }
                    let (_, breaks) = self.loops.pop().expect("loop stack");
                    // Past the loop: condition false at the head, or break.
                    let mut ends = vec![node];
                    ends.extend(breaks);
                    ends
                }
                Stmt::For(fs) => {
                    self.loops.push((node, Vec::new()));
                    let body_ends = self.block(&fs.body, vec![node]);
                    for end in body_ends {
                        self.edge(end, node);
                    }
                    let (_, breaks) = self.loops.pop().expect("loop stack");
                    let mut ends = vec![node];
                    ends.extend(breaks);
                    ends
                }
                Stmt::Raise(_) => {
                    // Control leaves the method (or the enclosing `try`,
                    // which the graph over-approximates as leaving).
                    self.edge(node, EXIT);
                    Vec::new()
                }
                Stmt::Try(t) => {
                    let body_ends = self.block(&t.body, vec![node]);
                    let mut ends = match &t.orelse {
                        Some(b) => self.block(b, body_ends.clone()),
                        None => body_ends.clone(),
                    };
                    for h in &t.handlers {
                        // A handler runs after the body was interrupted at
                        // any point; the head node plus the body frontier
                        // conservatively stand in for every such point.
                        let mut preds = vec![node];
                        preds.extend(body_ends.iter().copied());
                        ends.extend(self.block(&h.body, preds));
                    }
                    match &t.finally {
                        Some(b) => self.block(b, ends),
                        None => ends,
                    }
                }
                Stmt::With(ws) => self.block(&ws.body, vec![node]),
                // Straight-line statements (nested defs do not run here; a
                // degraded region is opaque skip).
                Stmt::Assign(_)
                | Stmt::Expr(_)
                | Stmt::Pass(_)
                | Stmt::Import(_)
                | Stmt::ClassDef(_)
                | Stmt::FuncDef(_)
                | Stmt::Degraded(_) => vec![node],
            };
        }
        preds
    }
}

/// Records reads and writes of constrained fields for one statement
/// (without descending into nested blocks — those get their own nodes).
fn record_accesses(stmt: &Stmt, fields: &BTreeSet<String>, node: &mut CfgNode) {
    match stmt {
        Stmt::Assign(a) => {
            // Value evaluates first.
            collect_reads(&a.value, fields, &mut node.reads);
            if let Some(field) = plain_field_target(&a.target, fields) {
                if a.aug_op.is_some() {
                    // `self.a += x` reads before it writes.
                    node.reads.push((field.to_owned(), a.target.span));
                }
                node.writes.push(field.to_owned());
            } else {
                collect_reads(&a.target, fields, &mut node.reads);
            }
        }
        Stmt::Expr(e) => collect_reads(&e.expr, fields, &mut node.reads),
        Stmt::Return(r) => {
            if let Some(value) = &r.value {
                collect_reads(value, fields, &mut node.reads);
            }
        }
        // For compound statements the node covers only the head: the
        // condition / subject / iterable, evaluated before branching.
        Stmt::If(ifs) => {
            for (cond, _) in &ifs.branches {
                collect_reads(cond, fields, &mut node.reads);
            }
        }
        Stmt::Match(ms) => collect_reads(&ms.subject, fields, &mut node.reads),
        Stmt::While(ws) => collect_reads(&ws.cond, fields, &mut node.reads),
        Stmt::For(fs) => collect_reads(&fs.iter, fields, &mut node.reads),
        Stmt::Raise(r) => {
            for e in r.exc.iter().chain(r.cause.iter()) {
                collect_reads(e, fields, &mut node.reads);
            }
        }
        Stmt::With(ws) => {
            for item in &ws.items {
                collect_reads(&item.context, fields, &mut node.reads);
                if let Some(target) = &item.target {
                    if let Some(field) = plain_field_target(target, fields) {
                        node.writes.push(field.to_owned());
                    } else {
                        collect_reads(target, fields, &mut node.reads);
                    }
                }
            }
        }
        Stmt::Try(t) => {
            // Handler exception expressions have no node of their own; they
            // are charged to the `try` head.
            for h in &t.handlers {
                if let Some(exc) = &h.exc {
                    collect_reads(exc, fields, &mut node.reads);
                }
            }
        }
        Stmt::Pass(_)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::Import(_)
        | Stmt::ClassDef(_)
        | Stmt::FuncDef(_)
        | Stmt::Degraded(_) => {}
    }
}

/// `self.f` when `f` is a constrained field and the expression is exactly
/// that attribute (a plain-assignment target, i.e. a write).
fn plain_field_target<'e>(target: &'e Expr, fields: &BTreeSet<String>) -> Option<&'e str> {
    let ExprKind::Attribute { value, attr } = &target.kind else {
        return None;
    };
    let is_self = matches!(&value.kind, ExprKind::Name(n) if n == "self");
    (is_self && fields.contains(&attr.node)).then_some(attr.node.as_str())
}

/// Collects `self.f` reads (for constrained `f`) inside an expression, in
/// evaluation order.
fn collect_reads(expr: &Expr, fields: &BTreeSet<String>, out: &mut Vec<(String, Span)>) {
    if let ExprKind::Attribute { value, attr } = &expr.kind {
        if matches!(&value.kind, ExprKind::Name(n) if n == "self") && fields.contains(&attr.node) {
            out.push((attr.node.clone(), expr.span));
            return;
        }
    }
    match &expr.kind {
        ExprKind::Attribute { value, .. } => collect_reads(value, fields, out),
        ExprKind::Call { func, args } => {
            for a in args {
                collect_reads(a, fields, out);
            }
            collect_reads(func, fields, out);
        }
        ExprKind::Subscript { value, index } => {
            collect_reads(value, fields, out);
            collect_reads(index, fields, out);
        }
        ExprKind::List(items) | ExprKind::Tuple(items) | ExprKind::Set(items) => {
            for i in items {
                collect_reads(i, fields, out);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                collect_reads(k, fields, out);
                collect_reads(v, fields, out);
            }
        }
        ExprKind::BinOp { left, right, .. } => {
            collect_reads(left, fields, out);
            collect_reads(right, fields, out);
        }
        ExprKind::UnaryOp { operand, .. } => collect_reads(operand, fields, out),
        ExprKind::Await(operand) => collect_reads(operand, fields, out),
        ExprKind::Starred { value, .. } => collect_reads(value, fields, out),
        ExprKind::Comp {
            element,
            value,
            clauses,
            ..
        } => {
            for c in clauses {
                collect_reads(&c.iter, fields, out);
            }
            for c in clauses {
                for cond in &c.ifs {
                    collect_reads(cond, fields, out);
                }
            }
            collect_reads(element, fields, out);
            if let Some(v) = value {
                collect_reads(v, fields, out);
            }
        }
        // A lambda body does not run at definition time.
        ExprKind::Lambda { .. } => {}
        ExprKind::Name(_)
        | ExprKind::Str(_)
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Bool(_)
        | ExprKind::NoneLit
        | ExprKind::FString(_) => {}
    }
}

/// Records interpreted calls for one statement, in evaluation order
/// (without descending into nested blocks — those get their own nodes).
fn record_calls(stmt: &Stmt, fields: &BTreeSet<String>, node: &mut CfgNode) {
    match stmt {
        Stmt::Assign(a) => {
            collect_calls(&a.value, fields, &mut node.calls);
            collect_calls(&a.target, fields, &mut node.calls);
        }
        Stmt::Expr(e) => collect_calls(&e.expr, fields, &mut node.calls),
        Stmt::Return(r) => {
            if let Some(value) = &r.value {
                collect_calls(value, fields, &mut node.calls);
            }
        }
        // Compound statement nodes cover only the head, evaluated before
        // branching.
        Stmt::If(ifs) => {
            for (i, (cond, _)) in ifs.branches.iter().enumerate() {
                let before = node.calls.len();
                collect_calls(cond, fields, &mut node.calls);
                // The lowering gives arm k only the first k conditions; the
                // graph runs all of them on every arm.
                if i > 0 && node.calls.len() > before {
                    node.calls_inexact = true;
                }
            }
        }
        Stmt::Match(ms) => collect_calls(&ms.subject, fields, &mut node.calls),
        Stmt::While(ws) => collect_calls(&ws.cond, fields, &mut node.calls),
        Stmt::For(fs) => {
            collect_calls(&fs.iter, fields, &mut node.calls);
            // The lowering evaluates the iterable once; the back edge
            // through this head would replay it every iteration.
            node.calls_inexact = !node.calls.is_empty();
        }
        Stmt::Raise(r) => {
            for e in r.exc.iter().chain(r.cause.iter()) {
                collect_calls(e, fields, &mut node.calls);
            }
        }
        Stmt::With(ws) => {
            for item in &ws.items {
                collect_calls(&item.context, fields, &mut node.calls);
                if let Some(target) = &item.target {
                    collect_calls(target, fields, &mut node.calls);
                }
            }
        }
        Stmt::Try(t) => {
            for h in &t.handlers {
                if let Some(exc) = &h.exc {
                    let before = node.calls.len();
                    collect_calls(exc, fields, &mut node.calls);
                    // The lowering keeps each handler's exception
                    // expression inside its own choice arm; the head node
                    // replays all of them.
                    if node.calls.len() > before {
                        node.calls_inexact = true;
                    }
                }
            }
        }
        Stmt::Pass(_)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::Import(_)
        | Stmt::ClassDef(_)
        | Stmt::FuncDef(_)
        | Stmt::Degraded(_) => {}
    }
}

/// Collects interpreted calls inside an expression, in evaluation order
/// (arguments before the call itself — the same order the lowering uses).
fn collect_calls(expr: &Expr, fields: &BTreeSet<String>, out: &mut Vec<CallEvent>) {
    match &expr.kind {
        ExprKind::Call { func, args } => {
            if let Some((path, method)) = expr.as_self_method_call() {
                let target = match path.as_slice() {
                    [field] if fields.contains(*field) => Some(CallTarget::Subsystem {
                        field: (*field).to_owned(),
                        method: method.to_owned(),
                    }),
                    [] => Some(CallTarget::SelfMethod {
                        method: method.to_owned(),
                    }),
                    _ => None,
                };
                if let Some(target) = target {
                    for a in args {
                        collect_calls(a, fields, out);
                    }
                    out.push(CallEvent {
                        target,
                        span: expr.span,
                    });
                    return;
                }
            }
            collect_calls(func, fields, out);
            for a in args {
                collect_calls(a, fields, out);
            }
        }
        ExprKind::Attribute { value, .. } => collect_calls(value, fields, out),
        ExprKind::Subscript { value, index } => {
            collect_calls(value, fields, out);
            collect_calls(index, fields, out);
        }
        ExprKind::List(items) | ExprKind::Tuple(items) | ExprKind::Set(items) => {
            for i in items {
                collect_calls(i, fields, out);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                collect_calls(k, fields, out);
                collect_calls(v, fields, out);
            }
        }
        ExprKind::BinOp { left, right, .. } => {
            collect_calls(left, fields, out);
            collect_calls(right, fields, out);
        }
        ExprKind::UnaryOp { operand, .. } => collect_calls(operand, fields, out),
        // `await` is transparent: the awaited call happens.
        ExprKind::Await(operand) => collect_calls(operand, fields, out),
        ExprKind::Starred { value, .. } => collect_calls(value, fields, out),
        ExprKind::Comp {
            element,
            value,
            clauses,
            ..
        } => {
            for c in clauses {
                collect_calls(&c.iter, fields, out);
            }
            for c in clauses {
                for cond in &c.ifs {
                    collect_calls(cond, fields, out);
                }
            }
            collect_calls(element, fields, out);
            if let Some(v) = value {
                collect_calls(v, fields, out);
            }
        }
        // A lambda body does not run at definition time.
        ExprKind::Lambda { .. } => {}
        ExprKind::Name(_)
        | ExprKind::Str(_)
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Bool(_)
        | ExprKind::NoneLit
        | ExprKind::FString(_) => {}
    }
}

/// The definite/possible assignment facts computed by [`assignment_flow`].
#[derive(Debug, Clone)]
pub struct AssignmentFlow {
    /// Per node: fields assigned on *every* path reaching the node.
    pub must_in: Vec<BTreeSet<String>>,
    /// Per node: fields assigned on *some* path reaching the node.
    pub may_in: Vec<BTreeSet<String>>,
    /// Forward reachability (unreachable nodes carry no meaningful facts).
    pub reachable: Vec<bool>,
}

impl AssignmentFlow {
    /// Facts at the exit node: fields definitely / possibly assigned when
    /// the body finishes.
    pub fn at_exit(&self, cfg: &Cfg) -> (&BTreeSet<String>, &BTreeSet<String>) {
        (&self.must_in[cfg.exit()], &self.may_in[cfg.exit()])
    }
}

/// Forward definite-assignment dataflow over `cfg`.
///
/// `universe` is the set of all tracked fields. Must-facts start at the
/// full universe (top) and intersect over predecessors; may-facts start
/// empty and union. Both are monotone, so the worklist terminates.
pub fn assignment_flow(cfg: &Cfg, universe: &BTreeSet<String>) -> AssignmentFlow {
    let n = cfg.num_nodes();
    let preds = cfg.predecessors();
    let reachable = cfg.reachable();
    let mut must_in: Vec<BTreeSet<String>> = vec![universe.clone(); n];
    let mut may_in: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    must_in[cfg.entry()] = BTreeSet::new();

    let out_of = |id: NodeId, inset: &BTreeSet<String>, cfg: &Cfg| {
        let mut out = inset.clone();
        out.extend(cfg.node(id).writes.iter().cloned());
        out
    };

    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if id == cfg.entry() || !reachable[id] {
                continue;
            }
            let mut new_must: Option<BTreeSet<String>> = None;
            let mut new_may = BTreeSet::new();
            for &p in &preds[id] {
                if !reachable[p] {
                    continue;
                }
                let p_must = out_of(p, &must_in[p], cfg);
                new_must = Some(match new_must {
                    None => p_must,
                    Some(acc) => acc.intersection(&p_must).cloned().collect(),
                });
                new_may.extend(out_of(p, &may_in[p], cfg));
            }
            let new_must = new_must.unwrap_or_default();
            if new_must != must_in[id] {
                must_in[id] = new_must;
                changed = true;
            }
            if new_may != may_in[id] {
                may_in[id] = new_may;
                changed = true;
            }
        }
    }

    AssignmentFlow {
        must_in,
        may_in,
        reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micropython_parser::parse_module;

    fn body_of(src: &str) -> Vec<Stmt> {
        let m = parse_module(src).unwrap();
        let class = m.classes().next().unwrap();
        let body = class.methods().next().unwrap().body.clone();
        body
    }

    fn fields(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn straight_line_has_no_dead_code() {
        let body = body_of("class C:\n    def m(self):\n        x = 1\n        return []\n");
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        assert!(cfg.dead_code().is_empty());
        // entry, x=1, return, exit all reachable.
        assert!(cfg.reachable().iter().all(|&r| r));
    }

    #[test]
    fn statement_after_return_is_dead() {
        let body = body_of(
            "class C:\n    def m(self):\n        return []\n        x = 1\n        y = 2\n",
        );
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        // Only the first statement of the dead region is reported.
        assert_eq!(cfg.dead_code().len(), 1);
        let reach = cfg.reachable();
        let dead_nodes: Vec<_> = cfg
            .nodes()
            .filter(|(id, n)| n.kind == NodeKind::Stmt && !reach[*id])
            .collect();
        assert_eq!(dead_nodes.len(), 2);
    }

    #[test]
    fn all_branches_returning_kills_the_tail() {
        let body = body_of(
            "class C:\n    def m(self):\n        if x:\n            return [\"a\"]\n        else:\n            return [\"b\"]\n        done()\n",
        );
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        assert_eq!(cfg.dead_code().len(), 1);
    }

    #[test]
    fn else_less_if_keeps_the_tail_alive() {
        let body = body_of(
            "class C:\n    def m(self):\n        if x:\n            return []\n        done()\n",
        );
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        assert!(cfg.dead_code().is_empty());
    }

    #[test]
    fn code_after_break_is_dead_but_loop_exit_lives() {
        let body = body_of(
            "class C:\n    def m(self):\n        while x:\n            break\n            dead()\n        alive()\n        return []\n",
        );
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        assert_eq!(cfg.dead_code().len(), 1);
        // alive() and return remain reachable via the break edge.
        let reach = cfg.reachable();
        assert!(reach[cfg.exit()]);
    }

    #[test]
    fn match_without_catch_all_falls_through() {
        let body = body_of(
            "class C:\n    def m(self):\n        match v:\n            case [\"a\"]:\n                return []\n        after()\n",
        );
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        assert!(cfg.dead_code().is_empty());
    }

    #[test]
    fn match_with_catch_all_seals_the_tail() {
        let body = body_of(
            "class C:\n    def m(self):\n        match v:\n            case [\"a\"]:\n                return []\n            case _:\n                return []\n        after()\n",
        );
        let cfg = Cfg::of_body(&body, &BTreeSet::new());
        assert_eq!(cfg.dead_code().len(), 1);
    }

    #[test]
    fn assignment_flow_straight_line() {
        let body = body_of(
            "class C:\n    def __init__(self):\n        self.a = Valve()\n        self.b = Valve()\n",
        );
        let universe = fields(&["a", "b"]);
        let cfg = Cfg::of_body(&body, &universe);
        let flow = assignment_flow(&cfg, &universe);
        let (must, may) = flow.at_exit(&cfg);
        assert_eq!(must, &universe);
        assert_eq!(may, &universe);
    }

    #[test]
    fn assignment_flow_branch_only_may() {
        let body = body_of(
            "class C:\n    def __init__(self):\n        self.a = Valve()\n        if ok:\n            self.b = Valve()\n",
        );
        let universe = fields(&["a", "b"]);
        let cfg = Cfg::of_body(&body, &universe);
        let flow = assignment_flow(&cfg, &universe);
        let (must, may) = flow.at_exit(&cfg);
        assert!(must.contains("a") && !must.contains("b"));
        assert!(may.contains("b"));
    }

    #[test]
    fn assignment_flow_loop_body_is_not_definite() {
        let body = body_of(
            "class C:\n    def __init__(self):\n        for v in vs:\n            self.a = Valve()\n",
        );
        let universe = fields(&["a"]);
        let cfg = Cfg::of_body(&body, &universe);
        let flow = assignment_flow(&cfg, &universe);
        let (must, may) = flow.at_exit(&cfg);
        assert!(!must.contains("a"), "loop may run zero times");
        assert!(may.contains("a"));
    }

    #[test]
    fn call_events_are_recorded_in_evaluation_order() {
        let body = body_of(
            "class C:\n    def m(self):\n        self.a.open(self.b.prep())\n        self.helper()\n        if self.a.probe():\n            pass\n        return []\n",
        );
        let universe = fields(&["a", "b"]);
        let cfg = Cfg::of_body(&body, &universe);
        let stmts: Vec<&CfgNode> = cfg
            .nodes()
            .filter(|(_, n)| n.kind == NodeKind::Stmt)
            .map(|(_, n)| n)
            .collect();
        // Argument call fires before the enclosing call.
        assert_eq!(
            stmts[0].calls.iter().map(|c| &c.target).collect::<Vec<_>>(),
            vec![
                &CallTarget::Subsystem {
                    field: "b".into(),
                    method: "prep".into()
                },
                &CallTarget::Subsystem {
                    field: "a".into(),
                    method: "open".into()
                },
            ]
        );
        assert_eq!(
            stmts[1].calls[0].target,
            CallTarget::SelfMethod {
                method: "helper".into()
            }
        );
        // The `if` head records the condition's call.
        assert_eq!(
            stmts[2].calls[0].target,
            CallTarget::Subsystem {
                field: "a".into(),
                method: "probe".into()
            }
        );
    }

    #[test]
    fn match_fall_through_edges_are_phantom() {
        let body = body_of(
            "class C:\n    def m(self):\n        match self.a.test():\n            case [\"open\"]:\n                self.a.open()\n        after()\n        return []\n",
        );
        let universe = fields(&["a"]);
        let cfg = Cfg::of_body(&body, &universe);
        let (match_id, _) = cfg
            .nodes()
            .find(|(_, n)| !n.calls.is_empty())
            .expect("match head");
        let succs = cfg.successors(match_id);
        assert_eq!(succs.len(), 2, "arm entry + fall-through");
        assert!(!cfg.edge_is_phantom(match_id, 0));
        assert!(cfg.edge_is_phantom(match_id, 1));
        // Every other node has only real edges.
        for (id, _) in cfg.nodes() {
            if id != match_id {
                for i in 0..cfg.successors(id).len() {
                    assert!(!cfg.edge_is_phantom(id, i));
                }
            }
        }
    }

    #[test]
    fn divergent_heads_are_marked_inexact() {
        let body = body_of(
            "class C:\n    def m(self):\n        if self.a.first():\n            pass\n        elif self.a.second():\n            pass\n        if self.a.only():\n            pass\n        for v in self.a.iter():\n            pass\n        while self.a.poll():\n            pass\n        return []\n",
        );
        let universe = fields(&["a"]);
        let cfg = Cfg::of_body(&body, &universe);
        let heads: Vec<&CfgNode> = cfg
            .nodes()
            .filter(|(_, n)| !n.calls.is_empty())
            .map(|(_, n)| n)
            .collect();
        assert_eq!(heads.len(), 4);
        assert!(heads[0].calls_inexact, "elif condition call diverges");
        assert!(!heads[1].calls_inexact, "single condition is exact");
        assert!(heads[2].calls_inexact, "for iterable replays on back edge");
        assert!(!heads[3].calls_inexact, "while re-evaluates in both");
    }

    #[test]
    fn reads_and_writes_are_recorded() {
        let body = body_of(
            "class C:\n    def __init__(self):\n        self.a = Valve()\n        self.a.reset()\n        self.b = wrap(self.a)\n",
        );
        let universe = fields(&["a", "b"]);
        let cfg = Cfg::of_body(&body, &universe);
        let stmts: Vec<&CfgNode> = cfg
            .nodes()
            .filter(|(_, n)| n.kind == NodeKind::Stmt)
            .map(|(_, n)| n)
            .collect();
        assert_eq!(stmts[0].writes, vec!["a"]);
        assert!(stmts[0].reads.is_empty());
        assert_eq!(stmts[1].reads[0].0, "a");
        assert_eq!(stmts[2].writes, vec!["b"]);
        assert_eq!(stmts[2].reads[0].0, "a");
    }
}
