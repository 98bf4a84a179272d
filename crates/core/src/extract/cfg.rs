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
//! `return` and `break`/`continue` nodes carry their own [`NodeKind`], so
//! analyses find every one of them, at any nesting depth, on the graph.
//!
//! Each node also records which subsystem fields the statement *reads*
//! (`self.f` anywhere but a plain assignment target) and *writes* (a plain
//! `self.f = ...`), and which calls it makes, so definite-assignment and
//! typestate dataflow run directly on the graph.
//!
//! **Ids, not names.** The graphs of one class share one [`ClassIds`]
//! table and speak only its ids:
//!
//! * a [`FieldId`] per tracked subsystem field, in `@sys([...])` order;
//! * a [`MethodId`] per method name, bound to its last definition (the
//!   one Python calls);
//! * an [`OpId`] per pair of a field and a name called on it
//!   (`self.f.m()`), interned as the graphs are built.
//!
//! Names come back only when a diagnostic or a public report is written.
//!
//! **Flat storage.** A graph keeps one array of node records whose reads
//! and calls are ranges into two per-graph arrays, its successor lists in
//! one CSR array, and its writes as a `nodes × words` field bitset. The
//! builder threads a body through scratch buffers kept per thread, so
//! building the graphs of many classes allocates only the graphs.

use crate::bits;
use micropython_parser::ast::{ClassDef, Expr, ExprKind, Pattern, Stmt};
use micropython_parser::Span;

/// Index of a node in a [`Cfg`].
pub type NodeId = usize;

/// Index of a tracked subsystem field in a [`ClassIds`] table.
pub type FieldId = u32;

/// Index of a method name in a [`ClassIds`] table.
pub type MethodId = u32;

/// Index of a (field, called name) pair in a [`ClassIds`] table.
pub type OpId = u32;

/// What a node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The unique entry node.
    Entry,
    /// The unique exit node (targets of `return`, `raise` and of falling
    /// off the end of the body).
    Exit,
    /// A source statement other than the three below.
    Stmt,
    /// A `return` statement.
    Return,
    /// A `break` or `continue` statement.
    LoopJump,
    /// A `raise` statement. The graph leaves the method there, while the
    /// §3.2 lowering falls through it.
    Raise,
}

impl NodeKind {
    /// Whether the node stands for a source statement.
    pub fn is_statement(self) -> bool {
        !matches!(self, NodeKind::Entry | NodeKind::Exit)
    }
}

/// One node of a graph, as [`Cfg::node`] shows it.
#[derive(Debug, Clone, Copy)]
pub struct CfgNode<'g> {
    /// What the node stands for.
    pub kind: NodeKind,
    /// The statement's span (`None` for entry/exit).
    pub span: Option<Span>,
    /// Tracked fields this statement reads, with the read's span, in
    /// evaluation order. For `self.a = expr`, reads inside `expr` are
    /// recorded but the target itself is not.
    pub reads: &'g [(FieldId, Span)],
    /// Tracked fields this statement writes (`self.a = ...`), as the words
    /// of a field bitset.
    pub writes: &'g [u64],
    /// Method calls this statement performs, in evaluation order
    /// (arguments before the call itself, mirroring the lowering). Only
    /// calls the analyses can interpret are recorded: `self.f.m()` on a
    /// tracked field `f` and sibling `self.m()` calls.
    pub calls: &'g [CallEvent],
    /// Whether `calls` diverges from the lowering of §3.2 at this node: an
    /// `if` head carries calls from conditions past the first (the lowering
    /// evaluates only a prefix of the conditions per arm), a `for` head
    /// carries calls in its iterable (the lowering evaluates it once while
    /// the graph's back edge re-executes the head), or a `try` head carries
    /// handler-expression calls. Trace-sensitive analyses must treat such
    /// a node as unknown rather than replay `calls`.
    pub calls_inexact: bool,
}

impl CfgNode<'_> {
    /// Whether the statement writes `field`.
    pub fn writes_field(&self, field: FieldId) -> bool {
        bits::contains(self.writes, field as usize)
    }
}

/// One interpreted call inside a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEvent {
    /// What is being called.
    pub target: CallTarget,
    /// The call expression's span.
    pub span: Span,
}

/// The callee of a [`CallEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// `self.field.name()` where `field` is tracked.
    Subsystem {
        /// The subsystem field.
        field: FieldId,
        /// The (field, called name) pair.
        op: OpId,
    },
    /// `self.name()` — a sibling method of the same class.
    SelfMethod {
        /// The method called, or `None` when the class defines no method
        /// of that name.
        method: Option<MethodId>,
    },
}

/// The names the graphs of one class refer to by id (see the module
/// docs).
#[derive(Debug, Clone, Default)]
pub struct ClassIds<'a> {
    fields: Vec<&'a str>,
    methods: Vec<&'a str>,
    /// Per method: the position of its last definition in
    /// [`ClassDef::methods`].
    last_def: Vec<usize>,
    ops: Vec<(FieldId, &'a str)>,
}

impl<'a> ClassIds<'a> {
    /// The table of `class` tracking `fields` (a repeated name keeps its
    /// first id). Operation pairs are added as graphs are built.
    pub fn new(class: &'a ClassDef, fields: impl IntoIterator<Item = &'a str>) -> ClassIds<'a> {
        let mut ids = ClassIds::default();
        for field in fields {
            if !ids.fields.contains(&field) {
                ids.fields.push(field);
            }
        }
        for (i, func) in class.methods().enumerate() {
            let name = func.name.node.as_str();
            match ids.method(name) {
                Some(m) => ids.last_def[m as usize] = i,
                None => {
                    ids.methods.push(name);
                    ids.last_def.push(i);
                }
            }
        }
        ids
    }

    /// Number of tracked fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// The id of a tracked field.
    pub fn field(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| *f == name)
            .map(|i| i as FieldId)
    }

    /// A tracked field's name.
    pub fn field_name(&self, field: FieldId) -> &'a str {
        self.fields[field as usize]
    }

    /// Number of distinct method names.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// The id of a method name.
    pub fn method(&self, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| *m == name)
            .map(|i| i as MethodId)
    }

    /// A method's name.
    pub fn method_name(&self, method: MethodId) -> &'a str {
        self.methods[method as usize]
    }

    /// The position in [`ClassDef::methods`] of a method's last
    /// definition.
    pub fn last_definition(&self, method: MethodId) -> usize {
        self.last_def[method as usize]
    }

    /// Number of (field, called name) pairs interned so far.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// A (field, called name) pair.
    pub fn op(&self, op: OpId) -> (FieldId, &'a str) {
        self.ops[op as usize]
    }

    /// The id of a (field, called name) pair, if some graph calls it.
    pub fn op_id(&self, field: FieldId, name: &str) -> Option<OpId> {
        self.ops
            .iter()
            .position(|&(f, n)| f == field && n == name)
            .map(|i| i as OpId)
    }

    fn intern_op(&mut self, field: FieldId, name: &'a str) -> OpId {
        self.op_id(field, name).unwrap_or_else(|| {
            self.ops.push((field, name));
            (self.ops.len() - 1) as OpId
        })
    }
}

/// A node record: the ranges index the graph's flat arrays.
#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    calls_inexact: bool,
    span: Span,
    reads: (u32, u32),
    calls: (u32, u32),
    succs: (u32, u32),
    /// The successor index at which the phantom `match` fall-through
    /// edges begin (`u32::MAX`: none). While building: the global edge
    /// index at which they begin.
    phantom_from: u32,
}

const NO_PHANTOM: u32 = u32::MAX;

/// A method body's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    nodes: Vec<NodeData>,
    succs: Vec<NodeId>,
    reads: Vec<(FieldId, Span)>,
    calls: Vec<CallEvent>,
    /// `nodes × words` field bitsets.
    writes: Vec<u64>,
    fields: usize,
    words: usize,
    dead: Vec<Span>,
}

#[cfg(test)]
thread_local! {
    /// Graphs built on this thread: the counter behind the
    /// one-graph-per-method work gate.
    static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many graphs have been built on the calling thread so far.
#[cfg(test)]
pub(crate) fn cfgs_built() -> usize {
    BUILT.with(std::cell::Cell::get)
}

impl Cfg {
    /// Builds the graph of `body`, tracking the fields of `ids` and
    /// interning the operation pairs it calls into `ids`.
    pub fn of_body<'a>(body: &'a [Stmt], ids: &mut ClassIds<'a>) -> Cfg {
        Builder::new(ids).graph(body)
    }

    /// The entry node.
    pub fn entry(&self) -> NodeId {
        ENTRY
    }

    /// The exit node.
    pub fn exit(&self) -> NodeId {
        EXIT
    }

    /// Number of nodes (statements + 2).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> CfgNode<'_> {
        let n = &self.nodes[id];
        CfgNode {
            kind: n.kind,
            span: n.kind.is_statement().then_some(n.span),
            reads: &self.reads[n.reads.0 as usize..n.reads.1 as usize],
            writes: &self.writes[id * self.words..(id + 1) * self.words],
            calls: &self.calls[n.calls.0 as usize..n.calls.1 as usize],
            calls_inexact: n.calls_inexact,
        }
    }

    /// Successor edges of a node.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        let (start, end) = self.nodes[id].succs;
        &self.succs[start as usize..end as usize]
    }

    /// Whether the `index`-th successor edge of `from` is a `match`
    /// fall-through edge absent from the lowering of §3.2 (which has no
    /// fall-through arm). Reachability lints keep these edges; analyses
    /// aligned with the verified model must not propagate along them.
    pub fn edge_is_phantom(&self, from: NodeId, index: usize) -> bool {
        index >= self.nodes[from].phantom_from as usize
    }

    /// All nodes, in source order (entry first, exit second).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, CfgNode<'_>)> {
        (0..self.nodes.len()).map(|id| (id, self.node(id)))
    }

    /// Which nodes can execute, by forward reachability from entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![ENTRY];
        seen[ENTRY] = true;
        while let Some(q) = stack.pop() {
            for &next in self.successors(q) {
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

/// Every method graph of one class and the id table they share.
#[derive(Debug, Clone)]
pub struct ClassCfgs<'a> {
    /// The ids the graphs speak.
    pub ids: ClassIds<'a>,
    /// One graph per method definition, in [`ClassDef::methods`] order (a
    /// redefined name keeps every definition). The dead statements of a
    /// graph do not depend on the tracked fields.
    pub graphs: Vec<Cfg>,
}

impl<'a> ClassCfgs<'a> {
    /// Builds the graph of every method of `class`, tracking `fields`.
    pub fn build(class: &'a ClassDef, fields: impl IntoIterator<Item = &'a str>) -> ClassCfgs<'a> {
        let mut ids = ClassIds::new(class, fields);
        let mut graphs = Vec::with_capacity(ids.last_def.len());
        let mut builder = Builder::new(&mut ids);
        for func in class.methods() {
            graphs.push(builder.graph(&func.body));
        }
        drop(builder);
        ClassCfgs { ids, graphs }
    }

    /// The graph of a method's last definition.
    pub fn graph(&self, method: MethodId) -> &Cfg {
        &self.graphs[self.ids.last_definition(method)]
    }
}

const ENTRY: NodeId = 0;
const EXIT: NodeId = 1;

/// The buffers a [`Builder`] threads a body through. They are scratch,
/// kept per thread, so building the graphs of many classes allocates only
/// the graphs themselves.
#[derive(Default)]
struct Scratch {
    nodes: Vec<NodeData>,
    reads: Vec<(FieldId, Span)>,
    calls: Vec<CallEvent>,
    writes: Vec<u64>,
    /// Edges in insertion order.
    edges: Vec<(NodeId, NodeId)>,
    /// The control-flow frontier: a block entered from `pending[base..]`
    /// leaves its exits there.
    pending: Vec<NodeId>,
    /// `break` nodes of the enclosing loops.
    breaks: Vec<NodeId>,
    /// Enclosing loops: `(head, start of its breaks)`.
    loops: Vec<(NodeId, usize)>,
    dead: Vec<Span>,
    /// Edges grouped by source: `(target, insertion index)`.
    grouped: Vec<(NodeId, usize)>,
    succs: Vec<NodeId>,
}

thread_local! {
    static SCRATCH: std::cell::Cell<Scratch> = std::cell::Cell::default();
}

/// Builds graphs over one [`ClassIds`] table, in the calling thread's
/// [`Scratch`].
struct Builder<'b, 'a> {
    ids: &'b mut ClassIds<'a>,
    words: usize,
    s: Scratch,
}

impl Drop for Builder<'_, '_> {
    fn drop(&mut self) {
        SCRATCH.set(std::mem::take(&mut self.s));
    }
}

impl<'b, 'a> Builder<'b, 'a> {
    fn new(ids: &'b mut ClassIds<'a>) -> Builder<'b, 'a> {
        Builder {
            words: bits::words_for(ids.num_fields()),
            ids,
            s: SCRATCH.take(),
        }
    }

    fn graph(&mut self, body: &'a [Stmt]) -> Cfg {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        self.s.nodes.clear();
        self.s.reads.clear();
        self.s.calls.clear();
        self.s.writes.clear();
        self.s.edges.clear();
        self.s.pending.clear();
        self.s.dead.clear();
        self.push_node(NodeKind::Entry, Span::default());
        self.push_node(NodeKind::Exit, Span::default());
        self.s.pending.push(ENTRY);
        self.block(body, 0);
        for i in 0..self.s.pending.len() {
            self.s.edges.push((self.s.pending[i], EXIT));
        }
        self.finish()
    }

    fn push_node(&mut self, kind: NodeKind, span: Span) -> NodeId {
        let id = self.s.nodes.len();
        let (reads, calls) = (self.s.reads.len() as u32, self.s.calls.len() as u32);
        self.s.nodes.push(NodeData {
            kind,
            calls_inexact: false,
            span,
            reads: (reads, reads),
            calls: (calls, calls),
            succs: (0, 0),
            phantom_from: NO_PHANTOM,
        });
        self.s.writes.resize(self.s.writes.len() + self.words, 0);
        id
    }

    /// Adds the node of `stmt` with edges from the frontier
    /// `pending[base..]`, which it consumes.
    fn stmt_node(&mut self, stmt: &'a Stmt, base: usize) -> NodeId {
        let kind = match stmt {
            Stmt::Return(_) => NodeKind::Return,
            Stmt::Break(_) | Stmt::Continue(_) => NodeKind::LoopJump,
            Stmt::Raise(_) => NodeKind::Raise,
            _ => NodeKind::Stmt,
        };
        let id = self.push_node(kind, stmt.span());
        self.record_accesses(stmt, id);
        let inexact = self.record_calls(stmt);
        let node = &mut self.s.nodes[id];
        node.reads.1 = self.s.reads.len() as u32;
        node.calls.1 = self.s.calls.len() as u32;
        node.calls_inexact = inexact;
        for i in base..self.s.pending.len() {
            self.s.edges.push((self.s.pending[i], id));
        }
        self.s.pending.truncate(base);
        id
    }

    /// Threads a statement list entered from the frontier
    /// `pending[base..]`: each statement's node gets edges from the
    /// current frontier, and the frontier left in `pending[base..]` is
    /// where control can be after the whole block.
    fn block(&mut self, stmts: &'a [Stmt], base: usize) {
        let mut live = true;
        for stmt in stmts {
            if self.s.pending.len() == base && live {
                // First statement of a dead region; descendants and later
                // siblings stay unreported.
                self.s.dead.push(stmt.span());
                live = false;
            }
            let node = self.stmt_node(stmt, base);
            match stmt {
                // Control leaves the method (for `raise`, or the enclosing
                // `try`, which the graph over-approximates as leaving).
                Stmt::Return(_) | Stmt::Raise(_) => self.s.edges.push((node, EXIT)),
                Stmt::Break(_) => {
                    if !self.s.loops.is_empty() {
                        self.s.breaks.push(node);
                    }
                }
                Stmt::Continue(_) => {
                    if let Some(&(head, _)) = self.s.loops.last() {
                        self.s.edges.push((node, head));
                    }
                }
                Stmt::If(ifs) => {
                    for (_, body) in &ifs.branches {
                        self.arm(node, body);
                    }
                    match &ifs.orelse {
                        Some(body) => self.arm(node, body),
                        // No else: the condition may be false.
                        None => self.s.pending.push(node),
                    }
                }
                Stmt::Match(ms) => {
                    let mut has_catch_all = false;
                    for case in &ms.cases {
                        has_catch_all |=
                            matches!(case.pattern, Pattern::Wildcard(_) | Pattern::Capture(_));
                        self.arm(node, &case.body);
                    }
                    if !has_catch_all {
                        // No case may match: Python falls through. Edges the
                        // frontier adds from here on bypass every arm, which
                        // the lowering cannot do — mark where they start.
                        self.s.nodes[node].phantom_from = self.s.edges.len() as u32;
                        self.s.pending.push(node);
                    }
                }
                Stmt::While(ws) => self.loop_body(node, &ws.body),
                Stmt::For(fs) => self.loop_body(node, &fs.body),
                Stmt::Try(t) => {
                    // The body's exits stay in `pending[base..body_end]`
                    // for the handlers.
                    self.arm(node, &t.body);
                    let body_end = self.s.pending.len();
                    if let Some(orelse) = &t.orelse {
                        self.s.pending.extend_from_within(base..body_end);
                        self.block(orelse, body_end);
                    }
                    for h in &t.handlers {
                        // A handler runs after the body was interrupted at
                        // any point; the head node plus the body frontier
                        // conservatively stand in for every such point.
                        let start = self.s.pending.len();
                        self.s.pending.push(node);
                        self.s.pending.extend_from_within(base..body_end);
                        self.block(&h.body, start);
                    }
                    if t.orelse.is_some() {
                        // Past the `try`: the `else` exits, not the body's.
                        self.s.pending.drain(base..body_end);
                    }
                    if let Some(finally) = &t.finally {
                        self.block(finally, base);
                    }
                }
                Stmt::With(ws) => self.arm(node, &ws.body),
                // Straight-line statements (nested defs do not run here; a
                // degraded region is opaque skip).
                Stmt::Assign(_)
                | Stmt::Expr(_)
                | Stmt::Pass(_)
                | Stmt::Import(_)
                | Stmt::ClassDef(_)
                | Stmt::FuncDef(_)
                | Stmt::Degraded(_) => self.s.pending.push(node),
            }
        }
    }

    /// Threads `body` entered from `head` alone, appending its exits to
    /// the frontier.
    fn arm(&mut self, head: NodeId, body: &'a [Stmt]) {
        let start = self.s.pending.len();
        self.s.pending.push(head);
        self.block(body, start);
    }

    /// The body of a loop with head `head`: a back edge from the body's
    /// end to the head; past the loop, the head (condition false) and
    /// every `break`.
    fn loop_body(&mut self, head: NodeId, body: &'a [Stmt]) {
        let breaks = self.s.breaks.len();
        self.s.loops.push((head, breaks));
        let start = self.s.pending.len();
        self.s.pending.push(head);
        self.block(body, start);
        for i in start..self.s.pending.len() {
            self.s.edges.push((self.s.pending[i], head));
        }
        self.s.pending.truncate(start);
        self.s.loops.pop();
        self.s.pending.push(head);
        self.s.pending.extend(self.s.breaks.drain(breaks..));
    }

    /// Lays the edges out as CSR: grouped by source in insertion order,
    /// repeated edges dropped, phantom marks turned into successor
    /// indices. Copies the graph out of the scratch buffers.
    fn finish(&mut self) -> Cfg {
        for node in &mut self.s.nodes {
            node.succs = (0, 0);
        }
        for &(from, _) in &self.s.edges {
            self.s.nodes[from].succs.1 += 1;
        }
        let mut start = 0;
        for node in &mut self.s.nodes {
            let count = node.succs.1;
            node.succs = (start, start);
            start += count;
        }
        self.s.grouped.clear();
        self.s.grouped.resize(self.s.edges.len(), (0, 0));
        for (at, &(from, to)) in self.s.edges.iter().enumerate() {
            let slot = &mut self.s.nodes[from].succs.1;
            self.s.grouped[*slot as usize] = (to, at);
            *slot += 1;
        }
        self.s.succs.clear();
        for node in &mut self.s.nodes {
            let first = self.s.succs.len();
            let mark = node.phantom_from;
            node.phantom_from = NO_PHANTOM;
            for &(to, at) in &self.s.grouped[node.succs.0 as usize..node.succs.1 as usize] {
                if at >= mark as usize && node.phantom_from == NO_PHANTOM {
                    node.phantom_from = (self.s.succs.len() - first) as u32;
                }
                if !self.s.succs[first..].contains(&to) {
                    self.s.succs.push(to);
                }
            }
            node.succs = (first as u32, self.s.succs.len() as u32);
        }
        Cfg {
            nodes: self.s.nodes.clone(),
            succs: self.s.succs.clone(),
            reads: self.s.reads.clone(),
            calls: self.s.calls.clone(),
            writes: self.s.writes.clone(),
            fields: self.ids.num_fields(),
            words: self.words,
            dead: self.s.dead.clone(),
        }
    }

    /// Records reads and writes of tracked fields for node `id` (without
    /// descending into nested blocks — those get their own nodes).
    fn record_accesses(&mut self, stmt: &'a Stmt, id: NodeId) {
        match stmt {
            Stmt::Assign(a) => {
                // Value evaluates first.
                self.collect_reads(&a.value);
                if let Some(field) = self.plain_field_target(&a.target) {
                    if a.aug_op.is_some() {
                        // `self.a += x` reads before it writes.
                        self.s.reads.push((field, a.target.span));
                    }
                    self.write(id, field);
                } else {
                    self.collect_reads(&a.target);
                }
            }
            Stmt::Expr(e) => self.collect_reads(&e.expr),
            Stmt::Return(r) => {
                if let Some(value) = &r.value {
                    self.collect_reads(value);
                }
            }
            // For compound statements the node covers only the head: the
            // condition / subject / iterable, evaluated before branching.
            Stmt::If(ifs) => {
                for (cond, _) in &ifs.branches {
                    self.collect_reads(cond);
                }
            }
            Stmt::Match(ms) => self.collect_reads(&ms.subject),
            Stmt::While(ws) => self.collect_reads(&ws.cond),
            Stmt::For(fs) => self.collect_reads(&fs.iter),
            Stmt::Raise(r) => {
                for e in r.exc.iter().chain(r.cause.iter()) {
                    self.collect_reads(e);
                }
            }
            Stmt::With(ws) => {
                for item in &ws.items {
                    self.collect_reads(&item.context);
                    if let Some(target) = &item.target {
                        match self.plain_field_target(target) {
                            Some(field) => self.write(id, field),
                            None => self.collect_reads(target),
                        }
                    }
                }
            }
            Stmt::Try(t) => {
                // Handler exception expressions have no node of their own;
                // they are charged to the `try` head.
                for h in &t.handlers {
                    if let Some(exc) = &h.exc {
                        self.collect_reads(exc);
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

    fn write(&mut self, id: NodeId, field: FieldId) {
        let row = &mut self.s.writes[id * self.words..(id + 1) * self.words];
        bits::insert(row, field as usize);
    }

    /// `self.f` when `f` is a tracked field and the expression is exactly
    /// that attribute (a plain-assignment target, i.e. a write).
    fn plain_field_target(&self, target: &Expr) -> Option<FieldId> {
        let ExprKind::Attribute { value, attr } = &target.kind else {
            return None;
        };
        if !matches!(&value.kind, ExprKind::Name(n) if n == "self") {
            return None;
        }
        self.ids.field(&attr.node)
    }

    /// Collects `self.f` reads (for tracked `f`) inside an expression, in
    /// evaluation order.
    fn collect_reads(&mut self, expr: &Expr) {
        if let Some(field) = self.plain_field_target(expr) {
            self.s.reads.push((field, expr.span));
            return;
        }
        match &expr.kind {
            ExprKind::Attribute { value, .. } => self.collect_reads(value),
            ExprKind::Call { func, args } => {
                for a in args {
                    self.collect_reads(a);
                }
                self.collect_reads(func);
            }
            ExprKind::Subscript { value, index } => {
                self.collect_reads(value);
                self.collect_reads(index);
            }
            ExprKind::List(items) | ExprKind::Tuple(items) | ExprKind::Set(items) => {
                for i in items {
                    self.collect_reads(i);
                }
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.collect_reads(k);
                    self.collect_reads(v);
                }
            }
            ExprKind::BinOp { left, right, .. } => {
                self.collect_reads(left);
                self.collect_reads(right);
            }
            ExprKind::UnaryOp { operand, .. } => self.collect_reads(operand),
            ExprKind::Await(operand) => self.collect_reads(operand),
            ExprKind::Starred { value, .. } => self.collect_reads(value),
            ExprKind::Comp {
                element,
                value,
                clauses,
                ..
            } => {
                for c in clauses {
                    self.collect_reads(&c.iter);
                }
                for c in clauses {
                    for cond in &c.ifs {
                        self.collect_reads(cond);
                    }
                }
                self.collect_reads(element);
                if let Some(v) = value {
                    self.collect_reads(v);
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
    /// (without descending into nested blocks — those get their own
    /// nodes), and returns whether they diverge from the lowering (see
    /// [`CfgNode::calls_inexact`]).
    fn record_calls(&mut self, stmt: &'a Stmt) -> bool {
        let mut inexact = false;
        match stmt {
            Stmt::Assign(a) => {
                self.collect_calls(&a.value);
                self.collect_calls(&a.target);
            }
            Stmt::Expr(e) => self.collect_calls(&e.expr),
            Stmt::Return(r) => {
                if let Some(value) = &r.value {
                    self.collect_calls(value);
                }
            }
            // Compound statement nodes cover only the head, evaluated before
            // branching.
            Stmt::If(ifs) => {
                for (i, (cond, _)) in ifs.branches.iter().enumerate() {
                    let before = self.s.calls.len();
                    self.collect_calls(cond);
                    // The lowering gives arm k only the first k conditions;
                    // the graph runs all of them on every arm.
                    inexact |= i > 0 && self.s.calls.len() > before;
                }
            }
            Stmt::Match(ms) => self.collect_calls(&ms.subject),
            Stmt::While(ws) => self.collect_calls(&ws.cond),
            Stmt::For(fs) => {
                let before = self.s.calls.len();
                self.collect_calls(&fs.iter);
                // The lowering evaluates the iterable once; the back edge
                // through this head would replay it every iteration.
                inexact = self.s.calls.len() > before;
            }
            Stmt::Raise(r) => {
                for e in r.exc.iter().chain(r.cause.iter()) {
                    self.collect_calls(e);
                }
            }
            Stmt::With(ws) => {
                for item in &ws.items {
                    self.collect_calls(&item.context);
                    if let Some(target) = &item.target {
                        self.collect_calls(target);
                    }
                }
            }
            Stmt::Try(t) => {
                for h in &t.handlers {
                    if let Some(exc) = &h.exc {
                        let before = self.s.calls.len();
                        self.collect_calls(exc);
                        // The lowering keeps each handler's exception
                        // expression inside its own choice arm; the head
                        // node replays all of them.
                        inexact |= self.s.calls.len() > before;
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
        inexact
    }

    /// Collects interpreted calls inside an expression, in evaluation order
    /// (arguments before the call itself — the same order the lowering
    /// uses).
    fn collect_calls(&mut self, expr: &'a Expr) {
        match &expr.kind {
            ExprKind::Call { func, args } => {
                let target = match expr.as_self_method_call() {
                    Some((Some(field), name)) => self.ids.field(field).map(|field| {
                        let op = self.ids.intern_op(field, name);
                        CallTarget::Subsystem { field, op }
                    }),
                    Some((None, name)) => Some(CallTarget::SelfMethod {
                        method: self.ids.method(name),
                    }),
                    None => None,
                };
                if let Some(target) = target {
                    for a in args {
                        self.collect_calls(a);
                    }
                    self.s.calls.push(CallEvent {
                        target,
                        span: expr.span,
                    });
                    return;
                }
                self.collect_calls(func);
                for a in args {
                    self.collect_calls(a);
                }
            }
            ExprKind::Attribute { value, .. } => self.collect_calls(value),
            ExprKind::Subscript { value, index } => {
                self.collect_calls(value);
                self.collect_calls(index);
            }
            ExprKind::List(items) | ExprKind::Tuple(items) | ExprKind::Set(items) => {
                for i in items {
                    self.collect_calls(i);
                }
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.collect_calls(k);
                    self.collect_calls(v);
                }
            }
            ExprKind::BinOp { left, right, .. } => {
                self.collect_calls(left);
                self.collect_calls(right);
            }
            ExprKind::UnaryOp { operand, .. } => self.collect_calls(operand),
            // `await` is transparent: the awaited call happens.
            ExprKind::Await(operand) => self.collect_calls(operand),
            ExprKind::Starred { value, .. } => self.collect_calls(value),
            ExprKind::Comp {
                element,
                value,
                clauses,
                ..
            } => {
                for c in clauses {
                    self.collect_calls(&c.iter);
                }
                for c in clauses {
                    for cond in &c.ifs {
                        self.collect_calls(cond);
                    }
                }
                self.collect_calls(element);
                if let Some(v) = value {
                    self.collect_calls(v);
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
}

/// The definite/possible assignment facts computed by [`assignment_flow`],
/// as two flat `nodes × words` field-bitset matrices.
#[derive(Debug, Clone)]
pub struct AssignmentFlow {
    words: usize,
    must_in: Vec<u64>,
    may_in: Vec<u64>,
    /// Forward reachability (unreachable nodes carry no meaningful facts).
    pub reachable: Vec<bool>,
}

impl AssignmentFlow {
    /// Whether `field` is assigned on *every* path reaching node `id`.
    pub fn definitely(&self, id: NodeId, field: FieldId) -> bool {
        bits::contains(&self.must_in[id * self.words..], field as usize)
    }

    /// Whether `field` is assigned on *some* path reaching node `id`.
    pub fn possibly(&self, id: NodeId, field: FieldId) -> bool {
        bits::contains(&self.may_in[id * self.words..], field as usize)
    }
}

/// Forward definite-assignment dataflow over `cfg`, for every tracked
/// field.
///
/// Must-facts start at the full field set (top) and intersect over
/// predecessors; may-facts start empty and union. Each round pushes every
/// reachable node's facts, with its writes, along its edges; both are
/// monotone, so the rounds reach the fixpoint.
pub fn assignment_flow(cfg: &Cfg) -> AssignmentFlow {
    let (n, w) = (cfg.num_nodes(), cfg.words);
    let reachable = cfg.reachable();
    let mut must_in = vec![0u64; n * w];
    for f in 0..cfg.fields {
        bits::insert(&mut must_in[..w], f);
    }
    for id in 1..n {
        must_in.copy_within(..w, id * w);
    }
    must_in[ENTRY * w..(ENTRY + 1) * w].fill(0);
    let mut may_in = vec![0u64; n * w];

    let mut changed = true;
    while changed {
        changed = false;
        for id in (0..n).filter(|&id| reachable[id]) {
            for k in 0..w {
                let write = cfg.writes[id * w + k];
                let (must, may) = (must_in[id * w + k] | write, may_in[id * w + k] | write);
                for &to in cfg.successors(id) {
                    let (to_must, to_may) = (&mut must_in[to * w + k], &mut may_in[to * w + k]);
                    changed |= *to_must & !must != 0 || may & !*to_may != 0;
                    *to_must &= must;
                    *to_may |= may;
                }
            }
        }
    }

    AssignmentFlow {
        words: w,
        must_in,
        may_in,
        reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micropython_parser::ast::Module;
    use micropython_parser::parse_module;

    fn module(src: &str) -> Module {
        parse_module(src).unwrap()
    }

    /// The graph of the first method of the first class, tracking
    /// `fields`, with its id table.
    fn graph<'m>(m: &'m Module, fields: &[&'m str]) -> (Cfg, ClassIds<'m>) {
        let class = m.classes().next().unwrap();
        let mut ids = ClassIds::new(class, fields.iter().copied());
        let cfg = Cfg::of_body(&class.methods().next().unwrap().body, &mut ids);
        (cfg, ids)
    }

    fn dead_count(src: &str) -> usize {
        let m = module(src);
        graph(&m, &[]).0.dead_code().len()
    }

    #[test]
    fn straight_line_has_no_dead_code() {
        let m = module("class C:\n    def m(self):\n        x = 1\n        return []\n");
        let (cfg, _) = graph(&m, &[]);
        assert!(cfg.dead_code().is_empty());
        // entry, x=1, return, exit all reachable.
        assert!(cfg.reachable().iter().all(|&r| r));
    }

    #[test]
    fn statement_after_return_is_dead() {
        let m =
            module("class C:\n    def m(self):\n        return []\n        x = 1\n        y = 2\n");
        let (cfg, _) = graph(&m, &[]);
        // Only the first statement of the dead region is reported.
        assert_eq!(cfg.dead_code().len(), 1);
        let reach = cfg.reachable();
        let dead_nodes = cfg
            .nodes()
            .filter(|(id, n)| n.kind.is_statement() && !reach[*id])
            .count();
        assert_eq!(dead_nodes, 2);
    }

    #[test]
    fn all_branches_returning_kills_the_tail() {
        let n = dead_count(
            "class C:\n    def m(self):\n        if x:\n            return [\"a\"]\n        else:\n            return [\"b\"]\n        done()\n",
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn else_less_if_keeps_the_tail_alive() {
        let n = dead_count(
            "class C:\n    def m(self):\n        if x:\n            return []\n        done()\n",
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn code_after_break_is_dead_but_loop_exit_lives() {
        let m = module(
            "class C:\n    def m(self):\n        while x:\n            break\n            dead()\n        alive()\n        return []\n",
        );
        let (cfg, _) = graph(&m, &[]);
        assert_eq!(cfg.dead_code().len(), 1);
        // alive() and return remain reachable via the break edge.
        assert!(cfg.reachable()[cfg.exit()]);
    }

    #[test]
    fn match_without_catch_all_falls_through() {
        let n = dead_count(
            "class C:\n    def m(self):\n        match v:\n            case [\"a\"]:\n                return []\n        after()\n",
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn match_with_catch_all_seals_the_tail() {
        let n = dead_count(
            "class C:\n    def m(self):\n        match v:\n            case [\"a\"]:\n                return []\n            case _:\n                return []\n        after()\n",
        );
        assert_eq!(n, 1);
    }

    /// The frontier through `try`: the handlers enter from the head and
    /// the body's exits, `else` follows the body, `finally` joins them.
    #[test]
    fn try_threads_body_else_handlers_and_finally() {
        let m = module(
            "class C:\n    def m(self):\n        try:\n            a()\n        except E:\n            b()\n        else:\n            c()\n        finally:\n            d()\n        return []\n",
        );
        let (cfg, _) = graph(&m, &[]);
        // entry, exit, try, a, c, b, d, return.
        assert_eq!(cfg.num_nodes(), 8);
        assert_eq!(cfg.successors(2), [3, 5]);
        assert_eq!(cfg.successors(3), [4, 5]);
        assert_eq!(cfg.successors(4), [6]);
        assert_eq!(cfg.successors(5), [6]);
        assert_eq!(cfg.successors(6), [7]);
        assert_eq!(cfg.successors(7), [EXIT]);
    }

    #[test]
    fn returns_loop_jumps_and_raises_have_their_own_kind_at_any_depth() {
        let m = module(
            "class C:\n    def m(self):\n        while x:\n            with ctx():\n                try:\n                    break\n                finally:\n                    continue\n        if y:\n            raise E()\n        with ctx():\n            return []\n",
        );
        let (cfg, _) = graph(&m, &[]);
        let kinds = |kind| cfg.nodes().filter(|(_, n)| n.kind == kind).count();
        assert_eq!(kinds(NodeKind::LoopJump), 2);
        assert_eq!(kinds(NodeKind::Raise), 1);
        assert_eq!(kinds(NodeKind::Return), 1);
    }

    #[test]
    fn assignment_flow_straight_line() {
        let m = module(
            "class C:\n    def __init__(self):\n        self.a = Valve()\n        self.b = Valve()\n",
        );
        let (cfg, _) = graph(&m, &["a", "b"]);
        let flow = assignment_flow(&cfg);
        for f in [0, 1] {
            assert!(flow.definitely(cfg.exit(), f) && flow.possibly(cfg.exit(), f));
        }
    }

    #[test]
    fn assignment_flow_branch_only_may() {
        let m = module(
            "class C:\n    def __init__(self):\n        self.a = Valve()\n        if ok:\n            self.b = Valve()\n",
        );
        let (cfg, ids) = graph(&m, &["a", "b"]);
        let flow = assignment_flow(&cfg);
        let (a, b) = (ids.field("a").unwrap(), ids.field("b").unwrap());
        assert!(flow.definitely(cfg.exit(), a) && !flow.definitely(cfg.exit(), b));
        assert!(flow.possibly(cfg.exit(), b));
    }

    #[test]
    fn assignment_flow_loop_body_is_not_definite() {
        let m = module(
            "class C:\n    def __init__(self):\n        for v in vs:\n            self.a = Valve()\n",
        );
        let (cfg, _) = graph(&m, &["a"]);
        let flow = assignment_flow(&cfg);
        assert!(!flow.definitely(cfg.exit(), 0), "loop may run zero times");
        assert!(flow.possibly(cfg.exit(), 0));
    }

    #[test]
    fn call_events_are_recorded_in_evaluation_order() {
        let m = module(
            "class C:\n    def m(self):\n        self.a.open(self.b.prep())\n        self.helper()\n        if self.a.probe():\n            pass\n        return []\n\n    def helper(self):\n        pass\n",
        );
        let (cfg, ids) = graph(&m, &["a", "b"]);
        let stmts: Vec<CfgNode<'_>> = cfg
            .nodes()
            .filter(|(_, n)| n.kind.is_statement())
            .map(|(_, n)| n)
            .collect();
        let named = |t: &CallTarget| match *t {
            CallTarget::Subsystem { field, op } => {
                assert_eq!(ids.op(op).0, field);
                format!("{}.{}", ids.field_name(field), ids.op(op).1)
            }
            CallTarget::SelfMethod { method } => {
                format!("self.{}", method.map_or("?", |m| ids.method_name(m)))
            }
        };
        // Argument call fires before the enclosing call.
        let first: Vec<String> = stmts[0].calls.iter().map(|c| named(&c.target)).collect();
        assert_eq!(first, ["b.prep", "a.open"]);
        assert_eq!(named(&stmts[1].calls[0].target), "self.helper");
        // The `if` head records the condition's call.
        assert_eq!(named(&stmts[2].calls[0].target), "a.probe");
        assert_eq!(ids.num_ops(), 3);
    }

    #[test]
    fn match_fall_through_edges_are_phantom() {
        let m = module(
            "class C:\n    def m(self):\n        match self.a.test():\n            case [\"open\"]:\n                self.a.open()\n        after()\n        return []\n",
        );
        let (cfg, _) = graph(&m, &["a"]);
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
        let m = module(
            "class C:\n    def m(self):\n        if self.a.first():\n            pass\n        elif self.a.second():\n            pass\n        if self.a.only():\n            pass\n        for v in self.a.iter():\n            pass\n        while self.a.poll():\n            pass\n        return []\n",
        );
        let (cfg, _) = graph(&m, &["a"]);
        let heads: Vec<CfgNode<'_>> = cfg
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
        let m = module(
            "class C:\n    def __init__(self):\n        self.a = Valve()\n        self.a.reset()\n        self.b = wrap(self.a)\n",
        );
        let (cfg, _) = graph(&m, &["a", "b"]);
        let stmts: Vec<CfgNode<'_>> = cfg
            .nodes()
            .filter(|(_, n)| n.kind.is_statement())
            .map(|(_, n)| n)
            .collect();
        assert!(stmts[0].writes_field(0) && !stmts[0].writes_field(1));
        assert!(stmts[0].reads.is_empty());
        assert_eq!(stmts[1].reads[0].0, 0);
        assert!(stmts[2].writes_field(1) && !stmts[2].writes_field(0));
        assert_eq!(stmts[2].reads[0].0, 0);
    }
}
