//! Lowering MicroPython method bodies to the imperative calculus.
//!
//! This implements the abstraction step of §3.2: *"the syntax of the source
//! language is an abstraction of MicroPython that captures the control flow
//! of the program and function calls — our input language ignores the
//! intermediate values being calculated."*
//!
//! * Calls on declared subsystem fields (`self.a.open()`) become events
//!   `a.open`; every other expression becomes `skip`.
//! * `if`/`elif`/`else` and `match`/`case` become nondeterministic choice.
//! * `for` and `while` become `loop(*)`; calls in the condition/iterable
//!   are placed so their evaluation order is preserved.
//! * Every `return` becomes a `return` at a fresh exit point, and the
//!   declared next-operations (Table 2 forms) are recorded per exit.
//! * The body is wrapped as `body; return` at a synthetic *implicit exit*
//!   so falling off the end is modeled as `return []` (Python's `None`).

use crate::system::NameMap;
use micropython_parser::ast::{Expr, ExprKind, FuncDef, Pattern, Stmt};
use micropython_parser::Span;
use shelley_ir::{ExitId, Program};
use shelley_regular::{Alphabet, Symbol};
use std::collections::BTreeSet;

/// The statically-recognized shape of a `return` value (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnForm {
    /// `return` with no value.
    Bare,
    /// `return ["m1", ..., "mn"]`.
    List,
    /// `return ["m1", ...], value`.
    TupleWithList,
    /// Any other value — the next-operations cannot be determined.
    Other,
    /// The synthetic exit for bodies that can fall off the end.
    Implicit,
}

/// One exit point discovered during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredExit {
    /// Declared next-operation names (empty for `return []`, bare returns,
    /// undeterminable forms, and the implicit exit).
    pub next: Vec<String>,
    /// The `return`'s span (absent for the implicit exit).
    pub span: Option<Span>,
    /// Which Table 2 form the return had.
    pub form: ReturnForm,
}

/// A call on a constrained (subsystem) field, for invocation analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The subsystem field (`a` in `self.a.open()`).
    pub field: String,
    /// The invoked method name.
    pub method: String,
    /// Where the call was written.
    pub span: Span,
    /// Whether the call is the subject of a `match` statement.
    pub scrutinized: bool,
}

/// A `match` whose subject is a constrained call, for exhaustiveness
/// analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSite {
    /// The subsystem field of the subject call.
    pub field: String,
    /// The method of the subject call.
    pub method: String,
    /// The `match` statement's span.
    pub span: Span,
    /// Per case: the set of next-operation strings in the pattern (when the
    /// pattern is a string-list, possibly inside a tuple), its span, and
    /// whether it is a catch-all (wildcard or capture).
    pub cases: Vec<MatchCaseInfo>,
}

/// Summary of one `case` arm for exhaustiveness checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchCaseInfo {
    /// The string set of a list pattern, if the pattern has that shape.
    pub strings: Option<BTreeSet<String>>,
    /// Whether the pattern matches anything (`_` or a capture).
    pub catch_all: bool,
    /// The pattern's span.
    pub span: Span,
}

/// The result of lowering one method body.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredMethod {
    /// The lowered program, wrapped as `body; return(implicit)`.
    pub program: Program,
    /// Exit points indexed by [`ExitId`]; the implicit exit is last.
    pub exits: Vec<LoweredExit>,
    /// All constrained call sites in source order.
    pub calls: Vec<CallSite>,
    /// All `match` statements over constrained calls.
    pub matches: Vec<MatchSite>,
    /// Spans of `break`/`continue` statements (over-approximated as `skip`).
    pub loop_jumps: Vec<Span>,
    /// Assignments to constrained fields (`self.a = ...`) — aliasing the
    /// analysis cannot track.
    pub field_writes: Vec<(String, Span)>,
}

impl LoweredMethod {
    /// The [`ExitId`] of the synthetic implicit exit.
    pub fn implicit_exit(&self) -> ExitId {
        self.exits.len() - 1
    }
}

/// Lowers `func`'s body, treating `fields` as the constrained subsystem
/// fields. Event symbols (`field.method`) are interned into `alphabet`.
pub fn lower_method(
    func: &FuncDef,
    fields: &BTreeSet<String>,
    alphabet: &mut Alphabet,
) -> LoweredMethod {
    let mut ctx = LowerCtx {
        fields,
        alphabet,
        exits: Vec::new(),
        calls: Vec::new(),
        matches: Vec::new(),
        loop_jumps: Vec::new(),
        field_writes: Vec::new(),
    };
    let body = ctx.lower_stmts(&func.body);
    // Implicit exit: Python returns None when the body falls through.
    let implicit = ctx.exits.len();
    ctx.exits.push(LoweredExit {
        next: Vec::new(),
        span: None,
        form: ReturnForm::Implicit,
    });
    let program = Program::seq(body, Program::ret(implicit));
    LoweredMethod {
        program,
        exits: ctx.exits,
        calls: ctx.calls,
        matches: ctx.matches,
        loop_jumps: ctx.loop_jumps,
        field_writes: ctx.field_writes,
    }
}

struct LowerCtx<'a> {
    fields: &'a BTreeSet<String>,
    alphabet: &'a mut Alphabet,
    exits: Vec<LoweredExit>,
    calls: Vec<CallSite>,
    matches: Vec<MatchSite>,
    loop_jumps: Vec<Span>,
    field_writes: Vec<(String, Span)>,
}

impl LowerCtx<'_> {
    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Program {
        Program::seq_all(stmts.iter().map(|s| self.lower_stmt(s)))
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Program {
        match stmt {
            Stmt::Expr(e) => self.lower_expr(&e.expr, false),
            Stmt::Assign(a) => {
                // Aliasing hazard: reassigning a constrained field makes the
                // model diverge from the running object.
                if let ExprKind::Attribute { value, attr } = &a.target.kind {
                    if matches!(&value.kind, ExprKind::Name(n) if n == "self")
                        && self.fields.contains(&attr.node)
                    {
                        self.field_writes.push((attr.node.clone(), a.span));
                    }
                }
                // Evaluation order: value first, then any calls in the
                // target (e.g. a subscript index).
                let v = self.lower_expr(&a.value, false);
                let t = self.lower_expr(&a.target, false);
                Program::seq(v, t)
            }
            Stmt::Return(r) => {
                let (calls, exit) = match &r.value {
                    None => (
                        Program::skip(),
                        LoweredExit {
                            next: Vec::new(),
                            span: Some(r.span),
                            form: ReturnForm::Bare,
                        },
                    ),
                    Some(value) => {
                        let calls = self.lower_expr(value, false);
                        let (next, form) = extract_next_ops(value);
                        (
                            calls,
                            LoweredExit {
                                next,
                                span: Some(r.span),
                                form,
                            },
                        )
                    }
                };
                let id = self.exits.len();
                self.exits.push(exit);
                Program::seq(calls, Program::ret(id))
            }
            Stmt::If(ifs) => {
                // Each branch: condition calls then body. The conditions of
                // later branches are evaluated only if earlier ones fail;
                // the abstraction keeps their calls inside the respective
                // choice arm, prefixed by all earlier condition calls.
                let mut arms: Vec<Program> = Vec::new();
                let mut cond_prefix: Vec<Program> = Vec::new();
                for (cond, body) in &ifs.branches {
                    let cond_calls = self.lower_expr(cond, false);
                    cond_prefix.push(cond_calls);
                    let mut arm = Program::seq_all(cond_prefix.iter().cloned());
                    arm = Program::seq(arm, self.lower_stmts(body));
                    arms.push(arm);
                }
                let else_arm = {
                    let all_conds = Program::seq_all(cond_prefix.iter().cloned());
                    match &ifs.orelse {
                        Some(body) => Program::seq(all_conds, self.lower_stmts(body)),
                        None => all_conds,
                    }
                };
                arms.push(else_arm);
                Program::choice(arms)
            }
            Stmt::Match(ms) => {
                // The subject is evaluated once, before branching.
                let subject = self.lower_expr(&ms.subject, true);
                // Record the match for exhaustiveness analysis when the
                // subject is a constrained call.
                if let Some((path, method)) = ms.subject.as_self_method_call() {
                    if let [field] = path.as_slice() {
                        if self.fields.contains(*field) {
                            let cases = ms
                                .cases
                                .iter()
                                .map(|c| MatchCaseInfo {
                                    strings: pattern_strings(&c.pattern),
                                    catch_all: matches!(
                                        c.pattern,
                                        Pattern::Wildcard(_) | Pattern::Capture(_)
                                    ),
                                    span: c.pattern.span(),
                                })
                                .collect();
                            self.matches.push(MatchSite {
                                field: (*field).to_owned(),
                                method: method.to_owned(),
                                span: ms.span,
                                cases,
                            });
                        }
                    }
                }
                let arms: Vec<Program> =
                    ms.cases.iter().map(|c| self.lower_stmts(&c.body)).collect();
                Program::seq(subject, Program::choice(arms))
            }
            Stmt::While(ws) => {
                // cond (body cond)* — the condition runs before every
                // iteration and once more on exit.
                let cond = self.lower_expr(&ws.cond, false);
                let body = self.lower_stmts(&ws.body);
                Program::seq(cond.clone(), Program::loop_(Program::seq(body, cond)))
            }
            Stmt::For(fs) => {
                // The iterable is evaluated once; the body loops.
                let iter = self.lower_expr(&fs.iter, false);
                let body = self.lower_stmts(&fs.body);
                Program::seq(iter, Program::loop_(body))
            }
            Stmt::Break(span) | Stmt::Continue(span) => {
                self.loop_jumps.push(*span);
                Program::skip()
            }
            Stmt::Pass(_) | Stmt::Import(_) => Program::skip(),
            // Nested definitions are outside the analyzed subset; their
            // bodies do not run at method-execution time.
            Stmt::ClassDef(_) | Stmt::FuncDef(_) => Program::skip(),
            Stmt::Try(t) => {
                // Exceptions can interrupt the try body at any call
                // boundary, so the abstraction over-approximates with a
                // choice of observable completions: the body ran to the end
                // (plus `else`), the body was cut short and a handler ran,
                // or a handler ran alone (interruption before any call).
                // `finally` always runs afterwards.
                let body = self.lower_stmts(&t.body);
                let orelse = match &t.orelse {
                    Some(b) => self.lower_stmts(b),
                    None => Program::skip(),
                };
                let mut arms = vec![Program::seq(body.clone(), orelse)];
                for h in &t.handlers {
                    let exc = match &h.exc {
                        Some(e) => self.lower_expr(e, false),
                        None => Program::skip(),
                    };
                    let handler = Program::seq(exc, self.lower_stmts(&h.body));
                    arms.push(handler.clone());
                    arms.push(Program::seq(body.clone(), handler));
                }
                let tried = Program::choice(arms);
                let finally = match &t.finally {
                    Some(b) => self.lower_stmts(b),
                    None => Program::skip(),
                };
                Program::seq(tried, finally)
            }
            Stmt::With(w) => {
                // Context managers are entered in order, then the body runs.
                // `__enter__`/`__exit__` of unconstrained objects are
                // invisible to the alphabet, so this is a plain sequence.
                let mut parts = Vec::new();
                for item in &w.items {
                    parts.push(self.lower_expr(&item.context, false));
                    if let Some(target) = &item.target {
                        parts.push(self.lower_expr(target, false));
                    }
                }
                parts.push(self.lower_stmts(&w.body));
                Program::seq_all(parts)
            }
            Stmt::Raise(r) => {
                // The raised expression is evaluated; the jump itself is
                // control-flow the regular abstraction already
                // over-approximates (like `break`).
                let mut parts = Vec::new();
                for e in r.exc.iter().chain(r.cause.iter()) {
                    parts.push(self.lower_expr(e, false));
                }
                Program::seq_all(parts)
            }
            // A degraded region is exactly the paper's `skip`: whatever the
            // original source did, the model claims nothing about it. W014
            // reports the imprecision.
            Stmt::Degraded(_) => Program::skip(),
        }
    }

    /// Lowers the constrained calls inside an expression, in evaluation
    /// order (arguments before the call itself, left to right).
    fn lower_expr(&mut self, expr: &Expr, scrutinized: bool) -> Program {
        let mut parts = Vec::new();
        self.collect_calls(expr, scrutinized, &mut parts);
        Program::seq_all(parts)
    }

    fn collect_calls(&mut self, expr: &Expr, scrutinized: bool, out: &mut Vec<Program>) {
        match &expr.kind {
            ExprKind::Call { func, args } => {
                // Arguments are evaluated before the call fires.
                // (The callee chain of an unconstrained call may itself
                // contain calls, e.g. `self.registry().lookup()`.)
                if let Some((path, method)) = expr.as_self_method_call() {
                    if let [field] = path.as_slice() {
                        if self.fields.contains(*field) {
                            for a in args {
                                self.collect_calls(a, false, out);
                            }
                            let event = format!("{field}.{method}");
                            let sym: Symbol = self.alphabet.intern(&event);
                            self.calls.push(CallSite {
                                field: (*field).to_owned(),
                                method: method.to_owned(),
                                span: expr.span,
                                scrutinized,
                            });
                            out.push(Program::call(sym));
                            return;
                        }
                    }
                }
                self.collect_calls(func, false, out);
                for a in args {
                    self.collect_calls(a, false, out);
                }
            }
            ExprKind::Attribute { value, .. } => self.collect_calls(value, false, out),
            ExprKind::Subscript { value, index } => {
                self.collect_calls(value, false, out);
                self.collect_calls(index, false, out);
            }
            ExprKind::List(items) | ExprKind::Tuple(items) | ExprKind::Set(items) => {
                for i in items {
                    self.collect_calls(i, false, out);
                }
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.collect_calls(k, false, out);
                    self.collect_calls(v, false, out);
                }
            }
            ExprKind::BinOp { left, right, .. } => {
                self.collect_calls(left, false, out);
                self.collect_calls(right, false, out);
            }
            ExprKind::UnaryOp { operand, .. } => self.collect_calls(operand, false, out),
            // `await` is transparent: the awaited call happens.
            ExprKind::Await(operand) => self.collect_calls(operand, scrutinized, out),
            ExprKind::Starred { value, .. } => self.collect_calls(value, false, out),
            ExprKind::Comp {
                element,
                value,
                clauses,
                ..
            } => {
                // Iterables are evaluated eagerly; the element/filters run
                // per iteration — approximated as a single evaluation (the
                // loop body's calls appear at least once in the order they
                // are written, matching the `for`-statement abstraction
                // without its `loop`, which the subset's verifier would
                // over-penalize for lazy generators).
                for c in clauses {
                    self.collect_calls(&c.iter, false, out);
                }
                for c in clauses {
                    for cond in &c.ifs {
                        self.collect_calls(cond, false, out);
                    }
                }
                self.collect_calls(element, false, out);
                if let Some(v) = value {
                    self.collect_calls(v, false, out);
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

/// Extracts declared next-operations from a return value (Table 2).
fn extract_next_ops(value: &Expr) -> (Vec<String>, ReturnForm) {
    if let Some(list) = value.as_string_list() {
        return (
            list.into_iter().map(str::to_owned).collect(),
            ReturnForm::List,
        );
    }
    if let ExprKind::Tuple(items) = &value.kind {
        if let Some(first) = items.first() {
            if let Some(list) = first.as_string_list() {
                return (
                    list.into_iter().map(str::to_owned).collect(),
                    ReturnForm::TupleWithList,
                );
            }
        }
    }
    (Vec::new(), ReturnForm::Other)
}

/// The string set of a list pattern (possibly the first element of a tuple
/// pattern), if it has that shape.
fn pattern_strings(p: &Pattern) -> Option<BTreeSet<String>> {
    match p {
        Pattern::List(items, _) => items
            .iter()
            .map(|i| match i {
                Pattern::Literal(e) => match &e.kind {
                    ExprKind::Str(s) => Some(s.clone()),
                    _ => None,
                },
                _ => None,
            })
            .collect(),
        Pattern::Tuple(items, _) => items.first().and_then(pattern_strings),
        _ => None,
    }
}

/// A convenience wrapper mapping qualified event names back to
/// `(field, method)` pairs.
pub fn split_event(name: &str) -> Option<(&str, &str)> {
    name.split_once('.')
}

/// Builds the map from subsystem field names to the class they are
/// instantiated with, by scanning `__init__` for `self.x = Class()`
/// assignments. A field assigned more than once maps to its last
/// assignment.
pub fn subsystem_classes(func: &FuncDef) -> NameMap<String> {
    let mut out = Vec::new();
    collect_field_inits(&func.body, &mut out);
    out.into_iter().collect()
}

fn collect_field_inits(stmts: &[Stmt], out: &mut Vec<(String, String)>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(a) => {
                let ExprKind::Attribute { value, attr } = &a.target.kind else {
                    continue;
                };
                if !matches!(&value.kind, ExprKind::Name(n) if n == "self") {
                    continue;
                }
                let ExprKind::Call { func, .. } = &a.value.kind else {
                    continue;
                };
                if let ExprKind::Name(class_name) = &func.kind {
                    out.push((attr.node.clone(), class_name.clone()));
                }
            }
            Stmt::If(ifs) => {
                for (_, body) in &ifs.branches {
                    collect_field_inits(body, out);
                }
                if let Some(body) = &ifs.orelse {
                    collect_field_inits(body, out);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micropython_parser::parse_module;
    use shelley_ir::{denote_exits, infer};

    fn lower_first_method(src: &str, fields: &[&str]) -> (Alphabet, LoweredMethod) {
        let m = parse_module(src).unwrap();
        let class = m.classes().next().unwrap();
        let func = class.methods().next().unwrap();
        let fields: BTreeSet<String> = fields.iter().map(|s| s.to_string()).collect();
        let mut ab = Alphabet::new();
        let lowered = lower_method(func, &fields, &mut ab);
        (ab, lowered)
    }

    #[test]
    fn lowers_open_a_of_badsector() {
        let src = r#"
class BadSector:
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                print("a failed")
                return []
"#;
        let (ab, lowered) = lower_first_method(src, &["a", "b"]);
        // Events: a.test, a.open, a.clean.
        assert!(ab.lookup("a.test").is_some());
        assert!(ab.lookup("a.open").is_some());
        assert!(ab.lookup("a.clean").is_some());
        // Two explicit exits + the implicit one.
        assert_eq!(lowered.exits.len(), 3);
        assert_eq!(lowered.exits[0].next, vec!["open_b"]);
        assert!(lowered.exits[1].next.is_empty());
        assert_eq!(lowered.exits[1].form, ReturnForm::List);
        // Behavior: a.test then (a.open | a.clean).
        let behavior = infer(&lowered.program);
        let t = ab.lookup("a.test").unwrap();
        let o = ab.lookup("a.open").unwrap();
        let c = ab.lookup("a.clean").unwrap();
        assert!(behavior.matches(&[t, o]));
        assert!(behavior.matches(&[t, c]));
        assert!(!behavior.matches(&[o]));
        // Match is recorded for exhaustiveness analysis.
        assert_eq!(lowered.matches.len(), 1);
        assert_eq!(lowered.matches[0].method, "test");
        assert_eq!(lowered.matches[0].cases.len(), 2);
        // The implicit exit is unreachable: the match-lowered choice always
        // returns. Verify via the exit-tagged denotation.
        let (_, exits) = denote_exits(&lowered.program);
        let implicit = lowered.implicit_exit();
        let implicit_live = exits
            .iter()
            .any(|(e, r)| *e == implicit && !r.is_empty_language());
        // Both cases return, but the abstraction cannot know the match is
        // exhaustive over runtime values, so the implicit exit IS reachable
        // through the zero-case path only if choice had a fallthrough arm —
        // match lowering has no fallthrough, so it is dead.
        assert!(!implicit_live);
    }

    #[test]
    fn if_without_else_reaches_implicit_exit() {
        let src = r#"
class C:
    def m(self):
        if ready:
            self.a.go()
            return []
"#;
        let (ab, lowered) = lower_first_method(src, &["a"]);
        let (_, exits) = denote_exits(&lowered.program);
        let implicit = lowered.implicit_exit();
        let live = exits
            .iter()
            .any(|(e, r)| *e == implicit && !r.is_empty_language());
        assert!(live, "else-less if must fall through");
        let _ = ab;
    }

    #[test]
    fn while_loops_place_condition_calls() {
        let src = r#"
class C:
    def m(self):
        while self.a.poll():
            self.a.step()
        return []
"#;
        let (ab, lowered) = lower_first_method(src, &["a"]);
        let poll = ab.lookup("a.poll").unwrap();
        let step = ab.lookup("a.step").unwrap();
        let behavior = infer(&lowered.program);
        // Zero iterations: poll only.
        assert!(behavior.matches(&[poll]));
        // Two iterations: poll step poll step poll.
        assert!(behavior.matches(&[poll, step, poll, step, poll]));
        // Body cannot run without the condition being evaluated.
        assert!(!behavior.matches(&[step]));
    }

    #[test]
    fn for_loop_iterates_body() {
        let src = r#"
class C:
    def m(self):
        for v in self.valves():
            self.a.tick()
        return []
"#;
        let (ab, lowered) = lower_first_method(src, &["a"]);
        let tick = ab.lookup("a.tick").unwrap();
        let behavior = infer(&lowered.program);
        assert!(behavior.matches(&[]));
        assert!(behavior.matches(&[tick, tick, tick]));
    }

    #[test]
    fn unconstrained_calls_are_skip() {
        let src = r#"
class C:
    def m(self):
        print("hello")
        self.helper()
        time.sleep(1)
        return []
"#;
        let (ab, lowered) = lower_first_method(src, &["a"]);
        assert_eq!(ab.len(), 0);
        assert!(lowered.calls.is_empty());
        let behavior = infer(&lowered.program);
        assert!(behavior.matches(&[]));
    }

    #[test]
    fn nested_call_arguments_evaluate_first() {
        let src = r#"
class C:
    def m(self):
        self.a.open(self.b.test())
        return []
"#;
        let (ab, lowered) = lower_first_method(src, &["a", "b"]);
        let open = ab.lookup("a.open").unwrap();
        let test = ab.lookup("b.test").unwrap();
        let behavior = infer(&lowered.program);
        assert!(behavior.matches(&[test, open]));
        assert!(!behavior.matches(&[open, test]));
        assert_eq!(lowered.calls.len(), 2);
    }

    #[test]
    fn tuple_return_forms() {
        let src = r#"
class C:
    def m(self):
        return ["close"], 2
"#;
        let (_, lowered) = lower_first_method(src, &[]);
        assert_eq!(lowered.exits[0].next, vec!["close"]);
        assert_eq!(lowered.exits[0].form, ReturnForm::TupleWithList);
    }

    #[test]
    fn bare_and_other_returns() {
        let src = r#"
class C:
    def m(self):
        if x:
            return
        return 42
"#;
        let (_, lowered) = lower_first_method(src, &[]);
        assert_eq!(lowered.exits[0].form, ReturnForm::Bare);
        assert_eq!(lowered.exits[1].form, ReturnForm::Other);
    }

    #[test]
    fn break_is_overapproximated() {
        let src = r#"
class C:
    def m(self):
        while running:
            if stop:
                break
            self.a.step()
        return []
"#;
        let (_, lowered) = lower_first_method(src, &["a"]);
        assert_eq!(lowered.loop_jumps.len(), 1);
    }

    #[test]
    fn subsystem_classes_from_init() {
        let src = r#"
class S:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()
        self.count = 0
        self.pin = Pin(27, OUT)
"#;
        let m = parse_module(src).unwrap();
        let class = m.classes().next().unwrap();
        let init = class.method("__init__").unwrap();
        let map = subsystem_classes(init);
        assert_eq!(map.get("a"), Some(&"Valve".to_string()));
        assert_eq!(map.get("b"), Some(&"Valve".to_string()));
        assert_eq!(map.get("pin"), Some(&"Pin".to_string()));
        assert_eq!(map.get("count"), None);
    }

    #[test]
    fn elif_chains_keep_condition_calls_ordered() {
        let src = r#"
class C:
    def m(self):
        if self.a.first():
            pass
        elif self.a.second():
            pass
        return []
"#;
        let (ab, lowered) = lower_first_method(src, &["a"]);
        let first = ab.lookup("a.first").unwrap();
        let second = ab.lookup("a.second").unwrap();
        let behavior = infer(&lowered.program);
        // Taking the elif branch requires evaluating both conditions.
        assert!(behavior.matches(&[first, second]));
        // Taking the if branch evaluates only the first condition.
        assert!(behavior.matches(&[first]));
        // The second condition can never fire before the first.
        assert!(!behavior.matches(&[second]));
    }
}
