//! Building verified systems from a parsed module.
//!
//! Two passes over the module's `@sys` classes:
//!
//! 1. every class gets a [`ClassSpec`] — operations from `@op*` decorators,
//!    exit points from the lowered bodies' live returns;
//! 2. composite classes resolve their subsystem fields against `__init__`
//!    and the other specs, and invocation analysis runs.

use crate::annotations::{class_annotations, op_annotation, Claim, ClassKind};
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::extract::invocation::check_invocations;
use crate::extract::lower::{lower_method, subsystem_classes, LoweredMethod, ReturnForm};
use crate::spec::{
    intern_spec_events, spec_automaton, ClassSpec, ExitGraph, ExitSpec, OperationSpec,
    SpecAutomaton,
};
use micropython_parser::ast::Module;
use shelley_ir::live_exits;
use shelley_regular::{Alphabet, Label, Nfa, StateId, Symbol};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A small map from names to values, held as one boxed slice sorted by
/// name: the per-class tables (operations to lowered bodies, subsystem
/// fields to classes) that are built once and then only looked up and
/// walked. A class with one operation costs one allocation of one entry,
/// where a `BTreeMap` leaf reserves room for eleven.
///
/// Collecting from an iterator keeps the last value given for a name, as
/// repeated `BTreeMap::insert`s do: a redefined method binds its last
/// definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameMap<V> {
    entries: Box<[(String, V)]>,
}

impl<V> NameMap<V> {
    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&V> {
        self.entries
            .binary_search_by(|(key, _)| key.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The entries in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &V)> {
        self.entries
            .iter()
            .map(|(key, value)| (key.as_str(), value))
    }
}

impl<V> Default for NameMap<V> {
    fn default() -> Self {
        NameMap {
            entries: Box::default(),
        }
    }
}

impl<V> FromIterator<(String, V)> for NameMap<V> {
    fn from_iter<I: IntoIterator<Item = (String, V)>>(iter: I) -> Self {
        let mut entries: Vec<(String, V)> = iter.into_iter().collect();
        // Stable, so each run of one name is in insertion order; the
        // dedup then moves the run's last value into its first slot.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        NameMap {
            entries: entries.into_boxed_slice(),
        }
    }
}

/// A subsystem instance of a composite class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subsystem {
    /// The field name (`a` in `self.a = Valve()`).
    pub field: String,
    /// The class instantiated in `__init__`.
    pub class_name: String,
}

/// What kind of system a class is.
#[derive(Debug, Clone)]
pub enum SystemKind {
    /// `@sys` — model from annotations only.
    Base,
    /// `@sys([...])` — model plus extracted behaviors over subsystems.
    Composite(CompositeInfo),
}

/// The extraction products of a composite class.
#[derive(Debug, Clone)]
pub struct CompositeInfo {
    /// Declared subsystems in decorator order.
    pub subsystems: Vec<Subsystem>,
    /// Lowered bodies of the `@op*` methods, keyed by operation name;
    /// shared with the extraction they were resolved from.
    pub methods: Arc<NameMap<LoweredMethod>>,
    /// The composite's alphabet: its own operation names (markers) plus the
    /// qualified events of every subsystem, plus claim atoms.
    pub alphabet: Arc<Alphabet>,
    /// The marker symbols (the composite's own operation names).
    pub markers: BTreeSet<shelley_regular::Symbol>,
}

/// A verified (or verifiable) system: one `@sys` class.
#[derive(Debug, Clone)]
pub struct System {
    /// The class name.
    pub name: String,
    /// Base or composite.
    pub kind: SystemKind,
    /// The operation model.
    pub spec: ClassSpec,
    /// Temporal claims in source order.
    pub claims: Vec<Claim>,
}

impl System {
    /// Whether this is a composite system.
    pub fn is_composite(&self) -> bool {
        matches!(self.kind, SystemKind::Composite(_))
    }

    /// The composite info, if any.
    pub fn composite(&self) -> Option<&CompositeInfo> {
        match &self.kind {
            SystemKind::Composite(c) => Some(c),
            SystemKind::Base => None,
        }
    }

    /// The resolved subsystem fields (none for a base system): the fields
    /// the flow-sensitive lints and the typestate analysis track.
    pub(crate) fn subsystem_fields(&self) -> impl Iterator<Item = &str> {
        let subsystems = self.composite().map_or(&[][..], |info| &info.subsystems);
        subsystems.iter().map(|s| s.field.as_str())
    }
}

/// All systems of a module, in declaration order.
///
/// Systems are held by [`Arc`], so a set assembled from cached per-class
/// products (see [`crate::workspace`]) shares them instead of copying.
#[derive(Debug, Clone, Default)]
pub struct SystemSet {
    systems: Vec<Arc<System>>,
}

impl SystemSet {
    /// Looks a system up by class name.
    pub fn get(&self, name: &str) -> Option<&System> {
        self.iter().find(|s| s.name == name)
    }

    /// All systems in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &System> {
        self.systems.iter().map(Arc::as_ref)
    }

    /// Number of systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether no `@sys` class was found.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// The systems as a mutable vector, for callers that keep the set in
    /// order themselves.
    pub(crate) fn systems_mut(&mut self) -> &mut Vec<Arc<System>> {
        &mut self.systems
    }
}

impl FromIterator<System> for SystemSet {
    fn from_iter<I: IntoIterator<Item = System>>(iter: I) -> Self {
        iter.into_iter().map(Arc::new).collect()
    }
}

impl FromIterator<Arc<System>> for SystemSet {
    fn from_iter<I: IntoIterator<Item = Arc<System>>>(iter: I) -> Self {
        SystemSet {
            systems: iter.into_iter().collect(),
        }
    }
}

/// The pass-1 products of one `@sys` class: its specification, lowered
/// method bodies, and the raw material subsystem resolution needs.
///
/// Produced by [`extract_class`]; consumed by [`resolve_class`]. The
/// extraction of a class depends only on the class's own text, which is
/// what makes it independently cacheable and parallelizable (see
/// [`crate::workspace`]).
#[derive(Debug, Clone)]
pub struct ClassExtraction {
    pub(crate) name: String,
    pub(crate) kind: ClassKind,
    pub(crate) claims: Vec<Claim>,
    /// Shared with the workspace's spec index, which registers it
    /// without a copy.
    pub(crate) spec: Arc<ClassSpec>,
    /// Shared, so cloning an extraction for resolution copies no method
    /// body.
    pub(crate) methods: Arc<NameMap<LoweredMethod>>,
    pub(crate) alphabet: Alphabet,
    pub(crate) declared_fields: Vec<String>,
    pub(crate) init_classes: NameMap<String>,
}

impl ClassExtraction {
    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The extracted operation model.
    pub fn spec(&self) -> &ClassSpec {
        &self.spec
    }

    /// The subsystem classes this class instantiates, by field: the names
    /// [`resolve_class`] will look up in its spec index. The verification
    /// outcome of the class depends only on its own text and the specs of
    /// exactly these classes.
    pub fn dependencies(&self) -> impl Iterator<Item = &str> {
        self.declared_fields
            .iter()
            .filter_map(|f| self.init_classes.get(f).map(String::as_str))
    }
}

/// Extraction (pass 1) of one class: annotations, the [`ClassSpec`] from
/// `@op*` decorators and live return sites, and lowered method bodies.
///
/// Returns `None` for classes without a `@sys` decorator; structural
/// findings go to `diagnostics`.
pub fn extract_class(
    class: &micropython_parser::ast::ClassDef,
    diagnostics: &mut Diagnostics,
) -> Option<ClassExtraction> {
    let ann = class_annotations(class, diagnostics);
    let (declared_fields, is_composite) = match &ann.kind {
        ClassKind::Unconstrained => return None,
        ClassKind::Base => (Vec::new(), false),
        ClassKind::Composite(fields) => (fields.clone(), true),
    };
    let field_set: BTreeSet<String> = declared_fields.iter().cloned().collect();
    let mut alphabet = Alphabet::new();
    let mut operations = Vec::new();
    let mut methods = Vec::new();

    for func in class.methods() {
        let Some((op_kind, _)) = op_annotation(func, diagnostics) else {
            continue;
        };
        let lowered = lower_method(func, &field_set, &mut alphabet);
        // Live exits: a return site contributes an exit point iff some
        // run actually reaches it.
        let live = live_exits(&lowered.program);
        let mut exits = Vec::new();
        for (id, exit) in lowered.exits.iter().enumerate() {
            if live.binary_search(&id).is_err() {
                continue;
            }
            if exit.form == ReturnForm::Implicit {
                diagnostics.push(
                    Diagnostic::warning(
                        codes::IMPLICIT_RETURN,
                        format!(
                            "operation `{}` of `{}` may finish without a \
                             `return` declaring next operations; treated \
                             as `return []`",
                            func.name.node, class.name.node
                        ),
                    )
                    .with_span(func.name.span),
                );
            }
            if exit.form == ReturnForm::Other {
                diagnostics.push(
                    Diagnostic::warning(
                        codes::IMPLICIT_RETURN,
                        format!(
                            "a `return` in operation `{}` of `{}` does not \
                             declare next operations (see Table 2 forms); \
                             treated as `return []`",
                            func.name.node, class.name.node
                        ),
                    )
                    .with_span(exit.span.unwrap_or(func.name.span)),
                );
            }
            exits.push(ExitSpec {
                next: exit.next.clone(),
                span: exit.span,
                implicit: exit.form == ReturnForm::Implicit,
            });
        }
        operations.push(OperationSpec {
            name: func.name.node.clone(),
            kind: op_kind,
            exits,
            span: Some(func.name.span),
        });
        methods.push((func.name.node.clone(), lowered));
    }

    let init_classes = class
        .method("__init__")
        .map(subsystem_classes)
        .unwrap_or_default();

    Some(ClassExtraction {
        name: class.name.node.clone(),
        kind: if is_composite {
            ClassKind::Composite(declared_fields.clone())
        } else {
            ClassKind::Base
        },
        claims: ann.claims,
        spec: Arc::new(ClassSpec {
            name: class.name.node.clone(),
            operations,
        }),
        methods: Arc::new(methods.into_iter().collect()),
        alphabet,
        declared_fields,
        init_classes,
    })
}

/// Resolution (pass 2) of one extracted class against the specs of every
/// class in scope: subsystem fields bind to their classes, invocation
/// analysis runs, and the composite alphabet is completed.
pub fn resolve_class(
    mut extraction: ClassExtraction,
    spec_index: &BTreeMap<String, ClassSpec>,
    diagnostics: &mut Diagnostics,
) -> System {
    let alphabet = std::mem::take(&mut extraction.alphabet);
    let kind = resolve_kind(
        &extraction,
        move || alphabet,
        |name| spec_index.get(name),
        diagnostics,
    );
    System {
        name: extraction.name,
        kind,
        spec: Arc::unwrap_or_clone(extraction.spec),
        claims: extraction.claims,
    }
}

/// [`resolve_class`] from a borrowed extraction, against any spec lookup
/// (`spec_of(class name)`). It copies only what the [`System`] owns: the
/// name, the spec and the claims, plus a composite's alphabet, which it
/// completes.
pub(crate) fn resolve_class_with<'s>(
    extraction: &ClassExtraction,
    spec_of: impl Fn(&str) -> Option<&'s ClassSpec>,
    diagnostics: &mut Diagnostics,
) -> System {
    System {
        name: extraction.name.clone(),
        kind: resolve_kind(
            extraction,
            || extraction.alphabet.clone(),
            spec_of,
            diagnostics,
        ),
        spec: ClassSpec::clone(&extraction.spec),
        claims: extraction.claims.clone(),
    }
}

/// The resolved kind of an extracted class; a composite's alphabet is
/// `alphabet()` completed with the markers and subsystem events.
fn resolve_kind<'s>(
    extraction: &ClassExtraction,
    alphabet: impl FnOnce() -> Alphabet,
    spec_of: impl Fn(&str) -> Option<&'s ClassSpec>,
    diagnostics: &mut Diagnostics,
) -> SystemKind {
    let ClassExtraction {
        name,
        kind,
        spec,
        methods,
        declared_fields,
        init_classes,
        ..
    } = extraction;
    match kind {
        // Unconstrained classes were filtered out during extraction.
        ClassKind::Base | ClassKind::Unconstrained => {
            // Base classes speak their own (unqualified) operations.
            SystemKind::Base
        }
        ClassKind::Composite(_) => {
            let mut subsystems = Vec::new();
            let mut sub_specs: BTreeMap<String, &ClassSpec> = BTreeMap::new();
            for field in declared_fields {
                let Some(class_name) = init_classes.get(field) else {
                    diagnostics.push(Diagnostic::error(
                        codes::UNKNOWN_SUBSYSTEM,
                        format!(
                            "subsystem field `{field}` of `{name}` is never \
                             assigned `self.{field} = SomeClass()` in \
                             `__init__`"
                        ),
                    ));
                    continue;
                };
                let Some(sub_spec) = spec_of(class_name) else {
                    diagnostics.push(Diagnostic::error(
                        codes::UNKNOWN_SUBSYSTEM,
                        format!(
                            "subsystem `{field}` of `{name}` is an instance \
                             of `{class_name}`, which is not a `@sys` class \
                             in this module"
                        ),
                    ));
                    continue;
                };
                subsystems.push(Subsystem {
                    field: field.clone(),
                    class_name: class_name.clone(),
                });
                sub_specs.insert(field.clone(), sub_spec);
            }

            // Invocation analysis (step 3).
            for (op_name, lowered) in methods.iter() {
                check_invocations(op_name, lowered, &sub_specs, diagnostics);
            }

            // Complete the alphabet: markers + all subsystem events.
            let mut alphabet = alphabet();
            let mut markers = BTreeSet::new();
            for op in &spec.operations {
                markers.insert(alphabet.intern(&op.name));
            }
            for sub in &subsystems {
                if let Some(sub_spec) = spec_of(&sub.class_name) {
                    intern_spec_events(sub_spec, Some(&sub.field), &mut alphabet);
                }
            }
            SystemKind::Composite(CompositeInfo {
                subsystems,
                methods: methods.clone(),
                alphabet: Arc::new(alphabet),
                markers,
            })
        }
    }
}

/// Builds every `@sys` system of `module`, reporting structural problems.
///
/// Sequential composition of the per-class stages: [`extract_class`] for
/// every class, [`validate_spec`] for every extracted spec, then
/// [`resolve_class`] against the full spec index — the same stages
/// [`crate::workspace::Workspace`] caches and runs in parallel.
pub fn build_systems(module: &Module) -> (SystemSet, Diagnostics) {
    let mut diagnostics = Diagnostics::new();
    let mut extractions: Vec<ClassExtraction> = Vec::new();
    for class in module.classes() {
        if let Some(extraction) = extract_class(class, &mut diagnostics) {
            extractions.push(extraction);
        }
    }

    let spec_index: BTreeMap<String, ClassSpec> = extractions
        .iter()
        .map(|e| (e.name.clone(), e.spec().clone()))
        .collect();
    for extraction in &extractions {
        validate_spec(&extraction.spec, &mut diagnostics);
    }

    let systems = extractions
        .into_iter()
        .map(|e| resolve_class(e, &spec_index, &mut diagnostics))
        .collect();
    (systems, diagnostics)
}

/// Structural validation of a specification: initial operations exist, next
/// references resolve, operations are reachable, and no reachable state is
/// stuck away from every final operation.
pub fn validate_spec(spec: &ClassSpec, diagnostics: &mut Diagnostics) {
    if spec.operations.is_empty() {
        diagnostics.push(Diagnostic::warning(
            codes::UNREACHABLE_OPERATION,
            format!("`@sys` class `{}` declares no operations", spec.name),
        ));
        return;
    }
    if spec.initial_ops().next().is_none() {
        diagnostics.push(Diagnostic::error(
            codes::NO_INITIAL_OPERATION,
            format!(
                "class `{}` has no `@op_initial` (or `@op_initial_final`) \
                 operation; no method may ever be invoked",
                spec.name
            ),
        ));
    }
    // Undefined next-operations.
    for op in &spec.operations {
        for exit in &op.exits {
            for next in &exit.next {
                if spec.operation(next).is_none() {
                    diagnostics.push(
                        Diagnostic::error(
                            codes::UNDEFINED_NEXT_OPERATION,
                            format!(
                                "operation `{}` of `{}` returns `\"{}\"`, which \
                                 is not an operation of the class",
                                op.name, spec.name, next
                            ),
                        )
                        .with_span(exit.span.unwrap_or_default()),
                    );
                }
            }
        }
    }
    // Reachability over the spec's exit graph; the automaton and its
    // alphabet are built only for the witness of a W004.
    let graph = ExitGraph::new(spec);
    let fwd = graph.reachable();
    let mut reachable_ops = vec![false; spec.operations.len()];
    for q in (0..fwd.len()).filter(|&q| fwd[q]) {
        if let Some((oi, _)) = graph.exit_at(q) {
            reachable_ops[oi] = true;
        }
    }
    for (oi, op) in spec.operations.iter().enumerate() {
        if !reachable_ops[oi] && !op.exits.is_empty() {
            let initial: Vec<&str> = spec.initial_ops().map(|o| o.name.as_str()).collect();
            let reachable: Vec<&str> = spec
                .operations
                .iter()
                .enumerate()
                .filter(|&(i, _)| reachable_ops[i])
                .map(|(_, o)| o.name.as_str())
                .collect();
            diagnostics.push(
                Diagnostic::warning(
                    codes::UNREACHABLE_OPERATION,
                    format!(
                        "operation `{}` of `{}` is unreachable from the \
                         initial operations",
                        op.name, spec.name
                    ),
                )
                .with_note(format!(
                    "initial operations: {}; operations reachable from them: \
                     {} — no next-operation chain names `{}`",
                    render_list(&initial),
                    render_list(&reachable),
                    op.name
                ))
                .with_span(op.span.unwrap_or_default()),
            );
        }
    }
    // Backward reachability from accepting states: reachable-but-stuck
    // exits can never complete the object's lifetime.
    let live = graph.coreachable();
    let mut automaton: Option<SpecAutomaton> = None;
    for q in 0..fwd.len() {
        if fwd[q] && !live[q] {
            if let Some((oi, ei)) = graph.exit_at(q) {
                let op = &spec.operations[oi];
                let mut d = Diagnostic::warning(
                    codes::NO_FINAL_REACHABLE,
                    format!(
                        "after exit {ei} of operation `{}` of `{}`, no \
                         final operation is reachable (the object gets \
                         stuck)",
                        op.name, spec.name
                    ),
                )
                .with_span(op.exits[ei].span.unwrap_or_default());
                let auto = automaton.get_or_insert_with(|| {
                    let mut alphabet = Alphabet::new();
                    intern_spec_events(spec, None, &mut alphabet);
                    spec_automaton(spec, None, Arc::new(alphabet))
                });
                let nfa = auto.nfa();
                if let Some(witness) = shortest_trace(nfa, nfa.alphabet(), auto.start(), q) {
                    let trace = if witness.is_empty() {
                        "<empty>".to_owned()
                    } else {
                        witness.join(", ")
                    };
                    d = d.with_note(format!("shortest trace to the stuck state: {trace}"));
                }
                diagnostics.push(d);
            }
        }
    }
}

/// Renders a name list for a note (`` `a`, `b` `` or `<none>`).
fn render_list(names: &[&str]) -> String {
    if names.is_empty() {
        return "<none>".to_owned();
    }
    names
        .iter()
        .map(|n| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The shortest event sequence leading `from → to` in `nfa` (0–1 BFS:
/// ε-edges are free, symbol edges cost one event), or `None` if
/// unreachable. Used to decorate reachability warnings with a concrete
/// witness the user can replay against the spec.
fn shortest_trace(
    nfa: &Nfa,
    alphabet: &Alphabet,
    from: StateId,
    to: StateId,
) -> Option<Vec<String>> {
    let n = nfa.num_states();
    let mut dist = vec![usize::MAX; n];
    let mut parent: Vec<Option<(StateId, Option<Symbol>)>> = vec![None; n];
    let mut queue = VecDeque::new();
    dist[from] = 0;
    queue.push_back(from);
    while let Some(q) = queue.pop_front() {
        for &(label, dst) in nfa.edges_from(q) {
            let (weight, sym) = match label {
                Label::Eps => (0, None),
                Label::Sym(s) => (1, Some(s)),
            };
            if dist[q].saturating_add(weight) < dist[dst] {
                dist[dst] = dist[q] + weight;
                parent[dst] = Some((q, sym));
                if weight == 0 {
                    queue.push_front(dst);
                } else {
                    queue.push_back(dst);
                }
            }
        }
    }
    if dist[to] == usize::MAX {
        return None;
    }
    let mut events = Vec::new();
    let mut cur = to;
    while cur != from {
        let (prev, sym) = parent[cur]?;
        if let Some(s) = sym {
            events.push(alphabet.name(s).to_owned());
        }
        cur = prev;
    }
    events.reverse();
    Some(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use micropython_parser::parse_module;

    const VALVE: &str = r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
"#;

    #[test]
    fn builds_valve_base_system() {
        let m = parse_module(VALVE).unwrap();
        let (systems, diags) = build_systems(&m);
        assert!(!diags.has_errors(), "{:?}", diags);
        let valve = systems.get("Valve").unwrap();
        assert!(!valve.is_composite());
        assert_eq!(valve.spec.operations.len(), 4);
        let test = valve.spec.operation("test").unwrap();
        assert_eq!(test.exits.len(), 2);
        assert_eq!(test.exits[0].next, vec!["open"]);
        assert_eq!(test.exits[1].next, vec!["clean"]);
        assert!(test.kind.is_initial());
        assert!(valve.spec.operation("close").unwrap().kind.is_final());
    }

    #[test]
    fn builds_composite_with_subsystems() {
        let src = format!(
            "{VALVE}\n\n@sys([\"a\", \"b\"])\nclass Sector:\n    def __init__(self):\n        self.a = Valve()\n        self.b = Valve()\n\n    @op_initial_final\n    def run(self):\n        match self.a.test():\n            case [\"open\"]:\n                self.a.open()\n                self.a.close()\n                return []\n            case [\"clean\"]:\n                self.a.clean()\n                return []\n"
        );
        let m = parse_module(&src).unwrap();
        let (systems, diags) = build_systems(&m);
        assert!(!diags.has_errors(), "{:?}", diags);
        let sector = systems.get("Sector").unwrap();
        let info = sector.composite().unwrap();
        assert_eq!(info.subsystems.len(), 2);
        assert_eq!(info.subsystems[0].class_name, "Valve");
        // Alphabet has markers + qualified events.
        assert!(info.alphabet.lookup("run").is_some());
        assert!(info.alphabet.lookup("a.test").is_some());
        assert!(info.alphabet.lookup("b.clean").is_some());
        assert_eq!(info.markers.len(), 1);
    }

    #[test]
    fn missing_subsystem_field_reported() {
        let src = "@sys([\"a\"])\nclass S:\n    def __init__(self):\n        pass\n\n    @op_initial_final\n    def go(self):\n        return []\n";
        let m = parse_module(src).unwrap();
        let (_, diags) = build_systems(&m);
        assert_eq!(diags.by_code(codes::UNKNOWN_SUBSYSTEM).count(), 1);
    }

    #[test]
    fn unknown_subsystem_class_reported() {
        let src = "@sys([\"a\"])\nclass S:\n    def __init__(self):\n        self.a = Mystery()\n\n    @op_initial_final\n    def go(self):\n        return []\n";
        let m = parse_module(src).unwrap();
        let (_, diags) = build_systems(&m);
        assert_eq!(diags.by_code(codes::UNKNOWN_SUBSYSTEM).count(), 1);
    }

    #[test]
    fn no_initial_reported() {
        let src = "@sys\nclass V:\n    @op\n    def a(self):\n        return []\n";
        let m = parse_module(src).unwrap();
        let (_, diags) = build_systems(&m);
        assert_eq!(diags.by_code(codes::NO_INITIAL_OPERATION).count(), 1);
    }

    #[test]
    fn undefined_next_operation_reported() {
        let src =
            "@sys\nclass V:\n    @op_initial_final\n    def a(self):\n        return [\"launch\"]\n";
        let m = parse_module(src).unwrap();
        let (_, diags) = build_systems(&m);
        assert_eq!(diags.by_code(codes::UNDEFINED_NEXT_OPERATION).count(), 1);
    }

    #[test]
    fn unreachable_operation_warned() {
        let src = "@sys\nclass V:\n    @op_initial_final\n    def a(self):\n        return []\n\n    @op_final\n    def zombie(self):\n        return []\n";
        let m = parse_module(src).unwrap();
        let (_, diags) = build_systems(&m);
        assert_eq!(diags.by_code(codes::UNREACHABLE_OPERATION).count(), 1);
        let d = diags.by_code(codes::UNREACHABLE_OPERATION).next().unwrap();
        assert!(
            d.notes
                .iter()
                .any(|n| n.contains("initial operations: `a`")),
            "{:?}",
            d.notes
        );
    }

    #[test]
    fn stuck_exit_warned() {
        // b returns [] but is not final: using it strands the object.
        let src = "@sys\nclass V:\n    @op_initial\n    def a(self):\n        return [\"b\"]\n\n    @op\n    def b(self):\n        return []\n";
        let m = parse_module(src).unwrap();
        let (_, diags) = build_systems(&m);
        assert!(diags.by_code(codes::NO_FINAL_REACHABLE).count() >= 1);
        // Every stuck-state warning carries a concrete replayable witness,
        // and the one for `b`'s exit walks `a` then `b`.
        let notes: Vec<&String> = diags
            .by_code(codes::NO_FINAL_REACHABLE)
            .flat_map(|d| d.notes.iter())
            .collect();
        assert!(
            notes
                .iter()
                .all(|n| n.contains("shortest trace to the stuck state:")),
            "{notes:?}"
        );
        assert!(
            notes
                .iter()
                .any(|n| n.contains("shortest trace to the stuck state: a, b")),
            "{notes:?}"
        );
    }

    #[test]
    fn implicit_return_warned() {
        let src = "@sys\nclass V:\n    @op_initial_final\n    def a(self):\n        if x:\n            return []\n";
        let m = parse_module(src).unwrap();
        let (systems, diags) = build_systems(&m);
        assert_eq!(diags.by_code(codes::IMPLICIT_RETURN).count(), 1);
        // The implicit exit materializes in the spec.
        let v = systems.get("V").unwrap();
        assert_eq!(v.spec.operation("a").unwrap().exits.len(), 2);
        assert!(v.spec.operation("a").unwrap().exits[1].implicit);
    }

    #[test]
    fn name_map_keeps_the_last_value_in_name_order() {
        let map: NameMap<u32> = [("b", 1), ("a", 2), ("c", 3), ("b", 4), ("a", 5)]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            [("a", &5), ("b", &4), ("c", &3)]
        );
        assert_eq!(map.get("b"), Some(&4));
        assert_eq!(map.get("d"), None);
        assert_eq!(map.get(""), None);
        let empty = NameMap::<u32>::default();
        assert_eq!(empty.get("a"), None);
        assert_eq!(empty.iter().len(), 0);
    }

    #[test]
    fn redefined_operation_binds_its_last_definition() {
        let src = format!(
            "{VALVE}\n\n@sys([\"v\"])\nclass User:\n    def __init__(self):\n        self.v = Mystery()\n        self.v = Valve()\n\n    @op_initial_final\n    def run(self):\n        self.v.test()\n        return []\n\n    @op_initial_final\n    def idle(self):\n        return []\n\n    @op_initial_final\n    def run(self):\n        self.v.test()\n        self.v.clean()\n        return []\n"
        );
        let m = parse_module(&src).unwrap();
        let (systems, _) = build_systems(&m);
        let user = systems.get("User").unwrap();
        let info = user.composite().unwrap();
        // The class's last `run`, with both calls, in name order after
        // `idle`; `run` is listed once.
        let names: Vec<&str> = info.methods.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["idle", "run"]);
        assert_eq!(info.methods.get("run").unwrap().calls.len(), 2);
        assert!(info.methods.get("__init__").is_none());
        // The field's last assignment names its class.
        assert_eq!(info.subsystems[0].class_name, "Valve");
    }

    #[test]
    fn unconstrained_classes_are_ignored() {
        let src = "class Helper:\n    def go(self):\n        return 1\n";
        let m = parse_module(src).unwrap();
        let (systems, diags) = build_systems(&m);
        assert!(systems.is_empty());
        assert!(diags.is_empty());
    }

    #[test]
    fn hierarchical_composites_resolve() {
        // A composite whose subsystem is itself a composite.
        let src = format!(
            "{VALVE}\n\n@sys([\"v\"])\nclass Sector:\n    def __init__(self):\n        self.v = Valve()\n\n    @op_initial_final\n    def cycle(self):\n        match self.v.test():\n            case [\"open\"]:\n                self.v.open()\n                self.v.close()\n                return []\n            case [\"clean\"]:\n                self.v.clean()\n                return []\n\n@sys([\"s\"])\nclass Controller:\n    def __init__(self):\n        self.s = Sector()\n\n    @op_initial_final\n    def tick(self):\n        self.s.cycle()\n        return []\n"
        );
        let m = parse_module(&src).unwrap();
        let (systems, diags) = build_systems(&m);
        assert!(!diags.has_errors(), "{:?}", diags);
        let ctl = systems.get("Controller").unwrap();
        let info = ctl.composite().unwrap();
        assert_eq!(info.subsystems[0].class_name, "Sector");
        assert!(info.alphabet.lookup("s.cycle").is_some());
    }
}
