//! Differential property suite: the typestate dataflow analysis never
//! contradicts full product-construction verification.
//!
//! Mirrors the engine-vs-engine pinning pattern of `prop_core.rs`: random
//! dependency protocols and random composite bodies (straight-line calls,
//! branches, helper self-calls, loops, `with` and `try` blocks holding
//! calls and early `return []`s, `break`s nested in them, and branches
//! that `raise` before a call), with the
//! analysis verdict held against [`verify_system`] run *without* the fast
//! path:
//!
//! * **No false definite violations** — an `E009` finding implies the
//!   full check rejects the class too.
//! * **Fast-path skips are sound** — a field the analysis proves
//!   conforming passes the full projected-subset check.
//! * The lint layer and the raw report agree on which codes fire.
//!
//! A second generator draws long chain protocols whose DFA has more than
//! 64 states, so the analysis's bitset rows span several words.

use proptest::prelude::*;
use shelley_core::analyze_class;
use shelley_core::annotations::OpKind;
use shelley_core::pipeline::verify_system;
use shelley_core::spec::{intern_spec_events, spec_automaton, ClassSpec, ExitSpec, OperationSpec};
use shelley_core::system::build_systems;
use shelley_regular::Alphabet;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// A random, structurally sane spec, as in `prop_core.rs`: `n` operations
/// with next-sets over defined operations; op 0 initial, last op final.
fn arb_spec() -> impl Strategy<Value = ClassSpec> {
    (2usize..6)
        .prop_flat_map(|n| {
            let exits = proptest::collection::vec(proptest::collection::vec(0..n, 0..3), n);
            (Just(n), exits)
        })
        .prop_map(|(n, exit_targets)| spec_of(n, &exit_targets))
}

/// A chain protocol `op0 → op1 → … → op{n-1}` of 65 to 79 operations,
/// each also allowed to jump to random others. Every operation is
/// reachable and has one exit, so the DFA has `n + 2` states (start and
/// sink included): more than 64.
fn arb_long_spec() -> impl Strategy<Value = ClassSpec> {
    (65usize..80)
        .prop_flat_map(|n| {
            let jumps = proptest::collection::vec(proptest::collection::vec(0..n, 0..2), n);
            (Just(n), jumps)
        })
        .prop_map(|(n, mut targets)| {
            for (i, next) in targets.iter_mut().enumerate().take(n - 1) {
                next.push(i + 1);
            }
            spec_of(n, &targets)
        })
}

/// The spec `Gen` of `n` operations where `op{i}` may be followed by
/// `op{t}` for every `t` in `exit_targets[i]`.
fn spec_of(n: usize, exit_targets: &[Vec<usize>]) -> ClassSpec {
    let operations = (0..n)
        .map(|i| {
            let kind = if i == 0 && i == n - 1 {
                OpKind::InitialFinal
            } else if i == 0 {
                OpKind::Initial
            } else if i == n - 1 {
                OpKind::Final
            } else {
                OpKind::Middle
            };
            let next: Vec<String> = exit_targets[i].iter().map(|&t| format!("op{t}")).collect();
            OperationSpec {
                name: format!("op{i}"),
                kind,
                exits: vec![ExitSpec {
                    next,
                    span: None,
                    implicit: false,
                }],
                span: None,
            }
        })
        .collect();
    ClassSpec {
        name: "Gen".into(),
        operations,
    }
}

/// One statement of the generated composite body.
#[derive(Debug, Clone)]
enum Item {
    /// `self.x.op{i}()`
    Call(usize),
    /// `if c: <calls> else: <calls>` — branch divergence.
    Branch(Vec<usize>, Vec<usize>),
    /// `self.aux()` — routes through the interprocedural summary.
    Helper,
    /// `while c: self.x.op{i}()` — exercises the loop back edge.
    Loop(usize),
    /// `with ctx(): <calls>`, then `return []` inside the block when the
    /// flag is set.
    With(Vec<usize>, bool),
    /// `try: <calls>` (then `return []` when the flag is set)
    /// `except Exception: <calls>` `finally: <calls>`.
    Try(Vec<usize>, bool, Vec<usize>, Vec<usize>),
    /// `while c:` whose body leaves through a `break` nested in a `with`
    /// block (or a `try` block when the flag is set), then calls
    /// `self.x.op{i}()` — which the lowering keeps, since it treats the
    /// jump as `skip`.
    LoopBreak(usize, bool),
    /// `if c:` holding calls, a `raise`, and then `self.x.op{i}()` — which
    /// the lowering keeps, since it falls through the `raise`.
    Raise(Vec<usize>, usize),
}

/// A coin flip.
fn flag() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// One statement calling operations drawn from `0..ops` (reduced modulo
/// the spec's operation count when rendered).
fn arb_item(ops: usize) -> impl Strategy<Value = Item> {
    let calls = move || proptest::collection::vec(0..ops, 0..3);
    prop_oneof![
        4 => (0..ops).prop_map(Item::Call),
        2 => (calls(), calls()).prop_map(|(t, e)| Item::Branch(t, e)),
        1 => Just(Item::Helper),
        1 => (0..ops).prop_map(Item::Loop),
        1 => (calls(), flag()).prop_map(|(c, r)| Item::With(c, r)),
        1 => (calls(), flag(), calls(), calls())
            .prop_map(|(b, r, h, f)| Item::Try(b, r, h, f)),
        1 => (0..ops, flag()).prop_map(|(i, t)| Item::LoopBreak(i, t)),
        1 => (calls(), 0..ops).prop_map(|(c, i)| Item::Raise(c, i)),
    ]
}

/// Renders a [`ClassSpec`] back to annotated MicroPython source.
fn render_spec_class(spec: &ClassSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "@sys");
    let _ = writeln!(out, "class {}:", spec.name);
    for op in &spec.operations {
        let dec = match (op.kind.is_initial(), op.kind.is_final()) {
            (true, true) => "@op_initial_final",
            (true, false) => "@op_initial",
            (false, true) => "@op_final",
            (false, false) => "@op",
        };
        let _ = writeln!(out, "    {dec}");
        let _ = writeln!(out, "    def {}(self):", op.name);
        for exit in &op.exits {
            let items: Vec<String> = exit.next.iter().map(|n| format!("\"{n}\"")).collect();
            let _ = writeln!(out, "        return [{}]", items.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the random composite: one `@op_initial_final` body built from
/// `items` plus an undecorated helper making `helper` calls.
fn render_user(n_ops: usize, items: &[Item], helper: &[usize]) -> String {
    let call = |out: &mut String, indent: &str, i: usize| {
        let _ = writeln!(out, "{indent}self.x.op{}()", i % n_ops);
    };
    // A block of calls, `pass` when empty.
    let block = |out: &mut String, indent: &str, calls: &[usize]| {
        if calls.is_empty() {
            let _ = writeln!(out, "{indent}pass");
        }
        for &i in calls {
            call(out, indent, i);
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "@sys([\"x\"])");
    let _ = writeln!(out, "class User:");
    let _ = writeln!(out, "    def __init__(self):");
    let _ = writeln!(out, "        self.x = Gen()");
    let _ = writeln!(out);
    let _ = writeln!(out, "    @op_initial_final");
    let _ = writeln!(out, "    def run(self):");
    if items.is_empty() {
        let _ = writeln!(out, "        pass");
    }
    for item in items {
        match item {
            Item::Call(i) => call(&mut out, "        ", *i),
            Item::Branch(then, orelse) => {
                let _ = writeln!(out, "        if cond:");
                block(&mut out, "            ", then);
                let _ = writeln!(out, "        else:");
                block(&mut out, "            ", orelse);
            }
            Item::Helper => {
                let _ = writeln!(out, "        self.aux()");
            }
            Item::Loop(i) => {
                let _ = writeln!(out, "        while cond:");
                call(&mut out, "            ", *i);
            }
            Item::With(calls, ret) => {
                let _ = writeln!(out, "        with ctx():");
                if *ret {
                    for &i in calls {
                        call(&mut out, "            ", i);
                    }
                    let _ = writeln!(out, "            return []");
                } else {
                    block(&mut out, "            ", calls);
                }
            }
            Item::Try(body, ret, handler, finally) => {
                let _ = writeln!(out, "        try:");
                if *ret {
                    for &i in body {
                        call(&mut out, "            ", i);
                    }
                    let _ = writeln!(out, "            return []");
                } else {
                    block(&mut out, "            ", body);
                }
                let _ = writeln!(out, "        except Exception:");
                block(&mut out, "            ", handler);
                let _ = writeln!(out, "        finally:");
                block(&mut out, "            ", finally);
            }
            Item::LoopBreak(i, in_try) => {
                let _ = writeln!(out, "        while cond:");
                if *in_try {
                    let _ = writeln!(out, "            try:");
                    let _ = writeln!(out, "                break");
                    let _ = writeln!(out, "            finally:");
                    let _ = writeln!(out, "                pass");
                } else {
                    let _ = writeln!(out, "            with ctx():");
                    let _ = writeln!(out, "                break");
                }
                call(&mut out, "            ", *i);
            }
            Item::Raise(calls, i) => {
                let _ = writeln!(out, "        if cond:");
                for &c in calls {
                    call(&mut out, "            ", c);
                }
                let _ = writeln!(out, "            raise ValueError()");
                call(&mut out, "            ", *i);
            }
        }
    }
    let _ = writeln!(out, "        return []");
    let _ = writeln!(out);
    let _ = writeln!(out, "    def aux(self):");
    block(&mut out, "        ", helper);
    out
}

/// The three properties of the module docs on one generated composite.
fn check_against_full_verification(
    spec: &ClassSpec,
    items: &[Item],
    helper: &[usize],
) -> Result<(), TestCaseError> {
    let src = format!(
        "{}\n{}",
        render_spec_class(spec),
        render_user(spec.operations.len(), items, helper)
    );
    let module = micropython_parser::parse_module(&src).expect("generated source parses");
    let (systems, _) = build_systems(&module);
    let Some(user) = systems.get("User") else {
        return Ok(()); // spec failed validation; nothing to compare
    };
    let class = module.class("User").expect("class present");
    let Some(report) = analyze_class(class, user, &systems) else {
        return Ok(());
    };

    // The oracle: full verification with the fast path disabled.
    let verdict = verify_system(user, &systems, &BTreeSet::new());
    let full_check_passes = verdict.usage_violations.is_empty();

    // 1. No definite-violation false positives: E009 implies the full
    //    check also rejects the class.
    let definite = report.findings.iter().any(|f| f.definite);
    if definite {
        prop_assert!(
            !full_check_passes,
            "definite finding on a class full verification accepts:\n{src}\n{:#?}",
            report.findings
        );
    }

    // 2. Fast-path soundness: a proven field passes the full check.
    if report.proven.contains("x") {
        prop_assert!(
            full_check_passes,
            "field `x` proven conforming but full verification rejects:\n{src}"
        );
        prop_assert!(
            report.findings.iter().all(|f| !f.definite),
            "proven field with a definite finding:\n{src}"
        );
    }

    // 3. Every witness trace a definite finding carries is nonempty
    //    prose, never an unrendered placeholder.
    for f in report.findings.iter().filter(|f| f.definite) {
        if let Some(w) = &f.witness {
            prop_assert!(!w.is_empty());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn typestate_never_contradicts_full_verification(
        spec in arb_spec(),
        items in proptest::collection::vec(arb_item(6), 0..6),
        helper in proptest::collection::vec(0usize..6, 0..3),
    ) {
        check_against_full_verification(&spec, &items, &helper)?;
    }

    #[test]
    fn typestate_never_contradicts_full_verification_beyond_64_states(
        spec in arb_long_spec(),
        items in proptest::collection::vec(arb_item(80), 0..8),
        helper in proptest::collection::vec(0usize..80, 0..4),
    ) {
        let mut alphabet = Alphabet::new();
        intern_spec_events(&spec, None, &mut alphabet);
        let dfa = spec_automaton(&spec, None, Arc::new(alphabet)).materialize();
        prop_assert!(dfa.num_states() > 64);
        check_against_full_verification(&spec, &items, &helper)?;
    }
}
