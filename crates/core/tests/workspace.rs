//! The workspace engine's contract: incrementality you can observe in the
//! stats counters, fingerprint invalidation that follows the subsystem
//! graph, and byte-identical reports across cold/incremental/parallel
//! runs.

use proptest::prelude::*;
use shelley_core::annotations::OpKind;
use shelley_core::pipeline::check_module_direct;
use shelley_core::spec::{ClassSpec, ExitSpec, OperationSpec};
use shelley_core::{codes, Checked, Checker, LintConfig, LintLevel, ProjectFile, INPUT_NAME};
use std::fmt::Write as _;

const VALVE_PY: &str = r#"
@sys
class Valve:
    @op_initial
    def test(self):
        if ok:
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]
"#;

const LED_PY: &str = r#"
@sys
class Led:
    @op_initial
    def on(self):
        return ["off"]

    @op_final
    def off(self):
        return ["on"]
"#;

const SECTOR_A_PY: &str = r#"
@sys(["a"])
class SectorA:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def water(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#;

const SECTOR_B_PY: &str = r#"
@sys(["l"])
class SectorB:
    def __init__(self):
        self.l = Led()

    @op_initial_final
    def blink(self):
        self.l.on()
        self.l.off()
        return []
"#;

/// Listings 2.1 + 2.2 of the paper: one base system plus a composite that
/// violates both the subsystem protocol and its temporal claim.
const PAPER_SOURCE: &str = r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.status = Pin(29, IN)

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
        return ["test"]

@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                self.a.close()
                return []
"#;

/// Everything a report can say, rendered to one comparable string.
fn fingerprint_report(checked: &Checked) -> String {
    let mut out = checked.report.render(None);
    out.push_str(&checked.report.diagnostics.render_json(None));
    let names: Vec<&str> = checked.systems.iter().map(|s| s.name.as_str()).collect();
    let _ = writeln!(out, "systems: {names:?}");
    out
}

#[test]
fn counters_prove_incrementality_after_one_class_edit() {
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("led.py", LED_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    ws.set_file("sector_b.py", SECTOR_B_PY);

    // Cold round: everything is a miss.
    let cold = ws.check().unwrap();
    assert!(cold.report.passed(), "{}", cold.report.render(None));
    assert_eq!(ws.last_round().files_parsed, 4);
    assert_eq!(ws.last_round().extracted, 4);
    assert_eq!(ws.last_round().verified, 4);
    assert_eq!(ws.last_round().verify_cache_hits, 0);

    // Unchanged round: everything is a hit.
    ws.check().unwrap();
    assert_eq!(ws.last_round().files_parsed, 0);
    assert_eq!(ws.last_round().parse_cache_hits, 4);
    assert_eq!(ws.last_round().extracted, 0);
    assert_eq!(ws.last_round().extract_cache_hits, 4);
    assert_eq!(ws.last_round().verified, 0);
    assert_eq!(ws.last_round().verify_cache_hits, 4);

    // Cosmetic edit to Valve: its fingerprint changes, so Valve re-runs
    // every stage and SectorA (whose dependency fingerprint includes
    // Valve's) re-verifies — but Led and SectorB stay cached.
    ws.set_file("valve.py", VALVE_PY.replace("if ok:", "if ready:"));
    let warm = ws.check().unwrap();
    assert!(warm.report.passed());
    assert_eq!(ws.last_round().files_parsed, 1);
    assert_eq!(ws.last_round().parse_cache_hits, 3);
    assert_eq!(ws.last_round().extracted, 1);
    assert_eq!(ws.last_round().extract_cache_hits, 3);
    assert_eq!(ws.last_round().verified, 2, "Valve + SectorA re-verified");
    assert_eq!(ws.last_round().verify_cache_hits, 2, "Led + SectorB cached");

    // Lifetime totals accumulate across rounds.
    assert_eq!(ws.stats().rounds, 3);
    assert_eq!(ws.stats().verified, 6);
    assert_eq!(ws.stats().verify_cache_hits, 6);
}

#[test]
fn editing_a_subsystem_invalidates_composites_but_not_grandparents() {
    // a <- b <- c: editing `A` re-verifies A and B (B's dependency
    // fingerprint includes A's class fingerprint), but C depends only on
    // B's *spec*, which is a function of B's unchanged text — so C is a
    // cache hit.
    const A_PY: &str = r#"
@sys
class A:
    @op_initial_final
    def go(self):
        return []
"#;
    const B_PY: &str = r#"
@sys(["a"])
class B:
    def __init__(self):
        self.a = A()

    @op_initial_final
    def run(self):
        self.a.go()
        return []
"#;
    const C_PY: &str = r#"
@sys(["b"])
class C:
    def __init__(self):
        self.b = B()

    @op_initial_final
    def drive(self):
        self.b.run()
        return []
"#;
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("a.py", A_PY);
    ws.set_file("b.py", B_PY);
    ws.set_file("c.py", C_PY);
    let checked = ws.check().unwrap();
    assert!(checked.report.passed(), "{}", checked.report.render(None));

    // A whitespace-only edit would not change the printed AST (the
    // fingerprint ignores formatting), so add a harmless statement.
    ws.set_file(
        "a.py",
        A_PY.replace("        return []", "        x = 1\n        return []"),
    );
    ws.check().unwrap();
    assert_eq!(ws.last_round().extracted, 1, "only A re-extracted");
    assert_eq!(ws.last_round().verified, 2, "A and B re-verified");
    assert_eq!(ws.last_round().verify_cache_hits, 1, "C stays cached");
}

#[test]
fn parallel_and_incremental_match_the_direct_pipeline_on_the_paper_example() {
    let module = micropython_parser::parse_module(PAPER_SOURCE).unwrap();
    let reference = fingerprint_report(&check_module_direct(&module, &LintConfig::default()));

    // Sequential workspace, cold.
    let sequential = Checker::new().jobs(1).check_source(PAPER_SOURCE).unwrap();
    assert_eq!(fingerprint_report(&sequential), reference);

    // Parallel workspace, cold.
    let parallel = Checker::new().jobs(4).check_source(PAPER_SOURCE).unwrap();
    assert_eq!(fingerprint_report(&parallel), reference);

    // Incremental: detour through an edited file, then back.
    let mut ws = Checker::new().jobs(2).into_workspace();
    ws.set_file(INPUT_NAME, PAPER_SOURCE);
    ws.check().unwrap();
    ws.set_file(INPUT_NAME, PAPER_SOURCE.replace("W b.open", "W b.test"));
    ws.check().unwrap();
    ws.set_file(INPUT_NAME, PAPER_SOURCE);
    let incremental = ws.check().unwrap();
    assert_eq!(fingerprint_report(&incremental), reference);
}

#[test]
fn fast_path_counter_tracks_typestate_proven_subsystems() {
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    let checked = ws.check().unwrap();
    assert!(checked.report.passed(), "{}", checked.report.render(None));
    assert_eq!(
        ws.last_round().fast_path_proven,
        1,
        "SectorA's `a` is proven conforming by the typestate analysis"
    );
    assert!(ws.last_round().render().contains("(1 fast-path)"));

    // Cached rounds don't re-verify, so they report no fresh skips; the
    // lifetime total keeps the cold round's count.
    ws.check().unwrap();
    assert_eq!(ws.last_round().fast_path_proven, 0);
    assert_eq!(ws.stats().fast_path_proven, 1);

    // The paper's BadSector must never ride the fast path: its violation
    // still surfaces through the full check.
    ws.set_file(INPUT_NAME, PAPER_SOURCE);
    let checked = ws.check().unwrap();
    assert!(!checked.report.passed());
    assert_eq!(checked.report.usage_violations.len(), 1);
}

#[test]
fn disk_cache_round_trip_restores_verification_byte_identically() {
    let dir = std::env::temp_dir().join(format!("shelley-ws-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("verify.ndjson");

    // Cold process: check a mixed project (passing composites plus the
    // paper's failing BadSector) and persist the verify cache.
    let mut cold_ws = Checker::new().jobs(2).into_workspace();
    cold_ws.set_file("valve.py", VALVE_PY);
    cold_ws.set_file("led.py", LED_PY);
    cold_ws.set_file("sector_a.py", SECTOR_A_PY);
    cold_ws.set_file("sector_b.py", SECTOR_B_PY);
    let paper = PAPER_SOURCE.replace("Valve", "PaperValve");
    cold_ws.set_file("paper.py", paper.clone());
    let cold = cold_ws.check().unwrap();
    assert!(!cold.report.passed(), "BadSector must fail");
    let written = cold_ws.save_disk_cache(&cache).unwrap();
    assert_eq!(written, 6, "one record per live class");

    // "Restarted" process: a fresh workspace with the same sources and
    // the saved cache skips the expensive analyses for every class but
    // still produces a byte-identical report and identical stats.
    let mut warm_ws = Checker::new().jobs(2).into_workspace();
    let outcome = warm_ws.load_disk_cache(&cache);
    assert!(outcome.rejected.is_none(), "{:?}", outcome.rejected);
    assert_eq!(outcome.entries.len(), 6);
    warm_ws.set_file("valve.py", VALVE_PY);
    warm_ws.set_file("led.py", LED_PY);
    warm_ws.set_file("sector_a.py", SECTOR_A_PY);
    warm_ws.set_file("sector_b.py", SECTOR_B_PY);
    warm_ws.set_file("paper.py", paper);
    let warm = warm_ws.check().unwrap();
    assert_eq!(fingerprint_report(&warm), fingerprint_report(&cold));
    assert_eq!(warm_ws.last_round().verify_disk_hits, 6);
    assert_eq!(
        warm_ws.last_round().verified,
        6,
        "disk hits count as verified"
    );
    assert_eq!(
        warm_ws.last_round().fast_path_proven,
        cold_ws.last_round().fast_path_proven,
        "replayed fast-path skips keep the stats line identical"
    );
    // The restart restores every file from its record: nothing is parsed
    // or extracted, and the verify part of the round marker is stable.
    let verify_part = |s: String| {
        let (_, tail) = s.split_once(" classes, ").expect("a round marker");
        tail.rsplit_once(" in ").map(|(head, _)| head.to_owned())
    };
    assert_eq!(
        verify_part(warm_ws.last_round().render()),
        verify_part(cold_ws.last_round().render()),
        "the watch-mode round marker's verify part (minus wall time) is stable across a restart"
    );
    assert!(
        warm_ws
            .last_round()
            .render()
            .starts_with("parsed 0/5 files, extracted 0/6 classes, "),
        "{}",
        warm_ws.last_round().render()
    );

    // An edit after restore falls back to full verification for the
    // touched class only; the disk entries keep serving the rest.
    warm_ws.set_file("valve.py", VALVE_PY.replace("if ok:", "if ready:"));
    let edited = warm_ws.check().unwrap();
    assert!(!edited.report.passed());
    assert_eq!(
        warm_ws.last_round().verify_disk_hits,
        0,
        "Valve+SectorA recomputed"
    );
    assert_eq!(warm_ws.last_round().verified, 2);
    assert_eq!(warm_ws.last_round().verify_cache_hits, 4);
}

#[test]
fn disk_cache_lint_results_do_not_depend_on_the_saving_config() {
    let dir = std::env::temp_dir().join(format!("shelley-ws-lintcfg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("verify.ndjson");
    let source = "@sys\nclass V:\n    @op_initial_final\n    def go(self):\n        return []\n        self.cleanup()\n";

    // A process with `-A W009` checks the class and persists its cache.
    let mut allow = LintConfig::new();
    allow
        .set(codes::UNREACHABLE_STATEMENT, LintLevel::Allow)
        .unwrap();
    let mut saver = Checker::new().lints(allow).jobs(1).into_workspace();
    saver.set_file("v.py", source);
    let allowed = saver.check().unwrap();
    assert_eq!(
        allowed
            .report
            .diagnostics
            .by_code(codes::UNREACHABLE_STATEMENT)
            .count(),
        0
    );
    assert_eq!(saver.save_disk_cache(&cache).unwrap(), 1);

    // A default-config process restoring that cache reports exactly what
    // a cold default-config run does: the W009 the saver allowed included.
    let mut cold_ws = Checker::new().jobs(1).into_workspace();
    cold_ws.set_file("v.py", source);
    let cold = cold_ws.check().unwrap();
    assert_eq!(
        cold.report
            .diagnostics
            .by_code(codes::UNREACHABLE_STATEMENT)
            .count(),
        1
    );
    let mut warm_ws = Checker::new().jobs(1).into_workspace();
    warm_ws.load_disk_cache(&cache);
    warm_ws.set_file("v.py", source);
    let warm = warm_ws.check().unwrap();
    assert_eq!(warm_ws.last_round().verify_disk_hits, 1);
    assert_eq!(fingerprint_report(&warm), fingerprint_report(&cold));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_leaf_edit_shares_every_unchanged_product_with_the_previous_round() {
    let mut ws = Checker::new().jobs(2).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("led.py", LED_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    ws.set_file("sector_b.py", SECTOR_B_PY);
    let first = ws.check().unwrap();

    // SectorB is a leaf: no class depends on it.
    ws.set_file("sector_b.py", SECTOR_B_PY.replace("blink", "flash"));
    let second = ws.check().unwrap();
    assert_eq!(ws.last_round().verified, 1);

    // `SystemSet::get` derefs into the shared allocation, so address
    // equality of the two references is `Arc::ptr_eq` of the systems.
    let same_system = |name: &str| {
        std::ptr::eq(
            first.systems.get(name).unwrap(),
            second.systems.get(name).unwrap(),
        )
    };
    for name in ["Valve", "Led", "SectorA"] {
        assert!(same_system(name), "{name} was copied, not shared");
    }
    assert!(!same_system("SectorB"), "the edited class must be rebuilt");
}

#[test]
fn incremental_indexes_follow_shadowing_renames_and_lost_decorators() {
    // Each step edits the project; the long-lived workspace (whose spec
    // index and class keys are kept incrementally) must agree with a
    // fresh one on the report and on which classes have statistics.
    let shadow = VALVE_PY.replace("return [\"close\"]", "return [\"clean\"]");
    let steps: Vec<(&str, Option<String>)> = vec![
        ("valve2.py", Some(shadow)),
        ("valve2.py", None),
        ("valve.py", Some(VALVE_PY.replace("Valve", "Gate"))),
        ("valve.py", Some(VALVE_PY.to_owned())),
        ("valve.py", Some(VALVE_PY.replace("@sys\n", ""))),
        ("valve.py", Some(VALVE_PY.to_owned())),
        ("sector_a.py", None),
    ];
    let mut files: Vec<(&str, String)> = vec![
        ("valve.py", VALVE_PY.to_owned()),
        ("sector_a.py", SECTOR_A_PY.to_owned()),
    ];
    let mut ws = Checker::new().jobs(2).into_workspace();
    for (name, source) in &files {
        ws.set_file(*name, source.clone());
    }
    ws.check().unwrap();
    for (step, (name, source)) in steps.into_iter().enumerate() {
        match source {
            Some(source) => {
                ws.set_file(name, source.clone());
                match files.iter_mut().find(|(n, _)| *n == name) {
                    Some(file) => file.1 = source,
                    None => files.push((name, source)),
                }
            }
            None => {
                ws.remove_file(name);
                files.retain(|(n, _)| *n != name);
            }
        }
        let mut fresh = Checker::new().jobs(1).into_workspace();
        for (name, source) in &files {
            fresh.set_file(*name, source.clone());
        }
        assert_eq!(
            fingerprint_report(&ws.check().unwrap()),
            fingerprint_report(&fresh.check().unwrap()),
            "step {step}"
        );
        for class in ["Valve", "Gate", "SectorA"] {
            assert_eq!(
                ws.class_stats(class),
                fresh.class_stats(class),
                "step {step}: {class}"
            );
        }
    }
}

#[test]
fn check_source_errors_carry_the_synthetic_input_name() {
    let err = Checker::new().check_source("def broken(:\n").unwrap_err();
    assert_eq!(err.file, INPUT_NAME);
    assert!(err.to_string().starts_with("<input>: "));
}

#[test]
fn removing_a_file_drops_its_classes() {
    let mut ws = Checker::new().into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("led.py", LED_PY);
    assert_eq!(ws.check().unwrap().systems.len(), 2);
    assert!(ws.remove_file("led.py"));
    assert!(!ws.remove_file("led.py"));
    let checked = ws.check().unwrap();
    assert_eq!(checked.systems.len(), 1);
    assert!(checked.systems.get("Valve").is_some());
}

/// A class whose unreachable `x = 1` (`W009`) sits after a comment: the
/// repro for a class key that missed comment edits, which left every span
/// after the comment stale.
fn commented_class(comment: &str) -> String {
    format!(
        "@sys\nclass A:\n    @op_initial_final\n    def run(self):\n        \
         # {comment}\n        return []\n        x = 1\n"
    )
}

/// The text and JSON reports of a single-file round, with positions.
fn positioned(name: &str, source: &str, checked: &Checked) -> String {
    let file = micropython_parser::SourceFile::new(name, source);
    let mut out = checked.report.render(Some(&file));
    out.push_str(&checked.report.diagnostics.render_json(Some(&file)));
    out
}

#[test]
fn class_key_covers_comments_so_spans_after_them_stay_exact() {
    let (before, after) = (
        commented_class("c"),
        commented_class("a much longer comment here"),
    );
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("x.py", before.clone());
    let first = ws.check().unwrap();
    assert!(positioned("x.py", &before, &first).contains("x.py:7:9: warning [W009]"));

    ws.set_file("x.py", after.clone());
    let incremental = ws.check().unwrap();
    let cold = Checker::new()
        .jobs(1)
        .check_files(&[ProjectFile::new("x.py", after.clone())])
        .unwrap();
    assert_eq!(
        positioned("x.py", &after, &incremental),
        positioned("x.py", &after, &cold)
    );
    assert!(positioned("x.py", &after, &cold).contains("x.py:7:9: warning [W009]"));
    assert_eq!(ws.last_round().extracted, 1, "the comment edit re-keys A");
}

#[test]
fn class_key_covers_comments_across_a_disk_cache_restart() {
    let dir = std::env::temp_dir().join(format!("shelley-ws-comment-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("verify.ndjson");
    let (before, after) = (
        commented_class("c"),
        commented_class("a much longer comment here"),
    );

    let mut saving = Checker::new().jobs(1).into_workspace();
    saving.set_file("x.py", before);
    saving.check().unwrap();
    assert_eq!(saving.save_disk_cache(&cache).unwrap(), 1);

    let mut restarted = Checker::new().jobs(1).into_workspace();
    assert!(restarted.load_disk_cache(&cache).rejected.is_none());
    restarted.set_file("x.py", after.clone());
    let restored = restarted.check().unwrap();
    let cold = Checker::new()
        .jobs(1)
        .check_files(&[ProjectFile::new("x.py", after.clone())])
        .unwrap();
    assert_eq!(
        positioned("x.py", &after, &restored),
        positioned("x.py", &after, &cold)
    );
    assert_eq!(
        restarted.last_round().verify_disk_hits,
        0,
        "the edited class misses the saved record"
    );
}

#[test]
fn class_key_covers_decorators_but_not_text_after_the_class() {
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.check().unwrap();

    // A comment between the decorator and `class` is inside the span.
    ws.set_file("valve.py", VALVE_PY.replace("@sys\n", "@sys  # base\n"));
    ws.check().unwrap();
    assert_eq!(ws.last_round().extracted, 1);
    assert_eq!(ws.last_round().verified, 1);

    // Text after the last body statement is not.
    let trailing = VALVE_PY.replace("@sys\n", "@sys  # base\n") + "\n# the end\nlimit = 3\n";
    ws.set_file("valve.py", trailing);
    ws.check().unwrap();
    assert_eq!(ws.last_round().files_parsed, 1);
    assert_eq!(ws.last_round().extracted, 0);
    assert_eq!(ws.last_round().extract_cache_hits, 1);
    assert_eq!(ws.last_round().verified, 0);
}

#[test]
fn class_stats_are_cached_per_fingerprint() {
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    assert!(ws.class_stats("Valve").is_none(), "no round has run yet");
    ws.check().unwrap();

    let first = ws.class_stats("SectorA").unwrap();
    assert!(first.composite);
    assert_eq!(ws.stats().stats_computed, 1);
    assert_eq!(ws.stats().stats_cache_hits, 0);

    // Repeat queries and an unchanged re-check hit the cache.
    let again = ws.class_stats("SectorA").unwrap();
    assert_eq!(*first, *again);
    ws.check().unwrap();
    ws.class_stats("SectorA").unwrap();
    assert_eq!(ws.stats().stats_computed, 1);
    assert_eq!(ws.stats().stats_cache_hits, 2);

    // Editing the subsystem changes SectorA's dependency fingerprint, so
    // its stats are recomputed; unknown names stay None.
    ws.set_file(
        "valve.py",
        VALVE_PY.replace("\"close\"", "\"close\", \"clean\""),
    );
    ws.check().unwrap();
    ws.class_stats("SectorA").unwrap();
    assert_eq!(ws.stats().stats_computed, 2);
    assert!(ws.class_stats("NoSuchClass").is_none());

    // The cached value matches a fresh computation.
    let direct = shelley_core::system_stats(ws.check().unwrap().systems.get("Valve").unwrap());
    assert_eq!(*ws.class_stats("Valve").unwrap(), direct);
}

#[test]
fn check_files_matches_per_file_workspace_rounds() {
    let files = [
        ProjectFile::new("valve.py", VALVE_PY),
        ProjectFile::new("sector_a.py", SECTOR_A_PY),
    ];
    let one_shot = Checker::new().jobs(1).check_files(&files).unwrap();
    let mut ws = Checker::new().jobs(3).into_workspace();
    for f in &files {
        ws.set_file(f.name.clone(), f.source.clone());
    }
    let incremental = ws.check().unwrap();
    assert_eq!(
        fingerprint_report(&incremental),
        fingerprint_report(&one_shot)
    );
}

/// A random, structurally sane spec: `n` operations, each with one exit
/// whose next-set references defined operations; op 0 is initial, the
/// last op is final.
fn arb_spec(class: &'static str) -> impl Strategy<Value = ClassSpec> {
    (2usize..6)
        .prop_flat_map(|n| {
            let exits = proptest::collection::vec(proptest::collection::vec(0..n, 0..3), n);
            (Just(n), exits)
        })
        .prop_map(move |(n, exit_targets)| {
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
                    let next: Vec<String> =
                        exit_targets[i].iter().map(|&t| format!("op{t}")).collect();
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
                name: class.into(),
                operations,
            }
        })
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

/// A composite exercising the first operation chain of `dep`.
fn render_user_class(dep: &ClassSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "@sys([\"x\"])");
    let _ = writeln!(out, "class User:");
    let _ = writeln!(out, "    def __init__(self):");
    let _ = writeln!(out, "        self.x = {}()", dep.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "    @op_initial_final");
    let _ = writeln!(out, "    def run(self):");
    let _ = writeln!(out, "        self.x.{}()", dep.operations[0].name);
    let _ = writeln!(out, "        return []");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Editing one file of a two-file project and re-checking produces
    /// byte-identical output to checking the edited project from scratch —
    /// whatever the generated protocols are, and whether or not the edit
    /// introduces violations.
    #[test]
    fn incremental_recheck_equals_from_scratch(
        before in arb_spec("Gen"),
        after in arb_spec("Gen"),
    ) {
        let user = render_user_class(&before);
        let mut ws = Checker::new().jobs(1).into_workspace();
        ws.set_file("gen.py", render_spec_class(&before));
        ws.set_file("user.py", user.clone());
        ws.check().unwrap();

        // Edit the subsystem file, re-check incrementally.
        ws.set_file("gen.py", render_spec_class(&after));
        let incremental = ws.check().unwrap();

        // From scratch, same final file set.
        let scratch = Checker::new().jobs(1).check_files(&[
            ProjectFile::new("gen.py", render_spec_class(&after)),
            ProjectFile::new("user.py", user),
        ]).unwrap();

        prop_assert_eq!(
            fingerprint_report(&incremental),
            fingerprint_report(&scratch)
        );
    }

    /// The workspace's file-name index stays in step with its file list:
    /// any sequence of adds, replacements, removals and re-adds leaves the
    /// same project order and sources as a plain `Vec` model.
    #[test]
    fn file_index_follows_a_vec_model(
        ops in proptest::collection::vec((0usize..6, 0u8..3, 0u8..4), 0..40),
    ) {
        let mut ws = Checker::new().into_workspace();
        let mut model: Vec<(String, String)> = Vec::new();
        for (file, op, text) in ops {
            let name = format!("f{file}.py");
            let present = model.iter().position(|(n, _)| *n == name);
            if op == 0 {
                prop_assert_eq!(ws.remove_file(&name), present.is_some());
                if let Some(i) = present {
                    model.remove(i);
                }
            } else {
                let source = format!("x = {text}\n");
                match present {
                    Some(i) => model[i].1 = source.clone(),
                    None => model.push((name.clone(), source.clone())),
                }
                ws.set_file(name, source);
            }
            let names: Vec<&str> = ws.file_names().collect();
            let expected: Vec<&str> = model.iter().map(|(n, _)| n.as_str()).collect();
            prop_assert_eq!(names, expected);
            for file in 0..6 {
                let name = format!("f{file}.py");
                let expected = model.iter().find(|(n, _)| *n == name).map(|(_, s)| s.as_str());
                prop_assert_eq!(ws.source(&name), expected);
            }
        }
    }

    /// Job-count never changes the output: a parallel check of a random
    /// single-module project is byte-identical to the sequential direct
    /// pipeline on the same source.
    #[test]
    fn parallel_check_equals_direct_pipeline(spec in arb_spec("Gen")) {
        let src = format!("{}\n{}", render_spec_class(&spec), render_user_class(&spec));
        let module = micropython_parser::parse_module(&src).unwrap();
        let reference = fingerprint_report(&check_module_direct(&module, &LintConfig::default()));
        let parallel = Checker::new().jobs(4).check_source(&src).unwrap();
        prop_assert_eq!(fingerprint_report(&parallel), reference);
    }
}
