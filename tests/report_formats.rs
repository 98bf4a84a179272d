//! Snapshot tests of the user-facing report formats: the paper's two
//! error texts byte-for-byte, and golden files for the JSON and SARIF
//! renderers.
//!
//! Regenerate the goldens after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test --test report_formats`.

use shelley::core::Checker;
use shelley::micropython::SourceFile;
use std::path::Path;

/// Listings 2.1 + 2.2 of the paper (the `clean` pin renamed `clean_pin`).
const PAPER: &str = r#"@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.clean_pin = Pin(28, OUT)
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
        self.clean_pin.on()
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

#[test]
fn invalid_subsystem_usage_text_matches_the_paper() {
    let checked = Checker::new().check_source(PAPER).unwrap();
    let (_, v) = &checked.report.usage_violations[0];
    assert_eq!(
        v.render(),
        "Error in specification: INVALID SUBSYSTEM USAGE\n\
         Counter example: open_a, a.test, a.open\n\
         Subsystems errors:\n\
         \x20 * Valve 'a': test, >open< (not final)\n"
    );
}

#[test]
fn fail_to_meet_requirement_text_matches_the_paper() {
    let checked = Checker::new().check_source(PAPER).unwrap();
    let (_, v) = &checked.report.claim_violations[0];
    assert_eq!(v.formula, "(!a.open) W b.open");
    assert!(v.render().starts_with(
        "Error in specification: FAIL TO MEET REQUIREMENT\n\
         Formula: (!a.open) W b.open\n\
         Counter example: "
    ));
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{} drifted; rerun with UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn json_report_matches_golden() {
    let file = SourceFile::new("paper.py".to_owned(), PAPER.to_owned());
    let checked = Checker::new().check_source(PAPER).unwrap();
    let json = checked.report.diagnostics.render_json(Some(&file));
    check_golden("paper.json", &json);
}

#[test]
fn sarif_report_matches_golden() {
    let file = SourceFile::new("paper.py".to_owned(), PAPER.to_owned());
    let checked = Checker::new().check_source(PAPER).unwrap();
    let sarif = checked.report.diagnostics.render_sarif(Some(&file));
    // The acceptance shape: an E100 result whose message carries the
    // paper's counterexample.
    assert!(sarif.contains("\"ruleId\": \"E100\""));
    assert!(sarif.contains("open_a, a.test, a.open"));
    check_golden("paper.sarif", &sarif);
}

/// A fixture exercising the typestate-analysis codes: `DoubleOpen` opens
/// its valve twice (`E009` definite violation with a shortest trace),
/// `Flicker` only tests the valve on some paths (`W012` possible
/// violation), and neither ever runs `clean` (`W013` dead operation).
const TYPESTATE: &str = r#"@sys
class Valve:
    @op_initial
    def test(self):
        return ["open", "clean"]

    @op
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]

@sys(["a"])
class DoubleOpen:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def run(self):
        self.a.test()
        self.a.open()
        self.a.open()
        self.a.close()
        return []

@sys(["v"])
class Flicker:
    def __init__(self):
        self.v = Valve()

    @op_initial_final
    def blink(self):
        if day:
            self.v.test()
        self.v.open()
        self.v.close()
        return []
"#;

#[test]
fn typestate_text_report_matches_golden() {
    let file = SourceFile::new("typestate.py".to_owned(), TYPESTATE.to_owned());
    let checked = Checker::new().check_source(TYPESTATE).unwrap();
    let text = checked.report.render(Some(&file));
    for code in ["E009", "W012", "W013"] {
        assert!(text.contains(code), "missing {code} in:\n{text}");
    }
    assert!(text.contains("shortest violating trace: test, open, open"));
    check_golden("typestate.txt", &text);
}

#[test]
fn typestate_json_report_matches_golden() {
    let file = SourceFile::new("typestate.py".to_owned(), TYPESTATE.to_owned());
    let checked = Checker::new().check_source(TYPESTATE).unwrap();
    let json = checked.report.diagnostics.render_json(Some(&file));
    for code in ["E009", "W012", "W013"] {
        assert!(json.contains(code), "missing {code} in:\n{json}");
    }
    check_golden("typestate.json", &json);
}

#[test]
fn typestate_sarif_report_matches_golden() {
    let file = SourceFile::new("typestate.py".to_owned(), TYPESTATE.to_owned());
    let checked = Checker::new().check_source(TYPESTATE).unwrap();
    let sarif = checked.report.diagnostics.render_sarif(Some(&file));
    for rule in [
        "\"ruleId\": \"E009\"",
        "\"ruleId\": \"W012\"",
        "\"ruleId\": \"W013\"",
    ] {
        assert!(sarif.contains(rule), "missing {rule} in:\n{sarif}");
    }
    check_golden("typestate.sarif", &sarif);
}

/// The valve and user shared by the `with`/`try` soundness repros: a
/// `Valve` must be closed after it is opened, and `User.run` opens it.
const WITH_TRY_HEADER: &str = r#"@sys
class Valve:
    @op_initial
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["open"]


@sys(["v"])
class User:
    def __init__(self):
        self.v = Valve()

    @op_initial_final
    def run(self):
        self.v.open()
"#;

/// `run` bodies after `self.v.open()` that leave the valve open through
/// a `return` or a `break` nested in a `with` or `try` block. The
/// typestate fast path must not prove `v`: each one is E100 with the
/// counterexample `run, v.open`.
const WITH_TRY_REPROS: [(&str, &str); 5] = [
    ("with_return", "        with ctx():\n            return []\n"),
    (
        "try_return",
        "        try:\n            return []\n        finally:\n            pass\n",
    ),
    (
        "finally_return",
        "        try:\n            pass\n        finally:\n            return []\n",
    ),
    (
        "try_except_return",
        "        try:\n            return []\n        except Exception:\n            return []\n",
    ),
    (
        "with_break",
        "        while retry:\n            with ctx():\n                break\n            self.v.open()\n        return []\n",
    ),
];

#[test]
fn typestate_soundness_with_try_repros_match_goldens() {
    for (name, body) in WITH_TRY_REPROS {
        // `with_break` opens the valve inside its loop only.
        let header = match name {
            "with_break" => WITH_TRY_HEADER.trim_end_matches("        self.v.open()\n"),
            _ => WITH_TRY_HEADER,
        };
        let source = format!("{header}{body}");
        let file = SourceFile::new(format!("{name}.py"), source.clone());
        let checked = Checker::new().check_source(&source).unwrap();
        assert!(!checked.report.passed(), "{name} passed:\n{source}");
        let text = checked.report.render(Some(&file));
        assert!(
            text.contains(
                "error [E100]: class `User`: invalid subsystem usage (counterexample: run, v.open)"
            ),
            "{name}:\n{text}"
        );
        check_golden(&format!("with_try/{name}.txt"), &text);
    }
}

/// A `raise` under a branch: the graph leaves `run` at the `raise` while
/// the lowering falls through it to the statement after, so the lowering
/// has the run `open, close, open`, which leaves the valve open. The
/// typestate fast path must not prove `v` from the graph: this is E100
/// with that run as the counterexample.
#[test]
fn typestate_soundness_raise_repro_matches_golden() {
    let source = format!(
        "{WITH_TRY_HEADER}        self.v.close()\n        if bad:\n            raise ValueError()\n            \
         self.v.open()\n        return []\n"
    );
    let file = SourceFile::new("if_raise.py".to_owned(), source.clone());
    let checked = Checker::new().check_source(&source).unwrap();
    assert!(!checked.report.passed(), "passed:\n{source}");
    let text = checked.report.render(Some(&file));
    assert!(
        text.contains(
            "error [E100]: class `User`: invalid subsystem usage \
             (counterexample: run, v.open, v.close, v.open)"
        ),
        "{text}"
    );
    check_golden("raise/if_raise.txt", &text);
}
