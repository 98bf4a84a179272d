//! Shared workload generators for the benchmark harness.
//!
//! Every bench regenerates one artifact of the paper (see `DESIGN.md`'s
//! per-experiment index); the generators here produce the synthetic
//! MicroPython sources and calculus programs the sweeps run over.

use std::fmt::Write as _;

/// The paper's Listing 2.1 + 2.2 (Valve + BadSector), verbatim modulo the
/// `clean` field rename.
pub const PAPER_SOURCE: &str = r#"
@sys
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
                print("a failed")
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
                print("b failed")
                self.a.close()
                return []
"#;

/// The Sector class of Listing 3.1 as annotated source.
pub const SECTOR_SOURCE: &str = r#"
@sys
class Sector:
    @op_initial
    def open_a(self):
        if which:
            return ["close_a", "open_b"]
        else:
            return ["clean_a"]

    @op
    def clean_a(self):
        return ["open_a"]

    @op
    def close_a(self):
        return ["open_a"]

    @op_final
    def open_b(self):
        if which:
            return []
        else:
            return []
"#;

/// A base class whose protocol is a chain `s0 → … → s{n-1}` (last final,
/// looping back to `s0`).
pub fn chain_class(name: &str, n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "@sys\nclass {name}:");
    for i in 0..n {
        let decorator = if n == 1 {
            "@op_initial_final"
        } else if i == 0 {
            "@op_initial"
        } else if i == n - 1 {
            "@op_final"
        } else {
            "@op"
        };
        let next = if i == n - 1 {
            "[\"s0\"]".to_string()
        } else {
            format!("[\"s{}\"]", i + 1)
        };
        let _ = writeln!(out, "    {decorator}");
        let _ = writeln!(out, "    def s{i}(self):");
        let _ = writeln!(out, "        return {next}");
        let _ = writeln!(out);
    }
    out
}

/// A composite driving `k` chain instances through one full round each.
pub fn driver_class(k: usize, n: usize) -> String {
    let fields: Vec<String> = (0..k).map(|i| format!("c{i}")).collect();
    let quoted: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
    let mut out = String::new();
    let _ = writeln!(out, "@sys([{}])", quoted.join(", "));
    let _ = writeln!(out, "class Driver:");
    let _ = writeln!(out, "    def __init__(self):");
    for f in &fields {
        let _ = writeln!(out, "        self.{f} = Chain()");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "    @op_initial_final");
    let _ = writeln!(out, "    def run(self):");
    for f in &fields {
        for i in 0..n {
            let _ = writeln!(out, "        self.{f}.s{i}()");
        }
    }
    let _ = writeln!(out, "        return []");
    out
}

/// A complete module: one chain class plus a `k`-subsystem driver.
pub fn chain_system(k: usize, n: usize) -> String {
    format!("{}\n{}", chain_class("Chain", n), driver_class(k, n))
}

/// A module with `n` operations exercising every Table 1 annotation.
pub fn annotation_module(n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "@claim(\"G !x.boom\")");
    let _ = writeln!(out, "@sys");
    let _ = writeln!(out, "class Annotated:");
    for i in 0..n.max(2) {
        let decorator = match i % 4 {
            0 => "@op_initial",
            1 => "@op",
            2 => "@op_final",
            _ => "@op_initial_final",
        };
        let next = format!("[\"m{}\"]", (i + 1) % n.max(2));
        let _ = writeln!(out, "    {decorator}");
        let _ = writeln!(out, "    def m{i}(self):");
        let _ = writeln!(out, "        return {next}");
        let _ = writeln!(out);
    }
    out
}

/// A module whose single class uses every return form of Table 2, `reps`
/// times over.
pub fn return_forms_module(reps: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "class Forms:");
    for i in 0..reps {
        let _ = writeln!(out, "    def list_{i}(self):");
        let _ = writeln!(out, "        return [\"a\", \"b\"]");
        let _ = writeln!(out, "    def tuple_int_{i}(self):");
        let _ = writeln!(out, "        return [\"a\"], 2");
        let _ = writeln!(out, "    def tuple_bool_{i}(self):");
        let _ = writeln!(out, "        return [\"a\"], True");
        let _ = writeln!(out, "    def tuple_multi_{i}(self):");
        let _ = writeln!(out, "        return [\"a\", \"b\"], 2");
        let _ = writeln!(out, "    def empty_{i}(self):");
        let _ = writeln!(out, "        return []");
    }
    out
}

/// A file-per-class project of `classes` classes: even indices are base
/// chain classes (`Base{i}`), odd indices are composites (`Comp{i}`)
/// driving the preceding base class through one full protocol round. The
/// shape exercises the workspace's dependency fingerprints: editing
/// `base{i}.py` invalidates exactly `Base{i}` and `Comp{i+1}`.
pub fn generated_project(classes: usize) -> Vec<(String, String)> {
    (0..classes)
        .map(|i| {
            if i % 2 == 0 {
                (format!("base{i}.py"), chain_class(&format!("Base{i}"), 3))
            } else {
                let dep = format!("Base{}", i - 1);
                let mut out = String::new();
                let _ = writeln!(out, "@sys([\"c\"])");
                let _ = writeln!(out, "class Comp{i}:");
                let _ = writeln!(out, "    def __init__(self):");
                let _ = writeln!(out, "        self.c = {dep}()");
                let _ = writeln!(out);
                let _ = writeln!(out, "    @op_initial_final");
                let _ = writeln!(out, "    def run(self):");
                for op in 0..3 {
                    let _ = writeln!(out, "        self.c.s{op}()");
                }
                let _ = writeln!(out, "        return []");
                (format!("comp{i}.py"), out)
            }
        })
        .collect()
}

/// The serve-bench workspace: a file-per-class project of `classes`
/// classes dominated by verification cost, the workload the persistent
/// cache is designed for.
///
/// One device protocol (`boot → work → stop`) per twenty classes; the
/// rest are single-operation apps, each driving one device through a
/// full round and carrying an LTLf claim. Every second app detours
/// through a `while`/`break` loop whose jump makes the typestate
/// analysis bail to ⊤, forcing the full language-inclusion check — so a
/// fresh verify pays lints + typestate + inclusion + claim checking, all
/// of which a warm restart restores from disk.
pub fn serve_project(classes: usize) -> Vec<(String, String)> {
    let bases = (classes / 20).max(1);
    let apps = classes.saturating_sub(bases);
    let mut files = Vec::with_capacity(classes);
    for k in 0..bases {
        files.push((
            format!("dev{k}.py"),
            format!(
                "@sys\nclass Dev{k}:\n    @op_initial\n    def boot(self):\n        \
                 return [\"work\"]\n\n    @op\n    def work(self):\n        \
                 return [\"stop\"]\n\n    @op_final\n    def stop(self):\n        \
                 return []\n"
            ),
        ));
    }
    for i in 0..apps {
        let k = i % bases;
        let body = if i % 2 == 1 {
            "        self.d.boot()\n        self.d.work()\n        \
             while retry:\n            break\n        self.d.stop()\n        return []\n"
        } else {
            "        self.d.boot()\n        self.d.work()\n        \
             self.d.stop()\n        return []\n"
        };
        files.push((
            format!("app{i}.py"),
            format!(
                "@claim(\"(!d.stop) W d.boot\")\n@sys([\"d\"])\nclass App{i}:\n    \
                 def __init__(self):\n        self.d = Dev{k}()\n\n    \
                 @op_initial_final\n    def run(self):\n{body}"
            ),
        ));
    }
    files
}

/// A deterministic "real-world" corpus of `n` MicroPython files for the
/// `shelleyc corpus` rate harness.
///
/// The bulk of the corpus is valid annotated code written in the wider
/// grammar the recovering front end accepts — `try`/`except`/`finally`,
/// `with`, `async def`/`await`, f-strings, comprehensions, lambdas,
/// augmented assignment, star arguments — arranged so every `@sys` class
/// extracts and verifies. Two deterministic defect streams are mixed in
/// (one file in fifty each):
///
/// * **broken syntax** (`i % 50 == 7`): one statement is outside even the
///   recovering grammar, so recovery degrades it (`W014`) and the file
///   counts against the *parse* rate;
/// * **spec errors** (`i % 50 == 23`): syntactically fine, but the `@sys`
///   class has no `@op_initial`, so extraction fails (`E006`) and the
///   file counts against the *extract* rate.
///
/// With `n = 200` that yields 98% parse / 98% extract — comfortably above
/// the CI gates (95/90) while keeping both failure paths exercised.
pub fn realworld_corpus(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let source = match i % 50 {
                7 => broken_syntax_case(i),
                23 => spec_error_case(i),
                _ => realworld_case(i),
            };
            (format!("case{i:04}.py"), source)
        })
        .collect()
}

/// A valid file in the wider grammar; rotates through four templates.
fn realworld_case(i: usize) -> String {
    match i % 4 {
        0 => format!(
            "@sys\nclass Logger{i}:\n    def __init__(self):\n        \
             self.path = \"dev.log\"\n        self.count = 0\n\n    \
             @op_initial\n    def start(self):\n        self.count += 1\n        \
             with open(self.path) as fh:\n            \
             fh.write(f\"start {{n}}\")\n        return [\"stop\"]\n\n    \
             @op_final\n    def stop(self):\n        \
             names = [p for p in pins if p]\n        return [\"start\"]\n"
        ),
        1 => format!(
            "@sys\nclass Link{i}:\n    @op_initial\n    async def connect(self):\n        \
             await socket.open()\n        return [\"send\", \"close\"]\n\n    \
             @op\n    async def send(self):\n        \
             try:\n            payload = bytes(data)\n        \
             except ValueError as e:\n            \
             raise RuntimeError(\"encode\") from e\n        finally:\n            \
             led.off()\n        return [\"send\", \"close\"]\n\n    \
             @op_final\n    def close(self):\n        return [\"connect\"]\n"
        ),
        2 => format!(
            "{}\n@sys([\"v\"])\nclass Ctrl{i}:\n    def __init__(self):\n        \
             self.v = Valve{i}()\n        self.key = lambda p: p.value()\n\n    \
             @op_initial_final\n    def cycle(self):\n        \
             self.v.s0()\n        self.v.s1()\n        self.v.s2()\n        \
             log(*events, sep=\"\\n\")\n        return []\n",
            chain_class(&format!("Valve{i}"), 3)
        ),
        _ => format!(
            "class Helper{i}(Base, mixin.Timed):\n    def fmt(self, *args, **kwargs):\n        \
             total = {{k: v for k, v in kwargs.items()}}\n        \
             return f\"args {{n}}\"\n\n@sys\nclass Pump{i}:\n    \
             @op_initial\n    def prime(self):\n        \
             rate = sum(r * 2 for r in rates)\n        rate //= 3\n        \
             return [\"run\"]\n\n    @op_final\n    def run(self):\n        \
             return [\"prime\"]\n"
        ),
    }
}

/// Valid class shape, one statement outside even the recovering grammar.
fn broken_syntax_case(i: usize) -> String {
    format!(
        "@sys\nclass Flaky{i}:\n    @op_initial_final\n    def ping(self):\n        \
         x = = {i}\n        return []\n"
    )
}

/// Parses cleanly, but the `@sys` class has no `@op_initial` (`E006`).
fn spec_error_case(i: usize) -> String {
    format!(
        "@sys\nclass Orphan{i}:\n    @op_final\n    def halt(self):\n        \
         return []\n"
    )
}

/// The adversarial workload for the `lang_views` bench: the claim
/// `F a0 & F a1 & ... & F a{n-1}` paired with a tiny model that only ever
/// emits `a0`.
///
/// The negated claim `G !a0 | ... | G !a{n-1}` has one reachable monitor
/// state per subset of still-alive disjuncts — ~`2^n` states under eager
/// compilation — while the model's traces progress only a handful of them.
/// This is exactly the separation the lazy language views exploit: the
/// joint search visits O(trace length) product states instead of paying
/// for the full monitor up front.
pub fn adversarial_claim(
    n: usize,
) -> (
    std::sync::Arc<shelley_regular::Alphabet>,
    shelley_ltlf::Formula,
    shelley_regular::Nfa,
) {
    use shelley_ltlf::Formula;
    use shelley_regular::{Alphabet, Nfa, Regex};
    let mut ab = Alphabet::new();
    let syms: Vec<_> = (0..n).map(|i| ab.intern(&format!("a{i}"))).collect();
    let ab = std::sync::Arc::new(ab);
    let claim = syms
        .iter()
        .map(|&s| Formula::eventually(Formula::atom(s)))
        .reduce(Formula::and)
        .expect("n >= 1");
    // `a0*`: every model trace violates the claim (no trace contains a1),
    // and progresses at most a couple of monitor states.
    let model = Nfa::from_regex(&Regex::star(Regex::sym(syms[0])), ab.clone());
    (ab, claim, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelley_core::Checker;

    #[test]
    fn generated_sources_verify() {
        for (k, n) in [(1, 1), (2, 3), (4, 5)] {
            let checked = Checker::new().check_source(&chain_system(k, n)).unwrap();
            assert!(checked.report.passed(), "k={k} n={n}");
        }
        let checked = Checker::new().check_source(PAPER_SOURCE).unwrap();
        assert!(!checked.report.passed());
        let checked = Checker::new().check_source(SECTOR_SOURCE).unwrap();
        assert!(checked.report.passed());
    }

    #[test]
    fn generated_project_verifies() {
        let files: Vec<_> = generated_project(10)
            .into_iter()
            .map(|(name, source)| shelley_core::ProjectFile::new(name, source))
            .collect();
        let checked = Checker::new().check_files(&files).unwrap();
        assert!(checked.report.passed(), "{}", checked.report.render(None));
        assert_eq!(checked.systems.len(), 10);
    }

    #[test]
    fn serve_project_verifies_with_a_mixed_fast_path() {
        let files: Vec<_> = serve_project(40)
            .into_iter()
            .map(|(name, source)| shelley_core::ProjectFile::new(name, source))
            .collect();
        let mut ws = Checker::new().jobs(1).into_workspace();
        for f in &files {
            ws.set_file(f.name.clone(), f.source.clone());
        }
        let checked = ws.check().unwrap();
        assert!(checked.report.passed(), "{}", checked.report.render(None));
        assert_eq!(checked.systems.len(), 40);
        let proven = ws.last_round().fast_path_proven;
        assert!(
            proven > 0 && proven < 38,
            "both verify paths must stay exercised (proven {proven}/38 composites)"
        );
    }

    #[test]
    fn realworld_corpus_hits_the_designed_rates() {
        use micropython_parser::visit::collect_degraded;
        let corpus = realworld_corpus(200);
        assert_eq!(corpus.len(), 200);
        let checker = Checker::new().recover(true);
        let mut parse_ok = 0;
        let mut extract_ok = 0;
        for (name, source) in &corpus {
            let module = micropython_parser::parse_module_recover(source);
            let degraded = collect_degraded(&module);
            if degraded.is_empty() {
                assert!(
                    micropython_parser::parse_module(source).is_ok(),
                    "{name} should be strictly valid"
                );
                parse_ok += 1;
            }
            let checked = checker.check_source(source).unwrap();
            let extract_errors = checked.report.diagnostics.errors().any(|d| {
                matches!(
                    d.code,
                    shelley_core::codes::BAD_ANNOTATION
                        | shelley_core::codes::UNKNOWN_SUBSYSTEM
                        | shelley_core::codes::NO_INITIAL_OPERATION
                        | shelley_core::codes::BAD_CLAIM
                )
            });
            if !extract_errors {
                extract_ok += 1;
            }
            // Valid files must verify end to end.
            if degraded.is_empty() && !extract_errors {
                assert!(
                    checked.report.passed(),
                    "{name} failed:\n{}",
                    checked.report.render(None)
                );
            }
        }
        assert_eq!(parse_ok, 196, "parse rate 98%");
        assert_eq!(extract_ok, 196, "extract rate 98%");
    }

    #[test]
    fn annotation_module_parses() {
        let checked = Checker::new().check_source(&annotation_module(8)).unwrap();
        assert!(!checked.report.diagnostics.has_errors());
    }

    #[test]
    fn return_forms_module_parses() {
        let m = micropython_parser::parse_module(&return_forms_module(3)).unwrap();
        assert_eq!(m.classes().count(), 1);
    }

    #[test]
    fn adversarial_claim_separates_lazy_from_eager() {
        let (ab, claim, model) = adversarial_claim(8);
        let markers = std::collections::BTreeSet::new();
        assert!(!shelley_ltlf::check_claim(&model, &claim, &markers).holds());
        // The eager monitor of the negated claim is exponential (one state
        // per subset of alive disjuncts), the lazy search region is not.
        let eager = shelley_ltlf::to_dfa(&claim.negate(), ab.clone()).num_states();
        assert!(eager >= 1 << 8, "eager monitor unexpectedly small: {eager}");
        let lazy = shelley_regular::antichain::joint_search(
            &model,
            &shelley_ltlf::MonitorView::new(&claim.negate(), ab),
            &markers,
        )
        .stats
        .frontier;
        assert!(lazy * 10 <= eager, "lazy {lazy} vs eager {eager}");
    }
}
