//! Integration tests for the `shelleyc` binary.

use std::io::Write as _;
use std::process::Command;

const PAPER: &str = r#"
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

const GOOD: &str = r#"
@sys
class Led:
    @op_initial
    def on(self):
        return ["off"]

    @op_final
    def off(self):
        return ["on"]
"#;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("shelleyc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn shelleyc(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_shelleyc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn check_fails_on_the_paper_example_with_exact_output() {
    let path = write_temp("paper.py", PAPER);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("Error in specification: INVALID SUBSYSTEM USAGE"));
    assert!(stdout.contains("Counter example: open_a, a.test, a.open"));
    assert!(stdout.contains("* Valve 'a': test, >open< (not final)"));
    assert!(stdout.contains("Error in specification: FAIL TO MEET REQUIREMENT"));
    assert!(stdout.contains("Formula: (!a.open) W b.open"));
}

#[test]
fn check_passes_on_a_correct_file() {
    let path = write_temp("good.py", GOOD);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("OK: 1 system(s) verified"));
}

#[test]
fn check_jobs_output_is_identical_to_sequential() {
    let path = write_temp("paper_jobs.py", PAPER);
    let sequential = shelleyc(&["check", path.to_str().unwrap(), "--jobs", "1"]);
    let parallel = shelleyc(&["check", path.to_str().unwrap(), "--jobs", "4"]);
    let auto = shelleyc(&["check", path.to_str().unwrap()]);
    assert_eq!(sequential, parallel);
    assert_eq!(sequential, auto);
    assert_eq!(sequential.2, Some(1));
    assert!(sequential.0.contains("INVALID SUBSYSTEM USAGE"));
}

/// `check` reads its inputs on the worker pool: with the 10th and 40th
/// of 50 paths missing, every job count reports the 10th, and the report
/// over the readable files is the same at every job count.
#[test]
fn check_reads_inputs_in_parallel_and_reports_the_first_unreadable_path() {
    let dir = corpus_dir("parallel_reads", &[]);
    let paths: Vec<String> = (0..50)
        .map(|i| {
            let path = dir.join(format!("f{i:02}.py"));
            if i != 9 && i != 39 {
                let source = if i == 20 {
                    PAPER.to_owned()
                } else {
                    GOOD.replace("class Led", &format!("class Led{i}"))
                };
                std::fs::write(&path, source).unwrap();
            }
            path.to_str().unwrap().to_owned()
        })
        .collect();
    let readable: Vec<&str> = paths
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 9 && i != 39)
        .map(|(_, p)| p.as_str())
        .collect();
    let mut reports: Vec<(String, String, Option<i32>)> = Vec::new();
    for jobs in ["1", "2", "8"] {
        let mut args = vec!["check", "--jobs", jobs];
        args.extend(paths.iter().map(String::as_str));
        let (stdout, stderr, code) = shelleyc(&args);
        assert_eq!(code, Some(2), "--jobs {jobs}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "--jobs {jobs}: {stdout}");
        assert!(
            stderr.contains(&format!("cannot read {}", paths[9])),
            "--jobs {jobs}: {stderr}"
        );
        assert!(!stderr.contains(&paths[39]), "--jobs {jobs}: {stderr}");

        for format in ["text", "json", "sarif"] {
            let mut args = vec!["check", "--jobs", jobs, "--format", format];
            args.extend(&readable);
            reports.push(shelleyc(&args));
        }
    }
    let (first, rest) = reports.split_at(3);
    assert_eq!(first[0].2, Some(1), "{}", first[0].0);
    assert!(
        first[0].0.contains("INVALID SUBSYSTEM USAGE"),
        "{}",
        first[0].0
    );
    for (i, report) in rest.iter().enumerate() {
        assert_eq!(
            report,
            &first[i % 3],
            "job count {} against 1",
            ["2", "8"][i / 3]
        );
    }
}

#[test]
fn check_rejects_bad_jobs_value() {
    let path = write_temp("good_jobs.py", GOOD);
    let (_, stderr, code) = shelleyc(&["check", path.to_str().unwrap(), "--jobs", "many"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("invalid --jobs value"));
}

#[test]
fn watch_recheck_hits_the_cache_and_sees_edits() {
    use std::io::{BufRead as _, BufReader};
    use std::process::Stdio;

    let path = write_temp("watched.py", GOOD);
    let mut child = Command::new(env!("CARGO_BIN_EXE_shelleyc"))
        .args(["watch", path.to_str().unwrap(), "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    // Each round streams its output ending in a `# round N:` marker, so
    // reading up to the marker synchronizes with the child between edits.
    let mut read_round = |marker: &str| -> String {
        let mut round = String::new();
        loop {
            let mut line = String::new();
            assert_ne!(reader.read_line(&mut line).unwrap(), 0, "stdout closed");
            round.push_str(&line);
            if line.starts_with(marker) {
                return round;
            }
        }
    };

    // Round 1: cold. Round 2: unchanged — everything cached.
    stdin.write_all(b"check\n").unwrap();
    let round1 = read_round("# round 1:");
    stdin.write_all(b"check\n").unwrap();
    let round2 = read_round("# round 2:");
    // Round 3: the protocol breaks (`on` is no longer initial).
    std::fs::write(&path, GOOD.replace("@op_initial", "@op")).unwrap();
    stdin.write_all(b"check\nquit\n").unwrap();
    let round3 = read_round("# round 3:");
    let status = child.wait().unwrap();

    assert_eq!(status.code(), Some(0));
    assert!(round1.contains("# round 1: parsed 1/1 files, extracted 1/1 classes, verified 1/1"));
    assert!(round1.contains("OK: 1 system(s) verified"), "{round1}");
    assert!(round2.contains("# round 2: parsed 0/1 files, extracted 0/1 classes, verified 0/1"));
    assert!(round2.contains("OK: 1 system(s) verified"), "{round2}");
    assert!(round3.contains("# round 3: parsed 1/1 files, extracted 1/1 classes, verified 1/1"));
    assert!(round3.contains("error"), "{round3}");
}

/// The golden byte-identity contract of the thin-client rewrite: one
/// `watch` round prints exactly what a one-shot `check` prints, plus the
/// `# round` marker line.
#[test]
fn watch_round_is_byte_identical_to_one_shot_check() {
    use std::io::{Read as _, Write as _};
    use std::process::Stdio;

    for (name, content) in [("golden_ok.py", GOOD), ("golden_bad.py", PAPER)] {
        let path = write_temp(name, content);
        let (check_stdout, _, _) = shelleyc(&["check", path.to_str().unwrap()]);

        let mut child = Command::new(env!("CARGO_BIN_EXE_shelleyc"))
            .args(["watch", path.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("binary runs");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(b"check\nquit\n")
            .unwrap();
        let mut watch_stdout = String::new();
        child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut watch_stdout)
            .unwrap();
        assert!(child.wait().unwrap().success());

        let (body, marker) = watch_stdout
            .split_once("# round 1:")
            .expect("round marker printed");
        assert_eq!(body, check_stdout, "watch round != check output for {name}");
        assert!(marker.contains("verified"));
    }
}

/// End-to-end daemon smoke over a real socket: `serve` + `connect`
/// prints exactly what a one-shot `check` prints, and `--shutdown`
/// stops the daemon and persists the cache.
#[test]
fn serve_and_connect_match_check_and_shut_down_cleanly() {
    let dir = std::env::temp_dir().join(format!("shelleyc-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache.ndjson");
    let path = write_temp("served.py", PAPER);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_shelleyc"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
        ])
        .spawn()
        .expect("binary runs");
    while !socket.exists() {
        std::thread::yield_now();
    }

    let (check_stdout, _, check_code) = shelleyc(&["check", path.to_str().unwrap()]);
    let (connect_stdout, _, connect_code) =
        shelleyc(&["connect", socket.to_str().unwrap(), path.to_str().unwrap()]);
    assert_eq!(connect_stdout, check_stdout);
    assert_eq!(connect_code, check_code);

    let (_, _, code) = shelleyc(&["connect", socket.to_str().unwrap(), "--shutdown"]);
    assert_eq!(code, Some(0));
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
    assert!(cache.exists(), "shutdown persisted the verify cache");
}

/// `connect --stats` surfaces the daemon's workspace counters, including
/// the antichain inclusion-engine frontier/pruned totals, in both the
/// text and JSON renderings.
#[test]
fn connect_stats_reports_antichain_counters() {
    let dir = std::env::temp_dir().join(format!("shelleyc-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    // A conforming class: the check passes, so every `connect` exits 0.
    let path = write_temp(
        "stats.py",
        "@sys\nclass Led:\n    @op_initial\n    def on(self):\n        \
         return [\"off\"]\n\n    @op_final\n    def off(self):\n        \
         return [\"on\"]\n",
    );

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_shelleyc"))
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .spawn()
        .expect("binary runs");
    while !socket.exists() {
        std::thread::yield_now();
    }

    let (text, _, code) = shelleyc(&[
        "connect",
        socket.to_str().unwrap(),
        path.to_str().unwrap(),
        "--stats",
    ]);
    assert_eq!(code, Some(0));
    assert!(text.contains("# totals:"), "text stats header: {text}");
    assert!(
        text.contains("# inclusion engine:"),
        "antichain line: {text}"
    );

    let (json, _, code) = shelleyc(&[
        "connect",
        socket.to_str().unwrap(),
        "--stats",
        "--format",
        "json",
    ]);
    assert_eq!(code, Some(0));
    assert!(json.contains("\"totals\":"), "json stats: {json}");
    assert!(
        json.contains("\"antichain_frontier\""),
        "antichain counters in json stats: {json}"
    );

    let (_, _, code) = shelleyc(&["connect", socket.to_str().unwrap(), "--shutdown"]);
    assert_eq!(code, Some(0));
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
}

#[test]
fn diagram_outputs_dot() {
    let path = write_temp("paper2.py", PAPER);
    let (stdout, _, code) = shelleyc(&["diagram", path.to_str().unwrap(), "Valve"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("digraph \"Valve\""));
    assert!(stdout.contains("__start -> \"test\""));
}

#[test]
fn deps_outputs_dependency_graph() {
    let path = write_temp("paper3.py", PAPER);
    let (stdout, _, code) = shelleyc(&["deps", path.to_str().unwrap(), "Valve"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("test/exit0"));
}

#[test]
fn integration_requires_composite() {
    let path = write_temp("paper4.py", PAPER);
    let (_, stderr, code) = shelleyc(&["integration", path.to_str().unwrap(), "Valve"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("base class"));
    let (stdout, _, code) = shelleyc(&["integration", path.to_str().unwrap(), "BadSector"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("a.test"));
}

#[test]
fn smv_outputs_module() {
    let path = write_temp("paper5.py", PAPER);
    let (stdout, _, code) = shelleyc(&["smv", path.to_str().unwrap(), "Valve"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("MODULE main"));
    assert!(stdout.contains("_stop"));
}

#[test]
fn infer_prints_behavior_regex() {
    let path = write_temp("paper6.py", PAPER);
    let (stdout, _, code) = shelleyc(&["infer", path.to_str().unwrap(), "BadSector", "open_a"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("a.test"));
    assert!(stdout.contains("a.open"));
    assert!(stdout.contains("+"));
}

#[test]
fn usage_errors_on_bad_invocations() {
    let (_, stderr, code) = shelleyc(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing input file") || stderr.contains("usage"));
    let (_, stderr, code) = shelleyc(&["check", "/nonexistent/file.py"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("cannot read"));
}

#[test]
fn parse_errors_reported_with_position() {
    let path = write_temp("broken.py", "def broken(:\n    pass\n");
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("broken.py:1:"));
}

#[test]
fn stats_prints_model_sizes() {
    let path = write_temp("paper7.py", PAPER);
    let (stdout, _, code) = shelleyc(&["stats", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("Valve (base)"));
    assert!(stdout.contains("BadSector (composite)"));
    assert!(stdout.contains("spec automaton"));
}

#[test]
fn language_prints_a_regex() {
    let path = write_temp("paper8.py", PAPER);
    let (stdout, _, code) = shelleyc(&["language", path.to_str().unwrap(), "Valve"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("test"));
    assert!(stdout.contains("·") || stdout.contains("+") || stdout.contains("ε"));
    // Composite languages include markers and qualified events.
    let (stdout, _, code) = shelleyc(&["language", path.to_str().unwrap(), "BadSector"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("open_a"));
    assert!(stdout.contains("a.test"));
}

#[test]
fn multi_file_check_resolves_across_files() {
    let valve = write_temp(
        "mf_valve.py",
        GOOD, // Led class
    );
    let user = write_temp(
        "mf_user.py",
        r#"
@sys(["led"])
class Blinker:
    def __init__(self):
        self.led = Led()

    @op_initial_final
    def blink(self):
        self.led.on()
        self.led.off()
        return []
"#,
    );
    let (stdout, _, code) = shelleyc(&["check", user.to_str().unwrap(), valve.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("OK: 2 system(s) verified"));
}

#[test]
fn multi_file_syntax_error_is_positioned_in_either_order() {
    let good = write_temp("order_good.py", GOOD);
    let broken = write_temp("order_broken.py", "class B(:\n");
    let (good, broken) = (good.to_str().unwrap(), broken.to_str().unwrap());
    for files in [[good, broken], [broken, good]] {
        let (stdout, _, code) = shelleyc(&["check", files[0], files[1]]);
        assert_eq!(code, Some(1), "{files:?}: {stdout}");
        assert!(
            stdout.starts_with(&format!("{broken}:1:9: syntax error")),
            "{files:?}: {stdout}"
        );
    }
}

const IMPLICIT_RETURN: &str = r#"
@sys
class V:
    @op_initial_final
    def a(self):
        if x:
            return []
"#;

#[test]
fn allow_flag_suppresses_a_warning() {
    let path = write_temp("lint_allow.py", IMPLICIT_RETURN);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("warning [W003]"), "{stdout}");

    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "-A", "W003"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(!stdout.contains("W003"), "{stdout}");
}

#[test]
fn deny_flag_turns_a_warning_into_a_failure() {
    let path = write_temp("lint_deny.py", IMPLICIT_RETURN);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "-D", "W003"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("error [W003]"), "{stdout}");
}

#[test]
fn deny_warnings_promotes_everything_except_forced_warn() {
    let path = write_temp("lint_dw.py", IMPLICIT_RETURN);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "--deny-warnings"]);
    assert_eq!(code, Some(1), "{stdout}");
    let (stdout, _, code) = shelleyc(&[
        "check",
        path.to_str().unwrap(),
        "-D",
        "warnings",
        "-W",
        "W003",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("warning [W003]"), "{stdout}");
}

#[test]
fn unknown_lint_code_is_a_usage_error() {
    let path = write_temp("lint_unknown.py", GOOD);
    let (_, stderr, code) = shelleyc(&["check", path.to_str().unwrap(), "-A", "E999"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown diagnostic code"), "{stderr}");
}

#[test]
fn json_format_reports_positions() {
    let path = write_temp("fmt_json.py", IMPLICIT_RETURN);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"tool\": \"shelleyc\""));
    assert!(stdout.contains("\"code\": \"W003\""));
    assert!(stdout.contains("\"line\": 5"), "{stdout}");
}

#[test]
fn sarif_format_carries_the_paper_counterexample() {
    let path = write_temp("fmt_sarif.py", PAPER);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "--format=sarif"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("\"version\": \"2.1.0\""));
    assert!(stdout.contains("sarif-2.1.0.json"));
    assert!(stdout.contains("\"ruleId\": \"E100\""));
    assert!(
        stdout.contains("Counter example: open_a, a.test, a.open"),
        "{stdout}"
    );
    // The rule catalog rides along.
    assert!(stdout.contains("\"id\": \"W009\""));
}

#[test]
fn unknown_format_is_a_usage_error() {
    let path = write_temp("fmt_bad.py", GOOD);
    let (_, stderr, code) = shelleyc(&["check", path.to_str().unwrap(), "--format", "yaml"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown format"), "{stderr}");
}

/// `GOOD` with one statement (line 6) that is outside the calculus and
/// degrades to `skip` under `--recover`.
const DEGRADABLE: &str = r#"
@sys
class Led:
    @op_initial
    def on(self):
        x = = 1
        return ["off"]

    @op_final
    def off(self):
        return ["on"]
"#;

#[test]
fn recover_degrades_unknown_syntax_to_a_w014_warning() {
    let path = write_temp("recover.py", DEGRADABLE);
    // Strict mode: a parse error, reported with its position.
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("recover.py:6:"), "{stdout}");
    // Recovery mode: the statement degrades, verification still passes.
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "--recover"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("warning [W014]"), "{stdout}");
    assert!(stdout.contains("construct degraded to `skip`"), "{stdout}");
    assert!(stdout.contains("OK: 1 system(s) verified"), "{stdout}");
}

#[test]
fn w014_level_control_accepts_lowercase_codes() {
    let path = write_temp("recover_levels.py", DEGRADABLE);
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "--recover", "-A", "w014"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(!stdout.contains("W014"), "{stdout}");
    let (stdout, _, code) = shelleyc(&["check", path.to_str().unwrap(), "--recover", "-D", "w014"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("error [W014]"), "{stdout}");
    let (stdout, _, code) = shelleyc(&[
        "check",
        path.to_str().unwrap(),
        "--recover",
        "--deny-warnings",
        "-W",
        "w014",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("warning [W014]"), "{stdout}");
}

#[test]
fn w014_reaches_json_with_a_position() {
    let path = write_temp("recover_json.py", DEGRADABLE);
    let (stdout, _, code) = shelleyc(&[
        "check",
        path.to_str().unwrap(),
        "--recover",
        "--format",
        "json",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"code\": \"W014\""), "{stdout}");
    assert!(stdout.contains("\"line\": 6"), "{stdout}");
}

#[test]
fn w014_reaches_sarif_with_a_rule_catalog_entry() {
    let path = write_temp("recover_sarif.py", DEGRADABLE);
    let (stdout, _, code) = shelleyc(&[
        "check",
        path.to_str().unwrap(),
        "--recover",
        "--format=sarif",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"W014\""), "{stdout}");
    // The registry-driven rule catalog carries the new code even when
    // the run has no W014 result.
    let clean = write_temp("recover_sarif_clean.py", GOOD);
    let (stdout, _, _) = shelleyc(&["check", clean.to_str().unwrap(), "--format=sarif"]);
    assert!(stdout.contains("\"id\": \"W014\""), "{stdout}");
    assert!(stdout.contains("construct-degraded"), "{stdout}");
}

#[test]
fn w014_names_its_file_in_a_multi_file_project() {
    // Two files degrade a statement at the same offset. Each warning keeps
    // its own file and position, in text and in JSON; before, the two
    // collapsed into one warning with neither.
    let a = write_temp("w014_project_a.py", DEGRADABLE);
    let b = write_temp(
        "w014_project_b.py",
        &DEGRADABLE.replace("class Led", "class Lamp"),
    );
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let (stdout, _, code) = shelleyc(&["check", "--recover", a, b]);
    assert_eq!(code, Some(0), "{stdout}");
    let warnings: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("warning [W014]"))
        .collect();
    assert_eq!(
        warnings,
        [
            format!("warning [W014]: {a}:6:9: construct degraded to `skip`: expected an expression, found `=`"),
            format!("warning [W014]: {b}:6:9: construct degraded to `skip`: expected an expression, found `=`"),
        ],
        "{stdout}"
    );
    assert!(stdout.ends_with("OK: 2 system(s) verified\n"), "{stdout}");

    let (stdout, _, code) = shelleyc(&["check", "--recover", "--format", "json", a, b]);
    assert_eq!(code, Some(0), "{stdout}");
    for file in [a, b] {
        let at = format!("\"file\": {file:?},\n      \"line\": 6,\n      \"column\": 9");
        assert!(stdout.contains(&at), "{file}: {stdout}");
    }
    assert_eq!(stdout.matches("\"code\": \"W014\"").count(), 2, "{stdout}");

    // Alone, the file renders with its snippet, as before.
    let (stdout, _, _) = shelleyc(&["check", "--recover", a]);
    assert!(
        stdout.starts_with(&format!("{a}:6:9: warning [W014]")),
        "{stdout}"
    );
}

fn corpus_dir(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("shelleyc-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (file, content) in files {
        std::fs::write(dir.join(file), content).unwrap();
    }
    dir
}

#[test]
fn corpus_reports_rates_over_a_directory() {
    let dir = corpus_dir(
        "corpus_rates",
        &[
            ("good.py", GOOD),
            ("paper.py", PAPER),
            ("degradable.py", DEGRADABLE),
        ],
    );
    // Strict: the degradable file fails to parse; the paper file parses
    // and extracts but fails verification.
    let (stdout, _, code) = shelleyc(&["corpus", dir.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("corpus: 3 file(s)"), "{stdout}");
    assert!(stdout.contains("parse:   2/3 (66.7%)"), "{stdout}");
    assert!(stdout.contains("extract: 2/3 (66.7%)"), "{stdout}");
    assert!(stdout.contains("verify:  1/3 (33.3%)"), "{stdout}");
    // Recovery lifts neither strict parse nor verify for the degradable
    // file (it has degraded constructs) but extraction now runs on it.
    let (stdout, _, code) = shelleyc(&["corpus", dir.to_str().unwrap(), "--recover"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("extract: 3/3 (100.0%)"), "{stdout}");
}

#[test]
fn corpus_gates_fail_the_run_and_json_records_the_rates() {
    let dir = corpus_dir("corpus_gate", &[("good.py", GOOD), ("bad.py", DEGRADABLE)]);
    let json = dir.join("rates.json");
    let (stdout, _, code) = shelleyc(&[
        "corpus",
        dir.to_str().unwrap(),
        "--min-parse",
        "100",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
    let written = std::fs::read_to_string(&json).unwrap();
    assert!(written.contains("\"files\": 2"), "{written}");
    assert!(written.contains("\"parse_ok\": 1"), "{written}");
    assert!(written.contains("\"parse_rate\": 50.0"), "{written}");
}

#[test]
fn corpus_min_verify_gates_the_verify_rate() {
    let dir = corpus_dir(
        "corpus_verify_gate",
        &[("good.py", GOOD), ("paper.py", PAPER)],
    );
    // 1/2 files verify: a 50% floor passes, a 51% floor fails with the
    // exact gate line.
    let (stdout, _, code) = shelleyc(&["corpus", dir.to_str().unwrap(), "--min-verify", "50"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("verify:  1/2 (50.0%)"), "{stdout}");
    let (stdout, _, code) = shelleyc(&["corpus", dir.to_str().unwrap(), "--min-verify", "51"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("FAIL: verify rate 50.0% below --min-verify 51%"),
        "{stdout}"
    );
    // Bad percentages are rejected like the other gates.
    let (_, stderr, code) = shelleyc(&["corpus", dir.to_str().unwrap(), "--min-verify", "200"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--min-verify"), "{stderr}");
}

#[test]
fn usage_string_agrees_with_the_flag_table() {
    // The usage text (printed on any usage error) must mention every flag
    // the parser accepts — a missing one is how `--min-verify` went
    // undocumented once. Exercise each spelling against the parser too,
    // so the list below stays tied to reality in both directions.
    let (_, usage, code) = shelleyc(&["frobnicate"]);
    assert_eq!(code, Some(2));
    let flags = [
        "-A",
        "-W",
        "-D",
        "--deny-warnings",
        "--format",
        "--jobs",
        "--socket",
        "--cache",
        "--shutdown",
        "--recover",
        "--json",
        "--min-parse",
        "--min-extract",
        "--min-verify",
        "--stats",
    ];
    for flag in flags {
        assert!(
            usage.contains(flag),
            "usage text is missing `{flag}`:\n{usage}"
        );
        // Known to the parser: an unknown flag error names the flag, a
        // known one fails differently (missing value/command instead).
        let (_, stderr, _) = shelleyc(&[flag]);
        assert!(
            !stderr.contains(&format!("unknown flag `{flag}`")),
            "flag table is missing `{flag}`:\n{stderr}"
        );
    }
}

#[test]
fn the_removed_backend_flag_is_a_usage_error() {
    // One engine decides every claim: `--backend` is an unknown flag to
    // every command, whatever value follows it.
    let path = write_temp("paper_backend.py", PAPER);
    let file = path.to_str().unwrap();
    let (usage_stdout, usage, _) = shelleyc(&["frobnicate"]);
    assert!(usage_stdout.is_empty());
    assert!(!usage.contains("--backend"), "{usage}");
    for args in [
        vec!["check", file, "--backend", "auto"],
        vec!["check", file, "--backend", "symbolic"],
        vec!["check", file, "--backend=explicit"],
        vec!["watch", file, "--backend", "auto"],
        vec!["serve", "--backend", "auto"],
        vec!["connect", "/nonexistent.sock", "--backend", "auto"],
    ] {
        let (stdout, stderr, code) = shelleyc(&args);
        assert_eq!(code, Some(2), "{args:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.contains("unknown flag `--backend"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn corpus_usage_errors() {
    let (_, stderr, code) = shelleyc(&["corpus", "/nonexistent-dir"]);
    assert_eq!(code, Some(2), "{stderr}");
    let empty = corpus_dir("corpus_empty", &[]);
    let (_, stderr, code) = shelleyc(&["corpus", empty.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("no .py files"), "{stderr}");
    let dir = corpus_dir("corpus_badpct", &[("good.py", GOOD)]);
    let (_, stderr, code) = shelleyc(&["corpus", dir.to_str().unwrap(), "--min-parse", "potato"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--min-parse"), "{stderr}");
}

#[test]
fn replay_validates_traces() {
    let program = write_temp("paper9.py", PAPER);
    let good = write_temp(
        "trace_good.txt",
        "test\nopen\nclose\n# comment\ntest\nclean\n",
    );
    let bad = write_temp("trace_bad.txt", "open\n");
    let incomplete = write_temp("trace_incomplete.txt", "test\nopen\n");

    let (stdout, _, code) = shelleyc(&[
        "replay",
        program.to_str().unwrap(),
        "Valve",
        good.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("complete usage"));

    let (stdout, _, code) = shelleyc(&[
        "replay",
        program.to_str().unwrap(),
        "Valve",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("not allowed"));
    assert!(stdout.contains(":1:"), "line number expected: {stdout}");

    let (stdout, _, code) = shelleyc(&[
        "replay",
        program.to_str().unwrap(),
        "Valve",
        incomplete.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("incomplete"));
}
