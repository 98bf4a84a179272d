//! `shelleyc` — command-line front end for Shelley model inference and
//! verification of MicroPython classes.
//!
//! ```text
//! shelleyc check <file.py> [more.py ...]  verify all @sys classes
//! shelleyc corpus <dir>                   parse/extract/verify rates over a corpus
//! shelleyc watch <file.py> [more.py ...]  re-check on demand (reads stdin)
//! shelleyc serve [--socket p] [--cache p] persistent verification daemon
//! shelleyc connect <socket> [file.py ...] one-shot client of a daemon
//! shelleyc diagram <file.py> <Class>      DOT operation diagram (Fig. 1)
//! shelleyc deps <file.py> <Class>         DOT dependency graph (Fig. 3)
//! shelleyc integration <file.py> <Class>  DOT integration automaton (Fig. 2)
//! shelleyc smv <file.py> <Class>          NuSMV model (§5 translation)
//! shelleyc infer <file.py> <Class> <op>   inferred behavior regex (Fig. 4)
//! shelleyc stats <file.py>                 model-size summary per system
//! shelleyc language <file.py> <Class>      whole-system language as a regex
//! shelleyc replay <file.py> <Class> <trace> validate a recorded trace
//! ```
//!
//! `check` and `watch` accept `--jobs N` (`-j N`) to size the worker pool
//! that verification fans out over (`0`, the default, uses the available
//! parallelism). `watch` keeps a [`shelley_core::Workspace`] alive and
//! reads commands from stdin — `check` re-reads the files and re-verifies
//! only what changed, printing a cache-stats line per round; `quit` exits.
//!
//! `replay` reads a trace file with one operation name per line (blank
//! lines and `#` comments ignored) and checks it against the class's
//! model — offline runtime verification of an execution log.

use micropython_parser::SourceFile;
use shelley_core::extract::dependency::DependencyGraph;
use shelley_core::workspace::par_map;
use shelley_core::{
    build_integration, integration_diagram, spec_diagram, Checker, LintConfig, LintLevel,
    INPUT_NAME,
};
use shelley_daemon::{Client, Engine};
use shelley_smv::nfa_to_smv;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(CliError::Verification(output)) => {
            print!("{output}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  shelleyc check <file.py> [more.py ...]
      [-A <code>] [-W <code>] [-D <code>|-D warnings] [--deny-warnings]
      [--format text|json|sarif] [--jobs N] [--recover]
  shelleyc corpus <dir> [--recover] [--json <path>]
      [--min-parse <pct>] [--min-extract <pct>] [--min-verify <pct>] [--jobs N]
  shelleyc watch <file.py> [more.py ...] [--jobs N] [--recover]
      (then `check` or `quit` on stdin)
  shelleyc serve [--socket <path>] [--cache <path>] [--jobs N] [--recover]
      (JSON protocol on stdin/stdout, or many clients on the socket)
  shelleyc connect <socket> [file.py ...] [--shutdown] [--recover]
      [--stats] [--format text|json]
  shelleyc diagram <file.py> <Class>
  shelleyc deps <file.py> <Class>
  shelleyc integration <file.py> <Class>
  shelleyc smv <file.py> <Class>
  shelleyc infer <file.py> <Class> <operation>
  shelleyc stats <file.py>
  shelleyc language <file.py> <Class>
  shelleyc replay <file.py> <Class> <trace-file>";

enum CliError {
    Usage(String),
    Verification(String),
}

/// The `--format` of `check` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

/// Every option a `shelleyc` command can take, collected by the one
/// flag-table parser below. Commands read the fields they care about and
/// ignore the rest.
struct Options {
    config: LintConfig,
    format: Format,
    jobs: usize,
    socket: Option<String>,
    cache: Option<String>,
    shutdown: bool,
    recover: bool,
    json_out: Option<String>,
    min_parse: Option<f64>,
    min_extract: Option<f64>,
    min_verify: Option<f64>,
    stats: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            config: LintConfig::new(),
            format: Format::Text,
            jobs: 0,
            socket: None,
            cache: None,
            shutdown: false,
            recover: false,
            json_out: None,
            min_parse: None,
            min_extract: None,
            min_verify: None,
            stats: false,
        }
    }
}

/// One command-line flag: its spellings, whether it takes a value (and
/// what to call it in errors), and how it lands in [`Options`].
struct Flag {
    /// Accepted spellings, e.g. `&["--jobs", "-j"]`.
    names: &'static [&'static str],
    /// `Some(noun)` when the flag takes a value; the noun names it in
    /// `--flag requires a <noun>` errors.
    value: Option<&'static str>,
    /// Folds the parsed occurrence into the options. `value` is `""`
    /// for flags that take none.
    apply: fn(&mut Options, flag: &str, value: &str) -> Result<(), CliError>,
}

fn set_lint(opts: &mut Options, flag: &str, code: &str) -> Result<(), CliError> {
    if flag == "-D" && code == "warnings" {
        opts.config.deny_warnings = true;
        return Ok(());
    }
    let level = match flag {
        "-A" => LintLevel::Allow,
        "-W" => LintLevel::Warn,
        _ => LintLevel::Deny,
    };
    opts.config
        .set(code, level)
        .map_err(|e| CliError::Usage(e.to_string()))
}

/// The single flag table every command parses against. `--flag value`
/// and `--flag=value` are both accepted for every value-taking flag.
const FLAGS: &[Flag] = &[
    Flag {
        names: &["-A"],
        value: Some("diagnostic code"),
        apply: set_lint,
    },
    Flag {
        names: &["-W"],
        value: Some("diagnostic code"),
        apply: set_lint,
    },
    Flag {
        names: &["-D"],
        value: Some("diagnostic code"),
        apply: set_lint,
    },
    Flag {
        names: &["--deny-warnings"],
        value: None,
        apply: |opts, _, _| {
            opts.config.deny_warnings = true;
            Ok(())
        },
    },
    Flag {
        names: &["--format"],
        value: Some("value"),
        apply: |opts, _, value| {
            opts.format = match value {
                "text" => Format::Text,
                "json" => Format::Json,
                "sarif" => Format::Sarif,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown format `{other}` (expected text, json, or sarif)"
                    )))
                }
            };
            Ok(())
        },
    },
    Flag {
        names: &["--jobs", "-j"],
        value: Some("number"),
        apply: |opts, _, value| {
            opts.jobs = value
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid --jobs value `{value}`")))?;
            Ok(())
        },
    },
    Flag {
        names: &["--socket"],
        value: Some("path"),
        apply: |opts, _, value| {
            opts.socket = Some(value.to_string());
            Ok(())
        },
    },
    Flag {
        names: &["--cache"],
        value: Some("path"),
        apply: |opts, _, value| {
            opts.cache = Some(value.to_string());
            Ok(())
        },
    },
    Flag {
        names: &["--shutdown"],
        value: None,
        apply: |opts, _, _| {
            opts.shutdown = true;
            Ok(())
        },
    },
    Flag {
        names: &["--recover"],
        value: None,
        apply: |opts, _, _| {
            opts.recover = true;
            Ok(())
        },
    },
    Flag {
        names: &["--json"],
        value: Some("path"),
        apply: |opts, _, value| {
            opts.json_out = Some(value.to_string());
            Ok(())
        },
    },
    Flag {
        names: &["--min-parse"],
        value: Some("percentage"),
        apply: |opts, flag, value| {
            opts.min_parse = Some(parse_percentage(flag, value)?);
            Ok(())
        },
    },
    Flag {
        names: &["--min-extract"],
        value: Some("percentage"),
        apply: |opts, flag, value| {
            opts.min_extract = Some(parse_percentage(flag, value)?);
            Ok(())
        },
    },
    Flag {
        names: &["--min-verify"],
        value: Some("percentage"),
        apply: |opts, flag, value| {
            opts.min_verify = Some(parse_percentage(flag, value)?);
            Ok(())
        },
    },
    Flag {
        names: &["--stats"],
        value: None,
        apply: |opts, _, _| {
            opts.stats = true;
            Ok(())
        },
    },
];

fn parse_percentage(flag: &str, value: &str) -> Result<f64, CliError> {
    match value.parse::<f64>() {
        Ok(pct) if (0.0..=100.0).contains(&pct) => Ok(pct),
        _ => Err(CliError::Usage(format!(
            "invalid {flag} value `{value}` (expected a percentage 0..=100)"
        ))),
    }
}

/// Splits `args` into positionals and flags (which may appear anywhere),
/// driving every flag through the declarative [`FLAGS`] table.
fn parse_args(args: &[String]) -> Result<(Vec<String>, Options), CliError> {
    let mut positionals = Vec::new();
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        // `--flag=value` splits in place; `--flag value` consumes the
        // next argument.
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, value)) if name.starts_with("--") => (name, Some(value)),
            _ => (arg, None),
        };
        match FLAGS.iter().find(|f| f.names.contains(&name)) {
            Some(flag) => {
                let value = match (flag.value, inline_value) {
                    (Some(_), Some(value)) => value,
                    (Some(noun), None) => {
                        i += 1;
                        args.get(i)
                            .map(String::as_str)
                            .ok_or_else(|| CliError::Usage(format!("{name} requires a {noun}")))?
                    }
                    (None, Some(_)) => {
                        return Err(CliError::Usage(format!("{name} does not take a value")))
                    }
                    (None, None) => "",
                };
                (flag.apply)(&mut opts, name, value)?;
            }
            None if arg.starts_with('-') && arg.len() > 1 => {
                return Err(CliError::Usage(format!("unknown flag `{arg}`")));
            }
            None => positionals.push(args[i].clone()),
        }
        i += 1;
    }
    Ok((positionals, opts))
}

fn run(raw_args: &[String]) -> Result<String, CliError> {
    let (args, opts) = parse_args(raw_args)?;
    let format = opts.format;
    let cmd = args
        .first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let checker = Checker::new()
        .lints(opts.config.clone())
        .jobs(opts.jobs)
        .recover(opts.recover);
    if cmd == "watch" {
        return run_watch(&args[1..], checker);
    }
    if cmd == "corpus" {
        return run_corpus(&args[1..], &opts, checker);
    }
    if cmd == "serve" {
        return run_serve(&opts, checker);
    }
    if cmd == "connect" {
        return run_connect(&args[1..], &opts);
    }
    if cmd == "check" {
        return run_check(&args[1..], format, checker);
    }
    let path = args
        .get(1)
        .ok_or_else(|| CliError::Usage("missing input file".into()))?;
    let source = read_source(path)?;
    let checked = checker.check_source(&source).map_err(|e| {
        let (line, col) = micropython_parser::SourceFile::new(path.clone(), source.clone())
            .line_col(e.error.span.start);
        CliError::Verification(format!("{path}:{line}:{col}: {}\n", e.error))
    })?;

    let class_arg = |i: usize| -> Result<&shelley_core::System, CliError> {
        let name = args
            .get(i)
            .ok_or_else(|| CliError::Usage("missing class name".into()))?;
        checked
            .systems
            .get(name)
            .ok_or_else(|| CliError::Usage(format!("no @sys class `{name}` in {path}")))
    };

    match cmd.as_str() {
        "diagram" => {
            let system = class_arg(2)?;
            Ok(spec_diagram(&system.spec))
        }
        "deps" => {
            let system = class_arg(2)?;
            Ok(DependencyGraph::from_spec(&system.spec).to_dot())
        }
        "integration" => {
            let system = class_arg(2)?;
            if !system.is_composite() {
                return Err(CliError::Usage(format!(
                    "`{}` is a base class; integration diagrams require a composite",
                    system.name
                )));
            }
            let integration = build_integration(system);
            Ok(integration_diagram(&system.name, &integration))
        }
        "smv" => {
            let system = class_arg(2)?;
            let nfa = if system.is_composite() {
                build_integration(system).nfa
            } else {
                let mut ab = shelley_regular::Alphabet::new();
                shelley_core::spec::intern_spec_events(&system.spec, None, &mut ab);
                shelley_core::spec::spec_automaton(&system.spec, None, std::sync::Arc::new(ab))
                    .nfa()
                    .clone()
            };
            // Claims become LTLSPECs in the emitted model; atoms must be
            // interned in the model alphabet, so parse against a copy.
            let mut scratch = (**nfa.alphabet()).clone();
            let mut claims = Vec::new();
            for claim in &system.claims {
                if let Ok(f) = shelley_ltlf::parse_formula(&claim.formula, &mut scratch) {
                    claims.push(f);
                }
            }
            let model = nfa_to_smv(&nfa, &format!("Shelley model of {}", system.name), &claims);
            Ok(model.to_smv())
        }
        "infer" => {
            let system = class_arg(2)?;
            let op = args
                .get(3)
                .ok_or_else(|| CliError::Usage("missing operation name".into()))?;
            let info = system.composite().ok_or_else(|| {
                CliError::Usage(format!(
                    "`{}` is a base class; behavior inference applies to composites",
                    system.name
                ))
            })?;
            let lowered = info.methods.get(op).ok_or_else(|| {
                CliError::Usage(format!("no operation `{op}` on `{}`", system.name))
            })?;
            let behavior = shelley_ir::infer(&lowered.program);
            Ok(format!("{}\n", behavior.display(&info.alphabet)))
        }
        "replay" => {
            let system = class_arg(2)?;
            let trace_path = args
                .get(3)
                .ok_or_else(|| CliError::Usage("missing trace file".into()))?;
            let trace_text = read_source(trace_path)?;
            let ops: Vec<&str> = trace_text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            let mut monitor = shelley_runtime::SpecMonitor::new(&system.spec);
            for (i, op) in ops.iter().enumerate() {
                if let Err(e) = monitor.invoke(op) {
                    return Err(CliError::Verification(format!(
                        "{trace_path}:{}: {e}\n",
                        i + 1
                    )));
                }
            }
            monitor.finish().map_err(|e| {
                CliError::Verification(format!("{trace_path}: trace is incomplete: {e}\n"))
            })?;
            Ok(format!(
                "OK: {} operation(s) form a complete usage of `{}`\n",
                ops.len(),
                system.name
            ))
        }
        "language" => {
            let system = class_arg(2)?;
            // Regex extraction needs the whole table: materialize the lazy
            // view (export-grade escape hatch), then minimize.
            use shelley_regular::lang::{self, NfaView};
            if let Some(_info) = system.composite() {
                let integration = build_integration(system);
                let dfa = lang::materialize(&NfaView::new(&integration.nfa)).minimize();
                let regex = dfa.to_regex();
                Ok(format!("{}\n", regex.display(integration.nfa.alphabet())))
            } else {
                let mut ab = shelley_regular::Alphabet::new();
                shelley_core::spec::intern_spec_events(&system.spec, None, &mut ab);
                let ab = std::sync::Arc::new(ab);
                let auto = shelley_core::spec::spec_automaton(&system.spec, None, ab.clone());
                let dfa = auto.materialize().minimize();
                Ok(format!("{}\n", dfa.to_regex().display(&ab)))
            }
        }
        "stats" => {
            let mut out = String::new();
            for system in checked.systems.iter() {
                out.push_str(&shelley_core::system_stats(system).to_string());
                out.push('\n');
            }
            if checked.systems.is_empty() {
                out.push_str("no @sys classes found\n");
            }
            Ok(out)
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Per-file outcome of one corpus run.
struct CorpusTotals {
    files: usize,
    parse_ok: usize,
    extract_ok: usize,
    verify_ok: usize,
}

impl CorpusTotals {
    fn rate(n: usize, total: usize) -> f64 {
        if total == 0 {
            100.0
        } else {
            n as f64 * 100.0 / total as f64
        }
    }

    fn parse_rate(&self) -> f64 {
        CorpusTotals::rate(self.parse_ok, self.files)
    }

    fn extract_rate(&self) -> f64 {
        CorpusTotals::rate(self.extract_ok, self.files)
    }

    fn verify_rate(&self) -> f64 {
        CorpusTotals::rate(self.verify_ok, self.files)
    }

    fn render_json(&self) -> String {
        format!(
            "{{\n  \"files\": {},\n  \"parse_ok\": {},\n  \"extract_ok\": {},\n  \
             \"verify_ok\": {},\n  \"parse_rate\": {:.1},\n  \"extract_rate\": {:.1},\n  \
             \"verify_rate\": {:.1}\n}}\n",
            self.files,
            self.parse_ok,
            self.extract_ok,
            self.verify_ok,
            self.parse_rate(),
            self.extract_rate(),
            self.verify_rate(),
        )
    }
}

/// Diagnostic codes that indicate the *extraction* of a model failed (as
/// opposed to the model failing verification): malformed annotations and
/// spec-shape errors.
const EXTRACT_ERROR_CODES: &[&str] = &[
    shelley_core::codes::BAD_ANNOTATION,
    shelley_core::codes::UNKNOWN_SUBSYSTEM,
    shelley_core::codes::NO_INITIAL_OPERATION,
    shelley_core::codes::BAD_CLAIM,
];

fn read_source(name: &str) -> Result<String, CliError> {
    std::fs::read_to_string(name).map_err(|e| CliError::Usage(format!("cannot read {name}: {e}")))
}

/// `shelleyc check`: one verification round over the given files.
///
/// A single file is checked under [`INPUT_NAME`]; more files form a
/// multi-file project, checked once as a whole. The files are read on the
/// workspace's worker pool and registered in argument order; the first
/// unreadable one in that order is the one reported. A syntax error is
/// positioned in the failing file's own text.
///
/// Once the report is printed the process exits on the spot, without
/// dropping the workspace or the round's products: the operating system
/// reclaims their memory at once, where freeing them piece by piece would
/// cost tens of milliseconds on one thread after the verdict is out. Only
/// usage errors return.
fn run_check(paths: &[String], format: Format, checker: Checker) -> Result<String, CliError> {
    let path = paths
        .first()
        .ok_or_else(|| CliError::Usage("missing input file".into()))?;
    let multi_file = paths.len() > 1;
    let mut workspace = checker.into_workspace();
    let sources = par_map(workspace.jobs(), paths, |name| read_source(name));
    for (name, source) in paths.iter().zip(sources) {
        let key = if multi_file {
            name.as_str()
        } else {
            INPUT_NAME
        };
        workspace.set_file(key, source?);
    }
    let round = workspace.check();
    let (out, passed) = match &round {
        Ok(checked) => {
            // A single file resolves every span in its own text. In a
            // project only diagnostics that name their file (`W014`) can be
            // positioned: the others' spans are not attributed to a file.
            let position_source = (!multi_file).then(|| {
                SourceFile::new(
                    path.clone(),
                    workspace
                        .source(INPUT_NAME)
                        .expect("the file was registered"),
                )
            });
            let position_source = position_source.as_ref();
            let report = &checked.report;
            let named: BTreeSet<&str> = report
                .diagnostics
                .iter()
                .filter(|_| multi_file)
                .filter_map(|d| d.file.as_deref())
                .collect();
            let project: BTreeMap<&str, SourceFile> = named
                .into_iter()
                .filter_map(|name| Some((name, SourceFile::new(name, workspace.source(name)?))))
                .collect();
            let source_of = |d: &shelley_core::Diagnostic| match position_source {
                Some(file) => Some(file),
                None => d.file.as_deref().and_then(|name| project.get(name)),
            };
            let out = match format {
                Format::Text => {
                    let mut out = match position_source {
                        Some(file) => report.render(Some(file)),
                        None => report.render_project(|name| project.get(name)),
                    };
                    if report.passed() {
                        out.push_str(&format!(
                            "OK: {} system(s) verified\n",
                            checked.systems.len()
                        ));
                    }
                    out
                }
                Format::Json => report.diagnostics.render_json_by(source_of),
                Format::Sarif => report.diagnostics.render_sarif_by(source_of),
            };
            (out, report.passed())
        }
        Err(e) => {
            let text = workspace
                .source(&e.file)
                .expect("a parse failure names one of the project's files");
            let (line, col) = micropython_parser::SourceFile::new(e.file.as_str(), text)
                .line_col(e.error.span.start);
            let shown = if multi_file { &e.file } else { path };
            (format!("{shown}:{line}:{col}: {}\n", e.error), false)
        }
    };
    print!("{out}");
    let _ = std::io::stdout().flush();
    std::process::exit(if passed { 0 } else { 1 })
}

/// `shelleyc corpus <dir>`: checks every `.py` file under `dir` (one
/// directory level, sorted) and reports three cumulative rates —
///
/// * **parse**: the file is fully inside the supported grammar. In
///   `--recover` mode every file produces *some* module, so a file counts
///   only when recovery degraded nothing.
/// * **extract**: parsing aside, every `@sys` class yielded a model
///   (no annotation/spec-shape errors).
/// * **verify**: the full check passed.
///
/// `--json <path>` writes the totals as JSON (the `BENCH_corpus.json`
/// shape); `--min-parse`/`--min-extract`/`--min-verify` turn the three
/// rates into gates that fail the run when unmet.
fn run_corpus(args: &[String], opts: &Options, checker: Checker) -> Result<String, CliError> {
    let dir = args
        .first()
        .ok_or_else(|| CliError::Usage("missing corpus directory".into()))?;
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Usage(format!("cannot read {dir}: {e}")))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "py"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Usage(format!("no .py files in {dir}")));
    }

    let mut totals = CorpusTotals {
        files: 0,
        parse_ok: 0,
        extract_ok: 0,
        verify_ok: 0,
    };
    let mut failures = String::new();
    for path in &paths {
        let name = path.display().to_string();
        let source = std::fs::read_to_string(path)
            .map_err(|e| CliError::Usage(format!("cannot read {name}: {e}")))?;
        totals.files += 1;
        let parse_ok = if opts.recover {
            let module = micropython_parser::parse_module_recover(&source);
            micropython_parser::visit::collect_degraded(&module).is_empty()
        } else {
            micropython_parser::parse_module(&source).is_ok()
        };
        if parse_ok {
            totals.parse_ok += 1;
        }
        // In recovery mode extraction proceeds even for degraded files;
        // in strict mode a parse failure stops the file here.
        let checked = match checker.check_source(&source) {
            Ok(checked) => checked,
            Err(e) => {
                failures.push_str(&format!("{name}: parse: {}\n", e.error));
                continue;
            }
        };
        if !parse_ok {
            failures.push_str(&format!("{name}: parse: constructs degraded\n"));
        }
        let extract_errors: Vec<&str> = checked
            .report
            .diagnostics
            .errors()
            .filter(|d| EXTRACT_ERROR_CODES.contains(&d.code))
            .map(|d| d.code)
            .collect();
        if extract_errors.is_empty() {
            totals.extract_ok += 1;
        } else {
            failures.push_str(&format!("{name}: extract: {}\n", extract_errors.join(", ")));
        }
        if checked.report.passed() {
            totals.verify_ok += 1;
        }
    }

    let mut out = format!(
        "corpus: {} file(s) in {dir}\n  parse:   {}/{} ({:.1}%)\n  extract: {}/{} \
         ({:.1}%)\n  verify:  {}/{} ({:.1}%)\n",
        totals.files,
        totals.parse_ok,
        totals.files,
        totals.parse_rate(),
        totals.extract_ok,
        totals.files,
        totals.extract_rate(),
        totals.verify_ok,
        totals.files,
        totals.verify_rate(),
    );
    out.push_str(&failures);
    if let Some(path) = &opts.json_out {
        std::fs::write(path, totals.render_json())
            .map_err(|e| CliError::Usage(format!("cannot write {path}: {e}")))?;
    }
    let mut gate_failures = Vec::new();
    if let Some(min) = opts.min_parse {
        if totals.parse_rate() < min {
            gate_failures.push(format!(
                "parse rate {:.1}% below --min-parse {min}%",
                totals.parse_rate()
            ));
        }
    }
    if let Some(min) = opts.min_extract {
        if totals.extract_rate() < min {
            gate_failures.push(format!(
                "extract rate {:.1}% below --min-extract {min}%",
                totals.extract_rate()
            ));
        }
    }
    if let Some(min) = opts.min_verify {
        if totals.verify_rate() < min {
            gate_failures.push(format!(
                "verify rate {:.1}% below --min-verify {min}%",
                totals.verify_rate()
            ));
        }
    }
    if gate_failures.is_empty() {
        Ok(out)
    } else {
        for failure in gate_failures {
            out.push_str(&format!("FAIL: {failure}\n"));
        }
        Err(CliError::Verification(out))
    }
}

/// The multi-round mode: a thin client over the daemon wire types. Each
/// `check` line read from stdin re-reads the watched files from disk,
/// sends them through the protocol [`Engine`], and renders the returned
/// [`shelley_core::api::CheckSummary`] — the exact bytes an in-process
/// check would print —
/// followed by a `# round N:` cache-stats line. Exits on `quit` or end
/// of input.
fn run_watch(paths: &[String], checker: Checker) -> Result<String, CliError> {
    use shelley_core::{Method, ReplyBody, Request};
    use std::io::Write as _;

    if paths.is_empty() {
        return Err(CliError::Usage("missing input file".into()));
    }
    let mut engine = Engine::new(checker);
    let mut round = 0u64;
    let mut next_id = 1u64;
    let mut send = move |engine: &mut Engine, method| {
        let id = next_id;
        next_id += 1;
        let mut last = None;
        engine.handle(Request { id, method }, &mut |reply| last = Some(reply.body));
        last
    };
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| CliError::Usage(format!("cannot read stdin: {e}")))?;
        let mut out = String::new();
        match line.trim() {
            "" => continue,
            "quit" | "exit" => break,
            "check" => {
                round += 1;
                for path in paths {
                    let text = read_source(path)?;
                    send(
                        &mut engine,
                        Method::Open {
                            path: path.clone(),
                            text,
                        },
                    );
                }
                match send(&mut engine, Method::Check) {
                    Some(ReplyBody::Check { summary }) => {
                        out.push_str(&summary.render_text());
                        out.push_str(&format!("# round {round}: {}\n", summary.stats.render()));
                    }
                    other => {
                        return Err(CliError::Usage(format!(
                            "protocol error: expected a check reply, got {other:?}"
                        )))
                    }
                }
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown watch command `{other}` (expected `check` or `quit`)"
                )))
            }
        }
        // Each round is flushed before the next stdin read so editors and
        // tests can synchronize on the `# round` marker.
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_all(out.as_bytes())
            .and_then(|()| stdout.flush())
            .map_err(|e| CliError::Usage(format!("cannot write stdout: {e}")))?;
    }
    Ok(String::new())
}

/// `shelleyc serve`: hosts the shared workspace behind the JSON protocol,
/// on stdin/stdout by default or on a Unix socket for concurrent clients.
/// `--cache` attaches the persistent verify cache (loaded now, saved on
/// shutdown); what the load recovered is reported on stderr so stdout
/// stays protocol-clean.
fn run_serve(opts: &Options, checker: Checker) -> Result<String, CliError> {
    let mut engine = Engine::new(checker);
    if let Some(cache) = &opts.cache {
        let (loaded, outcome) = engine.with_cache(cache);
        engine = loaded;
        match (&outcome.rejected, outcome.entries.len()) {
            (Some(_), _) if !std::path::Path::new(cache).exists() => {
                eprintln!("# cache: none yet, starting cold")
            }
            (Some(reason), _) => eprintln!("# cache: starting cold ({reason})"),
            (None, n) => eprintln!(
                "# cache: restored {n} entr{} ({} line(s) skipped)",
                if n == 1 { "y" } else { "ies" },
                outcome.skipped_lines
            ),
        }
    }
    let served = match &opts.socket {
        Some(socket) => shelley_daemon::serve_socket(engine, std::path::Path::new(socket)),
        None => shelley_daemon::serve_stdio(engine),
    };
    served.map_err(|e| CliError::Usage(format!("serve failed: {e}")))?;
    Ok(String::new())
}

/// `shelleyc connect`: a one-shot client for a running daemon. Opens the
/// given files in the daemon's workspace, runs a check, and prints the
/// summary exactly as `shelleyc check` would; `--shutdown` then asks the
/// daemon to persist its cache and stop.
fn run_connect(args: &[String], opts: &Options) -> Result<String, CliError> {
    let socket = args
        .first()
        .ok_or_else(|| CliError::Usage("missing socket path".into()))?;
    let mut client = Client::connect(std::path::Path::new(socket))
        .map_err(|e| CliError::Usage(format!("cannot connect to {socket}: {e}")))?;
    let fail = |e: std::io::Error| CliError::Usage(format!("daemon request failed: {e}"));
    client.hello().map_err(fail)?;
    if opts.recover {
        client.configure(true).map_err(fail)?;
    }
    let mut files = Vec::new();
    for path in &args[1..] {
        let text = read_source(path)?;
        client.open(path.clone(), text.clone()).map_err(fail)?;
        files.push((path.clone(), text));
    }
    let mut out = String::new();
    let passed = if files.is_empty() {
        true
    } else {
        let summary = client.check().map_err(fail)?;
        if let Some(failure) = &summary.parse_error {
            // The same shape a one-shot check prints for parse errors.
            match (failure.line, failure.column) {
                (Some(line), Some(col)) => {
                    out.push_str(&format!(
                        "{}:{line}:{col}: {}\n",
                        failure.file, failure.message
                    ));
                }
                _ => out.push_str(&format!("{}\n", failure.render_text())),
            }
        } else {
            // Positions resolve only for single files, exactly as `check`.
            let source = match files.as_slice() {
                [(path, text)] => Some(micropython_parser::SourceFile::new(
                    path.clone(),
                    text.clone(),
                )),
                _ => None,
            };
            out.push_str(&summary.report().render(source.as_ref()));
            if summary.passed {
                out.push_str(&format!(
                    "OK: {} system(s) verified\n",
                    summary.systems.len()
                ));
            }
        }
        summary.passed
    };
    if opts.stats {
        let (totals, last_round) = client.stats().map_err(fail)?;
        match opts.format {
            Format::Json => {
                // The wire structs verbatim — the same serde surface the
                // daemon's stats reply uses.
                out.push_str(&format!(
                    "{{\"totals\":{},\"last_round\":{}}}\n",
                    serde::json::to_string(&totals),
                    serde::json::to_string(&last_round),
                ));
            }
            _ => {
                out.push_str(&format!("# totals: {}\n", totals.render()));
                out.push_str(&format!(
                    "# inclusion engine: {} antichain pairs kept, {} pruned\n",
                    totals.antichain_frontier, totals.antichain_pruned
                ));
            }
        }
    }
    if opts.shutdown {
        client.shutdown().map_err(fail)?;
    }
    if passed {
        Ok(out)
    } else {
        Err(CliError::Verification(out))
    }
}
