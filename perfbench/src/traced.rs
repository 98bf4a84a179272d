//! The traced run: each workload replayed in this process, on one thread
//! (workspace `jobs(1)`), with a span around every call into a layer's
//! public functions.
//!
//! Per round of a workload it measures, side by side:
//!
//! * the real round — `Workspace::check` and its `last_round()` phases;
//! * the layer replay — the same per-class stages the workspace runs
//!   (parse, fingerprint, extract, resolve, lints, typestate,
//!   integration, usage, claims), called one by one under spans, once
//!   traced and once with tracing off (the difference is the tracing
//!   overhead);
//! * the layers outside the round: the daemon `Engine`, `serde::json` on
//!   the wire, the on-disk cache, the socket transport, and the CLI
//!   process.
//!
//! Per-layer values are per-round means. `workspace.unattributed_frac` is
//! the round minus the self time of the layers it calls, over the round.
//! Spans stay in memory and are written at the end as Chrome trace-event
//! JSON to `perfbench/work/traces/<workload>.json` (Perfetto opens it).

use crate::e2e::{check_args, open_order, toggle, write_files, Ctx, EditorOp};
use crate::process::{self, Daemon};
use crate::workload::{CheckAnswer, Corpus, Mismatch, Rng, RoundAnswer, ServeProject, Workload};
use crate::Metric;
use micropython_parser::ast::{ClassDef, Module, Stmt};
use serde::json;
use shelley_core::verify::usage::check_usage_counted;
use shelley_core::{
    build_integration, check_claims, codes, default_passes, extract_class, pipeline, resolve_class,
    validate_spec, Backend, CheckSummary, Checker, ClassExtraction, ClassSpec, Diagnostics,
    LintContext, Method, ProjectFile, Reply, ReplyBody, Request, System, SystemKind, SystemSet,
    Workspace, WorkspaceStats,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// The per-layer metrics, in `BENCHMARK.json` order: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("micropython.parse_ms", "ms"),
    ("micropython.mb_per_s", "MB/s"),
    ("micropython.degraded", "count"),
    ("workspace.fingerprint_ms", "ms"),
    ("workspace.round_ms", "ms"),
    ("workspace.phase.parse_ms", "ms"),
    ("workspace.phase.extract_ms", "ms"),
    ("workspace.phase.verify_ms", "ms"),
    ("workspace.phase.assemble_ms", "ms"),
    ("workspace.untimed_ms", "ms"),
    ("workspace.unattributed_frac", "ratio"),
    ("workspace.files_parsed", "count"),
    ("workspace.extracted", "count"),
    ("workspace.verified", "count"),
    ("workspace.verify_cache_hits", "count"),
    ("workspace.verify_disk_hits", "count"),
    ("workspace.verify_hit_frac", "ratio"),
    ("extract.ms", "ms"),
    ("resolve.ms", "ms"),
    ("lint.ms", "ms"),
    ("lint.unreachable_ms", "ms"),
    ("lint.init_order_ms", "ms"),
    ("lint.self_calls_ms", "ms"),
    ("lint.typestate_ms", "ms"),
    ("typestate.ms", "ms"),
    ("typestate.proven_frac", "ratio"),
    ("integration.ms", "ms"),
    ("integration.states", "count"),
    ("usage.ms", "ms"),
    ("usage.checks", "count"),
    ("usage.antichain_frontier", "count"),
    ("usage.antichain_pruned", "count"),
    ("claims.ms", "ms"),
    ("claims.count", "count"),
    ("claims.symbolic", "count"),
    ("persist.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.records", "count"),
    ("persist.bytes", "bytes"),
    ("daemon.handle_ms", "ms"),
    ("api.encode_ms", "ms"),
    ("api.decode_ms", "ms"),
    ("api.reply_bytes", "bytes"),
    ("daemon.transport_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("trace.replay_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The spans of the layers the workspace round calls; their self times
/// are what `workspace.unattributed_frac` subtracts from the round. Only
/// `lint.ms` has children (the four passes); its self time is the pass
/// dispatch.
const IN_ROUND: &[&str] = &[
    "micropython.parse_ms",
    "workspace.fingerprint_ms",
    "extract.ms",
    "resolve.ms",
    "lint.ms",
    "lint.unreachable_ms",
    "lint.init_order_ms",
    "lint.self_calls_ms",
    "lint.typestate_ms",
    "typestate.ms",
    "integration.ms",
    "usage.ms",
    "claims.ms",
];

/// The layers outside the round, ranked in the ledger next to it.
const OUTSIDE_ROUND: &[&str] = &[
    "persist.load_ms",
    "persist.save_ms",
    "daemon.handle_ms",
    "api.encode_ms",
    "api.decode_ms",
    "daemon.transport_ms",
    "cli.overhead_ms",
    "cli.render_ms",
];

// ---------------------------------------------------------------------------
// Spans

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder. With `on == false` a span is a plain call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        result
    }

    /// Inclusive and self time by span name, in ms, over every span.
    fn times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let total = span.end - span.start;
            let entry = out.entry(span.name).or_default();
            entry.0 += total.as_secs_f64() * 1e3;
            entry.1 += total.saturating_sub(children).as_secs_f64() * 1e3;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span.
    fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}\n",
                if i > 0 { "," } else { "" },
                span.name,
                span.start.as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

// ---------------------------------------------------------------------------
// Per-round accumulation

/// Sums of per-round values; reported as means over `rounds`.
#[derive(Default)]
struct Acc {
    sums: BTreeMap<&'static str, f64>,
    rounds: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Acc {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    fn judge(&mut self, outcome: Result<(), Mismatch>) {
        self.attempted += 1;
        if let Err(mismatch) = outcome {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(mismatch.0);
            }
        }
    }

    fn broken(&mut self, e: io::Error) {
        self.judge(Err(Mismatch(format!("transport error: {e}"))));
    }

    /// Folds in one workspace round's timing and counters.
    fn round(&mut self, round_ms: f64, stats: &WorkspaceStats) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let phases = [
            ("workspace.phase.parse_ms", ms(stats.parse_time)),
            ("workspace.phase.extract_ms", ms(stats.extract_time)),
            ("workspace.phase.verify_ms", ms(stats.verify_time)),
            ("workspace.phase.assemble_ms", ms(stats.assemble_time)),
        ];
        self.add("workspace.round_ms", round_ms);
        for (name, value) in phases {
            self.add(name, value);
        }
        self.add(
            "workspace.untimed_ms",
            round_ms - phases.iter().map(|(_, v)| v).sum::<f64>(),
        );
        for (name, value) in [
            ("workspace.files_parsed", stats.files_parsed),
            ("workspace.extracted", stats.extracted),
            ("workspace.verified", stats.verified),
            ("workspace.verify_cache_hits", stats.verify_cache_hits),
            ("workspace.verify_disk_hits", stats.verify_disk_hits),
        ] {
            self.add(name, value as f64);
        }
    }

    /// Serialization time booked so far, in ms.
    fn wire_ms(&self) -> f64 {
        ["api.encode_ms", "api.decode_ms"]
            .iter()
            .map(|name| self.sums.get(name).copied().unwrap_or(0.0))
            .sum()
    }

    /// Adds another accumulator's sums into this one.
    fn absorb(&mut self, other: Acc) {
        for (name, value) in other.sums {
            self.add(name, value);
        }
    }

    fn mean(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0) / self.rounds.max(1) as f64
    }
}

/// The result of a traced run.
pub struct Traced {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `(layer, self ms per round)`, slowest first.
    pub ledger: Vec<(&'static str, f64)>,
    pub rounds: u64,
}

impl Traced {
    fn finish(workload: Workload, mut acc: Acc, tracer: &Tracer, trace_path: &Path) -> Traced {
        let rounds = acc.rounds.max(1) as f64;
        let times = tracer.times();
        // Span-derived layer times, per round: inclusive time under the
        // metric's own name.
        for (&name, &(inclusive, _)) in &times {
            acc.add(name, inclusive);
        }
        let self_ms = |name: &str| times.get(name).map_or(0.0, |t| t.1) / rounds;
        let round = acc.mean("workspace.round_ms");
        let in_round: f64 = IN_ROUND.iter().map(|&name| self_ms(name)).sum();
        let parsed = acc.mean("micropython.parse_ms");
        let derived = [
            (
                "workspace.unattributed_frac",
                if round > 0.0 {
                    (round - in_round) / round
                } else {
                    0.0
                },
            ),
            (
                "micropython.mb_per_s",
                if parsed > 0.0 {
                    acc.mean("parse.bytes") / 1e6 / (parsed / 1e3)
                } else {
                    0.0
                },
            ),
            (
                "workspace.verify_hit_frac",
                ratio(
                    acc.mean("workspace.verify_cache_hits")
                        + acc.mean("workspace.verify_disk_hits"),
                    acc.mean("workspace.verified") + acc.mean("workspace.verify_cache_hits"),
                ),
            ),
            (
                "typestate.proven_frac",
                ratio(acc.mean("typestate.proven"), acc.mean("typestate.fields")),
            ),
            (
                "trace.overhead_frac",
                ratio(
                    acc.mean("trace.replay_ms") - acc.mean("trace.untraced_ms"),
                    acc.mean("trace.untraced_ms"),
                ),
            ),
        ];
        let mut metrics = Vec::new();
        for &(name, unit) in PER_LAYER {
            let value = derived
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| acc.mean(name), |(_, v)| *v);
            metrics.push(Metric { name, value, unit });
        }

        let mut ledger: Vec<(&'static str, f64)> = IN_ROUND
            .iter()
            .map(|&name| (name, self_ms(name)))
            .chain(OUTSIDE_ROUND.iter().map(|&name| (name, acc.mean(name))))
            .filter(|(_, ms)| *ms != 0.0)
            .collect();
        ledger.push(("unattributed (in round)", round - in_round));
        ledger.sort_by(|a, b| b.1.total_cmp(&a.1));

        if let Err(e) = tracer.write_chrome(trace_path) {
            acc.broken(e);
        }
        Traced {
            workload,
            attempted: acc.attempted,
            failed: acc.failed,
            failures: acc.failures,
            metrics,
            ledger,
            rounds: acc.rounds,
        }
    }

    /// Prints the per-layer metrics and the attribution ledger.
    pub fn report(&self) {
        let value = |name: &str| {
            self.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        println!(
            "per-layer metrics, per-round means over {} round(s):",
            self.rounds
        );
        for m in &self.metrics {
            println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let round = value("workspace.round_ms");
        println!(
            "ledger for {}: layers ranked by self time per round (share of the \
             {round:.3} ms workspace round):",
            self.workload.name()
        );
        for (i, (name, ms)) in self.ledger.iter().enumerate() {
            println!(
                "  {:>2}. {:<26} {:>10.4} ms {:>7.1}%",
                i + 1,
                name,
                ms,
                100.0 * ratio(*ms, round)
            );
        }
        println!(
            "tracing overhead: traced replay {:.3} ms per round, {:+.1}% against the same \
             replay untraced",
            value("trace.replay_ms"),
            100.0 * value("trace.overhead_frac")
        );
        println!(
            "failed_frac {:.4} ({} of {} check(s) failed)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// The layer replay

/// One class as the replay keeps it, mirroring the workspace's caches.
struct ReplayClass {
    /// A single-class module, as the workspace hands to lints.
    solo: Module,
    /// `None` for classes without `@sys`.
    extraction: Option<ClassExtraction>,
}

/// What a replay round found, judged against the known answers.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
struct Findings {
    sys_classes: usize,
    errors: usize,
    e006: usize,
    violations: usize,
    degraded: usize,
}

/// The per-class stages of a workspace round, called one by one under
/// spans. `counts` collects the work counters (only the traced pass keeps
/// them).
struct Replay {
    recover: bool,
    classes: BTreeMap<String, ReplayClass>,
    specs: BTreeMap<String, ClassSpec>,
    counts: BTreeMap<&'static str, f64>,
    findings: Findings,
}

impl Replay {
    fn new(recover: bool) -> Self {
        Replay {
            recover,
            classes: BTreeMap::new(),
            specs: BTreeMap::new(),
            counts: BTreeMap::new(),
            findings: Findings::default(),
        }
    }

    fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    /// Parse, fingerprint and extract one file; returns its class names.
    fn load_file(&mut self, t: &mut Tracer, text: &str) -> Vec<String> {
        let recover = self.recover;
        let parsed = t.span("micropython.parse_ms", |_| {
            if recover {
                let module = micropython_parser::parse_module_recover(text);
                let degraded = micropython_parser::visit::collect_degraded(&module).len();
                Ok((module, degraded))
            } else {
                micropython_parser::parse_module(text).map(|m| (m, 0))
            }
        });
        self.count("parse.bytes", text.len() as f64);
        let Ok((module, degraded)) = parsed else {
            self.findings.errors += 1;
            return Vec::new();
        };
        self.count("micropython.degraded", degraded as f64);
        self.findings.degraded += degraded;
        let mut names = Vec::new();
        for stmt in module.body {
            let Stmt::ClassDef(class) = stmt else {
                continue;
            };
            let name = class.name.node.clone();
            let solo = Module {
                body: vec![Stmt::ClassDef(class)],
            };
            t.span("workspace.fingerprint_ms", |_| {
                black_box(micropython_parser::printer::print_module(&solo).len())
            });
            let mut diags = Diagnostics::new();
            let extraction = t.span("extract.ms", |_| {
                let class = solo.classes().next().expect("solo modules hold one class");
                let extraction = extract_class(class, &mut diags);
                if let Some(x) = &extraction {
                    validate_spec(x.spec(), &mut diags);
                }
                extraction
            });
            self.note(&diags);
            if let Some(x) = &extraction {
                self.findings.sys_classes += 1;
                self.specs.insert(name.clone(), x.spec().clone());
            }
            self.classes
                .insert(name.clone(), ReplayClass { solo, extraction });
            names.push(name);
        }
        names
    }

    fn note(&mut self, diags: &Diagnostics) {
        self.findings.errors += diags.errors().count();
        self.findings.e006 += diags.by_code(codes::NO_INITIAL_OPERATION).count();
    }

    fn resolve(&mut self, t: &mut Tracer, name: &str) -> Option<System> {
        let extraction = self.classes.get(name)?.extraction.clone()?;
        let specs = &self.specs;
        let mut diags = Diagnostics::new();
        let system = t.span("resolve.ms", |_| {
            resolve_class(extraction, specs, &mut diags)
        });
        self.note(&diags);
        Some(system)
    }

    /// The full verification of one class: resolution, the lint passes,
    /// typestate, integration, usage inclusion and claims.
    fn verify(&mut self, t: &mut Tracer, name: &str) {
        let Some(system) = self.resolve(t, name) else {
            return;
        };
        let scope = verify_scope(&system, &self.specs);
        let solo = &self.classes[name].solo;
        let mut diags = Diagnostics::new();
        t.span("lint.ms", |t| {
            let ctx = LintContext {
                module: solo,
                systems: &scope,
            };
            for pass in default_passes() {
                let span = match pass.name() {
                    "unreachable-code" => "lint.unreachable_ms",
                    "init-order" => "lint.init_order_ms",
                    "sibling-operation-calls" => "lint.self_calls_ms",
                    _ => "lint.typestate_ms",
                };
                t.span(span, |_| pass.run(&ctx, &mut diags));
            }
        });
        let class: Option<&ClassDef> = solo.class(&system.name);
        let proven = t.span("typestate.ms", |_| {
            pipeline::proven_fields(class, &system, &scope)
        });
        let integration = system
            .is_composite()
            .then(|| t.span("integration.ms", |_| build_integration(&system)));
        let mut work: Vec<(&'static str, f64)> = Vec::new();
        if let (Some(info), Some(integ)) = (system.composite(), &integration) {
            let (checked, search) = t.span("usage.ms", |_| {
                check_usage_counted(&system, &scope, integ, &proven)
            });
            let fields = info.subsystems.len();
            work.extend([
                ("typestate.fields", fields as f64),
                ("typestate.proven", proven.len() as f64),
                ("usage.checks", (fields - proven.len().min(fields)) as f64),
                ("usage.antichain_frontier", search.frontier as f64),
                ("usage.antichain_pruned", search.pruned as f64),
                ("integration.states", integ.nfa.num_states() as f64),
            ]);
            self.findings.violations += usize::from(checked.is_err());
        }
        let violations = t.span("claims.ms", |_| {
            check_claims(&system, integration.as_ref(), Backend::Auto, &mut diags)
        });
        self.findings.violations += violations.len();
        work.push(("claims.count", system.claims.len() as f64));
        work.push(("claims.symbolic", symbolic_claims(&system) as f64));
        self.note(&diags);
        for (name, value) in work {
            self.count(name, value);
        }
    }

    /// The verification of a class restored from the on-disk cache:
    /// resolution, plus the integration automaton for composites.
    fn restore(&mut self, t: &mut Tracer, name: &str) {
        let Some(system) = self.resolve(t, name) else {
            return;
        };
        if system.is_composite() {
            let integ = t.span("integration.ms", |_| build_integration(&system));
            self.count("integration.states", integ.nfa.num_states() as f64);
        }
    }

    /// Moves the counters and findings out (the untraced pass drops them).
    fn take(&mut self) -> (BTreeMap<&'static str, f64>, Findings) {
        (
            std::mem::take(&mut self.counts),
            std::mem::take(&mut self.findings),
        )
    }
}

/// The class plus spec-only stand-ins for its subsystems — the scope the
/// workspace verifies a class in.
fn verify_scope(system: &System, specs: &BTreeMap<String, ClassSpec>) -> SystemSet {
    let mut scope = vec![system.clone()];
    if let SystemKind::Composite(info) = &system.kind {
        for sub in &info.subsystems {
            if sub.class_name == system.name || scope.iter().any(|s| s.name == sub.class_name) {
                continue;
            }
            if let Some(spec) = specs.get(&sub.class_name) {
                scope.push(System {
                    name: sub.class_name.clone(),
                    kind: SystemKind::Base,
                    spec: spec.clone(),
                    claims: Vec::new(),
                });
            }
        }
    }
    scope.into_iter().collect()
}

/// Claims `Backend::Auto` routes to the symbolic engine.
fn symbolic_claims(system: &System) -> usize {
    system
        .claims
        .iter()
        .filter(|claim| {
            let mut scratch = shelley_regular::Alphabet::new();
            shelley_ltlf::parse_formula(&claim.formula, &mut scratch)
                .is_ok_and(|f| Backend::Auto.resolve(&f.negate()) == Backend::Symbolic)
        })
        .count()
}

/// Runs `round` twice — traced and untraced, alternating which goes first
/// so neither always meets the colder caches — and books both times, the
/// traced pass's counters, and its findings.
fn replay_twice(
    acc: &mut Acc,
    tracer: &mut Tracer,
    replay: &mut Replay,
    mut round: impl FnMut(&mut Tracer, &mut Replay),
) -> Findings {
    fn untraced(
        tracer: &mut Tracer,
        replay: &mut Replay,
        round: &mut impl FnMut(&mut Tracer, &mut Replay),
    ) -> f64 {
        tracer.on = false;
        let t = Instant::now();
        round(tracer, replay);
        let elapsed = ms_since(t);
        replay.take();
        elapsed
    }
    let untraced_first = acc.rounds.is_multiple_of(2);
    let mut elapsed = if untraced_first {
        untraced(tracer, replay, &mut round)
    } else {
        0.0
    };
    tracer.on = true;
    tracer.span("trace.replay_ms", |t| round(t, replay));
    let (counts, findings) = replay.take();
    if !untraced_first {
        elapsed = untraced(tracer, replay, &mut round);
    }
    acc.add("trace.untraced_ms", elapsed);
    for (name, value) in counts {
        acc.add(name, value);
    }
    findings
}

// ---------------------------------------------------------------------------
// Workloads

/// Runs the traced replay of `workload` for about `ctx.seconds`.
pub fn run(workload: Workload, ctx: &Ctx) -> Traced {
    let mut acc = Acc::default();
    let mut tracer = Tracer::new();
    let outcome = match workload {
        Workload::CiCold => {
            let project = ServeProject::new();
            let answer = CheckAnswer::Pass {
                systems: project.classes(),
            };
            let findings = Findings {
                sys_classes: project.classes(),
                ..Findings::default()
            };
            cold(
                ctx,
                &mut acc,
                &mut tracer,
                &project.files,
                false,
                &answer,
                findings,
            )
        }
        Workload::Corpus => {
            let corpus = Corpus::new();
            let answer = CheckAnswer::Fail {
                e006: corpus.spec_errors,
                w014: corpus.degraded,
                errors: corpus.spec_errors,
            };
            let findings = Findings {
                sys_classes: corpus.sys_classes,
                errors: corpus.spec_errors,
                e006: corpus.spec_errors,
                violations: 0,
                degraded: corpus.degraded,
            };
            cold(
                ctx,
                &mut acc,
                &mut tracer,
                &corpus.files,
                true,
                &answer,
                findings,
            )
        }
        Workload::Editor => editor(ctx, &mut acc, &mut tracer),
        Workload::Restart => restart(ctx, &mut acc, &mut tracer),
    };
    if let Err(e) = outcome {
        acc.broken(e);
    }
    let path = Path::new("perfbench/work/traces").join(format!("{}.json", workload.name()));
    Traced::finish(workload, acc, &tracer, &path)
}

fn judge_findings(acc: &mut Acc, got: Findings, want: Findings) {
    acc.judge(if got == want {
        Ok(())
    } else {
        Err(Mismatch(format!(
            "layer replay found {got:?}, expected {want:?}"
        )))
    });
}

fn workspace(recover: bool) -> Workspace {
    Checker::new().jobs(1).recover(recover).into_workspace()
}

/// `ci_cold` and `corpus_recover`: a cold one-shot check of every file.
fn cold(
    ctx: &Ctx,
    acc: &mut Acc,
    tracer: &mut Tracer,
    files: &[(String, String)],
    recover: bool,
    answer: &CheckAnswer,
    want: Findings,
) -> io::Result<()> {
    let dir = ctx.work.join("src");
    write_files(&dir, files)?;
    let flags: &[&str] = if recover {
        &["--jobs", "1", "--recover"]
    } else {
        &["--jobs", "1"]
    };
    let args = check_args(flags, files, ctx.seed);
    let project: Vec<ProjectFile> = files
        .iter()
        .map(|(n, t)| ProjectFile::new(n.clone(), t.clone()))
        .collect();

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while acc.rounds < 2 || Instant::now() < deadline {
        acc.rounds += 1;

        // The real round.
        let mut ws = workspace(recover);
        for (name, text) in files {
            ws.set_file(name.clone(), text.clone());
        }
        let t = Instant::now();
        let checked = ws.check();
        acc.round(ms_since(t), ws.last_round());
        match checked {
            Ok(checked) => {
                let summary = CheckSummary::new(&checked, ws.last_round().clone());
                let out = summary.render_text();
                acc.judge(answer.judge(Some(if summary.passed { 0 } else { 1 }), &out));
            }
            Err(e) => acc.judge(Err(Mismatch(format!("parse failure: {e}")))),
        }
        drop(ws);

        // The layer replay, traced and untraced.
        let mut replay = Replay::new(recover);
        let findings = replay_twice(acc, tracer, &mut replay, |t, replay| {
            replay.classes.clear();
            replay.specs.clear();
            let mut names = Vec::new();
            for (_, text) in files {
                names.extend(replay.load_file(t, text));
            }
            for name in &names {
                replay.verify(t, name);
            }
        });
        judge_findings(acc, findings, want);

        // The CLI around the round: the process against the same check in
        // process, and the report rendering.
        let t = Instant::now();
        let checked = Checker::new()
            .jobs(1)
            .recover(recover)
            .check_files(&project);
        let in_process = ms_since(t);
        if let Ok(checked) = &checked {
            tracer.on = true;
            tracer.span("cli.render_ms", |_| {
                black_box(checked.report.render(None).len())
            });
        }
        let t = Instant::now();
        let (exit, stdout) = process::run(&ctx.shelleyc, &dir, &args)?;
        acc.add("cli.overhead_ms", ms_since(t) - in_process);
        acc.judge(answer.judge(exit.code, &stdout));
    }
    Ok(())
}

/// Encodes `value` as a wire line and decodes it back, timing both.
/// Returns the decoded value and the line's length with its newline.
fn wire_round_trip<T: serde::Serialize + serde::Deserialize>(
    acc: &mut Acc,
    value: &T,
) -> Result<(T, usize), Mismatch> {
    let t = Instant::now();
    let line = json::to_string(value);
    acc.add("api.encode_ms", ms_since(t));
    let t = Instant::now();
    let back = json::from_str::<T>(&line);
    acc.add("api.decode_ms", ms_since(t));
    back.map(|v| (v, line.len() + 1))
        .map_err(|e| Mismatch(format!("wire round trip failed: {e}")))
}

/// Sends one request through an in-process `Engine`, the way the socket
/// transport does: decode the request, handle it, encode every reply.
/// Returns the handle time in ms and the final reply body.
fn engine_call(
    acc: &mut Acc,
    engine: &mut shelley_daemon::Engine,
    id: u64,
    method: Method,
) -> Result<(f64, ReplyBody), Mismatch> {
    let (request, _) = wire_round_trip(acc, &Request { id, method })?;
    let mut replies = Vec::new();
    let t = Instant::now();
    engine.handle(request, &mut |reply| replies.push(reply));
    let handle = ms_since(t);
    let mut last = None;
    for reply in &replies {
        let (reply, bytes) = wire_round_trip::<Reply>(acc, reply)?;
        acc.add("api.reply_bytes", bytes as f64);
        last = Some(reply.body);
    }
    last.map(|body| (handle, body))
        .ok_or_else(|| Mismatch("engine sent no reply".into()))
}

fn summary_of(body: Result<(f64, ReplyBody), Mismatch>) -> Result<(f64, CheckSummary), Mismatch> {
    match body? {
        (ms, ReplyBody::Check { summary }) => Ok((ms, summary)),
        (_, other) => Err(Mismatch(format!("expected a check summary, got {other:?}"))),
    }
}

/// `editor_1k`: seeded blocks of leaf edits, base edits and rechecks on a
/// warm 1k-class project.
fn editor(ctx: &Ctx, acc: &mut Acc, tracer: &mut Tracer) -> io::Result<()> {
    let project = ServeProject::new();
    let classes = project.classes();
    let mut rng = Rng::new(ctx.seed);
    let opens = open_order(&project, &mut rng);

    // Four warm replicas of the same project: the workspace (round
    // timings), the engine (daemon handling + wire), the layer replay, and
    // a real `--jobs 1` daemon (transport).
    let mut ws = workspace(false);
    let mut engine = shelley_daemon::Engine::new(Checker::new().jobs(1));
    let mut replay = Replay::new(false);
    let mut id = 0u64;
    for &(name, text) in &opens {
        ws.set_file(name, text);
        id += 1;
        engine.handle(
            Request {
                id,
                method: Method::Open {
                    path: name.into(),
                    text: text.into(),
                },
            },
            &mut |_| {},
        );
        replay.load_file(tracer, text);
    }
    let cold = RoundAnswer {
        systems: classes,
        verified: classes as u64,
        disk_hits: 0,
    };
    acc.judge(match ws.check() {
        Ok(checked) => cold.judge(&CheckSummary::new(&checked, ws.last_round().clone())),
        Err(e) => Err(Mismatch(format!("parse failure: {e}"))),
    });
    id += 1;
    acc.judge(
        summary_of(engine_call(
            &mut Acc::default(),
            &mut engine,
            id,
            Method::Check,
        ))
        .and_then(|(_, s)| cold.judge(&s)),
    );
    replay.take();
    // Which apps drive each device, from the replay's extractions.
    let mut dependents: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, class) in &replay.classes {
        if let Some(x) = &class.extraction {
            for dep in x.dependencies() {
                dependents
                    .entry(dep.to_string())
                    .or_default()
                    .push(name.clone());
            }
        }
    }
    let socket = ctx.work.join("traced.sock");
    std::fs::create_dir_all(&ctx.work)?;
    let mut daemon = Daemon::spawn(&ctx.shelleyc, &socket, None, Some(1))?;
    let mut client = daemon.connect(&opens)?;
    acc.judge(cold.judge(&client.check()?));

    let mut edited = vec![false; project.files.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while acc.rounds < 3 || Instant::now() < deadline {
        for op in EditorOp::block(&mut rng) {
            acc.rounds += 1;
            let target = op.target(&project, &mut rng);
            let edit = target.map(|f| {
                (
                    f,
                    project.files[f].0.clone(),
                    toggle(&project, &mut edited, f),
                )
            });
            let answer = RoundAnswer {
                systems: classes,
                verified: target.map_or(0, |f| project.reverified_after_edit(f)),
                disk_hits: 0,
            };

            // The real round and the engine with the wire, in alternating
            // order so neither always runs on the colder caches.
            let mut round = 0.0;
            let mut handle = 0.0;
            let mut wire = Acc::default();
            let engine_first = acc.rounds.is_multiple_of(2);
            for engine_step in [engine_first, !engine_first] {
                if !engine_step {
                    // The real round.
                    if let Some((_, name, text)) = &edit {
                        ws.set_file(name.clone(), text.clone());
                    }
                    let t = Instant::now();
                    let checked = ws.check();
                    round = ms_since(t);
                    acc.round(round, ws.last_round());
                    acc.judge(match checked {
                        Ok(checked) => {
                            answer.judge(&CheckSummary::new(&checked, ws.last_round().clone()))
                        }
                        Err(e) => Err(Mismatch(format!("parse failure: {e}"))),
                    });
                } else {
                    // The engine and the wire.
                    if let Some((_, name, text)) = &edit {
                        id += 1;
                        match engine_call(
                            &mut wire,
                            &mut engine,
                            id,
                            Method::Open {
                                path: name.clone(),
                                text: text.clone(),
                            },
                        ) {
                            Ok((ms, _)) => handle += ms,
                            Err(m) => acc.judge(Err(m)),
                        }
                    }
                    id += 1;
                    acc.judge(
                        summary_of(engine_call(&mut wire, &mut engine, id, Method::Check))
                            .and_then(|(ms, summary)| {
                                handle += ms;
                                answer.judge(&summary)
                            }),
                    );
                }
            }
            acc.add("daemon.handle_ms", handle - round);

            // The layer replay.
            let findings = replay_twice(acc, tracer, &mut replay, |t, replay| {
                let mut reverify = Vec::new();
                if let Some((_, _, text)) = &edit {
                    for name in replay.load_file(t, text) {
                        reverify.extend(dependents.get(&name).into_iter().flatten().cloned());
                        reverify.push(name);
                    }
                }
                for name in &reverify {
                    replay.verify(t, name);
                }
            });
            judge_findings(
                acc,
                findings,
                Findings {
                    sys_classes: usize::from(edit.is_some()),
                    ..Findings::default()
                },
            );

            // The real daemon over its socket.
            let t = Instant::now();
            if let Some((_, name, text)) = &edit {
                client.open(name.clone(), text.clone())?;
            }
            let summary = client.check()?;
            let rtt = ms_since(t);
            acc.judge(answer.judge(&summary));
            acc.add("daemon.transport_ms", rtt - handle - wire.wire_ms());
            acc.absorb(wire);
        }
    }
    client.shutdown()?;
    daemon.wait()?;
    Ok(())
}

/// `restart_1k`: a fresh workspace per round, loading the cache saved in
/// set-up, checking, and saving again.
fn restart(ctx: &Ctx, acc: &mut Acc, tracer: &mut Tracer) -> io::Result<()> {
    let project = ServeProject::new();
    let classes = project.classes();
    let opens = open_order(&project, &mut Rng::new(ctx.seed));
    std::fs::create_dir_all(&ctx.work)?;
    let cache = ctx.work.join("cache.ndjson");
    let socket = ctx.work.join("traced.sock");
    let fill = |ws: &mut Workspace| {
        for &(name, text) in &opens {
            ws.set_file(name, text);
        }
    };
    let mut seed = workspace(false);
    fill(&mut seed);
    if let Err(e) = seed.check() {
        acc.judge(Err(Mismatch(format!("parse failure: {e}"))));
    }
    seed.save_disk_cache(&cache)?;
    drop(seed);
    let answer = RoundAnswer {
        systems: classes,
        verified: classes as u64,
        disk_hits: classes as u64,
    };

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while acc.rounds < 2 || Instant::now() < deadline {
        acc.rounds += 1;

        // The real round (between a cache load and a cache save) and the
        // engine with the wire, in alternating order so neither always
        // runs on the colder caches.
        let mut round = 0.0;
        let mut handle = 0.0;
        let mut wire = Acc::default();
        let engine_first = acc.rounds.is_multiple_of(2);
        for engine_step in [engine_first, !engine_first] {
            if !engine_step {
                // The real round, between a cache load and a cache save.
                let mut ws = workspace(false);
                let t = Instant::now();
                let loaded = ws.load_disk_cache(&cache);
                acc.add("persist.load_ms", ms_since(t));
                acc.add("persist.records", loaded.entries.len() as f64);
                acc.add("persist.bytes", std::fs::metadata(&cache)?.len() as f64);
                fill(&mut ws);
                let t = Instant::now();
                let checked = ws.check();
                round = ms_since(t);
                acc.round(round, ws.last_round());
                acc.judge(match checked {
                    Ok(checked) => {
                        answer.judge(&CheckSummary::new(&checked, ws.last_round().clone()))
                    }
                    Err(e) => Err(Mismatch(format!("parse failure: {e}"))),
                });
                let t = Instant::now();
                ws.save_disk_cache(&cache)?;
                acc.add("persist.save_ms", ms_since(t));
                drop(ws);
            } else {
                // The engine and the wire: 1000 opens and a check.
                let (mut engine, _) =
                    shelley_daemon::Engine::new(Checker::new().jobs(1)).with_cache(&cache);
                let mut id = 0;
                for &(name, text) in &opens {
                    id += 1;
                    match engine_call(
                        &mut wire,
                        &mut engine,
                        id,
                        Method::Open {
                            path: name.into(),
                            text: text.into(),
                        },
                    ) {
                        Ok((ms, _)) => handle += ms,
                        Err(m) => acc.judge(Err(m)),
                    }
                }
                acc.judge(
                    summary_of(engine_call(&mut wire, &mut engine, id + 1, Method::Check))
                        .and_then(|(ms, summary)| {
                            handle += ms;
                            answer.judge(&summary)
                        }),
                );
            }
        }
        acc.add("daemon.handle_ms", handle - round);

        // The layer replay of a restored round.
        let mut replay = Replay::new(false);
        let findings = replay_twice(acc, tracer, &mut replay, |t, replay| {
            replay.classes.clear();
            replay.specs.clear();
            let mut names = Vec::new();
            for &(_, text) in &opens {
                names.extend(replay.load_file(t, text));
            }
            for name in &names {
                replay.restore(t, name);
            }
        });
        judge_findings(
            acc,
            findings,
            Findings {
                sys_classes: classes,
                ..Findings::default()
            },
        );

        // A real `--jobs 1` daemon over its socket: the same opens and
        // check, timed once it listens.
        let mut daemon = Daemon::spawn(&ctx.shelleyc, &socket, Some(&cache), Some(1))?;
        daemon.wait_listening()?;
        let t = Instant::now();
        let mut client = daemon.connect(&opens)?;
        let summary = client.check()?;
        let rtt = ms_since(t);
        acc.judge(answer.judge(&summary));
        client.shutdown()?;
        daemon.wait()?;
        acc.add("daemon.transport_ms", rtt - handle - wire.wire_ms());
        acc.absorb(wire);
    }
    Ok(())
}
