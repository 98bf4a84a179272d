//! `servebench` — the cold / warm-restart / steady-state trajectory of
//! the persistent verify cache, on the ~1k-class synthetic workspace of
//! [`shelley_bench::serve_project`].
//!
//! Three modes of the same check, written to `BENCH_serve.json`:
//!
//! * **cold** — a fresh process with no cache: every class pays parse,
//!   extract, and the full verify (lints, typestate, inclusion, claims);
//! * **warm_restart** — a fresh process that loads the on-disk cache a
//!   previous run saved: every file is restored from its file record
//!   (nothing is parsed or extracted) and every class resolves, but the
//!   expensive analyses are restored from disk;
//! * **steady_state** — a re-check in a live workspace: everything is an
//!   in-memory fingerprint hit;
//! * **one_edit_leaf** — a live workspace re-checks after one app's
//!   operation body changed: that app alone is re-verified;
//! * **one_edit_base** — the same after one device's body changed: the
//!   device and the apps instantiating it are re-verified.
//!
//! The emitted `gate` asserts the cache pays for itself: a warm restart
//! must be at least 2x faster than a cold start, and it must parse no
//! file and extract no class. The runner exits nonzero when the gate
//! fails, so CI can call it directly.
//!
//! Run with `cargo run -p servebench --release [OUT.json]`.

use serde::{json, Value};
use shelley_core::{Checker, Workspace};
use std::time::Instant;

/// Classes in the synthetic workspace (~1k, the issue's target size).
const CLASSES: usize = 1000;

/// Timing repetitions; the median is reported.
const REPS: usize = 5;

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One measured mode: wall time plus the stats row proving which path
/// the round actually took.
struct Mode {
    name: &'static str,
    ns: u128,
    files_parsed: u64,
    extracted: u64,
    verified: u64,
    verify_disk_hits: u64,
    verify_cache_hits: u64,
    fast_path_proven: u64,
}

impl Mode {
    fn row(&self) -> Value {
        obj(vec![
            ("mode", Value::Str(self.name.to_string())),
            ("ns", Value::UInt(self.ns as u64)),
            ("files_parsed", Value::UInt(self.files_parsed)),
            ("extracted", Value::UInt(self.extracted)),
            ("verified", Value::UInt(self.verified)),
            ("verify_disk_hits", Value::UInt(self.verify_disk_hits)),
            ("verify_cache_hits", Value::UInt(self.verify_cache_hits)),
            ("fast_path_proven", Value::UInt(self.fast_path_proven)),
        ])
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn fill(workspace: &mut Workspace, files: &[(String, String)]) {
    for (name, text) in files {
        workspace.set_file(name.clone(), text.clone());
    }
}

/// `text` with one extra local assignment at the top of the body of the
/// operation `header` declares: a new class fingerprint, the same verdict.
fn edited(text: &str, header: &str) -> String {
    let at = text.find(header).expect("generator emits this operation") + header.len();
    format!("{}        edited = 1\n{}", &text[..at], &text[at..])
}

/// The median round of `live` after toggling `files[file]` between its
/// original and edited text, one edit per repetition.
fn one_edit(
    name: &'static str,
    live: &mut Workspace,
    files: &[(String, String)],
    file: usize,
    header: &str,
) -> Mode {
    let (path, original) = &files[file];
    let changed = edited(original, header);
    let mut probe = None;
    let ns = median(
        (0..REPS)
            .map(|rep| {
                let text = if rep % 2 == 0 { &changed } else { original };
                live.set_file(path.clone(), text.clone());
                let t = Instant::now();
                std::hint::black_box(live.check().expect("parses").report.passed());
                let ns = t.elapsed().as_nanos();
                probe = Some(mode_stats(name, ns, live));
                ns
            })
            .collect(),
    );
    if REPS % 2 == 1 {
        live.set_file(path.clone(), original.clone());
        live.check().expect("parses");
    }
    let mut mode = probe.expect("REPS > 0");
    mode.ns = ns;
    mode
}

fn mode_stats(name: &'static str, ns: u128, workspace: &Workspace) -> Mode {
    let round = workspace.last_round();
    Mode {
        name,
        ns,
        files_parsed: round.files_parsed,
        extracted: round.extracted,
        verified: round.verified,
        verify_disk_hits: round.verify_disk_hits,
        verify_cache_hits: round.verify_cache_hits,
        fast_path_proven: round.fast_path_proven,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let files = shelley_bench::serve_project(CLASSES);

    // Seed the on-disk cache once, and keep this workspace alive as the
    // steady-state subject.
    let cache = std::env::temp_dir().join(format!("servebench-{}.ndjson", std::process::id()));
    let mut live = Checker::new().into_workspace();
    fill(&mut live, &files);
    let checked = live.check().expect("synthetic workspace parses");
    assert!(
        checked.report.passed(),
        "synthetic workspace must verify:\n{}",
        checked.report.render(None)
    );
    let records = live.save_disk_cache(&cache).expect("cache saves");
    let cache_bytes = std::fs::metadata(&cache).map(|m| m.len()).unwrap_or(0);

    // Cold: fresh workspace, no cache.
    let mut cold_probe = None;
    let cold_ns = median(
        (0..REPS)
            .map(|_| {
                let mut ws = Checker::new().into_workspace();
                fill(&mut ws, &files);
                let t = Instant::now();
                std::hint::black_box(ws.check().expect("parses").report.passed());
                let ns = t.elapsed().as_nanos();
                cold_probe = Some(mode_stats("cold", ns, &ws));
                ns
            })
            .collect(),
    );
    let mut cold = cold_probe.expect("REPS > 0");
    cold.ns = cold_ns;

    // Warm restart: fresh workspace that loads the saved cache.
    let mut warm_probe = None;
    let warm_ns = median(
        (0..REPS)
            .map(|_| {
                let mut ws = Checker::new().into_workspace();
                let outcome = ws.load_disk_cache(&cache);
                assert!(outcome.rejected.is_none(), "{:?}", outcome.rejected);
                fill(&mut ws, &files);
                let t = Instant::now();
                std::hint::black_box(ws.check().expect("parses").report.passed());
                let ns = t.elapsed().as_nanos();
                warm_probe = Some(mode_stats("warm_restart", ns, &ws));
                ns
            })
            .collect(),
    );
    let mut warm = warm_probe.expect("REPS > 0");
    warm.ns = warm_ns;
    assert_eq!(
        warm.verify_disk_hits, warm.verified,
        "a warm restart must restore every class from disk"
    );

    // Steady state: the live workspace re-checks an unchanged project.
    let mut steady_probe = None;
    let steady_ns = median(
        (0..REPS)
            .map(|_| {
                fill(&mut live, &files);
                let t = Instant::now();
                std::hint::black_box(live.check().expect("parses").report.passed());
                let ns = t.elapsed().as_nanos();
                steady_probe = Some(mode_stats("steady_state", ns, &live));
                ns
            })
            .collect(),
    );
    let mut steady = steady_probe.expect("REPS > 0");
    steady.ns = steady_ns;

    // One-edit rounds: the first app file (one class re-verified) and
    // the first device file (the device plus its apps).
    let devices = (CLASSES / 20).max(1);
    let leaf = one_edit(
        "one_edit_leaf",
        &mut live,
        &files,
        devices,
        "    def run(self):\n",
    );
    assert_eq!(leaf.verified, 1, "a leaf edit re-verifies the leaf alone");
    let base = one_edit(
        "one_edit_base",
        &mut live,
        &files,
        0,
        "    def boot(self):\n",
    );
    assert_eq!(
        base.verified as usize,
        1 + (CLASSES - devices) / devices,
        "a base edit re-verifies the device and its apps"
    );

    let speedup = cold.ns as f64 / warm.ns.max(1) as f64;
    let parse_free = warm.files_parsed == 0 && warm.extracted == 0;
    let gate_ok = speedup >= 2.0 && parse_free;

    let doc = obj(vec![
        ("bench", Value::Str("serve_cache".to_string())),
        (
            "workload",
            Value::Str(format!(
                "serve_project({CLASSES}): device protocols + claim-carrying apps, \
                 every second app loop-imprecise (full inclusion check)"
            )),
        ),
        ("classes", Value::UInt(CLASSES as u64)),
        (
            "rows",
            Value::Seq(vec![
                cold.row(),
                warm.row(),
                steady.row(),
                leaf.row(),
                base.row(),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("records", Value::UInt(records as u64)),
                ("bytes", Value::UInt(cache_bytes)),
            ]),
        ),
        (
            "gate",
            obj(vec![
                ("warm_restart_at_least_2x_cold", Value::Bool(speedup >= 2.0)),
                ("warm_restart_parses_nothing", Value::Bool(parse_free)),
                (
                    "warm_restart_speedup",
                    Value::Float((speedup * 100.0).round() / 100.0),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out_path, json::to_string_pretty(&doc) + "\n").expect("write bench json");
    let _ = std::fs::remove_file(&cache);

    eprintln!(
        "cold {:.1}ms, warm restart {:.1}ms ({speedup:.2}x), steady state {:.2}ms, \
         one edit {:.2}ms leaf / {:.2}ms base -> {out_path}",
        cold.ns as f64 / 1e6,
        warm.ns as f64 / 1e6,
        steady.ns as f64 / 1e6,
        leaf.ns as f64 / 1e6,
        base.ns as f64 / 1e6,
    );
    assert!(
        parse_free,
        "GATE FAILED: warm restart parsed {} file(s) and extracted {} class(es) (need 0 and 0)",
        warm.files_parsed, warm.extracted
    );
    assert!(
        gate_ok,
        "GATE FAILED: warm restart only {speedup:.2}x faster than cold (need >= 2x)"
    );
}
