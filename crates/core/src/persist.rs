//! The persistent on-disk verification cache.
//!
//! A long-lived [`Workspace`](crate::workspace::Workspace) already reuses
//! verify-stage products across rounds through in-memory fingerprint
//! caches; this module carries those products across *process restarts*.
//! `shelleyc serve` loads the cache on startup and saves it on shutdown,
//! so a restarted daemon re-verifies only classes whose content (or whose
//! dependencies' content) actually changed.
//!
//! # What is persisted
//!
//! One [`SavedVerify`] per `(class fingerprint, dependency fingerprint)`
//! pair — the same content-addressed key the in-memory verify cache uses.
//! The record stores the *analysis results* (lint diagnostics, verdict
//! diagnostics, usage/claim violations, fast-path counts) but not the
//! resolved [`System`](crate::system::System) or integration automaton:
//! those are cheap, deterministic functions of the source and are rebuilt
//! on restore, which keeps the file format small and free of automaton
//! internals. The expensive passes — lints, the typestate analysis,
//! language-inclusion usage checking, and LTLf claim checking — are
//! skipped entirely on a hit.
//!
//! # File format
//!
//! Newline-delimited JSON with a versioned header:
//!
//! ```text
//! {"magic":"shelleyc-cache","format":4,"analysis":4242}
//! {"class_fp":123,"dep_fp":456,"saved":{...},"sum":7878}
//! {"class_fp":789,"dep_fp":101,"saved":{...},"sum":9191}
//! ```
//!
//! `format` versions the record layout and the meaning of its keys;
//! `analysis` is the [`analysis_stamp`] of the build that wrote the file,
//! so records computed by a build whose analyses may differ (another crate
//! version or diagnostic registry) are never replayed.
//!
//! A change to what a key covers, or a soundness fix to an analysis, must
//! bump [`CACHE_FORMAT`] or the analysis stamp even when the crate version
//! and the [`REGISTRY`] are unchanged: otherwise a new build would replay
//! records an old build keyed or computed differently. Format 3, for
//! example, keys each class by its own source bytes where format 2 keyed
//! it by its printed AST, which missed comment and whitespace edits that
//! move spans; format 4 adds the per-record checksum.
//!
//! Each record carries `sum`, an FNV-1a checksum over its key and its
//! serialized `saved` payload, so a record whose bytes changed on disk —
//! a flipped bit that still parses — is rejected instead of replaying a
//! wrong verdict under a right key, or a right verdict under a wrong one.
//!
//! Saving writes to a temporary file in the same directory and renames it
//! into place, so readers never observe a half-written cache. Loading is
//! corruption-tolerant: a missing file or foreign header yields an empty
//! cache, and a malformed record line — a torn tail, or a record whose
//! checksum does not match — is skipped and counted while every other
//! record is kept. A stale or smaller cache only costs re-verification,
//! never correctness.

use crate::diagnostics::{Diagnostics, Severity, REGISTRY};
use crate::verify::claims::ClaimViolation;
use crate::verify::usage::UsageViolation;
use serde::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// First-line marker distinguishing cache files from arbitrary JSON.
pub const CACHE_MAGIC: &str = "shelleyc-cache";

/// On-disk format version; bump on any incompatible record change and
/// on any change to what a key covers (see the [module docs](self)).
///
/// A loaded file with a different version is ignored wholesale — the
/// cache is a pure accelerator, so "ignore and rebuild" is always safe.
pub const CACHE_FORMAT: u32 = 4;

/// The analysis version a cache file is stamped with: FNV-1a over the
/// crate version and every `(code, default severity)` pair of the
/// diagnostic [`REGISTRY`].
///
/// A file carrying another stamp is ignored wholesale, like a format
/// mismatch: its records may hold findings this build would not produce.
pub fn analysis_stamp() -> u64 {
    let mut parts: Vec<&[u8]> = vec![env!("CARGO_PKG_VERSION").as_bytes()];
    for info in REGISTRY {
        let severity: &[u8] = match info.default_severity {
            Severity::Warning => b"warning",
            Severity::Error => b"error",
        };
        parts.extend([info.code.as_bytes(), severity]);
    }
    crate::workspace::fnv1a(&parts)
}

/// The persisted verify-stage products of one class.
///
/// Restoring an entry replays these results after re-running only the
/// cheap, deterministic resolution step (and integration construction for
/// composites) — see
/// [`Workspace::check`](crate::workspace::Workspace::check).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SavedVerify {
    /// Per-class lint diagnostics (including typestate findings).
    pub lint_diags: Diagnostics,
    /// Verification diagnostics (`E100`/`E101` blocks, claim-parse errors).
    pub verdict_diags: Diagnostics,
    /// `INVALID SUBSYSTEM USAGE` failures of this class.
    pub usage_violations: Vec<UsageViolation>,
    /// `FAIL TO MEET REQUIREMENT` failures of this class.
    pub claim_violations: Vec<ClaimViolation>,
    /// Inclusion checks the typestate analysis proved away.
    pub fast_path_skips: usize,
}

/// One cache line: the content-addressed key, the saved products, and
/// the checksum over both ([`record_sum`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Record {
    class_fp: u64,
    dep_fp: u64,
    saved: SavedVerify,
    sum: u64,
}

/// The serialized payload of a record line as written by [`save`]: the
/// bytes between `"saved":` and the trailing `,"sum":` field.
fn record_payload(line: &str) -> Option<&str> {
    let start = line.find("\"saved\":")? + "\"saved\":".len();
    let end = line.rfind(",\"sum\":")?;
    line.get(start..end)
}

/// FNV-1a over a record's key and its serialized payload.
fn record_sum(class_fp: u64, dep_fp: u64, payload: &str) -> u64 {
    crate::workspace::fnv1a(&[
        &class_fp.to_le_bytes(),
        &dep_fp.to_le_bytes(),
        payload.as_bytes(),
    ])
}

/// The header line of a cache file.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Header {
    magic: String,
    format: u32,
    /// Absent in format-1 files, which the format check rejects first.
    analysis: Option<u64>,
}

/// What [`load`] recovered, plus how much it had to discard.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Usable records, keyed by `(class fingerprint, dep fingerprint)`.
    pub entries: HashMap<(u64, u64), Arc<SavedVerify>>,
    /// Record lines dropped as malformed (a torn tail after a crash) or
    /// corrupt (a checksum mismatch).
    pub skipped_lines: usize,
    /// Why the whole file was ignored, when it was (missing file, foreign
    /// header, format or analysis-stamp mismatch).
    pub rejected: Option<String>,
}

/// Loads a cache file, recovering every record before the first sign of
/// corruption. Never fails: any problem degrades to a smaller (possibly
/// empty) cache.
pub fn load(path: &Path) -> LoadOutcome {
    let mut outcome = LoadOutcome::default();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            outcome.rejected = Some(format!("cannot read {}: {e}", path.display()));
            return outcome;
        }
    };
    let mut lines = text.lines();
    let header: Header = match lines.next().map(json::from_str) {
        Some(Ok(header)) => header,
        Some(Err(e)) => {
            outcome.rejected = Some(format!("bad cache header: {e}"));
            return outcome;
        }
        None => {
            outcome.rejected = Some("empty cache file".to_string());
            return outcome;
        }
    };
    if header.magic != CACHE_MAGIC {
        outcome.rejected = Some(format!("foreign cache magic `{}`", header.magic));
        return outcome;
    }
    if header.format != CACHE_FORMAT {
        outcome.rejected = Some(format!(
            "cache format {} (this build speaks {CACHE_FORMAT})",
            header.format
        ));
        return outcome;
    }
    let stamp = analysis_stamp();
    if header.analysis != Some(stamp) {
        outcome.rejected = Some(format!(
            "cache analysis stamp {} (this build's is {stamp})",
            header
                .analysis
                .map_or_else(|| "missing".to_string(), |a| a.to_string())
        ));
        return outcome;
    }
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::from_str::<Record>(line);
        match (record, record_payload(line)) {
            (Ok(record), Some(payload))
                if record.sum == record_sum(record.class_fp, record.dep_fp, payload) =>
            {
                outcome
                    .entries
                    .insert((record.class_fp, record.dep_fp), Arc::new(record.saved));
            }
            _ => outcome.skipped_lines += 1,
        }
    }
    outcome
}

/// Atomically writes `entries` to `path` (temp file + rename). Returns
/// the number of records written.
pub fn save<'a, I>(path: &Path, entries: I) -> io::Result<usize>
where
    I: IntoIterator<Item = ((u64, u64), &'a SavedVerify)>,
{
    let mut out = String::new();
    out.push_str(&json::to_string(&Header {
        magic: CACHE_MAGIC.to_string(),
        format: CACHE_FORMAT,
        analysis: Some(analysis_stamp()),
    }));
    out.push('\n');
    let mut count = 0;
    for ((class_fp, dep_fp), saved) in entries {
        // The line `Record` serializes to, with the payload serialized
        // once for both the line and its checksum.
        let payload = json::to_string(saved);
        let sum = record_sum(class_fp, dep_fp, &payload);
        let _ = writeln!(
            out,
            "{{\"class_fp\":{class_fp},\"dep_fp\":{dep_fp},\"saved\":{payload},\"sum\":{sum}}}"
        );
        count += 1;
    }
    let tmp = path.with_extension("tmp");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{codes, Diagnostic};

    fn sample_saved() -> SavedVerify {
        let mut lint_diags = Diagnostics::new();
        lint_diags.push(Diagnostic::warning(codes::IMPLICIT_RETURN, "implicit"));
        SavedVerify {
            lint_diags,
            verdict_diags: Diagnostics::new(),
            usage_violations: Vec::new(),
            claim_violations: Vec::new(),
            fast_path_skips: 2,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shelley-persist-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.ndjson")
    }

    #[test]
    fn save_then_load_round_trips() {
        let path = temp_path("roundtrip");
        let saved = sample_saved();
        let n = save(&path, vec![((1u64, 2u64), &saved), ((3, 4), &saved)]).unwrap();
        assert_eq!(n, 2);
        let outcome = load(&path);
        assert!(outcome.rejected.is_none(), "{:?}", outcome.rejected);
        assert_eq!(outcome.skipped_lines, 0);
        assert_eq!(outcome.entries.len(), 2);
        assert_eq!(*outcome.entries[&(1, 2)], saved);
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let path = temp_path("torn");
        let saved = sample_saved();
        save(&path, vec![((1u64, 2u64), &saved), ((3, 4), &saved)]).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Simulate a crash mid-write of the last record.
        text.truncate(text.len() - 20);
        std::fs::write(&path, text).unwrap();
        let outcome = load(&path);
        assert!(outcome.rejected.is_none());
        assert_eq!(outcome.entries.len(), 1);
        assert_eq!(outcome.skipped_lines, 1);
    }

    #[test]
    fn foreign_or_future_files_are_ignored_wholesale() {
        let path = temp_path("foreign");
        std::fs::write(&path, "{\"something\":\"else\"}\n").unwrap();
        assert!(load(&path).rejected.is_some());

        std::fs::write(
            &path,
            format!(
                "{{\"magic\":\"{CACHE_MAGIC}\",\"format\":{}}}\n",
                CACHE_FORMAT + 1
            ),
        )
        .unwrap();
        let outcome = load(&path);
        assert!(outcome.rejected.unwrap().contains("format"));

        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(load(&path).rejected.is_some());

        let missing = temp_path("missing-dir").with_file_name("never-written.ndjson");
        assert!(load(&missing).rejected.is_some());
    }

    #[test]
    fn another_analysis_stamp_rejects_the_file_and_the_next_round_runs_cold() {
        use crate::lint::LintConfig;
        use crate::workspace::{tests::composites_project, Workspace};

        let path = temp_path("stamp");
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let cold = ws.check().unwrap();
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 4);

        // The file this build wrote restores every class.
        let mut restored = Workspace::with_config(LintConfig::default(), 1);
        restored.set_file("a.py", composites_project(3));
        assert!(restored.load_disk_cache(&path).rejected.is_none());
        restored.check().unwrap();
        assert_eq!(restored.last_round().verify_disk_hits, 4);

        // The same records under another build's stamp restore none.
        let stamp = analysis_stamp();
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, records) = text.split_once('\n').unwrap();
        assert!(
            header.contains(&format!("\"analysis\":{stamp}")),
            "{header}"
        );
        let header = header.replace(&stamp.to_string(), &(stamp ^ 1).to_string());
        std::fs::write(&path, format!("{header}\n{records}")).unwrap();

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let outcome = ws.load_disk_cache(&path);
        assert!(outcome.entries.is_empty());
        let reason = outcome.rejected.expect("a foreign stamp rejects the file");
        assert!(reason.contains("analysis stamp"), "{reason}");
        let checked = ws.check().unwrap();
        assert_eq!(ws.last_round().verify_disk_hits, 0);
        assert_eq!(ws.last_round().verified, 4);
        assert_eq!(
            checked.report.render(None),
            cold.report.render(None),
            "the cold re-verification reaches the same verdicts"
        );
    }

    #[test]
    fn a_format_2_file_is_rejected_and_the_next_round_runs_cold() {
        use crate::lint::LintConfig;
        use crate::workspace::{tests::composites_project, Workspace};

        let path = temp_path("format2");
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let cold = ws.check().unwrap();
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 4);

        // The same records under the format-2 header, whose keys hashed
        // the printed AST, restore none.
        let text = std::fs::read_to_string(&path).unwrap();
        let current = format!("\"format\":{CACHE_FORMAT}");
        assert!(text.contains(&current), "{text}");
        std::fs::write(&path, text.replacen(&current, "\"format\":2", 1)).unwrap();

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let outcome = ws.load_disk_cache(&path);
        assert!(outcome.entries.is_empty());
        let reason = outcome.rejected.expect("a format-2 file is rejected");
        assert!(reason.contains("cache format 2"), "{reason}");
        let checked = ws.check().unwrap();
        assert_eq!(ws.last_round().verify_disk_hits, 0);
        assert_eq!(ws.last_round().verified, 4);
        assert_eq!(checked.report.render(None), cold.report.render(None));
    }

    #[test]
    fn a_current_format_header_without_a_stamp_is_rejected() {
        let path = temp_path("unstamped");
        std::fs::write(
            &path,
            format!("{{\"magic\":\"{CACHE_MAGIC}\",\"format\":{CACHE_FORMAT}}}\n"),
        )
        .unwrap();
        assert!(load(&path).rejected.unwrap().contains("missing"));
    }

    #[test]
    fn save_writes_the_line_a_record_serializes_to() {
        let path = temp_path("line");
        let saved = sample_saved();
        save(&path, vec![((1u64, 2u64), &saved)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().nth(1).unwrap();
        let record: Record = json::from_str(line).unwrap();
        assert_eq!(json::to_string(&record), line);
        assert_eq!(record.sum, record_sum(1, 2, &json::to_string(&saved)));
    }

    /// Saves the four records of `composites_project(3)`, rewrites the
    /// line of `User0`'s record with `corrupt`, and checks that the line
    /// still parses, that its record alone is rejected, and that a round
    /// on the loaded cache re-verifies `User0` alone and reports exactly
    /// what a cold check does.
    fn corrupted_record_is_rejected(name: &str, corrupt: impl Fn(&str) -> String) {
        use crate::lint::LintConfig;
        use crate::workspace::{tests::composites_project, Workspace};

        let path = temp_path(name);
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let cold = ws.check().unwrap();
        assert_eq!(ws.save_disk_cache(&path).unwrap(), 4);

        let text = std::fs::read_to_string(&path).unwrap();
        let mut hit = 0;
        let rewritten: Vec<String> = text
            .lines()
            .map(|line| {
                if line.contains("of `User0`") {
                    hit += 1;
                    let bad = corrupt(line);
                    assert_ne!(bad, line);
                    json::from_str::<Record>(&bad).expect("the corrupt line still parses");
                    bad
                } else {
                    line.to_string()
                }
            })
            .collect();
        assert_eq!(hit, 1, "{text}");
        std::fs::write(&path, rewritten.join("\n") + "\n").unwrap();

        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(3));
        let outcome = ws.load_disk_cache(&path);
        assert!(outcome.rejected.is_none());
        assert_eq!(outcome.skipped_lines, 1);
        assert_eq!(outcome.entries.len(), 3);
        let checked = ws.check().unwrap();
        assert_eq!(ws.last_round().verified, 4);
        assert_eq!(
            ws.last_round().verify_disk_hits,
            3,
            "User0 alone re-verified"
        );
        assert_eq!(checked.report.render(None), cold.report.render(None));
        assert_eq!(
            checked.report.diagnostics.render_json(None),
            cold.report.diagnostics.render_json(None)
        );
    }

    #[test]
    fn a_flipped_digit_in_a_message_rejects_only_its_record() {
        corrupted_record_is_rejected("message-digit", |line| {
            line.replacen("of `User0`", "of `User8`", 1)
        });
    }

    #[test]
    fn a_flipped_digit_in_a_class_fingerprint_rejects_only_its_record() {
        corrupted_record_is_rejected("key-digit", |line| {
            let key = "\"class_fp\":";
            let start = line.find(key).unwrap() + key.len();
            let end = start + line[start..].find(',').unwrap();
            // Decrementing (or, from 0, incrementing) the last digit
            // keeps the number a valid u64.
            let last = line.as_bytes()[end - 1];
            let flipped = if last == b'0' {
                '1'
            } else {
                (last - 1) as char
            };
            format!("{}{flipped}{}", &line[..end - 1], &line[end..])
        });
    }

    #[test]
    fn unknown_diagnostic_codes_poison_only_their_line() {
        let path = temp_path("badcode");
        let saved = sample_saved();
        save(&path, vec![((1u64, 2u64), &saved)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // A record whose diagnostic code no longer exists in the registry.
        let bad = text.replace("W003", "Z999");
        std::fs::write(&path, &bad).unwrap();
        let outcome = load(&path);
        assert!(outcome.rejected.is_none());
        assert_eq!(outcome.entries.len(), 0);
        assert_eq!(outcome.skipped_lines, 1);
    }
}
