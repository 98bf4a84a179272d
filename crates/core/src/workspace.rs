//! The long-lived, parallel, incremental verification engine.
//!
//! A [`Workspace`] owns the parsed state of a project and re-verifies it
//! round after round, recomputing only what an edit actually invalidated.
//! Every entry point of [`Checker`](crate::checker::Checker) runs a
//! one-round workspace under the hood, so the semantics here *are* the
//! semantics of the whole crate.
//!
//! # Caching model
//!
//! The pipeline decomposes into per-class stages
//! ([`extract_class`] → [`validate_spec`] → [`resolve_class`] → lints →
//! [`verify_system`]), and each stage's
//! products are cached under a **content fingerprint**:
//!
//! * a *file* fingerprint (hash of the source text) gates re-parsing;
//! * a *class* fingerprint (hash of the class's own source bytes — from
//!   its first decorator to the end of its last body statement — plus its
//!   start offset, its file, and the recovery-mode bit) gates extraction
//!   and spec validation, which depend on nothing but the class's own
//!   text. Every span a class's products carry is a function of that key,
//!   so any edit inside a class, a comment or whitespace one included,
//!   re-extracts it, and an edit that only moves it re-keys it;
//! * a *dependency* fingerprint (the class fingerprint combined with the
//!   fingerprints of every subsystem class it instantiates) gates
//!   resolution, lints, and verification, which additionally read the
//!   subsystems' specifications — and nothing else.
//!
//! Editing one class therefore re-runs extraction for that class only, and
//! re-runs verification for that class plus the composites that use it.
//! [`WorkspaceStats`] exposes hit/miss counters and per-phase timings so
//! callers (and tests) can observe exactly that.
//!
//! The per-class products are shared, never copied: a cached verify entry
//! holds its [`System`] and integration automaton behind an [`Arc`], and
//! the [`Checked`] a round returns holds `Arc`s into the cache. The spec
//! index and the class keys are workspace fields updated only for classes
//! that missed a cache, and cache pruning runs only when a cache holds
//! more keys than there are live classes. A round thus costs the analysis
//! of the invalidated classes plus one walk over the class list.
//!
//! # Parallelism and determinism
//!
//! Every stage that does per-item work fans out over a
//! [`std::thread::scope`] worker pool
//! ([`Checker::jobs`](crate::checker::Checker::jobs), default: available
//! parallelism): parsing over the changed files, extraction and
//! verification over the invalidated classes. Workers claim items from a
//! shared queue, but results are merged back **in file and class order**
//! and diagnostics are normalized, so reports — including which parse
//! failure is reported first and the order of `W014` warnings — are
//! byte-identical across job counts and across incremental-vs-cold runs.
//! A round with a single changed item runs it inline, without spawning.
//!
//! # Example
//!
//! ```
//! use shelley_core::{Checker, Workspace};
//!
//! let mut ws = Checker::new().jobs(2).into_workspace();
//! ws.set_file("led.py", "@sys\nclass Led:\n    @op_initial_final\n    def blink(self):\n        return []\n");
//! ws.set_file("main.py", "@sys([\"l\"])\nclass Panel:\n    def __init__(self):\n        self.l = Led()\n\n    @op_initial_final\n    def run(self):\n        self.l.blink()\n        return []\n");
//! let first = ws.check()?;
//! assert!(first.report.passed());
//!
//! // Re-checking without edits hits the cache for every class.
//! ws.check()?;
//! assert_eq!(ws.last_round().verified, 0);
//! assert_eq!(ws.last_round().verify_cache_hits, 2);
//!
//! // Editing the Led protocol re-verifies Led *and* the Panel composite.
//! ws.set_file("led.py", "@sys\nclass Led:\n    @op_initial_final\n    def blink(self):\n        return [\"blink\"]\n");
//! ws.check()?;
//! assert_eq!(ws.last_round().verified, 2);
//! # Ok::<(), shelley_core::CheckError>(())
//! ```

use crate::backend::Backend;
use crate::checker::CheckError;
use crate::diagnostics::{codes, Diagnostic, Diagnostics};
use crate::lint::{lint_class, LintConfig, LintContext, LintLevel};
use crate::persist::{self, SavedVerify};
use crate::pipeline::{verify_system, CheckReport, Checked, SystemVerdict};
use crate::spec::ClassSpec;
use crate::stats::{system_stats, SystemStats};
use crate::system::{
    extract_class, resolve_class, validate_spec, ClassExtraction, System, SystemKind, SystemSet,
};
use crate::verify::claims::ClaimViolation;
use crate::verify::usage::UsageViolation;
use micropython_parser::ast::{Module, Stmt};
use micropython_parser::visit::collect_degraded;
use micropython_parser::{parse_module, parse_module_recover, ParseError};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cache-hit/miss counters and per-phase wall-clock timings of a
/// [`Workspace`] — one value accumulated over the workspace's lifetime
/// ([`Workspace::stats`]) and one reset every round
/// ([`Workspace::last_round`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkspaceStats {
    /// Number of completed [`Workspace::check`] rounds.
    pub rounds: u64,
    /// Files whose source changed and were re-parsed.
    pub files_parsed: u64,
    /// Files whose parse (or parse error) was reused.
    pub parse_cache_hits: u64,
    /// Classes that ran extraction + spec validation.
    pub extracted: u64,
    /// Classes whose extraction artifacts were reused.
    pub extract_cache_hits: u64,
    /// Classes that ran resolution, lints, and verification.
    pub verified: u64,
    /// Classes whose verification artifacts were reused.
    pub verify_cache_hits: u64,
    /// Freshly verified classes (counted in [`Self::verified`]) that were
    /// restored from the on-disk cache, skipping the expensive analyses.
    pub verify_disk_hits: u64,
    /// Subsystem inclusion checks skipped because the typestate analysis
    /// proved them (fast path), across freshly verified classes.
    pub fast_path_proven: u64,
    /// Pairs the antichain inclusion engine kept on its frontier across
    /// freshly verified classes' usage checks
    /// (see [`shelley_regular::antichain`]).
    pub antichain_frontier: u64,
    /// Frontier candidates the antichain engine discarded as ⊆-subsumed —
    /// spec macrostates batch verification never had to expand.
    pub antichain_pruned: u64,
    /// [`Workspace::class_stats`] calls that computed statistics afresh.
    pub stats_computed: u64,
    /// [`Workspace::class_stats`] calls served from the stats cache.
    pub stats_cache_hits: u64,
    /// Wall time of the parse phase: parsing the changed files on the
    /// worker pool, including fingerprinting each of their classes and
    /// collecting recovery-mode `W014` warnings.
    pub parse_time: Duration,
    /// Time spent extracting changed classes.
    pub extract_time: Duration,
    /// Time spent resolving/linting/verifying invalidated classes.
    pub verify_time: Duration,
    /// Time spent merging cached artifacts into the final report.
    pub assemble_time: Duration,
}

impl WorkspaceStats {
    fn absorb(&mut self, round: &WorkspaceStats) {
        self.rounds += round.rounds;
        self.files_parsed += round.files_parsed;
        self.parse_cache_hits += round.parse_cache_hits;
        self.extracted += round.extracted;
        self.extract_cache_hits += round.extract_cache_hits;
        self.verified += round.verified;
        self.verify_cache_hits += round.verify_cache_hits;
        self.verify_disk_hits += round.verify_disk_hits;
        self.fast_path_proven += round.fast_path_proven;
        self.antichain_frontier += round.antichain_frontier;
        self.antichain_pruned += round.antichain_pruned;
        self.stats_computed += round.stats_computed;
        self.stats_cache_hits += round.stats_cache_hits;
        self.parse_time += round.parse_time;
        self.extract_time += round.extract_time;
        self.verify_time += round.verify_time;
        self.assemble_time += round.assemble_time;
    }

    /// One-line human-readable summary
    /// (`parsed 1/12 files, extracted 1/40 classes, verified 3/40`).
    pub fn render(&self) -> String {
        format!(
            "parsed {}/{} files, extracted {}/{} classes, verified {}/{} \
             ({} fast-path) in {:.1?}",
            self.files_parsed,
            self.files_parsed + self.parse_cache_hits,
            self.extracted,
            self.extracted + self.extract_cache_hits,
            self.verified,
            self.verified + self.verify_cache_hits,
            self.fast_path_proven,
            self.parse_time + self.extract_time + self.verify_time + self.assemble_time,
        )
    }
}

/// One class of one file, ready for the per-class stages.
#[derive(Debug, Clone)]
struct ClassUnit {
    name: String,
    /// Content fingerprint (see [`class_units`]).
    fingerprint: u64,
    /// A single-class module owning the class definition; shared with
    /// worker threads and cache entries.
    solo: Arc<Module>,
}

/// A registered source file and its parse cache.
#[derive(Debug)]
struct FileState {
    name: String,
    /// Fingerprint of the file name and source text.
    fingerprint: u64,
    source: String,
    parsed: Option<Result<Vec<ClassUnit>, ParseError>>,
    /// `W014` diagnostics for constructs recovery mode degraded to `skip`,
    /// computed at parse time (cached with the parse).
    degraded: Diagnostics,
}

/// Extraction-stage products of one class (keyed by class fingerprint).
#[derive(Debug)]
struct ExtractEntry {
    /// `None` for classes without a `@sys` decorator.
    extraction: Option<ClassExtraction>,
    extract_diags: Diagnostics,
    validate_diags: Diagnostics,
}

/// Verification-stage products of one class (keyed by class fingerprint +
/// dependency fingerprint).
#[derive(Debug)]
struct VerifyEntry {
    system: Arc<System>,
    verdict: SystemVerdict,
    resolve_diags: Diagnostics,
    lint_diags: Diagnostics,
}

/// The long-lived verification engine. See the [module docs](self).
#[derive(Debug)]
pub struct Workspace {
    config: LintConfig,
    jobs: usize,
    /// Recovery mode: parse with
    /// [`parse_module_recover`] (total), degrading out-of-subset
    /// constructs to spanned `skip` nodes reported as `W014`.
    recover: bool,
    /// The engine that decides temporal claims (see [`crate::backend`]).
    backend: Backend,
    /// The registered files, in project order.
    files: Vec<FileState>,
    /// `file name → index into files`, kept in step with `files`.
    file_index: HashMap<String, usize>,
    extract_cache: HashMap<u64, Arc<ExtractEntry>>,
    verify_cache: HashMap<(u64, u64), Arc<VerifyEntry>>,
    /// Per-class [`SystemStats`], keyed like `verify_cache` (class
    /// fingerprint + dependency fingerprint) because composite statistics
    /// read the subsystem specs.
    stats_cache: HashMap<(u64, u64), Arc<SystemStats>>,
    /// `class name → spec` of every live `@sys` class: the index
    /// resolution reads subsystem specs from. Kept in step with
    /// `extract_cache`, so a round copies only the specs of re-extracted
    /// classes.
    spec_index: BTreeMap<String, ClassSpec>,
    /// `class name → (class fingerprint, dependency fingerprint)` of every
    /// live `@sys` class; kept in step with `verify_cache`, and the lookup
    /// key for [`Self::class_stats`].
    class_keys: BTreeMap<String, (u64, u64)>,
    /// Verify-stage products restored from disk
    /// ([`Self::load_disk_cache`]), consulted when the in-memory
    /// `verify_cache` misses. Kept across rounds: a key that is stale now
    /// can become live again when a closed file is reopened.
    disk_cache: HashMap<(u64, u64), Arc<SavedVerify>>,
    totals: WorkspaceStats,
    last: WorkspaceStats,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// An empty workspace with default lints and automatic parallelism.
    pub fn new() -> Self {
        Workspace::with_config(LintConfig::default(), 0)
    }

    /// An empty workspace with an explicit lint configuration and worker
    /// count (`0` = available parallelism). Usually reached through
    /// [`Checker::into_workspace`](crate::checker::Checker::into_workspace).
    pub fn with_config(config: LintConfig, jobs: usize) -> Self {
        Workspace {
            config,
            jobs,
            recover: false,
            backend: Backend::Auto,
            files: Vec::new(),
            file_index: HashMap::new(),
            extract_cache: HashMap::new(),
            verify_cache: HashMap::new(),
            stats_cache: HashMap::new(),
            spec_index: BTreeMap::new(),
            class_keys: BTreeMap::new(),
            disk_cache: HashMap::new(),
            totals: WorkspaceStats::default(),
            last: WorkspaceStats::default(),
        }
    }

    /// Switches recovery mode on or off. Changing the mode invalidates
    /// every cached parse — the same text parses differently under the two
    /// grammars.
    pub fn set_recover(&mut self, recover: bool) {
        if self.recover == recover {
            return;
        }
        self.recover = recover;
        for file in &mut self.files {
            file.parsed = None;
            file.degraded = Diagnostics::new();
        }
    }

    /// Whether recovery mode is on.
    pub fn recover(&self) -> bool {
        self.recover
    }

    /// Selects the claim-checking backend for subsequent rounds (see
    /// [`crate::backend`]). All backends decide identical verdicts — the
    /// differential suite pins this — so switching does **not** invalidate
    /// cached verify results: an entry computed under one backend answers
    /// for any other. (A violation witness is whichever shortest
    /// counterexample the computing engine picked.)
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The claim-checking backend in effect.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Adds a file, or replaces its source if the name is already
    /// registered (keeping its position in project order). Re-registering
    /// identical source is free: the parse cache is kept.
    pub fn set_file(&mut self, name: impl Into<String>, source: impl Into<String>) {
        let name = name.into();
        let source = source.into();
        let fingerprint = fnv1a(&[name.as_bytes(), source.as_bytes()]);
        match self.file_index.get(&name) {
            Some(&i) => {
                let state = &mut self.files[i];
                if state.fingerprint != fingerprint {
                    state.fingerprint = fingerprint;
                    state.source = source;
                    state.parsed = None;
                    state.degraded = Diagnostics::new();
                }
            }
            None => {
                self.file_index.insert(name.clone(), self.files.len());
                self.files.push(FileState {
                    name,
                    fingerprint,
                    source,
                    parsed: None,
                    degraded: Diagnostics::new(),
                });
            }
        }
    }

    /// Removes a file from the project. Returns whether it was present.
    pub fn remove_file(&mut self, name: &str) -> bool {
        let Some(i) = self.file_index.remove(name) else {
            return false;
        };
        self.files.remove(i);
        for file in &self.files[i..] {
            *self
                .file_index
                .get_mut(&file.name)
                .expect("every registered file is indexed") -= 1;
        }
        true
    }

    /// The registered file names, in project order.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.name.as_str())
    }

    /// The source text registered for `name` by [`set_file`](Self::set_file);
    /// `None` for unknown files.
    pub fn source(&self, name: &str) -> Option<&str> {
        self.file_index
            .get(name)
            .map(|&i| self.files[i].source.as_str())
    }

    /// Counters and timings accumulated since the workspace was created.
    pub fn stats(&self) -> &WorkspaceStats {
        &self.totals
    }

    /// Counters and timings of the most recent [`check`](Self::check)
    /// round only.
    pub fn last_round(&self) -> &WorkspaceStats {
        &self.last
    }

    /// Runs one verification round over the current file set, reusing
    /// every cached artifact whose fingerprints still match.
    ///
    /// # Errors
    ///
    /// Returns the first parse failure in project order. Parse results
    /// (including failures) are cached, so an unchanged broken file fails
    /// again without re-parsing.
    pub fn check(&mut self) -> Result<Checked, CheckError> {
        let mut round = WorkspaceStats {
            rounds: 1,
            ..WorkspaceStats::default()
        };

        // Phase 1: (re-)parse changed files. A file's parse depends on its
        // own text only, so stale files fan out like classes do; results
        // come back in file order.
        let t = Instant::now();
        let stale: Vec<usize> = (0..self.files.len())
            .filter(|&i| self.files[i].parsed.is_none())
            .collect();
        round.files_parsed = stale.len() as u64;
        round.parse_cache_hits = (self.files.len() - stale.len()) as u64;
        let recover = self.recover;
        let files = &self.files;
        let fresh = par_map(self.effective_jobs(), &stale, |&i| {
            let file = &files[i];
            if recover {
                let module = parse_module_recover(&file.source);
                (
                    Ok(class_units(file, recover, &module)),
                    degraded_diags(&module),
                )
            } else {
                let parsed =
                    parse_module(&file.source).map(|module| class_units(file, recover, &module));
                (parsed, Diagnostics::new())
            }
        });
        for (&i, (parsed, degraded)) in stale.iter().zip(fresh) {
            self.files[i].parsed = Some(parsed);
            self.files[i].degraded = degraded;
        }
        round.parse_time = t.elapsed();
        let first_failure = self.files.iter().find_map(|file| match &file.parsed {
            Some(Err(error)) => Some(CheckError {
                file: file.name.clone(),
                error: error.clone(),
            }),
            _ => None,
        });
        if let Some(failure) = first_failure {
            self.finish_round(round);
            return Err(failure);
        }

        // Phase 2: the class list (winners of duplicate names only) and its
        // name index.
        let (units, index, duplicate_diags) = class_list(&self.files);

        // Phase 3: extraction + spec validation for classes whose
        // fingerprint is new. The spec index follows the extraction cache:
        // only classes that missed can have changed (or lost) their spec.
        let t = Instant::now();
        let mut extract_entries: Vec<Option<Arc<ExtractEntry>>> = units
            .iter()
            .map(|u| self.extract_cache.get(&u.fingerprint).cloned())
            .collect();
        let missing: Vec<usize> = (0..units.len())
            .filter(|&i| extract_entries[i].is_none())
            .collect();
        round.extracted = missing.len() as u64;
        round.extract_cache_hits = (units.len() - missing.len()) as u64;
        let fresh = par_map(self.effective_jobs(), &missing, |&i| {
            Arc::new(run_extract(units[i]))
        });
        for (&i, entry) in missing.iter().zip(fresh) {
            let unit = units[i];
            match &entry.extraction {
                Some(x) => {
                    self.spec_index.insert(unit.name.clone(), x.spec.clone());
                }
                None => {
                    self.spec_index.remove(&unit.name);
                }
            }
            self.extract_cache.insert(unit.fingerprint, entry.clone());
            extract_entries[i] = Some(entry);
        }
        let extract_entries: Vec<Arc<ExtractEntry>> =
            extract_entries.into_iter().map(Option::unwrap).collect();
        let systems_live = extract_entries
            .iter()
            .filter(|e| e.extraction.is_some())
            .count();
        // Every live class is now cached and every live `@sys` class
        // indexed, so a size above the live count means stale entries
        // (an edited, removed, or shadowed class) to drop: superseded
        // fingerprints can never hit again.
        if self.extract_cache.len() != units.len() {
            let live: HashSet<u64> = units.iter().map(|u| u.fingerprint).collect();
            self.extract_cache.retain(|fp, _| live.contains(fp));
        }
        if self.spec_index.len() != systems_live {
            self.spec_index.retain(|name, _| {
                index
                    .get(name.as_str())
                    .is_some_and(|&i| extract_entries[i].extraction.is_some())
            });
        }
        debug_assert_eq!(
            self.spec_index,
            spec_index_of(&extract_entries),
            "the incremental spec index drifted from the extraction cache"
        );
        round.extract_time = t.elapsed();

        // Phase 4: dependency fingerprints.
        let dep_fingerprints: Vec<u64> = extract_entries
            .iter()
            .zip(&units)
            .map(|(entry, unit)| match &entry.extraction {
                None => unit.fingerprint,
                Some(x) => {
                    let mut hash = Fnv1a::new();
                    hash.part(&unit.fingerprint.to_le_bytes());
                    for dep in x.dependencies() {
                        let dep_fp = index.get(dep).map_or(u64::MAX, |&j| units[j].fingerprint);
                        hash.part(dep.as_bytes());
                        hash.part(&dep_fp.to_le_bytes());
                    }
                    hash.finish()
                }
            })
            .collect();

        // Phase 5: resolution + lints + verification for invalidated
        // classes.
        let t = Instant::now();
        let mut verify_entries: Vec<Option<Arc<VerifyEntry>>> = units
            .iter()
            .enumerate()
            .map(|(i, u)| {
                extract_entries[i].extraction.as_ref()?;
                self.verify_cache
                    .get(&(u.fingerprint, dep_fingerprints[i]))
                    .cloned()
            })
            .collect();
        let missing: Vec<usize> = (0..units.len())
            .filter(|&i| verify_entries[i].is_none() && extract_entries[i].extraction.is_some())
            .collect();
        round.verified = missing.len() as u64;
        round.verify_cache_hits = (systems_live - missing.len()) as u64;
        let backend = self.backend;
        let disk_cache = &self.disk_cache;
        let spec_index = &self.spec_index;
        let fresh = par_map(self.effective_jobs(), &missing, |&i| {
            let extraction = extract_entries[i]
                .extraction
                .clone()
                .expect("verify stage only runs for @sys classes");
            let key = (units[i].fingerprint, dep_fingerprints[i]);
            match disk_cache.get(&key) {
                Some(saved) => (
                    Arc::new(run_verify_restored(extraction, spec_index, saved)),
                    true,
                ),
                None => (
                    Arc::new(run_verify(extraction, units[i], spec_index, backend)),
                    false,
                ),
            }
        });
        for (&i, (entry, from_disk)) in missing.iter().zip(fresh) {
            round.fast_path_proven += entry.verdict.fast_path_skips as u64;
            round.antichain_frontier += entry.verdict.antichain_frontier;
            round.antichain_pruned += entry.verdict.antichain_pruned;
            round.verify_disk_hits += u64::from(from_disk);
            let key = (units[i].fingerprint, dep_fingerprints[i]);
            self.verify_cache.insert(key, entry.clone());
            self.class_keys.insert(units[i].name.clone(), key);
            verify_entries[i] = Some(entry);
        }
        // As in phase 3: stale entries exist exactly when the caches
        // outgrew the live classes. The stats cache only ever holds keys
        // the verify cache held, so it needs pruning only alongside it.
        if self.verify_cache.len() != systems_live {
            let live: HashSet<(u64, u64)> = units
                .iter()
                .zip(&dep_fingerprints)
                .map(|(u, &d)| (u.fingerprint, d))
                .collect();
            self.verify_cache.retain(|key, _| live.contains(key));
            self.stats_cache.retain(|key, _| live.contains(key));
        }
        if self.class_keys.len() != systems_live {
            self.class_keys.retain(|name, key| {
                index
                    .get(name.as_str())
                    .is_some_and(|&i| (units[i].fingerprint, dep_fingerprints[i]) == *key)
            });
        }
        round.verify_time = t.elapsed();

        // Phase 6: assemble the report in class order — the same stage
        // ordering as the sequential pipeline, normalized at the end, so
        // cached, parallel, and cold runs are byte-identical. Systems and
        // integrations are shared with the verify cache, not copied.
        let t = Instant::now();
        let mut diagnostics = Diagnostics::new();
        for entry in &extract_entries {
            diagnostics.extend(entry.extract_diags.clone());
        }
        for entry in &extract_entries {
            diagnostics.extend(entry.validate_diags.clone());
        }
        for entry in verify_entries.iter().flatten() {
            diagnostics.extend(entry.resolve_diags.clone());
        }
        for entry in verify_entries.iter().flatten() {
            diagnostics.extend(entry.lint_diags.clone());
        }
        let mut usage_violations: Vec<(String, UsageViolation)> = Vec::new();
        let mut claim_violations: Vec<(String, ClaimViolation)> = Vec::new();
        let mut integrations = Vec::new();
        let mut systems: Vec<Arc<System>> = Vec::with_capacity(systems_live);
        for entry in verify_entries.iter().flatten() {
            diagnostics.extend(entry.verdict.diagnostics.clone());
            for v in &entry.verdict.usage_violations {
                usage_violations.push((entry.system.name.clone(), v.clone()));
            }
            for v in &entry.verdict.claim_violations {
                claim_violations.push((entry.system.name.clone(), v.clone()));
            }
            if let Some(integ) = &entry.verdict.integration {
                integrations.push((entry.system.name.clone(), integ.clone()));
            }
            systems.push(entry.system.clone());
        }
        for file in &self.files {
            diagnostics.extend(file.degraded.clone());
        }
        diagnostics.extend(duplicate_diags);
        self.config.apply(&mut diagnostics);
        if self.config.level(codes::INVALID_SUBSYSTEM_USAGE) != LintLevel::Deny {
            usage_violations.clear();
        }
        if self.config.level(codes::FAIL_TO_MEET_REQUIREMENT) != LintLevel::Deny {
            claim_violations.clear();
        }
        let checked = Checked {
            systems: systems.into_iter().collect::<SystemSet>(),
            integrations,
            report: CheckReport {
                diagnostics,
                usage_violations,
                claim_violations,
            },
        };
        round.assemble_time = t.elapsed();

        self.finish_round(round);
        Ok(checked)
    }

    /// The statistics of a verified class, cached per class fingerprint.
    ///
    /// Statistics determinize and minimize the class's spec language —
    /// export-grade work that used to be recomputed on every call. The
    /// workspace computes them at most once per `(class, dependencies)`
    /// fingerprint pair; unchanged classes hit the cache across rounds and
    /// repeated queries. Returns `None` before the first
    /// [`check`](Self::check) round, or for names that are not `@sys`
    /// classes of the current file set.
    ///
    /// Hit/miss counts accumulate in [`stats`](Self::stats) as
    /// [`WorkspaceStats::stats_cache_hits`] /
    /// [`WorkspaceStats::stats_computed`].
    pub fn class_stats(&mut self, class: &str) -> Option<Arc<SystemStats>> {
        let key = *self.class_keys.get(class)?;
        if let Some(stats) = self.stats_cache.get(&key) {
            self.totals.stats_cache_hits += 1;
            return Some(stats.clone());
        }
        let entry = self.verify_cache.get(&key)?;
        let stats = Arc::new(system_stats(&entry.system));
        self.totals.stats_computed += 1;
        self.stats_cache.insert(key, stats.clone());
        Some(stats)
    }

    /// Seeds the workspace from a persistent cache file written by
    /// [`save_disk_cache`](Self::save_disk_cache). Subsequent
    /// [`check`](Self::check) rounds restore matching classes instead of
    /// re-running the expensive analyses, counting each restore in
    /// [`WorkspaceStats::verify_disk_hits`].
    ///
    /// Loading never fails: corrupt or version-mismatched files degrade
    /// to a smaller (possibly empty) cache — see [`crate::persist`].
    pub fn load_disk_cache(&mut self, path: impl AsRef<std::path::Path>) -> persist::LoadOutcome {
        let outcome = persist::load(path.as_ref());
        for (key, saved) in &outcome.entries {
            self.disk_cache.insert(*key, saved.clone());
        }
        outcome
    }

    /// Atomically persists the verify-stage products of every class of
    /// the last completed round, so a future process can
    /// [`load_disk_cache`](Self::load_disk_cache) them. Returns the
    /// number of records written.
    pub fn save_disk_cache(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        let records: Vec<((u64, u64), SavedVerify)> = self
            .verify_cache
            .iter()
            .map(|(&key, entry)| {
                (
                    key,
                    SavedVerify {
                        lint_diags: entry.lint_diags.clone(),
                        verdict_diags: entry.verdict.diagnostics.clone(),
                        usage_violations: entry.verdict.usage_violations.clone(),
                        claim_violations: entry.verdict.claim_violations.clone(),
                        fast_path_skips: entry.verdict.fast_path_skips,
                    },
                )
            })
            .collect();
        persist::save(
            path.as_ref(),
            records.iter().map(|(key, saved)| (*key, saved)),
        )
    }

    fn finish_round(&mut self, round: WorkspaceStats) {
        self.totals.absorb(&round);
        self.last = round;
    }

    fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// One `W014` per construct recovery mode degraded to `skip`: the model
/// claims nothing about the skipped region, so every downstream verdict
/// is conditional on the region being irrelevant to the protocol.
fn degraded_diags(module: &Module) -> Diagnostics {
    let mut out = Diagnostics::new();
    for d in collect_degraded(module) {
        out.push(
            Diagnostic::warning(
                codes::CONSTRUCT_DEGRADED,
                format!("construct degraded to `skip`: {}", d.reason),
            )
            .with_span(d.span)
            .with_note(
                "the model treats this region as doing nothing; verification \
                 results do not cover it",
            ),
        );
    }
    out
}

/// The project's class list: every parsed class in project order, except
/// that a duplicate name resolves to the later definition (Python's
/// last-definition semantics). Each shadowed definition is reported and
/// dropped before any stage runs, so the winner is deterministic and
/// explicit. Also returns the index `class name → position in the list`.
fn class_list(files: &[FileState]) -> (Vec<&ClassUnit>, HashMap<&str, usize>, Diagnostics) {
    let all: Vec<(&str, &ClassUnit)> = files
        .iter()
        .filter_map(|file| match &file.parsed {
            Some(Ok(units)) => Some(units.iter().map(|unit| (file.name.as_str(), unit))),
            _ => None,
        })
        .flatten()
        .collect();
    let mut last_index: HashMap<&str, usize> = HashMap::with_capacity(all.len());
    for (i, (_, unit)) in all.iter().enumerate() {
        last_index.insert(unit.name.as_str(), i);
    }
    let mut duplicate_diags = Diagnostics::new();
    let mut units = Vec::with_capacity(last_index.len());
    let mut index = HashMap::with_capacity(last_index.len());
    for (i, &(file, unit)) in all.iter().enumerate() {
        let winner = last_index[unit.name.as_str()];
        if winner == i {
            index.insert(unit.name.as_str(), units.len());
            units.push(unit);
            continue;
        }
        let (winner_file, _) = all[winner];
        let message = if file == winner_file {
            format!(
                "class `{}` defined more than once in {file}; the later \
                 definition is used",
                unit.name
            )
        } else {
            format!(
                "class `{}` defined in both {file} and {winner_file}; the \
                 definition in {winner_file} is used",
                unit.name
            )
        };
        duplicate_diags.push(Diagnostic::error(codes::BAD_ANNOTATION, message));
    }
    (units, index, duplicate_diags)
}

/// The spec index a round's extractions define, built from scratch: the
/// reference the incrementally kept [`Workspace`] index is checked against
/// in debug builds.
fn spec_index_of(entries: &[Arc<ExtractEntry>]) -> BTreeMap<String, ClassSpec> {
    entries
        .iter()
        .filter_map(|e| e.extraction.as_ref())
        .map(|x| (x.name.clone(), x.spec.clone()))
        .collect()
}

/// Splits a file's parsed module into per-class units.
///
/// A class's fingerprint is FNV-1a over the file name, the class's start
/// offset, the recovery-mode bit, and the class's own source bytes
/// (`source[class.span]`, from the first decorator to the end of the last
/// body statement). The class's AST — spans included — is a function of
/// exactly these, so its cached products are too: an edit inside the
/// class (a comment or blank line too) changes the bytes, and an edit
/// before it that shifts it changes the offset.
///
/// Each class is cloned, not moved, into its solo module: the clone is
/// allocated to exact capacity, while a moved class keeps the parser's
/// spare `Vec` capacity alive for as long as the unit is cached (moving
/// raised the peak RSS of a cold 1000-class `shelleyc check` from 20.5 to
/// 23.3 MiB).
fn class_units(file: &FileState, recover: bool, module: &Module) -> Vec<ClassUnit> {
    module
        .classes()
        .map(|class| ClassUnit {
            name: class.name.node.clone(),
            fingerprint: fnv1a(&[
                file.name.as_bytes(),
                &class.span.start.to_le_bytes(),
                &[u8::from(recover)],
                &file.source.as_bytes()[class.span.start..class.span.end],
            ]),
            solo: Arc::new(Module {
                body: vec![Stmt::ClassDef(class.clone())],
            }),
        })
        .collect()
}

/// The extraction stage of one class: pass 1 plus spec validation.
fn run_extract(unit: &ClassUnit) -> ExtractEntry {
    let class = unit
        .solo
        .classes()
        .next()
        .expect("solo modules hold exactly one class");
    let mut extract_diags = Diagnostics::new();
    let extraction = extract_class(class, &mut extract_diags);
    let mut validate_diags = Diagnostics::new();
    if let Some(x) = &extraction {
        validate_spec(&x.spec, &mut validate_diags);
    }
    ExtractEntry {
        extraction,
        extract_diags,
        validate_diags,
    }
}

/// The verification stage of one class: resolution against the subsystem
/// specs, the per-class lint passes, and usage/claim verification. The
/// typestate lint and the inclusion fast path share one analysis.
fn run_verify(
    extraction: ClassExtraction,
    unit: &ClassUnit,
    spec_index: &BTreeMap<String, ClassSpec>,
    backend: Backend,
) -> VerifyEntry {
    let mut resolve_diags = Diagnostics::new();
    let system = Arc::new(resolve_class(extraction, spec_index, &mut resolve_diags));

    // Usage verification and the typestate lints read the *specs* of the
    // subsystems, never their resolved systems, so spec-only stand-ins
    // keep the stage independent of every other class's resolution. The
    // other lint passes only inspect the class under analysis (the scope's
    // one class present in `unit.solo`), so the widened scope still
    // reproduces the module-level run exactly.
    let mut verify_scope: Vec<Arc<System>> = vec![system.clone()];
    if let SystemKind::Composite(info) = &system.kind {
        for sub in &info.subsystems {
            if sub.class_name == system.name {
                continue;
            }
            if verify_scope.iter().any(|s| s.name == sub.class_name) {
                continue;
            }
            if let Some(spec) = spec_index.get(&sub.class_name) {
                verify_scope.push(Arc::new(System {
                    name: sub.class_name.clone(),
                    kind: SystemKind::Base,
                    spec: spec.clone(),
                    claims: Vec::new(),
                }));
            }
        }
    }
    let verify_scope: SystemSet = verify_scope.into_iter().collect();

    let mut lint_diags = Diagnostics::new();
    let ctx = LintContext {
        module: &unit.solo,
        systems: &verify_scope,
    };
    let proven = lint_class(&ctx, &system, &mut lint_diags);
    let verdict = verify_system(&system, &verify_scope, &proven, backend);

    VerifyEntry {
        system,
        verdict,
        resolve_diags,
        lint_diags,
    }
}

/// The verification stage restored from an on-disk cache hit: re-runs
/// only the cheap, deterministic reconstruction (resolution, and the
/// integration automaton for composites) and replays the persisted
/// results of the expensive analyses — lints, the typestate fast-path
/// proof, usage inclusion, and claim checking all stay skipped.
///
/// Soundness rests on the cache key: the `(class fingerprint, dependency
/// fingerprint)` pair covers every input those analyses read, so a hit
/// means the persisted products are exactly what a fresh run would
/// compute.
fn run_verify_restored(
    extraction: ClassExtraction,
    spec_index: &BTreeMap<String, ClassSpec>,
    saved: &SavedVerify,
) -> VerifyEntry {
    let mut resolve_diags = Diagnostics::new();
    let system = resolve_class(extraction, spec_index, &mut resolve_diags);
    let integration = system
        .is_composite()
        .then(|| Arc::new(crate::integration::build_integration(&system)));
    VerifyEntry {
        system: Arc::new(system),
        verdict: SystemVerdict {
            integration,
            diagnostics: saved.verdict_diags.clone(),
            usage_violations: saved.usage_violations.clone(),
            claim_violations: saved.claim_violations.clone(),
            fast_path_skips: saved.fast_path_skips,
            // Restored rounds run no inclusion search, so they report no
            // antichain work — the counters measure what this round did.
            antichain_frontier: 0,
            antichain_pruned: 0,
        },
        resolve_diags,
        lint_diags: saved.lint_diags.clone(),
    }
}

/// Maps `f` over `items` on a scoped worker pool of at most `jobs`
/// threads, returning results in input order. `jobs <= 1` (or a single
/// item) runs inline on the calling thread.
///
/// The calling thread is one of the workers. Besides sparing a spawn,
/// that leaves part of a cold round's long-lived products in the
/// caller's allocator arena, which a daemon's later inline single-item
/// rounds allocate from: with glibc's per-thread arenas and only spawned
/// workers, the freed cold-round products left holes nothing reused, and
/// the daemon's resident set grew faster under edits.
fn par_map<T: Sync, R: Send>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let result = f(&items[i]);
        *slots[i].lock().expect("worker result slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs.min(items.len()) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker result slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

/// FNV-1a over a sequence of byte slices — a stable, dependency-free
/// content fingerprint. The fingerprints are the keys of the on-disk
/// verify cache ([`crate::persist`]), so they must stay bit-identical
/// across versions, and a collision would make any later process that
/// loads the cache reuse another class's verdict. At project scale
/// collisions are astronomically unlikely.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut hash = Fnv1a::new();
    for part in parts {
        hash.part(part);
    }
    hash.finish()
}

/// The streaming form of [`fnv1a`]: feeding parts one by one hashes the
/// same bytes without collecting them first.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes one part, length-prefixed so concatenation ambiguity cannot
    /// alias two different part sequences.
    fn part(&mut self, part: &[u8]) {
        for &b in (part.len() as u64).to_le_bytes().iter().chain(part) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataflow::typestate::analyses_run;

    /// A `Valve` plus `n` composites using it; odd-numbered ones call
    /// `close` right after `test`, which the protocol forbids, so both
    /// fast-path outcomes occur.
    pub(crate) fn composites_project(n: usize) -> String {
        let mut src = String::from(
            "@sys\nclass Valve:\n    @op_initial\n    def test(self):\n        \
             return [\"open\", \"clean\"]\n\n    @op\n    def open(self):\n        \
             return [\"close\"]\n\n    @op_final\n    def close(self):\n        \
             return []\n\n    @op_final\n    def clean(self):\n        return []\n",
        );
        for i in 0..n {
            let last = if i.is_multiple_of(2) {
                "clean"
            } else {
                "close"
            };
            src.push_str(&format!(
                "\n@sys([\"a\"])\nclass User{i}:\n    def __init__(self):\n        \
                 self.a = Valve()\n\n    @op_initial_final\n    def run(self):\n        \
                 self.a.test()\n        self.a.{last}()\n        return []\n"
            ));
        }
        src
    }

    /// Work-count gate: a cold round analyses each composite class once,
    /// for the typestate lint and the inclusion fast path together; a
    /// warm round analyses nothing.
    #[test]
    fn one_analysis_per_composite_class_in_a_cold_workspace_round() {
        let mut ws = Workspace::with_config(LintConfig::default(), 1);
        ws.set_file("a.py", composites_project(6));
        let before = analyses_run();
        let checked = ws.check().unwrap();
        let composites = checked.systems.iter().filter(|s| s.is_composite()).count();
        assert_eq!(composites, 6);
        assert_eq!(ws.last_round().fast_path_proven, 3);
        assert_eq!(analyses_run() - before, composites);

        ws.check().unwrap();
        assert_eq!(analyses_run() - before, composites);
    }
}
