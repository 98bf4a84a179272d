//! The transport-independent request handler.
//!
//! [`Engine`] owns the shared [`Workspace`] and turns one [`Request`]
//! into a stream of [`Reply`] values through a caller-provided sink —
//! the same code path whether requests arrive over stdio, a Unix
//! socket, or (as in `shelleyc watch`) an in-process call.
//!
//! A request whose handler panics is answered with an `error` reply, and
//! the workspace — which the panic may have left half-updated — is
//! replaced by a fresh one holding the same open files, configuration
//! and disk cache. The daemon keeps serving.

use micropython_parser::SourceFile;
use shelley_core::api::{CheckSummary, ParseFailure, SERVER_NAME};
use shelley_core::persist::LoadOutcome;
use shelley_core::{
    Checker, Method, Reply, ReplyBody, Request, WireDiagnostic, Workspace, PROTOCOL_VERSION,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// What the transport should do after a request has been answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Keep reading requests.
    Continue,
    /// The client asked for `shutdown`: stop serving.
    Shutdown,
}

/// One verification engine: the shared workspace (which also holds the
/// text of every open file, read back for resolving diagnostic positions)
/// and the optional on-disk cache location.
pub struct Engine {
    workspace: Workspace,
    cache_path: Option<PathBuf>,
    /// The configuration a replacement workspace is built from.
    checker: Checker,
    /// Whether the workspace replaced a panicked one and has not finished
    /// a round since: it holds none of the verify products the disk cache
    /// does, so persisting it would shrink the cache.
    replaced: bool,
    /// Makes the next `check` panic, to exercise the recovery.
    #[cfg(test)]
    pub(crate) fail_next_check: bool,
}

impl Engine {
    /// Creates an engine with no persistent cache.
    pub fn new(checker: Checker) -> Self {
        Engine {
            workspace: checker.clone().into_workspace(),
            cache_path: None,
            checker,
            replaced: false,
            #[cfg(test)]
            fail_next_check: false,
        }
    }

    /// Attaches a persistent cache: loads whatever `path` holds now (a
    /// missing or corrupt file degrades to an empty cache) and remembers
    /// the path for [`persist`](Self::persist). Returns what the load
    /// recovered so callers can report it.
    pub fn with_cache(mut self, path: impl Into<PathBuf>) -> (Self, LoadOutcome) {
        let path = path.into();
        let outcome = self.workspace.load_disk_cache(&path);
        self.cache_path = Some(path);
        (self, outcome)
    }

    /// Saves the verify cache to the attached path, if any. Returns the
    /// number of records written. Nothing is saved while the workspace is
    /// a replacement that has not finished a round yet.
    pub fn persist(&self) -> std::io::Result<Option<usize>> {
        match &self.cache_path {
            Some(path) if !self.replaced => self.workspace.save_disk_cache(path).map(Some),
            _ => Ok(None),
        }
    }

    /// Answers one request, pushing every reply (in wire order) through
    /// `emit`. A panic in the handler is contained: its replies are
    /// dropped, the request is answered with an `error`, and the
    /// workspace is replaced (see the [module docs](self)).
    pub fn handle(&mut self, request: Request, emit: &mut dyn FnMut(Reply)) -> Outcome {
        let id = request.id;
        let shutdown = matches!(request.method, Method::Shutdown);
        let mut replies = Vec::new();
        let handled = catch_unwind(AssertUnwindSafe(|| {
            self.dispatch(request, &mut |reply| replies.push(reply))
        }));
        match handled {
            Ok(outcome) => {
                replies.into_iter().for_each(emit);
                outcome
            }
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("unknown panic");
                self.replace_workspace();
                emit(Reply {
                    id,
                    body: ReplyBody::Error {
                        message: format!(
                            "internal error: {what}; the workspace was rebuilt from the open files"
                        ),
                    },
                });
                if shutdown {
                    Outcome::Shutdown
                } else {
                    Outcome::Continue
                }
            }
        }
    }

    /// Replaces the workspace by a fresh one with the same configuration,
    /// disk cache and open files. A round changes no file text, so the
    /// texts read back from a workspace whose round panicked are intact.
    fn replace_workspace(&mut self) {
        let old = &self.workspace;
        let mut fresh = self.checker.clone().recover(old.recover()).into_workspace();
        if let Some(path) = &self.cache_path {
            fresh.load_disk_cache(path);
        }
        for name in old.file_names() {
            fresh.set_file(name, old.source(name).expect("a listed file has a source"));
        }
        self.workspace = fresh;
        self.replaced = true;
    }

    fn dispatch(&mut self, request: Request, emit: &mut dyn FnMut(Reply)) -> Outcome {
        let id = request.id;
        let mut reply = |body| emit(Reply { id, body });
        match request.method {
            Method::Hello { version } => {
                if version == PROTOCOL_VERSION {
                    reply(ReplyBody::Hello {
                        version: PROTOCOL_VERSION,
                        server: SERVER_NAME.to_string(),
                    });
                } else {
                    reply(ReplyBody::Error {
                        message: format!(
                            "protocol version mismatch: client speaks {version}, \
                             server speaks {PROTOCOL_VERSION}"
                        ),
                    });
                }
            }
            Method::Open { path, text } | Method::Change { path, text } => {
                self.workspace.set_file(path, text);
                reply(ReplyBody::Ok);
            }
            Method::Close { path } => {
                self.workspace.remove_file(&path);
                reply(ReplyBody::Ok);
            }
            Method::Configure { recover } => {
                self.workspace.set_recover(recover);
                reply(ReplyBody::Ok);
            }
            Method::Check => self.run_check(id, emit),
            Method::Stats => {
                reply(ReplyBody::Stats {
                    totals: self.workspace.stats().clone(),
                    last_round: self.workspace.last_round().clone(),
                });
            }
            Method::Shutdown => {
                match self.persist() {
                    Ok(_) => reply(ReplyBody::Ok),
                    Err(e) => reply(ReplyBody::Error {
                        message: format!("cache save failed: {e}"),
                    }),
                }
                return Outcome::Shutdown;
            }
        }
        Outcome::Continue
    }

    /// Runs one verification round: streams a `batch` per file that has
    /// diagnostics (project-level diagnostics batch under `file: None`),
    /// then the final `check` summary.
    fn run_check(&mut self, id: u64, emit: &mut dyn FnMut(Reply)) {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_check) {
            panic!("injected fault");
        }
        let round = self.workspace.check();
        self.replaced = false;
        match round {
            Ok(checked) => {
                // Group diagnostics by file in first-appearance order —
                // the report is already normalized, so this order is
                // deterministic across runs and job counts.
                let mut sources: BTreeMap<&str, SourceFile> = BTreeMap::new();
                let mut order: Vec<Option<String>> = Vec::new();
                let mut groups: BTreeMap<Option<String>, Vec<WireDiagnostic>> = BTreeMap::new();
                for d in checked.report.diagnostics.iter() {
                    let source = match d.file.as_deref() {
                        Some(name) => match sources.entry(name) {
                            Entry::Occupied(hit) => Some(&*hit.into_mut()),
                            Entry::Vacant(slot) => self
                                .workspace
                                .source(name)
                                .map(|text| &*slot.insert(SourceFile::new(name, text))),
                        },
                        None => None,
                    };
                    let wire = WireDiagnostic::new(d, source);
                    let key = wire.file.clone();
                    if !groups.contains_key(&key) {
                        order.push(key.clone());
                    }
                    groups.entry(key).or_default().push(wire);
                }
                for key in order {
                    let diagnostics = groups.remove(&key).unwrap_or_default();
                    emit(Reply {
                        id,
                        body: ReplyBody::Batch {
                            file: key,
                            diagnostics,
                        },
                    });
                }
                let summary = CheckSummary::new(&checked, self.workspace.last_round().clone());
                emit(Reply {
                    id,
                    body: ReplyBody::Check { summary },
                });
            }
            Err(e) => {
                let failure = ParseFailure::new(&e, self.workspace.source(&e.file));
                let summary =
                    CheckSummary::from_parse_error(failure, self.workspace.last_round().clone());
                emit(Reply {
                    id,
                    body: ReplyBody::Check { summary },
                });
            }
        }
    }
}
