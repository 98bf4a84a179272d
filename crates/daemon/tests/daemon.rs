//! End-to-end daemon tests: concurrent socket clients, warm restarts
//! through the persistent cache, and protocol error handling.

use shelley_core::{Checker, Method, Reply, ReplyBody, Request, PROTOCOL_VERSION};
use shelley_daemon::{serve_socket, Client, Engine, Outcome};
use std::path::PathBuf;

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

const SECTOR_PY: &str = r#"
@sys(["a"])
class Sector:
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

const BAD_PY: &str = r#"
@sys(["v"])
class Misuser:
    def __init__(self):
        self.v = Valve()

    @op_initial_final
    def slam(self):
        match self.v.test():
            case ["open"]:
                self.v.open()
                return []
            case ["clean"]:
                self.v.clean()
                return []
"#;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shelley-daemon-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What a one-shot `shelleyc check` of the same files prints.
fn one_shot_render(files: &[(&str, &str)]) -> String {
    let project: Vec<shelley_core::ProjectFile> = files
        .iter()
        .map(|(name, text)| shelley_core::ProjectFile::new(*name, *text))
        .collect();
    let checked = Checker::new().check_files(&project).unwrap();
    let mut out = checked.report.render(None);
    if checked.report.passed() {
        out.push_str(&format!(
            "OK: {} system(s) verified\n",
            checked.systems.len()
        ));
    }
    out
}

#[test]
fn concurrent_socket_clients_match_the_one_shot_check() {
    let dir = temp_dir("concurrent");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache.ndjson");
    let engine = Engine::new(Checker::new().jobs(2));
    let (engine, _) = engine.with_cache(&cache);
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || serve_socket(engine, &socket))
    };
    while !socket.exists() {
        std::thread::yield_now();
    }

    let reference = one_shot_render(&[("valve.py", VALVE_PY), ("sector.py", SECTOR_PY)]);
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).unwrap();
                client.hello().unwrap();
                client.open("valve.py", VALVE_PY).unwrap();
                client.open("sector.py", SECTOR_PY).unwrap();
                client.check().unwrap().render_text()
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().unwrap(), reference);
    }

    let mut closer = Client::connect(&socket).unwrap();
    closer.shutdown().unwrap();
    server.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket file is cleaned up");
    assert!(cache.exists(), "shutdown persisted the cache");

    // A restarted daemon answers from the persisted cache: every class
    // verifies via a disk hit, and the report is still byte-identical.
    let (engine, outcome) = Engine::new(Checker::new().jobs(2)).with_cache(&cache);
    assert!(outcome.rejected.is_none(), "{:?}", outcome.rejected);
    assert_eq!(outcome.entries.len(), 2);
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || serve_socket(engine, &socket))
    };
    while !socket.exists() {
        std::thread::yield_now();
    }
    let mut client = Client::connect(&socket).unwrap();
    client.hello().unwrap();
    client.open("valve.py", VALVE_PY).unwrap();
    client.open("sector.py", SECTOR_PY).unwrap();
    let summary = client.check().unwrap();
    assert_eq!(summary.render_text(), reference);
    assert_eq!(summary.stats.verify_disk_hits, 2, "warm restart");
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn the_socket_path_appears_only_once_the_daemon_listens() {
    // A client that connects the moment the path exists must never be
    // refused: the daemon renames the socket into place after listen(2).
    let dir = temp_dir("listening");
    let socket = dir.join("daemon.sock");
    for round in 0..50 {
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve_socket(Engine::new(Checker::new()), &socket))
        };
        while !socket.exists() {
            std::thread::yield_now();
        }
        let mut client = Client::connect(&socket)
            .unwrap_or_else(|e| panic!("round {round}: connect as the path appeared: {e}"));
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
        assert!(!socket.exists(), "round {round}: socket file is cleaned up");
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "no staging path is left behind: {leftovers:?}"
    );
}

#[test]
fn a_corrupted_cache_degrades_to_a_cold_start() {
    let dir = temp_dir("corrupt");
    let cache = dir.join("cache.ndjson");
    std::fs::write(&cache, "this is not a cache file\nat all\n").unwrap();

    let (mut engine, outcome) = Engine::new(Checker::new().jobs(1)).with_cache(&cache);
    assert!(outcome.rejected.is_some(), "garbage is rejected wholesale");

    // The engine still verifies normally...
    let mut replies = Vec::new();
    engine.handle(
        Request {
            id: 1,
            method: Method::Open {
                path: "valve.py".into(),
                text: VALVE_PY.into(),
            },
        },
        &mut |r| replies.push(r),
    );
    let outcome = engine.handle(
        Request {
            id: 2,
            method: Method::Check,
        },
        &mut |r| replies.push(r),
    );
    assert_eq!(outcome, Outcome::Continue);
    match replies.last() {
        Some(Reply {
            id: 2,
            body: ReplyBody::Check { summary },
        }) => assert!(summary.passed),
        other => panic!("expected a check reply, got {other:?}"),
    }

    // ...and shutdown overwrites the garbage with a loadable cache.
    let outcome = engine.handle(
        Request {
            id: 3,
            method: Method::Shutdown,
        },
        &mut |r| replies.push(r),
    );
    assert_eq!(outcome, Outcome::Shutdown);
    let reloaded = shelley_core::persist::load(&cache);
    assert!(reloaded.rejected.is_none(), "{:?}", reloaded.rejected);
    assert_eq!(reloaded.entries.len(), 1);
}

#[test]
fn check_streams_per_file_batches_before_the_summary() {
    let mut engine = Engine::new(Checker::new().jobs(1));
    let mut replies = Vec::new();
    let mut emit = |r: Reply| replies.push(r);
    engine.handle(
        Request {
            id: 1,
            method: Method::Open {
                path: "valve.py".into(),
                text: VALVE_PY.into(),
            },
        },
        &mut emit,
    );
    engine.handle(
        Request {
            id: 2,
            method: Method::Open {
                path: "bad.py".into(),
                text: BAD_PY.into(),
            },
        },
        &mut emit,
    );
    engine.handle(
        Request {
            id: 3,
            method: Method::Check,
        },
        &mut emit,
    );

    let check_replies: Vec<_> = replies.iter().filter(|r| r.id == 3).collect();
    assert!(
        check_replies.len() >= 2,
        "at least one batch plus the summary: {check_replies:?}"
    );
    match &check_replies[0].body {
        ReplyBody::Batch { diagnostics, .. } => {
            assert!(!diagnostics.is_empty());
            assert!(diagnostics.iter().any(|d| d.code == "E100"));
        }
        other => panic!("expected a batch first, got {other:?}"),
    }
    match &check_replies[check_replies.len() - 1].body {
        ReplyBody::Check { summary } => {
            assert!(!summary.passed);
            assert_eq!(summary.usage_violations.len(), 1);
        }
        other => panic!("expected the summary last, got {other:?}"),
    }
}

#[test]
fn hello_rejects_a_future_protocol_version() {
    let mut engine = Engine::new(Checker::new());
    let mut replies = Vec::new();
    engine.handle(
        Request {
            id: 7,
            method: Method::Hello {
                version: PROTOCOL_VERSION + 1,
            },
        },
        &mut |r| replies.push(r),
    );
    match replies.as_slice() {
        [Reply {
            id: 7,
            body: ReplyBody::Error { message },
        }] => assert!(message.contains("version mismatch"), "{message}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn configure_switches_recovery_mode_mid_session() {
    let mut engine = Engine::new(Checker::new().jobs(1));
    let mut replies = Vec::new();
    // One statement of `broken.py` is outside the grammar: a strict
    // check fails to parse, then `configure {recover: true}` turns the
    // same open file into a degraded-but-verifiable module.
    let text = VALVE_PY.replace(
        "    @op\n    def open(self):\n",
        "    @op\n    def open(self):\n        x = = 1\n",
    );
    engine.handle(
        Request {
            id: 1,
            method: Method::Open {
                path: "broken.py".into(),
                text,
            },
        },
        &mut |r| replies.push(r),
    );
    engine.handle(
        Request {
            id: 2,
            method: Method::Check,
        },
        &mut |r| replies.push(r),
    );
    match replies.last() {
        Some(Reply {
            body: ReplyBody::Check { summary },
            ..
        }) => {
            assert!(!summary.passed);
            assert!(summary.parse_error.is_some());
        }
        other => panic!("expected a failed summary, got {other:?}"),
    }

    engine.handle(
        Request {
            id: 3,
            method: Method::Configure { recover: true },
        },
        &mut |r| replies.push(r),
    );
    assert!(matches!(
        replies.last(),
        Some(Reply {
            id: 3,
            body: ReplyBody::Ok
        })
    ));
    engine.handle(
        Request {
            id: 4,
            method: Method::Check,
        },
        &mut |r| replies.push(r),
    );
    let check_replies: Vec<_> = replies.iter().filter(|r| r.id == 4).collect();
    match &check_replies[check_replies.len() - 1].body {
        ReplyBody::Check { summary } => {
            assert!(summary.passed, "degraded statement no longer fatal");
            assert!(summary.parse_error.is_none());
        }
        other => panic!("expected the summary last, got {other:?}"),
    }
    // The degraded span surfaces as a W014 warning batch.
    assert!(
        check_replies.iter().any(|r| matches!(
            &r.body,
            ReplyBody::Batch { diagnostics, .. }
                if diagnostics.iter().any(|d| d.code == "W014")
        )),
        "{check_replies:?}"
    );
}

#[test]
fn parse_errors_surface_as_a_failed_summary_with_position() {
    let mut engine = Engine::new(Checker::new());
    let mut replies = Vec::new();
    let mut emit = |r: Reply| replies.push(r);
    engine.handle(
        Request {
            id: 1,
            method: Method::Open {
                path: "broken.py".into(),
                text: "def broken(:\n".into(),
            },
        },
        &mut emit,
    );
    engine.handle(
        Request {
            id: 2,
            method: Method::Check,
        },
        &mut emit,
    );
    match replies.last() {
        Some(Reply {
            body: ReplyBody::Check { summary },
            ..
        }) => {
            assert!(!summary.passed);
            let failure = summary.parse_error.as_ref().expect("parse error");
            assert_eq!(failure.file, "broken.py");
            assert_eq!(failure.line, Some(1));
            assert!(failure.render_text().starts_with("broken.py: syntax error"));
        }
        other => panic!("expected a check reply, got {other:?}"),
    }
}

/// A daemon on a fresh socket plus one raw line-level connection to it,
/// for requests the typed [`Client`] cannot express.
struct RawSession {
    server: std::thread::JoinHandle<std::io::Result<()>>,
    writer: std::os::unix::net::UnixStream,
    reader: std::io::BufReader<std::os::unix::net::UnixStream>,
}

impl RawSession {
    fn start(name: &str) -> RawSession {
        let socket = temp_dir(name).join("daemon.sock");
        let engine = Engine::new(Checker::new());
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve_socket(engine, &socket))
        };
        while !socket.exists() {
            std::thread::yield_now();
        }
        let writer = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        let reader = std::io::BufReader::new(writer.try_clone().unwrap());
        RawSession {
            server,
            writer,
            reader,
        }
    }

    fn send_line(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.writer.write_all(bytes).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn send(&mut self, request: &Request) {
        self.send_line(serde::json::to_string(request).as_bytes());
    }

    fn read_reply(&mut self) -> Reply {
        use std::io::BufRead;
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        serde::json::from_str(&line).unwrap()
    }

    /// Opens the valve and runs a check on this connection, returning the
    /// final summary.
    fn open_and_check(&mut self) -> shelley_core::CheckSummary {
        self.send(&Request {
            id: 10,
            method: Method::Open {
                path: "valve.py".into(),
                text: VALVE_PY.into(),
            },
        });
        assert!(matches!(self.read_reply().body, ReplyBody::Ok));
        self.send(&Request {
            id: 11,
            method: Method::Check,
        });
        loop {
            match self.read_reply() {
                Reply {
                    id: 11,
                    body: ReplyBody::Check { summary },
                } => return summary,
                Reply {
                    id: 11,
                    body: ReplyBody::Batch { .. },
                } => {}
                other => panic!("unexpected reply to check: {other:?}"),
            }
        }
    }

    fn shut_down(mut self) {
        self.send(&Request {
            id: 99,
            method: Method::Shutdown,
        });
        assert!(matches!(self.read_reply().body, ReplyBody::Ok));
        self.server.join().unwrap().unwrap();
    }
}

#[test]
fn a_version_5_configure_with_a_backend_is_an_error_reply() {
    // Protocol 6 has no `backend` field; each value version 5 accepted,
    // and the `smv` it had already dropped, is refused the same way.
    let mut session = RawSession::start("v5-configure");
    for backend in ["auto", "explicit", "symbolic", "smv"] {
        let line = format!(
            r#"{{"id":2,"method":{{"configure":{{"recover":false,"backend":"{backend}"}}}}}}"#
        );
        session.send_line(line.as_bytes());
        match session.read_reply() {
            Reply {
                body: ReplyBody::Error { message },
                ..
            } => assert!(message.contains("unknown field `backend`"), "{message}"),
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
    // The connection survives and still answers a check.
    let summary = session.open_and_check();
    assert!(summary.passed, "{summary:?}");
    assert_eq!(summary.systems, ["Valve"]);
    session.shut_down();
}

#[test]
fn a_version_5_hello_is_refused_and_the_connection_keeps_serving() {
    let mut session = RawSession::start("v5-hello");
    session.send(&Request {
        id: 1,
        method: Method::Hello { version: 5 },
    });
    match session.read_reply() {
        Reply {
            id: 1,
            body: ReplyBody::Error { message },
        } => assert!(
            message.contains("client speaks 5, server speaks 6"),
            "{message}"
        ),
        other => panic!("expected an error reply, got {other:?}"),
    }
    session.send(&Request {
        id: 2,
        method: Method::Hello {
            version: shelley_core::PROTOCOL_VERSION,
        },
    });
    assert!(matches!(
        session.read_reply(),
        Reply {
            id: 2,
            body: ReplyBody::Hello { version: 6, .. }
        }
    ));
    let summary = session.open_and_check();
    assert!(summary.passed, "{summary:?}");
    session.shut_down();
}

#[test]
fn an_oversized_request_line_is_refused_and_the_connection_keeps_serving() {
    use shelley_daemon::server::MAX_REQUEST_BYTES;
    let mut session = RawSession::start("oversized");
    // A syntactically plausible request whose `text` alone exceeds the cap.
    let mut line = br#"{"id":3,"method":{"open":{"path":"big.py","text":""#.to_vec();
    line.resize(MAX_REQUEST_BYTES + 1024, b'x');
    line.extend_from_slice(br#""}}}"#);
    session.send_line(&line);
    match session.read_reply() {
        Reply {
            id: 0,
            body: ReplyBody::Error { message },
        } => assert!(message.contains("byte limit"), "{message}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The oversized line was discarded whole: the next request parses,
    // and the workspace never saw `big.py`.
    let summary = session.open_and_check();
    assert!(summary.passed, "{summary:?}");
    assert_eq!(summary.systems, ["Valve"]);
    session.shut_down();
}

#[test]
fn a_deeply_nested_request_is_refused_and_the_connection_keeps_serving() {
    use shelley_daemon::server::{MALFORMED_ID, MAX_REQUEST_BYTES};
    let mut session = RawSession::start("deep-nesting");
    // About 400 KB, far under the line cap: 200,000 nested arrays where
    // the method goes. Decoding it must not recurse once per bracket.
    let depth = 200_000;
    let mut line = br#"{"id":1,"method":"#.to_vec();
    line.resize(line.len() + depth, b'[');
    line.resize(line.len() + depth, b']');
    line.push(b'}');
    assert!(line.len() < MAX_REQUEST_BYTES);
    session.send_line(&line);
    match session.read_reply() {
        Reply {
            id: MALFORMED_ID,
            body: ReplyBody::Error { message },
        } => assert!(message.starts_with("malformed request"), "{message}"),
        other => panic!("expected a malformed-request reply, got {other:?}"),
    }
    // The same depth under a field the decoder skips.
    let mut line = br#"{"id":2,"method":"check","extra":"#.to_vec();
    line.resize(line.len() + depth, b'[');
    line.resize(line.len() + depth, b']');
    line.push(b'}');
    session.send_line(&line);
    match session.read_reply() {
        Reply {
            id: MALFORMED_ID,
            body: ReplyBody::Error { message },
        } => assert!(message.contains("nested deeper"), "{message}"),
        other => panic!("expected a malformed-request reply, got {other:?}"),
    }
    let summary = session.open_and_check();
    assert!(summary.passed, "{summary:?}");
    assert_eq!(summary.systems, ["Valve"]);
    session.shut_down();
}
