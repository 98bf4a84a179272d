//! The two daemon transports: a single stdio session and a Unix-socket
//! listener serving many concurrent clients.
//!
//! Both funnel every request through one [`Engine`] behind a mutex, so
//! concurrent clients serialize at the workspace — each one still sees
//! the warm caches left by all the others, which is the point of a
//! shared daemon. Replies for one request are fully buffered before
//! they are written, so a slow client never holds the engine lock.
//!
//! Replies are coalesced: a connection writes through a buffer that is
//! flushed only when the client has no further complete request waiting
//! to be read (or the session ends). A pipelined burst of requests thus
//! gets its replies in a few large writes instead of one per reply, while
//! a client that waits for a reply before sending more — or that has sent
//! only part of its next request — still gets every reply it is owed.
//!
//! A request line may hold at most [`MAX_REQUEST_BYTES`]; a longer one is
//! answered with an error and skipped without being buffered, and the
//! connection keeps serving.

use crate::engine::{Engine, Outcome};
use serde::json;
use shelley_core::{Reply, ReplyBody, Request};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Reply `id` used when a request line is so malformed that no client id
/// could be recovered from it.
pub const MALFORMED_ID: u64 = 0;

/// The longest request line, newline excluded, the daemon will buffer
/// (16 MiB).
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Serves one session on stdin/stdout until `shutdown` or end of input,
/// then persists the cache (if one is attached).
pub fn serve_stdio(engine: Engine) -> io::Result<()> {
    let engine = Mutex::new(engine);
    let stop = AtomicBool::new(false);
    let stdin = BufReader::new(io::stdin().lock());
    let stdout = io::stdout().lock();
    serve_connection(&engine, stdin, stdout, &stop)?;
    lock(&engine).persist()?;
    Ok(())
}

/// Binds `socket` and serves every connection on its own thread until a
/// client sends `shutdown`, then joins the workers, persists the cache,
/// and removes the socket file.
///
/// A stale socket file from a crashed daemon is removed before binding.
///
/// The socket path exists only while the daemon listens on it: the socket
/// is bound at a staging path beside it (`<socket>.bind-<pid>`) and
/// renamed onto `socket` once it listens, so a client that waits for the
/// path to appear and then connects is never refused. (bind(2) creates
/// the file before listen(2) makes it accept connections.)
pub fn serve_socket(engine: Engine, socket: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = bind_listening(socket)?;
    let engine = Arc::new(Mutex::new(engine));
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let wake = socket.to_path_buf();
        workers.push(std::thread::spawn(move || {
            let reader = match stream.try_clone() {
                Ok(clone) => BufReader::new(clone),
                Err(_) => return,
            };
            let _ = serve_connection(&engine, reader, stream, &stop);
            if stop.load(Ordering::SeqCst) {
                // Unblock the accept loop so it can observe the flag.
                let _ = UnixStream::connect(&wake);
            }
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
    lock(&engine).persist()?;
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// A listener at `socket` that is already listening when the path
/// appears (see [`serve_socket`]).
fn bind_listening(socket: &Path) -> io::Result<UnixListener> {
    let mut staging = socket.as_os_str().to_owned();
    staging.push(format!(".bind-{}", std::process::id()));
    let staging = PathBuf::from(staging);
    let _ = std::fs::remove_file(&staging);
    let listener = UnixListener::bind(&staging)?;
    if let Err(e) = std::fs::rename(&staging, socket) {
        let _ = std::fs::remove_file(&staging);
        return Err(e);
    }
    Ok(listener)
}

/// Reads newline-delimited requests from `reader` and writes the replies
/// to `writer` until `shutdown`, end of input, or an I/O error. Sets
/// `stop` when the client asked the whole daemon to shut down.
///
/// Replies are flushed when `reader` holds no complete request line yet
/// (see the [module docs](self)).
fn serve_connection(
    engine: &Mutex<Engine>,
    mut reader: BufReader<impl Read>,
    writer: impl Write,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut writer = BufWriter::new(writer);
    let mut buf = Vec::new();
    loop {
        // Before a read that would block, or find only part of a
        // request: the client may be waiting for the replies so far.
        if !reader.buffer().contains(&b'\n') {
            writer.flush()?;
        }
        let Some(fits) = read_request_line(&mut reader, &mut buf)? else {
            break;
        };
        let request = if fits {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => json::from_str::<Request>(line).map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            }
        } else {
            Err(format!("line exceeds the {MAX_REQUEST_BYTES}-byte limit"))
        };
        let mut replies: Vec<Reply> = Vec::new();
        let outcome = match request {
            Ok(request) => lock(engine).handle(request, &mut |reply| replies.push(reply)),
            Err(e) => {
                replies.push(Reply {
                    id: MALFORMED_ID,
                    body: ReplyBody::Error {
                        message: format!("malformed request: {e}"),
                    },
                });
                Outcome::Continue
            }
        };
        for reply in &replies {
            writer.write_all(json::to_string(reply).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        if outcome == Outcome::Shutdown {
            stop.store(true, Ordering::SeqCst);
            break;
        }
        // Another client may have shut the daemon down while this one
        // was blocked reading; stop serving stale sessions.
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    writer.flush()
}

/// Locks the engine. [`Engine::handle`] contains handler panics, so the
/// lock is never poisoned by one; should it be poisoned anyway, the
/// engine it guards is still usable.
fn lock(engine: &Mutex<Engine>) -> MutexGuard<'_, Engine> {
    engine.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reads one request line into `buf`, newline stripped, buffering at most
/// [`MAX_REQUEST_BYTES`] of it. Returns `None` at end of input and
/// `Some(false)` for an oversized line, whose remainder through the next
/// newline is skipped without being buffered.
fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        return Ok(Some(true));
    }
    if buf.len() <= MAX_REQUEST_BYTES {
        return Ok(Some(true)); // the last line, unterminated
    }
    buf.clear();
    reader.skip_until(b'\n')?;
    Ok(Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use shelley_core::{Checker, ProjectFile};

    const LED: &str = "@sys\nclass Led:\n    @op_initial\n    def on(self):\n        return [\"off\"]\n\n    @op_final\n    def off(self):\n        return [\"on\"]\n";
    const PANEL: &str = "@sys([\"l\"])\nclass Panel:\n    def __init__(self):\n        self.l = Led()\n\n    @op_initial_final\n    def run(self):\n        self.l.on()\n        self.l.off()\n        return []\n";

    /// A check whose handler panics is answered with an error; the next
    /// check on the same connection reports what a cold check reports;
    /// and `shutdown` still stops the daemon cleanly and saves the cache
    /// of the rebuilt workspace once it has finished a round.
    #[test]
    fn a_panicking_check_is_contained_and_the_daemon_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("shelley-daemon-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("daemon.sock");
        let cache = dir.join("cache.ndjson");
        let _ = std::fs::remove_file(&cache);
        let (mut engine, _) = Engine::new(Checker::new().jobs(1)).with_cache(&cache);
        engine.fail_next_check = true;
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve_socket(engine, &socket))
        };
        while !socket.exists() {
            std::thread::yield_now();
        }

        let mut client = Client::connect(&socket).unwrap();
        client.hello().unwrap();
        client.open("led.py", LED).unwrap();
        client.open("panel.py", PANEL).unwrap();
        let error = client.check().unwrap_err().to_string();
        assert!(error.contains("injected fault"), "{error}");

        let summary = client.check().unwrap();
        let cold = Checker::new()
            .check_files(&[
                ProjectFile::new("led.py", LED),
                ProjectFile::new("panel.py", PANEL),
            ])
            .unwrap();
        assert_eq!(summary.report().render(None), cold.report.render(None));
        assert!(summary.passed);
        assert_eq!(summary.systems, ["Led", "Panel"]);
        assert_eq!(summary.stats.verified, 2, "the rebuilt workspace runs cold");

        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
        let saved = std::fs::read_to_string(&cache).unwrap();
        assert_eq!(
            saved.lines().count(),
            5,
            "a header, two verify records and two file records"
        );
    }

    /// Starts a daemon on a socket in a temporary directory of its own;
    /// returns the socket path and the server thread.
    fn spawn_daemon(name: &str) -> (std::path::PathBuf, std::thread::JoinHandle<io::Result<()>>) {
        let dir =
            std::env::temp_dir().join(format!("shelley-daemon-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("daemon.sock");
        let _ = std::fs::remove_file(&socket);
        let engine = Engine::new(Checker::new().jobs(1));
        let server = {
            let socket = socket.clone();
            std::thread::spawn(move || serve_socket(engine, &socket))
        };
        while !socket.exists() {
            std::thread::yield_now();
        }
        (socket, server)
    }

    fn request_line(id: u64, method: shelley_core::Method) -> String {
        json::to_string(&Request { id, method }) + "\n"
    }

    fn open_line(id: u64) -> String {
        request_line(
            id,
            shelley_core::Method::Open {
                path: format!("f{id}.py"),
                text: LED.replace("Led", &format!("Led{id}")),
            },
        )
    }

    fn read_reply(reader: &mut impl BufRead) -> Reply {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "a reply");
        json::from_str(line.trim_end()).unwrap()
    }

    /// A pipelined burst of 1000 requests gets its replies, in order,
    /// though they are written in a few coalesced writes.
    #[test]
    fn a_pipelined_burst_gets_every_reply_in_order() {
        let (socket, server) = spawn_daemon("burst");
        let stream = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let burst: String = (1..=1000).map(open_line).collect();
        let writer = {
            let mut stream = stream.try_clone().unwrap();
            std::thread::spawn(move || stream.write_all(burst.as_bytes()))
        };
        for id in 1..=1000 {
            let reply = read_reply(&mut reader);
            assert_eq!(reply.id, id);
            assert!(matches!(reply.body, ReplyBody::Ok), "{:?}", reply.body);
        }
        writer.join().unwrap().unwrap();
        let mut client = Client::new(reader, stream);
        client.hello().unwrap();
        assert_eq!(client.check().unwrap().systems.len(), 1000);
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    /// A reply is flushed while only part of the next request has
    /// arrived, and a request written in two halves with a pause in
    /// between is answered.
    #[test]
    fn a_request_split_across_writes_is_answered() {
        let (socket, server) = spawn_daemon("split");
        let mut stream = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let second = open_line(2);
        let (head, tail) = second.split_at(second.len() / 2);
        stream
            .write_all(format!("{}{head}", open_line(1)).as_bytes())
            .unwrap();
        assert_eq!(
            read_reply(&mut reader).id,
            1,
            "answered before the rest arrives"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
        stream.write_all(tail.as_bytes()).unwrap();
        assert_eq!(read_reply(&mut reader).id, 2);
        Client::new(reader, stream).shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    /// A client that disconnects in the middle of a burst, its replies
    /// unread and its last request cut short, leaves the daemon serving
    /// the next client.
    #[test]
    fn a_client_disconnecting_mid_burst_leaves_the_daemon_serving() {
        let (socket, server) = spawn_daemon("disconnect");
        {
            let mut stream = UnixStream::connect(&socket).unwrap();
            let burst: String = (1..=200).map(open_line).collect();
            stream
                .write_all(&burst.as_bytes()[..burst.len() - 40])
                .unwrap();
        }
        let mut client = Client::connect(&socket).unwrap();
        client.hello().unwrap();
        client.open("led.py", LED).unwrap();
        client.open("panel.py", PANEL).unwrap();
        let summary = client.check().unwrap();
        assert!(summary.passed);
        assert!(
            summary.systems.iter().any(|s| s == "Panel"),
            "{:?}",
            summary.systems
        );
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    /// The rebuilt workspace is not persisted before it finishes a round:
    /// it holds none of the verify products the disk cache does.
    #[test]
    fn a_rebuilt_workspace_is_not_persisted_before_its_first_round() {
        let dir =
            std::env::temp_dir().join(format!("shelley-daemon-replaced-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache.ndjson");
        std::fs::write(&cache, "kept\n").unwrap();
        let (mut engine, _) = Engine::new(Checker::new().jobs(1)).with_cache(&cache);
        engine.fail_next_check = true;
        let mut replies = Vec::new();
        for method in [
            shelley_core::Method::Open {
                path: "led.py".into(),
                text: LED.into(),
            },
            shelley_core::Method::Check,
            shelley_core::Method::Shutdown,
        ] {
            let outcome = engine.handle(Request { id: 1, method }, &mut |r| replies.push(r.body));
            assert_eq!(outcome == Outcome::Shutdown, replies.len() == 3);
        }
        assert!(matches!(replies[1], ReplyBody::Error { .. }));
        assert!(matches!(replies[2], ReplyBody::Ok));
        assert_eq!(std::fs::read_to_string(&cache).unwrap(), "kept\n");
    }
}
