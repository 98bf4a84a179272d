//! The two daemon transports: a single stdio session and a Unix-socket
//! listener serving many concurrent clients.
//!
//! Both funnel every request through one [`Engine`] behind a mutex, so
//! concurrent clients serialize at the workspace — each one still sees
//! the warm caches left by all the others, which is the point of a
//! shared daemon. Replies for one request are fully buffered before
//! they are written, so a slow client never holds the engine lock.
//!
//! A request line may hold at most [`MAX_REQUEST_BYTES`]; a longer one is
//! answered with an error and skipped without being buffered, and the
//! connection keeps serving.

use crate::engine::{Engine, Outcome};
use serde::json;
use shelley_core::{Reply, ReplyBody, Request};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

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
    let stdin = io::stdin().lock();
    let stdout = io::stdout().lock();
    serve_connection(&engine, stdin, stdout, &stop)?;
    engine.lock().unwrap().persist()?;
    Ok(())
}

/// Binds `socket` and serves every connection on its own thread until a
/// client sends `shutdown`, then joins the workers, persists the cache,
/// and removes the socket file.
///
/// A stale socket file from a crashed daemon is removed before binding.
pub fn serve_socket(engine: Engine, socket: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
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
    engine.lock().unwrap().persist()?;
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// Reads newline-delimited requests from `reader` and writes the replies
/// to `writer` until `shutdown`, end of input, or an I/O error. Sets
/// `stop` when the client asked the whole daemon to shut down.
fn serve_connection(
    engine: &Mutex<Engine>,
    mut reader: impl BufRead,
    mut writer: impl Write,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut buf = Vec::new();
    while let Some(fits) = read_request_line(&mut reader, &mut buf)? {
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
            Ok(request) => engine
                .lock()
                .unwrap()
                .handle(request, &mut |reply| replies.push(reply)),
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
        writer.flush()?;
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
    Ok(())
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
