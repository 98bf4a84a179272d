//! A thin protocol client: writes one request per line, collects the
//! replies that answer it. `shelleyc watch` and `shelleyc connect` are
//! both built on this.

use serde::json;
use shelley_core::api::CheckSummary;
use shelley_core::{Method, Reply, ReplyBody, Request, WorkspaceStats, PROTOCOL_VERSION};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A connected protocol client over any line-oriented transport.
pub struct Client<R, W> {
    reader: R,
    writer: W,
    next_id: u64,
}

impl Client<BufReader<UnixStream>, UnixStream> {
    /// Connects to a daemon's Unix socket.
    pub fn connect(socket: &Path) -> io::Result<Self> {
        let stream = UnixStream::connect(socket)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client::new(reader, stream))
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// Wraps an already-connected reader/writer pair.
    pub fn new(reader: R, writer: W) -> Self {
        Client {
            reader,
            writer,
            next_id: 1,
        }
    }

    /// Sends one request and collects every reply up to and including
    /// the final one (anything that is not a streamed `batch`).
    pub fn call(&mut self, method: Method) -> io::Result<Vec<ReplyBody>> {
        let id = self.next_id;
        self.next_id += 1;
        let line = json::to_string(&Request { id, method });
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;

        let mut bodies = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(protocol_error("server closed the connection"));
            }
            if line.trim().is_empty() {
                continue;
            }
            let reply: Reply = json::from_str(line.trim_end())
                .map_err(|e| protocol_error(&format!("unparseable reply: {e}")))?;
            if reply.id != id {
                return Err(protocol_error(&format!(
                    "reply for request {} while waiting for {id}",
                    reply.id
                )));
            }
            let done = !matches!(reply.body, ReplyBody::Batch { .. });
            bodies.push(reply.body);
            if done {
                return Ok(bodies);
            }
        }
    }

    /// Performs the version handshake, failing on a mismatched server.
    pub fn hello(&mut self) -> io::Result<()> {
        match self.call(Method::Hello {
            version: PROTOCOL_VERSION,
        })? {
            bodies if matches!(bodies.last(), Some(ReplyBody::Hello { .. })) => Ok(()),
            bodies => Err(reply_error(&bodies)),
        }
    }

    /// Opens (or replaces) one file in the daemon's workspace.
    pub fn open(&mut self, path: impl Into<String>, text: impl Into<String>) -> io::Result<()> {
        match self.call(Method::Open {
            path: path.into(),
            text: text.into(),
        })? {
            bodies if matches!(bodies.last(), Some(ReplyBody::Ok)) => Ok(()),
            bodies => Err(reply_error(&bodies)),
        }
    }

    /// Switches the daemon's recovery mode (see
    /// [`Workspace::set_recover`](shelley_core::Workspace::set_recover)).
    pub fn configure(&mut self, recover: bool) -> io::Result<()> {
        match self.call(Method::Configure { recover })? {
            bodies if matches!(bodies.last(), Some(ReplyBody::Ok)) => Ok(()),
            bodies => Err(reply_error(&bodies)),
        }
    }

    /// Runs one verification round, returning the final summary (any
    /// streamed batches are folded away — use [`call`](Self::call) to
    /// observe them).
    pub fn check(&mut self) -> io::Result<CheckSummary> {
        match self.call(Method::Check)?.pop() {
            Some(ReplyBody::Check { summary }) => Ok(summary),
            Some(body) => Err(reply_error(&[body])),
            None => Err(protocol_error("empty reply to check")),
        }
    }

    /// Fetches the daemon's workspace statistics: lifetime totals and the
    /// most recent round, antichain inclusion-engine counters included.
    pub fn stats(&mut self) -> io::Result<(WorkspaceStats, WorkspaceStats)> {
        match self.call(Method::Stats)?.pop() {
            Some(ReplyBody::Stats { totals, last_round }) => Ok((totals, last_round)),
            Some(body) => Err(reply_error(&[body])),
            None => Err(protocol_error("empty reply to stats")),
        }
    }

    /// Asks the daemon to persist its cache and stop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(Method::Shutdown)? {
            bodies if matches!(bodies.last(), Some(ReplyBody::Ok)) => Ok(()),
            bodies => Err(reply_error(&bodies)),
        }
    }
}

fn protocol_error(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

fn reply_error(bodies: &[ReplyBody]) -> io::Error {
    let message = match bodies.last() {
        Some(ReplyBody::Error { message }) => message.clone(),
        other => format!("unexpected reply: {other:?}"),
    };
    io::Error::other(message)
}
