//! Child processes — `shelleyc check` runs and `shelleyc serve` daemons —
//! reaped with their exit status and peak memory. Every child is killed
//! and waited for if the benchmark leaves its scope early.

use serde::json;
use shelley_core::{Method, Reply, ReplyBody, Request, PROTOCOL_VERSION};
use shelley_daemon::Client;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak memory through wait4(2) and /proc on 64-bit Linux");

/// `struct rusage` of 64-bit Linux: user and system time as `timeval`s
/// (seconds, microseconds), then fourteen longs, the first of which is
/// `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// The exit code, `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size, in KiB.
    pub max_rss_kb: u64,
    /// User plus system CPU time over the child's life, in ms.
    pub cpu_ms: f64,
}

/// A running child that is killed and reaped when dropped.
pub struct Proc(Option<Child>);

impl Proc {
    pub fn spawn(command: &mut Command) -> io::Result<Proc> {
        command.spawn().map(|child| Proc(Some(child)))
    }

    pub fn id(&self) -> u32 {
        self.child().id()
    }

    fn child(&self) -> &Child {
        self.0
            .as_ref()
            .expect("a Proc holds its child until reaped")
    }

    fn child_mut(&mut self) -> &mut Child {
        self.0
            .as_mut()
            .expect("a Proc holds its child until reaped")
    }

    /// Whether the child has already ended (without reaping it).
    pub fn exited(&mut self) -> bool {
        !matches!(self.child_mut().try_wait(), Ok(None))
    }

    /// Waits for the child and reaps it with `wait4`, which also reports
    /// its peak memory.
    pub fn reap(mut self) -> io::Result<Exit> {
        let child = self.0.take().expect("a Proc holds its child until reaped");
        let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
        let mut status = 0i32;
        let mut usage = Rusage {
            times: [0; 4],
            maxrss: 0,
            _rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live and writable, and
            // `Rusage` has the layout wait4(2) writes on 64-bit Linux (the
            // compile_error above rules out every other target). `pid` is
            // a child of this process that nothing else has reaped: `Proc`
            // owns it and std never waits on its own.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                let mut child = child;
                let _ = child.kill();
                let _ = child.wait();
                return Err(err);
            }
        }
        drop(child);
        Ok(Exit {
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
            cpu_ms: (usage.times[0] + usage.times[2]) as f64 * 1e3
                + (usage.times[1] + usage.times[3]) as f64 / 1e3,
        })
    }

    /// Reads the child's stdout to its end, then reaps it.
    pub fn output(mut self) -> io::Result<(Exit, String)> {
        let mut out = String::new();
        if let Some(mut stdout) = self.child_mut().stdout.take() {
            stdout.read_to_string(&mut out)?;
        }
        Ok((self.reap()?, out))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs `shelleyc <args>` in `dir` to completion, capturing stdout.
pub fn run(shelleyc: &Path, dir: &Path, args: &[String]) -> io::Result<(Exit, String)> {
    Proc::spawn(
        Command::new(shelleyc)
            .current_dir(dir)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    )?
    .output()
}

pub type SocketClient = Client<BufReader<UnixStream>, UnixStream>;

/// A `shelleyc serve --socket` child.
pub struct Daemon {
    proc: Proc,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `shelleyc serve --socket <socket> [--cache <cache>] [--jobs <jobs>]`.
    pub fn spawn(
        shelleyc: &Path,
        socket: &Path,
        cache: Option<&Path>,
        jobs: Option<usize>,
    ) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(socket);
        let mut command = Command::new(shelleyc);
        command.arg("serve").arg("--socket").arg(socket);
        if let Some(cache) = cache {
            command.arg("--cache").arg(cache);
        }
        if let Some(jobs) = jobs {
            command.arg("--jobs").arg(jobs.to_string());
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        Ok(Daemon {
            proc: Proc::spawn(&mut command)?,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects as soon as the daemon accepts, then sends `hello` and one
    /// `open` per file as a single pipelined burst — the way an editor
    /// reopens a project — and checks every reply. Returns a `Client` on
    /// the same connection for the requests that follow.
    pub fn connect(&mut self, files: &[(&str, &str)]) -> io::Result<SocketClient> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() > deadline || self.proc.exited() => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        let mut burst = json::to_string(&Request {
            id: 1,
            method: Method::Hello {
                version: PROTOCOL_VERSION,
            },
        });
        burst.push('\n');
        for (id, (path, text)) in (2..).zip(files) {
            burst.push_str(&json::to_string(&Request {
                id,
                method: Method::Open {
                    path: path.to_string(),
                    text: text.to_string(),
                },
            }));
            burst.push('\n');
        }
        // Replies are read while the burst is written: the daemon answers
        // each request as it reads it, and its replies would fill the
        // socket buffer (and stall it) long before the burst is through.
        let mut replies = BufReader::new(stream.try_clone()?);
        let read = std::thread::scope(|scope| {
            let writer = scope.spawn(|| (&stream).write_all(burst.as_bytes()));
            let read = read_replies(&mut replies, files.len() as u64);
            if read.is_err() {
                // Unblock the writer: the daemon may have stopped reading.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            let written = writer.join().expect("the burst writer does not panic");
            read.and(written)
        });
        read?;
        Ok(Client::new(BufReader::new(stream.try_clone()?), stream))
    }

    /// Waits until the daemon listens on its socket (it binds after
    /// loading its cache).
    pub fn wait_listening(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.socket.exists() {
            if Instant::now() > deadline || self.proc.exited() {
                return Err(io::Error::other("daemon never listened"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// User plus system CPU time the daemon has used so far, in ms
    /// (`/proc/<pid>/stat` fields 14 and 15, in 10 ms clock ticks).
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.proc.id()))?;
        // Fields after the parenthesized command name start at field 3.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) as f64 * 10.0),
            _ => Err(io::Error::other("unreadable /proc stat line")),
        }
    }

    /// The daemon's peak resident set so far (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.proc.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
    }

    /// Waits for the daemon to exit (after `shutdown`).
    pub fn wait(self) -> io::Result<Exit> {
        self.proc.reap()
    }
}

/// Reads the replies to a burst of `hello` (id 1) and `opens` `open`s
/// (ids 2..): each must be the expected body for its id. The daemon sends
/// nothing else before the next request, so the reader keeps no bytes
/// that belong to a later reply.
fn read_replies(replies: &mut impl BufRead, opens: u64) -> io::Result<()> {
    for id in 1..=opens + 1 {
        let mut line = String::new();
        if replies.read_line(&mut line)? == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        let reply: Reply = json::from_str(line.trim_end())
            .map_err(|e| io::Error::other(format!("unparseable reply: {e}")))?;
        let expected = if id == 1 {
            matches!(reply.body, ReplyBody::Hello { .. })
        } else {
            reply.body == ReplyBody::Ok
        };
        if reply.id != id || !expected {
            return Err(io::Error::other(format!(
                "unexpected reply to request {id}: {reply:?}"
            )));
        }
    }
    Ok(())
}
