//! The **framed front end** every NEDWIRE1 service runs behind: the
//! shard ([`NedServer`](crate::server::NedServer)) and the fleet
//! coordinator ([`RouterServer`](crate::router::RouterServer)) differ
//! only in how they [`execute`](Service::execute) a request and in what
//! runs [after the drain](Service::after_drain). Parsing, session
//! control, panic isolation, batching, admission, timeouts, drain, the
//! serving counters and the stdin REPL exist once, here.
//!
//! # The batch protocol
//!
//! A TCP frame (see [`ned_core::wire`]) carries one *or more*
//! newline-separated commands, each parsed **once** into a [`Request`];
//! the reply frame carries the concatenated replies in command order.
//! Batching amortizes round-trips, and a frame of **read-only** commands
//! ([`Request::is_write`] is the eligibility test) additionally fans out
//! across the service's persistent [`WorkerPool`]. Frames containing any
//! write run sequentially in frame order, so a client's `addsig` is
//! visible to the commands after it in the same frame. The REPL
//! ([`repl`]) treats each stdin line as one such payload.
//!
//! Connections are thread-per-connection `std::net`, no async runtime.
//! A frame that fails checksum/magic/length validation gets a
//! best-effort `error: ...` reply and the connection is closed: once
//! framing sync is lost the stream cannot be trusted. A non-UTF-8
//! payload inside a valid frame gets an in-band error and the session
//! survives.
//!
//! # Fault tolerance
//!
//! [`ServerConfig`] holds the limits. Failures answer with a structured
//! [`ServerError`] whose variant tells the client whether to retry:
//!
//! * every accepted socket gets **read/write timeouts**; a connection
//!   idle past the read timeout gets an `error: io: socket timeout`
//!   frame and is closed;
//! * admissions are capped at [`ServerConfig::max_conns`]; excess
//!   connections get a clean [`ServerError::Overloaded`] frame and are
//!   closed, never silently dropped, never unbounded threads;
//! * execution is wrapped in `catch_unwind` per command *and* per
//!   connection, so a panicking handler answers `error: internal panic`
//!   and poisons nothing else;
//! * `shutdown` drains: the acceptor stops, in-flight frames finish,
//!   idle connections are nudged closed, [`Service::after_drain`] runs,
//!   and `serve_tcp` returns `Ok(())` so the process can exit 0.
//!
//! Every service's `stats` reply carries the front end's
//! accepted/active/timeout/overload/panic counters.

use ned_core::proto::{Request, Response, ServerError};
use ned_core::{wire, WorkerPool};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serving limits. `Default` suits tests and the REPL; `ned-cli serve`
/// exposes the connection cap as `--max-conns`.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Per-socket read timeout (`None` = block forever). A connection
    /// idle past this is closed with an `error: io: socket timeout`
    /// frame.
    pub read_timeout: Option<Duration>,
    /// Per-socket write timeout (`None` = block forever) — protects
    /// against clients that stop draining their receive buffer.
    pub write_timeout: Option<Duration>,
    /// Admission cap: connections accepted while this many are already
    /// active get an [`ServerError::Overloaded`] frame and are closed.
    pub max_conns: usize,
    /// How long `shutdown` waits for in-flight connections — applied
    /// twice: once politely, once after force-closing idle sockets.
    pub drain_grace: Duration,
    /// Enables the hidden `__panic` command that panics inside the
    /// dispatcher — the fault-injection hook for panic-isolation tests.
    /// Never enable outside tests.
    pub enable_test_panic: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_conns: 256,
            drain_grace: Duration::from_secs(2),
            enable_test_panic: false,
        }
    }
}

/// A request executor served through the front end.
pub trait Service: Send + Sync + 'static {
    /// The front-end state this service is served with.
    fn front(&self) -> &Front;

    /// Executes one non-session request. `quit`, `shutdown` and
    /// `__panic` never reach it: the front end answers them.
    fn execute(&self, req: &Request) -> Result<Response, ServerError>;

    /// Runs once the drain has finished, before `serve_tcp` returns.
    fn after_drain(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The front end's per-service state: limits, the batch pool, the drain
/// flag, live connections and the serving counters.
pub struct Front {
    pub(crate) config: ServerConfig,
    pool: WorkerPool,
    /// Set by `shutdown`; the acceptor checks it per accepted connection
    /// and connection loops check it per frame.
    shutting_down: AtomicBool,
    /// Where the acceptor listens; `initiate_shutdown` connects here once
    /// to wake a blocked `accept`.
    local_addr: Mutex<Option<SocketAddr>>,
    /// Clones of every live connection's stream, so drain can nudge idle
    /// keep-alive clients closed.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    accepted: AtomicU64,
    timeouts: AtomicU64,
    overloaded: AtomicU64,
    panics: AtomicU64,
    active: AtomicUsize,
}

/// The reply to a command whose handler panicked.
const PANIC_REPLY: &str =
    "error: internal panic while executing the command; the server is still serving";

/// The reply to `shutdown`.
const DRAIN_REPLY: &str = "ok draining: in-flight connections finish, then the server exits";

impl Front {
    /// Default limits and a batch pool of `pool_threads` workers
    /// (`0` = all cores).
    pub(crate) fn new(pool_threads: usize) -> Front {
        Front {
            config: ServerConfig::default(),
            pool: WorkerPool::new(pool_threads),
            shutting_down: AtomicBool::new(false),
            local_addr: Mutex::new(None),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        }
    }

    /// Flips the drain flag and wakes the acceptor with a throwaway
    /// loopback connection (an accept blocked in the kernel cannot see
    /// an atomic). Idempotent; the `shutdown` command lands here.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let addr = *self.local_addr.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    /// Whether `shutdown` has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Counts a panic the service isolated itself.
    pub(crate) fn count_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// The `server: accepted ...` line of a `stats` reply.
    pub(crate) fn counters_line(&self) -> String {
        format!(
            "server: accepted {}, active {}, timeouts {}, overloaded {}, panics isolated {}",
            self.accepted.load(Ordering::Relaxed),
            self.active.load(Ordering::Relaxed),
            self.timeouts.load(Ordering::Relaxed),
            self.overloaded.load(Ordering::Relaxed),
            self.panics.load(Ordering::Relaxed),
        )
    }

    /// Live connections, by id (a poisoned lock still holds valid
    /// streams).
    fn conns(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Closes the read side of every connection, so idle keep-alive
    /// handlers see EOF at once while one mid-request still writes its
    /// reply; waits for them, then force-closes stragglers and waits once
    /// more. Every wait is bounded by the drain grace.
    fn drain(&self) {
        for how in [SocketShutdown::Read, SocketShutdown::Both] {
            for conn in self.conns().values() {
                let _ = conn.shutdown(how);
            }
            let deadline = Instant::now() + self.config.drain_grace;
            while self.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Outcome of dispatching one command line.
enum Dispatch {
    /// The text to send back (final line `ok ...` / `error: ...`).
    Reply(String),
    /// The client ended its session (`quit` / `exit`).
    Quit,
    /// The client asked the whole server to drain and exit (`shutdown`).
    Shutdown,
}

/// Session control, the `__panic` hook, then [`Service::execute`] behind
/// the per-command panic shield.
fn dispatch<S: Service>(server: &S, parsed: Result<Option<Request>, ServerError>) -> Dispatch {
    let front = server.front();
    let req = match parsed {
        Ok(None) => return Dispatch::Reply(String::new()),
        Err(e) => return Dispatch::Reply(Response::Error(e).to_string()),
        Ok(Some(Request::Quit)) => return Dispatch::Quit,
        Ok(Some(Request::Shutdown)) => {
            front.initiate_shutdown();
            return Dispatch::Shutdown;
        }
        Ok(Some(req)) => req,
    };
    let run = || match req {
        Request::TestPanic if front.config.enable_test_panic => {
            panic!("test-injected panic (`__panic` command)")
        }
        Request::TestPanic => Err(ServerError::bad(
            "unrecognized command \"__panic\"; try `help`",
        )),
        req => server.execute(&req),
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => Dispatch::Reply(result.unwrap_or_else(Response::Error).to_string()),
        Err(_) => {
            front.count_panic();
            Dispatch::Reply(PANIC_REPLY.to_string())
        }
    }
}

/// Executes a whole frame payload: one or more newline-separated
/// commands. Multi-command payloads of pure reads fan out on the worker
/// pool (order-preserving); anything containing a write runs
/// sequentially. Returns the concatenated reply and whether the session
/// should end.
fn handle_payload<S: Service>(server: &Arc<S>, payload: &str) -> (String, bool) {
    let parsed: Vec<Result<Option<Request>, ServerError>> =
        payload.lines().map(Request::parse_line).collect();
    // Blank lines and parse errors count as reads: they answer without
    // touching anything.
    let all_reads = parsed.len() > 1
        && parsed
            .iter()
            .all(|p| !matches!(p, Ok(Some(req)) if req.is_write()));
    if all_reads {
        let jobs: Vec<_> = parsed
            .into_iter()
            .map(|p| {
                let server = Arc::clone(server);
                move || match dispatch(&*server, p) {
                    Dispatch::Reply(r) => r,
                    _ => unreachable!("read-only requests never end the session"),
                }
            })
            .collect();
        return (server.front().pool.run_ordered(jobs).join("\n"), false);
    }
    let mut replies = Vec::with_capacity(parsed.len());
    for p in parsed {
        match dispatch(&**server, p) {
            Dispatch::Reply(r) => replies.push(r),
            Dispatch::Quit => {
                replies.push("ok bye".to_string());
                return (replies.join("\n"), true);
            }
            Dispatch::Shutdown => {
                replies.push(DRAIN_REPLY.to_string());
                return (replies.join("\n"), true);
            }
        }
    }
    (replies.join("\n"), false)
}

/// Accept loop: one thread per connection, all sharing `server`. Runs
/// until the listener fails or `shutdown` drains it; individual
/// connection errors only end that connection. On shutdown the loop
/// stops accepting, waits out in-flight frames (force-closing idle
/// sockets after [`ServerConfig::drain_grace`]), runs
/// [`Service::after_drain`], and returns `Ok(())` so the process can
/// exit 0.
pub fn serve_tcp<S: Service>(server: &Arc<S>, listener: TcpListener) -> std::io::Result<()> {
    let front = server.front();
    *front.local_addr.lock().unwrap_or_else(|p| p.into_inner()) = listener.local_addr().ok();
    for conn in listener.incoming() {
        if front.is_shutting_down() {
            break;
        }
        let stream = conn?;
        front.accepted.fetch_add(1, Ordering::Relaxed);
        // The accept loop is the only incrementer of `active`, so
        // check-then-increment cannot race past the cap.
        let active = front.active.load(Ordering::Relaxed);
        if active >= front.config.max_conns {
            front.overloaded.fetch_add(1, Ordering::Relaxed);
            let refusal = ServerError::Overloaded(format!(
                "{active}/{} connections; retry later",
                front.config.max_conns
            ));
            let _ = wire::write_text_frame(&mut &stream, &refusal.to_string());
            continue; // drop closes the socket
        }
        front.active.fetch_add(1, Ordering::Relaxed);
        let id = front.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            front.conns().insert(id, clone);
        }
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let front = server.front();
            // Belt over the per-command suspenders: nothing a connection
            // does may unwind into the process.
            if catch_unwind(AssertUnwindSafe(|| handle_conn(&server, &stream))).is_err() {
                front.count_panic();
            }
            front.active.fetch_sub(1, Ordering::Relaxed);
            front.conns().remove(&id);
        });
    }
    front.drain();
    server.after_drain()
}

fn handle_conn<S: Service>(server: &Arc<S>, stream: &TcpStream) {
    let front = server.front();
    let _ = stream.set_read_timeout(front.config.read_timeout);
    let _ = stream.set_write_timeout(front.config.write_timeout);
    let (mut read_half, mut write_half) = (stream, stream);
    loop {
        let (reply, end) = match wire::read_frame(&mut read_half) {
            Ok(None) => return, // clean disconnect
            // UTF-8 decoding happens here rather than in
            // `read_text_frame`: a non-UTF-8 payload inside a
            // checksum-valid frame means framing sync is intact, so it
            // gets an in-band error and the connection survives.
            Ok(Some(payload)) => match String::from_utf8(payload) {
                Ok(text) => {
                    let (reply, quit) = handle_payload(server, &text);
                    (reply, quit || front.is_shutting_down())
                }
                Err(_) => (
                    ServerError::Corrupt("frame payload is not UTF-8".to_string()).to_string(),
                    false,
                ),
            },
            Err(wire::WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // The socket timeout fired: the client is wedged (or just
                // idle past the limit). Say why, then hang up.
                front.timeouts.fetch_add(1, Ordering::Relaxed);
                let timeout = ServerError::Io("socket timeout; closing connection".to_string());
                (timeout.to_string(), true)
            }
            // Framing sync is gone (bad length, magic or checksum): tell
            // the client why, as the Corrupt it is, then hang up.
            Err(e) => (ServerError::from(e).to_string(), true),
        };
        if wire::write_text_frame(&mut write_half, &reply).is_err() || end {
            return;
        }
    }
}

/// The stdin REPL: each input line is one payload, its reply is written
/// to `output`. Returns at end of input, on `quit`/`shutdown`, or when a
/// reply cannot be written (a closed stdout ends the session like
/// `quit`, so the caller's teardown still runs).
pub fn repl<S: Service>(
    server: &Arc<S>,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    for line in input.lines() {
        let (reply, quit) = handle_payload(server, &line?);
        if (!reply.is_empty() && writeln!(output, "{reply}").is_err()) || quit {
            break;
        }
    }
    Ok(())
}
