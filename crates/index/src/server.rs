//! The **serving front-end** over [`crate::durable::DurableIndex`]: one
//! typed command dispatcher shared by every surface, a dependency-free
//! `std::net` TCP server speaking the framed batch protocol, and the
//! matching client.
//!
//! # Command language
//!
//! One command per line, answers as text whose final line starts with
//! `ok` or `error:`. The line grammar lives in [`ned_core::proto`]: a
//! line is parsed **once** into a [`Request`] at whatever boundary it
//! arrives (REPL stdin via [`NedServer::dispatch`], a decoded TCP frame
//! via [`NedServer::handle_payload`]) and from there execution is an
//! exhaustive `match` on the enum — no token matching anywhere past the
//! parse, so behavior cannot drift between the interactive and networked
//! paths and a coordinator composes [`Request`] values programmatically
//! instead of formatting strings.
//!
//! ```text
//! query <graph.edges> <node> [top]    nearest indexed signatures
//! range <graph.edges> <node> <r>      all signatures with NED <= r
//! sig <parens-tree> [top] [within=b]  query by a literal tree shape
//!                                     (within= is the scatter-gather
//!                                     distance budget pushdown)
//! rangesig <parens-tree> <r>          range query by a literal shape
//! add <graph.edges> <node>            index one more signature
//! addsig <parens-tree>                index a literal tree shape
//! putsig <id> <parens-tree>           index under an explicit id (the
//!                                     router owns id assignment)
//! remove <id>                         drop a signature by id
//! track <graph.edges>                 attach a mutating graph (raw
//!                                     add/addsig/putsig/remove writes
//!                                     detach it — they break its
//!                                     node ↔ id invariant; re-track to
//!                                     resume)
//! addedge <a> <b> | deledge <a> <b>   mutate the tracked graph; the
//!                                     (k-1)-hop dirty set is recomputed
//!                                     and published as one epoch
//! stats | epoch | help | quit
//! fingerprint                         epoch + live size + live-set hash
//!                                     (the anti-entropy probe)
//! walsuffix <from_epoch>              one bounded chunk of WAL records
//!                                     past an epoch, for a catching-up
//!                                     peer replica (which loops)
//! catchup <host:port>                 replay a peer's WAL suffix through
//!                                     the journaled write path (after
//!                                     verifying the splice point)
//! save <path>                         persist the current index
//! checkpoint                          snapshot + reset the WAL now
//! shutdown                            drain, checkpoint, exit cleanly
//! ```
//!
//! Query replies are tagged with the **epoch of the snapshot that
//! answered them** (`ok N hits epoch=E`), read atomically with the
//! snapshot — the per-shard consistency tag a fleet coordinator's epoch
//! vector is built from (see `crate::router`).
//!
//! # The batch protocol
//!
//! A TCP frame (see [`ned_core::wire`]) carries one *or more*
//! newline-separated commands; the reply frame carries the concatenated
//! replies in command order. Batching amortizes round-trips, and a frame
//! of **read-only** commands ([`Request::is_write`] is the eligibility
//! test) additionally fans out across the server's persistent
//! [`WorkerPool`] (each command grabs its own snapshot — reads never
//! block). Frames containing any write run sequentially in frame order,
//! so a client's `addsig` is visible to the commands after it in the
//! same frame.
//!
//! Connections are thread-per-connection `std::net` — no async runtime,
//! in keeping with the repo's no-external-dependencies rule. A frame that
//! fails checksum/magic/length validation gets a best-effort
//! `error: ...` reply and the connection is closed: once framing sync is
//! lost the stream cannot be trusted.
//!
//! # Fault tolerance
//!
//! The server is built to keep serving through misbehaving clients and
//! its own bugs ([`ServerConfig`] holds the knobs). Failures answer with
//! a structured [`ServerError`] whose variant tells the client what to
//! do — retry ([`ServerError::is_retryable`]) or give up:
//!
//! * every accepted socket gets **read/write timeouts**, so a wedged or
//!   malicious client cannot pin a connection thread forever;
//! * admissions are capped at [`ServerConfig::max_conns`]; excess
//!   connections get a clean [`ServerError::Overloaded`] frame and
//!   are closed — never silently dropped, never unbounded threads;
//! * command execution is wrapped in `catch_unwind` (per command *and*
//!   per connection), so a panicking handler poisons at most its own
//!   connection — the writer's panic-atomic rollback (see
//!   [`IndexWriter::try_apply`]) keeps the index itself consistent;
//! * `shutdown` drains: the acceptor stops, in-flight frames finish,
//!   idle connections are nudged closed, a final checkpoint runs, and
//!   [`NedServer::serve_tcp`] returns `Ok(())` so the process can exit 0.
//!
//! All of it is observable: `stats` reports accepted/active/timeout/
//! overload/panic counters next to the durability line.

use crate::concurrent::{IndexReader, IndexWriter, WriteOp, WriteOutcome};
use crate::durable::DurableIndex;
use crate::maintain::GraphMaintainer;
use crate::signatures::SignatureIndex;
use ned_core::proto::{Request, Response, ServerError};
use ned_core::{wire, NodeSignature, PreparedTree, TedMemo, WorkerPool};
use ned_graph::{io as graph_io, Graph, GraphDelta, NodeId};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Caps one `walsuffix` reply at this many records. The suffix is read
/// and encoded under the index writer lock, and the whole chunk sits in
/// memory twice (records + response frame) — an unbounded reply would
/// stall donor-side writes and balloon for a long suffix. A catching-up
/// replica loops, re-requesting from its advancing epoch, so bounded
/// chunks need no protocol change.
pub const WAL_CHUNK_MAX_RECORDS: usize = 256;

/// Byte-level companion to [`WAL_CHUNK_MAX_RECORDS`]: the chunk also
/// closes once it holds this many record bytes, so a few huge delta
/// batches cannot blow the frame either.
pub const WAL_CHUNK_MAX_BYTES: usize = 1 << 20;

/// Outcome of dispatching one command line.
pub enum Dispatch {
    /// The text to show or send back (final line `ok ...` / `error: ...`).
    Reply(String),
    /// The client asked to end the session (`quit` / `exit`).
    Quit,
    /// The client asked the whole server to drain and exit (`shutdown`).
    /// The accept loop stops; the surface should end its session too.
    Shutdown,
}

/// Serving limits and fault-tolerance knobs. `Default` suits tests and
/// the REPL; `ned-cli serve` exposes the connection cap as `--max-conns`.
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

/// Monotonic serving counters, reported by `stats`.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    timeouts: AtomicU64,
    overloaded: AtomicU64,
    panics: AtomicU64,
    checkpoint_failures: AtomicU64,
    active: AtomicUsize,
}

/// The shared serving state: durable index, graph cache, worker pool.
/// Cheap to share — wrap in an [`Arc`] and hand clones to every
/// connection thread (see [`NedServer::serve_tcp`]).
pub struct NedServer {
    index: DurableIndex,
    /// Parsed edge-list files, cached across commands and connections.
    graphs: Mutex<HashMap<String, Arc<Graph>>>,
    /// The tracked mutating graph behind `addedge`/`deledge`
    /// (`track <path>` installs one). Locked for the whole delta
    /// application — writes are serialized anyway, and readers never
    /// touch it.
    maintained: Mutex<Option<GraphMaintainer>>,
    /// Persistent pool reused by every read-only batch frame.
    pool: WorkerPool,
    /// Intra-query fan-out passed to the index (`1` is right for
    /// concurrent serving: requests, not scan runs, should fill the cores).
    query_threads: usize,
    config: ServerConfig,
    /// Set by `shutdown`; the acceptor checks it per accepted connection
    /// and connection loops check it per frame.
    shutting_down: AtomicBool,
    /// Set while a `catchup` is replaying a peer's WAL suffix. Queries
    /// answer [`ServerError::CatchingUp`] until it clears, so a stale
    /// replica never serves a read the router would have to repair.
    catching_up: AtomicBool,
    /// Where the acceptor is listening — `initiate_shutdown` connects
    /// here once to wake a blocked `accept`.
    local_addr: Mutex<Option<SocketAddr>>,
    /// Clones of every live connection's stream, so drain can nudge
    /// idle keep-alive clients closed.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    counters: Counters,
}

impl NedServer {
    /// Wraps `index` for **ephemeral** serving (no WAL, no checkpoints).
    /// `query_threads` is the per-query shard fan-out (`0` = all cores —
    /// right for a single-user REPL, wrong for a concurrent server, which
    /// should pass `1`); `pool_threads` sizes the batch pool (`0` = all
    /// cores).
    pub fn new(index: SignatureIndex, query_threads: usize, pool_threads: usize) -> Self {
        Self::with_durability(DurableIndex::ephemeral(index), query_threads, pool_threads)
    }

    /// Serves a [`DurableIndex`] — typically one fresh out of
    /// [`DurableIndex::recover`], with its WAL attached. Write commands
    /// journal before acknowledging and checkpoint on the index's cadence.
    pub fn with_durability(index: DurableIndex, query_threads: usize, pool_threads: usize) -> Self {
        NedServer {
            index,
            graphs: Mutex::new(HashMap::new()),
            maintained: Mutex::new(None),
            pool: WorkerPool::new(pool_threads),
            query_threads,
            config: ServerConfig::default(),
            shutting_down: AtomicBool::new(false),
            catching_up: AtomicBool::new(false),
            local_addr: Mutex::new(None),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// Replaces the serving limits (builder-style, before sharing).
    pub fn with_config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// The durable index being served (checkpoint paths, cadence, …).
    pub fn durable(&self) -> &DurableIndex {
        &self.index
    }

    /// Installs `graph` as the tracked graph behind `addedge`/`deledge`,
    /// verifying it actually matches the served index (node `v` indexed
    /// under id `v` with the same neighborhood shape). The `track`
    /// command and `ned-cli serve --graph` both land here.
    ///
    /// The writer lock is held across verification *and* installation,
    /// so no write can slip between the check and the attach; raw index
    /// writes (`add`/`addsig`/`putsig`/`remove`) after that point
    /// **detach** the tracked graph instead of silently breaking its
    /// node ↔ id invariant (re-`track` to resume deltas).
    pub fn track(&self, graph: &Graph) -> Result<String, ServerError> {
        let mut tracked = self.maintained.lock().unwrap_or_else(|p| p.into_inner());
        let writer = self.index.writer();
        let maintainer = GraphMaintainer::attach(graph, writer.index().k(), 0, self.query_threads);
        maintainer
            .verify_against(writer.index())
            .map_err(ServerError::BadRequest)?;
        let line = format!(
            "tracking graph ({} nodes, {} edges, k = {})",
            maintainer.num_nodes(),
            maintainer.num_edges(),
            maintainer.k()
        );
        *tracked = Some(maintainer);
        Ok(line)
    }

    /// Runs a raw index write while detaching any tracked graph — a raw
    /// write breaks the maintainer's "node `v` ⇔ id `v`, class as
    /// recorded" invariant, and a stale maintainer could later resurrect
    /// a removed id through a `Replace`. The maintained lock is held
    /// across the write so a concurrent `track` cannot interleave.
    fn raw_write<R>(&self, op: impl FnOnce(&mut IndexWriter) -> R) -> R {
        let mut tracked = self.maintained.lock().unwrap_or_else(|p| p.into_inner());
        let result = op(&mut self.index.writer());
        *tracked = None;
        result
    }

    /// One raw write op, journaled (when durable) and checkpointed on
    /// cadence. Returns the outcome **and the epoch the write published
    /// as** (read under the writer lock, so it is exactly this batch's
    /// publication). A WAL append failure is an error reply, **not** an
    /// acknowledgment — the batch was rolled back and never published.
    fn write_one(&self, op: WriteOp) -> Result<(WriteOutcome, u64), ServerError> {
        let applied = self.raw_write(|w| {
            let outcomes = w.try_apply([op])?;
            Ok::<_, std::io::Error>((outcomes, w.epoch()))
        });
        let (mut outcomes, epoch) = applied.map_err(|e| {
            ServerError::Io(format!(
                "write-ahead log append failed (write not applied): {e}"
            ))
        })?;
        self.after_write();
        Ok((outcomes.pop().expect("one op in, one outcome out"), epoch))
    }

    /// Post-acknowledgment bookkeeping: checkpoint when the WAL has
    /// accumulated a full cadence worth of batches. Checkpoint failures
    /// are counted (the WAL still has everything) rather than failing
    /// the already-acknowledged write.
    fn after_write(&self) {
        if self.index.checkpoint_if_due().is_err() {
            self.counters
                .checkpoint_failures
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies one graph delta through the tracked maintainer as one
    /// atomic write batch (one epoch). Errors if no graph is tracked or
    /// an endpoint is out of range. A panic mid-application (including a
    /// WAL append failure surfacing through [`IndexWriter::apply`])
    /// detaches the tracked graph — the maintainer's shadow state can no
    /// longer be trusted — while the index itself stays consistent via
    /// the writer's rollback.
    fn apply_delta(&self, delta: GraphDelta) -> Result<String, ServerError> {
        let mut guard = self.maintained.lock().unwrap_or_else(|p| p.into_inner());
        let maintainer = guard
            .as_mut()
            .ok_or_else(|| ServerError::bad("no tracked graph; run `track <graph.edges>` first"))?;
        if let GraphDelta::AddEdge(a, b) | GraphDelta::RemoveEdge(a, b) = delta {
            let n = maintainer.num_nodes();
            if a as usize >= n || b as usize >= n {
                return Err(ServerError::bad(format!(
                    "edge ({a}, {b}) out of range ({n} nodes)"
                )));
            }
        }
        let applied = catch_unwind(AssertUnwindSafe(|| {
            let mut writer = self.index.writer();
            let report = maintainer.apply(&[delta], &mut writer);
            (report, writer.epoch())
        }));
        match applied {
            Ok((report, epoch)) => {
                drop(guard);
                self.after_write();
                Ok(format!("{report} epoch={epoch}"))
            }
            Err(_) => {
                *guard = None;
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Io(
                    "delta application failed (journal append failure or internal panic); \
                     the index rolled back to its last published state and the tracked \
                     graph was detached — re-track to resume"
                        .into(),
                ))
            }
        }
    }

    /// Streams the WAL suffix past this server's epoch from `peer` —
    /// in bounded chunks, re-requesting from the advancing epoch until
    /// level — and applies it through the journaled write path (the
    /// `catchup` command). Each streamed record carries the epoch it
    /// originally published as; it is re-journaled into this server's
    /// own WAL and published at that exact epoch, so the caught-up
    /// replica is bit-identical to the peer at every acknowledged
    /// epoch. Before any record is applied the splice point is verified
    /// (`NedServer::verify_fork_point`): a forked local history is
    /// refused loudly rather than overwritten. While the replay runs,
    /// queries answer [`ServerError::CatchingUp`].
    pub fn catch_up_from(&self, peer: &str) -> Result<String, ServerError> {
        struct ClearOnExit<'a>(&'a AtomicBool);
        impl Drop for ClearOnExit<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        if self.catching_up.swap(true, Ordering::AcqRel) {
            return Err(ServerError::CatchingUp(
                "a catch-up is already in progress".into(),
            ));
        }
        let _clear = ClearOnExit(&self.catching_up);
        let mut client = WireClient::builder()
            .timeouts(self.config.read_timeout, self.config.write_timeout)
            .connect(peer)
            .map_err(|e| ServerError::Io(format!("{peer}: {e}")))?;
        self.verify_fork_point(&mut client)?;
        let start_epoch = self.reader().epoch();
        let mut applied = 0u64;
        loop {
            let from_epoch = self.reader().epoch();
            let (peer_epoch, records) = match client.request(&Request::WalSuffix { from_epoch })? {
                Response::WalChunk { epoch, records, .. } => (epoch, records),
                Response::Error(e) => return Err(e),
                other => {
                    return Err(ServerError::Corrupt(format!(
                        "peer answered a wal suffix request with {other:?}"
                    )))
                }
            };
            if records.is_empty() {
                break; // nothing past our epoch: caught up
            }
            let this_round = self.apply_wal_records(&records)?;
            applied += this_round as u64;
            if this_round == 0 || self.reader().epoch() >= peer_epoch {
                break; // no forward progress, or level with the peer
            }
        }
        self.after_write();
        Ok(format!(
            "caught up {applied} record(s) from {peer}: epoch {start_epoch} -> {}",
            self.reader().epoch()
        ))
    }

    /// Guards the splice point of a WAL-suffix catch-up: when this
    /// replica holds a local WAL record at its head epoch, the peer's
    /// record at the **same** epoch must be byte-identical. A mismatch
    /// means the two histories forked — this replica took a write the
    /// quorum never acked at that epoch (e.g. from a coordinator with a
    /// stale health view) — and streaming the peer's suffix on top would
    /// silently drop acked writes; that is refused as a loud,
    /// non-retryable [`ServerError::Corrupt`], because a forked replica
    /// needs a snapshot resync, not a splice. With nothing to compare
    /// (fresh boot, WAL gone, or the peer checkpointed past our head)
    /// the epoch-gap check in [`NedServer::apply_wal_records`] remains
    /// the guard.
    fn verify_fork_point(&self, client: &mut WireClient) -> Result<(), ServerError> {
        let local_head: Option<Vec<u8>> = {
            let writer = self.index.writer();
            match writer.wal() {
                Some(wal) => wal
                    .records()
                    .map_err(|e| ServerError::Io(format!("wal read failed: {e}")))?
                    .pop(),
                None => None,
            }
        };
        let Some(local) = local_head else {
            return Ok(());
        };
        let Some(head_epoch) = crate::durable::record_epoch(&local) else {
            return Ok(()); // an undecodable tail would fail replay anyway
        };
        match client.request(&Request::WalSuffix {
            from_epoch: head_epoch.saturating_sub(1),
        }) {
            Ok(Response::WalChunk { records, .. }) => match records.first() {
                Some(peer_record)
                    if crate::durable::record_epoch(peer_record) == Some(head_epoch) =>
                {
                    if *peer_record != local {
                        return Err(ServerError::Corrupt(format!(
                            "catch-up refused: this replica's WAL record at epoch \
                             {head_epoch} differs from the peer's — the histories forked, \
                             and splicing the peer's suffix would drop acked writes; \
                             resync from a snapshot"
                        )));
                    }
                    Ok(())
                }
                // The peer holds no record at our head epoch (it is
                // behind us, or level): nothing to compare.
                _ => Ok(()),
            },
            // The peer checkpointed past our head - 1: the verification
            // record is gone, but the suffix past our head may still be
            // streamable — fall through to the normal loop.
            Err(ServerError::BadRequest(_)) => Ok(()),
            Ok(other) => Err(ServerError::Corrupt(format!(
                "peer answered a wal suffix request with {other:?}"
            ))),
            Err(e) => Err(e),
        }
    }

    /// Applies streamed WAL records in order through
    /// [`IndexWriter::try_apply`] — journal-before-publish, exactly the
    /// path a local write takes. Records at or below the current epoch
    /// are skipped (already applied); a gap past `epoch + 1` is
    /// [`ServerError::Corrupt`], because the intermediate history cannot
    /// be reproduced. Returns how many records were applied.
    fn apply_wal_records(&self, records: &[Vec<u8>]) -> Result<usize, ServerError> {
        self.raw_write(|w| {
            let mut applied = 0usize;
            for record in records {
                let (epoch, ops) = crate::durable::decode_batch(record).map_err(|e| {
                    ServerError::Corrupt(format!("peer wal record undecodable: {e}"))
                })?;
                if epoch <= w.epoch() {
                    continue;
                }
                if epoch != w.epoch() + 1 {
                    return Err(ServerError::Corrupt(format!(
                        "peer wal suffix jumps from epoch {} to {epoch}; \
                         the acknowledged history between them is unreachable",
                        w.epoch()
                    )));
                }
                w.try_apply(ops).map_err(|e| {
                    ServerError::Io(format!("journal append failed mid catch-up: {e}"))
                })?;
                applied += 1;
            }
            Ok(applied)
        })
    }

    /// A read handle onto the served index.
    pub fn reader(&self) -> IndexReader {
        self.index.reader()
    }

    /// Multi-line summary of the current snapshot, the TED\* memo's
    /// effectiveness counters, the serving counters, and the durability
    /// configuration (the `stats` reply body).
    pub fn stats_line(&self) -> String {
        let (snap, epoch) = self.reader().snapshot_with_epoch();
        let tracking = match self
            .maintained
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
        {
            Some(m) => format!("{} nodes / {} edges", m.num_nodes(), m.num_edges()),
            None => "none".to_string(),
        };
        let c = &self.counters;
        format!(
            "signatures: {} (k = {}), epoch {epoch}, tracking {tracking}\nsketch: mode {}, {}\n\
             memo: {}\nserver: accepted {}, active {}, timeouts {}, overloaded {}, \
             panics isolated {}, checkpoint failures {}\n{}",
            snap.len(),
            snap.k(),
            snap.sketch_mode(),
            snap.sketch_stats(),
            TedMemo::global().stats(),
            c.accepted.load(Ordering::Relaxed),
            c.active.load(Ordering::Relaxed),
            c.timeouts.load(Ordering::Relaxed),
            c.overloaded.load(Ordering::Relaxed),
            c.panics.load(Ordering::Relaxed),
            c.checkpoint_failures.load(Ordering::Relaxed),
            self.index.describe(),
        )
    }

    /// Executes one command line — the **text surface** (REPL stdin).
    /// The line is parsed once into a [`Request`] and handed to
    /// [`NedServer::dispatch_request`]; parse failures come back as
    /// `error:` reply text, so every surface reports them identically.
    pub fn dispatch(&self, line: &str) -> Dispatch {
        match Request::parse_line(line) {
            Ok(None) => Dispatch::Reply(String::new()),
            Ok(Some(req)) => self.dispatch_request(req),
            Err(e) => Dispatch::Reply(Response::Error(e).to_string()),
        }
    }

    /// Executes one parsed request — the **typed surface**. Session
    /// control (`quit`, `shutdown`) surfaces as its own [`Dispatch`]
    /// variant; everything else executes through the exhaustive match in
    /// [`NedServer::execute`] and renders its [`Response`].
    pub fn dispatch_request(&self, req: Request) -> Dispatch {
        match req {
            Request::Quit => Dispatch::Quit,
            Request::Shutdown => {
                self.initiate_shutdown();
                Dispatch::Shutdown
            }
            req => {
                let response = self
                    .execute(&req)
                    .unwrap_or_else(Response::Error)
                    .to_string();
                Dispatch::Reply(response)
            }
        }
    }

    /// [`NedServer::dispatch`] behind a panic shield: a handler that
    /// panics answers `error: internal panic ...` instead of unwinding
    /// into (and killing) whatever thread is serving the surface. The
    /// index stays consistent — [`IndexWriter::try_apply`] rolls the
    /// master copy back to the published snapshot before re-raising.
    pub fn dispatch_isolated(&self, line: &str) -> Dispatch {
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(line))) {
            Ok(d) => d,
            Err(_) => Dispatch::Reply(self.note_panic()),
        }
    }

    /// [`NedServer::dispatch_request`] behind the same panic shield.
    pub fn dispatch_request_isolated(&self, req: Request) -> Dispatch {
        match catch_unwind(AssertUnwindSafe(|| self.dispatch_request(req))) {
            Ok(d) => d,
            Err(_) => Dispatch::Reply(self.note_panic()),
        }
    }

    /// Counts an isolated panic and renders the standard reply for it.
    fn note_panic(&self) -> String {
        self.counters.panics.fetch_add(1, Ordering::Relaxed);
        "error: internal panic while executing the command; the index rolled \
         back to its last published state and the server is still serving"
            .to_string()
    }

    /// Executes one non-session request. This is the single exhaustive
    /// match the whole serving layer funnels through; errors are the
    /// structured [`ServerError`] taxonomy, rendered into
    /// [`Response::Error`] by the surfaces.
    pub fn execute(&self, req: &Request) -> Result<Response, ServerError> {
        // A replica mid catch-up is at *some* consistent old epoch, but
        // serving it would hand the router a read it immediately has to
        // repair — answer with the dedicated retry-elsewhere state
        // instead. Direct writes are refused too: one applied between
        // two streamed records would take an epoch the peer's WAL
        // assigns different content, forking the replica's history.
        // Epoch/fingerprint probes keep working so the router can watch
        // the catch-up make progress.
        if self.catching_up.load(Ordering::Acquire)
            && matches!(
                req,
                Request::Query { .. }
                    | Request::Range { .. }
                    | Request::Sig { .. }
                    | Request::RangeSig { .. }
                    | Request::Add { .. }
                    | Request::AddSig { .. }
                    | Request::PutSig { .. }
                    | Request::Remove { .. }
                    | Request::AddEdge { .. }
                    | Request::DelEdge { .. }
            )
        {
            return Err(ServerError::CatchingUp(
                "replica is replaying a peer's WAL suffix; retry on another replica".into(),
            ));
        }
        Ok(match req {
            Request::Help => Response::Info {
                body: HELP_BODY.to_string(),
            },
            Request::Stats => Response::Info {
                body: self.stats_line(),
            },
            Request::Epoch => {
                let (snap, epoch) = self.reader().snapshot_with_epoch();
                Response::Epoch {
                    epoch,
                    len: snap.len() as u64,
                }
            }
            Request::Fingerprint => {
                let (snap, epoch) = self.reader().snapshot_with_epoch();
                Response::Fingerprint {
                    epoch,
                    len: snap.len() as u64,
                    hash: snap.live_set_fingerprint(),
                }
            }
            Request::WalSuffix { from_epoch } => {
                // Under the writer lock a checkpoint cannot reset the
                // log mid-read, and no new record can land half-written.
                let writer = self.index.writer();
                let Some(wal) = writer.wal() else {
                    return Err(ServerError::bad(
                        "no write-ahead log attached; WAL suffix streaming needs `serve --wal`",
                    ));
                };
                let base = wal.base();
                if *from_epoch < base {
                    // The records the peer needs were checkpointed away.
                    // Deliberately non-retryable: streaming can never
                    // succeed, the peer must resync from a snapshot.
                    return Err(ServerError::bad(format!(
                        "wal suffix unavailable: the log was reset at checkpoint epoch {base}, \
                         past the requested epoch {from_epoch}; resync from a snapshot"
                    )));
                }
                // One *bounded* chunk per request (the caller loops from
                // its new epoch): records land in the log in epoch
                // order, so the cap keeps a contiguous prefix of the
                // suffix.
                let mut records: Vec<Vec<u8>> = Vec::new();
                let mut bytes = 0usize;
                for record in wal
                    .records()
                    .map_err(|e| ServerError::Io(format!("wal read failed: {e}")))?
                {
                    if crate::durable::record_epoch(&record).is_none_or(|e| e <= *from_epoch) {
                        continue;
                    }
                    bytes += record.len();
                    records.push(record);
                    if records.len() >= WAL_CHUNK_MAX_RECORDS || bytes >= WAL_CHUNK_MAX_BYTES {
                        break;
                    }
                }
                Response::WalChunk {
                    base,
                    epoch: writer.epoch(),
                    records,
                }
            }
            Request::CatchUp { peer } => Response::Ok {
                msg: self.catch_up_from(peer)?,
            },
            Request::Query { path, node, top } => {
                let sig = self.extract(path, *node)?;
                let (snap, epoch) = self.reader().snapshot_with_epoch();
                Response::Hits {
                    epoch,
                    hits: snap.query(&sig, *top, self.query_threads),
                }
            }
            Request::Range { path, node, radius } => {
                let sig = self.extract(path, *node)?;
                let (snap, epoch) = self.reader().snapshot_with_epoch();
                Response::Hits {
                    epoch,
                    hits: snap.range(&sig, *radius, self.query_threads),
                }
            }
            Request::Sig { shape, top, within } => {
                let sig = parse_sig(shape)?;
                let (snap, epoch) = self.reader().snapshot_with_epoch();
                let hits = match within {
                    // The scatter-gather pushdown: only distances within
                    // the coordinator's shared radius can make the global
                    // top-k, so run a (cheaper, budget-bounded) range
                    // query and keep the best `top` — inclusive bound, so
                    // ties survive and the fleet merge stays bit-identical.
                    Some(budget) => {
                        let mut hits = snap.range(&sig, *budget, self.query_threads);
                        hits.truncate(*top);
                        hits
                    }
                    None => snap.query(&sig, *top, self.query_threads),
                };
                Response::Hits { epoch, hits }
            }
            Request::RangeSig { shape, radius } => {
                let sig = parse_sig(shape)?;
                let (snap, epoch) = self.reader().snapshot_with_epoch();
                Response::Hits {
                    epoch,
                    hits: snap.range(&sig, *radius, self.query_threads),
                }
            }
            Request::Add { path, node } => {
                let sig = self.extract(path, *node)?;
                match self.write_one(WriteOp::Insert(sig))? {
                    (WriteOutcome::Inserted(id), _) => Response::Added { id },
                    _ => unreachable!("insert answers Inserted"),
                }
            }
            Request::AddSig { shape } => {
                let sig = parse_sig(shape)?;
                match self.write_one(WriteOp::Insert(sig))? {
                    (WriteOutcome::Inserted(id), _) => Response::Added { id },
                    _ => unreachable!("insert answers Inserted"),
                }
            }
            Request::PutSig { id, shape } => {
                let sig = parse_sig(shape)?;
                match self.write_one(WriteOp::Replace(*id, sig))? {
                    (WriteOutcome::Replaced { id, fresh }, epoch) => {
                        Response::Put { id, fresh, epoch }
                    }
                    _ => unreachable!("replace answers Replaced"),
                }
            }
            Request::Remove { id } => match self.write_one(WriteOp::Remove(*id))? {
                (WriteOutcome::Removed { id, existed }, _) => Response::Removed { id, existed },
                _ => unreachable!("remove answers Removed"),
            },
            Request::Track { path } => {
                let graph = self.graph(path)?;
                Response::Ok {
                    msg: self.track(&graph)?,
                }
            }
            Request::AddEdge { a, b } => Response::Ok {
                msg: self.apply_delta(GraphDelta::AddEdge(*a, *b))?,
            },
            Request::DelEdge { a, b } => Response::Ok {
                msg: self.apply_delta(GraphDelta::RemoveEdge(*a, *b))?,
            },
            Request::Save { path } => {
                self.index
                    .writer()
                    .index()
                    .save(Path::new(path))
                    .map_err(|e| ServerError::Io(format!("{path}: {e}")))?;
                Response::Ok {
                    msg: format!("saved {path}"),
                }
            }
            Request::Checkpoint => match self.index.checkpoint() {
                Ok(Some(epoch)) => Response::Ok {
                    msg: format!("checkpoint epoch={epoch}"),
                },
                Ok(None) => Response::Ok {
                    msg: "ephemeral index; nothing to checkpoint".to_string(),
                },
                Err(e) => return Err(ServerError::Io(format!("checkpoint failed: {e}"))),
            },
            Request::TestPanic if self.config.enable_test_panic => {
                panic!("test-injected panic (`__panic` command)")
            }
            Request::TestPanic => {
                return Err(ServerError::bad(
                    "unrecognized command \"__panic\"; try `help`",
                ))
            }
            Request::Quit | Request::Shutdown => {
                unreachable!("session control handled by dispatch_request")
            }
        })
    }

    /// Executes a whole frame payload: one or more newline-separated
    /// commands, each parsed once at this boundary. Multi-command
    /// payloads of pure reads fan out on the worker pool
    /// (order-preserving); anything containing a write runs sequentially.
    /// Returns the concatenated reply and whether the session should end.
    pub fn handle_payload(self: &Arc<Self>, payload: &str) -> (String, bool) {
        let parsed: Vec<Result<Option<Request>, ServerError>> =
            payload.lines().map(Request::parse_line).collect();
        // Blank lines and parse errors count as reads: they answer
        // without touching anything.
        let all_reads = parsed.len() > 1
            && parsed
                .iter()
                .all(|p| !matches!(p, Ok(Some(req)) if req.is_write()));
        if all_reads {
            let jobs: Vec<_> = parsed
                .into_iter()
                .map(|p| {
                    let server = Arc::clone(self);
                    // The isolation matters doubly here: a panic that
                    // escaped a pool job would kill a pool worker and
                    // poison every later batch frame.
                    move || match p {
                        Ok(None) => String::new(),
                        Err(e) => Response::Error(e).to_string(),
                        Ok(Some(req)) => match server.dispatch_request_isolated(req) {
                            Dispatch::Reply(r) => r,
                            _ => unreachable!("read-only requests never end the session"),
                        },
                    }
                })
                .collect();
            return (self.pool.run_ordered(jobs).join("\n"), false);
        }
        let mut replies = Vec::with_capacity(parsed.len());
        for p in parsed {
            match p {
                Ok(None) => replies.push(String::new()),
                Err(e) => replies.push(Response::Error(e).to_string()),
                Ok(Some(req)) => match self.dispatch_request_isolated(req) {
                    Dispatch::Reply(r) => replies.push(r),
                    Dispatch::Quit => {
                        replies.push("ok bye".to_string());
                        return (replies.join("\n"), true);
                    }
                    Dispatch::Shutdown => {
                        replies.push(
                            "ok draining: in-flight connections finish, a final checkpoint \
                             runs, then the server exits"
                                .to_string(),
                        );
                        return (replies.join("\n"), true);
                    }
                },
            }
        }
        (replies.join("\n"), false)
    }

    /// Flips the drain flag and wakes the acceptor with a throwaway
    /// loopback connection (an accept blocked in the kernel cannot see
    /// an atomic). Idempotent; the `shutdown` command lands here.
    pub fn initiate_shutdown(&self) {
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

    /// Final checkpoint (snapshot + WAL reset); `Ok(None)` when serving
    /// ephemerally. The drain path and the CLI's session teardown both
    /// call this so a clean exit never needs log replay on the next boot.
    pub fn finalize(&self) -> std::io::Result<Option<u64>> {
        self.index.checkpoint()
    }

    /// Accept loop: one thread per connection, all sharing this server.
    /// Runs until the listener fails or `shutdown` drains it; individual
    /// connection errors only end that connection. On shutdown the loop
    /// stops accepting, waits out in-flight frames (force-closing idle
    /// sockets after [`ServerConfig::drain_grace`]), runs a final
    /// checkpoint, and returns `Ok(())` so the process can exit 0.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        *self.local_addr.lock().unwrap_or_else(|p| p.into_inner()) = listener.local_addr().ok();
        for conn in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let stream = conn?;
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            // The accept loop is the only incrementer of `active`, so
            // check-then-increment cannot race past the cap.
            let active = self.counters.active.load(Ordering::Relaxed);
            if active >= self.config.max_conns {
                self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                let refusal = ServerError::Overloaded(format!(
                    "{active}/{} connections; retry later",
                    self.config.max_conns
                ));
                let mut w = &stream;
                let _ = wire::write_text_frame(&mut w, &refusal.to_string());
                continue; // drop closes the socket
            }
            self.counters.active.fetch_add(1, Ordering::Relaxed);
            let id = self.conn_seq.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                self.conns
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(id, clone);
            }
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                // Belt over the per-command suspenders: nothing a
                // connection does may unwind into the process.
                if catch_unwind(AssertUnwindSafe(|| server.handle_conn(&stream))).is_err() {
                    server.counters.panics.fetch_add(1, Ordering::Relaxed);
                }
                server.counters.active.fetch_sub(1, Ordering::Relaxed);
                server
                    .conns
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .remove(&id);
            });
        }
        self.drain();
        self.finalize().map(|_| ())
    }

    /// Closes the read side of every connection, so idle keep-alive
    /// handlers see EOF at once while one mid-request still writes its
    /// reply; waits for them, then force-closes stragglers and waits once
    /// more. Every wait is bounded by the drain grace.
    fn drain(&self) {
        let wait = |deadline: Instant| {
            while self.counters.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        for conn in self
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            let _ = conn.shutdown(SocketShutdown::Read);
        }
        wait(Instant::now() + self.config.drain_grace);
        for (_, conn) in self.conns.lock().unwrap_or_else(|p| p.into_inner()).drain() {
            let _ = conn.shutdown(SocketShutdown::Both);
        }
        wait(Instant::now() + self.config.drain_grace);
    }

    fn handle_conn(self: &Arc<Self>, stream: &TcpStream) {
        let _ = stream.set_read_timeout(self.config.read_timeout);
        let _ = stream.set_write_timeout(self.config.write_timeout);
        let mut read_half = stream;
        let mut write_half = stream;
        loop {
            match wire::read_frame(&mut read_half) {
                Ok(None) => return, // clean disconnect
                Ok(Some(payload)) => {
                    // UTF-8 decoding happens here rather than in
                    // `read_text_frame`: a non-UTF-8 payload inside a
                    // checksum-valid frame means framing sync is intact,
                    // so it gets an in-band error and the connection
                    // survives.
                    let reply = match String::from_utf8(payload) {
                        Ok(text) => {
                            let (reply, quit) = self.handle_payload(&text);
                            if wire::write_text_frame(&mut write_half, &reply).is_err()
                                || quit
                                || self.is_shutting_down()
                            {
                                return;
                            }
                            continue;
                        }
                        Err(_) => ServerError::Corrupt("frame payload is not UTF-8".to_string())
                            .to_string(),
                    };
                    if wire::write_text_frame(&mut write_half, &reply).is_err() {
                        return;
                    }
                }
                Err(wire::WireError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // The socket timeout fired: the client is wedged (or
                    // just idle past the limit). Say why, then hang up.
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    let timeout = ServerError::Io("socket timeout; closing connection".to_string());
                    let _ = wire::write_text_frame(&mut write_half, &timeout.to_string());
                    return;
                }
                Err(e) => {
                    // Framing sync is gone (bad length, magic, checksum,
                    // or non-UTF-8 payload): tell the client why — as the
                    // Corrupt it is — then hang up.
                    let corrupt = ServerError::from(e);
                    let _ = wire::write_text_frame(&mut write_half, &corrupt.to_string());
                    return;
                }
            }
        }
    }

    /// Loads (and caches) the edge-list graph at `path`. The cache lock
    /// is never held across parsing.
    fn graph(&self, path: &str) -> Result<Arc<Graph>, ServerError> {
        let cached = {
            let graphs = self.graphs.lock().unwrap_or_else(|p| p.into_inner());
            graphs.get(path).cloned()
        };
        match cached {
            Some(g) => Ok(g),
            None => {
                let g = Arc::new(
                    graph_io::read_edge_list(Path::new(path), false)
                        .map_err(|e| ServerError::bad(format!("{path}: {e}")))?,
                );
                self.graphs
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(path.to_string(), Arc::clone(&g));
                Ok(g)
            }
        }
    }

    /// Extracts the query signature for `<path> <node>`, caching the
    /// parsed graph.
    fn extract(&self, path: &str, node: NodeId) -> Result<NodeSignature, ServerError> {
        let graph = self.graph(path)?;
        if (node as usize) >= graph.num_nodes() {
            return Err(ServerError::bad(format!(
                "node {node} out of range (graph has {} nodes)",
                graph.num_nodes()
            )));
        }
        Ok(NodeSignature::extract(&graph, node, self.reader().k()))
    }
}

fn parse_sig(shape: &str) -> Result<NodeSignature, ServerError> {
    let tree = ned_tree::serialize::parse(shape).map_err(|e| ServerError::bad(e.to_string()))?;
    Ok(NodeSignature::from_prepared(
        0,
        PreparedTree::from_tree(tree),
    ))
}

const HELP_BODY: &str = "commands:\n\
    \x20 query <graph.edges> <node> [top]   nearest indexed signatures\n\
    \x20 range <graph.edges> <node> <r>     all signatures with NED <= r\n\
    \x20                                    (r is the budget of every exact\n\
    \x20                                    TED* call - bounded, not\n\
    \x20                                    compute-then-filter)\n\
    \x20 sig <parens-tree> [top] [within=b] query by a literal tree shape\n\
    \x20                                    (within= caps useful distances\n\
    \x20                                    - the fleet radius pushdown)\n\
    \x20 rangesig <parens-tree> <r>         range query by a literal shape\n\
    \x20 add <graph.edges> <node>           index one more signature\n\
    \x20 addsig <parens-tree>               index a literal tree shape\n\
    \x20 putsig <id> <parens-tree>          index under an explicit id\n\
    \x20                                    (coordinators own id assignment)\n\
    \x20 remove <id>                        drop a signature by id\n\
    \x20 track <graph.edges>                attach a mutating graph (node v\n\
    \x20                                    must be indexed under id v; raw\n\
    \x20                                    add/addsig/putsig/remove detach)\n\
    \x20 addedge <a> <b>                    add a tracked-graph edge; only\n\
    \x20 deledge <a> <b>                    the (k-1)-hop dirty set is\n\
    \x20                                    recomputed, one epoch per delta\n\
    \x20 stats                              index shape + epoch + memo +\n\
    \x20                                    serving counters + durability\n\
    \x20 epoch                              publication count + live size\n\
    \x20 fingerprint                        epoch + live size + live-set\n\
    \x20                                    hash (the anti-entropy probe)\n\
    \x20 walsuffix <from_epoch>             stream WAL records past an\n\
    \x20                                    epoch to a catching-up peer\n\
    \x20 catchup <host:port>                replay a peer's WAL suffix\n\
    \x20                                    through the journaled path\n\
    \x20 save <path>                        persist the current index\n\
    \x20 checkpoint                         snapshot now + reset the WAL\n\
    \x20 shutdown                           drain, checkpoint, exit cleanly\n\
    \x20 quit";

/// Hard cap on the total wall-clock a [`WireClient::call_with_retry`]
/// ladder may spend sleeping-and-retrying. A scatter-gather leg pointed
/// at a dead replica gives up here and lets the router fail over,
/// regardless of how many attempts the budget nominally allows.
pub const RETRY_DEADLINE: Duration = Duration::from_secs(8);

/// The backoff before retry `attempt` (1-based): exponential from 20 ms
/// doubling to a 2 s ceiling, jittered deterministically into
/// `[base/2, base]` by an xorshift* mix of `(seed, attempt)`. The seed
/// is derived from the peer address, so two clients hammering the same
/// dead replica follow *different* schedules (no thundering herd) while
/// any one schedule is reproducible in tests.
fn retry_backoff(attempt: u32, seed: u64) -> Duration {
    let exp = attempt.saturating_sub(1).min(7);
    let base_ms = (20u64 << exp).min(2_000);
    let mut x = seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Duration::from_millis(base_ms / 2 + x % (base_ms / 2 + 1))
}

/// The sleep to take before retry `attempt`, or `None` when taking it
/// would cross `deadline` — the ladder's hard stop.
fn retry_sleep(attempt: u32, seed: u64, elapsed: Duration, deadline: Duration) -> Option<Duration> {
    let delay = retry_backoff(attempt, seed);
    (elapsed + delay < deadline).then_some(delay)
}

/// A blocking client for the framed TCP protocol — used by the CLI, the
/// shard router, the load generator, and the loopback tests.
///
/// Configure through [`WireClient::builder`]:
///
/// ```no_run
/// use ned_index::server::WireClient;
/// use std::time::Duration;
///
/// let mut client = WireClient::builder()
///     .timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
///     .retry(4)
///     .connect("127.0.0.1:7878")?;
/// let reply = client.call("epoch")?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct WireClient {
    stream: TcpStream,
    /// The resolved peer, remembered for redialing.
    addr: Option<SocketAddr>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    /// Attempts used by [`WireClient::call_with_retry`].
    retry_attempts: u32,
}

/// Configures and connects a [`WireClient`] — the one place connection
/// policy (timeouts, retry budget) is decided, replacing the deprecated
/// post-hoc setters.
#[derive(Debug, Clone, Copy)]
pub struct WireClientBuilder {
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    retry_attempts: u32,
}

impl WireClientBuilder {
    /// Socket read/write timeouts (`None` = block forever). Applied at
    /// connect time and re-applied on every internal redial.
    pub fn timeouts(mut self, read: Option<Duration>, write: Option<Duration>) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Total attempts [`WireClient::call_with_retry`] makes (including
    /// the first); clamped to at least 1.
    pub fn retry(mut self, attempts: u32) -> Self {
        self.retry_attempts = attempts.max(1);
        self
    }

    /// Dials the server and returns the configured client.
    pub fn connect<A: ToSocketAddrs>(self, addr: A) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        let addr = stream.peer_addr().ok();
        Ok(WireClient {
            stream,
            addr,
            read_timeout: self.read_timeout,
            write_timeout: self.write_timeout,
            retry_attempts: self.retry_attempts,
        })
    }
}

impl WireClient {
    /// A builder with no timeouts and a single attempt — the
    /// configuration entry point.
    pub fn builder() -> WireClientBuilder {
        WireClientBuilder {
            read_timeout: None,
            write_timeout: None,
            retry_attempts: 1,
        }
    }

    /// Connects to a serving `ned-cli serve --tcp` address with the
    /// default configuration (no timeouts, one attempt).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::builder().connect(addr)
    }

    /// Applies socket timeouts so a dead or drained server surfaces as a
    /// timely error instead of a hung client.
    #[deprecated(note = "configure via `WireClient::builder().timeouts(..)` instead")]
    pub fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)
    }

    /// Drops the current stream and dials the remembered peer address
    /// again. Any reply in flight on the old stream is lost.
    #[deprecated(note = "redialing is internal to `WireClient::call_with_retry`; \
                         reconnect by building a new client")]
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.redial()
    }

    /// Dials the remembered peer again, re-applying the configured
    /// timeouts, and replaces the stream.
    fn redial(&mut self) -> std::io::Result<()> {
        let addr = self.addr.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "peer address unknown; cannot reconnect",
            )
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        self.stream = stream;
        Ok(())
    }

    /// Sends one payload (one command, or a newline-separated batch) and
    /// returns the reply text.
    pub fn call(&mut self, payload: &str) -> Result<String, wire::WireError> {
        self.send_raw(payload.as_bytes())?;
        self.read_reply()
    }

    /// [`WireClient::call`] with bounded exponential-backoff
    /// reconnect-and-retry using the builder-configured attempt budget,
    /// for payloads that are safe to send twice — **idempotent reads
    /// only**. A retried write could double-apply: the server may have
    /// executed a call whose reply was lost. The backoff before retry
    /// `n` is exponential from 20 ms (capped at 2 s) with deterministic
    /// per-peer jitter in `[base/2, base]`, so concurrent scatter-gather
    /// legs retrying the same dead replica spread out instead of
    /// thundering in lockstep; the whole ladder is cut off at a hard
    /// [`RETRY_DEADLINE`] so a dead peer can never stall a leg for the
    /// full unjittered schedule. Returns the last error if no attempt
    /// succeeds.
    pub fn call_with_retry(&mut self, payload: &str) -> Result<String, wire::WireError> {
        self.retry_inner(payload, self.retry_attempts)
    }

    /// [`WireClient::call_with_retry`] with an explicit attempt count.
    #[deprecated(note = "set the attempt budget via `WireClient::builder().retry(..)` \
                         and use `call_with_retry`")]
    pub fn call_idempotent(
        &mut self,
        payload: &str,
        attempts: u32,
    ) -> Result<String, wire::WireError> {
        self.retry_inner(payload, attempts)
    }

    fn retry_inner(&mut self, payload: &str, attempts: u32) -> Result<String, wire::WireError> {
        let seed = self
            .addr
            .map(|a| ned_core::store::fnv1a64(a.to_string().as_bytes()))
            .unwrap_or(0x4e45_4457); // "NEDW": a fixed seed beats none
        let started = Instant::now();
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                let Some(delay) = retry_sleep(attempt, seed, started.elapsed(), RETRY_DEADLINE)
                else {
                    break; // the hard deadline: stop burning time on a dead peer
                };
                std::thread::sleep(delay);
                if let Err(e) = self.redial() {
                    last = Some(wire::WireError::Io(e));
                    continue;
                }
            }
            match self.call(payload) {
                Ok(reply) => return Ok(reply),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Sends one typed request and parses the typed reply — the
    /// programmatic surface the shard router drives. Transport failures
    /// and malformed replies both surface as [`ServerError`], so callers
    /// branch on one retryability taxonomy.
    ///
    /// ```
    /// use ned_core::{Request, Response};
    /// use ned_index::{NedServer, SignatureIndex, WireClient};
    /// use std::net::TcpListener;
    /// use std::sync::Arc;
    ///
    /// let server = Arc::new(NedServer::new(SignatureIndex::new(3, 16, 1), 1, 1));
    /// let listener = TcpListener::bind("127.0.0.1:0")?;
    /// let addr = listener.local_addr()?;
    /// std::thread::spawn({
    ///     let server = Arc::clone(&server);
    ///     move || server.serve_tcp(listener)
    /// });
    ///
    /// let mut client = WireClient::connect(addr)?;
    /// match client.request(&Request::Stats)? {
    ///     Response::Info { body } => assert!(body.contains("sketch: mode exact")),
    ///     other => panic!("unexpected reply: {other:?}"),
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn request(&mut self, req: &Request) -> Result<Response, ServerError> {
        let reply = self.call(&req.to_string())?;
        Response::parse(&reply)
    }

    /// [`WireClient::request`] with the configured retry budget — for
    /// idempotent (read) requests only.
    pub fn request_with_retry(&mut self, req: &Request) -> Result<Response, ServerError> {
        let reply = self.call_with_retry(&req.to_string())?;
        Response::parse(&reply)
    }

    /// Sends a typed batch as one frame and parses the replies, which
    /// arrive in request order (one per request — the count is checked).
    pub fn request_batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ServerError> {
        let payload = reqs
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let reply = self.call(&payload)?;
        let responses = Response::parse_stream(&reply)?;
        if responses.len() != reqs.len() {
            return Err(ServerError::Corrupt(format!(
                "sent {} requests, got {} replies",
                reqs.len(),
                responses.len()
            )));
        }
        Ok(responses)
    }

    /// Sends raw payload bytes without reading a reply. Only useful
    /// together with [`WireClient::read_reply`]; [`WireClient::call`] is
    /// the normal entry point.
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<(), wire::WireError> {
        wire::write_frame(&mut self.stream, payload)?;
        Ok(())
    }

    /// Reads one reply frame as text.
    pub fn read_reply(&mut self) -> Result<String, wire::WireError> {
        match wire::read_text_frame(&mut self.stream)? {
            Some(text) => Ok(text),
            None => Err(wire::WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ))),
        }
    }

    /// Writes raw bytes *outside* the frame discipline — the hook the
    /// malformed-frame tests use to poison a stream on purpose.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads whatever bytes remain until EOF (used after the server hangs
    /// up on a poisoned stream).
    pub fn read_to_end(&mut self) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.stream.read_to_end(&mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_stays_within_the_exponential_envelope() {
        for attempt in 1..=10u32 {
            let base_ms = (20u64 << attempt.saturating_sub(1).min(7)).min(2_000);
            for seed in [0u64, 1, 42, u64::MAX, 0x4e45_4457] {
                let d = retry_backoff(attempt, seed).as_millis() as u64;
                assert!(
                    (base_ms / 2..=base_ms).contains(&d),
                    "attempt {attempt} seed {seed}: {d}ms outside [{}, {base_ms}]",
                    base_ms / 2
                );
            }
        }
    }

    #[test]
    fn backoff_seeds_desynchronize_concurrent_legs() {
        // Two legs retrying the same dead replica from different client
        // addresses must not sleep in lockstep: across a whole ladder,
        // at least one rung has to differ for distinct seeds.
        let ladder = |seed: u64| {
            (1..=6u32)
                .map(|a| retry_backoff(a, seed))
                .collect::<Vec<_>>()
        };
        assert_ne!(ladder(1), ladder(2));
        assert_ne!(ladder(0xdead_beef), ladder(0xfeed_face));
    }

    #[test]
    fn retry_ladder_respects_the_hard_deadline() {
        // Simulate an absurd attempt budget against a dead peer: the
        // planned sleeps must stop before the deadline, and the total
        // time slept can never cross it.
        for seed in [7u64, 0x4e45_4457] {
            let mut elapsed = Duration::ZERO;
            let mut stopped = false;
            for attempt in 1..=1_000u32 {
                match retry_sleep(attempt, seed, elapsed, RETRY_DEADLINE) {
                    Some(d) => elapsed += d,
                    None => {
                        stopped = true;
                        break;
                    }
                }
            }
            assert!(stopped, "a 1000-attempt ladder must hit the deadline");
            assert!(
                elapsed < RETRY_DEADLINE,
                "slept {elapsed:?} past the {RETRY_DEADLINE:?} deadline"
            );
        }
    }
}
