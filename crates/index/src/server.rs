//! The **shard service** over [`crate::durable::DurableIndex`] and the
//! framed-protocol client ([`WireClient`]).
//!
//! # Command language
//!
//! One command per line, answers as text whose final line starts with
//! `ok` or `error:`. The line grammar lives in [`ned_core::proto`]: the
//! front end parses each line **once** into a [`Request`], whether it
//! came from a TCP frame or REPL stdin, and from there execution is the
//! exhaustive `match` in [`NedServer::execute`]: no token matching past
//! the parse, so behavior cannot drift between the interactive and
//! networked paths, and a coordinator composes [`Request`] values
//! programmatically instead of formatting strings.
//!
//! ```text
//! query <graph.edges> <node> [top]    nearest indexed signatures
//! range <graph.edges> <node> <r>      all signatures with NED <= r
//! sig <parens-tree> [top] [within=b]  query by a literal tree shape
//!                                     (within= is an inclusive
//!                                     distance budget)
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
//! # Serving
//!
//! [`NedServer`] is a [`Service`]: the framed TCP front end, the batch
//! protocol, admission, timeouts, panic isolation, drain and the stdin
//! REPL live in [`crate::front`], shared with the fleet router. What
//! the shard adds is [`NedServer::execute`] and, after a drain, a final
//! checkpoint so a clean exit never needs log replay on the next boot.
//! A command that panics mid-write leaves the index at its last
//! published state ([`IndexWriter::try_apply`] rolls back before
//! re-raising). Its `stats` reply adds the index, memo and durability lines and a
//! checkpoint-failure count to the front end's serving counters.

use crate::concurrent::{IndexReader, IndexWriter, WriteOp, WriteOutcome};
use crate::durable::DurableIndex;
use crate::front::{self, Front, ServerConfig, Service};
use crate::maintain::GraphMaintainer;
use crate::signatures::SignatureIndex;
use ned_core::proto::{Request, Response, ServerError};
use ned_core::{wire, NodeSignature, PreparedTree, TedMemo};
use ned_graph::{io as graph_io, Graph, GraphDelta, NodeId};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

/// The shard service: durable index, graph cache, tracked graph. Cheap
/// to share — wrap in an [`Arc`] and serve it with
/// [`NedServer::serve_tcp`] or [`crate::front::repl`].
pub struct NedServer {
    index: DurableIndex,
    graphs: GraphCache,
    /// The tracked mutating graph behind `addedge`/`deledge`
    /// (`track <path>` installs one). Locked for the whole delta
    /// application — writes are serialized anyway, and readers never
    /// touch it.
    maintained: Mutex<Option<GraphMaintainer>>,
    /// Intra-query fan-out passed to the index (`1` is right for
    /// concurrent serving: requests, not scan runs, should fill the cores).
    query_threads: usize,
    /// Set while a `catchup` is replaying a peer's WAL suffix. Queries
    /// answer [`ServerError::CatchingUp`] until it clears, so a stale
    /// replica never serves a read the router would have to repair.
    catching_up: AtomicBool,
    /// Acknowledged writes whose cadence checkpoint failed (the WAL
    /// still holds them); reported by `stats`.
    checkpoint_failures: AtomicU64,
    front: Front,
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
            graphs: GraphCache::default(),
            maintained: Mutex::new(None),
            query_threads,
            catching_up: AtomicBool::new(false),
            checkpoint_failures: AtomicU64::new(0),
            front: Front::new(pool_threads),
        }
    }

    /// Replaces the serving limits (builder-style, before sharing).
    pub fn with_config(mut self, config: ServerConfig) -> Self {
        self.front.config = config;
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
            self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
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
                self.front.count_panic();
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
        let config = self.front.config;
        let mut client = WireClient::builder()
            .timeouts(config.read_timeout, config.write_timeout)
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
        format!(
            "signatures: {} (k = {}), epoch {epoch}, tracking {tracking}\nsketch: mode {}, {}\n\
             memo: {}\n{}, checkpoint failures {}\n{}",
            snap.len(),
            snap.k(),
            snap.sketch_mode(),
            snap.sketch_stats(),
            TedMemo::global().stats(),
            self.front.counters_line(),
            self.checkpoint_failures.load(Ordering::Relaxed),
            self.index.describe(),
        )
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
                    // Only distances within the caller's inclusive budget
                    // count: a budget-bounded range query, cut to the best
                    // `top`. Ties at the budget survive, so a router that
                    // forwards the same `within` to every shard merges to
                    // this answer bit for bit.
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
                let graph = self.graphs.get(path)?;
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
            Request::Quit | Request::Shutdown | Request::TestPanic => {
                unreachable!("answered by the front end")
            }
        })
    }

    /// Serves the framed protocol on `listener` until `shutdown` drains
    /// it (see [`crate::front`]); the drain ends with a final checkpoint.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        front::serve_tcp(self, listener)
    }

    /// Starts the drain, as the `shutdown` command does. Idempotent.
    pub fn initiate_shutdown(&self) {
        self.front.initiate_shutdown();
    }

    /// Final checkpoint (snapshot + WAL reset); `Ok(None)` when serving
    /// ephemerally. The drain and the CLI's REPL teardown both run it,
    /// so a clean exit never needs log replay on the next boot.
    pub fn finalize(&self) -> std::io::Result<Option<u64>> {
        self.index.checkpoint()
    }

    fn extract(&self, path: &str, node: NodeId) -> Result<NodeSignature, ServerError> {
        self.graphs.signature(path, node, self.reader().k())
    }
}

impl Service for NedServer {
    fn front(&self) -> &Front {
        &self.front
    }

    fn execute(&self, req: &Request) -> Result<Response, ServerError> {
        NedServer::execute(self, req)
    }

    fn after_drain(&self) -> std::io::Result<()> {
        self.finalize().map(|_| ())
    }
}

/// Parsed edge-list files, cached across commands and connections — the
/// graph-file commands (`query`, `range`, `add`, `track`) of the shard
/// and the router both load through it.
#[derive(Default)]
pub(crate) struct GraphCache(Mutex<HashMap<String, Arc<Graph>>>);

impl GraphCache {
    /// Loads (and caches) the edge-list graph at `path`. The lock is
    /// never held across parsing.
    pub(crate) fn get(&self, path: &str) -> Result<Arc<Graph>, ServerError> {
        let cached = self.graphs().get(path).cloned();
        if let Some(g) = cached {
            return Ok(g);
        }
        let g = Arc::new(
            graph_io::read_edge_list(Path::new(path), false)
                .map_err(|e| ServerError::bad(format!("{path}: {e}")))?,
        );
        self.graphs().insert(path.to_string(), Arc::clone(&g));
        Ok(g)
    }

    fn graphs(&self) -> MutexGuard<'_, HashMap<String, Arc<Graph>>> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The `k`-signature of `<path> <node>`.
    pub(crate) fn signature(
        &self,
        path: &str,
        node: NodeId,
        k: usize,
    ) -> Result<NodeSignature, ServerError> {
        let graph = self.get(path)?;
        if (node as usize) >= graph.num_nodes() {
            return Err(ServerError::bad(format!(
                "node {node} out of range (graph has {} nodes)",
                graph.num_nodes()
            )));
        }
        Ok(NodeSignature::extract(&graph, node, k))
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
    \x20                                    (within= caps useful distances,\n\
    \x20                                    inclusive)\n\
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

/// A blocking client for the framed TCP protocol — used by the CLI, the
/// shard router, the load generator, and the loopback tests. It sends
/// one frame and reads one reply; it never redials or retries, because
/// only the caller knows whether a request is safe to send twice (the
/// router's replica loop decides that for the fleet).
///
/// Configure through [`WireClient::builder`]:
///
/// ```no_run
/// use ned_index::server::WireClient;
/// use std::time::Duration;
///
/// let mut client = WireClient::builder()
///     .timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
///     .connect("127.0.0.1:7878")?;
/// let reply = client.call("epoch")?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct WireClient {
    stream: TcpStream,
}

/// Configures and connects a [`WireClient`]: its socket timeouts are
/// decided here, at connect time.
#[derive(Debug, Clone, Copy)]
pub struct WireClientBuilder {
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl WireClientBuilder {
    /// Socket read/write timeouts (`None` = block forever).
    pub fn timeouts(mut self, read: Option<Duration>, write: Option<Duration>) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Dials the server and returns the configured client.
    pub fn connect<A: ToSocketAddrs>(self, addr: A) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.write_timeout)?;
        Ok(WireClient { stream })
    }
}

impl WireClient {
    /// A builder with no timeouts — the configuration entry point.
    pub fn builder() -> WireClientBuilder {
        WireClientBuilder {
            read_timeout: None,
            write_timeout: None,
        }
    }

    /// Connects to a serving `ned-cli serve --tcp` address with no
    /// timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::builder().connect(addr)
    }

    /// Sends one payload (one command, or a newline-separated batch) and
    /// returns the reply text.
    pub fn call(&mut self, payload: &str) -> Result<String, wire::WireError> {
        self.send_raw(payload.as_bytes())?;
        self.read_reply()
    }

    /// Sends one typed request and parses the typed reply. Transport
    /// failures and malformed replies both surface as [`ServerError`], so
    /// callers branch on one retryability taxonomy.
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

    /// Sends raw payload bytes without reading a reply, which
    /// [`WireClient::read_reply`] reads later. The router's scatter
    /// writes one frame to every shard this way before it reads any
    /// reply; [`WireClient::call`] is the normal entry point.
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
