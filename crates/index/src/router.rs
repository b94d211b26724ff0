//! **Scatter-gather shard router**: one coordinator in front of a fleet
//! of [`NedServer`](crate::server::NedServer) shard processes, each
//! serving a disjoint id range of one logical signature index.
//!
//! The fleet contract, in one paragraph: a [`ShardMap`] statically
//! partitions the id space by lower bounds (`owner(id)` = the last shard
//! whose start is ≤ `id`), writes route to the healthy replicas of the
//! owning shard through the idempotent explicit-id `putsig` primitive (the
//! coordinator owns id assignment), and reads scatter to all shards and
//! merge through one bounded `(distance, id)` heap — with the shared
//! distance budget pushed down per shard as `sig ... within=<b>`, which
//! tightens as shard replies land. Because per-shard results are computed
//! by the same index code at the same `k`, and the merge is the same
//! `(distance, id)` top-k the sketch bank's knn runs on (ties kept by
//! the **inclusive** budget), a fleet answer is bit-identical to
//! a single-process index holding all the entries — the property the
//! `fleet.rs` integration tests pin.
//!
//! Consistency is **read-your-acked-writes**: every shard reply carries
//! the publication epoch of the snapshot that answered it, the router
//! remembers the highest epoch each shard has acked (the *fleet epoch
//! vector*), and a scatter read retries a replica whose reply is older
//! than that shard's acked epoch — so a cross-shard result never mixes an
//! acked write's before and after. Multi-shard delta batches additionally
//! run under the fleet write lock, excluding scatter reads while the
//! batch is in flight on several shards at once.
//!
//! Failure model: the router tracks a per-replica lifecycle
//! (**healthy → degraded → catching-up → healthy**). Writes need a
//! configurable **quorum** of a shard's replicas
//! ([`RouterOptions::quorum`], default majority) instead of all of them —
//! a replica that times out or refuses is marked *degraded* and the write
//! still acks, at the minimum epoch across the acking replicas, so a
//! shard keeps taking writes with a replica down. Degraded replicas take
//! no direct writes (that would fork their history).
//!
//! Recovery has one owner, the **heal routine**. The request paths
//! (reads, writes, `connect`) only record what they observe: they demote
//! a replica, with a reason, on a retryable error, a stale reply or a
//! sub-watermark ack, and a read reply at or past the shard's acked
//! epoch re-admits one. They never probe, stream or spawn. One
//! background thread per router, started by `connect`, runs a heal pass
//! every [`HEAL_PROBE_INTERVAL`]: each degraded replica gets an `epoch`
//! probe; one at or past the acked epoch (restarted, replayed its own
//! WAL) rejoins, and a stale one is put through a **WAL-suffix
//! catch-up** from a healthy peer ([`ned_core::Request::CatchUp`]), held
//! *catching-up* — out of both rotations — until the stream completes.
//! The stream runs in the pass, on a dedicated long-deadline connection
//! (a real replay outlives the pooled clients' request timeout). A mutex
//! makes passes exclusive, so at most one stream runs per router; a pass
//! that finds no degraded replica sends nothing. The thread holds only a
//! [`Weak`] to the shard state and exits once the router is dropped.
//!
//! The degraded state itself is only the router's in-memory view, so it
//! cannot be the *load-bearing* fork guard — a restarted router, or a
//! second coordinator attaching to the same fleet, starts with every
//! replica presumed healthy. Three checks hold the invariant anyway:
//! at connect time the fleet epoch vector seeds from the **maximum**
//! epoch across each shard's reachable replicas and anything lagging it
//! starts degraded (never written, so never forked); at write time an
//! ack whose epoch is **below** the shard's acked watermark is treated
//! as proof of staleness — the replica is degraded and its ack excluded
//! from the quorum count rather than folded into the watermark; and at
//! catch-up time the replica compares its own head WAL record against
//! the peer's record at the same epoch and refuses with a loud
//! [`ServerError::Corrupt`] on mismatch instead of silently splicing a
//! forked history (see `NedServer::catch_up_from`).
//!
//! A `fingerprint` probe ([`ShardRouter::probe_health`]) compares
//! per-replica live-set fingerprints and fails **loudly** when two
//! replicas claim the same epoch with different contents — silent
//! divergence is the one fault retrying cannot fix — and runs the heal
//! routine inline for every laggard it finds. When no quorum can be
//! reached the operation fails with a *retryable*
//! [`ServerError::Overloaded`]; acked writes are never lost, because a
//! read is only accepted from a replica at or past the acked epoch.

use crate::concurrent::WriteOp;
use crate::maintain::GraphMaintainer;
use crate::server::{Dispatch, WireClient};
use crate::topk::{sort_hits, TopK};
use ned_core::{Request, Response, ServerError, WireHit};
use ned_graph::{io as graph_io, Graph, GraphDelta, NodeId};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::Duration;

/// Largest number of idle pooled connections kept per replica.
const POOL_CAP: usize = 8;

/// Spacing of the router's background heal passes: a degraded replica
/// gets one `epoch` probe per interval, so an unreachable one costs a
/// connect attempt once per interval. The first pass runs one interval
/// after [`ShardRouter::connect`].
pub const HEAL_PROBE_INTERVAL: Duration = Duration::from_secs(2);

/// Read deadline for the `catchup` RPC specifically. A WAL-suffix
/// replay legitimately runs far past the pooled clients' request
/// timeout; cutting it off early would re-mark the replica degraded
/// while the server-side replay kept going, then burn repeat repair
/// attempts against its "already in progress" refusal.
const CATCHUP_REPLAY_TIMEOUT: Duration = Duration::from_secs(600);

/// Static id-range partition of one logical index across a shard fleet.
///
/// `starts[i]` is the lowest id shard `i` may own; id `x` belongs to the
/// **last** shard with `start <= x`, so when two shards share a start
/// (an empty split group) the later one wins and the earlier owns
/// nothing — exactly the layout [`split_index`](crate::fleet::split_index)
/// produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    starts: Vec<u64>,
}

impl ShardMap {
    /// Validates and wraps a lower-bound vector: non-empty, first bound
    /// `0` (every id must have an owner), non-decreasing.
    pub fn new(starts: Vec<u64>) -> Result<ShardMap, String> {
        if starts.is_empty() {
            return Err("a shard map needs at least one shard".to_string());
        }
        if starts[0] != 0 {
            return Err(format!(
                "the first shard must start at id 0, not {}",
                starts[0]
            ));
        }
        if starts.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("shard starts must be non-decreasing: {starts:?}"));
        }
        Ok(ShardMap { starts })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len()
    }

    /// The lower-bound vector, in shard order.
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// The shard owning `id` (total: every id has exactly one owner).
    pub fn owner(&self, id: u64) -> usize {
        // partition_point is the count of starts <= id; >= 1 since
        // starts[0] == 0.
        self.starts.partition_point(|s| *s <= id) - 1
    }
}

impl std::fmt::Display for ShardMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bounds: Vec<String> = self.starts.iter().map(u64::to_string).collect();
        write!(f, "{}", bounds.join(","))
    }
}

/// Tunables for a [`ShardRouter`].
#[derive(Debug, Clone, Copy)]
pub struct RouterOptions {
    /// Signature parameter of the fleet (used for router-side extraction
    /// of `query`/`range`/`track` graph commands).
    pub k: usize,
    /// First id the router will auto-assign. Seed from
    /// [`SignatureIndex::next_id`](crate::signatures::SignatureIndex::next_id)
    /// of the index the fleet was split from, so fresh inserts never
    /// collide with historical ids.
    pub next_id: u64,
    /// Per-connection read timeout toward shards.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout toward shards.
    pub write_timeout: Option<Duration>,
    /// Redial attempts per replica for (idempotent) shard writes.
    pub retry_attempts: u32,
    /// Scatter-read retry rounds across a shard's replicas before the
    /// router reports the shard degraded. Backoff between rounds doubles
    /// from 20ms up to 500ms.
    pub read_rounds: u32,
    /// How many replicas of a shard must ack a write before it counts as
    /// committed. `0` (the default) means a **majority** (`n/2 + 1` of
    /// the shard's `n` replicas); explicit values are clamped to
    /// `1..=n`. With a quorum below `n` a shard keeps taking writes
    /// while a replica is down — the laggard is marked degraded and
    /// caught back up from a peer's WAL suffix before it serves reads
    /// again.
    pub quorum: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            k: 3,
            next_id: 0,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            retry_attempts: 4,
            read_rounds: 12,
            quorum: 0,
        }
    }
}

/// Replica lifecycle states, as tracked router-side. A replica starts
/// [`HEALTHY`]; a retryable failure, a stale reply or a sub-watermark
/// ack demotes it to [`DEGRADED`] (skipped for writes, probed by heal
/// passes); a WAL-suffix stream in flight holds it at [`CATCHING_UP`]
/// (out of the read rotation entirely); completion — or an epoch probe
/// showing it already caught up on its own — returns it to [`HEALTHY`].
/// Demotions come from any path, catch-ups only from the heal routine
/// ([`Shard::heal`]).
const HEALTHY: u8 = 0;
const DEGRADED: u8 = 1;
const CATCHING_UP: u8 = 2;

/// One shard replica endpoint with its idle-connection pool and
/// router-side health state.
struct Replica {
    addr: String,
    pool: Mutex<Vec<WireClient>>,
    health: AtomicU8,
    /// Why the replica is degraded, for `stats`/`fingerprint` surfaces;
    /// cleared on rejoin.
    last_error: Mutex<Option<String>>,
    /// A catch-up completed since the last `fingerprint` report, whichever
    /// pass ran it; the report says so once and clears the mark.
    caught_up: AtomicBool,
}

impl Replica {
    fn new(addr: String) -> Replica {
        Replica {
            addr,
            pool: Mutex::new(Vec::new()),
            health: AtomicU8::new(HEALTHY),
            last_error: Mutex::new(None),
            caught_up: AtomicBool::new(false),
        }
    }

    fn health(&self) -> u8 {
        self.health.load(Ordering::Acquire)
    }

    /// Marks the replica DEGRADED, recording why.
    fn demote(&self, reason: String) {
        *self.last_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(reason);
        self.health.store(DEGRADED, Ordering::Release);
    }

    /// Marks the replica HEALTHY and forgets the demotion reason.
    fn rejoin(&self) {
        if self.health.swap(HEALTHY, Ordering::AcqRel) != HEALTHY {
            *self.last_error.lock().unwrap_or_else(|p| p.into_inner()) = None;
        }
    }

    fn health_name(&self) -> &'static str {
        match self.health() {
            DEGRADED => "degraded",
            CATCHING_UP => "catching-up",
            _ => "healthy",
        }
    }

    /// `health_name`, with the degradation reason when one is recorded.
    fn status(&self) -> String {
        let err = self.last_error.lock().unwrap_or_else(|p| p.into_inner());
        match (self.health(), err.as_deref()) {
            (DEGRADED, Some(e)) => format!("degraded: {e}"),
            _ => self.health_name().to_string(),
        }
    }

    /// Pops a pooled connection or dials a fresh one.
    fn lease(&self, opts: &RouterOptions) -> Result<WireClient, ServerError> {
        let pooled = self.pool.lock().unwrap_or_else(|p| p.into_inner()).pop();
        match pooled {
            Some(c) => Ok(c),
            None => WireClient::builder()
                .timeouts(opts.read_timeout, opts.write_timeout)
                .connect(&self.addr)
                .map_err(|e| ServerError::Io(format!("{}: {e}", self.addr))),
        }
    }

    fn give_back(&self, client: WireClient) {
        let mut pool = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    /// One request on a pooled connection. In-band `error:` replies are
    /// surfaced as `Err` so callers see one failure channel; the
    /// connection is returned to the pool only on success.
    fn request(&self, opts: &RouterOptions, req: &Request) -> Result<Response, ServerError> {
        let mut batch = self.request_batch(opts, std::slice::from_ref(req))?;
        Ok(batch.pop().expect("length checked by request_batch"))
    }

    /// One multi-command frame on a pooled connection; any in-band
    /// `error:` element fails the whole call.
    fn request_batch(
        &self,
        opts: &RouterOptions,
        reqs: &[Request],
    ) -> Result<Vec<Response>, ServerError> {
        let mut client = self.lease(opts)?;
        match client.request_batch(reqs) {
            Ok(resps) => {
                // A dead or desynced connection must not go back in the
                // pool; an in-band error leaves the stream healthy.
                self.give_back(client);
                for resp in &resps {
                    if let Response::Error(e) = resp {
                        return Err(e.clone());
                    }
                }
                Ok(resps)
            }
            Err(e) => Err(e),
        }
    }

    /// [`Replica::request_batch`] with redial-and-retry on retryable
    /// failures — only for idempotent batches (`putsig`, `remove`,
    /// `epoch`, `checkpoint` all are).
    fn request_retrying(
        &self,
        opts: &RouterOptions,
        reqs: &[Request],
    ) -> Result<Vec<Response>, ServerError> {
        let mut attempt = 0u32;
        loop {
            match self.request_batch(opts, reqs) {
                Err(e) if e.is_retryable() && attempt + 1 < opts.retry_attempts.max(1) => {
                    std::thread::sleep(backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

fn backoff(round: u32) -> Duration {
    Duration::from_millis((20u64 << round.min(5)).min(500))
}

/// One shard: its replicas plus the highest epoch the router has seen a
/// write acked at — the shard's slot in the fleet epoch vector.
struct Shard {
    replicas: Vec<Replica>,
    acked_epoch: AtomicU64,
    /// Rotation cursor so concurrent reads spread across replicas.
    cursor: AtomicUsize,
}

impl Shard {
    /// The heal routine for replica `idx`; the caller holds the fleet's
    /// heal lock, so at most one stream runs per router. An `epoch`
    /// probe decides: at or past the shard's acked epoch the replica
    /// rejoins; below it, the replica streams the WAL suffix from
    /// another healthy replica (`catchup <peer>`), held at CATCHING_UP
    /// meanwhile. The stream runs on a **dedicated** connection whose
    /// read deadline is [`CATCHUP_REPLAY_TIMEOUT`]: the pooled clients'
    /// request timeout would report any real replay as failed while the
    /// server side kept replaying. An unreachable replica, or one with
    /// no healthy peer to stream from (never a silent resurrection from
    /// a stale snapshot), stays degraded for the next pass.
    fn heal(&self, idx: usize, opts: &RouterOptions) {
        let replica = &self.replicas[idx];
        let Ok(Response::Epoch { epoch, .. }) = replica.request(opts, &Request::Epoch) else {
            return;
        };
        if epoch >= self.acked_epoch.load(Ordering::Acquire) {
            replica.rejoin();
            return;
        }
        let Some(peer) = self
            .replicas
            .iter()
            .enumerate()
            .find(|&(i, p)| i != idx && p.health() == HEALTHY)
            .map(|(_, p)| p.addr.clone())
        else {
            return;
        };
        replica.health.store(CATCHING_UP, Ordering::Release);
        let result = WireClient::builder()
            .timeouts(Some(CATCHUP_REPLAY_TIMEOUT), opts.write_timeout)
            .connect(&replica.addr)
            .map_err(|e| ServerError::Io(format!("{}: {e}", replica.addr)))
            .and_then(|mut client| client.request(&Request::CatchUp { peer }));
        match result {
            Ok(Response::Error(e)) | Err(e) => replica.demote(format!("catch-up failed: {e}")),
            Ok(_) => {
                replica.caught_up.store(true, Ordering::Release);
                replica.rejoin();
            }
        }
    }
}

/// The shard state the request paths share with the heal thread, which
/// holds it through a [`Weak`] so dropping the router ends the loop.
struct Fleet {
    shards: Vec<Shard>,
    opts: RouterOptions,
    /// Held for a whole heal pass: the background loop's passes and
    /// [`ShardRouter::probe_health`] never overlap.
    heal: Mutex<()>,
}

impl Fleet {
    /// One heal pass: the heal routine for every degraded replica. A
    /// fleet with none sends nothing.
    fn heal_pass(&self) {
        let _pass = self.heal.lock().unwrap_or_else(|p| p.into_inner());
        for shard in &self.shards {
            for (idx, replica) in shard.replicas.iter().enumerate() {
                if replica.health() == DEGRADED {
                    shard.heal(idx, &self.opts);
                }
            }
        }
    }
}

/// A merged scatter-read result: globally ordered hits plus the
/// per-shard epochs that answered — the proof of which index versions
/// the answer was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHits {
    /// Hits sorted by `(distance, id)`, exactly as a single-process
    /// index would return them.
    pub hits: Vec<WireHit>,
    /// `epochs[i]` = publication epoch of shard `i`'s answering snapshot.
    pub epochs: Vec<u64>,
}

/// The scatter-gather coordinator. See the [module docs](self).
///
/// Cheap to share behind an [`Arc`]; every operation takes `&self`.
/// Writes serialize on the id counter (the fleet keeps the repo's
/// single-writer idiom); scatter reads run concurrently.
pub struct ShardRouter {
    map: ShardMap,
    fleet: Arc<Fleet>,
    /// Fleet-wide id assignment — held across a whole write so a failed
    /// write never leaks its id into a later insert's way.
    next_id: Mutex<u64>,
    /// Readers-writer fence between scatter reads (read) and multi-shard
    /// delta batches (write): a cross-shard query never observes half of
    /// a delta batch.
    fleet_lock: RwLock<()>,
    /// The tracked mutating graph, maintained router-side; its write
    /// batches are partitioned by owner and pushed down as `putsig`s.
    maintained: Mutex<Option<GraphMaintainer>>,
}

impl ShardRouter {
    /// Connects to a fleet: `replicas[i]` lists the `host:port` endpoints
    /// serving shard `i` (at least one each). **Every** replica of every
    /// shard is probed with `epoch`; some replica of each shard must
    /// answer. The fleet epoch vector seeds from the **maximum** epoch
    /// each shard's replicas report — quorum writes make a lagging
    /// replica a routine steady state, so seeding from whichever replica
    /// answered first could start the watermark below previously-acked
    /// writes and accept reads that miss them. Replicas lagging the max
    /// (or unreachable) start **degraded**: a fresh coordinator must
    /// never write to a stale replica at its own lower epoch, which
    /// would fork its history. On success the router's heal thread
    /// starts (see the [module docs](self)).
    pub fn connect(
        map: ShardMap,
        replicas: Vec<Vec<String>>,
        opts: RouterOptions,
    ) -> Result<ShardRouter, ServerError> {
        if replicas.len() != map.shards() {
            return Err(ServerError::bad(format!(
                "shard map has {} shard(s) but {} replica group(s) were given",
                map.shards(),
                replicas.len()
            )));
        }
        if let Some(empty) = replicas.iter().position(Vec::is_empty) {
            return Err(ServerError::bad(format!(
                "shard {empty} has no replica endpoints"
            )));
        }
        let shards: Vec<Shard> = replicas
            .into_iter()
            .map(|group| Shard {
                replicas: group.into_iter().map(Replica::new).collect(),
                acked_epoch: AtomicU64::new(0),
                cursor: AtomicUsize::new(0),
            })
            .collect();
        for (i, shard) in shards.iter().enumerate() {
            let mut epochs: Vec<Option<u64>> = Vec::with_capacity(shard.replicas.len());
            for replica in &shard.replicas {
                let probed = match replica.request_retrying(&opts, &[Request::Epoch]) {
                    Ok(resps) => match resps.first() {
                        Some(Response::Epoch { epoch, .. }) => Some(*epoch),
                        _ => None,
                    },
                    Err(_) => None,
                };
                if probed.is_none() {
                    replica.demote("unreachable at connect".to_string());
                }
                epochs.push(probed);
            }
            let Some(max) = epochs.iter().flatten().copied().max() else {
                return Err(ServerError::Overloaded(format!(
                    "shard {i}: no replica answered the connect-time epoch probe"
                )));
            };
            shard.acked_epoch.store(max, Ordering::Release);
            for (replica, epoch) in shard.replicas.iter().zip(&epochs) {
                if let Some(e) = epoch {
                    if *e < max {
                        replica.demote(format!("lagged the fleet at connect (epoch {e} < {max})"));
                    }
                }
            }
        }
        let fleet = Arc::new(Fleet {
            shards,
            opts,
            heal: Mutex::new(()),
        });
        // Detached: joining on drop would block the dropper for up to an
        // interval, or for a whole catch-up stream. The `Weak` ends it.
        let weak: Weak<Fleet> = Arc::downgrade(&fleet);
        std::thread::spawn(move || loop {
            std::thread::sleep(HEAL_PROBE_INTERVAL);
            match weak.upgrade() {
                Some(fleet) => fleet.heal_pass(),
                None => return,
            }
        });
        Ok(ShardRouter {
            map,
            fleet,
            next_id: Mutex::new(opts.next_id),
            fleet_lock: RwLock::new(()),
            maintained: Mutex::new(None),
        })
    }

    /// The id-range partition this router routes by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The options the router was built with.
    pub fn options(&self) -> &RouterOptions {
        &self.fleet.opts
    }

    /// The current fleet epoch vector (highest acked epoch per shard).
    pub fn acked_epochs(&self) -> Vec<u64> {
        self.fleet
            .shards
            .iter()
            .map(|s| s.acked_epoch.load(Ordering::Acquire))
            .collect()
    }

    /// The id the next auto-assigning insert will take.
    pub fn peek_next_id(&self) -> u64 {
        *self.next_id.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One read against shard `shard_idx`, requiring a reply epoch of at
    /// least `min_epoch` when the reply carries one. Rotates across
    /// replicas (skipping ones mid catch-up — they are out of the
    /// rotation until their WAL stream completes); a stale reply or a
    /// retryable error demotes the replica (the next heal pass repairs
    /// it), and a reply at the required epoch is proof of health,
    /// re-admitting a previously degraded replica. When every round is
    /// exhausted the shard is *degraded* and the error is a retryable
    /// [`ServerError::Overloaded`].
    fn shard_read(
        &self,
        shard_idx: usize,
        req: &Request,
        min_epoch: u64,
    ) -> Result<Response, ServerError> {
        let shard = &self.fleet.shards[shard_idx];
        let n = shard.replicas.len();
        let mut last: Option<ServerError> = None;
        for round in 0..self.fleet.opts.read_rounds.max(1) {
            if round > 0 {
                std::thread::sleep(backoff(round - 1));
            }
            let start = shard.cursor.fetch_add(1, Ordering::Relaxed);
            for i in 0..n {
                let replica = &shard.replicas[(start + i) % n];
                if replica.health() == CATCHING_UP {
                    continue;
                }
                match replica.request(&self.fleet.opts, req) {
                    Ok(resp) => match resp.epoch() {
                        Some(epoch) if epoch < min_epoch => {
                            replica
                                .demote(format!("stale read reply (epoch {epoch} < {min_epoch})"));
                            last = Some(ServerError::Overloaded(format!(
                                "replica {} lags at epoch {epoch} (need {min_epoch})",
                                replica.addr
                            )));
                        }
                        _ => {
                            replica.rejoin();
                            return Ok(resp);
                        }
                    },
                    Err(e) if e.is_retryable() => {
                        replica.demote(format!("read failed: {e}"));
                        last = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(ServerError::Overloaded(format!(
            "shard {shard_idx} degraded: no replica answered at epoch >= {min_epoch} ({})",
            last.map_or_else(|| "no replicas".to_string(), |e| e.to_string())
        )))
    }

    /// The ack threshold for writes to a shard with `replicas` replicas:
    /// [`RouterOptions::quorum`], defaulting to a majority, clamped to
    /// `1..=replicas`.
    fn effective_quorum(&self, replicas: usize) -> usize {
        let q = match self.fleet.opts.quorum {
            0 => replicas / 2 + 1,
            q => q,
        };
        q.clamp(1, replicas)
    }

    /// One (idempotent) write batch against shard `shard_idx`, committed
    /// once a **quorum** of its replicas ack
    /// ([`ShardRouter::effective_quorum`]). The batch must carry at
    /// least one epoch-bearing reply (a `putsig` ack, or a trailing
    /// `epoch` probe); the write is acked at the *minimum* epoch across
    /// the acking replicas, and a later read only accepts replies at or
    /// past that epoch — so an acked write is never served from a
    /// replica that missed it. Degraded replicas are skipped rather than
    /// written directly (a write applied out of step would fork their
    /// epoch history); they rejoin through the heal loop. A replica that
    /// fails retryably is marked degraded and the write continues; below
    /// quorum the whole write fails with a retryable
    /// [`ServerError::Overloaded`] and no id or epoch is consumed
    /// router-side. An ack whose epoch is **below** the shard's
    /// acked watermark is proof of staleness, not of replication: the
    /// replica missed acked writes (a restarted router or a second
    /// coordinator saw it as healthy) and has just forked its history —
    /// folding its low epoch into the watermark would let it pass the
    /// read gate while missing acked writes, so it is degraded and its
    /// ack excluded from the quorum count instead; the heal loop's
    /// catch-up verifies the fork point and refuses loudly.
    /// Returns the first counted ack's replies.
    fn write_shard(
        &self,
        shard_idx: usize,
        reqs: &[Request],
    ) -> Result<Vec<Response>, ServerError> {
        let shard = &self.fleet.shards[shard_idx];
        let n = shard.replicas.len();
        let quorum = self.effective_quorum(n);
        let floor = shard.acked_epoch.load(Ordering::Acquire);
        let mut first: Option<Vec<Response>> = None;
        let mut acked = u64::MAX;
        let mut acks = 0usize;
        let mut out: Vec<&str> = Vec::new();
        for replica in &shard.replicas {
            if replica.health() != HEALTHY {
                out.push(replica.addr.as_str());
                continue;
            }
            match replica.request_retrying(&self.fleet.opts, reqs) {
                Ok(resps) => {
                    let epoch = resps
                        .iter()
                        .rev()
                        .find_map(Response::epoch)
                        .ok_or_else(|| {
                            ServerError::Corrupt(format!(
                                "shard {shard_idx}: write batch reply carried no epoch"
                            ))
                        })?;
                    if epoch < floor {
                        replica.demote(format!(
                            "acked a write at epoch {epoch}, below the shard's acked \
                             watermark {floor}: stale or forked history"
                        ));
                        out.push(replica.addr.as_str());
                        continue;
                    }
                    acked = acked.min(epoch);
                    acks += 1;
                    if first.is_none() {
                        first = Some(resps);
                    }
                }
                Err(e) if e.is_retryable() => {
                    replica.demote(format!("write failed: {e}"));
                    out.push(replica.addr.as_str());
                }
                Err(e) => return Err(e),
            }
        }
        if acks < quorum {
            return Err(ServerError::Overloaded(format!(
                "shard {shard_idx}: quorum lost — {acks} of {n} replica(s) acked (need \
                 {quorum}; unavailable: [{}])",
                out.join(", ")
            )));
        }
        shard.acked_epoch.fetch_max(acked, Ordering::AcqRel);
        Ok(first.expect("acks >= quorum >= 1"))
    }

    /// Scatter-gather k-NN by literal shape: bit-identical to querying a
    /// single index holding every shard's entries. `within` (when given)
    /// seeds the shared budget — e.g. a `sig ... within=<b>` forwarded
    /// from an upstream coordinator.
    pub fn knn(
        &self,
        shape: &str,
        top: usize,
        within: Option<u64>,
    ) -> Result<FleetHits, ServerError> {
        let _fleet = self.fleet_lock.read().unwrap_or_else(|p| p.into_inner());
        let min_epochs = self.acked_epochs();
        // The shared radius: an inclusive upper bound on distances that
        // can still enter the global top-k. Starts unbounded (u64::MAX
        // encodes "no budget") and tightens monotonically as shard
        // replies fill the merge heap.
        let budget = AtomicU64::new(within.unwrap_or(u64::MAX));
        let merge = Mutex::new(TopK::new(top));
        let epochs = Mutex::new(vec![0u64; self.fleet.shards.len()]);
        let results: Vec<Result<(), ServerError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.fleet.shards.len())
                .map(|i| {
                    let (budget, merge, epochs, min_epochs) =
                        (&budget, &merge, &epochs, &min_epochs);
                    scope.spawn(move || -> Result<(), ServerError> {
                        let b = budget.load(Ordering::Acquire);
                        let req = Request::Sig {
                            shape: shape.to_string(),
                            top,
                            within: (b != u64::MAX).then_some(b),
                        };
                        let resp = self.shard_read(i, &req, min_epochs[i])?;
                        let Response::Hits { epoch, hits } = resp else {
                            return Err(ServerError::Corrupt(format!(
                                "shard {i} answered a sig query with a non-hits reply"
                            )));
                        };
                        let mut m = merge.lock().unwrap_or_else(|p| p.into_inner());
                        for hit in hits {
                            m.push(hit);
                        }
                        if let Some(bound) = m.bound() {
                            budget.fetch_min(bound, Ordering::AcqRel);
                        }
                        drop(m);
                        epochs.lock().unwrap_or_else(|p| p.into_inner())[i] = epoch;
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter worker panicked"))
                .collect()
        });
        for r in results {
            r?;
        }
        Ok(FleetHits {
            hits: merge
                .into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .into_sorted(),
            epochs: epochs.into_inner().unwrap_or_else(|p| p.into_inner()),
        })
    }

    /// Scatter-gather range query by literal shape (all hits with
    /// NED ≤ `radius`), merged into global `(distance, id)` order.
    pub fn range(&self, shape: &str, radius: u64) -> Result<FleetHits, ServerError> {
        let _fleet = self.fleet_lock.read().unwrap_or_else(|p| p.into_inner());
        let min_epochs = self.acked_epochs();
        let results: Vec<Result<(u64, Vec<WireHit>), ServerError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.fleet.shards.len())
                .map(|i| {
                    let min_epochs = &min_epochs;
                    scope.spawn(move || {
                        let req = Request::RangeSig {
                            shape: shape.to_string(),
                            radius,
                        };
                        match self.shard_read(i, &req, min_epochs[i])? {
                            Response::Hits { epoch, hits } => Ok((epoch, hits)),
                            _ => Err(ServerError::Corrupt(format!(
                                "shard {i} answered a rangesig query with a non-hits reply"
                            ))),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter worker panicked"))
                .collect()
        });
        let mut hits: Vec<WireHit> = Vec::new();
        let mut epochs = Vec::with_capacity(self.fleet.shards.len());
        for r in results {
            let (epoch, shard_hits) = r?;
            epochs.push(epoch);
            hits.extend(shard_hits);
        }
        sort_hits(&mut hits);
        Ok(FleetHits { hits, epochs })
    }

    /// Scatter `epoch` to every shard; returns the **summed** epochs and
    /// live sizes — the sums are monotone under writes, which is what a
    /// client polling `epoch` for progress relies on.
    pub fn epoch(&self) -> Result<(u64, u64), ServerError> {
        let _fleet = self.fleet_lock.read().unwrap_or_else(|p| p.into_inner());
        let min_epochs = self.acked_epochs();
        let mut epoch_sum = 0u64;
        let mut len_sum = 0u64;
        for (i, &min_epoch) in min_epochs.iter().enumerate() {
            match self.shard_read(i, &Request::Epoch, min_epoch)? {
                Response::Epoch { epoch, len } => {
                    epoch_sum += epoch;
                    len_sum += len;
                }
                _ => {
                    return Err(ServerError::Corrupt(format!(
                        "shard {i} answered `epoch` with a different reply"
                    )))
                }
            }
        }
        Ok((epoch_sum, len_sum))
    }

    /// Inserts a literal shape under the next fleet-assigned id; the id
    /// is acked on a **quorum** of the owning shard's replicas before it
    /// is returned (a failed write burns no id and may be retried).
    pub fn insert_shape(&self, shape: &str) -> Result<u64, ServerError> {
        let _fleet = self.fleet_lock.read().unwrap_or_else(|p| p.into_inner());
        let mut next = self.next_id.lock().unwrap_or_else(|p| p.into_inner());
        let id = *next;
        self.write_shard(
            self.map.owner(id),
            &[Request::PutSig {
                id,
                shape: shape.to_string(),
            }],
        )?;
        *next = id + 1;
        Ok(id)
    }

    /// Writes a literal shape under an **explicit** id (replacing any
    /// live occupant) and bumps the fleet id watermark past it. Returns
    /// `(fresh, acked_epoch_sum)`.
    pub fn put_shape(&self, id: u64, shape: &str) -> Result<(bool, u64), ServerError> {
        let _fleet = self.fleet_lock.read().unwrap_or_else(|p| p.into_inner());
        let mut next = self.next_id.lock().unwrap_or_else(|p| p.into_inner());
        let resps = self.write_shard(
            self.map.owner(id),
            &[Request::PutSig {
                id,
                shape: shape.to_string(),
            }],
        )?;
        *next = (*next).max(id.saturating_add(1));
        match resps.first() {
            Some(Response::Put { fresh, .. }) => Ok((*fresh, self.acked_epoch_sum())),
            _ => Err(ServerError::Corrupt(
                "shard answered putsig with a different reply".to_string(),
            )),
        }
    }

    /// Removes an id from its owning shard (quorum-acked like every
    /// write). Returns whether a live signature existed.
    pub fn remove(&self, id: u64) -> Result<bool, ServerError> {
        let _fleet = self.fleet_lock.read().unwrap_or_else(|p| p.into_inner());
        let resps = self.write_shard(
            self.map.owner(id),
            // `remove` acks carry no epoch, so harvest one explicitly.
            &[Request::Remove { id }, Request::Epoch],
        )?;
        match resps.first() {
            Some(Response::Removed { existed, .. }) => Ok(*existed),
            _ => Err(ServerError::Corrupt(
                "shard answered remove with a different reply".to_string(),
            )),
        }
    }

    /// Attaches a mutating graph for `addedge`/`deledge` deltas, exactly
    /// like [`NedServer::track`](crate::server::NedServer::track) —
    /// except the router holds no local index to verify against, so the
    /// caller is trusted that node `v` is indexed fleet-wide under id
    /// `v` (the layout a split of an `insert_graph`-built index has).
    pub fn track(&self, graph: &Graph) -> Result<String, ServerError> {
        let mut tracked = self.maintained.lock().unwrap_or_else(|p| p.into_inner());
        let maintainer = GraphMaintainer::attach(graph, self.fleet.opts.k, 0, 0);
        let line = format!(
            "tracking graph ({} nodes, {} edges, k = {})",
            maintainer.num_nodes(),
            maintainer.num_edges(),
            maintainer.k()
        );
        *tracked = Some(maintainer);
        Ok(line)
    }

    /// Applies one delta batch to the tracked graph and pushes the
    /// materialized write batch down to the owning shards, under the
    /// fleet **write** lock — scatter reads never observe half of it.
    /// Insert ops get fleet-assigned ids (converted to `putsig`); every
    /// per-shard batch ends with an `epoch` probe that advances the
    /// fleet epoch vector. On any shard failure the tracked graph is
    /// detached (its shadow state no longer matches the fleet) and the
    /// caller must re-track, mirroring the single-process server.
    pub fn apply_delta(&self, deltas: &[GraphDelta]) -> Result<String, ServerError> {
        let _fleet = self.fleet_lock.write().unwrap_or_else(|p| p.into_inner());
        let mut tracked = self.maintained.lock().unwrap_or_else(|p| p.into_inner());
        let maintainer = tracked
            .as_mut()
            .ok_or_else(|| ServerError::bad("no tracked graph; run `track <graph.edges>` first"))?;
        // Validate endpoints against the *running* slot count: an edge may
        // legally reference a node added earlier in the same batch.
        let mut slots = maintainer.num_nodes();
        for delta in deltas {
            match delta {
                GraphDelta::AddNode => slots += 1,
                GraphDelta::AddEdge(a, b) | GraphDelta::RemoveEdge(a, b) => {
                    if *a as usize >= slots || *b as usize >= slots {
                        return Err(ServerError::bad(format!(
                            "edge ({a}, {b}) out of range ({slots} nodes)"
                        )));
                    }
                }
                GraphDelta::RemoveNode(_) => {}
            }
        }
        let batch = match catch_unwind(AssertUnwindSafe(|| maintainer.materialize(deltas))) {
            Ok(batch) => batch,
            Err(_) => {
                *tracked = None;
                return Err(ServerError::Io(
                    "delta materialization failed (internal panic); the tracked graph was \
                     detached — re-track to resume"
                        .to_string(),
                ));
            }
        };
        let mut next = self.next_id.lock().unwrap_or_else(|p| p.into_inner());
        let mut assigned = Vec::with_capacity(batch.added.len());
        let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); self.fleet.shards.len()];
        for op in &batch.ops {
            match op {
                WriteOp::Remove(id) => {
                    per_shard[self.map.owner(*id)].push(Request::Remove { id: *id });
                }
                WriteOp::Replace(id, sig) => {
                    per_shard[self.map.owner(*id)].push(Request::PutSig {
                        id: *id,
                        shape: ned_tree::serialize::print(sig.tree()),
                    });
                }
                WriteOp::Insert(sig) => {
                    let id = *next;
                    *next += 1;
                    assigned.push(id);
                    per_shard[self.map.owner(id)].push(Request::PutSig {
                        id,
                        shape: ned_tree::serialize::print(sig.tree()),
                    });
                }
            }
        }
        for (shard, mut reqs) in per_shard.into_iter().enumerate() {
            if reqs.is_empty() {
                continue;
            }
            reqs.push(Request::Epoch);
            if let Err(e) = self.write_shard(shard, &reqs) {
                *tracked = None;
                return Err(ServerError::Io(format!(
                    "delta application failed on shard {shard} ({e}); the tracked graph was \
                     detached — re-track to resume (acked state is consistent: unacked ops \
                     are idempotent and safe to replay)"
                )));
            }
        }
        maintainer.commit_inserted(&batch.added, assigned);
        Ok(format!("{} epoch={}", batch.report, self.acked_epoch_sum()))
    }

    /// Sends `req` to every replica of every shard, failing on the first
    /// error. Returns how many replicas answered (used by `checkpoint`).
    pub fn broadcast(&self, req: &Request) -> Result<usize, ServerError> {
        let mut count = 0;
        for shard in &self.fleet.shards {
            for replica in &shard.replicas {
                replica.request_retrying(&self.fleet.opts, std::slice::from_ref(req))?;
                count += 1;
            }
        }
        Ok(count)
    }

    /// Best-effort clean shutdown of every shard replica (each drains,
    /// checkpoints, and exits). Unreachable replicas are skipped; returns
    /// how many acknowledged the drain.
    pub fn shutdown_fleet(&self) -> usize {
        let mut count = 0;
        for shard in &self.fleet.shards {
            for replica in &shard.replicas {
                if replica
                    .request(&self.fleet.opts, &Request::Shutdown)
                    .is_ok()
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// One anti-entropy pass over the whole fleet: every replica answers
    /// a `fingerprint` probe (publication epoch, live size, and the
    /// process-stable live-set fingerprint). A replica lagging its
    /// shard's acked epoch is marked degraded and put through the heal
    /// routine inline, under the heal lock (a background pass
    /// mid-stream finishes first); an unreachable one is marked degraded
    /// for the next pass. A replica caught up since the last report, by
    /// this pass or the loop's, is reported `rejoined after catch-up`
    /// once. Two replicas claiming the **same** epoch with **different**
    /// fingerprints is silent divergence — a loud, non-retryable
    /// [`ServerError::Corrupt`], because no amount of retrying makes
    /// bit-different replicas agree and serving from either would
    /// violate the quorum invariant.
    /// Returns the per-replica health report (the fleet `fingerprint`
    /// surface).
    pub fn probe_health(&self) -> Result<String, ServerError> {
        let _pass = self.fleet.heal.lock().unwrap_or_else(|p| p.into_inner());
        let mut lines = Vec::new();
        for (i, shard) in self.fleet.shards.iter().enumerate() {
            let acked = shard.acked_epoch.load(Ordering::Acquire);
            let mut seen: Vec<(u64, u64, String)> = Vec::new();
            for (idx, replica) in shard.replicas.iter().enumerate() {
                match replica.request(&self.fleet.opts, &Request::Fingerprint) {
                    Ok(Response::Fingerprint { epoch, len, hash }) => {
                        for (peer_epoch, peer_hash, peer) in &seen {
                            if *peer_epoch == epoch && *peer_hash != hash {
                                return Err(ServerError::Corrupt(format!(
                                    "shard {i} diverged: {} and {peer} both claim epoch \
                                     {epoch} with different live-set fingerprints \
                                     ({hash:016x} != {peer_hash:016x}); an acked write is \
                                     unaccounted for on one of them",
                                    replica.addr
                                )));
                            }
                        }
                        seen.push((epoch, hash, replica.addr.clone()));
                        if epoch < acked {
                            replica.demote(format!("lags at epoch {epoch} (acked {acked})"));
                            shard.heal(idx, &self.fleet.opts);
                        } else {
                            replica.rejoin();
                        }
                        let state = if replica.caught_up.swap(false, Ordering::AcqRel) {
                            "rejoined after catch-up"
                        } else if replica.health() == HEALTHY {
                            "healthy"
                        } else {
                            "degraded (stale, awaiting catch-up)"
                        };
                        lines.push(format!(
                            "shard {i} replica {}: {state}, epoch {epoch}, len {len}, \
                             fingerprint {hash:016x}",
                            replica.addr
                        ));
                    }
                    Ok(_) => {
                        return Err(ServerError::Corrupt(format!(
                            "shard {i} replica {} answered `fingerprint` with a different \
                             reply",
                            replica.addr
                        )))
                    }
                    Err(e) => {
                        replica.demote(format!("fingerprint probe failed: {e}"));
                        lines.push(format!(
                            "shard {i} replica {}: degraded ({e})",
                            replica.addr
                        ));
                    }
                }
            }
        }
        Ok(lines.join("\n"))
    }

    /// Human-readable fleet topology + epoch vector + per-replica health
    /// (the router's `stats` reply). Health states are the router's
    /// current view — no probes are sent; `fingerprint` runs the active
    /// anti-entropy pass.
    pub fn stats_line(&self) -> String {
        let mut lines = vec![format!(
            "router: {} shard(s), bounds [{}], next id {}, k = {}",
            self.map.shards(),
            self.map,
            self.peek_next_id(),
            self.fleet.opts.k
        )];
        for (i, shard) in self.fleet.shards.iter().enumerate() {
            let addrs: Vec<String> = shard
                .replicas
                .iter()
                .map(|r| format!("{} ({})", r.addr, r.status()))
                .collect();
            lines.push(format!(
                "shard {i}: start {}, acked epoch {}, write quorum {}/{}, replicas [{}]",
                self.map.starts()[i],
                shard.acked_epoch.load(Ordering::Acquire),
                self.effective_quorum(shard.replicas.len()),
                shard.replicas.len(),
                addrs.join(", ")
            ));
        }
        lines.join("\n")
    }

    fn acked_epoch_sum(&self) -> u64 {
        self.acked_epochs().iter().sum()
    }
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("map", &self.map)
            .field("acked_epochs", &self.acked_epochs())
            .finish()
    }
}

/// The router's TCP front-end: speaks the **same** framed protocol and
/// reply grammar as a single [`NedServer`](crate::server::NedServer), so
/// every existing client ([`WireClient`], `loadgen`, the CLI REPL) works
/// against a fleet unchanged. Graph-file commands (`query`, `range`,
/// `add`, `track`) are resolved router-side: the graph is loaded here,
/// the signature extracted at the fleet's `k`, and the query pushed down
/// by literal shape.
pub struct RouterServer {
    router: ShardRouter,
    graphs: Mutex<HashMap<String, Arc<Graph>>>,
    shutting_down: AtomicBool,
    local_addr: Mutex<Option<SocketAddr>>,
}

impl RouterServer {
    /// Wraps a connected router.
    pub fn new(router: ShardRouter) -> RouterServer {
        RouterServer {
            router,
            graphs: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            local_addr: Mutex::new(None),
        }
    }

    /// The wrapped router (e.g. for a clean `shutdown_fleet` after
    /// serving ends).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Executes one non-session request against the fleet.
    pub fn execute(&self, req: &Request) -> Result<Response, ServerError> {
        Ok(match req {
            Request::Help => Response::Info {
                body: ROUTER_HELP_BODY.to_string(),
            },
            Request::Stats => Response::Info {
                body: self.router.stats_line(),
            },
            Request::Epoch => {
                let (epoch, len) = self.router.epoch()?;
                Response::Epoch { epoch, len }
            }
            Request::Query { path, node, top } => {
                let shape = self.shape_for(path, *node)?;
                fleet_hits_response(self.router.knn(&shape, *top, None)?)
            }
            Request::Range { path, node, radius } => {
                let shape = self.shape_for(path, *node)?;
                fleet_hits_response(self.router.range(&shape, *radius)?)
            }
            Request::Sig { shape, top, within } => {
                fleet_hits_response(self.router.knn(shape, *top, *within)?)
            }
            Request::RangeSig { shape, radius } => {
                fleet_hits_response(self.router.range(shape, *radius)?)
            }
            Request::Add { path, node } => {
                let shape = self.shape_for(path, *node)?;
                Response::Added {
                    id: self.router.insert_shape(&shape)?,
                }
            }
            Request::AddSig { shape } => Response::Added {
                id: self.router.insert_shape(shape)?,
            },
            Request::PutSig { id, shape } => {
                let (fresh, epoch) = self.router.put_shape(*id, shape)?;
                Response::Put {
                    id: *id,
                    fresh,
                    epoch,
                }
            }
            Request::Remove { id } => Response::Removed {
                id: *id,
                existed: self.router.remove(*id)?,
            },
            Request::Track { path } => {
                let graph = self.graph(path)?;
                Response::Ok {
                    msg: self.router.track(&graph)?,
                }
            }
            Request::AddEdge { a, b } => Response::Ok {
                msg: self.router.apply_delta(&[GraphDelta::AddEdge(*a, *b)])?,
            },
            Request::DelEdge { a, b } => Response::Ok {
                msg: self.router.apply_delta(&[GraphDelta::RemoveEdge(*a, *b)])?,
            },
            Request::Save { .. } => {
                return Err(ServerError::bad(
                    "the router holds no index to save; run `save` against a shard, or \
                     `checkpoint` to checkpoint the whole fleet",
                ))
            }
            Request::Checkpoint => {
                let n = self.router.broadcast(&Request::Checkpoint)?;
                Response::Ok {
                    msg: format!("checkpoint forwarded to {n} shard replica(s)"),
                }
            }
            Request::Fingerprint => Response::Info {
                body: self.router.probe_health()?,
            },
            Request::WalSuffix { .. } => {
                return Err(ServerError::bad(
                    "the router holds no write-ahead log; request `walsuffix` from a shard \
                     replica directly",
                ))
            }
            Request::CatchUp { .. } => {
                return Err(ServerError::bad(
                    "catch-up is replica-level; the router schedules it automatically — run \
                     `fingerprint` to force a health pass",
                ))
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

    /// [`NedServer::dispatch`](crate::server::NedServer::dispatch)-shaped
    /// entry point: parse, execute, render.
    pub fn dispatch(&self, line: &str) -> Dispatch {
        match Request::parse_line(line) {
            Ok(None) => Dispatch::Reply(String::new()),
            Ok(Some(req)) => self.dispatch_request(req),
            Err(e) => Dispatch::Reply(Response::Error(e).to_string()),
        }
    }

    /// Routes session control; everything else goes through
    /// [`RouterServer::execute`].
    pub fn dispatch_request(&self, req: Request) -> Dispatch {
        match req {
            Request::Quit => Dispatch::Quit,
            Request::Shutdown => {
                self.initiate_shutdown();
                Dispatch::Shutdown
            }
            req => Dispatch::Reply(
                self.execute(&req)
                    .unwrap_or_else(Response::Error)
                    .to_string(),
            ),
        }
    }

    /// Executes a whole frame payload (newline-separated commands,
    /// replies concatenated in order). The scatter layer is internally
    /// parallel, so frames run sequentially here; a panic in one command
    /// is isolated to an error reply, like the single-process server.
    pub fn handle_payload(&self, payload: &str) -> (String, bool) {
        let mut replies = Vec::new();
        for line in payload.lines() {
            let dispatched =
                catch_unwind(AssertUnwindSafe(|| self.dispatch(line))).unwrap_or_else(|_| {
                    Dispatch::Reply(
                        Response::Error(ServerError::Io(
                            "internal panic while executing the command; the router is \
                             still serving"
                                .to_string(),
                        ))
                        .to_string(),
                    )
                });
            match dispatched {
                Dispatch::Reply(r) => replies.push(r),
                Dispatch::Quit => {
                    replies.push("ok bye".to_string());
                    return (replies.join("\n"), true);
                }
                Dispatch::Shutdown => {
                    replies.push(
                        "ok draining: in-flight connections finish, then the router exits \
                         (shards keep serving)"
                            .to_string(),
                    );
                    return (replies.join("\n"), true);
                }
            }
        }
        (replies.join("\n"), false)
    }

    /// Serves the framed protocol until `shutdown`: thread per
    /// connection, one reply frame per request frame.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        *self.local_addr.lock().unwrap_or_else(|p| p.into_inner()) = listener.local_addr().ok();
        for conn in listener.incoming() {
            if self.shutting_down.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let server = Arc::clone(self);
            std::thread::spawn(move || server.handle_conn(stream));
        }
        Ok(())
    }

    /// Flips the drain flag and wakes the blocked acceptor.
    pub fn initiate_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let addr = *self.local_addr.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    fn handle_conn(&self, mut stream: TcpStream) {
        use ned_core::wire;
        loop {
            match wire::read_frame(&mut stream) {
                Ok(None) => return,
                Err(e) => {
                    let reply = Response::Error(ServerError::from(e)).to_string();
                    let _ = wire::write_text_frame(&mut stream, &reply);
                    return;
                }
                Ok(Some(payload)) => {
                    let text = match String::from_utf8(payload) {
                        Ok(t) => t,
                        Err(_) => {
                            // Framing is still in sync — reply in-band
                            // and keep the session, like NedServer.
                            let reply = Response::Error(ServerError::Corrupt(
                                "frame payload is not UTF-8".to_string(),
                            ))
                            .to_string();
                            if wire::write_text_frame(&mut stream, &reply).is_err() {
                                return;
                            }
                            continue;
                        }
                    };
                    let (reply, end) = self.handle_payload(&text);
                    if wire::write_text_frame(&mut stream, &reply).is_err() || end {
                        return;
                    }
                }
            }
        }
    }

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

    /// Extracts `<path> <node>`'s signature at the fleet's `k` and
    /// renders it as the literal shape pushed down to shards.
    fn shape_for(&self, path: &str, node: NodeId) -> Result<String, ServerError> {
        let graph = self.graph(path)?;
        if (node as usize) >= graph.num_nodes() {
            return Err(ServerError::bad(format!(
                "node {node} out of range (graph has {} nodes)",
                graph.num_nodes()
            )));
        }
        let sig = ned_core::NodeSignature::extract(&graph, node, self.router.options().k);
        Ok(ned_tree::serialize::print(sig.tree()))
    }
}

impl std::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterServer")
            .field("router", &self.router)
            .finish()
    }
}

fn fleet_hits_response(fleet: FleetHits) -> Response {
    Response::Hits {
        // One scalar for the wire: the sum of per-shard epochs, monotone
        // under acked writes.
        epoch: fleet.epochs.iter().sum(),
        hits: fleet.hits,
    }
}

const ROUTER_HELP_BODY: &str = "\
commands (scatter-gather; same grammar as a single server):\n\
\x20 query <graph.edges> <node> [top]   k-NN across all shards\n\
\x20 range <graph.edges> <node> <r>     range query across all shards\n\
\x20 sig <parens-tree> [top] [within=b] k-NN by a literal tree shape\n\
\x20 rangesig <parens-tree> <r>         range query by a literal shape\n\
\x20 add <graph.edges> <node>           index one signature (router assigns the id)\n\
\x20 addsig <parens-tree>               index a literal tree shape\n\
\x20 putsig <id> <parens-tree>          write a shape under an explicit id\n\
\x20 remove <id>                        drop a signature by id\n\
\x20 track <graph.edges>                attach a mutating graph for deltas\n\
\x20 addedge <a> <b> / deledge <a> <b>  delta the tracked graph, fan out to shards\n\
\x20 stats                              fleet topology, epoch vector, replica health\n\
\x20 fingerprint                        anti-entropy pass: probe + heal every replica\n\
\x20 epoch                              summed shard epochs + live size\n\
\x20 checkpoint                         checkpoint every shard replica\n\
\x20 shutdown                           drain the router (shards keep serving)\n\
\x20 quit                               end this session";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_routes_by_last_bound() {
        let map = ShardMap::new(vec![0, 10, 10, 20]).expect("valid");
        assert_eq!(map.owner(0), 0);
        assert_eq!(map.owner(9), 0);
        // Duplicate starts: the later shard wins, the earlier owns nothing.
        assert_eq!(map.owner(10), 2);
        assert_eq!(map.owner(19), 2);
        assert_eq!(map.owner(20), 3);
        assert_eq!(map.owner(u64::MAX), 3);
    }

    #[test]
    fn shard_map_rejects_bad_bounds() {
        assert!(ShardMap::new(vec![]).is_err());
        assert!(ShardMap::new(vec![1]).is_err());
        assert!(ShardMap::new(vec![0, 5, 3]).is_err());
    }
}
