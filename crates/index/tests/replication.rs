//! Self-healing replication, pinned end to end: a replica respawned from
//! a **stale checkpoint** streams the WAL suffix past its epoch from a
//! peer over the wire protocol, re-journals every record through its own
//! journal-before-publish path, and rejoins **bit-identical** to the
//! quorum — same epoch, same live size, same process-stable live-set
//! fingerprint. Along the way: quorum writes keep succeeding with a
//! replica down and never lose an acked write, a WAL truncated by a
//! checkpoint refuses suffix streaming loudly instead of resurrecting a
//! gap, and the [`ServerError`] retryability taxonomy drives router
//! failover exactly as each variant promises. The fork-safety trio is
//! pinned too: a fresh router seeds its fleet epoch vector from the
//! **max** across replicas and shields laggards, a write ack below the
//! acked watermark degrades the acker instead of counting toward
//! quorum, and catch-up refuses to splice over a forked WAL — while
//! `walsuffix` streams in bounded chunks so the donor never stalls.
//! The router's one heal loop is pinned last: it repairs a stale replica
//! with no traffic at all, its catch-ups still surface in the next
//! `fingerprint` report, and it ends with its router.

use ned_core::{Request, Response, ServerError};
use ned_graph::{generators, Graph};
use ned_index::durable::{DurableIndex, DurableOptions};
use ned_index::router::{RouterOptions, ShardMap, ShardRouter, HEAL_PROBE_INTERVAL};
use ned_index::server::WireClient;
use ned_index::signatures::SignatureIndex;
use ned_index::NedServer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn ba_graph(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::barabasi_albert(n, 2, &mut rng)
}

fn build_index(g: &Graph, k: usize) -> SignatureIndex {
    let mut index = SignatureIndex::new(k, 16, 5);
    index.insert_graph(g, &g.nodes().collect::<Vec<_>>());
    index
}

fn shape_of(g: &Graph, node: u32, k: usize) -> String {
    let sig = ned_core::NodeSignature::extract(g, node, k);
    ned_tree::serialize::print(sig.tree())
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ned-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn fast_options(k: usize, next_id: u64) -> RouterOptions {
    RouterOptions {
        k,
        next_id,
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        retry_attempts: 2,
        read_rounds: 3,
        quorum: 0,
    }
}

/// One in-process durable replica on an OS-assigned (or given) port.
struct ReplicaHandle {
    server: Arc<NedServer>,
    addr: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReplicaHandle {
    fn spawn(index_path: &Path, wal_path: &Path, listener: TcpListener) -> ReplicaHandle {
        Self::spawn_with(index_path, wal_path, listener, DurableOptions::default())
    }

    fn spawn_with(
        index_path: &Path,
        wal_path: &Path,
        listener: TcpListener,
        opts: DurableOptions,
    ) -> ReplicaHandle {
        let (durable, _report) =
            DurableIndex::recover(index_path, wal_path, opts).expect("recover replica");
        let server = Arc::new(NedServer::with_durability(durable, 1, 1));
        let addr = listener.local_addr().expect("bound").to_string();
        let for_thread = Arc::clone(&server);
        let thread = std::thread::spawn(move || {
            let _ = for_thread.serve_tcp(listener);
        });
        ReplicaHandle {
            server,
            addr,
            thread: Some(thread),
        }
    }

    fn shutdown(mut self) {
        self.server.initiate_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.server.initiate_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr`, retrying briefly — the previous listener's close may
/// still be settling when the replacement replica boots.
fn retry_bind(addr: &str) -> TcpListener {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(e) if std::time::Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("rebind {addr}: {e}"),
        }
    }
}

fn fingerprint_of(addr: &str) -> (u64, u64, u64) {
    let mut client = WireClient::connect(addr).expect("dial");
    match client.request(&Request::Fingerprint).expect("fingerprint") {
        Response::Fingerprint { epoch, len, hash } => (epoch, len, hash),
        other => panic!("expected fingerprint, got {other:?}"),
    }
}

/// The tentpole pin: three durable replicas of one shard; one is lost
/// mid-churn while quorum writes keep landing, then respawned from a
/// **stale** checkpoint (its WAL gone — the older-checkpoint crash
/// shape), streams the missing WAL suffix from a peer, and rejoins with
/// the exact fingerprint the quorum carries. No acked write is lost at
/// any point.
#[test]
fn stale_respawn_streams_wal_suffix_and_rejoins_bit_identical() {
    let k = 3;
    let g = ba_graph(40, 17);
    let index = build_index(&g, k);
    let dir = scratch_dir("rejoin");

    // Three independent durable copies of the same shard state, plus a
    // pristine copy of r3's checkpoint to respawn stale from.
    let paths: Vec<(PathBuf, PathBuf)> = (1..=3)
        .map(|r| (dir.join(format!("r{r}.idx")), dir.join(format!("r{r}.wal"))))
        .collect();
    for (idx_path, _) in &paths {
        index.save(idx_path).expect("save checkpoint");
    }
    let stale_checkpoint = dir.join("r3.stale.idx");
    std::fs::copy(&paths[2].0, &stale_checkpoint).expect("stash stale checkpoint");

    let mut replicas: Vec<ReplicaHandle> = paths
        .iter()
        .map(|(idx_path, wal_path)| {
            ReplicaHandle::spawn(
                idx_path,
                wal_path,
                TcpListener::bind("127.0.0.1:0").expect("bind"),
            )
        })
        .collect();
    let addrs: Vec<String> = replicas.iter().map(|r| r.addr.clone()).collect();
    let map = ShardMap::new(vec![0]).expect("single shard");
    let router = ShardRouter::connect(map, vec![addrs.clone()], fast_options(k, index.next_id()))
        .expect("router connects");

    // Phase 1: healthy churn — every replica applies and journals.
    let donor = ba_graph(30, 99);
    for i in 0..10u64 {
        router
            .put_shape(i, &shape_of(&donor, i as u32, k))
            .expect("healthy put");
    }

    // Replica 3 is lost. Its durable files are then rewound to the
    // pristine pre-churn checkpoint with no WAL — the "respawned from an
    // older checkpoint" crash shape (a same-files respawn would replay
    // its own WAL and recover fully, never exercising peer streaming).
    let r3 = replicas.pop().expect("three replicas");
    let r3_addr = r3.addr.clone();
    r3.shutdown();
    std::fs::copy(&stale_checkpoint, &paths[2].0).expect("rewind checkpoint");
    std::fs::remove_file(&paths[2].1).expect("drop r3 wal");

    // Phase 2: writes keep succeeding under quorum (2 of 3) — the first
    // one marks the dead replica degraded and acks on the survivors.
    for i in 10..16u64 {
        router
            .put_shape(i, &shape_of(&donor, i as u32, k))
            .expect("quorum put with a replica down");
    }

    // Respawn stale on the same address: epoch 0 against a fleet at 16.
    let r3 = ReplicaHandle::spawn(&paths[2].0, &paths[2].1, retry_bind(&r3_addr));
    let (stale_epoch, _, _) = fingerprint_of(&r3.addr);
    assert_eq!(stale_epoch, 0, "respawned replica is stale");
    let (peer_epoch, _, _) = fingerprint_of(&addrs[0]);
    assert_eq!(peer_epoch, 16, "peers carry every acked write");

    // Protocol-level catch-up: the stale replica streams the WAL suffix
    // past its epoch from a peer and reports the exact epoch span.
    let mut client = WireClient::connect(&r3.addr).expect("dial stale replica");
    let msg = match client
        .request(&Request::CatchUp {
            peer: addrs[0].clone(),
        })
        .expect("catch-up succeeds")
    {
        Response::Ok { msg } => msg,
        other => panic!("expected ok, got {other:?}"),
    };
    assert!(
        msg.contains("caught up 16 record(s)") && msg.contains("epoch 0 -> 16"),
        "suffix stream covered the whole gap: {msg}"
    );

    // Bit-identical rejoin: all three replicas agree on (epoch, len,
    // fingerprint) exactly.
    let prints: Vec<(u64, u64, u64)> = addrs.iter().map(|a| fingerprint_of(a)).collect();
    assert_eq!(prints[0], prints[1], "surviving quorum agrees");
    assert_eq!(prints[0], prints[2], "rejoined replica is bit-identical");

    // And the router-facing invariant: nothing acked was lost — a
    // direct read of every written id finds it on the fleet.
    for i in 0..16u64 {
        let hits = router
            .knn(&shape_of(&donor, i as u32, k), 1, None)
            .expect("post-rejoin knn");
        assert_eq!(hits.hits.len(), 1, "id-space non-empty");
    }
    // A healed fleet keeps taking quorum writes on all replicas.
    router
        .put_shape(20, &shape_of(&donor, 20, k))
        .expect("post-rejoin put");

    drop(r3);
    drop(replicas);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The router's own anti-entropy pass detects the stale replica, drives
/// the catch-up itself, and reports the lifecycle — no manual protocol
/// poking required.
#[test]
fn router_probe_health_heals_a_stale_replica() {
    let k = 3;
    let g = ba_graph(30, 23);
    let index = build_index(&g, k);
    let dir = scratch_dir("probe");

    let paths: Vec<(PathBuf, PathBuf)> = (1..=2)
        .map(|r| (dir.join(format!("r{r}.idx")), dir.join(format!("r{r}.wal"))))
        .collect();
    for (idx_path, _) in &paths {
        index.save(idx_path).expect("save checkpoint");
    }
    let stale_checkpoint = dir.join("r2.stale.idx");
    std::fs::copy(&paths[1].0, &stale_checkpoint).expect("stash stale checkpoint");

    let r1 = ReplicaHandle::spawn(
        &paths[0].0,
        &paths[0].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );
    let r2 = ReplicaHandle::spawn(
        &paths[1].0,
        &paths[1].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );
    let (r1_addr, r2_addr) = (r1.addr.clone(), r2.addr.clone());
    let router = ShardRouter::connect(
        ShardMap::new(vec![0]).expect("single shard"),
        vec![vec![r1_addr.clone(), r2_addr.clone()]],
        // Explicit quorum 1 of 2: writes keep landing while r2 is down,
        // exactly the configuration that leaves r2 for the heal loop to
        // catch up later.
        RouterOptions {
            quorum: 1,
            ..fast_options(k, index.next_id())
        },
    )
    .expect("router connects");

    let donor = ba_graph(20, 7);
    for i in 0..5u64 {
        router
            .put_shape(i, &shape_of(&donor, i as u32, k))
            .expect("healthy put");
    }
    r2.shutdown();
    for i in 5..9u64 {
        router
            .put_shape(i, &shape_of(&donor, i as u32, k))
            .expect("quorum-1 put");
    }
    std::fs::copy(&stale_checkpoint, &paths[1].0).expect("rewind checkpoint");
    std::fs::remove_file(&paths[1].1).expect("drop r2 wal");
    let _r2 = ReplicaHandle::spawn(&paths[1].0, &paths[1].1, retry_bind(&r2_addr));

    // One anti-entropy pass: the stale replica is detected (epoch 0 vs
    // acked 9), caught up from its healthy peer, and reported rejoined.
    let report = router.probe_health().expect("probe passes");
    assert!(
        report.contains("rejoined after catch-up"),
        "probe drove the heal: {report}"
    );
    let next = router.probe_health().expect("second probe");
    assert!(
        next.lines().all(|l| l.contains("healthy")),
        "fleet settled healthy: {next}"
    );
    assert_eq!(
        fingerprint_of(&r1_addr),
        fingerprint_of(&r2_addr),
        "replicas agree bit-for-bit after the heal"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL reset by a checkpoint cannot serve the suffix below its base:
/// the replica must refuse **loudly and non-retryably** (the caller
/// needs a snapshot resync), never fabricate the gap.
#[test]
fn wal_suffix_below_the_checkpoint_base_is_refused() {
    let k = 3;
    let g = ba_graph(20, 31);
    let index = build_index(&g, k);
    let dir = scratch_dir("truncated");
    let idx_path = dir.join("r.idx");
    let wal_path = dir.join("r.wal");
    index.save(&idx_path).expect("save checkpoint");
    let replica = ReplicaHandle::spawn(
        &idx_path,
        &wal_path,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );

    let donor = ba_graph(10, 3);
    let mut client = WireClient::connect(&replica.addr).expect("dial");
    for i in 0..4u64 {
        client
            .request(&Request::PutSig {
                id: i,
                shape: shape_of(&donor, i as u32, k),
            })
            .expect("put");
    }
    // Forcing a checkpoint resets the WAL base to epoch 4 — epochs 1..4
    // now live only in the snapshot.
    client.request(&Request::Checkpoint).expect("checkpoint");
    client
        .request(&Request::PutSig {
            id: 9,
            shape: shape_of(&donor, 9, k),
        })
        .expect("post-checkpoint put");

    // Suffixes from the base onward stream fine...
    match client
        .request(&Request::WalSuffix { from_epoch: 4 })
        .expect("suffix at base")
    {
        Response::WalChunk {
            base,
            epoch,
            records,
        } => {
            assert_eq!(base, 4);
            assert_eq!(epoch, 5);
            assert_eq!(records.len(), 1, "one record past epoch 4");
        }
        other => panic!("expected walchunk, got {other:?}"),
    }
    // ...but a request below the base is a non-retryable refusal naming
    // the truncation, not an empty or partial stream.
    let err = match client
        .request(&Request::WalSuffix { from_epoch: 1 })
        .expect("reply parses")
    {
        Response::Error(err) => err,
        other => panic!("expected a refusal, got {other:?}"),
    };
    assert!(!err.is_retryable(), "needs a snapshot resync: {err}");
    assert!(
        err.to_string().contains("wal suffix unavailable"),
        "names the truncation: {err}"
    );

    drop(replica);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh router (a restart, or a second coordinator attaching to the
/// same fleet) starts with no health memory — so the fleet epoch vector
/// must seed from the **max** epoch across each shard's replicas, and
/// anything lagging it must start degraded. Otherwise the first write
/// would land on the laggard at its own lower epoch, forking its
/// history and burning epochs whose acked content a later catch-up
/// could never reproduce.
#[test]
fn fresh_router_seeds_from_the_max_epoch_and_shields_the_laggard() {
    let k = 3;
    let g = ba_graph(30, 53);
    let index = build_index(&g, k);
    let dir = scratch_dir("reseed");
    let paths: Vec<(PathBuf, PathBuf)> = (1..=2)
        .map(|r| (dir.join(format!("r{r}.idx")), dir.join(format!("r{r}.wal"))))
        .collect();
    for (idx_path, _) in &paths {
        index.save(idx_path).expect("save checkpoint");
    }
    let r1 = ReplicaHandle::spawn(
        &paths[0].0,
        &paths[0].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );
    let r2 = ReplicaHandle::spawn(
        &paths[1].0,
        &paths[1].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );

    // r1 takes writes the old coordinator acked; r2 misses all of them —
    // the routine steady state quorum writes leave behind.
    let donor = ba_graph(20, 11);
    let mut direct = WireClient::connect(&r1.addr).expect("dial r1");
    for i in 0..6u64 {
        direct
            .request(&Request::PutSig {
                id: i,
                shape: shape_of(&donor, i as u32, k),
            })
            .expect("direct put");
    }
    assert_eq!(fingerprint_of(&r1.addr).0, 6);
    assert_eq!(fingerprint_of(&r2.addr).0, 0);

    let router = ShardRouter::connect(
        ShardMap::new(vec![0]).expect("map"),
        vec![vec![r1.addr.clone(), r2.addr.clone()]],
        RouterOptions {
            quorum: 1,
            ..fast_options(k, index.next_id())
        },
    )
    .expect("router connects");
    assert_eq!(
        router.acked_epochs(),
        vec![6],
        "seeded from the max across replicas, not whichever answered first"
    );
    assert!(
        router.stats_line().contains("degraded"),
        "the laggard starts degraded, shielded from direct writes: {}",
        router.stats_line()
    );

    // The next quorum write lands on the up-to-date replica; the
    // laggard converges through WAL streaming, run by the router's heal
    // loop (its background pass, or `probe_health` below running the
    // same pass inline), never through a forked direct write.
    router
        .put_shape(6, &shape_of(&donor, 6, k))
        .expect("quorum-1 put through the fresh router");
    assert_eq!(router.acked_epochs(), vec![7]);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let _ = router.probe_health();
        if fingerprint_of(&r1.addr) == fingerprint_of(&r2.addr) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "laggard failed to heal: r1 {:?} vs r2 {:?}",
            fingerprint_of(&r1.addr),
            fingerprint_of(&r2.addr)
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        fingerprint_of(&r2.addr).0,
        7,
        "laggard replayed every acked write"
    );
    // Nothing acked was lost anywhere along the way.
    for i in 0..7u64 {
        let hits = router
            .knn(&shape_of(&donor, i as u32, k), 1, None)
            .expect("post-heal knn");
        assert_eq!(hits.hits.len(), 1);
    }

    drop((r1, r2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stub that advertises a high epoch to probes but acks writes at a
/// much lower one — the wire shape of a replica whose history forked
/// (it applied the write on top of a stale state).
fn spawn_stale_ack_stub() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            std::thread::spawn(move || {
                use ned_core::wire;
                while let Ok(Some(payload)) = wire::read_frame(&mut stream) {
                    let text = String::from_utf8_lossy(&payload);
                    let reply = text
                        .lines()
                        .map(|line| {
                            if line.trim() == "epoch" {
                                Response::Epoch { epoch: 100, len: 0 }.to_string()
                            } else {
                                Response::Put {
                                    id: 0,
                                    fresh: false,
                                    epoch: 3,
                                }
                                .to_string()
                            }
                        })
                        .collect::<Vec<_>>()
                        .join("\n");
                    if wire::write_text_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A write ack whose epoch is *below* the shard's acked watermark is
/// proof of staleness (a forked history), not of replication: the
/// router must degrade that replica and keep its ack out of the quorum
/// count — folding the low epoch into the watermark would let the
/// forked replica pass the read gate while missing acked writes.
#[test]
fn write_acks_below_the_acked_watermark_are_rejected_as_stale() {
    let stub = spawn_stale_ack_stub();
    let router = ShardRouter::connect(
        ShardMap::new(vec![0]).expect("map"),
        vec![vec![stub]],
        RouterOptions {
            quorum: 1,
            ..fast_options(3, 0)
        },
    )
    .expect("router connects");
    assert_eq!(router.acked_epochs(), vec![100], "seeded from the probe");

    let err = router
        .put_shape(0, "(()())")
        .expect_err("an ack at epoch 3 against a watermark of 100 must not count");
    assert!(err.is_retryable(), "quorum loss stays retryable: {err}");
    assert_eq!(
        router.acked_epochs(),
        vec![100],
        "the low ack never folded into the watermark"
    );
    assert!(
        router.stats_line().contains("degraded"),
        "the stale acker was degraded: {}",
        router.stats_line()
    );
}

/// Catch-up verifies the splice point: when the stale replica's own WAL
/// record at its head epoch differs byte-for-byte from the peer's
/// record at the same epoch, the histories forked — streaming must be
/// refused loudly (`Corrupt`, non-retryable) instead of silently
/// splicing the peer's suffix over acked-but-divergent local writes.
#[test]
fn catch_up_refuses_a_forked_wal_instead_of_splicing() {
    let k = 3;
    let g = ba_graph(25, 61);
    let index = build_index(&g, k);
    let dir = scratch_dir("fork");
    let paths: Vec<(PathBuf, PathBuf)> = (1..=2)
        .map(|r| (dir.join(format!("r{r}.idx")), dir.join(format!("r{r}.wal"))))
        .collect();
    for (idx_path, _) in &paths {
        index.save(idx_path).expect("save checkpoint");
    }
    let r1 = ReplicaHandle::spawn(
        &paths[0].0,
        &paths[0].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );
    let r2 = ReplicaHandle::spawn(
        &paths[1].0,
        &paths[1].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );

    // Epoch 1 takes *different* writes on the two replicas — same
    // shape, different id, so the journaled records differ
    // byte-for-byte: the split-brain shape a stale health view produces.
    let donor = ba_graph(15, 5);
    let shape = shape_of(&donor, 0, k);
    let mut c1 = WireClient::connect(&r1.addr).expect("dial r1");
    c1.request(&Request::PutSig {
        id: 0,
        shape: shape.clone(),
    })
    .expect("r1 epoch 1");
    c1.request(&Request::PutSig {
        id: 1,
        shape: shape.clone(),
    })
    .expect("r1 epoch 2");
    let mut c2 = WireClient::connect(&r2.addr).expect("dial r2");
    c2.request(&Request::PutSig { id: 5, shape })
        .expect("r2 epoch 1, forked");

    let err = match c2
        .request(&Request::CatchUp {
            peer: r1.addr.clone(),
        })
        .expect("reply parses")
    {
        Response::Error(err) => err,
        other => panic!("a forked catch-up must be refused, got {other:?}"),
    };
    assert!(!err.is_retryable(), "fork needs a snapshot resync: {err}");
    assert!(err.to_string().contains("forked"), "names the fork: {err}");
    assert_eq!(
        fingerprint_of(&r2.addr).0,
        1,
        "the forked replica's state was not touched"
    );

    drop((r1, r2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `walsuffix` reply is a bounded chunk, not the whole suffix — the
/// donor never stalls its writers for an unbounded read — and the
/// catch-up loop re-requests from its advancing epoch until level, so a
/// gap longer than one chunk still heals to bit-identity.
#[test]
fn catch_up_streams_a_long_suffix_in_bounded_chunks() {
    use ned_index::server::WAL_CHUNK_MAX_RECORDS;
    let k = 3;
    let g = ba_graph(20, 71);
    let index = build_index(&g, k);
    let dir = scratch_dir("chunks");
    let paths: Vec<(PathBuf, PathBuf)> = (1..=2)
        .map(|r| (dir.join(format!("r{r}.idx")), dir.join(format!("r{r}.wal"))))
        .collect();
    for (idx_path, _) in &paths {
        index.save(idx_path).expect("save checkpoint");
    }
    // Checkpointing off: the whole history must stay in the WAL so the
    // suffix from epoch 0 is streamable at all.
    let no_checkpoint = DurableOptions {
        checkpoint_every: 0,
        ..DurableOptions::default()
    };
    let r1 = ReplicaHandle::spawn_with(
        &paths[0].0,
        &paths[0].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
        no_checkpoint,
    );
    let r2 = ReplicaHandle::spawn_with(
        &paths[1].0,
        &paths[1].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
        no_checkpoint,
    );

    let total = WAL_CHUNK_MAX_RECORDS + 40;
    let donor = ba_graph(12, 9);
    let shape = shape_of(&donor, 2, k);
    let mut client = WireClient::connect(&r1.addr).expect("dial donor");
    for ids in (0..total as u64).collect::<Vec<_>>().chunks(32) {
        let reqs: Vec<Request> = ids
            .iter()
            .map(|id| Request::PutSig {
                id: *id,
                shape: shape.clone(),
            })
            .collect();
        client.request_batch(&reqs).expect("batched puts");
    }

    // A single suffix request answers exactly one full chunk...
    match client
        .request(&Request::WalSuffix { from_epoch: 0 })
        .expect("suffix")
    {
        Response::WalChunk { records, epoch, .. } => {
            assert_eq!(records.len(), WAL_CHUNK_MAX_RECORDS, "chunk is capped");
            assert_eq!(epoch as usize, total, "donor reports its true head");
        }
        other => panic!("expected walchunk, got {other:?}"),
    }

    // ...and the catch-up loop walks every chunk to bit-identity.
    let mut stale = WireClient::connect(&r2.addr).expect("dial stale");
    let msg = match stale
        .request(&Request::CatchUp {
            peer: r1.addr.clone(),
        })
        .expect("catch-up succeeds")
    {
        Response::Ok { msg } => msg,
        other => panic!("expected ok, got {other:?}"),
    };
    assert!(
        msg.contains(&format!("caught up {total} record(s)")),
        "every chunk was walked: {msg}"
    );
    assert_eq!(fingerprint_of(&r1.addr), fingerprint_of(&r2.addr));

    drop((r1, r2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stub replica speaking raw NEDWIRE1: answers `epoch` probes with a
/// healthy reply and everything else with one configured error — the
/// injection point for pinning error-taxonomy × failover behavior.
fn spawn_error_stub(err: ServerError) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let err = err.clone();
            std::thread::spawn(move || {
                use ned_core::wire;
                while let Ok(Some(payload)) = wire::read_frame(&mut stream) {
                    let text = String::from_utf8_lossy(&payload);
                    let reply = if text.trim() == "epoch" {
                        Response::Epoch { epoch: 0, len: 0 }.to_string()
                    } else {
                        Response::Error(err.clone()).to_string()
                    };
                    if wire::write_text_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// The full [`ServerError`] taxonomy × router failover, table-driven:
/// every retryable variant (catch-up-in-progress included) fails over to
/// the healthy replica of the same shard; every non-retryable variant
/// surfaces immediately, unchanged, because retrying cannot fix it.
#[test]
fn error_taxonomy_drives_failover_table() {
    let k = 3;
    let g = ba_graph(25, 41);
    let index = build_index(&g, k);
    let probe = shape_of(&g, 3, k);

    let table: &[(ServerError, bool)] = &[
        (ServerError::BadRequest("bad shape".into()), false),
        (ServerError::Corrupt("bit rot".into()), false),
        (ServerError::Overloaded("busy".into()), true),
        (ServerError::ShuttingDown("draining".into()), true),
        (ServerError::Io("pipe burst".into()), true),
        (
            ServerError::CatchingUp("replaying a peer's WAL suffix".into()),
            true,
        ),
    ];

    for (err, retryable) in table {
        assert_eq!(err.is_retryable(), *retryable, "taxonomy pin for {err:?}");

        // Two replicas, one poisoned: retryable errors must fail over to
        // the healthy peer and answer; non-retryable ones depend on
        // rotation order, so they are pinned on the single-replica shard
        // below instead.
        if *retryable {
            let healthy = {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = listener.local_addr().expect("addr").to_string();
                let server = Arc::new(NedServer::new(index.clone(), 1, 1));
                let for_thread = Arc::clone(&server);
                std::thread::spawn(move || {
                    let _ = for_thread.serve_tcp(listener);
                });
                (server, addr)
            };
            let stub_addr = spawn_error_stub(err.clone());
            let router = ShardRouter::connect(
                ShardMap::new(vec![0]).expect("map"),
                vec![vec![stub_addr, healthy.1.clone()]],
                fast_options(k, index.next_id()),
            )
            .expect("router connects");
            let hits = router
                .knn(&probe, 5, None)
                .unwrap_or_else(|e| panic!("{err:?} must fail over, got {e}"));
            assert_eq!(hits.hits.len(), 5, "healthy replica answered");
            healthy.0.initiate_shutdown();
        }

        // Single poisoned replica: the error's retryability decides the
        // shape of the failure — retryable variants exhaust the rounds
        // into a retryable degraded-shard report, non-retryable ones
        // surface as-is on the first try.
        let stub_addr = spawn_error_stub(err.clone());
        let router = ShardRouter::connect(
            ShardMap::new(vec![0]).expect("map"),
            vec![vec![stub_addr]],
            fast_options(k, index.next_id()),
        )
        .expect("router connects");
        let got = router.knn(&probe, 5, None).expect_err("poisoned shard");
        assert_eq!(
            got.is_retryable(),
            *retryable,
            "failure shape follows the taxonomy: {err:?} -> {got:?}"
        );
        if !*retryable {
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(err),
                "non-retryable errors surface unchanged"
            );
        }
    }
}

/// Two durable replicas of one shard behind a quorum-1 router. The
/// second misses four acked writes while it is down and is then
/// respawned from its pre-churn checkpoint with its WAL deleted, so it
/// answers at epoch 0 against an acked epoch of 9 — and nothing but the
/// router's heal loop can bring it level.
struct StalePair {
    dir: PathBuf,
    healthy: ReplicaHandle,
    stale: ReplicaHandle,
    router: ShardRouter,
}

fn stale_pair(name: &str) -> StalePair {
    let k = 3;
    let g = ba_graph(30, 29);
    let index = build_index(&g, k);
    let dir = scratch_dir(name);
    let paths: Vec<(PathBuf, PathBuf)> = (1..=2)
        .map(|r| (dir.join(format!("r{r}.idx")), dir.join(format!("r{r}.wal"))))
        .collect();
    for (idx_path, _) in &paths {
        index.save(idx_path).expect("save checkpoint");
    }
    let stale_checkpoint = dir.join("r2.stale.idx");
    std::fs::copy(&paths[1].0, &stale_checkpoint).expect("stash stale checkpoint");
    let healthy = ReplicaHandle::spawn(
        &paths[0].0,
        &paths[0].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );
    let doomed = ReplicaHandle::spawn(
        &paths[1].0,
        &paths[1].1,
        TcpListener::bind("127.0.0.1:0").expect("bind"),
    );
    let stale_addr = doomed.addr.clone();
    let router = ShardRouter::connect(
        ShardMap::new(vec![0]).expect("single shard"),
        vec![vec![healthy.addr.clone(), stale_addr.clone()]],
        RouterOptions {
            quorum: 1,
            ..fast_options(k, index.next_id())
        },
    )
    .expect("router connects");
    let donor = ba_graph(20, 13);
    for i in 0..5u64 {
        router
            .put_shape(i, &shape_of(&donor, i as u32, k))
            .expect("healthy put");
    }
    doomed.shutdown();
    for i in 5..9u64 {
        router
            .put_shape(i, &shape_of(&donor, i as u32, k))
            .expect("quorum-1 put");
    }
    std::fs::copy(&stale_checkpoint, &paths[1].0).expect("rewind checkpoint");
    std::fs::remove_file(&paths[1].1).expect("drop the wal");
    let stale = ReplicaHandle::spawn(&paths[1].0, &paths[1].1, retry_bind(&stale_addr));
    StalePair {
        dir,
        healthy,
        stale,
        router,
    }
}

/// Polls `done` every 50 ms for up to four heal intervals.
fn within_a_few_heal_intervals(mut done: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + 4 * HEAL_PROBE_INTERVAL;
    while std::time::Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    done()
}

/// The heal loop needs no traffic: with no client request and no
/// `fingerprint` through the router, a stale respawn still streams the
/// WAL suffix from its peer and comes back bit-identical.
#[test]
fn an_idle_fleet_heals_a_stale_replica_on_its_own() {
    let pair = stale_pair("idle");
    assert_eq!(fingerprint_of(&pair.stale.addr).0, 0, "respawned stale");
    assert!(
        within_a_few_heal_intervals(|| {
            fingerprint_of(&pair.healthy.addr) == fingerprint_of(&pair.stale.addr)
        }),
        "idle fleet never healed: {:?} vs {:?}",
        fingerprint_of(&pair.healthy.addr),
        fingerprint_of(&pair.stale.addr)
    );
    assert_eq!(fingerprint_of(&pair.stale.addr).0, 9, "every acked write");
    let _ = std::fs::remove_dir_all(&pair.dir);
}

/// A catch-up the loop ran before the operator asked is still reported:
/// the next `fingerprint` pass says `rejoined after catch-up` once, then
/// the replica reads as plain healthy.
#[test]
fn a_loop_catch_up_is_reported_by_the_next_probe() {
    let pair = stale_pair("report");
    assert!(
        within_a_few_heal_intervals(|| {
            let stats = pair.router.stats_line();
            !stats.contains("degraded") && !stats.contains("catching-up")
        }),
        "the loop never healed the stale replica: {}",
        pair.router.stats_line()
    );
    let report = pair.router.probe_health().expect("probe passes");
    assert!(
        report.contains("rejoined after catch-up"),
        "the loop's catch-up was reported: {report}"
    );
    let next = pair.router.probe_health().expect("second probe");
    assert!(
        next.lines().all(|l| l.contains("healthy")),
        "reported once, then healthy: {next}"
    );
    let _ = std::fs::remove_dir_all(&pair.dir);
}

/// A stub replica that answers `epoch` probes at `epoch`, counting them,
/// and refuses everything else (`catchup` included), so a lagging stub
/// stays degraded and draws one probe per heal pass.
fn spawn_counting_stub(epoch: u64) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("addr").to_string();
    let probes = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&probes);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                use ned_core::wire;
                while let Ok(Some(payload)) = wire::read_frame(&mut stream) {
                    let text = String::from_utf8_lossy(&payload);
                    let reply = text
                        .lines()
                        .map(|line| {
                            if line.trim() == "epoch" {
                                counter.fetch_add(1, Ordering::SeqCst);
                                Response::Epoch { epoch, len: 0 }.to_string()
                            } else {
                                Response::Error(ServerError::Overloaded("stub".into())).to_string()
                            }
                        })
                        .collect::<Vec<_>>()
                        .join("\n");
                    if wire::write_text_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, probes)
}

/// The heal thread ends with its router: once the router is dropped, a
/// laggard that drew a probe every pass sees no more after one interval.
#[test]
fn a_dropped_router_stops_probing() {
    let (peer, _) = spawn_counting_stub(5);
    let (laggard, probes) = spawn_counting_stub(0);
    let router = ShardRouter::connect(
        ShardMap::new(vec![0]).expect("map"),
        vec![vec![peer, laggard]],
        fast_options(3, 0),
    )
    .expect("router connects");
    assert!(
        within_a_few_heal_intervals(|| probes.load(Ordering::SeqCst) >= 2),
        "the loop never probed the laggard"
    );
    drop(router);
    std::thread::sleep(HEAL_PROBE_INTERVAL + Duration::from_millis(500));
    let settled = probes.load(Ordering::SeqCst);
    std::thread::sleep(HEAL_PROBE_INTERVAL + Duration::from_millis(500));
    assert_eq!(
        probes.load(Ordering::SeqCst),
        settled,
        "a dropped router kept probing"
    );
}
