//! Fleet-vs-monolith equivalence: a [`ShardRouter`] over in-process
//! [`NedServer`] shards must answer **bit-identically** to one
//! single-process index holding every entry — statically, under write
//! churn, under tracked-graph delta batches, and across a shard replica
//! dying and being recovered from its durable files. This is the pinned
//! acceptance property of the scatter-gather layer.

use ned_core::{Request, Response};
use ned_graph::{generators, Graph, GraphDelta};
use ned_index::durable::{DurableIndex, DurableOptions};
use ned_index::maintain::GraphMaintainer;
use ned_index::router::{RouterOptions, ShardRouter};
use ned_index::signatures::SignatureIndex;
use ned_index::{fleet, ConcurrentNedIndex, NedServer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
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

/// `(id, distance-bits)` pairs — exact comparison, no float tolerance.
fn key(hits: &[ned_core::WireHit]) -> Vec<(u64, u64)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

fn wire_key(resp: Response) -> Vec<(u64, u64)> {
    match resp {
        Response::Hits { hits, .. } => hits.iter().map(|h| (h.id, h.distance.to_bits())).collect(),
        other => panic!("expected hits, got {other:?}"),
    }
}

/// One in-process shard: a [`NedServer`] on an OS-assigned loopback port.
struct ShardHandle {
    server: Arc<NedServer>,
    addr: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ShardHandle {
    fn spawn(server: NedServer, listener: TcpListener) -> ShardHandle {
        let server = Arc::new(server);
        let addr = listener.local_addr().expect("bound").to_string();
        let for_thread = Arc::clone(&server);
        let thread = std::thread::spawn(move || {
            let _ = for_thread.serve_tcp(listener);
        });
        ShardHandle {
            server,
            addr,
            thread: Some(thread),
        }
    }

    fn spawn_ephemeral(index: SignatureIndex) -> ShardHandle {
        Self::spawn(
            NedServer::new(index, 1, 1),
            TcpListener::bind("127.0.0.1:0").expect("bind"),
        )
    }

    fn spawn_durable(index_path: &Path, wal_path: &Path, listener: TcpListener) -> ShardHandle {
        let (durable, _report) =
            DurableIndex::recover(index_path, wal_path, DurableOptions::default())
                .expect("recover shard");
        Self::spawn(NedServer::with_durability(durable, 1, 1), listener)
    }

    /// Clean shutdown (drain + final checkpoint when durable) — the
    /// "replica went away" event from the router's point of view.
    fn shutdown(mut self) {
        self.server.initiate_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.server.initiate_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
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

/// Splits `index` across `shards` ephemeral in-process servers and
/// connects a router to them (one replica per shard).
fn stand_up_fleet(
    index: &SignatureIndex,
    shards: usize,
    k: usize,
) -> (Vec<ShardHandle>, ShardRouter) {
    let (map, parts) = fleet::split_index(index, shards);
    let handles: Vec<ShardHandle> = parts
        .into_iter()
        .map(ShardHandle::spawn_ephemeral)
        .collect();
    let replicas: Vec<Vec<String>> = handles.iter().map(|h| vec![h.addr.clone()]).collect();
    let router = ShardRouter::connect(map, replicas, fast_options(k, index.next_id()))
        .expect("router connects");
    (handles, router)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ned-fleet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn fleet_knn_and_range_match_the_monolith() {
    let k = 3;
    let g = ba_graph(200, 42);
    let index = build_index(&g, k);
    let monolith = NedServer::new(index.clone(), 1, 1);
    let (_handles, router) = stand_up_fleet(&index, 3, k);

    for node in [0u32, 7, 63, 120, 199] {
        let shape = shape_of(&g, node, k);
        for top in [1usize, 5, 17, 400] {
            let want = wire_key(
                monolith
                    .execute(&Request::Sig {
                        shape: shape.clone(),
                        top,
                        within: None,
                    })
                    .expect("monolith sig"),
            );
            let got = router.knn(&shape, top, None).expect("fleet knn");
            assert_eq!(key(&got.hits), want, "knn node {node} top {top}");
        }
        for radius in [0u64, 2, 6, 50] {
            let want = wire_key(
                monolith
                    .execute(&Request::RangeSig {
                        shape: shape.clone(),
                        radius,
                    })
                    .expect("monolith rangesig"),
            );
            let got = router.range(&shape, radius).expect("fleet range");
            assert_eq!(key(&got.hits), want, "range node {node} r {radius}");
        }
    }

    // The fleet epoch vector has one slot per shard, and `epoch` sums
    // shard sizes back to the monolith's.
    let hits = router.knn(&shape_of(&g, 0, k), 3, None).expect("knn");
    assert_eq!(hits.epochs.len(), 3);
    let (_epoch_sum, len_sum) = router.epoch().expect("epoch scatter");
    assert_eq!(len_sum as usize, index.len());
}

#[test]
fn fleet_churn_stays_bit_identical() {
    let k = 3;
    let g = ba_graph(120, 7);
    let index = build_index(&g, k);
    let monolith = NedServer::new(index.clone(), 1, 1);
    let (_handles, router) = stand_up_fleet(&index, 3, k);
    let donor = ba_graph(90, 1234);

    let probes: Vec<String> = [3u32, 40, 88].iter().map(|&v| shape_of(&g, v, k)).collect();
    let check = |round: usize| {
        for (i, shape) in probes.iter().enumerate() {
            let want = wire_key(
                monolith
                    .execute(&Request::Sig {
                        shape: shape.clone(),
                        top: 12,
                        within: None,
                    })
                    .expect("monolith sig"),
            );
            let got = router.knn(shape, 12, None).expect("fleet knn");
            assert_eq!(key(&got.hits), want, "round {round} probe {i}");
        }
    };

    for round in 0..30usize {
        let shape = shape_of(&donor, (round % 90) as u32, k);
        match round % 4 {
            // Mirrored auto-assigning inserts: both sides assign ids
            // from the same sequence, so the streams stay aligned.
            0 | 1 => {
                let fleet_id = router.insert_shape(&shape).expect("fleet insert");
                let mono = monolith
                    .execute(&Request::AddSig {
                        shape: shape.clone(),
                    })
                    .expect("monolith addsig");
                match mono {
                    Response::Added { id } => assert_eq!(id, fleet_id, "id streams aligned"),
                    other => panic!("expected Added, got {other:?}"),
                }
            }
            // Explicit-id overwrite.
            2 => {
                let id = (round as u64 * 13) % 120;
                let (fresh, _epoch) = router.put_shape(id, &shape).expect("fleet put");
                let mono = monolith
                    .execute(&Request::PutSig {
                        id,
                        shape: shape.clone(),
                    })
                    .expect("monolith putsig");
                match mono {
                    Response::Put { fresh: mf, .. } => assert_eq!(mf, fresh, "freshness agrees"),
                    other => panic!("expected Put, got {other:?}"),
                }
            }
            // Removal (sometimes of an id that is already gone).
            _ => {
                let id = (round as u64 * 29) % 140;
                let fleet_existed = router.remove(id).expect("fleet remove");
                let mono = monolith
                    .execute(&Request::Remove { id })
                    .expect("monolith remove");
                match mono {
                    Response::Removed { existed, .. } => {
                        assert_eq!(existed, fleet_existed, "removal visibility agrees")
                    }
                    other => panic!("expected Removed, got {other:?}"),
                }
            }
        }
        check(round);
    }
}

#[test]
fn tracked_delta_batches_fan_out_and_match() {
    let k = 3;
    let g = ba_graph(100, 21);
    let index = build_index(&g, k);

    // Library-level monolith mirror: maintainer + single-writer index,
    // the exact machinery the router reuses via materialize/commit.
    let mut mono_maintainer = GraphMaintainer::attach(&g, k, 0, 1);
    let (mut mono_writer, mono_reader) = ConcurrentNedIndex::split(index.clone());

    let (_handles, router) = stand_up_fleet(&index, 3, k);
    router.track(&g).expect("router tracks");

    let batches: Vec<Vec<GraphDelta>> = vec![
        vec![GraphDelta::AddEdge(0, 99), GraphDelta::AddEdge(1, 98)],
        vec![GraphDelta::RemoveEdge(0, 99), GraphDelta::AddEdge(2, 97)],
        // Node growth: the router must assign the new nodes fleet ids in
        // the same sequence the monolith writer auto-assigns.
        vec![
            GraphDelta::AddNode,
            GraphDelta::AddEdge(100, 5),
            GraphDelta::AddNode,
            GraphDelta::AddEdge(101, 100),
        ],
        vec![GraphDelta::RemoveNode(3), GraphDelta::AddEdge(101, 7)],
        vec![GraphDelta::AddEdge(4, 96), GraphDelta::AddEdge(4, 95)],
    ];

    for (b, deltas) in batches.iter().enumerate() {
        let mono_report = mono_maintainer.apply(deltas, &mut mono_writer);
        let fleet_line = router.apply_delta(deltas).expect("fleet delta");
        assert!(
            fleet_line.starts_with(&mono_report.to_string()),
            "batch {b}: fleet report {fleet_line:?} vs monolith {mono_report}"
        );

        let current = mono_maintainer.graph().to_graph();
        let snap = mono_reader.snapshot();
        for node in [0u32, 50, 99] {
            let shape = shape_of(&current, node, k);
            let want: Vec<(u64, u64)> = snap
                .query(&ned_core::NodeSignature::extract(&current, node, k), 10, 1)
                .iter()
                .map(|h| (h.id, h.distance.to_bits()))
                .collect();
            let got = router.knn(&shape, 10, None).expect("fleet knn");
            assert_eq!(key(&got.hits), want, "batch {b} probe node {node}");
        }
    }
}

#[test]
fn replica_loss_degrades_retryably_and_recovery_preserves_acked_writes() {
    let k = 3;
    let g = ba_graph(80, 5);
    let index = build_index(&g, k);
    let monolith = NedServer::new(index.clone(), 1, 1);
    let dir = scratch_dir("recover");

    let (map, mut parts) = fleet::split_index(&index, 2);
    // Shard 0 runs TWO durable replicas (independent copies of the same
    // shard state); shard 1 a single ephemeral replica.
    let shard0 = parts.remove(0);
    let shard1 = parts.remove(0);
    let r1_idx = dir.join("s0r1.idx");
    let r1_wal = dir.join("s0r1.wal");
    let r2_idx = dir.join("s0r2.idx");
    let r2_wal = dir.join("s0r2.wal");
    shard0.save(&r1_idx).expect("save r1");
    shard0.save(&r2_idx).expect("save r2");

    let r1_listener = TcpListener::bind("127.0.0.1:0").expect("bind r1");
    let r1_addr = r1_listener.local_addr().expect("addr").to_string();
    let r1 = ShardHandle::spawn_durable(&r1_idx, &r1_wal, r1_listener);
    let r2 = ShardHandle::spawn_durable(
        &r2_idx,
        &r2_wal,
        TcpListener::bind("127.0.0.1:0").expect("bind r2"),
    );
    let s1 = ShardHandle::spawn_ephemeral(shard1);

    let router = ShardRouter::connect(
        map,
        vec![
            vec![r1.addr.clone(), r2.addr.clone()],
            vec![s1.addr.clone()],
        ],
        fast_options(k, index.next_id()),
    )
    .expect("router connects");

    // Churn while everything is healthy; mirror into the monolith. Ids
    // 0..40 are owned by shard 0 (80 entries split in two), so the
    // explicit puts below land on the replicated shard.
    let donor = ba_graph(40, 99);
    for i in 0..12u64 {
        let shape = shape_of(&donor, i as u32, k);
        if i % 3 == 2 {
            router.remove(i).expect("remove");
            monolith.execute(&Request::Remove { id: i }).expect("mono");
        } else {
            router.put_shape(i, &shape).expect("put");
            monolith
                .execute(&Request::PutSig { id: i, shape })
                .expect("mono");
        }
    }
    let probe = shape_of(&g, 10, k);
    let want = wire_key(
        monolith
            .execute(&Request::Sig {
                shape: probe.clone(),
                top: 15,
                within: None,
            })
            .expect("monolith sig"),
    );
    assert_eq!(
        key(&router.knn(&probe, 15, None).expect("healthy knn").hits),
        want
    );

    // Replica r1 goes away: reads fail over to r2 and stay identical...
    r1.shutdown();
    assert_eq!(
        key(&router.knn(&probe, 15, None).expect("failover knn").hits),
        want,
        "reads survive one replica loss"
    );
    // ...while writes to shard 0 cannot be acked on every replica — the
    // router reports *degraded*, a retryable condition, and never
    // half-acks (shard 1 writes still work).
    let blocked = router
        .put_shape(1, &shape_of(&donor, 20, k))
        .expect_err("shard 0 writes blocked");
    assert!(blocked.is_retryable(), "degraded, not failed: {blocked}");
    router
        .put_shape(60, &shape_of(&donor, 21, k))
        .expect("shard 1 unaffected");
    monolith
        .execute(&Request::PutSig {
            id: 60,
            shape: shape_of(&donor, 21, k),
        })
        .expect("mono");

    // Recovery: a replacement replica boots from r1's durable files on
    // the same address. Every write acked before the loss was journaled
    // before its ack, so nothing is missing, and shard 0 accepts writes
    // again.
    let r1_listener = retry_bind(&r1_addr);
    let _r1b = ShardHandle::spawn_durable(&r1_idx, &r1_wal, r1_listener);
    let want = wire_key(
        monolith
            .execute(&Request::Sig {
                shape: probe.clone(),
                top: 15,
                within: None,
            })
            .expect("monolith sig"),
    );
    assert_eq!(
        key(&router.knn(&probe, 15, None).expect("recovered knn").hits),
        want,
        "acked writes survive the crash/recover cycle"
    );
    let retried = shape_of(&donor, 20, k);
    router.put_shape(1, &retried).expect("write path recovered");
    monolith
        .execute(&Request::PutSig {
            id: 1,
            shape: retried,
        })
        .expect("mono");
    let want = wire_key(
        monolith
            .execute(&Request::Sig {
                shape: probe.clone(),
                top: 15,
                within: None,
            })
            .expect("monolith sig"),
    );
    assert_eq!(
        key(&router.knn(&probe, 15, None).expect("final knn").hits),
        want
    );

    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn router_server_speaks_the_same_wire_protocol() {
    use ned_index::router::RouterServer;
    use ned_index::WireClient;

    let k = 3;
    let g = ba_graph(60, 17);
    let index = build_index(&g, k);
    let monolith = NedServer::new(index.clone(), 1, 1);
    let (_handles, router) = stand_up_fleet(&index, 3, k);

    let front = Arc::new(RouterServer::new(router));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind front");
    let front_addr = listener.local_addr().expect("addr").to_string();
    let serving = Arc::clone(&front);
    let front_thread = std::thread::spawn(move || {
        let _ = serving.serve_tcp(listener);
    });

    let mut client = WireClient::connect(&front_addr).expect("connect");
    let shape = shape_of(&g, 9, k);

    // Typed round trip through the real socket.
    let resp = client
        .request(&Request::Sig {
            shape: shape.clone(),
            top: 8,
            within: None,
        })
        .expect("front sig");
    let want = wire_key(
        monolith
            .execute(&Request::Sig {
                shape: shape.clone(),
                top: 8,
                within: None,
            })
            .expect("monolith sig"),
    );
    assert_eq!(wire_key(resp), want, "front-end == monolith over the wire");

    // Text-form compatibility: the epoch probe and a write keep the
    // historical reply grammar intact for old clients.
    let reply = client.call("epoch").expect("epoch text");
    assert!(reply.starts_with("ok epoch="), "reply was {reply:?}");
    let reply = client.call(&format!("addsig {shape}")).expect("addsig");
    assert!(reply.starts_with("ok id="), "reply was {reply:?}");
    let reply = client.call("stats").expect("stats");
    assert!(reply.contains("router: 3 shard(s)"), "reply was {reply:?}");
    let reply = client.call("help").expect("help");
    assert!(reply.contains("scatter-gather"), "reply was {reply:?}");
    // Batched frames split per command, like the single server.
    let reply = client
        .call(&format!("sig {shape} 3\nepoch"))
        .expect("batch");
    let parsed = Response::parse_stream(&reply).expect("parse batch");
    assert_eq!(parsed.len(), 2, "two replies for two commands");
    let reply = client.call("save /tmp/nope.idx").expect("save");
    assert!(
        reply.starts_with("error: ") && reply.contains("no index"),
        "reply was {reply:?}"
    );
    let reply = client.call("quit").expect("quit");
    assert_eq!(reply, "ok bye");

    // Shutdown drains the front-end but leaves the shards serving.
    let mut c2 = WireClient::connect(&front_addr).expect("reconnect");
    let reply = c2.call("shutdown").expect("shutdown");
    assert!(reply.starts_with("ok draining"), "reply was {reply:?}");
    front_thread.join().expect("front drains");
    front.router().shutdown_fleet();
}
