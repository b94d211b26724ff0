//! The router's scatter: one frame written to every shard from the
//! calling thread, the replies read in turn and merged. These tests pin
//! what that path must keep: an upstream `within` answered exactly as
//! one index answers it, pooled connections that never carry a stale
//! reply into the next request, and a replica dying between queries
//! without the answers changing.

use ned_core::{Request, Response, WireHit};
use ned_graph::{generators, Graph};
use ned_index::{
    split_index, NedServer, RouterOptions, RouterServer, Service, ShardRouter, SignatureIndex,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const K: usize = 3;

fn ba_graph(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::barabasi_albert(n, 2, &mut rng)
}

fn build_index(g: &Graph) -> SignatureIndex {
    let mut index = SignatureIndex::new(K, 16, 5);
    index.insert_graph(g, &g.nodes().collect::<Vec<_>>());
    index
}

fn shape_of(g: &Graph, node: u32) -> String {
    let sig = ned_core::NodeSignature::extract(g, node, K);
    ned_tree::serialize::print(sig.tree())
}

/// `(id, distance-bits)` pairs — exact comparison, no float tolerance.
fn key(hits: &[WireHit]) -> Vec<(u64, u64)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

fn hits_of(resp: Response) -> Vec<WireHit> {
    match resp {
        Response::Hits { hits, .. } => hits,
        other => panic!("expected hits, got {other:?}"),
    }
}

/// One in-process shard replica on an OS-assigned loopback port.
struct Replica {
    server: Arc<NedServer>,
    addr: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Replica {
    fn spawn(index: SignatureIndex) -> Replica {
        let server = Arc::new(NedServer::new(index, 1, 1));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound").to_string();
        let for_thread = Arc::clone(&server);
        let thread = std::thread::spawn(move || {
            let _ = for_thread.serve_tcp(listener);
        });
        Replica {
            server,
            addr,
            thread: Some(thread),
        }
    }

    /// Drains the server and waits for its acceptor: the replica is gone
    /// and its port refuses new connections.
    fn kill(&mut self) {
        self.server.initiate_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.kill();
    }
}

fn options(next_id: u64) -> RouterOptions {
    RouterOptions {
        k: K,
        next_id,
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        retry_attempts: 2,
        read_rounds: 3,
        quorum: 0,
    }
}

/// Splits `index` into `shards` parts and serves part `i` from
/// `replicas[i]` in-process replicas behind one router.
fn fleet(index: &SignatureIndex, replicas: &[usize]) -> (Vec<Vec<Replica>>, ShardRouter) {
    let (map, parts) = split_index(index, replicas.len());
    let groups: Vec<Vec<Replica>> = parts
        .into_iter()
        .zip(replicas)
        .map(|(part, &n)| (0..n).map(|_| Replica::spawn(part.clone())).collect())
        .collect();
    let addrs = groups
        .iter()
        .map(|g| g.iter().map(|r| r.addr.clone()).collect())
        .collect();
    let router = ShardRouter::connect(map, addrs, options(index.next_id())).expect("connect");
    (groups, router)
}

#[test]
fn an_upstream_within_is_answered_like_one_index_with_a_tie_at_the_budget() {
    let g = ba_graph(240, 11);
    let index = build_index(&g);
    let monolith = NedServer::new(index.clone(), 1, 1);
    let (_replicas, router) = fleet(&index, &[1, 1, 1]);
    let owner = |id: u64| router.map().owner(id);
    let single = |shape: &str, top: usize, within: Option<u64>| {
        hits_of(
            monolith
                .execute(&Request::Sig {
                    shape: shape.to_string(),
                    top,
                    within,
                })
                .expect("single-server sig"),
        )
    };

    let mut tied_cuts = 0;
    for node in (0..240u32).step_by(7) {
        let shape = shape_of(&g, node);
        let near = single(&shape, index.len(), Some(8));
        // Every budget at which at least two hits from different shards
        // tie: cut `top` inside the tie, so the merge must keep the
        // smaller id exactly as the single index does.
        for b in 0..=8u64 {
            let below = near.iter().filter(|h| (h.distance as u64) < b).count();
            let at: Vec<u64> = near
                .iter()
                .filter(|h| h.distance as u64 == b)
                .map(|h| h.id)
                .collect();
            let tie_spans_shards = at.iter().any(|&id| owner(id) != owner(at[0]));
            if !tie_spans_shards {
                continue;
            }
            for top in [below + 1, below + at.len() - 1, below + at.len() + 3] {
                let want = single(&shape, top, Some(b));
                let got = router.knn(&shape, top, Some(b)).expect("fleet knn within");
                assert_eq!(
                    key(&got.hits),
                    key(&want),
                    "node {node} top {top} within {b}"
                );
                assert_eq!(got.hits.last().map(|h| h.distance as u64), Some(b));
            }
            tied_cuts += 1;
        }
    }
    assert!(
        tied_cuts >= 3,
        "the graph must offer ties at the budget across shards (found {tied_cuts})"
    );
}

#[test]
fn an_in_band_error_on_every_shard_leaves_the_pools_clean() {
    let g = ba_graph(180, 5);
    let index = build_index(&g);
    let (_replicas, router) = fleet(&index, &[1, 1, 1]);
    for round in 0..4 {
        let err = router
            .knn("((", 5, None)
            .expect_err("an unparsable shape fails on every shard");
        assert!(!err.is_retryable(), "round {round}: {err}");
        // Every shard's connection went back to its pool after the error
        // reply was read; the next request on it must get its own reply.
        for node in [0u32, 31, 97, 150] {
            let sig = ned_core::NodeSignature::extract(&g, node, K);
            let shape = ned_tree::serialize::print(sig.tree());
            let got = router.knn(&shape, 5, None).expect("fleet knn");
            assert_eq!(
                key(&got.hits),
                key(&index.scan(&sig, 5)),
                "round {round} node {node}"
            );
            let got = router.range(&shape, 2).expect("fleet range");
            assert_eq!(
                key(&got.hits),
                key(&index.range(&sig, 2, 1)),
                "round {round} node {node} range"
            );
        }
    }
}

#[test]
fn a_replica_killed_between_queries_leaves_the_answers_unchanged() {
    let g = ba_graph(200, 23);
    let index = build_index(&g);
    let monolith = NedServer::new(index.clone(), 1, 1);
    let (mut replicas, router) = fleet(&index, &[2, 1]);
    let server = RouterServer::new(router);
    let check = |when: &str| {
        for node in [2u32, 45, 90, 133, 199] {
            let shape = shape_of(&g, node);
            for top in [3usize, 12] {
                let want = hits_of(
                    monolith
                        .execute(&Request::Sig {
                            shape: shape.clone(),
                            top,
                            within: None,
                        })
                        .expect("monolith sig"),
                );
                let got = server.router().knn(&shape, top, None).expect("fleet knn");
                assert_eq!(key(&got.hits), key(&want), "{when}: node {node} top {top}");
            }
        }
    };
    // Both replicas of shard 0 serve (and pool connections) first.
    check("before the kill");
    let victim = replicas[0][0].addr.clone();
    replicas[0][0].kill();
    check("after the kill");
    let stats = match server.execute(&Request::Stats).expect("stats") {
        Response::Info { body } => body,
        other => panic!("stats answered {other:?}"),
    };
    assert!(
        stats.contains(&format!("{victim} (degraded")),
        "the killed replica reads degraded: {stats}"
    );
    let survivor = &replicas[0][1].addr;
    assert!(
        stats.contains(&format!("{survivor} (healthy)")),
        "the survivor stays healthy: {stats}"
    );
}
