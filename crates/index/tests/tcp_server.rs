//! Loopback round-trip tests for the framed TCP serving layer: command
//! dispatch over a real socket, the batch protocol, concurrent clients,
//! and — just as important — the malformed-frame error paths (garbage
//! bodies, corrupted checksums, hostile length prefixes all get an
//! `error:` reply and a closed connection, never a hang or a panic).
//!
//! The front-end tests (admission cap, idle timeout, malformed frames,
//! panic isolation, drain) run once per [`Svc`]: against a shard
//! directly, and against a one-shard [`RouterServer`] in front of it.

use ned_core::{wire, NodeSignature};
use ned_graph::generators;
use ned_index::{
    front, NedServer, RouterOptions, RouterServer, ServerConfig, Service, ShardMap, ShardRouter,
    SignatureIndex, WireClient,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Starts a server over a fresh BA-graph index on an ephemeral loopback
/// port; returns the address (the listener thread dies with the test
/// process).
fn start_server() -> (SocketAddr, Arc<NedServer>) {
    let (addr, server, _) = start_server_with(ServerConfig::default());
    (addr, server)
}

/// [`start_server`] with explicit serving limits, also returning the
/// acceptor thread's handle so shutdown tests can join it.
fn start_server_with(
    config: ServerConfig,
) -> (SocketAddr, Arc<NedServer>, JoinHandle<std::io::Result<()>>) {
    let mut rng = SmallRng::seed_from_u64(77);
    let g = generators::barabasi_albert(120, 2, &mut rng);
    let nodes: Vec<u32> = g.nodes().collect();
    let mut index = SignatureIndex::new(2, 32, 1);
    index.insert_graph(&g, &nodes);
    serve(NedServer::new(index, 1, 2).with_config(config))
}

/// Serves `service` on an ephemeral loopback port.
fn serve<S: Service>(service: S) -> (SocketAddr, Arc<S>, JoinHandle<std::io::Result<()>>) {
    let service = Arc::new(service);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || front::serve_tcp(&service, listener))
    };
    (addr, service, handle)
}

/// Which service a front-end test talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Svc {
    Shard,
    Router,
}

/// A service under test: its address and acceptor thread, the service
/// itself, and the shard holding the index (served directly, or behind
/// the router).
struct Served {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
    service: Arc<dyn Service>,
    shard: Arc<NedServer>,
}

/// Starts `svc` with `config` as its serving limits. The router variant
/// puts a one-shard [`RouterServer`] in front of a default-config shard.
fn start(svc: Svc, config: ServerConfig) -> Served {
    match svc {
        Svc::Shard => {
            let (addr, shard, handle) = start_server_with(config);
            Served {
                addr,
                handle,
                service: shard.clone(),
                shard,
            }
        }
        Svc::Router => {
            let (shard_addr, shard, _) = start_server_with(ServerConfig::default());
            let opts = RouterOptions {
                k: 2,
                next_id: 120,
                ..RouterOptions::default()
            };
            let map = ShardMap::new(vec![0]).expect("one shard");
            let router = ShardRouter::connect(map, vec![vec![shard_addr.to_string()]], opts)
                .expect("connect router");
            let (addr, router, handle) = serve(RouterServer::new(router).with_config(config));
            Served {
                addr,
                handle,
                service: router,
                shard,
            }
        }
    }
}

/// A client whose reads give up after 10 s, so a missing reply fails
/// the test instead of hanging it.
fn patient_client(addr: SocketAddr) -> WireClient {
    WireClient::builder()
        .timeouts(Some(Duration::from_secs(10)), Some(Duration::from_secs(10)))
        .connect(addr)
        .expect("connect")
}

#[test]
fn track_addedge_deledge_maintain_the_live_index() {
    // The server needs the tracked graph as a file; build both the file
    // and the index from the same graph.
    let mut rng = SmallRng::seed_from_u64(78);
    let g = generators::barabasi_albert(90, 2, &mut rng);
    let path = std::env::temp_dir().join(format!("ned-track-{}.edges", std::process::id()));
    ned_graph::io::write_edge_list(&g, &path).expect("write graph");
    let mut index = SignatureIndex::new(3, 32, 1);
    index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
    let server = Arc::new(NedServer::new(index, 1, 2));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = server.serve_tcp(listener);
        });
    }
    let mut client = WireClient::connect(addr).expect("connect");

    // Deltas before tracking are in-band errors.
    let err = client.call("addedge 0 1").expect("reply");
    assert!(err.starts_with("error:"), "{err}");

    let tracked = client
        .call(&format!("track {}", path.display()))
        .expect("track");
    assert!(tracked.starts_with("ok tracking graph"), "{tracked}");

    // Pick a non-edge; flip it on and off. One epoch per delta command.
    let (a, b) = g
        .nodes()
        .flat_map(|a| g.nodes().map(move |b| (a, b)))
        .find(|&(a, b)| a < b && !g.has_edge(a, b))
        .expect("some non-edge");
    let epoch0 = server.reader().epoch();
    let added = client.call(&format!("addedge {a} {b}")).expect("addedge");
    assert!(added.starts_with("ok applied=1"), "{added}");
    assert_eq!(server.reader().epoch(), epoch0 + 1);
    // duplicate add: applied=0, still one publication
    let dup = client.call(&format!("addedge {a} {b}")).expect("dup");
    assert!(dup.starts_with("ok applied=0"), "{dup}");
    assert_eq!(server.reader().epoch(), epoch0 + 2);
    let removed = client.call(&format!("deledge {a} {b}")).expect("deledge");
    assert!(removed.starts_with("ok applied=1"), "{removed}");
    assert_eq!(server.reader().epoch(), epoch0 + 3);
    // out-of-range endpoints are in-band errors
    let oob = client.call("addedge 0 100000").expect("reply");
    assert!(oob.starts_with("error:"), "{oob}");

    // Net-zero churn: every indexed signature equals a fresh extraction
    // from the original graph.
    let snap = server.reader().snapshot();
    for v in g.nodes() {
        let want = NodeSignature::extract(&g, v, 3);
        let got = snap.get(u64::from(v)).expect("indexed");
        assert_eq!(got.prepared(), want.prepared(), "node {v}");
    }
    // The memo line and tracking status are part of stats now.
    let stats = client.call("stats").expect("stats");
    assert!(stats.contains("memo: hits"), "{stats}");
    assert!(stats.contains("tracking 90 nodes"), "{stats}");

    // A raw write breaks the tracked graph's node <-> id invariant, so it
    // detaches the maintainer: deltas error until the graph is re-tracked
    // (otherwise a stale maintainer could resurrect the removed id
    // through a later Replace).
    let removed = client.call("remove 0").expect("raw remove");
    assert_eq!(removed, "ok removed 0");
    let detached = client.call(&format!("addedge {a} {b}")).expect("reply");
    assert!(
        detached.starts_with("error: no tracked graph"),
        "{detached}"
    );
    let stats = client.call("stats").expect("stats");
    assert!(stats.contains("tracking none"), "{stats}");
    // restoring the removed signature lets track verify again
    let shape = ned_tree::serialize::print(NodeSignature::extract(&g, 0, 3).tree());
    let readd = client.call(&format!("addsig {shape}")).expect("addsig");
    assert!(readd.starts_with("ok id="), "{readd}");
    // ...but node 0's signature now lives under a different id, so track
    // must refuse rather than maintain a wrong mapping.
    let retrack = client
        .call(&format!("track {}", path.display()))
        .expect("reply");
    assert!(retrack.starts_with("error:"), "{retrack}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn commands_round_trip_over_the_socket() {
    let (addr, server) = start_server();
    let mut client = WireClient::connect(addr).expect("connect");

    let stats = client.call("stats").expect("stats");
    assert!(stats.contains("signatures: 120"), "{stats}");
    assert!(stats.contains("\nsketch: rows 120, queries "), "{stats}");
    assert!(stats.ends_with("ok"), "{stats}");

    let hits = client.call("sig (()()) 3").expect("sig query");
    assert!(hits.contains("ok 3 hits epoch="), "{hits}");
    assert_eq!(hits.matches("hit id=").count(), 3, "{hits}");

    let range = client.call("rangesig (()()) 1").expect("range query");
    assert!(range.contains("ok "), "{range}");

    // Writes round-trip and bump the epoch; reads see them immediately.
    let before = server.reader().epoch();
    let added = client.call("addsig (()()())").expect("addsig");
    assert!(added.starts_with("ok id="), "{added}");
    let id: u64 = added.trim_start_matches("ok id=").parse().expect("id");
    assert_eq!(id, 120);
    assert_eq!(server.reader().epoch(), before + 1);
    let removed = client.call(&format!("remove {id}")).expect("remove");
    assert_eq!(removed, format!("ok removed {id}"));
    let gone = client.call(&format!("remove {id}")).expect("remove again");
    assert_eq!(gone, format!("ok no such id {id}"));

    // Unknown commands are in-band errors, not dropped connections.
    let err = client.call("frobnicate 3").expect("still connected");
    assert!(err.starts_with("error:"), "{err}");
    let after = client.call("epoch").expect("connection survives errors");
    assert!(after.starts_with("ok epoch="), "{after}");
}

#[test]
fn batch_frames_return_one_reply_per_command_in_order() {
    let (addr, _server) = start_server();
    let mut client = WireClient::connect(addr).expect("connect");

    // Pure-read batch: fans out on the server's worker pool, but replies
    // must come back in command order.
    let reply = client
        .call("epoch\nsig (()()) 2\nstats\nsig (()) 1")
        .expect("read batch");
    let lines: Vec<&str> = reply.lines().collect();
    assert!(lines[0].starts_with("ok epoch="), "{reply}");
    let ok_lines = reply
        .lines()
        .filter(|l| l.starts_with("ok") || l.starts_with("error:"))
        .count();
    assert_eq!(ok_lines, 4, "one terminator per command: {reply}");
    assert!(reply.contains("ok 1 hits epoch="), "{reply}");

    // A batch containing a write runs sequentially in frame order: the
    // epoch read *after* the write observes it.
    let before: u64 = {
        let r = client.call("epoch").expect("epoch");
        r.split("epoch=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let reply = client.call("addsig (()())\nepoch").expect("mixed batch");
    assert!(reply.contains("ok id="), "{reply}");
    assert!(
        reply.contains(&format!("epoch={}", before + 1)),
        "write must be visible to later commands in the same frame: {reply}"
    );

    // quit ends the session after flushing the reply.
    let bye = client.call("quit").expect("quit reply");
    assert_eq!(bye, "ok bye");
    assert!(
        client.call("stats").is_err(),
        "connection must be closed after quit"
    );
}

#[test]
fn concurrent_clients_get_consistent_replies() {
    let (addr, _server) = start_server();
    let writer_handle = std::thread::spawn(move || {
        let mut c = WireClient::connect(addr).expect("connect writer");
        for i in 0..20 {
            let r = c.call("addsig (()()(()))").expect("addsig");
            assert!(r.starts_with("ok id="), "iter {i}: {r}");
            let id: u64 = r.trim_start_matches("ok id=").parse().expect("id");
            let r = c.call(&format!("remove {id}")).expect("remove");
            assert_eq!(r, format!("ok removed {id}"), "iter {i}");
        }
    });
    let readers: Vec<_> = (0..3)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = WireClient::connect(addr).expect("connect reader");
                for i in 0..25 {
                    let r = c.call("sig (()()) 4").expect("query");
                    assert!(r.contains("ok 4 hits epoch="), "reader {t} iter {i}: {r}");
                    assert_eq!(r.matches("hit id=").count(), 4, "reader {t} iter {i}");
                }
            })
        })
        .collect();
    writer_handle.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }
}

#[test]
fn malformed_frames_get_an_error_reply_and_a_hangup() {
    malformed_frames_on(Svc::Shard);
}

#[test]
fn malformed_frames_get_an_error_reply_and_a_hangup_at_the_router() {
    malformed_frames_on(Svc::Router);
}

fn malformed_frames_on(svc: Svc) {
    let addr = start(svc, ServerConfig::default()).addr;

    // Valid length prefix, garbage body: bad magic.
    let mut client = WireClient::connect(addr).expect("connect");
    let mut poison = Vec::new();
    poison.extend_from_slice(&32u32.to_le_bytes());
    poison.extend_from_slice(&[0xAB; 32]);
    client.send_bytes(&poison).expect("send garbage");
    let reply = client.read_reply().expect("error reply before hangup");
    assert!(reply.starts_with("error:"), "{reply}");
    assert!(
        reply.contains("malformed frame") || reply.contains("magic"),
        "{reply}"
    );
    let rest = client.read_to_end().expect("read after error");
    assert!(rest.is_empty(), "server must close a poisoned stream");

    // Corrupted checksum inside an otherwise well-formed frame.
    let mut client = WireClient::connect(addr).expect("connect");
    let mut frame = wire::encode_frame(b"stats");
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    client.send_bytes(&frame).expect("send corrupted");
    let reply = client.read_reply().expect("error reply");
    assert!(reply.contains("checksum"), "{reply}");
    assert!(client.read_to_end().expect("eof").is_empty());

    // Hostile length prefix: rejected without a giant allocation.
    let mut client = WireClient::connect(addr).expect("connect");
    client
        .send_bytes(&u32::MAX.to_le_bytes())
        .expect("send hostile length");
    let reply = client.read_reply().expect("error reply");
    assert!(reply.contains("bad frame length"), "{reply}");
    assert!(client.read_to_end().expect("eof").is_empty());

    // Non-UTF-8 payload in a valid frame: in-band error, connection
    // survives (framing sync is intact).
    let mut client = WireClient::connect(addr).expect("connect");
    client
        .send_raw(&[0xFF, 0xFE, 0x80])
        .expect("send non-utf8 payload");
    let reply = client.read_reply().expect("reply");
    assert!(reply.contains("not UTF-8"), "{reply}");
    let ok = client.call("epoch").expect("connection still usable");
    assert!(ok.starts_with("ok epoch="), "{ok}");

    // And the server is still healthy for everyone else.
    let mut client = WireClient::connect(addr).expect("connect");
    let stats = client.call("stats").expect("stats");
    assert!(stats.contains("server: accepted"), "{stats}");
    if svc == Svc::Shard {
        assert!(stats.contains("signatures:"), "{stats}");
    }
}

#[test]
fn queries_over_tcp_match_local_scans() {
    let (addr, server) = start_server();
    let mut client = WireClient::connect(addr).expect("connect");
    // The server's own snapshot is the ground truth; the wire must not
    // change a single hit.
    let mut rng = SmallRng::seed_from_u64(77);
    let g = generators::barabasi_albert(120, 2, &mut rng);
    let snap = server.reader().snapshot();
    for node in [0u32, 13, 59, 118] {
        let sig = NodeSignature::extract(&g, node, 2);
        let want = snap.scan(&sig, 5);
        let shape = ned_tree::serialize::print(sig.tree());
        let reply = client.call(&format!("sig {shape} 5")).expect("query");
        let got: Vec<(u64, f64)> = reply
            .lines()
            .filter(|l| l.starts_with("hit "))
            .map(|l| {
                let id = l.split("id=").nth(1).unwrap().split(' ').next().unwrap();
                let d = l.split("ned=").nth(1).unwrap();
                (id.parse().unwrap(), d.parse().unwrap())
            })
            .collect();
        let want: Vec<(u64, f64)> = want.iter().map(|h| (h.id, h.distance)).collect();
        assert_eq!(got, want, "node {node}");
    }
}

#[test]
fn overload_cap_rejects_with_a_clean_error_frame() {
    overload_cap_on(Svc::Shard);
}

#[test]
fn overload_cap_rejects_with_a_clean_error_frame_at_the_router() {
    overload_cap_on(Svc::Router);
}

fn overload_cap_on(svc: Svc) {
    let addr = start(
        svc,
        ServerConfig {
            max_conns: 1,
            drain_grace: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .addr;
    let mut first = WireClient::connect(addr).expect("connect first");
    // Round-trip once so the acceptor has definitely admitted us before
    // the second connection races in.
    assert!(first
        .call("epoch")
        .expect("first client works")
        .starts_with("ok"));

    let mut second = patient_client(addr);
    let refusal = second.read_reply().expect("overload frame");
    assert!(refusal.starts_with("error: overloaded:"), "{refusal}");
    assert!(
        second.read_to_end().expect("eof").is_empty(),
        "overloaded connection must be closed after the error frame"
    );

    // Freeing the slot lets new clients in (the handler decrements the
    // active count asynchronously, so poll briefly). A probe on a
    // rejected connection reads the overload frame where its reply
    // would be; an admitted probe gets the real answer.
    assert_eq!(first.call("quit").expect("quit"), "ok bye");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let reply = loop {
        let mut probe = WireClient::connect(addr).expect("probe connect");
        match probe.call("epoch") {
            Ok(r) if r.starts_with("ok epoch=") => break r,
            Ok(r) => assert!(r.starts_with("error: overloaded:"), "{r}"),
            Err(_) => {} // rejected and closed mid-probe
        }
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(reply.starts_with("ok epoch="), "{reply}");
}

#[test]
fn idle_connections_time_out_with_an_error_frame() {
    idle_timeout_on(Svc::Shard);
}

#[test]
fn idle_connections_time_out_with_an_error_frame_at_the_router() {
    idle_timeout_on(Svc::Router);
}

fn idle_timeout_on(svc: Svc) {
    let served = start(
        svc,
        ServerConfig {
            read_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    );
    let addr = served.addr;
    let mut client = patient_client(addr);
    // Send nothing: the server's read timeout must fire, answer with an
    // in-band error, and close the connection.
    let reply = client.read_reply().expect("timeout frame");
    assert!(reply.contains("socket timeout"), "{reply}");
    assert!(client.read_to_end().expect("eof").is_empty());
    let stats = {
        let mut c = WireClient::connect(addr).expect("connect");
        c.call("stats").expect("stats")
    };
    assert!(stats.contains("timeouts 1"), "{stats}");
    drop(served);
}

#[test]
fn a_panicking_command_is_isolated_to_an_error_reply() {
    panic_isolation_on(Svc::Shard);
}

#[test]
fn a_panicking_command_is_isolated_to_an_error_reply_at_the_router() {
    panic_isolation_on(Svc::Router);
}

fn panic_isolation_on(svc: Svc) {
    let served = start(
        svc,
        ServerConfig {
            enable_test_panic: true,
            ..ServerConfig::default()
        },
    );
    // The shard that holds the index, served directly or behind the
    // router.
    let server = &served.shard;
    let mut client = WireClient::connect(served.addr).expect("connect");
    let epoch_before = server.reader().epoch();

    let reply = client.call("__panic").expect("panic must become a reply");
    assert!(reply.starts_with("error: internal panic"), "{reply}");

    // The connection, the server, and the index all survive.
    let ok = client.call("epoch").expect("same connection still works");
    assert!(ok.starts_with("ok epoch="), "{ok}");
    assert_eq!(
        server.reader().epoch(),
        epoch_before,
        "no phantom publication"
    );
    let added = client.call("addsig (()())").expect("writes still work");
    assert!(added.starts_with("ok id="), "{added}");

    // Mixed into a batch frame, the panic poisons only its own line.
    let batch = client
        .call("epoch\n__panic\nepoch")
        .expect("batch with a panicking line");
    let lines: Vec<&str> = batch.lines().collect();
    assert!(lines[0].starts_with("ok epoch="), "{batch}");
    assert!(lines[1].starts_with("error: internal panic"), "{batch}");
    assert!(lines[2].starts_with("ok epoch="), "{batch}");

    let stats = client.call("stats").expect("stats");
    assert!(stats.contains("panics isolated 2"), "{stats}");
}

#[test]
fn shutdown_drains_checkpoints_and_stops_the_acceptor() {
    shutdown_drain_on(Svc::Shard);
}

#[test]
fn shutdown_drains_and_stops_the_acceptor_at_the_router() {
    shutdown_drain_on(Svc::Router);
}

fn shutdown_drain_on(svc: Svc) {
    let grace = Duration::from_secs(20);
    let Served {
        addr,
        handle,
        service,
        ..
    } = start(
        svc,
        ServerConfig {
            drain_grace: grace,
            ..ServerConfig::default()
        },
    );
    let mut client = WireClient::connect(addr).expect("connect");
    // An idle second connection must not wedge the drain, nor hold it
    // for the grace period.
    let _idle = WireClient::connect(addr).expect("idle connect");
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    let reply = client.call("shutdown").expect("shutdown reply");
    assert!(reply.starts_with("ok draining"), "{reply}");
    assert!(service.front().is_shutting_down());

    // The accept loop exits cleanly: exit code 0 material.
    let served = handle.join().expect("acceptor thread");
    assert!(served.is_ok(), "{served:?}");
    let drained = started.elapsed();
    assert!(
        drained < grace / 4,
        "drain took {drained:?} with an idle connection open (grace {grace:?})"
    );

    // The listener is gone; new connections are refused.
    assert!(
        WireClient::connect(addr).is_err() || {
            // A connect may still succeed if the OS hands us a queued
            // backlog slot, but no one will ever answer.
            let mut c = WireClient::builder()
                .timeouts(Some(Duration::from_millis(200)), None)
                .connect(addr)
                .expect("backlog connect");
            c.call("epoch").is_err()
        }
    );
}

#[test]
fn stats_reports_serving_counters_and_durability() {
    let (addr, _server) = start_server();
    let mut client = WireClient::connect(addr).expect("connect");
    let stats = client.call("stats").expect("stats");
    assert!(stats.contains("server: accepted"), "{stats}");
    assert!(
        stats.contains("durability: none (in-memory only)"),
        "{stats}"
    );
    let ckpt = client.call("checkpoint").expect("checkpoint");
    assert!(ckpt.contains("ephemeral"), "{ckpt}");
}

#[test]
fn catchup_refuses_a_peer_record_with_a_forged_tree_length() {
    // A stub peer answers every `walsuffix` with one WAL record whose
    // tree claims `u32::MAX` nodes (the record checksum is not a
    // defence: the sender computes it). The catching-up replica must
    // answer with an error, not abort reserving 16 GiB.
    let mut forged = Vec::new();
    forged.extend_from_slice(&1u64.to_le_bytes()); // epoch
    forged.extend_from_slice(&1u32.to_le_bytes()); // op count
    forged.push(1); // insert
    forged.extend_from_slice(&0u32.to_le_bytes()); // node
    forged.extend_from_slice(&u32::MAX.to_le_bytes()); // tree length
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind stub peer");
    let peer_addr = peer.local_addr().expect("peer addr");
    std::thread::spawn(move || {
        let (mut stream, _) = peer.accept().expect("accept");
        let chunk = ned_core::Response::WalChunk {
            base: 0,
            epoch: 1,
            records: vec![forged],
        };
        while let Ok(Some(_)) = wire::read_frame(&mut stream) {
            if wire::write_text_frame(&mut stream, &chunk.to_string()).is_err() {
                return;
            }
        }
    });
    let (addr, server) = start_server();
    let mut client = WireClient::connect(addr).expect("connect");
    let reply = client
        .call(&format!("catchup {peer_addr}"))
        .expect("catchup reply");
    assert!(reply.starts_with("error: corrupt:"), "{reply}");
    assert!(reply.contains("undecodable"), "{reply}");
    assert_eq!(server.reader().epoch(), 0, "nothing applied");
    let ok = client.call("epoch").expect("the replica still serves");
    assert!(ok.starts_with("ok epoch=0"), "{ok}");
}
