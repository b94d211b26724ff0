//! `loadgen` — load generator for the concurrent NED serving layer.
//!
//! ```text
//! loadgen prep  --out PATH [--graph-out PATH] [--nodes N] [--k K] [--seed S]
//! loadgen bench [--nodes N] [--k K] [--readers R] [--ops N] [--top T]
//!               [--writes N] [--seed S]
//! loadgen smoke --addr HOST:PORT --index PATH [--readers R] [--reads N]
//!               [--writes N] [--graph PATH] [--deltas N] [--seed S]
//! loadgen chaos --addr HOST:PORT --index PATH [--clients C] [--ops N]
//!               [--seed S]
//! loadgen crash --server-bin PATH --index PATH --wal PATH [--cycles N]
//!               [--checkpoint-every N] [--kill-min-ms N] [--kill-max-ms N]
//!               [--seed S]
//! loadgen fleet --server-bin PATH --index PATH [--shards N] [--dir D]
//!               [--rounds N] [--seed S]
//! ```
//!
//! * `prep` builds a Barabási–Albert graph index and saves it — the
//!   fixture the CI soak serves with `ned-cli serve --tcp`
//!   (`--graph-out` also writes the edge list, for `serve --graph` /
//!   `track` delta churn).
//! * `bench` drives the in-process workload (1 reader vs `--readers`,
//!   optionally racing `--writes` net-zero **graph-delta** edge flips
//!   through a `GraphMaintainer`) and prints aggregate throughput,
//!   p50/p99 latency, dirty-set/replace counts, and memo efficacy.
//! * `smoke` is the CI soak client: a reader fleet plus one writer
//!   hammer a live TCP server with a bounded mixed workload (batched and
//!   single-command frames; the write churn is net-zero), validating
//!   every reply. With `--graph` it then tracks the mutating graph and
//!   flips `--deltas` non-edges on and off, checking that the epoch
//!   advances **exactly once per delta batch** and that only the dirty
//!   set is recomputed. Afterwards it replays a sample of knn queries
//!   and compares them hit-for-hit against a **single-threaded linear
//!   scan** over the same index file the server loaded. Any protocol
//!   error, panic, reply mismatch, or epoch/size drift exits non-zero,
//!   which is what fails the CI `soak` job.
//! * `chaos` puts a fault-injecting TCP proxy ([`ned_bench::chaos`]) in
//!   front of a live server and hammers it through the proxy with a
//!   read-only client fleet while frames are delayed, dropped,
//!   truncated, and bit-flipped. Chaos clients tolerate any per-call
//!   outcome; the hard contract is checked **directly** (not through the
//!   proxy) afterwards: the server is still serving, the epoch never
//!   moved (no corrupted frame was mistaken for a write), and a sample
//!   of knn queries still matches a single-threaded linear scan
//!   hit-for-hit.
//! * `crash` is the kill-and-restart durability soak: it spawns
//!   `ned-cli serve --wal` as a child process, churns acknowledged
//!   addsig/remove writes while a killer thread SIGKILLs the child
//!   mid-churn, restarts it, and requires the recovered state to match
//!   the acknowledged model **exactly** — epoch and live-set size
//!   reconciled up to the single in-flight op the kill may have caught,
//!   and every acknowledged signature answered hit-for-hit. The final
//!   cycle exercises the clean path too: `shutdown` must drain,
//!   checkpoint, and exit 0, and the next boot must replay nothing.
//! * `fleet` is the scatter-gather soak: it splits the index into
//!   `--shards` id-range shards, spawns one WAL-backed `ned-cli serve
//!   --tcp` child per shard, and routes mirrored write churn plus knn
//!   probes through an in-process [`ned_index::ShardRouter`], demanding
//!   **bit-identical** answers to a monolith [`ned_index::NedServer`] holding the
//!   unsplit index after every phase. Mid-churn it SIGKILLs shard 0:
//!   the coordinator must degrade loudly (scatter reads and
//!   victim-owned writes fail *retryably*, never wrongly) while writes
//!   owned by surviving shards keep landing; then the victim is
//!   respawned from its durable files on the same port and the fleet
//!   must answer bit-identically again with every acknowledged write
//!   present. Any divergence, hang, wrong-success, or lost ack exits
//!   non-zero, which is what fails the CI `fleet-soak` job.

use ned_bench::loadgen::{knn_read_workload, run_reader_fleet, scaling_floor, LatencySummary};
use ned_index::{ConcurrentNedIndex, SignatureIndex, WireClient};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("prep") => cmd_prep(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("crash") => cmd_crash(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}; try `loadgen help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "loadgen — load generator for the concurrent NED serving layer\n\
         \n\
         subcommands:\n\
         \x20 prep  --out PATH [--graph-out PATH] [--nodes N]     build + save a BA-graph index\n\
         \x20       [--k K] [--seed S]                            (+ its edge list for delta churn)\n\
         \x20 bench [--nodes N] [--k K] [--readers R] [--ops N]   in-process reader-scaling run\n\
         \x20       [--top T] [--writes N] [--seed S]             (--writes races graph-delta flips)\n\
         \x20 smoke --addr HOST:PORT --index PATH [--readers R]   bounded mixed soak against a live\n\
         \x20       [--reads N] [--writes N] [--graph PATH]       `ned-cli serve --tcp` server\n\
         \x20       [--deltas N] [--seed S]                       (--graph adds edge-flip deltas)\n\
         \x20 chaos --addr HOST:PORT --index PATH [--clients C]   fault-injecting proxy soak: the\n\
         \x20       [--ops N] [--seed S]                          server must survive torn frames\n\
         \x20 crash --server-bin PATH --index PATH --wal PATH     SIGKILL-and-restart durability\n\
         \x20       [--cycles N] [--checkpoint-every N]           soak against `ned-cli serve\n\
         \x20       [--kill-min-ms N] [--kill-max-ms N] [--seed S] --wal` (exact recovery check)\n\
         \x20 fleet --server-bin PATH --index PATH [--shards N]   scatter-gather soak: router over a\n\
         \x20       [--dir D] [--rounds N] [--seed S]             spawned shard fleet must stay\n\
         \x20                                                     bit-identical to the monolith\n\
         \x20                                                     across a shard SIGKILL + respawn\n"
    );
}

/// `--flag value` parser (no positionals, no switches — loadgen is
/// flag-only).
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    fn parse(raw: &'a [String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let name = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", raw[i]))?;
            let value = raw
                .get(i + 1)
                .ok_or_else(|| format!("missing value for --{name}"))?;
            out.push((name, value.as_str()));
            i += 2;
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|&&(n, _)| n == name) {
            Some(&(_, v)) => v
                .parse()
                .map_err(|_| format!("cannot parse --{name} value {v:?}")),
            None => Ok(default),
        }
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing required --{name}"))
    }
}

fn cmd_prep(raw: &[String]) -> Result<(), String> {
    let flags = Flags::parse(raw)?;
    let out = flags.require("out")?;
    let nodes: usize = flags.get("nodes", 4000)?;
    let k: usize = flags.get("k", 3)?;
    let seed: u64 = flags.get("seed", 0xBA)?;
    let graph_out: String = flags.get("graph-out", String::new())?;
    let (graph, index, _) = ned_bench::loadgen::ba_fixture_with_graph(nodes, k, 1, seed);
    index
        .save(Path::new(out))
        .map_err(|e| format!("{out}: {e}"))?;
    if !graph_out.is_empty() {
        // The edge list the server can `track` for delta churn: the
        // exact graph the index was built from, ids preserved.
        ned_graph::io::write_edge_list(&graph, Path::new(&graph_out))
            .map_err(|e| format!("{graph_out}: {e}"))?;
        println!("prep: wrote {graph_out} (edge list for `serve --graph` / `track`)");
    }
    println!(
        "prep: wrote {out} ({} signatures, k = {k}, BA-{nodes}, seed {seed})",
        index.len()
    );
    Ok(())
}

fn print_summary(label: &str, s: &LatencySummary) {
    println!(
        "  {label:<28} {:>9.0} ns/op  {:>10.0} ops/s  p50 {:>9.0} ns  p99 {:>9.0} ns  ({} ops)",
        s.ns_per_op,
        s.ops_per_sec(),
        s.p50_ns,
        s.p99_ns,
        s.ops
    );
}

fn cmd_bench(raw: &[String]) -> Result<(), String> {
    let flags = Flags::parse(raw)?;
    let nodes: usize = flags.get("nodes", 4000)?;
    let k: usize = flags.get("k", 3)?;
    let readers: usize = flags.get("readers", 4)?;
    let total_ops: usize = flags.get("ops", 240)?;
    let top: usize = flags.get("top", 5)?;
    let writes: usize = flags.get("writes", 0)?;
    let seed: u64 = flags.get("seed", 0xBA)?;
    println!("bench: building BA-{nodes} fixture (k = {k}) ...");
    let (graph, index, probes) = ned_bench::loadgen::ba_fixture_with_graph(nodes, k, 16, seed);
    let (mut writer, reader) = ConcurrentNedIndex::split(index);
    // Warm-up pass (thread-local scratch arenas, the TED* memo).
    knn_read_workload(&reader, &probes, 1, 8, top);
    let memo_before = ned_core::TedMemo::global().stats();
    let single = knn_read_workload(&reader, &probes, 1, total_ops, top);
    // The fleet run: optionally with concurrent writer churn — `--writes
    // N` net-zero **graph-delta** flips (add a non-edge, recompute only
    // its (k-1)-hop dirty set, remove it again) racing the readers: the
    // full mixed serving regime a live mutating graph produces.
    let mut churn_stats = (0usize, 0usize); // (dirty candidates, replaces)
    let fleet = std::thread::scope(|scope| {
        let churn_stats = &mut churn_stats;
        if writes > 0 {
            let writer = &mut writer;
            let graph = &graph;
            scope.spawn(move || {
                let mut maintainer = ned_index::GraphMaintainer::attach(graph, k, 0, 1);
                let flips = ned_bench::loadgen::non_edges(graph, writes, seed ^ 0xF11);
                for (a, b) in flips {
                    let add = maintainer.apply(&[ned_graph::GraphDelta::AddEdge(a, b)], writer);
                    let del = maintainer.apply(&[ned_graph::GraphDelta::RemoveEdge(a, b)], writer);
                    churn_stats.0 += add.candidates + del.candidates;
                    churn_stats.1 += add.replaced + del.replaced;
                }
            });
        }
        knn_read_workload(&reader, &probes, readers, total_ops / readers.max(1), top)
    });
    let churn = if writes > 0 {
        format!(" (against {writes} concurrent net-zero edge-flip delta batches)")
    } else {
        String::new()
    };
    println!("bench: aggregate knn throughput, 1 vs {readers} reader thread(s){churn}:");
    print_summary("1 reader", &single);
    print_summary(&format!("{readers} readers"), &fleet);
    if writes > 0 {
        println!(
            "bench: delta churn recomputed {} dirty candidates, replaced {} signatures \
             ({} edge flips)",
            churn_stats.0, churn_stats.1, writes
        );
    }
    println!(
        "bench: memo over the run: {}",
        ned_core::TedMemo::global().stats().since(&memo_before)
    );
    let speedup = single.ns_per_op / fleet.ns_per_op;
    let floor = scaling_floor(readers);
    println!(
        "bench: speedup {speedup:.2}x (hardware-scaled floor {floor:.2}x on {} core(s))",
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
    );
    // The scaling floor is a pure-read contract; concurrent churn
    // legitimately eats into it, so --writes runs are report-only.
    if writes == 0 && speedup < floor {
        return Err(format!(
            "reader scaling {speedup:.2}x below the {floor:.2}x floor"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// smoke: the CI soak client
// ---------------------------------------------------------------------------

/// Connects with retries — the CI job races the server's startup.
fn connect_patiently(addr: &str) -> Result<WireClient, String> {
    let mut last = String::new();
    for _ in 0..100 {
        match WireClient::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    Err(format!("cannot connect to {addr} after 10s: {last}"))
}

fn parse_id(reply: &str) -> Result<u64, String> {
    reply
        .trim()
        .strip_prefix("ok id=")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed addsig reply {reply:?}"))
}

/// Parses `hit id=<id> ned=<d>` lines; errors on anything unexpected.
fn parse_hits(reply: &str) -> Result<Vec<(u64, f64)>, String> {
    let mut hits = Vec::new();
    for line in reply.lines() {
        if let Some(rest) = line.strip_prefix("hit id=") {
            let (id, d) = rest
                .split_once(" ned=")
                .ok_or_else(|| format!("malformed hit line {line:?}"))?;
            hits.push((
                id.parse().map_err(|_| format!("bad id in {line:?}"))?,
                d.parse().map_err(|_| format!("bad distance in {line:?}"))?,
            ));
        } else if !(line.starts_with("ok ") || line == "ok") {
            return Err(format!("unexpected reply line {line:?}"));
        }
    }
    Ok(hits)
}

fn expect_ok(reply: &str, what: &str) -> Result<(), String> {
    if reply.lines().last().is_some_and(|l| l.starts_with("ok")) {
        Ok(())
    } else {
        Err(format!("{what}: server said {reply:?}"))
    }
}

fn cmd_smoke(raw: &[String]) -> Result<(), String> {
    let flags = Flags::parse(raw)?;
    let addr = flags.require("addr")?.to_string();
    let index_path = flags.require("index")?;
    let readers: usize = flags.get("readers", 2)?;
    let reads_per_reader: usize = flags.get("reads", 120)?;
    let writes: usize = flags.get("writes", 30)?;
    let deltas: usize = flags.get("deltas", 8)?;
    let graph_path: Option<String> = {
        let p: String = flags.get("graph", String::new())?;
        (!p.is_empty()).then_some(p)
    };
    let seed: u64 = flags.get("seed", 0x50AC)?;

    // The server's ground truth: the same index file it loaded. The
    // soak's write churn is net-zero, so the post-soak state must equal
    // this byte-for-byte in query behavior.
    let local =
        SignatureIndex::load(Path::new(index_path)).map_err(|e| format!("{index_path}: {e}"))?;
    let shapes: Vec<String> = local
        .entries()
        .enumerate()
        .filter(|(i, _)| i % (local.len() / 24).max(1) == 0)
        .map(|(_, (_, sig))| ned_tree::serialize::print(sig.tree()))
        .collect();
    if shapes.is_empty() {
        return Err("index file holds no signatures to probe with".into());
    }
    // Width beyond every indexed tree's widest level: a star of this
    // width (or wider) cannot be isomorphic to anything in the index, so
    // its nearest indexed neighbor is provably at distance > 0 — which
    // is what makes the within-frame write-visibility check below real
    // rather than satisfied by a pre-existing duplicate.
    let novel_base = local
        .entries()
        .map(|(_, sig)| sig.tree().max_width())
        .max()
        .unwrap_or(1)
        + 1;

    let mut probe_client = connect_patiently(&addr)?;
    let stats = probe_client
        .call("stats")
        .map_err(|e| format!("stats: {e}"))?;
    if !stats.contains(&format!("signatures: {} (", local.len())) {
        return Err(format!(
            "server stats {stats:?} disagree with {index_path} ({} signatures)",
            local.len()
        ));
    }
    let epoch0 = query_epoch(&mut probe_client)?;
    println!("smoke: connected to {addr}; {stats}");

    // --- the bounded mixed soak -----------------------------------------
    // Reader fleet: alternating single-command frames and read-only batch
    // frames (the pool fan-out path). One concurrent writer: addsig /
    // remove pairs, including one mixed write+read batch frame.
    let soak_error: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
    let fail = |msg: String| {
        soak_error
            .lock()
            .expect("no poisoned error slot")
            .get_or_insert(msg);
    };
    let summary = std::thread::scope(|scope| {
        let writer_addr = addr.clone();
        let writer_shapes = &shapes;
        let fail = &fail;
        scope.spawn(move || {
            let run = || -> Result<(), String> {
                let mut c = connect_patiently(&writer_addr)?;
                let mut ids = Vec::with_capacity(writes);
                for w in 0..writes {
                    let shape = &writer_shapes[(w * 7 + 3) % writer_shapes.len()];
                    if w % 5 == 4 {
                        // Mixed batch frame: the write must be visible to
                        // the read behind it in the same frame. The shape
                        // is a star wider than anything indexed (a fresh
                        // width each time), so the only possible ned=0
                        // hit is the id this very addsig returned —
                        // a pre-existing duplicate cannot fake this.
                        let novel = star_shape(novel_base + w);
                        let reply = c
                            .call(&format!("addsig {novel}\nsig {novel} 1"))
                            .map_err(|e| format!("writer batch: {e}"))?;
                        let id = parse_id(reply.lines().next().unwrap_or_default())?;
                        if !reply.lines().any(|l| l == format!("hit id={id} ned=0")) {
                            return Err(format!(
                                "addsig in a batch frame was not visible to the \
                                 sig query behind it: {reply:?}"
                            ));
                        }
                        ids.push(id);
                    } else {
                        let reply = c
                            .call(&format!("addsig {shape}"))
                            .map_err(|e| format!("writer addsig: {e}"))?;
                        ids.push(parse_id(&reply)?);
                    }
                }
                for id in ids {
                    let reply = c
                        .call(&format!("remove {id}"))
                        .map_err(|e| format!("writer remove: {e}"))?;
                    if reply != format!("ok removed {id}") {
                        return Err(format!("remove {id}: server said {reply:?}"));
                    }
                }
                Ok(())
            };
            if let Err(e) = run() {
                fail(format!("writer: {e}"));
            }
        });

        let addr = &addr;
        let shapes = &shapes;
        run_reader_fleet(readers, reads_per_reader, move |t| {
            let mut client = connect_patiently(addr).unwrap_or_else(|e| panic!("reader {t}: {e}"));
            let mut rng_state = seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            move |i| {
                // xorshift so each reader walks its own probe sequence
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                let shape = &shapes[(rng_state as usize) % shapes.len()];
                let mut run = || -> Result<(), String> {
                    if i % 3 == 2 {
                        // Read-only batch frame: three commands, three
                        // ordered terminators, fan-out on the server pool.
                        let reply = client
                            .call(&format!("sig {shape} 5\nepoch\nrangesig {shape} 2"))
                            .map_err(|e| e.to_string())?;
                        let terminators = reply.lines().filter(|l| l.starts_with("ok")).count();
                        if terminators != 3 || reply.contains("error:") {
                            return Err(format!("batch reply malformed: {reply:?}"));
                        }
                        parse_hits(&reply)?;
                    } else {
                        let reply = client
                            .call(&format!("sig {shape} 5"))
                            .map_err(|e| e.to_string())?;
                        expect_ok(&reply, "sig query")?;
                        let hits = parse_hits(&reply)?;
                        if hits.len() > 5 {
                            return Err(format!("top-5 query returned {} hits", hits.len()));
                        }
                        if hits.first().is_some_and(|&(_, d)| d != 0.0) {
                            return Err(format!(
                                "probe shape is indexed; nearest hit must be 0, got {hits:?}"
                            ));
                        }
                    }
                    Ok(())
                };
                if let Err(e) = run() {
                    panic!("reader {t} op {i}: {e}");
                }
            }
        })
    });
    if let Some(err) = soak_error.into_inner().expect("no poisoned error slot") {
        return Err(err);
    }

    // --- post-soak integrity --------------------------------------------
    // The only writer was ours and its churn was net-zero: the epoch must
    // have advanced exactly once per write command, and the live set must
    // be back to the index file's.
    let epoch1 = query_epoch(&mut probe_client)?;
    let write_commands = 2 * writes; // every addsig and every remove
    if epoch1 - epoch0 != write_commands as u64 {
        return Err(format!(
            "epoch advanced by {} over the soak, expected exactly {write_commands} \
             (one publication per write command)",
            epoch1 - epoch0
        ));
    }
    let stats = probe_client.call("stats").map_err(|e| e.to_string())?;
    if !stats.contains(&format!("signatures: {} (", local.len())) {
        return Err(format!(
            "post-soak stats {stats:?} diverged from the net-zero expectation ({})",
            local.len()
        ));
    }

    // --- the graph-delta phase (--graph) --------------------------------
    // Track the mutating graph and flip non-edges on and off. Contract:
    // the epoch advances **exactly once per delta batch** (each
    // addedge/deledge command is one batch), only the dirty set is
    // recomputed (the reply reports it), and the net-zero churn returns
    // every signature to the index file's — which the spot check below
    // then verifies hit-for-hit.
    let mut delta_commands = 0usize;
    if let Some(graph_path) = graph_path.as_deref() {
        let graph = ned_graph::io::read_edge_list(Path::new(graph_path), false)
            .map_err(|e| format!("{graph_path}: {e}"))?;
        let reply = probe_client
            .call(&format!("track {graph_path}"))
            .map_err(|e| e.to_string())?;
        if !reply.starts_with("ok tracking graph") {
            return Err(format!("track: server said {reply:?}"));
        }
        let flips = ned_bench::loadgen::non_edges(&graph, deltas, seed ^ 0xDE17A);
        let epoch_before_deltas = query_epoch(&mut probe_client)?;
        let mut dirty_total = 0usize;
        for &(a, b) in &flips {
            for cmd in [format!("addedge {a} {b}"), format!("deledge {a} {b}")] {
                let reply = probe_client.call(&cmd).map_err(|e| e.to_string())?;
                let applied = reply.starts_with("ok applied=1");
                if !applied {
                    return Err(format!("{cmd}: server said {reply:?}"));
                }
                dirty_total += reply
                    .split("dirty=")
                    .nth(1)
                    .and_then(|s| s.split(' ').next())
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| format!("{cmd}: malformed delta reply {reply:?}"))?;
                delta_commands += 1;
                let epoch_now = query_epoch(&mut probe_client)?;
                if epoch_now != epoch_before_deltas + delta_commands as u64 {
                    return Err(format!(
                        "epoch {epoch_now} after {delta_commands} delta batches \
                         (started at {epoch_before_deltas}): a delta batch must \
                         publish exactly once"
                    ));
                }
            }
        }
        if dirty_total >= flips.len() * 2 * local.len() {
            return Err(format!(
                "delta churn recomputed {dirty_total} candidates over {} batches — \
                 the dirty set degenerated into full rebuilds",
                flips.len() * 2
            ));
        }
        println!(
            "smoke: {} delta batches (edge flips on {graph_path}), {dirty_total} dirty \
             candidates recomputed, epoch advanced once per batch",
            flips.len() * 2
        );
    }

    // --- the linear-scan spot check -------------------------------------
    // Replay a sample of knn queries against the quiesced server and
    // demand hit-for-hit agreement with a single-threaded linear scan
    // over the index file.
    let checked = linear_spot_check(&mut probe_client, &local)?;

    println!(
        "smoke: ok — {} reads across {readers} reader(s), {writes} net-zero write pairs \
         + {delta_commands} delta batches, {checked} post-soak probes matched the linear scan",
        summary.ops
    );
    print_summary("mixed read workload", &summary);
    let stats = probe_client.call("stats").map_err(|e| e.to_string())?;
    if let Some(memo) = stats.lines().find(|l| l.starts_with("memo:")) {
        println!("smoke: server {memo}");
    }
    Ok(())
}

/// `(()()...())` — a root with `width` leaf children.
fn star_shape(width: usize) -> String {
    let mut s = String::with_capacity(2 * width + 2);
    s.push('(');
    for _ in 0..width {
        s.push_str("()");
    }
    s.push(')');
    s
}

fn query_epoch(client: &mut WireClient) -> Result<u64, String> {
    Ok(query_epoch_len(client)?.0)
}

/// Parses the full `ok epoch=<e> len=<n>` reply.
fn query_epoch_len(client: &mut WireClient) -> Result<(u64, u64), String> {
    let reply = client.call("epoch").map_err(|e| e.to_string())?;
    let parsed = reply.trim().strip_prefix("ok epoch=").and_then(|rest| {
        let (epoch, rest) = rest.split_once(' ')?;
        let len = rest.strip_prefix("len=")?;
        Some((epoch.parse().ok()?, len.parse().ok()?))
    });
    parsed.ok_or_else(|| format!("malformed epoch reply {reply:?}"))
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

// ---------------------------------------------------------------------------
// chaos: fault-injecting proxy soak
// ---------------------------------------------------------------------------

fn cmd_chaos(raw: &[String]) -> Result<(), String> {
    use ned_bench::chaos::{ChaosConfig, ChaosProxy};
    use std::net::ToSocketAddrs;
    let flags = Flags::parse(raw)?;
    let addr = flags.require("addr")?.to_string();
    let index_path = flags.require("index")?;
    let clients: usize = flags.get("clients", 3)?;
    let ops: usize = flags.get("ops", 150)?;
    let seed: u64 = flags.get("seed", 0xC405)?;

    let local =
        SignatureIndex::load(Path::new(index_path)).map_err(|e| format!("{index_path}: {e}"))?;
    let shapes: Vec<String> = local
        .entries()
        .enumerate()
        .filter(|(i, _)| i % (local.len() / 16).max(1) == 0)
        .map(|(_, (_, sig))| ned_tree::serialize::print(sig.tree()))
        .collect();
    if shapes.is_empty() {
        return Err("index file holds no signatures to probe with".into());
    }
    let upstream = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to nothing"))?;

    // The clean control connection dials the server directly — the epoch
    // it sees now must be the epoch it sees after the storm.
    let mut direct = connect_patiently(&addr)?;
    let epoch0 = query_epoch(&mut direct)?;

    let proxy = ChaosProxy::spawn(
        upstream,
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        },
    )
    .map_err(|e| format!("chaos proxy: {e}"))?;
    let proxy_addr = proxy.addr().to_string();
    println!(
        "chaos: proxy {proxy_addr} -> {addr}; {clients} client(s) x {ops} ops through the storm"
    );

    // The chaos fleet: read-only traffic through the proxy. Any single
    // call may be delayed, severed, or garbled — every outcome is
    // tolerated per call; the server-side contract is checked directly
    // afterwards.
    let (ok_replies, error_frames, severed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let proxy_addr = proxy_addr.as_str();
                let shapes = &shapes;
                scope.spawn(move || {
                    let mut rng = seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut conn: Option<WireClient> = None;
                    let (mut ok, mut errs, mut cut) = (0u64, 0u64, 0u64);
                    for i in 0..ops {
                        let mut client = match conn.take() {
                            Some(c) => c,
                            // A truncated frame would otherwise hang this
                            // client until the server's idle timeout; give
                            // up on a call sooner.
                            None => match WireClient::builder()
                                .timeouts(
                                    Some(Duration::from_millis(500)),
                                    Some(Duration::from_millis(500)),
                                )
                                .connect(proxy_addr)
                            {
                                Ok(c) => c,
                                Err(_) => {
                                    cut += 1;
                                    std::thread::sleep(Duration::from_millis(10));
                                    continue;
                                }
                            },
                        };
                        let shape = &shapes[xorshift(&mut rng) as usize % shapes.len()];
                        let payload = match i % 3 {
                            0 => format!("sig {shape} 3"),
                            1 => "epoch".to_string(),
                            _ => format!("epoch\nsig {shape} 2"),
                        };
                        match client.call(&payload) {
                            Ok(reply) => {
                                if reply.contains("error:") {
                                    errs += 1;
                                } else {
                                    ok += 1;
                                }
                                conn = Some(client);
                            }
                            Err(_) => cut += 1,
                        }
                    }
                    (ok, errs, cut)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client panicked"))
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
    });

    let stats = proxy.stop();
    println!("chaos: proxy injected {stats}");
    println!(
        "chaos: clients saw {ok_replies} clean replies, {error_frames} error frames, \
         {severed} severed calls"
    );
    if stats.faults() == 0 {
        return Err("the proxy injected no faults — raise --ops until the soak is real".into());
    }

    // The hard contract, checked on a fresh direct connection: still
    // serving, nothing corrupted executed as a write, answers exact.
    let mut direct = connect_patiently(&addr)?;
    let epoch1 = query_epoch(&mut direct)?;
    if epoch1 != epoch0 {
        return Err(format!(
            "epoch moved {epoch0} -> {epoch1} under read-only chaos — a corrupted \
             frame was executed as a write"
        ));
    }
    let checked = linear_spot_check(&mut direct, &local)?;
    println!(
        "chaos: ok — server survived the storm; {checked} direct probes matched the linear scan"
    );
    Ok(())
}

/// Replays a sample of knn queries and demands hit-for-hit agreement
/// with a single-threaded linear scan over the index file.
fn linear_spot_check(client: &mut WireClient, local: &SignatureIndex) -> Result<usize, String> {
    let mut checked = 0usize;
    for (i, (_, sig)) in local.entries().enumerate() {
        if i % (local.len() / 12).max(1) != 0 {
            continue;
        }
        let shape = ned_tree::serialize::print(sig.tree());
        let reply = client
            .call(&format!("sig {shape} 5"))
            .map_err(|e| format!("spot check query: {e}"))?;
        let got = parse_hits(&reply)?;
        let want: Vec<(u64, f64)> = local
            .scan(sig, 5)
            .iter()
            .map(|h| (h.id, h.distance))
            .collect();
        if got != want {
            return Err(format!(
                "DIVERGENCE on probe {i}: server {got:?} vs linear scan {want:?}"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

// ---------------------------------------------------------------------------
// crash: SIGKILL-and-restart durability soak
// ---------------------------------------------------------------------------

/// The single write whose acknowledgement a SIGKILL may have eaten. The
/// WAL journals before the reply, so the op is either fully recovered or
/// fully absent — never half-applied — and the post-restart epoch/len
/// pair says which.
enum Pending {
    Insert { width: usize },
    Remove { id: u64 },
}

fn spawn_server(
    bin: &str,
    index: &str,
    wal: &str,
    addr: &str,
    checkpoint_every: u64,
) -> Result<std::process::Child, String> {
    std::process::Command::new(bin)
        .args([
            "serve",
            index,
            "--tcp",
            addr,
            "--wal",
            wal,
            "--checkpoint-every",
            &checkpoint_every.to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {bin}: {e}"))
}

/// Queries the freshly recovered server and reconciles it against the
/// acknowledged model: epoch and live-set size must match exactly, up to
/// the one in-flight op the kill may have caught (which the WAL either
/// captured — then the epoch and len both advanced and the model absorbs
/// it — or it didn't, and both are unchanged). Then every acknowledged
/// signature must answer hit-for-hit.
fn reconcile_and_verify(
    client: &mut WireClient,
    model: &mut Vec<(u64, usize)>,
    acked_epoch: &mut Option<u64>,
    pending: &mut Option<Pending>,
    base_len: u64,
) -> Result<(), String> {
    let (epoch, len) = query_epoch_len(client)?;
    let expected_len = base_len + model.len() as u64;
    match (acked_epoch.as_mut(), pending.take()) {
        (None, _) => {
            if len != expected_len {
                return Err(format!(
                    "first boot: server len {len}, the index file held {expected_len}"
                ));
            }
            *acked_epoch = Some(epoch);
        }
        (Some(acked), None) => {
            if epoch != *acked || len != expected_len {
                return Err(format!(
                    "recovered (epoch {epoch}, len {len}) != acknowledged (epoch {acked}, \
                     len {expected_len}) with no write in flight"
                ));
            }
        }
        (Some(acked), Some(Pending::Insert { width })) => {
            if epoch == *acked && len == expected_len {
                // The kill beat the journal append: the op never happened.
            } else if epoch == *acked + 1 && len == expected_len + 1 {
                // Journaled, applied, ack lost: adopt it — its id is
                // whatever answers the (unique) star at distance 0.
                let reply = client
                    .call(&format!("sig {} 1", star_shape(width)))
                    .map_err(|e| format!("in-flight insert probe: {e}"))?;
                let hits = parse_hits(&reply)?;
                let Some(&(id, 0.0)) = hits.first() else {
                    return Err(format!(
                        "len/epoch say the in-flight insert (width {width}) was recovered, \
                         but the index cannot find it: {hits:?}"
                    ));
                };
                model.push((id, width));
                *acked += 1;
            } else {
                return Err(format!(
                    "recovered (epoch {epoch}, len {len}) is consistent with neither \
                     outcome of the in-flight insert (acknowledged epoch {acked}, \
                     len {expected_len})"
                ));
            }
        }
        (Some(acked), Some(Pending::Remove { id })) => {
            if epoch == *acked && len == expected_len {
                // Never journaled; the id must still be alive (verified below).
            } else if epoch == *acked + 1 && len == expected_len - 1 {
                model.retain(|&(mid, _)| mid != id);
                *acked += 1;
            } else {
                return Err(format!(
                    "recovered (epoch {epoch}, len {len}) is consistent with neither \
                     outcome of the in-flight remove of {id} (acknowledged epoch {acked}, \
                     len {expected_len})"
                ));
            }
        }
    }
    // Hit-for-hit: every acknowledged star is unique in the index, so its
    // top-1 must be exactly (its id, distance 0).
    for &(id, width) in model.iter() {
        let reply = client
            .call(&format!("sig {} 1", star_shape(width)))
            .map_err(|e| format!("verification query for id {id}: {e}"))?;
        let hits = parse_hits(&reply)?;
        if hits.first() != Some(&(id, 0.0)) {
            return Err(format!(
                "recovered index lost acknowledged id {id} (star width {width}): {hits:?}"
            ));
        }
    }
    Ok(())
}

/// Churns acknowledged writes until the connection dies under the
/// killer's SIGKILL; returns how many were acknowledged. Star widths are
/// burned at issue time (not at ack time) so an applied-but-unacked
/// insert can never collide with a later one.
fn churn_until_killed(
    client: &mut WireClient,
    model: &mut Vec<(u64, usize)>,
    acked_epoch: &mut u64,
    pending: &mut Option<Pending>,
    next_width: &mut usize,
    rng: &mut u64,
) -> Result<u64, String> {
    let mut acked = 0u64;
    for _ in 0..5_000_000u64 {
        // Insert-biased so the model grows, but bounded so post-restart
        // verification stays O(hundreds) of queries.
        let insert = model.len() < 3 || (!xorshift(rng).is_multiple_of(3) && model.len() < 150);
        if insert {
            let width = *next_width;
            *next_width += 1;
            *pending = Some(Pending::Insert { width });
            match client.call(&format!("addsig {}", star_shape(width))) {
                Ok(reply) => {
                    let id = parse_id(&reply)?;
                    model.push((id, width));
                    *acked_epoch += 1;
                    *pending = None;
                    acked += 1;
                }
                Err(_) => return Ok(acked), // the SIGKILL landed mid-call
            }
        } else {
            let pick = xorshift(rng) as usize % model.len();
            let (id, _) = model[pick];
            *pending = Some(Pending::Remove { id });
            match client.call(&format!("remove {id}")) {
                Ok(reply) => {
                    if reply != format!("ok removed {id}") {
                        return Err(format!("remove {id}: server said {reply:?}"));
                    }
                    model.swap_remove(pick);
                    *acked_epoch += 1;
                    *pending = None;
                    acked += 1;
                }
                Err(_) => return Ok(acked),
            }
        }
    }
    Err("the killer never fired".into())
}

fn cmd_crash(raw: &[String]) -> Result<(), String> {
    let flags = Flags::parse(raw)?;
    let server_bin = flags.require("server-bin")?.to_string();
    let index_path = flags.require("index")?.to_string();
    let wal_path = flags.require("wal")?.to_string();
    let cycles: usize = flags.get("cycles", 3)?;
    let checkpoint_every: u64 = flags.get("checkpoint-every", 8)?;
    let kill_min: u64 = flags.get("kill-min-ms", 120)?;
    let kill_max: u64 = flags.get("kill-max-ms", 400)?;
    let seed: u64 = flags.get("seed", 0xD1E)?;
    if kill_max < kill_min {
        return Err("--kill-max-ms must be >= --kill-min-ms".into());
    }

    // The acknowledged model starts from the index file the first boot
    // loads; novel star widths can never collide with anything in it.
    let local =
        SignatureIndex::load(Path::new(&index_path)).map_err(|e| format!("{index_path}: {e}"))?;
    let base_len = local.len() as u64;
    let mut next_width = local
        .entries()
        .map(|(_, sig)| sig.tree().max_width())
        .max()
        .unwrap_or(1)
        + 1;
    drop(local);

    // One loopback port for every (re)start of the child.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        probe.local_addr().map_err(|e| e.to_string())?.to_string()
    };

    let mut rng = seed | 1;
    let mut model: Vec<(u64, usize)> = Vec::new();
    let mut acked_epoch: Option<u64> = None;
    let mut pending: Option<Pending> = None;
    let (mut total_acked, mut kills) = (0u64, 0u64);

    for cycle in 0..cycles {
        let child = spawn_server(&server_bin, &index_path, &wal_path, &addr, checkpoint_every)?;
        let mut client = connect_patiently(&addr)?;
        reconcile_and_verify(
            &mut client,
            &mut model,
            &mut acked_epoch,
            &mut pending,
            base_len,
        )
        .map_err(|e| format!("cycle {}: {e}", cycle + 1))?;
        let verified = model.len();

        let child = std::sync::Arc::new(std::sync::Mutex::new(child));
        let delay =
            Duration::from_millis(kill_min + xorshift(&mut rng) % (kill_max - kill_min + 1));
        let killer = {
            let child = std::sync::Arc::clone(&child);
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                let _ = child.lock().expect("child handle").kill();
            })
        };
        let acked = churn_until_killed(
            &mut client,
            &mut model,
            acked_epoch.as_mut().expect("epoch known after first boot"),
            &mut pending,
            &mut next_width,
            &mut rng,
        )
        .map_err(|e| format!("cycle {}: {e}", cycle + 1))?;
        killer.join().map_err(|_| "killer thread panicked")?;
        child
            .lock()
            .expect("child handle")
            .wait()
            .map_err(|e| format!("reaping the killed server: {e}"))?;
        kills += 1;
        total_acked += acked;
        println!(
            "crash: cycle {} — recovered + verified {verified} acknowledged signatures, \
             acked {acked} more writes, then SIGKILL after {delay:?}",
            cycle + 1
        );
    }

    // The clean path: recover once more, verify, then `shutdown` must
    // drain, checkpoint, and exit 0 — twice, so the boot after a drain
    // checkpoint is verified too.
    for round in 0..2u32 {
        let mut child = spawn_server(&server_bin, &index_path, &wal_path, &addr, checkpoint_every)?;
        let mut client = connect_patiently(&addr)?;
        reconcile_and_verify(
            &mut client,
            &mut model,
            &mut acked_epoch,
            &mut pending,
            base_len,
        )
        .map_err(|e| format!("clean round {}: {e}", round + 1))?;
        let reply = client
            .call("shutdown")
            .map_err(|e| format!("shutdown: {e}"))?;
        if !reply.starts_with("ok draining") {
            return Err(format!("shutdown: server said {reply:?}"));
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the draining server: {e}"))?;
        if !status.success() {
            return Err(format!("clean shutdown exited with {status}, expected 0"));
        }
    }
    println!(
        "crash: ok — survived {kills} SIGKILLs, {total_acked} acknowledged writes recovered \
         exactly; final live set {base_len}+{} signatures, epoch {}",
        model.len(),
        acked_epoch.unwrap_or(0)
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// fleet: scatter-gather kill-one-shard soak
// ---------------------------------------------------------------------------

/// `(id, distance-bits)` pairs — exact hit comparison, no float tolerance.
fn exact_key(hits: &[ned_core::WireHit]) -> Vec<(u64, u64)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

fn monolith_key(resp: ned_core::Response) -> Result<Vec<(u64, u64)>, String> {
    match resp {
        ned_core::Response::Hits { hits, .. } => {
            Ok(hits.iter().map(|h| (h.id, h.distance.to_bits())).collect())
        }
        other => Err(format!("monolith answered {other:?}, expected hits")),
    }
}

/// Every probe shape, knn'd through the router and through the monolith:
/// the fleet answer must be bit-identical, hit for hit.
fn fleet_probe(
    router: &ned_index::ShardRouter,
    monolith: &ned_index::NedServer,
    shapes: &[String],
    label: &str,
) -> Result<usize, String> {
    for (i, shape) in shapes.iter().enumerate() {
        let want = monolith_key(
            monolith
                .execute(&ned_core::Request::Sig {
                    shape: shape.clone(),
                    top: 7,
                    within: None,
                })
                .map_err(|e| format!("{label}: monolith probe {i}: {e}"))?,
        )?;
        let got = router
            .knn(shape, 7, None)
            .map_err(|e| format!("{label}: fleet knn probe {i}: {e}"))?;
        if exact_key(&got.hits) != want {
            return Err(format!(
                "{label}: DIVERGENCE on probe {i}: fleet {:?} vs monolith {want:?}",
                exact_key(&got.hits)
            ));
        }
    }
    Ok(shapes.len())
}

/// One round of mirrored write churn: the same operation lands on the
/// fleet (via the router) and on the monolith, and every visible outcome
/// — assigned id, freshness, removal visibility — must agree.
fn fleet_churn_round(
    router: &ned_index::ShardRouter,
    monolith: &ned_index::NedServer,
    round: usize,
    next_width: &mut usize,
    id_space: u64,
) -> Result<(), String> {
    use ned_core::{Request, Response};
    match round % 3 {
        0 => {
            let width = *next_width;
            *next_width += 1;
            let shape = star_shape(width);
            let fleet_id = router
                .insert_shape(&shape)
                .map_err(|e| format!("round {round}: fleet insert: {e}"))?;
            match monolith
                .execute(&Request::AddSig { shape })
                .map_err(|e| format!("round {round}: monolith addsig: {e}"))?
            {
                Response::Added { id } if id == fleet_id => Ok(()),
                Response::Added { id } => Err(format!(
                    "round {round}: id streams diverged — fleet {fleet_id}, monolith {id}"
                )),
                other => Err(format!("round {round}: monolith answered {other:?}")),
            }
        }
        1 => {
            let id = (round as u64 * 13) % id_space;
            let width = *next_width;
            *next_width += 1;
            let shape = star_shape(width);
            let (fresh, _epoch) = router
                .put_shape(id, &shape)
                .map_err(|e| format!("round {round}: fleet put {id}: {e}"))?;
            match monolith
                .execute(&Request::PutSig { id, shape })
                .map_err(|e| format!("round {round}: monolith putsig: {e}"))?
            {
                Response::Put { fresh: mf, .. } if mf == fresh => Ok(()),
                Response::Put { fresh: mf, .. } => Err(format!(
                    "round {round}: putsig freshness diverged on id {id} — \
                     fleet {fresh}, monolith {mf}"
                )),
                other => Err(format!("round {round}: monolith answered {other:?}")),
            }
        }
        _ => {
            let id = (round as u64 * 29) % id_space;
            let fleet_existed = router
                .remove(id)
                .map_err(|e| format!("round {round}: fleet remove {id}: {e}"))?;
            match monolith
                .execute(&Request::Remove { id })
                .map_err(|e| format!("round {round}: monolith remove: {e}"))?
            {
                Response::Removed { existed, .. } if existed == fleet_existed => Ok(()),
                Response::Removed { existed, .. } => Err(format!(
                    "round {round}: removal visibility diverged on id {id} — \
                     fleet {fleet_existed}, monolith {existed}"
                )),
                other => Err(format!("round {round}: monolith answered {other:?}")),
            }
        }
    }
}

fn cmd_fleet(raw: &[String]) -> Result<(), String> {
    use ned_index::{NedServer, RouterOptions, ShardProcess, ShardRouter};

    let flags = Flags::parse(raw)?;
    let server_bin = flags.require("server-bin")?.to_string();
    let index_path = flags.require("index")?.to_string();
    let shards: usize = flags.get("shards", 3)?;
    if shards < 2 {
        return Err("--shards must be >= 2 (the soak kills one and keeps serving)".into());
    }
    let rounds: usize = flags.get("rounds", 24)?;
    let dir: String = flags.get("dir", format!("{index_path}.fleet"))?;
    let seed: u64 = flags.get("seed", 0xF1EE7)?;

    // The unsplit index is both the fleet's source and the monolith
    // oracle the fleet must stay bit-identical to.
    let local =
        SignatureIndex::load(Path::new(&index_path)).map_err(|e| format!("{index_path}: {e}"))?;
    let k = local.k();
    let next_id = local.next_id();
    let shapes: Vec<String> = local
        .entries()
        .enumerate()
        .filter(|(i, _)| i % (local.len() / 16).max(1) == 0)
        .map(|(_, (_, sig))| ned_tree::serialize::print(sig.tree()))
        .collect();
    if shapes.is_empty() {
        return Err("index file holds no signatures to probe with".into());
    }
    // Star widths past anything indexed: churn inserts can never collide
    // with historical shapes, keeping freshness/visibility unambiguous.
    let mut next_width = local
        .entries()
        .map(|(_, sig)| sig.tree().max_width())
        .max()
        .unwrap_or(1)
        + 1;
    let (map, parts) = ned_index::split_index(&local, shards);
    let monolith = NedServer::new(local, 1, 1);

    // One WAL-backed serve child per shard — the WAL is what makes the
    // SIGKILL survivable without losing acknowledged writes.
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut fleet: Vec<ShardProcess> = Vec::with_capacity(shards);
    for (s, part) in parts.iter().enumerate() {
        let path = Path::new(&dir).join(format!("s{s}.idx"));
        part.save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let wal = Path::new(&dir).join(format!("s{s}.wal"));
        let _ = std::fs::remove_file(&wal); // a fresh soak, not a recovery
        let shard = ShardProcess::spawn(
            Path::new(&server_bin),
            &path,
            "127.0.0.1:0",
            Some(&wal),
            &[],
        )
        .map_err(|e| format!("spawning shard {s}: {e}"))?;
        println!(
            "fleet: shard {s} — {} signatures, pid {}, tcp://{}",
            part.len(),
            shard.pid(),
            shard.addr()
        );
        fleet.push(shard);
    }
    let opts = RouterOptions {
        k,
        next_id,
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        retry_attempts: 2,
        read_rounds: 3,
        quorum: 0,
    };
    let replicas: Vec<Vec<String>> = fleet.iter().map(|s| vec![s.addr().to_string()]).collect();
    let router = ShardRouter::connect(map, replicas, opts).map_err(|e| e.to_string())?;
    println!(
        "fleet: {}",
        router.stats_line().lines().next().unwrap_or("")
    );
    let id_space = next_id + rounds as u64;
    let _ = seed; // churn is deterministic by round; the seed names the run

    // --- phase 1: healthy churn -----------------------------------------
    for round in 0..rounds / 2 {
        fleet_churn_round(&router, &monolith, round, &mut next_width, id_space)?;
        if round % 4 == 3 {
            fleet_probe(&router, &monolith, &shapes, "healthy churn")?;
        }
    }
    fleet_probe(&router, &monolith, &shapes, "after healthy churn")?;
    println!("fleet: healthy churn ok ({} mirrored writes)", rounds / 2);

    // --- phase 2: SIGKILL shard 0, demand loud degradation ---------------
    let victim_addr = fleet[0].addr().to_string();
    let victim_path = fleet[0].index_path().to_path_buf();
    let victim_wal = Path::new(&dir).join("s0.wal");
    fleet[0]
        .kill()
        .map_err(|e| format!("killing shard 0: {e}"))?;
    println!("fleet: SIGKILLed shard 0 (was {victim_addr})");

    // Scatter reads need every shard: they must fail *retryably* — never
    // hang, never succeed with silently missing hits.
    match router.knn(&shapes[0], 5, None) {
        Ok(_) => {
            return Err("knn succeeded with a dead shard — the scatter lost hits silently".into())
        }
        Err(e) if e.is_retryable() => {}
        Err(e) => return Err(format!("degraded knn failed non-retryably: {e}")),
    }
    // Writes owned by the dead shard fail retryably and are NOT acked...
    let victim_id = router.map().starts()[1].saturating_sub(1);
    match router.put_shape(victim_id, &star_shape(next_width)) {
        Ok(_) => return Err(format!("put id={victim_id} succeeded on a dead shard")),
        Err(e) if e.is_retryable() => {}
        Err(e) => return Err(format!("degraded put failed non-retryably: {e}")),
    }
    // ...while auto-assigned inserts (owned by the last, living shard)
    // keep landing, mirrored on both sides.
    let mut degraded_ids: Vec<(u64, usize)> = Vec::new();
    for _ in 0..3 {
        let width = next_width;
        next_width += 1;
        let shape = star_shape(width);
        let id = router
            .insert_shape(&shape)
            .map_err(|e| format!("degraded insert: {e}"))?;
        match monolith
            .execute(&ned_core::Request::AddSig { shape })
            .map_err(|e| format!("degraded monolith addsig: {e}"))?
        {
            ned_core::Response::Added { id: mid } if mid == id => degraded_ids.push((id, width)),
            other => return Err(format!("degraded id streams diverged: {id} vs {other:?}")),
        }
    }
    println!(
        "fleet: degraded mode ok — reads and victim writes failed retryably, \
         {} inserts still acked on surviving shards",
        degraded_ids.len()
    );

    // --- phase 3: respawn shard 0 from its durable files ------------------
    let mut revived = None;
    for _ in 0..40 {
        match ShardProcess::spawn(
            Path::new(&server_bin),
            &victim_path,
            &victim_addr,
            Some(&victim_wal),
            &[],
        ) {
            Ok(p) => {
                revived = Some(p);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    fleet[0] = revived.ok_or(format!(
        "could not respawn shard 0 on {victim_addr} within 10s"
    ))?;
    println!(
        "fleet: respawned shard 0 (pid {}) on {victim_addr}",
        fleet[0].pid()
    );

    // Recovery contract: bit-identical again, and every write acked
    // during degradation is present (each star is unique in the index,
    // so its top-1 must be exactly its own id at distance 0). The failed
    // degraded put must NOT have half-applied — the probe sweep above
    // would diverge from the monolith if it had.
    fleet_probe(&router, &monolith, &shapes, "after respawn")?;
    for &(id, width) in &degraded_ids {
        let got = router
            .knn(&star_shape(width), 1, None)
            .map_err(|e| format!("post-respawn probe for id {id}: {e}"))?;
        let first = got.hits.first().map(|h| (h.id, h.distance));
        if first != Some((id, 0.0)) {
            return Err(format!(
                "acked degraded-mode insert {id} went missing after respawn: {first:?}"
            ));
        }
    }

    // --- phase 4: churn again, now touching the recovered shard too -------
    for round in rounds / 2..rounds {
        fleet_churn_round(&router, &monolith, round, &mut next_width, id_space)?;
        if round % 4 == 3 {
            fleet_probe(&router, &monolith, &shapes, "post-recovery churn")?;
        }
    }
    let checked = fleet_probe(&router, &monolith, &shapes, "final")?;
    let (_epoch_sum, fleet_len) = router.epoch().map_err(|e| e.to_string())?;
    let mono_len = match monolith
        .execute(&ned_core::Request::Epoch)
        .map_err(|e| e.to_string())?
    {
        ned_core::Response::Epoch { len, .. } => len,
        other => return Err(format!("monolith epoch answered {other:?}")),
    };
    if fleet_len != mono_len {
        return Err(format!(
            "fleet live set {fleet_len} != monolith {mono_len} after the soak"
        ));
    }

    let acked = router.shutdown_fleet();
    for shard in &mut fleet {
        shard
            .wait_or_kill(Duration::from_secs(5))
            .map_err(|e| format!("draining shard: {e}"))?;
    }
    println!(
        "fleet: ok — {rounds} mirrored writes + {} degraded-mode inserts across a shard \
         SIGKILL/respawn, {checked} final probes bit-identical to the monolith, live set \
         {fleet_len} reconciled, {acked} replica(s) drained",
        degraded_ids.len()
    );

    // --- phase 5: replicated catch-up — a replica SIGKILLed mid-churn and
    // respawned from a *stale* checkpoint (its WAL gone) must stream the
    // missing WAL suffix from a peer and rejoin bit-identical, while
    // quorum writes (2 of 3) never stop acking. The monolith stays the
    // oracle: the replicated shard is seeded from its post-soak state and
    // every write lands on both sides.
    let seed_path = Path::new(&dir).join("replica-seed.idx");
    match monolith
        .execute(&ned_core::Request::Save {
            path: seed_path.display().to_string(),
        })
        .map_err(|e| format!("saving replica seed: {e}"))?
    {
        ned_core::Response::Ok { .. } => {}
        other => return Err(format!("replica seed save answered {other:?}")),
    }
    // Fixed ports so the stale respawn can rebind the victim's address; a
    // huge --checkpoint-every keeps the peers' WAL suffix streamable for
    // the whole leg (a checkpoint would reset the log base).
    let ports = ned_index::fleet::free_loopback_ports(3).map_err(|e| e.to_string())?;
    let extra = vec!["--checkpoint-every".to_string(), "1000000".to_string()];
    let mut replicas: Vec<ShardProcess> = Vec::with_capacity(3);
    let mut replica_files: Vec<(PathBuf, PathBuf)> = Vec::with_capacity(3);
    for (r, port) in ports.iter().enumerate() {
        let path = Path::new(&dir).join(format!("replica{r}.idx"));
        std::fs::copy(&seed_path, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        let wal = Path::new(&dir).join(format!("replica{r}.wal"));
        let _ = std::fs::remove_file(&wal);
        let proc = ShardProcess::spawn(
            Path::new(&server_bin),
            &path,
            &format!("127.0.0.1:{port}"),
            Some(&wal),
            &extra,
        )
        .map_err(|e| format!("spawning replica {r}: {e}"))?;
        println!(
            "fleet: replica {r} — pid {}, tcp://{}",
            proc.pid(),
            proc.addr()
        );
        replica_files.push((path, wal));
        replicas.push(proc);
    }
    let replica_addrs: Vec<String> = replicas.iter().map(|p| p.addr().to_string()).collect();
    let quorum_router = ShardRouter::connect(
        ned_index::ShardMap::new(vec![0])?,
        vec![replica_addrs.clone()],
        RouterOptions {
            k,
            next_id: id_space + 10_000,
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            retry_attempts: 2,
            read_rounds: 3,
            quorum: 0, // majority: 2 of 3
        },
    )
    .map_err(|e| e.to_string())?;

    let replicated_put = |id: u64, width: usize| -> Result<(), String> {
        let shape = star_shape(width);
        quorum_router
            .put_shape(id, &shape)
            .map_err(|e| format!("replicated put {id}: {e}"))?;
        match monolith
            .execute(&ned_core::Request::PutSig { id, shape })
            .map_err(|e| format!("monolith mirror put {id}: {e}"))?
        {
            ned_core::Response::Put { .. } => Ok(()),
            other => Err(format!("monolith mirror put answered {other:?}")),
        }
    };
    let mut rid = id_space + 1;
    for _ in 0..8 {
        replicated_put(rid, next_width)?;
        rid += 1;
        next_width += 1;
    }
    fleet_probe(
        &quorum_router,
        &monolith,
        &shapes,
        "replicated healthy churn",
    )?;

    // SIGKILL replica 2 mid-churn: writes must keep acking on the
    // surviving majority, reads must keep answering bit-identically.
    let victim_addr = replicas[2].addr().to_string();
    replicas[2]
        .kill()
        .map_err(|e| format!("killing replica 2: {e}"))?;
    for _ in 0..6 {
        replicated_put(rid, next_width)?;
        rid += 1;
        next_width += 1;
    }
    fleet_probe(
        &quorum_router,
        &monolith,
        &shapes,
        "replicated degraded churn",
    )?;
    println!(
        "fleet: replica 2 SIGKILLed (was {victim_addr}) — 6 quorum writes acked by the survivors"
    );

    // Rewind the victim to the pre-churn checkpoint with no WAL: a
    // same-files respawn would self-recover from its own log, so this is
    // the crash shape that *requires* streaming the suffix from a peer.
    std::fs::copy(&seed_path, &replica_files[2].0)
        .map_err(|e| format!("rewinding replica 2 checkpoint: {e}"))?;
    std::fs::remove_file(&replica_files[2].1)
        .map_err(|e| format!("dropping replica 2 wal: {e}"))?;
    let mut revived = None;
    for _ in 0..40 {
        match ShardProcess::spawn(
            Path::new(&server_bin),
            &replica_files[2].0,
            &victim_addr,
            Some(&replica_files[2].1),
            &extra,
        ) {
            Ok(p) => {
                revived = Some(p);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    replicas[2] = revived.ok_or(format!(
        "could not respawn replica 2 on {victim_addr} within 10s"
    ))?;

    // One anti-entropy pass detects the stale epoch and drives the
    // WAL-suffix catch-up from a healthy peer.
    let report = quorum_router
        .probe_health()
        .map_err(|e| format!("health probe: {e}"))?;
    if !report.contains("rejoined after catch-up") {
        return Err(format!("probe did not heal the stale replica:\n{report}"));
    }

    // Bit-identical rejoin: every replica's (epoch, len, fingerprint)
    // triple must match exactly, and the fleet must still mirror the
    // monolith probe for probe.
    let mut prints: Vec<(u64, u64, u64)> = Vec::with_capacity(3);
    for addr in &replica_addrs {
        let mut client =
            ned_index::WireClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        match client
            .request(&ned_core::Request::Fingerprint)
            .map_err(|e| format!("{addr}: fingerprint: {e}"))?
        {
            ned_core::Response::Fingerprint { epoch, len, hash } => prints.push((epoch, len, hash)),
            other => return Err(format!("{addr}: fingerprint answered {other:?}")),
        }
    }
    if prints[0] != prints[1] || prints[0] != prints[2] {
        return Err(format!(
            "replica fingerprints diverged after catch-up: {prints:?}"
        ));
    }
    fleet_probe(&quorum_router, &monolith, &shapes, "after catch-up")?;

    let acked = quorum_router.shutdown_fleet();
    for replica in &mut replicas {
        replica
            .wait_or_kill(Duration::from_secs(5))
            .map_err(|e| format!("draining replica: {e}"))?;
    }
    println!(
        "fleet: catch-up leg ok — stale respawn streamed the WAL suffix and rejoined \
         bit-identical (fingerprint {:016x} @ epoch {} on all 3 replicas), {acked} \
         replica(s) drained",
        prints[0].2, prints[0].0
    );
    Ok(())
}
