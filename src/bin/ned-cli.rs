//! `ned-cli` — command-line interface to the NED reproduction.
//!
//! ```text
//! ned-cli gen <dataset> <out.edges> [--scale F] [--seed N]
//! ned-cli stats <graph.edges>
//! ned-cli dist <g1.edges> <u> <g2.edges> <v> [--k N] [--directed]
//! ned-cli knn <g1.edges> <u> <g2.edges> [--k N] [--top N]
//! ned-cli deanon <graph.edges> [--method naive|sparsify|perturb]
//!                [--ratio F] [--k N] [--top N] [--samples N] [--seed N]
//! ned-cli hausdorff <g1.edges> <g2.edges> [--k N] [--sample N] [--seed N]
//! ned-cli index build <out.idx> <graph.edges> [--k N]
//! ned-cli index add <idx> <graph.edges> [--out PATH]
//! ned-cli index query <idx> <graph.edges> <node> [--top N] [--radius R]
//!                     [--threads N] [--verify] [--sketch exact|approx]
//! ned-cli index save <idx> <out.idx>
//! ned-cli index load <idx>
//! ned-cli index split <idx> --shards N [--out-prefix P]
//! ned-cli serve <idx> [--tcp ADDR] [--threads N] [--pool N] [--graph PATH]
//!                     [--wal PATH] [--checkpoint-every N] [--fsync MODE]
//!                     [--max-conns N] [--sketch exact|approx]
//! ned-cli route <idx> --shards N [--replicas R] [--tcp ADDR]
//!                     [--shard-dir D] [--wal-dir D] [--quorum Q]
//! ned-cli route --attach a1|a2,b1,... --bounds 0,x,... [--next-id N]
//!                     [--k N] [--tcp ADDR]
//! ```

use ned::baselines::features::{l1_distance, RefexFeatures};
use ned::core::{batch, edit_script};
use ned::datasets::Dataset;
use ned::graph::anonymize::{anonymize, Method};
use ned::graph::{io, stats};
use ned::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::process::ExitCode;

/// `println!` that survives a closed stdout (`ned-cli ... | head -1`):
/// every stdout line goes through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. Once the reader has gone (`BrokenPipe`) output is
/// dropped and the command runs to its end, so `serve` still
/// checkpoints, `route` still drains its fleet, and the exit code is 0.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            panic!("failed printing to stdout: {e}")
        }
        _ => {}
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("dist") => cmd_dist(&args[1..]),
        Some("knn") => cmd_knn(&args[1..]),
        Some("deanon") => cmd_deanon(&args[1..]),
        Some("hausdorff") => cmd_hausdorff(&args[1..]),
        Some("classes") => cmd_classes(&args[1..]),
        Some("suggest-k") => cmd_suggest_k(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `ned-cli help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    out!(
        "NED: inter-graph node similarity based on edit distance (VLDB'17 reproduction)\n\
         \n\
         commands:\n\
         \x20 gen <dataset> <out.edges> [--scale F] [--seed N]   generate a dataset stand-in\n\
         \x20    datasets: car par amzn dblp gnu pgp\n\
         \x20 stats <graph.edges>                                summarize a graph\n\
         \x20 dist <g1> <u> <g2> <v> [--k N] [--directed]        NED between two nodes\n\
         \x20 knn <g1> <u> <g2> [--k N] [--top N]                most similar nodes in g2\n\
         \x20 deanon <graph> [--method M] [--ratio F] [--k N] [--top N] [--samples N] [--seed N]\n\
         \x20 hausdorff <g1> <g2> [--k N] [--sample N] [--seed N]  whole-graph distance\n\
         \x20 classes <graph> [--k N] [--show N]                 structural equivalence classes\n\
         \x20 suggest-k <graph> [--target N] [--samples N]       pick a k for this graph\n\
         \x20 index build <out.idx> <graph> [--k N]              build + save a persistent signature index\n\
         \x20                                                    (shared-frontier hash-consed ingest)\n\
         \x20 index add <idx> <graph> [--out PATH]               index another graph's signatures\n\
         \x20 index query <idx> <graph> <node> [--top N] [--radius R] [--threads N] [--verify]\n\
         \x20       [--sketch exact|approx]                      --radius R: bounded threshold query;\n\
         \x20                                                    --sketch routes through the sketch filter\n\
         \x20                                                    tier (exact, the default, is bit-identical\n\
         \x20                                                    to a full scan; approx trades recall)\n\
         \x20 index save <idx> <out.idx>                         re-encode (verifies the file round-trips)\n\
         \x20 index load <idx>                                   load + print index stats\n\
         \x20 index split <idx> --shards N [--out-prefix P]      partition into N per-shard indexes by id\n\
         \x20                                                    range; prints the --bounds/--next-id a\n\
         \x20                                                    detached `route --attach` needs\n\
         \x20 serve <idx> [--tcp ADDR] [--threads N] [--pool N]  long-lived serving: stdin REPL, or a\n\
         \x20       [--graph PATH] [--wal PATH]                  concurrent TCP server with --tcp;\n\
         \x20       [--sketch exact|approx]                      --sketch overrides the persisted query\n\
         \x20                                                    routing mode for this serving run;\n\
         \x20       [--checkpoint-every N] [--fsync MODE]        --graph pre-tracks a mutating graph\n\
         \x20       [--max-conns N]                              for addedge/deledge deltas;\n\
         \x20                                                    --wal makes writes crash-safe: replay\n\
         \x20                                                    the log over the newest checkpoint at\n\
         \x20                                                    boot, journal every batch before the\n\
         \x20                                                    ack, checkpoint every N batches\n\
         \x20                                                    (--fsync per-batch | every-<n> | os)\n\
         \x20 route <idx> --shards N [--replicas R] [--tcp ADDR] scatter-gather coordinator: split <idx>\n\
         \x20       [--shard-dir D] [--wal-dir D] [--quorum Q]   into N id-range shards, spawn R serve\n\
         \x20                                                    processes per shard (--wal-dir makes\n\
         \x20                                                    them crash-safe), and route queries and\n\
         \x20                                                    writes over the fleet — answers are\n\
         \x20                                                    bit-identical to serving <idx> whole;\n\
         \x20                                                    writes ack on --quorum replicas per\n\
         \x20                                                    shard (0 = majority), laggards catch\n\
         \x20                                                    up by streaming the WAL suffix\n\
         \x20 route --attach a1|a2,b1,... --bounds 0,x,...       same coordinator over already-running\n\
         \x20       [--next-id N] [--k N] [--tcp ADDR]           shards: comma-separated shard groups of\n\
         \x20                                                    |-separated replicas, with the id bounds\n\
         \x20                                                    and next id `index split` printed\n"
    );
}

/// Tiny flag parser: positional args and `--flag value` pairs, checked
/// against the flags and switches the command declares.
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// `flags` take a value, `switches` do not; any other `--name` is an
    /// error, raised before the command has done anything.
    fn parse(raw: &'a [String], flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < raw.len() {
            let tok = raw[i].as_str();
            if let Some(name) = tok.strip_prefix("--") {
                if switches.contains(&name) {
                    out.switches.push(name);
                } else if flags.contains(&name) {
                    let value = raw
                        .get(i + 1)
                        .ok_or_else(|| format!("missing value for --{name}"))?;
                    out.flags.push((name, value.as_str()));
                    i += 1;
                } else {
                    return Err(format!("unknown flag --{name}; try `ned-cli help`"));
                }
            } else {
                out.positional.push(tok);
            }
            i += 1;
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.opt(name).map(|v| v.unwrap_or(default))
    }

    /// A flag that changes behavior by its mere presence: `Ok(None)` when
    /// absent, `Ok(Some(parsed))` when given.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|&&(n, _)| n == name) {
            Some(&(_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("cannot parse --{name} value {v:?}")),
            None => Ok(None),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(idx)
            .copied()
            .ok_or_else(|| format!("missing argument: {what}"))
    }
}

fn load(path: &str, directed: bool) -> Result<Graph, String> {
    io::read_edge_list(Path::new(path), directed).map_err(|e| format!("{path}: {e}"))
}

fn parse_node(g: &Graph, s: &str) -> Result<NodeId, String> {
    let v: NodeId = s.parse().map_err(|_| format!("bad node id {s:?}"))?;
    if (v as usize) < g.num_nodes() {
        Ok(v)
    } else {
        Err(format!(
            "node {v} out of range (graph has {} nodes)",
            g.num_nodes()
        ))
    }
}

fn cmd_gen(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["scale", "seed"], &[])?;
    let name = args.positional(0, "dataset name")?;
    let out = args.positional(1, "output path")?;
    let scale: f64 = args.get("scale", 0.01)?;
    let seed: u64 = args.get("seed", 42)?;
    let dataset = match name.to_ascii_lowercase().as_str() {
        "car" => Dataset::CaRoad,
        "par" => Dataset::PaRoad,
        "amzn" | "amazon" => Dataset::Amazon,
        "dblp" => Dataset::Dblp,
        "gnu" | "gnutella" => Dataset::Gnutella,
        "pgp" => Dataset::Pgp,
        other => return Err(format!("unknown dataset {other:?}")),
    };
    let g = dataset.generate(scale, seed);
    io::write_edge_list(&g, Path::new(out)).map_err(|e| e.to_string())?;
    out!(
        "{}: wrote {} nodes / {} edges to {out}",
        dataset.abbrev(),
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_stats(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &["directed"])?;
    let g = load(args.positional(0, "graph path")?, args.has("directed"))?;
    let s = stats::graph_stats(&g);
    out!("nodes:         {}", s.nodes);
    out!("edges:         {}", s.edges);
    out!("avg degree:    {:.3}", s.avg_degree);
    out!("max degree:    {}", s.max_degree);
    out!("isolated:      {}", s.isolated);
    out!("components:    {}", s.components);
    if !g.is_directed() {
        out!("triangles:     {}", stats::triangle_count(&g));
        out!("assortativity: {:.4}", stats::degree_assortativity(&g));
    }
    Ok(())
}

fn cmd_dist(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["k"], &["directed"])?;
    let directed = args.has("directed");
    let g1 = load(args.positional(0, "first graph")?, directed)?;
    let g2 = load(args.positional(2, "second graph")?, directed)?;
    let u = parse_node(&g1, args.positional(1, "first node")?)?;
    let v = parse_node(&g2, args.positional(3, "second node")?)?;
    let k: usize = args.get("k", 3)?;
    if directed {
        let d = ned::core::ned_directed(&g1, u, &g2, v, k);
        out!("directed NED_k={k}({u}, {v}) = {d}");
    } else {
        let d = ned(&g1, u, &g2, v, k);
        out!("NED_k={k}({u}, {v}) = {d}");
        let t1 = k_adjacent_tree(&g1, u, k);
        let t2 = k_adjacent_tree(&g2, v, k);
        out!("T({u},{k}): {t1:?}");
        out!("T({v},{k}): {t2:?}");
        out!("{}", edit_script::explain(&t1, &t2).describe());
        if t1.len() <= 24 && t2.len() <= 24 {
            use ned::tree::{ahu, serialize};
            out!("\nT({u},{k}) canonical:");
            emit(format_args!(
                "{}",
                serialize::render_ascii(&ahu::canonical_form(&t1))
            ));
            out!("T({v},{k}) canonical:");
            emit(format_args!(
                "{}",
                serialize::render_ascii(&ahu::canonical_form(&t2))
            ));
        }
    }
    Ok(())
}

fn cmd_knn(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["k", "top"], &[])?;
    let g1 = load(args.positional(0, "query graph")?, false)?;
    let g2 = load(args.positional(2, "database graph")?, false)?;
    let u = parse_node(&g1, args.positional(1, "query node")?)?;
    let k: usize = args.get("k", 3)?;
    let top: usize = args.get("top", 5)?;
    let query = signatures(&g1, &[u], k);
    let db_nodes: Vec<NodeId> = g2.nodes().collect();
    let db = signatures(&g2, &db_nodes, k);
    let hits = batch::knn_batch(&query, &db, top, 0);
    out!("top-{top} matches for node {u} (k = {k}) in the database graph:");
    for (rank, &(d, node)) in hits[0].iter().enumerate() {
        out!("  {:>2}. node {node:>8}  NED = {d}", rank + 1);
    }
    Ok(())
}

fn cmd_deanon(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["k", "top", "samples", "ratio", "seed", "method"],
        &[],
    )?;
    let g = load(args.positional(0, "graph path")?, false)?;
    let k: usize = args.get("k", 3)?;
    let top: usize = args.get("top", 5)?;
    let samples: usize = args.get("samples", 100)?;
    let ratio: f64 = args.get("ratio", 0.05)?;
    let seed: u64 = args.get("seed", 42)?;
    let method = match args.get::<String>("method", "perturb".into())?.as_str() {
        "naive" => Method::Naive,
        "sparsify" => Method::Sparsify(ratio),
        "perturb" => Method::Perturb(ratio),
        other => return Err(format!("unknown method {other:?}")),
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let anon = anonymize(&g, method, &mut rng);
    let all: Vec<NodeId> = g.nodes().collect();
    let known = signatures(&g, &all, k);
    let sample: Vec<NodeId> = (0..samples)
        .map(|_| rng.gen_range(0..g.num_nodes()) as NodeId)
        .collect();
    let queries: Vec<NodeId> = sample.iter().map(|&s| anon.mapping[s as usize]).collect();
    let query_sigs = signatures(&anon.graph, &queries, k);
    let ranked = batch::knn_batch(&query_sigs, &known, top, 0);
    let ned_hits = sample
        .iter()
        .zip(&ranked)
        .filter(|&(&truth, hits)| hits.iter().any(|&(_, n)| n == truth))
        .count();

    // Feature-based comparison (published ReFeX: log-binned), same protocol.
    let train_feats = RefexFeatures::compute_binned(&g, k - 1, 0.5);
    let anon_feats = RefexFeatures::compute_binned(&anon.graph, k - 1, 0.5);
    let feat_hits = sample
        .iter()
        .filter(|&&truth| {
            let fq = anon_feats.features(anon.mapping[truth as usize]);
            let mut dists: Vec<(f64, NodeId)> = all
                .iter()
                .map(|&c| (l1_distance(fq, train_feats.features(c)), c))
                .collect();
            dists.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            dists.iter().take(top).any(|&(_, n)| n == truth)
        })
        .count();

    out!(
        "de-anonymization ({}, ratio {ratio}, k = {k}, top-{top}, {} queries):",
        method.name(),
        sample.len()
    );
    out!(
        "  NED precision:     {:.3}",
        ned_hits as f64 / sample.len() as f64
    );
    out!(
        "  Feature precision: {:.3}",
        feat_hits as f64 / sample.len() as f64
    );
    Ok(())
}

fn cmd_classes(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["k", "show"], &[])?;
    let g = load(args.positional(0, "graph path")?, false)?;
    let k: usize = args.get("k", 3)?;
    let show: usize = args.get("show", 5)?;
    let classes = ned::core::equivalence_classes(&g, k);
    let singletons = classes.iter().filter(|c| c.len() == 1).count();
    out!(
        "{} structural equivalence classes at k = {k} ({} singletons):",
        classes.len(),
        singletons
    );
    for (i, class) in classes.iter().take(show).enumerate() {
        let tree = k_adjacent_tree(&g, class[0], k);
        let canon = ned::tree::ahu::canonical_form(&tree);
        let mut shape = ned::tree::serialize::print(&canon);
        if shape.len() > 60 {
            shape.truncate(57);
            shape.push_str("...");
        }
        out!("  #{:<3} {:>6} nodes  shape {}", i + 1, class.len(), shape);
    }
    Ok(())
}

fn cmd_suggest_k(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["target", "samples", "seed"], &[])?;
    let g = load(args.positional(0, "graph path")?, false)?;
    let target: usize = args.get("target", 30)?;
    let samples: usize = args.get("samples", 50)?;
    let seed: u64 = args.get("seed", 42)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = ned::graph::bfs::suggest_k(&g, target, samples, &mut rng);
    out!("suggested k = {k} (median sampled tree reaches ~{target} nodes)");
    Ok(())
}

fn load_index(path: &str) -> Result<ned::index::SignatureIndex, String> {
    ned::index::SignatureIndex::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn save_index(index: &ned::index::SignatureIndex, path: &str) -> Result<(), String> {
    index
        .save(Path::new(path))
        .map_err(|e| format!("{path}: {e}"))
}

fn print_index_stats(index: &ned::index::SignatureIndex) {
    out!(
        "signatures: {} (k = {}), sketch mode {}",
        index.len(),
        index.k(),
        index.sketch_mode()
    );
}

fn cmd_index(raw: &[String]) -> Result<(), String> {
    match raw.first().map(String::as_str) {
        Some("build") => cmd_index_build(&raw[1..]),
        Some("add") => cmd_index_add(&raw[1..]),
        Some("query") => cmd_index_query(&raw[1..]),
        Some("save") => cmd_index_save(&raw[1..]),
        Some("load") => cmd_index_load(&raw[1..]),
        Some("split") => cmd_index_split(&raw[1..]),
        Some(other) => Err(format!(
            "unknown index subcommand {other:?}; try build/add/query/save/load/split"
        )),
        None => Err("missing index subcommand (build/add/query/save/load/split)".into()),
    }
}

fn cmd_index_build(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["k"], &[])?;
    let out = args.positional(0, "output index path")?;
    let graph_path = args.positional(1, "graph path")?;
    let g = load(graph_path, false)?;
    let k: usize = args.get("k", 3)?;
    let n = g.num_nodes();
    let t0 = std::time::Instant::now();
    // 1024 and 42 are the NEDIDX header's historical threshold and seed
    // words: nothing reads them, and writing the same values keeps
    // builds byte-identical until a format version retires the fields.
    let index = ned::index::SignatureIndex::from_graph(&g, k, 1024, 42, 0);
    let elapsed = t0.elapsed();
    save_index(&index, out)?;
    out!(
        "indexed {n} signatures of {graph_path} as ids 0..{n} -> {out} \
         (bulk ingest, {:.1} ms)",
        elapsed.as_secs_f64() * 1e3
    );
    print_index_stats(&index);
    Ok(())
}

fn cmd_index_add(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["out"], &[])?;
    let idx_path = args.positional(0, "index path")?;
    let graph_path = args.positional(1, "graph path")?;
    let out: String = args.get("out", idx_path.to_string())?;
    let mut index = load_index(idx_path)?;
    let g = load(graph_path, false)?;
    let nodes: Vec<NodeId> = g.nodes().collect();
    let ids = index.insert_graph(&g, &nodes);
    save_index(&index, &out)?;
    out!(
        "added {} signatures of {graph_path} as ids {}..{} -> {out}",
        nodes.len(),
        ids.start,
        ids.end
    );
    print_index_stats(&index);
    Ok(())
}

fn cmd_index_query(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["top", "threads", "radius", "sketch"], &["verify"])?;
    let mut index = load_index(args.positional(0, "index path")?)?;
    let g = load(args.positional(1, "query graph")?, false)?;
    let v = parse_node(&g, args.positional(2, "query node")?)?;
    let top_flag: Option<usize> = args.opt("top")?;
    let threads: usize = args.get("threads", 0)?;
    let radius: Option<u64> = args.opt("radius")?;
    if let Some(mode) = args.opt::<String>("sketch")? {
        index.set_sketch_mode(mode.parse()?);
    }
    let sig = NodeSignature::extract(&g, v, index.k());
    let hits = match radius {
        // Threshold query: the radius is the abandonment budget of every
        // exact TED* call — candidates past it stop mid-sweep instead of
        // being computed in full and filtered afterwards. All hits are
        // printed unless --top caps them.
        Some(r) => {
            let mut hits = index.range(&sig, r, threads);
            if let Some(top) = top_flag {
                hits.truncate(top);
            }
            out!(
                "signatures within NED <= {r} of node {v} among {} indexed (k = {}):",
                index.len(),
                index.k()
            );
            hits
        }
        None => {
            let top = top_flag.unwrap_or(5);
            let hits = index.query(&sig, top, threads);
            out!(
                "top-{top} of {} indexed signatures for node {v} (k = {}):",
                index.len(),
                index.k()
            );
            hits
        }
    };
    for (rank, h) in hits.iter().enumerate() {
        out!("  {:>2}. id {:>8}  NED = {}", rank + 1, h.id, h.distance);
    }
    if args.has("verify") {
        let slow = match radius {
            Some(r) => {
                let mut all = index.scan(&sig, index.len());
                all.retain(|h| h.distance <= r as f64);
                // Replicate the --top cap only when it was actually
                // given; an uncapped range query must match the filtered
                // scan in full, or dropped hits would still "verify".
                if let Some(top) = top_flag {
                    all.truncate(top);
                }
                all
            }
            None => index.scan(&sig, top_flag.unwrap_or(5)),
        };
        if hits == slow {
            out!(
                "verified: identical to the full scan ({} items)",
                index.len()
            );
        } else {
            return Err(format!(
                "index disagrees with full scan: {hits:?} vs {slow:?}"
            ));
        }
    }
    Ok(())
}

fn cmd_index_save(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &[])?;
    let src = args.positional(0, "index path")?;
    let dst = args.positional(1, "output path")?;
    let index = load_index(src)?;
    save_index(&index, dst)?;
    let back = load_index(dst)?;
    if back.len() != index.len() || back.k() != index.k() {
        return Err(format!("round-trip mismatch writing {dst}"));
    }
    out!(
        "re-encoded {src} -> {dst} ({} signatures, verified)",
        back.len()
    );
    Ok(())
}

fn cmd_index_load(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &[])?;
    let path = args.positional(0, "index path")?;
    let index = load_index(path)?;
    out!("{path}:");
    print_index_stats(&index);
    Ok(())
}

/// Splits an index into per-shard indexes on disk — the offline half of
/// standing up a fleet by hand. Prints the `--bounds` vector and
/// `--next-id` that `route --attach` needs to route over the parts.
fn cmd_index_split(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["shards", "out-prefix"], &[])?;
    let idx_path = args.positional(0, "index path")?;
    let shards: usize = args.get("shards", 3)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let prefix: String = args.get("out-prefix", format!("{idx_path}.s"))?;
    let index = load_index(idx_path)?;
    let (map, parts) = ned::index::split_index(&index, shards);
    for (s, part) in parts.iter().enumerate() {
        let out = format!("{prefix}{s}.idx");
        save_index(part, &out)?;
        out!(
            "shard {s}: {} signatures, ids >= {} -> {out}",
            part.len(),
            map.starts()[s]
        );
    }
    out!(
        "split {idx_path} ({} signatures) into {shards} shard(s)",
        index.len()
    );
    out!("  --bounds {map}");
    out!("  --next-id {}", index.next_id());
    Ok(())
}

/// Parses the `--fsync` mode: `per-batch` (sync every journaled batch),
/// `every-<n>` (sync once per `n` batches), or `os` (leave syncing to
/// the OS page cache — fast, but a power loss can lose the tail).
fn parse_fsync(mode: &str) -> Result<ned::core::wal::FsyncPolicy, String> {
    use ned::core::wal::FsyncPolicy;
    match mode {
        "per-batch" => Ok(FsyncPolicy::PerBatch),
        "os" | "never" => Ok(FsyncPolicy::Never),
        other => other
            .strip_prefix("every-")
            .and_then(|n| n.parse().ok())
            .map(FsyncPolicy::EveryN)
            .ok_or_else(|| format!("bad --fsync {other:?}; use per-batch, every-<n>, or os")),
    }
}

/// The stdin REPL of `serve` and `route`: one command per line, replies
/// on stdout, until `quit`, `shutdown`, end of input or a closed stdout.
fn repl<S: ned::index::Service>(server: &std::sync::Arc<S>) -> Result<(), String> {
    ned::index::front::repl(server, std::io::stdin().lock(), std::io::stdout())
        .map_err(|e| e.to_string())
}

/// Long-lived serving mode. Without `--tcp`, a stdin REPL: one command
/// per line, answers on stdout. With `--tcp ADDR`, a concurrent
/// thread-per-connection server speaking the framed batch protocol
/// (`ned_core::wire`). Both surfaces are thin clients of the *same*
/// [`ned::index::NedServer`] dispatch, so a command behaves identically
/// whether typed interactively or sent over a socket.
///
/// With `--wal PATH` the index is served **durably**: boot replays the
/// log over the newest checkpoint (truncating any torn tail), every
/// write batch is journaled before it is acknowledged, and a checkpoint
/// runs every `--checkpoint-every` batches plus once at clean shutdown.
fn cmd_serve(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[
            "tcp",
            "threads",
            "pool",
            "graph",
            "wal",
            "fsync",
            "checkpoint-every",
            "max-conns",
            "sketch",
        ],
        &[],
    )?;
    let idx_path = args.positional(0, "index path")?;
    let tcp: Option<String> = args.opt("tcp")?;
    // Intra-query fan-out: a single-user REPL may as well use every core
    // per query; a concurrent server leaves cores to concurrent requests.
    let threads: usize = args.get("threads", if tcp.is_some() { 1 } else { 0 })?;
    let pool: usize = args.get("pool", 0)?;
    let graph: Option<String> = args.opt("graph")?;
    let wal: Option<String> = args.opt("wal")?;
    let durable = match &wal {
        Some(wal_path) => {
            let opts = ned::index::DurableOptions {
                fsync: parse_fsync(&args.get::<String>("fsync", "per-batch".into())?)?,
                checkpoint_every: args.get("checkpoint-every", 64)?,
            };
            let (durable, report) =
                ned::index::DurableIndex::recover(Path::new(idx_path), Path::new(wal_path), opts)
                    .map_err(|e| format!("{idx_path} + {wal_path}: {e}"))?;
            out!("recovery: {report}");
            durable
        }
        None => ned::index::DurableIndex::ephemeral(load_index(idx_path)?),
    };
    let config = ned::index::ServerConfig {
        max_conns: args.get("max-conns", 256)?,
        ..Default::default()
    };
    if let Some(mode) = args.opt::<String>("sketch")? {
        durable.writer().set_sketch_mode(mode.parse()?);
    }
    let server = std::sync::Arc::new(
        ned::index::NedServer::with_durability(durable, threads, pool).with_config(config),
    );
    if let Some(graph_path) = graph {
        // Pre-track the mutating graph so addedge/deledge work without a
        // per-session `track` command.
        let g = load(&graph_path, false)?;
        let line = server.track(&g).map_err(|e| format!("{graph_path}: {e}"))?;
        out!("{line}");
    }
    match tcp {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            out!("serving {idx_path} on tcp://{local}");
            out!("{}", server.stats_line());
            server.serve_tcp(listener).map_err(|e| e.to_string())
        }
        None => {
            out!("serving {idx_path}; type `help` for commands");
            out!("{}", server.stats_line());
            repl(&server)?;
            // A clean REPL exit checkpoints too, so the next boot never
            // needs log replay.
            if let Some(epoch) = server.finalize().map_err(|e| e.to_string())? {
                out!("checkpointed at epoch {epoch}");
            }
            out!("bye");
            Ok(())
        }
    }
}

/// Scatter-gather coordinator over a shard fleet. Two modes:
///
/// * **Spawn** (`route <idx> --shards N [--replicas R]`): split the
///   index into N disjoint id-range shards, save each shard's index
///   under `--shard-dir` (one copy per replica), spawn `ned-cli serve
///   --tcp 127.0.0.1:0` children for every replica (crash-safe when
///   `--wal-dir` is given), and route over them. When the router
///   drains, the fleet is shut down and reaped.
/// * **Attach** (`route --attach a1|a2,b1 --bounds 0,x`): route over
///   shards something else already runs — `--attach` lists one
///   `|`-separated replica group per shard, `--bounds` the id ranges
///   (from `index split`). Detached shards outlive the router.
///
/// Either way the coordinator speaks the same typed protocol as a
/// single `serve` process, answers bit-identically to the unsplit
/// index, and fails over reads (retrying writes) when replicas die.
fn cmd_route(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[
            "tcp",
            "quorum",
            "attach",
            "bounds",
            "k",
            "next-id",
            "shards",
            "replicas",
            "shard-dir",
            "wal-dir",
        ],
        &[],
    )?;
    let tcp: Option<String> = args.opt("tcp")?;
    let mut opts = ned::index::RouterOptions {
        // 0 (the default) means a majority of each shard's replicas.
        quorum: args.get("quorum", 0usize)?,
        ..Default::default()
    };
    let attach: Option<String> = args.opt("attach")?;
    let mut fleet: Vec<ned::index::ShardProcess> = Vec::new();
    let router = match attach {
        Some(groups) => {
            let bounds: String = args.get("bounds", "0".into())?;
            let starts = bounds
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad --bounds entry {s:?}"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            let map = ned::index::ShardMap::new(starts)?;
            let replicas: Vec<Vec<String>> = groups
                .split(',')
                .map(|g| g.split('|').map(|a| a.trim().to_string()).collect())
                .collect();
            opts.k = args.get("k", opts.k)?;
            opts.next_id = args.get("next-id", 0)?;
            ned::index::ShardRouter::connect(map, replicas, opts).map_err(|e| e.to_string())?
        }
        None => {
            let idx_path = args.positional(0, "index path (or --attach)")?;
            let shards: usize = args.get("shards", 3)?;
            let per_shard: usize = args.get("replicas", 1)?;
            if shards == 0 || per_shard == 0 {
                return Err("--shards and --replicas must be >= 1".into());
            }
            let index = load_index(idx_path)?;
            opts.k = index.k();
            opts.next_id = index.next_id();
            let (map, parts) = ned::index::split_index(&index, shards);
            drop(index);
            let dir: String = args.get("shard-dir", format!("{idx_path}.fleet"))?;
            std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
            let wal_dir: Option<String> = args.opt("wal-dir")?;
            if let Some(d) = &wal_dir {
                std::fs::create_dir_all(d).map_err(|e| format!("{d}: {e}"))?;
            }
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut groups: Vec<Vec<String>> = Vec::new();
            for (s, part) in parts.iter().enumerate() {
                let mut group = Vec::new();
                for r in 0..per_shard {
                    // Every replica owns its index file (and WAL): a
                    // crashed replica recovers from its own state, and
                    // checkpoints never race across replicas.
                    let path = Path::new(&dir).join(format!("s{s}.r{r}.idx"));
                    let path_str = path.to_str().ok_or("non-UTF-8 shard path")?;
                    save_index(part, path_str)?;
                    let wal = wal_dir
                        .as_ref()
                        .map(|d| Path::new(d).join(format!("s{s}.r{r}.wal")));
                    let shard = ned::index::ShardProcess::spawn(
                        &exe,
                        &path,
                        "127.0.0.1:0",
                        wal.as_deref(),
                        &[],
                    )
                    .map_err(|e| format!("spawning shard {s} replica {r}: {e}"))?;
                    out!(
                        "shard {s} replica {r}: {} signatures, pid {}, tcp://{}",
                        part.len(),
                        shard.pid(),
                        shard.addr()
                    );
                    group.push(shard.addr().to_string());
                    fleet.push(shard);
                }
                groups.push(group);
            }
            ned::index::ShardRouter::connect(map, groups, opts).map_err(|e| e.to_string())?
        }
    };
    let server = std::sync::Arc::new(ned::index::RouterServer::new(router));
    let result = match tcp {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            out!("routing fleet on tcp://{local}");
            out!("{}", server.router().stats_line());
            server.serve_tcp(listener).map_err(|e| e.to_string())
        }
        None => {
            out!("routing fleet; type `help` for commands");
            out!("{}", server.router().stats_line());
            repl(&server).map(|()| out!("bye"))
        }
    };
    if !fleet.is_empty() {
        // We spawned these shards, so drain them with the router rather
        // than orphaning children (attached fleets are left serving).
        let acked = server.router().shutdown_fleet();
        for shard in &mut fleet {
            let _ = shard.wait_or_kill(std::time::Duration::from_secs(5));
        }
        out!("fleet down ({acked} replica(s) acknowledged shutdown)");
    }
    result
}

fn cmd_hausdorff(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["k", "sample", "seed"], &[])?;
    let g1 = load(args.positional(0, "first graph")?, false)?;
    let g2 = load(args.positional(1, "second graph")?, false)?;
    let k: usize = args.get("k", 3)?;
    let sample: usize = args.get("sample", 400)?;
    let seed: u64 = args.get("seed", 42)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let pick = |g: &Graph, rng: &mut SmallRng| -> Vec<NodeId> {
        if g.num_nodes() <= sample {
            g.nodes().collect()
        } else {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::with_capacity(sample);
            while out.len() < sample {
                let v = rng.gen_range(0..g.num_nodes()) as NodeId;
                if seen.insert(v) {
                    out.push(v);
                }
            }
            out
        }
    };
    let n1 = pick(&g1, &mut rng);
    let n2 = pick(&g2, &mut rng);
    let d = ned::core::hausdorff::hausdorff_between(&g1, &n1, &g2, &n2, k);
    out!(
        "Hausdorff-NED (k = {k}, {}x{} sampled nodes) = {d}",
        n1.len(),
        n2.len()
    );
    Ok(())
}
