//! `nedbench`: the NED serving benchmark.
//!
//! ```text
//! nedbench --ned-cli <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives a real `ned-cli serve` process over NEDWIRE1 from this one
//! load-generator process (at most two connections, each
//! driven by one thread), prints every metric by name and unit, checks
//! the answers, and ends with one JSON line. `--trace 1` runs the same
//! workload and seed once more slowly, timing the same inputs through
//! each layer's public functions (see `trace.rs`). See README.md for the
//! metric dictionary and the reasons behind each workload.

mod gate;
mod inputs;
mod load;
mod proc;
mod stats;
mod trace;

use inputs::Probe;
use load::{ProbeSource, Reply, RssAt, Write};
use ned_core::NodeSignature;
use ned_index::SignatureIndex;
use proc::{Conn, Server};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Rounds per untraced run. Each round boots a fresh server from a
/// freshly built index (one timed set-up), warms it up, and runs both
/// timed phases for `--seconds / ROUNDS`; every metric is taken over all
/// rounds. On a shared host whose speed drifts within seconds, this
/// spreads every metric, `setup_s` included, over the whole run instead
/// of one stretch of it.
const ROUNDS: usize = 5;
/// Flip pairs (or insert/remove pairs) in the write stream; the writer
/// cycles through them.
const WRITE_PAIRS: usize = 2048;
/// Share of `--seconds` spent on closed-loop knn alone; the rest runs
/// the writer beside one knn reader.
const KNN_SHARE: f64 = 0.4;
/// Turns the two timed phases take within a round. The host's speed
/// swings by a fifth within seconds; phases that alternate every couple
/// of seconds each sample the whole run's swings instead of one stretch
/// apiece.
const SLICES_PER_ROUND: usize = 4;
/// Time windows per phase and round: latency is taken per window, then
/// the interquartile mean over the windows of all rounds (see
/// [`stats::windowed`]). On a shared two-vCPU host, stalls of other
/// tenants arrive in bursts; a whole-phase figure reads the worst burst
/// of the run, the middle half of the windows does not.
const WINDOWS_PER_ROUND: usize = 4;
const WINDOWS: usize = WINDOWS_PER_ROUND * ROUNDS;
/// Tail percentile printed per phase (not gated: it tracks host steal).
const TAIL_P: f64 = 90.0;
/// knn requests per second, over both timed phases, that the `knn-cold`
/// pool lasts a whole run at: above the rate hot-pool probes reach with
/// every kernel call a memo hit (about 3000/s), the most a kernel change
/// can give. A run that empties the pool fails.
const COLD_RATE_CAP: f64 = 4000.0;
/// `rss_mb` is read once a round's timed phases have sent this many
/// writes (on `churn-wal`, four WAL checkpoints). The server's peak RSS
/// grows with the distinct edges flipped so far; read after a fixed
/// count, it does not grow with how fast the server answered.
const RSS_AT_WRITES: usize = 256;
/// Writes sent during warm-up (untimed, net-zero).
pub(crate) const WARMUP_WRITES: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    KnnCold,
    ChurnWal,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Open-loop knn rate of the traced run's generator check, requests
    /// per second over all connections.
    pub rate: f64,
    /// Connections carrying that open-loop traffic.
    pub open_conns: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "knn-cold",
        kind: Kind::KnnCold,
        rate: 120.0,
        open_conns: 2,
    },
    Workload {
        name: "churn-wal",
        kind: Kind::ChurnWal,
        rate: 250.0,
        open_conns: 1,
    },
];

impl Workload {
    /// `ned-cli` arguments that boot this workload's server in `dir`.
    pub fn server_args(&self, dir: &Path, idx: &Path, edges: &Path) -> Vec<String> {
        let p = |x: &Path| x.display().to_string();
        let s = |x: &str| x.to_string();
        let mut args = vec![s("serve"), p(idx), s("--graph"), p(edges)];
        if self.kind == Kind::ChurnWal {
            args.extend([
                s("--wal"),
                p(&dir.join("idx.wal")),
                s("--fsync"),
                s("every-16"),
                s("--checkpoint-every"),
                s("64"),
            ]);
        }
        args.extend([s("--tcp"), s("127.0.0.1:0")]);
        args
    }
}

pub struct Args {
    pub ned_cli: PathBuf,
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        ned_cli: PathBuf::from(get("--ned-cli")?),
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run set up: inputs, the current round's server, and the
/// in-process copy of the served index the answers are checked against.
pub struct Ctx {
    pub args: Args,
    pub dir: PathBuf,
    pub graph: ned_graph::Graph,
    pub edges: PathBuf,
    pub idx: PathBuf,
    pub server: Server,
    pub index: SignatureIndex,
    pub hot: Vec<Probe>,
    pub hot_shapes: Vec<String>,
    pub cold_shapes: Vec<String>,
    pub cold_cursor: AtomicUsize,
    pub writes: Vec<Write>,
    /// The server's `(epoch, len, hash)` before any request.
    pub start_print: proc::Print,
    /// Writes the current server acknowledged.
    pub acked_writes: u64,
    pub setup_s: Vec<f64>,
}

impl Ctx {
    /// The knn probe stream of the timed phases.
    pub fn knn_source(&self) -> ProbeSource<'_> {
        match self.args.workload.kind {
            Kind::KnnCold => ProbeSource::Once(&self.cold_shapes, &self.cold_cursor),
            _ => ProbeSource::Cycle(&self.hot_shapes),
        }
    }

    /// Signature of probe `i` of the timed knn stream.
    pub fn knn_sig(&self, i: usize) -> NodeSignature {
        match self.args.workload.kind {
            Kind::KnnCold => inputs::parse_shape(&self.cold_shapes[i]),
            _ => self.hot[i].sig.clone(),
        }
    }
}

/// One timed set-up in the fresh directory `dir/round<round>`: index
/// build from the edge list plus server boot up to the first answered
/// request. Returns the server, its index file and the seconds taken.
fn boot(
    args: &Args,
    dir: &Path,
    edges: &Path,
    round: usize,
) -> Result<(Server, PathBuf, f64), String> {
    let sdir = dir.join(format!("round{round}"));
    std::fs::create_dir_all(&sdir).map_err(|e| e.to_string())?;
    let idx = sdir.join("graph.idx");
    let t = Instant::now();
    let pinned = proc::index_build(&args.ned_cli, &idx, edges, inputs::K)?;
    let built_s = t.elapsed().as_secs_f64();
    let server = Server::start(
        &args.ned_cli,
        &args.workload.server_args(&sdir, &idx, edges),
        &sdir.join("server.log"),
    )?;
    Conn::connect(&server.addr)?.request(&ned_core::Request::Epoch)?;
    let setup_s = t.elapsed().as_secs_f64();
    println!(
        "set-up {round}: index build {built_s:.3} s ({}), server boot {:.3} s",
        if pinned { "one CPU" } else { "unpinned" },
        setup_s - built_s
    );
    Ok((server, idx, setup_s))
}

/// Input generation (untimed), then the first round's set-up.
fn setup(args: Args, dir: &Path) -> Result<Ctx, String> {
    let w = args.workload;
    let graph = inputs::database_graph();
    let edges = dir.join("graph.edges");
    ned_graph::io::write_edge_list(&graph, &edges).map_err(|e| e.to_string())?;
    let (server, idx, setup_s) = boot(&args, dir, &edges, 0)?;
    let index = SignatureIndex::load(&idx).map_err(|e| format!("{}: {e}", idx.display()))?;
    let hot = inputs::hot_pool(args.seed);
    let mut exclude = inputs::index_classes(&index);
    exclude.extend(hot.iter().map(|p| p.sig.prepared().root_class()));
    let cold_shapes = if w.kind == Kind::KnnCold {
        let t = Instant::now();
        let c = inputs::cold_probes(
            args.seed,
            (COLD_RATE_CAP * args.seconds).ceil() as usize,
            &exclude,
        );
        println!(
            "cold pool: {} classes in {:.1} s",
            c.len(),
            t.elapsed().as_secs_f64()
        );
        c
    } else {
        Vec::new()
    };
    let flips = inputs::non_edges(&graph, WRITE_PAIRS, args.seed);
    let writes = load::write_stream(&flips);
    let start_print = proc::fingerprint(&server.addr)?;
    Ok(Ctx {
        args,
        dir: dir.to_path_buf(),
        graph,
        edges,
        idx,
        server,
        index,
        hot_shapes: hot.iter().map(|p| p.shape.clone()).collect(),
        hot,
        cold_shapes,
        cold_cursor: AtomicUsize::new(0),
        writes,
        start_print,
        acked_writes: 0,
        setup_s: vec![setup_s],
    })
}

/// Replaces the server with a fresh one booted for `round`.
fn reboot(ctx: &mut Ctx, round: usize) -> Result<(), String> {
    ctx.server.stop()?;
    let (server, idx, setup_s) = boot(&ctx.args, &ctx.dir, &ctx.edges, round)?;
    ctx.server = server;
    ctx.idx = idx;
    ctx.setup_s.push(setup_s);
    ctx.start_print = proc::fingerprint(&ctx.server.addr)?;
    ctx.acked_writes = 0;
    Ok(())
}

/// Untimed warm-up: every hot-pool shape twice (never a cold class),
/// then a few net-zero writes.
pub(crate) fn warm_up(ctx: &mut Ctx) -> Result<(), String> {
    let mut conn = Conn::connect(&ctx.server.addr)?;
    for _ in 0..2 {
        for shape in &ctx.hot_shapes {
            conn.request(&ned_core::Request::Sig {
                shape: shape.clone(),
                top: inputs::TOP,
                within: None,
            })?;
        }
    }
    let run = load::run_writes(&mut conn, &ctx.writes[..WARMUP_WRITES], 0, None, None);
    ctx.acked_writes += run.acked;
    if run.ops.failed > 0 {
        return Err("warm-up writes failed".into());
    }
    Ok(())
}

/// The timed phases of one round: the writer beside one closed-loop knn
/// reader, then closed-loop knn alone, taking turns [`SLICES_PER_ROUND`]
/// times. Each phase's slices are placed one after the other on its own
/// time line. Writes come first so that the `rss_mb` reading, taken at
/// a fixed write count, falls in the round's first stretch, before any
/// knn-only traffic.
struct Measured {
    rss: RssAt,
    knn: Phase,
    /// Server CPU seconds spent during the knn-only phase.
    knn_cpu_s: f64,
    mixed_knn: Phase,
    writes: Phase,
    replies: Vec<Reply>,
}

fn measure(ctx: &mut Ctx, seconds: f64) -> Result<Measured, String> {
    let addr = ctx.server.addr.clone();
    let slice_s = seconds / SLICES_PER_ROUND as f64;
    let knn_s = Duration::from_secs_f64(KNN_SHARE * slice_s);
    let mixed_s = Duration::from_secs_f64((1.0 - KNN_SHARE) * slice_s);
    let source = ctx.knn_source();
    let cold = ctx.args.workload.kind == Kind::KnnCold;
    let rss = RssAt::new(ctx.server.pid, RSS_AT_WRITES);
    // Position of the next write in the cyclic write stream: each slice
    // goes on where the previous one stopped.
    let (mut next_write, mut acked) = (0, 0);
    let (mut knn, mut knn_cpu_s, mut mixed, mut writes) =
        (Phase::default(), 0.0, Phase::default(), Phase::default());
    let mut replies = Vec::new();
    // The round's two connections: both carry the knn-only phase; beside
    // the writer, one carries the reads and the other the writes.
    let mut conns = [Conn::connect(&addr)?, Conn::connect(&addr)?];
    for _ in 0..SLICES_PER_ROUND {
        let [reader, writer] = &mut conns;
        let (r, w) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let deadline = Instant::now() + mixed_s;
                load::run_writes(writer, &ctx.writes, next_write, Some(deadline), Some(&rss))
            });
            let reads = load::closed_knn(std::slice::from_mut(reader), mixed_s, &source);
            (reads, writer.join().expect("writer thread"))
        });
        let cpu = ctx.server.cpu_s()?;
        let k = load::closed_knn(&mut conns, knn_s, &source);
        knn_cpu_s += ctx.server.cpu_s()? - cpu;
        next_write += w.ops.attempted as usize;
        acked += w.acked;
        knn.add(k.ops, k.elapsed_s);
        mixed.add(r.ops, r.elapsed_s);
        writes.add(w.ops, w.elapsed_s);
        replies.extend(r.replies);
        replies.extend(k.replies);
    }
    ctx.acked_writes += acked;
    if cold {
        let sent = ctx.cold_cursor.load(std::sync::atomic::Ordering::Relaxed);
        let pool = ctx.cold_shapes.len();
        if sent >= pool {
            return Err(format!(
                "the cold pool ({pool} classes) ran out: the server answered more than \
                 {COLD_RATE_CAP} knn requests/s; raise COLD_RATE_CAP"
            ));
        }
        println!("  cold probes sent so far: {sent} of a pool of {pool}");
    }
    Ok(Measured {
        rss,
        knn,
        knn_cpu_s,
        mixed_knn: mixed,
        writes,
        replies,
    })
}

/// One phase's line: windowed median and p90 (see [`stats::windowed`]),
/// the whole-phase median and tail, and the completion rate.
fn print_phase(label: &str, ops: &stats::Ops, elapsed_s: f64) {
    let s = stats::summarize(&ops.latencies_us());
    println!(
        "  {label}: n={} windowed median={:.1} us p{TAIL_P}={:.1} us; whole phase median={:.1} us \
         p{}={:.1} us; rate={:.1}/s (attempted {}, failed {})",
        s.n,
        stats::windowed(&ops.samples, WINDOWS, 50.0),
        stats::windowed(&ops.samples, WINDOWS, TAIL_P),
        s.p50,
        s.tail_p,
        s.tail,
        ops.completed() as f64 / elapsed_s,
        ops.attempted,
        ops.failed
    );
}

/// What a run reports: its metrics, the operations it attempted and
/// lost, and any correctness mismatches.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

/// One phase summed over slices and rounds, each stretch's samples
/// placed after the previous one's on one time line.
#[derive(Default)]
struct Phase {
    ops: stats::Ops,
    elapsed_s: f64,
}

impl Phase {
    fn add(&mut self, ops: stats::Ops, elapsed_s: f64) {
        self.ops.append_shifted(ops, self.elapsed_s);
        self.elapsed_s += elapsed_s;
    }
}

fn untraced(ctx: &mut Ctx) -> Result<Outcome, String> {
    let before = proc::cpu_ticks();
    let (mut knn, mut mixed, mut writes) = (Phase::default(), Phase::default(), Phase::default());
    let (mut knn_cpu_s, mut rss_mb, mut mismatches) = (0.0, Vec::new(), Vec::new());
    let first_print = ctx.start_print;
    for round in 0..ROUNDS {
        if round > 0 {
            reboot(ctx, round)?;
            if (ctx.start_print.1, ctx.start_print.2) != (first_print.1, first_print.2) {
                mismatches.push(format!("round {round}: index build gave another live set"));
            }
        }
        warm_up(ctx)?;
        let m = measure(ctx, ctx.args.seconds / ROUNDS as f64)?;
        rss_mb.push(match m.rss.reading() {
            Some(mb) => mb?,
            None => {
                println!(
                    "  round {round}: rss_mb read at the end, after {} of the {RSS_AT_WRITES} writes it waits for",
                    m.rss.sent()
                );
                proc::peak_rss_mb(ctx.server.pid)?
            }
        });
        for e in gate::check(ctx, &m.replies)? {
            mismatches.push(format!("round {round}: {e}"));
        }
        println!(
            "  round {round}: knn median {:.1} us ({:.1} us server CPU each), beside the writer \
             {:.1} us, write median {:.1} us",
            stats::median(&m.knn.ops.latencies_us()),
            m.knn_cpu_s * 1e6 / m.knn.ops.completed().max(1) as f64,
            stats::median(&m.mixed_knn.ops.latencies_us()),
            stats::median(&m.writes.ops.latencies_us()),
        );
        knn_cpu_s += m.knn_cpu_s;
        knn.add(m.knn.ops, m.knn.elapsed_s);
        mixed.add(m.mixed_knn.ops, m.mixed_knn.elapsed_s);
        writes.add(m.writes.ops, m.writes.elapsed_s);
    }
    if let (Some(a), Some(b)) = (before, proc::cpu_ticks()) {
        println!(
            "host steal during the run: {:.1}% of vCPU time",
            100.0 * (b.1 - a.1) as f64 / (b.0 - a.0).max(1) as f64
        );
    }
    println!("phases ({ROUNDS} rounds):");
    print_phase("knn, closed loop, 2 connections", &knn.ops, knn.elapsed_s);
    print_phase(
        "knn beside the writer, closed loop, 1 connection",
        &mixed.ops,
        mixed.elapsed_s,
    );
    print_phase(
        "writes, 1 closed-loop writer",
        &writes.ops,
        writes.elapsed_s,
    );
    let knn_p50 = stats::windowed(&knn.ops.samples, WINDOWS, 50.0);
    let mixed_p50 = stats::windowed(&mixed.ops.samples, WINDOWS, 50.0);
    let write_p50 = stats::windowed(&writes.ops.samples, WINDOWS, 50.0);
    let knn_completed = knn.ops.completed();
    let mut all = knn.ops;
    all.merge(mixed.ops);
    all.merge(writes.ops);
    println!(
        "  error_frac = {} ({} failed of {} attempted)",
        all.error_frac(),
        all.failed,
        all.attempted
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&ctx.setup_s),
            unit: "s",
        },
        Metric {
            name: "knn_cpu_us",
            value: knn_cpu_s * 1e6 / knn_completed.max(1) as f64,
            unit: "us",
        },
        Metric {
            name: "knn_p50_us",
            value: knn_p50,
            unit: "us",
        },
        Metric {
            name: "mixed_knn_p50_us",
            value: mixed_p50,
            unit: "us",
        },
        Metric {
            name: "write_p50_us",
            value: write_p50,
            unit: "us",
        },
        Metric {
            name: "ok_frac",
            value: 1.0 - all.error_frac(),
            unit: "frac",
        },
        Metric {
            name: "rss_mb",
            value: stats::median(&rss_mb),
            unit: "MiB",
        },
    ];
    Ok(Outcome {
        metrics,
        attempted: all.attempted,
        failed: all.failed,
        mismatches,
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: Args) -> Result<Outcome, String> {
    let dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "nedbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let result = setup(args, &dir).and_then(|mut ctx| {
        let out = if ctx.args.trace {
            trace::traced(&mut ctx)
        } else {
            untraced(&mut ctx)
        };
        // Stop the server whatever happened; a failed stop fails the run.
        let stopped = ctx.server.stop();
        let out = out?;
        stopped?;
        Ok(out)
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    match run(args) {
        Ok(out) => {
            for m in &out.mismatches {
                println!("MISMATCH: {m}");
            }
            println!("metrics:");
            for m in &out.metrics {
                println!("  {} = {} {}", m.name, m.value, m.unit);
            }
            println!("run took {:.1} s", t.elapsed().as_secs_f64());
            let correct = out.mismatches.is_empty();
            println!(
                "{}",
                json_line(correct, out.attempted, out.failed, &out.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("nedbench: {e}");
            ExitCode::FAILURE
        }
    }
}
