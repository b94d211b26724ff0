//! The traced run (`--trace 1`): the same workload and seed as the
//! untraced run, but requests go one at a time, and each is followed by
//! the same input timed through the public functions of every layer on
//! in-process twins of the served index. Spans (name, start, end, parent,
//! request id) are kept in memory and written out at the end; per-layer
//! metrics are span self times.
//!
//! Two orders alternate because the TED\* memo is process-global: for
//! even requests the production call (`NedServer::execute`) runs first
//! and gives `server.sig_us`; for odd requests the layer replay runs
//! first and gives the sketch/kernel/memo split. Each is measured on the
//! memo state the real server met, and both are checked against each
//! other (hits bit for bit, refine counts against `SketchStats` deltas).

use crate::load::{self, ProbeSource, Write};
use crate::proc::Conn;
use crate::stats::{self, Span};
use crate::{gate, inputs, Ctx, Kind, Metric, Outcome};
use ned_core::memo::TedMemo;
use ned_core::wal::{FsyncPolicy, WalWriter, WAL_RECORD_OVERHEAD};
use ned_core::{wire, KernelProfile, NodeSignature, PreparedTree, Request, Response, WireHit};
use ned_graph::GraphDelta;
use ned_index::sketch::sketch_lower_bound;
use ned_index::{
    ConcurrentNedIndex, DurableIndex, DurableOptions, GraphMaintainer, NedServer, RouterOptions,
    ShardMap, ShardRouter, SignatureIndex, Sketch, SketchBank, WriteOp,
};
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Requests traced one by one through the wire and the layer replay.
const KNN_SAMPLE: usize = 96;
/// Writes traced one by one (net-zero pairs).
const WRITE_SAMPLE: usize = 128;
/// Router knn requests and router write pairs traced.
const ROUTER_KNN: usize = 32;
const ROUTER_WRITES: usize = 8;

/// In-memory span recorder. `enabled = false` makes every call a no-op
/// (used when a replay only verifies).
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    enabled: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            enabled: true,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Ends the innermost open span and returns its duration in ns.
    fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.stack.pop().expect("end without begin");
        let end_ns = self.now();
        self.spans[id].end_ns = end_ns;
        end_ns - self.spans[id].start_ns
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\trequest\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{parent}\t{}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        std::fs::write(path, out)
    }
}

/// Self time per span name, summed, in nanoseconds.
fn self_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut out = HashMap::new();
    for (s, t) in spans.iter().zip(stats::self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64;
    }
    out
}

/// Duration per span name, summed, and how many spans carried it.
fn dur_by_name(spans: &[Span]) -> HashMap<&'static str, (f64, usize)> {
    let mut out: HashMap<&'static str, (f64, usize)> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0.0, 0));
        e.0 += (s.end_ns - s.start_ns) as f64;
        e.1 += 1;
    }
    out
}

/// The served snapshot's sketch rows, gathered once per snapshot
/// through `SketchBank::lanes_of` (outside the timed scan) into one
/// contiguous row-major buffer, as the bank stores them.
struct Rows {
    ids: Vec<u64>,
    lanes: Vec<u16>,
    sigs: Vec<NodeSignature>,
}

impl Rows {
    fn of(index: &SignatureIndex) -> Rows {
        let mut rows = Rows {
            ids: Vec::new(),
            lanes: Vec::new(),
            sigs: Vec::new(),
        };
        for (id, sig) in index.forest().entries() {
            rows.ids.push(id);
            rows.lanes.extend_from_slice(
                index
                    .sketch_bank()
                    .lanes_of(id)
                    .expect("every live id has a sketch row"),
            );
            rows.sigs.push(sig.clone());
        }
        rows
    }
}

/// What one filter-and-refine replay did.
struct Replay {
    hits: Vec<WireHit>,
    scanned: u64,
    pruned: u64,
    /// `(row, budget, result)` of every budgeted kernel call, in order.
    calls: Vec<(usize, u64, Option<u64>)>,
    memo_hits: u64,
    memo_misses: u64,
}

/// Orders `(distance, id)` for the top-k heap (worst on top).
#[derive(PartialEq)]
struct Worst(f64, u64);
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Worst {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&o.0).then(self.1.cmp(&o.1))
    }
}

/// `sig <shape> 5` through every layer's public functions: frame codec,
/// request parse, tree preparation, snapshot, sketch scan
/// (`Sketch::of` + `sketch_lower_bound`), budgeted refine
/// (`ted_star_prepared_within` with the k-th best distance as budget,
/// as `SketchBank::knn` does), reply render, codec and reply parse.
fn replay_knn(
    tr: &mut Tracer,
    twin: &NedServer,
    rows: &Rows,
    shape: &str,
) -> Result<Replay, String> {
    tr.begin("replay.knn");
    let payload = format!("sig {shape} {}", inputs::TOP);
    let text = tr.time("wire.codec", || {
        let frame = wire::encode_frame(payload.as_bytes());
        wire::decode_frame(&frame[4..]).map(String::from_utf8)
    });
    let text = text
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    let req = tr.time("proto.parse", || Request::parse_line(&text));
    let Ok(Some(Request::Sig { shape, top, .. })) = req else {
        return Err(format!("replay parsed {req:?}"));
    };
    let sig = tr.time("tree.prepare", || {
        ned_tree::serialize::parse(&shape)
            .map(|t| NodeSignature::from_prepared(0, PreparedTree::new(&t)))
    });
    let sig = sig.map_err(|e| e.to_string())?;
    let (_snap, epoch) = tr.time("concurrent.snapshot", || {
        twin.reader().snapshot_with_epoch()
    });
    let bounds = tr.time("sketch.scan", || {
        let qs = Sketch::of(&sig);
        let mut bounds: Vec<(u64, u32)> = rows
            .lanes
            .chunks_exact(qs.lanes().len())
            .enumerate()
            .map(|(r, lanes)| (sketch_lower_bound(qs.lanes(), lanes), r as u32))
            .collect();
        bounds.sort_unstable_by_key(|&(b, r)| (b, rows.ids[r as usize]));
        bounds
    });
    let before = tr.time("trace.probe", || TedMemo::global().stats());
    tr.begin("kernel.refine");
    let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(top + 1);
    let mut calls = Vec::new();
    let mut pruned = 0u64;
    for (pos, &(bound, r)) in bounds.iter().enumerate() {
        let tau = if heap.len() < top {
            f64::INFINITY
        } else {
            heap.peek().expect("full heap").0
        };
        if bound as f64 > tau {
            pruned = (bounds.len() - pos) as u64;
            break;
        }
        let r = r as usize;
        // Saturating cast: an unbounded budget is u64::MAX.
        let budget = tau as u64;
        let d = ned_core::ted_star_prepared_within(sig.prepared(), rows.sigs[r].prepared(), budget);
        calls.push((r, budget, d));
        if let Some(d) = d {
            let w = Worst(d as f64, rows.ids[r]);
            if heap.len() < top {
                heap.push(w);
            } else if w < *heap.peek().expect("full heap") {
                heap.pop();
                heap.push(w);
            }
        }
    }
    tr.end();
    let after = tr.time("trace.probe", || TedMemo::global().stats());
    let mut found: Vec<Worst> = heap.into_vec();
    found.sort();
    let hits: Vec<WireHit> = found
        .iter()
        .map(|w| WireHit {
            id: w.1,
            distance: w.0,
        })
        .collect();
    let reply = tr.time("proto.render", || {
        Response::Hits {
            epoch,
            hits: hits.clone(),
        }
        .to_string()
    });
    let back = tr.time("wire.codec", || {
        let frame = wire::encode_frame(reply.as_bytes());
        wire::decode_frame(&frame[4..])
    });
    let back = String::from_utf8(back.map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let parsed = tr.time("proto.reply_parse", || Response::parse(&back));
    tr.end();
    match parsed {
        Ok(Response::Hits { hits: h, .. }) if same_hits(&h, &hits) => {}
        other => return Err(format!("replayed reply did not round-trip: {other:?}")),
    }
    Ok(Replay {
        hits,
        scanned: bounds.len() as u64,
        pruned,
        calls,
        memo_hits: after.hits - before.hits,
        memo_misses: after.misses - before.misses,
    })
}

fn same_hits(a: &[WireHit], b: &[WireHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

/// Sketch work counters `(scanned, refined, pruned)`.
type Counts = (u64, u64, u64);

/// Production call on the twin, with its sketch counter deltas.
fn production_sig(
    tr: &mut Tracer,
    twin: &NedServer,
    req: &Request,
) -> Result<(Vec<WireHit>, Counts), String> {
    let before = twin.reader().snapshot().sketch_stats();
    let resp = tr.time("server.sig", || twin.execute(req));
    let after = twin.reader().snapshot().sketch_stats();
    match resp {
        Ok(Response::Hits { hits, .. }) => Ok((
            hits,
            (
                after.scanned - before.scanned,
                after.refined - before.refined,
                after.pruned - before.pruned,
            ),
        )),
        other => Err(format!("twin answered {other:?}")),
    }
}

/// Kernel cost of a replay's calls when every one misses the memo
/// (memo disabled, same budgets), and the per-phase profile of the same
/// pairs run to completion (`ted_star_prepared_profiled`).
fn kernel_probe(
    tr: &mut Tracer,
    sig: &NodeSignature,
    rows: &Rows,
    calls: &[(usize, u64, Option<u64>)],
    phases: &mut KernelProfile,
) -> Result<(), String> {
    let memo = TedMemo::global();
    let capacity = memo.capacity();
    memo.set_capacity(0);
    tr.begin("probe.kernel");
    let mut check = Ok(());
    for &(r, budget, d) in calls {
        let got = tr.time("kernel.miss", || {
            ned_core::ted_star_prepared_within(sig.prepared(), rows.sigs[r].prepared(), budget)
        });
        if got != d {
            check = Err(format!("memo-off kernel gave {got:?}, memo path {d:?}"));
        }
    }
    tr.end();
    memo.set_capacity(capacity);
    for &(r, budget, d) in calls {
        let (full, p) =
            ned_core::ted_star_prepared_profiled(sig.prepared(), rows.sigs[r].prepared());
        if d.map_or(full <= budget, |d| d != full) {
            check = Err(format!(
                "profiled kernel gave {full}, budgeted call {d:?} at {budget}"
            ));
        }
        phases.bound_ns += p.bound_ns;
        phases.collect_ns += p.collect_ns;
        phases.canonize_ns += p.canonize_ns;
        phases.group_ns += p.group_ns;
        phases.transport_ns += p.transport_ns;
        phases.expand_ns += p.expand_ns;
    }
    check
}

/// The write-path layer twins: the same write stream applied to a
/// graph maintainer, a plain index, a sketch bank, a concurrent index
/// without WAL, and a WAL with the churn workload's fsync and
/// checkpoint cadence.
struct WriteTwins {
    maintainer: GraphMaintainer,
    index: SignatureIndex,
    bank: SketchBank,
    concurrent: ConcurrentNedIndex,
    wal: WalWriter,
    checkpoint: std::path::PathBuf,
    epoch: u64,
    checkpoints: u64,
    wal_bytes: u64,
    candidates: u64,
    replaced: u64,
    flips: u64,
}

const CHECKPOINT_EVERY: u64 = 64;

impl WriteTwins {
    fn new(ctx: &Ctx) -> Result<WriteTwins, String> {
        let wal = WalWriter::create(&ctx.dir.join("replay.wal"), 0, FsyncPolicy::EveryN(16))
            .map_err(|e| e.to_string())?;
        Ok(WriteTwins {
            maintainer: GraphMaintainer::attach(&ctx.graph, inputs::K, 0, 1),
            index: ctx.index.clone(),
            bank: ctx.index.sketch_bank().clone(),
            concurrent: ConcurrentNedIndex::new(ctx.index.clone()),
            wal,
            checkpoint: ctx.dir.join("replay-checkpoint.idx"),
            epoch: 0,
            checkpoints: 0,
            wal_bytes: 0,
            candidates: 0,
            replaced: 0,
            flips: 0,
        })
    }

    /// `GraphMaintainer::materialize` for one edge flip.
    fn materialize(&mut self, tr: &mut Tracer, delta: GraphDelta) -> Vec<WriteOp> {
        let batch = tr.time("maintain.materialize", || {
            self.maintainer.materialize(&[delta])
        });
        self.candidates += batch.report.candidates as u64;
        self.replaced += batch.report.replaced as u64;
        self.flips += 1;
        batch.ops
    }

    /// One write through every layer twin.
    fn apply(&mut self, tr: &mut Tracer, w: &Write) -> Result<(), String> {
        // Writers publish after every batch, so the structures the next
        // batch mutates share their sketch chunks with a live snapshot;
        // keep one of each here too, so upkeep pays the same
        // copy-on-write. Cloned and dropped outside the spans.
        let published = (self.index.clone(), self.bank.clone());
        tr.begin("replay.write");
        let ops = match *w {
            Write::AddEdge(a, b) => self.materialize(tr, GraphDelta::AddEdge(a, b)),
            Write::DelEdge(a, b) => self.materialize(tr, GraphDelta::RemoveEdge(a, b)),
        };
        let upkept = tr.time("index.upkeep", || {
            ops.iter()
                .map(|op| match op {
                    WriteOp::Insert(sig) => self.index.insert(sig.clone()),
                    WriteOp::Replace(id, sig) => {
                        self.index.insert_at(*id, sig.clone());
                        *id
                    }
                    WriteOp::Remove(id) => {
                        self.index.remove(*id);
                        *id
                    }
                })
                .collect::<Vec<u64>>()
        });
        tr.time("sketch.upsert", || {
            for (op, &id) in ops.iter().zip(&upkept) {
                match op {
                    WriteOp::Insert(sig) | WriteOp::Replace(_, sig) => self.bank.upsert(id, sig),
                    WriteOp::Remove(_) => {
                        self.bank.remove(id);
                    }
                }
            }
        });
        let outcomes = tr.time("concurrent.apply", || {
            self.concurrent.writer().try_apply(ops.clone())
        });
        outcomes.map_err(|e| e.to_string())?;
        self.epoch += 1;
        let (wal, epoch) = (&mut self.wal, self.epoch);
        let bytes = tr.time("wal.append", || {
            let record = ned_index::durable::encode_batch(epoch, &ops);
            wal.append(&record).map(|()| record.len())
        });
        self.wal_bytes += (bytes.map_err(|e| e.to_string())? + WAL_RECORD_OVERHEAD) as u64;
        if self.wal.appended() >= CHECKPOINT_EVERY {
            let (index, wal, path) = (&self.index, &mut self.wal, &self.checkpoint);
            tr.time("durable.checkpoint", || {
                index.save_at_epoch(epoch, path)?;
                wal.reset(epoch)
            })
            .map_err(|e| e.to_string())?;
            self.checkpoints += 1;
        }
        tr.end();
        drop(published);
        Ok(())
    }
}

/// The in-process twin of the served process, configured like it
/// (tracked graph, and the WAL on `churn-wal`).
fn twin_server(ctx: &Ctx, tr: &mut Tracer) -> Result<(NedServer, f64), String> {
    let copy = ctx.dir.join("twin.idx");
    std::fs::copy(&ctx.idx, &copy).map_err(|e| e.to_string())?;
    let opts = DurableOptions {
        fsync: match ctx.args.workload.kind {
            Kind::ChurnWal => FsyncPolicy::EveryN(16),
            _ => FsyncPolicy::PerBatch,
        },
        checkpoint_every: 64,
    };
    tr.begin("durable.recover");
    let recovered = DurableIndex::recover(&copy, &ctx.dir.join("twin.wal"), opts);
    let recover_s = tr.end() as f64 / 1e9;
    let (durable, _) = recovered.map_err(|e| e.to_string())?;
    let durable = match ctx.args.workload.kind {
        Kind::ChurnWal => durable,
        Kind::KnnCold => DurableIndex::ephemeral(ctx.index.clone()),
    };
    let twin = NedServer::with_durability(durable, 1, 1);
    twin.track(&ctx.graph).map_err(|e| e.to_string())?;
    Ok((twin, recover_s))
}

/// One write on the twin.
fn twin_write(twin: &NedServer, w: &Write) -> Result<(), String> {
    match twin.execute(&w.request()) {
        Ok(Response::Ok { .. }) => Ok(()),
        other => Err(format!("twin write {w:?} answered {other:?}")),
    }
}

pub fn traced(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let w = ctx.args.workload;

    // Ingest, timed in-process on the same graph.
    let nodes: Vec<u32> = ctx.graph.nodes().collect();
    tr.begin("ingest.signatures");
    let sigs = ned_core::bulk_signatures(&ctx.graph, &nodes, inputs::K, 0);
    let signatures_s = tr.end() as f64 / 1e9;
    tr.begin("ingest.index_build");
    let built = SignatureIndex::from_signatures(inputs::K, 1024, 42, sigs);
    let build_s = tr.end() as f64 / 1e9;
    tr.begin("ingest.save");
    built
        .save(&ctx.dir.join("ingest.idx"))
        .map_err(|e| e.to_string())?;
    let save_s = tr.end() as f64 / 1e9;
    let mut mismatches = Vec::new();
    if built.live_set_fingerprint() != ctx.index.live_set_fingerprint() {
        mismatches.push("in-process ingest disagrees with `ned-cli index build`".to_string());
    }
    drop(built);
    let (twin, recover_s) = twin_server(ctx, &mut tr)?;

    // Warm-up, mirrored on the twin so both memos hold the same pairs.
    crate::warm_up(ctx)?;
    for _ in 0..2 {
        for shape in &ctx.hot_shapes {
            twin.execute(&Request::Sig {
                shape: shape.clone(),
                top: inputs::TOP,
                within: None,
            })
            .map_err(|e| e.to_string())?;
        }
    }
    for wr in &ctx.writes[..crate::WARMUP_WRITES] {
        twin_write(&twin, wr)?;
    }

    // knn: wire, production twin and layer replay for the same inputs.
    let rows = Rows::of(&twin.reader().snapshot());
    let mut conn = Conn::connect(&ctx.server.addr)?;
    let mut client_us = Vec::new();
    let mut rtt_self_us = Vec::new();
    let mut sig_us = Vec::new();
    let (mut replays, mut scanned, mut calls_n, mut abandoned) = (0u64, 0u64, 0u64, 0u64);
    let (mut memo_hits, mut memo_misses, mut prod_scanned, mut prod_pruned) =
        (0u64, 0u64, 0u64, 0u64);
    let mut phases = KernelProfile::default();
    let mut replies = Vec::new();
    let cold_start = ctx.cold_cursor.load(std::sync::atomic::Ordering::Relaxed);
    for i in 0..KNN_SAMPLE {
        tr.request = i as u64;
        let probe = match w.kind {
            Kind::KnnCold => cold_start + i,
            _ => (i * 7) % ctx.hot.len(),
        };
        let shape = match w.kind {
            Kind::KnnCold => &ctx.cold_shapes[probe],
            _ => &ctx.hot_shapes[probe],
        };
        let req = Request::Sig {
            shape: shape.clone(),
            top: inputs::TOP,
            within: None,
        };
        tr.begin("client.knn");
        let served = conn.request(&req);
        let wire_ns = tr.end();
        let Ok(Response::Hits { epoch, hits }) = served else {
            return Err(format!("traced knn failed: {served:?}"));
        };
        client_us.push(wire_ns as f64 / 1e3);
        let production_first = i % 2 == 0;
        let (prod, replay) = if production_first {
            let start = tr.spans.len();
            let prod = production_sig(&mut tr, &twin, &req)?;
            let s_us = (tr.spans[start].end_ns - tr.spans[start].start_ns) as f64 / 1e3;
            sig_us.push(s_us);
            rtt_self_us.push(wire_ns as f64 / 1e3 - s_us);
            tr.enabled = false;
            let replay = replay_knn(&mut tr, &twin, &rows, shape);
            tr.enabled = true;
            (prod, replay?)
        } else {
            let replay = replay_knn(&mut tr, &twin, &rows, shape)?;
            tr.enabled = false;
            let prod = production_sig(&mut tr, &twin, &req);
            tr.enabled = true;
            replays += 1;
            scanned += replay.scanned;
            calls_n += replay.calls.len() as u64;
            abandoned += replay.calls.iter().filter(|c| c.2.is_none()).count() as u64;
            memo_hits += replay.memo_hits;
            memo_misses += replay.memo_misses;
            let sig = ctx.knn_sig(probe);
            if let Err(e) = kernel_probe(&mut tr, &sig, &rows, &replay.calls, &mut phases) {
                mismatches.push(e);
            }
            (prod?, replay)
        };
        let (prod_hits, (p_scanned, p_refined, p_pruned)) = prod;
        prod_scanned += p_scanned;
        prod_pruned += p_pruned;
        if !same_hits(&prod_hits, &replay.hits) || !same_hits(&prod_hits, &hits) {
            mismatches.push(format!(
                "probe {probe}: server {hits:?}, twin {prod_hits:?}, replay {:?}",
                replay.hits
            ));
        }
        let replayed = (replay.scanned, replay.calls.len() as u64, replay.pruned);
        if (p_scanned, p_refined, p_pruned) != replayed {
            mismatches.push(format!(
                "probe {probe}: SketchStats delta (scanned, refined, pruned) = {:?}, replay {replayed:?}",
                (p_scanned, p_refined, p_pruned),
            ));
        }
        replies.push(load::Reply { probe, epoch, hits });
    }
    if w.kind == Kind::KnnCold {
        ctx.cold_cursor.store(
            cold_start + KNN_SAMPLE,
            std::sync::atomic::Ordering::Relaxed,
        );
    }
    let memo_entries = TedMemo::global().stats().entries as f64;

    // Writes: wire, production twin, and the layer twins.
    let mut twins = WriteTwins::new(ctx)?;
    tr.enabled = false;
    for wr in &ctx.writes[..crate::WARMUP_WRITES] {
        twins.apply(&mut tr, wr)?;
    }
    tr.enabled = true;
    twins.checkpoints = 0;
    twins.wal_bytes = 0;
    twins.candidates = 0;
    twins.replaced = 0;
    twins.flips = 0;
    let base = crate::WARMUP_WRITES;
    for (j, wr) in ctx.writes[base..base + WRITE_SAMPLE].iter().enumerate() {
        tr.request = (KNN_SAMPLE + j) as u64;
        tr.begin("client.write");
        let served = conn.request(&wr.request());
        tr.end();
        if !matches!(served, Ok(Response::Ok { .. })) {
            return Err(format!("traced write {wr:?} answered {served:?}"));
        }
        ctx.acked_writes += 1;
        tr.begin("server.flip");
        let r = twin_write(&twin, wr);
        tr.end();
        r?;
        twins.apply(&mut tr, wr)?;
    }
    drop(conn);

    // Router: an in-process ShardRouter with the server as its one shard.
    let groups = vec![vec![ctx.server.addr.clone()]];
    let map = ShardMap::new(vec![0])?;
    let router = ShardRouter::connect(
        map.clone(),
        groups.clone(),
        RouterOptions {
            k: inputs::K,
            next_id: 1 << 40,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut legs: Vec<Conn> = groups
        .iter()
        .map(|g| Conn::connect(&g[0]))
        .collect::<Result<_, _>>()?;
    let (mut router_knn, mut leg_max, mut merge_self) = (Vec::new(), Vec::new(), Vec::new());
    for q in 0..ROUTER_KNN {
        tr.request = (2 * KNN_SAMPLE + 2 * WRITE_SAMPLE + q) as u64;
        let shape = &ctx.hot_shapes[(q * 5) % ctx.hot_shapes.len()];
        tr.begin("router.knn");
        let fleet = router.knn(shape, inputs::TOP, None);
        let knn_ns = tr.end();
        fleet.map_err(|e| e.to_string())?;
        let mut slowest = 0u64;
        for leg in legs.iter_mut() {
            tr.begin("router.leg");
            let r = leg.request(&Request::Sig {
                shape: shape.clone(),
                top: inputs::TOP,
                within: None,
            });
            slowest = slowest.max(tr.end());
            r?;
        }
        router_knn.push(knn_ns as f64 / 1e3);
        leg_max.push(slowest as f64 / 1e3);
        merge_self.push((knn_ns as f64 - slowest as f64) / 1e3);
    }
    let (mut router_write, mut ack_max) = (Vec::new(), Vec::new());
    for q in 0..ROUTER_WRITES {
        tr.request = (3 * KNN_SAMPLE + 2 * WRITE_SAMPLE + q) as u64;
        let shape = &ctx.hot_shapes[q % ctx.hot_shapes.len()];
        tr.begin("router.write");
        let id = router.insert_shape(shape);
        router_write.push(tr.end() as f64 / 1e3);
        let id = id.map_err(|e| e.to_string())?;
        ctx.acked_writes += 1;
        // The same put straight to each replica of the owning shard
        // (an idempotent replace, one more epoch everywhere).
        let mut slowest = 0u64;
        for addr in &groups[map.owner(id)] {
            let mut c = Conn::connect(addr)?;
            tr.begin("router.replica_ack");
            let r = c.request(&Request::PutSig {
                id,
                shape: shape.clone(),
            });
            slowest = slowest.max(tr.end());
            r?;
        }
        ctx.acked_writes += 1;
        ack_max.push(slowest as f64 / 1e3);
        tr.begin("router.write");
        let removed = router.remove(id);
        router_write.push(tr.end() as f64 / 1e3);
        if !removed.map_err(|e| e.to_string())? {
            return Err(format!("router remove of {id} found nothing"));
        }
        ctx.acked_writes += 1;
    }
    drop(legs);
    drop(router);

    // Open loop at the workload's fixed rate, latency from the due time:
    // a diagnostic of what an independent client sees on this host, and
    // of the generator's own lag.
    let cursor = AtomicUsize::new(ctx.cold_cursor.load(std::sync::atomic::Ordering::Relaxed));
    let source = match w.kind {
        Kind::KnnCold => ProbeSource::Once(&ctx.cold_shapes, &cursor),
        _ => ProbeSource::Cycle(&ctx.hot_shapes),
    };
    let open = load::open_knn(
        &ctx.server.addr,
        w.open_conns,
        w.rate,
        Duration::from_secs_f64(0.2 * ctx.args.seconds),
        &source,
    );
    let lag = stats::summarize(&open.lag_us);
    let open_p50 = stats::windowed(&open.ops.samples, 8, 50.0);
    let open_p90 = stats::windowed(&open.ops.samples, 8, 90.0);

    mismatches.extend(gate::check(ctx, &replies)?);

    // Tracing cost: spans recorded in the replays times the cost of one
    // recorded span, over the replays' traced time.
    let mut probe_tr = Tracer::new();
    let t = Instant::now();
    for _ in 0..20_000 {
        probe_tr.begin("trace.calibrate");
        probe_tr.end();
    }
    let per_span_ns = t.elapsed().as_nanos() as f64 / 20_000.0;
    let spans = &tr.spans;
    let selfs = stats::self_times(spans);
    let (mut root_dur, mut root_self, mut in_replays, mut probe_ns) = (0.0, 0.0, 0usize, 0.0);
    let mut in_replay = vec![false; spans.len()];
    for (k, s) in spans.iter().enumerate() {
        let root = s.parent.is_none();
        in_replay[k] = if root {
            s.name.starts_with("replay.")
        } else {
            in_replay[s.parent.expect("child")]
        };
        if in_replay[k] {
            in_replays += 1;
            if root {
                root_dur += (s.end_ns - s.start_ns) as f64;
                root_self += selfs[k] as f64;
            }
            if s.name == "trace.probe" {
                probe_ns += (s.end_ns - s.start_ns) as f64;
            }
        }
    }
    let overhead_frac = (in_replays as f64 * per_span_ns + probe_ns) / root_dur;
    let unattributed_frac = root_self / root_dur;

    let selfs = self_by_name(spans);
    let durs = dur_by_name(spans);
    let per = |name: &str, n: f64| selfs.get(name).copied().unwrap_or(0.0) / n.max(1.0) / 1e3;
    let mean_dur_us = |name: &str| {
        durs.get(name)
            .map_or(0.0, |&(d, c)| d / c.max(1) as f64 / 1e3)
    };
    let r = replays as f64;
    let writes_n = WRITE_SAMPLE as f64;
    let upkeep = per("index.upkeep", writes_n);
    let upsert = per("sketch.upsert", writes_n);
    let apply = per("concurrent.apply", writes_n);
    let phase_n = calls_n.max(1) as f64 * 1e3;
    let flips = twins.flips.max(1) as f64;

    let m: Vec<Metric> = [
        ("wire.rtt_self_us", stats::mean(&rtt_self_us), "us"),
        ("wire.codec_us", per("wire.codec", r), "us"),
        ("proto.parse_us", per("proto.parse", r), "us"),
        ("proto.render_us", per("proto.render", r), "us"),
        ("proto.reply_parse_us", per("proto.reply_parse", r), "us"),
        ("tree.prepare_us", per("tree.prepare", r), "us"),
        ("server.sig_us", stats::mean(&sig_us), "us"),
        ("server.flip_us", mean_dur_us("server.flip"), "us"),
        (
            "concurrent.snapshot_ns",
            per("concurrent.snapshot", r) * 1e3,
            "ns",
        ),
        ("concurrent.apply_us", apply, "us"),
        ("concurrent.publish_us", apply - upkeep, "us"),
        ("sketch.scan_us", per("sketch.scan", r), "us"),
        ("sketch.rows_scanned_per_query", scanned as f64 / r, "count"),
        ("sketch.refined_per_query", calls_n as f64 / r, "count"),
        (
            "sketch.prune_frac",
            prod_pruned as f64 / prod_scanned.max(1) as f64,
            "frac",
        ),
        ("sketch.upsert_us", upsert, "us"),
        ("kernel.refine_us", per("kernel.refine", r), "us"),
        ("kernel.miss_us", mean_dur_us("kernel.miss"), "us"),
        (
            "kernel.abandon_frac",
            abandoned as f64 / calls_n.max(1) as f64,
            "frac",
        ),
        (
            "kernel_phase.bound_us",
            phases.bound_ns as f64 / phase_n,
            "us",
        ),
        (
            "kernel_phase.collect_us",
            phases.collect_ns as f64 / phase_n,
            "us",
        ),
        (
            "kernel_phase.canonize_us",
            phases.canonize_ns as f64 / phase_n,
            "us",
        ),
        (
            "kernel_phase.group_us",
            phases.group_ns as f64 / phase_n,
            "us",
        ),
        (
            "kernel_phase.transport_us",
            phases.transport_ns as f64 / phase_n,
            "us",
        ),
        (
            "kernel_phase.expand_us",
            phases.expand_ns as f64 / phase_n,
            "us",
        ),
        (
            "memo.hit_frac",
            memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
            "frac",
        ),
        ("memo.entries", memo_entries, "count"),
        ("index.upkeep_us", upkeep, "us"),
        ("index.forest_upkeep_us", upkeep - upsert, "us"),
        (
            "maintain.materialize_us",
            per("maintain.materialize", flips),
            "us",
        ),
        (
            "maintain.candidates_per_flip",
            twins.candidates as f64 / flips,
            "count",
        ),
        (
            "maintain.replaced_per_flip",
            twins.replaced as f64 / flips,
            "count",
        ),
        (
            "maintain.replace_frac",
            twins.replaced as f64 / twins.candidates.max(1) as f64,
            "frac",
        ),
        ("wal.append_us", per("wal.append", writes_n), "us"),
        (
            "wal.bytes_per_write",
            twins.wal_bytes as f64 / writes_n,
            "bytes",
        ),
        (
            "durable.checkpoint_ms",
            mean_dur_us("durable.checkpoint") / 1e3,
            "ms",
        ),
        (
            "durable.checkpoints_per_run",
            twins.checkpoints as f64,
            "count",
        ),
        ("durable.recover_s", recover_s, "s"),
        ("router.knn_us", stats::mean(&router_knn), "us"),
        ("router.leg_max_us", stats::mean(&leg_max), "us"),
        ("router.merge_self_us", stats::mean(&merge_self), "us"),
        ("router.write_us", stats::mean(&router_write), "us"),
        ("router.replica_ack_max_us", stats::mean(&ack_max), "us"),
        ("ingest.signatures_s", signatures_s, "s"),
        ("ingest.index_build_s", build_s, "s"),
        ("ingest.save_s", save_s, "s"),
        ("loadgen.open_p50_us", open_p50, "us"),
        ("loadgen.open_p90_us", open_p90, "us"),
        ("loadgen.lag_p99_us", lag.tail, "us"),
        ("trace.overhead_frac", overhead_frac, "frac"),
        ("trace.unattributed_frac", unattributed_frac, "frac"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric { name, value, unit })
    .collect();

    println!(
        "traced: {} knn requests ({replays} replayed), {WRITE_SAMPLE} writes, {ROUTER_KNN} router knn, {} router writes; client knn mean {:.1} us",
        KNN_SAMPLE,
        2 * ROUTER_WRITES,
        stats::mean(&client_us)
    );
    let layers = [
        ("wire", stats::mean(&rtt_self_us) + per("wire.codec", r)),
        (
            "proto",
            per("proto.parse", r) + per("proto.render", r) + per("proto.reply_parse", r),
        ),
        ("tree", per("tree.prepare", r)),
        ("concurrent", per("concurrent.snapshot", r)),
        ("sketch", per("sketch.scan", r)),
        ("kernel", per("kernel.refine", r)),
    ];
    let largest = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("layers");
    println!(
        "  knn self time per request (us): {}; largest: {}",
        layers
            .iter()
            .map(|(n, v)| format!("{n} {v:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
        largest.0
    );
    let out = ctx
        .dir
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("trace-{}-seed{}.tsv", w.name, ctx.args.seed));
    tr.write_tsv(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("  spans: {} written to {}", tr.spans.len(), out.display());

    let attempted = (KNN_SAMPLE + WRITE_SAMPLE) as u64 + open.ops.attempted;
    Ok(Outcome {
        metrics: m,
        attempted,
        failed: open.ops.failed,
        mismatches,
    })
}
