//! Seeded inputs: the BA-4000 database graph, the hot probe pool, the
//! never-seen cold probe classes, and the net-zero write stream. The
//! program under test only ever receives these generated inputs; the
//! seed stays with the benchmark.

use ned_core::{bulk_signatures, NodeSignature};
use ned_graph::{generators, Graph};
use ned_index::SignatureIndex;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Nodes of every database and probe graph (the `ba4000` series).
pub const NODES: usize = 4000;
/// Barabási–Albert attachment count.
pub const BA_M: usize = 3;
/// Signature radius.
pub const K: usize = 3;
/// Hits per knn request (`sig <shape> 5`).
pub const TOP: usize = 5;
/// Distinct shapes in the hot pool.
pub const HOT_POOL: usize = 128;

/// One probe: its tree shape on the wire and its signature in-process.
#[derive(Clone)]
pub struct Probe {
    pub shape: String,
    pub sig: NodeSignature,
}

impl Probe {
    fn of(sig: NodeSignature) -> Probe {
        Probe {
            shape: ned_tree::serialize::print(sig.tree()),
            sig,
        }
    }
}

/// The signature a server builds from a `sig <shape>` request.
pub fn parse_shape(shape: &str) -> NodeSignature {
    let tree = ned_tree::serialize::parse(shape).expect("benchmark shapes parse");
    NodeSignature::from_prepared(0, ned_core::PreparedTree::new(&tree))
}

/// Independent seeded streams derived from the workload seed.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seed of the database graph and of the probe graphs. The served
/// dataset and the universe of probe shapes are the same in every run,
/// as a deployment serves one dataset to one population of queries; the
/// workload seed picks the traffic: which probes, in which order, and
/// which edges flip. With per-seed graphs, the hub sizes of each BA
/// graph moved the median edge-flip cost by ±15% and the cold probes'
/// CPU cost by ±12% between seeds.
const DATABASE_SEED: u64 = 4000;

/// The database graph the index is built from.
pub fn database_graph() -> Graph {
    generators::barabasi_albert(NODES, BA_M, &mut rng(DATABASE_SEED, 1))
}

/// Signatures of every node of probe graph `graph_no`, a BA graph
/// independent of the database.
fn probe_graph_signatures(graph_no: u64) -> Vec<NodeSignature> {
    let g = generators::barabasi_albert(NODES, BA_M, &mut rng(DATABASE_SEED, 100 + graph_no));
    let nodes: Vec<u32> = g.nodes().collect();
    bulk_signatures(&g, &nodes, K, 0)
}

/// Root classes of every signature in `index`.
pub fn index_classes(index: &SignatureIndex) -> HashSet<u32> {
    index
        .forest()
        .entries()
        .map(|(_, sig)| sig.prepared().root_class())
        .collect()
}

/// The hot pool: [`HOT_POOL`] distinct shapes of probe graph 0, picked
/// by the seed.
/// Warm-up sends each of them, so afterwards their kernel calls are
/// memo hits.
pub fn hot_pool(seed: u64) -> Vec<Probe> {
    let mut sigs = probe_graph_signatures(0);
    sigs.shuffle(&mut rng(seed, 2));
    let mut seen = HashSet::new();
    sigs.into_iter()
        .filter(|s| seen.insert(s.prepared().root_class()))
        .take(HOT_POOL)
        .map(Probe::of)
        .collect()
}

/// Shapes of at least `count` cold probes: root classes of probe graphs
/// 1, 2, ... absent from the index and from `exclude` (the hot pool),
/// each used once, shuffled together by the seed. Mixing every graph
/// into the stream keeps one graph's hub sizes from setting the run's
/// mean probe cost. Only the shapes are kept (a signature takes several
/// times the memory); [`parse_shape`] rebuilds one when needed.
pub fn cold_probes(seed: u64, count: usize, exclude: &HashSet<u32>) -> Vec<String> {
    let mut seen = exclude.clone();
    let mut fresh = Vec::with_capacity(count);
    let mut graph_no = 1;
    while fresh.len() < count {
        fresh.extend(
            probe_graph_signatures(graph_no)
                .into_iter()
                .filter(|s| seen.insert(s.prepared().root_class()))
                .map(|s| ned_tree::serialize::print(s.tree())),
        );
        graph_no += 1;
    }
    fresh.shuffle(&mut rng(seed, 200));
    fresh
}

/// `count` distinct non-edges of `g` to flip on and off.
pub fn non_edges(g: &Graph, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = rng(seed, 3);
    let n = g.num_nodes() as u32;
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let key = (a.min(b), a.max(b));
        if a != b && !g.has_edge(a, b) && seen.insert(key) {
            out.push(key);
        }
    }
    out
}
