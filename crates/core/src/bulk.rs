//! **Bulk signature ingestion**: the shared-work pipeline that turns
//! whole-graph (and dirty-set) signature extraction from `n` independent
//! extract-and-canonicalize runs into one hash-consed pass.
//!
//! The per-node baseline ([`crate::signatures`]) pays, for every node,
//! a BFS plus a full re-canonicalization: `canonical_form` (per-node code
//! strings and byte-wise sibling sorts), `canonical_code` (the same code
//! construction again on the relaid tree), and an interner sweep. On
//! BA-graph ingest that canonicalization is ~85% of the wall time, and
//! almost all of it recomputes shapes that *every other tree in the graph
//! also contains* — leaves, stars, and small fans repeat across
//! neighborhoods by construction.
//!
//! [`SignatureFactory`] shares that work at two levels:
//!
//! * **Subtree shapes** are hash-consed process-pass-wide: the
//!   [`BulkExtractor`](ned_graph::BulkExtractor) interns every node's
//!   children-class multiset bottom-up on flat scratch (no intermediate
//!   `Tree`), and each *distinct* class gets its canonical code and
//!   child order tabled exactly once ([`ned_tree::ShapeTable`]).
//! * **Whole signatures** are cached by the root's interned class: the
//!   canonical `PreparedTree` is reconstructed by pure table expansion
//!   once per distinct neighborhood shape and shared (`Arc`) by every
//!   structurally equivalent node — bit-identical to what
//!   [`crate::NodeSignature::extract`] produces, pinned by the
//!   bulk-vs-single property tests.
//!
//! Extraction fans out across worker threads ([`crate::batch`]): workers
//! share the factory's shape table and signature cache and keep private
//! BFS scratch, so the shared state only sees one insert per distinct
//! shape. The same factory drives incremental maintenance (`ned-index`'s
//! `GraphMaintainer`): a delta's dirty set is just another node batch,
//! read straight off the live adjacency overlay by one kept-alive
//! [`BulkSignatureExtractor`], and an edge flip that returns a
//! neighborhood to a previously seen shape is a pure cache hit.

use crate::ned::NodeSignature;
use crate::ted_star::PreparedTree;
use ned_graph::{Adjacency, Graph, NodeId};
use ned_tree::ShapeTable;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const CACHE_SHARDS: usize = 16;

/// Nodes per worker chunk of a fanned-out extraction; a batch this small
/// runs on one extractor.
const CHUNK: usize = 256;

/// Shared state of the bulk pipeline: the canonical shape table plus a
/// root-class → prepared-tree cache. Create one per ingest pipeline (or
/// keep one alive per maintained graph) and spawn a
/// [`BulkSignatureExtractor`] per worker; see the [module docs](self).
/// Clones are handles on the same shared state.
#[derive(Clone)]
pub struct SignatureFactory {
    shared: Arc<Shared>,
}

struct Shared {
    table: Arc<ShapeTable>,
    cache: [Mutex<HashMap<u32, Arc<PreparedTree>>>; CACHE_SHARDS],
}

impl Default for SignatureFactory {
    fn default() -> Self {
        Self::new()
    }
}

impl SignatureFactory {
    /// An empty factory.
    pub fn new() -> Self {
        SignatureFactory {
            shared: Arc::new(Shared {
                table: Arc::new(ShapeTable::new()),
                cache: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            }),
        }
    }

    /// The canonical shape table shared by this factory's extractors.
    fn shape_table(&self) -> &Arc<ShapeTable> {
        &self.shared.table
    }

    /// Number of distinct root classes cached so far (the signature-level
    /// deduplication win).
    pub fn cached_roots(&self) -> usize {
        self.shared
            .cache
            .iter()
            .map(|s| s.lock().expect("factory shard poisoned").len())
            .sum()
    }

    /// A per-worker extractor sharing this factory's state. It reads any
    /// graph it is handed and keeps its scratch between calls.
    pub fn extractor(&self) -> BulkSignatureExtractor {
        BulkSignatureExtractor {
            factory: self.clone(),
            inner: ned_graph::BulkExtractor::new(Arc::clone(&self.shared.table)),
            kid_orders: Vec::new(),
            expand_classes: Vec::new(),
            expand_parent: Vec::new(),
            expand_counts: Vec::new(),
            expand_levels: Vec::new(),
        }
    }

    /// Extracts the signatures of `nodes` (in order) on up to `threads`
    /// worker threads (`0` = all cores), sharing shapes across workers.
    /// Output is element-wise identical to [`crate::signatures`].
    pub fn signatures<G: Adjacency + Sync + ?Sized>(
        &self,
        graph: &G,
        nodes: &[NodeId],
        k: usize,
        threads: usize,
    ) -> Vec<NodeSignature> {
        // Chunked fan-out: each chunk gets a private extractor (the BFS
        // scratch is per-worker state), sized so the O(n) visited-array
        // setup amortizes over many extractions.
        let chunks: Vec<&[NodeId]> = nodes.chunks(CHUNK).collect();
        let per_chunk: Vec<Vec<NodeSignature>> =
            crate::batch::par_map(chunks.len(), threads, |ci| {
                let mut extractor = self.extractor();
                chunks[ci]
                    .iter()
                    .map(|&v| extractor.extract(graph, v, k))
                    .collect()
            });
        per_chunk.into_iter().flatten().collect()
    }

    /// The interned root classes of `nodes` (in order) without
    /// materializing signatures — the cheap seed/diff pass for
    /// incremental maintenance (equal class ⇔ bit-identical signature).
    pub fn root_classes<G: Adjacency + Sync + ?Sized>(
        &self,
        graph: &G,
        nodes: &[NodeId],
        k: usize,
        threads: usize,
    ) -> Vec<u32> {
        let chunks: Vec<&[NodeId]> = nodes.chunks(CHUNK).collect();
        let per_chunk: Vec<Vec<u32>> = crate::batch::par_map(chunks.len(), threads, |ci| {
            let mut extractor = self.extractor();
            chunks[ci]
                .iter()
                .map(|&v| extractor.root_class(graph, v, k))
                .collect()
        });
        per_chunk.into_iter().flatten().collect()
    }

    #[inline]
    fn cache_shard(class: u32) -> usize {
        (u64::from(class).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize % CACHE_SHARDS
    }

    /// The cached prepared tree of a root class, if present.
    fn cached(&self, class: u32) -> Option<Arc<PreparedTree>> {
        self.shared.cache[Self::cache_shard(class)]
            .lock()
            .expect("factory shard poisoned")
            .get(&class)
            .cloned()
    }

    fn insert_cached(&self, class: u32, prepared: Arc<PreparedTree>) -> Arc<PreparedTree> {
        let mut shard = self.shared.cache[Self::cache_shard(class)]
            .lock()
            .expect("factory shard poisoned");
        Arc::clone(shard.entry(class).or_insert(prepared))
    }
}

impl std::fmt::Debug for SignatureFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignatureFactory")
            .field("cached_roots", &self.cached_roots())
            .field("table", &self.shared.table)
            .finish()
    }
}

/// One worker's handle on a [`SignatureFactory`]: private BFS/expansion
/// scratch plus dense (class-indexed) mirrors of the shared table, so the
/// steady-state hot path takes no locks beyond the interner's. Holds no
/// graph: keep one alive across calls (and across mutations of a dynamic
/// graph) and its scratch is never rebuilt.
pub struct BulkSignatureExtractor {
    factory: SignatureFactory,
    inner: ned_graph::BulkExtractor,
    /// Dense lazy mirror: `kid_orders[class]` = the class's canonical
    /// child order (`ShapeTable` entries are immutable once written, so
    /// mirroring is always safe).
    kid_orders: Vec<Option<Arc<[u32]>>>,
    // Expansion scratch, reused across cache misses.
    expand_classes: Vec<u32>,
    expand_parent: Vec<u32>,
    expand_counts: Vec<u32>,
    expand_levels: Vec<usize>,
}

impl BulkSignatureExtractor {
    /// The interned isomorphism class of `node`'s k-adjacent tree in
    /// `graph` (no signature materialization — the churn-diff fast path).
    pub fn root_class<G: Adjacency + ?Sized>(&mut self, graph: &G, node: NodeId, k: usize) -> u32 {
        self.inner.root_class(graph, node, k)
    }

    /// Extracts one node's signature in `graph` through the shared caches
    /// — bit-identical to [`NodeSignature::extract`].
    pub fn extract<G: Adjacency + ?Sized>(
        &mut self,
        graph: &G,
        node: NodeId,
        k: usize,
    ) -> NodeSignature {
        let class = self.inner.root_class(graph, node, k);
        NodeSignature::from_shared(node, self.prepared_of(class))
    }

    /// The signatures of `nodes` (in order): on this extractor's kept
    /// scratch when they fit one worker chunk (or `threads == 1`), else
    /// fanned out like [`SignatureFactory::signatures`].
    pub fn signatures<G: Adjacency + Sync + ?Sized>(
        &mut self,
        graph: &G,
        nodes: &[NodeId],
        k: usize,
        threads: usize,
    ) -> Vec<NodeSignature> {
        if threads == 1 || nodes.len() <= CHUNK {
            return nodes.iter().map(|&v| self.extract(graph, v, k)).collect();
        }
        self.factory.signatures(graph, nodes, k, threads)
    }

    /// The shared canonical [`PreparedTree`] of an already-extracted root
    /// class (expanding and caching it on first sight).
    fn prepared_of(&mut self, class: u32) -> Arc<PreparedTree> {
        if let Some(hit) = self.factory.cached(class) {
            return hit;
        }
        let prepared = Arc::new(self.expand(class));
        self.factory.insert_cached(class, prepared)
    }

    /// [`ShapeTable::expand`] on reusable scratch with the dense local
    /// kid-order mirror: reconstructs the canonical tree, code, and
    /// per-level classes of `class` with one array index per node — no
    /// per-node hashing, locking, or reference counting on the hot loop.
    fn expand(&mut self, class: u32) -> PreparedTree {
        self.expand_classes.clear();
        self.expand_parent.clear();
        self.expand_counts.clear();
        self.expand_levels.clear();
        self.expand_classes.push(class);
        self.expand_parent.push(0);
        self.expand_levels.extend([0, 1]);
        // Field-disjoint borrows: the mirror is read (and lazily filled
        // from the shared table) while the scratch vectors grow.
        let kid_orders = &mut self.kid_orders;
        let table = self.inner.table();
        let mut level_start = 0usize;
        loop {
            let level_end = self.expand_classes.len();
            for v in level_start..level_end {
                let c = self.expand_classes[v] as usize;
                if c >= kid_orders.len() {
                    kid_orders.resize(c + 1, None);
                }
                if kid_orders[c].is_none() {
                    let entry = table
                        .get(c as u32)
                        .unwrap_or_else(|| panic!("class {c} not tabled"));
                    kid_orders[c] = Some(entry.kids_by_code);
                }
                let kids: &[u32] = kid_orders[c].as_deref().expect("filled above");
                self.expand_counts.push(kids.len() as u32);
                for &kc in kids {
                    self.expand_classes.push(kc);
                    self.expand_parent.push(v as u32);
                }
            }
            if self.expand_classes.len() == level_end {
                break;
            }
            self.expand_levels.push(self.expand_classes.len());
            level_start = level_end;
        }
        let n = self.expand_classes.len();
        debug_assert_eq!(self.expand_counts.len(), n);
        let mut child_offsets = vec![0usize; n + 1];
        let mut acc = 1usize;
        for (v, &count) in self.expand_counts.iter().enumerate() {
            child_offsets[v] = acc;
            acc += count as usize;
        }
        child_offsets[n] = acc;
        let tree = ned_tree::Tree::from_bfs_parts(
            self.expand_parent.clone(),
            child_offsets,
            self.expand_levels.clone(),
        );
        // The expansion scratch is already the SoA input: per-node classes
        // in BFS (level-contiguous) order plus the level boundaries. The
        // shared builder sorts within levels and derives sizes/runs.
        let level_offsets: Vec<u32> = self.expand_levels.iter().map(|&o| o as u32).collect();
        let code: Box<[u8]> = self
            .factory
            .shape_table()
            .get(class)
            .expect("root class tabled during extraction")
            .code[..]
            .into();
        PreparedTree::from_parts(tree, code, self.expand_classes.clone(), level_offsets)
    }
}

/// One-shot bulk extraction: [`SignatureFactory::signatures`] on a fresh
/// factory. Element-wise identical to [`crate::signatures`]; keep the
/// factory itself when ingesting repeatedly (or maintaining a dynamic
/// graph) so shapes stay hot across calls.
pub fn bulk_signatures(
    g: &Graph,
    nodes: &[NodeId],
    k: usize,
    threads: usize,
) -> Vec<NodeSignature> {
    SignatureFactory::new().signatures(g, nodes, k, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bulk_matches_per_node_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = generators::barabasi_albert(150, 3, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        for k in [1usize, 2, 3, 4] {
            let single = crate::signatures(&g, &nodes, k);
            let bulk = bulk_signatures(&g, &nodes, k, 2);
            assert_eq!(single, bulk, "k={k}");
        }
    }

    #[test]
    fn equivalent_nodes_share_one_allocation() {
        // Every node of a cycle is structurally identical at any k.
        let edges: Vec<(u32, u32)> = (0..32u32).map(|i| (i, (i + 1) % 32)).collect();
        let g = ned_graph::Graph::undirected_from_edges(32, &edges);
        let nodes: Vec<u32> = g.nodes().collect();
        let factory = SignatureFactory::new();
        let sigs = factory.signatures(&g, &nodes, 3, 1);
        assert_eq!(factory.cached_roots(), 1, "one shape class total");
        for s in &sigs[1..] {
            assert!(
                std::ptr::eq(sigs[0].prepared(), s.prepared()),
                "equivalent nodes must share one prepared tree"
            );
        }
    }

    #[test]
    fn factory_reuse_across_graphs_is_sound() {
        let mut rng = SmallRng::seed_from_u64(42);
        let factory = SignatureFactory::new();
        let g1 = generators::erdos_renyi_gnm(80, 160, &mut rng);
        let g2 = generators::road_network(7, 7, 0.4, 0.02, &mut rng);
        let n1: Vec<u32> = g1.nodes().collect();
        let n2: Vec<u32> = g2.nodes().collect();
        assert_eq!(
            factory.signatures(&g1, &n1, 3, 1),
            crate::signatures(&g1, &n1, 3)
        );
        assert_eq!(
            factory.signatures(&g2, &n2, 3, 1),
            crate::signatures(&g2, &n2, 3)
        );
    }
}
