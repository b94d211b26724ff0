//! **Bulk k-adjacent tree extraction**: all-nodes (or many-nodes)
//! signature ingestion as one shared-work pass instead of `n` independent
//! extract-and-canonicalize pipelines.
//!
//! # What is (and is not) shareable across roots
//!
//! The k-adjacent tree `T(v, k)` is the BFS tree of `v` truncated at `k`
//! levels. Its *frontier structure* is root-specific and provably cannot
//! be merged across roots: which neighbors of a node `w` count as `w`'s
//! children depends on `v`'s visited set and on BFS order from `v`, so a
//! node at depth `d` from one root unfolds differently than from another
//! (this is also why a Weisfeiler–Lehman-style level-synchronous label
//! propagation — which *is* root-independent — computes a different, DAG-
//! unfolded signature and cannot reproduce the paper's Definition 1).
//! What **is** shared, massively, is everything after the BFS:
//!
//! * neighboring roots' trees are built from the same subtree *shapes* —
//!   the leaves, stars and small fans of the lower levels repeat across
//!   every tree in the graph — so canonical codes, canonical child
//!   orders, and canonical layouts are hash-consed **per distinct
//!   isomorphism class** ([`ned_tree::ShapeTable`]) instead of rebuilt
//!   per node per root;
//! * entire roots repeat: structurally equivalent nodes (NED 0) share one
//!   canonical tree, which callers cache by the root's interned class.
//!
//! [`BulkExtractor`] implements the per-root half of that pipeline with
//! zero steady-state allocation: a truncated BFS into reusable flat
//! scratch (no intermediate `Tree`) over any [`Adjacency`] — a CSR
//! [`crate::Graph`] or the live [`crate::DynamicGraph`] overlay — then
//! one level-synchronous bottom-up
//! sweep over the scratch that interns every node's children-class
//! multiset straight into the process-wide [`SignatureInterner`]
//! (tabling each class on first sight). The returned root class id is a
//! complete, globally comparable identity for the k-adjacent tree;
//! `ned-core`'s `SignatureFactory` turns it into a full `NodeSignature`
//! by table expansion, once per distinct class.

use crate::{Adjacency, NodeId};
use ned_tree::{ShapeTable, SignatureInterner};
use std::sync::Arc;

/// Reusable bulk-extraction scratch. See the [module docs](self).
/// Create one per worker thread; workers share the [`ShapeTable`] (and
/// the global interner), which is where the cross-root work sharing
/// lives. The scratch holds no graph: each extraction names the graph it
/// reads, so one extractor serves any number of graphs, or one graph
/// across mutations.
pub struct BulkExtractor {
    table: Arc<ShapeTable>,
    /// Per-node visited epoch, grown to the largest graph seen and
    /// reused across extractions without clearing.
    visited_epoch: Vec<u32>,
    epoch: u32,
    /// BFS scratch: `nodes[tree_id] = graph node`, `parent[tree_id]` =
    /// tree-local parent id (non-decreasing — children are appended
    /// parent-by-parent in BFS order).
    nodes: Vec<NodeId>,
    parent: Vec<u32>,
    level_offsets: Vec<usize>,
    /// Interned subtree class per scratch node, filled bottom-up.
    classes: Vec<u32>,
    /// Per-node children-class gather buffer.
    kids: Vec<u32>,
    /// Dense per-class flag: classes this extractor has already pushed
    /// through [`ShapeTable::ensure`] — repeat sightings (the vast
    /// majority) skip the shared shard lock with one array index.
    ensured: Vec<bool>,
}

impl BulkExtractor {
    /// Empty scratch sharing `table` with sibling workers.
    pub fn new(table: Arc<ShapeTable>) -> Self {
        let mut ensured = vec![false; SignatureInterner::global().empty_id() as usize + 1];
        ensured[SignatureInterner::global().empty_id() as usize] = true;
        BulkExtractor {
            table,
            visited_epoch: Vec::new(),
            epoch: 0,
            nodes: Vec::new(),
            parent: Vec::new(),
            level_offsets: Vec::new(),
            classes: Vec::new(),
            kids: Vec::new(),
            ensured,
        }
    }

    /// The shared shape table.
    pub fn table(&self) -> &Arc<ShapeTable> {
        &self.table
    }

    /// Size (node count) of the last extracted tree.
    pub fn last_tree_len(&self) -> usize {
        self.nodes.len()
    }

    /// The interned isomorphism class of `root`'s k-adjacent tree —
    /// computed on flat scratch with no `Tree` allocation, with every
    /// encountered subtree class tabled in the shared [`ShapeTable`].
    ///
    /// The id equals what `SignatureInterner::global().subtree_ids(&t)[0]`
    /// would report for the extracted tree `t`, so it is comparable with
    /// every per-node extraction in the process.
    pub fn root_class<G: Adjacency + ?Sized>(&mut self, graph: &G, root: NodeId, k: usize) -> u32 {
        let k = k.max(1);
        assert!(
            (root as usize) < graph.num_nodes(),
            "root {root} out of range"
        );
        self.bfs(graph, root, k);
        self.canonize_scratch()
    }

    /// Truncated BFS into the flat scratch (the same traversal as
    /// [`crate::bfs::TreeExtractor`], minus the `Tree` construction).
    fn bfs<G: Adjacency + ?Sized>(&mut self, graph: &G, root: NodeId, k: usize) {
        if self.visited_epoch.len() < graph.num_nodes() {
            self.visited_epoch.resize(graph.num_nodes(), 0);
        }
        if self.epoch == u32::MAX {
            self.visited_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.nodes.clear();
        self.parent.clear();
        self.level_offsets.clear();
        self.nodes.push(root);
        self.parent.push(0);
        self.level_offsets.extend([0, 1]);
        self.visited_epoch[root as usize] = epoch;
        let mut level_start = 0usize;
        for _depth in 1..k {
            let level_end = self.nodes.len();
            if level_start == level_end {
                break;
            }
            for tree_id in level_start..level_end {
                let v = self.nodes[tree_id];
                for &w in graph.neighbors(v) {
                    let seen = &mut self.visited_epoch[w as usize];
                    if *seen != epoch {
                        *seen = epoch;
                        self.nodes.push(w);
                        self.parent.push(tree_id as u32);
                    }
                }
            }
            if self.nodes.len() == level_end {
                break;
            }
            self.level_offsets.push(self.nodes.len());
            level_start = level_end;
        }
    }

    /// Bottom-up class sweep over the BFS scratch. Children of scratch
    /// node `v` occupy a contiguous run (appended parent-by-parent), so
    /// one descending cursor visits every run exactly once.
    fn canonize_scratch(&mut self) -> u32 {
        let interner = SignatureInterner::global();
        let empty = interner.empty_id();
        let n = self.nodes.len();
        self.classes.clear();
        self.classes.resize(n, empty);
        let mut cur = n;
        for v in (0..n).rev() {
            let hi = cur;
            while cur > 1 && self.parent[cur - 1] == v as u32 {
                cur -= 1;
            }
            if cur == hi {
                continue; // leaf: keeps the pre-set empty class
            }
            if self.classes[cur..hi].iter().all(|&c| c == empty) {
                // Star fast path: nodes whose children are all leaves
                // dominate the deeper levels of truncated BFS trees (every
                // parent of last-level nodes is one); the interner
                // memoizes their classes by child count, and the sorted
                // multiset `[empty; c]` is only built to table a class
                // this extractor has not tabled yet.
                let c = hi - cur;
                let class = interner.star(c);
                if !self.is_ensured(class) {
                    self.kids.clear();
                    self.kids.resize(c, empty);
                    self.ensure(class);
                }
                self.classes[v] = class;
                continue;
            }
            self.kids.clear();
            self.kids.extend_from_slice(&self.classes[cur..hi]);
            self.kids.sort_unstable();
            let class = interner.intern(&self.kids);
            if !self.is_ensured(class) {
                self.ensure(class);
            }
            self.classes[v] = class;
        }
        self.classes[0]
    }

    #[inline]
    fn is_ensured(&self, class: u32) -> bool {
        self.ensured.get(class as usize).copied().unwrap_or(false)
    }

    /// Tables `class`, whose sorted children multiset is in `self.kids`,
    /// in the shared [`ShapeTable`] and flags it as tabled.
    fn ensure(&mut self, class: u32) {
        if (class as usize) >= self.ensured.len() {
            self.ensured.resize(class as usize + 1, false);
        }
        self.ensured[class as usize] = true;
        self.table.ensure(class, &self.kids);
    }
}

impl std::fmt::Debug for BulkExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulkExtractor")
            .field("nodes", &self.visited_epoch.len())
            .field("ensured", &self.ensured.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::TreeExtractor;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn root_class_matches_per_node_interning() {
        let mut rng = SmallRng::seed_from_u64(7);
        let interner = SignatureInterner::global();
        for g in [
            generators::barabasi_albert(120, 3, &mut rng),
            generators::erdos_renyi_gnm(90, 200, &mut rng),
            generators::road_network(8, 8, 0.4, 0.02, &mut rng),
        ] {
            let table = Arc::new(ShapeTable::new());
            let mut bulk = BulkExtractor::new(Arc::clone(&table));
            let mut single = TreeExtractor::new(&g);
            for k in [1usize, 2, 3, 4] {
                for v in g.nodes() {
                    let tree = single.extract(v, k);
                    let want = interner.subtree_ids(&tree)[0];
                    let got = bulk.root_class(&g, v, k);
                    assert_eq!(got, want, "node {v} k={k}");
                    assert_eq!(bulk.last_tree_len(), tree.len());
                    // and the tabled shape expands to the canonical form
                    let (expanded, _) = table.expand(got);
                    assert_eq!(expanded, ned_tree::ahu::canonical_form(&tree));
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_consistent() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        let table = Arc::new(ShapeTable::new());
        let mut bulk = BulkExtractor::new(table);
        let a1 = bulk.root_class(&g, 5, 3);
        let _ = bulk.root_class(&g, 17, 4);
        let a2 = bulk.root_class(&g, 5, 3);
        assert_eq!(a1, a2);
        // The same scratch over the mutable overlay of the same graph
        // (and after a larger graph grew it) reads identically.
        let big = generators::barabasi_albert(200, 2, &mut rng);
        let _ = bulk.root_class(&big, 150, 3);
        let overlay = crate::DynamicGraph::from_graph(&g);
        assert_eq!(bulk.root_class(&overlay, 5, 3), a1);
    }
}
