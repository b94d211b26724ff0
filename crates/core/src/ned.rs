//! NED: the inter-graph node metric (Section 3).
//!
//! `NED_k(u, v) = TED*(T(u, k), T(v, k))` (Equation 1), where `T(·, k)` is
//! the unordered unlabeled k-adjacent tree. Because TED\* is a metric and
//! the extraction is deterministic, NED is a metric on nodes — across
//! graphs — and admits metric indexing (crate `ned-index`).

use crate::ted_star::{ted_star, ted_star_prepared, PreparedTree, TedStarReport};
use ned_graph::bfs::{k_adjacent_tree, k_adjacent_tree_dir, TreeExtractor};
use ned_graph::{Direction, Graph, NodeId};
use ned_tree::Tree;

/// `NED_k(u, v)` between node `u` of `g1` and node `v` of `g2`
/// (Equation 1). `k` counts tree levels including the root, so `k = 3`
/// compares the 2-hop neighborhood topologies.
pub fn ned(g1: &Graph, u: NodeId, g2: &Graph, v: NodeId, k: usize) -> u64 {
    let t1 = k_adjacent_tree(g1, u, k);
    let t2 = k_adjacent_tree(g2, v, k);
    ted_star(&t1, &t2)
}

/// [`ned`] reusing per-graph BFS scratch — the right call shape when
/// computing many pairwise distances (each [`TreeExtractor`] amortizes its
/// visited-set allocation across calls).
pub fn ned_with_extractors(
    e1: &mut TreeExtractor<'_>,
    u: NodeId,
    e2: &mut TreeExtractor<'_>,
    v: NodeId,
    k: usize,
) -> u64 {
    let t1 = e1.extract(u, k);
    let t2 = e2.extract(v, k);
    ted_star(&t1, &t2)
}

/// Directed-graph NED (Equation 2): the sum of TED\* over the incoming and
/// the outgoing k-adjacent trees. Still a metric (a sum of metrics).
pub fn ned_directed(g1: &Graph, u: NodeId, g2: &Graph, v: NodeId, k: usize) -> u64 {
    let in1 = k_adjacent_tree_dir(g1, u, k, Direction::Incoming);
    let in2 = k_adjacent_tree_dir(g2, v, k, Direction::Incoming);
    let out1 = k_adjacent_tree_dir(g1, u, k, Direction::Outgoing);
    let out2 = k_adjacent_tree_dir(g2, v, k, Direction::Outgoing);
    ted_star(&in1, &in2) + ted_star(&out1, &out2)
}

/// `NED_x(u, v)` for every `x = 1..=k_max`, extracting once at `k_max` and
/// truncating. By Lemma 5 (monotonicity) the result is non-decreasing.
pub fn ned_profile(g1: &Graph, u: NodeId, g2: &Graph, v: NodeId, k_max: usize) -> Vec<u64> {
    let t1 = k_adjacent_tree(g1, u, k_max);
    let t2 = k_adjacent_tree(g2, v, k_max);
    (1..=k_max)
        .map(|k| ted_star(&t1.truncate(k), &t2.truncate(k)))
        .collect()
}

/// A node paired with its extracted, pre-canonicalized k-adjacent tree:
/// the unit NED actually compares. Pre-extracting signatures is how query
/// workloads (nearest neighbor search, de-anonymization) avoid repeating
/// BFS and canonicalization per distance call.
///
/// The prepared tree is held behind an [`std::sync::Arc`], so cloning a
/// signature — which the serving stack does constantly (index inserts,
/// snapshot publication, replace batches) — is a reference bump, and
/// structurally equal signatures produced by the bulk pipeline
/// ([`crate::SignatureFactory`]) share one allocation per isomorphism
/// class. Equality still compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSignature {
    /// The node this signature describes (id in its home graph).
    pub node: NodeId,
    prepared: std::sync::Arc<PreparedTree>,
}

impl NodeSignature {
    /// Wraps an already-prepared tree as the signature of `node` (used by
    /// [`crate::store::SignatureStore`]).
    pub fn from_prepared(node: NodeId, prepared: PreparedTree) -> Self {
        NodeSignature {
            node,
            prepared: std::sync::Arc::new(prepared),
        }
    }

    /// Like [`NodeSignature::from_prepared`] but sharing an existing
    /// allocation — the zero-copy path for stores and bulk caches that
    /// already hold their trees in `Arc`s.
    pub fn from_shared(node: NodeId, prepared: std::sync::Arc<PreparedTree>) -> Self {
        NodeSignature { node, prepared }
    }

    /// Extracts the signature of one node.
    pub fn extract(g: &Graph, node: NodeId, k: usize) -> Self {
        let tree = k_adjacent_tree(g, node, k);
        NodeSignature::from_prepared(node, PreparedTree::new(&tree))
    }

    /// The canonical-layout k-adjacent tree.
    pub fn tree(&self) -> &Tree {
        self.prepared.tree()
    }

    /// The canonicalized tree with its AHU code.
    pub fn prepared(&self) -> &PreparedTree {
        &self.prepared
    }

    /// Consumes the signature, returning the prepared tree (used by the
    /// snapshot machinery in [`crate::store`]); clones only if the tree
    /// is still shared.
    pub fn into_prepared(self) -> PreparedTree {
        std::sync::Arc::try_unwrap(self.prepared).unwrap_or_else(|arc| (*arc).clone())
    }

    /// `TED*` between two signatures = NED between the two nodes.
    pub fn distance(&self, other: &NodeSignature) -> u64 {
        ted_star_prepared(&self.prepared, &other.prepared)
    }

    /// Budgeted [`NodeSignature::distance`]: `Some(d)` **iff**
    /// `d <= budget`, computed by the early-abandoning kernel
    /// ([`crate::ted_star_prepared_within`]) — the call shape similarity
    /// search uses, passing its current pruning radius as the budget so
    /// hopeless candidates abandon mid-sweep instead of paying for the
    /// full level sweep.
    pub fn distance_within(&self, other: &NodeSignature, budget: u64) -> Option<u64> {
        crate::ted_star::ted_star_prepared_within(&self.prepared, &other.prepared, budget)
    }

    /// Cheap lower bound on [`NodeSignature::distance`]: the larger of the
    /// interned class-histogram bound (which includes the level-size L1
    /// bound; see [`crate::ted_star_class_lower_bound`]) and the sorted
    /// child-count bound ([`crate::ted_star_degree_lower_bound`]); the
    /// filter step of filter-and-refine retrieval.
    pub fn distance_lower_bound(&self, other: &NodeSignature) -> u64 {
        let (a, b) = (&*self.prepared, &*other.prepared);
        crate::ted_star::ted_star_class_lower_bound(a, b)
            .max(crate::ted_star::ted_star_degree_lower_bound(a, b))
    }

    /// Per-level cost breakdown against another signature.
    pub fn distance_report(&self, other: &NodeSignature) -> TedStarReport {
        crate::ted_star::ted_star_prepared_report(&self.prepared, &other.prepared)
    }
}

/// Groups nodes into **structural equivalence classes** at parameter `k`:
/// two nodes share a class iff their k-adjacent trees are isomorphic,
/// i.e. iff `NED_k` between them is 0 (Definition 7). Classes are sorted
/// by size, largest first; nodes within a class are sorted by id.
///
/// This is the "number of equal nearest neighbors" phenomenon of
/// Figure 8a turned into an API: at small `k` classes are huge, and they
/// shatter as `k` grows (Lemma 5).
pub fn equivalence_classes(g: &Graph, k: usize) -> Vec<Vec<NodeId>> {
    let mut extractor = TreeExtractor::new(g);
    let interner = ned_tree::SignatureInterner::global();
    // One interned subtree id per node replaces the former
    // canonical-form + code-string pipeline: the root's id is equal iff
    // the k-adjacent trees are isomorphic, and hashing a `u32` beats
    // hashing a parenthesis string of the whole neighborhood.
    let mut by_class: std::collections::HashMap<u32, Vec<NodeId>> =
        std::collections::HashMap::new();
    for v in g.nodes() {
        let tree = extractor.extract(v, k);
        let root_class = interner.subtree_ids(&tree)[0];
        by_class.entry(root_class).or_default().push(v);
    }
    let mut classes: Vec<Vec<NodeId>> = by_class.into_values().collect();
    for class in classes.iter_mut() {
        class.sort_unstable();
    }
    classes.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    classes
}

/// Extracts signatures for a batch of nodes, reusing one BFS scratch.
pub fn signatures(g: &Graph, nodes: &[NodeId], k: usize) -> Vec<NodeSignature> {
    let mut extractor = SignatureExtractor::new(g);
    nodes
        .iter()
        .map(|&node| extractor.extract(node, k))
        .collect()
}

/// A reusable **per-node** signature extractor: one [`TreeExtractor`]
/// (and its visited-set scratch arena) amortized across every extraction
/// from the same graph, instead of a fresh `O(n)` allocation per node as
/// [`NodeSignature::extract`] pays.
///
/// This is the non-bulk fallback of the ingestion pipeline (each node is
/// still canonicalized independently); the shared-work bulk path is
/// [`crate::SignatureFactory`], which additionally hash-conses canonical
/// shapes across nodes.
pub struct SignatureExtractor<'g> {
    extractor: TreeExtractor<'g>,
}

impl<'g> SignatureExtractor<'g> {
    /// Scratch sized for `g`.
    pub fn new(g: &'g Graph) -> Self {
        SignatureExtractor {
            extractor: TreeExtractor::new(g),
        }
    }

    /// Extracts one node's signature, reusing the shared scratch.
    pub fn extract(&mut self, node: NodeId, k: usize) -> NodeSignature {
        let tree = self.extractor.extract(node, k);
        NodeSignature::from_prepared(node, PreparedTree::new(&tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, ((i + 1) % n as u32))).collect();
        Graph::undirected_from_edges(n, &edges)
    }

    #[test]
    fn identical_local_structure_is_zero() {
        // All nodes of a cycle look identical at any k.
        let g = cycle(8);
        let h = cycle(12);
        for k in 1..4 {
            assert_eq!(ned(&g, 0, &h, 5, k), 0, "cycle nodes differ at k={k}");
        }
    }

    #[test]
    fn k1_distances_are_always_zero() {
        // A 1-adjacent tree is just the root.
        let g = cycle(5);
        let star = Graph::undirected_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(ned(&g, 0, &star, 0, 1), 0);
    }

    #[test]
    fn k2_compares_degrees() {
        // At k = 2 the trees are (root + neighbors): distance = |deg diff|.
        let star = Graph::undirected_from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let path = Graph::undirected_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(ned(&star, 0, &path, 1, 2), 3); // deg 5 vs deg 2
    }

    #[test]
    fn ned_is_symmetric_and_triangle_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g1 = generators::barabasi_albert(60, 2, &mut rng);
        let g2 = generators::erdos_renyi_gnm(50, 120, &mut rng);
        let g3 = generators::road_network(8, 8, 0.4, 0.0, &mut rng);
        for k in [2usize, 3, 4] {
            for (u, v, w) in [(0u32, 3u32, 5u32), (10, 20, 30), (7, 49, 11)] {
                let ab = ned(&g1, u, &g2, v, k);
                let ba = ned(&g2, v, &g1, u, k);
                assert_eq!(ab, ba);
                let bc = ned(&g2, v, &g3, w, k);
                let ac = ned(&g1, u, &g3, w, k);
                assert!(ac <= ab + bc, "k={k}: {ac} > {ab}+{bc}");
            }
        }
    }

    #[test]
    fn profile_is_monotone_in_k() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g1 = generators::barabasi_albert(80, 3, &mut rng);
        let g2 = generators::road_network(10, 10, 0.4, 0.02, &mut rng);
        for (u, v) in [(0u32, 0u32), (5, 17), (40, 63)] {
            let profile = ned_profile(&g1, u, &g2, v, 6);
            assert_eq!(profile.len(), 6);
            for w in profile.windows(2) {
                assert!(w[0] <= w[1], "monotonicity violated: {profile:?}");
            }
            // and each profile entry equals a fresh NED at that k
            for (i, &d) in profile.iter().enumerate() {
                assert_eq!(d, ned(&g1, u, &g2, v, i + 1));
            }
        }
    }

    #[test]
    fn directed_ned_sums_both_orientations() {
        //   g1: 0 -> 1, 0 -> 2 (out-star)   g2: 1 -> 0, 2 -> 0 (in-star)
        let g1 = Graph::directed_from_edges(3, &[(0, 1), (0, 2)]);
        let g2 = Graph::directed_from_edges(3, &[(1, 0), (2, 0)]);
        // out-trees: star(3) vs singleton => 2; in-trees: singleton vs star(3) => 2.
        assert_eq!(ned_directed(&g1, 0, &g2, 0, 2), 4);
        // comparing a node with itself across identical graphs is 0
        assert_eq!(ned_directed(&g1, 0, &g1, 0, 3), 0);
    }

    #[test]
    fn directed_ned_symmetry() {
        let g1 = Graph::directed_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g2 = Graph::directed_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(
            ned_directed(&g1, 0, &g2, 0, 3),
            ned_directed(&g2, 0, &g1, 0, 3)
        );
    }

    #[test]
    fn signatures_match_direct_computation() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g1 = generators::barabasi_albert(50, 2, &mut rng);
        let g2 = generators::erdos_renyi_gnm(40, 80, &mut rng);
        let sig1 = signatures(&g1, &[0, 1, 2], 3);
        let sig2 = signatures(&g2, &[5, 6], 3);
        for a in &sig1 {
            for b in &sig2 {
                assert_eq!(a.distance(b), ned(&g1, a.node, &g2, b.node, 3));
                assert_eq!(a.distance_report(b).distance, a.distance(b));
            }
        }
    }

    #[test]
    fn equivalence_classes_partition_and_shatter() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = generators::road_network(8, 8, 0.4, 0.0, &mut rng);
        let mut prev_classes = 0usize;
        for k in 1..5 {
            let classes = equivalence_classes(&g, k);
            // partition: every node in exactly one class
            let total: usize = classes.iter().map(Vec::len).sum();
            assert_eq!(total, g.num_nodes());
            let mut all: Vec<u32> = classes.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), g.num_nodes());
            // members really are NED-0 equivalent; different classes are not
            let c0 = &classes[0];
            if c0.len() >= 2 {
                assert_eq!(ned(&g, c0[0], &g, c0[1], k), 0);
            }
            if classes.len() >= 2 {
                assert!(ned(&g, classes[0][0], &g, classes[1][0], k) > 0);
            }
            // Lemma 5 corollary: classes only refine as k grows
            assert!(classes.len() >= prev_classes);
            prev_classes = classes.len();
            // sorted largest-first
            for w in classes.windows(2) {
                assert!(w[0].len() >= w[1].len());
            }
        }
        // k = 1: everything is one class (all singletons isomorphic)
        assert_eq!(equivalence_classes(&g, 1).len(), 1);
    }

    #[test]
    fn extractor_variant_agrees() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g1 = generators::erdos_renyi_gnm(30, 60, &mut rng);
        let g2 = generators::erdos_renyi_gnm(30, 60, &mut rng);
        let mut e1 = TreeExtractor::new(&g1);
        let mut e2 = TreeExtractor::new(&g2);
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(
                    ned_with_extractors(&mut e1, u, &mut e2, v, 3),
                    ned(&g1, u, &g2, v, 3)
                );
            }
        }
    }
}
