use std::ops::Range;

/// Node identifier inside a [`Graph`].
pub type NodeId = u32;

/// Edge direction selector for directed graphs.
///
/// The paper's Definition 2 extracts an *incoming* and an *outgoing*
/// k-adjacent tree from directed graphs; this enum picks which adjacency
/// a traversal follows. For undirected graphs both variants are equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges from source to target.
    Outgoing,
    /// Follow edges from target to source.
    Incoming,
}

/// A finalized graph in CSR (compressed sparse row) form.
///
/// * Undirected graphs store every edge in both endpoint's adjacency list
///   but count it once in [`Graph::num_edges`].
/// * Directed graphs keep separate out- and in-adjacency so both the
///   incoming and outgoing k-adjacent trees are cheap to extract.
/// * Adjacency lists are sorted, self-loop-free and duplicate-free
///   (the [`crate::GraphBuilder`] enforces this).
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    directed: bool,
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    /// Populated only for directed graphs.
    in_offsets: Vec<usize>,
    in_targets: Vec<NodeId>,
    num_edges: usize,
}

impl Graph {
    pub(crate) fn from_csr(
        directed: bool,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_targets: Vec<NodeId>,
        num_edges: usize,
    ) -> Self {
        Graph {
            directed,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            num_edges,
        }
    }

    /// Builds an undirected graph straight from an edge list.
    /// Self-loops and duplicate edges are dropped silently.
    pub fn undirected_from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = crate::GraphBuilder::undirected(num_nodes);
        for &(a, c) in edges {
            b.add_edge(a, c);
        }
        b.build()
    }

    /// Builds a directed graph straight from an arc list.
    pub fn directed_from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = crate::GraphBuilder::directed(num_nodes);
        for &(a, c) in edges {
            b.add_edge(a, c);
        }
        b.build()
    }

    /// Packs already-normalized undirected adjacency lists straight into
    /// CSR — the fast snapshot path for [`crate::delta::DynamicGraph`],
    /// which maintains exactly this invariant between deltas and must not
    /// pay a full [`crate::GraphBuilder`] sort per batch.
    ///
    /// Every list must be sorted ascending, self-loop-free, duplicate-free
    /// and symmetric (`b ∈ adj[a]` ⇔ `a ∈ adj[b]`); violations are caught
    /// by `debug_assert!` only.
    pub fn from_sorted_adjacency(adj: &[Vec<NodeId>]) -> Self {
        let n = adj.len();
        let mut out_offsets = vec![0usize; n + 1];
        for v in 0..n {
            debug_assert!(
                adj[v].windows(2).all(|w| w[0] < w[1]),
                "adjacency of {v} not sorted/deduped"
            );
            debug_assert!(
                adj[v].iter().all(|&w| (w as usize) < n && w as usize != v),
                "adjacency of {v} out of range or self-loop"
            );
            out_offsets[v + 1] = out_offsets[v] + adj[v].len();
        }
        let mut out_targets = Vec::with_capacity(out_offsets[n]);
        for list in adj {
            out_targets.extend_from_slice(list);
        }
        let num_edges = out_targets.len() / 2;
        debug_assert!(out_targets.len() % 2 == 0, "asymmetric adjacency");
        Graph::from_csr(
            false,
            out_offsets,
            out_targets,
            Vec::new(),
            Vec::new(),
            num_edges,
        )
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of edges (undirected edges counted once, arcs counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` for directed graphs.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// All node ids.
    #[inline]
    pub fn nodes(&self) -> Range<NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Neighbors of `v`: adjacency for undirected graphs, out-neighbors
    /// for directed graphs. Sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Neighbors following `dir`. For undirected graphs both directions
    /// return the same adjacency.
    #[inline]
    pub fn neighbors_in(&self, v: NodeId, dir: Direction) -> &[NodeId] {
        match dir {
            Direction::Outgoing => self.neighbors(v),
            Direction::Incoming if !self.directed => self.neighbors(v),
            Direction::Incoming => {
                let v = v as usize;
                &self.in_targets[self.in_offsets[v]..self.in_offsets[v + 1]]
            }
        }
    }

    /// Degree of `v` (out-degree for directed graphs).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// In-degree of `v` (same as degree for undirected graphs).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.neighbors_in(v, Direction::Incoming).len()
    }

    /// Is there an edge (arc) from `a` to `b`? `O(log degree)`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates every edge once. Undirected edges are reported with
    /// `a <= b`; arcs as `(source, target)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| self.directed || a <= b)
                .map(move |b| (a, b))
        })
    }

    /// Largest degree in the graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree: `2m/n` undirected, `m/n` directed.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        let factor = if self.directed { 1.0 } else { 2.0 };
        factor * self.num_edges as f64 / self.num_nodes() as f64
    }

    /// The subgraph induced by `nodes` (duplicates ignored). Returns the
    /// subgraph plus `mapping[new_id] = old_id`; new ids follow the order
    /// of first appearance in `nodes`.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut mapping: Vec<NodeId> = Vec::with_capacity(nodes.len());
        let mut new_id = std::collections::HashMap::with_capacity(nodes.len());
        for &v in nodes {
            assert!((v as usize) < self.num_nodes(), "node {v} out of range");
            new_id.entry(v).or_insert_with(|| {
                mapping.push(v);
                (mapping.len() - 1) as NodeId
            });
        }
        let mut builder = if self.directed {
            crate::GraphBuilder::directed(mapping.len())
        } else {
            crate::GraphBuilder::undirected(mapping.len())
        };
        for (na, &old_a) in mapping.iter().enumerate() {
            for &old_b in self.neighbors(old_a) {
                if let Some(&nb) = new_id.get(&old_b) {
                    if self.directed || (na as NodeId) <= nb {
                        builder.add_edge(na as NodeId, nb);
                    }
                }
            }
        }
        (builder.build(), mapping)
    }
}

/// Read-only adjacency: what k-adjacent tree extraction needs from a
/// graph. [`Graph`] (its outgoing side) and [`crate::DynamicGraph`]
/// implement it, so [`crate::BulkExtractor`] runs over a mutable overlay
/// as well as over CSR, without a snapshot in between.
pub trait Adjacency {
    /// Number of node slots; valid ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Neighbors of `v` (out-neighbors for directed graphs), sorted
    /// ascending — the order that fixes the BFS tie-break.
    fn neighbors(&self, v: NodeId) -> &[NodeId];
}

impl Adjacency for Graph {
    #[inline]
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph({}, n={}, m={})",
            if self.directed {
                "directed"
            } else {
                "undirected"
            },
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_basics() {
        let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_directed());
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 0), (0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn directed_in_out() {
        let g = Graph::directed_from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        assert!(g.is_directed());
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors_in(1, Direction::Incoming), &[0, 2]);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.degree(1), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::undirected_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let (sub, mapping) = g.induced_subgraph(&[1, 2, 3, 1]); // dup ignored
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(mapping, vec![1, 2, 3]);
        assert_eq!(sub.num_edges(), 2); // 1-2 and 2-3; 3-4 and 0-1 cut
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        // directed variant keeps arc orientation
        let d = Graph::directed_from_edges(4, &[(0, 1), (1, 0), (1, 2), (3, 1)]);
        let (dsub, _) = d.induced_subgraph(&[0, 1]);
        assert!(dsub.is_directed());
        assert_eq!(dsub.num_edges(), 2);
        assert!(dsub.has_edge(0, 1) && dsub.has_edge(1, 0));
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = Graph::undirected_from_edges(5, &[(0, 1)]);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(3).is_empty());
    }
}
