//! **Dynamic graphs under edge churn**: a mutable adjacency overlay, the
//! [`GraphDelta`] edit language, and the truncated-BFS *dirty set* that
//! bounds which node signatures a delta can possibly change.
//!
//! # Which nodes an edge flip can change
//!
//! A k-adjacent tree has `k` levels: the root `u` plus every node within
//! `r = k − 1` hops, laid out by the deterministic BFS of Definition 1
//! (neighbors visited in ascending id order, each node's parent being the
//! first node that reaches it). Measure distances in the graph variant
//! that *contains* the flipped edge `(a, b)`. Then `T(u, k)` can change
//! only if
//!
//! ```text
//! d(u, a) ≤ r,   d(u, b) ≤ r,   d(u, a) ≠ d(u, b).
//! ```
//!
//! * **Equal depth.** If `d(u, a) = d(u, b) = d`, both endpoints are
//!   reached while level `d − 1` is expanded, so whichever of them is
//!   expanded first meets the other already visited: the edge adds no
//!   node and no parent link. It also never shortens a path, since it
//!   joins two nodes of the same level. The BFS runs step for step the
//!   same with and without the edge, so the tree is the same.
//! * **Far endpoint.** With the edge, `|d(u, a) − d(u, b)| ≤ 1`, so if one
//!   endpoint lies beyond `r` the other lies at `r` or beyond. The BFS only
//!   expands nodes at depth `≤ r − 1`, so it never reads the edge, with or
//!   without it (removing an edge only moves nodes further away).
//!
//! Every other node is a candidate. [`DynamicGraph::apply`] finds them with
//! two truncated BFS runs, one from each endpoint, over epoch-stamped
//! depth scratch; for `k = 3` the set is `{a, b} ∪ N(a)∖N[b] ∪ N(b)∖N[a]`,
//! so a flip that closes a triangle leaves the shared neighbor alone.
//! The set is *safe*, not exact: a candidate's tree may still come out
//! isomorphic. Recomputing the candidates and diffing their interned
//! root classes yields the **exact** changed set (equal class ⇔
//! isomorphic tree ⇔ bit-identical signature), which the incremental
//! index maintenance in `ned-index` replays as `WriteOp::Replace`
//! batches. A node removal drops all the node's edges at once and keeps
//! the plain `(k − 1)`-hop ball around the node.
//!
//! The overlay is undirected-only: the serving pipeline indexes
//! undirected signatures, and the symmetric distances above assume it.

use crate::{Adjacency, Graph, NodeId};

/// One edit to a dynamic graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphDelta {
    /// Add the undirected edge `(a, b)`. A no-op if present or `a == b`.
    AddEdge(NodeId, NodeId),
    /// Remove the undirected edge `(a, b)`. A no-op if absent.
    RemoveEdge(NodeId, NodeId),
    /// Append a fresh isolated node (its id is the current node count).
    AddNode,
    /// Remove a node: drops all its edges and retires its id (the slot
    /// stays allocated so other ids remain stable).
    RemoveNode(NodeId),
}

/// What applying one delta did: whether the graph actually changed, the
/// dirty-set candidates whose signatures may have changed, and the id of
/// a node created by [`GraphDelta::AddNode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEffect {
    /// `false` for no-ops (adding an existing edge, removing a missing
    /// one); no-ops dirty nothing.
    pub applied: bool,
    /// Every node whose k-adjacent tree *may* have changed, each once. For
    /// an edge flip: the nodes within `k − 1` hops of both endpoints at
    /// unequal distances to them, in BFS order from the edge's second
    /// endpoint `b`. For a node removal: the node's `(k − 1)`-hop ball in
    /// BFS order. For an added node: the node itself. Exact change
    /// detection is the caller's recompute-and-diff.
    pub candidates: Vec<NodeId>,
    /// The node created by an [`GraphDelta::AddNode`].
    pub added_node: Option<NodeId>,
}

/// A mutable undirected graph: sorted adjacency lists plus reusable BFS
/// scratch for dirty-set computation. Extraction reads it directly
/// through [`Adjacency`]; [`DynamicGraph::to_graph`] snapshots it to CSR
/// in `O(n + m)`. See the [module docs](self).
pub struct DynamicGraph {
    adj: Vec<Vec<NodeId>>,
    num_edges: usize,
    /// BFS stamp per node: the epoch of the last traversal that reached it.
    visited: Vec<u32>,
    /// Hop depth per node, valid where `visited` holds the current epoch.
    depth: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

impl DynamicGraph {
    /// Wraps a CSR graph for mutation.
    ///
    /// # Panics
    /// Panics on directed graphs (see the [module docs](self)).
    pub fn from_graph(g: &Graph) -> Self {
        assert!(
            !g.is_directed(),
            "DynamicGraph supports undirected graphs only"
        );
        let adj: Vec<Vec<NodeId>> = g.nodes().map(|v| g.neighbors(v).to_vec()).collect();
        DynamicGraph {
            visited: vec![0; adj.len()],
            depth: vec![0; adj.len()],
            num_edges: g.num_edges(),
            adj,
            epoch: 0,
            queue: Vec::new(),
        }
    }

    /// Number of node slots (including removed-and-retired ones).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of live undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// Is `(a, b)` a live edge?
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Applies `delta` and reports its dirty candidates at `radius`
    /// hops (pass `k − 1` for signatures extracted at parameter `k`); see
    /// [`DeltaEffect::candidates`] for the set and its order.
    ///
    /// # Panics
    /// Panics on out-of-range node ids; validate untrusted input first.
    pub fn apply(&mut self, delta: GraphDelta, radius: usize) -> DeltaEffect {
        let nop = |added: Option<NodeId>| DeltaEffect {
            applied: false,
            candidates: Vec::new(),
            added_node: added,
        };
        match delta {
            GraphDelta::AddEdge(a, b) => {
                if !self.insert_edge(a, b) {
                    return nop(None);
                }
                // Distances in the with-edge graph: the edge is present now.
                DeltaEffect {
                    applied: true,
                    candidates: self.edge_candidates(a, b, radius),
                    added_node: None,
                }
            }
            GraphDelta::RemoveEdge(a, b) => {
                if !self.has_edge(a, b) {
                    return nop(None);
                }
                // Distances in the with-edge graph: *before* the removal.
                let candidates = self.edge_candidates(a, b, radius);
                self.delete_edge(a, b);
                DeltaEffect {
                    applied: true,
                    candidates,
                    added_node: None,
                }
            }
            GraphDelta::AddNode => {
                let v = self.adj.len() as NodeId;
                self.adj.push(Vec::new());
                self.visited.push(0);
                self.depth.push(0);
                DeltaEffect {
                    applied: true,
                    candidates: vec![v],
                    added_node: Some(v),
                }
            }
            GraphDelta::RemoveNode(v) => {
                // Every dropped edge has endpoint v, so one ball around v
                // (with all edges still present) covers them all.
                let candidates = self.ball(v, radius);
                let nbrs = std::mem::take(&mut self.adj[v as usize]);
                self.num_edges -= nbrs.len();
                for w in nbrs {
                    let list = &mut self.adj[w as usize];
                    if let Ok(pos) = list.binary_search(&v) {
                        list.remove(pos);
                    }
                }
                DeltaEffect {
                    applied: true,
                    candidates,
                    added_node: None,
                }
            }
        }
    }

    fn insert_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(
            (a as usize) < self.adj.len() && (b as usize) < self.adj.len(),
            "edge ({a}, {b}) out of range for {} nodes",
            self.adj.len()
        );
        if a == b {
            return false;
        }
        let list = &mut self.adj[a as usize];
        match list.binary_search(&b) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, b);
                let other = &mut self.adj[b as usize];
                let pos = other.binary_search(&a).expect_err("symmetric absence");
                other.insert(pos, a);
                self.num_edges += 1;
                true
            }
        }
    }

    fn delete_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let Ok(pos) = self.adj[a as usize].binary_search(&b) else {
            return false;
        };
        self.adj[a as usize].remove(pos);
        let pos = self.adj[b as usize]
            .binary_search(&a)
            .expect("symmetric presence");
        self.adj[b as usize].remove(pos);
        self.num_edges -= 1;
        true
    }

    /// Every node within `radius` hops of `center` (inclusive), in BFS
    /// order. Reuses internal scratch; `O(ball size)`.
    pub fn ball(&mut self, center: NodeId, radius: usize) -> Vec<NodeId> {
        assert!((center as usize) < self.adj.len(), "node {center} unknown");
        let epoch = self.next_epoch();
        self.stamp_ball(center, radius, epoch);
        self.queue.clone()
    }

    /// The candidates of the present edge `(a, b)` (see the
    /// [module docs](self)), in BFS order from `b`.
    fn edge_candidates(&mut self, a: NodeId, b: NodeId, radius: usize) -> Vec<NodeId> {
        // Both stamps are drawn before either traversal, so a wrap-around
        // clear of `visited` cannot erase a's stamps halfway.
        let (from_a, from_b) = (self.next_epoch(), self.next_epoch());
        self.stamp_ball(a, radius, from_a);
        let mut candidates = Vec::new();
        self.queue.clear();
        self.reach_from_b(b, 0, from_a, from_b, &mut candidates);
        let (mut level_start, mut depth) = (0usize, 0u32);
        for _ in 0..radius {
            let level_end = self.queue.len();
            if level_start == level_end {
                break;
            }
            depth += 1;
            for i in level_start..level_end {
                let v = self.queue[i] as usize;
                for j in 0..self.adj[v].len() {
                    let w = self.adj[v][j];
                    if self.visited[w as usize] != from_b {
                        self.reach_from_b(w, depth, from_a, from_b, &mut candidates);
                    }
                }
            }
            level_start = level_end;
        }
        candidates
    }

    /// Enqueues `w`, first reached from `b` at `depth` hops, and keeps it
    /// as a candidate if a's traversal reached it at another depth. a's
    /// stamp is read before b's overwrites it.
    fn reach_from_b(
        &mut self,
        w: NodeId,
        depth: u32,
        from_a: u32,
        from_b: u32,
        candidates: &mut Vec<NodeId>,
    ) {
        let slot = w as usize;
        if self.visited[slot] == from_a && self.depth[slot] != depth {
            candidates.push(w);
        }
        self.visited[slot] = from_b;
        self.queue.push(w);
    }

    /// Truncated BFS from `center`: leaves the ball in `queue` in BFS
    /// order and stamps each member with `epoch` and its hop depth.
    fn stamp_ball(&mut self, center: NodeId, radius: usize, epoch: u32) {
        self.queue.clear();
        self.queue.push(center);
        self.visited[center as usize] = epoch;
        self.depth[center as usize] = 0;
        let (mut level_start, mut depth) = (0usize, 0u32);
        for _ in 0..radius {
            let level_end = self.queue.len();
            if level_start == level_end {
                break;
            }
            depth += 1;
            for i in level_start..level_end {
                let v = self.queue[i];
                for &w in &self.adj[v as usize] {
                    if self.visited[w as usize] != epoch {
                        self.visited[w as usize] = epoch;
                        self.depth[w as usize] = depth;
                        self.queue.push(w);
                    }
                }
            }
            level_start = level_end;
        }
    }

    /// A fresh traversal stamp; clears `visited` when the counter wraps.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Snapshots the current state to CSR for extraction.
    pub fn to_graph(&self) -> Graph {
        Graph::from_sorted_adjacency(&self.adj)
    }
}

impl Adjacency for DynamicGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }
}

impl std::fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DynamicGraph(n={}, m={})",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trip_and_edge_ops() {
        let g = Graph::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut d = DynamicGraph::from_graph(&g);
        assert_eq!(d.to_graph(), g);
        assert!(d.apply(GraphDelta::AddEdge(3, 4), 2).applied);
        assert!(!d.apply(GraphDelta::AddEdge(3, 4), 2).applied, "duplicate");
        assert!(!d.apply(GraphDelta::AddEdge(2, 2), 2).applied, "self-loop");
        assert!(d.apply(GraphDelta::RemoveEdge(0, 1), 2).applied);
        assert!(!d.apply(GraphDelta::RemoveEdge(0, 1), 2).applied, "absent");
        let expect = Graph::undirected_from_edges(5, &[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(d.to_graph(), expect);
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn add_and_remove_node() {
        let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 2)]);
        let mut d = DynamicGraph::from_graph(&g);
        let effect = d.apply(GraphDelta::AddNode, 2);
        assert_eq!(effect.added_node, Some(3));
        assert_eq!(effect.candidates, vec![3]);
        assert!(d.apply(GraphDelta::AddEdge(3, 0), 2).applied);
        let effect = d.apply(GraphDelta::RemoveNode(1), 2);
        assert!(effect.applied);
        assert!(effect.candidates.contains(&1));
        assert!(d.neighbors(1).is_empty());
        assert_eq!(d.num_edges(), 1); // only 0-3 left
        assert_eq!(d.to_graph().num_edges(), 1);
    }

    #[test]
    fn ball_matches_bfs_levels() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::erdos_renyi_gnm(60, 110, &mut rng);
        let mut d = DynamicGraph::from_graph(&g);
        for radius in 0..4 {
            for v in [0u32, 17, 42] {
                let mut got = d.ball(v, radius);
                got.sort_unstable();
                let mut want: Vec<NodeId> =
                    crate::bfs::bfs_levels(&g, v, radius + 1, crate::Direction::Outgoing)
                        .into_iter()
                        .flatten()
                        .collect();
                want.sort_unstable();
                assert_eq!(got, want, "v={v} radius={radius}");
            }
        }
    }

    /// `{a, b} ∪ N(a)∖N[b] ∪ N(b)∖N[a]`, sorted, in the graph holding `(a, b)`.
    fn k3_formula(d: &DynamicGraph, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let closed = |v: NodeId, w: NodeId| v == w || d.has_edge(v, w);
        let mut want = vec![a, b];
        want.extend(d.neighbors(a).iter().filter(|&&w| !closed(b, w)));
        want.extend(d.neighbors(b).iter().filter(|&&w| !closed(a, w)));
        want.sort_unstable();
        want
    }

    #[test]
    fn k3_candidates_are_endpoints_and_private_neighbors() {
        // N(0) = {2, 3, 4}, N(1) = {4, 5}: adding 0–1 closes the triangle
        // 0–4–1, so the shared neighbor 4 must stay clean. 6 and 7 sit two
        // hops from one endpoint and three from the other.
        let edges = [
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 4),
            (1, 5),
            (2, 6),
            (5, 7),
            (3, 5),
        ];
        let g = Graph::undirected_from_edges(8, &edges);
        let mut d = DynamicGraph::from_graph(&g);
        let tree_of_4 =
            |g: &Graph| ned_tree::ahu::canonical_code(&crate::bfs::k_adjacent_tree(g, 4, 3));
        let before = tree_of_4(&g);

        let mut added = d.apply(GraphDelta::AddEdge(0, 1), 2).candidates;
        added.sort_unstable();
        assert_eq!(added, vec![0, 1, 2, 3, 5]);
        assert_eq!(added, k3_formula(&d, 0, 1));
        assert_eq!(
            tree_of_4(&d.to_graph()),
            before,
            "shared neighbor unchanged"
        );

        let mut removed = d.apply(GraphDelta::RemoveEdge(0, 1), 2).candidates;
        removed.sort_unstable();
        assert_eq!(removed, added, "removal sees the same with-edge graph");

        // The same identity on random flips of a random graph.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut d = DynamicGraph::from_graph(&generators::barabasi_albert(80, 3, &mut rng));
        for _ in 0..200 {
            let (a, b) = (rng.gen_range(0..80u32), rng.gen_range(0..80u32));
            if a == b {
                continue;
            }
            // The formula reads the graph that holds the edge.
            let (mut got, want) = if d.has_edge(a, b) {
                let want = k3_formula(&d, a, b);
                (d.apply(GraphDelta::RemoveEdge(a, b), 2).candidates, want)
            } else {
                let got = d.apply(GraphDelta::AddEdge(a, b), 2).candidates;
                (got, k3_formula(&d, a, b))
            };
            got.sort_unstable();
            assert_eq!(got, want, "flip ({a}, {b})");
        }
    }

    #[test]
    fn random_churn_matches_rebuilt_graph() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::barabasi_albert(40, 2, &mut rng);
        let mut d = DynamicGraph::from_graph(&g);
        let mut edges: std::collections::BTreeSet<(NodeId, NodeId)> = g.edges().collect();
        for _ in 0..300 {
            let a = rng.gen_range(0..40u32);
            let b = rng.gen_range(0..40u32);
            let key = (a.min(b), a.max(b));
            if rng.gen_bool(0.5) {
                let effect = d.apply(GraphDelta::AddEdge(a, b), 2);
                assert_eq!(effect.applied, a != b && edges.insert(key));
            } else {
                let effect = d.apply(GraphDelta::RemoveEdge(a, b), 2);
                assert_eq!(effect.applied, edges.remove(&key));
            }
            assert_eq!(d.num_edges(), edges.len());
        }
        let want = Graph::undirected_from_edges(40, &edges.iter().copied().collect::<Vec<_>>()[..]);
        assert_eq!(d.to_graph(), want);
    }
}
