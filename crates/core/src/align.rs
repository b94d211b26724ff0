//! Global graph alignment built on NED (the paper's Section 1 motivation:
//! "find nodes in these new networks that have similar topological
//! structures with nodes in already analyzed and explored networks").
//!
//! A seed-and-extend aligner in the style of biological network aligners
//! \[5, 18\], with NED as the topological node similarity:
//!
//! 1. **Seed**: compare the highest-degree nodes of both graphs pairwise
//!    and greedily match the closest pairs (hubs are rare, so their
//!    neighborhoods are distinctive).
//! 2. **Extend**: maintain a frontier of candidate pairs adjacent to
//!    already-matched pairs, scored by `NED + structural tie-breaks`;
//!    repeatedly commit the best candidate and push its neighborhood.
//!
//! The output is a partial injective node mapping plus the standard
//! alignment quality measures (edge correctness / induced conserved
//! structure), which are automorphism-invariant — unlike raw node
//! accuracy, which is ill-defined when graphs have symmetries.

use crate::store::SignatureStore;
use ned_graph::{Graph, NodeId};
use std::collections::{BinaryHeap, HashSet};

/// Tuning for [`align`].
#[derive(Debug, Clone, Copy)]
pub struct AlignConfig {
    /// Neighborhood depth for NED (tree levels including the root).
    pub k: usize,
    /// How many top-degree nodes per graph form the seed pool.
    pub seeds: usize,
    /// Maximum NED for a seed pair to be accepted (prevents anchoring on
    /// junk when the graphs are unrelated).
    pub max_seed_distance: u64,
}

impl Default for AlignConfig {
    fn default() -> Self {
        AlignConfig {
            k: 3,
            seeds: 16,
            max_seed_distance: u64::MAX,
        }
    }
}

/// A (partial) alignment between two graphs.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// Matched pairs `(node of g1, node of g2)`, injective on both sides.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Fraction of g1 edges whose endpoints are both matched and map to a
    /// g2 edge (edge correctness, the standard aligner quality measure).
    pub edge_correctness: f64,
    /// Sum of NED values over the matched pairs.
    pub total_distance: u64,
}

impl Alignment {
    /// `mapping[u] = Some(v)` for matched g1 nodes.
    pub fn mapping(&self, n1: usize) -> Vec<Option<NodeId>> {
        let mut out = vec![None; n1];
        for &(u, v) in &self.pairs {
            out[u as usize] = Some(v);
        }
        out
    }

    /// Fraction of g1 nodes matched.
    pub fn coverage(&self, n1: usize) -> f64 {
        if n1 == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / n1 as f64
        }
    }
}

/// Candidate pair in the expansion frontier (min-heap by score).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    /// Primary: NED; secondary: negative support (more matched neighbors
    /// in common = better); encoded so that BinaryHeap (a max-heap) pops
    /// the *best* candidate first.
    score: (u64, i64, NodeId, NodeId),
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.score.cmp(&self.score) // reversed: smallest score on top
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Aligns `g2` onto `g1` (both undirected). Deterministic.
pub fn align(g1: &Graph, g2: &Graph, cfg: &AlignConfig) -> Alignment {
    let mut s1 = SignatureStore::new(g1, cfg.k);
    let mut s2 = SignatureStore::new(g2, cfg.k);
    let mut matched1 = vec![false; g1.num_nodes()];
    let mut matched2 = vec![false; g2.num_nodes()];
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut total_distance = 0u64;

    // --- seeding ---------------------------------------------------------
    let top_by_degree = |g: &Graph, count: usize| -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        nodes.truncate(count);
        nodes
    };
    let seeds1 = top_by_degree(g1, cfg.seeds);
    let seeds2 = top_by_degree(g2, cfg.seeds);
    let mut seed_pairs: Vec<(u64, NodeId, NodeId)> = Vec::new();
    for &u in &seeds1 {
        for &v in &seeds2 {
            let d = s1.cross_distance(u, &mut s2, v);
            if d <= cfg.max_seed_distance {
                seed_pairs.push((d, u, v));
            }
        }
    }
    seed_pairs.sort_unstable();

    let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut enqueued: HashSet<(NodeId, NodeId)> = HashSet::new();
    for &(d, u, v) in &seed_pairs {
        if enqueued.insert((u, v)) {
            frontier.push(Candidate {
                score: (d, 0, u, v),
            });
        }
    }

    // --- expansion --------------------------------------------------------
    while let Some(Candidate {
        score: (d, _, u, v),
    }) = frontier.pop()
    {
        if matched1[u as usize] || matched2[v as usize] {
            continue;
        }
        matched1[u as usize] = true;
        matched2[v as usize] = true;
        pairs.push((u, v));
        total_distance += d;

        // push unmatched neighbor pairs, scored by NED and by how many
        // already-matched neighbor pairs support them
        for &nu in g1.neighbors(u) {
            if matched1[nu as usize] {
                continue;
            }
            for &nv in g2.neighbors(v) {
                if matched2[nv as usize] || !enqueued.insert((nu, nv)) {
                    continue;
                }
                let nd = s1.cross_distance(nu, &mut s2, nv);
                let support = support_count(g1, g2, nu, nv, &pairs);
                frontier.push(Candidate {
                    score: (nd, -support, nu, nv),
                });
            }
        }
    }

    let edge_correctness = edge_correctness(g1, g2, &pairs);
    Alignment {
        pairs,
        edge_correctness,
        total_distance,
    }
}

/// Number of matched pairs `(a, b)` with `a ~ u` and `b ~ v` (computed
/// over the recent tail of the match list to stay cheap).
fn support_count(g1: &Graph, g2: &Graph, u: NodeId, v: NodeId, pairs: &[(NodeId, NodeId)]) -> i64 {
    const WINDOW: usize = 64;
    pairs
        .iter()
        .rev()
        .take(WINDOW)
        .filter(|&&(a, b)| g1.has_edge(a, u) && g2.has_edge(b, v))
        .count() as i64
}

/// Edge correctness of a partial mapping: conserved edges / g1 edges.
pub fn edge_correctness(g1: &Graph, g2: &Graph, pairs: &[(NodeId, NodeId)]) -> f64 {
    if g1.num_edges() == 0 {
        return 0.0;
    }
    let mut map = vec![u32::MAX; g1.num_nodes()];
    for &(u, v) in pairs {
        map[u as usize] = v;
    }
    let conserved = g1
        .edges()
        .filter(|&(a, b)| {
            let (ma, mb) = (map[a as usize], map[b as usize]);
            ma != u32::MAX && mb != u32::MAX && g2.has_edge(ma, mb)
        })
        .count();
    conserved as f64 / g1.num_edges() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::anonymize::{anonymize, Method};
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn aligns_identical_graphs_perfectly() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::barabasi_albert(120, 2, &mut rng);
        let a = align(&g, &g, &AlignConfig::default());
        assert!(
            a.coverage(g.num_nodes()) > 0.95,
            "coverage {}",
            a.coverage(g.num_nodes())
        );
        assert!(
            a.edge_correctness > 0.9,
            "identical graphs should align: EC {}",
            a.edge_correctness
        );
    }

    #[test]
    fn aligns_relabeled_copy() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::barabasi_albert(100, 2, &mut rng);
        let anon = anonymize(&g, Method::Naive, &mut rng);
        let a = align(&g, &anon.graph, &AlignConfig::default());
        assert!(
            a.edge_correctness > 0.75,
            "relabeled copy should mostly align: EC {}",
            a.edge_correctness
        );
        // injectivity on both sides
        let mut left: Vec<u32> = a.pairs.iter().map(|&(u, _)| u).collect();
        let mut right: Vec<u32> = a.pairs.iter().map(|&(_, v)| v).collect();
        left.sort_unstable();
        right.sort_unstable();
        let (l0, r0) = (left.len(), right.len());
        left.dedup();
        right.dedup();
        assert_eq!(left.len(), l0);
        assert_eq!(right.len(), r0);
    }

    #[test]
    fn perturbed_alignment_degrades_gracefully() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::barabasi_albert(100, 2, &mut rng);
        let anon = anonymize(&g, Method::Perturb(0.05), &mut rng);
        let a = align(&g, &anon.graph, &AlignConfig::default());
        assert!(
            a.edge_correctness > 0.5,
            "5% perturbation should keep most structure: EC {}",
            a.edge_correctness
        );
    }

    #[test]
    fn unrelated_graphs_score_low() {
        // Note the direction: the expansion step proposes only
        // adjacent-to-adjacent pairs, so edge correctness is inflated when
        // the *target* is dense. Aligning a dense social graph into a
        // sparse road target makes EC an honest relatedness signal.
        // (Grid-like road-to-road alignment is additionally confounded by
        // their huge automorphism-like tie sets — see ARCHITECTURE.md,
        // "Algorithm 1 tie-breaks".)
        let mut rng = SmallRng::seed_from_u64(4);
        let road = generators::road_network(10, 10, 0.4, 0.0, &mut rng);
        let social = generators::barabasi_albert(100, 3, &mut rng);
        let related = align(
            &social,
            &{
                let anon = anonymize(&social, Method::Naive, &mut rng);
                anon.graph
            },
            &AlignConfig::default(),
        );
        let unrelated = align(&social, &road, &AlignConfig::default());
        assert!(
            related.edge_correctness > unrelated.edge_correctness + 0.1,
            "related {} vs unrelated {}",
            related.edge_correctness,
            unrelated.edge_correctness
        );
    }

    #[test]
    fn mapping_and_coverage_helpers() {
        let g = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = align(
            &g,
            &g,
            &AlignConfig {
                k: 3,
                seeds: 4,
                max_seed_distance: 0,
            },
        );
        let mapping = a.mapping(4);
        for &(u, v) in &a.pairs {
            assert_eq!(mapping[u as usize], Some(v));
        }
        assert!(a.coverage(4) <= 1.0);
        assert_eq!(edge_correctness(&g, &g, &[]), 0.0);
    }
}
