//! Hausdorff graph distance over NED (Appendix A).
//!
//! Viewing a graph as the collection of its nodes' k-adjacent trees, the
//! Hausdorff distance with NED as the ground metric is itself a metric on
//! graphs (Definition 9), and — unlike graph edit distance — it is
//! polynomial-time computable.

use crate::ned::{signatures, NodeSignature};
use ned_graph::{Graph, NodeId};

/// Directed Hausdorff term `h(A, B) = max_{a∈A} min_{b∈B} δ_T(a, b)`.
fn directed_hausdorff(a: &[NodeSignature], b: &[NodeSignature]) -> u64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "collections must be non-empty"
    );
    a.iter()
        .map(|x| {
            b.iter()
                .map(|y| x.distance(y))
                .min()
                .expect("b is non-empty")
        })
        .max()
        .expect("a is non-empty")
}

/// Hausdorff distance between two signature collections:
/// `H(A, B) = max(h(A, B), h(B, A))` (Equation 22).
pub fn hausdorff_signatures(a: &[NodeSignature], b: &[NodeSignature]) -> u64 {
    directed_hausdorff(a, b).max(directed_hausdorff(b, a))
}

/// Hausdorff NED distance between two whole graphs at parameter `k`.
/// `O(|V1|·|V2|)` TED\* computations — use [`hausdorff_between`] with
/// sampled node sets on large graphs.
pub fn hausdorff_ned(g1: &Graph, g2: &Graph, k: usize) -> u64 {
    let nodes1: Vec<NodeId> = g1.nodes().collect();
    let nodes2: Vec<NodeId> = g2.nodes().collect();
    hausdorff_between(g1, &nodes1, g2, &nodes2, k)
}

/// Hausdorff NED distance restricted to explicit node subsets (callers
/// pick the sampling policy; the result is the Hausdorff distance of the
/// sampled collections).
pub fn hausdorff_between(
    g1: &Graph,
    nodes1: &[NodeId],
    g2: &Graph,
    nodes2: &[NodeId],
    k: usize,
) -> u64 {
    let sig1 = signatures(g1, nodes1, k);
    let sig2 = signatures(g2, nodes2, k);
    hausdorff_signatures(&sig1, &sig2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Graph::undirected_from_edges(n, &edges)
    }

    #[test]
    fn identical_graphs_distance_zero() {
        let g = generators::barabasi_albert(30, 2, &mut SmallRng::seed_from_u64(1));
        assert_eq!(hausdorff_ned(&g, &g, 3), 0);
    }

    #[test]
    fn cycles_of_different_length_are_zero() {
        // every node of every cycle has an isomorphic k-adjacent tree
        // (as long as k is below half the girth)
        assert_eq!(hausdorff_ned(&cycle(10), &cycle(14), 3), 0);
    }

    #[test]
    fn symmetric() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = generators::erdos_renyi_gnm(20, 40, &mut rng);
        let b = generators::barabasi_albert(20, 2, &mut rng);
        assert_eq!(hausdorff_ned(&a, &b, 3), hausdorff_ned(&b, &a, 3));
    }

    #[test]
    fn triangle_inequality() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = generators::erdos_renyi_gnm(15, 30, &mut rng);
        let b = generators::barabasi_albert(15, 2, &mut rng);
        let c = generators::road_network(4, 4, 0.5, 0.0, &mut rng);
        let ab = hausdorff_ned(&a, &b, 3);
        let bc = hausdorff_ned(&b, &c, 3);
        let ac = hausdorff_ned(&a, &c, 3);
        assert!(ac <= ab + bc);
    }

    #[test]
    fn road_vs_social_is_far() {
        let mut rng = SmallRng::seed_from_u64(4);
        let road1 = generators::road_network(6, 6, 0.4, 0.0, &mut rng);
        let road2 = generators::road_network(6, 6, 0.4, 0.0, &mut rng);
        let social = generators::barabasi_albert(36, 3, &mut rng);
        let road_road = hausdorff_ned(&road1, &road2, 3);
        let road_social = hausdorff_ned(&road1, &social, 3);
        assert!(
            road_road < road_social,
            "similar-model graphs should be closer: {road_road} vs {road_social}"
        );
    }

    #[test]
    fn sampled_subset_lower_bounds_full() {
        // Hausdorff over subsets can move either way in general, but the
        // directed term over a subset of A against full B is a lower bound
        // of h(A, B).
        let mut rng = SmallRng::seed_from_u64(5);
        let a = generators::erdos_renyi_gnm(20, 50, &mut rng);
        let b = generators::barabasi_albert(25, 2, &mut rng);
        let all_a: Vec<u32> = a.nodes().collect();
        let all_b: Vec<u32> = b.nodes().collect();
        let sub_a: Vec<u32> = (0..10).collect();
        let sig_suba = signatures(&a, &sub_a, 3);
        let sig_fulla = signatures(&a, &all_a, 3);
        let sig_b = signatures(&b, &all_b, 3);
        assert!(directed_hausdorff(&sig_suba, &sig_b) <= directed_hausdorff(&sig_fulla, &sig_b));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_collection_panics() {
        directed_hausdorff(&[], &[]);
    }
}
