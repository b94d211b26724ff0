//! Property tests for the graph substrate: CSR invariants, builder
//! normalization, generator postconditions, anonymization round trips,
//! and the soundness of edge-flip dirty sets.

use ned_graph::anonymize::{self, Method};
use ned_graph::bfs::{distances, k_adjacent_tree};
use ned_graph::{
    generators, stats, Direction, DynamicGraph, Graph, GraphBuilder, GraphDelta, NodeId,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn edges_strategy(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..max_edges).prop_map(
            move |pairs| {
                (
                    n,
                    pairs
                        .into_iter()
                        .map(|(a, b)| (a % n as u32, b % n as u32))
                        .collect(),
                )
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_invariants((n, edges) in edges_strategy(40, 120)) {
        let g = Graph::undirected_from_edges(n, &edges);
        // adjacency sorted, no self loops, symmetric
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1], "adjacency must be sorted and dedup'd");
            }
            for &w in nbrs {
                prop_assert_ne!(w, v, "self loop survived");
                prop_assert!(g.has_edge(w, v), "asymmetric adjacency");
            }
        }
        // handshake: sum of degrees = 2m
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        // edges() agrees with has_edge
        for (a, b) in g.edges() {
            prop_assert!(a <= b);
            prop_assert!(g.has_edge(a, b));
        }
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn build_is_idempotent((n, edges) in edges_strategy(30, 80)) {
        let g1 = Graph::undirected_from_edges(n, &edges);
        // rebuilding from the canonical edge list reproduces the graph
        let list: Vec<(u32, u32)> = g1.edges().collect();
        let g2 = Graph::undirected_from_edges(n, &list);
        prop_assert_eq!(g1, g2);
    }

    #[test]
    fn directed_in_out_consistency((n, edges) in edges_strategy(30, 80)) {
        let g = Graph::directed_from_edges(n, &edges);
        // every arc appears in the target's in-list
        for a in g.nodes() {
            for &b in g.neighbors(a) {
                prop_assert!(g
                    .neighbors_in(b, ned_graph::Direction::Incoming)
                    .contains(&a));
            }
        }
        let out_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, in_sum);
        prop_assert_eq!(out_sum, g.num_edges());
    }

    #[test]
    fn relabel_preserves_structure((n, edges) in edges_strategy(30, 80), seed in any::<u64>()) {
        let g = Graph::undirected_from_edges(n, &edges);
        let mut rng = SmallRng::seed_from_u64(seed);
        let anon = anonymize::anonymize(&g, Method::Naive, &mut rng);
        prop_assert_eq!(anon.graph.num_edges(), g.num_edges());
        // degree multiset preserved
        let mut d1: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = anon.graph.nodes().map(|v| anon.graph.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
        // triangles preserved (isomorphism invariant)
        prop_assert_eq!(stats::triangle_count(&g), stats::triangle_count(&anon.graph));
    }

    #[test]
    fn sparsify_monotone_in_fraction((n, edges) in edges_strategy(30, 100), seed in any::<u64>()) {
        let g = Graph::undirected_from_edges(n, &edges);
        let mut rng = SmallRng::seed_from_u64(seed);
        let light = anonymize::sparsify(&g, 0.1, &mut rng);
        let heavy = anonymize::sparsify(&g, 0.7, &mut rng);
        prop_assert!(light.num_edges() >= heavy.num_edges());
        prop_assert!(light.num_edges() <= g.num_edges());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generators_respect_node_counts(n in 10usize..120, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        prop_assert_eq!(generators::barabasi_albert(n, 2, &mut rng).num_nodes(), n);
        prop_assert_eq!(generators::erdos_renyi_gnm(n, n, &mut rng).num_nodes(), n);
        let degs = generators::powerlaw_degree_sequence(n, 2.5, 1, 8, &mut rng);
        prop_assert_eq!(degs.len(), n);
        prop_assert!(degs.iter().sum::<usize>() % 2 == 0);
        let cm = generators::configuration_model(&degs, &mut rng);
        prop_assert_eq!(cm.num_nodes(), n);
    }

    #[test]
    fn road_networks_always_connected(w in 2usize..12, h in 2usize..12, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::road_network(w, h, 0.4, 0.02, &mut rng);
        prop_assert_eq!(g.num_nodes(), w * h);
        prop_assert_eq!(stats::connected_components(&g), 1);
    }
}

/// Every node's k-adjacent tree, as a canonical code.
fn tree_codes(g: &Graph, k: usize) -> Vec<Vec<u8>> {
    g.nodes()
        .map(|u| ned_tree::ahu::canonical_code(&k_adjacent_tree(g, u, k)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An edge flip's candidates hold every node whose tree changed, and
    /// nothing outside `{u : d(u,a) ≤ k−1, d(u,b) ≤ k−1, d(u,a) ≠ d(u,b)}`
    /// measured in the graph that has the edge.
    #[test]
    fn edge_flip_candidates_are_sound_and_tight(
        family in 0..3usize,
        k in 1..=5usize,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = match family {
            0 => generators::barabasi_albert(40, 2, &mut rng),
            1 => generators::erdos_renyi_gnm(40, 70, &mut rng),
            _ => generators::grid(6, 7),
        };
        let n = g.num_nodes() as NodeId;
        let radius = k - 1;
        let mut d = DynamicGraph::from_graph(&g);
        let mut current = g;
        let mut before = tree_codes(&current, k);
        for _ in 0..10 {
            let a = rng.gen_range(0..n);
            // Half the partners come from a's 2-hop ball, so triangles get
            // closed and near edges removed, not only far edges added.
            let b = if rng.gen_bool(0.5) {
                let near = d.ball(a, 2);
                near[rng.gen_range(0..near.len())]
            } else {
                rng.gen_range(0..n)
            };
            if a == b {
                continue;
            }
            let adding = !d.has_edge(a, b);
            let delta = if adding {
                GraphDelta::AddEdge(a, b)
            } else {
                GraphDelta::RemoveEdge(a, b)
            };
            let effect = d.apply(delta, radius);
            prop_assert!(effect.applied);
            let next = d.to_graph();
            let with_edge = if adding { &next } else { &current };
            let (da, db) = (
                distances(with_edge, a, Direction::Outgoing),
                distances(with_edge, b, Direction::Outgoing),
            );
            let after = tree_codes(&next, k);
            let mut seen = vec![false; n as usize];
            for &u in &effect.candidates {
                let (du_a, du_b) = (da[u as usize], db[u as usize]);
                prop_assert!(!seen[u as usize], "candidate {} listed twice", u);
                seen[u as usize] = true;
                prop_assert!(
                    du_a as usize <= radius && du_b as usize <= radius && du_a != du_b,
                    "candidate {} of {:?} at depths ({}, {}) with k = {}",
                    u, delta, du_a, du_b, k
                );
            }
            for u in 0..n as usize {
                prop_assert!(
                    before[u] == after[u] || seen[u],
                    "node {} changed under {:?} at k = {} but is no candidate",
                    u, delta, k
                );
            }
            current = next;
            before = after;
        }
    }
}

#[test]
fn builder_rejects_nothing_valid() {
    // builder accepts duplicate + reversed + self edges and normalizes
    let mut b = GraphBuilder::undirected(3);
    b.add_edge(0, 1);
    b.add_edge(1, 0);
    b.add_edge(0, 0);
    b.add_edge(2, 1);
    let g = b.build();
    assert_eq!(g.num_edges(), 2);
}
