//! Bulk-vs-single extraction equality: the shared-work bulk pipeline
//! ([`ned_core::bulk_signatures`] / [`SignatureFactory`]) must produce
//! signatures **bit-identical** to the independent per-node path
//! ([`ned_core::signatures`] / [`NodeSignature::extract`]) — same
//! canonical layout, same AHU code, same interned level classes — on
//! every fixture family the paper evaluates (scale-free, random, road)
//! and at every tree depth, in serial and parallel fan-out.

use ned_core::{bulk_signatures, signatures, NodeSignature, SignatureFactory};
use ned_graph::generators;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn assert_identical(a: &[NodeSignature], b: &[NodeSignature], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.node, y.node, "{what}: node order");
        assert_eq!(
            x.prepared(),
            y.prepared(),
            "{what}: node {} prepared tree diverged",
            x.node
        );
    }
}

#[test]
fn bulk_equals_single_on_ba_er_and_road_fixtures() {
    let mut rng = SmallRng::seed_from_u64(0x9A);
    let fixtures: Vec<(&str, ned_graph::Graph)> = vec![
        ("ba", generators::barabasi_albert(400, 3, &mut rng)),
        ("er", generators::erdos_renyi_gnm(300, 700, &mut rng)),
        (
            "road",
            generators::road_network(18, 18, 0.4, 0.02, &mut rng),
        ),
    ];
    for (name, g) in &fixtures {
        let nodes: Vec<u32> = g.nodes().collect();
        for k in [1usize, 2, 3, 4, 5] {
            let single = signatures(g, &nodes, k);
            let serial = bulk_signatures(g, &nodes, k, 1);
            assert_identical(&single, &serial, &format!("{name} k={k} serial"));
            let parallel = bulk_signatures(g, &nodes, k, 4);
            assert_identical(&single, &parallel, &format!("{name} k={k} parallel"));
        }
    }
}

#[test]
fn bulk_agrees_with_extract_on_arbitrary_node_subsets() {
    let mut rng = SmallRng::seed_from_u64(0x9B);
    let g = generators::barabasi_albert(250, 2, &mut rng);
    // Repeats and arbitrary order are allowed: output is positional.
    let nodes: Vec<u32> = vec![17, 0, 17, 249, 88, 3, 88];
    let bulk = bulk_signatures(&g, &nodes, 4, 2);
    for (sig, &v) in bulk.iter().zip(&nodes) {
        let want = NodeSignature::extract(&g, v, 4);
        assert_eq!(sig, &want, "node {v}");
    }
}

#[test]
fn one_factory_serves_many_graphs_and_depths() {
    // A long-lived factory (the incremental-maintenance configuration)
    // must stay exact as graphs and k values interleave.
    let mut rng = SmallRng::seed_from_u64(0x9C);
    let factory = SignatureFactory::new();
    for round in 0..6 {
        let g = match round % 3 {
            0 => generators::barabasi_albert(150, 2, &mut rng),
            1 => generators::erdos_renyi_gnm(120, 260, &mut rng),
            _ => generators::road_network(9, 9, 0.4, 0.05, &mut rng),
        };
        let nodes: Vec<u32> = g.nodes().collect();
        let k = 2 + round % 3;
        assert_identical(
            &signatures(&g, &nodes, k),
            &factory.signatures(&g, &nodes, k, 2),
            &format!("round {round} k={k}"),
        );
    }
    assert!(factory.cached_roots() > 0);
}

#[test]
fn classes_interned_first_expand_exactly_later() {
    // An incremental maintainer seeds its change detector with root
    // classes only, which tables every class without building its code,
    // and expands a class into a signature only when churn reaches it.
    // Codes built that late, and in another order, must be the ones an
    // eager extraction builds.
    let mut rng = SmallRng::seed_from_u64(0x9D);
    let g1 = generators::barabasi_albert(200, 3, &mut rng);
    let g2 = generators::erdos_renyi_gnm(150, 400, &mut rng);
    let factory = SignatureFactory::new();
    for k in [2usize, 3, 4] {
        let n1: Vec<u32> = g1.nodes().collect();
        let n2: Vec<u32> = g2.nodes().collect();
        let cached = factory.cached_roots();
        let classes = factory.root_classes(&g1, &n1, k, 2);
        assert_eq!(factory.cached_roots(), cached, "k={k}: classing expanded");
        // Another graph's expansions reach some of g1's classes first.
        assert_identical(
            &signatures(&g2, &n2, k),
            &factory.signatures(&g2, &n2, k, 1),
            &format!("g2 k={k}"),
        );
        let reversed: Vec<u32> = n1.iter().rev().copied().collect();
        let late = factory.signatures(&g1, &reversed, k, 2);
        assert_identical(&signatures(&g1, &reversed, k), &late, &format!("g1 k={k}"));
        for (sig, &v) in late.iter().zip(&reversed) {
            assert_eq!(sig.prepared().root_class(), classes[v as usize], "node {v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bulk_equals_single_on_random_graphs(
        seed in any::<u64>(),
        n in 20..120usize,
        extra_edges in 0..150usize,
        k in 1..5usize,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnm(n, n + extra_edges, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        let single = signatures(&g, &nodes, k);
        let bulk = bulk_signatures(&g, &nodes, k, 2);
        prop_assert_eq!(single, bulk);
    }
}
