//! SoA kernel consistency on realistic graph-derived workloads: the
//! prepared path, the tree path, the budgeted kernel and the memo-batched
//! knn must agree across Barabási–Albert, Erdős–Rényi and road-network
//! graphs — the corpus family the benchmarks run on. The kernel's
//! bit-identity with the frozen Algorithm 1 engine on these corpora, for
//! every radius `k ∈ 1..=5`, is pinned in ned-bench
//! (`crates/bench/tests/frozen_algorithm1.rs`).

use ned_core::batch::{knn_batch, knn_batch_filtered};
use ned_core::{
    signatures, ted_star, ted_star_class_lower_bound, ted_star_prepared, ted_star_prepared_within,
    PreparedTree, TedMemo,
};
use ned_graph::bfs::k_adjacent_tree;
use ned_graph::generators::{barabasi_albert, erdos_renyi_gnm, road_network};
use ned_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A small corpus spanning the paper's three graph families.
fn corpus(rng: &mut SmallRng) -> Vec<(&'static str, Graph)> {
    vec![
        ("ba", barabasi_albert(120, 3, rng)),
        ("er", erdos_renyi_gnm(120, 240, rng)),
        ("road", road_network(8, 8, 0.4, 0.05, rng)),
    ]
}

/// Evenly spread sample of node ids.
fn sample_nodes(g: &Graph, count: usize) -> Vec<NodeId> {
    let n = g.num_nodes();
    (0..count).map(|i| (i * n / count) as NodeId).collect()
}

#[test]
fn prepared_paths_agree_with_tree_paths_and_respect_budgets() {
    let mut rng = SmallRng::seed_from_u64(0x50A1);
    for (family, g) in corpus(&mut rng) {
        let nodes = sample_nodes(&g, 6);
        for k in [2usize, 4] {
            let prepared: Vec<(ned_tree::Tree, PreparedTree)> = nodes
                .iter()
                .map(|&v| {
                    let t = k_adjacent_tree(&g, v, k);
                    let p = PreparedTree::new(&t);
                    (t, p)
                })
                .collect();
            for (i, (ta, pa)) in prepared.iter().enumerate() {
                for (tb, pb) in prepared.iter().skip(i) {
                    let d = ted_star(ta, tb);
                    assert_eq!(d, ted_star_prepared(pa, pb), "{family} k={k}");
                    let lb = ted_star_class_lower_bound(pa, pb);
                    assert!(lb <= d, "{family} k={k}: bound {lb} > distance {d}");
                    // Budget semantics around the exact distance.
                    assert_eq!(ted_star_prepared_within(pa, pb, d), Some(d));
                    if d > 0 {
                        assert_eq!(ted_star_prepared_within(pa, pb, d - 1), None);
                    }
                }
            }
        }
    }
}

#[test]
fn filtered_knn_with_batched_memo_matches_plain_knn() {
    let mut rng = SmallRng::seed_from_u64(0x50A2);
    let g = barabasi_albert(150, 2, &mut rng);
    let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    let sigs = signatures(&g, &all, 4);
    let (queries, database) = sigs.split_at(30);

    // Cold memo: the batch probe decides nothing, every refinement runs
    // the kernel.
    TedMemo::global().set_capacity(1 << 20);
    TedMemo::global().clear();
    let plain = knn_batch(queries, database, 5, 2);
    let filtered_cold = knn_batch_filtered(queries, database, 5, 2);
    for (qi, (hits, refined)) in filtered_cold.iter().enumerate() {
        assert_eq!(hits, &plain[qi], "cold query {qi}");
        assert!(*refined <= database.len());
    }

    // Warm memo: `knn_batch` above recorded every (query, candidate)
    // pair, so the batched prefetch now serves refinements straight from
    // the shard maps — results must be unchanged.
    let filtered_warm = knn_batch_filtered(queries, database, 5, 2);
    for (qi, (hits, refined)) in filtered_warm.iter().enumerate() {
        assert_eq!(hits, &plain[qi], "warm query {qi}");
        assert_eq!(
            *refined, filtered_cold[qi].1,
            "warm run scanned a different candidate prefix"
        );
    }
}
