//! Criterion micro-benchmarks for the VP-tree over NED signatures —
//! the micro version of Figure 9b (index vs full scan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ned_core::{signatures, NodeSignature};
use ned_datasets::Dataset;
use ned_metric_index::{linear_knn, FnMetric, VpTree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn setup(db_size: usize) -> (VpTree<NodeSignature>, Vec<NodeSignature>) {
    let g = Dataset::Pgp.generate(0.1, 42);
    let k = Dataset::Pgp.recommended_k();
    let mut rng = SmallRng::seed_from_u64(7);
    let db_nodes: Vec<u32> = (0..db_size.min(g.num_nodes()) as u32).collect();
    let queries: Vec<u32> = (0..50u32).map(|i| i * 13 % g.num_nodes() as u32).collect();
    let db = signatures(&g, &db_nodes, k);
    let qs = signatures(&g, &queries, k);
    let metric = FnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64);
    (VpTree::build(db, &metric, &mut rng), qs)
}

fn bench_knn_vs_scan(c: &mut Criterion) {
    let metric = FnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64);
    let mut group = c.benchmark_group("vptree/knn");
    group.sample_size(10);
    for db_size in [500usize, 1000] {
        let (tree, queries) = setup(db_size);
        group.bench_with_input(
            BenchmarkId::new("vptree", db_size),
            &db_size,
            |bencher, _| {
                let mut i = 0usize;
                bencher.iter(|| {
                    i = (i + 1) % queries.len();
                    tree.knn(&metric, &queries[i], 5)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("linear_scan", db_size),
            &db_size,
            |bencher, _| {
                let mut i = 0usize;
                bencher.iter(|| {
                    i = (i + 1) % queries.len();
                    linear_knn(tree.items(), &metric, &queries[i], 5)
                });
            },
        );
    }
    group.finish();
}

fn bench_index_alternatives(c: &mut Criterion) {
    // VP-tree vs BK-tree vs filter-and-refine scan — all exact, different
    // pruning strategies over the same NED signature database.
    let mut group = c.benchmark_group("vptree/alternatives");
    group.sample_size(10);
    let (tree, queries) = setup(800);
    let metric = FnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64);
    let int_metric =
        ned_metric_index::IntFnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b));
    let bounded = ned_metric_index::FnBoundedMetric(
        |a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64,
        |a: &NodeSignature, b: &NodeSignature| a.distance_lower_bound(b) as f64,
    );
    let bk = ned_metric_index::BkTree::build(tree.items().to_vec(), &int_metric);
    group.bench_function("vptree_5nn", |bencher| {
        let mut i = 0usize;
        bencher.iter(|| {
            i = (i + 1) % queries.len();
            tree.knn(&metric, &queries[i], 5)
        });
    });
    group.bench_function("bktree_5nn", |bencher| {
        let mut i = 0usize;
        bencher.iter(|| {
            i = (i + 1) % queries.len();
            bk.knn(&int_metric, &queries[i], 5)
        });
    });
    group.bench_function("filter_refine_5nn", |bencher| {
        let mut i = 0usize;
        bencher.iter(|| {
            i = (i + 1) % queries.len();
            ned_metric_index::filter_refine_knn(tree.items(), &bounded, &queries[i], 5)
        });
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("vptree/build");
    group.sample_size(10);
    let g = Dataset::Pgp.generate(0.05, 42);
    let nodes: Vec<u32> = (0..500u32).collect();
    let sigs = signatures(&g, &nodes, 3);
    let metric = FnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64);
    group.bench_function("pgp_500_sigs", |bencher| {
        bencher.iter(|| VpTree::build(sigs.clone(), &metric, &mut SmallRng::seed_from_u64(1)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_knn_vs_scan, bench_index_alternatives, bench_build
}
criterion_main!(benches);
