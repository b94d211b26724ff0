//! Criterion micro-benchmarks for the dynamic sharded forest: queries
//! against the full-scan baseline, incremental build throughput, and
//! remove/compact churn.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ned_bench::util::ClassicSignatureMetric;
use ned_core::{signatures, NodeSignature, TedMemo};
use ned_graph::generators;
use ned_index::SignatureIndex;
use ned_metric_index::{ShardedVpForest, SignatureMetric};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn setup(db_size: usize, k: usize) -> (ShardedVpForest<NodeSignature>, Vec<NodeSignature>) {
    let mut rng = SmallRng::seed_from_u64(17);
    let gdb = generators::barabasi_albert(db_size, 3, &mut rng);
    let gq = generators::barabasi_albert(db_size, 3, &mut rng);
    let db_nodes: Vec<u32> = gdb.nodes().collect();
    let mut forest = ShardedVpForest::new(512, 5);
    for (i, sig) in signatures(&gdb, &db_nodes, k).into_iter().enumerate() {
        forest.insert(&SignatureMetric, i as u64, sig);
    }
    let probe_nodes: Vec<u32> = (0..32u32).map(|i| i * 97 % db_size as u32).collect();
    let probes = signatures(&gq, &probe_nodes, k);
    (forest, probes)
}

fn bench_forest_vs_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_knn/query");
    group.sample_size(10);
    for db_size in [1000usize, 2000] {
        let (forest, probes) = setup(db_size, 3);
        group.bench_with_input(
            BenchmarkId::new("forest", db_size),
            &db_size,
            |bencher, _| {
                let mut i = 0usize;
                bencher.iter(|| {
                    i = (i + 1) % probes.len();
                    forest.knn(&SignatureMetric, &probes[i], 5, 0)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("linear_scan", db_size),
            &db_size,
            |bencher, _| {
                let mut i = 0usize;
                bencher.iter(|| {
                    i = (i + 1) % probes.len();
                    forest.scan_knn(&SignatureMetric, &probes[i], 5)
                });
            },
        );
    }
    group.finish();
}

fn bench_incremental_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_knn/build");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(23);
    let g = generators::barabasi_albert(1000, 3, &mut rng);
    let nodes: Vec<u32> = g.nodes().collect();
    let sigs = signatures(&g, &nodes, 3);
    group.bench_function("insert_1000_threshold_256", |bencher| {
        bencher.iter(|| {
            let mut forest = ShardedVpForest::new(256, 9);
            for (i, sig) in sigs.iter().cloned().enumerate() {
                forest.insert(&SignatureMetric, i as u64, sig);
            }
            forest
        });
    });
    group.bench_function("bulk_1000", |bencher| {
        bencher.iter(|| {
            let entries: Vec<(u64, NodeSignature)> = sigs
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, s)| (i as u64, s))
                .collect();
            ShardedVpForest::from_entries(256, 9, entries, &SignatureMetric)
        });
    });
    group.finish();
}

fn bench_snapshot_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_knn/snapshot");
    group.sample_size(10);
    let mut rng = SmallRng::seed_from_u64(31);
    let g = generators::barabasi_albert(1500, 3, &mut rng);
    let nodes: Vec<u32> = g.nodes().collect();
    let mut index = SignatureIndex::new(3, 512, 11);
    index.insert_graph(&g, &nodes);
    let bytes = index.to_bytes();
    group.bench_function("encode_1500", |bencher| {
        bencher.iter(|| index.to_bytes());
    });
    group.bench_function("decode_1500", |bencher| {
        bencher.iter(|| SignatureIndex::from_bytes(&bytes).expect("valid bytes"));
    });
    group.finish();
}

fn bench_bounded_vs_unbounded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_knn/bounded_vs_unbounded");
    group.sample_size(10);
    let (forest, probes) = setup(2000, 3);
    group.bench_function("bounded_memo_warm", |bencher| {
        let mut i = 0usize;
        bencher.iter(|| {
            i = (i + 1) % probes.len();
            forest.knn(&SignatureMetric, &probes[i], 5, 0)
        });
    });
    group.bench_function("bounded_memo_cold", |bencher| {
        let mut i = 0usize;
        bencher.iter(|| {
            TedMemo::global().clear();
            i = (i + 1) % probes.len();
            forest.knn(&SignatureMetric, &probes[i], 5, 0)
        });
    });
    // The unbounded baseline must be memo-free: `UnboundedSignatureMetric`
    // only disables the budget but still routes through the memoized
    // kernel, which the warm arms above would have fully populated.
    group.bench_function("classic_unbounded", |bencher| {
        let mut i = 0usize;
        bencher.iter(|| {
            i = (i + 1) % probes.len();
            forest.knn(&ClassicSignatureMetric, &probes[i], 5, 0)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_forest_vs_scan, bench_incremental_build, bench_snapshot_round_trip,
        bench_bounded_vs_unbounded
}
criterion_main!(benches);
