//! Criterion micro-benchmarks for one end-to-end NED computation
//! (extraction + canonicalization + TED\*), per dataset and per k —
//! the per-pair cost behind Figures 7b and 9a.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ned_bench::frozen::{ted_star_with, Matcher, TedStarConfig};
use ned_core::{ned, ted_star};
use ned_datasets::Dataset;
use ned_graph::bfs::TreeExtractor;

/// The production kernel against the frozen dense baseline on real
/// extracted signature pairs.
fn bench_ned_pair_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ned/engine");
    group.sample_size(10);
    let g1 = Dataset::Dblp.generate(0.01, 42);
    let g2 = Dataset::Amazon.generate(0.01, 42);
    let mut e1 = TreeExtractor::new(&g1);
    let mut e2 = TreeExtractor::new(&g2);
    let pairs: Vec<_> = (0..16u32)
        .map(|i| {
            (
                e1.extract(i * 131 % g1.num_nodes() as u32, 5),
                e2.extract(i * 197 % g2.num_nodes() as u32, 5),
            )
        })
        .collect();
    group.bench_function("collapsed", |bencher| {
        bencher.iter(|| pairs.iter().map(|(a, b)| ted_star(a, b)).sum::<u64>());
    });
    // The original uncollapsed path: dense Hungarian, bijection straight
    // from the assignment, no transportation overhead.
    let legacy = TedStarConfig {
        matcher: Matcher::LegacyHungarian,
        ..TedStarConfig::standard()
    };
    group.bench_function("dense-legacy", |bencher| {
        bencher.iter(|| {
            pairs
                .iter()
                .map(|(a, b)| ted_star_with(a, b, &legacy))
                .sum::<u64>()
        });
    });
    group.finish();
}

fn bench_ned_by_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("ned/road_by_k");
    let g1 = Dataset::CaRoad.generate(0.005, 42);
    let g2 = Dataset::PaRoad.generate(0.005, 42);
    for k in [1usize, 2, 3, 4, 5, 6, 7, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bencher, &k| {
            let mut i = 0u32;
            bencher.iter(|| {
                i = i.wrapping_add(7919);
                let u = i % g1.num_nodes() as u32;
                let v = i % g2.num_nodes() as u32;
                ned(&g1, u, &g2, v, k)
            });
        });
    }
    group.finish();
}

fn bench_ned_by_dataset(c: &mut Criterion) {
    let mut group = c.benchmark_group("ned/dataset");
    group.sample_size(10);
    for d in Dataset::ALL {
        let g = d.generate(0.004, 42);
        let k = d.recommended_k();
        group.bench_function(d.abbrev(), |bencher| {
            let mut i = 0u32;
            bencher.iter(|| {
                i = i.wrapping_add(101);
                let u = i % g.num_nodes() as u32;
                let v = (i / 2) % g.num_nodes() as u32;
                ned(&g, u, &g, v, k)
            });
        });
    }
    group.finish();
}

fn bench_directed_ned(c: &mut Criterion) {
    let mut group = c.benchmark_group("ned/directed");
    // synthesize a directed graph by orienting a PGP stand-in's edges
    let und = Dataset::Pgp.generate(0.05, 42);
    let edges: Vec<(u32, u32)> = und.edges().collect();
    let g = ned_graph::Graph::directed_from_edges(und.num_nodes(), &edges);
    group.bench_function("pgp_oriented_k3", |bencher| {
        let mut i = 0u32;
        bencher.iter(|| {
            i = i.wrapping_add(211);
            let u = i % g.num_nodes() as u32;
            let v = (i / 3) % g.num_nodes() as u32;
            ned_core::ned_directed(&g, u, &g, v, 3)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ned_by_k, bench_ned_by_dataset, bench_directed_ned, bench_ned_pair_engines
}
criterion_main!(benches);
