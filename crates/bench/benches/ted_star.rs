//! Criterion micro-benchmarks for TED\* itself: scaling in tree size,
//! tree shape, and the matcher/zero-pair ablation knobs of the frozen
//! configurable engine (`ned_bench::frozen`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ned_bench::frozen::{ted_star_with, Matcher, TedStarConfig};
use ned_core::{ted_star_prepared, PreparedTree};
use ned_tree::generate::{caterpillar_tree, perfect_tree, random_bounded_depth_tree};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_by_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted_star/size");
    let mut rng = SmallRng::seed_from_u64(1);
    for n in [16usize, 64, 256, 1024] {
        let a = PreparedTree::new(&random_bounded_depth_tree(n, 3, &mut rng));
        let b = PreparedTree::new(&random_bounded_depth_tree(n, 3, &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| ted_star_prepared(&a, &b));
        });
    }
    group.finish();
}

fn bench_by_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted_star/shape");
    let cases = [
        ("perfect-binary", perfect_tree(2, 7), perfect_tree(2, 7)),
        ("wide-star-ish", perfect_tree(11, 3), perfect_tree(12, 3)),
        (
            "caterpillar",
            caterpillar_tree(30, 3),
            caterpillar_tree(28, 4),
        ),
    ];
    for (name, a, b) in cases {
        let (pa, pb) = (PreparedTree::new(&a), PreparedTree::new(&b));
        group.bench_function(name, |bencher| {
            bencher.iter(|| ted_star_prepared(&pa, &pb));
        });
    }
    group.finish();
}

fn bench_matcher_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ted_star/matcher");
    let mut rng = SmallRng::seed_from_u64(2);
    let a = random_bounded_depth_tree(400, 3, &mut rng);
    let b = random_bounded_depth_tree(400, 3, &mut rng);
    let configs = [
        ("hungarian+zero-pair", TedStarConfig::standard()),
        (
            "hungarian-plain",
            TedStarConfig {
                matcher: Matcher::Hungarian,
                skip_zero_pairs: false,
                ..TedStarConfig::standard()
            },
        ),
        (
            "greedy",
            TedStarConfig {
                matcher: Matcher::Greedy,
                skip_zero_pairs: true,
                ..TedStarConfig::standard()
            },
        ),
    ];
    for (name, config) in configs {
        group.bench_function(name, |bencher| {
            bencher.iter(|| ted_star_with(&a, &b, &config));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_by_size, bench_by_shape, bench_matcher_ablation
}
criterion_main!(benches);
