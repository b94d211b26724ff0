//! The production kernel against the frozen Algorithm 1 (`ned_bench::frozen`).
//!
//! `ned_core` computes TED\* with one engine, the budget-aware kernel.
//! These tests pin it to the configurable engine it replaced: distances
//! *and* per-level reports (`ted_star_report`,
//! `ned_core::ted_star_prepared_report`, `NodeSignature::distance_report`)
//! must equal the frozen engine's, level by level, on every corpus here,
//! isomorphic pairs and pairs of different depth included. The frozen
//! engine's own variants are checked too: the pre-rebuild baseline stays
//! bit-identical, the legacy and greedy matchers stay within TED\*'s hard
//! bounds, and the directional sweep stays tie-break sensitive.

use ned_bench::frozen::{self, Matcher, TedStarConfig};
use ned_core::{
    ted_star, ted_star_lower_bound, ted_star_prepared, ted_star_prepared_report,
    ted_star_prepared_within, ted_star_report, NodeSignature, PreparedTree, TedStarReport,
};
use ned_graph::bfs::k_adjacent_tree;
use ned_graph::generators::{barabasi_albert, erdos_renyi_gnm, road_network};
use ned_graph::{Graph, NodeId};
use ned_tree::generate::{
    caterpillar_tree, path_tree, perfect_tree, random_attachment_tree, random_bounded_depth_tree,
    star_tree,
};
use ned_tree::Tree;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The frozen engine's exact configurations: the standard one, and the
/// pre-rebuild baseline (reference canonicalization and transportation
/// solver), a pure timing baseline that must stay bit-identical.
fn exact_configs() -> [(&'static str, TedStarConfig); 2] {
    let base = TedStarConfig::standard();
    [
        ("collapsed+interned", base),
        (
            "collapsed+frozen-baseline",
            TedStarConfig {
                frozen_baseline: true,
                ..base
            },
        ),
    ]
}

/// Checks every kernel entry point against every exact frozen
/// configuration on one pair, level by level, and returns the report.
fn assert_kernel_matches_frozen(a: &Tree, b: &Tree, what: &str) -> TedStarReport {
    let report = ted_star_report(a, b);
    for (name, config) in exact_configs() {
        assert_eq!(
            report,
            frozen::ted_star_report(a, b, &config),
            "{what}: kernel report diverged from {name}: {a:?} vs {b:?}"
        );
    }
    assert_eq!(report.distance, ted_star(a, b), "{what}: ted_star");
    assert_eq!(
        report.levels.len(),
        a.num_levels().max(b.num_levels()),
        "{what}: report length"
    );
    let (pa, pb) = (PreparedTree::new(a), PreparedTree::new(b));
    assert_eq!(
        report,
        ted_star_prepared_report(&pa, &pb),
        "{what}: prepared"
    );
    assert_eq!(
        report,
        frozen::ted_star_prepared_report(&pa, &pb, &TedStarConfig::standard()),
        "{what}: frozen prepared"
    );
    assert_eq!(report.distance, ted_star_prepared(&pa, &pb), "{what}");
    let (sa, sb) = (
        NodeSignature::from_prepared(0, pa),
        NodeSignature::from_prepared(1, pb),
    );
    assert_eq!(report, sa.distance_report(&sb), "{what}: distance_report");
    report
}

/// An isomorphic pair reports all-zero levels, one per level of the tree.
fn assert_isomorphic_report(a: &Tree, what: &str) {
    let report = assert_kernel_matches_frozen(a, &ned_tree::ahu::canonical_form(a), what);
    assert_eq!(report.distance, 0, "{what}");
    assert_eq!(report.levels.len(), a.num_levels(), "{what}");
    assert!(
        report.levels.iter().all(|l| *l == Default::default()),
        "{what}: non-zero level on an isomorphic pair"
    );
}

#[test]
fn engines_agree_on_random_bounded_depth_pairs() {
    let mut rng = SmallRng::seed_from_u64(0xEDED);
    let mut deeper = 0usize;
    for round in 0..300 {
        let a = random_bounded_depth_tree(4 + round % 60, 2 + round % 5, &mut rng);
        let b = random_bounded_depth_tree(4 + (round * 7) % 60, 2 + (round / 3) % 5, &mut rng);
        deeper += usize::from(a.num_levels() != b.num_levels());
        assert_kernel_matches_frozen(&a, &b, &format!("round {round}"));
        assert_isomorphic_report(&a, &format!("round {round} self"));
    }
    assert!(deeper > 0, "the corpus must hold pairs of different depth");
}

#[test]
fn engines_agree_on_random_attachment_pairs() {
    let mut rng = SmallRng::seed_from_u64(0xA77A);
    for round in 0..200 {
        let a = random_attachment_tree(2 + round % 40, &mut rng);
        let b = random_attachment_tree(2 + (round * 3) % 40, &mut rng);
        assert_kernel_matches_frozen(&a, &b, &format!("round {round}"));
    }
}

#[test]
fn engines_agree_on_structured_extremes() {
    let shapes: Vec<Tree> = vec![
        Tree::singleton(),
        path_tree(12),
        star_tree(40),
        perfect_tree(2, 5),
        perfect_tree(3, 4),
        caterpillar_tree(6, 3),
    ];
    for a in &shapes {
        assert_isomorphic_report(a, &format!("{a:?} self"));
        for b in &shapes {
            assert_kernel_matches_frozen(a, b, &format!("{a:?} vs {b:?}"));
        }
    }
}

#[test]
fn exact_engines_agree_with_zero_pair_skip_disabled() {
    // With zero-pairing off, every slot flows through the matching.
    // Zero-pairing itself selects among optimal matchings (the documented
    // tie-break sensitivity), so the invariant is: at *fixed*
    // `skip_zero_pairs`, every exact engine computes the same distance.
    let mut rng = SmallRng::seed_from_u64(0x2052);
    for round in 0..80 {
        let a = random_bounded_depth_tree(4 + round % 30, 3, &mut rng);
        let b = random_bounded_depth_tree(4 + (round * 5) % 30, 4, &mut rng);
        let [(_, reference), (name, other)] = exact_configs().map(|(name, config)| {
            (
                name,
                TedStarConfig {
                    skip_zero_pairs: false,
                    ..config
                },
            )
        });
        assert_eq!(
            frozen::ted_star_report(&a, &b, &other),
            frozen::ted_star_report(&a, &b, &reference),
            "{name}, round {round}"
        );
    }
}

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
fn soa_kernel_matches_frozen_engine_on_graph_corpora() {
    let mut rng = SmallRng::seed_from_u64(0x50A0);
    for (family, g) in corpus(&mut rng) {
        let nodes = sample_nodes(&g, 8);
        for k in 1..=5usize {
            let trees: Vec<_> = nodes.iter().map(|&v| k_adjacent_tree(&g, v, k)).collect();
            for (i, a) in trees.iter().enumerate() {
                for b in trees.iter().skip(i) {
                    assert_kernel_matches_frozen(a, b, &format!("{family} k={k}"));
                }
            }
        }
    }
}

#[test]
fn bounded_kernel_agrees_with_every_exact_engine() {
    // The budgeted kernel with an unlimited budget against both exact
    // frozen configurations on a fixed corpus.
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for _ in 0..30 {
        let a = random_bounded_depth_tree(35, 5, &mut rng);
        let b = random_bounded_depth_tree(28, 4, &mut rng);
        let pa = PreparedTree::new(&a);
        let pb = PreparedTree::new(&b);
        let kernel = ted_star_prepared_within(&pa, &pb, u64::MAX).expect("unlimited");
        for (name, config) in exact_configs() {
            assert_eq!(kernel, frozen::ted_star_with(&a, &b, &config), "{name}");
        }
    }
}

#[test]
fn legacy_hungarian_is_exact_per_level() {
    // The legacy matcher takes its bijection straight from the dense
    // assignment (tie-break sensitive), but its per-level costs are still
    // optimal, so the distance respects every hard bound and the metric
    // identity.
    let mut rng = SmallRng::seed_from_u64(0x1E6A);
    let legacy = TedStarConfig {
        matcher: Matcher::LegacyHungarian,
        ..TedStarConfig::standard()
    };
    for _ in 0..60 {
        let a = random_bounded_depth_tree(20, 4, &mut rng);
        let b = random_bounded_depth_tree(24, 3, &mut rng);
        assert_eq!(frozen::ted_star_with(&a, &a, &legacy), 0);
        let d = frozen::ted_star_with(&a, &b, &legacy);
        assert!(d <= (a.len() + b.len() - 2) as u64);
        assert!(d >= ted_star_lower_bound(&a, &b));
    }
}

/// The greedy matcher: 0 on an isomorphic pair (every slot zero-pairs
/// away before it runs), and within TED\*'s hard bounds otherwise.
fn check_greedy(seed: u64, nodes: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let greedy = TedStarConfig {
        matcher: Matcher::Greedy,
        ..TedStarConfig::standard()
    };
    for _ in 0..60 {
        let a = random_bounded_depth_tree(nodes, 4, &mut rng);
        let b = random_bounded_depth_tree(nodes, 4, &mut rng);
        assert_eq!(frozen::ted_star_with(&a, &a, &greedy), 0);
        let d = frozen::ted_star_with(&a, &b, &greedy);
        assert!(d <= (a.len() + b.len() - 2) as u64);
        assert!(d >= ted_star_lower_bound(&a, &b));
    }
}

#[test]
fn greedy_stays_sane_under_new_grouping() {
    check_greedy(0x6EED, 22);
}

#[test]
fn greedy_matcher_sane() {
    check_greedy(9, 20);
}

#[test]
fn zero_pair_skip_agrees_on_bipartite_costs() {
    // Disabling zero-pair elimination may change upper levels through
    // matching tie-breaks, but both variants must stay within the hard
    // bounds and agree on isomorphic pairs.
    let mut rng = SmallRng::seed_from_u64(8);
    let plain = TedStarConfig {
        skip_zero_pairs: false,
        ..TedStarConfig::standard()
    };
    for _ in 0..40 {
        let a = random_bounded_depth_tree(22, 4, &mut rng);
        let b = random_bounded_depth_tree(22, 4, &mut rng);
        let with_skip = ted_star(&a, &b);
        let without = frozen::ted_star_with(&a, &b, &plain);
        let lower = ted_star_lower_bound(&a, &b);
        let upper = (a.len() + b.len() - 2) as u64;
        for d in [with_skip, without] {
            assert!(d >= lower && d <= upper, "{d} outside [{lower}, {upper}]");
        }
        assert_eq!(frozen::ted_star_with(&a, &a, &plain), 0);
    }
}

/// Reproduction finding #1, pinned: the *directional* Algorithm 1 (as
/// printed in the paper) is tie-break sensitive — there exist tree pairs
/// where sweeping (a, b) and (b, a) yields different values, because the
/// re-canonization step propagates whichever optimal bipartite matching
/// the matcher happened to return. This is exactly why `ted_star`
/// canonicalizes and orders its inputs.
#[test]
fn directional_algorithm_is_tie_break_sensitive() {
    let mut rng = SmallRng::seed_from_u64(55);
    let cfg = TedStarConfig::standard();
    let mut asymmetries = 0usize;
    for _ in 0..300 {
        let a = random_bounded_depth_tree(14, 4, &mut rng);
        let b = random_bounded_depth_tree(14, 4, &mut rng);
        let ab = frozen::ted_star_directional(&a, &b, &cfg).distance;
        let ba = frozen::ted_star_directional(&b, &a, &cfg).distance;
        if ab != ba {
            asymmetries += 1;
        }
        // The canonicalized public API must be exactly symmetric anyway.
        assert_eq!(ted_star(&a, &b), ted_star(&b, &a));
    }
    assert!(
        asymmetries > 0,
        "expected to observe directional asymmetries; if this starts \
         failing, the finding in ARCHITECTURE.md, \"Algorithm 1 tie-breaks\", \
         needs re-examination"
    );
}

fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = Tree> {
    (1..max_nodes).prop_flat_map(|n| {
        proptest::collection::vec(any::<u32>(), n.saturating_sub(1)).prop_map(move |vals| {
            let mut parents = vec![0u32];
            for (i, v) in vals.iter().enumerate() {
                parents.push((*v as usize % (i + 1)) as u32);
            }
            Tree::from_parents(&parents).expect("valid parent array")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: the kernel's `ted_star` and its per-level
    /// report equal the frozen Algorithm 1 bit for bit on arbitrary
    /// pairs, through the tree and the prepared paths alike.
    #[test]
    fn kernel_ted_star_equals_frozen_algorithm1(
        a in tree_strategy(40),
        b in tree_strategy(40),
    ) {
        assert_kernel_matches_frozen(&a, &b, "proptest");
    }
}
