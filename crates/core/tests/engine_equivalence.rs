//! Soundness of the cheap TED\* lower bounds against the kernel, and the
//! shape of the kernel's per-level report on isomorphic pairs.
//!
//! The kernel's equivalence to the frozen Algorithm 1 engine, distances
//! and per-level reports, is pinned in ned-bench
//! (`crates/bench/tests/frozen_algorithm1.rs`), where that engine lives.

use ned_core::{
    ted_star, ted_star_class_lower_bound, ted_star_degree_lower_bound, ted_star_lower_bound,
    ted_star_prepared, ted_star_prepared_report, ted_star_summary_lower_bound, PreparedTree,
};
use ned_graph::bfs::k_adjacent_tree;
use ned_graph::generators::{barabasi_albert, erdos_renyi_gnm};
use ned_tree::generate::{mutate, random_bounded_depth_tree, star_tree};
use ned_tree::Tree;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random tree with the exact level widths given (so two draws share a
/// level profile and the level-size lower bound between them is 0).
fn random_fixed_profile_tree(widths: &[usize], rng: &mut SmallRng) -> Tree {
    use rand::Rng;
    assert_eq!(widths[0], 1);
    let mut parents = vec![0u32];
    let mut prev_start = 0usize;
    let mut prev_len = 1usize;
    for &w in &widths[1..] {
        let start = parents.len();
        for _ in 0..w {
            parents.push((prev_start + rng.gen_range(0..prev_len)) as u32);
        }
        prev_start = start;
        prev_len = w;
    }
    Tree::from_parents(&parents).expect("valid level-profile tree")
}

#[test]
fn class_lower_bound_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0xB0BB);
    for _ in 0..400 {
        let a = random_bounded_depth_tree(24, 4, &mut rng);
        let b = random_bounded_depth_tree(18, 3, &mut rng);
        let (pa, pb) = (PreparedTree::new(&a), PreparedTree::new(&b));
        let bound = ted_star_class_lower_bound(&pa, &pb);
        let exact = ted_star(&a, &b);
        assert!(bound <= exact, "class bound {bound} > distance {exact}");
        // symmetric
        assert_eq!(bound, ted_star_class_lower_bound(&pb, &pa));
        // and at least as strong as the level-size bound
        assert!(bound >= ned_core::ted_star_lower_bound(&a, &b));
    }
}

/// Checks every property the child-count bound promises on one pair and
/// returns `(bound, distance)`.
fn check_degree_bound(a: &Tree, b: &Tree, what: &str) -> (u64, u64) {
    let (pa, pb) = (PreparedTree::new(a), PreparedTree::new(b));
    let bound = ted_star_degree_lower_bound(&pa, &pb);
    let exact = ted_star(a, b);
    assert!(
        bound <= exact,
        "{what}: degree bound {bound} > distance {exact}"
    );
    assert_eq!(
        bound,
        ted_star_degree_lower_bound(&pb, &pa),
        "{what}: asymmetric"
    );
    assert!(
        bound >= ted_star_lower_bound(a, b),
        "{what}: degree bound {bound} below the level-size bound"
    );
    if a.num_levels() <= 3 && b.num_levels() <= 3 {
        // Two levels below the root: the bottom collections hold only
        // leaf labels, so slot weights are exactly count differences.
        assert_eq!(bound, exact, "{what}: not exact on a <= 3-level pair");
    }
    (bound, exact)
}

#[test]
fn degree_lower_bound_is_sound_on_random_trees() {
    let mut rng = SmallRng::seed_from_u64(0xDE60);
    let mut tight = 0usize;
    let mut pairs = 0usize;
    for round in 0..600 {
        let depth_a = 1 + round % 6;
        let depth_b = 1 + (round / 6) % 6;
        let a = random_bounded_depth_tree(2 + round % 30, depth_a, &mut rng);
        let b = random_bounded_depth_tree(2 + (round * 7) % 30, depth_b, &mut rng);
        let (bound, exact) = check_degree_bound(&a, &b, &format!("round {round}"));
        pairs += 1;
        tight += usize::from(bound == exact);
    }
    assert!(
        tight * 2 > pairs,
        "bound tight on only {tight}/{pairs} pairs"
    );
}

#[test]
fn degree_lower_bound_is_sound_on_graph_neighborhoods() {
    let mut rng = SmallRng::seed_from_u64(0xDE61);
    let graphs = [
        ("ba", barabasi_albert(80, 2, &mut rng)),
        ("ba3", barabasi_albert(60, 3, &mut rng)),
        ("er", erdos_renyi_gnm(70, 150, &mut rng)),
    ];
    for k in 1..=5usize {
        let trees: Vec<(String, Tree)> = graphs
            .iter()
            .flat_map(|(name, g)| {
                g.nodes()
                    .step_by(9)
                    .map(move |v| (format!("{name}:{v}"), k_adjacent_tree(g, v, k)))
            })
            .collect();
        for (i, (na, a)) in trees.iter().enumerate() {
            for (nb, b) in &trees[i..] {
                check_degree_bound(a, b, &format!("k={k} {na} vs {nb}"));
            }
        }
    }
}

/// The most internal nodes any level of `t` has.
fn widest_internal_level(t: &Tree) -> usize {
    (0..t.num_levels())
        .map(|l| t.level(l).filter(|&v| t.num_children(v) > 0).count())
        .max()
        .unwrap_or(0)
}

/// Checks `summary ≤ child-count bound ≤ TED*` and symmetry on one pair;
/// the summary must match the child-count bound exactly when both trees
/// fit it losslessly, and be `0` when either tree is too deep or too
/// wide for it.
fn check_summary_bound(a: &Tree, b: &Tree) -> Result<(), TestCaseError> {
    let (pa, pb) = (PreparedTree::new(a), PreparedTree::new(b));
    let summary = ted_star_summary_lower_bound(&pa, &pb);
    let degree = ted_star_degree_lower_bound(&pa, &pb);
    let exact = ted_star_prepared(&pa, &pb);
    prop_assert!(
        summary <= degree,
        "summary {} > child-count bound {}",
        summary,
        degree
    );
    prop_assert!(
        degree <= exact,
        "child-count bound {} > distance {}",
        degree,
        exact
    );
    prop_assert_eq!(
        summary,
        ted_star_summary_lower_bound(&pb, &pa),
        "asymmetric"
    );
    let depth = a.num_levels().max(b.num_levels());
    let width = |t: &Tree| {
        (0..t.num_levels())
            .map(|l| t.level_size(l))
            .max()
            .unwrap_or(0)
    };
    if depth > 8 || width(a).max(width(b)) > usize::from(u16::MAX) {
        prop_assert_eq!(summary, 0, "a tree too deep or too wide has no summary");
    } else if widest_internal_level(a).max(widest_internal_level(b)) <= 4 {
        prop_assert_eq!(
            summary,
            degree,
            "lossless summaries must give the exact bound"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random pairs and near pairs (one tree and a few TED\* edits of
    /// it), from one level up to thirteen, so the absent path for trees
    /// deeper than the summary runs beside the present one.
    #[test]
    fn summary_lower_bound_is_sound(
        seed in any::<u64>(),
        nodes_a in 1..70usize,
        nodes_b in 1..70usize,
        depth_a in 1..13usize,
        depth_b in 1..13usize,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_bounded_depth_tree(nodes_a, depth_a, &mut rng);
        let b = random_bounded_depth_tree(nodes_b, depth_b, &mut rng);
        check_summary_bound(&a, &b)?;
        let ops = rng.gen_range(1..4);
        let (near, _) = mutate(&a, ops, &mut rng);
        check_summary_bound(&a, &near)?;
    }
}

#[test]
fn summary_lower_bound_is_absent_past_the_u16_lane() {
    // Level 1 of `wide` holds 65 536 nodes, one more than a u16 lane;
    // `fits` is one leaf short of it and keeps its summary.
    let wide = star_tree(1 + (1 << 16));
    let fits = star_tree(1 << 16);
    check_summary_bound(&wide, &fits).unwrap();
    check_summary_bound(&fits, &star_tree((1 << 16) - 1)).unwrap();
    let (pw, pf) = (PreparedTree::new(&wide), PreparedTree::new(&fits));
    assert_eq!(ted_star_summary_lower_bound(&pw, &pf), 0);
    assert_eq!(ted_star_summary_lower_bound(&pf, &pf), 0);
    assert_eq!(
        ted_star_summary_lower_bound(&pf, &PreparedTree::new(&star_tree(3))),
        (1 << 16) - 3
    );
}

#[test]
fn class_lower_bound_beats_size_bound_on_equal_profiles() {
    // Trees sharing a level profile have level-size bound 0; the class
    // histogram still separates differing shapes — that extra pruning
    // power is the point of carrying interned classes on PreparedTree.
    let mut rng = SmallRng::seed_from_u64(0xB0CC);
    let mut tighter = 0usize;
    let mut total = 0usize;
    for _ in 0..100 {
        let widths = [1usize, 4, 8, 8];
        let a = random_fixed_profile_tree(&widths, &mut rng);
        let b = random_fixed_profile_tree(&widths, &mut rng);
        let (pa, pb) = (PreparedTree::new(&a), PreparedTree::new(&b));
        let bound = ted_star_class_lower_bound(&pa, &pb);
        let exact = ted_star(&a, &b);
        assert!(bound <= exact, "class bound {bound} > distance {exact}");
        assert_eq!(ned_core::ted_star_lower_bound(&a, &b), 0);
        total += 1;
        if bound > 0 {
            tighter += 1;
        }
    }
    assert!(
        tighter * 2 > total,
        "class bound separated only {tighter}/{total} equal-profile pairs"
    );
}

#[test]
fn prepared_report_early_exit_matches_full_sweep() {
    let mut rng = SmallRng::seed_from_u64(0x1503);
    for _ in 0..50 {
        let a = random_bounded_depth_tree(16, 4, &mut rng);
        let pa = PreparedTree::new(&a);
        let pb = PreparedTree::new(&a);
        let report = ted_star_prepared_report(&pa, &pb);
        assert_eq!(report.distance, 0);
        assert_eq!(report.levels.len(), a.num_levels());
        assert!(report
            .levels
            .iter()
            .all(|l| l.padding == 0 && l.matching == 0));
    }
}
