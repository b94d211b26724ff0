//! Integration tests pinning the paper's stated theorems and claims,
//! beyond the per-crate unit tests.

use ned::core::reference::exhaustive_ted_star;
use ned::core::weighted::{ted_upper_bound, weighted_ted_star, LevelWeights};
use ned::core::{ted_star, ted_star_report};
use ned::graph::exact_ged::{exact_ged_rooted, SmallGraph};
use ned::prelude::*;
use ned::tree::exact::exact_ted;
use ned::tree::generate::random_bounded_depth_tree;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn tree_as_graph(t: &Tree) -> SmallGraph {
    let edges: Vec<(u32, u32)> = t
        .nodes()
        .skip(1)
        .map(|v| (t.parent(v).unwrap(), v))
        .collect();
    SmallGraph::from_edges(t.len(), &edges)
}

/// Equation 18: `GED(t1, t2) <= 2 * TED*(t1, t2)` on trees.
#[test]
fn ged_bounded_by_twice_ted_star() {
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..60 {
        let a = random_bounded_depth_tree(9, 3, &mut rng);
        let b = random_bounded_depth_tree(9, 3, &mut rng);
        let ts = ted_star(&a, &b);
        let ged =
            exact_ged_rooted(&tree_as_graph(&a), &tree_as_graph(&b)).expect("trees within GED cap");
        assert!(
            ged <= 2 * ts,
            "Equation 18 violated: GED {ged} > 2 * TED* {ts}"
        );
    }
}

/// Lemma 7: the weighted scheme `w¹=1, w²=4i` upper-bounds classic TED.
#[test]
fn weighted_scheme_upper_bounds_ted() {
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..60 {
        let a = random_bounded_depth_tree(10, 4, &mut rng);
        let b = random_bounded_depth_tree(10, 3, &mut rng);
        let ted = exact_ted(&a, &b).expect("within cap") as f64;
        assert!(ted_upper_bound(&a, &b) + 1e-9 >= ted);
    }
}

/// Lemma 6: weighted TED* remains a metric for positive weights.
#[test]
fn weighted_ted_star_triangle() {
    let mut rng = SmallRng::seed_from_u64(3);
    let w = |i: usize| LevelWeights {
        pad: 1.0 + i as f64 * 0.25,
        mov: 2.0,
    };
    for _ in 0..40 {
        let a = random_bounded_depth_tree(12, 3, &mut rng);
        let b = random_bounded_depth_tree(12, 3, &mut rng);
        let c = random_bounded_depth_tree(12, 3, &mut rng);
        let ab = weighted_ted_star(&a, &b, w);
        let bc = weighted_ted_star(&b, &c, w);
        let ac = weighted_ted_star(&a, &c, w);
        assert!(ac <= ab + bc + 1e-9);
        assert!((weighted_ted_star(&a, &b, w) - weighted_ted_star(&b, &a, w)).abs() < 1e-9);
    }
}

/// Section 12 on nodes: weighted NED compares nodes of different graphs
/// and stays a metric (Lemma 6) under the paper's root-heavy scheme;
/// unit weights give plain NED.
#[test]
fn weighted_ned_is_an_inter_graph_node_metric() {
    use ned::core::weighted::{root_heavy_weights, weighted_ned};
    use ned::graph::generators;
    let mut rng = SmallRng::seed_from_u64(12);
    let g1 = generators::barabasi_albert(60, 2, &mut rng);
    let g2 = generators::road_network(6, 6, 0.4, 0.05, &mut rng);
    let g3 = generators::erdos_renyi_gnm(50, 100, &mut rng);
    let unit = |_: usize| LevelWeights { pad: 1.0, mov: 1.0 };
    let heavy = root_heavy_weights(0.5);
    for i in 0..12u32 {
        let (u, v, w) = (i * 5 % 60, i * 3 % 36, i * 4 % 50);
        assert_eq!(
            weighted_ned(&g1, u, &g2, v, 3, unit),
            ned(&g1, u, &g2, v, 3) as f64
        );
        assert_eq!(weighted_ned(&g1, u, &g1, u, 3, &heavy), 0.0);
        let uv = weighted_ned(&g1, u, &g2, v, 3, &heavy);
        let vw = weighted_ned(&g2, v, &g3, w, 3, &heavy);
        let uw = weighted_ned(&g1, u, &g3, w, 3, &heavy);
        assert!((uv - weighted_ned(&g2, v, &g1, u, 3, &heavy)).abs() < 1e-9);
        assert!(uw <= uv + vw + 1e-9, "triangle: {uw} > {uv} + {vw}");
    }
}

/// Section 13.1 / Figure 6: TED* tracks exact TED closely on the paper's
/// distribution — k-adjacent trees of road networks. (On adversarial
/// random trees the two measures diverge more; the paper's ">50% exactly
/// equal, average relative error 0.04-0.14" claims are specifically about
/// road neighborhoods.)
#[test]
fn ted_star_close_to_exact_ted() {
    use ned::datasets::Dataset;
    use ned::graph::bfs::TreeExtractor;
    let g1 = Dataset::CaRoad.generate(0.0005, 4);
    let g2 = Dataset::PaRoad.generate(0.0005, 4);
    let mut ex1 = TreeExtractor::new(&g1);
    let mut ex2 = TreeExtractor::new(&g2);
    let mut equal = 0usize;
    let mut total = 0usize;
    let mut rel_errors = Vec::new();
    for i in 0..400u32 {
        let u = (i * 131) % g1.num_nodes() as u32;
        let v = (i * 197) % g2.num_nodes() as u32;
        let (a, b) = (ex1.extract(u, 3), ex2.extract(v, 3));
        if a.len() > 12 || b.len() > 12 {
            continue;
        }
        let ts = ted_star(&a, &b);
        let ted = exact_ted(&a, &b).expect("within cap");
        total += 1;
        if ts == ted {
            equal += 1;
        }
        if ted > 0 {
            rel_errors.push(ts.abs_diff(ted) as f64 / ted as f64);
        }
    }
    assert!(total >= 50, "need a meaningful sample, got {total}");
    assert!(
        equal * 2 >= total,
        "equivalency ratio {equal}/{total} below the paper's >50%"
    );
    let avg = rel_errors.iter().sum::<f64>() / rel_errors.len().max(1) as f64;
    assert!(
        avg <= 0.25,
        "average relative error {avg} far above the paper's 0.04-0.14"
    );
}

/// Definition 3 cross-check: Algorithm 1 never undercuts the true
/// minimum number of edit operations.
#[test]
fn algorithm1_never_below_definition() {
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..60 {
        let a = random_bounded_depth_tree(6, 3, &mut rng);
        let b = random_bounded_depth_tree(6, 3, &mut rng);
        let reference = exhaustive_ted_star(&a, &b, 7).expect("tiny search");
        assert!(ted_star(&a, &b) >= reference);
    }
}

/// Section 9: TED* is polynomial — it must comfortably handle the
/// 500-node trees of Figure 7a (where exact TED is hopeless).
#[test]
fn ted_star_handles_large_trees() {
    let mut rng = SmallRng::seed_from_u64(6);
    let a = random_bounded_depth_tree(500, 3, &mut rng);
    let b = random_bounded_depth_tree(500, 3, &mut rng);
    let start = std::time::Instant::now();
    let d = ted_star(&a, &b);
    let elapsed = start.elapsed();
    assert!(d > 0);
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "took {elapsed:?} — polynomial claim violated in spirit"
    );
}

/// The report decomposition always reconciles with the distance, and the
/// root level never pads (P1 = 0, as used in the metric proof).
#[test]
fn report_structure_invariants() {
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..40 {
        let a = random_bounded_depth_tree(30, 5, &mut rng);
        let b = random_bounded_depth_tree(22, 4, &mut rng);
        let r = ted_star_report(&a, &b);
        assert_eq!(r.distance, r.total_padding() + r.total_matching());
        assert_eq!(r.levels[0].padding, 0);
        // bottom level never has matching cost (M_k = 0, Equation 6)
        assert_eq!(r.levels.last().unwrap().matching, 0);
    }
}

/// Directed NED (Equation 2) is a metric: sum of two metrics.
#[test]
fn directed_ned_triangle() {
    let mut rng = SmallRng::seed_from_u64(8);
    let mk = |rng: &mut SmallRng| {
        let und = ned::graph::generators::erdos_renyi_gnm(30, 60, rng);
        let edges: Vec<(u32, u32)> = und.edges().collect();
        Graph::directed_from_edges(30, &edges)
    };
    let g1 = mk(&mut rng);
    let g2 = mk(&mut rng);
    let g3 = mk(&mut rng);
    for k in 2..4 {
        let ab = ned::core::ned_directed(&g1, 0, &g2, 0, k);
        let bc = ned::core::ned_directed(&g2, 0, &g3, 0, k);
        let ac = ned::core::ned_directed(&g1, 0, &g3, 0, k);
        assert!(ac <= ab + bc);
        assert_eq!(ab, ned::core::ned_directed(&g2, 0, &g1, 0, k));
        assert_eq!(ned::core::ned_directed(&g1, 0, &g1, 0, k), 0);
    }
}
