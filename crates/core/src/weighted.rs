//! Weighted TED\* (Section 12).
//!
//! Giving each edit operation a positive, level-dependent cost keeps TED\*
//! a metric (Lemma 6). With the specific scheme `w¹ᵢ = 1` (leaf
//! inserts/deletes) and `w²ᵢ = 4·i` (moves at the paper's 1-based level
//! `i`), the weighted distance `δ_T(W+)` additionally upper-bounds the
//! classic unordered tree edit distance (Lemma 7): every move at level `i`
//! can be simulated by at most `4·i` classic insert/delete operations.

use crate::ted_star::ted_star_report;
use ned_tree::Tree;

/// Per-level operation weights. Both must be strictly positive for the
/// weighted distance to remain a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelWeights {
    /// Weight of "insert a leaf" / "delete a leaf" at this level (`w¹ᵢ`).
    pub pad: f64,
    /// Weight of "move a node within this level" (`w²ᵢ`).
    pub mov: f64,
}

/// Weighted TED\*: `δ_T(W) = Σᵢ w¹ᵢ·Pᵢ + w²ᵢ·Mᵢ`.
///
/// `weights` is called with the paper's 1-based level index (1 = root
/// level).
pub fn weighted_ted_star(t1: &Tree, t2: &Tree, weights: impl Fn(usize) -> LevelWeights) -> f64 {
    let report = ted_star_report(t1, t2);
    report
        .levels
        .iter()
        .enumerate()
        .map(|(l, costs)| {
            let w = weights(l + 1);
            debug_assert!(w.pad > 0.0 && w.mov > 0.0, "weights must be positive");
            w.pad * costs.padding as f64 + w.mov * costs.matching as f64
        })
        .sum()
}

/// `δ_T(W+)` (Definition 8): the weighted TED\* with `w¹ᵢ = 1`,
/// `w²ᵢ = 4·i` that upper-bounds classic TED (Lemma 7).
pub fn ted_upper_bound(t1: &Tree, t2: &Tree) -> f64 {
    weighted_ted_star(t1, t2, |level| LevelWeights {
        pad: 1.0,
        mov: 4.0 * level as f64,
    })
}

/// Weighted NED: extract both k-adjacent trees and apply
/// [`weighted_ted_star`]. With positive weights this remains a node
/// metric (Lemma 6). The paper's motivating scheme — "nodes which are
/// more close to the root should play more important roles" — is
/// captured by decaying weights, e.g. [`root_heavy_weights`].
pub fn weighted_ned(
    g1: &ned_graph::Graph,
    u: ned_graph::NodeId,
    g2: &ned_graph::Graph,
    v: ned_graph::NodeId,
    k: usize,
    weights: impl Fn(usize) -> LevelWeights,
) -> f64 {
    let t1 = ned_graph::bfs::k_adjacent_tree(g1, u, k);
    let t2 = ned_graph::bfs::k_adjacent_tree(g2, v, k);
    weighted_ted_star(&t1, &t2, weights)
}

/// Geometrically decaying weights `decay^(level-1)` (paper 1-based
/// levels): edits near the root cost 1, each level further halves (for
/// `decay = 0.5`) the cost. Any `decay > 0` keeps the metric property.
pub fn root_heavy_weights(decay: f64) -> impl Fn(usize) -> LevelWeights {
    assert!(decay > 0.0, "weights must stay positive");
    move |level: usize| {
        let w = decay.powi(level as i32 - 1);
        LevelWeights { pad: w, mov: w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ted_star::ted_star;
    use ned_tree::exact::exact_ted;
    use ned_tree::generate::random_bounded_depth_tree;
    use ned_tree::Tree;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn unit_weights_match_unweighted() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..30 {
            let a = random_bounded_depth_tree(18, 4, &mut rng);
            let b = random_bounded_depth_tree(18, 4, &mut rng);
            let w = weighted_ted_star(&a, &b, |_| LevelWeights { pad: 1.0, mov: 1.0 });
            assert_eq!(w, ted_star(&a, &b) as f64);
        }
    }

    #[test]
    fn scaling_weights_scales_distance() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = random_bounded_depth_tree(20, 3, &mut rng);
        let b = random_bounded_depth_tree(14, 4, &mut rng);
        let d1 = weighted_ted_star(&a, &b, |_| LevelWeights { pad: 1.0, mov: 1.0 });
        let d3 = weighted_ted_star(&a, &b, |_| LevelWeights { pad: 3.0, mov: 3.0 });
        assert!((d3 - 3.0 * d1).abs() < 1e-9);
    }

    #[test]
    fn weighted_metric_axioms() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = |level: usize| LevelWeights {
            pad: 1.0,
            mov: 0.5 + level as f64,
        };
        for _ in 0..40 {
            let a = random_bounded_depth_tree(12, 3, &mut rng);
            let b = random_bounded_depth_tree(12, 3, &mut rng);
            let c = random_bounded_depth_tree(12, 3, &mut rng);
            let ab = weighted_ted_star(&a, &b, w);
            let ba = weighted_ted_star(&b, &a, w);
            assert!((ab - ba).abs() < 1e-9, "symmetry");
            let bc = weighted_ted_star(&b, &c, w);
            let ac = weighted_ted_star(&a, &c, w);
            assert!(ac <= ab + bc + 1e-9, "triangle: {ac} > {ab}+{bc}");
            assert!(ab >= 0.0);
            assert!(weighted_ted_star(&a, &a, w) == 0.0, "identity");
        }
    }

    #[test]
    fn upper_bounds_exact_ted_lemma7() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..60 {
            let a = random_bounded_depth_tree(9, 3, &mut rng);
            let b = random_bounded_depth_tree(10, 4, &mut rng);
            let ted = exact_ted(&a, &b).expect("small trees") as f64;
            let bound = ted_upper_bound(&a, &b);
            assert!(
                bound + 1e-9 >= ted,
                "Lemma 7 violated: W+ bound {bound} < TED {ted}"
            );
        }
    }

    #[test]
    fn weighted_ned_and_root_heavy_weights() {
        use ned_graph::Graph;
        let star = Graph::undirected_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let path = Graph::undirected_from_edges(3, &[(0, 1), (1, 2)]);
        // unit weights equal plain NED
        let w1 = weighted_ned(&star, 0, &path, 0, 3, |_| LevelWeights {
            pad: 1.0,
            mov: 1.0,
        });
        assert_eq!(w1, crate::ned(&star, 0, &path, 0, 3) as f64);
        // root-heavy weights discount deep edits
        let heavy = weighted_ned(&star, 0, &path, 0, 3, root_heavy_weights(0.5));
        assert!(heavy < w1, "deep edits should cost less: {heavy} vs {w1}");
        assert!(heavy > 0.0);
        // still symmetric
        let back = weighted_ned(&path, 0, &star, 0, 3, root_heavy_weights(0.5));
        assert!((heavy - back).abs() < 1e-12);
    }

    #[test]
    fn upper_bound_zero_iff_isomorphic() {
        let a = Tree::from_parents(&[0, 0, 1]).unwrap();
        assert_eq!(ted_upper_bound(&a, &a), 0.0);
        let b = Tree::from_parents(&[0, 0, 0]).unwrap();
        assert!(ted_upper_bound(&a, &b) > 0.0);
    }
}
