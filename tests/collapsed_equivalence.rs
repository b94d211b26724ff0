//! Property tests pinning the duplicate-collapsed TED\*/NED hot path:
//! the prepared-signature path equals the per-call report path on
//! arbitrary tree pairs, distances are relayout invariant, and the
//! collapsed Hungarian solver equals the dense one. The kernel's
//! bit-identity with the frozen Algorithm 1 engine (the dense formulation
//! included) is pinned in ned-bench (`crates/bench/tests/frozen_algorithm1.rs`).

use ned::matching::{collapsed_hungarian, hungarian, CostMatrix};
use ned::prelude::*;
use proptest::prelude::*;

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

    /// The public prepared-signature path used by stores and batch
    /// workloads (global interner, memo) equals the report path, which
    /// canonicalizes per call and bypasses the memo.
    #[test]
    fn prepared_distance_equals_dense(a in tree_strategy(28), b in tree_strategy(28)) {
        use ned::core::PreparedTree;
        let (pa, pb) = (PreparedTree::new(&a), PreparedTree::new(&b));
        let via_prepared = ned::core::ted_star_prepared(&pa, &pb);
        prop_assert_eq!(via_prepared, ned::core::ted_star_report(&a, &b).distance);
        // and the class lower bound never overshoots it
        prop_assert!(ned::core::ted_star_class_lower_bound(&pa, &pb) <= via_prepared);
    }

    /// Distances stay a function of the isomorphism classes under the new
    /// engine (relayout invariance, as for the seed implementation).
    #[test]
    fn interned_path_is_relayout_invariant(a in tree_strategy(24), b in tree_strategy(24)) {
        use ned::tree::ahu;
        let (a2, b2) = (ahu::canonical_form(&a), ahu::canonical_form(&b));
        prop_assert_eq!(ted_star(&a, &b), ted_star(&a2, &b2));
        prop_assert_eq!(ted_star(&a, &b), ted_star(&b, &a));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `collapsed_hungarian` == `hungarian` cost on random matrices with
    /// heavy injected row/column duplication (the workspace-level twin of
    /// the crate-local test, exercising the re-exported API).
    #[test]
    fn collapsed_cost_equals_hungarian(
        vals in proptest::collection::vec(0i64..80, 64),
        dup_rows in proptest::collection::vec((0usize..8, 0usize..8), 0..8),
        dup_cols in proptest::collection::vec((0usize..8, 0usize..8), 0..8),
    ) {
        let n = 8;
        let mut m = CostMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, vals[r * n + c]);
            }
        }
        for &(src, dst) in &dup_rows {
            for c in 0..n {
                let v = m.get(src, c);
                m.set(dst, c, v);
            }
        }
        for &(src, dst) in &dup_cols {
            for r in 0..n {
                let v = m.get(r, src);
                m.set(r, dst, v);
            }
        }
        prop_assert_eq!(collapsed_hungarian(&m).cost, hungarian(&m).cost);
    }
}
