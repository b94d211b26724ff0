//! Property tests pinning the budget-aware TED\* kernel to the unbounded
//! path: for every pair and every budget, `ted_star_prepared_within`
//! returns `Some(d)` with `d == ted_star_prepared(a, b)` **iff**
//! `d <= budget`, and `None` otherwise — bit-identical distances for
//! every accepted candidate, no false abandons, regardless of budget
//! order, orientation, or what the cross-pair memo has already seen.

use ned_core::memo::DEFAULT_MEMO_CAPACITY;
use ned_core::{
    ted_star, ted_star_class_lower_bound, ted_star_degree_lower_bound, ted_star_prepared,
    ted_star_prepared_within, ted_star_summary_lower_bound, ted_star_within, PreparedTree, TedMemo,
};
use ned_graph::bfs::k_adjacent_tree;
use ned_graph::generators::barabasi_albert;
use ned_tree::generate::random_bounded_depth_tree;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests that call into the process-wide memo, so the
/// ones that read its counters and size see only their own traffic.
static MEMO: Mutex<()> = Mutex::new(());

fn memo_lock() -> MutexGuard<'static, ()> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bounded_matches_unbounded_for_every_budget(
        seed in any::<u64>(),
        nodes_a in 2..40usize,
        nodes_b in 2..40usize,
        depth_a in 2..6usize,
        depth_b in 2..6usize,
    ) {
        let _memo = memo_lock();
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_bounded_depth_tree(nodes_a, depth_a, &mut rng);
        let b = random_bounded_depth_tree(nodes_b, depth_b, &mut rng);
        let pa = PreparedTree::new(&a);
        let pb = PreparedTree::new(&b);
        let d = ted_star_prepared(&pa, &pb);
        prop_assert_eq!(d, ted_star(&a, &b), "kernel diverged from Algorithm 1");

        // Every budget around the distance, plus random ones: the
        // contract is exact, not best-effort.
        let mut budgets = vec![0, d.saturating_sub(2), d.saturating_sub(1), d, d + 1, d + 7, u64::MAX];
        budgets.extend((0..6).map(|_| rng.gen_range(0..d.max(1) * 2 + 2)));
        for &t in &budgets {
            let want = (d <= t).then_some(d);
            prop_assert_eq!(ted_star_prepared_within(&pa, &pb, t), want, "budget {}", t);
            // symmetric in its arguments, like the metric itself
            prop_assert_eq!(ted_star_prepared_within(&pb, &pa, t), want, "budget {} flipped", t);
        }
    }

    #[test]
    fn memo_stays_correct_under_interleaved_budgets(
        seed in any::<u64>(),
    ) {
        // Drive one pair through a budget sequence designed to exercise
        // every memo transition: abort floors recorded low then raised,
        // then an exact fact recorded, then served for both outcomes.
        let _memo = memo_lock();
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_bounded_depth_tree(30, 4, &mut rng);
        let b = random_bounded_depth_tree(24, 5, &mut rng);
        let pa = PreparedTree::new(&a);
        let pb = PreparedTree::new(&b);
        let d = ted_star_prepared(&pa, &pb);
        let mut budgets: Vec<u64> = (0..d + 3).collect();
        // descending, ascending, then shuffled
        let mut seq: Vec<u64> = budgets.iter().rev().copied().collect();
        seq.extend(budgets.iter().copied());
        for _ in 0..budgets.len() {
            let i = rng.gen_range(0..budgets.len());
            let j = rng.gen_range(0..budgets.len());
            budgets.swap(i, j);
        }
        seq.extend(budgets);
        for &t in &seq {
            prop_assert_eq!(
                ted_star_prepared_within(&pa, &pb, t),
                (d <= t).then_some(d),
                "budget {} in interleaved sequence",
                t
            );
        }
    }

    #[test]
    fn ted_star_within_hard_contract(
        seed in any::<u64>(),
        limit in 0..40u64,
    ) {
        // `None` whenever the distance exceeds `limit`, `Some(d)` with
        // the true distance otherwise — never `Some(d)` with `d > limit`.
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_bounded_depth_tree(25, 4, &mut rng);
        let b = random_bounded_depth_tree(18, 3, &mut rng);
        let d = ted_star(&a, &b);
        prop_assert_eq!(ted_star_within(&a, &b, limit), (d <= limit).then_some(d));
    }
}

#[test]
fn identical_pairs_short_circuit() {
    let mut rng = SmallRng::seed_from_u64(7);
    let a = random_bounded_depth_tree(20, 4, &mut rng);
    let pa = PreparedTree::new(&a);
    let pb = PreparedTree::new(&a);
    // Budget 0 still accepts a zero distance.
    assert_eq!(ted_star_prepared_within(&pa, &pb, 0), Some(0));
    assert_eq!(ted_star_prepared_within(&pa, &pa, u64::MAX), Some(0));
}

/// The memo key of a pair, as the kernel forms it (unordered root
/// classes).
fn class_pair(a: &PreparedTree, b: &PreparedTree) -> (u32, u32) {
    let (x, y) = (a.root_class(), b.root_class());
    (x.min(y), x.max(y))
}

/// The static bound that should turn a pair away in [`rejected_pair`].
enum Rejector {
    /// The inline summary bound, checked before the memo.
    Summary,
    /// The class bound, on a pair the summary admits.
    Class,
    /// The exact child-count bound, by at least two, on a pair both the
    /// summary and the class bound admit.
    Degree,
}

/// Random trees and a budget that `by`, and no bound checked before it,
/// rejects.
fn rejected_pair(seed: u64, by: Rejector) -> (PreparedTree, PreparedTree, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    loop {
        let a = PreparedTree::new(&random_bounded_depth_tree(32, 3, &mut rng));
        let b = PreparedTree::new(&random_bounded_depth_tree(32, 3, &mut rng));
        let summary = ted_star_summary_lower_bound(&a, &b);
        let class = ted_star_class_lower_bound(&a, &b);
        let degree = ted_star_degree_lower_bound(&a, &b);
        match by {
            Rejector::Summary if summary > 0 => return (a, b, summary - 1),
            Rejector::Class if summary < class => return (a, b, class - 1),
            Rejector::Degree if summary.max(class) + 1 < degree => {
                return (a, b, summary.max(class))
            }
            _ => {}
        }
    }
}

#[test]
fn degree_bound_rejection_is_a_memo_hit_next_time() {
    let _memo = memo_lock();
    let memo = TedMemo::global();
    memo.set_capacity(DEFAULT_MEMO_CAPACITY);
    let (a, b, budget) = rejected_pair(0xDE6, Rejector::Degree);
    assert!(ted_star_prepared(&a, &b) > budget);
    memo.clear();

    assert_eq!(ted_star_prepared_within(&a, &b, budget), None);
    assert_eq!(memo.len(), 1, "a child-count rejection records its pair");
    let before = memo.stats();
    assert_eq!(ted_star_prepared_within(&b, &a, budget), None);
    let after = memo.stats().since(&before);
    assert_eq!((after.hits, after.misses), (1, 0), "second call must hit");
    // The recorded floor is the bound itself, not just the budget.
    let degree = ted_star_degree_lower_bound(&a, &b);
    assert_eq!(ted_star_prepared_within(&a, &b, degree - 1), None);
    assert_eq!(memo.stats().since(&before).hits, 2, "floor below the bound");
}

#[test]
fn class_bound_rejection_adds_no_memo_entry() {
    let _memo = memo_lock();
    let memo = TedMemo::global();
    memo.set_capacity(DEFAULT_MEMO_CAPACITY);
    let (a, b, budget) = rejected_pair(0xC1A, Rejector::Class);
    memo.clear();

    assert_eq!(ted_star_prepared_within(&a, &b, budget), None);
    assert_eq!(memo.len(), 0, "a class-bound rejection records nothing");
    let before = memo.stats();
    assert_eq!(ted_star_prepared_within(&a, &b, budget), None);
    let after = memo.stats().since(&before);
    assert_eq!((after.hits, after.misses), (0, 1));
}

#[test]
fn summary_rejection_adds_no_memo_entry() {
    let _memo = memo_lock();
    let memo = TedMemo::global();
    memo.set_capacity(DEFAULT_MEMO_CAPACITY);
    let (a, b, budget) = rejected_pair(0x5B0, Rejector::Summary);
    memo.clear();

    let before = memo.stats();
    assert_eq!(ted_star_prepared_within(&a, &b, budget), None);
    assert_eq!(memo.len(), 0, "a summary rejection records nothing");
    let after = memo.stats().since(&before);
    assert_eq!(
        (after.hits, after.misses),
        (0, 0),
        "the memo is not consulted"
    );
    // Not even when the memo already holds the pair's exact distance.
    let d = ted_star_prepared(&a, &b);
    assert!(d > budget);
    assert_eq!(memo.len(), 1);
    let before = memo.stats();
    assert_eq!(ted_star_prepared_within(&b, &a, budget), None);
    let after = memo.stats().since(&before);
    assert_eq!(
        (after.hits, after.misses),
        (0, 0),
        "the memo is not consulted"
    );
}

#[test]
fn memo_holds_exactly_the_pairs_a_sweep_only_kernel_records() {
    // A kNN refine loop over BA neighborhoods: every candidate in
    // database order (no filter in front, so the kernel meets every kind
    // of rejection), the k-th best distance as the budget. A sweep-only
    // kernel behind the summary and class bounds (both unrecorded)
    // records a pair on every call that gets past them and the memo, so
    // its memo holds exactly the pairs some call admitted by both bounds;
    // the child-count rejections must record that same set.
    let _memo = memo_lock();
    let memo = TedMemo::global();
    memo.set_capacity(DEFAULT_MEMO_CAPACITY);
    memo.clear();
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let prepare = |g: &ned_graph::Graph, k: usize| -> Vec<PreparedTree> {
        g.nodes()
            .map(|v| PreparedTree::new(&k_adjacent_tree(g, v, k)))
            .collect()
    };
    // BA neighborhoods at k = 3, where the summary decides nearly every
    // rejection, plus k = 9 neighborhoods of a BA tree: most span more
    // than eight levels and carry no summary, so the class bound rejects.
    let mut database = prepare(&barabasi_albert(300, 3, &mut rng), 3);
    let mut queries = prepare(&barabasi_albert(40, 3, &mut rng), 3);
    database.extend(prepare(&barabasi_albert(150, 1, &mut rng), 9));
    queries.extend(prepare(&barabasi_albert(20, 1, &mut rng), 9));
    const TOP: usize = 5;

    let mut admitted: HashSet<(u32, u32)> = HashSet::new();
    let (mut summary_rejections, mut class_rejections, mut degree_rejections) = (0, 0, 0);
    for q in &queries {
        let mut best: Vec<u64> = Vec::with_capacity(TOP + 1);
        for c in &database {
            let budget = if best.len() < TOP {
                u64::MAX
            } else {
                best[TOP - 1]
            };
            if q.code() != c.code() {
                if ted_star_summary_lower_bound(q, c) > budget {
                    summary_rejections += 1;
                } else if ted_star_class_lower_bound(q, c) > budget {
                    class_rejections += 1;
                } else {
                    admitted.insert(class_pair(q, c));
                    if budget != u64::MAX && ted_star_degree_lower_bound(q, c) > budget {
                        degree_rejections += 1;
                    }
                }
            }
            if let Some(d) = ted_star_prepared_within(q, c, budget) {
                best.push(d);
                best.sort_unstable();
                best.truncate(TOP);
            }
        }
    }
    assert!(
        summary_rejections > 0 && class_rejections > 0 && degree_rejections > 0,
        "loop too easy: {summary_rejections} summary, {class_rejections} class, \
         {degree_rejections} child-count rejections"
    );
    assert_eq!(memo.len(), admitted.len());
}
