//! Cross-engine property tests: the sharded forest must return **exactly**
//! the hits of a linear scan over the same live signature set — same ids,
//! same distances — through arbitrary interleavings of inserts and
//! removes, in serial and parallel query modes, and across a save/load
//! round trip.
//!
//! Since the budget-aware kernel landed, every forest query here also
//! exercises the bounded path: [`SignatureMetric`] overrides
//! `BoundedMetric::distance_within`, so `knn`/`range` issue each exact
//! TED\* call under the current pruning radius. Reference results go
//! through the per-level report (no budget, no static bounds, no memo —
//! see [`classic_distance`]), so these tests pin the bounded serving
//! stack to an unbudgeted sweep; ned-bench's `tests/frozen_algorithm1.rs`
//! pins that sweep to an independent implementation of Algorithm 1.

use ned_core::{signatures, NodeSignature};
use ned_graph::generators;
use ned_index::{
    BoundedMetric, ForestHit, Metric, ShardedVpForest, SignatureIndex, SignatureMetric,
    UnboundedSignatureMetric,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Exact NED computed through the per-level report — an unbudgeted
/// sweep that shares neither the budget threading, the static lower
/// bounds, nor the cross-pair memo with the forest under test, so a
/// defect in any of those cannot corrupt reference and result
/// identically.
fn classic_distance(a: &NodeSignature, b: &NodeSignature) -> f64 {
    a.distance_report(b).distance as f64
}

/// Reference result computed from first principles: classic-engine NED
/// to every live `(id, signature)` pair, sorted by `(distance, id)`.
fn reference_knn(
    live: &HashMap<u64, NodeSignature>,
    q: &NodeSignature,
    k: usize,
) -> Vec<ForestHit> {
    let mut hits: Vec<ForestHit> = live
        .iter()
        .map(|(&id, sig)| ForestHit {
            id,
            distance: classic_distance(q, sig),
        })
        .collect();
    hits.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("NaN")
            .then_with(|| a.id.cmp(&b.id))
    });
    hits.truncate(k);
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forest_knn_equals_linear_scan_under_churn(
        seed in any::<u64>(),
        threshold in 1..48usize,
        ops in 20..120usize,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g1 = generators::barabasi_albert(100, 2, &mut rng);
        let g2 = generators::erdos_renyi_gnm(80, 160, &mut rng);
        let nodes1: Vec<u32> = g1.nodes().collect();
        let nodes2: Vec<u32> = g2.nodes().collect();
        let pool: Vec<NodeSignature> = signatures(&g1, &nodes1, 3)
            .into_iter()
            .chain(signatures(&g2, &nodes2, 3))
            .collect();

        let mut forest: ShardedVpForest<NodeSignature> =
            ShardedVpForest::new(threshold, seed);
        let mut live: HashMap<u64, NodeSignature> = HashMap::new();
        for step in 0..ops {
            if live.is_empty() || rng.gen_bool(0.6) {
                let id = rng.gen_range(0..60u64);
                let sig = pool[rng.gen_range(0..pool.len())].clone();
                let fresh = forest.insert(&SignatureMetric, id, sig.clone());
                prop_assert_eq!(fresh, !live.contains_key(&id), "step {}", step);
                live.insert(id, sig);
            } else {
                let id = rng.gen_range(0..60u64);
                let removed = forest.remove(&SignatureMetric, id);
                prop_assert_eq!(removed, live.remove(&id).is_some(), "step {}", step);
            }
            prop_assert_eq!(forest.len(), live.len(), "step {}", step);

            if step % 9 == 0 {
                let q = &pool[rng.gen_range(0..pool.len())];
                let k = rng.gen_range(1..10usize);
                let want = reference_knn(&live, q, k);
                let serial = forest.knn(&SignatureMetric, q, k, 1);
                let parallel = forest.knn(&SignatureMetric, q, k, 0);
                prop_assert_eq!(&serial, &want, "serial knn, step {}", step);
                prop_assert_eq!(&parallel, &want, "parallel knn, step {}", step);
                let scan = forest.scan_knn(&SignatureMetric, q, k);
                prop_assert_eq!(&scan, &want, "scan baseline, step {}", step);
            }
        }
    }

    #[test]
    fn forest_range_equals_linear_filter(
        seed in any::<u64>(),
        threshold in 1..32usize,
        radius in 0..12u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(90, 3, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        let pool = signatures(&g, &nodes, 3);
        let mut forest: ShardedVpForest<NodeSignature> =
            ShardedVpForest::new(threshold, seed);
        let mut live: HashMap<u64, NodeSignature> = HashMap::new();
        for (i, sig) in pool.iter().enumerate() {
            forest.insert(&SignatureMetric, i as u64, sig.clone());
            live.insert(i as u64, sig.clone());
        }
        for drop in (0..90u64).step_by(4) {
            forest.remove(&SignatureMetric, drop);
            live.remove(&drop);
        }
        let q = &pool[rng.gen_range(0..pool.len())];
        let got = forest.range(&SignatureMetric, q, radius as f64, 0);
        let mut want: Vec<ForestHit> = live
            .iter()
            .filter_map(|(&id, sig)| {
                let d = classic_distance(q, sig);
                (d <= radius as f64).then_some(ForestHit { id, distance: d })
            })
            .collect();
        want.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("NaN")
                .then_with(|| a.id.cmp(&b.id))
        });
        prop_assert_eq!(got, want);
    }

    #[test]
    fn save_load_round_trip_is_query_identical(
        seed in any::<u64>(),
        threshold in 1..40usize,
        removals in 0..30usize,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(120, 2, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        let mut index = SignatureIndex::new(3, threshold, seed);
        index.insert_graph(&g, &nodes);
        for _ in 0..removals {
            index.remove(rng.gen_range(0..120u64));
        }
        let bytes = index.to_bytes();
        let back = SignatureIndex::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(back.len(), index.len());

        // Queries after the round trip are bit-identical to before — and
        // both are the linear scan's answer.
        let probes = signatures(&g, &[0, 13, 77, 119], 3);
        for q in &probes {
            let k = rng.gen_range(1..12usize);
            let before = index.query(q, k, 0);
            let after = back.query(q, k, 0);
            let scan = index.scan(q, k);
            prop_assert_eq!(&before, &scan);
            prop_assert_eq!(&after, &scan);
        }

        // ... and the restored index stays exact under further churn.
        let mut back = back;
        let mut extra = signatures(&g, &[5, 6, 7], 3).into_iter();
        let new_id = back.insert(extra.next().expect("three sigs"));
        prop_assert!(back.remove(new_id));
        back.insert(extra.next().expect("three sigs"));
        let q = extra.next().expect("three sigs");
        let fast = back.query(&q, 6, 0);
        let slow = back.scan(&q, 6);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn bounded_metric_contract_on_signature_pairs(
        seed in any::<u64>(),
    ) {
        // `distance_within(a, b, t)` is `Some(d)` with the exact distance
        // iff `d <= t` — for integral, fractional, negative, and infinite
        // budgets alike.
        let mut rng = SmallRng::seed_from_u64(seed);
        let g1 = generators::barabasi_albert(60, 2, &mut rng);
        let g2 = generators::road_network(6, 6, 0.4, 0.05, &mut rng);
        let a = signatures(&g1, &(0..20u32).collect::<Vec<_>>(), 3);
        let b = signatures(&g2, &(0..20u32).collect::<Vec<_>>(), 3);
        let m = SignatureMetric;
        for (x, y) in a.iter().zip(&b) {
            let d = m.distance(x, y);
            for t in [0.0, d - 1.0, d - 0.5, d, d + 0.5, d + 10.0, f64::INFINITY] {
                let want = (d <= t).then_some(d);
                prop_assert_eq!(m.distance_within(x, y, t), want, "budget {}", t);
            }
            prop_assert_eq!(m.distance_within(x, y, -1.0), None, "negative budget");
        }
    }

    #[test]
    fn bounded_forest_equals_unbounded_forest_under_churn(
        seed in any::<u64>(),
        threshold in 1..32usize,
        ops in 20..90usize,
    ) {
        // A duplicate-heavy pool (every signature drawn from a small node
        // set, so interned shapes repeat constantly — the memo's target
        // regime): bounded knn and range must equal both the unbounded
        // metric's results and the first-principles reference.
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(50, 3, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        let pool = signatures(&g, &nodes, 3);
        let mut forest: ShardedVpForest<NodeSignature> =
            ShardedVpForest::new(threshold, seed);
        let mut live: HashMap<u64, NodeSignature> = HashMap::new();
        for step in 0..ops {
            if live.is_empty() || rng.gen_bool(0.7) {
                let id = rng.gen_range(0..40u64);
                let sig = pool[rng.gen_range(0..pool.len())].clone();
                forest.insert(&SignatureMetric, id, sig.clone());
                live.insert(id, sig);
            } else {
                let id = rng.gen_range(0..40u64);
                forest.remove(&SignatureMetric, id);
                live.remove(&id);
            }
            if step % 7 == 0 {
                let q = &pool[rng.gen_range(0..pool.len())];
                let k = rng.gen_range(1..8usize);
                let want = reference_knn(&live, q, k);
                prop_assert_eq!(&forest.knn(&SignatureMetric, q, k, 0), &want, "bounded, step {}", step);
                prop_assert_eq!(
                    &forest.knn(&UnboundedSignatureMetric, q, k, 0),
                    &want,
                    "unbounded, step {}",
                    step
                );
                let radius = rng.gen_range(0..6u64) as f64;
                prop_assert_eq!(
                    forest.range(&SignatureMetric, q, radius, 0),
                    forest.range(&UnboundedSignatureMetric, q, radius, 0),
                    "range, step {}",
                    step
                );
            }
        }
    }
}
