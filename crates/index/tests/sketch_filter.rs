//! Property tests for the sketch filter tier.
//!
//! Two invariants keep the tier honest:
//!
//! 1. **Soundness of the bound** — the scalar sketch distance never
//!    exceeds NED, on every graph family the paper benchmarks (BA, ER,
//!    road grids) and every extraction depth `k ∈ 1..=5`. A violated
//!    bound would mean silent false drops.
//! 2. **Bit-identical answers** — `query`/`range` return exactly what
//!    a reference computed from a model of the live set returns (NED
//!    through the per-level report, sorted by `(distance, id)`), and
//!    what the full scan returns — ids *and* distances — under arbitrary
//!    insert/remove churn and across a save/load round trip of the
//!    sketch-carrying snapshot format.
//!
//! A third suite pins the bank's refine order: [`SketchBank::knn`]
//! visits rows in exactly ascending `(bound, id)` order — the order a
//! full sort gives — whatever the row layout, ties, or bucket cap.

use ned_core::{signatures, ted_star_degree_lower_bound, NodeSignature, WireHit};
use ned_graph::{generators, Graph};
use ned_index::sketch::{sketch_lower_bound, Sketch, SketchStats, BOUND_CAP};
use ned_index::{SignatureIndex, SketchBank};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// One of the paper's three benchmark graph families, picked by `kind`.
fn sample_graph(kind: u8, rng: &mut SmallRng) -> Graph {
    match kind % 3 {
        0 => generators::barabasi_albert(60, 2, rng),
        1 => generators::erdos_renyi_gnm(50, 110, rng),
        _ => generators::road_network(8, 6, 0.4, 0.05, rng),
    }
}

/// The reference answer for invariant 2: NED through the per-level
/// report to every live signature of the model, sorted by `(distance,
/// id)`. The report runs an unbudgeted sweep, so the reference shares no
/// memo, budget or bound with the index it checks.
fn model_reference(model: &HashMap<u64, NodeSignature>, q: &NodeSignature) -> Vec<WireHit> {
    let mut hits: Vec<(u64, u64)> = model
        .iter()
        .map(|(&id, sig)| (q.distance_report(sig).distance, id))
        .collect();
    hits.sort_unstable();
    hits.into_iter()
        .map(|(d, id)| WireHit {
            id,
            distance: d as f64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant 1: `sketch_lower_bound(a, b) <= NED(a, b)` across
    /// BA/ER/road graphs and `k ∈ 1..=5`.
    #[test]
    fn sketch_l1_lower_bounds_ned(
        seed in any::<u64>(),
        kind_a in 0u8..3,
        kind_b in 0u8..3,
        k in 1usize..=5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ga = sample_graph(kind_a, &mut rng);
        let gb = sample_graph(kind_b, &mut rng);
        // A spread of nodes from both graphs, cross-compared.
        let mut sigs = Vec::new();
        for v in ga.nodes().step_by(7) {
            sigs.push(NodeSignature::extract(&ga, v, k));
        }
        for v in gb.nodes().step_by(9) {
            sigs.push(NodeSignature::extract(&gb, v, k));
        }
        let sketches: Vec<Sketch> = sigs.iter().map(Sketch::of).collect();
        for (i, a) in sigs.iter().enumerate() {
            for (j, b) in sigs.iter().enumerate().skip(i) {
                let d = a.distance(b);
                let lb = sketches[i].lower_bound(&sketches[j]);
                prop_assert!(
                    lb <= d,
                    "sketch bound {lb} exceeds NED {d} (k = {k}, pair {i}/{j})"
                );
                // The bound is a metric-style quantity: symmetric, and
                // zero on identical signatures.
                prop_assert_eq!(lb, sketches[j].lower_bound(&sketches[i]));
            }
        }
    }

    /// Invariant 2: sketch-filtered results are bit-identical to the
    /// model's reference and the full scan, under churn and across a
    /// save/load round trip.
    #[test]
    fn sketch_filtered_answers_equal_the_model_reference(
        seed in any::<u64>(),
        threshold in 1..48usize,
        churn in 10..60usize,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g1 = generators::barabasi_albert(80, 2, &mut rng);
        let g2 = generators::road_network(7, 5, 0.4, 0.1, &mut rng);
        let mut index = SignatureIndex::new(3, threshold, seed);
        index.insert_graph(&g1, &g1.nodes().collect::<Vec<_>>());
        index.insert_graph(&g2, &g2.nodes().collect::<Vec<_>>());

        // Interleaved removes and re-inserts so the bank tracks swaps,
        // replacements, and tombstones — not just the bulk build.
        let pool: Vec<NodeSignature> = g1
            .nodes()
            .map(|v| NodeSignature::extract(&g1, v, 3))
            .collect();
        // A model of the live set, kept beside the index.
        let mut model: HashMap<u64, NodeSignature> = index
            .entries()
            .map(|(id, sig)| (id, sig.clone()))
            .collect();
        prop_assert_eq!(model.len(), 115);
        for _ in 0..churn {
            if rng.gen_bool(0.5) {
                let id = rng.gen_range(0..115u64);
                prop_assert_eq!(index.remove(id), model.remove(&id).is_some());
            } else {
                let sig = pool[rng.gen_range(0..pool.len())].clone();
                model.insert(index.insert(sig.clone()), sig);
            }
        }
        let mut live: Vec<(u64, NodeSignature)> = index
            .entries()
            .map(|(id, sig)| (id, sig.clone()))
            .collect();
        live.sort_by_key(|&(id, _)| id);
        let mut want: Vec<(u64, NodeSignature)> =
            model.iter().map(|(&id, sig)| (id, sig.clone())).collect();
        want.sort_by_key(|&(id, _)| id);
        prop_assert_eq!(&live, &want, "entries() diverged from the model");
        let reloaded = SignatureIndex::from_bytes(&index.to_bytes()).expect("round trip");

        for probe in [0u32, 39, 79] {
            let q = NodeSignature::extract(&g1, probe, 3);
            let reference = model_reference(&model, &q);
            for k in [1usize, 5, 12] {
                let sketched = index.query(&q, k, 0);
                prop_assert_eq!(&sketched[..], &reference[..k], "model k = {}", k);
                prop_assert_eq!(&sketched, &index.scan(&q, k), "scan k = {}", k);
                prop_assert_eq!(&sketched, &reloaded.query(&q, k, 0), "reload k = {}", k);
            }
            for radius in [0u64, 3, 10] {
                let sketched = index.range(&q, radius, 0);
                let within: Vec<WireHit> = reference
                    .iter()
                    .filter(|h| h.distance <= radius as f64)
                    .copied()
                    .collect();
                prop_assert_eq!(&sketched, &within, "model range r = {}", radius);
                let mut scanned = index.scan(&q, index.len());
                scanned.retain(|h| h.distance <= radius as f64);
                prop_assert_eq!(&sketched, &scanned, "scan range r = {}", radius);
                prop_assert_eq!(
                    &sketched,
                    &reloaded.range(&q, radius, 0),
                    "reload range r = {}", radius
                );
            }
        }
    }

    /// A save/load round trip answers like the saved index, and the
    /// restored index stays exact under further churn.
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
}

/// The star `K_{1,leaves}`: its center's signature has a level of
/// `leaves` nodes, so its sketch bound to an ordinary node's passes
/// [`BOUND_CAP`] once `leaves` does.
fn star(leaves: usize) -> Graph {
    let edges: Vec<(u32, u32)> = (1..=leaves as u32).map(|v| (0, v)).collect();
    Graph::undirected_from_edges(leaves + 1, &edges)
}

/// A bank shaped to stress the refine order, plus its signatures by id:
/// ids inserted in shuffled order and then swap-removed, so they no
/// longer follow row order; a BA tree (`m = 1`) at `k = 3`, so many rows
/// share a bound; and wide stars (two of equal width), whose bounds to ordinary probes
/// land in the overflow bucket.
fn order_stress_bank(seed: u64) -> (SketchBank, HashMap<u64, NodeSignature>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = generators::barabasi_albert(120, 1, &mut rng);
    let mut sigs: Vec<NodeSignature> = g
        .nodes()
        .map(|v| NodeSignature::extract(&g, v, 3))
        .collect();
    for leaves in [1100, 1300, 1300, 1700, 2100] {
        let s = star(leaves);
        sigs.push(NodeSignature::extract(&s, 0, 3));
        sigs.push(NodeSignature::extract(&s, 1, 3));
    }
    let mut ids: Vec<u64> = (0..sigs.len() as u64).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let mut bank = SketchBank::new();
    let mut by_id = HashMap::new();
    for (&id, sig) in ids.iter().zip(&sigs) {
        bank.upsert(id, sig);
        by_id.insert(id, sig.clone());
    }
    for _ in 0..20 {
        let id = ids[rng.gen_range(0..ids.len())];
        if bank.remove(id) {
            by_id.remove(&id);
        }
    }
    (bank, by_id)
}

/// `SketchBank::knn`'s refine loop over a full sort of
/// `(bound, id, row)`: the hits and the counter deltas it must produce,
/// plus the largest bound it refined.
fn reference_knn(
    bank: &SketchBank,
    by_id: &HashMap<u64, NodeSignature>,
    q: &NodeSignature,
    k: usize,
) -> (Vec<(u64, u64)>, SketchStats, u64) {
    let qs = Sketch::of(q);
    let mut order: Vec<(u64, u64, usize)> = bank
        .entries()
        .enumerate()
        .map(|(row, (id, _))| {
            let lanes = bank.lanes_of(id).expect("live id");
            (sketch_lower_bound(qs.lanes(), lanes), id, row)
        })
        .collect();
    order.sort_unstable();
    let mut best: Vec<(u64, u64)> = Vec::with_capacity(k + 1);
    let (mut refined, mut pruned, mut top_bound) = (0u64, 0u64, 0u64);
    for (pos, &(bound, id, _)) in order.iter().enumerate() {
        let tau = if best.len() < k {
            u64::MAX
        } else {
            best[k - 1].0
        };
        if bound > tau {
            pruned = (order.len() - pos) as u64;
            break;
        }
        refined += 1;
        top_bound = bound;
        let d = q.distance(&by_id[&id]);
        if d <= tau {
            best.push((d, id));
            best.sort_unstable();
            best.truncate(k);
        }
    }
    let stats = SketchStats {
        rows: order.len(),
        queries: 1,
        scanned: order.len() as u64,
        refined,
        pruned,
    };
    (best, stats, top_bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 3: the bucketed refine order is exactly the full
    /// `(bound, id)` sort — same hits and same counter deltas, including
    /// when the loop reaches the overflow bucket.
    #[test]
    fn knn_visits_rows_in_full_sort_order(seed in any::<u64>()) {
        let (bank, by_id) = order_stress_bank(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let ordinary = by_id.values().filter(|s| s.prepared().tree().len() < 1000).count();
        let probe_graph = generators::barabasi_albert(120, 1, &mut rng);
        let probes = [
            NodeSignature::extract(&probe_graph, rng.gen_range(0..120), 3),
            NodeSignature::extract(&probe_graph, rng.gen_range(0..120), 3),
            NodeSignature::extract(&star(1250), 0, 3),
        ];
        let mut reached_overflow = false;
        for q in &probes {
            for k in [1, 4, 9, ordinary + 1, ordinary + 4] {
                let before = bank.stats();
                let hits: Vec<(u64, u64)> = bank
                    .knn(q, k, 1)
                    .iter()
                    .map(|h| (h.distance as u64, h.id))
                    .collect();
                let after = bank.stats();
                let delta = SketchStats {
                    rows: after.rows,
                    queries: after.queries - before.queries,
                    scanned: after.scanned - before.scanned,
                    refined: after.refined - before.refined,
                    pruned: after.pruned - before.pruned,
                };
                let (want_hits, want_stats, top_bound) =
                    reference_knn(&bank, &by_id, q, k);
                reached_overflow |= top_bound >= BOUND_CAP as u64;
                prop_assert_eq!(&hits, &want_hits, "hits, k = {}", k);
                prop_assert_eq!(delta, want_stats, "counters, k = {}", k);
            }
        }
        prop_assert!(reached_overflow, "no query refined an overflow-bucket row");
    }
}

/// Pruning power of the child-count bound on the bank's own refine
/// order. Cold probes (root classes the bank does not hold) refine many
/// candidates whose budgeted sweep returns `None`; the kernel rejects
/// those before any sweep when `ted_star_degree_lower_bound` exceeds the
/// budget, and it must do so for at least 90% of them.
#[test]
fn degree_bound_rejects_the_cold_refines_that_would_abandon() {
    const TOP: usize = 5;
    let mut rng = SmallRng::seed_from_u64(0xC01D);
    let bank_graph = generators::barabasi_albert(1000, 3, &mut rng);
    let probe_graph = generators::barabasi_albert(1000, 3, &mut rng);
    let entries: Vec<(u64, NodeSignature)> = bank_graph
        .nodes()
        .map(|v| (u64::from(v), NodeSignature::extract(&bank_graph, v, 3)))
        .collect();
    let bank = SketchBank::bulk(&entries, 1);
    let sketches: Vec<Sketch> = entries.iter().map(|(_, s)| Sketch::of(s)).collect();
    let mut seen: HashSet<u32> = entries
        .iter()
        .map(|(_, s)| s.prepared().root_class())
        .collect();
    let probes: Vec<NodeSignature> = probe_graph
        .nodes()
        .map(|v| NodeSignature::extract(&probe_graph, v, 3))
        .filter(|s| seen.insert(s.prepared().root_class()))
        .take(60)
        .collect();
    assert_eq!(probes.len(), 60, "too few cold classes");

    let (mut would_abandon, mut rejected) = (0usize, 0usize);
    for q in &probes {
        // `SketchBank::knn`'s refine loop: candidates by (sketch bound,
        // id), the k-th best distance as the budget.
        let qs = Sketch::of(q);
        let mut order: Vec<(u64, u64, usize)> = sketches
            .iter()
            .enumerate()
            .map(|(r, s)| (qs.lower_bound(s), entries[r].0, r))
            .collect();
        order.sort_unstable();
        let mut best: Vec<(u64, u64)> = Vec::with_capacity(TOP + 1);
        for &(bound, id, r) in &order {
            let budget = if best.len() < TOP {
                u64::MAX
            } else {
                best[TOP - 1].0
            };
            if bound > budget {
                break;
            }
            let c = &entries[r].1;
            let d = q.distance(c);
            if d > budget {
                would_abandon += 1;
                if ted_star_degree_lower_bound(q.prepared(), c.prepared()) > budget {
                    rejected += 1;
                }
            } else {
                best.push((d, id));
                best.sort_unstable();
                best.truncate(TOP);
            }
        }
        // The replay is the bank's loop: same answer.
        let hits: Vec<(u64, u64)> = bank
            .knn(q, TOP, 1)
            .iter()
            .map(|h| (h.distance as u64, h.id))
            .collect();
        assert_eq!(hits, best, "replay diverged from SketchBank::knn");
    }
    assert!(would_abandon > 0, "no refine would abandon");
    assert!(
        rejected * 10 >= would_abandon * 9,
        "child-count bound rejected {rejected} of {would_abandon} abandoning refines"
    );
}
