//! Incremental-vs-rebuild equivalence: random [`GraphDelta`] sequences
//! applied through [`GraphMaintainer`] must leave the live index
//! holding, for every live node, a signature **bit-identical** to a
//! from-scratch extraction on the mutated graph — and the emitted
//! `Replace` set must be **exactly** the set of signatures that changed
//! (the dirty-set candidates are a superset; the class diff trims it to
//! equality). Each delta batch must publish exactly one epoch.

use ned_core::NodeSignature;
use ned_graph::{generators, Graph, GraphDelta, NodeId};
use ned_index::{ConcurrentNedIndex, GraphMaintainer, SignatureIndex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// From-scratch ground truth: every live node's signature extracted
/// independently on the given graph.
fn rebuild(g: &Graph, live: &[bool], k: usize) -> HashMap<u64, NodeSignature> {
    live.iter()
        .enumerate()
        .filter(|&(_, &alive)| alive)
        .map(|(v, _)| (v as u64, NodeSignature::extract(g, v as NodeId, k)))
        .collect()
}

/// The index's current contents by id.
fn index_contents(index: &SignatureIndex) -> HashMap<u64, NodeSignature> {
    index
        .forest()
        .entries()
        .map(|(id, sig)| (id, sig.clone()))
        .collect()
}

/// Drives `batches` of random deltas through a maintainer and checks the
/// full contract after every batch.
fn run_churn(seed: u64, n: usize, k: usize, batches: usize, batch_len: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = generators::barabasi_albert(n, 2, &mut rng);
    let mut index = SignatureIndex::new(k, 12, seed);
    index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
    let mut maintainer = GraphMaintainer::attach(&g, k, 0, 1);
    maintainer.verify_against(&index).expect("clean attach");
    let (mut writer, reader) = ConcurrentNedIndex::split(index);

    // Shadow adjacency for generating sensible deltas; node ids only grow.
    let mut edges: std::collections::BTreeSet<(NodeId, NodeId)> = g.edges().collect();
    let mut alive: Vec<bool> = vec![true; n];

    for batch_no in 0..batches {
        let mut batch: Vec<GraphDelta> = Vec::new();
        for _ in 0..batch_len {
            let node_count = alive.len() as u32;
            let roll: f64 = rng.gen();
            if roll < 0.40 {
                let a = rng.gen_range(0..node_count);
                let b = rng.gen_range(0..node_count);
                batch.push(GraphDelta::AddEdge(a, b));
                if a != b && alive[a as usize] && alive[b as usize] {
                    edges.insert((a.min(b), a.max(b)));
                }
            } else if roll < 0.80 {
                if let Some(&(a, b)) = edges.iter().nth(rng.gen_range(0..edges.len().max(1))) {
                    batch.push(GraphDelta::RemoveEdge(a, b));
                    edges.remove(&(a, b));
                }
            } else if roll < 0.90 {
                batch.push(GraphDelta::AddNode);
                alive.push(true);
            } else {
                let v = rng.gen_range(0..node_count);
                batch.push(GraphDelta::RemoveNode(v));
                if alive[v as usize] {
                    alive[v as usize] = false;
                    edges.retain(|&(a, b)| a != v && b != v);
                }
            }
        }
        let epoch_before = reader.epoch();
        let before = index_contents(&reader.snapshot());
        let report = maintainer.apply(&batch, &mut writer);
        assert_eq!(
            reader.epoch(),
            epoch_before + 1,
            "batch {batch_no}: exactly one publication per delta batch"
        );

        // Ground truth on the mutated graph.
        let current = maintainer.graph().to_graph();
        let want = rebuild(&current, &alive, k);
        let got = index_contents(&reader.snapshot());
        assert_eq!(
            got.len(),
            want.len(),
            "batch {batch_no}: live set size (report {report})"
        );
        for (id, sig) in &want {
            let indexed = got
                .get(id)
                .unwrap_or_else(|| panic!("batch {batch_no}: id {id} missing from the index"));
            assert_eq!(
                indexed, sig,
                "batch {batch_no}: id {id} not bit-identical to a from-scratch extraction"
            );
        }

        // Exactness of the emitted change set: `Replace` is the only way
        // a surviving id's stored signature changes, so (state now
        // correct) replaced ⊇ changed; count equality forces equality.
        let changed = want
            .iter()
            .filter(|(id, sig)| before.get(id).is_some_and(|old| old != *sig))
            .count();
        assert_eq!(
            report.replaced, changed,
            "batch {batch_no}: replace set must be exactly the changed set (report {report})"
        );
    }
}

#[test]
fn single_edge_flips_maintain_exactly_the_changed_set() {
    run_churn(11, 60, 3, 30, 1);
}

#[test]
fn dirty_set_stays_local_on_sparse_graphs() {
    // On a road-like graph the (k-1)-ball of an endpoint is a tiny
    // fraction of the graph, so an edge flip must recompute only a
    // handful of nodes — never degenerate into a rebuild.
    let mut rng = SmallRng::seed_from_u64(21);
    let g = generators::road_network(20, 20, 0.4, 0.0, &mut rng);
    let n = g.num_nodes();
    let k = 3;
    let mut index = SignatureIndex::new(k, 64, 1);
    index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
    let mut maintainer = GraphMaintainer::attach(&g, k, 0, 1);
    let (mut writer, reader) = ConcurrentNedIndex::split(index);
    let mut max_candidates = 0usize;
    for i in 0..10u32 {
        let (a, b) = (i * 37 % n as u32, (i * 53 + 7) % n as u32);
        let add = maintainer.apply(&[GraphDelta::AddEdge(a, b)], &mut writer);
        if add.applied == 1 {
            let del = maintainer.apply(&[GraphDelta::RemoveEdge(a, b)], &mut writer);
            assert_eq!(del.applied, 1);
            max_candidates = max_candidates.max(add.candidates).max(del.candidates);
        }
    }
    assert!(max_candidates > 0, "some flip must have landed");
    assert!(
        max_candidates * 4 < n,
        "dirty set {max_candidates} is not local on a {n}-node road grid"
    );
    // net-zero churn: final contents equal a from-scratch rebuild
    let want = rebuild(&g, &vec![true; n], k);
    assert_eq!(index_contents(&reader.snapshot()), want);
}

#[test]
fn edge_flip_candidates_are_mostly_real_changes_on_ba_graphs() {
    // Regression guard for the dirty-set width. Only nodes within k − 1
    // hops of both endpoints at unequal distances can change, and on a
    // BA(m = 3) graph at k = 3 most of them do (0.86 here). Re-extracting
    // the whole (k − 1)-hop ball around one endpoint instead reads 0.18.
    let mut rng = SmallRng::seed_from_u64(31);
    let g = generators::barabasi_albert(400, 3, &mut rng);
    let n = g.num_nodes() as NodeId;
    let k = 3;
    let mut index = SignatureIndex::new(k, 16, 3);
    index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
    let mut maintainer = GraphMaintainer::attach(&g, k, 0, 1);
    let (mut writer, _reader) = ConcurrentNedIndex::split(index);
    let (mut candidates, mut replaced, mut flips) = (0usize, 0usize, 0usize);
    while flips < 80 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a == b || g.has_edge(a, b) {
            continue;
        }
        for delta in [GraphDelta::AddEdge(a, b), GraphDelta::RemoveEdge(a, b)] {
            let report = maintainer.apply(&[delta], &mut writer);
            assert_eq!(report.applied, 1);
            candidates += report.candidates;
            replaced += report.replaced;
            flips += 1;
        }
    }
    let frac = replaced as f64 / candidates as f64;
    assert!(
        frac >= 0.5,
        "only {replaced} of {candidates} candidates changed over {flips} flips ({frac:.3})"
    );
}

#[test]
fn mixed_batches_maintain_exactly_the_changed_set() {
    run_churn(12, 50, 3, 12, 4);
}

#[test]
fn deep_trees_k4() {
    run_churn(13, 40, 4, 10, 2);
}

#[test]
fn shallow_trees_k2_and_k1() {
    run_churn(14, 45, 2, 10, 3);
    // k = 1: every signature is a singleton; edge churn must emit zero
    // replaces but still publish.
    run_churn(15, 30, 1, 6, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_delta_sequences_equal_rebuild(
        seed in any::<u64>(),
        n in 20..60usize,
        k in 2..5usize,
        batches in 2..8usize,
        batch_len in 1..5usize,
    ) {
        run_churn(seed, n, k, batches, batch_len);
    }
}
