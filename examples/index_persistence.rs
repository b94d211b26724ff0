//! Indexing & persistence: build a dynamic signature index over two
//! graphs, query it, mutate it, snapshot it to disk, and reload it —
//! the serving-layer workflow behind `ned-cli index ...` and
//! `ned-cli serve`.
//!
//! Run with: `cargo run --release --example index_persistence`

use ned::index::SignatureIndex;
use ned::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(42);
    // Two unrelated graphs; the index does not care where signatures come
    // from — NED is an inter-graph metric.
    let social = ned::graph::generators::barabasi_albert(800, 3, &mut rng);
    let road = ned::graph::generators::road_network(20, 20, 0.4, 0.02, &mut rng);

    // --- build ------------------------------------------------------------
    let k = 3;
    let mut index = SignatureIndex::new(k, 256, 7);
    let social_ids = index.insert_graph(&social, &social.nodes().collect::<Vec<_>>());
    let road_ids = index.insert_graph(&road, &road.nodes().collect::<Vec<_>>());
    println!(
        "indexed {} signatures (social ids {social_ids:?}, road ids {road_ids:?})",
        index.len()
    );
    println!("sketch bank: {}", index.sketch_stats());

    // --- query ------------------------------------------------------------
    // Which indexed neighborhoods look most like a road intersection?
    let probe = NodeSignature::extract(&road, 210, k);
    let hits = index.query(&probe, 5, 0);
    println!("\ntop-5 for a road-network probe:");
    for h in &hits {
        let side = if h.id < social_ids.end {
            "social"
        } else {
            "road"
        };
        println!("  id {:>4} ({side})  NED = {}", h.id, h.distance);
    }
    // The index is exact: identical to the full scan, only faster.
    assert_eq!(hits, index.scan(&probe, 5));

    // --- mutate -----------------------------------------------------------
    // Serving indexes are not build-once: drop some signatures, add a new
    // graph's worth, stay exact throughout.
    for id in (road_ids.start..road_ids.end).step_by(3) {
        index.remove(id);
    }
    let extra = ned::graph::generators::erdos_renyi_gnm(300, 600, &mut rng);
    index.insert_graph(&extra, &extra.nodes().collect::<Vec<_>>());
    let hits = index.query(&probe, 5, 0);
    assert_eq!(hits, index.scan(&probe, 5));
    println!(
        "\nafter churn: {} live signatures, still exact",
        index.len()
    );

    // --- persist ----------------------------------------------------------
    let path = std::env::temp_dir().join("ned_example_index.idx");
    index.save(&path).expect("save index");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!(
        "\nsaved {} signatures to {} ({bytes} bytes — shapes are deduplicated on disk)",
        index.len(),
        path.display()
    );

    // --- reload -----------------------------------------------------------
    let restored = SignatureIndex::load(&path).expect("load index");
    assert_eq!(restored.len(), index.len());
    assert_eq!(restored.query(&probe, 5, 0), index.query(&probe, 5, 0));
    println!(
        "reloaded: {} signatures, k = {}, answers bit-identical — no re-extraction needed",
        restored.len(),
        restored.k()
    );

    // NED is a metric, so any metric index answers the same query: here
    // the paper's VP-tree, built over the restored entries. Its hits index
    // the item slice, so `ids` maps them back to index ids.
    let (ids, sigs): (Vec<u64>, Vec<NodeSignature>) = restored
        .entries()
        .map(|(id, sig)| (id, sig.clone()))
        .unzip();
    let metric = FnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64);
    let tree = VpTree::build(sigs, &metric, &mut rng);
    let nearest = tree.knn(&metric, &probe, 1)[0];
    let want = restored.query(&probe, 1, 0)[0];
    assert_eq!(nearest.distance, want.distance);
    // The tree breaks ties by traversal order, the index by id: among the
    // items tied at the nearest distance, the smallest id is the index's.
    let tied = tree.range(&metric, &probe, nearest.distance);
    assert_eq!(tied.iter().map(|h| ids[h.index]).min(), Some(want.id));
    println!(
        "nearest via a VP-tree over the same entries: id {} at NED {}",
        ids[nearest.index], nearest.distance
    );

    std::fs::remove_file(&path).ok();
}
