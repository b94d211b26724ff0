//! Ablation experiments for the design choices ARCHITECTURE.md,
//! "Ablations", calls out.
//!
//! 1. Zero-pair elimination inside TED\*'s matching step (on vs off).
//! 2. Hungarian (exact) vs greedy matching — speed and value drift.
//! 3. Weighted TED\* upper bound `δ_T(W+)` tightness against exact TED.
//! 4. The `GED ≤ 2·TED*` bound (Equation 18) on neighborhood trees.
//! 5. Algorithm 1 vs the exhaustive Definition-3 reference on small trees.

use crate::frozen::{ted_star_with, Matcher, TedStarConfig};
use crate::util::{fmt_duration, mean, sample_nodes, time, ExpConfig, Table};
use ned_core::reference::exhaustive_ted_star;
use ned_core::ted_star;
use ned_core::weighted::ted_upper_bound;
use ned_datasets::Dataset;
use ned_graph::bfs::TreeExtractor;
use ned_graph::exact_ged::{exact_ged_rooted, SmallGraph};
use ned_tree::exact::exact_ted;
use ned_tree::Tree;
use std::time::Duration;

/// Runs all ablations.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = String::new();
    out.push_str(&matching_ablation(cfg));
    out.push('\n');
    out.push_str(&bounds_ablation(cfg));
    out.push('\n');
    out.push_str(&reference_ablation(cfg));
    out.push('\n');
    out.push_str(&index_ablation(cfg));
    print!("{out}");
    out
}

/// Ablation 6: exact 5-NN retrieval strategies over one NED signature
/// database — VP-tree vs BK-tree vs filter-and-refine vs full scan,
/// with per-query exact-distance-call accounting.
pub fn index_ablation(cfg: &ExpConfig) -> String {
    use ned_core::{signatures, NodeSignature};
    use ned_metric_index::{
        filter_refine_knn, linear_knn, BkTree, CountingMetric, FnBoundedMetric, FnMetric,
        IntFnMetric, VpTree,
    };
    let g = Dataset::Pgp.generate(cfg.scale.max(0.05), cfg.seed);
    let k = Dataset::Pgp.recommended_k();
    let mut rng = cfg.rng(0xAB4);
    let db_nodes = sample_nodes(g.num_nodes(), (g.num_nodes() / 2).min(3000), &mut rng);
    let query_nodes = sample_nodes(g.num_nodes(), cfg.pairs.min(40), &mut rng);
    let db = signatures(&g, &db_nodes, k);
    let queries = signatures(&g, &query_nodes, k);

    let metric = FnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64);
    let counting = CountingMetric::new(&metric);
    let int_metric = IntFnMetric(|a: &NodeSignature, b: &NodeSignature| a.distance(b));
    let bounded = FnBoundedMetric(
        |a: &NodeSignature, b: &NodeSignature| a.distance(b) as f64,
        |a: &NodeSignature, b: &NodeSignature| a.distance_lower_bound(b) as f64,
    );

    let vp = VpTree::build(db.clone(), &metric, &mut rng);
    let bk = BkTree::build(db.clone(), &int_metric);

    let mut t = Table::new(&["strategy", "avg time/query", "exact dist calls/query"]);
    let nq = queries.len().max(1) as u32;

    let mut total = Duration::ZERO;
    counting.reset();
    for q in &queries {
        let (_, dt) = time(|| vp.knn(&counting, q, 5));
        total += dt;
    }
    t.row(vec![
        "VP-tree".into(),
        fmt_duration(total / nq),
        (counting.calls() / nq as u64).to_string(),
    ]);

    let mut total = Duration::ZERO;
    let mut bk_calls = 0u64;
    for q in &queries {
        // count calls through a manual wrapper (IntMetric is separate)
        let calls = std::cell::Cell::new(0u64);
        let counted = IntFnMetric(|a: &NodeSignature, b: &NodeSignature| {
            calls.set(calls.get() + 1);
            a.distance(b)
        });
        let (_, dt) = time(|| bk.knn(&counted, q, 5));
        total += dt;
        bk_calls += calls.get();
    }
    t.row(vec![
        "BK-tree".into(),
        fmt_duration(total / nq),
        (bk_calls / nq as u64).to_string(),
    ]);

    let mut total = Duration::ZERO;
    let mut refined = 0usize;
    for q in &queries {
        let (r, dt) = time(|| filter_refine_knn(&db, &bounded, q, 5));
        total += dt;
        refined += r.refined;
    }
    t.row(vec![
        "filter+refine scan".into(),
        fmt_duration(total / nq),
        (refined / queries.len().max(1)).to_string(),
    ]);

    let mut total = Duration::ZERO;
    for q in &queries {
        let (_, dt) = time(|| linear_knn(&db, &metric, q, 5));
        total += dt;
    }
    t.row(vec![
        "full scan".into(),
        fmt_duration(total / nq),
        db.len().to_string(),
    ]);

    // All four are exact: spot-check agreement on the first query.
    if let Some(q) = queries.first() {
        let a = vp.knn(&metric, q, 5);
        let b = bk.knn(&int_metric, q, 5);
        let c = filter_refine_knn(&db, &bounded, q, 5).hits;
        let d = linear_knn(&db, &metric, q, 5);
        for (x, y) in a.iter().zip(&d) {
            assert_eq!(x.distance, y.distance, "VP-tree diverged from scan");
        }
        for (x, y) in b.iter().zip(&d) {
            assert_eq!(x.distance as u64, y.distance as u64, "BK-tree diverged");
        }
        for (x, y) in c.iter().zip(&d) {
            assert_eq!(x.distance, y.distance, "filter+refine diverged");
        }
    }

    format!(
        "Ablation: exact 5-NN strategies over {} PGP signatures ({} queries):\n{}",
        db.len(),
        queries.len(),
        t.render()
    )
}

/// Ablation 1 & 2: matcher variants on AMZN trees (wide levels), run on
/// the frozen configurable engine ([`crate::frozen`]).
pub fn matching_ablation(cfg: &ExpConfig) -> String {
    let g = Dataset::Amazon.generate(cfg.scale, cfg.seed);
    let mut rng = cfg.rng(0xAB1);
    let pairs = cfg.pairs.min(100);
    let us = sample_nodes(g.num_nodes(), pairs, &mut rng);
    let vs = sample_nodes(g.num_nodes(), pairs, &mut rng);
    let mut ex = TreeExtractor::new(&g);
    let trees: Vec<(Tree, Tree)> = us
        .iter()
        .zip(&vs)
        .map(|(&u, &v)| (ex.extract(u, 3), ex.extract(v, 3)))
        .collect();

    let configs = [
        ("hungarian+zero-pair", TedStarConfig::standard()),
        (
            "hungarian plain",
            TedStarConfig {
                matcher: Matcher::Hungarian,
                skip_zero_pairs: false,
                ..TedStarConfig::standard()
            },
        ),
        (
            "greedy+zero-pair",
            TedStarConfig {
                matcher: Matcher::Greedy,
                skip_zero_pairs: true,
                ..TedStarConfig::standard()
            },
        ),
    ];
    let baseline: Vec<u64> = trees
        .iter()
        .map(|(a, b)| ted_star_with(a, b, &configs[0].1))
        .collect();

    let mut t = Table::new(&["matcher", "avg time/pair", "avg |Δ| vs standard"]);
    for (name, config) in &configs {
        let mut total = Duration::ZERO;
        let mut drift = Vec::new();
        for ((a, b), &base) in trees.iter().zip(&baseline) {
            let (d, dt) = time(|| ted_star_with(a, b, config));
            total += dt;
            drift.push(d.abs_diff(base) as f64);
        }
        t.row(vec![
            name.to_string(),
            fmt_duration(total / trees.len().max(1) as u32),
            format!("{:.3}", mean(&drift)),
        ]);
    }
    format!(
        "Ablation: matcher variants inside TED* (AMZN 3-adjacent trees, {} pairs):\n{}",
        trees.len(),
        t.render()
    )
}

/// Ablation 3 & 4: the weighted upper bound and the GED bound.
pub fn bounds_ablation(cfg: &ExpConfig) -> String {
    let g1 = Dataset::CaRoad.generate(cfg.scale, cfg.seed);
    let g2 = Dataset::PaRoad.generate(cfg.scale, cfg.seed);
    let mut rng = cfg.rng(0xAB2);
    let pairs = cfg.pairs.min(200);
    let us = sample_nodes(g1.num_nodes(), pairs, &mut rng);
    let vs = sample_nodes(g2.num_nodes(), pairs, &mut rng);
    let mut ex1 = TreeExtractor::new(&g1);
    let mut ex2 = TreeExtractor::new(&g2);

    let mut wplus_ratio = Vec::new(); // W+ / TED
    let mut ged_ratio = Vec::new(); // GED / TED*
    let mut ged_checked = 0usize;
    let mut ged_violations = 0usize;
    for (&u, &v) in us.iter().zip(&vs) {
        let t1 = ex1.extract(u, 3);
        let t2 = ex2.extract(v, 3);
        if t1.len() <= 12 && t2.len() <= 12 {
            if let Some(ted) = exact_ted(&t1, &t2) {
                if ted > 0 {
                    wplus_ratio.push(ted_upper_bound(&t1, &t2) / ted as f64);
                }
            }
            // GED between the trees *as graphs* (Equation 18 is stated on
            // trees): build SmallGraphs from the tree edges.
            let ts = ted_star(&t1, &t2);
            let sg1 = tree_as_small_graph(&t1);
            let sg2 = tree_as_small_graph(&t2);
            if let Some(ged) = exact_ged_rooted(&sg1, &sg2) {
                ged_checked += 1;
                if ged > 2 * ts {
                    ged_violations += 1;
                }
                if ts > 0 {
                    ged_ratio.push(ged as f64 / ts as f64);
                }
            }
        }
    }

    let mut t = Table::new(&["bound", "pairs", "avg ratio", "violations"]);
    t.row(vec![
        "TED <= W+ (Lemma 7): W+/TED".to_string(),
        wplus_ratio.len().to_string(),
        format!("{:.3}", mean(&wplus_ratio)),
        "n/a".to_string(),
    ]);
    t.row(vec![
        "GED <= 2*TED* (Eq 18): GED/TED*".to_string(),
        ged_checked.to_string(),
        format!("{:.3}", mean(&ged_ratio)),
        ged_violations.to_string(),
    ]);
    format!(
        "Ablation: theoretical bounds on road trees:\n{}",
        t.render()
    )
}

fn tree_as_small_graph(t: &Tree) -> SmallGraph {
    let edges: Vec<(u32, u32)> = t
        .nodes()
        .skip(1)
        .map(|v| (t.parent(v).expect("non-root"), v))
        .collect();
    SmallGraph::from_edges(t.len(), &edges)
}

/// Ablation 5: Algorithm 1 vs the exhaustive Definition-3 reference.
pub fn reference_ablation(cfg: &ExpConfig) -> String {
    use ned_tree::generate::random_bounded_depth_tree;
    let mut rng = cfg.rng(0xAB3);
    let trials = cfg.pairs.min(150);
    let mut exact_matches = 0usize;
    let mut checked = 0usize;
    let mut gaps = Vec::new();
    for _ in 0..trials {
        let a = random_bounded_depth_tree(6, 3, &mut rng);
        let b = random_bounded_depth_tree(6, 3, &mut rng);
        let Some(reference) = exhaustive_ted_star(&a, &b, 7) else {
            continue;
        };
        let algo = ted_star(&a, &b);
        checked += 1;
        if algo == reference {
            exact_matches += 1;
        }
        gaps.push(algo.saturating_sub(reference) as f64);
    }
    let mut t = Table::new(&["checked", "exact", "avg gap (ops)"]);
    t.row(vec![
        checked.to_string(),
        format!(
            "{} ({:.1}%)",
            exact_matches,
            100.0 * exact_matches as f64 / checked.max(1) as f64
        ),
        format!("{:.3}", mean(&gaps)),
    ]);
    format!(
        "Ablation: Algorithm 1 vs exhaustive Definition-3 reference (6-node trees):\n{}",
        t.render()
    )
}
