//! Machine-readable performance snapshot: writes ns/op for the
//! pipeline's hot paths to the JSON file named on the command line
//! (default `BENCH_ci.json`, the file `perf_gate` reads by default) — the
//! production TED\*/NED kernel against the frozen dense Hungarian
//! baseline, a memo-cold/memo-warm pair for the cross-pair distance
//! memo, the PR 4 concurrent serving
//! layer's reader-fleet throughput (1 vs 4 reader threads over one
//! published snapshot, with p50/p99 latency percentiles as their own
//! `perf_gate` series), and (since PR 5) whole-graph **ingest** —
//! shared-frontier bulk extraction vs the independent per-node baseline,
//! gated at ≥ 3× — plus **delta churn**: ns per maintained edge flip on
//! a live index (dirty-set recompute only, one publication per flip),
//! measured both in-memory and (since PR 6) with every batch journaled
//! through the write-ahead log (`FsyncPolicy::EveryN(16)`), where group
//! commit is gated at ≤ 30% over the same journal written without any
//! fsync (see the WAL section for why the budget is stated that way).
//! Since PR 7 the snapshot also prices the **distributed serving layer**:
//! the same knn workload scatter-gathered by a [`ned_index::ShardRouter`] over a
//! 3-shard loopback-TCP fleet vs one TCP server holding the unsplit
//! index, bit-identical answers asserted before timing and the
//! coordination overhead gated against the single-server wire path.
//! Since PR 8 the pair path is the **SoA kernel**: `ted_star` routes
//! through the flat `PreparedTree` layout and the thread-local bounded
//! sweep, gated in-run at ≥ 2x over the frozen pre-SoA engine
//! (`ned_bench::frozen` with `frozen_baseline`: the directional sweep
//! with the preparation and transportation solver it had before the SoA
//! rebuild; `ned_pair/width192/collapsed` times the production
//! `ted_star`, `ned_pair/width192/dense-legacy` the frozen engine's dense
//! per-slot Hungarian), with a per-phase `kernel_phase/*` time split recorded
//! from the instrumented sweep. Since PR 9 the candidate-generation tier
//! is priced too: `sketch/ba4000-knn` runs a BA-4000 knn workload
//! through the flat sketch bank (linear lower-bound scan + shared-radius
//! exact refine), and `sketch_knn_speedup_vs_budgeted_scan` gates the
//! bank, memo-cold and on one thread, against the same rows refined by
//! the budgeted kernel with no sketch (both asserted bit-identical to
//! `SignatureIndex::scan` first). The sketch bank clones
//! **copy-on-write** (chunk-shared `Arc` rows), clawing back the per-
//! publication bank copy the PR 9 trajectory recorded on
//! `delta/ba4000-edge-churn`. `sketch/ba4000-scan` prices the bank's
//! scan layer alone: the bound pass and the `(bound, id)` order, walked
//! as far as each probe's knn refine loop goes, without the refine;
//! `sketch/ba4000-scan-dense` times the bound pass alone over the same
//! rows with random non-zero lanes, so every chunk scores all of its
//! lanes.
//! `sketch/ba4000-knn-cold` runs `sketch/ba4000-knn` with the memo
//! cleared before every timed pass, pricing the rejections the kernel
//! makes before it consults the memo. `concurrent/publish-ba4000` and
//! `concurrent/publish-ba40000` time one edge flip's write batch, its
//! signatures extracted beforehand, from `IndexWriter::apply` through
//! publication and the reclaim of the superseded snapshot, at two index
//! sizes. A publication that copied the index would make the second
//! about ten times the first; one that copies only what a batch touched
//! keeps them within a small factor (the two graphs' flip batches also
//! differ in size). `durable/ba4000-checkpoint` times one durable
//! `save_at_epoch` of the BA-4000 index, the checkpoint a durable server
//! takes every 64 journaled batches, and `durable/ba4000-load` one
//! `from_bytes` of the bytes it wrote. `maintain/ba4000-attach` times
//! attaching a `GraphMaintainer` to the BA-4000 graph plus
//! `verify_against` its index, what a server tracking its graph does at
//! boot.
//!
//! Five in-run floors compare two paths timed here:
//! `soa_kernel_speedup_vs_presoa`, `sketch_knn_speedup_vs_budgeted_scan`,
//! `ingest_bulk_speedup_vs_per_node`, `fleet_overhead_vs_single` and
//! `loadgen_reader_scaling_4r_vs_1r` (1 against 4 reader threads). Each
//! times its two sides in alternating rounds and gates on the median of
//! the per-round ratios (`measure_pair`, or the reader rounds' own loop),
//! so host drift between rounds cannot decide it.
//!
//! Run with `cargo run --release -p ned-bench --bin perf_snapshot
//! [output.json]`. Name a `BENCH_<n>.json` only to record a new point of
//! the committed trajectory. Every workload is seeded, so successive runs
//! measure identical work.

use ned_bench::frozen::{ted_star_with, Matcher, TedStarConfig};
use ned_bench::loadgen::{knn_read_workload, scaling_floor, LatencySummary};
use ned_core::{ned_with_extractors, ted_star, KernelProfile, PreparedTree, TedMemo};
use ned_graph::bfs::TreeExtractor;
use ned_graph::generators;
use ned_index::sketch::order_by_bound;
use ned_index::{ConcurrentNedIndex, SignatureIndex};
use ned_matching::{collapsed_hungarian, hungarian, CostMatrix};
use ned_metric_index::{FnMetric, VpTree};
use ned_tree::Tree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// ns/op of one timed batch of `iters` calls.
fn time_batch(iters: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN time"));
    xs[xs.len() / 2]
}

/// Median ns/op over `samples` timed batches of `iters` iterations.
fn measure<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> f64 {
    // warm-up
    f();
    median((0..samples).map(|_| time_batch(iters, &mut f)).collect())
}

/// Interleaved A/B timing for an in-run ratio gate: `rounds` rounds,
/// each timing one batch of `a` and then one of `b`. Returns each
/// side's median ns/op and the median of the per-round `a / b` ratios.
/// Host drift between rounds hits both halves of a round alike, so the
/// ratio median cancels it where two medians taken at different times
/// would not.
fn measure_pair(
    rounds: usize,
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, f64) {
    // warm-up
    a();
    b();
    let timed: Vec<(f64, f64)> = (0..rounds)
        .map(|_| (time_batch(iters, &mut a), time_batch(iters, &mut b)))
        .collect();
    (
        median(timed.iter().map(|t| t.0).collect()),
        median(timed.iter().map(|t| t.1).collect()),
        median(timed.iter().map(|t| t.0 / t.1).collect()),
    )
}

/// In-run floor on `sketch_knn_speedup_vs_budgeted_scan`: memo-cold
/// sketch-filtered knn against [`budgeted_scan`] over the same rows.
const SKETCH_FLOOR: f64 = 2.5;

/// The sketch tier's comparator: the index's rows in row order, each
/// refined by the budgeted kernel under the current `k`-th best distance,
/// with no sketch bound to order or skip them. Equal to
/// `SignatureIndex::scan(q, k)`: the budget is inclusive, so ties at the
/// `k`-th distance are kept and the final `(distance, id)` order decides.
fn budgeted_scan(
    index: &SignatureIndex,
    q: &ned_core::NodeSignature,
    k: usize,
) -> Vec<ned_core::WireHit> {
    let mut best: Vec<(u64, u64)> = Vec::with_capacity(k + 1);
    for (id, sig) in index.entries() {
        let tau = if best.len() < k {
            u64::MAX
        } else {
            best[k - 1].0
        };
        if let Some(d) = q.distance_within(sig, tau) {
            best.push((d, id));
            best.sort_unstable();
            best.truncate(k);
        }
    }
    best.into_iter()
        .map(|(d, id)| ned_core::WireHit {
            id,
            distance: d as f64,
        })
        .collect()
}

/// Per-metric median over repeated fleet runs — the drift discipline
/// [`measure`] applies to scalar entries, extended to latency summaries.
/// A single run's p99 is one noisy tail sample (the ~2nd-largest of ~120
/// ops); gating that at 30% would make CI flaky, so each recorded metric
/// is the median over independent runs instead.
fn median_summary(mut all: Vec<LatencySummary>) -> LatencySummary {
    let mid = all.len() / 2;
    let median_by = |all: &mut [LatencySummary], f: fn(&LatencySummary) -> f64| -> f64 {
        all.sort_by(|a, b| f(a).partial_cmp(&f(b)).expect("NaN metric"));
        f(&all[mid])
    };
    LatencySummary {
        ns_per_op: median_by(&mut all, |s| s.ns_per_op),
        p50_ns: median_by(&mut all, |s| s.p50_ns),
        p99_ns: median_by(&mut all, |s| s.p99_ns),
        wall_ns: all[mid].wall_ns,
        ops: all[mid].ops,
    }
}

/// A tree with the level widths given, children spread over the previous
/// level by `spread` (1.0 = round-robin over every parent, 0.33 = clumped
/// onto the first third). Wide levels whose slots repeat a handful of
/// children signatures — but with *different* degree distributions per
/// side, so nothing zero-pairs and the matcher sees the full width. This
/// is the regime the collapsed engine targets: the expensive far-apart
/// pairs that dominate the tail of batch workloads.
fn wide_tree(widths: &[usize], spread: f64, jitter: u64) -> Tree {
    let mut rng = SmallRng::seed_from_u64(jitter);
    let mut parents = vec![0u32];
    let mut prev_start = 0usize;
    let mut prev_len = 1usize;
    for &w in &widths[1..] {
        let start = parents.len();
        let targets = ((prev_len as f64 * spread).ceil() as usize).clamp(1, prev_len);
        for i in 0..w {
            // mostly regular assignment with a sprinkle of randomness so
            // several distinct degree classes appear per level
            let slot = if rng.gen_bool(0.9) {
                i % targets
            } else {
                rng.gen_range(0..targets)
            };
            parents.push((prev_start + slot) as u32);
        }
        prev_start = start;
        prev_len = w;
    }
    Tree::from_parents(&parents).expect("valid wide tree")
}

fn random_matrix(n: usize, duplicate_rows: bool, rng: &mut SmallRng) -> CostMatrix {
    let mut m = CostMatrix::zeros(n);
    for r in 0..n {
        for c in 0..n {
            m.set(r, c, rng.gen_range(0..40));
        }
    }
    if duplicate_rows {
        // Collapse the content down to ~8 distinct rows and columns.
        for r in 0..n {
            let src = r % 8;
            for c in 0..n {
                let v = m.get(src, c);
                m.set(r, c, v);
            }
        }
        for c in 0..n {
            let src = c % 8;
            for r in 0..n {
                let v = m.get(r, src);
                m.set(r, c, v);
            }
        }
    }
    m
}

struct Entry {
    name: &'static str,
    ns_per_op: f64,
    /// Optional latency percentiles (serving-layer entries only);
    /// `perf_gate` tracks each as its own `name@p50` / `name@p99` series.
    p50_ns: Option<f64>,
    p99_ns: Option<f64>,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_ci.json".to_string());
    let mut entries: Vec<Entry> = Vec::new();

    // --- ned_pair: wide-level synthetic trees, kernel vs dense ----------
    let mut rng = SmallRng::seed_from_u64(0xBE7C);
    let widths = [1usize, 8, 64, 128, 192];
    let pairs: Vec<(Tree, Tree)> = (0..4u64)
        .map(|i| {
            (
                wide_tree(&widths, 1.0, i),
                wide_tree(&widths, 0.33, 100 + i),
            )
        })
        .collect();
    // sanity: the production kernel equals the frozen Algorithm 1 before
    // timing anything
    for (a, b) in &pairs {
        assert_eq!(
            ted_star(a, b),
            ted_star_with(a, b, &TedStarConfig::standard()),
            "kernel and frozen Algorithm 1 disagree"
        );
    }
    // The timing baseline is the *original* uncollapsed path (dense
    // Hungarian, bijection straight from the assignment) — it pays no
    // transportation overhead, so the comparison is engine-vs-engine.
    let legacy = TedStarConfig {
        matcher: Matcher::LegacyHungarian,
        ..TedStarConfig::standard()
    };
    let collapsed_ns = measure(7, 3, || {
        for (a, b) in &pairs {
            std::hint::black_box(ted_star(a, b));
        }
    }) / pairs.len() as f64;
    entries.push(Entry {
        name: "ned_pair/width192/collapsed",
        ns_per_op: collapsed_ns,
        p50_ns: None,
        p99_ns: None,
    });
    let dense_ns = measure(3, 1, || {
        for (a, b) in &pairs {
            std::hint::black_box(ted_star_with(a, b, &legacy));
        }
    }) / pairs.len() as f64;
    entries.push(Entry {
        name: "ned_pair/width192/dense-legacy",
        ns_per_op: dense_ns,
        p50_ns: None,
        p99_ns: None,
    });
    let ned_pair_speedup = dense_ns / collapsed_ns;

    // --- ned_pair on real generator graphs (end-to-end NED), against the
    // frozen pre-SoA comparator ------------------------------------------
    let g1 = generators::barabasi_albert(4000, 3, &mut rng);
    let g2 = generators::barabasi_albert(4000, 3, &mut rng);
    let mut e1 = TreeExtractor::new(&g1);
    let mut e2 = TreeExtractor::new(&g2);
    // `ned_with_extractors` now rides the SoA kernel: flat CSR class
    // arrays on PreparedTree, rank-based canonicalization, the
    // thread-local scratch sweep, the specialized small-level transport
    // solves, and the heap-driven early-stopping SSP Dijkstra. The
    // comparator runs the *identical* workload (same nodes, extraction
    // included) through the path it replaced: `frozen_baseline` pins
    // preparation to the byte-materializing reference canonicalization
    // and the matching to the pre-rebuild transportation solver — so the
    // ratio is measured in-run on this hardware against a baseline that
    // does not inherit this PR's speedups. The two sides are timed in
    // alternating rounds and gated on the median per-round ratio.
    let presoa_config = TedStarConfig {
        frozen_baseline: true,
        ..TedStarConfig::standard()
    };
    let ned_trees: Vec<(Tree, Tree)> = (0..8u32)
        .map(|i| (e1.extract(i * 97 % 4000, 4), e2.extract(i * 131 % 4000, 4)))
        .collect();
    // bit-identity before timing: the rebuilt kernel is exact first
    for (a, b) in &ned_trees {
        assert_eq!(
            ted_star(a, b),
            ted_star_with(a, b, &presoa_config),
            "SoA kernel diverged from the frozen pre-SoA engine"
        );
    }
    // Each side extracts through its own extractors, so the two closures
    // can alternate.
    let (mut f1, mut f2) = (TreeExtractor::new(&g1), TreeExtractor::new(&g2));
    let (presoa_ns, ned_ns, soa_speedup) = measure_pair(
        7,
        1,
        || {
            for i in 0..8u32 {
                let a = f1.extract(i * 97 % 4000, 4);
                let b = f2.extract(i * 131 % 4000, 4);
                std::hint::black_box(ted_star_with(&a, &b, &presoa_config));
            }
        },
        || {
            for i in 0..8u32 {
                std::hint::black_box(ned_with_extractors(
                    &mut e1,
                    i * 97 % 4000,
                    &mut e2,
                    i * 131 % 4000,
                    4,
                ));
            }
        },
    );
    let (presoa_ns, ned_ns) = (presoa_ns / 8.0, ned_ns / 8.0);
    entries.push(Entry {
        name: "ned_pair/ba4000-k4",
        ns_per_op: ned_ns,
        p50_ns: None,
        p99_ns: None,
    });
    entries.push(Entry {
        name: "ned_pair/ba4000-k4-presoa",
        ns_per_op: presoa_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // --- kernel_phase: per-phase time split of the SoA sweep ------------
    // The instrumented sweep on the same BA-4000 pairs, per-op ns for
    // each phase of Algorithm 1 — where the next point of attack is.
    // Medians over samples, like every scalar entry.
    let prepared_pairs: Vec<(PreparedTree, PreparedTree)> = ned_trees
        .iter()
        .map(|(a, b)| (PreparedTree::new(a), PreparedTree::new(b)))
        .collect();
    let profile_samples: Vec<KernelProfile> = (0..7)
        .map(|_| {
            let mut acc = KernelProfile::default();
            for (pa, pb) in &prepared_pairs {
                let (d, p) = ned_core::ted_star_prepared_profiled(pa, pb);
                std::hint::black_box(d);
                acc.bound_ns += p.bound_ns;
                acc.collect_ns += p.collect_ns;
                acc.canonize_ns += p.canonize_ns;
                acc.group_ns += p.group_ns;
                acc.transport_ns += p.transport_ns;
                acc.expand_ns += p.expand_ns;
            }
            acc
        })
        .collect();
    type PhaseGetter = fn(&KernelProfile) -> u64;
    let phase_median = |f: PhaseGetter| -> f64 {
        let mut xs: Vec<u64> = profile_samples.iter().map(f).collect();
        xs.sort_unstable();
        xs[xs.len() / 2] as f64 / prepared_pairs.len() as f64
    };
    let phases: [(&'static str, PhaseGetter); 6] = [
        ("kernel_phase/ba4000-k4-bound", |p| p.bound_ns),
        ("kernel_phase/ba4000-k4-collect", |p| p.collect_ns),
        ("kernel_phase/ba4000-k4-canonize", |p| p.canonize_ns),
        ("kernel_phase/ba4000-k4-group", |p| p.group_ns),
        ("kernel_phase/ba4000-k4-transport", |p| p.transport_ns),
        ("kernel_phase/ba4000-k4-expand", |p| p.expand_ns),
    ];
    for (name, f) in phases {
        entries.push(Entry {
            name,
            ns_per_op: phase_median(f),
            p50_ns: None,
            p99_ns: None,
        });
    }

    // --- hungarian: dense kernel and collapsed on duplicate-heavy input -
    let m_rand = random_matrix(128, false, &mut rng);
    entries.push(Entry {
        name: "hungarian/128-random",
        ns_per_op: measure(7, 2, || {
            std::hint::black_box(hungarian(&m_rand));
        }),
        p50_ns: None,
        p99_ns: None,
    });
    let m_dup = random_matrix(128, true, &mut rng);
    entries.push(Entry {
        name: "hungarian/128-duplicated-dense",
        ns_per_op: measure(7, 2, || {
            std::hint::black_box(hungarian(&m_dup));
        }),
        p50_ns: None,
        p99_ns: None,
    });
    entries.push(Entry {
        name: "hungarian/128-duplicated-collapsed",
        ns_per_op: measure(7, 8, || {
            std::hint::black_box(collapsed_hungarian(&m_dup));
        }),
        p50_ns: None,
        p99_ns: None,
    });

    // --- vptree: exact k-NN over NED signatures ------------------------
    let g = generators::road_network(40, 40, 0.4, 0.02, &mut rng);
    let nodes: Vec<u32> = (0..400u32).map(|i| i * 4 % 1600).collect();
    let sigs = ned_core::signatures(&g, &nodes, 4);
    let metric =
        FnMetric(|a: &ned_core::NodeSignature, b: &ned_core::NodeSignature| a.distance(b) as f64);
    let tree = VpTree::build(sigs.clone(), &metric, &mut rng);
    let queries: Vec<&ned_core::NodeSignature> = sigs.iter().take(16).collect();
    let knn_ns = measure(7, 2, || {
        for q in &queries {
            std::hint::black_box(tree.knn(&metric, q, 5));
        }
    }) / queries.len() as f64;
    entries.push(Entry {
        name: "vptree/knn5-road1600",
        ns_per_op: knn_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // --- sketch: flat-bank filter tier in front of the exact kernel ------
    // The serving knn: 4000 interned BA signatures behind a
    // SignatureIndex, queried from a *different* BA graph. knn runs
    // through the SoA sketch bank — a linear autovectorized lower-bound
    // scan ordered by (bound, id), refined by the budgeted kernel under
    // the shared pruning radius.
    let gdb = generators::barabasi_albert(4000, 3, &mut rng);
    let gq = generators::barabasi_albert(4000, 3, &mut rng);
    let db_nodes: Vec<u32> = gdb.nodes().collect();
    let db_sigs = ned_core::signatures(&gdb, &db_nodes, 3);
    let probe_nodes: Vec<u32> = (0..6u32).map(|i| i * 577 % 4000).collect();
    let probes = ned_core::signatures(&gq, &probe_nodes, 3);
    let sketch_index = SignatureIndex::from_signatures(3, 1024, 0xF0, db_sigs.clone());

    // The sketch tier against the same rows refined with no sketch: the
    // bank's knn and `budgeted_scan`, both one thread, both bit-identical
    // to the full scan (asserted first), timed in alternating rounds with
    // the memo cleared before every pass. Cold because that is where the
    // sketch pays: with a warm memo nearly every refine is a memo hit and
    // the two sides sit within ~1.4x of each other.
    for q in &probes {
        let reference = sketch_index.scan(q, 5);
        assert_eq!(
            sketch_index.query(q, 5, 1),
            reference,
            "sketch-filtered kNN diverged from the full scan"
        );
        assert_eq!(
            budgeted_scan(&sketch_index, q, 5),
            reference,
            "budgeted linear kNN diverged from the full scan"
        );
    }
    let (budgeted_ns, sketch_pair_ns, sketch_speedup) = measure_pair(
        7,
        2,
        || {
            TedMemo::global().clear();
            for q in &probes {
                std::hint::black_box(budgeted_scan(&sketch_index, q, 5));
            }
        },
        || {
            TedMemo::global().clear();
            for q in &probes {
                std::hint::black_box(sketch_index.query(q, 5, 1));
            }
        },
    );
    let (budgeted_ns, sketch_pair_ns) = (
        budgeted_ns / probes.len() as f64,
        sketch_pair_ns / probes.len() as f64,
    );

    // The same knn with the memo warm from the warm-up pass, and the
    // fan-out left to the bank (`threads = 0`).
    TedMemo::global().clear();
    let sketch_ns = measure(7, 2, || {
        for q in &probes {
            std::hint::black_box(sketch_index.query(q, 5, 0));
        }
    }) / probes.len() as f64;
    entries.push(Entry {
        name: "sketch/ba4000-knn",
        ns_per_op: sketch_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // The same knn memo-cold: the memo is cleared at the start of every
    // timed pass, as `ted_within/ba4000-memo-cold` does. After its
    // warm-up `sketch/ba4000-knn` is served from the memo, so this is
    // the series that prices the kernel's rejections ahead of the memo.
    let sketch_cold_ns = measure(7, 2, || {
        TedMemo::global().clear();
        for q in &probes {
            std::hint::black_box(sketch_index.query(q, 5, 0));
        }
    }) / probes.len() as f64;
    entries.push(Entry {
        name: "sketch/ba4000-knn-cold",
        ns_per_op: sketch_cold_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // The scan layer of that knn on its own: the bound pass plus the
    // (bound, id) order, walked as far as each probe's refine loop goes
    // (the rows it refined plus the one whose bound ended it), with no
    // refine. One thread, the TCP server's per-query fan-out.
    let bank = sketch_index.sketch_bank();
    let visited: Vec<usize> = probes
        .iter()
        .map(|q| {
            let before = bank.stats();
            bank.knn(q, 5, 1);
            let after = bank.stats();
            (after.refined - before.refined + u64::from(after.pruned > before.pruned)) as usize
        })
        .collect();
    let scan_ns = measure(7, 4, || {
        for (q, &rows) in probes.iter().zip(&visited) {
            let bounds = bank.scan_bounds(q, 1);
            std::hint::black_box(
                order_by_bound(&bounds, |r| bank.id_at(r))
                    .take(rows)
                    .count(),
            );
        }
    }) / probes.len() as f64;
    entries.push(Entry {
        name: "sketch/ba4000-scan",
        ns_per_op: scan_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // The bound pass over rows with every lane live: the bank's rows with
    // random non-zero lanes in place of their sketches, so every chunk
    // scores all 72 lanes (k = 3 sketches use about 14 per chunk). The
    // pass alone: with random lanes nearly every bound lands in
    // `order_by_bound`'s overflow bucket, so an order walk would time a
    // sort. Own RNG stream, so the sections after this one measure the
    // same inputs as before it existed.
    let dense = {
        let mut lane_rng = SmallRng::seed_from_u64(0xDE45E);
        let rows: Vec<(u64, ned_core::NodeSignature)> =
            bank.entries().map(|(id, sig)| (id, sig.clone())).collect();
        let lanes: Vec<u16> = (0..rows.len() * ned_index::sketch::SKETCH_DIM)
            .map(|_| lane_rng.gen_range(1..=u16::MAX))
            .collect();
        ned_index::SketchBank::from_rows(&rows, lanes)
    };
    let scan_dense_ns = measure(7, 4, || {
        for q in &probes {
            std::hint::black_box(dense.scan_bounds(q, 1));
        }
    }) / probes.len() as f64;
    entries.push(Entry {
        name: "sketch/ba4000-scan-dense",
        ns_per_op: scan_dense_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // --- ted_within: cross-pair memo, cold vs warm ----------------------
    // One query signature against a candidate batch, budget high enough
    // that every pair runs (or serves) a full sweep. Cold clears the memo
    // inside the timed loop; warm reuses it — the delta is what the memo
    // buys on structurally repetitive (scale-free) candidate sets, where
    // repeat queries keep meeting the same class pairs.
    let memo_probe = &probes[0];
    let cand_nodes: Vec<u32> = (0..64u32).map(|i| i * 131 % 4000).collect();
    let cands = ned_core::signatures(&gdb, &cand_nodes, 3);
    let memo_budget = u64::MAX;
    let cold_ns = measure(5, 2, || {
        TedMemo::global().clear();
        for c in &cands {
            std::hint::black_box(memo_probe.distance_within(c, memo_budget));
        }
    }) / cands.len() as f64;
    entries.push(Entry {
        name: "ted_within/ba4000-memo-cold",
        ns_per_op: cold_ns,
        p50_ns: None,
        p99_ns: None,
    });
    TedMemo::global().clear();
    for c in &cands {
        std::hint::black_box(memo_probe.distance_within(c, memo_budget));
    }
    let warm_ns = measure(7, 8, || {
        for c in &cands {
            std::hint::black_box(memo_probe.distance_within(c, memo_budget));
        }
    }) / cands.len() as f64;
    entries.push(Entry {
        name: "ted_within/ba4000-memo-warm",
        ns_per_op: warm_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // --- ingest: bulk shared-frontier extraction vs per-node baseline ---
    // Whole-graph signature extraction on BA-4000 at k = 4 (~880-node
    // trees). The baseline is the pre-bulk ingest path: one independent
    // extract-and-canonicalize per node over a shared BFS scratch
    // (`ned_core::signatures`). The bulk pipeline interns bottom-up on
    // flat scratch and hash-conses canonical shapes — measured
    // single-threaded and with a **fresh factory per run** (cold caches),
    // so the figure is the algorithmic sharing, not parallelism or reuse.
    let ging = generators::barabasi_albert(4000, 3, &mut rng);
    let ingest_nodes: Vec<u32> = ging.nodes().collect();
    let ingest_k = 4usize;
    // exactness first: bulk output must be bit-identical to per-node
    assert_eq!(
        ned_core::bulk_signatures(&ging, &ingest_nodes, ingest_k, 1),
        ned_core::signatures(&ging, &ingest_nodes, ingest_k),
        "bulk ingest diverged from per-node extraction"
    );
    let (per_node_run_ns, bulk_run_ns, ingest_speedup) = measure_pair(
        5,
        1,
        || {
            std::hint::black_box(ned_core::signatures(&ging, &ingest_nodes, ingest_k));
        },
        || {
            std::hint::black_box(ned_core::bulk_signatures(&ging, &ingest_nodes, ingest_k, 1));
        },
    );
    let (per_node_ns, bulk_ns) = (
        per_node_run_ns / ingest_nodes.len() as f64,
        bulk_run_ns / ingest_nodes.len() as f64,
    );
    entries.push(Entry {
        name: "ingest/ba4000-per-node",
        ns_per_op: per_node_ns,
        p50_ns: None,
        p99_ns: None,
    });
    entries.push(Entry {
        name: "ingest/ba4000-bulk",
        ns_per_op: bulk_ns,
        p50_ns: None,
        p99_ns: None,
    });

    // --- delta: incremental maintenance under edge churn ----------------
    // A live index tracking BA-4000 at k = 3: each edge flip (add a
    // non-edge as one delta batch, remove it as another) recomputes only
    // the (k-1)-hop dirty set through a kept-alive factory and publishes
    // once per batch. Recorded as ns per maintained edge flip (two
    // batches). The full-rebuild alternative is `n` extractions *per
    // flip* — the ingest entries above price exactly that.
    let delta_graph = generators::barabasi_albert(4000, 3, &mut rng);
    let delta_index = SignatureIndex::from_graph(&delta_graph, 3, 1024, 0xDE, 1);

    // --- maintain: attaching a maintainer to a served graph -------------
    // What a server tracking its graph does at boot: one root-class pass
    // over every node, then the check that the loaded index serves that
    // graph.
    let attach_ns = measure(9, 1, || {
        let maintainer = ned_index::GraphMaintainer::attach(&delta_graph, 3, 0, 1);
        maintainer
            .verify_against(&delta_index)
            .expect("the index serves the attached graph");
    });
    entries.push(Entry {
        name: "maintain/ba4000-attach",
        ns_per_op: attach_ns,
        p50_ns: None,
        p99_ns: None,
    });

    let mut maintainer = ned_index::GraphMaintainer::attach(&delta_graph, 3, 0, 1);
    let (mut delta_writer, delta_reader) = ConcurrentNedIndex::split(delta_index);
    let flips = ned_bench::loadgen::non_edges(&delta_graph, 8, 0xF11B);
    // warm + sanity: every flip applies, publishes twice, and nets zero
    {
        let epoch0 = delta_reader.epoch();
        let (a, b) = flips[0];
        let add = maintainer.apply(&[ned_graph::GraphDelta::AddEdge(a, b)], &mut delta_writer);
        let del = maintainer.apply(
            &[ned_graph::GraphDelta::RemoveEdge(a, b)],
            &mut delta_writer,
        );
        assert_eq!((add.applied, del.applied), (1, 1));
        assert_eq!(add.replaced, del.replaced, "net-zero flip must undo itself");
        assert!(
            add.candidates < delta_graph.num_nodes(),
            "dirty set degenerated into a rebuild"
        );
        assert_eq!(
            delta_reader.epoch(),
            epoch0 + 2,
            "one publication per batch"
        );
    }
    let flips_per_round = flips.len() as f64;
    let edge_churn_ns = measure(15, 1, || {
        for &(a, b) in &flips {
            let add = maintainer.apply(&[ned_graph::GraphDelta::AddEdge(a, b)], &mut delta_writer);
            let del = maintainer.apply(
                &[ned_graph::GraphDelta::RemoveEdge(a, b)],
                &mut delta_writer,
            );
            std::hint::black_box((add, del));
        }
    }) / flips_per_round;
    entries.push(Entry {
        name: "delta/ba4000-edge-churn",
        ns_per_op: edge_churn_ns,
        p50_ns: None,
        p99_ns: None,
    });
    // --- delta churn with a write-ahead log attached --------------------
    // The identical flip workload, but every maintained batch is
    // journaled (and periodically fsynced) through the PR 6 WAL before
    // it publishes — the durable serving configuration. EveryN(16)
    // group-commits: flushes are scheduled on the WAL's background
    // syncer thread, so the append path pays encode + checksum + write
    // but never an inline fdatasync.
    //
    // The budget: group commit may cost at most 30% over the same
    // journal written with no fsync at all (FsyncPolicy::Never). The two
    // run on twin indexes in alternating timed passes, so host drift
    // lands on both sides and the gate stays hardware-free. The budget
    // is not stated against the in-memory churn: the journal's own
    // encode + FNV-1a checksum + write is fixed by the NEDWAL1 format,
    // so that ratio grows whenever the index gets faster, with no change
    // to the WAL. Nor in absolute µs: one fdatasync costs ~0.15 ms on
    // some disks, so a bound loose enough for group commit's run-to-run
    // spread also passes an inline fdatasync per batch. The ratio kept
    // here reads ~0.95-1.2 under group commit and about 2 or more once
    // every append syncs inline.
    let wal_dir = std::env::temp_dir().join(format!("ned-perf-wal-{}", std::process::id()));
    std::fs::create_dir_all(&wal_dir).expect("create WAL scratch dir");
    let mut journaled = [
        ("group.wal", ned_core::wal::FsyncPolicy::EveryN(16)),
        ("unsynced.wal", ned_core::wal::FsyncPolicy::Never),
    ]
    .map(|(file, policy)| {
        let index = SignatureIndex::from_graph(&delta_graph, 3, 1024, 0xDE, 1);
        let maintainer = ned_index::GraphMaintainer::attach(&delta_graph, 3, 0, 1);
        let (mut writer, _reader) = ConcurrentNedIndex::split(index);
        writer.attach_wal(
            ned_core::wal::WalWriter::create(&wal_dir.join(file), 0, policy)
                .expect("create bench WAL"),
        );
        (maintainer, writer, Vec::new())
    });
    // One warm-up pass each, then 15 timed passes each, alternating
    // which side goes first.
    for pass in 0..16 {
        for side in [pass % 2, 1 - pass % 2] {
            let (maintainer, writer, times) = &mut journaled[side];
            let start = Instant::now();
            for &(a, b) in &flips {
                let add = maintainer.apply(&[ned_graph::GraphDelta::AddEdge(a, b)], writer);
                let del = maintainer.apply(&[ned_graph::GraphDelta::RemoveEdge(a, b)], writer);
                std::hint::black_box((add, del));
            }
            if pass > 0 {
                times.push(start.elapsed().as_nanos() as f64 / flips_per_round);
            }
        }
    }
    let [wal_churn_ns, unsynced_churn_ns] = journaled.map(|(_, _, mut times)| {
        times.sort_by(|a, b| a.partial_cmp(b).expect("NaN time"));
        times[times.len() / 2]
    });
    let _ = std::fs::remove_dir_all(&wal_dir);
    entries.push(Entry {
        name: "delta/ba4000-edge-churn-wal",
        ns_per_op: wal_churn_ns,
        p50_ns: None,
        p99_ns: None,
    });
    entries.push(Entry {
        name: "delta/ba4000-edge-churn-wal-unsynced",
        ns_per_op: unsynced_churn_ns,
        p50_ns: None,
        p99_ns: None,
    });
    // --- durable: one checkpoint of the BA-4000 index -------------------
    // `save_at_epoch` of the churned BA-4000 index into a temp dir: the
    // streamed NEDIDX encode, the temp-file fsync, the rename and the
    // directory fsync — what every checkpoint of a durable server costs.
    let ckpt_dir = std::env::temp_dir().join(format!("ned-perf-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint scratch dir");
    let ckpt_path = ckpt_dir.join("index.idx");
    let ckpt_epoch = delta_writer.epoch();
    let checkpoint_ns = measure(9, 1, || {
        delta_writer
            .index()
            .save_at_epoch(ckpt_epoch, &ckpt_path)
            .expect("checkpoint save");
    });
    let ckpt_bytes = std::fs::read(&ckpt_path).expect("read checkpoint");
    assert_eq!(
        ckpt_bytes,
        delta_writer.index().to_bytes_at_epoch(ckpt_epoch),
        "a streamed checkpoint differs from the in-memory encoding"
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    entries.push(Entry {
        name: "durable/ba4000-checkpoint",
        ns_per_op: checkpoint_ns,
        p50_ns: None,
        p99_ns: None,
    });
    // --- durable: loading that checkpoint back --------------------------
    // `from_bytes` of the checkpoint's bytes: the decode a server boot or
    // a recovery pays before replaying its log.
    let saved = delta_writer.index();
    let loaded = SignatureIndex::from_bytes(&ckpt_bytes).expect("checkpoint decodes");
    assert_eq!(
        loaded.len(),
        saved.len(),
        "a loaded checkpoint lost entries"
    );
    assert_eq!(
        loaded.live_set_fingerprint(),
        saved.live_set_fingerprint(),
        "a loaded checkpoint differs from the index it saved"
    );
    let load_ns = measure(9, 1, || {
        std::hint::black_box(SignatureIndex::from_bytes(&ckpt_bytes).expect("checkpoint decodes"));
    });
    entries.push(Entry {
        name: "durable/ba4000-load",
        ns_per_op: load_ns,
        p50_ns: None,
        p99_ns: None,
    });
    let wal_overhead = wal_churn_ns / edge_churn_ns;
    let group_commit_overhead = wal_churn_ns / unsynced_churn_ns;

    // --- concurrent: one flip's batch through apply + publish + reclaim -
    // The write path below the maintainer: the add and remove batches of
    // 8 edge flips are materialized once, then replayed through
    // `IndexWriter::apply` — index upkeep, publication, and the drop of
    // the superseded snapshot. Recorded as ns per batch at two index
    // sizes, ten times apart. Own RNG streams, so the sections after this
    // one measure the same inputs as before it existed.
    let publish_ns = |n: usize| -> f64 {
        let g = generators::barabasi_albert(n, 3, &mut SmallRng::seed_from_u64(0x9B1 + n as u64));
        let index = SignatureIndex::from_graph(&g, 3, 1024, 0xDE, 0);
        let mut maintainer = ned_index::GraphMaintainer::attach(&g, 3, 0, 1);
        let (mut writer, _reader) = ConcurrentNedIndex::split(index);
        let batches: Vec<Vec<ned_index::WriteOp>> = ned_bench::loadgen::non_edges(&g, 8, 0xF11B)
            .into_iter()
            .flat_map(|(a, b)| {
                [
                    ned_graph::GraphDelta::AddEdge(a, b),
                    ned_graph::GraphDelta::RemoveEdge(a, b),
                ]
            })
            .map(|delta| maintainer.materialize(&[delta]).ops)
            .collect();
        measure(15, 1, || {
            for batch in &batches {
                std::hint::black_box(writer.apply(batch.iter().cloned()));
            }
        }) / batches.len() as f64
    };
    for (name, n) in [
        ("concurrent/publish-ba4000", 4000),
        ("concurrent/publish-ba40000", 40_000),
    ] {
        entries.push(Entry {
            name,
            ns_per_op: publish_ns(n),
            p50_ns: None,
            p99_ns: None,
        });
    }

    // What a flip would cost without incremental maintenance: one full
    // re-extraction of every signature at the same k.
    let delta_nodes: Vec<u32> = delta_graph.nodes().collect();
    let rebuild_ns = measure(3, 1, || {
        std::hint::black_box(ned_core::signatures(&delta_graph, &delta_nodes, 3));
    });
    let delta_speedup_vs_rebuild = rebuild_ns / edge_churn_ns;

    // --- loadgen: concurrent reader-fleet throughput, 1 vs 4 readers ----
    // The PR 4 serving layer: the same BA-4000 signature set behind a
    // ConcurrentNedIndex, queried by a fleet of reader threads (each with
    // intra-query fan-out 1 — concurrency comes from requests). The
    // figure recorded is aggregate ns per knn op (wall / total ops) plus
    // per-op p50/p99, and the gate is reader *scaling*: 4 readers must
    // beat 1 reader by the hardware-scaled floor (the full 2x wherever 4
    // cores exist — CI runners — and proportionally less on smaller
    // machines, where the check still pins "concurrency must not cost
    // throughput").
    let serving = SignatureIndex::from_signatures(3, 1024, 0xF0, db_sigs.clone());
    let (_writer, reader) = ConcurrentNedIndex::split(serving);
    // Warm-up: thread scratch arenas + the TED* memo, as in serving.
    knn_read_workload(&reader, &probes, 1, 8, 5);
    // 1-reader and 4-reader runs alternate round by round and the gate
    // reads the median per-round ratio, as `measure_pair` does: a
    // scheduler stall during one stretch of time hits one round, not a
    // whole side.
    let rounds: Vec<(LatencySummary, LatencySummary)> = (0..7)
        .map(|_| {
            (
                knn_read_workload(&reader, &probes, 1, 120, 5),
                knn_read_workload(&reader, &probes, 4, 30, 5),
            )
        })
        .collect();
    let reader_scaling = median(
        rounds
            .iter()
            .map(|(one, four)| one.ns_per_op / four.ns_per_op)
            .collect(),
    );
    let (single, fleet): (Vec<_>, Vec<_>) = rounds.into_iter().unzip();
    let (single, fleet) = (median_summary(single), median_summary(fleet));
    entries.push(Entry {
        name: "loadgen/ba4000-knn-r1",
        ns_per_op: single.ns_per_op,
        p50_ns: Some(single.p50_ns),
        p99_ns: Some(single.p99_ns),
    });
    entries.push(Entry {
        name: "loadgen/ba4000-knn-r4",
        ns_per_op: fleet.ns_per_op,
        p50_ns: Some(fleet.p50_ns),
        p99_ns: Some(fleet.p99_ns),
    });

    // --- fleet: scatter-gather router over a 3-shard TCP fleet -----------
    // The PR 7 distributed serving layer: the identical BA-4000 signature
    // set split into 3 id-range shards, each behind its own loopback TCP
    // server, queried through the ShardRouter (one frame written to every
    // shard from the calling thread, the replies read in turn, one
    // bounded merge). The baseline is the same knn through ONE TCP
    // server holding the unsplit index — same wire protocol, no scatter —
    // so the ratio prices exactly the coordination: per-shard framing,
    // the replica bookkeeping, and the merge.
    let fleet_index = SignatureIndex::from_signatures(3, 1024, 0xF0, db_sigs);
    let probe_shapes: Vec<String> = probes
        .iter()
        .map(|s| ned_tree::serialize::print(s.tree()))
        .collect();
    let spawn_tcp = |server: ned_index::NedServer| {
        let server = std::sync::Arc::new(server);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let thread = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || {
                let _ = server.serve_tcp(listener);
            })
        };
        (server, addr, thread)
    };
    let (single_srv, single_addr, single_thread) =
        spawn_tcp(ned_index::NedServer::new(fleet_index.clone(), 1, 1));
    let mut wire = ned_index::WireClient::connect(&single_addr).expect("dial single server");
    let (shard_map, shard_parts) = ned_index::split_index(&fleet_index, 3);
    let mut shard_srvs = Vec::new();
    let mut shard_groups = Vec::new();
    for part in shard_parts {
        let (srv, addr, thread) = spawn_tcp(ned_index::NedServer::new(part, 1, 1));
        shard_groups.push(vec![addr]);
        shard_srvs.push((srv, thread));
    }
    let router = ned_index::ShardRouter::connect(
        shard_map,
        shard_groups,
        ned_index::RouterOptions {
            k: 3,
            next_id: fleet_index.next_id(),
            ..Default::default()
        },
    )
    .expect("router connects to the shard fleet");
    // exactness first: the scatter-gather must be bit-identical to the
    // single server over the same wire before its latency means anything
    for shape in &probe_shapes {
        let scattered = router.knn(shape, 5, None).expect("fleet knn");
        let direct = match wire
            .request(&ned_core::Request::Sig {
                shape: shape.clone(),
                top: 5,
                within: None,
            })
            .expect("single-server knn")
        {
            ned_core::Response::Hits { hits, .. } => hits,
            other => panic!("single server answered {other:?}"),
        };
        assert_eq!(
            scattered
                .hits
                .iter()
                .map(|h| (h.id, h.distance.to_bits()))
                .collect::<Vec<_>>(),
            direct
                .iter()
                .map(|h| (h.id, h.distance.to_bits()))
                .collect::<Vec<_>>(),
            "scatter-gather diverged from the single server"
        );
    }
    // Router and single server alternate round by round, so host drift
    // cancels out of the gated ratio.
    let (fleet_knn_ns, wire_knn_ns, fleet_overhead) = measure_pair(
        7,
        2,
        || {
            for shape in &probe_shapes {
                std::hint::black_box(router.knn(shape, 5, None).expect("fleet knn"));
            }
        },
        || {
            for shape in &probe_shapes {
                std::hint::black_box(
                    wire.request(&ned_core::Request::Sig {
                        shape: shape.clone(),
                        top: 5,
                        within: None,
                    })
                    .expect("single-server knn"),
                );
            }
        },
    );
    let (fleet_knn_ns, wire_knn_ns) = (
        fleet_knn_ns / probe_shapes.len() as f64,
        wire_knn_ns / probe_shapes.len() as f64,
    );
    entries.push(Entry {
        name: "fleet/ba4000-knn-s3",
        ns_per_op: fleet_knn_ns,
        p50_ns: None,
        p99_ns: None,
    });
    entries.push(Entry {
        name: "fleet/ba4000-knn-wire1",
        ns_per_op: wire_knn_ns,
        p50_ns: None,
        p99_ns: None,
    });
    drop(wire);
    drop(router);
    single_srv.initiate_shutdown();
    let _ = single_thread.join();
    for (srv, thread) in shard_srvs {
        srv.initiate_shutdown();
        let _ = thread.join();
    }

    // --- report ---------------------------------------------------------
    let mut json = String::from("{\n  \"schema\": \"ned-bench/1\",\n  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let mut obj = format!(
            "{{\"name\": \"{}\", \"ns_per_op\": {:.1}",
            e.name, e.ns_per_op
        );
        if let Some(p50) = e.p50_ns {
            obj.push_str(&format!(", \"p50_ns\": {p50:.1}"));
        }
        if let Some(p99) = e.p99_ns {
            obj.push_str(&format!(", \"p99_ns\": {p99:.1}"));
        }
        obj.push('}');
        json.push_str(&format!(
            "    {obj}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"comparisons\": {{\n    \"ned_pair_collapsed_speedup_vs_dense\": {ned_pair_speedup:.2},\n    \"soa_kernel_speedup_vs_presoa\": {soa_speedup:.2},\n    \"sketch_knn_speedup_vs_budgeted_scan\": {sketch_speedup:.2},\n    \"memo_warm_speedup_vs_cold\": {:.2},\n    \"loadgen_reader_scaling_4r_vs_1r\": {reader_scaling:.2},\n    \"ingest_bulk_speedup_vs_per_node\": {ingest_speedup:.2},\n    \"delta_flip_speedup_vs_rebuild\": {delta_speedup_vs_rebuild:.2},\n    \"delta_wal_overhead_vs_in_memory\": {wal_overhead:.2},\n    \"delta_wal_group_commit_vs_unsynced\": {group_commit_overhead:.2},\n    \"fleet_overhead_vs_single\": {fleet_overhead:.2}\n  }}\n}}\n",
        cold_ns / warm_ns
    ));
    std::fs::write(&out_path, &json).expect("write benchmark snapshot");
    println!("{json}");
    println!("wrote {out_path}");
    assert!(
        ned_pair_speedup >= 5.0,
        "collapsed ned_pair speedup {ned_pair_speedup:.2}x below the 5x target"
    );
    assert!(
        soa_speedup >= 2.0,
        "SoA kernel ({ned_ns:.0} ns/pair) is only {soa_speedup:.2}x the frozen \
         pre-SoA engine ({presoa_ns:.0} ns/pair) — below the 2x rebuild floor"
    );
    assert!(
        sketch_speedup >= SKETCH_FLOOR,
        "memo-cold sketch-filtered kNN ({sketch_pair_ns:.0} ns/op) is only \
         {sketch_speedup:.2}x the budgeted linear scan ({budgeted_ns:.0} ns/op) — \
         below the {SKETCH_FLOOR}x floor"
    );
    let reader_floor = scaling_floor(4);
    assert!(
        reader_scaling >= reader_floor,
        "reader-fleet scaling {reader_scaling:.2}x (4 vs 1 readers) below the \
         hardware-scaled floor {reader_floor:.2}x — ≥ 2x wherever 4 cores exist"
    );
    // Was a 3x floor until the SoA kernel rebuild: rank-based
    // canonicalization cut the *per-node baseline* from ~259µs to ~69µs
    // per node (bulk's ShapeTable expansion never paid canonicalization,
    // so its absolute time is unchanged) — the bulk path's relative edge
    // legitimately narrowed. It must still win outright.
    assert!(
        ingest_speedup >= 1.2,
        "bulk ingest speedup {ingest_speedup:.2}x below the 1.2x floor over the \
         per-node extraction baseline"
    );
    assert!(
        delta_speedup_vs_rebuild >= 3.0,
        "an incremental edge flip ({edge_churn_ns:.0} ns) is not even 3x cheaper \
         than a full rebuild ({rebuild_ns:.0} ns)"
    );
    assert!(
        group_commit_overhead <= 1.3,
        "group-committed WAL churn ({wal_churn_ns:.0} ns/flip) is {group_commit_overhead:.2}x \
         the same journal without fsync ({unsynced_churn_ns:.0} ns/flip) — over the 30% \
         durability budget"
    );
    // A deliberately loose bound: the scatter pays 3 frames out, 3
    // replies read on one thread, and a merge per query, but each shard
    // scans a third of the index — coordination must never cost more
    // than 4x the single-server wire path on this workload.
    assert!(
        fleet_overhead <= 4.0,
        "scatter-gather knn ({fleet_knn_ns:.0} ns/op) is {fleet_overhead:.2}x the \
         single-server wire path ({wire_knn_ns:.0} ns/op) — over the 4x \
         coordination budget"
    );
}
