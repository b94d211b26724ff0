//! Metric indexing for NED (Section 13.4 / Figure 9b).
//!
//! Because NED is a true metric, node signatures can be indexed by any
//! metric access method; the paper demonstrates this with a VP-tree and
//! shows nearest-neighbor queries running orders of magnitude faster than
//! the full scans that non-metric measures (Feature-based, HITS-based)
//! require. [`VpTree`] is that index; [`linear_knn`] is the full-scan
//! baseline it is compared against. [`BkTree`] (integer metrics),
//! [`filter_refine_knn`] (lower-bound filtering) and the dynamic
//! [`ShardedVpForest`] are the other access methods the benchmarks and
//! ablations compare.
//!
//! The structures work for any item type and any [`Metric`];
//! [`SignatureMetric`] is NED over `ned_core::NodeSignature`. The serving
//! index (`ned-index`) answers queries through its sketch bank and does
//! not depend on this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bk_tree;
pub mod filter;
pub mod forest;
mod signature;

pub use bk_tree::{BkTree, IntFnMetric, IntMetric};
pub use filter::{filter_refine_knn, BoundedMetric, FilteredKnn, FnBoundedMetric};
pub use forest::{ForestStats, ShardedVpForest};
pub use signature::{SignatureMetric, UnboundedSignatureMetric};

use rand::Rng;
use std::cell::Cell;
use std::collections::BinaryHeap;

/// A distance function expected to satisfy the metric axioms
/// (the VP-tree prunes with the triangle inequality; a non-metric
/// "distance" silently loses recall).
pub trait Metric<T: ?Sized> {
    /// Distance between two items. Must be non-negative and symmetric.
    fn distance(&self, a: &T, b: &T) -> f64;
}

/// Wraps any closure as a [`Metric`].
pub struct FnMetric<F>(pub F);

impl<T, F: Fn(&T, &T) -> f64> Metric<T> for FnMetric<F> {
    fn distance(&self, a: &T, b: &T) -> f64 {
        (self.0)(a, b)
    }
}

/// Counts distance evaluations — used by the benchmarks to show how much
/// work triangle-inequality pruning saves versus a linear scan.
pub struct CountingMetric<'m, T, M: Metric<T>> {
    inner: &'m M,
    calls: Cell<u64>,
    _marker: std::marker::PhantomData<fn(&T)>,
}

impl<'m, T, M: Metric<T>> CountingMetric<'m, T, M> {
    /// Wraps `inner`, starting the counter at zero.
    pub fn new(inner: &'m M) -> Self {
        CountingMetric {
            inner,
            calls: Cell::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of distance evaluations so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Resets the counter.
    pub fn reset(&self) {
        self.calls.set(0);
    }
}

impl<T, M: Metric<T>> Metric<T> for CountingMetric<'_, T, M> {
    fn distance(&self, a: &T, b: &T) -> f64 {
        self.calls.set(self.calls.get() + 1);
        self.inner.distance(a, b)
    }
}

/// A query hit: item index and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Index into the item slice the index was built over.
    pub index: usize,
    /// Distance to the query.
    pub distance: f64,
}

/// Vantage-point tree over an owned item collection.
///
/// Construction is `O(n log n)` distance computations in expectation;
/// k-NN queries prune sub-trees whose annulus cannot contain a better
/// candidate than the current k-th best.
///
/// **Duplicates are collapsed.** Items at distance 0 from a vantage point
/// are — by the identity axiom — indistinguishable from it under the
/// metric, so they are stored as a flat duplicate bucket on the vantage
/// node instead of being recursed into. A degenerate input (thousands of
/// identical items, the norm for interned NED signatures on scale-free
/// graphs) therefore costs **one** distance evaluation per query instead
/// of one per copy, and the median-radius split can never go degenerate:
/// every remaining distance is strictly positive, and the split of the
/// remainder is positional (half and half), not radius-based.
#[derive(Debug, Clone)]
pub struct VpTree<T> {
    items: Vec<T>,
    nodes: Vec<VpNode>,
    /// Flat pool of duplicate item indices; each node owns the slice
    /// `dup_start..dup_start + dup_len`.
    dup_items: Vec<u32>,
    root: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct VpNode {
    item: usize,
    /// Median distance from the vantage point to its non-duplicate
    /// subtree items; `inside` holds items with `d <= radius`.
    radius: f64,
    /// Range into [`VpTree::dup_items`]: items at distance 0 from `item`.
    dup_start: u32,
    dup_len: u32,
    inside: Option<usize>,
    outside: Option<usize>,
}

impl<T> VpTree<T> {
    /// Builds the tree. Vantage points are chosen uniformly at random from
    /// each partition (`rng` fixes the shape deterministically).
    pub fn build<M: Metric<T>, R: Rng + ?Sized>(items: Vec<T>, metric: &M, rng: &mut R) -> Self {
        let n = items.len();
        let mut nodes = Vec::with_capacity(n);
        let mut dup_items = Vec::new();
        let mut ids: Vec<usize> = (0..n).collect();
        let root = Self::build_rec(&items, metric, rng, &mut ids, &mut nodes, &mut dup_items);
        VpTree {
            items,
            nodes,
            dup_items,
            root,
        }
    }

    fn build_rec<M: Metric<T>, R: Rng + ?Sized>(
        items: &[T],
        metric: &M,
        rng: &mut R,
        ids: &mut [usize],
        nodes: &mut Vec<VpNode>,
        dup_items: &mut Vec<u32>,
    ) -> Option<usize> {
        if ids.is_empty() {
            return None;
        }
        // Move a random vantage point to the front.
        let pick = rng.gen_range(0..ids.len());
        ids.swap(0, pick);
        let vantage = ids[0];
        let rest = &mut ids[1..];
        if rest.is_empty() {
            nodes.push(VpNode {
                item: vantage,
                radius: 0.0,
                dup_start: dup_items.len() as u32,
                dup_len: 0,
                inside: None,
                outside: None,
            });
            return Some(nodes.len() - 1);
        }
        let mut dists: Vec<(f64, usize)> = rest
            .iter()
            .map(|&i| (metric.distance(&items[vantage], &items[i]), i))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN distance"));
        // Duplicate collapse: distance 0 to the vantage point means the
        // item is metrically identical to it, so queries never need a
        // separate distance evaluation for it. Bucketing duplicates here
        // also keeps the median radius strictly positive below, which is
        // what protects duplicate-heavy inputs from degenerate splits.
        let zeros = dists.iter().take_while(|&&(d, _)| d == 0.0).count();
        let dup_start = dup_items.len() as u32;
        dup_items.extend(dists[..zeros].iter().map(|&(_, i)| i as u32));
        for (slot, (_, i)) in rest.iter_mut().zip(&dists) {
            *slot = *i;
        }
        let live = &mut rest[zeros..];
        if live.is_empty() {
            nodes.push(VpNode {
                item: vantage,
                radius: 0.0,
                dup_start,
                dup_len: zeros as u32,
                inside: None,
                outside: None,
            });
            return Some(nodes.len() - 1);
        }
        let mid = (live.len() - 1) / 2;
        let radius = dists[zeros + mid].0;
        let (inside_ids, outside_ids) = live.split_at_mut(mid + 1);
        let placeholder = nodes.len();
        nodes.push(VpNode {
            item: vantage,
            radius,
            dup_start,
            dup_len: zeros as u32,
            inside: None,
            outside: None,
        });
        let inside = Self::build_rec(items, metric, rng, inside_ids, nodes, dup_items);
        let outside = Self::build_rec(items, metric, rng, outside_ids, nodes, dup_items);
        nodes[placeholder].inside = inside;
        nodes[placeholder].outside = outside;
        Some(placeholder)
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The indexed items, in original order (indices in [`Hit`] refer to
    /// this slice).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the tree, returning the items (original order). Used by
    /// [`forest::ShardedVpForest`] when merging shards.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// The `k` nearest items to `query`, closest first (ties broken by
    /// traversal order). `metric` must be the one used at build time (or
    /// an equivalent wrapper such as [`CountingMetric`]).
    pub fn knn<M: Metric<T>>(&self, metric: &M, query: &T, k: usize) -> Vec<Hit> {
        if k == 0 || self.items.is_empty() {
            return Vec::new();
        }
        let mut collector = KnnCollector {
            // max-heap of current best k (worst on top)
            heap: BinaryHeap::with_capacity(k + 1),
            k,
        };
        self.search(&ZeroBound(metric), query, &mut collector);
        let mut hits: Vec<Hit> = collector.heap.into_iter().map(|h| h.0).collect();
        hits.sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("NaN distance"));
        hits
    }

    /// The duplicate bucket of `node`: item indices at distance 0 from its
    /// vantage point (hence at the vantage's distance from any query).
    fn dups(&self, n: &VpNode) -> &[u32] {
        &self.dup_items[n.dup_start as usize..(n.dup_start + n.dup_len) as usize]
    }

    /// All items within `radius` of `query` (inclusive), unordered.
    pub fn range<M: Metric<T>>(&self, metric: &M, query: &T, radius: f64) -> Vec<Hit> {
        let mut collector = RangeCollector {
            radius,
            out: Vec::new(),
        };
        self.search(&ZeroBound(metric), query, &mut collector);
        collector.out
    }

    /// Streaming filter-and-refine search, the engine behind
    /// [`forest::ShardedVpForest`] queries.
    ///
    /// At every visited node the cheap [`BoundedMetric::lower_bound`] is
    /// evaluated **before** the exact distance; when the bound already
    /// exceeds the collector's current [`SearchCollector::tau`], the exact
    /// computation is skipped entirely and both sub-trees are scanned
    /// (each getting its own bound check) — the annulus test needs the
    /// exact distance, so pruning degrades gracefully into a
    /// lower-bound-filtered scan instead of paying for exact distances.
    ///
    /// Surviving candidates are refined through
    /// [`BoundedMetric::distance_within`] under the budget
    /// `node radius + tau`: that budget is loose enough to answer every
    /// question the traversal asks — a hit needs `d <= tau`, pruning the
    /// inside sub-tree needs to know whether `d - tau <= radius` — so an
    /// abandoned computation (`None`) simultaneously proves "not a hit"
    /// and "inside annulus unreachable", and the search recurses outside
    /// only. No pruning power is lost relative to computing the exact
    /// distance. Every candidate that survives is handed to
    /// [`SearchCollector::offer`]; duplicate-bucket items are offered at
    /// their vantage point's distance without further metric calls.
    ///
    /// The collector decides what "tau" means: a k-NN collector returns
    /// its current k-th best distance (shrinking as hits arrive), a range
    /// collector a fixed radius. Results are exact for any collector whose
    /// `tau` never excludes a candidate it would still accept.
    pub fn search<M: BoundedMetric<T>, C: SearchCollector>(
        &self,
        metric: &M,
        query: &T,
        collector: &mut C,
    ) {
        self.search_rec(self.root, metric, query, collector);
    }

    fn search_rec<M: BoundedMetric<T>, C: SearchCollector>(
        &self,
        node: Option<usize>,
        metric: &M,
        query: &T,
        collector: &mut C,
    ) {
        let Some(idx) = node else { return };
        let n = self.nodes[idx];
        let tau = collector.tau();
        let lb = metric.lower_bound(query, &self.items[n.item]);
        if lb > tau {
            // The vantage point (and its duplicates) provably cannot beat
            // the bound; without its exact distance the annulus test is
            // unavailable, so scan both sides under their own bounds.
            self.search_rec(n.inside, metric, query, collector);
            self.search_rec(n.outside, metric, query, collector);
            return;
        }
        // Budget = radius + tau: covers the hit test (d <= tau) *and* the
        // only annulus question a too-far vantage can still influence
        // (is d <= radius + tau, i.e. can the inside ball intersect the
        // query ball). Ties at the budget are returned, not abandoned,
        // preserving deterministic (distance, id) ordering downstream.
        match metric.distance_within(query, &self.items[n.item], n.radius + tau) {
            None => {
                // d > radius + tau >= tau: neither the vantage point nor
                // its duplicates can be hits, and the inside ball
                // (all within `radius` of the vantage) lies strictly
                // beyond tau of the query. Only the outside remains.
                self.search_rec(n.outside, metric, query, collector);
            }
            Some(d) => {
                collector.offer(n.item, d);
                for &dup in self.dups(&n) {
                    collector.offer(dup as usize, d);
                }
                if d <= n.radius {
                    self.search_rec(n.inside, metric, query, collector);
                    if d + collector.tau() >= n.radius {
                        self.search_rec(n.outside, metric, query, collector);
                    }
                } else {
                    self.search_rec(n.outside, metric, query, collector);
                    if d - collector.tau() <= n.radius {
                        self.search_rec(n.inside, metric, query, collector);
                    }
                }
            }
        }
    }
}

/// Consumer driving [`VpTree::search`]: receives surviving candidates and
/// exposes the current pruning bound.
pub trait SearchCollector {
    /// A candidate item (index into the tree's item slice) at its exact
    /// distance from the query. May be called with distances above
    /// [`SearchCollector::tau`]; the collector filters.
    fn offer(&mut self, index: usize, distance: f64);

    /// Current pruning bound: the search may skip any computation that
    /// provably cannot produce a distance `<= tau()`. Must never shrink
    /// below a value that would have excluded a candidate the collector
    /// still wants (for k-NN: the current k-th best; for range: the
    /// radius).
    fn tau(&self) -> f64;
}

/// Views a plain [`Metric`] as a [`BoundedMetric`] with the trivial (but
/// sound) lower bound 0 — the bound check never fires and [`VpTree::search`]
/// degenerates to the classic annulus-pruned traversal, which is how
/// [`VpTree::knn`] and [`VpTree::range`] share its implementation.
struct ZeroBound<'m, M>(&'m M);

impl<T, M: Metric<T>> Metric<T> for ZeroBound<'_, M> {
    fn distance(&self, a: &T, b: &T) -> f64 {
        self.0.distance(a, b)
    }
}

impl<T, M: Metric<T>> BoundedMetric<T> for ZeroBound<'_, M> {
    fn lower_bound(&self, _a: &T, _b: &T) -> f64 {
        0.0
    }
}

/// [`VpTree::knn`]'s collector: bounded max-heap by distance.
struct KnnCollector {
    heap: BinaryHeap<HeapHit>,
    k: usize,
}

impl SearchCollector for KnnCollector {
    fn offer(&mut self, index: usize, distance: f64) {
        if self.heap.len() < self.k {
            self.heap.push(HeapHit(Hit { index, distance }));
        } else if distance < self.heap.peek().expect("non-empty").0.distance {
            self.heap.pop();
            self.heap.push(HeapHit(Hit { index, distance }));
        }
    }

    fn tau(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().expect("non-empty").0.distance
        }
    }
}

/// [`VpTree::range`]'s collector: fixed bound, keep everything inside it.
struct RangeCollector {
    radius: f64,
    out: Vec<Hit>,
}

impl SearchCollector for RangeCollector {
    fn offer(&mut self, index: usize, distance: f64) {
        if distance <= self.radius {
            self.out.push(Hit { index, distance });
        }
    }

    fn tau(&self) -> f64 {
        self.radius
    }
}

/// Wrapper giving `Hit` a max-heap ordering by distance.
struct HeapHit(Hit);

impl PartialEq for HeapHit {
    fn eq(&self, other: &Self) -> bool {
        self.0.distance == other.0.distance
    }
}
impl Eq for HeapHit {}
impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .distance
            .partial_cmp(&other.0.distance)
            .expect("NaN distance")
    }
}

/// Full-scan k-NN baseline: computes every distance.
pub fn linear_knn<T, M: Metric<T>>(items: &[T], metric: &M, query: &T, k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = items
        .iter()
        .enumerate()
        .map(|(index, item)| Hit {
            index,
            distance: metric.distance(query, item),
        })
        .collect();
    hits.sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("NaN distance"));
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct AbsDiff;
    impl Metric<f64> for AbsDiff {
        fn distance(&self, a: &f64, b: &f64) -> f64 {
            (a - b).abs()
        }
    }

    fn random_points(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect()
    }

    #[test]
    fn empty_tree() {
        let tree: VpTree<f64> =
            VpTree::build(Vec::new(), &AbsDiff, &mut SmallRng::seed_from_u64(0));
        assert!(tree.is_empty());
        assert!(tree.knn(&AbsDiff, &1.0, 3).is_empty());
        assert!(tree.range(&AbsDiff, &1.0, 10.0).is_empty());
    }

    #[test]
    fn knn_matches_linear_scan() {
        let points = random_points(300, 1);
        let tree = VpTree::build(points.clone(), &AbsDiff, &mut SmallRng::seed_from_u64(2));
        let mut qrng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let q: f64 = qrng.gen_range(-100.0..1100.0);
            for k in [1usize, 3, 10] {
                let a = tree.knn(&AbsDiff, &q, k);
                let b = linear_knn(&points, &AbsDiff, &q, k);
                assert_eq!(a.len(), k);
                // distances must agree (indices may differ on exact ties)
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.distance, y.distance, "q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn range_matches_linear_filter() {
        let points = random_points(200, 4);
        let tree = VpTree::build(points.clone(), &AbsDiff, &mut SmallRng::seed_from_u64(5));
        let mut qrng = SmallRng::seed_from_u64(6);
        for _ in 0..30 {
            let q: f64 = qrng.gen_range(0.0..1000.0);
            let r = qrng.gen_range(0.0..80.0);
            let mut got: Vec<usize> = tree
                .range(&AbsDiff, &q, r)
                .into_iter()
                .map(|h| h.index)
                .collect();
            got.sort_unstable();
            let want: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, &p)| (p - q).abs() <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let points = random_points(5, 7);
        let tree = VpTree::build(points.clone(), &AbsDiff, &mut SmallRng::seed_from_u64(8));
        let hits = tree.knn(&AbsDiff, &0.0, 50);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn duplicates_handled() {
        let points = vec![5.0, 5.0, 5.0, 9.0];
        let tree = VpTree::build(points, &AbsDiff, &mut SmallRng::seed_from_u64(9));
        let hits = tree.knn(&AbsDiff, &5.0, 3);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.distance == 0.0));
    }

    #[test]
    fn pruning_saves_distance_calls() {
        let points = random_points(4096, 10);
        let tree = VpTree::build(points.clone(), &AbsDiff, &mut SmallRng::seed_from_u64(11));
        let counting = CountingMetric::new(&AbsDiff);
        let _ = tree.knn(&counting, &500.0, 5);
        let tree_calls = counting.calls();
        counting.reset();
        let _ = linear_knn(&points, &counting, &500.0, 5);
        let scan_calls = counting.calls();
        assert!(
            tree_calls * 4 < scan_calls,
            "VP-tree used {tree_calls} calls vs scan {scan_calls}"
        );
    }

    #[test]
    fn thousand_identical_points_collapse() {
        // Regression: duplicate-heavy inputs used to be at the mercy of a
        // zero median radius; duplicates now collapse into the vantage
        // node's bucket, so the build stays shallow and a query resolves
        // the whole cluster with O(1) distance evaluations.
        let points = vec![7.0f64; 1000];
        let tree = VpTree::build(points.clone(), &AbsDiff, &mut SmallRng::seed_from_u64(13));
        // Structure: a single node holding 999 duplicates.
        assert_eq!(tree.nodes.len(), 1, "identical items must share one node");
        let counting = CountingMetric::new(&AbsDiff);
        let hits = tree.knn(&counting, &7.0, 5);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.distance == 0.0));
        assert_eq!(counting.calls(), 1, "one evaluation serves every duplicate");
        // range sees all 1000 copies
        assert_eq!(tree.range(&AbsDiff, &7.0, 0.0).len(), 1000);
        // and the results still agree with a linear scan
        let a = tree.knn(&AbsDiff, &9.5, 3);
        let b = linear_knn(&points, &AbsDiff, &9.5, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.distance, y.distance);
        }
    }

    #[test]
    fn duplicate_clusters_mixed_with_distinct_points() {
        // Three heavy clusters plus distinct points: exactness must hold
        // for knn and range everywhere.
        let mut points = Vec::new();
        for c in [100.0f64, 200.0, 300.0] {
            points.extend((0..200).map(|_| c));
        }
        points.extend((0..50).map(|i| i as f64 * 13.7));
        let tree = VpTree::build(points.clone(), &AbsDiff, &mut SmallRng::seed_from_u64(14));
        let mut qrng = SmallRng::seed_from_u64(15);
        for _ in 0..40 {
            let q: f64 = qrng.gen_range(0.0..700.0);
            for k in [1usize, 7, 250] {
                let a = tree.knn(&AbsDiff, &q, k);
                let b = linear_knn(&points, &AbsDiff, &q, k);
                assert_eq!(a.len(), b.len(), "q={q} k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.distance, y.distance, "q={q} k={k}");
                }
            }
            let r = qrng.gen_range(0.0..120.0);
            let mut got: Vec<usize> = tree
                .range(&AbsDiff, &q, r)
                .into_iter()
                .map(|h| h.index)
                .collect();
            got.sort_unstable();
            let want: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, &p)| (p - q).abs() <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want, "range q={q} r={r}");
        }
    }

    #[test]
    fn search_collector_matches_knn() {
        struct TopK {
            k: usize,
            hits: Vec<Hit>,
        }
        impl SearchCollector for TopK {
            fn offer(&mut self, index: usize, distance: f64) {
                self.hits.push(Hit { index, distance });
                self.hits
                    .sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("NaN"));
                self.hits.truncate(self.k);
            }
            fn tau(&self) -> f64 {
                if self.hits.len() < self.k {
                    f64::INFINITY
                } else {
                    self.hits[self.k - 1].distance
                }
            }
        }
        let points = random_points(400, 21);
        let tree = VpTree::build(points.clone(), &AbsDiff, &mut SmallRng::seed_from_u64(22));
        // A sound lower bound for |a-b|: the distance between coarse bins.
        let m = FnBoundedMetric(
            |a: &f64, b: &f64| (a - b).abs(),
            |a: &f64, b: &f64| ((a - b).abs() / 16.0).floor() * 16.0,
        );
        let mut qrng = SmallRng::seed_from_u64(23);
        for _ in 0..30 {
            let q: f64 = qrng.gen_range(-50.0..1050.0);
            let mut c = TopK {
                k: 7,
                hits: Vec::new(),
            };
            tree.search(&m, &q, &mut c);
            let want = linear_knn(&points, &m, &q, 7);
            assert_eq!(c.hits.len(), want.len());
            for (x, y) in c.hits.iter().zip(&want) {
                assert_eq!(x.distance, y.distance, "q={q}");
            }
        }
    }

    #[test]
    fn integer_metric_via_fn_wrapper() {
        let items: Vec<u64> = (0..100).collect();
        let metric = FnMetric(|a: &u64, b: &u64| a.abs_diff(*b) as f64);
        let tree = VpTree::build(items, &metric, &mut SmallRng::seed_from_u64(12));
        let hits = tree.knn(&metric, &42, 3);
        assert_eq!(hits[0].distance, 0.0);
        assert!(hits.iter().any(|h| h.index == 42));
    }
}
