//! Metric indexing for NED (Section 13.4 / Figure 9b).
//!
//! Because NED is a true metric, node signatures can be indexed by any
//! metric access method; the paper demonstrates this with a VP-tree and
//! shows nearest-neighbor queries running orders of magnitude faster than
//! the full scans that non-metric measures (Feature-based, HITS-based)
//! require. [`VpTree`] is that index; [`linear_knn`] is the full-scan
//! baseline it is compared against. [`BkTree`] (integer metrics) and
//! [`filter_refine_knn`] (lower-bound filtering) are the other access
//! methods the benchmarks and ablations compare.
//!
//! The structures work for any item type and any [`Metric`]; NED over
//! `ned_core::NodeSignature` plugs in through [`FnMetric`] or
//! [`FnBoundedMetric`]. The serving index (`ned-index`) answers queries
//! through its sketch bank and does not depend on this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bk_tree;
pub mod filter;

pub use bk_tree::{BkTree, IntFnMetric, IntMetric};
pub use filter::{filter_refine_knn, BoundedMetric, FilteredKnn, FnBoundedMetric};

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
        self.search(self.root, metric, query, &mut collector);
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
        self.search(self.root, metric, query, &mut collector);
        collector.out
    }

    /// Annulus-pruned traversal shared by [`VpTree::knn`] and
    /// [`VpTree::range`]: one exact distance per visited vantage point,
    /// which is then offered (with its duplicate bucket, at the same
    /// distance and no further metric calls) when it is within the
    /// collector's current [`SearchCollector::tau`]. A sub-tree is
    /// skipped only when the triangle inequality proves its ball cannot
    /// meet the query ball of radius `tau`.
    fn search<M: Metric<T>, C: SearchCollector>(
        &self,
        node: Option<usize>,
        metric: &M,
        query: &T,
        collector: &mut C,
    ) {
        let Some(idx) = node else { return };
        let n = self.nodes[idx];
        let d = metric.distance(query, &self.items[n.item]);
        if d <= collector.tau() {
            collector.offer(n.item, d);
            for &dup in self.dups(&n) {
                collector.offer(dup as usize, d);
            }
        }
        if d <= n.radius {
            self.search(n.inside, metric, query, collector);
            if d + collector.tau() >= n.radius {
                self.search(n.outside, metric, query, collector);
            }
        } else {
            self.search(n.outside, metric, query, collector);
            if d - collector.tau() <= n.radius {
                self.search(n.inside, metric, query, collector);
            }
        }
    }
}

/// Consumer driving [`VpTree::search`]: receives candidates and exposes
/// the current pruning bound.
trait SearchCollector {
    /// A candidate item (index into the tree's item slice) at its exact
    /// distance from the query, no greater than [`SearchCollector::tau`].
    fn offer(&mut self, index: usize, distance: f64);

    /// Current pruning bound: the search skips any sub-tree that provably
    /// holds no item within `tau()` of the query. Must never shrink below
    /// a value that would have excluded a candidate the collector still
    /// wants (for k-NN: the current k-th best; for range: the radius).
    fn tau(&self) -> f64;
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
    fn integer_metric_via_fn_wrapper() {
        let items: Vec<u64> = (0..100).collect();
        let metric = FnMetric(|a: &u64, b: &u64| a.abs_diff(*b) as f64);
        let tree = VpTree::build(items, &metric, &mut SmallRng::seed_from_u64(12));
        let hits = tree.knn(&metric, &42, 3);
        assert_eq!(hits[0].distance, 0.0);
        assert!(hits.iter().any(|h| h.index == 42));
    }
}
