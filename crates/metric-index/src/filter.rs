//! Filter-and-refine k-NN: use a cheap lower bound to skip exact
//! distance computations during a linear scan.
//!
//! NED ships a natural filter — the level-size L1 distance
//! (`ned_core::ted_star_lower_bound`) lower-bounds TED\* and costs `O(k)`
//! instead of `O(k·n³)`. Scanning candidates in ascending lower-bound
//! order and stopping once the bound exceeds the current k-th best
//! distance gives exact results with far fewer refinements — the classic
//! filter-and-refine pipeline from metric similarity search.

use crate::{Hit, Metric};

/// A lower bound paired with the exact metric it bounds:
/// `lower(a, b) <= exact(a, b)` must hold for every pair, and the lower
/// bound should be much cheaper.
pub trait BoundedMetric<T: ?Sized>: Metric<T> {
    /// The cheap lower bound.
    fn lower_bound(&self, a: &T, b: &T) -> f64;
}

/// Wraps a pair of closures `(exact, lower_bound)` as a [`BoundedMetric`].
pub struct FnBoundedMetric<F, G>(pub F, pub G);

impl<T, F: Fn(&T, &T) -> f64, G: Fn(&T, &T) -> f64> Metric<T> for FnBoundedMetric<F, G> {
    fn distance(&self, a: &T, b: &T) -> f64 {
        (self.0)(a, b)
    }
}

impl<T, F: Fn(&T, &T) -> f64, G: Fn(&T, &T) -> f64> BoundedMetric<T> for FnBoundedMetric<F, G> {
    fn lower_bound(&self, a: &T, b: &T) -> f64 {
        (self.1)(a, b)
    }
}

/// Outcome of a filtered scan, including the work accounting the
/// benchmarks report.
#[derive(Debug, Clone)]
pub struct FilteredKnn {
    /// The `k` nearest hits, closest first (exact — identical to a full
    /// scan up to ties).
    pub hits: Vec<Hit>,
    /// How many exact distance computations were performed.
    pub refined: usize,
    /// How many candidates were pruned by the lower bound alone.
    pub filtered_out: usize,
}

/// Exact k-NN over `items` using lower-bound ordering to skip
/// refinements.
pub fn filter_refine_knn<T, M: BoundedMetric<T>>(
    items: &[T],
    metric: &M,
    query: &T,
    k: usize,
) -> FilteredKnn {
    if k == 0 || items.is_empty() {
        return FilteredKnn {
            hits: Vec::new(),
            refined: 0,
            filtered_out: items.len(),
        };
    }
    // Phase 1: lower bounds for everyone, ascending order.
    let mut bounded: Vec<(f64, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (metric.lower_bound(query, item), i))
        .collect();
    bounded.sort_by(|a, b| a.partial_cmp(b).expect("NaN lower bound"));

    // Phase 2: refine in bound order; stop when the bound itself proves
    // no better candidate can follow.
    let mut hits: Vec<Hit> = Vec::with_capacity(k + 1);
    let mut refined = 0usize;
    let mut cutoff = usize::MAX;
    for (pos, &(lb, i)) in bounded.iter().enumerate() {
        let tau = if hits.len() < k {
            f64::INFINITY
        } else {
            hits.last().expect("non-empty").distance
        };
        if lb > tau {
            cutoff = pos;
            break;
        }
        let d = metric.distance(query, &items[i]);
        refined += 1;
        debug_assert!(d + 1e-9 >= lb, "lower bound {lb} exceeds distance {d}");
        if hits.len() < k || d < hits.last().expect("non-empty").distance {
            hits.push(Hit {
                index: i,
                distance: d,
            });
            hits.sort_by(|a, b| a.distance.partial_cmp(&b.distance).expect("NaN"));
            hits.truncate(k);
        }
    }
    let filtered_out = if cutoff == usize::MAX {
        0
    } else {
        bounded.len() - cutoff
    };
    FilteredKnn {
        hits,
        refined,
        filtered_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_knn;

    /// Points on a line; exact = |a-b|, lower bound = |a-b| rounded down
    /// to a multiple of 10 (a legitimate, loose bound).
    fn metric() -> FnBoundedMetric<impl Fn(&f64, &f64) -> f64, impl Fn(&f64, &f64) -> f64> {
        FnBoundedMetric(
            |a: &f64, b: &f64| (a - b).abs(),
            |a: &f64, b: &f64| ((a - b).abs() / 10.0).floor() * 10.0,
        )
    }

    #[test]
    fn matches_full_scan() {
        let items: Vec<f64> = (0..500).map(|i| (i * 7 % 499) as f64).collect();
        let m = metric();
        for q in [0.0f64, 250.5, 777.0] {
            for k in [1usize, 5, 20] {
                let filtered = filter_refine_knn(&items, &m, &q, k);
                let full = linear_knn(&items, &m, &q, k);
                assert_eq!(filtered.hits.len(), full.len());
                for (a, b) in filtered.hits.iter().zip(&full) {
                    assert_eq!(a.distance, b.distance, "q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn prunes_most_of_the_database() {
        let items: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        let m = metric();
        let result = filter_refine_knn(&items, &m, &1000.0, 3);
        assert!(result.refined < 100, "refined {} of 2000", result.refined);
        assert!(result.filtered_out > 1800);
        assert_eq!(result.hits[0].distance, 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        let m = metric();
        let empty: Vec<f64> = Vec::new();
        assert!(filter_refine_knn(&empty, &m, &1.0, 5).hits.is_empty());
        let items = vec![1.0, 2.0];
        assert!(filter_refine_knn(&items, &m, &1.0, 0).hits.is_empty());
        let all = filter_refine_knn(&items, &m, &1.0, 10);
        assert_eq!(all.hits.len(), 2);
        assert_eq!(all.refined, 2);
    }
}
