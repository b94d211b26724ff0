//! The one `(distance, id)` order every query answer is sorted by, and
//! the bounded top-k that keeps the `k` smallest hits in it: the sketch
//! bank's knn refine loop and the router's scatter merge both run on
//! [`TopK`].

use ned_core::WireHit;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sorts hits by `(distance, id)` ascending — the order of every knn,
/// range and scan answer, on one index or across a fleet.
pub(crate) fn sort_hits(hits: &mut [WireHit]) {
    hits.sort_unstable_by(by_distance_then_id);
}

fn by_distance_then_id(a: &WireHit, b: &WireHit) -> Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then_with(|| a.id.cmp(&b.id))
}

/// Keeps the `cap` smallest hits in `(distance, id)` order: a max-heap
/// rooted at the worst kept hit, so the eviction bound is O(1) to read.
pub(crate) struct TopK {
    cap: usize,
    heap: BinaryHeap<Ranked>,
}

impl TopK {
    pub(crate) fn new(cap: usize) -> TopK {
        TopK {
            cap,
            heap: BinaryHeap::with_capacity(cap.saturating_add(1)),
        }
    }

    pub(crate) fn push(&mut self, hit: WireHit) {
        if self.cap == 0 {
            return;
        }
        let entry = Ranked(hit);
        if self.heap.len() < self.cap {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry < *worst {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// The inclusive distance budget proven so far: once the heap is
    /// full, no hit with distance strictly above the worst kept distance
    /// can enter — ties still can (smaller id wins), hence *inclusive*.
    /// Distances are integral (NED is a u64 carried as f64), so the cast
    /// is exact.
    pub(crate) fn bound(&self) -> Option<u64> {
        if self.heap.len() == self.cap {
            self.heap.peek().map(|worst| worst.0.distance as u64)
        } else {
            None
        }
    }

    /// The kept hits, sorted by `(distance, id)`.
    pub(crate) fn into_sorted(self) -> Vec<WireHit> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| e.0)
            .collect()
    }
}

/// Heap ordering: by `(distance, id)` ascending, so the heap max is the
/// worst kept hit. Distances are never NaN (`total_cmp` for rigor).
struct Ranked(WireHit);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        by_distance_then_id(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u64, distance: f64) -> WireHit {
        WireHit { id, distance }
    }

    fn pairs(hits: &[WireHit]) -> Vec<(u64, f64)> {
        hits.iter().map(|h| (h.id, h.distance)).collect()
    }

    #[test]
    fn top_k_keeps_global_order_and_bound() {
        let mut m = TopK::new(3);
        assert_eq!(m.bound(), None, "not full yet");
        for (id, d) in [(7u64, 4.0), (1, 2.0), (9, 2.0), (3, 0.0), (5, 6.0)] {
            m.push(hit(id, d));
        }
        assert_eq!(m.bound(), Some(2));
        // Ties at distance 2 break by id: 1 then 9.
        assert_eq!(pairs(&m.into_sorted()), vec![(3, 0.0), (1, 2.0), (9, 2.0)]);
    }

    #[test]
    fn top_k_evicts_on_id_ties_too() {
        let mut m = TopK::new(2);
        m.push(hit(8, 5.0));
        m.push(hit(9, 5.0));
        // Same distance, smaller id: must displace id 9.
        m.push(hit(2, 5.0));
        let got: Vec<u64> = m.into_sorted().iter().map(|h| h.id).collect();
        assert_eq!(got, vec![2, 8]);
    }

    #[test]
    fn top_k_of_zero_keeps_nothing_and_proves_no_bound() {
        let mut m = TopK::new(0);
        // An empty heap is "full" at cap 0, but it holds no hit to read a
        // bound from.
        assert_eq!(m.bound(), None);
        m.push(hit(1, 0.0));
        assert_eq!(m.bound(), None);
        assert!(m.into_sorted().is_empty());
    }

    #[test]
    fn bound_is_inclusive_at_the_kth_distance() {
        let full = || {
            let mut m = TopK::new(2);
            m.push(hit(4, 1.0));
            m.push(hit(6, 3.0));
            m
        };
        // A hit at the bound with a larger id stays out, and so does one
        // strictly above it.
        let mut m = full();
        assert_eq!(m.bound(), Some(3));
        m.push(hit(7, 3.0));
        m.push(hit(0, 4.0));
        assert_eq!(pairs(&m.into_sorted()), vec![(4, 1.0), (6, 3.0)]);
        // A hit at the bound with a smaller id gets in: the bound admits
        // ties, and the id decides them.
        let mut m = full();
        m.push(hit(5, 3.0));
        assert_eq!(m.bound(), Some(3));
        assert_eq!(pairs(&m.into_sorted()), vec![(4, 1.0), (5, 3.0)]);
    }
}
