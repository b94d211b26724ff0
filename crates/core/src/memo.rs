//! Cross-pair TED\* memo: distances (and budget-abort floors) cached by
//! interned isomorphism-class pairs.
//!
//! Query workloads compare one signature against many candidates, and on
//! scale-free graphs the candidates repeat a handful of neighborhood
//! shapes — the interned store deduplicates them, but the same `(query
//! class, candidate class)` sub-problem still reappears across the rows
//! of one scan and across successive queries. TED\* is a pure
//! function of the two isomorphism classes, and every
//! [`PreparedTree`](crate::PreparedTree) already carries its class as a
//! dense process-wide interner id
//! ([`root_class`](crate::PreparedTree::root_class)), so the pair
//! `(class_a, class_b)` is a perfect memo key: one `u64`, stable for the
//! process lifetime.
//!
//! Two kinds of facts are cached:
//!
//! * **`Exact(d)`** — the pair's true distance, recorded when a bounded
//!   sweep ran to completion. Served for any future budget.
//! * **`AtLeast(b)`** — the distance is known to *exceed* `b`, recorded
//!   when a sweep abandoned under budget `b`, or as `bound − 1` when the
//!   sorted child-count bound
//!   ([`ted_star_degree_lower_bound`](crate::ted_star_degree_lower_bound))
//!   rejected the pair before any sweep — exactly the pairs whose sweep
//!   would have abandoned. A future query with budget
//!   `<= b` is answered `None` without touching the trees (the common
//!   case in kNN verification, where the pruning radius only shrinks);
//!   a looser budget falls through to a fresh sweep, whose outcome then
//!   upgrades the entry.
//!
//! Pairs the inline summary bound
//! ([`ted_star_summary_lower_bound`](crate::ted_star_summary_lower_bound))
//! rejects never reach the memo: that check runs before the lookup,
//! costs less than one, and records nothing, so it neither counts as a
//! hit or miss nor adds an entry. On cold kNN probes it rejects nearly
//! every candidate, which keeps their `AtLeast` floors out of the memo.
//!
//! The memo is sharded behind mutexes like the signature interner, sized
//! by a process-wide capacity knob ([`TedMemo::set_capacity`], `0`
//! disables caching entirely), and evicts coarsely: when a shard fills
//! past its share of the capacity it is cleared wholesale before the next
//! insert. Eviction only ever drops cache — correctness never depends on
//! an entry being present.
//!
//! **Granularity note.** The memo deliberately caches whole-pair results
//! rather than per-level sweep suffixes. A suffix of the level sweep *is*
//! a pure function of the two level-class multisets, but resuming above a
//! memoized suffix would also need the re-canonized labels *per slot
//! position*, and positions are an artifact of each tree's canonical
//! layout — two trees sharing a level multiset can arrange it
//! differently, so positional labels do not transfer across pairs. The
//! pair level is the coarsest key that is both sound and
//! position-independent.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

const SHARDS: usize = 16;

/// Default total entry capacity (across all shards).
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 20;

/// A point-in-time snapshot of the memo's effectiveness counters —
/// surfaced through the server `stats` command and the load generator so
/// memo efficacy under churn is observable, not guessed.
///
/// Counters are cumulative for the process lifetime; diff two snapshots
/// to scope them to a workload phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Consults fully answered from the cache (exact value served, or a
    /// budget provably exceeded by a recorded floor).
    pub hits: u64,
    /// Consults that required a fresh sweep (absent key, an insufficient
    /// floor, or a disabled memo).
    pub misses: u64,
    /// Entries dropped by coarse shard eviction.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Total entry capacity (`0` = disabled).
    pub capacity: usize,
}

impl MemoStats {
    /// Hits as a fraction of all consults (`0.0` when none happened).
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot (`entries`/`capacity`
    /// stay absolute).
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
            capacity: self.capacity,
        }
    }
}

impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} misses {} ({:.1}% hit rate) evictions {} entries {}/{}",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.evictions,
            self.entries,
            self.capacity
        )
    }
}

/// A cached fact about one class pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoEntry {
    /// The exact distance.
    Exact(u64),
    /// The distance is known to be **strictly greater** than this value.
    AtLeast(u64),
}

/// The process-wide cross-pair TED\* memo. See the [module docs](self).
pub struct TedMemo {
    shards: [Mutex<HashMap<u64, MemoEntry>>; SHARDS],
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl TedMemo {
    fn new() -> Self {
        TedMemo {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            capacity: AtomicUsize::new(DEFAULT_MEMO_CAPACITY),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current effectiveness counters plus size/capacity. See
    /// [`MemoStats`].
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity(),
        }
    }

    /// The shared process-wide memo, used by
    /// [`ted_star_prepared_within`](crate::ted_star_prepared_within).
    pub fn global() -> &'static TedMemo {
        static GLOBAL: OnceLock<TedMemo> = OnceLock::new();
        GLOBAL.get_or_init(TedMemo::new)
    }

    /// Sets the total entry capacity. `0` disables the memo (lookups
    /// miss, inserts are dropped). Shrinking does not eagerly evict;
    /// over-full shards clear themselves on their next insert.
    pub fn set_capacity(&self, cap: usize) {
        self.capacity.store(cap, Ordering::Relaxed);
    }

    /// Current total entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Drops every cached entry (capacity is unchanged).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("memo shard poisoned").clear();
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn shard_of(key: u64) -> usize {
        // Multiplicative mix so nearby interner ids spread across shards.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
    }

    /// Answers a bounded-distance query from the cache alone:
    /// `Some(result)` when the cache fully decides it, `None` when a
    /// sweep is required.
    pub(crate) fn consult(&self, key: u64, budget: u64) -> Option<Option<u64>> {
        if self.capacity() == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let decided = {
            let shard = self.shards[Self::shard_of(key)]
                .lock()
                .expect("memo shard poisoned");
            match shard.get(&key) {
                None => None,
                Some(MemoEntry::Exact(d)) => Some((*d <= budget).then_some(*d)),
                Some(MemoEntry::AtLeast(b)) if *b >= budget => Some(None),
                Some(MemoEntry::AtLeast(_)) => None,
            }
        };
        match decided {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        decided
    }

    /// Batched [`Self::consult`] over a whole candidate list: decides
    /// every key the cache can, acquiring each touched shard's lock **at
    /// most once** for the batch instead of once per pair. On return,
    /// `out[i]` is exactly what `consult(keys[i], budget)` would have
    /// returned. The hit/miss counters stay exact — one aggregate add per
    /// outcome class, counting precisely the lookups performed.
    pub(crate) fn consult_batch(
        &self,
        keys: &[u64],
        budget: u64,
        out: &mut Vec<Option<Option<u64>>>,
    ) {
        out.clear();
        out.resize(keys.len(), None);
        if keys.is_empty() {
            return;
        }
        if self.capacity() == 0 {
            self.misses.fetch_add(keys.len() as u64, Ordering::Relaxed);
            return;
        }
        let mut hits = 0u64;
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            // Lock lazily so shards no key maps to are never touched.
            let mut guard = None;
            for (i, &key) in keys.iter().enumerate() {
                if Self::shard_of(key) != shard_idx {
                    continue;
                }
                let map = guard.get_or_insert_with(|| shard.lock().expect("memo shard poisoned"));
                let decided = match map.get(&key) {
                    None => None,
                    Some(MemoEntry::Exact(d)) => Some((*d <= budget).then_some(*d)),
                    Some(MemoEntry::AtLeast(b)) if *b >= budget => Some(None),
                    Some(MemoEntry::AtLeast(_)) => None,
                };
                if decided.is_some() {
                    hits += 1;
                }
                out[i] = decided;
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
    }

    /// Records the exact distance of a pair.
    pub(crate) fn record_exact(&self, key: u64, distance: u64) {
        self.record(key, MemoEntry::Exact(distance));
    }

    /// Records that a pair's distance exceeds `bound`.
    pub(crate) fn record_at_least(&self, key: u64, bound: u64) {
        self.record(key, MemoEntry::AtLeast(bound));
    }

    fn record(&self, key: u64, entry: MemoEntry) {
        let cap = self.capacity();
        if cap == 0 {
            return;
        }
        let per_shard = (cap / SHARDS).max(1);
        let mut shard = self.shards[Self::shard_of(key)]
            .lock()
            .expect("memo shard poisoned");
        match shard.get_mut(&key) {
            Some(existing) => {
                // Exact beats AtLeast; AtLeast floors only ever rise.
                *existing = match (*existing, entry) {
                    (MemoEntry::Exact(d), _) => MemoEntry::Exact(d),
                    (MemoEntry::AtLeast(_), MemoEntry::Exact(d)) => MemoEntry::Exact(d),
                    (MemoEntry::AtLeast(a), MemoEntry::AtLeast(b)) => MemoEntry::AtLeast(a.max(b)),
                };
            }
            None => {
                if shard.len() >= per_shard {
                    // Coarse eviction: drop the whole shard. Cheap, keeps
                    // the map bounded, and loses nothing but cache.
                    self.evictions
                        .fetch_add(shard.len() as u64, Ordering::Relaxed);
                    shard.clear();
                }
                shard.insert(key, entry);
            }
        }
    }
}

impl std::fmt::Debug for TedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TedMemo")
            .field("entries", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// The memo key of an unordered class pair (TED\* is symmetric, so both
/// orientations share one entry).
#[inline]
pub(crate) fn pair_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (u64::from(lo) << 32) | u64::from(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_key_is_symmetric_and_injective_on_ordered_pairs() {
        assert_eq!(pair_key(3, 7), pair_key(7, 3));
        assert_ne!(pair_key(3, 7), pair_key(3, 8));
        assert_ne!(pair_key(0, 1), pair_key(1, 1));
    }

    #[test]
    fn consult_semantics() {
        let memo = TedMemo::new();
        let k = pair_key(1, 2);
        assert_eq!(memo.consult(k, 10), None);
        memo.record_at_least(k, 5);
        assert_eq!(memo.consult(k, 5), Some(None), "budget <= floor: decided");
        assert_eq!(memo.consult(k, 6), None, "budget above floor: recompute");
        memo.record_at_least(k, 3);
        assert_eq!(memo.consult(k, 5), Some(None), "floors never regress");
        memo.record_exact(k, 9);
        assert_eq!(memo.consult(k, 8), Some(None));
        assert_eq!(memo.consult(k, 9), Some(Some(9)));
        memo.record_at_least(k, 100);
        assert_eq!(memo.consult(k, 200), Some(Some(9)), "exact facts persist");
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let memo = TedMemo::new();
        let k = pair_key(4, 9);
        assert_eq!(memo.consult(k, 10), None); // miss: absent
        memo.record_exact(k, 3);
        assert_eq!(memo.consult(k, 10), Some(Some(3))); // hit
        memo.record_at_least(pair_key(1, 2), 7);
        assert_eq!(memo.consult(pair_key(1, 2), 9), None); // miss: floor too low
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.entries, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // force evictions: tiny capacity, many inserts
        memo.set_capacity(SHARDS);
        for a in 0..200u32 {
            memo.record_exact(pair_key(a, a + 1), 1);
        }
        assert!(memo.stats().evictions > 0, "{:?}", memo.stats());
        let delta = memo.stats().since(&s);
        assert_eq!(delta.hits, 0);
        assert!(delta.evictions > 0);
    }

    #[test]
    fn consult_batch_matches_per_key_consults_and_counters() {
        let memo = TedMemo::new();
        memo.record_exact(pair_key(1, 2), 4);
        memo.record_exact(pair_key(3, 4), 11);
        memo.record_at_least(pair_key(5, 6), 9);
        let keys = [
            pair_key(1, 2), // Exact within budget -> Some(Some(4))
            pair_key(3, 4), // Exact above budget -> Some(None)
            pair_key(5, 6), // floor 9 >= budget 9 -> Some(None)
            pair_key(7, 8), // absent -> None
            pair_key(1, 2), // duplicates decided consistently
        ];
        let before = memo.stats();
        let mut out = Vec::new();
        memo.consult_batch(&keys, 9, &mut out);
        let expected: Vec<_> = keys.iter().map(|&k| memo.consult(k, 9)).collect();
        assert_eq!(out, expected);
        // The batch performed keys.len() lookups: 4 decided, 1 undecided.
        let after = memo.stats().since(&before);
        assert_eq!((after.hits, after.misses), (4 + 4, 1 + 1));
    }

    #[test]
    fn consult_batch_with_zero_capacity_counts_misses() {
        let memo = TedMemo::new();
        memo.set_capacity(0);
        let keys = [pair_key(1, 2), pair_key(3, 4)];
        let mut out = Vec::new();
        memo.consult_batch(&keys, 10, &mut out);
        assert_eq!(out, vec![None, None]);
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn capacity_zero_disables() {
        let memo = TedMemo::new();
        memo.set_capacity(0);
        memo.record_exact(pair_key(1, 2), 4);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.consult(pair_key(1, 2), 10), None);
    }

    #[test]
    fn eviction_bounds_the_shards() {
        let memo = TedMemo::new();
        memo.set_capacity(SHARDS * 4);
        for a in 0..200u32 {
            memo.record_exact(pair_key(a, a + 1), u64::from(a));
        }
        assert!(
            memo.len() <= SHARDS * 4 + SHARDS,
            "memo grew past its capacity: {}",
            memo.len()
        );
        memo.clear();
        assert!(memo.is_empty());
    }
}
