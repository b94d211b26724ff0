//! A **dynamic, sharded metric index**: the serving-layer counterpart of
//! the build-once [`VpTree`].
//!
//! [`ShardedVpForest`] maintains one small mutable buffer plus a run of
//! geometrically-sized immutable VP-trees (the classic *logarithmic
//! method* for turning a static structure dynamic):
//!
//! * **insert** appends to the buffer; when the buffer reaches its
//!   threshold it is frozen into a VP-tree, first swallowing every
//!   trailing shard no larger than itself — so at most `O(log n)` shards
//!   exist and each item is rebuilt `O(log n)` times amortized.
//! * **remove** deletes buffered items in place; sharded items (and
//!   sharded copies superseded by a replacing insert) just lose their
//!   live record — generation-tagged entries make stale copies invisible
//!   immediately, and once stale entries outnumber half the sharded
//!   items the forest compacts (one rebuild dropping every dead entry).
//! * **knn / range** fan out across the shards in parallel on the
//!   [`ned_core::batch`] pool, each shard pruning with the cheap
//!   [`BoundedMetric::lower_bound`] *before any exact distance call* and
//!   with a **shared atomic bound** (the best k-th distance any shard has
//!   proven so far), then merge through one bounded heap ordered by
//!   `(distance, id)` — results are exact and deterministic regardless of
//!   thread timing. Every exact call that does happen is issued through
//!   [`BoundedMetric::distance_within`] with the sharpest bound known at
//!   that moment as its budget, so a budget-aware metric (TED\* over node
//!   signatures) abandons hopeless candidates mid-computation instead of
//!   finishing a distance the collector would discard anyway.
//!
//! Items carry caller-assigned `u64` ids; every query reports hits as
//! [`WireHit`] `(id, distance)` pairs, the hit type of the serving index
//! and its wire protocol, so results stay meaningful across rebuilds and
//! compare directly with what `ned_index::SignatureIndex` returns.
//!
//! # Cloning is snapshotting
//!
//! Every bulky piece of the forest lives behind an [`Arc`]: the immutable
//! VP shards are `Arc<VpTree>`, and the mutable buffer plus the live/
//! retired bookkeeping maps are copy-on-write (`Arc::make_mut`). `Clone`
//! therefore costs `O(shards + 1)` reference bumps — no tree, item, or
//! map is copied — and the clone is a fully independent, immutable-until-
//! mutated snapshot of the forest at that instant. Mutating the original
//! (or the clone) copies only the pieces actually touched, and a frozen shard is never copied at all
//! unless a merge must physically reclaim entries out of a tree some
//! snapshot still references.

use crate::filter::BoundedMetric;
use crate::{Metric, SearchCollector, VpTree};
use ned_core::WireHit;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a live item currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Buffer,
    Shard,
}

/// The authoritative record for a live id: where its current copy lives
/// and that copy's generation. Stale copies of the same id (superseded by
/// a replacement, or removed) may linger inside immutable shards until a
/// compaction; they carry an older generation and are filtered out of
/// every query, so updates never pay for an eager rebuild.
#[derive(Debug, Clone, Copy)]
struct LiveSlot {
    slot: Slot,
    gen: u32,
    /// `true` when stale (older-generation) physical copies of this id
    /// may still sit inside shards. Only then does a remove need to leave
    /// a [`ShardedVpForest::retired`] watermark behind — which is what
    /// keeps that map bounded by the compaction cycle instead of growing
    /// with every removed id.
    dirty: bool,
}

/// An indexed entry: caller id, the generation this copy was written at,
/// and the item itself. Id + generation ride along so shard rebuilds and
/// query hits never lose track of identity, and so stale copies are
/// distinguishable from the current one.
#[derive(Debug, Clone)]
struct Entry<T> {
    id: u64,
    gen: u32,
    item: T,
}

/// Adapts a caller metric over `T` to the `Entry<T>` pairs the shards
/// store (ids are invisible to the metric).
struct EntryMetric<'m, M>(&'m M);

impl<T, M: Metric<T>> Metric<Entry<T>> for EntryMetric<'_, M> {
    fn distance(&self, a: &Entry<T>, b: &Entry<T>) -> f64 {
        self.0.distance(&a.item, &b.item)
    }
}

impl<T, M: BoundedMetric<T>> BoundedMetric<Entry<T>> for EntryMetric<'_, M> {
    fn lower_bound(&self, a: &Entry<T>, b: &Entry<T>) -> f64 {
        self.0.lower_bound(&a.item, &b.item)
    }

    fn distance_within(&self, a: &Entry<T>, b: &Entry<T>, budget: f64) -> Option<f64> {
        // Forwarded so a budget-aware caller metric early-abandons inside
        // the shards too, not just in the buffer scan.
        self.0.distance_within(&a.item, &b.item, budget)
    }
}

/// Snapshot of a forest's internal shape (exposed for observability and
/// the CLI `index`/`serve` commands).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestStats {
    /// Live items (buffer + shards − tombstones).
    pub len: usize,
    /// Items currently in the mutable buffer.
    pub buffer: usize,
    /// Physical size of each immutable shard, largest first.
    pub shard_sizes: Vec<usize>,
    /// Tombstoned (logically deleted, physically present) items.
    pub tombstones: usize,
}

/// Dynamic sharded VP forest. See the [module docs](self) for the design.
///
/// The metric is passed per call (the forest stores no closure state), and
/// must behave identically across calls — mixing metrics between `insert`
/// and `knn` silently breaks pruning, exactly as with [`VpTree`].
#[derive(Debug, Clone)]
pub struct ShardedVpForest<T> {
    /// Mutable tail, copy-on-write: snapshots share it until the next
    /// buffered mutation, which copies at most `threshold` entries.
    buffer: Arc<Vec<Entry<T>>>,
    /// Immutable shards, physical sizes strictly decreasing. Shared with
    /// every snapshot — a shard is only deep-copied when a merge must
    /// consume its entries while a snapshot still holds the `Arc`.
    shards: Vec<Arc<VpTree<Entry<T>>>>,
    /// Every live id, its location, and its current generation; removed
    /// ids are absent. Copy-on-write alongside the buffer.
    live: Arc<HashMap<u64, LiveSlot>>,
    /// Stale entries (removed or superseded) still physically present
    /// inside shards; drives the compaction threshold.
    dead: usize,
    /// Generation watermark for removed ids: the generation a re-insert
    /// must start at so it can never collide with a stale physical copy.
    /// Cleared by compaction (which drops every stale copy).
    retired: Arc<HashMap<u64, u32>>,
    /// Buffer size that triggers a freeze into a shard.
    threshold: usize,
    /// Seed for deterministic shard builds (combined with `epoch`).
    seed: u64,
    /// Bumped per shard build so successive builds draw distinct
    /// deterministic vantage sequences.
    epoch: u64,
}

impl<T: Clone> ShardedVpForest<T> {
    /// An empty forest. `threshold` is the buffer size that triggers a
    /// shard build (clamped to ≥ 1); `seed` fixes every future shard's
    /// vantage choices, making the whole structure deterministic.
    pub fn new(threshold: usize, seed: u64) -> Self {
        ShardedVpForest {
            buffer: Arc::new(Vec::new()),
            shards: Vec::new(),
            live: Arc::new(HashMap::new()),
            dead: 0,
            retired: Arc::new(HashMap::new()),
            threshold: threshold.max(1),
            seed,
            epoch: 0,
        }
    }

    /// Bulk constructor: one shard over `entries` (buffer if below the
    /// threshold). Ids must be unique; later duplicates replace earlier
    /// ones. This is the load path — results are identical to inserting
    /// one by one, only cheaper.
    pub fn from_entries<M>(threshold: usize, seed: u64, entries: Vec<(u64, T)>, metric: &M) -> Self
    where
        T: Send + Sync,
        M: Metric<T> + Sync,
    {
        Self::from_entries_balanced(threshold, seed, entries, metric, 1)
    }

    /// [`ShardedVpForest::from_entries`] with the one-shot build packed
    /// into up to `max_shards` **balanced** shards (near-equal sizes,
    /// strictly decreasing to respect the logarithmic-method invariant).
    /// Query results are identical to any other construction order; the
    /// point is build- and query-side parallelism: the shard VP-trees are
    /// built concurrently on the [`ned_core::batch`] pool here, and every
    /// later fan-out query can occupy `max_shards` cores instead of one.
    /// The result is deterministic regardless of thread timing (each
    /// shard's vantage rng is derived from `seed` and its position).
    pub fn from_entries_balanced<M>(
        threshold: usize,
        seed: u64,
        entries: Vec<(u64, T)>,
        metric: &M,
        max_shards: usize,
    ) -> Self
    where
        T: Send + Sync,
        M: Metric<T> + Sync,
    {
        let mut forest = Self::new(threshold, seed);
        let mut dedup: HashMap<u64, T> = HashMap::new();
        let mut order: Vec<u64> = Vec::with_capacity(entries.len());
        for (id, item) in entries {
            if dedup.insert(id, item).is_none() {
                order.push(id);
            }
        }
        let mut items: Vec<Entry<T>> = order
            .into_iter()
            .map(|id| Entry {
                id,
                gen: 0,
                item: dedup.remove(&id).expect("id collected above"),
            })
            .collect();
        let slot = if items.len() < forest.threshold {
            Slot::Buffer
        } else {
            Slot::Shard
        };
        let live = Arc::make_mut(&mut forest.live);
        for e in &items {
            live.insert(
                e.id,
                LiveSlot {
                    slot,
                    gen: 0,
                    dirty: false,
                },
            );
        }
        if slot == Slot::Buffer {
            forest.buffer = Arc::new(items);
        } else {
            // Largest shard first so the physical sizes decrease, as the
            // incremental merge machinery expects. Each chunk builds its
            // VP-tree independently (and concurrently) with the same
            // deterministic per-epoch rng the sequential path would use.
            let mut chunks: Vec<std::sync::Mutex<Option<Vec<Entry<T>>>>> = Vec::new();
            for size in balanced_shard_sizes(items.len(), max_shards) {
                let tail = items.split_off(size);
                chunks.push(std::sync::Mutex::new(Some(items)));
                items = tail;
            }
            debug_assert!(items.is_empty());
            let first_epoch = forest.epoch;
            let trees: Vec<VpTree<Entry<T>>> = ned_core::batch::par_map(chunks.len(), 0, |i| {
                let chunk = chunks[i]
                    .lock()
                    .expect("chunk slot poisoned")
                    .take()
                    .expect("each chunk is taken once");
                let mut rng = Self::shard_rng(seed, first_epoch + i as u64);
                VpTree::build(chunk, &EntryMetric(metric), &mut rng)
            });
            for tree in trees {
                forest.epoch += 1;
                forest.shards.push(Arc::new(tree));
            }
            debug_assert!(forest.shards.windows(2).all(|w| w[0].len() > w[1].len()));
        }
        forest
    }

    /// Live item count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no live items exist.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `id` is currently indexed.
    pub fn contains(&self, id: u64) -> bool {
        self.live.contains_key(&id)
    }

    /// Internal shape, for observability.
    pub fn stats(&self) -> ForestStats {
        ForestStats {
            len: self.live.len(),
            buffer: self.buffer.len(),
            shard_sizes: self.shards.iter().map(|s| s.len()).collect(),
            tombstones: self.dead,
        }
    }

    /// Live `(id, item)` entries, buffer first, then shards largest-first
    /// (an arbitrary but deterministic order; sort by id for a canonical
    /// one).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &T)> {
        self.buffer
            .iter()
            .map(|e| (e.id, &e.item))
            .chain(self.shards.iter().flat_map(move |s| {
                s.items()
                    .iter()
                    .filter(|e| is_current(&self.live, e.id, e.gen))
                    .map(|e| (e.id, &e.item))
            }))
    }

    /// Inserts `item` under `id`, replacing any live item with the same
    /// id. Returns `true` when the id was new. May trigger a shard build
    /// (amortized `O(log n)` rebuilds per item over any insert sequence);
    /// replacing a sharded item just bumps the id's generation — the old
    /// copy becomes invisible immediately and is physically reclaimed at
    /// the next merge or compaction.
    pub fn insert<M: Metric<T>>(&mut self, metric: &M, id: u64, item: T) -> bool {
        let (fresh, gen) = match Arc::make_mut(&mut self.live).entry(id) {
            MapEntry::Occupied(mut occupied) => {
                let prev = *occupied.get();
                match prev.slot {
                    Slot::Buffer => {
                        let buffer = Arc::make_mut(&mut self.buffer);
                        let pos = buffer
                            .iter()
                            .position(|e| e.id == id)
                            .expect("live buffer id present");
                        buffer.swap_remove(pos);
                    }
                    Slot::Shard => {
                        self.dead += 1;
                    }
                }
                let gen = prev.gen.wrapping_add(1);
                *occupied.get_mut() = LiveSlot {
                    slot: Slot::Buffer,
                    gen,
                    // A sharded predecessor stays behind as a stale copy.
                    dirty: prev.dirty || prev.slot == Slot::Shard,
                };
                (false, gen)
            }
            MapEntry::Vacant(vacant) => {
                // A retirement watermark means stale copies of this id
                // may still exist; resume above them.
                let (gen, dirty) = match Arc::make_mut(&mut self.retired).remove(&id) {
                    Some(g) => (g, true),
                    None => (0, false),
                };
                vacant.insert(LiveSlot {
                    slot: Slot::Buffer,
                    gen,
                    dirty,
                });
                (true, gen)
            }
        };
        Arc::make_mut(&mut self.buffer).push(Entry { id, gen, item });
        if self.buffer.len() >= self.threshold {
            self.flush(metric);
        }
        self.maybe_compact(metric);
        fresh
    }

    /// Removes `id`. Buffered items disappear immediately; sharded items
    /// become invisible at once (their live record is gone) and are
    /// physically dropped at the next merge or compaction, which triggers
    /// itself once stale entries outnumber half the sharded items.
    /// Returns `false` when the id was not live.
    pub fn remove<M: Metric<T>>(&mut self, metric: &M, id: u64) -> bool {
        match Arc::make_mut(&mut self.live).remove(&id) {
            None => false,
            Some(ls) => {
                if ls.dirty || ls.slot == Slot::Shard {
                    Arc::make_mut(&mut self.retired).insert(id, ls.gen.wrapping_add(1));
                }
                match ls.slot {
                    Slot::Buffer => {
                        let buffer = Arc::make_mut(&mut self.buffer);
                        let pos = buffer
                            .iter()
                            .position(|e| e.id == id)
                            .expect("live buffer id present");
                        buffer.swap_remove(pos);
                    }
                    Slot::Shard => {
                        self.dead += 1;
                    }
                }
                self.maybe_compact(metric);
                true
            }
        }
    }

    /// Freezes the buffer into a shard, first merging every trailing shard
    /// no larger than the accumulated batch (the logarithmic method).
    fn flush<M: Metric<T>>(&mut self, metric: &M) {
        let mut items = std::mem::take(Arc::make_mut(&mut self.buffer));
        {
            let live = Arc::make_mut(&mut self.live);
            for e in &items {
                live.get_mut(&e.id).expect("buffer entries are live").slot = Slot::Shard;
            }
        }
        while let Some(last) = self.shards.last() {
            if last.len() > items.len() {
                break;
            }
            let merged = self.shards.pop().expect("non-empty checked");
            let live = &self.live;
            let mut reclaimed = 0usize;
            items.extend(unshare_tree(merged).into_iter().filter(|e| {
                let keep = is_current(live, e.id, e.gen);
                reclaimed += usize::from(!keep);
                keep
            }));
            self.dead -= reclaimed;
        }
        self.push_shard(items, metric);
    }

    /// Compacts once stale entries outnumber half the sharded items — or
    /// once retirement watermarks do, which bounds the `retired` map by
    /// the same cycle (compaction clears it) even when merges reclaim the
    /// stale copies themselves first.
    fn maybe_compact<M: Metric<T>>(&mut self, metric: &M) {
        let sharded: usize = self.shards.iter().map(|s| s.len()).sum();
        if self.dead * 2 > sharded || self.retired.len() > sharded {
            self.compact(metric);
        }
    }

    /// Rebuilds everything (buffer excluded) into one shard, dropping
    /// every stale entry.
    fn compact<M: Metric<T>>(&mut self, metric: &M) {
        let mut items: Vec<Entry<T>> = Vec::new();
        let live = &self.live;
        for shard in self.shards.drain(..) {
            items.extend(
                unshare_tree(shard)
                    .into_iter()
                    .filter(|e| is_current(live, e.id, e.gen)),
            );
        }
        self.dead = 0;
        // Every stale copy is gone: retirement watermarks are moot and no
        // live id has shadows left.
        Arc::make_mut(&mut self.retired).clear();
        for ls in Arc::make_mut(&mut self.live).values_mut() {
            ls.dirty = false;
        }
        if !items.is_empty() {
            self.push_shard(items, metric);
        }
    }

    /// The deterministic vantage rng of the shard built at `epoch` —
    /// shared by the incremental path and the parallel one-shot build so
    /// both produce identical trees for identical inputs.
    fn shard_rng(seed: u64, epoch: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn push_shard<M: Metric<T>>(&mut self, items: Vec<Entry<T>>, metric: &M) {
        if items.is_empty() {
            return;
        }
        let mut rng = Self::shard_rng(self.seed, self.epoch);
        self.epoch += 1;
        let tree = VpTree::build(items, &EntryMetric(metric), &mut rng);
        self.shards.push(Arc::new(tree));
        // Merging in flush keeps sizes decreasing; compact leaves one.
        debug_assert!(self.shards.windows(2).all(|w| w[0].len() > w[1].len()));
    }

    /// The `k` nearest live items, sorted by `(distance, id)` — exact and
    /// fully deterministic (bit-identical to [`Self::scan_knn`]). Shards
    /// are searched in parallel on up to `threads` threads (`0` = all
    /// cores); every exact metric call is guarded by the lower bound and
    /// by the sharpest bound any shard has published so far.
    pub fn knn<M>(&self, metric: &M, query: &T, k: usize, threads: usize) -> Vec<WireHit>
    where
        T: Send + Sync,
        M: BoundedMetric<T> + Sync,
    {
        if k == 0 || self.live.is_empty() {
            return Vec::new();
        }
        let shared = SharedBound::unbounded();
        // Buffer first: it is small, and whatever bound it proves
        // transfers to every shard search below. Every exact call takes
        // the current k-th-best distance as its abandonment budget.
        let mut merged = BoundedHeap::new(k, &shared);
        for e in self.buffer.iter() {
            let tau = merged.tau();
            if metric.lower_bound(query, &e.item) <= tau {
                if let Some(d) = metric.distance_within(query, &e.item, tau) {
                    merged.offer_id(e.id, d);
                }
            }
        }
        let q = query_entry(query);
        let per_shard: Vec<Vec<WireHit>> =
            ned_core::batch::par_map(self.shards.len(), threads, |si| {
                let mut collector = ShardCollector {
                    heap: BoundedHeap::new(k, &shared),
                    items: self.shards[si].items(),
                    live: &self.live,
                };
                self.shards[si].search(&EntryMetric(metric), &q, &mut collector);
                collector.heap.into_sorted()
            });
        for hits in per_shard {
            for h in hits {
                merged.offer_id(h.id, h.distance);
            }
        }
        merged.into_sorted()
    }

    /// Every live item within `radius` of `query` (inclusive), sorted by
    /// `(distance, id)`.
    pub fn range<M>(&self, metric: &M, query: &T, radius: f64, threads: usize) -> Vec<WireHit>
    where
        T: Send + Sync,
        M: BoundedMetric<T> + Sync,
    {
        let mut out: Vec<WireHit> = self
            .buffer
            .iter()
            .filter(|e| metric.lower_bound(query, &e.item) <= radius)
            .filter_map(|e| {
                let d = metric.distance_within(query, &e.item, radius)?;
                Some(WireHit {
                    id: e.id,
                    distance: d,
                })
            })
            .collect();
        let q = query_entry(query);
        let per_shard: Vec<Vec<WireHit>> =
            ned_core::batch::par_map(self.shards.len(), threads, |si| {
                let mut collector = RangeCollector {
                    radius,
                    out: Vec::new(),
                    items: self.shards[si].items(),
                    live: &self.live,
                };
                self.shards[si].search(&EntryMetric(metric), &q, &mut collector);
                collector.out
            });
        out.extend(per_shard.into_iter().flatten());
        sort_hits(&mut out);
        out
    }

    /// Full-scan baseline: exact distance to every live item, no bounds,
    /// no index structure. The forest's query results are defined to match
    /// this exactly.
    pub fn scan_knn<M: Metric<T>>(&self, metric: &M, query: &T, k: usize) -> Vec<WireHit> {
        let mut hits: Vec<WireHit> = self
            .entries()
            .map(|(id, item)| WireHit {
                id,
                distance: metric.distance(query, item),
            })
            .collect();
        sort_hits(&mut hits);
        hits.truncate(k);
        hits
    }
}

/// Splits `n` items into at most `max_shards` near-equal, **strictly
/// decreasing**, positive sizes summing to `n` (largest first). Strict
/// decrease keeps the logarithmic method's size invariant; near-equality
/// is what balances build and query fan-out.
fn balanced_shard_sizes(n: usize, max_shards: usize) -> Vec<usize> {
    let mut s = max_shards.max(1);
    // Need base >= 1 after reserving 0..s-1 distinct increments.
    while s > 1 && n < s * (s - 1) / 2 + s {
        s -= 1;
    }
    let stagger = s * (s - 1) / 2;
    let base = (n - stagger) / s;
    let mut rem = n - stagger - base * s;
    let mut sizes = Vec::with_capacity(s);
    for i in 0..s {
        // Largest first: base + (s-1-i) + (remainder soaked by shard 0).
        let extra = if i == 0 { std::mem::take(&mut rem) } else { 0 };
        sizes.push(base + (s - 1 - i) + extra);
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), n);
    debug_assert!(sizes.windows(2).all(|w| w[0] > w[1]));
    sizes
}

/// Consumes a possibly-snapshot-shared shard, returning its entries.
/// A uniquely-owned tree is unwrapped for free; a tree some snapshot
/// still references is left untouched and its entries are cloned out —
/// the only point where snapshotting can cost a deep copy, and only for
/// the shards a merge or compaction physically consumes.
fn unshare_tree<T: Clone>(tree: Arc<VpTree<Entry<T>>>) -> Vec<Entry<T>> {
    match Arc::try_unwrap(tree) {
        Ok(owned) => owned.into_items(),
        Err(shared) => shared.items().to_vec(),
    }
}

/// The query wrapped as an entry (the id is never read by the metric).
fn query_entry<T: Clone>(query: &T) -> Entry<T> {
    Entry {
        id: u64::MAX,
        gen: 0,
        item: query.clone(),
    }
}

/// Is `(id, gen)` the current live copy?
fn is_current(live: &HashMap<u64, LiveSlot>, id: u64, gen: u32) -> bool {
    live.get(&id).is_some_and(|ls| ls.gen == gen)
}

fn sort_hits(hits: &mut [WireHit]) {
    hits.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("NaN distance")
            .then_with(|| a.id.cmp(&b.id))
    });
}

/// The k-th-best distance proven by *any* shard so far, shared across the
/// parallel fan-out as non-negative `f64` bits (bit order equals numeric
/// order there, so `fetch_min` tightens monotonically and lock-free).
///
/// Soundness: if some shard holds `k` candidates all at distance
/// `<= tau`, then the global k-th best is `<= tau`, so any candidate with
/// distance strictly above `tau` can never enter the merged top-k — ties
/// at `tau` are *not* pruned, which is what preserves the deterministic
/// `(distance, id)` ordering.
struct SharedBound(AtomicU64);

impl SharedBound {
    fn unbounded() -> Self {
        SharedBound(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    fn tighten(&self, tau: f64) {
        debug_assert!(tau >= 0.0, "metric distances are non-negative");
        self.0.fetch_min(tau.to_bits(), Ordering::Relaxed);
    }

    fn current(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Max-heap entry ordered by `(distance, id)` — the worst current hit on
/// top, ids breaking distance ties so results are deterministic.
struct WorstFirst(WireHit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.0.distance == other.0.distance && self.0.id == other.0.id
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .distance
            .partial_cmp(&other.0.distance)
            .expect("NaN distance")
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

/// A bounded `(distance, id)` max-heap that publishes its k-th best
/// distance to the shared bound whenever it is full.
struct BoundedHeap<'s> {
    heap: std::collections::BinaryHeap<WorstFirst>,
    k: usize,
    shared: &'s SharedBound,
}

impl<'s> BoundedHeap<'s> {
    fn new(k: usize, shared: &'s SharedBound) -> Self {
        BoundedHeap {
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
            k,
            shared,
        }
    }

    /// Effective pruning bound: the sharpest of this heap's k-th best and
    /// the shared bound. Candidates strictly above it are hopeless;
    /// candidates *at* it may still win on id, so callers must compare
    /// with `>` only.
    fn tau(&self) -> f64 {
        let local = if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().expect("non-empty").0.distance
        };
        local.min(self.shared.current())
    }

    fn offer_id(&mut self, id: u64, distance: f64) {
        let hit = WorstFirst(WireHit { id, distance });
        if self.heap.len() < self.k {
            self.heap.push(hit);
        } else if hit < *self.heap.peek().expect("non-empty") {
            self.heap.pop();
            self.heap.push(hit);
        } else {
            return;
        }
        if self.heap.len() == self.k {
            self.shared
                .tighten(self.heap.peek().expect("non-empty").0.distance);
        }
    }

    fn into_sorted(self) -> Vec<WireHit> {
        let mut hits: Vec<WireHit> = self.heap.into_iter().map(|w| w.0).collect();
        sort_hits(&mut hits);
        hits
    }
}

/// Per-shard k-NN collector: maps item indices back to ids, drops stale
/// copies, feeds the bounded heap.
struct ShardCollector<'a, 's, T> {
    heap: BoundedHeap<'s>,
    items: &'a [Entry<T>],
    live: &'a HashMap<u64, LiveSlot>,
}

impl<T> SearchCollector for ShardCollector<'_, '_, T> {
    fn offer(&mut self, index: usize, distance: f64) {
        let e = &self.items[index];
        if is_current(self.live, e.id, e.gen) {
            self.heap.offer_id(e.id, distance);
        }
    }

    fn tau(&self) -> f64 {
        self.heap.tau()
    }
}

/// Per-shard range collector: fixed bound, unbounded output.
struct RangeCollector<'a, T> {
    radius: f64,
    out: Vec<WireHit>,
    items: &'a [Entry<T>],
    live: &'a HashMap<u64, LiveSlot>,
}

impl<T> SearchCollector for RangeCollector<'_, T> {
    fn offer(&mut self, index: usize, distance: f64) {
        if distance > self.radius {
            return;
        }
        let e = &self.items[index];
        if is_current(self.live, e.id, e.gen) {
            self.out.push(WireHit { id: e.id, distance });
        }
    }

    fn tau(&self) -> f64 {
        self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnBoundedMetric;
    use rand::Rng;

    fn metric() -> FnBoundedMetric<impl Fn(&f64, &f64) -> f64, impl Fn(&f64, &f64) -> f64> {
        FnBoundedMetric(
            |a: &f64, b: &f64| (a - b).abs(),
            |a: &f64, b: &f64| ((a - b).abs() / 8.0).floor() * 8.0,
        )
    }

    fn assert_exact(forest: &ShardedVpForest<f64>, q: f64, k: usize) {
        let m = metric();
        let fast = forest.knn(&m, &q, k, 2);
        let slow = forest.scan_knn(&m, &q, k);
        assert_eq!(fast, slow, "q={q} k={k}");
    }

    #[test]
    fn empty_and_tiny() {
        let m = metric();
        let mut f: ShardedVpForest<f64> = ShardedVpForest::new(4, 1);
        assert!(f.is_empty());
        assert!(f.knn(&m, &1.0, 3, 0).is_empty());
        assert!(f.range(&m, &1.0, 10.0, 0).is_empty());
        f.insert(&m, 7, 3.5);
        assert_eq!(f.len(), 1);
        let hits = f.knn(&m, &0.0, 5, 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
        assert_eq!(hits[0].distance, 3.5);
    }

    #[test]
    fn inserts_roll_into_geometric_shards() {
        let m = metric();
        let mut f = ShardedVpForest::new(8, 2);
        for i in 0..100u64 {
            f.insert(&m, i, (i * 37 % 101) as f64);
        }
        let stats = f.stats();
        assert_eq!(stats.len, 100);
        assert!(stats.buffer < 8);
        assert!(stats.shard_sizes.len() <= 5, "{stats:?}");
        for w in stats.shard_sizes.windows(2) {
            assert!(w[0] > w[1], "sizes must decrease: {stats:?}");
        }
        for q in [0.0, 17.5, 50.0, 120.0] {
            for k in [1, 5, 23, 200] {
                assert_exact(&f, q, k);
            }
        }
    }

    #[test]
    fn removes_and_replacements_stay_exact() {
        let m = metric();
        let mut f = ShardedVpForest::new(6, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut live: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for step in 0..500u64 {
            let roll: f64 = rng.gen_range(0.0..1.0);
            if roll < 0.55 || live.is_empty() {
                let id = rng.gen_range(0..120u64);
                let v: f64 = rng.gen_range(0.0..500.0);
                let fresh = f.insert(&m, id, v);
                assert_eq!(fresh, !live.contains_key(&id), "step {step}");
                live.insert(id, v);
            } else {
                let id = rng.gen_range(0..120u64);
                let removed = f.remove(&m, id);
                assert_eq!(removed, live.remove(&id).is_some(), "step {step}");
            }
            assert_eq!(f.len(), live.len(), "step {step}");
            if step % 23 == 0 {
                let q: f64 = rng.gen_range(0.0..500.0);
                let k = rng.gen_range(1..8usize);
                let fast = f.knn(&m, &q, k, 2);
                let mut want: Vec<WireHit> = live
                    .iter()
                    .map(|(&id, &v)| WireHit {
                        id,
                        distance: (v - q).abs(),
                    })
                    .collect();
                sort_hits(&mut want);
                want.truncate(k);
                assert_eq!(fast, want, "step {step} q={q} k={k}");
            }
        }
    }

    #[test]
    fn range_matches_filtered_scan() {
        let m = metric();
        let mut f = ShardedVpForest::new(5, 5);
        for i in 0..80u64 {
            f.insert(&m, i, (i * 13 % 97) as f64);
        }
        for i in (0..80u64).step_by(3) {
            f.remove(&m, i);
        }
        let got = f.range(&m, &40.0, 15.0, 2);
        let mut want: Vec<WireHit> = f
            .entries()
            .filter_map(|(id, &v)| {
                let d = (v - 40.0_f64).abs();
                (d <= 15.0).then_some(WireHit { id, distance: d })
            })
            .collect();
        sort_hits(&mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn duplicate_values_tie_break_by_id() {
        let m = metric();
        let mut f = ShardedVpForest::new(4, 6);
        for id in [9u64, 3, 7, 1, 5] {
            f.insert(&m, id, 100.0);
        }
        let hits = f.knn(&m, &100.0, 3, 0);
        assert_eq!(
            hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![1, 3, 5],
            "ties must resolve to the smallest ids"
        );
    }

    #[test]
    fn reinsert_after_remove_resurrects_nothing() {
        let m = metric();
        let mut f = ShardedVpForest::new(2, 7);
        f.insert(&m, 1, 10.0);
        f.insert(&m, 2, 20.0);
        f.insert(&m, 3, 30.0); // all in shards now
        assert!(f.remove(&m, 2));
        f.insert(&m, 2, 99.0);
        let hits = f.knn(&m, &20.0, 1, 0);
        assert_eq!(hits[0].id, 1, "the dead 20.0 copy must not reappear");
        let all = f.knn(&m, &0.0, 10, 0);
        assert_eq!(all.len(), 3);
        assert!(all.iter().any(|h| h.id == 2 && h.distance == 99.0));
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let m = metric();
        let entries: Vec<(u64, f64)> = (0..60u64).map(|i| (i, (i * 29 % 83) as f64)).collect();
        let bulk = ShardedVpForest::from_entries(8, 9, entries.clone(), &m);
        let mut inc = ShardedVpForest::new(8, 9);
        for (id, v) in entries {
            inc.insert(&m, id, v);
        }
        for q in [0.0, 41.0, 80.0] {
            for k in [1, 7, 60] {
                assert_eq!(bulk.knn(&m, &q, k, 0), inc.knn(&m, &q, k, 0), "q={q} k={k}");
            }
        }
    }

    #[test]
    fn balanced_bulk_build_equals_single_shard() {
        let m = metric();
        let entries: Vec<(u64, f64)> = (0..137u64).map(|i| (i, (i * 31 % 151) as f64)).collect();
        let single = ShardedVpForest::from_entries(16, 9, entries.clone(), &m);
        let balanced = ShardedVpForest::from_entries_balanced(16, 9, entries.clone(), &m, 4);
        let stats = balanced.stats();
        assert_eq!(stats.shard_sizes.len(), 4, "{stats:?}");
        assert!(stats.shard_sizes.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(stats.shard_sizes.iter().sum::<usize>(), 137);
        for q in [0.0, 40.0, 151.0] {
            for k in [1usize, 9, 137] {
                assert_eq!(
                    balanced.knn(&m, &q, k, 2),
                    single.knn(&m, &q, k, 0),
                    "q={q} k={k}"
                );
            }
            assert_eq!(
                balanced.range(&m, &q, 25.0, 2),
                single.range(&m, &q, 25.0, 0)
            );
        }
        // churn on top of a balanced build stays exact
        let mut f = balanced;
        for i in 0..60u64 {
            f.insert(&m, 1000 + i, (i * 7 % 91) as f64);
        }
        for i in (0..137u64).step_by(3) {
            f.remove(&m, i);
        }
        assert_exact(&f, 33.0, 11);
    }

    #[test]
    fn balanced_shard_sizes_edge_cases() {
        assert_eq!(balanced_shard_sizes(10, 1), vec![10]);
        assert_eq!(balanced_shard_sizes(10, 3), vec![5, 3, 2]);
        let sizes = balanced_shard_sizes(4000, 8);
        assert_eq!(sizes.iter().sum::<usize>(), 4000);
        assert_eq!(sizes.len(), 8);
        assert!(sizes.windows(2).all(|w| w[0] > w[1]));
        // tiny n: shard count shrinks rather than emitting empty shards
        let sizes = balanced_shard_sizes(3, 8);
        assert!(sizes.iter().all(|&s| s > 0));
        assert_eq!(sizes.iter().sum::<usize>(), 3);
        assert_eq!(balanced_shard_sizes(1, 4), vec![1]);
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let m = metric();
        let mut f = ShardedVpForest::new(4, 8);
        for i in 0..40u64 {
            f.insert(&m, i, (i * 7 % 53) as f64);
        }
        let snap = f.clone();
        let before = snap.knn(&m, &10.0, 5, 0);
        // Churn the original hard enough to merge, compact, and reuse ids.
        for i in 0..40u64 {
            f.remove(&m, i);
        }
        for i in 0..60u64 {
            f.insert(&m, i + 100, (i * 11 % 97) as f64);
        }
        assert_eq!(snap.len(), 40, "snapshot must not see later writes");
        assert_eq!(snap.knn(&m, &10.0, 5, 0), before);
        assert_exact(&snap, 10.0, 5);
        assert_exact(&f, 10.0, 5);
        assert!(f.knn(&m, &10.0, 5, 0).iter().all(|h| h.id >= 100));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let m = metric();
        let mut f = ShardedVpForest::new(16, 10);
        let mut rng = SmallRng::seed_from_u64(11);
        for i in 0..300u64 {
            f.insert(&m, i, rng.gen_range(0.0..1000.0));
        }
        for q in [0.0, 333.3, 999.0] {
            assert_eq!(f.knn(&m, &q, 9, 1), f.knn(&m, &q, 9, 0), "q={q}");
            assert_eq!(f.range(&m, &q, 50.0, 1), f.range(&m, &q, 50.0, 0), "q={q}");
        }
    }
}
