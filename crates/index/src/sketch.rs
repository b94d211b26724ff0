//! Metric-preserving vector sketches: a cache-friendly filter tier in
//! front of the exact TED\* kernel.
//!
//! Every [`NodeSignature`] is mapped once, at insert time, to a small
//! fixed-dimension vector of `u16` lanes (a [`Sketch`]) such that a
//! cheap scalar distance between two sketches **provably lower-bounds**
//! NED between the signatures. Candidate generation for knn/range then
//! becomes a linear scan over a flat structure-of-arrays sketch bank —
//! one contiguous `u16` array the CPU streams through and
//! autovectorizes — instead of a pointer-chasing walk over two
//! [`PreparedTree`]s per candidate pair. Survivors are re-ranked by the
//! budgeted early-abandoning kernel
//! ([`ned_core::ted_star_prepared_within`] via
//! [`SignatureMetric::distance_within`]), sharing one pruning radius
//! exactly like the sharded forest does.
//!
//! # Sketch layout
//!
//! A sketch has [`SKETCH_DIM`] = `SKETCH_LEVELS + SKETCH_LEVELS ×
//! SKETCH_BUCKETS` lanes:
//!
//! * **Size lanes** `0..SKETCH_LEVELS`: lane `l` holds level `l`'s node
//!   count (BFS level of the k-adjacent tree), saturated to `u16`;
//!   levels at and beyond `SKETCH_LEVELS - 1` fold into the last size
//!   lane.
//! * **Histogram lanes**: for each level `l < SKETCH_LEVELS`, a group
//!   of [`SKETCH_BUCKETS`] lanes holds the level's subtree-class
//!   histogram aggregated by bucket, where a node's bucket is a stable
//!   **subtree fingerprint** modulo the bucket count — a bottom-up
//!   FNV-1a combine of the node's children's fingerprints in sorted
//!   order (a WL-style feature). The fingerprint is a pure function of
//!   the subtree's isomorphism class — isomorphic subtrees always land
//!   in the same bucket — so it is stable across processes and safe to
//!   persist (unlike interner ids), and it never materializes
//!   per-subtree canonical codes, so sketching stays cheap enough for
//!   the per-mutation write path (hash collisions merely merge classes
//!   into a bucket, which the soundness argument below already
//!   absorbs).
//!
//! # Why the bound is sound
//!
//! Write `d = NED(a, b)` and let `Δ` denote per-lane absolute
//! differences.
//!
//! * **Size part.** TED\* pays at least `Σ_l |size_a(l) − size_b(l)|`
//!   (each level's forced padding). Folding tail levels into one lane
//!   only shrinks the sum (triangle inequality), and saturation to
//!   `u16` is a monotone 1-Lipschitz map, so the plain scalar L1 over
//!   the size lanes is `≤ d`.
//! * **Histogram part.** One edit operation changes at most two nodes'
//!   subtree classes per level, shifting that level's class-histogram
//!   L1 by at most 4 — so `hist_L1(l) ≤ 4d` for **every** level
//!   (the same argument behind
//!   [`ned_core::ted_star_class_lower_bound`]). Aggregating a
//!   histogram into buckets can only reduce its L1 (again the triangle
//!   inequality: equal classes always share a bucket), and saturation
//!   only reduces it further, therefore
//!   `ceil(bucket_L1(l) / 4) ≤ d` per level and the max over levels is
//!   still `≤ d`.
//!
//! [`sketch_lower_bound`] returns
//! `max(L1(size lanes), max_l ceil(L1(hist lanes of l) / 4))`, which by
//! the two points above never exceeds NED — so pruning candidates whose
//! bound exceeds the current radius drops **nothing** the exact scan
//! would keep. Exact mode is property-tested bit-identical to the
//! unfiltered forest (`tests/sketch_filter.rs`).
//!
//! # Approximate mode
//!
//! [`sketch_estimate`] replaces the per-level max with the L1 over
//! *all* histogram lanes divided by 4 — a sharper, cheaper, fully
//! vectorizable scalar that may exceed NED (an edit shifts every
//! level's histogram on its ancestor path, so summing levels
//! over-counts up to the tree depth). Used as the pruning bound it
//! trades a measured recall (`sketch_approx_recall` in the benchmark
//! trajectory, asserted ≥ 0.95 on the BA-4000 workload) for fewer
//! exact refinements.

use crate::forest::{BoundedHeap, ForestHit, SharedBound};
use crate::signatures::SignatureMetric;
use crate::BoundedMetric;
use ned_core::{NodeSignature, PreparedTree};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tree levels a sketch resolves individually; deeper levels fold into
/// the last size lane and are ignored by the histogram lanes (both
/// directions only weaken the bound). NED's extraction depth `k` is
/// almost always far below this.
pub const SKETCH_LEVELS: usize = 8;

/// Histogram buckets per level.
pub const SKETCH_BUCKETS: usize = 8;

/// Total `u16` lanes per sketch (size lanes + per-level histogram
/// groups): 72 lanes = 144 bytes.
pub const SKETCH_DIM: usize = SKETCH_LEVELS + SKETCH_LEVELS * SKETCH_BUCKETS;

#[inline]
fn sat16(v: u32) -> u16 {
    v.min(u32::from(u16::MAX)) as u16
}

/// Scalar L1 between two equal-length lane slices. The compiler
/// autovectorizes this shape (widen, subtract, absolute value,
/// accumulate); lane sums cannot overflow `u32` for `SKETCH_DIM`-sized
/// inputs.
#[inline]
fn lane_l1(a: &[u16], b: &[u16]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0u32;
    for i in 0..a.len() {
        acc += (i32::from(a[i]) - i32::from(b[i])).unsigned_abs();
    }
    acc
}

/// Per-node stable subtree fingerprints: a bottom-up FNV-1a combine of
/// each node's children's fingerprints in sorted order. A pure function
/// of the subtree's isomorphism class (isomorphic subtrees hash equal),
/// stable across processes — and, unlike
/// [`ned_tree::ahu::subtree_fingerprints`], it never materializes
/// per-subtree canonical code strings, which keeps sketching fast
/// enough to run on every index mutation.
fn stable_subtree_fingerprints(tree: &ned_tree::Tree) -> Vec<u64> {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    debug_assert!(!tree.is_empty(), "signature trees are never empty");
    let n = tree.len();
    let mut out = vec![0u64; n];
    let mut kids: Vec<u64> = Vec::new();
    // BFS-ordered storage: children always follow their parent, so a
    // reverse scan sees every child before its parent.
    for v in (0..n as u32).rev() {
        kids.clear();
        kids.extend(tree.children(v).map(|c| out[c as usize]));
        kids.sort_unstable();
        let mut h = FNV_OFFSET;
        for &k in &kids {
            for b in k.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        out[v as usize] = h;
    }
    out
}

/// The root's stable subtree fingerprint: a process-stable,
/// isomorphism-invariant hash of the whole tree's shape (two trees hash
/// equal iff their sorted-children bottom-up FNV-1a combines collide —
/// in particular whenever they are isomorphic). The replication layer's
/// live-set fingerprint folds one of these per live id, so two replicas
/// holding the same acknowledged history agree on it **across
/// processes** — which interner root classes, being process-local,
/// could never provide.
pub fn stable_tree_fingerprint(tree: &ned_tree::Tree) -> u64 {
    stable_subtree_fingerprints(tree)[0]
}

/// Coarse cap on the process-wide sketch cache: ~150 bytes per entry,
/// so the cache tops out around 40 MB before a full clear (the same
/// coarse eviction shape as [`ned_core::TedMemo`]).
const SKETCH_CACHE_CAP: usize = 1 << 18;

/// Process-wide sketch cache keyed by the prepared tree's interned root
/// class ([`PreparedTree::root_class`]): equal class ⇔ isomorphic tree
/// ⇔ identical sketch. Interner ids are process-local, which is fine
/// here — the cache never persists (persisted banks store raw lanes).
/// Shapes repeat heavily under churn (an edge flipped back restores an
/// already-seen class), so steady-state per-mutation sketching becomes
/// a read-lock + 144-byte copy instead of a tree walk.
fn sketch_cached(prepared: &PreparedTree, out: &mut [u16]) {
    use std::sync::{LazyLock, RwLock};
    static CACHE: LazyLock<RwLock<HashMap<u32, [u16; SKETCH_DIM]>>> =
        LazyLock::new(|| RwLock::new(HashMap::new()));
    let class = prepared.root_class();
    if let Some(lanes) = CACHE.read().expect("sketch cache poisoned").get(&class) {
        out.copy_from_slice(lanes);
        return;
    }
    sketch_into(prepared, out);
    let mut cache = CACHE.write().expect("sketch cache poisoned");
    if cache.len() >= SKETCH_CACHE_CAP {
        cache.clear();
    }
    cache.insert(class, out.try_into().expect("out is SKETCH_DIM long"));
}

/// Writes the sketch of `prepared` into `out` (length [`SKETCH_DIM`]).
/// See the [module docs](self) for the lane layout. This is the
/// uncached path; the bank and [`Sketch::of`] go through a
/// root-class-keyed process cache.
pub fn sketch_into(prepared: &PreparedTree, out: &mut [u16]) {
    assert_eq!(out.len(), SKETCH_DIM, "sketch output slice has wrong dim");
    out.fill(0);
    for (l, &s) in prepared.level_sizes().iter().enumerate() {
        let lane = l.min(SKETCH_LEVELS - 1);
        out[lane] = out[lane].saturating_add(sat16(s));
    }
    let tree = prepared.tree();
    let fp = stable_subtree_fingerprints(tree);
    for l in 0..tree.num_levels().min(SKETCH_LEVELS) {
        for v in tree.level(l) {
            let bucket = (fp[v as usize] % SKETCH_BUCKETS as u64) as usize;
            let lane = SKETCH_LEVELS + l * SKETCH_BUCKETS + bucket;
            out[lane] = out[lane].saturating_add(1);
        }
    }
}

/// The provable lower bound:
/// `max(L1(sizes), max_l ceil(L1(hist_l) / 4)) ≤ NED`. Soundness proof
/// in the [module docs](self).
#[inline]
pub fn sketch_lower_bound(a: &[u16], b: &[u16]) -> u64 {
    let size = u64::from(lane_l1(&a[..SKETCH_LEVELS], &b[..SKETCH_LEVELS]));
    let mut worst = 0u32;
    for l in 0..SKETCH_LEVELS {
        let s = SKETCH_LEVELS + l * SKETCH_BUCKETS;
        worst = worst.max(lane_l1(
            &a[s..s + SKETCH_BUCKETS],
            &b[s..s + SKETCH_BUCKETS],
        ));
    }
    size.max(u64::from(worst).div_ceil(4))
}

/// The approximate estimator:
/// `max(L1(sizes), ceil(L1(all hist lanes) / 4))`. Sharper and fully
/// vectorizable, but **may exceed** NED (see the [module docs](self))
/// — exact mode never uses it.
#[inline]
pub fn sketch_estimate(a: &[u16], b: &[u16]) -> u64 {
    let size = u64::from(lane_l1(&a[..SKETCH_LEVELS], &b[..SKETCH_LEVELS]));
    let hist = u64::from(lane_l1(&a[SKETCH_LEVELS..], &b[SKETCH_LEVELS..]));
    size.max(hist.div_ceil(4))
}

/// One signature's sketch as an owned value — the unit the property
/// tests and the bank's rows are built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch(pub [u16; SKETCH_DIM]);

impl Sketch {
    /// Sketches a signature's prepared tree.
    pub fn of(sig: &NodeSignature) -> Sketch {
        let mut lanes = [0u16; SKETCH_DIM];
        sketch_cached(sig.prepared(), &mut lanes);
        Sketch(lanes)
    }

    /// [`sketch_lower_bound`] against another sketch.
    pub fn lower_bound(&self, other: &Sketch) -> u64 {
        sketch_lower_bound(&self.0, &other.0)
    }

    /// [`sketch_estimate`] against another sketch.
    pub fn estimate(&self, other: &Sketch) -> u64 {
        sketch_estimate(&self.0, &other.0)
    }

    /// The raw lanes.
    pub fn lanes(&self) -> &[u16; SKETCH_DIM] {
        &self.0
    }
}

/// How [`crate::SignatureIndex`] routes queries through its sketch
/// bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SketchMode {
    /// Bypass the bank: queries take the sharded VP-forest path
    /// unchanged (the pre-sketch serving configuration).
    Off,
    /// Pre-filter by [`sketch_lower_bound`] — results stay bit-identical
    /// to the forest (no false drops; the default).
    #[default]
    Exact,
    /// Pre-filter by [`sketch_estimate`] — faster, with measured (not
    /// guaranteed) recall.
    Approx,
}

impl SketchMode {
    /// Stable wire/codec encoding (`0/1/2`).
    pub fn to_u32(self) -> u32 {
        match self {
            SketchMode::Off => 0,
            SketchMode::Exact => 1,
            SketchMode::Approx => 2,
        }
    }

    /// Inverse of [`SketchMode::to_u32`]; `None` for unknown values.
    pub fn from_u32(v: u32) -> Option<SketchMode> {
        match v {
            0 => Some(SketchMode::Off),
            1 => Some(SketchMode::Exact),
            2 => Some(SketchMode::Approx),
            _ => None,
        }
    }
}

impl std::fmt::Display for SketchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SketchMode::Off => "off",
            SketchMode::Exact => "exact",
            SketchMode::Approx => "approx",
        })
    }
}

impl std::str::FromStr for SketchMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(SketchMode::Off),
            "exact" => Ok(SketchMode::Exact),
            "approx" => Ok(SketchMode::Approx),
            other => Err(format!(
                "unknown sketch mode '{other}' (expected off|exact|approx)"
            )),
        }
    }
}

/// Work counters the bank accumulates across queries; shared by every
/// clone of a bank (publication snapshots observe one set of serving
/// counters).
#[derive(Debug, Default)]
struct SketchCounters {
    queries: AtomicU64,
    scanned: AtomicU64,
    refined: AtomicU64,
    pruned: AtomicU64,
}

/// A point-in-time snapshot of a bank's shape and work counters (the
/// `sketch:` line of the server's `stats` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchStats {
    /// Live sketch rows (equals the index's live signature count).
    pub rows: usize,
    /// Queries answered through the bank since creation.
    pub queries: u64,
    /// Sketch rows scanned (bound evaluations).
    pub scanned: u64,
    /// Candidates refined by the exact budgeted kernel.
    pub refined: u64,
    /// Candidates dismissed by the sketch bound alone.
    pub pruned: u64,
}

impl std::fmt::Display for SketchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rows {}, queries {}, scanned {}, refined {}, pruned {}",
            self.rows, self.queries, self.scanned, self.refined, self.pruned
        )
    }
}

/// Rows per parallel scan chunk: large enough that a chunk amortizes
/// its dispatch, small enough that the threads balance. A whole number
/// of lane chunks, so a scan chunk never starts inside one.
const SCAN_CHUNK: usize = 1024;

/// Rows per copy-on-write lane chunk: 256 rows × [`SKETCH_DIM`] lanes ×
/// 2 bytes = 36 KB — small enough that a churn write republishing one
/// row copies 36 KB instead of the whole bank, large enough that the
/// scan still streams long contiguous runs.
const CHUNK_ROWS: usize = 256;
const _: () = assert!(SCAN_CHUNK.is_multiple_of(CHUNK_ROWS));

/// Chunk index and in-chunk lane offset for row `r`.
#[inline]
fn chunk_loc(r: usize) -> (usize, usize) {
    (r / CHUNK_ROWS, (r % CHUNK_ROWS) * SKETCH_DIM)
}

/// Splits a flat row-major lane buffer into `Arc`-shared chunks.
fn chunk_lanes(flat: &[u16]) -> Vec<Arc<Vec<u16>>> {
    flat.chunks(CHUNK_ROWS * SKETCH_DIM)
        .map(|c| Arc::new(c.to_vec()))
        .collect()
}

/// The cap of [`order_by_bound`]'s counting sort: a bound below it gets
/// a bucket of its own, and every bound at or above it shares one
/// overflow bucket. Sketch bounds between nodes of ordinary graphs sit
/// far below the cap; a row reaches it only when its level sizes differ
/// from the query's by about a thousand nodes (a hub's neighborhood
/// against a leaf's, say), so the overflow bucket is usually empty.
pub const BOUND_CAP: usize = 1024;

/// Orders rows by ascending `(bounds[r], ids[r])` in O(n) plus the cost
/// of the buckets actually visited: the refine stage of
/// [`SketchBank::knn`] walks this order and stops at the first bound past
/// its radius, typically after a few percent of the rows, so fully
/// sorting every row would be wasted work.
///
/// One counting pass files the row indices into `BOUND_CAP + 1` buckets
/// by bound (see [`BOUND_CAP`]), each bucket in row order. The returned
/// iterator walks the buckets in ascending order and sorts each one only
/// when it first reaches it: a bucket below the cap holds a single bound,
/// so it is sorted by id alone; the overflow bucket mixes bounds and is
/// sorted by `(bound, id)`. Either way the visit order is **exactly**
/// ascending `(bound, id)` — the order a full sort would give — so a
/// caller's results and counters do not depend on the cap. Ids must be
/// distinct for that order to be total.
///
/// `bounds[r]` and `ids[r]` describe row `r`; the iterator yields
/// `(bound, row)` pairs.
///
/// ```
/// use ned_index::sketch::order_by_bound;
///
/// let bounds = [3, 1, 3, 5000, 1, 4000];
/// let ids = [10, 40, 5, 7, 20, 9];
/// let order: Vec<(u32, u32)> = order_by_bound(&bounds, &ids).collect();
/// assert_eq!(order, [(1, 4), (1, 1), (3, 2), (3, 0), (4000, 5), (5000, 3)]);
/// ```
pub fn order_by_bound<'a>(bounds: &'a [u32], ids: &'a [u64]) -> BoundOrder<'a> {
    assert_eq!(bounds.len(), ids.len(), "one id per bound");
    assert!(bounds.len() <= u32::MAX as usize, "row index overflows u32");
    let bucket = |b: u32| (b as usize).min(BOUND_CAP);
    // Counts, then exclusive prefix sums (bucket starts); the scatter
    // advances each start to its bucket's end.
    let mut ends = [0u32; BOUND_CAP + 1];
    for &b in bounds {
        ends[bucket(b)] += 1;
    }
    let mut acc = 0u32;
    for e in &mut ends {
        let count = *e;
        *e = acc;
        acc += count;
    }
    let mut rows = vec![0u32; bounds.len()];
    for (r, &b) in bounds.iter().enumerate() {
        let slot = &mut ends[bucket(b)];
        rows[*slot as usize] = r as u32;
        *slot += 1;
    }
    BoundOrder {
        bounds,
        ids,
        rows,
        ends,
        bucket: 0,
        pos: 0,
        sorted_end: 0,
    }
}

/// Iterator over rows in ascending `(bound, id)` order, yielding
/// `(bound, row)`; built by [`order_by_bound`], which documents the
/// bucketed ordering.
#[derive(Debug)]
pub struct BoundOrder<'a> {
    bounds: &'a [u32],
    ids: &'a [u64],
    /// Row indices grouped by bucket; `rows[..sorted_end]` is in final
    /// order.
    rows: Vec<u32>,
    /// `ends[b]` is one past bucket `b`'s last slot in `rows`.
    ends: [u32; BOUND_CAP + 1],
    /// Next bucket to sort.
    bucket: usize,
    /// Next slot to yield.
    pos: usize,
    sorted_end: usize,
}

impl Iterator for BoundOrder<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        while self.pos == self.sorted_end {
            if self.bucket > BOUND_CAP {
                return None;
            }
            let end = self.ends[self.bucket] as usize;
            let (bounds, ids) = (self.bounds, self.ids);
            let bucket = &mut self.rows[self.sorted_end..end];
            if self.bucket < BOUND_CAP {
                bucket.sort_unstable_by_key(|&r| ids[r as usize]);
            } else {
                bucket.sort_unstable_by_key(|&r| (bounds[r as usize], ids[r as usize]));
            }
            self.sorted_end = end;
            self.bucket += 1;
        }
        let r = self.rows[self.pos];
        self.pos += 1;
        Some((self.bounds[r as usize], r))
    }
}

/// The SoA sketch bank: one row per live signature, lanes stored in
/// fixed-size **`Arc`-shared chunks**, scanned linearly at query time
/// and fed into the shared-radius exact refine. Maintained by
/// [`crate::SignatureIndex`] on every insert/replace/remove so rows
/// mirror the live set exactly.
///
/// Cloning the bank — which happens on **every publication** (the
/// concurrent index snapshots the master copy) — shares the lane chunks
/// by pointer; the writer's next mutation copies only the chunk it
/// touches ([`Arc::make_mut`]). That turns the per-publication lane
/// copy from O(rows) to O(chunks touched), the difference the
/// `delta/ba4000-edge-churn` trajectory entry measures.
///
/// ```
/// use ned_core::NodeSignature;
/// use ned_graph::Graph;
/// use ned_index::sketch::{SketchBank, SketchMode};
///
/// // Index a 6-cycle's nodes, then query with a node of an 8-cycle.
/// let hexagon =
///     Graph::undirected_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
/// let mut bank = SketchBank::new();
/// for v in hexagon.nodes() {
///     bank.upsert(u64::from(v), &NodeSignature::extract(&hexagon, v, 3));
/// }
/// assert_eq!(bank.len(), 6);
///
/// let octagon = Graph::undirected_from_edges(
///     8,
///     &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)],
/// );
/// let probe = NodeSignature::extract(&octagon, 0, 3);
/// let hits = bank.knn(&probe, 3, 1, SketchMode::Exact);
/// // Within 3 hops every cycle node looks like a path — distance 0.
/// assert_eq!(hits.len(), 3);
/// assert!(hits.iter().all(|h| h.distance == 0.0));
/// assert!(bank.stats().queries >= 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SketchBank {
    ids: Vec<u64>,
    /// Row `r`'s lanes live in chunk `r / CHUNK_ROWS` at offset
    /// `(r % CHUNK_ROWS) * SKETCH_DIM`; rows never straddle chunks. The
    /// tail chunk may hold stale lanes past the live row count after a
    /// swap-remove — they are never read and never serialized.
    lanes: Vec<Arc<Vec<u16>>>,
    sigs: Vec<NodeSignature>,
    row_of: HashMap<u64, u32>,
    counters: Arc<SketchCounters>,
}

impl SketchBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk build: sketches every entry on up to `threads` threads
    /// (`0` = all cores).
    pub fn bulk(entries: &[(u64, NodeSignature)], threads: usize) -> Self {
        let rows = ned_core::batch::par_map(entries.len(), threads, |i| {
            let mut lanes = [0u16; SKETCH_DIM];
            sketch_cached(entries[i].1.prepared(), &mut lanes);
            lanes
        });
        let mut ids: Vec<u64> = Vec::with_capacity(entries.len());
        let mut flat: Vec<u16> = Vec::with_capacity(entries.len() * SKETCH_DIM);
        let mut sigs: Vec<NodeSignature> = Vec::with_capacity(entries.len());
        let mut row_of: HashMap<u64, u32> = HashMap::with_capacity(entries.len());
        for ((id, sig), lanes) in entries.iter().zip(rows) {
            match row_of.get(id) {
                // Later duplicates win, matching forest replace semantics.
                Some(&r) => {
                    let r = r as usize;
                    flat[r * SKETCH_DIM..(r + 1) * SKETCH_DIM].copy_from_slice(&lanes);
                    sigs[r] = sig.clone();
                }
                None => {
                    row_of.insert(*id, ids.len() as u32);
                    ids.push(*id);
                    flat.extend_from_slice(&lanes);
                    sigs.push(sig.clone());
                }
            }
        }
        SketchBank {
            ids,
            lanes: chunk_lanes(&flat),
            sigs,
            row_of,
            counters: Arc::new(SketchCounters::default()),
        }
    }

    /// Rebuilds a bank from entries plus their **persisted** lanes (the
    /// NEDIDX snapshot fast path: no re-sketching). `lanes` is row-major
    /// in entry order. Panics if the shapes disagree — the codec
    /// validates sizes before calling.
    pub fn from_rows(entries: &[(u64, NodeSignature)], lanes: Vec<u16>) -> Self {
        assert_eq!(lanes.len(), entries.len() * SKETCH_DIM, "lane shape");
        let mut row_of = HashMap::with_capacity(entries.len());
        for (r, (id, _)) in entries.iter().enumerate() {
            let prev = row_of.insert(*id, r as u32);
            assert!(prev.is_none(), "duplicate id {id} in persisted bank");
        }
        SketchBank {
            ids: entries.iter().map(|&(id, _)| id).collect(),
            lanes: chunk_lanes(&lanes),
            sigs: entries.iter().map(|(_, s)| s.clone()).collect(),
            row_of,
            counters: Arc::new(SketchCounters::default()),
        }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Inserts or replaces the row for `id`.
    pub fn upsert(&mut self, id: u64, sig: &NodeSignature) {
        match self.row_of.get(&id) {
            Some(&r) => {
                let r = r as usize;
                let mut lanes = [0u16; SKETCH_DIM];
                sketch_cached(sig.prepared(), &mut lanes);
                self.row_lanes_mut(r).copy_from_slice(&lanes);
                self.sigs[r] = sig.clone();
            }
            None => {
                let r = self.ids.len();
                self.row_of.insert(id, r as u32);
                self.ids.push(id);
                let mut lanes = [0u16; SKETCH_DIM];
                sketch_cached(sig.prepared(), &mut lanes);
                let (c, off) = chunk_loc(r);
                if c == self.lanes.len() {
                    self.lanes
                        .push(Arc::new(Vec::with_capacity(CHUNK_ROWS * SKETCH_DIM)));
                }
                let chunk = Arc::make_mut(&mut self.lanes[c]);
                // The tail chunk may still hold a swap-removed row's
                // stale lanes; overwrite in place instead of growing.
                if chunk.len() < off + SKETCH_DIM {
                    chunk.resize(off + SKETCH_DIM, 0);
                }
                chunk[off..off + SKETCH_DIM].copy_from_slice(&lanes);
                self.sigs.push(sig.clone());
            }
        }
    }

    /// Drops the row for `id` (swap-remove). Returns `false` for
    /// unknown ids.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(r) = self.row_of.remove(&id) else {
            return false;
        };
        let r = r as usize;
        let last = self.ids.len() - 1;
        if r != last {
            let moved = self.ids[last];
            self.ids.swap(r, last);
            self.sigs.swap(r, last);
            let last_row: [u16; SKETCH_DIM] = self.row_lanes(last).try_into().expect("row dim");
            self.row_lanes_mut(r).copy_from_slice(&last_row);
            self.row_of.insert(moved, r as u32);
        }
        self.ids.pop();
        self.sigs.pop();
        // The vacated tail row's lanes go stale in place (never read);
        // only a fully emptied tail chunk is dropped — neither path
        // copies a shared chunk just to shrink it.
        if chunk_loc(last).1 == 0 {
            self.lanes.pop();
        }
        true
    }

    /// The lanes of `id`'s row, if live (the codec reads rows in id
    /// order through this).
    pub fn lanes_of(&self, id: u64) -> Option<&[u16]> {
        self.row_of.get(&id).map(|&r| self.row_lanes(r as usize))
    }

    /// Current counters snapshot.
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            rows: self.ids.len(),
            queries: self.counters.queries.load(Ordering::Relaxed),
            scanned: self.counters.scanned.load(Ordering::Relaxed),
            refined: self.counters.refined.load(Ordering::Relaxed),
            pruned: self.counters.pruned.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn row_lanes(&self, r: usize) -> &[u16] {
        let (c, off) = chunk_loc(r);
        &self.lanes[c][off..off + SKETCH_DIM]
    }

    /// Mutable view of row `r`, copying its chunk first if a clone still
    /// shares it (the copy-on-write step).
    fn row_lanes_mut(&mut self, r: usize) -> &mut [u16] {
        let (c, off) = chunk_loc(r);
        &mut Arc::make_mut(&mut self.lanes[c])[off..off + SKETCH_DIM]
    }

    /// Row ids in row order: `ids()[r]` is the id of the row whose bound
    /// is `scan_bounds(..)[r]`.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Every row's sketch bound to `query`, in row order: the
    /// [`sketch_lower_bound`] (or, in [`SketchMode::Approx`], the
    /// [`sketch_estimate`]) against the query's sketch. One pass streams
    /// the lane chunks into a single buffer; with `threads > 1` the rows
    /// are split into 1024-row runs on scoped threads.
    pub fn scan_bounds(&self, query: &NodeSignature, threads: usize, mode: SketchMode) -> Vec<u32> {
        let approx = mode == SketchMode::Approx;
        let mut qs = [0u16; SKETCH_DIM];
        sketch_cached(query.prepared(), &mut qs);
        let mut bounds = vec![0u32; self.ids.len()];
        ned_core::batch::par_chunks_mut(&mut bounds, SCAN_CHUNK, threads, |ci, out| {
            let first = ci * (SCAN_CHUNK / CHUNK_ROWS);
            for (lanes, out) in self.lanes[first..].iter().zip(out.chunks_mut(CHUNK_ROWS)) {
                // `out` holds only live rows, so the zip never reads the
                // tail chunk's stale lanes.
                for (b, row) in out.iter_mut().zip(lanes.chunks_exact(SKETCH_DIM)) {
                    let row: &[u16; SKETCH_DIM] = row.try_into().expect("row dim");
                    let bound = if approx {
                        sketch_estimate(&qs, row)
                    } else {
                        sketch_lower_bound(&qs, row)
                    };
                    // Both are at most a `u32` lane sum.
                    *b = bound as u32;
                }
            }
        });
        bounds
    }

    /// The `k` nearest rows to `query`, sorted by `(distance, id)`.
    /// In [`SketchMode::Exact`] (or `Off`, treated as exact here) the
    /// result is bit-identical to a full scan: rows are refined in
    /// ascending `(bound, id)` order ([`order_by_bound`]) and the loop
    /// stops once the bound alone exceeds the current k-th best
    /// distance; every exact call runs the budgeted kernel with that
    /// radius. Only the buckets the loop reaches are ever sorted.
    pub fn knn(
        &self,
        query: &NodeSignature,
        k: usize,
        threads: usize,
        mode: SketchMode,
    ) -> Vec<ForestHit> {
        if k == 0 || self.ids.is_empty() {
            return Vec::new();
        }
        let bounds = self.scan_bounds(query, threads, mode);
        let shared = SharedBound::unbounded();
        let mut heap = BoundedHeap::new(k, &shared);
        let mut refined = 0u64;
        let mut cut = 0u64;
        for (pos, (bound, r)) in order_by_bound(&bounds, &self.ids).enumerate() {
            let tau = heap.tau();
            if f64::from(bound) > tau {
                cut = (bounds.len() - pos) as u64;
                break;
            }
            if let Some(d) = SignatureMetric.distance_within(query, &self.sigs[r as usize], tau) {
                heap.offer_id(self.ids[r as usize], d);
            }
            refined += 1;
        }
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counters
            .scanned
            .fetch_add(bounds.len() as u64, Ordering::Relaxed);
        self.counters.refined.fetch_add(refined, Ordering::Relaxed);
        self.counters.pruned.fetch_add(cut, Ordering::Relaxed);
        heap.into_sorted()
    }

    /// Every row within `radius` of `query` (inclusive), sorted by
    /// `(distance, id)`. The radius is fixed, so survivors refine in
    /// parallel inside the scan chunks.
    pub fn range(
        &self,
        query: &NodeSignature,
        radius: u64,
        threads: usize,
        mode: SketchMode,
    ) -> Vec<ForestHit> {
        if self.ids.is_empty() {
            return Vec::new();
        }
        let approx = mode == SketchMode::Approx;
        let mut qs = [0u16; SKETCH_DIM];
        sketch_cached(query.prepared(), &mut qs);
        let n = self.ids.len();
        let chunks = n.div_ceil(SCAN_CHUNK);
        let refined = AtomicU64::new(0);
        let per_chunk: Vec<Vec<ForestHit>> = ned_core::batch::par_map(chunks, threads, |ci| {
            let start = ci * SCAN_CHUNK;
            let end = (start + SCAN_CHUNK).min(n);
            let mut out = Vec::new();
            let mut local_refined = 0u64;
            for r in start..end {
                let b = if approx {
                    sketch_estimate(&qs, self.row_lanes(r))
                } else {
                    sketch_lower_bound(&qs, self.row_lanes(r))
                };
                if b > radius {
                    continue;
                }
                local_refined += 1;
                if let Some(d) =
                    SignatureMetric.distance_within(query, &self.sigs[r], radius as f64)
                {
                    out.push(ForestHit {
                        id: self.ids[r],
                        distance: d,
                    });
                }
            }
            refined.fetch_add(local_refined, Ordering::Relaxed);
            out
        });
        let mut hits: Vec<ForestHit> = per_chunk.into_iter().flatten().collect();
        crate::forest::sort_hits(&mut hits);
        let refined = refined.load(Ordering::Relaxed);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counters.scanned.fetch_add(n as u64, Ordering::Relaxed);
        self.counters.refined.fetch_add(refined, Ordering::Relaxed);
        self.counters
            .pruned
            .fetch_add(n as u64 - refined, Ordering::Relaxed);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sigs(n: usize, k: usize, seed: u64) -> Vec<NodeSignature> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, 3, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        ned_core::bulk_signatures(&g, &nodes, k, 0)
    }

    #[test]
    fn lower_bound_never_exceeds_distance() {
        let a = sigs(60, 3, 1);
        let b = sigs(60, 3, 2);
        for x in a.iter().step_by(7) {
            let sx = Sketch::of(x);
            for y in b.iter().step_by(11) {
                let d = x.distance(y);
                let lb = sx.lower_bound(&Sketch::of(y));
                assert!(lb <= d, "sketch bound {lb} exceeds NED {d}");
            }
        }
    }

    #[test]
    fn sketch_is_isomorphism_invariant() {
        // Same structure from different graphs → identical sketches.
        let a = sigs(50, 3, 9);
        for x in &a {
            for y in &a {
                if x.prepared().code() == y.prepared().code() {
                    assert_eq!(Sketch::of(x), Sketch::of(y));
                    assert_eq!(Sketch::of(x).lower_bound(&Sketch::of(y)), 0);
                }
            }
        }
    }

    #[test]
    fn bank_knn_matches_naive_scan() {
        let db = sigs(120, 3, 3);
        let probes = sigs(10, 3, 4);
        let mut bank = SketchBank::new();
        for (i, s) in db.iter().enumerate() {
            bank.upsert(i as u64, s);
        }
        for q in &probes {
            let mut naive: Vec<(u64, u64)> = db
                .iter()
                .enumerate()
                .map(|(i, s)| (q.distance(s), i as u64))
                .collect();
            naive.sort_unstable();
            for k in [1usize, 4, 9] {
                let hits = bank.knn(q, k, 1, SketchMode::Exact);
                assert_eq!(hits.len(), k);
                for (h, &(d, id)) in hits.iter().zip(&naive) {
                    assert_eq!((h.distance as u64, h.id), (d, id));
                }
            }
        }
    }

    #[test]
    fn scan_bounds_match_per_row_bounds_on_any_thread_count() {
        // 2300 rows, then swap-removes: several scan chunks, a partial
        // tail lane chunk holding stale lanes, ids out of row order.
        let db = sigs(230, 3, 12);
        let mut bank = SketchBank::new();
        for id in 0..2300u64 {
            bank.upsert(id, &db[id as usize % db.len()]);
        }
        for id in (0..2300u64).step_by(97) {
            assert!(bank.remove(id));
        }
        let q = &sigs(5, 3, 13)[2];
        let qs = Sketch::of(q);
        for mode in [SketchMode::Exact, SketchMode::Approx] {
            let want: Vec<u32> = bank
                .ids()
                .iter()
                .map(|&id| {
                    let row = bank.lanes_of(id).expect("live id");
                    let b = match mode {
                        SketchMode::Approx => sketch_estimate(qs.lanes(), row),
                        _ => sketch_lower_bound(qs.lanes(), row),
                    };
                    b as u32
                })
                .collect();
            for threads in [1usize, 2, 3] {
                assert_eq!(
                    bank.scan_bounds(q, threads, mode),
                    want,
                    "{mode}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn order_by_bound_is_the_full_sort() {
        let mut rng = SmallRng::seed_from_u64(14);
        for n in [0usize, 1, 7, 300, 3000] {
            let bounds: Vec<u32> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..4),
                    1 => rng.gen_range(0..40),
                    2 => rng.gen_range(BOUND_CAP as u32 - 2..BOUND_CAP as u32 + 2),
                    _ => rng.gen_range(0..u32::MAX),
                })
                .collect();
            let mut ids: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            let mut want: Vec<(u32, u64, u32)> =
                (0..n).map(|r| (bounds[r], ids[r], r as u32)).collect();
            want.sort_unstable();
            let want: Vec<(u32, u32)> = want.into_iter().map(|(b, _, r)| (b, r)).collect();
            let order: Vec<(u32, u32)> = order_by_bound(&bounds, &ids).collect();
            assert_eq!(order, want, "n {n}");
        }
    }

    #[test]
    fn bank_range_matches_naive_scan() {
        let db = sigs(100, 3, 5);
        let q = &sigs(5, 3, 6)[0];
        let mut bank = SketchBank::new();
        for (i, s) in db.iter().enumerate() {
            bank.upsert(i as u64, s);
        }
        for radius in [0u64, 2, 5, 20] {
            let hits = bank.range(q, radius, 2, SketchMode::Exact);
            let naive: Vec<(u64, u64)> = {
                let mut v: Vec<(u64, u64)> = db
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| {
                        let d = q.distance(s);
                        (d <= radius).then_some((d, i as u64))
                    })
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(hits.len(), naive.len(), "radius {radius}");
            for (h, &(d, id)) in hits.iter().zip(&naive) {
                assert_eq!((h.distance as u64, h.id), (d, id));
            }
        }
    }

    #[test]
    fn upsert_remove_keep_rows_consistent() {
        let db = sigs(40, 3, 7);
        let mut bank = SketchBank::new();
        for (i, s) in db.iter().enumerate() {
            bank.upsert(i as u64, s);
        }
        assert_eq!(bank.len(), 40);
        // Replace a row, remove a middle row and the last row.
        bank.upsert(3, &db[10]);
        assert_eq!(bank.len(), 40);
        assert!(bank.remove(17));
        assert!(bank.remove(39));
        assert!(!bank.remove(17));
        assert!(!bank.remove(999));
        assert_eq!(bank.len(), 38);
        // Surviving rows still answer exactly.
        let q = &db[20];
        let hits = bank.knn(q, 38, 1, SketchMode::Exact);
        assert_eq!(hits.len(), 38);
        assert!(hits.iter().all(|h| h.id != 17 && h.id != 39));
        // Row 3 now carries db[10]'s signature.
        let three = hits.iter().find(|h| h.id == 3).expect("id 3 live");
        assert_eq!(three.distance as u64, q.distance(&db[10]));
    }

    #[test]
    fn clone_is_copy_on_write_per_chunk() {
        // > CHUNK_ROWS rows → two lane chunks, so a clone + one-row write
        // must copy exactly the touched chunk and keep sharing the other.
        let db = sigs(300, 3, 8);
        let entries: Vec<(u64, NodeSignature)> = db
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect();
        let mut bank = SketchBank::bulk(&entries, 0);
        assert_eq!(bank.lanes.len(), 2, "300 rows span two 256-row chunks");

        let snapshot = bank.clone();
        for (c, chunk) in bank.lanes.iter().enumerate() {
            assert!(
                Arc::ptr_eq(chunk, &snapshot.lanes[c]),
                "clone shares chunk {c} by pointer"
            );
        }

        let before: Vec<u16> = bank.lanes_of(0).expect("row 0 live").to_vec();
        bank.upsert(0, &db[1]);
        assert!(
            !Arc::ptr_eq(&bank.lanes[0], &snapshot.lanes[0]),
            "writing row 0 copied chunk 0"
        );
        assert!(
            Arc::ptr_eq(&bank.lanes[1], &snapshot.lanes[1]),
            "chunk 1 is untouched and still shared"
        );
        // The snapshot still reads the pre-write lanes; the writer reads
        // the new ones.
        assert_eq!(snapshot.lanes_of(0).expect("row 0 live"), &before[..]);
        assert_eq!(
            bank.lanes_of(0).expect("row 0 live"),
            bank.lanes_of(1).expect("row 1 live"),
            "row 0 now carries db[1]'s sketch"
        );
    }

    #[test]
    fn approx_mode_estimates_dominate_lower_bound() {
        let a = sigs(30, 4, 11);
        for x in a.iter().step_by(3) {
            for y in a.iter().step_by(5) {
                let (sx, sy) = (Sketch::of(x), Sketch::of(y));
                assert!(sx.estimate(&sy) >= sx.lower_bound(&sy) / SKETCH_LEVELS as u64);
            }
        }
    }

    #[test]
    fn mode_round_trips() {
        for m in [SketchMode::Off, SketchMode::Exact, SketchMode::Approx] {
            assert_eq!(SketchMode::from_u32(m.to_u32()), Some(m));
            assert_eq!(m.to_string().parse::<SketchMode>().unwrap(), m);
        }
        assert_eq!(SketchMode::from_u32(9), None);
        assert!("fast".parse::<SketchMode>().is_err());
    }
}
