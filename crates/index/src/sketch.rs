//! Metric-preserving vector sketches: a cache-friendly filter tier in
//! front of the exact TED\* kernel.
//!
//! Every [`NodeSignature`] is mapped once, at insert time, to a small
//! fixed-dimension vector of `u16` lanes (a [`Sketch`]) such that a
//! cheap scalar distance between two sketches **provably lower-bounds**
//! NED between the signatures. Candidate generation for knn/range then
//! becomes a linear scan over a flat structure-of-arrays sketch bank —
//! lane-major `u16` columns the CPU streams through and autovectorizes
//! (see [the scan image](#the-scan-image)) — instead of a
//! pointer-chasing walk over two
//! [`PreparedTree`]s per candidate pair. Survivors are re-ranked by the
//! budgeted early-abandoning kernel
//! ([`ned_core::ted_star_prepared_within`] via
//! [`NodeSignature::distance_within`]) under the current k-th best
//! distance. The bank is the whole live set of a
//! [`crate::SignatureIndex`]: it holds each row's id and signature next
//! to its lanes.
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
//! would keep. This is the only bound the bank prunes with; its answers
//! are property-tested bit-identical to a full scan and to a reference
//! computed from a model of the live set (`tests/sketch_filter.rs`).
//!
//! # The scan image
//!
//! A sketch of a `k`-level tree is zero past its first `k` levels, so
//! the rows of one 64-row bank chunk share most of their zero lanes: at
//! k = 3 they use about 14 of the 72. Besides its row-major rows (which
//! [`SketchBank::lanes_of`] and persistence read), each chunk keeps a
//! **scan image**: a `u128` mask of the lanes any of its rows has ever
//! held non-zero, and one lane-major column of 64 lanes per such lane.
//! Removes never clear the mask, so it is a superset of the lanes the
//! current rows use; a lane outside it reads 0 in every row, and adds the
//! query's own value to its group's L1 as a constant. The bound pass
//! ([`SketchBank::scan_bounds`], [`SketchBank::range`]) scores all rows
//! of a chunk at once from the image, bit-identical to
//! [`sketch_lower_bound`] per row; at k = 3 it reads ~1.8 KB per chunk
//! instead of 9.2 KB.

use crate::topk::{sort_hits, TopK};
use ned_core::{NodeSignature, PreparedTree, WireHit};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
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

    /// The raw lanes.
    pub fn lanes(&self) -> &[u16; SKETCH_DIM] {
        &self.0
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

/// Rows per copy-on-write bank chunk. A chunk holds its rows' ids,
/// signatures and lanes (64 × (8 + 16 + 144) bytes ≈ 10.8 KB) plus its
/// scan image (128 bytes per live lane, ~1.8 KB at k = 3), so a write
/// batch copies about 12.6 KB per chunk it touches. Chosen by
/// measurement (k = 3, 2-vCPU host). On BA-4000, one edge flip's batch
/// through apply and publication took 42.6, 40.9 and 53.1 µs at 16, 32
/// and 64 rows (medians of seven alternating runs), and a memo-warm knn
/// 149, 130 and 138 µs. On BA-40000 after flip churn, which scatters
/// the copied chunks across the heap, the bound pass took 1141–1206 µs
/// at 32 rows, 968–1012 µs at 64 and 930–967 µs at 128 (905–992 µs for
/// lanes in 256-row chunks with ids and signatures kept apart), while a
/// flip batch took 143–151, 165–172 and 283 µs. 64 rows give up about
/// 12 µs per small-index batch to win back most of the large-index
/// scan; the rest of that gap is still open.
const CHUNK_ROWS: usize = 64;

/// Rows per chunk group, which is also the unit of a parallel scan run.
/// A publication bumps one reference count per group (per 1024 rows), and
/// a write copies the 16-pointer table of each group it touches.
const GROUP_ROWS: usize = 1024;
const GROUP_CHUNKS: usize = GROUP_ROWS / CHUNK_ROWS;
const _: () = assert!(GROUP_ROWS.is_multiple_of(CHUNK_ROWS));

/// Chunk index and position in the chunk for row `r`.
#[inline]
fn chunk_loc(r: usize) -> (usize, usize) {
    (r / CHUNK_ROWS, r % CHUNK_ROWS)
}

/// The lane groups [`sketch_lower_bound`] combines, as lane ranges: the
/// size lanes first, then one group per level's histogram.
const EXACT_GROUPS: [(usize, usize); 1 + SKETCH_LEVELS] = {
    let mut groups = [(0, SKETCH_LEVELS); 1 + SKETCH_LEVELS];
    let mut l = 0;
    while l < SKETCH_LEVELS {
        let s = SKETCH_LEVELS + l * SKETCH_BUCKETS;
        groups[1 + l] = (s, s + SKETCH_BUCKETS);
        l += 1;
    }
    groups
};

// A chunk's live mask has one bit per lane, and masks the lanes below
// any lane index up to `SKETCH_DIM` by a shift.
const _: () = assert!(SKETCH_DIM < 128);

/// A query's lanes, prepared once per scan for [`Chunk::bounds`].
struct ScanQuery {
    lanes: [u16; SKETCH_DIM],
    /// The query's lane sum over each of [`EXACT_GROUPS`].
    sums: [u32; 1 + SKETCH_LEVELS],
}

impl ScanQuery {
    fn new(query: &NodeSignature) -> ScanQuery {
        let mut lanes = [0u16; SKETCH_DIM];
        sketch_cached(query.prepared(), &mut lanes);
        let mut sums = [0u32; 1 + SKETCH_LEVELS];
        for (sum, &(s, e)) in sums.iter_mut().zip(&EXACT_GROUPS) {
            *sum = lanes[s..e].iter().map(|&v| u32::from(v)).sum();
        }
        ScanQuery { lanes, sums }
    }
}

/// One lane's column of a chunk's scan image: the lane's value in each
/// row of the chunk.
type Column = [u16; CHUNK_ROWS];

/// Raises each row's `worst` to its L1 over one lane group: `k` (the
/// group's dead-lane constant) plus `|q − column|` over the group's live
/// `cols` and their query values `qs`. `a.saturating_sub(b) |
/// b.saturating_sub(a)` is the exact `u16` distance (one side is 0).
///
/// Column by column, 32 rows at a time: the 32 `u32` sums fill half the
/// vector registers, so they stay there across the columns. It is kept
/// out of line so that the sums provably alias no column.
#[inline(never)]
fn raise_to_group_l1(worst: &mut [u32; CHUNK_ROWS], k: u32, cols: &[Column], qs: &[u16]) {
    const STRIP: usize = 32;
    for (s, worst) in worst.chunks_exact_mut(STRIP).enumerate() {
        let mut acc = [k; STRIP];
        for (col, &q) in cols.iter().zip(qs) {
            let col: &[u16; STRIP] = col[s * STRIP..][..STRIP].try_into().expect("strip");
            // The `u16` distances first, so they are taken 8 rows to a
            // vector instead of 4.
            let mut d = [0u16; STRIP];
            for (d, &v) in d.iter_mut().zip(col) {
                *d = q.saturating_sub(v) | v.saturating_sub(q);
            }
            for (a, d) in acc.iter_mut().zip(d) {
                *a += u32::from(d);
            }
        }
        for (w, a) in worst.iter_mut().zip(acc) {
            *w = (*w).max(a);
        }
    }
}

/// One copy-on-write piece of a [`SketchBank`]: up to [`CHUNK_ROWS`]
/// consecutive rows, each row's id, signature and lanes side by side
/// under the chunk's single `Arc`, plus the chunk's **scan image**.
///
/// Bit `j` of `live` is set once any row of the chunk has held a
/// non-zero lane `j`. Removes and replacements never clear it, so it is
/// a superset of the lanes the current rows use, and a lane outside it
/// reads 0 in every row. `image` holds one lane-major column per live
/// lane, in lane order; a column's entries past the last row are
/// don't-cares. The row-major lanes stay the rows' record (persistence
/// and [`SketchBank::lanes_of`] read them); the bound pass reads the
/// image (see [`Chunk::bounds`]).
#[derive(Debug, Clone)]
struct Chunk {
    ids: Vec<u64>,
    sigs: Vec<NodeSignature>,
    /// `ids.len() × SKETCH_DIM` lanes, row-major.
    lanes: Vec<u16>,
    live: u128,
    image: Vec<Column>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            ids: Vec::with_capacity(CHUNK_ROWS),
            sigs: Vec::with_capacity(CHUNK_ROWS),
            lanes: Vec::with_capacity(CHUNK_ROWS * SKETCH_DIM),
            live: 0,
            image: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn row(&self, i: usize) -> &[u16] {
        &self.lanes[i * SKETCH_DIM..(i + 1) * SKETCH_DIM]
    }

    fn push(&mut self, id: u64, sig: NodeSignature, lanes: &[u16]) {
        self.ids.push(id);
        self.sigs.push(sig);
        self.lanes.extend_from_slice(lanes);
        self.image_row(self.len() - 1, lanes);
    }

    fn set(&mut self, i: usize, id: u64, sig: NodeSignature, lanes: &[u16]) {
        self.ids[i] = id;
        self.sigs[i] = sig;
        self.lanes[i * SKETCH_DIM..(i + 1) * SKETCH_DIM].copy_from_slice(lanes);
        self.image_row(i, lanes);
    }

    /// Writes row `i`'s lanes into the scan image, first giving a column
    /// to every lane the row makes live.
    fn image_row(&mut self, i: usize, lanes: &[u16]) {
        // 16 lanes to a `u32` at a time: folding all 72 into a `u128`
        // shifted by the running lane index took ~0.5 µs per row, this
        // ~40 ns.
        let used = lanes.chunks(16).enumerate().fold(0u128, |m, (c, lanes)| {
            let bits = (0..lanes.len()).fold(0u32, |b, j| b | (u32::from(lanes[j] != 0) << j));
            m | (u128::from(bits) << (16 * c))
        });
        if used & !self.live != 0 {
            self.widen(self.live | used);
        }
        let mut bits = self.live;
        for col in &mut self.image {
            col[i] = lanes[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
    }

    /// Rebuilds the image over the live set `live ⊇ self.live`: existing
    /// columns move to their new places, new ones start at 0.
    fn widen(&mut self, live: u128) {
        let mut image = vec![[0u16; CHUNK_ROWS]; live.count_ones() as usize];
        let (mut bits, mut old) = (live, self.image.iter());
        for col in &mut image {
            if (self.live >> bits.trailing_zeros()) & 1 == 1 {
                *col = *old.next().expect("one column per live lane");
            }
            bits &= bits - 1;
        }
        self.live = live;
        self.image = image;
    }

    /// Every row's sketch bound to `q` into `out` (`out.len() ==
    /// self.len()`), bit-identical to [`sketch_lower_bound`] against the
    /// row's lanes.
    ///
    /// From the image, all rows are scored at once, one column at a time.
    /// Each lane group's L1 is the sum over its live columns plus a
    /// constant: a lane that is not live reads 0 in every row, so it adds
    /// the query's own value.
    fn bounds(&self, q: &ScanQuery, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.len());
        // The query's value at each column.
        let mut qcol = [0u16; SKETCH_DIM];
        let mut bits = self.live;
        for q_at in &mut qcol[..self.image.len()] {
            *q_at = q.lanes[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        // The columns of the live lanes below `lane`.
        let below = |lane: usize| (self.live & ((1u128 << lane) - 1)).count_ones() as usize;
        let mut size_l1 = [0u32; CHUNK_ROWS];
        let mut worst = [0u32; CHUNK_ROWS];
        // The largest L1 among histogram groups with no live lane.
        let mut floor = 0u32;
        for (g, (&(s, e), &sum)) in EXACT_GROUPS.iter().zip(&q.sums).enumerate() {
            let cols = below(s)..below(e);
            let qs = &qcol[cols.clone()];
            let k = sum - qs.iter().map(|&v| u32::from(v)).sum::<u32>();
            if g == 0 {
                raise_to_group_l1(&mut size_l1, k, &self.image[cols], qs);
            } else if cols.is_empty() {
                floor = floor.max(k);
            } else {
                raise_to_group_l1(&mut worst, k, &self.image[cols], qs);
            }
        }
        for ((b, &s), &w) in out.iter_mut().zip(&size_l1).zip(&worst) {
            *b = s.max(w.max(floor).div_ceil(4));
        }
    }

    /// Removes and returns the last row.
    fn pop(&mut self) -> (u64, NodeSignature, [u16; SKETCH_DIM]) {
        let i = self.len() - 1;
        let lanes: [u16; SKETCH_DIM] = self.row(i).try_into().expect("row dim");
        self.lanes.truncate(i * SKETCH_DIM);
        let id = self.ids.pop().expect("chunks are never empty");
        let sig = self.sigs.pop().expect("one signature per id");
        (id, sig, lanes)
    }
}

/// Average live ids per [`RowMap`] piece: a write that adds or drops an
/// id copies one piece of about this many entries (~8 KB).
const PIECE_IDS: usize = 256;

/// The bank's id → row map, split into `Arc`-shared pieces by a keyed
/// hash of the id. A clone shares every piece; a write copies only the
/// piece it changes. The piece count is a power of two and doubles
/// whenever the pieces average more than [`PIECE_IDS`] ids.
#[derive(Debug, Clone)]
struct RowMap {
    hasher: RandomState,
    pieces: Vec<Arc<HashMap<u64, u32>>>,
    len: usize,
}

impl Default for RowMap {
    fn default() -> Self {
        RowMap::with_capacity(0)
    }
}

impl RowMap {
    fn with_capacity(ids: usize) -> RowMap {
        let pieces = ids.div_ceil(PIECE_IDS).next_power_of_two();
        RowMap {
            hasher: RandomState::new(),
            pieces: (0..pieces).map(|_| Arc::default()).collect(),
            len: 0,
        }
    }

    fn piece(&self, id: u64) -> usize {
        self.hasher.hash_one(id) as usize & (self.pieces.len() - 1)
    }

    fn get(&self, id: u64) -> Option<u32> {
        self.pieces[self.piece(id)].get(&id).copied()
    }

    /// Maps `id` to `row`, replacing any previous row.
    fn insert(&mut self, id: u64, row: u32) {
        let p = self.piece(id);
        if Arc::make_mut(&mut self.pieces[p]).insert(id, row).is_none() {
            self.len += 1;
            if self.len > self.pieces.len() * PIECE_IDS {
                self.grow();
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<u32> {
        let p = self.piece(id);
        // Look first, so a miss never copies a shared piece.
        self.pieces[p].get(&id)?;
        let row = Arc::make_mut(&mut self.pieces[p]).remove(&id);
        self.len -= 1;
        row
    }

    /// Doubles the piece count and redistributes every id.
    fn grow(&mut self) {
        let mut next = RowMap {
            hasher: self.hasher.clone(),
            pieces: (0..self.pieces.len() * 2).map(|_| Arc::default()).collect(),
            len: 0,
        };
        for piece in &self.pieces {
            for (&id, &row) in piece.iter() {
                next.insert(id, row);
            }
        }
        *self = next;
    }
}

/// The cap of [`order_by_bound`]'s counting sort: a bound below it gets
/// a bucket of its own, and every bound at or above it shares one
/// overflow bucket. Sketch bounds between nodes of ordinary graphs sit
/// far below the cap; a row reaches it only when its level sizes differ
/// from the query's by about a thousand nodes (a hub's neighborhood
/// against a leaf's, say), so the overflow bucket is usually empty.
pub const BOUND_CAP: usize = 1024;

/// Orders rows by ascending `(bounds[r], id_of(r))` in O(n) plus the cost
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
/// `bounds[r]` and `id_of(r)` describe row `r`; the iterator yields
/// `(bound, row)` pairs. `id_of` runs only for rows in the buckets the
/// iterator reaches, so a caller whose ids are not in one flat array
/// need not gather them.
///
/// ```
/// use ned_index::sketch::order_by_bound;
///
/// let bounds = [3, 1, 3, 5000, 1, 4000];
/// let ids = [10, 40, 5, 7, 20, 9];
/// let order: Vec<(u32, u32)> = order_by_bound(&bounds, |r| ids[r as usize]).collect();
/// assert_eq!(order, [(1, 4), (1, 1), (3, 2), (3, 0), (4000, 5), (5000, 3)]);
/// ```
pub fn order_by_bound<F: Fn(u32) -> u64>(bounds: &[u32], id_of: F) -> BoundOrder<'_, F> {
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
        id_of,
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
pub struct BoundOrder<'a, F> {
    bounds: &'a [u32],
    id_of: F,
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

impl<F: Fn(u32) -> u64> Iterator for BoundOrder<'_, F> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        while self.pos == self.sorted_end {
            if self.bucket > BOUND_CAP {
                return None;
            }
            let end = self.ends[self.bucket] as usize;
            let (bounds, id_of) = (self.bounds, &self.id_of);
            let bucket = &mut self.rows[self.sorted_end..end];
            if self.bucket < BOUND_CAP {
                bucket.sort_unstable_by_key(|&r| id_of(r));
            } else {
                bucket.sort_unstable_by_key(|&r| (bounds[r as usize], id_of(r)));
            }
            self.sorted_end = end;
            self.bucket += 1;
        }
        let r = self.rows[self.pos];
        self.pos += 1;
        Some((self.bounds[r as usize], r))
    }
}

/// The SoA sketch bank: one row per live signature, scanned linearly at
/// query time and fed into the shared-radius exact refine. It is the
/// live set of [`crate::SignatureIndex`]: every insert, replace and
/// remove lands here, and every query, persistence and fingerprint pass
/// reads from here.
///
/// Rows live in 64-row **`Arc`-shared chunks** that keep each row's id,
/// signature and lanes together, gathered into `Arc`-shared groups of 16
/// chunks; the id → row map is split into `Arc`-shared pieces. Cloning
/// the bank — which happens on **every publication** (the concurrent
/// index snapshots the master copy) — bumps one reference count per
/// group and per piece and copies no row; the writer's next mutation
/// copies only the chunks, group tables and pieces it touches
/// ([`Arc::make_mut`]). A write batch therefore costs what it changes,
/// not what the bank holds.
///
/// ```
/// use ned_core::NodeSignature;
/// use ned_graph::Graph;
/// use ned_index::sketch::SketchBank;
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
/// let hits = bank.knn(&probe, 3, 1);
/// // Within 3 hops every cycle node looks like a path — distance 0.
/// assert_eq!(hits.len(), 3);
/// assert!(hits.iter().all(|h| h.distance == 0.0));
/// assert!(bank.stats().queries >= 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SketchBank {
    /// Row `r` is entry `r % CHUNK_ROWS` of chunk `r / CHUNK_ROWS`, and
    /// chunk `c` is entry `c % GROUP_CHUNKS` of group `c / GROUP_CHUNKS`.
    /// Every chunk but the last is full, every group but the last holds
    /// `GROUP_CHUNKS` chunks, and none is empty.
    groups: Vec<Arc<Vec<Arc<Chunk>>>>,
    len: usize,
    row_of: RowMap,
    counters: Arc<SketchCounters>,
}

impl SketchBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk build: sketches every entry on up to `threads` threads
    /// (`0` = all cores). A later duplicate id replaces the earlier row.
    pub fn bulk(entries: &[(u64, NodeSignature)], threads: usize) -> Self {
        let rows = ned_core::batch::par_map(entries.len(), threads, |i| {
            let mut lanes = [0u16; SKETCH_DIM];
            sketch_cached(entries[i].1.prepared(), &mut lanes);
            lanes
        });
        let mut bank = SketchBank::with_capacity(entries.len());
        for ((id, sig), lanes) in entries.iter().zip(rows) {
            bank.put(*id, sig.clone(), &lanes);
        }
        bank
    }

    /// Rebuilds a bank from entries plus their **persisted** lanes (the
    /// NEDIDX snapshot fast path: no re-sketching). `lanes` is row-major
    /// in entry order. Panics if the shapes disagree or an id repeats —
    /// the codec validates both before calling.
    pub fn from_rows(entries: &[(u64, NodeSignature)], lanes: Vec<u16>) -> Self {
        assert_eq!(lanes.len(), entries.len() * SKETCH_DIM, "lane shape");
        let mut bank = SketchBank::with_capacity(entries.len());
        for ((id, sig), row) in entries.iter().zip(lanes.chunks_exact(SKETCH_DIM)) {
            assert!(
                bank.row_of.get(*id).is_none(),
                "duplicate id {id} in persisted bank"
            );
            bank.put(*id, sig.clone(), row);
        }
        bank
    }

    fn with_capacity(rows: usize) -> Self {
        SketchBank {
            groups: Vec::with_capacity(rows.div_ceil(GROUP_ROWS)),
            row_of: RowMap::with_capacity(rows),
            ..SketchBank::default()
        }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or replaces the row for `id`.
    pub fn upsert(&mut self, id: u64, sig: &NodeSignature) {
        let mut lanes = [0u16; SKETCH_DIM];
        sketch_cached(sig.prepared(), &mut lanes);
        self.put(id, sig.clone(), &lanes);
    }

    /// [`SketchBank::upsert`] with the lanes already computed.
    fn put(&mut self, id: u64, sig: NodeSignature, lanes: &[u16]) {
        match self.row_of.get(id) {
            Some(r) => {
                let (c, i) = chunk_loc(r as usize);
                self.chunk_mut(c).set(i, id, sig, lanes);
            }
            None => {
                let r = self.len;
                self.row_of.insert(id, r as u32);
                if r.is_multiple_of(GROUP_ROWS) {
                    self.groups.push(Arc::new(Vec::with_capacity(GROUP_CHUNKS)));
                }
                if r.is_multiple_of(CHUNK_ROWS) {
                    let group = self.groups.last_mut().expect("row r has a group");
                    Arc::make_mut(group).push(Arc::new(Chunk::new()));
                }
                self.chunk_mut(r / CHUNK_ROWS).push(id, sig, lanes);
                self.len += 1;
            }
        }
    }

    fn chunk(&self, c: usize) -> &Chunk {
        &self.groups[c / GROUP_CHUNKS][c % GROUP_CHUNKS]
    }

    /// Chunk `c` for writing, copying it and its group's pointer table
    /// first if a clone still shares them (the copy-on-write step).
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        let group = Arc::make_mut(&mut self.groups[c / GROUP_CHUNKS]);
        Arc::make_mut(&mut group[c % GROUP_CHUNKS])
    }

    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.groups.iter().flat_map(|g| g.iter().map(|c| &**c))
    }

    /// Drops the row for `id` (swap-remove: the last row moves into its
    /// place). Returns `false` for unknown ids.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(r) = self.row_of.remove(id) else {
            return false;
        };
        let (r, last) = (r as usize, self.len - 1);
        let (moved, sig, lanes) = self.chunk_mut(last / CHUNK_ROWS).pop();
        if last.is_multiple_of(CHUNK_ROWS) {
            // The tail chunk is empty now: drop it, and its group too if
            // that was the group's only chunk.
            let group = self.groups.last_mut().expect("a live row has a group");
            Arc::make_mut(group).pop();
            if group.is_empty() {
                self.groups.pop();
            }
        }
        self.len = last;
        if r != last {
            let (c, i) = chunk_loc(r);
            self.chunk_mut(c).set(i, moved, sig, &lanes);
            self.row_of.insert(moved, r as u32);
        }
        true
    }

    /// The lanes of `id`'s row, if live (the codec reads rows in id
    /// order through this).
    pub fn lanes_of(&self, id: u64) -> Option<&[u16]> {
        let (c, i) = chunk_loc(self.row_of.get(id)? as usize);
        Some(self.chunk(c).row(i))
    }

    /// The signature stored under `id`, if live.
    pub fn get(&self, id: u64) -> Option<&NodeSignature> {
        let (c, i) = chunk_loc(self.row_of.get(id)? as usize);
        Some(&self.chunk(c).sigs[i])
    }

    /// Every live `(id, signature)` pair, in row order: the `r`-th item
    /// is the row whose bound is `scan_bounds(..)[r]`.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &NodeSignature)> {
        self.chunks()
            .flat_map(|c| c.ids.iter().copied().zip(&c.sigs))
    }

    /// The id of row `row` (`row < len()`), the key [`order_by_bound`]
    /// breaks bound ties by.
    pub fn id_at(&self, row: u32) -> u64 {
        let (c, i) = chunk_loc(row as usize);
        self.chunk(c).ids[i]
    }

    /// Current counters snapshot.
    pub fn stats(&self) -> SketchStats {
        SketchStats {
            rows: self.len,
            queries: self.counters.queries.load(Ordering::Relaxed),
            scanned: self.counters.scanned.load(Ordering::Relaxed),
            refined: self.counters.refined.load(Ordering::Relaxed),
            pruned: self.counters.pruned.load(Ordering::Relaxed),
        }
    }

    /// Every row's sketch bound to `query`, in row order: the
    /// [`sketch_lower_bound`] against the query's sketch. One pass streams
    /// the chunks' scan images (see the [module docs](self)) into a
    /// single buffer; with `threads > 1` the chunk groups (1024 rows
    /// each) are split over scoped threads.
    pub fn scan_bounds(&self, query: &NodeSignature, threads: usize) -> Vec<u32> {
        let q = ScanQuery::new(query);
        let mut bounds = vec![0u32; self.len];
        ned_core::batch::par_chunks_mut(&mut bounds, GROUP_ROWS, threads, |g, out| {
            for (chunk, out) in self.groups[g].iter().zip(out.chunks_mut(CHUNK_ROWS)) {
                chunk.bounds(&q, out);
            }
        });
        bounds
    }

    /// The `k` nearest rows to `query`, sorted by `(distance, id)`,
    /// bit-identical to a full scan: rows are refined in ascending `(bound, id)` order
    /// ([`order_by_bound`]) and the loop stops once
    /// the bound alone exceeds the current k-th best distance; every
    /// exact call runs the budgeted kernel with that radius. Only the
    /// buckets the loop reaches are ever sorted.
    pub fn knn(&self, query: &NodeSignature, k: usize, threads: usize) -> Vec<WireHit> {
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        let bounds = self.scan_bounds(query, threads);
        let mut top = TopK::new(k);
        let mut refined = 0u64;
        let mut cut = 0u64;
        for (pos, (bound, r)) in order_by_bound(&bounds, |r| self.id_at(r)).enumerate() {
            let tau = top.bound().unwrap_or(u64::MAX);
            if u64::from(bound) > tau {
                cut = (bounds.len() - pos) as u64;
                break;
            }
            let (c, i) = chunk_loc(r as usize);
            let chunk = self.chunk(c);
            if let Some(d) = query.distance_within(&chunk.sigs[i], tau) {
                top.push(WireHit {
                    id: chunk.ids[i],
                    distance: d as f64,
                });
            }
            refined += 1;
        }
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counters
            .scanned
            .fetch_add(bounds.len() as u64, Ordering::Relaxed);
        self.counters.refined.fetch_add(refined, Ordering::Relaxed);
        self.counters.pruned.fetch_add(cut, Ordering::Relaxed);
        top.into_sorted()
    }

    /// Every row within `radius` of `query` (inclusive), sorted by
    /// `(distance, id)`. The radius is fixed, so survivors refine in
    /// parallel, one chunk group per task.
    pub fn range(&self, query: &NodeSignature, radius: u64, threads: usize) -> Vec<WireHit> {
        if self.len == 0 {
            return Vec::new();
        }
        let q = ScanQuery::new(query);
        let refined = AtomicU64::new(0);
        let per_group = ned_core::batch::par_map(self.groups.len(), threads, |g| {
            let mut out = Vec::new();
            let mut local_refined = 0u64;
            let mut bounds = [0u32; CHUNK_ROWS];
            for chunk in self.groups[g].iter() {
                let bounds = &mut bounds[..chunk.len()];
                chunk.bounds(&q, bounds);
                for (i, &b) in bounds.iter().enumerate() {
                    if u64::from(b) > radius {
                        continue;
                    }
                    local_refined += 1;
                    if let Some(d) = query.distance_within(&chunk.sigs[i], radius) {
                        out.push(WireHit {
                            id: chunk.ids[i],
                            distance: d as f64,
                        });
                    }
                }
            }
            refined.fetch_add(local_refined, Ordering::Relaxed);
            out
        });
        let mut hits: Vec<WireHit> = per_group.into_iter().flatten().collect();
        sort_hits(&mut hits);
        let n = self.len as u64;
        let refined = refined.load(Ordering::Relaxed);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counters.scanned.fetch_add(n, Ordering::Relaxed);
        self.counters.refined.fetch_add(refined, Ordering::Relaxed);
        self.counters
            .pruned
            .fetch_add(n - refined, Ordering::Relaxed);
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
                let hits = bank.knn(q, k, 1);
                assert_eq!(hits.len(), k);
                for (h, &(d, id)) in hits.iter().zip(&naive) {
                    assert_eq!((h.distance as u64, h.id), (d, id));
                }
            }
        }
    }

    #[test]
    fn scan_bounds_match_per_row_bounds_on_any_thread_count() {
        // 2300 rows, then swap-removes: several scan runs, a partial tail
        // chunk, ids out of row order.
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
        let want: Vec<u32> = bank
            .entries()
            .map(|(id, _)| {
                let row = bank.lanes_of(id).expect("live id");
                sketch_lower_bound(qs.lanes(), row) as u32
            })
            .collect();
        for threads in [1usize, 2, 3] {
            assert_eq!(bank.scan_bounds(q, threads), want, "{threads} threads");
        }
    }

    /// Random lanes shaped like the sketch of a tree `depth` levels deep:
    /// the size lanes and some buckets of each level below `depth`, with
    /// 0 and `u16::MAX` among the values.
    fn random_lanes(rng: &mut SmallRng, depth: usize) -> [u16; SKETCH_DIM] {
        let value = |rng: &mut SmallRng| match rng.gen_range(0..6) {
            0 => 0,
            1 => u16::MAX,
            2 => rng.gen_range(1..4),
            _ => rng.gen_range(0..=u16::MAX),
        };
        let mut lanes = [0u16; SKETCH_DIM];
        for l in 0..depth {
            lanes[l] = value(rng);
            for _ in 0..rng.gen_range(0..=SKETCH_BUCKETS) {
                let bucket = rng.gen_range(0..SKETCH_BUCKETS);
                lanes[SKETCH_LEVELS + l * SKETCH_BUCKETS + bucket] = value(rng);
            }
        }
        lanes
    }

    #[test]
    fn image_bounds_match_per_row_bounds_under_churn() {
        // Rows get random lanes through `from_rows` and `put`; ids come in
        // blocks of one depth, so chunks start with few live lanes, and
        // the churn (replacements at other depths, swap-removes that move
        // the tail row across chunks, fresh ids) gives them new ones. The
        // queries are real sketches three and six levels deep, so they
        // hold lanes that many chunks have never used.
        let pool = sigs(40, 3, 15);
        let queries: Vec<NodeSignature> =
            sigs(6, 3, 16).into_iter().chain(sigs(6, 6, 17)).collect();
        let depths = [1, 2, 3, SKETCH_LEVELS];
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let entries: Vec<(u64, NodeSignature)> = (0..1500u64)
                .map(|id| (id, pool[id as usize % pool.len()].clone()))
                .collect();
            let lanes: Vec<u16> = entries
                .iter()
                .flat_map(|&(id, _)| random_lanes(&mut rng, depths[(id / 100 % 4) as usize]))
                .collect();
            let mut bank = SketchBank::from_rows(&entries, lanes);
            let mut fresh = 1500u64;
            for round in 0..4 {
                for _ in 0..150 {
                    let live = bank.id_at(rng.gen_range(0..bank.len()) as u32);
                    let depth = depths[rng.gen_range(0..4)];
                    let lanes = random_lanes(&mut rng, depth);
                    let sig = pool[rng.gen_range(0..pool.len())].clone();
                    match rng.gen_range(0..3) {
                        0 => bank.put(live, sig, &lanes),
                        1 => assert!(bank.remove(live)),
                        _ => {
                            bank.put(fresh, sig, &lanes);
                            fresh += 1;
                        }
                    }
                }
                for (qi, q) in queries.iter().enumerate() {
                    let qs = Sketch::of(q);
                    let want: Vec<u32> = bank
                        .entries()
                        .map(|(id, _)| {
                            let row = bank.lanes_of(id).expect("live id");
                            sketch_lower_bound(qs.lanes(), row) as u32
                        })
                        .collect();
                    for threads in [1usize, 2, 3] {
                        assert_eq!(
                            bank.scan_bounds(q, threads),
                            want,
                            "seed {seed}, round {round}, query {qi}, {threads} threads"
                        );
                    }
                    if qi % 4 != 0 {
                        continue;
                    }
                    // `range` refines exactly the rows whose reference
                    // bound is within the radius, and keeps those
                    // within it by distance.
                    let mut sorted = want.clone();
                    sorted.sort_unstable();
                    let radius = u64::from(sorted[sorted.len() / 50]);
                    let survivors: Vec<(u64, &NodeSignature)> = bank
                        .entries()
                        .zip(&want)
                        .filter(|&(_, &b)| u64::from(b) <= radius)
                        .map(|(e, _)| e)
                        .collect();
                    let mut hits: Vec<(u64, u64)> = survivors
                        .iter()
                        .map(|&(id, s)| (q.distance(s), id))
                        .filter(|&(d, _)| d <= radius)
                        .collect();
                    hits.sort_unstable();
                    for threads in [1usize, 2, 3] {
                        let before = bank.stats().refined;
                        let got: Vec<(u64, u64)> = bank
                            .range(q, radius, threads)
                            .iter()
                            .map(|h| (h.distance as u64, h.id))
                            .collect();
                        let refined = bank.stats().refined - before;
                        let at = format!("seed {seed}, round {round}, query {qi}");
                        assert_eq!(refined, survivors.len() as u64, "{at}");
                        assert_eq!(got, hits, "{at}");
                    }
                }
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
            let order: Vec<(u32, u32)> = order_by_bound(&bounds, |r| ids[r as usize]).collect();
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
            let hits = bank.range(q, radius, 2);
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
        let hits = bank.knn(q, 38, 1);
        assert_eq!(hits.len(), 38);
        assert!(hits.iter().all(|h| h.id != 17 && h.id != 39));
        // Row 3 now carries db[10]'s signature.
        let three = hits.iter().find(|h| h.id == 3).expect("id 3 live");
        assert_eq!(three.distance as u64, q.distance(&db[10]));
    }

    #[test]
    fn clone_is_copy_on_write_per_chunk() {
        // 2100 rows: three chunk groups, the last one partial, and a
        // partial tail chunk. After a clone, a one-row write must copy
        // exactly the touched chunk (ids, signatures and lanes together)
        // and its group's pointer table, and keep sharing the rest.
        let db = sigs(300, 3, 8);
        let entries: Vec<(u64, NodeSignature)> = (0..2100u64)
            .map(|id| (id, db[id as usize % db.len()].clone()))
            .collect();
        let snapshot = SketchBank::bulk(&entries, 0);
        assert_eq!(snapshot.groups.len(), 3);
        let chunks = |b: &SketchBank| -> Vec<Arc<Chunk>> {
            b.groups.iter().flat_map(|g| g.iter().cloned()).collect()
        };
        let groups_shared = |a: &SketchBank| -> Vec<bool> {
            a.groups
                .iter()
                .zip(&snapshot.groups)
                .map(|(x, y)| Arc::ptr_eq(x, y))
                .collect()
        };
        let chunks_shared = |a: &SketchBank| -> Vec<bool> {
            chunks(a)
                .iter()
                .zip(chunks(&snapshot).iter())
                .map(|(x, y)| Arc::ptr_eq(x, y))
                .collect()
        };
        let pieces_shared = |a: &SketchBank| -> bool {
            a.row_of
                .pieces
                .iter()
                .zip(&snapshot.row_of.pieces)
                .all(|(x, y)| Arc::ptr_eq(x, y))
        };

        let mut bank = snapshot.clone();
        assert!(groups_shared(&bank).iter().all(|&s| s));
        assert!(pieces_shared(&bank));

        let row = 1030; // group 1
        let before: Vec<u16> = bank.lanes_of(row).expect("row live").to_vec();
        bank.upsert(row, &db[1]);
        assert_eq!(groups_shared(&bank), [true, false, true]);
        for (c, shared) in chunks_shared(&bank).into_iter().enumerate() {
            assert_eq!(shared, c != row as usize / CHUNK_ROWS, "chunk {c}");
        }
        // A replace moves no row, so the id map stays shared whole.
        assert!(pieces_shared(&bank));
        // The snapshot still reads the pre-write row; the writer reads
        // the new one.
        assert_eq!(snapshot.lanes_of(row).expect("row live"), &before[..]);
        assert_eq!(snapshot.get(row), Some(&db[row as usize % 300]));
        assert_eq!(bank.lanes_of(row), bank.lanes_of(1), "row now holds db[1]");

        // A remove swaps the last row into the hole: it copies the hole's
        // chunk and the tail chunk (and their groups), nothing between.
        let mut bank = snapshot.clone();
        assert!(bank.remove(40));
        assert_eq!(groups_shared(&bank), [false, true, false]);
        let tail = 2099 / CHUNK_ROWS;
        for (c, shared) in chunks_shared(&bank).into_iter().enumerate() {
            assert_eq!(shared, c != 40 / CHUNK_ROWS && c != tail, "chunk {c}");
        }
        assert_eq!(bank.len(), 2099);
        assert_eq!(bank.get(2099), Some(&db[2099 % 300]));
        assert_eq!(bank.lanes_of(2099), snapshot.lanes_of(2099));
        assert_eq!(snapshot.get(40), Some(&db[40]));
        assert_eq!(bank.get(40), None);
    }
}
