//! TED\*: the paper's modified tree edit distance (Sections 4–7).
//!
//! The allowed edit operations (Section 4.1) never change any existing
//! node's depth:
//!
//! 1. insert a leaf node,
//! 2. delete a leaf node,
//! 3. move a node to a new parent on the same level.
//!
//! `TED*(T1, T2)` is the minimum number of such operations converting `T1`
//! into a tree isomorphic to `T2`. Algorithm 1 computes it level by level,
//! bottom-up, in six steps per level: **node padding**, **node
//! canonization**, **bipartite graph construction**, **bipartite graph
//! matching**, **matching-cost calculation**, and **node re-canonization**.
//! The distance is `Σᵢ (Pᵢ + Mᵢ)` where `Pᵢ` is the padding cost (the level
//! size difference — pure leaf inserts/deletes) and
//! `Mᵢ = (m(G²ᵢ) − Pᵢ₊₁)/2` is the number of same-level moves derived from
//! the minimum bipartite matching cost `m(G²ᵢ)` (Equation 5).
//!
//! Algorithm 1 itself has one implementation, the budget-aware kernel in
//! `ted_kernel`; every entry point here (distances, budgeted distances,
//! per-level reports, the phase profile) runs it.

pub use crate::ted_kernel::{KernelProfile, SweepPhase};
use ned_tree::{SignatureInterner, Tree};

/// Per-level cost breakdown (indexed by 0-based level; the paper's level
/// `i` is our `i - 1`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCosts {
    /// `Pᵢ`: number of leaf inserts/deletes charged at this level.
    pub padding: u64,
    /// `Mᵢ`: number of same-level moves charged at this level.
    pub matching: u64,
    /// `m(G²ᵢ)`: raw minimum bipartite matching cost (before Equation 5).
    pub bipartite: u64,
}

/// Full outcome of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TedStarReport {
    /// `TED*(T1, T2) = Σ (Pᵢ + Mᵢ)`.
    pub distance: u64,
    /// Per-level breakdown, `levels\[0\]` being the root level.
    pub levels: Vec<LevelCosts>,
}

impl TedStarReport {
    /// Total padding cost `Σ Pᵢ` (leaf inserts + deletes).
    pub fn total_padding(&self) -> u64 {
        self.levels.iter().map(|l| l.padding).sum()
    }

    /// Total matching cost `Σ Mᵢ` (same-level moves).
    pub fn total_matching(&self) -> u64 {
        self.levels.iter().map(|l| l.matching).sum()
    }
}

/// A tree pre-processed for repeated TED\* computations: AHU-canonical
/// layout plus its canonical code.
///
/// # Why canonicalization matters (reproduction note)
///
/// Algorithm 1 as printed in the paper is deterministic only up to two
/// tie-breaks: (a) the sibling order in which the input trees happen to be
/// stored, and (b) which minimum-cost bipartite matching the Hungarian
/// algorithm returns when several are optimal. Both feed the
/// re-canonization step, whose labels flow into *upper* levels, so
/// different ties can produce different distances for the same pair of
/// isomorphism classes — breaking exact symmetry. This reproduction
/// therefore (1) re-lays both trees into AHU-canonical form and (2) runs
/// the level sweep on the pair ordered by canonical code. The result is a
/// well-defined, exactly symmetric function of the two isomorphism
/// classes; the identity axiom is exact as well, and the triangle
/// inequality is validated empirically by the property-test suite (see
/// DESIGN.md).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedTree {
    tree: Tree,
    code: Box<[u8]>,
    /// All levels' interned subtree-class ids in one flat array, each
    /// level's slice sorted ascending. Interned through
    /// [`SignatureInterner::global`], so ids are comparable across every
    /// `PreparedTree` in the process — the basis of the class-histogram
    /// lower bound and of shape deduplication in
    /// [`crate::store::SignatureStore`]. Level `l` occupies
    /// `classes[level_offsets[l]..level_offsets[l + 1]]` (CSR layout:
    /// bound sweeps walk one contiguous allocation instead of chasing
    /// per-level `Vec` pointers).
    classes: Box<[u32]>,
    /// CSR offsets into `classes`; `level_offsets.len() == num_levels + 1`.
    level_offsets: Box<[u32]>,
    /// Cached per-level widths (the `level_offsets` differences). The
    /// level-size L1 bound and the kernel's padding residual read this
    /// array directly instead of re-deriving sizes per sweep iteration.
    level_sizes: Box<[u32]>,
    /// Run-length encoding of each level's sorted classes: run `r` holds
    /// `run_counts[r]` copies of class `run_classes[r]`. Levels index the
    /// run arrays through `run_offsets` (same CSR convention). The
    /// histogram L1 merge in [`ted_star_class_lower_bound`] scans runs —
    /// `O(distinct classes)` per level — instead of raw slots.
    run_classes: Box<[u32]>,
    /// Multiplicity of each run.
    run_counts: Box<[u32]>,
    /// CSR offsets into the run arrays; `run_offsets.len() == num_levels + 1`.
    run_offsets: Box<[u32]>,
    /// Each level's non-zero child counts, sorted descending, behind a
    /// CSR header in the same allocation: the first `num_levels + 1`
    /// entries are offsets into this array, level `l`'s counts being
    /// `child_counts[child_counts[l]..child_counts[l + 1]]`. Leaves are
    /// left out — in descending order the zeros only pad the tail, where
    /// they cost nothing to align — so the array holds one count per
    /// internal node. Read by [`ted_star_degree_lower_bound`].
    child_counts: Box<[u32]>,
    /// Fixed-size digest of `level_sizes` and `child_counts`, stored
    /// inline so [`ted_star_summary_lower_bound`] reads no heap memory.
    summary: ChildCountSummary,
}

/// Levels a [`ChildCountSummary`] covers; deeper trees carry none.
const SUMMARY_LEVELS: usize = 8;
/// Largest child counts a [`ChildCountSummary`] keeps per level.
const SUMMARY_TOP: usize = 4;
/// Lane of a summary row holding the sum of the counts past the top ones.
const SUMMARY_TAIL: usize = SUMMARY_TOP + 1;

/// A tree's level profile cut down to fixed-size `u16` lanes: row `l` is
/// `[width(l), c₀, c₁, c₂, c₃, tail]`, where `c₀ ≥ … ≥ c₃` are the level's
/// largest child counts (zero-padded) and `tail = width(l + 1) − Σ cᵢ`
/// the sum of the rest. Rows past the tree's depth are zero. `levels ==
/// 0` marks the summary absent: the tree has more than [`SUMMARY_LEVELS`]
/// levels, or a level wider than `u16::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ChildCountSummary {
    levels: u8,
    rows: [[u16; SUMMARY_TAIL + 1]; SUMMARY_LEVELS],
}

impl ChildCountSummary {
    /// Summarizes the widths and the CSR child-count array of
    /// [`PreparedTree`] (each level's counts sorted descending).
    fn new(level_sizes: &[u32], child_counts: &[u32]) -> Self {
        let mut summary = ChildCountSummary::default();
        let k = level_sizes.len();
        if k > SUMMARY_LEVELS || level_sizes.iter().any(|&w| w > u32::from(u16::MAX)) {
            return summary;
        }
        for (l, row) in summary.rows[..k].iter_mut().enumerate() {
            let counts = &child_counts[child_counts[l] as usize..child_counts[l + 1] as usize];
            row[0] = level_sizes[l] as u16;
            let mut top = 0u32;
            for (lane, &c) in row[1..SUMMARY_TAIL].iter_mut().zip(counts) {
                *lane = c as u16;
                top += c;
            }
            // A level's counts sum to the next level's width.
            row[SUMMARY_TAIL] = (level_sizes.get(l + 1).copied().unwrap_or(0) - top) as u16;
        }
        summary.levels = k as u8;
        summary
    }
}

impl PreparedTree {
    /// Canonicalizes `t` and interns its per-level subtree classes.
    pub fn new(t: &Tree) -> Self {
        let tree = ned_tree::ahu::canonical_form(t);
        let code = ned_tree::ahu::ordered_code(&tree).into_boxed_slice();
        // BFS layout makes levels contiguous, so the per-node subtree ids
        // are already the flat level-ordered class array.
        let classes = SignatureInterner::global().subtree_ids(&tree);
        let k = tree.num_levels();
        let mut level_offsets = Vec::with_capacity(k + 1);
        level_offsets.push(0u32);
        for l in 0..k {
            level_offsets.push(tree.level(l).end);
        }
        Self::build(tree, code, classes, level_offsets)
    }

    /// Assembles a prepared tree from pre-computed canonical parts — the
    /// bulk-ingestion fast path (`crate::bulk`), which reconstructs the
    /// canonical layout, code, and level classes by [`ned_tree::ShapeTable`]
    /// expansion instead of calling [`PreparedTree::new`] per node.
    ///
    /// The caller guarantees `tree` is AHU-canonical, `code` is its
    /// canonical code, and `classes` are its per-node global-interner
    /// subtree ids in level order (level `l` at
    /// `classes[level_offsets[l]..level_offsets[l + 1]]`, in any
    /// within-level order — the builder sorts). Debug builds re-derive
    /// and check everything against a fresh preparation.
    pub(crate) fn from_parts(
        tree: Tree,
        code: Box<[u8]>,
        classes: Vec<u32>,
        level_offsets: Vec<u32>,
    ) -> Self {
        let prepared = Self::build(tree, code, classes, level_offsets);
        debug_assert_eq!(
            prepared,
            PreparedTree::new(&prepared.tree),
            "from_parts parts disagree with a fresh preparation"
        );
        prepared
    }

    /// Shared SoA builder: sorts each level's class slice in place and
    /// derives the cached sizes, histogram runs and sorted child counts.
    fn build(tree: Tree, code: Box<[u8]>, mut classes: Vec<u32>, level_offsets: Vec<u32>) -> Self {
        let k = level_offsets.len() - 1;
        debug_assert_eq!(k, tree.num_levels());
        debug_assert_eq!(*level_offsets.last().unwrap() as usize, classes.len());
        let mut level_sizes = Vec::with_capacity(k);
        let mut run_classes: Vec<u32> = Vec::new();
        let mut run_counts: Vec<u32> = Vec::new();
        let mut run_offsets = Vec::with_capacity(k + 1);
        run_offsets.push(0u32);
        // Only nodes above the bottom level can have children (a tree
        // always has its root level, so `k >= 1`).
        let internal_max = tree.len() - tree.level_size(k - 1);
        let mut child_counts = Vec::with_capacity(k + 1 + internal_max);
        child_counts.resize(k + 1, 0u32);
        for l in 0..k {
            let (s, e) = (level_offsets[l] as usize, level_offsets[l + 1] as usize);
            level_sizes.push((e - s) as u32);
            child_counts[l] = child_counts.len() as u32;
            let first = child_counts.len();
            for v in tree.level(l) {
                let c = tree.num_children(v) as u32;
                if c > 0 {
                    child_counts.push(c);
                }
            }
            child_counts[first..].sort_unstable_by(|x, y| y.cmp(x));
            let lvl = &mut classes[s..e];
            // BFS levels are dominated by one repeated class (leaves);
            // dodge the sort when the level is already uniform.
            if !lvl.iter().all(|&c| c == lvl[0]) {
                lvl.sort_unstable();
            }
            let mut i = s;
            while i < e {
                let c = classes[i];
                let mut j = i + 1;
                while j < e && classes[j] == c {
                    j += 1;
                }
                run_classes.push(c);
                run_counts.push((j - i) as u32);
                i = j;
            }
            run_offsets.push(run_classes.len() as u32);
        }
        child_counts[k] = child_counts.len() as u32;
        let summary = ChildCountSummary::new(&level_sizes, &child_counts);
        PreparedTree {
            tree,
            code,
            classes: classes.into_boxed_slice(),
            level_offsets: level_offsets.into_boxed_slice(),
            level_sizes: level_sizes.into_boxed_slice(),
            run_classes: run_classes.into_boxed_slice(),
            run_counts: run_counts.into_boxed_slice(),
            run_offsets: run_offsets.into_boxed_slice(),
            child_counts: child_counts.into_boxed_slice(),
            summary,
        }
    }

    /// The canonical-layout tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The AHU canonical code (equal iff isomorphic).
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Sorted interned subtree-class ids of level `l` (global interner);
    /// empty for levels beyond the tree's depth.
    pub fn level_classes(&self, l: usize) -> &[u32] {
        if l + 1 >= self.level_offsets.len() {
            return &[];
        }
        &self.classes[self.level_offsets[l] as usize..self.level_offsets[l + 1] as usize]
    }

    /// Cached per-level widths, one contiguous `u32` array (index = level).
    pub fn level_sizes(&self) -> &[u32] {
        &self.level_sizes
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// The class-histogram runs of level `l`: `(classes, counts)`, classes
    /// strictly ascending.
    #[inline]
    pub(crate) fn level_runs(&self, l: usize) -> (&[u32], &[u32]) {
        let (s, e) = (
            self.run_offsets[l] as usize,
            self.run_offsets[l + 1] as usize,
        );
        (&self.run_classes[s..e], &self.run_counts[s..e])
    }

    /// The non-zero child counts of level `l`'s nodes, descending; empty
    /// for the bottom level and beyond.
    #[inline]
    fn level_child_counts(&self, l: usize) -> &[u32] {
        if l >= self.num_levels() {
            return &[];
        }
        let h = &self.child_counts;
        &h[h[l] as usize..h[l + 1] as usize]
    }

    /// The interned class id of the whole tree (the root's subtree class):
    /// equal iff the trees are isomorphic. A cheap `u32` identity for
    /// interning/deduplication within one process.
    pub fn root_class(&self) -> u32 {
        self.classes[0]
    }
}

/// `TED*(t1, t2)` with exact Hungarian-class matching. This is the `δT`
/// of Definition 3.
///
/// Runs on the scratch-arena kernel with an unlimited budget (see
/// [`ted_star_within`]), allocation-free in steady state; its per-level
/// breakdown is [`ted_star_report`].
///
/// ```
/// use ned_tree::Tree;
/// use ned_core::ted_star;
///
/// // root with two leaves vs root with three leaves: one leaf insert.
/// let a = Tree::from_parents(&[0, 0, 0]).unwrap();
/// let b = Tree::from_parents(&[0, 0, 0, 0]).unwrap();
/// assert_eq!(ted_star(&a, &b), 1);
/// assert_eq!(ted_star(&b, &a), 1); // metric: symmetric
/// assert_eq!(ted_star(&a, &a), 0); // metric: identity
/// ```
pub fn ted_star(t1: &Tree, t2: &Tree) -> u64 {
    ted_star_within(t1, t2, u64::MAX).expect("an unlimited budget never abandons")
}

/// A cheap `O(k)` lower bound on `TED*`: the L1 distance between the two
/// trees' level-size profiles (`Σᵢ Pᵢ` — the padding cost is forced no
/// matter how the levels are matched).
///
/// Useful as a filter step before the `O(k·n³)` exact computation in
/// similarity search (`ned-index` exploits it), and monotone-consistent:
/// `ted_star_lower_bound(a, b) <= ted_star(a, b)` always.
pub fn ted_star_lower_bound(t1: &Tree, t2: &Tree) -> u64 {
    let k = t1.num_levels().max(t2.num_levels());
    (0..k)
        .map(|l| t1.level_size(l).abs_diff(t2.level_size(l)) as u64)
        .sum()
}

/// A stronger (still cheap) lower bound on `TED*` between prepared trees:
/// the level-size L1 bound **maxed with** a per-level class-histogram
/// bound, `max_l ⌈|C₁(l) Δ C₂(l)| / 4⌉`, where `Cᵢ(l)` is the multiset of
/// interned subtree classes on level `l`.
///
/// Soundness: one TED\* edit operation changes the subtree class of at
/// most two nodes per level (the old and new ancestor chains of a move;
/// one chain plus the touched leaf for an insert/delete), and each changed
/// class shifts the level's histogram L1 distance by at most 2 — so any
/// `d`-op edit sequence leaves every level's histogram within `4d`.
/// Isomorphic trees have identical histograms, hence
/// `ted_star_class_lower_bound(a, b) <= ted_star(a, b)` always.
///
/// This is the filter `ned-index`-style retrieval should use for prepared
/// signatures: `O(Σ level widths)` per pair and considerably tighter than
/// the level-size bound when shapes differ at equal widths.
pub fn ted_star_class_lower_bound(a: &PreparedTree, b: &PreparedTree) -> u64 {
    let (sa, sb) = (&a.level_sizes[..], &b.level_sizes[..]);
    let common = sa.len().min(sb.len());
    // Level-size L1 over the common prefix: a branch-light reduction over
    // two contiguous u32 arrays the autovectorizer lifts to SIMD.
    let mut size_l1 = 0u64;
    for (&x, &y) in sa[..common].iter().zip(&sb[..common]) {
        size_l1 += u64::from(x.abs_diff(y));
    }
    // Levels only one tree has: every slot is forced padding, and the
    // whole level is histogram difference.
    let mut hist_bound = 0u64;
    let tail = if sa.len() >= sb.len() {
        &sa[common..]
    } else {
        &sb[common..]
    };
    for &x in tail {
        size_l1 += u64::from(x);
        hist_bound = hist_bound.max(u64::from(x).div_ceil(4));
    }
    // Histogram L1 per shared level, merged over the precomputed
    // class-count runs: Σ_classes |count_a − count_b| over the two
    // strictly-ascending run lists equals the symmetric difference of the
    // raw sorted multisets, at O(distinct classes) instead of O(width).
    for l in 0..common {
        let (ca, na) = a.level_runs(l);
        let (cb, nb) = b.level_runs(l);
        let mut diff = 0u64;
        let (mut i, mut j) = (0usize, 0usize);
        while i < ca.len() && j < cb.len() {
            match ca[i].cmp(&cb[j]) {
                std::cmp::Ordering::Less => {
                    diff += u64::from(na[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += u64::from(nb[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    diff += u64::from(na[i].abs_diff(nb[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        for &n in &na[i..] {
            diff += u64::from(n);
        }
        for &n in &nb[j..] {
            diff += u64::from(n);
        }
        hist_bound = hist_bound.max(diff.div_ceil(4));
    }
    size_l1.max(hist_bound)
}

/// A lower bound on `TED*` between prepared trees computed from the two
/// trees' sorted child counts alone:
/// `Σ_l P_l + Σ_l ⌈(m_l − P_{l+1}) / 2⌉`, where `P_l` is the level-size
/// difference at level `l` and `m_l` the L1 distance between the two
/// levels' child counts, each sorted and zero-padded to a common length.
///
/// Proof sketch. Algorithm 1 charges level `l` exactly
/// `P_l + (m(G²_l) − P_{l+1}) / 2` (Equation 5), where `m(G²_l)` is the
/// minimum-cost matching of the (padded) level slots under the weight
/// `|S(v) Δ S(w)|`, `S(·)` being a slot's children-label multiset. Every
/// such weight is at least `||S(v)| − |S(w)||`, the difference of the two
/// slots' child counts, so `m(G²_l)` is at least the cheapest matching of
/// the counts under `|x − y|` — and on a line, pairing sorted order with
/// sorted order is an optimal matching, so that minimum is `m_l`. Thus
/// `m(G²_l) ≥ m_l`, and since `m(G²_l) − P_{l+1}` is even, its half is at
/// least `⌈(m_l − P_{l+1}) / 2⌉`. (`m_l ≥ P_{l+1}` always: the counts of
/// level `l` sum to the width of level `l + 1`.) Summing over levels
/// gives `ted_star_degree_lower_bound(a, b) <= ted_star(a, b)`.
///
/// It is symmetric and at least the level-size bound
/// ([`ted_star_lower_bound`]). On trees of at most three levels it equals
/// `TED*`: the bottom level's slots all carry the leaf label, so the
/// weights one level up are exactly count differences, and the root
/// level is left only its padding after re-canonization.
/// `O(internal nodes)` per pair, allocation-free: the counts are
/// precomputed by [`PreparedTree`].
///
/// ```
/// use ned_core::{ted_star_degree_lower_bound, ted_star_prepared, PreparedTree};
/// use ned_tree::generate::{path_tree, star_tree};
///
/// let a = PreparedTree::new(&path_tree(6));
/// let b = PreparedTree::new(&star_tree(6));
/// assert!(ted_star_degree_lower_bound(&a, &b) <= ted_star_prepared(&a, &b));
/// ```
pub fn ted_star_degree_lower_bound(a: &PreparedTree, b: &PreparedTree) -> u64 {
    let (sa, sb) = (&a.level_sizes[..], &b.level_sizes[..]);
    let k = sa.len().max(sb.len());
    // Level widths, zero past a tree's depth.
    let width = |s: &[u32], l: usize| u64::from(s.get(l).copied().unwrap_or(0));
    let mut bound = 0u64;
    // Bottom-up, like the sweep: `P_{l+1}`, zero below the bottom level.
    let mut p_below = 0u64;
    for l in (0..k).rev() {
        let p = width(sa, l).abs_diff(width(sb, l));
        let (ca, cb) = (a.level_child_counts(l), b.level_child_counts(l));
        let common = ca.len().min(cb.len());
        // Both descending, so position `i` pairs the `i`-th largest
        // counts; past the shorter list the partners are padded zeros, so
        // the longer list's tail adds its own sum. A level's counts sum to
        // the width of the level below, so that tail sum is the width
        // minus the paired part — no walk over a hub's long tail.
        let (mut diff, mut paired_a, mut paired_b) = (0u64, 0u64, 0u64);
        for (&x, &y) in ca[..common].iter().zip(&cb[..common]) {
            diff += u64::from(x.abs_diff(y));
            paired_a += u64::from(x);
            paired_b += u64::from(y);
        }
        let m = diff + (width(sa, l + 1) - paired_a) + (width(sb, l + 1) - paired_b);
        debug_assert!(
            m >= p_below,
            "count L1 {m} < P_below {p_below} at level {l}"
        );
        bound += p + (m - p_below).div_ceil(2);
        p_below = p;
    }
    bound
}

/// [`ted_star_degree_lower_bound`] over each tree's fixed-size inline
/// summary: per level the width and the four largest child counts, the
/// rest folded into one tail sum. Level `l` contributes
/// `P_l + ⌈(m̃_l − P_{l+1}) / 2⌉` with
/// `m̃_l = Σ_{i<4} |a_i − b_i| + |tail_a − tail_b|`.
///
/// Soundness. By the triangle inequality over the untruncated tails,
/// `P_{l+1} ≤ m̃_l ≤ m_l`, and the level term is monotone in `m_l`, so
/// the result is at most [`ted_star_degree_lower_bound`] and hence at
/// most `TED*`. It equals that bound when no level of either tree has
/// more than four internal nodes. Trees deeper than eight levels or with
/// a level wider than `u16::MAX` carry no summary, and any pair
/// involving one gets `0`.
///
/// `O(levels)` and reads only data stored inline in [`PreparedTree`]:
/// this is the first check [`ted_star_prepared_within`] makes.
///
/// ```
/// use ned_core::{ted_star_degree_lower_bound, ted_star_summary_lower_bound, PreparedTree};
/// use ned_tree::generate::{path_tree, star_tree};
///
/// let a = PreparedTree::new(&path_tree(6));
/// let b = PreparedTree::new(&star_tree(6));
/// assert!(ted_star_summary_lower_bound(&a, &b) <= ted_star_degree_lower_bound(&a, &b));
/// ```
pub fn ted_star_summary_lower_bound(a: &PreparedTree, b: &PreparedTree) -> u64 {
    let (sa, sb) = (&a.summary, &b.summary);
    if sa.levels == 0 || sb.levels == 0 {
        return 0;
    }
    let k = usize::from(sa.levels.max(sb.levels));
    let mut bound = 0u32;
    // Bottom-up, like the sweep: `P_{l+1}`, zero below the bottom level.
    let mut p_below = 0u32;
    for (x, y) in sa.rows[..k].iter().zip(&sb.rows[..k]).rev() {
        let p = u32::from(x[0].abs_diff(y[0]));
        let mut m = u32::from(x[SUMMARY_TAIL].abs_diff(y[SUMMARY_TAIL]));
        for (&u, &v) in x[1..SUMMARY_TAIL].iter().zip(&y[1..SUMMARY_TAIL]) {
            m += u32::from(u.abs_diff(v));
        }
        debug_assert!(m >= p_below, "summary L1 {m} < P_below {p_below}");
        bound += p + (m - p_below).div_ceil(2);
        p_below = p;
    }
    u64::from(bound)
}

/// Early-abandoning `TED*`: `Some(d)` **iff** the distance `d` is
/// `<= limit`, `None` **whenever** it exceeds `limit` — a hard contract,
/// not a best-effort filter, so callers never need to re-check the
/// returned value against `limit`.
///
/// Runs the budget-aware kernel (see [`ted_star_prepared_within`]),
/// which abandons the level sweep — and even a single level's
/// transportation solve — the moment the partial cost plus the padding
/// still forced at unprocessed levels proves the distance exceeds
/// `limit`. Unlike the prepared path this one-shot entry point
/// canonicalizes per call and touches **neither the process-global
/// [`SignatureInterner`] nor the cross-pair memo** (ephemeral trees
/// streamed through here must not grow unbounded process state);
/// repeated-query workloads should prepare once and use
/// [`ted_star_prepared_within`] to get both.
pub fn ted_star_within(t1: &Tree, t2: &Tree, limit: u64) -> Option<u64> {
    if ted_star_lower_bound(t1, t2) > limit {
        // Cheap static reject before paying for canonicalization.
        return None;
    }
    let a = ned_tree::ahu::canonical_form(t1);
    let b = ned_tree::ahu::canonical_form(t2);
    // Canonical layouts keep children in code-sorted order, so the code
    // is a straight DFS emission — no re-sorting (`ordered_code`).
    let code_a = ned_tree::ahu::ordered_code(&a);
    let code_b = ned_tree::ahu::ordered_code(&b);
    if code_a == code_b {
        return Some(0);
    }
    if code_a <= code_b {
        crate::ted_kernel::bounded_sweep_tl(&a, &b, limit)
    } else {
        crate::ted_kernel::bounded_sweep_tl(&b, &a, limit)
    }
}

/// Budget-aware `TED*` between prepared trees: `Some(d)` **iff**
/// `d <= budget`, `None` **iff** `d > budget`, with a completed
/// computation bit-identical to [`ted_star_prepared`]. This is the exact
/// call the metric index issues for every candidate, passing the current
/// pruning radius as the budget.
///
/// Under a finite budget three static bounds run before any sweep. The
/// [`ted_star_summary_lower_bound`] comes first, ahead of the code
/// compare and the memo: it reads only each tree's inline child-count
/// summary, and a pair it rejects returns `None` without touching the
/// memo at all. Pairs it admits consult the memo, then face the
/// [`ted_star_class_lower_bound`] (the interned class-histogram bound)
/// and the [`ted_star_degree_lower_bound`] (the exact sorted child-count
/// bound). The kernel (see `ted_kernel`) then sweeps levels bottom-up
/// while maintaining
/// `partial_cost + residual_lower_bound(remaining levels)` — the
/// residual being the padding still forced at unprocessed levels, i.e.
/// the level-size differences — and aborts mid-sweep — or mid-matching,
/// via the bounded transportation solver — the moment that floor
/// exceeds the budget. All
/// per-call state lives in a thread-local scratch arena, so steady-state
/// calls allocate nothing; results are additionally cached in the
/// process-wide [`TedMemo`](crate::memo::TedMemo) keyed by the pair's
/// interned isomorphism classes. Aborts are cached too, as
/// distance-exceeds floors: a sweep that abandons records `budget`, a
/// child-count rejection records `bound − 1`. A summary or class-bound
/// rejection records nothing, so the memo holds exactly the pairs a
/// sweep-only kernel would have recorded among those both bounds admit.
/// An unlimited budget (`u64::MAX`) skips every static bound, since none
/// can exceed it.
///
/// ```
/// use ned_core::{ted_star_prepared, ted_star_prepared_within, PreparedTree};
/// use ned_tree::generate::{path_tree, star_tree};
///
/// let a = PreparedTree::new(&path_tree(10));
/// let b = PreparedTree::new(&star_tree(10));
/// let d = ted_star_prepared(&a, &b);
/// assert_eq!(ted_star_prepared_within(&a, &b, d), Some(d));
/// assert_eq!(ted_star_prepared_within(&a, &b, d - 1), None);
/// ```
pub fn ted_star_prepared_within(a: &PreparedTree, b: &PreparedTree, budget: u64) -> Option<u64> {
    if budget != u64::MAX && ted_star_summary_lower_bound(a, b) > budget {
        // Decided on inline data alone: no code compare, no memo traffic.
        return None;
    }
    if a.code == b.code {
        return Some(0);
    }
    let memo = crate::memo::TedMemo::global();
    let key = crate::memo::pair_key(a.root_class(), b.root_class());
    if let Some(decided) = memo.consult(key, budget) {
        return decided;
    }
    if budget != u64::MAX {
        if ted_star_class_lower_bound(a, b) > budget {
            return None;
        }
        let bound = ted_star_degree_lower_bound(a, b);
        if bound > budget {
            // Exactly a pair whose sweep would abandon and be recorded.
            memo.record_at_least(key, bound - 1);
            return None;
        }
    }
    let result = if a.code <= b.code {
        crate::ted_kernel::bounded_sweep_prepared_tl(a, b, budget)
    } else {
        crate::ted_kernel::bounded_sweep_prepared_tl(b, a, budget)
    };
    match result {
        Some(d) => memo.record_exact(key, d),
        None => memo.record_at_least(key, budget),
    }
    result
}

/// [`ted_star_prepared`] with per-phase wall-clock instrumentation: runs
/// the same sweep, but times every kernel phase (bound check, collection
/// build, canonization, grouping, transport, expansion) and reports the
/// totals. Bypasses the cross-pair memo so the sweep itself is what gets
/// measured; the distance is still bit-identical to every exact engine.
///
/// This is the measurement entry behind the `kernel_profile` bench — use
/// it to see *where* a pair's time goes before reaching for a tuning
/// knob.
pub fn ted_star_prepared_profiled(a: &PreparedTree, b: &PreparedTree) -> (u64, KernelProfile) {
    if a.code == b.code {
        return (0, KernelProfile::default());
    }
    let (d, profile) = if a.code <= b.code {
        crate::ted_kernel::bounded_sweep_profiled_tl(a, b, u64::MAX)
    } else {
        crate::ted_kernel::bounded_sweep_profiled_tl(b, a, u64::MAX)
    };
    (d.expect("an unlimited budget never abandons"), profile)
}

/// Per-level breakdown of [`ted_star`]: the same unbudgeted kernel
/// sweep, recording each level's `(Pᵢ, Mᵢ, m(G²ᵢ))` as it completes.
///
/// Like [`ted_star_within`], this canonicalizes per call and touches
/// **neither the process-global [`SignatureInterner`] nor the cross-pair
/// memo**: edit summaries and weighted distances over ephemeral trees
/// leave no process state behind.
pub fn ted_star_report(t1: &Tree, t2: &Tree) -> TedStarReport {
    let a = ned_tree::ahu::canonical_form(t1);
    let b = ned_tree::ahu::canonical_form(t2);
    let code_a = ned_tree::ahu::ordered_code(&a);
    let code_b = ned_tree::ahu::ordered_code(&b);
    ordered_report(&a, &code_a, &b, &code_b)
}

/// TED\* between pre-canonicalized trees — the fast path for query
/// workloads that compare each signature many times. Runs on the
/// budget-aware kernel with an unlimited budget, so it shares the
/// scratch arena and the cross-pair memo with
/// [`ted_star_prepared_within`]; distances equal
/// [`ted_star_prepared_report`]'s.
pub fn ted_star_prepared(a: &PreparedTree, b: &PreparedTree) -> u64 {
    ted_star_prepared_within(a, b, u64::MAX).expect("an unlimited budget never abandons")
}

/// Report variant of [`ted_star_prepared`]: the kernel sweep with every
/// level's costs recorded. Bypasses the memo, which keeps distances only.
pub fn ted_star_prepared_report(a: &PreparedTree, b: &PreparedTree) -> TedStarReport {
    ordered_report(&a.tree, &a.code, &b.tree, &b.code)
}

/// Reports on a canonical pair, swept in canonical-code order (see
/// [`PreparedTree`] for why the order matters).
fn ordered_report(a: &Tree, code_a: &[u8], b: &Tree, code_b: &[u8]) -> TedStarReport {
    if code_a == code_b {
        // Isomorphic: every level zero-pairs away.
        return TedStarReport {
            distance: 0,
            levels: vec![LevelCosts::default(); a.num_levels()],
        };
    }
    if code_a <= code_b {
        crate::ted_kernel::report_sweep_tl(a, b)
    } else {
        crate::ted_kernel::report_sweep_tl(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_tree::generate::{
        caterpillar_tree, path_tree, perfect_tree, random_bounded_depth_tree, star_tree,
    };
    use ned_tree::{ahu, Tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn t(parents: &[u32]) -> Tree {
        Tree::from_parents(parents).unwrap()
    }

    #[test]
    fn identical_singletons() {
        assert_eq!(ted_star(&Tree::singleton(), &Tree::singleton()), 0);
    }

    #[test]
    fn singleton_vs_one_leaf() {
        // One "insert a leaf node" operation.
        assert_eq!(ted_star(&Tree::singleton(), &t(&[0, 0])), 1);
        assert_eq!(ted_star(&t(&[0, 0]), &Tree::singleton()), 1);
    }

    #[test]
    fn star_vs_path_three_nodes() {
        // star(3) = root + 2 leaves (2 levels); path(3) = 3 levels.
        // Verified by hand against Algorithm 1: delete the depth-2 leaf,
        // insert a depth-1 leaf => distance 2.
        assert_eq!(ted_star(&star_tree(3), &path_tree(3)), 2);
    }

    #[test]
    fn figure2_style_trees() {
        // T_alpha = A(B(D, E(F, G)), C), T_beta = A(D, E(H(F, G)), C).
        // Hand-run of Algorithm 1 gives P = [0,1,1,0], M = 0 => 2
        // (delete leaf D at level 2, insert a leaf at level 1).
        let alpha = t(&[0, 0, 0, 1, 1, 4, 4]);
        let beta = t(&[0, 0, 0, 0, 2, 4, 4]);
        assert_eq!(ted_star(&alpha, &beta), 2);
        let report = ted_star_report(&alpha, &beta);
        assert_eq!(report.total_padding(), 2);
        assert_eq!(report.total_matching(), 0);
    }

    #[test]
    fn move_operation_detected() {
        // Two children distributions over the same level sizes:
        // T1 = root(a(x, y), b)  vs  T2 = root(a(x), b(y)):
        // one "move y from a to b" => distance 1.
        let t1 = t(&[0, 0, 0, 1, 1]);
        let t2 = t(&[0, 0, 0, 1, 2]);
        assert_eq!(ted_star(&t1, &t2), 1);
        let report = ted_star_report(&t1, &t2);
        assert_eq!(report.total_matching(), 1);
        assert_eq!(report.total_padding(), 0);
    }

    #[test]
    fn isomorphic_trees_have_zero_distance() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let a = random_bounded_depth_tree(30, 4, &mut rng);
            // Build an isomorphic copy by reversing children insertion:
            // shuffle node ids via from_parents round trip with relabeled ids.
            let mut parents: Vec<(u32, u32)> = (1..a.len() as u32)
                .map(|v| (v, a.parent(v).unwrap()))
                .collect();
            parents.reverse();
            // new ids: old id -> position in reversed order + 1
            let mut new_id = vec![0u32; a.len()];
            for (pos, &(old, _)) in parents.iter().enumerate() {
                new_id[old as usize] = pos as u32 + 1;
            }
            let mut new_parents = vec![0u32; a.len()];
            for &(old, p) in &parents {
                let np = if p == 0 { 0 } else { new_id[p as usize] };
                new_parents[new_id[old as usize] as usize] = np;
            }
            let b = Tree::from_parents(&new_parents).unwrap();
            assert!(ahu::isomorphic(&a, &b));
            assert_eq!(ted_star(&a, &b), 0, "isomorphic trees must be distance 0");
        }
    }

    #[test]
    fn zero_distance_implies_isomorphic() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut zero_seen = 0;
        for _ in 0..200 {
            let a = random_bounded_depth_tree(8, 3, &mut rng);
            let b = random_bounded_depth_tree(8, 3, &mut rng);
            if ted_star(&a, &b) == 0 {
                zero_seen += 1;
                assert!(
                    ahu::isomorphic(&a, &b),
                    "distance 0 on non-isomorphic trees"
                );
            }
        }
        // With 8-node depth<=3 trees some collisions should occur; if not,
        // the identity direction is still covered by the test above.
        let _ = zero_seen;
    }

    #[test]
    fn symmetry_on_random_pairs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..60 {
            let a = random_bounded_depth_tree(25, 4, &mut rng);
            let b = random_bounded_depth_tree(18, 5, &mut rng);
            assert_eq!(ted_star(&a, &b), ted_star(&b, &a));
        }
    }

    #[test]
    fn triangle_inequality_on_random_triples() {
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..60 {
            let a = random_bounded_depth_tree(15, 4, &mut rng);
            let b = random_bounded_depth_tree(20, 3, &mut rng);
            let c = random_bounded_depth_tree(12, 5, &mut rng);
            let ab = ted_star(&a, &b);
            let bc = ted_star(&b, &c);
            let ac = ted_star(&a, &c);
            assert!(ac <= ab + bc, "triangle violated: {ac} > {ab}+{bc}");
        }
    }

    #[test]
    fn different_depths_padded_fully() {
        // path(4) vs singleton: delete 3 leaves (bottom-up) = 3 ops.
        assert_eq!(ted_star(&path_tree(4), &Tree::singleton()), 3);
        // perfect binary of 3 levels (7 nodes) vs singleton: 6 deletes.
        assert_eq!(ted_star(&perfect_tree(2, 3), &Tree::singleton()), 6);
    }

    #[test]
    fn caterpillar_vs_path_costs_leg_deletions() {
        // caterpillar(3 spine, 1 leg) has 6 nodes over 4 levels; the paths
        // differ from it by exactly the legs.
        let cat = caterpillar_tree(3, 1);
        let p = path_tree(cat.num_levels());
        let d = ted_star(&cat, &p);
        assert!(d >= 2, "must at least delete the extra legs, got {d}");
    }

    #[test]
    fn size_bound_holds() {
        // TED* can always delete all of T1 (minus root) and insert all of
        // T2 (minus root): distance <= n1 + n2 - 2.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..40 {
            let a = random_bounded_depth_tree(12, 6, &mut rng);
            let b = random_bounded_depth_tree(19, 2, &mut rng);
            let d = ted_star(&a, &b);
            assert!(d <= (a.len() + b.len() - 2) as u64);
            // and at least the total level-size difference
            let k = a.num_levels().max(b.num_levels());
            let lower: u64 = (0..k)
                .map(|l| a.level_size(l).abs_diff(b.level_size(l)) as u64)
                .sum();
            assert!(d >= lower);
        }
    }

    #[test]
    fn prepared_trees_match_direct_api() {
        let mut rng = SmallRng::seed_from_u64(20);
        for _ in 0..20 {
            let a = random_bounded_depth_tree(18, 4, &mut rng);
            let b = random_bounded_depth_tree(15, 3, &mut rng);
            let pa = PreparedTree::new(&a);
            let pb = PreparedTree::new(&b);
            assert_eq!(ted_star_prepared(&pa, &pb), ted_star(&a, &b));
            assert_eq!(ted_star_prepared(&pb, &pa), ted_star(&a, &b));
            assert!(ned_tree::ahu::isomorphic(pa.tree(), &a));
        }
    }

    #[test]
    fn codes_equal_iff_isomorphic() {
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..40 {
            let a = random_bounded_depth_tree(10, 3, &mut rng);
            let b = random_bounded_depth_tree(10, 3, &mut rng);
            let pa = PreparedTree::new(&a);
            let pb = PreparedTree::new(&b);
            assert_eq!(pa.code() == pb.code(), ned_tree::ahu::isomorphic(&a, &b));
        }
    }

    #[test]
    fn report_sums_to_distance() {
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..30 {
            let a = random_bounded_depth_tree(16, 4, &mut rng);
            let b = random_bounded_depth_tree(24, 3, &mut rng);
            let r = ted_star_report(&a, &b);
            assert_eq!(r.distance, r.total_padding() + r.total_matching());
            assert_eq!(r.distance, ted_star(&a, &b));
            assert_eq!(r.levels.len(), a.num_levels().max(b.num_levels()));
            assert_eq!(r.levels[0].padding, 0, "roots are never padded");
        }
    }

    #[test]
    fn deep_vs_wide_extremes() {
        let deep = path_tree(10);
        let wide = star_tree(10);
        let d = ted_star(&deep, &wide);
        // level profile: deep [1;10], wide [1,9]: padding Σ|Δ| = 8+8 = 16?
        // deep levels: 1 each for 10 levels; wide: [1, 9].
        // level 1: |1-9| = 8; levels 2..9: |1-0| = 1 each (8 total).
        assert_eq!(d, 16);
    }

    #[test]
    fn lower_bound_is_sound_and_sometimes_tight() {
        let mut rng = SmallRng::seed_from_u64(30);
        let mut tight = 0usize;
        for _ in 0..60 {
            let a = random_bounded_depth_tree(20, 4, &mut rng);
            let b = random_bounded_depth_tree(16, 3, &mut rng);
            let lb = ted_star_lower_bound(&a, &b);
            let d = ted_star(&a, &b);
            assert!(lb <= d, "lower bound {lb} exceeds distance {d}");
            if lb == d {
                tight += 1;
            }
        }
        assert!(tight > 0, "the bound should be tight on some pairs");
        // symmetric
        let a = path_tree(5);
        let b = star_tree(7);
        assert_eq!(ted_star_lower_bound(&a, &b), ted_star_lower_bound(&b, &a));
    }

    #[test]
    fn within_respects_limit_semantics() {
        let a = path_tree(10);
        let b = star_tree(10);
        let d = ted_star(&a, &b);
        assert_eq!(ted_star_within(&a, &b, d), Some(d));
        assert_eq!(ted_star_within(&a, &b, u64::MAX), Some(d));
        // a limit below the lower bound abandons without computing
        assert_eq!(ted_star_within(&a, &b, 0), None);
    }
}
