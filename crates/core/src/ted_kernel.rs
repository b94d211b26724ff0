//! The budget-aware TED\* kernel: a scratch-arena, early-abandoning
//! implementation of Algorithm 1 used by
//! [`ted_star_prepared_within`](crate::ted_star_prepared_within) (and,
//! with an unlimited budget, by
//! [`ted_star_prepared`](crate::ted_star_prepared)).
//!
//! It is the crate's only implementation of Algorithm 1: distances,
//! budgeted distances, per-level reports and the phase profile all run
//! [`sweep_core`], differing only in the [`SweepProbe`] they pass. Three
//! things shape it:
//!
//! 1. **Early abandoning.** The sweep maintains
//!    `partial_cost + P_l + residual(l)` — the cost banked at already
//!    processed levels, plus the current level's forced padding, plus the
//!    padding still forced at every level above — and returns `None` the
//!    moment that floor exceeds the budget. The budget is also pushed
//!    *inside* each level's matching: the transportation solve
//!    ([`ned_matching::transportation_into`]) aborts mid-augmentation
//!    once the level's bipartite cost alone proves the total distance
//!    exceeds the budget.
//! 2. **Scratch-arena reuse.** Every buffer the sweep needs — flat
//!    children-collection storage, the pair-local label table, class
//!    groupings, the transportation solver state — lives in a
//!    thread-local [`TedStarScratch`] recycled across calls, so a
//!    steady-state call performs **zero heap allocations** (pinned by
//!    the counting-allocator test in `tests/alloc_counting.rs`).
//! 3. **Hash-consed pair-local labels.** Node canonization uses a flat,
//!    reusable hash table ([`LabelTable`]) instead of a
//!    [`SignatureInterner`](ned_tree::SignatureInterner). Labels only
//!    ever feed equality checks, so any injective relabeling leaves the
//!    distance unchanged.
//!
//! Each level runs zero-pair elimination, the duplicate-collapsed
//! transportation matching and a canonical flow expansion: classes are
//! ordered by their smallest member slot, the transportation solver
//! breaks ties toward lower indices, and flows expand to slots in
//! ascending order. That choice pins re-canonization, and so the
//! distance, for every pair. `ned-bench` keeps the configurable engine
//! this kernel replaced as a frozen baseline, and its tests pin the
//! kernel's distances and per-level reports to it bit for bit.

use crate::ted_star::{LevelCosts, PreparedTree, TedStarReport};
use ned_matching::{transportation_into, TransportScratch};
use ned_tree::Tree;
use std::cell::RefCell;
use std::time::Instant;

/// One phase of the level sweep, as timed by the internal sweep probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPhase {
    /// Level-floor bound check (padding + residual vs budget).
    Bound,
    /// Children-collection construction (CSR build over both levels).
    Collect,
    /// Pair-local hash-consed canonization.
    Canonize,
    /// Zero-pair elimination + multiplicity-class grouping.
    Group,
    /// Class cost matrix + bounded transportation solve.
    Transport,
    /// Canonical flow expansion + re-canonization.
    Expand,
}

/// Instrumentation hook for the sweep. The kernel is generic over the
/// probe and monomorphizes; the default [`NoProbe`] compiles to nothing,
/// so production calls pay zero cost for the instrumentation points.
trait SweepProbe {
    #[inline(always)]
    fn begin(&mut self, _phase: SweepPhase) {}
    #[inline(always)]
    fn end(&mut self, _phase: SweepPhase) {}
    /// Called once per completed level `l` with its Algorithm 1 costs.
    #[inline(always)]
    fn level(&mut self, _l: usize, _costs: LevelCosts) {}
}

/// The zero-cost probe: every hook is an empty inline body.
struct NoProbe;
impl SweepProbe for NoProbe {}

/// Wall-clock totals per sweep phase, in nanoseconds, plus the number of
/// levels actually processed. Produced by
/// [`ted_star_prepared_profiled`](crate::ted_star_prepared_profiled) and
/// consumed by the `kernel_profile` bench.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelProfile {
    /// Time in the per-level floor bound checks.
    pub bound_ns: u64,
    /// Time building children-label collections.
    pub collect_ns: u64,
    /// Time hash-consing pair-local labels.
    pub canonize_ns: u64,
    /// Time in zero-pair elimination and class grouping.
    pub group_ns: u64,
    /// Time in class cost construction and the transportation solve.
    pub transport_ns: u64,
    /// Time expanding flows and re-canonizing child labels.
    pub expand_ns: u64,
    /// Levels the sweep actually processed (< `k` when it abandoned).
    pub levels: u32,
}

impl KernelProfile {
    /// Sum of all phase timings.
    pub fn total_ns(&self) -> u64 {
        self.bound_ns
            + self.collect_ns
            + self.canonize_ns
            + self.group_ns
            + self.transport_ns
            + self.expand_ns
    }
}

/// A probe accumulating wall-clock time per phase.
struct TimingProbe {
    mark: Instant,
    profile: KernelProfile,
}

impl TimingProbe {
    fn new() -> Self {
        TimingProbe {
            mark: Instant::now(),
            profile: KernelProfile::default(),
        }
    }

    fn slot(&mut self, phase: SweepPhase) -> &mut u64 {
        match phase {
            SweepPhase::Bound => &mut self.profile.bound_ns,
            SweepPhase::Collect => &mut self.profile.collect_ns,
            SweepPhase::Canonize => &mut self.profile.canonize_ns,
            SweepPhase::Group => &mut self.profile.group_ns,
            SweepPhase::Transport => &mut self.profile.transport_ns,
            SweepPhase::Expand => &mut self.profile.expand_ns,
        }
    }
}

impl SweepProbe for TimingProbe {
    #[inline]
    fn begin(&mut self, phase: SweepPhase) {
        if phase == SweepPhase::Bound {
            self.profile.levels += 1;
        }
        self.mark = Instant::now();
    }

    #[inline]
    fn end(&mut self, phase: SweepPhase) {
        let elapsed = self.mark.elapsed().as_nanos() as u64;
        *self.slot(phase) += elapsed;
    }
}

/// A probe recording each level's `(Pᵢ, Mᵢ, m(G²ᵢ))`: the per-level
/// report of [`report_sweep_tl`].
struct LevelProbe {
    levels: Vec<LevelCosts>,
}

impl SweepProbe for LevelProbe {
    #[inline]
    fn level(&mut self, l: usize, costs: LevelCosts) {
        self.levels[l] = costs;
    }
}

/// Flat (CSR-style) per-slot children-label collections for one padded
/// level: slot `i`'s collection is `data[offsets[i]..offsets[i + 1]]`,
/// sorted. Padded slots hold empty collections.
#[derive(Debug, Default)]
struct FlatCollections {
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl FlatCollections {
    #[inline]
    fn get(&self, slot: usize) -> &[u32] {
        &self.data[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Rebuilds the collections for the `n` (padded) slots of level `l`,
    /// reading the labels of the *real* nodes one level below.
    fn build(&mut self, t: &Tree, l: usize, child_labels: &[u32], n: usize) {
        self.offsets.clear();
        self.data.clear();
        self.offsets.push(0);
        let lvl = t.level(l);
        let below_start = t.level(l + 1).start;
        for v in lvl.clone() {
            let start = self.data.len();
            for c in t.children(v) {
                self.data.push(child_labels[(c - below_start) as usize]);
            }
            self.data[start..].sort_unstable();
            self.offsets.push(self.data.len() as u32);
        }
        for _ in lvl.len()..n {
            self.offsets.push(self.data.len() as u32);
        }
    }
}

/// A reusable hash-consing table mapping sorted label multisets to dense
/// pair-local ids: the kernel's replacement for per-call interners.
///
/// Open addressing with linear probing directly on the FNV hash — no
/// second hasher, no per-entry boxes. Key storage is flat, and
/// [`LabelTable::reset`] retains every capacity, so steady-state
/// labeling allocates nothing. The assigned ids are a pure function of
/// the call sequence (dense, first-sight order), independent of table
/// capacity or probe history.
#[derive(Debug, Default)]
struct LabelTable {
    /// Power-of-two probe table; `u32::MAX` = empty, else a label id.
    slots: Vec<u32>,
    /// Label id → FNV hash of its key (for cheap probe rejection and
    /// rehash-free growth).
    hashes: Vec<u64>,
    /// Label id → `(start, len)` of its key copy in `keys`.
    spans: Vec<(u32, u32)>,
    /// Flat storage of key copies.
    keys: Vec<u32>,
}

impl LabelTable {
    fn reset(&mut self) {
        self.slots.fill(u32::MAX);
        self.hashes.clear();
        self.spans.clear();
        self.keys.clear();
    }

    #[inline]
    fn key_of(&self, id: u32) -> &[u32] {
        let (start, len) = self.spans[id as usize];
        &self.keys[start as usize..(start + len) as usize]
    }

    /// Doubles the probe table and re-seats every id from its stored
    /// hash. Ids are untouched.
    #[cold]
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        self.slots.clear();
        self.slots.resize(cap, u32::MAX);
        let mask = cap - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut idx = h as usize & mask;
            while self.slots[idx] != u32::MAX {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = id as u32;
        }
    }

    /// Number of ids assigned since the last [`LabelTable::reset`].
    #[inline]
    fn len(&self) -> usize {
        self.spans.len()
    }

    /// The dense id of `key` (a sorted multiset), assigning a fresh id on
    /// first sight.
    fn label(&mut self, key: &[u32]) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in key {
            h ^= u64::from(w);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if (self.spans.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = h as usize & mask;
        loop {
            let id = self.slots[idx];
            if id == u32::MAX {
                let id = self.spans.len() as u32;
                let start = self.keys.len() as u32;
                self.keys.extend_from_slice(key);
                self.spans.push((start, key.len() as u32));
                self.hashes.push(h);
                self.slots[idx] = id;
                return id;
            }
            if self.hashes[id as usize] == h && self.key_of(id) == key {
                return id;
            }
            idx = (idx + 1) & mask;
        }
    }
}

/// The kernel's whole working set, recycled across calls through a
/// thread-local. Nothing here outlives a call semantically — the struct
/// exists purely so the backing heap blocks do.
#[derive(Debug, Default)]
struct TedStarScratch {
    /// `residual[l]` = padding still forced at levels `0..l`.
    residual: Vec<u64>,
    /// Cached per-level widths of both trees, padded with zeros to the
    /// common `k`. Filled once per call — from [`PreparedTree::level_sizes`]
    /// on the prepared path — so the residual build and the sweep read
    /// flat arrays instead of re-deriving sizes per iteration.
    sizes1: Vec<u32>,
    sizes2: Vec<u32>,
    s1: FlatCollections,
    s2: FlatCollections,
    labels: LabelTable,
    c1: Vec<u32>,
    c2: Vec<u32>,
    child1: Vec<u32>,
    child2: Vec<u32>,
    pairs1: Vec<(u32, u32)>,
    pairs2: Vec<(u32, u32)>,
    slots1: Vec<u32>,
    slots2: Vec<u32>,
    /// Leftover classes: `(first_slot, start, len)` ranges into `slots*`.
    classes1: Vec<(u32, u32, u32)>,
    classes2: Vec<(u32, u32, u32)>,
    class_costs: Vec<i64>,
    supplies: Vec<u64>,
    demands: Vec<u64>,
    f: Vec<u32>,
    inv: Vec<u32>,
    col_cursor: Vec<u32>,
    /// Label-inversion scratch for the class cost build: CSR offsets,
    /// scatter cursors, `(column class, multiplicity)` entries per child
    /// label, and the `r·c` intersection-size accumulator.
    lab_off: Vec<u32>,
    lab_cursor: Vec<u32>,
    lab_ent: Vec<(u32, u32)>,
    inter: Vec<u32>,
    transport: TransportScratch,
}

thread_local! {
    static SCRATCH: RefCell<TedStarScratch> = RefCell::new(TedStarScratch::default());
}

/// Fills the scratch size caches from the trees themselves (the one-shot
/// path, which has no [`PreparedTree`] to read them from).
fn fill_sizes_from_trees(t1: &Tree, t2: &Tree, sc: &mut TedStarScratch) {
    let k = t1.num_levels().max(t2.num_levels());
    sc.sizes1.clear();
    sc.sizes1
        .extend((0..t1.num_levels()).map(|l| t1.level_size(l) as u32));
    sc.sizes1.resize(k, 0);
    sc.sizes2.clear();
    sc.sizes2
        .extend((0..t2.num_levels()).map(|l| t2.level_size(l) as u32));
    sc.sizes2.resize(k, 0);
}

/// Fills the scratch size caches from precomputed prepared-tree arrays.
fn fill_sizes_from_slices(a: &[u32], b: &[u32], sc: &mut TedStarScratch) {
    let k = a.len().max(b.len());
    sc.sizes1.clear();
    sc.sizes1.extend_from_slice(a);
    sc.sizes1.resize(k, 0);
    sc.sizes2.clear();
    sc.sizes2.extend_from_slice(b);
    sc.sizes2.resize(k, 0);
}

/// Algorithm 1, bottom-up, abandoning the moment the distance is proven
/// to exceed `budget`, on this thread's recycled scratch arena. Returns
/// `Some(d)` **iff** `d <= budget`.
///
/// Callers are expected to have handled the isomorphic fast path
/// (`Some(0)`) and to pass the trees ordered by canonical code, exactly
/// as [`crate::ted_star_within`] does.
pub(crate) fn bounded_sweep_tl(t1: &Tree, t2: &Tree, budget: u64) -> Option<u64> {
    SCRATCH.with(|s| {
        let sc = &mut *s.borrow_mut();
        fill_sizes_from_trees(t1, t2, sc);
        sweep_core(t1, t2, budget, sc, &mut NoProbe)
    })
}

/// The prepared-pair entry: level sizes come straight from the
/// [`PreparedTree`]s' cached arrays instead of being re-derived from the
/// trees. The caller has ordered the pair by canonical code and handled
/// the isomorphic fast path.
pub(crate) fn bounded_sweep_prepared_tl(
    a: &PreparedTree,
    b: &PreparedTree,
    budget: u64,
) -> Option<u64> {
    SCRATCH.with(|s| {
        let sc = &mut *s.borrow_mut();
        fill_sizes_from_slices(a.level_sizes(), b.level_sizes(), sc);
        sweep_core(a.tree(), b.tree(), budget, sc, &mut NoProbe)
    })
}

/// The instrumented prepared-pair entry: same sweep, but every phase is
/// timed through a [`TimingProbe`]. Used by
/// [`ted_star_prepared_profiled`](crate::ted_star_prepared_profiled).
pub(crate) fn bounded_sweep_profiled_tl(
    a: &PreparedTree,
    b: &PreparedTree,
    budget: u64,
) -> (Option<u64>, KernelProfile) {
    SCRATCH.with(|s| {
        let sc = &mut *s.borrow_mut();
        fill_sizes_from_slices(a.level_sizes(), b.level_sizes(), sc);
        let mut probe = TimingProbe::new();
        let d = sweep_core(a.tree(), b.tree(), budget, sc, &mut probe);
        (d, probe.profile)
    })
}

/// The reporting entry: one unbudgeted sweep that records every level's
/// costs through a [`LevelProbe`]. Like every entry here, the caller has
/// ordered the pair by canonical code.
pub(crate) fn report_sweep_tl(t1: &Tree, t2: &Tree) -> TedStarReport {
    SCRATCH.with(|s| {
        let sc = &mut *s.borrow_mut();
        fill_sizes_from_trees(t1, t2, sc);
        let mut probe = LevelProbe {
            levels: vec![LevelCosts::default(); sc.sizes1.len()],
        };
        let distance = sweep_core(t1, t2, u64::MAX, sc, &mut probe)
            .expect("an unlimited budget never abandons");
        TedStarReport {
            distance,
            levels: probe.levels,
        }
    })
}

/// The generic sweep body. `sc.sizes1`/`sc.sizes2` must already hold both
/// trees' level widths padded to the common `k`.
fn sweep_core<P: SweepProbe>(
    t1: &Tree,
    t2: &Tree,
    budget: u64,
    sc: &mut TedStarScratch,
    probe: &mut P,
) -> Option<u64> {
    let TedStarScratch {
        residual,
        sizes1,
        sizes2,
        s1,
        s2,
        labels,
        c1,
        c2,
        child1,
        child2,
        pairs1,
        pairs2,
        slots1,
        slots2,
        classes1,
        classes2,
        class_costs,
        supplies,
        demands,
        f,
        inv,
        col_cursor,
        lab_off,
        lab_cursor,
        lab_ent,
        inter,
        transport,
    } = sc;

    let k = sizes1.len();
    debug_assert_eq!(k, sizes2.len());
    // residual[l]: padding forced at the levels that will still be
    // unprocessed after level l — the sound, statically-known part of the
    // remaining cost (matching costs above are lower-bounded by zero).
    residual.clear();
    residual.push(0);
    for l in 1..k {
        let below = residual[l - 1] + u64::from(sizes1[l - 1].abs_diff(sizes2[l - 1]));
        residual.push(below);
    }

    let mut partial = 0u64;
    let mut prev_padding = 0u64; // P_{l+1}, zero below the bottom level

    // Number of distinct labels the level below assigned — the id space
    // of every collection at the current level (0 below the bottom).
    let mut nlab_children = 0usize;
    child1.clear();
    child2.clear();

    for l in (0..k).rev() {
        // The floor on the final distance if this level costs nothing
        // beyond its forced padding: banked cost + this level's padding +
        // the padding forced above. Blowing the budget here is final.
        probe.begin(SweepPhase::Bound);
        let n1 = sizes1[l] as usize;
        let n2 = sizes2[l] as usize;
        let n = n1.max(n2);
        let padding = n1.abs_diff(n2) as u64;
        let floor = partial + padding + residual[l];
        probe.end(SweepPhase::Bound);
        if floor > budget {
            return None;
        }

        // Steps 1–2: padding + children-label collections.
        probe.begin(SweepPhase::Collect);
        s1.build(t1, l, child1, n);
        s2.build(t2, l, child2, n);
        probe.end(SweepPhase::Collect);

        // Step 3: canonization via the pair-local label table (labels
        // are shared across both sides, so cross-side equality holds).
        probe.begin(SweepPhase::Canonize);
        labels.reset();
        c1.clear();
        c2.clear();
        for i in 0..n {
            c1.push(labels.label(s1.get(i)));
        }
        for i in 0..n {
            c2.push(labels.label(s2.get(i)));
        }
        probe.end(SweepPhase::Canonize);

        // Zero-pair elimination: pair equal-label slots off first
        // (always part of some optimum — identical collections have a
        // zero-weight edge), leaving per-label leftover classes.
        probe.begin(SweepPhase::Group);
        f.clear();
        f.resize(n, u32::MAX);
        pairs1.clear();
        pairs1.extend(c1.iter().enumerate().map(|(s, &l)| (l, s as u32)));
        pairs1.sort_unstable();
        pairs2.clear();
        pairs2.extend(c2.iter().enumerate().map(|(s, &l)| (l, s as u32)));
        pairs2.sort_unstable();
        slots1.clear();
        slots2.clear();
        classes1.clear();
        classes2.clear();
        {
            let (mut i, mut j) = (0usize, 0usize);
            let run = |pairs: &[(u32, u32)], from: usize| -> usize {
                let label = pairs[from].0;
                let mut end = from + 1;
                while end < pairs.len() && pairs[end].0 == label {
                    end += 1;
                }
                end
            };
            let push_leftover =
                |pairs: &[(u32, u32)],
                 from: usize,
                 to: usize,
                 slots: &mut Vec<u32>,
                 classes: &mut Vec<(u32, u32, u32)>| {
                    if from == to {
                        return;
                    }
                    let start = slots.len() as u32;
                    slots.extend(pairs[from..to].iter().map(|&(_, s)| s));
                    classes.push((pairs[from].1, start, (to - from) as u32));
                };
            while i < pairs1.len() && j < pairs2.len() {
                let (ie, je) = (run(pairs1, i), run(pairs2, j));
                match pairs1[i].0.cmp(&pairs2[j].0) {
                    std::cmp::Ordering::Less => {
                        push_leftover(pairs1, i, ie, slots1, classes1);
                        i = ie;
                    }
                    std::cmp::Ordering::Greater => {
                        push_leftover(pairs2, j, je, slots2, classes2);
                        j = je;
                    }
                    std::cmp::Ordering::Equal => {
                        let zero = (ie - i).min(je - j);
                        for p in 0..zero {
                            f[pairs1[i + p].1 as usize] = pairs2[j + p].1;
                        }
                        // Leftovers are the larger run's suffix: its
                        // first `zero` slots were paired off.
                        push_leftover(pairs1, i + zero, ie, slots1, classes1);
                        push_leftover(pairs2, j + zero, je, slots2, classes2);
                        i = ie;
                        j = je;
                    }
                }
            }
            while i < pairs1.len() {
                let ie = run(pairs1, i);
                push_leftover(pairs1, i, ie, slots1, classes1);
                i = ie;
            }
            while j < pairs2.len() {
                let je = run(pairs2, j);
                push_leftover(pairs2, j, je, slots2, classes2);
                j = je;
            }
        }
        debug_assert_eq!(
            classes1.iter().map(|&(_, _, len)| len).sum::<u32>(),
            classes2.iter().map(|&(_, _, len)| len).sum::<u32>(),
            "leftover slots must balance at level {l}"
        );
        probe.end(SweepPhase::Group);

        // Steps 4–5 on the leftovers: the duplicate-collapsed
        // transportation problem, under the level's share of the budget.
        let bipartite = if classes1.is_empty() {
            0u64
        } else {
            // Canonical class order: by smallest member slot (slot
            // partitions are engine-independent; label values are not).
            probe.begin(SweepPhase::Transport);
            classes1.sort_unstable_by_key(|&(first, _, _)| first);
            classes2.sort_unstable_by_key(|&(first, _, _)| first);

            let cols = classes2.len();
            class_costs.clear();
            supplies.clear();
            demands.clear();
            supplies.extend(classes1.iter().map(|&(_, _, len)| u64::from(len)));
            demands.extend(classes2.iter().map(|&(_, _, len)| u64::from(len)));

            // Pairwise symmetric differences by label inversion instead
            // of `r·c` sorted merges: `|aΔb| = |a| + |b| − 2·|a∩b|`, with
            // the intersection sizes accumulated through a counting-sort
            // CSR of the column collections over the dense child-label
            // ids (`nlab_children` of them, assigned one level below).
            // Work is linear in the collections plus one add per
            // (shared label × row class × column class) triple, instead
            // of touching every pair's full collections.
            lab_off.clear();
            lab_off.resize(nlab_children + 1, 0);
            for &(first2, _, _) in classes2.iter() {
                let s = s2.get(first2 as usize);
                let mut p = 0;
                while p < s.len() {
                    let lab = s[p];
                    let mut q = p + 1;
                    while q < s.len() && s[q] == lab {
                        q += 1;
                    }
                    lab_off[lab as usize + 1] += 1;
                    p = q;
                }
            }
            for i in 0..nlab_children {
                lab_off[i + 1] += lab_off[i];
            }
            lab_cursor.clear();
            lab_cursor.extend_from_slice(&lab_off[..nlab_children]);
            lab_ent.clear();
            lab_ent.resize(lab_off[nlab_children] as usize, (0, 0));
            for (j, &(first2, _, _)) in classes2.iter().enumerate() {
                let s = s2.get(first2 as usize);
                let mut p = 0;
                while p < s.len() {
                    let lab = s[p];
                    let mut q = p + 1;
                    while q < s.len() && s[q] == lab {
                        q += 1;
                    }
                    let slot = lab_cursor[lab as usize];
                    lab_ent[slot as usize] = (j as u32, (q - p) as u32);
                    lab_cursor[lab as usize] = slot + 1;
                    p = q;
                }
            }
            inter.clear();
            inter.resize(classes1.len() * cols, 0);
            for (i, &(first1, _, _)) in classes1.iter().enumerate() {
                let sx = s1.get(first1 as usize);
                let row = &mut inter[i * cols..(i + 1) * cols];
                let mut p = 0;
                while p < sx.len() {
                    let lab = sx[p];
                    let mut q = p + 1;
                    while q < sx.len() && sx[q] == lab {
                        q += 1;
                    }
                    let cr = (q - p) as u32;
                    let ents = &lab_ent
                        [lab_off[lab as usize] as usize..lab_off[lab as usize + 1] as usize];
                    for &(j, cc) in ents {
                        row[j as usize] += cr.min(cc);
                    }
                    p = q;
                }
            }
            // `col_cursor` doubles as a column-collection-length cache
            // here; the expansion below resets it before its own use.
            col_cursor.clear();
            col_cursor.extend(
                classes2
                    .iter()
                    .map(|&(first2, _, _)| s2.get(first2 as usize).len() as u32),
            );
            for (i, &(first1, _, _)) in classes1.iter().enumerate() {
                let la = s1.get(first1 as usize).len();
                for j in 0..cols {
                    let lb = col_cursor[j] as usize;
                    class_costs.push((la + lb - 2 * inter[i * cols + j] as usize) as i64);
                }
            }
            debug_assert!(
                classes1.iter().enumerate().all(|(i, &(first1, _, _))| {
                    let sx = s1.get(first1 as usize);
                    classes2.iter().enumerate().all(|(j, &(first2, _, _))| {
                        class_costs[i * cols + j]
                            == symmetric_difference(sx, s2.get(first2 as usize)) as i64
                    })
                }),
                "label-inversion cost build diverged from pairwise merges at level {l}"
            );

            // Equation 5 will charge `(m(G²) − P_below) / 2` moves at
            // this level; the budget leaves room for at most `slack` of
            // them, so the matching may cost at most this much before
            // the whole distance provably exceeds the budget.
            let slack = budget - floor;
            let limit = slack
                .saturating_mul(2)
                .saturating_add(prev_padding)
                .min(i64::MAX as u64) as i64;
            let cost = match transportation_into(supplies, demands, class_costs, limit, transport) {
                Some(cost) => cost,
                None => {
                    probe.end(SweepPhase::Transport);
                    return None;
                }
            };
            probe.end(SweepPhase::Transport);

            // Canonical expansion: flows consumed in ascending
            // (row class, column class) order, slots within each class
            // ascending — the choice that pins re-canonization (and so
            // the distance) across engines.
            probe.begin(SweepPhase::Expand);
            col_cursor.clear();
            col_cursor.resize(cols, 0);
            for (ci, &(_, start1, len1)) in classes1.iter().enumerate() {
                let mut rc = 0u32;
                for (cj, &(_, start2, _)) in classes2.iter().enumerate() {
                    for _ in 0..transport.flows[ci * cols + cj] {
                        let from = slots1[(start1 + rc) as usize];
                        let to = slots2[(start2 + col_cursor[cj]) as usize];
                        f[from as usize] = to;
                        rc += 1;
                        col_cursor[cj] += 1;
                    }
                }
                debug_assert_eq!(rc, len1, "row class not exhausted at level {l}");
            }
            probe.end(SweepPhase::Expand);
            cost as u64
        };

        // Equation 5: with exact matching the subtraction is provably
        // non-negative and even.
        debug_assert!(
            bipartite >= prev_padding,
            "m(G²)={bipartite} < P_below={prev_padding} at level {l}"
        );
        debug_assert_eq!(
            (bipartite - prev_padding) % 2,
            0,
            "odd matching residue at level {l}"
        );
        let matching = bipartite.saturating_sub(prev_padding) / 2;
        probe.level(
            l,
            LevelCosts {
                padding,
                matching,
                bipartite,
            },
        );

        // Step 6: re-canonization — the smaller (padded) side adopts the
        // labels of its matched partners, so both levels expose equal
        // label multisets to the level above. The child-label buffers are
        // dead once this level's collections were built, so they are
        // overwritten in place (their capacities stay monotone, which is
        // what keeps steady-state calls allocation-free).
        probe.begin(SweepPhase::Expand);
        child1.clear();
        child2.clear();
        if n1 < n2 {
            child1.extend((0..n1).map(|x| c2[f[x] as usize]));
            child2.extend_from_slice(&c2[..n2]);
        } else {
            inv.clear();
            inv.resize(n, 0);
            for (x, &y) in f.iter().enumerate() {
                inv[y as usize] = x as u32;
            }
            child1.extend_from_slice(&c1[..n1]);
            child2.extend((0..n2).map(|y| c1[inv[y] as usize]));
        }
        probe.end(SweepPhase::Expand);

        partial += padding + matching;
        prev_padding = padding;
        nlab_children = labels.len();
    }

    debug_assert!(partial <= budget, "completed sweep exceeded its budget");
    Some(partial)
}

/// `|a Δ b|` for sorted multisets — the edge weight of `G²ᵢ` (Section 5.4).
/// The sweep builds its class costs by label inversion instead; debug
/// builds check every cost against this pairwise merge.
fn symmetric_difference(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut d) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                d += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    d + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    use super::symmetric_difference;

    #[test]
    fn symmetric_difference_multiset_semantics() {
        assert_eq!(symmetric_difference(&[0, 0, 1], &[0, 2]), 3);
        assert_eq!(symmetric_difference(&[], &[]), 0);
        assert_eq!(symmetric_difference(&[1, 1, 1], &[1]), 2);
        assert_eq!(symmetric_difference(&[0, 1], &[0, 1]), 0);
    }
}
