//! The frozen Algorithm 1: the configurable, allocating level sweep that
//! `ned-core`'s budget-aware kernel replaced. Nothing serves from it; it
//! is the timing baseline behind `ned_pair/width192/dense-legacy` and
//! `ned_pair/ba4000-k4-presoa`, the matcher ablation, and the
//! independent reference `tests/frozen_algorithm1.rs` pins the kernel's
//! distances and per-level reports to. With [`Matcher::Hungarian`] the matching feeding
//! re-canonization (step 6) comes from one canonical transportation
//! solution over duplicate classes ordered by their smallest member slot,
//! the kernel's own choice, so the two agree bit for bit.

use ned_core::{LevelCosts, PreparedTree, TedStarReport};
use ned_matching::{greedy_matching, hungarian, transportation, CostMatrix};
use ned_tree::{ahu, SignatureInterner, Tree};

/// Which bipartite matcher drives step 4 of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matcher {
    /// Exact minimum-cost matching, solved on the duplicate-collapsed
    /// class problem by the transportation solver.
    Hungarian,
    /// The original formulation exactly as first implemented: dense
    /// `O(n³)` Hungarian with the matching taken straight from the dense
    /// assignment. Optimal cost, but which optimum it returns is an
    /// implementation accident, so re-canonization — and occasionally the
    /// distance — is tie-break sensitive. Kept as the honest *timing*
    /// baseline for the uncollapsed path (it pays no transportation
    /// overhead).
    LegacyHungarian,
    /// Cheapest-edge-first greedy matching. Faster, but the resulting
    /// "distance" can over-estimate and lose the metric guarantees; kept
    /// for the ablation benchmarks.
    Greedy,
}

/// The frozen engine's knobs.
#[derive(Debug, Clone, Copy)]
pub struct TedStarConfig {
    /// Bipartite matcher choice.
    pub matcher: Matcher,
    /// When `true`, slots whose children-label collections are identical
    /// are paired off before the matching runs. Pairing zero-weight edges
    /// first is always optimal here because the symmetric-difference
    /// weight satisfies the triangle inequality across slots; on
    /// near-isomorphic levels this skips the matching entirely.
    pub skip_zero_pairs: bool,
    /// When `true`, the pair path runs **pre-rebuild code end to end**:
    /// preparation uses the byte-materializing
    /// [`ned_tree::ahu::canonical_form_reference`] plus the general
    /// sorting [`ned_tree::ahu::canonical_code`], and the class-level
    /// matching runs on [`ned_matching::transportation_reference`], the
    /// solver as it stood before the SoA kernel rebuild. Results are
    /// bit-identical either way; this knob exists so benchmarks can time
    /// the pre-rebuild pair path without it inheriting canonicalization
    /// or solver speedups.
    pub frozen_baseline: bool,
}

impl TedStarConfig {
    /// Exact matching with zero-pair elimination: the configuration the
    /// kernel reproduces.
    pub fn standard() -> Self {
        TedStarConfig {
            matcher: Matcher::Hungarian,
            skip_zero_pairs: true,
            frozen_baseline: false,
        }
    }
}

/// `TED*` under an explicit [`TedStarConfig`].
pub fn ted_star_with(t1: &Tree, t2: &Tree, config: &TedStarConfig) -> u64 {
    ted_star_report(t1, t2, config).distance
}

/// Canonicalizes both trees and runs Algorithm 1 on the canonically
/// ordered pair (see [`PreparedTree`] for why).
pub fn ted_star_report(t1: &Tree, t2: &Tree, config: &TedStarConfig) -> TedStarReport {
    if config.frozen_baseline {
        let ((a, code_a), (b, code_b)) = (prepare_reference(t1), prepare_reference(t2));
        return ordered_report(&a, &code_a, &b, &code_b, config);
    }
    ted_star_prepared_report(&PreparedTree::new(t1), &PreparedTree::new(t2), config)
}

/// [`ted_star_report`] between prepared trees.
pub fn ted_star_prepared_report(
    a: &PreparedTree,
    b: &PreparedTree,
    config: &TedStarConfig,
) -> TedStarReport {
    ordered_report(a.tree(), a.code(), b.tree(), b.code(), config)
}

/// The preparation the pre-SoA pair path paid: the byte-materializing
/// reference canonical form and the general sorting canonical code, plus
/// the per-level global-interner classes every prepared tree carried
/// (the sweep reads none; they are interned to keep paying for them).
fn prepare_reference(t: &Tree) -> (Tree, Vec<u8>) {
    let tree = ahu::canonical_form_reference(t);
    let code = ahu::canonical_code(&tree);
    std::hint::black_box(SignatureInterner::global().level_classes(&tree));
    (tree, code)
}

/// Sweeps a canonical pair in canonical-code order.
fn ordered_report(
    a: &Tree,
    code_a: &[u8],
    b: &Tree,
    code_b: &[u8],
    config: &TedStarConfig,
) -> TedStarReport {
    if code_a == code_b {
        // Isomorphic: the whole sweep would zero-pair every level.
        return TedStarReport {
            distance: 0,
            levels: vec![LevelCosts::default(); a.num_levels()],
        };
    }
    if code_a <= code_b {
        ted_star_directional(a, b, config)
    } else {
        ted_star_directional(b, a, config)
    }
}

/// Algorithm 1 exactly as printed, sweeping levels bottom-up on the trees
/// in the orientation given. Not symmetric: [`ted_star_report`] wraps it
/// in the canonicalization that makes the distance well-defined (the
/// per-level padding costs are orientation-independent either way).
pub fn ted_star_directional(t1: &Tree, t2: &Tree, config: &TedStarConfig) -> TedStarReport {
    let k = t1.num_levels().max(t2.num_levels());
    let mut levels = vec![LevelCosts::default(); k];
    let mut distance = 0u64;
    let sweep_interner = SignatureInterner::new();

    // Labels of the *real* nodes one level below the one being processed,
    // indexed by position within their level. Re-canonization (step 6)
    // updates these so each level only ever needs its children's labels.
    let mut child_labels1: Vec<u32> = Vec::new();
    let mut child_labels2: Vec<u32> = Vec::new();
    let mut prev_padding = 0u64; // P_{i+1}, zero below the bottom level

    for l in (0..k).rev() {
        let n1 = t1.level_size(l);
        let n2 = t2.level_size(l);
        let n = n1.max(n2);
        let padding = n1.abs_diff(n2) as u64;

        // Steps 1–2: padding + children-label collections. Padded slots
        // (positions >= real size) keep empty collections: a padded node
        // has no children and is attached to no parent.
        let s1 = collections(t1, l, &child_labels1, n);
        let s2 = collections(t2, l, &child_labels2, n);

        // Step 3 (node canonization): interned signature ids, one hash
        // lookup per slot. The interner is *local to this sweep*:
        // re-canonization manufactures hybrid multisets that exist only
        // for this pair, and feeding those into the process-global
        // interner would grow it with every pair compared instead of with
        // every distinct shape.
        let (c1, c2) = canonize_interned(&s1, &s2, &sweep_interner);

        // Steps 4–5: bipartite construction + minimum matching.
        let (bipartite, f) = match_levels(&s1, &s2, &c1, &c2, config);

        // Equation 5. With the exact matcher the subtraction is provably
        // non-negative and even; the greedy matcher voids that warranty,
        // so clamp instead of panicking there.
        if matches!(
            config.matcher,
            Matcher::Hungarian | Matcher::LegacyHungarian
        ) {
            debug_assert!(
                bipartite >= prev_padding,
                "m(G²)={bipartite} < P_below={prev_padding} at level {l}"
            );
            debug_assert_eq!(
                (bipartite - prev_padding) % 2,
                0,
                "odd matching residue at level {l}"
            );
        }
        let matching = bipartite.saturating_sub(prev_padding) / 2;

        // Step 6: re-canonization — the smaller (padded) side adopts the
        // labels of its matched partners, so both levels now expose equal
        // label multisets to the level above.
        if n1 < n2 {
            child_labels1 = (0..n1).map(|x| c2[f[x] as usize]).collect();
            child_labels2 = c2[..n2].to_vec();
        } else {
            let mut inv = vec![0u32; n];
            for (x, &y) in f.iter().enumerate() {
                inv[y as usize] = x as u32;
            }
            child_labels1 = c1[..n1].to_vec();
            child_labels2 = (0..n2).map(|y| c1[inv[y] as usize]).collect();
        }

        distance += padding + matching;
        levels[l] = LevelCosts {
            padding,
            matching,
            bipartite,
        };
        prev_padding = padding;
    }

    TedStarReport { distance, levels }
}

/// Children-label collections for the `n` (padded) slots of level `l`.
/// Each collection is sorted so weights and canonization can merge-scan.
fn collections(t: &Tree, l: usize, child_labels: &[u32], n: usize) -> Vec<Vec<u32>> {
    let mut s: Vec<Vec<u32>> = vec![Vec::new(); n];
    let lvl = t.level(l);
    let below = t.level(l + 1);
    for v in lvl.clone() {
        let slot = (v - lvl.start) as usize;
        let children = t.children(v);
        if children.is_empty() {
            continue;
        }
        let coll = &mut s[slot];
        coll.reserve(children.len());
        for c in children {
            coll.push(child_labels[(c - below.start) as usize]);
        }
        coll.sort_unstable();
    }
    s
}

/// Interned canonization: each (sorted) collection's label is its
/// interner id, so equal collections — isomorphic subtrees, by Lemma 1 —
/// share a label.
fn canonize_interned(
    s1: &[Vec<u32>],
    s2: &[Vec<u32>],
    interner: &SignatureInterner,
) -> (Vec<u32>, Vec<u32>) {
    let label = |s: &Vec<u32>| interner.intern(s);
    (
        s1.iter().map(label).collect(),
        s2.iter().map(label).collect(),
    )
}

/// One side's multiplicity class: slots sharing a canonization label
/// (i.e. carrying identical children collections).
struct SlotClass {
    label: u32,
    /// Member slots, ascending.
    slots: Vec<u32>,
}

/// Groups a level's slots by label, ascending by label (members ascending
/// by slot index).
fn group_by_label(c: &[u32]) -> Vec<SlotClass> {
    let mut pairs: Vec<(u32, u32)> = c
        .iter()
        .enumerate()
        .map(|(slot, &label)| (label, slot as u32))
        .collect();
    pairs.sort_unstable();
    let mut out: Vec<SlotClass> = Vec::new();
    for (label, slot) in pairs {
        match out.last_mut() {
            Some(class) if class.label == label => class.slots.push(slot),
            _ => out.push(SlotClass {
                label,
                slots: vec![slot],
            }),
        }
    }
    out
}

/// Steps 4–5: compute the minimum matching cost of `G²ᵢ` plus the
/// bijection `f` (as `f[slot1] = slot2` over all `n` padded slots).
///
/// The matching never needs individual slots: slots with equal labels are
/// interchangeable, so the problem is grouped into multiplicity classes
/// and solved as a transportation problem over *distinct* collections
/// only. For determinism, classes are ordered by their smallest member
/// slot (the slot partition, unlike label values, does not depend on how
/// labels are assigned), the transportation solve breaks ties toward
/// lower indices, and flows expand to slots in ascending order. The
/// legacy and greedy matchers keep their original per-slot semantics.
fn match_levels(
    s1: &[Vec<u32>],
    s2: &[Vec<u32>],
    c1: &[u32],
    c2: &[u32],
    config: &TedStarConfig,
) -> (u64, Vec<u32>) {
    let n = s1.len();
    let mut f = vec![u32::MAX; n];
    if n == 0 {
        return (0, f);
    }

    let mut g1 = group_by_label(c1);
    let mut g2 = group_by_label(c2);

    if config.skip_zero_pairs {
        // Merge-scan the label-sorted class lists; equal labels mean
        // identical collections (zero-weight edges), and pairing those
        // first is always part of some optimal matching (triangle
        // inequality through the identical pair). Which partner a slot
        // zero-pairs with never matters: both carry the same label, so
        // re-canonization adopts the same value either way.
        let (mut i, mut j) = (0usize, 0usize);
        while i < g1.len() && j < g2.len() {
            match g1[i].label.cmp(&g2[j].label) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let pairs = g1[i].slots.len().min(g2[j].slots.len());
                    for p in 0..pairs {
                        f[g1[i].slots[p] as usize] = g2[j].slots[p];
                    }
                    g1[i].slots.drain(..pairs);
                    g2[j].slots.drain(..pairs);
                    i += 1;
                    j += 1;
                }
            }
        }
        g1.retain(|class| !class.slots.is_empty());
        g2.retain(|class| !class.slots.is_empty());
    }
    debug_assert_eq!(
        g1.iter().map(|c| c.slots.len()).sum::<usize>(),
        g2.iter().map(|c| c.slots.len()).sum::<usize>()
    );

    if g1.is_empty() {
        return (0, f);
    }

    // Canonical class order: by smallest member slot. Label *values* (and
    // hence the label-sorted grouping order) depend on how labels were
    // assigned — but the *partition of slots into classes* does not, so
    // ordering classes by their first slot pins one deterministic
    // transportation instance.
    g1.sort_by_key(|class| class.slots[0]);
    g2.sort_by_key(|class| class.slots[0]);

    match config.matcher {
        // Original per-slot paths: build their own dense matrices, take
        // the bijection straight from the assignment. No class matrix or
        // transportation work happens for them.
        Matcher::Greedy => {
            let cost = slot_level_matching(s1, s2, &g1, &g2, &mut f, greedy_matching);
            return (cost, f);
        }
        Matcher::LegacyHungarian => {
            let cost = slot_level_matching(s1, s2, &g1, &g2, &mut f, hungarian);
            return (cost, f);
        }
        Matcher::Hungarian => {}
    }

    let (rows, cols) = (g1.len(), g2.len());
    let mut class_costs = vec![0i64; rows * cols];
    for (i, rc) in g1.iter().enumerate() {
        let sx = &s1[rc.slots[0] as usize];
        for (j, cc) in g2.iter().enumerate() {
            class_costs[i * cols + j] = symmetric_difference(sx, &s2[cc.slots[0] as usize]) as i64;
        }
    }

    let supplies: Vec<u64> = g1.iter().map(|c| c.slots.len() as u64).collect();
    let demands: Vec<u64> = g2.iter().map(|c| c.slots.len() as u64).collect();
    let transport = if config.frozen_baseline {
        ned_matching::transportation_reference(&supplies, &demands, &class_costs)
    } else {
        transportation(&supplies, &demands, &class_costs)
    };

    // Canonical expansion: consume flows in ascending (row class, column
    // class) order, slots within each class in ascending order. Step 6
    // (re-canonization) reads `f`, so this choice — not the cost engine —
    // is what pins the distance.
    let mut col_cursor = vec![0usize; cols];
    for (i, rc) in g1.iter().enumerate() {
        let mut row_cursor = 0usize;
        for (j, cc) in g2.iter().enumerate() {
            for _ in 0..transport.flows[i * cols + j] {
                f[rc.slots[row_cursor] as usize] = cc.slots[col_cursor[j]];
                row_cursor += 1;
                col_cursor[j] += 1;
            }
        }
        debug_assert_eq!(row_cursor, rc.slots.len(), "row class not exhausted");
    }

    (transport.cost as u64, f)
}

/// Original per-slot matching over the dense leftover matrix; the
/// bijection comes straight from whichever assignment `matcher` returns
/// (the greedy and legacy-Hungarian paths keep their original
/// semantics, tie-breaks included).
fn slot_level_matching(
    s1: &[Vec<u32>],
    s2: &[Vec<u32>],
    g1: &[SlotClass],
    g2: &[SlotClass],
    f: &mut [u32],
    matcher: fn(&CostMatrix) -> ned_matching::Assignment,
) -> u64 {
    let mut rest1: Vec<u32> = g1.iter().flat_map(|c| c.slots.iter().copied()).collect();
    let mut rest2: Vec<u32> = g2.iter().flat_map(|c| c.slots.iter().copied()).collect();
    rest1.sort_unstable();
    rest2.sort_unstable();
    let r = rest1.len();
    let mut costs = CostMatrix::zeros(r);
    for (i, &x) in rest1.iter().enumerate() {
        let sx = &s1[x as usize];
        for (j, &y) in rest2.iter().enumerate() {
            costs.set(i, j, symmetric_difference(sx, &s2[y as usize]) as i64);
        }
    }
    let assignment = matcher(&costs);
    for (i, &j) in assignment.row_to_col.iter().enumerate() {
        f[rest1[i] as usize] = rest2[j];
    }
    assignment.cost as u64
}

/// `|a Δ b|` for sorted multisets — the edge weight of `G²ᵢ` (Section 5.4).
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
