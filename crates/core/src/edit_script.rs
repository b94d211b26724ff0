//! Interpretable edit summaries.
//!
//! One of NED's selling points over feature- and HITS-based similarities is
//! that its value *means* something: the exact number of depth-preserving
//! edit operations separating two neighborhood topologies. This module
//! turns the per-level cost breakdown of Algorithm 1 into the operation
//! counts for the direction "transform `T1` into `T2`": at each level the
//! padding cost becomes leaf insertions (if `T1`'s level is smaller) or
//! leaf deletions (if larger), and the matching cost becomes same-level
//! moves.

use crate::ted_star::ted_star_report;
use ned_tree::{ahu, Tree};

/// Edit-operation counts at one level (0-based, root = level 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelOps {
    /// The level these operations apply to.
    pub level: usize,
    /// "Insert a leaf node" operations performed on `T1` at this level.
    pub insert_leaves: u64,
    /// "Delete a leaf node" operations performed on `T1` at this level.
    pub delete_leaves: u64,
    /// "Move a node at the same level" operations at this level.
    pub moves: u64,
}

impl LevelOps {
    /// Total operations at this level.
    pub fn total(&self) -> u64 {
        self.insert_leaves + self.delete_leaves + self.moves
    }
}

/// A per-level account of the optimal TED\* edit script `T1 → T2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditSummary {
    /// Levels with at least one operation, ordered root-to-leaves.
    pub ops: Vec<LevelOps>,
    /// `TED*(T1, T2)`.
    pub distance: u64,
}

impl EditSummary {
    /// Total leaf insertions across levels.
    pub fn total_inserts(&self) -> u64 {
        self.ops.iter().map(|o| o.insert_leaves).sum()
    }

    /// Total leaf deletions across levels.
    pub fn total_deletes(&self) -> u64 {
        self.ops.iter().map(|o| o.delete_leaves).sum()
    }

    /// Total same-level moves across levels.
    pub fn total_moves(&self) -> u64 {
        self.ops.iter().map(|o| o.moves).sum()
    }

    /// Renders a short human-readable description, e.g. for CLI output.
    pub fn describe(&self) -> String {
        if self.ops.is_empty() {
            return "trees are isomorphic (0 operations)".to_string();
        }
        let mut out = format!("{} operation(s):", self.distance);
        for op in &self.ops {
            if op.insert_leaves > 0 {
                out.push_str(&format!(
                    " insert {} leaf(s) at level {};",
                    op.insert_leaves, op.level
                ));
            }
            if op.delete_leaves > 0 {
                out.push_str(&format!(
                    " delete {} leaf(s) at level {};",
                    op.delete_leaves, op.level
                ));
            }
            if op.moves > 0 {
                out.push_str(&format!(
                    " move {} node(s) at level {};",
                    op.moves, op.level
                ));
            }
        }
        out
    }
}

/// Summarizes the optimal TED\* edit script converting `t1` into (a tree
/// isomorphic to) `t2`.
///
/// The padding cost at level `l` becomes leaf inserts/deletes *at* level
/// `l`; the matching cost computed at level `l` counts children
/// disagreements, i.e. it physically moves nodes one level *below* (the
/// paper's "move node nv from y to fi(x)" example in Section 5.6), so
/// moves are attributed to `l + 1`.
pub fn explain(t1: &Tree, t2: &Tree) -> EditSummary {
    let report = ted_star_report(t1, t2);
    let k = report.levels.len();
    let mut per_level = vec![(0u64, 0u64, 0u64); k + 1]; // (ins, del, mov)
    for (level, costs) in report.levels.iter().enumerate() {
        if costs.padding > 0 {
            if t1.level_size(level) < t2.level_size(level) {
                per_level[level].0 += costs.padding;
            } else {
                per_level[level].1 += costs.padding;
            }
        }
        if costs.matching > 0 {
            per_level[level + 1].2 += costs.matching;
        }
    }
    let ops: Vec<LevelOps> = per_level
        .into_iter()
        .enumerate()
        .filter(|&(_, (i, d, m))| i + d + m > 0)
        .map(|(level, (insert_leaves, delete_leaves, moves))| LevelOps {
            level,
            insert_leaves,
            delete_leaves,
            moves,
        })
        .collect();
    EditSummary {
        ops,
        distance: report.distance,
    }
}

// ---------------------------------------------------------------------------
// Concrete, executable edit scripts
// ---------------------------------------------------------------------------

/// One TED\* edit operation over *working ids*: the ids of `T1`'s nodes
/// (stable while the script runs), with inserted nodes receiving fresh ids
/// beyond `T1`'s range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Insert a new leaf with id `id` under `parent`.
    InsertLeaf {
        /// Fresh id of the inserted node.
        id: u32,
        /// Working id of the parent (must be alive).
        parent: u32,
    },
    /// Delete the leaf `id`.
    DeleteLeaf {
        /// Working id of the deleted node (must be a leaf at that point).
        id: u32,
    },
    /// Re-attach `id` to `new_parent` (same level as the old parent).
    Move {
        /// Working id of the moved node.
        id: u32,
        /// Working id of the new parent.
        new_parent: u32,
    },
}

/// A concrete, replayable script converting `T1` into a tree isomorphic
/// to `T2`. Produced by [`script`], validated by [`apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditScript {
    /// Operations in a valid execution order (inserts and moves top-down,
    /// deletions bottom-up at the end).
    pub ops: Vec<EditOp>,
}

impl EditScript {
    /// Number of operations — a *certified upper bound* on the true
    /// Definition-3 TED\* (the script is replayable, so the minimum can
    /// not exceed it). Reproduction note: this count and [`ted_star`]'s
    /// value are **both** upper bounds on the definition and neither
    /// dominates the other — on most instances they agree, but the
    /// top-down greedy here occasionally finds a *shorter* script than
    /// the level-by-level Algorithm 1 charges (see the test suite), which
    /// certifies that Algorithm 1 is not exactly the Definition-3
    /// minimum on all inputs.
    ///
    /// [`ted_star`]: crate::ted_star
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when `T1` and `T2` were already isomorphic.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Working state while generating or applying a script.
struct Arena {
    /// `parent[id]`; `u32::MAX` marks the root.
    parent: Vec<u32>,
    alive: Vec<bool>,
    level: Vec<u32>,
}

impl Arena {
    fn from_tree(t: &Tree) -> Self {
        let n = t.len();
        let mut parent = vec![u32::MAX; n];
        let mut level = vec![0u32; n];
        for v in 1..n as u32 {
            parent[v as usize] = t.parent(v).expect("non-root");
            level[v as usize] = t.depth(v) as u32;
        }
        Arena {
            parent,
            alive: vec![true; n],
            level,
        }
    }

    fn insert_leaf(&mut self, under: u32) -> u32 {
        debug_assert!(self.alive[under as usize]);
        let id = self.parent.len() as u32;
        self.parent.push(under);
        self.alive.push(true);
        self.level.push(self.level[under as usize] + 1);
        id
    }

    fn children_alive(&self, of: u32) -> usize {
        self.parent
            .iter()
            .enumerate()
            .filter(|&(c, &p)| p == of && self.alive[c])
            .count()
    }

    /// Extracts the surviving nodes as a [`Tree`].
    fn to_tree(&self) -> Tree {
        let mut remap = vec![u32::MAX; self.parent.len()];
        let mut next = 0u32;
        for (id, &alive) in self.alive.iter().enumerate() {
            if alive {
                remap[id] = next;
                next += 1;
            }
        }
        let mut parents = vec![0u32; next as usize];
        for (id, &alive) in self.alive.iter().enumerate() {
            if !alive {
                continue;
            }
            let p = self.parent[id];
            parents[remap[id] as usize] = if p == u32::MAX {
                remap[id]
            } else {
                remap[p as usize]
            };
        }
        Tree::from_parents(&parents).expect("script preserves tree validity")
    }
}

/// Generates a concrete edit script converting `t1` into a tree
/// isomorphic to `t2`.
///
/// Construction: sweep levels top-down; at each level, match `t2`'s nodes
/// to surviving `t1` nodes preferring (a) candidates already under the
/// right parent with an isomorphic original subtree, (b) candidates under
/// the right parent, (c) candidates with an isomorphic subtree elsewhere
/// (one move), (d) any candidate (one move). Unmatched `t2` nodes become
/// leaf inserts; unmatched `t1` nodes are deleted bottom-up at the end.
/// Every emitted operation is a legal TED\* operation at the moment it
/// executes.
pub fn script(t1: &Tree, t2: &Tree) -> EditScript {
    let mut arena = Arena::from_tree(t1);
    let fp1 = ahu::subtree_fingerprints(t1);
    let fp2 = ahu::subtree_fingerprints(t2);
    let mut ops = Vec::new();
    // counterpart[y] = working id serving as t2 node y
    let mut counterpart = vec![u32::MAX; t2.len()];
    counterpart[0] = 0;
    // working ids that will be deleted, grouped by level
    let kmax = t1.num_levels().max(t2.num_levels());
    let mut surplus_by_level: Vec<Vec<u32>> = vec![Vec::new(); kmax + 1];
    // alive t1 ids per level (t1 ids never change level)
    let mut side1_at: Vec<Vec<u32>> = (0..kmax)
        .map(|l| t1.level(l).collect::<Vec<u32>>())
        .collect();

    // Subtree level profiles are the pairing heuristic: their L1 distance
    // lower-bounds the residual work of aligning two subtrees, so the
    // per-level assignment below looks one step beyond pure parent
    // agreement.
    let profiles1 = t1.subtree_profiles();
    let profiles2 = t2.subtree_profiles();
    let profile_l1 = |a: &[u32], b: &[u32]| -> i64 {
        let mut d = 0i64;
        for i in 0..a.len().max(b.len()) {
            let x = a.get(i).copied().unwrap_or(0) as i64;
            let y = b.get(i).copied().unwrap_or(0) as i64;
            d += (x - y).abs();
        }
        d
    };

    for l in 1..kmax {
        let side2: Vec<u32> = t2.level(l).collect();
        let candidates = std::mem::take(&mut side1_at[l]);
        let desired_parent: Vec<u32> = side2
            .iter()
            .map(|&y| counterpart[t2.parent(y).expect("non-root") as usize])
            .collect();
        debug_assert!(desired_parent.iter().all(|&p| p != u32::MAX));

        // Square assignment over padded slots: row = t1 candidate or a
        // "delete" slot, column = t2 node or an "insert" slot. Costs:
        //   kept pair: (1 if it needs a move) + profile divergence,
        //              minus a tiny bonus when fingerprints agree exactly;
        //   x -> insert slot: delete x's whole subtree later;
        //   delete slot -> y: insert y's whole subtree.
        // Everything is scaled by 4 so the fingerprint bonus (1) stays a
        // strict tie-breaker below the unit of one edit operation.
        const SCALE: i64 = 4;
        let n = candidates.len().max(side2.len());
        if n == 0 {
            continue;
        }
        let mut costs = ned_matching::CostMatrix::zeros(n);
        // rows/cols index three parallel views (candidates, side2,
        // desired_parent), so a plain index loop reads clearest here
        #[allow(clippy::needless_range_loop)]
        for row in 0..n {
            for col in 0..n {
                let cost = match (candidates.get(row), side2.get(col)) {
                    (Some(&x), Some(&y)) => {
                        let needs_move = i64::from(arena.parent[x as usize] != desired_parent[col]);
                        let divergence = profile_l1(&profiles1[x as usize], &profiles2[y as usize]);
                        let bonus = i64::from(fp1[x as usize] == fp2[y as usize]);
                        SCALE * (needs_move + divergence) - bonus
                    }
                    (Some(&x), None) => {
                        SCALE * profiles1[x as usize].iter().map(|&c| c as i64).sum::<i64>()
                    }
                    (None, Some(&y)) => {
                        SCALE * profiles2[y as usize].iter().map(|&c| c as i64).sum::<i64>()
                    }
                    (None, None) => 0,
                };
                costs.set(row, col, cost);
            }
        }
        let assignment = ned_matching::hungarian(&costs);

        for (row, &col) in assignment.row_to_col.iter().enumerate() {
            match (candidates.get(row), side2.get(col)) {
                (Some(&x), Some(&y)) => {
                    let desired = desired_parent[col];
                    if arena.parent[x as usize] != desired {
                        ops.push(EditOp::Move {
                            id: x,
                            new_parent: desired,
                        });
                        arena.parent[x as usize] = desired;
                    }
                    counterpart[y as usize] = x;
                }
                (Some(&x), None) => surplus_by_level[l].push(x),
                (None, Some(&y)) => {
                    let desired = desired_parent[col];
                    let id = arena.insert_leaf(desired);
                    ops.push(EditOp::InsertLeaf {
                        id,
                        parent: desired,
                    });
                    counterpart[y as usize] = id;
                }
                (None, None) => {}
            }
        }
    }

    // Deletions, deepest level first: every surplus node's children are
    // either surplus (already deleted) or were moved to a counterpart.
    for l in (1..kmax).rev() {
        for &x in surplus_by_level[l].iter().rev() {
            debug_assert_eq!(arena.children_alive(x), 0, "surplus node kept children");
            arena.alive[x as usize] = false;
            ops.push(EditOp::DeleteLeaf { id: x });
        }
    }

    debug_assert!(
        ahu::isomorphic(&arena.to_tree(), t2),
        "generated script must realize t2"
    );
    EditScript { ops }
}

/// Replays `script` on `t1`, validating every operation, and returns the
/// resulting tree (isomorphic to the original `t2` for scripts produced
/// by [`script`]).
///
/// # Panics
/// Panics if any operation is illegal at its execution point (dead or
/// out-of-range ids, deleting a non-leaf, moving across levels).
pub fn apply(t1: &Tree, script: &EditScript) -> Tree {
    let mut arena = Arena::from_tree(t1);
    for (step, op) in script.ops.iter().enumerate() {
        match *op {
            EditOp::InsertLeaf { id, parent } => {
                assert!(
                    (parent as usize) < arena.parent.len() && arena.alive[parent as usize],
                    "op {step}: insert under dead/unknown parent {parent}"
                );
                let got = arena.insert_leaf(parent);
                assert_eq!(got, id, "op {step}: inserted id mismatch");
            }
            EditOp::DeleteLeaf { id } => {
                assert!(
                    (id as usize) < arena.parent.len() && arena.alive[id as usize],
                    "op {step}: deleting dead/unknown node {id}"
                );
                assert!(
                    id != 0 || arena.parent.len() == 1,
                    "op {step}: deleting the root"
                );
                assert_eq!(
                    arena.children_alive(id),
                    0,
                    "op {step}: node {id} is not a leaf"
                );
                arena.alive[id as usize] = false;
            }
            EditOp::Move { id, new_parent } => {
                assert!(
                    (id as usize) < arena.parent.len() && arena.alive[id as usize],
                    "op {step}: moving dead/unknown node {id}"
                );
                assert!(
                    (new_parent as usize) < arena.parent.len() && arena.alive[new_parent as usize],
                    "op {step}: moving onto dead/unknown parent {new_parent}"
                );
                assert_ne!(id, 0, "op {step}: the root cannot move");
                let old_parent = arena.parent[id as usize];
                assert_eq!(
                    arena.level[old_parent as usize], arena.level[new_parent as usize],
                    "op {step}: move must stay on the same level"
                );
                arena.parent[id as usize] = new_parent;
            }
        }
    }
    arena.to_tree()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ted_star::ted_star;
    use ned_tree::generate::{path_tree, random_bounded_depth_tree, star_tree};
    use ned_tree::Tree;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn isomorphic_trees_empty_summary() {
        let t = Tree::from_parents(&[0, 0, 1]).unwrap();
        let s = explain(&t, &t);
        assert!(s.ops.is_empty());
        assert_eq!(s.distance, 0);
        assert!(s.describe().contains("isomorphic"));
    }

    #[test]
    fn growth_is_all_inserts() {
        let s = explain(&Tree::singleton(), &star_tree(4));
        assert_eq!(s.total_inserts(), 3);
        assert_eq!(s.total_deletes(), 0);
        assert_eq!(s.distance, 3);
    }

    #[test]
    fn shrink_is_all_deletes() {
        let s = explain(&path_tree(5), &path_tree(2));
        assert_eq!(s.total_deletes(), 3);
        assert_eq!(s.total_inserts(), 0);
    }

    #[test]
    fn moves_reported() {
        // root(a(x, y), b)  vs  root(a(x), b(y)): one move at level 2.
        let t1 = Tree::from_parents(&[0, 0, 0, 1, 1]).unwrap();
        let t2 = Tree::from_parents(&[0, 0, 0, 1, 2]).unwrap();
        let s = explain(&t1, &t2);
        assert_eq!(s.total_moves(), 1);
        assert_eq!(s.ops.len(), 1);
        assert_eq!(s.ops[0].level, 2);
        assert!(s.describe().contains("move 1 node(s) at level 2"));
    }

    #[test]
    fn summary_totals_equal_distance() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let a = random_bounded_depth_tree(20, 4, &mut rng);
            let b = random_bounded_depth_tree(14, 3, &mut rng);
            let s = explain(&a, &b);
            assert_eq!(
                s.total_inserts() + s.total_deletes() + s.total_moves(),
                ted_star(&a, &b)
            );
        }
    }

    #[test]
    fn direction_flips_inserts_and_deletes() {
        let a = star_tree(6);
        let b = star_tree(3);
        let ab = explain(&a, &b);
        let ba = explain(&b, &a);
        assert_eq!(ab.total_deletes(), ba.total_inserts());
        assert_eq!(ab.distance, ba.distance);
    }

    // ---- concrete scripts -------------------------------------------------

    #[test]
    fn script_for_isomorphic_trees_is_empty() {
        let a = Tree::from_parents(&[0, 0, 0, 1]).unwrap();
        let b = Tree::from_parents(&[0, 0, 0, 2]).unwrap();
        let s = script(&a, &b);
        assert!(s.is_empty());
        assert!(ned_tree::ahu::isomorphic(&apply(&a, &s), &b));
    }

    #[test]
    fn script_realizes_single_insert() {
        let a = Tree::singleton();
        let b = star_tree(2);
        let s = script(&a, &b);
        assert_eq!(s.len(), 1);
        assert!(matches!(s.ops[0], EditOp::InsertLeaf { parent: 0, .. }));
        assert!(ned_tree::ahu::isomorphic(&apply(&a, &s), &b));
    }

    #[test]
    fn script_realizes_single_move() {
        let a = Tree::from_parents(&[0, 0, 0, 1, 1]).unwrap();
        let b = Tree::from_parents(&[0, 0, 0, 1, 2]).unwrap();
        let s = script(&a, &b);
        assert_eq!(s.len(), 1, "one same-level move suffices: {:?}", s.ops);
        assert!(matches!(s.ops[0], EditOp::Move { .. }));
        assert!(ned_tree::ahu::isomorphic(&apply(&a, &s), &b));
    }

    #[test]
    fn script_deletes_bottom_up() {
        let a = path_tree(5);
        let b = path_tree(2);
        let s = script(&a, &b);
        assert_eq!(s.len(), 3);
        // deletions must come deepest-first so every delete hits a leaf
        let ids: Vec<u32> = s
            .ops
            .iter()
            .map(|op| match op {
                EditOp::DeleteLeaf { id } => *id,
                other => panic!("expected deletes only, got {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![4, 3, 2]);
        assert!(ned_tree::ahu::isomorphic(&apply(&a, &s), &b));
    }

    #[test]
    fn random_scripts_are_valid_and_near_algorithm1() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut equal = 0usize;
        let mut script_shorter = 0usize;
        let mut total = 0usize;
        let mut ratio_sum = 0.0f64;
        for _ in 0..120 {
            let a = random_bounded_depth_tree(14, 4, &mut rng);
            let b = random_bounded_depth_tree(14, 4, &mut rng);
            let s = script(&a, &b);
            // validity: replay must succeed and produce T2's class
            let result = apply(&a, &s);
            assert!(
                ned_tree::ahu::isomorphic(&result, &b),
                "script failed to realize the target"
            );
            // hard bounds: a script can never beat the forced padding and
            // never needs more than delete-all/insert-all
            let k = a.num_levels().max(b.num_levels());
            let lower: u64 = (0..k)
                .map(|l| a.level_size(l).abs_diff(b.level_size(l)) as u64)
                .sum();
            assert!(s.len() as u64 >= lower);
            assert!(s.len() <= a.len() + b.len() - 2);
            // Relationship to Algorithm 1: both are upper bounds on the
            // Definition-3 minimum. They usually coincide; occasionally
            // the greedy script is SHORTER, certifying that Algorithm 1
            // over-charges on that instance (reproduction finding).
            let d = ted_star(&a, &b);
            total += 1;
            match (s.len() as u64).cmp(&d) {
                std::cmp::Ordering::Equal => equal += 1,
                std::cmp::Ordering::Less => script_shorter += 1,
                std::cmp::Ordering::Greater => {}
            }
            ratio_sum += s.len() as f64 / d.max(1) as f64;
        }
        // These depth-4 random trees are adversarial (wide ambiguous
        // levels); the generator should still match-or-beat Algorithm 1
        // on at least half of them and stay close on the rest.
        assert!(
            (equal + script_shorter) * 2 >= total,
            "script at-or-below Algorithm 1 only {}/{total} times",
            equal + script_shorter
        );
        let mean_ratio = ratio_sum / total as f64;
        assert!(
            mean_ratio <= 1.25,
            "mean script/Algorithm-1 ratio {mean_ratio:.3} too loose"
        );
    }

    #[test]
    fn script_never_undercuts_the_exhaustive_reference() {
        // On tiny trees, compare against the literal Definition-3 minimum:
        // a valid script can match but never beat it.
        use crate::reference::exhaustive_ted_star;
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..60 {
            let a = random_bounded_depth_tree(6, 3, &mut rng);
            let b = random_bounded_depth_tree(6, 3, &mut rng);
            let s = script(&a, &b);
            assert!(ned_tree::ahu::isomorphic(&apply(&a, &s), &b));
            let reference = exhaustive_ted_star(&a, &b, 7).expect("tiny search");
            assert!(
                s.len() as u64 >= reference,
                "impossible: a valid {}-op script beats the true minimum {reference}",
                s.len()
            );
        }
    }

    #[test]
    fn scripts_survive_deep_narrow_and_wide_shapes() {
        let shapes = [
            path_tree(8),
            star_tree(8),
            Tree::from_parents(&[0, 0, 1, 2, 3, 0, 5, 6]).unwrap(), // two chains
            ned_tree::generate::perfect_tree(2, 4),
        ];
        for a in &shapes {
            for b in &shapes {
                let s = script(a, b);
                assert!(ned_tree::ahu::isomorphic(&apply(a, &s), b));
            }
        }
    }
}
