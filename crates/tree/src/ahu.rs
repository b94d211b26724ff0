//! AHU canonical forms and unordered rooted-tree isomorphism.
//!
//! Two unordered rooted trees are isomorphic iff their AHU canonical codes
//! are equal. The paper relies on this being polynomial (Section 8): tree
//! isomorphism — unlike graph isomorphism — is decidable in `O(n log n)`,
//! which is why NED uses neighborhood *trees* rather than neighborhood
//! subgraphs as node signatures.

use crate::Tree;

/// The canonical parenthesis string of `tree`.
///
/// Every node is encoded as `(` + the *sorted* codes of its children + `)`;
/// two trees are isomorphic iff their root codes are byte-equal. Runs in
/// `O(n · depth)` time/space, which is fine for neighborhood trees (depth is
/// the paper's small `k`).
pub fn canonical_code(tree: &Tree) -> Vec<u8> {
    let n = tree.len();
    let mut codes: Vec<Vec<u8>> = vec![Vec::new(); n];
    // Bottom-up over levels: children always have larger ids, so a reverse
    // id sweep visits children before parents.
    for v in (0..n as u32).rev() {
        let mut child_codes: Vec<Vec<u8>> = tree
            .children(v)
            .map(|c| std::mem::take(&mut codes[c as usize]))
            .collect();
        child_codes.sort_unstable();
        let mut code = Vec::with_capacity(2 + child_codes.iter().map(Vec::len).sum::<usize>());
        code.push(b'(');
        for c in child_codes {
            code.extend_from_slice(&c);
        }
        code.push(b')');
        codes[v as usize] = code;
    }
    std::mem::take(&mut codes[0])
}

/// Canonical integer labels per node computed level-by-level, bottom-up.
///
/// Nodes on the *same level* receive equal labels iff their subtrees are
/// isomorphic (the paper's Definition 5 / Lemma 1 applied to a single
/// tree). Labels on different levels are unrelated. `O(n log n)`.
///
/// Prefer [`crate::SignatureInterner::subtree_ids`] when labels need to be
/// comparable across trees or reused across calls — it answers the same
/// equality question with one hash lookup per node instead of a
/// comparison sort per level, and its ids are process-wide.
pub fn canonical_level_labels(tree: &Tree) -> Vec<u32> {
    let n = tree.len();
    let mut labels = vec![0u32; n];
    for level in (0..tree.num_levels()).rev() {
        let range = tree.level(level);
        // Children-label multisets, sorted, then ranked lexicographically
        // (by length first, then contents — exactly the paper's order).
        let mut keyed: Vec<(Vec<u32>, u32)> = range
            .clone()
            .map(|v| {
                let mut s: Vec<u32> = tree.children(v).map(|c| labels[c as usize]).collect();
                s.sort_unstable();
                (s, v)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
        let mut next = 0u32;
        let mut prev: Option<&[u32]> = None;
        // Assign dense ranks; equal collections share a label.
        let mut assigned: Vec<(u32, u32)> = Vec::with_capacity(keyed.len());
        for (s, v) in &keyed {
            if let Some(p) = prev {
                if p != s.as_slice() {
                    next += 1;
                }
            }
            assigned.push((*v, next));
            prev = Some(s.as_slice());
        }
        for (v, l) in assigned {
            labels[v as usize] = l;
        }
    }
    labels
}

/// The canonical parenthesis code of an **already canonical** tree.
///
/// Children of a [`canonical_form`] output appear in code-sorted order as
/// contiguous ascending ids, so the canonical code is a plain depth-first
/// emission — `(` on entry, `)` on exit — with no per-node sorting and no
/// per-node byte buffers. Byte-identical to [`canonical_code`] on any
/// canonical-form tree (property-tested); on a non-canonical tree it
/// produces the code of the tree *as ordered*, which is generally not the
/// canonical code. `O(n)` time, one `2n`-byte allocation.
pub fn ordered_code(tree: &Tree) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * tree.len());
    // Stack of half-open child-id ranges still to visit; depth ≤ levels.
    let mut stack: Vec<(u32, u32)> = Vec::with_capacity(tree.num_levels());
    out.push(b'(');
    let r = tree.children(0);
    stack.push((r.start, r.end));
    while let Some(top) = stack.last_mut() {
        if top.0 < top.1 {
            let c = top.0;
            top.0 += 1;
            out.push(b'(');
            let r = tree.children(c);
            stack.push((r.start, r.end));
        } else {
            out.push(b')');
            stack.pop();
        }
    }
    out
}

/// The canonical code of `tree` if `tree` is already in canonical layout
/// (`canonical_form(tree) == *tree`), else `None`.
///
/// Emits [`ordered_code`] and checks the layout on the way: the layout
/// is canonical iff every node's children appear in non-decreasing code
/// order — then, by induction from the leaves up, the emitted code of
/// every subtree *is* its canonical code. A subtree's code is one
/// contiguous span of the output, and siblings' spans are adjacent, so
/// each closing subtree is compared with the span of the sibling before
/// it, and the walk stops at the first inversion. Leaves need no
/// compare: `()` is the largest code, so a leaf may follow anything and
/// nothing but a leaf may follow a leaf. `O(n · depth)` time, `O(n)` for
/// the bounded depths of neighborhood trees; no sorting and no per-node
/// buffers.
pub fn code_if_canonical(tree: &Tree) -> Option<Vec<u8>> {
    /// A node whose code is being emitted.
    struct Open {
        node: u32,
        /// Its next child to visit.
        next: u32,
        /// Where its own code starts in the output.
        start: u32,
        /// Where the code of its last closed non-leaf child starts
        /// (`u32::MAX` before one closed).
        prev_start: u32,
        /// Whether a leaf child has been emitted.
        leaf_seen: bool,
    }
    let open = |node: u32, start: usize| Open {
        node,
        next: tree.children(node).start,
        start: start as u32,
        prev_start: u32::MAX,
        leaf_seen: false,
    };
    let mut out = Vec::with_capacity(2 * tree.len());
    let mut stack: Vec<Open> = Vec::with_capacity(tree.num_levels());
    stack.push(open(0, 0));
    out.push(b'(');
    while let Some(top) = stack.last_mut() {
        let child = top.next;
        if child < tree.children(top.node).end {
            top.next += 1;
            if tree.is_leaf(child) {
                top.leaf_seen = true;
                out.extend_from_slice(b"()");
            } else if top.leaf_seen {
                return None;
            } else {
                stack.push(open(child, out.len()));
                out.push(b'(');
            }
        } else {
            out.push(b')');
            let closed = stack.pop().expect("non-empty").start as usize;
            // Siblings' spans are adjacent: the previous non-leaf sibling's
            // code ends where the closed one's starts.
            if let Some(parent) = stack.last_mut() {
                if parent.prev_start != u32::MAX
                    && out[parent.prev_start as usize..closed] > out[closed..]
                {
                    return None;
                }
                parent.prev_start = closed as u32;
            }
        }
    }
    Some(out)
}

/// Unordered rooted-tree isomorphism test.
pub fn isomorphic(a: &Tree, b: &Tree) -> bool {
    if a.len() != b.len() || a.num_levels() != b.num_levels() {
        return false;
    }
    for l in 0..a.num_levels() {
        if a.level_size(l) != b.level_size(l) {
            return false;
        }
    }
    canonical_code(a) == canonical_code(b)
}

/// Rebuilds `tree` into its AHU-canonical layout: children of every node
/// are ordered by their subtrees' canonical codes, so two trees are
/// isomorphic **iff** their canonical forms have identical parent arrays.
///
/// TED\* computations canonicalize both inputs first; this is what makes
/// the distance a well-defined function of the isomorphism classes rather
/// than of incidental sibling orderings (the paper's Algorithm 1 is
/// deterministic only up to bipartite-matching tie-breaks, see the
/// `ned-core` crate documentation).
pub fn canonical_form(tree: &Tree) -> Tree {
    let n = tree.len();
    // Per-level integer ranking instead of materialized byte codes.
    //
    // `rank[v]` is the dense rank of v's canonical code among its level,
    // in byte-lexicographic code order. Ranks reproduce byte order exactly
    // because codes are balanced-parenthesis strings, so no code is a
    // proper prefix of another (depth stays ≥ 1 until the final `)`).
    // Comparing two same-level codes therefore reduces to comparing their
    // child-code sequences element-wise — and, by induction over levels,
    // to comparing child *ranks* element-wise. When one sequence is a
    // prefix of the other, the node with MORE children is byte-smaller:
    // its next child opens with `(` (0x28) where the short code closes
    // with `)` (0x29).
    let mut rank = vec![0u32; n];
    // `child_order[children(v)]` holds v's child ids sorted canonically.
    // Child ids tile 1..n contiguously, so one flat buffer indexed by the
    // same ranges serves every node.
    let mut child_order: Vec<u32> = (0..n as u32).collect();
    let cmp_nodes = |child_order: &[u32], rank: &[u32], a: u32, b: u32| {
        let (ra, rb) = (tree.children(a), tree.children(b));
        let sa = &child_order[ra.start as usize..ra.end as usize];
        let sb = &child_order[rb.start as usize..rb.end as usize];
        for (&x, &y) in sa.iter().zip(sb) {
            let (rx, ry) = (rank[x as usize], rank[y as usize]);
            if rx != ry {
                return rx.cmp(&ry);
            }
        }
        sb.len().cmp(&sa.len())
    };
    for level in (0..tree.num_levels()).rev() {
        let lv = tree.level(level);
        // Canonical child order: stable sort by child rank equals the
        // byte-code sort (equal ranks ⇔ byte-equal codes).
        for v in lv.clone() {
            let r = tree.children(v);
            child_order[r.start as usize..r.end as usize].sort_by_key(|&c| rank[c as usize]);
        }
        // Dense ranks for this level, assigned in code order.
        let mut idx: Vec<u32> = lv.clone().collect();
        idx.sort_unstable_by(|&a, &b| cmp_nodes(&child_order, &rank, a, b));
        let mut next = 0u32;
        for i in 0..idx.len() {
            if i > 0 && cmp_nodes(&child_order, &rank, idx[i - 1], idx[i]).is_lt() {
                next += 1;
            }
            rank[idx[i] as usize] = next;
        }
    }
    // BFS re-layout visiting children in canonical order.
    let mut order: Vec<u32> = Vec::with_capacity(n); // order[new] = old
    let mut new_id = vec![0u32; n];
    order.push(0);
    let mut head = 0usize;
    while head < order.len() {
        let old = order[head];
        head += 1;
        let r = tree.children(old);
        for &c in &child_order[r.start as usize..r.end as usize] {
            new_id[c as usize] = order.len() as u32;
            order.push(c);
        }
    }
    // Assemble directly: the relayout is BFS by construction (children
    // appended parent-by-parent, level by level), so parent array, child
    // offsets, and the input's level boundaries are already the canonical
    // tree's parts — no need for `from_parents` to re-derive them.
    let mut parents = vec![0u32; n];
    let mut child_offsets = vec![0usize; n + 1];
    let mut acc = 1usize;
    for (new_v, &old_v) in order.iter().enumerate() {
        if new_v > 0 {
            parents[new_v] = new_id[tree.parent(old_v).unwrap() as usize];
        }
        child_offsets[new_v] = acc;
        let r = tree.children(old_v);
        acc += (r.end - r.start) as usize;
    }
    child_offsets[n] = acc;
    let mut level_offsets = Vec::with_capacity(tree.num_levels() + 1);
    for l in 0..tree.num_levels() {
        level_offsets.push(tree.level(l).start as usize);
    }
    level_offsets.push(n);
    Tree::from_bfs_parts(parents, child_offsets, level_offsets)
}

/// The original byte-materializing implementation of [`canonical_form`],
/// kept verbatim as the frozen pre-rebuild baseline for `perf_snapshot`'s
/// in-run speedup gate and as the differential oracle for the rank-based
/// rewrite (they are asserted equal on random trees in this crate's
/// tests). **Do not optimize this function.**
pub fn canonical_form_reference(tree: &Tree) -> Tree {
    let n = tree.len();
    // Canonical code per node, bottom-up (children have larger ids).
    let mut codes: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut child_order: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in (0..n as u32).rev() {
        let mut kids: Vec<u32> = tree.children(v).collect();
        kids.sort_by(|&a, &b| codes[a as usize].cmp(&codes[b as usize]));
        let mut code =
            Vec::with_capacity(2 + kids.iter().map(|&c| codes[c as usize].len()).sum::<usize>());
        code.push(b'(');
        for &c in &kids {
            code.extend_from_slice(&codes[c as usize]);
        }
        code.push(b')');
        codes[v as usize] = code;
        child_order[v as usize] = kids;
    }
    // BFS re-layout visiting children in canonical order.
    let mut order: Vec<u32> = Vec::with_capacity(n); // order[new] = old
    let mut new_id = vec![0u32; n];
    order.push(0);
    let mut head = 0usize;
    while head < order.len() {
        let old = order[head];
        head += 1;
        for &c in &child_order[old as usize] {
            new_id[c as usize] = order.len() as u32;
            order.push(c);
        }
    }
    let mut parents = vec![0u32; n];
    for (new_v, &old_v) in order.iter().enumerate().skip(1) {
        parents[new_v] = new_id[tree.parent(old_v).unwrap() as usize];
    }
    Tree::from_parents(&parents).expect("canonical relayout preserves validity")
}

/// A hashable, order-independent fingerprint of a tree (the canonical code
/// run through FNV-1a). Collisions are possible in principle; use
/// [`isomorphic`] when exactness matters.
pub fn fingerprint(tree: &Tree) -> u64 {
    let code = canonical_code(tree);
    fnv1a(&code)
}

/// Per-node subtree fingerprints: `out[v]` hashes the canonical code of
/// the subtree rooted at `v`. Two nodes with equal fingerprints have
/// isomorphic subtrees (modulo hash collisions). Used by the edit-script
/// generator to prefer pairings that preserve subtree structure.
pub fn subtree_fingerprints(tree: &Tree) -> Vec<u64> {
    let n = tree.len();
    let mut codes: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut out = vec![0u64; n];
    for v in (0..n as u32).rev() {
        let mut child_codes: Vec<Vec<u8>> = tree
            .children(v)
            .map(|c| std::mem::take(&mut codes[c as usize]))
            .collect();
        child_codes.sort_unstable();
        let mut code = Vec::with_capacity(2 + child_codes.iter().map(Vec::len).sum::<usize>());
        code.push(b'(');
        for c in child_codes {
            code.extend_from_slice(&c);
        }
        code.push(b')');
        out[v as usize] = fnv1a(&code);
        codes[v as usize] = code;
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    fn tree_from(parents: &[u32]) -> Tree {
        Tree::from_parents(parents).unwrap()
    }

    #[test]
    fn code_of_singleton() {
        assert_eq!(canonical_code(&Tree::singleton()), b"()");
    }

    #[test]
    fn isomorphic_regardless_of_child_order() {
        // root with children [path of 2, leaf] vs [leaf, path of 2]
        let a = tree_from(&[0, 0, 0, 1]); // children of 0: {1,2}; 3 under 1
        let b = tree_from(&[0, 0, 0, 2]); // 3 under 2 instead
        assert!(isomorphic(&a, &b));
        assert_eq!(canonical_code(&a), canonical_code(&b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn non_isomorphic_same_size() {
        let path = tree_from(&[0, 0, 1, 2]); // path of 4
        let star = tree_from(&[0, 0, 0, 0]); // star with 3 leaves
        assert!(!isomorphic(&path, &star));
    }

    #[test]
    fn non_isomorphic_same_level_sizes() {
        // Both have level sizes [1, 2, 2] but different child distribution.
        let a = tree_from(&[0, 0, 0, 1, 1]); // node 1 has two children
        let b = tree_from(&[0, 0, 0, 1, 2]); // nodes 1 and 2 have one each
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn level_labels_match_isomorphic_subtrees() {
        // root -> a, b; a -> leaf, leaf ; b -> leaf, leaf  (a and b isomorphic)
        let mut builder = TreeBuilder::new();
        let a = builder.add_child(0);
        let b = builder.add_child(0);
        builder.add_child(a);
        builder.add_child(a);
        builder.add_child(b);
        builder.add_child(b);
        let t = builder.build();
        let labels = canonical_level_labels(&t);
        let l1 = t.level(1);
        assert_eq!(labels[l1.start as usize], labels[l1.start as usize + 1]);
    }

    #[test]
    fn level_labels_distinguish_different_subtrees() {
        // root -> a (leaf), b (one child)
        let t = tree_from(&[0, 0, 0, 2]);
        let labels = canonical_level_labels(&t);
        let l1 = t.level(1);
        assert_ne!(labels[l1.start as usize], labels[l1.start as usize + 1]);
    }

    #[test]
    fn subtree_fingerprints_identify_isomorphic_subtrees() {
        // root -> a, b; a -> {leaf, leaf}; b -> {leaf, leaf}
        let mut builder = TreeBuilder::new();
        let a = builder.add_child(0);
        let b = builder.add_child(0);
        builder.add_child(a);
        builder.add_child(a);
        builder.add_child(b);
        builder.add_child(b);
        let t = builder.build();
        let fp = subtree_fingerprints(&t);
        let l1 = t.level(1);
        assert_eq!(fp[l1.start as usize], fp[l1.start as usize + 1]);
        // leaves share a fingerprint, which differs from internal nodes
        let l2 = t.level(2);
        assert_eq!(fp[l2.start as usize], fp[l2.end as usize - 1]);
        assert_ne!(fp[l1.start as usize], fp[l2.start as usize]);
        // root fingerprint equals the whole-tree fingerprint
        assert_eq!(fp[0], fingerprint(&t));
    }

    #[test]
    fn canonical_form_is_isomorphic_to_input() {
        use crate::generate;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(21);
        for n in [1usize, 2, 3, 8, 30, 100] {
            let t = generate::random_attachment_tree(n, &mut rng);
            let c = canonical_form(&t);
            assert!(isomorphic(&t, &c));
            c.check_invariants().unwrap();
        }
    }

    #[test]
    fn canonical_form_identical_for_isomorphic_trees() {
        // Same shape, different child insertion orders.
        let a = tree_from(&[0, 0, 0, 1, 1, 2]); // root{A{x,y}, B{z}}
        let b = tree_from(&[0, 0, 0, 2, 2, 1]); // root{A'{z}, B'{x,y}}
        assert!(isomorphic(&a, &b));
        assert_eq!(canonical_form(&a), canonical_form(&b));
    }

    #[test]
    fn canonical_form_is_idempotent() {
        use crate::generate;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..10 {
            let t = generate::random_bounded_depth_tree(40, 4, &mut rng);
            let c = canonical_form(&t);
            assert_eq!(c, canonical_form(&c));
        }
    }

    #[test]
    fn rank_based_canonical_form_matches_byte_reference() {
        use crate::generate;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xCAFE);
        for round in 0..200 {
            let t = match round % 3 {
                0 => generate::random_attachment_tree(1 + round, &mut rng),
                1 => generate::random_bounded_depth_tree(2 + round, 2 + round % 5, &mut rng),
                _ => generate::random_bounded_depth_tree(2 + round, 1 + round % 3, &mut rng),
            };
            assert_eq!(
                canonical_form(&t),
                canonical_form_reference(&t),
                "rank-based canonical form diverged from byte reference on {t:?}"
            );
        }
    }

    #[test]
    fn ordered_code_matches_canonical_code_on_canonical_trees() {
        use crate::generate;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0DE);
        for round in 0..150 {
            let t = generate::random_bounded_depth_tree(1 + round, 1 + round % 6, &mut rng);
            let c = canonical_form(&t);
            assert_eq!(
                ordered_code(&c),
                canonical_code(&c),
                "ordered_code diverged on canonical form of {t:?}"
            );
            // And both equal the canonical code of the *original* tree.
            assert_eq!(ordered_code(&c), canonical_code(&t));
        }
    }

    #[test]
    fn code_if_canonical_accepts_exactly_the_canonical_layouts() {
        use crate::generate;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xAD0);
        let (mut adopted, mut refused) = (0, 0);
        for round in 0..400 {
            // Small trees are often canonical as generated; larger ones
            // rarely are, and their canonical forms always are.
            let t = match round % 4 {
                0 => generate::random_attachment_tree(1 + round % 7, &mut rng),
                1 => generate::random_bounded_depth_tree(2 + round % 30, 1 + round % 4, &mut rng),
                2 => generate::perfect_tree(1 + round % 3, 1 + round % 4),
                _ => generate::caterpillar_tree(1 + round % 5, round % 3),
            };
            for tree in [canonical_form(&t), t] {
                let canonical = canonical_form(&tree) == tree;
                match code_if_canonical(&tree) {
                    Some(code) => {
                        assert!(canonical, "adopted a non-canonical layout {tree:?}");
                        assert_eq!(code, canonical_code(&tree));
                        adopted += 1;
                    }
                    None => {
                        assert!(!canonical, "refused a canonical layout {tree:?}");
                        refused += 1;
                    }
                }
            }
        }
        assert!(adopted > 0 && refused > 0);
        // Equal-code siblings are not an inversion; a leaf before a
        // deeper sibling is.
        assert!(code_if_canonical(&tree_from(&[0, 0, 0, 1, 2])).is_some());
        assert!(code_if_canonical(&tree_from(&[0, 0, 0, 2])).is_none());
    }

    #[test]
    fn isomorphism_is_reflexive_on_random_shapes() {
        use crate::generate;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 17, 64] {
            let t = generate::random_attachment_tree(n, &mut rng);
            assert!(isomorphic(&t, &t.clone()));
        }
    }
}
