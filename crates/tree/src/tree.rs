use crate::TreeError;
use std::fmt;
use std::ops::Range;

/// Node identifier inside a [`Tree`]. Node `0` is always the root.
pub type NodeId = u32;

/// An unordered, unlabeled rooted tree stored in breadth-first order.
///
/// The storage layout is the backbone of the whole reproduction:
///
/// * Nodes are numbered `0..n` in BFS order, so every level occupies a
///   contiguous id range ([`Tree::level`]).
/// * Within a level, nodes are grouped by parent, so the children of node
///   `v` are themselves a contiguous id range ([`Tree::children`]).
/// * `parent[v] < v` for every non-root node.
///
/// The paper numbers levels starting from 1 (the root level); this crate
/// uses 0-based levels, i.e. the root is on level 0 and a `k`-adjacent tree
/// in the paper's sense has levels `0..k`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tree {
    /// `parent[v]` for `v > 0`; `parent\[0\] == 0` by convention.
    parent: Vec<NodeId>,
    /// Children of `v` are node ids `child_offsets[v]..child_offsets[v + 1]`.
    child_offsets: Vec<usize>,
    /// Level `l` is node ids `level_offsets[l]..level_offsets[l + 1]`.
    level_offsets: Vec<usize>,
}

impl Tree {
    /// The tree consisting of a single root node.
    pub fn singleton() -> Self {
        Tree {
            parent: vec![0],
            child_offsets: vec![1, 1],
            level_offsets: vec![0, 1],
        }
    }

    /// Builds a tree from an arbitrary parent array.
    ///
    /// `parents[v]` is the parent of node `v`; the root is the unique node
    /// with `parents[root] == root`. Node ids are re-assigned into BFS
    /// order; use [`Tree::from_parents_with_mapping`] if the original ids
    /// matter.
    ///
    /// An array that is already in BFS order — `parents[0] == 0` and, for
    /// `v ≥ 1`, `parents[v] < v` with `parents` non-decreasing, which is
    /// how every stored tree is written — is taken as it is, with no
    /// relabel: the relabel would be the identity. Any other array takes
    /// the relabeling path, so the result and every [`TreeError`] are the
    /// same either way.
    pub fn from_parents(parents: &[NodeId]) -> Result<Self, TreeError> {
        match Self::from_bfs_parents(parents) {
            Some(tree) => Ok(tree),
            None => Self::from_parents_with_mapping(parents).map(|(t, _)| t),
        }
    }

    /// The tree of a BFS-ordered parent array (see [`Tree::from_parents`]),
    /// or `None` if `parents` is not one. One pass derives both offset
    /// arrays: non-decreasing parents make every node's children, and
    /// every level, a contiguous id run.
    fn from_bfs_parents(parents: &[NodeId]) -> Option<Self> {
        let n = parents.len();
        if n == 0 || parents[0] != 0 {
            return None;
        }
        let mut prev = 0;
        for (v, &p) in parents.iter().enumerate().skip(1) {
            if p < prev || p as usize >= v {
                return None;
            }
            prev = p;
        }
        // Children of `p` are the ids `v ≥ 1` with `parents[v] == p`.
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut c = 1usize;
        for p in 0..=n {
            while c < n && (parents[c] as usize) < p {
                c += 1;
            }
            child_offsets.push(c);
        }
        // The level after one ending at `end` is the run of ids whose
        // parent lies below `end`; it is never empty while ids remain,
        // since `parents[end] < end`.
        let mut level_offsets = vec![0, 1];
        let mut v = 1usize;
        while v < n {
            let end = v;
            while v < n && (parents[v] as usize) < end {
                v += 1;
            }
            level_offsets.push(v);
        }
        Some(Tree::from_bfs_parts(
            parents.to_vec(),
            child_offsets,
            level_offsets,
        ))
    }

    /// Like [`Tree::from_parents`] but also returns `mapping` where
    /// `mapping[new_id] = original_id`.
    pub fn from_parents_with_mapping(parents: &[NodeId]) -> Result<(Self, Vec<NodeId>), TreeError> {
        let n = parents.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        let mut root: Option<u32> = None;
        for (v, &p) in parents.iter().enumerate() {
            if p as usize >= n {
                return Err(TreeError::ParentOutOfRange {
                    node: v as u32,
                    parent: p,
                });
            }
            if p as usize == v {
                match root {
                    None => root = Some(v as u32),
                    Some(first) => {
                        return Err(TreeError::MultipleRoots {
                            first,
                            second: v as u32,
                        })
                    }
                }
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;

        // Child adjacency in the original numbering (counting sort by parent).
        let mut counts = vec![0usize; n + 1];
        for (v, &p) in parents.iter().enumerate() {
            if v as u32 != root {
                counts[p as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut child_list = vec![0u32; n - 1];
        for (v, &p) in parents.iter().enumerate() {
            if v as u32 != root {
                child_list[cursor[p as usize]] = v as u32;
                cursor[p as usize] += 1;
            }
        }

        // BFS from the root, grouping children by parent (they already are,
        // via the counting sort) and recording level boundaries.
        let mut order = Vec::with_capacity(n); // order[new_id] = old_id
        let mut new_id = vec![u32::MAX; n];
        let mut level_offsets = vec![0usize];
        order.push(root);
        new_id[root as usize] = 0;
        let mut level_start = 0usize;
        while level_start < order.len() {
            let level_end = order.len();
            level_offsets.push(level_end);
            for idx in level_start..level_end {
                let old_v = order[idx] as usize;
                for &c in &child_list[counts[old_v]..counts[old_v + 1]] {
                    new_id[c as usize] = order.len() as u32;
                    order.push(c);
                }
            }
            level_start = level_end;
        }
        // The loop pushes a boundary after every completed level, including
        // a trailing duplicate once no new nodes appear; drop it.
        if level_offsets.len() >= 2
            && level_offsets[level_offsets.len() - 1] == level_offsets[level_offsets.len() - 2]
        {
            level_offsets.pop();
        }

        if order.len() != n {
            let missing = new_id
                .iter()
                .position(|&x| x == u32::MAX)
                .expect("some node must be unvisited");
            return Err(TreeError::Unreachable {
                node: missing as u32,
            });
        }

        // Re-derive parent and child offsets in the new numbering. Children
        // were appended parent-by-parent in BFS order, so they are contiguous.
        let mut parent = vec![0u32; n];
        for (new_v, &old_v) in order.iter().enumerate() {
            if old_v != root {
                parent[new_v] = new_id[parents[old_v as usize] as usize];
            }
        }
        // In BFS order children are grouped by their parent's position, so
        // the first child of `v` sits at `1 + Σ_{w < v} child_count(w)`.
        let mut child_counts = vec![0usize; n];
        for &p in parent.iter().skip(1) {
            child_counts[p as usize] += 1;
        }
        let mut child_offsets = vec![0usize; n + 1];
        let mut acc = 1usize;
        for v in 0..n {
            child_offsets[v] = acc;
            acc += child_counts[v];
        }
        child_offsets[n] = acc;
        debug_assert_eq!(acc, n);
        let tree = Tree {
            parent,
            child_offsets,
            level_offsets,
        };
        debug_assert!(tree.check_invariants().is_ok());
        Ok((tree, order))
    }

    /// Zero-copy constructor from already-BFS-ordered parts, used by the
    /// hot k-adjacent-tree extraction path in `ned-graph`.
    ///
    /// The parts must satisfy every invariant listed on [`Tree`]
    /// (BFS-ordered nodes, contiguous per-parent children, consistent
    /// offsets). Violations are caught by `debug_assert!` in debug builds
    /// and cause unspecified (but memory-safe) behaviour in release
    /// builds; prefer [`Tree::from_parents`] unless profiling says
    /// otherwise.
    pub fn from_bfs_parts(
        parent: Vec<NodeId>,
        child_offsets: Vec<usize>,
        level_offsets: Vec<usize>,
    ) -> Self {
        let tree = Tree {
            parent,
            child_offsets,
            level_offsets,
        };
        debug_assert!(
            tree.check_invariants().is_ok(),
            "invalid BFS parts: {:?}",
            tree.check_invariants()
        );
        tree
    }

    /// The parent array in BFS order: `parents()[v]` is the parent of
    /// `v` (`parents()[0] == 0` for the root), the form
    /// [`Tree::from_parents`] takes back without a relabel.
    #[inline]
    pub fn parents(&self) -> &[NodeId] {
        &self.parent
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// A tree is never empty; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges (`len() - 1`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.len() - 1
    }

    /// Number of levels (depth of the deepest node + 1). A singleton has 1.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// The id range of nodes on `level` (0 = root level). Levels beyond the
    /// tree's depth are empty ranges.
    #[inline]
    pub fn level(&self, level: usize) -> Range<u32> {
        if level + 1 >= self.level_offsets.len() {
            let n = self.len() as u32;
            return n..n;
        }
        self.level_offsets[level] as u32..self.level_offsets[level + 1] as u32
    }

    /// Number of nodes on `level`.
    #[inline]
    pub fn level_size(&self, level: usize) -> usize {
        let r = self.level(level);
        (r.end - r.start) as usize
    }

    /// Maximum level width (the `n` in the paper's `O(k·n³)` bound).
    pub fn max_width(&self) -> usize {
        (0..self.num_levels())
            .map(|l| self.level_size(l))
            .max()
            .unwrap_or(0)
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        if v == 0 {
            None
        } else {
            Some(self.parent[v as usize])
        }
    }

    /// Children of `v` as a contiguous id range.
    #[inline]
    pub fn children(&self, v: NodeId) -> Range<u32> {
        self.child_offsets[v as usize] as u32..self.child_offsets[v as usize + 1] as u32
    }

    /// Number of children of `v`.
    #[inline]
    pub fn num_children(&self, v: NodeId) -> usize {
        self.child_offsets[v as usize + 1] - self.child_offsets[v as usize]
    }

    /// `true` if `v` has no children.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.num_children(v) == 0
    }

    /// Depth of node `v` (root has depth 0). `O(log levels)`.
    pub fn depth(&self, v: NodeId) -> usize {
        debug_assert!((v as usize) < self.len());
        match self.level_offsets.binary_search(&(v as usize)) {
            Ok(l) if l + 1 == self.level_offsets.len() => l - 1,
            Ok(l) => l,
            Err(l) => l - 1,
        }
    }

    /// Iterator over all node ids in BFS order.
    pub fn nodes(&self) -> Range<u32> {
        0..self.len() as u32
    }

    /// Ids of all leaves.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.is_leaf(v)).collect()
    }

    /// Size of the subtree rooted at every node (`out[v]` includes `v`).
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let n = self.len();
        let mut sizes = vec![1u32; n];
        for v in (1..n).rev() {
            let p = self.parent[v] as usize;
            sizes[p] += sizes[v];
        }
        sizes
    }

    /// Per-node subtree *level profiles*: `out[v][d]` counts the nodes at
    /// relative depth `d` inside `v`'s subtree (`out[v]\[0\] == 1`).
    ///
    /// The L1 distance between two profiles lower-bounds the TED\* between
    /// the two subtrees (every level-size difference forces that many leaf
    /// inserts/deletes), which makes profiles a cheap pairing heuristic
    /// for edit-script generation and a filter for similarity search.
    pub fn subtree_profiles(&self) -> Vec<Vec<u32>> {
        let n = self.len();
        let mut profiles: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in (0..n as u32).rev() {
            let mut profile = vec![1u32];
            for c in self.children(v) {
                let child_len = profiles[c as usize].len();
                if profile.len() < child_len + 1 {
                    profile.resize(child_len + 1, 0);
                }
                for d in 0..child_len {
                    profile[d + 1] += profiles[c as usize][d];
                }
            }
            profiles[v as usize] = profile;
        }
        profiles
    }

    /// Strict-ancestor test: is `a` a proper ancestor of `b`? `O(depth)`.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        if a >= b {
            return false; // BFS order: ancestors have strictly smaller ids
        }
        let mut cur = b;
        while cur != 0 {
            cur = self.parent[cur as usize];
            if cur == a {
                return true;
            }
            if cur < a {
                return false;
            }
        }
        a == 0 && b != 0
    }

    /// The top `levels` levels as a new tree (the paper's `T(v, k)` given
    /// `T(v)`); `levels == 0` is clamped to 1 so the root always survives.
    pub fn truncate(&self, levels: usize) -> Tree {
        let levels = levels.max(1);
        if levels >= self.num_levels() {
            return self.clone();
        }
        let keep = self.level_offsets[levels];
        let parent = self.parent[..keep].to_vec();
        let mut child_offsets: Vec<usize> = self.child_offsets[..keep].to_vec();
        child_offsets.push(keep); // new sentinel
        for off in child_offsets.iter_mut() {
            *off = (*off).min(keep);
        }
        let level_offsets = self.level_offsets[..=levels].to_vec();
        Tree::from_bfs_parts(parent, child_offsets, level_offsets)
    }

    /// Multiset of node degrees (root degree = #children, others +1).
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        for v in self.nodes() {
            let d = self.num_children(v) + usize::from(v != 0);
            if d >= hist.len() {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
        hist
    }

    /// Validates all structural invariants; used by `debug_assert!`s and the
    /// property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        if n == 0 {
            return Err("empty tree".into());
        }
        if self.parent[0] != 0 {
            return Err("root must be its own parent".into());
        }
        if self.level_offsets.first() != Some(&0) || self.level_offsets.last() != Some(&n) {
            return Err("level offsets must span 0..n".into());
        }
        if self.level_offsets.len() < 2 || self.level_offsets[1] != 1 {
            return Err("level 0 must contain exactly the root".into());
        }
        if self.level_offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err("level offsets must be strictly increasing".into());
        }
        if self.child_offsets.len() != n + 1 {
            return Err("child offset length mismatch".into());
        }
        if self.child_offsets[n] != n {
            return Err("child offsets must end at n".into());
        }
        for v in 1..n {
            let p = self.parent[v] as usize;
            if p >= v {
                return Err(format!("parent {p} of node {v} not earlier in BFS order"));
            }
            let r = self.children(p as u32);
            if !(r.start as usize <= v && v < r.end as usize) {
                return Err(format!("node {v} outside its parent's child range"));
            }
            if self.depth(v as u32) != self.depth(p as u32) + 1 {
                return Err(format!("node {v} not exactly one level below its parent"));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tree(n={}, levels={}, widths=[",
            self.len(),
            self.num_levels()
        )?;
        for l in 0..self.num_levels() {
            if l > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.level_size(l))?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_shape() {
        let t = Tree::singleton();
        assert_eq!(t.len(), 1);
        assert_eq!(t.num_levels(), 1);
        assert_eq!(t.level(0), 0..1);
        assert!(t.level(5).is_empty());
        assert!(t.is_leaf(0));
        assert_eq!(t.parent(0), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn from_parents_reorders_to_bfs() {
        // Root = 2; children of 2: {0, 4}; children of 0: {1, 3}.
        let parents = vec![2, 0, 2, 0, 2];
        let (t, mapping) = Tree::from_parents_with_mapping(&parents).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.num_levels(), 3);
        assert_eq!(mapping[0], 2);
        assert_eq!(t.level_size(0), 1);
        assert_eq!(t.level_size(1), 2);
        assert_eq!(t.level_size(2), 2);
        t.check_invariants().unwrap();
        // the level-2 nodes hang off old node 0, which is on level 1
        for v in t.level(2) {
            assert_eq!(t.depth(v), 2);
            assert_eq!(t.depth(t.parent(v).unwrap()), 1);
        }
    }

    #[test]
    fn from_parents_rejects_bad_inputs() {
        assert_eq!(Tree::from_parents(&[]), Err(TreeError::Empty));
        assert!(matches!(
            Tree::from_parents(&[0, 9]),
            Err(TreeError::ParentOutOfRange { .. })
        ));
        assert!(matches!(
            Tree::from_parents(&[0, 1]),
            Err(TreeError::MultipleRoots { .. })
        ));
        // 2-cycle between nodes 1 and 2 (no path to root 0)
        assert!(matches!(
            Tree::from_parents(&[0, 2, 1]),
            Err(TreeError::Unreachable { .. })
        ));
        // no root at all
        assert!(matches!(
            Tree::from_parents(&[1, 0]),
            Err(TreeError::NoRoot)
        ));
    }

    /// `from_parents` as it was before BFS-ordered arrays skipped the
    /// relabel: always through the mapping builder.
    fn relabeled(parents: &[NodeId]) -> Result<Tree, TreeError> {
        Tree::from_parents_with_mapping(parents).map(|(t, _)| t)
    }

    #[test]
    fn bfs_ordered_arrays_build_the_relabeled_tree() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xBF5);
        for _ in 0..300 {
            // Non-decreasing parents, each below its child: BFS order.
            let n = rng.gen_range(1..40usize);
            let mut parents = vec![0u32];
            for v in 1..n as u32 {
                let last = *parents.last().unwrap();
                let p = if rng.gen_bool(0.6) {
                    last
                } else {
                    rng.gen_range(last..v)
                };
                parents.push(p);
            }
            let fast = Tree::from_parents(&parents).unwrap();
            assert_eq!(fast, relabeled(&parents).unwrap(), "{parents:?}");
            assert_eq!(fast.parents(), &parents[..]);
            fast.check_invariants().unwrap();
            // Arbitrary arrays (relabel path) agree with themselves too.
            let shuffled: Vec<u32> = (0..n as u32)
                .map(|v| if v == 0 { 0 } else { rng.gen_range(0..v) })
                .collect();
            assert_eq!(Tree::from_parents(&shuffled), relabeled(&shuffled));
        }
    }

    #[test]
    fn bfs_looking_arrays_keep_their_errors() {
        for parents in [
            &[0u32, 0, 9][..], // out-of-range parent
            &[0, 0, 2],        // a second root
            &[0, 0, 1, 3],     // a second root further down
            &[0, 2, 1],        // unreachable nodes (a 2-cycle)
            &[0, 0, 3, 2],     // unreachable, parents not below children
            &[1, 0],           // no root
            &[],               // empty
        ] {
            let got = Tree::from_parents(parents);
            assert!(got.is_err(), "{parents:?} accepted");
            assert_eq!(got, relabeled(parents), "{parents:?}");
        }
    }

    #[test]
    fn children_are_contiguous() {
        // star with 4 leaves
        let t = Tree::from_parents(&[0, 0, 0, 0, 0]).unwrap();
        assert_eq!(t.children(0), 1..5);
        for v in 1..5 {
            assert!(t.is_leaf(v));
        }
    }

    #[test]
    fn depth_and_ancestor() {
        // path 0-1-2-3
        let t = Tree::from_parents(&[0, 0, 1, 2]).unwrap();
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(3), 3);
        assert!(t.is_ancestor(0, 3));
        assert!(t.is_ancestor(1, 3));
        assert!(!t.is_ancestor(3, 1));
        assert!(!t.is_ancestor(2, 2));
    }

    #[test]
    fn truncate_keeps_top_levels() {
        let t = Tree::from_parents(&[0, 0, 1, 2, 2]).unwrap(); // depth 3
        assert_eq!(t.num_levels(), 4);
        let t2 = t.truncate(2);
        assert_eq!(t2.num_levels(), 2);
        assert_eq!(t2.len(), 2);
        t2.check_invariants().unwrap();
        let t3 = t.truncate(99);
        assert_eq!(t3, t);
        let t1 = t.truncate(0);
        assert_eq!(t1.len(), 1);
    }

    #[test]
    fn subtree_sizes_sum() {
        let t = Tree::from_parents(&[0, 0, 0, 1, 1, 2]).unwrap();
        let s = t.subtree_sizes();
        assert_eq!(s[0] as usize, t.len());
        let leaf_total: u32 = t.leaves().iter().map(|&v| s[v as usize]).sum();
        assert_eq!(leaf_total as usize, t.leaves().len());
    }

    #[test]
    fn degree_histogram_counts_everyone() {
        let t = Tree::from_parents(&[0, 0, 0, 1]).unwrap();
        let h = t.degree_histogram();
        assert_eq!(h.iter().sum::<usize>(), t.len());
    }

    #[test]
    fn subtree_profiles_shapes() {
        // root -> {a, b}; a -> {x}; so profiles:
        // root = [1, 2, 1], a = [1, 1], b = [1], x = [1]
        let t = Tree::from_parents(&[0, 0, 0, 1]).unwrap();
        let p = t.subtree_profiles();
        assert_eq!(p[0], vec![1, 2, 1]);
        assert_eq!(p[1], vec![1, 1]);
        assert_eq!(p[2], vec![1]);
        assert_eq!(p[3], vec![1]);
        // root profile matches the tree's level sizes
        for (l, &count) in p[0].iter().enumerate() {
            assert_eq!(count as usize, t.level_size(l));
        }
    }
}
