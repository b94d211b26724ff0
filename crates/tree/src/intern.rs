//! Interning of canonical children-multiset signatures.
//!
//! Everywhere the TED\*/NED pipeline canonizes tree levels it asks one
//! question over and over: *are these two sorted children-label multisets
//! equal?* The seed answered it by sorting `Vec<u32>` collections and
//! comparing them lexicographically — per level, per pair, re-hashing the
//! same handful of shapes (`[]` alone usually covers most of a BFS
//! level's slots) millions of times across a workload.
//!
//! A [`SignatureInterner`] maps each distinct multiset to a dense `u32`
//! id, once, process-wide. Because child entries of an interned multiset
//! are themselves interner ids, equal ids ⇔ isomorphic subtrees, so every
//! downstream equality (zero-pairing, duplicate collapsing, equivalence
//! classes, store deduplication) becomes a `u32` compare — and label
//! *values* never matter to TED\* (only equality does), so swapping dense
//! per-level ranks for global interner ids leaves every distance
//! bit-identical.
//!
//! The interner is sharded and behind mutexes so parallel batch workloads
//! (`ned-core::batch`) can share it; ids are assigned from one atomic
//! counter and are stable for the lifetime of the process (they are *not*
//! stable across processes — persist canonical codes, not ids).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

const SHARDS: usize = 16;

/// Child counts whose star class [`SignatureInterner::star`] memoizes.
const STAR_MEMO: usize = 1024;

/// Marks an unfilled [`SignatureInterner::star`] memo slot.
const UNSET: u32 = u32::MAX;

/// A process-wide dictionary from canonical children-multisets to dense
/// `u32` ids. See the module docs for the contract.
pub struct SignatureInterner {
    shards: [Mutex<HashMap<Box<[u32]>, u32>>; SHARDS],
    next: AtomicU32,
    /// Id of the empty multiset (a leaf's children signature), interned at
    /// construction so the hottest lookup is branch-free.
    empty: u32,
    /// `stars[c]`: the id of `c` leaves (`[empty; c]`), once interned.
    stars: [AtomicU32; STAR_MEMO],
}

impl Default for SignatureInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl SignatureInterner {
    /// An empty interner with the empty multiset pre-interned as id 0.
    pub fn new() -> Self {
        let interner = SignatureInterner {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            next: AtomicU32::new(0),
            empty: 0,
            stars: std::array::from_fn(|_| AtomicU32::new(UNSET)),
        };
        let id = interner.intern(&[]);
        debug_assert_eq!(id, 0);
        interner
    }

    /// The shared process-wide interner. All [`crate::Tree`]-derived
    /// signatures produced through `ned-core`'s prepared paths use this,
    /// which is what makes their ids mutually comparable.
    pub fn global() -> &'static SignatureInterner {
        static GLOBAL: OnceLock<SignatureInterner> = OnceLock::new();
        GLOBAL.get_or_init(SignatureInterner::new)
    }

    #[inline]
    fn shard_of(key: &[u32]) -> usize {
        // FNV-1a over the label words; cheap and well-spread for the
        // short keys involved.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in key {
            h ^= u64::from(w);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) % SHARDS
    }

    /// The id of the sorted multiset `key`, allocating a fresh id on first
    /// sight. `key` **must already be sorted** — the interner does not
    /// re-sort (sorting is the caller's canonization step).
    pub fn intern(&self, key: &[u32]) -> u32 {
        debug_assert!(key.windows(2).all(|w| w[0] <= w[1]), "key must be sorted");
        if key.is_empty() && self.next.load(Ordering::Relaxed) > 0 {
            return self.empty;
        }
        let mut shard = self.shards[Self::shard_of(key)]
            .lock()
            .expect("interner shard poisoned");
        if let Some(&id) = shard.get(key) {
            return id;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(id != u32::MAX, "interner id space exhausted");
        shard.insert(key.to_vec().into_boxed_slice(), id);
        id
    }

    /// The id of the empty multiset (leaves).
    #[inline]
    pub fn empty_id(&self) -> u32 {
        self.empty
    }

    /// The id of a star: a node whose `leaves` children are all leaves
    /// (the multiset `[empty; leaves]`). Stars are most of a
    /// neighborhood tree's internal nodes, so their ids are memoized by
    /// child count: after the first, a star costs one atomic load
    /// instead of a key build, a hash and a shard lock.
    #[inline]
    pub fn star(&self, leaves: usize) -> u32 {
        let Some(slot) = self.stars.get(leaves) else {
            return self.intern(&vec![self.empty; leaves]);
        };
        match slot.load(Ordering::Relaxed) {
            UNSET => {
                // Racing first callers intern the same key, so they
                // store the same id.
                let id = self.intern(&vec![self.empty; leaves]);
                slot.store(id, Ordering::Relaxed);
                id
            }
            id => id,
        }
    }

    /// Number of distinct signatures interned so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("interner shard poisoned").len())
            .sum()
    }

    /// `true` when nothing beyond the pre-interned empty multiset has
    /// been interned.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Per-node interned subtree ids, bottom-up: `out[v]` is the id of
    /// node `v`'s children-multiset where entries are the children's own
    /// interned ids. Two nodes — of this or any other tree interned
    /// through the same interner — share an id **iff** their subtrees are
    /// isomorphic.
    ///
    /// This is the interned replacement for per-level joint canonization
    /// ranking ([`crate::ahu::canonical_level_labels`]): one hash lookup
    /// per node instead of a comparison sort over collections. Stars —
    /// nodes whose children are all leaves — take the memoized
    /// [`Self::star`] path, as `ned-graph`'s bulk extractor does.
    pub fn subtree_ids(&self, tree: &crate::Tree) -> Vec<u32> {
        let n = tree.len();
        let mut ids = vec![self.empty; n];
        let mut scratch: Vec<u32> = Vec::new();
        // Children have larger ids in BFS order, so a reverse sweep sees
        // children before parents.
        for v in (0..n as u32).rev() {
            let children = tree.children(v);
            if children.is_empty() {
                continue; // leaves keep the pre-set empty id
            }
            let kids = &ids[children.start as usize..children.end as usize];
            if kids.iter().all(|&c| c == self.empty) {
                ids[v as usize] = self.star(kids.len());
                continue;
            }
            scratch.clear();
            scratch.extend(children.map(|c| ids[c as usize]));
            scratch.sort_unstable();
            ids[v as usize] = self.intern(&scratch);
        }
        ids
    }

    /// Per-level sorted class ids: `out[l]` holds the [`Self::subtree_ids`]
    /// of level `l`'s nodes, sorted ascending. This is the "signature" a
    /// prepared tree carries for histogram lower bounds and fast
    /// equality.
    pub fn level_classes(&self, tree: &crate::Tree) -> Vec<Vec<u32>> {
        let ids = self.subtree_ids(tree);
        (0..tree.num_levels())
            .map(|l| {
                let r = tree.level(l);
                let mut lvl: Vec<u32> = ids[r.start as usize..r.end as usize].to_vec();
                lvl.sort_unstable();
                lvl
            })
            .collect()
    }
}

impl std::fmt::Debug for SignatureInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignatureInterner")
            .field("distinct", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ahu, generate, Tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_multiset_is_id_zero() {
        let i = SignatureInterner::new();
        assert_eq!(i.intern(&[]), 0);
        assert_eq!(i.empty_id(), 0);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn equal_keys_share_ids() {
        let i = SignatureInterner::new();
        let a = i.intern(&[1, 2, 2]);
        let b = i.intern(&[1, 2, 2]);
        let c = i.intern(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn subtree_ids_agree_with_isomorphism() {
        let i = SignatureInterner::new();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let a = generate::random_bounded_depth_tree(18, 4, &mut rng);
            let b = generate::random_bounded_depth_tree(18, 4, &mut rng);
            let ia = i.subtree_ids(&a);
            let ib = i.subtree_ids(&b);
            assert_eq!(ia[0] == ib[0], ahu::isomorphic(&a, &b));
            // per-node: id equality within one tree matches fingerprints
            let fa = ahu::subtree_fingerprints(&a);
            for u in a.nodes() {
                for v in a.nodes() {
                    assert_eq!(
                        ia[u as usize] == ia[v as usize],
                        fa[u as usize] == fa[v as usize],
                        "nodes {u},{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn ids_comparable_across_trees() {
        let i = SignatureInterner::new();
        // A leaf anywhere is class 0; a node with two leaf children has
        // the same id in any tree.
        let t1 = Tree::from_parents(&[0, 0, 0]).unwrap(); // root + 2 leaves
        let t2 = Tree::from_parents(&[0, 0, 1, 1]).unwrap(); // chain: node 1 has 2 leaves
        let i1 = i.subtree_ids(&t1);
        let i2 = i.subtree_ids(&t2);
        assert_eq!(i1[1], 0);
        assert_eq!(i1[0], i2[1], "root(2 leaves) appears in both trees");
    }

    #[test]
    fn level_classes_are_sorted_per_level() {
        let i = SignatureInterner::new();
        let mut rng = SmallRng::seed_from_u64(6);
        let t = generate::random_bounded_depth_tree(60, 4, &mut rng);
        let lc = i.level_classes(&t);
        assert_eq!(lc.len(), t.num_levels());
        for (l, classes) in lc.iter().enumerate() {
            assert_eq!(classes.len(), t.level_size(l));
            assert!(classes.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn global_interner_is_shared() {
        let a = SignatureInterner::global();
        let b = SignatureInterner::global();
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let interner = SignatureInterner::new();
        let keys: Vec<Vec<u32>> = (0..64u32).map(|x| vec![x % 8, 7 + x % 5]).collect();
        let ids: Vec<Vec<u32>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        keys.iter()
                            .map(|k| interner.intern(k))
                            .collect::<Vec<u32>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for w in ids.windows(2) {
            assert_eq!(w[0], w[1], "threads must agree on every id");
        }
    }
}
