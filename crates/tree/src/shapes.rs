//! Hash-consed canonical shapes, keyed by [`SignatureInterner`] class ids.
//!
//! [`SignatureInterner`] answers *"are these two subtrees isomorphic?"*
//! with a `u32` compare. A [`ShapeTable`] extends each interned class
//! with the two facts a **bulk** signature pipeline needs to build
//! canonical trees without re-canonicalizing anything per node:
//!
//! * the class's **AHU canonical code** (the byte string
//!   [`crate::ahu::canonical_code`] would produce for any tree of that
//!   class), built **once per distinct class** process-wide instead of
//!   once per node per extraction, and
//! * the class's children classes **ordered by their codes** — exactly
//!   the sibling order [`crate::ahu::canonical_form`] lays children out
//!   in.
//!
//! Together these make the canonical layout of a class *reconstructible
//! by pure table expansion* ([`ShapeTable::expand`]): the canonical form
//! of an unordered tree is fully determined by its isomorphism class
//! (equal-code siblings expand to identical sub-layouts, so their mutual
//! order cannot matter), so a breadth-first walk that emits each node's
//! children in the cached code order reproduces, bit for bit, the tree
//! `canonical_form` would have built — with no byte-string sorting, no
//! per-node code allocation, and no parent-array relayout.
//!
//! Classes are tabled bottom-up by the extraction hot path
//! ([`ShapeTable::ensure`]), which records only a class's sorted
//! children multiset: by the time a class is first seen, all of its
//! children classes are already tabled. Its code and child order are
//! built on the class's first [`ShapeTable::get`] — the first
//! [`ShapeTable::expand`] that reaches it — as one concatenation of the
//! children's (likewise lazily built) codes. So a pass that only needs
//! root classes, such as seeding an incremental maintainer's change
//! detector over every node of a graph, interns and tables without
//! building a single code. The table is sharded behind mutexes like the
//! interner so parallel bulk workers share one set of shapes; unlike the
//! interner it is **not** process-global — callers scope a table to one
//! ingest pipeline (e.g. a `SignatureFactory` in `ned-core`) so
//! long-lived churn cannot grow an unbounded side table.

use crate::{SignatureInterner, Tree};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const SHARDS: usize = 16;

/// Cached canonical facts about one interned class. Cheap to clone —
/// both fields are shared `Arc`s.
#[derive(Debug, Clone)]
pub struct ShapeEntry {
    /// The AHU canonical code of any tree in this class (equal iff
    /// isomorphic, byte-identical to [`crate::ahu::canonical_code`]).
    pub code: Arc<[u8]>,
    /// The children classes (with multiplicity) in ascending canonical
    /// code order — the sibling order of the canonical layout.
    pub kids_by_code: Arc<[u32]>,
}

/// One tabled class: its children multiset as interned until something
/// asks for its entry, then the entry.
enum Slot {
    Tabled(Arc<[u32]>),
    Built(ShapeEntry),
}

/// Canonical shape dictionary over [`SignatureInterner`] class ids. See
/// the [module docs](self).
pub struct ShapeTable {
    shards: [Mutex<HashMap<u32, Slot>>; SHARDS],
}

impl Default for ShapeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ShapeTable {
    /// An empty table with the leaf class (`interner.empty_id()`, the
    /// empty children multiset) pre-tabled as `()`.
    pub fn new() -> Self {
        let table = ShapeTable {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        };
        let leaf = Slot::Built(ShapeEntry {
            code: Arc::from(*b"()"),
            kids_by_code: Arc::from([]),
        });
        let empty = SignatureInterner::global().empty_id();
        table.shard(empty).insert(empty, leaf);
        table
    }

    #[inline]
    fn shard_of(class: u32) -> usize {
        (u64::from(class).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
    }

    fn shard(&self, class: u32) -> std::sync::MutexGuard<'_, HashMap<u32, Slot>> {
        self.shards[Self::shard_of(class)]
            .lock()
            .expect("shape shard poisoned")
    }

    /// The entry of `class`, if tabled — building its code and child
    /// order (and those of any descendant not yet built) on first call.
    ///
    /// # Panics
    /// Panics if a child class of a tabled class is missing (a bottom-up
    /// discipline bug in whoever tabled it).
    pub fn get(&self, class: u32) -> Option<ShapeEntry> {
        let kids = match self.shard(class).get(&class)? {
            Slot::Built(entry) => return Some(entry.clone()),
            Slot::Tabled(kids) => Arc::clone(kids),
        };
        // Children live in arbitrary shards: build outside this class's
        // shard lock (nested locking could deadlock against a sibling
        // worker). Equal kids are adjacent in the sorted multiset, so each
        // distinct child is looked up once.
        let mut ordered: Vec<(Arc<[u8]>, u32)> = Vec::with_capacity(kids.len());
        for (i, &kid) in kids.iter().enumerate() {
            let code = match i.checked_sub(1) {
                Some(prev) if kids[prev] == kid => Arc::clone(&ordered[prev].0),
                _ => {
                    self.get(kid)
                        .unwrap_or_else(|| panic!("child class {kid} not tabled before its parent"))
                        .code
                }
            };
            ordered.push((code, kid));
        }
        // Ascending code order — `canonical_code` sorts child codes and
        // `canonical_form` sorts children by code; ties (equal codes =
        // isomorphic subtrees) expand identically, so any tie order
        // reproduces the same canonical layout.
        ordered.sort_by(|a, b| a.0.cmp(&b.0));
        let mut code = Vec::with_capacity(2 + ordered.iter().map(|(c, _)| c.len()).sum::<usize>());
        code.push(b'(');
        for (c, _) in &ordered {
            code.extend_from_slice(c);
        }
        code.push(b')');
        let entry = ShapeEntry {
            code: Arc::from(code),
            kids_by_code: ordered.iter().map(|&(_, k)| k).collect(),
        };
        // A racing reader may have built the entry meanwhile; both built
        // identical entries, so first-in wins arbitrarily.
        let mut shard = self.shard(class);
        let slot = shard.get_mut(&class).expect("tabled classes stay tabled");
        if let Slot::Built(built) = slot {
            return Some(built.clone());
        }
        *slot = Slot::Built(entry.clone());
        Some(entry)
    }

    /// Number of tabled classes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shape shard poisoned").len())
            .sum()
    }

    /// `true` when only the pre-seeded leaf class is tabled.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Tables `class`, whose sorted children multiset is `kids` (as
    /// passed to [`SignatureInterner::intern`]), unless already present.
    /// Records the multiset only: the code is built on the class's first
    /// [`ShapeTable::get`].
    ///
    /// **Bottom-up discipline:** every class in `kids` must already be
    /// tabled — which is automatic when callers intern subtrees bottom-up
    /// (children before parents), the only order the interner supports
    /// anyway. A missing child panics when the class's entry is built.
    pub fn ensure(&self, class: u32, kids: &[u32]) {
        self.shard(class)
            .entry(class)
            .or_insert_with(|| Slot::Tabled(Arc::from(kids)));
    }

    /// Reconstructs the canonical tree of `class` by pure table
    /// expansion, plus each expanded node's class. The tree is
    /// bit-identical to
    /// `canonical_form(t)` for any tree `t` of this class; `classes[v]`
    /// is the interned class of node `v`'s subtree (so per-level class
    /// multisets come for free).
    ///
    /// # Panics
    /// Panics if `class` (or any transitive child) is not tabled.
    pub fn expand(&self, class: u32) -> (Tree, Vec<u32>) {
        // Local memo of kid orders so repeated classes inside one tree
        // (the norm: most nodes are leaves or small stars) cost one
        // shard lock total, not one per node.
        let mut local: HashMap<u32, Arc<[u32]>> = HashMap::new();
        let mut kids_of = |c: u32, table: &ShapeTable| -> Arc<[u32]> {
            local
                .entry(c)
                .or_insert_with(|| {
                    table
                        .get(c)
                        .unwrap_or_else(|| panic!("class {c} not tabled"))
                        .kids_by_code
                })
                .clone()
        };
        let mut classes: Vec<u32> = vec![class];
        let mut parent: Vec<u32> = vec![0];
        let mut level_offsets: Vec<usize> = vec![0, 1];
        let mut level_start = 0usize;
        loop {
            let level_end = classes.len();
            for v in level_start..level_end {
                let kids = kids_of(classes[v], self);
                for &kc in kids.iter() {
                    classes.push(kc);
                    parent.push(v as u32);
                }
            }
            if classes.len() == level_end {
                break;
            }
            level_offsets.push(classes.len());
            level_start = level_end;
        }
        let n = classes.len();
        let mut child_offsets = vec![0usize; n + 1];
        let mut acc = 1usize;
        for v in 0..n {
            child_offsets[v] = acc;
            acc += kids_of(classes[v], self).len();
        }
        child_offsets[n] = acc;
        let tree = Tree::from_bfs_parts(parent, child_offsets, level_offsets);
        (tree, classes)
    }
}

impl std::fmt::Debug for ShapeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapeTable")
            .field("classes", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ahu, generate};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Interns a whole tree bottom-up through the global interner while
    /// tabling every class — the discipline the bulk extractor follows.
    fn intern_and_table(t: &Tree, table: &ShapeTable) -> u32 {
        let interner = SignatureInterner::global();
        let ids = interner.subtree_ids(t);
        // Re-walk bottom-up to ensure every class (subtree_ids interned
        // them already; ensure just needs the sorted kid lists again).
        let mut scratch: Vec<u32> = Vec::new();
        for v in (0..t.len() as u32).rev() {
            scratch.clear();
            scratch.extend(t.children(v).map(|c| ids[c as usize]));
            scratch.sort_unstable();
            table.ensure(ids[v as usize], &scratch);
        }
        ids[0]
    }

    #[test]
    fn leaf_is_preseeded() {
        let table = ShapeTable::new();
        let leaf = table
            .get(SignatureInterner::global().empty_id())
            .expect("leaf tabled");
        assert_eq!(&leaf.code[..], b"()");
        assert!(leaf.kids_by_code.is_empty());
        assert!(table.is_empty());
    }

    #[test]
    fn codes_match_ahu_canonical_code() {
        let table = ShapeTable::new();
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..50 {
            let t = generate::random_bounded_depth_tree(24, 5, &mut rng);
            let root = intern_and_table(&t, &table);
            let entry = table.get(root).expect("root tabled");
            assert_eq!(&entry.code[..], &ahu::canonical_code(&t)[..]);
        }
    }

    #[test]
    fn expand_reproduces_canonical_form_bit_for_bit() {
        let table = ShapeTable::new();
        let mut rng = SmallRng::seed_from_u64(32);
        for _ in 0..60 {
            let t = generate::random_bounded_depth_tree(30, 4, &mut rng);
            let root = intern_and_table(&t, &table);
            let (expanded, classes) = table.expand(root);
            let canonical = ahu::canonical_form(&t);
            assert_eq!(expanded, canonical, "expansion must equal canonical_form");
            assert_eq!(classes.len(), expanded.len());
            // classes must agree with a fresh interner pass on the
            // canonical layout
            let fresh = SignatureInterner::global().subtree_ids(&canonical);
            assert_eq!(classes, fresh);
        }
    }

    #[test]
    fn codes_are_built_on_first_get_only() {
        let table = ShapeTable::new();
        let mut rng = SmallRng::seed_from_u64(34);
        let t = generate::random_bounded_depth_tree(40, 4, &mut rng);
        let root = intern_and_table(&t, &table);
        let built = |table: &ShapeTable| -> usize {
            table
                .shards
                .iter()
                .map(|s| {
                    s.lock()
                        .unwrap()
                        .values()
                        .filter(|slot| matches!(slot, Slot::Built(_)))
                        .count()
                })
                .sum()
        };
        assert_eq!(built(&table), 1, "ensure built a code beyond the leaf's");
        let (expanded, _) = table.expand(root);
        assert_eq!(expanded, ahu::canonical_form(&t));
        assert_eq!(
            built(&table),
            table.len(),
            "expansion builds every class it reaches"
        );
        assert_eq!(
            &table.get(root).unwrap().code[..],
            &ahu::canonical_code(&t)[..]
        );
    }

    #[test]
    fn expansion_is_shared_across_isomorphic_inputs() {
        let table = ShapeTable::new();
        // Same shape built with different sibling orders.
        let a = Tree::from_parents(&[0, 0, 0, 1, 1, 2]).unwrap();
        let b = Tree::from_parents(&[0, 0, 0, 2, 2, 1]).unwrap();
        let ra = intern_and_table(&a, &table);
        let rb = intern_and_table(&b, &table);
        assert_eq!(ra, rb);
        let before = table.len();
        let _ = table.expand(ra);
        assert_eq!(table.len(), before, "expansion inserts nothing");
    }

    #[test]
    fn concurrent_ensure_is_consistent() {
        let table = ShapeTable::new();
        let mut rng = SmallRng::seed_from_u64(33);
        let trees: Vec<Tree> = (0..16)
            .map(|_| generate::random_bounded_depth_tree(20, 4, &mut rng))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for t in &trees {
                        let root = intern_and_table(t, &table);
                        let (expanded, _) = table.expand(root);
                        assert!(ahu::isomorphic(&expanded, t));
                    }
                });
            }
        });
    }
}
