//! Preparing trees that are already canonical: [`PreparedTree::new`]
//! adopts a canonical layout as it is and canonicalizes anything else,
//! and the two paths must agree on every layout of every tree. Decoders
//! lean on this: stored shapes are canonical and are adopted, while a
//! record in any other valid layout still decodes to the canonical tree.

use ned_core::store::{decode_snapshot, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use ned_core::PreparedTree;
use ned_tree::ahu::canonical_form;
use ned_tree::generate::{
    caterpillar_tree, path_tree, perfect_tree, random_bounded_depth_tree, star_tree,
};
use ned_tree::Tree;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `copies` copies of `sub` and `leaves` extra leaves under one root: a
/// root whose children include equal-code siblings.
fn replicated(sub: &Tree, copies: usize, leaves: usize) -> Tree {
    let mut parents = vec![0u32];
    for _ in 0..copies {
        let base = parents.len() as u32;
        parents.push(0);
        parents.extend(sub.parents()[1..].iter().map(|&p| base + p));
    }
    parents.resize(parents.len() + leaves, 0);
    Tree::from_parents(&parents).expect("valid replicated tree")
}

/// A random tree from one of the families whose sibling orders stress
/// the layout check: random bounded-depth trees, stars, paths, perfect
/// and caterpillar trees, and roots over repeated subtrees.
fn random_shape(rng: &mut SmallRng) -> Tree {
    match rng.gen_range(0..6) {
        0 => {
            let n = rng.gen_range(1..60);
            random_bounded_depth_tree(n, rng.gen_range(1..5), rng)
        }
        1 => star_tree(rng.gen_range(1..20)),
        2 => path_tree(rng.gen_range(1..12)),
        3 => perfect_tree(rng.gen_range(1..4), rng.gen_range(1..4)),
        4 => caterpillar_tree(rng.gen_range(1..6), rng.gen_range(0..3)),
        _ => {
            let n = rng.gen_range(1..10);
            let sub = random_bounded_depth_tree(n, 3, rng);
            replicated(&sub, rng.gen_range(1..5), rng.gen_range(0..3))
        }
    }
}

/// `t` with its node ids shuffled: the relabeled parent array goes back
/// through `from_parents`, whose BFS relayout takes each node's children
/// in id order, so sibling orders change as well.
fn relabeled(t: &Tree, rng: &mut SmallRng) -> Tree {
    let n = t.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    let mut parents = vec![0u32; n];
    for v in 0..n {
        parents[perm[v] as usize] = perm[t.parents()[v] as usize];
    }
    Tree::from_parents(&parents).expect("relabeling keeps a tree valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_layout_prepares_like_its_canonical_form(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = random_shape(&mut rng);
        let want = PreparedTree::new(&canonical_form(&t));
        // The canonical form is adopted as it is.
        prop_assert_eq!(want.tree(), &canonical_form(&t));
        prop_assert_eq!(want.code(), &ned_tree::ahu::canonical_code(&t)[..]);
        for _ in 0..4 {
            let layout = relabeled(&t, &mut rng);
            prop_assert_eq!(&PreparedTree::new(&layout), &want);
            prop_assert_eq!(&PreparedTree::new(&canonical_form(&layout)), &want);
            prop_assert_eq!(&PreparedTree::from_tree(layout), &want);
        }
        // A canonical tree's stored parent array rebuilds it unchanged.
        prop_assert_eq!(&Tree::from_parents(want.tree().parents()).expect("valid"), want.tree());
    }
}

/// A NEDSNAP1 image with the given shape records (each a parent array
/// with the root first) and one entry per shape.
fn snapshot_with_records(records: &[&[u32]]) -> Vec<u8> {
    let mut w = Writer::with_magic(&SNAPSHOT_MAGIC);
    w.put_u32(SNAPSHOT_VERSION);
    w.put_u32(3);
    w.put_u32(records.len() as u32);
    for parents in records {
        let mut record = (parents.len() as u32).to_le_bytes().to_vec();
        for p in &parents[1..] {
            record.extend_from_slice(&p.to_le_bytes());
        }
        w.put_block(&record);
    }
    w.put_u32(records.len() as u32);
    for s in 0..records.len() {
        w.put_u64(s as u64);
        w.put_u32(s as u32);
        w.put_u32(s as u32);
    }
    w.finish()
}

#[test]
fn non_canonical_shape_records_decode_to_the_canonical_tree() {
    // A leaf before its deeper sibling (BFS order, not canonical), and
    // the same shape with ids out of BFS order.
    let leaf_first: &[u32] = &[0, 0, 0, 2];
    let scrambled: &[u32] = &[0, 3, 0, 0];
    // The canonical layout itself, which is adopted.
    let canonical: &[u32] = &[0, 0, 0, 1];
    let snap = decode_snapshot(&snapshot_with_records(&[leaf_first, scrambled, canonical]))
        .expect("valid records decode");
    let want = Tree::from_parents(canonical).expect("valid");
    assert_eq!(canonical_form(&want), want);
    for (s, shape) in snap.shapes.iter().enumerate() {
        assert_eq!(shape.tree(), &want, "shape {s}");
        assert_eq!(shape.tree().parents(), canonical, "shape {s}");
        assert_eq!(**shape, PreparedTree::new(&want), "shape {s}");
    }
}
