//! Counting-allocator proof that publishing a write costs what the write
//! changed, not what the index holds: the bytes allocated by one
//! publication clone, one upsert and the drop of the superseded snapshot
//! stay flat from a 1k-row to a 16k-row index.
//!
//! The file is one test in its own process so the global counting
//! allocator is not shared with unrelated tests.

use ned_core::NodeSignature;
use ned_graph::generators;
use ned_index::SignatureIndex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread byte counter, so the libtest harness's own threads do not
// charge their allocations to the publication under test.
thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn charge(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes allocated by one publication of a `rows`-row index: the
/// snapshot clone, one upsert on the master, then dropping the snapshot.
/// `fresh` upserts a new id (the id map grows); otherwise a live id in
/// the middle of the index is replaced, the edge-flip case.
fn publish_bytes(sigs: &[NodeSignature], rows: usize, fresh: bool) -> u64 {
    let all: Vec<NodeSignature> = (0..rows).map(|i| sigs[i % sigs.len()].clone()).collect();
    let mut index = SignatureIndex::from_signatures(2, 1024, 7, all);
    let replacement = sigs[1].clone();
    // Warm the process-wide sketch cache for the replacement's shape.
    index.insert_at(0, replacement.clone());
    let id = if fresh { rows as u64 } else { rows as u64 / 2 };
    let before = allocated();
    let snapshot = index.clone();
    index.insert_at(id, replacement);
    drop(snapshot);
    allocated() - before
}

#[test]
fn publication_bytes_do_not_grow_with_the_index() {
    let mut rng = SmallRng::seed_from_u64(0x9B1);
    let g = generators::barabasi_albert(1000, 2, &mut rng);
    let sigs: Vec<NodeSignature> = g
        .nodes()
        .map(|v| NodeSignature::extract(&g, v, 2))
        .collect();
    for fresh in [false, true] {
        let small = publish_bytes(&sigs, 1_000, fresh);
        let large = publish_bytes(&sigs, 16_000, fresh);
        assert!(
            small > 0,
            "a publication that copies nothing was not measured"
        );
        assert!(
            large * 2 <= small * 3,
            "publication bytes grew with the index (fresh id: {fresh}): \
             {small} B at 1k rows, {large} B at 16k rows"
        );
    }
}
