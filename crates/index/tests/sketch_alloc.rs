//! Counting-allocator proof that a memo-warm [`SketchBank::knn`] makes a
//! fixed number of heap allocations per query, whatever the bank's size:
//! the bound pass fills one buffer and the refine order is one counting
//! sort, with no per-chunk scratch.
//!
//! The file is one test in its own process so the global counting
//! allocator and the process-wide memo are not shared with unrelated
//! tests.

use ned_core::NodeSignature;
use ned_graph::generators;
use ned_index::SketchBank;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread allocation counter, so the libtest harness's own threads do
// not charge their allocations to the query under test.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by one `knn(q, 5, 1, Exact)` per probe, after a
/// warm-up query has filled the memo and the kernel's scratch.
fn knn_allocations(bank: &SketchBank, probes: &[NodeSignature]) -> Vec<u64> {
    probes
        .iter()
        .map(|q| {
            bank.knn(q, 5, 1);
            let before = allocations();
            let hits = bank.knn(q, 5, 1);
            let count = allocations() - before;
            assert_eq!(hits.len(), 5);
            count
        })
        .collect()
}

#[test]
fn warm_knn_allocations_do_not_grow_with_the_bank() {
    let mut rng = SmallRng::seed_from_u64(0xA11C);
    let g = generators::barabasi_albert(1000, 2, &mut rng);
    let sigs: Vec<NodeSignature> = g
        .nodes()
        .map(|v| NodeSignature::extract(&g, v, 2))
        .collect();
    // The large bank repeats the small one's signatures under fresh ids:
    // eight times the rows (and lane chunks), the same memo-warm pairs.
    let bank_of = |rows: usize| {
        let mut bank = SketchBank::new();
        for id in 0..rows {
            bank.upsert(id as u64, &sigs[id % sigs.len()]);
        }
        bank
    };
    let (small, large) = (bank_of(1000), bank_of(8000));
    let probes = [&sigs[3], &sigs[500], &sigs[999]].map(Clone::clone);
    let small_counts = knn_allocations(&small, &probes);
    let large_counts = knn_allocations(&large, &probes);
    assert_eq!(
        small_counts, large_counts,
        "allocations per warm knn grew with the bank (1k rows vs 8k rows)"
    );
}
