//! Counting-allocator proof that saving an index streams it to disk: the
//! peak of live heap bytes during `save_at_epoch` stays a small fraction
//! of the file it writes, at 1k rows and at 16k rows. An encoder that
//! builds the whole file image in memory first peaks at more than the
//! file size.
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

// Per-thread live and peak byte counters, so the libtest harness's own
// threads do not charge their allocations to the save under test.
thread_local! {
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as u64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    // Saturating: a block allocated before the counter's thread-local
    // existed may be freed on this thread.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes as u64)));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The old and new blocks can both be live mid-move.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Peak live bytes above the starting level during `f`.
fn peak_during(f: impl FnOnce()) -> u64 {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    f();
    PEAK.with(Cell::get) - start
}

#[test]
fn save_peak_heap_stays_a_fraction_of_the_file() {
    let mut rng = SmallRng::seed_from_u64(0x5A7E);
    let g = generators::barabasi_albert(1000, 2, &mut rng);
    let sigs: Vec<NodeSignature> = g
        .nodes()
        .map(|v| NodeSignature::extract(&g, v, 3))
        .collect();
    let dir = std::env::temp_dir().join(format!("ned-save-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("index.idx");
    for rows in [1_000, 16_000] {
        let all: Vec<NodeSignature> = (0..rows).map(|i| sigs[i % sigs.len()].clone()).collect();
        let index = SignatureIndex::from_signatures(3, 1024, 7, all);
        let peak = peak_during(|| index.save_at_epoch(9, &path).expect("save"));
        let file = std::fs::metadata(&path).expect("saved file").len();
        assert!(
            peak * 4 < file,
            "saving {rows} rows peaked at {peak} live heap bytes for a {file}-byte file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
