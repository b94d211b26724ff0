//! Counting-allocator proof that `ted_star_prepared_within` performs
//! **zero heap allocations per call in steady state**: after a warm-up
//! pass has grown the thread-local scratch arena (and, separately, with
//! the memo serving hits), repeating the same workload must not touch
//! the allocator at all.
//!
//! The whole file is one test in its own process so the global counting
//! allocator and the process-wide memo are not shared with unrelated
//! tests.

use ned_core::{
    ted_star_class_lower_bound, ted_star_degree_lower_bound, ted_star_prepared,
    ted_star_prepared_within, ted_star_summary_lower_bound, NodeSignature, PreparedTree, TedMemo,
};
use ned_tree::generate::random_bounded_depth_tree;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread allocation counter: the libtest harness's coordinator
// thread allocates concurrently (channel traffic, output buffering), so
// a process-global counter would charge its noise to the kernel under
// test. The `const` initializer keeps the TLS slot allocation-free to
// access, and `try_with` tolerates the teardown window at thread exit.
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

#[test]
fn steady_state_bounded_calls_do_not_allocate() {
    // A varied corpus: different sizes, depths, and therefore different
    // level widths and class structures — the scratch must absorb the
    // high-water mark of all of them.
    let mut rng = SmallRng::seed_from_u64(0xA110C);
    let prepared: Vec<PreparedTree> = (0..10)
        .map(|i| PreparedTree::new(&random_bounded_depth_tree(10 + i * 7, 3 + i % 4, &mut rng)))
        .collect();
    let workload = |budgets: &[u64]| {
        let mut checksum = 0u64;
        for (i, a) in prepared.iter().enumerate() {
            for b in prepared.iter().skip(i + 1) {
                for &t in budgets {
                    if let Some(d) = ted_star_prepared_within(a, b, t) {
                        checksum = checksum.wrapping_add(d + 1);
                    }
                }
            }
        }
        checksum
    };
    let budgets = [0u64, 3, 10, 50, u64::MAX];

    // --- Summary rejections: decided on inline data before the memo and
    // the scratch arena exist, so even the process's first calls must
    // not allocate ---
    let mut rejected = 0usize;
    let before = allocations();
    for (i, a) in prepared.iter().enumerate() {
        for b in prepared.iter().skip(i + 1) {
            let summary = ted_star_summary_lower_bound(a, b);
            if summary > 0 {
                assert_eq!(ted_star_prepared_within(a, b, summary - 1), None);
                rejected += 1;
            }
        }
    }
    let after = allocations();
    assert!(rejected > 0, "no pair has a positive summary bound");
    assert_eq!(
        after - before,
        0,
        "a summary-rejected call allocated (it must be allocation-free)"
    );

    // --- Kernel alone: memo disabled, every call runs the full sweep ---
    TedMemo::global().set_capacity(0);
    TedMemo::global().clear();
    let reference = workload(&budgets); // warm-up grows the scratch arena
    let before = allocations();
    let repeat = workload(&budgets);
    let after = allocations();
    assert_eq!(repeat, reference, "steady-state repeat changed results");
    assert_eq!(
        after - before,
        0,
        "the bounded kernel allocated in steady state (memo disabled)"
    );

    // --- Memo hits: warm cache, repeat calls never reach the kernel ----
    TedMemo::global().set_capacity(1 << 20);
    TedMemo::global().clear();
    let warm = workload(&budgets); // populates the memo
    assert_eq!(warm, reference, "memo-backed results diverged");
    let before = allocations();
    let served = workload(&budgets);
    let after = allocations();
    assert_eq!(served, reference);
    assert_eq!(after - before, 0, "memo-served steady state allocated");

    // The unbounded prepared path shares the same kernel and arena —
    // memo disabled again so every call genuinely runs the sweep rather
    // than being served from the cache warmed above.
    TedMemo::global().set_capacity(0);
    TedMemo::global().clear();
    let before = allocations();
    for (i, a) in prepared.iter().enumerate() {
        for b in prepared.iter().skip(i + 1) {
            std::hint::black_box(ted_star_prepared(a, b));
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "ted_star_prepared allocated in steady state"
    );

    // The SoA lower bounds walk flat per-level arrays baked into the
    // PreparedTree — they must never allocate, even on the very first
    // call (no warm-up, no scratch arena).
    type Bound = fn(&PreparedTree, &PreparedTree) -> u64;
    let bounds: [(&str, Bound); 3] = [
        ("ted_star_class_lower_bound", ted_star_class_lower_bound),
        ("ted_star_degree_lower_bound", ted_star_degree_lower_bound),
        ("ted_star_summary_lower_bound", ted_star_summary_lower_bound),
    ];
    for (name, bound) in bounds {
        let before = allocations();
        let mut lb_checksum = 0u64;
        for (i, a) in prepared.iter().enumerate() {
            for b in prepared.iter().skip(i + 1) {
                lb_checksum = lb_checksum.wrapping_add(bound(a, b));
            }
        }
        std::hint::black_box(lb_checksum);
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name} allocated (it must be allocation-free)"
        );
    }

    // The signature-level filter bound is the max of the two.
    let sigs: Vec<NodeSignature> = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| NodeSignature::from_prepared(i as u32, p.clone()))
        .collect();
    let before = allocations();
    let mut lb_checksum = 0u64;
    for (i, a) in sigs.iter().enumerate() {
        for b in sigs.iter().skip(i + 1) {
            lb_checksum = lb_checksum.wrapping_add(a.distance_lower_bound(b));
        }
    }
    std::hint::black_box(lb_checksum);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "NodeSignature::distance_lower_bound allocated (it must be allocation-free)"
    );
}
