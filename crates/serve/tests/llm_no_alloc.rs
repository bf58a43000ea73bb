//! A warm decode-only `ContinuousBatcher::step` makes zero heap
//! allocations. The layer stack runs on the batcher's reused scratch
//! buffers, sub-model rows go through `ExecutionPlan::run_rows_into` into
//! leased workspace buffers, attention writes into caller rows, and KV
//! rows are read in place. "Decode-only" means the step admits, retires
//! and preempts nothing and grows no KV block table.
//!
//! The global allocator counts allocations per thread, so the online
//! tuner's background compiles cannot pollute the count. This file holds
//! a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use bolt::BoltConfig;
use bolt_serve::testing::test_arch;
use bolt_serve::{ContinuousBatcher, LlmServeConfig, SequenceRequest};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Forwards to the system allocator, counting every allocation and
/// reallocation on the calling thread.
struct ThreadCounting;

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

#[test]
fn warm_decode_steps_allocate_nothing() {
    const SEQS: usize = 4;
    let mut batcher = ContinuousBatcher::new(
        test_arch(),
        BoltConfig::default(),
        LlmServeConfig {
            max_slots: SEQS,
            // One block covers every position this test reaches, so no
            // step grows a block table.
            kv_block_rows: 64,
            ..LlmServeConfig::default()
        },
    )
    .expect("tiny-lm batcher");
    for s in 0..SEQS as u32 {
        let prompt = vec![s + 1, s + 2, s + 3, s + 4];
        let request = SequenceRequest {
            prompt,
            max_new_tokens: 48,
            deadline_us: None,
        };
        batcher.submit(request).expect("valid request");
    }

    // Admit every sequence, let the online tuner compile each sub-model
    // bucket the steps ask for, then warm the hot-swapped engines.
    assert_eq!(batcher.step().admitted, SEQS);
    for _ in 0..2 {
        assert!(batcher.wait_tuned(Duration::from_secs(300)), "tuner idle");
        for _ in 0..3 {
            batcher.step();
        }
    }
    let blocks = batcher.kv_governor().kv_blocks_in_use;
    let fallbacks = batcher.stats().fallback_launches;

    for step in 0..8 {
        let before = allocations();
        let report = batcher.step();
        let made = allocations() - before;
        assert_eq!(
            (report.admitted, report.retired, report.decoded),
            (0, 0, SEQS),
            "step {step} must be decode-only"
        );
        assert_eq!(
            made, 0,
            "warm decode step {step} made {made} heap allocations"
        );
    }
    assert_eq!(
        batcher.kv_governor().kv_blocks_in_use,
        blocks,
        "no block growth"
    );
    assert_eq!(batcher.stats().preemptions, 0);
    assert_eq!(
        batcher.stats().fallback_launches,
        fallbacks,
        "every bucket was tuned"
    );
}
