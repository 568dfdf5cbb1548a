//! Allocation budget of the exploration engine.
//!
//! Successor generation shares every component an action leaves alone
//! (copy-on-write boxes and tunnels) and canonicalization allocates
//! nothing, so a full check costs a bounded number of heap allocations
//! per transition. A deep clone of the path state or a per-call map
//! creeping back into `apply`/`canonicalize` pushes the ratio far past
//! the budget.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: nothing else allocates while it measures.

use ipmedia_core::path::EndGoal;
use ipmedia_mck::{budgeted, explore_with, ExploreOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations per transition a full sequential check may spend.
const BUDGET_PER_TRANSITION: f64 = 16.0;

#[test]
fn full_exploration_stays_within_the_allocation_budget() {
    let cfg = budgeted(0, EndGoal::Open, EndGoal::Hold, 0).with_faults(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    let g = explore_with(&cfg, &ExploreOptions::sequential(5_000_000));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(!g.truncated);
    assert_eq!(
        g.transitions, 228_371,
        "the pinned open-hold/0+1fault space"
    );
    let per_transition = allocs as f64 / g.transitions as f64;
    eprintln!(
        "{allocs} allocations over {} transitions: {per_transition:.1} each",
        g.transitions
    );
    assert!(
        per_transition <= BUDGET_PER_TRANSITION,
        "{per_transition:.1} allocations per transition exceeds the budget of \
         {BUDGET_PER_TRANSITION}"
    );
}
