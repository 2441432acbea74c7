//! The counting `#[global_allocator]` of the heap tests (`heap_proportional`,
//! `pool_heap`): including this module installs it for the whole test
//! binary, so each binary that does holds exactly one `#[test]`.
//!
//! The harness runs a lone test on one thread while the main thread sleeps
//! on its result, so exactly one thread allocates and the counters need no
//! read-modify-write — plain atomic loads and stores. No clock, no `/proc`
//! read: the numbers are exact and repeat.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes the heap holds now, and the most it has held.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn moved(freed: usize, taken: usize) {
    let live = LIVE.load(Relaxed) - freed + taken;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments, so `System`'s contract is the caller's; the counters touch no
// allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            moved(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        moved(layout.size(), 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            moved(layout.size(), new_size);
        }
        q
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Peak live heap, over what was live at entry, of `run`.
pub fn peak_heap_of(run: impl FnOnce()) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    run();
    PEAK.load(Relaxed) - base
}
