//! A counting global allocator (std only) for the `alloc.*` metrics.
//!
//! Counting is off by default: an untraced run pays one relaxed load per
//! allocation. The traced run switches counting on around the engine calls
//! it attributes, and reads the totals back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus opt-in allocation counters.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation totals at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocations (and reallocations) counted.
    pub allocations: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

impl AllocCount {
    /// What was counted between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Sum of two counts.
    pub fn plus(self, other: AllocCount) -> AllocCount {
        AllocCount {
            allocations: self.allocations + other.allocations,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Runs `f` with counting switched on and returns its result together with
/// the allocations made meanwhile, by any thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = now();
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, now().since(before))
}

fn now() -> AllocCount {
    AllocCount {
        allocations: ALLOCATIONS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
    }
}
