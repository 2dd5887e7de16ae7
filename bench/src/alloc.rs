//! A counting global allocator for `core.allocs_per_step`.
//!
//! It forwards to the system allocator and, only while armed (traced probes,
//! one thread, one training step at a time), counts calls and bytes. Unarmed
//! it costs one relaxed load per allocation, which both the traced and the
//! untraced pass pay alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

/// Alone on its cache lines: every allocation on every thread reads this
/// flag, and a neighbour that some other thread writes would turn each read
/// into a cache miss (measured: +45 % on `lp_disk_ebs` epochs).
#[repr(align(128))]
struct Flag(AtomicBool);

static ARMED: Flag = Flag(AtomicBool::new(false));
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (Relaxed: they publish no other data) and never influence the returned
// pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.0.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.0.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.0.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block, as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting armed; returns `(allocation calls, bytes requested)`.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ARMED.0.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.0.store(false, Ordering::Relaxed);
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}
