//! Shared allocation instrumentation for the perf-recorder benches
//! (`bench_walks`, `bench_ann`, `bench_persist`).
//!
//! A recorder binary registers the wrapper as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tdmatch_bench::alloc_probe::CountingAlloc =
//!     tdmatch_bench::alloc_probe::CountingAlloc;
//! ```
//!
//! and brackets each measured phase with [`AllocProbe::start`] /
//! [`AllocProbe::finish`]. Without the `#[global_allocator]` registration
//! the counters simply stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting calls and tracking peak live bytes.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed)
            + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let old = layout.size() as u64;
        let delta_up = (new_size as u64).saturating_sub(old);
        let live = LIVE_BYTES.fetch_add(delta_up, Ordering::Relaxed) + delta_up;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(old.saturating_sub(new_size as u64), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters over one measured phase.
pub struct AllocProbe {
    calls_before: u64,
}

impl AllocProbe {
    /// Starts a phase: resets the peak to the current live level so the
    /// phase's own high-water mark is what gets reported.
    pub fn start() -> Self {
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
        Self {
            calls_before: ALLOC_CALLS.load(Ordering::Relaxed),
        }
    }

    /// `(allocation calls, peak live bytes during the phase)`.
    pub fn finish(self) -> (u64, u64) {
        (
            ALLOC_CALLS.load(Ordering::Relaxed) - self.calls_before,
            PEAK_BYTES.load(Ordering::Relaxed),
        )
    }
}
