//! # ius-memtrack — peak-heap measurement
//!
//! The paper evaluates *construction space* as the maximum resident set size
//! of the construction process (`/usr/bin/time -v`). This crate provides the
//! deterministic, in-process equivalent: a counting [`std::alloc::GlobalAlloc`]
//! wrapper that tracks live and peak heap bytes, plus a [`measure`] helper
//! that runs a closure and reports the peak heap growth it caused.
//!
//! Usage (typically in a benchmark binary):
//!
//! ```
//! use ius_memtrack::{measure, CountingAllocator};
//!
//! // In a binary: #[global_allocator] static A: CountingAllocator = CountingAllocator::new();
//! let (value, stats) = measure(|| vec![0u8; 1 << 16]);
//! assert_eq!(value.len(), 1 << 16);
//! // When the counting allocator is not installed the stats are zero, but the
//! // closure's value is still returned.
//! assert!(stats.peak_bytes == 0 || stats.peak_bytes >= 1 << 16);
//! ```

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes allocated through [`CountingAllocator`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Peak of [`LIVE`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation calls served (alloc/alloc_zeroed/realloc) since process start.
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
/// Whether a `CountingAllocator` has been installed as the global allocator.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Serialises [`measure`] calls so concurrent measurements do not interleave.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// A `#[global_allocator]`-compatible allocator that counts live and peak
/// heap usage while delegating to the system allocator.
pub struct CountingAllocator {
    _private: (),
}

impl CountingAllocator {
    /// Creates the allocator (const so it can be used in a `static`).
    pub const fn new() -> Self {
        Self { _private: () }
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        track_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            track_dealloc(layout.size());
            track_alloc(new_size);
        }
        new_ptr
    }
}

#[inline]
fn track_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn track_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

/// A snapshot of heap statistics produced by [`measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Peak heap growth (bytes above the live level at the start of the
    /// measured closure). Zero when the counting allocator is not installed.
    pub peak_bytes: usize,
    /// Net heap growth retained by the closure's return value (bytes).
    pub retained_bytes: usize,
    /// Allocation calls served during the closure (an arena open shows up
    /// here as **one** call for the buffer, however many typed views are
    /// carved out of it — views attribute bytes, they do not allocate).
    pub alloc_calls: usize,
}

/// Live heap bytes currently allocated (0 when the allocator is not
/// installed as the global allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Returns `true` if a [`CountingAllocator`] appears to be installed (i.e. it
/// has served at least one allocation).
pub fn is_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Resets the peak to the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Allocation calls served since process start (0 when the allocator is
/// not installed).
pub fn alloc_calls() -> usize {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Runs `f`, measuring the peak heap growth above the level at entry and the
/// bytes retained by its return value.
///
/// Measurements are serialised by an internal lock; nested calls would
/// deadlock, so keep measured regions flat (the benchmark harness does).
///
/// The counters are **process-wide**: the lock serialises measurers, not
/// the other threads of the process, so every allocation any thread makes
/// while `f` runs lands in the reading. A reading is exact only while no
/// other thread allocates — a test that asserts on it must keep its sibling
/// tests out of the window (one `#[test]`, or a file-level lock held from
/// workload build to last assertion).
pub fn measure<T, F: FnOnce() -> T>(f: F) -> (T, MemoryStats) {
    // A poisoned lock only means a previous measurement panicked; the
    // counters are monotone and self-consistent, so continue regardless.
    let _guard = MEASURE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = live_bytes();
    let calls_before = alloc_calls();
    reset_peak();
    let value = f();
    let peak = peak_bytes();
    let after = live_bytes();
    let stats = MemoryStats {
        peak_bytes: peak.saturating_sub(before),
        retained_bytes: after.saturating_sub(before),
        alloc_calls: alloc_calls().saturating_sub(calls_before),
    };
    (value, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the counting allocator is *not* installed as the global allocator
    // of the test binary (that would affect every other test in the
    // workspace); these tests exercise the bookkeeping directly.

    #[test]
    fn tracking_math() {
        reset_peak();
        let base_live = live_bytes();
        track_alloc(1000);
        track_alloc(500);
        assert_eq!(live_bytes(), base_live + 1500);
        assert!(peak_bytes() >= base_live + 1500);
        track_dealloc(1000);
        assert_eq!(live_bytes(), base_live + 500);
        // Peak must not decrease.
        assert!(peak_bytes() >= base_live + 1500);
        track_dealloc(500);
        assert_eq!(live_bytes(), base_live);
    }

    #[test]
    fn measure_returns_closure_value() {
        let (v, stats) = measure(|| (0..100).sum::<u64>());
        assert_eq!(v, 4950);
        // Without the allocator installed the stats are zero — but never
        // garbage.
        assert!(stats.peak_bytes < 1 << 30);
        assert!(stats.retained_bytes <= stats.peak_bytes || stats.peak_bytes == 0);
    }

    #[test]
    fn measure_is_serialised() {
        // Concurrent measures must not deadlock or panic.
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let (v, _) = measure(move || vec![i as u8; 10_000].len());
                    v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 10_000);
        }
    }

    #[test]
    fn default_constructs() {
        let _a = CountingAllocator::default();
        let _b = CountingAllocator::new();
    }
}
