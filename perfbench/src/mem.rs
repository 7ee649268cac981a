//! Heap accounting: the benchmark's global allocator counts the bytes
//! live on the heap and their peak.
//!
//! The peak counts what the program allocates, whatever the system
//! allocator keeps or returns, so it repeats from run to run where the
//! resident set size does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counted.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Peak of the live heap since the last [`reset_peak`], in MB (2^20
/// bytes).
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / f64::from(1 << 20)
}

/// Sets the peak to the bytes live now, so that a reading taken after the
/// next step is that step's own.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_allocations_and_resets_to_the_live_heap() {
        const MB: usize = 64;
        reset_peak();
        let buf = vec![1u8; MB << 20];
        assert!(peak_mb() >= MB as f64, "peak {}", peak_mb());
        drop(buf);
        // Other tests run alongside and hold far less than this.
        assert!(peak_mb() >= MB as f64);
        reset_peak();
        assert!(peak_mb() < (MB / 2) as f64, "peak {}", peak_mb());
    }
}
