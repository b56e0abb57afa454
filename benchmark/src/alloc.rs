//! The two host-memory probes: a counting global allocator and a
//! `VmHWM` reader.
//!
//! The allocator is not a diagnostic bolted onto the benchmark — it *is*
//! the `host_allocs_per_msg` measurement, so it is installed in every
//! run, traced or not. Every `Simulator::schedule_*` boxes a closure, so
//! the count tracks events per message plus any buffer that does not
//! come from a pool.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, plus one relaxed counter bump per allocation.
pub struct CountingAlloc;

// Statistics only: the counters publish no other data, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout` — the caller guarantees it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place is still a trip to the allocator: count it.
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is non-zero and does not overflow, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes requested since process start.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Reads both counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Peak resident set of this process in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
