//! Fixed-size object pools provisioned on demand in small blocks.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::mbuf::{Mbuf, MBUF_DATA_SIZE};

/// Buffers materialized each time a pool's free list runs dry below its
/// capacity (64 KiB of storage). A testbed holds hundreds of pools — one
/// per RX ring and per shard on every host — and most never have more
/// than a few dozen buffers outstanding, so host memory follows
/// `peak_outstanding` to within one block instead of committing a
/// pool's whole capacity on its first use.
pub const PROVISION_BLOCK: usize = 32;

/// Allocation statistics for a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Buffers returned to the free list.
    pub frees: u64,
    /// Allocations denied because the pool was at capacity.
    pub exhausted: u64,
    /// Currently outstanding objects.
    pub outstanding: u64,
    /// High-water mark of outstanding objects.
    pub peak_outstanding: u64,
}

/// The shared free list behind a pool. `Mbuf::drop` pushes storage back
/// here, so the list must be reference-counted and interior-mutable.
///
/// The list owns the outstanding/peak accounting so the pool's alloc hot
/// path is a single `RefCell` borrow: one pop, one counter bump.
///
/// Storage is `Arc<[u8]>` because delivered payloads are handed to the
/// application as refcounted `Bytes` views (`Mbuf::as_bytes`). An mbuf
/// dropped while a view is still alive parks its storage on `deferred`;
/// the buffer rejoins `free` once the last view releases it (checked
/// when the free list runs dry), so a view can never observe the pool
/// scribbling over bytes it is still reading.
#[derive(Debug, Default)]
pub struct FreeList {
    free: Vec<Arc<[u8]>>,
    /// Recycled storage still aliased by a live `Bytes` view; swept back
    /// into `free` once unique.
    deferred: Vec<Arc<[u8]>>,
    /// Buffers materialized so far; grows a [`PROVISION_BLOCK`] at a time
    /// up to `capacity`.
    provisioned: usize,
    /// The configured capacity in buffers.
    capacity: usize,
    outstanding: u64,
    peak_outstanding: u64,
}

impl FreeList {
    /// Pops a buffer and charges it as outstanding, in one pass. Backing
    /// storage is materialized on demand, one small block at a time and
    /// one host allocation per buffer, so a testbed of many pools only
    /// pays — in allocation and page-fault cost — for the buffers its
    /// workload actually has in flight.
    fn take(&mut self) -> Option<Arc<[u8]>> {
        if self.free.is_empty() {
            self.sweep_deferred();
        }
        if self.free.is_empty() && self.provisioned < self.capacity {
            let block = (self.capacity - self.provisioned).min(PROVISION_BLOCK);
            self.free.reserve(block);
            for _ in 0..block {
                self.free.push(Arc::new([0u8; MBUF_DATA_SIZE]));
            }
            self.provisioned += block;
        }
        let storage = self.free.pop()?;
        self.outstanding += 1;
        if self.outstanding > self.peak_outstanding {
            self.peak_outstanding = self.outstanding;
        }
        Some(storage)
    }

    /// Moves parked storage whose last view has dropped back to `free`.
    fn sweep_deferred(&mut self) {
        crate::lend::sweep_unique(&mut self.deferred, &mut self.free);
    }

    pub(crate) fn recycle(&mut self, storage: Arc<[u8]>) {
        debug_assert!(self.outstanding > 0, "free without matching alloc");
        self.outstanding -= 1;
        if Arc::strong_count(&storage) == 1 {
            self.free.push(storage);
        } else {
            self.deferred.push(storage);
        }
    }
}

/// A pool of MTU-sized packet buffers for one hardware thread.
///
/// Capacity is expressed in buffers; backing storage is provisioned on
/// demand a [`PROVISION_BLOCK`] at a time, and once a buffer is
/// materialized it recycles through the free list forever — the
/// steady-state alloc path never touches the global allocator. When the
/// pool is exhausted, `alloc` returns `None` — the NIC model translates
/// that into a packet drop, exactly what a real NIC does when the host
/// is out of receive buffers.
#[derive(Debug)]
pub struct MbufPool {
    list: Rc<RefCell<FreeList>>,
    capacity: usize,
    stats: PoolStats,
}

impl MbufPool {
    /// Creates a pool of `capacity` mbufs.
    pub fn new(capacity: usize) -> MbufPool {
        MbufPool {
            list: Rc::new(RefCell::new(FreeList {
                free: Vec::new(),
                deferred: Vec::new(),
                provisioned: 0,
                capacity,
                outstanding: 0,
                peak_outstanding: 0,
            })),
            capacity,
            stats: PoolStats::default(),
        }
    }

    /// Allocates an mbuf, or `None` if the pool is exhausted. One borrow,
    /// one pop: the free list carries the outstanding/peak bookkeeping.
    pub fn alloc(&mut self) -> Option<Mbuf> {
        match self.list.borrow_mut().take() {
            Some(storage) => {
                self.stats.allocs += 1;
                Some(Mbuf::from_storage(storage, Rc::downgrade(&self.list)))
            }
            None => {
                self.stats.exhausted += 1;
                None
            }
        }
    }

    /// Allocates an mbuf pre-filled with `data`.
    pub fn alloc_with(&mut self, data: &[u8]) -> Option<Mbuf> {
        let mut m = self.alloc()?;
        m.extend_from_slice(data);
        Some(m)
    }

    /// Allocates an empty mbuf with exactly `headroom` bytes reserved in
    /// front of the data region. The zero-copy transmit path sizes this
    /// to Eth+IP+L4 so the payload lands once in the tail and every
    /// header prepend fits without moving it.
    pub fn alloc_with_headroom(&mut self, headroom: usize) -> Option<Mbuf> {
        let mut m = self.alloc()?;
        m.set_headroom(headroom);
        Some(m)
    }

    /// The configured capacity in buffers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers currently available (capacity minus outstanding; unfilled
    /// headroom is materialized on demand).
    pub fn available(&self) -> usize {
        let list = self.list.borrow();
        list.capacity - list.outstanding as usize
    }

    /// Buffers whose storage has been materialized so far: at most one
    /// [`PROVISION_BLOCK`] past what demand has required, never more
    /// than the capacity.
    pub fn provisioned(&self) -> usize {
        self.list.borrow().provisioned
    }

    /// A snapshot of allocation statistics (outstanding/peak/frees come
    /// from the free-list state at call time).
    pub fn stats(&self) -> PoolStats {
        let list = self.list.borrow();
        PoolStats {
            outstanding: list.outstanding,
            peak_outstanding: list.peak_outstanding,
            frees: self.stats.allocs - list.outstanding,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut pool = MbufPool::new(4);
        assert_eq!(pool.available(), 4);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.stats().outstanding, 2);
        drop(a);
        assert_eq!(pool.available(), 3);
        drop(b);
        assert_eq!(pool.available(), 4);
        let s = pool.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 2);
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.peak_outstanding, 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut pool = MbufPool::new(2);
        let _a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        assert!(pool.alloc().is_none());
        assert_eq!(pool.stats().exhausted, 1);
    }

    #[test]
    fn recycled_buffer_is_reusable() {
        let mut pool = MbufPool::new(1);
        let mut m = pool.alloc().unwrap();
        m.extend_from_slice(b"dirty");
        drop(m);
        let m2 = pool.alloc().unwrap();
        // A fresh mbuf starts empty with default headroom regardless of
        // what the previous user wrote.
        assert!(m2.is_empty());
        assert_eq!(m2.headroom(), crate::MBUF_DEFAULT_HEADROOM);
    }

    #[test]
    fn aliased_recycle_defers_until_view_drops() {
        let mut pool = MbufPool::new(1);
        let m = pool.alloc().unwrap();
        let view = m.as_bytes();
        drop(m);
        // The buffer is back from the pool's perspective...
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.available(), 1);
        // ...but cannot be handed out while the view still reads it.
        assert!(pool.alloc().is_none(), "aliased storage must not be reissued");
        drop(view);
        assert!(pool.alloc().is_some(), "storage reusable once the view drops");
    }

    #[test]
    fn orphan_mbuf_after_pool_drop_is_safe() {
        let mut pool = MbufPool::new(1);
        let m = pool.alloc().unwrap();
        drop(pool);
        drop(m); // Must not panic; storage goes to the global allocator.
    }

    #[test]
    fn alloc_with_copies_data() {
        let mut pool = MbufPool::new(1);
        let m = pool.alloc_with(b"abc").unwrap();
        assert_eq!(m.data(), b"abc");
    }

    #[test]
    fn alloc_with_headroom_reserves_front() {
        let mut pool = MbufPool::new(1);
        let mut m = pool.alloc_with_headroom(94).unwrap();
        assert_eq!(m.headroom(), 94);
        assert!(m.is_empty());
        m.extend_from_slice(b"data");
        m.prepend(94);
        assert_eq!(m.len(), 98);
    }
}
