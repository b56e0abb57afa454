//! Per-hardware-thread memory pools and mbufs.
//!
//! From the paper (§4.2): *"All hot-path data objects are allocated from
//! per hardware thread memory pools. Each memory pool is structured as
//! arrays of identically sized objects, provisioned in page-sized blocks.
//! Free objects are tracked with a simple free list ... Mbufs, the storage
//! object for network packets, are stored as contiguous chunks of
//! bookkeeping data and MTU-sized buffers, and are used for both receiving
//! and transmitting packets."*
//!
//! This crate reproduces that allocator: [`MbufPool`] provisions
//! fixed-size buffers on demand, a small block at a time, and recycles
//! them through a free list; [`Mbuf`] is the packet storage object, with headroom
//! management so protocol headers can be prepended without copying — the
//! mechanism behind IX's zero-copy API. [`Spares`] applies the same free-list
//! rule to the heap buffers behind per-connection queues: lent while a
//! connection holds something, never parked per flow. [`Blocks`] is the
//! application's end of it: message blocks written in place, lent to TCP
//! until acknowledged, then written again.
//!
//! Pools are intentionally *not* thread-safe: one pool per elastic thread
//! is the paper's design (no synchronization or coherence traffic on the
//! hot path), and the simulation is single-threaded.

pub mod lend;
pub mod mbuf;
pub mod pool;

pub use lend::{Blocks, LentQueues, Spares};
pub use mbuf::{Mbuf, MBUF_DATA_SIZE, MBUF_DEFAULT_HEADROOM};
pub use pool::{MbufPool, PoolStats, PROVISION_BLOCK};
