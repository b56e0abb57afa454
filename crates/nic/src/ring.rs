//! RX and TX descriptor rings.
//!
//! The rings model the 82599's descriptor mechanics at the level that
//! matters for the paper's results: finite capacity, explicit receive-
//! buffer posting (so an unreplenished ring drops packets — queues "build
//! up only at the NIC edge", §3), and transmit occupancy (a full TX ring
//! back-pressures the stack).

use std::collections::VecDeque;

use ix_mempool::{Mbuf, MbufPool, PoolStats, MBUF_DATA_SIZE};

/// A receive descriptor ring for one hardware queue.
///
/// `posted` counts empty descriptors the driver has handed to the NIC;
/// each arriving frame consumes one. Frames wait in FIFO order until the
/// dataplane polls them out. When no descriptor is posted the frame is
/// dropped (tail drop), which is what 82599 hardware does.
///
/// Each ring owns a receive-buffer pool: an accepted frame is DMA'd —
/// the one copy of the paper's one-copy-from-wire RX path — into a
/// pool-backed, headroom-carrying mbuf, and the sender's transmit buffer
/// is released immediately (a TX completion, as in hardware). The pool
/// mbuf then travels *uncopied* through the stack to the application and
/// returns here only when `recv_done` credits it, so receive-buffer
/// occupancy reflects real consumer backlog.
#[derive(Debug)]
pub struct RxRing {
    capacity: usize,
    posted: usize,
    frames: VecDeque<Mbuf>,
    pool: MbufPool,
    /// Tail-drop counter (no posted descriptor, or no receive buffer).
    pub drops: u64,
    /// The subset of `drops` caused by receive-pool exhaustion: the
    /// consumer is sitting on too many uncredited buffers.
    pub pool_drops: u64,
    /// Total frames accepted.
    pub received: u64,
    /// Deepest the ring has been since the last
    /// [`take_depth_hwm`](RxRing::take_depth_hwm) — the control plane's
    /// queue-depth signal. An instantaneous `pending()` sample aliases
    /// with batched run-to-completion draining (the ring is empty at
    /// most instants even under heavy load); the high-water mark sees
    /// every burst.
    depth_hwm: usize,
}

impl RxRing {
    /// Creates a ring with `capacity` descriptors, fully posted, backed
    /// by a receive pool of twice that many buffers (the default slack
    /// for consumer-held frames; [`RxRing::with_pool`] tunes it).
    pub fn new(capacity: usize) -> RxRing {
        RxRing::with_pool(capacity, capacity * 2)
    }

    /// Creates a ring with `capacity` descriptors and `pool_bufs`
    /// receive buffers (floored at `capacity` so a fully posted ring can
    /// always land). Buffer memory is provisioned lazily by the pool, as
    /// frames actually arrive.
    pub fn with_pool(capacity: usize, pool_bufs: usize) -> RxRing {
        RxRing {
            capacity,
            posted: capacity,
            frames: VecDeque::with_capacity(capacity),
            pool: MbufPool::new(pool_bufs.max(capacity)),
            drops: 0,
            pool_drops: 0,
            received: 0,
            depth_hwm: 0,
        }
    }

    /// Empty descriptors currently available to the NIC.
    pub fn posted(&self) -> usize {
        self.posted
    }

    /// Frames waiting to be polled.
    pub fn pending(&self) -> usize {
        self.frames.len()
    }

    /// Receive-buffer pool accounting (outstanding counts frames held
    /// anywhere between this ring and the application's `recv_done`).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Receive buffers whose storage the pool has materialized so far.
    pub fn pool_provisioned(&self) -> usize {
        self.pool.provisioned()
    }

    /// Hardware side: deposit an arriving frame. Returns `false` (and
    /// counts a drop) when no descriptor is posted or no receive buffer
    /// is free. On success the frame is copied once into a pool mbuf
    /// (the DMA write) and the sender's buffer is released.
    pub fn push(&mut self, frame: Mbuf) -> bool {
        if self.posted == 0 {
            self.drops += 1;
            return false;
        }
        let Some(mut buf) = self.pool.alloc() else {
            self.drops += 1;
            self.pool_drops += 1;
            return false;
        };
        // Default headroom leaves room for in-place reply prepends after
        // header pulls; an outsized frame forfeits headroom instead of
        // overflowing the tail.
        if frame.len() > buf.tailroom() {
            buf.set_headroom(MBUF_DATA_SIZE - frame.len());
        }
        buf.extend_from_slice(frame.data());
        self.posted -= 1;
        self.frames.push_back(buf);
        self.received += 1;
        self.depth_hwm = self.depth_hwm.max(self.frames.len());
        true
    }

    /// Driver side: poll one frame, consuming its descriptor. The
    /// descriptor stays unavailable until [`RxRing::replenish`].
    pub fn poll(&mut self) -> Option<Mbuf> {
        self.frames.pop_front()
    }

    /// Driver side: return `n` descriptors to the NIC (bounded by
    /// capacity). Returns how many were actually posted.
    pub fn replenish(&mut self, n: usize) -> usize {
        let room = self.capacity - self.posted - self.frames.len();
        let add = n.min(room);
        self.posted += add;
        add
    }

    /// Descriptors awaiting replenishment (consumed by polled frames).
    pub fn unreplenished(&self) -> usize {
        self.capacity - self.posted - self.frames.len()
    }

    /// Reads and resets the queue-depth high-water mark (floored at the
    /// standing backlog, which is still queued).
    pub fn take_depth_hwm(&mut self) -> usize {
        let hwm = self.depth_hwm.max(self.frames.len());
        self.depth_hwm = self.frames.len();
        hwm
    }
}

/// A transmit descriptor ring for one hardware queue.
///
/// The driver pushes filled frames; the NIC drains them at wire rate. A
/// full ring rejects the push — the dataplane treats that as transmit
/// back-pressure.
#[derive(Debug)]
pub struct TxRing {
    capacity: usize,
    pending: VecDeque<Mbuf>,
    /// Frames handed to the wire but whose descriptors are not yet
    /// reclaimed by the driver.
    unreclaimed: usize,
    /// Total frames transmitted.
    pub transmitted: u64,
    /// Pushes rejected because the ring was full.
    pub full_rejections: u64,
}

impl TxRing {
    /// Creates a ring with `capacity` descriptors.
    pub fn new(capacity: usize) -> TxRing {
        TxRing {
            capacity,
            pending: VecDeque::with_capacity(capacity),
            unreclaimed: 0,
            transmitted: 0,
            full_rejections: 0,
        }
    }

    /// Frames queued for the wire.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Free descriptors.
    pub fn free(&self) -> usize {
        self.capacity - self.pending.len() - self.unreclaimed
    }

    /// Driver side: enqueue a frame for transmission. Returns the frame
    /// back when the ring is full.
    pub fn push(&mut self, frame: Mbuf) -> Result<(), Mbuf> {
        if self.free() == 0 {
            self.full_rejections += 1;
            return Err(frame);
        }
        self.pending.push_back(frame);
        Ok(())
    }

    /// Hardware side: take the next frame for the wire. Its descriptor
    /// moves to the unreclaimed set until the driver collects it.
    pub fn take_for_wire(&mut self) -> Option<Mbuf> {
        let f = self.pending.pop_front()?;
        self.unreclaimed += 1;
        self.transmitted += 1;
        Some(f)
    }

    /// Driver side: reclaim completed descriptors ("based on the transmit
    /// ring's head position", Fig 1b step 6). Returns how many were
    /// reclaimed.
    pub fn reclaim(&mut self) -> usize {
        let n = self.unreclaimed;
        self.unreclaimed = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Mbuf {
        let mut m = Mbuf::standalone();
        m.extend_from_slice(b"frame");
        m
    }

    #[test]
    fn rx_posting_discipline() {
        let mut r = RxRing::new(2);
        assert_eq!(r.posted(), 2);
        assert!(r.push(frame()));
        assert!(r.push(frame()));
        // No descriptors left: tail drop.
        assert!(!r.push(frame()));
        assert_eq!(r.drops, 1);
        assert_eq!(r.pending(), 2);
        // Polling does not free descriptors by itself.
        let _f = r.poll().unwrap();
        assert_eq!(r.posted(), 0);
        assert_eq!(r.unreplenished(), 1);
        assert_eq!(r.replenish(8), 1);
        assert_eq!(r.posted(), 1);
        assert!(r.push(frame()));
    }

    #[test]
    fn rx_fifo_order() {
        let mut r = RxRing::new(4);
        for i in 0..3u8 {
            let mut m = Mbuf::standalone();
            m.extend_from_slice(&[i]);
            r.push(m);
        }
        for i in 0..3u8 {
            assert_eq!(r.poll().unwrap().data(), &[i]);
        }
        assert!(r.poll().is_none());
    }

    #[test]
    fn rx_push_dmas_into_pool_buffer_and_frees_sender_frame() {
        let mut r = RxRing::with_pool(4, 4);
        assert!(r.push(frame()));
        assert_eq!(r.pool_stats().outstanding, 1);
        let m = r.poll().unwrap();
        assert_eq!(m.data(), b"frame");
        // The polled mbuf carries fresh headroom (for in-place reply
        // prepends after header pulls), not the sender's layout.
        assert!(m.headroom() > 0);
        drop(m);
        assert_eq!(r.pool_stats().outstanding, 0, "dropping the mbuf recycles it");
    }

    #[test]
    fn rx_pool_exhaustion_counts_pool_drop() {
        let mut r = RxRing::with_pool(2, 2);
        r.push(frame());
        r.push(frame());
        let _a = r.poll().unwrap();
        let _b = r.poll().unwrap();
        r.replenish(2);
        // Descriptors are posted, but both receive buffers are still
        // held by the consumer.
        assert!(!r.push(frame()));
        assert_eq!(r.pool_drops, 1);
        assert_eq!(r.drops, 1);
    }

    #[test]
    fn tx_capacity_and_backpressure() {
        let mut t = TxRing::new(2);
        t.push(frame()).unwrap();
        t.push(frame()).unwrap();
        assert!(t.push(frame()).is_err());
        assert_eq!(t.full_rejections, 1);
        // Wire drains one; descriptor still unreclaimed -> still full.
        assert!(t.take_for_wire().is_some());
        assert!(t.push(frame()).is_err());
        assert_eq!(t.reclaim(), 1);
        assert!(t.push(frame()).is_ok());
        assert_eq!(t.transmitted, 1);
    }

    #[test]
    fn tx_wire_order() {
        let mut t = TxRing::new(8);
        for i in 0..4u8 {
            let mut m = Mbuf::standalone();
            m.extend_from_slice(&[i]);
            t.push(m).unwrap();
        }
        for i in 0..4u8 {
            assert_eq!(t.take_for_wire().unwrap().data(), &[i]);
        }
        assert!(t.take_for_wire().is_none());
        assert_eq!(t.reclaim(), 4);
        assert_eq!(t.free(), 8);
    }
}
