//! Property tests (ix-testkit harness) for the memory manager: the pool
//! never over-allocates, recycling is exact, storage is provisioned no
//! further than demand plus one block, and mbuf headroom/tailroom
//! arithmetic matches a byte-level reference model under arbitrary
//! prepend/append/pull/truncate programs.

use ix_mempool::{
    Mbuf, MbufPool, ObjectPool, MBUF_DATA_SIZE, MBUF_DEFAULT_HEADROOM, PROVISION_BLOCK,
};
use ix_testkit::prelude::*;

/// One step of an mbuf manipulation program. Sizes are raw draws; the
/// interpreter clamps them against the current head/tail room so every
/// program is valid (panics stay covered by unit tests).
#[derive(Debug, Clone)]
enum MbufOp {
    Extend(usize),
    Prepend(usize),
    Append(usize),
    Pull(usize),
    Truncate(usize),
}

fn mbuf_op() -> impl Strategy<Value = MbufOp> {
    prop_oneof![
        (0usize..600).prop_map(MbufOp::Extend),
        (0usize..80).prop_map(MbufOp::Prepend),
        (0usize..600).prop_map(MbufOp::Append),
        (0usize..600).prop_map(MbufOp::Pull),
        (0usize..2048).prop_map(MbufOp::Truncate),
    ]
}

props! {
    #![config(cases = 256)]

    /// The mbuf agrees with a plain `Vec<u8>` model of its data under
    /// arbitrary op programs, and headroom+len+tailroom always equals
    /// the fixed storage size.
    #[test]
    fn mbuf_matches_reference_model(
        ops in collection::vec(mbuf_op(), 0..60),
        fill in any::<u8>(),
    ) {
        let mut m = Mbuf::standalone();
        let mut model: Vec<u8> = Vec::new();
        let mut next = fill;
        for op in ops {
            match op {
                MbufOp::Extend(n) => {
                    let n = n.min(m.tailroom());
                    let chunk: Vec<u8> = (0..n)
                        .map(|_| {
                            next = next.wrapping_add(1);
                            next
                        })
                        .collect();
                    m.extend_from_slice(&chunk);
                    model.extend_from_slice(&chunk);
                }
                MbufOp::Prepend(n) => {
                    let n = n.min(m.headroom());
                    let slot = m.prepend(n);
                    for b in slot.iter_mut() {
                        next = next.wrapping_add(1);
                        *b = next;
                    }
                    let mut front = m.data()[..n].to_vec();
                    front.extend_from_slice(&model);
                    model = front;
                }
                MbufOp::Append(n) => {
                    let n = n.min(m.tailroom());
                    let slot = m.append(n);
                    for b in slot.iter_mut() {
                        next = next.wrapping_add(1);
                        *b = next;
                    }
                    let start = model.len();
                    model.extend_from_slice(&m.data()[start..start + n]);
                }
                MbufOp::Pull(n) => {
                    let n = n.min(m.len());
                    m.pull(n);
                    model.drain(..n);
                }
                MbufOp::Truncate(n) => {
                    if n <= m.len() {
                        m.truncate(n);
                        model.truncate(n);
                    }
                }
            }
            prop_assert_eq!(m.data(), &model[..]);
            prop_assert_eq!(m.len(), model.len());
            prop_assert_eq!(
                m.headroom() + m.len() + m.tailroom(),
                MBUF_DATA_SIZE,
                "storage accounting drifted"
            );
        }
    }

    /// Pool accounting under arbitrary alloc/free interleavings: never
    /// more than `capacity` mbufs outstanding, every free is recycled,
    /// and a drained pool refuses cleanly instead of growing.
    #[test]
    fn pool_alloc_free_accounting(
        capacity in 1usize..48,
        program in collection::vec(any::<bool>(), 1..200),
    ) {
        let mut pool = MbufPool::new(capacity);
        let mut held: Vec<Mbuf> = Vec::new();
        for alloc in program {
            if alloc {
                match pool.alloc() {
                    Some(m) => {
                        prop_assert!(held.len() < capacity, "over-allocated");
                        held.push(m);
                    }
                    None => prop_assert_eq!(held.len(), capacity, "refused early"),
                }
            } else if let Some(m) = held.pop() {
                drop(m); // Returns to the pool's free list.
            }
            prop_assert_eq!(pool.available(), capacity - held.len());
        }
        // Dropping everything restores full capacity.
        held.clear();
        prop_assert_eq!(pool.available(), capacity);
        let stats = pool.stats();
        prop_assert_eq!(stats.allocs, stats.frees, "every alloc returned");
        prop_assert_eq!(stats.outstanding, 0);
    }

    /// Demand-sized provisioning under alloc / free / free-while-viewed /
    /// release-view programs over pools of one to four blocks. A buffer
    /// whose mbuf was dropped while a `Bytes` view still reads it is
    /// unavailable until the view goes, so the pool refuses exactly when
    /// held + viewed buffers reach capacity; storage materialized never
    /// exceeds the demand high-water mark by a whole block, nor the
    /// capacity; and mbufs and views that outlive the pool stay valid.
    #[test]
    fn provisioning_follows_demand(
        capacity in 1usize..(4 * PROVISION_BLOCK),
        program in collection::vec((0u8..8, any::<u8>()), 1..400),
    ) {
        let mut pool = MbufPool::new(capacity);
        let mut held: Vec<Mbuf> = Vec::new();
        let mut views: Vec<(Bytes, u8)> = Vec::new();
        let mut peak = 0;
        for (op, byte) in program {
            match op {
                // Allocation is the common op, so pools fill up.
                0..=3 => match pool.alloc_with(&[byte]) {
                    Some(m) => {
                        prop_assert!(held.len() + views.len() < capacity, "over-allocated");
                        held.push(m);
                    }
                    None => prop_assert_eq!(held.len() + views.len(), capacity, "refused early"),
                },
                4 | 5 => {
                    if !held.is_empty() {
                        drop(held.swap_remove(byte as usize % held.len()));
                    }
                }
                6 => {
                    if !held.is_empty() {
                        let m = held.swap_remove(byte as usize % held.len());
                        views.push((m.as_bytes(), m.data()[0]));
                    }
                }
                _ => {
                    if !views.is_empty() {
                        views.swap_remove(byte as usize % views.len());
                    }
                }
            }
            peak = peak.max(held.len() + views.len());
            prop_assert_eq!(pool.stats().outstanding as usize, held.len());
            prop_assert!(pool.provisioned() >= held.len() + views.len());
            prop_assert!(pool.provisioned() <= capacity);
            prop_assert!(
                pool.provisioned() < peak + PROVISION_BLOCK,
                "provisioned {} for a demand peak of {peak}",
                pool.provisioned()
            );
            // A live view is never scribbled over by a later allocation.
            for (v, first) in &views {
                prop_assert_eq!(v[0], *first);
            }
        }
        // Orphans: the pool goes first, its buffers and views after.
        drop(pool);
        for (v, first) in &views {
            prop_assert_eq!(v[0], *first);
        }
        drop(held);
        drop(views);
    }

    /// A fresh allocation always starts with the default headroom and no
    /// data, and `alloc_with` copies exactly the given bytes.
    #[test]
    fn alloc_with_copies_exactly(payload in collection::vec(any::<u8>(), 0..256)) {
        let mut pool = MbufPool::new(4);
        let plain = pool.alloc().expect("capacity");
        prop_assert_eq!(plain.len(), 0);
        prop_assert_eq!(plain.headroom(), MBUF_DEFAULT_HEADROOM);
        drop(plain);
        let filled = pool.alloc_with(&payload).expect("capacity");
        prop_assert_eq!(filled.data(), &payload[..]);
    }

    /// `ObjectPool` take/put round-trips objects and tracks outstanding
    /// counts exactly.
    #[test]
    fn object_pool_accounting(
        capacity in 1usize..32,
        takes in 0usize..64,
    ) {
        let mut pool: ObjectPool<Vec<u8>> = ObjectPool::new(capacity, Vec::new);
        let mut held = Vec::new();
        for _ in 0..takes {
            match pool.take() {
                Some(v) => held.push(v),
                None => break,
            }
        }
        prop_assert_eq!(held.len(), takes.min(capacity));
        prop_assert_eq!(pool.outstanding(), held.len());
        let n = held.len();
        for v in held.drain(..) {
            pool.put(v);
        }
        prop_assert_eq!(pool.outstanding(), 0);
        let _ = n;
    }
}
