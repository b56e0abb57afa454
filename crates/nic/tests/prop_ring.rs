//! Property tests (ix-testkit harness) for the descriptor rings: under
//! arbitrary hardware/driver op interleavings the rings stay FIFO with
//! respect to a `VecDeque` reference model and the descriptor accounting
//! identities from the 82599 model hold at every step.

use std::collections::VecDeque;

use ix_mempool::Mbuf;
use ix_nic::ring::{RxRing, TxRing};
use ix_testkit::prelude::*;

/// One step of a ring exercise program. Raw counts are interpreted
/// modulo nothing — the rings themselves must handle overload (tail
/// drop, full rejection) correctly.
#[derive(Debug, Clone)]
enum RingOp {
    /// Hardware deposits a frame (Rx) / driver enqueues one (Tx).
    Push,
    /// Driver polls a frame (Rx) / hardware takes one for the wire (Tx).
    Pop,
    /// Driver returns up to `n` descriptors (Rx replenish; Tx reclaim
    /// ignores the count and collects everything).
    Recycle(usize),
}

fn ring_op() -> impl Strategy<Value = RingOp> {
    prop_oneof![
        (0usize..1).prop_map(|_| RingOp::Push),
        (0usize..1).prop_map(|_| RingOp::Pop),
        (1usize..8).prop_map(RingOp::Recycle),
    ]
}

/// A frame whose payload is a unique tag, so FIFO order is observable.
fn tagged(tag: u32) -> Mbuf {
    let mut m = Mbuf::standalone();
    m.extend_from_slice(&tag.to_le_bytes());
    m
}

fn tag_of(m: &Mbuf) -> u32 {
    u32::from_le_bytes(m.data().try_into().expect("4-byte tag"))
}

props! {
    #![config(cases = 256)]

    /// RX ring vs reference: frames come out in arrival order, drops
    /// happen exactly when no descriptor is posted, and
    /// `posted + pending + unreplenished == capacity` always holds.
    #[test]
    fn rx_ring_matches_reference(
        capacity in 1usize..32,
        ops in collection::vec(ring_op(), 0..200),
    ) {
        let mut ring = RxRing::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next_tag = 0u32;
        let mut model_drops = 0u64;
        let mut model_received = 0u64;
        for op in ops {
            match op {
                RingOp::Push => {
                    let had_descriptor = ring.posted() > 0;
                    let accepted = ring.push(tagged(next_tag));
                    prop_assert_eq!(accepted, had_descriptor, "drop discipline broken");
                    if accepted {
                        model.push_back(next_tag);
                        model_received += 1;
                    } else {
                        model_drops += 1;
                    }
                    next_tag += 1;
                }
                RingOp::Pop => {
                    let got = ring.poll().map(|m| tag_of(&m));
                    prop_assert_eq!(got, model.pop_front(), "FIFO order broken");
                }
                RingOp::Recycle(n) => {
                    let added = ring.replenish(n);
                    prop_assert!(added <= n);
                }
            }
            prop_assert_eq!(ring.pending(), model.len());
            prop_assert_eq!(
                ring.posted() + ring.pending() + ring.unreplenished(),
                capacity,
                "descriptor accounting drifted"
            );
        }
        prop_assert_eq!(ring.drops, model_drops);
        prop_assert_eq!(ring.received, model_received);
    }

    /// TX ring vs reference: wire order equals push order, pushes are
    /// rejected exactly when `free() == 0`, and
    /// `free + pending + unreclaimed == capacity` always holds (with
    /// unreclaimed inferred from the identity before reclaim).
    #[test]
    fn tx_ring_matches_reference(
        capacity in 1usize..32,
        ops in collection::vec(ring_op(), 0..200),
    ) {
        let mut ring = TxRing::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut model_unreclaimed = 0usize;
        let mut next_tag = 0u32;
        let mut model_transmitted = 0u64;
        let mut model_rejections = 0u64;
        for op in ops {
            match op {
                RingOp::Push => {
                    let want_accept = model.len() + model_unreclaimed < capacity;
                    match ring.push(tagged(next_tag)) {
                        Ok(()) => {
                            prop_assert!(want_accept, "push accepted on a full ring");
                            model.push_back(next_tag);
                        }
                        Err(back) => {
                            prop_assert!(!want_accept, "push rejected with free slots");
                            prop_assert_eq!(tag_of(&back), next_tag, "rejected wrong frame");
                            model_rejections += 1;
                        }
                    }
                    next_tag += 1;
                }
                RingOp::Pop => {
                    let got = ring.take_for_wire().map(|m| tag_of(&m));
                    let want = model.pop_front();
                    prop_assert_eq!(got, want, "wire order broken");
                    if want.is_some() {
                        model_unreclaimed += 1;
                        model_transmitted += 1;
                    }
                }
                RingOp::Recycle(_) => {
                    prop_assert_eq!(ring.reclaim(), model_unreclaimed);
                    model_unreclaimed = 0;
                }
            }
            prop_assert_eq!(ring.pending(), model.len());
            prop_assert_eq!(
                ring.free() + ring.pending() + model_unreclaimed,
                capacity,
                "descriptor accounting drifted"
            );
        }
        prop_assert_eq!(ring.transmitted, model_transmitted);
        prop_assert_eq!(ring.full_rejections, model_rejections);
    }
}
