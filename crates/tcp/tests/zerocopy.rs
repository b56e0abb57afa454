//! Zero-copy TX regression tests: the paper's headline API property
//! (§3, §4.3 — zero-copy `sendv` with shared, immutable payload buffers)
//! enforced by counters and by `Arc` identity.
//!
//! The invariants pinned here:
//! - emitting a data segment on the fast path (warm ARP) writes payload
//!   exactly **once** (into the tail of its pool mbuf) and allocates
//!   **zero** transient heap buffers — down from four writes and three
//!   staging allocations in the old Vec-chain pipeline;
//! - `send_bytes` materializes no storage block of its own: the
//!   retransmit queue slices the caller's block;
//! - retransmission re-serializes from the *same* storage block (no
//!   payload copy), and reaping an ACKed segment releases the last
//!   stack-held reference.

pub mod common;

use common::{establish, events, Pair};
use ix_tcp::{AckPolicy, StackConfig, TcpEvent};
use ix_testkit::prelude::*;
use ix_testkit::Bytes;

/// The headline regression: per data segment on the warm-ARP fast path,
/// exactly one pool mbuf allocation and one payload write; zero transient
/// heap buffers. Enforced against both the `StackStats` counters and the
/// pool's own alloc accounting, so the counters can't drift from reality.
#[test]
fn data_segment_costs_one_write_one_alloc() {
    let mut p = Pair::new(StackConfig::default());
    let (c, _s) = establish(&mut p, 80);

    let stats0 = p.a.stats;
    let pool0 = p.a.pool_stats();

    // 4 full MSS segments plus a runt — five wire segments.
    let mss = 1460usize;
    let data = Bytes::from(vec![0x5Au8; 4 * mss + 100]);
    let n = p.a.send_bytes(p.now, c, &data).unwrap();
    assert_eq!(n, data.len(), "window must accept the whole burst");
    let segs = data.len().div_ceil(mss) as u64;

    let stats1 = p.a.stats;
    let pool1 = p.a.pool_stats();
    assert_eq!(
        stats1.tx_payload_writes - stats0.tx_payload_writes,
        segs,
        "each data segment must write payload exactly once (into its mbuf)"
    );
    assert_eq!(
        stats1.tx_transient_allocs - stats0.tx_transient_allocs,
        0,
        "the fast path must not allocate staging buffers"
    );
    assert_eq!(
        pool1.allocs - pool0.allocs,
        segs,
        "exactly one pool mbuf per emitted segment"
    );

    // The transfer still completes correctly.
    p.pump(1_000, 64);
    let got: usize = events(&mut p.b)
        .into_iter()
        .filter_map(|e| match e {
            TcpEvent::Recv { payload, .. } => Some(payload.len()),
            _ => None,
        })
        .sum();
    assert_eq!(got, data.len());
}

/// `send_bytes` is zero-copy end to end: every retransmit-queue entry
/// aliases the caller's own storage block.
#[test]
fn send_bytes_shares_the_callers_block() {
    let mut p = Pair::new(StackConfig::default());
    let (c, _s) = establish(&mut p, 80);

    let block = Bytes::from(vec![0xC3u8; 3 * 1460]);
    let n = p.a.send_bytes(p.now, c, &block).unwrap();
    assert_eq!(n, block.len());

    let rtq = p.a.rtq_payloads(c);
    assert_eq!(rtq.len(), 3);
    for seg in &rtq {
        assert!(
            seg.ptr_eq(&block),
            "rtq entry must alias the caller's storage, not copy it"
        );
    }
    drop(rtq);
    // Caller + 3 rtq slices — nothing else holds the payload.
    assert_eq!(block.ref_count(), 4);
}

/// Retransmission is a header rebuild plus a shared-payload reference —
/// no transient buffer, same backing block — and reaping the ACK
/// releases the stack's last reference to the storage.
#[test]
fn retransmit_shares_storage_and_reap_releases_it() {
    let mut cfg = StackConfig::low_latency();
    cfg.ack_policy = AckPolicy::Immediate;
    let mut p = Pair::new(cfg);
    let (c, _s) = establish(&mut p, 80);

    let block = Bytes::from(vec![0x7Eu8; 500]);
    // Black-hole the wire: the data segment (and nothing else) is lost.
    p.keep = Box::new(|_| false);
    p.a.send_bytes(p.now, c, &block).unwrap();
    let transient0 = p.a.stats.tx_transient_allocs;

    // Let the 1 ms RTO fire a few times into the black hole.
    p.run_for(100_000, 5_000_000);
    assert!(p.a.stats.retransmits >= 1, "RTO must have fired");
    assert_eq!(
        p.a.stats.tx_transient_allocs, transient0,
        "retransmits must not allocate staging buffers"
    );
    let rtq = p.a.rtq_payloads(c);
    assert_eq!(rtq.len(), 1, "segment still unacknowledged");
    assert!(
        rtq[0].ptr_eq(&block),
        "retransmitted segment must still alias the original storage"
    );
    drop(rtq);

    // Heal the wire; the retransmit goes through and the ACK reaps it.
    p.keep = Box::new(|_| true);
    p.run_for(100_000, 20_000_000);
    assert!(p.a.rtq_payloads(c).is_empty(), "ACK must reap the rtq");
    assert_eq!(
        block.ref_count(),
        1,
        "reaping must release the stack's references to the block"
    );
}

props! {
    #![config(cases = 256)]

    /// Sharing holds for arbitrary send sizes: all segments of one
    /// `send_bytes` call alias one block, slices tile the accepted
    /// prefix exactly, and the stack holds one reference per segment.
    #[test]
    fn rtq_slices_tile_one_shared_block(len in 1usize..20_000) {
        let mut p = Pair::new(StackConfig::default());
        let (c, _s) = establish(&mut p, 80);
        let payload: Vec<u8> =
            (0..len).map(|i| (i as u32).wrapping_mul(2654435761).to_le_bytes()[1]).collect();
        let block = Bytes::from(payload);
        let accepted = p.a.send_bytes(p.now, c, &block).unwrap();
        prop_assert!(accepted <= len);
        let rtq = p.a.rtq_payloads(c);
        let mut tiled = 0usize;
        for seg in &rtq {
            prop_assert!(seg.ptr_eq(&block));
            prop_assert_eq!(&seg[..], &block[tiled..tiled + seg.len()]);
            tiled += seg.len();
        }
        prop_assert_eq!(tiled, accepted);
        drop(rtq);
        prop_assert_eq!(block.ref_count(), 1 + p.a.rtq_payloads(c).len());
    }
}
