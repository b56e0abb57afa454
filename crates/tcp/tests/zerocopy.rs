//! Zero-copy TX regression tests: the paper's headline API property
//! (§3, §4.3 — zero-copy `sendv` with shared, immutable payload buffers)
//! enforced by counters and by `Arc` identity.
//!
//! The invariants pinned here:
//! - emitting a data segment on the fast path (warm ARP) writes payload
//!   exactly **once** (into the tail of its pool mbuf) and allocates
//!   **zero** transient heap buffers — down from four writes and three
//!   staging allocations in the old Vec-chain pipeline;
//! - `send` materializes exactly one refcounted storage block per call,
//!   and `send_bytes` materializes none (the retransmit queue slices the
//!   caller's own block);
//! - retransmission re-serializes from the *same* storage block (no
//!   payload copy), and reaping an ACKed segment releases the last
//!   stack-held reference.

use ix_net::eth::MacAddr;
use ix_net::ip::Ipv4Addr;
use ix_tcp::{AckPolicy, FlowId, StackConfig, TcpEvent, TcpShard};
use ix_testkit::prelude::*;
use ix_testkit::Bytes;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn mac(i: u16) -> MacAddr {
    MacAddr::from_host_index(i)
}

/// Minimal two-shard wire (the `protocol.rs` Pair, without mangling).
struct Pair {
    a: TcpShard,
    b: TcpShard,
    now: u64,
    /// When false, frames are dropped instead of delivered (loss).
    deliver: bool,
}

impl Pair {
    fn new(cfg: StackConfig) -> Pair {
        let mut a = TcpShard::new(cfg.clone(), A_IP, mac(1));
        let mut b = TcpShard::new(cfg, B_IP, mac(2));
        a.arp_seed(B_IP, mac(2));
        b.arp_seed(A_IP, mac(1));
        Pair { a, b, now: 0, deliver: true }
    }

    fn pump(&mut self, step_ns: u64, max_rounds: usize) {
        for _ in 0..max_rounds {
            self.now += step_ns;
            let from_a = self.a.take_tx();
            let from_b = self.b.take_tx();
            let idle = from_a.is_empty() && from_b.is_empty();
            for f in from_a {
                if self.deliver {
                    self.b.input(self.now, f);
                }
            }
            for f in from_b {
                if self.deliver {
                    self.a.input(self.now, f);
                }
            }
            self.a.end_cycle(self.now);
            self.b.end_cycle(self.now);
            self.a.advance_timers(self.now);
            self.b.advance_timers(self.now);
            if idle && self.a.tx_len() == 0 && self.b.tx_len() == 0 {
                break;
            }
        }
    }

    fn run_for(&mut self, step_ns: u64, dur_ns: u64) {
        let end = self.now + dur_ns;
        while self.now < end {
            self.pump(step_ns, 1);
        }
    }
}

fn establish(p: &mut Pair, port: u16) -> (FlowId, FlowId) {
    p.b.listen(port);
    let cf = p.a.connect(p.now, B_IP, port, 0xA).expect("connect");
    p.pump(1_000, 32);
    for e in p.a.take_events() {
        if let TcpEvent::Connected { ok, .. } = e {
            assert!(ok, "handshake failed");
        }
    }
    let mut server_flow = None;
    for e in p.b.take_events() {
        if let TcpEvent::Knock { flow, .. } = e {
            p.b.accept(flow, 0xB).unwrap();
            server_flow = Some(flow);
        }
    }
    (cf, server_flow.expect("knock event"))
}

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
    let data = vec![0x5Au8; 4 * mss + 100];
    let n = p.a.send(p.now, c, &data).unwrap();
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
        stats1.tx_rtq_blocks - stats0.tx_rtq_blocks,
        1,
        "one shared storage block per send() call"
    );
    assert_eq!(
        pool1.allocs - pool0.allocs,
        segs,
        "exactly one pool mbuf per emitted segment"
    );

    // The transfer still completes correctly.
    p.pump(1_000, 64);
    let got: usize = p
        .b
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            TcpEvent::Recv { payload, .. } => Some(payload.len()),
            _ => None,
        })
        .sum();
    assert_eq!(got, data.len());
}

/// `send_bytes` is zero-copy end to end: every retransmit-queue entry
/// aliases the caller's own storage block, and no owned block is
/// materialized by the stack.
#[test]
fn send_bytes_shares_the_callers_block() {
    let mut p = Pair::new(StackConfig::default());
    let (c, _s) = establish(&mut p, 80);

    let block = Bytes::from(vec![0xC3u8; 3 * 1460]);
    let stats0 = p.a.stats;
    let n = p.a.send_bytes(p.now, c, &block).unwrap();
    assert_eq!(n, block.len());

    assert_eq!(
        p.a.stats.tx_rtq_blocks - stats0.tx_rtq_blocks,
        0,
        "send_bytes must not materialize an owned block"
    );
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
    p.deliver = false;
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
    p.deliver = true;
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
