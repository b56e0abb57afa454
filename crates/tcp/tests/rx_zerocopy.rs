//! Zero-copy RX regression tests: the receive-side mirror of
//! `zerocopy.rs`, pinning the paper's Table 1 `recv`/`recv_done`
//! contract — "message buffers are passed to the application read-only,
//! and returned with `recv_done`, which also replenishes the receive
//! window."
//!
//! The invariants pinned here:
//! - an in-order payload is delivered as a `Bytes` view of the very
//!   buffer the frame arrived in — `rx_payload_copies` stays **zero**
//!   and `Bytes::ptr_eq` proves storage identity end to end, including
//!   through a pool-backed `RxRing` (the DMA copy is the only copy);
//! - a reordered segment is buffered *as the mbuf itself* and later
//!   drained by moving that same mbuf into the held queue —
//!   `rx_ooo_copies` stays **zero** and the drained view still aliases
//!   the original frame storage;
//! - `rx_pool_outstanding` counts exactly the buffers the stack retains
//!   for the app, and `recv_done` credit releases them front-to-back:
//!   partial credit holds the buffer, full credit frees it.

use ix_net::eth::MacAddr;
use ix_net::ip::Ipv4Addr;
use ix_nic::ring::RxRing;
use ix_tcp::{FlowId, StackConfig, TcpEvent, TcpShard};
use ix_testkit::prelude::*;
use ix_testkit::Bytes;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn mac(i: u16) -> MacAddr {
    MacAddr::from_host_index(i)
}

/// Minimal two-shard wire (the `zerocopy.rs` Pair).
struct Pair {
    a: TcpShard,
    b: TcpShard,
    now: u64,
}

impl Pair {
    fn new(cfg: StackConfig) -> Pair {
        let mut a = TcpShard::new(cfg.clone(), A_IP, mac(1));
        let mut b = TcpShard::new(cfg, B_IP, mac(2));
        a.arp_seed(B_IP, mac(2));
        b.arp_seed(A_IP, mac(1));
        Pair { a, b, now: 0 }
    }

    fn pump(&mut self, step_ns: u64, max_rounds: usize) {
        for _ in 0..max_rounds {
            self.now += step_ns;
            let from_a = self.a.take_tx();
            let from_b = self.b.take_tx();
            let idle = from_a.is_empty() && from_b.is_empty();
            for f in from_a {
                self.b.input(self.now, f);
            }
            for f in from_b {
                self.a.input(self.now, f);
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

/// Pulls the `Recv` payloads out of an event batch, in order.
fn recv_payloads(events: Vec<TcpEvent>) -> Vec<Bytes> {
    events
        .into_iter()
        .filter_map(|e| match e {
            TcpEvent::Recv { payload, .. } => Some(payload),
            _ => None,
        })
        .collect()
}

/// The headline regression: an in-order burst is delivered with zero
/// payload copies, each event view aliasing the storage of the frame
/// that carried it, and the stack retaining exactly one pool buffer per
/// segment until `recv_done` credits it back.
#[test]
fn in_order_recv_is_zero_copy_and_aliases_the_frame() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);
    let stats0 = p.b.stats;

    // 3 full MSS segments plus a runt — four wire segments.
    let mss = 1460usize;
    let data: Vec<u8> = (0..3 * mss + 77).map(|i| (i % 251) as u8).collect();
    let n = p.a.send(p.now, c, &data).unwrap();
    assert_eq!(n, data.len());

    // Deliver by hand so each frame's storage can be captured first.
    p.now += 1_000;
    let mut frame_views = Vec::new();
    for f in p.a.take_tx() {
        frame_views.push(f.as_bytes());
        p.b.input(p.now, f);
    }
    p.b.end_cycle(p.now);
    assert_eq!(frame_views.len(), 4, "four data segments on the wire");

    let payloads = recv_payloads(p.b.take_events());
    assert_eq!(payloads.len(), 4, "one Recv per segment");
    let mut reassembled = Vec::new();
    for (view, frame) in payloads.iter().zip(&frame_views) {
        assert!(
            view.ptr_eq(frame),
            "delivered view must alias the arriving frame's storage"
        );
        reassembled.extend_from_slice(view);
    }
    assert_eq!(reassembled, data, "payload bytes intact");

    let d = p.b.stats;
    assert_eq!(
        d.rx_payload_copies - stats0.rx_payload_copies,
        0,
        "in-order delivery must not copy payload"
    );
    assert_eq!(d.rx_ooo_copies - stats0.rx_ooo_copies, 0);
    assert_eq!(
        d.rx_pool_outstanding, 4,
        "stack retains one buffer per undelivered-credit segment"
    );

    // The held queue is the same storage the app sees, and while held,
    // each block has exactly three aliases: our captured frame view, the
    // app's event payload, and the stack's retained mbuf.
    let held = p.b.rx_held_payloads(s);
    assert_eq!(held.len(), 4);
    for (h, v) in held.iter().zip(&payloads) {
        assert!(h.ptr_eq(v), "held mbuf and app view share storage");
    }
    drop(held);
    for f in &frame_views {
        assert_eq!(f.ref_count(), 3, "frame view + app view + stack hold");
    }

    // Full credit releases every buffer.
    p.b.recv_done(p.now, s, data.len() as u32).unwrap();
    assert_eq!(p.b.stats.rx_pool_outstanding, 0);
    assert!(p.b.rx_held_payloads(s).is_empty());

    // Once the app drops its views, the stack's hold is gone: the only
    // references left are our captured handle and the pool's
    // deferred-recycle slot (aliased storage parks there until the next
    // allocation sweep — it cannot re-enter circulation while a view is
    // live).
    drop(payloads);
    for f in &frame_views {
        assert_eq!(f.ref_count(), 2, "recv_done released the stack's hold");
    }
}

/// Identity through the NIC: a frame DMA'd into a pool-backed `RxRing`
/// is copied exactly once (into the ring's receive buffer); the app's
/// `Recv` view aliases *that* buffer — the wire-side storage is gone and
/// no second copy happens anywhere in the stack.
#[test]
fn ring_buffer_is_the_buffer_the_app_sees() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);

    let data = vec![0xABu8; 700];
    p.a.send(p.now, c, &data).unwrap();

    let mut ring = RxRing::with_pool(8, 16);
    ring.replenish(8);
    p.now += 1_000;
    let mut ring_views = Vec::new();
    for f in p.a.take_tx() {
        assert!(ring.push(f), "descriptor posted, buffer free");
        let m = ring.poll().expect("pushed frame polls back");
        ring_views.push(m.as_bytes());
        p.b.input(p.now, m);
    }
    p.b.end_cycle(p.now);
    assert_eq!(ring_views.len(), 1);

    let payloads = recv_payloads(p.b.take_events());
    assert_eq!(payloads.len(), 1);
    assert!(
        payloads[0].ptr_eq(&ring_views[0]),
        "app view must alias the ring's DMA buffer"
    );
    assert_eq!(&payloads[0][..], &data[..]);
    assert_eq!(p.b.stats.rx_payload_copies, 0);

    // The ring buffer returns to its pool only after recv_done and the
    // app dropping its view.
    assert_eq!(ring.pool_stats().outstanding, 1);
    p.b.recv_done(p.now, s, data.len() as u32).unwrap();
    drop(payloads);
    drop(ring_views);
    // Deferred recycle completes on the pool's next alloc cycle.
    let m = ring.pool_stats();
    assert_eq!(m.allocs, 1);
}

/// A reordered segment is buffered as the arriving mbuf itself and
/// drained by *moving* it — `rx_ooo_copies` pinned at zero, the drained
/// view still aliasing the original frame storage.
#[test]
fn reordered_segment_is_buffered_not_copied() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);

    let d1 = vec![0x11u8; 400];
    let d2 = vec![0x22u8; 300];
    p.a.send(p.now, c, &d1).unwrap();
    let f1: Vec<_> = p.a.take_tx().into_iter().collect();
    p.a.send(p.now, c, &d2).unwrap();
    let f2: Vec<_> = p.a.take_tx().into_iter().collect();
    assert_eq!((f1.len(), f2.len()), (1, 1));

    // Deliver the second segment first: out of order, buffered whole.
    p.now += 1_000;
    let f2_view = f2[0].as_bytes();
    for f in f2 {
        p.b.input(p.now, f);
    }
    p.b.end_cycle(p.now);
    assert!(recv_payloads(p.b.take_events()).is_empty(), "no in-order data yet");
    assert_eq!(p.b.stats.rx_pool_outstanding, 1, "ooo mbuf retained");
    assert_eq!(p.b.stats.rx_ooo_copies, 0);

    // Now the gap-filler: both deliver, in order, and the drained d2
    // view is the very storage that arrived out of order.
    for f in f1 {
        p.b.input(p.now, f);
    }
    p.b.end_cycle(p.now);
    let payloads = recv_payloads(p.b.take_events());
    assert_eq!(payloads.len(), 2);
    assert_eq!(&payloads[0][..], &d1[..]);
    assert_eq!(&payloads[1][..], &d2[..]);
    assert!(
        payloads[1].ptr_eq(&f2_view),
        "drain must move the buffered mbuf, not copy it"
    );
    assert_eq!(p.b.stats.rx_ooo_copies, 0, "no copy on drain");
    assert_eq!(p.b.stats.rx_payload_copies, 0);
    assert_eq!(p.b.stats.rx_pool_outstanding, 2);

    p.b.recv_done(p.now, s, (d1.len() + d2.len()) as u32).unwrap();
    assert_eq!(p.b.stats.rx_pool_outstanding, 0);
}

/// `recv_done` credit releases buffers front-to-back at mbuf
/// granularity: credit smaller than the front buffer keeps it held;
/// completing the buffer releases exactly it.
#[test]
fn partial_credit_holds_the_front_buffer() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);

    let d1 = vec![0x33u8; 500];
    let d2 = vec![0x44u8; 200];
    p.a.send(p.now, c, &d1).unwrap();
    p.pump(1_000, 4);
    p.a.send(p.now, c, &d2).unwrap();
    p.pump(1_000, 4);
    assert_eq!(p.b.stats.rx_pool_outstanding, 2);

    // 100 bytes of credit: front buffer (500 B) still incomplete.
    p.b.recv_done(p.now, s, 100).unwrap();
    assert_eq!(p.b.stats.rx_pool_outstanding, 2, "partial credit holds");
    assert_eq!(p.b.rx_held_payloads(s).len(), 2);

    // 400 more completes the front buffer only.
    p.b.recv_done(p.now, s, 400).unwrap();
    assert_eq!(p.b.stats.rx_pool_outstanding, 1);
    assert_eq!(p.b.rx_held_payloads(s).len(), 1);

    // The rest releases the second.
    p.b.recv_done(p.now, s, 200).unwrap();
    assert_eq!(p.b.stats.rx_pool_outstanding, 0);
    assert!(p.b.rx_held_payloads(s).is_empty());

    let _ = recv_payloads(p.b.take_events());
}

/// Closing a flow with buffers still held releases the gauge — no
/// retained-buffer leak across connection teardown.
#[test]
fn teardown_releases_held_buffers() {
    let mut p = Pair::new(StackConfig::default());
    let (c, _s) = establish(&mut p, 80);

    p.a.send(p.now, c, &vec![0x55u8; 900]).unwrap();
    p.pump(1_000, 8);
    assert_eq!(p.b.stats.rx_pool_outstanding, 1, "buffer held, no credit yet");

    // Abort from the client; the server flow dies with data still held.
    p.a.abort(p.now, c).unwrap();
    p.pump(1_000, 16);
    assert_eq!(
        p.b.stats.rx_pool_outstanding, 0,
        "destroy must release retained receive buffers"
    );
}

props! {
    #![config(cases = 256)]

    /// Copy counters stay pinned and the gauge returns to zero for
    /// arbitrary burst sizes and arbitrary `recv_done` credit chunking.
    #[test]
    fn copies_zero_gauge_balanced(
        len in 1usize..12_000,
        chunk in 1u32..4_000,
    ) {
        let mut p = Pair::new(StackConfig::default());
        let (c, s) = establish(&mut p, 80);

        let data: Vec<u8> =
            (0..len).map(|i| (i as u32).wrapping_mul(2654435761).to_le_bytes()[2]).collect();
        let sent = p.a.send(p.now, c, &data).unwrap();
        p.pump(1_000, 64);

        let payloads = recv_payloads(p.b.take_events());
        let got: usize = payloads.iter().map(|b| b.len()).sum();
        prop_assert_eq!(got, sent, "burst fully delivered");
        prop_assert_eq!(p.b.stats.rx_payload_copies, 0);
        prop_assert_eq!(p.b.stats.rx_ooo_copies, 0);

        // Credit back in arbitrary chunks; the gauge must drain to zero.
        let mut left = sent as u32;
        while left > 0 {
            let c_now = chunk.min(left);
            p.b.recv_done(p.now, s, c_now).unwrap();
            left -= c_now;
        }
        prop_assert_eq!(p.b.stats.rx_pool_outstanding, 0);
        prop_assert!(p.b.rx_held_payloads(s).is_empty());
    }
}
