//! Protocol-level integration tests: two [`TcpShard`]s wired
//! back-to-back through a lossy, reorderable "virtual wire", with no NIC
//! or simulator involved — pure protocol behaviour.

pub mod common;

use common::{establish, events, mac, outbound, udp_frame, Pair, A_IP, B_IP};
use ix_mempool::Mbuf;
use ix_tcp::{AckPolicy, DeadReason, StackConfig, TcpEvent, TcpShard};
use ix_testkit::Bytes;

#[test]
fn three_way_handshake() {
    let mut p = Pair::new(StackConfig::default());
    let (_c, _s) = establish(&mut p, 80);
    assert_eq!(p.a.flow_count(), 1);
    assert_eq!(p.b.flow_count(), 1);
    assert_eq!(p.a.stats.conns_opened, 1);
    assert_eq!(p.b.stats.conns_accepted, 1);
}

#[test]
fn small_echo_roundtrip() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);
    let n = p.a.send_bytes(p.now, c, &Bytes::from_static(b"hello")).unwrap();
    assert_eq!(n, 5);
    p.pump(1_000, 16);
    // Server got the data.
    let mut got = Vec::new();
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, cookie, .. } = e {
            assert_eq!(cookie, 0xBBB);
            got.extend_from_slice(&payload[..]);
        }
    }
    assert_eq!(got, b"hello");
    // Echo back.
    p.b.recv_done(p.now, s, 5).unwrap();
    p.b.send_bytes(p.now, s, &Bytes::from_static(b"world")).unwrap();
    p.pump(1_000, 16);
    let mut back = Vec::new();
    let mut sent_seen = false;
    for e in events(&mut p.a) {
        match e {
            TcpEvent::Recv { payload, .. } => back.extend_from_slice(&payload[..]),
            TcpEvent::Sent { bytes_acked, .. } => {
                sent_seen = true;
                assert_eq!(bytes_acked, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(back, b"world");
    assert!(sent_seen, "client should observe its bytes acked");
}

#[test]
fn large_transfer_is_segmented_and_exact() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);
    // ~100 KB, forced through the 1460-byte MSS and the 64 KB window.
    let data: Vec<u8> = (0..100_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let data = Bytes::from(data);
    let mut sent = 0usize;
    let mut received = Vec::new();
    let mut rounds = 0;
    while received.len() < data.len() {
        rounds += 1;
        assert!(rounds < 10_000, "transfer stalled at {} bytes", received.len());
        if sent < data.len() {
            sent += p.a.send_bytes(p.now, c, &data.slice(sent..)).unwrap();
        }
        p.pump(1_000, 4);
        for e in events(&mut p.b) {
            if let TcpEvent::Recv { payload, .. } = e {
                received.extend_from_slice(&payload[..]);
                p.b.recv_done(p.now, s, payload.len() as u32).unwrap();
            }
        }
        // Drain client events (Sent notifications).
        events(&mut p.a);
    }
    assert_eq!(received, &data[..], "stream corrupted");
    assert!(p.a.stats.tx_segments > 68, "MSS segmentation expected");
}

#[test]
fn send_respects_window_and_recv_done_opens_it() {
    let cfg = StackConfig { recv_window: 4_000, ..StackConfig::default() };
    let mut p = Pair::new(cfg);
    let (c, s) = establish(&mut p, 80);
    // Fill the 4 KB window.
    let data = Bytes::from(vec![7u8; 10_000]);
    let n1 = p.a.send_bytes(p.now, c, &data).unwrap();
    assert_eq!(n1, 4_000, "accepts exactly the advertised window");
    p.pump(1_000, 8);
    // Server holds the mbufs (no recv_done): window stays shut.
    let n2 = p.a.send_bytes(p.now, c, &data.slice(n1..)).unwrap();
    assert_eq!(n2, 0, "window exhausted until the app consumes");
    // Server consumes; window reopens; client is notified via Sent.
    let mut held = 0;
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            held += payload.len() as u32;
        }
    }
    assert_eq!(held, 4_000);
    p.b.recv_done(p.now, s, held).unwrap();
    p.pump(1_000, 8);
    let reopened = events(&mut p.a)
        .iter()
        .any(|e| matches!(e, TcpEvent::Sent { window, .. } if *window > 0));
    assert!(reopened, "client must learn the window reopened");
    let n3 = p.a.send_bytes(p.now, c, &data.slice(n1..)).unwrap();
    assert!(n3 > 0);
}

#[test]
fn retransmission_recovers_from_loss() {
    let mut cfg = StackConfig::low_latency();
    cfg.ack_policy = AckPolicy::Immediate;
    let mut p = Pair::new(cfg);
    let (c, s) = establish(&mut p, 80);
    // Drop the first data frame after the handshake.
    let start = p.frames_moved;
    p.keep = Box::new(move |i| i != start + 1);
    p.a.send_bytes(p.now, c, &Bytes::from_static(b"must arrive")).unwrap();
    // Run long enough for the 1 ms RTO to fire.
    p.run_for(100_000, 20_000_000);
    let mut got = Vec::new();
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            got.extend_from_slice(&payload[..]);
        }
    }
    assert_eq!(got, b"must arrive");
    assert!(p.a.stats.retransmits >= 1);
    let _ = s;
}

#[test]
fn out_of_order_segments_reassemble() {
    // Deliver segment 2 before segment 1 by swapping two frames.
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);
    // Send two MSS-sized chunks in one call: two frames on the wire.
    let data = Bytes::from(vec![9u8; 2_920]); // 2 * 1460.
    p.a.send_bytes(p.now, c, &data).unwrap();
    // Manually take and reorder.
    let mut frames = outbound(&mut p.a);
    assert_eq!(frames.len(), 2);
    frames.reverse();
    for f in frames {
        p.b.input(p.now, f);
    }
    p.b.end_cycle(p.now);
    p.pump(1_000, 8);
    let mut got = 0usize;
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            got += payload.len();
            p.b.recv_done(p.now, s, payload.len() as u32).unwrap();
        }
    }
    assert_eq!(got, 2_920, "both segments delivered after reassembly");
}

#[test]
fn graceful_close_fin_handshake() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);
    p.a.close(p.now, c).unwrap();
    p.pump(1_000, 16);
    // Server sees Dead{PeerFin} and closes its side.
    let dead = events(&mut p.b)
        .into_iter()
        .find_map(|e| match e {
            TcpEvent::Dead { reason, .. } => Some(reason),
            _ => None,
        })
        .expect("server sees FIN");
    assert_eq!(dead, DeadReason::PeerFin);
    p.b.close(p.now, s).unwrap();
    p.pump(1_000, 16);
    // Client side ends in TIME_WAIT (still counted) then expires.
    assert_eq!(p.b.flow_count(), 0, "server LAST_ACK completed");
    p.run_for(10_000_000, 2_000_000_000);
    assert_eq!(p.a.flow_count(), 0, "TIME_WAIT expired");
}

#[test]
fn abort_sends_rst_and_peer_sees_reset() {
    let mut p = Pair::new(StackConfig::default());
    let (c, _s) = establish(&mut p, 80);
    p.a.abort(p.now, c).unwrap();
    assert_eq!(p.a.flow_count(), 0, "no TIME_WAIT on abort");
    p.pump(1_000, 8);
    let reset = events(&mut p.b)
        .into_iter()
        .any(|e| matches!(e, TcpEvent::Dead { reason: DeadReason::PeerReset, .. }));
    assert!(reset);
    assert_eq!(p.b.flow_count(), 0);
    assert_eq!(p.a.stats.rst_tx, 1);
}

#[test]
fn syn_to_closed_port_gets_rst() {
    let mut p = Pair::new(StackConfig::default());
    // No listener on 81.
    p.a.connect(p.now, B_IP, 81, 7).unwrap();
    p.pump(1_000, 16);
    let failed = events(&mut p.a)
        .into_iter()
        .any(|e| matches!(e, TcpEvent::Connected { ok: false, cookie: 7, .. }));
    assert!(failed, "connect must fail with RST");
    assert_eq!(p.a.flow_count(), 0);
    assert_eq!(p.b.stats.no_listener, 1);
}

#[test]
fn stale_handle_rejected_after_close() {
    let mut p = Pair::new(StackConfig::default());
    let (c, _s) = establish(&mut p, 80);
    p.a.abort(p.now, c).unwrap();
    assert!(p.a.send_bytes(p.now, c, &Bytes::from_static(b"x")).is_err());
    assert!(p.a.recv_done(p.now, c, 1).is_err());
    assert!(p.a.close(p.now, c).is_err());
}

#[test]
fn recv_done_overcredit_rejected() {
    let mut p = Pair::new(StackConfig::default());
    let (c, s) = establish(&mut p, 80);
    p.a.send_bytes(p.now, c, &Bytes::from_static(b"abc")).unwrap();
    p.pump(1_000, 8);
    events(&mut p.b);
    assert!(p.b.recv_done(p.now, s, 1_000).is_err(), "overcredit must fail");
    assert!(p.b.recv_done(p.now, s, 3).is_ok());
}

#[test]
fn cold_arp_resolves_then_delivers() {
    let cfg = StackConfig::default();
    let mut a = TcpShard::new(cfg.clone(), A_IP, mac(1));
    let mut b = TcpShard::new(cfg, B_IP, mac(2));
    b.listen(80);
    // No ARP seeding: the SYN must wait for resolution.
    a.connect(0, B_IP, 80, 1).unwrap();
    // First TX from a is an ARP request (broadcast).
    let tx = outbound(&mut a);
    assert_eq!(tx.len(), 1);
    assert_eq!(a.stats.arp_tx, 1);
    let mut now = 0u64;
    // Pump generously: request -> reply -> SYN -> SYN-ACK -> ACK.
    let mut frames: Vec<(bool, Mbuf)> = tx.into_iter().map(|f| (true, f)).collect();
    for _ in 0..20 {
        now += 1_000;
        let mut next = Vec::new();
        for (to_b, f) in frames.drain(..) {
            if to_b {
                b.input(now, f);
            } else {
                a.input(now, f);
            }
        }
        a.end_cycle(now);
        b.end_cycle(now);
        next.extend(outbound(&mut a).into_iter().map(|f| (true, f)));
        next.extend(outbound(&mut b).into_iter().map(|f| (false, f)));
        frames = next;
        if frames.is_empty() {
            break;
        }
    }
    let connected = events(&mut a)
        .into_iter()
        .any(|e| matches!(e, TcpEvent::Connected { ok: true, .. }));
    assert!(connected, "handshake completes after ARP resolution");
}

#[test]
fn udp_roundtrip() {
    let mut p = Pair::new(StackConfig::default());
    p.b.input(p.now, udp_frame(b"get k"));
    assert_eq!(p.b.stats.udp_rx, 1);
}

#[test]
fn icmp_echo_replied() {
    let mut p = Pair::new(StackConfig::default());
    // No shard sends ICMP requests, so drive b with a hand-built frame.
    use ix_net::eth::{EthHeader, EtherType};
    use ix_net::icmp::IcmpHeader;
    use ix_net::ip::{IpProto, Ipv4Header};
    let mut m = Mbuf::standalone();
    let icmp = IcmpHeader {
        icmp_type: ix_net::icmp::IcmpType::EchoRequest,
        ident: 0x42,
        seq: 1,
    };
    let payload = b"pingpong";
    let total = IcmpHeader::LEN + payload.len();
    {
        let region = m.append(total);
        region[IcmpHeader::LEN..].copy_from_slice(payload);
        let (h, t) = region.split_at_mut(IcmpHeader::LEN);
        icmp.encode(h, t);
    }
    Ipv4Header {
        tos: 0,
        total_len: (Ipv4Header::LEN + total) as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Icmp,
        src: A_IP,
        dst: B_IP,
    }
    .encode(m.prepend(Ipv4Header::LEN));
    EthHeader {
        dst: mac(2),
        src: mac(1),
        ethertype: EtherType::Ipv4,
    }
    .encode(m.prepend(EthHeader::LEN));
    p.b.input(p.now, m);
    assert_eq!(p.b.stats.icmp_echo, 1);
    let reply = outbound(&mut p.b);
    assert_eq!(reply.len(), 1);
    // The reply is a valid echo-reply addressed to a.
    let mut f = reply.into_iter().next().unwrap();
    f.pull(EthHeader::LEN);
    let ip = Ipv4Header::decode(f.data()).unwrap();
    assert_eq!(ip.dst, A_IP);
    f.pull(Ipv4Header::LEN);
    let h = IcmpHeader::decode(f.data()).unwrap();
    assert_eq!(h.icmp_type, ix_net::icmp::IcmpType::EchoReply);
    assert_eq!(h.ident, 0x42);
}

#[test]
fn rss_probing_picks_aligned_ports() {
    use std::rc::Rc;
    let cfg = StackConfig::default();
    let mut a = TcpShard::new(cfg, A_IP, mac(1));
    a.arp_seed(B_IP, mac(2));
    // Pretend there are 4 queues, bucket `b` on queue `b % 4`, and
    // this shard is queue 2.
    a.set_steering(2, Rc::new(|bucket| bucket as usize % 4));
    for _ in 0..10 {
        let f = a.connect(0, B_IP, 80, 0).unwrap();
        // The reply tuple (B → A) hashes into a bucket on queue 2.
        let bucket = ix_net::rss::bucket(B_IP, A_IP, 80, f.local_port());
        assert_eq!(bucket % 4, 2, "port not RSS-aligned");
    }
}

#[test]
fn handshake_syn_loss_retries() {
    let mut cfg = StackConfig::low_latency();
    cfg.syn_rto_ns = 1_000_000; // 1 ms.
    let mut p = Pair::new(cfg);
    p.b.listen(80);
    // Drop the first SYN.
    p.keep = Box::new(|i| i != 1);
    p.a.connect(p.now, B_IP, 80, 5).unwrap();
    p.run_for(100_000, 10_000_000);
    let connected = events(&mut p.a)
        .into_iter()
        .any(|e| matches!(e, TcpEvent::Connected { ok: true, .. }));
    assert!(connected, "SYN retransmission completes the handshake");
    assert!(p.a.stats.retransmits >= 1);
}

#[test]
fn churn_many_short_connections() {
    // The Fig 3b pattern: connect, one RPC, RST close — repeatedly.
    let mut p = Pair::new(StackConfig::default());
    p.b.listen(80);
    for round in 0..50 {
        let c = p.a.connect(p.now, B_IP, 80, round).unwrap();
        p.pump(1_000, 16);
        let server_flow = events(&mut p.b)
            .into_iter()
            .find_map(|e| match e {
                TcpEvent::Knock { flow, .. } => Some(flow),
                _ => None,
            })
            .expect("knock");
        p.b.accept(server_flow, round).unwrap();
        events(&mut p.a);
        p.a.send_bytes(p.now, c, &Bytes::from_static(b"req")).unwrap();
        p.pump(1_000, 16);
        let got: usize = events(&mut p.b)
            .iter()
            .map(|e| match e {
                TcpEvent::Recv { payload, .. } => payload.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(got, 3);
        p.b.recv_done(p.now, server_flow, 3).unwrap();
        p.b.send_bytes(p.now, server_flow, &Bytes::from_static(b"rsp")).unwrap();
        p.pump(1_000, 16);
        events(&mut p.a);
        p.a.abort(p.now, c).unwrap();
        p.pump(1_000, 16);
        events(&mut p.b);
        assert_eq!(p.a.flow_count(), 0, "round {round}");
        assert_eq!(p.b.flow_count(), 0, "round {round}");
    }
    assert_eq!(p.b.stats.conns_accepted, 50);
}

#[test]
fn window_scaling_negotiated_and_applied() {
    // Both ends offer wscale: windows above 64KB become usable.
    // Large initial cwnd so the flow-control window (not congestion
    // control) is what the test observes.
    let cfg = StackConfig {
        window_scale: 7,
        recv_window: 512 * 1024,
        initial_cwnd_segs: 300,
        ..StackConfig::default()
    };
    let mut p = Pair::new(cfg);
    let (c, s) = establish(&mut p, 80);
    // RFC 7323: the SYN/SYN-ACK windows themselves are never scaled, so
    // the first send is still bounded by 64KB...
    let data = Bytes::from(vec![3u8; 300_000]);
    let n1 = p.a.send_bytes(p.now, c, &data).unwrap();
    assert_eq!(n1, 65_535, "pre-scale window is the unscaled SYN-ACK value");
    p.pump(1_000, 64);
    let mut got = 0;
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            got += payload.len();
            p.b.recv_done(p.now, s, payload.len() as u32).unwrap();
        }
    }
    assert_eq!(got, n1);
    p.pump(1_000, 16);
    events(&mut p.a);
    // ...but once scaled window advertisements flow, a single send can
    // put far more than 64KB in flight.
    let n2 = p.a.send_bytes(p.now, c, &data).unwrap();
    assert!(n2 > 100_000, "scaled window accepted only {n2} bytes");
    p.pump(1_000, 64);
    let mut got2 = 0;
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            got2 += payload.len();
            p.b.recv_done(p.now, s, payload.len() as u32).unwrap();
        }
    }
    assert_eq!(got2, n2, "all in-flight bytes delivered");
}

#[test]
fn window_scaling_requires_both_ends() {
    // Server scales, client does not: effective window stays <= 64KB.
    let scfg = StackConfig { window_scale: 7, recv_window: 512 * 1024, ..StackConfig::default() };
    let ccfg = StackConfig::default(); // No scaling offered.
    let mut a = TcpShard::new(ccfg, A_IP, mac(1));
    let mut b = TcpShard::new(scfg, B_IP, mac(2));
    a.arp_seed(B_IP, mac(2));
    b.arp_seed(A_IP, mac(1));
    b.listen(80);
    let c = a.connect(0, B_IP, 80, 1).unwrap();
    // Pump manually.
    let mut now = 0;
    for _ in 0..16 {
        now += 1_000;
        for f in outbound(&mut a) {
            b.input(now, f);
        }
        for f in outbound(&mut b) {
            a.input(now, f);
        }
        a.end_cycle(now);
        b.end_cycle(now);
    }
    events(&mut a);
    let n = a.send_bytes(now, c, &Bytes::from(vec![0u8; 200_000])).unwrap();
    assert!(n <= 65_535, "unscaled peer must cap the window, accepted {n}");
}

#[test]
fn corrupted_frame_is_dropped_counted_and_recovered() {
    let mut cfg = StackConfig::low_latency();
    cfg.ack_policy = AckPolicy::Immediate;
    let mut p = Pair::new(cfg);
    let (c, s) = establish(&mut p, 80);
    // Flip one byte past the Ethernet header of the first data frame:
    // the IP-header or TCP pseudo-header checksum must catch it.
    let start = p.frames_moved;
    p.mangle = Box::new(move |i, f| {
        if i == start + 1 {
            let off = 14 + (f.len() - 14) / 2;
            f.data_mut()[off] ^= 0xff;
        }
    });
    p.a.send_bytes(p.now, c, &Bytes::from_static(b"integrity matters")).unwrap();
    // Run long enough for the 1 ms RTO to retransmit the dropped copy.
    p.run_for(100_000, 20_000_000);
    let mut got = Vec::new();
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            got.extend_from_slice(&payload[..]);
        }
    }
    assert_eq!(got, b"integrity matters", "payload must arrive intact via retransmit");
    assert_eq!(p.b.stats.checksum_drops, 1, "exactly the mangled frame rejected");
    assert!(p.b.stats.parse_drops >= 1, "checksum drops are a subset of parse drops");
    assert!(p.a.stats.rto_fires >= 1, "a lone lost segment recovers via RTO");
    assert!(p.a.stats.max_recovery_ns > 0, "recovery episode duration recorded");
    let _ = s;
}

#[test]
fn fast_retransmit_fires_on_mid_burst_loss() {
    // A large scaled receive window saturates the 16-bit window field at
    // its cap, so out-of-order arrivals do not perturb the advertised
    // window and duplicate ACKs are recognized as such.
    let mut cfg = StackConfig::low_latency();
    cfg.ack_policy = AckPolicy::Immediate;
    cfg.recv_window = 1_000_000;
    cfg.window_scale = 2;
    let mut p = Pair::new(cfg);
    let (c, s) = establish(&mut p, 80);
    // Drop the first segment of an 8-segment burst: the 7 that follow
    // each produce a duplicate ACK.
    let start = p.frames_moved;
    p.keep = Box::new(move |i| i != start + 1);
    let data = Bytes::from(vec![3u8; 8 * 1460]);
    p.a.send_bytes(p.now, c, &data).unwrap();
    p.run_for(50_000, 40_000_000);
    let mut got = 0usize;
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            got += payload.len();
            p.b.recv_done(p.now, s, payload.len() as u32).unwrap();
        }
    }
    assert_eq!(got, data.len(), "full burst delivered after recovery");
    assert!(
        p.a.stats.fast_retransmits >= 1,
        "three duplicate ACKs must trigger fast retransmit, stats: {:?}",
        p.a.stats
    );
    assert!(p.a.stats.max_recovery_ns > 0, "episode recorded");
}

#[test]
fn persist_probe_counter_increments() {
    let mut cfg = StackConfig::low_latency();
    cfg.ack_policy = AckPolicy::Immediate;
    cfg.recv_window = 2_920; // Two segments fill it.
    cfg.persist_ns = 2_000_000;
    let mut p = Pair::new(cfg);
    let (c, s) = establish(&mut p, 80);
    // Fill the window; server does not consume, so it closes to zero and
    // the client must send persist probes.
    let data = Bytes::from(vec![5u8; 10_000]);
    p.a.send_bytes(p.now, c, &data).unwrap();
    p.pump(1_000, 16);
    p.a.send_bytes(p.now, c, &data).unwrap();
    p.run_for(500_000, 20_000_000);
    assert!(
        p.a.stats.persist_probes >= 1,
        "zero-window probes expected, stats: {:?}",
        p.a.stats
    );
    // Server consumes; transfer resumes.
    let mut held = 0;
    for e in events(&mut p.b) {
        if let TcpEvent::Recv { payload, .. } = e {
            held += payload.len() as u32;
        }
    }
    p.b.recv_done(p.now, s, held).unwrap();
    p.pump(1_000, 32);
    assert!(p.a.send_bytes(p.now, c, &Bytes::from_static(b"more")).unwrap() > 0);
}

#[test]
fn stack_stats_absorb_sums_counters_and_maxes_recovery() {
    use ix_tcp::StackStats;
    let mut total = StackStats { retransmits: 2, max_recovery_ns: 500, ..StackStats::default() };
    let other = StackStats {
        retransmits: 3,
        checksum_drops: 4,
        rto_fires: 1,
        fast_retransmits: 2,
        persist_probes: 6,
        max_recovery_ns: 300,
        bytes_rx: 10,
        ..StackStats::default()
    };
    total.absorb(&other);
    assert_eq!(total.retransmits, 5);
    assert_eq!(total.checksum_drops, 4);
    assert_eq!(total.rto_fires, 1);
    assert_eq!(total.fast_retransmits, 2);
    assert_eq!(total.persist_probes, 6);
    assert_eq!(total.bytes_rx, 10);
    assert_eq!(total.max_recovery_ns, 500, "recovery time is a max, not a sum");
}
