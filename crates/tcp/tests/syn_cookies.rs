//! SYN-cookie integration tests: the stateless handshake end to end at
//! the shard level. A cookie SYN-ACK must allocate *nothing* — the TCB
//! appears only when a valid third ACK arrives — so a SYN flood cannot
//! grow the TCB slab or hold receive buffers, no matter its rate.

pub mod common;

use common::{events, mac, outbound};
use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, EtherType};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_tcp::{StackConfig, TcpEvent, TcpShard};
use ix_testkit::Bytes;

const SHARD_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

fn cookies_on() -> StackConfig {
    StackConfig { syn_cookies: true, ..StackConfig::default() }
}

fn server(cfg: StackConfig) -> TcpShard {
    let mut s = TcpShard::new(cfg, SHARD_IP, mac(1));
    s.arp_seed(PEER_IP, mac(9));
    s.listen(80);
    s
}

fn frame(src_ip: Ipv4Addr, tcp: TcpHeader, payload: &[u8]) -> Mbuf {
    let mut m = Mbuf::standalone();
    let tcp_len = tcp.len();
    m.append(payload.len()).copy_from_slice(payload);
    tcp.encode(m.prepend(tcp_len), src_ip, SHARD_IP, payload);
    Ipv4Header {
        tos: 0,
        total_len: (Ipv4Header::LEN + tcp_len + payload.len()) as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Tcp,
        src: src_ip,
        dst: SHARD_IP,
    }
    .encode(m.prepend(Ipv4Header::LEN));
    EthHeader { dst: mac(1), src: mac(9), ethertype: EtherType::Ipv4 }
        .encode(m.prepend(EthHeader::LEN));
    m
}

fn parse(mut f: Mbuf) -> (Ipv4Header, TcpHeader) {
    f.pull(EthHeader::LEN);
    let ip = Ipv4Header::decode(f.data()).unwrap();
    f.pull(Ipv4Header::LEN);
    let (tcp, _) = TcpHeader::decode(f.data(), ip.src, ip.dst).unwrap();
    (ip, tcp)
}

fn syn(sport: u16, seq: u32) -> TcpHeader {
    TcpHeader {
        src_port: sport,
        dst_port: 80,
        seq,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 65_535,
        mss: Some(1460),
        wscale: None,
    }
}

fn ack(sport: u16, seq: u32, ackno: u32) -> TcpHeader {
    TcpHeader {
        src_port: sport,
        dst_port: 80,
        seq,
        ack: ackno,
        flags: TcpFlags::ACK,
        window: 65_535,
        mss: None,
        wscale: None,
    }
}

#[test]
fn cookie_handshake_defers_all_state_until_valid_ack() {
    let mut s = server(cookies_on());
    s.input(0, frame(PEER_IP, syn(4000, 100), &[]));
    // The SYN-ACK went out, but *no* connection state exists: no TCB,
    // no slab slot, no timer-armed half-open entry.
    assert_eq!(s.stats.syn_cookies_sent, 1);
    assert_eq!(s.flow_count(), 0, "cookie SYN-ACK allocates no TCB");
    assert_eq!(s.flow_mem_stats().slab_slots, 0);
    assert_eq!(s.synrcvd_len(), 0);
    let (_, synack) = parse(outbound(&mut s).into_iter().next().unwrap());
    assert!(synack.flags.syn && synack.flags.ack);
    assert_eq!(synack.ack, 101, "acks the SYN's sequence number");
    assert_eq!(synack.wscale, None, "no window scaling on the cookie path");
    // The completing ACK materializes the connection in one step.
    s.input(1_000, frame(PEER_IP, ack(4000, 101, synack.seq.wrapping_add(1)), &[]));
    assert_eq!(s.stats.syn_cookies_accepted, 1);
    assert_eq!(s.stats.conns_accepted, 1);
    assert_eq!(s.flow_count(), 1);
    let knocked = events(&mut s)
        .into_iter()
        .any(|e| matches!(e, TcpEvent::Knock { .. }));
    assert!(knocked, "accepting a cookie ACK raises the knock event");
}

#[test]
fn cookie_handshake_interops_with_regular_client_stack() {
    // A plain client stack (cookies irrelevant on the active side)
    // against a cookie server: the handshake and a data round trip must
    // work — this pins the cookie TCB's sequence bookkeeping.
    let mut a = TcpShard::new(StackConfig::default(), PEER_IP, mac(9));
    let mut b = server(cookies_on());
    a.arp_seed(SHARD_IP, mac(1));
    let cf = a.connect(0, SHARD_IP, 80, 0xA).unwrap();
    let mut now = 0;
    let mut server_flow = None;
    for _ in 0..32 {
        now += 1_000;
        for f in outbound(&mut a) {
            b.input(now, f);
        }
        for f in outbound(&mut b) {
            a.input(now, f);
        }
        for e in events(&mut b) {
            if let TcpEvent::Knock { flow, .. } = e {
                b.accept(flow, 0xB).unwrap();
                server_flow = Some(flow);
            }
        }
        a.end_cycle(now);
        b.end_cycle(now);
        if a.tx_len() == 0 && b.tx_len() == 0 && server_flow.is_some() {
            break;
        }
    }
    let sf = server_flow.expect("cookie handshake must knock");
    assert_eq!(b.stats.syn_cookies_accepted, 1);
    // Client → server data, server echoes back.
    a.send_bytes(now, cf, &Bytes::from_static(b"ping")).unwrap();
    let mut echoed = Vec::new();
    for _ in 0..32 {
        now += 1_000;
        for f in outbound(&mut a) {
            b.input(now, f);
        }
        for e in events(&mut b) {
            if let TcpEvent::Recv { payload, .. } = e {
                assert_eq!(payload.as_slice(), b"ping");
                b.recv_done(now, sf, payload.len() as u32).unwrap();
                b.send_bytes(now, sf, &Bytes::from_static(b"pong")).unwrap();
            }
        }
        for f in outbound(&mut b) {
            a.input(now, f);
        }
        for e in events(&mut a) {
            if let TcpEvent::Recv { payload, .. } = e {
                echoed.extend_from_slice(payload.as_slice());
            }
        }
        a.end_cycle(now);
        b.end_cycle(now);
        if echoed == b"pong" {
            break;
        }
    }
    assert_eq!(echoed, b"pong", "data must flow over the cookie-built TCB");
}

#[test]
fn forged_ack_is_rejected_with_rst() {
    let mut s = server(cookies_on());
    // An attacker guessing the cookie: a bare ACK that never saw a
    // SYN-ACK. Validation fails, nothing is allocated, and the stray
    // ACK gets the RFC 793 reset.
    s.input(0, frame(PEER_IP, ack(4000, 101, 0xdead_beef), &[]));
    assert_eq!(s.stats.syn_cookies_rejected, 1);
    assert_eq!(s.stats.syn_cookies_accepted, 0);
    assert_eq!(s.flow_count(), 0);
    assert_eq!(s.stats.rst_tx, 1);
    let (_, rst) = parse(outbound(&mut s).into_iter().next().unwrap());
    assert!(rst.flags.rst && !rst.flags.ack);
    assert_eq!(rst.seq, 0xdead_beef, "reset seq comes from the forged ACK");
}

#[test]
fn cookie_from_previous_bucket_accepted_then_expires() {
    let bucket_ns = ix_tcp::config::SYN_COOKIE_BUCKET_NS;
    // Completing ACK lands one bucket later (a slow RTT): still valid.
    let mut s = server(cookies_on());
    s.input(0, frame(PEER_IP, syn(4000, 100), &[]));
    let (_, synack) = parse(outbound(&mut s).into_iter().next().unwrap());
    s.input(bucket_ns + bucket_ns / 2, frame(PEER_IP, ack(4000, 101, synack.seq.wrapping_add(1)), &[]));
    assert_eq!(s.stats.syn_cookies_accepted, 1, "previous-bucket cookie still valid");
    // Two buckets later: expired, rejected, reset.
    let mut s = server(cookies_on());
    s.input(0, frame(PEER_IP, syn(4000, 100), &[]));
    let (_, synack) = parse(outbound(&mut s).into_iter().next().unwrap());
    s.input(2 * bucket_ns + bucket_ns / 2, frame(PEER_IP, ack(4000, 101, synack.seq.wrapping_add(1)), &[]));
    assert_eq!(s.stats.syn_cookies_accepted, 0);
    assert_eq!(s.stats.syn_cookies_rejected, 1, "expired cookie rejected");
    assert_eq!(s.flow_count(), 0);
}

#[test]
fn syn_flood_cannot_grow_tcb_slab_or_hold_buffers() {
    const FLOOD: u32 = 65_536;
    // Cookies on: 64k distinct-tuple SYNs leave *zero* connection state.
    let mut s = server(cookies_on());
    for i in 0..FLOOD {
        let src = Ipv4Addr(0x0a09_0000 | (i & 0xffff));
        s.arp_seed(src, mac(9));
        s.input(0, frame(src, syn((1024 + (i % 60_000)) as u16, i), &[]));
        if i % 4096 == 0 {
            outbound(&mut s); // Drain SYN-ACK replies as a driver would.
        }
    }
    outbound(&mut s);
    assert_eq!(s.stats.syn_cookies_sent, FLOOD as u64);
    assert_eq!(s.flow_count(), 0);
    assert_eq!(s.flow_mem_stats().slab_slots, 0, "slab high-water is flood-independent");
    assert_eq!(s.stats.rx_pool_outstanding, 0, "no receive buffers held");
    // Cookies off: the backlog bound caps the damage instead.
    let mut s = server(StackConfig { syn_backlog: 1_024, ..StackConfig::default() });
    for i in 0..FLOOD {
        let src = Ipv4Addr(0x0a09_0000 | (i & 0xffff));
        s.arp_seed(src, mac(9));
        s.input(0, frame(src, syn((1024 + (i % 60_000)) as u16, i), &[]));
        if i % 4096 == 0 {
            outbound(&mut s);
        }
    }
    outbound(&mut s);
    assert_eq!(s.flow_count(), 1_024, "backlog bound holds");
    assert!(s.flow_mem_stats().slab_slots <= 1_024);
    assert_eq!(s.stats.synrcvd_overflow_drops, (FLOOD - 1_024) as u64);
    assert_eq!(s.stats.rx_pool_outstanding, 0);
}
