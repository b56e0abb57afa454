//! Pre-stack-era listener hardening: the RFC 793 §3.4 no-listener RST
//! (both arms, golden header fields) and the half-open `SynRcvd` backlog
//! bound that keeps a SYN flood from pinning unbounded TCB-slab slots
//! even with cookies off.

pub mod common;

use common::{mac, outbound};
use ix_mempool::Mbuf;
use ix_net::eth::{EthHeader, EtherType};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_tcp::{StackConfig, TcpShard};

const SHARD_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

fn shard(cfg: StackConfig) -> TcpShard {
    let mut s = TcpShard::new(cfg, SHARD_IP, mac(1));
    s.arp_seed(PEER_IP, mac(9));
    s
}

/// Crafts a raw TCP frame from `src_ip` to the shard.
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

/// Parses an emitted frame back into its IP + TCP headers.
fn parse(mut f: Mbuf) -> (Ipv4Header, TcpHeader) {
    f.pull(EthHeader::LEN);
    let ip = Ipv4Header::decode(f.data()).unwrap();
    f.pull(Ipv4Header::LEN);
    let (tcp, _) = TcpHeader::decode(f.data(), ip.src, ip.dst).unwrap();
    (ip, tcp)
}

#[test]
fn no_listener_rst_ack_arm_takes_seq_from_ack() {
    let mut s = shard(StackConfig::default());
    // Bare ACK to a port nobody listens on: "the reset takes its
    // sequence number from the ACK field of the segment" — and carries
    // no ACK of its own.
    let tcp = TcpHeader {
        src_port: 4000,
        dst_port: 81,
        seq: 1_000,
        ack: 555_555,
        flags: TcpFlags::ACK,
        window: 100,
        mss: None,
        wscale: None,
    };
    s.input(0, frame(PEER_IP, tcp, b"xyz"));
    assert_eq!(s.stats.no_listener, 1);
    assert_eq!(s.stats.rst_tx, 1);
    let tx = outbound(&mut s);
    assert_eq!(tx.len(), 1);
    let (ip, rst) = parse(tx.into_iter().next().unwrap());
    assert_eq!(ip.dst, PEER_IP);
    assert!(rst.flags.rst);
    assert!(!rst.flags.ack, "ACK-arm reset must not set ACK");
    assert_eq!(rst.seq, 555_555, "seq comes from the segment's ACK field");
    assert_eq!(rst.src_port, 81);
    assert_eq!(rst.dst_port, 4000);
}

#[test]
fn no_listener_rst_else_arm_acks_full_sequence_span() {
    // Without an ACK, "the reset has sequence number zero and the ACK
    // field is set to the sum of the sequence number and segment
    // length" — where SYN and FIN each occupy one sequence number.
    let cases: &[(TcpFlags, usize, u32)] = &[
        (TcpFlags::SYN, 0, 1),                               // SYN: +1
        (TcpFlags { fin: true, ..TcpFlags::NONE }, 0, 1),    // bare FIN: +1
        (TcpFlags { fin: true, ..TcpFlags::NONE }, 7, 8),    // FIN + data
        (TcpFlags::NONE, 5, 5),                              // bare data
    ];
    for &(flags, plen, span) in cases {
        let mut s = shard(StackConfig::default());
        let tcp = TcpHeader {
            src_port: 4000,
            dst_port: 81,
            seq: 9_000,
            ack: 0,
            flags,
            window: 100,
            mss: if flags.syn { Some(1460) } else { None },
            wscale: None,
        };
        s.input(0, frame(PEER_IP, tcp, &vec![0u8; plen]));
        assert_eq!(s.stats.rst_tx, 1, "{flags:?}");
        let (_, rst) = parse(outbound(&mut s).into_iter().next().unwrap());
        assert!(rst.flags.rst && rst.flags.ack, "{flags:?}: else-arm reset is RST+ACK");
        assert_eq!(rst.seq, 0, "{flags:?}: seq is zero");
        assert_eq!(rst.ack, 9_000 + span, "{flags:?}: ack covers the sequence span");
    }
}

#[test]
fn syn_backlog_caps_half_open_connections() {
    let mut s = shard(StackConfig { syn_backlog: 4, ..StackConfig::default() });
    s.listen(80);
    for i in 0..10u16 {
        let tcp = TcpHeader {
            src_port: 2000 + i,
            dst_port: 80,
            seq: 100,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
            mss: Some(1460),
            wscale: None,
        };
        s.input(0, frame(PEER_IP, tcp, &[]));
    }
    assert_eq!(s.flow_count(), 4, "only backlog-many TCBs allocated");
    assert_eq!(s.synrcvd_len(), 4);
    assert_eq!(s.stats.synrcvd_overflow_drops, 6);
    // Exactly one SYN-ACK per admitted connection; the overflow SYNs
    // were dropped silently (no RST — the client will retransmit).
    assert_eq!(outbound(&mut s).len(), 4);
    assert_eq!(s.stats.rst_tx, 0);
}

#[test]
fn backlog_slot_freed_when_handshake_completes() {
    let mut s = shard(StackConfig { syn_backlog: 1, ..StackConfig::default() });
    s.listen(80);
    let syn = |sport: u16| TcpHeader {
        src_port: sport,
        dst_port: 80,
        seq: 100,
        ack: 0,
        flags: TcpFlags::SYN,
        window: 65_535,
        mss: Some(1460),
        wscale: None,
    };
    s.input(0, frame(PEER_IP, syn(2000), &[]));
    assert_eq!(s.synrcvd_len(), 1);
    // Second half-open connection bounces off the full backlog.
    s.input(0, frame(PEER_IP, syn(2001), &[]));
    assert_eq!(s.stats.synrcvd_overflow_drops, 1);
    // Complete the first handshake: its slot frees immediately.
    let (_, synack) = parse(outbound(&mut s).into_iter().next().unwrap());
    let ack = TcpHeader {
        src_port: 2000,
        dst_port: 80,
        seq: 101,
        ack: synack.seq.wrapping_add(1),
        flags: TcpFlags::ACK,
        window: 65_535,
        mss: None,
        wscale: None,
    };
    s.input(1_000, frame(PEER_IP, ack, &[]));
    assert_eq!(s.synrcvd_len(), 0, "established connection left the backlog");
    assert_eq!(s.stats.conns_accepted, 1);
    // The freed slot admits the retry.
    s.input(2_000, frame(PEER_IP, syn(2001), &[]));
    assert_eq!(s.synrcvd_len(), 1);
    assert_eq!(s.flow_count(), 2);
}
