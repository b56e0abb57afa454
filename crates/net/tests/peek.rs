//! The fixed-offset peek (`ix_net::peek`) against the validating
//! decoders: on a well-formed TCP, UDP, ICMP or ARP frame it reads what
//! `EthHeader`/`Ipv4Header`/`TcpHeader`/`UdpHeader::decode` read, and on
//! any prefix of one, or any junk, it answers `None` or zeros the fields
//! the frame is too short for, and never panics.

use ix_testkit::prelude::*;

use ix_net::arp::ArpPacket;
use ix_net::eth::{EthHeader, EtherType, MacAddr};
use ix_net::icmp::{IcmpHeader, IcmpType};
use ix_net::ip::{IpProto, Ipv4Addr, Ipv4Header};
use ix_net::peek::{self, PreParsed};
use ix_net::tcp::{TcpFlags, TcpHeader};
use ix_net::udp::UdpHeader;

/// One generated frame: 0 TCP, 1 UDP, 2 ICMP echo, 3 ARP.
#[derive(Debug, Clone)]
struct Spec {
    kind: u8,
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
    flags: u8,
    syn_options: bool,
    payload: Vec<u8>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        (0u8..4, any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
        (any::<u8>(), any::<bool>(), collection::vec(any::<u8>(), 0..64)),
    )
        .prop_map(|((kind, src, dst, sport, dport), (flags, syn_options, payload))| Spec {
            kind,
            src,
            dst,
            sport,
            dport,
            flags,
            syn_options,
            payload,
        })
}

/// Serializes `s` through the crate's encoders.
fn build(s: &Spec) -> Vec<u8> {
    let (src, dst) = (Ipv4Addr(s.src), Ipv4Addr(s.dst));
    let l3 = EthHeader::LEN + Ipv4Header::LEN;
    let (ethertype, mut buf) = match s.kind {
        0 => {
            let tcp = TcpHeader {
                src_port: s.sport,
                dst_port: s.dport,
                seq: 7,
                ack: 9,
                flags: TcpFlags::from_u8(s.flags),
                window: 1000,
                mss: s.syn_options.then_some(1460),
                wscale: s.syn_options.then_some(7),
            };
            let mut buf = vec![0u8; l3 + tcp.len() + s.payload.len()];
            buf[l3 + tcp.len()..].copy_from_slice(&s.payload);
            tcp.encode(&mut buf[l3..l3 + tcp.len()], src, dst, &s.payload);
            (EtherType::Ipv4, buf)
        }
        1 => {
            let len = UdpHeader::LEN + s.payload.len();
            let udp = UdpHeader { src_port: s.sport, dst_port: s.dport, len: len as u16 };
            let mut buf = vec![0u8; l3 + len];
            buf[l3 + UdpHeader::LEN..].copy_from_slice(&s.payload);
            udp.encode(&mut buf[l3..l3 + UdpHeader::LEN], src, dst, &s.payload);
            (EtherType::Ipv4, buf)
        }
        2 => {
            let icmp = IcmpHeader { icmp_type: IcmpType::EchoRequest, ident: s.sport, seq: s.dport };
            let mut buf = vec![0u8; l3 + IcmpHeader::LEN + s.payload.len()];
            buf[l3 + IcmpHeader::LEN..].copy_from_slice(&s.payload);
            icmp.encode(&mut buf[l3..l3 + IcmpHeader::LEN], &s.payload);
            (EtherType::Ipv4, buf)
        }
        _ => {
            let mut buf = vec![0u8; EthHeader::LEN + ArpPacket::LEN];
            ArpPacket::request(MacAddr::from_host_index(2), src, dst).encode(&mut buf[EthHeader::LEN..]);
            (EtherType::Arp, buf)
        }
    };
    if ethertype == EtherType::Ipv4 {
        let proto = [IpProto::Tcp, IpProto::Udp, IpProto::Icmp][s.kind as usize];
        let total_len = (buf.len() - EthHeader::LEN) as u16;
        Ipv4Header { tos: 0, total_len, ident: 0, ttl: 64, proto, src, dst }.encode(&mut buf[EthHeader::LEN..]);
    }
    EthHeader { dst: MacAddr::from_host_index(1), src: MacAddr::from_host_index(2), ethertype }
        .encode(&mut buf[..EthHeader::LEN]);
    buf
}

/// What the validating decoders read from a whole frame, in the peek's
/// shape; `None` for a frame without an IPv4 header.
fn decoded(frame: &[u8]) -> Option<PreParsed> {
    if EthHeader::decode(frame).unwrap().ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Header::decode(&frame[EthHeader::LEN..]).unwrap();
    let l4 = &frame[EthHeader::LEN + Ipv4Header::LEN..];
    let (src_port, dst_port, tcp_flags) = match ip.proto {
        IpProto::Tcp => {
            let (h, _) = TcpHeader::decode(l4, ip.src, ip.dst).unwrap();
            (h.src_port, h.dst_port, h.flags.to_u8())
        }
        IpProto::Udp => {
            let h = UdpHeader::decode(l4, ip.src, ip.dst).unwrap();
            (h.src_port, h.dst_port, 0)
        }
        _ => (0, 0, 0),
    };
    Some(PreParsed { proto: ip.proto, src_ip: ip.src, dst_ip: ip.dst, src_port, dst_port, tcp_flags })
}

props! {
    #![config(cases = 512)]

    /// On a well-formed frame the peek reads what the decoders read.
    #[test]
    fn peek_agrees_with_the_decoders(s in spec()) {
        let frame = build(&s);
        prop_assert_eq!(peek::dst_mac(&frame), Some(MacAddr::from_host_index(1)));
        prop_assert_eq!(peek::pre_parse(&frame), decoded(&frame));
    }

    /// On a prefix of a well-formed frame the peek keeps what the prefix
    /// holds and zeros the rest: ports need 4 bytes past the IPv4
    /// header, TCP flags 14.
    #[test]
    fn truncated_frames_read_none_or_zeros(s in spec(), cut in 0usize..120) {
        let frame = build(&s);
        let short = &frame[..cut.min(frame.len())];
        let want = decoded(&frame).filter(|_| short.len() >= EthHeader::LEN + Ipv4Header::LEN).map(|mut p| {
            let l4 = short.len() - EthHeader::LEN - Ipv4Header::LEN;
            if l4 < 4 {
                (p.src_port, p.dst_port) = (0, 0);
            }
            if l4 < 14 {
                p.tcp_flags = 0;
            }
            p
        });
        prop_assert_eq!(peek::pre_parse(short), want);
        prop_assert_eq!(peek::dst_mac(short).is_some(), short.len() >= EthHeader::LEN);
    }

    /// Junk with an IPv4 ethertype (so any IHL and protocol byte) never
    /// panics the peek.
    #[test]
    fn junk_never_panics(junk in collection::vec(any::<u8>(), 0..96)) {
        let mut junk = junk;
        if junk.len() >= EthHeader::LEN {
            junk[12..14].copy_from_slice(&EtherType::Ipv4.to_u16().to_be_bytes());
        }
        let p = peek::pre_parse(&junk);
        prop_assert_eq!(p.is_some(), junk.len() >= EthHeader::LEN + Ipv4Header::LEN);
        if let Some(p) = p {
            prop_assert_eq!(p.rss_bucket().is_some(), matches!(p.proto, IpProto::Tcp | IpProto::Udp));
        }
    }
}
