//! The one fixed-offset peek at a frame's headers: what RSS hardware, the
//! switch's LAG hash, the pre-stack filter and Linux's GRO read before
//! anything validates the frame. No checksum, no option walk, no
//! allocation; frames that get that far are validated by the stack's
//! parse (`EthHeader`/`Ipv4Header`/`TcpHeader::decode`).
//!
//! The bounds are the same for every reader. [`dst_mac`] needs the
//! 14-byte Ethernet header. [`pre_parse`] needs the IPv4 ethertype and 34
//! bytes (Ethernet plus an option-less IPv4 header), takes the L4 offset
//! from the frame's IHL, and reads TCP/UDP ports only when 4 bytes past
//! the IHL are in the frame and the TCP flags only when 14 are; a field
//! the frame is too short for reads 0.

use crate::eth::{EthHeader, EtherType, MacAddr};
use crate::ip::{IpProto, Ipv4Addr, Ipv4Header};
use crate::rss;

/// The header fields [`pre_parse`] reads: the RSS tuple plus the TCP
/// flags byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreParsed {
    /// L4 protocol.
    pub proto: IpProto,
    /// Source address.
    pub src_ip: Ipv4Addr,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Source port (0 for ICMP/other).
    pub src_port: u16,
    /// Destination port (0 for ICMP/other).
    pub dst_port: u16,
    /// Raw TCP flags byte (0 for non-TCP).
    pub tcp_flags: u8,
}

impl PreParsed {
    /// True for a connection-opening SYN (SYN set, ACK clear).
    pub fn is_syn_only(&self) -> bool {
        self.tcp_flags & 0x12 == 0x02
    }

    /// The RSS bucket of a TCP or UDP frame; `None` for any other
    /// protocol, which the 82599 steers to its default queue.
    pub fn rss_bucket(&self) -> Option<u16> {
        matches!(self.proto, IpProto::Tcp | IpProto::Udp)
            .then(|| rss::bucket(self.src_ip, self.dst_ip, self.src_port, self.dst_port))
    }
}

/// The destination MAC of an Ethernet frame; `None` for a runt.
#[inline]
pub fn dst_mac(data: &[u8]) -> Option<MacAddr> {
    let eth = data.get(..EthHeader::LEN)?;
    Some(MacAddr([eth[0], eth[1], eth[2], eth[3], eth[4], eth[5]]))
}

/// Reads the tuple fields of an Ethernet/IPv4 frame at fixed offsets.
/// `None` for non-IPv4 frames and frames too short for the IPv4 header
/// (ARP among them, which must always reach the stack).
#[inline]
pub fn pre_parse(data: &[u8]) -> Option<PreParsed> {
    if data.len() < EthHeader::LEN + Ipv4Header::LEN
        || u16::from_be_bytes([data[12], data[13]]) != EtherType::Ipv4.to_u16()
    {
        return None;
    }
    let ip = &data[EthHeader::LEN..];
    let proto = IpProto::from_u8(ip[9]);
    let l4 = ip.get((ip[0] & 0x0f) as usize * 4..).unwrap_or_default();
    let be16 = |at: usize| u16::from_be_bytes([l4[at], l4[at + 1]]);
    let (src_port, dst_port) = match proto {
        IpProto::Tcp | IpProto::Udp if l4.len() >= 4 => (be16(0), be16(2)),
        _ => (0, 0),
    };
    let tcp_flags = if proto == IpProto::Tcp && l4.len() >= 14 { l4[13] } else { 0 };
    Some(PreParsed {
        proto,
        src_ip: Ipv4Addr(u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]])),
        dst_ip: Ipv4Addr(u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]])),
        src_port,
        dst_port,
        tcp_flags,
    })
}
