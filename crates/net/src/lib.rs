//! Wire formats for the IX reproduction.
//!
//! IX implements a full TCP/IP stack (derived from lwIP in the original,
//! written from scratch here) over Ethernet. This crate holds the protocol
//! constants, header encode/decode logic, the fixed-offset peek at a
//! frame's flow tuple, internet checksums, the Toeplitz hash and bucket
//! function used by receive-side scaling (RSS), and the frame-size arithmetic
//! that determines wire-level goodput ceilings in Figs 2 and 3c of the
//! paper.
//!
//! Headers are plain structs with explicit `encode`/`decode` methods over
//! byte slices; the simulated links carry real serialized frames, so every
//! packet in every experiment round-trips through these codecs.

pub mod arp;
pub mod checksum;
pub mod eth;
pub mod filter;
pub mod icmp;
pub mod ip;
pub mod peek;
pub mod rss;
pub mod tcp;
pub mod udp;
pub mod wire;

pub use arp::{ArpOp, ArpPacket};
pub use eth::{EthHeader, EtherType, MacAddr};
pub use icmp::{IcmpHeader, IcmpType};
pub use ip::{IpProto, Ipv4Addr, Ipv4Header};
pub use rss::{toeplitz_hash, RssKey, RSS_BUCKETS, TOEPLITZ_DEFAULT_KEY};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;
pub use wire::{frame_wire_bytes, ETH_MTU, MAX_FRAME, MIN_FRAME};

/// Worst-case transmit-side header stack: Ethernet (14) + option-less
/// IPv4 (20) + the protocol-maximum TCP header (60). The zero-copy TX
/// path reserves exactly this much mbuf headroom before writing a payload
/// into the tail, so prepending any L4/L3/L2 header combination the stack
/// emits is guaranteed to fit without moving the payload.
pub const MAX_TX_HEADER_LEN: usize = EthHeader::LEN + Ipv4Header::LEN + TcpHeader::MAX_LEN;

/// Errors produced when decoding malformed packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A checksum did not verify.
    BadChecksum,
    /// A version, length, or type field holds an unsupported value.
    Unsupported,
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Truncated => write!(f, "packet truncated"),
            NetError::BadChecksum => write!(f, "bad checksum"),
            NetError::Unsupported => write!(f, "unsupported field value"),
        }
    }
}

impl std::error::Error for NetError {}
