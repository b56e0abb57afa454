//! IPv4 header encoding and decoding.

use crate::checksum::checksum;
use crate::NetError;

/// A 32-bit IPv4 address.
///
/// A thin wrapper (instead of `std::net::Ipv4Addr`) so the crate controls
/// ordering, hashing, and a `from_host_index` scheme used to number
/// simulated hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Assigns `10.0.x.y` to simulated host `idx`.
    pub fn from_host_index(idx: u16) -> Ipv4Addr {
        let [hi, lo] = idx.to_be_bytes();
        Ipv4Addr::new(10, 0, hi, lo)
    }

    /// The four octets, most significant first.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl core::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// IP protocol numbers the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved for diagnostics.
    Other(u8),
}

impl IpProto {
    /// The on-wire protocol number.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Parses the on-wire protocol number.
    pub fn from_u8(v: u8) -> IpProto {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// An IPv4 header without options (IHL = 5), which is all the stack emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte (used for ECN experiments).
    pub tos: u8,
    /// Total datagram length including this header.
    pub total_len: u16,
    /// Identification field (used only for diagnostics; the stack never
    /// fragments because TCP segments to the MSS).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Serialized header length (no options).
    pub const LEN: usize = 20;

    /// Default TTL for locally originated packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Encodes the header (with a correct checksum) into the first
    /// [`Ipv4Header::LEN`] bytes of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`Ipv4Header::LEN`].
    pub fn encode(&self, buf: &mut [u8]) {
        buf[0] = 0x45; // Version 4, IHL 5.
        buf[1] = self.tos;
        buf[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF set, no fragments.
        buf[8] = self.ttl;
        buf[9] = self.proto.to_u8();
        buf[10..12].fill(0);
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let ck = checksum(&buf[..Ipv4Header::LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decodes and validates a header from the front of `buf`.
    ///
    /// Rejects non-IPv4 versions, headers with options, truncated buffers,
    /// and checksum failures — mirroring the validation the IX dataplane
    /// performs before any further processing.
    pub fn decode(buf: &[u8]) -> Result<Ipv4Header, NetError> {
        if buf.len() < Ipv4Header::LEN {
            return Err(NetError::Truncated);
        }
        if buf[0] != 0x45 {
            return Err(NetError::Unsupported);
        }
        if checksum(&buf[..Ipv4Header::LEN]) != 0 {
            return Err(NetError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < Ipv4Header::LEN {
            return Err(NetError::Unsupported);
        }
        let mut src = [0u8; 4];
        let mut dst = [0u8; 4];
        src.copy_from_slice(&buf[12..16]);
        dst.copy_from_slice(&buf[16..20]);
        Ok(Ipv4Header {
            tos: buf[1],
            total_len,
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            proto: IpProto::from_u8(buf[9]),
            src: Ipv4Addr(u32::from_be_bytes(src)),
            dst: Ipv4Addr(u32::from_be_bytes(dst)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            tos: 0,
            total_len: 40,
            ident: 0x1c46,
            ttl: 64,
            proto: IpProto::Tcp,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = [0u8; 20];
        h.encode(&mut buf);
        assert_eq!(Ipv4Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn checksum_is_verified() {
        let h = sample();
        let mut buf = [0u8; 20];
        h.encode(&mut buf);
        buf[8] ^= 0xff; // Corrupt TTL.
        assert_eq!(Ipv4Header::decode(&buf), Err(NetError::BadChecksum));
    }

    #[test]
    fn rejects_options_and_versions() {
        let h = sample();
        let mut buf = [0u8; 20];
        h.encode(&mut buf);
        buf[0] = 0x46; // IHL 6 (options present).
        assert_eq!(Ipv4Header::decode(&buf), Err(NetError::Unsupported));
        buf[0] = 0x65; // IPv6 version nibble.
        assert_eq!(Ipv4Header::decode(&buf), Err(NetError::Unsupported));
    }

    #[test]
    fn rejects_truncation_and_bad_length() {
        assert_eq!(Ipv4Header::decode(&[0u8; 10]), Err(NetError::Truncated));
        let h = Ipv4Header {
            total_len: 10, // Less than the header itself.
            ..sample()
        };
        let mut buf = [0u8; 20];
        h.encode(&mut buf);
        assert_eq!(Ipv4Header::decode(&buf), Err(NetError::Unsupported));
    }

    #[test]
    fn host_index_addresses() {
        assert_eq!(format!("{}", Ipv4Addr::from_host_index(0x0102)), "10.0.1.2");
        assert_ne!(Ipv4Addr::from_host_index(1), Ipv4Addr::from_host_index(2));
    }

    #[test]
    fn proto_numbers() {
        assert_eq!(IpProto::Tcp.to_u8(), 6);
        assert_eq!(IpProto::from_u8(17), IpProto::Udp);
        assert_eq!(IpProto::from_u8(89), IpProto::Other(89));
    }
}
