//! Frame-size arithmetic.
//!
//! The goodput ceilings the paper reports (8.8 M msgs/s at 64 B on 10GbE,
//! 34.5 Gbps at 8 KB on 4x10GbE) are consequences of Ethernet framing
//! overhead; this module is the single place that arithmetic lives.

use crate::eth::EthHeader;
use crate::ip::Ipv4Header;
use crate::tcp::TcpHeader;

/// Standard Ethernet MTU: the largest IP datagram per frame. The paper's
/// testbed never enables jumbo frames (§5.1).
pub const ETH_MTU: usize = 1500;

/// Minimum Ethernet frame (without preamble/IFG): 64 bytes including FCS.
pub const MIN_FRAME: usize = 64;

/// Maximum Ethernet frame: MTU + header + FCS.
pub const MAX_FRAME: usize = ETH_MTU + EthHeader::LEN + FCS_LEN;

/// Frame check sequence (CRC32) length.
pub const FCS_LEN: usize = 4;

/// Preamble + start-of-frame delimiter (8) plus minimum inter-frame gap
/// (12): per-frame wire overhead that never appears in any buffer.
pub const PREAMBLE_IFG: usize = 20;

/// TCP maximum segment size for a standard MTU: 1500 - 20 (IP) - 20 (TCP).
pub const TCP_MSS: usize = ETH_MTU - Ipv4Header::LEN - TcpHeader::BASE_LEN;

/// Returns the number of bytes a frame with `l2_payload` bytes of L2
/// payload (IP datagram or ARP body) occupies on the wire, including
/// header, FCS, padding to the 64-byte minimum, preamble, and IFG.
///
/// # Examples
///
/// ```
/// // A 64-byte TCP payload: 64 + 20 (TCP) + 20 (IP) = 104 L2 payload,
/// // 104 + 18 = 122 frame, + 20 preamble/IFG = 142 bytes on the wire.
/// // 10 Gbps / 142 B = 8.8 M messages/s -- the paper's Fig 3b line rate.
/// assert_eq!(ix_net::frame_wire_bytes(104), 142);
/// ```
pub fn frame_wire_bytes(l2_payload: usize) -> usize {
    let frame = (l2_payload + EthHeader::LEN + FCS_LEN).max(MIN_FRAME);
    frame + PREAMBLE_IFG
}

/// Nanoseconds to serialize a frame with `l2_payload` bytes of L2 payload
/// at `gbps` gigabits per second.
pub fn serialization_ns(l2_payload: usize, gbps: f64) -> u64 {
    let bits = frame_wire_bytes(l2_payload) as f64 * 8.0;
    (bits / gbps).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_frame_padding() {
        // A 1-byte payload still occupies a 64-byte frame + 20 overhead.
        assert_eq!(frame_wire_bytes(1), 84);
        assert_eq!(frame_wire_bytes(0), 84);
        // 46 bytes of payload exactly fills the minimum frame.
        assert_eq!(frame_wire_bytes(46), 84);
        assert_eq!(frame_wire_bytes(47), 85);
    }

    #[test]
    fn full_frame() {
        assert_eq!(frame_wire_bytes(ETH_MTU), 1538);
        assert_eq!(MAX_FRAME, 1518);
        assert_eq!(TCP_MSS, 1460);
    }

    #[test]
    fn paper_line_rate_64b_messages() {
        // §5.3: 64B echo messages saturate 10GbE at 8.8M msgs/s.
        let wire = frame_wire_bytes(64 + 20 + 20);
        let msgs_per_sec = 10e9 / (wire as f64 * 8.0);
        assert!((msgs_per_sec / 1e6 - 8.8).abs() < 0.05, "{msgs_per_sec}");
    }

    #[test]
    fn serialization_time() {
        // Minimum frame at 10 Gbps: 84B * 8 / 10 = 67.2 ns.
        assert_eq!(serialization_ns(46, 10.0), 67);
        // Full frame at 10 Gbps: 1538 * 0.8 = 1230.4 ns.
        assert_eq!(serialization_ns(1500, 10.0), 1230);
    }
}
