//! Receive-side scaling: the Toeplitz hash.
//!
//! IX relies on the NIC's flow-consistent hashing (RSS, [Microsoft's
//! specification]) to steer each TCP flow to exactly one hardware queue
//! and therefore one elastic thread — the foundation of the paper's
//! synchronization-free design (§3, §4.4). The hash is also why outbound
//! client connections must *probe the ephemeral port range*: the Toeplitz
//! hash cannot be inverted, so the client tries source ports until the
//! reply hashes to the desired queue (§4.4). Both behaviours need a real
//! implementation, so here it is, validated against the Microsoft
//! known-answer vectors.
//!
//! [Microsoft's specification]: https://learn.microsoft.com/windows-hardware/drivers/network/rss-hashing-types

use crate::ip::Ipv4Addr;

/// A 40-byte RSS secret key, enough for IPv4 5-tuples (12 byte input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssKey(pub [u8; 40]);

/// The de-facto standard "well-known" RSS key from Microsoft's
/// verification suite, also the default of many NIC drivers (including
/// ixgbe, the Intel 82599 driver IX builds on).
pub const TOEPLITZ_DEFAULT_KEY: RssKey = RssKey([
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f,
    0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
]);

/// Computes the Toeplitz hash of `input` under `key`.
///
/// For each set bit of the input (most-significant first), XORs in the
/// 32-bit window of the key starting at that bit position.
pub fn toeplitz_hash(key: &RssKey, input: &[u8]) -> u32 {
    assert!(
        input.len() + 4 <= key.0.len(),
        "input of {} bytes needs a key of at least {} bytes",
        input.len(),
        input.len() + 4
    );
    let mut result = 0u32;
    // The sliding 32-bit window of the key, advanced one bit per input bit.
    let mut window = u32::from_be_bytes([key.0[0], key.0[1], key.0[2], key.0[3]]);
    let mut next_key_bit = 32; // Bit index (from MSB of the key) to shift in next.
    for &byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                result ^= window;
            }
            // Slide the window one bit left, pulling in the next key bit.
            let kbyte = key.0[next_key_bit / 8];
            let kbit = kbyte >> (7 - next_key_bit % 8) & 1;
            window = window << 1 | kbit as u32;
            next_key_bit += 1;
        }
    }
    result
}

/// Computes the RSS hash for an IPv4 TCP/UDP 4-tuple, in the canonical
/// input order: source address, destination address, source port,
/// destination port.
pub fn hash_ipv4_tuple(key: &RssKey, src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> u32 {
    let mut input = [0u8; 12];
    input[0..4].copy_from_slice(&src.octets());
    input[4..8].copy_from_slice(&dst.octets());
    input[8..10].copy_from_slice(&src_port.to_be_bytes());
    input[10..12].copy_from_slice(&dst_port.to_be_bytes());
    toeplitz_hash(key, &input)
}

/// Entries in the 82599's RSS redirection table: a flow's bucket is its
/// hash's low 7 bits, and IXCP moves flow groups one bucket at a time.
pub const RSS_BUCKETS: usize = 128;

/// The redirection-table bucket of an IPv4 TCP/UDP tuple, in the
/// argument order of [`hash_ipv4_tuple`] under the default key: the one
/// bucket function the NIC (steering), the TCP shard (its bucket index
/// and ephemeral-port probing) and IXCP (the table) share.
pub fn bucket(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> u16 {
    let hash = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_KEY, src, dst, src_port, dst_port);
    (hash & (RSS_BUCKETS as u32 - 1)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    type Octets = (u8, u8, u8, u8);

    /// Microsoft RSS verification suite, IPv4-with-TCP-ports vectors.
    /// Columns: src ip:port, dst ip:port, expected hash.
    const VECTORS: &[(Octets, u16, Octets, u16, u32)] = &[
        ((66, 9, 149, 187), 2794, (161, 142, 100, 80), 1766, 0x51ccc178),
        ((199, 92, 111, 2), 14230, (65, 69, 140, 83), 4739, 0xc626b0ea),
        ((24, 19, 198, 95), 12898, (12, 22, 207, 184), 38024, 0x5c2b394a),
        ((38, 27, 205, 30), 48228, (209, 142, 163, 6), 2217, 0xafc7327f),
        ((153, 39, 163, 191), 44251, (202, 188, 127, 2), 1303, 0x10e828a2),
    ];

    #[test]
    fn microsoft_known_answers() {
        for &(s, sp, d, dp, expect) in VECTORS {
            let src = Ipv4Addr::new(s.0, s.1, s.2, s.3);
            let dst = Ipv4Addr::new(d.0, d.1, d.2, d.3);
            let got = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_KEY, src, dst, sp, dp);
            assert_eq!(got, expect, "vector {src}:{sp} -> {dst}:{dp}");
            assert_eq!(u32::from(bucket(src, dst, sp, dp)), expect & 0x7f);
        }
    }

    #[test]
    fn microsoft_ip_only_vectors() {
        // The 8-byte (addresses only) vectors from the same suite.
        const IP_ONLY: &[(Octets, Octets, u32)] = &[
            ((66, 9, 149, 187), (161, 142, 100, 80), 0x323e8fc2),
            ((199, 92, 111, 2), (65, 69, 140, 83), 0xd718262a),
            ((24, 19, 198, 95), (12, 22, 207, 184), 0xd2d0a5de),
            ((38, 27, 205, 30), (209, 142, 163, 6), 0x82989176),
            ((153, 39, 163, 191), (202, 188, 127, 2), 0x5d1809c5),
        ];
        for &(s, d, expect) in IP_ONLY {
            let mut input = [0u8; 8];
            input[0..4].copy_from_slice(&Ipv4Addr::new(s.0, s.1, s.2, s.3).octets());
            input[4..8].copy_from_slice(&Ipv4Addr::new(d.0, d.1, d.2, d.3).octets());
            assert_eq!(toeplitz_hash(&TOEPLITZ_DEFAULT_KEY, &input), expect);
        }
    }

    #[test]
    fn deterministic_and_flow_consistent() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let a = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_KEY, src, dst, 1000, 80);
        let b = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_KEY, src, dst, 1000, 80);
        assert_eq!(a, b);
        // A different source port gives (almost certainly) a different hash.
        let c = hash_ipv4_tuple(&TOEPLITZ_DEFAULT_KEY, src, dst, 1001, 80);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "needs a key")]
    fn oversized_input_panics() {
        let input = [0u8; 64];
        toeplitz_hash(&TOEPLITZ_DEFAULT_KEY, &input);
    }
}
