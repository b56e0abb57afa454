//! The Facebook memcached workloads (ETC and USR) and the KV wire
//! protocol.
//!
//! §5.5: "the ETC workload that represents the highest capacity
//! deployment in Facebook, has 20B–70B keys, 1B–1KB values, and 75% GET
//! requests; and the USR workload that represents deployment with most
//! GET requests in Facebook, has short keys (<20B), 2B values, and 99%
//! GET requests. In USR, almost all traffic involves minimum-sized TCP
//! packets."

use ix_sim::SimRng;

/// Which Facebook workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 20–70 B keys, 1 B–1 KB values, 75% GET.
    Etc,
    /// <20 B keys, 2 B values, 99% GET.
    Usr,
}

/// A workload generator: request mix and size distributions.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which deployment profile.
    pub kind: WorkloadKind,
    /// Number of distinct keys.
    pub key_space: u64,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// True for GET, false for SET.
    pub is_get: bool,
    /// Key index (the key bytes derive from it).
    pub key: u64,
    /// Key length in bytes.
    pub key_len: usize,
    /// Value length in bytes (SET payload; GET response size).
    pub val_len: usize,
}

impl Workload {
    /// Creates a generator with the paper's parameters.
    pub fn new(kind: WorkloadKind) -> Workload {
        Workload {
            kind,
            key_space: 100_000,
        }
    }

    /// Fraction of GET operations.
    fn get_ratio(&self) -> f64 {
        match self.kind {
            WorkloadKind::Etc => 0.75,
            WorkloadKind::Usr => 0.99,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&self, rng: &mut SimRng) -> Op {
        let is_get = rng.chance(self.get_ratio());
        let key = rng.below(self.key_space);
        match self.kind {
            WorkloadKind::Etc => {
                let key_len = rng.range_inclusive(20, 70) as usize;
                // Value sizes: Atikoglu et al. report a strong skew
                // toward small values with a tail to ~1 KB; a discrete
                // mixture reproduces the mean and the tail shape.
                let val_len = match rng.below(100) {
                    0..=39 => rng.range_inclusive(1, 16) as usize,
                    40..=69 => rng.range_inclusive(17, 128) as usize,
                    70..=89 => rng.range_inclusive(129, 512) as usize,
                    _ => rng.range_inclusive(513, 1024) as usize,
                };
                Op { is_get, key, key_len, val_len }
            }
            WorkloadKind::Usr => Op {
                is_get,
                key,
                key_len: 16,
                val_len: 2,
            },
        }
    }

    /// Writes the key bytes for a key index over all of `out`, whose
    /// length is the key length (deterministic, so clients and the store
    /// agree without sharing state).
    pub fn write_key(key: u64, out: &mut [u8]) {
        let n = out.len().min(8);
        out[..n].copy_from_slice(&key.to_le_bytes()[..n]);
        out[n..].fill(b'k');
    }

    /// [`write_key`](Self::write_key) into a vector of its own.
    pub fn key_bytes(key: u64, key_len: usize) -> Vec<u8> {
        let mut v = vec![0; key_len];
        Self::write_key(key, &mut v);
        v
    }
}

/// The KV wire protocol (binary, minimal — in the spirit of the
/// memcached binary protocol):
///
/// Request:  `[op:1][klen:2][vlen:4][seq:8][key][val if SET]`
/// Response: `[status:1][vlen:4][seq:8][val if GET-hit]`
pub mod proto {
    /// GET request opcode.
    pub const OP_GET: u8 = 0;
    /// SET request opcode.
    pub const OP_SET: u8 = 1;
    /// Response status: ok / hit.
    pub const ST_OK: u8 = 0;
    /// Response status: miss.
    pub const ST_MISS: u8 = 1;

    /// Fixed request header length.
    pub const REQ_HDR: usize = 1 + 2 + 4 + 8;
    /// Fixed response header length.
    pub const RSP_HDR: usize = 1 + 4 + 8;

    /// Longest key the server accepts (memcached's limit).
    pub const MAX_KEY: usize = 250;
    /// Longest value the server accepts (memcached's item limit).
    pub const MAX_VALUE: usize = 1 << 20;

    /// Length on the wire of a request. For GET, `vlen` communicates the
    /// *expected* response value length via the header only; value
    /// bytes travel only on SET.
    pub fn request_len(op: u8, klen: usize, vlen: usize) -> usize {
        REQ_HDR + klen + if op == OP_SET { vlen } else { 0 }
    }

    /// Writes a request's header into `buf`, which is exactly
    /// [`request_len`] bytes, and returns the key's and the value's
    /// places in it (the latter empty unless SET) for the caller to
    /// fill. This and [`write_response`] are the only encoders.
    pub fn write_request(
        buf: &mut [u8],
        op: u8,
        seq: u64,
        klen: usize,
        vlen: usize,
    ) -> (&mut [u8], &mut [u8]) {
        debug_assert_eq!(buf.len(), request_len(op, klen, vlen));
        let (hdr, body) = buf.split_at_mut(REQ_HDR);
        hdr[0] = op;
        hdr[1..3].copy_from_slice(&(klen as u16).to_be_bytes());
        hdr[3..7].copy_from_slice(&(vlen as u32).to_be_bytes());
        hdr[7..].copy_from_slice(&seq.to_be_bytes());
        body.split_at_mut(klen)
    }

    /// [`write_request`] into a vector of its own, copying `key` and
    /// (for SET) `val`.
    pub fn encode_request(op: u8, seq: u64, key: &[u8], val: &[u8]) -> Vec<u8> {
        let mut out = vec![0; request_len(op, key.len(), val.len())];
        let (k, v) = write_request(&mut out, op, seq, key.len(), val.len());
        k.copy_from_slice(key);
        v.copy_from_slice(&val[..v.len()]);
        out
    }

    /// A parsed request header.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReqHeader {
        /// Opcode.
        pub op: u8,
        /// Key length.
        pub klen: usize,
        /// Value length.
        pub vlen: usize,
        /// Client sequence number (echoed in the response).
        pub seq: u64,
    }

    impl ReqHeader {
        /// Total request length including header.
        pub fn total_len(&self) -> usize {
            request_len(self.op, self.klen, self.vlen)
        }
    }

    /// Parses a request header from a (possibly longer) buffer; `None`
    /// when fewer than `REQ_HDR` bytes are available.
    pub fn decode_request_header(buf: &[u8]) -> Option<ReqHeader> {
        if buf.len() < REQ_HDR {
            return None;
        }
        Some(ReqHeader {
            op: buf[0],
            klen: u16::from_be_bytes([buf[1], buf[2]]) as usize,
            vlen: u32::from_be_bytes([buf[3], buf[4], buf[5], buf[6]]) as usize,
            seq: u64::from_be_bytes(buf[7..15].try_into().expect("8 bytes")),
        })
    }

    /// Writes a response's header into `buf`, which is exactly
    /// `RSP_HDR + vlen` bytes, and returns the value's place in it for
    /// the caller to fill.
    pub fn write_response(buf: &mut [u8], status: u8, seq: u64) -> &mut [u8] {
        let (hdr, val) = buf.split_at_mut(RSP_HDR);
        hdr[0] = status;
        hdr[1..5].copy_from_slice(&(val.len() as u32).to_be_bytes());
        hdr[5..].copy_from_slice(&seq.to_be_bytes());
        val
    }

    /// [`write_response`] into a vector of its own, copying `val`.
    pub fn encode_response(status: u8, seq: u64, val: &[u8]) -> Vec<u8> {
        let mut out = vec![0; RSP_HDR + val.len()];
        write_response(&mut out, status, seq).copy_from_slice(val);
        out
    }

    /// A parsed response header.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RspHeader {
        /// Status code.
        pub status: u8,
        /// Value length that follows.
        pub vlen: usize,
        /// Echoed sequence number.
        pub seq: u64,
    }

    impl RspHeader {
        /// Total response length including header.
        pub fn total_len(&self) -> usize {
            RSP_HDR + self.vlen
        }
    }

    /// Parses a response header; `None` when incomplete.
    pub fn decode_response_header(buf: &[u8]) -> Option<RspHeader> {
        if buf.len() < RSP_HDR {
            return None;
        }
        Some(RspHeader {
            status: buf[0],
            vlen: u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize,
            seq: u64::from_be_bytes(buf[5..13].try_into().expect("8 bytes")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etc_distributions_match_paper() {
        let w = Workload::new(WorkloadKind::Etc);
        let mut rng = SimRng::new(42);
        let mut gets = 0;
        let n = 20_000;
        for _ in 0..n {
            let op = w.next_op(&mut rng);
            gets += op.is_get as u32;
            assert!((20..=70).contains(&op.key_len));
            assert!((1..=1024).contains(&op.val_len));
        }
        let ratio = gets as f64 / n as f64;
        assert!((ratio - 0.75).abs() < 0.02, "GET ratio {ratio}");
    }

    #[test]
    fn usr_is_tiny_and_get_heavy() {
        let w = Workload::new(WorkloadKind::Usr);
        let mut rng = SimRng::new(43);
        let mut gets = 0;
        let n = 20_000;
        for _ in 0..n {
            let op = w.next_op(&mut rng);
            gets += op.is_get as u32;
            assert!(op.key_len < 20);
            assert_eq!(op.val_len, 2);
        }
        let ratio = gets as f64 / n as f64;
        assert!((ratio - 0.99).abs() < 0.005, "GET ratio {ratio}");
        // USR requests fit in a minimum-size TCP packet.
        let req = proto::encode_request(proto::OP_GET, 1, &Workload::key_bytes(7, 16), &[]);
        assert!(req.len() <= 46, "USR request {} bytes", req.len());
    }

    #[test]
    fn request_roundtrip() {
        let key = Workload::key_bytes(123, 32);
        let val = vec![9u8; 100];
        let req = proto::encode_request(proto::OP_SET, 77, &key, &val);
        let h = proto::decode_request_header(&req).unwrap();
        assert_eq!(h.op, proto::OP_SET);
        assert_eq!(h.klen, 32);
        assert_eq!(h.vlen, 100);
        assert_eq!(h.seq, 77);
        assert_eq!(h.total_len(), req.len());
        assert_eq!(&req[proto::REQ_HDR..proto::REQ_HDR + 32], &key[..]);
    }

    #[test]
    fn get_request_omits_value() {
        let key = Workload::key_bytes(5, 20);
        let req = proto::encode_request(proto::OP_GET, 1, &key, &[0u8; 100]);
        // GET semantics: vlen tells the expected response size, but the
        // value bytes do not travel with the request.
        let h = proto::decode_request_header(&req).unwrap();
        assert_eq!(h.vlen, 100);
        assert_eq!(h.total_len(), proto::REQ_HDR + 20);
        assert_eq!(req.len(), h.total_len());
    }

    #[test]
    fn response_roundtrip() {
        let rsp = proto::encode_response(proto::ST_OK, 42, b"ab");
        let h = proto::decode_response_header(&rsp).unwrap();
        assert_eq!(h.status, proto::ST_OK);
        assert_eq!(h.vlen, 2);
        assert_eq!(h.seq, 42);
        assert_eq!(h.total_len(), rsp.len());
    }

    #[test]
    fn key_bytes_deterministic_and_distinct() {
        assert_eq!(Workload::key_bytes(1, 16), Workload::key_bytes(1, 16));
        assert_ne!(Workload::key_bytes(1, 16), Workload::key_bytes(2, 16));
    }
}
